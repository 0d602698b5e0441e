"""Estimation-service test suite (ISSUE 6 satellites 1 and 3).

Pins the daemon's three contracts:

* **Bit-identity** — a fixed-seed daemon answer equals in-process
  ``repro.estimate(...)`` on the same CSR graph exactly (and fanout
  equals the *serial* multi-chain reference exactly).
* **Any-time answers** — snapshot streams have strictly increasing
  steps, increasing ``seq``, exactly one final frame, and an interval
  that tightens from first to last frame.
* **Robustness** — worker SIGKILL mid-request requeues to the same
  final estimate, a deadline returns the last snapshot as a
  ``RequestTimeout``, admission is bounded, shutdown leaks no
  ``/dev/shm`` segments (asserted by the module-level guard).

Slow daemon fault-injection paths carry ``@pytest.mark.service`` and run
in the dedicated CI ``service-smoke`` job (``pytest -m service``);
everything else is tier-1.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import pytest

import repro
from repro import estimate as in_process_estimate
from repro.core import EstimationConfig, TargetStderr
from repro.graphs import CSRGraph, barabasi_albert
from repro.service import (
    Client,
    Daemon,
    EstimateRequest,
    RequestFailed,
    RequestTimeout,
    ServiceOverloaded,
    ServiceServer,
)
from repro.service.worker import worker_main


@pytest.fixture(scope="module", autouse=True)
def segment_guard(segments):
    """The whole module must leave ``/dev/shm`` exactly as found."""
    before = segments()
    yield
    leaked = segments() - before
    assert not leaked, f"orphaned shared-memory segments: {sorted(leaked)}"


@pytest.fixture(scope="module")
def csr():
    return CSRGraph.from_graph(barabasi_albert(300, 3, seed=1))


@pytest.fixture(scope="module")
def daemon(csr, segment_guard):
    with Daemon(csr, workers=2) as running:
        yield running


def canon(estimate) -> dict:
    """``Estimate.to_dict()`` minus wall-clock noise (the bit-identity
    projection — everything else is a pure function of the request)."""
    data = estimate.to_dict()
    data.pop("elapsed_seconds", None)
    meta = data.get("meta")
    if isinstance(meta, dict):
        data["meta"] = {
            key: value
            for key, value in meta.items()
            if not key.endswith("_seconds")
        }
    return data


# ----------------------------------------------------------------------
# Bit-identity
# ----------------------------------------------------------------------
class TestBitIdentity:
    @pytest.mark.parametrize(
        "method,k,budget",
        [("srw1", 3, 4000), ("srw2css", 4, 4000), ("srw3css", 5, 1500)],
    )
    def test_matches_in_process_estimate(self, daemon, csr, method, k, budget):
        got = daemon.estimate(method, k=k, budget=budget, seed=11)
        want = in_process_estimate(csr, method, k=k, budget=budget, seed=11)
        assert canon(got) == canon(want)

    def test_multichain_single_part_matches(self, daemon, csr):
        got = daemon.estimate("srw2css", k=4, budget=4000, seed=5, chains=3)
        want = in_process_estimate(
            csr, "srw2css", k=4, budget=4000, seed=5, chains=3
        )
        assert canon(got) == canon(want)

    @pytest.mark.filterwarnings("ignore:multi-chain run falling back")
    def test_fanout_matches_serial_multichain_reference(self, daemon):
        """Fanout parts pool to the *serial* multi-chain session's exact
        answer (same per-chain seed derivation, same pooling algebra) —
        the list-backend graph is the reference that still takes the
        session's serial mode."""
        graph = barabasi_albert(300, 3, seed=1)
        got = daemon.estimate(
            "srw2css", k=4, budget=4000, seed=3, chains=4, fanout=True
        )
        want = in_process_estimate(
            graph, "srw2css", k=4, budget=4000, seed=3, chains=4
        )
        assert canon(got) == canon(want)

    def test_concurrent_submitters_each_get_their_own_answer(self, daemon, csr):
        jobs = [
            ("srw1", 3, 101),
            ("srw2css", 4, 102),
            ("srw1", 3, 103),
            ("srw2css", 4, 104),
        ]

        def run(job):
            method, k, seed = job
            return canon(daemon.estimate(method, k=k, budget=3000, seed=seed))

        with ThreadPoolExecutor(max_workers=len(jobs)) as pool:
            got = list(pool.map(run, jobs))
        want = [
            canon(in_process_estimate(csr, method, k=k, budget=3000, seed=seed))
            for method, k, seed in jobs
        ]
        assert got == want


# ----------------------------------------------------------------------
# Any-time snapshot stream
# ----------------------------------------------------------------------
class TestSnapshots:
    def test_stream_contract(self, daemon):
        handle = daemon.submit(
            EstimateRequest(
                "srw2css", k=4, budget=4000, chains=2, seed=9, snapshot_steps=500
            )
        )
        frames = list(handle.snapshots(timeout=120))
        # Exactly one final frame, and it is the last one.
        assert [f.final for f in frames].count(True) == 1
        assert frames[-1].final
        # Steps strictly increase up to the full budget.
        steps = [f.steps for f in frames]
        assert all(b > a for a, b in zip(steps, steps[1:]))
        assert steps[-1] == 4000
        # seq increases one by one.
        assert [f.seq for f in frames] == list(range(1, len(frames) + 1))
        # The interval tightens from the first frame to the final answer.
        bounds = [f.stderr_bound for f in frames]
        assert all(b is not None for b in bounds)
        assert bounds[-1] <= bounds[0]

    def test_result_after_stream_is_the_final_estimate(self, daemon, csr):
        handle = daemon.submit(
            EstimateRequest("srw1", k=3, budget=2000, seed=17, snapshot_steps=400)
        )
        frames = list(handle.snapshots(timeout=120))
        result = handle.result(timeout=5)
        assert canon(result) == canon(frames[-1].estimate)
        assert canon(result) == canon(
            in_process_estimate(csr, "srw1", k=3, budget=2000, seed=17)
        )

    def test_target_stderr_early_stop_is_deterministic(self, csr):
        """With one worker the fanout parts run in a fixed order, so the
        early-stop point — and therefore the answer — is reproducible."""

        def run():
            with Daemon(csr, workers=1) as service:
                handle = service.submit(
                    EstimateRequest(
                        "srw2css",
                        k=4,
                        budget=40_000,
                        seed=7,
                        chains=4,
                        fanout=True,
                        snapshot_steps=1000,
                        target=TargetStderr(0.02),
                    )
                )
                return list(handle.snapshots(timeout=300))[-1]

        first, second = run(), run()
        assert first.final and first.early_stopped and not first.timed_out
        assert 0 < first.steps < 40_000
        assert first.stderr_bound <= 0.02
        assert canon(first.estimate) == canon(second.estimate)
        assert first.steps == second.steps


# ----------------------------------------------------------------------
# Self-tuning: stopping targets, auto-selection, budget reallocation
# ----------------------------------------------------------------------
class TestSelfTuning:
    def test_target_spec_is_normalized(self):
        spec = EstimateRequest("srw1", k=3, budget=4000, target=TargetStderr(0.02))
        assert spec.target == TargetStderr(0.02)
        assert spec.budget == 4000  # an open-ended spec keeps the budget
        # A step-capped spec overrides the raw budget.
        capped = EstimateRequest("srw1", k=3, budget=9999, target="steps:4000")
        assert capped.budget == 4000

    def test_auto_method_resolves_with_selection_meta(self, daemon):
        handle = daemon.submit(EstimateRequest("auto", k=3, budget=6000, seed=3))
        result = handle.result(timeout=120)
        selection = result.meta["selection"]
        assert result.method == selection["method"] != "auto"
        assert selection["num_nodes"] == 300

    def test_snapshots_carry_the_active_stopping_rule(self, daemon):
        handle = daemon.submit(
            EstimateRequest(
                "srw2css", k=4, budget=4000, chains=2, seed=9,
                snapshot_steps=1000, target=TargetStderr(1e-9),
            )
        )
        frames = list(handle.snapshots(timeout=120))
        assert frames, "no snapshots arrived"
        for frame in frames:
            stopping = frame.meta["stopping"]
            assert stopping["target"] == "stderr:1e-09"
            assert stopping["dynamic"]

    def test_released_budget_is_reallocated_to_converging_requests(self, csr):
        """An early-stopped request funds a still-converging one.

        Serialized on one worker for determinism: request A early-stops
        well under budget and releases the remainder to the pool;
        request B (an unreachable target) then draws pool-funded
        extension parts past its own budget.  A control daemon shows B
        alone stops exactly at its budget.
        """
        unreachable = TargetStderr(1e-9)
        b_request = EstimateRequest(
            "srw2css", k=4, budget=2000, seed=13, chains=2,
            fanout=True, snapshot_steps=500, target=unreachable,
        )
        with Daemon(csr, workers=1) as service:
            first = service.submit(
                EstimateRequest(
                    "srw2css", k=4, budget=40_000, seed=7, chains=4,
                    fanout=True, snapshot_steps=1000, target=TargetStderr(0.02),
                )
            )
            a_final = list(first.snapshots(timeout=300))[-1]
            assert a_final.early_stopped
            released = service.stats()["released_budget"]
            assert released == 40_000 - a_final.steps > 0

            second = service.submit(b_request)
            b_final = list(second.snapshots(timeout=300))[-1]
            stats = service.stats()

        assert b_final.final and b_final.error is None
        # B ran past its own budget on pool-funded extension parts...
        assert b_final.steps > 2000
        stopping = b_final.estimate.meta["stopping"]
        assert stopping["extra_steps"] == b_final.steps - 2000 > 0
        # ...but the unreachable target still reports itself unmet, and
        # extensions are capped at 3x the original budget.
        assert not stopping["satisfied"]
        assert stopping["extra_steps"] <= 3 * 2000
        assert stats["reallocated_budget"] == stopping["extra_steps"]
        assert stats["released_budget"] == released - stopping["extra_steps"]

        # Control: with nothing in the pool, B stops exactly at budget.
        with Daemon(csr, workers=1) as service:
            control = service.submit(b_request).result(timeout=300)
        assert control.steps == 2000
        assert control.meta["stopping"]["extra_steps"] == 0

    def test_cancel_releases_unused_budget_exactly_once(self, csr):
        """A caller cancel banks budget - steps into the pool — once.

        The released amount must be exactly the cancelled request's
        unwalked remainder (pinned against the error snapshot the cancel
        produces), and a second cancel of the same handle must not bank
        anything more.
        """
        with Daemon(csr, workers=1) as service:
            handle = service.submit(
                EstimateRequest(
                    "srw2css", k=4, budget=2_000_000, seed=5,
                    snapshot_steps=2000,
                )
            )
            stream = handle.snapshots(timeout=120)
            first = next(stream)  # the request demonstrably ran...
            assert first.steps > 0
            handle.cancel()       # ...and is then abandoned mid-budget
            with pytest.raises(RequestFailed, match="cancelled") as excinfo:
                handle.result(timeout=60)
            final = excinfo.value.snapshot
            released = service.stats()["released_budget"]
            assert released == final.budget - final.steps > 0
            handle.cancel()  # idempotent: nothing left to release
            assert service.stats()["released_budget"] == released


# ----------------------------------------------------------------------
# Admission control and failure surfaces
# ----------------------------------------------------------------------
class TestAdmission:
    def test_unknown_method_fails_fast_without_leaking_a_slot(self, daemon, csr):
        with pytest.raises(KeyError, match="no_such_method"):
            daemon.submit(EstimateRequest("no_such_method", budget=100))
        # The rejection happened pre-admission: the daemon still serves.
        got = daemon.estimate("srw1", k=3, budget=1000, seed=0)
        assert canon(got) == canon(
            in_process_estimate(csr, "srw1", k=3, budget=1000, seed=0)
        )

    def test_fanout_rejects_chainless_methods(self, daemon):
        with pytest.raises(ValueError, match="independent-chain"):
            daemon.submit(
                EstimateRequest("wedge", k=4, budget=1000, chains=2, fanout=True)
            )

    def test_bounded_admission_backpressure(self, csr):
        with Daemon(csr, workers=1, max_pending=1) as service:
            hog = service.submit(
                EstimateRequest(
                    "srw1", k=3, budget=50_000_000, seed=1, snapshot_steps=20_000
                )
            )
            with pytest.raises(ServiceOverloaded, match="bounded admission"):
                service.submit(
                    EstimateRequest("srw1", k=3, budget=100, seed=2), block=False
                )
            hog.cancel()
            with pytest.raises(RequestFailed, match="cancelled"):
                hog.result(timeout=60)
            # Cancellation released the slot; the daemon serves again.
            final = service.estimate("srw1", k=3, budget=1000, seed=3)
            assert canon(final) == canon(
                in_process_estimate(csr, "srw1", k=3, budget=1000, seed=3)
            )

    def test_worker_side_failure_surfaces_as_request_failed(self, daemon):
        # k=99 passes admission (the method exists) but blows up when the
        # worker builds its config; the daemon relays the traceback text.
        with pytest.raises(RequestFailed, match="unsupported"):
            daemon.estimate("srw1", k=99, budget=1000, seed=1)


# ----------------------------------------------------------------------
# Socket server + client facade
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def server(daemon, tmp_path_factory):
    address = str(tmp_path_factory.mktemp("service") / "repro-test.sock")
    running = ServiceServer(daemon, address)
    running.start()
    yield address
    running.close()


class TestSocket:
    def test_ping_reports_daemon_stats(self, server, csr):
        stats = Client(server).ping()
        assert stats["workers"] >= 1
        assert stats["num_nodes"] == csr.num_nodes
        assert stats["num_edges"] == csr.num_edges

    def test_concurrent_clients_are_bit_identical(self, server, csr):
        jobs = [("srw1", 3, 21), ("srw2css", 4, 22), ("srw1", 3, 23)]

        def run(job):
            method, k, seed = job
            return canon(Client(server).query(method, k=k, budget=3000, seed=seed))

        with ThreadPoolExecutor(max_workers=len(jobs)) as pool:
            got = list(pool.map(run, jobs))
        want = [
            canon(in_process_estimate(csr, method, k=k, budget=3000, seed=seed))
            for method, k, seed in jobs
        ]
        assert got == want

    def test_stream_over_socket(self, server):
        frames = list(
            Client(server).stream(
                "srw1", k=3, budget=2000, seed=2, snapshot_steps=400
            )
        )
        steps = [f.steps for f in frames]
        assert all(b > a for a, b in zip(steps, steps[1:]))
        assert frames[-1].final and frames[-1].estimate is not None

    def test_query_error_propagates(self, server):
        with pytest.raises(RequestFailed, match="unsupported"):
            Client(server).query("srw1", k=99, budget=500, seed=1)


# ----------------------------------------------------------------------
# Worker loop, driven in-process (frame-protocol coverage)
# ----------------------------------------------------------------------
def test_worker_main_frame_protocol(csr):
    """Drive ``worker_main`` over one pipe, with the test as the daemon."""
    shared = csr.to_shared()
    config = EstimationConfig(method="srw1", k=3, target=2000, seed=4)
    conn, worker_conn = multiprocessing.Pipe()
    worker = threading.Thread(target=worker_main, args=(shared.handle, worker_conn))
    worker.start()

    def answer():
        """Frames up to and including the task's closing one."""
        frames = [conn.recv()]
        while frames[-1][0] == "partial":
            frames.append(conn.recv())
        return frames

    golden = canon(in_process_estimate(csr, "srw1", k=3, budget=2000, seed=4))
    try:
        conn.send(("r-live", 0, 0, config, 500))
        *partials, done = answer()
        assert [p[4].steps for p in partials] == [500, 1000, 1500]
        assert all(p[:4] == ("partial", "r-live", 0, 0) for p in partials)
        assert done[:4] == ("done", "r-live", 0, 0)
        assert canon(done[4]) == golden

        # A cancel stops its task at the next chunk boundary.
        conn.send(("r-cancelled", 1, 2, config, 500))
        conn.send("r-cancelled")
        assert answer()[-1] == ("skipped", "r-cancelled", 1, 2)

        # A failing task answers with its traceback; the worker lives on.
        conn.send(("r-broken", 0, 0, replace(config, k=99), 500))
        (error,) = answer()
        assert error[:4] == ("error", "r-broken", 0, 0)
        assert "Traceback" in error[4]

        # A pill read mid-part lets the part finish, then the worker exits.
        conn.send(("r-last", 0, 0, config, 500))
        conn.send(None)
        done = answer()[-1]
        assert done[:4] == ("done", "r-last", 0, 0)
        assert canon(done[4]) == golden
        worker.join(timeout=30)
        assert not worker.is_alive()
        assert not conn.poll()
    finally:
        conn.send(None)  # ends the worker early if an assertion failed
        worker.join(timeout=30)
        conn.close()
        worker_conn.close()
        shared.close()
        shared.unlink()


# ----------------------------------------------------------------------
# Fault injection (slow; CI runs these under `pytest -m service`)
# ----------------------------------------------------------------------
#: One SIGKILL-and-requeue run, for a fresh interpreter: exits 0 when the
#: requeued request answers like the in-process run and no segment of
#: this process is left in ``/dev/shm``.
_SIGKILL_RUN = """
import os, signal, sys, time
from repro import estimate
from repro.graphs import CSRGraph, barabasi_albert
from repro.graphs.shared import SEGMENT_PREFIX
from repro.service import Daemon, EstimateRequest

def canon(est):
    data = est.to_dict()
    data.pop("elapsed_seconds", None)
    data["meta"] = {
        k: v for k, v in data["meta"].items() if not k.endswith("_seconds")
    }
    return data

csr = CSRGraph.from_graph(barabasi_albert(300, 3, seed=1))
golden = canon(estimate(csr, "srw2css", k=4, budget=20_000, seed=13))
with Daemon(csr, workers=2) as service:
    handle = service.submit(
        EstimateRequest("srw2css", k=4, budget=20_000, seed=13, snapshot_steps=500)
    )
    deadline = time.monotonic() + 30
    busy = []
    while not busy and time.monotonic() < deadline:
        with service._lock:
            busy = [w.process.pid for w in service._workers.values() if w.inflight]
        time.sleep(0.002)
    assert busy, "no worker ever went busy"
    os.kill(busy[0], signal.SIGKILL)
    try:
        answer = canon(handle.result(timeout=60))
    except TimeoutError as exc:
        sys.exit(f"hung after the SIGKILL: {exc}")
    assert service.stats()["requeues"] == 1
assert answer == golden, "the requeued answer differs from the in-process run"
prefix = f"{SEGMENT_PREFIX}{os.getpid()}-"
assert not [f for f in os.listdir("/dev/shm") if f.startswith(prefix)]
"""


@pytest.mark.service
class TestFaultInjection:
    def test_sigkilled_worker_requeues_to_the_same_answer(self, csr):
        golden = canon(
            in_process_estimate(csr, "srw2css", k=4, budget=60_000, seed=13)
        )
        with Daemon(csr, workers=2) as service:
            handle = service.submit(
                EstimateRequest(
                    "srw2css", k=4, budget=60_000, seed=13, snapshot_steps=2000
                )
            )
            victim = None
            deadline = time.monotonic() + 30
            while victim is None and time.monotonic() < deadline:
                busy = [
                    worker.process.pid
                    for worker in service._workers.values()
                    if worker.inflight is not None
                    and not worker.retired
                    and worker.process.is_alive()
                ]
                victim = busy[0] if busy else None
                if victim is None:
                    time.sleep(0.002)
            assert victim is not None, "no worker ever went busy"
            os.kill(victim, signal.SIGKILL)
            result = handle.result(timeout=300)
            assert canon(result) == golden
            stats = service.stats()
            assert stats["requeues"] >= 1
            # The pool healed: a replacement worker serves new requests.
            assert len(service.worker_pids()) == 2
            again = service.estimate("srw1", k=3, budget=1000, seed=2)
            assert canon(again) == canon(
                in_process_estimate(csr, "srw1", k=3, budget=1000, seed=2)
            )

    def test_sigkill_requeue_never_hangs_in_fresh_processes(self):
        """A worker killed mid-frame must not silence the rest of the pool.

        Each run is a fresh interpreter: the hang this guards against
        (a SIGKILLed worker dying inside a lock or a frame that its
        siblings' frames also need) showed up in fresh processes, not in
        daemons started one after another in one process.  Each run
        bounds its own wait and shuts down through ``Daemon.close()``,
        so a hang fails here without orphaning workers or segments.
        """
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.dirname(os.path.dirname(repro.__file__))]
            + [p for p in [env.get("PYTHONPATH")] if p]
        )
        for run in range(20):
            proc = subprocess.run(
                [sys.executable, "-c", _SIGKILL_RUN],
                env=env,
                capture_output=True,
                text=True,
                timeout=300,
            )
            assert proc.returncode == 0, f"run {run}: {proc.stdout}{proc.stderr}"

    def test_cancel_after_sigkill_does_not_double_release_budget(self, csr):
        """A SIGKILL requeue must not inflate a later cancel's release.

        The dead incarnation's walked steps were spent compute even
        though the requeue reset its frames to replay from step 0; a
        cancel after the kill may only bank
        ``budget - live_steps - dead_steps``.  Pre-fix, the release was
        ``budget - live_steps`` — the dead incarnation's share was
        banked a second time.
        """
        with Daemon(csr, workers=2) as service:
            handle = service.submit(
                EstimateRequest(
                    "srw2css", k=4, budget=2_000_000, seed=17,
                    snapshot_steps=2000,
                )
            )
            stream = handle.snapshots(timeout=120)
            pre_kill = next(stream).steps  # the doomed incarnation's floor
            assert pre_kill > 0
            victim = None
            deadline = time.monotonic() + 30
            while victim is None and time.monotonic() < deadline:
                busy = [
                    worker.process.pid
                    for worker in service._workers.values()
                    if worker.inflight is not None
                    and not worker.retired
                    and worker.process.is_alive()
                ]
                victim = busy[0] if busy else None
                if victim is None:
                    time.sleep(0.002)
            assert victim is not None, "no worker ever went busy"
            os.kill(victim, signal.SIGKILL)
            deadline = time.monotonic() + 60
            while (
                service.stats()["requeues"] < 1
                and time.monotonic() < deadline
            ):
                time.sleep(0.002)
            assert service.stats()["requeues"] >= 1, "kill never requeued"
            handle.cancel()
            with pytest.raises(RequestFailed, match="cancelled") as excinfo:
                handle.result(timeout=60)
            final = excinfo.value.snapshot
            released = service.stats()["released_budget"]
            # final.steps only counts the live incarnation (the requeue
            # reset the dead one's frames), so exactly-once accounting
            # means the release is short of budget - steps by at least
            # the steps the dead incarnation demonstrably walked.
            assert 0 < released <= final.budget - final.steps - pre_kill

    def test_timeout_returns_last_snapshot(self, daemon):
        handle = daemon.submit(
            EstimateRequest(
                "srw1",
                k=3,
                budget=50_000_000,
                seed=1,
                snapshot_steps=20_000,
                timeout_seconds=1.5,
            )
        )
        with pytest.raises(RequestTimeout) as excinfo:
            handle.result(timeout=120)
        snapshot = excinfo.value.snapshot
        assert snapshot.final and snapshot.timed_out
        assert snapshot.error is None
        # The deadline still pays out the best any-time answer so far.
        assert 0 < snapshot.steps < 50_000_000
        assert snapshot.estimate is not None
        assert snapshot.estimate.concentrations is not None

    def test_timeout_over_socket(self, server):
        request = EstimateRequest(
            "srw1",
            k=3,
            budget=50_000_000,
            seed=1,
            snapshot_steps=20_000,
            timeout_seconds=1.0,
        )
        with pytest.raises(RequestTimeout) as excinfo:
            Client(server).query(request=request)
        assert excinfo.value.snapshot.timed_out
        assert excinfo.value.snapshot.estimate is not None
