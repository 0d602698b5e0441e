"""The daemon's worker-process loop.

Each worker attaches the published :class:`SharedCSRGraph` once (O(1),
zero-copy), then serves task tuples from its private queue:

    (request_id, attempt, part_index, config_kwargs, snapshot_steps)

A task opens a streaming estimator session
(:func:`repro.estimators.prepare`) and drains it in ``snapshot_steps``
chunks, shipping a ``("partial", ...)`` frame after every chunk but the
last and a ``("done", ...)`` frame with the finished estimate.  An
in-process ``repro.estimate`` drains the same session in one chunk, and
the chunking cannot move a bit of the result (pinned by the streamed
vs. one-shot tests in ``tests/test_estimators_api.py``), which is what
makes the daemon's answers match in-process ``repro.estimate`` exactly.

Between chunks the worker drains its control pipe, through which the
daemon broadcasts cancelled request ids (timeouts, early stops,
shutdown); a cancelled task stops mid-walk and reports ``("skipped",
...)`` so the daemon can hand the worker its next task.  Every outgoing
frame carries the task's ``attempt`` counter — after a worker death and
requeue, frames from the doomed incarnation (if any survived in the
queue) are stale and the daemon drops them, keeping execution
at-most-once per chain seed.

``None`` on the task queue is the shutdown pill: the worker closes its
graph mapping and exits cleanly.
"""

from __future__ import annotations

import traceback

from ..core.session import EstimationConfig
from ..estimators import prepare
from ..graphs.csr import CSRGraph


def _drain_control(control, cancelled: set) -> None:
    """Move any pending cancel broadcasts into the local cancelled set."""
    try:
        while control.poll():
            cancelled.add(control.recv())
    except (EOFError, OSError):  # daemon side closed; shutdown imminent
        pass


def _run_task(graph, task, results, worker_id, control, cancelled) -> None:
    request_id, attempt, part, config_kwargs, snapshot_steps = task
    config = EstimationConfig(**config_kwargs)
    session = prepare(graph, config)
    while True:
        session.step(min(snapshot_steps, session.remaining))
        _drain_control(control, cancelled)
        if request_id in cancelled:
            results.put(("skipped", worker_id, request_id, attempt, part))
            return
        if session.done:
            results.put(
                ("done", worker_id, request_id, attempt, part, session.result())
            )
            return
        results.put(
            ("partial", worker_id, request_id, attempt, part, session.snapshot())
        )


def worker_main(worker_id: int, handle, tasks, results, control) -> None:
    """Entry point of one daemon worker process."""
    graph = CSRGraph.from_shared(handle)
    cancelled: set = set()
    results.put(("ready", worker_id))
    try:
        while True:
            task = tasks.get()
            if task is None:
                break
            _drain_control(control, cancelled)
            request_id, attempt, part = task[0], task[1], task[2]
            if request_id in cancelled:
                results.put(("skipped", worker_id, request_id, attempt, part))
                continue
            try:
                _run_task(graph, task, results, worker_id, control, cancelled)
            except Exception:
                results.put(
                    (
                        "error",
                        worker_id,
                        request_id,
                        attempt,
                        part,
                        traceback.format_exc(),
                    )
                )
    finally:
        graph.close()
        try:
            results.put(("stopped", worker_id))
        except Exception:  # pragma: no cover - queue torn down mid-exit
            pass
