"""Named experiment suites: the paper's figures as declarative specs.

A suite is a tuple of :class:`~repro.experiments.ExperimentSpec`s
runnable as one unit via ``repro bench --suite <name>``.  The figure
suites use ``seed_strategy="sequential"`` — the historical
``base_seed + t`` derivation — so the converted ``benchmarks/bench_*``
scripts reproduce the exact numbers they asserted before the engine
existed; new suites default to the SeedSequence ``"spawn"`` stream.

``smoke`` is the CI trajectory suite: a generated Barabási–Albert graph
(no data-file dependency), two methods, seconds of work — small enough
to run twice per CI push (``--jobs 2`` vs ``--jobs 1``) to prove
parallel/serial bit-identity on every change.

``css-speedup`` is the fast-path throughput suite: batched SRW2+CSS
(and plain SRW2 for contrast) at ``chains=256`` on the CSR backend over
a generated BA graph, so the vectorized CSS pipeline's steps/sec lands
in the ``BENCH_*`` trajectory artifacts commit over commit.

``srw3-speedup`` does the same for the d >= 3 hot path: batched SRW3
(k = 4, PSRW's regime — the expensive walks of the paper's Table 6) at
``chains=256`` on the CSR backend, tracking the swap-frontier engine's
throughput commit over commit.

``single-chain`` does the same for the paper's one-crawler setting
(Algorithm 1, ``chains=1``): SRW1CSSNB at k = 3 and SRW2CSS at k = 4 on
the CSR backend, one spec (and one ``BENCH_*`` file) per graphlet size.

``stream-smoke`` is the dynamic-graph trajectory suite: the graded
graph is a BA graph churned through a seeded
:class:`~repro.streaming.EdgeStreamSpec` and compacted (the ``stream:``
source grammar), so the delta overlay's compaction path sits inside the
parallel/serial bit-identity check — and the refresh benchmark
(``benchmarks/bench_stream_refresh.py``) reuses the same workload shape.

``autotune-smoke`` exercises the self-tuning surface end to end: two
generated graphs route ``method="auto"`` through both selector branches
(walk with a ``stopping="stderr:0.05"`` early-stop target, and the
exact-enumeration short-circuit), inside the same parallel/serial
bit-identity gate as the other smoke suites.
"""

from __future__ import annotations

from typing import Dict, Tuple

from .spec import ExperimentSpec

_FIG4A_DATASETS = ("brightkite-like", "slashdot-like")
_FIG4B_DATASETS = ("brightkite-like", "facebook-like")
_FIG8A_DATASETS = ("brightkite-like", "gowalla-like", "slashdot-like")
_FIG6_GRID = (1_000, 2_000, 4_000, 8_000)
_FIG8B_GRID = (1_000, 4_000, 8_000)


def _smoke() -> Tuple[ExperimentSpec, ...]:
    return (
        ExperimentSpec(
            name="smoke",
            graph="ba:180:3:1",
            k=3,
            methods=("SRW1", "SRW1CSSNB"),
            budget=1_200,
            trials=8,
            base_seed=0,
            seed_strategy="spawn",
            starts="random",
            target="triangle",
            description="CI trajectory suite on a generated BA(180, 3) graph",
        ),
    )


def _css_speedup() -> Tuple[ExperimentSpec, ...]:
    return (
        ExperimentSpec(
            name="css-speedup",
            graph="ba:2000:6:3",
            k=4,
            methods=("SRW2CSS", "SRW2"),
            budget=256_000,
            trials=3,
            base_seed=17,
            seed_strategy="spawn",
            starts="random",
            target="clique",
            chains=256,
            backend="csr",
            description=(
                "CSS fast-path throughput: vectorized SRW2[CSS] at "
                "chains=256 on the CSR backend"
            ),
        ),
    )


def _srw3_speedup() -> Tuple[ExperimentSpec, ...]:
    return (
        ExperimentSpec(
            name="srw3-speedup",
            graph="ba:2000:6:3",
            k=4,
            methods=("SRW3",),
            budget=128_000,
            trials=3,
            base_seed=23,
            seed_strategy="spawn",
            starts="random",
            target="clique",
            chains=256,
            backend="csr",
            description=(
                "d >= 3 fast-path throughput: vectorized SRW3 (k=4) at "
                "chains=256 on the CSR backend"
            ),
        ),
    )


def _single_chain() -> Tuple[ExperimentSpec, ...]:
    return tuple(
        ExperimentSpec(
            name=f"single-chain-k{k}",
            graph="ba:2000:6:3",
            k=k,
            methods=(method,),
            budget=60_000,
            trials=3,
            base_seed=29,
            seed_strategy="spawn",
            starts="random",
            target=target,
            chains=1,
            backend="csr",
            description=(
                f"one-crawler throughput: {method} (k={k}) at chains=1 on "
                "the CSR backend"
            ),
        )
        for k, method, target in ((3, "SRW1CSSNB", "triangle"), (4, "SRW2CSS", "clique"))
    )


def _stream_smoke() -> Tuple[ExperimentSpec, ...]:
    return (
        ExperimentSpec(
            name="stream-smoke",
            graph="stream:400:3:5:6:12",
            k=3,
            methods=("SRW1", "SRW1CSSNB"),
            budget=1_200,
            trials=6,
            base_seed=11,
            seed_strategy="spawn",
            starts="random",
            target="triangle",
            chains=4,
            backend="csr",
            description=(
                "dynamic-graph trajectory suite: BA(400, 3) churned through "
                "6 seeded batches of 12 inserts + 12 deletes, compacted"
            ),
        ),
    )


def _autotune_smoke() -> Tuple[ExperimentSpec, ...]:
    return (
        # Walk branch of the auto-selector: the graph is past the exact
        # ceiling, the stopping rule needs a stderr, so every trial
        # resolves to the recommended walk method with promoted chains
        # on the CSR backend — and stops early once stderr:0.05 fires.
        ExperimentSpec(
            name="autotune-walk",
            graph="ba:240:3:2",
            k=3,
            methods=("auto",),
            budget=20_000,
            trials=4,
            base_seed=31,
            seed_strategy="spawn",
            starts="random",
            target="triangle",
            stopping="stderr:0.05",
            description=(
                "auto-selector walk branch: method=auto resolves to the "
                "recommended walk estimator, stderr:0.05 stops trials early"
            ),
        ),
        # Exact branch: the graph is small enough to enumerate, so the
        # selector short-circuits every trial to the oracle.
        ExperimentSpec(
            name="autotune-exact",
            graph="ba:100:3:9",
            k=3,
            methods=("auto",),
            budget=2_000,
            trials=2,
            base_seed=37,
            seed_strategy="spawn",
            starts="random",
            target="triangle",
            description=(
                "auto-selector exact branch: the graph sits under the "
                "enumeration ceiling, so method=auto picks the oracle"
            ),
        ),
    )


def _fig4() -> Tuple[ExperimentSpec, ...]:
    specs = [
        ExperimentSpec(
            name=f"fig4a-{dataset}",
            graph=f"dataset:{dataset}",
            k=3,
            methods=("SRW1", "SRW1CSS", "SRW1CSSNB", "SRW2", "SRW2NB"),
            budget=4_000,
            trials=24,
            base_seed=4,
            seed_strategy="sequential",
            target="triangle",
            description="Figure 4a: NRMSE of c32 across methods",
        )
        for dataset in _FIG4A_DATASETS
    ]
    specs += [
        ExperimentSpec(
            name=f"fig4b-{dataset}",
            graph=f"dataset:{dataset}",
            k=4,
            methods=("SRW2", "SRW2CSS", "SRW3"),
            budget=4_000,
            trials=24,
            base_seed=6,
            seed_strategy="sequential",
            target="clique",
            description="Figure 4b: NRMSE of c46 across methods",
        )
        for dataset in _FIG4B_DATASETS
    ]
    specs.append(
        ExperimentSpec(
            name="fig4c-karate",
            graph="dataset:karate",
            k=5,
            methods=("SRW2", "SRW2CSS", "SRW3", "SRW4"),
            budget=4_000,
            trials=24,
            base_seed=8,
            seed_strategy="sequential",
            target="clique",
            description="Figure 4c: NRMSE of c521 across methods",
        )
    )
    return tuple(specs)


def _fig5() -> Tuple[ExperimentSpec, ...]:
    return (
        ExperimentSpec(
            name="fig5-epinion",
            graph="dataset:epinion-like",
            k=4,
            methods=("SRW2", "SRW2CSS", "SRW3"),
            budget=4_000,
            trials=20,
            base_seed=5,
            seed_strategy="sequential",
            starts="fixed:0",
            target="clique",
            description="Figure 5: per-type NRMSE vs weighted concentration",
        ),
    )


def _fig6() -> Tuple[ExperimentSpec, ...]:
    specs = [
        ExperimentSpec(
            name=f"fig6a-{budget}",
            graph="dataset:slashdot-like",
            k=3,
            methods=("SRW1", "SRW1CSS", "SRW1CSSNB"),
            budget=budget,
            trials=16,
            base_seed=6,
            seed_strategy="sequential",
            target="triangle",
            description="Figure 6a: NRMSE of c32 vs steps",
        )
        for budget in _FIG6_GRID
    ]
    specs += [
        ExperimentSpec(
            name=f"fig6b-{budget}",
            graph="dataset:facebook-like",
            k=4,
            methods=("SRW2", "SRW2CSS", "SRW3"),
            budget=budget,
            trials=16,
            base_seed=8,
            seed_strategy="sequential",
            target="clique",
            description="Figure 6b: NRMSE of c46 vs steps",
        )
        for budget in _FIG6_GRID
    ]
    specs += [
        ExperimentSpec(
            name=f"fig6c-{budget}",
            graph="dataset:karate",
            k=5,
            methods=("SRW2CSS",),
            budget=budget,
            trials=12,
            base_seed=10,
            seed_strategy="sequential",
            target="clique",
            description="Figure 6c: NRMSE of c521 vs steps",
        )
        for budget in (2_000, 16_000)
    ]
    return tuple(specs)


def _fig8() -> Tuple[ExperimentSpec, ...]:
    specs = [
        ExperimentSpec(
            name=f"fig8a-{dataset}",
            graph=f"dataset:{dataset}",
            k=3,
            methods=("SRW1CSSNB", "wedge_mhrw"),
            budget=4_000,
            trials=20,
            base_seed=300,
            seed_strategy="sequential",
            starts="fixed:0",
            target="triangle",
            description="Figure 8a: framework vs MHRW-adapted wedge sampling",
        )
        for dataset in _FIG8A_DATASETS
    ]
    specs += [
        ExperimentSpec(
            name=f"fig8b-{budget}",
            graph="dataset:slashdot-like",
            k=3,
            methods=("SRW1CSSNB", "wedge_mhrw"),
            budget=budget,
            trials=12,
            base_seed=500,
            seed_strategy="sequential",
            starts="fixed:0",
            target="triangle",
            description="Figure 8b: convergence, framework vs wedge-MHRW",
        )
        for budget in _FIG8B_GRID
    ]
    return tuple(specs)


_SUITES = {
    "smoke": _smoke,
    "stream-smoke": _stream_smoke,
    "autotune-smoke": _autotune_smoke,
    "css-speedup": _css_speedup,
    "srw3-speedup": _srw3_speedup,
    "single-chain": _single_chain,
    "fig4": _fig4,
    "fig5": _fig5,
    "fig6": _fig6,
    "fig8": _fig8,
}


def suite_names() -> Tuple[str, ...]:
    """Names accepted by ``repro bench --suite``."""
    return tuple(sorted(_SUITES))


def get_suite(name: str) -> Tuple[ExperimentSpec, ...]:
    """The specs of a named suite."""
    try:
        factory = _SUITES[name]
    except KeyError:
        raise KeyError(
            f"unknown suite {name!r}; available: {', '.join(suite_names())}"
        ) from None
    return factory()


def suite_specs() -> Dict[str, Tuple[ExperimentSpec, ...]]:
    """All suites, materialized (mainly for docs and tests)."""
    return {name: get_suite(name) for name in suite_names()}
