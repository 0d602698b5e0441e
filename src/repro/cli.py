"""Command-line interface.

    python -m repro datasets
    python -m repro methods
    python -m repro bench --suite smoke --jobs 4 --out bench-out
    python -m repro summarize --dataset facebook-like
    python -m repro estimate --dataset karate -k 4 --method SRW2CSS --steps 20000
    python -m repro estimate --dataset karate -k 3 --method guise --steps 20000
    python -m repro estimate --dataset karate -k 4 --backend csr --chains 16
    python -m repro estimate --dataset karate -k 3 --method auto --target-ci 0.05
    python -m repro exact --dataset karate -k 4
    python -m repro compare --dataset karate -k 3 --steps 5000 --trials 10
    python -m repro compare --dataset karate -k 3 --methods SRW1,wedge,exact
    python -m repro bound --dataset karate -k 3 -d 1 --graphlet triangle
    python -m repro monitor --source ba:400:3:5 -k 3 --batches 6 --churn 12
    python -m repro ingest data/soc-lj.txt.gz --out data/soc-lj.mmap --max-memory 512

``estimate`` and ``compare`` are driven purely off the estimator
registry (:mod:`repro.estimators`): any registered method name — the
framework grammar or a baseline — works, and a newly ``register()``-ed
method appears here with no CLI change.

Edge-list files are accepted anywhere a dataset name is (``--edge-list
path``); the file is loaded, relabeled, and reduced to its LCC like the
paper's preprocessing.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import List, Optional

from .core import recommended_method, sample_size_bound
from .estimators import available, estimate as run_registry_estimate
from .evaluation import format_table, nrmse_table
from .exact import exact_concentrations
from .graphlets import graphlet_by_name, graphlets
from .graphs import (
    BACKENDS,
    Graph,
    largest_connected_component,
    list_datasets,
    load_dataset,
    read_edge_list,
)
from .graphs.datasets import dataset_spec
from .graphs.stats import summarize


def _resolve_graph(args) -> Graph:
    if args.edge_list:
        from .graphs.mmap import MmapCSRGraph, is_mmap_dir

        if is_mmap_dir(args.edge_list):
            return MmapCSRGraph.load(args.edge_list)
        graph, _ = read_edge_list(args.edge_list)
        lcc, _ = largest_connected_component(graph)
        return lcc
    return load_dataset(args.dataset)


def _add_target_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--target-ci", type=float, default=None, dest="target_ci",
        metavar="WIDTH",
        help="stop once every 95%% confidence interval is narrower than "
        "WIDTH (needs a between-chain stderr: --chains >= 2, --fanout, "
        "or --method auto); --steps stays the hard cap",
    )
    parser.add_argument(
        "--target-stderr", type=float, default=None, dest="target_stderr",
        metavar="SE",
        help="stop once the largest per-type standard error drops "
        "below SE; composes with --target-ci (either firing stops)",
    )


def _add_graph_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dataset", default="karate", help="registered dataset name")
    parser.add_argument(
        "--edge-list", default=None, help="path to an edge-list file (overrides --dataset)"
    )


def cmd_datasets(args) -> int:
    rows = []
    for name in list_datasets():
        spec = dataset_spec(name)
        graph = load_dataset(name)
        rows.append(
            [name, spec.tier, graph.num_nodes, graph.num_edges, spec.paper_counterpart]
        )
    print(format_table(["name", "tier", "|V|", "|E|", "paper role"], rows))
    return 0


def cmd_summarize(args) -> int:
    graph = _resolve_graph(args)
    summary = summarize(graph)
    rows = [[field, getattr(summary, field)] for field in summary.__dataclass_fields__]
    print(format_table(["statistic", "value"], rows))
    return 0


def cmd_methods(args) -> int:
    print(format_table(["method"], [[name] for name in available()],
                       title="registered estimators (repro.estimators)"))
    return 0


def _print_estimate(result) -> None:
    """Render an :class:`Estimate` as the standard concentration table
    (shared by ``repro estimate`` and ``repro query``)."""
    values = result.concentrations
    stderr = result.stderr
    header = ["id", "graphlet", "concentration"]
    if stderr is not None:
        header.append("stderr")
    rows = []
    for g in graphlets(result.k):
        value = float(values[g.index])
        row = [g.paper_id, g.name, "n/a" if math.isnan(value) else value]
        if stderr is not None:
            row.append(float(stderr[g.index]))
        rows.append(row)
    chain_note = f", {result.chains} chains" if result.chains > 1 else ""
    print(
        format_table(
            header,
            rows,
            title=f"{result.method}, {result.steps} steps{chain_note}, "
            f"{result.samples} valid samples, "
            f"{result.elapsed_seconds:.2f}s",
        )
    )


def _stopping_target(args):
    """Compose the CLI's accuracy flags into one stopping spec.

    ``--target-ci`` and ``--target-stderr`` each contribute a rule;
    either one firing stops the run (``|`` composition), and the step
    budget stays the hard cap.  Returns ``None`` when neither is set —
    the plain fixed-budget run.
    """
    from .core import CIWidth, TargetStderr

    rules = []
    if getattr(args, "target_ci", None) is not None:
        rules.append(CIWidth(args.target_ci))
    if getattr(args, "target_stderr", None) is not None:
        rules.append(TargetStderr(args.target_stderr))
    if not rules:
        return None
    spec = rules[0]
    for rule in rules[1:]:
        spec = spec | rule
    return spec


def _print_stopping_note(meta) -> None:
    """Stderr notes on auto-selection and how a stopping target ended."""
    if not isinstance(meta, dict):
        return
    selection = meta.get("selection")
    if selection:
        print(
            f"auto-selected {selection['method']} "
            f"(chains={selection['chains']}, backend={selection['backend']}): "
            f"{'; '.join(selection['reasons'])}",
            file=sys.stderr,
        )
    stopping = meta.get("stopping")
    if stopping:
        if stopping.get("satisfied"):
            note = f"met after {stopping['steps']} steps ({stopping.get('fired')})"
        else:
            note = f"not met within {stopping['steps']} steps"
        print(f"target {stopping['target']}: {note}", file=sys.stderr)


def cmd_estimate(args) -> int:
    graph = _resolve_graph(args)
    method = args.method or recommended_method(args.k)
    try:
        result = run_registry_estimate(
            graph,
            method,
            k=args.k,
            budget=args.steps,
            seed=args.seed,
            backend=args.backend,
            chains=args.chains,
            burn_in=args.burn_in,
            target=_stopping_target(args),
        )
    except (KeyError, ValueError) as exc:
        # KeyError.__str__ is the repr of its argument; unwrap it.
        print(f"error: {exc.args[0] if exc.args else exc}", file=sys.stderr)
        return 2
    _print_stopping_note(result.meta)
    _print_estimate(result)
    return 0


def cmd_ingest(args) -> int:
    from .graphs.ingest import ingest_edge_list

    report = ingest_edge_list(
        args.path,
        args.out,
        lcc=not args.no_lcc,
        max_memory_mb=args.max_memory,
        progress=None if args.quiet else lambda message: print(message, file=sys.stderr),
    )
    print(report.summary())
    return 0


def cmd_exact(args) -> int:
    graph = _resolve_graph(args)
    truth = exact_concentrations(graph, args.k)
    rows = [
        [g.paper_id, g.name, truth[g.index]] for g in graphlets(args.k)
    ]
    print(format_table(["id", "graphlet", "concentration"], rows))
    return 0


def cmd_compare(args) -> int:
    graph = _resolve_graph(args)
    if args.methods:
        # Accept both space- and comma-separated method lists; any mix of
        # framework methods and baselines shares the one NRMSE table.
        methods = [m for entry in args.methods for m in entry.split(",") if m]
    else:
        methods = {
            3: ["SRW1", "SRW1CSS", "SRW1CSSNB", "SRW2"],
            4: ["SRW2", "SRW2CSS", "SRW3"],
            5: ["SRW2", "SRW2CSS", "SRW3"],
        }[args.k]
    truth = exact_concentrations(graph, args.k)
    target = (
        graphlet_by_name(args.k, args.graphlet).index
        if args.graphlet
        else min((i for i in truth if truth[i] > 0), key=lambda i: truth[i])
    )
    try:
        table = nrmse_table(
            graph, args.k, methods, steps=args.steps, trials=args.trials,
            target_index=target, truth=truth, base_seed=args.seed,
        )
    except (KeyError, ValueError) as exc:
        print(f"error: {exc.args[0] if exc.args else exc}", file=sys.stderr)
        return 2
    name = graphlets(args.k)[target].name
    rows = [[m, v] for m, v in table.items()]
    print(
        format_table(
            ["method", f"NRMSE(c[{name}])"],
            rows,
            title=f"{args.trials} trials x {args.steps} steps; "
            f"truth={truth[target]:.5g}",
        )
    )
    return 0


def cmd_bench(args) -> int:
    from .experiments import (
        get_suite,
        run_experiment,
        summary_path,
        trials_path,
    )

    if args.list:
        from .experiments import suite_specs

        rows = [
            [name, len(specs), sum(len(s.methods) * s.trials for s in specs)]
            for name, specs in suite_specs().items()
        ]
        print(format_table(["suite", "experiments", "total trials"], rows))
        return 0
    try:
        specs = get_suite(args.suite)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    progress = (lambda message: print(message, file=sys.stderr)) if args.verbose else None
    for spec in specs:
        result = run_experiment(
            spec,
            jobs=args.jobs,
            out_dir=args.out,
            resume=args.resume,
            progress=progress,
        )
        summary = result.summary()
        rows = [
            [
                method,
                stats["nrmse"],
                stats["mean_elapsed_seconds"],
                stats["steps_per_second"] or "n/a",
            ]
            for method, stats in summary["methods"].items()
        ]
        resumed = (
            f", {result.resumed_trials} trials resumed" if result.resumed_trials else ""
        )
        print(
            format_table(
                ["method", f"NRMSE({summary['target_graphlet']})", "s/trial", "steps/s"],
                rows,
                title=f"{spec.name}: {spec.graph}, k={spec.k}, "
                f"{spec.trials} trials x {spec.budget} steps "
                f"(jobs={args.jobs}{resumed})",
            )
        )
        print(
            f"  -> {summary_path(args.out, spec)} "
            f"[+ {trials_path(args.out, spec).name}]"
        )
    return 0


def cmd_report(args) -> int:
    from .reporting import build_report

    report = build_report(quick=not args.full, seed=args.seed)
    text = report.render()
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)
        print(f"report written to {args.output}")
    else:
        print(text)
    return 0 if report.all_claims_hold else 1


def cmd_serve(args) -> int:
    import signal
    import threading
    import time

    from .experiments.spec import resolve_graph as resolve_source
    from .service import Daemon, ServiceServer

    graph = (
        resolve_source(args.source) if args.source else _resolve_graph(args)
    )
    daemon = Daemon(graph, workers=args.workers, max_pending=args.max_pending)
    daemon.start()
    server = ServiceServer(daemon, args.socket)
    server.start()
    stop = threading.Event()

    def _on_signal(signum, frame):
        stop.set()

    signal.signal(signal.SIGINT, _on_signal)
    signal.signal(signal.SIGTERM, _on_signal)
    print(
        f"repro service: {daemon.graph.num_nodes} nodes / "
        f"{daemon.graph.num_edges} edges, {daemon.num_workers} workers, "
        f"listening on {args.socket}",
        flush=True,
    )
    try:
        while not stop.is_set() and not server.shutdown_event.is_set():
            time.sleep(0.1)
    finally:
        server.close()
        daemon.close()
    print("repro service: stopped", flush=True)
    return 0


def cmd_query(args) -> int:
    import json as json_module

    from .service import Client, RequestFailed

    client = Client(args.socket)
    if args.shutdown:
        client.shutdown()
        print("shutdown requested")
        return 0
    if args.ping:
        stats = client.ping()
        print(format_table(["stat", "value"], sorted(stats.items())))
        return 0
    if not args.method:
        print("error: --method is required (or use --ping/--shutdown)",
              file=sys.stderr)
        return 2
    final = None
    try:
        for snapshot in client.stream(
            args.method,
            k=args.k,
            budget=args.steps,
            chains=args.chains,
            seed=args.seed,
            seed_node=args.seed_node,
            burn_in=args.burn_in,
            fanout=args.fanout,
            snapshot_steps=args.snapshot_steps,
            timeout_seconds=args.timeout,
            target=_stopping_target(args),
        ):
            final = snapshot
            if args.watch and not snapshot.final and snapshot.estimate is not None:
                bound = snapshot.stderr_bound
                bound_note = f", stderr<={bound:.2e}" if bound is not None else ""
                stopping = snapshot.meta.get("stopping")
                rule_note = (
                    f", target {stopping['target']}" if stopping else ""
                )
                print(
                    f"  [{snapshot.seq}] {snapshot.steps}/{snapshot.budget} "
                    f"steps, {snapshot.parts_done}/{snapshot.parts} parts"
                    f"{bound_note}{rule_note}",
                    file=sys.stderr,
                )
    except (RequestFailed, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    status = 0
    if final.early_stopped:
        print(
            f"early stop: target met after {final.steps}/{final.budget} "
            "steps; remaining budget released to the daemon pool",
            file=sys.stderr,
        )
    if final.estimate is not None:
        _print_stopping_note(final.estimate.meta)
    if final.timed_out:
        # The any-time contract: report the deadline, then show the last
        # snapshot's estimate anyway (when one arrived in time).
        print(
            f"timeout: deadline hit after {final.steps}/{final.budget} steps; "
            "showing the last snapshot",
            file=sys.stderr,
        )
        status = 3
    if final.error is not None:
        print(f"error: {final.error}", file=sys.stderr)
        return 2
    if final.estimate is None:
        print("no snapshot arrived before the deadline", file=sys.stderr)
        return status or 3
    if args.json:
        payload = final.estimate.to_dict()
        payload["timed_out"] = final.timed_out
        payload["early_stopped"] = final.early_stopped
        print(json_module.dumps(payload, sort_keys=True))
    else:
        _print_estimate(final.estimate)
    return status


def cmd_monitor(args) -> int:
    from .core import recommended_method as recommend
    from .streaming import ContinuousSession, EdgeStreamSpec

    method = args.method or recommend(args.k)
    try:
        target = graphlet_by_name(args.k, args.graphlet)
        stream = EdgeStreamSpec(
            graph=args.source,
            batches=args.batches,
            inserts_per_batch=args.inserts if args.inserts is not None else args.churn,
            deletes_per_batch=args.deletes if args.deletes is not None else args.churn,
            seed=args.stream_seed,
        )
        base = stream.base_graph()
        batches = stream._batches_over(base)
        session = ContinuousSession(
            base,
            method,
            k=args.k,
            chains=args.chains,
            refresh_budget=args.refresh_steps,
            seed=args.seed,
        )
    except (KeyError, ValueError) as exc:
        print(f"error: {exc.args[0] if exc.args else exc}", file=sys.stderr)
        return 2

    def _line(estimate, reprojected: int, delta: str) -> None:
        meta = estimate.meta
        value = float(estimate.concentrations[target.index])
        err = estimate.stderr
        err_note = (
            f" stderr={float(err[target.index]):.2e}" if err is not None else ""
        )
        print(
            f"[v{meta['graph_version']}] steps={estimate.steps}"
            f" c[{target.name}]={value:.5f}{err_note}"
            f" reprojected={reprojected}{delta}"
        )

    print(
        f"monitor: {method} k={args.k} on {args.source}, "
        f"{args.chains} chains x {args.refresh_steps} steps/refresh, "
        f"{stream.batches} update batches",
        file=sys.stderr,
    )
    _line(session.refresh(), 0, " (warm-up)")
    for batch in batches:
        report = session.apply_updates(inserts=batch.inserts, deletes=batch.deletes)
        delta = f" (+{report.inserts}/-{report.deletes})"
        _line(session.refresh(), len(report.touched), delta)
    return 0


def cmd_bound(args) -> int:
    graph = _resolve_graph(args)
    index = graphlet_by_name(args.k, args.graphlet).index
    report = sample_size_bound(
        graph, args.k, args.d, index, epsilon=args.epsilon, delta=args.delta
    )
    print(report.describe())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Random-walk graphlet statistics estimation (Chen et al., VLDB 2016)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("datasets", help="list registered datasets").set_defaults(
        func=cmd_datasets
    )

    sub.add_parser("methods", help="list registered estimation methods").set_defaults(
        func=cmd_methods
    )

    p = sub.add_parser("summarize", help="descriptive statistics of a graph")
    _add_graph_arguments(p)
    p.set_defaults(func=cmd_summarize)

    p = sub.add_parser("estimate", help="estimate graphlet concentrations")
    _add_graph_arguments(p)
    p.add_argument("-k", type=int, default=4, choices=(3, 4, 5))
    p.add_argument(
        "--method",
        default=None,
        help="any registered method (see `repro methods`) or an "
        "SRW{d}[CSS][NB] string; default: paper's pick for k",
    )
    p.add_argument("--steps", type=int, default=20_000, help="estimation budget")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--burn-in", type=int, default=0, dest="burn_in")
    p.add_argument(
        "--backend",
        default=None,
        choices=BACKENDS,
        help="graph storage backend (csr enables vectorized multi-chain "
        "walks for every G(d), including SRW3/SRW4/PSRW; delta wraps the graph in an updatable overlay with the same "
        "fast paths; mmap serves the CSR arrays from disk-backed "
        "memory maps — same results bit-for-bit, bounded RAM)",
    )
    p.add_argument(
        "--chains",
        type=int,
        default=1,
        help="independent walk chains to split the step budget over "
        "(without --backend csr the chains run serially and a "
        "fallback warning is printed once)",
    )
    _add_target_arguments(p)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser(
        "ingest",
        help="stream a SNAP/KONECT edge list into a memory-mapped CSR layout",
    )
    p.add_argument("path", help="edge-list file (.txt or .txt.gz, '#'/'%%' comments)")
    p.add_argument(
        "--out",
        required=True,
        help="output directory for the CSR layout (then usable as "
        "'file:<dir>' graph source or via MmapCSRGraph.load)",
    )
    p.add_argument(
        "--no-lcc",
        action="store_true",
        dest="no_lcc",
        help="keep the whole graph instead of the largest connected "
        "component (the paper's preprocessing keeps the LCC)",
    )
    p.add_argument(
        "--max-memory",
        type=float,
        default=1024.0,
        dest="max_memory",
        metavar="MB",
        help="approximate peak-RSS budget for the ingest pipeline; "
        "oversized inputs spill sorted runs to disk and k-way merge",
    )
    p.add_argument("--quiet", action="store_true", help="suppress phase progress lines")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("exact", help="exact concentrations (ground truth)")
    _add_graph_arguments(p)
    p.add_argument("-k", type=int, default=4, choices=(3, 4, 5))
    p.set_defaults(func=cmd_exact)

    p = sub.add_parser("compare", help="NRMSE comparison across methods")
    _add_graph_arguments(p)
    p.add_argument("-k", type=int, default=3, choices=(3, 4, 5))
    p.add_argument(
        "--methods",
        nargs="*",
        default=None,
        help="registry names, space- or comma-separated "
        "(framework methods and baselines mix freely, e.g. "
        "--methods SRW1,wedge,hardiman_katzir,exact)",
    )
    p.add_argument("--graphlet", default=None, help="target type (default: rarest)")
    p.add_argument("--steps", type=int, default=5_000)
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser(
        "bench",
        help="run a named experiment suite in parallel, writing "
        "BENCH_*.json artifacts (resumable)",
    )
    p.add_argument(
        "--suite",
        default="smoke",
        help="suite name (see --list); default: the CI smoke suite",
    )
    p.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes to fan trials over (results are "
        "bit-identical to --jobs 1)",
    )
    p.add_argument(
        "--out",
        default="bench-out",
        help="artifact directory for *.trials.jsonl and BENCH_*.json",
    )
    p.add_argument(
        "--resume",
        action="store_true",
        help="continue from an existing trials artifact instead of rerunning",
    )
    p.add_argument(
        "--list", action="store_true", help="list available suites and exit"
    )
    p.add_argument(
        "--verbose", action="store_true", help="report per-trial progress on stderr"
    )
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser(
        "report", help="regenerate a compact reproduction report (markdown)"
    )
    p.add_argument("--full", action="store_true", help="paper-scale budgets")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", default=None, help="write markdown to a file")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser(
        "serve",
        help="run the estimation daemon: shared-memory graph, worker "
        "pool, any-time answers over a Unix socket",
    )
    _add_graph_arguments(p)
    p.add_argument(
        "--source",
        default=None,
        help="spec graph source (e.g. ba:2000:6:3 or dataset:karate); "
        "overrides --dataset/--edge-list",
    )
    p.add_argument(
        "--socket",
        default="/tmp/repro-service.sock",
        help="Unix-socket path to listen on",
    )
    p.add_argument(
        "--workers", type=int, default=None,
        help="worker processes (default: min(4, cpu count))",
    )
    p.add_argument(
        "--max-pending", type=int, default=32, dest="max_pending",
        help="bounded admission: most requests held unfinished at once",
    )
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "query",
        help="query a running `repro serve` daemon (progressive "
        "snapshots with --watch; exact fixed-seed answers)",
    )
    p.add_argument(
        "--socket",
        default="/tmp/repro-service.sock",
        help="Unix-socket path of the daemon",
    )
    p.add_argument("--method", default=None, help="registered method name")
    p.add_argument("-k", type=int, default=None, choices=(3, 4, 5))
    p.add_argument("--steps", type=int, default=20_000, help="estimation budget")
    p.add_argument("--chains", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seed-node", type=int, default=0, dest="seed_node")
    p.add_argument("--burn-in", type=int, default=0, dest="burn_in")
    p.add_argument(
        "--fanout",
        action="store_true",
        help="split chains across workers (serial-reference pooling) "
        "instead of one vectorized session in one worker",
    )
    p.add_argument(
        "--snapshot-steps", type=int, default=None, dest="snapshot_steps",
        help="steps between progressive snapshots (default: budget/8)",
    )
    p.add_argument(
        "--timeout", type=float, default=None,
        help="deadline in seconds; on expiry the last snapshot is shown "
        "and the exit code is 3",
    )
    _add_target_arguments(p)
    p.add_argument(
        "--watch", action="store_true",
        help="print each progressive snapshot to stderr as it arrives "
        "(with a stopping target: live stderr bound + the active rule)",
    )
    p.add_argument("--json", action="store_true", help="emit the final estimate as JSON")
    p.add_argument("--ping", action="store_true", help="print daemon stats and exit")
    p.add_argument(
        "--shutdown", action="store_true", help="ask the daemon to shut down"
    )
    p.set_defaults(func=cmd_query)

    p = sub.add_parser(
        "monitor",
        help="continuous estimation over a seeded edge stream: apply "
        "update batches, re-project touched chains, print one refreshed "
        "estimate per batch",
    )
    p.add_argument(
        "--source",
        default="ba:400:3:5",
        help="spec graph source for the base graph (e.g. ba:400:3:5 "
        "or dataset:karate)",
    )
    p.add_argument("-k", type=int, default=3, choices=(3, 4, 5))
    p.add_argument(
        "--method",
        default=None,
        help="any SRW{d}[CSS][NB] method; default: paper's pick for k",
    )
    p.add_argument(
        "--graphlet", default="triangle", help="graphlet whose concentration is printed"
    )
    p.add_argument("--chains", type=int, default=8)
    p.add_argument(
        "--refresh-steps", type=int, default=4_000, dest="refresh_steps",
        help="walk steps added per refresh",
    )
    p.add_argument("--batches", type=int, default=6, help="update batches to stream")
    p.add_argument(
        "--churn", type=int, default=12,
        help="edges inserted and deleted per batch (see --inserts/--deletes)",
    )
    p.add_argument(
        "--inserts", type=int, default=None, help="inserts per batch (overrides --churn)"
    )
    p.add_argument(
        "--deletes", type=int, default=None, help="deletes per batch (overrides --churn)"
    )
    p.add_argument(
        "--stream-seed", type=int, default=0, dest="stream_seed",
        help="seed of the synthetic edge stream",
    )
    p.add_argument("--seed", type=int, default=0, help="seed of the walk chains")
    p.set_defaults(func=cmd_monitor)

    p = sub.add_parser("bound", help="Theorem 3 sample-size bound")
    _add_graph_arguments(p)
    p.add_argument("-k", type=int, default=3, choices=(3, 4, 5))
    p.add_argument("-d", type=int, default=1)
    p.add_argument("--graphlet", default="triangle")
    p.add_argument("--epsilon", type=float, default=0.1)
    p.add_argument("--delta", type=float, default=0.1)
    p.set_defaults(func=cmd_bound)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
