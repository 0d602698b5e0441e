"""The repository's performance benchmark: one command, five workloads.

    python3 benchmarks/perf/run.py [--workload NAME]... [--seed S]
        [--seconds T] [--trace [0|1]] [--out DIR]

Each workload runs in a fresh child process (``workloads.py``) with
``OMP_NUM_THREADS=1`` and ``PYTHONPATH=<repo>/src``; the child checks
its outputs and writes a result document.  This script prints one
``workload metric value unit`` line per metric, writes the result (with
a host fingerprint) to ``DIR/<workload>-seed<S>-<time>.json``, and ends
its output with one JSON line::

    {"correct": true, "attempted": 24, "failed": 0, "metrics": {...}}

Untraced, ``metrics`` holds the end-to-end metrics of ``BENCHMARK.json``;
with ``--trace`` it holds the per-layer ones, from a run that wraps the
library's layer boundaries in spans (``spans.py``).  A traced invocation
also runs the workload untraced with the same seed and reports the
difference of each end-to-end metric as the tracing overhead.  With
several workloads the metric names are prefixed ``<workload>/``.

Exit status: 0 when every check passed, 1 when a check or a run failed,
2 when the checkout has no library to benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = ROOT / "BENCHMARK.json"
#: How long a child may overrun its ``--seconds`` before it is killed.
GRACE_SECONDS = 150


def host_fingerprint() -> dict:
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    import numpy

    return {
        "cpu_model": model,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": sha,
    }


def run_child(workload: str, seed: int, seconds: float, traced: bool, out: Path) -> dict:
    """Run one workload in a fresh process group; returns its document."""
    tag = f"{workload}-seed{seed}-{'trace' if traced else 'plain'}-{time.time_ns()}"
    workdir = out / tag
    workdir.mkdir(parents=True)
    result = workdir / "result.json"
    env = dict(os.environ, OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    )
    cmd = [
        sys.executable, str(HERE / "workloads.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(traced)),
        "--result", str(result), "--workdir", str(workdir),
    ]
    # Child output goes to stderr: stdout is reserved for the report.
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr,
        start_new_session=True,
    )
    try:
        code = proc.wait(timeout=seconds + GRACE_SECONDS)
    except BaseException:
        # Kill the child's whole group, daemon and workers included.
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    if code != 0 or not result.exists():
        raise RuntimeError(f"workload {workload} exited with code {code}; see {workdir}")
    with open(result) as handle:
        doc = json.load(handle)
    shutil.rmtree(workdir)
    return doc


def main(argv=None) -> int:
    with open(SPEC) as handle:
        spec = json.load(handle)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=names,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="length of each workload's timed section")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="report per-layer metrics from a traced run")
    parser.add_argument("--out", type=Path, default=HERE / "results",
                        help="directory for result documents")
    args = parser.parse_args(argv)
    args.out = args.out.resolve()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"run.py: no library under {ROOT / 'src'}; nothing to benchmark",
              file=sys.stderr)
        return 2

    host = host_fingerprint()
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    workloads = args.workload or names
    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in workloads:
        try:
            doc = run_child(workload, args.seed, args.seconds, bool(args.trace), args.out)
            plain = None
            if args.trace:
                plain = run_child(workload, args.seed, args.seconds, False, args.out)
        except RuntimeError as exc:
            print(f"run.py: {exc}", file=sys.stderr)
            return 1
        doc["host"] = host
        values = doc["layers"] if args.trace else doc["e2e"]
        if plain is not None:
            doc["overhead"] = {
                name: doc["e2e"][name] - plain["e2e"][name] for name in plain["e2e"]
            }
            doc["untraced_e2e"] = plain["e2e"]
        stem = args.out / f"{workload}-seed{args.seed}-{time.time_ns()}"
        with open(f"{stem}.json", "w") as handle:
            json.dump({k: v for k, v in doc.items() if k != "trace"}, handle, indent=1)
        if args.trace:
            with open(f"{stem}.trace.json", "w") as handle:
                json.dump(doc["trace"], handle)
        for name, ok, detail in doc["checks"]:
            print(f"# {workload} check {'ok' if ok else 'FAILED'}: {name} ({detail})",
                  file=sys.stderr if ok else sys.stdout)
        for name in wanted:
            print(f"{workload} {name} {values[name]:.6g} {units[name]}")
        for name, row in doc.get("span_summary", {}).items():
            print(f"{workload} {name}.self_s {row['self_s']:.6g} s")
        for name, delta in doc.get("overhead", {}).items():
            base = plain["e2e"][name]
            pct = 100.0 * delta / base if base else 0.0
            print(f"{workload} tracing-overhead.{name} {pct:+.2f} %")
        correct = correct and doc["correct"] and (plain is None or plain["correct"])
        attempted += doc["attempted"]
        failed += doc["failed"]
        prefix = f"{workload}/" if len(workloads) > 1 else ""
        for name in wanted:
            metrics[prefix + name] = {"value": values[name], "unit": units[name]}
    print(json.dumps(
        {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    ))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
