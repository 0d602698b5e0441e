"""``repro serve`` with the harness's span wrappers in every worker.

The serve workload starts this instead of ``python -m repro serve`` when
tracing: it installs :data:`spans.TARGETS` and swaps the daemon's worker
entry point for one that records spans and, when the worker exits, writes
them to ``$PERF_SPAN_DIR/worker-<pid>.json``.  Arguments are those of
``repro serve``::

    PERF_SPAN_DIR=out/spans PYTHONPATH=src \\
        python benchmarks/perf/serve_traced.py --source ba:300:4:1 --socket s.sock
"""

from __future__ import annotations

import json
import os
import sys

import repro.service.daemon as daemon_mod
from repro.cli import main as cli_main
from spans import TARGETS, Tracer

_run_worker = daemon_mod.worker_main
_tracer = None


def traced_worker_main(*args) -> None:
    """Worker entry point: run the daemon's worker loop under the tracer.

    Module-level (not a closure) so a ``spawn`` start method can pickle
    it; under ``fork`` the wrappers installed by :func:`main` are
    inherited and only the recorded spans are reset.
    """
    global _tracer
    if _tracer is None:
        _tracer = Tracer()
        _tracer.install(TARGETS)
    _tracer.reset()
    try:
        _run_worker(*args)
    finally:
        path = os.path.join(os.environ["PERF_SPAN_DIR"], f"worker-{os.getpid()}.json")
        with open(path, "w") as handle:
            json.dump(_tracer.export(), handle)


def main(argv=None) -> int:
    global _tracer
    _tracer = Tracer()
    _tracer.install(TARGETS)
    daemon_mod.worker_main = traced_worker_main
    return cli_main(["serve", *(sys.argv[1:] if argv is None else argv)])


if __name__ == "__main__":
    raise SystemExit(main())
