"""Exact-truth cache for the benchmark workloads.

Exact graphlet counts of the workload graphs are expensive (k=4 on the
1e5-edge BA graph takes seconds, k=5 on the clustered graph tens of
seconds), so ``truth.json`` beside this file caches them, keyed by a
sha256 fingerprint of the graph's CSR arrays and k.  A workload graph
whose fingerprint is not in the cache -- because a generator changed,
say -- gets its truth recomputed on the spot (and the run reports it)
instead of being compared with stale numbers.

Regenerate the cache after a deliberate workload change with::

    PYTHONPATH=src python benchmarks/perf/truth.py --write
"""

from __future__ import annotations

import argparse
import hashlib
import json
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.exact import exact_counts as _exact_counts
from repro.graphlets import num_graphlets

TRUTH_FILE = Path(__file__).with_name("truth.json")


def fingerprint(csr) -> str:
    """sha256 of the graph's CSR arrays (little-endian int64)."""
    digest = hashlib.sha256()
    for array in (csr.indptr, csr.indices):
        digest.update(np.ascontiguousarray(array, dtype="<i8").tobytes())
    return digest.hexdigest()


def load() -> Dict[str, dict]:
    """The cached entries, keyed ``"<fingerprint>:k<k>"``."""
    try:
        with open(TRUTH_FILE) as handle:
            return json.load(handle)["entries"]
    except FileNotFoundError:
        return {}


def compute(csr, k: int) -> List[int]:
    """Exact induced k-node graphlet counts in catalog order."""
    counts = _exact_counts(csr, k)
    return [int(counts.get(i, 0)) for i in range(num_graphlets(k))]


def exact_counts(
    csr, k: int, entries: Optional[Dict[str, dict]] = None
) -> Tuple[List[int], bool]:
    """``(counts, recomputed)`` for ``csr``: the cached counts when its
    fingerprint is cached, else freshly computed ones."""
    if entries is None:
        entries = load()
    entry = entries.get(f"{fingerprint(csr)}:k{k}")
    if entry is not None:
        return list(entry["counts"]), False
    return compute(csr, k), True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--write", action="store_true",
        help="recompute every workload graph's truth and rewrite truth.json",
    )
    args = parser.parse_args(argv)
    from workloads import FULL, build_graph, truth_needs

    entries = {}
    for source, k in truth_needs(FULL):
        csr = build_graph(source)
        counts = compute(csr, k)
        entries[f"{fingerprint(csr)}:k{k}"] = {
            "graph": source, "k": k, "counts": counts,
        }
        print(f"{source} k={k}: {counts}")
    if args.write:
        with open(TRUTH_FILE, "w") as handle:
            json.dump({"entries": entries}, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
