"""Compare two sets of benchmark results.

    python3 benchmarks/perf/compare.py A/ B/

``A`` and ``B`` are ``--out`` directories of ``run.py`` (one result
document per run; several runs per workload make a set).  For every
(workload, metric) pair the script prints each set's median and
quartiles, the change of B against A, and for the end-to-end metrics of
``BENCHMARK.json`` a verdict: ``within`` when B's median is not worse
than A's by more than the metric's bound, ``OUTSIDE`` otherwise.  Other
numbers (per-layer metrics, NRMSE, throughput) are printed as ``info``.

It also flags any change in ``digest`` (sha256 of the first estimates'
sums) or ``nrmse`` between runs of the same workload and seed: with the
same code both are bit-for-bit reproducible, so a change means the
estimates themselves changed.  Exit status 1 when a verdict is
``OUTSIDE`` or an estimate changed, else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parents[2]
#: Extra numbers from the result documents worth comparing.
INFO = ("nrmse", "rse", "time_to_nrmse_s", "requests_per_s")


def load_set(directory: Path) -> List[dict]:
    docs = []
    for path in sorted(directory.glob("*.json")):
        if path.name.endswith(".trace.json"):
            continue
        with open(path) as handle:
            docs.append(json.load(handle))
    if not docs:
        raise SystemExit(f"compare.py: no result documents in {directory}")
    return docs


def values(docs: List[dict]) -> Dict[Tuple[str, str], List[float]]:
    out: Dict[Tuple[str, str], List[float]] = {}
    for doc in docs:
        numbers = dict(doc["e2e"])
        numbers.update(doc.get("layers", {}))
        numbers.update({k: doc["extra"][k] for k in INFO if k in doc["extra"]})
        for name, value in numbers.items():
            out.setdefault((doc["workload"], name), []).append(float(value))
    return out


def quartiles(xs: List[float]) -> Tuple[float, float, float]:
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, statistics.median(xs), q3


def by_seed(docs: List[dict], key: str) -> Dict[Tuple[str, int], set]:
    out: Dict[Tuple[str, int], set] = {}
    for doc in docs:
        if key in doc["extra"]:
            out.setdefault((doc["workload"], doc["seed"]), set()).add(doc["extra"][key])
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", type=Path, help="baseline result directory")
    parser.add_argument("b", type=Path, help="candidate result directory")
    args = parser.parse_args(argv)
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    directions = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    docs_a, docs_b = load_set(args.a), load_set(args.b)
    set_a, set_b = values(docs_a), values(docs_b)

    bad = 0
    print(f"{'workload':9} {'metric':24} {'A median [q1, q3]':>34} "
          f"{'B median [q1, q3]':>34} {'change':>7}  verdict")
    for key in sorted(set(set_a) & set(set_b)):
        workload, metric = key
        qa, qb = quartiles(set_a[key]), quartiles(set_b[key])
        change = (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
        verdict = "info"
        if metric in e2e:
            worse = change if directions[metric] == "lower" else -change
            bound = e2e[metric]["bound"]
            verdict = "within" if worse <= bound else "OUTSIDE"
            verdict += f" (bound {bound:.0%})"
            bad += verdict.startswith("OUTSIDE")
        cells = [f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]" for q in (qa, qb)]
        print(f"{workload:9} {metric:24} {cells[0]:>34} {cells[1]:>34} "
              f"{change:+7.1%}  {verdict}")

    for key in ("digest", "nrmse"):
        seeds_a, seeds_b = by_seed(docs_a, key), by_seed(docs_b, key)
        changed = 0
        for run_key in sorted(set(seeds_a) | set(seeds_b)):
            seen = seeds_a.get(run_key, set()) | seeds_b.get(run_key, set())
            if len(seen) > 1:
                changed += 1
                print(f"{key} CHANGED: {run_key[0]} seed {run_key[1]}: {sorted(map(str, seen))}")
        shared = len(set(seeds_a) & set(seeds_b))
        detail = f"{changed} changed" if changed else "every run of a pair identical"
        print(f"{key}: {shared} (workload, seed) pairs in both sets; {detail}")
        bad += changed
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
