"""One-command reproduction reports.

``python -m repro report`` regenerates a compact version of the paper's
evaluation — the same experiments the benchmark suite runs, at
user-controllable budgets — and renders one markdown report, so the
reproduction can be inspected without pytest.  Each section returns plain
data (dict/rows) so tests can assert on content rather than formatting.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from .core.alpha import alpha_table
from .core.bounds import weighted_concentration
from .core.estimator import MethodSpec, run_estimation
from .estimators import estimate
from .evaluation import format_table, nrmse, nrmse_table
from .evaluation.similarity import graphlet_kernel_similarity, similarity_trials
from .exact import exact_concentrations_cached, exact_counts_cached
from .graphlets import graphlet_by_name, graphlets
from .graphs import load_dataset


@dataclass
class ReportSection:
    """One experiment's regenerated table plus its headline claim."""

    title: str
    headers: List[str]
    rows: List[List[object]]
    claim: str
    claim_holds: bool
    notes: str = ""

    def render(self) -> str:
        table = format_table(self.headers, self.rows)
        status = "HOLDS" if self.claim_holds else "DOES NOT HOLD"
        lines = [f"## {self.title}", "", "```", table, "```", ""]
        lines.append(f"Claim: {self.claim} — **{status}**")
        if self.notes:
            lines.append(f"Note: {self.notes}")
        lines.append("")
        return "\n".join(lines)


@dataclass
class ReproductionReport:
    """The full report: sections in paper order."""

    sections: List[ReportSection] = field(default_factory=list)

    @property
    def all_claims_hold(self) -> bool:
        return all(section.claim_holds for section in self.sections)

    def render(self) -> str:
        header = [
            "# Reproduction report",
            "",
            "Compact regeneration of the paper's evaluation "
            "(Chen et al., PVLDB 2016).  See EXPERIMENTS.md for the full "
            "paper-vs-measured record and benchmarks/ for the asserted "
            "versions.",
            "",
        ]
        body = [section.render() for section in self.sections]
        verdict = (
            "All headline claims reproduced."
            if self.all_claims_hold
            else "WARNING: at least one headline claim failed at this budget."
        )
        return "\n".join(header + body + [verdict, ""])


def section_alpha() -> ReportSection:
    """Table 2 condensed: alpha for k = 4 under SRW(1..3)."""
    paper = {1: [1, 0, 4, 2, 6, 12], 2: [1, 3, 4, 5, 12, 24], 3: [1, 3, 6, 3, 6, 6]}
    rows = []
    match = True
    for d, expected in paper.items():
        ours = [a // 2 for a in alpha_table(4, d)]
        match = match and ours == expected
        rows.append([f"SRW({d})", str(expected), str(ours)])
    return ReportSection(
        title="Table 2: alpha/2 coefficients (k = 4)",
        headers=["walk", "paper", "reproduced"],
        rows=rows,
        claim="Algorithm 2 reproduces the published coefficients exactly",
        claim_holds=match,
    )


def section_accuracy(
    dataset: str, steps: int, trials: int, seed: int
) -> ReportSection:
    """Figure 4b condensed: NRMSE of the 4-clique across methods."""
    graph = load_dataset(dataset)
    clique = graphlet_by_name(4, "clique").index
    table = nrmse_table(
        graph, 4, ["SRW2", "SRW2CSS", "SRW3"], steps=steps, trials=trials,
        target_index=clique, base_seed=seed,
    )
    rows = [[m, v] for m, v in table.items()]
    holds = table["SRW2CSS"] < table["SRW3"]
    return ReportSection(
        title=f"Figure 4b: NRMSE of c46 on {dataset} ({steps} steps x {trials} trials)",
        headers=["method", "NRMSE"],
        rows=rows,
        claim="SRW2CSS beats PSRW (= SRW3) on the rare 4-clique",
        claim_holds=holds,
    )


def section_weighted_concentration(dataset: str) -> ReportSection:
    """Figure 5 condensed: the d = 2 walk lifts rare dense graphlets."""
    graph = load_dataset(dataset)
    counts = exact_counts_cached(graph, 4)
    truth = exact_concentrations_cached(graph, 4)
    w2 = weighted_concentration(graph, 4, 2, counts=counts)
    w3 = weighted_concentration(graph, 4, 3, counts=counts)
    rows = [
        [g.name, truth[g.index], w2[g.index], w3[g.index]]
        for g in graphlets(4)
    ]
    clique = graphlet_by_name(4, "clique").index
    holds = w2[clique] > w3[clique] > truth[clique]
    return ReportSection(
        title=f"Figure 5: weighted concentration on {dataset}",
        headers=["graphlet", "concentration", "weighted SRW2", "weighted SRW3"],
        rows=rows,
        claim="SRW2 lifts the rare clique's probability mass more than SRW3",
        claim_holds=holds,
    )


def section_wedge_mhrw(
    dataset: str, steps: int, trials: int, seed: int
) -> ReportSection:
    """Figure 8 condensed: framework vs adapted wedge sampling."""
    graph = load_dataset(dataset)
    truth = exact_concentrations_cached(graph, 3)[1]
    spec = MethodSpec.parse("SRW1CSSNB", 3)
    ours = [
        float(
            run_estimation(graph, spec, steps, rng=random.Random(seed + t))
            .concentrations[1]
        )
        for t in range(trials)
    ]
    theirs = [
        estimate(graph, "wedge_mhrw", budget=steps, seed=seed + t)
        .triangle_concentration
        for t in range(trials)
    ]
    our_error, their_error = nrmse(ours, truth), nrmse(theirs, truth)
    rows = [
        ["SRW1CSSNB", our_error, steps],
        ["Wedge-MHRW", their_error, 3 * steps],
    ]
    return ReportSection(
        title=f"Figure 8: c32 on {dataset} ({steps} steps x {trials} trials)",
        headers=["method", "NRMSE", "nominal API calls/run"],
        rows=rows,
        claim="the framework needs 3x fewer API calls per step "
        "and is competitive or better in accuracy",
        claim_holds=our_error < 2 * their_error,
        notes="the paper's consistent accuracy win needs larger graphs and "
        "budgets; the 3x API-cost asymmetry is structural",
    )


def section_similarity(steps: int, trials: int, seed: int) -> ReportSection:
    """Table 7 condensed: the graphlet-kernel case study."""
    reference = load_dataset("sinaweibo-like")
    rows = []
    means = {}
    for name in ("facebook-like", "twitter-like"):
        other = load_dataset(name)
        stats = similarity_trials(
            reference, other, k=4, steps=steps, method="SRW2CSS",
            trials=trials, base_seed=seed,
        )
        exact = graphlet_kernel_similarity(reference, other, k=4)
        means[name] = stats["mean"]
        rows.append([name, f"{stats['mean']:.4f} +/- {stats['std']:.4f}", exact])
    holds = means["twitter-like"] > means["facebook-like"]
    return ReportSection(
        title=f"Table 7: similarity of sinaweibo-like ({steps} steps x {trials} runs)",
        headers=["graph", "SRW2CSS", "exact"],
        rows=rows,
        claim="the weibo-role graph is closer to the news-medium graph",
        claim_holds=holds,
    )


def build_report(
    quick: bool = True,
    seed: int = 0,
    datasets: Optional[Sequence[str]] = None,
) -> ReproductionReport:
    """Assemble the full report.

    ``quick`` selects bench-scale budgets (~1 minute); otherwise budgets
    closer to the paper's 20K-step protocol are used.
    """
    steps = 3_000 if quick else 20_000
    trials = 8 if quick else 50
    accuracy_dataset = (datasets or ["facebook-like"])[0]
    report = ReproductionReport()
    report.sections.append(section_alpha())
    report.sections.append(section_accuracy(accuracy_dataset, steps, trials, seed))
    report.sections.append(section_weighted_concentration(accuracy_dataset))
    report.sections.append(section_wedge_mhrw("brightkite-like", steps, trials, seed))
    report.sections.append(section_similarity(steps, max(4, trials // 2), seed))
    return report
