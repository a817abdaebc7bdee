"""Verdicts with human-auditable certificates.

The graph criterion is an equivalence for sets made only of weight-2 tuples
(given the special-set, orthogonality, and plane-containing hypotheses) and a
one-directional sufficient condition when higher weights are present.  The
nullspace oracle decides the defining property directly, so when both run the
oracle's verdict wins.

The per-set facts every check and the oracle read (the number of states,
tuple offsets, the tuples holding each ket, per-axis spread bits, the
prime field) are cached properties of the StateSet, so one certify
computes each of them once.  The report's partitions map each cut to its
component count, from one graphs.component_counts walk over the kets; the
path graph has the same count, so the report writes it for both.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from .graphs import component_counts
from .oracle import NullspaceResult, ResourceGuardError, oracle_all
from .state_model import (
    Partition,
    StateSet,
    check_mutual_orthogonality,
    check_plane_containing,
    check_special_set,
    genuine_entanglement_census,
)


class Verdict(Enum):
    STRONGEST_NONLOCAL = "StrongestNonlocal"
    NOT_STRONGEST_NONLOCAL = "NotStrongestNonlocal"
    INCONCLUSIVE = "Inconclusive"
    HYPOTHESES_VIOLATED = "HypothesesViolated"


_DECIDED = (Verdict.STRONGEST_NONLOCAL, Verdict.NOT_STRONGEST_NONLOCAL)


@dataclass
class HypothesisResults:
    special_set_offenders: list[int]
    orthogonality_violations: list[tuple[int, int]]
    plane_witness: Optional[tuple[int, int, int]]
    entanglement_failures: list[int]

    @property
    def theorems_apply(self) -> bool:
        """Hypotheses shared by both connectivity theorems.

        The genuine-entanglement census is reported but does not gate the
        nonlocality verdict; it only qualifies the set as an OGES.
        """
        return (
            not self.special_set_offenders
            and not self.orthogonality_violations
            and self.plane_witness is not None
        )

    @property
    def is_oges(self) -> bool:
        return not self.entanglement_failures and not self.orthogonality_violations

    def failed_checks(self) -> list[str]:
        failed = []
        if self.special_set_offenders:
            failed.append(
                f"special-set (tuples {self.special_set_offenders} not "
                "coordinately different)"
            )
        if self.orthogonality_violations:
            failed.append(
                f"mutual-orthogonality (pairs {self.orthogonality_violations[:5]})"
            )
        if self.plane_witness is None:
            failed.append("plane-containing (no witness)")
        return failed


@dataclass
class CertReport:
    hypotheses: HypothesisResults
    partitions: dict[Partition, int]
    applied_theorem: Optional[int]
    graph_verdict: Verdict
    verdict: Verdict
    oracle: Optional[dict[Partition, NullspaceResult]] = None
    oracle_verdict: Optional[Verdict] = None
    agreement: Optional[bool] = None
    notes: list[str] = field(default_factory=list)


def check_hypotheses(S: StateSet) -> HypothesisResults:
    return HypothesisResults(
        special_set_offenders=check_special_set(S),
        orthogonality_violations=check_mutual_orthogonality(S),
        plane_witness=check_plane_containing(S),
        entanglement_failures=genuine_entanglement_census(S),
    )


def certify_via_graphs(S: StateSet) -> CertReport:
    """Apply the connectivity criterion and report the certificate."""
    hyp = check_hypotheses(S)
    parts = component_counts(S)
    notes: list[str] = []
    if not hyp.theorems_apply:
        notes.extend(f"hypothesis failed: {c}" for c in hyp.failed_checks())
        return CertReport(hyp, parts, None, Verdict.HYPOTHESES_VIOLATED,
                          Verdict.HYPOTHESES_VIOLATED, notes=notes)
    theorem = 1 if {t.weight for t in S.tuples} <= {2} else 2
    if all(n <= 1 for n in parts.values()):
        verdict = Verdict.STRONGEST_NONLOCAL
    elif theorem == 1:
        verdict = Verdict.NOT_STRONGEST_NONLOCAL
    else:
        verdict = Verdict.INCONCLUSIVE
        notes.append(
            "disconnected graph with high-weight tuples: the sufficient "
            "criterion does not decide the converse"
        )
    return CertReport(hyp, parts, theorem, verdict, verdict, notes=notes)


def certify(S: StateSet, method: str = "both", force: bool = False) -> CertReport:
    """Full certification pipeline.

    method: 'graph' runs the connectivity criterion (the oracle is still
    consulted when that criterion cannot decide); 'both' always runs both
    and records agreement; 'oracle' does the same as 'both', since the graph
    route's hypotheses and partitions go into every report.  The oracle
    verdict takes precedence whenever it ran.  Every check and the oracle
    read the set's cached facts (S.n_states, S.first, S.holders, S.spread,
    S.field), so each is computed at most once per set.  Each cut skips
    every non-orthogonal ordered state pair, and the skip note counts them
    per cut.
    """
    if method not in ("graph", "oracle", "both"):
        raise ValueError(f"unknown method {method!r}")
    report = certify_via_graphs(S)
    if method == "graph" and report.verdict in _DECIDED:
        return report
    try:
        # orthogonality violations are already reported in the hypotheses;
        # the oracle then constrains only the pairs that are orthogonal
        results = oracle_all(S, force=force)
        skipped = {p.value: r.skipped_pairs for p, r in results.items()}
        if total := sum(skipped.values()):
            per_cut = ", ".join(f"{c} {n}" for c, n in skipped.items())
            report.notes.append(
                f"oracle skipped {total} non-orthogonal ordered state pairs "
                f"(per cut: {per_cut})"
            )
    except ResourceGuardError as e:
        report.notes.append(f"oracle refused: {e}")
        if report.graph_verdict not in _DECIDED:
            report.verdict = Verdict.INCONCLUSIVE
        return report
    report.oracle = results
    trivial = all(r.trivial_only for r in results.values())
    report.verdict = report.oracle_verdict = (
        Verdict.STRONGEST_NONLOCAL if trivial else Verdict.NOT_STRONGEST_NONLOCAL
    )
    if report.graph_verdict in _DECIDED:
        report.agreement = report.graph_verdict == report.oracle_verdict
    return report


def report_to_dict(report: CertReport) -> dict:
    """JSON-ready view of a CertReport."""
    doc = {
        "verdict": report.verdict.value,
        "graph_verdict": report.graph_verdict.value,
        "applied_theorem": report.applied_theorem,
        "hypotheses": {
            "special_set_offenders": report.hypotheses.special_set_offenders,
            "orthogonality_violations": [
                list(v) for v in report.hypotheses.orthogonality_violations
            ],
            "plane_witness": (
                list(report.hypotheses.plane_witness)
                if report.hypotheses.plane_witness is not None
                else None
            ),
            "entanglement_failures": report.hypotheses.entanglement_failures,
            "is_oges": report.hypotheses.is_oges,
        },
        "partitions": {
            p.value: {
                "full_components": n,
                "path_components": n,
                "full_connected": n <= 1,
                "path_connected": n <= 1,
            }
            for p, n in report.partitions.items()
        },
        "notes": report.notes,
    }
    if report.oracle is not None:
        doc["oracle_verdict"] = report.oracle_verdict.value
        doc["agreement"] = report.agreement
        doc["oracle"] = {
            p.value: {
                "dimension": r.dimension,
                "contains_identity": r.contains_identity,
                "trivial_only": r.trivial_only,
                "mode": "modular",
                "prime": r.prime,
                "unknowns": r.n_unknowns,
                "rows": r.n_rows,
            }
            for p, r in report.oracle.items()
        }
    return doc
