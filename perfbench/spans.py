"""Spans for the traced run: wrappers around the public functions of each
ghznl layer, kept in memory and reduced to per-layer self times and counts.

A span records its name, start, end, parent span and input id.  A layer's
self time is its spans' durations minus the part covered by child spans, so
the self times of every span under one root add up to the root's duration.
"""

from __future__ import annotations

import json
from pathlib import Path
from time import perf_counter
from typing import Callable, Optional


def _rows(cs) -> dict:
    return {
        "rows": len(cs.rows),
        "empty_rows": sum(1 for r in cs.rows if not r),
        "nnz": sum(len(r) for r in cs.rows),
    }


def _edges(graph) -> dict:
    return {"edges": len(graph.edges)}


def _rank(ns) -> dict:
    return {"rank": ns.rank}


# (module, function, span name, counts taken from the result)
TRACED: tuple[tuple[str, str, str, Optional[Callable]], ...] = (
    ("cli", "main", "cli.main", None),
    ("certifier", "certify", "certifier.certify", None),
    ("certifier", "report_to_dict", "certifier.report_to_dict", None),
    ("state_model", "parse_state_set", "state_model.parse_state_set", None),
    ("state_model", "expand_set", "state_model.expand_set", None),
    ("state_model", "check_mutual_orthogonality",
     "state_model.check_mutual_orthogonality", None),
    ("state_model", "genuine_entanglement_census",
     "state_model.genuine_entanglement_census", None),
    ("state_model", "check_special_set", "state_model.check_special_set", None),
    ("state_model", "check_plane_containing",
     "state_model.check_plane_containing", None),
    ("graphs", "build_graph", "graphs.build_graph", _edges),
    ("graphs", "build_path_graph", "graphs.build_path_graph", _edges),
    ("graphs", "connected_components", "graphs.connected_components", None),
    ("oracle", "build_constraints", "oracle.build_constraints", _rows),
    ("oracle", "nullspace", "oracle.nullspace", _rank),
)

# per-layer metric -> span names whose self time it sums
SELF_TIME_METRICS = {
    "oracle.build_s": ("oracle.build_constraints",),
    "oracle.eliminate_s": ("oracle.nullspace",),
    "state_model.orthogonality_s": ("state_model.check_mutual_orthogonality",),
    "state_model.entanglement_s": ("state_model.genuine_entanglement_census",),
    "state_model.expand_s": ("state_model.expand_set",),
    "state_model.structure_s": (
        "state_model.check_special_set", "state_model.check_plane_containing",
    ),
    "graphs.build_s": ("graphs.build_graph", "graphs.build_path_graph"),
    "graphs.components_s": ("graphs.connected_components",),
    "cli.parse_s": ("state_model.parse_state_set",),
    "cli.report_s": ("certifier.report_to_dict",),
    "cli.self_s": ("cli.main",),
    "certifier.self_s": ("certifier.certify",),
}
# the layers whose spans nest under certify; their self times add up to
# certifier.certify_s
UNDER_CERTIFY = tuple(m for m in SELF_TIME_METRICS if not m.startswith("cli."))

class Tracer:
    """Collects spans while installed; `install` returns the undo list."""

    def __init__(self):
        self.spans: list[dict] = []
        self.input_id: Optional[str] = None
        self._stack: list[int] = []

    def _wrap(self, name: str, fn: Callable, counts: Optional[Callable]) -> Callable:
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = {"name": name, "parent": stack[-1] if stack else None,
                    "input": self.input_id}
            stack.append(len(spans))
            spans.append(span)
            span["start"] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = perf_counter()
                stack.pop()
            if counts is not None:
                span["counts"] = counts(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, mods) -> list[tuple[object, str, object]]:
        """Replace each traced function in every ghznl module that refers to
        it, so callers that imported it by name see the wrapper too."""
        undo = []
        for mod_name, fn_name, span_name, counts in TRACED:
            original = getattr(getattr(mods, mod_name), fn_name)
            wrapper = self._wrap(span_name, original, counts)
            for mod in mods.all_modules():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        undo.append((mod, attr, value))
                        setattr(mod, attr, wrapper)
        return undo

    @staticmethod
    def uninstall(undo) -> None:
        for mod, attr, value in reversed(undo):
            setattr(mod, attr, value)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": self.spans}) + "\n", encoding="utf-8")


def self_times(spans: list[dict], first: int = 0) -> list[float]:
    """Duration of each span from index `first` on, minus the time its
    direct children cover; the spans from `first` on must be whole trees."""
    out = [s["end"] - s["start"] for s in spans[first:]]
    for s in spans[first:]:
        if s["parent"] is not None:
            out[s["parent"] - first] -= s["end"] - s["start"]
    return out


def layer_metrics(
    spans: list[dict], first: int = 0, scales: Optional[dict[str, float]] = None
) -> dict[str, float]:
    """Per-layer self times and counts over the span trees from `first` on.

    `scales` maps an input id to the factor its times are multiplied by
    (1 when absent); one factor per input keeps the self times additive.
    """
    scales = scales or {}
    own = self_times(spans, first)
    spans = spans[first:]
    by_name: dict[str, float] = {}
    for s, t in zip(spans, own):
        t *= scales.get(s["input"], 1.0)
        by_name[s["name"]] = by_name.get(s["name"], 0.0) + t
    out = {m: sum(by_name.get(n, 0.0) for n in names)
           for m, names in SELF_TIME_METRICS.items()}
    totals = {k: 0 for k in ("rows", "empty_rows", "nnz", "rank", "edges")}
    calls = 0
    certify_s = 0.0
    for s in spans:
        for k, v in s.get("counts", {}).items():
            totals[k] += v
        if s["name"] == "state_model.check_mutual_orthogonality":
            calls += 1
        if s["name"] == "certifier.certify":
            certify_s += (s["end"] - s["start"]) * scales.get(s["input"], 1.0)
    out.update({
        "oracle.rows": totals["rows"],
        "oracle.empty_rows": totals["empty_rows"],
        "oracle.nnz": totals["nnz"],
        "oracle.rank": totals["rank"],
        "oracle.row_yield": totals["rank"] / totals["rows"] if totals["rows"] else 0.0,
        "state_model.orthogonality_calls": calls,
        "graphs.edges": totals["edges"],
        "certifier.certify_s": certify_s,
    })
    return out


def median_pass(per_pass: list[dict[str, float]]) -> dict[str, float]:
    """The metrics of the pass with the median certify time, whose layer
    times still add up to its certify time."""
    ranked = sorted(per_pass, key=lambda p: p["certifier.certify_s"])
    return dict(ranked[(len(ranked) - 1) // 2])


def check_tree(spans: list[dict]) -> list[str]:
    """Problems with the span tree: a parent must come earlier and its
    interval must contain each child's; siblings must not overlap."""
    problems = []
    last_child_end: dict[Optional[int], float] = {}
    for i, s in enumerate(spans):
        if "end" not in s or s["end"] < s["start"]:
            problems.append(f"span {i} ({s['name']}) has no valid interval")
            continue
        p = s["parent"]
        if p is not None:
            if not 0 <= p < i:
                problems.append(f"span {i} has parent {p}, not an earlier span")
                continue
            parent = spans[p]
            if s["start"] < parent["start"] or s["end"] > parent["end"]:
                problems.append(f"span {i} ({s['name']}) exceeds its parent {p}")
        if s["start"] < last_child_end.get(p, float("-inf")):
            problems.append(f"span {i} ({s['name']}) overlaps an earlier sibling")
        last_child_end[p] = s["end"]
    return problems
