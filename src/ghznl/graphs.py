"""Partition graphs of a state set and their connectivity.

For a bipartition X|YZ the graph's vertices are all joint coordinates of the
two non-cut parties; each tuple contributes the complete graph on its
projected kets (or, for the path variant, only consecutive edges after
sorting by first projected coordinate).  Connectivity of all three graphs is
the certificate the certifier relies on.

Every count runs arithmetic.union_find over integer indices:
`component_count` straight from the kets (the certifier and `ghznl graph`
build no graph for it), and `connected_components` over a built graph, which
no library code calls; the tests check `component_count` against it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable

from .arithmetic import union_find
from .state_model import Partition, StateSet, SystemDims

Vertex = tuple[int, int]
Edge = tuple[Vertex, Vertex]


@dataclass(frozen=True)
class PartitionGraph:
    partition: Partition
    vertices: frozenset[Vertex]
    edges: frozenset[Edge]
    kind: str = "full"  # "full" | "path"


def _vertices(dims: SystemDims, p: Partition) -> frozenset[Vertex]:
    da, db = p.kept_dims(dims)
    return frozenset((a, b) for a in range(da) for b in range(db))


def _projections(S: StateSet, p: Partition) -> Iterable[list[Vertex]]:
    """Each tuple's distinct projected kets, sorted."""
    a, b = p.kept_axes
    return (sorted({(k[a], k[b]) for k in t.kets}) for t in S.tuples)


def build_graph(S: StateSet, p: Partition) -> PartitionGraph:
    """Full graph: every tuple adds a complete graph on its projections."""
    edges: set[Edge] = set()
    for proj in _projections(S, p):
        edges.update(itertools.combinations(proj, 2))
    return PartitionGraph(p, _vertices(S.dims, p), frozenset(edges), "full")


def build_path_graph(S: StateSet, p: Partition) -> PartitionGraph:
    """Path subgraph: consecutive edges after sorting projections per tuple."""
    edges: set[Edge] = set()
    for proj in _projections(S, p):
        edges.update(zip(proj, proj[1:]))
    return PartitionGraph(p, _vertices(S.dims, p), frozenset(edges), "path")


def component_count(S: StateSet, p: Partition) -> int:
    """Number of components of cut p's graph, counted from the kets.

    The vertices are the kept indices a * db + b, so an index that no tuple
    projects to is a component of its own; each tuple joins its first
    projected ket to the rest.  The path graph has the same count: each
    tuple links the same projections in it, as a path instead of a clique.
    """
    da, db = p.kept_dims(S.dims)
    a, b = p.kept_axes
    edges = [
        (t.kets[0][a] * db + t.kets[0][b], k[a] * db + k[b])
        for t in S.tuples
        for k in t.kets[1:]
    ]
    return union_find(da * db, edges)[1]


def connected_components(G: PartitionGraph) -> int:
    """Number of components of a built graph."""
    index = {v: i for i, v in enumerate(G.vertices)}
    return union_find(len(index), [(index[u], index[v]) for u, v in G.edges])[1]


def to_dot(G: PartitionGraph) -> str:
    """Graphviz 'graph' document; nodes named v_<a>_<b>, sorted for determinism."""
    def name(v: Vertex) -> str:
        return f"v_{v[0]}_{v[1]}"

    lines = [f'graph "{G.kind}_{G.partition.value}" {{']
    for v in sorted(G.vertices):
        lines.append(f"  {name(v)};")
    for u, v in sorted(G.edges):
        lines.append(f"  {name(u)} -- {name(v)};")
    lines.append("}")
    return "\n".join(lines) + "\n"
