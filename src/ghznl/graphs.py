"""Partition graphs of a state set and their connectivity.

For a bipartition X|YZ the graph's vertices are all joint coordinates of the
two non-cut parties; each tuple contributes the complete graph on its
projected kets (or, for the path variant, only consecutive edges after
sorting by first projected coordinate).  Connectivity of all three graphs is
the certificate the certifier relies on.

`component_counts` counts all three cuts' components straight from the
kets, in one walk over the tuples with its own union step (the certifier and
`ghznl graph` build no graph for it); it shares no kernel with the oracle,
so their agreement compares two implementations.  `connected_components`
runs arithmetic.union_find over a built graph; no library code calls it,
and the tests check `component_counts` against it.
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


def component_counts(S: StateSet) -> dict[Partition, int]:
    """Number of components of each cut's graph, from one walk over the kets.

    Cut p's vertices are the kept indices a * db + b, (a, b) in p.kept_axes
    order: j*d3 + k on A, k*d1 + i on B and i*d2 + j on C; an index that no
    tuple projects to is a component of its own.  On each cut's own root
    list, each tuple joins its kets' indices to its first ket's root (path
    halving), which stays a root, and each merge lowers that cut's count.
    The first ket is taken off an iterator over the tuple's kets, and the
    loop runs on over that same iterator, so no tuple is sliced.
    The path graph has the same counts: each tuple links the same
    projections in it, as a path instead of a clique.
    """
    d1, d2, d3 = S.dims.as_tuple()
    ra, rb, rc = list(range(d2 * d3)), list(range(d3 * d1)), list(range(d1 * d2))
    na, nb, nc = len(ra), len(rb), len(rc)
    for t in S.tuples:
        kets = iter(t.kets)
        i, j, k = next(kets)
        a, b, c = j * d3 + k, k * d1 + i, i * d2 + j
        while ra[a] != a:
            ra[a] = a = ra[ra[a]]
        while rb[b] != b:
            rb[b] = b = rb[rb[b]]
        while rc[c] != c:
            rc[c] = c = rc[rc[c]]
        for i, j, k in kets:
            v = j * d3 + k
            while ra[v] != v:
                ra[v] = v = ra[ra[v]]
            if v != a:
                ra[v] = a
                na -= 1
            v = k * d1 + i
            while rb[v] != v:
                rb[v] = v = rb[rb[v]]
            if v != b:
                rb[v] = b
                nb -= 1
            v = i * d2 + j
            while rc[v] != v:
                rc[v] = v = rc[rc[v]]
            if v != c:
                rc[v] = c
                nc -= 1
    return {Partition.A: na, Partition.B: nb, Partition.C: nc}


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
