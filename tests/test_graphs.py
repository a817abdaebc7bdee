import re

import pytest

from ghznl.constructions import c333, c345, c444_weight4, even_d, odd_d
from ghznl.graphs import (
    PartitionGraph,
    build_graph,
    build_path_graph,
    component_counts,
    connected_components,
    to_dot,
)
from ghznl.state_model import GhzTuple, Ket, Partition, StateSet, SystemDims
from test_constructions import without_labels

D3 = SystemDims(3, 3, 3)


def pair_set(dims, *pairs):
    return StateSet(
        dims,
        tuple(GhzTuple(2, (Ket(*a), Ket(*b))) for a, b in pairs),
    )


class TestBuildGraph:
    def test_c333_cut_a_has_s2_edge(self):
        G = build_graph(c333(), Partition.A)
        assert ((0, 0), (2, 1)) in G.edges

    def test_single_tuple_single_edge(self):
        S = pair_set(D3, ((0, 0, 0), (1, 1, 1)))
        G = build_graph(S, Partition.A)
        assert G.edges == frozenset({((0, 0), (1, 1))})

    def test_weight4_tuple_contributes_complete_graph(self):
        S = StateSet(SystemDims(4, 4, 4), (c444_weight4().tuples[0],))
        G = build_graph(S, Partition.A)
        verts = {(0, 0), (2, 1), (1, 2), (3, 3)}
        expected = {
            tuple(sorted((u, v)))
            for u in verts
            for v in verts
            if u < v
        }
        assert G.edges == frozenset(expected)

    def test_coincident_projections_no_edge(self):
        # both kets project to (3, 3) on cut A: no self-loop
        S = StateSet(
            SystemDims(4, 4, 4),
            (GhzTuple(2, (Ket(3, 3, 3), Ket(2, 3, 3))),),
        )
        assert build_graph(S, Partition.A).edges == frozenset()
        # cut B projections (3,3) and (3,2) differ, so the edge exists
        assert build_graph(S, Partition.B).edges == frozenset(
            {(((3, 2)), ((3, 3)))}
        )

    def test_invariant_under_reordering(self):
        S = c345()
        R = StateSet(S.dims, tuple(reversed(S.tuples)))
        for p in Partition:
            assert build_graph(S, p) == build_graph(R, p)

    def test_vertex_count(self):
        G = build_graph(c345(), Partition.B)
        assert len(G.vertices) == 5 * 3  # Z_d3 x Z_d1


class TestPathGraph:
    def test_weight2_path_equals_full(self):
        for S in (c333(), c345()):
            for p in Partition:
                assert build_path_graph(S, p).edges == build_graph(S, p).edges

    def test_weight4_tuple_path_edges(self):
        S = StateSet(SystemDims(4, 4, 4), (c444_weight4().tuples[0],))
        G = build_path_graph(S, Partition.A)
        assert G.edges == frozenset(
            {((0, 0), (1, 2)), ((1, 2), (2, 1)), ((2, 1), (3, 3))}
        )

    def test_subset_of_full_graph(self):
        for S in (c444_weight4(), even_d(4)):
            for p in Partition:
                assert build_path_graph(S, p).edges <= build_graph(S, p).edges

    def test_path_connectivity_implies_full(self):
        for p in Partition:
            S = c444_weight4()
            if connected_components(build_path_graph(S, p)) <= 1:
                assert connected_components(build_graph(S, p)) <= 1


class TestComponents:
    def test_c333_connected(self):
        assert connected_components(build_graph(c333(), Partition.A)) == 1

    def test_edgeless_graph(self):
        G = PartitionGraph(
            Partition.A,
            frozenset((a, b) for a in range(3) for b in range(3)),
            frozenset(),
        )
        assert connected_components(G) == 9

    def test_ablated_even4_has_two_parity_components(self):
        S = without_labels(even_d(4), ["S4", "S5"])
        for p in Partition:
            G = build_graph(S, p)
            assert connected_components(G) == 2
            # no edge leaves a parity class, so the two parity classes are
            # the two components
            assert all(
                (u[0] + u[1]) % 2 == (v[0] + v[1]) % 2 for u, v in G.edges
            )


class TestComponentCount:
    @pytest.mark.parametrize(
        "S",
        [c333(), c345(), even_d(4), c444_weight4(), odd_d(5)],
        ids=["c333", "c345", "even4", "c444w4", "odd5"],
    )
    def test_matches_built_graph(self, S):
        assert component_counts(S) == {
            p: connected_components(build_graph(S, p)) for p in Partition
        }

    def test_ablated_even4_has_two_components(self):
        S = without_labels(even_d(4), ["S4", "S5"])
        assert component_counts(S) == dict.fromkeys(Partition, 2)

    def test_unmet_indices_are_isolated_components(self):
        # cut A keeps 4 x 4 indices; the two tuples join two pairs of them
        S = pair_set(
            SystemDims(4, 4, 4),
            ((0, 0, 0), (1, 1, 1)),
            ((2, 2, 2), (3, 3, 3)),
        )
        assert component_counts(S)[Partition.A] == 16 - 2

    def test_unequal_dims_give_each_cut_its_own_count(self):
        # 2x3x5: cut A keeps (j, k), 15 indices; B keeps (k, i), 10; C
        # keeps (i, j), 6.  A joins 3 pairs; on B the second tuple's kets
        # project to one index and the third joins the first's class, so
        # 2 merges; C joins 3 pairs.  Every cut has indices that no ket
        # meets, and a kept index formed with the wrong multiplier (j*d2 + k,
        # k*d3 + i or i*d1 + j) merges other indices or leaves the cut.
        S = StateSet(
            SystemDims(2, 3, 5),
            (
                GhzTuple(2, (Ket(1, 0, 4), Ket(0, 2, 4))),
                GhzTuple(2, (Ket(0, 0, 3), Ket(0, 1, 3))),
                GhzTuple(2, (Ket(0, 1, 1), Ket(1, 2, 4))),
            ),
        )
        expected = {Partition.A: 15 - 3, Partition.B: 10 - 2, Partition.C: 6 - 3}
        assert component_counts(S) == expected
        assert expected == {
            p: connected_components(build_graph(S, p)) for p in Partition
        }


class TestIsConnected:
    def test_c333(self):
        assert connected_components(build_graph(c333(), Partition.A)) <= 1

    def test_odd5_all_cuts(self):
        for p in Partition:
            assert connected_components(build_graph(odd_d(5), p)) <= 1

    def test_two_disjoint_edges(self):
        S = pair_set(
            SystemDims(4, 4, 4),
            ((0, 0, 0), (1, 1, 1)),
            ((2, 2, 2), (3, 3, 3)),
        )
        assert connected_components(build_graph(S, Partition.A)) > 1

    def test_empty_vertex_graph(self):
        G = PartitionGraph(Partition.A, frozenset(), frozenset())
        assert connected_components(G) == 0


class TestPartyRelabeling:
    def test_cyclic_permutation_maps_cuts(self):
        # moving party A to the end turns the old cut-B graph into cut-A
        S = c345()
        d1, d2, d3 = S.dims.as_tuple()
        rotated = StateSet(
            SystemDims(d2, d3, d1),
            tuple(
                GhzTuple(t.weight, tuple(Ket(k.j, k.k, k.i) for k in t.kets))
                for t in S.tuples
            ),
        )
        assert build_graph(rotated, Partition.A).edges == build_graph(
            S, Partition.B
        ).edges


class TestDot:
    def test_single_vertex(self):
        G = PartitionGraph(Partition.A, frozenset({(0, 0)}), frozenset())
        dot = to_dot(G)
        assert "v_0_0;" in dot and "--" not in dot

    def test_c333_cut_a_counts(self):
        dot = to_dot(build_graph(c333(), Partition.A))
        assert len(re.findall(r"^\s+v_\d+_\d+;$", dot, re.M)) == 9
        assert len(re.findall(r"--", dot)) == 9

    def test_syntax(self):
        dot = to_dot(build_graph(c345(), Partition.C))
        lines = dot.strip().splitlines()
        assert re.fullmatch(r'graph "[\w]+" \{', lines[0])
        assert lines[-1] == "}"
        body = re.compile(r"\s+v_\d+_\d+( -- v_\d+_\d+)?;")
        assert all(body.fullmatch(line) for line in lines[1:-1])

    def test_deterministic(self):
        G = build_graph(c444_weight4(), Partition.B)
        assert to_dot(G) == to_dot(G)
