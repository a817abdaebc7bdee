"""End-to-end acceptance checks, one per published claim group.

Each test prints a single `criterion N ...: PASS/FAIL` line; run with
`pytest -s tests/test_acceptance.py` to see them as they execute.
"""

import time
from contextlib import contextmanager

from ghznl.certifier import Verdict, certify, certify_via_graphs
from ghznl.constructions import c333, c345, c444_weight4, even_d, odd_d
from ghznl.graphs import (
    build_graph,
    build_path_graph,
    connected_components,
)
from ghznl.oracle import build_constraints, nullspace, oracle_all
from ghznl.state_model import (
    Partition,
    check_genuine_entanglement,
    expand_set,
    genuine_entanglement_census,
)

import test_properties
from test_constructions import without_labels


@contextmanager
def criterion(num, desc):
    t0 = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"criterion {num} ({desc}): FAIL")
        raise
    print(f"criterion {num} ({desc}): PASS [{time.monotonic() - t0:.2f}s]")


def test_criterion_1_construction_sizes():
    with criterion(1, "construction sizes"):
        t0 = time.monotonic()
        assert c333().n_states == 26
        assert odd_d(5).n_states == 98
        assert even_d(4).n_states == 58
        assert even_d(6).n_states == 154
        assert c345().n_states == 54
        assert c444_weight4().n_states == 64
        assert time.monotonic() - t0 < 1.0


def test_criterion_2_graph_connectivity():
    with criterion(2, "graph connectivity claims"):
        full_sets = [
            c333(),
            c345(),
            odd_d(3),
            odd_d(5),
            odd_d(7),
            even_d(4),
            even_d(6),
        ]
        for S in full_sets:
            t0 = time.monotonic()
            for p in Partition:
                assert connected_components(build_graph(S, p)) <= 1
            assert time.monotonic() - t0 < 1.0
        t0 = time.monotonic()
        for p in Partition:
            assert connected_components(build_path_graph(c444_weight4(), p)) <= 1
        assert time.monotonic() - t0 < 1.0


def test_criterion_3_oracle_trivial_only():
    with criterion(3, "oracle nullspace dimension 1 with identity"):
        small = [c333(), c345(), even_d(4), c444_weight4()]
        for S in small:
            t0 = time.monotonic()
            results = oracle_all(S)
            for r in results.values():
                assert r.dimension == 1
                assert r.contains_identity
                assert r.prime >= 2**61
            assert time.monotonic() - t0 < 5.0
        for S in (odd_d(5), odd_d(7), odd_d(9), even_d(8), even_d(10)):
            t0 = time.monotonic()
            for r in oracle_all(S).values():
                assert r.dimension == 1 and r.contains_identity
            assert time.monotonic() - t0 < 60.0


def test_criterion_4_equivalence_and_ablation():
    with criterion(4, "graph/oracle equivalence and diagonal-pair ablation"):
        for S in (c333(), c345(), odd_d(3), odd_d(5)):
            report = certify(S, method="both")
            assert report.applied_theorem == 1
            assert report.agreement is True
            assert all(
                (n <= 1) == r.trivial_only
                for n, r in zip(
                    report.partitions.values(), report.oracle.values()
                )
            )
        # the two-parity-component structure exists only in the even family:
        # removing its diagonal pairs S4/S5 splits every cut graph into
        # exactly 2 components and opens a >=2-dimensional solution space
        ablated = without_labels(even_d(4), ["S4", "S5"])
        for p in Partition:
            assert connected_components(build_graph(ablated, p)) == 2
        results = oracle_all(ablated)
        assert any(r.dimension >= 2 for r in results.values())
        assert all(r.dimension == 2 for r in results.values())
        # the odd family keeps dimension 1 without its diagonal pair: the
        # three ring blocks alone already connect every cut graph
        for S in (c333(), c345(), odd_d(5)):
            pruned = without_labels(S, ["S4"])
            for p in Partition:
                assert connected_components(build_graph(pruned, p)) <= 1
            assert all(
                r.dimension == 1 for r in oracle_all(pruned).values()
            )


def test_criterion_5_nullspace_diagonality():
    # dimension 1 with the identity inside means the space is span(I)
    with criterion(5, "nullspace exactly span(I) over F_p"):
        corpus = [c333(), c345(), odd_d(3), odd_d(5), even_d(6), c444_weight4()]
        for S in corpus:
            for p in Partition:
                ns = nullspace(build_constraints(S, p))
                assert ns.dimension == 1 and ns.contains_identity
                assert ns.witness is None


def test_criterion_6_entanglement_census():
    with criterion(6, "genuine-entanglement census"):
        clean = [c333(), c345(), odd_d(3), odd_d(5), odd_d(7), even_d(6),
                 c444_weight4()]
        for S in clean:
            assert genuine_entanglement_census(S) == []
            assert all(
                check_genuine_entanglement(s) for s in expand_set(S)
            )
        S4 = even_d(4)
        failures = genuine_entanglement_census(S4)
        assert failures == [56, 57]
        # the failing states are exactly the two states expanded from the
        # tuple labeled S5
        flat = []
        for t in S4.tuples:
            flat.extend([t.label] * t.weight)
        assert [flat[i] for i in failures] == ["S5", "S5"]
        for r in oracle_all(S4).values():
            assert r.dimension == 1


def test_criterion_7_property_suites():
    with criterion(7, "randomized property suites (200 cases each)"):
        test_properties.test_identity_always_in_nullspace()
        test_properties.test_path_subgraph_and_connectivity_implication()
        test_properties.test_document_round_trip()
        test_properties.test_expansion_orthonormal()
        test_properties.test_nullspace_dimension_monotone_under_constraints()
