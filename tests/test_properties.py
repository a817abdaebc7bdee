"""Randomized invariants over small generated state sets."""

import pytest
from hypothesis import given, settings, strategies as st

from ghznl.graphs import build_graph, build_path_graph, is_connected
from ghznl.oracle import build_constraints, identity_vector, nullspace
from ghznl.state_model import (
    GhzTuple,
    Ket,
    Partition,
    StateSet,
    SystemDims,
    check_mutual_orthogonality,
    expand_set,
    inner_product,
    parse_state_set,
    write_state_set,
)

SETTINGS = dict(max_examples=200, deadline=None)


@st.composite
def state_sets(draw, max_tuples=3, weights=(2,)):
    """Small sets of mutually orthogonal GHZ-like tuples.

    Kets are built by zipping per-axis permutations so that every tuple is
    coordinately different, and tuples use disjoint coordinate blocks so the
    whole set is mutually orthogonal by construction.
    """
    d1 = draw(st.integers(2, 4))
    d2 = draw(st.integers(2, 4))
    d3 = draw(st.integers(2, 4))
    dims = SystemDims(d1, d2, d3)
    n_tuples = draw(st.integers(1, max_tuples))
    used = set()
    tuples = []
    for _ in range(n_tuples):
        w = draw(
            st.sampled_from([v for v in weights if v <= min(d1, d2, d3)])
        )
        pi = draw(st.permutations(range(d1)))
        pj = draw(st.permutations(range(d2)))
        pk = draw(st.permutations(range(d3)))
        kets = tuple(Ket(pi[m], pj[m], pk[m]) for m in range(w))
        if any(tuple(k) in used for k in kets):
            continue
        used.update(tuple(k) for k in kets)
        tuples.append(GhzTuple(w, kets))
    if not tuples:
        kets = (Ket(0, 0, 0), Ket(1, 1, 1))
        tuples.append(GhzTuple(2, kets))
    return StateSet(dims, tuple(tuples))


@st.composite
def overlapping_sets(draw, max_tuples=3):
    """Small sets whose tuples may share kets, so pairs of states from
    different tuples can be non-orthogonal; weight 3 forces float mode."""
    dims = SystemDims(*(draw(st.integers(2, 4)) for _ in range(3)))
    kets = st.builds(
        Ket,
        st.integers(0, dims.d1 - 1),
        st.integers(0, dims.d2 - 1),
        st.integers(0, dims.d3 - 1),
    )
    weights = [w for w in (2, 3, 4) if w <= min(dims.as_tuple())]
    tuples = []
    for _ in range(draw(st.integers(1, max_tuples))):
        w = draw(st.sampled_from(weights))
        members = draw(st.lists(kets, min_size=w, max_size=w, unique=True))
        tuples.append(GhzTuple(w, tuple(members)))
    return StateSet(dims, tuple(tuples))


@settings(**SETTINGS)
@given(overlapping_sets())
def test_row_trace_finds_exactly_the_non_orthogonal_pairs(S):
    violations = check_mutual_orthogonality(S)
    for exact in (None, False):
        for p in Partition:
            cs = build_constraints(S, p, exact=exact, nonorthogonal="skip")
            assert cs.skipped_pairs == 2 * len(violations)
            if violations:
                with pytest.raises(ValueError, match="not mutually orthogonal"):
                    build_constraints(S, p, exact=exact)
            else:
                build_constraints(S, p, exact=exact)


@settings(**SETTINGS)
@given(state_sets(weights=(2, 4)))
def test_identity_always_in_nullspace(S):
    for p in Partition:
        ns = nullspace(build_constraints(S, p))
        assert ns.contains_identity
        assert ns.dimension >= 1


@settings(**SETTINGS)
@given(state_sets(weights=(2, 4)))
def test_path_subgraph_and_connectivity_implication(S):
    for p in Partition:
        full = build_graph(S, p)
        path = build_path_graph(S, p)
        assert path.vertices == full.vertices
        assert path.edges <= full.edges
        if is_connected(path):
            assert is_connected(full)


@settings(**SETTINGS)
@given(state_sets(weights=(2, 4)))
def test_document_round_trip(S):
    assert parse_state_set(write_state_set(S)) == S


@settings(**SETTINGS)
@given(state_sets(weights=(2, 4)))
def test_expansion_orthonormal(S):
    states = expand_set(S)
    for a, s in enumerate(states):
        assert inner_product(s, s) == pytest.approx(1, abs=1e-12)
        for t in states[a + 1:]:
            assert abs(inner_product(s, t)) < 1e-12
    assert len(states) == S.n_states


@settings(**SETTINGS)
@given(state_sets(max_tuples=2, weights=(2,)))
def test_nullspace_dimension_monotone_under_constraints(S):
    """Adding tuples (hence rows) can only shrink the solution space."""
    for p in Partition:
        dims = []
        for n in range(1, len(S.tuples) + 1):
            sub = StateSet(S.dims, S.tuples[:n])
            dims.append(nullspace(build_constraints(sub, p)).dimension)
        assert all(a >= b for a, b in zip(dims, dims[1:]))
