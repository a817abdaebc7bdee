"""Randomized invariants over small generated state sets."""

import itertools
import math
from fractions import Fraction
from functools import cached_property
from unittest import mock

from hypothesis import assume, given, settings, strategies as st

from ghznl.arithmetic import SparseEliminator, norm_bound, prime_field, union_find
from ghznl.certifier import certify, check_hypotheses
from ghznl.constructions import c333, c345, c444_weight4, even_d, odd_d
from ghznl.graphs import (
    build_graph,
    build_path_graph,
    component_counts,
    connected_components,
)
from ghznl.oracle import build_constraints, build_systems, nullspace, oracle_all
from ghznl.state_model import (
    GhzTuple,
    Ket,
    Partition,
    StateSet,
    StateVector,
    SystemDims,
    check_genuine_entanglement,
    check_mutual_orthogonality,
    check_plane_containing,
    expand_set,
    parse_state_set,
    write_state_set,
)

SETTINGS = dict(max_examples=200, deadline=None)


@st.composite
def state_sets(draw, max_tuples=3, weights=(2,), min_dim=2):
    """Small sets of mutually orthogonal GHZ-like tuples.

    Kets are built by zipping per-axis permutations so that every tuple is
    coordinately different, and tuples use disjoint coordinate blocks so the
    whole set is mutually orthogonal by construction.
    """
    d1 = draw(st.integers(min_dim, 4))
    d2 = draw(st.integers(min_dim, 4))
    d3 = draw(st.integers(min_dim, 4))
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
    different tuples can be non-orthogonal; weights 2, 3 and 4 mix root
    orders."""
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


@st.composite
def collapsed_sets(draw, max_tuples=3):
    """Small sets whose every tuple holds two kets that differ on one axis
    only.  On that axis's cut the two kets project to one kept index, and
    the tuple is spread there when its other kets' cut coordinates are
    distinct too; on the other two cuts the two kets repeat the cut
    coordinate.  Tuples may share kets."""
    dims = SystemDims(*(draw(st.integers(2, 4)) for _ in range(3)))
    bounds = dims.as_tuple()
    kets = st.builds(Ket, *(st.integers(0, d - 1) for d in bounds))
    weights = [w for w in (2, 3, 4) if w <= min(bounds)]
    tuples = []
    for _ in range(draw(st.integers(1, max_tuples))):
        w = draw(st.sampled_from(weights))
        base = draw(kets)
        axis = draw(st.integers(0, 2))
        c = draw(st.integers(0, bounds[axis] - 1).filter(lambda c: c != base[axis]))
        twin = base._replace(**{base._fields[axis]: c})
        rest = draw(
            st.lists(
                kets.filter(lambda k: k not in (base, twin)),
                min_size=w - 2,
                max_size=w - 2,
                unique=True,
            )
        )
        tuples.append(GhzTuple(w, (base, twin, *rest)))
    return StateSet(dims, tuple(tuples))


def reference_partners(S):
    """partners[t] by brute force: each tuple u whose kets meet t's, t
    itself included, mapped to the kets t and u share."""
    return [
        {
            u: shared
            for u, other in enumerate(S.tuples)
            if (shared := set(tup.kets) & set(other.kets))
        }
        for tup in S.tuples
    ]


@settings(**SETTINGS)
@given(overlapping_sets())
def test_row_trace_finds_exactly_the_non_orthogonal_pairs(S):
    violations = check_mutual_orthogonality(S)
    for p in Partition:
        assert build_constraints(S, p).skipped_pairs == 2 * len(violations)


def cut_axes(p):
    """The cut party and the two kept parties, in the oracle's unknown
    order (y*db+z)*P + ..."""
    axis = "ABC".index(p.value)
    return (axis, *{0: (1, 2), 1: (2, 0), 2: (0, 1)}[axis])


def per_pair_reference(S, p, cs):
    """The oracle's system before block reduction, over cs's field: one row
    per ordered pair of distinct states, E[proj k, proj k'] weighted by
    conj(phi[k]) * psi[k'] for kets k, k' that agree on the cut axis, and
    the pair dropped (skipped) when the row's trace, its overlap, is
    nonzero.  Returns (rows, skipped)."""
    axis, ka, kb = cut_axes(p)
    dims = S.dims.as_tuple()
    side = dims[ka] * dims[kb]

    def joint(k):
        return k[ka] * dims[kb] + k[kb]

    roots = [pow(cs.root, e, cs.prime) for e in range(cs.order)]
    states = [
        {k: (cs.order // t.weight) * m * n for m, k in enumerate(t.kets)}
        for t in S.tuples
        for n in range(t.weight)
    ]
    rows, skipped = [], 0
    for a, phi in enumerate(states):
        for b, psi in enumerate(states):
            if a == b:
                continue
            row = {}
            for k, ea in phi.items():
                for k2, eb in psi.items():
                    if k[axis] == k2[axis]:
                        u = joint(k) * side + joint(k2)
                        row[u] = row.get(u, 0) + roots[(eb - ea) % cs.order]
            trace = sum(v for u, v in row.items() if u % (side + 1) == 0)
            if trace % cs.prime:
                skipped += 1
                continue
            rows.append({u: r for u, v in row.items() if (r := v % cs.prime)})
    return rows, skipped


@settings(**SETTINGS)
@given(st.one_of(overlapping_sets(max_tuples=4), collapsed_sets()))
def test_block_reduction_matches_per_pair_system(S):
    partners = reference_partners(S)
    for p in Partition:
        cs = build_constraints(S, p)
        # the unit rows are E[i, j] = 0 for each (t, i), (u, j) at one cut
        # coordinate with u not a partner of t, in ascending unknown order
        axis, ka, kb = cut_axes(p)
        side, db = cs.side, S.dims.as_tuple()[kb]
        at: dict[int, list[tuple[int, int]]] = {}
        for t, tup in enumerate(S.tuples):
            for k in tup.kets:
                at.setdefault(k[axis], []).append((t, k[ka] * db + k[kb]))
        units = [
            {u: 1}
            for u in sorted(
                {
                    i * side + j
                    for entries in at.values()
                    for t, i in entries
                    for u, j in entries
                    if u not in partners[t]
                }
            )
        ]
        assert cs.rows[: len(units)] == units
        assert len(cs.rows) == cs.n_rows
        assert cs.n_rows == len(units) + len(cs.equalities) + len(cs.pair_rows)
        ns = nullspace(cs)
        rows, skipped = per_pair_reference(S, p, cs)
        elim = SparseEliminator(cs.prime)
        for row in rows:
            if row:
                elim.add_row(row)
        assert ns.rank == elim.rank
        assert ns.dimension == cs.n_unknowns - elim.rank
        assert ns.skipped_pairs == skipped
        identity = {k * cs.side + k: 1 for k in range(cs.side)}

        def solves(vec):
            return all(
                sum(v * vec.get(u, 0) for u, v in row.items()) % cs.prime == 0
                for row in rows
            )

        assert ns.contains_identity == solves(identity)
        assert (ns.witness is None) == (ns.dimension == 1)
        if ns.witness is not None:
            assert solves(ns.witness)
            # not a multiple of I: off the diagonal, or unequal on it
            diagonal = {ns.witness.get(u, 0) for u in identity}
            assert set(ns.witness) - set(identity) or len(diagonal) > 1


def states_orthogonal(s1, s2):
    """Reference overlap test, one pair of expanded states at a time: the
    unscaled <s1|s2> is the sum of omega_L^(e2 L/L2 - e1 L/L1) over the
    shared kets, L = lcm(L1, L2) the pair's own order, decided mod a prime
    chosen for this pair alone (conjugation negates e1)."""
    order = math.lcm(s1.order, s2.order)
    a, b = order // s1.order, order // s2.order
    e2 = s2.exponents
    terms = [
        (e2[ket] * b - e * a) % order
        for ket, e in s1.exponents.items()
        if ket in e2
    ]
    if not terms:
        return True
    p, r = prime_field(order, norm_bound(order, len(terms)))
    return sum(pow(r, e, p) for e in terms) % p == 0


@settings(**SETTINGS)
@given(overlapping_sets(max_tuples=6))
def test_mutual_orthogonality_matches_all_pairs_scan(S):
    states = expand_set(S)
    expected = [
        (a, b)
        for a in range(len(states))
        for b in range(a + 1, len(states))
        if not states_orthogonal(states[a], states[b])
    ]
    assert check_mutual_orthogonality(S) == expected


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
        assert (
            connected_components(path) == connected_components(full)
        )
        if connected_components(path) <= 1:
            assert connected_components(full) <= 1


def bfs_component_count(S, p):
    """Components of cut p's full graph by breadth-first search over every
    kept index (a, b); an index no ket projects to is alone."""
    da, db = p.kept_dims(S.dims)
    a, b = p.kept_axes
    adj = {(x, y): set() for x in range(da) for y in range(db)}
    for t in S.tuples:
        proj = {(k[a], k[b]) for k in t.kets}
        for u in proj:
            adj[u] |= proj - {u}
    seen, count = set(), 0
    for start in adj:
        if start in seen:
            continue
        count += 1
        seen.add(start)
        frontier = [start]
        while frontier:
            frontier = [v for u in frontier for v in adj[u] if v not in seen]
            seen.update(frontier)
    return count


@settings(**SETTINGS)
@given(state_sets(weights=(2, 4)))
def test_document_round_trip(S):
    assert parse_state_set(write_state_set(S)) == S


@settings(**SETTINGS)
@given(state_sets(weights=(2, 4)))
def test_expansion_orthonormal(S):
    states = expand_set(S)
    for a, s in enumerate(states):
        assert not states_orthogonal(s, s)
        for t in states[a + 1:]:
            assert states_orthogonal(s, t)
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


# --- Schmidt rank against cut-matrix elimination over F_p ----------------


@st.composite
def hand_built_states(draw):
    """States on a rectangle support X1 x X2 x X3, sometimes with a few
    cells removed.  The exponent of a ket is f1(i) + f2(j) + f3(k), plus
    g of one pair of axes when drawn (a product across the third party's
    cut only), and then a few cells are perturbed."""
    order = draw(st.sampled_from([2, 3, 4, 6, 12]))
    dims = SystemDims(*(draw(st.integers(2, 3)) for _ in range(3)))
    axes = [
        draw(st.lists(st.integers(0, d - 1), min_size=1, max_size=d, unique=True))
        for d in dims.as_tuple()
    ]
    cells = list(itertools.product(*axes))
    for _ in range(draw(st.integers(0, min(2, len(cells) - 1)))):
        cells.remove(draw(st.sampled_from(cells)))
    exponent = st.integers(0, order - 1)
    f = [{c: draw(exponent) for c in axis} for axis in axes]
    pair = draw(st.sampled_from([None, (0, 1), (1, 2), (0, 2)]))
    g = {} if pair is None else {
        (x[pair[0]], x[pair[1]]): draw(exponent) for x in cells
    }
    exponents = {
        Ket(*x): (
            sum(f[a][x[a]] for a in range(3))
            + (0 if pair is None else g[x[pair[0]], x[pair[1]]])
        ) % order
        for x in cells
    }
    for _ in range(draw(st.integers(0, 2))):
        ket = draw(st.sampled_from(sorted(exponents)))
        exponents[ket] = (exponents[ket] + draw(exponent)) % order
    return StateVector(dims, exponents, order=order)


def reference_genuinely_entangled(s):
    """Rank >= 2 on every cut, by SparseEliminator on the cut matrix of
    residues r^e over the prime field whose p exceeds the norm bound of a
    2x2 minor."""
    p, r = prime_field(s.order, norm_bound(s.order, 2))
    for part in Partition:
        columns, rows = {}, {}
        for ket, e in s.exponents.items():
            col = columns.setdefault(part.project(ket), len(columns))
            rows.setdefault(ket[part.cut_axis], {})[col] = pow(r, e, p)
        elim = SparseEliminator(p)
        for row in rows.values():
            elim.add_row(row)
        if elim.rank < 2:
            return False
    return True


@settings(**SETTINGS)
@given(
    st.one_of(
        hand_built_states(),
        overlapping_sets().flatmap(lambda S: st.sampled_from(expand_set(S))),
    )
)
def test_schmidt_rank_from_exponents_matches_elimination(s):
    assert check_genuine_entanglement(s) == reference_genuinely_entangled(s)


def dense_rank(rows, n, p):
    """Rank mod p of sparse rows over columns 0..n-1, by Gauss-Jordan
    elimination on the dense matrix."""
    m = [[row.get(c, 0) for c in range(n)] for row in rows]
    rank = 0
    for c in range(n):
        pivot = next((i for i in range(rank, len(m)) if m[i][c] % p), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = pow(m[rank][c], -1, p)
        for i in range(len(m)):
            if i != rank and m[i][c] % p:
                f = m[i][c] * inv
                m[i] = [(x - f * y) % p for x, y in zip(m[i], m[rank])]
        rank += 1
    return rank


@st.composite
def sparse_systems(draw):
    """(p, n, rows): random sparse rows mod 7 or 101 over n columns, with
    some rows a combination of two earlier ones."""
    p = draw(st.sampled_from([7, 101]))
    n = draw(st.integers(1, 10))
    residue = st.integers(1, p - 1)
    rows = draw(
        st.lists(
            st.dictionaries(st.integers(0, n - 1), residue, max_size=4),
            max_size=8,
        )
    )
    for _ in range(draw(st.integers(0, 3)) if rows else 0):
        i, j = (draw(st.integers(0, len(rows) - 1)) for _ in range(2))
        a, b = draw(residue), draw(residue)
        combo = {c: (a * rows[i].get(c, 0) + b * rows[j].get(c, 0)) % p
                 for c in rows[i].keys() | rows[j].keys()}
        rows.append({c: v for c, v in combo.items() if v})
    return p, n, rows


@settings(**SETTINGS)
@given(sparse_systems())
def test_sparse_eliminator_matches_dense_reference(system):
    """The rank is the dense rank, and solution(c) for each free column c
    solves every row with c at 1 and the other free columns at 0."""
    p, n, rows = system
    elim = SparseEliminator(p)
    for row in rows:
        elim.add_row(row)
    assert elim.rank == dense_rank(rows, n, p)
    free = [c for c in range(n) if c not in elim.pivots]
    assert len(free) == n - elim.rank
    for c in free:
        vec = elim.solution(c)
        assert {f: vec.get(f, 0) for f in free} == {f: int(f == c) for f in free}
        for row in rows:
            assert sum(v * vec.get(u, 0) for u, v in row.items()) % p == 0


# --- reference rank over Q(i) ---------------------------------------------

ZERO = (Fraction(0), Fraction(0))
I_POWERS = ((1, 0), (0, 1), (-1, 0), (0, -1))


def _mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _sub(x, y):
    return (x[0] - y[0], x[1] - y[1])


def _inv(x):
    n = x[0] * x[0] + x[1] * x[1]
    return (x[0] / n, -x[1] / n)


def reference_rank(S, p):
    """Rank over Q(i) of the oracle's system for a set of weights 2 and 4.

    Built from the kets and i-powers directly: state n of a weight-w tuple
    has coefficient i**((4/w)*m*n) on its m-th ket, and the ordered pair
    (phi, psi) contributes conj(phi[k]) * psi[k'] to unknown (k, k') for
    kets k, k' that agree on the cut axis.  Dense elimination on pairs of
    Fractions.
    """
    axis = "ABC".index(p.value)
    kept = [a for a in range(3) if a != axis]
    states = [
        {tuple(k): (4 // t.weight) * m * n % 4 for m, k in enumerate(t.kets)}
        for t in S.tuples
        for n in range(t.weight)
    ]
    rows = []
    for a, phi in enumerate(states):
        for b, psi in enumerate(states):
            if a == b:
                continue
            row = {}
            for k, ea in phi.items():
                for k2, eb in psi.items():
                    if k[axis] == k2[axis]:
                        u = tuple(k[i] for i in kept) + tuple(k2[i] for i in kept)
                        re, im = I_POWERS[(eb - ea) % 4]
                        x = row.get(u, ZERO)
                        row[u] = (x[0] + re, x[1] + im)
            rows.append(row)
    columns = sorted({u for row in rows for u in row})
    matrix = [[row.get(u, ZERO) for u in columns] for row in rows]
    rank = 0
    for c in range(len(columns)):
        piv = next((r for r in range(rank, len(matrix)) if matrix[r][c] != ZERO), None)
        if piv is None:
            continue
        matrix[rank], matrix[piv] = matrix[piv], matrix[rank]
        top = matrix[rank]
        inv = _inv(top[c])
        nonzero = [j for j in range(c, len(columns)) if top[j] != ZERO]
        for r in range(rank + 1, len(matrix)):
            if matrix[r][c] != ZERO:
                f = _mul(matrix[r][c], inv)
                for j in nonzero:
                    matrix[r][j] = _sub(matrix[r][j], _mul(f, top[j]))
        rank += 1
    return rank


@settings(max_examples=40, deadline=None)
@given(st.one_of(state_sets(weights=(2, 4)), state_sets(weights=(2, 4), min_dim=4)))
def test_prime_field_dimension_matches_rank_over_gaussian_rationals(S):
    for p in Partition:
        cs = build_constraints(S, p)
        assert nullspace(cs).dimension == cs.n_unknowns - reference_rank(S, p)


# --- Theorem 1 on random weight-2 partitions of a product basis -----------


def derangements(n):
    return st.permutations(range(n)).filter(
        lambda s: all(s[i] != i for i in range(n))
    )


@st.composite
def weight2_partitions(draw):
    """A full product basis split into coordinately different weight-2
    tuples: the layers of an axis of even dimension are paired, and ket
    (x, y) of one layer joins (sigma x, tau y) of the other, with sigma and
    tau derangements.  Such a layered set is disconnected on the two cuts
    that keep the paired axis, so random swaps of kets between tuples, kept
    when both tuples stay coordinately different, mix in connected sets."""
    dims = [draw(st.sampled_from([3, 2])) for _ in range(3)]
    axis = draw(st.integers(0, 2))
    dims[axis] = draw(st.sampled_from([4, 2]))
    oa, ob = [a for a in range(3) if a != axis]
    layers = draw(st.permutations(range(dims[axis])))
    tuples = []
    for l1, l2 in zip(layers[::2], layers[1::2]):
        sigma = draw(derangements(dims[oa]))
        tau = draw(derangements(dims[ob]))
        for x in range(dims[oa]):
            for y in range(dims[ob]):
                k1, k2 = [0, 0, 0], [0, 0, 0]
                k1[axis], k1[oa], k1[ob] = l1, x, y
                k2[axis], k2[oa], k2[ob] = l2, sigma[x], tau[y]
                tuples.append([tuple(k1), tuple(k2)])
    rng = draw(st.randoms(use_true_random=False))
    for _ in range(10 * len(tuples)):
        i, j = rng.randrange(len(tuples)), rng.randrange(len(tuples))
        t, u = list(tuples[i]), list(tuples[j])
        a, b = rng.randrange(2), rng.randrange(2)
        t[a], u[b] = u[b], t[a]
        if i != j and all(all(x[c] != y[c] for c in range(3)) for x, y in (t, u)):
            tuples[i], tuples[j] = t, u
    return StateSet(
        SystemDims(*dims),
        tuple(GhzTuple(2, tuple(Ket(*k) for k in t)) for t in tuples),
    )


@settings(max_examples=60, deadline=None)
@given(weight2_partitions())
def test_theorem1_graph_and_oracle_agree(S):
    report = certify(S, method="both")
    assert report.applied_theorem == 1
    assert report.agreement is True
    for p in Partition:
        assert (report.partitions[p] <= 1) == report.oracle[p].trivial_only


# --- Theorem 2's converse on random layered partitions of a product basis --


def coordinately_different(kets):
    return all(len({k[c] for k in kets}) == len(kets) for c in range(3))


@st.composite
def layered_partitions(draw):
    """A product basis split into coordinately different tuples of weights
    2-4, less at most one tuple.  One axis is cut into groups of w layers;
    the m-th layer of a group is joined to the others through the m-th of w
    Latin rows of each other axis (x -> perm[(x + shift_m) % d] with
    distinct shifts, so the rows differ at every position).  Random swaps
    of kets between tuples, kept when both tuples stay coordinately
    different, then mix it."""
    weights = draw(st.lists(st.sampled_from([2, 3, 4]), min_size=1, max_size=2))
    axis = draw(st.integers(0, 2))
    dims = [draw(st.integers(max(weights), 4)) for _ in range(3)]
    dims[axis] = sum(weights)
    oa, ob = [a for a in range(3) if a != axis]
    layers = draw(st.permutations(range(dims[axis])))

    def latin_rows(d, w):
        perm = draw(st.permutations(range(d)))
        shifts = draw(st.permutations(range(d)))[:w]
        return [[perm[(x + s) % d] for x in range(d)] for s in shifts]

    tuples, pos = [], 0
    for w in weights:
        group, pos = layers[pos:pos + w], pos + w
        ra, rb = latin_rows(dims[oa], w), latin_rows(dims[ob], w)
        for x in range(dims[oa]):
            for y in range(dims[ob]):
                kets = []
                for m in range(w):
                    k = [0, 0, 0]
                    k[axis], k[oa], k[ob] = group[m], ra[m][x], rb[m][y]
                    kets.append(tuple(k))
                tuples.append(kets)
    rng = draw(st.randoms(use_true_random=False))
    for _ in range(10 * len(tuples)):
        i, j = rng.randrange(len(tuples)), rng.randrange(len(tuples))
        t, u = list(tuples[i]), list(tuples[j])
        a, b = rng.randrange(len(t)), rng.randrange(len(u))
        t[a], u[b] = u[b], t[a]
        if i != j and coordinately_different(t) and coordinately_different(u):
            tuples[i], tuples[j] = t, u
    dropped = draw(st.sets(st.integers(0, len(tuples) - 1), max_size=1))
    return StateSet(
        SystemDims(*dims),
        tuple(
            GhzTuple(len(t), tuple(Ket(*k) for k in t))
            for n, t in enumerate(tuples)
            if n not in dropped
        ),
    )


@settings(max_examples=60, deadline=None)
@given(layered_partitions())
def test_theorem2_converse_dimension_equals_component_count(S):
    """Under the theorems' hypotheses, at every weight, each cut's oracle
    dimension is its graph's component count: connectivity decides the
    trivial-only property both ways, not only for weight 2."""
    assume(check_hypotheses(S).theorems_apply)
    results = oracle_all(S)
    counts = component_counts(S)
    for p in Partition:
        assert results[p].dimension == counts[p]


# --- the constraint build against the general per-entry builder ----------


def reference_build(S, p):
    """(zeroed, equalities, pair_rows, skipped_pairs) of S on cut p by the
    general builder: a cut index over every tuple, each entry's mask from
    its non-partners at its cut coordinate, the lone spread tuples' masks
    as met[x] less their own bit, and the per-pair loop over every tuple."""
    da, db = p.kept_dims(S.dims)
    order, prime, root = S.field
    roots = [pow(root, e, prime) for e in range(order)]
    P = da * db
    axis = p.cut_axis
    ka, kb = p.kept_axes
    tuples, partners = S.tuples, reference_partners(S)
    cells = [[(k[axis], k[ka] * db + k[kb]) for k in tup.kets] for tup in tuples]
    index, met, spread, equalities = {}, {}, [], []
    for t, tup in enumerate(tuples):
        for x, i in cells[t]:
            index.setdefault(x, []).append((t, i))
            met[x] = met.get(x, 0) | 1 << i
        spread.append(len({x for x, _ in cells[t]}) == tup.weight)
        if spread[t]:
            d0, *rest = (i * (P + 1) for _, i in cells[t])
            equalities.extend((d0, d) for d in rest if d != d0)
    zeroed = [0] * P
    for x, entries in index.items():
        for t, i in entries:
            ts = partners[t]
            if len(ts) == 1 and spread[t]:
                zeroed[i] |= met[x] & ~(1 << i)
            else:
                for u, j in entries:
                    if u not in ts:
                        zeroed[i] |= 1 << j
    step = [order // tup.weight for tup in tuples]
    rows, skipped = [], 0
    for t, tup in enumerate(tuples):
        if len(partners[t]) == 1 and spread[t]:
            continue
        blocks = [
            (u, [
                (i * P + j, m * step[t], mu * step[u])
                for m, (x, i) in enumerate(cells[t])
                for mu, (y, j) in enumerate(cells[u])
                if x == y
            ])
            for u in sorted(partners[t])
            if u != t or not spread[t]
        ]
        for n in range(tup.weight):
            for u, meets in blocks:
                for nu in range(tuples[u].weight):
                    if u == t and nu == n:
                        continue
                    row = {}
                    for k, a, b in meets:
                        row[k] = row.get(k, 0) + roots[(b * nu - a * n) % order]
                    if sum(v for k, v in row.items() if k % (P + 1) == 0) % prime:
                        skipped += 1
                        continue
                    rows.append({k: r for k, v in row.items() if (r := v % prime)})
    return zeroed, equalities, rows, skipped


@st.composite
def mixed_sets(draw):
    """A layered partition plus one or two tuples drawn from its kets, so
    lone spread tuples and ket-sharing tuples meet at one cut coordinate;
    the added tuples may repeat a cut coordinate."""
    S = draw(layered_partitions())
    kets = sorted({k for t in S.tuples for k in t.kets})
    extra = []
    for _ in range(draw(st.integers(1, 2))):
        w = draw(st.integers(2, min(S.dims.as_tuple())))
        members = draw(st.lists(st.sampled_from(kets), min_size=w, max_size=w, unique=True))
        extra.append(GhzTuple(w, tuple(members)))
    return StateSet(S.dims, S.tuples + tuple(extra))


@st.composite
def one_shared_ket_sets(draw):
    """Tuples that pairwise share at most one ket: two tuples of weights
    2-4 through one common ket in dims 3-5, or a layered partition plus a
    tuple of weight 2-4 whose kets come from distinct tuples of it."""
    if draw(st.booleans()):
        S = draw(layered_partitions())
        w = draw(st.integers(2, min(4, len(S.tuples), *S.dims.as_tuple())))
        donors = draw(
            st.lists(
                st.integers(0, len(S.tuples) - 1), min_size=w, max_size=w, unique=True
            )
        )
        kets = tuple(draw(st.sampled_from(S.tuples[t].kets)) for t in donors)
        return StateSet(S.dims, S.tuples + (GhzTuple(w, kets),))
    dims = SystemDims(*(draw(st.integers(3, 5)) for _ in range(3)))
    kets = st.builds(Ket, *(st.integers(0, d - 1) for d in dims.as_tuple()))
    w, w2 = (draw(st.integers(2, min(4, *dims.as_tuple()))) for _ in range(2))
    a = draw(st.lists(kets, min_size=w, max_size=w, unique=True))
    b = draw(
        st.lists(
            kets.filter(lambda k: k not in a),
            min_size=w2 - 1,
            max_size=w2 - 1,
            unique=True,
        )
    )
    b.insert(draw(st.integers(0, w2 - 1)), draw(st.sampled_from(a)))
    return StateSet(dims, (GhzTuple(w, tuple(a)), GhzTuple(w2, tuple(b))))


@st.composite
def dense_sets(draw):
    """Kets covering all but a few cells of a small grid, paired in drawn
    order into weight-2 tuples, so whole coordinate planes occur."""
    dims = tuple(draw(st.integers(2, 3)) for _ in range(3))
    grid = draw(st.permutations(list(itertools.product(*map(range, dims)))))
    kets = grid[: len(grid) - draw(st.integers(0, 4))]
    if len(kets) % 2:
        kets.append(kets[0])
    return StateSet(
        SystemDims(*dims),
        tuple(
            GhzTuple(2, (Ket(*a), Ket(*b))) for a, b in zip(kets[::2], kets[1::2])
        ),
    )


ABLATED_FAMILIES = (c333, c345, c444_weight4, lambda: even_d(4), lambda: odd_d(5))


@st.composite
def ablated_families(draw):
    """A published family with up to three of its tuples dropped and each
    axis cyclically shifted by a drawn amount, so whole planes sit off
    coordinate 0, are broken, or are gone."""
    S = draw(st.sampled_from(ABLATED_FAMILIES))()
    dropped = draw(st.sets(st.integers(0, len(S.tuples) - 1), max_size=3))
    dims = S.dims.as_tuple()
    shifts = [draw(st.integers(0, d - 1)) for d in dims]

    def shift(k):
        return Ket(*((c + s) % d for c, s, d in zip(k, shifts, dims)))

    return StateSet(
        S.dims,
        tuple(
            GhzTuple(t.weight, tuple(map(shift, t.kets)))
            for i, t in enumerate(S.tuples)
            if i not in dropped
        ),
    )


@settings(**SETTINGS)
@given(
    st.one_of(
        dense_sets(), collapsed_sets(), one_shared_ket_sets(), ablated_families()
    )
)
def test_plane_witness_is_lexicographically_smallest(S):
    coords = {tuple(k) for t in S.tuples for k in t.kets}
    dims = S.dims.as_tuple()

    def plane(axis, c):
        return all(
            k in coords
            for k in itertools.product(
                *(range(n) if a != axis else [c] for a, n in enumerate(dims))
            )
        )

    expected = min(
        (
            t
            for t in itertools.product(*map(range, dims))
            if all(plane(a, t[a]) for a in range(3))
        ),
        default=None,
    )
    assert check_plane_containing(S) == expected


# each cached fact of StateSet, with its brute-force reference
FACT_REFERENCES = {
    "n_states": lambda S: sum(t.weight for t in S.tuples),
    "first": lambda S: tuple(
        sum(t.weight for t in S.tuples[:u]) for u in range(len(S.tuples))
    ),
    "holders": lambda S: {
        k: [t for t, tup in enumerate(S.tuples) if k in tup.kets]
        for tup in S.tuples
        for k in tup.kets
    },
    "spread": lambda S: tuple(
        sum(
            1 << axis
            for axis in range(3)
            if all(a[axis] != b[axis] for a, b in itertools.combinations(t.kets, 2))
        )
        for t in S.tuples
    ),
}

# the cached facts checked by a dedicated test instead, by test name
FACT_TESTS = {"field": "test_field_matches_its_definition"}


@settings(**SETTINGS)
@given(
    st.one_of(
        state_sets(),
        overlapping_sets(max_tuples=4),
        collapsed_sets(),
        one_shared_ket_sets(),
        mixed_sets(),
    )
)
def test_cached_set_facts_match_brute_force(S):
    for name, reference in FACT_REFERENCES.items():
        assert getattr(S, name) == reference(S), name
    partners = reference_partners(S)
    for t in range(len(S.tuples)):
        assert S.shares(t) == {u: len(kets) for u, kets in partners[t].items()}
    assert S.sharing() == {t for t, ps in enumerate(partners) if len(ps) > 1}


def _is_prime(n):
    """Miller-Rabin on the primes below 42: exact for n < 3.3 * 10^24."""
    bases = [q for q in range(2, 42) if all(q % f for f in range(2, q))]
    if n < 2 or any(n % q == 0 for q in bases):
        return n in bases
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@settings(**SETTINGS)
@given(
    st.one_of(
        state_sets(weights=(2, 3, 4), min_dim=3),
        overlapping_sets(max_tuples=4),
        mixed_sets(),
    )
)
def test_field_matches_its_definition(S):
    """(L, p, r): L the lcm of the weights, p a prime above the norm bound
    of every two weights' overlaps, r of multiplicative order L mod p."""
    order, prime, root = S.field
    weights = {t.weight for t in S.tuples}
    assert order == math.lcm(*weights)
    assert prime < 3 * 10**24 and _is_prime(prime)
    assert all(
        prime > norm_bound(math.lcm(a, b), min(a, b)) for a in weights for b in weights
    )
    assert [e for e in range(1, order + 1) if pow(root, e, prime) == 1] == [order]


def test_every_cached_fact_has_a_reference():
    facts = {
        name for name, v in vars(StateSet).items() if isinstance(v, cached_property)
    }
    assert facts == FACT_REFERENCES.keys() | FACT_TESTS.keys()
    assert all(callable(globals().get(test)) for test in FACT_TESTS.values())


@settings(**SETTINGS)
@given(one_shared_ket_sets())
def test_one_shared_ket_makes_every_state_pair_non_orthogonal(S):
    """Two tuples with one ket in common: each of their w * w' overlaps is
    a single root of unity, so by the test's own expansion no pair is
    orthogonal, and check_mutual_orthogonality lists exactly those pairs."""
    states = expand_set(S)
    first = list(itertools.accumulate((t.weight for t in S.tuples), initial=0))
    expected = []
    for t, u in itertools.combinations(range(len(S.tuples)), 2):
        a, b = S.tuples[t], S.tuples[u]
        shared = set(a.kets) & set(b.kets)
        assert len(shared) <= 1
        if shared:
            expected.extend(
                (first[t] + n, first[u] + nu)
                for n in range(a.weight)
                for nu in range(b.weight)
            )
    assert expected
    assert not any(states_orthogonal(states[x], states[y]) for x, y in expected)
    assert check_mutual_orthogonality(S) == sorted(expected)
    for p in Partition:
        assert build_constraints(S, p).skipped_pairs == 2 * len(expected)


@settings(**SETTINGS)
@given(
    st.one_of(
        state_sets(max_tuples=4, weights=(2, 3, 4)),
        overlapping_sets(),
        collapsed_sets(),
        one_shared_ket_sets(),
    )
)
def test_component_count_matches_breadth_first_search(S):
    """The one walk's count on each of the three cuts is the BFS count."""
    assert component_counts(S) == {p: bfs_component_count(S, p) for p in Partition}


@settings(**SETTINGS)
@given(
    st.one_of(
        state_sets(weights=(2, 3, 4)),
        overlapping_sets(max_tuples=6),
        collapsed_sets(),
        mixed_sets(),
        one_shared_ket_sets(),
        layered_partitions(),
    )
)
def test_constraint_build_matches_general_builder(S):
    """Every mask, equality, per-pair row and skip count of each cut, all
    three from one build_systems call, is the general builder's, in order."""
    systems = build_systems(S)
    assert list(systems) == list(Partition)
    for p, cs in systems.items():
        assert cs.partition is p
        # the reference names each diagonal unknown E[i, i] as i*(P+1)
        P = cs.side
        equalities = [(d0 * (P + 1), d * (P + 1)) for d0, d in cs.equalities]
        got = (cs.zeroed, equalities, cs.pair_rows, cs.skipped_pairs)
        assert got == reference_build(S, p)


class RecordingEliminator(SparseEliminator):
    """Keeps the last eliminator asked for a solution, and its free column."""

    last = None

    def solution(self, free):
        RecordingEliminator.last = (self, free)
        return super().solution(free)


def free_columns(S):
    """(cut's system, eliminator, free column nullspace chose) for every
    cut of S that has a witness."""
    out = []
    for p in Partition:
        cs = build_constraints(S, p)
        RecordingEliminator.last = None
        with mock.patch("ghznl.oracle.SparseEliminator", RecordingEliminator):
            ns = nullspace(cs)
        assert (ns.witness is None) == (RecordingEliminator.last is None)
        if ns.witness is not None:
            out.append((cs, *RecordingEliminator.last))
    return out


def scanned_free_column(cs, elim):
    """The witness's free column by a scan of all P^2 unknowns: the least
    unknown that is not zeroed, not a pivot and, if diagonal, the root of
    its class, with the off-diagonal ones first."""
    P = cs.side
    classes, _ = union_find(P, cs.equalities)
    return min(
        (
            u
            for u in range(cs.n_unknowns)
            if not cs.zeroed[u // P] >> u % P & 1
            and u not in elim.pivots
            and (u % (P + 1) or classes[u // (P + 1)] == u // (P + 1))
        ),
        key=lambda u: (u % (P + 1) == 0, u),
    )


@settings(**SETTINGS)
@given(st.one_of(overlapping_sets(max_tuples=5), collapsed_sets(max_tuples=4)))
def test_free_column_matches_full_scan_on_ket_sharing_sets(S):
    """Ket-sharing tuples leave per-pair rows, so pivots, some of them on
    diagonal class roots, take columns out of the mask search."""
    for cs, elim, free in free_columns(S):
        assert free == scanned_free_column(cs, elim)


@settings(max_examples=60, deadline=None)
@given(layered_partitions())
def test_free_column_matches_full_scan_when_off_diagonal_is_zeroed(S):
    """On a layered partition every off-diagonal unknown of a cut can be
    zeroed; the free column is then the least free class root."""
    found = free_columns(S)
    full = [
        (cs, elim, free)
        for cs, elim, free in found
        if all(m | 1 << i == (1 << cs.side) - 1 for i, m in enumerate(cs.zeroed))
    ]
    assume(full)
    for cs, elim, free in found:
        assert free == scanned_free_column(cs, elim)
    for cs, elim, free in full:
        assert free % (cs.side + 1) == 0
