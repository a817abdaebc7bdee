"""Exact decision procedure for orthogonality-preserving POVMs.

For a bipartition X|YZ the joint YZ measurement element E must satisfy
<phi| I_X (x) E |psi> = 0 for every ordered pair of distinct states.  These
are homogeneous linear equations in the P^2 entries of E (P = product of the
two non-cut dimensions).  The set admits only trivial orthogonality-preserving
POVMs on that cut iff the solution space is exactly the span of the identity,
i.e. has dimension 1: the space is closed under conjugate-transpose, so any
extra dimension yields a Hermitian non-identity solution H, and I +/- eps*H
are then valid nontrivial POVM elements.

Normalization factors 1/sqrt(w) are dropped from the rows (they scale
homogeneous equations), so every coefficient is a sum of L-th roots of unity,
L the lcm of the tuple weights, and the rows are taken mod the prime p of
the set's field S.field (arithmetic.prime_field) with zeta_L -> r; the
orthogonality validator decides its overlaps in that same field.  Rank
mod p never exceeds the true rank, so a dimension of 1 certifies
trivial-only for every weight; a larger dimension is the F_p nullity (see
arithmetic.py).  A pair's row applied to
E = I is the pair's unscaled overlap, a sum of at most min(w_a, w_b) roots
of unity in Z[zeta_lcm(w_a, w_b)]; p exceeds the norm bound of every such
sum, so the row's trace tells exactly whether the pair is orthogonal and no
separate orthogonality pass is needed.

Block reduction.  Let T != U be tuples of weights w, w' that share no ket;
all w*w' of their state pairs are orthogonal (no common ket).  State n of T
is sum_m F_w[n, m] |k_m>, F the Fourier matrix, so the row of the pair
(n, n') is sum_{m, m'} conj(F_w[n, m]) F_w'[n', m'] f_{m, m'}, where
f_{m, m'} is the unit functional E[proj k_m, proj k'_m'] when cut(k_m) =
cut(k'_m') and 0 otherwise.  The block's rows are therefore the image of
the f_{m, m'} under conj(F_w) (x) F_w'.  det(F_w)^2 = +/- w^w, and p > w,
so that map is invertible mod p and the block spans exactly the unit rows
f_{m, m'} over F_p, not only over C.  build_systems emits those unit
rows instead of the block, and every rank, dimension and identity test is
unchanged.  This is a row-space identity, independent of the graph
theorems.  Tuple pairs sharing a ket (where some pairs may be skipped)
keep one row per state pair.

Same-tuple blocks.  Call a tuple spread on the cut when its kets' cut
coordinates are pairwise distinct (bit cut_axis of its S.spread; a
coordinately different tuple, 0b111, is spread on every cut), and let q_m
be the joint kept index of its ket k_m.
For states n != n' of a spread tuple only the m = m' terms survive, so
the pair's row is sum_m omega^(m (n' - n)) E[q_m, q_m]: row k = n' - n != 0
of F_w, mapped by e_m -> E[q_m, q_m].  Each such row sums to 0, and F_w is
invertible mod p (p > w), so over F_p its w - 1 distinct rows span the
whole sum-zero hyperplane, whose image is spanned by the w - 1 difference
rows E[q_0, q_0] - E[q_m, q_m] (the zero row when q_m = q_0, dropped).
build_systems emits those rows straight from the kets; the own pairs
of a tuple that is not spread keep one row per state pair.  A same-tuple
pair is always orthogonal, so none is ever skipped.

Per-pair rows.  Every row left is also read off the kets, and no state
is expanded.  State n of a weight-w tuple is sum_m omega_w^(m n) |k_m>,
so the row of states (t, n), (u, n') has omega_L^(m' n' L/w_u -
m n L/w_t) at E[q_m, q'_m'] for each ket pair (m, m') of t, u at one cut
coordinate.  If t and u share exactly one ket, each such row's trace is
one root of unity, so all w_t * w_u pairs are skipped and no row is built;
each tuple's partners are split, once per build, into these and the ones
that share two or more kets (counted by S.shares) before any meet is
listed.

Presolve.  The system keeps its unit rows as one bit mask per row of E
(bit j of zeroed[i] is the row E[i, j] = 0), its difference rows as
kept-index pairs (i0, i) for E[i0, i0] = E[i, i] (the rows view names
their unknowns i*(P+1)) and the rest as per-pair rows.  An entry (t, i) at
cut coordinate x gets bit j of zeroed[i] for every entry (u, j) at x with
u not a partner of t.  Never j = i: x and i name one ket, so (u, i) at x
would share t's ket.  A tuple without partners that is spread on the cut
has one entry (t, i) at x, so its mask there is met[x], every kept index
met at x, less bit i.  build_systems first checks the unknowns guard on
cuts A, B and C, so a refusal builds nothing.  It then unpacks each ket
(i, j, k) once to fill met on all three cuts (kept index j*d3 + k at i on
A, k*d1 + i at j on B, i*d2 + j at k on C, in Partition.kept_axes order),
and walks the tuples once: each spread tuple appends its equalities, and
each one without partners reads i off the ket and ORs met[x] into
zeroed[i] on every cut where it is spread; the diagonal bits are cleared
once, at the end.  Only the other tuples, if any, get cut cells and a cut
index over the cut coordinates their cells meet (x -> each tuple's mask
at x), per cut, and the roots, once.  nullspace
adds the popcount of the masks to the rank and P less the number of
classes of the equalities (arithmetic.union_find), drops the zeroed
unknowns from the per-pair rows, maps each diagonal unknown to its class
root (summing coefficients mod p) and brings only those rows to echelon
form.  That is the rank of the whole system, as no zeroed unknown is
diagonal: E[q, q] = 0 would need a ket common to two tuples that share
none.  The identity solves the difference rows and every per-pair row (its
value there is the row's trace, and rows with a nonzero trace are
skipped), so contains_identity is exactly "no zeroed[i] has bit i".  The
witness's free column is read off the masks too: with the pivots marked in
a copy of each zeroed[i], the first row i with a clear bit other than i
gives the least free off-diagonal unknown, else the least class root r
with bit r clear gives a diagonal one: O(P + rank), no P^2 scan.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

from .arithmetic import SparseEliminator, union_find
from .state_model import Partition, StateSet

RESOURCE_GUARD_UNKNOWNS = 20_000


class ResourceGuardError(RuntimeError):
    """System exceeds the desk-scale unknown budget and no override was given."""


@dataclass
class ConstraintSystem:
    """One cut's rows: the unit rows as P bit masks (bit j of zeroed[i] is
    E[i, j] = 0; left empty, no unit rows), the diagonal equalities
    E[i0, i0] = E[i, i] as kept-index pairs (i0, i), and the per-pair rows."""

    partition: Partition
    kept_dims: tuple[int, int]
    pair_rows: list[dict[int, int]]
    order: int
    prime: int
    root: int
    skipped_pairs: int = 0
    zeroed: list[int] = field(default_factory=list)
    equalities: list[tuple[int, int]] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.zeroed:
            self.zeroed = [0] * self.side

    @cached_property
    def rows(self) -> list[dict[int, int]]:
        """Every row, built on first read for dumps and tests: the unit rows
        in ascending unknown order, the difference rows, then the per-pair
        rows."""
        P = self.side
        rows: list[dict[int, int]] = []
        for i, m in enumerate(self.zeroed):
            u = i * P - 1  # bit j of m, low = 1 << j, is unknown u + low.bit_length()
            while m:
                low = m & -m
                rows.append({u + low.bit_length(): 1})
                m -= low
        q = P + 1  # E[i, i] is unknown i * q
        rows.extend({i0 * q: 1, i * q: self.prime - 1} for i0, i in self.equalities)
        return rows + self.pair_rows

    @property
    def n_rows(self) -> int:
        return (
            sum(m.bit_count() for m in self.zeroed)
            + len(self.equalities)
            + len(self.pair_rows)
        )

    @property
    def side(self) -> int:
        """Dimension P of the joint non-cut space; E is P x P."""
        return self.kept_dims[0] * self.kept_dims[1]

    @property
    def n_unknowns(self) -> int:
        return self.side * self.side


def build_systems(
    S: StateSet, force: bool = False
) -> dict[Partition, ConstraintSystem]:
    """The orthogonality-preservation rows of S on every cut, block-reduced.

    Distinct tuples T, U that share no ket contribute the unit rows
    E[proj k, proj k'] = 0, one per k in T, k' in U with cut(k) = cut(k'),
    held as one bit mask per row of E; they span the rows of their w_T * w_U
    state pairs (see the module docstring).  Next, each tuple spread on the
    cut (pairwise distinct cut coordinates) contributes the w - 1 diagonal
    difference rows E[q_0, q_0] - E[q_m, q_m], q_m != q_0, which span the
    rows of its own state pairs.  Last, every other ordered pair of distinct
    states (tuples sharing a ket, or two states of a tuple not spread on the
    cut) gets its own row, built from the two tuples' cut cells.  A
    non-orthogonal pair carries no orthogonality to preserve, so its row is
    dropped and counted in skipped_pairs; the pair is found from that row's
    trace (its overlap), or, for two tuples that share exactly one ket,
    without a row.  The even-d family at d = 4 has such pairs: its
    published kets collide and break orthogonality.

    Unless force is set, the first of cuts A, B, C with more than
    RESOURCE_GUARD_UNKNOWNS unknowns is refused before any list is built.
    All three cuts then come from one walk over the kets and one over the
    tuples (see Presolve), reading S.sharing once and S.shares at most
    once per tuple.
    """
    for p in Partition:
        da, db = p.kept_dims(S.dims)
        n_unknowns = (da * db) ** 2
        if n_unknowns > RESOURCE_GUARD_UNKNOWNS and not force:
            raise ResourceGuardError(
                f"{n_unknowns} unknowns on cut {p.value} exceeds the guard of "
                f"{RESOURCE_GUARD_UNKNOWNS}; pass force/--force to proceed"
            )
    dims = S.dims.as_tuple()
    d1, d2, d3 = dims
    order, prime, root = S.field
    tuples, spread, sharing = S.tuples, S.spread, S.sharing()
    # the mask of kept indices met at each (bounds-checked) cut coordinate:
    # j*d3 + k at i on A, k*d1 + i at j on B, i*d2 + j at k on C
    ma, mb, mc = [0] * d1, [0] * d2, [0] * d3
    for tup in tuples:
        for i, j, k in tup.kets:
            ma[i] |= 1 << j * d3 + k
            mb[j] |= 1 << k * d1 + i
            mc[k] |= 1 << i * d2 + j
    # a spread tuple gives its equalities, and one without partners ORs
    # met[x] into its masks, bit i cleared below (see Presolve)
    za, zb, zc = [0] * (d2 * d3), [0] * (d3 * d1), [0] * (d1 * d2)
    ea, eb, ec = [], [], []
    cuts = [  # (axis, ka, kb, db, met, zeroed, equalities, others)
        (p.cut_axis, *p.kept_axes, dims[p.kept_axes[1]], *lists, [])
        for p, *lists in zip(Partition, (ma, mb, mc), (za, zb, zc), (ea, eb, ec))
    ]
    for t, tup in enumerate(tuples):
        kets = tup.kets
        if spread[t] == 0b111 and t not in sharing:
            # spread on every cut, with kept indices distinct from the first
            i, j, k = kets[0]
            a0, b0, c0 = j * d3 + k, k * d1 + i, i * d2 + j
            za[a0] |= ma[i]
            zb[b0] |= mb[j]
            zc[c0] |= mc[k]
            for i, j, k in kets[1:]:
                a, b, c = j * d3 + k, k * d1 + i, i * d2 + j
                za[a] |= ma[i]
                zb[b] |= mb[j]
                zc[c] |= mc[k]
                ea.append((a0, a))
                eb.append((b0, b))
                ec.append((c0, c))
            continue
        lone = t not in sharing
        for axis, ka, kb, db, met, zeroed, eq, others in cuts:
            on = spread[t] >> axis & 1
            if on:
                i0 = kets[0][ka] * db + kets[0][kb]
                for k in kets:
                    i = k[ka] * db + k[kb]
                    if i != i0:
                        eq.append((i0, i))
                    if lone:
                        zeroed[i] |= met[k[axis]]
            if not (on and lone):
                others.append((t, on))
    roots = [pow(root, e, prime) for e in range(order)]
    split: dict[int, tuple[Counter[int], list[int], int]] = {}
    systems = {}
    for p, (*_, zeroed, eq, others) in zip(Partition, cuts):
        rows, skipped = _other_rows(S, p, others, split, roots, zeroed)
        systems[p] = ConstraintSystem(
            p, p.kept_dims(S.dims), rows, order, prime, root, skipped,
            [m & ~(1 << i) for i, m in enumerate(zeroed)], eq,
        )
    return systems


def _other_rows(S, p, others, split, roots, zeroed):
    """Cut p's rows of the others, the (tuple, spread) pairs not lone on p:
    their unit rows are ORed into zeroed, and their per-pair rows and skip
    count are returned (see Presolve and Per-pair rows).  split caches,
    across the cuts, each tuple's S.shares, its partners that need rows
    and the count of its one-shared-ket pairs."""
    if not others:
        return [], 0
    order, prime, _ = S.field
    tuples = S.tuples
    axis, (ka, kb) = p.cut_axis, p.kept_axes
    db, P = S.dims.as_tuple()[kb], len(zeroed)
    # the others' cells in ket order (a partner of one of the others is one
    # of them too), and the cut index of the cut coordinates they meet:
    # x -> {tuple: mask of its kept indices at x}
    cells = {t: [(k[axis], k[ka] * db + k[kb]) for k in tuples[t].kets]
             for t, _ in others}
    index: dict[int, dict[int, int]] = {x: {} for c in cells.values() for x, _ in c}
    for t, tup in enumerate(tuples):
        for k in tup.kets:
            if (at := index.get(k[axis])) is not None:
                at[t] = at.get(t, 0) | 1 << k[ka] * db + k[kb]
    rows: list[dict[int, int]] = []
    skipped = 0
    for t, spread in others:
        tup = tuples[t]
        if t not in split:
            # t's partners sharing two or more kets need rows (t among them:
            # it shares its own w >= 2 kets); the w * w' pairs of each one
            # sharing one ket have a root of unity as overlap, all skipped
            ts = S.shares(t)
            need = sorted(u for u, count in ts.items() if count > 1)
            one = sum(tuples[u].weight for u, count in ts.items() if count == 1)
            split[t] = ts, need, tup.weight * one
        ts, need, skip = split[t]
        # the unit rows E[i, j] = 0 for (t, i), (u, j) at one cut
        # coordinate, u not a partner of t
        for x, i in cells[t]:
            at = index[x]
            for u in at.keys() - ts:
                zeroed[i] |= at[u]
        # per-pair rows of t's partners and, if t is not spread, its own:
        # meets lists (E[q_m, q'_m'], m L/w_t, m' L/w_u)
        skipped += skip
        st = order // tup.weight
        blocks = [
            (u, [
                (i * P + j, m * st, mu * (order // tuples[u].weight))
                for m, (x, i) in enumerate(cells[t])
                for mu, (y, j) in enumerate(cells[u])
                if x == y
            ])
            for u in need
            if u != t or not spread
        ]
        for n in range(tup.weight):
            for u, meets in blocks:
                for nu in range(tuples[u].weight):
                    if u == t and nu == n:
                        continue
                    row: dict[int, int] = {}
                    for k, a, b in meets:
                        row[k] = row.get(k, 0) + roots[(b * nu - a * n) % order]
                    # the trace, on the diagonal unknowns k*(P+1), is the overlap
                    if sum(v for k, v in row.items() if k % (P + 1) == 0) % prime:
                        skipped += 1
                        continue
                    rows.append({k: r for k, v in row.items() if (r := v % prime)})
    return rows, skipped


def build_constraints(
    S: StateSet, p: Partition, force: bool = False
) -> ConstraintSystem:
    """Cut p's system, build_systems(S, force)[p]: all three cuts are
    guarded and built, so any cut of S above the guard refuses p too."""
    return build_systems(S, force)[p]


@dataclass
class NullspaceResult:
    """The solution space of one cut's constraint system mod p."""

    partition: Partition
    dimension: int
    rank: int
    n_unknowns: int
    n_rows: int
    skipped_pairs: int
    contains_identity: bool
    prime: int
    side: int
    # None if dimension == 1, else one solution that is not a multiple of I
    witness: Optional[dict[int, int]]

    @property
    def trivial_only(self) -> bool:
        """The solution space is exactly span(identity)."""
        return self.dimension == 1


def nullspace(cs: ConstraintSystem) -> NullspaceResult:
    """Dimension, rank, identity test and witness of cs's solution space mod
    p; only the per-pair rows are eliminated (see Presolve above)."""
    zeroed, prime, P = cs.zeroed, cs.prime, cs.side
    # diagonal classes: E[i, i] -> E[r, r], r the least index of i's class
    classes, count = union_find(P, cs.equalities)
    elim = SparseEliminator(prime)
    if cs.pair_rows:
        root = {i * (P + 1): r * (P + 1) for i, r in enumerate(classes) if r != i}
        for row in cs.pair_rows:
            reduced: dict[int, int] = {}
            for u, v in row.items():
                if not zeroed[u // P] >> u % P & 1:
                    u = root.get(u, u)
                    reduced[u] = (reduced.get(u, 0) + v) % prime
            if reduced := {u: v for u, v in reduced.items() if v}:
                elim.add_row(reduced)
    # every unit row is independent; the equalities have rank P - count
    n_rows = cs.n_rows
    rank = n_rows - len(cs.equalities) + P - count - len(cs.pair_rows) + elim.rank
    dimension = cs.n_unknowns - rank
    witness = None
    if dimension > 1:
        # one free column at 1, off-diagonal if any, so that the solution
        # is not a multiple of I; taken[i] marks row i's zeroed and pivots
        taken = list(zeroed)
        for u in elim.pivots:
            taken[u // P] |= 1 << u % P
        free = next(itertools.chain(
            (i * P + (c & -c).bit_length() - 1 for i, m in enumerate(taken)
             if (c := ~(m | 1 << i) & (1 << P) - 1)),
            (r * (P + 1) for r in range(P) if classes[r] == r and not taken[r] >> r & 1),
        ))
        # vec holds off-diagonal unknowns and class roots only; each
        # diagonal unknown takes its root's value
        vec = elim.solution(free)
        witness = {u: v for u, v in vec.items() if u % (P + 1)}
        witness.update(
            (i * (P + 1), v) for i, r in enumerate(classes)
            if (v := vec.get(r * (P + 1)))
        )
    return NullspaceResult(
        partition=cs.partition,
        dimension=dimension,
        rank=rank,
        n_unknowns=cs.n_unknowns,
        n_rows=n_rows,
        skipped_pairs=cs.skipped_pairs,
        contains_identity=not any(m >> i & 1 for i, m in enumerate(zeroed)),
        prime=prime,
        side=cs.side,
        witness=witness,
    )


def oracle_all(S: StateSet, force: bool = False) -> dict[Partition, NullspaceResult]:
    """Strongest-nonlocal overall iff every partition reports trivial-only;
    the three systems come from one build_systems call."""
    return {p: nullspace(cs) for p, cs in build_systems(S, force).items()}


def dump_system(cs: ConstraintSystem) -> str:
    """Sparse-triplet text dump: 'row unknown value' per nonzero coefficient.

    Values are residues in [0, p); the header names p, the root order L and
    the root r that stands for exp(2 pi i/L).  Unknown index
    ((y,z),(y',z')) -> (y*db+z)*P + (y'*db+z').
    """
    da, db = cs.kept_dims
    lines = [
        f"# partition={cs.partition.value} kept_dims={da}x{db} "
        f"unknowns={cs.n_unknowns} rows={cs.n_rows} mode=modular "
        f"prime={cs.prime} root={cs.root} order={cs.order}",
        f"# unknown u = (y*{db}+z)*{cs.side} + (y'*{db}+z')",
    ]
    for r, row in enumerate(cs.rows):
        lines.extend(f"{r} {u} {row[u]}" for u in sorted(row))
    return "\n".join(lines) + "\n"
