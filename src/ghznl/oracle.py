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
homogeneous equations), which keeps the exact path inside Gaussian rationals
whenever every tuple weight divides 4.  A pair's row applied to E = I is the
pair's unscaled overlap, so the row's trace also tells whether the pair is
orthogonal at all; no separate orthogonality pass is needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from .arithmetic import DEFAULT_TOL, GR_ONE, Coefficient, SparseEliminator
from .state_model import Partition, StateSet, expand_set

RESOURCE_GUARD_UNKNOWNS = 20_000


class ResourceGuardError(RuntimeError):
    """System exceeds the desk-scale unknown budget and no override was given."""


@dataclass
class ConstraintSystem:
    partition: Partition
    kept_dims: tuple[int, int]
    n_states: int
    rows: list[dict[int, Coefficient]]
    exact: bool
    skipped_pairs: int = 0

    @property
    def side(self) -> int:
        """Dimension P of the joint non-cut space; E is P x P."""
        return self.kept_dims[0] * self.kept_dims[1]

    @property
    def n_unknowns(self) -> int:
        return self.side * self.side


def build_constraints(
    S: StateSet,
    p: Partition,
    exact: Optional[bool] = None,
    guard: int = RESOURCE_GUARD_UNKNOWNS,
    force: bool = False,
    nonorthogonal: str = "reject",
) -> ConstraintSystem:
    """One row per ordered pair of distinct, mutually orthogonal states of S.

    A non-orthogonal pair carries no orthogonality to preserve, so its row is
    dropped; the pair is found from that row's trace (its overlap).  By
    default a set with any such pair is rejected; nonorthogonal='skip'
    proceeds and records how many ordered pairs were skipped (needed for the
    even-d family at d = 4, whose published kets collide and break
    orthogonality).
    """
    if nonorthogonal not in ("reject", "skip"):
        raise ValueError(f"nonorthogonal must be 'reject' or 'skip'")
    if exact is None:
        exact = S.exact_capable()
    da, db = p.kept_dims(S.dims)
    n_unknowns = (da * db) ** 2
    if n_unknowns > guard and not force:
        raise ResourceGuardError(
            f"{n_unknowns} unknowns on cut {p.value} exceeds the guard of "
            f"{guard}; pass force/--force to proceed"
        )
    states = expand_set(S, exact=exact)
    P = da * db
    # per state: cut coordinate -> [(joint kept index, coefficient)]
    by_cut: list[dict[int, list[tuple[int, Coefficient]]]] = []
    axis = p.cut_axis
    ka, kb = p.kept_axes
    for s in states:
        m: dict[int, list[tuple[int, Coefficient]]] = {}
        for ket, c in s.coeffs.items():
            m.setdefault(ket[axis], []).append((ket[ka] * db + ket[kb], c))
        by_cut.append(m)
    rows: list[dict[int, Coefficient]] = []
    violations: list[tuple[int, int]] = []
    skipped = 0
    for a, phi in enumerate(by_cut):
        for b, psi in enumerate(by_cut):
            if a == b:
                continue
            row: dict[int, Coefficient] = {}
            for x, left in phi.items():
                right = psi.get(x)
                if right is None:
                    continue
                for ia, ca in left:
                    cc = ca.conjugate()
                    for ib, cb in right:
                        u = ia * P + ib
                        v = cc * cb
                        prev = row.get(u)
                        row[u] = v if prev is None else prev + v
            if _overlaps(row, P, states[a].scale * states[b].scale, exact):
                skipped += 1
                if a < b:
                    violations.append((a, b))
                continue
            rows.append({u: v for u, v in row.items() if v})
    if violations and nonorthogonal == "reject":
        raise ValueError(
            f"state set is not mutually orthogonal (first violations: "
            f"{violations[:5]})"
        )
    return ConstraintSystem(p, (da, db), len(states), rows, exact, skipped)


def _overlaps(
    row: dict[int, Coefficient], side: int, scale: int, exact: bool
) -> bool:
    """True iff the pair behind row is not orthogonal.

    The row's trace (its coefficients on the diagonal unknowns k*(side+1))
    is the pair's unscaled overlap; scale is the product of the two weights,
    and the float test is the one states_orthogonal applies.
    """
    trace = None
    for u, v in row.items():
        if u % (side + 1) == 0:
            trace = v if trace is None else trace + v
    if trace is None:
        return False
    if exact:
        return bool(trace)
    return abs(trace) / math.sqrt(scale) > DEFAULT_TOL


@dataclass
class NullspaceResult:
    dimension: int
    rank: int
    n_unknowns: int
    contains_identity: bool
    exact: bool
    tolerance: Optional[float]
    warning: bool
    side: int
    basis: Optional[list[dict[int, Coefficient]]] = None
    _eliminator: Optional[SparseEliminator] = field(default=None, repr=False)

    def in_nullspace(self, vec: dict[int, Coefficient]) -> bool:
        if self._eliminator is None:
            raise ValueError("NullspaceResult was built without an eliminator")
        return self._eliminator.residuals_zero(vec)


def identity_vector(side: int, exact: bool) -> dict[int, Coefficient]:
    one: Coefficient = GR_ONE if exact else 1 + 0j
    return {k * side + k: one for k in range(side)}


def dagger_vector(
    vec: dict[int, Coefficient], side: int
) -> dict[int, Coefficient]:
    """Conjugate transpose of a solution matrix given as a sparse vector."""
    out = {}
    for u, v in vec.items():
        r, c = divmod(u, side)
        out[c * side + r] = v.conjugate()
    return out


def nullspace(cs: ConstraintSystem, with_basis: bool = False) -> NullspaceResult:
    """Dimension (and optionally a basis) of the solution space of cs."""
    elim = SparseEliminator(cs.exact)
    for row in cs.rows:
        elim.add_row(row)
    dim = cs.n_unknowns - elim.rank
    ident = identity_vector(cs.side, cs.exact)
    result = NullspaceResult(
        dimension=dim,
        rank=elim.rank,
        n_unknowns=cs.n_unknowns,
        contains_identity=elim.residuals_zero(ident),
        exact=cs.exact,
        tolerance=None if cs.exact else DEFAULT_TOL,
        warning=elim.warning,
        side=cs.side,
        _eliminator=elim,
    )
    if with_basis:
        result.basis = elim.nullspace_basis(cs.n_unknowns)
    return result


@dataclass
class OracleVerdict:
    partition: Partition
    dimension: int
    contains_identity: bool
    trivial_only: bool
    exact: bool
    tolerance: Optional[float]
    warning: bool
    n_unknowns: int
    n_rows: int
    skipped_pairs: int = 0


def oracle_verdict(
    S: StateSet,
    p: Partition,
    exact: Optional[bool] = None,
    guard: int = RESOURCE_GUARD_UNKNOWNS,
    force: bool = False,
    nonorthogonal: str = "reject",
) -> OracleVerdict:
    """trivial-only iff the constraint nullspace is exactly span(identity)."""
    cs = build_constraints(
        S, p, exact=exact, guard=guard, force=force, nonorthogonal=nonorthogonal
    )
    ns = nullspace(cs)
    return OracleVerdict(
        partition=p,
        dimension=ns.dimension,
        contains_identity=ns.contains_identity,
        trivial_only=ns.dimension == 1,
        exact=cs.exact,
        tolerance=ns.tolerance,
        warning=ns.warning,
        n_unknowns=cs.n_unknowns,
        n_rows=len(cs.rows),
        skipped_pairs=cs.skipped_pairs,
    )


def oracle_all(
    S: StateSet,
    exact: Optional[bool] = None,
    guard: int = RESOURCE_GUARD_UNKNOWNS,
    force: bool = False,
    nonorthogonal: str = "reject",
) -> dict[Partition, OracleVerdict]:
    """Strongest-nonlocal overall iff every partition reports trivial-only."""
    return {
        p: oracle_verdict(
            S, p, exact=exact, guard=guard, force=force,
            nonorthogonal=nonorthogonal,
        )
        for p in Partition
    }


def dump_system(cs: ConstraintSystem) -> str:
    """Sparse-triplet text dump: 'row unknown re im' per nonzero coefficient.

    Exact coefficients are printed as rational pairs 'p/q'; float ones as
    decimals.  Unknown index ((y,z),(y',z')) -> (y*db+z)*P + (y'*db+z').
    """
    da, db = cs.kept_dims
    lines = [
        f"# partition={cs.partition.value} kept_dims={da}x{db} "
        f"unknowns={cs.n_unknowns} rows={len(cs.rows)} "
        f"mode={'exact' if cs.exact else 'float'}",
        f"# unknown u = (y*{db}+z)*{cs.side} + (y'*{db}+z')",
    ]
    for r, row in enumerate(cs.rows):
        for u in sorted(row):
            v = row[u]
            if cs.exact:
                lines.append(f"{r} {u} {v.re} {v.im}")
            else:
                c = complex(v)
                lines.append(f"{r} {u} {c.real!r} {c.imag!r}")
    return "\n".join(lines) + "\n"
