import math
from fractions import Fraction

import pytest

from ghznl.arithmetic import GR_ONE, GaussianRational
from ghznl.constructions import c333, c345, c444_weight4, even_d, odd_d
from ghznl.oracle import (
    RESOURCE_GUARD_UNKNOWNS,
    ConstraintSystem,
    NullspaceResult,
    ResourceGuardError,
    SparseEliminator,
    build_constraints,
    dagger_vector,
    dump_system,
    identity_vector,
    nullspace,
    oracle_all,
    oracle_verdict,
)
from ghznl.state_model import GhzTuple, Ket, Partition, StateSet, SystemDims

D2 = SystemDims(2, 2, 2)
D3 = SystemDims(3, 3, 3)

PAIR222 = StateSet(D2, (GhzTuple(2, (Ket(0, 0, 0), Ket(1, 1, 1))),))


class TestBuildConstraints:
    def test_c333_shape(self):
        cs = build_constraints(c333(), Partition.A)
        assert cs.n_unknowns == 81
        assert cs.side == 9
        assert cs.n_states == 26
        assert len(cs.rows) == 26 * 25
        assert cs.exact
        assert cs.skipped_pairs == 0

    def test_c444_coefficients_are_gaussian_units(self):
        cs = build_constraints(c444_weight4(), Partition.B)
        assert cs.n_unknowns == 256
        assert len(cs.rows) == 64 * 63
        units = {
            GaussianRational(1),
            GaussianRational(-1),
            GaussianRational(0, 1),
            GaussianRational(0, -1),
        }
        seen = {v for row in cs.rows for v in row.values()}
        assert seen <= units

    def test_single_pair_rows_touch_diagonal_unknowns(self):
        # no x-index is shared between the two kets, so only the two
        # diagonal unknowns a_{00,00} and a_{11,11} appear, and both ordered
        # rows encode the same equation
        cs = build_constraints(PAIR222, Partition.A)
        assert len(cs.rows) == 2
        diag = {0 * 4 + 0, 3 * 4 + 3}
        for row in cs.rows:
            assert set(row) == diag
        assert cs.rows[0] == cs.rows[1]

    def test_guard_refuses_large_systems(self):
        with pytest.raises(ResourceGuardError, match="28561"):
            build_constraints(odd_d(13), Partition.A)

    def test_guard_passes_odd9(self):
        cs = build_constraints(odd_d(9), Partition.A)
        assert cs.n_unknowns == 6561

    def test_small_guard_and_force(self):
        with pytest.raises(ResourceGuardError):
            build_constraints(c333(), Partition.A, guard=5)
        cs = build_constraints(c333(), Partition.A, guard=5, force=True)
        assert cs.n_unknowns == 81

    def test_nonorthogonal_reject_default(self):
        with pytest.raises(ValueError, match="not mutually orthogonal"):
            build_constraints(even_d(4), Partition.A)

    def test_nonorthogonal_skip_counts_pairs(self):
        cs = build_constraints(even_d(4), Partition.A, nonorthogonal="skip")
        assert cs.skipped_pairs == 16
        assert len(cs.rows) == 58 * 57 - 16

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            build_constraints(c333(), Partition.A, nonorthogonal="drop")

    def test_float_mode(self):
        cs = build_constraints(c333(), Partition.A, exact=False)
        assert not cs.exact
        assert all(
            isinstance(v, complex) for row in cs.rows for v in row.values()
        )


class TestSparseEliminator:
    def test_exact_simple_rank(self):
        e = SparseEliminator(exact=True)
        one = GR_ONE
        e.add_row({0: one, 1: one})
        e.add_row({0: one, 1: -one})
        e.add_row({0: one + one, 1: one + one})  # dependent
        assert e.rank == 2
        assert e.pivots[0] == {0: one}
        assert e.pivots[1] == {1: one}

    def test_float_dependent_rows(self):
        e = SparseEliminator(exact=False)
        e.add_row({0: 1 + 0j, 2: 2 + 0j})
        e.add_row({0: 3 + 0j, 2: 6 + 0j})
        assert e.rank == 1
        assert not e.warning

    def test_nullspace_basis_spans_kernel(self):
        e = SparseEliminator(exact=True)
        e.add_row({0: GR_ONE, 1: GR_ONE, 2: GR_ONE})
        basis = e.nullspace_basis(3)
        assert len(basis) == 2
        for vec in basis:
            assert e.residuals_zero(vec)

    def test_residuals(self):
        e = SparseEliminator(exact=True)
        e.add_row({0: GR_ONE, 1: -GR_ONE})
        assert e.residuals_zero({0: GR_ONE, 1: GR_ONE})
        assert not e.residuals_zero({0: GR_ONE, 1: GR_ONE + GR_ONE})


class TestNullspace:
    def test_empty_system_full_dimension(self):
        cs = ConstraintSystem(Partition.A, (2, 2), 0, [], exact=True)
        ns = nullspace(cs)
        assert ns.dimension == 16
        assert ns.rank == 0
        assert ns.contains_identity

    def test_pair_222_dimension_15(self):
        # the two ordered rows coincide, so rank is 1
        for p in Partition:
            ns = nullspace(build_constraints(PAIR222, p))
            assert ns.dimension == 15
            assert ns.rank == 1
            assert ns.contains_identity

    def test_c333_trivial_only(self):
        ns = nullspace(build_constraints(c333(), Partition.A))
        assert ns.dimension == 1
        assert ns.contains_identity
        assert ns.exact

    def test_basis_of_trivial_solution_is_identity_line(self):
        ns = nullspace(build_constraints(c333(), Partition.B), with_basis=True)
        assert len(ns.basis) == 1
        vec = ns.basis[0]
        diag = {k * 9 + k for k in range(9)}
        assert set(vec) <= diag
        vals = set(vec.values())
        assert len(vals) == 1

    def test_in_nullspace_without_eliminator_raises(self):
        ns = NullspaceResult(
            dimension=16, rank=0, n_unknowns=16, contains_identity=True,
            exact=True, tolerance=None, warning=False, side=4,
        )
        with pytest.raises(ValueError, match="without an eliminator"):
            ns.in_nullspace(identity_vector(4, exact=True))

    def test_closure_under_dagger(self):
        ns = nullspace(build_constraints(PAIR222, Partition.A), with_basis=True)
        for vec in ns.basis:
            assert ns.in_nullspace(dagger_vector(vec, ns.side))

    def test_exact_and_float_agree(self):
        for p in Partition:
            ne = nullspace(build_constraints(c333(), p, exact=True))
            nf = nullspace(build_constraints(c333(), p, exact=False))
            assert ne.dimension == nf.dimension == 1
            assert nf.contains_identity
            assert not nf.warning

    def test_float_handles_weight3_roots(self):
        # weight 3 uses primitive cube roots of unity: float path only
        S = StateSet(
            D3, (GhzTuple(3, (Ket(0, 0, 0), Ket(1, 1, 1), Ket(2, 2, 2))),)
        )
        assert not S.exact_capable()
        cs = build_constraints(S, Partition.A)
        assert not cs.exact
        ns = nullspace(cs)
        assert ns.dimension == 79
        assert ns.contains_identity
        assert not ns.warning
        assert ns.tolerance == pytest.approx(1e-9)


class TestOracleVerdict:
    def test_c333_all_cuts_trivial(self):
        for p, r in oracle_all(c333()).items():
            assert r.partition is p
            assert r.dimension == 1
            assert r.trivial_only
            assert r.contains_identity

    def test_pair_not_trivial(self):
        r = oracle_verdict(PAIR222, Partition.A)
        assert r.dimension == 15
        assert not r.trivial_only
        assert r.n_unknowns == 16
        assert r.n_rows == 2

    def test_even4_skip_mode(self):
        for r in oracle_all(even_d(4), nonorthogonal="skip").values():
            assert r.dimension == 1
            assert r.trivial_only
            assert r.contains_identity
            assert r.skipped_pairs == 16

    def test_c345_kept_dims_differ_by_cut(self):
        results = oracle_all(c345())
        assert {p: r.n_unknowns for p, r in results.items()} == {
            Partition.A: 400,
            Partition.B: 225,
            Partition.C: 144,
        }
        assert all(r.trivial_only for r in results.values())


class TestIdentityAndDagger:
    def test_identity_vector(self):
        vec = identity_vector(3, exact=True)
        assert vec == {0: GR_ONE, 4: GR_ONE, 8: GR_ONE}

    def test_dagger_involution(self):
        vec = {1: GaussianRational(0, 1), 5: GaussianRational(Fraction(1, 2))}
        assert dagger_vector(dagger_vector(vec, 3), 3) == vec

    def test_dagger_transposes(self):
        vec = {1 * 3 + 2: GaussianRational(0, 1)}
        assert dagger_vector(vec, 3) == {2 * 3 + 1: GaussianRational(0, -1)}


class TestDumpSystem:
    def test_header_and_triplets(self):
        cs = build_constraints(PAIR222, Partition.A)
        text = dump_system(cs)
        lines = text.strip().splitlines()
        assert lines[0].startswith("# partition=A kept_dims=2x2 unknowns=16")
        assert "mode=exact" in lines[0]
        data = [l.split() for l in lines if not l.startswith("#")]
        assert len(data) == 4  # 2 rows x 2 nonzeros
        for rec in data:
            assert len(rec) == 4
            row, u = int(rec[0]), int(rec[1])
            assert row in (0, 1) and u in (0, 15)
            Fraction(rec[2]), Fraction(rec[3])  # parse as rationals

    def test_float_dump_parses(self):
        cs = build_constraints(PAIR222, Partition.A, exact=False)
        for line in dump_system(cs).strip().splitlines():
            if line.startswith("#"):
                continue
            parts = line.split()
            float(parts[2]), float(parts[3])


class TestTiming:
    def test_c444_under_budget(self):
        import time

        t0 = time.monotonic()
        for p in Partition:
            assert oracle_verdict(c444_weight4(), p).trivial_only
        assert time.monotonic() - t0 < 60.0
