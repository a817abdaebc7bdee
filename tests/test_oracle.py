import hashlib

import pytest

from ghznl.constructions import c333, c345, c444_weight4, even_d, odd_d
from ghznl.oracle import (
    RESOURCE_GUARD_UNKNOWNS,
    ConstraintSystem,
    ResourceGuardError,
    SparseEliminator,
    build_constraints,
    dump_system,
    nullspace,
    oracle_all,
)
from ghznl.state_model import GhzTuple, Ket, Partition, StateSet, SystemDims
from test_constructions import without_labels

D2 = SystemDims(2, 2, 2)
D3 = SystemDims(3, 3, 3)

PAIR222 = StateSet(D2, (GhzTuple(2, (Ket(0, 0, 0), Ket(1, 1, 1))),))
OFF_DIAGONAL_9 = {u for u in range(81) if u % 10}


def identity(side):
    """E = I over the unknowns u = i * side + j: 1 on each u = k * (side + 1)."""
    return {k * side + k: 1 for k in range(side)}


def unit_rows(cs):
    """The leading rows E[u] = 0 of a block-reduced system."""
    n = 0
    while n < len(cs.rows) and list(cs.rows[n].values()) == [1]:
        n += 1
    return cs.rows[:n]


class TestBuildConstraints:
    def test_c333_shape(self):
        cs = build_constraints(c333(), Partition.A)
        assert cs.n_unknowns == 81
        assert cs.side == 9
        # every off-diagonal unknown is zeroed by a unit row (the 13 tuples
        # share no ket), followed by one diagonal difference row per tuple
        assert len(unit_rows(cs)) == 72
        assert cs.rows[:72] == [{u: 1} for u in sorted(OFF_DIAGONAL_9)]
        assert len(cs.rows) == 72 + 13
        for row in cs.rows[72:]:
            assert len(row) == 2 and not set(row) & OFF_DIAGONAL_9
            assert sorted(row.values()) == [1, cs.prime - 1]
        assert cs.order == 2
        assert cs.prime >= 2**61 and (cs.prime - 1) % cs.order == 0
        assert cs.skipped_pairs == 0

    def test_c444_coefficients_are_gaussian_units(self):
        cs = build_constraints(c444_weight4(), Partition.B)
        assert cs.n_unknowns == 256
        # 240 off-diagonal unit rows, then 16 tuples x 3 difference rows
        assert len(unit_rows(cs)) == 240
        assert len(cs.rows) == 240 + 48
        # the images of 1, i, -1, -i under i -> root
        assert cs.order == 4
        units = {pow(cs.root, k, cs.prime) for k in range(4)}
        assert len(units) == 4
        seen = {v for row in cs.rows for v in row.values()}
        assert seen <= units

    def test_single_pair_rows_touch_diagonal_unknowns(self):
        # no x-index is shared between the two kets, so both ordered pair
        # rows are multiples of one equation on the two diagonal unknowns
        # a_{00,00} and a_{11,11}, emitted once as their difference
        cs = build_constraints(PAIR222, Partition.A)
        assert cs.rows == [{0 * 4 + 0: 1, 3 * 4 + 3: cs.prime - 1}]

    def test_unit_rows_exclude_only_partners_of_the_row_tuple(self):
        # T shares (1,1,1) with U and U shares (2,2,2) with V, but V is not
        # a partner of T.  At x = 2 on cut A, T holds kept index 0 and U and
        # V both hold 8, so E[0, 8] and E[8, 0] are zeroed through the T-V
        # incidence alone, although a partner of T also holds index 8 there
        S = StateSet(
            D3,
            (
                GhzTuple(2, (Ket(1, 1, 1), Ket(2, 0, 0))),
                GhzTuple(2, (Ket(1, 1, 1), Ket(2, 2, 2))),
                GhzTuple(2, (Ket(2, 2, 2), Ket(0, 1, 0))),
            ),
        )
        cs = build_constraints(S, Partition.A)
        assert unit_rows(cs) == [{8: 1}, {72: 1}]
        assert cs.n_rows == len(cs.rows)

    def test_weight4_ket_sharing_rows_carry_i_and_minus_i(self):
        # the tuples share two kets, so their cross pairs keep per-pair
        # rows, whose coefficients are single powers of i
        shared = (Ket(0, 0, 0), Ket(1, 1, 1))
        S = StateSet(
            SystemDims(4, 4, 4),
            (
                GhzTuple(4, (*shared, Ket(2, 2, 2), Ket(3, 3, 3))),
                GhzTuple(4, (*shared, Ket(3, 2, 3), Ket(2, 3, 2))),
            ),
        )
        cs = build_constraints(S, Partition.A)
        assert cs.order == 4
        units = [pow(cs.root, k, cs.prime) for k in range(4)]
        seen = {v for row in cs.rows for v in row.values()}
        assert seen <= set(units)
        assert {units[1], units[3]} <= seen

    def test_guard_refuses_large_systems(self):
        with pytest.raises(ResourceGuardError, match="28561"):
            build_constraints(odd_d(13), Partition.A)

    def test_guard_passes_odd9(self):
        cs = build_constraints(odd_d(9), Partition.A)
        assert cs.n_unknowns == 6561

    def test_small_guard_and_force(self, monkeypatch):
        monkeypatch.setattr("ghznl.oracle.RESOURCE_GUARD_UNKNOWNS", 5)
        with pytest.raises(ResourceGuardError):
            build_constraints(c333(), Partition.A)
        cs = build_constraints(c333(), Partition.A, force=True)
        assert cs.n_unknowns == 81

    def test_nonorthogonal_skip_counts_pairs(self):
        cs = build_constraints(even_d(4), Partition.A)
        assert cs.skipped_pairs == 16
        # 240 unit rows; one difference row for each of the 29 tuples but
        # (3,3,3),(2,3,3), whose kets project to one kept index on cut A;
        # the 16 cross pairs of the ket-sharing tuples are all skipped
        assert len(unit_rows(cs)) == 240
        assert len(cs.rows) == 240 + 28


P7 = 7


class TestSparseEliminator:
    def test_exact_simple_rank(self):
        e = SparseEliminator(P7)
        e.add_row({0: 1, 1: 1})
        e.add_row({0: 1, 1: P7 - 1})
        e.add_row({0: 2, 1: 2})  # dependent
        assert e.rank == 2
        assert set(e.pivots) == {0, 1}

    def test_scaled_row_is_dependent(self):
        e = SparseEliminator(P7)
        e.add_row({0: 1, 2: 2})
        e.add_row({0: 3, 2: 6})
        assert e.rank == 1
        assert e.pivots[0] == {0: 1, 2: 2}


class TestNullspace:
    def test_empty_system_full_dimension(self):
        cs = ConstraintSystem(Partition.A, (2, 2), [], 1, P7, 1)
        ns = nullspace(cs)
        assert ns.dimension == 16
        assert ns.rank == 0
        assert ns.contains_identity

    def test_unit_row_masks_set_rank_and_identity(self):
        # bit j of zeroed[i] is the unit row E[i, j] = 0; on the 4 x 4
        # unknowns, E[0, 1] is off the diagonal and E[1, 1] is on it
        def system(zeroed):
            return ConstraintSystem(Partition.A, (2, 2), [], 1, P7, 1, zeroed=zeroed)

        off, on = system([0b10, 0, 0, 0]), system([0, 0b10, 0, 0])
        assert off.rows == [{1: 1}] and on.rows == [{5: 1}]
        for cs, u in ((off, 1), (on, 5)):
            ns = nullspace(cs)
            assert (ns.rank, ns.dimension, ns.n_rows) == (1, 15, 1)
            assert u not in ns.witness
        assert nullspace(off).contains_identity
        assert not nullspace(on).contains_identity

    def test_witness_free_column_is_least_free_class_root(self):
        # every off-diagonal unknown of the 4 x 4 system is zeroed, E[0, 0] =
        # E[1, 1] joins class 0, and the pair row E[0, 0] = E[2, 2] makes
        # root 0 a pivot: the free column is E[2, 2], not E[1, 1]
        cs = ConstraintSystem(
            Partition.A, (2, 2), [{0: 1, 10: P7 - 1}], 1, P7, 1,
            zeroed=[0b1111 & ~(1 << i) for i in range(4)], equalities=[(0, 1)],
        )
        ns = nullspace(cs)
        assert (ns.rank, ns.dimension) == (14, 2)
        assert ns.witness == {0: 1, 5: 1, 10: 1}

    def test_pair_222_dimension_15(self):
        # one diagonal difference row, so rank is 1
        for p in Partition:
            ns = nullspace(build_constraints(PAIR222, p))
            assert ns.dimension == 15
            assert ns.rank == 1
            assert ns.contains_identity

    def test_c333_trivial_only(self):
        ns = nullspace(build_constraints(c333(), Partition.A))
        assert ns.dimension == 1
        assert ns.contains_identity
        assert ns.prime >= 2**61

    def test_c333_cut_b_has_no_witness(self):
        ns = nullspace(build_constraints(c333(), Partition.B))
        assert ns.dimension == 1
        assert ns.witness is None

    def test_pair_222_witness_solves_every_row(self):
        for p in Partition:
            cs = build_constraints(PAIR222, p)
            ns = nullspace(cs)
            vec = ns.witness
            assert vec
            for row in cs.rows:
                assert sum(v * vec.get(u, 0) for u, v in row.items()) % cs.prime == 0
            # not a multiple of I: off the diagonal, or unequal on it
            diag = [vec.get(u, 0) for u in identity(ns.side)]
            assert set(vec) - set(identity(ns.side)) or len(set(diag)) > 1

    def test_ablated_even4_witness_is_a_diagonal_component(self):
        # without its diagonal pairs S4/S5 the even family's diagonal splits
        # into two classes; the witness is the indicator of one of them
        S = without_labels(even_d(4), ["S4", "S5"])
        for p in Partition:
            cs = build_constraints(S, p)
            vec = nullspace(cs).witness
            assert set(vec) < set(identity(cs.side))
            assert len(vec) == cs.side // 2 and set(vec.values()) == {1}
            for row in cs.rows:
                assert sum(v * vec.get(u, 0) for u, v in row.items()) % cs.prime == 0

    def test_closure_under_dagger(self):
        # weight-2 rows are real (omega_2 = -1), so the conjugate transpose
        # of a solution is its transpose
        cs = build_constraints(PAIR222, Partition.A)
        vec = nullspace(cs).witness
        transpose = {
            c * cs.side + r: v for u, v in vec.items() for r, c in [divmod(u, cs.side)]
        }
        assert transpose != vec
        for row in cs.rows:
            residual = sum(v * transpose.get(u, 0) for u, v in row.items())
            assert residual % cs.prime == 0

    def test_field_has_cube_roots_for_weight3(self):
        # weight 3 uses primitive cube roots of unity, which exist mod p
        S = StateSet(
            D3, (GhzTuple(3, (Ket(0, 0, 0), Ket(1, 1, 1), Ket(2, 2, 2))),)
        )
        cs = build_constraints(S, Partition.A)
        assert cs.order == 3 and (cs.prime - 1) % 3 == 0
        ns = nullspace(cs)
        assert ns.dimension == 79
        assert ns.contains_identity


class TestOracleVerdict:
    def test_c333_all_cuts_trivial(self):
        for p, r in oracle_all(c333()).items():
            assert r.partition is p
            assert r.dimension == 1
            assert r.trivial_only
            assert r.contains_identity

    def test_pair_not_trivial(self):
        r = nullspace(build_constraints(PAIR222, Partition.A))
        assert r.dimension == 15
        assert not r.trivial_only
        assert r.n_unknowns == 16
        assert r.n_rows == 1

    def test_even4_skip_mode(self):
        for r in oracle_all(even_d(4)).values():
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


class TestHotPath:
    def test_nullspace_never_builds_the_row_list(self, monkeypatch):
        def refuse(cs):
            raise AssertionError("ConstraintSystem.rows read on the hot path")

        monkeypatch.setattr(ConstraintSystem, "rows", property(refuse))
        for S, dimension in ((c333(), 1), (PAIR222, 15)):
            for p in Partition:
                assert nullspace(build_constraints(S, p)).dimension == dimension
        # even4 skips pairs on every cut and keeps per-pair rows on B and C
        for p in Partition:
            cs = build_constraints(even_d(4), p)
            assert cs.skipped_pairs == 16
            assert len(cs.pair_rows) == (0 if p is Partition.A else 2)
            assert nullspace(cs).dimension == 1


class TestIdentityAndDagger:
    def test_identity_vector(self):
        assert identity(3) == {0: 1, 4: 1, 8: 1}
        # E = I solves every row of every cut, as contains_identity says
        for p in Partition:
            cs = build_constraints(c333(), p)
            eye = identity(cs.side)
            assert nullspace(cs).contains_identity
            for row in cs.rows:
                assert sum(v * eye.get(u, 0) for u, v in row.items()) % cs.prime == 0


class TestDumpSystem:
    # sha256 of dump_system on each cut of the paper's families; a change
    # that reorders or alters any row of a system changes its digest
    DIGESTS = {
        ("c333", "A"): "04d022191128e83b336037f496616cac33cf5337c69a15441c448f818f7a670e",
        ("c333", "B"): "03b7db9a0550f68bfe7932735b9c5a5ab307c8b6ad2636633d9fd9e2412c8692",
        ("c333", "C"): "a3279769d8a2a6d84a46ca433d2aff35a0e09c36c5fd27185e267065f0fcdf36",
        ("c345", "A"): "e7641972170c8fbb0808b0a2b8e011789e7f7ace0180c8e1f55af1eea5243c6d",
        ("c345", "B"): "457e8b12ddfa9726aae7f393ea608e6851844f8ebf840c2b49d4e5363651d8e4",
        ("c345", "C"): "cd947db0ec8b7e92c321817123b86e1790cf45ed7352a254109d102a13b8d175",
        ("even4", "A"): "985009ce2c850f69dae5edab58b27e8277099ca56e8a32e41c6887600e24ee25",
        ("even4", "B"): "bda55ae15b5628051db54edfd6dc6ddf67b32d753b16c5e55d523df2aa3df19f",
        ("even4", "C"): "9d1b4ee0b597f1924a0ebaf7b2a52a48a0c51cc15a50862b0532a12ebee8b66b",
        ("c444w4", "A"): "31f2bea4f61a82a690513d944d38f593d6d4742930602e2a176561ffa23d4fad",
        ("c444w4", "B"): "2e50e675c04a8ea1c22a08783063ca43cfd54e5087999a38a34da4157fcec4c1",
        ("c444w4", "C"): "45946a68f4fc3d1188078cdad2e19ce006c4fd0d3ab43dcd96fc116b1ba9fe15",
        ("odd5", "A"): "036a62f65cb1935a0152c80ea28db16d7f9f24c6349bf79e50c0f05357d73326",
        ("odd5", "B"): "ac48d0a3431bf80a85eb7639f851af55c1a3b4abbc362febdbf7ed847040c709",
        ("odd5", "C"): "30441c3a9631a404dc2ecb0adc9817f1147690d9997e7f540dd1c408e5ed8b5c",
    }
    FAMILIES = {
        "c333": c333, "c345": c345, "c444w4": c444_weight4,
        "even4": lambda: even_d(4), "odd5": lambda: odd_d(5),
    }

    @pytest.mark.parametrize("name, cut", sorted(DIGESTS))
    def test_dump_digest_is_pinned(self, name, cut):
        S = self.FAMILIES[name]()
        text = dump_system(build_constraints(S, Partition(cut)))
        assert hashlib.sha256(text.encode()).hexdigest() == self.DIGESTS[name, cut]

    def test_header_and_triplets(self):
        cs = build_constraints(PAIR222, Partition.A)
        text = dump_system(cs)
        lines = text.strip().splitlines()
        assert lines[0].startswith("# partition=A kept_dims=2x2 unknowns=16")
        header = dict(f.split("=") for f in lines[0][2:].split())
        assert header["mode"] == "modular"
        assert int(header["prime"]) == cs.prime
        assert int(header["root"]) == cs.root
        assert int(header["order"]) == 2
        data = [l.split() for l in lines if not l.startswith("#")]
        assert len(data) == 2  # 1 row x 2 nonzeros
        for rec in data:
            assert len(rec) == 3
            row, u, value = map(int, rec)
            assert row == 0 and u in (0, 15)
            assert 0 < value < cs.prime


class TestTiming:
    def test_c444_under_budget(self):
        import time

        t0 = time.monotonic()
        for p in Partition:
            assert nullspace(build_constraints(c444_weight4(), p)).trivial_only
        assert time.monotonic() - t0 < 60.0
