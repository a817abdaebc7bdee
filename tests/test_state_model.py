import itertools
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from ghznl import state_model
from ghznl.constructions import c333, c345, c444_weight4, even_d, odd_d
from ghznl.state_model import (
    GhzTuple,
    Ket,
    StateSet,
    StateSetFormatError,
    SystemDims,
    check_genuine_entanglement,
    check_mutual_orthogonality,
    check_plane_containing,
    check_special_set,
    expand_tuple,
    genuine_entanglement_census,
    parse_state_set,
    write_state_set,
)
from test_certifier import one_common_ket_fan
from test_properties import states_orthogonal

D3 = SystemDims(3, 3, 3)


def ghz_pair(k1, k2, label=None):
    return GhzTuple(2, (Ket(*k1), Ket(*k2)), label)


@st.composite
def constructible_sets(draw):
    """Any set the constructors accept, in dims 2-5: 0-6 tuples (a tuple
    may repeat another), each of weight 2 up to the smallest dimension,
    of distinct kets given as Kets, tuples or lists, labelled with any
    string or not at all."""
    dims = SystemDims(*draw(st.lists(st.integers(2, 5), min_size=3, max_size=3)))
    cells = list(itertools.product(*map(range, dims.as_tuple())))
    tuples = []
    for _ in range(draw(st.integers(0, 6))):
        w = draw(st.integers(2, min(dims.as_tuple())))
        kets = draw(
            st.lists(st.sampled_from(cells), min_size=w, max_size=w, unique=True)
        )
        form = draw(st.sampled_from([Ket._make, tuple, list]))
        label = draw(st.none() | st.text(max_size=8))
        tuples.append(GhzTuple(w, [form(k) for k in kets], label))
    return StateSet(dims, tuples)


class TestSystemDims:
    def test_rejects_dimension_below_2(self):
        with pytest.raises(ValueError):
            SystemDims(1, 3, 3)

    def test_rejects_dims_beyond_an_index(self):
        # a cut's kept indices are listed, so da * db must fit an index
        with pytest.raises(ValueError, match="product of two local dimensions"):
            SystemDims(10**20, 10**20, 2)
        with pytest.raises(ValueError, match="product of two local dimensions"):
            SystemDims(2, 2**62, 2)  # 2**63 is one above sys.maxsize
        assert SystemDims(2, 2**62 - 1, 2).d2 == 2**62 - 1

    def test_bounds(self):
        assert D3.contains(Ket(2, 2, 2))
        assert not D3.contains(Ket(3, 0, 0))


class TestGhzTuple:
    def test_weight_ket_count_mismatch(self):
        with pytest.raises(ValueError, match="weight 3"):
            GhzTuple(3, (Ket(0, 0, 0), Ket(1, 1, 1)))

    def test_duplicate_kets_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            GhzTuple(2, (Ket(0, 0, 0), Ket(0, 0, 0)))

    @pytest.mark.parametrize("coord", [0.5, 1.0, "0", True])
    def test_non_integer_coordinates_rejected(self, coord):
        # as in parse_state_set, a bool is not an integer coordinate
        with pytest.raises(ValueError, match="integers"):
            GhzTuple(2, ((coord, 0, 0), (1, 1, 1)))

    @pytest.mark.parametrize("weight", [2.0, True, 1])
    def test_weight_must_be_an_integer_at_least_2(self, weight):
        with pytest.raises(ValueError, match="integer >= 2"):
            GhzTuple(weight, ((0, 0, 0), (1, 1, 1)))

    @pytest.mark.parametrize("ket", [(1, 1), (1, 1, 1, 1), 5])
    def test_ket_must_be_three_values(self, ket):
        with pytest.raises(
            ValueError, match=r"kets\[1\]: expected a list of 3 integers"
        ) as info:
            GhzTuple(2, ((0, 0, 0), ket))
        assert str(ket) in str(info.value)

    @pytest.mark.parametrize("label", [5, 2.5, b"S1", ["S1"]])
    def test_non_string_label_rejected(self, label):
        # write_state_set wrote such a tuple as a document that
        # parse_state_set refused
        with pytest.raises(ValueError) as info:
            GhzTuple(2, ((0, 0, 0), (1, 1, 1)), label=label)
        assert str(info.value) == f"label: expected a string, got {label!r}"

    @pytest.mark.parametrize(
        "weight, kets, label, message",
        [
            (1, ((0, 0, 0),), None, "weight: expected an integer >= 2, got 1"),
            ("2", ((0, 0, 0), (1, 1, 1)), None,
             "weight: expected an integer >= 2, got '2'"),
            (2, 5, None, "kets: expected a list, got 5"),
            (3, ((0, 0, 0), (1, 1, 1)), None, "kets: weight 3 but 2 kets"),
            (3, ((0, 0, 0), (1, 1, 1), (2, 2, False)), None,
             "kets[2]: expected a list of 3 integers, got (2, 2, False)"),
            (3, ((0, 0, 0), (1, 1, 1), (0, 0, 0)), None,
             "kets[2]: ket (0, 0, 0) repeats kets[0]; "
             "the kets of a tuple must be distinct"),
        ],
        ids=["weight-1", "string-weight", "kets-not-iterable", "ket-count",
             "bool-coordinate", "repeated-ket"],
    )
    def test_message_names_the_field(self, weight, kets, label, message):
        with pytest.raises(ValueError) as info:
            GhzTuple(weight, kets, label)
        assert str(info.value) == message

    def test_int_subclass_coordinates_accepted(self):
        class Coord(int):
            pass

        t = GhzTuple(2, ((Coord(0), 0, 0), (1, 1, Coord(1))))
        assert t.kets == (Ket(0, 0, 0), Ket(1, 1, 1))

    def test_coordinately_different(self):
        D4 = SystemDims(4, 4, 4)
        assert StateSet(D4, (ghz_pair((0, 0, 0), (1, 1, 1)),)).spread == (0b111,)
        assert StateSet(D4, (ghz_pair((3, 3, 3), (2, 3, 3)),)).spread == (0b001,)


class TestStateSet:
    @pytest.mark.parametrize(
        "tuples, message",
        [
            ((ghz_pair((0, 0, 0), (1, 1, 1)), ghz_pair((2, 2, 2), (1, 3, 1))),
             "tuples[1].kets[1]: ket (1, 3, 1) out of bounds for dims (3, 3, 3)"),
            ((GhzTuple(4, ((0, 0, 0), (1, 1, 1), (2, 2, 2), (0, 1, 2))),),
             "tuples[0].weight: 4 exceeds the smallest dimension, 3"),
        ],
        ids=["out-of-bounds", "weight-above-min-dimension"],
    )
    def test_message_names_the_field(self, tuples, message):
        with pytest.raises(ValueError) as info:
            StateSet(D3, tuples)
        assert str(info.value) == message


class TestExpandTuple:
    def test_weight_2_signs(self):
        # |000> +/- |222> with coefficients (1, 1) and (1, -1), scale 1/sqrt(2);
        # the exponents are of omega_2 = -1
        plus, minus = expand_tuple(ghz_pair((0, 0, 0), (2, 2, 2)), D3)
        assert plus.exponents == {Ket(0, 0, 0): 0, Ket(2, 2, 2): 0}
        assert minus.exponents[Ket(2, 2, 2)] == 1
        assert plus.order == minus.order == 2

    def test_weight_4_fourier_rows(self):
        t = GhzTuple(4, tuple(Ket(m, m, m) for m in range(4)))
        states = expand_tuple(t, SystemDims(4, 4, 4))
        # exponents k of i**k: rows 1, (1, i, -1, -i), (1, -1, 1, -1), ...
        rows = [
            [s.exponents[Ket(m, m, m)] for m in range(4)] for s in states
        ]
        assert rows[0] == [0, 0, 0, 0]
        assert rows[1] == [0, 1, 2, 3]
        assert rows[2] == [0, 2, 0, 2]
        assert rows[3] == [0, 3, 2, 1]
        assert all(s.order == 4 for s in states)

    def test_out_of_bounds_rejected(self):
        with pytest.raises(ValueError, match="out of bounds"):
            expand_tuple(ghz_pair((0, 0, 0), (3, 1, 1)), D3)


class TestInnerProduct:
    def test_disjoint_supports(self):
        s1 = expand_tuple(ghz_pair((0, 0, 0), (1, 1, 1)), D3)[0]
        s2 = expand_tuple(ghz_pair((2, 2, 2), (1, 0, 1)), D3)[0]
        assert states_orthogonal(s1, s2)

    def test_sign_cancellation(self):
        plus, minus = expand_tuple(ghz_pair((0, 0, 0), (1, 1, 1)), D3)
        assert states_orthogonal(plus, minus)
        assert not states_orthogonal(plus, plus)


class TestShares:
    # two weight-3 tuples through (0, 0, 0) and (1, 1, 1), and a third
    # that meets neither
    A = (Ket(0, 0, 0), Ket(1, 1, 1), Ket(2, 2, 2))
    B = (Ket(1, 1, 1), Ket(2, 0, 1), Ket(0, 0, 0))
    C = (Ket(0, 1, 2), Ket(1, 2, 0), Ket(2, 1, 0))
    S = StateSet(D3, (GhzTuple(3, A), GhzTuple(3, B), GhzTuple(3, C)))

    def test_shares_by_value(self):
        # each tuple shares its own 3 kets with itself
        assert [self.S.shares(t) for t in range(3)] == [
            {0: 3, 1: 2},
            {0: 2, 1: 3},
            {2: 3},
        ]

    def test_sharing_by_value(self):
        assert self.S.sharing() == {0, 1}
        assert StateSet(D3, self.S.tuples[1:]).sharing() == set()


class TestHolders:
    # the set of TestShares: two weight-3 tuples through (0, 0, 0) and
    # (1, 1, 1), and a third that meets neither
    S = TestShares.S

    def test_holders_by_value(self):
        assert dict(self.S.holders) == {
            Ket(0, 0, 0): [0, 1],
            Ket(1, 1, 1): [0, 1],
            Ket(2, 2, 2): [0],
            Ket(2, 0, 1): [1],
            Ket(0, 1, 2): [2],
            Ket(1, 2, 0): [2],
            Ket(2, 1, 0): [2],
        }

    def test_read_only(self):
        with pytest.raises(TypeError):
            self.S.holders[Ket(2, 2, 0)] = [2]


class TestMutualOrthogonality:
    def test_c333_passes(self):
        assert check_mutual_orthogonality(c333()) == []

    def test_c444_passes(self):
        assert check_mutual_orthogonality(c444_weight4()) == []

    def test_duplicate_tuple_reported(self):
        t = ghz_pair((0, 0, 0), (1, 1, 1))
        S = StateSet(D3, (t, ghz_pair((0, 0, 0), (1, 1, 1))))
        assert check_mutual_orthogonality(S) == [(0, 2), (1, 3)]

    def test_one_shared_ket_searches_no_field(self, monkeypatch):
        # the fan's tuples share only (0, 0, 0), so every pair's overlap is
        # one root of unity and all four state pairs of two tuples are
        # listed without the prime field, whose search can take minutes
        def refuse(*args):
            raise AssertionError("prime_field called")

        monkeypatch.setattr(state_model, "prime_field", refuse)
        S = one_common_ket_fan(5)
        assert check_mutual_orthogonality(S) == [
            (2 * t + n, 2 * u + m)
            for t in range(5)
            for n in range(2)
            for u in range(t + 1, 5)
            for m in range(2)
        ]

    def test_invariant_under_tuple_reordering(self):
        S = c345()
        R = StateSet(S.dims, tuple(reversed(S.tuples)))
        assert check_mutual_orthogonality(R) == []

    @pytest.mark.parametrize(
        "kets4",
        [
            ((0, 0, 0), (1, 2, 3), (2, 3, 1), (3, 1, 2)),
            ((0, 0, 0), (1, 1, 1), (2, 3, 3), (3, 2, 2)),
        ],
        ids=["one-shared-ket", "two-shared-kets"],
    )
    def test_weights_3_and_4_match_the_per_pair_reference(self, kets4):
        # the set's field has L = 12; the reference picks L = 12 for the
        # 3-4 pairs and L = 3 for the pairs of the two weight-3 tuples,
        # which share the ket (0, 0, 0)
        D4 = SystemDims(4, 4, 4)
        S = StateSet(
            D4,
            (
                GhzTuple(3, ((0, 0, 0), (1, 1, 1), (2, 2, 2))),
                GhzTuple(4, kets4),
                GhzTuple(3, ((0, 0, 0), (1, 2, 3), (3, 3, 2))),
            ),
        )
        assert S.field[0] == 12
        states = [s for t in S.tuples for s in expand_tuple(t, D4)]
        expected = [
            (a, b)
            for a in range(len(states))
            for b in range(a + 1, len(states))
            if not states_orthogonal(states[a], states[b])
        ]
        assert check_mutual_orthogonality(S) == expected
        assert expected and len(expected) < 3 * 4 + 3 * 3 + 4 * 3


class TestCoordinateSet:
    def test_c333_covers_all_but_center(self):
        expected = {
            (i, j, k)
            for i in range(3)
            for j in range(3)
            for k in range(3)
        } - {(1, 1, 1)}
        assert set(c333().holders) == expected

    def test_empty_set(self):
        assert set(StateSet(D3, ()).holders) == set()

    def test_c345_contains_corner_pair(self):
        coords = set(c345().holders)
        assert (0, 0, 0) in coords and (2, 3, 4) in coords


class TestPlaneContaining:
    def test_c333_witness(self):
        assert check_plane_containing(c333()) == (0, 0, 0)

    def test_single_tuple_has_no_witness(self):
        S = StateSet(D3, (ghz_pair((0, 0, 0), (2, 2, 2)),))
        assert check_plane_containing(S) is None

    def test_even_4_witness(self):
        assert check_plane_containing(even_d(4)) == (0, 0, 0)

    def test_empty_set_not_plane_containing(self):
        assert check_plane_containing(StateSet(D3, ())) is None

    def test_dims_beyond_an_index_without_tuples(self):
        # the largest dims SystemDims takes: each cut fits an index, but the
        # 1.8 * 10**19 cells of the space do not
        dims = SystemDims(3 * 10**9, 3 * 10**9, 2)
        assert check_plane_containing(StateSet(dims, ())) is None

    # the full plane i = 10**6 - 1 of (10**6, 2, 2), as two weight-2 tuples:
    # four kets, far fewer than the 2 * 10**6 cells of the plane k = 0
    LAST = 10**6 - 1
    ONE_PLANE = StateSet(
        SystemDims(10**6, 2, 2),
        (
            GhzTuple(2, ((LAST, 0, 0), (LAST, 1, 1))),
            GhzTuple(2, ((LAST, 0, 1), (LAST, 1, 0))),
        ),
    )

    def test_one_plane_in_large_dims_allocates_little(self):
        S = StateSet(self.ONE_PLANE.dims, self.ONE_PLANE.tuples)  # nothing cached
        tracemalloc.start()
        try:
            assert check_plane_containing(S) is None
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    def test_probes_are_bounded_by_the_kets(self):
        """At most one hit per ket and one miss per coordinate on each axis,
        and no coordinate beyond the number of kets is ever tried.  Every
        probe goes through the mapping's __contains__: the exact counts
        (none on ONE_PLANE, too few kets for a witness) show that the spy
        sees them all."""
        probes = []

        class Counting(dict):
            def __contains__(self, ket):
                probes.append(ket)
                return super().__contains__(ket)

        for S, seen in ((self.ONE_PLANE, 0), (c333(), 27), (even_d(4), 48)):
            S = StateSet(S.dims, S.tuples)
            S.__dict__["holders"] = held = Counting(S.holders)
            probes.clear()
            check_plane_containing(S)
            assert len(probes) == seen
            assert len(probes) <= 6 * len(held)


class TestSpecialSet:
    def test_c333_passes(self):
        assert check_special_set(c333()) == []

    def test_colliding_coordinates_fail(self):
        S = StateSet(
            SystemDims(4, 4, 4), (ghz_pair((3, 3, 3), (2, 3, 3)),)
        )
        assert check_special_set(S) == [0]

    def test_simple_pair_passes(self):
        S = StateSet(D3, (ghz_pair((0, 0, 0), (1, 1, 1)),))
        assert check_special_set(S) == []


class TestGenuineEntanglement:
    def test_ghz_state(self):
        t = ghz_pair((0, 0, 0), (1, 1, 1))
        assert check_genuine_entanglement(t, 0)
        assert check_genuine_entanglement(t, 1)

    def test_product_state(self):
        # (|000> +- |100>)/sqrt(2) = (|0> +- |1>)/sqrt(2) x |0> x |0>
        t = ghz_pair((0, 0, 0), (1, 0, 0))
        assert not check_genuine_entanglement(t, 0)
        assert not check_genuine_entanglement(t, 1)

    def test_factorizes_across_one_cut(self):
        # (|333> + |233>)/sqrt(2) = (|3>+|2>)/sqrt(2) x |33>
        t = ghz_pair((3, 3, 3), (2, 3, 3))
        assert not check_genuine_entanglement(t, 0)

    def test_weight3_ghz_states_are_genuinely_entangled(self):
        t = GhzTuple(3, (Ket(0, 0, 0), Ket(1, 1, 1), Ket(2, 2, 2)))
        assert all(check_genuine_entanglement(t, n) for n in range(3))

    def test_complex_state_factorizes_across_cut_c(self):
        # row 1 of this weight-4 tuple is (|00> - |11>)_AB x (|0> + i|1>)_C / 2:
        # exponent m = 2a + c on ket (a, a, c), as a power of i.  Schmidt
        # rank 2 on cuts A and B, 1 on cut C; rows 0, 2 and 3 factorize
        # across cut C alike
        t = GhzTuple(4, (Ket(0, 0, 0), Ket(0, 0, 1), Ket(1, 1, 0), Ket(1, 1, 1)))
        assert not any(check_genuine_entanglement(t, n) for n in range(4))
        # the same kets in another order keep cut C's rectangle, but the
        # exponents 0, n, 3n, 2n of its cells (k, ij) = (0, 00), (1, 00),
        # (0, 11), (1, 11) are additive only for even n
        t = GhzTuple(4, (Ket(0, 0, 0), Ket(0, 0, 1), Ket(1, 1, 1), Ket(1, 1, 0)))
        assert [check_genuine_entanglement(t, n) for n in range(4)] == [
            False, True, False, True,
        ]

    def test_census_on_c333(self):
        assert genuine_entanglement_census(c333()) == []

    @pytest.mark.parametrize(
        "S, rows, failures",
        [
            (c333(), [], []),
            (odd_d(5), [], []),
            (even_d(4), [(28, 0), (28, 1)], [56, 57]),
        ],
        ids=["c333", "odd5", "even4"],
    )
    def test_census_checks_only_tuples_not_spread(self, monkeypatch, S, rows, failures):
        # a special set is not walked at all; even4 checks the two rows of
        # its one tuple that is not coordinately different, S5 (tuple 28)
        calls = []
        check = state_model.check_genuine_entanglement

        def spy(t, n):
            calls.append((S.tuples.index(t), n))
            return check(t, n)

        monkeypatch.setattr(state_model, "check_genuine_entanglement", spy)
        assert genuine_entanglement_census(S) == failures
        assert calls == rows


class TestDocumentFormat:
    @pytest.mark.parametrize("S", [c333(), c345(), c444_weight4(), even_d(4)])
    def test_round_trip(self, S):
        assert parse_state_set(write_state_set(S)) == S

    @settings(max_examples=200, deadline=None)
    @given(constructible_sets())
    def test_round_trip_of_every_constructible_set(self, S):
        assert parse_state_set(write_state_set(S)) == S

    def test_out_of_bounds_ket_named(self):
        text = '{"dims": [3,3,3], "tuples": [{"weight": 2, "kets": [[0,0,0],[5,0,0]]}]}'
        with pytest.raises(StateSetFormatError, match=r"tuples\[0\].kets\[1\]"):
            parse_state_set(text)

    def test_arity_error(self):
        text = '{"dims": [3,3,3], "tuples": [{"weight": 3, "kets": [[0,0,0],[1,1,1]]}]}'
        with pytest.raises(StateSetFormatError, match="weight 3 but 2 kets"):
            parse_state_set(text)

    def test_not_json(self):
        with pytest.raises(StateSetFormatError, match="JSON"):
            parse_state_set("dims: 3 3 3")

    def test_weight_above_min_dim_rejected(self):
        text = (
            '{"dims": [3,3,3], "tuples": [{"weight": 4, '
            '"kets": [[0,0,0],[1,1,1],[2,2,2],[0,1,2]]}]}'
        )
        with pytest.raises(StateSetFormatError, match="exceeds"):
            parse_state_set(text)

    @pytest.mark.parametrize(
        "text, where",
        [
            ('{"dims": [2,2,true], "tuples": []}', "dims"),
            ('{"dims": [2,2,2], "tuples": [{"weight": true, "kets": [[0,0,0]]}]}',
             r"tuples\[0\]\.weight: expected an integer"),
            ('{"dims": [2,2,2], "tuples": [{"weight": 2, '
             '"kets": [[0,0,0],[1,true,1]]}]}', r"tuples\[0\].kets\[1\]"),
        ],
    )
    def test_booleans_are_not_integers(self, text, where):
        with pytest.raises(StateSetFormatError, match=where):
            parse_state_set(text)

    PAIR = '{"weight": 2, "kets": [[0,0,0],[1,1,1]]}'

    @staticmethod
    def doc(*tuples):
        return '{"dims": [3,3,3], "tuples": [' + ", ".join(tuples) + "]}"

    @pytest.mark.parametrize(
        "tuple_text, message",
        [
            ('{"weight": 2, "kets": [[0,0,0], 5]}',
             "tuples[0].kets[1]: expected a list of 3 integers, got 5"),
            ('{"weight": 2, "kets": [[0,0,0],[1,1]]}',
             "tuples[0].kets[1]: expected a list of 3 integers, got [1, 1]"),
            ('{"weight": 2, "kets": [[0,0,0],[1.0,1,1]]}',
             "tuples[0].kets[1]: expected a list of 3 integers, got [1.0, 1, 1]"),
            ('{"weight": 2, "kets": [[0,0,0],[1,"1",1]]}',
             "tuples[0].kets[1]: expected a list of 3 integers, got [1, '1', 1]"),
            ('{"weight": 2, "kets": [[0,0,0],[1,1,true]]}',
             "tuples[0].kets[1]: expected a list of 3 integers, got [1, 1, True]"),
            ('{"weight": 2, "kets": [[0,0,0],[1,-1,1]]}',
             "tuples[0].kets[1]: ket (1, -1, 1) out of bounds for dims (3, 3, 3)"),
            ('{"weight": 2, "kets": [[0,0,0],[1,1,3]]}',
             "tuples[0].kets[1]: ket (1, 1, 3) out of bounds for dims (3, 3, 3)"),
            ('{"weight": 2, "kets": [[0,0,0],[0,0,0]]}',
             "tuples[0].kets[1]: ket (0, 0, 0) repeats kets[0]; "
             "the kets of a tuple must be distinct"),
            ('{"weight": 1, "kets": [[0,0,0]]}',
             "tuples[0].weight: expected an integer >= 2, got 1"),
            ('{"weight": 4, "kets": [[0,0,0],[1,1,1],[2,2,2],[0,1,2]]}',
             "tuples[0].weight: 4 exceeds the smallest dimension, 3"),
            ('{"weight": 2, "kets": [[0,0,0],[1,1,1]], "label": 7}',
             "tuples[0].label: expected a string, got 7"),
            ("[[0,0,0],[1,1,1]]", "tuples[0]: expected an object"),
        ],
        ids=[
            "ket-not-a-list", "two-element-ket", "float", "string", "true",
            "negative", "coordinate-equal-to-dimension", "repeated-ket",
            "weight-1", "weight-above-min-dimension", "non-string-label",
            "tuple-not-an-object",
        ],
    )
    def test_single_defect_message(self, tuple_text, message):
        with pytest.raises(StateSetFormatError) as info:
            parse_state_set(self.doc(tuple_text, self.PAIR))
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"dims": [3,3,3], "tuples": [}',
             "not valid JSON: Expecting value: line 1 column 30 (char 29)"),
            ("[3, 3, 3]", "top level must be an object"),
            ('{"dims": [3, 3], "tuples": []}', "dims: expected a list of 3 integers"),
            ('{"dims": [3, 1, 3], "tuples": []}',
             "dims: local dimensions must be integers >= 2, got 1"),
            ('{"dims": [3, 3, 3], "tuples": {}}', "tuples: expected a list"),
            ('{"dims": [3, 3, 3], "tuples": [{"weight": "2", '
             '"kets": [[0,0,0],[1,1,1]]}]}',
             "tuples[0].weight: expected an integer >= 2, got '2'"),
            ('{"dims": [3, 3, 3], "tuples": [{"weight": 2, '
             '"kets": "[[0,0,0],[1,1,1]]"}]}', "tuples[0].kets: expected a list"),
            ('{"dims": [3, 3, 3], "tuples": [{"weight": 3, '
             '"kets": [[0,0,0],[1,1,1]]}]}', "tuples[0].kets: weight 3 but 2 kets"),
            ('{"dims": [3, 3, 3], "tuples": [{"weight": 2, "kets": [[0,0,0],[1,1,1]]}, '
             '{"weight": 2, "kets": [[2,2,2],[1,3,1]]}]}',
             "tuples[1].kets[1]: ket (1, 3, 1) out of bounds for dims (3, 3, 3)"),
        ],
        ids=[
            "not-json", "top-level-not-an-object", "two-dims", "dimension-1",
            "tuples-not-a-list", "string-weight", "kets-not-a-list",
            "weight-ket-count-mismatch", "second-tuple-out-of-bounds",
        ],
    )
    def test_document_defect_message(self, text, message):
        """Each document-level branch, and a tuple past the first, is
        reported with its exact message."""
        with pytest.raises(StateSetFormatError) as info:
            parse_state_set(text)
        assert str(info.value) == message

    def test_first_defect_in_document_order_is_reported(self):
        # tuple 1 repeats a ket, tuple 2 has a two-element ket
        text = self.doc(
            self.PAIR,
            '{"weight": 2, "kets": [[0,0,0],[0,0,0]]}',
            '{"weight": 2, "kets": [[2,2,2],[1,1]]}',
        )
        with pytest.raises(StateSetFormatError) as info:
            parse_state_set(text)
        assert str(info.value) == (
            "tuples[1].kets[1]: ket (0, 0, 0) repeats kets[0]; "
            "the kets of a tuple must be distinct"
        )

    @pytest.mark.parametrize(
        "tuples, message",
        [
            # tuple 0 is out of bounds, tuple 1 repeats a ket
            (('{"weight": 2, "kets": [[0,0,0],[0,3,0]]}',
              '{"weight": 2, "kets": [[1,1,1],[1,1,1]]}'),
             "tuples[1].kets[1]: ket (1, 1, 1) repeats kets[0]; "
             "the kets of a tuple must be distinct"),
            # tuple 0 is above the smallest dimension, tuple 1 out of bounds
            (('{"weight": 4, "kets": [[0,0,0],[1,1,1],[2,2,2],[0,1,2]]}',
              '{"weight": 2, "kets": [[0,0,0],[3,1,1]]}'),
             "tuples[1].kets[1]: ket (3, 1, 1) out of bounds for dims (3, 3, 3)"),
        ],
        ids=["per-tuple-before-bounds", "bounds-before-weight"],
    )
    def test_set_level_defects_are_reported_after_per_tuple_ones(
        self, tuples, message
    ):
        with pytest.raises(StateSetFormatError) as info:
            parse_state_set(self.doc(*tuples))
        assert str(info.value) == message
