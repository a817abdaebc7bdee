import hashlib

import pytest

from ghznl.constructions import build, c333, c345, c444_weight4, even_d, odd_d
from ghznl.state_model import (
    Ket,
    StateSet,
    check_mutual_orthogonality,
    check_plane_containing,
    check_special_set,
    write_state_set,
)


def kets_of(S):
    return {frozenset(tuple(k) for k in t.kets) for t in S.tuples}


def without_labels(S, prefixes):
    """S without every tuple whose label starts with one of the prefixes."""
    kept = tuple(
        t
        for t in S.tuples
        if t.label is None or not any(t.label.startswith(p) for p in prefixes)
    )
    return StateSet(S.dims, kept)


class TestC333:
    def test_size(self):
        assert c333().n_states == 26
        assert len(c333().tuples) == 13

    def test_contains_s1_corner_tuple(self):
        assert frozenset({(0, 0, 1), (2, 1, 0)}) in kets_of(c333())

    def test_validators_pass(self):
        S = c333()
        assert check_special_set(S) == []
        assert check_mutual_orthogonality(S) == []


class TestC345:
    def test_size(self):
        S = c345()
        assert S.n_states == 54
        assert len(S.tuples) == 12 + 8 + 6 + 1

    def test_contains_corner_tuple(self):
        assert frozenset({(0, 0, 0), (2, 3, 4)}) in kets_of(c345())

    def test_validators_pass(self):
        S = c345()
        assert check_special_set(S) == []
        assert check_mutual_orthogonality(S) == []
        assert check_plane_containing(S) == (0, 0, 0)


class TestOddFamily:
    def test_size_at_3_matches_c333(self):
        assert odd_d(3) == c333()

    @pytest.mark.parametrize("d", [3, 5, 7, 9, 11])
    def test_size_formula(self, d):
        assert odd_d(d).n_states == d**3 - (d - 2) ** 3

    @pytest.mark.parametrize("d", [2, 4, 10])
    def test_even_input_rejected(self, d):
        with pytest.raises(ValueError, match="odd"):
            odd_d(d)

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            odd_d(1)

    @pytest.mark.parametrize("d", [5, 7])
    def test_validators_pass(self, d):
        S = odd_d(d)
        assert check_special_set(S) == []
        assert check_mutual_orthogonality(S) == []
        assert check_plane_containing(S) == (0, 0, 0)


class TestEvenFamily:
    @pytest.mark.parametrize("d, n", [(4, 58), (6, 154), (8, 298), (10, 490)])
    def test_size_formula(self, d, n):
        S = even_d(d)
        assert S.n_states == d**3 - (d - 2) ** 3 + 2 == n

    @pytest.mark.parametrize("d", [3, 5])
    def test_odd_input_rejected(self, d):
        with pytest.raises(ValueError, match="even"):
            even_d(d)

    def test_d4_special_set_fails_exactly_on_s5(self):
        S = even_d(4)
        offenders = check_special_set(S)
        assert [S.tuples[i].label for i in offenders] == ["S5"]

    def test_d4_is_not_mutually_orthogonal(self):
        # published kets collide at d = 4: S2[2,1] shares (2,3,2) with S4
        # and S2[2,2] shares (2,3,3) with S5
        assert len(check_mutual_orthogonality(even_d(4))) == 8

    def test_d6_validators_pass(self):
        S = even_d(6)
        assert check_special_set(S) == []
        assert check_mutual_orthogonality(S) == []
        assert check_plane_containing(S) == (0, 0, 0)


class TestC444Weight4:
    def test_first_tuple(self):
        S = c444_weight4()
        assert S.tuples[0].kets == (
            Ket(0, 0, 0),
            Ket(1, 2, 1),
            Ket(2, 1, 2),
            Ket(3, 3, 3),
        )
        assert S.tuples[0].label == "B1"

    def test_size(self):
        assert c444_weight4().n_states == 64

    def test_partitions_full_basis(self):
        coords = set(c444_weight4().holders)
        assert len(coords) == 64
        assert coords == {
            (i, j, k) for i in range(4) for j in range(4) for k in range(4)
        }

    def test_validators_pass(self):
        S = c444_weight4()
        assert check_special_set(S) == []
        assert check_mutual_orthogonality(S) == []
        assert check_plane_containing(S) == (0, 0, 0)


class TestBuildRegistry:
    def test_generators_deterministic(self):
        assert c345() == c345()
        assert c444_weight4() == c444_weight4()

    def test_lookup(self):
        assert build("odd", 5) == odd_d(5)
        assert build("c333").n_states == 26

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown construction"):
            build("c999")

    def test_missing_d(self):
        with pytest.raises(ValueError, match="requires"):
            build("even")


class TestDocumentsPinned:
    # sha256 of each construction's document; it changes with any label,
    # ket or tuple order, which the set's own equality does not all see
    DIGESTS = {
        "c333": "621a7bb4466eec914cc7ce32636830743bb79da3ed69d7873d164fe9942998f4",
        "c345": "4ea2331a5fa9672bb0853e078da47f53634c0b2c7537a16ec23a1fb77e988c98",
        "c444w4": "ab676e153a88e73aa8844233ac4deea501c31ab4012c8a194bfa94bec0de7039",
        "odd5": "f18fec682bd858d21208e1857f3f86384e108f82806157294877e11768878bc2",
        "odd7": "eac2d314a2a73b50d070697c1a7a8756f96a8ec132522da6b0e17f4e977c7353",
        "even4": "90df71a4e80102e5dd1136b355723f9998b0f3a37c108d128cc6e03117aadd02",
        "even6": "7d3d0bbe34f1e5046859d7d1f1b417d4451234acac260901c1fa8698dd5db598",
    }
    BUILDERS = {
        "c333": c333, "c345": c345, "c444w4": c444_weight4,
        "odd5": lambda: odd_d(5), "odd7": lambda: odd_d(7),
        "even4": lambda: even_d(4), "even6": lambda: even_d(6),
    }

    @pytest.mark.parametrize("name", sorted(DIGESTS))
    def test_document_digest_is_pinned(self, name):
        text = write_state_set(self.BUILDERS[name]())
        assert hashlib.sha256(text.encode()).hexdigest() == self.DIGESTS[name]
