"""Deterministic generators for the GHZ-like state families.

Labels record the sub-family and index ("S1[i,j]", "S4", "B3", ...) so tests
and ablation experiments can address individual tuples.  Generators reproduce
the published index patterns verbatim, including the d = 4 even-family tuple
S5 whose kets are not coordinately different; the validators, not the
generators, report that defect.  One formula, the rings S1-S3 plus the corner
tuple S4, builds the odd family and c345 (its instance at 3 x 4 x 5).
"""

from __future__ import annotations

from .state_model import GhzTuple, Ket, StateSet, SystemDims


def _pair(label: str, k1: tuple[int, int, int], k2: tuple[int, int, int]) -> GhzTuple:
    return GhzTuple(2, (Ket(*k1), Ket(*k2)), label)


def c333() -> StateSet:
    """26 weight-2 states in C3 x C3 x C3 (13 tuples): the odd family at d = 3."""
    return odd_d(3)


def c345() -> StateSet:
    """54 weight-2 states in C3 x C4 x C5 (27 tuples): the odd-family formula
    at 3 x 4 x 5."""
    return _odd_family(3, 4, 5)


def odd_d(d: int) -> StateSet:
    """6(d-1)^2 + 2 states in Cd x Cd x Cd, d odd and >= 3."""
    if d < 3 or d % 2 == 0:
        raise ValueError(f"odd family requires an odd d >= 3, got {d}")
    return _odd_family(d, d, d)


def even_d(d: int) -> StateSet:
    """6(d-1)^2 + 4 states in Cd x Cd x Cd, d even and >= 4."""
    if d < 4 or d % 2 == 1:
        raise ValueError(f"even family requires an even d >= 4, got {d}")
    extra = (
        _pair("S4", (0, 0, 0), (2, 3, 2)),
        _pair("S5", (d - 1, d - 1, d - 1), (2, 3, 3)),
    )
    return StateSet(SystemDims(d, d, d), _ring_tuples(d, d, d) + extra)


def _odd_family(d1: int, d2: int, d3: int) -> StateSet:
    """The rings S1, S2, S3 plus the corner tuple S4 in C^d1 x C^d2 x C^d3."""
    corner = _pair("S4", (0, 0, 0), (d1 - 1, d2 - 1, d3 - 1))
    return StateSet(SystemDims(d1, d2, d3), _ring_tuples(d1, d2, d3) + (corner,))


def _ring_tuples(d1: int, d2: int, d3: int) -> tuple[GhzTuple, ...]:
    """The S1, S2, S3 sub-families shared by the odd and even constructions."""
    h1, h2, h3 = d1 - 1, d2 - 1, d3 - 1
    tuples = []
    for i in range(h2):
        for j in range(h3):
            tuples.append(_pair(f"S1[{i},{j}]", (0, i, j + 1), (h1, i + 1, j)))
    for i in range(h1):
        for j in range(h3):
            tuples.append(_pair(f"S2[{i},{j}]", (i + 1, 0, j), (i, h2, j + 1)))
    for i in range(h1):
        for j in range(h2):
            tuples.append(_pair(f"S3[{i},{j}]", (i, j + 1, 0), (i + 1, j, h3)))
    return tuple(tuples)


_WEIGHT4_ROWS: tuple[tuple[int, ...], ...] = (
    (0o000, 0o121, 0o212, 0o333),
    (0o003, 0o111, 0o222, 0o330),
    (0o030, 0o112, 0o221, 0o303),
    (0o033, 0o122, 0o211, 0o300),
    (0o001, 0o113, 0o230, 0o322),
    (0o002, 0o123, 0o210, 0o331),
    (0o011, 0o103, 0o220, 0o332),
    (0o012, 0o130, 0o203, 0o321),
    (0o013, 0o132, 0o201, 0o320),
    (0o021, 0o133, 0o200, 0o312),
    (0o022, 0o101, 0o233, 0o310),
    (0o023, 0o100, 0o232, 0o311),
    (0o010, 0o131, 0o223, 0o302),
    (0o020, 0o102, 0o231, 0o313),
    (0o031, 0o110, 0o202, 0o323),
    (0o032, 0o120, 0o213, 0o301),
)


def c444_weight4() -> StateSet:
    """64 weight-4 states in C4 x C4 x C4: 16 tuples partitioning the basis."""
    tuples = []
    for n, row in enumerate(_WEIGHT4_ROWS, start=1):
        kets = tuple(Ket((v >> 6) & 7, (v >> 3) & 7, v & 7) for v in row)
        tuples.append(GhzTuple(4, kets, f"B{n}"))
    return StateSet(SystemDims(4, 4, 4), tuple(tuples))


_FIXED = {"c333": c333, "c345": c345, "c444w4": c444_weight4}
_FAMILIES = {"odd": odd_d, "even": even_d}
CONSTRUCTIONS = {**_FIXED, **_FAMILIES}


def build(name: str, d: int | None = None) -> StateSet:
    """Look up a construction by CLI name and build it; only the odd and
    even families take a dimension d."""
    if name in _FAMILIES:
        if d is None:
            raise ValueError(f"construction '{name}' requires --d")
        return _FAMILIES[name](d)
    if name in _FIXED:
        if d is not None:
            raise ValueError(f"construction '{name}' takes no --d (got {d})")
        return _FIXED[name]()
    raise ValueError(
        f"unknown construction '{name}' (choose from {sorted(CONSTRUCTIONS)})"
    )
