"""Core data model for tripartite GHZ-like state sets.

A state set is a list of weight-w tuples of computational kets; each tuple
expands into w mutually orthonormal states whose coefficients are the rows of
the w-dimensional Fourier matrix, scaled by 1/sqrt(w).  Every coefficient is
a root of unity, omega_w^(m n) on the m-th ket of state n, so no validator
expands a state: orthogonality is decided exactly from the kets, in the
set's one prime field (StateSet.field, from arithmetic.py), and Schmidt
rank from the kets and exponents m n mod w (check_genuine_entanglement).
Validators cover every hypothesis the connectivity theorems need:
coordinate-distinctness ("special set"), mutual orthogonality, plane
containment, and genuine entanglement.  What the validators, the
certifier and the oracle all read about a set (its number of states, each
tuple's first state index, the tuples holding each ket, each tuple's
axes of pairwise distinct coordinates, the set's field) is a cached
property of the immutable StateSet, computed on first read.  Only
StateSet.holders walks the kets to index them, and only StateSet.spread
tells on which axes a tuple is spread.  Which tuples hold a shared ket
(StateSet.sharing) and how many kets two tuples share (StateSet.shares)
are read off that index on each call, and so is the plane check, by
probing it.
"""

from __future__ import annotations

import itertools
import json
import math
import sys
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from types import MappingProxyType
from typing import Mapping, NamedTuple, Optional

from .arithmetic import norm_bound, prime_field


class StateSetFormatError(ValueError):
    """Malformed state-set document, with a positional diagnostic."""


class Ket(NamedTuple):
    i: int
    j: int
    k: int


@dataclass(frozen=True)
class SystemDims:
    d1: int
    d2: int
    d3: int

    def __post_init__(self):
        for d in (self.d1, self.d2, self.d3):
            if not isinstance(d, int) or d < 2:
                raise ValueError(f"local dimensions must be integers >= 2, got {d}")
        # the graph route and the oracle list each cut's da * db kept indices
        if max(self.d1 * self.d2, self.d2 * self.d3, self.d3 * self.d1) > sys.maxsize:
            raise ValueError(f"a product of two local dimensions exceeds "
                             f"{sys.maxsize}, got {self.as_tuple()}")

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.d1, self.d2, self.d3)

    def contains(self, ket: Ket) -> bool:
        return 0 <= ket.i < self.d1 and 0 <= ket.j < self.d2 and 0 <= ket.k < self.d3


class Partition(Enum):
    """Bipartition of the three parties: the named party versus the rest."""

    A = "A"
    B = "B"
    C = "C"

    def __init__(self, value: str):
        self.cut_axis = "ABC".index(value)
        # axes of the two non-cut parties, in the paper's vertex order
        self.kept_axes = ((self.cut_axis + 1) % 3, (self.cut_axis + 2) % 3)

    def kept_dims(self, dims: SystemDims) -> tuple[int, int]:
        a, b = self.kept_axes
        t = dims.as_tuple()
        return (t[a], t[b])


def _is_int(x) -> bool:
    """An integer that is not a bool: JSON's true and false parse as Python
    bools, which are ints."""
    return isinstance(x, int) and not isinstance(x, bool)


@dataclass(frozen=True)
class GhzTuple:
    """w distinct kets; expands to w GHZ-like states.  Built in code or
    parsed, a tuple checks each rule here, each ket once: an integer weight
    >= 2, exactly weight distinct kets of three integers (a bool is not
    one), and a label None or a string.  Each message opens with the bad
    field's path: weight, kets, kets[k] or label."""

    weight: int
    kets: tuple[Ket, ...]
    label: Optional[str] = None

    def __post_init__(self):
        w = self.weight
        if not _is_int(w) or w < 2:
            raise ValueError(f"weight: expected an integer >= 2, got {w!r}")
        try:
            given = tuple(self.kets)
        except TypeError:
            raise ValueError(f"kets: expected a list, got {self.kets!r}") from None
        if len(given) != w:
            raise ValueError(f"kets: weight {w} but {len(given)} kets")
        kets = []
        for m, k in enumerate(given):
            try:
                x, y, z = k
            except (TypeError, ValueError):  # not three values
                x = y = z = None
            plain = type(x) is type(y) is type(z) is int  # the common case
            if not (plain or all(map(_is_int, (x, y, z)))):
                raise ValueError(f"kets[{m}]: expected a list of 3 integers, got {k!r}")
            kets.append(k if type(k) is Ket else Ket(x, y, z))  # a Ket is kept
        kets = tuple(kets)
        if len(set(kets)) != w:
            m = next(m for m, k in enumerate(kets) if kets.index(k) < m)
            raise ValueError(
                f"kets[{m}]: ket {tuple(kets[m])} repeats "
                f"kets[{kets.index(kets[m])}]; the kets of a tuple must be distinct"
            )
        if self.label is not None and not isinstance(self.label, str):
            raise ValueError(f"label: expected a string, got {self.label!r}")
        object.__setattr__(self, "kets", kets)


@dataclass(frozen=True)
class StateSet:
    """Tuples in their dims.  The set checks the rules that need the dims:
    every ket in bounds (tuples[i].kets[k]), then every weight at most the
    smallest dimension (tuples[i].weight), each in tuple order."""

    dims: SystemDims
    tuples: tuple[GhzTuple, ...]

    def __post_init__(self):
        tuples = tuple(self.tuples)
        object.__setattr__(self, "tuples", tuples)
        d1, d2, d3 = dims = self.dims.as_tuple()
        for idx, t in enumerate(tuples):
            for ket in t.kets:
                i, j, k = ket
                if not (0 <= i < d1 and 0 <= j < d2 and 0 <= k < d3):
                    raise ValueError(
                        f"tuples[{idx}].kets[{t.kets.index(ket)}]: ket {tuple(ket)} "
                        f"out of bounds for dims {dims}"
                    )
        least = min(dims)
        for idx, t in enumerate(tuples):
            if t.weight > least:
                raise ValueError(
                    f"tuples[{idx}].weight: {t.weight} exceeds the smallest "
                    f"dimension, {least}"
                )

    def __getstate__(self) -> dict:
        """The fields only: a copy computes its own facts (S.holders, a
        read-only mapping, cannot be pickled)."""
        return {"dims": self.dims, "tuples": self.tuples}

    # Facts of the set itself, computed on first read; no state is expanded.
    # cached_property stores them in the instance __dict__, outside the
    # fields, so equality and hashing are unchanged.

    @cached_property
    def n_states(self) -> int:
        """The sum of the weights: the number of states, and of kets."""
        return sum(t.weight for t in self.tuples)

    @cached_property
    def first(self) -> tuple[int, ...]:
        """Each tuple's first index in expansion order."""
        weights = (t.weight for t in self.tuples)
        return tuple(itertools.accumulate(weights, initial=0))[:-1]

    @cached_property
    def holders(self) -> Mapping[Ket, list[int]]:
        """A read-only map from each ket of the set to the tuples that hold
        it, in tuple order: the one walk over the kets, which sharing,
        shares and the plane check read.  The values are plain lists,
        appended in that walk, and must not be changed."""
        holders: dict[Ket, list[int]] = {}
        for t, tup in enumerate(self.tuples):
            for ket in tup.kets:
                holders.setdefault(ket, []).append(t)
        return MappingProxyType(holders)

    @cached_property
    def spread(self) -> tuple[int, ...]:
        """Per tuple, bit a is set iff its axis-a coordinates are pairwise
        distinct (spread on the cut of cut_axis a); 0b111: coordinately different."""
        spread = []
        for t in self.tuples:
            w = t.weight
            xs, ys, zs = map(set, zip(*t.kets))
            spread.append((len(xs) == w) | (len(ys) == w) << 1 | (len(zs) == w) << 2)
        return tuple(spread)

    @cached_property
    def field(self) -> tuple[int, int, int]:
        """(L, p, r): L is the lcm of the weights, and p exceeds the norm
        bound of every overlap, a sum of min(w_a, w_b) roots of unity of
        order lcm(w_a, w_b); r is a primitive L-th root of unity mod p."""
        weights = {t.weight for t in self.tuples}
        bound = max(
            (norm_bound(math.lcm(a, b), min(a, b)) for a in weights for b in weights),
            default=2,
        )
        order = math.lcm(*weights)
        return (order, *prime_field(order, bound))

    def sharing(self) -> set[int]:
        """The tuples holding a ket that another tuple holds too, read off
        S.holders on each call: none iff S.holders has n_states keys."""
        if len(self.holders) == self.n_states:
            return set()
        return {t for ts in self.holders.values() if len(ts) > 1 for t in ts}

    def shares(self, t: int) -> Counter[int]:
        """Each tuple u that shares a ket with tuple t, mapped to the number
        of kets t and u share (t to its weight): counted off S.holders on
        each call, and not kept."""
        held = map(self.holders.__getitem__, self.tuples[t].kets)
        return Counter(itertools.chain.from_iterable(held))


@dataclass(frozen=True)
class StateVector:
    """Sparse pure state whose coefficient on each ket of its support is
    omega^exponents[ket] / sqrt(len(exponents)), omega = exp(2 pi i/order),
    so every state is normalized by construction.
    """

    dims: SystemDims
    exponents: dict[Ket, int] = field(hash=False)
    order: int = 1


def expand_tuple(t: GhzTuple, dims: SystemDims) -> list[StateVector]:
    """The w states sum_m omega^{(m-1)n} |ket_m> / sqrt(w), n in Z_w."""
    for ket in t.kets:
        if not dims.contains(ket):
            raise ValueError(f"ket {tuple(ket)} out of bounds for {dims.as_tuple()}")
    w = t.weight
    return [
        StateVector(
            dims, {ket: m * n % w for m, ket in enumerate(t.kets)}, order=w
        )
        for n in range(w)
    ]


def expand_set(S: StateSet) -> list[StateVector]:
    """All expanded states of S, tuple by tuple, in Fourier-row order."""
    out: list[StateVector] = []
    for t in S.tuples:
        out.extend(expand_tuple(t, S.dims))
    return out


def check_mutual_orthogonality(S: StateSet) -> list[tuple[int, int]]:
    """Indices (in expansion order) of non-orthogonal state pairs; empty = pass.

    Only pairs of distinct tuples that share a ket are tested (S.sharing
    and S.shares), from the kets they share (S.holders), in the set's field
    S.field; no state is expanded.  States with no ket in common have
    overlap 0, and every state of a tuple is supported on all its kets.
    Two states n != n' of one tuple need no test: the kets of a GhzTuple
    are distinct, so their overlap is sum_m omega^(m (n' - n)) / w = 0, the
    product of two distinct rows of the Fourier matrix.  State n of a
    weight-w tuple is sum_m omega_w^(m n) |k_m> / sqrt(w), so the unscaled
    overlap of (t, n) and (u, n') is the sum of omega_L^(mu n' L/w_u -
    m n L/w_t) over the shared kets k_m = k'_mu: the oracle's per-pair
    coefficient, and p exceeds every such sum's norm bound, so the test is
    exact.  With one shared ket that sum is a single root of unity, so all
    w * w' pairs of the two tuples are listed without it.
    """
    if not (sharing := S.sharing()):
        return []
    order, prime, root = S.field
    roots = [pow(root, e, prime) for e in range(order)]
    tuples, first, holders = S.tuples, S.first, S.holders
    violations = []
    for t in sharing:
        a = tuples[t]
        for u, count in S.shares(t).items():
            if u <= t:
                continue
            b = tuples[u]
            # (m L/w_t, mu L/w_u) for each shared ket k_m = k'_mu, needed
            # only when two or more kets are shared
            shared = count > 1 and [
                (m * (order // a.weight), b.kets.index(k) * (order // b.weight))
                for m, k in enumerate(a.kets)
                if u in holders[k]
            ]
            violations.extend(
                (first[t] + n, first[u] + nu)
                for n in range(a.weight)
                for nu in range(b.weight)
                if not shared
                or sum(roots[(mu * nu - m * n) % order] for m, mu in shared) % prime
            )
    return sorted(violations)


def check_plane_containing(S: StateSet) -> Optional[tuple[int, int, int]]:
    """Lexicographically smallest (i0, j0, k0) whose three coordinate planes
    all lie inside the coordinate set, or None.

    The plane across the smallest dimension has d1*d2*d3 / min(dims) cells,
    so a witness needs at least that many distinct kets; below that the
    answer is None without a probe.  Above it every dimension is at most
    the number of kets, and on each axis the least coordinate c whose
    plane cells are all keys of S.holders is found by probing the cells of
    c = 0, 1, ... in turn; all() stops at a plane's first missing cell.
    The planes of one axis are disjoint, so an axis costs at most one hit
    per ket and one miss per coordinate: O(kets), and nothing is allocated
    per coordinate."""
    holders = S.holders
    dims = S.dims.as_tuple()
    if len(holders) * min(dims) < math.prod(dims):
        return None
    held = holders.__contains__
    ranges = [range(d) for d in dims]
    witness = []
    for axis, d in enumerate(dims):
        before, after = ranges[:axis], ranges[axis + 1 :]
        for c in range(d):
            if all(map(held, itertools.product(*before, (c,), *after))):
                witness.append(c)
                break
        else:
            return None
    return tuple(witness)


def check_special_set(S: StateSet) -> list[int]:
    """Indices of tuples that are not coordinately different (S.spread is
    not 0b111); empty = pass.  count() reads the cached bits in C, so a
    special set runs no Python code per tuple."""
    spread = S.spread
    if spread.count(0b111) == len(spread):
        return []
    return [i for i, s in enumerate(spread) if s != 0b111]


def check_genuine_entanglement(t: GhzTuple, n: int) -> bool:
    """True iff state n of tuple t, sum_m omega_w^(m n) |k_m> / sqrt(w), has
    Schmidt rank >= 2 across all three bipartitions, read off t.kets.

    Across a cut the state is a matrix M[x, y] = omega_w^e(x, y), one cell
    per ket k_m: x = k_m[cut_axis], y its two kept coordinates, e = m n
    mod w.  Every 2x2 minor omega^a omega^d - omega^b omega^c vanishes iff
    a + d = b + c (mod w), so M has rank 1 exactly when its support is a
    full rectangle X x Y, which for w distinct kets means w == |X| |Y|,
    and e(x, y) + e(x0, y0) = e(x, y0) + e(x0, y) for one fixed cell
    (x0, y0) and every cell (x, y): then M[x, y] is the product
    omega^e(x, y0) * omega^(e(x0, y) - e(x0, y0)).  No arithmetic beyond
    the exponents is needed.
    """
    w = t.weight
    for part in Partition:
        a, b = part.kept_axes
        cells = {
            (k[part.cut_axis], (k[a], k[b])): m * n % w for m, k in enumerate(t.kets)
        }
        xs = {x for x, _ in cells}
        ys = {y for _, y in cells}
        if w != len(xs) * len(ys):
            continue
        (x0, y0), e0 = next(iter(cells.items()))
        if all(
            (e + e0 - cells[x, y0] - cells[x0, y]) % w == 0
            for (x, y), e in cells.items()
        ):
            return False
    return True


def genuine_entanglement_census(S: StateSet) -> list[int]:
    """Indices (expansion order) of states failing genuine entanglement.

    A coordinately different tuple of weight w >= 2 puts, on every cut, its
    w cells in w distinct rows and w distinct columns of the cut matrix, so
    its support is never a full rectangle and all w of its states have
    Schmidt rank >= 2 on every cut.  Only the rows of the other tuples
    (S.spread is not 0b111) are checked, each from its tuple's kets.
    """
    tuples, first = S.tuples, S.first
    return [
        first[t] + n
        for t, spread in enumerate(S.spread)
        if spread != 0b111
        for n in range(tuples[t].weight)
        if not check_genuine_entanglement(tuples[t], n)
    ]


def write_state_set(S: StateSet) -> str:
    """Serialize to the state-set document format (JSON, UTF-8)."""
    doc = {
        "dims": list(S.dims.as_tuple()),
        "tuples": [
            {
                "weight": t.weight,
                "kets": [list(k) for k in t.kets],
                **({"label": t.label} if t.label is not None else {}),
            }
            for t in S.tuples
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def parse_state_set(text: str) -> StateSet:
    """Parse a state-set document, raising StateSetFormatError that opens
    with the JSON path of the first defect.  Only what a JSON value gets
    wrong by itself is checked here (an object, dims a list of 3 integers,
    tuples a list of objects whose kets is a list); every other rule is the
    constructors'.  Per-tuple defects (GhzTuple, behind tuples[i].) come
    first, then set-level ones (StateSet), each in document order."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise StateSetFormatError(f"not valid JSON: {e}") from e
    if not isinstance(doc, dict):
        raise StateSetFormatError("top level must be an object")
    dims_raw = doc.get("dims")
    if (
        not isinstance(dims_raw, list)
        or len(dims_raw) != 3
        or not all(_is_int(d) for d in dims_raw)
    ):
        raise StateSetFormatError("dims: expected a list of 3 integers")
    try:
        dims = SystemDims(*dims_raw)
    except ValueError as e:
        raise StateSetFormatError(f"dims: {e}") from e
    tuples_raw = doc.get("tuples")
    if not isinstance(tuples_raw, list):
        raise StateSetFormatError("tuples: expected a list")
    tuples = []
    for idx, t in enumerate(tuples_raw):
        if not isinstance(t, dict):
            raise StateSetFormatError(f"tuples[{idx}]: expected an object")
        if not isinstance(kets := t.get("kets"), list):
            raise StateSetFormatError(f"tuples[{idx}].kets: expected a list")
        try:
            tuples.append(GhzTuple(t.get("weight"), kets, t.get("label")))
        except ValueError as e:
            raise StateSetFormatError(f"tuples[{idx}].{e}") from e
    try:
        return StateSet(dims, tuples)
    except ValueError as e:
        raise StateSetFormatError(str(e)) from e
