"""Number types and the one linear eliminator over them.

State amplitudes for tuples whose weight divides 4 only ever involve the
fourth roots of unity {1, i, -1, -i}, so every coefficient that appears in an
orthogonality or nullspace computation is a complex number with rational real
and imaginary parts.  This module provides that number type; anything with
other roots of unity falls back to ordinary ``complex``, compared against the
fixed tolerance DEFAULT_TOL.  SparseEliminator reduces sparse rows of either
kind; the nullspace oracle and the Schmidt-rank check both use it.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from typing import Union

Rational = Union[int, Fraction]

DEFAULT_TOL = 1e-9


class GaussianRational:
    """A complex number with exact rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re: Rational = 0, im: Rational = 0):
        self.re = re if isinstance(re, Fraction) else Fraction(re)
        self.im = im if isinstance(im, Fraction) else Fraction(im)

    def __add__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __truediv__(self, other: "GaussianRational") -> "GaussianRational":
        n = other.re * other.re + other.im * other.im
        if n == 0:
            raise ZeroDivisionError("division by zero GaussianRational")
        return GaussianRational(
            (self.re * other.re + self.im * other.im) / n,
            (self.im * other.re - self.re * other.im) / n,
        )

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, GaussianRational):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.re, self.im))

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __repr__(self) -> str:
        return f"GaussianRational({self.re!r}, {self.im!r})"


Coefficient = Union[GaussianRational, complex]

GR_ONE = GaussianRational(1, 0)

_I_POWERS = (
    GaussianRational(1, 0),
    GaussianRational(0, 1),
    GaussianRational(-1, 0),
    GaussianRational(0, -1),
)


def i_power(k: int) -> GaussianRational:
    """i**k as an exact Gaussian rational."""
    return _I_POWERS[k % 4]


def exact_weight(w: int) -> bool:
    """True when the w-th roots of unity are Gaussian rationals (w | 4)."""
    return w >= 1 and 4 % w == 0


def root_of_unity(w: int, exponent: int, exact: bool):
    """exp(2*pi*1j*exponent/w), exact when requested (requires w | 4)."""
    if exact:
        if not exact_weight(w):
            raise ValueError(f"weight {w} has no Gaussian-rational roots of unity")
        return i_power((4 // w) * exponent)
    return cmath.exp(2j * cmath.pi * exponent / w)


class SparseEliminator:
    """Incremental reduced row echelon form over sparse rows.

    Pivot rows never contain other pivot columns (full back-substitution), so
    reducing an incoming row terminates after at most two sweeps.
    """

    def __init__(self, exact: bool):
        self.exact = exact
        self.pivots: dict[int, dict[int, Coefficient]] = {}
        self._col_index: dict[int, set[int]] = {}
        self.warning = False

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def _zero(self, v: Coefficient, thresh: float) -> bool:
        if self.exact:
            return not v
        return abs(v) <= thresh

    def add_row(self, row: dict[int, Coefficient]) -> None:
        row = dict(row)
        thresh = 0.0
        if not self.exact and row:
            thresh = DEFAULT_TOL * max(1.0, max(abs(v) for v in row.values()))
        while True:
            hit = [c for c in row if c in self.pivots]
            if not hit:
                break
            for c in hit:
                f = row.pop(c, None)
                if f is None or self._zero(f, thresh):
                    continue
                for col, v in self.pivots[c].items():
                    if col == c:
                        continue
                    cur = row.get(col)
                    nv = -(f * v) if cur is None else cur - f * v
                    if self._zero(nv, thresh):
                        row.pop(col, None)
                    else:
                        row[col] = nv
        if not self.exact:
            dropped = [v for v in row.values() if abs(v) <= thresh]
            if any(abs(v) > thresh / 10 for v in dropped):
                self.warning = True
            row = {c: v for c, v in row.items() if abs(v) > thresh}
        else:
            row = {c: v for c, v in row.items() if v}
        if not row:
            return
        if self.exact:
            pc = min(row)
        else:
            pc = max(row, key=lambda c: abs(row[c]))
            if abs(row[pc]) < 10 * thresh:
                self.warning = True
        piv = row.pop(pc)
        one = piv / piv
        newrow = {pc: one}
        newrow.update({col: v / piv for col, v in row.items()})
        # back-substitute into existing pivot rows containing pc
        for p in list(self._col_index.get(pc, ())):
            prow = self.pivots[p]
            f = prow.pop(pc)
            self._col_index[pc].discard(p)
            for col, v in newrow.items():
                if col == pc:
                    continue
                cur = prow.get(col)
                nv = -(f * v) if cur is None else cur - f * v
                if self._zero(nv, thresh):
                    if cur is not None:
                        prow.pop(col)
                        self._col_index[col].discard(p)
                else:
                    if cur is None:
                        self._col_index.setdefault(col, set()).add(p)
                    prow[col] = nv
        self.pivots[pc] = newrow
        for col in newrow:
            if col != pc:
                self._col_index.setdefault(col, set()).add(pc)

    def residuals_zero(self, vec: dict[int, Coefficient]) -> bool:
        """True iff the vector satisfies every reduced equation."""
        for pc, prow in self.pivots.items():
            total = None
            for col, v in prow.items():
                x = vec.get(col)
                if x is None:
                    continue
                term = v * x
                total = term if total is None else total + term
            if total is None:
                continue
            if self.exact:
                if total:
                    return False
            elif abs(total) > DEFAULT_TOL * max(1.0, len(prow)):
                return False
        return True

    def nullspace_basis(self, n_unknowns: int) -> list[dict[int, Coefficient]]:
        basis = []
        for f in range(n_unknowns):
            if f in self.pivots:
                continue
            vec: dict[int, Coefficient] = {f: GR_ONE if self.exact else 1 + 0j}
            for pc in self._col_index.get(f, ()):
                vec[pc] = -self.pivots[pc][f]
            basis.append(vec)
        return basis
