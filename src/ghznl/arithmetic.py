"""The one exact arithmetic: integers modulo a proven prime p.

Every coefficient ghznl meets is a sum of roots of unity: a state's
amplitudes are powers of omega_w = exp(2*pi*i/w), so overlaps and
constraint rows lie in Z[zeta_L] for L the lcm of the root orders in play.
prime_field picks a prime p = 1 (mod L) together with a primitive L-th root
r of unity mod p; then zeta_L -> r is a ring map Z[zeta_L] -> F_p, and
every decision runs over F_p:

* Rank can only drop under a ring map, so rank mod p <= true rank and
  nullity mod p >= true nullity.  A nullity of 1 mod p therefore certifies
  that the true nullity is 1 as well (it is at least 1: the identity always
  solves the oracle's system), for every weight.
* A nonzero sum alpha of at most B roots of unity of order dividing M has
  |N(alpha)| <= B^phi(M), N the norm of Q(zeta_M), because each of its
  phi(M) Galois conjugates has absolute value at most B.  For M | L the
  kernel of the ring map meets Z[zeta_M] in a prime over p, so alpha = 0
  mod p would need p to divide the nonzero integer N(alpha): any
  p > B^phi(M) (norm_bound) decides alpha == 0 exactly.  Overlaps (B = the
  number of shared kets) are such sums, so orthogonality is an exact test,
  not a heuristic.  (Schmidt rank needs no field: state_model reads it off
  the exponents.)
* A nullity above 1 is the F_p nullity.  It equals the true nullity unless p
  divides the norm of every nonzero maximal minor of the system; p >= 2^61
  keeps that unlikely, but such a verdict is not re-checked here.

union_find counts the classes of integer indices joined by edges: the
oracle's diagonal equalities, and the components of a built partition graph
(graphs.connected_components).  The graph route's own count,
graphs.component_counts, runs its union step inline and does not call it.
SparseEliminator brings the oracle's remaining sparse rows of residues to
row echelon form.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable

MIN_PRIME = 1 << 61


def _prime_factors(n: int) -> list[int]:
    """The distinct primes dividing n, by trial division (n is small)."""
    out, q = [], 2
    while q * q <= n:
        if n % q == 0:
            out.append(q)
            while n % q == 0:
                n //= q
        q += 1
    if n > 1:
        out.append(n)
    return out


def _euler_phi(n: int) -> int:
    for q in _prime_factors(n):
        n = n // q * (q - 1)
    return n


def norm_bound(order: int, terms: int) -> int:
    """Bound on |N(alpha)| for a nonzero sum alpha of at most `terms` roots
    of unity whose orders divide `order`; the base is at least 2."""
    return max(2, terms) ** _euler_phi(order)


def _proth_prime(k: int, n: int) -> bool:
    """Proth's theorem: p = k*2^n + 1 with k odd and k < 2^n is prime iff
    some a has a^((p-1)/2) = -1 (mod p).  A False may only mean that no
    witness was found among the small bases tried."""
    p = (k << n) + 1
    for a in range(3, 64):
        x = pow(a, p >> 1, p)
        if x == p - 1:
            return True
        if x != 1:
            return False
    return False


@lru_cache(maxsize=None)
def prime_field(order: int, bound: int) -> tuple[int, int]:
    """(p, r): a prime p = 1 (mod order) with p >= 2^61 and p > bound, and
    a primitive order-th root of unity r mod p.

    p = k*2^n + 1 is the first Proth prime, in increasing k, with order | p-1
    and 2^(2n) a little above the bound; a Proth witness proves it prime.
    r is g^((p-1)/order) for the least g >= 2 with r^(order/q) != 1 for
    every prime q dividing order.
    """
    odd, twos = order, 0
    while odd % 2 == 0:
        odd, twos = odd // 2, twos + 1
    low = max(MIN_PRIME, bound + 1)
    n = max(twos, (low.bit_length() + 3) // 2)
    while True:
        # k runs over the odd multiples of `odd` with k*2^n + 1 >= low
        kmin = -(-(low - 1) >> n)
        k = odd + max(0, -(-(kmin - odd) // (2 * odd))) * 2 * odd
        while k < (1 << n):
            if _proth_prime(k, n):
                p = (k << n) + 1
                qs = _prime_factors(order)
                for g in range(2, p):
                    r = pow(g, (p - 1) // order, p)
                    if all(pow(r, order // q, p) != 1 for q in qs):
                        return p, r
            k += 2 * odd
        n += 1


def union_find(n: int, edges: Iterable[tuple[int, int]]) -> tuple[list[int], int]:
    """Merge the ends of each edge over the indices 0..n-1.

    Returns (root, count): root[i] is the smallest index of i's class and
    count is the number of classes.  n - count is the rank of the rows
    x_u - x_v over any field, which is how the oracle uses it.
    """
    root = list(range(n))
    count = n
    for u, v in edges:
        # path halving
        while root[u] != u:
            root[u] = u = root[root[u]]
        while root[v] != v:
            root[v] = v = root[root[v]]
        if u != v:
            if v < u:
                u, v = v, u
            root[v] = u
            count -= 1
    # root[i] <= i, so in increasing order root[root[i]] is already a root
    for i in range(n):
        root[i] = root[root[i]]
    return root, count


class SparseEliminator:
    """Incremental row echelon form over sparse rows of residues mod p.

    Rows map a column to a nonzero residue in [0, p).  A new row is reduced
    at its least column until that column is not a pivot, then stored
    scaled to a leading 1.  The pivot columns are the leading columns of
    the row space, whatever the echelon form, so the rank, the free columns
    and `solution` do not depend on the order of the rows.
    """

    def __init__(self, p: int):
        self.p = p
        self.pivots: dict[int, dict[int, int]] = {}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def add_row(self, row: dict[int, int]) -> None:
        p = self.p
        row = dict(row)
        while row:
            pc = min(row)
            prow = self.pivots.get(pc)
            if prow is None:
                inv = pow(row[pc], -1, p)
                self.pivots[pc] = {col: v * inv % p for col, v in row.items()}
                return
            f = row[pc]
            for col, v in prow.items():
                nv = (row.get(col, 0) - f * v) % p
                if nv:
                    row[col] = nv
                else:
                    row.pop(col, None)

    def solution(self, free: int) -> dict[int, int]:
        """The solution with column `free` (not a pivot) at 1 and every
        other free column at 0; columns left out are 0.  A pivot row holds
        only greater columns, so the pivots are solved in decreasing order."""
        p = self.p
        vec = {free: 1}
        for pc in sorted(self.pivots, reverse=True):
            s = sum(v * vec.get(col, 0) for col, v in self.pivots[pc].items())
            if s % p:
                vec[pc] = -s % p
        return vec
