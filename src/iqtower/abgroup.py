"""Finite abelian group machinery shared by the residue-ring and
quadratic-form modules: integer Smith normal form with tracked transforms,
quotient presentations, and, for the form class groups, structure recovery
for concretely enumerated groups (Sylow counting plus deterministic basis
extraction).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm, prod
from operator import mul

from sympy import factorint


class GroupError(ValueError):
    pass


def _identity(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def smith_normal_form(rel: list[list[int]]) -> tuple[list[int], list[list[int]], list[list[int]]]:
    """Diagonalize an integer relation matrix.

    Returns (diag, U, Uinv) with U unimodular, U @ rel @ V = diag(d_1..d_k)
    for some unimodular V (not tracked), d_1 | d_2 | ... and U @ Uinv = I.
    `rel` has one row per generator; columns are relations.
    """
    A = [row[:] for row in rel]
    k = len(A)
    m = len(A[0]) if k else 0
    U = _identity(k)
    Uinv = _identity(k)

    def row_swap(i, j):
        A[i], A[j] = A[j], A[i]
        U[i], U[j] = U[j], U[i]
        for r in range(k):
            Uinv[r][i], Uinv[r][j] = Uinv[r][j], Uinv[r][i]

    def row_neg(i):
        A[i] = [-v for v in A[i]]
        U[i] = [-v for v in U[i]]
        for r in range(k):
            Uinv[r][i] = -Uinv[r][i]

    def row_sub(j, q, i):
        # row_j -= q * row_i
        A[j] = [a - q * b for a, b in zip(A[j], A[i])]
        U[j] = [a - q * b for a, b in zip(U[j], U[i])]
        for r in range(k):
            Uinv[r][i] += q * Uinv[r][j]

    def col_swap(i, j):
        for row in A:
            row[i], row[j] = row[j], row[i]

    def col_sub(j, q, i):
        for row in A:
            row[j] -= q * row[i]

    for s in range(min(k, m)):
        while True:
            # locate the minimal nonzero entry in the trailing block
            piv = None
            for i in range(s, k):
                for j in range(s, m):
                    if A[i][j] and (piv is None or abs(A[i][j]) < abs(A[piv[0]][piv[1]])):
                        piv = (i, j)
            if piv is None:
                break
            if piv != (s, s):
                if piv[0] != s:
                    row_swap(s, piv[0])
                if piv[1] != s:
                    col_swap(s, piv[1])
            if A[s][s] < 0:
                row_neg(s)
            dirty = False
            for i in range(s + 1, k):
                if A[i][s]:
                    q = A[i][s] // A[s][s]
                    row_sub(i, q, s)
                    if A[i][s]:
                        dirty = True
            for j in range(s + 1, m):
                if A[s][j]:
                    q = A[s][j] // A[s][s]
                    col_sub(j, q, s)
                    if A[s][j]:
                        dirty = True
            if dirty:
                continue
            # pivot divides the remaining block?
            offender = None
            for i in range(s + 1, k):
                for j in range(s + 1, m):
                    if A[i][j] % A[s][s]:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            row_sub(s, -1, offender)   # fold the offending row into the pivot row
    diag = [A[i][i] if i < m else 0 for i in range(k)]
    return diag, U, Uinv


@dataclass(frozen=True)
class QuotientPresentation:
    """Quotient of a direct product of cyclic groups by explicit relations.

    Built from generator orders [n_1..n_k] and extra relation vectors
    (exponent vectors of subgroup generators).  Exposes the Smith chain,
    coordinates of old exponent vectors in the quotient, and expressions of
    the new generators as words in the old ones.
    """

    orders: tuple[int, ...]
    invariants_full: tuple[int, ...]
    U: tuple[tuple[int, ...], ...]
    Uinv: tuple[tuple[int, ...], ...]

    @classmethod
    def from_relations(cls, orders: list[int], extra: list[list[int]]) -> "QuotientPresentation":
        k = len(orders)
        if k == 0:
            return cls((), (), (), ())
        rel = [[0] * (k + len(extra)) for _ in range(k)]
        for i, n in enumerate(orders):
            rel[i][i] = n
        for j, vec in enumerate(extra):
            if len(vec) != k:
                raise GroupError("relation vector length mismatch")
            for i in range(k):
                rel[i][k + j] = vec[i]
        diag, U, Uinv = smith_normal_form(rel)
        if any(d == 0 for d in diag):
            raise GroupError("relations do not present a finite group")
        return cls(tuple(orders), tuple(diag),
                   tuple(tuple(r) for r in U), tuple(tuple(r) for r in Uinv))

    @property
    def invariants(self) -> tuple[int, ...]:
        return tuple(d for d in self.invariants_full if d > 1)

    @property
    def order(self) -> int:
        return prod(self.invariants_full) if self.invariants_full else 1

    def coords(self, exponents: list[int] | tuple[int, ...]) -> tuple[int, ...]:
        """Coordinates in the quotient (nontrivial Smith positions only)."""
        if len(exponents) != len(self.orders):
            raise GroupError("exponent vector length mismatch")
        return tuple(sum(map(mul, row, exponents)) % d
                     for row, d in zip(self.U, self.invariants_full) if d > 1)

    def generator_words(self) -> list[list[int]]:
        """For each nontrivial invariant, the exponent vector (in the old
        generators) of a representative of the new generator."""
        out = []
        for j, d in enumerate(self.invariants_full):
            if d > 1:
                out.append([self.Uinv[i][j] % self.orders[i] for i in range(len(self.orders))])
        return out


def padic_val(n: int, p: int) -> int:
    """Exponent of the prime p in the nonzero integer n."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def coords_order(coords, invariants) -> int:
    """Order of the element with the given coordinates in the product of
    cyclic groups Z/n_1 x Z/n_2 x ..."""
    return lcm(*(n // gcd(c, n) for c, n in zip(coords, invariants)))


def _pow(x, k: int, op, identity):
    out = identity
    while k:
        if k & 1:
            out = op(out, x)
        k >>= 1
        if k:
            x = op(x, x)
    return out


def element_order(x, group_order: int, op, identity) -> int:
    o = group_order
    for r in factorint(group_order):
        while o % r == 0 and _pow(x, o // r, op, identity) == identity:
            o //= r
    return o


def abelian_structure(elements: list, op, identity) -> tuple[list, list[int], dict]:
    """Structure of a finite abelian group given all its elements.

    Returns (basis, orders, dlog) where the group is the internal direct
    product of the cyclic subgroups generated by `basis` (orders are prime
    powers, grouped by Sylow subgroup) and dlog maps every element to its
    exponent vector.  Deterministic: basis search follows input order.
    """
    n = len(elements)
    if n == 0:
        raise GroupError("empty element list")
    basis: list = []
    orders: list[int] = []
    for r, v in sorted(factorint(n).items()):
        cof = n // r ** v
        sylow: list = []
        seen = set()
        for x in elements:
            y = _pow(x, cof, op, identity)
            if y not in seen:
                seen.add(y)
                sylow.append(y)
        size = len(sylow)
        ords = {x: element_order(x, r ** v, op, identity) for x in sylow}
        # torsion counts c_k = #{x : x^(r^k) = 1} determine the partition:
        # the number of cyclic parts of size >= k is log_r(c_k / c_{k-1})
        parts_geq: list[int] = []
        prev = 1
        kk = 1
        while prev < size:
            c = sum(1 for x in sylow if ords[x] <= r ** kk)
            m = 0
            t = c // prev
            while t > 1:
                t //= r
                m += 1
            parts_geq.append(m)
            prev = c
            kk += 1
        sizes: list[int] = []
        for idx, geq in enumerate(parts_geq):
            nxt = parts_geq[idx + 1] if idx + 1 < len(parts_geq) else 0
            sizes.extend([idx + 1] * (geq - nxt))
        sizes.sort(reverse=True)
        sub: dict = {identity: True}
        for lam in sizes:
            target = r ** lam
            chosen = None
            for x in sylow:
                if ords[x] != target:
                    continue
                socle_gen = _pow(x, target // r, op, identity)
                # <x> meets <basis so far> trivially iff no socle element lands in it
                ok = True
                y = socle_gen
                for _ in range(r - 1):
                    if y in sub:
                        ok = False
                        break
                    y = op(y, socle_gen)
                if ok:
                    chosen = x
                    break
            if chosen is None:
                raise GroupError("basis extraction failed; group not abelian?")
            new_sub: dict = {}
            pw = identity
            for _ in range(target):
                for h in sub:
                    new_sub[op(h, pw)] = True
                pw = op(pw, chosen)
            sub = new_sub
            basis.append(chosen)
            orders.append(target)
        if len(sub) != size:
            raise GroupError("Sylow basis does not span")
    # exponent-vector table
    dlog: dict = {identity: (0,) * len(basis)}
    for j, (g, o) in enumerate(zip(basis, orders)):
        table = list(dlog.items())
        pw = identity
        vec_unit = tuple(int(i == j) for i in range(len(basis)))
        for e in range(1, o):
            pw = op(pw, g)
            for elt, vec in table:
                dlog[op(elt, pw)] = tuple(a + e * b for a, b in zip(vec, vec_unit))
    if len(dlog) != n:
        raise GroupError("dlog table incomplete; element list not a group?")
    return basis, orders, dlog


@dataclass(frozen=True)
class AbelianGroupStructure:
    """Smith-chain presentation n_1 | n_2 | ... with concrete generators."""

    invariants: tuple[int, ...]
    generators: tuple

    @property
    def order(self) -> int:
        return prod(self.invariants) if self.invariants else 1

    def to_dict(self) -> dict:
        return {"invariants": list(self.invariants),
                "order": self.order,
                "generators": [str(g) for g in self.generators]}
