"""Finite abelian group machinery shared by the residue-ring and
quadratic-form modules: integer Smith normal form with tracked transforms,
quotient presentations, and, for the form class groups, structure recovery
for concretely enumerated groups (one relation walk plus a Smith normal
form).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from math import gcd, lcm, prod
from operator import mul


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
        return prod(self.invariants_full)

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
    """x^k under op for k >= 0, by square-and-multiply; x itself at k = 1."""
    out = None
    while k:
        if k & 1:
            out = x if out is None else op(out, x)
        k >>= 1
        if k:
            x = op(x, x)
    return identity if out is None else out


def _word_product(basis, word, op, identity):
    """The product of basis_i^word_i under op, for exponents word_i >= 0."""
    powers = [_pow(x, k, op, identity) for x, k in zip(basis, word) if k]
    return reduce(op, powers) if powers else identity


def abelian_structure(elements: list, op, identity) -> tuple[list, QuotientPresentation, dict]:
    """Structure of a finite abelian group given all its elements, by one
    relation walk.

    The walk goes through `elements` in input order; each element outside
    the subgroup found so far becomes a generator, and its first power that
    lands in that subgroup gives one relation.  Returns (gens, pres, dlog):
    `pres` is the Smith presentation of the walk's relations, with every
    generator of order dividing len(elements), and dlog maps every element
    to its Smith coordinates `pres.coords(word)`.
    """
    n = len(elements)
    if n == 0:
        raise GroupError("empty element list")
    gens: list = []
    rels: list[list[int]] = []
    # words in the generators so far, shorter words padded with zeros
    words: dict = {identity: ()}
    for x in elements:
        if len(words) >= n:
            break
        if x in words:
            continue
        j = len(gens)
        gens.append(x)
        powers = [identity]
        y = x
        while y not in words:
            powers.append(y)
            y = op(y, x)
        # x^k = y with k = len(powers), and y has a word in the earlier gens
        rel = words[y]
        rels.append([-a for a in rel] + [0] * (j - len(rel)) + [len(powers)])
        subgroup = list(words.items())
        for i, c in enumerate(powers[1:], 1):
            for h, w in subgroup:
                words[op(h, c)] = w + (0,) * (j - len(w)) + (i,)
    if len(words) != n:
        raise GroupError("the elements are not a group under op")
    r = len(gens)
    pres = QuotientPresentation.from_relations(
        [n] * r, [rel + [0] * (r - len(rel)) for rel in rels])
    dlog = {x: pres.coords(w + (0,) * (r - len(w))) for x, w in words.items()}
    return gens, pres, dlog


@dataclass(frozen=True)
class AbelianGroupStructure:
    """Smith-chain presentation n_1 | n_2 | ... with concrete generators."""

    invariants: tuple[int, ...]
    generators: tuple

    @property
    def order(self) -> int:
        return prod(self.invariants)

    def to_dict(self) -> dict:
        return {"invariants": list(self.invariants),
                "order": self.order,
                "generators": [str(g) for g in self.generators]}
