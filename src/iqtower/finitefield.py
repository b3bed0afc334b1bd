"""Deterministic finite extension fields F_{p^t}.

The modulus of F_{p^t} is the lexicographically smallest monic irreducible
polynomial f of degree t over F_p, coefficients compared constant term
first.  Elements are coefficient tuples (low degree first).

Multiplication has one path: the numpy convolution of the two coefficient
vectors, reduced mod p, and a fold of its t - 1 high coefficients through
a (t-1) x t matrix whose row k is x^(t+k) mod f, built once per field.
Inverses are Fermat powers.  Arrays are int64 when t*(p-1)^2 < 2^63, which
bounds every convolution and fold sum, and Python integers otherwise, so
arithmetic is exact for every p and t.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np

from .abgroup import _pow


class FieldError(ValueError):
    pass


def _dtype(p: int, t: int):
    """int64 when no sum of t products of residues mod p can overflow it."""
    return np.int64 if t * (p - 1) ** 2 < 2 ** 63 else object


def _poly_eval(coeffs, x: int, p: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % p
    return acc


def _poly_gcd(a: list[int], b: list[int], p: int, dtype) -> list[int]:
    """Monic gcd in F_p[x]; numpy-vectorized long division steps."""
    a = np.array(a, dtype=dtype) % p
    b = np.array(b, dtype=dtype) % p

    def deg_np(u):
        nz = np.nonzero(u)[0]
        return int(nz[-1]) if len(nz) else -1

    da, db = deg_np(a), deg_np(b)
    if da < db:
        a, b, da, db = b, a, db, da
    while db >= 0:
        inv = pow(int(b[db]), -1, p)
        while da >= db:
            f = int(a[da]) * inv % p
            if f:
                a[da - db:da + 1] = (a[da - db:da + 1] - f * b[:db + 1]) % p
            while da >= 0 and a[da] == 0:
                da -= 1
        a, b, da, db = b, a, db, da
    if da < 0:
        return [0]
    inv = pow(int(a[da]), -1, p)
    return [int(c) * inv % p for c in a[:da + 1]]


class FiniteField:
    """F_p[x]/(f_t) with the deterministic modulus described above."""

    def __init__(self, p: int, t: int, _modulus: tuple[int, ...]):
        self.p = p
        self.t = t
        self.modulus = _modulus          # low coefficients of monic f, len t
        self.order = p ** t
        self.dtype = _dtype(p, t)
        # row k is x^(t+k) mod f: x^t = -(low part of f), and each next row
        # shifts up one degree and folds its x^t coefficient back
        self._fold = np.zeros((t - 1, t), dtype=self.dtype)
        row = -np.array(_modulus, dtype=self.dtype) % p
        for k in range(t - 1):
            self._fold[k] = row
            top = row[-1]
            row = np.roll(row, 1)
            row[0] = 0
            row = (row + top * self._fold[0]) % p

    def __repr__(self) -> str:
        return f"GF({self.p}^{self.t})"

    # -- element constructors -------------------------------------------------
    def element(self, coeffs) -> "FFElement":
        c = tuple(int(v) % self.p for v in coeffs)
        if len(c) != self.t:
            raise FieldError(f"need {self.t} coefficients")
        return FFElement(self, c)

    def lift(self, n: int) -> "FFElement":
        return self.element((n,) + (0,) * (self.t - 1))

    def zero(self) -> "FFElement":
        return self.lift(0)

    def one(self) -> "FFElement":
        return self.lift(1)

    def gen(self) -> "FFElement":
        if self.t == 1:
            # F_p with modulus x: the class of x is 0
            return self.zero()
        return self.element((0, 1) + (0,) * (self.t - 2))

    def iter_elements(self):
        """All elements in ascending coefficient-lexicographic order."""
        for tup in itertools.product(range(self.p), repeat=self.t):
            yield FFElement(self, tup)

    # -- arithmetic core ------------------------------------------------------
    def _mul(self, a: "FFElement", b: "FFElement") -> tuple[int, ...]:
        t, p = self.t, self.p
        conv = np.convolve(a._as_array(), b._as_array()) % p
        return tuple(((conv[:t] + conv[t:] @ self._fold) % p).tolist())


class FFElement:
    __slots__ = ("field", "coeffs", "_arr")

    def __init__(self, field: FiniteField, coeffs: tuple[int, ...]):
        self.field = field
        self.coeffs = coeffs
        self._arr = None

    def _as_array(self) -> np.ndarray:
        if self._arr is None:
            self._arr = np.array(self.coeffs, dtype=self.field.dtype)
        return self._arr

    def __eq__(self, other) -> bool:
        return (isinstance(other, FFElement) and other.field is self.field
                and other.coeffs == self.coeffs)

    def __hash__(self) -> int:
        return hash((id(self.field), self.coeffs))

    def __add__(self, other: "FFElement") -> "FFElement":
        p = self.field.p
        return FFElement(self.field, tuple((a + b) % p for a, b
                                           in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "FFElement") -> "FFElement":
        p = self.field.p
        return FFElement(self.field, tuple((a - b) % p for a, b
                                           in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "FFElement":
        p = self.field.p
        return FFElement(self.field, tuple(-a % p for a in self.coeffs))

    def __mul__(self, other: "FFElement") -> "FFElement":
        if other.field is not self.field:
            raise FieldError("elements of different fields")
        return FFElement(self.field, self.field._mul(self, other))

    def __pow__(self, k: int) -> "FFElement":
        if k < 0:
            return self.inverse() ** (-k)
        return _pow(self, k, FFElement.__mul__, self.field.one())

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def inverse(self) -> "FFElement":
        if self.is_zero():
            raise FieldError("inverse of zero")
        return self ** (self.field.order - 2)

    def __repr__(self) -> str:
        return f"FF({self.field.p}^{self.field.t}){self.coeffs}"


def _is_irreducible(p: int, coeffs: tuple[int, ...]) -> bool:
    """Monic f = x^t + sum coeffs[i] x^i irreducible over F_p?

    Any reducible monic polynomial has an irreducible factor of degree
    <= t/2, caught by gcd(x^(p^k) - x, f) at k = that degree; linear factors
    are pre-screened by evaluation.
    """
    t = len(coeffs)
    if t == 1:
        return True
    if coeffs[0] == 0:
        return False
    for a in range(p):
        if _poly_eval(coeffs + (1,), a, p) == 0:
            return False
    if t in (2, 3):
        return True
    F = FiniteField(p, t, coeffs)
    x = F.gen()
    y = x
    f_full = list(coeffs) + [1]
    batch = F.one()
    for k in range(1, t // 2 + 1):
        y = y ** p
        if k == 1:
            continue   # linear factors already excluded
        diff = y - x
        if diff.is_zero():
            return False
        # batch the degree checks: gcd(f, prod of differences) != 1 iff some
        # factor degree falls in the batch
        batch = batch * diff
        if k % 8 == 0 or k == t // 2:
            if batch.is_zero() or _poly_gcd(list(batch.coeffs), f_full, p, F.dtype) != [1]:
                return False
            batch = F.one()
    return True


@lru_cache(maxsize=None)
def finite_field(p: int, t: int) -> FiniteField:
    """F_{p^t} with the lexicographically smallest irreducible modulus
    (constant coefficient most significant; c0 = 0 is never irreducible
    for t >= 2 and is skipped structurally)."""
    if t < 1:
        raise FieldError("degree must be >= 1")
    if t == 1:
        return FiniteField(p, 1, (0,))
    for c0 in range(1, p):
        for rest in itertools.product(range(p), repeat=t - 1):
            tail = (c0,) + rest
            if _is_irreducible(p, tail):
                return FiniteField(p, t, tail)
    raise FieldError(f"no irreducible polynomial found for p={p}, t={t}")
