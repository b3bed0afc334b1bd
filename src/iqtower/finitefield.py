"""Deterministic finite extension fields F_{p^t}.

The modulus of F_{p^t} is the lexicographically smallest monic irreducible
polynomial of degree t over F_p, coefficients compared constant term first.
Elements are coefficient tuples (low degree first).  Multiplication uses
schoolbook convolution for small degrees and exact int64 numpy convolution
above that; the lex-smallest modulus is sparse in practice, so reduction
folds the high part through the few nonzero modulus coefficients.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np

from .abgroup import _pow

_NUMPY_DEGREE = 48


class FieldError(ValueError):
    pass


def _poly_eval(coeffs, x: int, p: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % p
    return acc


def _deg(u) -> int:
    d = len(u) - 1
    while d >= 0 and u[d] == 0:
        d -= 1
    return d


def _poly_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    """Monic gcd in F_p[x]; numpy-vectorized long division steps."""
    a = np.array(a, dtype=np.int64) % p
    b = np.array(b, dtype=np.int64) % p

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
        self._mod_nz = [(j, c) for j, c in enumerate(_modulus) if c]
        self._f_full = None              # lazy: full coefficient vector of f
        self._barrett = None             # lazy: inverse of rev(f) mod x^(t-1)

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
    def _barrett_inverse(self) -> np.ndarray:
        """Newton inverse of the reversed modulus mod x^(t-1); monic f makes
        the constant term of rev(f) equal to 1."""
        if self._barrett is None:
            t, p = self.t, self.p
            self._f_full = np.concatenate(
                [np.array(self.modulus, dtype=np.int64), np.array([1], dtype=np.int64)])
            frev = self._f_full[::-1].copy()
            need = max(t - 1, 1)
            g = np.array([1], dtype=np.int64)
            k = 1
            while k < need:
                k = min(2 * k, need)
                fg = np.convolve(frev[:k], g)[:k] % p
                corr = (-fg) % p
                corr[0] = (2 - fg[0]) % p
                g = np.convolve(g, corr)[:k] % p
            self._barrett = g
        return self._barrett

    def _reduce_np(self, arr: np.ndarray) -> tuple[int, ...]:
        # Barrett-style division: the quotient falls out of a truncated
        # product against the precomputed inverse of the reversed modulus
        t, p = self.t, self.p
        arr = np.asarray(arr, dtype=np.int64) % p
        if len(arr) <= t:
            out = np.zeros(t, dtype=np.int64)
            out[:len(arr)] = arr
            return tuple(int(v) for v in out)
        buf = np.zeros(2 * t - 1, dtype=np.int64)
        buf[:len(arr)] = arr
        Q = t - 1
        g = self._barrett_inverse()
        qrev = np.convolve(buf[::-1][:Q], g)[:Q] % p
        q = qrev[::-1]
        corr = np.convolve(q, self._f_full)
        rem = (buf[:t] - corr[:t]) % p
        return tuple(rem.tolist())

    def _mul(self, a: "FFElement", b: "FFElement") -> tuple[int, ...]:
        t, p = self.t, self.p
        if t > _NUMPY_DEGREE:
            prod = np.convolve(a._as_array(), b._as_array())
            return self._reduce_np(prod)
        aa, bb = a.coeffs, b.coeffs
        out = [0] * (2 * t - 1)
        for i, ai in enumerate(aa):
            if ai:
                for j, bj in enumerate(bb):
                    out[i + j] += ai * bj
        for i in range(len(out) - 1, t - 1, -1):
            c = out[i] % p
            if c:
                for j, fj in self._mod_nz:
                    out[i - t + j] = (out[i - t + j] - c * fj) % p
        return tuple(v % p for v in out[:t])


class FFElement:
    __slots__ = ("field", "coeffs", "_arr")

    def __init__(self, field: FiniteField, coeffs: tuple[int, ...]):
        self.field = field
        self.coeffs = coeffs
        self._arr = None

    def _as_array(self) -> np.ndarray:
        if self._arr is None:
            self._arr = np.array(self.coeffs, dtype=np.int64)
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
        F = self.field
        if F.t > _NUMPY_DEGREE:
            return self ** (F.order - 2)
        p, t = F.p, F.t

        def polymul(u, v):
            out = [0] * (len(u) + len(v) - 1)
            for i, ui in enumerate(u):
                if ui:
                    for j, vj in enumerate(v):
                        out[i + j] = (out[i + j] + ui * vj) % p
            return out

        def polysub(u, v):
            out = list(u) + [0] * (len(v) - len(u))
            for i, vi in enumerate(v):
                out[i] = (out[i] - vi) % p
            return out

        r0, r1 = list(F.modulus) + [1], list(self.coeffs)
        s0, s1 = [0], [1]
        while _deg(r1) >= 0:
            d0, d1 = _deg(r0), _deg(r1)
            if d0 < d1:
                r0, r1, s0, s1 = r1, r0, s1, s0
                continue
            lead = r0[d0] * pow(r1[d1], -1, p) % p
            q = [0] * (d0 - d1) + [lead]
            r0 = polysub(r0, polymul(q, r1))
            s0 = polysub(s0, polymul(q, s1))
            if _deg(r0) < _deg(r1):
                r0, r1, s0, s1 = r1, r0, s1, s0
        if _deg(r0) != 0:
            raise FieldError("element not invertible (modulus not irreducible?)")
        cinv = pow(r0[0], -1, p)
        out = [v * cinv % p for v in s0] + [0] * t
        return FFElement(F, tuple(out[:t]))

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
    pending = False
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
        pending = True
        if k % 8 == 0 or k == t // 2:
            if batch.is_zero() or _poly_gcd(list(batch.coeffs), f_full, p) != [1]:
                return False
            batch = F.one()
            pending = False
    if pending:
        if batch.is_zero() or _poly_gcd(list(batch.coeffs), f_full, p) != [1]:
            return False
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
