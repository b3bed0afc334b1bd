"""Deterministic finite extension fields F_{p^t}.

The modulus of F_{p^t} is the lexicographically smallest monic irreducible
polynomial f of degree t over F_p, coefficients compared constant term
first.  Elements are coefficient tuples (low degree first).

The search tests candidates on bare arrays.  A screen first rules out
irreducible factors of degree <= d, d = 1 for t <= 3 and d = 2 beyond,
which decides every t <= 5.  While F_{p^d} has at most SCREEN_POINTS_MAX
points, the screen is one product of the candidate's coefficients with a
table of alpha^i for every alpha in F_{p^d}, built once per search; above
that it is gcd(x^(p^d) - x, f) = 1 by repeated squaring, so no step loops
over the points of F_p.  The candidates of degree t >= 6 that pass go to
Rabin's test (M. O. Rabin, SIAM J. Comput. 9, 1980): f is irreducible iff
x^(p^t) = x mod f and gcd(x^(p^(t/r)) - x, f) = 1 for each prime r | t.  A
Frobenius step y -> y^p is one product y @ Q mod p with the matrix Q whose
row i is x^(i*p) mod f (Cohen, GTM 138, 3.4), built from the matrix of
multiplication by x^p.  The gcds run only for the candidates that pass
x^(p^t) = x, and only the winner becomes a FiniteField.

Multiplication has one path: the numpy convolution of the two coefficient
vectors, reduced mod p, and a fold of its t - 1 high coefficients through
a (t-1) x t matrix whose row k is x^(t+k) mod f, built once per field by
the same shift recurrence that builds the search's matrices.  Inverses
are Fermat powers.  Arrays are int64 when t*(p-1)^2 < 2^63, which bounds
every convolution, fold and Frobenius sum, and Python integers otherwise,
so arithmetic is exact for every p and t.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .abgroup import _pow


# the screen evaluates candidates at every point of F_{p^d} while there are
# at most this many, and takes gcd(x^(p^d) - x, f) beyond: the measured
# crossover lies between 4,000 and 8,000 points for 2 <= t <= 200
SCREEN_POINTS_MAX = 2 ** 12


class FieldError(ValueError):
    pass


def _dtype(p: int, t: int):
    """int64 when no sum of t products of residues mod p can overflow it."""
    return np.int64 if t * (p - 1) ** 2 < 2 ** 63 else object


def _poly_gcd(a: list[int], b: list[int], p: int, dtype) -> list[int]:
    """Monic gcd in F_p[x] of a and b, not both zero, by numpy long division."""
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
    inv = pow(int(a[da]), -1, p)
    return [int(c) * inv % p for c in a[:da + 1]]


def _shift_rows(row: np.ndarray, low: np.ndarray, count: int, p: int) -> np.ndarray:
    """Rows x^(s+j) mod f for j < count, given row = x^s mod f and low =
    x^t mod f: each next row shifts up one degree and folds its x^t
    coefficient back through low."""
    rows = np.empty((count, len(row)), dtype=row.dtype)
    for j in range(count):
        rows[j] = row
        top = row[-1]
        row = top * low
        row[1:] += rows[j, :-1]
        row %= p
    return rows


def _mul_mod(a: np.ndarray, b: np.ndarray, fold: np.ndarray, p: int) -> np.ndarray:
    """a*b mod f: the convolution's t - 1 high coefficients folded through
    the rows x^(t+k) mod f."""
    t = len(a)
    conv = np.convolve(a, b) % p
    return (conv[:t] + conv[t:] @ fold) % p


def _prime_divisors(n: int) -> list[int]:
    out, r = [], 2
    while r * r <= n:
        if n % r == 0:
            out.append(r)
            while n % r == 0:
                n //= r
        r += 1
    return out + [n] if n > 1 else out


class FiniteField:
    """F_p[x]/(f_t) with the deterministic modulus described above."""

    def __init__(self, p: int, t: int, _modulus: tuple[int, ...]):
        self.p = p
        self.t = t
        self.modulus = _modulus          # low coefficients of monic f, len t
        self.order = p ** t
        self.dtype = _dtype(p, t)
        # row k is x^(t+k) mod f, starting from x^t = -(low part of f)
        low = -np.array(_modulus, dtype=self.dtype) % p
        self._fold = _shift_rows(low, low, t - 1, p)

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

    # -- arithmetic core ------------------------------------------------------
    def _mul(self, a: "FFElement", b: "FFElement") -> tuple[int, ...]:
        return tuple(_mul_mod(a._as_array(), b._as_array(), self._fold, self.p).tolist())


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


def _small_factor_screen(p: int, t: int):
    """A test of monic f of degree t >= 2, given by its low coefficients:
    True iff f has no irreducible factor of degree <= d, with d = 1 for
    t <= 3 and d = 2 beyond, i.e. no root in F_{p^d}.

    While p^d <= SCREEN_POINTS_MAX, f(alpha) for every alpha = a + b*theta
    in F_{p^d} is one product of f's coefficients with a (t+1) x 2p^d table
    whose row i holds both coordinates of alpha^i (theta^2 = the least
    non-residue for odd p, theta^2 = theta + 1 for p = 2).  Beyond, the same
    test is gcd(x^(p^d) - x, f) = 1, by O(d log p) products mod f and no
    per-point data.
    """
    d = 1 if t <= 3 else 2
    n = p ** d
    dtype = _dtype(p, t + 1)
    if n <= SCREEN_POINTS_MAX:
        b, a = np.divmod(np.arange(n, dtype=dtype), p)
        if p == 2:
            nr, s = 1, 1
        else:
            square = np.zeros(p, dtype=bool)
            square[np.arange(p, dtype=dtype) ** 2 % p] = True
            nr, s = int(np.argmin(square)), 0
        # (u + v theta)(a + b theta) = (u a + v nr b) + (u b + v (a + s b)) theta
        # for theta^2 = nr + s theta
        nb, ab = nr * b % p, (a + s * b) % p
        table = np.empty((t + 1, 2 * n), dtype=dtype)
        u, v = np.ones(n, dtype=dtype), np.zeros(n, dtype=dtype)
        for row in table:
            row[:n], row[n:] = u, v
            u, v = (u * a + v * nb) % p, (u * b + v * ab) % p

        def screen(coeffs) -> bool:
            vals = np.array(coeffs + (1,), dtype=dtype) @ table % p
            return not np.any((vals[:n] == 0) & (vals[n:] == 0))
        return screen

    one, x = np.zeros((2, t), dtype=dtype)
    one[0] = x[1] = 1

    def screen(coeffs) -> bool:
        low = -np.array(coeffs, dtype=dtype) % p
        fold = _shift_rows(low, low, t - 1, p)
        y = x
        for _ in range(d):
            y = _pow(y, p, lambda a, b: _mul_mod(a, b, fold, p), one)
        return _poly_gcd((y - x).tolist(), list(coeffs) + [1], p, dtype) == [1]
    return screen


def _is_irreducible(p: int, coeffs: tuple[int, ...], screen=None) -> bool:
    """Monic f = x^t + sum coeffs[i] x^i, t >= 2, irreducible over F_p?

    The screen (built here unless the search passes its own) rules out
    factors of degree <= 2, or <= 1 for t <= 3, which settles t <= 5: a
    reducible polynomial of degree <= 5 has a factor of degree <= 2.
    Beyond that, Rabin's test: f is irreducible iff x^(p^t) = x mod f and
    gcd(x^(p^(t/r)) - x, f) = 1 for every prime r | t.  The Frobenius steps
    y -> y^p are y @ Q mod p, where row i of Q is x^(i*p) mod f; the gcds
    run only for the few f that pass the first condition.
    """
    t = len(coeffs)
    if not (screen or _small_factor_screen(p, t))(coeffs):
        return False
    if t <= 5:
        return True
    dtype = _dtype(p, t)
    one, x = np.zeros((2, t), dtype=dtype)
    one[0] = x[1] = 1
    low = -np.array(coeffs, dtype=dtype) % p          # x^t mod f
    fold = _shift_rows(low, low, min(p, t - 1), p)    # x^t, x^(t+1), ...
    # M, the matrix of multiplication by x^p: row j is x^(p+j) mod f
    if p < t:
        M = np.zeros((t, t), dtype=dtype)
        M[np.arange(t - p), np.arange(p, t)] = 1
        M[t - p:] = fold
    else:
        M = _shift_rows(_pow(x, p, lambda a, b: _mul_mod(a, b, fold, p), one), low, t, p)
    # Q: row i is x^(i*p) mod f, a monomial while i*p < t
    k = -(-t // p)
    Q = np.zeros((t, t), dtype=dtype)
    Q[np.arange(k), np.arange(0, t, p)] = 1
    for i in range(k, t):
        Q[i] = Q[i - 1] @ M % p
    frobenius = [Q[1]]             # frobenius[j] is x^(p^(j+1)) mod f
    for _ in range(t - 1):
        frobenius.append(frobenius[-1] @ Q % p)
    if not np.array_equal(frobenius[-1], x):
        return False
    f_full = list(coeffs) + [1]
    return all(_poly_gcd((frobenius[t // r - 1] - x).tolist(), f_full, p, dtype) == [1]
               for r in _prime_divisors(t))


@lru_cache(maxsize=None)
def finite_field(p: int, t: int) -> FiniteField:
    """F_{p^t} with the lexicographically smallest irreducible modulus
    (constant coefficient most significant; c0 = 0 is never irreducible
    for t >= 2 and is skipped structurally)."""
    if t < 1:
        raise FieldError("degree must be >= 1")
    if t == 1:
        return FiniteField(p, 1, (0,))
    screen = _small_factor_screen(p, t)
    # the candidates in that order are the t base-p digits of a counter,
    # most significant first, from (1, 0, ..., 0) on; irreducible
    # polynomials of degree t exist, so the counter stops before it wraps
    tail = [1] + [0] * (t - 1)
    while not _is_irreducible(p, tuple(tail), screen):
        i = t - 1
        while tail[i] == p - 1:
            tail[i] = 0
            i -= 1
        tail[i] += 1
    return FiniteField(p, t, tuple(tail))
