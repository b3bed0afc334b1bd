"""Deterministic finite extension fields F_{p^t}.

The modulus of F_{p^t} is the lexicographically smallest monic irreducible
polynomial f of degree t over F_p, coefficients compared constant term
first.  Elements are coefficient tuples (low degree first).

The search takes the candidates BLOCK_CANDIDATES at a time, as the rows
of one array of the base-p digits of a counter.  While F_{p^d} has at most
SCREEN_POINTS_MAX points, a table of them screens out the rows with an
irreducible factor of degree <= d, d = 2 (1 for t <= 3), which decides
every t <= 5 (_small_factor_screen); the rows of degree t >= 6 that pass
go to Rabin's test as one stack.  Beyond the table's reach Rabin's test
alone decides, at every t >= 2, one row at a time.  It goes through the
matrices Q of the Frobenius y -> y^p (_frobenius_matrix, _irreducible_rows).
The first row, in counter order, that passes becomes a FiniteField, which
keeps its Q; a field the search gave none builds Q on first use.

A product is the numpy convolution of the two coefficient vectors with
its t - 1 high coefficients folded through the rows x^(t+k) mod f, built
once per field.  Powers have one routine, FiniteField._power: while
p <= t, Horner over the base-p digits of the exponent through Q, beyond
that square-and-multiply.  Inverses are Fermat powers.  Arrays are int64
when t*(p-1)^2 < 2^63, which bounds every convolution, fold and Frobenius
sum, and Python integers otherwise; the matrix products of the search and
of unity_image's walk run in float64 on BLAS while their sums stay below
2^53 (_exact_dtype, _matmul_mod), so arithmetic is exact for every p and t.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate

import numpy as np
from sympy import primefactors

from .abgroup import _pow


# the screen evaluates candidates at every point of F_{p^d} while there are
# at most this many; beyond, Rabin's test alone decides, one row at a time
SCREEN_POINTS_MAX = 2 ** 12

# the search tests this many candidates at a time.  A block of t measured
# the same up to t = 64 and slower from t = 80 on (7-22% at t = 80, 23-80%
# at t = 128, for p = 5, 13, 23): there the stack of Rabin matrices outgrows
# the cache, and the rows after the winner cost more than the passes a
# larger block saves
BLOCK_CANDIDATES = 32


class FieldError(ValueError):
    pass


def _exact_dtype(bound: int, floats: bool = False):
    """The dtype that holds every integer below bound, the caller's largest
    value, exactly: float64 below 2^53 if floats (BLAS products, exact in
    any order of summation), int64 below 2^63, Python integers beyond."""
    if floats and bound < 2 ** 53:
        return np.float64
    return np.int64 if bound < 2 ** 63 else object


def _matmul_mod(a: np.ndarray, b: np.ndarray, p: int, c=None) -> np.ndarray:
    """(a @ b + c) mod p, in int64 or Python integers, for residues a, c and
    b in its caller's _exact_dtype: a float64 b runs on BLAS, reduced
    through int64, several times faster than np.fmod."""
    out = a.astype(b.dtype, copy=False) @ b
    if c is not None:
        out += c
    return (out.astype(np.int64) if out.dtype == np.float64 else out) % p


def _poly_gcd(a: list[int], b: list[int], p: int, dtype) -> list[int]:
    """Monic gcd in F_p[x] of a and b, not both zero, by numpy long division:
    the gcds of Rabin's test."""
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
    coefficient back through low.  A stack of rows and lows, shape (S, t),
    gives a stack of row blocks, shape (S, count, t)."""
    rows = np.empty(row.shape[:-1] + (count, row.shape[-1]), dtype=row.dtype)
    for j in range(count):
        rows[..., j, :] = row
        row = row[..., -1:] * low
        row[..., 1:] += rows[..., j, :-1]
        row %= p
    return rows


def _mul_mod(a: np.ndarray, b: np.ndarray, fold: np.ndarray, p: int) -> np.ndarray:
    """a*b mod f: the convolution's t - 1 high coefficients folded through
    the rows x^(t+k) mod f."""
    t = len(a)
    conv = np.convolve(a, b) % p
    return (conv[:t] + conv[t:] @ fold) % p


def _mul_matrices(y: np.ndarray, fold: np.ndarray, p: int) -> np.ndarray:
    """The matrices of z -> z*y mod f for a stack y (..., t): y laid in rows
    of length 2t, read back in rows of length 2t - 1 so that row i is
    x^i * y, with degrees >= t folded through fold (rows x^(t+k) mod f)."""
    *S, t = y.shape
    T = np.zeros((*S, t, 2 * t), dtype=y.dtype)
    T[..., :t] = y[..., None, :]
    T = T.reshape(*S, -1)[..., :t * (2 * t - 1)].reshape(*S, t, 2 * t - 1)
    return _matmul_mod(T[..., t:], fold, p, T[..., :t])


class FiniteField:
    """F_p[x]/(f_t) with the deterministic modulus described above."""

    def __init__(self, p: int, t: int, _modulus: tuple[int, ...], _frobenius=None):
        self.p = p
        self.t = t
        self.modulus = _modulus          # low coefficients of monic f, len t
        self.order = p ** t
        self.dtype = _exact_dtype(t * (p - 1) ** 2)      # a convolution sums t products
        # row k is x^(t+k) mod f, starting from x^t = -(low part of f)
        low = -np.array(_modulus, dtype=self.dtype) % p
        self._fold = _shift_rows(low, low, t - 1, p)
        self._frobenius = _frobenius     # Q for f, from the search or on first use

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
    def _mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return _mul_mod(a, b, self._fold, self.p)

    def _power(self, y: np.ndarray, e: int) -> np.ndarray:
        """y^e for e >= 0, on bare arrays.  Square-and-multiply takes about
        1.5*log2(p) products per base-p digit of e.  While p <= t, Horner over
        the digits takes one acc @ Q, cheaper than a product, and at most one
        product with y^d per digit, after at most p - 2 < t products for the
        table of y^d: a cofactor power, e < p^t, takes fewer than 2t products."""
        p, one = self.p, np.eye(1, self.t, dtype=self.dtype)[0]
        if p > self.t:
            return _pow(y, e, self._mul, one)
        if self._frobenius is None:
            self._frobenius = _frobenius_matrix(p, np.array([self.modulus], dtype=self.dtype))[0]
        digits = []
        while e:
            e, d = divmod(e, p)
            digits.append(d)
        table = [one, *accumulate([y] * (max(digits, default=1) - 1), self._mul, initial=y)]
        acc = table[digits.pop()] if digits else one
        for d in reversed(digits):
            acc = acc @ self._frobenius % p
            if d:
                acc = self._mul(acc, table[d])
        return acc


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
        return FFElement(self.field, tuple(self.field._mul(self._as_array(),
                                                           other._as_array()).tolist()))

    def __pow__(self, k: int) -> "FFElement":
        if k < 0:
            return self.inverse() ** (-k)
        return FFElement(self.field, tuple(self.field._power(self._as_array(), k).tolist()))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def inverse(self) -> "FFElement":
        if self.is_zero():
            raise FieldError("inverse of zero")
        return self ** (self.field.order - 2)

    def __repr__(self) -> str:
        return f"FF({self.field.p}^{self.field.t}){self.coeffs}"


def _small_factor_screen(p: int, t: int):
    """A test of a stack of monic f of degree t >= 2, the rows of their low
    coefficients: it yields the array of the indices of the rows with no
    irreducible factor of degree <= d, with d = 1 for t <= 3 and d = 2
    beyond, i.e. no root in F_{p^d}.  None when F_{p^d} has more than
    SCREEN_POINTS_MAX points: there Rabin's test alone decides.

    f(alpha) for every row and every alpha = a + b*theta in F_{p^d} is one
    product of the stack with a (t+1) x 2p^d table whose row i holds both
    coordinates of alpha^i (theta^2 = the least non-residue for odd p,
    theta^2 = theta + 1 for p = 2).
    """
    d = 1 if t <= 3 else 2
    n = p ** d
    if n > SCREEN_POINTS_MAX:
        return None
    dtype = _exact_dtype((t + 1) * (p - 1) ** 2)    # f(alpha) sums t + 1 products
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
    table = table.astype(_exact_dtype((t + 1) * (p - 1) ** 2, floats=True), copy=False)

    def screen(rows):
        vals = _matmul_mod(np.asarray(rows, dtype=dtype), table[:t], p, table[t])
        yield np.flatnonzero(~np.any((vals[:, :n] == 0) & (vals[:, n:] == 0), axis=1))
    return screen


def _frobenius_matrix(p: int, f: np.ndarray) -> np.ndarray:
    """The matrices Q of y -> y^p mod f, shape (S, t, t), for the whole
    (S, t) stack f of low coefficients at once: y^p = y @ Q mod p.

    Row i of Q is x^(i*p) mod f (Cohen, GTM 138, 3.4): a monomial while
    i*p < t, and beyond that Q[i] = Q[i-1] @ M, M the matrix of
    multiplication by x^p, whose row j is x^(p+j) mod f.  For p < t the
    first t - p rows of M are unit vectors, so Q[i] is Q[i-1] shifted up p
    degrees plus its top p coefficients times the rows x^t, ..., x^(t+p-1):
    O(p*t) per row, not O(t^2).  For p >= t, x^p mod f comes by
    square-and-multiply of one-row products (_mul_mod), row by row.
    """
    S, t = f.shape
    low = -f % p                                      # x^t mod f
    k = -(-t // p)
    Q = np.zeros((S, t, t), dtype=f.dtype)
    Q[:, np.arange(k), np.arange(0, t, min(p, t))] = 1   # min: p may pass int64
    if p < t:
        fold = _shift_rows(low, low, p, p)            # (S, p, t)
        fold = fold.astype(_exact_dtype((p + 1) * (p - 1) ** 2, floats=True), copy=False)
        for i in range(k, t):
            y = Q[:, i - 1]
            Q[:, i, p:] = y[:, :t - p]
            Q[:, i] = _matmul_mod(y[:, None, t - p:], fold, p, Q[:, i, None])[:, 0]
    else:
        folds = _shift_rows(low, low, t - 1, p)       # (S, t - 1, t)
        one, x = np.eye(2, t, dtype=f.dtype)
        xp = np.array([_pow(x, p, lambda a, b: _mul_mod(a, b, fold, p), one)
                       for fold in folds])
        dtype = _exact_dtype(t * (p - 1) ** 2, floats=True)
        M = _mul_matrices(xp, folds.astype(dtype, copy=False), p).astype(dtype, copy=False)
        for i in range(k, t):
            Q[:, i] = _matmul_mod(Q[:, i - 1, None], M, p)[:, 0]
    return Q


def _frobenius_powers(p: int, Q: np.ndarray, wanted: list[int]) -> dict[int, np.ndarray]:
    """{j: x^(p^j) mod f} for j in wanted, for a stack Q of _frobenius_matrix."""
    ys, top = [Q[:, 1]], max(wanted)                  # ys[j - 1] = x^(p^j) mod f
    Q = Q.astype(_exact_dtype(Q.shape[-1] * (p - 1) ** 2, floats=True), copy=False)
    while len(ys) < top:
        ys.append(_matmul_mod(ys[-1][:, None], Q, p)[:, 0])
    return {j: ys[j - 1] for j in wanted}


def _irreducible_rows(p: int, rows: np.ndarray, screen):
    """The irreducible rows of a stack of monic f of degree t >= 2, given by
    their low coefficients, in order, as (index, Q of _frobenius_matrix),
    with None for Q where the screen decides alone.

    The screen of _small_factor_screen rules out factors of degree <= 2, or
    <= 1 for t <= 3, which settles t <= 5: a reducible polynomial of degree
    <= 5 has a factor of degree <= 2.  At t >= 6 its survivors go to
    Rabin's test (M. O. Rabin, SIAM J. Comput. 9, 1980) as one stack; with
    no screen every row goes alone, in order, so a caller that stops at a
    row tests no later one.  f is irreducible iff x^(p^t) = x mod f and
    gcd(x^(p^(t/r)) - x, f) = 1 for every prime r | t.  The gcds run row
    by row, only for the rows that pass the first condition, and only as
    far as the caller takes rows.
    """
    t = rows.shape[1]
    dtype = _exact_dtype(t * (p - 1) ** 2)             # Q's products sum t terms
    divisors = primefactors(t)
    x = np.zeros(t, dtype=dtype)
    x[1] = 1
    for passed in screen(rows) if screen else np.arange(len(rows))[:, None]:
        if (screen and t <= 5) or not len(passed):
            yield from ((i, None) for i in passed.tolist())
            continue
        f = rows[passed].astype(dtype)
        Q = _frobenius_matrix(p, f)
        powers = _frobenius_powers(p, Q, [t] + [t // r for r in divisors])
        for s in np.flatnonzero(np.all(powers[t] == x, axis=1)).tolist():
            f_full = f[s].tolist() + [1]
            if all(_poly_gcd((powers[t // r][s] - x).tolist(), f_full, p, dtype) == [1]
                   for r in divisors):
                yield int(passed[s]), Q[s].copy()


def _counter_rows(first: np.ndarray, count: int, p: int) -> np.ndarray:
    """first and the count candidates after it in the search order, as
    rows: the base-p digits, most significant first, of a counter."""
    rows = np.repeat(first[None], count + 1, axis=0)
    rows[:, -1] += np.arange(count + 1)
    for i in range(len(first) - 1, 0, -1):
        carry = rows[:, i] // p
        if not carry.any():
            break
        rows[:, i] -= carry * p
        rows[:, i - 1] += carry
    return rows


@lru_cache(maxsize=None)
def finite_field(p: int, t: int) -> FiniteField:
    """F_{p^t} with the lexicographically smallest irreducible modulus
    (constant coefficient most significant; c0 = 0 is never irreducible
    for t >= 2 and is skipped structurally), found BLOCK_CANDIDATES
    candidates at a time."""
    if t < 1:
        raise FieldError("degree must be >= 1")
    if t == 1:
        return FiniteField(p, 1, (0,))
    screen = _small_factor_screen(p, t)
    # the candidates in that order are the t base-p digits of a counter,
    # most significant first, from (1, 0, ..., 0) on; irreducible
    # polynomials of degree t exist, so the winner comes before the counter
    # wraps, and rows a block holds past the last candidate never win
    first = np.zeros(t, dtype=_exact_dtype((t + 1) * (p - 1) ** 2))   # the screen's dtype
    first[0] = 1
    while True:
        rows = _counter_rows(first, BLOCK_CANDIDATES, p)
        for i, Q in _irreducible_rows(p, rows[:-1], screen):
            return FiniteField(p, t, tuple(rows[i].tolist()), Q)
        first = rows[-1]
