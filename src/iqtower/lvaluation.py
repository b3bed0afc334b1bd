"""Residue-characteristic machinery and numeric Hecke L-series.

The non-vanishing side works in residue fields of characteristic p at a
split prime: a fixed embedding O_K -> F_p (choice of square root of -d
mod p picks the prime above p), images of q-power roots of unity in the
extension F_{p^t} with t = ord(p mod q^m), and the order test on the
residue a = N(lambda) * lambda^(-k) * phi0^(-1) which controls, level by
level, whether the Euler-type factor N(lambda) - lambda^k*phi(sigma) can
vanish mod p.  Valuations are only ever decided as "zero vs positive",
i.e. nonzero vs zero in the residue field.

The L-series side evaluates imprimitive Hecke L-functions of finite-order
ray class characters as truncated ideal sums and truncated Euler products.
One walk over the ideals, in okring's numpy chunks of whole rows with one
representative per ideal, computes both.  Per chunk, one expression per
prime factor of the modulus masks the ideals coprime to it, and the
character and the terms chi(a) N(a)^(-s) are evaluated once, in numpy:
each row's terms are summed on their own, in row order, and the terms at
entries that generate prime ideals divide the product, one division each.
A nontrivial character's prime-power factors run their discrete logs once
per chunk, each a gather from a table of that factor's units, which the
ray class group keeps between chunks and walks.
Both carry rigorous tail bounds from the ideal-count estimate
r_K(n) <= d(n) (valid for every imaginary quadratic field: r_K(n) = sum
over m | n of chi_disc(m), a sum of n/m terms each at most 1).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from functools import lru_cache, reduce
from math import isqrt
from numbers import Integral
from operator import truediv

import numpy as np
from sympy import isprime, n_order
from sympy.ntheory import sqrt_mod

from .abgroup import padic_val
from .finitefield import (FFElement, FieldError, FiniteField, _exact_dtype, _matmul_mod,
                          _mul_matrices, finite_field)
from .okring import FieldTag, OkElement, OkError, _ideal_chunks, omega_residue, split_type
from .rayclass import CharacterSpec, _smith_coords, ray_class_group

# unity_image builds F_{p^t} only up to this degree and raises OkError past it.
EXPLICIT_FIELD_DEGREE_CAP = 400


@dataclass(frozen=True)
class ResidueEmbedding:
    """Reduction O_K -> F_p at a split odd prime, fixed by the root s of
    s^2 = -d (mod p); the kernel is the prime (p, sqrt(-d) - s)."""

    tag: FieldTag
    p: int
    root: int

    @classmethod
    def create(cls, tag: FieldTag, p: int, root: int | None = None) -> "ResidueEmbedding":
        if p == 2 or not isprime(p):
            raise OkError("p must be an odd prime")
        if split_type(tag, p) != "split":
            raise OkError(f"{p} does not split in Q(sqrt(-{tag.d}))")
        roots = sorted(sqrt_mod(-tag.d % p, p, all_roots=True))
        if root is None:
            root = roots[0]
        elif root % p not in roots:
            raise OkError(f"{root} is not a square root of {-tag.d} mod {p}")
        return cls(tag, p, root % p)

    @property
    def omega_image(self) -> int:
        if self.tag.omega_is_half:
            return (1 + self.root) * pow(2, -1, self.p) % self.p
        return self.root

    def embed(self, e: OkElement) -> int:
        """Ring homomorphism to F_p; kernel is exactly the chosen prime."""
        if e.tag != self.tag:
            raise OkError("element from a different field")
        return (e.x + e.y * self.omega_image) % self.p


def _projection_candidates(p: int, t: int):
    """Deterministic scan order, as coefficient tuples with the constant term
    counting fastest, for the nonzero elements whose cofactor power is
    tested for primitivity.  Past t = 1 the constants are skipped: their
    cofactor powers have orders dividing p - 1, and q^m does not divide
    p - 1 when t = ord(p mod q^m) > 1."""
    for n in range(p if t > 1 else 1, p ** t):
        yield tuple(n // p ** i % p for i in range(t))


def _lex_least(rows: np.ndarray) -> np.ndarray:
    """The coefficient-lexicographically least row, constant term first
    (lexsort's primary key is its last)."""
    return rows[np.lexsort(rows.T[::-1])[0]]


def _check_pqm(p: int, q: int, m: int) -> None:
    """Primes p != q and an exponent m >= 0."""
    if not isprime(q) or not isprime(p):
        raise OkError("p and q must be prime")
    if q == p:
        raise OkError("q = p is excluded: roots of unity collapse mod p")
    if m < 0:
        raise OkError("m must be >= 0")


@lru_cache(maxsize=None)
def unity_image(p: int, q: int, m: int) -> FFElement:
    """A fixed primitive q^m-th root of unity in F_{p^t}, t = ord(p mod q^m):
    the coefficient-lexicographically smallest element of exact order q^m.

    The q^m-torsion of F_{p^t}^x is unique, so the choice does not depend on
    how the subgroup is first reached.  A generator w of it is the cofactor
    power z^((p^t - 1)/q^m) of the first scanned z where that power has
    exact order q^m, taken by FiniteField._power on bare arrays.  The q^m
    powers of w come ceil(sqrt(q^m)) at a time through W, the matrix of
    multiplication by w, and np.lexsort picks the least w^j, q not | j.
    """
    _check_pqm(p, q, m)
    if m == 0:
        return finite_field(p, 1).one()
    qm = q ** m
    t = int(n_order(p, qm))
    if t > EXPLICIT_FIELD_DEGREE_CAP:
        raise OkError(f"splitting field degree {t} exceeds the explicit cap "
                      f"{EXPLICIT_FIELD_DEGREE_CAP}")
    F = finite_field(p, t)
    one = F.one()._as_array()
    cof = (F.order - 1) // qm
    # the scan reaches a generator of F^x, whose cof-th power has order q^m
    w = next(c for c in (F._power(np.array(z, dtype=F.dtype), cof)
                         for z in _projection_candidates(p, t))
             if not np.array_equal(F._power(c, qm // q), one))
    # y @ W is y * w (row i of W is x^i * w mod f); the block holds w^j for
    # k consecutive j, and block @ step moves it on by w^k (past j = q^m
    # the powers repeat, so the last block may overrun)
    fold = F._fold.astype(_exact_dtype(t * (p - 1) ** 2, floats=True), copy=False)
    W = _mul_matrices(w, fold, p)
    k = isqrt(qm - 1) + 1
    block = np.empty((k, t), dtype=F.dtype)
    block[0] = one
    for j in range(1, k):
        block[j] = block[j - 1] @ W % p
    step = _mul_matrices(block[-1] @ W % p, fold, p).astype(fold.dtype, copy=False)
    least = []
    for start in range(0, qm, k):
        least.append(_lex_least(block[(start + np.arange(k)) % q != 0]))
        block = _matmul_mod(block, step, p)
    return F.element(_lex_least(np.array(least)))


def distinctness_check(p: int, q: int, m: int) -> bool:
    """Whether all q^m-th roots of unity stay pairwise distinct under
    reduction mod a prime above p, for primes p != q and m >= 0.

    This always holds, so no field is built: x^(q^m) - 1 is separable mod
    p, since p does not divide q^m, so its derivative q^m x^(q^m - 1) has
    only the root 0, which is not a root of x^(q^m) - 1.
    """
    _check_pqm(p, q, m)
    return True


def _field_images(p: int, *values) -> tuple[FiniteField, list[FFElement]]:
    """The common field of the images, F_p unless some lie in one extension
    F_{p^t}, and the images in it: ints and F_p elements are lifted."""
    if not all(isinstance(v, (Integral, FFElement)) for v in values):
        raise FieldError("images must be integers or finite field elements")
    if any(isinstance(v, FFElement) and v.field.p != p for v in values):
        raise FieldError("wrong characteristic")
    exts = [v.field for v in values if isinstance(v, FFElement) and v.field.t > 1]
    if any(F is not exts[0] for F in exts[1:]):
        raise FieldError("incompatible extension fields; construct the images "
                         "in one common field")
    F = exts[0] if exts else finite_field(p, 1)
    return F, [v if isinstance(v, FFElement) and v.field is F
               else F.lift(v.coeffs[0] if isinstance(v, FFElement) else int(v))
               for v in values]


def euler_residue(emb: ResidueEmbedding, lam: OkElement, k: int) -> int:
    """N(lambda) * lambda^(-k) in F_p, for lambda outside the chosen prime."""
    a0 = emb.embed(lam)
    if a0 == 0:
        raise OkError(f"{lam} lies in the chosen prime above {emb.p}")
    return lam.norm() * pow(a0, -k, emb.p) % emb.p


def euler_factor_vanishes(emb: ResidueEmbedding, lam: OkElement, k: int,
                          phi0_image, eta_image) -> bool:
    """True iff N(lambda) = lambda^k * phi0 * eta in the residue field,
    i.e. the factor N(lambda) - lambda^k*phi(sigma_lambda) has positive
    valuation.  False is the non-vanishing case."""
    c = euler_residue(emb, lam, k)
    F, (phi0, eta) = _field_images(emb.p, phi0_image, eta_image)
    if phi0.is_zero() or eta.is_zero():
        raise OkError("character images must be units")
    return F.lift(c) == phi0 * eta


def compute_N1(emb: ResidueEmbedding, lam: OkElement, k: int, phi0_image,
               q: int) -> int:
    """Level bound from the residue a = N(lambda)*lambda^(-k)*phi0^(-1).

    The factor can vanish for a character component eta of exact order q^m
    only when eta(sigma_lambda), a primitive q^m-th root of unity, equals a;
    that pins a single exact order q^m0.  Returns m0 + 1 when a has exact
    q-power order q^m0 (so vanishing is impossible for all eta of exact
    order >= q^(m0+1)), and 0 when it has none: a^(q^v) != 1, v = v_q(|F^x|).
    """
    if not isprime(q) or q == emb.p:
        raise OkError("q must be a prime different from p")
    c = euler_residue(emb, lam, k)
    F, (phi0,) = _field_images(emb.p, phi0_image)
    if phi0.is_zero():
        raise OkError("phi0 image must be a unit")
    a, one = F.lift(c) * phi0.inverse(), F.one()
    for m0 in range(padic_val(F.order - 1, q) + 1):
        if m0:
            a = a ** q
        if a == one:
            return m0 + 1
    return 0


# ---------------------------------------------------------------------------
# Imprimitive L-series of finite-order ray class characters
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LSeriesValue:
    value: complex | float
    truncation_bound: int
    error_estimate: float

    def to_dict(self) -> dict:
        v = self.value
        return {"B": self.truncation_bound, "error": self.error_estimate,
                "value": [v.real, v.imag] if isinstance(v, complex) else v}


def _check_truncation(s: float, bound: int) -> None:
    """A truncated L-sum needs a finite s > 1 and a bound of at least 2."""
    if not math.isfinite(s) or s <= 1:
        raise OkError("s must be a finite number exceeding 1")
    if bound < 2:
        raise OkError("the truncation bound must be at least 2")


def dirichlet_tail_bound(bound: int, s: float) -> float:
    """Rigorous bound on sum over n > bound of r_K(n) n^(-s), via r_K(n) <=
    d(n), sum_{ab > B} (ab)^(-s) <= 2 zeta(s) sum_{b > sqrt(B)} b^(-s),
    zeta(s) <= 1 + 1/(s - 1) and sum_{b > x} b^(-s) <= x^(1-s)/(s - 1)."""
    _check_truncation(s, bound)
    return 2.0 * (1.0 + 1.0 / (s - 1.0)) * (math.isqrt(bound) ** (1.0 - s) / (s - 1.0))


def _prime_sieve(bound: int) -> np.ndarray:
    """Boolean numpy array, True exactly at the primes in [0, bound]: bound + 1
    bytes, 1 MB at bound = 10^6 and 100 MB at the CLI cap 10^8."""
    sieve = np.ones(bound + 1, dtype=bool)
    sieve[:2] = False
    sieve[4::2] = False
    # odd p: p*p is odd, and its even multiples are struck already
    for p in range(3, isqrt(bound) + 1, 2):
        if sieve[p]:
            sieve[p * p::2 * p] = False
    return sieve


def _coprime_mask(modulus: OkElement, bound: int):
    """mask(ys, xs): which of the _ideal_chunks entries x + y*omega of norm
    <= bound are coprime to the modulus.  A prime of degree one over ell
    with omega = s mod it divides x + y*s iff x + y*s = 0 mod ell; an inert
    ell divides it iff ell | x and ell | y.  A prime of norm > bound divides
    no such ideal.  The primes are those the ray class group factored."""
    primes = [(p.residue_char, None if p.kind == "inert" else omega_residue(p.generator))
              for p, _ in ray_class_group(modulus).units.prime_powers if p.norm() <= bound]
    # |x| and |y| stay below isqrt(4*bound) + 1
    lim = isqrt(4 * bound) + 1

    # ell | v iff v // ell * ell == v: numpy divides by a scalar faster than it takes %
    def mask(ys: np.ndarray, xs: np.ndarray) -> np.ndarray:
        keep = np.ones(len(xs), dtype=bool)
        for ell, root in primes:
            if root is None:
                keep &= (ys // ell * ell != ys) | (xs // ell * ell != xs)
            else:
                dtype = _exact_dtype(lim * (root + 1))       # |x + y*s|, 0 <= s < ell
                v = xs.astype(dtype, copy=False) + ys.astype(dtype) * root
                keep &= v // ell * ell != v
        return keep

    return mask


def _chi_table(modulus: OkElement, chi: CharacterSpec):
    """chi_at(ys, xs): a nontrivial chi at the ideals (x + y*omega) coprime
    to the modulus, on arrays (or an int y).  The unit group's dlog is the
    concatenation of its prime-power factors' (CRT), each factor's dlogs a
    gather from its table of units, built here, before _l_values allocates
    its sieve; the words give the Smith coordinates in one integer product,
    and each distinct theta one cmath.exp."""
    group = ray_class_group(modulus)
    invariants = group.presentation.invariants
    factors = group.units.factors
    for f in factors:
        f._log_table        # built now, while the walk holds no sieve and no chunk
    # c*v/n in float64 rounds as Python's int division while float64 holds c*v and n exactly
    bound = max((abs(v) * n for v, n in zip(chi.exponents, invariants)), default=0)
    dtype = np.int64 if _exact_dtype(bound, floats=True) is np.float64 else object

    def chi_at(ys, xs: np.ndarray) -> np.ndarray:
        # _l_values passes coprime entries only, so dlogs sees units (it raises otherwise)
        words = [f.dlogs(xs, ys) for f in factors]
        cls = _smith_coords(group.presentation, np.concatenate(words, axis=1)).astype(dtype)
        theta = sum(cls[:, j] * v / n for j, (v, n) in enumerate(zip(chi.exponents, invariants)))
        thetas, inverse = np.unique(theta.astype(np.float64), return_inverse=True)
        # 2j*pi*theta is (+-0, 2pi*theta) in numpy as in Python, one rounding each
        return np.array(list(map(cmath.exp, (2j * cmath.pi * thetas).tolist())))[inverse]

    return chi_at


def _character(modulus: OkElement, chi: CharacterSpec, s: float, bound: int):
    """Validate an L-value request; returns (zero, chi_at) with chi_at(ys, xs)
    chi at the ideals (x + y*omega) coprime to the modulus: 1.0 for the
    trivial chi, so real sums stay real, and _chi_table's otherwise.  Each
    exponent is reduced mod its invariant first: chi depends on it only
    mod the invariant, and theta = c*v/n is exact only for v below it."""
    _check_truncation(s, bound)
    if chi.k != 0:
        raise OkError("only finite-order characters (k = 0) are evaluated")
    invariants = ray_class_group(modulus).presentation.invariants
    if len(chi.exponents) != len(invariants):
        raise OkError("character exponent vector does not match the group")
    chi = replace(chi, exponents=tuple(v % n for v, n in zip(chi.exponents, invariants)))
    if not any(chi.exponents):
        return 0.0, lambda ys, xs: np.broadcast_to(1.0, xs.shape)
    return 0j, _chi_table(modulus, chi)


def _prime_entries(tag: FieldTag, sieve: np.ndarray, ys: np.ndarray, xs: np.ndarray,
                   norms: np.ndarray) -> np.ndarray:
    """Mask of the chunk entries that generate prime ideals: for y != 0 those
    of prime norm (split and ramified primes), for y = 0 the inert primes
    (ell, 0).  The transversal keeps the other associates of ell out."""
    prime = sieve[norms]
    # y ascends, so the y = 0 entries (norm x^2, never prime) come first
    zero = int(np.searchsorted(ys, 1))
    prime[:zero] = [bool(sieve[x]) and split_type(tag, x) == "inert"
                    for x in xs[:zero].tolist()]
    return prime


@lru_cache(maxsize=4)
def _l_values(tag: FieldTag, modulus: OkElement, chi: CharacterSpec, s: float,
              bound: int) -> tuple[LSeriesValue, LSeriesValue]:
    """(Dirichlet sum, Euler product) from one walk over okring's chunks: per
    chunk, the coprime ideals' terms chi(a) N(a)^(-s) are computed once,
    each row's are summed on its own, and those at prime ideals divide the
    product one by one, in walk order.  Memoised for the last four requests,
    so whichever of the two public functions runs second only looks it up."""
    total, chi_at = _character(modulus, chi, s, bound)
    product = total + 1.0
    sieve = _prime_sieve(bound)
    coprime = _coprime_mask(modulus, bound)
    for ys, xs, norms in _ideal_chunks(tag, bound):
        keep = coprime(ys, xs)
        if not keep.all():
            ys, xs, norms = ys[keep], xs[keep], norms[keep]
        if not len(ys):
            continue
        terms = chi_at(ys, xs) * norms.astype(np.float64) ** (-s)
        edges = [0, *(np.flatnonzero(np.diff(ys)) + 1).tolist(), len(ys)]
        for a, b in zip(edges, edges[1:]):
            # np.sum's own pairwise reduction, row by row as the rows come
            total += np.add.reduce(terms[a:b]).item()
        prime = _prime_entries(tag, sieve, ys, xs, norms)
        product = reduce(truediv, (1.0 - terms[prime]).tolist(), product)
    log_tail = dirichlet_tail_bound(bound, s) / (1.0 - float(bound) ** (-s))
    return (LSeriesValue(total, bound, dirichlet_tail_bound(bound, s)),
            LSeriesValue(product, bound, abs(product) * math.expm1(log_tail)))


def evaluate_imprimitive_L(tag: FieldTag, modulus: OkElement, chi: CharacterSpec,
                           s: float, bound: int) -> LSeriesValue:
    """Truncated Dirichlet sum over ideals of norm <= bound coprime to the
    modulus, with a rigorous tail bound.  chi must be a finite-order ray
    class character (k = 0) modulo the given modulus.  The walk computes the
    Euler product too, so this alone pays for both, a prime sieve of
    bound + 1 bytes included."""
    return _l_values(tag, modulus, chi, s, bound)[0]


def euler_product_L(tag: FieldTag, modulus: OkElement, chi: CharacterSpec,
                    s: float, bound: int) -> LSeriesValue:
    """The same L-value as a truncated Euler product over prime ideals of
    norm <= bound coprime to the modulus, each read once off the Dirichlet
    rows; chi of the row element is chi of the ideal, units being
    quotiented out.  Computed in the same walk as the Dirichlet sum, so this
    alone pays for both."""
    return _l_values(tag, modulus, chi, s, bound)[1]
