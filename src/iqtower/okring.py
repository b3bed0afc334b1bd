"""Exact arithmetic in the ring of integers of the nine imaginary quadratic
fields of class number one.

Conventions:
    * K = Q(sqrt(-d)) with d in {1, 2, 3, 7, 11, 19, 43, 67, 163}.
    * Elements are stored as integer pairs (x, y) with respect to the
      integral basis {1, omega}, where omega = sqrt(-d) when -d is not
      1 mod 4 and omega = (1 + sqrt(-d))/2 otherwise.
    * Every ideal is principal (h_K = 1), so primes and factorizations are
      carried by canonical generators.  The canonical associate of a nonzero
      element is the one maximizing (sign(x), x, y) over its unit orbit.
    * A prime of degree one over l is (l, omega - s) for a root s of
      omega's minimal polynomial mod l.  Its generator is the shortest
      vector of that lattice, and s is read back off a generator
      x + y*omega as -x/y mod l.
    * The ideals of norm <= B come as numpy chunks of whole rows y, one
      representative per ideal (`_ideal_chunks`), shared by
      `elements_up_to_norm` and the L-value walk of `lvaluation`.
    * Text form: "d=<n>:<u>+<v>*w" where w stands for sqrt(-d); for the
      d = 3 mod 4 fields the coordinates may be exact halves ("-1/2-1/2*w").
      The parser also accepts "<x>+<y>*o" with o = omega.

All values are immutable; all operations are pure functions.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import isqrt

import numpy as np
from sympy import factorint, isprime, sqrt_mod

from .abgroup import _pow

CLASS_NUMBER_ONE_DS = (1, 2, 3, 7, 11, 19, 43, 67, 163)
# _ideal_chunks cuts its rows into chunks of about this many ideals
CHUNK_ENTRIES = 2 ** 14


class OkError(ValueError):
    """Precondition violation in ring arithmetic."""


@dataclass(frozen=True)
class FieldTag:
    """One of the nine class-number-one imaginary quadratic fields."""

    d: int

    def __post_init__(self) -> None:
        if self.d not in CLASS_NUMBER_ONE_DS:
            raise OkError(f"d={self.d} is not a class-number-one value "
                          f"{CLASS_NUMBER_ONE_DS}")

    @property
    def discriminant(self) -> int:
        return -self.d if self.d % 4 == 3 else -4 * self.d

    @property
    def omega_is_half(self) -> bool:
        # omega = (1 + sqrt(-d))/2 exactly when -d = 1 mod 4
        return self.d % 4 == 3

    @cached_property
    def min_poly(self) -> tuple[int, int]:
        """(t, n) with omega^2 = t*omega - n."""
        if self.omega_is_half:
            return 1, (1 + self.d) // 4
        return 0, self.d

    @property
    def num_units(self) -> int:
        if self.d == 1:
            return 4
        if self.d == 3:
            return 6
        return 2

    def one(self) -> "OkElement":
        return OkElement(self, 1, 0)

    def zero(self) -> "OkElement":
        return OkElement(self, 0, 0)

    def omega(self) -> "OkElement":
        return OkElement(self, 0, 1)

    def sqrt_minus_d(self) -> "OkElement":
        if self.omega_is_half:
            return OkElement(self, -1, 2)  # 2*omega - 1
        return OkElement(self, 0, 1)

    def unit_gen(self) -> "OkElement":
        """Generator of the root-of-unity group mu_K."""
        if self.d == 1:
            return OkElement(self, 0, 1)   # i
        if self.d == 3:
            return OkElement(self, 0, 1)   # zeta_6 = (1+sqrt(-3))/2
        return OkElement(self, -1, 0)

    def units(self) -> tuple["OkElement", ...]:
        z = self.unit_gen()
        out = [self.one()]
        u = z
        while u != self.one():
            out.append(u)
            u = u * z
        return tuple(out)

    def from_int(self, n: int) -> "OkElement":
        return OkElement(self, n, 0)


@lru_cache(maxsize=None)
def field(d: int) -> FieldTag:
    return FieldTag(d)


@dataclass(frozen=True)
class OkElement:
    """x + y*omega with arbitrary-precision integer coordinates."""

    tag: FieldTag
    x: int
    y: int

    def _check(self, other: "OkElement") -> None:
        if self.tag != other.tag:
            raise OkError("elements belong to different fields")

    def __add__(self, other: "OkElement") -> "OkElement":
        self._check(other)
        return OkElement(self.tag, self.x + other.x, self.y + other.y)

    def __sub__(self, other: "OkElement") -> "OkElement":
        self._check(other)
        return OkElement(self.tag, self.x - other.x, self.y - other.y)

    def __neg__(self) -> "OkElement":
        return OkElement(self.tag, -self.x, -self.y)

    def __mul__(self, other: "OkElement") -> "OkElement":
        self._check(other)
        t, n = self.tag.min_poly
        a, b, c, d = self.x, self.y, other.x, other.y
        # (a + b w)(c + d w) with w^2 = t w - n
        return OkElement(self.tag,
                         a * c - n * b * d,
                         a * d + b * c + t * b * d)

    def __pow__(self, k: int) -> "OkElement":
        if k < 0:
            raise OkError("negative powers leave the ring")
        return _pow(self, k, OkElement.__mul__, self.tag.one())

    def conj(self) -> "OkElement":
        t, _ = self.tag.min_poly
        # conj(omega) = t - omega
        return OkElement(self.tag, self.x + t * self.y, -self.y)

    def norm(self) -> int:
        t, n = self.tag.min_poly
        return self.x * self.x + t * self.x * self.y + n * self.y * self.y

    def trace(self) -> int:
        t, _ = self.tag.min_poly
        return 2 * self.x + t * self.y

    def is_zero(self) -> bool:
        return self.x == 0 and self.y == 0

    def is_unit(self) -> bool:
        return self.norm() == 1

    def divide_exact(self, other: "OkElement") -> "OkElement | None":
        """self / other when the quotient lies in O_K, else None."""
        if other.is_zero():
            raise OkError("division by zero")
        n = other.norm()
        num = self * other.conj()
        if num.x % n or num.y % n:
            return None
        return OkElement(self.tag, num.x // n, num.y // n)

    def sqrt_coords(self) -> tuple[Fraction, Fraction]:
        """Coordinates (u, v) with self = u + v*sqrt(-d)."""
        if self.tag.omega_is_half:
            return Fraction(2 * self.x + self.y, 2), Fraction(self.y, 2)
        return Fraction(self.x), Fraction(self.y)

    def __str__(self) -> str:
        u, v = self.sqrt_coords()

        def rat(q: Fraction) -> str:
            return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"

        sign = "+" if v >= 0 else "-"
        return f"d={self.tag.d}:{rat(u)}{sign}{rat(abs(v))}*w"

    def __repr__(self) -> str:
        return f"OkElement({self})"


_ELT_RE = re.compile(
    r"^\s*(?:d=(?P<d>\d+):)?\s*"
    r"(?P<u>[+-]?\d+(?:/2)?)\s*"
    r"(?:(?P<sign>[+-])\s*(?P<v>\d+(?:/2)?)\s*\*\s*(?P<basis>[wo]))?\s*$"
)


def parse_element(tag: FieldTag, text: str) -> OkElement:
    """Parse the text form; accepts sqrt(-d) ("w") and omega ("o") coordinates."""
    m = _ELT_RE.match(text)
    if not m:
        raise OkError(f"cannot parse element {text!r}")
    if m.group("d") is not None and int(m.group("d")) != tag.d:
        raise OkError(f"element {text!r} tagged for d={m.group('d')}, expected d={tag.d}")
    u = Fraction(m.group("u").replace("/2", "")) / (2 if m.group("u").endswith("/2") else 1)
    if m.group("v") is None:
        v = Fraction(0)
        basis = "w"
    else:
        v = Fraction(m.group("v").replace("/2", "")) / (2 if m.group("v").endswith("/2") else 1)
        if m.group("sign") == "-":
            v = -v
        basis = m.group("basis")
    if basis == "o":
        if u.denominator != 1 or v.denominator != 1:
            raise OkError("omega coordinates must be integers")
        return OkElement(tag, int(u), int(v))
    # u + v*sqrt(-d): convert to the integral basis
    if tag.omega_is_half:
        y = 2 * v
        x = u - v
        if y.denominator != 1 or x.denominator != 1:
            raise OkError(f"{text!r} is not an algebraic integer of Q(sqrt(-{tag.d}))")
        return OkElement(tag, int(x), int(y))
    if u.denominator != 1 or v.denominator != 1:
        raise OkError(f"{text!r} is not an algebraic integer of Q(sqrt(-{tag.d}))")
    return OkElement(tag, int(u), int(v))


def canonical_associate(e: OkElement) -> OkElement:
    """The associate maximizing (sign(x), x, y); total, unit-free, idempotent."""
    if e.is_zero():
        raise OkError("zero has no canonical associate")
    best = None
    u = e.tag.one()
    z = e.tag.unit_gen()
    for _ in range(e.tag.num_units):
        cand = e * u
        key = ((cand.x > 0) - (cand.x < 0), cand.x, cand.y)
        if best is None or key > best[0]:
            best = (key, cand)
        u = u * z
    return best[1]


@dataclass(frozen=True)
class OkPrime:
    """Prime of O_K carried by its canonical generator."""

    generator: OkElement
    residue_char: int
    kind: str              # "split" | "inert" | "ramified"
    residue_degree: int

    @property
    def tag(self) -> FieldTag:
        return self.generator.tag

    def norm(self) -> int:
        return self.residue_char ** self.residue_degree

    def divides(self, e: OkElement) -> bool:
        return e.divide_exact(self.generator) is not None

    def __str__(self) -> str:
        return str(self.generator)


def split_type(tag: FieldTag, ell: int) -> str:
    """Kronecker classification of the prime ell in K (ell must be prime);
    for odd ell by Euler's criterion, disc^((ell-1)/2) mod ell."""
    if ell < 2:
        raise OkError("ell must be a prime >= 2")
    disc = tag.discriminant
    if ell == 2:
        if disc % 2 == 0:
            return "ramified"
        return "split" if disc % 8 == 1 else "inert"
    if disc % ell == 0:
        return "ramified"
    return "split" if pow(disc % ell, (ell - 1) // 2, ell) == 1 else "inert"


def omega_residue(g: OkElement) -> int:
    """The image of omega in O_K/(g) = Z/N(g), for g = x + y*omega with
    gcd(x, y) = 1, as for a prime of degree one or a power of a split prime:
    g = 0 there and y is a unit mod N(g), so omega = -x/y."""
    n = g.norm()
    try:
        return -g.x * pow(g.y, -1, n) % n
    except ValueError:
        raise OkError(f"O_K/({g}) is not Z/N({g}): its coordinates share a factor") from None


def _shortest_vector(t: int, n: int, u: tuple[int, int],
                     v: tuple[int, int]) -> tuple[int, int]:
    """A shortest nonzero vector of the lattice spanned by u and v under the
    norm form x^2 + t*x*y + n*y^2, by Lagrange-Gauss reduction."""
    def q(w):
        return w[0] * w[0] + t * w[0] * w[1] + n * w[1] * w[1]

    qu, qv = q(u), q(v)
    while True:
        if qv < qu:
            u, v, qu, qv = v, u, qv, qu
        # m = round(B(u, v) / Q(u)), with 2B(u, v) written out in integers
        b2 = 2 * u[0] * v[0] + t * (u[0] * v[1] + u[1] * v[0]) + 2 * n * u[1] * v[1]
        m = (b2 + qu) // (2 * qu)
        if m == 0:
            return u
        v = (v[0] - m * u[0], v[1] - m * u[1])
        qv = q(v)


@lru_cache(maxsize=None)
def primes_above(tag: FieldTag, ell: int) -> tuple[OkPrime, ...]:
    """Primes of O_K above the rational prime ell, with canonical generators.

    Each root s of omega's minimal polynomial x^2 - t*x + n mod ell gives the
    degree-one prime (ell, omega - s): two roots when ell splits, one when it
    ramifies, none when it is inert.  The shortest vector of the lattice
    ell*Z + (omega - s)*Z has norm ell and generates that prime (h_K = 1).
    A split pair comes sorted by the (x, y) of its generators, as in `factor`.
    """
    if not isprime(ell):
        raise OkError(f"{ell} is not prime")
    kind = split_type(tag, ell)
    if kind == "inert":
        return (OkPrime(tag.from_int(ell), ell, "inert", 2),)
    t, n = tag.min_poly
    if ell == 2:
        roots = [s for s in (0, 1) if (s * s - t * s + n) % 2 == 0]
    else:
        half = pow(2, -1, ell)
        roots = [(t + r) * half % ell
                 for r in sqrt_mod((t * t - 4 * n) % ell, ell, all_roots=True)]
    gens = [canonical_associate(OkElement(tag, *_shortest_vector(t, n, (ell, 0), (-s, 1))))
            for s in roots]
    return tuple(OkPrime(g, ell, kind, 1) for g in sorted(gens, key=lambda g: (g.x, g.y)))


@dataclass(frozen=True)
class PrimeFactorization:
    unit: OkElement
    factors: tuple[tuple[OkPrime, int], ...]

    def value(self) -> OkElement:
        out = self.unit
        for p, k in self.factors:
            out = out * p.generator ** k
        return out


def factor(e: OkElement) -> PrimeFactorization:
    """Factor a nonzero element into the canonical unit and prime powers,
    sorted by (residue characteristic, generator coordinates)."""
    if e.is_zero():
        raise OkError("cannot factor zero")
    rest = e
    found: list[tuple[OkPrime, int]] = []
    # ell ascending and each split pair sorted by (x, y): found needs no sort
    for ell in sorted(factorint(e.norm())):
        for p in primes_above(e.tag, ell):
            k, rest = _strip(rest, p)
            if k:
                found.append((p, k))
    return PrimeFactorization(rest, tuple(found))


def _strip(e: OkElement, p: OkPrime) -> tuple[int, OkElement]:
    """(k, e / p^k) for the largest k with p^k dividing the nonzero e."""
    k = 0
    while (q := e.divide_exact(p.generator)) is not None:
        e, k = q, k + 1
    return k, e


def valuation(e: OkElement, p: OkPrime) -> int:
    if e.is_zero():
        raise OkError("valuation of zero is infinite")
    return _strip(e, p)[0]


def gcd_ok(a: OkElement, b: OkElement) -> OkElement:
    """Canonical generator of the ideal (a) + (b), via factorization.

    O_K is a PID for all nine fields but Euclidean only for d <= 11, so a
    single factorization-based path is used throughout.
    """
    if a.is_zero() and b.is_zero():
        raise OkError("gcd(0, 0) is undefined")
    if a.is_zero():
        return canonical_associate(b)
    if b.is_zero():
        return canonical_associate(a)
    if a.norm() > b.norm():
        a, b = b, a
    out = a.tag.one()
    for p, k in factor(a).factors:
        m = min(k, valuation(b, p))
        if m:
            out = out * p.generator ** m
    return canonical_associate(out)


def _ideal_chunks(tag: FieldTag, bound: int):
    """Yield (ys, xs, norms) numpy arrays covering each nonzero ideal of norm
    <= bound exactly once, as x + y*omega with y ascending, then x: whole
    rows y, cut where the row lengths add up past each CHUNK_ENTRIES.

    For the two-unit fields these are y >= 1 (any x) plus y = 0, x >= 1; for
    d = 1 and d = 3 the sector x >= 1, y >= 0 is a transversal of the unit
    orbits.  Row y holds the x with (2x + ty)^2 <= 4*bound - (4n - t^2)*y^2,
    from the integer square root r of the right-hand side.
    """
    t, n = tag.min_poly
    ys = np.arange(isqrt(4 * bound // (4 * n - t * t)) + 1, dtype=np.int64)
    # disc >= 0 by the choice of ymax; float sqrt is off by at most one
    disc = 4 * bound - (4 * n - t * t) * ys * ys
    r = np.sqrt(disc.astype(np.float64)).astype(np.int64)
    r = r - (r * r > disc) + ((r + 1) * (r + 1) <= disc)
    lo = np.where((ys == 0) | (tag.num_units >= 4), 1, -((t * ys + r) // 2))
    lengths = np.maximum((r - t * ys) // 2 - lo + 1, 0)
    ends = np.cumsum(lengths)
    starts = ends - lengths
    cuts = np.searchsorted(ends, np.arange(CHUNK_ENTRIES, ends[-1], CHUNK_ENTRIES)) + 1
    edges = np.unique(np.r_[0, cuts, len(ys)]).tolist()
    for a, b in zip(edges, edges[1:]):
        if ends[b - 1] > starts[a]:
            y = np.repeat(ys[a:b], lengths[a:b])
            x = np.arange(starts[a], ends[b - 1]) - np.repeat(starts[a:b] - lo[a:b], lengths[a:b])
            yield y, x, x * (x + t * y) + n * y * y


def elements_up_to_norm(tag: FieldTag, bound: int) -> list[OkElement]:
    """Canonical ideal generators of norm in [1, bound], sorted by
    (norm, x, y): the canonical associates of the _ideal_chunks entries,
    one per nonzero ideal."""
    out = [canonical_associate(OkElement(tag, x, y))
           for ys, xs, _ in _ideal_chunks(tag, bound)
           for x, y in zip(xs.tolist(), ys.tolist())]
    out.sort(key=lambda e: (e.norm(), e.x, e.y))
    return out


def smallest_split_primes(tag: FieldTag, count: int, minimum: int = 5) -> list[int]:
    """The `count` smallest rational primes >= minimum that split in K."""
    out = []
    ell = minimum - 1
    while len(out) < count:
        ell += 1
        if isprime(ell) and split_type(tag, ell) == "split":
            out.append(ell)
    return out
