"""Class groups of imaginary quadratic discriminants through binary
quadratic forms: reduced-form enumeration, composition, S-class quotients
and p-ranks.

Forms (a, b, c) have b^2 - 4ac = disc < 0 and a > 0; the class group is the
set of primitive reduced forms under composition-then-reduction.  Its
structure comes from one relation walk over the reduced forms plus a Smith
normal form (`abgroup.abelian_structure`), so a class's discrete log is a
table lookup and an S-class group is one more Smith normal form.
Composition is Cohen's Algorithm 5.4.7 (GTM 138), two extended gcds for any
pair of primitive forms, and a prime form's middle coefficient is read off
a square root of disc mod ell, so nothing but `reduced_forms` enumerates.
This module is the oracle of record for the rank bookkeeping, and for
h_K = 1 the q-part of the class group of discriminant D_K q^(2(n+1)) is
level n of the anticyclotomic Z_q-tower, an independent check on
`rayclass`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd, isqrt

from sympy import isprime, sqrt_mod

from .abgroup import (AbelianGroupStructure, QuotientPresentation, _word_product,
                      abelian_structure)


class FormError(ValueError):
    pass


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


@dataclass(frozen=True)
class QuadForm:
    a: int
    b: int
    c: int

    def __post_init__(self) -> None:
        if self.a <= 0:
            raise FormError("positive definite forms need a > 0")
        if self.discriminant() >= 0:
            raise FormError("discriminant must be negative")

    def discriminant(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    def content(self) -> int:
        return gcd(gcd(self.a, abs(self.b)), self.c)

    def normalized(self) -> "QuadForm":
        a, b, c = self.a, self.b, self.c
        r = (a - b) // (2 * a)
        return QuadForm(a, b + 2 * r * a, a * r * r + b * r + c)

    def reduced(self) -> "QuadForm":
        f = self.normalized()
        a, b, c = f.a, f.b, f.c
        while a > c or (a == c and b < 0):
            s = (c + b) // (2 * c)
            a, b, c = c, -b + 2 * s * c, c * s * s - b * s + a
        return QuadForm(a, b, c)

    def inverse(self) -> "QuadForm":
        return QuadForm(self.a, -self.b, self.c).reduced()

    def __mul__(self, other: "QuadForm") -> "QuadForm":
        """Composition of primitive forms (not reduced), after Cohen, GTM 138,
        Algorithm 5.4.7: two extended gcds and no search, whatever
        gcd(a1, a2) is.  FormError for an imprimitive factor."""
        disc = self.discriminant()
        if disc != other.discriminant():
            raise FormError("forms of different discriminants")
        if self.content() != 1 or other.content() != 1:
            raise FormError("composition needs primitive forms")
        f, g = (self, other) if self.a <= other.a else (other, self)
        s = (f.b + g.b) // 2
        n = g.b - s
        d, y1, _ = _xgcd(g.a, f.a)
        d1, x2, y2 = _xgcd(s, d)
        y2 = -y2
        v1, v2 = f.a // d1, g.a // d1
        r = (y1 * y2 * n - x2 * g.c) % v1
        a3, b3 = v1 * v2, g.b + 2 * v2 * r
        return QuadForm(a3, b3, (b3 * b3 - disc) // (4 * a3))

    def __str__(self) -> str:
        return f"({self.a},{self.b},{self.c})"


def check_discriminant(disc: int) -> None:
    if disc >= 0 or disc % 4 not in (0, 1):
        raise FormError(f"{disc} is not a negative discriminant (0 or 1 mod 4)")


def principal_form(disc: int) -> QuadForm:
    check_discriminant(disc)
    k = disc % 2
    return QuadForm(1, k, (k * k - disc) // 4)


def reduced_forms(disc: int) -> list[QuadForm]:
    """All primitive reduced forms of the discriminant, sorted."""
    check_discriminant(disc)
    out = []
    amax = isqrt(-disc // 3)
    for a in range(1, amax + 1):
        for b in range(-a + 1, a + 1):
            if (b - disc) % 2:
                continue
            num = b * b - disc
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if c < a or (a == c and b < 0):
                continue
            f = QuadForm(a, b, c)
            if f.content() == 1:
                out.append(f)
    out.sort(key=lambda f: (f.a, f.b, f.c))
    return out


@dataclass(frozen=True)
class FormClassGroup:
    disc: int
    forms: tuple[QuadForm, ...]
    structure: AbelianGroupStructure
    _dlog: dict

    @property
    def order(self) -> int:
        return len(self.forms)

    def dlog(self, f: QuadForm) -> tuple[int, ...]:
        """Coordinates of the class of f on `structure.generators`, one per
        Smith invariant."""
        key = f.reduced()
        if key not in self._dlog:
            raise FormError(f"{f} is not a primitive form of discriminant {self.disc}")
        return self._dlog[key]

    def to_dict(self) -> dict:
        return {"discriminant": self.disc,
                "invariants": list(self.structure.invariants),
                "order": self.order,
                "reduced_forms": [str(f) for f in self.forms]}


def _compose(f: QuadForm, g: QuadForm) -> QuadForm:
    return (f * g).reduced()


def _structure(disc: int, basis, pres: QuotientPresentation) -> AbelianGroupStructure:
    """Smith-chain structure of a quotient of a class group, each new
    generator expanded as a reduced form from its word in `basis`."""
    e = principal_form(disc)
    gens = tuple(_word_product(basis, word, _compose, e) for word in pres.generator_words())
    return AbelianGroupStructure(pres.invariants, gens)


@lru_cache(maxsize=4)
def class_group(disc: int) -> FormClassGroup:
    """The form class group of disc, memoised for the last four
    discriminants so that a command builds each group once."""
    forms = reduced_forms(disc)
    gens, pres, dlog = abelian_structure(forms, _compose, principal_form(disc))
    return FormClassGroup(disc, tuple(forms), _structure(disc, gens, pres), dlog)


def prime_form(disc: int, ell: int) -> QuadForm | None:
    """The reduced class of the prime form (ell, b, *) with the least b >= 0,
    or None when ell is inert (disc is not a square mod 4*ell) or the form is
    imprimitive.  The roots of disc mod 4*ell come in pairs b, b + 2*ell, and
    each lies over a root r of disc mod ell, so the least b is the least of
    r, r + ell that squares to disc mod 4*ell."""
    check_discriminant(disc)
    if not isprime(ell):
        raise FormError(f"{ell} is not a prime")
    bs = [b for r in sqrt_mod(disc % ell, ell, all_roots=True) for b in (r, r + ell)
          if (b * b - disc) % (4 * ell) == 0]
    if not bs:
        return None
    b = min(bs)
    f = QuadForm(ell, b, (b * b - disc) // (4 * ell))
    return f.reduced() if f.content() == 1 else None


@dataclass(frozen=True)
class SClassGroup:
    disc: int
    primes: tuple[int, ...]
    structure: AbelianGroupStructure

    @property
    def order(self) -> int:
        return self.structure.order


def s_class_group(disc: int, primes) -> SClassGroup:
    """Quotient of the class group by the classes of prime forms above each
    rational prime in S (inert primes contribute nothing); FormError for
    any member of S that is not prime."""
    S = tuple(sorted(set(primes)))
    forms = [prime_form(disc, ell) for ell in S]
    G = class_group(disc)
    rels = [list(G.dlog(f)) for f in forms if f is not None]
    pres = QuotientPresentation.from_relations(list(G.structure.invariants), rels)
    return SClassGroup(disc, S, _structure(disc, G.structure.generators, pres))


def p_rank(structure, p: int) -> int:
    """dim over F_p of the p-torsion: the number of Smith invariants
    divisible by p.  Accepts a structure object or a bare invariant list."""
    invariants = structure.invariants if hasattr(structure, "invariants") else structure
    return sum(1 for n in invariants if n % p == 0)
