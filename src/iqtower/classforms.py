"""Class groups of imaginary quadratic discriminants through binary
quadratic forms: reduced-form enumeration, Gauss composition, S-class
quotients and p-ranks.

Forms (a, b, c) have b^2 - 4ac = disc < 0 and a > 0; the class group is the
set of primitive reduced forms under composition-then-reduction.  Its
structure comes from one relation walk over the reduced forms plus a Smith
normal form (`abgroup.abelian_structure`), so a class's discrete log is a
table lookup and an S-class group is one more Smith normal form.  Plain
Gauss composition is used throughout: this module is the oracle of record
for the rank bookkeeping, and for h_K = 1 the q-part of the class group of
discriminant D_K q^(2(n+1)) is level n of the anticyclotomic Z_q-tower, an
independent check on `rayclass`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd, isqrt

from .abgroup import (AbelianGroupStructure, QuotientPresentation, _pow,
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


def _solve_linmod(a: int, b: int, m: int) -> tuple[int, int]:
    """x with a*x = b (mod m); returns (x0, step) parameterizing all
    solutions x0 + step*Z."""
    g, d, _ = _xgcd(a, m)
    if b % g:
        raise FormError("congruence has no solution")
    return (b // g) * d % m, m // g


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

    def is_reduced(self) -> bool:
        a, b, c = self.a, self.b, self.c
        if not (-a < b <= a <= c):
            return False
        return b >= 0 if a == c else True

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

    def value(self, x: int, y: int) -> int:
        return self.a * x * x + self.b * x * y + self.c * y * y

    def transformed(self, x: int, z: int, y: int, w: int) -> "QuadForm":
        """Action of the determinant-one matrix [[x, z], [y, w]]."""
        if x * w - y * z != 1:
            raise FormError("transformation matrix must have determinant 1")
        a, b, c = self.a, self.b, self.c
        return QuadForm(self.value(x, y),
                        2 * a * x * z + b * (x * w + y * z) + 2 * c * y * w,
                        self.value(z, w))

    def _coprime_to(self, m: int) -> "QuadForm":
        """Equivalent form whose leading coefficient is coprime to m.

        A primitive form represents values coprime to any fixed modulus;
        the search spirals outward deterministically."""
        for s in range(1, 4 * abs(m) + 4):
            for x in range(-s, s + 1):
                for y in (s - abs(x), abs(x) - s):
                    if gcd(x, y) != 1:
                        continue
                    if gcd(self.value(x, y), m) == 1:
                        _, p, q = _xgcd(x, y)
                        return self.transformed(x, -q, y, p)
        raise FormError(f"no represented value coprime to {m}; form imprimitive?")

    def __mul__(self, other: "QuadForm") -> "QuadForm":
        """Dirichlet composition through united forms (not reduced)."""
        disc = self.discriminant()
        if disc != other.discriminant():
            raise FormError("forms of different discriminants")
        f = self
        g = other if gcd(self.a, other.a) == 1 else other._coprime_to(self.a)
        # middle coefficient B with B = f.b mod 2 f.a and B = g.b mod 2 g.a;
        # both are roots of x^2 = disc modulo the respective 4a, so the CRT
        # lift satisfies B^2 = disc mod 4 f.a g.a
        step, r0 = 2 * f.a, f.b
        x0, per = _solve_linmod(step, g.b - r0, 2 * g.a)
        B = r0 + step * x0
        mod = step * 2 * g.a // gcd(step, 2 * g.a)
        B %= mod
        a3 = f.a * g.a
        if (B * B - disc) % (4 * a3):
            raise FormError("united-form middle coefficient failed")
        return QuadForm(a3, B, (B * B - disc) // (4 * a3))

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
    gens = []
    for word in pres.generator_words():
        g = e
        for base, k in zip(basis, word):
            g = _compose(g, _pow(base, k, _compose, e))
        gens.append(g)
    return AbelianGroupStructure(pres.invariants, tuple(gens))


@lru_cache(maxsize=4)
def class_group(disc: int) -> FormClassGroup:
    """The form class group of disc, memoised for the last four
    discriminants so that a command builds each group once."""
    forms = reduced_forms(disc)
    gens, pres, dlog = abelian_structure(forms, _compose, principal_form(disc))
    return FormClassGroup(disc, tuple(forms), _structure(disc, gens, pres), dlog)


def prime_form(disc: int, ell: int) -> QuadForm | None:
    """The reduced class of a prime form (ell, b, *), or None when ell is
    inert (no b with b^2 = disc mod 4*ell) or the form is imprimitive."""
    check_discriminant(disc)
    for b in range(2 * ell):
        if (b * b - disc) % (4 * ell) == 0:
            f = QuadForm(ell, b, (b * b - disc) // (4 * ell))
            if f.content() == 1:
                return f.reduced()
            return None
    return None


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
    rational prime in S (inert primes contribute nothing)."""
    G = class_group(disc)
    rels = []
    for ell in sorted(set(primes)):
        pf = prime_form(disc, ell)
        if pf is not None:
            rels.append(list(G.dlog(pf)))
    pres = QuotientPresentation.from_relations(list(G.structure.invariants), rels)
    return SClassGroup(disc, tuple(sorted(set(primes))),
                       _structure(disc, G.structure.generators, pres))


def p_rank(structure, p: int) -> int:
    """dim over F_p of the p-torsion: the number of Smith invariants
    divisible by p.  Accepts a structure object or a bare invariant list."""
    invariants = structure.invariants if hasattr(structure, "invariants") else structure
    return sum(1 for n in invariants if n % p == 0)
