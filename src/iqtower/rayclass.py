"""Unit groups of residue rings (O_K/h)^x, ray class groups of the nine
class-number-one imaginary quadratic fields, Artin symbols, characters, and
the layers of anticyclotomic towers.

For class number one the ray class group of conductor h is
(O_K/h)^x modulo the image of the roots of unity mu_K, and its order is the
degree of the ray class field over K.  Unit groups are assembled from
prime-power factors of the modulus:

    * factors at split primes are cyclic and handled through the ring
      isomorphism O_K/p^e = Z/l^e (Hensel-lifted root of the minimal
      polynomial of omega), with Pohlig-Hellman discrete logs;
    * factors at inert and ramified primes go through the filtration
      (O_K/p^e)^x = (O_K/p)^x x (1+p)/(1+p^e) (H. Cohen, Advanced Topics in
      Computational Number Theory, GTM 193, 4.2): a cyclic residue-field
      part and 1-unit generators 1 + pi^i*b whose l-th powers give the
      relations; no residue ring is enumerated and no generator is drawn at
      random.

Residues are reduced to a fixed fundamental domain (rounding division
against the lattice basis {h, h*omega}), which makes representatives
canonical and hashable.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import isqrt, prod

from sympy import factorint, isprime, primitive_root
from sympy.ntheory import sqrt_mod

from .abgroup import (AbelianGroupStructure, GroupError, QuotientPresentation,
                      _pow, coords_order, padic_val)
from .okring import (FieldTag, OkElement, OkError, OkPrime, canonical_associate,
                     factor, split_type, valuation)


def reduce_mod(e: OkElement, modulus: OkElement) -> OkElement:
    """Canonical representative of e modulo (modulus): coordinates of
    e/modulus are rounded to nearest integers (halves round up)."""
    if modulus.is_zero():
        raise OkError("zero modulus")
    n = modulus.norm()
    num = e * modulus.conj()
    # floor(c/n + 1/2) in integers: n > 0 for a nonzero modulus
    q1 = (2 * num.x + n) // (2 * n)
    q2 = (2 * num.y + n) // (2 * n)
    return e - OkElement(e.tag, q1, q2) * modulus


@dataclass(frozen=True)
class ResidueClass:
    modulus: OkElement
    representative: OkElement

    def __mul__(self, other: "ResidueClass") -> "ResidueClass":
        return ResidueClass(self.modulus,
                            reduce_mod(self.representative * other.representative,
                                       self.modulus))

    def __str__(self) -> str:
        return str(self.representative)


def _hnf_box(modulus: OkElement) -> tuple[int, int, int]:
    """(alpha, beta, gamma): the ideal lattice (modulus) has Hermite basis
    (alpha, 0), (beta, gamma); residues are x in [0,alpha) x y in [0,gamma)."""
    g = modulus
    gw = modulus * modulus.tag.omega()
    u, v = (g.x, g.y), (gw.x, gw.y)
    while u[1] != 0:
        q = v[1] // u[1]
        v = (v[0] - q * u[0], v[1] - q * u[1])
        u, v = v, u
    alpha, beta, gamma = abs(u[0]), v[0], v[1]
    if gamma < 0:
        beta, gamma = -beta, -gamma
    beta %= alpha
    if alpha * gamma != modulus.norm():
        raise OkError("Hermite basis does not match the modulus norm")
    return alpha, beta, gamma


def residues_mod(modulus: OkElement) -> list[OkElement]:
    """A complete, deterministic transversal of O_K/(modulus)."""
    alpha, _, gamma = _hnf_box(modulus)
    tag = modulus.tag
    return [OkElement(tag, x, y) for y in range(gamma) for x in range(alpha)]


def _crt_int(r1: int, m1: int, r2: int, m2: int) -> tuple[int, int]:
    m = m1 * m2
    return (r1 + (r2 - r1) * pow(m1, -1, m2) % m2 * m1) % m, m


def _bsgs(h: int, t: int, r: int, mod: int) -> int:
    """Solve h^j = t mod `mod` for 0 <= j < r (h of order r)."""
    step = isqrt(r - 1) + 1
    baby = {}
    acc = 1
    for j in range(step):
        baby.setdefault(acc, j)
        acc = acc * h % mod
    giant = pow(pow(h, step, mod), -1, mod)
    cur = t
    for i in range(step + 1):
        if cur in baby:
            return (i * step + baby[cur]) % r
        cur = cur * giant % mod
    raise GroupError("baby-step giant-step failed: element outside subgroup")


def _dlog_cyclic_int(g: int, x: int, order: int, mod: int, factors: dict) -> int:
    """Discrete log of x base g in the cyclic subgroup of (Z/mod)^x of the
    given order, by Pohlig-Hellman; `factors` is factorint(order), taken
    once per group rather than once per log."""
    res, mres = 0, 1
    for r, a in factors.items():
        ra = r ** a
        gr = pow(g, order // ra, mod)
        xr = pow(x, order // ra, mod)
        h = pow(gr, ra // r, mod)   # order r
        e = 0
        grinv = pow(gr, -1, mod)
        for i in range(a):
            t = pow(xr * pow(grinv, e, mod) % mod, ra // r ** (i + 1), mod)
            e += _bsgs(h, t, r, mod) * r ** i
        res, mres = _crt_int(res, mres, e, ra)
    return res


def _residue_root(p: OkPrime) -> int:
    """The s in [0, l) with s^2 - t*s + n = 0 mod l and p | omega - s, for a
    prime p of degree one over l (omega^2 = t*omega - n): the image of omega
    under O_K -> O_K/p = Z/l.  The roots are (t +- sqrt(t^2 - 4n))/2 mod l
    for odd l, and 0 or 1 for l = 2."""
    tag = p.tag
    t, n = tag.min_poly
    ell = p.residue_char
    if ell == 2:
        roots = [0, 1]
    else:
        half = pow(2, -1, ell)
        roots = [(t + r) * half % ell
                 for r in sqrt_mod((t * t - 4 * n) % ell, ell, all_roots=True)]
    for s in roots:
        if (s * s - t * s + n) % ell == 0 and p.divides(tag.omega() - tag.from_int(s)):
            return s
    raise GroupError(f"no residue root for {p}; is it split?")


class _SplitFactor:
    """(O_K/p^e)^x for a split prime p over l, via O_K/p^e = Z/l^e."""

    def __init__(self, p: OkPrime, e: int):
        tag = p.tag
        ell = p.residue_char
        self.prime, self.e, self.ell = p, e, ell
        self.modulus = p.generator ** e
        self.int_mod = ell ** e
        t, n = tag.min_poly
        # root of x^2 - t x + n mod l picked out by p, then Hensel-lifted
        root = _residue_root(p)
        mod = ell
        while mod < self.int_mod:
            mod *= ell
            fp = (2 * root - t) % mod
            fval = (root * root - t * root + n) % mod
            root = (root - fval * pow(fp, -1, mod)) % mod
        self.root = root % self.int_mod
        self.gens_int, self.orders = self._unit_gens(ell, e)
        # the cyclic factor that dlog solves by Pohlig-Hellman comes last
        self._order_factors = factorint(self.orders[-1]) if self.orders else {}
        self.gens = [tag.from_int(g) for g in self.gens_int]

    @staticmethod
    def _unit_gens(ell: int, e: int) -> tuple[list[int], list[int]]:
        mod = ell ** e
        if ell == 2:
            if e == 1:
                return [], []
            if e == 2:
                return [3], [2]
            return [mod - 1, 5], [2, mod // 4]
        m = (ell - 1) * ell ** (e - 1)
        g = int(primitive_root(ell))
        if e > 1 and pow(g, ell - 1, ell * ell) == 1:
            g += ell
        return [g], [m]

    def to_int(self, x: OkElement) -> int:
        return (x.x + x.y * self.root) % self.int_mod

    def dlog(self, x: OkElement) -> list[int]:
        r = self.to_int(x)
        if r % self.ell == 0:
            raise GroupError(f"{x} is not a unit modulo {self.modulus}")
        if not self.orders:
            return []
        if self.ell == 2:
            if self.e == 2:
                return [0 if r % 4 == 1 else 1]
            sign = 0 if r % 4 == 1 else 1
            if sign:
                r = (-r) % self.int_mod
            return [sign, _dlog_cyclic_int(5, r, self.orders[1], self.int_mod,
                                           self._order_factors)]
        return [_dlog_cyclic_int(self.gens_int[0], r, self.orders[0], self.int_mod,
                                 self._order_factors)]

    def inverse(self, x: OkElement) -> OkElement:
        r = self.to_int(x)
        return x.tag.from_int(pow(r, -1, self.int_mod))


class _NonsplitFactor:
    """(O_K/p^e)^x for an inert or ramified prime p over l, through the
    filtration (O_K/p)^x x (1+p)/(1+p^e).

    Residues are integer pairs a + b*omega mod l^e; that ring maps onto
    O_K/p^e.  The cyclic part has order N - 1 (N = Np) and is generated by
    g^(N^(e-1)), g a generator of (O_K/p)^x; its dlog is Pohlig-Hellman in
    O_K/p with one table per prime power of N - 1 (at most 2(l+1) entries).
    The 1-units are generated by 1 + pi^i*b for 1 <= i < e and b in the
    F_l-basis 1 (ramified) or 1, omega (inert) of O_K/p; the filtration walk
    writes a 1-unit as a word in them, digit by digit, and the words of
    their l-th powers are the relations whose Smith form gives the
    generators and orders of (1+p)/(1+p^e).
    """

    def __init__(self, p: OkPrime, e: int):
        tag = p.tag
        ell = p.residue_char
        self.prime, self.e, self.ell = p, e, ell
        self.modulus = p.generator ** e
        self.t, self.n = tag.min_poly
        self.int_mod = ell ** e
        # image of omega in O_K/p = Z/l when p is ramified
        self.root = None if p.kind == "inert" else _residue_root(p)
        self.order_res = p.norm() - 1
        res_primes = sorted(factorint(self.order_res).items())
        if self.root is None:
            # the first element of order l^2 - 1 in residues_mod(p) order
            # (the Hermite box of (l) is [0, l) x [0, l), y outermost)
            g = next((x, y) for y in range(ell) for x in range(ell)
                     if (x, y) != (0, 0) and
                     all(self._pow((x, y), self.order_res // r, ell) != (1, 0)
                         for r, _ in res_primes))
        else:
            g = (int(primitive_root(ell)), 0)
        self._tables = []
        for r, a in res_primes:
            ra = r ** a
            cof = self.order_res // ra
            gamma = self._pow(g, cof, ell)
            table, acc = {}, (1, 0)
            for j in range(ra):
                table[acc] = j
                acc = self._mul(acc, gamma, ell)
            self._tables.append((cof, table, cof * pow(cof, -1, ra) % self.order_res))
        # g^(N^(e-1)) = g mod p, and its order is exactly N - 1
        g0 = self._pow(g, p.norm() ** (e - 1))
        self._g0_inv = self._inverse(g0)
        # 1-unit generators, level by level; mu = l/pi turns division by pi^i
        # into multiplication by mu^i and exact division by l^i
        pi = (p.generator.x, p.generator.y)
        mu = tag.from_int(ell).divide_exact(p.generator)
        basis = [(1, 0)] if self.root is not None else [(1, 0), (0, 1)]
        self._units, self._levels = [], []
        for i in range(1, e):
            pi_i = self._pow(pi, i)
            level = []
            for b in basis:
                a0, a1 = self._mul(pi_i, b)
                h = ((a0 + 1) % self.int_mod, a1)
                self._units.append(h)
                # h^-c for every digit c: one multiply clears a digit
                h_inv, acc, row = self._inverse(h), (1, 0), []
                for _ in range(ell):
                    row.append(acc)
                    acc = self._mul(acc, h_inv)
                level.append(row)
            self._levels.append((self._pow((mu.x, mu.y), i), ell ** i, level))
        rels = []
        for j, h in enumerate(self._units):
            rel = [-c for c in self._walk(self._pow(h, ell))]
            rel[j] += ell
            rels.append(rel)
        # l^e is a multiple of every 1-unit's order: (1 + pi^i*y)^l lies in 1 + p^(i+1)
        self._pres = pres = QuotientPresentation.from_relations([self.int_mod] * len(rels), rels)
        smith = []
        for word in pres.generator_words():
            acc = (1, 0)
            for h, c in zip(self._units, word):
                acc = self._mul(acc, self._pow(h, c))
            smith.append(acc)
        cyclic = self.order_res > 1      # (O_K/p)^x is trivial when Np = 2
        self.gens = [OkElement(tag, *u) for u in [g0] * cyclic + smith]
        self.orders = [self.order_res] * cyclic + list(pres.invariants)

    def _mul(self, u, v, m: int = 0) -> tuple[int, int]:
        """(a + b*omega)(c + d*omega) mod m, by default mod l^e; mod l it is
        the product in O_K/p of pairs reduced by _residue."""
        a, b = u
        c, d = v
        m = m or self.int_mod
        return (a * c - self.n * b * d) % m, (a * d + b * c + self.t * b * d) % m

    def _pow(self, u, k: int, m: int = 0) -> tuple[int, int]:
        return _pow(u, k, lambda x, y: self._mul(x, y, m), (1, 0))

    def _residue(self, u) -> tuple[int, int]:
        """Image in O_K/p: a pair mod l (inert), or (a + b*s mod l, 0)."""
        if self.root is None:
            return u[0] % self.ell, u[1] % self.ell
        return (u[0] + u[1] * self.root) % self.ell, 0

    def _inverse(self, u) -> tuple[int, int]:
        """conj(u) * N(u)^-1 mod l^e."""
        a, b = u
        nu = a * a + self.t * a * b + self.n * b * b
        return self._mul((a + self.t * b, -b), (pow(nu, -1, self.int_mod), 0))

    def _walk(self, u) -> list[int]:
        """Exponents of the 1-unit generators in a word equal to the 1-unit
        u modulo p^e: at level i, the digits of (u - 1)/pi^i mod p are read
        off and cleared by the level-i generators.  The dlog's hot loop,
        so the pair arithmetic is written out."""
        t, n, m, ell, s = self.t, self.n, self.int_mod, self.ell, self.root
        a, b = u
        word = []
        for (c, d), ell_i, rows in self._levels:
            # z = (u - 1) * mu^i / l^i
            z0 = ((a - 1) * c - n * b * d) % m // ell_i
            z1 = ((a - 1) * d + b * c + t * b * d) % m // ell_i
            digits = (z0 % ell, z1 % ell) if s is None else ((z0 + z1 * s) % ell,)
            for row, k in zip(rows, digits):
                if k:
                    c2, d2 = row[k]
                    a, b = (a * c2 - n * b * d2) % m, (a * d2 + b * c2 + t * b * d2) % m
            word.extend(digits)
        return word

    def dlog(self, x: OkElement) -> list[int]:
        u = (x.x % self.int_mod, x.y % self.int_mod)
        r = self._residue(u)
        if r == (0, 0):
            raise GroupError(f"{x} is not a unit modulo {self.modulus}")
        out = []
        if self._tables:
            a = sum(table[self._pow(r, cof, self.ell)] * c
                    for cof, table, c in self._tables) % self.order_res
            out.append(a)
            if self._units:
                u = self._mul(u, self._pow(self._g0_inv, a))
        if self._units:
            out.extend(self._pres.coords(self._walk(u)))
        return out

    def inverse(self, x: OkElement) -> OkElement:
        return OkElement(x.tag, *self._inverse((x.x, x.y)))


class UnitGroup:
    """(O_K/h)^x with concrete generators, orders and discrete logs."""

    def __init__(self, modulus: OkElement):
        if modulus.is_zero():
            raise OkError("zero modulus")
        self.tag = modulus.tag
        self.modulus = canonical_associate(modulus)
        fac = factor(self.modulus)
        self.prime_powers = fac.factors
        self.factors = []
        for p, e in self.prime_powers:
            if p.kind == "split":
                self.factors.append(_SplitFactor(p, e))
            else:
                self.factors.append(_NonsplitFactor(p, e))
        self.orders: list[int] = []
        self.gens: list[OkElement] = []
        for i, f in enumerate(self.factors):
            lift = self._crt_idempotent(i)
            for g, o in zip(f.gens, f.orders):
                self.gens.append(reduce_mod(self.tag.one() + lift * (g - self.tag.one()),
                                            self.modulus))
                self.orders.append(o)

    def _crt_idempotent(self, i: int) -> OkElement:
        """u = 1 mod factor i, u = 0 mod the complementary part."""
        f = self.factors[i]
        cof = self.modulus.divide_exact(f.modulus)
        if cof is None:
            raise GroupError("factor modulus does not divide the modulus")
        if cof.is_unit():
            return self.tag.one()
        inv = f.inverse(cof)
        return reduce_mod(cof * inv, self.modulus)

    @property
    def order(self) -> int:
        return prod(self.orders) if self.orders else 1

    def is_unit(self, e: OkElement) -> bool:
        return not any(p.divides(e) for p, _ in self.prime_powers)

    def dlog(self, e: OkElement) -> list[int]:
        if not self.is_unit(e):
            raise GroupError(f"{e} shares a factor with the modulus {self.modulus}")
        out: list[int] = []
        for f in self.factors:
            out.extend(f.dlog(e))
        return out

    def power_word(self, exponents) -> OkElement:
        def mul(a, b):
            return reduce_mod(a * b, self.modulus)
        one = reduce_mod(self.tag.one(), self.modulus)
        out = one
        for g, v, o in zip(self.gens, exponents, self.orders):
            out = mul(out, _pow(g, v % o, mul, one))
        return out

    def mu_image_vector(self) -> list[int]:
        return self.dlog(self.tag.unit_gen())

    def mu_image_order(self) -> int:
        return coords_order(self.mu_image_vector(), self.orders)

    @property
    def structure(self) -> AbelianGroupStructure:
        return _structure(self, QuotientPresentation.from_relations(self.orders, []))


def euler_phi(modulus: OkElement) -> int:
    """|(O_K/h)^x| = Nh * prod over primes p | h of (1 - 1/Np)."""
    if modulus.is_zero():
        raise OkError("zero modulus")
    out = 1
    for p, e in factor(modulus).factors:
        np = p.norm()
        out *= np ** (e - 1) * (np - 1)
    return out


def _structure(units: UnitGroup, pres: QuotientPresentation) -> AbelianGroupStructure:
    """Smith-chain structure of a quotient of (O_K/h)^x, its generators
    realized as residues."""
    gens = tuple(ResidueClass(units.modulus, units.power_word(w))
                 for w in pres.generator_words())
    return AbelianGroupStructure(pres.invariants, gens)


def unit_group_structure(modulus: OkElement) -> AbelianGroupStructure:
    """Smith-chain structure of (O_K/h)^x with realized generators."""
    return UnitGroup(modulus).structure


@dataclass(frozen=True)
class RayClassElement:
    group: "RayClassGroup"
    coords: tuple[int, ...]

    def __mul__(self, other: "RayClassElement") -> "RayClassElement":
        if other.group != self.group:
            raise GroupError("elements of different ray class groups")
        invs = self.group.presentation.invariants
        return RayClassElement(self.group, tuple((a + b) % n for a, b, n
                                                 in zip(self.coords, other.coords, invs)))

    def order(self) -> int:
        return coords_order(self.coords, self.group.presentation.invariants)

    def is_identity(self) -> bool:
        return all(c == 0 for c in self.coords)


class RayClassGroup:
    """(O_K/h)^x modulo the image of mu_K; its order is [R(h):K]."""

    def __init__(self, modulus: OkElement):
        self.units = UnitGroup(modulus)
        self.modulus = self.units.modulus
        self.tag = self.units.tag
        rels = [self.units.mu_image_vector()] if self.units.orders else []
        self.presentation = QuotientPresentation.from_relations(self.units.orders, rels)
        self.degree = self.presentation.order

    # groups built separately for one (canonical) modulus are the same group,
    # so their elements compare and hash by modulus and coords
    def __eq__(self, other) -> bool:
        return isinstance(other, RayClassGroup) and other.modulus == self.modulus

    def __hash__(self) -> int:
        return hash(self.modulus)

    @property
    def structure(self) -> AbelianGroupStructure:
        return _structure(self.units, self.presentation)

    def class_of(self, lam: OkElement) -> RayClassElement:
        if lam.is_zero() or lam.is_unit():
            raise OkError("lambda must be a non-unit, nonzero element")
        return RayClassElement(self, self.ideal_class_coords(lam))

    def ideal_class_coords(self, e: OkElement) -> tuple[int, ...]:
        """Quotient coordinates of the ideal (e); associates agree because
        unit images are quotiented out."""
        if not self.units.is_unit(e):
            raise OkError(f"{e} is not coprime to the modulus {self.modulus}")
        return self.presentation.coords(self.units.dlog(e))

    def to_dict(self) -> dict:
        return {"invariants": list(self.presentation.invariants),
                "order": self.degree,
                "modulus": str(self.modulus)}


@lru_cache(maxsize=4)
def ray_class_group(modulus: OkElement) -> RayClassGroup:
    """RayClassGroup(modulus), memoised for the last four moduli so that a
    command builds each group once."""
    return RayClassGroup(modulus)


def artin_symbol(modulus: OkElement, lam: OkElement) -> RayClassElement:
    """The ray class of the principal ideal (lam); multiplicative in lam."""
    return ray_class_group(modulus).class_of(lam)


def lcm_ideal(a: OkElement, b: OkElement) -> OkElement:
    """Canonical generator of lcm((a), (b))."""
    if a.is_zero() or b.is_zero():
        raise OkError("lcm with zero")
    fa = {(p.residue_char, p.generator): (p, k) for p, k in factor(a).factors}
    out = a.tag.one()
    seen = set()
    for key, (p, k) in fa.items():
        m = max(k, valuation(b, p))
        out = out * p.generator ** m
        seen.add(key)
    for p, k in factor(b).factors:
        if (p.residue_char, p.generator) not in seen:
            out = out * p.generator ** k
    return canonical_associate(out)


def lcm_degree_check(a: OkElement, b: OkElement, p: int) -> tuple[bool, bool, bool]:
    """(p does not divide [R(a):K], same for b, same for lcm(a,b)).

    For p coprime to |mu_K| (in particular every p >= 5) the first two imply
    the third; see the module tests for a w-divisible counterexample.
    """
    da = ray_class_group(a).degree
    db = ray_class_group(b).degree
    dl = ray_class_group(lcm_ideal(a, b)).degree
    return (da % p != 0, db % p != 0, dl % p != 0)


@dataclass(frozen=True)
class CharacterSpec:
    """A character as an exponent vector against Smith-chain generators.

    q_order carries the order of the anticyclotomic-layer component when the
    group is a tower layer; k is the exponent of the p-power-torsion
    character component (0 for finite-order ray class characters).
    """

    exponents: tuple[int, ...]
    order: int
    q_order: int = 1
    k: int = 0


def characters(group, *, exact_order: int | None = None,
               q: int | None = None,
               limit: int = 10 ** 6) -> list[CharacterSpec]:
    """Enumerate characters of a finite abelian group given by its Smith
    invariants (accepts a RayClassGroup or a bare invariant list)."""
    if isinstance(group, RayClassGroup):
        invariants = group.presentation.invariants
    else:
        invariants = tuple(group)
    total = prod(invariants) if invariants else 1
    if total > limit:
        raise GroupError(f"character group of order {total} exceeds limit {limit}")
    out = []
    for vec in itertools.product(*(range(n) for n in invariants)):
        o = coords_order(vec, invariants)
        if exact_order is not None and o != exact_order:
            continue
        q_order = 1
        if q is not None:
            q_order = q ** padic_val(o, q)
        out.append(CharacterSpec(vec, o, q_order=q_order))
    return out


@dataclass(frozen=True)
class TowerLevel:
    n: int
    order: int
    invariants: tuple[int, ...]
    layer_degree: int

    def to_dict(self) -> dict:
        return {"n": self.n, "order": self.order,
                "invariants": list(self.invariants),
                "layer_degree": self.layer_degree}


@dataclass(frozen=True)
class AnticyclotomicTower:
    tag: FieldTag
    q: int
    levels: tuple[TowerLevel, ...]


def minus_quotient(modulus: OkElement, q: int) -> QuotientPresentation:
    """q-primary part S of (O_K/h)^x modulo {x*conj(x)}, for a
    conjugation-stable modulus h."""
    U = UnitGroup(modulus)
    if canonical_associate(modulus.conj()) != U.modulus:
        raise OkError(f"modulus {modulus} is not conjugation-stable")
    syl_idx = []
    syl_orders = []
    syl_gens = []
    for i, (g, o) in enumerate(zip(U.gens, U.orders)):
        qpart = q ** padic_val(o, q)
        if qpart > 1:
            syl_idx.append(i)
            syl_orders.append(qpart)
            syl_gens.append(reduce_mod(g ** (o // qpart), U.modulus))

    def sylow_dlog(e: OkElement) -> list[int]:
        full = U.dlog(e)
        vec = []
        for i, qpart in zip(syl_idx, syl_orders):
            cof = U.orders[i] // qpart
            if full[i] % cof:
                raise GroupError(f"{e} is not in the {q}-primary part")
            vec.append(full[i] // cof % qpart)
        return vec

    rels = []
    for h in syl_gens:
        norm_elt = reduce_mod(h * h.conj(), U.modulus)
        rels.append(sylow_dlog(norm_elt))
    return QuotientPresentation.from_relations(syl_orders, rels)


def anticyclotomic_tower(tag: FieldTag, q: int, depth: int) -> AnticyclotomicTower:
    """Layers 0..depth of the anticyclotomic tower over K at a split prime
    q >= 5: the minus quotient of the q-primary part of (O_K/q^(n+1))^x,
    whose order is the degree q^n of the n-th layer."""
    if not isprime(q) or q < 5:
        raise OkError("q must be a prime >= 5")
    if split_type(tag, q) != "split":
        raise OkError(f"{q} does not split in Q(sqrt(-{tag.d}))")
    if depth < 0:
        raise OkError("depth must be nonnegative")
    levels = []
    prev_order = None
    for n in range(depth + 1):
        modulus = tag.from_int(q) ** (n + 1)
        pres = minus_quotient(modulus, q)
        deg = 1 if prev_order is None else pres.order // prev_order
        levels.append(TowerLevel(n, pres.order, pres.invariants, deg))
        prev_order = pres.order
    return AnticyclotomicTower(tag, q, tuple(levels))
