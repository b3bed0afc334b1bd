"""Unit groups of residue rings (O_K/h)^x, ray class groups of the nine
class-number-one imaginary quadratic fields, Artin symbols, characters, and
the layers of anticyclotomic towers.

For class number one the ray class group of conductor h is
(O_K/h)^x modulo the image of the roots of unity mu_K, and its order is the
degree of the ray class field over K.  Unit groups are assembled from
prime-power factors of the modulus, each through the filtration
(O_K/p^e)^x = (O_K/p)^x x (1+p)/(1+p^e) (H. Cohen, Advanced Topics in
Computational Number Theory, GTM 193, 4.2), whatever the kind of p: a
cyclic residue-field part with Pohlig-Hellman discrete logs, and 1-unit
generators 1 + pi^i*b whose l-th powers give the relations.  A split p^e
enters through the ring isomorphism O_K/p^e = Z/l^e, which sends omega to
-x/y for pi^e = x + y*omega (`okring.omega_residue`), with uniformiser l.
A word in the generators is evaluated in each factor's own arithmetic and
lifted to O_K/h once by CRT; generators are realised on demand, none drawn
at random.  Discrete logs on arrays gather from a table of each factor's
units (`_Factor._log_table`), formed at most LOG_TABLE_BLOCK units at a
time.  The layers of an anticyclotomic tower are quotients of one Smith
form, read off the unit group of its top layer: U_(n+1) = U_1^(q^n).

Residues are reduced to a fixed fundamental domain (rounding division
against the lattice basis {h, h*omega}), which makes representatives
canonical and hashable.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import isqrt, prod

import numpy as np
from sympy import factorint, isprime

from .abgroup import (AbelianGroupStructure, GroupError, QuotientPresentation,
                      _word_product, coords_order, padic_val)
from .finitefield import _exact_dtype
from .okring import (FieldTag, OkElement, OkError, OkPrime, canonical_associate,
                     factor, gcd_ok, omega_residue, split_type)


# _Factor.dlogs gathers from a table of 4 bytes per residue mod p^e up to this
# many residues: the CLI caps a modulus's norm at 10^6, so each prime-power
# factor it admits has at most 10^6 residues and a table of at most 4 MB.
LOG_TABLE_MAX = 2 ** 20
# units per block of _Factor._log_table: they and their int64 products take < 2^19 bytes
LOG_TABLE_BLOCK = 2 ** 12


def reduce_mod(e: OkElement, modulus: OkElement) -> OkElement:
    """Representative of e modulo (modulus): coordinates of e/modulus are
    rounded to nearest integers (halves round up).  It depends on the
    generator, not only on the ideal (in Z[i], 1 mod 2 is -1 but 1 mod 2i
    is 1); reduce by `canonical_associate(modulus)` for one per ideal."""
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
    return alpha, beta, gamma


def _cyclic_tables(g, primes: dict[int, int], mul, power) -> list[tuple]:
    """Pohlig-Hellman data for discrete logs base g, of order prod r^a over
    the factorisation `primes`, in a group with product `mul` and power
    `power`: per prime power r^a, the cofactor, g^-cofactor, the
    isqrt(r - 1) + 1 baby steps and the giant step of an element h of order
    r, and the CRT coefficient that lifts a log mod r^a.  Built once per
    group, so each log only looks values up."""
    order = prod(r ** a for r, a in primes.items())
    tables = []
    for r, a in primes.items():
        ra = r ** a
        cof = order // ra
        gr = power(g, cof)
        h = power(gr, ra // r)   # order r
        step = isqrt(r - 1) + 1
        baby, acc = {}, power(h, 0)
        for j in range(step):
            baby[acc] = j
            acc = mul(acc, h)
        tables.append((r, a, cof, power(gr, ra - 1), baby, step, power(acc, r - 1),
                       cof * pow(cof, -1, ra)))
    return tables


def _cyclic_dlog(x, order: int, tables: list[tuple], mul, power) -> int:
    """Discrete log of x in the cyclic group of the given order that
    `tables` (from _cyclic_tables) describes: Pohlig-Hellman, one baby-step
    giant-step search per base-r digit."""
    out = 0
    for r, a, cof, grinv, baby, step, giant, crt in tables:
        xr = power(x, cof)
        e, ri = 0, 1
        for i in reversed(range(a)):
            # t = (x^cof * g^(-cof*e))^(r^i) has order dividing r
            t = mul(xr, power(grinv, e)) if e else xr
            if i:
                t = power(t, r ** i)
            for j in range(step + 1):
                if t in baby:
                    break
                t = mul(t, giant)
            e += (j * step + baby[t]) % r * ri
            ri *= r
        out += e * crt
    return out % order


def _smith_coords(pres: QuotientPresentation, words: np.ndarray) -> np.ndarray:
    """pres.coords on each row of an int array of words with entries in
    [0, pres.orders[i]): one integer product with the rows of U at the
    nontrivial invariants, each reduced mod its invariant, so that int64
    holds while no sum can reach 2^63 and Python ints take over beyond."""
    rows = [([u % d for u in row], d) for row, d in zip(pres.U, pres.invariants_full) if d > 1]
    bound = max((d for _, d in rows), default=1) * sum(pres.orders)   # words times rows
    dtype = object if words.dtype == object else _exact_dtype(bound)
    U = np.array([row for row, _ in rows], dtype=dtype).reshape(len(rows), len(pres.orders))
    return words.astype(dtype) @ U.T % np.array([d for _, d in rows], dtype=dtype)


def _mod(v, m: int):
    """v % m for an int m > 0: numpy divides an int64 array by a scalar
    through libdivide, which its % does not use, so this is about twice as
    fast; on Python ints it is the same value."""
    return v - v // m * m


class _Factor:
    """(O_K/p^e)^x for a prime p over l, through the filtration
    (O_K/p)^x x (1+p)/(1+p^e).

    Residues are integer pairs a + b*omega mod l^e.  That ring maps onto
    O_K/p^e when p is inert or ramified; at a split p, O_K/p^e = Z/l^e
    through omega -> s (`okring.omega_residue`), so a residue is the pair
    ((x + y*s) mod l^e, 0) and l is the uniformiser.  The cyclic part has
    order N - 1 (N = Np) and is generated by g^(N^(e-1)), g the first
    element of order N - 1 of the residue field O_K/p in residue order;
    its dlog is Pohlig-Hellman in O_K/p, on ints mod l (F_l) or on pairs
    mod l (F_l^2).  The 1-units are generated by 1 + pi^i*b for 1 <= i < e
    and b in the F_l-basis 1 (split, ramified) or 1, omega (inert) of
    O_K/p; the filtration walk writes a 1-unit as a word in them, digit by
    digit, and the words of their l-th powers are the relations whose Smith
    form gives the generators and orders of (1+p)/(1+p^e).

    dlog takes one element through Pohlig-Hellman and that walk, for
    UnitGroup's callers (3-30 us a call).  dlogs, for the chunks of the
    L-walk, gathers from _log_table, a dense int32 table of the positions
    of the units among the products of the generators' powers, built once
    per factor in blocks of LOG_TABLE_BLOCK units; past LOG_TABLE_MAX
    residues it runs dlog once per distinct residue.
    """

    def __init__(self, p: OkPrime, e: int):
        tag = p.tag
        ell = p.residue_char
        self.ell = ell
        self.modulus = p.generator ** e
        self.t, self.n = tag.min_poly
        self.int_mod = ell ** e
        # dlogs' arrays: every product of two residues
        self.dtype = _exact_dtype(self.int_mod ** 2)
        self._box = _hnf_box(self.modulus)
        self.split = p.kind == "split"
        # image of omega in O_K/p^e = Z/l^e (split) or in O_K/p = Z/l (ramified)
        self.root = None if p.kind == "inert" else omega_residue(self.modulus if self.split
                                                                 else p.generator)
        self.order_res = p.norm() - 1
        res_primes = factorint(self.order_res)
        if self.root is None:
            # the Hermite box of (l) is [0, l) x [0, l), y outermost
            candidates = ((x, y) for y in range(ell) for x in range(ell) if (x, y) != (0, 0))
            self._fmul = lambda u, v: self._mul(u, v, ell)
            self._fpow = lambda u, k: self._pow(u, k, ell)
        else:
            candidates = range(1, ell)
            self._fmul = lambda u, v: u * v % ell
            self._fpow = lambda u, k: pow(u, k, ell)
        one = (1, 0) if self.root is None else 1
        g = next(c for c in candidates
                 if all(self._fpow(c, self.order_res // r) != one for r in res_primes))
        self._tables = _cyclic_tables(g, res_primes, self._fmul, self._fpow)
        # g^(N^(e-1)) = g mod p, and its order is exactly N - 1
        g0 = self._pow(g if self.root is None else (g, 0), p.norm() ** (e - 1))
        self._g0_inv = self._inverse(g0)
        # 1-unit generators, level by level; mu = l/pi turns division by pi^i
        # into multiplication by mu^i and exact division by l^i
        pi, mu = ((tag.from_int(ell), tag.one()) if self.split else
                  (p.generator, tag.from_int(ell).divide_exact(p.generator)))
        basis = [(1, 0)] if self.root is not None else [(1, 0), (0, 1)]
        self._units, self._levels = [], []
        for i in range(1, e):
            pi_i = self._pow((pi.x, pi.y), i)
            units = [((a0 + 1) % self.int_mod, a1)
                     for a0, a1 in (self._mul(pi_i, b) for b in basis)]
            self._units.extend(units)
            self._levels.append((self._pow((mu.x, mu.y), i), ell ** i,
                                 [self._inverse(h) for h in units]))
        rels = []
        for j, h in enumerate(self._units):
            rel = [-c for c in self._walk(self._pow(h, ell))]
            rel[j] += ell
            rels.append(rel)
        # l^e is a multiple of every 1-unit's order: (1 + pi^i*y)^l lies in 1 + p^(i+1)
        self._pres = pres = QuotientPresentation.from_relations([self.int_mod] * len(rels), rels)
        smith = [_word_product(self._units, word, self._mul, (1, 0))
                 for word in pres.generator_words()]
        cyclic = self.order_res > 1      # (O_K/p)^x is trivial when Np = 2
        self._gens = [g0] * cyclic + smith
        self.orders = [self.order_res] * cyclic + list(pres.invariants)

    def power_word(self, word) -> tuple[int, int]:
        """The product of the generators to the exponents `word`, a pair."""
        return _word_product(self._gens, [v % o for v, o in zip(word, self.orders)],
                             self._mul, (1, 0))

    def _mul(self, u, v, m: int = 0) -> tuple[int, int]:
        """(a + b*omega)(c + d*omega) mod m, by default mod l^e; mod l it is
        the product in O_K/p = F_l^2 of an inert p."""
        a, b = u
        c, d = v
        m = m or self.int_mod
        return (a * c - self.n * b * d) % m, (a * d + b * c + self.t * b * d) % m

    def _pow(self, u, k: int, m: int = 0) -> tuple[int, int]:
        """u^k mod m by square-and-multiply, the products of _mul written out."""
        t, n = self.t, self.n
        m = m or self.int_mod
        a, b = u
        ra, rb = 1, 0
        while k:
            if k & 1:
                ra, rb = (ra * a - n * rb * b) % m, (ra * b + rb * a + t * rb * b) % m
            k >>= 1
            if k:
                a, b = (a * a - n * b * b) % m, (2 * a * b + t * b * b) % m
        return ra, rb

    def _pair(self, x: OkElement) -> tuple[int, int]:
        if self.split:
            return (x.x + x.y * self.root) % self.int_mod, 0
        return x.x % self.int_mod, x.y % self.int_mod

    def _inverse(self, u) -> tuple[int, int]:
        """conj(u) * N(u)^-1 mod l^e."""
        a, b = u
        nu = a * a + self.t * a * b + self.n * b * b
        return self._mul((a + self.t * b, -b), (pow(nu, -1, self.int_mod), 0))

    def _walk(self, u) -> list[int]:
        """Exponents of the 1-unit generators in a word equal to the 1-unit
        u modulo p^e: at level i, the digits of (u - 1)/pi^i mod p are read
        off and each digit k is cleared by h^-k, h its level-i generator."""
        m, ell, s = self.int_mod, self.ell, self.root
        word = []
        for mu_i, ell_i, inverses in self._levels:
            # z = (u - 1) * mu^i / l^i
            z0, z1 = self._mul((u[0] - 1, u[1]), mu_i)
            z0, z1 = z0 // ell_i, z1 // ell_i
            digits = (z0 % ell, z1 % ell) if s is None else ((z0 + z1 * s) % ell,)
            word.extend(digits)
            if ell_i == m // ell:
                break            # the last level's digits need no clearing
            for h_inv, k in zip(inverses, digits):
                u = self._mul(u, self._pow(h_inv, k))
        return word

    def dlog(self, x: OkElement) -> list[int]:
        u = self._pair(x)
        # the image in O_K/p: a pair mod l (inert), or a + b*s mod l
        ell, s = self.ell, self.root
        r = (u[0] % ell, u[1] % ell) if s is None else (u[0] + u[1] * s) % ell
        if r in (0, (0, 0)):
            raise GroupError(f"{x} is not a unit modulo {self.modulus}")
        out = []
        if self._tables:
            a = _cyclic_dlog(r, self.order_res, self._tables, self._fmul, self._fpow)
            out.append(a)
            if self._units:
                u = self._mul(u, self._pow(self._g0_inv, a))
        if self._units:
            out.extend(self._pres.coords(self._walk(u)))
        return out

    def _keys(self, xs, ys) -> np.ndarray:
        """The key y mod g * a + (x - (y // g) * c) mod a of each residue
        x + y*omega modulo p^e, (a, c, g) its Hermite box: a bijection onto
        range(Np^e).  x and y are reduced mod l^e, a multiple of p^e, first,
        so that the products stay below (l^e)^2, which self.dtype holds."""
        a, c, g = self._box
        xs, ys = (_mod(np.asarray(v).astype(self.dtype), self.int_mod) for v in (xs, ys))
        return ys % g * a + _mod(xs - ys // g * c, a)

    @cached_property
    def _log_table(self) -> np.ndarray | None:
        """By _keys: the position of each unit in the enumeration of the
        products of the generators' powers, mixed radix over self.orders
        with the last generator fastest, and -1 at the non-units; None past
        LOG_TABLE_MAX residues.  A generator h of order o has Python lists
        baby = h^[0, w) and giant = h^(w*[0, o/w)), w = min(isqrt(o - 1) + 1,
        LOG_TABLE_BLOCK).  The positions run in rows of w, one per giant
        power of the last generator, taken in blocks of at most
        LOG_TABLE_BLOCK positions: a gather per earlier generator on the
        rows' digits, then one outer product with the last baby steps, by
        _mul on arrays (exact in int64: l^e <= LOG_TABLE_MAX)."""
        a, _, g = self._box
        if a * g > LOG_TABLE_MAX:
            return None
        table = np.full(a * g, -1, dtype=np.int32)
        orders = self.orders or [1]          # Np = 2, e = 1: the unit 1 alone
        powers = []
        for h, o in zip(self._gens or [(1, 0)], orders):
            # o <= LOG_TABLE_MAX: the min acts only on blocks under 2^10, set by tests
            w = min(isqrt(o - 1) + 1, LOG_TABLE_BLOCK)
            baby = [*itertools.accumulate(range(w), lambda v, _: self._mul(v, h), initial=(1, 0))]
            step = baby.pop()
            giant = itertools.accumulate(range((o - 1) // w), lambda v, _: self._mul(v, step),
                                         initial=(1, 0))
            powers.append((o, w, *(np.array(list(c), dtype=self.dtype).T for c in (baby, giant))))
        *head, (o, w, baby, giant) = powers
        rows = len(giant[0])
        total, per_block = prod(orders[:-1]) * rows, LOG_TABLE_BLOCK // w
        for r in range(0, total, per_block):
            prefix, j = divmod(np.arange(r, min(r + per_block, total)), rows)
            (x, y), digits = giant[:, j], prefix
            for oi, wi, bi, gi in reversed(head):
                digits, k = divmod(digits, oi)
                x, y = self._mul((x, y), self._mul(bi[:, k % wi], gi[:, k // wi]))
            k = j[:, None] * w + np.arange(w)
            keep = k < o
            x, y = self._mul((x[:, None], y[:, None]), baby[:, None])
            table[self._keys(x[keep], y[keep])] = (prefix[:, None] * o + k)[keep]
        return table

    def dlogs(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """dlog on arrays: row i is dlog(xs[i] + ys[i]*omega), for int arrays
        of units (int64, or object arrays of Python ints).  The rows are the
        mixed-radix digits of the positions _log_table gathers; past its
        reach, dlog runs once per distinct residue."""
        keys = self._keys(xs, ys)
        table = self._log_table
        if table is None:
            a = self._box[0]
            distinct, inverse = np.unique(keys, return_inverse=True)
            rows = [self.dlog(OkElement(self.modulus.tag, k % a, k // a))
                    for k in distinct.tolist()]
            return np.array(rows, dtype=self.dtype).reshape(len(rows), len(self.orders))[inverse]
        n = table[keys]
        if (n < 0).any():
            raise GroupError(f"a residue is not a unit modulo {self.modulus}")
        return np.array([n // prod(self.orders[i + 1:]) % o for i, o in enumerate(self.orders)],
                        dtype=self.dtype).reshape(len(self.orders), len(n)).T

    def inverse(self, x: OkElement) -> OkElement:
        return OkElement(x.tag, *self._inverse(self._pair(x)))


class UnitGroup:
    """(O_K/h)^x, the CRT product of its prime-power factors: orders,
    discrete logs, and words evaluated per factor and lifted once; the
    generators are realised as residues when `gens` is first read."""

    def __init__(self, modulus: OkElement):
        if modulus.is_zero():
            raise OkError("zero modulus")
        self.tag = modulus.tag
        self.modulus = canonical_associate(modulus)
        self.prime_powers = factor(self.modulus).factors
        self.factors = [_Factor(p, e) for p, e in self.prime_powers]
        self.orders = [o for f in self.factors for o in f.orders]
        # per factor, unreduced: 1 modulo it and 0 modulo the complementary part
        cofactors = [self.modulus.divide_exact(f.modulus) for f in self.factors]
        self._idempotents = [c * f.inverse(c) for f, c in zip(self.factors, cofactors)]

    @property
    def order(self) -> int:
        return prod(self.orders)

    def is_unit(self, e: OkElement) -> bool:
        return not any(p.divides(e) for p, _ in self.prime_powers)

    def dlog(self, e: OkElement) -> list[int]:
        # each factor's dlog raises GroupError when e is not a unit modulo it
        out: list[int] = []
        for f in self.factors:
            out.extend(f.dlog(e))
        return out

    def power_word(self, exponents) -> OkElement:
        """The product of the generators to the exponents: per factor f its
        word x_f, lifted as 1 + sum e_f*(x_f - 1) and reduced once."""
        one, lift, i = self.tag.one(), self.tag.one(), 0
        for f, idem in zip(self.factors, self._idempotents):
            x = OkElement(self.tag, *f.power_word(exponents[i:i + len(f.orders)]))
            lift, i = lift + idem * (x - one), i + len(f.orders)
        return reduce_mod(lift, self.modulus)

    @cached_property
    def gens(self) -> list[OkElement]:
        """The generators as residues, realised on first read."""
        k = len(self.orders)
        return [self.power_word([int(i == j) for j in range(k)]) for i in range(k)]

    def mu_image_vector(self) -> list[int]:
        return self.dlog(self.tag.unit_gen())

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
        self.presentation = QuotientPresentation.from_relations(
            self.units.orders, [self.units.mu_image_vector()])
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
    """Canonical generator of lcm((a), (b)) = (ab / gcd(a, b)), O_K being a PID."""
    if a.is_zero() or b.is_zero():
        raise OkError("lcm with zero")
    return canonical_associate((a * b).divide_exact(gcd_ok(a, b)))


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
    total = prod(invariants)
    if total > limit:
        raise GroupError(f"character group of order {total} exceeds limit {limit}")
    out = []
    for vec in itertools.product(*(range(n) for n in invariants)):
        o = coords_order(vec, invariants)
        if exact_order is not None and o != exact_order:
            continue
        q_order = 1 if q is None else q ** padic_val(o, q)
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


def _minus_relations(U: UnitGroup, q: int):
    """The q-primary part S of U: its cyclic orders, its discrete log, and
    the relations x*conj(x) for x running over its generators."""
    syl = [(i, q ** padic_val(o, q)) for i, o in enumerate(U.orders) if o % q == 0]
    orders = [qpart for _, qpart in syl]

    def sylow_dlog(e: OkElement) -> list[int]:
        full = U.dlog(e)
        return [full[i] // (U.orders[i] // qpart) % qpart for i, qpart in syl]

    rels = []
    for i, qpart in syl:
        h = U.power_word([U.orders[i] // qpart if j == i else 0 for j in range(len(U.orders))])
        rels.append(sylow_dlog(h * h.conj()))
    return orders, sylow_dlog, rels


def minus_quotient(modulus: OkElement, q: int) -> QuotientPresentation:
    """q-primary part S of (O_K/h)^x modulo {x*conj(x)}, for a
    conjugation-stable modulus h."""
    if canonical_associate(modulus.conj()) != canonical_associate(modulus):
        raise OkError(f"modulus {modulus} is not conjugation-stable")
    orders, _, rels = _minus_relations(UnitGroup(modulus), q)
    return QuotientPresentation.from_relations(orders, rels)


def anticyclotomic_tower(tag: FieldTag, q: int, depth: int) -> AnticyclotomicTower:
    """Layers 0..depth of the anticyclotomic tower over K at a split prime
    q >= 5: the minus quotient of the q-primary part of (O_K/q^(n+1))^x,
    whose order is the degree q^n of the n-th layer.

    One unit group is built, for q^(depth+1); every layer is a quotient of
    one Smith form, that of the minus quotient M of its q-primary part.  For
    q odd and unramified, the kernel U_(n+1) = 1 + q^(n+1)*O of the
    reduction to q^(n+1) is U_1^(q^n): by the binomial expansion,
    (1 + q^j*x)^q = 1 + q^(j+1)*x mod q^(j+2), as q | C(q,k) for 0 < k < q
    and q*j >= j + 2, so the q-th power maps U_j onto U_(j+1) mod U_(j+2),
    hence onto; and 1 + q, 1 + q*omega generate U_1.  Their discrete logs
    are additive on the q-primary part: layer n is M modulo q^n times them."""
    if not isprime(q) or q < 5:
        raise OkError("q must be a prime >= 5")
    if split_type(tag, q) != "split":
        raise OkError(f"{q} does not split in Q(sqrt(-{tag.d}))")
    if depth < 0:
        raise OkError("depth must be nonnegative")
    orders, sylow_dlog, rels = _minus_relations(UnitGroup(tag.from_int(q) ** (depth + 1)), q)
    minus = QuotientPresentation.from_relations(orders, rels)
    kernel = [minus.coords(sylow_dlog(OkElement(tag, *x))) for x in ((1 + q, 0), (1, q))]
    levels, prev_order = [], 1           # layer 0 is trivial: U_1 is all of the q-part
    for n in range(depth + 1):
        pres = QuotientPresentation.from_relations(
            list(minus.invariants), [[q ** n * c for c in v] for v in kernel])
        levels.append(TowerLevel(n, pres.order, pres.invariants, pres.order // prev_order))
        prev_order = pres.order
    return AnticyclotomicTower(tag, q, tuple(levels))
