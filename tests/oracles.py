"""Independent brute-force oracles used across the test suite.

Nothing here reuses the structure-recovery paths under test: unit groups
are counted by raw residue enumeration, their torsion by multiplying
residues in the Hermite box of the modulus, class numbers come from ideal
lattices under the Minkowski bound, and zeta values from a direct lattice
sum.
"""

from __future__ import annotations

import math
from math import gcd, isqrt

import numpy as np
from sympy import divisors, factorint

from iqtower.okring import OkElement, gcd_ok
from iqtower.rayclass import reduce_mod, residues_mod


# -- residue-ring oracle -----------------------------------------------------

def brute_unit_residues(modulus: OkElement) -> list[OkElement]:
    if modulus.norm() == 1:
        # the zero ring: its single element is the unit
        return [reduce_mod(modulus.tag.one(), modulus)]
    units = []
    for r in residues_mod(modulus):
        if r.is_zero():
            continue
        if gcd_ok(r, modulus).is_unit():
            units.append(reduce_mod(r, modulus))
    return units


def brute_euler_phi(modulus: OkElement) -> int:
    return len(brute_unit_residues(modulus))


def brute_mu_orbit_size(modulus: OkElement) -> int:
    """Size of the image of the roots of unity of O_K in (O_K/h)^x."""
    tag = modulus.tag
    z = tag.unit_gen()
    seen = set()
    u = tag.one()
    for _ in range(tag.num_units):
        r = reduce_mod(u, modulus)
        seen.add((r.x, r.y))
        u = u * z
    return len(seen)


def brute_ray_degree(modulus: OkElement) -> int:
    n_units = brute_euler_phi(modulus)
    orbit = brute_mu_orbit_size(modulus)
    assert n_units % orbit == 0
    return n_units // orbit


def brute_ray_degree_fast(modulus: OkElement) -> int:
    """Counting oracle, with units detected by exact division against the
    primes of the modulus instead of full gcds; still no group theory."""
    from iqtower.okring import factor as ok_factor
    gens = [p.generator for p, _ in ok_factor(modulus).factors]
    if not gens:
        return 1
    count = 0
    for r in residues_mod(modulus):
        if all(r.divide_exact(g) is None for g in gens):
            count += 1
    orbit = brute_mu_orbit_size(modulus)
    assert count % orbit == 0
    return count // orbit


# -- ideal-lattice class-number oracle ----------------------------------------

class _IdealLattice:
    """Sublattice of Z + Z*omega, omega = (b0 + sqrt(disc))/2, in Hermite
    form [[a, b], [0, c]]: elements are (x + (v'/c)*b mod a, v' mod c)."""

    __slots__ = ("disc", "b0", "nq", "a", "b", "c")

    def __init__(self, disc: int, a: int, b: int, c: int):
        self.disc = disc
        self.b0 = disc % 2
        self.nq = (self.b0 * self.b0 - disc) // 4   # omega^2 = b0*omega - nq
        self.a, self.b, self.c = a, b, c

    def norm(self) -> int:
        return self.a * self.c

    def contains(self, u: int, v: int) -> bool:
        if v % self.c:
            return False
        return (u - (v // self.c) * self.b) % self.a == 0

    def mul_omega(self, u: int, v: int) -> tuple[int, int]:
        return (-self.nq * v, u + self.b0 * v)

    def is_ideal(self) -> bool:
        for (u, v) in ((self.a, 0), (self.b, self.c)):
            w = self.mul_omega(u, v)
            if not self.contains(*w):
                return False
        return True

    def elt_norm(self, u: int, v: int) -> int:
        return u * u + self.b0 * u * v + self.nq * v * v

    def conj_vectors(self):
        # conj(u + v*omega) = (u + b0*v) - v*omega
        return [(self.a + 0, 0), (self.b + self.b0 * self.c, -self.c)]


def _hnf_from_vectors(vectors, disc: int) -> _IdealLattice:
    """Hermite form [[a, b], [0, c]] of the lattice the vectors generate."""
    main = None   # running vector with minimal nonzero second coordinate
    xacc = 0      # gcd of the first coordinates of v = 0 leftovers
    for (u, v) in vectors:
        while v != 0:
            if main is None:
                main, u, v = (u, v), 0, 0
                break
            mu, mv = main
            if abs(v) < abs(mv):
                main, (u, v) = (u, v), (mu, mv)
                continue
            q = v // mv
            u, v = u - q * mu, v - q * mv
        xacc = gcd(xacc, abs(u))
    if main is None or xacc == 0:
        raise ValueError("vectors do not span a rank-2 lattice")
    mu, mv = main
    if mv < 0:
        mu, mv = -mu, -mv
    return _IdealLattice(disc, xacc, mu % xacc, mv)


def _ideals_of_norm(disc: int, n: int) -> list[_IdealLattice]:
    out = []
    for c in range(1, n + 1):
        if n % c:
            continue
        a = n // c
        for b in range(a):
            lat = _IdealLattice(disc, a, b, c)
            if lat.is_ideal():
                out.append(lat)
    return out


def _is_principal(lat: _IdealLattice) -> bool:
    n = lat.norm()
    disc = lat.disc
    vmax = isqrt(4 * n // abs(disc)) + 1
    for v in range(-vmax, vmax + 1):
        if v % lat.c:
            continue
        # u^2 + b0 u v + nq v^2 = n
        bq = lat.b0 * v
        cq = lat.nq * v * v - n
        d2 = bq * bq - 4 * cq
        if d2 < 0:
            continue
        r = isqrt(d2)
        if r * r != d2:
            continue
        for u in ((-bq + r) // 2, (-bq - r) // 2):
            if (2 * u + bq) ** 2 == d2 and lat.elt_norm(u, v) == n and lat.contains(u, v):
                return True
    return False


def _ideal_product(i1: _IdealLattice, vecs2, disc: int) -> _IdealLattice:
    b0 = disc % 2
    nq = (b0 * b0 - disc) // 4

    def mul(p, q):
        (u1, v1), (u2, v2) = p, q
        return (u1 * u2 - nq * v1 * v2, u1 * v2 + u2 * v1 + b0 * v1 * v2)

    gens1 = [(i1.a, 0), (i1.b, i1.c)]
    prods = [mul(g1, g2) for g1 in gens1 for g2 in vecs2]
    return _hnf_from_vectors(prods, disc)


def minkowski_class_number(disc: int) -> int:
    """Ideal classes counted by enumerating ideal lattices up to the
    Minkowski bound and testing pairwise equivalence through principality
    of I * conj(J)."""
    bound = int(2 * math.sqrt(abs(disc)) / math.pi) + 1
    ideals = []
    for n in range(1, bound + 1):
        ideals.extend(_ideals_of_norm(disc, n))
    reps: list[_IdealLattice] = []
    for ideal in ideals:
        matched = False
        for rep in reps:
            prod = _ideal_product(ideal, rep.conj_vectors(), disc)
            if _is_principal(prod):
                matched = True
                break
        if not matched:
            reps.append(ideal)
    return len(reps)


# -- unit-group torsion oracle -------------------------------------------------

def brute_torsion_counts(modulus: OkElement) -> dict[int, int]:
    """#{x in (O_K/h)^x : x^k = 1} for every k dividing |(O_K/h)^x|.

    These counts determine the group: a finite abelian group with the same
    counts is isomorphic to it.  Residues are pairs in the Hermite box of
    the lattice (h), multiplied and reduced there with plain integers; the
    units are the residues outside every prime of h.  x -> x^r is tabulated
    once per prime r of the order, and x^k is read off by composing tables.
    """
    from iqtower.okring import factor as ok_factor
    tag = modulus.tag
    hw = modulus * tag.omega()
    lat = _hnf_from_vectors([(modulus.x, modulus.y), (hw.x, hw.y)], tag.discriminant)
    a, b, c, t, n = lat.a, lat.b, lat.c, lat.b0, lat.nq

    def mul(p, q):
        (u1, v1), (u2, v2) = p, q
        u, v = u1 * u2 - n * v1 * v2, u1 * v2 + u2 * v1 + t * v1 * v2
        k = v // c
        return (u - k * b) % a, v - k * c

    def power(x, k):
        out = one
        for bit in bin(k)[2:]:
            out = mul(out, out)
            if bit == "1":
                out = mul(out, x)
        return out

    one = mul((1, 0), (1, 0))
    gens = [p.generator for p, _ in ok_factor(modulus).factors]
    # for h a unit, the zero ring's single residue (0, 0) is its unit
    units = [(u, v) for v in range(c) for u in range(a)
             if all(OkElement(tag, u, v).divide_exact(g) is None for g in gens)]
    index = {x: i for i, x in enumerate(units)}
    order = len(units)
    tables = {r: [index[power(x, r)] for x in units] for r in factorint(order)}
    images = {1: list(range(order))}
    for k in divisors(order)[1:]:
        r = min(factorint(k))
        images[k] = [tables[r][i] for i in images[k // r]]
    unit_index = index[one]
    return {k: img.count(unit_index) for k, img in images.items()}


# -- zeta lattice oracle -------------------------------------------------------

def lattice_zeta(d: int, s: float, bound: int) -> float:
    """Dedekind zeta partial sum of Q(sqrt(-d)) over ideals of norm <= bound,
    computed as a raw lattice sum over all nonzero points divided by the
    unit count."""
    if d % 4 == 3:
        t, n, w = 1, (1 + d) // 4, 6 if d == 3 else 2
    else:
        t, n, w = 0, d, 4 if d == 1 else 2
    ymax = isqrt(4 * bound // (4 * n - t * t)) + 1
    total = 0.0
    for y in range(-ymax, ymax + 1):
        xs = np.arange(-isqrt(bound) - abs(y) - 2, isqrt(bound) + abs(y) + 3,
                       dtype=np.int64)
        norms = xs * xs + t * xs * y + n * y * y
        sel = norms[(norms >= 1) & (norms <= bound)].astype(np.float64)
        total += float(np.sum(sel ** (-s)))
    return total / w
