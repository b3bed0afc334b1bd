"""Independent brute-force oracles used across the test suite.

Nothing here reuses the structure-recovery paths under test: unit groups
are counted by raw residue enumeration, their torsion by multiplying
residues in the Hermite box of the modulus, the unit group at a split
prime power is cyclic (or {-1, 5} at l = 2) through O_K/p^e = Z/l^e with
one Pohlig-Hellman over its whole order, class numbers come from ideal
lattices under the Minkowski bound, finite abelian groups given by all their
elements are decomposed by Sylow counting, zeta values come from a direct
lattice sum, ray class characters are evaluated ideal by ideal with one
discrete log each or residue class by residue class with one scalar
discrete log per factor class, the layers of an anticyclotomic tower come
from their own kernel logs, of 1 + q^(n+1) and 1 + q^(n+1)*omega, and one
Smith form per layer, a factor's table of units for the array
discrete logs comes from a recursion over its generators that steps by
the giant step one numpy round at a time, p-adic valuations come from
dividing by p one factor at a time, the Dirichlet sum and the Euler product
come from two separate walks over the ideals, one row y at a time (its
x-range from a float square root, padded by one and filtered by norm),
keeping the ideals coprime to the modulus entry by entry in Python
integers, and the prime ideals of an Euler product
come prime by prime from sympy's primerange and the primes above each.  The
primes above a rational prime are the elements of that norm, found by
scanning the norm form, and the ideals up to a norm bound are the lattice
points under it that are their own canonical associates.  Iwasawa growth
laws through three points come from Gaussian elimination in exact
rationals, a growth law is fitted to a tail by trying every start in turn,
and the primes above ell in a cyclotomic Z_q-layer from one
multiplicative order per layer.  Binary quadratic forms compose through
united forms, after a spiral search for an equivalent form whose leading
coefficient is coprime to the other's, and a prime form's middle
coefficient comes from scanning every b < 2*ell.
Finite-field products and inverses are schoolbook polynomial arithmetic on
coefficient tuples with Python integers, the Frobenius matrix's rows
x^(i*p) mod f come from multiplying by x one degree at a time (for
p >= 64, from x^p by square-and-multiply of those products), a field's
elements are counted out from the base-p digits of an integer, and powers
in the batched-gcd oracle are square-and-multiply; irreducibility is decided by
batched gcds with x^(p^k) - x for every k <= t/2, the modulus of F_{p^t}
is the first candidate in search order that the one-row irreducibility
test accepts, tried one at a time, the q^m-th roots of
unity in F_{p^t} are told apart by collecting all q^m powers of one, and
the least of exact order q^m is found by multiplying out those powers one
field element at a time.
"""

from __future__ import annotations

import cmath
import itertools
import math
from fractions import Fraction
from math import gcd, isqrt

import numpy as np
from sympy import divisors, factorint, n_order, primerange, primitive_root

from iqtower import rayclass
from iqtower.abgroup import GroupError, QuotientPresentation, _pow, coords_order, padic_val
from iqtower.classforms import FormError, QuadForm, _xgcd, check_discriminant
from iqtower.finitefield import (FFElement, FiniteField, _exact_dtype, _irreducible_rows,
                                 _small_factor_screen, finite_field)
from iqtower.lvaluation import (LSeriesValue, _character, _prime_sieve, dirichlet_tail_bound,
                                unity_image)
from iqtower.okring import (OkElement, canonical_associate, factor, gcd_ok, omega_residue,
                            primes_above, split_type)
from iqtower.rayclass import _hnf_box, ray_class_group, reduce_mod


# -- residue-ring oracle -----------------------------------------------------

def residues_mod(modulus: OkElement) -> list[OkElement]:
    """A complete, deterministic transversal of O_K/(modulus): the Hermite
    box, x fastest."""
    alpha, _, gamma = _hnf_box(modulus)
    tag = modulus.tag
    return [OkElement(tag, x, y) for y in range(gamma) for x in range(alpha)]


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


def mu_image_order(units) -> int:
    """Order of the image of the roots of unity in a UnitGroup, from the
    dlog of the unit generator."""
    return coords_order(units.mu_image_vector(), units.orders)


def is_coprime(a: OkElement, b: OkElement) -> bool:
    return gcd_ok(a, b).is_unit()


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


# -- split-factor oracle ---------------------------------------------------------
# (O_K/p^e)^x at a split prime as the cyclic group (Z/l^e)^x (times -1 at
# l = 2), with a primitive root mod l^e and Pohlig-Hellman over its whole
# order, l-part included: the reference for the filtration factor.

def _int_cyclic_tables(g: int, order: int, mod: int) -> list[tuple]:
    """Per prime power r^a of the order: the cofactor, g^-cofactor, and the
    baby steps and giant step of an element h of order r, mod `mod`."""
    tables = []
    for r, a in factorint(order).items():
        cof = order // r ** a
        gr = pow(g, cof, mod)
        h = pow(gr, r ** (a - 1), mod)
        step = isqrt(r - 1) + 1
        baby, acc = {}, 1
        for j in range(step):
            baby[acc] = j
            acc = acc * h % mod
        tables.append((r, a, cof, pow(gr, -1, mod), baby, step, pow(acc, -1, mod)))
    return tables


def _bsgs(t: int, r: int, baby: dict, step: int, giant: int, mod: int) -> int:
    """Solve h^j = t mod `mod` for 0 <= j < r, h of order r with the baby
    steps h^j (j < step) and the giant step h^-step."""
    for i in range(step + 1):
        if t in baby:
            return (i * step + baby[t]) % r
        t = t * giant % mod
    raise GroupError("baby-step giant-step failed: element outside subgroup")


def _dlog_cyclic_int(x: int, mod: int, tables: list[tuple]) -> int:
    """Discrete log of x in the cyclic subgroup of (Z/mod)^x that `tables`
    describes, by Pohlig-Hellman and the Chinese remainder theorem."""
    res, mres = 0, 1
    for r, a, cof, grinv, baby, step, giant in tables:
        ra = r ** a
        xr = pow(x, cof, mod)
        e = 0
        for i in range(a):
            t = pow(xr * pow(grinv, e, mod) % mod, ra // r ** (i + 1), mod)
            e += _bsgs(t, r, baby, step, giant, mod) * r ** i
        res = res + (e - res) * pow(mres, -1, ra) % ra * mres
        mres *= ra
    return res % mres


class ReferenceSplitFactor:
    """(O_K/p^e)^x for a split prime p over l, via O_K/p^e = Z/l^e."""

    def __init__(self, p, e: int):
        ell = p.residue_char
        self.ell, self.e = ell, e
        self.modulus = p.generator ** e
        self.int_mod = ell ** e
        # the image of omega in O_K/p^e = Z/l^e
        self.root = omega_residue(self.modulus)
        self.gens_int, self.orders = self._unit_gens(ell, e)
        # the cyclic factor that dlog solves by Pohlig-Hellman comes last
        self._tables = (_int_cyclic_tables(self.gens_int[-1], self.orders[-1], self.int_mod)
                        if self.orders else [])
        self.gens = [p.tag.from_int(g) for g in self.gens_int]

    @staticmethod
    def _unit_gens(ell: int, e: int) -> tuple[list[int], list[int]]:
        mod = ell ** e
        if ell == 2:
            if e == 1:
                return [], []
            if e == 2:
                return [3], [2]
            return [mod - 1, 5], [2, mod // 4]
        g = int(primitive_root(ell))
        if e > 1 and pow(g, ell - 1, ell * ell) == 1:
            g += ell
        return [g], [(ell - 1) * ell ** (e - 1)]

    def to_int(self, x: OkElement) -> int:
        return (x.x + x.y * self.root) % self.int_mod

    def dlog(self, x: OkElement) -> list[int]:
        r = self.to_int(x)
        if r % self.ell == 0:
            raise GroupError(f"{x} is not a unit modulo {self.modulus}")
        if not self.orders:
            return []
        if self.ell == 2:
            sign = 0 if r % 4 == 1 else 1
            if self.e == 2:
                return [sign]
            if sign:
                r = (-r) % self.int_mod
            return [sign, _dlog_cyclic_int(r, self.int_mod, self._tables)]
        return [_dlog_cyclic_int(r, self.int_mod, self._tables)]


def crt_lifted_gens(U) -> list[OkElement]:
    """The generators of the unit group U, each factor's generators lifted
    one at a time: the factor's CRT idempotent, reduced mod h (1 for a
    single factor), then 1 + lift*(g - 1) reduced mod h for each of the
    factor's generators g, the pairs of its filtration."""
    one = U.tag.one()
    out = []
    for f in U.factors:
        cof = U.modulus.divide_exact(f.modulus)
        lift = one if cof.is_unit() else reduce_mod(cof * f.inverse(cof), U.modulus)
        for g in f._gens:
            out.append(reduce_mod(one + lift * (OkElement(U.tag, *g) - one), U.modulus))
    return out


def tower_by_layer_kernels(tag, q: int, depth: int) -> list[rayclass.TowerLevel]:
    """Layers 0..depth of the anticyclotomic tower at a split q, each built
    on its own: the discrete logs of 1 + q^(n+1) and 1 + q^(n+1)*omega in
    the q-primary part of the unit group of q^(depth+1), and a Smith form
    of that part's orders, its minus relations and those two kernel
    vectors, per layer."""
    orders, sylow_dlog, rels = rayclass._minus_relations(
        rayclass.UnitGroup(tag.from_int(q) ** (depth + 1)), q)
    levels, prev_order = [], None
    for n in range(depth + 1):
        qn = q ** (n + 1)
        kernel = [sylow_dlog(OkElement(tag, 1 + qn, 0)), sylow_dlog(OkElement(tag, 1, qn))]
        pres = QuotientPresentation.from_relations(orders, rels + kernel)
        deg = 1 if prev_order is None else pres.order // prev_order
        levels.append(rayclass.TowerLevel(n, pres.order, pres.invariants, deg))
        prev_order = pres.order
    return levels


def scattered_log_table(f) -> np.ndarray | None:
    """The table of units of the factor f, built as _Factor._log_table
    builds it but by recursion over the generators: each level multiplies
    the units so far by the baby steps of its generator, then steps them by
    the giant step one numpy round at a time, and the last level scatters
    each block's keys."""
    a, _, g = f._box
    if a * g > rayclass.LOG_TABLE_MAX:
        return None
    table = np.full(a * g, -1, dtype=np.int32)

    def scatter(i, u, n):
        # u: one block of the units prod_{j < i} g_j^(k_j), n their positions
        if i == len(f._gens):
            table[f._keys(*u)] = n
            return
        h, o, r = f._gens[i], f.orders[i], math.prod(f.orders[i + 1:])
        baby = list(itertools.accumulate(range(isqrt(o - 1) + 1),
                                         lambda v, _: f._mul(v, h), initial=(1, 0)))
        giant = baby.pop()
        u = f._mul(tuple(c[:, None] for c in u),
                   tuple(np.array(c, dtype=f.dtype) for c in zip(*baby)))
        n = n[:, None] + r * np.arange(len(baby))
        for j in range(0, o, len(baby)):
            w = min(len(baby), o - j)
            scatter(i + 1, tuple(c[:, :w].reshape(-1) for c in u), n[:, :w].reshape(-1) + j * r)
            u = f._mul(u, giant)

    scatter(0, (np.ones(1, dtype=f.dtype), np.zeros(1, dtype=f.dtype)),
            np.zeros(1, dtype=np.int64))
    return table


def scanned_padic_val(n: int, p: int) -> int:
    """Exponent of the prime p in the nonzero integer n, p divided out one
    factor at a time."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


# -- group-structure oracle ----------------------------------------------------
# Structure recovery by Sylow counting, the oracle for the relation walk of
# `abgroup.abelian_structure`: prime-power orders from torsion counts, then a
# basis chosen by socle tests.

def element_order(x, group_order: int, op, identity) -> int:
    o = group_order
    for r in factorint(group_order):
        while o % r == 0 and _pow(x, o // r, op, identity) == identity:
            o //= r
    return o


def sylow_structure(elements: list, op, identity) -> tuple[list, list[int], dict]:
    """Structure of a finite abelian group given all its elements.

    Returns (basis, orders, dlog) where the group is the internal direct
    product of the cyclic subgroups generated by `basis` (orders are prime
    powers, grouped by Sylow subgroup) and dlog maps every element to its
    exponent vector.  Deterministic: basis search follows input order.
    """
    n = len(elements)
    if n == 0:
        raise GroupError("empty element list")
    basis: list = []
    orders: list[int] = []
    for r, v in sorted(factorint(n).items()):
        cof = n // r ** v
        sylow: list = []
        seen = set()
        for x in elements:
            y = _pow(x, cof, op, identity)
            if y not in seen:
                seen.add(y)
                sylow.append(y)
        size = len(sylow)
        ords = {x: element_order(x, r ** v, op, identity) for x in sylow}
        # torsion counts c_k = #{x : x^(r^k) = 1} determine the partition:
        # the number of cyclic parts of size >= k is log_r(c_k / c_{k-1})
        parts_geq: list[int] = []
        prev = 1
        kk = 1
        while prev < size:
            c = sum(1 for x in sylow if ords[x] <= r ** kk)
            m = 0
            t = c // prev
            while t > 1:
                t //= r
                m += 1
            parts_geq.append(m)
            prev = c
            kk += 1
        sizes: list[int] = []
        for idx, geq in enumerate(parts_geq):
            nxt = parts_geq[idx + 1] if idx + 1 < len(parts_geq) else 0
            sizes.extend([idx + 1] * (geq - nxt))
        sizes.sort(reverse=True)
        sub: dict = {identity: True}
        for lam in sizes:
            target = r ** lam
            chosen = None
            for x in sylow:
                if ords[x] != target:
                    continue
                socle_gen = _pow(x, target // r, op, identity)
                # <x> meets <basis so far> trivially iff no socle element lands in it
                ok = True
                y = socle_gen
                for _ in range(r - 1):
                    if y in sub:
                        ok = False
                        break
                    y = op(y, socle_gen)
                if ok:
                    chosen = x
                    break
            if chosen is None:
                raise GroupError("basis extraction failed; group not abelian?")
            new_sub: dict = {}
            pw = identity
            for _ in range(target):
                for h in sub:
                    new_sub[op(h, pw)] = True
                pw = op(pw, chosen)
            sub = new_sub
            basis.append(chosen)
            orders.append(target)
        if len(sub) != size:
            raise GroupError("Sylow basis does not span")
    # exponent-vector table
    dlog: dict = {identity: (0,) * len(basis)}
    for j, (g, o) in enumerate(zip(basis, orders)):
        table = list(dlog.items())
        pw = identity
        vec_unit = tuple(int(i == j) for i in range(len(basis)))
        for e in range(1, o):
            pw = op(pw, g)
            for elt, vec in table:
                dlog[op(elt, pw)] = tuple(a + e * b for a, b in zip(vec, vec_unit))
    if len(dlog) != n:
        raise GroupError("dlog table incomplete; element list not a group?")
    return basis, orders, dlog


# -- finite-field oracle -------------------------------------------------------

def _poly_deg(u) -> int:
    d = len(u) - 1
    while d >= 0 and u[d] == 0:
        d -= 1
    return d


def ff_mul(p: int, modulus: tuple, a: tuple, b: tuple) -> tuple:
    """a*b in F_p[x]/(f), f = x^t + sum modulus[i] x^i; schoolbook product,
    then the high coefficients are folded down one degree at a time."""
    t = len(modulus)
    out = [0] * (2 * t - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    for i in range(2 * t - 2, t - 1, -1):
        c = out[i] % p
        for j, fj in enumerate(modulus):
            out[i - t + j] -= c * fj
    return tuple(v % p for v in out[:t])


def frobenius_matrix(p: int, modulus: tuple) -> list[list[int]]:
    """The rows x^(i*p) mod f, i < t, f = x^t + sum modulus[i] x^i, by
    multiplying by x one degree at a time in Python integers while p < 64;
    beyond, x^p comes by square-and-multiply of schoolbook products (ff_mul)
    and each row is the last one times x^p."""
    t = len(modulus)
    rows, y = [], [1] + [0] * (t - 1)
    if p >= 64:
        xp = _pow(tuple(int(i == 1) for i in range(t)), p,
                  lambda a, b: ff_mul(p, modulus, a, b), tuple(y))
        for _ in range(t):
            rows.append(list(y))
            y = ff_mul(p, modulus, y, xp)
        return rows
    for n in range((t - 1) * p + 1):
        if n % p == 0:
            rows.append(list(y))
        top = y[-1]
        y = [0] + y[:-1]
        y = [(v - top * c) % p for v, c in zip(y, modulus)]
    return rows


def ff_inverse(p: int, modulus: tuple, a: tuple) -> tuple:
    """Inverse of a nonzero a in F_p[x]/(f) by the extended Euclidean
    algorithm on (f, a)."""
    t = len(modulus)

    def polymul(u, v):
        out = [0] * (len(u) + len(v) - 1)
        for i, ui in enumerate(u):
            for j, vj in enumerate(v):
                out[i + j] = (out[i + j] + ui * vj) % p
        return out

    def polysub(u, v):
        out = list(u) + [0] * (len(v) - len(u))
        for i, vi in enumerate(v):
            out[i] = (out[i] - vi) % p
        return out

    r0, r1 = list(modulus) + [1], list(a)
    s0, s1 = [0], [1]
    while _poly_deg(r1) >= 0:
        d0, d1 = _poly_deg(r0), _poly_deg(r1)
        if d0 < d1:
            r0, r1, s0, s1 = r1, r0, s1, s0
            continue
        lead = r0[d0] * pow(r1[d1], -1, p) % p
        q = [0] * (d0 - d1) + [lead]
        r0 = polysub(r0, polymul(q, r1))
        s0 = polysub(s0, polymul(q, s1))
        if _poly_deg(r0) < _poly_deg(r1):
            r0, r1, s0, s1 = r1, r0, s1, s0
    assert _poly_deg(r0) == 0, "not invertible: zero, or f is reducible"
    cinv = pow(r0[0], -1, p)
    out = [v * cinv % p for v in s0] + [0] * t
    return tuple(out[:t])


def _poly_gcd(a, b, p: int) -> list[int]:
    """Monic gcd in F_p[x] of a and b, not both zero, by Euclid's
    algorithm on lists of Python integers, low degree first."""
    a, b = [v % p for v in a], [v % p for v in b]
    while _poly_deg(b) >= 0:
        db = _poly_deg(b)
        inv = pow(b[db], -1, p)
        while (da := _poly_deg(a)) >= db:
            c = a[da] * inv % p
            for j in range(db + 1):
                a[da - db + j] = (a[da - db + j] - c * b[j]) % p
        a, b = b, a
    da = _poly_deg(a)
    inv = pow(a[da], -1, p)
    return [v * inv % p for v in a[:da + 1]]


def _poly_eval(coeffs, x: int, p: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % p
    return acc


def batched_gcd_is_irreducible(p: int, coeffs: tuple[int, ...]) -> bool:
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
    for k in range(1, t // 2 + 1):
        y = _pow(y, p, FFElement.__mul__, F.one())
        if k == 1:
            continue   # linear factors already excluded
        diff = y - x
        if diff.is_zero():
            return False
        # batch the degree checks: gcd(f, prod of differences) != 1 iff some
        # factor degree falls in the batch
        batch = batch * diff
        if k % 8 == 0 or k == t // 2:
            if batch.is_zero() or _poly_gcd(batch.coeffs, f_full, p) != [1]:
                return False
            batch = F.one()
    return True


def modulus_rank(p: int, t: int, modulus: tuple[int, ...]) -> int:
    """Position of a modulus in finite_field's search order (constant term
    1..p-1 first, then the other coefficients lexicographically), counted
    from 1: the number of candidates up to and including it."""
    rank = modulus[0] - 1
    for c in modulus[1:]:
        rank = rank * p + c
    return rank + 1


def is_irreducible(p: int, coeffs: tuple[int, ...], screen=None) -> bool:
    """Monic f = x^t + sum coeffs[i] x^i, t >= 2, irreducible over F_p?  The
    one-row case of the block test, with its own screen unless given one."""
    t = len(coeffs)
    rows = np.array([coeffs], dtype=_exact_dtype((t + 1) * (p - 1) ** 2))
    screen = screen or _small_factor_screen(p, t)
    return next(_irreducible_rows(p, rows, screen), None) is not None


def scanned_finite_field(p: int, t: int) -> tuple[int, ...]:
    """The modulus of F_{p^t}, t >= 2, by a scan one candidate at a time in
    search order, each through the one-row block test with one screen for
    the whole scan."""
    screen = _small_factor_screen(p, t)
    return next(c for c in itertools.product(range(1, p), *[range(p)] * (t - 1))
                if is_irreducible(p, c, screen))


def field_elements(F: FiniteField):
    """Every element of F in ascending coefficient-lexicographic order
    (constant term first), one at a time: the n-th has the base-p digits
    of n as coefficients, the most significant first."""
    for n in range(F.p ** F.t):
        yield F.element(tuple(n // F.p ** (F.t - 1 - i) % F.p for i in range(F.t)))


def scanned_unity_image(p: int, q: int, m: int):
    """The lex-least element of exact order q^m in F_{p^t}, t = ord(p mod
    q^m), by a scan on field elements: the cofactor power of the first
    affine element c1*x + c0, then of the first element in lexicographic
    order, whose power has exact order q^m, and then all q^m of its powers
    multiplied out one at a time."""
    if m == 0:
        return finite_field(p, 1).one()
    qm = q ** m
    F = finite_field(p, int(n_order(p, qm)))
    affine = (F.element((c0, c1) + (0,) * (F.t - 2))
              for c1 in range(1, p) for c0 in range(p)) if F.t > 1 else ()
    w = next(c for c in (z ** ((F.order - 1) // qm)
                         for z in itertools.chain(affine, field_elements(F)) if not z.is_zero())
             if not c ** (qm // q) == F.one())
    best, acc = None, F.one()
    for j in range(qm):
        if j % q and (best is None or acc.coeffs < best.coeffs):
            best = acc
        acc = acc * w
    return best


# Splitting degrees ord(p mod q^m) up to which the tests compare the q^m
# powers of a root of unity element by element.
DISTINCT_POWERS_MAX_DEGREE = 64


def distinct_unity_powers(p: int, q: int, m: int) -> bool:
    """Whether the q^m powers of unity_image(p, q, m) are pairwise distinct
    in F_{p^t}, compared element by element."""
    zeta = unity_image(p, q, m)
    seen, acc = set(), zeta.field.one()
    for _ in range(q ** m):
        seen.add(acc.coeffs)
        acc = acc * zeta
    return len(seen) == q ** m


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


def euler_prime_ideals(tag, modulus: OkElement, bound: int) -> set[OkElement]:
    """Canonical generators of the prime ideals of norm <= bound coprime to
    the modulus: the primes above each rational prime ell <= bound."""
    return {p.generator for ell in primerange(2, bound + 1)
            for p in primes_above(tag, ell)
            if p.norm() <= bound and not p.divides(modulus)}


# -- ray class character oracle ------------------------------------------------

def per_ideal_chi(group, chis, e: OkElement) -> list[complex]:
    """chi(e) for each chi in chis, at the ideal (e) coprime to the group's
    modulus, from e's own ray class coordinates: one discrete log per
    element, no residue table."""
    cls = group.ideal_class_coords(e)
    thetas = [sum(c * v / inv for c, v, inv in zip(cls, chi.exponents,
                                                   group.presentation.invariants))
              for chi in chis]
    return [cmath.exp(2j * cmath.pi * theta) for theta in thetas]


def per_class_chi_row(modulus: OkElement, chi):
    """chi_row(y, xs) for a nontrivial chi, one scalar discrete log at a
    time: one value per residue class of the modulus met, at its
    representative in the Hermite box (alpha, beta, gamma), keyed
    r*alpha + (x - b*beta) mod alpha with b, r = divmod(y, gamma), and one
    scalar factor dlog per residue class of that factor met, keyed the same
    way in the factor's own box.  Both tables only grow."""
    group = ray_class_group(modulus)
    invariants = group.presentation.invariants
    alpha, beta, gamma = _hnf_box(group.modulus)
    # keys lie below alpha*gamma; the margin to 2^63 leaves room for x - b*beta
    key_dtype = np.int64 if alpha * gamma < 2 ** 62 else object
    values: dict[int, complex] = {}
    factors = [(f, *_hnf_box(f.modulus), {}) for f in group.units.factors]

    def chi_at(i: int) -> complex:
        x, y = i % alpha, i // alpha
        word: list[int] = []
        for f, a, b, g, logs in factors:
            q, r = divmod(y, g)
            x_f = (x - q * b) % a
            k = r * a + x_f
            if k not in logs:
                logs[k] = f.dlog(OkElement(group.tag, x_f, r))
            word.extend(logs[k])
        cls = group.presentation.coords(word)
        theta = sum(c * v / inv for c, v, inv in zip(cls, chi.exponents, invariants))
        return cmath.exp(2j * cmath.pi * theta)

    def chi_row(y: int, xs: np.ndarray) -> np.ndarray:
        b, r = divmod(y, gamma)
        idx = (xs.astype(key_dtype, copy=False) - b * beta % alpha) % alpha + r * alpha
        keys, inverse = np.unique(idx, return_inverse=True)
        row = [values[i] if i in values else values.setdefault(i, chi_at(i))
               for i in keys.tolist()]
        return np.array(row)[inverse]

    return chi_row


# -- two-walk L-value oracle ---------------------------------------------------

def ideal_rows(tag, bound: int):
    """Yield (y, xs, norms) numpy rows covering each nonzero ideal of norm <=
    bound exactly once, one row y at a time with its own x-range: y >= 1
    (any x) plus y = 0, x >= 1 for the two-unit fields, the sector x >= 1,
    y >= 0 for d = 1 and d = 3."""
    t, n = tag.min_poly
    quarter = tag.num_units >= 4
    ymax = isqrt(4 * bound // (4 * n - t * t))
    for y in range(0, ymax + 1):
        c = n * y * y - bound
        # disc = 4*bound - (4n - t^2)*y^2 >= 0 by the choice of ymax
        disc = t * t * y * y - 4 * c
        r = math.sqrt(float(disc))
        lo = int(math.floor((-t * y - r) / 2)) - 1
        hi = int(math.ceil((-t * y + r) / 2)) + 1
        if y == 0 or quarter:
            lo = max(lo, 1)
        if hi < lo:
            continue
        xs = np.arange(lo, hi + 1, dtype=np.int64)
        norms = xs * xs + t * xs * y + n * y * y
        keep = (norms >= 1) & (norms <= bound)
        if keep.any():
            yield y, xs[keep], norms[keep]


def coprime_rows(tag, modulus: OkElement, bound: int):
    """The ideal_rows rows restricted to ideals coprime to the modulus, row
    by row in Python integers: a prime of degree one over ell with
    omega = s mod it divides x + y*omega iff x + y*s = 0 mod ell; an inert
    ell divides it iff ell | x and ell | y."""
    primes = [(p.residue_char, None if p.kind == "inert" else omega_residue(p.generator))
              for p, _ in factor(modulus).factors]
    for y, xs, norms in ideal_rows(tag, bound):
        mask = np.array([all((x + y * root) % ell if root is not None else x % ell or y % ell
                             for ell, root in primes) for x in xs.tolist()], dtype=bool)
        if mask.any():
            yield y, xs[mask], norms[mask]


def two_walk_L(tag, modulus: OkElement, chi, s: float, bound: int):
    """(Dirichlet sum, Euler product) as two separate walks over the coprime
    rows, each with its own chi lookups and the product with its own sieve:
    the floating-point operations of the one-walk _l_values, in the same
    order, so the pairs agree exactly."""
    return (_dirichlet_walk(tag, modulus, chi, s, bound),
            _euler_walk(tag, modulus, chi, s, bound))


def _dirichlet_walk(tag, modulus, chi, s, bound) -> LSeriesValue:
    total, chi_row = _character(modulus, chi, s, bound)
    for y, xs, norms in coprime_rows(tag, modulus, bound):
        total += np.sum(chi_row(y, xs) * norms.astype(np.float64) ** (-s)).item()
    return LSeriesValue(total, bound, dirichlet_tail_bound(bound, s))


def _euler_walk(tag, modulus, chi, s, bound) -> LSeriesValue:
    zero, chi_row = _character(modulus, chi, s, bound)
    total = zero + 1.0
    sieve = _prime_sieve(bound)
    for y, xs, norms in coprime_rows(tag, modulus, bound):
        # the prime ideals: entries of prime norm for y != 0, inert (ell, 0) for y = 0
        keep = sieve[norms] if y else np.array([bool(sieve[x]) and split_type(tag, x) == "inert"
                                                 for x in xs.tolist()], dtype=bool)
        factors = 1.0 - chi_row(y, xs[keep]) * norms[keep].astype(np.float64) ** (-s)
        for f in factors.tolist():
            total = total / f
    log_tail = dirichlet_tail_bound(bound, s) / (1.0 - float(bound) ** (-s))
    err = abs(total) * math.expm1(log_tail)
    return LSeriesValue(total, bound, err)


# -- prime ideal oracle --------------------------------------------------------

def brute_primes_above(tag, ell: int) -> set[OkElement]:
    """Canonical generators of the primes above the rational prime ell: the
    canonical associates of the elements of norm ell, or ell itself when
    there are none (ell inert).  From 4*ell = (2x + ty)^2 + (4n - t^2)y^2,
    y is scanned up to sqrt(4*ell/(4n - t^2)) and x read off a perfect
    square."""
    t, n = tag.min_poly
    out = set()
    for y in range(isqrt(4 * ell // (4 * n - t * t)) + 1):
        disc = 4 * ell - (4 * n - t * t) * y * y
        r = isqrt(disc)
        if r * r == disc:
            for u in (r, -r):
                if (u - t * y) % 2 == 0:
                    out.add(canonical_associate(OkElement(tag, (u - t * y) // 2, y)))
    return out or {tag.from_int(ell)}


def scanned_elements_up_to_norm(tag, bound: int) -> list[OkElement]:
    """Canonical ideal generators of norm in [1, bound], sorted by
    (norm, x, y): every lattice point under the norm bound is scanned and
    kept when it is its own canonical associate."""
    t, n = tag.min_poly
    out = []
    ymax = isqrt(4 * bound // (4 * n - t * t))
    for y in range(-ymax - 1, ymax + 2):
        disc = t * t * y * y - 4 * (n * y * y - bound)
        if disc < 0:
            continue
        r = isqrt(disc)
        for x in range((-t * y - r - 2) // 2, (-t * y + r + 2) // 2 + 1):
            e = OkElement(tag, x, y)
            if 1 <= e.norm() <= bound and canonical_associate(e) == e:
                out.append(e)
    out.sort(key=lambda e: (e.norm(), e.x, e.y))
    return out


# -- binary quadratic form oracles -------------------------------------------

def _solve_linmod(a: int, b: int, m: int) -> tuple[int, int]:
    """x with a*x = b (mod m); returns (x0, step) parameterizing all
    solutions x0 + step*Z."""
    g, d, _ = _xgcd(a, m)
    if b % g:
        raise FormError("congruence has no solution")
    return (b // g) * d % m, m // g


def is_reduced(f: QuadForm) -> bool:
    """-a < b <= a <= c, with b >= 0 when a = c."""
    a, b, c = f.a, f.b, f.c
    return -a < b <= a <= c and (b >= 0 or a != c)


def form_value(f: QuadForm, x: int, y: int) -> int:
    return f.a * x * x + f.b * x * y + f.c * y * y


def transformed_form(f: QuadForm, x: int, z: int, y: int, w: int) -> QuadForm:
    """Action of the determinant-one matrix [[x, z], [y, w]]."""
    if x * w - y * z != 1:
        raise FormError("transformation matrix must have determinant 1")
    a, b, c = f.a, f.b, f.c
    return QuadForm(form_value(f, x, y),
                    2 * a * x * z + b * (x * w + y * z) + 2 * c * y * w,
                    form_value(f, z, w))


def form_coprime_to(f: QuadForm, m: int) -> QuadForm:
    """Equivalent form whose leading coefficient is coprime to m.

    A primitive form represents values coprime to any fixed modulus;
    the search spirals outward deterministically."""
    for s in range(1, 4 * abs(m) + 4):
        for x in range(-s, s + 1):
            for y in (s - abs(x), abs(x) - s):
                if gcd(x, y) != 1:
                    continue
                if gcd(form_value(f, x, y), m) == 1:
                    _, p, q = _xgcd(x, y)
                    return transformed_form(f, x, -q, y, p)
    raise FormError(f"no represented value coprime to {m}; form imprimitive?")


def united_form_compose(f: QuadForm, other: QuadForm) -> QuadForm:
    """Dirichlet composition through united forms (not reduced)."""
    disc = f.discriminant()
    if disc != other.discriminant():
        raise FormError("forms of different discriminants")
    g = other if gcd(f.a, other.a) == 1 else form_coprime_to(other, f.a)
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


def scanned_prime_form(disc: int, ell: int) -> QuadForm | None:
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


# -- growth-law oracles --------------------------------------------------------

def per_level_decomposition_counts(ell: int, q: int, n_max: int) -> list[int]:
    """Primes above ell in layers 0..n_max of the cyclotomic Z_q-extension of
    Q, one multiplicative order per layer: q^n over the q-part of
    ord(ell mod q^(n+1)); 1 throughout for ell = q."""
    if ell == q:
        return [1] * (n_max + 1)
    out = [1]
    for n in range(1, n_max + 1):
        t = int(n_order(ell, q ** (n + 1)))
        out.append(q ** n // q ** padic_val(t, q))
    return out


def solve_growth(pts, q: int) -> tuple[int, int, int] | None:
    """Exact solve of mu*q^n + lambda*n + nu = e over three points (n, e) by
    Gaussian elimination in Fractions; None unless all three are integers."""
    rows = [[Fraction(q) ** n, Fraction(n), Fraction(1), Fraction(v)] for n, v in pts]
    for col in range(3):
        piv = next((r for r in range(col, 3) if rows[r][col] != 0), None)
        if piv is None:
            return None
        rows[col], rows[piv] = rows[piv], rows[col]
        pv = rows[col][col]
        rows[col] = [v / pv for v in rows[col]]
        for r in range(3):
            if r != col and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[col])]
    vals = [rows[i][3] for i in range(3)]
    if any(v.denominator != 1 for v in vals):
        return None
    return tuple(int(v) for v in vals)


def scanned_fit_iwasawa(e: list[int], q: int) -> tuple[int, int, int, int] | None:
    """fit_iwasawa by trying every start n0 in turn: solve on the three
    values from n0 by exact division with q^n0 formed outright, then check
    the whole tail."""
    for n0 in range(0, len(e) - 2):
        e0, e1, e2 = e[n0:n0 + 3]
        step = q ** n0 * (q - 1)
        mu, rem = divmod(e2 - 2 * e1 + e0, step * (q - 1))
        if rem:
            continue
        lam = e1 - e0 - mu * step
        nu = e0 - mu * q ** n0 - lam * n0
        if mu < 0 or lam < 0:
            continue
        if all(e[n] == mu * q ** n + lam * n + nu for n in range(n0, len(e))):
            return (mu, lam, nu, n0)
    return None
