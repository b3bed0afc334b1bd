"""Property tests for the shared integer and group helpers, checked against
brute force or exact rational arithmetic.  Derandomized with bounded example
counts, so every run draws the same cases."""

from fractions import Fraction
from math import floor, gcd, prod

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from sympy import Matrix, divisors, nextprime, primerange

from iqtower.abgroup import (GroupError, _pow, _word_product, coords_order, padic_val,
                             smith_normal_form)
from iqtower.classforms import QuadForm
from iqtower.finitefield import finite_field
from iqtower.okring import (CLASS_NUMBER_ONE_DS, OkElement, canonical_associate,
                            factor, field, gcd_ok, primes_above, split_type)
from iqtower.lvaluation import _chi_table
from iqtower.rayclass import (CharacterSpec, UnitGroup, _Factor, lcm_ideal, ray_class_group,
                              reduce_mod)
from iqtower.selmerrank import _solve_growth

from oracles import (coprime_rows, is_reduced, per_ideal_chi, scanned_padic_val, solve_growth,
                     united_form_compose)

SETTINGS = settings(derandomize=True, max_examples=150, deadline=None)

fields = st.sampled_from(CLASS_NUMBER_ONE_DS).map(field)
small = st.integers(-40, 40)
big = st.integers(-10 ** 6, 10 ** 6)
huge = st.integers(-10 ** 61, 10 ** 61)


def test_default_profile_is_derandomized():
    # conftest loads it, so a @given without its own settings draws from a fixed seed
    assert settings.default.derandomize is True
    assert settings.default.deadline is None


def _nonzero(tag, x: int, y: int) -> OkElement:
    e = OkElement(tag, x, y)
    return tag.one() if e.is_zero() else e


def _fraction_round(e: OkElement, modulus: OkElement) -> OkElement:
    """reduce_mod's definition in exact rationals: round the coordinates of
    e/modulus to the nearest integer, halves up."""
    n = modulus.norm()
    num = e * modulus.conj()
    q1 = floor(Fraction(num.x, n) + Fraction(1, 2))
    q2 = floor(Fraction(num.y, n) + Fraction(1, 2))
    return e - OkElement(e.tag, q1, q2) * modulus


class TestReduceMod:
    @SETTINGS
    @given(fields, small, small, big, big, small, small)
    # ties: e/modulus has half-integer coordinates, at both signs
    @example(field(1), 2, 0, 1, 1, 0, 0)
    @example(field(1), 2, 0, -1, -1, 0, 0)
    @example(field(2), 0, 2, -3, 5, 1, -1)
    @example(field(3), 2, 0, 1, -1, 0, 0)
    def test_exact_idempotent_class_constant(self, tag, mx, my, x, y, kx, ky):
        modulus = OkElement(tag, mx, my)
        if modulus.is_zero():
            modulus = tag.one()
        e = OkElement(tag, x, y)
        r = reduce_mod(e, modulus)
        assert r == _fraction_round(e, modulus)
        assert reduce_mod(r, modulus) == r
        assert (e - r).divide_exact(modulus) is not None
        shifted = e + OkElement(tag, kx, ky) * modulus
        assert reduce_mod(shifted, modulus) == r


    @SETTINGS
    @given(fields, small, small, big, big)
    # 1 mod 2 is -1 but 1 mod 2i is 1; both have the canonical associate 2
    @example(field(1), 2, 0, 1, 0)
    def test_canonical_associate_gives_one_result_per_ideal(self, tag, mx, my, x, y):
        modulus = OkElement(tag, mx, my)
        if modulus.is_zero():
            modulus = tag.one()
        e = OkElement(tag, x, y)
        assert len({reduce_mod(e, canonical_associate(u * modulus))
                    for u in tag.units()}) == 1


class TestPadicVal:
    @SETTINGS
    @given(st.integers(1, 10 ** 7), st.sampled_from([2, 3, 5, 7, 11, 13, 47]),
           st.integers(0, 12), st.booleans())
    def test_brute_force(self, n, p, extra, negative):
        n = n * p ** extra * (-1 if negative else 1)
        v = 0
        while n % p ** (v + 1) == 0:
            v += 1
        assert padic_val(n, p) == v

    def test_equals_scan_on_small_range(self):
        for p in primerange(2, 50):
            for n in range(-10 ** 4, 10 ** 4 + 1):
                if n:
                    assert padic_val(n, p) == scanned_padic_val(n, p), (n, p)

    @SETTINGS
    @given(st.sampled_from(list(primerange(2, 50))), st.integers(0, 2 * 10 ** 4),
           st.integers(-10 ** 12, 10 ** 12).filter(bool))
    def test_high_powers(self, p, k, m):
        # the scan on m alone: on p^k itself it would take k divisions
        assert padic_val(p ** k * m, p) == k + scanned_padic_val(m, p)

    def test_zero_raises(self):
        for p in (2, 3, 47):
            with pytest.raises(GroupError):
                padic_val(0, p)


class TestCoordsOrder:
    @SETTINGS
    @given(st.lists(st.tuples(st.integers(2, 40), st.integers(-100, 100)), max_size=4))
    def test_brute_force(self, pairs):
        invariants = [n for n, _ in pairs]
        coords = [c for _, c in pairs]
        k = 1
        while any(k * c % n for c, n in zip(coords, invariants)):
            k += 1
        assert coords_order(coords, invariants) == k


class TestSharedPower:
    @SETTINGS
    @given(st.integers(2, 10 ** 6), st.integers(-10 ** 6, 10 ** 6), st.integers(0, 60))
    def test_integers_mod_m(self, m, x, k):
        expected = 1 % m
        for _ in range(k):
            expected = expected * x % m
        assert _pow(x % m, k, lambda a, b: a * b % m, 1 % m) == expected

    @SETTINGS
    @given(st.integers(0, 10 ** 6), st.integers(0, 200))
    def test_no_product_by_identity(self, x, k):
        identity = object()

        def op(a, b):
            assert a is not identity and b is not identity
            return a * b % 1000003
        out = _pow(x, k, op, identity)
        assert out is identity if k == 0 else out == pow(x, k, 1000003)

    @SETTINGS
    @given(st.integers(2, 10 ** 6),
           st.lists(st.tuples(big, st.sampled_from([0, 0, 1, 2, 3, 17, 60])), max_size=6))
    @example(7, [])
    @example(7, [(3, 0), (5, 0)])
    @example(7, [(3, 0), (5, 2), (6, 0)])
    def test_word_product_equals_naive_product(self, m, terms):
        identity = object()

        def op(a, b):
            assert a is not identity and b is not identity
            return a * b % m
        expected = 1 % m
        for x, k in terms:
            for _ in range(k):
                expected = expected * x % m
        word = [k for _, k in terms]
        out = _word_product([x % m for x, _ in terms], word, op, identity)
        assert out is identity if not any(word) else out == expected

    @SETTINGS
    @given(fields, small, small, st.integers(0, 20))
    def test_ring_elements(self, tag, x, y, k):
        e = OkElement(tag, x, y)
        expected = tag.one()
        for _ in range(k):
            expected = expected * e
        assert e ** k == expected

    @SETTINGS
    @given(st.sampled_from([(2, 1), (3, 4), (5, 3), (7, 2), (2, 60)]),
           st.data(), st.integers(-20, 40))
    def test_field_elements(self, pt, data, k):
        F = finite_field(*pt)
        coeffs = data.draw(st.lists(st.integers(0, F.p - 1), min_size=F.t, max_size=F.t))
        z = F.element(coeffs)
        if k < 0 and z.is_zero():
            return
        base = z if k >= 0 else z.inverse()
        expected = F.one()
        for _ in range(abs(k)):
            expected = expected * base
        assert z ** k == expected


def _matrices(rows, cols):
    return st.lists(st.lists(st.integers(-50, 50), min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


class TestSmithNormalForm:
    @SETTINGS
    @given(st.tuples(st.integers(1, 4), st.integers(1, 5)).flatmap(lambda km: _matrices(*km)))
    def test_chain_and_transforms(self, rel):
        diag, U, Uinv = smith_normal_form(rel)
        k = len(rel)
        assert len(diag) == k and all(d >= 0 for d in diag)
        for a, b in zip(diag, diag[1:]):
            assert b % a == 0 if a else b == 0
        assert (Matrix(U) * Matrix(Uinv)).tolist() == Matrix.eye(k).tolist()
        # U rel V = diag with V unimodular, so row i of U rel is d_i times
        # an integer row
        for d, row in zip(diag, (Matrix(U) * Matrix(rel)).tolist()):
            assert all(v % d == 0 if d else v == 0 for v in row)

    @SETTINGS
    @given(st.integers(1, 4).flatmap(lambda k: _matrices(k, k)))
    def test_diagonal_product_is_determinant(self, rel):
        det = Matrix(rel).det()
        assume(det != 0)
        diag, _, _ = smith_normal_form(rel)
        assert prod(diag) == abs(det)


@st.composite
def form_triples(draw):
    """Three primitive forms, not necessarily reduced, of one discriminant
    in [-10^5, -501]: (a, b, (b^2 - disc)/4a) for a drawn divisor a."""
    disc = -draw(st.integers(501, 10 ** 5).filter(lambda n: -n % 4 in (0, 1)))

    def form():
        b = 2 * draw(st.integers(-100, 100)) + disc % 2
        n = (b * b - disc) // 4
        divs = divisors(n)
        a = divs[draw(st.integers(0, len(divs) - 1))]
        return QuadForm(a, b, n // a)
    forms = (form(), form(), form())
    assume(all(f.content() == 1 for f in forms))
    return forms


@st.composite
def form_pairs(draw):
    """Two primitive forms, not necessarily reduced, of one discriminant in
    [-10^6, -3], drawn as form_triples draws them.  In about half the pairs
    g.b = f.b mod 2 f.a, so f.a divides (g.b^2 - disc)/4, and g.a is drawn
    among its divisors that share a factor with f.a."""
    disc = -draw(st.integers(3, 10 ** 6).filter(lambda n: -n % 4 in (0, 1)))

    def form(b, keep=lambda a: True):
        n = (b * b - disc) // 4
        a = draw(st.sampled_from([a for a in divisors(n) if keep(a)]))
        return QuadForm(a, b, n // a)
    f = form(2 * draw(st.integers(-1000, 1000)) + disc % 2)
    if draw(st.booleans()):
        assume(f.a > 1)
        g = form(f.b + 2 * f.a * draw(st.integers(-50, 50)), lambda a: gcd(a, f.a) > 1)
    else:
        g = form(2 * draw(st.integers(-1000, 1000)) + disc % 2)
    assume(f.content() == 1 and g.content() == 1)
    return f, g


class TestFormComposition:
    @SETTINGS
    @given(form_triples())
    def test_associative_beyond_500(self, forms):
        f, g, h = forms
        left = ((f * g).reduced() * h).reduced()
        assert left == (f * (g * h).reduced()).reduced()
        assert is_reduced(left) and left.discriminant() == f.discriminant()

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(form_pairs())
    def test_matches_united_forms(self, pair):
        f, g = pair
        fg = f * g
        assert fg.discriminant() == f.discriminant()
        assert fg.reduced() == united_form_compose(f, g).reduced()


@st.composite
def mixed_moduli(draw):
    """Products of up to three distinct prime powers over l <= 13, split,
    inert and ramified alike."""
    tag = draw(fields)
    pool = [(p, e) for ell in (2, 3, 5, 7, 11, 13) for p in primes_above(tag, ell)
            for e in (1, 2, 3)]
    chosen = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3,
                           unique_by=lambda pe: pe[0]))
    modulus = tag.one()
    for p, e in chosen:
        modulus = modulus * p.generator ** e
    return modulus


class TestUnitGroupDlog:
    @settings(derandomize=True, max_examples=80, deadline=None)
    @given(mixed_moduli(), big, big, big, big)
    # d = 1: 3 inert, (1+i)^3 ramified, 5 = (2+i)(2-i) split
    @example(OkElement(field(1), 3, 0) * OkElement(field(1), 1, 1) ** 3 * OkElement(field(1), 2, 1),
             7, 4, -11, 9)
    # d = 3: 2^2 inert, sqrt(-3)^3 ramified, 7 split
    @example(OkElement(field(3), 4, 0) * OkElement(field(3), -1, 2) ** 3 * OkElement(field(3), 7, 0),
             5, 1, 13, -2)
    def test_homomorphism_and_power_word(self, modulus, a, b, c, d):
        _assert_dlog_homomorphism(modulus, a, b, c, d)


def _assert_dlog_homomorphism(modulus, a, b, c, d):
    """dlog(xy) = dlog(x) + dlog(y) and power_word inverts dlog, for the
    units x = a + b*omega and y = c + d*omega (others are skipped)."""
    U = UnitGroup(modulus)
    x, y = OkElement(modulus.tag, a, b), OkElement(modulus.tag, c, d)
    if not (U.is_unit(x) and U.is_unit(y)):
        return
    vx, vy = U.dlog(x), U.dlog(y)
    assert U.dlog(x * y) == [(i + j) % o for i, j, o in zip(vx, vy, U.orders)]
    assert U.power_word(vx) == reduce_mod(x, U.modulus)
    assert U.power_word(U.dlog(x * y)) == reduce_mod(x * y, U.modulus)


@st.composite
def split_prime_powers(draw):
    """p^e for a split prime p over l: l up to about 10^12 and e <= 5 in any
    of the nine fields, or l = 2 in d = 7 (where 2 splits) and e <= 10."""
    if draw(st.booleans()):
        tag, ell, e = field(7), 2, draw(st.integers(1, 10))
    else:
        tag = draw(fields)
        digits = draw(st.integers(1, 12))       # log-uniform up to 10^12
        ell = nextprime(draw(st.integers(10 ** (digits - 1), 10 ** digits)))
        while split_type(tag, ell) != "split":
            ell = nextprime(ell)
        e = draw(st.integers(1, 5))
    return draw(st.sampled_from(primes_above(tag, ell))).generator ** e


class TestSplitFactorDlog:
    """The filtration factor at split prime powers far beyond the every-unit
    sweeps: residues drawn from the whole of Z/l^e."""

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(split_prime_powers(), huge, huge, huge, huge)
    @example(primes_above(field(7), 2)[0].generator ** 10, 3, 0, -1, 2)
    @example(primes_above(field(1), 1010523706733)[1].generator ** 5,
             10 ** 61 - 1, 7, -3, 10 ** 60 + 11)
    def test_homomorphism_and_power_word(self, modulus, a, b, c, d):
        _assert_dlog_homomorphism(modulus, a, b, c, d)


class TestFactorDlogs:
    """What _chi_table's per-factor tables rest on: each prime-power factor's
    dlog depends on the residue class modulo that factor alone, and the
    factors' dlogs concatenate to the unit group's (CRT)."""

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(mixed_moduli().filter(lambda m: m.norm() <= 10 ** 5), big, big)
    def test_factor_words_give_class_coords(self, modulus, a, b):
        group = ray_class_group(modulus)
        e = OkElement(modulus.tag, a, b)
        assume(group.units.is_unit(e))
        word = [c for f in group.units.factors for c in f.dlog(reduce_mod(e, f.modulus))]
        assert group.presentation.coords(word) == group.ideal_class_coords(e)


@st.composite
def factor_prime_powers(draw):
    """(p, e) for a prime p of one of the nine fields and 1 <= e <= 5: p
    split or inert over a prime l < 3000, or the ramified prime."""
    tag = draw(fields)
    kind = draw(st.sampled_from(["split", "inert", "ramified"]))
    if kind == "ramified":
        ell = 2 if tag.d in (1, 2) else tag.d
    else:
        ell = nextprime(draw(st.integers(1, 3000)))
        while split_type(tag, ell) != kind:
            ell = nextprime(ell)
    return draw(st.sampled_from(primes_above(tag, ell))), draw(st.integers(1, 5))


def _factor_examples():
    """l = 2 split (d = 7), ramified (d = 1) and inert (d = 3) at e = 1 and 5;
    the split prime of norm about 10^12; a split l > 2^63; and the split
    primes of Z[i] next to the int64 band edge (l^e)^2 = 2^63 of dlogs."""
    two = [(field(d), e) for d in (7, 1, 3) for e in (1, 5)]
    out = [(primes_above(tag, 2)[0], e) for tag, e in two]
    out += [(primes_above(field(1), 1010523706733)[i], e) for i, e in ((0, 1), (1, 5))]
    out += [(primes_above(field(1), ell)[0], 1)
            for ell in (16210220612075905069, 3037000493, 3037000537)]
    return out


def _with_factor_examples(test):
    for pe in _factor_examples():
        test = example(pe, [(3, 1), (-2, 7), (10 ** 18, -(10 ** 17)), (1, 0)])(test)
    return test


class TestFactorDlogsArray:
    """_Factor.dlogs, a gather from the factor's table of units up to
    LOG_TABLE_MAX residues and the scalar dlog per distinct residue past it,
    equals the scalar dlog element by element, on both sides of its int64
    band."""

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(factor_prime_powers(), st.lists(st.tuples(huge, huge), min_size=1, max_size=12))
    @_with_factor_examples
    def test_dlogs_equals_dlog(self, pe, coords):
        p, e = pe
        f = _Factor(p, e)
        assert (f.dtype is np.int64) == (f.int_mod ** 2 < 2 ** 63)
        if f.dtype is np.int64:       # int64 inputs must fit int64, of either sign
            coords = [(x % 2 ** 63 - 2 ** 62, y % 2 ** 63 - 2 ** 62) for x, y in coords]
        units = [(x, y) for x, y in coords if not p.divides(OkElement(p.tag, x, y))]
        assume(units)
        xs, ys = (np.array(vals, dtype=f.dtype) for vals in zip(*units))
        got = f.dlogs(xs, ys)
        assert got.shape == (len(units), len(f.orders))
        assert got.tolist() == [f.dlog(OkElement(p.tag, x, y)) for x, y in units]

    def test_band_edge(self):
        below, above = (_Factor(primes_above(field(1), ell)[0], 1)
                        for ell in (3037000493, 3037000537))
        assert below.dtype is np.int64 and above.dtype is object


class TestChiTable:
    @SETTINGS
    @given(mixed_moduli().filter(lambda m: m.norm() <= 5000), st.data())
    def test_lookup_equals_per_ideal_oracle(self, modulus, data):
        tag, group = modulus.tag, ray_class_group(modulus)
        invariants = group.presentation.invariants
        assume(invariants)
        exponents = data.draw(st.tuples(*(st.integers(0, n - 1) for n in invariants))
                              .filter(any))
        chi = CharacterSpec(exponents, coords_order(exponents, invariants))
        table = _chi_table(modulus, chi)
        for y, xs, _ in coprime_rows(tag, modulus, 300):
            want = [per_ideal_chi(group, [chi], OkElement(tag, x, y))[0] for x in xs.tolist()]
            assert table(y, xs).tolist() == want, y


class TestRingAxioms:
    """Associativity, commutativity and distributivity of + and *, and
    N(ab) = N(a)N(b), in each of the nine rings, coordinates beyond int64
    included."""

    PER_RING = settings(derandomize=True, max_examples=40, deadline=None)
    coords = st.integers(-10 ** 6, 10 ** 6) | st.integers(-2 ** 80, 2 ** 80)
    elements = st.tuples(coords, coords)

    @pytest.mark.parametrize("d", CLASS_NUMBER_ONE_DS)
    @PER_RING
    @given(elements, elements, elements)
    def test_commutative_ring(self, d, a, b, c):
        tag = field(d)
        a, b, c = (OkElement(tag, *v) for v in (a, b, c))
        assert (a + b) + c == a + (b + c) and a + b == b + a
        assert (a * b) * c == a * (b * c) and a * b == b * a
        assert a * (b + c) == a * b + a * c

    @pytest.mark.parametrize("d", CLASS_NUMBER_ONE_DS)
    @PER_RING
    @given(elements, elements)
    def test_norm_multiplicative(self, d, a, b):
        tag = field(d)
        a, b = OkElement(tag, *a), OkElement(tag, *b)
        assert (a * b).norm() == a.norm() * b.norm()


class TestIdeals:
    @SETTINGS
    @given(fields, small, small)
    def test_factor_rebuilds_the_element(self, tag, x, y):
        e = _nonzero(tag, x, y)
        assert factor(e).value() == e

    @SETTINGS
    @given(fields, small, small, small, small)
    # 30(1+i) and 15(1+i) in Z[i] share split, inert and ramified prime powers
    @example(field(1), 30, 30, 15, 15)
    def test_gcd_lcm_identities(self, tag, a0, a1, b0, b1):
        a, b = _nonzero(tag, a0, a1), _nonzero(tag, b0, b1)
        g, m = gcd_ok(a, b), lcm_ideal(a, b)
        assert canonical_associate(g * m) == canonical_associate(a * b)
        for x in (a, b):
            assert m.divide_exact(x) is not None
            assert x.divide_exact(g) is not None


class TestGrowthSolve:
    @SETTINGS
    @given(st.sampled_from([2, 3, 5, 7, 11]), st.integers(0, 8), st.booleans(),
           st.tuples(big, big, big))
    def test_closed_form_matches_elimination(self, q, n0, exact, coeffs):
        if exact:
            mu, lam, nu = coeffs
            vals = [mu * q ** n + lam * n + nu for n in range(n0, n0 + 3)]
        else:
            vals = list(coeffs)
        got = _solve_growth(vals, n0, q)
        assert got == solve_growth(list(zip(range(n0, n0 + 3), vals)), q)
        if exact:
            assert got == coeffs
