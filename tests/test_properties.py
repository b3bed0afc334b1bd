"""Property tests for the shared integer and group helpers, checked against
brute force or exact rational arithmetic.  Derandomized with bounded example
counts, so every run draws the same cases."""

from fractions import Fraction
from math import floor

from hypothesis import example, given, settings
from hypothesis import strategies as st

from iqtower.abgroup import _pow, coords_order, padic_val
from iqtower.finitefield import finite_field
from iqtower.okring import CLASS_NUMBER_ONE_DS, OkElement, field
from iqtower.rayclass import reduce_mod

SETTINGS = settings(derandomize=True, max_examples=150, deadline=None)

fields = st.sampled_from(CLASS_NUMBER_ONE_DS).map(field)
small = st.integers(-40, 40)
big = st.integers(-10 ** 6, 10 ** 6)


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
