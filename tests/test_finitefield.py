"""F_{p^t} arithmetic against the schoolbook oracle, and a digest of the
moduli and roots of unity the residue side builds.

The degrees cross t = 48, where multiplication used to switch between a
schoolbook and a numpy path; one field has p^2 > 2^63, where int64
products overflow."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iqtower.finitefield import FieldError, FiniteField, finite_field
from iqtower.lvaluation import unity_image

from oracles import ff_inverse, ff_mul

DEGREES = [(2, 1), (3, 4), (13, 8), (5, 47), (5, 48), (5, 49), (3, 55), (7, 64)]

MERSENNE_61 = 2 ** 61 - 1


def _big_field() -> FiniteField:
    """F_{p^2} for p = 2^61 - 1, with modulus x^2 - c for the smallest
    quadratic non-residue c."""
    p = MERSENNE_61
    c = next(c for c in range(2, 100) if pow(c, (p - 1) // 2, p) == p - 1)
    return FiniteField(p, 2, (-c % p, 0))


def _check_against_oracle(F: FiniteField, a: list, b: list) -> None:
    x, y = F.element(a), F.element(b)
    assert (x * y).coeffs == ff_mul(F.p, F.modulus, x.coeffs, y.coeffs)
    if x.is_zero():
        with pytest.raises(FieldError):
            x.inverse()
    else:
        inv = x.inverse()
        assert inv.coeffs == ff_inverse(F.p, F.modulus, x.coeffs)
        assert x * inv == F.one()


@st.composite
def element_pairs(draw, fields):
    F = draw(fields)
    coeffs = st.lists(st.integers(0, F.p - 1), min_size=F.t, max_size=F.t)
    return F, draw(coeffs), draw(coeffs)


class TestAgainstOracle:
    @settings(derandomize=True, max_examples=160, deadline=None)
    @given(element_pairs(st.sampled_from(DEGREES).map(lambda pt: finite_field(*pt))))
    def test_mul_and_inverse(self, case):
        _check_against_oracle(*case)

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(element_pairs(st.builds(_big_field)))
    def test_mul_and_inverse_beyond_int64(self, case):
        _check_against_oracle(*case)

    def test_zero_and_extremes(self):
        for F in [finite_field(p, t) for p, t in DEGREES] + [_big_field()]:
            top = [F.p - 1] * F.t
            _check_against_oracle(F, top, top)
            _check_against_oracle(F, [0] * F.t, top)


# (p, q, m) whose fields F_{p^t}, t = ord(p mod q^m), span t = 36..57
UNITY_CASES = [(3, 11, 3), (5, 11, 2), (5, 13, 2), (7, 19, 2), (11, 19, 2),
               (13, 47, 1), (5, 37, 1), (3, 13, 2)]
UNITY_DIGEST = "93838599e7cdf46eda8422ca771f7fccf619012468955c32133b1c228d0718ae"


def test_moduli_and_unity_images_digest():
    """SHA-256 over the modulus and the chosen primitive q^m-th root of
    unity of each case, recorded before multiplication went single-path."""
    h = hashlib.sha256()
    for p, q, m in UNITY_CASES:
        z = unity_image(p, q, m)
        t = z.field.t
        h.update(repr((p, q, m, t, finite_field(p, t).modulus, z.coeffs)).encode())
    assert h.hexdigest() == UNITY_DIGEST
