"""F_{p^t} arithmetic against the schoolbook oracle, the modulus search's
irreducibility test against the batched-gcd oracle, the block search
against the one-candidate-at-a-time scan, and a digest of the moduli and
roots of unity the residue side builds.

The degrees cross t = 48, where multiplication used to switch between a
schoolbook and a numpy path; one field has p^2 > 2^63, where int64
products overflow."""

import hashlib
import itertools
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from sympy import divisors, mobius, n_order, primerange

from iqtower import finitefield
from iqtower import lvaluation
from iqtower.abgroup import _pow
from iqtower.finitefield import (BLOCK_CANDIDATES, FieldError, FiniteField, _irreducible_rows,
                                 _small_factor_screen, finite_field)
from iqtower.lvaluation import unity_image

from oracles import (batched_gcd_is_irreducible, ff_inverse, ff_mul, frobenius_matrix,
                     modulus_rank, scanned_finite_field)
from oracles import is_irreducible as _is_irreducible

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


# -- the modulus search's irreducibility test ----------------------------------

# every (p, t) with t >= 2 and p^t <= 5000; t = 1 is never searched
SMALL_DEGREES = [(p, t) for p in primerange(2, 71) for t in range(2, 13) if p ** t <= 5000]


def _poly_mul(p: int, g: tuple, h: tuple) -> tuple:
    """Low coefficients of the monic product of two monic polynomials given
    by their low coefficients."""
    a, b = list(g) + [1], list(h) + [1]
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    return tuple(out[:-1])


def _frobenius_fixes_x(p: int, coeffs: tuple) -> bool:
    """x^(p^t) = x mod f, by schoolbook powers."""
    t = len(coeffs)
    x = (0, 1) + (0,) * (t - 2)
    y = x
    for _ in range(t):
        acc = (1,) + (0,) * (t - 1)
        for _ in range(p):
            acc = ff_mul(p, coeffs, acc, y)
        y = acc
    return y == x


def _has_root(p: int, coeffs: tuple) -> bool:
    return any(sum(c * a ** i for i, c in enumerate(coeffs + (1,))) % p == 0
               for a in range(p))


class TestIrreducibility:
    @pytest.mark.parametrize("p,t", SMALL_DEGREES)
    def test_every_small_candidate_matches_oracle_and_count(self, p, t):
        """One block test on all p^t candidates, checked row by row."""
        candidates = list(itertools.product(range(p), repeat=t))
        irreducible = {i for i, _ in _irreducible_rows(p, np.array(candidates),
                                                        _small_factor_screen(p, t))}
        for i, coeffs in enumerate(candidates):
            assert (i in irreducible) == batched_gcd_is_irreducible(p, coeffs), (p, coeffs)
        assert len(irreducible) * t == sum(mobius(d) * p ** (t // d) for d in divisors(t))

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(st.data())
    def test_hypothesis_candidates_match_oracle(self, data):
        p = data.draw(st.sampled_from(list(primerange(2, 51))))
        t = data.draw(st.integers(2, 64))

        def monic(n):
            return st.tuples(*[st.integers(0, p - 1)] * n)

        if data.draw(st.booleans()):
            coeffs = data.draw(monic(t))
        else:   # a product, which reaches the Frobenius steps when neither factor has a root
            a = data.draw(st.integers(1, t - 1))
            coeffs = _poly_mul(p, data.draw(monic(a)), data.draw(monic(t - a)))
        assert _is_irreducible(p, coeffs) == batched_gcd_is_irreducible(p, coeffs)

    @pytest.mark.parametrize("p,d", [(3, 2), (5, 2), (7, 2), (11, 2),
                                     (2, 3), (3, 3), (5, 3), (7, 3)])
    def test_products_fixed_by_frobenius_are_rejected(self, p, d):
        """g*h for distinct irreducible g, h of degree d is fixed by
        x -> x^(p^(2d)) and has no root.  At d = 3 only Rabin's gcd can
        reject it; at d = 2 the screen for factors of degree <= 2 does."""
        g, h = itertools.islice((c for c in itertools.product(range(p), repeat=d)
                                 if batched_gcd_is_irreducible(p, c)), 2)
        f = _poly_mul(p, g, h)
        assert not _has_root(p, f) and _frobenius_fixes_x(p, f)
        assert not _is_irreducible(p, f)

    @pytest.mark.parametrize("p,t", [(7, 57), (5, 36)])
    def test_search_builds_one_field(self, p, t, monkeypatch):
        built = []
        init = FiniteField.__init__

        def counting_init(self, *args):
            built.append(args)
            init(self, *args)

        monkeypatch.setattr(FiniteField, "__init__", counting_init)
        F = finite_field.__wrapped__(p, t)
        assert len(built) == 1 and built[0][:3] == (p, t, F.modulus)
        assert built[0][3].tolist() == frobenius_matrix(p, F.modulus)

    @pytest.mark.parametrize("p,t", SMALL_DEGREES)
    def test_search_order_is_lex_with_constant_term_first(self, p, t):
        first = next(c for c in itertools.product(range(p), repeat=t)
                     if c[0] and batched_gcd_is_irreducible(p, c))
        assert finite_field.__wrapped__(p, t).modulus == first

    def test_search_memory_does_not_grow_with_p(self):
        # the candidates come from a counter, so no range(p) is copied;
        # x^2 + 1 is irreducible since 1000003 = 3 mod 4
        tracemalloc.start()
        try:
            F = finite_field.__wrapped__(1000003, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert F.modulus == (1, 0)
        assert peak < 2 ** 20, peak


# the eight fields of largest degree among the benchmark's residue fields
# F_{p^t}, p <= 13, t = ord(p mod q^m) <= 64
LARGEST_RESIDUE_FIELDS = [(5, 46), (11, 46), (13, 46), (5, 52), (3, 55), (5, 55), (7, 57),
                          (11, 57)]


class TestFrobeniusHandoff:
    """A searched field keeps the Frobenius matrix Q of Rabin's test for its
    modulus (t >= 6, or any t >= 2 beyond the screen's table); below t = 6,
    where the table decides, a power builds Q on first use, and only while
    p <= t."""

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
    def test_q_equals_oracle_up_to_degree_20(self, p):
        for t in range(2, 21):
            F = finite_field.__wrapped__(p, t)
            assert (F._frobenius is not None) == (t >= 6), (p, t)
            F.gen() ** F.order
            if t < min(p, 6):
                assert F._frobenius is None, (p, t)
            else:
                assert F._frobenius.tolist() == frobenius_matrix(p, F.modulus), (p, t)

    @pytest.mark.parametrize("p,t", LARGEST_RESIDUE_FIELDS)
    def test_q_of_the_largest_residue_fields_equals_oracle(self, p, t):
        F = finite_field.__wrapped__(p, t)
        assert F._frobenius.tolist() == frobenius_matrix(p, F.modulus)

    @pytest.mark.parametrize("p,t", [(1000003, 4), (10 ** 30 + 57, 2)])
    def test_large_p_fields_below_degree_six_keep_rabins_q(self, p, t):
        """Beyond the screen's table, Rabin's test decides every degree."""
        F = finite_field.__wrapped__(p, t)
        assert F._frobenius is not None
        assert F._frobenius.tolist() == frobenius_matrix(p, F.modulus)

    def test_unity_image_builds_no_frobenius_matrix_after_its_search(self, monkeypatch):
        """F_{7^57}: p <= t, so every cofactor power goes through Q."""
        expected = unity_image(7, 19, 2).coeffs
        builds, at_search_end = [], []
        matrix = finitefield._frobenius_matrix

        def counting_matrix(*args):
            builds.append(len(args[1]))
            return matrix(*args)

        def searching(p, t):
            F = finite_field.__wrapped__(p, t)
            at_search_end.append(len(builds))
            return F

        monkeypatch.setattr(finitefield, "_frobenius_matrix", counting_matrix)
        monkeypatch.setattr(lvaluation, "finite_field", searching)
        z = unity_image.__wrapped__(7, 19, 2)
        assert z.field.t == 57 and z.coeffs == expected
        assert builds and at_search_end == [len(builds)]


def _bare_pow(F: FiniteField, y: np.ndarray, e: int) -> np.ndarray:
    return _pow(y, e, lambda a, b: finitefield._mul_mod(a, b, F._fold, F.p), F.one()._as_array())


# p <= t takes Horner over base-p digits through Q, p > t square-and-multiply
POWER_FIELDS = [(2, 2), (2, 3), (2, 5), (2, 6), (3, 3), (3, 4), (3, 2), (5, 2), (5, 3), (7, 2)]


class TestPower:
    """FiniteField._power against abgroup._pow on the same products."""

    @pytest.mark.parametrize("p,t", POWER_FIELDS)
    def test_every_small_exponent(self, p, t):
        F = finite_field(p, t)
        if F.order <= 9:
            elements = list(itertools.product(range(p), repeat=t))
        else:
            elements = [(0,) * t, (0, 1) + (0,) * (t - 2), (p - 1,) * t]
        for coeffs in elements:
            y = np.array(coeffs, dtype=F.dtype)
            for e in range(3 * F.order):
                assert F._power(y, e).tolist() == _bare_pow(F, y, e).tolist(), (coeffs, e)

    @settings(derandomize=True, max_examples=80, deadline=None)
    @given(st.data())
    def test_hypothesis_exponents_up_to_p_to_the_2t(self, data):
        F = finite_field(*data.draw(st.sampled_from(DEGREES + POWER_FIELDS)))
        y = np.array(data.draw(st.lists(st.integers(0, F.p - 1), min_size=F.t, max_size=F.t)),
                     dtype=F.dtype)
        e = data.draw(st.integers(0, F.p ** (2 * F.t)))
        assert F._power(y, e).tolist() == _bare_pow(F, y, e).tolist()


@pytest.fixture
def product_dtypes(monkeypatch):
    """The dtypes of the constant operands _matmul_mod sees, from the search
    and from unity_image's walk."""
    seen = set()
    matmul_mod = finitefield._matmul_mod

    def recording(a, b, *args):
        seen.add(b.dtype.type if b.dtype != object else object)
        return matmul_mod(a, b, *args)

    monkeypatch.setattr(finitefield, "_matmul_mod", recording)
    monkeypatch.setattr(lvaluation, "_matmul_mod", recording)
    monkeypatch.setattr(lvaluation, "finite_field", finite_field.__wrapped__)
    return seen


# a field on each side of t*(p-1)^2 = 2^53, where the matrix products leave
# float64 for int64, and of 2^63, where every array leaves int64 for Python
# integers; the largest prime below each edge and the smallest above
BAND_EDGES = [(67108859, 2, np.float64), (67108879, 2, np.int64),
              (38745307, 6, np.float64), (38745323, 6, np.int64),
              (2147483647, 2, np.int64), (2147483659, 2, object),
              (1239850223, 6, np.int64), (1239850277, 6, object)]


class TestExactTiers:
    """The products of _matmul_mod run in float64 while every sum stays
    below 2^53, in int64 below 2^63 and in Python integers beyond."""

    @pytest.mark.parametrize("p,t,tier", BAND_EDGES)
    def test_fields_at_the_band_edges(self, p, t, tier, product_dtypes):
        assert finitefield._exact_dtype(t * (p - 1) ** 2, floats=True) is tier
        F = finite_field.__wrapped__(p, t)
        assert _is_irreducible(p, F.modulus)
        assert product_dtypes == {tier}
        # at t = 2 too, Rabin's test decided and handed its Q to the field
        assert F._frobenius.tolist() == frobenius_matrix(p, F.modulus)
        y = np.array([p - 1 - i for i in range(t)], dtype=F.dtype)
        for e in (p - 2, p, p ** 2 + 1, F.order - 2):
            assert F._power(y, e).tolist() == _bare_pow(F, y, e).tolist(), e
        # y^p is y through Q
        assert F._power(y, p).tolist() == [sum(int(c) * q for c, q in zip(y, col)) % p
                                           for col in zip(*F._frobenius.tolist())]

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(st.data())
    def test_products_equal_python_integers_at_2_to_53(self, data):
        """Reduced operands whose sums of n products and an addend come just
        below 2^53, in float64, or just above, in int64, where float64
        would round."""
        n = data.draw(st.integers(1, 32))
        top = math.isqrt((2 ** 53 - 1) // n)
        below = data.draw(st.booleans())
        p = data.draw(st.integers(top - 1000, top) if below else st.integers(top + 2, top + 1000))
        bound = n * (p - 1) ** 2 + p - 1
        assume((bound < 2 ** 53) == below)
        rows, cols = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
        size = (rows + cols) * n + cols
        flat = data.draw(st.lists(st.one_of(st.just(p - 1), st.integers(0, p - 1)),
                                  min_size=size, max_size=size))
        a = [flat[i * n:(i + 1) * n] for i in range(rows)]
        b = [flat[rows * n + j * cols:rows * n + (j + 1) * cols] for j in range(n)]
        c = flat[-cols:]
        dtype = finitefield._exact_dtype(bound, floats=True)
        assert dtype is (np.float64 if below else np.int64)
        got = finitefield._matmul_mod(np.array(a), np.array(b, dtype=dtype), p,
                                      np.array(c, dtype=dtype))
        assert got.dtype == np.int64
        assert got.tolist() == [[(sum(x * y for x, y in zip(row, col)) + z) % p
                                 for col, z in zip(zip(*b), c)] for row in a]

    def test_residue_fields_take_float64(self, product_dtypes):
        """Every field F_{p^t}, p <= 13, t = ord(p mod q^m) <= 64 for an
        odd prime q < 50 and m <= 3: its search and its root of unity."""
        for p in (3, 5, 7, 11, 13):
            fields = {}
            for q, m in itertools.product(primerange(3, 50), (1, 2, 3)):
                t = n_order(p, q ** m) if q != p else 65
                if t <= 64 and q ** m < fields.get(t, (q ** m + 1,))[0]:
                    fields[t] = (q ** m, q, m)
            for _, q, m in fields.values():
                unity_image.__wrapped__(p, q, m)
        assert product_dtypes == {np.float64}

    @pytest.mark.parametrize("t", [6, 7])
    def test_search_beyond_int64_at_rabin_degrees(self, t, product_dtypes):
        # p passes int64 itself: the monomial rows of Q are placed by index
        p = 10 ** 30 + 57
        F = finite_field.__wrapped__(p, t)
        assert _is_irreducible(p, F.modulus)
        assert F._frobenius.tolist() == frobenius_matrix(p, F.modulus)
        assert product_dtypes == {object}

    def test_beyond_int64_takes_object(self, product_dtypes):
        # the prime 5927 divides p + 1 and not p - 1: its roots of unity
        # generate F_{p^2}, and the walk over their powers takes Python integers
        z = unity_image.__wrapped__(10 ** 30 + 57, 5927, 1)
        assert z.field.t == 2 and z != z.field.one() and z ** 5927 == z.field.one()
        assert product_dtypes == {object}


# (p, t, block, row): where the winner sits among the blocks of
# BLOCK_CANDIDATES = 32 candidates, by modulus_rank: in the first row
# (p >= t and p < t), in the last row, and in a later block
BLOCK_POSITIONS = [(13, 10, 1, 0), (5, 64, 17, 0),
                   (2, 37, 0, 31), (7, 56, 2, 31), (11, 61, 2, 31),
                   (5, 36, 13, 6), (5, 47, 4, 26), (3, 62, 7, 22)]


class TestBlockSearch:
    """finite_field tests BLOCK_CANDIDATES at a time; its winner is the scan's."""

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
    def test_every_degree_up_to_64_matches_the_scan(self, p):
        for t in range(2, 65):
            assert finite_field.__wrapped__(p, t).modulus == scanned_finite_field(p, t), (p, t)

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(st.sampled_from(list(primerange(2, 51))), st.integers(2, 64))
    def test_hypothesis_fields_match_the_scan(self, p, t):
        assert finite_field.__wrapped__(p, t).modulus == scanned_finite_field(p, t)

    @pytest.mark.parametrize("p,t,block,row", BLOCK_POSITIONS)
    def test_winner_at_the_edges_of_a_block(self, p, t, block, row):
        F = finite_field.__wrapped__(p, t)
        assert divmod(modulus_rank(p, t, F.modulus) - 1, BLOCK_CANDIDATES) == (block, row)
        assert F.modulus == scanned_finite_field(p, t)

    def test_one_stacked_rabin_pass_per_block_with_a_survivor(self, monkeypatch):
        p, t = 7, 57
        survivors, passes = [], []
        make_screen, frobenius_powers = finitefield._small_factor_screen, finitefield._frobenius_powers

        def counting_screen(*args):
            screen = make_screen(*args)

            def counted(rows):
                batches = list(screen(rows))
                survivors.append(sum(map(len, batches)))
                return iter(batches)
            return counted

        def counting_powers(p, Q, wanted):
            passes.append(len(Q))
            return frobenius_powers(p, Q, wanted)

        monkeypatch.setattr(finitefield, "_small_factor_screen", counting_screen)
        monkeypatch.setattr(finitefield, "_frobenius_powers", counting_powers)
        F = finite_field.__wrapped__(p, t)
        assert len(survivors) == -(-modulus_rank(p, t, F.modulus) // BLOCK_CANDIDATES)
        assert passes == [n for n in survivors if n]
        assert len(passes) > 1

    @pytest.mark.parametrize("p,t", [(10 ** 30 + 57, 2), (1000003, 4), (101, 8), (1009, 7)])
    def test_gcd_side_stops_at_the_winner(self, p, t, monkeypatch):
        """Above SCREEN_POINTS_MAX there is no screen: Rabin's test alone
        takes every candidate up to the winner, in order, each as a stack of
        one, and no row after the winner, at every degree."""
        passes = []
        frobenius_powers = finitefield._frobenius_powers

        def counting_powers(p, Q, wanted):
            passes.append(len(Q))
            return frobenius_powers(p, Q, wanted)

        monkeypatch.setattr(finitefield, "_frobenius_powers", counting_powers)
        F = finite_field.__wrapped__(p, t)
        assert passes == [1] * modulus_rank(p, t, F.modulus)


def _screened(p: int, candidates) -> list[int]:
    """The indices of the candidates that pass the screen, in order."""
    screen = _small_factor_screen(p, len(candidates[0]))
    return [i for passed in screen(np.array(candidates)) for i in passed.tolist()]


def _first_irreducibles(p: int, d: int, count: int) -> list[tuple]:
    return list(itertools.islice((c for c in itertools.product(range(p), repeat=d)
                                  if batched_gcd_is_irreducible(p, c)), count))


class TestScreen:
    """The screen for irreducible factors of degree <= d (d = 1 for t <= 3,
    2 beyond): a table of the points of F_{p^d} while p^d is at most
    SCREEN_POINTS_MAX; beyond, no screen, and Rabin's test alone decides."""

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
    @pytest.mark.parametrize("dh", [3, 4])
    def test_products_without_small_factors_pass_it(self, p, dh):
        """g*h for distinct irreducible g, h of degrees 3 and dh has no
        factor of degree <= 2, so it passes the screen and Rabin's test
        rejects it.  At dh = 3, x^(p^6) = x mod g*h, so only the gcd can."""
        g, h = (_first_irreducibles(p, 3, 2) if dh == 3
                else _first_irreducibles(p, 3, 1) + _first_irreducibles(p, 4, 1))
        f = _poly_mul(p, g, h)
        assert _screened(p, [f]) == [0]
        assert _frobenius_fixes_x(p, f) == (dh == 3)
        assert not _is_irreducible(p, f)

    @pytest.mark.parametrize("p,t", [(p, t) for p in (2, 3, 5) for t in range(2, 7)
                                     if p ** t <= 3125])
    def test_table_and_gcd_sides_agree_on_every_candidate(self, p, t, monkeypatch):
        """The verdicts with the table screen and with Rabin's test alone,
        whose last step is a gcd, agree on every candidate."""
        candidates = list(itertools.product(range(p), repeat=t))

        def verdicts():
            return {i for i, _ in _irreducible_rows(p, np.array(candidates),
                                                     _small_factor_screen(p, t))}

        table = verdicts()
        monkeypatch.setattr(finitefield, "SCREEN_POINTS_MAX", 0)
        assert _small_factor_screen(p, t) is None
        gcd = verdicts()
        assert table | gcd <= set(range(len(candidates)))
        for i, coeffs in enumerate(candidates):
            assert (i in table) == (i in gcd), coeffs

    @settings(derandomize=True, max_examples=120, deadline=None)
    @given(st.data())
    def test_candidates_on_both_sides_of_the_crossover_match_oracle(self, data):
        # p^d <= SCREEN_POINTS_MAX = 4096 at p = 4093 (t <= 3) and p = 61;
        # above it at p = 4099 and, for t >= 4, at p = 67 and p = 4093
        assert finitefield.SCREEN_POINTS_MAX == 4096
        p = data.draw(st.sampled_from([2, 3, 61, 67, 4093, 4099]))
        t = data.draw(st.integers(2, 10))

        def monic(n):
            return st.tuples(*[st.integers(0, p - 1)] * n)

        if data.draw(st.booleans()):
            coeffs = data.draw(monic(t))
        else:   # a product, which has a factor of degree <= 2 when a or t - a is
            a = data.draw(st.integers(1, t - 1))
            coeffs = _poly_mul(p, data.draw(monic(a)), data.draw(monic(t - a)))
        assert _is_irreducible(p, coeffs) == batched_gcd_is_irreducible(p, coeffs)

    @pytest.mark.parametrize("p,t", [(2, 4), (2, 5), (3, 4), (3, 5), (5, 4), (13, 5)])
    def test_no_frobenius_matrix_below_degree_six(self, p, t, monkeypatch):
        calls = []
        shift_rows = finitefield._shift_rows

        def counting(*args):
            calls.append(args)
            return shift_rows(*args)

        monkeypatch.setattr(finitefield, "_shift_rows", counting)
        F = finite_field.__wrapped__(p, t)
        assert len(calls) == 1          # the fold of the FiniteField itself
        calls.clear()
        if p ** t <= 3125:
            for coeffs in itertools.product(range(p), repeat=t):
                _is_irreducible(p, coeffs)
            assert calls == []
        calls.clear()
        finite_field.__wrapped__(p, 6)
        assert len(calls) > 1           # the counter sees Rabin's matrices

    def test_search_beyond_int64(self):
        p = 10 ** 30 + 57
        start = time.perf_counter()
        F = finite_field.__wrapped__(p, 2)
        assert time.perf_counter() - start < 1.0
        c0, c1 = F.modulus

        def irreducible(a, b):
            # x^2 + b x + a: Euler's criterion on the discriminant
            return pow(b * b - 4 * a, (p - 1) // 2, p) == p - 1

        assert c0 == 1 and irreducible(c0, c1)
        assert not any(irreducible(1, b) for b in range(c1))
