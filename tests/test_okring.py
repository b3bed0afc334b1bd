import random

import numpy as np
import pytest

from iqtower.okring import (CLASS_NUMBER_ONE_DS, OkElement, OkError,
                            canonical_associate, elements_up_to_norm, factor,
                            field, gcd_ok, parse_element, primes_above,
                            split_type, valuation)

from oracles import brute_primes_above, scanned_elements_up_to_norm

ALL_TAGS = [field(d) for d in CLASS_NUMBER_ONE_DS]


def _rand_elt(rng, tag, span=50):
    while True:
        e = OkElement(tag, rng.randint(-span, span), rng.randint(-span, span))
        if not e.is_zero():
            return e


class TestFieldTag:
    def test_nine_fields_only(self):
        with pytest.raises(OkError):
            field(5)
        assert len(ALL_TAGS) == 9

    def test_unit_counts(self):
        assert field(1).num_units == 4
        assert field(3).num_units == 6
        assert all(field(d).num_units == 2 for d in (2, 7, 11, 19, 43, 67, 163))

    def test_discriminants(self):
        assert field(1).discriminant == -4
        assert field(2).discriminant == -8
        assert field(3).discriminant == -3
        assert field(163).discriminant == -163

    def test_units_close_under_multiplication(self):
        for tag in ALL_TAGS:
            us = tag.units()
            assert len(us) == tag.num_units
            assert all((u * v) in us for u in us for v in us)
            assert all(u.norm() == 1 for u in us)


class TestCanonicalAssociate:
    def test_unit_sign_normalization(self):
        K1 = field(1)
        assert canonical_associate(OkElement(K1, -2, -1)) == OkElement(K1, 2, 1)

    def test_mu4_orbit_single_member(self):
        K1 = field(1)
        # i*(2+i) = -1+2i
        assert canonical_associate(OkElement(K1, -1, 2)) == OkElement(K1, 2, 1)

    def test_d43_table_generator_fixed(self):
        K = field(43)
        e = OkElement(K, 3, 2)   # 4 + sqrt(-43)
        assert canonical_associate(e) == e

    def test_projection_and_orbit_constant(self):
        rng = random.Random(7)
        for tag in ALL_TAGS:
            for _ in range(40):
                e = _rand_elt(rng, tag)
                c = canonical_associate(e)
                assert canonical_associate(c) == c
                for u in tag.units():
                    assert canonical_associate(e * u) == c

    def test_zero_rejected(self):
        with pytest.raises(OkError):
            canonical_associate(field(1).zero())


class TestSplitType:
    def test_examples(self):
        assert split_type(field(1), 5) == "split"
        assert split_type(field(1), 2) == "ramified"
        assert split_type(field(43), 59) == "split"

    def test_agrees_with_min_poly_roots_up_to_1e4(self):
        # root counting of x^2 - t x + n mod ell: 2 roots = split,
        # double root = ramified, none = inert
        from sympy import primerange
        for tag in ALL_TAGS:
            t, n = tag.min_poly
            for ell in primerange(2, 10 ** 4):
                xs = np.arange(ell, dtype=np.int64)
                vals = (xs * xs - t * xs + n) % ell
                roots = np.count_nonzero(vals == 0)
                kind = split_type(tag, ell)
                if roots == 2:
                    assert kind == "split", (tag.d, ell)
                elif roots == 0:
                    assert kind == "inert", (tag.d, ell)
                else:
                    # single root: distinguish double root (ramified) from
                    # ell = 2 quirks by the discriminant
                    assert kind == "ramified", (tag.d, ell)


    def test_euler_criterion_matches_legendre_symbol_below_20000(self):
        from sympy import legendre_symbol, primerange
        for tag in ALL_TAGS:
            disc = tag.discriminant
            for ell in primerange(3, 20000):
                if disc % ell == 0:
                    want = "ramified"
                else:
                    want = "split" if legendre_symbol(disc % ell, ell) == 1 else "inert"
                assert split_type(tag, ell) == want, (tag.d, ell)


class TestPrimesAbove:
    def test_split_pair_examples(self):
        K1 = field(1)
        pair = primes_above(K1, 5)
        assert {p.generator for p in pair} == {OkElement(K1, 2, 1), OkElement(K1, 2, -1)}
        K43 = field(43)
        pair43 = primes_above(K43, 59)
        assert {str(p) for p in pair43} == {"d=43:4+1*w", "d=43:4-1*w"}

    def test_inert_example(self):
        (p,) = primes_above(field(2), 5)
        assert p.kind == "inert" and p.residue_degree == 2
        assert p.generator == field(2).from_int(5)

    def test_split_product_is_associate_of_ell(self):
        from sympy import primerange
        for tag in ALL_TAGS:
            for ell in primerange(2, 200):
                if split_type(tag, ell) != "split":
                    continue
                p1, p2 = primes_above(tag, ell)
                prod = p1.generator * p2.generator
                assert canonical_associate(prod) == canonical_associate(tag.from_int(ell))
                assert p1.norm() == p2.norm() == ell

    @pytest.mark.parametrize("d", CLASS_NUMBER_ONE_DS)
    def test_matches_norm_form_scan(self, d):
        from sympy import primerange
        tag = field(d)
        kinds = {1: "ramified", 2: "split"}
        for ell in primerange(2, 20000):
            ps = primes_above(tag, ell)
            assert {p.generator for p in ps} == brute_primes_above(tag, ell), ell
            keys = [(p.generator.x, p.generator.y) for p in ps]
            assert keys == sorted(keys), ell
            kind = "inert" if ps[0].residue_degree == 2 else kinds[len(ps)]
            assert all(p.kind == kind == split_type(tag, ell) for p in ps), ell
            assert all(p.generator.norm() == p.norm() for p in ps), ell

    def test_ramified_generators(self):
        for tag in ALL_TAGS:
            disc = abs(tag.discriminant)
            for ell in (2, 3, 7, 11, 19, 43, 67, 163):
                if disc % ell:
                    continue
                (p,) = primes_above(tag, ell)
                assert p.kind == "ramified"
                assert p.generator.norm() == ell


class TestNormAndFactor:
    def test_norm_multiplicative_1000_pairs_per_field(self):
        rng = random.Random(11)
        for tag in ALL_TAGS:
            for _ in range(1000):
                a = _rand_elt(rng, tag)
                b = _rand_elt(rng, tag)
                assert (a * b).norm() == a.norm() * b.norm()

    def test_factor_examples(self):
        K1 = field(1)
        f = factor(K1.from_int(5))
        assert f.unit.is_unit()
        assert sorted(p.generator.norm() for p, _ in f.factors) == [5, 5]
        f2 = factor(OkElement(K1, 2, 1))
        assert len(f2.factors) == 1 and f2.factors[0][1] == 1

    def test_factor_7_times_prime_in_d3(self):
        K3 = field(3)
        e = K3.from_int(7) * OkElement(K3, 1, 2)   # 7 * (2 + sqrt(-3))
        f = factor(e)
        assert f.value() == e
        exps = sorted(k for _, k in f.factors)
        assert exps == [1, 2]

    def test_rebuild_small_norms(self):
        for tag in ALL_TAGS:
            for e in elements_up_to_norm(tag, 200):
                assert factor(e).value() == e

    def test_rebuild_random_up_to_1e6(self):
        rng = random.Random(13)
        for tag in ALL_TAGS:
            count = 0
            while count < 50:
                e = _rand_elt(rng, tag, span=400)
                if e.norm() > 10 ** 6:
                    continue
                assert factor(e).value() == e
                count += 1

    def test_factors_sorted(self):
        K1 = field(1)
        e = K1.from_int(30)  # 2 * 3 * 5
        chars = [p.residue_char for p, _ in factor(e).factors]
        assert chars == sorted(chars)
        # factor sorts nothing itself: the order comes from the ascending
        # ell and from primes_above's sorted split pairs
        for tag in ALL_TAGS:
            for e in elements_up_to_norm(tag, 2000):
                keys = [(p.residue_char, p.generator.x, p.generator.y)
                        for p, _ in factor(e).factors]
                assert keys == sorted(set(keys)), (tag.d, str(e))

    def test_zero_rejected(self):
        with pytest.raises(OkError):
            factor(field(1).zero())


class TestGcd:
    def test_examples(self):
        K1 = field(1)
        assert gcd_ok(OkElement(K1, 2, 1), K1.from_int(5)) == OkElement(K1, 2, 1)
        assert gcd_ok(K1.from_int(3), K1.from_int(5)).is_unit()
        K19 = field(19)
        a = K19.from_int(5)
        b = OkElement(K19, -2, 1) * a   # (-3+sqrt(-19))/2 * 5
        assert gcd_ok(a, b) == canonical_associate(a)

    def test_against_factorization_oracle(self):
        rng = random.Random(17)
        for tag in ALL_TAGS[:4]:
            for _ in range(25):
                a = _rand_elt(rng, tag, span=20)
                b = _rand_elt(rng, tag, span=20)
                g = gcd_ok(a, b)
                assert a.divide_exact(g) is not None
                assert b.divide_exact(g) is not None
                # g is maximal: a/g and b/g share no prime
                assert gcd_ok(a.divide_exact(g), b.divide_exact(g)).is_unit()

    def test_zero_cases(self):
        K1 = field(1)
        assert gcd_ok(K1.zero(), K1.from_int(5)) == canonical_associate(K1.from_int(5))
        with pytest.raises(OkError):
            gcd_ok(K1.zero(), K1.zero())


class TestValuation:
    def test_prime_powers(self):
        K1 = field(1)
        p = primes_above(K1, 5)[0]
        e = p.generator ** 3 * K1.from_int(7)
        assert valuation(e, p) == 3


class TestTextForm:
    def test_documented_text_form(self):
        K43 = field(43)
        assert str(OkElement(K43, 3, 2)) == "d=43:4+1*w"
        assert parse_element(K43, "d=43:4+1*w") == OkElement(K43, 3, 2)
        assert parse_element(K43, "4+1*w") == OkElement(K43, 3, 2)

    def test_half_coordinates(self):
        K11 = field(11)
        e = OkElement(K11, 0, -1)     # (-1 - sqrt(-11))/2
        assert str(e) == "d=11:-1/2-1/2*w"
        assert parse_element(K11, str(e)) == e

    def test_omega_coordinates(self):
        K43 = field(43)
        assert parse_element(K43, "3+2*o") == OkElement(K43, 3, 2)

    def test_round_trip_random(self):
        rng = random.Random(23)
        for tag in ALL_TAGS:
            for _ in range(50):
                e = _rand_elt(rng, tag)
                assert parse_element(tag, str(e)) == e

    def test_non_integral_rejected(self):
        with pytest.raises(OkError):
            parse_element(field(43), "1/2+1*w")
        with pytest.raises(OkError):
            parse_element(field(1), "1/2+1/2*w")

    def test_wrong_tag_rejected(self):
        with pytest.raises(OkError):
            parse_element(field(43), "d=67:4+1*w")


class TestElementsUpToNorm:
    @pytest.mark.parametrize("bound", [0, 1, 2, 3, 50, 777, 3000])
    def test_equals_lattice_scan(self, bound):
        for tag in ALL_TAGS:
            assert elements_up_to_norm(tag, bound) == scanned_elements_up_to_norm(tag, bound)

    def test_one_generator_per_ideal(self):
        # ideal counts: r_K(n) = sum of chi_disc over divisors
        from sympy import divisors, jacobi_symbol
        for tag in ALL_TAGS:
            disc = tag.discriminant

            def chi(m):
                if m == 1:
                    return 1
                out = 1
                mm = m
                while mm % 2 == 0:
                    mm //= 2
                    out *= {1: 1, 7: 1, 3: -1, 5: -1}.get(abs(disc) % 8 if disc % 2 else 0, 0) \
                        if disc % 2 else 0
                if out == 0:
                    return 0
                if mm > 1:
                    out *= int(jacobi_symbol(disc, mm))
                return out

            els = elements_up_to_norm(tag, 60)
            counts = {}
            for e in els:
                counts[e.norm()] = counts.get(e.norm(), 0) + 1
            for n in range(1, 61):
                expect = sum(chi(m) for m in divisors(n))
                assert counts.get(n, 0) == expect, (tag.d, n)
