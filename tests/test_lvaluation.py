import bisect
import cmath
import json
import math
import random
import time
import tracemalloc
from functools import cached_property

import numpy as np
import pytest
from sympy import isprime, n_order, primerange

from iqtower.cli import main
from iqtower.finitefield import FieldError, finite_field
from iqtower.lvaluation import (EXPLICIT_FIELD_DEGREE_CAP, LSeriesValue,
                                ResidueEmbedding, _chi_table, _coprime_mask, _l_values,
                                _prime_entries, _prime_sieve, compute_N1,
                                dirichlet_tail_bound, distinctness_check,
                                euler_factor_vanishes, euler_product_L,
                                evaluate_imprimitive_L, unity_image)
from iqtower.okring import (CLASS_NUMBER_ONE_DS, OkElement, OkError, _ideal_chunks,
                            canonical_associate, elements_up_to_norm, factor, field,
                            primes_above, split_type)
from iqtower.rayclass import (CharacterSpec, RayClassGroup, _Factor, characters,
                              ray_class_group, reduce_mod)

from oracles import (DISTINCT_POWERS_MAX_DEGREE, coprime_rows, distinct_unity_powers,
                     euler_prime_ideals, field_elements, ideal_rows, lattice_zeta,
                     per_class_chi_row, per_ideal_chi, scanned_unity_image, two_walk_L)


def _exact_order_roots(p, q, m):
    """All roots of unity of exact order q^m in the canonical field."""
    if m == 0:
        return [unity_image(p, q, 0)]
    z = unity_image(p, q, m)
    out = []
    acc = z.field.one()
    for j in range(q ** m):
        if j and j % q:
            out.append(acc)
        acc = acc * z
    return out


class TestResidueEmbedding:
    def test_create_and_examples(self):
        emb = ResidueEmbedding.create(field(1), 5)
        assert emb.root == 2
        assert emb.embed(OkElement(field(1), 2, 1)) == 4
        assert emb.embed(OkElement(field(1), 2, -1)) == 0
        assert emb.embed(field(1).from_int(7)) == 2

    def test_other_root_swaps_kernel(self):
        emb = ResidueEmbedding.create(field(1), 5, 3)
        assert emb.embed(OkElement(field(1), 2, 1)) == 0
        assert emb.embed(OkElement(field(1), 2, -1)) == 4

    def test_half_basis_field(self):
        emb = ResidueEmbedding.create(field(43), 59)
        # omega = (1+sqrt(-43))/2 must satisfy its minimal polynomial
        t, n = field(43).min_poly
        w = emb.omega_image
        assert (w * w - t * w + n) % 59 == 0
        assert emb.embed(OkElement(field(43), 3, 2)) in (0, emb.embed(OkElement(field(43), 3, 2)))

    def test_ring_homomorphism_1000_pairs(self):
        rng = random.Random(19)
        embs = [ResidueEmbedding.create(field(1), 13), ResidueEmbedding.create(field(43), 59),
                ResidueEmbedding.create(field(3), 7)]
        for emb in embs:
            tag = emb.tag
            for _ in range(340):
                a = OkElement(tag, rng.randint(-99, 99), rng.randint(-99, 99))
                b = OkElement(tag, rng.randint(-99, 99), rng.randint(-99, 99))
                assert emb.embed(a + b) == (emb.embed(a) + emb.embed(b)) % emb.p
                assert emb.embed(a * b) == emb.embed(a) * emb.embed(b) % emb.p

    def test_kernel_is_chosen_prime(self):
        emb = ResidueEmbedding.create(field(1), 13)
        ker_gen = None
        from iqtower.okring import primes_above
        for p in primes_above(field(1), 13):
            if emb.embed(p.generator) == 0:
                ker_gen = p
        assert ker_gen is not None
        other = [p for p in primes_above(field(1), 13) if p != ker_gen][0]
        assert emb.embed(other.generator) != 0

    def test_non_split_rejected(self):
        with pytest.raises(OkError):
            ResidueEmbedding.create(field(1), 7)
        with pytest.raises(OkError):
            ResidueEmbedding.create(field(1), 2)


class TestUnityImage:
    def test_cube_root_in_F25(self):
        z = unity_image(5, 3, 1)
        assert z.field.t == 2
        assert z ** 3 == z.field.one() and z != z.field.one()
        # lexicographically smallest: the class of x in F_5[x]/(1 + x + x^2)
        assert z.coeffs == (0, 1)

    def test_smallest_cube_root_mod_7(self):
        z = unity_image(7, 3, 1)
        assert z.field.t == 1
        assert z.coeffs == (2,)

    def test_order_13_lives_in_degree_4(self):
        z = unity_image(5, 13, 1)
        assert z.field.t == 4
        assert z ** 13 == z.field.one() and z != z.field.one()

    def test_q_equals_p_rejected(self):
        with pytest.raises(OkError):
            unity_image(5, 5, 1)

    def test_negative_m_rejected(self):
        with pytest.raises(OkError, match="m must be >= 0"):
            unity_image(5, 3, -1)

    def test_degree_cap(self, monkeypatch):
        def no_field(p, t):
            raise AssertionError(f"F_{p}^{t} built")
        monkeypatch.setattr("iqtower.lvaluation.finite_field", no_field)
        # 2 is a primitive root mod 5^4, so F_2(mu_625) has degree 500
        assert n_order(2, 5 ** 4) == 500 > EXPLICIT_FIELD_DEGREE_CAP
        with pytest.raises(OkError, match="exceeds the explicit cap"):
            unity_image(2, 5, 4)

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    def test_equals_scan_oracle_on_residue_fields(self, p):
        # every odd q < 50 with q^m, m <= 3, generating a field of degree
        # t <= 64, as in the residue benchmark's field list, and m = 0
        cases = [(q, m) for q in primerange(3, 50) if q != p for m in range(4)
                 if m == 0 or n_order(p, q ** m) <= 64]
        assert len(cases) > 14
        for q, m in cases:
            assert unity_image(p, q, m) == scanned_unity_image(p, q, m), (p, q, m)

    def test_prime_field_beyond_int64(self):
        # t = 1 at p = 2^61 - 1: the scan must count through F_p lazily,
        # with no copy of range(p)
        p = 2 ** 61 - 1
        for q in (3, 5):
            c = unity_image(p, q, 1).coeffs[0]
            assert pow(c, q, p) == 1 != c
            assert c == min(pow(c, j, p) for j in range(1, q))

    def test_exact_order(self):
        for (p, q, m) in ((5, 3, 2), (7, 3, 3), (11, 5, 1), (13, 3, 2)):
            z = unity_image(p, q, m)
            assert z ** (q ** m) == z.field.one()
            assert not z ** (q ** (m - 1)) == z.field.one()


class TestDistinctness:
    def test_examples(self):
        assert distinctness_check(5, 3, 2) is True
        assert distinctness_check(7, 3, 3) is True
        assert distinct_unity_powers(5, 3, 2) and distinct_unity_powers(7, 3, 3)
        with pytest.raises(OkError):
            distinctness_check(5, 5, 1)

    def test_explicit_small_sweep(self):
        odd = [p for p in primerange(3, 24)]
        for p in odd:
            for q in odd:
                if p == q:
                    continue
                for m in (1, 2):
                    assert distinctness_check(p, q, m), (p, q, m)
                    if n_order(p, q ** m) <= DISTINCT_POWERS_MAX_DEGREE:
                        assert distinct_unity_powers(p, q, m), (p, q, m)

    @pytest.mark.parametrize("p,q,m", [(4, 3, 1), (5, 9, 1), (5, 3, -1)])
    def test_invalid_input_rejected(self, p, q, m):
        with pytest.raises(OkError):
            distinctness_check(p, q, m)

    def test_no_field_is_built(self, monkeypatch):
        def no_field(p, t):
            raise AssertionError(f"F_{p}^{t} built")
        monkeypatch.setattr("iqtower.lvaluation.finite_field", no_field)
        # ord(5 mod 3^2) = 6 and ord(10^12 + 39 mod 7^3) = 294
        assert distinctness_check(5, 3, 2) is True
        assert distinctness_check(10 ** 12 + 39, 7, 3) is True

    def test_certificate_path_beyond_cap(self):
        # ord(29 mod 47^3) is far beyond the explicit construction cap
        from sympy import n_order
        assert n_order(29, 47 ** 3) > EXPLICIT_FIELD_DEGREE_CAP
        assert distinctness_check(29, 47, 3) is True


class TestEulerFactor:
    def test_trivial_characters_nonvanishing(self):
        emb = ResidueEmbedding.create(field(1), 5)
        one = finite_field(5, 1).one()
        # N(7) - 1 = 48 = 3 mod 5, nonzero
        assert euler_factor_vanishes(emb, field(1).from_int(7), 0, one, one) is False

    def test_constructed_vanishing(self):
        emb = ResidueEmbedding.create(field(1), 5)
        lam = OkElement(field(1), 3, 2)   # norm 13, coprime to 5
        F = finite_field(5, 1)
        a0 = emb.embed(lam)
        a = lam.norm() * pow(a0, -4, 5) % 5
        assert euler_factor_vanishes(emb, lam, 4, F.one(), F.lift(a)) is True

    def test_primitive_cube_root_eta(self):
        emb = ResidueEmbedding.create(field(1), 5, 3)
        lam = OkElement(field(1), 1, 2)
        eta = unity_image(5, 3, 1)
        F1 = finite_field(5, 1)
        assert euler_factor_vanishes(emb, lam, 4, F1.one(), eta) is False

    def test_kernel_lambda_rejected(self):
        emb = ResidueEmbedding.create(field(1), 5)
        with pytest.raises(OkError):
            euler_factor_vanishes(emb, OkElement(field(1), 2, -1), 1,
                                  finite_field(5, 1).one(), finite_field(5, 1).one())

    def test_at_most_one_vanishing_order(self):
        rng = random.Random(29)
        emb_pool = [(ResidueEmbedding.create(field(1), 13), 3),
                    (ResidueEmbedding.create(field(2), 11), 3),
                    (ResidueEmbedding.create(field(1), 5), 3),
                    (ResidueEmbedding.create(field(3), 13), 5)]
        for emb, q in emb_pool:
            tag = emb.tag
            for _ in range(8):
                lam = OkElement(tag, rng.randint(-30, 30), rng.randint(-30, 30))
                if lam.is_zero() or emb.embed(lam) == 0:
                    continue
                k = rng.randint(0, 6)
                phi0 = rng.randint(1, emb.p - 1)
                orders_with_vanishing = set()
                for m in range(0, 4):
                    F = unity_image(emb.p, q, m).field if m else finite_field(emb.p, 1)
                    phi = F.lift(phi0)
                    for eta in _exact_order_roots(emb.p, q, m):
                        if euler_factor_vanishes(emb, lam, k, phi, eta):
                            orders_with_vanishing.add(m)
                assert len(orders_with_vanishing) <= 1


class TestImageLifts:
    """The character images that euler_factor_vanishes and compute_N1 take:
    ints and elements of F_p or of one extension F_{p^t}."""

    emb = ResidueEmbedding.create(field(1), 5, 3)
    lam = OkElement(field(1), 3, 2)   # norm 13, coprime to 5

    def test_wrong_characteristic(self):
        good, bad = finite_field(5, 1).one(), finite_field(7, 1).one()
        calls = [lambda: euler_factor_vanishes(self.emb, self.lam, 0, bad, good),
                 lambda: euler_factor_vanishes(self.emb, self.lam, 0, 1, bad),
                 lambda: euler_factor_vanishes(self.emb, self.lam, 0,
                                               finite_field(5, 2).one(),
                                               finite_field(7, 2).one()),
                 lambda: compute_N1(self.emb, self.lam, 0, bad, 3),
                 lambda: compute_N1(self.emb, self.lam, 0, finite_field(7, 2).one(), 3)]
        for call in calls:
            with pytest.raises(FieldError) as exc:
                call()
            assert str(exc.value) == "wrong characteristic"

    def test_two_extension_fields(self):
        with pytest.raises(FieldError) as exc:
            euler_factor_vanishes(self.emb, self.lam, 0, finite_field(5, 2).one(),
                                  finite_field(5, 4).one())
        assert str(exc.value) == ("incompatible extension fields; construct the "
                                  "images in one common field")

    def test_fp_element_and_int_lift_into_extension(self):
        F, F1 = finite_field(5, 2), finite_field(5, 1)
        seen = set()
        for k in range(4):
            for c in range(1, 5):
                for z in field_elements(F):
                    if z.is_zero():
                        continue
                    want = euler_factor_vanishes(self.emb, self.lam, k, F.lift(c), z)
                    for image in (F1.lift(c), c):
                        assert euler_factor_vanishes(self.emb, self.lam, k, image, z) is want
                        assert euler_factor_vanishes(self.emb, self.lam, k, z, image) is \
                            euler_factor_vanishes(self.emb, self.lam, k, z, F.lift(c))
                    seen.add(want)
                want = compute_N1(self.emb, self.lam, k, F.lift(c), 3)
                assert compute_N1(self.emb, self.lam, k, F1.lift(c), 3) == want
                assert compute_N1(self.emb, self.lam, k, c, 3) == want
        assert seen == {False, True}

    @pytest.mark.parametrize("image", [2.7, 2.0, "2", None, 1 + 0j])
    def test_non_integer_image_rejected(self, image):
        # a float was truncated by int() (2.7 gave the value for 2), a str
        # raised int()'s bare ValueError
        one = finite_field(5, 1).one()
        calls = [lambda: compute_N1(self.emb, self.lam, 0, image, 3),
                 lambda: euler_factor_vanishes(self.emb, self.lam, 0, image, one),
                 lambda: euler_factor_vanishes(self.emb, self.lam, 0, one, image)]
        for call in calls:
            with pytest.raises(FieldError) as exc:
                call()
            assert str(exc.value) == "images must be integers or finite field elements"

    def test_numpy_and_bool_integers_lift(self):
        for image in (np.int64(2), np.int32(-3), True):
            assert compute_N1(self.emb, self.lam, 1, image, 3) == \
                compute_N1(self.emb, self.lam, 1, int(image), 3)
            assert euler_factor_vanishes(self.emb, self.lam, 1, image, 1) is \
                euler_factor_vanishes(self.emb, self.lam, 1, int(image), 1)


class TestComputeN1:
    def test_a_equal_one(self):
        emb = ResidueEmbedding.create(field(1), 5)
        F = finite_field(5, 1)
        lam = field(1).from_int(7)
        phi0 = F.lift(lam.norm() % 5)   # makes a = 1 at k = 0
        assert compute_N1(emb, lam, 0, phi0, 3) == 1

    def test_a_not_root_of_unity(self):
        emb = ResidueEmbedding.create(field(1), 5)
        # a = 48 = 3 mod 5 has order 4, not a power of 3
        assert compute_N1(emb, field(1).from_int(7), 0, finite_field(5, 1).one(), 3) == 0

    def test_constructed_primitive_cube_root(self):
        emb = ResidueEmbedding.create(field(1), 5)
        lam = OkElement(field(1), 3, 2)
        zeta = unity_image(5, 3, 1)
        F = zeta.field
        a0 = emb.embed(lam)
        # phi0 = N(lam) * embed(lam)^(-k) * zeta^(-1) makes a = zeta exactly
        k = 2
        phi0 = F.lift(lam.norm() % 5) * F.lift(pow(a0, k, 5)).inverse() * zeta.inverse()
        assert compute_N1(emb, lam, k, phi0, 3) == 2

    def test_brute_scan_agreement(self):
        rng = random.Random(37)
        pool = [(field(1), 13), (field(1), 5), (field(2), 17), (field(3), 7),
                (field(7), 11), (field(11), 5)]
        caps = {3: 5, 5: 3, 7: 2}
        done = 0
        while done < 30:
            tag, p = pool[rng.randrange(len(pool))]
            q = rng.choice([3, 5, 7])
            if q == p:
                continue
            emb = ResidueEmbedding.create(tag, p)
            lam = OkElement(tag, rng.randint(-25, 25), rng.randint(-25, 25))
            if lam.is_zero() or emb.embed(lam) == 0:
                continue
            k = rng.randint(0, 5)
            phi0 = rng.randint(1, p - 1)
            n1 = compute_N1(emb, lam, k, finite_field(p, 1).lift(phi0), q)
            mcap = caps[q]
            observed = set()
            for m in range(0, mcap + 1):
                F = unity_image(p, q, m).field if m else finite_field(p, 1)
                phi = F.lift(phi0)
                for eta in _exact_order_roots(p, q, m):
                    if euler_factor_vanishes(emb, lam, k, phi, eta):
                        observed.add(m)
            if n1 == 0:
                assert observed == set()
            else:
                expect = {n1 - 1} if n1 - 1 <= mcap else set()
                assert observed == expect, (tag.d, p, q, k, phi0, n1, observed)
            done += 1


class TestLSeries:
    def test_zeta_gaussian_at_2(self):
        tag = field(1)
        chi = CharacterSpec((), 1)
        v = evaluate_imprimitive_L(tag, tag.one(), chi, 2.0, 10 ** 5)
        oracle = lattice_zeta(1, 2.0, 10 ** 5)
        assert abs(v.value - oracle) < 1e-12
        truth = (math.pi ** 2 / 6) * 0.915965594177219015
        assert abs(v.value - truth) < v.error_estimate

    def test_omitting_ramified_prime(self):
        tag = field(1)
        m = OkElement(tag, 1, 1)
        g = RayClassGroup(m)
        chi = CharacterSpec((0,) * len(g.presentation.invariants), 1)
        v = evaluate_imprimitive_L(tag, m, chi, 2.0, 10 ** 5)
        full = evaluate_imprimitive_L(tag, tag.one(), CharacterSpec((), 1), 2.0, 10 ** 5)
        assert abs(v.value - full.value * (1 - 2.0 ** -2)) < 1e-4

    def test_error_monotone_in_bound(self):
        tag = field(1)
        chi = CharacterSpec((), 1)
        errs = [evaluate_imprimitive_L(tag, tag.one(), chi, 1.8, B).error_estimate
                for B in (10 ** 3, 10 ** 4, 10 ** 5)]
        assert errs[0] > errs[1] > errs[2]

    def test_dirichlet_vs_euler_20_random_triples(self):
        rng = random.Random(43)
        tags = [field(1), field(2), field(3), field(7)]
        done = 0
        while done < 20:
            tag = tags[rng.randrange(len(tags))]
            pool = [e for e in elements_up_to_norm(tag, 40) if e.norm() > 1]
            m = pool[rng.randrange(len(pool))]
            g = RayClassGroup(m)
            chars = characters(g)
            chi = chars[rng.randrange(len(chars))]
            s = 1.6 + rng.random() * 1.4
            vd = evaluate_imprimitive_L(tag, m, chi, s, 3000)
            ve = euler_product_L(tag, m, chi, s, 3000)
            assert abs(vd.value - ve.value) <= vd.error_estimate + ve.error_estimate, \
                (tag.d, str(m), chi.exponents, s)
            done += 1

    def test_preconditions(self):
        tag = field(1)
        with pytest.raises(OkError):
            evaluate_imprimitive_L(tag, tag.one(), CharacterSpec((), 1), 1.0, 100)
        with pytest.raises(OkError):
            evaluate_imprimitive_L(tag, tag.one(), CharacterSpec((), 1, k=1), 2.0, 100)
        for s, bound in ((math.nan, 100), (math.inf, 100), (2.0, 1), (2.0, 0), (2.0, -5)):
            for fn in (evaluate_imprimitive_L, euler_product_L):
                with pytest.raises(OkError):
                    fn(tag, tag.one(), CharacterSpec((), 1), s, bound)

    @pytest.mark.parametrize("bound, s", [(0, 2), (-5, 2), (1, 2), (10, math.nan),
                                          (10, math.inf), (10, 1.0)])
    def test_tail_bound_preconditions(self, bound, s):
        with pytest.raises(OkError):
            dirichlet_tail_bound(bound, s)

    def test_serialization(self):
        v = LSeriesValue(1.5, 100, 0.01)
        assert v.to_dict() == {"value": 1.5, "B": 100, "error": 0.01}
        vc = LSeriesValue(complex(1.0, -0.5), 10, 0.1)
        assert vc.to_dict()["value"] == [1.0, -0.5]


def _test_moduli(tag):
    """1, a split prime, an inert prime, a ramified prime and their product."""
    first = {}
    for ell in primerange(2, 200):
        first.setdefault(split_type(tag, ell), primes_above(tag, ell)[0].generator)
    split, inert, ram = first["split"], first["inert"], first["ramified"]
    return [tag.one(), split, inert, ram, split * inert * ram]


class TestOneEnumeration:
    @pytest.mark.parametrize("d", CLASS_NUMBER_ONE_DS)
    def test_chunks_equal_the_row_oracle(self, d):
        # the same entries in the same order as the row-by-row enumeration,
        # each row whole in one chunk, and several chunks at B = 10^5
        tag = field(d)
        for bound in (1, 2, 3, 4, 25, 2000, 10 ** 5):
            chunks = list(_ideal_chunks(tag, bound))
            got = [(y, x, n) for ys, xs, norms in chunks
                   for y, x, n in zip(ys.tolist(), xs.tolist(), norms.tolist())]
            want = [(y, x, n) for y, xs, norms in ideal_rows(tag, bound)
                    for x, n in zip(xs.tolist(), norms.tolist())]
            assert got == want, (d, bound)
            assert all(a[0][-1] < b[0][0] for a, b in zip(chunks, chunks[1:])), (d, bound)
        assert len(chunks) > 1

    def test_coprime_mask_beyond_int64(self):
        # y*s for the split ell = 2^a * 3^b + 1 > 2^63 would wrap in int64
        tag = field(1)
        ell = 16210220612075905069
        g = primes_above(tag, ell)[0].generator
        mask = _coprime_mask(g, ell)
        ys, xs = np.array([g.y, 2 * g.y, g.y, 0]), np.array([g.x, 2 * g.x, g.x + 1, 1])
        assert mask(ys, xs).tolist() == [False, False, True, True]

    @pytest.mark.parametrize("d", CLASS_NUMBER_ONE_DS)
    def test_rows_select_the_euler_prime_ideals(self, d):
        # small B catch the inert prime 2 (norm 4) and ramified primes of norm 2
        tag = field(d)
        for m in _test_moduli(tag):
            for bound in (2, 3, 4, 9, 25, 2000):
                sieve = _prime_sieve(bound)
                mask = _coprime_mask(m, bound)
                got = []
                for ys, xs, norms in _ideal_chunks(tag, bound):
                    keep = mask(ys, xs)
                    ys, xs, norms = ys[keep], xs[keep], norms[keep]
                    prime = _prime_entries(tag, sieve, ys, xs, norms)
                    got += [canonical_associate(OkElement(tag, x, y))
                            for x, y in zip(xs[prime].tolist(), ys[prime].tolist())]
                assert len(got) == len(set(got)), (d, str(m), bound)
                assert set(got) == euler_prime_ideals(tag, m, bound), (d, str(m), bound)

    @pytest.mark.parametrize("d", CLASS_NUMBER_ONE_DS)
    def test_one_walk_equals_two_walks(self, d):
        # the memoised pair against two separate walks: == on every value and
        # error estimate, trivial character first, then up to 2 nontrivial
        tag = field(d)
        for m in _test_moduli(tag):
            chars = characters(ray_class_group(m))
            nontrivial = {c for c in (chars[len(chars) // 2], chars[-1]) if c.order > 1}
            picks = [c for c in chars if c.order == 1] + sorted(nontrivial,
                                                                key=lambda c: c.exponents)
            for chi in picks:
                for s in (1.5, 2.0, 3.0):
                    for bound in (2, 3, 4, 25, 2000):
                        got = (evaluate_imprimitive_L(tag, m, chi, s, bound),
                               euler_product_L(tag, m, chi, s, bound))
                        want = two_walk_L(tag, m, chi, s, bound)
                        for g, w in zip(got, want):
                            assert (g.value, g.error_estimate) == (w.value, w.error_estimate), \
                                (d, str(m), chi.exponents, s, bound)

    def test_cli_lseries_walks_once(self, monkeypatch, capsys):
        # one lseries command prints both values from one enumeration and one sieve
        calls = {"chunks": 0, "sieve": 0}

        def counted(key, fn):
            def wrapper(*args):
                calls[key] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr("iqtower.lvaluation._ideal_chunks", counted("chunks", _ideal_chunks))
        monkeypatch.setattr("iqtower.lvaluation._prime_sieve", counted("sieve", _prime_sieve))
        _l_values.cache_clear()
        assert main(["lseries", "--d", "1", "--modulus", "5", "--s", "2.0", "--B", "2000",
                     "--char", "1"]) == 0
        rec = json.loads(capsys.readouterr().out)["records"][0]
        assert {"dirichlet", "euler"} <= rec.keys()
        assert calls == {"chunks": 1, "sieve": 1}

    def test_cli_lseries_passes_the_character_order(self, monkeypatch, capsys):
        # --char 2,3 against the invariants (3, 12) of 13 in Z[i] has order 12
        seen = []

        def recorded(*args):
            seen.append(args[2])
            return _l_values(*args)

        monkeypatch.setattr("iqtower.lvaluation._l_values", recorded)
        assert main(["lseries", "--d", "1", "--modulus", "13", "--s", "2.0", "--B", "300",
                     "--char", "2,3"]) == 0
        assert {(chi.exponents, chi.order) for chi in seen} == {((2, 3), 12)}

    def test_sieve(self):
        sieve = _prime_sieve(3000)
        assert [n for n in range(3001) if sieve[n]] == [n for n in range(3001) if isprime(n)]

    def test_sieve_equals_primerange(self):
        # every bound up to 10^4, so each parity of the bound and each prime
        # square is an edge somewhere, and one large bound
        primes = list(primerange(2, 10 ** 4 + 1))
        for bound in range(10 ** 4 + 1):
            assert np.flatnonzero(_prime_sieve(bound)).tolist() == \
                primes[:bisect.bisect_right(primes, bound)], bound
        assert np.flatnonzero(_prime_sieve(10 ** 6)).tolist() == list(primerange(2, 10 ** 6 + 1))

    def test_euler_product_leaves_primes_above_cache_alone(self):
        # once the modulus is factored, the product reads no primes_above
        tag = field(1)
        m = tag.from_int(5)
        assert ray_class_group(m).presentation.invariants == (4,)
        before = primes_above.cache_info().currsize
        euler_product_L(tag, m, CharacterSpec((1,), 1), 2.0, 10 ** 5)
        assert primes_above.cache_info().currsize == before


def _assert_chunk_equals_per_class(tag, m, chi, bound):
    """_chi_table on the whole walk up to bound as one chunk, and on each row
    alone, equals the per-class dict path row by row, bit for bit."""
    rows = list(coprime_rows(tag, m, bound))
    oracle = per_class_chi_row(m, chi)
    want = [oracle(y, xs).tolist() for y, xs, _ in rows]
    table = _chi_table(m, chi)
    got = table(np.repeat([y for y, _, _ in rows], [len(xs) for _, xs, _ in rows]),
                np.concatenate([xs for _, xs, _ in rows])).tolist()
    assert got == [v for row in want for v in row], (str(m), chi.exponents)
    assert [table(y, xs).tolist() for y, xs, _ in rows] == want, (str(m), chi.exponents)


def _record_calls(monkeypatch, owners, name: str) -> dict:
    """Record the arguments of every call of the method `name` of each
    owner, a unit group or one of its factors: owner -> list of argument
    tuples."""
    calls = {o: [] for o in owners}
    for o in owners:
        def recording(*args, seen=calls[o], method=getattr(o, name)):
            seen.append(args)
            return method(*args)
        monkeypatch.setattr(o, name, recording)
    return calls


def _assert_dlogs_once_per_chunk(tag, m, bound, calls) -> list[list[int]]:
    """Each factor's dlogs ran once per chunk of the walk, on all of that
    chunk's entries coprime to the modulus, in walk order.  Returns, per
    factor and call, the number of unit residue classes modulo that factor
    the call met."""
    mask = _coprime_mask(m, bound)
    chunks = [(xs[keep], ys[keep]) for ys, xs, _ in _ideal_chunks(tag, bound)
              if (keep := mask(ys, xs)).any()]
    met = []
    for f, seen in calls.items():
        assert len(seen) == len(chunks)
        for (xs, ys), (chunk_xs, chunk_ys) in zip(seen, chunks):
            assert np.array_equal(xs, chunk_xs) and np.array_equal(ys, chunk_ys)
        met.append([len({reduce_mod(OkElement(tag, x, y), f.modulus)
                         for x, y in zip(xs.tolist(), ys.tolist())}) for xs, ys in seen])
    return met


@pytest.fixture(scope="module", params=CLASS_NUMBER_ONE_DS)
def chi_sweep(request):
    """The field d and its moduli of norm <= 200 with a nontrivial
    character, each with its group and up to 3 nontrivial characters (the
    first, middle and last), sorted by exponents."""
    tag = field(request.param)
    moduli = []
    for m in elements_up_to_norm(tag, 200)[1:]:
        group = ray_class_group(m)
        nontrivial = [c for c in characters(group) if c.order > 1]
        if nontrivial:
            picks = sorted({nontrivial[i] for i in (0, len(nontrivial) // 2, -1)},
                           key=lambda c: c.exponents)
            moduli.append((m, group, picks))
    return tag, moduli


class TestChiTable:
    """_chi_table evaluates chi a chunk of the walk at a time."""

    def test_lookup_equals_per_ideal_oracle(self, chi_sweep):
        # every modulus of norm <= 200, up to 3 nontrivial characters each,
        # on all its rows up to B = 500 in one call, and on its last row with
        # an int y; at a split prime gamma = 1, so the beta shift acts on
        # every row y >= 1
        tag, moduli = chi_sweep
        for m, group, picks in moduli:
            rows = list(coprime_rows(tag, m, 500))
            ys = np.repeat([y for y, _, _ in rows], [len(xs) for _, xs, _ in rows])
            xs = np.concatenate([xs for _, xs, _ in rows])
            want = [per_ideal_chi(group, picks, OkElement(tag, x, y))
                    for x, y in zip(xs.tolist(), ys.tolist())]
            y, row, _ = rows[-1]
            for k, chi in enumerate(picks):
                table = _chi_table(m, chi)
                assert table(ys, xs).tolist() == [w[k] for w in want], \
                    (tag.d, str(m), chi.exponents)
                assert table(y, row).tolist() == [w[k] for w in want[len(xs) - len(row):]], \
                    (tag.d, str(m), chi.exponents, y)

    def test_chunk_equals_per_class_oracle(self, chi_sweep):
        # the moduli and characters of the per-ideal sweep, each walk up to
        # B = 300 evaluated as one chunk against the per-class dict path
        tag, moduli = chi_sweep
        for m, _, picks in moduli:
            for chi in picks:
                _assert_chunk_equals_per_class(tag, m, chi, 300)

    @pytest.mark.parametrize("ell, e", [(1010523706733, 1), (1010523706733, 2),
                                        (16210220612075905069, 1)])
    def test_object_band_equals_per_class_oracle(self, ell, e):
        # (l^e)^2 >= 2^63: residues, words and coordinates in Python ints
        tag = field(1)
        m = primes_above(tag, ell)[0].generator ** e
        assert ray_class_group(m).units.factors[0].dtype is object
        _assert_chunk_equals_per_class(tag, m, CharacterSpec((1,), 0), 300)
        _assert_chunk_equals_per_class(tag, m, CharacterSpec((ell - 2,), 0), 300)

    def test_euler_product_adds_no_dlog(self, monkeypatch):
        # (2+i) * 3 * (1+i)^3: each factor's dlogs sees the chunk's coprime
        # entries once, which meet its 4, 8 and 4 unit residue classes; no
        # scalar dlog of a factor or of the whole modulus runs, and the
        # product adds no dlogs call
        tag = field(1)
        m = OkElement(tag, 2, 1) * tag.from_int(3) * OkElement(tag, 1, 1) ** 3
        _l_values.cache_clear()
        group = ray_class_group(m)
        chi = max(characters(group), key=lambda c: c.order)
        scalar = _record_calls(monkeypatch, [*group.units.factors, group.units], "dlog")
        calls = _record_calls(monkeypatch, group.units.factors, "dlogs")
        bound = 2000
        evaluate_imprimitive_L(tag, m, chi, 2.0, bound)
        after_sum = {f: list(c) for f, c in calls.items()}
        euler_product_L(tag, m, chi, 2.0, bound)
        assert calls == after_sum
        assert not any(scalar.values())
        assert _assert_dlogs_once_per_chunk(tag, m, bound, calls) == [[4], [8], [4]]
        _assert_chunk_equals_per_class(tag, m, chi, bound)

    def test_log_table_built_once_per_factor(self, monkeypatch):
        # (2+i)^2 * 3 in Z[i]: two characters, each a Dirichlet sum and an
        # Euler product at two bounds, build each factor's table once, as
        # the character is set up
        tag = field(1)
        m = OkElement(tag, 2, 1) ** 2 * tag.from_int(3)
        ray_class_group.cache_clear()
        _l_values.cache_clear()
        built = []

        def log_table(f, build=_Factor._log_table.func):
            built.append(f)
            return build(f)
        prop = cached_property(log_table)
        prop.__set_name__(_Factor, "_log_table")
        monkeypatch.setattr(_Factor, "_log_table", prop)
        group = ray_class_group(m)
        for chi in [c for c in characters(group) if c.order > 1][:2]:
            _chi_table(m, chi)
            assert built == group.units.factors
            for bound in (300, 3000):
                evaluate_imprimitive_L(tag, m, chi, 2.0, bound)
                euler_product_L(tag, m, chi, 2.0, bound)
            _assert_chunk_equals_per_class(tag, m, chi, 300)
            assert built == group.units.factors

    @pytest.mark.parametrize("trivial", [True, False])
    def test_modulus_factored_once_per_walk(self, monkeypatch, trivial):
        # the coprime mask reads the primes off the ray class group that
        # the character was set up with, so one walk factors the modulus once
        tag = field(1)
        m = OkElement(tag, 2, 1) ** 2 * tag.from_int(3)
        chi = characters(ray_class_group(m))[0 if trivial else 1]
        assert (chi.order == 1) == trivial
        seen = []

        def recording(e):
            seen.append(e)
            return factor(e)
        monkeypatch.setattr("iqtower.rayclass.factor", recording)
        monkeypatch.setattr("iqtower.lvaluation.factor", recording, raising=False)
        ray_class_group.cache_clear()
        _l_values.cache_clear()
        _l_values(tag, m, chi, 2.0, 300)
        assert seen == [canonical_associate(m)]

    def test_norm_cap_modulus(self, monkeypatch):
        # pi_997 * pi_1009 in Z[i], norm 1,005,973: the sum at B = 10^5 meets
        # 78,394 classes of the modulus in several chunks; each chunk's dlogs
        # meets at most 996 and 1008 residues, and no scalar dlog runs
        tag = field(1)
        m = primes_above(tag, 997)[0].generator * primes_above(tag, 1009)[0].generator
        group = ray_class_group(m)
        assert group.presentation.invariants == (3, 83664)
        chi = CharacterSpec((1, 1), 83664)
        scalar = _record_calls(monkeypatch, [*group.units.factors, group.units], "dlog")
        calls = _record_calls(monkeypatch, group.units.factors, "dlogs")
        _l_values.cache_clear()
        start = time.perf_counter()
        evaluate_imprimitive_L(tag, m, chi, 2.0, 10 ** 5)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.5, elapsed
        assert not any(scalar.values())
        assert len(list(_ideal_chunks(tag, 10 ** 5))) > 1
        met = _assert_dlogs_once_per_chunk(tag, m, 10 ** 5, calls)
        assert [max(per_call) for per_call in met] == [996, 1008]
        table = _chi_table(m, chi)
        for y, xs, _ in coprime_rows(tag, m, 300):
            want = [per_ideal_chi(group, [chi], OkElement(tag, x, y))[0] for x in xs.tolist()]
            assert table(y, xs).tolist() == want, y
        _assert_chunk_equals_per_class(tag, m, chi, 3000)

    def test_storage_grows_with_classes_met(self):
        # a split prime of norm about 10^12: (O_K/m)^x is cyclic of order
        # ell - 1 = 4 * 6301 * 6311 * 6353, and a dense table would take 16 TB
        tag = field(1)
        m = primes_above(tag, 1010523706733)[0].generator
        group = ray_class_group(m)
        chi = CharacterSpec((1,), group.degree)
        _l_values.cache_clear()
        tracemalloc.start()
        try:
            evaluate_imprimitive_L(tag, m, chi, 2.0, 2000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2 ** 20, peak

    def test_split_prime_beyond_int64(self):
        # ell = 2^a * 3^b + 1 > 2^63: residues and table keys exceed int64
        tag = field(1)
        ell = 16210220612075905069
        m = primes_above(tag, ell)[0].generator
        group = ray_class_group(m)
        chi = CharacterSpec((1,), 0)
        want = sum(per_ideal_chi(group, [chi], OkElement(tag, x, y))[0] / n ** 2
                   for y, xs, norms in coprime_rows(tag, m, 200)
                   for x, n in zip(xs.tolist(), norms.tolist()))
        _l_values.cache_clear()
        got = evaluate_imprimitive_L(tag, m, chi, 2.0, 200).value
        assert abs(got - want) < 1e-12
        assert cmath.isfinite(euler_product_L(tag, m, chi, 2.0, 200).value)

    @pytest.mark.parametrize("bound, seconds", [(10 ** 5, 0.2), (10 ** 6, 1.0)])
    def test_order_4_value_speed(self, bound, seconds):
        # each function starts from an empty table
        tag = field(1)
        five = tag.from_int(5)
        chi = characters(ray_class_group(five), exact_order=4)[0]
        for fn in (evaluate_imprimitive_L, euler_product_L):
            _l_values.cache_clear()
            start = time.perf_counter()
            fn(tag, five, chi, 2.0, bound)
            elapsed = time.perf_counter() - start
            assert elapsed < seconds, (fn.__name__, bound, elapsed)


class TestTailBound:
    def test_rigorous_against_slow_sum(self):
        # compare the closed-form tail bound against a much larger direct sum
        from sympy import divisor_count
        for s in (1.7, 2.0, 2.5):
            B = 200
            direct = sum(divisor_count(n) * n ** (-s) for n in range(B + 1, 20000))
            assert direct < dirichlet_tail_bound(B, s)
