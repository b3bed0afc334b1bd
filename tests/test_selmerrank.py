import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import primerange

from iqtower.selmerrank import (CofinPGroup, MonotonicityError,
                                RankConsistencyError, SchemaError,
                                class_to_selmer_gap_bound, control_gap_bound,
                                decomposition_counts, fine_selmer_mod_p_rank,
                                fit_iwasawa, ingest_tower, rank_gap_bound,
                                rank_gap_reports, series_stabilization,
                                stabilization_detect)

from oracles import per_level_decomposition_counts, scanned_fit_iwasawa


# -- explicit finite abelian p-group helpers for the brute-force checks -------

def _elements(invs):
    return list(itertools.product(*(range(n) for n in invs)))


def _add(invs, x, y):
    return tuple((a + b) % n for a, b, n in zip(x, y, invs))


def _scale(invs, k, x):
    return tuple(k * a % n for a, n in zip(x, invs))


def _p_rank_brute(invs, elements, p):
    count = sum(1 for x in elements if all(p * a % n == 0 for a, n in zip(x, invs)))
    r = 0
    while p ** (r + 1) <= count:
        r += 1
    assert p ** r == count
    return r


class TestFormulas:
    def test_fine_selmer_mod_p_rank(self):
        assert fine_selmer_mod_p_rank(3, 1) == 6
        assert fine_selmer_mod_p_rank(0, 5) == 0
        assert fine_selmer_mod_p_rank(2, 2) == 8
        with pytest.raises(ValueError):
            fine_selmer_mod_p_rank(-1, 1)

    def test_rank_gap_bound(self):
        assert rank_gap_bound(1, 0) == 2
        assert rank_gap_bound(0, 0) == 0
        assert rank_gap_bound(2, 3) == 7

    def test_control_gap_bound(self):
        assert control_gap_bound(1, 1) == 6
        assert control_gap_bound(1, 0) == 4
        assert control_gap_bound(3, 2) == 24

    def test_composite_bound(self):
        assert class_to_selmer_gap_bound(1, 0) == 4
        assert class_to_selmer_gap_bound(1, 1) == 10
        assert class_to_selmer_gap_bound(2, 3) == 44


class TestHomRankIdentity:
    def test_brute_force_200_groups(self):
        # p-rank of Hom(G, (Z/p)^2d) = 2d * r_p(G), with the Hom side counted
        # by literally enumerating all homomorphisms
        rng = random.Random(101)
        done = 0
        while done < 200:
            p = rng.choice([2, 3, 5])
            d = rng.choice([1, 2, 3])
            nparts = rng.randint(1, 3)
            invs = tuple(p ** rng.randint(1, 3) for _ in range(nparts))
            if (2 * d * nparts) * (1 if p == 2 else 2) > 14:
                continue
            if p ** (2 * d * nparts) > 5000:
                continue
            target_invs = (p,) * (2 * d)
            target = _elements(target_invs)
            hom_count = 0
            sample_checked = False
            for images in itertools.product(target, repeat=len(invs)):
                # a tuple of images defines a homomorphism iff each image is
                # killed by the order of its generator; p-power orders kill
                # everything in an exponent-p target
                assert all(_scale(target_invs, n, img) == (0,) * (2 * d)
                           for n, img in zip(invs, images))
                hom_count += 1
                if not sample_checked:
                    # verify additivity of the induced map on the whole group
                    def phi(x):
                        out = (0,) * (2 * d)
                        for xi, img in zip(x, images):
                            out = _add(target_invs, out, _scale(target_invs, xi, img))
                        return out
                    els = _elements(invs)
                    for a in els[:12]:
                        for b in els[:12]:
                            assert phi(_add(invs, a, b)) == _add(target_invs, phi(a), phi(b))
                    sample_checked = True
            r_hom = 0
            while p ** (r_hom + 1) <= hom_count:
                r_hom += 1
            assert p ** r_hom == hom_count
            assert r_hom == fine_selmer_mod_p_rank(len(invs), d), (p, d, invs)
            done += 1


class TestRankLemma:
    def test_500_random_four_term_sequences(self):
        # P -> Q -> R -> S exact at Q and R: |r_p Q - r_p R| <= 2 r_p P + r_p S
        rng = random.Random(103)
        done = 0
        while done < 500:
            p = rng.choice([2, 3, 5])
            q_invs = tuple(p ** rng.randint(1, 2) for _ in range(rng.randint(1, 3)))
            r_invs = tuple(p ** rng.randint(1, 2) for _ in range(rng.randint(1, 3)))
            Q = _elements(q_invs)
            R = _elements(r_invs)
            if len(Q) > 512 or len(R) > 512:
                continue
            # a homomorphism Q -> R from random generator images of valid order
            gens_images = []
            for n in q_invs:
                candidates = [r for r in R if _scale(r_invs, n, r) == (0,) * len(r_invs)]
                gens_images.append(candidates[rng.randrange(len(candidates))])

            def f(x):
                out = (0,) * len(r_invs)
                for xi, img in zip(x, gens_images):
                    out = _add(r_invs, out, _scale(r_invs, xi, img))
                return out

            kernel = [x for x in Q if f(x) == (0,) * len(r_invs)]
            image = {f(x) for x in Q}
            # P surjects onto ker f with junk; S receives R/im f with junk
            junk_p = rng.randint(0, 2)
            junk_s = rng.randint(0, 2)
            rp_P = _p_rank_brute(q_invs, kernel, p) + junk_p
            # r_p of R/image: elements r with p*r in image, up to image
            pre = [r for r in R if f_in(_scale(r_invs, p, r), image)]
            rp_S = 0
            quot_count = len(pre) // len(image)
            while p ** (rp_S + 1) <= quot_count:
                rp_S += 1
            assert p ** rp_S == quot_count
            rp_S += junk_s
            rp_Q = _p_rank_brute(q_invs, Q, p)
            rp_R = _p_rank_brute(r_invs, R, p)
            assert abs(rp_Q - rp_R) <= 2 * rp_P + rp_S, (p, q_invs, r_invs)
            done += 1


def f_in(x, image_set):
    return x in image_set


class TestStabilization:
    def test_examples(self):
        g = lambda s, T: CofinPGroup(3, s, tuple(T))
        assert stabilization_detect([g(1, []), g(1, []), g(1, [])]) == 0
        assert stabilization_detect([g(0, [3]), g(1, [3]), g(1, [3])]) == 1
        assert stabilization_detect([g(0, []), g(1, []), g(2, []), g(3, [])]) is None

    def test_minimality(self):
        rng = random.Random(107)
        for _ in range(60):
            p = rng.choice([3, 5])
            stable = CofinPGroup(p, rng.randint(0, 3),
                                 tuple(sorted(p ** rng.randint(1, 2)
                                              for _ in range(rng.randint(0, 2)))))
            nstar = rng.randint(0, 4)
            series = []
            cur_s, cur_T = stable.corank, list(stable.torsion)
            prefix = []
            for _ in range(nstar):
                if rng.random() < 0.5 and cur_T:
                    cur_T.pop(rng.randrange(len(cur_T)))
                else:
                    cur_s = max(0, cur_s - 1)
                    cur_T = [p ** rng.randint(1, 2) for _ in range(rng.randint(0, 1))]
                prefix.append(CofinPGroup(p, cur_s, tuple(sorted(cur_T))))
            series = list(reversed(prefix)) + [stable] * rng.randint(2, 4)
            got = stabilization_detect(series)
            assert got is not None
            # entries from the reported level on are pairwise isomorphic
            keys = [x.iso_key() for x in series[got:]]
            assert all(k == keys[0] for k in keys)
            if got > 0:
                assert series[got - 1].iso_key() != keys[0]

    def test_torsion_validation(self):
        with pytest.raises(ValueError):
            CofinPGroup(3, 0, (4,))
        with pytest.raises(ValueError):
            CofinPGroup(3, -1, ())

    def test_p_rank(self):
        assert CofinPGroup(5, 2, (5, 25)).p_rank == 4


class TestDecompositionCounts:
    def test_examples(self):
        assert decomposition_counts(3, 3, 4) == [1, 1, 1, 1, 1]
        assert decomposition_counts(17, 3, 3) == [1, 3, 3, 3]
        assert decomposition_counts(7, 3, 3) == [1, 1, 1, 1]

    def test_brute_order_oracle(self):
        # prime count = q^n / (q-part of the multiplicative order), with the
        # order found by naive iteration
        for (ell, q) in ((17, 3), (7, 3), (5, 7), (11, 5), (2, 3), (19, 5)):
            counts = decomposition_counts(ell, q, 3)
            for n in range(1, 4):
                mod = q ** (n + 1)
                j = 1
                acc = ell % mod
                while acc != 1:
                    acc = acc * ell % mod
                    j += 1
                f = 1
                while j % q == 0:
                    j //= q
                    f *= q
                assert counts[n] == q ** n // f, (ell, q, n)

    def test_closed_form_equals_per_level_orders(self):
        pairs = 0
        for q in primerange(3, 60):
            for ell in primerange(2, 3000):
                assert decomposition_counts(ell, q, 6) == \
                    per_level_decomposition_counts(ell, q, 6), (ell, q)
                pairs += 1
        assert pairs == 6880

    def test_monotone_eventually_constant_power_of_q(self):
        for (ell, q) in ((17, 3), (5, 7), (13, 11), (23, 5), (101, 3)):
            counts = decomposition_counts(ell, q, 6)
            assert all(a <= b for a, b in zip(counts, counts[1:]))
            assert counts[-1] == counts[-2]   # stabilized within depth
            final = counts[-1]
            while final % q == 0:
                final //= q
            assert final == 1

    def test_preconditions(self):
        with pytest.raises(ValueError):
            decomposition_counts(4, 3, 2)
        with pytest.raises(ValueError):
            decomposition_counts(5, 2, 2)


class TestFitIwasawa:
    def test_examples(self):
        assert fit_iwasawa([5, 5, 5, 5], 3) == (0, 0, 5, 0)
        assert fit_iwasawa([3, 8, 21, 58], 3) == (2, 1, 1, 0)
        assert fit_iwasawa([0, 0, 1, 2, 3], 3) == (0, 1, -1, 1)

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            fit_iwasawa([1, 2, 3], 3)

    def test_no_fit(self):
        assert fit_iwasawa([1, 5, 2, 9, 4, 1], 3) is None

    def test_recovery_with_noise(self):
        rng = random.Random(109)
        for _ in range(80):
            q = rng.choice([2, 3, 5, 7])
            mu = rng.randint(0, 3)
            lam = rng.randint(0, 4)
            nu = rng.randint(-5, 5)
            n0 = rng.randint(0, 3)
            length = max(4, n0 + rng.randint(3, 5))
            e = [mu * q ** n + lam * n + nu for n in range(length)]
            for n in range(n0):
                e[n] += rng.choice([1, -1, 2])   # break every pre-tail point
            got = fit_iwasawa(e, q)
            assert got is not None
            gmu, glam, gnu, gn0 = got
            assert (gmu, glam, gnu) == (mu, lam, nu) or gn0 < n0
            # the reported tail really fits
            assert all(e[n] == gmu * q ** n + glam * n + gnu
                       for n in range(gn0, length))
            assert gn0 <= n0

    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_every_short_sequence_matches_the_scan(self, q):
        """Every sequence of length 4-7 with entries in [0, 3], None included."""
        for length in range(4, 8):
            for e in itertools.product(range(4), repeat=length):
                assert fit_iwasawa(list(e), q) == scanned_fit_iwasawa(list(e), q), e

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(st.sampled_from([2, 3, 5, 7, 10 ** 30]), st.integers(0, 5), st.integers(0, 6),
           st.integers(-20, 20), st.lists(st.integers(-50, 50), max_size=12),
           st.integers(1, 12))
    def test_hypothesis_laws_match_the_scan(self, q, mu, lam, nu, prefix, length):
        """The law (mu, lambda, nu) from n0 = len(prefix) on, after a prefix
        of arbitrary values."""
        n0 = len(prefix)
        e = prefix + [mu * q ** n + lam * n + nu for n in range(n0, n0 + length)]
        if len(e) >= 4:
            got = fit_iwasawa(e, q)
            assert got == scanned_fit_iwasawa(e, q)
            if length >= 3:
                assert got[:3] == (mu, lam, nu) and got[3] <= n0

    def test_long_tail_failing_at_the_end(self):
        """Every 3-value window of zeros fits; only the last value breaks it."""
        for q in (3, 10 ** 30):
            e = [0] * 2000 + [1]
            assert fit_iwasawa(e, q) is None
            assert fit_iwasawa(e[:-1] + [0], q) == (0, 0, 0, 0)


class TestIngestAndReports:
    def _write(self, tmp_path, payload):
        path = tmp_path / "tower.json"
        path.write_text(json.dumps(payload))
        return path

    def test_round_trip_from_classforms_data(self, tmp_path):
        from iqtower.classforms import class_group, p_rank, s_class_group
        p = 3
        levels = []
        for n, disc in enumerate((-23, -23, -23)):
            G = class_group(disc)
            S = s_class_group(disc, [2])
            levels.append({"n": n, "s_f": 1,
                           "r_cl": p_rank(G.structure, p),
                           "r_cls": p_rank(S.structure, p),
                           "sel0": {"s": 0, "T": []}})
        payload = {"label": "disc-23-stub", "q": 7, "d": 1, "p": p, "levels": levels}
        path = self._write(tmp_path, payload)
        series = ingest_tower(path)
        assert series.to_dict() == payload
        reports = rank_gap_reports(series)
        assert all(r.satisfied for r in reports)
        assert series_stabilization(series) == 0

    def test_schema_rejections(self, tmp_path):
        with pytest.raises(SchemaError):
            ingest_tower(self._write(tmp_path, {"label": "x"}))
        with pytest.raises(SchemaError):
            ingest_tower(self._write(tmp_path, {"label": "x", "q": 3, "d": 1,
                                                "p": 3, "levels": []}))
        with pytest.raises(SchemaError):   # p = q
            ingest_tower(self._write(tmp_path, {"label": "x", "q": 3, "d": 1, "p": 3,
                                                "levels": [{"n": 0, "s_f": 0,
                                                            "r_cl": 0, "r_cls": 0}]}))
        with pytest.raises(SchemaError):   # torsion not a p-power
            ingest_tower(self._write(tmp_path, {
                "label": "x", "q": 3, "d": 1, "p": 5,
                "levels": [{"n": 0, "s_f": 0, "r_cl": 0, "r_cls": 0,
                            "sel0": {"s": 0, "T": [3]}}]}))

    @pytest.mark.parametrize("p,q,ok", [(5, 99999989, True), (99999989, 3, True),
                                        (5, 100000007, False), (100000007, 3, False)])
    def test_primes_capped_at_the_tower_cap(self, tmp_path, p, q, ok):
        # 99999989 is the largest prime under the cap, 100000007 the least above
        payload = {"label": "x", "q": q, "d": 1, "p": p,
                   "levels": [{"n": 0, "s_f": 0, "r_cl": 0, "r_cls": 0}]}
        if ok:
            assert ingest_tower(self._write(tmp_path, payload)).q == q
        else:
            with pytest.raises(SchemaError, match="at most"):
                ingest_tower(self._write(tmp_path, payload))

    def test_integer_past_the_digit_limit_rejected(self, tmp_path):
        # json.loads refuses an int of more than 4,300 digits with a ValueError
        path = tmp_path / "tower.json"
        path.write_text('{"label": "x", "q": 1' + "0" * 5000 + ', "d": 1, "p": 5, "levels": []}')
        with pytest.raises(SchemaError, match="cannot read"):
            ingest_tower(path)

    @pytest.mark.parametrize("top,level,sel0", [
        ({"d": True}, {}, None),
        ({"q": 3.0}, {}, None),
        ({}, {"n": False}, None),
        ({}, {"e_n": True}, None),
        ({}, {}, {"s": True, "T": []}),
        ({}, {}, {"s": 0, "T": [25.0]}),
        ({}, {}, {"s": 0, "T": [True]}),
        ({}, {}, {"s": 0, "T": ["a"]}),
        ({}, {}, {"s": 0, "T": [None]}),
    ])
    def test_json_booleans_floats_and_strings_rejected(self, tmp_path, top, level, sel0):
        rec = {"n": 0, "s_f": 0, "r_cl": 0, "r_cls": 0, **level}
        if sel0 is not None:
            rec["sel0"] = sel0
        payload = {"label": "x", "q": 3, "d": 1, "p": 5, "levels": [rec], **top}
        with pytest.raises(SchemaError):
            ingest_tower(self._write(tmp_path, payload))

    def test_monotonicity_rejection_names_level(self, tmp_path):
        payload = {"label": "x", "q": 3, "d": 1, "p": 5,
                   "levels": [{"n": 0, "s_f": 2, "r_cl": 0, "r_cls": 0},
                              {"n": 1, "s_f": 1, "r_cl": 0, "r_cls": 0}]}
        with pytest.raises(MonotonicityError, match="n=1"):
            ingest_tower(self._write(tmp_path, payload))

    def test_rank_consistency_rejection(self, tmp_path):
        payload = {"label": "x", "q": 3, "d": 1, "p": 5,
                   "levels": [{"n": 0, "s_f": 0, "r_cl": 2, "r_cls": 0}]}
        with pytest.raises(RankConsistencyError):
            ingest_tower(self._write(tmp_path, payload))

    def test_pipeline_stabilizes_when_e_n_constant(self, tmp_path):
        # eventually-constant e_n with split-injection models: the detector
        # must succeed
        rng = random.Random(111)
        for trial in range(20):
            p, q, d = 5, 3, 1
            stable = CofinPGroup(p, rng.randint(0, 2),
                                 tuple(sorted(p ** rng.randint(1, 2)
                                              for _ in range(rng.randint(0, 2)))))
            n_levels = rng.randint(3, 6)
            n_star = rng.randint(0, n_levels - 2)
            models = []
            cur = stable
            down = []
            for _ in range(n_star):
                if cur.torsion and rng.random() < 0.6:
                    t = list(cur.torsion)
                    t.pop()
                    cur = CofinPGroup(p, cur.corank, tuple(t))
                else:
                    cur = CofinPGroup(p, max(0, cur.corank - 1), cur.torsion)
                down.append(cur)
            models = list(reversed(down)) + [stable] * (n_levels - n_star)
            e_const = rng.randint(0, 4)
            levels = [{"n": n, "s_f": 1, "r_cl": 0, "r_cls": 0,
                       "e_n": e_const if n >= n_star else e_const + n_star - n,
                       "sel0": models[n].to_dict()}
                      for n in range(n_levels)]
            path = self._write(tmp_path, {"label": f"t{trial}", "q": q, "d": d,
                                          "p": p, "levels": levels})
            series = ingest_tower(path)
            assert series_stabilization(series) is not None
