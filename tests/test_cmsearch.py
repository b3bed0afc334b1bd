import pytest
from sympy import isprime

from iqtower.cmsearch import (curve_table, find_twist_candidates, is_anomalous,
                              twist_degree_admissible)
from iqtower.okring import OkElement, OkError, field, split_type
from iqtower.rayclass import ray_class_group


EXPECTED_DEGREES = {1: 1, 2: 1, 3: 6, 7: 21, 11: 1, 19: 3, 43: 29, 67: 41, 163: 89}


class TestTwistSearch:
    def test_d43_r1(self):
        cands = find_twist_candidates(field(43), 1)
        assert len(cands) == 1
        c = cands[0]
        assert c.r == 1
        assert str(c.prime.generator) == "d=43:4+1*w"
        assert c.prime.norm() == 59 and isprime(59)
        assert c.degree == 29
        assert str(c.alpha) == "d=43:-43+4*w"

    def test_d67_r1(self):
        c = find_twist_candidates(field(67), 1)[0]
        assert c.prime.norm() == 83 and c.degree == 41

    def test_d163_includes_r1(self):
        cands = find_twist_candidates(field(163), 3)
        assert (cands[0].r, cands[0].prime.norm(), cands[0].degree) == (1, 179, 89)

    def test_congruence_always_holds(self):
        # Q - sqrt(-d) = 4r by construction; kept as a regression guard
        for d in (7, 11, 19, 43, 67, 163):
            for c in find_twist_candidates(field(d), 6):
                diff = c.prime.generator.conj()  # placeholder to touch the API
                q_elt = field(d).from_int(4 * c.r) + field(d).sqrt_minus_d()
                gap = q_elt - field(d).sqrt_minus_d()
                assert gap.x % 4 == 0 and gap.y % 4 == 0

    def test_norm_is_odd_prime(self):
        for d in (7, 43, 163):
            for c in find_twist_candidates(field(d), 8):
                n = 16 * c.r * c.r + d
                assert n % 2 == 1 and isprime(n)

    def test_small_d_rejected(self):
        with pytest.raises(OkError):
            find_twist_candidates(field(3), 5)

    def test_degree_matches_rayclass(self):
        # the closed form (N(Q) - 1)/2 against the built ray class group
        count = 0
        for d in (7, 11, 19, 43, 67, 163):
            for c in find_twist_candidates(field(d), 300):
                assert c.degree == ray_class_group(c.prime.generator).degree, (d, c.r)
                count += 1
        assert count == 541


class TestDegreeAdmissibility:
    def test_29_in_d43(self):
        assert split_type(field(43), 29) != "split"
        assert twist_degree_admissible(29, field(43)) == (True, ())

    def test_21_in_d7(self):
        # 21 = 3 * 7 and 7 ramifies in Q(sqrt(-7))
        assert twist_degree_admissible(21, field(7)) == (True, ())

    def test_degree_one(self):
        assert twist_degree_admissible(1, field(1)) == (True, ())

    def test_offending_split_prime_reported(self):
        # 5 splits in Q(sqrt(-11)); a degree divisible by 5 is inadmissible there
        ok, bad = twist_degree_admissible(10, field(11))
        assert not ok and bad == (5,)

    def test_monotone_under_divisors(self):
        from sympy import divisors
        for d in (7, 11, 43):
            tag = field(d)
            for n in (12, 30, 42, 58, 126):
                ok, _ = twist_degree_admissible(n, tag)
                if ok:
                    for m in divisors(n):
                        assert twist_degree_admissible(m, tag)[0]


class TestCurveTable:
    def test_all_degrees(self):
        rows = curve_table()
        assert [r.d for r in rows] == sorted(EXPECTED_DEGREES)
        for row in rows:
            assert row.degree == EXPECTED_DEGREES[row.d], row.d

    def test_sources(self):
        rows = {r.d: r for r in curve_table()}
        for d in (1, 2, 3, 7, 11, 19):
            assert rows[d].source == "fixed"
        for d in (43, 67, 163):
            assert rows[d].source == "searched"

    def test_d2_row(self):
        row = {r.d: r for r in curve_table()}[2]
        assert [str(b) for b in row.bad_primes] == ["d=2:1-1*w"]
        assert row.degree == 1

    def test_d3_row_two_primes(self):
        row = {r.d: r for r in curve_table()}[3]
        assert [str(b) for b in row.bad_primes] == ["d=3:2+1*w", "d=3:2-1*w"]
        assert row.degree == 6 and row.conductor_norm == 49

    def test_d19_discrepancy_flag(self):
        row = {r.d: r for r in curve_table()}[19]
        assert row.flag
        assert "norm 5" in row.flag and "degree 2" in row.flag
        assert row.degree == 3
        # both computations reported: the substituted prime has norm 7
        assert row.bad_primes[0].norm() == 7
        printed = OkElement(field(19), -1, 1)
        assert printed.norm() == 5
        assert ray_class_group(printed).degree == 2

    def test_other_rows_unflagged(self):
        for row in curve_table():
            if row.d != 19:
                assert row.flag == ""

    def test_condition_column_true_everywhere(self):
        assert all(r.degree_admissible for r in curve_table())

    def test_to_dict_schema(self):
        d = curve_table()[0].to_dict()
        assert set(d) == {"d", "bad_primes", "norm", "degree", "condition_c",
                          "source", "flag"}


class TestAnomalous:
    def test_examples(self):
        assert is_anomalous(5, 1, 5) is True
        assert is_anomalous(5, 2, 5) is False
        assert is_anomalous(25, 6, 5) is True

    def test_hasse_bound_enforced(self):
        with pytest.raises(OkError):
            is_anomalous(5, 5, 3)
