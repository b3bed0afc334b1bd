import random
from math import gcd, prod

import pytest
from sympy import factorint, primerange

from iqtower.abgroup import GroupError, _pow
from iqtower.okring import (CLASS_NUMBER_ONE_DS, OkElement, OkError,
                            canonical_associate, elements_up_to_norm, field,
                            is_coprime, primes_above, smallest_split_primes)
from iqtower.rayclass import (RayClassElement, RayClassGroup, UnitGroup,
                              _residue_root, anticyclotomic_tower,
                              artin_symbol, characters, euler_phi,
                              lcm_degree_check, lcm_ideal, minus_quotient,
                              ray_class_group, reduce_mod, residues_mod,
                              unit_group_structure)

from oracles import brute_euler_phi, brute_ray_degree, brute_torsion_counts

ALL_TAGS = [field(d) for d in CLASS_NUMBER_ONE_DS]


class TestReduction:
    def test_idempotent_and_class_constant(self):
        rng = random.Random(3)
        for tag in ALL_TAGS[:5]:
            m = OkElement(tag, 5, 2)
            for _ in range(50):
                e = OkElement(tag, rng.randint(-99, 99), rng.randint(-99, 99))
                r = reduce_mod(e, m)
                assert reduce_mod(r, m) == r
                assert (e - r).divide_exact(m) is not None
                shift = e + m * OkElement(tag, rng.randint(-9, 9), rng.randint(-9, 9))
                assert reduce_mod(shift, m) == r

    def test_residue_count_is_norm(self):
        for tag in ALL_TAGS:
            for coords in ((3, 1), (5, 0), (0, 2)):
                m = OkElement(tag, *coords)
                res = residues_mod(m)
                assert len(res) == m.norm()
                assert len({(reduce_mod(r, m).x, reduce_mod(r, m).y) for r in res}) == m.norm()


class TestEulerPhi:
    def test_examples(self):
        K1, K3 = field(1), field(3)
        assert euler_phi(OkElement(K1, 2, 1)) == 4
        assert euler_phi(OkElement(K1, 2, 1) ** 2) == 20
        assert euler_phi(OkElement(K3, 1, 2) * OkElement(K3, 3, -2)) == 36

    def test_zero_rejected(self):
        with pytest.raises(OkError):
            euler_phi(field(1).zero())

    def test_enumeration_oracle_small(self):
        for tag in ALL_TAGS:
            for m in elements_up_to_norm(tag, 120):
                assert euler_phi(m) == brute_euler_phi(m), (tag.d, str(m))


class TestUnitGroupStructure:
    def test_examples(self):
        K1, K2 = field(1), field(2)
        assert unit_group_structure(OkElement(K1, 2, 1)).invariants == (4,)
        assert unit_group_structure(OkElement(K2, 1, -1) ** 2).invariants == (6,)
        assert unit_group_structure(K1.from_int(5)).invariants == (4, 4)

    def test_generator_orders_realized(self):
        for tag in ALL_TAGS[:4]:
            for m in elements_up_to_norm(tag, 80):
                if m.norm() < 3:
                    continue
                U = UnitGroup(m)
                s = unit_group_structure(m)
                assert s.order == U.order == euler_phi(m)
                for inv, gen in zip(s.invariants, s.generators):
                    acc = gen.representative
                    # the generator has the stated order in the group
                    seen = reduce_mod(acc ** inv, m)
                    assert seen == reduce_mod(tag.one(), m)
                    if inv > 1:
                        for r in {q for q in (2, 3, 5, 7, 11, 13) if inv % q == 0}:
                            assert reduce_mod(acc ** (inv // r), m) != reduce_mod(tag.one(), m)

    def test_dlog_consistency_random(self):
        rng = random.Random(5)
        for tag in ALL_TAGS[:3]:
            m = OkElement(tag, 7, 2)
            U = UnitGroup(m)
            for _ in range(25):
                e = OkElement(tag, rng.randint(-60, 60), rng.randint(-60, 60))
                if e.is_zero() or not U.is_unit(e):
                    continue
                vec = U.dlog(e)
                assert reduce_mod(U.power_word(vec), m) == reduce_mod(e, m)


def _nonsplit_powers(bound):
    """(p, e) for every inert or ramified prime power of norm <= bound, in
    all nine fields."""
    out = []
    for tag in ALL_TAGS:
        for ell in primerange(2, bound + 1):
            for p in primes_above(tag, ell):
                e = 1
                while p.kind != "split" and p.norm() ** e <= bound:
                    out.append((p, e))
                    e += 1
    return out


NONSPLIT_POWERS = _nonsplit_powers(2000)


class TestNonsplitFactors:
    """The filtration-built unit groups at inert and ramified prime powers
    against the torsion-count oracle, which knows no group structure."""

    def test_invariants_match_oracle(self):
        assert len(NONSPLIT_POWERS) == 151
        for p, e in NONSPLIT_POWERS:
            m = p.generator ** e
            invs = unit_group_structure(m).invariants
            counts = brute_torsion_counts(m)
            assert counts == {k: prod(gcd(k, n) for n in invs) for k in counts}, (str(p), e)

    def test_generators_have_exactly_their_orders(self):
        for p, e in NONSPLIT_POWERS:
            U = UnitGroup(p.generator ** e)

            def mul(a, b):
                return reduce_mod(a * b, U.modulus)
            one = reduce_mod(U.tag.one(), U.modulus)
            for g, o in zip(U.gens, U.orders):
                assert _pow(g, o, mul, one) == one, (str(p), e, str(g))
                for r in factorint(o):
                    assert _pow(g, o // r, mul, one) != one, (str(p), e, str(g), r)

    def test_power_word_inverts_dlog_on_every_unit(self):
        for p, e in NONSPLIT_POWERS:
            m = p.generator ** e
            U = UnitGroup(m)
            seen = set()
            for r in residues_mod(m):
                if p.divides(r):
                    continue
                vec = tuple(U.dlog(r))
                assert all(0 <= v < o for v, o in zip(vec, U.orders))
                assert U.power_word(vec) == reduce_mod(r, U.modulus), (str(p), e, str(r))
                seen.add(vec)
            assert len(seen) == U.order == euler_phi(m)

    def test_non_unit_rejected(self):
        K2 = field(2)
        U = UnitGroup(K2.from_int(5) ** 2)
        with pytest.raises(GroupError):
            U.dlog(K2.from_int(10))


def _scanned_root(p):
    """The residue root by the linear scan it replaced."""
    tag = p.tag
    t, n = tag.min_poly
    ell = p.residue_char
    for s in range(ell):
        if (s * s - t * s + n) % ell == 0 and p.divides(tag.omega() - tag.from_int(s)):
            return s


class TestResidueRoot:
    def test_equals_linear_scan(self):
        checked = 0
        for tag in ALL_TAGS:
            for ell in primerange(2, 2000):
                for p in primes_above(tag, ell):
                    if p.kind != "inert":
                        assert _residue_root(p) == _scanned_root(p), (tag.d, str(p))
                        checked += 1
        assert checked > 2000


class TestRayClassGroup:
    DEGREES = {1: ((2, 1), 1), 2: ((1, -1), 1), 7: ((7, -2), 21),
               11: ((0, -1), 1), 19: ((1, 1), 3), 43: ((3, 2), 29),
               67: ((3, 2), 41), 163: ((3, 2), 89)}

    def test_table_degrees(self):
        for d, (coords, want) in self.DEGREES.items():
            g = ray_class_group(OkElement(field(d), *coords))
            assert g.degree == want, d
        K3 = field(3)
        assert ray_class_group(OkElement(K3, 1, 2) * OkElement(K3, 3, -2)).degree == 6

    def test_degree_times_mu_image_is_phi(self):
        for tag in ALL_TAGS:
            for m in elements_up_to_norm(tag, 100):
                g = RayClassGroup(m)
                assert g.degree * g.units.mu_image_order() == euler_phi(m)

    def test_brute_force_oracle(self):
        for tag in ALL_TAGS:
            for m in elements_up_to_norm(tag, 100):
                assert RayClassGroup(m).degree == brute_ray_degree(m)

    def test_crt_consistency(self):
        rng = random.Random(9)
        for tag in ALL_TAGS:
            pool = [e for e in elements_up_to_norm(tag, 60) if e.norm() > 1]
            for _ in range(12):
                a, b = rng.sample(pool, 2)
                if not is_coprime(a, b):
                    continue
                da, db = RayClassGroup(a).degree, RayClassGroup(b).degree
                dab = RayClassGroup(a * b).degree
                assert dab % da == 0 and dab % db == 0
                assert (da * db * tag.num_units) % dab == 0


class TestArtinSymbol:
    def test_identity_in_trivial_group(self):
        K1 = field(1)
        assert artin_symbol(OkElement(K1, 2, 1), K1.from_int(3)).is_identity()

    def test_order_in_degree_29_group(self):
        K43 = field(43)
        cls = artin_symbol(OkElement(K43, 3, 2), K43.from_int(2))
        assert cls.order() in (1, 29)
        assert cls.order() == 29   # 2 generates: 29 is prime and 2 is not a 58th power residue

    def test_kernel_of_reduction(self):
        K43 = field(43)
        m = OkElement(K43, 3, 2)
        lam = K43.one() + m * K43.from_int(3)   # = 1 mod m
        assert artin_symbol(m, lam).is_identity()

    def test_multiplicative(self):
        rng = random.Random(31)
        for tag in (field(43), field(7), field(1)):
            m = OkElement(tag, 3, 2) if tag.d == 43 else OkElement(tag, 7, -2) if tag.d == 7 else OkElement(tag, 5, 2)
            g = RayClassGroup(m)
            pool = []
            for _ in range(200):
                e = OkElement(tag, rng.randint(-40, 40), rng.randint(-40, 40))
                if not e.is_zero() and not e.is_unit() and g.units.is_unit(e):
                    pool.append(e)
                if len(pool) >= 30:
                    break
            for a, b in zip(pool[::2], pool[1::2]):
                assert g.class_of(a * b).coords == (g.class_of(a) * g.class_of(b)).coords

    def test_symbols_of_one_modulus_multiply(self):
        # the docstring promises multiplicativity in lam across calls
        K43 = field(43)
        m = OkElement(K43, 3, 2)
        prod = artin_symbol(m, K43.from_int(2)) * artin_symbol(m, K43.from_int(5))
        assert prod.coords == artin_symbol(m, K43.from_int(10)).coords
        # groups built separately for the same modulus (up to a unit) agree
        a = RayClassGroup(m).class_of(K43.from_int(2))
        b = RayClassGroup(-m).class_of(K43.from_int(5))
        assert (a * b).coords == prod.coords
        with pytest.raises(GroupError):
            a * RayClassGroup(m.conj()).class_of(K43.from_int(5))

    def test_classes_compare_by_modulus_and_coords(self):
        K43 = field(43)
        m = OkElement(K43, 3, 2)
        a = artin_symbol(m, K43.from_int(2))
        for b in (RayClassGroup(m).class_of(K43.from_int(2)),
                  RayClassGroup(-m).class_of(K43.from_int(2))):
            assert a == b and hash(a) == hash(b)
        assert len({a, RayClassGroup(m).class_of(K43.from_int(2))}) == 1
        # the same coords in the group of another modulus are another class
        other = RayClassGroup(m.conj())
        assert other.presentation.invariants == a.group.presentation.invariants
        assert RayClassElement(other, a.coords) != a

    def test_non_coprime_rejected(self):
        K1 = field(1)
        with pytest.raises(OkError):
            artin_symbol(OkElement(K1, 2, 1), K1.from_int(5))

    def test_unit_rejected(self):
        K1 = field(1)
        with pytest.raises(OkError):
            artin_symbol(OkElement(K1, 2, 1), K1.from_int(-1))


class TestLcmDegree:
    def test_examples(self):
        K1, K43, K7 = field(1), field(43), field(7)
        assert lcm_degree_check(OkElement(K1, 2, 1), OkElement(K1, 2, -1), 7) == (True, True, True)
        assert lcm_degree_check(OkElement(K43, 3, 2), OkElement(K43, 3, 2).conj(), 5) == (True, True, True)
        assert lcm_degree_check(OkElement(K7, 7, -2), OkElement(K7, 7, -2), 3) == (False, False, False)

    def test_lcm_ideal(self):
        K1 = field(1)
        a = OkElement(K1, 2, 1) ** 2 * K1.from_int(3)
        b = OkElement(K1, 2, 1) * K1.from_int(7)
        l = lcm_ideal(a, b)
        assert l == canonical_associate(OkElement(K1, 2, 1) ** 2 * K1.from_int(21))

    def test_implication_on_500_coprime_pairs(self):
        rng = random.Random(41)
        checked = 0
        while checked < 500:
            tag = ALL_TAGS[rng.randrange(9)]
            pool = [e for e in elements_up_to_norm(tag, 60) if e.norm() > 1]
            a, b = rng.sample(pool, 2)
            if not is_coprime(a, b):
                continue
            p = rng.choice([5, 7, 11, 13])
            fa, fb, fl = lcm_degree_check(a, b, p)
            if fa and fb:
                assert fl, (tag.d, str(a), str(b), p)
            checked += 1

    def test_implication_on_table_moduli(self):
        table = [(1, (2, 1)), (2, (1, -1)), (7, (7, -2)), (11, (0, -1)),
                 (19, (1, 1)), (43, (3, 2)), (67, (3, 2)), (163, (3, 2))]
        for (d1, c1) in table:
            a = OkElement(field(d1), *c1)
            for p in (5, 7, 29, 41):
                fa, fb, fl = lcm_degree_check(a, a.conj(), p)
                if fa and fb:
                    assert fl, (d1, p)

    def test_documented_small_p_counterexample(self):
        # for p dividing the unit count the mu_K-quotient can break the
        # implication: conjugate norm-7 primes of Q(sqrt(-3)) at p = 3
        K3 = field(3)
        a = OkElement(K3, 1, 2)
        res = lcm_degree_check(a, a.conj(), 3)
        assert res == (True, True, False)


class TestAnticyclotomicTower:
    def test_level_zero_trivial(self):
        tw = anticyclotomic_tower(field(1), 5, 0)
        assert tw.levels[0].order == 1

    def test_d1_q5_depth2(self):
        tw = anticyclotomic_tower(field(1), 5, 2)
        assert [lv.order for lv in tw.levels] == [1, 5, 25]
        assert tw.levels[2].invariants == (25,)

    def test_d2_q11_depth1(self):
        tw = anticyclotomic_tower(field(2), 11, 1)
        assert [lv.order for lv in tw.levels] == [1, 11]

    def test_growth_three_smallest_split_q(self):
        for tag in ALL_TAGS:
            for q in smallest_split_primes(tag, 3):
                tw = anticyclotomic_tower(tag, q, 3)
                for lv in tw.levels:
                    assert lv.order == q ** lv.n, (tag.d, q, lv)
                    assert lv.layer_degree == (q if lv.n else 1)
                    if lv.n:
                        assert lv.invariants == (q ** lv.n,)

    def test_enumeration_oracle_d1_q5(self):
        # independent route: enumerate (O_K/5^3)^x outright, recover its
        # structure, and form the same minus quotient
        from iqtower.abgroup import QuotientPresentation, abelian_structure
        tag = field(1)
        modulus = tag.from_int(125)
        # units mod 5^3: avoid both primes above 5, cut out by the roots
        # s = 2, 3 of s^2 + 1 mod 5
        units = [r for r in residues_mod(modulus)
                 if (r.x + 2 * r.y) % 5 and (r.x + 3 * r.y) % 5]
        units = [reduce_mod(u, modulus) for u in units]
        assert len(units) == euler_phi(modulus)
        op = lambda a, b: reduce_mod(a * b, modulus)
        ident = reduce_mod(tag.one(), modulus)
        basis, orders, dlog = abelian_structure(units, op, ident)
        idx = [i for i, o in enumerate(orders) if o % 5 == 0]
        qparts = []
        sgens = []
        for i in idx:
            qp = 5 ** max(k for k in range(8) if orders[i] % 5 ** k == 0)
            qparts.append(qp)
            sgens.append(reduce_mod(basis[i] ** (orders[i] // qp), modulus))
        rels = []
        for h in sgens:
            v = dlog[reduce_mod(h * h.conj(), modulus)]
            rels.append([v[i] // (orders[i] // qp) % qp for i, qp in zip(idx, qparts)])
        pres = QuotientPresentation.from_relations(qparts, rels)
        fast = minus_quotient(modulus, 5)
        assert pres.order == fast.order == 25
        assert pres.invariants == fast.invariants == (25,)

    def test_enumeration_oracle_d2_q11(self):
        tag = field(2)
        modulus = tag.from_int(121)
        # roots of s^2 + 2 mod 11 are 3 and 8
        units = [reduce_mod(r, modulus) for r in residues_mod(modulus)
                 if (r.x + 3 * r.y) % 11 and (r.x + 8 * r.y) % 11]
        assert len(units) == euler_phi(modulus)
        fast = minus_quotient(modulus, 11)
        assert fast.order == 11 and fast.invariants == (11,)

    def test_preconditions(self):
        with pytest.raises(OkError):
            anticyclotomic_tower(field(1), 7, 1)   # 7 is inert in Q(i)
        with pytest.raises(OkError):
            anticyclotomic_tower(field(1), 3, 1)   # q must be >= 5


class TestCharacters:
    def test_trivial_group(self):
        chars = characters([])
        assert len(chars) == 1 and chars[0].order == 1

    def test_cyclic_29(self):
        assert len(characters([29], exact_order=29)) == 28

    def test_minus_quotient_25(self):
        assert len(characters([25], exact_order=25)) == 20

    def test_q_order_tags(self):
        chars = characters([75], q=5)
        orders = {c.exponents: (c.order, c.q_order) for c in chars}
        assert orders[(15,)] == (5, 5)
        assert orders[(3,)] == (25, 25)
        assert orders[(25,)] == (3, 1)

    def test_cap(self):
        with pytest.raises(GroupError):
            characters([10 ** 7], limit=10 ** 6)


class TestSerialization:
    def test_group_dict(self):
        g = ray_class_group(OkElement(field(43), 3, 2))
        d = g.to_dict()
        assert d == {"invariants": [29], "order": 29, "modulus": "d=43:4+1*w"}
