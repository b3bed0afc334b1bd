import random
import time
import tracemalloc
from math import gcd, prod

import numpy as np
import pytest
from sympy import factorint, primerange

from iqtower import rayclass
from iqtower.abgroup import GroupError, QuotientPresentation, _pow, coords_order, padic_val
from iqtower.classforms import class_group
from iqtower.okring import (CLASS_NUMBER_ONE_DS, OkElement, OkError,
                            canonical_associate, elements_up_to_norm, field,
                            omega_residue, primes_above, smallest_split_primes,
                            split_type)
from iqtower.rayclass import (LOG_TABLE_BLOCK, RayClassElement, RayClassGroup, UnitGroup,
                              _Factor, anticyclotomic_tower,
                              artin_symbol, characters, euler_phi,
                              lcm_degree_check, lcm_ideal, minus_quotient,
                              ray_class_group, reduce_mod, unit_group_structure)

from oracles import (ReferenceSplitFactor, brute_euler_phi, brute_ray_degree,
                     brute_torsion_counts, crt_lifted_gens, is_coprime, mu_image_order,
                     residues_mod, scattered_log_table, sylow_structure,
                     tower_by_layer_kernels)

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


class TestGeneratorsOnDemand:
    def test_gens_equal_eagerly_lifted_gens(self):
        """The generators realised through power_word are the residues of
        lifting each factor generator by its reduced CRT idempotent, for
        every modulus of norm <= 300 in the nine fields."""
        count = 0
        for tag in ALL_TAGS:
            for m in elements_up_to_norm(tag, 300):
                U = UnitGroup(m)
                assert U.gens == crt_lifted_gens(U), (tag.d, str(m))
                count += 1
        assert count == 1946

    def test_ray_class_group_realises_no_generator(self, monkeypatch):
        calls = []
        reduce, power_word = rayclass.reduce_mod, UnitGroup.power_word

        def counted_reduce(e, modulus):
            calls.append("reduce_mod")
            return reduce(e, modulus)

        def counted_power_word(self, exponents):
            calls.append("power_word")
            return power_word(self, exponents)
        monkeypatch.setattr(rayclass, "reduce_mod", counted_reduce)
        monkeypatch.setattr(UnitGroup, "power_word", counted_power_word)
        K1, K2 = field(1), field(2)
        # a split square times an inert prime, every prime kind at once, a
        # split cube times an inert prime, and the unit modulus
        groups = [RayClassGroup(m) for m in (
            OkElement(K1, 35, -12) * K1.from_int(3), K1.from_int(2 * 3 * 5 * 7) ** 2,
            OkElement(K2, 3, 1) ** 3 * K2.from_int(5), K1.one())]
        assert calls == []
        # reading a structure realises its generators, one reduction each
        k = len(groups[1].structure.generators)
        assert k > 0 and calls == ["power_word", "reduce_mod"] * k


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
        """Every unit of every factor, as in TestSplitFactors: the words are
        walked with one product per unit, and dlog(power_word(v)) == v for
        all phi(p^e) words v makes the two maps inverse bijections."""
        total = 0
        for p, e in NONSPLIT_POWERS:
            U = UnitGroup(p.generator ** e)
            words = list(_every_word(U))
            for vec, x in words:
                assert tuple(U.dlog(x)) == vec, (str(p), e, vec)
            _assert_dlogs_rows_are_words(U, words)
            assert len(words) == U.order == euler_phi(U.modulus)
            total += len(words)
        assert total == 58188

    def test_non_unit_rejected(self):
        K2 = field(2)
        U = UnitGroup(K2.from_int(5) ** 2)
        with pytest.raises(GroupError):
            U.dlog(K2.from_int(10))

    def test_non_unit_rejected_by_dlogs(self):
        # one non-unit among units, at an inert and at a split prime power
        K1, K2 = field(1), field(2)
        for m, bad in ((K2.from_int(5) ** 2, (10, 0)), (OkElement(K1, 2, 1) ** 2, (2, 1))):
            (f,) = UnitGroup(m).factors
            with pytest.raises(GroupError, match="not a unit"):
                f.dlogs(np.array([1, bad[0], 3]), np.array([0, bad[1], 0]))


def _split_powers(bound):
    """(p, e) for every split prime power l^e <= bound, one prime above each
    l in the first of the nine fields where l splits: the Pohlig-Hellman
    tables of a split factor depend only on l^e."""
    out = []
    for ell in primerange(2, bound + 1):
        p = next((p for tag in ALL_TAGS for p in primes_above(tag, ell)
                  if p.kind == "split"), None)
        e = 1
        while p is not None and ell ** e <= bound:
            out.append((p, e))
            e += 1
    return out


def _every_word(U):
    """(v, power_word(v)) for every exponent vector v of U, in lexicographic
    order, one multiplication per step."""
    def mul(a, b):
        return reduce_mod(a * b, U.modulus)

    def walk(i, prefix, x):
        if i == len(U.orders):
            yield prefix, x
            return
        for v in range(U.orders[i]):
            yield from walk(i + 1, prefix + (v,), x)
            x = mul(x, U.gens[i])
    yield from walk(0, (), reduce_mod(U.tag.one(), U.modulus))


def _assert_dlogs_rows_are_words(U, words):
    """Each factor's array dlogs, run once on all the units of an every-word
    sweep, against the power words: U has a single factor, so a row is the
    whole word, and the words come from products of the generators, which
    share no code with the filtration walk."""
    (f,) = U.factors
    rows = f.dlogs(np.array([x.x for _, x in words]), np.array([x.y for _, x in words]))
    assert rows.shape == (len(words), len(U.orders)), str(U.modulus)
    assert [tuple(r) for r in rows.tolist()] == [vec for vec, _ in words], str(U.modulus)


class TestSplitFactors:
    def test_dlog_inverts_power_word_on_every_unit(self):
        """dlog(power_word(v)) == v for every v is the every-unit sweep
        power_word(dlog(x)) == x, as both maps are between sets of size
        phi(p^e); walking the words costs one product per unit instead of
        one power_word."""
        powers = _split_powers(2000)
        assert len(powers) == 333      # all 303 primes l <= 2000 split somewhere
        for p, e in powers:
            U = UnitGroup(p.generator ** e)
            words = list(_every_word(U))
            for vec, x in words:
                assert tuple(U.dlog(x)) == vec, (str(p), e, vec)
            _assert_dlogs_rows_are_words(U, words)
            assert len(words) == U.order == euler_phi(U.modulus)

    def test_smith_invariants_equal_reference_factor(self):
        """The filtration factor and the closed-form reference factor give
        the same group at every split p^e with l^e <= 2000, and sampled units
        have the same order under both discrete logs."""
        rng = random.Random(11)
        for p, e in _split_powers(2000):
            U = UnitGroup(p.generator ** e)
            ref = ReferenceSplitFactor(p, e)
            assert (unit_group_structure(U.modulus).invariants
                    == QuotientPresentation.from_relations(ref.orders, []).invariants), (str(p), e)
            for _ in range(8):
                x = OkElement(p.tag, rng.randrange(ref.int_mod), rng.randrange(ref.int_mod))
                if U.is_unit(x):
                    assert (coords_order(U.dlog(x), U.orders)
                            == coords_order(ref.dlog(x), ref.orders)), (str(p), e, str(x))


class TestLogTable:
    """_Factor.dlogs gathers from a table of the factor's units up to
    LOG_TABLE_MAX residues and runs the scalar dlog once per distinct
    residue past it."""

    def test_fallback_rows_are_words(self, monkeypatch):
        # the every-word sweeps above check the table; here every factor of
        # norm <= 300 is past its reach
        monkeypatch.setattr(rayclass, "LOG_TABLE_MAX", 0)
        powers = [(p, e) for p, e in _split_powers(300) + NONSPLIT_POWERS
                  if p.norm() ** e <= 300]
        assert len(powers) == 170
        for p, e in powers:
            U = UnitGroup(p.generator ** e)
            assert U.factors[0]._log_table is None
            _assert_dlogs_rows_are_words(U, list(_every_word(U)))

    def test_fallback_runs_dlog_once_per_distinct_residue(self, monkeypatch):
        # 3^2 in Z[i], 3 inert, and the 10^12-norm split prime: entries
        # repeat residues mod the factor, as themselves and shifted by l^e
        tag = field(1)
        for m in (tag.from_int(3) ** 2, primes_above(tag, 1010523706733)[0].generator):
            (f,) = UnitGroup(m).factors
            monkeypatch.setattr(rayclass, "LOG_TABLE_MAX", f.int_mod - 1)
            seen = []

            def dlog(x, scalar=f.dlog):
                seen.append(x)
                return scalar(x)
            monkeypatch.setattr(f, "dlog", dlog)
            pairs = [(1, 1), (2, 5), (1, 1), (2 + f.int_mod, 5), (7, -f.int_mod), (7, 0)]
            xs, ys = (np.array(v, dtype=f.dtype) for v in zip(*pairs))
            rows = f.dlogs(xs, ys)
            assert f._log_table is None
            residues = [reduce_mod(OkElement(tag, x, y), f.modulus) for x, y in pairs]
            assert len(seen) == len(set(residues)) == 3, str(m)
            assert {reduce_mod(x, f.modulus) for x in seen} == set(residues), str(m)
            assert rows.tolist() == [f.dlog(OkElement(tag, x, y)) for x, y in pairs], str(m)

    @pytest.mark.parametrize("bound, blocks", [(3000, (None, "size")), (300, (7,)), (100, (1,))])
    def test_equals_scatter_oracle(self, monkeypatch, bound, blocks):
        # every prime-power factor of norm <= bound in the nine fields, its
        # table built in blocks of the default size, of the table's exact
        # size (one block, or two when a giant row is partial), and of 7 and
        # 1 positions, where the rows shrink to fit
        powers = [(p, e) for tag in ALL_TAGS for ell in primerange(2, bound + 1)
                  for p in primes_above(tag, ell) for e in range(1, bound.bit_length())
                  if p.norm() ** e <= bound]
        assert len(powers) == {3000: 4131, 300: 669, 100: 292}[bound]
        assert {(p.kind, e > 1) for p, e in powers} == {
            (kind, high) for kind in ("split", "inert", "ramified") for high in (False, True)}
        for p, e in powers:
            f = _Factor(p, e)
            want = scattered_log_table(f)
            for block in blocks:
                size = {None: LOG_TABLE_BLOCK, "size": p.norm() ** e}.get(block, block)
                monkeypatch.setattr(rayclass, "LOG_TABLE_BLOCK", size)
                assert np.array_equal(_Factor._log_table.func(f), want), (str(p), e, block)

    def test_table_memory(self):
        # the largest split prime of Z[i] under the CLI's norm cap: one int32
        # per residue, and blocks of at most LOG_TABLE_BLOCK units beside it
        f = UnitGroup(primes_above(field(1), 999961)[0].generator).factors[0]
        tracemalloc.start()
        try:
            table = f._log_table
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert table.dtype == np.int32 and len(table) == 999961
        assert np.array_equal(np.sort(table[table >= 0]), np.arange(999960))
        assert peak < 4 * 999961 + 2 ** 19, peak


def _scanned_root(p):
    """The image of omega at p by a linear scan over [0, l)."""
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
                        assert omega_residue(p.generator) == _scanned_root(p), (tag.d, str(p))
                        checked += 1
        assert checked > 2000

    def test_split_prime_powers_divide_omega_minus_residue(self):
        checked = 0
        for tag in ALL_TAGS:
            for ell in primerange(2, 2000):
                for p in primes_above(tag, ell):
                    e = 1
                    while p.kind == "split" and ell ** e <= 2000:
                        pe = p.generator ** e
                        s = omega_residue(pe)
                        assert 0 <= s < ell ** e
                        assert (tag.omega() - tag.from_int(s)).divide_exact(pe) is not None
                        checked += 1
                        e += 1
        assert checked > 2000

    def test_rejects_generators_with_a_common_factor(self):
        K1 = field(1)
        for g in (K1.from_int(3), OkElement(K1, 2, 4), K1.zero()):
            with pytest.raises(OkError):
                omega_residue(g)


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
                assert g.degree * mu_image_order(g.units) == euler_phi(m)

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
        with pytest.raises(OkError):
            lcm_ideal(a, K1.zero())

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

    def test_split_tables_leave_q_unfactored(self, monkeypatch):
        # a split factor of q^(n+1) has unit group order (q - 1) * q^n; the
        # Pohlig-Hellman tables factor q - 1 only, never a multiple of q
        q = 99998819
        args = []

        def recording(n, *rest, **kw):
            args.append(n)
            return factorint(n, *rest, **kw)

        monkeypatch.setattr("iqtower.rayclass.factorint", recording)
        tw = anticyclotomic_tower(field(2), q, 4)
        assert [lv.order for lv in tw.levels] == [q ** n for n in range(5)]
        assert q - 1 in args
        assert all(n % q for n in args), args

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
        basis, orders, dlog = sylow_structure(units, op, ident)
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

    def test_ring_class_group_oracle(self):
        """For h_K = 1, level n of the tower is the q-part of the ring class
        group of conductor q^(n+1), the form class group of discriminant
        D_K q^(2(n+1)) (Cox, Primes of the form x^2 + ny^2, Thm. 7.24);
        classforms shares no code with minus_quotient."""
        cases = 0
        for tag in ALL_TAGS:
            D = tag.discriminant
            for q in smallest_split_primes(tag, 2):
                n = 0
                while -D * q ** (2 * (n + 1)) <= 3 * 10 ** 6:
                    invs = class_group(D * q ** (2 * (n + 1))).structure.invariants
                    q_part = tuple(q ** padic_val(m, q) for m in invs if m % q == 0)
                    tower = anticyclotomic_tower(tag, q, n)
                    assert q_part == tower.levels[-1].invariants, (tag.d, q, n)
                    cases += 1
                    n += 1
        assert cases == 37

    def test_enumeration_oracle_d2_q11(self):
        tag = field(2)
        modulus = tag.from_int(121)
        # roots of s^2 + 2 mod 11 are 3 and 8
        units = [reduce_mod(r, modulus) for r in residues_mod(modulus)
                 if (r.x + 3 * r.y) % 11 and (r.x + 8 * r.y) % 11]
        assert len(units) == euler_phi(modulus)
        fast = minus_quotient(modulus, 11)
        assert fast.order == 11 and fast.invariants == (11,)

    def test_layers_equal_per_level_minus_quotients(self):
        """Each layer read off the unit group of q^5 against the minus
        quotient built at its own level, q^(n+1)."""
        for tag in ALL_TAGS:
            for q in smallest_split_primes(tag, 2):
                tw = anticyclotomic_tower(tag, q, 4)
                for lv in tw.levels:
                    pres = minus_quotient(tag.from_int(q) ** (lv.n + 1), q)
                    assert (lv.order, lv.invariants) == (pres.order, pres.invariants), \
                        (tag.d, q, lv.n)

    def test_layers_equal_layer_kernel_oracle(self):
        # every field and split prime 5 <= q < 100, at depth 4: each layer
        # against its own kernel logs and its own full Smith form
        pairs = 0
        for tag in ALL_TAGS:
            for q in primerange(5, 100):
                if split_type(tag, q) == "split":
                    assert list(anticyclotomic_tower(tag, q, 4).levels) == \
                        tower_by_layer_kernels(tag, q, 4), (tag.d, q)
                    pairs += 1
        assert pairs == 95

    def test_dlogs_and_layer_forms_do_not_grow_with_depth(self, monkeypatch):
        # a split q at depth >= 1: 2 dlogs for the minus relations of the two
        # q-primary generators and 2 for the kernel, 1 + q and 1 + q*omega;
        # at depth 0 the q-primary part is trivial and the kernel alone
        # takes its 2.  Every layer's Smith form has one row per invariant
        # of the minus quotient M, whose form is built just before them
        dlogs, forms = [], []
        dlog, from_relations = UnitGroup.dlog, QuotientPresentation.from_relations

        def recording_dlog(self, e):
            dlogs.append(e)
            return dlog(self, e)

        def recording_from_relations(cls, orders, extra):
            forms.append(from_relations(orders, extra))
            return forms[-1]
        monkeypatch.setattr(UnitGroup, "dlog", recording_dlog)
        monkeypatch.setattr(QuotientPresentation, "from_relations",
                            classmethod(recording_from_relations))
        for tag, q in ((field(1), 5), (field(2), 11), (field(7), 23)):
            for depth in range(5):
                dlogs.clear()
                forms.clear()
                anticyclotomic_tower(tag, q, depth)
                assert len(dlogs) == (4 if depth else 2), (tag.d, q, depth)
                assert dlogs[-2:] == [OkElement(tag, 1 + q, 0), OkElement(tag, 1, q)]
                minus, *layers = forms[-depth - 2:]
                assert len(minus.orders) == (2 if depth else 0)
                assert [len(pres.orders) for pres in layers] == \
                    [len(minus.invariants)] * (depth + 1), (tag.d, q, depth)

    def test_large_q_in_bounded_time_and_memory(self):
        # q - 1 = 2^2 * 6301 * 6311 * 6353: the q-part is read digit by
        # digit, so no table grows with q
        q = 1010523706733
        tracemalloc.start()
        try:
            start = time.perf_counter()
            tw = anticyclotomic_tower(field(1), q, 4)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [lv.order for lv in tw.levels] == [q ** n for n in range(5)]
        assert elapsed < 1.0, elapsed
        assert peak < 5 * 2 ** 20, peak

    def test_minus_quotient_rejects_unstable_modulus_first(self, monkeypatch):
        def no_unit_group(modulus):
            raise AssertionError("unit group built for a rejected modulus")

        monkeypatch.setattr("iqtower.rayclass.UnitGroup", no_unit_group)
        with pytest.raises(OkError, match="conjugation-stable"):
            minus_quotient(OkElement(field(1), 2, 1), 5)    # (2+i) is not (2-i)

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
