import itertools
import random

import pytest
from sympy import factorint, primerange

from iqtower.abgroup import QuotientPresentation, _pow
from iqtower.classforms import (FormError, QuadForm, class_group, p_rank,
                                prime_form, principal_form, reduced_forms,
                                s_class_group)

from oracles import (is_reduced, minkowski_class_number, scanned_prime_form, sylow_structure,
                     united_form_compose)


def _valid_discs(limit):
    return [d for d in range(-3, -limit - 1, -1) if d % 4 in (0, 1)]


def _op(f, g):
    return (f * g).reduced()


def _closure(gens, e) -> set:
    """The subgroup generated by gens, by multiplying out until stable."""
    sub, frontier = {e}, [e]
    while frontier:
        new = [_op(h, g) for h in frontier for g in gens]
        frontier = [x for x in new if x not in sub]
        sub.update(frontier)
    return sub


def _prime_forms(disc, S) -> list:
    return [f for f in (prime_form(disc, ell) for ell in S) if f is not None]


def _has_exact_orders(structure, sub, e) -> bool:
    """Each generator's order modulo the subgroup sub is its invariant."""
    for g, n in zip(structure.generators, structure.invariants):
        if _pow(g, n, _op, e) not in sub:
            return False
        if any(_pow(g, n // r, _op, e) in sub for r in factorint(n)):
            return False
    return True


class TestQuadForm:
    def test_reduction_invariants(self):
        rng = random.Random(2)
        for _ in range(200):
            a = rng.randint(1, 30)
            b = rng.randint(-30, 30)
            cmin = (b * b + 4 * a) // (4 * a) + 1
            c = rng.randint(cmin, cmin + 30)
            f = QuadForm(a, b, c)
            r = f.reduced()
            assert is_reduced(r)
            assert r.discriminant() == f.discriminant()

    def test_invalid_rejected(self):
        with pytest.raises(FormError):
            QuadForm(-1, 0, 1)
        with pytest.raises(FormError):
            QuadForm(1, 5, 1)   # positive discriminant

    def test_imprimitive_composition_rejected(self):
        # Algorithm 5.4.7 would return (1, 2, 4), a form with no class meaning
        with pytest.raises(FormError, match="primitive"):
            QuadForm(2, 2, 2) * QuadForm(2, 2, 2)
        with pytest.raises(FormError, match="primitive"):
            QuadForm(1, 0, 3) * QuadForm(2, 2, 2)


class TestClosedFormulas:
    """Cohen's composition and the square-root prime form against the
    united-form and scanning oracles."""

    def test_reduced_products_match_united_forms(self):
        pairs = 0
        for disc in _valid_discs(1000):
            forms = reduced_forms(disc)
            for f, g in itertools.product(forms, repeat=2):
                assert (f * g).reduced() == united_form_compose(f, g).reduced(), (f, g)
                pairs += 1
        assert pairs == 58231

    def test_prime_form_matches_scan(self):
        for disc in _valid_discs(1500):
            for ell in primerange(2, 200):
                assert prime_form(disc, ell) == scanned_prime_form(disc, ell), (disc, ell)

    @pytest.mark.parametrize("ell", [0, 1, 4, 6, 91, -2, -5])
    def test_non_primes_rejected(self, ell):
        with pytest.raises(FormError, match="not a prime"):
            prime_form(-471, ell)
        with pytest.raises(FormError, match="not a prime"):
            s_class_group(-471, [2, ell])


class TestClassGroup:
    def test_h_examples(self):
        assert class_group(-4).order == 1
        g23 = class_group(-23)
        assert g23.order == 3 and g23.structure.invariants == (3,)
        g47 = class_group(-47)
        assert g47.order == 5 and g47.structure.invariants == (5,)

    def test_reduced_form_listing(self):
        forms = reduced_forms(-23)
        assert forms == [QuadForm(1, 1, 6), QuadForm(2, -1, 3), QuadForm(2, 1, 3)]

    def test_invalid_disc(self):
        with pytest.raises(FormError):
            class_group(-6)
        with pytest.raises(FormError):
            class_group(4)

    def test_group_laws_exhaustive_small(self):
        for disc in _valid_discs(120):
            G = class_group(disc)
            forms = G.forms
            e = principal_form(disc)
            for f in forms:
                assert (f * e).reduced() == f
                assert (f * f.inverse()).reduced() == e
            for f, g in itertools.product(forms, repeat=2):
                fg = (f * g).reduced()
                assert fg in forms
                assert fg == (g * f).reduced()
            for f, g, h in itertools.product(forms, repeat=3):
                assert ((f * g).reduced() * h).reduced() == (f * (g * h).reduced()).reduced()

    def test_minkowski_oracle_sample(self):
        for disc in (-23, -47, -71, -163, -231, -420, -555, -1051, -1999):
            assert class_group(disc).order == minkowski_class_number(disc), disc

    def test_nonfundamental_accepted(self):
        # disc -12 = 4 * (-3): one class
        g = class_group(-12)
        assert g.order == 1
        g48 = class_group(-48)
        assert g48.order == 2


class TestRelationWalk:
    """The relation walk against the Sylow-counting oracle, and its
    generators and discrete logs against the group law itself."""

    def test_invariants_match_sylow_oracle(self):
        for disc in _valid_discs(2000):
            G = class_group(disc)
            _, orders, _ = sylow_structure(list(G.forms), _op, principal_form(disc))
            expected = QuotientPresentation.from_relations(orders, []).invariants
            assert G.structure.invariants == expected, disc

    def test_dlog_is_a_bijective_homomorphism(self):
        for disc in _valid_discs(300):
            G = class_group(disc)
            invs = G.structure.invariants
            coords = {f: G.dlog(f) for f in G.forms}
            assert len(set(coords.values())) == G.order
            assert all(0 <= c < n for v in coords.values() for c, n in zip(v, invs))
            for i, g in enumerate(G.structure.generators):
                assert G.dlog(g) == tuple(int(i == j) for j in range(len(invs)))
            for f, g in itertools.product(G.forms, repeat=2):
                assert G.dlog(f * g) == tuple((a + b) % n for a, b, n
                                              in zip(coords[f], coords[g], invs)), (disc, f, g)

    def test_generators_have_exactly_their_orders(self):
        for disc in _valid_discs(1000):
            G = class_group(disc)
            e = principal_form(disc)
            assert _has_exact_orders(G.structure, {e}, e), disc
            for S in ([2], [3, 5], [2, 3, 5, 7]):
                sub = _closure(_prime_forms(disc, S), e)
                assert _has_exact_orders(s_class_group(disc, S).structure, sub, e), (disc, S)

    def test_s_class_order_is_index_of_prime_form_closure(self):
        for disc in _valid_discs(1000):
            h = class_group(disc).order
            e = principal_form(disc)
            for S in ([2], [3], [2, 3], [2, 3, 5, 7], [13]):
                sub = _closure(_prime_forms(disc, S), e)
                assert s_class_group(disc, S).order * len(sub) == h, (disc, S)


class TestSClassGroup:
    def test_examples(self):
        assert s_class_group(-23, [2]).order == 1
        assert s_class_group(-23, []).order == 3
        assert s_class_group(-4, [2, 3, 5]).order == 1

    def test_inert_primes_contribute_nothing(self):
        # 5 is inert for disc -23 (kronecker(-23, 5) = -1)
        assert prime_form(-23, 5) is None
        assert s_class_group(-23, [5]).order == 3

    def test_order_divides_h(self):
        for disc in (-23, -47, -71, -231, -479):
            h = class_group(disc).order
            for S in ([2], [3], [2, 3], [2, 3, 5, 7]):
                assert h % s_class_group(disc, S).order == 0

    def test_rank_gap_bounded_by_split_primes(self):
        # |r_p(Cl) - r_p(Cl_S)| <= 2 |S_f| on computed instances
        for disc in (-231, -420, -479, -1051):
            G = class_group(disc)
            for S in ([2], [2, 3], [2, 3, 5]):
                sg = s_class_group(disc, S)
                for p in (2, 3, 5, 7):
                    gap = abs(p_rank(G.structure, p) - p_rank(sg.structure, p))
                    assert gap <= 2 * len(S)


class TestPRank:
    def test_examples(self):
        assert p_rank([3], 3) == 1
        assert p_rank([2, 6, 12], 2) == 3
        assert p_rank([2, 6, 12], 3) == 2
        assert p_rank([], 5) == 0

    def test_structure_argument(self):
        g = class_group(-3299)   # Z/3 x Z/9
        assert g.structure.invariants == (3, 9)
        assert p_rank(g.structure, 3) == 2
