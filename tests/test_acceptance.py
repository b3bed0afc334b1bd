"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured numbers.  Tolerances and runtime caps are fixed here, not
tuned at run time.
"""

import itertools
import json
import math
import random
import time

from sympy import isprime, n_order, primerange

from iqtower.classforms import class_group, principal_form
from iqtower.cmsearch import curve_table, find_twist_candidates
from iqtower.finitefield import finite_field
from iqtower.lvaluation import (ResidueEmbedding, compute_N1,
                                distinctness_check, euler_factor_vanishes,
                                euler_product_L, evaluate_imprimitive_L,
                                unity_image)
from iqtower.okring import (CLASS_NUMBER_ONE_DS, OkElement, elements_up_to_norm,
                            field, smallest_split_primes)
from iqtower.rayclass import CharacterSpec, RayClassGroup, anticyclotomic_tower
from iqtower.selmerrank import (CofinPGroup, decomposition_counts,
                                fine_selmer_mod_p_rank, ingest_tower,
                                series_stabilization)

from oracles import (DISTINCT_POWERS_MAX_DEGREE, brute_ray_degree_fast,
                     distinct_unity_powers, lattice_zeta, minkowski_class_number)

EXPECTED_TABLE_DEGREES = {1: 1, 2: 1, 3: 6, 7: 21, 11: 1, 19: 3,
                          43: 29, 67: 41, 163: 89}


def _report(num, name, detail):
    print(f"ACCEPTANCE {num} ({name}): PASS - {detail}")


def test_criterion_1_table_reproduction():
    t0 = time.time()
    rows = {r.d: r for r in curve_table()}
    searched = {d: find_twist_candidates(field(d), 1)[0] for d in (43, 67, 163)}
    elapsed = time.time() - t0
    exact = sum(1 for d, want in EXPECTED_TABLE_DEGREES.items()
                if rows[d].degree == want)
    assert exact >= 8, f"only {exact} degrees match"
    assert exact == 9   # the d=19 row matches after the documented substitution
    for d, norm in ((43, 59), (67, 83), (163, 179)):
        c = searched[d]
        assert c.r == 1 and c.prime.norm() == norm and isprime(norm)
        assert rows[d].source == "searched"
    assert rows[19].flag, "d=19 must carry the discrepancy flag"
    assert elapsed < 5.0, f"table took {elapsed:.2f}s"
    _report(1, "table reproduction",
            f"degrees {[rows[d].degree for d in sorted(rows)]}, "
            f"d=19 flagged, searched norms prime, {elapsed:.2f}s < 5s")


def test_criterion_2_ray_class_oracle_equivalence():
    t0 = time.time()
    checked = 0
    for d in CLASS_NUMBER_ONE_DS:
        tag = field(d)
        for modulus in elements_up_to_norm(tag, 500):
            assert RayClassGroup(modulus).degree == brute_ray_degree_fast(modulus), \
                (d, str(modulus))
            checked += 1
    elapsed = time.time() - t0
    assert elapsed < 120.0, f"oracle sweep took {elapsed:.1f}s"
    _report(2, "ray-class oracle equivalence",
            f"{checked} moduli of norm <= 500 across 9 fields, 0 mismatches, "
            f"{elapsed:.1f}s < 120s")


def test_criterion_3_anticyclotomic_growth():
    t0 = time.time()
    towers = 0
    for d in CLASS_NUMBER_ONE_DS:
        tag = field(d)
        for q in smallest_split_primes(tag, 2):
            tower = anticyclotomic_tower(tag, q, 3)
            for lv in tower.levels:
                assert lv.order == q ** lv.n, (d, q, lv)
                if lv.n:
                    assert lv.invariants == (q ** lv.n,), (d, q, lv)
            towers += 1
    elapsed = time.time() - t0
    assert elapsed < 300.0, f"towers took {elapsed:.1f}s"
    _report(3, "anticyclotomic growth",
            f"{towers} towers (9 fields x 2 smallest split q >= 5), levels 0..3 "
            f"cyclic of order q^n, {elapsed:.1f}s < 300s")


def test_criterion_4_nonvanishing_machinery():
    # exhaustive distinctness for all odd p != q <= 50, m <= 3
    # (the theorem), and the q^m powers compared element by element wherever
    # ord(p mod q^m) <= DISTINCT_POWERS_MAX_DEGREE
    odd_primes = list(primerange(3, 51))
    pairs = compared = 0
    for p in odd_primes:
        for q in odd_primes:
            if p == q:
                continue
            for m in (1, 2, 3):
                assert distinctness_check(p, q, m), (p, q, m)
                pairs += 1
                if n_order(p, q ** m) <= DISTINCT_POWERS_MAX_DEGREE:
                    assert distinct_unity_powers(p, q, m), (p, q, m)
                    compared += 1

    # compute_N1 against brute-force character scans, 100 random instances
    rng = random.Random(1009)
    caps = {3: 5, 5: 3, 7: 2}
    fields_by_q = {3: [1, 2, 7, 11, 19], 5: [1, 11, 19], 7: [1, 2, 3]}
    done = 0
    while done < 100:
        q = rng.choice([3, 3, 3, 5, 5, 7])
        d = rng.choice(fields_by_q[q])
        tag = field(d)
        split = [p for p in smallest_split_primes(tag, 6, 5) if p != q and p <= 50]
        if not split:
            continue
        p = rng.choice(split)
        emb = ResidueEmbedding.create(tag, p)
        lam = OkElement(tag, rng.randint(-30, 30), rng.randint(-30, 30))
        if lam.is_zero() or emb.embed(lam) == 0:
            continue
        k = rng.randint(0, 6)
        phi0 = rng.randint(1, p - 1)
        n1 = compute_N1(emb, lam, k, finite_field(p, 1).lift(phi0), q)
        mcap = caps[q]
        observed = set()
        for m in range(0, mcap + 1):
            F = unity_image(p, q, m).field if m else finite_field(p, 1)
            phi = F.lift(phi0)
            acc = F.one()
            etas = [acc] if m == 0 else []
            if m:
                z = unity_image(p, q, m)
                for j in range(q ** m):
                    if j and j % q:
                        etas.append(acc)
                    acc = acc * z
            for eta in etas:
                if euler_factor_vanishes(emb, lam, k, phi, eta):
                    observed.add(m)
        expect = set() if n1 == 0 else ({n1 - 1} if n1 - 1 <= mcap else set())
        assert observed == expect, (d, p, q, k, phi0, n1, observed)
        done += 1
    _report(4, "non-vanishing machinery",
            f"{pairs} distinctness checks (odd p != q <= 50, m <= 3) all true, "
            f"{compared} of them compared element by element; "
            f"compute_N1 matched brute-force scans on {done} instances")


def test_criterion_5_ingestion_and_stabilization():
    # Direct recomputation of class numbers along the high-degree ray-class
    # towers is out of reach at desk scale, so the substituted property is:
    # the ingestion pipeline consumes externally supplied tower data and the
    # stabilization verdict agrees with a direct isomorphism check on
    # synthetic towers, including non-stabilizing negatives.
    import tempfile
    from pathlib import Path

    rng = random.Random(2027)
    agreements = 0
    negatives = 0
    with tempfile.TemporaryDirectory() as tmp:
        for trial in range(50):
            p = rng.choice([3, 5, 7])
            q = rng.choice([x for x in (2, 3, 5) if x != p])
            length = rng.randint(4, 8)
            stabilizing = trial % 10 < 7
            if stabilizing:
                stable = CofinPGroup(p, rng.randint(0, 2),
                                     tuple(sorted(p ** rng.randint(1, 2)
                                                  for _ in range(rng.randint(0, 2)))))
                n_star = rng.randint(0, length - 2)
                down = []
                cur = stable
                for _ in range(n_star):
                    if cur.torsion and rng.random() < 0.6:
                        t = list(cur.torsion)
                        t.pop()
                        cur = CofinPGroup(p, cur.corank, tuple(t))
                    else:
                        cur = CofinPGroup(p, max(0, cur.corank - 1), cur.torsion)
                    down.append(cur)
                models = list(reversed(down)) + [stable] * (length - len(down))
            else:
                negatives += 1
                models = [CofinPGroup(p, n, (p,) * (n % 3)) for n in range(length)]
            levels = [{"n": n, "s_f": 1, "r_cl": 0, "r_cls": 0,
                       "sel0": m.to_dict()} for n, m in enumerate(models)]
            path = Path(tmp) / f"tower{trial}.json"
            path.write_text(json.dumps(
                {"label": f"synthetic-{trial}", "q": q, "d": 1, "p": p,
                 "levels": levels}))
            series = ingest_tower(path)
            verdict = series_stabilization(series)

            # direct isomorphism check, written independently of the detector
            keys = [(m.corank, tuple(sorted(m.torsion))) for m in models]
            direct = None
            for start in range(len(keys) - 1):
                if all(k == keys[start] for k in keys[start:]):
                    direct = start
                    break
            assert verdict == direct, (trial, keys, verdict, direct)
            agreements += 1
    assert negatives >= 10
    _report(5, "ingestion + stabilization detection",
            f"{agreements}/50 synthetic towers agree with the direct isomorphism "
            f"check ({negatives} non-stabilizing negatives included)")


def test_criterion_6_rank_calculus():
    # Hom-rank identity on 200 random finite abelian p-groups
    rng = random.Random(3011)
    done = 0
    while done < 200:
        p = rng.choice([2, 3, 5])
        d = rng.choice([1, 2, 3])
        nparts = rng.randint(1, 3)
        if p ** (2 * d * nparts) > 5000:
            continue
        invs = tuple(p ** rng.randint(1, 3) for _ in range(nparts))
        target = list(itertools.product(*(range(p) for _ in range(2 * d))))
        hom_count = 0
        for images in itertools.product(target, repeat=nparts):
            assert all((n * c) % p == 0 for n, img in zip(invs, images) for c in img)
            hom_count += 1
        r_hom = 0
        while p ** (r_hom + 1) <= hom_count:
            r_hom += 1
        assert p ** r_hom == hom_count
        assert r_hom == fine_selmer_mod_p_rank(nparts, d)
        done += 1

    # rank lemma on 500 random four-term exact sequences
    rng = random.Random(3013)
    checked = 0
    while checked < 500:
        p = rng.choice([2, 3, 5])
        q_invs = tuple(p ** rng.randint(1, 2) for _ in range(rng.randint(1, 3)))
        r_invs = tuple(p ** rng.randint(1, 2) for _ in range(rng.randint(1, 3)))
        Q = list(itertools.product(*(range(n) for n in q_invs)))
        R = list(itertools.product(*(range(n) for n in r_invs)))
        if len(Q) > 512 or len(R) > 512:
            continue
        imgs = []
        for n in q_invs:
            cands = [r for r in R if all(n * c % m == 0 for c, m in zip(r, r_invs))]
            imgs.append(cands[rng.randrange(len(cands))])

        def f(x):
            return tuple(sum(xi * ci for xi, ci in zip(x, col)) % m
                         for col, m in zip(zip(*imgs), r_invs)) if imgs else ()

        zero_r = (0,) * len(r_invs)
        kernel = [x for x in Q if f(x) == zero_r]
        image = {f(x) for x in Q}

        def prank(els, invs_):
            c = sum(1 for x in els if all(p * a % n == 0 for a, n in zip(x, invs_)))
            r = 0
            while p ** (r + 1) <= c:
                r += 1
            assert p ** r == c
            return r

        junk_p, junk_s = rng.randint(0, 2), rng.randint(0, 2)
        rp_p = prank(kernel, q_invs) + junk_p
        pre = [r for r in R if tuple(p * a % n for a, n in zip(r, r_invs)) in image]
        quot = len(pre) // len(image)
        rp_s = 0
        while p ** (rp_s + 1) <= quot:
            rp_s += 1
        rp_s += junk_s
        gap = abs(prank(Q, q_invs) - prank(R, r_invs))
        assert gap <= 2 * rp_p + rp_s
        checked += 1

    # decomposition counts against the naive-order oracle
    counts = decomposition_counts(17, 3, 3)
    assert counts == [1, 3, 3, 3]
    for n in range(1, 4):
        mod = 3 ** (n + 1)
        j, acc = 1, 17 % mod
        while acc != 1:
            acc = acc * 17 % mod
            j += 1
        fpart = 1
        while j % 3 == 0:
            j //= 3
            fpart *= 3
        assert counts[n] == 3 ** n // fpart
    _report(6, "fine-Selmer rank calculus",
            "Hom-rank identity on 200 groups, rank lemma on 500 exact "
            "sequences, decomposition counts (17, 3) = [1,3,3,3]")


def _is_fundamental(disc):
    from sympy import factorint
    if disc % 4 == 1:
        return all(e == 1 for e in factorint(-disc).values())
    if disc % 4 == 0:
        m = disc // 4
        if m % 4 in (2, 3):
            return all(e == 1 for e in factorint(-m).values())
    return False


def test_criterion_7_form_class_groups():
    t0 = time.time()
    fundamental = [d for d in range(-3, -2001, -1)
                   if d % 4 in (0, 1) and _is_fundamental(d)]
    for disc in fundamental:
        assert class_group(disc).order == minkowski_class_number(disc), disc

    laws = 0
    for disc in range(-3, -501, -1):
        if disc % 4 not in (0, 1):
            continue
        G = class_group(disc)
        forms = G.forms
        e = principal_form(disc)
        for fm in forms:
            assert (fm * e).reduced() == fm
            assert (fm * fm.inverse()).reduced() == e
        for fm, gm in itertools.product(forms, repeat=2):
            assert (fm * gm).reduced() == (gm * fm).reduced()
        for fm, gm, hm in itertools.product(forms, repeat=3):
            assert ((fm * gm).reduced() * hm).reduced() == (fm * (gm * hm).reduced()).reduced()
            laws += 1
    elapsed = time.time() - t0
    assert elapsed < 120.0, f"form sweep took {elapsed:.1f}s"
    _report(7, "form class groups",
            f"h matches the Minkowski ideal oracle on {len(fundamental)} "
            f"fundamental discriminants to -2000; group laws exhaustive to "
            f"-500 ({laws} associativity triples), {elapsed:.1f}s < 120s")


def test_criterion_8_l_series():
    tag = field(1)
    chi = CharacterSpec((), 1)
    B = 10 ** 6
    vd = evaluate_imprimitive_L(tag, tag.one(), chi, 2.0, B)
    ve = euler_product_L(tag, tag.one(), chi, 2.0, B)
    oracle = lattice_zeta(1, 2.0, B)
    assert abs(vd.value - ve.value) <= vd.error_estimate + ve.error_estimate
    assert abs(vd.value - oracle) <= vd.error_estimate + 1e-9
    assert abs(vd.value - ve.value) < 1e-3
    assert abs(vd.value - oracle) < 1e-3
    assert abs(ve.value - oracle) < 1e-3
    truth = (math.pi ** 2 / 6) * 0.915965594177219015054
    assert abs(vd.value - truth) < 1e-3
    _report(8, "L-series agreement",
            f"zeta_Q(i)(2) at B=1e6: dirichlet {vd.value:.6f}, euler {ve.value:.6f}, "
            f"lattice oracle {oracle:.6f}; max pairwise gap "
            f"{max(abs(vd.value - ve.value), abs(vd.value - oracle)):.2e} < 1e-3")
