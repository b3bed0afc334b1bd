"""Seeded job lists for the three workloads, and the code that runs one job.

Inputs come from the benchmark's own arithmetic (Legendre symbols for
splitting, a norm-form search for prime elements), so the program under
test receives only finished argv lists or (p, q, m) triples.  The one
exception is the `lseries` character: its exponents are drawn against the
Smith invariants of the ray class group, which are read from the program.

Every workload is stratified, and what sets a job's cost is the same for
every seed: the moduli, discriminants, twist and tower parameters of
`groups`, the modulus and truncation bin of each `lseries` job, and the
residue triples.  The seed picks what leaves the work unchanged: the sign
of each modulus's generator, the `lseries` character, s and B inside its
bin, the `residue` field K, lambda, k and phi0, and the order of the jobs.
Drawing the costly inputs from the seed moved the median and
90th-percentile jobs by 10-18% between seeds, more than the machine's own
run-to-run noise.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random

FIELDS = (1, 2, 3, 7, 11, 19, 43, 67, 163)
ODD_PRIMES_TO_50 = tuple(n for n in range(3, 51) if all(n % k for k in range(2, n)))

# groups: inert and ramified prime powers of norm in [100, 1000], every
# second norm once per pass.  Larger factors take 2-13 s each, so a run
# could hold only one or two of them and few passes.
NONSPLIT_NORMS = (100, 1000)
# groups: split primes whose _SplitFactor root scan runs O(ell).
SPLIT_LARGE = (10 ** 4, 10 ** 6)
# lseries: truncation B spread over a decade, and the trivial-character B.
# At [500, 5000] one pass took 14 s; a run needs several passes.
LSERIES_B = (250, 2500)
TRIVIAL_B = 10 ** 6
# residue: every field F_{p^t} with p <= RESIDUE_P_MAX and t <= RESIDUE_T_MAX
# that is the splitting field of some q^m, q <= 50, m <= 3, gets one job.
RESIDUE_P_MAX = 13
RESIDUE_T_MAX = 64


# --------------------------------------------------------------------------
# arithmetic in O_K, independent of the program
# --------------------------------------------------------------------------

def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for k in range(2, math.isqrt(n) + 1):
        if n % k == 0:
            return False
    return True


def min_poly(d: int) -> tuple[int, int]:
    """(t, n) with omega^2 = t*omega - n."""
    return (1, (1 + d) // 4) if d % 4 == 3 else (0, d)


def discriminant(d: int) -> int:
    return -d if d % 4 == 3 else -4 * d


def split_kind(d: int, ell: int) -> str:
    disc = discriminant(d)
    if ell == 2:
        if disc % 2 == 0:
            return "ramified"
        return "split" if disc % 8 == 1 else "inert"
    if disc % ell == 0:
        return "ramified"
    return "split" if pow(disc % ell, (ell - 1) // 2, ell) == 1 else "inert"


def ok_mul(d: int, a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    t, n = min_poly(d)
    return (a[0] * b[0] - n * a[1] * b[1], a[0] * b[1] + a[1] * b[0] + t * a[1] * b[1])


def ok_pow(d: int, a: tuple[int, int], e: int) -> tuple[int, int]:
    out = (1, 0)
    for _ in range(e):
        out = ok_mul(d, out, a)
    return out


def ok_norm(d: int, a: tuple[int, int]) -> int:
    t, n = min_poly(d)
    return a[0] * a[0] + t * a[0] * a[1] + n * a[1] * a[1]


def ok_conj(d: int, a: tuple[int, int]) -> tuple[int, int]:
    t, _ = min_poly(d)
    return (a[0] + t * a[1], -a[1])


def element_text(a: tuple[int, int]) -> str:
    """The program's text form in omega coordinates, e.g. "3-2*o"."""
    return f"{a[0]}{'+' if a[1] >= 0 else '-'}{abs(a[1])}*o"


def _element_of_norm(d: int, target: int) -> tuple[int, int]:
    t, n = min_poly(d)
    for y in range(1, math.isqrt(4 * target // (4 * n - t * t)) + 1):
        disc = t * t * y * y - 4 * (n * y * y - target)
        r = math.isqrt(disc) if disc >= 0 else -1
        if r >= 0 and r * r == disc and (r - t * y) % 2 == 0:
            return ((r - t * y) // 2, y)
    raise ValueError(f"no element of norm {target} for d={d}")


def prime_element(d: int, ell: int, rng: random.Random) -> tuple[tuple[int, int], int]:
    """(generator, norm) of a prime above ell; for split ell, rng picks one
    of the two conjugates."""
    kind = split_kind(d, ell)
    if kind == "inert":
        return (ell, 0), ell * ell
    g = _element_of_norm(d, ell)
    if kind == "split" and rng.random() < 0.5:
        g = ok_conj(d, g)
    return g, ell


def _primes_between(lo: int, hi: int) -> list[int]:
    return [n for n in range(max(lo, 2), hi) if is_prime(n)]


def _balanced(items, n: int, rng: random.Random) -> list:
    """n picks in blocks of len(items), each block a permutation shuffled by
    rng, so that consecutive picks spread over all items."""
    out = []
    while len(out) < n:
        block = list(items)
        rng.shuffle(block)
        out.extend(block)
    return out[:n]


def _log_bins(lo: float, hi: float, n: int) -> list[tuple[float, float]]:
    r = math.log(hi / lo)
    return [(lo * math.exp(r * i / n), lo * math.exp(r * (i + 1) / n)) for i in range(n)]


def _nonsplit_powers(lo: int, hi: int) -> dict[int, list[tuple[int, int, int]]]:
    """norm -> [(d, ell, e)] for inert and ramified prime powers."""
    out: dict[int, list[tuple[int, int, int]]] = {}
    for d in FIELDS:
        for ell in _primes_between(2, hi + 1):
            kind = split_kind(d, ell)
            if kind == "split":
                continue
            base = ell * ell if kind == "inert" else ell
            e, norm = 1, base
            while norm <= hi:
                if norm >= lo:
                    out.setdefault(norm, []).append((d, ell, e))
                e, norm = e + 1, norm * base
    return out


class Modulus:
    """A modulus built from known prime powers."""

    def __init__(self, d: int):
        self.d = d
        self.factors: list[dict] = []     # one dict per prime power
        self.value = (1, 0)

    def times(self, gen: tuple[int, int], e: int, kind: str, prime_norm: int) -> "Modulus":
        self.factors.append({"gen": gen, "e": e, "kind": kind, "prime_norm": prime_norm,
                             "norm": prime_norm ** e})
        self.value = ok_mul(self.d, self.value, ok_pow(self.d, gen, e))
        return self

    def associate(self, rng: random.Random) -> "Modulus":
        """The same ideal, with its generator negated or not as the seed
        picks.  (The conjugate ideal would not do: the root scan of a split
        factor stops at a root whose place differs between conjugates, and
        one of a pair has cost seven times the other.)"""
        out = Modulus(self.d)
        out.factors, out.value = self.factors, self.value
        if rng.random() < 0.5:
            out.value = (-self.value[0], -self.value[1])
        return out

    @property
    def norm(self) -> int:
        return ok_norm(self.d, self.value)

    def meta(self) -> dict:
        return {"d": self.d, "modulus": list(self.value),
                "factors": [dict(f, gen=list(f["gen"])) for f in self.factors]}


def _split_part(d: int, rng: random.Random, max_norm: int, max_primes: int,
                ell_max: int) -> Modulus:
    """Product of 1..max_primes distinct split prime powers of total norm <= max_norm."""
    m = Modulus(d)
    pool = [ell for ell in _primes_between(2, ell_max + 1) if split_kind(d, ell) == "split"]
    rng.shuffle(pool)
    for ell in pool[:rng.randint(1, max_primes)]:
        if m.norm * ell > max_norm:
            continue
        gen, pn = prime_element(d, ell, rng)
        e = 1
        while rng.random() < 0.4 and m.norm * ell ** (e + 1) <= max_norm:
            e += 1
        m.times(gen, e, "split", pn)
    if not m.factors:
        gen, pn = prime_element(d, min(pool), rng)
        m.times(gen, 1, "split", pn)
    return m


def _two_split_primes(d: int, rng: random.Random, max_norm: int) -> Modulus:
    """Product of two distinct split primes of total norm <= max_norm.
    Always two: each prime of the modulus adds a Smith invariant, and a
    dlog costs more per invariant."""
    pool = [ell for ell in _primes_between(2, max_norm // 2 + 1) if split_kind(d, ell) == "split"]
    pairs = [(a, b) for a in pool for b in pool if a < b and a * b <= max_norm]
    m = Modulus(d)
    for ell in rng.choice(pairs):
        gen, pn = prime_element(d, ell, rng)
        m.times(gen, 1, "split", pn)
    return m


def _power_norm(choice: tuple[int, int, int]) -> int:
    d, ell, e = choice
    return (ell * ell if split_kind(d, ell) == "inert" else ell) ** e


def _with_nonsplit(m: Modulus, choice: tuple[int, int, int], rng: random.Random) -> Modulus:
    d, ell, e = choice
    gen, pn = prime_element(d, ell, rng)
    return m.times(gen, e, split_kind(d, ell), pn)


def _cli_job(stratum: str, argv: list[str], **meta) -> dict:
    return {"stratum": stratum, "argv": argv, "meta": meta}


def _rayclass_job(stratum: str, m: Modulus) -> dict:
    return _cli_job(stratum, ["rayclass", "--d", str(m.d), f"--modulus={element_text(m.value)}"],
                    **m.meta())


# --------------------------------------------------------------------------
# groups
# --------------------------------------------------------------------------

def _fundamental(disc: int) -> bool:
    def squarefree(n: int) -> bool:
        return all(n % (k * k) for k in range(2, math.isqrt(n) + 1))
    n = -disc
    if disc % 4 == 1:
        return squarefree(n)
    return disc % 4 == 0 and (n // 4) % 4 in (1, 2) and squarefree(n // 4)


def groups_jobs(seed: int) -> list[dict]:
    # The moduli, discriminants and twist and tower parameters are the same
    # for every seed: a job's cost depends on them (the field alone moves a
    # non-split factor's cost by 30%), and with seed-drawn ones the median and
    # 90th-percentile jobs moved by 10-18% between seeds.  The seed picks
    # the sign of each modulus's generator and the order of the jobs.
    rng = random.Random(f"groups/{seed}")
    shapes = random.Random("groups/shapes")
    moduli = []
    # split-only moduli with one large split prime, one per log bin of the norm
    for i, (lo, hi) in enumerate(_log_bins(*SPLIT_LARGE, 20)):
        d = FIELDS[i % len(FIELDS)]
        while True:
            ell = shapes.randrange(int(lo), int(hi))
            if is_prime(ell) and split_kind(d, ell) == "split":
                break
        gen, pn = prime_element(d, ell, shapes)
        moduli.append(("split_large", Modulus(d).times(gen, 1, "split", pn)))
    # split-only moduli built from small split primes
    for d in _balanced(FIELDS, 20, shapes):
        moduli.append(("split_small", _split_part(d, shapes, 10 ** 4, 3, 200)))
    # an inert or ramified prime power for every second norm
    powers = _nonsplit_powers(*NONSPLIT_NORMS)
    for norm in sorted(powers)[::2]:
        choice = shapes.choice(powers[norm])
        moduli.append(("nonsplit", _with_nonsplit(Modulus(choice[0]), choice, shapes)))
    # small non-split factor times a split part
    small = [c for cs in _nonsplit_powers(2, 100).values() for c in cs]
    for d in _balanced(FIELDS, 16, shapes):
        choice = shapes.choice([c for c in small if c[0] == d])
        m = _split_part(d, shapes, max(2000 // _power_norm(choice), 60), 2, 200)
        moduli.append(("mixed", _with_nonsplit(m, choice, shapes)))
    jobs = [_rayclass_job(stratum, m.associate(rng)) for stratum, m in moduli]
    for d in _balanced((43, 67, 163), 12, shapes):
        rb = shapes.randint(4, 24)
        jobs.append(_cli_job("cmsearch", ["cmsearch", "--d", str(d), "--rbound", str(rb)],
                             d=d, rbound=rb))
    for d in _balanced(FIELDS, 12, shapes):
        q = shapes.choice([q for q in _primes_between(5, 60) if split_kind(d, q) == "split"])
        jobs.append(_cli_job("tower", ["tower", "--d", str(d), "--q", str(q), "--depth", "4"],
                             d=d, q=q))
    for lo, hi in _log_bins(3, 10 ** 4, 20):
        while True:
            disc = -shapes.randrange(max(3, int(lo)), int(hi) + 1)
            if _fundamental(disc):
                break
        jobs.append(_cli_job("classgroup",
                             ["classgroup", "--disc", str(disc), "--S", "2", "3", "5"],
                             disc=disc))
    jobs.append(_cli_job("table2", ["table2"]))
    jobs.append(_cli_job("table2", ["table2", "--format", "csv"]))
    rng.shuffle(jobs)
    return jobs


# --------------------------------------------------------------------------
# lseries
# --------------------------------------------------------------------------

def _smith_invariants(m: Modulus) -> tuple[int, ...]:
    from iqtower.okring import OkElement, field
    from iqtower.rayclass import RayClassGroup
    return RayClassGroup(OkElement(field(m.d), *m.value)).presentation.invariants


def lseries_jobs(seed: int) -> list[dict]:
    rng = random.Random(f"lseries/{seed}")
    n_nontrivial = 54    # 6 per field, 18 per stratum
    small = _nonsplit_powers(2, 64)
    bounds = [int(math.sqrt(lo * hi)) for lo, hi in _log_bins(*LSERIES_B, n_nontrivial)]
    # Each B bin has the same field and modulus for every seed.  A job's
    # cost is mostly the ray class group's construction, which the modulus
    # sets (enumeration of a non-split factor, the root scan of a split
    # one), and the L-sums, which B and the field set; with seed-drawn
    # moduli the median job moved by 18% between seeds.  The seed picks B
    # inside its bin, the character, s, and the sign of each modulus's
    # generator.
    shapes = random.Random("lseries/moduli")
    fields = [FIELDS[i % len(FIELDS)] for i in range(n_nontrivial)]
    strata = [("split", "nonsplit", "mixed")[(i // len(FIELDS)) % 3] for i in range(n_nontrivial)]
    jobs = []
    for B, d, stratum in zip(bounds, fields, strata):
        B = rng.randint(int(B * 0.97), int(B * 1.03))
        own = [c for cs in small.values() for c in cs if c[0] == d]
        while True:
            if stratum == "split":
                m = _two_split_primes(d, shapes, 2500)
            elif stratum == "nonsplit":
                m = _with_nonsplit(Modulus(d), shapes.choice(own), shapes)
            else:
                choice = shapes.choice(own)
                cap = max(2500 // _power_norm(choice), 60)
                m = _with_nonsplit(_split_part(d, shapes, cap, 1, cap), choice, shapes)
            invariants = _smith_invariants(m)
            if invariants:
                break
        m = m.associate(rng)
        while True:
            exps = [rng.randrange(n) for n in invariants]
            if any(exps):
                break
        order = math.lcm(*(n // math.gcd(c, n) for c, n in zip(exps, invariants)))
        s = rng.choice(("1.5", "2", "3"))
        argv = ["lseries", "--d", str(d), f"--modulus={element_text(m.value)}", "--s", s,
                "--B", str(B), "--char", ",".join(map(str, exps))]
        jobs.append(_cli_job(stratum, argv, s=float(s), B=B, order=order, **m.meta()))
    for d in shapes.sample(FIELDS, 1):
        s = rng.choice(("1.5", "2", "3"))
        argv = ["lseries", "--d", str(d), "--modulus", "1", "--s", s, "--B", str(TRIVIAL_B)]
        jobs.append(_cli_job("trivial", argv, s=float(s), B=TRIVIAL_B, **Modulus(d).meta()))
    rng.shuffle(jobs)
    return jobs


# --------------------------------------------------------------------------
# residue
# --------------------------------------------------------------------------

def _mult_order(p: int, n: int, cap: int) -> int | None:
    acc = p % n
    for k in range(1, cap + 1):
        if acc == 1:
            return k
        acc = acc * p % n
    return None


def residue_fields() -> dict[tuple[int, int], list[tuple[int, int]]]:
    """(p, t) -> the (q, m) whose q^m-th roots of unity generate F_{p^t}."""
    out: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for p in ODD_PRIMES_TO_50:
        if p > RESIDUE_P_MAX:
            continue
        for q in ODD_PRIMES_TO_50:
            for m in (1, 2, 3):
                t = _mult_order(p, q ** m, RESIDUE_T_MAX) if q != p else None
                if t is not None:
                    out.setdefault((p, t), []).append((q, m))
    return out


def residue_jobs(seed: int) -> list[dict]:
    rng = random.Random(f"residue/{seed}")
    jobs = []
    for (p, t), realizers in sorted(residue_fields().items()):
        # the smallest q^m: a seed-picked q^m moved the median job by 10%
        q, m = min(realizers, key=lambda qm: qm[0] ** qm[1])
        d = rng.choice([d for d in FIELDS if split_kind(d, p) == "split"])
        # the program's embedding sends omega to this residue; lambda must
        # stay out of the prime it picks
        root = min(r for r in range(p) if (r * r + d) % p == 0)
        w = (1 + root) * pow(2, -1, p) % p if d % 4 == 3 else root
        while True:
            lam = (rng.randint(-30, 30), rng.randint(-30, 30))
            if (lam[0] + lam[1] * w) % p:
                break
        jobs.append({"stratum": f"t{t}", "meta": {
            "p": p, "q": q, "m": m, "t": t, "d": d, "lam": list(lam),
            "k": rng.randint(0, 6), "phi0": rng.randint(1, p - 1)}})
    rng.shuffle(jobs)
    return jobs


GENERATORS = {"groups": groups_jobs, "lseries": lseries_jobs, "residue": residue_jobs}


# --------------------------------------------------------------------------
# running one job
# --------------------------------------------------------------------------

def run_cli(argv: list[str]) -> str:
    """iqtower.cli.main in this process; returns stdout, raises on a non-zero exit."""
    from iqtower import cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:      # argparse exits on a rejected argv
            code = exc.code
    if code != 0:
        raise RuntimeError(f"exit code {code}: {err.getvalue().strip()}")
    return out.getvalue()


def run_residue(meta: dict) -> str:
    """distinctness_check, unity_image and compute_N1 through the library,
    as demos/05_nonvanishing.py does; returns the results as JSON text."""
    from iqtower import finitefield as ff
    from iqtower import lvaluation as lv
    from iqtower import okring
    p, q, m = meta["p"], meta["q"], meta["m"]
    distinct = lv.distinctness_check(p, q, m)
    z = lv.unity_image(p, q, m)
    tag = okring.field(meta["d"])
    emb = lv.ResidueEmbedding.create(tag, p)
    lam = okring.OkElement(tag, *meta["lam"])
    n1 = lv.compute_N1(emb, lam, meta["k"], ff.finite_field(p, 1).lift(meta["phi0"]), q)
    return json.dumps({"p": p, "q": q, "m": m, "distinct": distinct, "t": z.field.t,
                       "field_modulus": list(z.field.modulus), "zeta": list(z.coeffs),
                       "N1": n1}, sort_keys=True)


def run_job(workload: str, job: dict) -> str:
    if workload == "residue":
        return run_residue(job["meta"])
    return run_cli(job["argv"])
