"""Per-layer measurements taken from outside the program.

Spans: while a traced pass runs, each public function listed in SPANS is
replaced, in every iqtower module that holds it, by a wrapper that records
(name, start, end, parent, count).  The modules bind these functions by
name (`from .rayclass import RayClassGroup`), so patching only the
defining module would miss most calls.  Spans stay coarse; hot kernels
(multiply, reduce_mod, dlog, field multiply) are timed as batches by the
kernel functions below, on inputs taken from the workload.
"""

from __future__ import annotations

import importlib
import math
import os
import pkgutil
import random
import re
import statistics
import subprocess
import sys
import time

# (module, attribute, span name, counter from (args, result) or None,
#  record cache misses only)
SPANS = [
    ("iqtower.okring", "factor", "okring.factor", None, False),
    ("iqtower.okring", "primes_above", "okring.primes_above", None, True),
    ("iqtower.abgroup", "smith_normal_form", "abgroup.snf", None, False),
    ("iqtower.abgroup", "abelian_structure", "abgroup.abelian_structure",
     lambda args, result: len(args[0]), False),
    ("iqtower.classforms", "class_group", "classforms.class_group",
     lambda args, result: result.order, False),
    ("iqtower.cmsearch", "find_twist_candidates", "cmsearch.search",
     lambda args, result: len(result), False),
    ("iqtower.finitefield", "finite_field", "finitefield.build",
     lambda args, result: modulus_rank(result.p, result.t, result.modulus), True),
    ("iqtower.lvaluation", "distinctness_check", "lvaluation.distinctness", None, False),
    ("iqtower.lvaluation", "unity_image", "lvaluation.unity_image", None, False),
    ("iqtower.lvaluation", "compute_N1", "lvaluation.compute_N1", None, False),
    ("iqtower.lvaluation", "evaluate_imprimitive_L", "lvaluation.dirichlet", None, False),
    ("iqtower.lvaluation", "euler_product_L", "lvaluation.euler", None, False),
]
# constructors spanned by wrapping __init__ on the class itself
CONSTRUCTOR_SPANS = [
    ("iqtower.rayclass", "RayClassGroup", "rayclass.RayClassGroup"),
    ("iqtower.rayclass", "UnitGroup", "rayclass.UnitGroup"),
]
JOB_SPAN = "job"
KERNEL_REPEATS = 5


def modulus_rank(p: int, t: int, modulus: tuple[int, ...]) -> int:
    """Position of the modulus in finite_field's documented search order
    (constant term 1..p-1 first, then the other coefficients
    lexicographically): the number of candidates tried.  0 for t = 1,
    where no search runs."""
    if t == 1:
        return 0
    rank = modulus[0] - 1
    for c in modulus[1:]:
        rank = rank * p + c
    return rank + 1


def iqtower_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "iqtower" or name.startswith("iqtower."))]


def cache_clears() -> list:
    """The cache_clear of every functools cache in the package, with every
    module imported first.  Taken while no tracer is installed: the span
    wrappers hide cache_clear."""
    import iqtower
    for info in pkgutil.iter_modules(iqtower.__path__):
        importlib.import_module(f"iqtower.{info.name}")
    seen, out = set(), []
    for module in iqtower_modules():
        for value in vars(module).values():
            clear = getattr(value, "cache_clear", None)
            if callable(clear) and id(value) not in seen:
                seen.add(id(value))
                out.append(clear)
    return out


class Tracer:
    """Spans kept in memory: [name, start, end, parent index, count]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _wrap(self, name, fn, count, misses_only):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            idx = len(spans)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, 0]
            spans.append(rec)
            stack.append(idx)
            misses = fn.cache_info().misses if misses_only else 0
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if misses_only and fn.cache_info().misses == misses:
                del spans[idx]          # a cache hit; these functions open no spans
            elif count is not None:
                rec[4] = count(args, result)
            return result
        return wrapper

    def span(self, name, fn, *args):
        """Call fn(*args) inside a span of its own."""
        return self._wrap(name, fn, None, False)(*args)

    def install(self) -> None:
        modules = iqtower_modules()
        for module_name, attr, name, count, misses_only in SPANS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(name, original, count, misses_only)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, wrapper)
        for module_name, cls_name, name in CONSTRUCTOR_SPANS:
            cls = getattr(sys.modules[module_name], cls_name)
            original = cls.__init__
            self._patches.append((cls, "__init__", original))
            cls.__init__ = self._wrap(name, original, None, False)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()


def summarize(spans: list[list]) -> dict[str, dict]:
    """name -> {calls, ms (inclusive), self_ms, count}."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict] = {}
    for (name, start, end, _, count), inner in zip(spans, child_time):
        agg = out.setdefault(name, {"calls": 0, "ms": 0.0, "self_ms": 0.0, "count": 0})
        agg["calls"] += 1
        agg["ms"] += (end - start) * 1e3
        agg["self_ms"] += (end - start - inner) * 1e3
        agg["count"] += count
    return out


def slowest_job_breakdown(spans: list[list], share: float = 0.1) -> dict:
    """For the slowest `share` of job spans: their total ms, and the
    inclusive ms of every span name beneath them."""
    jobs = sorted((i for i, s in enumerate(spans) if s[0] == JOB_SPAN),
                  key=lambda i: spans[i][2] - spans[i][1], reverse=True)
    slow = set(jobs[:max(1, round(len(jobs) * share))])
    job_of = [-1] * len(spans)       # parents precede children in the list
    for i, (name, _, _, parent, _) in enumerate(spans):
        job_of[i] = i if name == JOB_SPAN else (job_of[parent] if parent >= 0 else -1)
    by_span: dict[str, float] = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        if job_of[i] in slow:
            by_span[name] = by_span.get(name, 0.0) + (end - start) * 1e3
    return {"jobs": len(slow), "ms": by_span.pop(JOB_SPAN, 0.0), "spans_ms": by_span}


# --------------------------------------------------------------------------
# work counts from the inputs
# --------------------------------------------------------------------------

def ideal_count(meta: dict) -> int:
    """Ideals of norm <= B coprime to the modulus: nonzero lattice points
    x + y*omega of norm <= B divisible by no prime of the modulus, over the
    number of units."""
    import numpy as np
    from workloads import min_poly
    d, bound = meta["d"], meta["B"]
    t, n = min_poly(d)
    units = 4 if d == 1 else 6 if d == 3 else 2
    primes = [(f["gen"], f["prime_norm"]) for f in meta["factors"]]
    total = 0
    ymax = math.isqrt(4 * bound // (4 * n - t * t)) + 1
    for y in range(-ymax, ymax + 1):
        disc = t * t * y * y - 4 * (n * y * y - bound)
        if disc < 0:
            continue
        r = math.isqrt(disc)
        xs = np.arange((-t * y - r) // 2 - 1, (-t * y + r) // 2 + 2, dtype=np.int64)
        norms = xs * xs + t * xs * y + n * y * y
        keep = (norms >= 1) & (norms <= bound)
        for (a, b), prime_norm in primes:
            # pi | alpha iff alpha * conj(pi) = 0 mod N(pi) in both coordinates
            ca, cb = a + t * b, -b
            u = xs * ca - n * y * cb
            v = xs * cb + y * ca + t * y * cb
            keep &= (u % prime_norm != 0) | (v % prime_norm != 0)
        total += int(keep.sum())
    return total // units


def prime_count(bound: int) -> int:
    """Rational primes <= bound: the Euler product's loop length."""
    import numpy as np
    sieve = np.ones(bound + 1, dtype=bool)
    sieve[:2] = False
    for k in range(2, math.isqrt(bound) + 1):
        if sieve[k]:
            sieve[k * k::k] = False
    return int(sieve.sum())


# --------------------------------------------------------------------------
# kernel batches
# --------------------------------------------------------------------------

def _per_op(fn, n_ops: int) -> float:
    """Median over KERNEL_REPEATS of seconds per operation of fn()."""
    times = []
    for _ in range(KERNEL_REPEATS):
        t0 = time.perf_counter()
        fn()
        times.append((time.perf_counter() - t0) / n_ops)
    return statistics.median(times)


def _jobs_by_modulus(jobs: list[dict]) -> dict[tuple, dict]:
    out = {}
    for job in jobs:
        meta = job["meta"]
        if "factors" in meta and meta["factors"]:
            out.setdefault((meta["d"], tuple(meta["modulus"])), meta)
    return out


def okring_mul_ns(workload: str, jobs: list[dict], seed: int) -> float:
    """ns per OkElement multiply over pairs of the workload's elements."""
    from iqtower.okring import OkElement, field
    by_field: dict[int, list] = {}
    for job in jobs:
        meta = job["meta"]
        if workload == "residue":
            coords = [meta["lam"]]
        else:
            coords = [f["gen"] for f in meta.get("factors", [])]
            coords += [meta["modulus"]] if coords else []
        for c in coords:
            if c != [1, 0]:
                by_field.setdefault(meta["d"], []).append(OkElement(field(meta["d"]), *c))
    pairs = []
    for elts in by_field.values():
        pairs.extend(zip(elts, elts[1:] + elts[:1]))
    pairs = (pairs * (4000 // max(len(pairs), 1) + 1))[:4000]

    def batch():
        for a, b in pairs:
            a * b
    return _per_op(batch, len(pairs)) * 1e9 if pairs else 0.0


def reduce_mod_us(jobs: list[dict], seed: int) -> float:
    """µs per reduce_mod of products of random elements, modulo the
    workload's moduli."""
    from iqtower.okring import OkElement, field
    from iqtower.rayclass import reduce_mod
    rng = random.Random(f"reduce_mod/{seed}")
    work = []
    for (d, coords), meta in sorted(_jobs_by_modulus(jobs).items()):
        tag = field(d)
        h = OkElement(tag, *coords)
        span = h.norm()
        for _ in range(40):
            a = OkElement(tag, rng.randint(-span, span), rng.randint(-span, span))
            b = OkElement(tag, rng.randint(-span, span), rng.randint(-span, span))
            work.append((a * b, h))

    def batch():
        for e, h in work:
            reduce_mod(e, h)
    return _per_op(batch, len(work)) * 1e6 if work else 0.0


def dlog_us(workload: str, jobs: list[dict]) -> float:
    """µs per ideal_class_coords on small-norm ideals coprime to the moduli
    of the lseries jobs, as their L-sums visit them."""
    if workload != "lseries":
        return 0.0
    from iqtower.okring import elements_up_to_norm, field, OkElement
    from iqtower.rayclass import RayClassGroup
    work = []
    for (d, coords), meta in sorted(_jobs_by_modulus(jobs).items())[:12]:
        tag = field(d)
        group = RayClassGroup(OkElement(tag, *coords))
        ideals = [e for e in elements_up_to_norm(tag, 400) if group.units.is_unit(e)]
        work.extend((group, e) for e in ideals[:150])

    def batch():
        for group, e in work:
            group.ideal_class_coords(e)
    return _per_op(batch, len(work)) * 1e6 if work else 0.0


FF_NUMPY_DEGREE = 48


def field_mul_us(workload: str, jobs: list[dict], seed: int) -> tuple[float, float]:
    """µs per multiply in the workload's residue fields with t <= 48 and t > 48."""
    if workload != "residue":
        return 0.0, 0.0
    from iqtower.finitefield import finite_field
    rng = random.Random(f"field_mul/{seed}")
    fields = sorted({(j["meta"]["p"], j["meta"]["t"]) for j in jobs if j["meta"]["t"] > 1})
    out = []
    for small in (True, False):
        chosen = [f for f in fields if (f[1] <= FF_NUMPY_DEGREE) == small]
        chosen = chosen[-6:]         # the largest degrees of each side
        work = []
        for p, t in chosen:
            F = finite_field(p, t)
            for _ in range(60):
                a = F.element([rng.randrange(p) for _ in range(t)])
                b = F.element([rng.randrange(p) for _ in range(t)])
                work.append((a, b))

        def batch():
            for a, b in work:
                a * b
        out.append(_per_op(batch, len(work)) * 1e6 if work else 0.0)
    return out[0], out[1]


def unit_groups(jobs: list[dict]) -> dict[str, float]:
    """UnitGroup(p^e) called directly on every distinct prime-power factor
    of the workload's moduli, split factors apart from the rest."""
    from iqtower.okring import OkElement, field
    from iqtower.rayclass import UnitGroup
    factors = {}
    for job in jobs:
        meta = job["meta"]
        for f in meta.get("factors", []):
            factors[(meta["d"], tuple(f["gen"]), f["e"])] = f
    out = {"split.calls": 0, "split.ms": 0.0, "nonsplit.calls": 0, "nonsplit.ms": 0.0,
           "nonsplit.residues": 0}
    for (d, gen, e), f in sorted(factors.items()):
        modulus = OkElement(field(d), *gen) ** e
        t0 = time.perf_counter()
        UnitGroup(modulus)
        ms = (time.perf_counter() - t0) * 1e3
        side = "split" if f["kind"] == "split" else "nonsplit"
        out[side + ".calls"] += 1
        out[side + ".ms"] += ms
        if side == "nonsplit":
            out["nonsplit.residues"] += f["norm"]
    return out


# --------------------------------------------------------------------------
# import time of a fresh interpreter
# --------------------------------------------------------------------------

_IMPORTTIME = re.compile(r"import time:\s*(\d+)\s*\|\s*(\d+)\s*\|\s*(\S.*)$")


def import_times_ms(src: str, repeats: int = 3) -> dict[str, float]:
    """Cumulative import ms of sympy and of iqtower (which includes sympy and
    numpy) from `python -X importtime`, median over fresh interpreters."""
    env = dict(os.environ, PYTHONPATH=src)
    samples: dict[str, list[float]] = {"sympy": [], "iqtower": []}
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import iqtower"],
                              env=env, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"importing iqtower failed: {proc.stderr[-500:]}")
        for line in proc.stderr.splitlines():
            m = _IMPORTTIME.match(line)
            if m and m.group(3).strip() in samples:
                samples[m.group(3).strip()].append(int(m.group(2)) / 1e3)
    return {k: statistics.median(v) for k, v in samples.items()}
