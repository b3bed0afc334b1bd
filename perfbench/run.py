#!/usr/bin/env python3
"""Benchmark for iqtower.

    python3 perfbench/run.py --workload groups --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --reference --seed 1

Run from the root of a checkout; the program is imported from ./src and
the correctness oracles from ./tests/oracles.py, with nothing installed.

A run is a closed loop: one client in one interpreter sends one job at a
time.  The seed fixes the job list (see workloads.py).  The list is run in
passes until the next pass would end past --seconds; at least three run.
Every job starts from empty functools caches, as a fresh CLI process
would, and after a timed calibration kernel that gives the machine's
speed during the pass (see calibrate()).  The last line of stdout is the
result object; a record of the run goes to perfbench/results/.  With
--trace 1, passes alternate untraced and traced, and the result holds the
per-layer metrics instead.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
SETUP_REPEATS = 5
MAX_REPORTED_FAILURES = 20
MIN_PASSES = 3
# The calibration kernel's median time between jobs on an idle 2-vCPU
# x86-64 virtual machine (CPython 3.11); see calibrate().
CAL_REF_S = 2.2e-3


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _check_tree() -> None:
    for rel in (os.path.join("src", "iqtower", "cli.py"), os.path.join("tests", "oracles.py")):
        if not os.path.isfile(os.path.join(ROOT, rel)):
            _fail(f"{rel} not found under {ROOT}; run from a checkout of the repository")


def measure_setup_s() -> float:
    """Seconds from starting a fresh interpreter until it has imported
    iqtower.cli (sympy and numpy included) and says it is ready; the median
    over SETUP_REPEATS interpreters."""
    env = dict(os.environ, PYTHONPATH=SRC)
    code = "import iqtower.cli; print('ready', flush=True)"
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", code], env=env, cwd=ROOT,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            samples.append(time.perf_counter() - t0)
        finally:
            _, err = proc.communicate(timeout=120)
        if line.strip() != "ready" or proc.returncode != 0:
            _fail(f"a fresh interpreter could not import iqtower: {err.strip()[-500:]}")
    return statistics.median(samples)


def calibration_kernel() -> int:
    """Fixed work like the program's: interpreted loops over small
    integers, tuples and a dict, then modular powers of 256-bit integers."""
    table, acc = {}, 0
    for i in range(4000):
        key = (i, i * i % 97)
        table[key[1]] = table.get(key[1], 0) + 1
        acc = (acc * 31 + (key[0] ^ key[1])) % 1000003
    base, modulus = 3 ** 160 + 7, 2 ** 255 - 19
    for i in range(60):
        acc ^= pow(base + i, 65537, modulus)
    return acc + len(table)


def calibrate() -> float:
    """Seconds the calibration kernel takes now.  On a shared host the
    speed a process gets moves by 15-30% within seconds, as other tenants
    come and go; timed before every job, the kernel shows how fast the
    machine ran during the pass, and each pass's times are scaled by
    CAL_REF_S over the kernel's median time in that pass.  The kernel does
    not touch the program, so a change to the program moves the scaled
    times as much as the raw ones.  Over 46 passes of `groups` and
    `lseries`, pass times moved with the kernel's to the power 0.9, and
    scaling left 5.5% of their spread (10.4% unscaled); the loop alone
    tracked them with power 0.72, the powers alone with 1.14."""
    t0 = time.perf_counter()
    calibration_kernel()
    return time.perf_counter() - t0


def run_pass(workload: str, jobs: list[dict], clears: list, tracer=None) -> dict:
    """One pass over the job list.  Every job starts with the package's
    functools caches empty, as a fresh CLI process has them, so a job's
    latency does not depend on the jobs the seed shuffled before it."""
    from tracing import JOB_SPAN
    from workloads import run_job
    outputs, errors, latencies, cal = [], [], [], []
    t_pass = time.perf_counter()
    for job in jobs:
        for clear in clears:
            clear()
        cal.append(calibrate())
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = run_job(workload, job)
            else:
                out = tracer.span(JOB_SPAN, run_job, workload, job)
            err = None
        except Exception as exc:       # a failing job is counted, not fatal
            out, err = None, f"{type(exc).__name__}: {exc}"
        latencies.append(time.perf_counter() - t0)
        outputs.append(out)
        errors.append(err)
    elapsed = time.perf_counter() - t_pass
    digest = hashlib.sha256()
    for out in outputs:
        digest.update((out if out is not None else "\0error").encode())
        digest.update(b"\0")
    return {"wall_s": sum(latencies), "elapsed_s": elapsed, "latencies": latencies,
            "scale": CAL_REF_S / statistics.median(cal), "outputs": outputs,
            "errors": errors, "digest": digest.hexdigest()}


def run_passes(workload: str, jobs: list[dict], seconds: float, traced: bool) -> list[dict]:
    """Passes until the next one would end past `seconds`, at least three.
    With `traced`, an untraced pass is followed by alternating traced and
    untraced passes; the first pass also pays one-off lazy imports, so the
    tracing overhead leaves it out."""
    from tracing import Tracer, cache_clears
    clears = cache_clears()
    passes: list[dict] = []
    start = time.perf_counter()
    while True:
        gc.collect()
        tracer = Tracer() if traced and len(passes) % 2 == 1 else None
        if tracer is not None:
            tracer.install()
        try:
            p = run_pass(workload, jobs, clears, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        p["tracer"] = tracer
        passes.append(p)
        elapsed = time.perf_counter() - start
        typical = statistics.median(q["elapsed_s"] for q in passes)
        if len(passes) >= MIN_PASSES and elapsed + typical > seconds:
            return passes


def judge(workload: str, jobs: list[dict], passes: list[dict]) -> tuple[int, list[str]]:
    """Failed job count over all passes, and the first reasons.  A job fails
    when it raises or exits non-zero, when its output fails its check, or
    when its output differs from the same job's output in the first pass."""
    from checks import Checker
    checker = Checker(ROOT)
    verdicts: dict[tuple[int, str], str | None] = {}
    failed, reasons = 0, []
    for p in passes:
        for i, (job, out, err) in enumerate(zip(jobs, p["outputs"], p["errors"])):
            if err is None and out != passes[0]["outputs"][i]:
                err = "output differs from the first pass"
            if err is None:
                key = (i, out)
                if key not in verdicts:
                    try:
                        verdicts[key] = checker.check(workload, job, out)
                    except Exception as exc:   # a malformed output fails its check
                        verdicts[key] = f"check raised {type(exc).__name__}: {exc}"
                err = verdicts[key]
            if err is not None:
                failed += 1
                if len(reasons) < MAX_REPORTED_FAILURES:
                    reasons.append(f"{job.get('argv') or job['meta']}: {err}")
    return failed, reasons


def hd_quantile(samples: list[float], q: float, steps: int = 16) -> float:
    """Harrell-Davis estimate of the q-quantile: a weighted mean of all
    order statistics, the i-th (of n) weighted by the Beta(q(n+1),
    (1-q)(n+1)) mass on [(i-1)/n, i/n].  Where the samples are sparse near
    the quantile, as with job latencies that span three orders of
    magnitude, it moves far less from run to run than the single order
    statistic that the sample quantile picks."""
    xs = sorted(samples)
    n = len(xs)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)

    def density(u: float) -> float:
        return math.exp(log_norm + (a - 1) * math.log(u) + (b - 1) * math.log1p(-u))

    h = 1 / (n * steps)       # midpoint rule, `steps` points per order statistic
    weights = [sum(density((i * steps + j + 0.5) * h) for j in range(steps)) for i in range(n)]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def end_to_end(passes: list[dict], setup_s: float) -> dict:
    """Times scaled to the calibration kernel's reference speed (see
    calibrate()).  The median is taken over the jobs, each at its median
    over the passes, which is steadier than over all executions; the 90th
    percentile over all executions, as a workload's 55-110 jobs would
    leave fewer than ten beyond it."""
    scaled = [[x * p["scale"] for x in p["latencies"]] for p in passes]
    per_job = [statistics.median(x) for x in zip(*scaled)]
    return {
        "wall_s": (statistics.median(sum(lat) for lat in scaled), "s"),
        "job_p50_ms": (hd_quantile(per_job, 0.5) * 1e3, "ms"),
        "job_p90_ms": (hd_quantile([x for lat in scaled for x in lat], 0.9) * 1e3, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(workload: str, jobs: list[dict], passes: list[dict], seed: int) -> dict:
    import tracing
    traced = [p for p in passes if p["tracer"] is not None]
    plain = [p for p in passes[1:] if p["tracer"] is None]
    # L-sum work per pass, counted from the inputs
    ideals = primes = 0
    if workload == "lseries":
        ideals = sum(tracing.ideal_count(j["meta"]) for j in jobs)
        primes = sum(tracing.prime_count(j["meta"]["B"]) for j in jobs)

    def span_metrics(summary: dict) -> dict:
        def get(name, key):
            return summary.get(name, {}).get(key, 0)
        return {
            "okring.factor.calls": (get("okring.factor", "calls"), "count"),
            "okring.factor.ms": (get("okring.factor", "ms"), "ms"),
            "okring.primes_above.calls": (get("okring.primes_above", "calls"), "count"),
            "okring.primes_above.ms": (get("okring.primes_above", "ms"), "ms"),
            "rayclass.builds_per_job": (get("rayclass.RayClassGroup", "calls") / len(jobs),
                                        "1/job"),
            "abgroup.snf.calls": (get("abgroup.snf", "calls"), "count"),
            "abgroup.snf.ms": (get("abgroup.snf", "ms"), "ms"),
            "abgroup.abelian_structure.calls": (get("abgroup.abelian_structure", "calls"),
                                                "count"),
            "abgroup.abelian_structure.ms": (get("abgroup.abelian_structure", "ms"), "ms"),
            "abgroup.abelian_structure.elements": (get("abgroup.abelian_structure", "count"),
                                                   "count"),
            "classforms.class_group.calls": (get("classforms.class_group", "calls"), "count"),
            "classforms.class_group.ms": (get("classforms.class_group", "ms"), "ms"),
            "classforms.class_group.forms": (get("classforms.class_group", "count"), "count"),
            "cmsearch.search.ms": (get("cmsearch.search", "ms"), "ms"),
            "cmsearch.search.candidates": (get("cmsearch.search", "count"), "count"),
            "finitefield.build.ms": (get("finitefield.build", "ms"), "ms"),
            "finitefield.build.count": (get("finitefield.build", "calls"), "count"),
            "finitefield.build.candidates_tried": (get("finitefield.build", "count"), "count"),
            "lvaluation.distinctness.ms": (get("lvaluation.distinctness", "ms"), "ms"),
            "lvaluation.unity_image.ms": (get("lvaluation.unity_image", "ms"), "ms"),
            "lvaluation.compute_N1.ms": (get("lvaluation.compute_N1", "ms"), "ms"),
            "lvaluation.dirichlet.ms": (get("lvaluation.dirichlet", "ms"), "ms"),
            "lvaluation.dirichlet.ideals": (ideals, "count"),
            "lvaluation.dirichlet.us_per_ideal": (
                get("lvaluation.dirichlet", "ms") * 1e3 / ideals if ideals else 0.0, "us"),
            "lvaluation.euler.ms": (get("lvaluation.euler", "ms"), "ms"),
            "lvaluation.euler.primes": (primes, "count"),
            "cli.self_ms": (get(tracing.JOB_SPAN, "self_ms"), "ms"),
        }

    per_pass = [span_metrics(tracing.summarize(p["tracer"].spans)) for p in traced]
    out = {name: (statistics.median(m[name][0] for m in per_pass), unit)
           for name, (_, unit) in per_pass[0].items()}
    small, large = tracing.field_mul_us(workload, jobs, seed)
    groups = tracing.unit_groups(jobs)
    imports = tracing.import_times_ms(SRC)
    out.update({
        "okring.mul.ns": (tracing.okring_mul_ns(workload, jobs, seed), "ns"),
        "rayclass.reduce_mod.us": (tracing.reduce_mod_us(jobs, seed), "us"),
        "rayclass.dlog.us": (tracing.dlog_us(workload, jobs), "us"),
        "rayclass.unitgroup.split.calls": (groups["split.calls"], "count"),
        "rayclass.unitgroup.split.ms": (groups["split.ms"], "ms"),
        "rayclass.unitgroup.nonsplit.calls": (groups["nonsplit.calls"], "count"),
        "rayclass.unitgroup.nonsplit.ms": (groups["nonsplit.ms"], "ms"),
        "rayclass.unitgroup.nonsplit.residues": (groups["nonsplit.residues"], "count"),
        "finitefield.mul_small.us": (small, "us"),
        "finitefield.mul_large.us": (large, "us"),
        "setup.import.sympy_ms": (imports["sympy"], "ms"),
        "setup.import.iqtower_ms": (imports["iqtower"], "ms"),
        "trace.overhead_s": (statistics.median(p["wall_s"] for p in traced)
                             - statistics.median(p["wall_s"] for p in plain), "s"),
    })
    return out


def _versions() -> dict:
    import numpy
    import sympy
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=30).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "sympy": sympy.__version__, "nproc": os.cpu_count(), "commit": commit}


def _write(name: str, payload) -> str:
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, name)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
    return path


def reference(seed: int) -> None:
    """Times each baseline case of ROADMAP Open item 1 once (the 107 s
    modulus-343 case is left out).  These are reported beside the
    regression metrics, not among them."""
    from iqtower.finitefield import finite_field
    from iqtower.lvaluation import euler_product_L, evaluate_imprimitive_L
    from iqtower.okring import field
    from iqtower.rayclass import CharacterSpec, RayClassGroup, characters

    k1, k2 = field(1), field(2)
    cases = {}

    def timed(name, layer, fn):
        t0 = time.perf_counter()
        fn()
        cases[name] = {"layer": layer, "s": time.perf_counter() - t0}
        print(f"{name}: {cases[name]['s']:.3f} s", file=sys.stderr)

    timed("rayclass_d1_modulus_49", "rayclass", lambda: RayClassGroup(k1.from_int(49)))
    timed("rayclass_d1_modulus_81", "rayclass", lambda: RayClassGroup(k1.from_int(81)))
    timed("rayclass_d2_modulus_125", "rayclass", lambda: RayClassGroup(k2.from_int(125)))
    five = k1.from_int(5)
    chi = characters(RayClassGroup(five), exact_order=4)[0]
    timed("lvalue_order4_dirichlet_B1e5", "lvaluation",
          lambda: evaluate_imprimitive_L(k1, five, chi, 2.0, 10 ** 5))
    timed("lvalue_order4_euler_B1e5", "lvaluation",
          lambda: euler_product_L(k1, five, chi, 2.0, 10 ** 5))
    timed("lvalue_trivial_dirichlet_B1e7", "lvaluation",
          lambda: evaluate_imprimitive_L(k1, k1.one(), CharacterSpec((), 1), 2.0, 10 ** 7))
    finite_field.cache_clear()
    timed("finite_field_7_42_cold", "finitefield", lambda: finite_field(7, 42))
    env = dict(os.environ, PYTHONPATH=SRC)
    timed("cli_fit_end_to_end", "cli", lambda: subprocess.run(
        [sys.executable, "-m", "iqtower.cli", "fit", "--q", "3", "--e", "5,5,5,5"],
        env=env, cwd=ROOT, check=True, capture_output=True, timeout=120))
    record = dict(_versions(), seed=seed, cases=cases)
    _write(f"reference-seed{seed}.json", record)
    print(json.dumps(record, sort_keys=True))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=("groups", "lseries", "residue"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--reference", action="store_true",
                    help="time the ROADMAP baseline cases once instead of a workload")
    args = ap.parse_args()
    if not args.reference and args.workload is None:
        ap.error("--workload is required unless --reference is given")
    _check_tree()
    setup_s = measure_setup_s() if not args.trace and not args.reference else None
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    if args.reference:
        reference(args.seed)
        return

    from workloads import GENERATORS
    jobs = GENERATORS[args.workload](args.seed)
    passes = run_passes(args.workload, jobs, args.seconds, bool(args.trace))
    if not args.trace:
        metrics = end_to_end(passes, setup_s)      # before the checks add to peak RSS
    failed, reasons = judge(args.workload, jobs, passes)
    if args.trace:
        metrics = per_layer(args.workload, jobs, passes, args.seed)
    attempted = len(jobs) * len(passes)
    digests = sorted({p["digest"] for p in passes})
    reported = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    _write(name + ".json", dict(
        _versions(), workload=args.workload, seed=args.seed, trace=args.trace,
        jobs=len(jobs), passes=len(passes), latency_samples=attempted,
        pass_wall_s=[p["wall_s"] for p in passes],
        pass_scale=[p["scale"] for p in passes],
        latencies_ms=[[x * 1e3 for x in p["latencies"]] for p in passes],
        traced=[p["tracer"] is not None for p in passes],
        digest=digests[0] if len(digests) == 1 else digests,
        failed=failed, fail_frac=failed / attempted, failures=reasons, metrics=reported))
    if args.trace:
        from tracing import slowest_job_breakdown, summarize
        first = next(p for p in passes if p["tracer"] is not None)
        _write("spans-" + name + ".json", {
            "fields": ["name", "start_s", "end_s", "parent", "count"],
            "spans": first["tracer"].spans,
            "summary": summarize(first["tracer"].spans),
            "slowest_jobs": slowest_job_breakdown(first["tracer"].spans)})
    print(f"{args.workload} seed {args.seed}: {len(jobs)} jobs x {len(passes)} passes, "
          f"digest {' '.join(digests)}, failed {failed}/{attempted}", file=sys.stderr)
    for reason in reasons:
        print("  FAILED " + reason, file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": reported}))


if __name__ == "__main__":
    main()
