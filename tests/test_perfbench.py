"""The traced benchmark's contract with the library: every function its
spans wrap still exists, its import timing returns both samples, and each
per-layer kernel runs on a few jobs of every workload.  A traced run
(`perfbench/run.py --trace 1`) calls all of these after its passes, so a
break here makes it exit non-zero.  perfbench/ is only read: its modules
are imported without writing bytecode."""

import importlib
import math
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
_dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
try:
    import tracing
    import workloads
finally:
    sys.dont_write_bytecode = _dont_write


@pytest.mark.parametrize("module,attr,misses_only",
                         [(m, a, misses) for m, a, _, _, misses in tracing.SPANS])
def test_every_span_target_resolves(module, attr, misses_only):
    fn = getattr(importlib.import_module(module), attr)
    assert callable(fn)
    if misses_only:
        assert callable(fn.cache_info)


@pytest.mark.parametrize("module,cls", [(m, c) for m, c, _ in tracing.CONSTRUCTOR_SPANS])
def test_every_constructor_span_target_resolves(module, cls):
    assert isinstance(getattr(importlib.import_module(module), cls), type)


def test_import_times_have_both_samples():
    times = tracing.import_times_ms(str(ROOT / "src"), repeats=1)
    assert set(times) == {"sympy", "iqtower"}
    assert all(math.isfinite(v) and v > 0 for v in times.values())


@pytest.mark.parametrize("workload", sorted(workloads.GENERATORS))
def test_kernels_run_on_a_few_jobs(workload):
    jobs = workloads.GENERATORS[workload](1)
    # the first jobs, and the residue field of largest degree, so that both
    # sizes of field_mul_us run
    few = jobs[:3] + sorted(jobs, key=lambda j: j["meta"].get("t", 0))[-1:]
    groups = tracing.unit_groups(few)
    small, large = tracing.field_mul_us(workload, few, 1)
    values = [small, large, tracing.dlog_us(workload, few), tracing.reduce_mod_us(few, 1),
              tracing.okring_mul_ns(workload, few, 1), *groups.values()]
    assert all(math.isfinite(v) and v >= 0 for v in values)
    assert values[4] > 0
    assert (small > 0 and large > 0) == (workload == "residue")
    assert (values[2] > 0) == (workload == "lseries")
    assert (groups["split.calls"] + groups["nonsplit.calls"] > 0) == (workload != "residue")
