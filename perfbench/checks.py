"""Correctness checks on job outputs, run outside the timed region.

Each check takes the job and its output text and returns None when the
output is right, or a one-line reason when it is not.  The oracles are
the benchmark's own arithmetic and the brute-force oracles in
tests/oracles.py; the program is used only where a check needs its
conventions (reduce_mod powering, the residue embedding, the Euler-factor
test of acceptance criterion 4).
"""

from __future__ import annotations

import csv
import importlib.util
import io
import json
import math
import os

TABLE2_DEGREES = {1: 1, 2: 1, 3: 6, 7: 21, 11: 1, 19: 3, 43: 29, 67: 41, 163: 89}
LATTICE_ZETA_RTOL = 1e-9


def load_oracles(root: str):
    path = os.path.join(root, "tests", "oracles.py")
    spec = importlib.util.spec_from_file_location("iqtower_bench_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _chain_problem(invariants: list[int], order: int) -> str | None:
    if any(b % a for a, b in zip(invariants, invariants[1:])):
        return f"invariants {invariants} are not a divisibility chain"
    if math.prod(invariants) != order:
        return f"invariants {invariants} multiply to {math.prod(invariants)}, not {order}"
    return None


class Checker:
    def __init__(self, root: str):
        self.oracles = load_oracles(root)

    def check(self, workload: str, job: dict, output: str) -> str | None:
        if workload == "residue":
            return self._residue(job["meta"], json.loads(output))
        command = job["argv"][0]
        if command == "table2" and "csv" in job["argv"]:
            rows = list(csv.DictReader(io.StringIO(output)))
            return self._table2({int(r["d"]): int(r["degree"]) for r in rows})
        records = json.loads(output)["records"]
        if command == "table2":
            return self._table2({r["d"]: r["degree"] for r in records})
        return getattr(self, "_" + command)(job["meta"], records)

    # -- groups ----------------------------------------------------------------
    @staticmethod
    def _table2(degrees: dict[int, int]) -> str | None:
        return None if degrees == TABLE2_DEGREES else f"table2 degrees {degrees}"

    @staticmethod
    def _rayclass(meta: dict, records: list[dict]) -> str | None:
        from iqtower.okring import OkElement, field
        from iqtower.rayclass import reduce_mod
        rec = records[0]
        phi = math.prod(f["prime_norm"] ** (f["e"] - 1) * (f["prime_norm"] - 1)
                        for f in meta["factors"])
        problem = (_chain_problem(rec["invariants"], rec["order"])
                   or _chain_problem(rec["unit_group_invariants"], phi))
        if problem:
            return problem
        tag = field(meta["d"])
        h = OkElement(tag, *meta["modulus"])
        one = reduce_mod(tag.one(), h)
        zeta = tag.unit_gen()
        u, mu = zeta, 1
        while reduce_mod(u, h) != one:
            u, mu = u * zeta, mu + 1
        if rec["order"] * mu != phi:
            return f"degree {rec['order']} * |mu image| {mu} != phi(h) {phi}"
        return None

    @staticmethod
    def _cmsearch(meta: dict, records: list[dict]) -> str | None:
        d = meta["d"]
        for rec in records:
            if rec["norm"] != 16 * rec["r"] ** 2 + d:
                return f"twist prime norm {rec['norm']} != 16r^2 + d at r={rec['r']}"
            if rec["condition_c"] != (not rec["offending_primes"]):
                return f"condition_c disagrees with offending primes at r={rec['r']}"
        return None

    @staticmethod
    def _tower(meta: dict, records: list[dict]) -> str | None:
        q = meta["q"]
        for rec in records:
            n = rec["n"]
            if rec["order"] != q ** n or rec["layer_degree"] != (q if n else 1):
                return f"layer {n}: order {rec['order']}, layer degree {rec['layer_degree']}"
            problem = _chain_problem(rec["invariants"], rec["order"])
            if problem:
                return problem
        return None

    def _classgroup(self, meta: dict, records: list[dict]) -> str | None:
        rec = records[0]
        h = self.oracles.minkowski_class_number(meta["disc"])
        if rec["order"] != h:
            return f"class number {rec['order']} != ideal-lattice count {h}"
        return (_chain_problem(rec["invariants"], rec["order"])
                or _chain_problem(rec["s_invariants"], rec["s_order"])
                or (None if h % rec["s_order"] == 0
                    else f"S-class number {rec['s_order']} does not divide {h}"))

    # -- lseries ---------------------------------------------------------------
    def _lseries(self, meta: dict, records: list[dict]) -> str | None:
        rec = records[0]

        def value(v):
            return complex(*v) if isinstance(v, list) else complex(v)

        gap = abs(value(rec["dirichlet"]) - value(rec["euler"]))
        if gap > rec["dirichlet_error"] + rec["euler_error"]:
            return f"|dirichlet - euler| = {gap:.3e} exceeds the tail bounds"
        if meta["modulus"] == [1, 0]:
            want = self.oracles.lattice_zeta(meta["d"], meta["s"], meta["B"])
            got = value(rec["dirichlet"])
            if abs(got - want) > LATTICE_ZETA_RTOL * want:
                return f"trivial character {got} != lattice zeta {want}"
        return None

    # -- residue ---------------------------------------------------------------
    @staticmethod
    def _residue(meta: dict, out: dict) -> str | None:
        p, q, m = meta["p"], meta["q"], meta["m"]
        if out["distinct"] is not True:
            return f"distinctness_check({p}, {q}, {m}) is {out['distinct']}"
        modulus = out["field_modulus"]
        zeta = out["zeta"]
        if _poly_pow(zeta, q ** m, modulus, p) != _one(len(modulus)):
            return f"zeta^({q}^{m}) != 1"
        if _poly_pow(zeta, q ** (m - 1), modulus, p) == _one(len(modulus)):
            return f"zeta^({q}^{m - 1}) == 1"
        want = _brute_n1_levels(meta)
        n1 = out["N1"]
        got = set() if n1 == 0 else ({n1 - 1} if n1 - 1 <= m else set())
        if got != want:
            return f"N1 = {n1} but the character scan finds vanishing at levels {sorted(want)}"
        return None


def _one(t: int) -> list[int]:
    return [1] + [0] * (t - 1)


def _poly_mulmod(a: list[int], b: list[int], modulus: list[int], p: int) -> list[int]:
    """a*b in F_p[x]/(x^t + sum modulus[i] x^i), schoolbook."""
    t = len(modulus)
    out = [0] * (2 * t - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    for i in range(2 * t - 2, t - 1, -1):
        c = out[i] % p
        if c:
            for j, fj in enumerate(modulus):
                out[i - t + j] -= c * fj
    return [v % p for v in out[:t]]


def _poly_pow(a: list[int], k: int, modulus: list[int], p: int) -> list[int]:
    out, base = _one(len(modulus)), list(a)
    while k:
        if k & 1:
            out = _poly_mulmod(out, base, modulus, p)
        base = _poly_mulmod(base, base, modulus, p)
        k >>= 1
    return out


def _brute_n1_levels(meta: dict) -> set[int]:
    """Levels m' <= m at which some character component of exact order q^m'
    makes the Euler factor vanish: the scan of acceptance criterion 4."""
    from iqtower.finitefield import finite_field
    from iqtower.lvaluation import ResidueEmbedding, euler_factor_vanishes, unity_image
    from iqtower.okring import OkElement, field
    p, q = meta["p"], meta["q"]
    tag = field(meta["d"])
    emb = ResidueEmbedding.create(tag, p)
    lam = OkElement(tag, *meta["lam"])
    observed = set()
    for level in range(meta["m"] + 1):
        F = unity_image(p, q, level).field if level else finite_field(p, 1)
        phi = F.lift(meta["phi0"])
        etas = [F.one()] if level == 0 else []
        if level:
            z, acc = unity_image(p, q, level), F.one()
            for j in range(q ** level):
                if j % q:
                    etas.append(acc)
                acc = acc * z
        if any(euler_factor_vanishes(emb, lam, meta["k"], phi, eta) for eta in etas):
            observed.add(level)
    return observed
