"""Fine-Selmer p-rank bookkeeping over Z_q-towers.

The whole module works at the level the reduction makes exact: when all
p-torsion of the abelian variety is rational, the mod-p fine Selmer group is
Hom(Cl_S, (Z/p)^2d), so its p-rank is 2d times the p-rank of the S-class
group; everything else is bounded through the four-term-sequence rank lemma
and the kernel sizes of the mod-p control maps.  Groups of the shape
(Q_p/Z_p)^s + T enter as explicit (corank, torsion) models; no Galois
cohomology is computed here.  Prime counts in the layers of a cyclotomic
Z_q-tower come in closed form from the one valuation v_q(ell^(q-1) - 1).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from sympy import isprime

from .abgroup import padic_val

# the cap on a tower's primes: the q of `tower` and `fit`, and the p and q
# of a tower file, checked before sympy's isprime, which takes seconds on a
# prime of a few thousand digits
MAX_TOWER_Q = 10 ** 8
# a tower file's size cap: 2^16 bytes hold over 800 levels, and layer n has
# degree q^n >= 2^n over K; the slowest file under it takes 0.7 s
MAX_TOWER_FILE_BYTES = 2 ** 16


class IngestError(ValueError):
    """Base for tower-file rejections (CLI exit 4)."""


class SchemaError(IngestError):
    pass


class MonotonicityError(IngestError):
    pass


class RankConsistencyError(IngestError):
    pass


@dataclass(frozen=True)
class CofinPGroup:
    """(Q_p/Z_p)^corank + T with T a finite p-group given by its p-power
    cyclic orders."""

    p: int
    corank: int
    torsion: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.corank < 0:
            raise ValueError("corank must be nonnegative")
        for t in self.torsion:
            if t < self.p or t != self.p ** padic_val(t, self.p):
                raise ValueError(f"torsion order {t} is not a power of {self.p}")

    @property
    def p_rank(self) -> int:
        return self.corank + len(self.torsion)

    def iso_key(self) -> tuple:
        return (self.corank, tuple(sorted(self.torsion)))

    def to_dict(self) -> dict:
        return {"s": self.corank, "T": sorted(self.torsion)}


def fine_selmer_mod_p_rank(r_cls: int, d: int) -> int:
    """p-rank of the mod-p fine Selmer group of a d-dimensional abelian
    variety with rational p-torsion: 2d times the S-class-group p-rank."""
    if r_cls < 0 or d < 1:
        raise ValueError("need r_cls >= 0 and d >= 1")
    return 2 * d * r_cls


def rank_gap_bound(r_first: int, r_last: int) -> int:
    """For an exact sequence P -> Q -> R -> S of cofinitely generated
    groups, |r_p(Q) - r_p(R)| <= 2*r_p(P) + r_p(S)."""
    if r_first < 0 or r_last < 0:
        raise ValueError("p-ranks are nonnegative")
    return 2 * r_first + r_last


def control_gap_bound(d: int, s_f: int) -> int:
    """Bound on |r_p(Sel0(A[p])) - r_p(Sel0(A))| over a layer with s_f
    finite places of ramification/bad reduction: the comparison kernel is
    (Z/p)^2d and the local kernels contribute (Z/p)^2d per finite place,
    so the rank lemma gives 2*(2d) + 2d*s_f.  This constant is this
    package's choice; only finiteness is canonical."""
    if d < 1 or s_f < 0:
        raise ValueError("need d >= 1 and s_f >= 0")
    return rank_gap_bound(2 * d, 2 * d * s_f)


def class_to_selmer_gap_bound(d: int, s_f: int) -> int:
    """Composite bound on |r_p(Sel0(A)) - 2d*r_p(Cl)|: the S-class gap
    contributes 2d * 2*s_f on top of control_gap_bound."""
    return control_gap_bound(d, s_f) + 4 * d * s_f


def stabilization_detect(series: list[CofinPGroup]) -> int | None:
    """Smallest index from which all later groups are isomorphic (equal
    corank and torsion multiset).  Needs a stable tail of length >= 2, since
    one trailing value attests nothing; returns None when the p-ranks are
    still moving at the end of the data."""
    if len(series) < 2:
        return None
    keys = [g.iso_key() for g in series]
    n = len(keys) - 1
    while n > 0 and keys[n - 1] == keys[-1]:
        n -= 1
    if n > len(keys) - 2:
        return None
    return n


def decomposition_counts(ell: int, q: int, n_max: int) -> list[int]:
    """Number of primes above ell in the n-th layer of the cyclotomic
    Z_q-extension of Q, for n = 0..n_max.

    The layer of degree q^n sits inside Q(zeta_{q^(n+1)}); for ell != q the
    Frobenius at ell generates the image of ell in the Z/q^n quotient of
    (Z/q^(n+1))^x, whose order is the q-part of ord(ell mod q^(n+1)); the
    prime count is q^n divided by that order.  For odd q that order is
    ord(ell mod q) * q^max(0, n + 1 - v) with v = v_q(ell^(q-1) - 1)
    (Washington, GTM 83), so the count is q^min(n, v - 1).  ell = q is
    totally ramified.
    """
    if not isprime(ell) or not isprime(q) or q == 2:
        raise ValueError("ell must be prime and q an odd prime")
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    if ell == q:
        return [1] * (n_max + 1)
    top = q ** (n_max + 1)
    # mod q^(n_max+1) every v > n_max reads as n_max + 1: the same counts
    v = padic_val(pow(ell, q - 1, top) - 1 or top, q)
    return [q ** min(n, v - 1) for n in range(n_max + 1)]


def fit_iwasawa(e: list[int], q: int) -> tuple[int, int, int, int] | None:
    """Fit e_n = mu*q^n + lambda*n + nu exactly on a tail of the data.

    Returns (mu, lambda, nu, n0) for the smallest n0 whose tail (length
    >= 3) admits integer mu, lambda >= 0 and integer nu fitting exactly;
    None when no such tail exists.  Every tail holds the last three values,
    which fix (mu, lambda, nu): one solve there, then a walk down the fit.
    """
    if q < 2:
        raise ValueError("q must be at least 2")
    if len(e) < 4:
        raise ValueError("need at least 4 values to fit a growth law")
    n0 = len(e) - 3
    sol = _solve_growth(e[n0:], n0, q)
    if sol is None or sol[0] < 0 or sol[1] < 0:
        return None
    mu, lam, nu = sol
    grow = (e[-1] - 2 * e[-2] + e[-3]) // (q - 1) ** 2     # mu*q^n0, exactly
    while n0 and e[n0 - 1] == grow // q + lam * (n0 - 1) + nu:
        n0, grow = n0 - 1, grow // q
    return mu, lam, nu, n0


def _solve_growth(vals, n0: int, q: int) -> tuple[int, int, int] | None:
    """The integers (mu, lambda, nu) with mu*q^n + lambda*n + nu = vals[n - n0]
    at n = n0, n0 + 1, n0 + 2, or None when mu is not an integer.  The first
    difference is mu*q^n0*(q - 1) + lambda and the second mu*q^n0*(q - 1)^2,
    so q^n0 is formed only while it stays within a nonzero second one."""
    e0, e1, e2 = vals
    second, qn = e2 - 2 * e1 + e0, 1
    for _ in range(n0 if second else 0):
        qn *= q
        if qn > abs(second):
            return None
    mu, rem = divmod(second, qn * (q - 1) ** 2)
    if rem:
        return None
    lam = e1 - e0 - mu * qn * (q - 1)
    return mu, lam, e0 - mu * qn - lam * n0


@dataclass(frozen=True)
class TowerLevelData:
    n: int
    s_f: int
    r_cl: int
    r_cls: int
    e_n: int | None = None
    sel0: CofinPGroup | None = None


@dataclass(frozen=True)
class TowerSeries:
    label: str
    q: int
    d: int
    p: int
    levels: tuple[TowerLevelData, ...]

    def to_dict(self) -> dict:
        out = {"label": self.label, "q": self.q, "d": self.d, "p": self.p, "levels": []}
        for lv in self.levels:
            rec: dict = {"n": lv.n, "s_f": lv.s_f, "r_cl": lv.r_cl, "r_cls": lv.r_cls}
            if lv.e_n is not None:
                rec["e_n"] = lv.e_n
            if lv.sel0 is not None:
                rec["sel0"] = lv.sel0.to_dict()
            out["levels"].append(rec)
        return out


@dataclass(frozen=True)
class RankGapReport:
    level: int
    bound: int
    observed: int | None
    satisfied: bool | None


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise SchemaError(msg)


def _is_count(v, least: int) -> bool:
    """A JSON integer >= least; JSON true/false load as bool, an int subclass,
    and are no integers here."""
    return isinstance(v, int) and not isinstance(v, bool) and v >= least


def ingest_tower(path) -> TowerSeries:
    """Load and validate a tower file.

    Distinct diagnostics: SchemaError for malformed data, MonotonicityError
    for non-increasing levels or decreasing s_f, RankConsistencyError when
    |r_cl - r_cls| exceeds 2*s_f at some level.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read(MAX_TOWER_FILE_BYTES + 1)      # one byte past the cap
        raw = json.loads(data.decode()) if len(data) <= MAX_TOWER_FILE_BYTES else None
    except (OSError, ValueError) as exc:   # bad JSON or UTF-8, or an int of over 4,300 digits
        raise SchemaError(f"cannot read tower file: {exc}") from exc
    _require(len(data) <= MAX_TOWER_FILE_BYTES,
             f"the file exceeds the cap of {MAX_TOWER_FILE_BYTES} bytes")
    _require(isinstance(raw, dict), "top level must be an object")
    for key in ("label", "q", "d", "p", "levels"):
        _require(key in raw, f"missing field {key!r}")
    _require(isinstance(raw["label"], str), "label must be a string")
    for key in ("q", "d", "p"):
        _require(_is_count(raw[key], 1), f"{key} must be a positive integer")
    _require(raw["p"] <= MAX_TOWER_Q and raw["q"] <= MAX_TOWER_Q,
             f"p and q must be at most {MAX_TOWER_Q}")
    _require(isprime(raw["p"]) and isprime(raw["q"]), "p and q must be prime")
    _require(raw["p"] != raw["q"], "p and q must be distinct")
    _require(isinstance(raw["levels"], list) and raw["levels"], "levels must be a nonempty list")
    p = raw["p"]
    levels = []
    for i, rec in enumerate(raw["levels"]):
        _require(isinstance(rec, dict), f"level {i} must be an object")
        for key in ("n", "s_f", "r_cl", "r_cls"):
            _require(key in rec and _is_count(rec[key], 0),
                     f"level {i}: {key} must be a nonnegative integer")
        e_n = rec.get("e_n")
        _require(e_n is None or _is_count(e_n, 0),
                 f"level {i}: e_n must be a nonnegative integer")
        sel0 = None
        if "sel0" in rec and rec["sel0"] is not None:
            raw_sel = rec["sel0"]
            _require(isinstance(raw_sel, dict) and "s" in raw_sel and "T" in raw_sel,
                     f"level {i}: sel0 needs fields s and T")
            _require(_is_count(raw_sel["s"], 0),
                     f"level {i}: sel0.s must be a nonnegative integer")
            _require(isinstance(raw_sel["T"], list)
                     and all(_is_count(t, 1) for t in raw_sel["T"]),
                     f"level {i}: sel0.T must be a list of positive integers")
            try:
                sel0 = CofinPGroup(p, raw_sel["s"], tuple(raw_sel["T"]))
            except ValueError as exc:
                raise SchemaError(f"level {i}: {exc}") from exc
        levels.append(TowerLevelData(rec["n"], rec["s_f"], rec["r_cl"], rec["r_cls"],
                                     e_n, sel0))
    for prev, cur in zip(levels, levels[1:]):
        if cur.n <= prev.n:
            raise MonotonicityError(f"levels not strictly increasing at n={cur.n}")
        if cur.s_f < prev.s_f:
            raise MonotonicityError(
                f"s_f decreases from {prev.s_f} to {cur.s_f} at level n={cur.n}; "
                f"places only split further up the tower")
    for lv in levels:
        if abs(lv.r_cl - lv.r_cls) > 2 * lv.s_f:
            raise RankConsistencyError(
                f"level n={lv.n}: |r_cl - r_cls| = {abs(lv.r_cl - lv.r_cls)} exceeds "
                f"the S-class bound 2*s_f = {2 * lv.s_f}")
    return TowerSeries(raw["label"], raw["q"], raw["d"], raw["p"], tuple(levels))


def rank_gap_reports(series: TowerSeries) -> list[RankGapReport]:
    """Per-level comparison of the fine-Selmer p-rank model against
    2d * r_p(Cl), bounded by the composite constant of this package."""
    out = []
    for lv in series.levels:
        bound = class_to_selmer_gap_bound(series.d, lv.s_f)
        if lv.sel0 is not None:
            observed = abs(lv.sel0.p_rank - 2 * series.d * lv.r_cl)
            out.append(RankGapReport(lv.n, bound, observed, observed <= bound))
        else:
            out.append(RankGapReport(lv.n, bound, None, None))
    return out


def series_stabilization(series: TowerSeries) -> int | None:
    """Stabilization level of the fine-Selmer models, when every level
    carries one."""
    models = [lv.sel0 for lv in series.levels]
    if any(m is None for m in models):
        return None
    return stabilization_detect(models)
