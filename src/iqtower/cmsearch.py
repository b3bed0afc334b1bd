"""Search and tabulation of auxiliary CM twist data.

For d > 3 a CM elliptic curve over K = Q(sqrt(-d)) with everywhere-good
reduction outside one split prime arises by twisting along alpha = P*Q,
P = (sqrt(-d)), where Q = (4r + sqrt(-d)) is a split prime subject to the
congruence Q = sqrt(-d) mod 4 O_K; such Q exists whenever 16r^2 + d is an
odd rational prime.  The rows for d < 43 are fixed curve data (found by
database inspection, not reproducible by search); only their ray-class
degrees are recomputed here.
"""

from __future__ import annotations

from dataclasses import dataclass

from sympy import factorint, isprime

from .okring import FieldTag, OkElement, OkError, OkPrime, canonical_associate, \
    field, split_type
from .rayclass import ray_class_group


@dataclass(frozen=True)
class TwistCandidate:
    tag: FieldTag
    r: int
    prime: OkPrime                 # Q = (4r + sqrt(-d)), norm 16r^2 + d
    alpha: OkElement               # -d + 4r*sqrt(-d), the twisting element
    conductor: OkElement
    degree: int
    degree_admissible: bool
    offending_primes: tuple[int, ...] = ()


@dataclass(frozen=True)
class TableRow:
    d: int
    bad_primes: tuple[OkElement, ...]
    degree: int
    source: str                    # "fixed" or "searched"
    conductor_norm: int
    degree_admissible: bool
    offending_primes: tuple[int, ...] = ()
    flag: str = ""

    def to_dict(self) -> dict:
        return {"d": self.d,
                "bad_primes": [str(b) for b in self.bad_primes],
                "norm": self.conductor_norm,
                "degree": self.degree,
                "condition_c": self.degree_admissible,
                "source": self.source,
                "flag": self.flag}


def twist_degree_admissible(degree: int, tag: FieldTag) -> tuple[bool, tuple[int, ...]]:
    """True when every prime divisor of the degree is 2, 3, or non-split in
    K; otherwise the offending split primes are listed."""
    if degree < 1:
        raise OkError("degree must be >= 1")
    bad = tuple(sorted(r for r in factorint(degree)
                       if r not in (2, 3) and split_type(tag, r) == "split"))
    return (not bad), bad


def find_twist_candidates(tag: FieldTag, r_bound: int) -> list[TwistCandidate]:
    """All twist primes Q = (4r + sqrt(-d)) with r in [1, r_bound] and
    16r^2 + d an odd rational prime.  Only applies to d > 3; the small-d
    rows are fixed data served by curve_table().

    The degree is the order of the ray class group of Q, in closed form:
    for d > 3 the units are +-1, and -1 != 1 mod Q since N(Q) is odd, so
    (O_K/Q)^x / {+-1} has order (N(Q) - 1)/2."""
    if tag.d <= 3:
        raise OkError("the twist search construction needs d > 3; "
                      "rows for d <= 3 are fixed data")
    out = []
    sq = tag.sqrt_minus_d()
    for r in range(1, r_bound + 1):
        n = 16 * r * r + tag.d
        if not isprime(n):
            continue
        q_elt = tag.from_int(4 * r) + sq
        prime = OkPrime(canonical_associate(q_elt), n, "split", 1)
        alpha = sq * q_elt
        deg = (n - 1) // 2
        ok, bad = twist_degree_admissible(deg, tag)
        out.append(TwistCandidate(tag, r, prime, alpha, canonical_associate(q_elt),
                                  deg, ok, bad))
    return out


# Bad primes of the fixed small-d twisted curves, as printed in the source
# data (kept verbatim rather than canonicalized).  d = 19 is special: the
# printed norm-5 element is inconsistent with both the printed degree 3 and
# the conductor norm 49 of the referenced curve; the norm-7 prime
# (3+sqrt(-19))/2 matches both, so that row substitutes it and carries a flag.
_FIXED_BAD_PRIMES: dict[int, list[tuple[int, int]]] = {
    1: [(2, 1)],            # 2 + i
    2: [(1, -1)],           # 1 - sqrt(-2)
    3: [(1, 2), (3, -2)],   # 2 + sqrt(-3), 2 - sqrt(-3)
    7: [(7, -2)],           # 6 - sqrt(-7)
    11: [(0, -1)],          # (-1 - sqrt(-11))/2
    19: [(1, 1)],           # (3 + sqrt(-19))/2, substituted; see flag
}

_D19_PRINTED = (-1, 1)      # (-1 + sqrt(-19))/2, norm 5


def _d19_flag() -> str:
    k19 = field(19)
    printed = OkElement(k19, *_D19_PRINTED)
    deg_printed = ray_class_group(printed).degree
    used = OkElement(k19, *_FIXED_BAD_PRIMES[19][0])
    deg_used = ray_class_group(used).degree
    return (f"source data prints bad prime {printed} (norm {printed.norm()}, "
            f"recomputed degree {deg_printed}) but lists degree {deg_used}, which "
            f"matches the norm-{used.norm()} prime {used}; the norm-7 prime is "
            f"used here and the printed element is reported for comparison")


def curve_table(r_bound: int = 10) -> list[TableRow]:
    """The nine-row table of auxiliary twist data: fixed rows for d < 43
    with recomputed degrees, searched rows (smallest admissible r) for
    d >= 43."""
    rows = []
    for d in (1, 2, 3, 7, 11, 19):
        tag = field(d)
        bad = tuple(OkElement(tag, x, y) for x, y in _FIXED_BAD_PRIMES[d])
        cond = tag.one()
        for b in bad:
            cond = cond * b
        deg = ray_class_group(cond).degree
        ok, off = twist_degree_admissible(deg, tag)
        rows.append(TableRow(d, bad, deg, "fixed", cond.norm(), ok, off,
                             flag=_d19_flag() if d == 19 else ""))
    for d in (43, 67, 163):
        tag = field(d)
        cands = find_twist_candidates(tag, r_bound)
        if not cands:
            raise OkError(f"no twist prime with r <= {r_bound} for d={d}")
        c = cands[0]
        rows.append(TableRow(d, (c.prime.generator,), c.degree, "searched",
                             c.prime.norm(), c.degree_admissible, c.offending_primes))
    return rows


def is_anomalous(nv: int, a_v: int, p: int) -> bool:
    """Whether the reduced curve at a place of norm nv with trace a_v has a
    point of order p over the residue field: p | nv + 1 - a_v."""
    if a_v * a_v > 4 * nv:
        raise OkError(f"|a_v| = {abs(a_v)} violates the Hasse bound for norm {nv}")
    return (nv + 1 - a_v) % p == 0
