"""Command-line surface: deterministic batch runs over all modules.

Exit codes: 0 success, 2 invalid configuration (including the hard caps),
3 precondition violation, 4 tower-file rejection.  Identical inputs produce
byte-identical outputs: no clocks, no randomness, fixed iteration orders.
All computations are sequential; the ITL_THREADS environment variable is
accepted and validated as an upper bound on internal parallelism, which a
sequential run trivially satisfies.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

from . import cmsearch as cms
from . import selmerrank as sr
from .abgroup import GroupError
from .classforms import FormError, class_group, p_rank, s_class_group
from .finitefield import FieldError, finite_field
from .lvaluation import (ResidueEmbedding, compute_N1, distinctness_check,
                         euler_product_L, evaluate_imprimitive_L)
from .okring import OkError, field, parse_element
from .rayclass import CharacterSpec, anticyclotomic_tower, ray_class_group

MAX_TOWER_DEPTH = 4
MAX_MODULUS_NORM = 10 ** 6
MAX_TRUNCATION = 10 ** 8


class ConfigError(ValueError):
    pass


def _emit(config: dict, records: list[dict], columns: list[str], args) -> None:
    if args.format == "json":
        payload = {"config": config, "records": records}
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\r\n")
        writer.writerow(columns)
        for rec in records:
            writer.writerow([_csv_cell(rec.get(c)) for c in columns])
        text = buf.getvalue()
    if args.out:
        with open(args.out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (list, tuple)):
        return ";".join(str(x) for x in v)
    return str(v)


def _check_threads() -> None:
    raw = os.environ.get("ITL_THREADS")
    if raw is not None:
        try:
            n = int(raw)
        except ValueError:
            raise ConfigError(f"ITL_THREADS must be a positive integer, got {raw!r}")
        if n < 1:
            raise ConfigError(f"ITL_THREADS must be a positive integer, got {n}")


def _parse_modulus(d: int, text: str):
    tag = field(d)
    m = parse_element(tag, text)
    if m.is_zero():
        raise ConfigError("modulus must be nonzero")
    if m.norm() > MAX_MODULUS_NORM:
        raise ConfigError(f"modulus norm {m.norm()} exceeds the cap {MAX_MODULUS_NORM}; "
                          f"larger moduli are refused outright")
    return m


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------

def _cmd_table2(args) -> None:
    rows = cms.curve_table()
    config = {"command": "table2"}
    records = [r.to_dict() for r in rows]
    _emit(config, records, ["d", "bad_primes", "norm", "degree", "condition_c",
                            "source", "flag"], args)


def _cmd_rayclass(args) -> None:
    m = _parse_modulus(args.d, args.modulus)
    g = ray_class_group(m)
    config = {"command": "rayclass", "d": args.d, "modulus": str(g.modulus)}
    rec = g.to_dict()
    rec["unit_group_invariants"] = list(g.units.structure.invariants)
    rec["generators"] = [str(x) for x in g.structure.generators]
    _emit(config, [rec], ["modulus", "invariants", "order",
                          "unit_group_invariants", "generators"], args)


def _cmd_tower(args) -> None:
    if args.depth > MAX_TOWER_DEPTH:
        raise ConfigError(f"tower depth {args.depth} exceeds the cap {MAX_TOWER_DEPTH}; "
                          f"each level multiplies the work by q")
    tower = anticyclotomic_tower(field(args.d), args.q, args.depth)
    config = {"command": "tower", "d": args.d, "q": args.q, "depth": args.depth}
    records = []
    for lv in tower.levels:
        rec = lv.to_dict()
        rec.update({"d": args.d, "q": args.q})
        records.append(rec)
    _emit(config, records, ["d", "q", "n", "order", "invariants", "layer_degree"], args)


def _cmd_cmsearch(args) -> None:
    cands = cms.find_twist_candidates(field(args.d), args.rbound)
    config = {"command": "cmsearch", "d": args.d, "rbound": args.rbound}
    records = []
    for c in cands:
        records.append({"d": args.d, "r": c.r, "prime": str(c.prime.generator),
                        "norm": c.prime.norm(), "alpha": str(c.alpha),
                        "degree": c.degree, "condition_c": c.degree_admissible,
                        "offending_primes": list(c.offending_primes)})
    _emit(config, records, ["d", "r", "prime", "norm", "alpha", "degree",
                            "condition_c", "offending_primes"], args)


def _cmd_nonvanish(args) -> None:
    tag = field(args.d)
    lam = parse_element(tag, getattr(args, "lambda"))
    emb = ResidueEmbedding.create(tag, args.p, args.root)
    if emb.embed(lam) == 0:
        raise OkError(f"lambda {lam} lies in the chosen prime above {args.p}; "
                      f"pick the other root with --root")
    f1 = finite_field(args.p, 1)
    n1 = compute_N1(emb, lam, args.k, f1.one(), args.q)
    residue = lam.norm() * pow(emb.embed(lam), -args.k, args.p) % args.p
    distinct = distinctness_check(args.p, args.q, 3)
    config = {"command": "nonvanish", "d": args.d, "p": args.p, "q": args.q,
              "lambda": str(lam), "k": args.k, "root": emb.root}
    rec = {"d": args.d, "p": args.p, "s": emb.root, "lambda": str(lam), "k": args.k,
           "q": args.q, "residue": residue, "N1": n1,
           "distinct_roots_mod_p": distinct}
    _emit(config, [rec], ["d", "p", "s", "lambda", "k", "q", "residue", "N1",
                          "distinct_roots_mod_p"], args)


def _cmd_lseries(args) -> None:
    if args.B > MAX_TRUNCATION:
        raise ConfigError(f"truncation bound {args.B} exceeds the cap {MAX_TRUNCATION}")
    if args.s <= 1:
        raise ConfigError("s must exceed 1")
    tag = field(args.d)
    m = _parse_modulus(args.d, args.modulus)
    g = ray_class_group(m)
    exps = tuple(int(x) for x in args.char.split(",")) if args.char else \
        (0,) * len(g.presentation.invariants)
    chi = CharacterSpec(exps, 1)
    vd = evaluate_imprimitive_L(tag, m, chi, args.s, args.B)
    ve = euler_product_L(tag, m, chi, args.s, args.B)
    config = {"command": "lseries", "d": args.d, "modulus": str(g.modulus),
              "s": args.s, "B": args.B, "char": list(exps)}
    rec = {"d": args.d, "modulus": str(g.modulus), "s": args.s, "B": args.B}
    for name, v in (("dirichlet", vd), ("euler", ve)):
        val = v.to_dict()
        rec[name] = val["value"]
        rec[name + "_error"] = val["error"]
    _emit(config, [rec], ["d", "modulus", "s", "B", "dirichlet", "dirichlet_error",
                          "euler", "euler_error"], args)


def _cmd_classgroup(args) -> None:
    g = class_group(args.disc)
    config = {"command": "classgroup", "disc": args.disc,
              "S": sorted(set(args.S or []))}
    rec = {"disc": args.disc,
           "invariants": list(g.structure.invariants),
           "order": g.order,
           "p_rank_samples": {str(p): p_rank(g.structure, p) for p in (2, 3, 5, 7)}}
    if args.S:
        sg = s_class_group(args.disc, args.S)
        rec["S"] = list(sg.primes)
        rec["s_invariants"] = list(sg.structure.invariants)
        rec["s_order"] = sg.order
    _emit(config, [rec], ["disc", "invariants", "order", "S", "s_invariants",
                          "s_order"], args)


def _cmd_selmer(args) -> None:
    series = sr.ingest_tower(args.input)
    if args.p is not None and args.p != series.p:
        raise ConfigError(f"--p {args.p} conflicts with the file (p={series.p})")
    if args.dim is not None and args.dim != series.d:
        raise ConfigError(f"--dim {args.dim} conflicts with the file (d={series.d})")
    reports = sr.rank_gap_reports(series)
    stab = sr.series_stabilization(series)
    config = {"command": "selmer", "input": os.path.basename(args.input),
              "label": series.label, "p": series.p, "q": series.q, "d": series.d}
    records = []
    for lv, rep in zip(series.levels, reports):
        records.append({
            "n": lv.n, "s_f": lv.s_f, "r_cl": lv.r_cl, "r_cls": lv.r_cls,
            "modp_rank": sr.fine_selmer_mod_p_rank(lv.r_cls, series.d),
            "gap_bound": rep.bound, "observed_gap": rep.observed,
            "satisfied": rep.satisfied,
            "stabilized_at": stab})
    _emit(config, records, ["n", "s_f", "r_cl", "r_cls", "modp_rank", "gap_bound",
                            "observed_gap", "satisfied", "stabilized_at"], args)


def _cmd_fit(args) -> None:
    e = [int(x) for x in args.e.split(",")]
    result = sr.fit_iwasawa(e, args.q)
    config = {"command": "fit", "q": args.q, "e": e}
    if result is None:
        rec = {"fitted": False, "mu": None, "lambda": None, "nu": None, "n0": None}
    else:
        mu, lam, nu, n0 = result
        rec = {"fitted": True, "mu": mu, "lambda": lam, "nu": nu, "n0": n0}
    _emit(config, [rec], ["fitted", "mu", "lambda", "nu", "n0"], args)


# --------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="iqtower",
        description="Ray class groups, CM twist tables, anticyclotomic towers and "
                    "fine-Selmer rank calculus over the nine class-number-one "
                    "imaginary quadratic fields.")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--out", default=None, help="write to a file instead of stdout")

    p = sub.add_parser("table2", help="the nine-row auxiliary twist table")
    common(p)
    p.set_defaults(func=_cmd_table2)

    p = sub.add_parser("rayclass", help="ray class group of a modulus")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--modulus", required=True, help='element text, e.g. "4+1*w" or "7"')
    common(p)
    p.set_defaults(func=_cmd_rayclass)

    p = sub.add_parser("tower", help="anticyclotomic tower layers")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--depth", type=int, required=True)
    common(p)
    p.set_defaults(func=_cmd_tower)

    p = sub.add_parser("cmsearch", help="twist-prime search for d > 3")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--rbound", type=int, required=True)
    common(p)
    p.set_defaults(func=_cmd_cmsearch)

    p = sub.add_parser("nonvanish", help="residue-field Euler-factor report")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--lambda", dest="lambda", required=True, metavar="LAMBDA")
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--root", type=int, default=None,
                   help="square root of -d mod p fixing the prime (default: smallest)")
    common(p)
    p.set_defaults(func=_cmd_nonvanish)

    p = sub.add_parser("lseries", help="imprimitive Hecke L-value, two evaluations")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--modulus", required=True)
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--B", type=int, required=True)
    p.add_argument("--char", default=None,
                   help="comma-separated exponents against the group generators")
    common(p)
    p.set_defaults(func=_cmd_lseries)

    p = sub.add_parser("classgroup", help="form class group of a discriminant")
    p.add_argument("--disc", type=int, required=True)
    p.add_argument("--S", type=int, nargs="*", default=None)
    common(p)
    p.set_defaults(func=_cmd_classgroup)

    p = sub.add_parser("selmer", help="rank-gap reports for an ingested tower")
    p.add_argument("--input", required=True)
    p.add_argument("--p", type=int, default=None)
    p.add_argument("--dim", type=int, default=None)
    common(p)
    p.set_defaults(func=_cmd_selmer)

    p = sub.add_parser("fit", help="fit e_n = mu q^n + lambda n + nu")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--e", required=True, help="comma-separated values")
    common(p)
    p.set_defaults(func=_cmd_fit)
    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
        _check_threads()
        args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except sr.IngestError as exc:
        print(f"tower file rejected: {exc}", file=sys.stderr)
        return 4
    except (OkError, GroupError, FormError, FieldError) as exc:
        print(f"precondition violation: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"precondition violation: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
