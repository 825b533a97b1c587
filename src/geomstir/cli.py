"""Command line surface.

Subcommands:
  compute     tables for any polynomial/number family, CSV or JSON Lines
  verify      run the identity conformance suite over a grid
  oracle      brute-force arrangement count against the explicit polynomial
  asymptotic  exact vs predicted values with error decay columns

All parameters are exact rationals written as integers or "p/q"; decimal
input is rejected to keep binary floats out of the pipeline.  Output for a
fixed invocation is byte-identical across runs.

Exit codes: 0 success, 1 identity/oracle failure, 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import replace
from fractions import Fraction

from .asymptotics import error_decay_report, format_sig
from .euler import EulerParams, _gamma_polynomials, euler_via_a
from .exppoly import ExpPolyParams, s_exp_eval, s_exp_explicit
from .geom import PolyParams, a_explicit, a_eval, m_numbers, m_polynomial
from .harness import GridSpec, _parse_rational, default_grid, run_suite
from .oracle import BPAConfig, count_bpa
from .stirling import StirlingParams, stirling_dual, stirling_rec
from .xpoly import XPolynomial

FAMILIES = ("stirling", "stirling-dual", "A", "M", "exp-poly", "euler")

def parse_rational(text: str) -> Fraction:
    try:
        return _parse_rational(text)
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e)) from None


def parse_n_range(text: str) -> list[int]:
    """Single index "4" or inclusive range "0..5"."""
    text = text.strip()
    m = re.match(r"^(\d+)\.\.(\d+)$", text)
    if m:
        lo, hi = int(m.group(1)), int(m.group(2))
        if lo > hi:
            raise argparse.ArgumentTypeError(f"empty range {text!r}")
        return list(range(lo, hi + 1))
    if re.match(r"^\d+$", text):
        return [int(text)]
    raise argparse.ArgumentTypeError(f"{text!r} is not an index or lo..hi range")


def parse_lambda_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a comma list of integers")


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _write(text: str, out: str | None):
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, XPolynomial):
        return ";".join(str(c) for c in v.coeffs)
    return str(v)


def _json_cell(v):
    if isinstance(v, XPolynomial):
        return [str(c) for c in v.coeffs]
    return str(v) if isinstance(v, Fraction) else v


def _table(header: list[str], records: list[dict], fmt: str, out: str | None,
           prefix: dict | None = None):
    """Render records keyed by header, in the one format asked for.

    Cells stay raw values until here, so each big rational is turned into a
    string once.  JSON writes rationals as strings, polynomials as lists of
    coefficient strings and everything else as is; every JSON record starts
    with the prefix fields.
    """
    if fmt == "csv":
        lines = [",".join(header)] + [
            ",".join(_csv_cell(rec[h]) for h in header) for rec in records
        ]
        _write("\n".join(lines) + "\n", out)
    else:
        _write("".join(
            json.dumps({**(prefix or {}),
                        **{h: _json_cell(rec[h]) for h in header}}) + "\n"
            for rec in records), out)


def _need(args, names: list[str]):
    missing = [f"--{'lambda' if n == 'lam' else n}" for n in names
               if getattr(args, n) is None]
    if missing:
        raise ValueError(f"family {args.family!r} needs {', '.join(missing)}")


def cmd_compute(args) -> int:
    if args.family is None:
        return _fail("compute needs a family (positional or --family)")
    try:
        header, params_repr, records = _compute_rows(args)
    except ValueError as e:
        return _fail(str(e))
    _table(header, records, args.format, args.out,
           {"family": args.family, "params": params_repr})
    return 0


def _compute_rows(args):
    """(header, params repr, records) of a compute table; cells are raw values."""
    fam = args.family
    ns = args.n
    if ns is None:
        raise ValueError("compute needs --n")

    if fam in ("stirling", "stirling-dual"):
        _need(args, ["alpha", "beta", "gamma"])
        sp = StirlingParams(args.alpha, args.beta, args.gamma)
        value = stirling_rec if fam == "stirling" else stirling_dual
        params_repr = {"alpha": str(sp.alpha), "beta": str(sp.beta),
                       "gamma": str(sp.gamma)}
        records = [{"n": n, "k": k, "value": value(sp, n, k)}
                   for n in ns
                   for k in ([args.k] if args.k is not None else range(n + 1))]
        return ["n", "k", "value"], params_repr, records

    if fam == "A":
        _need(args, ["lam", "alpha", "beta", "gamma"])
        p = PolyParams(args.lam, args.alpha, args.beta, args.gamma)
        params_repr = {"lambda": p.lam, "alpha": str(p.alpha),
                       "beta": str(p.beta), "gamma": str(p.gamma)}
        at = args.x
        value = lambda n: a_eval(p, n, at)
        poly = lambda n: a_explicit(p, n)
    elif fam == "M":
        _need(args, ["alpha", "beta"])
        params_repr = {"alpha": str(args.alpha), "beta": str(args.beta)}
        at = args.x
        value = lambda n: m_numbers(args.alpha, args.beta, at, n)
        poly = lambda n: m_polynomial(args.alpha, args.beta, n)
    elif fam == "exp-poly":
        _need(args, ["alpha", "beta", "gamma"])
        p = ExpPolyParams(args.alpha, args.beta, args.gamma)
        params_repr = {"alpha": str(p.alpha), "beta": str(p.beta),
                       "r": str(p.r)}
        at = args.x
        value = lambda n: s_exp_eval(p, n, at)
        poly = lambda n: s_exp_explicit(p, n)
    elif fam == "euler":
        _need(args, ["lam", "alpha", "beta"])
        p = EulerParams(args.lam, args.alpha, args.beta)
        params_repr = {"lambda": p.lam, "alpha": str(p.alpha),
                       "beta": str(p.beta)}
        at = args.gamma
        value = lambda n: euler_via_a(p, at, n)
        if at is None:
            # every row is read from one gamma-polynomial build at the top n
            poly = _gamma_polynomials(p, max(ns)).__getitem__
    else:
        raise ValueError(f"unsupported family {fam!r}")

    if at is None:
        return ["n", "coeffs"], params_repr, [
            {"n": n, "coeffs": poly(n)} for n in ns]
    params_repr["gamma" if fam == "euler" else "x"] = str(at)
    return ["n", "value"], params_repr, [{"n": n, "value": value(n)} for n in ns]


def cmd_verify(args) -> int:
    if args.grid is not None:
        try:
            with open(args.grid) as fh:
                spec = GridSpec.from_json(fh.read())
        except (OSError, ValueError) as e:
            return _fail(f"bad grid file {args.grid}: {e}")
    else:
        spec = default_grid()
    if args.select is not None:
        spec = replace(spec, select=tuple(args.select))
    try:
        report = run_suite(spec)
    except ValueError as e:
        return _fail(str(e))
    text = report.to_json() + "\n" if args.format == "json" else report.to_text()
    _write(text, args.out)
    return 0 if report.hard_pass else 1


def cmd_oracle(args) -> int:
    try:
        cfg = BPAConfig(args.n, args.lam, args.alpha, args.beta,
                        args.gamma, args.x)
    except ValueError as e:
        return _fail(str(e))
    counted = count_bpa(cfg)
    exact = a_eval(
        PolyParams(cfg.lam, Fraction(cfg.alpha), Fraction(cfg.beta),
                   Fraction(cfg.gamma)),
        cfg.n, Fraction(cfg.x),
    )
    verdict = "MATCH" if counted == exact else "MISMATCH"
    print(f"count={counted} explicit={exact} {verdict}")
    return 0 if verdict == "MATCH" else 1


def cmd_asymptotic(args) -> int:
    try:
        report = error_decay_report(args.alpha, args.beta, args.gamma,
                                    args.x, args.n, args.s, args.lambdas)
    except ValueError as e:
        return _fail(str(e))
    header = ["lambda", "exact", "predicted", "rel_error", "ratio"]
    records = [
        {"lambda": row.lam, "exact": row.exact, "predicted": row.predicted,
         "rel_error": format_sig(row.rel_error),
         "ratio": None if ratio is None else format_sig(ratio)}
        for row, ratio in zip(report.rows, report.ratios())
    ]
    _table(header, records, args.format, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="geomstir",
        description="exact tables and identity checks for geometric "
                    "polynomial families",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def add_rationals(p, names):
        for name in names:
            dest = "lam" if name == "lambda" else name
            p.add_argument(f"--{name}", dest=dest, type=parse_rational
                           if name != "lambda" else int, default=None)

    comp = sub.add_parser("compute", help="tabulate a family")
    comp.add_argument("family_pos", nargs="?", choices=FAMILIES, default=None,
                      metavar="family")
    comp.add_argument("--family", dest="family_flag", choices=FAMILIES,
                      default=None)
    add_rationals(comp, ["alpha", "beta", "gamma", "lambda", "x"])
    comp.add_argument("--n", type=parse_n_range, default=None,
                      help='index or inclusive range "0..5"')
    comp.add_argument("--k", type=int, default=None)
    comp.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    comp.add_argument("--out", default=None)
    comp.set_defaults(func=cmd_compute)

    ver = sub.add_parser("verify", help="run the conformance suite")
    ver.add_argument("--grid", default=None, help="GridSpec JSON file")
    ver.add_argument("--select", nargs="*", default=None,
                     help="identity ids to run (default: all)")
    ver.add_argument("--format", choices=("text", "json"), default="text")
    ver.add_argument("--out", default=None)
    ver.set_defaults(func=cmd_verify)

    orc = sub.add_parser("oracle", help="brute-force count vs polynomial")
    for name in ("n", "lambda", "alpha", "beta", "gamma", "x"):
        orc.add_argument(f"--{name}", dest="lam" if name == "lambda" else name,
                         type=int, required=True)
    orc.set_defaults(func=cmd_oracle)

    asy = sub.add_parser("asymptotic", help="error-decay table")
    add_rationals(asy, ["alpha", "beta", "gamma", "x"])
    asy.add_argument("--n", type=int, required=True)
    asy.add_argument("--s", type=int, required=True)
    asy.add_argument("--lambdas", type=parse_lambda_list, required=True,
                     help='comma list, e.g. "64,128,256"')
    asy.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    asy.add_argument("--out", default=None)
    asy.set_defaults(func=cmd_asymptotic)
    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "compute":
        if args.family_pos is not None and args.family_flag is not None \
                and args.family_pos != args.family_flag:
            return _fail("conflicting positional family and --family")
        args.family = args.family_pos or args.family_flag
    elif args.command == "asymptotic":
        for name in ("alpha", "beta", "gamma", "x"):
            if getattr(args, name) is None:
                return _fail(f"asymptotic needs --{name}")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
