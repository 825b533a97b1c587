#!/usr/bin/env python3
"""Measure how fast the truncated large-order expansion converges.

For each truncation depth s the leading neglected term scales like
lambda^-(s+1), so doubling lambda should divide the relative error by
about 2^(s+1).  The script tabulates exact errors over a geometric
lambda ladder and reports the observed order next to that prediction.

Example:
    python3 scripts/error_decay_study.py --n 5 --depths 1,2,3 \
        --lambda-start 32 --doublings 5
"""

import argparse
import math
from fractions import Fraction

from geomstir.asymptotics import MAX_LAMBDAS, error_decay_reports, format_sig
from geomstir.cli import (MAX_N, MAX_S, _fail, _write, parse_lambda_list,
                          parse_rational)


def _arg(parse):
    """parse as an argparse type, whose ValueError text is the usage error."""
    def convert(text: str):
        try:
            return parse(text)
        except ValueError as e:
            raise argparse.ArgumentTypeError(str(e)) from None
    return convert


def main() -> int:
    rational = _arg(parse_rational)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--alpha", type=rational, default=Fraction(1))
    ap.add_argument("--beta", type=rational, default=Fraction(1))
    ap.add_argument("--gamma", type=rational, default=Fraction(0))
    ap.add_argument("--x", type=rational, default=Fraction(1))
    ap.add_argument("--n", type=int, default=4)
    ap.add_argument("--depths", type=_arg(parse_lambda_list), default=[1, 2, 3],
                    help="comma list of truncation depths s")
    ap.add_argument("--lambda-start", type=int, default=32)
    ap.add_argument("--doublings", type=int, default=5)
    args = ap.parse_args()

    # the caps of `geomstir asymptotic`, checked before the ladder is built;
    # error_decay_reports checks the size of each lambda.  It reports every
    # distinct depth up to n from one exact column and one W row.
    run = dict.fromkeys(s for s in args.depths if s <= args.n)
    if args.n > MAX_N:
        return _fail(f"--n {args.n} is past the cap of {MAX_N}")
    if any(s > MAX_S for s in run):
        return _fail(f"--depths {max(run)} is past the cap of {MAX_S}")
    if args.doublings + 1 > MAX_LAMBDAS:
        return _fail(f"--doublings {args.doublings} makes {args.doublings + 1}"
                     f" lambdas, past the cap of {MAX_LAMBDAS}")
    lams = [args.lambda_start * 2**i for i in range(args.doublings + 1)]
    # every report is computed before the first line is printed, so a bad
    # input ends in one error line and exit 2, with no partial table
    try:
        reports = error_decay_reports(args.alpha, args.beta, args.gamma,
                                      args.x, args.n, list(run), lams) if run else {}
    except ValueError as e:
        return _fail(str(e))
    return _write(_study(args, lams, reports), None)


def _study(args, lams, reports):
    """The study's lines: one error table per depth, then the observed
    orders."""
    yield (f"n={args.n}  alpha={args.alpha} beta={args.beta} "
           f"gamma={args.gamma} x={args.x}\n")
    yield f"lambda ladder: {', '.join(map(str, lams))}\n\n"

    summary = []
    for s in args.depths:
        if s > args.n:
            yield f"s={s}: skipped (depth cannot exceed n={args.n})\n"
            continue
        report = reports[s]
        yield f"s={s}\n"
        yield (f"  {'lambda':>8s} {'rel_error':>16s} {'ratio':>14s} "
               f"{'order':>7s}\n")
        orders = []
        for row, ratio in zip(report.rows, report.ratios()):
            if ratio is None or ratio == 0:
                ratio_cell, order_cell = "-", "-"
            else:
                order = -math.log2(float(ratio))
                orders.append(order)
                ratio_cell = format_sig(ratio, 6)
                order_cell = f"{order:.3f}"
            yield (f"  {row.lam:>8d} {format_sig(row.rel_error, 6):>16s} "
                   f"{ratio_cell:>14s} {order_cell:>7s}\n")
        if orders:
            summary.append((s, orders[-1]))
        yield "\n"

    if summary:
        yield "observed order at the largest lambda vs s+1:\n"
        for s, order in summary:
            yield f"  s={s}: {order:.3f} (predicted {s + 1})\n"


if __name__ == "__main__":
    raise SystemExit(main())
