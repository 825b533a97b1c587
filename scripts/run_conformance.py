#!/usr/bin/env python3
"""Run the identity conformance suite and summarize what the grid saw.

Beyond `geomstir verify` this script can widen or narrow the default grid
from the command line, shrink the first counterexample of every failing
reading to a minimal one, and rank recorded readings by failure share.

Examples:
    python3 scripts/run_conformance.py
    python3 scripts/run_conformance.py --n-max 10
    python3 scripts/run_conformance.py --select euler-rec spivey --minimize
"""

import argparse
from dataclasses import replace
from fractions import Fraction

from geomstir.cli import _fail, _write
from geomstir.harness import counterexample_minimize, default_grid, run_suite


def _revive_point(serialized: dict) -> dict:
    return {
        key: value if isinstance(value, int) else Fraction(value)
        for key, value in serialized.items()
    }


def _show(point: dict) -> str:
    return ", ".join(f"{k}={point[k]}" for k in sorted(point))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n-max", type=int, default=None,
                    help="override the grid's maximum index")
    ap.add_argument("--oracle-n-max", type=int, default=None,
                    help="override the brute-force oracle cutoff")
    ap.add_argument("--select", nargs="*", default=None,
                    help="identity ids to run (default: all)")
    ap.add_argument("--json", default=None, metavar="PATH",
                    help="also dump the full report as JSON")
    ap.add_argument("--minimize", action="store_true",
                    help="shrink the first counterexample of each failing "
                         "reading")
    args = ap.parse_args()

    grid = default_grid()
    try:
        if args.n_max is not None:
            grid = replace(grid, n_max=args.n_max)
        if args.oracle_n_max is not None:
            grid = replace(grid, oracle_n_max=args.oracle_n_max)
        if args.select is not None:
            grid = replace(grid, select=tuple(args.select))
        report = run_suite(grid)
    except ValueError as e:
        # exit 1 means a hard identity failed; a bad grid is a usage error
        return _fail(str(e))
    if args.json is not None and _write([report.to_json() + "\n"], args.json):
        return 2
    # each line is written as it is made, so the minimization shows progress
    return _write(_summary(report, args), None) or (0 if report.hard_pass else 1)


def _summary(report, args):
    """The text report, then the failure shares and, with --minimize, the
    minimal counterexamples, as lines to write."""
    yield report.to_text()
    if args.json is not None:
        yield f"\nreport written to {args.json}\n"

    failing = [
        (ident, reading)
        for ident in report.identities
        for reading in ident.readings
        if reading.failed
    ]
    if failing:
        yield "\nfailure share by reading:\n"
        ranked = sorted(
            failing, key=lambda pair: -pair[1].failed / pair[0].points
        )
        for ident, reading in ranked:
            share = reading.failed / ident.points
            yield (f"  {ident.id:>14s} / {reading.name:<16s} "
                   f"{reading.failed:4d}/{ident.points:<4d} ({share:.0%})\n")

    if args.minimize and failing:
        yield "\nminimal counterexamples:\n"
        for ident, reading in failing:
            seed = _revive_point(reading.first_counterexample["point"])
            small = counterexample_minimize(ident.id, reading.name, seed)
            yield f"  {ident.id} / {reading.name}: {_show(small)}\n"


if __name__ == "__main__":
    raise SystemExit(main())
