"""Seeded inputs, operations and output checks of the three workloads.

A workload turns a seed into plain inputs (a grid JSON file, CLI argument
lists, parameter tuples), says which calls make up one operation, and checks
the saved outputs of an operation against an independent route of the
package.

One operation is a list of *segments*.  Each segment runs in its own fresh
process, so it starts with the empty caches a new ``geomstir`` process has.

Parameters are rationals of small bounded height, drawn so that every seed
gives the same shape, size and about the same amount of arithmetic:

* verify-wide: each grid slot keeps a fixed denominator and height class (0
  stays 0, a whole number becomes +-1 or +-2, a half-integer +-1/2 or
  +-3/2).  The grid has about fifty such draws, so their costs average out.
* tabulate-deep and series-deep: at n = 200 a different magnitude changes
  the bit length of every number, and the cost with it.  So the magnitudes
  are fixed and the seed draws signs that keep every magnitude: one sign for
  the whole (alpha, beta, gamma) triple, which only flips signs of triangle
  entries, and one for x.  The asymptotic lambdas are drawn from fixed
  ranges.
"""

from __future__ import annotations

import io
import json
import os
import random
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

# The shipped default grid's shape, copied here so that a later change to
# the program's defaults cannot change the benchmark's inputs.
_POLY = ((1, 0, 1, 0), (1, 1, 1, 1), (2, 1, 2, -1), (2, "1/2", 1, "3/2"),
         (3, -1, 1, 2), (0, 1, 2, 1))
_PAIR = ((1, 0, 1, 0, 0, 1), (1, 1, 2, -1, 1, 1), (2, "3/2", 1, "1/2", 1, 2),
         (0, 1, 2, 0, 1, 1))
_EXP = ((0, 1, 0), (1, 1, 1), (1, 2, -1), ("1/2", 1, "3/2"))
_EULER = ((1, 0, 1, 0), (1, 1, 1, 1), (2, 1, 2, -1), (3, "1/2", 1, "3/2"))
_X = (1, 2, "-1/2")

WORKLOADS = ("verify-wide", "tabulate-deep", "series-deep")


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"geomstir-bench/{workload}/{seed}")


def _draw(rng: random.Random, template) -> Fraction:
    t = Fraction(template)
    if t == 0:
        return t
    nums = (1, 2) if t.denominator == 1 else (1, 3)
    return Fraction(rng.choice((1, -1)) * rng.choice(nums), t.denominator)


def _poly_row(rng, row, int_slots):
    return [v if i in int_slots else str(_draw(rng, v)) for i, v in enumerate(row)]


def make_inputs(workload: str, seed: int, tiny: bool = False) -> dict:
    """Plain, JSON-serialisable inputs of one run; the same seed gives the
    same inputs."""
    rng = _rng(workload, seed)
    if workload == "verify-wide":
        n_max = 2 if tiny else 12
        grid = {
            "n_max": n_max,
            "oracle_n_max": 2 if tiny else 5,
            "shift_ms": [0, 1, 2],
            "poly_points": [_poly_row(rng, r, {0}) for r in _POLY],
            "pair_points": [_poly_row(rng, r, {0, 2}) for r in _PAIR],
            "exp_points": [_poly_row(rng, r, set()) for r in _EXP],
            "euler_points": [_poly_row(rng, r, {0}) for r in _EULER],
            "x_values": [str(_draw(rng, x)) for x in _X],
            "select": None,
        }
        size = (f"grid of {len(_POLY)} poly, {len(_PAIR)} pair, {len(_EXP)} exp, "
                f"{len(_EULER)} euler points and {len(_X)} x values, "
                f"n_max={n_max}, all 26 identities")
        return {"workload": workload, "seed": seed, "size": size, "grid": grid}

    sign = rng.choice((1, -1))
    alpha, beta, gamma = sign * Fraction(1, 2), sign * Fraction(1), sign * Fraction(3, 2)
    x = rng.choice((1, -1)) * Fraction(2)
    common = {"workload": workload, "seed": seed, "lam": 2, "alpha": str(alpha),
              "beta": str(beta), "gamma": str(gamma), "x": str(x)}
    if workload == "tabulate-deep":
        n, asy_n = (8, 4) if tiny else (200, 24)
        size = (f"6 compute tables at N={n} (stirling and stirling-dual row N, "
                f"A coefficients and A, exp-poly, M values for n=0..N) and one "
                f"asymptotic table at n=s={asy_n} with 4 lambdas")
        return {**common, "n": n, "asy_n": asy_n,
                "lambdas": [rng.randrange(k * asy_n, k * asy_n + asy_n // 2)
                            for k in (2, 4, 8, 16)],
                "size": size}
    if workload == "series-deep":
        euler_n, egf_order, exp_order = (4, 6, 8) if tiny else (24, 32, 60)
        size = (f"euler polynomial table n=0..{euler_n}, a_egf to order "
                f"{egf_order}, s_exp_egf to order {exp_order}")
        return {**common, "euler_n": euler_n, "egf_order": egf_order,
                "exp_order": exp_order, "size": size}
    raise ValueError(f"unknown workload {workload!r}")


def write_input_files(inputs: dict, workdir: str) -> dict:
    """Write the files the program reads; return the inputs with their paths."""
    if inputs["workload"] != "verify-wide":
        return inputs
    path = os.path.join(workdir, "grid.json")
    with open(path, "w") as fh:
        json.dump(inputs["grid"], fh, indent=2)
    return {**inputs, "grid_file": path}


def _rat(name: str, value: str) -> str:
    # "--gamma=-3/2": a leading minus must stay attached to its option
    return f"--{name}={value}"


def operation(inputs: dict) -> list[list[tuple]]:
    """The segments of one operation; each call is ("cli", argv) or a
    library call ("a_egf", ...) / ("s_exp_egf", ...)."""
    w = inputs["workload"]
    if w == "verify-wide":
        return [[("cli", ["verify", "--grid", inputs["grid_file"], "--format", "json"])]]
    a, b, g, x = (_rat(k, inputs[k]) for k in ("alpha", "beta", "gamma", "x"))
    lam = ["--lambda", str(inputs["lam"])]
    if w == "tabulate-deep":
        n = str(inputs["n"])
        span = f"0..{n}"
        return [
            [("cli", ["compute", "stirling", a, b, g, "--n", n])],
            [("cli", ["compute", "stirling-dual", a, b, g, "--n", n])],
            [("cli", ["compute", "A", *lam, a, b, g, "--n", span])],
            [("cli", ["compute", "A", *lam, a, b, g, x, "--n", span])],
            [("cli", ["compute", "exp-poly", a, b, g, x, "--n", span])],
            [("cli", ["compute", "M", a, b, x, "--n", span])],
            [("cli", ["asymptotic", a, b, g, x, "--n", str(inputs["asy_n"]),
                      "--s", str(inputs["asy_n"]), "--lambdas",
                      ",".join(str(v) for v in inputs["lambdas"])])],
        ]
    params = (inputs["lam"], inputs["alpha"], inputs["beta"], inputs["gamma"])
    return [[
        ("cli", ["compute", "euler", *lam, a, b, "--n", f"0..{inputs['euler_n']}"]),
        ("a_egf", params, inputs["egf_order"]),
        ("s_exp_egf", params[1:], inputs["x"], inputs["exp_order"]),
    ]]


def run_call(call: tuple):
    """Run one call; return (exit code, result, seconds).  Only the program
    call itself is timed.  The result of a CLI call is its stdout text; a
    library call returns the object it computed."""
    import geomstir.cli
    import geomstir.exppoly
    import geomstir.geom

    kind = call[0]
    if kind == "cli":
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                rc = geomstir.cli.main(list(call[1]))
            except SystemExit as e:  # argparse usage errors
                rc = e.code if isinstance(e.code, int) else 2
            seconds = time.perf_counter() - t0
        return rc, out.getvalue(), seconds
    if kind == "a_egf":
        (lam, a, b, g), order = call[1], call[2]
        p = geomstir.geom.PolyParams(lam, Fraction(a), Fraction(b), Fraction(g))
        t0 = time.perf_counter()
        result = geomstir.geom.a_egf(p, order)
        return 0, result, time.perf_counter() - t0
    if kind == "s_exp_egf":
        (a, b, r), x, order = call[1], call[2], call[3]
        p = geomstir.exppoly.ExpPolyParams(Fraction(a), Fraction(b), Fraction(r))
        x = Fraction(x)
        t0 = time.perf_counter()
        result = geomstir.exppoly.s_exp_egf(p, x, order)
        return 0, result, time.perf_counter() - t0
    raise ValueError(f"unknown call kind {kind!r}")


def render(call: tuple, result) -> str:
    """Text form of a call's result, compared byte for byte across operations."""
    if call[0] == "cli":
        return result
    if call[0] == "a_egf":
        return "".join(";".join(str(c) for c in v.coeffs) + "\n" for v in result.values)
    return "".join(f"{v}\n" for v in result.egf_values())


# ---------------------------------------------------------------------------
# output checks; they run outside the timed region on the saved outputs


def _sample(rng: random.Random, lo: int, hi: int, k: int) -> list[int]:
    return sorted({lo, hi, *rng.sample(range(lo, hi + 1), min(k, hi - lo + 1))})


def _csv(text: str) -> list[list[str]]:
    return [line.split(",") for line in text.splitlines()[1:]]


def check(inputs: dict, outputs: list[str]) -> list[str]:
    """Problems found in one operation's outputs (one text per call, in
    operation order); empty when every checked value is right."""
    w = inputs["workload"]
    if w == "verify-wide":
        return _check_verify(outputs[0])
    if w == "tabulate-deep":
        return _check_tabulate(inputs, outputs)
    return _check_series(inputs, outputs)


def _check_verify(text: str) -> list[str]:
    report = json.loads(text)
    problems = []
    if report.get("hard_pass") is not True:
        problems.append("hard_pass is not true")
    if len(report["identities"]) != 26:
        problems.append(f"{len(report['identities'])} identities, expected 26")
    for ident in report["identities"]:
        if ident["kind"] == "hard" and ident["points"] <= 0:
            problems.append(f"hard identity {ident['id']} ran on no points")
        for r in ident["readings"]:
            if r["pass"] + r["fail"] != ident["points"]:
                problems.append(f"{ident['id']}/{r['name']}: pass + fail != points")
    return problems


def _check_tabulate(inputs: dict, outputs: list[str]) -> list[str]:
    from geomstir.exppoly import ExpPolyParams, s_exp_egf
    from geomstir.geom import PolyParams, a_recurrence
    from geomstir.stirling import StirlingParams, stirling_explicit

    rng = _rng("tabulate-deep/check", inputs["seed"])
    a, b, g, x = (Fraction(inputs[k]) for k in ("alpha", "beta", "gamma", "x"))
    lam, n = inputs["lam"], inputs["n"]
    problems = []

    def expect(what, got, want):
        if Fraction(got) != want:
            problems.append(f"{what}: table has {got}, independent route gives {want}")

    sp = StirlingParams(a, b, g)
    stir, dual, a_coef, a_val, exp_val, m_val, asy = (_csv(t) for t in outputs)
    # finite-difference form against the recurrence-built rows
    for k in _sample(rng, 0, min(n, 12), 4):
        expect(f"stirling({n},{k})", stir[k][2], stirling_explicit(sp, n, k))
        expect(f"stirling-dual({n},{k})", dual[k][2], stirling_explicit(sp.dual(), n, k))
    # order/argument raising recurrence against the Stirling column sum
    small = min(n, 30)
    pa = PolyParams(lam, a, b, g)
    pm = PolyParams(1, a, b, Fraction(0))
    pe = ExpPolyParams(a, b, g)
    series_exp = s_exp_egf(pe, x, small)
    for m in _sample(rng, 0, small, 5):
        want = a_recurrence(pa, m)
        got = [Fraction(c) for c in a_coef[m][1].split(";")] if a_coef[m][1] else []
        if got != list(want.coeffs):
            problems.append(f"A_{m} coefficients differ from the recurrence route")
        expect(f"A_{m}(x)", a_val[m][1], want(x))
        expect(f"M_{m}(x)", m_val[m][1], a_recurrence(pm, m)(x))
        expect(f"S_{m}(x)", exp_val[m][1], series_exp.egf_value(m))
    for table in (a_coef, a_val, exp_val, m_val):
        if [int(r[0]) for r in table] != list(range(n + 1)):
            problems.append("a value table does not list n = 0..N")
    # at full depth the expansion is exact, so predicted must equal exact
    asy_n = inputs["asy_n"]
    exact = {lam_: a_recurrence(PolyParams(lam_, a, b, lam_ * g), asy_n)(x)
             for lam_ in inputs["lambdas"]}
    for row in asy:
        if Fraction(row[1]) != Fraction(row[2]) or row[3] != "0":
            problems.append(f"asymptotic row lambda={row[0]} is not exact at full depth")
        expect(f"asymptotic exact lambda={row[0]}", row[1], exact[int(row[0])])
    if [int(r[0]) for r in asy] != inputs["lambdas"]:
        problems.append("asymptotic table does not list the requested lambdas")
    return problems


def _check_series(inputs: dict, outputs: list[str]) -> list[str]:
    from geomstir.euler import EulerParams, euler_via_a
    from geomstir.exppoly import ExpPolyParams, s_exp_eval
    from geomstir.geom import PolyParams, a_explicit
    from geomstir.xpoly import XPolynomial

    rng = _rng("series-deep/check", inputs["seed"])
    a, b, g, x = (Fraction(inputs[k]) for k in ("alpha", "beta", "gamma", "x"))
    lam = inputs["lam"]
    problems = []
    euler_rows, egf_lines, exp_lines = _csv(outputs[0]), outputs[1].splitlines(), \
        outputs[2].splitlines()

    ep = EulerParams(lam, a, b)
    if len(euler_rows) != inputs["euler_n"] + 1:
        problems.append("euler table has the wrong number of rows")
    for n in _sample(rng, 0, inputs["euler_n"], 4):
        poly = XPolynomial([Fraction(c) for c in euler_rows[n][1].split(";") if c])
        for gv in (g, g + 1):
            if poly(gv) != euler_via_a(ep, gv, n):
                problems.append(f"E_{n}({gv}) differs from the A-specialization route")

    pa = PolyParams(lam, a, b, g)
    if len(egf_lines) != inputs["egf_order"] + 1:
        problems.append("a_egf returned the wrong number of polynomials")
    for n, line in enumerate(egf_lines):
        got = [Fraction(c) for c in line.split(";") if c]
        if got != list(a_explicit(pa, n).coeffs):
            problems.append(f"a_egf A_{n} differs from the Stirling column sum")

    pe = ExpPolyParams(a, b, g)
    if len(exp_lines) != inputs["exp_order"] + 1:
        problems.append("s_exp_egf returned the wrong order")
    for n, line in enumerate(exp_lines):
        if Fraction(line) != s_exp_eval(pe, n, x):
            problems.append(f"s_exp_egf S_{n}(x) differs from the triangle rows")
    return problems
