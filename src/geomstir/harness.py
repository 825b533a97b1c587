"""Conformance harness: every identity in the library, run over a grid.

Each registry entry owns an id, a kind, an anchor (a plain rendering of the
statement being tested), a point generator, a domain predicate (the points
the identity is stated for; both the grid and the counterexample shrinker
stay inside it), and an evaluator that returns both sides of the identity
for every reading of it.  A reading passes at a point when its two sides
are exactly equal.

Kinds:
  * hard      -- identities that hold for all parameters; any failure is an
                 implementation bug and should fail the build.
  * recorded  -- circulating displays with known defects, tracked alongside
                 their repaired readings; failures are reported, not fatal.

Reports are deterministic: same GridSpec, byte-identical output.
"""

from __future__ import annotations

import json
import math
import re
import reprlib
from dataclasses import dataclass, fields, replace
from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import Callable

from .euler import (
    EulerParams,
    HALF,
    _ev as euler_value,
    _gamma_polynomials,
    euler_egf,
    euler_explicit,
    euler_via_a,
)
from .exppoly import ExpPolyParams, lemma34_sides, s_exp_eval, s_exp_egf
from .geom import (
    PolyParams,
    _stirling_a,
    a_egf,
    a_eval,
    a_explicit,
    a_recurrence,
    lam_binom,
)
from .oracle import MAX_ORACLE_N, BPAConfig, count_bpa
from .series import SERIES_CACHE_SIZE, Series, gff, rising
from .stirling import (
    StirlingParams,
    param_swap_rhs,
    stirling_explicit,
    stirling_rec,
    stirling_row,
)
from .xpoly import XPolynomial

SCHEMA = "geomstir-conformance/1"

_RATIONAL = re.compile(r"^[+-]?\d+(/[1-9]\d*)?$")


def _parse_rational(text: str) -> Fraction:
    """An integer or "p/q" with q > 0 as an exact Fraction; decimals and
    anything else raise ValueError, so no binary float gets in."""
    text = text.strip()
    if not _RATIONAL.match(text):
        raise ValueError(f"{text!r} is not an exact rational; write an integer or p/q")
    return Fraction(text)


# ---------------------------------------------------------------------------
# grid


@dataclass(frozen=True)
class GridSpec:
    """Declarative parameter grid.  All rationals, finite, deterministic.

    select = None runs every identity; an explicit tuple runs that subset
    (empty tuple: nothing).
    """

    n_max: int = 8
    oracle_n_max: int = 5
    shift_ms: tuple[int, ...] = (0, 1, 2)
    poly_points: tuple[tuple, ...] = ()    # (lam, alpha, beta, gamma)
    pair_points: tuple[tuple, ...] = ()    # (lam1, g1, lam2, g2, alpha, beta)
    exp_points: tuple[tuple, ...] = ()     # (alpha, beta, r)
    euler_points: tuple[tuple, ...] = ()   # (lam, alpha, beta, gamma)
    x_values: tuple[Fraction, ...] = ()
    select: tuple[str, ...] | None = None

    def __post_init__(self):
        # only exact values get in: ints (not bools) for orders, ints or
        # Fractions for parameters; anything else is a ValueError
        for key in ("n_max", "oracle_n_max"):
            _count(key, getattr(self, key))
        for key in _ROW_KINDS:
            object.__setattr__(self, key, _rows(key, getattr(self, key)))
        object.__setattr__(self, "x_values",
                           tuple(_exact("x_values", x) for x in self.x_values))
        object.__setattr__(self, "shift_ms",
                           tuple(_count("shift_ms", m) for m in self.shift_ms))
        if self.select is not None:
            object.__setattr__(self, "select", tuple(str(s) for s in self.select))

    def stirling_triples(self) -> tuple[tuple, ...]:
        seen, out = set(), []
        for _, a, b, g in self.poly_points:
            if (a, b, g) not in seen:
                seen.add((a, b, g))
                out.append((a, b, g))
        return tuple(out)

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2)

    def as_dict(self) -> dict:
        return {
            "n_max": self.n_max,
            "oracle_n_max": self.oracle_n_max,
            "shift_ms": list(self.shift_ms),
            "poly_points": [[p[0], str(p[1]), str(p[2]), str(p[3])]
                            for p in self.poly_points],
            "pair_points": [[p[0], str(p[1]), p[2], str(p[3]), str(p[4]), str(p[5])]
                            for p in self.pair_points],
            "exp_points": [[str(a), str(b), str(r)] for a, b, r in self.exp_points],
            "euler_points": [[p[0], str(p[1]), str(p[2]), str(p[3])]
                             for p in self.euler_points],
            "x_values": [str(x) for x in self.x_values],
            "select": None if self.select is None else list(self.select),
        }

    @classmethod
    def from_json(cls, text: str) -> "GridSpec":
        """Parse a grid file; any malformed field raises ValueError.

        Keys left out of the file keep their shipped defaults, so a file
        like {"n_max": 10} widens the standard grid instead of emptying it;
        a key GridSpec does not have is an error, not a silent default.
        """
        try:
            raw = json.loads(text)
        except RecursionError:
            raise ValueError("JSON nested too deeply") from None
        if not isinstance(raw, dict):
            raise ValueError("a grid file holds one JSON object")
        unknown = sorted(set(raw) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown grid keys: {', '.join(map(repr, unknown))}")
        return replace(default_grid(), **{
            key: _field(key, value) for key, value in raw.items()
        })


# grid rows: "n" is a non-negative int (an order), "q" an exact rational
_ROW_KINDS = {
    "poly_points": "nqqq",    # lam, alpha, beta, gamma
    "pair_points": "nqnqqq",  # lam1, gamma1, lam2, gamma2, alpha, beta
    "exp_points": "qqq",      # alpha, beta, r
    "euler_points": "nqqq",   # lam, alpha, beta, gamma
}


def _field(key: str, value):
    """One grid-file field in the types GridSpec takes: JSON lists become
    tuples and "p/q" strings Fractions; GridSpec checks the values."""
    if key in ("n_max", "oracle_n_max") or (key == "select" and value is None):
        return value
    if not isinstance(value, list):
        raise ValueError(f"{key} must be a list, got {reprlib.repr(value)}")
    if key == "select":
        if not all(isinstance(s, str) for s in value):
            raise ValueError("select must be null or a list of identity ids")
        return tuple(value)
    if key not in _ROW_KINDS:
        return tuple(_json_scalar(key, v) for v in value)
    for row in value:
        if not isinstance(row, list):
            raise ValueError(f"each {key} row is a list, got {reprlib.repr(row)}")
    return tuple(tuple(_json_scalar(key, v) for v in row) for row in value)


def _json_scalar(key: str, value):
    if not isinstance(value, str):
        return value
    try:
        return _parse_rational(value)
    except ValueError as e:
        raise ValueError(f"{key}: {e}") from None


def _rows(key: str, rows) -> tuple:
    kinds = _ROW_KINDS[key]
    out = []
    for row in rows:
        if not isinstance(row, (tuple, list)) or len(row) != len(kinds):
            raise ValueError(f"each {key} row has {len(kinds)} entries, "
                             f"got {reprlib.repr(row)}")
        out.append(tuple(_count(key, v) if kind == "n" else _exact(key, v)
                         for kind, v in zip(kinds, row)))
    return tuple(out)


def _count(key: str, value) -> int:
    # bool is an int subclass; true must not read as 1
    if type(value) is not int or value < 0:
        raise ValueError(f"{key} needs non-negative integers, got {reprlib.repr(value)}")
    return value


def _exact(key: str, value) -> Fraction:
    # a float would get in as its binary value, 0.1 as 3602879701896397/2**55
    if type(value) is int:
        return Fraction(value)
    if isinstance(value, Fraction):
        return value
    raise ValueError(f"{key} needs integers or Fractions (in a grid file, "
                     f"integers or \"p/q\" strings), got {reprlib.repr(value)}")


def default_grid() -> GridSpec:
    q = Fraction
    return GridSpec(
        n_max=8,
        oracle_n_max=5,
        shift_ms=(0, 1, 2),
        poly_points=(
            (1, q(0), q(1), q(0)),
            (1, q(1), q(1), q(1)),
            (2, q(1), q(2), q(-1)),
            (2, q(1, 2), q(1), q(3, 2)),
            (3, q(-1), q(1), q(2)),
            (0, q(1), q(2), q(1)),
        ),
        pair_points=(
            (1, q(0), 1, q(0), q(0), q(1)),
            (1, q(1), 2, q(-1), q(1), q(1)),
            (2, q(3, 2), 1, q(1, 2), q(1), q(2)),
            (0, q(1), 2, q(0), q(1), q(1)),
        ),
        exp_points=(
            (q(0), q(1), q(0)),
            (q(1), q(1), q(1)),
            (q(1), q(2), q(-1)),
            (q(1, 2), q(1), q(3, 2)),
        ),
        euler_points=(
            (1, q(0), q(1), q(0)),
            (1, q(1), q(1), q(1)),
            (2, q(1), q(2), q(-1)),
            (3, q(1, 2), q(1), q(3, 2)),
        ),
        x_values=(q(1), q(2), q(-1, 2)),
    )


# ---------------------------------------------------------------------------
# identity registry

Sides = "tuple[object, object]"
Point = dict


def _params(pt: Point) -> PolyParams:
    return PolyParams(pt["lam"], pt["alpha"], pt["beta"], pt["gamma"])


def _poly_pts(grid: GridSpec, rows=None, shifted=False):
    """(lam, alpha, beta, gamma, n) points over rows (default: poly_points);
    shifted adds every m of shift_ms."""
    pts = []
    for lam, a, b, g in grid.poly_points if rows is None else rows:
        for n in range(grid.n_max + 1):
            pt = {"lam": lam, "alpha": a, "beta": b, "gamma": g, "n": n}
            if shifted:
                pts.extend({**pt, "m": m} for m in grid.shift_ms)
            else:
                pts.append(pt)
    return pts


def _at_top_order(points):
    """points plus "order": grid.n_max, for a route that reads every n from
    one series build per parameter set at the grid's top order."""
    return lambda grid: [{**pt, "order": grid.n_max} for pt in points(grid)]


@lru_cache(maxsize=SERIES_CACHE_SIZE)
def _series_build(route, *args):
    """route(*args), built once: every point of a parameter set reads its n
    from the same order-`order` build (truncated series are prefix-stable)."""
    return route(*args)


def _stirling_pts(grid: GridSpec):
    return [
        {"alpha": a, "beta": b, "gamma": g, "n": n}
        for a, b, g in grid.stirling_triples()
        for n in range(grid.n_max + 1)
    ]


def _pair_pts(grid: GridSpec):
    return [
        {"lam1": l1, "gamma1": g1, "lam2": l2, "gamma2": g2,
         "alpha": a, "beta": b, "n": n}
        for l1, g1, l2, g2, a, b in grid.pair_points
        for n in range(grid.n_max + 1)
    ]


def _ev_routes_a(pt: Point) -> dict:
    p, n = _params(pt), pt["n"]
    e = a_explicit(p, n)
    return {
        "explicit-vs-series": (e, a_egf(p, pt["order"]).values[n]),
        "explicit-vs-recurrence": (e, a_recurrence(p, n)),
    }


def _ev_routes_stirling(pt: Point) -> dict:
    sp = StirlingParams(pt["alpha"], pt["beta"], pt["gamma"])
    n = pt["n"]
    exp_row = tuple(stirling_explicit(sp, n, k) for k in range(n + 1))
    return {"explicit-vs-recurrence": (exp_row, stirling_row(sp, n))}


def _ev_orthogonality(pt: Point) -> dict:
    sp = StirlingParams(pt["alpha"], pt["beta"], pt["gamma"])
    dp = sp.dual()
    n = pt["n"]
    unit = tuple(Fraction(int(m == n)) for m in range(n + 1))
    fwd = tuple(
        sum((stirling_rec(sp, n, k) * stirling_rec(dp, k, m)
             for k in range(n + 1)), Fraction(0))
        for m in range(n + 1)
    )
    bwd = tuple(
        sum((stirling_rec(dp, n, k) * stirling_rec(sp, k, m)
             for k in range(n + 1)), Fraction(0))
        for m in range(n + 1)
    )
    return {"forward": (fwd, unit), "backward": (bwd, unit)}


def _oracle_pts(grid: GridSpec):
    cap = min(grid.oracle_n_max, MAX_ORACLE_N)
    pts = []
    for lam, a, b, g, x in product((0, 1, 2), (0, 1), (1, 2), (0, 1), (1, 2)):
        for n in range(cap + 1):
            pts.append({"lam": lam, "alpha": a, "beta": b, "gamma": g,
                        "x": x, "n": n})
    return pts


def _ev_oracle(pt: Point) -> dict:
    cfg = BPAConfig(pt["n"], pt["lam"], pt["alpha"], pt["beta"],
                    pt["gamma"], pt["x"])
    counted = Fraction(count_bpa(cfg))
    p = PolyParams(pt["lam"], Fraction(pt["alpha"]), Fraction(pt["beta"]),
                   Fraction(pt["gamma"]))
    return {"count-vs-explicit": (counted, a_eval(p, pt["n"], Fraction(pt["x"])))}


def _ev_thm6(pt: Point) -> dict:
    p, n = _params(pt), pt["n"]
    rhs = p.gamma * a_explicit(replace(p, gamma=p.gamma + p.alpha), n)
    rhs = rhs + (p.lam * p.beta * a_explicit(
        replace(p, lam=p.lam + 1, gamma=p.gamma + p.beta + p.alpha), n
    )).times_x()
    return {"main": (a_explicit(p, n + 1), rhs)}


def _ev_thm2(pt: Point) -> dict:
    p, n = _params(pt), pt["n"]
    lhs = a_explicit(p, n + 1)
    head = p.gamma * a_explicit(replace(p, gamma=p.gamma + p.alpha), n)
    zero_gamma = replace(p, gamma=Fraction(0))

    def tail(factor):
        acc = XPolynomial.zero()
        for k in range(n + 1):
            acc = acc + (math.comb(n, k) * a_explicit(factor, k)
                         * a_explicit(zero_gamma, n - k + 1))
        return acc

    return {
        "statement": (lhs, head + tail(replace(p, lam=0))),
        "proof": (lhs, head + tail(replace(p, beta=Fraction(0)))),
    }


def _ev_thm4(pt: Point) -> dict:
    p, n = _params(pt), pt["n"]
    rhs = p.gamma * a_explicit(replace(p, gamma=p.gamma + p.alpha), n)
    one_sec = replace(p, lam=1, gamma=p.gamma + p.beta + p.alpha)
    zero_gamma = replace(p, gamma=Fraction(0))
    conv = XPolynomial.zero()
    for k in range(n + 1):
        conv = conv + (math.comb(n, k) * a_explicit(one_sec, k)
                       * a_explicit(zero_gamma, n - k))
    rhs = rhs + (p.lam * p.beta * conv).times_x()
    return {"main": (a_explicit(p, n + 1), rhs)}


def _eq6_sides(pt: Point, removal_sign: int):
    p, n = _params(pt), pt["n"]
    lhs = a_explicit(replace(p, gamma=Fraction(0)), n)
    acc = XPolynomial.zero()
    for k in range(n + 1):
        acc = acc + (math.comb(n, k) * (-1) ** k
                     * gff(p.gamma, -removal_sign * p.alpha, k)
                     * a_explicit(p, n - k))
    return lhs, acc


def _ev_eq6(pt: Point) -> dict:
    return {"reflected": _eq6_sides(pt, -1)}


def _ev_eq6_printed(pt: Point) -> dict:
    # repaired reading included for side-by-side comparison
    return {"printed": _eq6_sides(pt, 1), "reflected": _eq6_sides(pt, -1)}


def _ev_eq7(pt: Point) -> dict:
    p, n = _params(pt), pt["n"]
    sp0 = StirlingParams(p.alpha, -p.beta, Fraction(0))
    rhs = XPolynomial.zero()
    for k in range(n + 1):
        c = lam_binom(p.lam, k)
        if not c:
            continue
        for i in range(n + 1):
            s = stirling_rec(sp0, i, k)
            if not s:
                continue
            rhs = rhs + XPolynomial.constant(
                c * math.comb(n, i) * (-1) ** (k + i) * p.beta ** k
                * math.factorial(k) * s * gff(p.gamma, -p.alpha, n - i)
            ).times_x(k)
    return {"main": (a_explicit(p, n), rhs)}


def _ev_eq8(pt: Point) -> dict:
    sp = StirlingParams(pt["alpha"], pt["beta"], pt["gamma"])
    n = pt["n"]
    swapped = StirlingParams(sp.alpha, sp.gamma, sp.beta)
    doubled = StirlingParams(sp.alpha, sp.beta, 2 * sp.gamma)
    rhs = tuple(param_swap_rhs(sp, n, k) for k in range(n + 1))
    return {
        "printed": (stirling_row(swapped, n), rhs),
        "gamma-doubled": (stirling_row(doubled, n), rhs),
    }


def _ev_eq31(pt: Point) -> dict:
    p, n = _params(pt), pt["n"]
    lifted = replace(p, lam=p.lam + 1)
    lhs = XPolynomial.x() * a_explicit(replace(lifted, gamma=p.gamma + p.beta), n)
    rhs = XPolynomial((1, 1)) * a_explicit(lifted, n) - a_explicit(p, n)
    return {"main": (lhs, rhs)}


def _ev_eq32(pt: Point) -> dict:
    p, n = _params(pt), pt["n"]
    lifted = replace(p, lam=p.lam + 1)
    lhs = a_explicit(replace(p, gamma=p.gamma - p.alpha), n + 1) \
        - p.lam * p.beta * XPolynomial((1, 1)) * a_explicit(lifted, n)
    rhs = (p.gamma - p.alpha - p.lam * p.beta) * a_explicit(p, n)
    return {"main": (lhs, rhs)}


def _sub_neg(poly: XPolynomial) -> XPolynomial:
    return poly(XPolynomial((-1, -1)))


def _ev_eq37(pt: Point) -> dict:
    p, n = _params(pt), pt["n"]
    t1 = a_explicit(replace(p, gamma=p.gamma + p.beta * p.lam), n)
    t2 = _sub_neg(a_explicit(replace(p, beta=-p.beta), n))
    t3r = (-1) ** n * _sub_neg(
        a_explicit(replace(p, alpha=-p.alpha, gamma=-p.gamma), n)
    )
    return {"pair": (t1, t2), "third-reflected": (t1, t3r)}


def _ev_eq37_printed(pt: Point) -> dict:
    p, n = _params(pt), pt["n"]
    t1 = a_explicit(replace(p, gamma=p.gamma + p.beta * p.lam), n)
    t3p = (-1) ** n * _sub_neg(a_explicit(replace(p, gamma=-p.gamma), n))
    t3r = (-1) ** n * _sub_neg(
        a_explicit(replace(p, alpha=-p.alpha, gamma=-p.gamma), n)
    )
    return {"third-printed": (t1, t3p), "third-reflected": (t1, t3r)}


def _ev_eq38(pt: Point) -> dict:
    p, n = _params(pt), pt["n"]
    sp = StirlingParams(p.alpha, p.beta, p.beta * p.lam - p.gamma)
    xp1 = XPolynomial((1, 1))
    rhs = XPolynomial.zero()
    for k in range(n + 1):
        c = lam_binom(p.lam, k)
        if not c:
            continue
        rhs = rhs + (c * (-p.beta) ** k * math.factorial(k)
                     * stirling_rec(sp, n, k)) * xp1 ** k
    return {"main": (a_explicit(p, n), (-1) ** n * rhs)}


def _pair_conv(pt: Point, second_lam: int) -> XPolynomial:
    a, b = pt["alpha"], pt["beta"]
    first = PolyParams(pt["lam1"], a, b, a + b + pt["gamma1"])
    second = PolyParams(second_lam, a, b, pt["gamma2"])
    acc = XPolynomial.zero()
    for k in range(pt["n"] + 1):
        acc = acc + (math.comb(pt["n"], k) * a_explicit(first, k)
                     * a_explicit(second, pt["n"] - k))
    return acc


def _ev_teo2(pt: Point) -> dict:
    a, b, n = pt["alpha"], pt["beta"], pt["n"]
    lam = pt["lam1"] + pt["lam2"]
    rhs = a_explicit(PolyParams(lam, a, b, a + b + pt["gamma1"] + pt["gamma2"]), n)
    return {"main": (_pair_conv(pt, pt["lam2"]), rhs)}


def _ev_teo1(pt: Point) -> dict:
    a, b, n = pt["alpha"], pt["beta"], pt["n"]
    lam = pt["lam1"] + pt["lam2"]
    gsum = pt["gamma1"] + pt["gamma2"]
    rhs = a_explicit(PolyParams(lam, a, b, gsum), n + 1) \
        - gsum * a_explicit(PolyParams(lam, a, b, gsum + a), n)
    return {
        "printed": ((b * lam * _pair_conv(pt, pt["lam2"])).times_x(), rhs),
        "shifted": ((b * lam * _pair_conv(pt, pt["lam2"] + 1)).times_x(), rhs),
    }


def _ev_shift_raise(pt: Point) -> dict:
    p, n, m = _params(pt), pt["n"], pt["m"]
    sp = _stirling_a(p)
    rhs = XPolynomial.zero()
    for k in range(m + 1):
        term = (stirling_rec(sp, m, k) * lam_binom(p.lam, k)
                * math.factorial(k) * (-p.beta) ** k
                * a_explicit(
                    PolyParams(p.lam + k, p.alpha, p.beta,
                               p.gamma + m * p.alpha + k * p.beta), n))
        rhs = rhs + term.times_x(k)
    return {"main": ((-1) ** m * a_explicit(p, n + m), rhs)}


_SHIFT_MARKERS = (Fraction(1), Fraction(2), Fraction(-3, 2))


def _shift_inverse_sides(pt: Point, arg_shift) -> tuple:
    p, n, m = _params(pt), pt["n"], pt["m"]
    lam, a, b, g = p.lam, p.alpha, p.beta, p.gamma
    dual = StirlingParams(a, -b, -g + m * a - lam * b).dual()
    lhs_vals, rhs_vals = [], []
    for x0 in _SHIFT_MARKERS:
        lhs_vals.append(a_explicit(PolyParams(lam + m, a, -b, g), n)(-x0 - 1))
        acc = Fraction(0)
        for k in range(m + 1):
            acc += ((-1) ** k * stirling_rec(dual, m, k)
                    * a_eval(PolyParams(lam, a, b, g - arg_shift(k) * a + lam * b),
                             n + k, x0))
        rhs_vals.append((-1) ** m * acc / (rising(Fraction(lam), m) * (b * x0) ** m))
    return tuple(lhs_vals), tuple(rhs_vals)


def _ev_shift_inverse(pt: Point) -> dict:
    m = pt["m"]
    return {
        "printed": _shift_inverse_sides(pt, lambda k: m),
        "rowwise": _shift_inverse_sides(pt, lambda k: k),
    }


def _spivey_pts(grid: GridSpec):
    return [
        {"alpha": a, "beta": b, "r": r, "x": x, "n": n, "m": m}
        for a, b, r in grid.exp_points
        for x in grid.x_values
        for n in range(grid.n_max + 1)
        for m in range(min(3, grid.n_max) + 1)
        if n + m <= grid.n_max
    ]


def _ev_spivey(pt: Point) -> dict:
    # both readings share every factor but the triangle entry, which is
    # S(n, k) (printed) or S(m, j) (classical)
    p = ExpPolyParams(pt["alpha"], pt["beta"], pt["r"])
    x, n, m = pt["x"], pt["n"], pt["m"]
    sp = p.stirling()
    outer, inner = stirling_row(sp, n), stirling_row(sp, m)
    powers = [x ** j for j in range(m + 1)]
    printed = classical = Fraction(0)
    for k in range(n + 1):
        head = math.comb(n, k) * s_exp_eval(p, k, x)
        for j in range(m + 1):
            if not (outer[k] or inner[j]):
                continue
            term = head * gff(j * p.beta - m * p.alpha, p.alpha, n - k) * powers[j]
            printed += outer[k] * term
            classical += inner[j] * term
    lhs = s_exp_eval(p, n + m, x)
    return {"printed": (lhs, printed), "classical": (lhs, classical)}


def _lemma34_pts(grid: GridSpec):
    return [
        {"alpha": a, "beta": b, "r": r, "x": x, "m": m, "order": grid.n_max}
        for a, b, r in grid.exp_points
        for x in grid.x_values
        for m in range(min(3, grid.n_max) + 1)
    ]


def _ev_lemma34(pt: Point) -> dict:
    p = ExpPolyParams(pt["alpha"], pt["beta"], pt["r"])
    lhs, rhs = lemma34_sides(p, pt["x"], pt["m"], pt["order"])
    return {"main": (lhs, rhs)}


def _exp_route_pts(grid: GridSpec):
    return [
        {"alpha": a, "beta": b, "r": r, "x": x, "n": n, "order": grid.n_max}
        for a, b, r in grid.exp_points
        for x in grid.x_values
        for n in range(grid.n_max + 1)
    ]


def _ev_routes_exp(pt: Point) -> dict:
    p = ExpPolyParams(pt["alpha"], pt["beta"], pt["r"])
    x, n = pt["x"], pt["n"]
    rhs = _series_build(s_exp_egf, p, x, pt["order"]).egf_value(n)
    return {"explicit-vs-series": (s_exp_eval(p, n, x), rhs)}


def _ev_routes_euler(pt: Point) -> dict:
    p = EulerParams(pt["lam"], pt["alpha"], pt["beta"])
    g, n, order = pt["gamma"], pt["n"], pt["order"]
    v = euler_via_a(p, g, n)
    e1, e2 = euler_explicit(p, g, n)
    series = _series_build(euler_egf, p, g, order)
    gamma_polys = _series_build(_gamma_polynomials, p, order)
    return {
        "a-vs-series": (v, series.egf_value(n)),
        "a-vs-explicit-plus": (v, e1),
        "a-vs-explicit-minus": (v, e2),
        "a-vs-polynomial": (v, gamma_polys[n](g)),
    }


def _ev_euler_rec(pt: Point) -> dict:
    lam, a, b = pt["lam"], pt["alpha"], pt["beta"]
    g, n, m = pt["gamma"], pt["n"], pt["m"]

    def ev(lam_, gamma_, n_, beta=b):
        return euler_value(lam_, a, beta, gamma_, n_)

    out = {}
    lhs1 = ev(lam + 1, g, n)
    out["rec1-printed"] = (lhs1, 2 * ev(lam, g, n) - ev(lam, g + b, n))
    out["rec1-lifted"] = (lhs1, 2 * ev(lam, g, n) - ev(lam + 1, g + b, n))

    lhs2 = ev(lam, g, n + 1)
    out["rec2-printed"] = (lhs2, (g - lam * b) * ev(lam, g - a, n)
                           + lam * b * ev(lam, g - a, n)
                           - lam * b * HALF * ev(lam, g + b - a, n))
    out["rec2-lifted"] = (lhs2, g * ev(lam, g - a, n)
                          - lam * b * HALF * ev(lam + 1, g + b - a, n))
    out["rec2-derived"] = (lhs2, (g - lam * b) * ev(lam, g - a, n)
                           + lam * b * HALF * ev(lam + 1, g - a, n))

    shifted = m * a - lam * b - g
    tri = StirlingParams(a, -b, shifted)
    acc = sum((stirling_rec(tri, m, k) * ev(lam, shifted, n + k, beta=-b)
               for k in range(m + 1)), Fraction(0))
    lhs3 = ev(lam + m, -g, n)
    out["rec3-printed"] = (
        lhs3, Fraction(2) ** m / (rising(Fraction(lam), m) * b ** m) * acc
    )

    def lowered(lam_, steps, theta, n_):
        if steps == 0:
            return ev(lam_, theta, n_)
        prev = lam_ + steps - 1
        return (2 / (prev * b)) * (
            (theta + a - b) * lowered(lam_, steps - 1, theta - b, n_)
            - lowered(lam_, steps - 1, theta - b + a, n_ + 1)
        )

    out["rec3-derived"] = (lhs3, lowered(lam, m, -g, n))
    return out


def _ev_euler_conv(pt: Point) -> dict:
    a, b, n = pt["alpha"], pt["beta"], pt["n"]
    l1, l2 = pt["lam1"], pt["lam2"]
    g1, g2 = pt["gamma1"], pt["gamma2"]
    lam = l1 + l2

    def ev(lam_, gamma_, n_):
        return euler_value(lam_, a, b, gamma_, n_)

    def ev_neg(lam_, gamma_, n_):
        return euler_value(lam_, -a, b, gamma_, n_)

    def conv(first_gamma, second_lam, second_gamma):
        return sum((math.comb(n, k) * ev(l1, first_gamma, k)
                    * ev(second_lam, second_gamma, n - k)
                    for k in range(n + 1)), Fraction(0))

    def alt_conv(order_reading):
        return sum((math.comb(n, k) * (-1) ** (n - k)
                    * ev_neg(l1, a + b - g1, k)
                    * ev(l2, g2 + b * order_reading, n - k)
                    for k in range(n + 1)), Fraction(0))

    rhs1 = 2 * (g1 + g2) * ev(lam, g1 + g2 - a, n) - 2 * ev(lam, g1 + g2, n + 1)
    alt_rhs = ev_neg(lam, a + b - g1 - g2, n)
    return {
        "conv1-printed": (b * lam * conv(a + g1 - b, l2, g2), rhs1),
        "conv1-shifted": (b * lam * conv(b + g1 - a, l2 + 1, g2), rhs1),
        "conv2": (conv(a + g1 - b, l2, g2), ev(lam, a + g1 + g2 - b, n)),
        "conv3-lam2": (alt_conv(l2), alt_rhs),
        "conv3-lam1": (alt_conv(l1), alt_rhs),
    }


def _anywhere(pt: Point) -> bool:
    return True


def _beta_nonzero(pt: Point) -> bool:
    # the generating-series brackets and finite differences divide by beta
    return pt["beta"] != 0


def _shiftable(pt: Point) -> bool:
    # the index-shift and order-lowering forms divide by (lam)^(m) and beta
    return pt["lam"] >= 1 and pt["beta"] != 0


@dataclass(frozen=True)
class Identity:
    """One identity: `generate` lays out candidate points over a grid,
    `domain` says which points the identity is stated for, and `evaluate`
    returns both sides of every reading at a point."""

    id: str
    kind: str
    anchor: str
    generate: Callable[[GridSpec], list]
    evaluate: Callable[[Point], dict]
    domain: Callable[[Point], bool] = _anywhere

    def points(self, grid: GridSpec) -> list:
        return [pt for pt in self.generate(grid) if self.domain(pt)]


REGISTRY: tuple[Identity, ...] = (
    Identity(
        "routes-stirling", "hard",
        "S(n,k;a,b,g) = sum_s (-1)^(k-s) C(k,s) (b s + g | a)_n / (b^k k!)",
        _stirling_pts, _ev_routes_stirling, _beta_nonzero),
    Identity(
        "orthogonality", "hard",
        "sum_k S(n,k;a,b,g) S(k,m;b,a,-g) = [n == m], both orders",
        _stirling_pts, _ev_orthogonality),
    Identity(
        "routes-a", "hard",
        "A_n by explicit column sum == generating series == raising recurrence",
        _at_top_order(_poly_pts), _ev_routes_a),
    Identity(
        "oracle", "hard",
        "A_n(x) at integer parameters counts barred preferential arrangements",
        _oracle_pts, _ev_oracle),
    Identity(
        "thm6", "hard",
        "A_{n+1}(g) = g A_n(g+a) + x l b A^{l+1}_n(g+a+b)",
        _poly_pts, _ev_thm6),
    Identity(
        "thm2", "recorded",
        "A_{n+1}(g) = g A_n(g+a) + sum_k C(n,k) F_k A_{n-k+1}(0); "
        "F read at order 0 (statement) or with b = 0 (proof)",
        _poly_pts, _ev_thm2),
    Identity(
        "thm4", "hard",
        "A_{n+1}(g) = g A_n(g+a) + x l b sum_k C(n,k) A^1_k(g+a+b) A_{n-k}(0)",
        _poly_pts, _ev_thm4),
    Identity(
        "eq6", "hard",
        "A_n(0) = sum_k C(n,k) (-1)^k (g|a)_k A_{n-k}(g)  [removal at -a]",
        _poly_pts, _ev_eq6),
    Identity(
        "eq6-printed", "recorded",
        "A_n(0) = sum_k C(n,k) (-1)^k (g|-a)_k A_{n-k}(g)  [removal at +a]",
        _poly_pts, _ev_eq6_printed),
    Identity(
        "eq7", "hard",
        "A_n(g) = sum_k sum_i c_lk C(n,i) (-1)^(k+i) b^k k! S(i,k;a,-b,0) "
        "(g|-a)_{n-i} x^k",
        _poly_pts, _ev_eq7),
    Identity(
        "eq8", "recorded",
        "sum_s C(n,s) (g|a)_{n-s} S(s,k;a,b,g) vs S(n,k;a,g,b) [printed] "
        "or S(n,k;a,b,2g) [gamma-doubled]",
        _stirling_pts, _ev_eq8),
    Identity(
        "eq31", "hard",
        "x A^{l+1}_n(g+b) = (x+1) A^{l+1}_n(g) - A^l_n(g)",
        _poly_pts, _ev_eq31),
    Identity(
        "eq32", "hard",
        "A_{n+1}(g-a) - l b (x+1) A^{l+1}_n(g) = (g - a - l b) A_n(g)",
        _poly_pts, _ev_eq32),
    Identity(
        "eq37", "hard",
        "A^{l,x}_n(a,b,g+bl) == A^{l,-x-1}_n(a,-b,g) "
        "== (-1)^n A^{l,-x-1}_n(-a,b,-g)",
        _poly_pts, _ev_eq37),
    Identity(
        "eq37-printed", "recorded",
        "A^{l,x}_n(a,b,g+bl) == (-1)^n A^{l,-x-1}_n(a,b,-g)",
        _poly_pts, _ev_eq37_printed),
    Identity(
        "eq38", "hard",
        "A_n(g) = (-1)^n sum_k c_lk (-b)^k k! S(n,k;a,b,bl-g) (x+1)^k",
        _poly_pts, _ev_eq38),
    Identity(
        "teo2", "hard",
        "sum_k C(n,k) A^{l1}_k(a+b+g1) A^{l2}_{n-k}(g2) "
        "= A^{l1+l2}_n(a+b+g1+g2)",
        _pair_pts, _ev_teo2),
    Identity(
        "teo1", "recorded",
        "x b (l1+l2) sum_k C(n,k) A^{l1}_k(a+b+g1) A^{l2'}_{n-k}(g2) = "
        "A^{l1+l2}_{n+1}(g1+g2) - (g1+g2) A^{l1+l2}_n(g1+g2+a); "
        "l2' read as l2 (printed) or l2+1 (shifted)",
        _pair_pts, _ev_teo1),
    Identity(
        "shift-raise", "hard",
        "(-1)^m A_{n+m}(g) = sum_k S(m,k;a,-b,-g) c_lk k! (-b)^k "
        "A^{l+k}_n(g+ma+kb) x^k",
        lambda g: _poly_pts(g, shifted=True), _ev_shift_raise, _shiftable),
    Identity(
        "shift-inverse", "recorded",
        "A^{l+m}_n(a,-b,g) at -x-1 = (-1)^m sum_k (-1)^k S(m,k;-b,a,g-ma+lb) "
        "A^l_{n+k}(g-sa+lb)(x) / ((l)^(m) (bx)^m); s read as m (printed) "
        "or k (rowwise)",
        lambda g: _poly_pts(g, shifted=True), _ev_shift_inverse, _shiftable),
    Identity(
        "spivey", "recorded",
        "S_{n+m}(x) = sum_j sum_k C(n,k) S(M,J) (j b - m a | a)_{n-k} S_k(x) "
        "x^j; (M,J) read as (n,k) [printed] or (m,j) [classical]",
        _spivey_pts, _ev_spivey),
    Identity(
        "lemma34", "hard",
        "sum_n S_{n+m}(x) t^n/n! = (1+at)^((r-ma)/a) exp((x/b) u) "
        "S_m(x (1+at)^(b/a)), u = (1+at)^(b/a) - 1",
        _lemma34_pts, _ev_lemma34, _beta_nonzero),
    Identity(
        "routes-exp", "hard",
        "S_n(x) from triangle rows == generating series coefficients",
        _exp_route_pts, _ev_routes_exp, _beta_nonzero),
    Identity(
        "routes-euler", "hard",
        "E_n by A-specialization == generating series == both explicit sums "
        "== gamma polynomial",
        _at_top_order(lambda g: _poly_pts(g, g.euler_points)), _ev_routes_euler),
    Identity(
        "euler-rec", "recorded",
        "order raising, argument raising, and order lowering for E_n; "
        "printed forms plus repaired readings",
        lambda g: _poly_pts(g, g.euler_points, shifted=True), _ev_euler_rec,
        _shiftable),
    Identity(
        "euler-conv", "recorded",
        "binomial convolutions for E_n: weighted, plain, alternating; "
        "printed forms plus repaired readings",
        _pair_pts, _ev_euler_conv),
)

_BY_ID = {ident.id: ident for ident in REGISTRY}


# ---------------------------------------------------------------------------
# report


@dataclass(frozen=True)
class ReadingReport:
    name: str
    passed: int
    failed: int
    first_counterexample: dict | None


@dataclass(frozen=True)
class IdentityReport:
    id: str
    kind: str
    anchor: str
    points: int
    readings: tuple[ReadingReport, ...]


@dataclass(frozen=True)
class ConformanceReport:
    grid: GridSpec
    identities: tuple[IdentityReport, ...]
    schema: str = SCHEMA

    def hard_failures(self) -> list[tuple[str, str]]:
        return [
            (ident.id, r.name)
            for ident in self.identities
            if ident.kind == "hard"
            for r in ident.readings
            if r.failed
        ]

    def verdict(self) -> str:
        """FAIL if a hard reading failed; otherwise EMPTY if no hard identity
        was chosen or a chosen one ran on zero points; otherwise PASS."""
        if self.hard_failures():
            return "FAIL"
        hard = [i.points for i in self.identities if i.kind == "hard"]
        return "PASS" if hard and all(hard) else "EMPTY"

    @property
    def hard_pass(self) -> bool:
        return self.verdict() == "PASS"

    def to_dict(self) -> dict:
        return {
            "schema": self.schema,
            "grid": self.grid.as_dict(),
            "hard_pass": self.hard_pass,
            "identities": [
                {
                    "id": i.id,
                    "kind": i.kind,
                    "anchor": i.anchor,
                    "points": i.points,
                    "readings": [
                        {
                            "name": r.name,
                            "pass": r.passed,
                            "fail": r.failed,
                            "first_counterexample": r.first_counterexample,
                        }
                        for r in i.readings
                    ],
                }
                for i in self.identities
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def to_text(self) -> str:
        lines = [f"conformance report ({self.schema})"]
        for i in self.identities:
            lines.append(f"{i.kind:8s} {i.id}  [{i.points} points]")
            for r in i.readings:
                status = "ok" if not r.failed else "FAIL"
                lines.append(
                    f"    {r.name:24s} pass {r.passed:5d}  fail {r.failed:5d}  {status}"
                )
                if r.first_counterexample:
                    cex = r.first_counterexample
                    pt = " ".join(f"{k}={v}" for k, v in cex["point"].items())
                    lines.append(f"        first fail: {pt}")
                    lines.append(f"        lhs: {cex['lhs']}")
                    lines.append(f"        rhs: {cex['rhs']}")
        lines.append(f"hard identities: {self.verdict()}")
        return "\n".join(lines) + "\n"


def _render(v) -> str:
    if isinstance(v, tuple):
        return "[" + ", ".join(_render(c) for c in v) + "]"
    if isinstance(v, Series):
        return "egf" + _render(tuple(v.egf_values()))
    return str(v)


def _ser_point(pt: Point) -> dict:
    return {k: pt[k] if isinstance(pt[k], int) else str(pt[k])
            for k in sorted(pt)}


def run_suite(spec: GridSpec) -> ConformanceReport:
    if spec.select is None:
        chosen = REGISTRY
    else:
        unknown = [s for s in spec.select if s not in _BY_ID]
        if unknown:
            raise ValueError(f"unknown identity ids: {unknown}")
        chosen = tuple(i for i in REGISTRY if i.id in spec.select)

    entries = []
    for ident in chosen:
        pts = ident.points(spec)
        tally: dict[str, list] = {}
        for pt in pts:
            for name, (lhs, rhs) in ident.evaluate(pt).items():
                slot = tally.setdefault(name, [0, 0, None])
                if lhs == rhs:
                    slot[0] += 1
                else:
                    slot[1] += 1
                    if slot[2] is None:
                        slot[2] = {
                            "point": _ser_point(pt),
                            "lhs": _render(lhs),
                            "rhs": _render(rhs),
                        }
        readings = tuple(
            ReadingReport(name, p, f, cex) for name, (p, f, cex) in tally.items()
        )
        entries.append(
            IdentityReport(ident.id, ident.kind, ident.anchor, len(pts), readings)
        )
    return ConformanceReport(spec, tuple(entries))


# ---------------------------------------------------------------------------
# counterexample shrinking


_INT_KEYS = ("n", "m", "lam", "lam1", "lam2", "x")


def _point_rank(pt: Point) -> int:
    total = 0
    for v in pt.values():
        if isinstance(v, int):
            total += abs(v)
        else:
            total += abs(v.numerator) + v.denominator
    return total


def counterexample_minimize(identity_id: str, reading: str, point: Point) -> Point:
    """Shrink a failing point: n and m first, then parameter magnitudes.

    Every candidate stays inside the identity's domain.  Raises ValueError
    when the starting point does not fail the reading.
    """
    ident = _BY_ID.get(identity_id)
    if ident is None:
        raise ValueError(f"unknown identity id: {identity_id}")

    def fails(pt: Point) -> bool:
        if not ident.domain(pt):
            return False
        try:
            res = ident.evaluate(pt)
        except (ValueError, ZeroDivisionError):
            return False
        if reading not in res:
            raise ValueError(f"unknown reading {reading!r} for {identity_id}")
        lhs, rhs = res[reading]
        return lhs != rhs

    if not fails(point):
        raise ValueError("point does not fail the given reading")

    pt = dict(point)
    for key in ("n", "m"):
        while key in pt and pt[key] > 0:
            cand = {**pt, key: pt[key] - 1}
            if fails(cand):
                pt = cand
            else:
                break

    changed = True
    while changed:
        changed = False
        for key in sorted(pt):
            cur = pt[key]
            if isinstance(cur, int):
                candidates = [0, 1, cur - 1] if key in _INT_KEYS else []
            else:
                candidates = [Fraction(0), Fraction(1), Fraction(-1), cur / 2]
            for cand_val in candidates:
                if cand_val == cur:
                    continue
                cand = {**pt, key: cand_val}
                if _point_rank(cand) < _point_rank(pt) and fails(cand):
                    pt = cand
                    changed = True
                    break
    return pt
