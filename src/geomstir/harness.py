"""Conformance harness: every identity in the library, run over a grid.

Each identity is one declaration, @_identity(id, kind, anchor, layout,
domain), on the evaluator that returns both sides of the identity for every
reading of it.  The anchor is a plain rendering of the statement being
tested, the layout lays candidate points out over a grid (every layout
through _across), and the domain predicate says which points the identity is
stated for; both the grid and the counterexample shrinker stay inside it.
REGISTRY holds the declarations in the order they are made.  A reading passes
at a point when its two sides are exactly equal.  run_suite and
counterexample_minimize read an identity at a point through one judge,
_sides, which turns an evaluator's exception there into a failure of the
point's EVALUATES reading.  Evaluators write each display's own weights rather
than reuse a_explicit's, so the two sides do not share the code they check.

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
import operator
import reprlib
from dataclasses import dataclass, fields, replace
from fractions import Fraction
from functools import lru_cache
from itertools import product
from types import SimpleNamespace
from typing import Callable, Iterator

from .euler import (
    EulerParams,
    HALF,
    _euler_values,
    _gamma_polynomials,
    euler_egf,
    euler_explicit,
    euler_via_a,
)
from .exppoly import ExpPolyParams, _s_ratio, lemma34_sides, s_exp_eval, s_exp_egf
from .fmpq import _scaled
from .geom import (
    PolyParams,
    a_egf,
    a_eval,
    a_explicit,
    a_recurrence,
    lam_binom,
)
from .oracle import MAX_ORACLE_N, BPAConfig, count_bpa
from .series import (
    TABLE_CACHE_SIZE,
    Series,
    _check_size,
    _count,
    _falls,
    _parse_rational,
    _upto,
    rising,
)
from .stirling import (
    StirlingParams,
    _scaled_params,
    _value_sweep,
    param_swap_rhs,
    stirling_explicit,
    stirling_int_row,
    stirling_row,
)
from .xpoly import XPolynomial

SCHEMA = "geomstir-conformance/1"

# The largest index a grid may make the harness read, n_max + max(shift_ms) + 1
MAX_GRID_INDEX = 48

# ---------------------------------------------------------------------------
# grid


@dataclass(frozen=True)
class GridSpec:
    """Declarative parameter grid.  All rationals, finite, deterministic.

    select = None runs every identity; a tuple or list of ids runs that
    subset (empty: nothing).  oracle_n_max is at most oracle.MAX_ORACLE_N.
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
        if self.oracle_n_max > MAX_ORACLE_N:
            raise ValueError(f"oracle_n_max {self.oracle_n_max} is past the oracle's "
                             f"cap of {MAX_ORACLE_N}")
        for key in _ROW_KINDS:
            object.__setattr__(self, key, _rows(key, getattr(self, key)))
        object.__setattr__(self, "x_values", tuple(
            _exact("x_values", x) for x in _sequence("x_values", self.x_values)))
        object.__setattr__(self, "shift_ms", tuple(
            _count("shift_ms", m) for m in _sequence("shift_ms", self.shift_ms)))
        top = self.n_max + max(self.shift_ms, default=0) + 1
        if top > MAX_GRID_INDEX:
            raise ValueError(f"the grid reads up to index n_max + max(shift_ms) + 1 "
                             f"= {top}, past the cap of {MAX_GRID_INDEX}")
        # compute's size caps, at the top index: the rationals' bits, and each
        # lambda's (lam1 + lam2 for a pair row)
        _check_size(top, [v for key, kinds in _ROW_KINDS.items()
                          for row in getattr(self, key)
                          for kind, v in zip(kinds, row) if kind == "q"]
                    + list(self.x_values),
                    [row[0] for row in self.poly_points + self.euler_points]
                    + [row[0] + row[2] for row in self.pair_points])
        if self.select is not None:
            if not isinstance(self.select, (tuple, list)) \
                    or not all(isinstance(s, str) for s in self.select):
                raise ValueError(f"select must be null (None) or a list of identity "
                                 f"ids, got {reprlib.repr(self.select)}")
            object.__setattr__(self, "select", tuple(self.select))

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2)

    def as_dict(self) -> dict:
        rows = {key: [[v if kind == "n" else str(v) for kind, v in zip(kinds, row)]
                      for row in getattr(self, key)]
                for key, kinds in _ROW_KINDS.items()}
        return {
            "n_max": self.n_max,
            "oracle_n_max": self.oracle_n_max,
            "shift_ms": list(self.shift_ms),
            **rows,
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
    "poly_points": "nqqq",
    "pair_points": "nqnqqq",
    "exp_points": "qqq",
    "euler_points": "nqqq",
}
# the names a point gives a row's entries, in the row's order
_POLY = ("lam", "alpha", "beta", "gamma")                       # poly and euler rows
_PAIR = ("lam1", "gamma1", "lam2", "gamma2", "alpha", "beta")   # pair rows
_EXP = ("alpha", "beta", "r")                                   # exp rows


def _field(key: str, value):
    """One grid-file field in the types GridSpec takes: JSON lists (and the
    rows in them) become tuples and "p/q" strings Fractions; GridSpec checks
    the values, so anything else passes through to be rejected there."""
    if key in ("n_max", "oracle_n_max", "select") or not isinstance(value, list):
        return value
    if key not in _ROW_KINDS:
        return tuple(_json_scalar(key, v) for v in value)
    return tuple(tuple(_json_scalar(key, v) for v in row)
                 if isinstance(row, list) else row for row in value)


def _json_scalar(key: str, value):
    if not isinstance(value, str):
        return value
    try:
        return _parse_rational(value)
    except ValueError as e:
        raise ValueError(f"{key}: {e}") from None


def _sequence(key: str, value):
    # a bare number, string or None is not a sequence of entries
    if not isinstance(value, (tuple, list)):
        raise ValueError(f"{key} must be a list or tuple, got {reprlib.repr(value)}")
    return value


def _rows(key: str, rows) -> tuple:
    kinds = _ROW_KINDS[key]
    out = []
    for row in _sequence(key, rows):
        if not isinstance(row, (tuple, list)) or len(row) != len(kinds):
            raise ValueError(f"each {key} row has {len(kinds)} entries, "
                             f"got {reprlib.repr(row)}")
        out.append(tuple(_count(key, v) if kind == "n" else _exact(key, v)
                         for kind, v in zip(kinds, row)))
    return tuple(out)


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

Point = dict


def _params(pt: Point) -> PolyParams:
    return PolyParams(pt["lam"], pt["alpha"], pt["beta"], pt["gamma"])


def _across(rows, names, **axes) -> list:
    """One point per row and combination of the axes' values, the last axis
    varying fastest: the row's entries under names, then each axis's value
    under the axis's name.  A series route takes order=(grid.n_max,): it
    reads every n from one build per parameter set at the grid's top order."""
    combos = [dict(zip(axes, values)) for values in product(*axes.values())]
    return [{**row, **combo} for row in (dict(zip(names, r)) for r in rows)
            for combo in combos]


def _poly_pts(grid: GridSpec, rows=None, **axes) -> list:
    """(lam, alpha, beta, gamma) rows (default: poly_points) at n = 0..n_max,
    crossed with axes."""
    return _across(grid.poly_points if rows is None else rows, _POLY,
                   n=range(grid.n_max + 1), **axes)


def _stirling_pts(grid: GridSpec) -> list:
    # each distinct (alpha, beta, gamma) of poly_points, in first-seen order
    return _across(dict.fromkeys(row[1:] for row in grid.poly_points), _POLY[1:],
                   n=range(grid.n_max + 1))


def _pair_pts(grid: GridSpec) -> list:
    return _across(grid.pair_points, _PAIR, n=range(grid.n_max + 1))


def _exp_pts(grid: GridSpec, **axes) -> list:
    return _across(grid.exp_points, _EXP, x=grid.x_values, **axes)


def _spivey_ms(grid: GridSpec) -> range:
    # the m that spivey and lemma34 are read at
    return range(min(3, grid.n_max) + 1)


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
    """One identity, built by its _identity declaration: `generate` lays out
    candidate points over a grid, `domain` says which points the identity is
    stated for, and `evaluate` returns both sides of every reading at a point."""

    id: str
    kind: str
    anchor: str
    generate: Callable[[GridSpec], list]
    evaluate: Callable[[Point], dict]
    domain: Callable[[Point], bool] = _anywhere

    def points(self, grid: GridSpec) -> list:
        return [pt for pt in self.generate(grid) if self.domain(pt)]


_DECLARED: list[Identity] = []


def _identity(id: str, kind: str, anchor: str, layout: Callable[[GridSpec], list],
              domain: Callable[[Point], bool] = _anywhere):
    """Declares the evaluator below as an Identity; REGISTRY holds the
    declarations in the order they are made."""
    def declare(evaluate):
        _DECLARED.append(Identity(id, kind, anchor, layout, evaluate, domain))
        return evaluate
    return declare


def _binomial_sum(n: int, term: Callable, zero=XPolynomial.zero()):
    """sum_k C(n, k) term(k) for k = 0..n, starting from zero."""
    return sum((math.comb(n, k) * term(k) for k in range(n + 1)), zero)


# Per-row set-up.  Each identity is read at n = 0..n_max on every parameter
# row, and all it builds besides the values it reads at n (the records it
# reads them at, Stirling rows, weights and scales) depends on the row alone.
# The memos below build that once per row, keyed by the row's record (and m,
# or the removal sign), so a point makes only its n-dependent reads.  None
# raises at a point of its identities' domain.  Each returns a namespace
# whose fields are named, with what they hold, where it builds them.


@lru_cache(maxsize=TABLE_CACHE_SIZE)
def _lifts(p: PolyParams) -> SimpleNamespace:
    """The records the A-family identities read beside their row p: each A
    record as the change it makes to p = (lam, a, b, g), and the triangles
    eq7 and eq38 read."""
    lam, a, b, g = p.lam, p.alpha, p.beta, p.gamma
    return SimpleNamespace(
        up=PolyParams(lam, a, b, g + a),                  # thm2, thm4, thm6
        raised=PolyParams(lam + 1, a, b, g + b + a),      # thm6
        one_raised=PolyParams(1, a, b, g + b + a),        # thm4
        zero_gamma=PolyParams(lam, a, b, 0),              # thm2, thm4, eq6
        zero_lam=PolyParams(0, a, b, g),                  # thm2 statement
        zero_beta=PolyParams(lam, a, 0, g),               # thm2 proof
        lifted=PolyParams(lam + 1, a, b, g),              # eq31, eq32
        lifted_up=PolyParams(lam + 1, a, b, g + b),       # eq31
        down=PolyParams(lam, a, b, g - a),                # eq32
        widened=PolyParams(lam, a, b, g + b * lam),       # eq37
        neg_beta=PolyParams(lam, a, -b, g),               # eq37 pair
        neg_gamma=PolyParams(lam, a, b, -g),              # eq37 third, printed
        neg_alpha_gamma=PolyParams(lam, -a, b, -g),       # eq37 third, reflected
        eq7_tri=StirlingParams(a, -b, 0),
        eq38_tri=StirlingParams(a, b, b * lam - g),
    )


@lru_cache(maxsize=TABLE_CACHE_SIZE)
def _eq6_column(p: PolyParams, removal_sign: int) -> tuple[list[Fraction], Iterator]:
    """The weights (-1)^k (g | -removal_sign a)_k of eq6 at the row p for
    k = 0, 1, ..., as a memo that grows as it is read (series._upto): the
    _falls products (-g | removal_sign a)_k."""
    return [], _falls(-p.gamma, removal_sign * p.alpha)


_SHIFT_MARKERS = (Fraction(1), Fraction(2), Fraction(-3, 2))
_SHIFT_ARGS = tuple(-x0 - 1 for x0 in _SHIFT_MARKERS)


@lru_cache(maxsize=TABLE_CACHE_SIZE)
def _shift_setup(p: PolyParams, m: int) -> SimpleNamespace:
    """The n-free parts of shift-raise and shift-inverse at the row
    p = (lam, a, b, g) and m."""
    lam, a, b, g = p.lam, p.alpha, p.beta, p.gamma
    dual = StirlingParams(a, -b, -g + m * a - lam * b).dual()
    rise = rising(Fraction(lam), m)
    return SimpleNamespace(
        # shift-raise: (weight, record) of the x^k term, k = 0..m, over the
        # display's own triangle S(m, k; a, -b, -g)
        raise_terms=tuple(
            (s * lam_binom(lam, k) * math.factorial(k) * (-b) ** k,
             PolyParams(lam + k, a, b, g + m * a + k * b))
            for k, s in enumerate(stirling_row(StirlingParams(a, -b, -g), m))),
        # shift-inverse: its left side's record, the signed dual row
        # (-1)^k s(m, k), each reading's record per k and the scale per marker
        inverse_lhs=PolyParams(lam + m, a, -b, g),
        signed=tuple(c if k % 2 == 0 else -c
                     for k, c in enumerate(stirling_row(dual, m))),
        printed=(PolyParams(lam, a, b, g - m * a + lam * b),) * (m + 1),
        rowwise=tuple(PolyParams(lam, a, b, g - k * a + lam * b) for k in range(m + 1)),
        scales=tuple((-1) ** m / (rise * (b * x0) ** m) for x0 in _SHIFT_MARKERS),
    )


@lru_cache(maxsize=TABLE_CACHE_SIZE)
def _euler_rec_setup(p: PolyParams, m: int) -> SimpleNamespace:
    """The n-free parts of euler-rec at the row p = (lam, a, b, g) and m:
    the triangles E_n is read from, rec3's row and factor, and the
    lowering's scale and coefficients per step."""
    lam, a, b, g = p.lam, p.alpha, p.beta, p.gamma
    tri = StirlingParams(a, -b, m * a - lam * b - g)
    return SimpleNamespace(
        here=StirlingParams(a, b, g),
        up=StirlingParams(a, b, g + b),
        down=StirlingParams(a, b, g - a),
        up_down=StirlingParams(a, b, g + b - a),
        negated=StirlingParams(a, b, -g),  # read at order lam + m
        tri=tri,
        tri_row=stirling_row(tri, m),
        factor=Fraction(2) ** m / (rising(Fraction(lam), m) * b ** m),
        lowered=tuple(StirlingParams(a, b, -g - m * b + j * a) for j in range(m + 1)),
        # (scale, coefficient per j) of lowering step d, for d = m-1 .. 0
        steps=tuple((2 / ((lam + m - d - 1) * b),
                     tuple(-g - d * b + j * a + a - b for j in range(d + 1)))
                    for d in range(m - 1, -1, -1)),
    )


def _pair_params(pt: Point) -> tuple[PolyParams, PolyParams]:
    """A pair row's two halves (l1, a, b, g1) and (l2, a, b, g2), the key of
    its set-up."""
    a, b = pt["alpha"], pt["beta"]
    return (PolyParams(pt["lam1"], a, b, pt["gamma1"]),
            PolyParams(pt["lam2"], a, b, pt["gamma2"]))


@lru_cache(maxsize=TABLE_CACHE_SIZE)
def _pair_setup(one: PolyParams, two: PolyParams) -> SimpleNamespace:
    """The n-free parts of teo1, teo2 and euler-conv at a pair row
    (l1, g1, l2, g2, a, b), l = l1 + l2: the A records, and the
    (triangle, order) of each Euler column."""
    l1, l2, a, b = one.lam, two.lam, one.alpha, one.beta
    g1, g2, lam = one.gamma, two.gamma, one.lam + two.lam
    gsum = g1 + g2
    return SimpleNamespace(
        first=PolyParams(l1, a, b, a + b + g1),
        second=two,
        second_up=PolyParams(l2 + 1, a, b, g2),
        joined=PolyParams(lam, a, b, a + b + gsum),     # teo2
        summed=PolyParams(lam, a, b, gsum),             # teo1
        summed_up=PolyParams(lam, a, b, gsum + a),      # teo1
        b_lam=b * lam,
        gsum=gsum,
        conv_first=(StirlingParams(a, b, a + g1 - b), l1),
        conv_second=(StirlingParams(a, b, g2), l2),
        shifted_first=(StirlingParams(a, b, b + g1 - a), l1),
        shifted_second=(StirlingParams(a, b, g2), l2 + 1),
        total_down=(StirlingParams(a, b, gsum - a), lam),
        total=(StirlingParams(a, b, gsum), lam),
        conv2=(StirlingParams(a, b, a + gsum - b), lam),
        alt_first=(StirlingParams(-a, b, a + b - g1), l1),
        alt_second_l2=(StirlingParams(a, b, g2 + b * l2), l2),
        alt_second_l1=(StirlingParams(a, b, g2 + b * l1), l2),
        alt_total=(StirlingParams(-a, b, a + b - gsum), lam),
    )


@lru_cache(maxsize=TABLE_CACHE_SIZE)
def _spivey_setup(p: ExpPolyParams, m: int) -> SimpleNamespace:
    """The n-free parts of spivey at an (alpha, beta, r) row and m: the
    triangle, its lcm d, the inner row T(m, j) d^j, and for each j the
    products G(j, L), L = 0, 1, ..., as a memo that grows as it is read
    (series._upto): the _falls products G(j, L) = (j bd - m ad | ad)_L."""
    sp = p.stirling()
    d, ad, bd, _ = _scaled_params(sp)
    return SimpleNamespace(
        sp=sp, d=d,
        inner=tuple(t * d ** j for j, t in enumerate(stirling_int_row(sp, m)[1])),
        falls=[([], _falls(j * bd - m * ad, ad)) for j in range(m + 1)],
    )


@_identity("routes-stirling", "hard",
           "S(n,k;a,b,g) = sum_s (-1)^(k-s) C(k,s) (b s + g | a)_n / (b^k k!)",
           _stirling_pts, _beta_nonzero)
def _ev_routes_stirling(pt: Point) -> dict:
    sp = StirlingParams(pt["alpha"], pt["beta"], pt["gamma"])
    n = pt["n"]
    exp_row = tuple(stirling_explicit(sp, n, k) for k in range(n + 1))
    return {"explicit-vs-recurrence": (exp_row, stirling_row(sp, n))}


def _row_product(first: StirlingParams, second: StirlingParams, n: int) -> tuple:
    """sum_k S1(n, k) S2(k, m) for m = 0..n, where S1 and S2 are the
    triangles of a triple and its dual.

    The two share the lcm d, so with S(n, k) = T(n, k) / d^(n-k) each entry
    is sum_k T1(n, k) T2(k, m) over the one denominator d^(n-m).
    """
    d, top = stirling_int_row(first, n)
    rows = [stirling_int_row(second, k)[1] for k in range(n + 1)]
    return tuple(
        Fraction(sum(top[k] * rows[k][m] for k in range(m, n + 1)), d ** (n - m))
        for m in range(n + 1)
    )


@_identity("orthogonality", "hard",
           "sum_k S(n,k;a,b,g) S(k,m;b,a,-g) = [n == m], both orders",
           _stirling_pts)
def _ev_orthogonality(pt: Point) -> dict:
    sp = StirlingParams(pt["alpha"], pt["beta"], pt["gamma"])
    dp = sp.dual()
    n = pt["n"]
    unit = tuple(Fraction(int(m == n)) for m in range(n + 1))
    return {"forward": (_row_product(sp, dp, n), unit),
            "backward": (_row_product(dp, sp, n), unit)}


@_identity("routes-a", "hard",
           "A_n by explicit column sum == generating series == raising recurrence",
           lambda g: _poly_pts(g, order=(g.n_max,)))
def _ev_routes_a(pt: Point) -> dict:
    p, n = _params(pt), pt["n"]
    e = a_explicit(p, n)
    return {
        "explicit-vs-series": (e, a_egf(p, pt["order"]).values[n]),
        "explicit-vs-recurrence": (e, a_recurrence(p, n)),
    }


@_identity("oracle", "hard",
           "A_n(x) at integer parameters counts barred preferential arrangements",
           lambda g: _across(product((0, 1, 2), (0, 1), (1, 2), (0, 1), (1, 2)),
                             (*_POLY, "x"), n=range(g.oracle_n_max + 1)))
def _ev_oracle(pt: Point) -> dict:
    cfg = BPAConfig(pt["n"], pt["lam"], pt["alpha"], pt["beta"],
                    pt["gamma"], pt["x"])
    counted = Fraction(count_bpa(cfg))
    return {"count-vs-explicit": (counted, a_eval(_params(pt), pt["n"], pt["x"]))}


@_identity("thm6", "hard",
           "A_{n+1}(g) = g A_n(g+a) + x l b A^{l+1}_n(g+a+b)",
           _poly_pts)
def _ev_thm6(pt: Point) -> dict:
    p, n = _params(pt), pt["n"]
    r = _lifts(p)
    rhs = p.gamma * a_explicit(r.up, n)
    rhs = rhs + (p.lam * p.beta * a_explicit(r.raised, n)).times_x()
    return {"main": (a_explicit(p, n + 1), rhs)}


@_identity("thm2", "recorded",
           "A_{n+1}(g) = g A_n(g+a) + sum_k C(n,k) F_k A_{n-k+1}(0); "
           "F read at order 0 (statement) or with b = 0 (proof)",
           _poly_pts)
def _ev_thm2(pt: Point) -> dict:
    p, n = _params(pt), pt["n"]
    r = _lifts(p)
    lhs = a_explicit(p, n + 1)
    head = p.gamma * a_explicit(r.up, n)

    def tail(factor):
        return _binomial_sum(n, lambda k: a_explicit(factor, k)
                             * a_explicit(r.zero_gamma, n - k + 1))

    return {
        "statement": (lhs, head + tail(r.zero_lam)),
        "proof": (lhs, head + tail(r.zero_beta)),
    }


@_identity("thm4", "hard",
           "A_{n+1}(g) = g A_n(g+a) + x l b sum_k C(n,k) A^1_k(g+a+b) A_{n-k}(0)",
           _poly_pts)
def _ev_thm4(pt: Point) -> dict:
    p, n = _params(pt), pt["n"]
    r = _lifts(p)
    rhs = p.gamma * a_explicit(r.up, n)
    conv = _binomial_sum(n, lambda k: a_explicit(r.one_raised, k)
                         * a_explicit(r.zero_gamma, n - k))
    rhs = rhs + (p.lam * p.beta * conv).times_x()
    return {"main": (a_explicit(p, n + 1), rhs)}


def _eq6_sides(pt: Point, removal_sign: int):
    p, n = _params(pt), pt["n"]
    lhs = a_explicit(_lifts(p).zero_gamma, n)
    weights = _upto(_eq6_column(p, removal_sign), n)
    return lhs, _binomial_sum(n, lambda k: weights[k] * a_explicit(p, n - k))


@_identity("eq6", "hard",
           "A_n(0) = sum_k C(n,k) (-1)^k (g|a)_k A_{n-k}(g)  [removal at -a]",
           _poly_pts)
def _ev_eq6(pt: Point) -> dict:
    return {"reflected": _eq6_sides(pt, -1)}


@_identity("eq6-printed", "recorded",
           "A_n(0) = sum_k C(n,k) (-1)^k (g|-a)_k A_{n-k}(g)  [removal at +a]",
           _poly_pts)
def _ev_eq6_printed(pt: Point) -> dict:
    # repaired reading included for side-by-side comparison
    return {"printed": _eq6_sides(pt, 1), "reflected": _eq6_sides(pt, -1)}


@_identity("eq7", "hard",
           "A_n(g) = sum_k sum_i c_lk C(n,i) (-1)^(k+i) b^k k! S(i,k;a,-b,0) "
           "(g|-a)_{n-i} x^k",
           _poly_pts)
def _ev_eq7(pt: Point) -> dict:
    # x^k: c_lk (-b)^k k! sum_(i>=k) (-1)^i C(n,i) S(i,k;a,-b,0) (g|-a)_(n-i)
    # in integers: S(i,k) = T(i,k) / d^(i-k) with B = -b d the triangle's
    # scaled beta, and (g|-a)_j = F_j / e^j with e the lcm of the denominators
    # of g and a, F_j = (g e | -a e)_j from _falls.  Over (d e)^n the x^k
    # coefficient is c_lk B^k k! sum_(i>=k) T(i,k) u_i, where
    # u_i = (-1)^i C(n,i) F_(n-i) d^(n-i) e^i.
    p, n = _params(pt), pt["n"]
    sp0 = _lifts(p).eq7_tri
    d, _, b, _ = _scaled_params(sp0)
    rows = [stirling_int_row(sp0, i)[1] for i in range(n + 1)]
    (ae, ge), e = _scaled((p.alpha, p.gamma))
    u = [0] * (n + 1)
    for i, fall in zip(range(n, -1, -1), _falls(ge, -ae)):  # fall = F_(n-i)
        u[i] = (-1) ** i * math.comb(n, i) * fall * d ** (n - i) * e ** i
    rhs = XPolynomial.from_ints(
        [lam_binom(p.lam, k) * b ** k * math.factorial(k)
         * sum(rows[i][k] * u[i] for i in range(k, n + 1))
         for k in range(n + 1)],
        (d * e) ** n)
    return {"main": (a_explicit(p, n), rhs)}


@_identity("eq8", "recorded",
           "sum_s C(n,s) (g|a)_{n-s} S(s,k;a,b,g) vs S(n,k;a,g,b) [printed] "
           "or S(n,k;a,b,2g) [gamma-doubled]",
           _stirling_pts)
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


@_identity("eq31", "hard",
           "x A^{l+1}_n(g+b) = (x+1) A^{l+1}_n(g) - A^l_n(g)",
           _poly_pts)
def _ev_eq31(pt: Point) -> dict:
    p, n = _params(pt), pt["n"]
    r = _lifts(p)
    lhs = XPolynomial.x() * a_explicit(r.lifted_up, n)
    rhs = XPolynomial((1, 1)) * a_explicit(r.lifted, n) - a_explicit(p, n)
    return {"main": (lhs, rhs)}


@_identity("eq32", "hard",
           "A_{n+1}(g-a) - l b (x+1) A^{l+1}_n(g) = (g - a - l b) A_n(g)",
           _poly_pts)
def _ev_eq32(pt: Point) -> dict:
    p, n = _params(pt), pt["n"]
    r = _lifts(p)
    lhs = a_explicit(r.down, n + 1) \
        - p.lam * p.beta * XPolynomial((1, 1)) * a_explicit(r.lifted, n)
    rhs = (p.gamma - p.alpha - p.lam * p.beta) * a_explicit(p, n)
    return {"main": (lhs, rhs)}


def _sub_neg(poly: XPolynomial) -> XPolynomial:
    return poly(XPolynomial((-1, -1)))


def _eq37_third(record: PolyParams, n: int) -> XPolynomial:
    """(-1)^n A^{l,-x-1}_n(+-a, b, -g), eq37's third member, at its record."""
    return (-1) ** n * _sub_neg(a_explicit(record, n))


@_identity("eq37", "hard",
           "A^{l,x}_n(a,b,g+bl) == A^{l,-x-1}_n(a,-b,g) "
           "== (-1)^n A^{l,-x-1}_n(-a,b,-g)",
           _poly_pts)
def _ev_eq37(pt: Point) -> dict:
    p, n = _params(pt), pt["n"]
    r = _lifts(p)
    t1 = a_explicit(r.widened, n)
    t2 = _sub_neg(a_explicit(r.neg_beta, n))
    return {"pair": (t1, t2), "third-reflected": (t1, _eq37_third(r.neg_alpha_gamma, n))}


@_identity("eq37-printed", "recorded",
           "A^{l,x}_n(a,b,g+bl) == (-1)^n A^{l,-x-1}_n(a,b,-g)",
           _poly_pts)
def _ev_eq37_printed(pt: Point) -> dict:
    p, n = _params(pt), pt["n"]
    r = _lifts(p)
    t1 = a_explicit(r.widened, n)
    return {"third-printed": (t1, _eq37_third(r.neg_gamma, n)),
            "third-reflected": (t1, _eq37_third(r.neg_alpha_gamma, n))}


@_identity("eq38", "hard",
           "A_n(g) = (-1)^n sum_k c_lk (-b)^k k! S(n,k;a,b,bl-g) (x+1)^k",
           _poly_pts)
def _ev_eq38(pt: Point) -> dict:
    # sum_k c_k (x+1)^k is the polynomial sum_k c_k x^k read at x+1 (Horner)
    p, n = _params(pt), pt["n"]
    sp = _lifts(p).eq38_tri
    c = XPolynomial(lam_binom(p.lam, k) * (-p.beta) ** k * math.factorial(k) * s
                    for k, s in enumerate(stirling_row(sp, n)))
    return {"main": (a_explicit(p, n), (-1) ** n * c(XPolynomial((1, 1))))}


def _pair_conv(first: PolyParams, second: PolyParams, n: int) -> XPolynomial:
    return _binomial_sum(n, lambda k: a_explicit(first, k) * a_explicit(second, n - k))


@_identity("teo2", "hard",
           "sum_k C(n,k) A^{l1}_k(a+b+g1) A^{l2}_{n-k}(g2) "
           "= A^{l1+l2}_n(a+b+g1+g2)",
           _pair_pts)
def _ev_teo2(pt: Point) -> dict:
    s, n = _pair_setup(*_pair_params(pt)), pt["n"]
    return {"main": (_pair_conv(s.first, s.second, n), a_explicit(s.joined, n))}


@_identity("teo1", "recorded",
           "x b (l1+l2) sum_k C(n,k) A^{l1}_k(a+b+g1) A^{l2'}_{n-k}(g2) = "
           "A^{l1+l2}_{n+1}(g1+g2) - (g1+g2) A^{l1+l2}_n(g1+g2+a); "
           "l2' read as l2 (printed) or l2+1 (shifted)",
           _pair_pts)
def _ev_teo1(pt: Point) -> dict:
    s, n = _pair_setup(*_pair_params(pt)), pt["n"]
    rhs = a_explicit(s.summed, n + 1) - s.gsum * a_explicit(s.summed_up, n)
    return {
        "printed": ((s.b_lam * _pair_conv(s.first, s.second, n)).times_x(), rhs),
        "shifted": ((s.b_lam * _pair_conv(s.first, s.second_up, n)).times_x(), rhs),
    }


@_identity("shift-raise", "hard",
           "(-1)^m A_{n+m}(g) = sum_k S(m,k;a,-b,-g) c_lk k! (-b)^k "
           "A^{l+k}_n(g+ma+kb) x^k",
           lambda g: _poly_pts(g, m=g.shift_ms), _shiftable)
def _ev_shift_raise(pt: Point) -> dict:
    p, n, m = _params(pt), pt["n"], pt["m"]
    rhs = XPolynomial.zero()
    for k, (weight, lifted) in enumerate(_shift_setup(p, m).raise_terms):
        rhs = rhs + (weight * a_explicit(lifted, n)).times_x(k)
    return {"main": ((-1) ** m * a_explicit(p, n + m), rhs)}


@_identity("shift-inverse", "recorded",
           "A^{l+m}_n(a,-b,g) at -x-1 = (-1)^m sum_k (-1)^k S(m,k;-b,a,g-ma+lb) "
           "A^l_{n+k}(g-sa+lb)(x) / ((l)^(m) (bx)^m); s read as m (printed) "
           "or k (rowwise)",
           lambda g: _poly_pts(g, m=g.shift_ms), _shiftable)
def _ev_shift_inverse(pt: Point) -> dict:
    # Both readings sum (-1)^k s(m, k) A_(n+k)(x0) over the dual row s(m, .)
    # and scale by (-1)^m / ((lam)^(m) (b x0)^m); they differ only in the
    # gamma shift of A, m a (printed) or k a (rowwise).  Everything but the
    # A polynomials is shared, and each is built once for all markers.
    p, n, m = _params(pt), pt["n"], pt["m"]
    s = _shift_setup(p, m)
    lifted = a_explicit(s.inverse_lhs, n)
    lhs = tuple(lifted(arg) for arg in _SHIFT_ARGS)

    def rhs(records) -> tuple:
        polys = [a_explicit(record, n + k) for k, record in enumerate(records)]
        return tuple(scale * sum((c * poly(x0) for c, poly in zip(s.signed, polys)),
                                 Fraction(0))
                     for x0, scale in zip(_SHIFT_MARKERS, s.scales))

    return {"printed": (lhs, rhs(s.printed)), "rowwise": (lhs, rhs(s.rowwise))}


def _spivey_pts(grid: GridSpec) -> list:
    pts = _exp_pts(grid, n=range(grid.n_max + 1), m=_spivey_ms(grid))
    return [pt for pt in pts if pt["n"] + pt["m"] <= grid.n_max]


@_identity("spivey", "recorded",
           "S_{n+m}(x) = sum_j sum_k C(n,k) S(M,J) (j b - m a | a)_{n-k} S_k(x) "
           "x^j; (M,J) read as (n,k) [printed] or (m,j) [classical]",
           _spivey_pts)
def _ev_spivey(pt: Point) -> dict:
    # Both readings sum C(n,k) S_k(x) (j b - m a | a)_(n-k) x^j over k, j,
    # times S(n, k) (printed) or S(m, j) (classical).  With d the triangle's
    # lcm, T its integer rows, x = u/v and ad, bd = alpha d, beta d:
    #   S(n, k) = T(n, k) / d^(n-k),
    #   S_k(x) = N_k / (d v)^k,  N_k = sum_i T(k, i) (d u)^i v^(k-i),
    #   the sum of row k of S_n's sweep,
    #   (j b - m a | a)_L = G(j, L) / d^L,  G(j, L) = prod_(l<L) (j bd - (m+l) ad),
    # so the printed reading is one integer sum over d^(2n) v^(n+m) and the
    # classical one over d^(n+m) v^(n+m); term (k, j) is raised to them by
    # d^k (printed) or d^j (classical) and v^(n-k) v^(m-j).
    p = ExpPolyParams(pt["alpha"], pt["beta"], pt["r"])
    x, n, m = pt["x"], pt["n"], pt["m"]
    u, v = x.numerator, x.denominator
    s = _spivey_setup(p, m)
    sp, d = s.sp, s.d
    outer = stirling_int_row(sp, n)[1]
    falls = [_upto(run, n) for run in s.falls]
    powers = [u ** j * v ** (m - j) for j in range(m + 1)]
    weights = [t * w for t, w in zip(s.inner, powers)]
    printed = classical = 0
    for k, (row, _) in enumerate(_value_sweep(sp, x, n, _s_ratio)):
        head = math.comb(n, k) * sum(row) * v ** (n - k)
        col = [run[n - k] for run in falls]
        printed += outer[k] * d ** k * head * sum(map(operator.mul, col, powers))
        classical += head * sum(map(operator.mul, col, weights))
    vden = v ** (n + m)
    lhs = s_exp_eval(p, n + m, x)
    return {"printed": (lhs, Fraction(printed, d ** (2 * n) * vden)),
            "classical": (lhs, Fraction(classical, d ** (n + m) * vden))}


@_identity("lemma34", "hard",
           "sum_n S_{n+m}(x) t^n/n! = (1+at)^((r-ma)/a) exp((x/b) u) "
           "S_m(x (1+at)^(b/a)), u = (1+at)^(b/a) - 1",
           lambda g: _exp_pts(g, m=_spivey_ms(g), order=(g.n_max,)), _beta_nonzero)
def _ev_lemma34(pt: Point) -> dict:
    p = ExpPolyParams(pt["alpha"], pt["beta"], pt["r"])
    lhs, rhs = lemma34_sides(p, pt["x"], pt["m"], pt["order"])
    return {"main": (lhs, rhs)}


@_identity("routes-exp", "hard",
           "S_n(x) from triangle rows == generating series coefficients",
           lambda g: _exp_pts(g, n=range(g.n_max + 1), order=(g.n_max,)),
           _beta_nonzero)
def _ev_routes_exp(pt: Point) -> dict:
    p = ExpPolyParams(pt["alpha"], pt["beta"], pt["r"])
    x, n = pt["x"], pt["n"]
    rhs = s_exp_egf(p, x, pt["order"]).egf_value(n)
    return {"explicit-vs-series": (s_exp_eval(p, n, x), rhs)}


@_identity("routes-euler", "hard",
           "E_n by A-specialization == generating series == both explicit sums "
           "== gamma polynomial",
           lambda g: _poly_pts(g, g.euler_points, order=(g.n_max,)))
def _ev_routes_euler(pt: Point) -> dict:
    p = EulerParams(pt["lam"], pt["alpha"], pt["beta"])
    g, n, order = pt["gamma"], pt["n"], pt["order"]
    v = euler_via_a(p, g, n)
    e1, e2 = euler_explicit(p, g, n)
    series = euler_egf(p, g, order)
    gamma_polys = _gamma_polynomials(p, order)
    return {
        "a-vs-series": (v, series.egf_value(n)),
        "a-vs-explicit-plus": (v, e1),
        "a-vs-explicit-minus": (v, e2),
        "a-vs-polynomial": (v, gamma_polys[n](g)),
    }


def _euler_at(sp: StirlingParams, lam: int, n: int) -> Fraction:
    """E^(lam)_n at the triangle sp, read from its memoised column."""
    return _euler_values(sp, lam, n)[n]


@_identity("euler-rec", "recorded",
           "order raising, argument raising, and order lowering for E_n; "
           "printed forms plus repaired readings",
           lambda g: _poly_pts(g, g.euler_points, m=g.shift_ms), _shiftable)
def _ev_euler_rec(pt: Point) -> dict:
    lam, b = pt["lam"], pt["beta"]
    g, n, m = pt["gamma"], pt["n"], pt["m"]
    s = _euler_rec_setup(_params(pt), m)

    out = {}
    lhs1, here = _euler_at(s.here, lam + 1, n), _euler_at(s.here, lam, n)
    out["rec1-printed"] = (lhs1, 2 * here - _euler_at(s.up, lam, n))
    out["rec1-lifted"] = (lhs1, 2 * here - _euler_at(s.up, lam + 1, n))

    lhs2, lowered = _euler_at(s.here, lam, n + 1), _euler_at(s.down, lam, n)
    out["rec2-printed"] = (lhs2, (g - lam * b) * lowered + lam * b * lowered
                           - lam * b * HALF * _euler_at(s.up_down, lam, n))
    out["rec2-lifted"] = (lhs2, g * lowered
                          - lam * b * HALF * _euler_at(s.up_down, lam + 1, n))
    out["rec2-derived"] = (lhs2, (g - lam * b) * lowered
                           + lam * b * HALF * _euler_at(s.down, lam + 1, n))

    col = _euler_values(s.tri, lam, n + m)
    acc = sum((t * col[n + k] for k, t in enumerate(s.tri_row)), Fraction(0))
    lhs3 = _euler_at(s.negated, lam + m, n)
    out["rec3-printed"] = (lhs3, s.factor * acc)

    # Lowering E^(lam+s)(theta, n) one order at a time:
    #   L_s(theta, n) = 2/((lam+s-1) b) ((theta+a-b) L_{s-1}(theta-b, n)
    #                                    - L_{s-1}(theta-b+a, n+1)),
    # L_0 = E^(lam).  After d steps from L_m(-g, n) the terms are
    # L_{m-d}(-g - d b + j a, n + j) for 0 <= j <= d; build them from d = m up.
    row = [_euler_at(sp, lam, n + j) for j, sp in enumerate(s.lowered)]
    for scale, coeffs in s.steps:
        row = [scale * (c * row[j] - row[j + 1]) for j, c in enumerate(coeffs)]
    out["rec3-derived"] = (lhs3, row[0])
    return out


@_identity("euler-conv", "recorded",
           "binomial convolutions for E_n: weighted, plain, alternating; "
           "printed forms plus repaired readings",
           _pair_pts)
def _ev_euler_conv(pt: Point) -> dict:
    s, n = _pair_setup(*_pair_params(pt)), pt["n"]

    def conv(first, second):
        f, g = _euler_values(*first, n), _euler_values(*second, n)
        return _binomial_sum(n, lambda k: f[k] * g[n - k], Fraction(0))

    def alt_conv(second):
        f, g = _euler_values(*s.alt_first, n), _euler_values(*second, n)
        return _binomial_sum(n, lambda k: (-1) ** (n - k) * f[k] * g[n - k],
                             Fraction(0))

    printed = conv(s.conv_first, s.conv_second)
    rhs1 = 2 * s.gsum * _euler_at(*s.total_down, n) - 2 * _euler_at(*s.total, n + 1)
    alt_rhs = _euler_at(*s.alt_total, n)
    return {
        "conv1-printed": (s.b_lam * printed, rhs1),
        "conv1-shifted": (s.b_lam * conv(s.shifted_first, s.shifted_second), rhs1),
        "conv2": (printed, _euler_at(*s.conv2, n)),
        "conv3-lam2": (alt_conv(s.alt_second_l2), alt_rhs),
        "conv3-lam1": (alt_conv(s.alt_second_l1), alt_rhs),
    }


REGISTRY: tuple[Identity, ...] = tuple(_DECLARED)

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


def _counterexample(pt: Point, lhs: str, rhs: str) -> dict:
    return {"point": _ser_point(pt), "lhs": lhs, "rhs": rhs}


# The reading a point fails when its identity's evaluator raises there
# instead of returning both sides.  It passes at every point whose sides were
# returned and is listed after the identity's own readings, only when it
# failed, so a report in which nothing raised keeps its bytes.  Its first
# counterexample reads "<exception type>: <text>" against "no exception".
# A point that raised is tallied under no other reading, so there the other
# readings count pass + fail = points - (the points that raised).
EVALUATES = "evaluates"


def _sides(ident: Identity, pt: Point) -> dict:
    """The identity's {reading: (lhs, rhs)} at pt, the one way run_suite and
    counterexample_minimize read it.  Where the evaluator raises (any
    Exception) it is {EVALUATES: ("<exception type>: <text>", "no exception")}."""
    try:
        return ident.evaluate(pt)
    except Exception as e:
        return {EVALUATES: (f"{type(e).__name__}: {e}", "no exception")}


def run_suite(spec: GridSpec) -> ConformanceReport:
    """Every chosen identity at every point of its domain on the grid.

    An exception an evaluator raises at a point (any Exception) fails that
    point's EVALUATES reading rather than ending the run, so a fault that
    breaks a route outright still gives a report with a counterexample.
    Only an unknown id in select raises (ValueError).
    """
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
        evaluates = [0, 0, None]
        for pt in pts:
            sides = _sides(ident, pt)
            if EVALUATES in sides:
                evaluates[1] += 1
                if evaluates[2] is None:
                    evaluates[2] = _counterexample(pt, *sides[EVALUATES])
                continue
            evaluates[0] += 1
            for name, (lhs, rhs) in sides.items():
                slot = tally.setdefault(name, [0, 0, None])
                if lhs == rhs:
                    slot[0] += 1
                else:
                    slot[1] += 1
                    if slot[2] is None:
                        slot[2] = _counterexample(pt, _render(lhs), _render(rhs))
        if evaluates[1]:
            tally[EVALUATES] = evaluates
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

    Every candidate stays inside the identity's domain, and is read through
    _sides, as run_suite reads a point: it fails a comparison reading where
    the evaluator returns two unequal sides, the EVALUATES reading where it
    raises.  So an exception of any type
    (ValueError and ZeroDivisionError, the domain gaps of the forms that
    divide, as much as any other) never makes a candidate a counterexample
    of a comparison reading, and always makes it one of EVALUATES.  Raises
    ValueError when the starting point does not fail the reading.
    """
    ident = _BY_ID.get(identity_id)
    if ident is None:
        raise ValueError(f"unknown identity id: {identity_id}")

    def fails(pt: Point) -> bool:
        if not ident.domain(pt):
            return False
        sides = _sides(ident, pt)
        if reading in sides:
            lhs, rhs = sides[reading]
            return lhs != rhs
        if reading == EVALUATES or EVALUATES in sides:
            return False
        raise ValueError(f"unknown reading {reading!r} for {identity_id}")

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
