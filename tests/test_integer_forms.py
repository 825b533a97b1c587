"""The integer-scaled evaluators against the Fraction-level forms they replace.

Each reference below is the plain rational body of an evaluator or kernel as
it stood before it was rewritten as one integer sum over a known
denominator.  Over small random rational parameters the rewritten form must
return exactly equal values of the same types.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from geomstir import harness
from geomstir.euler import EulerParams, euler_explicit
from geomstir.exppoly import ExpPolyParams, s_exp_eval
from geomstir.geom import PolyParams, a_eval, a_explicit, lam_binom
from geomstir.series import Series, gff, rising, series_mul
from geomstir.stirling import (StirlingParams, param_swap_rhs, stirling_explicit,
                               stirling_rec, stirling_row)
from geomstir.xpoly import XPolynomial

Q = Fraction

# denominators up to 4, so the triangles' lcm d is often 2, 3, 4, 6 or 12
small_q = st.fractions(min_value=-3, max_value=3, max_denominator=4)
nonzero_q = small_q.filter(bool)


def same(got, want):
    """Exactly equal, and of the same type at every leaf."""
    assert got == want
    if isinstance(want, (tuple, list)):
        assert type(got) is type(want) and len(got) == len(want)
        for g, w in zip(got, want):
            same(g, w)
    elif isinstance(want, dict):
        assert got.keys() == want.keys()
        for key in want:
            same(got[key], want[key])
    else:
        assert type(got) is type(want)


# ------------------------------------------------------------ references


def ref_orthogonality(pt):
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


def ref_spivey(pt):
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


def ref_shift_inverse_sides(pt, arg_shift):
    p = PolyParams(pt["lam"], pt["alpha"], pt["beta"], pt["gamma"])
    n, m = pt["n"], pt["m"]
    lam, a, b, g = p.lam, p.alpha, p.beta, p.gamma
    dual = StirlingParams(a, -b, -g + m * a - lam * b).dual()
    lhs_vals, rhs_vals = [], []
    for x0 in harness._SHIFT_MARKERS:
        lhs_vals.append(a_explicit(PolyParams(lam + m, a, -b, g), n)(-x0 - 1))
        acc = Fraction(0)
        for k in range(m + 1):
            acc += ((-1) ** k * stirling_rec(dual, m, k)
                    * a_eval(PolyParams(lam, a, b, g - arg_shift(k) * a + lam * b),
                             n + k, x0))
        rhs_vals.append((-1) ** m * acc / (rising(Fraction(lam), m) * (b * x0) ** m))
    return tuple(lhs_vals), tuple(rhs_vals)


def ref_shift_inverse(pt):
    m = pt["m"]
    return {
        "printed": ref_shift_inverse_sides(pt, lambda k: m),
        "rowwise": ref_shift_inverse_sides(pt, lambda k: k),
    }


def ref_euler_explicit(p, gamma, n):
    gamma = Fraction(gamma)
    s_plus = StirlingParams(p.alpha, p.beta, gamma)
    s_minus = StirlingParams(p.alpha, -p.beta, gamma - p.beta * p.lam)
    f1 = sum(
        (
            stirling_rec(s_plus, n, k)
            * lam_binom(p.lam, k)
            * math.factorial(k)
            * (-p.beta) ** k
            / Fraction(2) ** k
            for k in range(n + 1)
        ),
        Fraction(0),
    )
    f2 = sum(
        (
            stirling_rec(s_minus, n, k)
            * lam_binom(p.lam, k)
            * math.factorial(k)
            * p.beta ** k
            / Fraction(2) ** k
            for k in range(n + 1)
        ),
        Fraction(0),
    )
    return f1, f2


def ref_stirling_explicit(params, n, k):
    if params.beta == 0:
        raise ValueError("explicit form needs beta != 0; use stirling_rec")
    if n < 0 or k < 0:
        raise ValueError("need n, k >= 0")
    if k > n:
        return Fraction(0)
    a, b, g = params.alpha, params.beta, params.gamma
    acc = Fraction(0)
    sign = (-1) ** k
    for s in range(k + 1):
        acc += sign * math.comb(k, s) * gff(b * s + g, a, n)
        sign = -sign
    return acc / (b ** k * math.factorial(k))


def ref_param_swap_rhs(params, n, k):
    a, g = params.alpha, params.gamma
    acc = Fraction(0)
    for s in range(k, n + 1):
        acc += math.comb(n, s) * gff(g, a, n - s) * stirling_rec(params, s, k)
    return acc


def ref_eq7(pt):
    p, n = PolyParams(pt["lam"], pt["alpha"], pt["beta"], pt["gamma"]), pt["n"]
    sp0 = StirlingParams(p.alpha, -p.beta, Fraction(0))
    rows = [stirling_row(sp0, i) for i in range(n + 1)]
    falls = [gff(p.gamma, -p.alpha, j) for j in range(n + 1)]
    rhs = XPolynomial(
        lam_binom(p.lam, k) * (-p.beta) ** k * math.factorial(k)
        * sum(rows[i][k] * (-1) ** i * math.comb(n, i) * falls[n - i]
              for i in range(k, n + 1))
        for k in range(n + 1)
    )
    return {"main": (a_explicit(p, n), rhs)}


def ref_cauchy(f, g):
    n = f.order
    out = []
    for m in range(n + 1):
        acc = f.coeffs[0] * g.coeffs[m]
        for i in range(1, m + 1):
            acc = acc + f.coeffs[i] * g.coeffs[m - i]
        out.append(acc)
    return Series(tuple(out))


# ---------------------------------------------------------------- checks


@settings(max_examples=80, deadline=None)
@given(small_q, small_q, small_q, st.integers(0, 7))
def test_orthogonality_integer_form(a, b, g, n):
    pt = {"alpha": a, "beta": b, "gamma": g, "n": n}
    same(harness._ev_orthogonality(pt), ref_orthogonality(pt))


@settings(max_examples=80, deadline=None)
@given(small_q, small_q, small_q, small_q, st.integers(0, 6), st.integers(0, 3))
def test_spivey_integer_form(a, b, r, x, n, m):
    pt = {"alpha": a, "beta": b, "r": r, "x": x, "n": n, "m": m}
    same(harness._ev_spivey(pt), ref_spivey(pt))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), small_q, nonzero_q, small_q, st.integers(0, 5),
       st.integers(0, 3))
def test_shift_inverse_hoisted_form(lam, a, b, g, n, m):
    pt = {"lam": lam, "alpha": a, "beta": b, "gamma": g, "n": n, "m": m}
    same(harness._ev_shift_inverse(pt), ref_shift_inverse(pt))


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 3), small_q, small_q, small_q, st.integers(0, 8))
def test_euler_explicit_integer_form(lam, a, b, g, n):
    p = EulerParams(lam, a, b)
    same(euler_explicit(p, g, n), ref_euler_explicit(p, g, n))


@settings(max_examples=80, deadline=None)
@given(small_q, small_q, small_q, st.integers(0, 8), st.integers(0, 10))
def test_stirling_explicit_integer_form(a, b, g, n, k):
    # k runs past n, where both forms give 0
    sp = StirlingParams(a, b, g)
    if b == 0:
        for form in (stirling_explicit, ref_stirling_explicit):
            with pytest.raises(ValueError):
                form(sp, n, k)
    else:
        same(stirling_explicit(sp, n, k), ref_stirling_explicit(sp, n, k))


@settings(max_examples=80, deadline=None)
@given(small_q, small_q, small_q, st.integers(0, 8), st.integers(0, 10))
def test_param_swap_rhs_integer_form(a, b, g, n, k):
    sp = StirlingParams(a, b, g)
    same(param_swap_rhs(sp, n, k), ref_param_swap_rhs(sp, n, k))


def test_integer_forms_keep_their_errors():
    sp = StirlingParams(Q(1, 2), Q(-3, 4), Q(5, 3))
    for n, k in ((-1, 0), (2, -1), (-2, -3)):
        for form in (stirling_explicit, ref_stirling_explicit):
            with pytest.raises(ValueError):
                form(sp, n, k)
    for n, k in ((2, -1), (-2, -3)):
        for form in (param_swap_rhs, ref_param_swap_rhs):
            with pytest.raises(ValueError):
                form(sp, n, k)
    # k past n is an empty sum, negative n included
    for n, k in ((-1, 0), (2, 3)):
        same(param_swap_rhs(sp, n, k), ref_param_swap_rhs(sp, n, k))
        same(param_swap_rhs(sp, n, k), Fraction(0))


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 3), small_q, small_q, small_q, st.integers(0, 7))
def test_eq7_integer_form(lam, a, b, g, n):
    pt = {"lam": lam, "alpha": a, "beta": b, "gamma": g, "n": n}
    same(harness._ev_eq7(pt), ref_eq7(pt))


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 7).flatmap(
    lambda n: st.tuples(*[st.lists(small_q, min_size=n + 1, max_size=n + 1)] * 2)))
def test_series_mul_rational_path(pair):
    f, g = (Series(tuple(c)) for c in pair)
    same(series_mul(f, g).coeffs, ref_cauchy(f, g).coeffs)


def test_series_mul_generic_coefficients():
    # ints mixed with Fractions take the integer path and give Fractions
    mixed = Series((1, Q(1, 2), 3))
    other = Series((Q(2, 3), 2, Q(-1, 4)))
    prod = series_mul(mixed, other)
    same(prod.coeffs, ref_cauchy(mixed, other).coeffs)
    assert prod.coeffs == (Q(2, 3), Q(7, 3), Q(11, 4))
