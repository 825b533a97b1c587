import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from geomstir import (
    EulerParams,
    ExpPolyParams,
    PolyParams,
    Series,
    XPolynomial,
    a_egf,
    a_explicit,
    binom,
    euler_egf,
    euler_via_a,
    falling,
    gff,
    rising,
    s_exp_egf,
    s_exp_eval,
)
from geomstir.euler import _gamma_polynomials
from geomstir.series import (
    SERIES_CACHE_SIZE,
    binomial_series,
    lift_to_poly,
    series_exp,
    series_geom_inverse,
    series_int_pow,
    series_one,
)

Q = Fraction
small_q = st.fractions(min_value=-3, max_value=3, max_denominator=3)


def test_gff_basics():
    assert gff(Q(5), Q(1), 3) == 5 * 4 * 3
    assert gff(Q(5), Q(0), 3) == 125
    assert gff(Q(5), Q(2), 2) == 5 * 3
    assert gff(Q(5), Q(1), 0) == 1
    assert falling(Q(4), 2) == 12
    assert rising(Q(4), 2) == 20
    with pytest.raises(ValueError):
        gff(Q(1), Q(1), -1)


def test_gff_polynomial_argument():
    x = XPolynomial.x()
    assert gff(x, Q(1), 2) == XPolynomial([0, -1, 1])  # x(x-1)


@given(st.one_of(st.integers(-20, 20),
                 st.fractions(min_value=-20, max_value=20, max_denominator=15)),
       st.one_of(st.just(Q(0)), st.integers(-6, 6),
                 st.fractions(min_value=-6, max_value=6, max_denominator=15)),
       st.integers(min_value=0, max_value=14))
def test_integer_gff_matches_naive_product(t, alpha, n):
    naive = Q(1)
    for k in range(n):
        naive = naive * (t - k * alpha)
    got = gff(t, alpha, n)
    assert type(got) is Q and got == naive
    # the XPolynomial branch evaluated at t gives the same value
    assert gff(XPolynomial.x(), alpha, n)(t) == naive


def test_integer_gff_edge_cases():
    assert gff(Q(-3, 2), Q(0), 4) == Q(81, 16)
    assert gff(Q(-3, 2), Q(-1, 2), 3) == Q(-3, 2) * Q(-1) * Q(-1, 2)
    assert gff(Q(3), Q(1), 5) == 0                # passes through zero
    assert gff(Q(2, 3), Q(-5, 4), 0) == 1 and type(gff(2, 1, 0)) is Q


def test_binom_rational_argument():
    assert binom(Q(1, 2), 2) == Q(-1, 8)
    assert binom(Q(5), 2) == 10
    assert binom(Q(3), 5) == 0


def test_series_round_trips():
    s = Series.from_egf([Q(1), Q(1), Q(2), Q(6)])
    assert s.egf_values() == [1, 1, 2, 6]
    assert s.coefficient(3) == Q(1)  # 6 / 3!
    assert s.order == 3
    assert Series.from_ordinary(s.coeffs) == s


def test_series_requires_matching_orders():
    with pytest.raises(ValueError):
        series_one(3) + series_one(4)


def test_cauchy_product_against_naive_loop():
    f = Series.from_ordinary([Q(1), Q(2), Q(3), Q(4)])
    g = Series.from_ordinary([Q(5), Q(6), Q(7), Q(8)])
    prod = f * g
    for n in range(4):
        naive = sum(f.coefficient(i) * g.coefficient(n - i) for i in range(n + 1))
        assert prod.coefficient(n) == naive


def test_geom_inverse_round_trip():
    f = Series.from_ordinary([Q(1), Q(-2), Q(1, 3), Q(5)])
    assert f * series_geom_inverse(f) == series_one(3)


def test_geom_inverse_needs_unit_constant():
    with pytest.raises(ValueError):
        series_geom_inverse(Series.from_ordinary([Q(0), Q(1)]))


def test_int_pow_matches_repeated_product():
    f = Series.from_ordinary([Q(1), Q(1), Q(1, 2)])
    assert series_int_pow(f, 3) == f * f * f
    assert series_int_pow(f, 0) == series_one(2)
    assert series_int_pow(f, -2) * f * f == series_one(2)


def test_series_exp_of_t():
    t = Series.from_ordinary([Q(0), Q(1), Q(0), Q(0), Q(0)])
    e = series_exp(t)
    for n in range(5):
        assert e.coefficient(n) == Q(1, math.factorial(n))
    # exp(x t) has EGF values x^n
    xt = Series.from_ordinary([XPolynomial.zero(), XPolynomial.x(), 0, 0, 0])
    assert series_exp(xt).egf_values() == [XPolynomial.x() ** n for n in range(5)]


def test_series_exp_rejects_nonzero_constant():
    with pytest.raises(ValueError):
        series_exp(series_one(2))
    with pytest.raises(ValueError):
        series_exp(lift_to_poly(series_one(2)))


def _exp_by_powers(f: Series) -> Series:
    """Reference exp(f) = sum_{j=0..N} f^j / j!, N series products."""
    one = series_one(f.order)
    if any(isinstance(c, XPolynomial) for c in f.coeffs):
        one = lift_to_poly(one)
    out, power = one, one
    for j in range(1, f.order + 1):
        power = power * f
        out = out + power.scale(Q(1, math.factorial(j)))
    return out


@settings(max_examples=60)
@given(st.lists(small_q, max_size=8))
def test_series_exp_matches_power_sum(tail):
    f = Series.from_ordinary([Q(0)] + tail)
    got = series_exp(f)
    assert got == _exp_by_powers(f)
    assert all(type(c) is Q for c in got.coeffs)


small_poly = st.lists(small_q, max_size=3).map(XPolynomial)


@settings(max_examples=40)
@given(st.lists(st.one_of(small_poly, small_q), max_size=6))
def test_series_exp_matches_power_sum_polynomial_coefficients(tail):
    # mixed Fraction and XPolynomial coefficients, constant term the zero poly
    f = Series.from_ordinary([XPolynomial.zero()] + tail)
    got = series_exp(f)
    assert got == _exp_by_powers(f)
    assert all(isinstance(c, XPolynomial) for c in got.coeffs)


def test_binomial_series_values_are_gff():
    # (1 + alpha t)^(beta/alpha) carries EGF values (beta | alpha)_n
    a, b = Q(2), Q(3)
    s = binomial_series(a, b, 5)
    for n in range(6):
        assert s.egf_value(n) == gff(b, a, n)


def test_binomial_series_alpha_zero_is_exp():
    s = binomial_series(Q(0), Q(2), 4)
    for n in range(5):
        assert s.egf_value(n) == Q(2) ** n


@settings(max_examples=60)
@given(small_q, small_q, small_q)
def test_binomial_exponent_additivity(a, b1, b2):
    order = 5
    lhs = binomial_series(a, b1, order) * binomial_series(a, b2, order)
    assert lhs == binomial_series(a, b1 + b2, order)


@settings(max_examples=40)
@given(st.lists(small_q, min_size=1, max_size=5))
def test_inverse_round_trip_property(tail):
    f = Series.from_ordinary([Q(1)] + tail)
    assert f * series_geom_inverse(f) == series_one(f.order)


def test_lift_to_poly_promotes_coefficients():
    f = lift_to_poly(series_one(2))
    assert isinstance(f.coefficient(0), XPolynomial)
    scaled = f.scale(XPolynomial.x())
    assert scaled.coefficient(0) == XPolynomial.x()


# ---------------------------------------------------------------------------
# series routes: coefficient n of an order-N build is the order-n value, so
# the harness builds each series once per parameter set at its top order

routes_q = st.sampled_from([Q(0), Q(1), Q(-1), Q(2), Q(-2), Q(1, 2), Q(-3, 2)])
orders = st.tuples(st.integers(0, 6), st.integers(0, 4)).map(
    lambda t: (t[0], t[0] + t[1]))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 3), routes_q, routes_q, routes_q, orders)
def test_a_egf_prefix_stable(lam, a, b, g, nn):
    n, top = nn
    p = PolyParams(lam, a, b, g)
    assert a_egf(p, top).values[n] == a_egf(p, n).values[n] == a_explicit(p, n)


@settings(max_examples=30, deadline=None)
@given(routes_q, routes_q.filter(bool), routes_q, routes_q, orders)
def test_s_exp_egf_prefix_stable(a, b, r, x, nn):
    n, top = nn
    p = ExpPolyParams(a, b, r)
    got = s_exp_egf(p, x, top).egf_value(n)
    assert got == s_exp_egf(p, x, n).egf_value(n) == s_exp_eval(p, n, x)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 3), routes_q, routes_q, routes_q, orders)
def test_euler_routes_prefix_stable(lam, a, b, g, nn):
    n, top = nn
    p = EulerParams(lam, a, b)
    want = euler_via_a(p, g, n)
    assert euler_egf(p, g, top).egf_value(n) == euler_egf(p, g, n).egf_value(n) == want
    polys = _gamma_polynomials(p, top)
    assert len(polys) == top + 1
    assert polys[n] == _gamma_polynomials(p, n)[n]
    assert polys[n](g) == want


def test_series_memos_stay_within_their_bound():
    from geomstir.harness import _series_build

    for memo in (a_egf, _series_build):
        assert memo.cache_info().maxsize == SERIES_CACHE_SIZE
    for i in range(SERIES_CACHE_SIZE + 5):
        a_egf(PolyParams(1, Q(i), Q(1), Q(0)), 1)
        _series_build(s_exp_egf, ExpPolyParams(Q(0), Q(1), Q(i)), Q(1), 1)
    for memo in (a_egf, _series_build):
        assert memo.cache_info().currsize == SERIES_CACHE_SIZE
