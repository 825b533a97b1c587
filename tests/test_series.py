import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from geomstir import (
    EulerParams,
    ExpPolyParams,
    PolyParams,
    Series,
    StirlingParams,
    a_egf,
    a_explicit,
    euler_egf,
    euler_via_a,
    falling,
    gff,
    rising,
    s_exp_egf,
    s_exp_eval,
)
from geomstir import harness
from geomstir.euler import _gamma_polynomials
from geomstir.exppoly import lemma34_sides, s_exp_explicit
from geomstir.geom import a_recurrence
from geomstir.series import (
    POLY_CACHE_SIZE,
    SERIES_CACHE_SIZE,
    TABLE_CACHE_SIZE,
    binomial_series,
    series_exp,
    series_geom_inverse,
    series_int_pow,
    series_mul,
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


def test_integer_gff_edge_cases():
    assert gff(Q(-3, 2), Q(0), 4) == Q(81, 16)
    assert gff(Q(-3, 2), Q(-1, 2), 3) == Q(-3, 2) * Q(-1) * Q(-1, 2)
    assert gff(Q(3), Q(1), 5) == 0                # passes through zero
    assert gff(Q(2, 3), Q(-5, 4), 0) == 1 and type(gff(2, 1, 0)) is Q
    assert gff(1.5, 1, 2) == Q(3, 4) and type(gff(1.5, 1, 2)) is Q  # exact binary value


def test_series_round_trips():
    s = Series.from_egf([Q(1), Q(1), Q(2), Q(6)])
    assert s.egf_values() == [1, 1, 2, 6]
    assert s.coeffs[3] == Q(1)  # 6 / 3!
    assert s.order == 3
    assert Series(tuple(s.coeffs)) == s


# pins: a Series reaches the report only through harness._render (the
# egf[...] bytes of a counterexample) and its repr
def test_series_repr_is_pinned():
    s = binomial_series(Q(-1, 2), Q(3, 2), 4)
    assert repr(s) == ("Series(coeffs=(Fraction(1, 1), Fraction(3, 2), Fraction(3, 2), "
                       "Fraction(5, 4), Fraction(15, 16)))")
    assert repr(series_one(0)) == "Series(coeffs=(Fraction(1, 1),))"
    p = ExpPolyParams(Q(1, 2), Q(-1), Q(3, 2))
    _, rhs = lemma34_sides(p, Q(-3, 2), 2, 3)
    assert repr(rhs) == ("Series(coeffs=(Fraction(3, 2), Fraction(-15, 4), "
                         "Fraction(135, 16), Fraction(-117, 8)))")


def test_series_render_is_pinned():
    s = binomial_series(Q(-1, 2), Q(3, 2), 4)
    assert harness._render(s) == "egf[1, 3/2, 3, 15/2, 45/2]"
    assert harness._render((s, Q(1, 3))) == "[egf[1, 3/2, 3, 15/2, 45/2], 1/3]"
    p = ExpPolyParams(Q(1, 2), Q(-1), Q(3, 2))
    lhs, _ = lemma34_sides(p, Q(-3, 2), 2, 3)
    assert harness._render(lhs) == "egf[3/2, -15/4, 135/8, -351/4]"
    assert harness._render(series_one(2).scale(0)) == "egf[0, 0, 0]"


def test_series_equal_values_compare_and_hash_equal():
    # the same values reached from ints, unreduced Fractions and two routes
    pairs = [
        (Series((1, Q(1, 2), 3)), Series((Q(2, 2), Q(3, 6), Q(6, 2)))),
        (series_one(3), Series((Q(1), 0, 0, Q(0)))),
        (binomial_series(Q(0), Q(2), 4), Series.from_egf([Q(2) ** n for n in range(5)])),
        (binomial_series(Q(2), Q(1), 3) * binomial_series(Q(2), Q(2), 3),
         binomial_series(Q(2), Q(3), 3)),
        (series_one(2).scale(0), Series((Q(0), Q(0), Q(0)))),
    ]
    for f, g in pairs:
        assert f == g and not f != g
        assert hash(f) == hash(g)
        assert len({f, g}) == 1


def test_series_of_two_orders_are_unequal():
    assert series_one(2) != series_one(3)
    assert Series((Q(0),)) != Series((Q(0), Q(0)))
    assert Series((Q(1), Q(2))) != Series((Q(1), Q(2), Q(0)))
    assert Series((Q(1), Q(2))) != Series((Q(1), Q(3)))
    assert Series((Q(1),)) != (Q(1),)


def test_series_requires_matching_orders():
    with pytest.raises(ValueError):
        series_one(3) * series_one(4)


def test_cauchy_product_against_naive_loop():
    f = Series((Q(1), Q(2), Q(3), Q(4)))
    g = Series((Q(5), Q(6), Q(7), Q(8)))
    prod = f * g
    for n in range(4):
        naive = sum(f.coeffs[i] * g.coeffs[n - i] for i in range(n + 1))
        assert prod.coeffs[n] == naive


def test_geom_inverse_round_trip():
    f = Series((Q(1), Q(-2), Q(1, 3), Q(5)))
    assert f * series_geom_inverse(f) == series_one(3)


def test_geom_inverse_needs_unit_constant():
    with pytest.raises(ValueError):
        series_geom_inverse(Series((Q(0), Q(1))))


def test_int_pow_matches_repeated_product():
    f = Series((Q(1), Q(1), Q(1, 2)))
    assert series_int_pow(f, 3) == f * f * f
    assert series_int_pow(f, 0) == series_one(2)
    assert series_int_pow(f, -2) * f * f == series_one(2)
    # square-and-multiply against m - 1 products, on every bit pattern to 9
    unit = Series((Q(2), Q(-1, 3), Q(0), Q(5, 7), Q(1)))
    no_constant = Series((Q(0), Q(3, 2), Q(-1), Q(0), Q(2)))
    for g, powers in ((unit, range(-6, 10)), (no_constant, range(10))):
        base = g if min(powers) >= 0 else series_geom_inverse(g)
        for m in powers:
            want = series_one(g.order)
            for _ in range(abs(m)):
                want = series_mul(want, g if m > 0 else base)
            assert series_int_pow(g, m) == want, m


def test_series_exp_of_t():
    t = Series((Q(0), Q(1), Q(0), Q(0), Q(0)))
    e = series_exp(t)
    for n in range(5):
        assert e.coeffs[n] == Q(1, math.factorial(n))


def test_series_exp_rejects_nonzero_constant():
    with pytest.raises(ValueError):
        series_exp(series_one(2))


def _exp_by_powers(f: Series) -> Series:
    """Reference exp(f) = sum_{j=0..N} f^j / j!, N series products."""
    out = power = series_one(f.order)
    for j in range(1, f.order + 1):
        power = power * f
        term = power.scale(Q(1, math.factorial(j)))
        out = Series(tuple(a + b for a, b in zip(out.coeffs, term.coeffs)))
    return out


@settings(max_examples=60)
@given(st.lists(small_q, max_size=8))
def test_series_exp_matches_power_sum(tail):
    f = Series(tuple([Q(0)] + tail))
    got = series_exp(f)
    assert got == _exp_by_powers(f)
    assert all(type(c) is Q for c in got.coeffs)


def test_int_coefficients_give_fractions():
    # 1 / an int constant is a float; the inverse and exp must stay exact
    f = Series((2, 1, -3, 0))
    inv = series_geom_inverse(f)
    assert all(type(c) is Q for c in inv.coeffs)
    assert f * inv == series_one(3)
    e = series_exp(Series((0, 2, 0, 1)))
    assert all(type(c) is Q for c in e.coeffs)
    assert e == _exp_by_powers(Series((Q(0), Q(2), Q(0), Q(1))))


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
    f = Series(tuple([Q(1)] + tail))
    assert f * series_geom_inverse(f) == series_one(f.order)


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


@pytest.mark.parametrize("lam", [0, 3])
def test_a_egf_deep_matches_explicit(lam):
    # a negative alpha with a denominator, read to order 24
    p = PolyParams(lam, Q(-3, 2), Q(5, 7), Q(2, 3))
    assert list(a_egf(p, 24).values) == [a_explicit(p, n) for n in range(25)]


def test_gamma_polynomials_deep_match_a_route():
    # alpha = -3/2 puts b != 1 and a < 0 into the Newton-Horner steps
    p = EulerParams(4, Q(-3, 2), Q(5, 7))
    polys = _gamma_polynomials(p, 40)
    for n in (0, 1, 2, 7, 19, 33, 40):
        for g in (Q(0), Q(3, 2), Q(-7, 3)):
            assert polys[n](g) == euler_via_a(p, g, n), (n, g)


def test_series_memos_stay_within_their_bound():
    from geomstir.euler import _euler_column
    from geomstir.stirling import _table

    from geomstir.oracle import section_poly_value
    from geomstir.series import SECTION_CACHE_SIZE

    # every memo of the package, with one cheap build per distinct key
    memos = {
        _table: (TABLE_CACHE_SIZE, lambda i: _table(StirlingParams(0, 1, i))),
        _euler_column: (TABLE_CACHE_SIZE,
                        lambda i: _euler_column(StirlingParams(0, 1, i), 1)),
        a_explicit: (POLY_CACHE_SIZE, lambda i: a_explicit(PolyParams(0, 0, 1, i), 0)),
        s_exp_explicit: (POLY_CACHE_SIZE,
                         lambda i: s_exp_explicit(ExpPolyParams(0, 1, i), 0)),
        a_egf: (SERIES_CACHE_SIZE, lambda i: a_egf(PolyParams(1, Q(i), Q(1), Q(0)), 1)),
        s_exp_egf: (SERIES_CACHE_SIZE,
                    lambda i: s_exp_egf(ExpPolyParams(Q(0), Q(1), Q(i)), Q(1), 1)),
        euler_egf: (SERIES_CACHE_SIZE, lambda i: euler_egf(EulerParams(1, 0, 1), i, 1)),
        _gamma_polynomials: (SERIES_CACHE_SIZE,
                             lambda i: _gamma_polynomials(EulerParams(1, i, 1), 1)),
        section_poly_value: (SECTION_CACHE_SIZE, lambda i: section_poly_value(0, 0, 1, i)),
        # the conformance harness's per-row set-up
        harness._lifts: (TABLE_CACHE_SIZE, lambda i: harness._lifts(PolyParams(0, 0, 1, i))),
        harness._eq6_column: (TABLE_CACHE_SIZE,
                              lambda i: harness._eq6_column(PolyParams(0, 0, 1, i), 1)),
        harness._shift_setup: (TABLE_CACHE_SIZE,
                               lambda i: harness._shift_setup(PolyParams(1, 0, 1, i), 0)),
        harness._euler_rec_setup: (
            TABLE_CACHE_SIZE, lambda i: harness._euler_rec_setup(PolyParams(1, 0, 1, i), 0)),
        harness._pair_setup: (TABLE_CACHE_SIZE, lambda i: harness._pair_setup(
            PolyParams(0, 0, 1, i), PolyParams(0, 0, 1, 0))),
        harness._spivey_setup: (TABLE_CACHE_SIZE,
                                lambda i: harness._spivey_setup(ExpPolyParams(0, 1, i), 0)),
    }
    try:
        for memo, (bound, build) in memos.items():
            assert memo.cache_info().maxsize == bound
            for i in range(bound + 5):
                build(i)
            assert memo.cache_info().currsize == bound
        # a_recurrence keeps nothing
        a_recurrence(PolyParams(1, 1, 1, 0), 3)
        assert a_recurrence.cache_info()[2:] == (0, 0)
    finally:
        for memo in memos:
            memo.cache_clear()
