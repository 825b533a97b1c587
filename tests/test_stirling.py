import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from geomstir import (
    PolyParams,
    StirlingParams,
    a_explicit,
    a_recurrence,
    param_swap_rhs,
    stirling_explicit,
    stirling_rec,
    stirling_row,
)
from geomstir import stirling
from geomstir.exppoly import _s_ratio
from geomstir.geom import _a_ratio
from geomstir.xpoly import XPolynomial
from bruteforce import stirling2_count
from references import stirling_egf_check

Q = Fraction
small_q = st.fractions(min_value=-3, max_value=3, max_denominator=3)

CLASSIC = StirlingParams(Q(0), Q(1), Q(0))


def test_second_kind_against_enumeration():
    # S(n,k; 0,1,0) counts set partitions of n into k blocks
    for n in range(7):
        for k in range(n + 1):
            assert stirling_rec(CLASSIC, n, k) == stirling2_count(n, k)


def test_classical_s42_is_seven():
    assert stirling_rec(CLASSIC, 4, 2) == 7
    assert stirling_explicit(CLASSIC, 4, 2) == 7


def test_triangle_boundaries():
    p = StirlingParams(Q(1, 2), Q(2), Q(3))
    assert stirling_rec(p, 0, 0) == 1
    assert stirling_rec(p, 5, 5) == 1
    assert stirling_rec(p, 3, 5) == 0
    # the k = 0 column is the plain generalized factorial of gamma
    from geomstir import gff
    for n in range(6):
        assert stirling_rec(p, n, 0) == gff(p.gamma, p.alpha, n)


def test_explicit_matches_recurrence_on_rational_triples():
    triples = [
        (Q(0), Q(1), Q(0)), (Q(1), Q(1), Q(1)), (Q(1), Q(2), Q(-1)),
        (Q(1, 2), Q(1), Q(3, 2)), (Q(-1), Q(1), Q(2)), (Q(2), Q(1, 3), Q(0)),
    ]
    for a, b, g in triples:
        p = StirlingParams(a, b, g)
        for n in range(9):
            for k in range(n + 1):
                assert stirling_explicit(p, n, k) == stirling_rec(p, n, k)


def test_explicit_rejects_beta_zero():
    with pytest.raises(ValueError):
        stirling_explicit(StirlingParams(Q(1), Q(0), Q(1)), 2, 1)


def test_dual_roundtrip_is_identity():
    p = StirlingParams(Q(1), Q(2), Q(-1))
    assert p.dual().dual() == p
    for n in range(8):
        for m in range(n + 1):
            lhs = sum(
                stirling_rec(p, n, k) * stirling_rec(p.dual(), k, m)
                for k in range(n + 1)
            )
            assert lhs == (1 if n == m else 0)
            rhs = sum(
                stirling_rec(p.dual(), n, k) * stirling_rec(p, k, m)
                for k in range(n + 1)
            )
            assert rhs == (1 if n == m else 0)


def test_column_series_matches_triangle():
    p = StirlingParams(Q(1), Q(2), Q(1, 2))
    for k in range(4):
        col = stirling_egf_check(p, k, 7)
        for n in range(8):
            assert col.egf_value(n) == math.factorial(k) * stirling_rec(p, n, k)


def test_param_swap_rhs_frozen_values():
    # transform of the classical triangle at gamma = 1:
    # sum_s C(n,s) S(s,k), pinned by direct evaluation
    p = StirlingParams(Q(0), Q(1), Q(1))
    assert param_swap_rhs(p, 2, 1) == 5
    assert param_swap_rhs(p, 3, 2) == 9
    # and it equals the gamma-doubled triangle, not the (beta, gamma) swap
    doubled = StirlingParams(Q(0), Q(1), Q(2))
    for n in range(7):
        for k in range(n + 1):
            assert param_swap_rhs(p, n, k) == stirling_rec(doubled, n, k)


@settings(max_examples=60)
@given(small_q, small_q, small_q,
       st.integers(min_value=1, max_value=7), st.integers(min_value=0, max_value=7))
def test_recurrence_property(a, b, g, n, k):
    # S(n+1,k) = S(n,k-1) + (k b - n a + g) S(n,k)
    p = StirlingParams(a, b, g)
    lhs = stirling_rec(p, n + 1, k)
    prev = stirling_rec(p, n, k - 1) if k >= 1 else Q(0)
    assert lhs == prev + (k * b - n * a + g) * stirling_rec(p, n, k)


def test_equal_triples_hash_equal_and_share_one_table():
    spellings = [
        StirlingParams(1, 0, -2),
        StirlingParams(Q(1), Q(0), Q(-2)),
        StirlingParams("1", "0/5", "-4/2"),
    ]
    halves = [StirlingParams(Q(1, 2), -1, "3/2"), StirlingParams("1/2", "-1", Q(3, 2))]
    for group in (spellings, halves):
        first = group[0]
        for p in group[1:]:
            assert p == first and hash(p) == hash(first)
            assert stirling._table(p) is stirling._table(first)
    # equality still compares the fields
    assert spellings[0] != halves[0]
    assert StirlingParams(1, 0, -2) != StirlingParams(1, 0, 2)


def _fraction_triangle(a, b, g, n_max):
    """The plain Fraction recurrence, one cell at a time."""
    rows = [[Q(1)]]
    for m in range(n_max):
        prev = rows[-1]
        row = []
        for k in range(m + 2):
            left = prev[k - 1] if k >= 1 else Q(0)
            here = prev[k] if k <= m else Q(0)
            row.append(left + (k * b - m * a + g) * here)
        rows.append(row)
    return rows


mixed_q = st.fractions(min_value=-5, max_value=5, max_denominator=12)


@settings(max_examples=40, deadline=None)
@given(mixed_q, mixed_q, mixed_q, st.integers(min_value=0, max_value=25))
def test_integer_scaled_table_matches_fraction_recurrence(a, b, g, n):
    p = StirlingParams(a, b, g)
    want = _fraction_triangle(a, b, g, n)
    for m in range(n + 1):
        assert stirling_row(p, m) == tuple(want[m])
    assert stirling_rec(p, n, n + 1) == 0 and stirling_rec(p, n, -1) == 0


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=3), mixed_q, mixed_q, mixed_q,
       st.integers(min_value=0, max_value=25))
def test_a_explicit_from_integer_rows_matches_recurrence(lam, a, b, g, n):
    p = PolyParams(lam, a, b, g)
    assert a_explicit(p, n) == a_recurrence(p, n)


@pytest.mark.parametrize("read", [
    lambda p: stirling_row(p, -1),
    lambda p: stirling_rec(p, -1, 0),
    lambda p: stirling_rec(p, -1, -1),
    lambda p: stirling.stirling_int_row(p, -1),
])
def test_negative_row_index_is_rejected(read):
    for p in (CLASSIC, StirlingParams(Q(1, 2), 0, Q(-3, 4))):
        with pytest.raises(ValueError):
            read(p)


q12 = st.fractions(min_value=-3, max_value=3, max_denominator=12)


@settings(max_examples=60, deadline=None)
@given(q12, st.one_of(st.just(Q(0)), q12), q12, st.integers(0, 3),
       st.sampled_from("AS"), st.sampled_from([Q(0), Q(1), Q(-1, 2), Q(5, 3)]),
       st.integers(0, 12))
def test_weighted_row_is_the_weighted_column_sum(a, b, g, lam, family, x, n):
    # each family's ratio: A_n's and S_n's (E_n's is A_n's at x = -1/2)
    ratio = {"A": _a_ratio(lam), "S": _s_ratio}[family]
    p = StirlingParams(a, b, g)
    d, _, bd, _ = stirling._scaled_params(p)
    want, w = Q(0), 1
    for k in range(n + 1):
        if k:
            w *= ratio(k, d, bd)
        want += stirling_rec(p, n, k) * Q(w, d ** k) * x ** k
    num, den = stirling.weighted_row(p, n, ratio)
    assert XPolynomial.from_ints(num, den)(x) == want
    # the sweep's row at x sums to the column sum; at x = 1 it is weighted_row
    row, vden = list(stirling._value_sweep(p, x, n, ratio))[n]
    assert Q(sum(row), vden) == want
    assert list(stirling._value_sweep(p, Q(1), n, ratio))[n] == (num, den)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=3), q12, q12, q12, st.integers(0, 12))
def test_a_explicit_is_the_printed_sum_over_the_reflected_triangle(lam, a, b, g, n):
    # the triangle is homogeneous: S(n, k; -a, -b, -g) = (-1)^(n-k) S(n, k; a, b, g)
    p = StirlingParams(a, b, g)
    assert stirling_row(StirlingParams(-a, -b, -g), n) == tuple(
        (-1) ** (n - k) * s for k, s in enumerate(stirling_row(p, n)))
    # so a_explicit, read from S(n, k; -a, b, g), is the paper's printed sum
    # sum_k C(k+lam-1, k) (-1)^(n+k) b^k k! S(n, k; a, -b, -g) x^k
    printed = StirlingParams(a, -b, -g)
    want = XPolynomial([(math.comb(k + lam - 1, k) if k else 1) * (-1) ** (n + k)
                        * b ** k * math.factorial(k) * stirling_rec(printed, n, k)
                        for k in range(n + 1)])
    assert a_explicit(PolyParams(lam, a, b, g), n) == want
