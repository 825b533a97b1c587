import math
from collections import Counter
from fractions import Fraction

import pytest

from geomstir import (
    PolyParams,
    a_coefficients,
    a_eval,
    error_decay_report,
    format_sig,
    hsu_expansion,
    w_coefficient,
    w_row,
)
from geomstir.oracle import partitions_with_parts
from bruteforce import poly_power_coeff
from references import closed_form_w_check

Q = Fraction

POINTS = [
    (Q(0), Q(1), Q(0), Q(1)),
    (Q(1), Q(1), Q(1), Q(1)),
    (Q(1), Q(2), Q(-1), Q(2)),
    (Q(1, 2), Q(1), Q(3, 2), Q(-1, 2)),
]


def test_w_base_cases():
    assert w_coefficient([], 0, 0) == 1
    assert w_coefficient([Q(2), Q(3)], 2, 2) == 0   # no partition into 0 parts
    assert w_coefficient([Q(2)], 1, 0) == 2
    with pytest.raises(IndexError):
        w_coefficient([Q(1)], 1, 2)
    with pytest.raises(IndexError):
        w_coefficient([Q(1)], 3, 1)


def test_w_against_power_series_extraction():
    # W(n,j) = [t^n] (sum_i a_i t^i)^(n-j) / (n-j)!
    a = [Q(2), Q(-1, 3), Q(5), Q(1, 2), Q(3), Q(7)]
    for n in range(1, 7):
        for j in range(n + 1):
            direct = poly_power_coeff(a, n - j, n) / math.factorial(n - j)
            assert w_coefficient(a, n, j) == direct


def _w_by_partitions(a, n, j):
    """W(n, j) as the sum over partitions of n into n-j parts of
    prod a_i^(k_i) / k_i!."""
    total = Q(0)
    for part in partitions_with_parts(n, n - j):
        term = Q(1)
        for size, mult in Counter(part).items():
            term *= a[size - 1] ** mult / math.factorial(mult)
        total += term
    return total


def test_w_row_equals_partition_sums():
    a = [Q(2), Q(-1, 3), Q(5), Q(1, 2), Q(3), Q(7), Q(-4, 5), Q(0), Q(9, 2)]
    a = a * 3  # 27 coefficients
    for n in range(len(a) + 1):
        for s in range(min(n, 9) + 1):
            want = [_w_by_partitions(a, n, j) for j in range(s + 1)]
            assert w_row(a, n, s) == want, (n, s)
            assert w_coefficient(a, n, s) == want[s]


def test_w_row_reads_only_the_first_s_plus_one_coefficients():
    # a partition of n into n - j parts has no part above j + 1
    a = [Q(3, 2), Q(-2), Q(1, 7)] + [Q(10 ** 9 + k) for k in range(20)]
    b = a[:3] + [Q(0)] * 20
    assert w_row(a, 23, 2) == w_row(b, 23, 2)
    with pytest.raises(IndexError):
        w_row(a[:5], 6, 1)
    with pytest.raises(IndexError):
        w_row(a, 3, 4)


def test_closed_forms_match():
    for al, b, g, x in POINTS:
        for n in range(4, 9):
            assert closed_form_w_check(al, b, g, x, n)
            assert closed_form_w_check(al, b, Q(0), x, n)


def test_closed_forms_need_n4():
    with pytest.raises(ValueError):
        closed_form_w_check(Q(0), Q(1), Q(0), Q(1), 3)


def test_a_coefficients_are_scaled_family_values():
    al, b, g, x = Q(1), Q(2), Q(-1), Q(2)
    coeffs = a_coefficients(al, b, g, x, 5)
    base = PolyParams(1, al, b, g)
    for j in range(1, 6):
        assert coeffs[j - 1] == a_eval(base, j, x) / math.factorial(j)


def test_full_depth_is_exact():
    for al, b, g, x in POINTS:
        for n in range(1, 6):
            for lam in (n, n + 1, n + 5, 12):
                exact = a_eval(PolyParams(lam, al, b, lam * g), n, x)
                a = a_coefficients(al, b, g, x, n)
                assert hsu_expansion(a, n, n, lam) == exact


def test_n1_is_exact_at_depth_one():
    for al, b, g, x in POINTS:
        exact = a_eval(PolyParams(7, al, b, 7 * g), 1, x)
        assert hsu_expansion(a_coefficients(al, b, g, x, 1), 1, 1, 7) == exact


def test_vanishing_denominator_raises():
    a = tuple(a_coefficients(Q(0), Q(1), Q(0), Q(1), 4))
    with pytest.raises(ValueError):
        hsu_expansion(a, 4, 1, Q(3))  # (lam-n+1)_1 = 0


def test_expansion_input_validation():
    with pytest.raises(ValueError):
        hsu_expansion((Q(1),), 1, 2, Q(5))  # s past n


def test_error_decay_halves_with_each_term():
    report = error_decay_report(Q(1), Q(1), Q(1), Q(1), 4, 1, (64, 128, 256))
    ratios = report.ratios()
    assert ratios[0] is None
    for r in ratios[1:]:
        # s = 1 truncation: consecutive errors shrink like 2^-(s+1) = 1/4
        assert Q(1, 8) <= r <= Q(1, 2)


def test_error_decay_report_keeps_no_cache():
    # with gamma != 0 every lambda has its own triangle; the exact column is
    # read from a sweep, so no table or polynomial is kept per lambda
    from geomstir.geom import a_explicit
    from geomstir.stirling import _table

    _table.cache_clear()
    a_explicit.cache_clear()
    report = error_decay_report(Q(1), Q(1), Q(1), Q(1), 40, 2, [41, 50, 60])
    assert _table.cache_info().currsize == 0
    assert a_explicit.cache_info().currsize == 0
    for row in report.rows:
        p = PolyParams(row.lam, Q(1), Q(1), Q(row.lam))
        assert row.exact == a_eval(p, 40, Q(1))


def test_error_decay_report_is_exact_for_n1():
    report = error_decay_report(Q(1), Q(1), Q(1), Q(1), 1, 1, (4, 8))
    assert all(row.rel_error == 0 for row in report.rows)


def test_rel_error_is_undefined_where_exact_is_zero():
    # beta = 0 makes A_n the product (lam | -alpha)_n, which passes through 0
    # at the even lambda 172 and not at 173 or 346: that row has no relative
    # error, and no ratio is formed next to it
    report = error_decay_report(Q(-2), Q(0), Q(1), Q(-1), 172, 0, (172, 173, 346))
    zero, after, last = report.rows
    assert zero.exact == 0 and zero.predicted != 0 and zero.rel_error is None
    assert after.exact != 0 and after.rel_error == abs(after.exact - after.predicted) / abs(
        after.exact)
    assert report.ratios() == [None, None, last.rel_error / after.rel_error]


def test_deeper_truncation_tightens_error():
    errs = []
    for s in range(4):
        report = error_decay_report(Q(1), Q(1), Q(1), Q(1), 4, s, (64,))
        errs.append(report.rows[0].rel_error)
    assert errs == sorted(errs, reverse=True)
    assert errs[-1] >= 0


def test_lambda_validation():
    with pytest.raises(ValueError):
        error_decay_report(Q(0), Q(1), Q(0), Q(1), 4, 1, (3,))
    with pytest.raises(ValueError):
        error_decay_report(Q(0), Q(1), Q(0), Q(1), 4, 1, (Fraction(9, 2),))


def test_lambda_caps(monkeypatch):
    # every lambda is checked before the first value is computed
    from geomstir import asymptotics
    from geomstir.asymptotics import MAX_LAMBDAS
    from geomstir.series import MAX_LAMBDA_BITS, MAX_N_BITS

    ok = list(range(64, 64 + MAX_LAMBDAS))
    big = 1 << (MAX_LAMBDA_BITS // 4 - 1)  # n * bit_length at the cap for n = 4
    assert len(error_decay_report(Q(1), Q(1), Q(1), Q(1), 4, 1, ok).rows) == MAX_LAMBDAS
    assert error_decay_report(Q(1), Q(1), Q(1), Q(1), 4, 1, [big]).rows[0].lam == big

    def no_work(*args):
        raise AssertionError("computed past a cap")

    monkeypatch.setattr(asymptotics, "w_row", no_work)
    monkeypatch.setattr(asymptotics, "a_values", no_work)
    for lambdas in (ok + [64 + MAX_LAMBDAS], [64, 2 * big], [64, 3]):
        with pytest.raises(ValueError) as err:
            error_decay_report(Q(1), Q(1), Q(1), Q(1), 4, 1, lambdas)
        assert ("past the cap of" in str(err.value)) is (3 not in lambdas)
    # the rationals' size too: n times the 3322 bits of x is past MAX_N_BITS
    with pytest.raises(ValueError, match=f"past the cap of {MAX_N_BITS}$"):
        error_decay_report(1, 1, 1, Q(10**1000, 3), 4, 1, [8])


def test_reports_at_many_depths_share_one_w_row_and_exact_column(monkeypatch):
    from geomstir import asymptotics
    from geomstir.asymptotics import error_decay_reports

    args = (Q(1, 2), Q(3), Q(-1), Q(5, 3), 9)
    lams = (16, 32, 64)
    want = {s: error_decay_report(*args, s, lams) for s in (0, 2, 9)}
    calls = Counter()

    def counted(name):
        inner = getattr(asymptotics, name)

        def wrapper(*a):
            calls[name] += 1
            return inner(*a)
        monkeypatch.setattr(asymptotics, name, wrapper)

    counted("w_row")
    counted("_exact_column")
    assert error_decay_reports(*args, (9, 0, 2), lams) == want
    assert calls == {"w_row": 1, "_exact_column": 1}
    for depths in ((), (0, 10)):
        with pytest.raises(ValueError):
            error_decay_reports(*args, depths, lams)
    assert calls == {"w_row": 1, "_exact_column": 1}


def test_format_sig():
    assert format_sig(Q(1, 3)) == "0.333333333333"
    assert format_sig(Q(2)) == "2"
    assert format_sig(0.0) == "0"
    # past float range or below its normal range: the same form, rounded
    # exactly, where a float would overflow, read 0 or lose digits
    assert format_sig(Q(10 ** 400, 3)) == "3.33333333333e+399"
    assert format_sig(Q(-2 * 10 ** 400, 3), 6) == "-6.66667e+399"
    assert format_sig(Q(1, 3 * 10 ** 400)) == "3.33333333333e-401"
    assert format_sig(Q(1, 10 ** 320)) == "1e-320"
    # a 12-digit rounding that ends in zeros renders without them, as float's
    # g form does, whether or not the value fits a float
    near_quarter = Q(10 ** 12 + 1, 4 * 10 ** 12)   # 0.25000000000025
    assert format_sig(near_quarter) == "0.25"
    assert format_sig(near_quarter / 10 ** 400) == "2.5e-401"
    assert format_sig(near_quarter * 10 ** 400) == "2.5e+399"
    assert format_sig(-near_quarter * 10 ** 400, 6) == "-2.5e+399"
    assert format_sig(Q(98099527680001, 10 ** 332)) == "9.809952768e-319"
