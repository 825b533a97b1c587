from dataclasses import asdict
from fractions import Fraction

import pytest

from geomstir import (
    EulerParams,
    XPolynomial,
    euler_egf,
    euler_explicit,
    euler_polynomial,
    euler_values,
    euler_via_a,
)
from identities import holds

Q = Fraction

CLASSIC = EulerParams(1, Q(0), Q(1))

GRID = [
    (CLASSIC, Q(0)),
    (EulerParams(1, Q(1), Q(1)), Q(1)),
    (EulerParams(2, Q(1), Q(2)), Q(-1)),
    (EulerParams(3, Q(1, 2), Q(1)), Q(3, 2)),
]


def test_classical_polynomials():
    assert euler_polynomial(CLASSIC, 0) == XPolynomial([1])
    assert euler_polynomial(CLASSIC, 1) == XPolynomial([Q(-1, 2), 1])
    assert euler_polynomial(CLASSIC, 2) == XPolynomial([0, -1, 1])
    assert euler_polynomial(CLASSIC, 3) == XPolynomial([Q(1, 4), 0, Q(-3, 2), 1])


def test_classical_value():
    # E_1(gamma) = gamma - 1/2
    for g in (Q(0), Q(1), Q(1, 3)):
        assert euler_via_a(CLASSIC, g, 1) == g - Q(1, 2)


def test_all_routes_agree():
    for p, g in GRID:
        series = euler_egf(p, g, 8)
        poly = {n: euler_polynomial(p, n) for n in range(9)}
        for n in range(9):
            v = euler_via_a(p, g, n)
            assert v == series.egf_value(n)
            f1, f2 = euler_explicit(p, g, n)
            assert v == f1 == f2
            assert v == poly[n](g)


def test_beta_zero_degenerates_to_factorial_product():
    # beta = 0 turns the generating function into (1 + alpha t)^(gamma/alpha)
    from geomstir import gff
    p = EulerParams(2, Q(1), Q(0))
    for n in range(5):
        f1, f2 = euler_explicit(p, Q(3), n)
        assert f1 == f2 == gff(Q(3), Q(1), n)
        assert euler_via_a(p, Q(3), n) == gff(Q(3), Q(1), n)


def test_repaired_recurrences_hold():
    for p, g in GRID:
        if p.beta == 0:
            continue
        for n in range(6):
            for m in range(3):
                out = holds("euler-rec", **asdict(p), gamma=g, n=n, m=m)
                assert out["rec1-lifted"]
                assert out["rec2-lifted"]
                assert out["rec2-derived"]
                assert out["rec3-derived"]


def test_printed_recurrences_fail_as_recorded():
    out = holds("euler-rec", **asdict(EulerParams(1, Q(0), Q(1))), gamma=Q(0),
                n=2, m=2)
    assert not out["rec1-printed"]
    assert not out["rec2-printed"]
    assert not out["rec3-printed"]
    assert out["rec1-lifted"] and out["rec2-lifted"] and out["rec3-derived"]


def _conv(p1: EulerParams, p2: EulerParams, g1, g2, n: int) -> dict:
    assert (p1.alpha, p1.beta) == (p2.alpha, p2.beta)
    return holds("euler-conv", lam1=p1.lam, gamma1=g1, lam2=p2.lam, gamma2=g2,
                 alpha=p1.alpha, beta=p1.beta, n=n)


def test_convolutions_repaired_readings():
    pairs = [
        (EulerParams(1, Q(0), Q(1)), EulerParams(1, Q(0), Q(1)), Q(0), Q(0)),
        (EulerParams(1, Q(1), Q(1)), EulerParams(2, Q(1), Q(1)), Q(1), Q(-1)),
        (EulerParams(2, Q(1), Q(2)), EulerParams(1, Q(1), Q(2)), Q(3, 2), Q(1, 2)),
    ]
    for p1, p2, g1, g2 in pairs:
        for n in range(6):
            out = _conv(p1, p2, g1, g2, n)
            assert out["conv1-shifted"]
            assert out["conv2"]
            assert out["conv3-lam2"]


def test_convolution_printed_and_order_misreadings_fail():
    out = _conv(
        EulerParams(1, Q(1), Q(1)), EulerParams(2, Q(1), Q(1)), Q(1), Q(-1), 3
    )
    assert not out["conv1-printed"]
    assert not out["conv3-lam1"]
    # with equal orders the two readings of the unsubscripted order coincide
    same = _conv(
        EulerParams(1, Q(1), Q(1)), EulerParams(1, Q(1), Q(1)), Q(1), Q(2), 3
    )
    assert same["conv3-lam1"] and same["conv3-lam2"]


def test_params_validation():
    with pytest.raises(ValueError):
        EulerParams(-1, Q(0), Q(1))


def test_euler_values_match_single_reads():
    for p, g in GRID + [(EulerParams(0, Q(1), Q(2)), Q(1, 3)),
                        (EulerParams(2, Q(-1), Q(0)), Q(2))]:
        assert euler_values(p, g, 9) == [euler_via_a(p, g, n) for n in range(10)]
    assert euler_values(CLASSIC, Q(0), 0) == [1]


def test_euler_values_reject_disagreeing_routes(monkeypatch):
    import geomstir.euler as euler
    real = euler.a_values

    def skewed(params, x, order):
        values = real(params, x, order)
        if params.alpha < 0 and order >= 3:  # the second specialization
            values[3] += 1
        return values

    monkeypatch.setattr(euler, "a_values", skewed)
    p, g = GRID[2]
    assert euler_values(p, g, 2) == [euler_via_a(p, g, n) for n in range(3)]
    with pytest.raises(RuntimeError, match="E_3"):
        euler_values(p, g, 5)
