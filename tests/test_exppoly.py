import math
from dataclasses import asdict, replace
from fractions import Fraction

import pytest

from geomstir import (
    ExpPolyParams,
    PolyParams,
    lemma34_sides,
    s_exp_egf,
    s_exp_eval,
    s_exp_explicit,
    s_exp_values,
)
from bruteforce import bell_count, stirling2_count
from identities import holds
from references import _gauss_laguerre, check_integral_rep

Q = Fraction

CLASSIC = ExpPolyParams(Q(0), Q(1), Q(0))

GRID = [
    CLASSIC,
    ExpPolyParams(Q(1), Q(1), Q(1)),
    ExpPolyParams(Q(1), Q(2), Q(-1)),
    ExpPolyParams(Q(1, 2), Q(1), Q(3, 2)),
]

X_VALUES = (Q(1), Q(2), Q(-1, 2))


def test_bell_specialization():
    values = [s_exp_eval(CLASSIC, n, Q(1)) for n in range(8)]
    assert values == [1, 1, 2, 5, 15, 52, 203, 877]
    assert values == [bell_count(n) for n in range(8)]


def test_classical_coefficients_are_partition_counts():
    for n in range(7):
        poly = s_exp_explicit(CLASSIC, n)
        for k in range(n + 1):
            assert poly.coeffs[k] == stirling2_count(n, k)


def test_series_route_matches_triangle_route():
    for p in GRID:
        for x in X_VALUES:
            series = s_exp_egf(p, x, 8)
            for n in range(9):
                assert series.egf_value(n) == s_exp_eval(p, n, x)


def test_series_route_needs_beta():
    with pytest.raises(ValueError):
        s_exp_egf(ExpPolyParams(Q(1), Q(0), Q(1)), Q(1), 4)


def test_addition_formula_classical_reading():
    for p in GRID:
        for x in X_VALUES:
            for n in range(5):
                for m in range(4):
                    assert holds("spivey", **asdict(p), x=x, n=n, m=m)["classical"]


def test_addition_formula_printed_index_fails():
    out = holds("spivey", **asdict(CLASSIC), x=Q(1), n=2, m=1)
    assert not out["printed"] and out["classical"]


def test_shifted_series_identity():
    for p in GRID:
        for x in X_VALUES:
            for m in range(4):
                assert holds("lemma34", **asdict(p), x=x, m=m, order=8)["main"]


def test_shifted_series_m0_reduces_to_plain_series():
    lhs, rhs = lemma34_sides(CLASSIC, Q(1), 0, 6)
    assert lhs == rhs
    assert lhs == s_exp_egf(CLASSIC, Q(1), 6)


def test_integral_route_matches_exact():
    for lam in (1, 2, 3):
        for n in range(6):
            p = PolyParams(lam, Q(1), Q(1), Q(1))
            quad, exact = check_integral_rep(p, 0.5, n)
            assert abs(quad - exact) <= 1e-8 * max(1.0, abs(exact))


@pytest.mark.parametrize("lam", (163, 200, 300))
def test_integral_route_past_float_factorials(lam):
    # from lam = 163 on, Gamma(lam + 15) / Gamma(16) (16 nodes) is past the
    # largest float; the weights carry 1/(lam-1)! in log space instead
    for p in (PolyParams(lam, Q(1), Q(1), Q(0)),
              PolyParams(lam, Q(1, 2), Q(-1), Q(3, 2))):
        for x in (1.0, -0.5, 0.5):
            for n in (0, 1, 3, 8):
                quad, exact = check_integral_rep(p, x, n)
                assert math.isfinite(quad)
                assert abs(quad - exact) <= 1e-8 * max(1.0, abs(exact)), (n, x)


def test_integral_route_needs_positive_order():
    with pytest.raises(ValueError):
        check_integral_rep(PolyParams(0, Q(0), Q(1), Q(0)), 1.0, 2)


@pytest.mark.parametrize("n", (16, 20, 40))
@pytest.mark.parametrize("alpha", (0, 1, 2, 4))
def test_gauss_laguerre_rule(n, alpha):
    nodes, weights = _gauss_laguerre(n, alpha)
    assert len(nodes) == len(weights) == n
    assert 0 < nodes[0] and all(a < b for a, b in zip(nodes, nodes[1:]))
    assert all(w > 0 for w in weights)
    # the n-point Gauss rule is the one rule exact on every degree < 2n;
    # the weights carry 1/Gamma(alpha+1)
    for k in range(2 * n):
        moment = sum(w * z ** k for z, w in zip(nodes, weights))
        exact = math.exp(math.lgamma(alpha + k + 1) - math.lgamma(alpha + 1))
        assert abs(moment - exact) <= 1e-10 * exact, (k, moment, exact)


def test_integral_route_runs_with_scipy_blocked():
    # the quadrature route is standard-library only: with scipy made
    # unimportable (any import of it raises), it still passes the
    # acceptance loop
    import os
    import subprocess
    import sys

    import geomstir

    src = os.path.dirname(os.path.dirname(geomstir.__file__))
    here = os.path.dirname(os.path.abspath(__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join((src, here))}
    code = """
import sys
sys.modules["scipy"] = None
from fractions import Fraction as Q
from geomstir import PolyParams
from references import check_integral_rep
worst = 0.0
for lam in (1, 2, 3, 5):
    for alpha, beta, gamma in ((Q(1), Q(1), Q(0)), (Q(0), Q(1), Q(1))):
        p = PolyParams(lam, alpha, beta, gamma)
        for x in (1.0, -0.5, 0.5):
            for n in range(9):
                quad, exact = check_integral_rep(p, x, n)
                worst = max(worst, abs(quad - exact) / (abs(exact) or 1.0))
print(worst)
"""
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    )
    assert float(out.stdout) <= 1e-8


def test_params_hash_once_and_rehash_on_replace():
    p = ExpPolyParams(Q(1, 2), 1, Q(-3, 2))
    q = ExpPolyParams(Q(2, 4), Q(1), Q(-6, 4))
    assert p == q and hash(p) == hash(q)
    assert p == ExpPolyParams(0.5, 1, -1.5) and hash(p) == hash(ExpPolyParams(0.5, 1, -1.5))
    r = replace(p, r=Q(2))
    assert r == ExpPolyParams(Q(1, 2), Q(1), Q(2)) and r != p
    assert hash(r) == hash(ExpPolyParams(Q(1, 2), Q(1), Q(2))) != hash(p)


def test_s_exp_values_match_eval_and_series():
    params = GRID + [ExpPolyParams(Q(1), Q(0), Q(2)),      # beta == 0
                     ExpPolyParams(Q(-1, 2), Q(5, 2), Q(0)),
                     ExpPolyParams(Q(0), Q(0), Q(-3, 4))]
    for p in params:
        for x in (Q(0), Q(1), Q(-2), Q(5, 3), Q(-7, 2)):
            values = s_exp_values(p, x, 10)
            assert values == [s_exp_eval(p, n, x) for n in range(11)], (p, x)
            if p.beta != 0:
                assert values == s_exp_egf(p, x, 10).egf_values(), (p, x)
    assert s_exp_values(CLASSIC, Q(5, 3), 0) == [1]
    assert s_exp_values(CLASSIC, Q(2), 9)[:4] == s_exp_values(CLASSIC, Q(2), 3)
