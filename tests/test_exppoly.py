from dataclasses import asdict, replace
from fractions import Fraction

import pytest

from geomstir import (
    ExpPolyParams,
    PolyParams,
    check_integral_rep,
    lemma34_sides,
    s_exp_egf,
    s_exp_eval,
    s_exp_explicit,
)
from bruteforce import bell_count, stirling2_count
from identities import holds

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
            assert poly.coefficient(k) == stirling2_count(n, k)


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


def test_integral_route_needs_positive_order():
    with pytest.raises(ValueError):
        check_integral_rep(PolyParams(0, Q(0), Q(1), Q(0)), 1.0, 2)


def test_import_leaves_scipy_unloaded():
    # only the quadrature route needs scipy, and it imports it on first use
    import os
    import subprocess
    import sys

    import geomstir

    src = os.path.dirname(os.path.dirname(geomstir.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, geomstir; print('scipy' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    )
    assert out.stdout.strip() == "False"


def test_params_hash_once_and_rehash_on_replace():
    p = ExpPolyParams(Q(1, 2), 1, Q(-3, 2))
    q = ExpPolyParams(Q(2, 4), Q(1), Q(-6, 4))
    assert p == q and hash(p) == hash(q)
    assert hash(p) == hash((Q(1, 2), Q(1), Q(-3, 2)))
    r = replace(p, r=Q(2))
    assert r == ExpPolyParams(Q(1, 2), Q(1), Q(2)) and r != p
    assert hash(r) == hash((Q(1, 2), Q(1), Q(2))) != hash(p)
