import copy
import inspect
import pickle
import re
import sys
from dataclasses import FrozenInstanceError, asdict, fields, replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from geomstir import (
    EulerParams,
    ExpPolyParams,
    GridSpec,
    PolyParams,
    StirlingParams,
    XPolynomial,
    a_egf,
    a_eval,
    a_explicit,
    a_recurrence,
    a_values,
    lam_binom,
)
from bruteforce import fubini_count, stirling2_count
from identities import holds

Q = Fraction

GRID = [
    PolyParams(1, Q(0), Q(1), Q(0)),
    PolyParams(1, Q(1), Q(1), Q(1)),
    PolyParams(2, Q(1), Q(2), Q(-1)),
    PolyParams(2, Q(1, 2), Q(1), Q(3, 2)),
    PolyParams(3, Q(-1), Q(1), Q(2)),
    PolyParams(0, Q(1), Q(2), Q(1)),
]

small_q = st.fractions(min_value=-2, max_value=2, max_denominator=2)


def test_order_zero_is_one():
    for p in GRID:
        assert a_explicit(p, 0) == XPolynomial([1])


def test_fubini_specialization():
    p = PolyParams(1, Q(0), Q(1), Q(0))
    values = [a_eval(p, n, Q(1)) for n in range(6)]
    assert values == [1, 1, 3, 13, 75, 541]
    assert values == [fubini_count(n) for n in range(6)]


def test_nelsen_schmidt_specialization():
    p = PolyParams(1, Q(0), Q(1), Q(2))
    assert [a_eval(p, n, Q(1)) for n in range(4)] == [1, 3, 11, 51]


def test_fubini_polynomial_coefficients():
    # the single-section, gamma-free member over (0,1) has the ordered
    # set-partition polynomial coefficients k! S2(n,k)
    import math
    for n in range(6):
        poly = a_explicit(PolyParams(1, Q(0), Q(1), Q(0)), n)
        for k in range(n + 1):
            assert poly.coeffs[k] == math.factorial(k) * stirling2_count(n, k)


def test_m_numbers_small_closed_forms():
    # n! times the low-order coefficients: 1; beta x;
    # beta(beta+alpha)/2 x + beta^2 x^2; all at alpha = beta = x = 1
    # (the single-section member lam = 1, gamma = 0)
    m = PolyParams(1, Q(1), Q(1), Q(0))
    assert a_eval(m, 0, 1) == 1
    assert a_eval(m, 1, 1) == 1
    assert a_eval(m, 2, 1) == 2 * (Q(1, 2) * 1 * 2 + 1)
    assert a_explicit(m, 2) == XPolynomial([0, 2, 2])


def test_three_route_agreement_on_grid():
    for p in GRID:
        seq = a_egf(p, 8)
        for n in range(9):
            e = a_explicit(p, n)
            assert e == seq.values[n]
            assert e == a_recurrence(p, n)


def test_recurrence_rejects_negative_index():
    with pytest.raises(ValueError):
        a_recurrence(GRID[0], -1)


@pytest.mark.parametrize("params", [
    PolyParams(0, Q(1), Q(1), Q(1)),        # lam == 0: no raising term
    PolyParams(1, Q(1, 2), Q(0), Q(3, 2)),  # beta == 0: no raising term
])
def test_recurrence_at_depth_700_matches_explicit(params):
    # 700 levels deep; a recursive build overflows the interpreter stack
    assert a_recurrence(params, 700) == a_explicit(params, 700)


def test_recurrence_full_triangle_runs_without_recursion():
    # raising term live: every (lam + i, gamma + j alpha + i beta) entry is
    # built; with only 60 frames of stack to spare, depth 120 cannot recurse
    p = PolyParams(1, Q(1), Q(2), Q(-1))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 60)
    try:
        got = a_recurrence(p, 120)
    finally:
        sys.setrecursionlimit(limit)
    assert got == a_explicit(p, 120)


def test_lam_binom_is_multiset_count():
    assert lam_binom(0, 0) == 1
    assert lam_binom(0, 3) == 0
    assert lam_binom(1, 4) == 1
    assert lam_binom(3, 2) == 6   # multisets of size 2 from 3 kinds


def test_params_validation():
    with pytest.raises(ValueError):
        PolyParams(-1, Q(0), Q(1), Q(0))
    with pytest.raises(ValueError):
        PolyParams(Q(1, 2), Q(0), Q(1), Q(0))


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=3), small_q, small_q, small_q,
       st.integers(min_value=0, max_value=5))
def test_explicit_equals_recurrence_property(lam, a, b, g, n):
    p = PolyParams(lam, a, b, g)
    assert a_explicit(p, n) == a_recurrence(p, n)


def _pair(p1: PolyParams, p2: PolyParams, n: int) -> dict:
    assert (p1.alpha, p1.beta) == (p2.alpha, p2.beta)
    return {"lam1": p1.lam, "gamma1": p1.gamma, "lam2": p2.lam,
            "gamma2": p2.gamma, "alpha": p1.alpha, "beta": p1.beta, "n": n}


def test_raising_identities_hold_on_grid():
    for p in GRID:
        for n in range(7):
            assert holds("thm6", **asdict(p), n=n)["main"]
            assert holds("thm4", **asdict(p), n=n)["main"]
            thm2 = holds("thm2", **asdict(p), n=n)
            assert thm2["statement"] and thm2["proof"]
            assert holds("eq31", **asdict(p), n=n)["main"]
            assert holds("eq32", **asdict(p), n=n)["main"]


def test_removal_identity_reflected_reading():
    for p in GRID:
        for n in range(7):
            assert holds("eq6", **asdict(p), n=n)["reflected"]
            if p.alpha == 0:
                assert holds("eq6-printed", **asdict(p), n=n)["printed"]


def test_removal_identity_printed_fails_off_axis():
    # the as-printed sign only survives when alpha = 0
    out = holds("eq6-printed", **asdict(PolyParams(1, Q(1), Q(1), Q(1))), n=2)
    assert not out["printed"] and out["reflected"]


def test_gamma_split_expansion():
    for p in GRID:
        for n in range(7):
            assert holds("eq7", **asdict(p), n=n)["main"]


def test_symmetry_substitutions():
    for p in GRID:
        for n in range(7):
            out = holds("eq37", **asdict(p), n=n)
            assert out["pair"] and out["third-reflected"]
            if p.alpha == 0:
                assert holds("eq37-printed", **asdict(p), n=n)["third-printed"]
    bad = holds("eq37-printed", **asdict(PolyParams(1, Q(1), Q(1), Q(1))), n=2)
    assert not bad["third-printed"]


def test_shifted_argument_expansion():
    for p in GRID:
        for n in range(7):
            assert holds("eq38", **asdict(p), n=n)["main"]


def test_convolution_product_form():
    pairs = [
        (PolyParams(1, Q(0), Q(1), Q(0)), PolyParams(1, Q(0), Q(1), Q(0))),
        (PolyParams(1, Q(1), Q(1), Q(1)), PolyParams(2, Q(1), Q(1), Q(-1))),
        (PolyParams(2, Q(1), Q(2), Q(3, 2)), PolyParams(1, Q(1), Q(2), Q(1, 2))),
        (PolyParams(0, Q(1), Q(1), Q(1)), PolyParams(2, Q(1), Q(1), Q(0))),
    ]
    for p1, p2 in pairs:
        for n in range(7):
            assert holds("teo2", **_pair(p1, p2, n))["main"]
            assert holds("teo1", **_pair(p1, p2, n))["shifted"]


def test_convolution_printed_reading_fails():
    out = holds("teo1", **_pair(
        PolyParams(1, Q(1), Q(1), Q(1)), PolyParams(2, Q(1), Q(1), Q(-1)), 3))
    assert not out["printed"] and out["shifted"]


def test_shift_theorem_raising_direction():
    for p in GRID:
        if p.lam < 1 or p.beta == 0:
            continue
        for n in range(6):
            for m in range(3):
                assert holds("shift-raise", **asdict(p), n=n, m=m)["main"]
                if m <= 1:
                    assert holds("shift-inverse", **asdict(p), n=n, m=m)["rowwise"]


def test_shift_theorem_inverse_breaks_at_m2():
    # no m-dependent argument shift makes the solved-for form hold at m = 2
    # once alpha is nonzero; both readings are tracked as failing
    p = asdict(PolyParams(1, Q(1), Q(1), Q(1)))
    assert holds("shift-raise", **p, n=2, m=2)["main"]
    out = holds("shift-inverse", **p, n=2, m=2)
    assert not out["printed"]
    assert not out["rowwise"]


def test_params_hash_once_and_rehash_on_replace():
    p = PolyParams(2, Q(1, 2), 1, Q(3, 2))
    q = PolyParams(2, Q(2, 4), Q(1), Q(6, 4))
    assert p == q and hash(p) == hash(q)
    assert p == PolyParams(2, 0.5, 1, 1.5) and hash(p) == hash(PolyParams(2, 0.5, 1, 1.5))
    r = replace(p, gamma=Q(-1))
    assert r == PolyParams(2, Q(1, 2), Q(1), Q(-1)) and r != p
    assert hash(r) == hash(PolyParams(2, Q(1, 2), Q(1), Q(-1))) != hash(p)


def test_params_records_are_slotted_and_apart_by_class():
    records = (StirlingParams(Q(1, 2), 3, -1), ExpPolyParams(Q(1, 2), 3, -1),
               PolyParams(2, Q(1, 2), 3, -1), EulerParams(2, Q(1, 2), 3))
    for p in records:
        assert not hasattr(p, "__dict__")
        assert p == replace(p) and hash(p) == hash(replace(p))
    # the same numbers in two classes are two different records
    for p in records:
        for q in records:
            assert (p == q) is (p is q)
    assert StirlingParams(1, 2, 3) != ExpPolyParams(1, 2, 3)
    assert PolyParams(1, 2, 3, 4) != StirlingParams(2, 3, 4)


# each record class and its parameters, in order
_PARAMETERS = {
    StirlingParams: ("alpha", "beta", "gamma"),
    ExpPolyParams: ("alpha", "beta", "r"),
    PolyParams: ("lam", "alpha", "beta", "gamma"),
    EulerParams: ("lam", "alpha", "beta"),
}
_records = st.sampled_from(list(_PARAMETERS)).flatmap(lambda cls: st.builds(
    cls, *(st.integers(0, 3) if name == "lam" else st.one_of(small_q, st.integers(-3, 3))
           for name in _PARAMETERS[cls])))


@given(_records)
@settings(max_examples=60, deadline=None)
def test_a_record_is_its_parameters(p):
    cls = type(p)
    assert [f.name for f in fields(p)] == list(_PARAMETERS[cls])
    assert all(type(v) is (int if name == "lam" else Fraction)
               for name, v in asdict(p).items())
    # asdict, replace, copy and pickle each give back an equal record
    for twin in (cls(**asdict(p)), replace(p), copy.copy(p), copy.deepcopy(p),
                 pickle.loads(pickle.dumps(p))):
        assert type(twin) is cls and twin == p and hash(twin) == hash(p)
        assert asdict(twin) == asdict(p)
    assert not hasattr(p, "__dict__")
    with pytest.raises(FrozenInstanceError):
        p.alpha = Fraction(1)
    # any other name, the key slot too: CPython's frozen and slotted __setattr__
    # raises TypeError there (its super() names the class before slots)
    for name in ("extra", "_key"):
        with pytest.raises((AttributeError, TypeError)):
            setattr(p, name, ())


@pytest.mark.parametrize("lam", [True, False, -1, Fraction(1), 1.0])
def test_lam_is_a_count_as_in_grids(lam):
    message = re.escape(f"needs non-negative integers, got {lam!r}")
    with pytest.raises(ValueError, match="^lam " + message):
        PolyParams(lam, 1, 1, 1)
    with pytest.raises(ValueError, match="^lam " + message):
        EulerParams(lam, 1, 1)
    with pytest.raises(ValueError, match="^poly_points " + message):
        GridSpec(poly_points=((lam, Q(1), Q(1), Q(1)),))
    with pytest.raises(ValueError, match="^n_max " + message):
        GridSpec(n_max=lam)


def test_equal_params_built_afresh_hit_the_memo():
    a_explicit.cache_clear()
    a_explicit(PolyParams(2, Q(1, 2), Q(3), Q(-1)), 5)
    a_explicit(PolyParams(2, Q(2, 4), 3, -1), 5)
    info = a_explicit.cache_info()
    assert (info.hits, info.currsize) == (1, 1)


# lam == 0, beta == 0, gamma == 0 and alpha == 0 members beside the grid
VALUE_PARAMS = GRID + [
    PolyParams(0, Q(1, 2), Q(3), Q(-1)),
    PolyParams(2, Q(1), Q(0), Q(2)),
    PolyParams(3, Q(-3, 2), Q(2, 3), Q(0)),
    PolyParams(1, Q(0), Q(0), Q(5, 4)),
]
# zero, negative, and u/v with v != 1
VALUE_XS = (Q(0), Q(1), Q(-2), Q(5, 3), Q(-7, 2))


def test_a_values_match_the_single_read_routes():
    for p in VALUE_PARAMS:
        for x in VALUE_XS:
            values = a_values(p, x, 10)
            assert len(values) == 11
            for n, v in enumerate(values):
                assert v == a_eval(p, n, x) == a_recurrence(p, n)(x), (p, x, n)


def test_a_values_order_zero_and_prefix_stable():
    p = PolyParams(2, Q(1, 2), Q(1), Q(3, 2))
    assert a_values(p, Q(5, 3), 0) == [1]
    assert a_values(p, Q(-7, 2), 12)[:5] == a_values(p, Q(-7, 2), 4)


@settings(max_examples=40)
@given(st.integers(min_value=0, max_value=3), small_q, small_q, small_q, small_q)
def test_a_values_match_a_eval(lam, alpha, beta, gamma, x):
    p = PolyParams(lam, alpha, beta, gamma)
    assert a_values(p, x, 7) == [a_eval(p, n, x) for n in range(8)]
