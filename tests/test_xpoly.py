import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from geomstir import XPolynomial

small_q = st.fractions(min_value=-4, max_value=4, max_denominator=4)
polys = st.lists(small_q, max_size=5).map(XPolynomial)


def test_canonical_trailing_zeros():
    assert XPolynomial([1, 2, 0, 0]) == XPolynomial([1, 2])
    assert XPolynomial([0, 0]).is_zero()
    assert XPolynomial([]).is_zero()


def test_degree_and_coefficient():
    p = XPolynomial([Fraction(1, 2), 0, 3])
    assert len(p.coeffs) - 1 == 2
    assert p.coeffs[0] == Fraction(1, 2)
    assert p.coeffs[1] == 0
    assert p.coeffs == (Fraction(1, 2), 0, 3)  # nothing past degree 2


def test_constructors():
    assert XPolynomial([1]) == 1
    assert XPolynomial.x() == XPolynomial([0, 1])
    assert XPolynomial((Fraction(2, 3),)).coeffs[0] == Fraction(2, 3)
    assert len(XPolynomial.zero().coeffs) - 1 == -1


def test_arithmetic_matches_hand_values():
    p = XPolynomial([1, 1])
    q = XPolynomial([-1, 1])
    assert p * q == XPolynomial([-1, 0, 1])
    assert p + q == XPolynomial([0, 2])
    assert p - q == XPolynomial([2])
    assert 2 * p == XPolynomial([2, 2])
    assert p.times_x(2) == XPolynomial([0, 0, 1, 1])


def test_call_with_fraction_and_float():
    p = XPolynomial([1, 0, 1])  # 1 + x^2
    assert p(Fraction(1, 2)) == Fraction(5, 4)
    assert p(2.0) == pytest.approx(5.0)


def test_call_with_polynomial_composes():
    p = XPolynomial([0, 0, 1])     # x^2
    q = XPolynomial([1, 1])        # x + 1
    assert p(q) == XPolynomial([1, 2, 1])


def test_hashable_and_usable_in_sets():
    assert len({XPolynomial([1, 2]), XPolynomial([1, 2, 0])}) == 1


@pytest.mark.parametrize("scalar", [3, -7, Fraction(5, 3), Fraction(-1, 2), 0, Fraction(0)])
def test_a_constant_hashes_as_its_scalar(scalar):
    # equal objects hash equal, so a constant (zero too) and its scalar are
    # one set member and one dict key, looked up either way
    p = XPolynomial([scalar])
    assert p == scalar and scalar == p
    assert hash(p) == hash(scalar)
    assert len({p, scalar}) == 1
    assert {scalar: "a"}[p] == "a" and {p: "b"}[scalar] == "b"
    # a polynomial of degree 1 or more keeps the hash of its (num, den)
    q = XPolynomial([scalar, 1])
    assert hash(q) == hash((q.num, q.den))


@given(polys, polys, polys)
def test_ring_laws(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) * r == p * r + q * r
    assert (p * q) * r == p * (q * r)


@given(polys, polys, small_q)
def test_evaluation_is_a_homomorphism(p, q, v):
    assert (p + q)(v) == p(v) + q(v)
    assert (p * q)(v) == p(v) * q(v)


@given(polys, polys, small_q)
def test_composition_then_eval(p, q, v):
    assert p(q)(v) == p(q(v))


# ---------------------------------------------------------------------------
# the integer-numerator kernel against a plain list-of-Fractions reference


def _ref(cs):
    out = [Fraction(c) for c in cs]
    while out and not out[-1]:
        out.pop()
    return out


def _ref_add(a, b):
    n = max(len(a), len(b))
    pad = lambda v: v + [Fraction(0)] * (n - len(v))
    return _ref([x + y for x, y in zip(pad(a), pad(b))])


def _ref_mul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _ref(out)


def _ref_horner(a, value, add, mul, zero):
    result = zero
    for c in reversed(a):
        result = add(mul(result, value), c)
    return result


def _ref_str(a):
    if not a:
        return "0"
    parts = []
    for i, c in enumerate(a):
        if c == 0:
            continue
        if i == 0:
            term = str(c)
        else:
            xpow = "x" if i == 1 else f"x^{i}"
            term = xpow if c == 1 else f"-{xpow}" if c == -1 else f"{c}*{xpow}"
        parts.append(term)
    out = parts[0]
    for term in parts[1:]:
        out += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
    return out


def _assert_canonical(p):
    assert isinstance(p.num, tuple) and all(type(c) is int for c in p.num)
    assert type(p.den) is int and p.den > 0
    if p.num:
        assert p.num[-1] != 0
        assert math.gcd(p.den, *p.num) == 1
    else:
        assert p.den == 1


def _assert_matches(p, ref):
    _assert_canonical(p)
    assert p.coeffs == tuple(ref)
    assert all(type(c) is Fraction for c in p.coeffs)
    assert len(p.coeffs) - 1 == len(ref) - 1
    assert p.is_zero() == (not ref)
    for i, want in enumerate(ref):
        assert p.coeffs[i] == want and type(p.coeffs[i]) is Fraction
    assert str(p) == _ref_str(ref)
    assert repr(p) == f"XPolynomial({list(ref)!r})"


mixed = st.one_of(
    st.integers(-60, 60),
    st.fractions(min_value=-30, max_value=30, max_denominator=36),
)
coeff_lists = st.lists(mixed, max_size=6)
scalars = st.one_of(st.integers(-9, 9), st.fractions(min_value=-9, max_value=9,
                                                     max_denominator=12))


@given(coeff_lists, coeff_lists, scalars, st.integers(0, 3))
def test_kernel_matches_fraction_reference(ca, cb, s, k):
    p, q = XPolynomial(ca), XPolynomial(cb)
    a, b = _ref(ca), _ref(cb)
    neg_b = [-c for c in b]
    _assert_matches(p, a)
    _assert_matches(p + q, _ref_add(a, b))
    _assert_matches(p - q, _ref_add(a, neg_b))
    _assert_matches(-q, neg_b)
    _assert_matches(p * q, _ref_mul(a, b))
    _assert_matches(p + s, _ref_add(a, [Fraction(s)]))
    _assert_matches(s + p, _ref_add(a, [Fraction(s)]))
    _assert_matches(p - s, _ref_add(a, [-Fraction(s)]))
    _assert_matches(s - p, _ref_add([-c for c in a], [Fraction(s)]))
    _assert_matches(p * s, _ref_mul(a, _ref([s])))
    _assert_matches(s * p, _ref_mul(a, _ref([s])))
    _assert_matches(p.times_x(k), _ref([0] * k + a) if a else [])
    assert (p == s) == (a == _ref([s]))


@given(coeff_lists, st.one_of(st.integers(-7, 7), st.fractions(
    min_value=-7, max_value=7, max_denominator=9)))
def test_exact_evaluation_matches_reference(ca, v):
    p, a = XPolynomial(ca), _ref(ca)
    want = _ref_horner(a, v, lambda r, c: r + c, lambda r, x: r * x, v * 0)
    got = p(v)
    assert got == want
    assert type(got) is type(want)  # Fraction, or the argument's zero


@given(coeff_lists, st.floats(min_value=-5, max_value=5))
def test_float_evaluation_keeps_generic_horner(ca, v):
    p, a = XPolynomial(ca), _ref(ca)
    want = _ref_horner(a, v, lambda r, c: r + c, lambda r, x: r * x, v * 0)
    got = p(v)
    assert type(got) is float and got == want  # same operations, same rounding


@given(coeff_lists, coeff_lists)
def test_polynomial_argument_composes_like_reference(ca, cb):
    p, q = XPolynomial(ca), XPolynomial(cb)
    a, b = _ref(ca), _ref(cb)
    want = _ref_horner(a, b, lambda r, c: _ref_add(r, [c]), _ref_mul, [])
    _assert_matches(p(q), want)


@given(coeff_lists, coeff_lists, coeff_lists)
def test_equal_values_share_form_and_hash(ca, cb, cc):
    p, q, r = XPolynomial(ca), XPolynomial(cb), XPolynomial(cc)
    one_way = (p + q) * r
    other_way = r * q + p * r
    assert one_way == other_way
    assert (one_way.num, one_way.den) == (other_way.num, other_way.den)
    assert hash(one_way) == hash(other_way)
    assert (p + q) - q == p and hash((p + q) - q) == hash(p)
    assert hash(p - p) == hash(XPolynomial.zero())


@given(st.lists(st.integers(-10**6, 10**6), max_size=6),
       st.integers(-10**4, 10**4).filter(bool), st.integers(1, 50))
def test_from_ints_reduces_to_canonical_form(num, den, scale):
    p = XPolynomial.from_ints([c * scale for c in num], den * scale)
    _assert_canonical(p)
    assert p.coeffs == tuple(_ref([Fraction(c, den) for c in num]))
    assert p == XPolynomial([Fraction(c, den) for c in num])


def test_from_ints_rejects_zero_denominator():
    with pytest.raises(ZeroDivisionError):
        XPolynomial.from_ints([1, 2], 0)


def test_coeffs_are_built_fresh_not_stored():
    p = XPolynomial([Fraction(1, 2), 3])
    assert p.coeffs == p.coeffs and p.coeffs is not p.coeffs
    assert set(XPolynomial.__slots__) == {"num", "den"}
