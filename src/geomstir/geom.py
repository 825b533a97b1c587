"""Higher-order generalized geometric polynomials A_n and their identities.

A_n is a polynomial in the weight marker x, indexed by an integer order
lam >= 0 and rational parameters (alpha, beta, gamma).  Three independent
routes compute it:

  * a_explicit  -- finite sum over a generalized Stirling column,
        A_n = sum_k C(k+lam-1, k) (-1)^(n+k) beta^k k! S(n,k; alpha,-beta,-gamma) x^k
  * a_egf       -- coefficient extraction from the closed generating series
        (1 - alpha t)^(-gamma/alpha) * [1 / (1 - x ((1 - alpha t)^(-beta/alpha) - 1))]^lam
  * a_recurrence -- the order/argument raising recurrence
        A_{n+1}(gamma) = gamma A_n(gamma+alpha) + x lam beta A_n^{lam+1}(gamma+beta+alpha)

At integer x >= 0 and integer parameters the values count barred
preferential arrangements (see the oracle module), which is the fourth,
fully independent route used in tests.

The check_* functions compare both sides of the identity they implement as
exact XPolynomial equalities.  Where a source display admits more than one
reading, the check returns a named tuple with one flag per reading instead
of collapsing them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .series import (
    Series,
    binomial_series,
    gff,
    lift_to_poly,
    rising,
    series_geom_inverse,
    series_int_pow,
    series_one,
)
from .stirling import StirlingParams, stirling_int_row, stirling_rec
from .xpoly import XPolynomial

Rational = Fraction


def _q(v) -> Fraction:
    return v if isinstance(v, Fraction) else Fraction(v)


@dataclass(frozen=True)
class PolyParams:
    lam: int
    alpha: Fraction
    beta: Fraction
    gamma: Fraction

    def __post_init__(self):
        if not isinstance(self.lam, int) or self.lam < 0:
            raise ValueError("lam must be an integer >= 0")
        object.__setattr__(self, "alpha", _q(self.alpha))
        object.__setattr__(self, "beta", _q(self.beta))
        object.__setattr__(self, "gamma", _q(self.gamma))


@dataclass(frozen=True)
class ASequence:
    """A_0..A_order for one parameter set, as computed by a_egf."""

    params: PolyParams
    order: int
    values: tuple[XPolynomial, ...]


def lam_binom(lam: int, k: int) -> int:
    """C(k + lam - 1, k), the number of k-multisets from lam kinds."""
    if lam == 0:
        return 1 if k == 0 else 0
    return math.comb(k + lam - 1, k)


def _stirling_a(params: PolyParams):
    return StirlingParams(params.alpha, -params.beta, -params.gamma)


@lru_cache(maxsize=None)
def a_explicit(params: PolyParams, n: int) -> XPolynomial:
    """A_n via the generalized Stirling column sum."""
    if n < 0:
        raise ValueError("need n >= 0")
    # With S(n,k) = T(n,k) / d^(n-k) and beta = (beta d) / d, every
    # coefficient is an integer over the shared denominator d^n:
    #   C(k+lam-1, k) (-1)^(n+k) k! (beta d)^k T(n,k) / d^n
    d, row = stirling_int_row(_stirling_a(params), n)
    bd = int(params.beta * d)  # exact: d is a multiple of beta's denominator
    num = []
    mult = -1 if n % 2 else 1  # (-1)^(n+k) k! (beta d)^k
    for k, t in enumerate(row):
        num.append(lam_binom(params.lam, k) * mult * t)
        mult *= -(k + 1) * bd
    return XPolynomial.from_ints(num, d ** n)


def a_eval(params: PolyParams, n: int, x) -> Fraction:
    """A_n evaluated at a rational marker value."""
    return a_explicit(params, n)(_q(x))


@lru_cache(maxsize=None)
def a_egf(params: PolyParams, order: int) -> ASequence:
    """A_0..A_order from the closed generating series.

    The series is built with XPolynomial coefficients so the marker stays
    symbolic; no order extension ever happens past `order`.
    """
    p = lift_to_poly(binomial_series(-params.alpha, params.gamma, order))
    grow = lift_to_poly(binomial_series(-params.alpha, params.beta, order))
    u = grow.add_const(XPolynomial.constant(-1))
    d = lift_to_poly(series_one(order)) - u.scale(XPolynomial.x())
    core = series_int_pow(series_geom_inverse(d), params.lam)
    total = p * core
    return ASequence(params, order, tuple(
        total.egf_value(n) for n in range(order + 1)
    ))


@lru_cache(maxsize=None)
def a_recurrence(params: PolyParams, n: int) -> XPolynomial:
    """A_n by iterating the order/argument raising recurrence from A_0 = 1.

    Built bottom-up: at depth j (order n - j) the values needed are
    A_{n-j} at (lam + i, gamma + j alpha + i beta) for 0 <= i <= j, and
    each comes from entries i and i + 1 one depth further down.  Without
    the raising term (lam == 0 or beta == 0) only i == 0 is needed.
    """
    if n < 0:
        raise ValueError("need n >= 0")
    lam, a, b, g = params.lam, params.alpha, params.beta, params.gamma
    lifts = bool(lam and b)
    row = [XPolynomial.one()] * (n + 1 if lifts else 1)  # depth n: A_0
    for j in range(n - 1, -1, -1):
        shift = g + j * a
        new = []
        for i in range(j + 1 if lifts else 1):
            out = (shift + i * b) * row[i]
            if lifts:
                out = out + ((lam + i) * b * row[i + 1]).times_x()
            new.append(out)
        row = new
    return row[0]


def m_polynomial(alpha, beta, n: int) -> XPolynomial:
    """Single-section polynomial: the lam == 1, gamma == 0 member."""
    return a_explicit(PolyParams(1, _q(alpha), _q(beta), Fraction(0)), n)


def m_numbers(alpha, beta, x, n: int) -> Fraction:
    """m_polynomial evaluated at a rational weight."""
    return m_polynomial(alpha, beta, n)(_q(x))


# ---------------------------------------------------------------------------
# identity checks


class Thm2Check(NamedTuple):
    statement: bool  # convolution factor read with order 0 and live beta
    proof: bool      # convolution factor read with live order and beta == 0


class Eq6Check(NamedTuple):
    printed: bool    # removal factor at (alpha, 0, gamma)
    reflected: bool  # removal factor at (-alpha, 0, gamma)


class Eq3132Check(NamedTuple):
    shift_split: bool   # x A^{lam+1}(gamma+beta) = (x+1) A^{lam+1}(gamma) - A^{lam}(gamma)
    raise_mixed: bool   # A_{n+1}(gamma-alpha) - (x+1) lam beta A^{lam+1}(gamma) = ...


class Eq37Check(NamedTuple):
    pair: bool             # A^{lam,x}(gamma+beta*lam) == A^{lam,-x-1}(alpha,-beta,gamma)
    third_printed: bool    # ... == (-1)^n A^{lam,-x-1}(alpha, beta, -gamma)
    third_reflected: bool  # ... == (-1)^n A^{lam,-x-1}(-alpha, beta, -gamma)


class ConvolutionCheck(NamedTuple):
    teo1_printed: bool  # second factor at order lam2
    teo1_shifted: bool  # second factor at order lam2 + 1
    teo2: bool


class ShiftCheck(NamedTuple):
    raise_ok: bool         # the (-1)^m A_{n+m} expansion over the dual-weighted column
    inverse_printed: bool  # solved-for form, every gamma argument shifted by m*alpha
    inverse_rowwise: bool  # solved-for form, summand k shifted by k*alpha instead


def check_thm6(params: PolyParams, n: int) -> bool:
    lhs = a_explicit(params, n + 1)
    rhs = params.gamma * a_explicit(
        replace(params, gamma=params.gamma + params.alpha), n
    )
    rhs = rhs + (params.lam * params.beta * a_explicit(
        replace(
            params,
            lam=params.lam + 1,
            gamma=params.gamma + params.beta + params.alpha,
        ),
        n,
    )).times_x()
    return lhs == rhs


def check_thm2(params: PolyParams, n: int) -> Thm2Check:
    """Removal convolution for the raised index, in both printed readings.

    The two readings of the inner factor, order 0 with beta kept and order
    lam with beta zeroed, produce the same rational (gamma | -alpha)_k, so
    they are evaluated independently but can only agree or fail together.
    """
    lhs = a_explicit(params, n + 1)
    head = params.gamma * a_explicit(
        replace(params, gamma=params.gamma + params.alpha), n
    )
    zero_gamma = replace(params, gamma=Fraction(0))

    def tail(factor_params):
        acc = XPolynomial.zero()
        for k in range(n + 1):
            acc = acc + (
                math.comb(n, k)
                * a_explicit(factor_params, k)
                * a_explicit(zero_gamma, n - k + 1)
            )
        return acc

    statement = lhs == head + tail(replace(params, lam=0))
    proof = lhs == head + tail(replace(params, beta=Fraction(0)))
    return Thm2Check(statement, proof)


def check_thm4(params: PolyParams, n: int) -> bool:
    lhs = a_explicit(params, n + 1)
    rhs = params.gamma * a_explicit(
        replace(params, gamma=params.gamma + params.alpha), n
    )
    one_sec = replace(
        params, lam=1, gamma=params.gamma + params.beta + params.alpha
    )
    zero_gamma = replace(params, gamma=Fraction(0))
    conv = XPolynomial.zero()
    for k in range(n + 1):
        conv = conv + (
            math.comb(n, k)
            * a_explicit(one_sec, k)
            * a_explicit(zero_gamma, n - k)
        )
    rhs = rhs + (params.lam * params.beta * conv).times_x()
    return lhs == rhs


def check_eq6(params: PolyParams, n: int) -> Eq6Check:
    """Alternating removal of the gamma factor, two readings of the sign."""
    lhs = a_explicit(replace(params, gamma=Fraction(0)), n)

    def rhs(removal_alpha):
        acc = XPolynomial.zero()
        for k in range(n + 1):
            acc = acc + (
                math.comb(n, k)
                * (-1) ** k
                * gff(params.gamma, -removal_alpha, k)
                * a_explicit(params, n - k)
            )
        return acc

    return Eq6Check(
        printed=lhs == rhs(params.alpha),
        reflected=lhs == rhs(-params.alpha),
    )


def check_eq7(params: PolyParams, n: int) -> bool:
    """Split into a gamma-free part against the plain gamma product."""
    lhs = a_explicit(params, n)
    sp0 = StirlingParams(params.alpha, -params.beta, Fraction(0))
    rhs = XPolynomial.zero()
    for k in range(n + 1):
        c = lam_binom(params.lam, k)
        if not c:
            continue
        for i in range(n + 1):
            s = stirling_rec(sp0, i, k)
            if not s:
                continue
            rhs = rhs + XPolynomial.constant(
                c
                * math.comb(n, i)
                * (-1) ** (k + i)
                * params.beta ** k
                * math.factorial(k)
                * s
                * gff(params.gamma, -params.alpha, n - i)
            ).times_x(k)
    return lhs == rhs


def check_31_32(params: PolyParams, n: int) -> Eq3132Check:
    lam, a, b, g = params.lam, params.alpha, params.beta, params.gamma
    x = XPolynomial.x()
    xp1 = XPolynomial((1, 1))

    lifted = replace(params, lam=lam + 1)
    lhs1 = x * a_explicit(replace(lifted, gamma=g + b), n)
    rhs1 = xp1 * a_explicit(lifted, n) - a_explicit(params, n)

    lhs2 = a_explicit(replace(params, gamma=g - a), n + 1) \
        - lam * b * xp1 * a_explicit(lifted, n)
    rhs2 = (g - a - lam * b) * a_explicit(params, n)

    return Eq3132Check(lhs1 == rhs1, lhs2 == rhs2)


def _sub_neg(poly: XPolynomial) -> XPolynomial:
    """Substitute x -> -x - 1."""
    return poly(XPolynomial((-1, -1)))


def check_symmetry_37(params: PolyParams, n: int) -> Eq37Check:
    t1 = a_explicit(
        replace(params, gamma=params.gamma + params.beta * params.lam), n
    )
    t2 = _sub_neg(a_explicit(replace(params, beta=-params.beta), n))
    t3p = (-1) ** n * _sub_neg(
        a_explicit(replace(params, gamma=-params.gamma), n)
    )
    t3r = (-1) ** n * _sub_neg(
        a_explicit(
            replace(params, alpha=-params.alpha, gamma=-params.gamma), n
        )
    )
    pair = t1 == t2
    return Eq37Check(pair, t1 == t3p, t1 == t3r)


def check_38(params: PolyParams, n: int) -> bool:
    """Shifted-argument expansion in powers of x + 1."""
    lhs = a_explicit(params, n)
    sp = StirlingParams(
        params.alpha,
        params.beta,
        params.beta * params.lam - params.gamma,
    )
    xp1 = XPolynomial((1, 1))
    rhs = XPolynomial.zero()
    for k in range(n + 1):
        c = lam_binom(params.lam, k)
        if not c:
            continue
        rhs = rhs + (
            c
            * (-params.beta) ** k
            * math.factorial(k)
            * stirling_rec(sp, n, k)
        ) * xp1 ** k
    rhs = (-1) ** n * rhs
    return lhs == rhs


def check_convolutions(p1: PolyParams, p2: PolyParams, n: int) -> ConvolutionCheck:
    """Binomial convolution identities for shared (alpha, beta).

    teo2 multiplies two members into the order-sum member.  teo1 expresses
    the raised index instead; the printed display and the reading with the
    second factor's order raised by one are tracked separately.
    """
    if (p1.alpha, p1.beta) != (p2.alpha, p2.beta):
        raise ValueError("convolution checks need shared alpha and beta")
    a, b = p1.alpha, p1.beta
    g1, g2 = p1.gamma, p2.gamma
    lam = p1.lam + p2.lam
    first = replace(p1, gamma=a + b + g1)

    def conv(second_lam: int) -> XPolynomial:
        acc = XPolynomial.zero()
        second = replace(p2, lam=second_lam)
        for k in range(n + 1):
            acc = acc + (
                math.comb(n, k)
                * a_explicit(first, k)
                * a_explicit(second, n - k)
            )
        return acc

    teo2 = conv(p2.lam) == a_explicit(
        PolyParams(lam, a, b, a + b + g1 + g2), n
    )

    teo1_rhs = a_explicit(PolyParams(lam, a, b, g1 + g2), n + 1) \
        - (g1 + g2) * a_explicit(PolyParams(lam, a, b, g1 + g2 + a), n)
    teo1_printed = (b * lam * conv(p2.lam)).times_x() == teo1_rhs
    teo1_shifted = (b * lam * conv(p2.lam + 1)).times_x() == teo1_rhs

    return ConvolutionCheck(teo1_printed, teo1_shifted, teo2)


_SHIFT_MARKERS = (Fraction(1), Fraction(2), Fraction(-3, 2))


def check_shift_theorem(params: PolyParams, n: int, m: int) -> ShiftCheck:
    """Index shift by m against order raising, both directions.

    The raising direction is an exact polynomial identity.  The solved-for
    (inverse) direction divides by rising(lam, m) * (beta x)^m, so it is
    checked at the fixed rational markers 1, 2 and -3/2.
    """
    if params.lam < 1 or params.beta == 0:
        raise ValueError("shift checks need lam >= 1 and beta != 0")
    if m < 0:
        raise ValueError("need m >= 0")
    lam, a, b, g = params.lam, params.alpha, params.beta, params.gamma

    sp = _stirling_a(params)
    rhs = XPolynomial.zero()
    for k in range(m + 1):
        term = (
            stirling_rec(sp, m, k)
            * lam_binom(lam, k)
            * math.factorial(k)
            * (-b) ** k
            * a_explicit(
                PolyParams(lam + k, a, b, g + m * a + k * b), n
            )
        )
        rhs = rhs + term.times_x(k)
    raise_ok = (-1) ** m * a_explicit(params, n + m) == rhs

    dual = StirlingParams(a, -b, -g + m * a - lam * b).dual()

    def inverse_holds(arg_shift) -> bool:
        for x0 in _SHIFT_MARKERS:
            lhs_val = a_explicit(
                PolyParams(lam + m, a, -b, g), n
            )(-x0 - 1)
            acc = Fraction(0)
            for k in range(m + 1):
                acc += (
                    (-1) ** k
                    * stirling_rec(dual, m, k)
                    * a_eval(
                        PolyParams(lam, a, b, g - arg_shift(k) * a + lam * b),
                        n + k,
                        x0,
                    )
                )
            den = rising(Fraction(lam), m) * (b * x0) ** m
            if lhs_val != (-1) ** m * acc / den:
                return False
        return True

    return ShiftCheck(
        raise_ok,
        inverse_holds(lambda k: m),
        inverse_holds(lambda k: k),
    )
