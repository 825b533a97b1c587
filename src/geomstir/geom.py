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

The identities relating these polynomials are checked by the conformance
harness, which holds the one transcription of each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .series import (
    SERIES_CACHE_SIZE,
    _q,
    binomial_series,
    lift_to_poly,
    series_geom_inverse,
    series_int_pow,
    series_one,
)
from .stirling import StirlingParams, stirling_int_row
from .xpoly import XPolynomial

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


@lru_cache(maxsize=SERIES_CACHE_SIZE)
def a_egf(params: PolyParams, order: int) -> ASequence:
    """A_0..A_order from the closed generating series.

    The series is built with XPolynomial coefficients so the marker stays
    symbolic; no order extension ever happens past `order`.  The build is
    prefix-stable, so a_egf(params, N).values[n] == a_egf(params, n).values[n]
    for every N >= n.
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
