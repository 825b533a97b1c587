"""Generalized exponential (Bell-type) polynomials over a Stirling triangle.

S_n(x) = sum_k S(n, k; alpha, beta, r) x^k.  The classical Bell polynomials
are the (0, 1, 0) instance and the shifted variant is (0, 1, r).

Includes both sides of the shifted generating series (the Spivey-type
addition formula is checked in the conformance harness).  The
weighted-integral route from S_n to the geometric family, a floating-point
quadrature, is a test reference (tests/references.py) and not part of the
package.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .series import (POLY_CACHE_SIZE, SERIES_CACHE_SIZE, Series, _IntKeyed,
                     _q, binomial_series, series_exp)
from .stirling import StirlingParams, _value_sweep, weighted_row
from .xpoly import XPolynomial


@dataclass(frozen=True, eq=False, slots=True)
class ExpPolyParams(_IntKeyed):
    alpha: Fraction
    beta: Fraction
    r: Fraction

    def stirling(self) -> StirlingParams:
        return StirlingParams(self.alpha, self.beta, self.r)


def _s_ratio(k: int, d: int, b: int) -> int:
    """S_n = sum_k S(n, k) x^k has the weights w_k = d^k, so w_k / w_(k-1) = d."""
    return d


@lru_cache(maxsize=POLY_CACHE_SIZE)
def s_exp_explicit(p: ExpPolyParams, n: int) -> XPolynomial:
    """S_n as a polynomial in x: the triangle's weighted row, ratio _s_ratio."""
    return XPolynomial.from_ints(*weighted_row(p.stirling(), n, _s_ratio))


def s_exp_eval(p: ExpPolyParams, n: int, x) -> Fraction:
    return s_exp_explicit(p, n)(_q(x))


def s_exp_values(p: ExpPolyParams, x, order: int) -> list[Fraction]:
    """S_0(x) .. S_order(x) from one integer sweep of the Stirling recurrence:
    ratio _s_ratio, so S_n(x) = sum(R_n) / (d v)^n.  For a whole column read
    once; s_exp_eval serves repeated single reads.  Prefix-stable."""
    sweep = _value_sweep(p.stirling(), _q(x), order, _s_ratio)
    return [Fraction(sum(row), den) for row, den in sweep]


@lru_cache(maxsize=SERIES_CACHE_SIZE)
def s_exp_egf(p: ExpPolyParams, x, order: int) -> Series:
    """Truncated generating series with EGF values S_n(x):

    (1 + alpha t)^(r/alpha) * exp( x/beta * ((1 + alpha t)^(beta/alpha) - 1) )

    beta == 0 has no closed bracket of this shape; use the explicit route.
    """
    if p.beta == 0:
        raise ValueError("generating-series route needs beta != 0")
    x = _q(x)
    bracket = binomial_series(p.alpha, p.beta, order) - 1
    return binomial_series(p.alpha, p.r, order) * series_exp(bracket * (x / p.beta))


def lemma34_sides(p: ExpPolyParams, x, m: int, order: int) -> tuple[Series, Series]:
    """Both sides of the shifted generating series:

    sum_n S_{n+m}(x) t^n/n! = (1+alpha t)^((r - m alpha)/alpha)
        * exp(x/beta ((1+alpha t)^(beta/alpha) - 1))
        * S_m(x (1+alpha t)^(beta/alpha))

    where the last factor evaluates the degree-m polynomial at a series
    argument.  Truncated at `order`.
    """
    if p.beta == 0:
        raise ValueError("generating-series route needs beta != 0")
    x = _q(x)
    lhs = Series.from_egf(
        [s_exp_eval(p, n + m, x) for n in range(order + 1)]
    )
    # (1+alpha t)^((r - m alpha)/alpha) = (1+alpha t)^(r/alpha) (1+alpha t)^(-m),
    # so the unshifted series (memoised) carries the first two factors
    grow = binomial_series(p.alpha, p.beta, order)
    return lhs, (s_exp_egf(p, x, order) * binomial_series(p.alpha, -m * p.alpha, order)
                 * s_exp_explicit(p, m)(grow * x))
