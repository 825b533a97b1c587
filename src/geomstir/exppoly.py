"""Generalized exponential (Bell-type) polynomials over a Stirling triangle.

S_n(x) = sum_k S(n, k; alpha, beta, r) x^k.  The classical Bell polynomials
are the (0, 1, 0) instance and the shifted variant is (0, 1, r).

Includes both sides of the shifted generating series (the Spivey-type
addition formula is checked in the conformance harness), and the
weighted-integral route from S_n to the geometric family (the one
deliberately floating-point computation in the package), on generalized
Gauss-Laguerre nodes found by Newton's method on the Laguerre three-term
recurrence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .geom import PolyParams, a_eval
from .series import (POLY_CACHE_SIZE, SERIES_CACHE_SIZE, Series, _q,
                     binomial_series, series_exp)
from .stirling import StirlingParams, _value_sweep, weighted_row
from .xpoly import XPolynomial


@dataclass(frozen=True)
class ExpPolyParams:
    alpha: Fraction
    beta: Fraction
    r: Fraction

    def __post_init__(self):
        object.__setattr__(self, "alpha", _q(self.alpha))
        object.__setattr__(self, "beta", _q(self.beta))
        object.__setattr__(self, "r", _q(self.r))
        # every memo read hashes the params; hash the Fractions once
        object.__setattr__(self, "_hash", hash((self.alpha, self.beta, self.r)))

    def __hash__(self):
        return self._hash

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
    ratio _s_ratio, so S_n(x) = V_n / (d v)^n.  For a whole column read once;
    s_exp_eval serves repeated single reads.  Prefix-stable."""
    sweep = _value_sweep(p.stirling(), _q(x), order, _s_ratio)
    return [Fraction(v, den) for v, den in sweep]


@lru_cache(maxsize=SERIES_CACHE_SIZE)
def s_exp_egf(p: ExpPolyParams, x, order: int) -> Series:
    """Truncated generating series with EGF values S_n(x):

    (1 + alpha t)^(r/alpha) * exp( x/beta * ((1 + alpha t)^(beta/alpha) - 1) )

    beta == 0 has no closed bracket of this shape; use the explicit route.
    """
    if p.beta == 0:
        raise ValueError("generating-series route needs beta != 0")
    x = _q(x)
    bracket = binomial_series(p.alpha, p.beta, order).add_const(-1)
    return binomial_series(p.alpha, p.r, order) * series_exp(
        bracket.scale(x / p.beta)
    )


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
    poly_at_series = _poly_of_series(s_exp_explicit(p, m), grow.scale(x))
    return lhs, (s_exp_egf(p, x, order)
                 * binomial_series(p.alpha, -m * p.alpha, order) * poly_at_series)


def _poly_of_series(poly: XPolynomial, arg: Series) -> Series:
    """Horner evaluation of a polynomial at a series argument."""
    order = arg.order
    acc = Series((Fraction(0),) * (order + 1))
    for c in reversed(poly.coeffs):
        acc = (acc * arg).add_const(c)
    return acc


def _laguerre(n: int, alpha: float, z: float) -> tuple[float, float, float]:
    """L_n^(alpha)(z), L_(n-1)^(alpha)(z) and the derivative of L_n^(alpha)
    at z, from the three-term recurrence."""
    p1, p2 = 1.0, 0.0
    for j in range(1, n + 1):
        p1, p2 = ((2 * j - 1 + alpha - z) * p1 - (j - 1 + alpha) * p2) / j, p1
    return p1, p2, (n * p1 - (n + alpha) * p2) / z


def _gauss_laguerre(n: int, alpha: float) -> tuple[list[float], list[float]]:
    """Nodes and weights of the n-point Gauss rule for the weight
    z^alpha e^-z / Gamma(alpha+1) on (0, inf), whose moments are
    Gamma(alpha+k+1) / Gamma(alpha+1).

    Each node is a root of L_n^(alpha), found by Newton's method from the
    starting guesses of Press et al., Numerical Recipes, section 4.6
    (gaulag).  The weight at node z is
    -Gamma(n+alpha) / (Gamma(alpha+1) n! L_n'(z) L_(n-1)(z)), the Gamma
    ratio formed in log space with math.lgamma, so it stays finite where
    Gamma(n+alpha) alone overflows a float (n + alpha past 171).  Raises
    ArithmeticError if Newton's method stalls.
    """
    nodes: list[float] = []
    weights: list[float] = []
    scale = math.exp(math.lgamma(alpha + n) - math.lgamma(n) - math.lgamma(alpha + 1))
    for i in range(n):
        if i == 0:
            z = (1 + alpha) * (3 + 0.92 * alpha) / (1 + 2.4 * n + 1.8 * alpha)
        elif i == 1:
            z += (15 + 6.25 * alpha) / (1 + 0.9 * alpha + 2.5 * n)
        else:
            ai = i - 1
            z += ((1 + 2.55 * ai) / (1.9 * ai) + 1.26 * ai * alpha / (1 + 3.5 * ai)
                  ) * (z - nodes[i - 2]) / (1 + 0.3 * alpha)
        # Newton squares the error each step, so after a step of 1e-10
        # relative the node is at roundoff; a tighter test can stall on
        # the recurrence's own noise (about 4e-14 relative at n = 80)
        for _ in range(100):
            p1, _, dp = _laguerre(n, alpha, z)
            step = p1 / dp
            z -= step
            if abs(step) <= 1e-10 * z:
                break
        else:
            raise ArithmeticError(
                f"Gauss-Laguerre node {i} of {n} did not converge (alpha={alpha})")
        _, p2, dp = _laguerre(n, alpha, z)
        nodes.append(z)
        weights.append(-scale / (n * dp * p2))
    return nodes, weights


def check_integral_rep(params: PolyParams, x: float, n: int) -> tuple[float, float]:
    """Weighted-integral route to the geometric family:

    A_n(x) = (-1)^n / (lam-1)! * integral_0^inf z^(lam-1) e^-z
             S_n(-beta x z; alpha, -beta, -gamma) dz

    evaluated with generalized Gauss-Laguerre nodes (weight z^(lam-1) e^-z,
    with the 1/(lam-1)! folded into the weights), max(n+2, 16) of them, so
    the degree-n integrand is integrated exactly up to roundoff; the nodes
    come from Newton's method on the Laguerre recurrence.  Returns
    (quadrature value, exact value as float).
    """
    if params.lam < 1:
        raise ValueError("integral route needs lam >= 1")
    nodes, weights = _gauss_laguerre(max(n + 2, 16), params.lam - 1)
    inner = ExpPolyParams(params.alpha, -params.beta, -params.gamma)
    sn = s_exp_explicit(inner, n)
    scale = -float(params.beta) * x
    total = 0.0
    for z, w in zip(nodes, weights):
        total += w * sn(scale * z)
    quad = (-1.0) ** n * total
    # a_eval reads the float as its exact binary value
    exact = float(a_eval(params, n, x))
    return quad, exact
