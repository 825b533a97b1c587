"""Higher-order generalized geometric polynomials A_n and their identities.

A_n is a polynomial in the weight marker x, indexed by an integer order
lam >= 0 and rational parameters (alpha, beta, gamma).  Three independent
routes compute it:

  * a_explicit  -- finite sum over a generalized Stirling column.  The
        paper prints it over the (alpha, -beta, -gamma) triangle,
            A_n = sum_k C(k+lam-1, k) (-1)^(n+k) beta^k k! S(n,k; alpha,-beta,-gamma) x^k,
        and it is computed over the reflected triangle, with no sign,
            A_n = sum_k C(k+lam-1, k) beta^k k! S(n,k; -alpha,beta,gamma) x^k.
        The two agree because the triangle is homogeneous of degree n - k:
        S(n,k; -a,-b,-g) = (-1)^(n-k) S(n,k; a,b,g).
  * a_egf       -- coefficient extraction from the closed generating series
        (1 - alpha t)^(-gamma/alpha) * [1 / (1 - x ((1 - alpha t)^(-beta/alpha) - 1))]^lam,
        read one power of x at a time
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

from .series import (POLY_CACHE_SIZE, SERIES_CACHE_SIZE, _IntKeyed, _q,
                     binomial_series)
from .stirling import StirlingParams, _scaled_params, _value_sweep, weighted_row
from .xpoly import XPolynomial

@dataclass(frozen=True, eq=False, slots=True)
class PolyParams(_IntKeyed):
    lam: int
    alpha: Fraction
    beta: Fraction
    gamma: Fraction


@dataclass(frozen=True)
class ASequence:
    """A_0..A_order for one parameter set, as computed by a_egf."""

    values: tuple[XPolynomial, ...]


def lam_binom(lam: int, k: int) -> int:
    """C(k + lam - 1, k), the number of k-multisets from lam kinds."""
    if lam == 0:
        return 1 if k == 0 else 0
    return math.comb(k + lam - 1, k)


def _stirling_a(params: PolyParams):
    """The reflected triangle (-alpha, beta, gamma) that A_n is read from."""
    return StirlingParams(-params.alpha, params.beta, params.gamma)


def _a_ratio(lam: int):
    """w_k / w_(k-1) = (k+lam-1) B for the weights w_k = C(k+lam-1, k) k! B^k,
    B = beta d the scaled beta of the (-alpha, beta, gamma) triangle."""
    return lambda k, d, b: (k + lam - 1) * b


@lru_cache(maxsize=POLY_CACHE_SIZE)
def a_explicit(params: PolyParams, n: int) -> XPolynomial:
    """A_n via the generalized Stirling column sum: the weighted row of the
    (-alpha, beta, gamma) triangle, ratio _a_ratio(lam)."""
    return XPolynomial.from_ints(*weighted_row(_stirling_a(params), n, _a_ratio(params.lam)))


def a_eval(params: PolyParams, n: int, x) -> Fraction:
    """A_n evaluated at a rational marker value."""
    return a_explicit(params, n)(_q(x))


def a_values(params: PolyParams, x, order: int) -> list[Fraction]:
    """A_0(x) .. A_order(x) from one integer sweep of the Stirling recurrence.

    a_explicit's column sum with the same ratio _a_ratio(lam), so
    A_n(x) = sum(R_n) / (d v)^n.  Builds no polynomial, so it
    pays for a whole column read once; repeated single reads belong to
    a_eval, which shares the cached polynomials.  Prefix-stable.
    """
    sweep = _value_sweep(_stirling_a(params), _q(x), order, _a_ratio(params.lam))
    return [Fraction(sum(row), den) for row, den in sweep]


@lru_cache(maxsize=SERIES_CACHE_SIZE)
def a_egf(params: PolyParams, order: int) -> ASequence:
    """A_0..A_order from the closed generating series.

    With p = (1 - alpha t)^(-gamma/alpha) and u = (1 - alpha t)^(-beta/alpha) - 1,
    the binomial theorem in x gives

        p [1 - x u]^(-lam) = sum_k C(k+lam-1, k) x^k p u^k,

    so the x^k coefficient of every A_n is an EGF value of the rational
    series p u^k, one series product per power of x.  u has no constant
    term, so p u^k starts at t^k and k stops at `order` (at 0 when
    lam == 0).  The build is prefix-stable, so
    a_egf(params, N).values[n] == a_egf(params, n).values[n] for every N >= n.
    """
    term = binomial_series(-params.alpha, params.gamma, order)
    u = binomial_series(-params.alpha, params.beta, order) - 1
    columns = []  # columns[k][n]: the x^k coefficient of A_n
    for k in range(order + 1 if params.lam else 1):
        if k:
            term = term * u
        c = lam_binom(params.lam, k)
        columns.append([c * v for v in term.egf_values()])
    return ASequence(tuple(
        XPolynomial([col[n] for col in columns]) for n in range(order + 1)
    ))


# maxsize=0 keeps nothing; it stays an lru_cache for the tracer's cache_info()
@lru_cache(maxsize=0)
def a_recurrence(params: PolyParams, n: int) -> XPolynomial:
    """A_n by iterating the order/argument raising recurrence from A_0 = 1.

    Built bottom-up: at depth j (order n - j) the values needed are
    A_{n-j} at (lam + i, gamma + j alpha + i beta) for 0 <= i <= j, and
    each comes from entries i and i + 1 one depth further down.  Without
    the raising term (lam == 0 or beta == 0) only i == 0 is needed.

    With the scaled parameters (d, A, B, G) of _scaled_params, the depth-j
    entries are integer polynomials N_i over d^(n-j), and one step is

        N_i <- (G + j A + i B) N_i + x (lam + i) B N_(i+1),

    so A_n = N_0 / d^n at depth 0.
    """
    if n < 0:
        raise ValueError("need n >= 0")
    lam = params.lam
    d, a, b, g = _scaled_params(params)
    lifts = bool(lam and b)
    row = [[1]] * (n + 1 if lifts else 1)  # depth n: A_0
    for j in range(n - 1, -1, -1):
        shift = g + j * a
        new = []
        for i in range(j + 1 if lifts else 1):
            c = shift + i * b
            out = [c * t for t in row[i]]
            if lifts:
                out.append(0)
                lift = (lam + i) * b
                for k, t in enumerate(row[i + 1], 1):
                    out[k] += lift * t
            new.append(out)
        row = new
    return XPolynomial.from_ints(row[0], d ** n)
