"""Higher-order generalized Euler polynomials E_n^(lam)(alpha, beta, gamma).

Defined by the generating function

    [ 2 / ((1+alpha t)^(beta/alpha) + 1) ]^lam * (1+alpha t)^(gamma/alpha)

and tied to the geometric family by

    E_n^(lam)(alpha, beta, gamma) = (-1)^n A_n^(lam, -1/2)(alpha, -beta, -gamma)
                                  = A_n^(lam, -1/2)(-alpha, beta, gamma).

Routes: generating series (euler_egf), both A-specializations (euler_via_a),
and two explicit Stirling sums (euler_explicit).  All four agree exactly.

The circulating recurrence and convolution displays, several of which fail
as written, are checked by the conformance harness next to their repaired
readings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .geom import PolyParams, a_eval, lam_binom
from .series import Series, _q, binomial_series, gff, lift_to_poly, series_int_pow
from .stirling import StirlingParams, stirling_rec
from .xpoly import XPolynomial

HALF = Fraction(1, 2)


@dataclass(frozen=True)
class EulerParams:
    lam: int
    alpha: Fraction
    beta: Fraction

    def __post_init__(self):
        if not isinstance(self.lam, int) or self.lam < 0:
            raise ValueError("lam must be an integer >= 0")
        object.__setattr__(self, "alpha", _q(self.alpha))
        object.__setattr__(self, "beta", _q(self.beta))


def _ev(lam: int, alpha, beta, gamma, n: int) -> Fraction:
    # single-route value via the sign-flipped geometric specialization
    return a_eval(PolyParams(lam, -_q(alpha), _q(beta), _q(gamma)), n, -HALF)


def euler_via_a(p: EulerParams, gamma, n: int) -> Fraction:
    """Both A-route values; they must agree or something is broken."""
    gamma = _q(gamma)
    v1 = (-1) ** n * a_eval(
        PolyParams(p.lam, p.alpha, -p.beta, -gamma), n, -HALF
    )
    v2 = a_eval(PolyParams(p.lam, -p.alpha, p.beta, gamma), n, -HALF)
    if v1 != v2:
        raise RuntimeError(
            f"A-route disagreement for E_{n}: {v1} vs {v2} at {p}, gamma={gamma}"
        )
    return v1


def euler_egf(p: EulerParams, gamma, order: int) -> Series:
    """Truncated series whose EGF values are E_0 .. E_order."""
    base = binomial_series(p.alpha, p.beta, order).add_const(1).scale(HALF)
    return series_int_pow(base, -p.lam) * binomial_series(p.alpha, _q(gamma), order)


def euler_explicit(p: EulerParams, gamma, n: int) -> tuple[Fraction, Fraction]:
    """The two closed Stirling sums.  Both equal euler_via_a."""
    gamma = _q(gamma)
    s_plus = StirlingParams(p.alpha, p.beta, gamma)
    s_minus = StirlingParams(p.alpha, -p.beta, gamma - p.beta * p.lam)
    f1 = sum(
        (
            stirling_rec(s_plus, n, k)
            * lam_binom(p.lam, k)
            * math.factorial(k)
            * (-p.beta) ** k
            / Fraction(2) ** k
            for k in range(n + 1)
        ),
        Fraction(0),
    )
    f2 = sum(
        (
            stirling_rec(s_minus, n, k)
            * lam_binom(p.lam, k)
            * math.factorial(k)
            * p.beta ** k
            / Fraction(2) ** k
            for k in range(n + 1)
        ),
        Fraction(0),
    )
    return f1, f2


def euler_polynomial(p: EulerParams, n: int) -> XPolynomial:
    """E_n as a polynomial in the gamma argument."""
    return _gamma_polynomials(p, n)[n]


def _gamma_polynomials(p: EulerParams, order: int) -> tuple[XPolynomial, ...]:
    """E_0 .. E_order as polynomials in gamma, from one order-`order` product
    of the gamma-free factor with sum_j (gamma | alpha)_j t^j / j!."""
    base = binomial_series(p.alpha, p.beta, order).add_const(1).scale(HALF)
    core = lift_to_poly(series_int_pow(base, -p.lam))
    sym = Series.from_egf(
        [gff(XPolynomial.x(), p.alpha, j) for j in range(order + 1)]
    )
    return tuple((core * sym).egf_values())
