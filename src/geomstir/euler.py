"""Higher-order generalized Euler polynomials E_n^(lam)(alpha, beta, gamma).

Defined by the generating function

    [ 2 / ((1+alpha t)^(beta/alpha) + 1) ]^lam * (1+alpha t)^(gamma/alpha)

and tied to the geometric family by

    E_n^(lam)(alpha, beta, gamma) = (-1)^n A_n^(lam, -1/2)(alpha, -beta, -gamma)
                                  = A_n^(lam, -1/2)(-alpha, beta, gamma).

Routes: generating series (euler_egf), both A-specializations (euler_via_a,
or euler_values for a whole column E_0..E_N at one gamma), and two explicit
Stirling sums (euler_explicit).  All four agree exactly.  euler_polynomial
gives E_n as a polynomial in gamma, by integer Horner in the Newton basis.

The circulating recurrence and convolution displays, several of which fail
as written, are checked by the conformance harness next to their repaired
readings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Iterator

from .geom import PolyParams, a_eval, a_values
from .series import (SERIES_CACHE_SIZE, Series, _IntKeyed, _q, _scaled,
                     binomial_series, series_int_pow)
from .stirling import StirlingParams, weighted_row
from .xpoly import XPolynomial

HALF = Fraction(1, 2)


@dataclass(frozen=True, eq=False, slots=True)
class EulerParams(_IntKeyed):
    lam: int
    alpha: Fraction
    beta: Fraction
    _key: tuple = field(init=False, repr=False)

    def __post_init__(self):
        if not isinstance(self.lam, int) or self.lam < 0:
            raise ValueError("lam must be an integer >= 0")
        self._freeze((self.lam,), ("alpha", "beta"))


def euler_via_a(p: EulerParams, gamma, n: int) -> Fraction:
    """Both A-route values; they must agree or something is broken."""
    gamma = _q(gamma)
    v1 = a_eval(PolyParams(p.lam, p.alpha, -p.beta, -gamma), n, -HALF)
    v2 = a_eval(PolyParams(p.lam, -p.alpha, p.beta, gamma), n, -HALF)
    return _agreed(p, gamma, n, (-1) ** n * v1, v2)


def euler_values(p: EulerParams, gamma, order: int) -> list[Fraction]:
    """E_0 .. E_order at one gamma: euler_via_a with each A-specialization
    read from one a_values sweep."""
    gamma = _q(gamma)
    v1s = a_values(PolyParams(p.lam, p.alpha, -p.beta, -gamma), -HALF, order)
    v2s = a_values(PolyParams(p.lam, -p.alpha, p.beta, gamma), -HALF, order)
    return [_agreed(p, gamma, n, (-1) ** n * v1, v2)
            for n, (v1, v2) in enumerate(zip(v1s, v2s))]


def _agreed(p: EulerParams, gamma: Fraction, n: int, v1: Fraction,
            v2: Fraction) -> Fraction:
    if v1 != v2:
        raise RuntimeError(
            f"A-route disagreement for E_{n}: {v1} vs {v2} at {p}, gamma={gamma}"
        )
    return v1


@lru_cache(maxsize=SERIES_CACHE_SIZE)
def euler_egf(p: EulerParams, gamma, order: int) -> Series:
    """Truncated series whose EGF values are E_0 .. E_order."""
    return _gamma_free(p, order) * binomial_series(p.alpha, _q(gamma), order)


def _gamma_free(p: EulerParams, order: int) -> Series:
    """The gamma-free factor [2 / ((1+alpha t)^(beta/alpha) + 1)]^lam."""
    base = binomial_series(p.alpha, p.beta, order).add_const(1).scale(HALF)
    return series_int_pow(base, -p.lam)


def euler_explicit(p: EulerParams, gamma, n: int) -> tuple[Fraction, Fraction]:
    """The two closed Stirling sums.  Both equal euler_via_a.

        f1 = sum_k S(n, k; alpha, beta, gamma) C(k+lam-1, k) k! (-beta/2)^k
        f2 = sum_k S(n, k; alpha, -beta, gamma - lam beta) C(k+lam-1, k) k! (beta/2)^k
    """
    gamma = _q(gamma)
    s_plus = StirlingParams(p.alpha, p.beta, gamma)
    s_minus = StirlingParams(p.alpha, -p.beta, gamma - p.beta * p.lam)
    return _euler_sum(s_plus, p.lam, n), _euler_sum(s_minus, p.lam, n)


def _euler_ratio(lam: int):
    """w_k / w_(k-1) = -(k+lam-1) B for the weights w_k = C(k+lam-1, k) k! (-B)^k,
    B = beta d the triangle's scaled beta."""
    return lambda k, d, b: -(k + lam - 1) * b


def _euler_sum(sp: StirlingParams, lam: int, n: int) -> Fraction:
    """sum_k S(n, k) C(k+lam-1, k) k! (-beta/2)^k for the triangle sp.

    The weighted row with ratio _euler_ratio(lam), read at x = 1/2: an
    integer sum over d^n 2^n.
    """
    row, den = weighted_row(sp, n, _euler_ratio(lam))
    return Fraction(sum(t << (n - k) for k, t in enumerate(row)), den << n)


def euler_polynomial(p: EulerParams, n: int) -> XPolynomial:
    """E_n as a polynomial in the gamma argument."""
    return _gamma_polynomials(p, n)[n]


@lru_cache(maxsize=SERIES_CACHE_SIZE)
def _gamma_polynomials(p: EulerParams, order: int) -> tuple[XPolynomial, ...]:
    """E_0 .. E_order as polynomials in gamma, kept for repeated reads."""
    return tuple(_gamma_polynomial_rows(p, order))


def _gamma_polynomial_rows(p: EulerParams, order: int) -> Iterator[XPolynomial]:
    """E_0 .. E_order as polynomials in gamma, yielded one at a time; nothing
    is kept, so a table reader holds one row at a time.

    With c_m the EGF values of the gamma-free factor of the generating
    function, E_n = sum_j C(n, j) c_(n-j) (gamma | alpha)_j is a sum in the
    Newton basis of the factors gamma - j alpha, so Horner runs from H = c_0
    with H <- C(n, j) c_(n-j) + (gamma - j alpha) H for j = n-1 .. 0.  With
    alpha = a/b and D the lcm of the denominators of the c_m, the integers
    K_m = c_m D b^m make every step integer:

        H <- C(n, j) K_(n-j) + (b gamma - j a) H,    E_n = H / (D b^n).
    """
    nums, d = _scaled(_gamma_free(p, order).egf_values())
    a, b = p.alpha.numerator, p.alpha.denominator
    ks = [c * b ** m for m, c in enumerate(nums)]
    for n in range(order + 1):
        h = [ks[0]]  # ascending coefficients in gamma
        for j in range(n - 1, -1, -1):
            ja = j * a
            h = [math.comb(n, j) * ks[n - j] - ja * h[0],
                 *(b * lo - ja * hi for lo, hi in zip(h, h[1:])),
                 b * h[-1]]
        yield XPolynomial.from_ints(h, d * b ** n)
