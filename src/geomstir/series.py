"""Exact truncated power series and generalized factorial primitives.

A Series stores the ordinary coefficients c_0..c_N of sum c_n t^n.  The
sequence it represents in the exponential view is a_n = c_n * n!, read off
with egf_value().  Operations never extend the truncation order: combining
two series requires equal orders, and results are exact.

Coefficients are Fractions in the plain case; XPolynomial coefficients are
supported as well (anything that forms a commutative ring with the scalars
works), which is how polynomial-valued generating functions are built.

Every operation is prefix-stable: coefficient n of an order-N result equals
coefficient n of the order-n result for every N >= n.  So a route that
needs A_0 .. A_N builds one order-N series and reads every n from it.

series_exp uses the recurrence of g = exp(f), g' = f' g (Knuth, TAOCP
vol. 2, 4.7):

    g_0 = 1,    m g_m = sum_{k=1..m} k f_k g_{m-k},

which is O(N^2) coefficient products instead of summing N series powers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

from .xpoly import XPolynomial

Coeff = Union[Fraction, XPolynomial]

# Entries kept by each memo of whole series builds (a_egf, and the harness's
# one build per parameter set).  A route reads all its orders from one build
# before moving to the next parameter set, so a small bound loses no hits.
SERIES_CACHE_SIZE = 32


def _q(v) -> Fraction:
    """v as a Fraction; an int exactly, a float by its exact binary value."""
    return v if isinstance(v, Fraction) else Fraction(v)


def gff(t, alpha, n: int):
    """Generalized falling factorial (t | alpha)_n = prod_{k<n} (t - k*alpha).

    (t | alpha)_0 == 1.  t may be a Fraction or an XPolynomial; alpha is a
    Fraction.  With alpha == 0 this is t**n, with alpha == 1 the ordinary
    falling factorial.
    """
    if n < 0:
        raise ValueError("gff needs n >= 0")
    if isinstance(t, (int, Fraction)) and isinstance(alpha, (int, Fraction)):
        # t = p/q, alpha = a/b: prod_k (p b - k a q) / (q b)^n over ints
        q, b = t.denominator, alpha.denominator
        term, step = t.numerator * b, alpha.numerator * q
        num = 1
        for _ in range(n):
            num *= term
            term -= step
        return Fraction(num, (q * b) ** n)
    out = t - t + 1 if isinstance(t, XPolynomial) else Fraction(1)
    for k in range(n):
        out = out * (t - k * alpha)
    return out


def falling(a, n: int):
    """a (a-1) ... (a-n+1), the falling factorial (a | 1)_n."""
    return gff(a, Fraction(1), n)


def rising(a, n: int):
    """a (a+1) ... (a+n-1), the rising factorial (a | -1)_n."""
    return gff(a, Fraction(-1), n)


def binom(a, k: int) -> Fraction:
    """Binomial coefficient C(a, k) for rational a and integer k >= 0."""
    if k < 0:
        raise ValueError("binom needs k >= 0")
    return falling(Fraction(a), k) / math.factorial(k)


@dataclass(frozen=True)
class Series:
    """Truncated series sum c_n t^n, n = 0..order, with exact coefficients."""

    coeffs: tuple

    def __post_init__(self):
        if not self.coeffs:
            raise ValueError("a Series needs at least the constant term")

    @classmethod
    def from_ordinary(cls, coeffs: Sequence[Coeff]) -> "Series":
        return cls(tuple(coeffs))

    @classmethod
    def from_egf(cls, values: Sequence[Coeff]) -> "Series":
        """Build from EGF values a_n, storing a_n / n!."""
        return cls(
            tuple(v * Fraction(1, math.factorial(n)) if isinstance(v, XPolynomial)
                  else Fraction(v) / math.factorial(n)
                  for n, v in enumerate(values))
        )

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, n: int) -> Coeff:
        return self.coeffs[n]

    def egf_value(self, n: int) -> Coeff:
        return self.coeffs[n] * math.factorial(n)

    def egf_values(self) -> list:
        return [self.egf_value(n) for n in range(self.order + 1)]

    def _check_order(self, other: "Series"):
        if self.order != other.order:
            raise ValueError(
                f"order mismatch: {self.order} != {other.order}"
            )

    def __add__(self, other: "Series") -> "Series":
        self._check_order(other)
        return Series(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "Series") -> "Series":
        self._check_order(other)
        return Series(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __mul__(self, other: "Series") -> "Series":
        return series_mul(self, other)

    def scale(self, c) -> "Series":
        return Series(tuple(a * c for a in self.coeffs))

    def add_const(self, c) -> "Series":
        return Series((self.coeffs[0] + c,) + self.coeffs[1:])


def series_one(order: int) -> Series:
    return Series((Fraction(1),) + (Fraction(0),) * order)


def series_mul(f: Series, g: Series) -> Series:
    """Cauchy product truncated at the shared order."""
    f._check_order(g)
    n = f.order
    out = []
    for m in range(n + 1):
        acc = f.coeffs[0] * g.coeffs[m]
        for i in range(1, m + 1):
            acc = acc + f.coeffs[i] * g.coeffs[m - i]
        out.append(acc)
    return Series(tuple(out))


def _invert_constant(c0):
    if isinstance(c0, XPolynomial):
        if c0.degree != 0:
            raise ValueError("constant term must be a unit to invert")
        return XPolynomial.constant(1 / c0.coefficient(0))
    if c0 == 0:
        raise ValueError("constant term must be nonzero to invert")
    return 1 / Fraction(c0)


def series_geom_inverse(f: Series) -> Series:
    """Multiplicative inverse of f, truncated at f.order.

    Solves g_0 = 1/f_0 and g_m = -1/f_0 * sum_{i=1..m} f_i g_{m-i}; the
    constant term must be invertible (nonzero, and of degree 0 in the
    polynomial-coefficient case).
    """
    inv0 = _invert_constant(f.coeffs[0])
    out = [inv0]
    for m in range(1, f.order + 1):
        acc = f.coeffs[1] * out[m - 1]
        for i in range(2, m + 1):
            acc = acc + f.coeffs[i] * out[m - i]
        out.append(-inv0 * acc)
    return Series(tuple(out))


def series_int_pow(f: Series, m: int) -> Series:
    """f**m for integer m; negative m inverts first."""
    if m < 0:
        return series_int_pow(series_geom_inverse(f), -m)
    out = series_one(f.order)
    if any(isinstance(c, XPolynomial) for c in f.coeffs):
        out = lift_to_poly(out)
    for _ in range(m):
        out = series_mul(out, f)
    return out


def series_exp(f: Series) -> Series:
    """exp(f) for a series with zero constant term (so the sum is finite),
    by the recurrence m g_m = sum_{k=1..m} k f_k g_{m-k}, g_0 = 1."""
    c0 = f.coeffs[0]
    if not (c0 == 0 or (isinstance(c0, XPolynomial) and c0.is_zero())):
        raise ValueError("series_exp needs a zero constant term")
    one = Fraction(1)
    if any(isinstance(c, XPolynomial) for c in f.coeffs):
        one = XPolynomial.constant(one)
    df = [k * c for k, c in enumerate(f.coeffs)]  # k f_k, the coefficients of t f'
    out = [one]
    for m in range(1, f.order + 1):
        acc = df[1] * out[m - 1]
        for k in range(2, m + 1):
            acc = acc + df[k] * out[m - k]
        out.append(acc * Fraction(1, m))
    return Series(tuple(out))


def binomial_series(alpha, beta, order: int) -> Series:
    """Truncation of (1 + alpha t)^(beta/alpha), defined by its coefficients.

    The EGF values are (beta | alpha)_n, so the series is exact for every
    rational alpha including alpha == 0, where it degenerates to exp(beta t).
    """
    alpha = Fraction(alpha)
    beta = Fraction(beta)
    values = []
    acc = Fraction(1)
    for n in range(order + 1):
        values.append(acc)
        acc *= beta - n * alpha
    return Series.from_egf(values)


def lift_to_poly(f: Series) -> Series:
    """Coerce every coefficient to an XPolynomial constant."""
    return Series(
        tuple(c if isinstance(c, XPolynomial) else XPolynomial.constant(c)
              for c in f.coeffs)
    )
