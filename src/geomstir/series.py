"""Exact truncated power series and generalized factorial primitives.

A Series stores the ordinary coefficients c_0..c_N of sum c_n t^n.  The
sequence it represents in the exponential view is a_n = c_n * n!, read off
with egf_value().  Operations never extend the truncation order: combining
two series requires equal orders, and results are exact.

Coefficients are rationals: Fractions, with ints accepted on input.  A
generating function with a symbolic argument is not a Series of
polynomials; its builder reads one rational series per power of the
argument (see geom.a_egf and euler._gamma_polynomials).

Every operation is prefix-stable: coefficient n of an order-N result equals
coefficient n of the order-n result for every N >= n.  So a route that
needs A_0 .. A_N builds one order-N series and reads every n from it.

series_exp uses the recurrence of g = exp(f), g' = f' g (Knuth, TAOCP
vol. 2, 4.7):

    g_0 = 1,    m g_m = sum_{k=1..m} k f_k g_{m-k},

which is O(N^2) coefficient products instead of summing N series powers.

series_mul writes each factor over one denominator, f_i = a_i / df and
g_j = b_j / dg with df, dg the lcms of its coefficient denominators, so the
product coefficients are

    c_m = (sum_{i<=m} a_i b_{m-i}) / (df dg),

an integer convolution with one Fraction built per coefficient.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

# Memo bounds: every builder whose value is read again is an lru_cache at its
# own definition with one of these, and nothing else memoises.  Each is at
# least twice the largest working set of one memo on verify-wide (n_max=12,
# seeds 1 and 301-310): 160 tables, 1724 polynomials, 12 series builds,
# 48 section values.
TABLE_CACHE_SIZE = 512  # stirling._table
POLY_CACHE_SIZE = 8192  # a_explicit, s_exp_explicit
SERIES_CACHE_SIZE = 32  # a_egf, s_exp_egf, euler_egf, euler._gamma_polynomials
SECTION_CACHE_SIZE = 128  # oracle.section_poly_value


def _q(v) -> Fraction:
    """v as a Fraction; an int exactly, a float by its exact binary value."""
    return v if isinstance(v, Fraction) else Fraction(v)


class _IntKeyed:
    """Base of the frozen, slotted parameter records.

    A record compares and hashes by one canonical int key, set once in
    __post_init__ by _freeze: its leading ints (lam, if any), then the
    numerator and denominator of each rational field.  Every memo read
    hashes and compares its params, so this keeps Fraction arithmetic off
    that path.  Records of two classes are never equal.
    """

    __slots__ = ()

    def _freeze(self, key: tuple, names: tuple[str, ...]) -> None:
        """Read each named field as a Fraction (_q) and set _key to key
        followed by each one's numerator and denominator."""
        for name in names:
            v = getattr(self, name)
            q = _q(v)
            if q is not v:
                object.__setattr__(self, name, q)
            key += q.as_integer_ratio()
        object.__setattr__(self, "_key", key)

    def __eq__(self, other):
        if self is other:
            return True
        if type(other) is not type(self):
            return NotImplemented
        return self._key == other._key

    def __hash__(self):
        return hash(self._key)


def gff(t, alpha, n: int):
    """Generalized falling factorial (t | alpha)_n = prod_{k<n} (t - k*alpha).

    (t | alpha)_0 == 1.  t and alpha are rationals (a float is read by its
    exact binary value).  With alpha == 0 this is t**n, with alpha == 1 the
    ordinary falling factorial.
    """
    if n < 0:
        raise ValueError("gff needs n >= 0")
    t, alpha = _q(t), _q(alpha)
    # t = p/q, alpha = a/b: prod_k (p b - k a q) / (q b)^n over ints
    q, b = t.denominator, alpha.denominator
    term, step = t.numerator * b, alpha.numerator * q
    num = 1
    for _ in range(n):
        num *= term
        term -= step
    return Fraction(num, (q * b) ** n)


def falling(a, n: int):
    """a (a-1) ... (a-n+1), the falling factorial (a | 1)_n."""
    return gff(a, Fraction(1), n)


def rising(a, n: int):
    """a (a+1) ... (a+n-1), the rising factorial (a | -1)_n."""
    return gff(a, Fraction(-1), n)


@dataclass(frozen=True)
class Series:
    """Truncated series sum c_n t^n, n = 0..order, with exact coefficients."""

    coeffs: tuple

    def __post_init__(self):
        if not self.coeffs:
            raise ValueError("a Series needs at least the constant term")

    @classmethod
    def from_egf(cls, values: Sequence[Fraction]) -> "Series":
        """Build from EGF values a_n, storing a_n / n!."""
        return cls(tuple(Fraction(v) / math.factorial(n)
                         for n, v in enumerate(values)))

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def egf_value(self, n: int) -> Fraction:
        return self.coeffs[n] * math.factorial(n)

    def egf_values(self) -> list:
        return [self.egf_value(n) for n in range(self.order + 1)]

    def _check_order(self, other: "Series"):
        if self.order != other.order:
            raise ValueError(
                f"order mismatch: {self.order} != {other.order}"
            )

    def __mul__(self, other: "Series") -> "Series":
        return series_mul(self, other)

    def scale(self, c) -> "Series":
        return Series(tuple(a * c for a in self.coeffs))

    def add_const(self, c) -> "Series":
        return Series((self.coeffs[0] + c,) + self.coeffs[1:])


def series_one(order: int) -> Series:
    return Series((Fraction(1),) + (Fraction(0),) * order)


def _scaled(coeffs: tuple) -> tuple[list[int], int]:
    """(numerators, d) with every coefficient equal to its numerator / d."""
    d = math.lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (d // c.denominator) for c in coeffs], d


def series_mul(f: Series, g: Series) -> Series:
    """Cauchy product truncated at the shared order."""
    f._check_order(g)
    (a, df), (b, dg) = _scaled(f.coeffs), _scaled(g.coeffs)
    den = df * dg
    return Series(tuple(Fraction(sum(map(operator.mul, a[:m + 1], b[m::-1])), den)
                        for m in range(f.order + 1)))


def series_geom_inverse(f: Series) -> Series:
    """Multiplicative inverse of f, truncated at f.order.

    Solves g_0 = 1/f_0 and g_m = -1/f_0 * sum_{i=1..m} f_i g_{m-i}; the
    constant term must be nonzero.
    """
    fc = f.coeffs
    if fc[0] == 0:
        raise ValueError("constant term must be nonzero to invert")
    inv0 = 1 / Fraction(fc[0])  # 1 / an int would be a float
    out = [inv0]
    for m in range(1, f.order + 1):
        out.append(-inv0 * sum(map(operator.mul, fc[1:m + 1], out[m - 1::-1])))
    return Series(tuple(out))


def series_int_pow(f: Series, m: int) -> Series:
    """f**m for integer m; negative m inverts first.  Square-and-multiply:
    about 2 log2(m) products, and the same m products as a loop for m <= 3."""
    if m < 0:
        return series_int_pow(series_geom_inverse(f), -m)
    out = series_one(f.order)
    while m:
        if m & 1:
            out = series_mul(out, f)
        m >>= 1
        if m:
            f = series_mul(f, f)
    return out


def series_exp(f: Series) -> Series:
    """exp(f) for a series with zero constant term (so the sum is finite),
    by the recurrence m g_m = sum_{k=1..m} k f_k g_{m-k}, g_0 = 1."""
    if f.coeffs[0] != 0:
        raise ValueError("series_exp needs a zero constant term")
    df = [k * c for k, c in enumerate(f.coeffs)]  # k f_k, the coefficients of t f'
    out = [Fraction(1)]
    for m in range(1, f.order + 1):
        out.append(sum(map(operator.mul, df[1:m + 1], out[m - 1::-1])) / m)
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
