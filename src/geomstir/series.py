"""Exact truncated power series and generalized factorial primitives.

A Series stores the ordinary coefficients c_0..c_N of sum c_n t^n.  The
sequence it represents in the exponential view is a_n = c_n * n!, read off
with egf_value().  Operations never extend the truncation order: combining
two series requires equal orders, and results are exact.

Coefficients are rationals, held in the layout of XPolynomial (FLINT's
fmpq_poly): integer numerators over one positive denominator,

    num = (C_0, ..., C_N)  ints,    den > 0,    c_n = C_n / den,

in canonical form, gcd(C_0, ..., C_N, den) == 1 (the zero series has
den == 1).  Trailing zeros stay, since they carry the order.  So equal
series have identical (num, den) pairs, == and hash are tuple operations,
and the rational tuple `coeffs` is built on demand.  A generating function
with a symbolic argument is not a Series of polynomials; its builder reads
one rational series per power of the argument (see geom.a_egf and
euler._gamma_polynomials).

Every operation is prefix-stable: coefficient n of an order-N result equals
coefficient n of the order-n result for every N >= n.  So a route that
needs A_0 .. A_N builds one order-N series and reads every n from it.

The product, scale, add_const, from_egf and binomial_series work on the
integer numerators and reduce by one gcd per result; series_mul is the
convolution

    C_m = sum_{i<=m} A_i B_{m-i}  over  df dg.

series_exp, series_int_pow and series_geom_inverse (the power -1) run one
engine, _solve: g = exp(f) obeys g' = f' g, and g = f^r for any integer r
obeys f g' = r f' g (J. C. P. Miller's recurrence; Knuth, TAOCP vol. 2, 4.7):

    exp:    g_0 = 1,       m g_m = sum_{k=1..m} k f_k g_{m-k},
    power:  g_0 = f_0^r,   m f_0 g_m = sum_{k=1..m} ((r+1) k - m) f_k g_{m-k}.

Both are O(N^2) coefficient products; r enters only as a scalar.  _solve
keeps the g_j over the running lcm of their reduced denominators.  Over a
fixed power such as f_0^(m+1) or (m! D^m) instead, the integers outgrow the
values: at order 150 the inverse of the Euler base took 0.46-0.99 s that
way and 6-7 ms in _solve.
"""

from __future__ import annotations

import math
import operator
import re
from fractions import Fraction
from typing import Sequence

# Memo bounds: every builder whose value is read again is an lru_cache at its
# own definition with one of these, and nothing else memoises.  Each is at
# least twice the largest working set of one memo on verify-wide (n_max=12,
# seeds 1 and 301-310): 160 tables, 1724 polynomials, 12 series builds,
# 48 section values; and 85-97 Euler columns (seeds 1, 517 and 4243).  The
# harness's per-row set-up memos hold at most 6 (_lifts), 12 (_eq6_column),
# 15 (_shift_setup), 12 (_euler_rec_setup), 4 (_pair_setup) and 16
# (_spivey_setup) entries there (seeds 1, 301-310, 517 and 4243).
TABLE_CACHE_SIZE = 512  # stirling._table, euler._euler_column, harness set-up
POLY_CACHE_SIZE = 8192  # a_explicit, s_exp_explicit
SERIES_CACHE_SIZE = 32  # a_egf, s_exp_egf, euler_egf, euler._gamma_polynomials
SECTION_CACHE_SIZE = 128  # oracle.section_poly_value


def _q(v) -> Fraction:
    """v as a Fraction; an int exactly, a float by its exact binary value."""
    return v if isinstance(v, Fraction) else Fraction(v)


_RATIONAL = re.compile(r"^[+-]?\d+(/[1-9]\d*)?$")


def _parse_rational(text: str) -> Fraction:
    """An integer or "p/q" with q > 0 as an exact Fraction; decimals and
    anything else raise ValueError, so no binary float gets in."""
    text = text.strip()
    if not _RATIONAL.match(text):
        raise ValueError(f"{text!r} is not an exact rational; write an integer or p/q")
    return Fraction(text)


# Cap on the top index read times _bit_size of the rational inputs, checked
# by cli and harness.GridSpec: the integers of every sweep grow with both
# (README, "Input caps", has the times).
MAX_N_BITS = 2048


def _bit_size(values) -> int:
    """The largest bit length of a numerator or denominator of the rationals."""
    return max((max(v.numerator.bit_length(), v.denominator.bit_length())
                for v in values), default=0)


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


def _series(num: list, den: int) -> "Series":
    """The canonical Series num[n] / den, n = 0..len(num)-1, for den != 0."""
    if den < 0:
        num, den = [-c for c in num], -den
    g = math.gcd(den, *num)
    if g != 1:
        num = [c // g for c in num]
        den //= g
    s = object.__new__(Series)
    s.num = tuple(num)
    s.den = den
    return s


class Series:
    """Truncated series sum c_n t^n, n = 0..order, with exact coefficients
    c_n = num[n] / den, kept in canonical form (see the module docstring)."""

    __slots__ = ("num", "den")

    def __init__(self, coeffs: Sequence):
        cs = [_q(c) for c in coeffs]
        if not cs:
            raise ValueError("a Series needs at least the constant term")
        den = math.lcm(*(c.denominator for c in cs))
        s = _series([c.numerator * (den // c.denominator) for c in cs], den)
        self.num, self.den = s.num, s.den

    @classmethod
    def from_egf(cls, values: Sequence[Fraction]) -> "Series":
        """Build from EGF values a_n, storing a_n / n!.  With L the lcm of
        the value denominators, a_n / n! = a_n L (N! / n!) / (L N!)."""
        qs = [_q(v) for v in values]
        if not qs:
            raise ValueError("a Series needs at least the constant term")
        lcd = math.lcm(*(q.denominator for q in qs))
        num, fall = [], 1  # fall = N! / n!, n from N down
        for n in range(len(qs) - 1, -1, -1):
            num.append(qs[n].numerator * (lcd // qs[n].denominator) * fall)
            fall *= n or 1
        num.reverse()
        return _series(num, lcd * fall)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The rational coefficients c_0..c_order, built on each access."""
        den = self.den
        return tuple(Fraction(c, den) for c in self.num)

    @property
    def order(self) -> int:
        return len(self.num) - 1

    def egf_value(self, n: int) -> Fraction:
        return Fraction(self.num[n] * math.factorial(n), self.den)

    def egf_values(self) -> list:
        out, fact, den = [], 1, self.den
        for n, c in enumerate(self.num):
            fact *= n or 1
            out.append(Fraction(c * fact, den))
        return out

    def _check_order(self, other: "Series"):
        if self.order != other.order:
            raise ValueError(
                f"order mismatch: {self.order} != {other.order}"
            )

    def __mul__(self, other: "Series") -> "Series":
        return series_mul(self, other)

    def __eq__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        return f"Series(coeffs={self.coeffs!r})"

    def scale(self, c) -> "Series":
        c = _q(c)
        return _series([a * c.numerator for a in self.num], self.den * c.denominator)

    def add_const(self, c) -> "Series":
        c = _q(c)
        p, q = c.numerator, c.denominator
        num = list(self.num) if q == 1 else [a * q for a in self.num]
        num[0] += p * self.den
        return _series(num, self.den * q)


def series_one(order: int) -> Series:
    return _series([1] + [0] * order, 1)


def _scaled(coeffs) -> tuple[list[int], int]:
    """(numerators, d) with every rational coefficient equal to its numerator / d."""
    d = math.lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (d // c.denominator) for c in coeffs], d


def series_mul(f: Series, g: Series) -> Series:
    """Cauchy product truncated at the shared order."""
    f._check_order(g)
    a, b = f.num, g.num
    return _series([sum(map(operator.mul, a[:m + 1], b[m::-1])) for m in range(len(a))],
                   f.den * g.den)


def _solve(g0: Fraction, a: list[int], b, c) -> Series:
    """The series g_0, g_m = (sum_k a[k] g_(m-k) - m sum_k b[k] g_(m-k)) / c(m),
    k = 1..m, for m = 1..len(a)-1; b None drops the second sum.  Each g_j is
    kept as scaled[j] / L over the running lcm L of the reduced denominators so
    far: one integer dot product per sum and one Fraction per step."""
    scaled, lcd = [g0.numerator], g0.denominator
    for m in range(1, len(a)):
        s = sum(map(operator.mul, a[1:m + 1], reversed(scaled)))
        if b is not None:
            s -= m * sum(map(operator.mul, b[1:m + 1], reversed(scaled)))
        g = Fraction(s, c(m) * lcd)
        q = g.denominator
        if lcd % q:
            k = q // math.gcd(lcd, q)
            scaled = [t * k for t in scaled]
            lcd *= k
        scaled.append(g.numerator * (lcd // q))
    return _series(scaled, lcd)


def series_int_pow(f: Series, r: int) -> Series:
    """f**r for integer r and a nonzero constant term, by Miller's recurrence
    (module docstring); with f_k = F_k / D the step (_solve) is
    g_m = (sum_k (r+1) k F_k g_(m-k) - m sum_k F_k g_(m-k)) / (m F_0)."""
    fs, f0 = f.num, f.num[0]
    if not f0:
        raise ValueError("a series power needs a nonzero constant term")
    return _solve(Fraction(f0, f.den) ** r, [(r + 1) * k * c for k, c in enumerate(fs)],
                  fs, lambda m: m * f0)


# The inverse, f**-1; kept only for perfbench/tracing.py, which probes this name.
def series_geom_inverse(f: Series) -> Series:
    return series_int_pow(f, -1)


def series_exp(f: Series) -> Series:
    """exp(f) for a series with zero constant term (so the sum is finite);
    with f_k = F_k / D the step (_solve) is g_m = sum_k (k F_k) g_(m-k) / (m D)."""
    fs = f.num
    if fs[0]:
        raise ValueError("series_exp needs a zero constant term")
    d = f.den
    return _solve(Fraction(1), [k * c for k, c in enumerate(fs)], None, lambda m: m * d)


def binomial_series(alpha, beta, order: int) -> Series:
    """Truncation of (1 + alpha t)^(beta/alpha), defined by its coefficients.

    The EGF values are (beta | alpha)_n, so the series is exact for every
    rational alpha including alpha == 0, where it degenerates to exp(beta t).
    With E the lcm of the two denominators and A, B the parameters times E,
    (beta | alpha)_n = P_n / E^n for P_n = prod_{j<n} (B - j A), and
    coefficient n is P_n E^(N-n) (N! / n!) over E^N N!.
    """
    alpha, beta = _q(alpha), _q(beta)
    e = math.lcm(alpha.denominator, beta.denominator)
    a = alpha.numerator * (e // alpha.denominator)
    b = beta.numerator * (e // beta.denominator)
    num, acc = [], 1
    for n in range(order + 1):
        num.append(acc)
        acc *= b - n * a
    scale = 1  # E^(N-n) N! / n!
    for n in range(order, 0, -1):
        num[n] *= scale
        scale *= e * n
    num[0] *= scale
    return _series(num, scale)
