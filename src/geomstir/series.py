"""Exact truncated power series and generalized factorial primitives.

The paper's generalized falling factorial (t | alpha)_j, j = 0, 1, ..., is
one kernel, _falls, over ints when t and alpha are; every running product of
the package but the oracle's reads it, the factorials n! = (1 | -1)_n and the
EGF scale N!/n! = (N | 1)_(N-n) of from_egf and binomial_series (_egf) too.

A Series stores the ordinary coefficients c_0..c_N of sum c_n t^n.  The
sequence it represents in the exponential view is a_n = c_n * n!, read off
with egf_value().  Operations never extend the truncation order: combining
two series requires equal orders, and results are exact.

The coefficients c_n = num[n] / den are a rational vector in fmpq's
canonical layout, trailing zeros kept, since they carry the order: series
of two orders never compare equal.  A generating function with a symbolic
argument is not a Series of polynomials; its builder reads one rational
series per power of the argument (see geom.a_egf and
euler._gamma_polynomials).

Every operation is prefix-stable: coefficient n of an order-N result equals
coefficient n of the order-n result for every N >= n.  So a route that
needs A_0 .. A_N builds one order-N series and reads every n from it.

+, - and * (fmpq._Fmpq's, shared with XPolynomial, with scalars on either
side), from_egf and binomial_series work on the integer numerators and
reduce by one gcd per result; a product is the convolution cut at the order,

    C_m = sum_{i<=m} A_i B_{m-i}  over  df dg,

and a polynomial P evaluates at a series argument as P(f), cut the same way.

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
import reprlib
from fractions import Fraction
from itertools import islice
from typing import Iterator, Sequence

from .fmpq import _Fmpq, _canon, _scaled

# Memo bounds: every builder whose value is read again is an lru_cache at its
# own definition with one of these, and nothing else memoises.  Each is at
# least twice the largest working set of one memo on verify-wide (n_max=12,
# seeds 1, 301-310, 517 and 4243): 111-128 Stirling tables, 82-99 Euler
# columns (euler_explicit reads them too), 1724 polynomials, 12 series
# builds and 48 section values.  The harness's per-row set-up memos hold at
# most 6 (_lifts), 12 (_eq6_column), 15 (_shift_setup), 12
# (_euler_rec_setup), 4 (_pair_setup) and 16 (_spivey_setup) entries there.
TABLE_CACHE_SIZE = 512  # stirling._table, euler._euler_column, harness set-up
POLY_CACHE_SIZE = 8192  # a_explicit, s_exp_explicit
SERIES_CACHE_SIZE = 32  # a_egf, s_exp_egf, euler_egf, euler._gamma_polynomials
SECTION_CACHE_SIZE = 128  # oracle.section_poly_value


def _upto(column: tuple[list, Iterator], n: int) -> list:
    """The values of a memo that grows as it is read, extended to hold index n.

    Such a memo holds (values, source): the values read so far, a plain list,
    and the endless iterator that yields the next ones.
    """
    values, source = column
    while len(values) <= n:
        values.append(next(source))
    return values


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


# Input caps (README, "Input caps", has the times).  The integers of every
# sweep grow with the top index read times the bits of the rational inputs,
# and times the bits of lambda; _check_size holds both rules for compute,
# grids and the asymptotic table.  Past 16 800 (42-bit lambdas at n = 400) an
# asymptotic report would outlast the slowest table under MAX_N.
MAX_N = 400               # the top index of a compute or asymptotic table
MAX_N_BITS = 2048         # top index * _bit_size of the rationals
MAX_LAMBDA_BITS = 16_800  # top index * bit_length of each lambda


def _bit_size(values) -> int:
    """The largest bit length of a numerator or denominator of the rationals."""
    return max((max(v.numerator.bit_length(), v.denominator.bit_length())
                for v in values), default=0)


def _check_size(top: int, rationals, lams=()) -> None:
    """ValueError if a read up to index top is past MAX_N_BITS for the
    rationals or past MAX_LAMBDA_BITS for the int lambdas."""
    for size, what, cap in (
            (_bit_size(rationals), "a rational parameter", MAX_N_BITS),
            (max((lam.bit_length() for lam in lams), default=0), "a lambda",
             MAX_LAMBDA_BITS)):
        if top * size > cap:
            raise ValueError(f"index {top} times {size}, the largest bit length of "
                             f"{what}, is {top * size}, past the cap of {cap}")


def _count(key: str, value) -> int:
    """value, a non-negative int: the one rule for orders and lambdas, in
    grids and records alike.  bool is an int subclass; true must not read as 1."""
    if type(value) is not int or value < 0:
        raise ValueError(f"{key} needs non-negative integers, got {reprlib.repr(value)}")
    return value


class _IntKeyed:
    """Base of the frozen, slotted parameter records.

    A record is its parameters: its dataclass fields are exactly those, so it
    round-trips through asdict, replace, copy and pickle.  __post_init__ reads
    them in order, lam by the grids' count rule (_count) and every other field
    as an exact rational (_q), and sets the slot _key: lam (if any), then each
    rational's numerator and denominator.  A record compares and hashes by that
    int key; every memo read hashes and compares its params, so this keeps
    Fraction arithmetic off that path.  Records of two classes are never equal.
    """

    __slots__ = ("_key",)

    def __post_init__(self):
        key = ()
        for name in self.__match_args__:
            v = getattr(self, name)
            if name == "lam":
                key += (_count(name, v),)
            else:
                q = _q(v)
                if q is not v:
                    object.__setattr__(self, name, q)
                key += q.as_integer_ratio()
        object.__setattr__(self, "_key", key)

    def __reduce__(self):
        # rebuilt from its fields, so copy and pickle set _key afresh
        return type(self), tuple(getattr(self, name) for name in self.__match_args__)

    def __eq__(self, other):
        if self is other:
            return True
        if type(other) is not type(self):
            return NotImplemented
        return self._key == other._key

    def __hash__(self):
        return hash(self._key)


def _falls(t, step) -> Iterator:
    """(t | step)_j = prod_{i<j} (t - i*step) for j = 0, 1, ... without end,
    over ints when t and step are ints; (1 | -1)_j = j!, step 0 gives t^j."""
    acc = 1
    while True:
        yield acc
        acc *= t
        t -= step


def gff(t, alpha, n: int):
    """Generalized falling factorial (t | alpha)_n = prod_{k<n} (t - k*alpha).

    (t | alpha)_0 == 1.  t and alpha are rationals (a float is read by its
    exact binary value).  With alpha == 0 this is t**n, with alpha == 1 the
    ordinary falling factorial.  It is the integer _falls (t e | alpha e)_n
    over e^n, e the lcm of the two denominators.
    """
    if n < 0:
        raise ValueError("gff needs n >= 0")
    (p, a), e = _scaled((_q(t), _q(alpha)))
    return Fraction(next(islice(_falls(p, a), n, None)), e ** n)


def falling(a, n: int):
    """a (a-1) ... (a-n+1), the falling factorial (a | 1)_n."""
    return gff(a, Fraction(1), n)


def rising(a, n: int):
    """a (a+1) ... (a+n-1), the rising factorial (a | -1)_n."""
    return gff(a, Fraction(-1), n)


class Series(_Fmpq):
    """Truncated series sum c_n t^n, n = 0..order, with exact coefficients
    c_n = num[n] / den, kept in canonical form (see the module docstring)."""

    __slots__ = ("num", "den")

    def __init__(self, coeffs: Sequence):
        cs = [_q(c) for c in coeffs]
        if not cs:
            raise ValueError("a Series needs at least the constant term")
        s = _canon(Series, *_scaled(cs), len(cs))
        self.num, self.den = s.num, s.den

    @classmethod
    def from_egf(cls, values: Sequence[Fraction]) -> "Series":
        """Build from EGF values a_n, storing a_n / n!: with L the lcm of the
        value denominators, a_n L / n! over L (_egf)."""
        qs = [_q(v) for v in values]
        if not qs:
            raise ValueError("a Series needs at least the constant term")
        return _egf(*_scaled(qs))

    @property
    def order(self) -> int:
        return len(self.num) - 1

    @property
    def _keep(self) -> int:
        return len(self.num)

    def egf_value(self, n: int) -> Fraction:
        return Fraction(self.num[n] * math.factorial(n), self.den)

    def egf_values(self) -> list:
        """The EGF values a_n = c_n n!, n = 0..order, with n! = (1 | -1)_n."""
        den = self.den
        return [Fraction(c * f, den) for c, f in zip(self.num, _falls(1, -1))]

    def __repr__(self):
        return f"Series(coeffs={self.coeffs!r})"


def _egf(nums: list[int], den: int, e: int = 1) -> Series:
    """The Series nums[n] / (den e^n n!), n = 0..N.  Over den e^N N!,
    numerator n is nums[n] e^(N-n) N! / n! = nums[n] (N e | e)_(N-n)."""
    scales = list(islice(_falls((len(nums) - 1) * e, e), len(nums)))
    return _canon(Series, [c * f for c, f in zip(nums, reversed(scales))],
                  den * scales[-1], len(nums))


# The product f * g; kept only for perfbench/tracing.py, which probes this name.
def series_mul(f: Series, g: Series) -> Series:
    return f * g


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
    return _canon(Series, scaled, lcd, len(scaled))


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
    (beta | alpha)_n = (B | A)_n / E^n, so coefficient n is the _falls value
    (B | A)_n over E^n n! (_egf).
    """
    (a, b), e = _scaled((_q(alpha), _q(beta)))
    return _egf(list(islice(_falls(b, a), order + 1)), 1, e)
