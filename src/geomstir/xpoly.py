"""Dense univariate polynomials over exact rationals.

The marker variable is written x throughout.  A polynomial is stored as
integer numerators over one shared denominator, the layout of FLINT's
fmpq_poly:

    num = (c_0, ..., c_d)  ints, ascending degree
    den > 0                int
    value = sum_i (c_i / den) x^i

and is always kept in canonical form: no trailing zero numerators (the zero
polynomial is num == (), den == 1) and gcd(c_0, ..., c_d, den) == 1.  So two
equal polynomial values have identical (num, den) pairs, == and hash are
tuple operations, and instances can be used as dict keys.

Addition and multiplication work on the integer numerators and reduce by
one gcd at the end; evaluation at an int or Fraction u/v is integer Horner,
sum c_i u^i v^(d-i), with one Fraction built at the end.  The rational
coefficient tuple `coeffs` is formed on demand and not kept.  Scalars (int,
Fraction) mix freely on either side of + and *.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence, Union

Scalar = Union[int, Fraction]


def _raw(num: tuple, den: int) -> "XPolynomial":
    """Wrap a (num, den) pair that is already canonical."""
    p = object.__new__(XPolynomial)
    p.num = num
    p.den = den
    return p


def _make(num: list, den: int) -> "XPolynomial":
    """Canonical polynomial from integer numerators over den > 0."""
    end = len(num)
    while end and not num[end - 1]:
        end -= 1
    if not end:
        return _ZERO
    if end < len(num):
        del num[end:]
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            num = [c // g for c in num]
            den //= g
    return _raw(tuple(num), den)


def _parts(value):
    """(num, den) of an XPolynomial or scalar operand; None for anything else."""
    if isinstance(value, XPolynomial):
        return value.num, value.den
    if isinstance(value, (int, Fraction)):
        return ((value.numerator,) if value else ()), value.denominator
    return None


def _sum(a: tuple, da: int, b: tuple, db: int) -> "XPolynomial":
    if not b:
        return _make(list(a), da)
    if not a:
        return _make(list(b), db)
    if da == db:
        ma = mb = 1
        den = da
    else:
        g = gcd(da, db)
        ma, mb = db // g, da // g
        den = da * ma
    if len(a) < len(b):
        a, b, ma, mb = b, a, mb, ma
    num = list(a) if ma == 1 else [c * ma for c in a]
    for i, c in enumerate(b):
        num[i] += c * mb
    return _make(num, den)


def _product(a, b) -> list:
    """The integer coefficients of the product of two nonempty coefficient lists."""
    if len(b) > len(a):
        a, b = b, a
    if len(b) == 1:
        s = b[0]
        return [c * s for c in a]
    num = [0] * (len(a) + len(b) - 1)
    for j, s in enumerate(b):
        if s:
            for i, c in enumerate(a, j):
                num[i] += c * s
    return num


def _compose(a: tuple, da: int, q: tuple, dq: int) -> "XPolynomial":
    """(a / da)(q / dq) by integer Horner over (da dq^deg)."""
    if not a:
        return _ZERO
    h, epow = [a[-1]], 1  # epow = dq^(deg - i)
    for c in reversed(a[:-1]):
        epow *= dq
        h = _product(h, q) if q else [0]
        h[0] += c * epow
    return _make(h, da * epow)


class XPolynomial:
    __slots__ = ("num", "den")

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        cs = [c if isinstance(c, (int, Fraction)) else Fraction(c) for c in coeffs]
        den = lcm(*(c.denominator for c in cs)) if cs else 1
        p = _make([c.numerator * (den // c.denominator) for c in cs], den)
        self.num = p.num
        self.den = p.den

    # construction helpers

    @classmethod
    def from_ints(cls, num: Sequence[int], den: int = 1) -> "XPolynomial":
        """sum_i (num[i] / den) x^i, from integer numerators over one denominator."""
        if not den:
            raise ZeroDivisionError("XPolynomial denominator is zero")
        if den < 0:
            return _make([-c for c in num], -den)
        return _make(list(num), den)

    @classmethod
    def zero(cls) -> "XPolynomial":
        return _ZERO

    @classmethod
    def x(cls) -> "XPolynomial":
        return _make([0, 1], 1)

    # structure

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The rational coefficients c_0..c_d, built on each access."""
        den = self.den
        return tuple(Fraction(c, den) for c in self.num)

    def is_zero(self) -> bool:
        return not self.num

    # ring operations

    def __add__(self, other):
        parts = _parts(other)
        if parts is None:
            return NotImplemented
        return _sum(self.num, self.den, *parts)

    __radd__ = __add__

    def __neg__(self):
        if not self.num:
            return self
        return _raw(tuple(-c for c in self.num), self.den)

    def __sub__(self, other):
        parts = _parts(other)
        if parts is None:
            return NotImplemented
        b, db = parts
        return _sum(self.num, self.den, tuple(-c for c in b), db)

    def __rsub__(self, other):
        parts = _parts(other)
        if parts is None:
            return NotImplemented
        a, da = parts
        return _sum(a, da, tuple(-c for c in self.num), self.den)

    def __mul__(self, other):
        parts = _parts(other)
        if parts is None:
            return NotImplemented
        a, b = self.num, parts[0]
        if not a or not b:
            return _ZERO
        return _make(_product(a, b), self.den * parts[1])

    __rmul__ = __mul__

    def times_x(self, k: int = 1) -> "XPolynomial":
        """Multiply by x**k (coefficient shift)."""
        if not self.num:
            return self
        return _raw((0,) * k + self.num, self.den)

    def __call__(self, value):
        """Horner evaluation; value may be an int, Fraction, float or XPolynomial.

        At an int or Fraction u/v the sum c_i u^i v^(d-i) runs over ints and
        one Fraction is built at the end.  At a polynomial Q / e the integer
        Horner H <- H Q + c_i e^(d-i) gives the composition H / (den e^d)
        with one reduction.  A float takes the generic Horner path over the
        rational coefficients.
        """
        num = self.num
        if isinstance(value, XPolynomial):
            return _compose(num, self.den, value.num, value.den)
        if not isinstance(value, (int, Fraction)):
            result = value * 0
            for c in reversed(self.coeffs):
                result = result * value + c
            return result
        if not num:
            return value * 0
        u, v = value.numerator, value.denominator
        acc = 0
        if v == 1:
            for c in reversed(num):
                acc = acc * u + c
            return Fraction(acc, self.den)
        vpow = 1
        for c in reversed(num):
            acc = acc * u + c * vpow
            vpow *= v
        return Fraction(acc, self.den * (vpow // v))

    # comparison / hashing

    def __eq__(self, other):
        parts = _parts(other)
        if parts is None:
            return NotImplemented
        return self.num == parts[0] and self.den == parts[1]

    def __hash__(self):
        return hash(("XPolynomial", self.num, self.den))

    def __repr__(self):
        return f"XPolynomial({list(self.coeffs)!r})"

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                term = str(c)
            else:
                xpow = "x" if i == 1 else f"x^{i}"
                if c == 1:
                    term = xpow
                elif c == -1:
                    term = f"-{xpow}"
                else:
                    term = f"{c}*{xpow}"
            parts.append(term)
        out = parts[0]
        for term in parts[1:]:
            out += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
        return out


_ZERO = _raw((), 1)
