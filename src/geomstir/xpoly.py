"""Dense univariate polynomials over exact rationals.

The marker variable is written x throughout.  A polynomial holds its
coefficients c_0..c_d, ascending degree, in the canonical layout of fmpq
with no trailing zero, so instances can be used as dict keys.

Addition and multiplication work on the integer numerators and reduce by
one gcd at the end; evaluation at an int or Fraction u/v is integer Horner,
sum c_i u^i v^(d-i), with one Fraction built at the end.  Scalars (int,
Fraction) mix freely on either side of + and *.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence, Union

from .fmpq import _Fmpq, _canon, _new, _product, _scaled, _sum

Scalar = Union[int, Fraction]


def _parts(value):
    """(num, den) of an XPolynomial or scalar operand; None for anything else."""
    if isinstance(value, XPolynomial):
        return value.num, value.den
    if isinstance(value, (int, Fraction)):
        return ((value.numerator,) if value else ()), value.denominator
    return None


def _compose(a: tuple, da: int, q: tuple, dq: int) -> "XPolynomial":
    """(a / da)(q / dq) by integer Horner over (da dq^deg)."""
    if not a:
        return _ZERO
    h, epow = [a[-1]], 1  # epow = dq^(deg - i)
    for c in reversed(a[:-1]):
        epow *= dq
        h = _product(h, q) if q else [0]
        h[0] += c * epow
    return _canon(XPolynomial, h, da * epow)


class XPolynomial(_Fmpq):
    __slots__ = ("num", "den")

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        p = _canon(XPolynomial, *_scaled(
            [c if isinstance(c, (int, Fraction)) else Fraction(c) for c in coeffs]))
        self.num, self.den = p.num, p.den

    # construction helpers

    @classmethod
    def from_ints(cls, num: Sequence[int], den: int = 1) -> "XPolynomial":
        """sum_i (num[i] / den) x^i, from integer numerators over one denominator."""
        if not den:
            raise ZeroDivisionError("XPolynomial denominator is zero")
        if den < 0:
            return _canon(cls, [-c for c in num], -den)
        return _canon(cls, list(num), den)

    @classmethod
    def zero(cls) -> "XPolynomial":
        return _ZERO

    @classmethod
    def x(cls) -> "XPolynomial":
        return _new(cls, (0, 1), 1)

    # structure

    def is_zero(self) -> bool:
        return not self.num

    # ring operations

    def __add__(self, other):
        parts = _parts(other)
        if parts is None:
            return NotImplemented
        return _sum(XPolynomial, self.num, self.den, *parts)

    __radd__ = __add__

    def __neg__(self):
        return _new(XPolynomial, tuple(-c for c in self.num), self.den)

    def __sub__(self, other):
        parts = _parts(other)
        if parts is None:
            return NotImplemented
        return _sum(XPolynomial, self.num, self.den, tuple(-c for c in parts[0]), parts[1])

    def __rsub__(self, other):
        parts = _parts(other)
        if parts is None:
            return NotImplemented
        return _sum(XPolynomial, *parts, tuple(-c for c in self.num), self.den)

    def __mul__(self, other):
        parts = _parts(other)
        if parts is None:
            return NotImplemented
        a, b = self.num, parts[0]
        if not a or not b:
            return _ZERO
        return _canon(XPolynomial, _product(a, b), self.den * parts[1])

    __rmul__ = __mul__

    def times_x(self, k: int = 1) -> "XPolynomial":
        """Multiply by x**k (coefficient shift)."""
        if not self.num:
            return self
        return _new(XPolynomial, (0,) * k + self.num, self.den)

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

    # comparison / hashing: equal to a scalar of the same value too

    def __eq__(self, other):
        parts = _parts(other)
        if parts is None:
            return NotImplemented
        return self.num == parts[0] and self.den == parts[1]

    __hash__ = _Fmpq.__hash__  # defining __eq__ clears the inherited hash

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


_ZERO = _new(XPolynomial, (), 1)
