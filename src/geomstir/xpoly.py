"""Dense univariate polynomials over exact rationals.

The marker variable is written x throughout.  A polynomial holds its
coefficients c_0..c_d, ascending degree, in the canonical layout of fmpq
with no trailing zero, so instances can be used as dict keys.

+, - and * are fmpq._Fmpq's, shared with Series: they work on the integer
numerators and reduce by one gcd at the end, with scalars (int, Fraction)
on either side.  Evaluation at an int or Fraction u/v is integer Horner,
sum c_i u^i v^(d-i), with one Fraction built at the end; at a polynomial or
a Series it is fmpq._compose.  A constant polynomial equals, and hashes as,
its scalar.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence, Union

from .fmpq import _Fmpq, _canon, _compose, _new, _scaled

Scalar = Union[int, Fraction]


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

    def times_x(self, k: int = 1) -> "XPolynomial":
        """Multiply by x**k (coefficient shift)."""
        if not self.num:
            return self
        return _new(XPolynomial, (0,) * k + self.num, self.den)

    def __call__(self, value):
        """Horner evaluation; value may be an int, Fraction, float,
        XPolynomial or Series.

        At an int or Fraction u/v the sum c_i u^i v^(d-i) runs over ints and
        one Fraction is built at the end.  At a polynomial or series Q / e the
        integer Horner H <- H Q + c_i e^(d-i) (fmpq._compose) gives the
        composition H / (den e^d) with one reduction, a series cut at its
        order.  A float takes the generic Horner path over the rational
        coefficients.
        """
        num = self.num
        if isinstance(value, _Fmpq):
            return _compose(type(value), num, self.den, value.num, value.den, value._keep)
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

    # comparison / hashing: equal to a scalar of the same value too, so a
    # constant hashes as that scalar

    def __eq__(self, other):
        b = self._operand(other)
        if b is None:
            return NotImplemented
        return self.num == b[0] and self.den == b[1]

    def __hash__(self):
        num = self.num
        if len(num) > 1:
            return hash((num, self.den))
        return hash(Fraction(num[0], self.den)) if num else 0

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
