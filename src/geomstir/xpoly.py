"""Dense univariate polynomials over exact rationals.

The marker variable is written x throughout.  Coefficients are kept in
ascending degree with trailing zeros stripped, so two equal polynomial
values always have identical coefficient tuples and instances can be used
as dict keys.  Scalars (int, Fraction) mix freely on either side of + and *.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Union

Scalar = Union[int, Fraction]


def _canonical(coeffs: Iterable[Scalar]) -> tuple[Fraction, ...]:
    # Fraction(c) of a Fraction is slow and changes nothing; skip it
    cs = [c if type(c) is Fraction else Fraction(c) for c in coeffs]
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


class XPolynomial:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        object.__setattr__(self, "coeffs", _canonical(coeffs))

    # construction helpers

    @classmethod
    def zero(cls) -> "XPolynomial":
        return cls(())

    @classmethod
    def one(cls) -> "XPolynomial":
        return cls((1,))

    @classmethod
    def constant(cls, c: Scalar) -> "XPolynomial":
        return cls((c,))

    @classmethod
    def x(cls) -> "XPolynomial":
        return cls((0, 1))

    # structure

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial mapped to -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, i: int) -> Fraction:
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return Fraction(0)

    # ring operations

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return XPolynomial(
            self.coefficient(i) + other.coefficient(i) for i in range(n)
        )

    __radd__ = __add__

    def __neg__(self):
        return XPolynomial(-c for c in self.coeffs)

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return XPolynomial.zero()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return XPolynomial(out)

    __rmul__ = __mul__

    def __pow__(self, m: int):
        if m < 0:
            raise ValueError("negative polynomial power")
        out = XPolynomial.one()
        for _ in range(m):
            out = out * self
        return out

    def times_x(self, k: int = 1) -> "XPolynomial":
        """Multiply by x**k (coefficient shift)."""
        if self.is_zero():
            return self
        return XPolynomial((Fraction(0),) * k + self.coeffs)

    def __call__(self, value):
        """Horner evaluation; value may be a Fraction, float or XPolynomial."""
        result = value * 0
        for c in reversed(self.coeffs):
            result = result * value + c
        return result

    # comparison / hashing

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(("XPolynomial", self.coeffs))

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


def _coerce(value) -> "XPolynomial":
    if isinstance(value, XPolynomial):
        return value
    if isinstance(value, (int, Fraction)):
        return XPolynomial((value,))
    return NotImplemented
