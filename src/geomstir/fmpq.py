"""Rational vectors as integer numerators over one positive denominator.

XPolynomial and Series hold their coefficients in FLINT's fmpq_poly layout
(W. Hart, "Fast Library for Number Theory: An Introduction", ICMS 2010),

    num = (c_0, ..., c_d)  ints,    den > 0  int,    coefficient i = c_i / den,

in canonical form: gcd(c_0, ..., c_d, den) == 1, and no trailing zero past
the length a class keeps, _keep (a polynomial keeps none, so its zero is
num == (), den == 1; a Series keeps its order + 1 entries).  So equal values
of one class have identical (num, den) pairs, == and hash are tuple
operations, and the rational tuple `coeffs` is built on demand.  This module
alone builds the form: it scales rationals to one denominator, adds and
convolves numerator lists, and reduces each result by one gcd.

Both classes read one arithmetic, on the base _Fmpq: +, - and * with an int
or Fraction on either side, unary -, and +, - and * of two instances of one
class, cut to the kept length; two Series of unequal orders raise
ValueError, and the two classes never mix (TypeError).  _compose is integer
Horner for a polynomial at an argument of either class, cut the same way.
"""

from fractions import Fraction
from math import gcd, lcm


def _new(cls, num: tuple, den: int):
    """A cls holding a (num, den) pair that is already canonical."""
    p = object.__new__(cls)
    p.num = num
    p.den = den
    return p


def _canon(cls, num: list, den: int, keep: int = 0):
    """The canonical cls num / den for den > 0: trailing zeros trimmed down
    to length keep, then one gcd."""
    end = len(num)
    while end > keep and not num[end - 1]:
        end -= 1
    if end < len(num):
        del num[end:]
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            num = [c // g for c in num]
            den //= g
    return _new(cls, tuple(num), den)


def _scaled(coeffs) -> tuple[list[int], int]:
    """(numerators, d) with every rational coefficient equal to its numerator / d."""
    ratios = [c.as_integer_ratio() for c in coeffs]
    d = lcm(*[q for _, q in ratios])
    return [p * (d // q) for p, q in ratios], d


def _sum(cls, a: tuple, da: int, b: tuple, db: int, keep: int = 0):
    """The canonical cls a / da + b / db, over the lcm of da and db, from
    canonical numerator tuples."""
    if not b:
        return _new(cls, a, da)
    if not a:
        return _new(cls, b, db)
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
    return _canon(cls, num, den, keep)


def _product(a, b, top: int = 0) -> list:
    """The integer convolution of two nonempty numerator lists, cut to its
    first top entries when top, no less than either length, is given:
    FLINT's mullow."""
    if len(b) > len(a):
        a, b = b, a
    if len(b) == 1:
        s = b[0]
        return [c * s for c in a]
    size = len(a) + len(b) - 1
    if top and top < size:
        size = top
    num = [0] * size
    for j, s in enumerate(b):
        if s:
            for i, c in enumerate(a if j + len(a) <= size else a[:size - j], j):
                num[i] += c * s
    return num


def _compose(cls, a: tuple, da: int, q: tuple, dq: int, keep: int = 0):
    """The canonical cls (a / da)(q / dq) by integer Horner over (da dq^deg),
    H <- H q + c_i dq^(deg - i), each product cut to keep entries."""
    if not a:
        return _new(cls, (0,) * keep, 1)
    h, epow = [a[-1]] + [0] * (keep - 1), 1  # epow = dq^(deg - i)
    for c in reversed(a[:-1]):
        epow *= dq
        h = _product(h, q, keep) if q else [0]
        h[0] += c * epow
    return _canon(cls, h, da * epow, keep)


class _Fmpq:
    """Base of the classes that hold (num, den), with their one arithmetic;
    two classes never compare equal or mix."""

    __slots__ = ()
    _keep = 0  # the length a canonical num keeps; a Series keeps its own

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The rational coefficients num[i] / den, built on each access."""
        den = self.den
        return tuple(Fraction(c, den) for c in self.num)

    def _operand(self, other):
        """(num, den) of an int, a Fraction or an instance of this class at
        the same kept length; None for anything else."""
        if type(other) is type(self):
            if other._keep != self._keep:
                raise ValueError(f"order mismatch: {self._keep - 1} != {other._keep - 1}")
            return other.num, other.den
        if isinstance(other, (int, Fraction)):
            return ((other.numerator,) if other else ()), other.denominator
        return None

    def __add__(self, other):
        b = self._operand(other)
        if b is None:
            return NotImplemented
        return _sum(type(self), self.num, self.den, *b, self._keep)

    __radd__ = __add__

    def __neg__(self):
        return _new(type(self), tuple(-c for c in self.num), self.den)

    def __sub__(self, other):
        b = self._operand(other)
        if b is None:
            return NotImplemented
        return _sum(type(self), self.num, self.den, tuple(-c for c in b[0]), b[1],
                    self._keep)

    def __rsub__(self, other):
        b = self._operand(other)
        if b is None:
            return NotImplemented
        return _sum(type(self), *b, tuple(-c for c in self.num), self.den, self._keep)

    def __mul__(self, other):
        b = self._operand(other)
        if b is None:
            return NotImplemented
        a, keep = self.num, self._keep
        if not a or not b[0]:
            return _new(type(self), (0,) * keep, 1)
        return _canon(type(self), _product(a, b[0], keep), self.den * b[1], keep)

    __rmul__ = __mul__

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))
