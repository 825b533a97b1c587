"""Three-parameter generalized Stirling triangles over exact rationals.

For rational parameters (alpha, beta, gamma) the triangle S(n, k) is fixed
by the boundary

    S(0, 0) = 1,   S(n, 0) = (gamma | alpha)_n,   S(n, n) = 1,
    S(n, k) = 0 for k > n or k < 0,

and the recurrence

    S(n+1, k) = S(n, k-1) + (k*beta - n*alpha + gamma) * S(n, k).

Specializations: (0, 1, 0) gives the partition-count triangle, (1, 0, 0)
the signed factorial-expansion triangle, (0, 1, r) and (1, 0, r) their
shifted variants.  The triangle with parameters (beta, alpha, -gamma),
StirlingParams.dual(), is the two-sided inverse: summing
S_dual(n, k) S(k, m) over k gives delta(n, m), and so does the product in
the other order.

The table is built over plain integers.  With d the lcm of the three
parameter denominators and A, B, G the parameters times d, the scaled
entries T(n, k) = S(n, k) * d^(n-k) are integers satisfying

    T(n+1, k) = T(n, k-1) + (k*B - n*A + G) * T(n, k),

so a row costs integer multiply-adds and no gcd.  The table is one
unit-ratio sweep kept as it is read (below); a Fraction S(n, k) =
T(n, k) / d^(n-k) is formed on each read.

Every polynomial family built on the triangle is a weighted column sum
sum_k S(n, k) (w_k / d^k) x^k whose weights are one ratio r(k, d, B): w_0 = 1,
w_k = w_(k-1) r(k).  The family's polynomial reader and its value-column
reader share that ratio.  As a polynomial, the sum is the integers
T(n, k) w_k over d^n (weighted_row).  The rows of one rational x = u/v for
n = 0..N come from one sweep of the same recurrence with the weights folded
in:

    R_n(k) = T(n, k) w_k u^k v^(n-k),
    R_(n+1)(k) = r(k) u R_n(k-1) + (k*B - n*A + G) v R_n(k),

at small-by-big integer products and no polynomial, gcd or kept table
(_value_sweep).  A value column reads V_n = sum_k R_n(k) over (d v)^n.  At
x = 1 the row R_n is weighted_row's numerators over d^n, so a whole table
of coefficient rows streams from the same sweep: with the unit ratio R_n is
the triangle row T(n, .) itself, and the memoised table (_table) is that
sweep's rows kept as tuples.  So _value_sweep is the one place the
recurrence is stepped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import count, islice
from typing import Callable, Iterator

from .fmpq import _scaled
from .series import TABLE_CACHE_SIZE, _IntKeyed, _falls, _upto

_ZERO = Fraction(0)


@dataclass(frozen=True, eq=False, slots=True)
class StirlingParams(_IntKeyed):
    alpha: Fraction
    beta: Fraction
    gamma: Fraction

    def dual(self) -> "StirlingParams":
        return StirlingParams(self.beta, self.alpha, -self.gamma)


def _scaled_params(params) -> tuple[int, int, int, int]:
    """(d, A, B, G): a record's alpha, beta and gamma scaled to one
    denominator d (fmpq._scaled), with A, B, G the integers over it."""
    (a, b, g), d = _scaled((params.alpha, params.beta, params.gamma))
    return d, a, b, g


@lru_cache(maxsize=TABLE_CACHE_SIZE)
def _table(params: StirlingParams) -> tuple[int, int, tuple[list, Iterator]]:
    """(d, B, rows): the scale, the scaled beta and the integer rows
    T(0, .), T(1, .), ... as a memo that grows as it is read (series._upto),
    the unit-ratio sweep with each row kept as a tuple."""
    d, _, b, _ = _scaled_params(params)
    return d, b, ([], (tuple(row) for row, _ in _value_sweep(params, 1, None, _unit_ratio)))


def stirling_int_row(params: StirlingParams, n: int) -> tuple[int, tuple[int, ...]]:
    """(d, T(n, 0..n)) with S(n, k) = T(n, k) / d^(n-k) and every T an integer."""
    if n < 0:
        raise ValueError("need n >= 0")
    d, _, rows = _table(params)
    return d, _upto(rows, n)[n]


def stirling_row(params: StirlingParams, n: int) -> tuple[Fraction, ...]:
    """S(n, 0..n) from the memoized recurrence; works for every rational triple."""
    d, row = stirling_int_row(params, n)
    return tuple(Fraction(t, d ** (n - k)) for k, t in enumerate(row))


# r(k, d, B) = w_k / w_(k-1): a family's column weights, d and B = beta d
# the triangle's scale and scaled beta
Ratio = Callable[[int, int, int], int]


def _unit_ratio(k: int, d: int, b: int) -> int:
    """w_k = 1: the bare triangle row T(n, .)."""
    return 1


def _weigh(row, d: int, b: int, ratio: Ratio) -> list[int]:
    """row[k] w_k for k = 0..len(row)-1, w_0 = 1 and w_k = w_(k-1) ratio(k, d, b)."""
    out, w = [row[0]], 1
    for k in range(1, len(row)):
        w *= ratio(k, d, b)
        out.append(row[k] * w)
    return out


def weighted_row(params: StirlingParams, n: int, ratio: Ratio) -> tuple[list[int], int]:
    """(T(n, k) w_k for k = 0..n, d^n) with w_0 = 1 and w_k = w_(k-1) ratio(k, d, B):
    the numerators over d^n of the polynomial sum_k S(n, k) (w_k / d^k) x^k."""
    d, b, _ = _table(params)
    return _weigh(stirling_int_row(params, n)[1], d, b, ratio), d ** n


def _value_sweep(params: StirlingParams, x: Fraction | int, order: int | None,
                 ratio: Ratio) -> Iterator[tuple[list[int], int]]:
    """(R_n, (d v)^n) for n = 0..order, R_n(k) = T(n, k) w_k u^k v^(n-k);
    order None sweeps without end.

    With x = u/v in lowest terms, sum(R_n) / (d v)^n is weighted_row(params,
    n, ratio)'s polynomial at x, and at x = 1 the pair is weighted_row itself.
    Each R_n is a new list, so a reader may keep it.  Prefix-stable: R_n does
    not depend on order.  No table is built or kept.
    """
    d, a, b, g = _scaled_params(params)
    u, v = x.numerator, x.denominator
    ru = [0]  # r(k) u, one more k per row
    bv, dv = b * v, d * v
    row, den = [1], 1  # R_0 and (d v)^0
    for n in count() if order is None else range(order + 1):
        yield row, den
        if n == order:
            return
        ru.append(ratio(n + 1, d, b) * u)
        cv = (g - n * a) * v  # (k*B - n*A + G) v at k = 0
        new = [cv * row[0]]
        for k in range(1, n + 1):
            cv += bv
            new.append(ru[k] * row[k - 1] + cv * row[k])
        new.append(ru[n + 1] * row[n])
        row, den = new, den * dv


def stirling_rec(params: StirlingParams, n: int, k: int) -> Fraction:
    """S(n, k) from the memoized recurrence; works for every rational triple."""
    d, row = stirling_int_row(params, n)
    return Fraction(row[k], d ** (n - k)) if 0 <= k <= n else _ZERO


def stirling_explicit(params: StirlingParams, n: int, k: int) -> Fraction:
    """Finite-difference form, valid only when beta != 0:

    S(n, k) = 1/(beta^k k!) * sum_{s=0}^{k} (-1)^(k-s) C(k,s) (beta*s + gamma | alpha)_n

    With the scaled parameters (d, A, B, G) of _scaled_params,
    (beta*s + gamma | alpha)_n = (B s + G | A)_n / d^n, the integer _falls
    value over d^n, so the sum is one integer over B^k k! d^(n-k).
    """
    if params.beta == 0:
        raise ValueError("explicit form needs beta != 0; use stirling_rec")
    if n < 0 or k < 0:
        raise ValueError("need n, k >= 0")
    if k > n:
        return _ZERO
    d, a, b, g = _scaled_params(params)
    acc, sign = 0, (-1) ** k
    for s in range(k + 1):
        acc += sign * math.comb(k, s) * next(islice(_falls(b * s + g, a), n, None))
        sign = -sign
    return Fraction(acc, b ** k * math.factorial(k) * d ** (n - k))


def param_swap_rhs(params: StirlingParams, n: int, k: int) -> Fraction:
    """The binomial transform sum_{s=k}^{n} C(n,s) (gamma | alpha)_{n-s} S(s, k).

    Returned on its own so callers can compare it against candidate left
    sides; see the conformance harness for the readings that are tracked.
    With (gamma | alpha)_j = F_j / d^j, F_j = (G | A)_j from _falls, and
    S(s, k) = T(s, k) / d^(s-k), every term is an integer over d^(n-k).
    """
    if k > n:
        return _ZERO
    if k < 0:
        raise ValueError("need n, k >= 0")
    d, a, _, g = _scaled_params(params)
    acc = 0
    for s, fall in zip(range(n, k - 1, -1), _falls(g, a)):  # fall = F_(n-s)
        acc += math.comb(n, s) * fall * stirling_int_row(params, s)[1][k]
    return Fraction(acc, d ** (n - k))
