"""Large-order asymptotics for the geometric family.

For psi(t) = sum a_n t^n with a_0 = 1, the coefficient of t^n in psi^lam
admits the expansion

    [t^n] psi^lam / (lam)_n  =  sum_{j=0}^{s} W(n,j) / (lam-n+j)_j + o(...)

with falling factorials (lam)_j = lam(lam-1)...(lam-j+1) and

    W(n,j) = sum over partitions of n into n-j parts of
             prod a_i^(k_i) / k_i!,

the t^n u^(n-j) coefficient of exp(u (psi - 1)).  It is read from the
recurrence of g = exp(f), m g_m = sum_k k f_k g_(m-k) (Knuth, TAOCP vol. 2,
4.7), with f = u (psi - 1) and each g_m a polynomial in u; in integers this
is the exponential Bell polynomial recurrence (Comtet, Advanced
Combinatorics, ch. 3).  W(n, 0..s) needs only the u-band p >= m - s of each
g_m, and on it only k <= s + 1, so the row costs O(n s^2) products and no
partition is enumerated.

Taking psi to be the order-1 geometric generating series (coefficients
from a_coefficients) makes the left side
A_n^(lam,x)(alpha, beta, lam*gamma) / (lam)_n / n!.  hsu_expansion(a, n,
s, lam) returns the s-term prediction of that A-scale value as one
Fraction, and error_decay_report sets it beside the exact value for each
lam.  At full depth (s = n) the expansion is a finite exact identity for
integer lam >= n; for s < n the truncation error decays like lam^-(s+1).

Everything is exact rational arithmetic; callers format floats for display.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .geom import PolyParams, _a_ratio, _stirling_a, a_values
from .series import _q, falling
from .stirling import _scaled_params, _unit_ratio, _value_sweep, _weigh

# Caps of error_decay_report, checked before any work.  Each lam weighs a
# top row with integers that grow like lam^n, of about n * bit_length(lam)
# bits, and with gamma != 0 sweeps a triangle of its own; past 16 800
# (42-bit lambdas at n = 400) or past 20 lambdas a report would outlast the
# slowest table under the CLI's index cap.
MAX_LAMBDA_BITS = 16_800  # n * bit_length(lam), for each lam
MAX_LAMBDAS = 20          # lams per report


def w_coefficient(a: Sequence[Fraction], n: int, j: int) -> Fraction:
    """W(n, j) from the coefficient list a = [a_1, ..., a_n].

    j = n is the empty partition set for n >= 1 (value 0); W(0, 0) = 1.
    A j outside 0..n raises IndexError, from w_row.
    """
    return w_row(a, n, j)[j]


def w_row(a: Sequence[Fraction], n: int, s: int) -> list[Fraction]:
    """W(n, 0..s) from a = [a_1, ..., a_n], by one banded exp recurrence.

    Over integers: with D the lcm of the denominators of the a_k read,
    x_k = k! a_k D and G_m(p) = m! D^p [t^m u^p] exp(u sum_k a_k t^k),

        G_0(0) = 1,   G_m(p) = sum_k C(m-1, k-1) x_k G_(m-k)(p-1),

    and W(n, j) = G_n(n-j) / (n! D^(n-j)).  G_(m-k)(p-1) vanishes unless
    k <= m-p+1, and the row needs p >= m-s only, so k <= s+1.
    """
    if not 0 <= s <= n:
        raise IndexError(f"need 0 <= s <= n, got s={s}, n={n}")
    if len(a) < n:
        raise IndexError(f"need at least {n} coefficients, got {len(a)}")
    top = min(n, s + 1)  # x_k for k > s+1 is never read
    qs = [_q(v) for v in a[:top]]
    D = math.lcm(*(q.denominator for q in qs))
    xs = [0]
    fact = 1
    for k, q in enumerate(qs, 1):
        fact *= k
        xs.append(fact * q.numerator * (D // q.denominator))
    # band[m][i] = G_m(lo(m) + i) for p from lo(m) = max(0, m - s) to m
    band = [[1]]
    for m in range(1, n + 1):
        lo = max(0, m - s)
        coef = [0] + [math.comb(m - 1, k - 1) * xs[k]
                      for k in range(1, min(m, s + 1) + 1)]
        row = [0] if lo == 0 else []  # no u^0 term once m >= 1
        for p in range(max(lo, 1), m + 1):
            acc = 0
            for k in range(1, m - p + 2):
                acc += coef[k] * band[m - k][p - 1 - max(0, m - k - s)]
            row.append(acc)
        band.append(row)
    last, lo = band[n], max(0, n - s)
    den = math.factorial(n)
    return [Fraction(last[n - j - lo], den * D ** (n - j)) for j in range(s + 1)]


def a_coefficients(alpha, beta, gamma, x, n: int) -> list[Fraction]:
    """a_1 .. a_n of the order-1 generating series, a_j = A_j(x) / j!,
    read from one a_values sweep."""
    base = PolyParams(1, _q(alpha), _q(beta), _q(gamma))
    out, fact = [], 1
    for j, v in enumerate(a_values(base, x, n)[1:], 1):
        fact *= j
        out.append(v / fact)
    return out


def hsu_expansion(a: Sequence[Fraction], n: int, s: int, lam) -> Fraction:
    """The s-term prediction of [t^n] psi^lam * n!, with a = [a_1, ..., a_n]
    the coefficients of psi (a_0 = 1 is implicit): on the A scale,

        (lam)_n n! sum_{j=0}^{s} W(n,j) / (lam-n+j)_j.

    Raises ValueError for s outside 0..n or a vanishing (lam-n+j)_j.
    """
    if not 0 <= s <= n:
        raise ValueError(f"need 0 <= s <= n, got s={s}, n={n}")
    return _expand(w_row(a, n, s), n, _q(lam))


def _expand(ws: Sequence[Fraction], n: int, lam: Fraction) -> Fraction:
    """The prediction at one lam from precomputed W(n, 0..s)."""
    total = Fraction(0)
    for j, w in enumerate(ws):
        denom = falling(lam - n + j, j)
        if denom == 0:
            raise ValueError(f"vanishing denominator (lam-n+j)_j at j={j}")
        total += w / denom
    return falling(lam, n) * math.factorial(n) * total


@dataclass(frozen=True)
class DecayRow:
    lam: int
    exact: Fraction
    predicted: Fraction

    @property
    def rel_error(self) -> Fraction:
        if self.exact == 0:
            return abs(self.predicted)
        return abs(self.exact - self.predicted) / abs(self.exact)


@dataclass(frozen=True)
class DecayReport:
    rows: tuple[DecayRow, ...]

    def ratios(self) -> list[Fraction | None]:
        """Consecutive rel-error ratios; None where undefined."""
        out: list[Fraction | None] = [None]
        for prev, cur in zip(self.rows, self.rows[1:]):
            pe, ce = prev.rel_error, cur.rel_error
            out.append(ce / pe if pe != 0 else None)
        return out


def error_decay_report(alpha, beta, gamma, x, n: int, s: int,
                       lambdas: Sequence[int]) -> DecayReport:
    """Exact vs predicted A_n^(lam,x)(alpha, beta, lam*gamma) per lam.

    lam values must be integers (the exact route needs an integer order)
    and must exceed n - 1 so the expansion denominators are nonzero.
    Every input is checked, against MAX_LAMBDAS and MAX_LAMBDA_BITS too,
    before any value is computed.
    """
    return error_decay_reports(alpha, beta, gamma, x, n, (s,), lambdas)[s]


def error_decay_reports(alpha, beta, gamma, x, n: int, depths: Sequence[int],
                        lambdas: Sequence[int]) -> dict[int, DecayReport]:
    """error_decay_report at each depth s of depths, keyed by s.

    The depth-free work is done once: the exact column, and the W row at
    the deepest s, whose prefix W(n, 0..s) serves every shallower depth.
    Every input is checked before any value is computed.
    """
    if not depths:
        raise ValueError("need at least one depth")
    for s in depths:
        if not 0 <= s <= n:
            raise ValueError(f"need 0 <= s <= n, got s={s}, n={n}")
    if not lambdas:
        raise ValueError("need at least one lambda")
    if len(lambdas) > MAX_LAMBDAS:
        raise ValueError(f"{len(lambdas)} lambdas is past the cap of {MAX_LAMBDAS}")
    for lam in lambdas:
        if not isinstance(lam, int) or lam <= n - 1:
            raise ValueError(f"lam={lam} must be an integer > n-1 = {n - 1}")
        if n * lam.bit_length() > MAX_LAMBDA_BITS:
            raise ValueError(f"n * bit_length(lambda) = {n * lam.bit_length()}"
                             f" is past the cap of {MAX_LAMBDA_BITS}")
    al, b, g, x = _q(alpha), _q(beta), _q(gamma), _q(x)
    ws = w_row(a_coefficients(al, b, g, x, n), n, max(depths))
    exact = _exact_column(al, b, g, x, n, lambdas)
    return {s: DecayReport(tuple(DecayRow(lam, exact[lam],
                                          _expand(ws[:s + 1], n, Fraction(lam)))
                                 for lam in lambdas))
            for s in depths}


def _exact_column(alpha: Fraction, beta: Fraction, gamma: Fraction, x: Fraction,
                  n: int, lambdas: Sequence[int]) -> dict[int, Fraction]:
    """A_n^(lam,x)(alpha, beta, lam*gamma) for each lam.

    a_explicit's sum, with the weights taken out of the sweep: one unit-ratio
    sweep at x per distinct triangle (alpha, -beta, -lam*gamma) gives its top
    row T(n, k) u^k v^(n-k), which each lam of the triangle weighs with
    _a_ratio(lam).  With gamma == 0 every lam shares one sweep.  Nothing is
    kept past the report.
    """
    triangles: dict = {}
    for lam in lambdas:
        triangles.setdefault(_stirling_a(PolyParams(lam, alpha, beta, lam * gamma)),
                             []).append(lam)
    out = {}
    for sp, lams in triangles.items():
        for top, den in _value_sweep(sp, x, n, _unit_ratio):
            pass  # only row n is read
        d, _, bd, _ = _scaled_params(sp)
        for lam in lams:
            v = sum(_weigh(top, d, bd, _a_ratio(lam)))
            out[lam] = Fraction(-v if n % 2 else v, den)
    return out


def format_sig(value: Fraction | float, digits: int = 12) -> str:
    """Fixed significant-digit rendering used by reports."""
    return f"{float(value):.{digits}g}"
