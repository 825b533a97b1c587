"""Brute-force counting of barred preferential arrangements.

Everything here counts by direct construction, never through the Stirling
or polynomial machinery, so agreement with those routes is meaningful.

Model: n labeled elements are placed one at a time.  A gamma-cell starts
with gamma compartments and each landing splits its compartment, leaving
alpha extra ones, so placing j elements there admits
gamma (gamma+alpha) ... (gamma+(j-1)alpha) histories.  A section holds an
ordered row of k cells, each starting with beta compartments and growing
the same way, with every cell required to catch at least one element; each
cell is weighted by the marker x.  A barred arrangement with lam bars has
one gamma-cell followed by lam sections.

Enumeration is hard-capped at n <= 8; the counts grow fast enough that
anything larger stops being a useful cross-check anyway.  lam is capped at
10 000: count_bpa folds in one section at a time, O(lam n^2) integer
products and about 20 microseconds per section at n = 8, so the cap keeps
the fold near 0.2 s; only the section counts are enumerated.

partitions_with_parts lists the partitions of n into exactly p parts as
weakly decreasing tuples.  The asymptotic weights W(n, j) are defined as
sums over those partitions; asymptotics reads them from a recurrence and
lists none, so this enumeration is the independent reference for W.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .series import SECTION_CACHE_SIZE  # a memo bound only; no arithmetic

MAX_ORACLE_N = 8
MAX_ORACLE_LAM = 10_000


def _check_divisibility(alpha: int, value: int, what: str):
    if alpha > 0 and value % alpha:
        raise ValueError(f"alpha must divide {what} when alpha > 0")


def count_gamma_cell(n: int, alpha: int, gamma: int) -> int:
    """Histories of dropping n elements into one gamma-cell.

    Element i+1 sees gamma + i*alpha compartments, so the count is the pure
    product over i.  The loop is its own, not series._falls: the oracle
    shares no arithmetic with the routes it checks.
    """
    if n < 0 or alpha < 0 or gamma < 0:
        raise ValueError("count_gamma_cell needs n, alpha, gamma >= 0")
    _check_divisibility(alpha, gamma, "gamma")
    out = 1
    for i in range(n):
        out *= gamma + i * alpha
    return out


def count_m_sections(n: int, k: int, alpha: int, beta: int) -> int:
    """Distributions of n elements over one section of exactly k cells.

    Tracks the compartment-splitting process directly: states are per-cell
    occupancy vectors, and dropping an element into cell c multiplies the
    running weight by beta + (current occupancy of c) * alpha.  Only states
    with every cell hit survive at the end.
    """
    if n < 0 or k < 0 or alpha < 0 or beta < 0:
        raise ValueError("count_m_sections needs nonnegative arguments")
    _check_divisibility(alpha, beta, "beta")
    if n > MAX_ORACLE_N:
        raise ValueError(f"enumeration capped at n <= {MAX_ORACLE_N}")
    if k == 0:
        return 1 if n == 0 else 0
    states = {(0,) * k: 1}
    for _ in range(n):
        nxt: dict[tuple[int, ...], int] = {}
        for occ, weight in states.items():
            for c in range(k):
                w = weight * (beta + occ[c] * alpha)
                if not w:
                    continue
                key = occ[:c] + (occ[c] + 1,) + occ[c + 1:]
                nxt[key] = nxt.get(key, 0) + w
        states = nxt
    return sum(w for occ, w in states.items() if all(occ))


@lru_cache(maxsize=SECTION_CACHE_SIZE)
def section_poly_value(n: int, alpha: int, beta: int, x: int) -> int:
    """Weight of one section over all cell counts: sum_k count * x^k.

    Memoised: a conformance grid asks for the same few sections in every
    count_bpa call."""
    return sum(
        count_m_sections(n, k, alpha, beta) * x ** k for k in range(n + 1)
    )


@dataclass(frozen=True)
class BPAConfig:
    n: int
    lam: int
    alpha: int
    beta: int
    gamma: int
    x: int

    def __post_init__(self):
        for name in ("n", "lam", "alpha", "beta", "gamma", "x"):
            v = getattr(self, name)
            if type(v) is not int or v < 0:
                raise ValueError(f"{name} must be an integer >= 0")
        if self.n > MAX_ORACLE_N:
            raise ValueError(f"enumeration capped at n <= {MAX_ORACLE_N}")
        if self.lam > MAX_ORACLE_LAM:
            raise ValueError(f"lam {self.lam} is past the cap of {MAX_ORACLE_LAM}")
        _check_divisibility(self.alpha, self.beta, "beta")
        _check_divisibility(self.alpha, self.gamma, "gamma")
        if (self.alpha, self.beta, self.gamma, self.x) == (0, 0, 0, 0):
            raise ValueError("alpha, beta, gamma, x cannot all be zero")


def count_bpa(cfg: BPAConfig) -> int:
    """Barred arrangements of cfg.n elements with cfg.lam bars.

    The gamma-cell and the sections take disjoint subsets of the labelled
    elements, so the counts combine by a labelled product: starting from
    the gamma-cell counts over m elements, each section is folded in as

        cur[m] <- sum_j C(m, j) cur[m - j] sec[j],

    with sec[j] the enumerated section value over j elements.
    """
    n = cfg.n
    sec = [section_poly_value(j, cfg.alpha, cfg.beta, cfg.x) for j in range(n + 1)]
    cur = [count_gamma_cell(m, cfg.alpha, cfg.gamma) for m in range(n + 1)]
    for _ in range(cfg.lam):
        cur = [sum(math.comb(m, j) * cur[m - j] * sec[j] for j in range(m + 1))
               for m in range(n + 1)]
    return cur[n]


def partitions_with_parts(n: int, p: int) -> list[tuple[int, ...]]:
    """All partitions of n into exactly p positive parts, each a weakly
    decreasing tuple, the list lexicographically decreasing."""
    if n < 0 or p < 0:
        raise ValueError("need n, p >= 0")
    if p == 0 or n < p:
        return [()] if n == p else []
    out: list[tuple[int, ...]] = []
    # the largest is n-p+1 then ones; each next one lowers the last part that
    # can drop by one and refills the parts after it as large as they may be
    parts = [n - p + 1] + [1] * (p - 1)
    while True:
        out.append(tuple(parts))
        tail = parts[-1]  # sum of parts[i+1:]
        for i in range(p - 2, -1, -1):
            cap = parts[i] - 1
            if tail + 1 <= cap * (p - 1 - i):
                break
            tail += parts[i]
        else:
            return out
        parts[i] = cap
        remaining = tail + 1
        for j in range(i + 1, p):
            parts[j] = cap = min(cap, remaining - (p - 1 - j))
            remaining -= cap
