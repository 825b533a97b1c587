import inspect
import math
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from geomstir import (
    BPAConfig,
    PolyParams,
    a_eval,
    count_bpa,
    count_gamma_cell,
    count_m_sections,
    gff,
    partitions_with_parts,
    section_poly_value,
    w_coefficient,
)
from bruteforce import (
    barred_fubini_count,
    bell_count,
    fubini_count,
    stirling2_count,
)

Q = Fraction


def _bpa(n, lam, a, b, g, x):
    return count_bpa(BPAConfig(n, lam, a, b, g, x))


def test_fubini_sequence():
    assert [_bpa(n, 1, 0, 1, 0, 1) for n in range(6)] == [1, 1, 3, 13, 75, 541]


def test_fubini_matches_enumeration():
    for n in range(6):
        assert _bpa(n, 1, 0, 1, 0, 1) == fubini_count(n)


def test_nelsen_schmidt_chain_sequence():
    assert [_bpa(n, 1, 0, 1, 2, 1) for n in range(4)] == [1, 3, 11, 51]


def test_barred_arrangements_match_gap_enumeration():
    for bars in range(3):
        for n in range(6):
            assert _bpa(n, bars + 1, 0, 1, 0, 1) == barred_fubini_count(n, bars)


def test_bell_numbers_from_sections():
    # placing n items into unordered blocks: sum the ordered-section count
    # over k and divide the ordering back out
    import math
    for n in range(7):
        total = sum(
            count_m_sections(n, k, 0, 1) // math.factorial(k)
            for k in range(n + 1)
        )
        assert total == bell_count(n)


def test_gamma_cell_values():
    assert count_gamma_cell(2, 1, 1) == 2
    assert count_gamma_cell(0, 1, 0) == 1
    assert count_gamma_cell(2, 1, 0) == 0
    # alpha = 0: each element picks one of gamma colors independently
    assert count_gamma_cell(3, 0, 2) == 8


def test_gamma_cell_closed_form():
    for n in range(5):
        for alpha in (0, 1, 2):
            for g_mult in (0, 1, 2, 3):
                g = g_mult * max(alpha, 1)
                assert count_gamma_cell(n, alpha, g) == gff(Q(g), Q(-alpha), n)


def test_m_sections_values():
    assert count_m_sections(3, 2, 0, 1) == 6
    for n in range(6):
        for k in range(n + 1):
            assert count_m_sections(n, k, 0, 1) == \
                stirling2_count(n, k) * __import__("math").factorial(k)


def test_section_poly_value_is_weighted_sum():
    for n in range(5):
        for x in (1, 2, 3):
            expected = sum(
                count_m_sections(n, k, 1, 2) * x ** k for k in range(n + 1)
            )
            assert section_poly_value(n, 1, 2, x) == expected


def test_count_matches_polynomial_smoke():
    for lam in (0, 1, 2):
        for n in range(5):
            cfg = BPAConfig(n, lam, 1, 2, 1, 2)
            p = PolyParams(lam, Q(1), Q(2), Q(1))
            assert count_bpa(cfg) == a_eval(p, n, Q(2))


def test_config_validation():
    with pytest.raises(ValueError):
        BPAConfig(9, 1, 0, 1, 0, 1)          # enumeration cap
    with pytest.raises(ValueError):
        BPAConfig(2, 1, 2, 1, 0, 1)           # beta not a multiple of alpha
    with pytest.raises(ValueError):
        BPAConfig(2, 1, 0, 0, 0, 0)           # degenerate all-zero weights
    with pytest.raises(ValueError):
        BPAConfig(-1, 1, 0, 1, 0, 1)
    BPAConfig(1, 1, 1, 1, 1, 1)
    for slot in range(6):                 # bool is an int subclass, as in grids
        args = [1] * 6
        args[slot] = True
        with pytest.raises(ValueError, match="must be an integer >= 0"):
            BPAConfig(*args)


def test_partitions_with_parts_shape():
    out = partitions_with_parts(6, 3)
    assert all(sum(p) == 6 and len(p) == 3 for p in out)
    assert all(p == tuple(sorted(p, reverse=True)) and min(p) > 0 for p in out)
    assert len(set(out)) == len(out)
    # partitions of 6 into exactly 3 parts: 4+1+1, 3+2+1, 2+2+2
    assert len(out) == 3


def test_partition_multiplicities():
    p = partitions_with_parts(5, 3)[0]
    assert sum(size * mult for size, mult in Counter(p).items()) == 5


@settings(max_examples=40)
@given(st.integers(min_value=1, max_value=10), st.integers(min_value=1, max_value=10))
def test_partition_count_recurrence(n, p):
    # p(n, exactly k parts) = p(n-1, k-1 parts) + p(n-k, k parts)
    if p > n:
        assert partitions_with_parts(n, p) == []
        return
    lhs = len(partitions_with_parts(n, p))
    first = len(partitions_with_parts(n - 1, p - 1))
    second = len(partitions_with_parts(n - p, p))
    assert lhs == first + second


def _partitions_recursive(n, p):
    """The recursive enumeration partitions_with_parts replaced, kept as the
    reference for its values and order."""
    out = []

    def rec(remaining, parts_left, cap, acc):
        if parts_left == 0:
            if remaining == 0:
                out.append(tuple(acc))
            return
        for first in range(min(cap, remaining - (parts_left - 1)), 0, -1):
            rec(remaining - first, parts_left - 1, first, acc + [first])

    rec(n, p, n, [])
    return out


def test_partitions_match_recursive_form():
    for n in range(14):
        for p in range(n + 2):
            assert partitions_with_parts(n, p) == _partitions_recursive(n, p), (n, p)


def test_partitions_run_without_recursion():
    # one frame per part would need 1000 frames; only 60 are left to spare
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 60)
    try:
        ones = partitions_with_parts(1000, 1000)
        near = partitions_with_parts(300, 290)
        w = w_coefficient([Q(1)] * 300, 300, 10)
    finally:
        sys.setrecursionlimit(limit)
    assert ones == [(1,) * 1000]
    # partitions of 300 into 290 parts match the 42 partitions of 10
    assert len(near) == 42
    assert near[0] == (11,) + (1,) * 289
    assert near[-1] == (2,) * 10 + (1,) * 280
    # with every a_i = 1, W(n, j) sums prod 1/k_i! over those partitions
    assert w == sum(Q(1, math.prod(math.factorial(k) for k in Counter(part).values()))
                    for part in near)
