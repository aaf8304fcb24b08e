from math import factorial

import pytest

from aldous.characters import (
    ClassFunction,
    character_from_rep,
    class_size,
    hook_character_from_wedges,
    mn_hook_character,
    verify_hook_wedge_iso,
    wedge_character,
)
from aldous.partitions import Partition, partitions_of


def comb(n, k):
    if k < 0 or k > n:
        return 0
    return factorial(n) // (factorial(k) * factorial(n - k))


def test_class_sizes_sum_to_group_order():
    for n in range(1, 10):
        assert sum(class_size(c) for c in partitions_of(n)) == factorial(n)


def test_character_from_rep_examples():
    chi = character_from_rep(Partition([2, 1]))
    assert chi[Partition([1, 1, 1])] == 2
    assert chi[Partition([2, 1])] == 0
    assert chi[Partition([3])] == -1
    for n in range(2, 6):
        trivial = character_from_rep(Partition([n]))
        assert all(v == 1 for v in trivial.values.values())
        sign = character_from_rep(Partition([1] * n))
        for cycle in partitions_of(n):
            parity = (-1) ** (n - len(cycle.parts))
            assert sign[cycle] == parity


def test_standard_character_counts_fixed_points():
    # chi_[n-1,1](g) = #fixed points - 1
    for n in range(2, 7):
        chi = character_from_rep(Partition([n - 1, 1]))
        for cycle in partitions_of(n):
            fixed = sum(1 for c in cycle.parts if c == 1)
            assert chi[cycle] == fixed - 1


def test_wedge_character_examples():
    for n in range(2, 8):
        for k in range(n + 1):
            w = wedge_character(n, k)
            assert w[Partition([1] * n)] == comb(n, k)
            if 0 < k < n:
                assert w[Partition([n])] == 0
    assert wedge_character(3, 1)[Partition([2, 1])] == 1


def test_mn_hook_examples():
    for n in range(2, 9):
        trivial = mn_hook_character(n, 0)
        assert all(v == 1 for v in trivial.values.values())
        for k in range(n):
            assert mn_hook_character(n, k)[Partition([n])] == (-1) ** k
    with pytest.raises(ValueError):
        mn_hook_character(4, 4)


def test_mn_hook_matches_trace_oracle():
    for n in range(2, 8):
        for k in range(n):
            hook = Partition([n - k] + [1] * k)
            assert mn_hook_character(n, k) == character_from_rep(hook)


def test_wedge_recursion_identity():
    for n in range(2, 10):
        for k in range(1, n):
            lhs = mn_hook_character(n, k) + mn_hook_character(n, k - 1)
            assert lhs == wedge_character(n, k)


def test_hook_wedge_isomorphism():
    for n in range(2, 9):
        report = verify_hook_wedge_iso(n)
        assert report["ok"], [key for key, ok in report["results"].items() if not ok]
    # k=1 is the standard representation itself
    for n in range(2, 7):
        chi = hook_character_from_wedges(n, 1)
        assert chi == character_from_rep(Partition([n - 1, 1]))


def test_character_orthonormality():
    for n in range(2, 8):
        chars = [character_from_rep(p) for p in partitions_of(n)]
        for i in range(len(chars)):
            for j in range(i, len(chars)):
                assert chars[i].inner(chars[j]) == (1 if i == j else 0)


def test_class_function_requires_full_domain():
    with pytest.raises(ValueError):
        ClassFunction(3, {Partition([3]): 1})
