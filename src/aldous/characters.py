"""Characters: matrix traces, hook characters, wedge powers.

Hook characters use the border-strip recursion specialized to hooks,
where a removable strip is a run at the end of the arm (one row), a run
at the bottom of the leg (one row per box), or the entire remaining hook.
Each strip occupying r rows carries sign (-1)^(r-1); summing the total
sign over all removal sequences of the cycle lengths gives the character.

Wedge-power characters of the n-dimensional permutation representation
come from the basis of k-subsets: a permutation contributes over subsets
it stabilizes, with the sign of its restriction, which collapses to the
generating product over cycles of (1 + (-1)^(c-1) x^c).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate
from math import factorial

import numpy as np

from .partitions import Partition, partitions_of
from .symrep import check_dim, rep_adjacent

TRACE_ROUNDING_BOUND = 1e-6


class ClassFunction:
    """Integer-valued function on the conjugacy classes of S_n."""

    __slots__ = ("n", "values")

    def __init__(self, n: int, values: dict[Partition, int]):
        expected = set(partitions_of(n))
        if set(values) != expected:
            raise ValueError("values must cover every cycle type exactly")
        self.n = n
        self.values = dict(values)

    def __getitem__(self, cycle: Partition) -> int:
        return self.values[cycle]

    def __eq__(self, other):
        return (
            isinstance(other, ClassFunction)
            and self.n == other.n
            and self.values == other.values
        )

    def __add__(self, other: "ClassFunction") -> "ClassFunction":
        return ClassFunction(
            self.n, {c: self.values[c] + other.values[c] for c in self.values}
        )

    def inner(self, other: "ClassFunction") -> int:
        """Class-size weighted inner product; exact integer for characters."""
        total = sum(
            class_size(c) * self.values[c] * other.values[c] for c in self.values
        )
        quotient, remainder = divmod(total, factorial(self.n))
        if remainder:
            raise ValueError("inner product is not an integer")
        return quotient


def class_size(cycle: Partition) -> int:
    """Number of permutations with the given cycle type."""
    mult: dict[int, int] = {}
    for c in cycle.parts:
        mult[c] = mult.get(c, 0) + 1
    denom = 1
    for length, m in mult.items():
        denom *= length**m * factorial(m)
    return factorial(cycle.n) // denom


def character_from_rep(shape: Partition) -> ClassFunction:
    """Character by matrix trace on one representative per class: its
    cycles, of nonincreasing length, sit on consecutive integers, and the
    cycle (a, a+1, ..., b) is the product s_a s_{a+1} ... s_{b-1} of
    adjacent transpositions, whose images come from `rep_adjacent`."""
    dim = check_dim(shape)
    values = {}
    for cycle in partitions_of(shape.n):
        image = np.eye(dim)
        for start, length in zip(accumulate(cycle.parts, initial=1), cycle.parts):
            for i in range(start, start + length - 1):
                image = image @ rep_adjacent(shape, i)
        trace = float(image.trace())
        rounded = round(trace)
        if abs(trace - rounded) > TRACE_ROUNDING_BOUND:
            raise ArithmeticError(
                f"trace {trace} of {shape} on class {cycle} is not near an integer"
            )
        values[cycle] = int(rounded)
    return ClassFunction(shape.n, values)


def wedge_character(n: int, k: int) -> ClassFunction:
    """Character of the k-th wedge power of the permutation representation."""
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= {n}, got {k}")
    values = {}
    for cycle in partitions_of(n):
        # coefficient of x^k in prod over cycles of 1 + (-1)^(c-1) x^c
        coeffs = [0] * (k + 1)
        coeffs[0] = 1
        for c in cycle.parts:
            if c > k:
                continue
            sign = -1 if (c - 1) % 2 else 1
            for d in range(k, c - 1, -1):
                coeffs[d] += sign * coeffs[d - c]
        values[cycle] = coeffs[k]
    return ClassFunction(n, values)


@lru_cache(maxsize=None)
def _hook_strip_sum(arm: int, leg: int, cycles: tuple[int, ...]) -> int:
    """Signed count of strip-removal sequences from the hook [arm, 1^leg]."""
    if not cycles:
        return 1 if arm == 0 and leg == 0 else 0
    c, rest = cycles[0], cycles[1:]
    total = 0
    if c <= arm - 1:  # run at the end of the arm, corner box kept
        total += _hook_strip_sum(arm - c, leg, rest)
    if c <= leg:  # run at the bottom of the leg
        sign = -1 if (c - 1) % 2 else 1
        total += sign * _hook_strip_sum(arm, leg - c, rest)
    if c == arm + leg and c > 0:  # the whole remaining hook
        sign = -1 if leg % 2 else 1
        total += sign * _hook_strip_sum(0, 0, rest)
    return total


def mn_hook_character(n: int, k: int) -> ClassFunction:
    """Character of the hook [n-k, 1^k] by border-strip removal."""
    if not 0 <= k <= n - 1:
        raise ValueError(f"need 0 <= k <= {n - 1}, got {k}")
    values = {
        cycle: _hook_strip_sum(n - k, k, cycle.parts)
        for cycle in partitions_of(n)
    }
    return ClassFunction(n, values)


def hook_character_from_wedges(n: int, k: int) -> ClassFunction:
    """Character of the k-th wedge power of [n-1,1], via the alternating sum
    of permutation-representation wedge characters."""
    acc = wedge_character(n, k)
    for j in range(k - 1, -1, -1):
        sgn = -1 if (k - j) % 2 else 1
        term = wedge_character(n, j)
        acc = ClassFunction(
            n, {c: acc.values[c] + sgn * term.values[c] for c in acc.values}
        )
    return acc


def verify_hook_wedge_iso(n: int) -> dict:
    """Check the wedge-power and hook characters agree on every class.

    Returns {"ok": bool, "results": {(k, cycle): bool}}; disagreements are
    reported, not raised.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    results = {}
    ok = True
    for k in range(n):
        wedge_side = hook_character_from_wedges(n, k)
        hook_side = mn_hook_character(n, k)
        for cycle in partitions_of(n):
            good = wedge_side.values[cycle] == hook_side.values[cycle]
            results[(k, cycle)] = good
            ok = ok and good
    return {"ok": ok, "results": results}


def character_table_rows(n: int):
    """(shape, class order, values) triples for the CSV export, shapes and
    classes both in descending lexicographic order."""
    classes = list(partitions_of(n))
    for shape in partitions_of(n):
        chi = character_from_rep(shape)
        yield shape, classes, [chi.values[c] for c in classes]
