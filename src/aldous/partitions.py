"""Integer partitions, Young diagrams and standard tableaux.

A partition is stored top row first, e.g. Partition((5, 1)). Boxes use
(col, row) coordinates, both 1-based, with content = col - row. The
standard tableaux of a shape are its label tables (`_label_tables`): one
row per tableau, in the canonical basis order, giving the row and the
content of the box of each label.

Everything computed over the subdiagrams of a shape goes through one
iterative walk, `_walk`: it fills a table from the smallest diagrams up,
one step per diagram, each from the values of the diagrams one corner
removal (`_removals`) below it. Its steps are the label tables here, the
heaviest chains and chain-sum counts of `spectral`, and, walking pairs of
diagrams one round at a time, the corner game of `game`. It keeps no
Python stack, so a shape's length is limited by memory, not by the
recursion limit.

Dominance is decided by the prefix-sum criterion: p dominates q iff
sum(p[:m]) >= sum(q[:m]) for every m. This is the standard equivalent of
reachability by single box drops to lower rows (each drop moves one box
from an earlier prefix to a later one, weakly decreasing every prefix sum;
conversely any prefix-sum gap can be closed one drop at a time).
"""

from __future__ import annotations

import re
from functools import lru_cache
from itertools import groupby
from math import factorial
from typing import Iterator, NamedTuple, Sequence

import numpy as np


class Box(NamedTuple):
    """A cell of a Young diagram; col is the x coordinate, row the y."""

    col: int
    row: int

    @property
    def content(self) -> int:
        return self.col - self.row


class Partition:
    """Nonincreasing positive integers; the label of an irreducible of S_n."""

    __slots__ = ("parts", "_hash")

    def __init__(self, parts: Sequence[int]):
        parts = tuple(int(p) for p in parts)
        if any(p <= 0 for p in parts):
            raise ValueError(f"partition parts must be positive: {parts}")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError(f"partition parts must be nonincreasing: {parts}")
        self.parts = parts
        # partitions key the ledger and every per-shape cache
        self._hash = hash(parts)

    @property
    def n(self) -> int:
        return sum(self.parts)

    def __len__(self):
        return len(self.parts)

    def __getitem__(self, i):
        return self.parts[i]

    def __iter__(self):
        return iter(self.parts)

    def __eq__(self, other):
        return isinstance(other, Partition) and self.parts == other.parts

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Partition({list(self.parts)})"

    def __str__(self):
        return ",".join(str(p) for p in self.parts)

    def compact_str(self) -> str:
        """Exponent notation for repeated parts, e.g. '2,1^3'."""
        runs = [(part, len(list(run))) for part, run in groupby(self.parts)]
        return ",".join(f"{part}^{size}" if size > 1 else str(part) for part, size in runs)


_TOKEN = re.compile(r"^(\d+)(?:\^(\d+))?$")


def parse_partition(text: str) -> Partition:
    """Parse '5,1' or exponent notation '2,1^3' into a Partition."""
    if not isinstance(text, str) or not text.strip():
        raise ValueError("empty partition text")
    parts: list[int] = []
    for token in text.split(","):
        m = _TOKEN.match(token.strip())
        if m is None:
            raise ValueError(f"malformed partition token {token!r} in {text!r}")
        part = int(m.group(1))
        exp = int(m.group(2)) if m.group(2) else 1
        if exp < 1:
            raise ValueError(f"exponent must be >= 1 in {token!r}")
        parts.extend([part] * exp)
    return Partition(parts)


def conjugate(p: Partition) -> Partition:
    """Transpose of the diagram: parts'[i] = #{j : parts[j] >= i+1}."""
    if not p.parts:
        return p
    return Partition([sum(1 for q in p.parts if q >= i) for i in range(1, p.parts[0] + 1)])


def dominates(p: Partition, q: Partition) -> bool:
    """True iff p is at or above q in the dominance order (prefix sums)."""
    if p.n != q.n:
        raise ValueError(f"partitions of different sizes: {p} vs {q}")
    sp = sq = 0
    for m in range(max(len(p), len(q))):
        sp += p.parts[m] if m < len(p) else 0
        sq += q.parts[m] if m < len(q) else 0
        if sp < sq:
            return False
    return True


def dominance_table(n: int) -> np.ndarray:
    """p(n) x p(n) bool array over partitions_of(n): [i, j] is
    dominates(parts[i], parts[j]). One broadcast comparison of the rows of
    prefix sums, each zero-padded to length n (where every sum reaches n)."""
    parts = partitions_of(n)
    sums = np.zeros((len(parts), max(n, 1)), dtype=np.int64)
    for row, p in zip(sums, parts):
        row[:len(p)] = p.parts
    np.cumsum(sums, axis=1, out=sums)
    return (sums[:, None, :] >= sums[None, :, :]).all(axis=2)


def corners(p: Partition) -> list[Box]:
    """Boxes whose removal leaves a valid diagram, top row first."""
    return [box for _, box in reversed(_removals(p.parts))]


@lru_cache(maxsize=None)
def _removals(parts: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], Box], ...]:
    """(diagram without the box, box) per corner of `parts`, bottom row first:
    the `below` of the Young-lattice walk `_walk`, and the corner walk of
    `corners` and `remove_box`. Each run of equal rows ends in a corner; the
    runs' last rows come from one dict, not a Python pass over the rows, as
    a walk down a long shape lists the corners of every subdiagram."""
    out = []
    for part, row in dict(zip(parts, range(1, len(parts) + 1))).items():
        rest = parts[:row - 1] + (part - 1,) + parts[row:] if part > 1 else parts[:row - 1]
        out.append((rest, Box(part, row)))
    return tuple(reversed(out))


def remove_box(p: Partition, box: Box) -> Partition:
    """Diagram with one corner removed, from the corner walk `_removals`."""
    for rest, corner in _removals(p.parts):
        if corner == box:
            return Partition(rest)
    raise ValueError(f"{box} is not a corner of {p}")


@lru_cache(maxsize=None)
def num_standard_tableaux(p: Partition) -> int:
    """Tableau count by the hook length formula (independent of enumeration)."""
    conj = conjugate(p)
    prod = 1
    for i, part in enumerate(p.parts):
        for j in range(part):
            prod *= (part - j) + (conj.parts[j] - (i + 1))
    return factorial(p.n) // prod


def content_sum(p: Partition) -> int:
    """Sum of col - row over all boxes: maxc(p, n), the quantity subtracted
    from wt(K_n) in the complete-graph scalar."""
    return sum(reading_contents(p))


def reading_contents(p: Partition) -> list[int]:
    """The contents of p's boxes in row-reading order (top row first, each
    row left to right): c_k is the content of label k in the row-reading
    tableau."""
    return [col - row for row, part in enumerate(p.parts) for col in range(part)]


def maxc(p: Partition, k: int) -> int:
    """The largest content sum of a subdiagram of p with k boxes, 0 <= k <= n.

    It is that of top(p, k), which fills p's rows greedily from the top,
    mu_i = min(p_i, k - mu_1 - ... - mu_{i-1}): the first k boxes in
    row-reading order. Its partial sums are as large as any k-box
    subdiagram allows, so it dominates each of them, and content strictly
    increases along dominance.
    """
    if not 0 <= k <= p.n:
        raise ValueError(f"need 0 <= k <= {p.n}, got k={k}")
    return sum(reading_contents(p)[:k])


def minc(p: Partition, k: int) -> int:
    """The smallest content sum of a subdiagram of p with k boxes: transposing
    negates every content, so it is -maxc(p', k)."""
    return -maxc(conjugate(p), k)


def in_row_class(p: Partition, k: int) -> bool:
    """Membership in the family with first row >= n - k."""
    if not 0 <= k < p.n:
        raise ValueError(f"k must satisfy 0 <= k < n, got k={k}, n={p.n}")
    return p.parts[0] >= p.n - k


@lru_cache(maxsize=None)
def partitions_of(n: int) -> tuple[Partition, ...]:
    """All partitions of n in descending lexicographic order ([n] first,
    [1^n] last). Callers rely on the order: parts[i] is lexicographically
    below parts[j] exactly when i > j."""
    if n < 0:
        raise ValueError("n must be nonnegative")

    def gen(remaining: int, cap: int) -> Iterator[tuple[int, ...]]:
        if remaining == 0:
            yield ()
            return
        for first in range(min(cap, remaining), 0, -1):
            for rest in gen(remaining - first, first):
                yield (first,) + rest

    return tuple(Partition(parts) for parts in gen(n, n)) if n else (Partition(()),)


TABLEAU_CAP = 10**7


def capped_tableau_count(p: Partition) -> int:
    """num_standard_tableaux(p); shapes above TABLEAU_CAP are refused."""
    count = num_standard_tableaux(p)
    if count > TABLEAU_CAP:
        raise ValueError(f"shape {p} has {count} tableaux, above cap {TABLEAU_CAP}")
    return count


@lru_cache(maxsize=None)
def content_matrix(p: Partition) -> np.ndarray:
    """f x n integer array; row t, column k-1 is the content of box k in
    tableau t (canonical order); the reference for the spectral walks."""
    capped_tableau_count(p)
    return _label_tables(p.parts)[1].astype(np.int64)


def _walk(top, table, step, below=_removals):
    """table[top] after filling table[x] = step(x, [(table[y], label) for y,
    label in below(x)]) for top and every node under it that table lacks,
    lower nodes first: the one walk of the Young lattice, with no recursion.
    Every y of below(x) is one level under x (a box fewer, or a game round
    on), so the nodes found level by level, each expanded once, are filled in
    the reverse of the order they were found."""
    if top not in table:
        found, order = {top: below(top)}, [top]
        for node in order:  # grows while it is read: one level after another
            for lower, _ in found[node]:
                if lower not in table and lower not in found:
                    found[lower] = below(lower)
                    order.append(lower)
        for node in reversed(order):
            table[node] = step(node, [(table[lower], label) for lower, label in found[node]])
    return table[top]


def _stacked_tables(parts: tuple[int, ...], below) -> tuple[np.ndarray, np.ndarray]:
    """The label tables of `parts` from those of its corner removals `below`:
    one block of rows per corner holding label n, in their order. The empty
    diagram has no corner and one empty tableau."""
    count = sum(len(sub[0]) for sub, _ in below) or 1
    rows, contents = np.empty((2, count, sum(parts)), dtype=np.int16)
    start = 0
    for (sub_rows, sub_contents), box in below:
        block = slice(start, start + len(sub_rows))
        rows[block, :-1], rows[block, -1] = sub_rows, box.row
        contents[block, :-1], contents[block, -1] = sub_contents, box.content
        start = block.stop
    for table in (rows, contents):
        table.setflags(write=False)
    return rows, contents


_TABLES: dict = {}  # the label tables of every diagram walked so far


def _label_tables(parts: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """(rows, contents) of the standard tableaux of `parts`, two read-only
    f x n int16 arrays: row t, column k-1 holds the row, and the content, of
    the box of label k in tableau t (canonical order). Built by the walk
    `_walk` over `_removals`, one block of rows per corner holding label n,
    bottom row first, so the canonical order sorts `symrep._row_keys`
    descending (the first tableau of [2,1] is 12/3); every smaller diagram
    met on the way is kept in the module's table too."""
    return _walk(parts, _TABLES, _stacked_tables)
