"""Orthogonal matrices for the irreducible representations of S_n.

Matrices are built in Young's orthogonal form over the canonical tableau
basis from `partitions`. That basis diagonalizes every nested star
operator simultaneously, so the swap operator of a star graph comes out
diagonal, and all images stay orthogonal, making the swap operator of any
graph a symmetric PSD matrix.

The sign twist pairs each shape with its conjugate, and in this basis it
is a signed tableau permutation: with Q taking each tableau T of the
conjugate to its transpose, signed by the parity of T's row word,
Q rho_conj(s_i) Q^t = -rho_shape(s_i) exactly. So swap operators are built
once per conjugate pair: the canonical member, the one earlier in
partitions_of(n), runs the image chains, and its mate's operator is
Q (2 wt I - Delta) Q^t (`conjugate_operators`). Self-conjugate shapes run
their own chains.

The module also carries the regular representation, a decomposition
oracle at small n.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import accumulate, permutations
from operator import mul
from typing import Optional, Sequence

import numpy as np

from .graphs import WeightedGraph
from .partitions import Partition, _label_tables, conjugate, num_standard_tableaux

DEFAULT_DIM_CAP = 5000
# floats in one stack of operators (G graphs of dimension d on n vertices
# take G max(d, n)^2, see graphs_per_stack): 64 or more graphs at d, n <= 16,
# one at a time from d = 128 on. Assembly holds two stacks and three d^2
# chain buffers (at most 640 KB), within a core's L2 cache. At 1 << 16 an
# earlier assembly holding four stacks ran dims 42..168 1.5-2x slower
# stacked than one graph at a time (on a Xeon with 2 MB of L2 per core)
STACK_FLOATS = 1 << 14


class DimensionCapExceeded(ValueError):
    """Representation dimension above the configured cap."""


@lru_cache(maxsize=None)
def tableau_basis(shape: Partition) -> tuple[np.ndarray, np.ndarray]:
    """The basis every image is written in: the shape's label tables (rows,
    contents), one row per tableau in canonical order (`_label_tables`)."""
    return _label_tables(shape.parts)


def check_dim(shape: Partition, cap: int = DEFAULT_DIM_CAP) -> int:
    dim = num_standard_tableaux(shape)
    if dim > cap:
        raise DimensionCapExceeded(f"dim {dim} of {shape} exceeds cap {cap}")
    return dim


def graphs_per_stack(shape: Partition, floats: int, dim_cap: int) -> int:
    """How many graphs one stack of the shape's operators takes: as many as
    keep both their operators (dim^2 floats each) and their weights (n^2
    each) within `floats`, and at least one. Raises DimensionCapExceeded
    above dim_cap."""
    return max(1, floats // max(check_dim(shape, dim_cap), shape.n) ** 2)


def _adjacent_factors(shape: Partition, i: int):
    """Young's orthogonal form of (i, i+1) as three per-row arrays.

    Row T of the image has at most two nonzeros: diag[T] on the diagonal
    and off[T] in column partner[T]. Labels i, i+1 in the same row of T
    give diag 1, in the same column diag -1 (both with off 0 and partner
    T); otherwise T pairs with T' (i and i+1 swapped) through the block
    [[1/d, sqrt(1-1/d^2)], [., -1/d]] with d = content(box of i+1) -
    content(box of i) read in T. The image is symmetric: off[T] equals
    off[partner[T]]. Read-only rows of the shape's `_shape_factors`.
    """
    n = shape.n
    if not 1 <= i <= n - 1:
        raise ValueError(f"adjacent index must satisfy 1 <= i <= {n - 1}, got {i}")
    return tuple(factor[i - 1] for factor in _shape_factors(shape))


@lru_cache(maxsize=None)
def _shape_factors(shape: Partition) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(diag, off, partner) of `_adjacent_factors` for every i at once: three
    (n - 1) x f arrays, row i - 1 for (i, i+1), read from the shape's label
    tables with no loop over tableaux.

    One formula serves every T: labels i, i+1 in one row or one column are
    adjacent there, so d = 1 or -1, and 1/d and sqrt(1 - 1/d^2) are the
    diag and off above. A tableau is fixed by the rows its labels sit in,
    and `_row_keys` turns its row word into one integer whose descending
    order is the canonical order. So T' is found by one sorted lookup of
    T's key with the rows of i and i+1 swapped, and T itself where |d| = 1.
    """
    rows, contents = _label_tables(shape.parts)
    count = len(rows)
    keys, weights = _row_keys(rows, len(shape))
    rows, contents = rows.T, contents.T  # one row per label
    d = (contents[1:] - contents[:-1]).astype(np.int64)
    diag = 1.0 / d
    off = np.sqrt(1.0 - 1.0 / d**2)
    # swapping the rows of labels i and i+1 moves a key by this much
    shift = np.where(abs(d) > 1, rows[1:] - rows[:-1], 0).astype(weights.dtype)
    swapped = keys + shift * (weights[:-1] - weights[1:])[:, None]
    partner = count - 1 - np.searchsorted(keys[::-1], swapped)
    for arr in (diag, off, partner):
        arr.setflags(write=False)
    return diag, off, partner


def _row_keys(rows: np.ndarray, height: int) -> tuple[np.ndarray, np.ndarray]:
    """(keys, weights) of the row words in a table like `_label_tables`'
    rows, on a diagram of `height` rows: each word keyed as one mixed-radix
    integer, the digit of label k in base min(k, height) (label k sits in
    one of its first k rows) and label n the most significant, so the
    canonical order sorts the keys descending; weights[k - 1] is the place
    value of label k. Keys are int64 while the radix product fits, Python
    ints (an object array) past that."""
    n = rows.shape[1]
    *weights, top = accumulate((min(k, height) for k in range(1, n + 1)), mul, initial=1)
    weights = np.array(weights, dtype=np.int64 if top < 2**63 else object)
    return (rows - 1).astype(weights.dtype) @ weights, weights


@lru_cache(maxsize=None)
def _derived_from(shape: Partition) -> Optional[Partition]:
    """The canonical member of the shape's conjugate pair when the shape is
    the other one, else None. The canonical member comes first in
    partitions_of(n), that is, it is lexicographically higher; its
    operators are assembled, and its mate's derived from them."""
    mate = conjugate(shape)
    return mate if mate.parts > shape.parts else None


@lru_cache(maxsize=None)
def _transpose_map(shape: Partition) -> tuple[np.ndarray, np.ndarray]:
    """The signed permutation Q from the conjugate shape's tableau basis to
    the shape's, as (source, sign): Q e_T = s_T e_{T^t}, where the
    transpose T^t of the conjugate's tableau T is the shape's tableau
    number p when source[p] is T's index, and sign[p] = s_T = (-1)^(number
    of label pairs a < b with a in a row of T below b's).

    Swapping labels i and i+1 that share no row or column negates the
    content difference d of Young's orthogonal form and flips s_T, and a
    swap within a row of T is one within a column of T^t. So
    Q rho_conj(s_i) Q^t = -rho_shape(s_i) entry for entry, with no
    rounding, for every i.
    Built from the conjugate's label tables with no loop over tableaux:
    the rows of T^t are the columns of T (content plus row), and their
    `_row_keys` sorted descending give the shape's canonical order."""
    rows, contents = _label_tables(conjugate(shape).parts)
    keys, _ = _row_keys(contents + rows, len(shape))
    source = np.argsort(-keys)
    inversions = np.zeros(len(rows), dtype=np.int64)
    for k in range(shape.n - 1):
        inversions += (rows[:, k, None] > rows[:, k + 1:]).sum(axis=1)
    sign = 1.0 - 2.0 * (inversions[source] % 2)
    for arr in (source, sign):
        arr.setflags(write=False)
    return source, sign


@lru_cache(maxsize=None)
def rep_adjacent(shape: Partition, i: int) -> np.ndarray:
    """Image of the adjacent transposition (i, i+1) in Young's orthogonal
    form, as a dense matrix (see _adjacent_factors)."""
    dim = check_dim(shape)
    diag, off, partner = _adjacent_factors(shape, i)
    m = np.diag(diag)
    m[np.arange(dim), partner] += off
    m.setflags(write=False)
    return m


@lru_cache(maxsize=None)
def rep_transposition(shape: Partition, i: int, j: int) -> np.ndarray:
    """Image of (i, j), i < j, via the palindromic adjacent chain."""
    if i >= j:
        raise ValueError("need i < j")
    if j == i + 1:
        return rep_adjacent(shape, i)
    s = rep_adjacent(shape, i)
    inner = rep_transposition(shape, i + 1, j)
    m = s @ inner @ s
    m.setflags(write=False)
    return m


def _conjugate(x: np.ndarray, factors, out: np.ndarray,
               gathered: np.ndarray) -> None:
    """out = S x S for one d x d matrix x, with S the adjacent image given by
    its factors, via one row and one column gather:
    (S x)[T] = diag[T] x[T] + off[T] x[partner[T]]. gathered is scratch."""
    diag, off, partner = factors
    np.multiply(x, diag[:, None], out=out)
    x.take(partner, axis=0, out=gathered, mode="clip")
    gathered *= off[:, None]
    out += gathered
    out.take(partner, axis=1, out=gathered, mode="clip")
    gathered *= off
    out *= diag
    out += gathered


def _assemble(shape: Partition, graphs: Sequence[WeightedGraph],
              dim_cap: int) -> np.ndarray:
    """The (G, d, d) stack of swap operators of G graphs on one irreducible,
    by the image chains (see delta_matrix). Each transposition image is
    formed once for the whole stack and each graph subtracts its weight
    times it, elementwise and in a fixed order, so a graph's floats do not
    depend on the stack it is in. An image whose weight is zero on every
    graph is not subtracted, and a chain stops at its last such nonzero
    weight: on part of the stack it subtracts zeros, which leaves m (never
    -0.0) unchanged."""
    sizes = {graph.n for graph in graphs}
    if len(sizes) != 1:
        raise ValueError("need one or more graphs, all on the same vertices")
    if shape.n not in sizes:
        raise ValueError(f"graph on {sizes.pop()} vertices vs shape of {shape.n}")
    dim = check_dim(shape, dim_cap)
    n, count = shape.n, len(graphs)
    weights = graphs[0].weights[None] if count == 1 else np.stack(
        [graph.weights for graph in graphs])
    used = (np.maximum.reduce(weights) > 0).tolist()  # weights are >= 0
    # (diag, off, partner) of S_j at index j - 1
    steps = list(zip(*_shape_factors(shape)))
    m = np.zeros((count, dim, dim))
    term = np.empty_like(m)
    image, spare, gathered = np.empty((3, dim, dim))
    rows = np.arange(dim)
    for i in range(1, n):
        ends = [j for j in range(i, n) if used[i - 1][j]]
        if not ends:
            continue
        # image = (i, i+1), then (i, j+1) = S_j (i, j) S_j
        diag, off, partner = steps[i - 1]
        image.fill(0.0)
        image[rows, rows] = diag
        image[rows, partner] += off
        for j in range(i, ends[-1] + 1):
            if j > i:
                _conjugate(image, steps[j - 1], spare, gathered)
                image, spare = spare, image
            if used[i - 1][j]:
                np.multiply(weights[:, i - 1, j, None, None], image, out=term)
                m -= term
    # the identity part goes in last: starting from wt * I rounds the
    # integer diagonals of unit-weight star graphs away from their values
    m.reshape(count, dim * dim)[:, ::dim + 1] += [[graph.wt] for graph in graphs]
    return m


def conjugate_operators(shape: Partition, stack: np.ndarray,
                        graphs: Sequence[WeightedGraph]) -> np.ndarray:
    """The (G, d, d) stack of the shape's swap operators on G graphs, from
    `stack`, the operators of the conjugate shape on the same graphs:
    Delta_shape(A) = Q (2 wt I - Delta_conj(A)) Q^t, with Q the signed
    tableau permutation of `_transpose_map`. (The sign twist: each
    transposition's image on the shape is -Q (its image on the conjugate)
    Q^t.) One flat gather, one sign product and one diagonal add per stack,
    elementwise per graph, so a graph's floats do not depend on the stack
    it is in; no -0.0 is written. delta_matrix and delta_matrices make the
    operators of every non-canonical shape this way."""
    source, sign = _transpose_map(shape)
    count, dim = len(graphs), len(source)
    if stack.shape != (count, dim, dim):
        raise ValueError(f"need a ({count}, {dim}, {dim}) stack for {shape}, "
                         f"got {stack.shape}")
    flat = (source[:, None] * dim + source).ravel()
    out = stack.reshape(count, dim * dim).take(flat, axis=1)
    out *= np.multiply.outer(-sign, sign).ravel()
    out += 0.0  # 0.0 times -1 is -0.0; adding 0.0 makes it 0.0
    out[:, ::dim + 1] += [[2 * graph.wt] for graph in graphs]
    return out.reshape(count, dim, dim)


def delta_matrix(shape: Partition, graph: WeightedGraph,
                 dim_cap: int = DEFAULT_DIM_CAP) -> np.ndarray:
    """Matrix of the swap operator sum a_ij (id - (ij)) on the irreducible
    labeled by shape. Symmetric positive semidefinite.

    For each vertex i the images of (i, j) come from one chain: start from
    the adjacent image S_i and step (i, j+1) = S_j (i, j) S_j. Each step
    costs O(dim^2) through the two-nonzeros-per-row factors of S_j, so
    assembly takes O(n^2 dim^2) time and O(dim^2) memory, with no cached
    transposition images. The operator is wt I minus the weighted images,
    subtracted one at a time in chain order.

    Only one member of each conjugate pair runs the chain: the canonical
    one, which comes first in partitions_of(n), and every self-conjugate
    shape. The other member's operator is derived from its mate's by
    `conjugate_operators`, Q (2 wt I - Delta) Q^t with Q the signed
    permutation taking each tableau to its transpose, which costs O(dim^2).

    This is the one-graph case of delta_matrices, which forms each image
    once for a stack of G graphs and holds (2 G + 3) dim^2 floats: the
    stack, one weighted image per graph, and three chain buffers. Callers
    that stack graphs take `graphs_per_stack` of them per stack.
    """
    return delta_matrices(shape, (graph,), dim_cap)[0]


def delta_matrices(shape: Partition, graphs: Sequence[WeightedGraph],
                   dim_cap: int = DEFAULT_DIM_CAP) -> np.ndarray:
    """The (G, dim, dim) stack of delta_matrix(shape, graph) over G graphs
    on shape.n vertices, slice for slice the same floats: each image of the
    chain is formed once and every graph of the stack subtracts its share,
    and a non-canonical shape's stack is derived from its mate's at once:
    the chain runs for a canonical or self-conjugate shape, and the other
    shapes' stacks come from their canonical mate's chain."""
    mate = _derived_from(shape)
    if mate is None:
        return _assemble(shape, graphs, dim_cap)
    return conjugate_operators(shape, _assemble(mate, graphs, dim_cap), graphs)


REGULAR_HARD_CAP = 6


@lru_cache(maxsize=None)
def _left_transpositions(n: int) -> dict[tuple[int, int], np.ndarray]:
    """(i, j) -> the index array of left multiplication by the transposition
    (i j) on the permutations g_k of 1..n, each given by its images and
    listed by itertools: entry k is the index of (i j) * g_k."""
    images = np.array(list(permutations(range(1, n + 1))), dtype=np.int64).reshape(
        math.factorial(n), n)
    # itertools lists permutations in lexicographic order, so a permutation's
    # index is the rank of its images read as a base-n number
    place = n ** np.arange(n - 1, -1, -1, dtype=np.int64)
    codes = (images - 1) @ place
    left = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            # (i j) * g swaps the values i and j in g's images
            swapped = np.where(images == i, j, np.where(images == j, i, images))
            index = np.searchsorted(codes, (swapped - 1) @ place)
            index.setflags(write=False)
            left[(i, j)] = index
    return left


def regular_delta(graph: WeightedGraph) -> np.ndarray:
    """Swap operator acting by left multiplication on the group algebra.

    n! x n! and meant as an oracle: its spectrum is the union over
    irreducibles of dim-many copies of each per-irreducible spectrum.
    Each edge (i j) subtracts its weight at (index of (i j) g, index of g)
    for every g, entries no other edge touches.
    """
    n = graph.n
    if n > REGULAR_HARD_CAP:
        raise ValueError(f"regular representation capped at n={REGULAR_HARD_CAP}")
    left = _left_transpositions(n)
    size = math.factorial(n)
    columns = np.arange(size)
    m = graph.wt * np.eye(size)
    for i, j, w in graph.edges():
        m[left[(i, j)], columns] -= w
    return m
