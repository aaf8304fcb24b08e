"""Eigenvalues: a dense symmetric solver plus the closed-form spectra.

The closed forms all come from the simultaneous diagonalization of the
nested star operators on the canonical tableau basis:

  * a nonnegative combination of nested stars (weight a_k on the star
    joining k to 1..k-1) acts on the basis vector of a standard tableau
    with eigenvalue wt - sum_k a_k (col - row of the box holding label k),
    wt = sum_k a_k (k-1). A plain star is the indicator weighting and the
    complete graph the all-ones one;
  * a standard tableau is a saturated chain of diagrams from one box up to
    the shape, so those eigenvalues are wt minus sums along chains, and one
    memoized recursion over subdiagrams (corner removal) finds them without
    listing a tableau: `_chains` keeps the heaviest chain of each
    subdiagram and `_chain_counts` every chain sum with its multiplicity,
    both in integers (each weighting scaled once by the common denominator
    of its weights). `_chains` runs on integer columns, one per weighting,
    so `nested_star_lambda1_scaled` gives lambda_1 of every shape under
    every weighting of a sweep from one walk, and `nested_star_extremes` is
    its one-column case. Transposing a tableau negates every content, so
    the lightest chain of a shape is minus the heaviest chain of its
    conjugate, which gives lambda_max;
  * the complete graph acts by the scalar C(n,2) - content sum;
  * the spectrum on a hook [n-k, 1^k] consists of the k-subset sums of
    the spectrum on [n-1, 1].

Everything else goes through `spectrum`, which checks its input (square,
finite, symmetric), hands the symmetrized matrix to LAPACK's symmetric
eigensolver via numpy.linalg.eigvalsh and returns its eigenvalues as the
ascending tuple of floats LAPACK gives: [0] is lambda_1, [-1] lambda_max.
Exact spectra are ascending tuples of Fractions. `spectra` does the same for a
(G, d, d) stack in one call, and `irrep_spectra` solves one irreducible for
a list of graphs by stacking their operators (`symrep.delta_matrices`),
`symrep.graphs_per_stack` graphs at a time, for the verify suites and the
order engine's bound checks (`order._many`); `order.scan` stacks its
operators block by block itself. The suites' other kernels take rows too:
`subset_sum_spectrum`, `laplacian_gap` and `multiset_distance` are the
one-row cases of `subset_sum_spectra`, `laplacian_gaps` and
`multiset_distances`, and `_chain_spectrum` expands a weighting's chain
counts into a spectrum, Fractions for `quasi_complete_spectrum` and floats
for the suites.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import Sequence

import numpy as np

from .graphs import WeightedGraph
from .partitions import Partition, _removals, capped_tableau_count, conjugate, content_sum
from .symrep import DEFAULT_DIM_CAP, STACK_FLOATS, delta_matrices, graphs_per_stack

DEFAULT_TOL = 1e-12


def _symmetrized(m: np.ndarray, tol: float) -> np.ndarray:
    """(m + m^T) / 2 for a matrix or each matrix of a (G, d, d) stack, after
    checking that it is square, finite and symmetric to within
    tol * ||m_g||_F per matrix. Shared by spectrum and spectra rather than
    spectrum calling spectra, so per-function timings of spectrum still
    cover its own eigensolve."""
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError("matrix must be square")
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    mt = m.swapaxes(-1, -2)
    if m.ndim == 2:
        # the norm only matters once the matrix is not exactly symmetric; it
        # is taken by the stack's call, whose last bit can differ from norm(m)
        skew = float(np.abs(m - mt).max()) if m.size else 0.0
        if skew > 0 and skew > max(tol * float(np.linalg.norm(m, axis=(-2, -1))), 1e-300):
            raise ValueError("matrix must be symmetric")
    elif m.size:
        limit = np.maximum(tol * np.linalg.norm(m, axis=(-2, -1)), 1e-300)
        if np.count_nonzero(np.abs(m - mt).max(axis=(-2, -1)) > limit):
            raise ValueError("matrix must be symmetric")
    return (m + mt) / 2.0


def spectrum(m: np.ndarray, tol: float = DEFAULT_TOL) -> tuple[float, ...]:
    """All eigenvalues of a symmetric matrix, by LAPACK through numpy, as an
    ascending tuple of floats: [0] is lambda_1 and [-1] lambda_max.

    The matrix must be square, finite and symmetric to within
    tol * ||m||_F; it is symmetrized before the solve. The one-matrix case
    of `spectra`.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2:
        raise ValueError("matrix must be square")
    return tuple(np.linalg.eigvalsh(_symmetrized(m, tol)).tolist())


def spectra(stack: np.ndarray, tol: float = DEFAULT_TOL) -> list[tuple[float, ...]]:
    """spectrum(m) of each matrix m of a (G, d, d) stack, ascending tuples
    from one checked stack and one stacked eigvalsh; LAPACK solves the
    matrices one by one, so each value is the one spectrum(m) returns."""
    stack = np.asarray(stack, dtype=float)
    if stack.ndim != 3 or not len(stack):
        raise ValueError("need a nonempty (G, d, d) stack")
    return [tuple(values) for values in np.linalg.eigvalsh(_symmetrized(stack, tol)).tolist()]


def irrep_spectra(shape: Partition, graphs: Sequence[WeightedGraph],
                  tol: float = DEFAULT_TOL,
                  dim_cap: int = DEFAULT_DIM_CAP) -> list[tuple[float, ...]]:
    """spectrum(delta_matrix(shape, graph)) for each graph of a list, as
    ascending tuples, the graphs stacked `graphs_per_stack` at a time: one
    chain of images and one stacked solve per stack."""
    step = graphs_per_stack(shape, STACK_FLOATS, dim_cap)
    return [spec for start in range(0, len(graphs), step)
            for spec in spectra(delta_matrices(shape, graphs[start:start + step],
                                               dim_cap), tol)]


def _checked_weights(n: int, weightings) -> list[list]:
    """The weightings as lists of n - 1 finite nonnegative weights each."""
    rows = [list(a) for a in weightings]
    for a in rows:
        if len(a) != n - 1:
            raise ValueError(f"need {n - 1} weights, got {len(a)}")
    if not all(0 <= x < math.inf for a in rows for x in a):
        if any(x != x or abs(x) == math.inf for a in rows for x in a):
            raise ValueError("weights must be finite")
        raise ValueError("weights must be nonnegative")
    return rows


def quasi_complete_spectrum(shape: Partition, a) -> tuple[Fraction, ...]:
    """Spectrum of the nested-star combination with weights a[2..n] as an
    ascending tuple of exact Fractions: wt - sum_k a_k * content(box of k)
    per standard tableau, from `_chain_spectrum`. It lists one value per
    tableau, so shapes above partitions.TABLEAU_CAP tableaux are refused."""
    (a,) = _checked_weights(shape.n, [a])
    capped_tableau_count(shape)
    return tuple(_chain_spectrum(shape, a, Fraction))


def _chain_spectrum(shape: Partition, a, value) -> list:
    """The spectrum of the shape under the nested-star weighting a, ascending:
    value(wt - chain sum, scale) per tableau, in the integers of a's one
    `_chain_table`. Fraction gives exact values, operator.truediv floats."""
    scale, columns, wt, _, counts = _chain_table(tuple(a))
    sums = _chain_counts(shape.parts, shape.n, columns[:, 0], counts)
    values = []
    for total in sorted(sums, reverse=True):
        values += [value(wt - total, scale)] * sums[total]
    return values


def nested_star_extremes(shape: Partition, a) -> tuple[Fraction, Fraction]:
    """(lambda_1, lambda_max) of the nested-star combination with weights
    a[2..n], in exact rationals: the extremes of quasi_complete_spectrum,
    from heaviest chains alone (the one-column walk of `_chains`, its table
    shared with every shape of the weighting). Transposing a tableau
    negates every content, so the lightest chain of the shape is minus the
    heaviest chain of its conjugate."""
    (a,) = _checked_weights(shape.n, [a])
    scale, columns, wt, table, _ = _chain_table(tuple(a))
    heaviest = _chains(shape.parts, shape.n, columns, table)[0]
    lightest = -_chains(conjugate(shape).parts, shape.n, columns, table)[0]
    return Fraction(wt - heaviest, scale), Fraction(wt - lightest, scale)


def nested_star_lambda1_scaled(shapes, weightings) -> tuple[list[int], list[np.ndarray]]:
    """(scales, rows) for a list of nested-star weightings of the shapes'
    common size, from one walk of `_chains` over all of them: scales[w] is
    the common denominator of weighting w, and rows[i][w] is lambda_1 of
    shapes[i] under weighting w times scales[w], a Python int (rows[i] is
    an object array), so Fraction(rows[i][w], scales[w]) is
    nested_star_extremes(shapes[i], weightings[w])[0]. The walk's table is
    dropped on return."""
    shapes = list(shapes)
    rows = list(weightings)
    n = shapes[0].n if shapes else len(rows[0]) + 1 if rows else 1
    for shape in shapes:
        if shape.n != n:
            raise ValueError(f"shapes of mixed size: {shape} is not of size {n}")
    scales, columns, wt = _integer_columns(n, _checked_weights(n, rows))
    table = {}
    return scales, [wt - _chains(shape.parts, n, columns, table) for shape in shapes]


def _scaled(a: list) -> tuple[int, list[int]]:
    """One weighting in integers: its common denominator and the weights
    times it. Integers are their own numerators."""
    if all(type(x) is int for x in a):
        return 1, a
    fractions = [Fraction(x) for x in a]
    scale = math.lcm(*(f.denominator for f in fractions))
    return scale, [f.numerator * (scale // f.denominator) for f in fractions]


def _integer_columns(n: int, rows: list[list]) -> tuple[list[int], np.ndarray, np.ndarray]:
    """Checked weightings of size n in integers, one column each: the
    common denominator `scale` of each, the (n - 1, W) object array of
    Python ints whose column w is weighting w times its scale, and wt times
    scale per weighting."""
    scaled = [_scaled(a) for a in rows]
    columns = np.array([w for _, w in scaled], dtype=object).reshape(len(rows), n - 1).T
    wt = sum((k * columns[k - 1] for k in range(1, n)), np.zeros(len(rows), dtype=object))
    return [scale for scale, _ in scaled], columns, wt


@lru_cache(maxsize=16)
def _chain_table(a: tuple) -> tuple[int, np.ndarray, int, dict, dict]:
    """One weighting as the one-column case of `_integer_columns`, shared
    by every shape it is evaluated on: its scale, its (n - 1, 1) column,
    wt times scale, and the memo tables of `_chains` and `_chain_counts`
    (also times scale). Equal weights hash equal whatever their type, so
    0.5 and Fraction(1, 2) share an entry."""
    (scale,), columns, (wt,) = _integer_columns(len(a) + 1, [list(a)])
    return scale, columns, wt, {}, {(1,): {0: 1}}


def _chains(parts: tuple[int, ...], size: int, columns: np.ndarray, table: dict):
    """The max over standard tableaux of the diagram `parts` (size boxes)
    of sum_{k >= 2} a_k * content(box of k), for every weighting at once:
    row k - 2 of `columns` holds a_k of each weighting, and each entry is an
    object array of Python ints, one per weighting, so the sums are exact
    at any scale. The box of label `size` is one of the corners, and the
    rest is a chain of the diagram without it."""
    found = table.get(parts)
    if found is not None:
        return found
    if size == 1:  # no label above 1: the one-box chain weighs 0
        return np.zeros(columns.shape[1], dtype=object)
    weight = columns[size - 2]
    heaviest = None
    for rest, (col, row) in _removals(parts):
        chain = _chains(rest, size - 1, columns, table) + weight * (col - row)
        heaviest = chain if heaviest is None else np.maximum(heaviest, chain)
    table[parts] = heaviest
    return heaviest


def _chain_counts(parts: tuple[int, ...], size: int, weights, table: dict) -> dict:
    """{sum_{k >= 2} a_k * content(box of k): number of standard tableaux}
    of the diagram `parts` (size boxes), by the corner split of `_chains`."""
    found = table.get(parts)
    if found is not None:
        return found
    weight = weights[size - 2]
    counts: dict[int, int] = {}
    for rest, (col, row) in _removals(parts):
        step = weight * (col - row)
        for total, multiplicity in _chain_counts(rest, size - 1, weights, table).items():
            counts[total + step] = counts.get(total + step, 0) + multiplicity
    table[parts] = counts
    return counts


def remark_weights(n: int) -> list[Fraction]:
    """The fast-decaying exact weights a_k = n^(-2k), k = 2..n."""
    return [Fraction(1, n ** (2 * k)) for k in range(2, n + 1)]


def complete_graph_eigenvalue(shape: Partition) -> int:
    """Scalar action of the unit complete graph: C(n,2) - content sum.

    For a partition of m this is also the scalar by which the clique on the
    first m vertices acts on that component of the restriction, so the shape
    alone determines the value.
    """
    n = shape.n
    return n * (n - 1) // 2 - content_sum(shape)


def subset_sum_spectra(bases, k: int) -> np.ndarray:
    """subset_sum_spectrum of each row of a (G, d) array, as the rows of a
    (G, C(d, k)) array, each k-subset summed left to right as sum() does."""
    bases = np.asarray(bases, dtype=float)
    subsets = list(combinations(range(bases.shape[1]), k))
    sums = np.zeros((len(bases), len(subsets)))
    for column in zip(*subsets):  # the p-th member of every subset
        sums += bases[:, column]
    return np.sort(sums, axis=1)


def subset_sum_spectrum(base: Sequence[float], k: int) -> tuple[float, ...]:
    """The k-subset sums of a spectrum on [n-1, 1], ascending: the spectrum
    on the hook [n-k, 1^k] of the same graph. One row of subset_sum_spectra."""
    return tuple(subset_sum_spectra([base], k)[0].tolist())


def laplacian_gaps(stack, tol: float = DEFAULT_TOL) -> list[float]:
    """Second-smallest eigenvalue of diag(row sums) - weights for each
    weight matrix of a (G, n, n) stack, from one stacked solve."""
    stack = np.asarray(stack, dtype=float)
    laplacians = np.eye(stack.shape[-1]) * stack.sum(axis=2)[:, :, None] - stack
    return [values[1] for values in spectra(laplacians, tol)]


def laplacian_gap(graph: WeightedGraph, tol: float = DEFAULT_TOL) -> float:
    """Second-smallest eigenvalue of diag(row sums) - weights: the one-graph
    case of laplacian_gaps."""
    return laplacian_gaps(graph.weights[None], tol)[0]


def multiset_distances(xs, ys) -> list[float]:
    """multiset_distance of each row of xs to the same row of ys, two
    (G, d) arrays, from one sorted-array difference: inf for every row if
    the rows' lengths differ, 0.0 for rows of length 0, NaN passed on."""
    xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    if xs.shape[1] != ys.shape[1]:
        return [math.inf] * len(xs)
    return np.abs(np.sort(xs, axis=1) - np.sort(ys, axis=1)).max(axis=1, initial=0.0).tolist()


def multiset_distance(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Max absolute difference after sorting; inf on length mismatch. The
    one-row case of multiset_distances."""
    return multiset_distances([xs], [ys])[0]
