"""Weighted graphs on {1..n}: the edge-rate data fed to the swap operator.

A graph is a symmetric nonnegative matrix with zero diagonal. The shared
JSON format is {"n": int, "edges": [[i, j, weight], ...]} with 1-based
vertices, i < j and nonnegative weights.

Nested-star combinations (each new vertex attached to all earlier ones)
are detected structurally: the weight of edge (i, j), i < j, must depend
only on j. Those graphs admit exact spectra, so detection lets callers
upgrade a numeric check to an exact one.
"""

from __future__ import annotations

import json
from collections.abc import Iterable
from fractions import Fraction
from functools import lru_cache
from numbers import Integral, Real

import numpy as np


def _is_int(x) -> bool:
    return type(x) is int or (isinstance(x, Integral) and not isinstance(x, bool))


def _is_real(x) -> bool:
    return type(x) in (float, int) or (isinstance(x, Real) and not isinstance(x, bool))


@lru_cache(maxsize=None)
def _strict_upper(n: int) -> np.ndarray:
    """The n x n mask of the entries above the diagonal."""
    mask = np.triu(np.ones((n, n), dtype=bool), 1)
    mask.setflags(write=False)
    return mask


def _first_failed_check(weights: np.ndarray) -> str:
    """The message of the first check a square weight matrix fails, the
    checks taken one by one in the order their messages take priority."""
    if not np.isfinite(weights).all():
        return "weights must be finite"
    if not (weights == weights.T).all():
        return "weight matrix must be symmetric"
    if weights.min() < 0:
        return "weights must be nonnegative"
    if weights.diagonal().any():
        return "diagonal must be zero"
    return "weights too large: twice their total overflows a float"


def _checked_wts(stack: np.ndarray) -> list[float]:
    """wt (the sum of np.triu(w, 1)) of each matrix w of a (G, n, n) float
    stack, after one pass of the checks; the first failing w raises."""
    count, n = stack.shape[:2]
    upper = np.where(_strict_upper(n), stack, 0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        wts = np.add.reduce(upper.reshape(count, n * n), axis=1)
        # upper + upper^T is the matrix only if it is symmetric with a zero
        # diagonal (a NaN never compares equal), and an infinite weight makes
        # wt infinite. Every eigenvalue of the swap operator lies in
        # [0, 2 wt], so 2 wt must be finite too
        ok = (np.isfinite(2 * wts) & (upper.min(axis=(1, 2), initial=0.0) >= 0)
              & (upper + upper.swapaxes(1, 2) == stack).all(axis=(1, 2)))
    if not ok.all():
        raise ValueError(_first_failed_check(stack[np.argmin(ok)]))
    return wts.tolist()


class WeightedGraph:
    """Symmetric nonnegative weight matrix with zero diagonal, checked by
    the check `from_stack` runs, on a stack of one."""

    __slots__ = ("n", "weights", "wt")

    def __init__(self, weights: np.ndarray):
        # a C-ordered copy: equal graphs then share their spectra to the bit,
        # and the caller's array stays writable
        weights = np.array(weights, dtype=float, order="C")
        if weights.ndim != 2 or weights.shape[0] != weights.shape[1]:
            raise ValueError("weight matrix must be square")
        (self.wt,) = _checked_wts(weights[None])
        self.n, self.weights = len(weights), weights
        weights.setflags(write=False)

    @classmethod
    def from_stack(cls, stack) -> list["WeightedGraph"]:
        """WeightedGraph(w) for each matrix w of a (G, n, n) stack, checked
        by one pass over the stack: the same graphs, wt to the bit, and the
        first failing matrix's error when one fails. Like the constructor,
        it keeps a C-ordered copy of the stack."""
        stack = np.array(stack, dtype=float, order="C")
        if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
            raise ValueError("need a (G, n, n) stack of weight matrices")
        wts = _checked_wts(stack)
        stack.setflags(write=False)
        graphs = []
        for weights, wt in zip(stack, wts):
            graph = cls.__new__(cls)
            graph.n, graph.weights, graph.wt = len(weights), weights, wt
            graphs.append(graph)
        return graphs

    @classmethod
    def from_edges(cls, n: int, edges) -> "WeightedGraph":
        if not _is_int(n) or n < 0:
            raise ValueError(f"n must be a nonnegative int, got {n!r}")
        if not isinstance(edges, Iterable):
            raise ValueError(f"edges must be a list of [i, j, weight], got {edges!r}")
        w = np.zeros((n, n))
        seen = set()
        for edge in edges:
            try:
                i, j, weight = edge
            except (TypeError, ValueError):
                raise ValueError(f"edge {edge!r} must be [i, j, weight]") from None
            if not (_is_int(i) and _is_int(j)):
                raise ValueError(f"edge {edge!r}: vertices must be ints")
            if not 1 <= i < j <= n:
                raise ValueError(f"edge ({i},{j}) must satisfy 1 <= i < j <= n")
            if not _is_real(weight):
                raise ValueError(f"edge ({i},{j}): weight {weight!r} is not a real number")
            try:
                weight = float(weight)
            except OverflowError:
                raise ValueError(f"edge ({i},{j}): weight too large for a float") from None
            if weight < 0:
                raise ValueError(f"negative weight on edge ({i},{j})")
            if (i, j) in seen:
                raise ValueError(f"edge ({i},{j}) given twice")
            seen.add((i, j))
            w[i - 1, j - 1] = weight
            w[j - 1, i - 1] = weight
        return cls(w)

    def edges(self) -> list[tuple[int, int, float]]:
        """Positive-weight edges as (i, j, weight), i < j, 1-based."""
        rows, cols = np.nonzero(np.triu(self.weights > 0, 1))
        return [(i + 1, j + 1, self.weights[i, j].item())
                for i, j in zip(rows.tolist(), cols.tolist())]

    def __eq__(self, other):
        return isinstance(other, WeightedGraph) and np.array_equal(
            self.weights, other.weights
        )

    def __hash__(self):
        # weights are frozen at construction, so hashing the buffer is safe
        return hash((self.n, self.weights.tobytes()))

    def __repr__(self):
        return f"WeightedGraph(n={self.n}, edges={self.edges()})"

    def to_json(self) -> str:
        return json.dumps({"n": self.n, "edges": [list(e) for e in self.edges()]})

    @classmethod
    def from_json(cls, text: str) -> "WeightedGraph":
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError('graph JSON must be {"n": int, "edges": [[i, j, weight], ...]}')
        return cls.from_edges(data.get("n"), data.get("edges"))


def complete_graph(n: int) -> WeightedGraph:
    """All pairs joined with unit weight."""
    w = np.ones((n, n)) - np.eye(n)
    return WeightedGraph(w)


def complete_on_first(n: int, k: int) -> WeightedGraph:
    """Unit weights among vertices 1..k, the rest isolated."""
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}")
    w = np.zeros((n, n))
    w[:k, :k] = 1.0
    np.fill_diagonal(w, 0.0)
    return WeightedGraph(w)


def star_graph(n: int, k: int) -> WeightedGraph:
    """Vertex k joined to each of 1..k-1 with unit weight: the nested star
    a_k = 1, else 0."""
    if not 2 <= k <= n:
        raise ValueError(f"star needs 2 <= k <= n, got k={k}, n={n}")
    return quasi_complete_graph(n, [int(j == k) for j in range(2, n + 1)])


def cycle_graph(n: int) -> WeightedGraph:
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    edges = [(i, i + 1, 1.0) for i in range(1, n)] + [(1, n, 1.0)]
    return WeightedGraph.from_edges(n, edges)


def path_graph(n: int) -> WeightedGraph:
    if n < 2:
        raise ValueError("path needs n >= 2")
    return WeightedGraph.from_edges(n, [(i, i + 1, 1.0) for i in range(1, n)])


def matching_graph(n: int, m: int) -> WeightedGraph:
    """m disjoint unit edges (2i-1, 2i); needs 2m <= n."""
    if m < 0 or 2 * m > n:
        raise ValueError(f"matching of {m} edges does not fit in {n} vertices")
    return WeightedGraph.from_edges(n, [(2 * i - 1, 2 * i, 1.0) for i in range(1, m + 1)])


def quasi_complete_stack(weights) -> np.ndarray:
    """The (G, n, n) weight matrices of the nested-star combinations whose
    a[2..n] are the rows of a (G, n - 1) array: a[max(i, j)] at i != j. A
    weight beyond float range, such as the int or Fraction 10**400, raises
    ValueError as an infinite one does."""
    try:
        weights = np.asarray(weights, dtype=float)
    except OverflowError:
        raise ValueError("weights must be finite") from None
    vertex = np.arange(weights.shape[1] + 1)
    per_vertex = np.concatenate((np.zeros((len(weights), 1)), weights), axis=1)
    stack = np.take(per_vertex, np.maximum.outer(vertex, vertex), axis=1)
    stack[:, vertex, vertex] = 0.0
    return stack


def quasi_complete_graph(n: int, a) -> WeightedGraph:
    """Nested-star combination: edge (i, j), i < j, gets weight a[j].

    a is indexed by vertex 2..n (length n-1). Fraction weights are kept
    exactly only by the spectral formulas; the stored matrix is float, the
    one row of `quasi_complete_stack`."""
    a = list(a)
    if len(a) != n - 1:
        raise ValueError(f"need n-1 = {n - 1} weights, got {len(a)}")
    if any(x < 0 for x in a):
        raise ValueError("weights must be nonnegative")
    return WeightedGraph(quasi_complete_stack([a])[0])


def weighted_star_graph(n: int, a) -> WeightedGraph:
    """Star at vertex 1; edge (1, i) has weight a[i], i = 2..n."""
    a = list(a)
    if len(a) != n - 1:
        raise ValueError(f"need n-1 = {n - 1} weights, got {len(a)}")
    return WeightedGraph.from_edges(n, [(1, i, a[i - 2]) for i in range(2, n + 1)])


def random_graph(n: int, seed: int, density: float = 0.5) -> WeightedGraph:
    """Seeded random graph; each edge present independently with the given
    density, weights drawn uniform(0,1].

    Pairs (i, j) are visited in row order, each drawing a coin and, when
    the coin lands, its weight, all from one call's stream of uniform
    draws."""
    if not (_is_real(density) and 0 <= density <= 1):
        raise ValueError(f"density must be in [0, 1], got {density!r}")
    # coins and weights share one stream, at most two draws per pair
    draws = iter(np.random.default_rng(seed).random(n * (n - 1)).tolist())
    w = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            if next(draws) < density:
                w[i, j] = w[j, i] = 1.0 - next(draws)
    return WeightedGraph(w)


# The one family table: name -> (constructor, the parameters it takes after
# n, each mapped to its default as a function of n, or to None if required).
# graph_family, stored "family" witnesses and the CLI's --family all read it.
GRAPH_FAMILIES = {
    "complete": (complete_graph, {}),
    "star": (star_graph, {"k": lambda n: n}),
    "clique": (complete_on_first, {"k": lambda n: n}),
    "cycle": (cycle_graph, {}),
    "path": (path_graph, {}),
    "matching": (matching_graph, {"m": lambda n: n // 2}),
    "quasi": (quasi_complete_graph, {"a": None}),
    "weighted_star": (weighted_star_graph, {"a": None}),
    "random": (random_graph, {"seed": None, "density": lambda n: 0.5}),
}


def graph_family(name: str, n: int, **params) -> WeightedGraph:
    """The graph GRAPH_FAMILIES builds for a family name at n. Raises
    ValueError for a name not in the table, a parameter the family does not
    take, a required one missing, or values its constructor refuses,
    whether with a ValueError or a TypeError."""
    if not isinstance(name, str) or name not in GRAPH_FAMILIES:
        raise ValueError(f"unknown graph family {name!r}")
    make, takes = GRAPH_FAMILIES[name]
    if not params.keys() <= takes.keys():
        raise ValueError(f"family {name!r} params must be a mapping of its known keys "
                         f"({', '.join(sorted(takes)) or 'none'}), got {params!r}")
    for key, default in takes.items():
        if default is None and key not in params:
            raise ValueError(f"family {name!r} needs param {key!r}")
    try:
        return make(n, **{key: params[key] if key in params else default(n)
                          for key, default in takes.items()})
    except TypeError as exc:
        raise ValueError(f"family {name!r} params {params!r}: {exc}") from None


def quasi_complete_weights(graph: WeightedGraph):
    """If the graph is a nested-star combination, return the exact per-vertex
    weights a[2..n] as Fractions of the stored floats; otherwise None.

    Nested means each entry above the diagonal equals the one in row 0 of
    its column, which one comparison against row 0 decides."""
    w = graph.weights
    if not graph.n:
        return []
    if not ((w == w[0]) >= _strict_upper(graph.n)).all():
        return None
    return [Fraction(x) for x in w[0, 1:].tolist()]


def support_matching_number(graph: WeightedGraph) -> int:
    """Maximum matching size of the positive-weight support graph."""
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(range(1, graph.n + 1))
    g.add_edges_from((i, j) for i, j, _ in graph.edges())
    return len(nx.max_weight_matching(g, maxcardinality=True))
