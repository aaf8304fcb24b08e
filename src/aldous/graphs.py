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
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np


@lru_cache(maxsize=None)
def _strict_upper(n: int) -> np.ndarray:
    """The n x n mask of the entries above the diagonal."""
    mask = np.triu(np.ones((n, n), dtype=bool), 1)
    mask.setflags(write=False)
    return mask


class WeightedGraph:
    """Symmetric nonnegative weight matrix with zero diagonal."""

    __slots__ = ("n", "weights", "wt")

    def __init__(self, weights: np.ndarray):
        weights = np.asarray(weights, dtype=float)
        if weights.ndim != 2 or weights.shape[0] != weights.shape[1]:
            raise ValueError("weight matrix must be square")
        if not np.isfinite(weights).all():
            raise ValueError("weights must be finite")
        if not (weights == weights.T).all():
            raise ValueError("weight matrix must be symmetric")
        if weights.size and weights.min() < 0:
            raise ValueError("weights must be nonnegative")
        if weights.diagonal().any():
            raise ValueError("diagonal must be zero")
        self.n = weights.shape[0]
        self.weights = weights
        self.weights.setflags(write=False)
        with np.errstate(over="ignore"):
            # the sum np.triu(weights, 1) gives, without building its mask
            self.wt = float(np.sum(np.where(_strict_upper(self.n), weights, 0.0)))
        # every eigenvalue of the swap operator lies in [0, 2 wt]
        if not math.isfinite(2 * self.wt):
            raise ValueError("weights too large: twice their total overflows a float")

    @classmethod
    def from_edges(cls, n: int, edges) -> "WeightedGraph":
        w = np.zeros((n, n))
        for i, j, weight in edges:
            if not 1 <= i < j <= n:
                raise ValueError(f"edge ({i},{j}) must satisfy 1 <= i < j <= n")
            if weight < 0:
                raise ValueError(f"negative weight on edge ({i},{j})")
            w[i - 1, j - 1] = weight
            w[j - 1, i - 1] = weight
        return cls(w)

    def edges(self) -> list[tuple[int, int, float]]:
        """Positive-weight edges as (i, j, weight), i < j, 1-based."""
        out = []
        for i in range(self.n):
            for j in range(i + 1, self.n):
                if self.weights[i, j] > 0:
                    out.append((i + 1, j + 1, float(self.weights[i, j])))
        return out

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
        return cls.from_edges(data["n"], data["edges"])


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
    """Vertex k joined to each of 1..k-1 with unit weight."""
    if not 2 <= k <= n:
        raise ValueError(f"star needs 2 <= k <= n, got k={k}, n={n}")
    w = np.zeros((n, n))
    w[: k - 1, k - 1] = 1.0
    w[k - 1, : k - 1] = 1.0
    return WeightedGraph(w)


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


def quasi_complete_graph(n: int, a) -> WeightedGraph:
    """Nested-star combination: edge (i, j), i < j, gets weight a[j].

    a is indexed by vertex 2..n (length n-1). Fraction weights are kept
    exactly only by the spectral formulas; the stored matrix is float.
    """
    a = list(a)
    if len(a) != n - 1:
        raise ValueError(f"need n-1 = {n - 1} weights, got {len(a)}")
    if any(x < 0 for x in a):
        raise ValueError("weights must be nonnegative")
    w = np.zeros((n, n))
    for j in range(2, n + 1):
        w[: j - 1, j - 1] = float(a[j - 2])
        w[j - 1, : j - 1] = float(a[j - 2])
    return WeightedGraph(w)


def weighted_star_graph(n: int, a) -> WeightedGraph:
    """Star at vertex 1; edge (1, i) has weight a[i], i = 2..n."""
    a = list(a)
    if len(a) != n - 1:
        raise ValueError(f"need n-1 = {n - 1} weights, got {len(a)}")
    return WeightedGraph.from_edges(
        n, [(1, i, float(a[i - 2])) for i in range(2, n + 1) if a[i - 2] > 0]
    )


def random_graph(n: int, seed: int, density: float = 0.5,
                 distribution: str = "uniform") -> WeightedGraph:
    """Seeded random graph; each edge present independently with the given
    density, weights drawn uniform(0,1] or exponential(1)."""
    rng = np.random.default_rng(seed)
    w = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                if distribution == "uniform":
                    weight = 1.0 - rng.random()
                elif distribution == "exponential":
                    weight = rng.exponential(1.0)
                else:
                    raise ValueError(f"unknown weight distribution {distribution!r}")
                w[i, j] = w[j, i] = weight
    return WeightedGraph(w)


def graph_family(name: str, n: int, **params) -> WeightedGraph:
    """The one name -> constructor dispatch: CLI --family flags and stored
    "family" witnesses both come through here."""
    if name == "complete":
        return complete_graph(n)
    if name == "star":
        return star_graph(n, params.get("k", n))
    if name == "clique":
        return complete_on_first(n, params.get("k", n))
    if name == "cycle":
        return cycle_graph(n)
    if name == "path":
        return path_graph(n)
    if name == "matching":
        return matching_graph(n, params.get("m", n // 2))
    if name == "quasi":
        return quasi_complete_graph(n, params["a"])
    if name == "weighted_star":
        return weighted_star_graph(n, params["a"])
    if name == "random":
        return random_graph(
            n,
            params["seed"],
            params.get("density", 0.5),
            params.get("distribution", "uniform"),
        )
    raise ValueError(f"unknown graph family {name!r}")


def quasi_complete_weights(graph: WeightedGraph):
    """If the graph is a nested-star combination, return the exact per-vertex
    weights a[2..n] as Fractions of the stored floats; otherwise None."""
    a = []
    w = graph.weights
    for j in range(1, graph.n):
        col = w[:j, j]
        if np.any(col != col[0]):
            return None
        a.append(Fraction(float(col[0])))
    return a


def support_matching_number(graph: WeightedGraph) -> int:
    """Maximum matching size of the positive-weight support graph."""
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(range(1, graph.n + 1))
    g.add_edges_from((i, j) for i, j, _ in graph.edges())
    return len(nx.max_weight_matching(g, maxcardinality=True))
