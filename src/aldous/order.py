"""The order engine: which irreducibles dominate which, with evidence.

An ordered pair (sigma, tau) is *proved* when sigma is at or above tau for
every weight matrix (smaller lowest eigenvalue everywhere), *refuted* when
some witness graph gives sigma a strictly larger lowest eigenvalue, and
*unknown* otherwise. Proved entries only ever come from the seeded
citation tags; no amount of failed searching promotes a pair.

Refutation policy: numeric witnesses must clear margin > 10 * tol with
tol = 1e-9; witnesses evaluated in exact rational arithmetic (nested-star
graphs, including plain stars and complete graphs) only need margin > 0,
which is what makes them rigorous even when the margin is astronomically
small, as with the fast-decaying lexicographic separator weights.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .graphs import (
    WeightedGraph,
    complete_graph,
    complete_on_first,
    cycle_graph,
    matching_graph,
    path_graph,
    quasi_complete_graph,
    quasi_complete_weights,
    random_graph,
    star_graph,
    support_matching_number,
    weighted_star_graph,
)
from .partitions import (
    Partition,
    conjugate,
    content_sum,
    dominates,
    in_row_class,
    lex_compare,
    parse_partition,
    partitions_of,
)
from .spectral import (
    quasi_complete_spectrum,
    remark_weights,
    spectrum,
)
from .symrep import DEFAULT_DIM_CAP, DimensionCapExceeded, delta_matrix

DEFAULT_TOL = 1e-9

PROVED_TAGS = ("cor:n1n", "bacher", "clr", "main", "transitive")
REFUTED_TAGS = ("ds81", "remark1", "cor:asympval", "scan")


class LedgerConflict(RuntimeError):
    """A pair asked to be both proved and refuted."""


# -- eigenvalue evaluation with the analytic upgrade -------------------------

def _analytic_weights(graph: WeightedGraph):
    return quasi_complete_weights(graph)


@lru_cache(maxsize=4096)
def lambda_extremes(shape: Partition, graph: WeightedGraph,
                    tol: float = 1e-12,
                    dim_cap: int = DEFAULT_DIM_CAP):
    """(lambda_1, lambda_max, exact) on one irreducible.

    Nested-star graphs (stars, cliques on an initial segment, complete
    graphs, any combination) are evaluated by the exact tableau formula;
    everything else goes through the numeric eigensolver. Results are
    cached; graphs are immutable after construction.
    """
    a = _analytic_weights(graph)
    if a is not None:
        spec = quasi_complete_spectrum(shape, a, exact=True)
        return spec.lambda1, spec.lambda_max, True
    spec = spectrum(delta_matrix(shape, graph, dim_cap=dim_cap), tol)
    return spec.lambda1, spec.lambda_max, False


@dataclass
class Refutation:
    sigma: Partition
    tau: Partition
    witness: dict
    margin: float
    exact: bool


def graph_witness(graph: WeightedGraph, descriptor: Optional[dict] = None) -> dict:
    if descriptor is not None:
        return descriptor
    return {"kind": "graph", "n": graph.n, "edges": [list(e) for e in graph.edges()]}


def witness_graph(witness: dict) -> WeightedGraph:
    """Materialize a stored witness descriptor."""
    kind = witness["kind"]
    n = witness["n"]
    if kind == "graph":
        return WeightedGraph.from_edges(n, witness["edges"])
    if kind == "family":
        family = witness["family"]
        params = witness.get("params", {})
        builders = {
            "complete": lambda: complete_graph(n),
            "star": lambda: star_graph(n, params["k"]),
            "clique": lambda: complete_on_first(n, params["k"]),
            "cycle": lambda: cycle_graph(n),
            "path": lambda: path_graph(n),
            "matching": lambda: matching_graph(n, params["m"]),
        }
        return builders[family]()
    if kind == "quasi":
        return quasi_complete_graph(n, [Fraction(w) for w in witness["weights"]])
    raise ValueError(f"unknown witness kind {kind!r}")


def _witness_exact_weights(witness: dict):
    """Exact nested-star weights for a witness, when it has them."""
    if witness["kind"] == "quasi":
        return [Fraction(w) for w in witness["weights"]]
    graph = witness_graph(witness)
    return quasi_complete_weights(graph)


def check_pair(sigma: Partition, tau: Partition, graph: WeightedGraph,
               tol: float = DEFAULT_TOL,
               descriptor: Optional[dict] = None,
               dim_cap: int = DEFAULT_DIM_CAP) -> Optional[Refutation]:
    """Refute sigma above-tau if the graph separates their lowest eigenvalues.

    Exact evaluations refute on any positive margin; numeric ones require
    margin > 10 * tol.
    """
    if sigma.n != tau.n or sigma.n != graph.n:
        raise ValueError("shapes and graph must share one n")
    lam_s, _, exact_s = lambda_extremes(sigma, graph, dim_cap=dim_cap)
    lam_t, _, exact_t = lambda_extremes(tau, graph, dim_cap=dim_cap)
    exact = exact_s and exact_t
    margin = lam_s - lam_t
    threshold = 0 if exact else 10 * tol
    if margin > threshold:
        return Refutation(sigma, tau, graph_witness(graph, descriptor),
                          float(margin), exact)
    return None


# -- the ledger ---------------------------------------------------------------

@dataclass
class RelationEntry:
    sigma: Partition
    tau: Partition
    status: str  # proved | refuted
    tag: Optional[str] = None
    witness: Optional[dict] = None
    margin: Optional[float] = None
    exact: bool = False


class RelationLedger:
    """Decided ordered pairs of partitions of n, with provenance."""

    def __init__(self, n: int):
        self.n = n
        self.entries: dict[tuple[Partition, Partition], RelationEntry] = {}

    def status(self, sigma: Partition, tau: Partition) -> str:
        entry = self.entries.get((sigma, tau))
        return entry.status if entry else "unknown"

    def entry(self, sigma: Partition, tau: Partition) -> Optional[RelationEntry]:
        return self.entries.get((sigma, tau))

    def set_proved(self, sigma: Partition, tau: Partition, tag: str) -> None:
        if tag not in PROVED_TAGS:
            raise ValueError(f"unknown citation tag {tag!r}")
        current = self.status(sigma, tau)
        if current == "refuted":
            raise LedgerConflict(f"({sigma}) >= ({tau}) already refuted")
        if current == "unknown":
            self.entries[(sigma, tau)] = RelationEntry(sigma, tau, "proved", tag=tag)

    def set_refuted(self, sigma: Partition, tau: Partition, witness: dict,
                    margin: float, exact: bool, tag: str = "scan") -> None:
        if tag not in REFUTED_TAGS:
            raise ValueError(f"unknown refutation tag {tag!r}")
        current = self.status(sigma, tau)
        if current == "proved":
            raise LedgerConflict(f"({sigma}) >= ({tau}) already proved")
        if current == "unknown":
            self.entries[(sigma, tau)] = RelationEntry(
                sigma, tau, "refuted", tag=tag, witness=witness,
                margin=float(margin), exact=exact,
            )

    def add_refutation(self, ref: Refutation, tag: str = "scan") -> None:
        self.set_refuted(ref.sigma, ref.tau, ref.witness, ref.margin, ref.exact, tag)

    def close_transitively(self) -> None:
        """Add proved entries implied by chaining existing proved ones."""
        parts = partitions_of(self.n)
        changed = True
        while changed:
            changed = False
            for a in parts:
                for b in parts:
                    if a == b or self.status(a, b) != "proved":
                        continue
                    for c in parts:
                        if c in (a, b) or self.status(b, c) != "proved":
                            continue
                        if self.status(a, c) == "unknown":
                            self.set_proved(a, c, "transitive")
                            changed = True

    def pairs(self):
        parts = partitions_of(self.n)
        for sigma in parts:
            for tau in parts:
                if sigma != tau:
                    yield sigma, tau

    def unknown_pairs(self) -> list[tuple[Partition, Partition]]:
        return [p for p in self.pairs() if self.status(*p) == "unknown"]

    def proved_pairs(self) -> list[tuple[Partition, Partition]]:
        return [p for p in self.pairs() if self.status(*p) == "proved"]

    def refuted_pairs(self) -> list[tuple[Partition, Partition]]:
        return [p for p in self.pairs() if self.status(*p) == "refuted"]

    def to_json(self) -> str:
        entries = []
        for sigma, tau in self.pairs():
            entry = self.entries.get((sigma, tau))
            record: dict = {"sigma": str(sigma), "tau": str(tau)}
            if entry is None:
                record["status"] = "unknown"
            else:
                record["status"] = entry.status
                record["tag"] = entry.tag
                if entry.status == "refuted":
                    record["witness"] = entry.witness
                    record["margin"] = entry.margin
                    record["exact"] = entry.exact
            entries.append(record)
        return json.dumps({"n": self.n, "entries": entries}, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RelationLedger":
        data = json.loads(text)
        ledger = cls(data["n"])
        for record in data["entries"]:
            if record["status"] == "unknown":
                continue
            sigma = parse_partition(record["sigma"])
            tau = parse_partition(record["tau"])
            if record["status"] == "proved":
                ledger.set_proved(sigma, tau, record["tag"])
            else:
                ledger.set_refuted(
                    sigma, tau, record["witness"], record["margin"],
                    record.get("exact", False), record.get("tag", "scan"),
                )
        return ledger


def recheck_witness(entry: RelationEntry, tol: float = DEFAULT_TOL) -> float:
    """Re-evaluate a refutation from its stored witness; returns the margin.

    Raises if the witness no longer clears its threshold (> 0 exact,
    > 10 * tol numeric).
    """
    weights = _witness_exact_weights(entry.witness)
    if weights is not None:
        lam_s = quasi_complete_spectrum(entry.sigma, weights, exact=True).lambda1
        lam_t = quasi_complete_spectrum(entry.tau, weights, exact=True).lambda1
        margin = lam_s - lam_t
        if margin <= 0:
            raise LedgerConflict(
                f"exact witness for ({entry.sigma}) vs ({entry.tau}) has margin {margin}"
            )
        return float(margin)
    graph = witness_graph(entry.witness)
    ref = check_pair(entry.sigma, entry.tau, graph, tol)
    if ref is None:
        raise LedgerConflict(
            f"stored witness no longer refutes ({entry.sigma}) >= ({entry.tau})"
        )
    return ref.margin


# -- seeding ------------------------------------------------------------------

def hook(n: int, k: int) -> Partition:
    return Partition([n - k] + [1] * k) if k else Partition([n])


def seed_known(n: int) -> RelationLedger:
    """Ledger of everything citable without running a search.

    Proved: the top and bottom elements, the hook chain, the standard
    representation below the top, and the row-class/column-class pairs at
    every k with n >= 4k^2 + 4k, closed transitively. Refuted: dominance-
    comparable pairs through the complete graph (exact content sums),
    lexicographically ordered pairs through the fast-decaying nested-star
    weights (exact rationals), and the two-column against one-column hook
    family through the full star, which also separates the pair the
    dominance order cannot.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    parts = partitions_of(n)
    ledger = RelationLedger(n)
    top = Partition([n])
    bottom = Partition([1] * n)
    std = Partition([n - 1, 1])

    for p in parts:
        if p != top:
            ledger.set_proved(top, p, "cor:n1n")
        if p != bottom:
            ledger.set_proved(p, bottom, "cor:n1n")
    hooks = [hook(n, k) for k in range(n)]
    for i in range(len(hooks)):
        for j in range(i + 1, len(hooks)):
            ledger.set_proved(hooks[i], hooks[j], "bacher")
    for p in parts:
        if p not in (top, std):
            ledger.set_proved(std, p, "clr")
    k = 1
    while n >= 4 * k * k + 4 * k:
        row_class = [p for p in parts if in_row_class(p, k)]
        col_class = [p for p in parts if in_row_class(conjugate(p), k)]
        for tau in row_class:
            for sigma in col_class:
                if tau != sigma:
                    ledger.set_proved(tau, sigma, "main")
        k += 1
    ledger.close_transitively()

    # refutations on every lexicographically ascending pair
    exact_weights = remark_weights(n)
    quasi_witness = {
        "kind": "quasi",
        "n": n,
        "weights": [str(w) for w in exact_weights],
    }
    lam1 = {
        p: quasi_complete_spectrum(p, exact_weights, exact=True).lambda1
        for p in parts
    }
    for alpha in parts:
        for beta in parts:
            if alpha == beta or lex_compare(alpha, beta) >= 0:
                continue
            if dominates(beta, alpha):
                margin = content_sum(beta) - content_sum(alpha)
                if margin <= 0:
                    raise LedgerConflict("content sums must strictly drop")
                ledger.set_refuted(
                    alpha, beta,
                    {"kind": "family", "family": "complete", "n": n},
                    float(margin), True, "ds81",
                )
            else:
                margin = lam1[alpha] - lam1[beta]
                if margin <= 0:
                    raise LedgerConflict(
                        f"separator weights fail on {alpha} vs {beta}"
                    )
                ledger.set_refuted(
                    alpha, beta, quasi_witness, float(margin), True, "remark1"
                )

    if n >= 4:
        two_two = Partition([2, 2] + [1] * (n - 4))
        one_col = Partition([2] + [1] * (n - 2))
        ledger.set_refuted(
            two_two, one_col,
            {"kind": "family", "family": "star", "n": n, "params": {"k": n}},
            1.0, True, "cor:asympval",
        )
    return ledger


# -- scanning -----------------------------------------------------------------

SCAN_FAMILIES = ("stars", "cliques", "cycles", "paths", "matchings", "quasi", "random")


def _family_graphs(name: str, n: int, budget: int, seed: int):
    """Deterministic witness candidates, structured families first."""
    if name == "stars":
        for k in range(2, n + 1):
            yield star_graph(n, k), {"kind": "family", "family": "star", "n": n,
                                     "params": {"k": k}}
    elif name == "cliques":
        for k in range(3, n + 1):
            yield complete_on_first(n, k), {"kind": "family", "family": "clique",
                                            "n": n, "params": {"k": k}}
    elif name == "cycles":
        if n >= 3:
            yield cycle_graph(n), {"kind": "family", "family": "cycle", "n": n}
    elif name == "paths":
        yield path_graph(n), {"kind": "family", "family": "path", "n": n}
    elif name == "matchings":
        for m in range(1, n // 2 + 1):
            yield matching_graph(n, m), {"kind": "family", "family": "matching",
                                         "n": n, "params": {"m": m}}
    elif name == "quasi":
        rng = np.random.default_rng(seed)
        for _ in range(min(budget, 25)):
            a = [int(x) for x in rng.integers(0, 4, size=n - 1)]
            if not any(a):
                a[0] = 1
            yield quasi_complete_graph(n, a), {"kind": "quasi", "n": n,
                                               "weights": [str(x) for x in a]}
    elif name == "random":
        for i in range(budget):
            graph = random_graph(n, seed + i)
            yield graph, None
    else:
        raise ValueError(f"unknown scan family {name!r}")


@dataclass
class ScanReport:
    n: int
    graphs_tried: int = 0
    refutations_found: int = 0
    # (shape, graph) evaluations dropped because the shape's dimension is
    # above dim_cap; pairs with such a shape stay undecided by that graph
    skipped_shapes: int = 0
    contradictions: list = field(default_factory=list)

    @property
    def consistent(self) -> bool:
        return not self.contradictions


def scan(n: int, families: Sequence[str] = SCAN_FAMILIES, budget: int = 100,
         tol: float = DEFAULT_TOL, seed: int = 0,
         dim_cap: int = DEFAULT_DIM_CAP, workers: int = 1):
    """Search family and random graphs for refutations of undecided pairs.

    Starts from the seeded ledger. Every graph is also audited against the
    proved entries; a margin there is a contradiction and lands in the
    report instead of the ledger. Deterministic for a fixed seed.
    """
    ledger = seed_known(n)
    report = ScanReport(n)
    parts = partitions_of(n)
    threshold = 10 * tol

    def evaluate(args):
        shape, graph = args
        try:
            lam, _, exact = lambda_extremes(shape, graph, dim_cap=dim_cap)
        except DimensionCapExceeded:
            return None
        return lam, exact

    pool = None
    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor

        pool = ThreadPoolExecutor(max_workers=workers)
    try:
        for family in families:
            for graph, descriptor in _family_graphs(family, n, budget, seed):
                report.graphs_tried += 1
                todo = [p for p in ledger.pairs() if ledger.status(*p) != "refuted"]
                if not todo:
                    continue
                shapes = sorted({s for pair in todo for s in pair},
                                key=parts.index)
                jobs = [(shape, graph) for shape in shapes]
                # ordered map keeps the merge deterministic for any pool size
                outcomes = list(pool.map(evaluate, jobs)) if pool else [
                    evaluate(job) for job in jobs
                ]
                values = {}
                exact_flags = {}
                for shape, outcome in zip(shapes, outcomes):
                    if outcome is None:
                        report.skipped_shapes += 1
                        continue
                    values[shape], exact_flags[shape] = outcome
                for sigma, tau in todo:
                    if sigma not in values or tau not in values:
                        continue
                    exact = exact_flags[sigma] and exact_flags[tau]
                    margin = values[sigma] - values[tau]
                    if margin <= (0 if exact else threshold):
                        continue
                    if ledger.status(sigma, tau) == "proved":
                        report.contradictions.append(
                            {"sigma": str(sigma), "tau": str(tau),
                             "margin": float(margin),
                             "witness": graph_witness(graph, descriptor)}
                        )
                        continue
                    ledger.set_refuted(sigma, tau, graph_witness(graph, descriptor),
                                       float(margin), exact, "scan")
                    report.refutations_found += 1
    finally:
        if pool:
            pool.shutdown()
    return ledger, report


# -- the bound lemmas ---------------------------------------------------------

@dataclass
class BoundReport:
    name: str
    ok: bool
    bound: float
    worst: float
    trials: int = 1


def _require_row_class(sigma: Partition, k: int) -> None:
    if not in_row_class(sigma, k):
        raise ValueError(f"{sigma} is not in the first-row >= n-{k} class")


def check_matching_bound(sigma: Partition, k: int, trials: int = 1,
                         tol: float = DEFAULT_TOL, seed: int = 0) -> BoundReport:
    """Largest eigenvalue of a 2k-edge matching stays at or below 2k."""
    n = sigma.n
    _require_row_class(sigma, k)
    if n < 4 * k:
        raise ValueError(f"need n >= 4k = {4 * k}, got {n}")
    rng = np.random.default_rng(seed)
    worst = 0.0
    for t in range(max(1, trials)):
        if t == 0:
            graph = matching_graph(n, 2 * k)
        else:
            relabel = rng.permutation(n) + 1
            edges = [
                (min(relabel[2 * i], relabel[2 * i + 1]),
                 max(relabel[2 * i], relabel[2 * i + 1]), 1.0)
                for i in range(2 * k)
            ]
            graph = WeightedGraph.from_edges(n, edges)
        _, lam_max, _ = lambda_extremes(sigma, graph)
        worst = max(worst, float(lam_max))
    return BoundReport("matching", worst <= 2 * k + tol, 2 * k, worst,
                       max(1, trials))


def check_onestar_bound(sigma: Partition, k: int, l: int) -> BoundReport:
    """Largest star eigenvalue (l edges) stays at or below l + k, exactly."""
    from .spectral import star_spectrum

    _require_row_class(sigma, k)
    if not 1 <= l <= sigma.n - 1:
        raise ValueError(f"need 1 <= l <= {sigma.n - 1}, got {l}")
    lam_max = star_spectrum(sigma, l + 1).lambda_max
    return BoundReport("onestar", lam_max <= l + k, l + k, float(lam_max))


def check_weightedstar_bound(sigma: Partition, k: int, a,
                             tol: float = DEFAULT_TOL) -> BoundReport:
    """Weighted-star bound: twice the k heaviest edges plus the rest."""
    _require_row_class(sigma, k)
    a = [float(x) for x in a]
    if len(a) != sigma.n - 1:
        raise ValueError(f"need {sigma.n - 1} weights")
    if any(a[i] < a[i + 1] for i in range(len(a) - 1)) or a[-1] < 0:
        raise ValueError("weights must be sorted nonincreasing and nonnegative")
    graph = weighted_star_graph(sigma.n, a)
    _, lam_max, _ = lambda_extremes(sigma, graph)
    bound = 2 * sum(a[:k]) + sum(a[k:])
    return BoundReport("weightedstar", lam_max <= bound + tol, bound, float(lam_max))


def check_invariant_vector_bound(sigma: Partition, k: int, graph: WeightedGraph,
                                 vertices: Sequence[int],
                                 tol: float = DEFAULT_TOL) -> BoundReport:
    """Lowest eigenvalue at or below twice the chosen vertices' weight."""
    _require_row_class(sigma, k)
    vertices = list(vertices)
    if len(set(vertices)) != k or not all(1 <= v <= graph.n for v in vertices):
        raise ValueError(f"need {k} distinct vertices in 1..{graph.n}")
    lam1, _, _ = lambda_extremes(sigma, graph)
    bound = 2.0 * sum(float(graph.weights[v - 1].sum()) for v in vertices)
    return BoundReport("invariant_vector", lam1 <= bound + tol, bound, float(lam1))


# -- reducing machinery -------------------------------------------------------

def check_reducing(h: WeightedGraph, sigma: Partition, tau: Partition,
                   tol: float = DEFAULT_TOL) -> bool:
    """Is h a reducing graph for (sigma, tau)?

    Evaluated in the dual form: lambda_max(h; sigma) plus lambda_max on the
    conjugate of tau must not exceed twice the total weight. The matching
    graphs this gets used on meet the bound with equality, so the exact
    route compares rationals with no slack and the numeric route gets tol.
    """
    _, lam_s, exact_s = lambda_extremes(sigma, h)
    _, lam_t, exact_t = lambda_extremes(conjugate(tau), h)
    weights = quasi_complete_weights(h)
    if exact_s and exact_t and weights is not None:
        wt = sum(w * k for k, w in enumerate(weights, start=1))
        return lam_s + lam_t <= 2 * wt
    return lam_s + lam_t <= 2 * h.wt + tol


def max_matching_size(graph: WeightedGraph) -> int:
    return support_matching_number(graph)


def is_h_irreducible(graph: WeightedGraph, k: int) -> bool:
    """No 2k disjoint edges in the support: the matching case of
    H-irreducibility, the one the reduction argument uses."""
    return max_matching_size(graph) < 2 * k


def star_decompose(graph: WeightedGraph, k: int) -> list[WeightedGraph]:
    """Split a matching-2k-irreducible graph into at most 4k-2 stars.

    Greedy: take the lexicographically first positive edge, split off the
    stars at its two endpoints (the shared edge goes with the first), and
    repeat; at most 2k-1 rounds can happen, else a 2k-matching existed.
    Star weights are moved, never recomputed, so they sum back exactly.
    """
    if not is_h_irreducible(graph, k):
        raise ValueError("graph has 2k disjoint edges; not star-decomposable")
    w = np.array(graph.weights)
    n = graph.n
    stars: list[WeightedGraph] = []
    for _ in range(2 * k - 1):
        edge = None
        for i in range(n):
            hits = np.nonzero(w[i, i + 1:])[0]
            if hits.size:
                edge = (i, i + 1 + int(hits[0]))
                break
        if edge is None:
            break
        for center in edge:
            if not np.any(w[center] > 0):
                continue
            star = np.zeros((n, n))
            star[center, :] = w[center, :]
            star[:, center] = w[:, center]
            stars.append(WeightedGraph(star))
            w[center, :] = 0.0
            w[:, center] = 0.0
    if np.any(w > 0):
        raise AssertionError("decomposition did not exhaust the graph")
    return stars


# -- DOT export ---------------------------------------------------------------

def export_dot(ledger: RelationLedger) -> str:
    """DOT digraph: transitive reduction of the proved relation, with
    mutually refuted pairs annotated as dotted non-arrows."""
    import networkx as nx

    parts = list(partitions_of(ledger.n))
    dag = nx.DiGraph()
    dag.add_nodes_from(str(p) for p in parts)
    for sigma, tau in ledger.proved_pairs():
        dag.add_edge(str(sigma), str(tau))
    if not nx.is_directed_acyclic_graph(dag):
        raise LedgerConflict("proved relation contains a cycle")
    reduced = nx.transitive_reduction(dag)

    lines = [f"digraph aldous_order_n{ledger.n} {{"]
    lines.append('  rankdir=TB;')
    for p in parts:
        lines.append(f'  "{p}" [label="{p.compact_str()}"];')
    for sigma in parts:
        for tau in parts:
            if reduced.has_edge(str(sigma), str(tau)):
                lines.append(f'  "{sigma}" -> "{tau}";')
    for i, sigma in enumerate(parts):
        for tau in parts[i + 1:]:
            both = (
                ledger.status(sigma, tau) == "refuted"
                and ledger.status(tau, sigma) == "refuted"
            )
            if both:
                lines.append(
                    f'  "{sigma}" -> "{tau}" '
                    "[style=dotted, dir=none, label=incomparable];"
                )
    lines.append("}")
    return "\n".join(lines) + "\n"
