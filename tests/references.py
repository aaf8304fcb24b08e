"""Independent references the tests check the package against: a standard
tableau enumerator, the unmemoized corner-removal game, the Hasse diagram
drawn through networkx, and the reducing lemmas (reducing graphs, matching
irreducibility, star decompositions), which no command runs."""

import networkx as nx
import numpy as np

from aldous.graphs import WeightedGraph, support_matching_number
from aldous.order import DEFAULT_TOL, LedgerConflict, RelationLedger, lambda_extremes
from aldous.partitions import Partition, corners, partitions_of, remove_box


def tableaux(shape: Partition) -> list[tuple[tuple[int, int], ...]]:
    """The standard tableaux of `shape`, each as the (row, col) cell of
    label k at index k - 1, both 1-based. Labels 1..n are placed one at a
    time, each into a cell the diagram filled so far can take; the list is
    then sorted by the canonical key of `symrep._row_keys`: the rows of the
    labels read from label n down, descending."""
    parts = shape.parts
    found = []

    def place(filled, cells):
        if len(cells) == shape.n:
            found.append(tuple(cells))
            return
        for row, part in enumerate(parts):
            col = filled[row]
            if col < part and (row == 0 or filled[row - 1] > col):
                filled[row] += 1
                place(filled, cells + [(row + 1, col + 1)])
                filled[row] -= 1

    place([0] * len(parts), [])
    return sorted(found, key=lambda cells: [row for row, _ in reversed(cells)],
                  reverse=True)


def game_winner_brute(sigma: Partition, tau: Partition) -> bool:
    """Unmemoized twin of game.game_winner, the small-n oracle."""
    if sigma.n != tau.n:
        raise ValueError("diagrams must have equal size")

    def rec(a_shape: Partition, b_shape: Partition) -> bool:
        if a_shape.n == 0:
            return True
        return all(
            any(
                a_box.content >= b_box.content
                and rec(remove_box(a_shape, a_box), remove_box(b_shape, b_box))
                for a_box in corners(a_shape)
            )
            for b_box in corners(b_shape)
        )

    return rec(sigma, tau)


def export_dot_networkx(ledger: RelationLedger) -> str:
    """order.export_dot through networkx: the proved pairs as a DiGraph keyed
    by partition names, its acyclicity check and transitive reduction, and
    a has_edge query for every ordered pair."""
    parts = list(partitions_of(ledger.n))
    dag = nx.DiGraph()
    dag.add_nodes_from(str(p) for p in parts)
    for sigma, tau in ledger.proved_pairs():
        dag.add_edge(str(sigma), str(tau))
    if not nx.is_directed_acyclic_graph(dag):
        raise LedgerConflict("proved relation contains a cycle")
    reduced = nx.transitive_reduction(dag)

    lines = [f"digraph aldous_order_n{ledger.n} {{", '  rankdir=TB;']
    lines += [f'  "{p}" [label="{p.compact_str()}"];' for p in parts]
    lines += [f'  "{sigma}" -> "{tau}";' for sigma in parts for tau in parts
              if reduced.has_edge(str(sigma), str(tau))]
    index = {p: i for i, p in enumerate(parts)}
    lines += [f'  "{sigma}" -> "{tau}" [style=dotted, dir=none, label=incomparable];'
              for sigma, tau in ledger.refuted_pairs()
              if index[sigma] < index[tau] and ledger.status(tau, sigma) == "refuted"]
    lines.append("}")
    return "\n".join(lines) + "\n"


def check_reducing(h: WeightedGraph, sigma: Partition, tau: Partition,
                   tol: float = DEFAULT_TOL) -> bool:
    """Is h a reducing graph for (sigma, tau)?

    The dual form of the test, lambda_max(h; sigma) plus lambda_max on the
    conjugate of tau at most twice the total weight, is lambda_max(h; sigma)
    <= lambda_1(h; tau), since the operator on the conjugate is exactly
    2 wt I minus the one on tau. The matching graphs this gets used on meet
    the bound with equality, so the exact route compares rationals with no
    slack and the numeric route gets tol.
    """
    _, lam_s, exact_s = lambda_extremes(sigma, h)
    lam_t, _, exact_t = lambda_extremes(tau, h)
    return lam_s <= lam_t if exact_s and exact_t else lam_s <= lam_t + tol


def is_h_irreducible(graph: WeightedGraph, k: int) -> bool:
    """No 2k disjoint edges in the support: the matching case of
    H-irreducibility, the one the reduction argument uses."""
    return support_matching_number(graph) < 2 * k


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
