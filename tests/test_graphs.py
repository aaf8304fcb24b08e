"""Graph construction against per-item reference loops, and the checks on
graph input from outside: edge lists, JSON documents, random-graph
arguments."""

import warnings
from fractions import Fraction

import numpy as np
import pytest

from aldous import graphs
from aldous.graphs import (
    WeightedGraph,
    complete_graph,
    quasi_complete_graph,
    quasi_complete_weights,
    random_graph,
    star_graph,
)


def reference_random_graph(n, seed, density):
    """One scalar draw at a time: a coin per pair, then its weight."""
    rng = np.random.default_rng(seed)
    w = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                w[i, j] = w[j, i] = 1.0 - rng.random()
    return w


def reference_wt(weights):
    return float(np.sum(np.triu(weights, 1)))


# uniform(0,1] is the one weight distribution random_graph draws; the
# parameter keeps these cases' names
@pytest.mark.parametrize("distribution", ["uniform"])
@pytest.mark.parametrize("density", [0, 0.3, 0.5, 1])
def test_random_graph_matches_the_per_pair_reference(density, distribution):
    for n in range(1, 11):
        for seed in (0, 1, 7, 2**31 - 1):
            graph = random_graph(n, seed, density)
            expected = reference_random_graph(n, seed, density)
            assert graph.weights.tobytes() == expected.tobytes()
            assert graph.wt.hex() == reference_wt(expected).hex()


@pytest.mark.parametrize("density", [2, -1, 1.0000001, float("nan"), "0.5", None])
def test_random_graph_rejects_a_bad_density(density):
    with pytest.raises(ValueError, match="density must be in"):
        random_graph(4, 0, density)


def test_random_graph_checks_its_arguments_before_drawing(monkeypatch):
    def no_draws(seed):
        raise AssertionError("drew before checking")

    monkeypatch.setattr(graphs.np.random, "default_rng", no_draws)
    with pytest.raises(ValueError, match="density"):
        random_graph(5, 0, float("nan"))


def reference_nested_weights(graph):
    """Column by column: every entry above the diagonal equals row 0's."""
    a = []
    w = graph.weights
    for j in range(1, graph.n):
        col = w[:j, j]
        if np.any(col != col[0]):
            return None
        a.append(Fraction(float(col[0])))
    return a


def _nested_cases():
    rng = np.random.default_rng(5)
    cases = [complete_graph(1), WeightedGraph(np.zeros((0, 0))), complete_graph(2)]
    for n in range(2, 9):
        a = rng.random(n - 1)
        a[rng.integers(0, n - 1)] = 0.0
        nested = quasi_complete_graph(n, a)
        cases += [nested, star_graph(n, n), random_graph(n, n), random_graph(n, n, 1.0)]
        for i, j in [(0, n - 1), (n - 2, n - 1), (1 % (n - 1), n - 1)]:
            # one entry (and its mirror) off by one ulp
            w = nested.weights.copy()
            w[i, j] = w[j, i] = np.nextafter(w[i, j], 2.0)
            cases.append(WeightedGraph(w))
    w = quasi_complete_graph(4, [0.5, 0.0, 0.25]).weights.copy()
    w[1, 2] = w[2, 1] = -0.0  # equal to row 0's 0.0
    cases.append(WeightedGraph(w))
    w = quasi_complete_graph(4, [0.5, 0.0, 0.25]).weights.copy()
    w[0, 2] = w[2, 0] = -0.0  # row 0 itself holds the -0.0
    cases.append(WeightedGraph(w))
    return cases


@pytest.mark.parametrize("graph", _nested_cases(), ids=lambda graph: f"n={graph.n}")
def test_quasi_complete_weights_matches_the_per_column_reference(graph):
    found = quasi_complete_weights(graph)
    expected = reference_nested_weights(graph)
    assert found == expected
    if found is not None:
        assert all(type(x) is Fraction for x in found)


@pytest.mark.parametrize("n, edges, message", [
    (4.0, [], "n must be a nonnegative int, got 4.0"),
    (True, [], "n must be a nonnegative int, got True"),
    (-1, [], "n must be a nonnegative int, got -1"),
    ("4", [], "n must be a nonnegative int"),
    (None, [], "n must be a nonnegative int"),
    (4, None, "edges must be a list"),
    (4, 5, "edges must be a list"),
    (4, [[1, 2]], r"edge \[1, 2\] must be \[i, j, weight\]"),
    (4, [[1, 2, 1.0, 0]], "must be \\[i, j, weight\\]"),
    (4, [5], "edge 5 must be"),
    (4, [[1.5, 2, 1.0]], "vertices must be ints"),
    (4, [[1, 2.0, 1.0]], "vertices must be ints"),
    (4, [[True, 2, 1.0]], "vertices must be ints"),
    (4, [["1", 2, 1.0]], "vertices must be ints"),
    (4, [[2, 1, 1.0]], r"edge \(2,1\) must satisfy 1 <= i < j <= n"),
    (4, [[1, 5, 1.0]], "must satisfy"),
    (4, [[1, 2, "x"]], "weight 'x' is not a real number"),
    (4, [[1, 2, None]], "weight None is not a real number"),
    (4, [[1, 2, True]], "weight True is not a real number"),
    (4, [[1, 2, -1.0]], r"negative weight on edge \(1,2\)"),
    (4, [[1, 2, 1.0], [1, 2, 2.0]], r"edge \(1,2\) given twice"),
    (4, [[1, 2, 0.0], [3, 4, 1.0], [1, 2, 0.0]], "given twice"),
    (4, [[1, 2, float("nan")]], "weights must be finite"),
    (4, [[1, 2, 10**400]], r"edge \(1,2\): weight too large for a float"),
    (4, [[1, 2, Fraction(10**400, 3)]], "too large for a float"),
    # the first bad item of an edge decides, vertices before the weight
    (4, [[1.5, 9, "x"]], "vertices must be ints"),
    (4, [[2, 9, "x"]], "must satisfy"),
    (4, [[1, 2, "x"], [1, 2, -1.0]], "not a real number"),
])
def test_from_edges_rejects_bad_input(n, edges, message):
    with pytest.raises(ValueError, match=message):
        WeightedGraph.from_edges(n, edges)


def test_from_edges_accepts_numpy_and_exact_numbers():
    graph = WeightedGraph.from_edges(np.int64(3), [(np.int32(1), 3, Fraction(1, 4)),
                                                   [2, np.int64(3), np.float32(0.5)]])
    assert graph.edges() == [(1, 3, 0.25), (2, 3, 0.5)]


@pytest.mark.parametrize("text, message", [
    ("[1, 2]", "graph JSON must be"),
    ('{"n": 3}', "edges must be a list"),
    ('{"edges": []}', "n must be a nonnegative int, got None"),
    ('{"n": 3, "edges": [[1, 2, 1.0], [1, 2, 1.0]]}', "given twice"),
    ("{", "Expecting"),
])
def test_from_json_rejects_bad_documents(text, message):
    with pytest.raises(ValueError, match=message):
        WeightedGraph.from_json(text)


def test_from_stack_is_one_weighted_graph_per_matrix():
    rng = np.random.default_rng(4)
    for n in (0, 1, 5, 12):
        stack = np.where(rng.random((30, n, n)) < 0.5, rng.random((30, n, n)) * 1e3, 0.0)
        stack = np.triu(stack, 1)
        stack = stack + stack.swapaxes(1, 2)
        found = WeightedGraph.from_stack(stack)
        assert len(found) == 30
        for graph, weights in zip(found, stack):
            one = WeightedGraph(weights)
            assert graph == one and graph.n == n and graph.wt == one.wt
            assert not graph.weights.flags.writeable
    assert stack.flags.writeable  # from_stack froze its own copy
    assert WeightedGraph.from_stack(stack[:0]) == []


@pytest.mark.parametrize("entry, message", [
    (-1.0, "weights must be nonnegative"),
    (float("nan"), "weights must be finite"),
    (float("inf"), "weights must be finite"),
])
def test_from_stack_names_the_first_failing_matrix(entry, message):
    stack = np.ones((3, 4, 4)) - np.eye(4)
    stack[1, 0, 2] = stack[1, 2, 0] = entry
    with pytest.raises(ValueError, match=message):
        WeightedGraph.from_stack(stack)
    stack[1, 2, 0] = 0.5
    with pytest.raises(ValueError, match="weight matrix must be symmetric"
                       if entry == -1.0 else message):
        WeightedGraph.from_stack(stack)
    with pytest.raises(ValueError, match=r"need a \(G, n, n\) stack"):
        WeightedGraph.from_stack(np.zeros((3, 4)))


def _graph_matrices():
    """(id, matrix) cases for the one graph check: random valid matrices of
    several sizes, n = 0 included, and one matrix failing each check."""
    rng = np.random.default_rng(8)
    cases = []
    for n in (0, 1, 2, 5, 12):
        w = np.triu(np.where(rng.random((n, n)) < 0.5, rng.random((n, n)), 0.0), 1)
        cases.append((f"valid n={n}", w + w.T))
    ones = np.ones((4, 4)) - np.eye(4)
    for name, (i, j), value in [("negative", (0, 2), -1.0), ("nan", (0, 2), float("nan")),
                                ("inf", (0, 2), float("inf")), ("diagonal", (1, 1), 1.0),
                                ("overflow", (0, 2), 1e308)]:
        w = ones.copy()
        w[i, j] = w[j, i] = value
        cases.append((name, w))
    w = ones.copy()
    w[0, 2] = 0.5
    cases.append(("asymmetric", w))
    return cases


@pytest.mark.parametrize("weights", [w for _, w in _graph_matrices()],
                         ids=[name for name, _ in _graph_matrices()])
def test_weighted_graph_is_the_one_matrix_case_of_from_stack(weights):
    try:
        one = WeightedGraph(weights)
    except ValueError as exc:
        message = str(exc)
        # the first failing matrix of a stack raises the same error
        valid = np.zeros_like(weights)
        for stack in ([weights], [valid, weights, weights * np.nan]):
            with pytest.raises(ValueError, match=f"^{message}$"):
                WeightedGraph.from_stack(stack)
        return
    (row,) = WeightedGraph.from_stack([weights])
    assert row.weights.tobytes() == one.weights.tobytes() and row.n == one.n
    assert row.wt.hex() == one.wt.hex() == reference_wt(weights).hex()


def test_from_stack_overflow_is_an_error_without_a_warning():
    huge = np.array([[[0, 1e308], [1e308, 0]]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for build in (lambda: WeightedGraph.from_stack(huge), lambda: WeightedGraph(huge[0])):
            with pytest.raises(ValueError, match="twice their total overflows a float"):
                build()


def reference_quasi_complete(n, a):
    """Column by column: edge (i, j), i < j, weighs a[j]."""
    w = np.zeros((n, n))
    for j in range(2, n + 1):
        w[: j - 1, j - 1] = w[j - 1, : j - 1] = float(a[j - 2])
    return w


@pytest.mark.parametrize("n", [1, 2, 3, 6, 10])
def test_quasi_complete_graph_is_one_row_of_quasi_complete_stack(n):
    rng = np.random.default_rng(n)
    rows = rng.random((7, n - 1)) * 10.0 ** rng.integers(-3, 4, size=(7, 1))
    rows[1] = 0.0
    rows[2, ::2] = 0.0
    stack = graphs.quasi_complete_stack(rows)
    assert stack.shape == (7, n, n) and stack.flags.c_contiguous
    for a, weights in zip(rows.tolist(), stack):
        expected = reference_quasi_complete(n, a)
        assert weights.tobytes() == expected.tobytes()
        assert quasi_complete_graph(n, a).weights.tobytes() == expected.tobytes()
    assert graphs.quasi_complete_stack(np.zeros((0, n - 1))).shape == (0, n, n)


@pytest.mark.parametrize("bad, message", [(-0.5, "weights must be nonnegative"),
                                          (float("nan"), "weights must be finite"),
                                          (float("inf"), "weights must be finite")])
def test_quasi_complete_graph_and_its_stack_refuse_alike(bad, message):
    a = [0.5, bad, 1.0]
    with pytest.raises(ValueError, match=message):
        quasi_complete_graph(4, a)
    with pytest.raises(ValueError, match=message):
        WeightedGraph.from_stack(graphs.quasi_complete_stack([[1.0, 1.0, 1.0], a]))
