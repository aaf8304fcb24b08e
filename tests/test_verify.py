"""The stacked verify suites against per-graph loops.

Each reference below evaluates one (shape, graph) operator at a time through
delta_matrix and spectrum, or one bound instance at a time through the
batched checks given one instance each; the suites must report the same check dicts, floats
included.
"""

import numpy as np
import pytest

from aldous.graphs import quasi_complete_graph, random_graph, star_graph
from aldous.order import (
    check_invariant_vector_bounds,
    check_matching_bound,
    check_onestar_bound,
    check_weightedstar_bounds,
    hook,
)
from aldous.partitions import (
    Partition,
    conjugate,
    content_matrix,
    num_standard_tableaux,
    partitions_of,
)
from aldous.spectral import (
    laplacian_gap,
    multiset_distance,
    quasi_complete_spectrum,
    spectrum,
    subset_sum_spectrum,
)
from aldous.symrep import delta_matrix, regular_delta
from aldous.verify import (
    SuiteResult,
    suite_bounds,
    suite_consistency,
    suite_dual,
    suite_hooks,
    suite_lemma9,
    suite_oracle,
    suite_qc,
)


def numeric(shape, graph):
    return spectrum(delta_matrix(shape, graph))


def reference_lemma9(n, tol=1e-8):
    result = SuiteResult("lemma9")
    for size in range(4, n + 1):
        for shape in partitions_of(size):
            for k in range(2, size + 1):
                # the star at k acts by (k-1) + row - col of the box holding k
                exact = [float(k - 1 - c) for c in content_matrix(shape)[:, k - 1]]
                dist = multiset_distance(exact,
                                         numeric(shape, star_graph(size, k)))
                result.add(f"lemma9 n={size} shape={shape} k={k}", dist < tol,
                           distance=dist)
    return result


def reference_qc_formula(n, samples, seed, tol=1e-8):
    result = SuiteResult("qc")
    rng = np.random.default_rng(seed)
    for size in range(3, min(n, 6) + 1):
        for _ in range(samples):
            a = rng.random(size - 1)
            worst = 0.0
            for shape in partitions_of(size):
                formula = quasi_complete_spectrum(shape, list(a))
                found = numeric(shape, quasi_complete_graph(size, a))
                worst = max(worst, multiset_distance(formula, found))
            result.add(f"qc formula n={size}", worst < tol, distance=worst)
    return result


def reference_hooks(n, graphs, seed, tol=1e-6):
    result = SuiteResult("hooks")
    for size in range(3, n + 1):
        for g in range(graphs):
            graph = random_graph(size, seed + 1000 * size + g)
            worst = 0.0
            base = numeric(hook(size, 1), graph)
            for k in range(size):
                expected = subset_sum_spectrum(base, k)
                found = numeric(hook(size, k), graph)
                worst = max(worst, multiset_distance(expected, found))
            result.add(f"hooks n={size} graph={g}", worst < tol, distance=worst)
    return result


def reference_oracle(n, graphs, seed, tol=1e-7):
    result = SuiteResult("oracle")
    for size in range(3, min(n, 5) + 1):
        for g in range(graphs):
            graph = random_graph(size, seed + 100 * size + g)
            full = spectrum(regular_delta(graph))
            expected = []
            for shape in partitions_of(size):
                expected.extend(numeric(shape, graph) * num_standard_tableaux(shape))
            dist = multiset_distance(full, expected)
            result.add(f"oracle n={size} graph={g}", dist < tol, distance=dist)
    return result


def reference_dual(n, graphs, seed, tol=1e-8, triv_tol=1e-9):
    result = SuiteResult("dual")
    for size in range(2, n + 1):
        worst_dual = 0.0
        worst_triv = -float("inf")
        for g in range(graphs):
            graph = random_graph(size, seed + 997 * size + g)
            spectra = {shape: numeric(shape, graph) for shape in partitions_of(size)}
            for shape in partitions_of(size):
                lam_max = spectra[shape][-1]
                lam1_conj = spectra[conjugate(shape)][0]
                worst_dual = max(worst_dual, abs(lam_max - (2 * graph.wt - lam1_conj)))
                worst_triv = max(worst_triv, lam_max - 2 * graph.wt)
        result.add(f"duality n={size}", worst_dual < tol, distance=worst_dual)
        result.add(f"trivial bound n={size}", worst_triv <= triv_tol, excess=worst_triv)
    return result


def reference_gap(n, seed, graphs, tol=1e-9):
    rng = np.random.default_rng(seed + 1)
    worst_gap = 0.0
    argmin_ok = True
    for _ in range(graphs):
        size = int(rng.integers(3, min(n, 7) + 1))
        graph = random_graph(size, int(rng.integers(0, 2**31)))
        lam_std = numeric(Partition([size - 1, 1]), graph)[0]
        for shape in partitions_of(size):
            if shape != Partition([size]) and numeric(shape, graph)[0] < lam_std - tol:
                argmin_ok = False
        worst_gap = max(worst_gap, abs(lam_std - laplacian_gap(graph)))
    return {"name": "gap attained at standard rep", "ok": argmin_ok and worst_gap < tol,
            "worst_gap": worst_gap}


def reference_row_class_shape(rng, size, k):
    choices = [p for p in partitions_of(size) if p.parts[0] >= size - k]
    return choices[int(rng.integers(0, len(choices)))]


def reference_bounds(n, trials, seed, tol=1e-9):
    """Violations of the four lemmas, one instance at a time."""
    rng = np.random.default_rng(seed)
    analytic_max, numeric_max = min(n, 12), min(n, 8)
    counts = []
    failures = 0
    for _ in range(trials):
        size = int(rng.integers(5, analytic_max + 1))
        k = int(rng.integers(1, min(4, size - 1) + 1))
        sigma = reference_row_class_shape(rng, size, k)
        failures += not check_onestar_bound(sigma, k, int(rng.integers(1, size))).ok
    counts.append(failures)
    failures = 0
    for _ in range(trials):
        k = int(rng.integers(1, max(1, numeric_max // 4) + 1))
        size = int(rng.integers(4 * k, numeric_max + 1))
        sigma = reference_row_class_shape(rng, size, k)
        failures += not check_matching_bound(sigma, k, trials=1, tol=tol,
                                             seed=int(rng.integers(0, 2**31))).ok
    counts.append(failures)
    failures = 0
    for _ in range(trials):
        size = int(rng.integers(4, numeric_max + 1))
        k = int(rng.integers(1, (3 if size <= 6 else 2) + 1))
        sigma = reference_row_class_shape(rng, size, k)
        a = sorted((float(x) for x in rng.random(size - 1)), reverse=True)
        failures += not check_weightedstar_bounds([(sigma, k, a)], tol=tol)[0].ok
    counts.append(failures)
    failures = 0
    for _ in range(trials):
        size = int(rng.integers(4, numeric_max + 1))
        k = int(rng.integers(1, 3))
        sigma = reference_row_class_shape(rng, size, k)
        graph = random_graph(size, int(rng.integers(0, 2**31)))
        vertices = [int(v) + 1 for v in rng.choice(size, size=k, replace=False)]
        failures += not check_invariant_vector_bounds([(sigma, k, graph, vertices)],
                                                      tol=tol)[0].ok
    counts.append(failures)
    return counts


def test_lemma9_matches_the_per_graph_loop():
    assert suite_lemma9(5).checks == reference_lemma9(5).checks


def test_qc_formula_matches_the_per_graph_loop():
    found = [c for c in suite_qc(5, samples=12, seed=4).checks
             if c["name"].startswith("qc formula")]
    assert found == reference_qc_formula(5, samples=12, seed=4).checks


def test_hooks_match_the_per_graph_loop():
    assert suite_hooks(5, graphs=8, seed=2).checks == reference_hooks(5, 8, 2).checks


def test_oracle_matches_the_per_graph_loop():
    assert suite_oracle(5, graphs=4, seed=1).checks == reference_oracle(5, 4, 1).checks


def test_dual_matches_the_per_graph_loop():
    assert suite_dual(5, graphs=10, seed=3).checks == reference_dual(5, 10, 3).checks


def test_gap_check_matches_the_per_graph_loop():
    checks = suite_consistency(5, budget=5, seed=6, graphs=30).checks
    assert checks[-1] == reference_gap(5, seed=6, graphs=30)


def test_bounds_violations_match_single_instance_checks():
    checks = suite_bounds(5, trials=60, seed=8).checks
    assert [c["violations"] for c in checks] == reference_bounds(5, 60, 8)
    assert all(c["ok"] for c in checks)


class DrawLog:
    """A generator that records every draw made from it: method, arguments
    and the values returned."""

    def __init__(self, rng, log):
        self._rng, self._log = rng, log

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def draw(*args, **kwargs):
            value = method(*args, **kwargs)
            self._log.append((name, args, kwargs, np.asarray(value).tolist()))
            return value

        return draw


def draw_logs(monkeypatch, run):
    """The draw log of each generator that run() creates, in creation order."""
    make = np.random.default_rng
    logs = []

    def logged(seed=None):
        logs.append([])
        return DrawLog(make(seed), logs[-1])

    monkeypatch.setattr(np.random, "default_rng", logged)
    run()
    monkeypatch.setattr(np.random, "default_rng", make)
    return logs


def test_bounds_suite_makes_every_draw_of_the_single_instance_loop(monkeypatch):
    trials = 25
    suite = draw_logs(monkeypatch, lambda: suite_bounds(6, trials=trials, seed=3))
    reference = draw_logs(monkeypatch, lambda: reference_bounds(6, trials, 3))
    assert suite[0] == reference[0]
    # beyond the suite's own generator, only the invariant-vector lemma's
    # random graphs make one: a single-trial matching check needs none
    assert len(suite) == 1 + trials


def test_matching_bound_draws_only_for_relabelled_trials(monkeypatch):
    from aldous import order

    expected = check_matching_bound(Partition([7, 1]), 1)
    logs = draw_logs(monkeypatch, lambda: check_matching_bound(Partition([7, 1]), 1, seed=5))
    assert logs == []
    assert check_matching_bound(Partition([7, 1]), 1, seed=5) == expected
    logs = draw_logs(monkeypatch, lambda: check_matching_bound(Partition([8]), 1, trials=3))
    assert [name for name, *_ in logs[0]] == ["permutation", "permutation"]
    assert order._lemma_matching(8, 2) is order._lemma_matching(8, 2)


def test_consistency_suite_states_the_smallest_n():
    for n in (0, 1, 2):
        with pytest.raises(ValueError, match="the consistency suite needs n >= 3"):
            suite_consistency(n)
    assert suite_consistency(3, budget=5, graphs=4).passed
