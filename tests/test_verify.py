"""The batched verify suites against per-instance loops.

Each reference below makes the same array draws as its suite, from a
generator seeded the same way, and then evaluates one instance at a time:
one (shape, graph) operator through delta_matrix and spectrum, one graph
decoded pair by pair from the drawn arrays, or one bound instance through
a batched check given that instance alone. The suites must report the same
check dicts, floats included.
"""

import hashlib
import json
from collections import Counter

import numpy as np
import pytest

from aldous import verify
from aldous.graphs import WeightedGraph, quasi_complete_graph, star_graph
from aldous.order import (
    check_invariant_vector_bounds,
    check_matching_bound,
    check_onestar_bounds,
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
    SUITES,
    SuiteResult,
    game_consistency_run,
    run_suite,
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


def suite_rng(seed, suite):
    return np.random.default_rng([seed, *suite.encode()])


def draw_graphs(rng, count, size):
    """The coin and weight arrays a suite draws for `count` random graphs."""
    return rng.random((count, size, size)), rng.random((count, size, size))


def decoded_graph(coins, weights, size):
    """The random graph on the first `size` vertices of one drawn (coins,
    weights) pair, read one vertex pair at a time: joined when its coin is
    below 1/2, with weight 1 - its draw."""
    w = np.zeros((size, size))
    for i in range(size):
        for j in range(i + 1, size):
            if coins[i, j] < 0.5:
                w[i, j] = w[j, i] = 1.0 - weights[i, j]
    return WeightedGraph(w)


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
        for a in rng.random((samples, size - 1)):
            worst = 0.0
            for shape in partitions_of(size):
                formula = quasi_complete_spectrum(shape, list(a))
                found = numeric(shape, quasi_complete_graph(size, a))
                worst = max(worst, multiset_distance(formula, found))
            result.add(f"qc formula n={size}", worst < tol, distance=worst)
    return result


def reference_hooks(n, graphs, seed, tol=1e-6):
    result = SuiteResult("hooks")
    rng = suite_rng(seed, "hooks")
    for size in range(3, n + 1):
        coins, weights = draw_graphs(rng, graphs, size)
        for g in range(graphs):
            graph = decoded_graph(coins[g], weights[g], size)
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
    rng = suite_rng(seed, "oracle")
    for size in range(3, min(n, 5) + 1):
        coins, weights = draw_graphs(rng, graphs, size)
        for g in range(graphs):
            graph = decoded_graph(coins[g], weights[g], size)
            full = spectrum(regular_delta(graph))
            expected = []
            for shape in partitions_of(size):
                expected.extend(numeric(shape, graph) * num_standard_tableaux(shape))
            dist = multiset_distance(full, expected)
            result.add(f"oracle n={size} graph={g}", dist < tol, distance=dist)
    return result


def reference_dual(n, graphs, seed, tol=1e-8, triv_tol=1e-9):
    result = SuiteResult("dual")
    rng = suite_rng(seed, "dual")
    for size in range(2, n + 1):
        worst_dual = 0.0
        worst_triv = -float("inf")
        coins, weights = draw_graphs(rng, graphs, size)
        for g in range(graphs):
            graph = decoded_graph(coins[g], weights[g], size)
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
    rng = suite_rng(seed, "gap")
    top = min(n, 7)
    sizes = rng.integers(3, top + 1, size=graphs)
    coins, weights = draw_graphs(rng, graphs, top)
    worst_gap = 0.0
    argmin_ok = True
    for g, size in enumerate(sizes.tolist()):
        graph = decoded_graph(coins[g], weights[g], size)
        lam_std = numeric(Partition([size - 1, 1]), graph)[0]
        for shape in partitions_of(size):
            if shape != Partition([size]) and numeric(shape, graph)[0] < lam_std - tol:
                argmin_ok = False
        worst_gap = max(worst_gap, abs(lam_std - laplacian_gap(graph)))
    return {"name": "gap attained at standard rep", "ok": argmin_ok and worst_gap < tol,
            "worst_gap": worst_gap}


def reference_row_class_shapes(rng, sizes, ks):
    classes = [[p for p in partitions_of(size) if p.parts[0] >= size - k]
               for size, k in zip(sizes.tolist(), ks.tolist())]
    picks = rng.integers(0, [len(c) for c in classes])
    return [c[pick] for c, pick in zip(classes, picks.tolist())]


def reference_bounds(n, trials, seed, tol=1e-9):
    """The bounds suite's draws, each instance checked on its own."""
    result = SuiteResult("bounds")
    rng = suite_rng(seed, "bounds")
    analytic_max, numeric_max = min(n, 12), min(n, 8)

    sizes = rng.integers(5, analytic_max + 1, size=trials)
    ks = rng.integers(1, np.minimum(4, sizes - 1) + 1)
    shapes = reference_row_class_shapes(rng, sizes, ks)
    ls = rng.integers(1, sizes)
    failures, worst = 0, 0.0
    for sigma, k, l in zip(shapes, ks.tolist(), ls.tolist()):
        (report,) = check_onestar_bounds([(sigma, k, l)])
        failures += not report.ok
        worst = max(worst, report.worst - report.bound)
    result.add("onestar bound", failures == 0, violations=failures, worst_excess=worst)

    ks = rng.integers(1, max(1, numeric_max // 4) + 1, size=trials)
    sizes = rng.integers(4 * ks, numeric_max + 1)
    failures = sum(not check_matching_bound(sigma, k, tol=tol).ok
                   for sigma, k in zip(reference_row_class_shapes(rng, sizes, ks),
                                       ks.tolist()))
    result.add("matching bound", failures == 0, violations=failures)

    sizes = rng.integers(4, numeric_max + 1, size=trials)
    ks = rng.integers(1, np.where(sizes <= 6, 3, 2) + 1)
    shapes = reference_row_class_shapes(rng, sizes, ks)
    draws = rng.random((trials, numeric_max - 1))
    failures = 0
    for sigma, k, row, size in zip(shapes, ks.tolist(), draws.tolist(), sizes.tolist()):
        a = sorted(row[:size - 1], reverse=True)
        failures += not check_weightedstar_bounds([(sigma, k, a)], tol=tol)[0].ok
    result.add("weightedstar bound", failures == 0, violations=failures)

    sizes = rng.integers(4, numeric_max + 1, size=trials)
    ks = rng.integers(1, 3, size=trials)
    shapes = reference_row_class_shapes(rng, sizes, ks)
    coins, weights = draw_graphs(rng, trials, numeric_max)
    keys = rng.random((trials, numeric_max))
    failures = 0
    for i, (sigma, k, size) in enumerate(zip(shapes, ks.tolist(), sizes.tolist())):
        graph = decoded_graph(coins[i], weights[i], size)
        vertices = [v + 1 for v in sorted(range(size), key=lambda v: keys[i, v])[:k]]
        failures += not check_invariant_vector_bounds([(sigma, k, graph, vertices)],
                                                      tol=tol)[0].ok
    result.add("invariant vector bound", failures == 0, violations=failures)
    return result


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
    for n, trials, seed in ((5, 60, 8), (9, 80, 2)):
        checks = suite_bounds(n, trials=trials, seed=seed).checks
        assert checks == reference_bounds(n, trials, seed).checks
        assert all(c["ok"] for c in checks)


class DrawLog:
    """A generator that records every draw made from it: method, arguments
    (arrays as lists) and the values returned."""

    def __init__(self, rng, log):
        self._rng, self._log = rng, log

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def draw(*args, **kwargs):
            value = method(*args, **kwargs)
            self._log.append((name, [np.asarray(a).tolist() for a in args], kwargs,
                              np.asarray(value).tolist()))
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
    assert suite == reference
    # one generator and one call per drawn quantity: four lemmas, with
    # sizes, k and picks each, plus l, the weights, the graphs' coins and
    # weights, and the vertex keys; the matching check draws nothing
    assert len(suite) == 1
    assert len(suite[0]) == 4 * 3 + 1 + 1 + 3


def test_consistency_suite_states_the_smallest_n():
    for n in (0, 1, 2):
        with pytest.raises(ValueError, match="the consistency suite needs n >= 3"):
            suite_consistency(n)
    assert suite_consistency(3, budget=5, graphs=4).passed


def checks_sha256(checks):
    """sha256 of a suite's check dicts as the benchmark's verify JSON
    writes them, floats included."""
    text = json.dumps(checks, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()


# The suites whose instances did not change when the random draws became
# arrays, at n = 6: the formula suites, the characters, the game run and
# every consistency check but the gap check (scan, witnesses, the chain
# and the even split), pinned by the sha256 of their check dicts.
PINNED_CHECKS = {
    ("lemma9", 0): "71675e68985a6777c8047f7de9a48f02336640a33c52994f87f76dbdbf88b3da",
    ("lemma9", 1000003): "71675e68985a6777c8047f7de9a48f02336640a33c52994f87f76dbdbf88b3da",
    ("qc", 0): "6ae91d202529f330b410bd180e1032433e546431b7f6ec0ca9eaa681c3df3166",
    ("qc", 1000003): "fa9b3c46f655ddea46b1d5787482d4c4fd3f4f99fcd786ecb1910d0b6fcfa73e",
    ("characters", 0): "98f0229e4fc41771236a3518587c52fa1b22f69f28886a842d6bc0268f441385",
    ("characters", 1000003): "98f0229e4fc41771236a3518587c52fa1b22f69f28886a842d6bc0268f441385",
    ("game", 0): "5f12a73ba2ce067d873bff4ad3c806bff94356ea82ed3efc1585839464855ef9",
    ("game", 1000003): "5f12a73ba2ce067d873bff4ad3c806bff94356ea82ed3efc1585839464855ef9",
    ("consistency", 0): "ac12eca05fdb7a928bda7aec9285f7fa03c1dea465aa5e5e95ff248d2995520c",
    ("consistency", 1000003): "5bb4d1c6353747550c46b9850f632e6875936008cfd33bd11ee3e5d397eafabe",
}


@pytest.mark.parametrize("name, seed", sorted(PINNED_CHECKS))
def test_suites_with_unchanged_instances_are_pinned(name, seed):
    if name == "game":
        checks = game_consistency_run(6, samples=1000, seed=seed).checks
    else:
        checks = run_suite(name, 6, seed=seed).checks
    if name == "consistency":
        assert checks[-1]["name"] == "gap attained at standard rep"
        checks = checks[:-1]
    assert checks_sha256(checks) == PINNED_CHECKS[name, seed]


@pytest.mark.parametrize("name", [*SUITES, "game"])
def test_every_suite_repeats_its_checks_at_one_seed(name):
    def run():
        if name == "game":
            return game_consistency_run(6, samples=200, seed=5).checks
        return run_suite(name, 6, seed=5).checks

    assert checks_sha256(run()) == checks_sha256(run())


def test_suites_draw_different_graphs():
    # no two suites read the same stream at one seed
    first = {suite: verify._suite_rng(0, suite).random(4).tolist()
             for suite in ("hooks", "oracle", "dual", "gap", "bounds")}
    assert len({tuple(v) for v in first.values()}) == len(first)
    assert verify._suite_rng(0, "hooks").random() != verify._suite_rng(1, "hooks").random()


def test_random_weights_join_each_pair_with_probability_one_half():
    stack = verify._random_weights(np.random.default_rng(3), 2000, 5)
    assert (stack == stack.swapaxes(1, 2)).all()
    assert not stack[:, range(5), range(5)].any()
    upper = stack[:, [0, 0, 1, 2], [1, 4, 3, 4]]
    assert 0.48 < (upper > 0).mean() < 0.52
    # weights uniform on (0, 1]
    joined = upper[upper > 0]
    assert joined.max() <= 1.0 and 0.48 < joined.mean() < 0.52


def test_bounds_suite_draws_every_size_and_k_of_each_lemma(monkeypatch):
    seen = {}

    def recording(name, check):
        def wrapped(instances, *args, **kwargs):
            instances = list(instances)
            seen[name] = Counter((inst[0].n, inst[1]) for inst in instances)
            return check(instances, *args, **kwargs)
        return wrapped

    for name in ("check_onestar_bounds", "check_matching_bounds",
                 "check_weightedstar_bounds", "check_invariant_vector_bounds"):
        monkeypatch.setattr(verify, name, recording(name, getattr(verify, name)))
    assert suite_bounds(12, trials=1000, seed=0).passed

    assert set(seen["check_onestar_bounds"]) == {
        (size, k) for size in range(5, 13) for k in range(1, min(4, size - 1) + 1)}
    # the matching lemma is checked once per distinct (sigma, k) drawn: the
    # row classes of k = 1 at n = 4..8 and of k = 2 at n = 8 hold 14 shapes
    matching = seen.pop("check_matching_bounds")
    assert matching == {**{(size, 1): 2 for size in range(4, 9)}, (8, 2): 4}
    assert set(seen["check_weightedstar_bounds"]) == {
        (size, k) for size in range(4, 9) for k in range(1, (3 if size <= 6 else 2) + 1)}
    assert set(seen["check_invariant_vector_bounds"]) == {
        (size, k) for size in range(4, 9) for k in (1, 2)}
    for name, cells in seen.items():
        assert sum(cells.values()) == 1000, name


@pytest.mark.parametrize("name, count", [
    ("hooks", {"graphs": 0}), ("oracle", {"graphs": -1}), ("dual", {"graphs": 0}),
    ("qc", {"samples": 0}), ("bounds", {"trials": 0}), ("consistency", {"budget": 0}),
])
def test_run_suite_refuses_a_count_below_one(name, count):
    (key, value), = count.items()
    with pytest.raises(ValueError, match=f"^{key} must be positive, got {value}$"):
        run_suite(name, 6, seed=0, **count)
