"""Named verification suites behind `aldous verify` and the acceptance tests.

Each suite replays one block of claims: exact formulas against the numeric
eigensolver, character identities, the decomposition oracle, the bound
lemmas, duality, or the order engine's internal consistency. Suites return
a SuiteResult whose checks list one dict per claim instance; the CLI turns
a failed suite into exit code 1.

Random instances are drawn with one array call per drawn quantity and
evaluated one batch per (size, shape): a batch's operators are stacked and
solved together, and its exact values come from one nested-star walk or
one chain table per weighting. The batch kernels live in the layers that
own their jobs (`graphs.quasi_complete_stack`, `WeightedGraph.from_stack`,
and `spectral`'s `multiset_distances`, `subset_sum_spectra`,
`laplacian_gaps` and `_chain_spectrum`). `hooks`, `oracle`, `dual`,
`bounds` and the gap check draw from one generator per suite
(`_suite_rng`); `qc` and the even-split check draw from `default_rng(seed)`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import factorial
from operator import truediv

import numpy as np

from .characters import (
    character_from_rep,
    class_size,
    mn_hook_character,
    verify_hook_wedge_iso,
    wedge_character,
)
from .game import game_winner
from .graphs import WeightedGraph, quasi_complete_stack, star_graph
from .order import (
    check_invariant_vector_bounds,
    check_matching_bound,
    check_onestar_bounds,
    check_pair,
    check_weightedstar_bounds,
    hook,
    recheck_ledger,
    scan,
    SCAN_FAMILIES,
)
from .partitions import (
    Partition,
    conjugate,
    content_sum,
    num_standard_tableaux,
    partitions_of,
)
from .spectral import (
    _chain_spectrum,
    irrep_spectra,
    laplacian_gaps,
    multiset_distances,
    nested_star_extremes,
    nested_star_lambda1_scaled,
    remark_weights,
    spectrum,
    subset_sum_spectra,
)
from .symrep import regular_delta


@dataclass
class SuiteResult:
    suite: str
    passed: bool = True
    checks: list = field(default_factory=list)

    def add(self, name: str, ok: bool, **detail) -> None:
        self.checks.append({"name": name, "ok": bool(ok), **detail})
        self.passed = self.passed and bool(ok)

    def failures(self) -> list:
        return [c for c in self.checks if not c["ok"]]


def _suite_rng(seed: int, suite: str) -> np.random.Generator:
    """The generator of one suite's random instances. Its entropy is the
    seed followed by the suite name's bytes, so no two suites draw the same
    instances at one seed."""
    return np.random.default_rng([seed, *suite.encode()])


def _random_weights(rng, count: int, size: int) -> np.ndarray:
    """A (count, size, size) stack of random graphs' weights, drawn as
    `random_graph` draws a graph: each pair joined with probability 1/2,
    with a weight uniform on (0, 1]. One draw of coins and one of weights
    serve the whole stack, and the first s vertices of each graph make a
    random graph on s vertices."""
    joined = rng.random((count, size, size)) < 0.5
    weights = np.triu(np.where(joined, 1.0 - rng.random((count, size, size)), 0.0), 1)
    return weights + weights.swapaxes(1, 2)


def _formula_distances(weightings: list) -> dict:
    """{shape: multiset_distances of each weighting's formula spectrum to
    the eigensolver's} for a list of nested-star weightings of one size,
    their graphs built as one stack and each shape's batch solved at once."""
    parts = partitions_of(len(weightings[0]) + 1)
    graphs = WeightedGraph.from_stack(quasi_complete_stack(weightings))
    # weightings outermost, so each one's cached chain tables serve every shape
    formulas = [[_chain_spectrum(shape, a, truediv) for shape in parts] for a in weightings]
    return {shape: multiset_distances([f[i] for f in formulas], irrep_spectra(shape, graphs))
            for i, shape in enumerate(parts)}


def suite_lemma9(n: int, tol: float = 1e-8) -> SuiteResult:
    """Star spectra from the tableau formula against the eigensolver: the
    unit star at k is the nested-star weighting a_k = 1, else 0."""
    result = SuiteResult("lemma9")
    for size in range(4, n + 1):
        for shape, dists in _formula_distances(np.eye(size - 1, dtype=int).tolist()).items():
            for k, dist in enumerate(dists, start=2):
                result.add(f"lemma9 n={size} shape={shape} k={k}", dist < tol,
                           distance=dist)
    return result


def suite_qc(n: int, samples: int = 50, seed: int = 0, tol: float = 1e-8) -> SuiteResult:
    """Nested-star formula against the eigensolver, and the exact
    lexicographic separation by fast-decaying weights. Each size draws its
    weightings in one call; each reports its worst distance over shapes."""
    result = SuiteResult("qc")
    rng = np.random.default_rng(seed)
    for size in range(3, min(n, 6) + 1):
        dists = _formula_distances(rng.random((samples, size - 1)).tolist())
        for dist in np.max(list(dists.values()), axis=0).tolist():
            result.add(f"qc formula n={size}", dist < tol, distance=dist)
    for size in range(2, min(n, 7) + 1):
        weights = remark_weights(size)
        parts = partitions_of(size)
        lam1 = [nested_star_extremes(p, weights)[0] for p in parts]
        # partitions_of is descending lexicographic: parts[i] is
        # lexicographically below parts[j] exactly when i > j
        bad = [
            (str(parts[i]), str(parts[j]))
            for i in range(len(parts))
            for j in range(i)
            if not lam1[i] > lam1[j]
        ]
        result.add(f"qc lex separation n={size}", not bad, failing_pairs=bad)
    return result


def suite_hooks(n: int, graphs: int = 20, seed: int = 0, tol: float = 1e-6) -> SuiteResult:
    """Subset-sum hook spectra against the eigensolver."""
    result = SuiteResult("hooks")
    rng = _suite_rng(seed, "hooks")
    for size in range(3, n + 1):
        batch = WeightedGraph.from_stack(_random_weights(rng, graphs, size))
        numeric = [irrep_spectra(hook(size, k), batch) for k in range(size)]
        # numeric[1] is the hook [size-1, 1] itself
        worst = np.max([multiset_distances(subset_sum_spectra(numeric[1], k), numeric[k])
                        for k in range(size)], axis=0)
        for g, dist in enumerate(worst.tolist()):
            result.add(f"hooks n={size} graph={g}", dist < tol, distance=dist)
    return result


def suite_characters(n: int) -> SuiteResult:
    """Hook/wedge character identities and the matrix-trace oracle."""
    result = SuiteResult("characters")
    for size in range(2, n + 1):
        iso = verify_hook_wedge_iso(size)
        result.add(f"hook wedge iso n={size}", iso["ok"],
                   failing=[str(key) for key, ok in iso["results"].items() if not ok])
        recursion_ok = True
        for k in range(1, size):
            lhs = mn_hook_character(size, k) + mn_hook_character(size, k - 1)
            if lhs != wedge_character(size, k):
                recursion_ok = False
        result.add(f"wedge recursion n={size}", recursion_ok)
    for size in range(2, min(n, 8) + 1):
        trace_ok = all(
            character_from_rep(hook(size, k)) == mn_hook_character(size, k)
            for k in range(size)
        )
        result.add(f"hook trace oracle n={size}", trace_ok)
    for size in range(2, min(n, 7) + 1):
        chars = [character_from_rep(p) for p in partitions_of(size)]
        ortho_ok = all(
            chars[i].inner(chars[j]) == (1 if i == j else 0)
            for i in range(len(chars))
            for j in range(i, len(chars))
        )
        sizes_ok = sum(class_size(c) for c in partitions_of(size)) == factorial(size)
        result.add(f"orthonormality n={size}", ortho_ok)
        result.add(f"class sizes n={size}", sizes_ok)
    return result


def suite_oracle(n: int, graphs: int = 10, seed: int = 0, tol: float = 1e-7) -> SuiteResult:
    """Regular-representation spectrum against the per-irreducible union."""
    result = SuiteResult("oracle")
    rng = _suite_rng(seed, "oracle")
    for size in range(3, min(n, 5) + 1):
        batch = WeightedGraph.from_stack(_random_weights(rng, graphs, size))
        # each irreducible's spectrum, once per dimension
        expected = np.hstack([np.tile(irrep_spectra(shape, batch), num_standard_tableaux(shape))
                              for shape in partitions_of(size)])
        full = [spectrum(regular_delta(graph)) for graph in batch]
        for g, dist in enumerate(multiset_distances(full, expected)):
            result.add(f"oracle n={size} graph={g}", dist < tol, distance=dist)
    return result


@lru_cache(maxsize=None)
def _row_class(size: int, k: int) -> tuple[Partition, ...]:
    """The shapes of the given size whose first row is at least size - k."""
    return tuple(p for p in partitions_of(size) if p.parts[0] >= size - k)


def _row_class_picks(rng, sizes: np.ndarray, ks: np.ndarray) -> list[Partition]:
    """One shape per (size, k) entry, uniform on its row class, from one
    draw of the picks."""
    classes = [_row_class(size, k) for size, k in zip(sizes.tolist(), ks.tolist())]
    picks = rng.integers(0, [len(choices) for choices in classes])
    return [choices[pick] for choices, pick in zip(classes, picks.tolist())]


def suite_bounds(n: int, trials: int = 1000, seed: int = 0,
                 tol: float = 1e-9) -> SuiteResult:
    """Randomized instances of the four bound lemmas, `trials` of each.

    Each lemma draws its instances from the suite's generator with one
    array call per quantity (sizes, k, row-class picks, l, sorted weights,
    graphs, vertex subsets) and evaluates them in batches: one exact
    nested-star walk per size for the one-star lemma, one check per
    distinct (sigma, k) for the matching lemma (its one trial is the fixed
    matching), and one stack per shape for the weighted-star and
    invariant-vector lemmas."""
    if n < 5:
        raise ValueError("the bounds suite needs n >= 5")
    result = SuiteResult("bounds")
    rng = _suite_rng(seed, "bounds")
    analytic_max = min(n, 12)
    numeric_max = min(n, 8)

    sizes = rng.integers(5, analytic_max + 1, size=trials)
    ks = rng.integers(1, np.minimum(4, sizes - 1) + 1)
    shapes = _row_class_picks(rng, sizes, ks)
    ls = rng.integers(1, sizes)
    reports = check_onestar_bounds(zip(shapes, ks.tolist(), ls.tolist()))
    failures = sum(not report.ok for report in reports)
    worst = max([0.0] + [report.worst - report.bound for report in reports])
    result.add("onestar bound", failures == 0, violations=failures, worst_excess=worst)

    ks = rng.integers(1, max(1, numeric_max // 4) + 1, size=trials)
    sizes = rng.integers(4 * ks, numeric_max + 1)
    drawn = Counter(zip(_row_class_picks(rng, sizes, ks), ks.tolist()))
    failures = sum(count for (sigma, k), count in drawn.items()
                   if not check_matching_bound(sigma, k, trials=1, tol=tol).ok)
    result.add("matching bound", failures == 0, violations=failures)

    sizes = rng.integers(4, numeric_max + 1, size=trials)
    ks = rng.integers(1, np.where(sizes <= 6, 3, 2) + 1)
    shapes = _row_class_picks(rng, sizes, ks)
    # each row keeps its first size - 1 draws, sorted nonincreasing
    weights = rng.random((trials, numeric_max - 1))
    weights[np.arange(numeric_max - 1) >= sizes[:, None] - 1] = -1.0
    weights = -np.sort(-weights, axis=1)
    instances = [(sigma, k, a[:size - 1]) for sigma, k, a, size
                 in zip(shapes, ks.tolist(), weights.tolist(), sizes.tolist())]
    failures = sum(not r.ok for r in check_weightedstar_bounds(instances, tol=tol))
    result.add("weightedstar bound", failures == 0, violations=failures)

    sizes = rng.integers(4, numeric_max + 1, size=trials)
    ks = rng.integers(1, 3, size=trials)
    shapes = _row_class_picks(rng, sizes, ks)
    stack = _random_weights(rng, trials, numeric_max)
    # k vertices uniform among the first `size`: those of the k lowest keys
    keys = rng.random((trials, numeric_max))
    keys[np.arange(numeric_max) >= sizes[:, None]] = 2.0
    vertices = (np.argsort(keys, axis=1) + 1).tolist()
    ks = ks.tolist()
    instances = []
    for size in sorted(set(sizes.tolist())):
        (members,) = np.nonzero(sizes == size)
        graphs = WeightedGraph.from_stack(stack[members, :size, :size])
        instances += [(shapes[i], ks[i], graph, vertices[i][:ks[i]])
                      for i, graph in zip(members.tolist(), graphs)]
    failures = sum(not r.ok for r in check_invariant_vector_bounds(instances, tol=tol))
    result.add("invariant vector bound", failures == 0, violations=failures)
    return result


def suite_dual(n: int, graphs: int = 50, seed: int = 0, tol: float = 1e-8,
               triv_tol: float = 1e-9) -> SuiteResult:
    """Duality with the conjugate shape and the 2wt ceiling.

    The operators of the non-canonical member of each conjugate pair are
    derived from its mate's by the signed tableau permutation
    (`symrep.conjugate_operators`), so the duality holds by construction
    up to rounding, and this suite checks the solver's round trip on the
    two matrices. The independent evidence for the operators is `lemma9`,
    `qc` and `oracle`, and the transposition-sum test of the test suite.
    """
    result = SuiteResult("dual")
    rng = _suite_rng(seed, "dual")
    for size in range(2, n + 1):
        batch = WeightedGraph.from_stack(_random_weights(rng, graphs, size))
        twice_wt = 2 * np.array([graph.wt for graph in batch])
        found = {shape: np.array(irrep_spectra(shape, batch)) for shape in partitions_of(size)}
        # per shape and graph: lambda_max against 2 wt - lambda_1 of the conjugate
        worst_dual = max(0.0, *(np.abs(spec[:, -1] - (twice_wt - found[conjugate(shape)][:, 0]))
                                .max() for shape, spec in found.items()))
        worst_triv = max((spec[:, -1] - twice_wt).max() for spec in found.values())
        result.add(f"duality n={size}", worst_dual < tol, distance=float(worst_dual))
        result.add(f"trivial bound n={size}", worst_triv <= triv_tol,
                   excess=float(worst_triv))
    return result


def suite_consistency(n: int, budget: int = 200, seed: int = 0,
                      graphs: int = 100, tol: float = 1e-9) -> SuiteResult:
    """Order-engine self checks: scan audit, witness soundness, the
    incomparable two-column chain, the even-split remark and the spot
    check that the standard representation attains the gap."""
    if n < 3:
        raise ValueError("the consistency suite needs n >= 3")
    result = SuiteResult("consistency")

    ledger, report = scan(n, SCAN_FAMILIES, budget=budget, seed=seed, tol=tol)
    result.add(f"scan audit n={n}", report.consistent,
               contradictions=report.contradictions,
               graphs=report.graphs_tried,
               unknown=ledger.unknown_count())
    bad = [{"pair": (str(sigma), str(tau)), "error": message}
           for (sigma, tau), message in recheck_ledger(ledger, tol=tol)]
    result.add(f"witness soundness n={n}", not bad, failures=bad)

    chain = [Partition([2] * i + [1] * (n - 2 * i)) for i in range(1, n // 2 + 1)]
    star = star_graph(n, n)
    chain_ok = True
    for i, j in combinations(range(len(chain)), 2):
        high, low = chain[j], chain[i]  # more 2-rows vs fewer
        if check_pair(high, low, star) is None:
            chain_ok = False
        if content_sum(high) <= content_sum(low):
            chain_ok = False
    result.add(f"incomparable chain n={n}", chain_ok, length=len(chain))

    if n % 2 == 0 and n >= 4:
        m = n // 2
        rng = np.random.default_rng(seed)
        weightings = [[float(x) for x in rng.random(n - 1)] for _ in range(25)]
        scales, (wide, even) = nested_star_lambda1_scaled(
            [Partition([m + 1, m - 1]), Partition([m, m])], weightings)
        worst = max(float(Fraction(w - e, scale))
                    for w, e, scale in zip(wide, even, scales))
        result.add(f"even split remark n={n}", worst <= tol, excess=worst)

    rng = _suite_rng(seed, "gap")
    top = min(n, 7)
    sizes = rng.integers(3, top + 1, size=graphs)
    stack = _random_weights(rng, graphs, top)
    worst_gap = 0.0
    argmin_ok = True
    for size in sorted(set(sizes.tolist())):
        weights = stack[sizes == size, :size, :size]
        batch = WeightedGraph.from_stack(weights)
        lam1 = {shape: np.array([s[0] for s in irrep_spectra(shape, batch)])
                for shape in partitions_of(size)[1:]}  # all but the trivial [size]
        lam_std = lam1[Partition([size - 1, 1])]
        argmin_ok &= all((lam >= lam_std - tol).all() for lam in lam1.values())
        worst_gap = max(worst_gap, float(np.abs(lam_std - laplacian_gaps(weights)).max()))
    result.add("gap attained at standard rep", argmin_ok and worst_gap < tol,
               worst_gap=worst_gap)
    return result


def game_consistency_run(n: int, samples: int = 1000, seed: int = 0) -> SuiteResult:
    """Game outcomes against exact nested-star comparisons for all ordered
    pairs of each size up to n. Each size's sampled weightings go through
    one walk (`nested_star_lambda1_scaled`), which gives every shape's
    lambda_1 under every weighting at once; a pair won by A is reported at
    the first weighting that orders its lambda_1 the other way."""
    from .game import _sample_weight_vectors

    result = SuiteResult("game")
    for size in range(2, n + 1):
        parts = partitions_of(size)
        rows, _ = _sample_weight_vectors(size, samples, seed + size)
        # each weighting comes as its integer numerators, its weights times a
        # positive scale; lambda_1 is homogeneous in the weights, so each
        # shape's row orders like lambda_1, weighting by weighting
        _, lam1 = nested_star_lambda1_scaled(parts, rows)
        bad = []
        for i, sigma in enumerate(parts):
            for j, tau in enumerate(parts):
                if not game_winner(sigma, tau):
                    continue
                violating = np.flatnonzero(lam1[i] > lam1[j])
                if violating.size:
                    bad.append({"sigma": str(sigma), "tau": str(tau),
                                "sample": int(violating[0])})
        result.add(f"game consistency n={size}", not bad,
                   samples=len(rows), inconsistencies=bad)
    return result


SUITES = {
    "lemma9": suite_lemma9,
    "qc": suite_qc,
    "hooks": suite_hooks,
    "characters": suite_characters,
    "oracle": suite_oracle,
    "bounds": suite_bounds,
    "dual": suite_dual,
    "consistency": suite_consistency,
}


def run_suite(name: str, n: int, **params) -> SuiteResult:
    """Run the named suite at n. A seed is dropped where the suite takes
    none; any other parameter it does not take is an error, and so are a
    count below one and a run with no checks, which would have verified
    nothing."""
    import inspect

    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    fn = SUITES[name]
    accepted = set(inspect.signature(fn).parameters)
    if "seed" not in accepted:
        params.pop("seed", None)
    unused = sorted(set(params) - accepted)
    if unused:
        raise ValueError(f"suite {name!r} does not take {', '.join(unused)}")
    for key in ("budget", "trials", "samples", "graphs"):
        if key in params and not params[key] >= 1:
            raise ValueError(f"{key} must be positive, got {params[key]!r}")
    result = fn(n, **params)
    if not result.checks:
        raise ValueError(f"suite {name!r} has no checks at n = {n}")
    return result
