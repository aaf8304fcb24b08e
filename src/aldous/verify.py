"""Named verification suites behind `aldous verify` and the acceptance tests.

Each suite replays one block of claims: exact formulas against the numeric
eigensolver, character identities, the decomposition oracle, the bound
lemmas, duality, or the order engine's internal consistency. Suites return
a SuiteResult whose checks list one dict per claim instance; the CLI turns
a failed suite into exit code 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import factorial

import numpy as np

from .characters import (
    character_from_rep,
    class_size,
    mn_hook_character,
    verify_hook_wedge_iso,
    wedge_character,
)
from .game import game_winner
from .graphs import quasi_complete_graph, random_graph, star_graph
from .order import (
    check_invariant_vector_bounds,
    check_matching_bound,
    check_onestar_bound,
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
    irrep_spectra,
    laplacian_gap,
    multiset_distance,
    nested_star_extremes,
    nested_star_lambda1_scaled,
    quasi_complete_spectrum,
    remark_weights,
    spectrum,
    subset_sum_spectrum,
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


def suite_lemma9(n: int, tol: float = 1e-8) -> SuiteResult:
    """Star spectra from the tableau formula against the eigensolver."""
    result = SuiteResult("lemma9")
    for size in range(4, n + 1):
        stars = [star_graph(size, k) for k in range(2, size + 1)]
        for shape in partitions_of(size):
            for k, numeric in enumerate(irrep_spectra(shape, stars), start=2):
                star = [int(j == k) for j in range(2, size + 1)]  # a_k = 1, else 0
                dist = multiset_distance(quasi_complete_spectrum(shape, star), numeric)
                result.add(f"lemma9 n={size} shape={shape} k={k}", dist < tol,
                           distance=dist)
    return result


def suite_qc(n: int, samples: int = 50, seed: int = 0, tol: float = 1e-8) -> SuiteResult:
    """Nested-star formula against the eigensolver, and the exact
    lexicographic separation by fast-decaying weights."""
    result = SuiteResult("qc")
    rng = np.random.default_rng(seed)
    for size in range(3, min(n, 6) + 1):
        weights = [rng.random(size - 1) for _ in range(samples)]
        graphs = [quasi_complete_graph(size, a) for a in weights]
        numeric = [irrep_spectra(shape, graphs) for shape in partitions_of(size)]
        # weightings outermost, so each one's chain tables serve every shape
        for sample, a in enumerate(weights):
            dist = max(
                multiset_distance(quasi_complete_spectrum(shape, list(a)), found[sample])
                for shape, found in zip(partitions_of(size), numeric)
            )
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
    for size in range(3, n + 1):
        batch = [random_graph(size, seed + 1000 * size + g) for g in range(graphs)]
        numeric = [irrep_spectra(hook(size, k), batch) for k in range(size)]
        for g in range(graphs):
            base = numeric[1][g]  # the hook [size-1, 1] itself
            worst = 0.0
            for k in range(size):
                expected = subset_sum_spectrum(base, k)
                worst = max(worst, multiset_distance(expected, numeric[k][g]))
            result.add(f"hooks n={size} graph={g}", worst < tol, distance=worst)
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
    for size in range(3, min(n, 5) + 1):
        batch = [random_graph(size, seed + 100 * size + g) for g in range(graphs)]
        irreps = {shape: irrep_spectra(shape, batch) for shape in partitions_of(size)}
        for g, graph in enumerate(batch):
            full = spectrum(regular_delta(graph))
            expected: list[float] = []
            for shape, found in irreps.items():
                expected.extend(found[g] * num_standard_tableaux(shape))
            dist = multiset_distance(full, expected)
            result.add(f"oracle n={size} graph={g}", dist < tol, distance=dist)
    return result


@lru_cache(maxsize=None)
def _row_class(size: int, k: int) -> tuple[Partition, ...]:
    """The shapes of the given size whose first row is at least size - k."""
    return tuple(p for p in partitions_of(size) if p.parts[0] >= size - k)


def _random_row_class_shape(rng, size: int, k: int) -> Partition:
    choices = _row_class(size, k)
    return choices[int(rng.integers(0, len(choices)))]


def suite_bounds(n: int, trials: int = 1000, seed: int = 0,
                 tol: float = 1e-9) -> SuiteResult:
    """Randomized instances of the four bound lemmas."""
    if n < 5:
        raise ValueError("the bounds suite needs n >= 5")
    result = SuiteResult("bounds")
    rng = np.random.default_rng(seed)
    analytic_max = min(n, 12)
    numeric_max = min(n, 8)

    failures = 0
    worst = 0.0
    for _ in range(trials):
        size = int(rng.integers(5, analytic_max + 1))
        k = int(rng.integers(1, min(4, size - 1) + 1))
        sigma = _random_row_class_shape(rng, size, k)
        l = int(rng.integers(1, size))
        report = check_onestar_bound(sigma, k, l)
        failures += 0 if report.ok else 1
        worst = max(worst, report.worst - report.bound)
    result.add("onestar bound", failures == 0, violations=failures, worst_excess=worst)

    failures = 0
    for _ in range(trials):
        k = int(rng.integers(1, max(1, numeric_max // 4) + 1))
        size = int(rng.integers(4 * k, numeric_max + 1))
        sigma = _random_row_class_shape(rng, size, k)
        report = check_matching_bound(sigma, k, trials=1, tol=tol,
                                      seed=int(rng.integers(0, 2**31)))
        failures += 0 if report.ok else 1
    result.add("matching bound", failures == 0, violations=failures)

    # the last two lemmas draw all their instances first, then evaluate
    # each shape's graphs together
    instances = []
    for _ in range(trials):
        size = int(rng.integers(4, numeric_max + 1))
        k = int(rng.integers(1, (3 if size <= 6 else 2) + 1))
        sigma = _random_row_class_shape(rng, size, k)
        a = sorted((float(x) for x in rng.random(size - 1)), reverse=True)
        instances.append((sigma, k, a))
    failures = sum(not r.ok for r in check_weightedstar_bounds(instances, tol=tol))
    result.add("weightedstar bound", failures == 0, violations=failures)

    instances = []
    for _ in range(trials):
        size = int(rng.integers(4, numeric_max + 1))
        k = int(rng.integers(1, 3))
        sigma = _random_row_class_shape(rng, size, k)
        graph = random_graph(size, int(rng.integers(0, 2**31)))
        vertices = [int(v) + 1 for v in rng.choice(size, size=k, replace=False)]
        instances.append((sigma, k, graph, vertices))
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
    for size in range(2, n + 1):
        worst_dual = 0.0
        worst_triv = -float("inf")
        batch = [random_graph(size, seed + 997 * size + g) for g in range(graphs)]
        # (lambda_1, lambda_max) per shape and graph
        extremes = {
            shape: [(s[0], s[-1]) for s in irrep_spectra(shape, batch)]
            for shape in partitions_of(size)
        }
        for g, graph in enumerate(batch):
            for shape in partitions_of(size):
                lam_max = extremes[shape][g][1]
                lam1_conj = extremes[conjugate(shape)][g][0]
                worst_dual = max(worst_dual,
                                 abs(lam_max - (2 * graph.wt - lam1_conj)))
                worst_triv = max(worst_triv, lam_max - 2 * graph.wt)
        result.add(f"duality n={size}", worst_dual < tol, distance=worst_dual)
        result.add(f"trivial bound n={size}", worst_triv <= triv_tol,
                   excess=worst_triv)
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

    rng = np.random.default_rng(seed + 1)
    by_size: dict[int, list] = {}
    for _ in range(graphs):
        size = int(rng.integers(3, min(n, 7) + 1))
        by_size.setdefault(size, []).append(random_graph(size, int(rng.integers(0, 2**31))))
    worst_gap = 0.0
    argmin_ok = True
    for size, batch in by_size.items():
        lam_std = [s[0] for s in irrep_spectra(Partition([size - 1, 1]), batch)]
        for shape in partitions_of(size):
            if shape == Partition([size]):
                continue
            for lam, std in zip((s[0] for s in irrep_spectra(shape, batch)), lam_std):
                if lam < std - tol:
                    argmin_ok = False
        for graph, std in zip(batch, lam_std):
            worst_gap = max(worst_gap, abs(std - laplacian_gap(graph)))
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
    none; any other parameter it does not take is an error, and so is a
    run with no checks, which would have verified nothing."""
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
    result = fn(n, **params)
    if not result.checks:
        raise ValueError(f"suite {name!r} has no checks at n = {n}")
    return result
