"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line. Run with `pytest tests/test_acceptance.py -v -s`."""

import time

import numpy as np

from aldous.game import game_winner
from aldous.graphs import (
    WeightedGraph,
    cycle_graph,
    matching_graph,
    random_graph,
    star_graph,
)
from aldous.order import (
    check_pair,
    scan,
    SCAN_FAMILIES,
    seed_known,
)
from aldous.partitions import Partition, conjugate, partitions_of
from aldous.spectral import quasi_complete_spectrum
from aldous.verify import (
    game_consistency_run,
    suite_bounds,
    suite_characters,
    suite_dual,
    suite_hooks,
    suite_lemma9,
    suite_oracle,
    suite_qc,
)

from references import check_reducing, game_winner_brute, is_h_irreducible, star_decompose


def report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"{status} {criterion}" + (f" ({detail})" if detail else ""))
    assert ok, f"{criterion}: {detail}"


def test_criterion_1_lemma9_agreement():
    start = time.time()
    result = suite_lemma9(7, tol=1e-8)
    elapsed = time.time() - start
    report(
        "criterion 1: star spectra match the eigensolver (n=4..7, all k)",
        result.passed and elapsed < 60,
        f"{len(result.checks)} checks in {elapsed:.1f}s",
    )


def test_criterion_2_asymptotic_counterexample_values():
    ok = True
    for n in range(4, 13):
        two_two = Partition([2, 2] + [1] * (n - 4))
        one_col = Partition([2] + [1] * (n - 2))
        full_star = [0] * (n - 2) + [1]  # nested-star weights of the star at n
        if quasi_complete_spectrum(two_two, full_star)[0] != n - 1:
            ok = False
        if quasi_complete_spectrum(one_col, full_star)[0] != n - 2:
            ok = False
        ref = check_pair(two_two, one_col, star_graph(n, n))
        if ref is None or not ref.exact or ref.margin != 1.0:
            ok = False
    report(
        "criterion 2: full-star eigenvalues n-1 / n-2 and margin exactly 1 "
        "(n=4..12, integer arithmetic)",
        ok,
    )


def test_criterion_3_quasi_complete_formula():
    result = suite_qc(7, samples=50, seed=0, tol=1e-8)
    report(
        "criterion 3: nested-star formula vs eigensolver (50 vectors, n<=6) "
        "and exact lexicographic separation (n<=7)",
        result.passed,
        f"{len(result.checks)} checks",
    )


def test_criterion_4_hook_spectra():
    result = suite_hooks(8, graphs=20, seed=0, tol=1e-6)
    report(
        "criterion 4: hook spectra are subset sums (n<=8, all k, 20 graphs)",
        result.passed,
        f"{len(result.checks)} checks",
    )


def test_criterion_5_regular_representation_oracle():
    start = time.time()
    result = suite_oracle(5, graphs=10, seed=0, tol=1e-7)
    report(
        "criterion 5: regular representation decomposes into dim copies "
        "per irreducible (n=3,4,5; 10 graphs)",
        result.passed,
        f"{time.time() - start:.1f}s",
    )


def test_criterion_6_duality_and_trivial_bound():
    result = suite_dual(7, graphs=50, seed=0, tol=1e-8, triv_tol=1e-9)
    report(
        "criterion 6: sign-twist duality within 1e-8 and lambda_max <= 2wt "
        "(n<=7, 50 graphs)",
        result.passed,
    )


def test_criterion_7_character_identities():
    result = suite_characters(9)
    report(
        "criterion 7: hook-wedge character equality (n<=8, exact) and the "
        "wedge recursion (n<=9)",
        result.passed,
    )


def test_criterion_8_bound_lemmas():
    result = suite_bounds(12, trials=1000, seed=0, tol=1e-9)
    violations = {c["name"]: c.get("violations", 0) for c in result.checks}
    report(
        "criterion 8: matching/onestar/weightedstar/invariant-vector bounds, "
        "1000 instances each",
        result.passed,
        str(violations),
    )


def test_criterion_9_reducing_machinery():
    ok = True
    details = []
    for n, k in ((8, 1), (24, 2)):
        h = matching_graph(n, 2 * k)
        row_class = [p for p in partitions_of(n) if p.parts[0] >= n - k]
        col_class = [conjugate(p) for p in row_class]
        for sigma in row_class:
            for tau in col_class:
                if not check_reducing(h, sigma, tau):
                    ok = False
                    details.append(f"not reducing at n={n}: {sigma} vs {tau}")
    rng = np.random.default_rng(0)
    decomposed = 0
    for k in (1, 2):
        while decomposed < 50 * k:
            n = int(rng.integers(5, 11))
            w = np.zeros((n, n))
            centers = rng.choice(n, size=int(rng.integers(1, 2 * k)), replace=False)
            for c in centers:
                for j in range(n):
                    if j != c and rng.random() < 0.5:
                        w[c, j] = w[j, c] = float(rng.random())
            graph = WeightedGraph(w)
            if not is_h_irreducible(graph, k) or graph.wt == 0:
                continue
            stars = star_decompose(graph, k)
            if len(stars) > 4 * k - 2:
                ok = False
                details.append(f"too many stars: {len(stars)} for k={k}")
            total = sum(s.weights for s in stars)
            if not np.array_equal(total, graph.weights):
                ok = False
                details.append("star sum mismatch")
            decomposed += 1
    report(
        "criterion 9: matching graphs reduce row-class/column-class pairs "
        "(k=1 n=8, k=2 n=24); 100 exact star decompositions",
        ok,
        "; ".join(details) or f"{decomposed} decompositions",
    )


def test_criterion_10_order_reproduction():
    ledger = seed_known(4)
    ok = not ledger.unknown_pairs()
    top, std = Partition([4]), Partition([3, 1])
    two_two, one_col, bottom = Partition([2, 2]), Partition([2, 1, 1]), Partition([1] * 4)
    # the full n=4 panel: a chain through the incomparable middle pair
    proved = {
        (top, std), (top, two_two), (top, one_col), (top, bottom),
        (std, two_two), (std, one_col), (std, bottom),
        (two_two, bottom), (one_col, bottom),
    }
    for sigma, tau in ledger.pairs():
        expected = "proved" if (sigma, tau) in proved else "refuted"
        ok = ok and ledger.status(sigma, tau) == expected

    detail = []
    for n in (5, 6):
        scanned, rep = scan(n, SCAN_FAMILIES, budget=1000, seed=42)
        ok = ok and rep.consistent
        detail.append(f"n={n}: {rep.graphs_tried} graphs, "
                      f"{len(scanned.unknown_pairs())} unknown")
        if not rep.consistent:
            detail.append(f"contradictions: {rep.contradictions}")

    for n2 in (6, 8):
        m = n2 // 2
        ref = check_pair(Partition([m + 1, m - 1]), Partition([m, m]),
                         cycle_graph(n2))
        if ref is None or ref.margin <= 1e-6:
            ok = False
            detail.append(f"cycle refutation missing at 2n={n2}")

    report(
        "criterion 10: seeded n=4 panel complete and consistent; scans at "
        "n=5,6 contradiction-free; cycle counterexamples at 2n=6,8",
        ok,
        "; ".join(detail),
    )


def test_criterion_11_gap_spot_check():
    from aldous.spectral import laplacian_gap, spectrum
    from aldous.symrep import delta_matrix

    rng = np.random.default_rng(1)
    ok = True
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(3, 8))
        graph = random_graph(n, int(rng.integers(0, 10**6)))
        lam_std = spectrum(delta_matrix(Partition([n - 1, 1]), graph))[0]
        for shape in partitions_of(n):
            if shape == Partition([n]):
                continue
            if spectrum(delta_matrix(shape, graph))[0] < lam_std - 1e-9:
                ok = False
        worst = max(worst, abs(lam_std - laplacian_gap(graph)))
    report(
        "criterion 11: smallest nontrivial eigenvalue sits at [n-1,1] and "
        "equals the Laplacian gap (100 graphs, n<=7)",
        ok and worst < 1e-9,
        f"worst gap deviation {worst:.2e}",
    )


def test_criterion_12_game_module():
    ok = True
    for n in range(1, 6):
        for sigma in partitions_of(n):
            for tau in partitions_of(n):
                if game_winner(sigma, tau) != game_winner_brute(sigma, tau):
                    ok = False
    result = game_consistency_run(6, samples=1000, seed=0)
    inconsistencies = sum(
        len(c.get("inconsistencies", [])) for c in result.checks
    )
    report(
        "criterion 12: memoized minimax equals brute force (n<=5); game vs "
        "nested-star spectra consistent (1000 samples/pair, n<=6)",
        ok and result.passed,
        f"{inconsistencies} inconsistencies",
    )
