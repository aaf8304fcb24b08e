from fractions import Fraction

import numpy as np
import pytest

from aldous.game import (
    game_trace,
    game_vs_spectra,
    game_winner,
)
from aldous.partitions import Partition, partitions_of
from aldous.spectral import nested_star_extremes, remark_weights

from references import game_winner_brute


def test_mirror_strategy_wins():
    for n in range(1, 10):
        for p in partitions_of(n):
            assert game_winner(p, p)


def test_forced_line_examples():
    assert game_winner(Partition([4]), Partition([1, 1, 1, 1]))
    assert not game_winner(Partition([2, 1]), Partition([3]))
    assert game_winner(Partition([3]), Partition([2, 1]))


def test_size_mismatch_rejected():
    with pytest.raises(ValueError):
        game_winner(Partition([3]), Partition([2, 2]))


def test_memoized_matches_brute_force():
    for n in range(1, 6):
        for sigma in partitions_of(n):
            for tau in partitions_of(n):
                assert game_winner(sigma, tau) == game_winner_brute(sigma, tau)


def test_hook_games_follow_the_chain():
    for n in range(2, 9):
        hooks = [Partition([n - k] + [1] * k) if k else Partition([n])
                 for k in range(n)]
        for j in range(len(hooks)):
            for k in range(len(hooks)):
                assert game_winner(hooks[j], hooks[k]) == (j <= k)


def test_trace_is_a_legal_winning_line():
    sigma, tau = Partition([3]), Partition([2, 1])
    moves = game_trace(sigma, tau)
    assert len(moves) == 3
    for b_box, a_box in moves:
        assert a_box.content >= b_box.content


def test_game_vs_spectra_consistency():
    # winner=True: no sampled graph may order the eigenvalues the other way
    report = game_vs_spectra(Partition([4]), Partition([2, 2]), samples=50)
    assert report.winner and report.consistent
    # winner=False: a witness graph exists among the samples
    report = game_vs_spectra(Partition([2, 1]), Partition([3]), samples=50)
    assert not report.winner
    assert report.witness is not None
    assert report.consistent


def test_game_vs_spectra_all_pairs_small():
    for n in (3, 4):
        for sigma in partitions_of(n):
            for tau in partitions_of(n):
                report = game_vs_spectra(sigma, tau, samples=40)
                assert report.consistent, (str(sigma), str(tau), report.violations)


def test_game_vs_spectra_witness_margin_is_the_exact_gap():
    sigma, tau = Partition([2, 1]), Partition([3])
    report = game_vs_spectra(sigma, tau, samples=50)
    weights = [Fraction(w) for w in report.witness["weights"]]
    gap = nested_star_extremes(sigma, weights)[0] - nested_star_extremes(tau, weights)[0]
    assert gap > 0 and report.witness["margin"] == float(gap)


def test_game_consistency_run_reports_the_first_exact_violation(monkeypatch):
    # negative control: if A won every game, each pair must be reported at
    # the first sampled weighting whose exact lambda_1 orders it the other way
    import aldous.verify as verify
    from aldous.game import _sample_weight_vectors

    monkeypatch.setattr(verify, "game_winner", lambda s, t: True)
    n, samples, seed = 4, 40, 3
    result = verify.game_consistency_run(n, samples=samples, seed=seed)
    assert not result.passed
    for size, check in zip(range(2, n + 1), result.checks):
        rows, scales = _sample_weight_vectors(size, samples, seed + size)
        vectors = [[Fraction(x, scale) for x in row] for row, scale in zip(rows, scales)]
        lam1 = {p: [nested_star_extremes(p, a)[0] for a in vectors]
                for p in partitions_of(size)}
        expected = []
        for sigma in partitions_of(size):
            for tau in partitions_of(size):
                first = next((i for i, (s, t) in enumerate(zip(lam1[sigma], lam1[tau]))
                              if s > t), None)
                if first is not None:
                    expected.append({"sigma": str(sigma), "tau": str(tau),
                                     "sample": first})
        assert check["inconsistencies"] == expected
        assert expected


def _fraction_sampler(n, samples, seed):
    """The weightings of _sample_weight_vectors built row by row as
    Fractions: the reference its integer draws are checked against."""
    rng = np.random.default_rng(seed)
    vectors = [[Fraction(int(x), 1000) for x in rng.integers(0, 1001, n - 1)]
               for _ in range(samples)]
    if 2 ** (n - 1) <= 256:
        def grids(prefix):
            if len(prefix) == n - 1:
                vectors.append([Fraction(x) for x in prefix])
                return
            for x in range(2):
                grids(prefix + [x])

        grids([])
    vectors.append(remark_weights(n))
    return vectors


def _as_fractions(rows, scales):
    return [[Fraction(x, scale) for x in row] for row, scale in zip(rows, scales)]


def test_sampler_draws_the_fraction_sampler_weightings():
    from aldous.game import _sample_weight_vectors

    for n in range(1, 9):
        for samples in (0, 1, 37):
            for seed in (0, 5):
                rows, scales = _sample_weight_vectors(n, samples, seed)
                assert all(type(x) is int for row in rows for x in row)
                assert _as_fractions(rows, scales) == _fraction_sampler(n, samples, seed)


def test_negative_samples_are_refused():
    from aldous.verify import game_consistency_run

    with pytest.raises(ValueError, match="samples must be nonnegative, got -5"):
        game_vs_spectra(Partition([2, 1]), Partition([3]), samples=-5)
    with pytest.raises(ValueError, match="samples must be nonnegative, got -3"):
        game_consistency_run(4, samples=-3)
    # zero samples still score the grid and the separator; n = 1 has one
    # empty weighting per source
    report = game_vs_spectra(Partition([2, 1]), Partition([3]), samples=0)
    assert report.samples == 4 + 1 and report.witness is not None
    report = game_vs_spectra(Partition([1]), Partition([1]), samples=4)
    assert report.samples == 4 + 1 + 1 and report.consistent
    assert game_consistency_run(4, samples=0).passed


def _reference_report(sigma, tau, vectors, lam1, winner):
    """game_vs_spectra from lambda_1 tables built one Fraction weighting and
    one shape at a time (lam1[w][shape] under vectors[w])."""
    violations, witness = [], None
    for a, table in zip(vectors, lam1):
        gap = table[sigma] - table[tau]
        if gap > 0:
            record = {"weights": [str(x) for x in a], "margin": float(gap)}
            if winner:
                violations.append(record)
            elif witness is None:
                witness = record
    return len(vectors), violations, witness


@pytest.mark.parametrize("all_won", [False, True])
def test_game_vs_spectra_matches_a_per_weighting_reference(monkeypatch, all_won):
    # all_won makes every pair a claimed win, so every violation is listed
    import aldous.game as game

    if all_won:
        monkeypatch.setattr(game, "game_winner", lambda s, t: True)
    for n, seed in ((3, 0), (4, 1), (5, 2)):
        parts = partitions_of(n)
        vectors = _fraction_sampler(n, 30, seed)
        lam1 = [{p: nested_star_extremes(p, a)[0] for p in parts} for a in vectors]
        for sigma in parts:
            for tau in parts:
                report = game_vs_spectra(sigma, tau, samples=30, seed=seed)
                expected = _reference_report(sigma, tau, vectors, lam1, report.winner)
                assert (report.samples, report.violations, report.witness) == expected


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_game_consistency_run_matches_a_per_weighting_loop(monkeypatch, seed):
    # the real run, and one where A wins every game so that every pair is
    # reported at its first violating weighting, against lambda_1 tables
    # built one Fraction weighting and one shape at a time
    import aldous.verify as verify

    samples, tables = 300, {}
    for size in range(2, 7):
        parts = partitions_of(size)
        vectors = _fraction_sampler(size, samples, seed + size)
        # weightings outermost, so each one's table serves every shape
        columns = [[nested_star_extremes(p, a)[0] for p in parts] for a in vectors]
        tables[size] = (len(vectors), dict(zip(parts, zip(*columns))))

    def expected(winner):
        checks = []
        for size, (count, lam1) in tables.items():
            bad = []
            for sigma in partitions_of(size):
                for tau in partitions_of(size):
                    if not winner(sigma, tau):
                        continue
                    first = next((i for i, (s, t) in enumerate(zip(lam1[sigma], lam1[tau]))
                                  if s > t), None)
                    if first is not None:
                        bad.append({"sigma": str(sigma), "tau": str(tau), "sample": first})
            checks.append({"name": f"game consistency n={size}", "ok": not bad,
                           "samples": count, "inconsistencies": bad})
        return checks

    run = verify.game_consistency_run
    assert run(6, samples=samples, seed=seed).checks == expected(game_winner)
    monkeypatch.setattr(verify, "game_winner", lambda s, t: True)
    assert run(6, samples=samples, seed=seed).checks == expected(lambda s, t: True)


def _count_walks(monkeypatch):
    """Spy on spectral._chains: the memo tables it is handed, one per walk."""
    import aldous.spectral as spectral

    tables = {}
    chains = spectral._chains

    def spy(parts, size, columns, table):
        tables[id(table)] = table
        return chains(parts, size, columns, table)

    monkeypatch.setattr(spectral, "_chains", spy)
    return tables


def test_game_run_walks_the_lattice_once_per_size_and_seeding_never(monkeypatch):
    # a fall-back to one walk per weighting fails here, not only in the bench;
    # seeding takes its lambda_1 vectors from closed forms, with no walk
    import aldous.verify as verify
    from aldous.order import seed_known

    walks = _count_walks(monkeypatch)
    verify.game_consistency_run(6)
    assert len(walks) == 5  # sizes 2..6
    for n in (4, 8):
        walks.clear()
        seed_known(n)
        assert len(walks) == 0
