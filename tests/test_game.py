from fractions import Fraction

import pytest

from aldous.game import (
    game_trace,
    game_vs_spectra,
    game_winner,
    game_winner_brute,
)
from aldous.partitions import Partition, partitions_of
from aldous.spectral import nested_star_extremes


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
        vectors = _sample_weight_vectors(size, samples, seed + size)
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
