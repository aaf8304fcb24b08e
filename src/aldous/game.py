"""The corner-removal game approximating the nested-star comparison.

Players A and B hold diagrams of one size. Each round B removes a corner
of his diagram and announces its content (col - row), then A removes a
corner of hers; A survives the round when her content is at least B's,
ties included. A wins by surviving all rounds.

Only the two remaining shapes matter, so the minimax recursion memoizes
on that pair. Game results are consistency-tested against nested-star
eigenvalue comparisons but never converted into order entries: the
equivalence between the two is an unproved remark, and the engine does
not lean on it in either direction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .partitions import Box, Partition, corners, remove_box
from .spectral import nested_star_lambda1_scaled, remark_weights


@lru_cache(maxsize=None)
def _a_wins(a_shape: Partition, b_shape: Partition) -> bool:
    if a_shape.n == 0:
        return True
    for b_box in corners(b_shape):
        b_rest = remove_box(b_shape, b_box)
        survived = False
        for a_box in corners(a_shape):
            if a_box.content < b_box.content:
                continue
            if _a_wins(remove_box(a_shape, a_box), b_rest):
                survived = True
                break
        if not survived:
            return False
    return True


def game_winner(sigma: Partition, tau: Partition) -> bool:
    """True when A (holding sigma) has a winning strategy against tau."""
    if sigma.n != tau.n:
        raise ValueError("diagrams must have equal size")
    return _a_wins(sigma, tau)


def game_winner_brute(sigma: Partition, tau: Partition) -> bool:
    """Unmemoized twin of game_winner, kept as the small-n oracle."""
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


def game_trace(sigma: Partition, tau: Partition) -> list[tuple[Box, Box]]:
    """One line of optimal play: B plays a winning corner when he has one,
    A the first surviving reply (or her best content when lost)."""
    moves = []
    a_shape, b_shape = sigma, tau
    while b_shape.n:
        b_choice = None
        for b_box in corners(b_shape):
            b_rest = remove_box(b_shape, b_box)
            refuted = not any(
                a_box.content >= b_box.content
                and _a_wins(remove_box(a_shape, a_box), b_rest)
                for a_box in corners(a_shape)
            )
            if refuted:
                b_choice = b_box
                break
        if b_choice is None:
            b_choice = corners(b_shape)[0]
        b_rest = remove_box(b_shape, b_choice)
        a_choice = None
        for a_box in corners(a_shape):
            if a_box.content >= b_choice.content and _a_wins(
                remove_box(a_shape, a_box), b_rest
            ):
                a_choice = a_box
                break
        if a_choice is None:
            a_choice = max(corners(a_shape), key=lambda b: b.content)
        moves.append((b_choice, a_choice))
        a_shape = remove_box(a_shape, a_choice)
        b_shape = b_rest
    return moves


@dataclass
class GameSpectraReport:
    sigma: Partition
    tau: Partition
    winner: bool
    samples: int = 0
    violations: list = field(default_factory=list)
    witness: dict | None = None

    @property
    def consistent(self) -> bool:
        # winner=True must never see a spectral violation; winner=False is
        # one-way, so a missing witness is not an inconsistency
        return not self.violations


def _sample_weight_vectors(n: int, samples: int, seed: int, grid_max: int = 1):
    """Exact rational weight vectors: seeded randoms, a small integer grid
    and the fast-decaying separator weights."""
    rng = np.random.default_rng(seed)
    vectors = []
    for _ in range(samples):
        vectors.append([Fraction(int(x), 1000) for x in rng.integers(0, 1001, n - 1)])
    if (grid_max + 1) ** (n - 1) <= 256:
        def grids(prefix):
            if len(prefix) == n - 1:
                vectors.append([Fraction(x) for x in prefix])
                return
            for x in range(grid_max + 1):
                grids(prefix + [x])

        grids([])
    vectors.append(remark_weights(n))
    return vectors


def game_vs_spectra(sigma: Partition, tau: Partition, samples: int = 100,
                    seed: int = 0) -> GameSpectraReport:
    """Test the one-way, finitely checkable part of the game remark.

    If A wins, every sampled nested-star graph must order the lowest
    eigenvalues her way (exact arithmetic, so no tolerance); a violation
    is an inconsistency. If A loses, the samples are searched for a
    witness graph and the report says whether one turned up.
    """
    winner = game_winner(sigma, tau)
    report = GameSpectraReport(sigma, tau, winner)
    for a in _sample_weight_vectors(sigma.n, samples, seed):
        scale, (lam_s, lam_t) = nested_star_lambda1_scaled((sigma, tau), a)
        report.samples += 1
        if lam_s > lam_t:
            record = {"weights": [str(x) for x in a],
                      "margin": float(Fraction(lam_s - lam_t, scale))}
            if winner:
                report.violations.append(record)
            elif report.witness is None:
                report.witness = record
    return report
