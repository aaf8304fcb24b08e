"""The corner-removal game approximating the nested-star comparison.

Players A and B hold diagrams of one size. Each round B removes a corner
of his diagram and announces its content (col - row), then A removes a
corner of hers; A survives the round when her content is at least B's,
ties included. A wins by surviving all rounds.

Only the two remaining shapes matter, so the minimax is one
`partitions._walk` over pairs of diagrams, one round per level, with no
recursion: the table `_REPLIES` keeps, for each pair met, A's first
winning reply to each of B's corners, and both `game_winner` and
`game_trace` read it. Game results are consistency-tested against
nested-star eigenvalue comparisons but never converted into order entries:
the equivalence between the two is an unproved remark, and the engine
does not lean on it in either direction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import product

import numpy as np

from .partitions import Box, Partition, _removals, _walk, corners, remove_box
from .spectral import nested_star_lambda1_scaled


def _round(pair: tuple) -> list:
    """The positions one round under `pair` (A's diagram, B's diagram), each
    labelled (B's corner, A's reply): B removes any corner, then A any corner
    of content at least its content, both top row first."""
    a, b = pair
    return [((a_rest, b_rest), (b_box, a_box)) for b_rest, b_box in reversed(_removals(b))
            for a_rest, a_box in reversed(_removals(a)) if a_box.content >= b_box.content]


def _winning_replies(pair: tuple, below: list) -> dict:
    """{B's corner: A's first reply that leaves her a winning position, or
    None}, B's corners top row first. A wins when no value is None."""
    replies = dict.fromkeys(box for _, box in reversed(_removals(pair[1])))
    for after, (b_box, a_box) in below:
        if replies[b_box] is None and None not in after.values():
            replies[b_box] = a_box
    return replies


_REPLIES: dict = {}  # _winning_replies of every position walked so far


@lru_cache(maxsize=None)
def _a_wins(a_shape: Partition, b_shape: Partition) -> bool:
    return None not in _walk((a_shape.parts, b_shape.parts), _REPLIES, _winning_replies,
                             _round).values()


def game_winner(sigma: Partition, tau: Partition) -> bool:
    """True when A (holding sigma) has a winning strategy against tau."""
    if sigma.n != tau.n:
        raise ValueError("diagrams must have equal size")
    return _a_wins(sigma, tau)


def game_trace(sigma: Partition, tau: Partition) -> list[tuple[Box, Box]]:
    """One line of optimal play: B plays a winning corner when he has one,
    A the first surviving reply (or her best content when lost)."""
    moves = []
    a_shape, b_shape = sigma, tau
    while b_shape.n:
        replies = _walk((a_shape.parts, b_shape.parts), _REPLIES, _winning_replies, _round)
        b_choice = next((box for box in replies if replies[box] is None), next(iter(replies)))
        a_choice = replies[b_choice] or max(corners(a_shape), key=lambda box: box.content)
        moves.append((b_choice, a_choice))
        a_shape, b_shape = remove_box(a_shape, a_choice), remove_box(b_shape, b_choice)
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


def _sample_weight_vectors(n: int, samples: int, seed: int):
    """Exact rational weight vectors as (rows, scales): weighting w has
    weights rows[w][k] / scales[w], integer numerators over its own scale.
    They are seeded randoms k / 1000, the 0/1 vectors while there are at
    most 256 of them (n <= 9) and the fast-decaying separator weights
    n^(-2k) = n^(2n-2k) / n^(2n)."""
    if samples < 0:
        raise ValueError(f"samples must be nonnegative, got {samples}")
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, 1001, (samples, n - 1)).tolist()
    scales = [1000] * samples
    if n <= 9:
        grid = [list(x) for x in product((0, 1), repeat=n - 1)]
        rows += grid
        scales += [1] * len(grid)
    rows.append([n ** (2 * (n - k)) for k in range(2, n + 1)])
    scales.append(n ** (2 * n))
    return rows, scales


def game_vs_spectra(sigma: Partition, tau: Partition, samples: int = 100,
                    seed: int = 0) -> GameSpectraReport:
    """Test the one-way, finitely checkable part of the game remark.

    If A wins, every sampled nested-star graph must order the lowest
    eigenvalues her way (exact arithmetic, so no tolerance); a violation
    is an inconsistency. If A loses, the samples are searched for a
    witness graph and the report says whether one turned up. All samples
    are evaluated in one walk; lambda_1 is homogeneous in the weights, so
    the integer numerators order the shapes as the weights do.
    """
    winner = game_winner(sigma, tau)
    report = GameSpectraReport(sigma, tau, winner)
    rows, scales = _sample_weight_vectors(sigma.n, samples, seed)
    _, (lam_s, lam_t) = nested_star_lambda1_scaled((sigma, tau), rows)
    report.samples = len(rows)
    for w in np.flatnonzero(lam_s > lam_t).tolist():
        record = {"weights": [str(Fraction(x, scales[w])) for x in rows[w]],
                  "margin": float(Fraction(lam_s[w] - lam_t[w], scales[w]))}
        if not winner:
            report.witness = record
            break
        report.violations.append(record)
    return report
