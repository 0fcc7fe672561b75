"""Score computation (paper Definition 2) and the ``Get-Score`` primitive.

``score(o) = |{o' ∈ S − {o} : o ≻ o'}|`` — the number of objects dominated
by ``o``. The naive route is exhaustive pairwise comparison; this module
provides

* :func:`score_one` — ``Get-Score`` for a single object, one vectorised
  ``O(n·d)`` pass (what UBB calls per candidate, Algorithm 2 line 6),
* :func:`score_many` / :func:`score_all` — blocked batch scoring used by the
  Naive baseline and by ESB's filtering step; both are thin fronts over the
  :mod:`repro.engine.kernels` broadcast kernels,
* :class:`ScoreCounter` — a tiny accounting helper so algorithms can report
  how many full score computations they performed (drives the Fig. 18-style
  effectiveness reporting).

Everything operates on an :class:`~repro.core.dataset.IncompleteDataset`'s
minimized orientation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..engine.kernels import dominated_counts
from .dataset import IncompleteDataset
from .dominance import dominated_mask

__all__ = ["score_one", "score_many", "score_all", "ScoreCounter"]


def score_one(dataset: IncompleteDataset, index: int) -> int:
    """Exact ``score(o)`` of one object via a vectorised pairwise pass."""
    return int(dominated_mask(dataset, index).sum())


def score_many(
    dataset: IncompleteDataset,
    indices: Sequence[int],
    *,
    block: int | None = None,
    prepared=None,
) -> np.ndarray:
    """Exact scores for a set of objects, blocked for cache friendliness.

    A thin front over :func:`repro.engine.kernels.dominated_counts`: large
    batches — or any batch once the engine session has cached this
    dataset's packed-bitset tables — ride the bitset route; the rest use
    one broadcast ``(block, n, d)`` boolean kernel per block, still
    substantially faster than ``score_one`` in a Python loop.
    ``block=None`` sizes the blocks automatically from ``(n, d)``; pass a
    :class:`~repro.engine.kernels.PreparedDataset` as *prepared* to pin
    specific cached structures.
    """
    return dominated_counts(dataset, indices, block=block, prepared=prepared)


def score_all(
    dataset: IncompleteDataset, *, block: int | None = None, prepared=None
) -> np.ndarray:
    """Exact scores of every object (the Naive algorithm's main loop).

    Repeated full scans of the same dataset reuse the engine's
    fingerprint-keyed bitset tables (built on the first scan), so a sweep
    pays the table construction once.
    """
    return dominated_counts(dataset, None, block=block, prepared=prepared)


@dataclass
class ScoreCounter:
    """Counts exact-score computations and pairwise object comparisons.

    Algorithms thread one of these through their scoring calls so that the
    experiment harness can report work done, mirroring the paper's
    pruning-effectiveness analysis (Section 5.3).
    """

    scores_computed: int = 0
    comparisons: int = 0
    per_algorithm: dict = field(default_factory=dict)

    def record(self, n_scores: int, n_comparisons: int) -> None:
        """Add *n_scores* full score computations costing *n_comparisons*."""
        self.scores_computed += int(n_scores)
        self.comparisons += int(n_comparisons)

    def merge(self, other: "ScoreCounter") -> None:
        """Fold another counter into this one."""
        self.scores_computed += other.scores_computed
        self.comparisons += other.comparisons
