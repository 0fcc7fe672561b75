"""Shared fixtures: the paper's running examples and dataset factories.

The oracle tables themselves live in :mod:`_paper_fixtures` (plain data,
importable by name from any test module); this file turns them into
session fixtures:

* ``fig2_dataset`` — the six 2-d objects of paper Fig. 2.
* ``fig3_dataset`` — the 20-object 4-d running example of Fig. 3.
* ``movies_dataset`` — the Fig. 1 movie-recommender example (ratings,
  larger-is-better).
* ``make_incomplete`` — a seeded random incomplete-dataset factory.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import numpy as np
import pytest

# The repro_lint tooling package lives outside src/ (it lints the source
# tree, it is not shipped with it); make it importable for its own tests.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

from _paper_fixtures import FIG2_ROWS, FIG3_ROWS, MOVIE_ROWS
from repro.core.dataset import IncompleteDataset


def _shm_entries() -> set[str]:
    """Names of this project's live /dev/shm segments (POSIX only)."""
    try:
        return {name for name in os.listdir("/dev/shm") if name.startswith("reproshm")}
    except (FileNotFoundError, NotADirectoryError, PermissionError):
        return set()


@pytest.fixture(autouse=True)
def _no_shm_leaks():
    """Fail any test that leaves a shared-memory segment linked.

    :class:`repro.engine.backend.SharedTables` segments must be unlinked
    by whoever owns them before the query returns — a stale ``/dev/shm``
    entry is leaked RAM that outlives the process.
    """
    before = _shm_entries()
    yield
    leaked = _shm_entries() - before
    assert not leaked, f"leaked shared-memory segments: {sorted(leaked)}"


@pytest.fixture(autouse=True)
def _no_ambient_store(monkeypatch):
    """Keep a user's ``REPRO_CACHE_DIR`` from leaking persistent state in.

    Engines pick the store up from the environment by design; under test
    that would write into (and warm-start from) the developer's real
    store, making runs order-dependent. Tests that want a store set the
    variable (or pass ``store=``) explicitly.
    """
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)


@pytest.fixture(scope="session")
def fig2_dataset() -> IncompleteDataset:
    ids = list(FIG2_ROWS)
    return IncompleteDataset([FIG2_ROWS[i] for i in ids], ids=ids, name="fig2")


@pytest.fixture(scope="session")
def fig3_dataset() -> IncompleteDataset:
    ids = list(FIG3_ROWS)
    return IncompleteDataset([FIG3_ROWS[i] for i in ids], ids=ids, name="fig3")


@pytest.fixture(scope="session")
def movies_dataset() -> IncompleteDataset:
    ids = list(MOVIE_ROWS)
    return IncompleteDataset(
        [MOVIE_ROWS[i] for i in ids],
        ids=ids,
        dim_names=[f"a{j}" for j in range(1, 6)],
        directions="max",
        name="fig1-movies",
    )


def _random_incomplete(
    n: int,
    d: int,
    *,
    missing_rate: float = 0.2,
    cardinality: int = 20,
    seed: int = 0,
    directions: str = "min",
) -> IncompleteDataset:
    rng = np.random.default_rng(seed)
    values = rng.integers(1, cardinality + 1, size=(n, d)).astype(float)
    mask = rng.random((n, d)) < missing_rate
    # Keep at least one observed dimension per object (paper assumption).
    for row in range(n):
        if mask[row].all():
            mask[row, rng.integers(0, d)] = False
    values[mask] = np.nan
    return IncompleteDataset(values, directions=directions, name=f"rand-{seed}")


@pytest.fixture
def make_incomplete():
    """Factory fixture for seeded random incomplete datasets."""
    return _random_incomplete
