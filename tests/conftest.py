import json
from collections.abc import Iterator
from pathlib import Path

import numpy as np
import pytest

from qdice.weak_cf import WeakCFParams
from qdice.weak_dr import TournamentSpec

REPO_ROOT = Path(__file__).resolve().parent.parent
SCHEMA_DIR = REPO_ROOT / "schemas"


def param_grid(n_p: int = 10, n_eta: int = 10) -> Iterator[WeakCFParams]:
    """An n_p x n_eta sweep of valid (p, eta) pairs, p in [0.08, 0.92], eta <= 0.95(1-p)."""
    for p in np.linspace(0.08, 0.92, n_p):
        for frac in np.linspace(0.0, 0.95, n_eta):
            yield WeakCFParams(float(p), float(frac * (1.0 - p)))


@pytest.fixture(scope="session")
def schema_loader():
    def load(name: str) -> dict:
        with open(SCHEMA_DIR / f"{name}.schema.json") as fh:
            return json.load(fh)

    return load


@pytest.fixture(scope="session")
def random_tournament():
    """Draw a weak DR tournament with 2 <= N <= max_parties and each stage
    bias uniform below 1/(2N): one size draw, then one bias draw."""

    def draw(rng: np.random.Generator, max_parties: int = 10) -> TournamentSpec:
        n = int(rng.integers(2, max_parties + 1))
        return TournamentSpec(n, rng.uniform(0.0, 1.0 / (2 * n), size=n - 1).tolist())

    return draw
