import json
from collections.abc import Iterator
from pathlib import Path

import numpy as np
import pytest

from qdice import quantum_core as qc
from qdice import weak_cf
from qdice.weak_cf import WeakCFParams
from qdice.weak_dr import TournamentSpec

REPO_ROOT = Path(__file__).resolve().parent.parent
SCHEMA_DIR = REPO_ROOT / "schemas"


def param_grid(n_p: int = 10, n_eta: int = 10) -> Iterator[WeakCFParams]:
    """An n_p x n_eta sweep of valid (p, eta) pairs, p in [0.08, 0.92], eta <= 0.95(1-p)."""
    for p in np.linspace(0.08, 0.92, n_p):
        for frac in np.linspace(0.0, 0.95, n_eta):
            yield WeakCFParams(float(p), float(frac * (1.0 - p)))


def payoff(alphas, params: WeakCFParams) -> float:
    """Alice's cheating payoff P_fail * P_test for one preparation, scored alone.

    alphas = (a_ud, a_du, a_uu, a_dd) is a unit vector. The preparation is
    pushed through the protocol at params as the oracle pushes its maximizer:
    Bob's rotation against a |d> ancilla, then, as a one-row stack, the
    probability his |ud> test fails and Alice's verification overlap on the
    renormalized post-failure state.
    """
    rotated = qc.apply(weak_cf.rotation_unitary(params), weak_cf._preparation(alphas))
    return weak_cf._scores(qc.stack([rotated]), weak_cf.alice_pass_state(params))[0]


def state_json(state: qc.StateVector) -> dict:
    """A state as JSON-ready lists: its dims, its labels, and its amplitudes as
    (real, imag) rows of the complex128 buffer, so that signed zeros survive."""
    return {
        "dims": list(state.dims),
        "labels": list(state.labels),
        "amps": state.amps.view(np.float64).reshape(-1, 2).tolist(),
    }


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
