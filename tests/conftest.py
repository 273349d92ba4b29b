import json
from collections.abc import Iterator
from pathlib import Path

import numpy as np
import pytest

from qdice import quantum_core as qc
from qdice import weak_cf
from qdice.weak_cf import DOWN, UP, WeakCFParams
from qdice.weak_dr import TournamentSpec

REPO_ROOT = Path(__file__).resolve().parent.parent
SCHEMA_DIR = REPO_ROOT / "schemas"


def param_grid(n_p: int = 10, n_eta: int = 10) -> Iterator[WeakCFParams]:
    """An n_p x n_eta sweep of valid (p, eta) pairs, p in [0.08, 0.92], eta <= 0.95(1-p)."""
    for p in np.linspace(0.08, 0.92, n_p):
        for frac in np.linspace(0.0, 0.95, n_eta):
            yield WeakCFParams(float(p), float(frac * (1.0 - p)))


# Bob's win sector: qubits 2, 3 read |ud>, qubit 1 free
WIN_SECTOR = qc.Subspace(
    [qc.basis_state((2, 2, 2), ("q1", "q2", "q3"), (x, UP, DOWN)) for x in (UP, DOWN)]
)


def preparation(alphas) -> qc.StateVector:
    """Alice's preparation alphas = (a_ud, a_du, a_uu, a_dd) on (q1, q2), a
    unit vector, tensored with Bob's |d> ancilla on q3."""
    amps = np.zeros(8, dtype=complex)
    for (i, j), a in zip(((UP, DOWN), (DOWN, UP), (UP, UP), (DOWN, DOWN)), alphas):
        amps[i * 4 + j * 2 + DOWN] = a
    return qc.StateVector((2, 2, 2), ("q1", "q2", "q3"), amps)


def payoff(alphas, params: WeakCFParams) -> float:
    """Alice's cheating payoff P_fail * P_test for one preparation, scored alone.

    The preparation goes through Bob's rotation; then, as a one-row stack,
    P_fail is the probability that his |ud> test fails and P_test that the
    renormalized post-failure state passes Alice's verification against
    xi. A preparation his test cannot fail on scores 0.
    """
    rotated = qc.apply(weak_cf.rotation_unitary(params), preparation(alphas))
    (p_fail,), posts = qc.project_all(qc.stack([rotated]), WIN_SECTOR, inside=False)
    if not p_fail:
        return 0.0
    (p_test,) = qc.overlap_all(weak_cf.alice_pass_state(params), posts).tolist()
    return p_fail * abs(p_test) ** 2


@pytest.fixture
def norm_checks(monkeypatch):
    """The arrays passed to the norm check that every state, and every row of
    a stack, passes however it is built, in call order."""
    checked = []
    check = qc._check_norm
    monkeypatch.setattr(qc, "_check_norm", lambda amps: checked.append(amps) or check(amps))
    return checked


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
