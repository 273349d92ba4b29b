"""Bit-identity pin for the simulated oracle and the honest protocol runs.

`tests/data/oracle_honest_golden.json` holds the `repr` of every float the
exact rank-1 oracle returns on `param_grid(4, 4)`, the full transcripts
of seeded honest weak-CF and Colbeck runs, the simulated payoff of seeded
random complex preparations, and seeded `project` / `measure_projector`
results with their post states. A change to `quantum_core` or to
the oracle that moves any of them by one ulp (or flips the sign of a zero)
fails here. Regenerate the file, only after an intended change, with:

    PYTHONPATH=src python tests/test_bit_identity.py
"""

import json
from pathlib import Path

import numpy as np

from conftest import param_grid, payoff, state_json
from qdice import colbeck_dr, weak_cf
from qdice import quantum_core as qc

GOLDEN = Path(__file__).resolve().parent / "data" / "oracle_honest_golden.json"
WEAK_SEEDS = (0, 1, 7)
COLBECK_SEEDS = (0, 3)
COLBECK_NS = range(2, 17)
PAYOFFS_PER_PARAMS = 2
PROJECTED_STATES = 20


def _reprs(value):
    """The value with every float replaced by its repr, so JSON keeps every bit;
    a state is written as `state_json` lays it out."""
    if isinstance(value, qc.StateVector):
        return _reprs(state_json(value))
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, dict):
        return {k: _reprs(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_reprs(v) for v in value]
    return value


def golden_record() -> dict:
    oracle, weak = [], []
    for params in param_grid(4, 4):
        cheat = weak_cf.alice_cheat_oracle(params)
        oracle.append(
            _reprs(
                {
                    "p": params.p,
                    "eta": params.eta,
                    "p_alice_star": cheat.p_alice_star,
                    "maximizer_alphas": cheat.maximizer_alphas,
                    "delta_star": cheat.delta_star,
                }
            )
        )
        for seed in WEAK_SEEDS:
            winner, transcript = weak_cf.honest_run(params, seed)
            weak.append({"seed": seed, "winner": winner, "transcript": _reprs(transcript)})
    colbeck = []
    for n in COLBECK_NS:
        for seed in COLBECK_SEEDS:
            outcome, transcript = colbeck_dr.honest_run(n, seed)
            colbeck.append(
                {"n": n, "seed": seed, "outcome": outcome, "transcript": _reprs(transcript)}
            )
    rng = np.random.default_rng(2024)
    payoffs = []
    for params in param_grid(4, 4):
        for _ in range(PAYOFFS_PER_PARAMS):
            z = rng.normal(size=4) + 1j * rng.normal(size=4)
            payoffs.append(repr(payoff(z / np.linalg.norm(z), params)))
    dims, labels = (2, 3, 2), ("a", "b", "c")
    basis = [qc.basis_state(dims, labels, (i, j, 0)) for i in (0, 1) for j in (0, 2)]
    projected = []
    for k in range(PROJECTED_STATES):
        z = rng.normal(size=12) + 1j * rng.normal(size=12)
        state = qc.StateVector(dims, labels, z / np.linalg.norm(z))
        inside, outside = (qc.project(state, basis, side) for side in (True, False))
        measured = qc.measure_projector(state, basis, k)
        projected.append(
            _reprs(
                {
                    "inside": [inside[0], state_json(inside[1])["amps"]],
                    "outside": [outside[0], state_json(outside[1])["amps"]],
                    "measured": [
                        measured.outcome_index,
                        measured.probability,
                        state_json(measured.post_state)["amps"],
                    ],
                }
            )
        )
    return {
        "alice_cheat_oracle": oracle,
        "weak_cf_honest_run": weak,
        "colbeck_honest_run": colbeck,
        "weak_cf_payoff": payoffs,
        "quantum_core_project": projected,
    }


def test_golden_file_covers_the_stated_cases():
    golden = json.loads(GOLDEN.read_text())
    assert len(golden["alice_cheat_oracle"]) == 16
    assert len(golden["weak_cf_honest_run"]) == 16 * len(WEAK_SEEDS)
    assert len(golden["colbeck_honest_run"]) == len(COLBECK_NS) * len(COLBECK_SEEDS)
    assert len(golden["weak_cf_payoff"]) == 16 * PAYOFFS_PER_PARAMS
    assert len(golden["quantum_core_project"]) == PROJECTED_STATES


def test_outputs_are_bit_identical_to_the_golden_file():
    golden = json.loads(GOLDEN.read_text())
    record = golden_record()
    assert record.keys() == golden.keys()
    for key in record:
        for i, (got, want) in enumerate(zip(record[key], golden[key], strict=True)):
            assert got == want, f"{key}[{i}] differs from the golden file"


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(golden_record(), indent=1) + "\n")
