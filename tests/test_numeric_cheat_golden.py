"""Bit-identity pin for the numeric route of Alice's weak-CF cheat.

`tests/data/numeric_cheat_golden.json` holds the `repr` of
`optimize.maximize_unimodal`'s (argmax, max) on the raw delta-objective
(`weak_cf.alice_split_cheat` at each split), the search
`weak_cf.alice_opt_cheat` cross-checks its closed form with, at
every point of `param_grid(12, 12)`, at the six-round certificate's probes
(eta* and eta* -/+ 1e-12 for both variants) and at the balanced fair
point. Each entry's "alice_numeric_cheat" holds the max again, under the
key the file has always used. A change
to the objective, the golden-section search or the check of the ends that
moves any of them by one ulp fails here. Regenerate the file, only after
an intended change, with:

    PYTHONPATH=src python tests/test_numeric_cheat_golden.py
"""

import json
from fractions import Fraction
from pathlib import Path

from conftest import param_grid
from qdice import sixround_dr, weak_cf
from qdice.optimize import maximize_unimodal
from qdice.weak_cf import WeakCFParams

GOLDEN = Path(__file__).resolve().parent / "data" / "numeric_cheat_golden.json"
PROBE_STEP = 1e-12  # the six-round certificate's step either side of eta*


def golden_params() -> list[tuple[str, WeakCFParams]]:
    cases = [("param_grid", params) for params in param_grid(12, 12)]
    for variant, p in (("case1", Fraction(1, 3)), ("case2", Fraction(2, 3))):
        eta = sixround_dr.solve(variant).eta_star
        for probe in (eta - PROBE_STEP, eta, eta + PROBE_STEP):
            cases.append((variant, WeakCFParams(float(p), probe)))
    cases.append(("balanced_fair_point", WeakCFParams(0.5, weak_cf.fair_eta_balanced())))
    return cases


def golden_record() -> list[dict]:
    record = []
    for source, params in golden_params():
        x, value = maximize_unimodal(lambda delta: weak_cf.alice_split_cheat(params, delta))
        record.append(
            {
                "source": source,
                "p": repr(params.p),
                "eta": repr(params.eta),
                "alice_numeric_cheat": repr(value),
                "argmax": repr(x),
                "max": repr(value),
            }
        )
    return record


def test_golden_file_covers_the_stated_cases():
    golden = json.loads(GOLDEN.read_text())
    sources = [entry["source"] for entry in golden]
    assert sources.count("param_grid") == 144
    assert sources.count("case1") == sources.count("case2") == 3
    assert sources.count("balanced_fair_point") == 1
    assert len(golden) == 151


def test_numeric_route_is_bit_identical_to_the_golden_file():
    golden = json.loads(GOLDEN.read_text())
    for i, (got, want) in enumerate(zip(golden_record(), golden, strict=True)):
        assert got == want, f"entry {i} ({want['source']}) differs from the golden file"


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(golden_record(), indent=1) + "\n")
