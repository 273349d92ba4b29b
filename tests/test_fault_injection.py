"""Fault injection: which printed numbers a check catches when they are wrong.

Each row perturbs one qdice function or constant, runs one argv through
`cli.run`, and reads the exit code. A fault that a check catches exits 2
with a reason naming that check. A fault that no check sees exits 0; such
rows are listed by name in KNOWN_SURVIVORS, with what they lack. The test
fails when a survivor gets caught or a caught row survives, so closing a
gap, or opening one, edits KNOWN_SURVIVORS.

A target is patched at every qdice module that binds it by name, as
perfbench's tracer does, so `sixround_dr.bob_opt_cheat` is perturbed along
with `weak_cf.bob_opt_cheat`.
"""

import dataclasses
import math
import sys
from fractions import Fraction

import pytest

from qdice import cli


def _plus(delta):
    return lambda f: lambda *args: f(*args) + delta


def _next_float(f):
    return lambda *args: math.nextafter(f(*args), math.inf)


def _returns(value):
    return lambda f: lambda *args: value


def _adversary_plus_at_positive_delta(f):
    return lambda tree, target, delta: f(tree, target, delta) + (1e-3 if delta > 0 else 0.0)


def _chooser_plus(f):
    return lambda: [x + 1e-5 for x in f()]


def _report_plus(field, delta):
    def perturb(f):
        def cheat_probs(params):
            report = f(params)
            return dataclasses.replace(report, **{field: getattr(report, field) + delta})

        return cheat_probs

    return perturb


def _colbeck_alice_plus(f):
    def cheat_probs(n):
        pa, pb = f(n)
        return pa + Fraction(1, 1000), pb

    return cheat_probs


def _fail_probs_times(factor, rows):
    """Scale the probabilities that `project_all` reports for the given rows
    (a slice), leaving its post states as they are."""

    def perturb(f):
        def project_all(states, basis, inside=True):
            probs, posts = f(states, basis, inside)
            probs[rows] = [p * factor for p in probs[rows]]
            return probs, posts

        return project_all

    return perturb


def _stage_factors_over_k_plus_2(f):
    """Build the tournament, then rescale each stage's float factor from
    k/(k + 1) - delta_k to k/(k + 2) - delta_k."""

    def tournament_spec(n_parties, stage_biases):
        spec = f(n_parties, stage_biases)
        factors = [k / (k + 2) - b for k, b in enumerate(spec.stage_biases, start=1)]
        spec.__dict__.update(_factors=factors)
        return spec

    return tournament_spec


def _eta_times(factor):
    return lambda f: lambda params: f(dataclasses.replace(params, eta=params.eta * factor))


# name: (target, perturbation of the original, argv, expected stderr reason);
# a survivor's expected reason is None
ROWS = {
    "bob_opt_cheat+1e-7/reproduce": (
        # the six-round solve's sign-change certificate at the fair point
        "weak_cf.bob_opt_cheat", _plus(1e-7), ["reproduce"], "do not bracket x = 0.20710678118654752",
    ),
    "fair_eta_balanced+1e-8/reproduce": (
        # the fair cheat value is Bob's cheat at eta*, so it moves with eta*
        "weak_cf.fair_eta_balanced", _plus(1e-8), ["reproduce"], "balanced weak CF fair cheat value",
    ),
    "fair_eta_balanced+1e-10/reproduce": (
        "weak_cf.fair_eta_balanced", _plus(1e-10), ["reproduce"], None,
    ),
    "adversary_success=0.9/strong-dr": (
        "strong_dr.adversary_success", _returns(0.9), ["strong-dr", "--n", "5"],
        "misses the symmetric bound",
    ),
    "bob_cheat_oracle=0/colbeck": (
        "colbeck_dr.bob_cheat_oracle", _returns(Fraction(0)), ["colbeck", "--n", "3"],
        "Bob's enumeration oracle 0/1 differs from 5/9",
    ),
    "HONEST_LOSS=0.66667/reproduce": (
        "sixround_dr.HONEST_LOSS", lambda _: 0.66667, ["reproduce"], None,
    ),
    "chooser_force_probs+1e-5/reproduce": (
        "multiparty.chooser_force_probs", _chooser_plus, ["reproduce"], None,
    ),
    "adversary_success+1e-3@delta>0/strong-dr": (
        "strong_dr.adversary_success", _adversary_plus_at_positive_delta,
        ["strong-dr", "--n", "5", "--delta", "0.01"], None,
    ),
    "bob_cheat_oracle=0/reproduce": (
        "colbeck_dr.bob_cheat_oracle", _returns(Fraction(0)), ["reproduce"], None,
    ),
    "adversary_success=0.9/reproduce": (
        "strong_dr.adversary_success", _returns(0.9), ["reproduce"], None,
    ),
    "strong_cf.pb0+1e-13/reproduce": (
        "strong_cf.cheat_probs", _report_plus("pb0", 1e-13), ["reproduce"], None,
    ),
    "colbeck_alice+1/1000/colbeck": (
        "colbeck_dr.cheat_probs", _colbeck_alice_plus, ["colbeck", "--n", "3"], None,
    ),
    "strong_cf.pa0+1e-6/strong-cf": (
        "strong_cf.cheat_probs", _report_plus("pa0", 1e-6), ["strong-cf", "--p0", "0.3"], None,
    ),
    "alice_opt_cheat+1e-6/weak-cf": (
        # the closed form A + B against the simulated oracle's maximum
        "weak_cf.alice_opt_cheat", _report_plus("p_alice_star", 1e-6), ["weak-cf", "--p", "0.3", "--eta", "0.1"],
        "differ by",
    ),
    "bob_opt_cheat+1e-3/weak-cf": (
        "weak_cf.bob_opt_cheat", _plus(1e-3), ["weak-cf", "--p", "0.3", "--eta", "0.1"], None,
    ),
    "alice_cheat_oracle.delta_star+0.1/weak-cf": (
        # the oracle's split against the closed form's B/(A+B)
        "weak_cf.alice_cheat_oracle", _report_plus("delta_star", 0.1), ["weak-cf", "--p", "0.3", "--eta", "0.1"],
        "closed form split",
    ),
    "alice_opt_cheat.delta_star+0.1/weak-cf": (
        "weak_cf.alice_opt_cheat", _report_plus("delta_star", 0.1), ["weak-cf", "--p", "0.3", "--eta", "0.1"],
        "closed form split",
    ),
    "stage_factors=k/(k+2)/weak-dr": (
        # max_losing_prob moves from 0.8586 to 0.8997; eps_bar < N delta_max still holds
        "weak_dr.TournamentSpec", _stage_factors_over_k_plus_2,
        ["weak-dr", "--n", "6", "--biases", "0.01,0.02,0.03,0.01,0.02", "--party", "4"], None,
    ),
    "project_all.p_fail*(1+1e-9)/weak-cf": (
        # the oracle's basis certificate: rows 0-3 must sum to ||v||^2
        "quantum_core.project_all", _fail_probs_times(1 + 1e-9, slice(None)),
        ["weak-cf", "--p", "0.3", "--eta", "0.1"], "basis preparations score",
    ),
    "project_all.p_fail[-1]*(1-1e-9)/weak-cf": (
        # the oracle's attainment certificate: row 4, the maximizer, must reach ||v||^2
        "quantum_core.project_all", _fail_probs_times(1 - 1e-9, slice(-1, None)),
        ["weak-cf", "--p", "0.3", "--eta", "0.1"], "oracle maximizer attains",
    ),
    "rotation_unitary@eta*(1+1e-9)/weak-cf": (
        "weak_cf.rotation_unitary", _eta_times(1 + 1e-9), ["weak-cf", "--p", "0.3", "--eta", "0.1"], None,
    ),
    "sqrt2_quadratic_root+1ulp/six-round": (
        "optimize.sqrt2_quadratic_root", _next_float, ["six-round"], None,
    ),
    "sqrt2_quadratic_root+1ulp/reproduce": (
        "optimize.sqrt2_quadratic_root", _next_float, ["reproduce"], None,
    ),
    "sqrt2_quadratic_root+1e-11/six-round": (
        # the six-round solve's sign-change certificate at eta*
        "optimize.sqrt2_quadratic_root", _plus(1e-11), ["six-round"], "do not bracket",
    ),
}

# name: why the fault exits 0
KNOWN_SURVIVORS = {
    "fair_eta_balanced+1e-10/reproduce": "both fair rows move inside their 1e-9",
    "HONEST_LOSS=0.66667/reproduce": "both six-round bias rows move by 3.3e-6, inside their quoted 1e-3",
    "chooser_force_probs+1e-5/reproduce": "the three-party value moves by 3.3e-6, inside its quoted 5e-6",
    "adversary_success+1e-3@delta>0/strong-dr": "strong-dr checks the forcing probability at delta 0 only",
    "bob_cheat_oracle=0/reproduce": "reproduce never calls the oracle",
    "adversary_success=0.9/reproduce": "reproduce never calls adversary_success",
    "strong_cf.pb0+1e-13/reproduce": "the balanced products move inside their 1e-12",
    "colbeck_alice+1/1000/colbeck": "Alice's (N+1)/2N has no second route",
    "strong_cf.pa0+1e-6/strong-cf": "strong-cf checks only the honest round trip",
    "bob_opt_cheat+1e-3/weak-cf": "Bob's p + eta has one route",
    "stage_factors=k/(k+2)/weak-dr": "weak_dr's biased chain has no second route",
    "rotation_unitary@eta*(1+1e-9)/weak-cf": (
        "the oracle's value moves inside --tol; both certificates use the same U"
    ),
    "sqrt2_quadratic_root+1ulp/six-round": (
        "the sign-change certificate steps 1e-12; a 1-ulp root moves no residual sign"
    ),
    "sqrt2_quadratic_root+1ulp/reproduce": (
        "the sign-change certificate steps 1e-12; a 1-ulp root moves no residual sign"
    ),
}


def _inject(monkeypatch, target: str, perturbation) -> None:
    module, attr = target.split(".")
    original = getattr(sys.modules[f"qdice.{module}"], attr)
    replacement = perturbation(original)
    patched = 0
    for key, mod in list(sys.modules.items()):
        if key.startswith("qdice."):
            for name, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, name, replacement)
                    patched += 1
    assert patched


def test_every_survivor_is_a_row_without_a_reason():
    assert set(KNOWN_SURVIVORS) == {name for name, row in ROWS.items() if row[3] is None}


@pytest.mark.parametrize("name", ROWS)
def test_fault_is_caught_unless_a_known_survivor(monkeypatch, capsys, name):
    target, perturbation, argv, expected = ROWS[name]
    _inject(monkeypatch, target, perturbation)
    code = cli.run(argv)
    err = capsys.readouterr().err
    if name in KNOWN_SURVIVORS:
        assert (code, err) == (0, ""), f"{name} is caught now: give it its reason and drop it from KNOWN_SURVIVORS"
    else:
        assert code == 2 and expected in err, err


@pytest.mark.parametrize("argv", [["reproduce"], ["six-round"]])
def test_a_raised_cross_check_prints_no_record(monkeypatch, capsys, argv):
    # a handler's failed comparison still prints its record (tests/test_cli.py's
    # TestMismatchReasons); a CrossCheckError raised in the library leaves no
    # record to print
    _inject(monkeypatch, "weak_cf.bob_opt_cheat", _plus(1e-7))
    code = cli.run(argv)
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err.startswith("verification mismatch: ") and err.count("\n") == 1
