"""Three-round weak imbalanced CF: honest runs, closed-form cheats, oracle."""

import dataclasses
import json
from fractions import Fraction
from math import inf, nextafter, sqrt

import numpy as np
import pytest

from conftest import WIN_SECTOR, param_grid, payoff, preparation
from qdice import cli, weak_cf
from qdice import quantum_core as qc
from qdice.errors import CrossCheckError, ParameterRangeError
from qdice.optimize import maximize_unimodal
from qdice.weak_cf import DOWN, UP, WeakCFParams

S2 = sqrt(2.0)
FAIR_ETA = (S2 - 1) / 2


def numeric_cheat(params):
    """The numeric route alone: the search's maximum of the raw objective at
    each split, which `alice_opt_cheat` checks its closed form against."""
    return maximize_unimodal(lambda delta: weak_cf.alice_split_cheat(params, delta))[1]


def search_max(params):
    """The maximum of the search `alice_opt_cheat` runs: the raw objective
    at the argmax it keeps, as `maximize_unimodal` returns the objective there."""
    return weak_cf.alice_split_cheat(params, weak_cf.alice_opt_cheat(params).search_delta)


def coeffs(params):
    """(A, B) of Alice's objective (sqrt(A(1-d)) + sqrt(B d))^2 at (p, eta):
    A = (1-p-eta)/(1-p) and B = eta^2 / ((1-p)(p+eta)), 0 at eta = 0."""
    p, eta = params.p, params.eta
    return (1.0 - p - eta) / (1.0 - p), 0.0 if eta == 0.0 else eta**2 / ((1.0 - p) * (p + eta))


def balanced_residual(eta):
    """P_A* - P_B* of the balanced protocol at eta, from the closed form A + B."""
    params = WeakCFParams(0.5, eta)
    return weak_cf.alice_opt_cheat(params).p_alice_star - weak_cf.bob_opt_cheat(params)


class TestParams:
    def test_rejects_p_out_of_range(self):
        with pytest.raises(ParameterRangeError):
            WeakCFParams(1.2, 0.0)
        with pytest.raises(ParameterRangeError):
            WeakCFParams(-0.1, 0.0)

    def test_rejects_eta_above_cap(self):
        with pytest.raises(ParameterRangeError):
            WeakCFParams(0.5, 0.6)

    def test_clamps_eta_marginally_above_cap(self):
        params = WeakCFParams(0.5, 0.5 + 5e-13)
        assert params.eta == 0.5

    @pytest.mark.parametrize(
        "p,eta",
        [(0.5, float("nan")), (float("nan"), 0.1), (0.5, float("inf")), (float("-inf"), 0.0)],
    )
    def test_rejects_non_finite(self, p, eta):
        with pytest.raises(ParameterRangeError, match="finite"):
            WeakCFParams(p, eta)


def honest_alice_win(params: WeakCFParams) -> float:
    """Honest Alice's analytic win probability, 1 - Bob's, from an honest run's transcript."""
    return 1.0 - weak_cf.honest_run(params, seed=0)[1]["bob_win_probability"]


class TestHonestRun:
    @pytest.mark.parametrize(
        "p,eta,alice_win",
        [(0.5, 0.2071, 0.5), (1 / 3, 0.1, 2 / 3), (0.5, 0.0, 0.5)],
    )
    def test_analytic_alice_win_probability(self, p, eta, alice_win):
        assert honest_alice_win(WeakCFParams(p, eta)) == pytest.approx(alice_win, abs=1e-12)

    def test_eta_independence_of_honest_marginal(self):
        # Bob's honest winning probability is p regardless of eta
        for p in (0.2, 0.5, 0.75):
            values = {
                round(honest_alice_win(WeakCFParams(p, f * (1 - p))), 12)
                for f in (0.0, 0.3, 0.6, 0.99)
            }
            assert values == {round(1 - p, 12)}

    def test_verification_always_passes(self):
        # both branches: the verification projection has analytic probability 1
        for seed in range(8):
            winner, transcript = weak_cf.honest_run(WeakCFParams(0.5, 0.2071), seed=seed)
            assert winner in ("alice", "bob")
            assert transcript["verification_probability"] == pytest.approx(1.0, abs=1e-12)
            assert transcript["bob_win_probability"] == pytest.approx(0.5, abs=1e-12)

    def test_win_probability_comes_from_the_measurement(self, monkeypatch):
        params = WeakCFParams(0.3, 0.15)
        psi1 = qc.apply(
            weak_cf.rotation_unitary(params),
            qc.tensor(weak_cf.initial_state(params), qc.basis_state((2,), ("q3",), (DOWN,))),
        )
        expected = qc.subspace_probability(psi1, WIN_SECTOR)
        calls = []
        original = qc.subspace_probability
        monkeypatch.setattr(qc, "subspace_probability", lambda *a: calls.append(a) or original(*a))
        winners = []
        for seed in range(6):
            winner, transcript = weak_cf.honest_run(params, seed=seed)
            winners.append(winner)
            assert transcript["bob_win_probability"] == expected
        # only Alice's check of Bob's first qubit, on runs Bob wins, still asks for a subspace probability
        assert set(winners) == {"alice", "bob"}
        assert len(calls) == winners.count("bob")

    def test_winner_matches_sampled_branch(self):
        winner, transcript = weak_cf.honest_run(WeakCFParams(0.7, 0.1), seed=11)
        assert (winner == "bob") == transcript["bob_found_ud"]

    def test_transcript_records_states(self):
        _, transcript = weak_cf.honest_run(WeakCFParams(0.5, 0.1), seed=0)
        assert isinstance(transcript["psi0"], qc.StateVector)
        assert isinstance(transcript["psi1"], qc.StateVector)
        assert transcript["psi0"].amps.shape == (4,)
        assert transcript["psi1"].amps.shape == (8,)


class TestAliceOptCheat:
    def test_balanced_fair_point_value(self):
        analysis = weak_cf.alice_opt_cheat(WeakCFParams(0.5, FAIR_ETA))
        assert analysis.p_alice_star == pytest.approx(1 / S2, abs=1e-9)

    def test_eta_zero_gives_certain_cheat(self):
        for p in (0.1, 0.5, 0.9):
            analysis = weak_cf.alice_opt_cheat(WeakCFParams(p, 0.0))
            assert analysis.p_alice_star == pytest.approx(1.0, abs=1e-12)
            assert analysis.delta_star == pytest.approx(0.0, abs=1e-12)

    def test_third_share_closed_form(self):
        # at p = 1/3 the closed form simplifies to (2+3 eta) / (2 (1+3 eta))
        eta = 0.1462
        expected = (2 + 3 * eta) / (2 * (1 + 3 * eta))
        analysis = weak_cf.alice_opt_cheat(WeakCFParams(1 / 3, eta))
        assert analysis.p_alice_star == pytest.approx(expected, abs=1e-12)

    def test_numeric_route_agrees_with_closed_form_on_sweep(self):
        for params in param_grid(10, 10):
            argmax, numeric = maximize_unimodal(lambda delta: weak_cf.alice_split_cheat(params, delta))
            closed = weak_cf.alice_opt_cheat(params)
            assert abs(numeric - closed.p_alice_star) <= 1e-12
            # the production path re-runs this cross-check, raises on failure
            # and keeps the search's argmax
            assert closed.search_delta == argmax

    def test_numeric_route_agrees_with_closed_form_on_seeded_draws(self):
        # the edges included: p near 0 and 1, eta at 0, at its cap and subnormal;
        # an optimum within 1e-13 of delta = 0 (p = 1 - 1e-9, eta ~ 1e-11) is the hardest
        rng = np.random.default_rng(2000)
        edges = (0.0, 1e-300, 0.5, 1.0 - 1e-9)
        for k in range(3000):
            p = edges[k % 4] if k % 5 == 0 else float(rng.uniform(0.0, 0.999999))
            eta = (0.0, 1.0 - p, 5e-324, float(rng.uniform(0.0, 1.0 - p)))[k % 4]
            if k % 7 == 0:
                eta = float(rng.uniform(0.0, 1e-10)) * (1.0 - p)
            params = WeakCFParams(p, eta)
            a, b = coeffs(params)
            assert abs(search_max(params) - (a + b)) <= 1e-12, (p, eta)

    @pytest.mark.parametrize("p", [0.0, 1e-300, 0.1, 1 / 3, 0.5, 0.9, 1.0 - 1e-9])
    def test_eta_zero_numeric_cheat_is_exactly_one(self, p):
        # B = 0: the objective falls from A = 1 at delta = 0, an end golden section never visits
        assert numeric_cheat(WeakCFParams(p, 0.0)) == 1.0

    def test_opt_cheat_cross_checks_against_its_one_search(self, monkeypatch):
        maximize = weak_cf.maximize_unimodal
        seen = []

        def shifted(f):
            seen.append(f)
            x, value = maximize(f)
            return x, value + 2e-9

        monkeypatch.setattr(weak_cf, "maximize_unimodal", shifted)
        with pytest.raises(CrossCheckError):
            weak_cf.alice_opt_cheat(WeakCFParams(0.5, FAIR_ETA))
        assert len(seen) == 1

    @staticmethod
    def reference_objective(a, b, delta):
        return (np.sqrt(a * (1.0 - delta)) + np.sqrt(b * delta)) ** 2

    # A = 1 and B = 0 (eta = 0), A = 0 (eta = 1 - p), p = 0, A within an
    # ulp of 0, and p within 1e-9 of 1
    EDGES = [WeakCFParams(0.3, 0.0), WeakCFParams(0.7, 0.3), WeakCFParams(0.0, 0.6),
             WeakCFParams(0.0, 1.0), WeakCFParams(0.5, nextafter(0.5, 0.0)), WeakCFParams(1.0 - 1e-9, 5e-10)]

    @pytest.mark.parametrize("params", [*EDGES, *param_grid(3, 3)])
    def test_split_cheat_is_the_reference_formula_bit_for_bit(self, params):
        a, b = coeffs(params)
        deltas = np.concatenate([np.linspace(0.0, 1.0, 2001), [1e-300, 5e-324, 1.0 - 2**-53]])
        want = self.reference_objective(a, b, deltas).tolist()
        got = [weak_cf.alice_split_cheat(params, d) for d in deltas.tolist()]
        assert all(type(v) is float for v in got)
        assert got == want
        assert [weak_cf.alice_split_cheat(params, d) for d in deltas] == want  # np.float64 elements

    @pytest.mark.parametrize("delta", [-0.1, 1.5, float("nan"), float("inf"), -float("inf")])
    def test_out_of_domain_delta_gives_nan(self, delta):
        params = WeakCFParams(0.3, 0.25)
        assert np.isnan(weak_cf.alice_split_cheat(params, delta))
        assert np.isnan(weak_cf.alice_split_cheat(params, np.float64(delta)))

    @pytest.mark.parametrize("params", [*EDGES, *param_grid(10, 10)])
    def test_numeric_maximum_agrees_with_the_reference_formula(self, params):
        a, b = coeffs(params)
        x, value = maximize_unimodal(lambda delta: weak_cf.alice_split_cheat(params, delta))
        assert 0.0 <= x <= 1.0 and value == self.reference_objective(a, b, x)
        # Cauchy-Schwarz: the maximum over [0, 1] is A + B
        assert abs(value - (a + b)) <= 1e-12 * max(1.0, a + b)
        # a dense brute force over the reference formula finds nothing higher
        dense = self.reference_objective(a, b, np.linspace(0.0, 1.0, 2**16 + 1))
        assert value >= float(dense.max()) - 1e-12

    @staticmethod
    def with_coeffs(monkeypatch, bad):
        """Make every (A, B) `alice_split_cheat` and the search read the
        given pair, a None entry keeping its valid value."""
        coeffs_of = weak_cf._objective_coeffs

        def replaced(params):
            return tuple(x if y is None else y for x, y in zip(coeffs_of(params), bad))

        monkeypatch.setattr(weak_cf, "_objective_coeffs", replaced)

    @pytest.mark.parametrize("a, b", [(float("nan"), 0.3), (0.7, float("nan")), (-0.5, 0.4), (0.6, -0.1)])
    def test_nan_or_negative_coefficient_gives_nan_everywhere(self, monkeypatch, a, b):
        self.with_coeffs(monkeypatch, (a, b))
        params = WeakCFParams(0.5, 0.2)
        assert all(np.isnan(weak_cf.alice_split_cheat(params, d)) for d in np.linspace(0.0, 1.0, 1001).tolist())

    @pytest.mark.parametrize("which", [0, 1])
    @pytest.mark.parametrize("bad", [float("nan"), -0.5, -5e-324])
    def test_nan_or_negative_coefficient_fails_closed(self, monkeypatch, which, bad):
        # no valid (p, eta) gives one: the objective is then NaN at every
        # delta, so the search's maximum is NaN and the cross-check fails
        self.with_coeffs(monkeypatch, [bad if k == which else None for k in (0, 1)])
        params = WeakCFParams(0.5, 0.2)
        assert np.isnan(numeric_cheat(params))
        with pytest.raises(CrossCheckError):
            weak_cf.alice_opt_cheat(params)

    def test_cross_check_fails_closed_on_nan(self, monkeypatch):
        monkeypatch.setattr(weak_cf, "maximize_unimodal", lambda *a, **k: (0.5, float("nan")))
        with pytest.raises(CrossCheckError):
            weak_cf.alice_opt_cheat(WeakCFParams(0.5, 0.2))

    def test_degenerate_p_one_rejected(self):
        with pytest.raises(ParameterRangeError):
            weak_cf.alice_opt_cheat(WeakCFParams(1.0, 0.0))

    @pytest.mark.parametrize(
        "route, message",
        [
            (weak_cf.alice_opt_cheat, "alice_opt_cheat undefined at p = 1"),
            # the one check that both routes pass
            (numeric_cheat, "alice_opt_cheat undefined at p = 1"),
            (weak_cf.alice_cheat_oracle, "verification state undefined at p = 1"),
        ],
    )
    def test_every_route_refuses_p_one(self, route, message):
        with pytest.raises(ParameterRangeError, match=f"^{message}$"):
            route(WeakCFParams(1.0, 0.0))

    def test_cheating_never_below_honest(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            p = rng.uniform(0.05, 0.95)
            eta = rng.uniform(0.0, 1 - p)
            params = WeakCFParams(p, eta)
            assert weak_cf.alice_opt_cheat(params).p_alice_star >= 1 - p - 1e-9
            assert weak_cf.bob_opt_cheat(params) >= p - 1e-9


class TestCrossCheckStrength:
    """The numeric route of `alice_opt_cheat` stays a full-strength second route."""

    @staticmethod
    def record_objective(monkeypatch, shift=0.0):
        """Record the probes of the search `alice_opt_cheat` runs, shifting
        every value the objective gives it."""
        calls = []
        maximize = weak_cf.maximize_unimodal

        def spy(f):
            def shifted(delta):
                calls.append(delta)
                return f(delta) + shift

            return maximize(shifted)

        monkeypatch.setattr(weak_cf, "maximize_unimodal", spy)
        return calls

    @pytest.mark.parametrize("params", [WeakCFParams(0.5, FAIR_ETA), WeakCFParams(1 / 3, 0.1462),
                                        WeakCFParams(2 / 3, 0.2), WeakCFParams(0.3, 0.0)])
    def test_scalar_search_then_both_ends(self, monkeypatch, params):
        calls = self.record_objective(monkeypatch)
        weak_cf.alice_opt_cheat(params)
        assert all(type(x) is float for x in calls)
        # golden section over all of [0, 1]: both probes evaluated last lie in
        # the final bracket, whose midpoint comes next, then the two ends
        *probes, x, zero, one = calls
        assert (zero, one) == (0.0, 1.0)
        assert len(probes) == 2 + 58  # the two first probes, then one per bracket step
        assert all(abs(p - x) <= 0.5e-12 for p in probes[-2:])

    @pytest.mark.parametrize("shift", [2e-9, -2e-9])
    def test_routes_two_e_minus_nine_apart_raise(self, monkeypatch, shift):
        self.record_objective(monkeypatch, shift)
        with pytest.raises(CrossCheckError):
            weak_cf.alice_opt_cheat(WeakCFParams(0.5, FAIR_ETA))

    @pytest.mark.parametrize("shift", [0.5e-9, -0.5e-9])
    def test_routes_within_tolerance_pass(self, monkeypatch, shift):
        self.record_objective(monkeypatch, shift)
        weak_cf.alice_opt_cheat(WeakCFParams(0.5, FAIR_ETA))


class TestSplitCheat:
    """The raw objective at one split, as the six-round certificate uses it."""

    def test_is_the_raw_objective_at_the_split(self, monkeypatch):
        # the function `alice_opt_cheat` hands its search, read at each split
        objectives, maximize = [], weak_cf.maximize_unimodal
        monkeypatch.setattr(weak_cf, "maximize_unimodal", lambda f: objectives.append(f) or maximize(f))
        for params in param_grid(4, 4):
            objectives.clear()
            weak_cf.alice_opt_cheat(params)
            (objective,) = objectives
            for delta in (0.0, 0.25, 0.5, 1.0):
                assert weak_cf.alice_split_cheat(params, delta) == objective(delta)

    def test_argmax_at_eta_gives_the_maximum_at_a_nearby_eta(self):
        # envelope property: F(eta + h) - f(argmax(eta); eta + h) is at most
        # sup|f''| / 2 times the squared drift of the optimum, O(h^2). Drawn
        # away from eta = 1 - p, where A -> 0 puts the optimum near delta = 1
        # and the curvature there grows without bound (2.5e-12 at p = 0.99,
        # eta = 0.99999 (1 - p), h = 1e-10)
        rng = np.random.default_rng(24)
        for _ in range(1500):
            p = float(rng.uniform(0.0, 0.9))
            eta = float(rng.uniform(1e-10, 0.99 * (1.0 - p)))
            argmax = weak_cf.alice_opt_cheat(WeakCFParams(p, eta)).search_delta
            for h in (-1e-12, 1e-12, -1e-10, 1e-10):
                shifted = WeakCFParams(p, eta + h)
                value = weak_cf.alice_split_cheat(shifted, argmax)
                assert abs(value - search_max(shifted)) <= 1e-15, (p, eta, h)

    def test_oracle_leaves_the_search_argmax_unset(self, capsys):
        params = WeakCFParams(0.5, FAIR_ETA)
        assert weak_cf.alice_cheat_oracle(params).search_delta is None
        assert cli.run(["weak-cf", "--p", "0.5", "--eta", repr(FAIR_ETA)]) == 0
        assert "search_delta" not in json.loads(capsys.readouterr().out)


class TestBobOptCheat:
    # Bob's maximal win p + eta, which no CheatAnalysis repeats
    def test_is_p_plus_eta_and_read_from_bob_opt_cheat_alone(self):
        for params in param_grid(4, 4):
            assert weak_cf.bob_opt_cheat(params) == params.p + params.eta
        fields = ["p_alice_star", "delta_star", "maximizer_alphas", "search_delta"]
        assert [f.name for f in dataclasses.fields(weak_cf.CheatAnalysis)] == fields

    def test_balanced_fair_point(self):
        assert weak_cf.bob_opt_cheat(WeakCFParams(0.5, FAIR_ETA)) == pytest.approx(1 / S2, abs=1e-12)

    def test_eta_zero_equals_honest(self):
        for p in (0.1, 0.4, 0.9):
            assert weak_cf.bob_opt_cheat(WeakCFParams(p, 0.0)) == p

    def test_two_thirds_case(self):
        # eta value taken from the six-round case-2 root solve
        assert weak_cf.bob_opt_cheat(WeakCFParams(2 / 3, 0.1992)) == pytest.approx(2 / 3 + 0.1992, abs=1e-12)

    def test_strictly_increasing_in_eta(self):
        values = [weak_cf.bob_opt_cheat(WeakCFParams(0.4, eta)) for eta in np.linspace(0.0, 0.6, 20)]
        assert all(b > a for a, b in zip(values, values[1:]))


class TestFairEta:
    def test_fair_point(self):
        eta = weak_cf.fair_eta_balanced()
        assert eta == pytest.approx(FAIR_ETA, abs=1e-9)
        assert weak_cf.bob_opt_cheat(WeakCFParams(0.5, eta)) == pytest.approx(1 / S2, abs=1e-9)
        assert abs(balanced_residual(eta)) < 1e-9

    def test_eta_is_the_correctly_rounded_exact_root(self):
        # eta^2 + eta - 1/4 is increasing on [0, 1/2] and vanishes at
        # (sqrt2 - 1)/2, so it must change sign between the midpoints from
        # eta to its two float neighbours
        eta = weak_cf.fair_eta_balanced()
        assert repr(eta) == "0.20710678118654752"
        assert repr(weak_cf.bob_opt_cheat(WeakCFParams(0.5, eta))) == "0.7071067811865475"
        assert abs(balanced_residual(eta)) <= 1e-15

        def cleared(x):
            return x * x + x - Fraction(1, 4)

        for neighbour, sign in ((nextafter(eta, -inf), -1), (nextafter(eta, inf), 1)):
            midpoint = (Fraction(eta) + Fraction(neighbour)) / 2
            assert cleared(midpoint) * sign > 0

    def test_float_residual_changes_sign_across_the_root(self):
        eta = weak_cf.fair_eta_balanced()
        assert balanced_residual(eta - 1e-12) > 0.0 > balanced_residual(eta + 1e-12)

    @pytest.mark.parametrize("shift", [-1e-11, 1e-11])
    def test_certificate_rejects_a_residual_whose_root_moved(self, monkeypatch, shift):
        # the residual falls with slope about -2, so its root moves by 5e-12
        bob = weak_cf.bob_opt_cheat
        monkeypatch.setattr(weak_cf, "bob_opt_cheat", lambda params: bob(params) + shift)
        with pytest.raises(CrossCheckError, match="do not bracket"):
            weak_cf.fair_eta_balanced()


class TestAliceCheatOracle:
    def test_balanced_point_matches(self):
        oracle = weak_cf.alice_cheat_oracle(WeakCFParams(0.5, 0.2071), grid_resolution=200)
        closed = weak_cf.alice_opt_cheat(WeakCFParams(0.5, 0.2071))
        assert oracle.p_alice_star == pytest.approx(0.7071, abs=1e-4)
        assert abs(oracle.p_alice_star - closed.p_alice_star) <= 1e-9

    def test_third_share_point_matches(self):
        params = WeakCFParams(1 / 3, 0.1462)
        oracle = weak_cf.alice_cheat_oracle(params, grid_resolution=200)
        closed = weak_cf.alice_opt_cheat(params)
        assert oracle.p_alice_star == pytest.approx(0.8476, abs=1e-4)
        assert abs(oracle.p_alice_star - closed.p_alice_star) <= 1e-9

    def test_maximizer_kills_diagonal_amplitudes(self):
        oracle = weak_cf.alice_cheat_oracle(WeakCFParams(0.5, 0.2071), grid_resolution=60)
        _, _, a_uu, a_dd = oracle.maximizer_alphas
        assert a_uu**2 <= 1e-12
        assert a_dd**2 <= 1e-12

    def test_maximizer_delta_matches_closed_form(self):
        params = WeakCFParams(0.5, FAIR_ETA)
        oracle = weak_cf.alice_cheat_oracle(params, grid_resolution=60)
        closed = weak_cf.alice_opt_cheat(params)
        assert oracle.delta_star == pytest.approx(closed.delta_star, abs=1e-9)

    def test_too_coarse_rejected(self):
        with pytest.raises(ParameterRangeError, match="^grid_resolution must be >= 10, got 9$"):
            weak_cf.alice_cheat_oracle(WeakCFParams(0.5, 0.2), grid_resolution=9)

    def test_payoff_at_known_preparation(self):
        # hand-computed payoff for the honest preparation (delta = eta case):
        # alpha = (sqrt(1-d), sqrt(d), 0, 0) scores the squared two-term sum
        p, eta, d = 0.5, 0.2, 0.3
        params = WeakCFParams(p, eta)
        got = payoff((sqrt(1 - d), sqrt(d), 0.0, 0.0), params)
        expected = (
            sqrt((1 - p - eta) * (1 - d) / (1 - p)) + sqrt(eta**2 * d / ((1 - p) * (p + eta)))
        ) ** 2
        assert got == pytest.approx(expected, abs=1e-12)

    def test_diagonal_amplitudes_only_waste_weight(self):
        # moving weight onto a_uu or a_dd can only lower the payoff
        params = WeakCFParams(0.4, 0.2)
        base = payoff((0.8, 0.6, 0.0, 0.0), params)
        for spoiled in ([0.8 * 0.9, 0.6 * 0.9, 0.19078784, 0.4], [0.7, 0.5, 0.36055513, 0.36055513]):
            v = np.array(spoiled)
            v /= np.linalg.norm(v)
            assert payoff(v, params) < base

    def test_no_preparation_beats_the_oracle(self):
        # random preparations, complex phases included, scored by simulation
        rng = np.random.default_rng(7)
        for params in (WeakCFParams(0.5, 0.2071), WeakCFParams(0.3, 0.5), WeakCFParams(0.8, 0.05)):
            best = weak_cf.alice_cheat_oracle(params, grid_resolution=10).p_alice_star
            for _ in range(50):
                z = rng.normal(size=4) + 1j * rng.normal(size=4)
                assert payoff(z / np.linalg.norm(z), params) <= best + 1e-12

    @staticmethod
    def scale_fail_probs(monkeypatch, factor, rows):
        """Scale the probabilities that the oracle's one `project_all` of its
        five rows reports for the given rows (a slice), leaving its post
        states as they are."""
        project_all = qc.project_all

        def scaled(states, subspace, inside=True):
            probs, posts = project_all(states, subspace, inside)
            assert len(probs) == 5
            probs[rows] = [p * factor for p in probs[rows]]
            return probs, posts

        monkeypatch.setattr(qc, "project_all", scaled)

    def test_attainment_failure_raises(self, monkeypatch):
        # only row 4, the maximizer's score, is corrupted; rows 0-3 still certify the basis
        for factor in (0.5, float("nan")):
            with monkeypatch.context() as patch:
                self.scale_fail_probs(patch, factor, slice(4, 5))
                with pytest.raises(CrossCheckError, match="attains"):
                    weak_cf.alice_cheat_oracle(WeakCFParams(0.5, 0.2), grid_resolution=10)

    @pytest.mark.parametrize("bad", [complex("nan"), complex("inf")])
    def test_non_finite_value_raises_a_cross_check_error(self, monkeypatch, bad):
        # refused before the maximizer is built, so not as an unnormalized state
        monkeypatch.setattr(qc, "overlap_all", lambda a, states: np.full(len(states.amps), bad))
        with pytest.raises(CrossCheckError, match="not finite"):
            weak_cf.alice_cheat_oracle(WeakCFParams(0.5, 0.2), grid_resolution=10)

    def test_the_stacked_maximizer_row_is_its_one_row_pass(self, monkeypatch):
        # row 4 of the oracle's five-row pass is the maximizer pushed through
        # U alone, and Bob's test fails on it bit for bit as on it alone
        passes, project_all = [], qc.project_all

        def kept(states, subspace, inside=True):
            passes.append((states, project_all(states, subspace, inside)))
            return passes[-1][1]

        monkeypatch.setattr(qc, "project_all", kept)
        for params in param_grid(4, 4):
            passes.clear()
            oracle = weak_cf.alice_cheat_oracle(params)
            ((rows, (probs, posts)),) = passes
            alone = qc.apply(weak_cf.rotation_unitary(params), preparation(oracle.maximizer_alphas))
            assert rows.amps[-1].tobytes() == alone.amps.tobytes()
            (p_fail,), post = project_all(qc.stack([alone]), WIN_SECTOR, inside=False)
            assert probs[-1] > 0.0 and probs[-1].hex() == p_fail.hex()
            assert posts.amps[-1].tobytes() == post.amps.tobytes()

    def test_basis_certificate_failure_raises(self, monkeypatch):
        # a verification state with support in Bob's win sector breaks the
        # rank-1 model: v counts that support, the simulated test projects it out
        pass_state = weak_cf.alice_pass_state

        def leaky_pass_state(params):
            xi = pass_state(params)
            amps = xi.amps.copy()
            amps[UP * 4 + UP * 2 + DOWN] = 0.3
            return qc.StateVector(xi.dims, xi.labels, amps / np.linalg.norm(amps))

        monkeypatch.setattr(weak_cf, "alice_pass_state", leaky_pass_state)
        with pytest.raises(CrossCheckError, match="basis"):
            weak_cf.alice_cheat_oracle(WeakCFParams(0.5, 0.2), grid_resolution=10)

    def test_basis_certificate_nan_raises(self, monkeypatch):
        # Bob's test can fail on each basis preparation at (0.5, 0.2), so each scores NaN
        self.scale_fail_probs(monkeypatch, float("nan"), slice(0, 4))
        with pytest.raises(CrossCheckError, match="basis"):
            weak_cf.alice_cheat_oracle(WeakCFParams(0.5, 0.2), grid_resolution=10)

    def test_one_call_builds_the_protocol_once(self, monkeypatch, norm_checks):
        # one rotation and one unitarity check serve both certificates, the
        # fixed basis states are not rebuilt, no basis preparation goes
        # through U twice, and the win sector's orthonormality is not
        # checked at all: it was checked once, when the module built it. 12
        # states in all, counted by the norm check that every state passes
        # however it is built: xi, the four images that give v (reused as
        # rows 0-3), the maximizer tensor |d>, its image under U, and the
        # five post-test states
        built, checked, sector_checks = [], [], []
        rotation = weak_cf.rotation_unitary
        unitary_check, subspace_init = qc.UnitaryOp.__post_init__, qc.Subspace.__init__

        def counted_subspace(sub, basis):
            sector_checks.append(basis)
            subspace_init(sub, basis)

        def counted_rotation(params):
            built.append(params)
            return rotation(params)

        def counted_unitary(op):
            checked.append(op)
            unitary_check(op)

        monkeypatch.setattr(weak_cf, "rotation_unitary", counted_rotation)
        monkeypatch.setattr(qc.UnitaryOp, "__post_init__", counted_unitary)
        monkeypatch.setattr(qc.Subspace, "__init__", counted_subspace)
        weak_cf.alice_cheat_oracle(WeakCFParams(0.4, 0.3))
        rows = sum(1 if amps.ndim == 1 else len(amps) for amps in norm_checks)  # a stack's rows each count
        assert (len(built), len(checked), len(sector_checks), rows) == (1, 1, 0, 12)

    def test_one_honest_run_builds_four_or_five_states(self, monkeypatch, norm_checks):
        # psi0, its tensor with the ancilla, the rotated state and the post
        # state; Alice's branch also builds her pass state, Bob's reuses a
        # module-level basis state for his check; each state passes one norm check
        params, seeds = WeakCFParams(0.4, 0.3), range(8)
        for seed in seeds:  # both branches once, so cached states are in place
            weak_cf.honest_run(params, seed)
        # Bob's win sector and Alice's check of his first qubit were checked when the module built them
        monkeypatch.setattr(qc.Subspace, "__init__", lambda sub, basis: pytest.fail("a basis was checked again"))
        built = {}
        for seed in seeds:
            norm_checks.clear()
            winner, _ = weak_cf.honest_run(params, seed)
            built.setdefault(winner, set()).add(len(norm_checks))
        assert built == {"alice": {5}, "bob": {4}}

    def test_unfailable_preparation_scores_zero(self):
        # at eta = 0 Bob's rotation keeps |ud> on (q2, q3), so a_du lands in his win sector
        assert payoff((0.0, 1.0, 0.0, 0.0), WeakCFParams(0.5, 0.0)) == 0.0

    def test_resolution_does_not_change_the_result(self):
        params = WeakCFParams(0.3, 0.5)
        results = [weak_cf.alice_cheat_oracle(params, grid_resolution=r) for r in (10, 24, 60)]
        assert results[1:] == results[:-1]


class TestOracleEquivalenceSweep:
    def test_small_sweep(self):
        for params in param_grid(4, 4):
            oracle = weak_cf.alice_cheat_oracle(params, grid_resolution=24)
            closed = weak_cf.alice_opt_cheat(params)
            assert abs(oracle.p_alice_star - closed.p_alice_star) <= 1e-9
