"""Six-round weak three-sided DR: fairness constraints and bias optimization."""

from math import sqrt

import numpy as np
import pytest

from qdice import sixround_dr
from qdice.errors import ParameterRangeError
from qdice.optimize import bisect_root
from qdice.weak_cf import WeakCFParams, alice_opt_cheat

S2 = sqrt(2.0)

# frozen from the bracketing bisection on the closed-form constraints
ETA1_STAR = 0.14620126286
ETA2_STAR = 0.19878463722


class TestFairnessConstraint:
    def test_case1_at_eta_zero(self):
        lhs, rhs = sixround_dr.fairness_lhs_rhs("case1", 0.0)
        assert lhs == pytest.approx(1.0, abs=1e-12)  # preparer cheats with certainty
        assert rhs == pytest.approx(1 / S2 + (1 - 1 / S2) / 3, abs=1e-12)

    def test_case1_near_root(self):
        lhs, rhs = sixround_dr.fairness_lhs_rhs("case1", 0.1462)
        assert abs(lhs - rhs) < 1e-3

    def test_case2_near_root(self):
        lhs, rhs = sixround_dr.fairness_lhs_rhs("case2", 0.1992)
        assert abs(lhs - rhs) < 1e-3

    def test_lhs_matches_simplified_closed_form_case1(self):
        # the delta-maximization at p = 1/3 collapses to (2+3e)/(2(1+3e))
        for eta in np.linspace(0.0, 0.6, 13):
            lhs, _ = sixround_dr.fairness_lhs_rhs("case1", eta)
            assert lhs == pytest.approx((2 + 3 * eta) / (2 * (1 + 3 * eta)), abs=1e-9)

    def test_rhs_matches_simplified_closed_form_case2(self):
        # the delta-maximization at p = 2/3 collapses to (2-3e)/(2+3e)
        for eta in np.linspace(0.0, 0.33, 12):
            _, rhs = sixround_dr.fairness_lhs_rhs("case2", eta)
            expected = 1 / S2 + (1 - 1 / S2) * (2 - 3 * eta) / (2 + 3 * eta)
            assert rhs == pytest.approx(expected, abs=1e-9)

    def test_eta_out_of_range(self):
        with pytest.raises(ParameterRangeError):
            sixround_dr.fairness_lhs_rhs("case1", 0.7)
        with pytest.raises(ParameterRangeError):
            sixround_dr.fairness_lhs_rhs("case2", 0.34)

    def test_unknown_variant(self):
        with pytest.raises(ParameterRangeError):
            sixround_dr.fairness_lhs_rhs("case3", 0.1)


class TestSolve:
    def test_case1_headline_numbers(self):
        sol = sixround_dr.solve("case1")
        assert sol.bias == pytest.approx(0.181, abs=1e-3)
        assert sol.p_bar_star == pytest.approx(0.848, abs=1e-3)
        assert abs(sol.constraint_residual) < 1e-9

    def test_case1_eta_star(self):
        assert sixround_dr.solve("case1").eta_star == pytest.approx(ETA1_STAR, abs=1e-9)

    def test_case2_headline_numbers(self):
        sol = sixround_dr.solve("case2")
        assert sol.bias == pytest.approx(0.199, abs=1e-3)
        assert sol.eta_star == pytest.approx(ETA2_STAR, abs=1e-9)

    def test_case1_beats_case2(self):
        assert sixround_dr.solve("case1").bias < sixround_dr.solve("case2").bias

    def test_bias_definition(self):
        for variant in ("case1", "case2"):
            sol = sixround_dr.solve(variant)
            assert sol.bias == pytest.approx(sol.p_bar_star - 2 / 3, abs=1e-12)

    def test_residual_monotone_on_range(self):
        # the bisection premise: one sign change over the feasible interval
        for variant, hi in (("case1", 2 / 3), ("case2", 1 / 3)):
            etas = np.linspace(0.0, hi, 25)
            res = [
                sixround_dr.fairness_lhs_rhs(variant, e)[0]
                - sixround_dr.fairness_lhs_rhs(variant, e)[1]
                for e in etas
            ]
            signs = np.sign(res)
            flips = np.count_nonzero(np.diff(signs))
            assert flips == 1


class TestLosingProbs:
    def test_all_equal_at_case1_root(self):
        sol = sixround_dr.solve("case1")
        pa, pb, pc = sixround_dr.losing_probs_at("case1", sol.eta_star)
        assert pa == pytest.approx(pb, abs=1e-15)
        assert pa == pytest.approx(pc, abs=1e-9)
        assert pa == pytest.approx(0.848, abs=1e-3)

    def test_all_equal_at_case2_root(self):
        sol = sixround_dr.solve("case2")
        pa, _, pc = sixround_dr.losing_probs_at("case2", sol.eta_star)
        assert pa == pytest.approx(pc, abs=1e-9)

    def test_case1_eta_zero_claire_loses_surely(self):
        _, _, pc = sixround_dr.losing_probs_at("case1", 0.0)
        assert pc == pytest.approx(1.0, abs=1e-12)

    def test_case2_eta_zero_alice_loses_surely(self):
        pa, pb, _ = sixround_dr.losing_probs_at("case2", 0.0)
        assert pa == pytest.approx(1.0, abs=1e-12)
        assert pb == pytest.approx(1.0, abs=1e-12)


def solve_case2_unsquared() -> sixround_dr.SixRoundSolution:
    """Case 2 with the square dropped from the preparer-cheat side.

    A regression target only: it documents that this alternative reading of
    the constraint does not reproduce the expected case-2 bias; the squared
    form does.
    """
    inv_sqrt2 = sixround_dr.INV_SQRT2

    def residual(eta: float) -> float:
        preparer_cheat = alice_opt_cheat(WeakCFParams(p=2.0 / 3.0, eta=eta)).p_alice_star
        return (2.0 / 3.0 + eta) - (inv_sqrt2 + (1.0 - inv_sqrt2) * sqrt(preparer_cheat))

    eta_star = bisect_root(residual, 0.0, 1.0 / 3.0)
    p_bar = 2.0 / 3.0 + eta_star
    return sixround_dr.SixRoundSolution(
        variant="case2_unsquared",
        eta_star=eta_star,
        p_bar_star=p_bar,
        bias=p_bar - sixround_dr.HONEST_LOSS,
        constraint_residual=residual(eta_star),
    )


class TestUnsquaredReading:
    def test_unsquared_constraint_misses_expected_bias(self):
        # dropping the square moves the root far from the expected 0.199;
        # the squared reading is the one that reproduces it
        unsq = solve_case2_unsquared()
        assert abs(unsq.bias - 0.199) > 1e-3
        assert unsq.bias == pytest.approx(0.2410126502, abs=1e-6)


class TestSerialization:
    def test_solution_json_fields(self):
        d = sixround_dr.solve("case1").to_json_dict()
        assert set(d) == {"variant", "eta_star", "p_bar_star", "bias", "constraint_residual"}


class TestExactValues:
    # the vectorized cross-check grid must not move any bit of the solution
    @pytest.mark.parametrize(
        "variant,eta_star",
        [("case1", "0.14620126286020724"), ("case2", "0.19878463721670414")],
    )
    def test_eta_star_is_bit_exact(self, variant, eta_star):
        assert repr(sixround_dr.solve(variant).eta_star) == eta_star

    def test_case1_bias_is_bit_exact(self):
        assert repr(sixround_dr.solve("case1").bias) == "0.18089254593162496"
