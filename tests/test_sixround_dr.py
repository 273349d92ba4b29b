"""Six-round weak three-sided DR: fairness constraints and bias optimization."""

import sys
from fractions import Fraction
from math import inf, nextafter, sqrt

import numpy as np
import pytest

from qdice import optimize, sixround_dr, weak_cf
from qdice.errors import CrossCheckError, ParameterRangeError
from qdice.optimize import bisect_root
from qdice.weak_cf import WeakCFParams, alice_opt_cheat

S2 = sqrt(2.0)

# the exact roots of the fairness equations, to 11 digits
ETA1_STAR = 0.14620126286
ETA2_STAR = 0.19878463722


def losing_probs_at(variant: str, eta: float) -> tuple[float, float, float]:
    """(Alice, Bob, Claire) maximal losing probabilities at eta, with the
    preparer's cheat from the closed form (`alice_opt_cheat`)."""
    params = WeakCFParams(float(sixround_dr._P[variant]), eta)
    return sixround_dr._losses(variant, params, alice_opt_cheat(params).p_alice_star)


class TestFairnessConstraint:
    def test_case1_at_eta_zero(self):
        rhs, _, lhs = losing_probs_at("case1", 0.0)
        assert lhs == pytest.approx(1.0, abs=1e-12)  # preparer cheats with certainty
        assert rhs == pytest.approx(1 / S2 + (1 - 1 / S2) / 3, abs=1e-12)

    def test_case1_near_root(self):
        rhs, _, lhs = losing_probs_at("case1", 0.1462)
        assert abs(lhs - rhs) < 1e-3

    def test_case2_near_root(self):
        rhs, _, lhs = losing_probs_at("case2", 0.1992)
        assert abs(lhs - rhs) < 1e-3

    def test_lhs_matches_simplified_closed_form_case1(self):
        # the delta-maximization at p = 1/3 collapses to (2+3e)/(2(1+3e))
        for eta in np.linspace(0.0, 0.6, 13):
            _, _, lhs = losing_probs_at("case1", eta)
            assert lhs == pytest.approx((2 + 3 * eta) / (2 * (1 + 3 * eta)), abs=1e-9)

    def test_rhs_matches_simplified_closed_form_case2(self):
        # the delta-maximization at p = 2/3 collapses to (2-3e)/(2+3e)
        for eta in np.linspace(0.0, 0.33, 12):
            rhs, _, _ = losing_probs_at("case2", eta)
            expected = 1 / S2 + (1 - 1 / S2) * (2 - 3 * eta) / (2 + 3 * eta)
            assert rhs == pytest.approx(expected, abs=1e-9)

    def test_eta_out_of_range(self):
        with pytest.raises(ParameterRangeError):
            losing_probs_at("case1", 0.7)
        with pytest.raises(ParameterRangeError):
            losing_probs_at("case2", 0.34)

    def test_unknown_variant(self):
        with pytest.raises(ParameterRangeError, match="variant must be case1 or case2, got 'case3'"):
            sixround_dr.solve("case3")

    @pytest.mark.parametrize("variant", ["case1", "case2"])
    def test_split_residual_past_one_minus_p_is_refused_by_weak_cf_params(self, variant):
        # the stage-2 eta range is the one `WeakCFParams` checks, with its message
        eta_max = float(1 - sixround_dr._P[variant])
        sixround_dr._split_residual(variant, eta_max, 0.5)
        with pytest.raises(ParameterRangeError, match=r"eta must lie in \[0, 1-p\]"):
            sixround_dr._split_residual(variant, eta_max + 1e-9, 0.5)


class TestComposition:
    def test_stage_one_value_is_the_balanced_fair_point(self):
        assert sixround_dr.INV_SQRT2 == 1.0 / sqrt(2.0)
        assert sixround_dr.INV_SQRT2 == weak_cf.bob_opt_cheat(WeakCFParams(0.5, weak_cf.fair_eta_balanced()))

    @pytest.mark.parametrize("variant", ["case1", "case2"])
    def test_certificate_takes_the_preparer_cheat_at_the_search_argmax(self, monkeypatch, variant):
        # two residual evaluations at eta* -/+ 1e-12, each the raw objective at
        # the argmax of the one search solve runs, not at B/(A+B)
        maximize, split_cheat = weak_cf.maximize_unimodal, weak_cf.alice_split_cheat
        searches, seen = [], []

        def search_spy(f):
            searches.append(maximize(f))
            return searches[-1]

        def split_spy(params, delta):
            seen.append((params, delta))
            return split_cheat(params, delta)

        monkeypatch.setattr(weak_cf, "maximize_unimodal", search_spy)
        monkeypatch.setattr(sixround_dr, "alice_split_cheat", split_spy)
        eta = sixround_dr.solve(variant).eta_star
        p = float(sixround_dr._P[variant])
        ((argmax, _),) = searches
        assert [params.eta for params, _ in seen] == [eta - 1e-12, eta + 1e-12]
        assert {params.p for params, _ in seen} == {p}
        assert [delta for _, delta in seen] == [argmax, argmax]
        assert argmax != weak_cf.alice_opt_cheat(WeakCFParams(p, eta)).delta_star

    @pytest.mark.parametrize("variant", ["case1", "case2"])
    def test_non_preparer_loss_is_bob_opt_cheat(self, variant):
        eta = sixround_dr.solve(variant).eta_star
        other = weak_cf.bob_opt_cheat(WeakCFParams(float(sixround_dr._P[variant]), eta))
        alice, _, claire = losing_probs_at(variant, eta)
        c = sixround_dr.INV_SQRT2
        if variant == "case1":  # Claire prepares nothing: a survivor loses to her announcement
            assert alice == c + (1.0 - c) * other
        else:  # Claire prepares: she loses to the survivor's announcement
            assert claire == other


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
        # one sign change over the feasible interval: the root that solve's
        # sign-change certificate brackets is the only one there
        for variant, hi in (("case1", 2 / 3), ("case2", 1 / 3)):
            etas = np.linspace(0.0, hi, 25)
            res = [
                losing_probs_at(variant, e)[2] - losing_probs_at(variant, e)[0]
                for e in etas
            ]
            signs = np.sign(res)
            flips = np.count_nonzero(np.diff(signs))
            assert flips == 1


class TestLosingProbs:
    def test_all_equal_at_case1_root(self):
        sol = sixround_dr.solve("case1")
        pa, pb, pc = losing_probs_at("case1", sol.eta_star)
        assert pa == pytest.approx(pb, abs=1e-15)
        assert pa == pytest.approx(pc, abs=1e-9)
        assert pa == pytest.approx(0.848, abs=1e-3)

    def test_all_equal_at_case2_root(self):
        sol = sixround_dr.solve("case2")
        pa, _, pc = losing_probs_at("case2", sol.eta_star)
        assert pa == pytest.approx(pc, abs=1e-9)

    def test_case1_eta_zero_claire_loses_surely(self):
        _, _, pc = losing_probs_at("case1", 0.0)
        assert pc == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("variant", ["case1", "case2"])
    def test_solution_carries_the_losing_probs_at_its_root(self, variant):
        sol = sixround_dr.solve(variant)
        assert sol.losing_probs == losing_probs_at(variant, sol.eta_star)
        assert sol.losing_probs[2] == sol.p_bar_star

    def test_case2_eta_zero_alice_loses_surely(self):
        pa, pb, _ = losing_probs_at("case2", 0.0)
        assert pa == pytest.approx(1.0, abs=1e-12)
        assert pb == pytest.approx(1.0, abs=1e-12)


def solve_case2_unsquared() -> sixround_dr.SixRoundSolution:
    """Case 2 with the square dropped from the preparer-cheat side.

    A regression target only: it documents that this alternative reading of
    the constraint does not reproduce the expected case-2 bias; the squared
    form does.
    """
    inv_sqrt2 = sixround_dr.INV_SQRT2

    def losses(eta: float) -> tuple[float, float, float]:
        preparer_cheat = alice_opt_cheat(WeakCFParams(p=2.0 / 3.0, eta=eta)).p_alice_star
        alice = inv_sqrt2 + (1.0 - inv_sqrt2) * sqrt(preparer_cheat)
        return alice, alice, 2.0 / 3.0 + eta

    def residual(eta: float) -> float:
        alice, _, claire = losses(eta)
        return claire - alice

    eta_star = bisect_root(residual, 0.0, 1.0 / 3.0)
    p_bar = 2.0 / 3.0 + eta_star
    return sixround_dr.SixRoundSolution(
        eta_star=eta_star,
        p_bar_star=p_bar,
        bias=p_bar - sixround_dr.HONEST_LOSS,
        constraint_residual=residual(eta_star),
        losing_probs=losses(eta_star),
    )


class TestUnsquaredReading:
    def test_unsquared_constraint_misses_expected_bias(self):
        # dropping the square moves the root far from the expected 0.199;
        # the squared reading is the one that reproduces it
        unsq = solve_case2_unsquared()
        assert abs(unsq.bias - 0.199) > 1e-3
        assert unsq.bias == pytest.approx(0.2410126502, abs=1e-6)


class TestExactValues:
    # eta* is the correctly rounded exact root; no bit of the solution may move
    @pytest.mark.parametrize(
        "variant,eta_star",
        [("case1", "0.1462012628604124"), ("case2", "0.19878463721656317")],
    )
    def test_eta_star_is_bit_exact(self, variant, eta_star):
        assert repr(sixround_dr.solve(variant).eta_star) == eta_star

    def test_case1_bias_is_bit_exact(self):
        assert repr(sixround_dr.solve("case1").bias) == "0.1808925459314763"


def cleared_fairness_sign(variant: str, eta: Fraction) -> int:
    """Sign of the fairness residual times (1-p)(p+eta), exactly, at a rational eta.

    Written from the constraint Pi_1/3 = c + (1-c) Pi_2/3 with c = 1/sqrt2 and
    Alice's cheat (A + B)(1-p)(p+eta) = p(1-p) + (1-2p) eta; the value is
    X + c Y with rational X, Y, whose sign is decided without rounding.
    """
    p = Fraction(1, 3) if variant == "case1" else Fraction(2, 3)
    u, k = p + eta, 1 - p
    cheat = p * (1 - p) + (1 - 2 * p) * eta  # times (1-p)(p+eta)
    if variant == "case1":  # cheat - k u (c + (1-c) u)
        x, y = cheat - k * u * u, -k * u + k * u * u
    else:  # k u u - (c k u + (1-c) cheat)
        x, y = k * u * u - cheat, -k * u + cheat
    signs = {(x > 0) - (x < 0), (y > 0) - (y < 0)} - {0}
    if len(signs) < 2:
        return signs.pop() if signs else 0
    # x and y differ in sign: compare x^2 with y^2 / 2
    return (1 if x > 0 else -1) * ((x * x > y * y / 2) - (x * x < y * y / 2))


def patch_everywhere(monkeypatch, original, replacement):
    """Rebind `original` to `replacement` in every qdice module that imports it by name."""
    for name, module in list(sys.modules.items()):
        if name == "qdice" or name.startswith("qdice."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, replacement)


VARIANTS = ["case1", "case2"]


class TestExactRoot:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_eta_star_is_the_correctly_rounded_root(self, variant):
        # the residual changes sign between the midpoints to eta*'s float neighbours
        eta = sixround_dr.solve(variant).eta_star
        below = (Fraction(eta) + Fraction(nextafter(eta, -inf))) / 2
        above = (Fraction(eta) + Fraction(nextafter(eta, inf))) / 2
        assert cleared_fairness_sign(variant, below) * cleared_fairness_sign(variant, above) == -1

    @pytest.mark.parametrize("variant,eta_max", [("case1", Fraction(2, 3)), ("case2", Fraction(1, 3))])
    def test_other_root_lies_outside_the_feasible_range(self, variant, eta_max):
        # opposite exact signs at 0 and 1 - p put one root of the quadratic
        # fairness equation in the feasible range and the other outside it
        assert cleared_fairness_sign(variant, Fraction(0)) * cleared_fairness_sign(variant, eta_max) == -1

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_quadratic_literal_is_27_times_the_cleared_fairness_equation(self, variant):
        # expanded independently with sympy from the fairness equation times (1-p)(p+eta)
        import sympy

        eta, c = sympy.Symbol("eta"), 1 / sympy.sqrt(2)
        p = sympy.Rational(1, 3) if variant == "case1" else sympy.Rational(2, 3)
        u, cheat = p + eta, p * (1 - p) + (1 - 2 * p) * eta  # Alice's A + B times (1-p)(p+eta)
        # Claire's loss equals Alice's: c + (1-c) times her stage-2 loss as the 2/3 party
        if variant == "case1":  # Claire loses to the preparer's A + B, Alice to Bob's p + eta
            cleared = cheat - (1 - p) * u * (c + (1 - c) * u)
        else:
            cleared = (1 - p) * u * u - (c * (1 - p) * u + (1 - c) * cheat)
        literal = sum(
            (x + y * sympy.sqrt(2)) * eta**k for (x, y), k in zip(sixround_dr._QUADRATICS[variant], (2, 1, 0))
        )
        assert sympy.expand(literal - 27 * cleared) == 0

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_one_maximization_and_no_bisection(self, monkeypatch, variant):
        calls = []
        maximize = optimize.maximize_unimodal

        def counting(f):
            probes = []

            def seen(x):
                probes.append(x)
                return f(x)

            calls.append(probes)
            return maximize(seen)

        def no_bisection(*args, **kwargs):
            raise AssertionError("solve must not bisect")

        patch_everywhere(monkeypatch, maximize, counting)
        patch_everywhere(monkeypatch, optimize.bisect_root, no_bisection)
        sixround_dr.solve(variant)
        assert optimize.MAXIMIZE_TOL == 1e-12
        (probes,) = calls
        assert len(probes) == 63 and all(type(x) is float for x in probes)
        assert probes[-2:] == [0.0, 1.0]

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_certificate_never_calls_the_closed_form(self, monkeypatch, variant):
        eta = sixround_dr.solve(variant).eta_star
        delta = alice_opt_cheat(WeakCFParams(float(sixround_dr._P[variant]), eta)).search_delta

        def closed_form(*args, **kwargs):
            raise AssertionError("the numeric route must not use A + B")

        monkeypatch.setattr(sixround_dr, "alice_opt_cheat", closed_form)
        below = sixround_dr._split_residual(variant, eta - 1e-12, delta)
        above = sixround_dr._split_residual(variant, eta + 1e-12, delta)
        assert below * above < 0.0
        assert 0.5e-12 < abs(below) < 2e-12 and 0.5e-12 < abs(above) < 2e-12

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("shift", [1e-5, -1e-5])
    def test_an_argmax_moved_by_1e_5_is_refused(self, monkeypatch, variant, shift):
        # the closed-form cross-check sees the search's true maximum and
        # passes; the certificate's residuals at the moved split share a sign
        maximize = weak_cf.maximize_unimodal

        def moved(f):
            x, value = maximize(f)
            return x + shift, value

        monkeypatch.setattr(weak_cf, "maximize_unimodal", moved)
        with pytest.raises(CrossCheckError, match="do not bracket"):
            sixround_dr.solve(variant)

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("shift", [1e-11, -1e-11])
    def test_a_root_moved_by_1e_11_is_refused(self, monkeypatch, variant, shift):
        exact = sixround_dr.sqrt2_quadratic_root
        monkeypatch.setattr(sixround_dr, "sqrt2_quadratic_root", lambda *args: exact(*args) + shift)
        with pytest.raises(CrossCheckError):
            sixround_dr.solve(variant)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_constraint_residual_is_at_rounding_level(self, variant):
        assert abs(sixround_dr.solve(variant).constraint_residual) <= 1e-15
