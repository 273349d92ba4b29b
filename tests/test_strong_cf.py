"""Optimal strong imbalanced CF: parameter synthesis, cheats, saturation."""

import ast
from math import inf, nan, sqrt
from pathlib import Path

import numpy as np
import pytest

from qdice import quantum_core as qc
from qdice import strong_cf
from qdice.errors import DegenerateProtocolError, ParameterRangeError
from qdice.strong_cf import StrongCFParams

S2 = sqrt(2.0)
SWEEP = np.linspace(0.001, 0.999, 999)


def sample_outcomes(
    params: StrongCFParams, runs: int, seed: int | np.random.Generator
) -> np.ndarray:
    """Vectorized honest outcomes for `runs` >= 0 executions: the sampled
    reference that `strong_cf.honest_prob` is compared against."""
    if runs < 0:
        raise ParameterRangeError(f"runs must be >= 0, got {runs}")
    rng = qc.as_generator(seed)
    o = (rng.random(runs) >= params.q).astype(np.int8)
    z = np.where(o == 0, params.z0, params.z1)
    alice_wins = rng.random(runs) < z
    p_match = np.where(o == 0, params.pp0, params.pp1)
    matched = rng.random(runs) < p_match
    return np.where(alice_wins, o, np.where(matched, o, 1 - o)).astype(np.int8)


class TestSolveParams:
    def test_balanced_construction(self):
        p = strong_cf.solve_params(0.5)
        assert p.q == pytest.approx(0.5, abs=1e-15)
        assert p.pp0 == pytest.approx(1 - 1 / S2, abs=1e-15)
        assert p.pp1 == pytest.approx(1 - 1 / S2, abs=1e-15)
        assert p.z0 == pytest.approx(2 - S2, abs=1e-15)
        assert p.z1 == pytest.approx(2 - S2, abs=1e-15)

    def test_two_thirds_construction(self):
        s0, s1 = sqrt(2 / 3), sqrt(1 / 3)
        p = strong_cf.solve_params(2 / 3)
        assert p.q == pytest.approx((1 + s0 - s1) / 2, abs=1e-15)
        assert p.pp0 == pytest.approx(1 - s1, abs=1e-15)
        assert p.pp1 == pytest.approx(1 - s0, abs=1e-15)
        assert p.z0 == pytest.approx(1 + (s0 - 1) / s1, abs=1e-15)
        assert p.z1 == pytest.approx(1 + (s1 - 1) / s0, abs=1e-15)

    def test_degenerate_targets_rejected(self):
        for bad in (0.0, 1.0, -0.2, 1.4):
            with pytest.raises(DegenerateProtocolError):
                strong_cf.solve_params(bad)

    def test_roundtrip_sweep(self):
        for x in SWEEP:
            assert abs(strong_cf.solve_params(x).p0_honest - x) <= 1e-12

    def test_parameters_in_range_sweep(self):
        for x in SWEEP:
            p = strong_cf.solve_params(x)
            for v in (p.q, p.z0, p.z1, p.pp0, p.pp1):
                assert 0.0 <= v <= 1.0


class TestHonestProb:
    def test_balanced(self):
        assert strong_cf.honest_prob(strong_cf.solve_params(0.5)) == pytest.approx(
            0.5, abs=1e-15
        )

    def test_degenerate_branches(self):
        always_zero_branch = StrongCFParams(q=1.0, z0=1.0, z1=0.5, pp0=0.5, pp1=0.5)
        assert strong_cf.honest_prob(always_zero_branch) == 1.0
        never_zero = StrongCFParams(q=0.0, z0=0.5, z1=1.0, pp0=0.5, pp1=0.5)
        assert strong_cf.honest_prob(never_zero) == 0.0


class TestCheatProbs:
    def test_balanced_ideal_all_sqrt_half(self):
        report = strong_cf.cheat_probs(strong_cf.solve_params(0.5))
        for v in (report.pa0, report.qa0, report.pa1, report.qa1, report.pb0, report.pb1):
            assert v == pytest.approx(1 / S2, abs=1e-12)

    def test_two_thirds_ideal(self):
        report = strong_cf.cheat_probs(strong_cf.solve_params(2 / 3))
        assert report.pa0 == pytest.approx(sqrt(2 / 3), abs=1e-12)
        assert report.pb0 == pytest.approx(sqrt(2 / 3), abs=1e-12)
        assert report.pa1 == pytest.approx(sqrt(1 / 3), abs=1e-12)
        assert report.pb1 == pytest.approx(sqrt(1 / 3), abs=1e-12)

    def test_balanced_with_small_bias(self):
        report = strong_cf.cheat_probs(strong_cf.solve_params(0.5, eps0=0.01, eps1=0.01))
        assert report.pa0 == pytest.approx(1 / S2 + 0.01 / S2, abs=1e-12)
        assert report.pb0 == pytest.approx(1 / S2 + 0.005 * 1.0, abs=1e-12)

    def test_constraint_system_at_ideal(self):
        # both of Alice's strategies tie, and Alice ties Bob, per outcome
        for x in (0.1, 0.35, 0.5, 0.82):
            r = strong_cf.cheat_probs(strong_cf.solve_params(x))
            assert abs(r.pa0 - r.qa0) <= 1e-12
            assert abs(r.pa1 - r.qa1) <= 1e-12
            assert abs(r.pa0 - r.pb0) <= 1e-12
            assert abs(r.pa1 - r.pb1) <= 1e-12

    def test_first_order_bias_coefficients(self):
        # cheat values are affine in eps; slopes must match the expansion
        eps = 1e-6
        for x in (0.2, 0.5, 0.8):
            s0, s1 = sqrt(x), sqrt(1 - x)
            base = strong_cf.cheat_probs(strong_cf.solve_params(x))
            bumped = strong_cf.cheat_probs(strong_cf.solve_params(x, eps0=eps, eps1=eps))
            assert (bumped.pa0 - base.pa0) / eps == pytest.approx(s1, abs=1e-9)
            assert (bumped.pa1 - base.pa1) / eps == pytest.approx(s0, abs=1e-9)
            assert (bumped.pb0 - base.pb0) / eps == pytest.approx((1 - s0 + s1) / 2, abs=1e-9)
            assert (bumped.pb1 - base.pb1) / eps == pytest.approx((1 + s0 - s1) / 2, abs=1e-9)


def kitaev_products(p0_honest: float, eps: float = 0.0) -> tuple[float, float]:
    """P_A(i)* P_B(i)* of the solved protocol with weak-CF bias eps on both coins."""
    return strong_cf.cheat_probs(strong_cf.solve_params(p0_honest, eps0=eps, eps1=eps)).kitaev_products


def saturated(products: tuple[float, float], p0_honest: float) -> bool:
    """Both products equal the honest (P0, P1) within 1e-9."""
    return all(abs(x - t) <= 1e-9 for x, t in zip(products, (p0_honest, 1.0 - p0_honest)))


class TestKitaevSaturation:
    def test_balanced_exact(self):
        products = kitaev_products(0.5)
        assert products[0] == pytest.approx(0.5, abs=1e-12)
        assert products[1] == pytest.approx(0.5, abs=1e-12)
        assert saturated(products, 0.5)

    def test_two_thirds_exact(self):
        products = kitaev_products(2 / 3)
        assert products[0] == pytest.approx(2 / 3, abs=1e-12)
        assert products[1] == pytest.approx(1 / 3, abs=1e-12)
        assert saturated(products, 2 / 3)

    def test_noise_breaks_saturation(self):
        products = kitaev_products(0.5, eps=0.01)
        assert not saturated(products, 0.5)
        assert products[0] > 0.5
        assert products[1] > 0.5

    def test_saturation_sweep(self):
        for x in SWEEP:
            products = kitaev_products(x)
            assert abs(products[0] - x) <= 1e-12
            assert abs(products[1] - (1 - x)) <= 1e-12


class TestSimulate:
    @pytest.mark.parametrize("p0", [0.5, 2 / 3, 0.37])
    def test_empirical_distribution(self, p0):
        runs = 100_000
        outcomes = sample_outcomes(strong_cf.solve_params(p0), runs, seed=99)
        freq0 = float(np.mean(outcomes == 0))
        sigma = sqrt(p0 * (1 - p0) / runs)
        assert abs(freq0 - p0) < 4 * sigma

    def test_degenerate_first_coin(self):
        # q = 1 pins the announcement at o = 0: outcome law is the o = 0 branch
        params = StrongCFParams(q=1.0, z0=0.6, z1=0.3, pp0=0.25, pp1=0.9)
        analytic = params.z0 + (1 - params.z0) * params.pp0
        assert strong_cf.honest_prob(params) == pytest.approx(analytic, abs=1e-15)
        outcomes = sample_outcomes(params, 50_000, seed=3)
        sigma = sqrt(analytic * (1 - analytic) / 50_000)
        assert abs(np.mean(outcomes == 0) - analytic) < 4 * sigma


class TestValidation:
    def test_out_of_range_rejected(self):
        with pytest.raises(ParameterRangeError):
            StrongCFParams(q=1.2, z0=0.5, z1=0.5, pp0=0.5, pp1=0.5)
        with pytest.raises(ParameterRangeError):
            StrongCFParams(q=0.5, z0=0.5, z1=0.5, pp0=0.5, pp1=0.5, eps0=-0.1)

    @pytest.mark.parametrize("field", ["eps0", "eps1"])
    def test_weak_cf_bias_capped_like_the_ideal_primitive(self, field):
        # eps_i <= min(z_i, 1 - z_i), with 1e-12 slack
        base = dict(q=0.5, z0=0.3, z1=0.8, pp0=0.5, pp1=0.5)
        cap = 0.3 if field == "eps0" else 1.0 - 0.8
        StrongCFParams(**base, **{field: cap + 0.5e-12})
        with pytest.raises(ParameterRangeError, match=field):
            StrongCFParams(**base, **{field: cap + 2e-12})
        with pytest.raises(ParameterRangeError):
            strong_cf.solve_params(0.5, eps0=2.0, eps1=2.0)

    @pytest.mark.parametrize("field", ["eps0", "eps1"])
    def test_nan_weak_cf_bias_rejected(self, field):
        base = dict(q=0.5, z0=0.5, z1=0.5, pp0=0.5, pp1=0.5)
        with pytest.raises(ParameterRangeError, match=f"{field} must lie in"):
            StrongCFParams(**base, **{field: nan})
        with pytest.raises(ParameterRangeError, match=f"{field} must lie in"):
            strong_cf.solve_params(0.5, **{field: nan})

    def test_nan_eps_on_both_coins_rejected(self):
        base = dict(q=0.5, z0=0.5, z1=0.5, pp0=0.5, pp1=0.5)
        with pytest.raises(ParameterRangeError, match="eps0 must lie in"):
            StrongCFParams(**base, eps0=nan, eps1=nan)
        with pytest.raises(ParameterRangeError, match="eps0 must lie in"):
            strong_cf.cheat_probs(strong_cf.solve_params(0.5, eps0=nan, eps1=nan))

    @pytest.mark.parametrize("bad", [inf, -inf, -1e-9])
    @pytest.mark.parametrize("field", ["eps0", "eps1"])
    def test_bias_outside_its_range_rejected(self, field, bad):
        # the check is one closed interval test, so every value outside it fails
        base = dict(q=0.5, z0=0.5, z1=0.5, pp0=0.5, pp1=0.5)
        with pytest.raises(ParameterRangeError, match=f"{field} must lie in"):
            StrongCFParams(**base, **{field: bad})


class TestPurePython:
    def test_module_imports_only_the_standard_library(self):
        tree = ast.parse(Path(strong_cf.__file__).read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                imported.add("." * node.level + (node.module or ""))
        assert imported == {"__future__", "dataclasses", "math", ".errors"}
