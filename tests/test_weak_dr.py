"""Weak DR tournament: honest chain products, losing probabilities, bias bound."""

import math
from fractions import Fraction

import numpy as np
import pytest

from qdice import weak_dr
from qdice.errors import InvalidBiasError, ParameterRangeError
from qdice.weak_dr import IdealWCFPrimitive, TournamentSpec


class TestHonestDistribution:
    def test_three_parties(self):
        assert weak_dr.honest_distribution(3) == [Fraction(1, 3)] * 3

    def test_two_parties(self):
        assert weak_dr.honest_distribution(2) == [Fraction(1, 2)] * 2

    def test_seven_parties_exact(self):
        dist = weak_dr.honest_distribution(7)
        assert dist == [Fraction(1, 7)] * 7
        assert sum(dist) == Fraction(1)

    @pytest.mark.parametrize("n", range(2, 13))
    def test_uniform_for_all_sizes(self, n):
        assert weak_dr.honest_distribution(n) == [Fraction(1, n)] * n

    def test_too_few_parties(self):
        with pytest.raises(ParameterRangeError):
            weak_dr.honest_distribution(1)


class TestMaxLosingProb:
    def test_zero_bias_gives_honest_value(self):
        spec = TournamentSpec(5, (0.0,) * 4)
        for party in range(1, 6):
            assert weak_dr.max_losing_prob(spec, party) == pytest.approx(4 / 5, abs=1e-15)

    def test_single_stage_reduces_to_balanced_weak_cf(self):
        spec = TournamentSpec(2, (0.2071,))
        assert weak_dr.max_losing_prob(spec, 1) == pytest.approx(0.7071, abs=1e-12)

    def test_late_entrant_single_stage(self):
        # party 3 of 3 plays only stage 2: 1 - (1/3 - 0.05)
        spec = TournamentSpec(3, (0.05, 0.05))
        assert weak_dr.max_losing_prob(spec, 3) == pytest.approx(1 - (1 / 3 - 0.05), abs=1e-12)

    def test_bias_exceeding_stage_win_rejected(self):
        spec = TournamentSpec(3, (0.05, 0.4))
        with pytest.raises(InvalidBiasError):
            weak_dr.max_losing_prob(spec, 3)  # party 3's stage-2 win prob is 1/3

    def test_rejection_is_exact_at_every_stage_boundary(self):
        # the float threshold must reject exactly the biases above the exact
        # Fraction win probability: every stage of every party for N <= 64,
        # at float(win) and its two neighbouring floats
        above = {}  # (delta, win numerator, win denominator) -> Fraction(delta) > win
        checked = 0
        for n_parties in range(2, 65):
            specs = {}  # (stage, delta) -> spec biased at that stage only
            for party in range(1, n_parties + 1):
                for k, win in weak_dr._party_stages(n_parties, party):
                    w = float(win)
                    for delta in (math.nextafter(w, -math.inf), w, math.nextafter(w, math.inf)):
                        if (k, delta) not in specs:
                            biases = [0.0] * (n_parties - 1)
                            biases[k - 1] = delta
                            specs[k, delta] = TournamentSpec(n_parties, biases)
                        key = (delta, win.numerator, win.denominator)
                        if key not in above:
                            above[key] = Fraction(delta) > win
                        try:
                            weak_dr.max_losing_prob(specs[k, delta], party)
                            raised = False
                        except InvalidBiasError:
                            raised = True
                        assert raised == above[key], (n_parties, party, k, delta)
                        checked += 1
        assert checked == 3 * sum(n * (n - 1) // 2 + n - 1 for n in range(2, 65))
        assert any(above.values()) and not all(above.values())

    def test_monotone_in_common_bias(self):
        values = []
        for delta in np.linspace(0.0, 0.08, 9):
            spec = TournamentSpec(4, (delta,) * 3)
            values.append(weak_dr.max_losing_prob(spec, 2))
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_expansion_matches_chain_numerically(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            spec = weak_dr.random_tournament(rng, max_parties=8)
            for party in range(1, spec.n_parties + 1):
                assert weak_dr.expanded_losing_prob(spec, party) == pytest.approx(
                    weak_dr.max_losing_prob(spec, party), abs=1e-12
                )


class TestExpansionSymbolicRegression:
    def test_chain_equals_stagewise_expansion_symbolically(self):
        # pins the chain product to the lose-at-stage-k expansion with
        # symbolic biases, for every party and N <= 6
        import sympy

        for n_parties in range(2, 7):
            deltas = sympy.symbols(f"d1:{n_parties}")
            for party in range(1, n_parties + 1):
                stages = weak_dr._party_stages(n_parties, party)
                wins = [
                    sympy.Rational(w.numerator, w.denominator) - deltas[k - 1]
                    for k, w in stages
                ]
                chain = 1 - sympy.prod(wins)
                expansion = 0
                prefix = 1
                for w in wins:
                    expansion += prefix * (1 - w)
                    prefix *= w
                assert sympy.simplify(chain - expansion) == 0


class TestBiasBound:
    def test_zero_bias_degenerate_equality(self):
        spec = TournamentSpec(4, (0.0, 0.0, 0.0))
        check = weak_dr.bias_bound_check(spec, 2)
        assert check.eps_bar == pytest.approx(0.0, abs=1e-15)
        assert check.bound == 0.0
        assert check.holds

    def test_known_three_party_case(self):
        spec = TournamentSpec(3, (0.05, 0.05))
        check = weak_dr.bias_bound_check(spec, 3)
        assert check.eps_bar == pytest.approx(0.05, abs=1e-12)
        assert check.bound == pytest.approx(0.15, abs=1e-15)
        assert check.holds

    def test_random_sweep_all_hold(self):
        assert weak_dr.bound_property_sweep(300, seed=2024) == 1.0

    def test_vanishing_bias_limit(self):
        # as the max stage bias shrinks, eps_bar is squeezed below N * delta_max
        for n in (3, 6, 10):
            for delta in (1e-2, 1e-4, 1e-6):
                spec = TournamentSpec(n, (delta,) * (n - 1))
                for party in (1, n):
                    check = weak_dr.bias_bound_check(spec, party)
                    assert 0.0 <= check.eps_bar < n * delta


class TestIdealPrimitive:
    def test_honest_sampling_rate(self):
        prim = IdealWCFPrimitive(z=0.3)
        rng = np.random.default_rng(0)
        n = 50_000
        wins = sum(prim.sample_first_wins(rng) for _ in range(n))
        assert abs(wins / n - 0.3) < 4 * np.sqrt(0.3 * 0.7 / n)

    def test_max_losing(self):
        prim = IdealWCFPrimitive(z=0.3, eps_bar=0.05)
        assert prim.max_losing(first_party=True) == pytest.approx(0.75)
        assert prim.max_losing(first_party=False) == pytest.approx(0.35)

    def test_rejects_oversized_bias(self):
        with pytest.raises(ParameterRangeError):
            IdealWCFPrimitive(z=0.9, eps_bar=0.2)


class TestTournamentSpecValidation:
    def test_wrong_bias_count(self):
        with pytest.raises(ParameterRangeError):
            TournamentSpec(4, (0.0, 0.0))

    def test_negative_bias(self):
        with pytest.raises(ParameterRangeError):
            TournamentSpec(3, (0.1, -0.1))

    def test_json_roundtrip_fields(self):
        spec = TournamentSpec(3, (0.05, 0.02))
        assert spec.to_json_dict() == {"n_parties": 3, "stage_biases": [0.05, 0.02]}
