"""Weak DR tournament: honest chain products, losing probabilities, bias bound."""

import math
from fractions import Fraction

import numpy as np
import pytest

from qdice import weak_dr
from qdice.errors import InvalidBiasError, ParameterRangeError
from qdice.weak_dr import TournamentSpec


def expanded_losing_prob(spec: TournamentSpec, honest_party: int) -> float:
    """The chain form's quantity as the stagewise expansion: lose at the first
    stage, or win a prefix of stages and lose the next one. A regression
    target for `weak_dr.max_losing_prob`."""
    stages = weak_dr._party_stages(spec.n_parties, honest_party)
    losses = [1.0 - (float(win) - spec.stage_biases[k - 1]) for k, win in stages]
    total = 0.0
    prefix_win = 1.0
    for loss in losses:
        total += prefix_win * loss
        prefix_win *= 1.0 - loss
    return total


def reference_honest_distribution(n_parties: int) -> list[Fraction]:
    """Each party's chain product folded stage by stage over `_party_stages`: O(N^2)."""
    probs = []
    for party in range(1, n_parties + 1):
        total = Fraction(1)
        for _, win in weak_dr._party_stages(n_parties, party):
            total *= win
        probs.append(total)
    return probs


def reference_draws(rng, count, max_parties):
    """The sweep's tournaments, in draw order, from its two block draws read one value at a time."""
    sizes = rng.integers(2, max_parties + 1, size=count)
    block = rng.random((count, max_parties - 1))
    return [
        TournamentSpec(n, [float(u) * (1.0 / (2 * n)) for u in block[i, : n - 1]])
        for i, n in enumerate(sizes.tolist())
    ]


def padded(specs, max_parties):
    """(sizes, stage-major biases) for `_bound_checks`: column i holds tournament i's
    stage biases, 0.0 past its size."""
    biases = np.zeros((max_parties - 1, len(specs)))
    for i, spec in enumerate(specs):
        biases[: spec.n_parties - 1, i] = spec.stage_biases
    return np.array([spec.n_parties for spec in specs]), biases


def alone(biases, n):
    """One tournament's (sizes, stage-major biases) for `_bound_checks`."""
    return np.array([n]), np.array([biases], dtype=float).T


def bound_check_rows(eps_bar, bound, holds, i, n):
    """Tournament i's (eps_bar, bound, holds) for its parties 1..n, as Python values."""
    return [(float(eps_bar[i, j]), float(bound[i]), bool(holds[i, j])) for j in range(n)]


def per_case_sweep(specs):
    """The sweep as one scalar `bias_bound_check` per (tournament, party) case."""
    ok = total = 0
    for spec in specs:
        for party in range(1, spec.n_parties + 1):
            ok += weak_dr.bias_bound_check(spec, party).holds
            total += 1
    return ok / total


def scalar_outcome(spec, party):
    """bias_bound_check's result, or the message of the InvalidBiasError it raises."""
    try:
        return weak_dr.bias_bound_check(spec, party)
    except InvalidBiasError as exc:
        return str(exc)


SWEEP_CASES = [(seed, mp) for seed in range(5) for mp in (2, 3, 10, 32)]


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

    def test_equals_stagewise_chain(self):
        for n in range(2, 201):
            dist = weak_dr.honest_distribution(n)
            assert dist == reference_honest_distribution(n)
            assert all(type(p) is Fraction for p in dist)

    def test_stages_of_a_late_entrant(self):
        assert weak_dr._party_stages(5, 3) == [(2, Fraction(1, 3)), (3, Fraction(3, 4)), (4, Fraction(4, 5))]
        first_two = [(1, Fraction(1, 2)), (2, Fraction(2, 3)), (3, Fraction(3, 4)), (4, Fraction(4, 5))]
        assert weak_dr._party_stages(5, 1) == weak_dr._party_stages(5, 2) == first_two
        assert weak_dr._party_stages(5, 5) == [(4, Fraction(1, 5))]


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

    def test_expansion_matches_chain_numerically(self, random_tournament):
        rng = np.random.default_rng(5)
        for _ in range(100):
            spec = random_tournament(rng, max_parties=8)
            for party in range(1, spec.n_parties + 1):
                assert expanded_losing_prob(spec, party) == pytest.approx(
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

    @pytest.mark.parametrize("count", [0, -1])
    def test_sweep_rejects_empty_count(self, count):
        with pytest.raises(ParameterRangeError, match="count"):
            weak_dr.bound_property_sweep(count, seed=0)

    def test_sweep_rejects_single_party_tournaments(self):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ParameterRangeError, match="max_parties"):
            weak_dr.bound_property_sweep(10, rng, max_parties=1)
        assert rng.bit_generator.state == state  # rejected before any draw

    def test_vanishing_bias_limit(self):
        # as the max stage bias shrinks, eps_bar is squeezed below N * delta_max
        for n in (3, 6, 10):
            for delta in (1e-2, 1e-4, 1e-6):
                spec = TournamentSpec(n, (delta,) * (n - 1))
                for party in (1, n):
                    check = weak_dr.bias_bound_check(spec, party)
                    assert 0.0 <= check.eps_bar < n * delta


class TestBatchedSweep:
    """The one-pass sweep against the scalar `bias_bound_check` it replaced."""

    @pytest.mark.parametrize("seed,max_parties", SWEEP_CASES)
    def test_every_case_is_bit_identical_to_the_scalar_check(self, seed, max_parties):
        specs = reference_draws(np.random.default_rng(seed), 200, max_parties)
        sizes, biases = padded(specs, max_parties)
        eps_bar, bound, holds = weak_dr._bound_checks(sizes, biases)
        assert eps_bar.shape == holds.shape == (len(specs), max_parties)
        assert bound.shape == (len(specs),)
        for i, spec in enumerate(specs):
            assert bound_check_rows(eps_bar, bound, holds, i, spec.n_parties) == [
                tuple(weak_dr.bias_bound_check(spec, party)) for party in range(1, spec.n_parties + 1)
            ], (i, spec.n_parties)
            assert not holds[i, spec.n_parties :].any()

    @pytest.mark.parametrize("seed,max_parties", SWEEP_CASES)
    def test_sweep_checks_exactly_the_reference_draws(self, seed, max_parties, monkeypatch):
        seen = []

        def recording(sizes, biases):
            seen.append((sizes.tolist(), biases.tolist()))
            return checks(sizes, biases)

        checks = weak_dr._bound_checks
        monkeypatch.setattr(weak_dr, "_bound_checks", recording)
        weak_dr.bound_property_sweep(200, seed, max_parties)
        sizes, biases = padded(reference_draws(np.random.default_rng(seed), 200, max_parties), max_parties)
        assert seen == [(sizes.tolist(), biases.tolist())]  # float lists compare bit for bit

    @pytest.mark.parametrize("seed,max_parties", SWEEP_CASES)
    def test_pass_rate_and_generator_state_match_the_per_case_loop(self, seed, max_parties):
        batched_rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        rate = weak_dr.bound_property_sweep(200, batched_rng, max_parties)
        assert rate == per_case_sweep(reference_draws(ref_rng, 200, max_parties))
        # the passed-in Generator advanced by exactly the two block draws
        assert batched_rng.bit_generator.state == ref_rng.bit_generator.state
        assert weak_dr.bound_property_sweep(200, seed, max_parties) == rate

    def test_mixed_sizes_share_one_pass_without_padding_counting(self):
        # tournaments of different N in one call: only each one's own
        # N parties and N - 1 stages count, so exactly sum(N) cases hold
        rng = np.random.default_rng(7)
        specs = [
            TournamentSpec(n, rng.uniform(0.0, 1.0 / (2 * n), size=n - 1).tolist())
            for n in (2, 9, 3, 12, 5, 2, 12, 7)
        ]
        sizes, biases = padded(specs, 12)
        eps_bar, bound, holds = weak_dr._bound_checks(sizes, biases)
        for i, spec in enumerate(specs):
            expected = [weak_dr.bias_bound_check(spec, j) for j in range(1, spec.n_parties + 1)]
            assert bound_check_rows(eps_bar, bound, holds, i, spec.n_parties) == [tuple(c) for c in expected]
            # the same tournament checked alone, at its own width
            single = weak_dr._bound_checks(*alone(spec.stage_biases, spec.n_parties))
            assert bound_check_rows(*single, 0, spec.n_parties) == [tuple(c) for c in expected]
        assert int(holds.sum()) == int(sizes.sum()) == sum(spec.n_parties for spec in specs)
        assert holds.sum(axis=1).tolist() == sizes.tolist()

    def test_two_party_tournaments_skip_the_stage_loop(self):
        # max_parties = 2: one stage, where both parties get 1/2 - b_1
        specs = reference_draws(np.random.default_rng(3), 50, 2)
        sizes, biases = padded(specs, 2)
        assert biases.shape == (1, 50) and set(sizes.tolist()) == {2}
        eps_bar, bound, holds = weak_dr._bound_checks(sizes, biases)
        for i, spec in enumerate(specs):
            assert bound_check_rows(eps_bar, bound, holds, i, 2) == [
                tuple(weak_dr.bias_bound_check(spec, party)) for party in (1, 2)
            ]
        assert int(holds.sum()) == 100
        assert weak_dr.bound_property_sweep(50, 3, max_parties=2) == 1.0

    @pytest.mark.parametrize("seed,max_parties", SWEEP_CASES)
    def test_invalid_bias_fires_exactly_where_the_scalar_check_fires(
        self, seed, max_parties, random_tournament
    ):
        # take the first drawn tournament and move one stage's bias to each
        # party's floor there, and one float above it
        spec = random_tournament(np.random.default_rng(seed), max_parties)
        n = spec.n_parties
        raised = passed = 0
        for party in range(1, n + 1):
            for k, _, floor in weak_dr._stage_table(n, party):
                for delta in (floor, math.nextafter(floor, math.inf)):
                    biases = list(spec.stage_biases)
                    biases[k - 1] = delta
                    moved = TournamentSpec(n, biases)
                    expected = [scalar_outcome(moved, j) for j in range(1, n + 1)]
                    errors = [e for e in expected if isinstance(e, str)]
                    if errors:
                        raised += 1
                        with pytest.raises(InvalidBiasError) as exc:
                            weak_dr._bound_checks(*alone(biases, n))
                        assert str(exc.value) == errors[0]
                    else:
                        passed += 1
                        got = weak_dr._bound_checks(*alone(biases, n))
                        assert bound_check_rows(*got, 0, n) == [tuple(c) for c in expected]
        # every step above a floor raises; at each stage's lowest floor nothing does
        assert raised >= sum(len(weak_dr._stage_table(n, j)) for j in range(1, n + 1))
        assert passed >= n - 1

    @pytest.mark.parametrize("n", range(2, 13))
    def test_zero_biases_match_the_degenerate_scalar_rule(self, n):
        spec = TournamentSpec(n, (0.0,) * (n - 1))
        got = weak_dr._bound_checks(*alone([0.0] * (n - 1), n))
        expected = [weak_dr.bias_bound_check(spec, party) for party in range(1, n + 1)]
        assert bound_check_rows(*got, 0, n) == [tuple(c) for c in expected]

    def test_first_invalid_tournament_in_draw_order_is_reported(self):
        rows = np.full((4, 4), 0.01)
        rows[1, 3] = 0.3  # party 5 enters stage 4 with win probability 1/5
        rows[3, 0] = 0.6  # above every stage-1 win probability
        spec = TournamentSpec(5, rows[1].tolist())
        with pytest.raises(InvalidBiasError) as exc:
            weak_dr._bound_checks(np.full(4, 5), rows.T)
        assert str(exc.value) == scalar_outcome(spec, 5)

    def test_first_invalid_tournament_among_mixed_sizes_is_reported(self):
        # the offending stage is each tournament's last, so a floor check
        # that skipped any stage index would miss one of them
        specs = [TournamentSpec(n, [0.01] * (n - 1)) for n in (3, 6, 4, 9, 2)]
        sizes, biases = padded(specs, 9)
        for i, n in ((1, 6), (3, 9), (4, 2)):
            biases[n - 2, i] = 0.55
        with pytest.raises(InvalidBiasError) as exc:
            weak_dr._bound_checks(sizes, biases)
        moved = TournamentSpec(6, biases[:5, 1].tolist())
        assert str(exc.value) == scalar_outcome(moved, 6)
        for i, n in ((3, 9), (4, 2)):
            with pytest.raises(InvalidBiasError) as exc:
                weak_dr._bound_checks(sizes[i:], biases[:, i:])
            assert str(exc.value) == scalar_outcome(TournamentSpec(n, biases[: n - 1, i].tolist()), n)


class TestTournamentSpecValidation:
    def test_wrong_bias_count(self):
        with pytest.raises(ParameterRangeError):
            TournamentSpec(4, (0.0, 0.0))

    def test_negative_bias(self):
        with pytest.raises(ParameterRangeError):
            TournamentSpec(3, (0.1, -0.1))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("stage", [1, 2])
    def test_non_finite_bias(self, bad, stage):
        biases = [0.0, 0.0]
        biases[stage - 1] = bad
        with pytest.raises(InvalidBiasError, match=f"stage {stage} bias {bad} is not finite"):
            TournamentSpec(3, biases)

    def test_json_roundtrip_fields(self):
        spec = TournamentSpec(3, (0.05, 0.02))
        assert spec.to_json_dict() == {"n_parties": 3, "stage_biases": [0.05, 0.02]}
