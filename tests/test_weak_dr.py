"""Weak DR tournament: honest chain products, losing probabilities, bias bound."""

import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from qdice import cli, weak_dr
from qdice.errors import ParameterRangeError
from qdice.weak_dr import TournamentSpec


def party_stages(n_parties: int, party: int) -> list[tuple[int, Fraction]]:
    """(stage index, honest stage-win probability) of every stage the party
    plays, by the tournament rule alone: party p enters at stage
    max(p - 1, 1), which it wins with 1/(stage + 1), and defends each later
    stage k < N with k/(k + 1)."""
    entry = max(party - 1, 1)
    return [(entry, Fraction(1, entry + 1))] + [(k, Fraction(k, k + 1)) for k in range(entry + 1, n_parties)]


def expanded_losing_prob(spec: TournamentSpec, honest_party: int) -> float:
    """The chain form's quantity as the stagewise expansion: lose at the first
    stage, or win a prefix of stages and lose the next one. A regression
    target for `weak_dr.max_losing_prob`."""
    stages = party_stages(spec.n_parties, honest_party)
    losses = [1.0 - (float(win) - spec.stage_biases[k - 1]) for k, win in stages]
    total = 0.0
    prefix_win = 1.0
    for loss in losses:
        total += prefix_win * loss
        prefix_win *= 1.0 - loss
    return total


def reference_honest_distribution(n_parties: int) -> list[Fraction]:
    """Each party's chain product folded stage by stage over `party_stages`: O(N^2)."""
    probs = []
    for party in range(1, n_parties + 1):
        total = Fraction(1)
        for _, win in party_stages(n_parties, party):
            total *= win
        probs.append(total)
    return probs


def reference_suffix_distribution(n_parties: int) -> list[Fraction]:
    """The backward pass in Fractions: suffix products of the defend wins, one
    Fraction multiply per stage and one per party."""
    suffix = [Fraction(1)] * (n_parties + 1)
    for k in range(n_parties - 1, 1, -1):
        suffix[k] = Fraction(k, k + 1) * suffix[k + 1]
    return [Fraction(1, max(party, 2)) * suffix[max(party - 1, 1) + 1] for party in range(1, n_parties + 1)]


def reference_float_check(spec: TournamentSpec, honest_party: int) -> tuple[float, float, bool]:
    """`bias_bound_check` decided on the float chain alone, as before its exact branch."""
    n = spec.n_parties
    eps_bar = weak_dr.max_losing_prob(spec, honest_party) - (n - 1) / n
    bound = n * max(spec.stage_biases)
    if bound == 0.0:
        return (0.0, 0.0, True)
    return (eps_bar, bound, eps_bar < bound)


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

    @pytest.mark.parametrize("excess", [1, 10**11, 10**400])
    def test_sizes_past_the_cap_are_refused_before_any_work(self, excess):
        assert weak_dr.MAX_PARTIES == 10**5
        n = weak_dr.MAX_PARTIES + excess
        message = f"need at most {weak_dr.MAX_PARTIES} parties"
        with pytest.raises(ParameterRangeError, match=message):
            weak_dr.honest_distribution(n)
        with pytest.raises(ParameterRangeError, match=message):  # before the bias count is compared
            TournamentSpec(n, ())

    def test_the_cap_itself_is_accepted(self, monkeypatch):
        # a lowered cap keeps the check's boundary without a 10**5-party tournament
        monkeypatch.setattr(weak_dr, "MAX_PARTIES", 50)
        assert weak_dr.honest_distribution(50) == [Fraction(1, 50)] * 50
        assert TournamentSpec(50, (0.0,) * 49).n_parties == 50
        with pytest.raises(ParameterRangeError, match="need at most 50 parties, got 51"):
            weak_dr.honest_distribution(51)

    def test_equals_stagewise_chain(self):
        for n in range(2, 201):
            dist = weak_dr.honest_distribution(n)
            assert dist == reference_honest_distribution(n)
            assert all(type(p) is Fraction for p in dist)

    @pytest.mark.parametrize("n", [*range(2, 301), 2000])
    def test_equals_the_fraction_suffix_pass(self, n):
        dist = weak_dr.honest_distribution(n)
        assert dist == reference_suffix_distribution(n)
        assert len(dist) == n and all(type(p) is Fraction for p in dist)

    def test_stages_of_a_late_entrant(self):
        # the reference stage rule, against hand-written stages
        assert party_stages(5, 3) == [(2, Fraction(1, 3)), (3, Fraction(3, 4)), (4, Fraction(4, 5))]
        first_two = [(1, Fraction(1, 2)), (2, Fraction(2, 3)), (3, Fraction(3, 4)), (4, Fraction(4, 5))]
        assert party_stages(5, 1) == party_stages(5, 2) == first_two
        assert party_stages(5, 5) == [(4, Fraction(1, 5))]


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
        with pytest.raises(ParameterRangeError, match="stage 2 bias 0.4 exceeds"):
            weak_dr.max_losing_prob(spec, 3)  # party 3's stage-2 win prob is 1/3

    @pytest.mark.parametrize(
        "biases, party, message",
        [
            ((0.05, 0.4), 3, "stage 2 bias 0.4 exceeds honest win probability 0.3333333333333333"),
            ((0.0, 0.7, 0.9), 1, "stage 2 bias 0.7 exceeds honest win probability 0.6666666666666666"),
            ((0.0, 0.7, 0.9), 3, "stage 2 bias 0.7 exceeds honest win probability 0.3333333333333333"),
            ((0.0, 0.7, 0.9), 4, "stage 3 bias 0.9 exceeds honest win probability 0.25"),
            ((0.6, 0.0, 0.0), 2, "stage 1 bias 0.6 exceeds honest win probability 0.5"),
        ],
    )
    def test_rejection_names_the_first_bad_stage_and_its_float_win(self, biases, party, message):
        spec = TournamentSpec(len(biases) + 1, biases)
        for check in (weak_dr.max_losing_prob, weak_dr.checked_losing_prob):
            with pytest.raises(ParameterRangeError, match=f"^{re.escape(message)}$"):
                check(spec, party)

    def test_the_stage_chain_is_built_with_the_spec(self, exact_calls):
        # every party's float path reads the spec's chain of stage factors
        # fl(fl(k/(k+1)) - delta_k) and its largest bias, never the exact Fraction chain
        biases = [0.1, 0.2, 0.0, 0.05]
        spec = TournamentSpec(5, biases)
        factors = [k / (k + 1) - b for k, b in enumerate(biases, start=1)]
        for party in range(1, 6):
            entry = max(party - 1, 1)
            chain = math.prod(factors[entry:], start=1 / (entry + 1) - biases[entry - 1])
            assert weak_dr.max_losing_prob(spec, party) == 1.0 - chain
            assert weak_dr.checked_losing_prob(spec, party)[1].bound == 5 * 0.2
        # the stages whose bias exceeds k/(k+1), here 2 and 4, are refused by party
        spec = TournamentSpec(5, [0.1, 0.7, 0.0, 0.8])
        for party, stage in ((1, 2), (2, 2), (3, 2), (4, 4), (5, 4)):
            with pytest.raises(ParameterRangeError, match=f"^stage {stage} bias"):
                weak_dr.max_losing_prob(spec, party)
        assert spec == TournamentSpec(5, (0.1, 0.7, 0.0, 0.8)) and hash(spec) == hash(TournamentSpec(5, (0.1, 0.7, 0.0, 0.8)))
        assert repr(spec) == "TournamentSpec(n_parties=5, stage_biases=(0.1, 0.7, 0.0, 0.8))"
        for n in (2, 7, 40):
            spec = TournamentSpec(n, [0.01] * (n - 1))
            for party in range(1, n + 1):
                weak_dr.checked_losing_prob(spec, party)
        assert exact_calls == []

    def test_rejection_is_exact_at_every_stage_boundary(self):
        # the float threshold must reject exactly the biases above the exact
        # Fraction win probability: every stage of every party for N <= 64,
        # at float(win) and its two neighbouring floats
        above = {}  # (delta, win numerator, win denominator) -> Fraction(delta) > win
        checked = 0
        for n_parties in range(2, 65):
            specs = {}  # (stage, delta) -> spec biased at that stage only
            for party in range(1, n_parties + 1):
                for k, win in party_stages(n_parties, party):
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
                        except ParameterRangeError:
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
                stages = party_stages(n_parties, party)
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
        assert check == (0.0, 0.0, True)

    def test_zero_biases_give_exactly_zero_for_every_party(self):
        # the float chain rounds the honest eps_bar to 1.1e-16 at N = 3 and to
        # -1.1e-16 at N = 6; with every bias 0 it is the honest chain, eps_bar 0
        for n in range(2, 65):
            spec = TournamentSpec(n, (0.0,) * (n - 1))
            for party in range(1, n + 1):
                check = weak_dr.bias_bound_check(spec, party)
                assert check.eps_bar == 0.0 and check.bound == 0.0 and check.holds, (n, party)

    def test_zero_biases_still_check_the_party(self):
        with pytest.raises(ParameterRangeError, match="party"):
            weak_dr.bias_bound_check(TournamentSpec(3, (0.0, 0.0)), 4)

    def test_known_three_party_case(self):
        spec = TournamentSpec(3, (0.05, 0.05))
        check = weak_dr.bias_bound_check(spec, 3)
        assert check.eps_bar == pytest.approx(0.05, abs=1e-12)
        assert check.bound == pytest.approx(0.15, abs=1e-15)
        assert check.holds

    def test_vanishing_bias_limit(self):
        # as the max stage bias shrinks, eps_bar is squeezed below N * delta_max
        for n in (3, 6, 10):
            for delta in (1e-2, 1e-4, 1e-6):
                spec = TournamentSpec(n, (delta,) * (n - 1))
                for party in (1, n):
                    check = weak_dr.bias_bound_check(spec, party)
                    assert 0.0 <= check.eps_bar < n * delta


def worst_case_constants(n_parties: int) -> tuple[int, list[int]]:
    """`_worst_case_constants` read off the table of n_parties itself."""
    return weak_dr._worst_case_constants(n_parties, weak_dr._harmonic_table(n_parties))


def reference_constant(n_parties: int, party: int) -> Fraction:
    """The worst-case constant (1/N) * sum of 1/w_k, one Fraction per stage of `party_stages`."""
    return sum(1 / win for _, win in party_stages(n_parties, party)) / n_parties


def exact_eps_bar(n_parties: int, party: int, biases) -> Fraction:
    """eps_bar in exact arithmetic: 1/N minus the survival chain, the float biases read exactly."""
    survive = Fraction(1)
    for k, win in party_stages(n_parties, party):
        survive *= win - Fraction(biases[k - 1])
    return Fraction(1, n_parties) - survive


@pytest.fixture(scope="module")
def reference_constants():
    """`reference_constant` of every party, by N = 2..40."""
    return {n: [reference_constant(n, party) for party in range(1, n + 1)] for n in range(2, 41)}


class TestWorstCase:
    """The bound decided at its worst case: the exact constant sup eps_bar / delta_max."""

    @pytest.mark.parametrize("max_parties", range(2, 41))
    def test_constants_match_the_fraction_reference(self, max_parties, reference_constants):
        # the sweep reads every N <= max_parties off one table on the scale lcm(1..max_parties - 1)
        table = weak_dr._harmonic_table(max_parties)
        assert table[0] == math.lcm(*range(1, max_parties)) and len(table[1]) == max_parties
        for n in range(2, max_parties + 1):
            denominator, numerators = weak_dr._worst_case_constants(n, table)
            assert type(denominator) is int and all(type(num) is int for num in numerators)
            assert [Fraction(num, denominator) for num in numerators] == reference_constants[n]
        assert weak_dr.bound_property_sweep(max_parties) == 1.0

    def test_largest_constant_is_73_over_60(self):
        constants = {
            (n, party): Fraction(num, denominator)
            for n in range(2, 11)
            for denominator, numerators in [worst_case_constants(n)]
            for party, num in enumerate(numerators, start=1)
        }
        top = max(constants.values())
        assert top == Fraction(73, 60)
        assert [case for case, c in constants.items() if c == top] == [(5, 1), (5, 2)]

    def test_single_stage_party_has_constant_one(self):
        # party N plays only its entry stage: eps_bar = delta exactly
        for n in range(2, 30):
            denominator, numerators = worst_case_constants(n)
            assert Fraction(numerators[-1], denominator) == 1

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_corner_approaches_the_constant_from_below(self, n):
        # at the corner delta_k = delta, eps_bar / delta rises to the constant as delta -> 0
        denominator, numerators = worst_case_constants(n)
        for party in range(1, n + 1):
            constant = Fraction(numerators[party - 1], denominator)
            ratios = [
                exact_eps_bar(n, party, [delta] * (n - 1)) / delta
                for delta in (Fraction(1, 2 * n), Fraction(1, 100 * n), Fraction(1, 10**6))
            ]
            assert all(r <= constant for r in ratios)
            assert ratios == sorted(ratios)
            assert constant - ratios[-1] < Fraction(n, 10**6)

    def test_random_bias_vectors_stay_below_the_corner(self, random_tournament):
        rng = np.random.default_rng(11)
        for _ in range(200):
            spec = random_tournament(rng, max_parties=10)
            n, delta_max = spec.n_parties, Fraction(max(spec.stage_biases))
            denominator, numerators = worst_case_constants(n)
            for party in range(1, n + 1):
                eps_bar = exact_eps_bar(n, party, spec.stage_biases)
                assert eps_bar <= Fraction(numerators[party - 1], denominator) * delta_max

    def test_sweep_builds_one_table(self, monkeypatch):
        built = []
        harmonic_table = weak_dr._harmonic_table
        monkeypatch.setattr(weak_dr, "_harmonic_table", lambda m: built.append(m) or harmonic_table(m))
        assert weak_dr.bound_property_sweep(12) == 1.0
        assert built == [12]

    @pytest.mark.parametrize("max_parties", [2, 3, 10, 64])
    def test_sweep_holds_for_every_party(self, max_parties):
        assert weak_dr.bound_property_sweep(max_parties) == 1.0

    def test_sweep_default_is_ten_parties(self):
        assert weak_dr.bound_property_sweep() == weak_dr.bound_property_sweep(10) == 1.0

    @pytest.mark.parametrize("max_parties", [1, 0, -3])
    def test_sweep_rejects_single_party_tournaments(self, max_parties):
        with pytest.raises(ParameterRangeError, match="max_parties"):
            weak_dr.bound_property_sweep(max_parties)


def worst_case_constant(n_parties: int, party: int) -> Fraction:
    denominator, numerators = worst_case_constants(n_parties)
    return Fraction(numerators[party - 1], denominator)


class TestFloatCheckAgainstTheWorstCase:
    """The float `bias_bound_check` held to the exact chain and the exact worst-case constant."""

    @pytest.mark.parametrize("n", [2, 3, 10, 32])
    @pytest.mark.parametrize("seed", range(5))
    def test_random_tournaments_up_to_the_validity_edge(self, seed, n):
        # stage k's bias uniform on [0, 1/(k+1)): every stage-win probability
        # stays >= 0, so biases reach far past the fixture's 1/(2N)
        rng = np.random.default_rng(seed)
        for _ in range(25):
            spec = TournamentSpec(n, rng.uniform(0.0, 1.0 / np.arange(2, n + 1)).tolist())
            delta_max = max(spec.stage_biases)
            for party in range(1, n + 1):
                check = weak_dr.bias_bound_check(spec, party)
                exact = exact_eps_bar(n, party, spec.stage_biases)
                constant = worst_case_constant(n, party)
                assert abs(check.eps_bar - float(exact)) <= 2 * 2**-53, (seed, n, party)
                assert exact <= constant * Fraction(delta_max)
                assert check.eps_bar <= float(constant) * delta_max + 1e-15
                assert check.holds and check.bound == n * delta_max

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 17, 32])
    def test_one_biased_stage_adds_its_summand(self, n):
        # biasing stage k alone by delta raises a party that plays it by
        # delta * prod of its other stage wins = delta / (N * w_k); over the
        # party's stages these summands add up to its worst-case constant
        for party in range(1, n + 1):
            stages = party_stages(n, party)
            played = {k: win for k, win in stages}
            summed = Fraction(0)
            for k in range(1, n):
                delta = float(Fraction(1, 3 * (k + 1)))
                biases = [0.0] * (n - 1)
                biases[k - 1] = delta
                exact = exact_eps_bar(n, party, biases)
                expected = Fraction(delta) / (n * played[k]) if k in played else Fraction(0)
                assert exact == expected, (n, party, k)
                check = weak_dr.bias_bound_check(TournamentSpec(n, biases), party)
                assert check.eps_bar == pytest.approx(float(expected), abs=2 * 2**-53)
                assert check.holds
                summed += expected / Fraction(delta)
            assert summed == worst_case_constant(n, party)

    @pytest.mark.parametrize("n", [2, 3, 5, 10, 17, 32])
    def test_float_corner_ratio_tends_to_the_constant(self, n):
        # at the corner delta_k = delta, the float eps_bar / delta is the
        # constant less a second-order term O(n^2 * delta), give or take rounding
        delta = 1e-7
        spec = TournamentSpec(n, (delta,) * (n - 1))
        for party in range(1, n + 1):
            check = weak_dr.bias_bound_check(spec, party)
            constant = worst_case_constant(n, party)
            assert abs(check.eps_bar / delta - float(constant)) <= n * n * delta + 1e-8
            assert check.eps_bar <= float(constant) * delta + 1e-15
            assert check.holds


@pytest.fixture
def exact_calls(monkeypatch):
    """Count the calls of `bias_bound_check`'s exact branch."""
    calls = []
    exact = weak_dr._exact_eps_bar

    def counted(spec, party):
        calls.append((spec, party))
        return exact(spec, party)

    monkeypatch.setattr(weak_dr, "_exact_eps_bar", counted)
    return calls


class TestExactVerdictNearTheBound:
    """The float chain decides only outside its rounding bound; inside it, Fractions decide."""

    def test_tiny_bias_is_decided_exactly(self, exact_calls):
        # the float eps_bar 1.1e-16 is rounding noise far above the bound 3e-300
        spec = TournamentSpec(3, (0.0, 1e-300))
        assert reference_float_check(spec, 1) == (2**-53, 3e-300, False)
        check = weak_dr.bias_bound_check(spec, 1)
        assert check == (5e-301, 3e-300, True)
        assert check.eps_bar == float(exact_eps_bar(3, 1, spec.stage_biases))
        assert exact_calls == [(spec, 1)]

    def test_exact_value_is_correctly_rounded(self):
        # party 1's exact eps_bar is 2**-1075, a tie between 0 and the least
        # subnormal: round half to even gives 0.0
        spec = TournamentSpec(3, (0.0, 5e-324))
        assert exact_eps_bar(3, 1, spec.stage_biases) == Fraction(2) ** -1075
        assert weak_dr.bias_bound_check(spec, 1) == (0.0, 1.5e-323, True)

    @pytest.mark.parametrize("n", [2, 3, 5, 12, 17])
    def test_verdict_is_exact_at_every_scale(self, n, exact_calls):
        # the corner delta on every stage, and delta on the entry stage only,
        # from subnormal to large: the bound always holds exactly, and a float
        # eps_bar is the float chain's unless the exact branch ran
        for exponent in range(-323, 0, 11):
            delta = min(10.0**exponent, 1.0 / (2 * n))
            for biases in ([delta] * (n - 1), [delta] + [0.0] * (n - 2)):
                spec = TournamentSpec(n, biases)
                for party in range(1, n + 1):
                    before = len(exact_calls)
                    check = weak_dr.bias_bound_check(spec, party)
                    exact = exact_eps_bar(n, party, biases)
                    assert check.holds and exact < n * Fraction(max(biases)), (n, delta, party)
                    if len(exact_calls) > before:
                        assert check.eps_bar == float(exact)
                    else:
                        assert check == reference_float_check(spec, party)
        assert exact_calls  # the smallest deltas take the exact branch

    def test_clear_cases_keep_the_float_chain(self, exact_calls):
        # the draws of perfbench's exact-sweep: N in [2, 32], stage biases
        # uniform below 1/(2N); none comes near the rounding bound
        rng = np.random.default_rng(2024)
        for _ in range(400):
            n = int(rng.integers(2, 33))
            spec = TournamentSpec(n, rng.uniform(0.0, 1.0 / (2 * n), size=n - 1).tolist())
            for party in range(1, n + 1):
                assert weak_dr.bias_bound_check(spec, party) == reference_float_check(spec, party)
        assert exact_calls == []


class TestCheckedLosingProb:
    """The losing probability reported beside the check is (N-1)/N + eps_bar wherever eps_bar is exact."""

    def test_all_zero_biases_give_the_correctly_rounded_honest_value(self):
        moved = set()
        for n in range(2, 65):
            spec = TournamentSpec(n, [0.0] * (n - 1))
            for party in range(1, n + 1):
                losing, check = weak_dr.checked_losing_prob(spec, party)
                assert losing == float(Fraction(n - 1, n)), (n, party)
                assert check == weak_dr.bias_bound_check(spec, party) == (0.0, 0.0, True)
                if losing != weak_dr.max_losing_prob(spec, party):
                    moved.add(n)
        # the float chain rounds the other way for some parties at these N
        assert {3, 6, 7, 12, 13} <= moved

    @pytest.mark.parametrize("biases", [(0.0, 1e-300), (0.0, 5e-324), (1e-300, 1e-300)])
    def test_exact_branch_gives_the_correctly_rounded_sum(self, biases, exact_calls):
        spec = TournamentSpec(3, biases)
        for party in (1, 2, 3):
            losing, check = weak_dr.checked_losing_prob(spec, party)
            exact = exact_eps_bar(3, party, biases)
            assert check == weak_dr.bias_bound_check(spec, party)
            assert check.eps_bar == float(exact)
            assert losing == float(Fraction(2, 3) + exact) == 0.6666666666666666
        assert len(exact_calls) == 6  # each party, in both calls

    def test_float_branch_gives_the_float_chain(self, exact_calls):
        rng = np.random.default_rng(2025)
        for _ in range(100):
            n = int(rng.integers(2, 33))
            spec = TournamentSpec(n, rng.uniform(0.0, 1.0 / (2 * n), size=n - 1).tolist())
            for party in range(1, n + 1):
                losing, check = weak_dr.checked_losing_prob(spec, party)
                assert losing == weak_dr.max_losing_prob(spec, party)
                assert check == reference_float_check(spec, party)
        assert exact_calls == []


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
        with pytest.raises(ParameterRangeError, match=f"stage {stage} bias {bad} is not finite"):
            TournamentSpec(3, biases)

    def test_json_roundtrip_fields(self, capsys):
        assert cli.run(["weak-dr", "--n", "3", "--biases", "0.05,0.02"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert (record["n_parties"], record["stage_biases"]) == (3, [0.05, 0.02])
