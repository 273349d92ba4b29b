"""Multi-party pairing protocols and the three-party example."""

import dataclasses
import inspect
import json
from fractions import Fraction
from math import exp, log, sqrt

import pytest

from qdice import bounds, cli, multiparty
from qdice.errors import ParameterRangeError


class TestBuildPairing:
    def test_four_parties_nine_outcomes(self):
        protocol = multiparty.build_pairing(2, 3)
        assert protocol.n_parties == 4
        assert protocol.n_outcomes == 9
        assert multiparty.honest_outcome_probs(protocol) == [Fraction(1, 9)] * 9

    def test_single_pair_reduces_to_balanced_flip(self):
        protocol = multiparty.build_pairing(1, 2)
        assert protocol.n_parties == 2
        assert protocol.n_outcomes == 2
        assert multiparty.honest_outcome_probs(protocol) == [Fraction(1, 2)] * 2

    def test_three_pairs_of_coins(self):
        protocol = multiparty.build_pairing(3, 2)
        assert protocol.n_outcomes == 8
        assert multiparty.honest_outcome_probs(protocol) == [Fraction(1, 8)] * 8

    def test_the_protocol_is_its_m_and_n(self):
        # every stage is derived from (m, n); none is stored
        assert [f.name for f in dataclasses.fields(multiparty.PairingProtocol)] == ["m", "n"]
        assert multiparty.build_pairing(2, 3) == multiparty.PairingProtocol(2, 3)

    @pytest.mark.parametrize("m, n", [(1, 2), (2, 3), (3, 2), (2, 7)])
    def test_one_outcome_probability_is_every_outcome_probability(self, m, n):
        protocol = multiparty.build_pairing(m, n)
        prob = multiparty.honest_outcome_prob(protocol)
        assert multiparty.honest_outcome_probs(protocol) == [prob] * n**m
        assert prob == Fraction(1, n**m)

    def test_invalid_sizes(self):
        with pytest.raises(ParameterRangeError):
            multiparty.build_pairing(0, 3)
        with pytest.raises(ParameterRangeError):
            multiparty.build_pairing(2, 1)


class TestCoalitionForce:
    def test_three_sided_ideal(self):
        protocol = multiparty.build_pairing(2, 3)
        assert multiparty.coalition_force_prob(protocol) == pytest.approx(
            1 / sqrt(3), abs=1e-15
        )

    @pytest.mark.parametrize("m,n", [(1, 2), (2, 2), (2, 3), (3, 3), (2, 5), (4, 2)])
    def test_saturates_symmetric_bound(self, m, n):
        protocol = multiparty.build_pairing(m, n)
        value = multiparty.coalition_force_prob(protocol)
        bound = (1.0 / protocol.n_outcomes) ** (1.0 / protocol.n_parties)
        assert abs(value - bound) <= 1e-12

    @pytest.mark.parametrize("m,n", [(1, 2), (2, 3), (3, 2)])
    def test_product_over_parties_is_inverse_outcomes(self, m, n):
        protocol = multiparty.build_pairing(m, n)
        value = multiparty.coalition_force_prob(protocol)
        assert value**protocol.n_parties == pytest.approx(
            1.0 / protocol.n_outcomes, abs=1e-12
        )

    def test_with_residual_bias(self):
        protocol = multiparty.build_pairing(1, 2)
        assert multiparty.coalition_force_prob(protocol, 0.01) == pytest.approx(
            1 / sqrt(2) + 0.01, abs=1e-15
        )

    def test_negative_bias_rejected(self):
        with pytest.raises(ParameterRangeError):
            multiparty.coalition_force_prob(multiparty.build_pairing(1, 2), -0.1)

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_bias_capped_at_a_certain_force(self, n):
        protocol = multiparty.build_pairing(1, n)
        cap = 1.0 - 1.0 / sqrt(n)
        assert multiparty.coalition_force_prob(protocol, cap) == pytest.approx(1.0, abs=1e-15)
        with pytest.raises(ParameterRangeError, match="eps_bar"):
            multiparty.coalition_force_prob(protocol, cap + 1e-9)
        with pytest.raises(ParameterRangeError):
            multiparty.coalition_force_prob(protocol, 5.0)


    @pytest.mark.parametrize("n", [2, 3, 10**300, 2**1023])
    def test_float_range_keeps_the_direct_expression(self, n):
        assert multiparty.coalition_force_prob(multiparty.build_pairing(1, n)) == 1.0 / sqrt(n)

    @pytest.mark.parametrize("n", [2**1024, 10**400, 10**600])
    def test_past_the_float_range_matches_symmetric_min(self, n):
        value = multiparty.coalition_force_prob(multiparty.build_pairing(1, n))
        assert value == bounds.symmetric_min(n, 2)
        assert value == pytest.approx(exp(-log(n) / 2), rel=1e-15) and value > 0.0


class TestThreePartyExample:
    def test_headline_values(self):
        value, bound = multiparty.three_party_example_bias()
        assert value == pytest.approx(0.69363, abs=5e-6)
        assert bound == pytest.approx(0.69336, abs=5e-6)

    def test_closed_forms(self):
        value, bound = multiparty.three_party_example_bias()
        assert value == pytest.approx((2 / 3) / sqrt(2) + (1 / 3) * (2 / 3), abs=1e-15)
        assert bound == pytest.approx((1 / 3) ** (1 / 3), abs=1e-15)

    def test_gap(self):
        value, bound = multiparty.three_party_example_bias()
        assert value - bound == pytest.approx(2.6547e-4, abs=1e-7)

    def test_bound_is_the_symmetric_minimum(self):
        _, bound = multiparty.three_party_example_bias()
        assert bound == bounds.symmetric_min(3, 3) == (1.0 / 3.0) ** (1.0 / 3.0)

    def test_value_dominates_bound(self):
        value, bound = multiparty.three_party_example_bias()
        assert value > bound  # near-optimal, not optimal


class TestChooserReadings:
    def test_full_choice_set_is_outcome_symmetric(self):
        probs = multiparty.chooser_force_probs()
        assert probs == pytest.approx([2 / 3, 2 / 3, 2 / 3], abs=1e-15)

    def test_takes_no_choice_set(self):
        assert not inspect.signature(multiparty.chooser_force_probs).parameters


class TestOutcomesPastTheFloatRange:
    def test_cli_saturates_at_three_to_the_seven_hundred(self, capsys):
        assert cli.run(["multiparty", "--m", "700", "--n", "3"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["n_outcomes"] == 3**700 and record["n_parties"] == 1400
        assert abs(record["coalition_force_prob"] - record["symmetric_bound"]) <= 1e-12


class TestThreePartyFamily:
    # the 3n-party 3^n-sided family shares the example's per-stage bias; the
    # CLI reports its n = 1 member
    def test_n_one_is_the_example(self, capsys):
        assert cli.run(["multiparty", "example3"]) == 0
        family = json.loads(capsys.readouterr().out)["family_n1"]
        assert family["n"] == 1 and family["n_stages"] == 1
        assert family["n_parties"] == 3
        assert family["n_outcomes"] == 3
        assert family["per_stage_force_prob"] == multiparty.three_party_example_bias()[0]


class _NoPower(int):
    """An int that fails the test if anything raises it to a power."""

    def __pow__(self, other, mod=None):
        raise AssertionError("n^m was formed")


class TestOutcomeDigitCap:
    def test_three_to_the_nine_thousand_is_built(self, capsys):
        assert cli.run(["multiparty", "--m", "9000", "--n", "3"]) == 0
        out = capsys.readouterr().out
        record = json.loads(out)
        assert record["n_outcomes"] == multiparty.build_pairing(9000, 3).n_outcomes == 3**9000
        assert record["honest_prob_exact"] == f"1/{3**9000}"
        # n^m is printed in full twice, and no other part of the record grows with m
        assert len(out) < 2 * len(str(3**9000)) + 300
        assert len(str(record["n_outcomes"])) == 4295 <= multiparty.MAX_OUTCOME_DIGITS

    @pytest.mark.parametrize(
        "m, n",
        [(9100, 3), (10**6, 3), (4300, 10), (1, 10**4300), (10**400, 2)],
        ids=["3^9100", "3^1e6", "10^4300", "(10^4300)^1", "2^(10^400)"],
    )
    def test_past_the_cap_is_refused(self, m, n):
        with pytest.raises(ParameterRangeError, match="MAX_OUTCOME_DIGITS = 4300"):
            multiparty.build_pairing(m, n)

    @pytest.mark.parametrize(
        "m, n, message",
        [
            (0, 3, "m must be >= 1"),
            (2, 1, "n must be >= 2"),
            (9100, 3, "MAX_OUTCOME_DIGITS = 4300"),
            (10**6, _NoPower(3), "MAX_OUTCOME_DIGITS = 4300"),
        ],
        ids=["m=0", "n=1", "3^9100", "3^1e6-unformed"],
    )
    def test_past_the_cap_is_refused_before_any_stage(self, m, n, message):
        # a protocol built directly, not through build_pairing, is checked too
        with pytest.raises(ParameterRangeError, match=message):
            multiparty.PairingProtocol(m, n)

    def test_the_cap_is_on_the_digit_count(self):
        # 10^4299 has 4 300 digits, 10^4300 one more
        assert multiparty.build_pairing(4299, 10).n_outcomes == 10**4299
        assert multiparty.build_pairing(1, 10**4299).n_outcomes == 10**4299
        with pytest.raises(ParameterRangeError):
            multiparty.build_pairing(4300, 10)
        largest = 10**multiparty.MAX_OUTCOME_DIGITS - 1
        assert multiparty.build_pairing(1, largest).n_outcomes == largest
        with pytest.raises(ParameterRangeError):
            multiparty.build_pairing(1, largest + 1)

    def test_a_million_stages_are_refused_without_forming_n_to_the_m(self):
        with pytest.raises(ParameterRangeError):
            multiparty.build_pairing(10**6, _NoPower(3))

    def test_cli_prints_three_to_the_nine_thousand(self, capsys):
        assert cli.run(["multiparty", "--m", "9000", "--n", "3"]) == 0
        out = capsys.readouterr().out
        assert f'"n_outcomes": {3**9000},' in out

    @pytest.mark.parametrize("m", ["9100", str(10**6)])
    def test_cli_refuses_past_the_cap_with_one_error_line(self, capsys, m):
        assert cli.run(["multiparty", "--m", m, "--n", "3"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: n^m has more than MAX_OUTCOME_DIGITS = 4300 decimal digits"
        ]
