"""Product-bound checkers and bias-report validation."""

from math import sqrt

import pytest

from qdice import bounds, multiparty, strong_cf, strong_dr
from qdice.bounds import BiasReport
from qdice.errors import DimensionMismatchError, ParameterRangeError


def two_party_report(pa, pb, honest):
    n = len(honest)
    return BiasReport(n_outcomes=n, n_parties=2, force_probs=(tuple(pa), tuple(pb)), honest_probs=tuple(honest))


class TestKitaevTwoParty:
    def test_ideal_balanced_protocol_saturates(self):
        report = strong_cf.cheat_probs(strong_cf.solve_params(0.5))
        bias = two_party_report(
            (report.alice_force_0, report.alice_force_1),
            (report.pb0, report.pb1),
            (0.5, 0.5),
        )
        assert bounds.kitaev_two_party(bias) == [True, True]
        prods = report.kitaev_products
        assert prods[0] == pytest.approx(0.5, abs=1e-12)

    def test_trivial_all_ones(self):
        bias = two_party_report((1.0, 1.0), (1.0, 1.0), (0.5, 0.5))
        assert bounds.kitaev_two_party(bias) == [True, True]

    def test_fabricated_violation_flagged(self):
        bias = two_party_report((0.7, 1.0), (0.7, 1.0), (0.5, 0.5))
        assert bounds.kitaev_two_party(bias) == [False, True]  # 0.49 < 0.5

    def test_wrong_party_count(self):
        report = BiasReport(2, 3, ((1.0, 1.0),) * 3, (0.5, 0.5))
        with pytest.raises(DimensionMismatchError):
            bounds.kitaev_two_party(report)


class TestKitaevMulti:
    def test_pairing_protocol_saturates(self):
        protocol = multiparty.build_pairing(2, 3)
        q = multiparty.coalition_force_prob(protocol)
        report = BiasReport(
            n_outcomes=9,
            n_parties=4,
            force_probs=((q,) * 9,) * 4,
            honest_probs=(1 / 9,) * 9,
        )
        results = bounds.kitaev_multi(report, tol=1e-9)
        assert all(results)
        assert q**4 == pytest.approx(1 / 9, abs=1e-12)  # equality, not slack

    def test_symmetric_point_equality(self):
        for n, m in ((3, 3), (4, 2), (8, 4)):
            q = bounds.symmetric_min(n, m)
            report = BiasReport(n, m, ((q,) * n,) * m, (1 / n,) * n)
            assert all(bounds.kitaev_multi(report, tol=1e-9))

    def test_all_ones_satisfied(self):
        report = BiasReport(3, 3, ((1.0, 1.0, 1.0),) * 3, (1 / 3,) * 3)
        assert all(bounds.kitaev_multi(report))

    def test_violation_detected(self):
        report = BiasReport(2, 3, ((0.7, 1.0),) * 3, (0.5, 0.5))
        assert bounds.kitaev_multi(report) == [False, True]


class TestSymmetricMin:
    def test_three_three(self):
        assert bounds.symmetric_min(3, 3) == pytest.approx(0.69336, abs=5e-6)

    def test_two_party_reduces_to_inverse_sqrt(self):
        for n in (2, 5, 16, 64):
            assert bounds.symmetric_min(n, 2) == pytest.approx(1 / sqrt(n), abs=1e-15)

    def test_balanced_coin(self):
        assert bounds.symmetric_min(2, 2) == pytest.approx(0.70711, abs=5e-6)

    def test_matches_strong_dr_ideal_adversary(self):
        for n in (2, 5, 9, 33):
            tree = strong_dr.build_tree(n)
            assert strong_dr.adversary_success(tree, 1, 0.0) == pytest.approx(
                bounds.symmetric_min(n, 2), abs=1e-12
            )

    def test_float_route_keeps_its_bits(self):
        for n in range(2, 40):
            for m in range(2, 8):
                assert bounds.symmetric_min(n, m) == (1.0 / n) ** (1.0 / m)

    def test_outcomes_past_the_float_range(self):
        # 3^700 overflows a float; the bound goes through logarithms instead
        assert bounds.symmetric_min(3**700, 1400) == 0.5773502691896257
        assert bounds.symmetric_min(3**700, 1400) == pytest.approx(1 / sqrt(3), abs=1e-15)
        assert bounds.symmetric_min(2**1100, 2) == pytest.approx(2.0**-550, rel=1e-13)

    def test_invalid_sizes(self):
        with pytest.raises(ParameterRangeError):
            bounds.symmetric_min(1, 2)
        with pytest.raises(ParameterRangeError):
            bounds.symmetric_min(3, 1)


class TestBiasReportValidation:
    def test_honest_probs_must_sum_to_one(self):
        with pytest.raises(ParameterRangeError):
            BiasReport(2, 2, ((1.0, 1.0), (1.0, 1.0)), (0.6, 0.6))

    def test_force_probs_in_unit_interval(self):
        with pytest.raises(ParameterRangeError):
            BiasReport(2, 2, ((1.2, 1.0), (1.0, 1.0)), (0.5, 0.5))

    @pytest.mark.parametrize("honest", [(float("nan"), 0.5), (1.5, -0.5)])
    def test_honest_probs_in_unit_interval(self, honest):
        # both used to pass: NaN fails no comparison, and 1.5 - 0.5 sums to 1
        with pytest.raises(ParameterRangeError, match=r"honest probabilities must lie in \[0, 1\]"):
            BiasReport(2, 2, ((1.0, 1.0), (1.0, 1.0)), honest)

    def test_shape_checks(self):
        with pytest.raises(DimensionMismatchError):
            BiasReport(2, 2, ((1.0, 1.0),), (0.5, 0.5))

    def test_json_roundtrip(self):
        report = BiasReport(2, 2, ((0.8, 0.9), (0.7, 0.6)), (0.5, 0.5))
        again = BiasReport.from_json_dict(report.to_json_dict())
        assert again == report


class TestCheckerConsistency:
    def test_strong_dr_reports_pass_with_equality(self):
        for n in (2, 5, 8):
            tree = strong_dr.build_tree(n)
            force = tuple(strong_dr.adversary_success(tree, t, 0.0) for t in range(1, n + 1))
            report = BiasReport(n, 2, (force, force), (1 / n,) * n)
            assert all(bounds.kitaev_two_party(report, tol=1e-9))
            for t in range(n):
                assert force[t] * force[t] == pytest.approx(1 / n, abs=1e-9)

    def test_strong_cf_sweep_reports_pass(self):
        for p0 in (0.15, 0.5, 0.85):
            r = strong_cf.cheat_probs(strong_cf.solve_params(p0))
            report = two_party_report(
                (r.alice_force_0, r.alice_force_1), (r.pb0, r.pb1), (p0, 1 - p0)
            )
            assert all(bounds.kitaev_two_party(report, tol=1e-9))
