"""Product-bound checkers and bias-report validation."""

from math import inf, nan, prod, sqrt

import numpy as np
import pytest

from qdice import bounds, multiparty, strong_cf, strong_dr
from qdice.bounds import BiasReport
from qdice.errors import DimensionMismatchError, ParameterRangeError


def two_party_report(pa, pb, honest):
    n = len(honest)
    return BiasReport(n_outcomes=n, n_parties=2, force_probs=(tuple(pa), tuple(pb)), honest_probs=tuple(honest))


def reference_kitaev_multi(report, tol=bounds.RATIONAL_TOL):
    """The product over parties built by a generator per outcome."""
    floor = 1.0 / report.n_outcomes
    return [
        prod(report.force_probs[j][i] for j in range(report.n_parties)) >= floor - tol
        for i in range(report.n_outcomes)
    ]


def reference_range_error(force_probs, honest_probs):
    """The message of the first failed [0, 1] check, each entry tested alone, or None."""
    for row in force_probs:
        if any(not 0.0 <= float(x) <= 1.0 for x in row):
            return "forcing probabilities must lie in [0, 1]"
    if any(not 0.0 <= float(x) <= 1.0 for x in honest_probs):
        return "honest probabilities must lie in [0, 1]"
    return None


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


    @pytest.mark.parametrize("seed", range(6))
    def test_equals_the_generator_product_on_random_reports(self, seed):
        # entries drawn around the floor's M-th root, so both verdicts occur,
        # with exact 0 and 1 mixed in
        rng = np.random.default_rng(seed)
        seen = set()
        for _ in range(60):
            n_outcomes, n_parties = int(rng.integers(1, 12)), int(rng.integers(2, 7))
            root = (1.0 / n_outcomes) ** (1.0 / n_parties)
            force = rng.uniform(0.8 * root, min(1.0, 1.25 * root), size=(n_parties, n_outcomes))
            force[rng.random(force.shape) < 0.05] = 0.0
            force[rng.random(force.shape) < 0.05] = 1.0
            report = BiasReport(n_outcomes, n_parties, force.tolist(), (1 / n_outcomes,) * n_outcomes)
            for tol in (bounds.RATIONAL_TOL, 0.0, 1e-3):
                verdicts = bounds.kitaev_multi(report, tol)
                assert verdicts == reference_kitaev_multi(report, tol)
                seen.update(verdicts)
        assert seen == {True, False}


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

    @pytest.mark.parametrize("bad", [nan, inf, -inf, -1e-300, 1 + 2**-52])
    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    def test_a_bad_entry_anywhere_is_rejected(self, bad, where):
        # min and max alone would miss a NaN that is not first
        n_outcomes, n_parties = 5, 3
        at = {"first": 0, "middle": n_outcomes // 2, "last": n_outcomes - 1}[where]
        good_force = [[0.5, 1.0, 0.0, 0.75, 0.25] for _ in range(n_parties)]
        honest = [0.2] * n_outcomes
        cases = []
        for row in range(n_parties):
            force = [list(r) for r in good_force]
            force[row][at] = bad
            cases.append((force, honest))
        spoilt = list(honest)
        spoilt[at] = bad
        cases.append((good_force, spoilt))
        for force, honest_probs in cases:
            message = reference_range_error(force, honest_probs)
            assert message is not None
            with pytest.raises(ParameterRangeError) as info:
                BiasReport(n_outcomes, n_parties, force, honest_probs)
            assert str(info.value) == message

    def test_edges_of_the_unit_interval_pass(self):
        report = BiasReport(3, 2, ((0.0, -0.0, 1.0), (1.0, 0.5, 5e-324)), (0.0, 1.0, 0.0))
        assert report.force_probs == ((0.0, 0.0, 1.0), (1.0, 0.5, 5e-324))
        assert all(type(x) is float for row in report.force_probs for x in row)

    def test_empty_rows_keep_the_sum_check(self):
        # no outcome: nothing to range-check, and the empty honest sum is not 1
        with pytest.raises(ParameterRangeError, match="must sum to 1"):
            BiasReport(0, 2, ((), ()), ())

    def test_shape_checks(self):
        with pytest.raises(DimensionMismatchError):
            BiasReport(2, 2, ((1.0, 1.0),), (0.5, 0.5))

    def test_json_roundtrip(self):
        report = BiasReport(2, 2, ((0.8, 0.9), (0.7, 0.6)), (0.5, 0.5))
        decoded = {
            "n_outcomes": 2,
            "n_parties": 2,
            "force_probs": [[0.8, 0.9], [0.7, 0.6]],
            "honest_probs": [0.5, 0.5],
        }
        again = BiasReport.from_json_dict(decoded)
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
