"""Entanglement-based strong DR: honest correlations and cheat asymmetry."""

import json
import tracemalloc
from fractions import Fraction
from math import sqrt

import numpy as np
import pytest

from qdice import cli, colbeck_dr
from qdice.errors import ParameterRangeError


def reference_bob_oracle(n: int) -> Fraction:
    """Bob's hits counted pair by pair with a Python generator."""
    target = 1
    hits = sum(1 for i in range(1, n + 1) for j in range(1, n + 1) if target in (i, j))
    return Fraction(hits, n * n)


class TestHonestRun:
    def test_outcome_in_range_and_parties_agree(self):
        for seed in range(12):
            outcome, transcript = colbeck_dr.honest_run(3, seed=seed)
            assert 1 <= outcome <= 3
            assert transcript["alice_index"] == transcript["bob_index"]
            assert transcript["bob_agree_probability"] == pytest.approx(1.0, abs=1e-12)
            assert transcript["verification_probability"] == pytest.approx(1.0, abs=1e-12)

    def test_outcome_probability_is_uniform(self):
        _, transcript = colbeck_dr.honest_run(5, seed=0)
        assert transcript["alice_outcome_probability"] == pytest.approx(1 / 5, abs=1e-12)

    def test_analytic_distribution(self):
        for n in (2, 3, 8):
            np.testing.assert_allclose(
                colbeck_dr.honest_outcome_distribution(n), np.full(n, 1 / n), atol=1e-14
            )

    @pytest.mark.parametrize("n", [2, 3, 7, 9, 16, 100])
    def test_distribution_is_the_pair_marginal_bit_for_bit(self, n):
        pair = colbeck_dr.entangled_pair(n, "A", "B")
        marginal = (np.abs(pair.amps.reshape(n, n)) ** 2).sum(axis=1)
        assert colbeck_dr.honest_outcome_distribution(n).tobytes() == marginal.tobytes()

    def test_sampling_memory_is_linear_in_n(self):
        n = 2000  # the N^2 complex amplitudes alone would be 64 MB
        tracemalloc.start()
        try:
            outcomes = colbeck_dr.sample_outcomes(n, 10, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert outcomes.shape == (10,)
        assert peak < 2**20

    @pytest.mark.parametrize(
        "argv, freqs",
        [
            (["--n", "3", "--runs", "1000"], [0.302, 0.34, 0.358]),
            (["--n", "7", "--runs", "500", "--seed", "4"],
             [0.114, 0.13, 0.128, 0.152, 0.148, 0.142, 0.186]),
        ],
    )
    def test_seeded_runs_are_unchanged(self, capsys, argv, freqs):
        assert cli.run(["colbeck", *argv]) == 0
        assert json.loads(capsys.readouterr().out)["empirical_freqs"] == freqs

    def test_empirical_uniformity(self):
        runs = 100_000
        outcomes = colbeck_dr.sample_outcomes(2, runs, seed=31)
        freq = np.mean(outcomes == 1)
        sigma = sqrt(0.5 * 0.5 / runs)
        assert abs(freq - 0.5) < 4 * sigma

    def test_negative_runs_rejected_and_zero_runs_empty(self):
        with pytest.raises(ParameterRangeError, match="runs"):
            colbeck_dr.sample_outcomes(3, -1, seed=0)
        assert colbeck_dr.sample_outcomes(3, 0, seed=0).shape == (0,)

    def test_size_limits(self):
        with pytest.raises(ParameterRangeError):
            colbeck_dr.honest_run(1, seed=0)
        with pytest.raises(ParameterRangeError):
            colbeck_dr.honest_run(17, seed=0)

    def test_instance_state_shape(self):
        pair = colbeck_dr.entangled_pair(4, "A", "B")
        nonzero = np.abs(pair.amps) > 0
        assert nonzero.sum() == 4
        np.testing.assert_allclose(pair.amps[nonzero], 0.5, atol=1e-15)


class _RecordingGenerator:
    """Stands in for the generator: records the draw it is asked for and allocates nothing."""

    def __init__(self):
        self.sizes = []

    def choice(self, n, size, p):
        self.sizes.append((n, size, len(p)))
        return np.zeros(0, dtype=np.int64)


class TestWorkCaps:
    """`colbeck --runs` and `--n` stop at documented caps before any array is built."""

    @pytest.fixture
    def recorder(self, monkeypatch):
        rng = _RecordingGenerator()
        monkeypatch.setattr(colbeck_dr.qc, "as_generator", lambda seed: rng)
        return rng

    def test_runs_cap_is_accepted(self, recorder):
        colbeck_dr.sample_outcomes(3, colbeck_dr.MAX_RUNS, seed=0)
        assert recorder.sizes == [(3, colbeck_dr.MAX_RUNS, 3)]

    @pytest.mark.parametrize("runs", [10**7 + 1, 10**11, 10**400])
    def test_runs_past_the_cap_raise_before_drawing(self, recorder, runs):
        assert colbeck_dr.MAX_RUNS == 10**7
        with pytest.raises(ParameterRangeError, match=r"runs must be >= 0 and <= 10000000"):
            colbeck_dr.sample_outcomes(3, runs, seed=0)
        assert recorder.sizes == []

    def test_sampling_n_cap_is_accepted(self, recorder):
        colbeck_dr.sample_outcomes(colbeck_dr.MAX_N, 5, seed=0)
        assert recorder.sizes == [(colbeck_dr.MAX_N, 5, colbeck_dr.MAX_N)]

    @pytest.mark.parametrize("n", [10**4 + 1, 10**11])
    def test_sampling_n_past_the_cap_raises_before_drawing(self, recorder, n):
        assert colbeck_dr.MAX_N == 10**4
        with pytest.raises(ParameterRangeError, match=r"N must be <= 10000"):
            colbeck_dr.sample_outcomes(n, 5, seed=0)
        assert recorder.sizes == []

    @pytest.mark.parametrize("n", [1, 0, -3])
    def test_sampling_needs_two_outcomes(self, recorder, n):
        with pytest.raises(ParameterRangeError, match="need at least 2 outcomes"):
            colbeck_dr.sample_outcomes(n, 5, seed=0)
        assert recorder.sizes == []

    def test_oracle_n_cap_is_exact(self):
        n = colbeck_dr.MAX_N
        assert colbeck_dr.bob_cheat_oracle(n) == Fraction(2 * n - 1, n * n)

    @pytest.mark.parametrize("n", [10**4 + 1, 10**11, 10**400])
    def test_oracle_n_past_the_cap_raises_before_allocating(self, n):
        tracemalloc.start()
        try:
            with pytest.raises(ParameterRangeError, match=r"N must be <= 10000"):
                colbeck_dr.bob_cheat_oracle(n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**16

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("--n", "3", "--runs", "100000000000"), "error: runs must be >= 0 and <= 10000000, got 100000000000\n"),
            (("--n", "100000000000"), "error: N must be <= 10000, got 100000000000\n"),
        ],
    )
    def test_cli_exits_one_with_one_error_line(self, capsys, argv, message):
        assert cli.run(["colbeck", *argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == message


class TestCheatProbs:
    def test_three_sided(self):
        pa, pb = colbeck_dr.cheat_probs(3)
        assert pa == Fraction(2, 3)
        assert pb == Fraction(5, 9)
        # biases over the honest 1/3
        assert pa - Fraction(1, 3) == Fraction(1, 3)
        assert pb - Fraction(1, 3) == Fraction(2, 9)

    def test_two_sided(self):
        assert colbeck_dr.cheat_probs(2) == (Fraction(3, 4), Fraction(3, 4))

    def test_large_n_limits(self):
        n = 10**6
        pa, pb = colbeck_dr.cheat_probs(n)
        assert float(pa) == pytest.approx(0.5, abs=1e-5)
        assert float(pb) == pytest.approx(2 / n, rel=1e-5)
        assert float(n * pa * pb) == pytest.approx(1.0, abs=0.01)

    def test_asymmetry_for_three_or_more(self):
        for n in range(3, 40):
            pa, pb = colbeck_dr.cheat_probs(n)
            assert pa > pb

    def test_monotone_asymptotics(self):
        pa_vals = [colbeck_dr.cheat_probs(n)[0] for n in range(2, 60)]
        npb_vals = [n * colbeck_dr.cheat_probs(n)[1] for n in range(2, 60)]
        assert all(b < a for a, b in zip(pa_vals, pa_vals[1:]))  # decreasing to 1/2
        assert all(b > a for a, b in zip(npb_vals, npb_vals[1:]))  # increasing to 2
        products = [n * colbeck_dr.cheat_probs(n)[0] * colbeck_dr.cheat_probs(n)[1]
                    for n in range(2, 60)]
        assert all(b < a for a, b in zip(products, products[1:]))  # decreasing to 1


class TestBobOracle:
    @pytest.mark.parametrize("n", range(2, 101))
    def test_oracle_equals_closed_form_exactly(self, n):
        assert colbeck_dr.bob_cheat_oracle(n) == colbeck_dr.cheat_probs(n)[1]

    @pytest.mark.parametrize("n", range(2, 101))
    def test_inclusion_exclusion_identity(self, n):
        assert Fraction(2 * n - 1, n * n) == 1 - Fraction(n - 1, n) ** 2

    def test_three_sided_value(self):
        assert colbeck_dr.bob_cheat_oracle(3) == Fraction(5, 9)

    def test_two_sided_value(self):
        assert colbeck_dr.bob_cheat_oracle(2) == Fraction(3, 4)

    def test_equals_pairwise_count(self):
        for n in range(2, 121):
            assert colbeck_dr.bob_cheat_oracle(n) == reference_bob_oracle(n)

    @pytest.mark.parametrize("block", [1, 2, 7, 64])
    def test_block_boundaries(self, monkeypatch, block):
        # blocks of one row (block <= N), several rows and a partial last block
        monkeypatch.setattr(colbeck_dr, "_ORACLE_BLOCK", block)
        for n in range(2, 41):
            assert colbeck_dr.bob_cheat_oracle(n) == reference_bob_oracle(n)

    def test_too_small(self):
        with pytest.raises(ParameterRangeError):
            colbeck_dr.bob_cheat_oracle(1)

    def test_memory_independent_of_n_squared(self):
        n = 8000  # an N x N boolean grid would be 64 MB
        tracemalloc.start()
        try:
            value = colbeck_dr.bob_cheat_oracle(n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert value == Fraction(2 * n - 1, n * n)
        assert peak < 2 * 2**20
