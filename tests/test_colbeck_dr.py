"""Entanglement-based strong DR: honest correlations and cheat asymmetry."""

import tracemalloc
from fractions import Fraction

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


class TestWorkCaps:
    """`colbeck --n` stops at a documented cap before any array is built."""

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

    def test_cli_exits_one_with_one_error_line(self, capsys):
        assert cli.run(["colbeck", "--n", "100000000000"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: N must be <= 10000, got 100000000000\n"


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

    @pytest.mark.parametrize("n", [1, 0, -3])
    def test_needs_two_outcomes(self, n):
        with pytest.raises(ParameterRangeError, match="need at least 2 outcomes"):
            colbeck_dr.bob_cheat_oracle(n)

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
