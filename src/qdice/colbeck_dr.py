"""Three-round entanglement-based strong N-sided dice rolling.

Alice prepares two maximally entangled N-level pairs and sends Bob half of
each. Bob picks one pair to serve as the die; both measure their halves in
the correlated (Schmidt) basis, which agree with certainty and are uniform
over N. Alice then surrenders her half of the unused pair so Bob can
verify it. The cheat probabilities are sharply asymmetric: Alice reaches
(N+1)/2N while Bob only reaches (2N-1)/N^2, and their product tends to 1/N
as N grows, meeting the Kitaev bound in the limit.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from . import quantum_core as qc
from .errors import ParameterRangeError

SIM_MAX_N = 16  # two N^2-dim pairs; larger spaces add nothing at desk scale
# Work cap of `bob_cheat_oracle`, checked before any array is built: the
# oracle at MAX_N counts 10^8 index pairs in about 0.1 s.
MAX_N = 10**4


def _check_n(n: int) -> None:
    if n < 2:
        raise ParameterRangeError(f"need at least 2 outcomes, got {n}")
    if n > MAX_N:
        raise ParameterRangeError(f"N must be <= {MAX_N}, got {n}")


def entangled_pair(n: int, label_a: str, label_b: str) -> qc.StateVector:
    """The maximally entangled pair sum_i |ii> / sqrt(N)."""
    amps = np.zeros(n * n, dtype=complex)
    amps[:: n + 1] = 1.0 / np.sqrt(n)
    return qc.StateVector((n, n), (label_a, label_b), amps)


def honest_run(n: int, seed: int | np.random.Generator) -> tuple[int, dict]:
    """One honest execution; returns (outcome in [1, N], transcript).

    The two pairs never interact, so each is simulated in its own
    N^2-dimensional space. The transcript carries both parties' measured
    indices and the analytic verification probability of the unused pair.
    """
    if not 2 <= n <= SIM_MAX_N:
        raise ParameterRangeError(f"simulation supports 2 <= N <= {SIM_MAX_N}, got {n}")
    rng = np.random.default_rng(seed)
    pairs = [entangled_pair(n, f"A{k}", f"B{k}") for k in (1, 2)]
    selected = int(rng.integers(2))

    alice = qc.measure_computational(pairs[selected], f"A{selected + 1}", rng)
    bob = qc.measure_computational(alice.post_state, f"B{selected + 1}", rng)
    unused = pairs[1 - selected]
    verify_prob = qc.subspace_probability(unused, qc.Subspace([unused]))
    return alice.outcome_index + 1, {
        "selected_pair": selected + 1,
        "alice_index": alice.outcome_index,
        "bob_index": bob.outcome_index,
        "alice_outcome_probability": alice.probability,
        "bob_agree_probability": bob.probability,
        "verification_probability": verify_prob,
    }


def cheat_probs(n: int) -> tuple[Fraction, Fraction]:
    """Maximal forcing probabilities (Alice, Bob) for any fixed outcome."""
    if n < 2:
        raise ParameterRangeError(f"need at least 2 outcomes, got {n}")
    return Fraction(n + 1, 2 * n), Fraction(2 * n - 1, n * n)


_ORACLE_BLOCK = 1 << 16  # index pairs compared per numpy step


def bob_cheat_oracle(n: int) -> Fraction:
    """Independent enumeration of Bob's measure-both-then-select strategy.

    Bob measures both dice before choosing; the two indices are independent
    uniform draws, and he succeeds whenever either shows the target. Counts
    all N^2 index pairs exactly, comparing a block of rows of the (i, j)
    grid at a time, so the extra memory is O(N) plus a fixed block. N is
    capped at MAX_N.
    """
    _check_n(n)
    target = 1
    j_hits = np.arange(1, n + 1) == target
    rows = max(1, _ORACLE_BLOCK // n)
    hits = 0
    for start in range(1, n + 1, rows):
        i_hits = np.arange(start, min(start + rows, n + 1))[:, None] == target
        hits += int(np.count_nonzero(i_hits | j_hits))
    return Fraction(hits, n * n)
