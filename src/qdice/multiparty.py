"""Multi-party strong dice rolling by sequential pair stages.

2m parties decide among n^m outcomes: in stage k the k-th pair strongly
rolls an n-sided die, narrowing the surviving block of outcomes by a
factor n. A coalition of 2m-1 cheaters only has to bias the one stage the
honest party plays, and only one sub-outcome there leads to their target,
so their forcing probability is sqrt(1/n) + eps_bar, which meets the
M-party Kitaev product bound with equality at eps_bar = 0.

Also covers the near-optimal three-party three-sided protocol (weak roll
to pick a chooser, strong coin flip between the losers). Its 3n-party
3^n-sided generalization repeats that stage n times with the same bias,
so it needs no code of its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import sqrt

from . import strong_cf
from .bounds import symmetric_min
from .errors import ParameterRangeError

# The most decimal digits n^m may have: the record prints n^m, and the
# honest probability's denominator, in full, and Python converts at most
# 4 300 digits of an int to text by default. 3^9000 has 4 295 digits.
MAX_OUTCOME_DIGITS = 4300
_OUTCOME_LIMIT = 10**MAX_OUTCOME_DIGITS
_LIMIT_BITS = _OUTCOME_LIMIT.bit_length()


@dataclass(frozen=True)
class PairingProtocol:
    """m sequential pair stages over n^m outcomes.

    Stage k (1-indexed) is played by parties (2k-1, 2k) and partitions the
    surviving n^(m-k+1) outcomes into n contiguous blocks of n^(m-k), so
    (m, n) defines every stage and none is stored. m >= 1 and n >= 2 are
    checked on construction, and n^m past MAX_OUTCOME_DIGITS decimal digits
    is refused before n^m is formed.
    """

    m: int
    n: int

    def __post_init__(self):
        if self.m < 1:
            raise ParameterRangeError(f"m must be >= 1, got {self.m}")
        if self.n < 2:
            raise ParameterRangeError(f"n must be >= 2, got {self.n}")
        # n^m >= 2^(m (bits - 1)), so past the limit's bit count n^m is never formed;
        # below it, n^m < 2^(2 _LIMIT_BITS) is cheap to form exactly
        if self.m * (self.n.bit_length() - 1) >= _LIMIT_BITS or self.n**self.m >= _OUTCOME_LIMIT:
            raise ParameterRangeError(
                f"n^m has more than MAX_OUTCOME_DIGITS = {MAX_OUTCOME_DIGITS} decimal digits"
            )

    @property
    def n_parties(self) -> int:
        return 2 * self.m

    @property
    def n_outcomes(self) -> int:
        return self.n**self.m


def build_pairing(m: int, n: int) -> PairingProtocol:
    """The 2m-party n^m-sided pairing protocol, checked as `PairingProtocol` checks it."""
    return PairingProtocol(m, n)


def honest_outcome_prob(protocol: PairingProtocol) -> Fraction:
    """Exact honest probability of any one outcome, 1/n^m: each of the m
    stages picks one of n blocks uniformly. Every outcome has it, so no list
    of n^m entries is built."""
    return Fraction(1, protocol.n_outcomes)


def honest_outcome_probs(protocol: PairingProtocol) -> list[Fraction]:
    """Exact honest probability per outcome, one entry for each of n^m."""
    return [honest_outcome_prob(protocol)] * protocol.n_outcomes


def coalition_force_prob(protocol: PairingProtocol, eps_bar: float = 0.0) -> float:
    """Worst-case forcing probability of the 2m-1 dishonest parties.

    They control every stage but the honest party's; there exactly one of
    the n sub-outcomes leads to the target, forced with at most
    sqrt(1/n) + eps_bar by the optimal two-party dice roll. eps_bar must lie
    in [0, 1 - 1/sqrt(n)], so that the forcing probability is at most 1.
    """
    try:
        base = 1.0 / sqrt(protocol.n)
    except OverflowError:  # n does not fit a float
        base = symmetric_min(protocol.n, 2)
    if not 0.0 <= eps_bar <= 1.0 - base:
        raise ParameterRangeError(
            f"eps_bar must lie in [0, 1 - 1/sqrt(n)] = [0, {1.0 - base}], got {eps_bar}"
        )
    return base + eps_bar


def chooser_force_probs() -> list[float]:
    """Forcing probability per target in the honest-chooser branch.

    The honest winner draws a uniformly from {1, 2, 3}; the two dishonest
    losers then control the strong coin b completely, reaching outcome
    (a + b - 1) mod 3 + 1 for b in {0, 1}. The target is forced iff some b
    lands on it, so its probability is the fraction of compatible a values.
    """
    outcomes = (1, 2, 3)
    return [
        sum(1 for a in outcomes if any((a + b - 1) % 3 + 1 == target for b in (0, 1)))
        / len(outcomes)
        for target in outcomes
    ]


def three_party_example_bias() -> tuple[float, float]:
    """(coalition value, symmetric Kitaev bound) for the 3-party 3-sided protocol.

    If the honest party loses the ideal weak roll (probability 2/3) the
    dishonest chooser picks a freely and the dishonest loser forces the
    optimal balanced strong coin (`strong_cf` at P0 = 1/2), with Bob's
    forcing probability 1/sqrt(2). If the honest party wins (probability
    1/3) it picks a uniformly from {1, 2, 3}; the two dishonest losers own
    b outright and succeed iff a is compatible, probability 2/3. The bound
    is `bounds.symmetric_min(3, 3)`.
    """
    coin_force = strong_cf.cheat_probs(strong_cf.solve_params(0.5)).pb0
    chooser_branch = chooser_force_probs()[0]  # symmetric across targets
    value = (2.0 / 3.0) * coin_force + (1.0 / 3.0) * chooser_branch
    return value, symmetric_min(3, 3)
