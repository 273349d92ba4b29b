"""Six-round weak three-sided dice rolling built from two weak CF stages.

Stage 1: Alice and Bob flip a balanced weak coin at its fair point, where
an honest player survives with probability 1 - 1/sqrt(2). Stage 2: the
winner and Claire flip an imbalanced weak coin giving Claire a 1/3 honest
share. Two implementations exist, differing in who prepares the stage-2
state: the winner (case 1, Claire's honest share is p = 1/3) or Claire
(case 2, p = 2/3). Each case fixes its slack eta by requiring all three
maximal losing probabilities to coincide.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

from .errors import ParameterRangeError
from .optimize import bisect_root
from .weak_cf import WeakCFParams, alice_opt_cheat

INV_SQRT2 = 1.0 / sqrt(2.0)
HONEST_LOSS = 2.0 / 3.0

_ETA_MAX = {"case1": 2.0 / 3.0, "case2": 1.0 / 3.0}


@dataclass(frozen=True)
class SixRoundSolution:
    variant: str
    eta_star: float
    p_bar_star: float  # common maximal losing probability
    bias: float
    constraint_residual: float

    def to_json_dict(self) -> dict:
        return {
            "variant": self.variant,
            "eta_star": self.eta_star,
            "p_bar_star": self.p_bar_star,
            "bias": self.bias,
            "constraint_residual": self.constraint_residual,
        }


def _check_variant(variant: str, eta: float) -> None:
    if variant not in _ETA_MAX:
        raise ParameterRangeError(f"variant must be case1 or case2, got {variant!r}")
    if not 0.0 <= eta <= _ETA_MAX[variant]:
        raise ParameterRangeError(
            f"{variant} requires eta in [0, {_ETA_MAX[variant]:.4g}], got {eta}"
        )


def stage2_losing_probs(variant: str, eta: float) -> tuple[float, float]:
    """Stage-2 maximal losing probabilities (for the 1/3 party, the 2/3 party).

    Each is read off the three-round weak CF analysis under the variant's
    role assignment: the preparer's opponent cheats via the preparation
    attack (delta-maximization), the preparer cheats by always claiming a
    win (p + eta).
    """
    _check_variant(variant, eta)
    if variant == "case1":
        # winner prepares; Claire holds the p = 1/3 role
        preparer_cheat = alice_opt_cheat(WeakCFParams(p=1.0 / 3.0, eta=eta)).p_alice_star
        return preparer_cheat, 1.0 / 3.0 + eta
    # case2: Claire prepares with honest share 1/3, i.e. p = 2/3 for the winner
    preparer_cheat = alice_opt_cheat(WeakCFParams(p=2.0 / 3.0, eta=eta)).p_alice_star
    return 2.0 / 3.0 + eta, preparer_cheat


def losing_probs_at(variant: str, eta: float) -> tuple[float, float, float]:
    """(Alice, Bob, Claire) maximal losing probabilities at the given eta.

    Alice and Bob lose either at stage 1 (probability 1/sqrt(2) against a
    cheating coalition) or by surviving and losing stage 2 as the 2/3
    party; Claire's exposure is entirely the stage-2 flip as the 1/3 party.
    """
    pi_13, pi_23 = stage2_losing_probs(variant, eta)
    p_ab = INV_SQRT2 + (1.0 - INV_SQRT2) * pi_23
    return p_ab, p_ab, pi_13


def fairness_lhs_rhs(variant: str, eta: float) -> tuple[float, float]:
    """Both sides of the fairness constraint Pi_1/3 = 1/sqrt2 + (1-1/sqrt2) Pi_2/3."""
    pi_13, pi_23 = stage2_losing_probs(variant, eta)
    return pi_13, INV_SQRT2 + (1.0 - INV_SQRT2) * pi_23


def solve(variant: str, tol: float = 1e-12) -> SixRoundSolution:
    """Fix eta by the fairness constraint and report the resulting bias.

    The constraint residual changes sign exactly once on the feasible eta
    range (verified in tests), so bracketing bisection applies.
    """

    def residual(eta: float) -> float:
        lhs, rhs = fairness_lhs_rhs(variant, eta)
        return lhs - rhs

    _check_variant(variant, 0.0)
    eta_star = bisect_root(residual, 0.0, _ETA_MAX[variant], tol=tol)
    p_bar = losing_probs_at(variant, eta_star)[2]
    return SixRoundSolution(
        variant=variant,
        eta_star=eta_star,
        p_bar_star=p_bar,
        bias=p_bar - HONEST_LOSS,
        constraint_residual=residual(eta_star),
    )
