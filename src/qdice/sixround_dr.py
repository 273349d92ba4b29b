"""Six-round weak three-sided dice rolling built from two weak CF stages.

Stage 1: Alice and Bob flip a balanced weak coin at its fair point
(`weak_cf.fair_eta_balanced`), where an honest player survives with
probability 1 - 1/sqrt(2). Stage 2: the winner and Claire flip an
imbalanced weak coin giving Claire a 1/3 honest share. Two
implementations exist, differing in who prepares the stage-2 state: the
winner (case 1, Claire's honest share is p = 1/3) or Claire
(case 2, p = 2/3). Each case fixes its slack eta by requiring all three
maximal losing probabilities to coincide. All three come from one loss function
over the stage-2 `weak_cf` cheat. Cleared of denominators, the fairness
condition is a quadratic in eta with coefficients in Z[sqrt2], written out
as literals in `_QUADRATICS`, so eta is its exact root from
`optimize.sqrt2_quadratic_root`, certified by a numeric route that never
uses the closed form. One `solve` runs one delta-maximization:
`alice_opt_cheat`'s at eta*, whose maximum cross-checks the closed form
and whose argmax gives the certificate's preparer cheat at eta* -/+ 1e-12.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ParameterRangeError
from .optimize import certify_sign_change, sqrt2_quadratic_root
from .weak_cf import WeakCFParams, alice_opt_cheat, alice_split_cheat, bob_opt_cheat, fair_eta_balanced

# stage 1's common cheat value: Bob's cheat at the balanced weak coin's fair point, 1/sqrt(2)
INV_SQRT2 = bob_opt_cheat(WeakCFParams(0.5, fair_eta_balanced()))
HONEST_LOSS = 2.0 / 3.0

_P = {"case1": Fraction(1, 3), "case2": Fraction(2, 3)}  # stage-2 p; eta lies in [0, 1 - p]


@dataclass(frozen=True)
class SixRoundSolution:
    eta_star: float
    p_bar_star: float  # common maximal losing probability
    bias: float
    constraint_residual: float
    losing_probs: tuple[float, float, float]  # (Alice, Bob, Claire)


def _losses(variant: str, params: WeakCFParams, preparer_cheat: float) -> tuple[float, float, float]:
    """(Alice, Bob, Claire) maximal losing probabilities at params.

    A party's stage-2 loss is its opponent's maximal win: the preparer's
    is `preparer_cheat` (the preparation attack, a delta-maximization),
    the other party's `bob_opt_cheat` (always announce a win). Claire's
    exposure is entirely the stage-2 flip as the 1/3 party. Alice and Bob
    lose either at stage 1 (probability 1/sqrt(2) against a cheating
    coalition) or by surviving and losing stage 2 as the 2/3 party.
    """
    pair = (preparer_cheat, bob_opt_cheat(params))
    # case1: the winner prepares and Claire holds the p = 1/3 role;
    # case2: Claire prepares, so the winner holds p = 2/3
    pi_13, pi_23 = pair if variant == "case1" else pair[::-1]
    p_ab = INV_SQRT2 + (1.0 - INV_SQRT2) * pi_23
    return p_ab, p_ab, pi_13


def _split_residual(variant: str, eta: float, delta: float) -> float:
    """The fairness residual Claire - Alice at eta, with the preparer's cheat
    the raw objective at the fixed split delta (`alice_split_cheat`).
    `WeakCFParams` checks that eta lies in [0, 1 - p]."""
    params = WeakCFParams(p=float(_P[variant]), eta=eta)
    alice, _, claire = _losses(variant, params, alice_split_cheat(params, delta))
    return claire - alice


# The fairness equation, cleared of denominators, as integer pairs (x, y) =
# x + y sqrt2 for a2, a1, a0 of a2 eta^2 + a1 eta + a0 = 0. With c = 1/sqrt2
# and u = p + eta, Alice's closed-form cheat times (1-p) u is p^2 + (1-2p) u,
# so multiplying the fairness equation by (1-p) u gives
#   case1: p^2 + (1-2p) u = (1-p) u (c + (1-c) u)
#   case2: (1-p) u^2 = c (1-p) u + (1-c) (p^2 + (1-2p) u)
# Each literal is 27 (left - right) with u = p + eta substituted.
_QUADRATICS = {"case1": ((-18, 9), (-3, -3), (4, -2)), "case2": ((9, 0), (21, -9), (-2, 0))}


def solve(variant: str) -> SixRoundSolution:
    """Fix eta by the fairness constraint and report the resulting bias.

    eta* is the exact root in [0, 1 - p] of the cleared fairness equation,
    correctly rounded (`sqrt2_quadratic_root`). One `alice_opt_cheat` call
    at eta* runs the only delta-maximization (`optimize.maximize_unimodal`)
    and cross-checks it against the closed form, whose value gives the
    losing probabilities and the residual at eta*. A second route that
    never uses the closed form A + B certifies eta*: the fairness residual,
    with the preparer's cheat the raw objective at that search's argmax
    (`search_delta`), must have opposite signs at eta* - 1e-12 and eta* +
    1e-12 (`certify_sign_change`), else CrossCheckError. The optimum moves
    by O(1e-12) across that step and the objective is flat there, so the
    fixed argmax gives a fresh search's maximum to rounding. No bisection.
    """
    if variant not in _P:
        raise ParameterRangeError(f"variant must be case1 or case2, got {variant!r}")
    p = _P[variant]
    eta_star = sqrt2_quadratic_root(_QUADRATICS[variant], Fraction(0), 1 - p)
    params = WeakCFParams(p=float(p), eta=eta_star)
    cheat = alice_opt_cheat(params)
    certify_sign_change(lambda eta: _split_residual(variant, eta, cheat.search_delta), eta_star)
    alice, bob, claire = _losses(variant, params, cheat.p_alice_star)
    return SixRoundSolution(
        eta_star=eta_star,
        p_bar_star=claire,
        bias=claire - HONEST_LOSS,
        constraint_residual=claire - alice,
        losing_probs=(alice, bob, claire),
    )
