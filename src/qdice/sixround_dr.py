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
condition is a quadratic in eta with coefficients in Q(sqrt2), so eta is
its exact root from `optimize.sqrt2_quadratic_root`, certified by a
numeric route that never uses the closed form. One `solve` runs one
delta-maximization: `alice_opt_cheat`'s at eta*, whose maximum
cross-checks the closed form and whose argmax gives the certificate's
preparer cheat at eta* -/+ 1e-12.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import ParameterRangeError
from .optimize import certify_sign_change, sqrt2_quadratic_root
from .weak_cf import WeakCFParams, alice_opt_cheat, alice_split_cheat, bob_opt_cheat, fair_eta_balanced

# stage 1's common cheat value: the balanced weak coin's fair point, 1/sqrt(2)
INV_SQRT2 = fair_eta_balanced().p_star
HONEST_LOSS = 2.0 / 3.0

_P = {"case1": Fraction(1, 3), "case2": Fraction(2, 3)}  # stage-2 p; eta lies in [0, 1 - p]


@dataclass(frozen=True)
class SixRoundSolution:
    eta_star: float
    p_bar_star: float  # common maximal losing probability
    bias: float
    constraint_residual: float
    losing_probs: tuple[float, float, float]  # (Alice, Bob, Claire)


def _check_variant(variant: str, eta: float) -> float:
    """The variant's stage-2 p as a float, once variant and eta are checked."""
    if variant not in _P:
        raise ParameterRangeError(f"variant must be case1 or case2, got {variant!r}")
    p, eta_max = _FLOATS[variant]
    if not 0.0 <= eta <= eta_max:
        raise ParameterRangeError(f"{variant} requires eta in [0, {eta_max:.4g}], got {eta}")
    return p


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
    the raw objective at the fixed split delta (`alice_split_cheat`)."""
    params = WeakCFParams(p=_check_variant(variant, eta), eta=eta)
    alice, _, claire = _losses(variant, params, alice_split_cheat(params, delta))
    return claire - alice


def _quadratic(variant: str) -> list[tuple[int, int]]:
    """Integer (x, y) = x + y sqrt2 for a2, a1, a0 of a2 eta^2 + a1 eta + a0 = 0.

    With c = 1/sqrt2 = sqrt2/2 and u = p + eta, Alice's closed-form cheat
    times (1-p) u is p^2 + (1-2p) u, so multiplying the fairness equation
    by (1-p) u gives
      case1: p^2 + (1-2p) u = (1-p) u (c + (1-c) u)
      case2: (1-p) u^2 = c (1-p) u + (1-c) (p^2 + (1-2p) u)
    Substituting u = p + eta exactly and scaling the rational parts to
    integers gives the coefficients in eta.
    """
    p = _P[variant]
    k, m = 1 - p, 1 - 2 * p
    if variant == "case1":
        in_u = [(-k, k / 2), (m, -k / 2), (p * p, Fraction(0))]
    else:
        in_u = [(k, Fraction(0)), (-m, (m - k) / 2), (-p * p, p * p / 2)]
    # p is rational, so the rational and sqrt2 parts shift alike:
    # a2 u^2 + a1 u + a0 = a2 eta^2 + (2 p a2 + a1) eta + (p^2 a2 + p a1 + a0)
    parts = [(a2, 2 * p * a2 + a1, p * p * a2 + p * a1 + a0) for a2, a1, a0 in zip(*in_u)]
    coeffs = list(zip(*parts))
    scale = lcm(*(q.denominator for pair in coeffs for q in pair))
    return [(int(x * scale), int(y * scale)) for x, y in coeffs]


_QUADRATICS = {variant: _quadratic(variant) for variant in _P}
_FLOATS = {variant: (float(p), float(1 - p)) for variant, p in _P.items()}  # (p, eta max)


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
    p = _check_variant(variant, 0.0)
    eta_star = sqrt2_quadratic_root(_QUADRATICS[variant], Fraction(0), 1 - _P[variant])
    params = WeakCFParams(p=p, eta=eta_star)
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
