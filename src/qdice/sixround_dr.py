"""Six-round weak three-sided dice rolling built from two weak CF stages.

Stage 1: Alice and Bob flip a balanced weak coin at its fair point, where
an honest player survives with probability 1 - 1/sqrt(2). Stage 2: the
winner and Claire flip an imbalanced weak coin giving Claire a 1/3 honest
share. Two implementations exist, differing in who prepares the stage-2
state: the winner (case 1, Claire's honest share is p = 1/3) or Claire
(case 2, p = 2/3). Each case fixes its slack eta by requiring all three
maximal losing probabilities to coincide. Cleared of denominators, that
condition is a quadratic in eta with coefficients in Q(sqrt2), so eta is
its exact root, certified by a numeric route that never uses the closed
form.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, lcm, sqrt
from typing import Callable

from .errors import CrossCheckError, ParameterRangeError
from .optimize import maximize_unimodal
from .weak_cf import WeakCFParams, _objective, _objective_coeffs, alice_opt_cheat

INV_SQRT2 = 1.0 / sqrt(2.0)
HONEST_LOSS = 2.0 / 3.0

_P = {"case1": Fraction(1, 3), "case2": Fraction(2, 3)}  # stage-2 p; eta lies in [0, 1 - p]
_CERTIFY_STEP = 1e-12  # the numeric residual must change sign across eta* -/+ this


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
    if variant not in _P:
        raise ParameterRangeError(f"variant must be case1 or case2, got {variant!r}")
    eta_max = float(1 - _P[variant])
    if not 0.0 <= eta <= eta_max:
        raise ParameterRangeError(f"{variant} requires eta in [0, {eta_max:.4g}], got {eta}")


def _stage2(
    variant: str, eta: float, preparer_cheat: Callable[[WeakCFParams], float]
) -> tuple[float, float]:
    """(Pi_1/3, Pi_2/3) with the preparer's maximal win from `preparer_cheat`."""
    _check_variant(variant, eta)
    p = float(_P[variant])
    pair = (preparer_cheat(WeakCFParams(p=p, eta=eta)), p + eta)
    # case1: the winner prepares and Claire holds the p = 1/3 role;
    # case2: Claire prepares, so the winner holds p = 2/3
    return pair if variant == "case1" else pair[::-1]


def stage2_losing_probs(variant: str, eta: float) -> tuple[float, float]:
    """Stage-2 maximal losing probabilities (for the 1/3 party, the 2/3 party).

    Each is read off the three-round weak CF analysis under the variant's
    role assignment: the preparer's opponent cheats via the preparation
    attack (delta-maximization), the preparer cheats by always claiming a
    win (p + eta).
    """
    return _stage2(variant, eta, lambda params: alice_opt_cheat(params).p_alice_star)


def _fairness_sides(pi_13: float, pi_23: float) -> tuple[float, float]:
    """(Pi_1/3, 1/sqrt2 + (1-1/sqrt2) Pi_2/3): Claire's and Alice's (= Bob's) maximal loss."""
    return pi_13, INV_SQRT2 + (1.0 - INV_SQRT2) * pi_23


def losing_probs_at(variant: str, eta: float) -> tuple[float, float, float]:
    """(Alice, Bob, Claire) maximal losing probabilities at the given eta.

    Alice and Bob lose either at stage 1 (probability 1/sqrt(2) against a
    cheating coalition) or by surviving and losing stage 2 as the 2/3
    party; Claire's exposure is entirely the stage-2 flip as the 1/3 party.
    """
    p_c, p_ab = _fairness_sides(*stage2_losing_probs(variant, eta))
    return p_ab, p_ab, p_c


def fairness_lhs_rhs(variant: str, eta: float) -> tuple[float, float]:
    """Both sides of the fairness constraint Pi_1/3 = 1/sqrt2 + (1-1/sqrt2) Pi_2/3."""
    return _fairness_sides(*stage2_losing_probs(variant, eta))


def _grid_cheat(params: WeakCFParams) -> float:
    """The preparer's maximal win as the numeric maximum of the raw objective (no A + B)."""
    a, b = _objective_coeffs(params)
    return maximize_unimodal(lambda d: _objective(a, b, d), 0.0, 1.0)[1]


def _numeric_residual(variant: str, eta: float) -> float:
    """The fairness residual lhs - rhs with the preparer's cheat from `_grid_cheat`."""
    lhs, rhs = _fairness_sides(*_stage2(variant, eta, _grid_cheat))
    return lhs - rhs


# ---------------------------------------------------------------------------
# Exact root: the fairness equation as a quadratic over Q(sqrt 2)
# ---------------------------------------------------------------------------

_SCALE = 1 << 128  # fixed-point scale of the enclosures: about 2.9e-39
_SQRT2 = (isqrt(2 * _SCALE * _SCALE), isqrt(2 * _SCALE * _SCALE) + 1)  # bound sqrt(2) * _SCALE


def _quadratic(variant: str) -> list[tuple[int, int]]:
    """Integer (x, y) = x + y sqrt2 for a2, a1, a0 of a2 u^2 + a1 u + a0 = 0, u = p + eta.

    With c = 1/sqrt2 = sqrt2/2, Alice's closed-form cheat times
    (1-p)(p+eta) is p^2 + (1-2p) u, so multiplying the fairness equation
    by (1-p)(p+eta) gives
      case1: p^2 + (1-2p) u = (1-p) u (c + (1-c) u)
      case2: (1-p) u^2 = c (1-p) u + (1-c) (p^2 + (1-2p) u)
    The rational parts are then scaled to integers.
    """
    p = _P[variant]
    k, m = 1 - p, 1 - 2 * p
    if variant == "case1":
        coeffs = [(-k, k / 2), (m, -k / 2), (p * p, Fraction(0))]
    else:
        coeffs = [(k, Fraction(0)), (-m, (m - k) / 2), (-p * p, p * p / 2)]
    scale = lcm(*(q.denominator for pair in coeffs for q in pair))
    return [(int(x * scale), int(y * scale)) for x, y in coeffs]


_QUADRATICS = {variant: _quadratic(variant) for variant in _P}


def _scaled(x: int, y: int) -> tuple[int, int]:
    """Integers below and above (x + y sqrt2) * _SCALE."""
    lo, hi = x * _SCALE + y * _SQRT2[0], x * _SCALE + y * _SQRT2[1]
    return (lo, hi) if y >= 0 else (hi, lo)


def _root_enclosures(variant: str) -> list[tuple[Fraction, Fraction]]:
    """Rational enclosures of both roots eta of the cleared fairness equation.

    The discriminant is exact in Z[sqrt2]; sqrt2 and the square root of the
    discriminant are bounded with `math.isqrt` at scale 2**128, so each
    interval (about 1e-38 wide) holds its exact root.
    """
    _check_variant(variant, 0.0)
    (x2, y2), (x1, y1), (x0, y0) = _QUADRATICS[variant]
    # a1^2 - 4 a2 a0, exact in Z[sqrt2]
    disc = _scaled(
        x1 * x1 + 2 * y1 * y1 - 4 * (x2 * x0 + 2 * y2 * y0), 2 * x1 * y1 - 4 * (x2 * y0 + x0 * y2)
    )
    den = _scaled(2 * x2, 2 * y2)
    if disc[0] <= 0 or den[0] <= 0 <= den[1]:
        raise CrossCheckError(f"{variant}: the fairness quadratic has no two separated real roots")
    r = (isqrt(disc[0] * _SCALE), isqrt(disc[1] * _SCALE) + 1)  # bound sqrt(disc) * _SCALE
    b = _scaled(-x1, -y1)
    p = _P[variant]
    roots = []
    for num in ((b[0] + r[0], b[1] + r[1]), (b[0] - r[1], b[1] - r[0])):
        quotients = [Fraction(n, d) for n in num for d in den]
        roots.append((min(quotients) - p, max(quotients) - p))
    return roots


def _exact_root(variant: str) -> float:
    """The feasible root eta* of the fairness equation, correctly rounded.

    Exactly one root must lie in [0, 1 - p] and the other outside it, and
    both ends of its enclosure must round to the same float; otherwise
    CrossCheckError.
    """
    roots = _root_enclosures(variant)
    eta_max = 1 - _P[variant]
    inside = [(lo, hi) for lo, hi in roots if 0 <= lo and hi <= eta_max]
    outside = [(lo, hi) for lo, hi in roots if hi < 0 or lo > eta_max]
    if len(inside) != 1 or len(outside) != 1:
        raise CrossCheckError(f"{variant}: expected one root in [0, {eta_max}] and one outside")
    lo, hi = inside[0]
    if float(lo) != float(hi):
        raise CrossCheckError(
            f"{variant}: root enclosure [{float(lo)!r}, {float(hi)!r}] spans a rounding boundary"
        )
    return float(lo)


def solve(variant: str) -> SixRoundSolution:
    """Fix eta by the fairness constraint and report the resulting bias.

    eta* is the exact root of the fairness equation, correctly rounded
    (`_exact_root`). A second route that never uses the closed form A + B
    certifies it: the fairness residual, with the preparer's cheat taken
    from `maximize_unimodal` on the raw objective, must have opposite
    signs at eta* - 1e-12 and eta* + 1e-12, else CrossCheckError. The
    losing probabilities and the residual at eta* come from one
    `losing_probs_at` call, which runs `alice_opt_cheat`'s own cross-check.
    That is three grid maximizations per call and no bisection.
    """
    eta_star = _exact_root(variant)
    below = _numeric_residual(variant, eta_star - _CERTIFY_STEP)
    above = _numeric_residual(variant, eta_star + _CERTIFY_STEP)
    if not below * above < 0.0:  # fails closed on NaN
        raise CrossCheckError(
            f"{variant}: numeric fairness residual {below!r} at eta* - {_CERTIFY_STEP} and "
            f"{above!r} at eta* + {_CERTIFY_STEP} do not bracket eta* = {eta_star!r}"
        )
    p_ab, _, p_bar = losing_probs_at(variant, eta_star)
    return SixRoundSolution(
        variant=variant,
        eta_star=eta_star,
        p_bar_star=p_bar,
        bias=p_bar - HONEST_LOSS,
        constraint_residual=p_bar - p_ab,
    )
