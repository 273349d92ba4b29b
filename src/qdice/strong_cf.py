"""Strong imbalanced coin flipping that meets the Kitaev product bound.

Protocol: Alice flips a private coin (0 with probability q) and announces
the result o; the parties run a weak imbalanced CF with Alice's honest
winning probability z_o; if Alice wins the outcome is o, otherwise Bob
flips a final coin biased toward o (probability p_o). Five free parameters
allow any target outcome distribution (P0, 1-P0), and the closed-form
solution drives every cheating probability to sqrt(P_i) exactly, so the
product P_A* P_B* equals the honest probability: the bound is saturated.

Every quantity here is a closed form in plain floats. The weak CF inside
is an ideal primitive, known only by its honest share z_i and bias eps_i.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

from .errors import DegenerateProtocolError, ParameterRangeError


@dataclass(frozen=True)
class StrongCFParams:
    """First-coin probability q, weak-CF shares z0/z1, final-coin biases
    pp0/pp1, and the weak-CF biases eps0/eps1."""

    q: float
    z0: float
    z1: float
    pp0: float
    pp1: float
    eps0: float = 0.0
    eps1: float = 0.0

    def __post_init__(self):
        for name in ("q", "z0", "z1", "pp0", "pp1"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ParameterRangeError(f"{name} must lie in [0, 1], got {v}")
        # a weak CF with honest share z_i can raise a losing probability by at
        # most min(z_i, 1 - z_i): eps_i <= min(z_i, 1 - z_i), with 1e-12 slack
        for i, z, eps in ((0, self.z0, self.eps0), (1, self.z1, self.eps1)):
            if not 0.0 <= eps <= min(z, 1.0 - z) + 1e-12:  # fails closed on NaN
                raise ParameterRangeError(
                    f"eps{i} must lie in [0, min(z{i}, 1-z{i})] = [0, {min(z, 1.0 - z)}], got {eps}"
                )

    @property
    def p0_honest(self) -> float:
        return honest_prob(self)


@dataclass(frozen=True)
class StrongCheatReport:
    """Maximal forcing probabilities per party and outcome.

    pa*/qa* are Alice's two strategies (announce the target's branch vs
    announce the other); pb* is Bob's single strategy per outcome. The
    Kitaev products use Alice's better strategy.
    """

    pa0: float
    qa0: float
    pa1: float
    qa1: float
    pb0: float
    pb1: float
    honest_p0: float

    @property
    def alice_force_0(self) -> float:
        return max(self.pa0, self.qa0)

    @property
    def alice_force_1(self) -> float:
        return max(self.pa1, self.qa1)

    @property
    def kitaev_products(self) -> tuple[float, float]:
        return (self.alice_force_0 * self.pb0, self.alice_force_1 * self.pb1)


def solve_params(p0_honest: float, eps0: float = 0.0, eps1: float = 0.0) -> StrongCFParams:
    """Closed-form parameters hitting the target honest distribution.

    q = (1 + sqrt(P0) - sqrt(P1))/2, p_i = 1 - sqrt(P_{1-i}), and
    z_i = 1 + (sqrt(P_i) - 1)/sqrt(P_{1-i}): the unique assignment under
    which every cheating probability collapses to sqrt(P_i).
    """
    if not 0.0 < p0_honest < 1.0:
        raise DegenerateProtocolError(
            f"honest probability must lie strictly inside (0, 1), got {p0_honest}"
        )
    s0, s1 = sqrt(p0_honest), sqrt(1.0 - p0_honest)
    return StrongCFParams(
        q=(1.0 + s0 - s1) / 2.0,
        z0=1.0 + (s0 - 1.0) / s1,
        z1=1.0 + (s1 - 1.0) / s0,
        pp0=1.0 - s1,
        pp1=1.0 - s0,
        eps0=eps0,
        eps1=eps1,
    )


def honest_prob(params: StrongCFParams) -> float:
    """Probability of outcome 0 when both parties are honest."""
    return (
        params.q * (params.z0 + (1.0 - params.z0) * params.pp0)
        + (1.0 - params.q) * (1.0 - params.z1) * (1.0 - params.pp1)
    )


def cheat_probs(params: StrongCFParams) -> StrongCheatReport:
    """All six maximal forcing probabilities.

    Alice forcing outcome i can announce o = i and cheat the weak flip
    (winning probability z_i + eps_i, with the final coin as fallback), or
    announce o = 1-i and lose deliberately, leaving Bob's final coin at
    1 - p_{1-i}. Bob forcing i wins whenever Alice's announcement matches,
    and otherwise cheats the weak flip and flips his own coin.
    """
    q, z0, z1, p0, p1 = params.q, params.z0, params.z1, params.pp0, params.pp1
    e0, e1 = params.eps0, params.eps1
    return StrongCheatReport(
        pa0=z0 + e0 + (1.0 - z0 - e0) * p0,
        qa0=1.0 - p1,
        pa1=z1 + e1 + (1.0 - z1 - e1) * p1,
        qa1=1.0 - p0,
        pb0=q + (1.0 - q) * (1.0 - z1 + e1),
        pb1=1.0 - q + q * (1.0 - z0 + e0),
        honest_p0=honest_prob(params),
    )
