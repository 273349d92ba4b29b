"""N-party weak dice rolling as a tournament of weak imbalanced coin flips.

Stage 1 pits parties 1 and 2 on a balanced flip; stage k pits the standing
winner against party k+1, who enters with honest winning probability
1/(k+1). Honest parties each win with probability exactly 1/N. With
per-stage biases on the honest party's stage-win probability, the honest
party's maximal losing probability follows from the chain product over the
stages it must win.

`bias_bound_check` is the scalar reference for the eps_bar < N * delta_max
bound. `bound_property_sweep` checks random tournaments of every size
together in one stage-major numpy pass (`_bound_checks`), bit-identical to
the scalar check on each (tournament, party) case.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import inf, isfinite, nextafter
from typing import NamedTuple

import numpy as np

from .errors import InvalidBiasError, ParameterRangeError


@dataclass(frozen=True)
class TournamentSpec:
    """Tournament size and the per-stage honest-party bias values."""

    n_parties: int
    stage_biases: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "stage_biases", tuple(float(b) for b in self.stage_biases))
        if self.n_parties < 2:
            raise ParameterRangeError(f"need at least 2 parties, got {self.n_parties}")
        if len(self.stage_biases) != self.n_parties - 1:
            raise ParameterRangeError(
                f"expected {self.n_parties - 1} stage biases, got {len(self.stage_biases)}"
            )
        if any(b < 0.0 for b in self.stage_biases):
            raise ParameterRangeError("stage biases must be non-negative")
        for k, b in enumerate(self.stage_biases, start=1):
            if not isfinite(b):
                raise InvalidBiasError(f"stage {k} bias {b} is not finite")

    def to_json_dict(self) -> dict:
        return {"n_parties": self.n_parties, "stage_biases": list(self.stage_biases)}


class BoundCheck(NamedTuple):
    eps_bar: float
    bound: float
    holds: bool


def _entry_stage(party: int) -> tuple[int, Fraction]:
    """(stage, honest win probability) of the stage at which the party enters."""
    return max(party - 1, 1), Fraction(1, max(party, 2))


def _defend_win(stage: int) -> Fraction:
    """Honest win probability of the standing winner defending at the stage."""
    return Fraction(stage, stage + 1)


def _party_stages(n_parties: int, party: int) -> list[tuple[int, Fraction]]:
    """(stage index, honest stage-win probability) for every stage the party plays.

    Party n enters at stage max(n-1, 1) with win probability 1/max(n, 2)
    and defends each later stage k with win probability k/(k+1).
    """
    if not 1 <= party <= n_parties:
        raise ParameterRangeError(f"party must lie in [1, {n_parties}], got {party}")
    entry, win = _entry_stage(party)
    return [(entry, win)] + [(k, _defend_win(k)) for k in range(entry + 1, n_parties)]


def _float_floor(win: Fraction) -> tuple[float, float]:
    """(float(win), floor), floor being the largest float <= win.

    For a float delta, `delta > floor` holds exactly when `delta > win` does.
    """
    w = float(win)
    return w, (w if Fraction(w) <= win else nextafter(w, -inf))


@lru_cache(maxsize=4096)
def _stage_table(n_parties: int, party: int) -> tuple[tuple[int, float, float], ...]:
    """(stage index, float(win), floor) for every stage the party plays (see `_float_floor`)."""
    return tuple((k, *_float_floor(win)) for k, win in _party_stages(n_parties, party))


def honest_distribution(n_parties: int) -> list[Fraction]:
    """Each party's honest winning probability as an exact chain product.

    A party wins its entry stage and then defends every later stage, so its
    chain is its entry win times the product of the defend wins after its
    entry stage. One backward pass builds those suffix products; all are
    exact Fractions, O(N) multiplies in all.
    """
    if n_parties < 2:
        raise ParameterRangeError(f"need at least 2 parties, got {n_parties}")
    # suffix[k]: product of the defend wins of stages k .. N-1 (1 past the last stage)
    suffix = [Fraction(1)] * (n_parties + 1)
    for k in range(n_parties - 1, 1, -1):
        suffix[k] = _defend_win(k) * suffix[k + 1]
    probs = []
    for party in range(1, n_parties + 1):
        entry, win = _entry_stage(party)
        probs.append(win * suffix[entry + 1])
    return probs


def max_losing_prob(spec: TournamentSpec, honest_party: int) -> float:
    """The honest party's maximal losing probability against full collusion.

    One minus the product, over the stages the party must win, of its
    honest stage-win probability reduced by that stage's bias. Empty
    products (a party with no stages cannot occur for N >= 2) would be 1.
    """
    survive = 1.0
    for k, win, floor in _stage_table(spec.n_parties, honest_party):
        delta = spec.stage_biases[k - 1]
        if delta > floor:
            raise InvalidBiasError(
                f"stage {k} bias {delta} exceeds honest win probability {win}"
            )
        survive *= win - delta
    return 1.0 - survive


def bias_bound_check(spec: TournamentSpec, honest_party: int) -> BoundCheck:
    """Check eps_bar < N * max(stage bias) for the given honest party.

    eps_bar is the excess of the maximal losing probability over the honest
    value (N-1)/N. With all biases zero both sides vanish and the
    degenerate equality eps_bar = 0 <= 0 counts as holding.
    """
    n = spec.n_parties
    eps_bar = max_losing_prob(spec, honest_party) - (n - 1) / n
    bound = n * max(spec.stage_biases)
    holds = eps_bar < bound if bound > 0.0 else eps_bar <= 0.0
    return BoundCheck(eps_bar=eps_bar, bound=bound, holds=holds)


_TINY = nextafter(0.0, inf)  # the smallest positive float


@lru_cache(maxsize=64)
def _sweep_tables(stages: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only (wins, floor, scale) tables for up to stages + 1 parties.

    The last axis is the tournament size N. wins[0] and wins[1] hold, per
    stage k, the defenders' win k/(k+1) and the entrant's win 1/(k+1),
    floor the entrant's floor (rounded as in `_stage_table`) and scale the
    sweep's 1/(2N), where stage k is played (k < N); past the size the wins
    are 1.0 (so 1.0 - 0.0 is a neutral factor), the floor +inf and the
    scale 0.0.
    """
    wins = np.ones((2, stages, stages + 2))
    floor = np.full((stages, stages + 2), inf)
    scale = np.zeros((stages, stages + 2))
    for k in range(1, stages + 1):
        wins[0, k - 1, k + 1 :] = float(Fraction(k, k + 1))
        wins[1, k - 1, k + 1 :], floor[k - 1, k + 1 :] = _float_floor(Fraction(1, k + 1))
    for n in range(2, stages + 2):
        scale[: n - 1, n] = 1.0 / (2 * n)
    for a in (wins, floor, scale):
        a.setflags(write=False)
    return wins, floor, scale


def _bound_checks(sizes: np.ndarray, biases: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`bias_bound_check` for every (tournament, party) pair of mixed-size tournaments in one pass.

    biases is stage-major, shape (S, tournaments): column i holds
    tournament i's sizes[i] - 1 stage biases, padded with 0.0 to S. eps_bar
    and holds have shape (tournaments, S + 1), column j for party j + 1,
    and bound has one entry per tournament. holds is False for the padded
    parties past each size; for the others every value is bit-identical to
    the scalar check.

    Each party's survive row starts at its entry factor: 1/2 - b_1 for
    parties 1 and 2, 1/(k+1) - b_k for party k + 1. At each stage k >= 2
    the k parties already in play multiply their rows by k/(k+1) - b_k.
    That is the scalar fold, left to right from 1.0, and padded stages
    contribute the exact factor 1.0 - 0.0. A stage's lowest floor is its
    entrant's, so one compare finds every invalid bias; the first offending
    tournament is then rerun through the scalar `max_losing_prob`, which
    raises its own InvalidBiasError.
    """
    stages = biases.shape[0]
    wins, floor, _ = _sweep_tables(stages)
    over = biases > np.take(floor, sizes, axis=1)
    if over.any():
        i = int(over.any(axis=0).argmax())
        n = int(sizes[i])
        spec = TournamentSpec(n, biases[: n - 1, i].tolist())
        for party in range(1, n + 1):  # at an offending stage k, party k + 1 raises
            max_losing_prob(spec, party)
    factors = np.take(wins, sizes, axis=2)
    factors -= biases
    defend, entrant = factors
    survive = np.concatenate((entrant[:1], entrant))
    for k in range(2, stages + 1):
        survive[:k] *= defend[k - 1]
    eps_bar = np.subtract(1.0, survive, out=survive)
    eps_bar -= (sizes - 1) / sizes
    bound = sizes * biases.max(axis=0)
    # eps_bar <= 0.0 is eps_bar < the smallest positive float, so one compare covers both rules
    holds = eps_bar < np.where(bound > 0.0, bound, _TINY)
    holds &= np.arange(stages + 1)[:, None] < sizes
    return eps_bar.T, bound, holds.T


def bound_property_sweep(count: int, seed: int | np.random.Generator, max_parties: int = 10) -> float:
    """Fraction of (random tournament, honest party) cases satisfying the bound.

    Draws `count` tournaments in two Generator calls: the sizes
    `rng.integers(2, max_parties + 1, size=count)`, then one
    `rng.random((count, max_parties - 1))` block, whose row i gives
    tournament i its stage biases, the first N - 1 entries times 1/(2N). A
    Generator passed in ends in the state those two draws leave. The block
    is scaled and transposed to stage-major in one step, and all sizes are
    checked together in one `_bound_checks` pass, which tests pin bit for
    bit to `bias_bound_check`.
    """
    if count < 1:
        raise ParameterRangeError(f"count must be >= 1, got {count}")
    if max_parties < 2:
        raise ParameterRangeError(f"max_parties must be >= 2, got {max_parties}")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    sizes = rng.integers(2, max_parties + 1, size=count)
    block = rng.random((count, max_parties - 1))
    scale = np.take(_sweep_tables(max_parties - 1)[2], sizes, axis=1)
    holds = _bound_checks(sizes, np.multiply(block.T, scale, order="C"))[2]
    return int(np.count_nonzero(holds)) / int(sizes.sum())
