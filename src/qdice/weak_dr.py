"""N-party weak dice rolling as a tournament of weak imbalanced coin flips.

Stage 1 pits parties 1 and 2 on a balanced flip; stage k pits the standing
winner against party k+1, who enters with honest winning probability
1/(k+1). Honest parties each win with probability exactly 1/N. With
per-stage biases on the honest party's stage-win probability, the honest
party's maximal losing probability follows from the chain product over the
stages it must win.
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
class IdealWCFPrimitive:
    """An ideal weak imbalanced coin flip with declared bias.

    The first party wins honestly with probability z; a dishonest opponent
    can raise either party's losing probability by at most eps_bar. Stands
    in for arbitrarily-small-bias weak CF constructions, whose internals
    are out of scope here.
    """

    z: float
    eps_bar: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.z <= 1.0:
            raise ParameterRangeError(f"z must lie in [0, 1], got {self.z}")
        if not 0.0 <= self.eps_bar <= min(self.z, 1.0 - self.z) + 1e-12:
            raise ParameterRangeError(
                f"eps_bar must lie in [0, min(z, 1-z)], got {self.eps_bar}"
            )

    def sample_first_wins(self, rng: np.random.Generator) -> bool:
        """Honest execution: first party wins with probability z."""
        return bool(rng.random() < self.z)

    def max_losing(self, first_party: bool) -> float:
        """Worst-case losing probability for the named honest party."""
        honest_win = self.z if first_party else 1.0 - self.z
        return 1.0 - honest_win + self.eps_bar


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


def _party_stages(n_parties: int, party: int) -> list[tuple[int, Fraction]]:
    """(stage index, honest stage-win probability) for every stage the party plays.

    Party n enters at stage max(n-1, 1) with win probability 1/max(n, 2)
    and defends each later stage k with win probability k/(k+1).
    """
    if not 1 <= party <= n_parties:
        raise ParameterRangeError(f"party must lie in [1, {n_parties}], got {party}")
    entry = max(party - 1, 1)
    stages = [(entry, Fraction(1, max(party, 2)))]
    for k in range(entry + 1, n_parties):
        stages.append((k, Fraction(k, k + 1)))
    return stages


@lru_cache(maxsize=4096)
def _stage_table(n_parties: int, party: int) -> tuple[tuple[int, float, float], ...]:
    """(stage index, float(win), floor) for every stage the party plays.

    floor is the largest float <= the exact win probability, so for a float
    delta, `delta > floor` holds exactly when `delta > win` does.
    """
    table = []
    for k, win in _party_stages(n_parties, party):
        w = float(win)
        table.append((k, w, w if Fraction(w) <= win else nextafter(w, -inf)))
    return tuple(table)


def honest_distribution(n_parties: int) -> list[Fraction]:
    """Each party's honest winning probability as an exact chain product."""
    if n_parties < 2:
        raise ParameterRangeError(f"need at least 2 parties, got {n_parties}")
    probs = []
    for party in range(1, n_parties + 1):
        total = Fraction(1)
        for _, win in _party_stages(n_parties, party):
            total *= win
        probs.append(total)
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


def random_tournament(rng: np.random.Generator, max_parties: int = 10) -> TournamentSpec:
    """A random instance with N <= max_parties and stage biases below 1/(2N)."""
    if max_parties < 2:
        raise ParameterRangeError(f"max_parties must be >= 2, got {max_parties}")
    n = int(rng.integers(2, max_parties + 1))
    return TournamentSpec(n, rng.uniform(0.0, 1.0 / (2 * n), size=n - 1).tolist())


@lru_cache(maxsize=256)
def _stage_matrices(n_parties: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Party x stage arrays (plays, win, floor) from `_stage_table`.

    Off the party's stages, win is 1.0 (a neutral factor) and floor is +inf
    (no bias can exceed it). The arrays are read-only.
    """
    plays = np.zeros((n_parties, n_parties - 1), dtype=bool)
    win = np.ones((n_parties, n_parties - 1))
    floor = np.full((n_parties, n_parties - 1), inf)
    for party in range(1, n_parties + 1):
        for k, w, f in _stage_table(n_parties, party):
            plays[party - 1, k - 1] = True
            win[party - 1, k - 1] = w
            floor[party - 1, k - 1] = f
    for a in (plays, win, floor):
        a.setflags(write=False)
    return plays, win, floor


def _bound_checks(n_parties: int, biases: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`bias_bound_check` for every (tournament, party) pair of one size at once.

    biases has one row of N-1 stage biases per tournament; the results
    (eps_bar, bound, holds) have shape (tournaments, N), column j for party
    j+1. Each value is bit-identical to the scalar check: the survive
    product runs over the stages left to right from 1.0, with factor 1.0
    off the party's stages. A bias above a stage's floor raises the
    InvalidBiasError the scalar path raises first, in (tournament, party,
    stage) order.
    """
    plays, win, floor = _stage_matrices(n_parties)
    over = biases[:, None, :] > floor
    if over.any():
        i, j, k = np.argwhere(over)[0]
        delta, w = float(biases[i, k]), float(win[j, k])
        raise InvalidBiasError(f"stage {k + 1} bias {delta} exceeds honest win probability {w}")
    survive = np.ones((biases.shape[0], n_parties))
    for k in range(n_parties - 1):
        survive *= np.where(plays[:, k], win[:, k] - biases[:, k, None], 1.0)
    eps_bar = (1.0 - survive) - (n_parties - 1) / n_parties
    bound = n_parties * biases.max(axis=1, keepdims=True)
    holds = np.where(bound > 0.0, eps_bar < bound, eps_bar <= 0.0)
    return eps_bar, np.broadcast_to(bound, eps_bar.shape), holds


def _draw_batches(rng: np.random.Generator, count: int, max_parties: int) -> dict[int, np.ndarray]:
    """count random tournaments from two draws, as N -> stage-bias rows in draw order.

    The sizes are `rng.integers(2, max_parties + 1, size=count)`, then one
    `rng.random((count, max_parties - 1))` block gives each row its stage
    biases: the first N - 1 entries, times 1/(2N).
    """
    if max_parties < 2:
        raise ParameterRangeError(f"max_parties must be >= 2, got {max_parties}")
    sizes = rng.integers(2, max_parties + 1, size=count)
    block = rng.random((count, max_parties - 1))
    batches = {}
    for n in range(2, max_parties + 1):
        rows = block[sizes == n, : n - 1]
        if len(rows):
            batches[n] = rows * (1.0 / (2 * n))
    return batches


def bound_property_sweep(count: int, seed: int | np.random.Generator, max_parties: int = 10) -> float:
    """Fraction of (random tournament, honest party) cases satisfying the bound.

    Draws `count` tournaments with 2 <= N <= max_parties and stage biases
    uniform below 1/(2N) in two Generator calls (see `_draw_batches`), so
    a Generator passed in ends in the state those two draws leave. Each
    tournament size is checked in one `_bound_checks` pass, which tests pin
    bit for bit to `bias_bound_check`.
    """
    if count < 1:
        raise ParameterRangeError(f"count must be >= 1, got {count}")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    ok = total = 0
    for n, biases in _draw_batches(rng, count, max_parties).items():
        holds = _bound_checks(n, biases)[2]
        ok += int(holds.sum())
        total += holds.size
    return ok / total
