"""N-party weak dice rolling as a tournament of weak imbalanced coin flips.

Stage 1 pits parties 1 and 2 on a balanced flip; stage k pits the standing
winner against party k+1, who enters with honest winning probability
1/(k+1). Honest parties each win with probability exactly 1/N. With
per-stage biases on the honest party's stage-win probability, the honest
party's maximal losing probability follows from the chain product over the
stages it must win.

`bias_bound_check` checks the eps_bar < N * delta_max bound for one
tournament and party, on the float chain where its rounding cannot change
the verdict and in exact Fractions where it could. `bound_property_sweep`
decides it for every bias vector at once: each stage factor w_k - delta_k
falls as its bias grows, so at a given delta_max the corner where every
stage has bias delta_max is the worst case. There the survival P(delta) =
prod(w_k - delta) is convex, so
eps_bar / delta_max = (P(0) - P(delta)) / delta is largest as delta -> 0,
where it tends to -P'(0) = (1/N) * sum of 1/w_k over the party's stages
(prod w_k = 1/N). That rational constant is computed exactly.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, isfinite, lcm, prod
from typing import NamedTuple

from .errors import ParameterRangeError

_UNIT_ROUNDOFF = 2.0**-53  # u: a correctly rounded float op errs by at most u relative
# Largest tournament, refused before anything sized by N is built: `qdice
# weak-dr --n` at the cap takes about 0.5 s, peaks at about 39 MB and writes
# 0.9 MB, nearly all of it the echoed stage biases.
MAX_PARTIES = 10**5


def _check_parties(n_parties: int) -> None:
    """Raise ParameterRangeError unless 2 <= n_parties <= MAX_PARTIES."""
    if n_parties < 2:
        raise ParameterRangeError(f"need at least 2 parties, got {n_parties}")
    if n_parties > MAX_PARTIES:
        raise ParameterRangeError(f"need at most {MAX_PARTIES} parties, got {n_parties}")


def _exceeds(delta: float, win: float, num: int, den: int) -> bool:
    """delta > num/den exactly, for win = fl(num/den).

    fl(num/den) is the float nearest num/den, so a float delta on either
    side of it is on the same side of num/den; only delta == win needs the
    exact comparison.
    """
    return delta > win or (delta == win and Fraction(delta) > Fraction(num, den))


@dataclass(frozen=True)
class TournamentSpec:
    """Tournament size and the per-stage honest-party bias values.

    The float stage chain that every party's checks read is built here,
    once per tournament: `_factors[k - 1]` is fl(fl(k/(k+1)) - delta_k),
    stage k's factor for a party defending it, `_over` lists in stage
    order the stages k whose bias exceeds k/(k+1), and `_delta_max` is the
    largest bias.
    """

    n_parties: int
    stage_biases: tuple[float, ...]
    _factors: list[float] = field(init=False, repr=False, compare=False)
    _over: list[int] = field(init=False, repr=False, compare=False)
    _delta_max: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_parties(self.n_parties)
        biases = [float(b) for b in self.stage_biases]
        if len(biases) != self.n_parties - 1:
            raise ParameterRangeError(f"expected {self.n_parties - 1} stage biases, got {len(biases)}")
        if any(b < 0.0 for b in biases):
            raise ParameterRangeError("stage biases must be non-negative")
        factors, over = [], []
        for k, b in enumerate(biases, start=1):
            if not isfinite(b):
                raise ParameterRangeError(f"stage {k} bias {b} is not finite")
            win = k / (k + 1)  # int / int is correctly rounded
            factors.append(win - b)
            if b >= win and _exceeds(b, win, k, k + 1):
                over.append(k)
        # one dict update sets the frozen fields; the tuple is built from a
        # list, as tuple() of a generator shrinks its result, parking a tuple
        # on CPython's free lists
        self.__dict__.update(
            stage_biases=tuple(biases), _factors=factors, _over=over, _delta_max=max(biases)
        )


class BoundCheck(NamedTuple):
    eps_bar: float
    bound: float
    holds: bool


def _entry_stage(party: int) -> int:
    """The stage at which the party enters, max(party - 1, 1). It wins its
    entry stage with honest probability 1/(stage + 1), and defends each later
    stage k with k/(k + 1)."""
    return party - 1 if party > 2 else 1  # a conditional costs less than max() here


def honest_distribution(n_parties: int) -> list[Fraction]:
    """Each party's honest winning probability as an exact chain product.

    A party wins its entry stage and then defends every later stage, so its
    chain is its entry win times the product of the defend wins after its
    entry stage. One backward pass over the parties extends that suffix
    product by one defend win k/(k+1) at a time, kept as an integer pair
    (num, den) reduced by its gcd at every step (unreduced, it would grow
    like N!). Each party's pair is reduced once more, and one Fraction is
    built per distinct reduced pair, so equal probabilities share one
    object. Raises ParameterRangeError unless 2 <= n_parties <= MAX_PARTIES.
    """
    _check_parties(n_parties)
    exact: dict[tuple[int, int], Fraction] = {}
    probs = []
    num = den = 1  # defend wins of the stages after the current party's entry stage
    for party in range(n_parties, 0, -1):
        entry_den = den * (_entry_stage(party) + 1)
        g = gcd(num, entry_den)
        key = (num // g, entry_den // g)
        prob = exact.get(key)
        if prob is None:
            prob = exact[key] = Fraction(*key)
        probs.append(prob)
        if party > 2:  # party - 1 also defends stage party - 1, won with (party - 1)/party
            num *= party - 1
            den *= party
            g = gcd(num, den)
            num, den = num // g, den // g
    probs.reverse()
    return probs


def max_losing_prob(spec: TournamentSpec, honest_party: int) -> float:
    """The honest party's maximal losing probability against full collusion.

    One minus the product, over the stages the party must win, of its
    honest stage-win probability reduced by that stage's bias: its entry
    factor fl(1/den) - delta, times the spec's shared defend factors of the
    later stages, left to right. A bias above its stage's exact win
    probability raises ParameterRangeError, naming the party's first such stage.
    """
    if not 1 <= honest_party <= spec.n_parties:
        raise ParameterRangeError(f"party must lie in [1, {spec.n_parties}], got {honest_party}")
    entry = _entry_stage(honest_party)
    den = entry + 1
    delta, win = spec.stage_biases[entry - 1], 1 / den
    if delta >= win and _exceeds(delta, win, 1, den):
        raise ParameterRangeError(f"stage {entry} bias {delta} exceeds honest win probability {win}")
    over = spec._over
    if over and over[-1] > entry:
        k = over[bisect_right(over, entry)]
        raise ParameterRangeError(
            f"stage {k} bias {spec.stage_biases[k - 1]} exceeds honest win probability {k / (k + 1)}"
        )
    return 1.0 - prod(spec._factors[entry:], start=win - delta)


def bias_bound_check(spec: TournamentSpec, honest_party: int) -> BoundCheck:
    """The `BoundCheck` half of `checked_losing_prob`: eps_bar < N * max(stage bias)."""
    return checked_losing_prob(spec, honest_party)[1]


def checked_losing_prob(spec: TournamentSpec, honest_party: int) -> tuple[float, BoundCheck]:
    """(maximal losing probability, check of eps_bar < N * max(stage bias)).

    eps_bar is the excess of the maximal losing probability over the honest
    value (N-1)/N. With all biases zero the chain is the honest one, so
    eps_bar is exactly 0 (whatever the float chain rounds to) and the
    degenerate equality eps_bar = 0 = bound counts as holding.

    Otherwise the float chain of `max_losing_prob` is a filter. Let u =
    2**-53 and s the number of stages the party plays. Each float win is
    within u of w_k, so each float factor fl(fl(w_k) - delta_k), in [0, 1],
    is within 2u of w_k - delta_k, and the product of the float factors is
    within 2su of the survival (prod a_k - prod b_k <= sum |a_k - b_k| on
    [0, 1]). The s - 1 rounded multiplies add at most (s - 1)u, and
    1 - survival, (N-1)/N and their difference at most u each: the float
    eps_bar is within (3s + 2)u of the exact one. The float bound is within
    u * bound of N * delta_max. So when the two floats lie more than
    (3s + 6)u + 2u * bound apart (the excess covers the rounding of this
    test) the float verdict is the exact one, and the float values stand.
    Else the chain is recomputed in Fractions from the same float biases,
    which are exact rationals: eps_bar is the correctly rounded exact value
    and the verdict is the exact eps_bar < N * delta_max.

    The losing probability is consistent with eps_bar: where eps_bar is
    exact (all biases zero, or the exact branch) it is (N-1)/N + eps_bar,
    correctly rounded; elsewhere it is the float chain of
    `max_losing_prob`, whose excess over the float (N-1)/N is the float
    eps_bar.
    """
    n = spec.n_parties
    losing = max_losing_prob(spec, honest_party)
    eps_bar = losing - (n - 1) / n
    delta_max = spec._delta_max
    bound = n * delta_max
    if bound == 0.0:
        # int / int is correctly rounded
        return (n - 1) / n, BoundCheck(eps_bar=0.0, bound=0.0, holds=True)
    stages = n - _entry_stage(honest_party)
    if abs(eps_bar - bound) > (3 * stages + 6 + 2 * bound) * _UNIT_ROUNDOFF:
        return losing, BoundCheck(eps_bar=eps_bar, bound=bound, holds=eps_bar < bound)
    exact = _exact_eps_bar(spec, honest_party)
    return float(Fraction(n - 1, n) + exact), BoundCheck(
        eps_bar=float(exact), bound=bound, holds=exact < n * Fraction(delta_max)
    )


def _exact_eps_bar(spec: TournamentSpec, honest_party: int) -> Fraction:
    """eps_bar in Fractions: 1/N minus the survival chain, each float bias read
    exactly, for a party that `max_losing_prob` has checked."""
    entry = _entry_stage(honest_party)
    survive = Fraction(1, entry + 1) - Fraction(spec.stage_biases[entry - 1])
    for k in range(entry + 1, spec.n_parties):
        survive *= Fraction(k, k + 1) - Fraction(spec.stage_biases[k - 1])
    return Fraction(1, spec.n_parties) - survive


def _harmonic_table(max_parties: int) -> tuple[int, list[int]]:
    """(L, harmonic): L = lcm(1..max_parties-1) and harmonic[m] = L * H_m for m = 0..max_parties-1.

    Every H_m with m < max_parties is an integer on the scale L, so one
    table serves every tournament of up to max_parties parties.
    """
    scale = lcm(*range(1, max_parties))
    harmonic = [0]
    for k in range(1, max_parties):
        harmonic.append(harmonic[-1] + scale // k)
    return scale, harmonic


def _worst_case_constants(n_parties: int, table: tuple[int, list[int]]) -> tuple[int, list[int]]:
    """(denominator, numerators): the worst-case constant of party p is numerators[p - 1] / denominator.

    The constant is the supremum of eps_bar / delta_max over every valid
    bias vector, (1/N) * sum of 1/w_k over the party's stages. The entry
    stage adds 1/w = max(p, 2) and each defended stage k adds (k + 1)/k =
    1 + 1/k, so the sum is N + H_{N-1} - H_entry. The constants are read
    off `table`, a `_harmonic_table` of at least n_parties parties: on its
    scale L every harmonic number is an integer, so every party's constant
    is exact over the denominator N * L, with no float and no Fraction.
    """
    scale, harmonic = table
    top = n_parties * scale + harmonic[n_parties - 1]
    entered = [top - h for h in harmonic[1:n_parties]]  # parties 2..N enter at stage party - 1
    return n_parties * scale, [entered[0], *entered]  # party 1 enters at stage 1, as party 2 does


def bound_property_sweep(max_parties: int = 10) -> float:
    """Share of the (N, party) pairs, N = 2..max_parties, for which the bound holds for every bias.

    eps_bar < N * delta_max holds for every valid bias vector of (N, party)
    exactly when its worst-case constant (`_worst_case_constants`) is < N,
    which is decided in integers. Every N reads its constants off one
    `_harmonic_table(max_parties)`.
    """
    if max_parties < 2:
        raise ParameterRangeError(f"max_parties must be >= 2, got {max_parties}")
    table = _harmonic_table(max_parties)
    held = total = 0
    for n in range(2, max_parties + 1):
        denominator, numerators = _worst_case_constants(n, table)
        limit = n * denominator
        held += sum(num < limit for num in numerators)
        total += n
    return held / total
