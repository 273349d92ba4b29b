"""Checkers for the product bounds that constrain forcing probabilities.

Two-party form: P_A(i)* P_B(i)* >= P_i. Multi-party form over M parties
and N outcomes: the product of all parties' forcing probabilities for any
outcome is at least 1/N, which for a bias-symmetric protocol means each is
at least (1/N)^(1/M).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from itertools import chain
from math import exp, isnan, log, prod

from .errors import DimensionMismatchError, ParameterRangeError

RATIONAL_TOL = 1e-12  # reports fed by exact arithmetic


def _in_unit_interval(xs: tuple[float, ...]) -> bool:
    """All of xs in [0, 1] (true for none), a NaN failing: min and max alone
    miss a NaN that is not first, but the sum is NaN when any entry is."""
    return not xs or (0.0 <= min(xs) and max(xs) <= 1.0 and not isnan(sum(xs)))


@dataclass(frozen=True)
class BiasReport:
    """Per-party, per-outcome maximal forcing probabilities plus honest values.

    Every probability is converted with float() once, row by row, and
    range-checked by `_in_unit_interval` (a NaN anywhere is rejected). An
    integer too large for a float is out of range too.
    """

    n_outcomes: int
    n_parties: int
    force_probs: tuple[tuple[float, ...], ...]  # [party][outcome]
    honest_probs: tuple[float, ...]

    def __post_init__(self):
        # from lists, as in TournamentSpec
        try:
            object.__setattr__(self, "force_probs", tuple([tuple([*map(float, row)]) for row in self.force_probs]))
            object.__setattr__(self, "honest_probs", tuple([*map(float, self.honest_probs)]))
        except OverflowError:
            raise ParameterRangeError("probabilities must lie in [0, 1], got an integer past the float range") from None
        if len(self.force_probs) != self.n_parties:
            raise DimensionMismatchError(
                f"expected {self.n_parties} force rows, got {len(self.force_probs)}"
            )
        if any(len(row) != self.n_outcomes for row in self.force_probs):
            raise DimensionMismatchError("every force row must have n_outcomes entries")
        if len(self.honest_probs) != self.n_outcomes:
            raise DimensionMismatchError(
                f"expected {self.n_outcomes} honest probabilities, got {len(self.honest_probs)}"
            )
        if not all(map(_in_unit_interval, self.force_probs)):
            raise ParameterRangeError("forcing probabilities must lie in [0, 1]")
        if not _in_unit_interval(self.honest_probs):
            raise ParameterRangeError("honest probabilities must lie in [0, 1]")
        if abs(sum(self.honest_probs) - 1.0) > RATIONAL_TOL:
            raise ParameterRangeError("honest probabilities must sum to 1")

    @classmethod
    def from_json_dict(cls, d: dict) -> "BiasReport":
        """Parse a decoded JSON report.

        A report that is not an object, lacks a field, or has a field of
        the wrong type (counts must be integers, probabilities numbers,
        booleans neither) raises ParameterRangeError.
        """
        if not isinstance(d, dict):
            raise ParameterRangeError(f"a bias report must be a JSON object, got {type(d).__name__}")
        missing = [f.name for f in fields(cls) if f.name not in d]
        if missing:
            raise ParameterRangeError(f"bias report lacks {', '.join(missing)}")
        if any(type(d[key]) is not int for key in ("n_outcomes", "n_parties")):
            raise ParameterRangeError("bias report n_outcomes and n_parties must be integers")
        try:
            force_probs = tuple(tuple(row) for row in d["force_probs"])
            honest_probs = tuple(d["honest_probs"])
        except TypeError as exc:
            raise ParameterRangeError(f"bias report probabilities must be lists: {exc}") from None
        if any(type(x) not in (int, float) for x in chain(honest_probs, *force_probs)):
            raise ParameterRangeError("bias report probabilities must be numbers")
        return cls(d["n_outcomes"], d["n_parties"], force_probs, honest_probs)


def kitaev_two_party(report: BiasReport, tol: float = RATIONAL_TOL) -> list[bool]:
    """Per outcome: does P_A(i)* P_B(i)* >= P_i hold?"""
    if report.n_parties != 2:
        raise DimensionMismatchError(
            f"two-party check needs exactly 2 parties, got {report.n_parties}"
        )
    a, b = report.force_probs
    return [
        a[i] * b[i] >= report.honest_probs[i] - tol for i in range(report.n_outcomes)
    ]


def kitaev_multi(report: BiasReport, tol: float = RATIONAL_TOL) -> list[bool]:
    """Per outcome: does the all-party product reach 1/N?

    Each outcome's column is multiplied party by party in order, by
    `math.prod` over the transposed rows.
    """
    if report.n_parties < 2:
        raise DimensionMismatchError(f"need at least 2 parties, got {report.n_parties}")
    floor = 1.0 / report.n_outcomes
    return [prod(col) >= floor - tol for col in zip(*report.force_probs)]


def symmetric_min(n_outcomes: int, n_parties: int) -> float:
    """Minimal symmetric forcing probability allowed by the product bound,
    (1/N)^(1/M); through logarithms when N does not fit a float."""
    if n_outcomes < 2 or n_parties < 2:
        raise ParameterRangeError("need at least 2 outcomes and 2 parties")
    try:
        floor = 1.0 / n_outcomes
    except OverflowError:
        return exp(-log(n_outcomes) / n_parties)
    return floor ** (1.0 / n_parties)

