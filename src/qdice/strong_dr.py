"""Two-party strong N-sided dice rolling by recursive bisection.

The outcome range is halved with a strong imbalanced coin flip at each
node: the left branch keeps the ceil(w/2) lower outcomes with probability
ceil(w/2)/w, the right branch the floor(w/2) upper outcomes. Every leaf's
edge-probability product telescopes to exactly 1/N, and a cheater who can
shift each flip to sqrt(edge) + delta succeeds with the product of those
factors along the target's path: 1/sqrt(N) at delta = 0.

The tree is a pure function of its range, so a node is only (lo, hi): its
children and edge probabilities are computed from the range, and the
queries below walk integer ranges rather than stored nodes.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from math import inf, sqrt

from .errors import ParameterRangeError

# Largest outcome count, refused by SplitTree's constructor: `qdice strong-dr
# --n` at the cap takes about 2.5 s, peaks at about 110 MB and writes 22 MB.
MAX_OUTCOMES = 2**15


@dataclass(frozen=True)
class SplitTree:
    """The node covering outcomes [lo, hi]; leaves are single outcomes.

    Raises ParameterRangeError unless lo and hi are integers with
    1 <= hi - lo + 1 <= MAX_OUTCOMES.
    """

    lo: int
    hi: int

    def __post_init__(self):
        if not (isinstance(self.lo, int) and isinstance(self.hi, int) and self.lo <= self.hi):
            raise ParameterRangeError(f"a node needs integer ends lo <= hi, got [{self.lo!r}, {self.hi!r}]")
        if self.width > MAX_OUTCOMES:
            raise ParameterRangeError(f"need at most {MAX_OUTCOMES} outcomes, got {self.width}")

    @property
    def width(self) -> int:
        return self.hi - self.lo + 1

    @property
    def is_leaf(self) -> bool:
        return self.lo == self.hi

    @property
    def left(self) -> SplitTree | None:
        """The ceil(w/2) lower outcomes, or None at a leaf."""
        return None if self.is_leaf else SplitTree(self.lo, (self.lo + self.hi) // 2)

    @property
    def right(self) -> SplitTree | None:
        """The floor(w/2) upper outcomes, or None at a leaf."""
        return None if self.is_leaf else SplitTree((self.lo + self.hi) // 2 + 1, self.hi)

    @property
    def left_prob(self) -> Fraction:
        return Fraction((self.width + 1) // 2, self.width)

    @property
    def right_prob(self) -> Fraction:
        return Fraction(self.width // 2, self.width)

    def to_json_dict(self) -> dict:
        node: dict = {"lo": self.lo, "hi": self.hi}
        if not self.is_leaf:
            node["left_prob"] = {"num": self.left_prob.numerator, "den": self.left_prob.denominator}
            node["right_prob"] = {"num": self.right_prob.numerator, "den": self.right_prob.denominator}
            node["left"] = self.left.to_json_dict()
            node["right"] = self.right.to_json_dict()
        return node


def build_tree(n_outcomes: int) -> SplitTree:
    """The root of the ceil/floor bisection of [1, n_outcomes].

    Raises ParameterRangeError unless 2 <= n_outcomes <= MAX_OUTCOMES.
    """
    try:
        n = operator.index(n_outcomes)
    except TypeError:
        raise ParameterRangeError(f"outcome count must be an integer, got {n_outcomes!r}") from None
    if n < 2:
        raise ParameterRangeError(f"need at least 2 outcomes, got {n}")
    return SplitTree(1, n)


def _path_widths(tree: SplitTree, target_outcome: int) -> list[tuple[int, int]]:
    """(take, w) for every edge on the target's root-to-leaf path: the edge's
    probability is take/w, with w the width of the node it leaves and take
    (w+1)//2 to the left child or w//2 to the right, as in `left_prob` and
    `right_prob`. Raises ParameterRangeError for a target outside the tree."""
    lo, hi = tree.lo, tree.hi
    if not lo <= target_outcome <= hi:
        raise ParameterRangeError(f"target {target_outcome} outside [{lo}, {hi}]")
    edges = []
    while lo < hi:
        w = hi - lo + 1
        mid = (lo + hi) // 2  # the left child is [lo, mid]
        if target_outcome <= mid:
            edges.append(((w + 1) // 2, w))
            hi = mid
        else:
            edges.append((w // 2, w))
            lo = mid + 1
    return edges


def path_to(tree: SplitTree, target_outcome: int) -> list[Fraction]:
    """Edge probabilities along the root-to-leaf path of the target outcome,
    one Fraction per edge of `_path_widths`."""
    return [Fraction(take, w) for take, w in _path_widths(tree, target_outcome)]


def honest_leaf_probs(tree: SplitTree) -> list[Fraction]:
    """Exact honest probability of every outcome, in outcome order.

    Walks (lo, hi, num, den) ranges depth first, carrying each path's
    product of edge probabilities as an unreduced integer pair: a range of
    width w multiplies its left half's pair by ((w+1)//2, w) and its right
    half's by (w//2, w), the factors of `left_prob` and `right_prob`. The
    right half is pushed first, so leaves come out in outcome order. One
    Fraction is built per distinct pair reaching a leaf.
    """
    probs: list[Fraction] = []
    exact: dict[tuple[int, int], Fraction] = {}
    todo = [(tree.lo, tree.hi, 1, 1)]
    while todo:
        lo, hi, num, den = todo.pop()
        if lo == hi:
            key = (num, den)
            prob = exact.get(key)
            if prob is None:
                prob = exact[key] = Fraction(num, den)
            probs.append(prob)
        else:
            w = hi - lo + 1
            mid = (lo + hi) // 2
            den *= w
            todo.append((mid + 1, hi, num * (w // 2), den))
            todo.append((lo, mid, num * ((w + 1) // 2), den))
    return probs


def depth(tree: SplitTree) -> int:
    """Length of the longest root-to-leaf path (0 for a single leaf).

    A left child is never narrower than its right sibling, so the left
    spine, whose width halves rounding up, is a longest path.
    """
    w, levels = tree.width, 0
    while w > 1:
        w = (w + 1) // 2
        levels += 1
    return levels


def adversary_success(tree: SplitTree, target_outcome: int, delta: float) -> float:
    """Forcing probability for the target when every flip is shifted by delta.

    Product over the target's path of min(1, sqrt(edge probability) + delta);
    each factor is clamped at 1 since a forcing probability cannot exceed it.
    The path is walked with integer widths (`_path_widths`) and no Fraction:
    int true division is correctly rounded, so take / w is the float
    nearest the edge probability, the same float as float(Fraction(take, w)).
    """
    if not 0.0 <= delta < inf:  # fails closed on NaN
        raise ParameterRangeError(f"delta must be finite and non-negative, got {delta}")
    value = 1.0
    for take, w in _path_widths(tree, target_outcome):
        value *= min(1.0, sqrt(take / w) + delta)
    return value
