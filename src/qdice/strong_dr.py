"""Two-party strong N-sided dice rolling by recursive bisection.

The outcome range is halved with a strong imbalanced coin flip at each
node: the left branch keeps the ceil(w/2) lower outcomes with probability
ceil(w/2)/w, the right branch the floor(w/2) upper outcomes. Every leaf's
edge-probability product telescopes to exactly 1/N, and a cheater who can
shift each flip to sqrt(edge) + delta succeeds with the product of those
factors along the target's path: 1/sqrt(N) at delta = 0.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from math import inf, sqrt

from .errors import ParameterRangeError

# Largest outcome count, refused before any node is built: `qdice strong-dr
# --n` at the cap takes about 2.6 s, peaks at about 120 MB and writes 22 MB.
MAX_OUTCOMES = 2**15


@dataclass(frozen=True)
class SplitTree:
    """A node covering outcomes [lo, hi]; leaves are single outcomes."""

    lo: int
    hi: int
    left: "SplitTree | None" = None
    right: "SplitTree | None" = None

    @property
    def width(self) -> int:
        return self.hi - self.lo + 1

    @property
    def is_leaf(self) -> bool:
        return self.left is None

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
    """Recursive ceil/floor bisection of [1, n_outcomes] down to singletons.

    Each node is a frozen SplitTree whose instance dict is filled by item
    assignment: the same node as SplitTree(lo, hi, left, right), without the
    frozen dataclass's four object.__setattr__ calls. Raises
    ParameterRangeError unless 2 <= n_outcomes <= MAX_OUTCOMES.
    """
    try:
        n = operator.index(n_outcomes)
    except TypeError:
        raise ParameterRangeError(f"outcome count must be an integer, got {n_outcomes!r}") from None
    if n < 2:
        raise ParameterRangeError(f"need at least 2 outcomes, got {n}")
    if n > MAX_OUTCOMES:
        raise ParameterRangeError(f"need at most {MAX_OUTCOMES} outcomes, got {n}")

    def split(lo: int, hi: int) -> SplitTree:
        node = object.__new__(SplitTree)
        fields = node.__dict__
        fields["lo"] = lo
        fields["hi"] = hi
        if lo == hi:
            fields["left"] = fields["right"] = None
        else:
            mid = (lo + hi) // 2  # left child takes ceil(w/2) outcomes
            fields["left"] = split(lo, mid)
            fields["right"] = split(mid + 1, hi)
        return node

    return split(1, n)


def _path_widths(tree: SplitTree, target_outcome: int) -> list[tuple[int, int]]:
    """(take, w) for every edge on the target's root-to-leaf path: the edge's
    probability is take/w, with w the width of the node it leaves and take
    (w+1)//2 to the left child or w//2 to the right, as in `left_prob` and
    `right_prob`. Raises ParameterRangeError for a target outside the tree."""
    if not tree.lo <= target_outcome <= tree.hi:
        raise ParameterRangeError(
            f"target {target_outcome} outside [{tree.lo}, {tree.hi}]"
        )
    edges = []
    node = tree
    while node.left is not None:
        w = node.hi - node.lo + 1
        if target_outcome <= node.left.hi:
            edges.append(((w + 1) // 2, w))
            node = node.left
        else:
            edges.append((w // 2, w))
            node = node.right
    return edges


def path_to(tree: SplitTree, target_outcome: int) -> list[Fraction]:
    """Edge probabilities along the root-to-leaf path of the target outcome,
    one Fraction per edge of `_path_widths`."""
    return [Fraction(take, w) for take, w in _path_widths(tree, target_outcome)]


def honest_leaf_probs(tree: SplitTree) -> list[Fraction]:
    """Exact honest probability of every outcome, in outcome order.

    Walks the tree level by level with an explicit worklist, carrying each
    path's product of edge probabilities as an unreduced integer pair
    (num, den): a node of width w multiplies its left child's pair by
    ((w+1)//2, w) and its right child's by (w//2, w), the factors of
    `left_prob` and `right_prob`. One Fraction is built per distinct pair
    reaching a leaf.
    """
    probs: list[tuple[int, Fraction]] = []
    exact: dict[tuple[int, int], Fraction] = {}
    level = [(tree, 1, 1)]
    while level:
        below = []
        for node, num, den in level:
            if node.left is None:
                key = (num, den)
                prob = exact.get(key)
                if prob is None:
                    prob = exact[key] = Fraction(num, den)
                probs.append((node.lo, prob))
            else:
                w = node.hi - node.lo + 1
                den *= w
                below.append((node.left, num * ((w + 1) // 2), den))
                below.append((node.right, num * (w // 2), den))
        level = below
    probs.sort()
    return [p for _, p in probs]


def depth(tree: SplitTree) -> int:
    """Length of the longest root-to-leaf path (0 for a single leaf), level by level."""
    level = [tree]
    levels = 0
    while True:
        level = [child for node in level if node.left is not None for child in (node.left, node.right)]
        if not level:
            return levels
        levels += 1


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
