"""Two-party strong N-sided dice rolling by recursive bisection.

The outcome range is halved with a strong imbalanced coin flip at each
node: the left branch keeps the ceil(w/2) lower outcomes with probability
ceil(w/2)/w, the right branch the floor(w/2) upper outcomes. Every leaf's
edge-probability product telescopes to exactly 1/N, and a cheater who can
shift each flip to sqrt(edge) + delta succeeds with the product of those
factors along the target's path: 1/sqrt(N) at delta = 0.

The tree is a pure function of its range, so a node is only (lo, hi): its
children and edge probabilities are computed from the range, and the
queries below walk integer ranges rather than stored nodes. A subtree's
leaf probabilities, relative to its root, depend on its width alone, so
the honest leaf probabilities are computed once per distinct width (at
most two per depth), not once per leaf.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from math import inf, sqrt

from .errors import ParameterRangeError

# Largest outcome count, refused by SplitTree's constructor: `qdice strong-dr
# --n` at the cap takes about 0.25 s, nearly all of it imports, peaks at
# about 31 MB and writes 849 B.
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
    the width of the child it enters, ceil(w/2) = (w+1)//2 for the left
    child (the lower outcomes) or floor(w/2) = w//2 for the right. Raises
    ParameterRangeError for a target outside the tree."""
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


# The runs of a lone leaf, relative to itself: one leaf of probability 1/1.
_LEAF_RUNS = ((1, 1, 1),)


def _leaf_runs(w: int, memo: dict) -> list[tuple[int, int, int]]:
    """The leaf probabilities under a node of width w >= 2, relative to it.

    A run (num, den, count) is count adjacent leaves, in outcome order, each
    of probability num/den, an unreduced exact product of edge
    probabilities. The runs are the left child's scaled by ((w+1)//2, w)
    and then the right child's scaled by (w//2, w): each edge's probability
    is the width of the child it enters, ceil(w/2) to the left and
    floor(w/2) to the right, over w. A child's runs are `_LEAF_RUNS`, or read
    from `memo` (width -> runs), or computed once and put there. An even
    width's halves are the same subtree, so they are scaled once.
    Neighbouring runs of a child differ in value and scaling keeps them
    apart, so only the two runs where the halves meet can merge, which the
    cross-multiplied test finds without reducing either pair.
    """
    a = (w + 1) // 2
    runs = []
    for num, den, count in _LEAF_RUNS if a == 1 else memo.get(a) or _leaf_runs(a, memo):
        runs.append((num * a, den * w, count))
    if a + a == w:
        right = runs
    else:
        b = w - a
        right = []
        for num, den, count in _LEAF_RUNS if b == 1 else memo.get(b) or _leaf_runs(b, memo):
            right.append((num * b, den * w, count))
    n1, d1, c1 = runs[-1]
    n2, d2, c2 = right[0]
    if n1 * d2 == n2 * d1:
        right = right[1:]  # a new list, as `right` may be `runs` itself
        runs[-1] = (n1, d1, c1 + c2)
    runs += right
    memo[w] = runs
    return runs


def honest_leaf_probs(tree: SplitTree) -> list[Fraction]:
    """Exact honest probability of every outcome, in outcome order.

    A subtree's leaf probabilities, relative to its root, depend only on
    its width, so `_leaf_runs` computes them once per distinct width (at
    most two per depth), as runs of equal exact products of the edge
    probabilities on each leaf's path. Each run becomes one Fraction,
    repeated over its leaves, so equal neighbouring leaves share one object.
    """
    w = tree.hi - tree.lo + 1
    probs: list[Fraction] = []
    for num, den, count in _leaf_runs(w, {}) if w > 1 else _LEAF_RUNS:
        probs += [Fraction(num, den)] * count
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
