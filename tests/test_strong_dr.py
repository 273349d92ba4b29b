"""Recursive-bisection strong DR: exact uniformity and adversary products."""

import dataclasses
from fractions import Fraction
from math import ceil, inf, log2, nan, sqrt

import numpy as np
import pytest

from qdice import strong_cf, strong_dr
from qdice.errors import ParameterRangeError
from qdice.strong_dr import SplitTree


def reference_tree(n: int) -> SplitTree:
    """The bisection tree built through SplitTree's own constructor."""

    def split(lo, hi):
        if lo == hi:
            return SplitTree(lo, hi)
        mid = lo + (hi - lo + 1 + 1) // 2 - 1
        return SplitTree(lo, hi, split(lo, mid), split(mid + 1, hi))

    return split(1, n)


def reference_leaf_probs(tree: SplitTree) -> list[Fraction]:
    """Recursive walk multiplying each node's Fraction edge probabilities."""
    probs = []

    def walk(node, acc):
        if node.is_leaf:
            probs.append((node.lo, acc))
            return
        walk(node.left, acc * node.left_prob)
        walk(node.right, acc * node.right_prob)

    walk(tree, Fraction(1))
    probs.sort()
    return [p for _, p in probs]


def reference_path_to(tree: SplitTree, target: int) -> list[Fraction]:
    """The path walked through each node's `left_prob` / `right_prob` Fractions."""
    if not tree.lo <= target <= tree.hi:
        raise ParameterRangeError(f"target {target} outside [{tree.lo}, {tree.hi}]")
    edges = []
    node = tree
    while not node.is_leaf:
        if target <= node.left.hi:
            edges.append(node.left_prob)
            node = node.left
        else:
            edges.append(node.right_prob)
            node = node.right
    return edges


def reference_roots(edges: list[Fraction]) -> list[float]:
    return [sqrt(float(edge)) for edge in edges]


def reference_forcing(roots: list[float], delta: float) -> float:
    """The product of min(1, sqrt(float(edge)) + delta) over the path's edges."""
    value = 1.0
    for root in roots:
        value *= min(1.0, root + delta)
    return value


def reference_adversary_success(tree: SplitTree, target: int, delta: float) -> float:
    if not 0.0 <= delta < inf:
        raise ParameterRangeError(f"delta must be finite and non-negative, got {delta}")
    return reference_forcing(reference_roots(reference_path_to(tree, target)), delta)


def raised(f, *args):
    """(type, message) of the exception f(*args) raises, or None."""
    try:
        f(*args)
    except Exception as exc:  # noqa: BLE001 - the error itself is compared
        return type(exc), str(exc)
    return None


def reference_depth(tree: SplitTree) -> int:
    if tree.is_leaf:
        return 0
    return 1 + max(reference_depth(tree.left), reference_depth(tree.right))


def leaf(k: int) -> SplitTree:
    return SplitTree(k, k)


# children whose widths are not ceil/floor of the parent's: [1, 6] -> [1, 1] + [2, 6] -> [2, 5] + [6, 6]
LOPSIDED = SplitTree(
    1, 6, leaf(1),
    SplitTree(2, 6, SplitTree(2, 5, SplitTree(2, 3, leaf(2), leaf(3)), SplitTree(4, 5, leaf(4), leaf(5))), leaf(6)),
)
# leaves out of order, and a left child narrower than the right
SHUFFLED = SplitTree(
    1, 5, SplitTree(4, 5, leaf(5), leaf(4)), SplitTree(1, 3, leaf(3), SplitTree(1, 2, leaf(2), leaf(1)))
)


class TestBuildTree:
    def test_five_outcomes_matches_figure(self):
        tree = strong_dr.build_tree(5)
        assert (tree.left_prob, tree.right_prob) == (Fraction(3, 5), Fraction(2, 5))
        assert strong_dr.path_to(tree, 1) == [Fraction(3, 5), Fraction(2, 3), Fraction(1, 2)]

    def test_two_outcomes_single_balanced_flip(self):
        tree = strong_dr.build_tree(2)
        assert tree.left_prob == tree.right_prob == Fraction(1, 2)
        assert tree.left.is_leaf and tree.right.is_leaf

    def test_power_of_two_is_full_binary(self):
        tree = strong_dr.build_tree(4)
        assert strong_dr.depth(tree) == 2
        for leaf_path in ([1], [2], [3], [4]):
            assert strong_dr.path_to(tree, leaf_path[0]) == [Fraction(1, 2), Fraction(1, 2)]

    def test_left_child_takes_ceiling_half(self):
        for n in range(2, 30):
            tree = strong_dr.build_tree(n)
            assert tree.left.width == (n + 1) // 2
            assert tree.right.width == n // 2

    def test_too_small(self):
        with pytest.raises(ParameterRangeError):
            strong_dr.build_tree(1)

    @pytest.mark.parametrize("excess", [1, 10**11, 10**400])
    def test_sizes_past_the_cap_are_refused_before_any_node_is_built(self, monkeypatch, excess):
        assert strong_dr.MAX_OUTCOMES == 2**15
        # nodes are made by object.__new__(SplitTree), which raises TypeError on None
        monkeypatch.setattr(strong_dr, "SplitTree", None)
        with pytest.raises(ParameterRangeError, match=f"need at most {strong_dr.MAX_OUTCOMES} outcomes"):
            strong_dr.build_tree(strong_dr.MAX_OUTCOMES + excess)

    def test_the_cap_itself_is_accepted(self, monkeypatch):
        monkeypatch.setattr(strong_dr, "MAX_OUTCOMES", 50)
        assert strong_dr.build_tree(50).width == 50
        with pytest.raises(ParameterRangeError, match="need at most 50 outcomes, got 51"):
            strong_dr.build_tree(51)

    @pytest.mark.parametrize("bad", [2.5, 4.0, nan, inf, "5", Fraction(5), None])
    def test_non_integer_size_rejected(self, bad):
        with pytest.raises(ParameterRangeError):
            strong_dr.build_tree(bad)

    def test_integer_like_sizes_accepted(self):
        assert strong_dr.build_tree(np.int64(7)) == strong_dr.build_tree(7)
        assert type(strong_dr.build_tree(np.int64(7)).hi) is int

    def test_equals_constructor_built_tree(self):
        for n in range(2, 301):
            assert strong_dr.build_tree(n) == reference_tree(n)
        for n in (2, 37, 256):
            tree, expected = strong_dr.build_tree(n), reference_tree(n)
            assert hash(tree) == hash(expected)
            assert tree.to_json_dict() == expected.to_json_dict()

    def test_nodes_are_frozen_split_trees(self):
        tree = strong_dr.build_tree(3)
        assert type(tree) is SplitTree and type(tree.left.left) is SplitTree
        assert repr(tree.right) == "SplitTree(lo=3, hi=3, left=None, right=None)"
        with pytest.raises(dataclasses.FrozenInstanceError):
            tree.lo = 2
        with pytest.raises(dataclasses.FrozenInstanceError):
            tree.left.right = None


class TestHonestLeafProbs:
    def test_five_outcomes_exact(self):
        assert strong_dr.honest_leaf_probs(strong_dr.build_tree(5)) == [Fraction(1, 5)] * 5

    def test_two_outcomes(self):
        assert strong_dr.honest_leaf_probs(strong_dr.build_tree(2)) == [Fraction(1, 2)] * 2

    def test_nine_outcomes(self):
        assert strong_dr.honest_leaf_probs(strong_dr.build_tree(9)) == [Fraction(1, 9)] * 9

    @pytest.mark.parametrize("n", range(2, 65))
    def test_uniformity_all_sizes(self, n):
        assert strong_dr.honest_leaf_probs(strong_dr.build_tree(n)) == [Fraction(1, n)] * n

    def test_equals_fraction_walk(self):
        for n in range(2, 301):
            tree = strong_dr.build_tree(n)
            probs = strong_dr.honest_leaf_probs(tree)
            assert probs == reference_leaf_probs(tree)
            assert all(type(p) is Fraction for p in probs)

    @pytest.mark.parametrize("tree", [LOPSIDED, SHUFFLED], ids=["lopsided", "shuffled"])
    def test_hand_built_trees_use_each_nodes_own_factors(self, tree):
        assert strong_dr.honest_leaf_probs(tree) == reference_leaf_probs(tree)

    def test_hand_built_values(self):
        # root [1, 6]: 3/6 to the leaf; [2, 6] then 3/5 left, 2/5 right; [2, 5] halves; width-2 nodes halve
        assert strong_dr.honest_leaf_probs(LOPSIDED) == [
            Fraction(1, 2), *[Fraction(1, 2) * Fraction(3, 5) * Fraction(1, 2) * Fraction(1, 2)] * 4,
            Fraction(1, 2) * Fraction(2, 5),
        ]
        # root [1, 5] sends 3/5 to [4, 5] and 2/5 to [1, 3]; outcome order, not tree order
        assert strong_dr.honest_leaf_probs(SHUFFLED) == [
            Fraction(2, 5) * Fraction(1, 3) * Fraction(1, 2),
            Fraction(2, 5) * Fraction(1, 3) * Fraction(1, 2),
            Fraction(2, 5) * Fraction(2, 3),
            Fraction(3, 5) * Fraction(1, 2),
            Fraction(3, 5) * Fraction(1, 2),
        ]

    def test_single_leaf(self):
        assert strong_dr.honest_leaf_probs(leaf(4)) == [Fraction(1)]


class TestAdversarySuccess:
    @pytest.mark.parametrize("n", range(2, 65))
    def test_zero_delta_is_inverse_sqrt(self, n):
        tree = strong_dr.build_tree(n)
        for target in (1, n // 2 + 1, n):
            assert strong_dr.adversary_success(tree, target, 0.0) == pytest.approx(
                1 / sqrt(n), abs=1e-12
            )

    def test_five_outcomes_small_delta(self):
        # direct product arithmetic oracle for the leftmost path
        expected = (sqrt(3 / 5) + 0.01) * (sqrt(2 / 3) + 0.01) * (sqrt(1 / 2) + 0.01)
        got = strong_dr.adversary_success(strong_dr.build_tree(5), 1, 0.01)
        assert got == pytest.approx(expected, abs=1e-15)
        assert got == pytest.approx(0.4650196991, abs=1e-9)

    def test_growth_constant_order_of_magnitude(self):
        # slope constant c is ~ sqrt(2/N): require agreement within a factor 2
        delta = 0.01
        value = strong_dr.adversary_success(strong_dr.build_tree(5), 1, delta)
        c = (value - 1 / sqrt(5)) / (ceil(log2(5)) * delta)
        assert sqrt(2 / 5) / 2 < c < sqrt(2 / 5) * 2

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 17, 33, 64])
    def test_first_order_growth(self, n):
        tree = strong_dr.build_tree(n)
        h = 1e-8
        slope = (
            strong_dr.adversary_success(tree, 1, h) - strong_dr.adversary_success(tree, 1, 0.0)
        ) / h
        for delta in (1e-4, 5e-4, 1e-3):
            value = strong_dr.adversary_success(tree, 1, delta)
            assert abs(value - 1 / sqrt(n) - delta * slope) <= 10 * delta**2

    def test_factors_clamped_at_one(self):
        tree = strong_dr.build_tree(2)
        assert strong_dr.adversary_success(tree, 1, 0.9) == 1.0

    def test_target_out_of_range(self):
        tree = strong_dr.build_tree(5)
        with pytest.raises(ParameterRangeError):
            strong_dr.adversary_success(tree, 0, 0.0)
        with pytest.raises(ParameterRangeError):
            strong_dr.adversary_success(tree, 6, 0.0)

    def test_negative_delta_rejected(self):
        with pytest.raises(ParameterRangeError):
            strong_dr.adversary_success(strong_dr.build_tree(3), 1, -0.01)

    @pytest.mark.parametrize("delta", [nan, inf, -inf, np.float64(nan)])
    def test_non_finite_delta_rejected(self, delta):
        # min(1, sqrt(edge) + nan) is 1.0, so a NaN would read as a certain force
        with pytest.raises(ParameterRangeError):
            strong_dr.adversary_success(strong_dr.build_tree(5), 1, delta)


DELTAS = (0.0, 1e-3, 0.05, 0.3, 0.9)


class TestIntegerPathWalk:
    """`path_to` and `adversary_success` against the Fraction walk they replaced."""

    @pytest.mark.parametrize("lo", range(2, 301, 50))
    def test_every_target_bit_for_bit(self, lo):
        for n in range(lo, lo + 50):
            tree = strong_dr.build_tree(n)
            for target in range(1, n + 1):
                edges = reference_path_to(tree, target)
                assert strong_dr.path_to(tree, target) == edges, (n, target)
                roots = reference_roots(edges)
                for delta in DELTAS:
                    got = strong_dr.adversary_success(tree, target, delta)
                    assert got.hex() == reference_forcing(roots, delta).hex(), (n, target, delta)

    @pytest.mark.parametrize("tree", [LOPSIDED, SHUFFLED], ids=["lopsided", "shuffled"])
    def test_hand_built_trees_use_each_nodes_own_width(self, tree):
        for target in range(1, 6):
            assert strong_dr.path_to(tree, target) == reference_path_to(tree, target)
            for delta in DELTAS:
                got = strong_dr.adversary_success(tree, target, delta)
                assert got.hex() == reference_adversary_success(tree, target, delta).hex()

    @pytest.mark.parametrize("target", [0, -1, 38, 10**30])
    def test_same_error_for_a_bad_target(self, target):
        tree = strong_dr.build_tree(37)
        error = raised(reference_path_to, tree, target)
        assert error is not None and error[0] is ParameterRangeError
        assert raised(strong_dr.path_to, tree, target) == error
        assert raised(strong_dr.adversary_success, tree, target, 0.01) == error

    @pytest.mark.parametrize("delta", [nan, inf, -inf, -0.5, np.float64(nan)])
    @pytest.mark.parametrize("target", [1, 99])
    def test_same_error_for_a_bad_delta(self, delta, target):
        # the delta is checked before the target, as before
        tree = strong_dr.build_tree(37)
        error = raised(reference_adversary_success, tree, target, delta)
        assert error is not None and "delta" in error[1]
        assert raised(strong_dr.adversary_success, tree, target, delta) == error


class TestDepthBound:
    @pytest.mark.parametrize("n", range(2, 65))
    def test_depth_at_most_log(self, n):
        assert strong_dr.depth(strong_dr.build_tree(n)) <= ceil(log2(n))

    def test_equals_recursive_depth(self):
        for n in range(2, 301):
            tree = strong_dr.build_tree(n)
            assert strong_dr.depth(tree) == reference_depth(tree) == (n - 1).bit_length()

    def test_deeper_right_branch(self):
        # a right-leaning chain: every left child is a leaf
        chain = leaf(6)
        for k in range(5, 0, -1):
            chain = SplitTree(k, 6, leaf(k), chain)
        assert strong_dr.depth(chain) == reference_depth(chain) == 5
        assert strong_dr.depth(SplitTree(0, 6, leaf(0), chain)) == 6
        assert strong_dr.depth(LOPSIDED) == reference_depth(LOPSIDED) == 4
        assert strong_dr.depth(leaf(1)) == 0


class TestCompositionWithStrongCF:
    def test_three_outcome_composition(self):
        # each node is a strong imbalanced CF with P0 = ceil(w/2)/w; the
        # per-node ideal cheat values sqrt(P0) multiply to the tree value
        tree = strong_dr.build_tree(3)
        product = 1.0
        node = tree
        while not node.is_leaf:
            p0 = float(node.left_prob)
            report = strong_cf.cheat_probs(strong_cf.solve_params(p0))
            product *= report.alice_force_0
            node = node.left
        assert product == pytest.approx(
            strong_dr.adversary_success(tree, 1, 0.0), abs=1e-12
        )
        assert product == pytest.approx(1 / sqrt(3), abs=1e-12)


class TestSerialization:
    def test_nested_json_with_rational_edges(self):
        d = strong_dr.build_tree(3).to_json_dict()
        assert d["left_prob"] == {"num": 2, "den": 3}
        assert d["right_prob"] == {"num": 1, "den": 3}
        assert d["left"]["left_prob"] == {"num": 1, "den": 2}
        assert d["right"] == {"lo": 3, "hi": 3}
