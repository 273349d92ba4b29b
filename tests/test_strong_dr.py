"""Recursive-bisection strong DR: exact uniformity and adversary products."""

import dataclasses
from fractions import Fraction
from math import ceil, inf, log2, nan, sqrt

import numpy as np
import pytest

from qdice import strong_cf, strong_dr
from qdice.errors import ParameterRangeError
from qdice.strong_dr import SplitTree


def reference_children(lo: int, hi: int):
    """The two halves of [lo, hi], the left one taking ceil(w/2) outcomes, or None for a singleton."""
    if lo == hi:
        return None
    mid = lo + ceil((hi - lo + 1) / 2) - 1
    return (lo, mid), (mid + 1, hi)


def reference_leaf_probs(lo: int, hi: int, acc: Fraction = Fraction(1)) -> list[Fraction]:
    """Recursive walk multiplying Fraction edge probabilities, left half first."""
    children = reference_children(lo, hi)
    if children is None:
        return [acc]
    w = hi - lo + 1
    return [
        prob
        for clo, chi in children
        for prob in reference_leaf_probs(clo, chi, acc * Fraction(chi - clo + 1, w))
    ]


def reference_path_to(lo: int, hi: int, target: int) -> list[Fraction]:
    """The Fraction edge probabilities into the half holding the target, range by range."""
    if not lo <= target <= hi:
        raise ParameterRangeError(f"target {target} outside [{lo}, {hi}]")
    edges = []
    while lo != hi:
        w = hi - lo + 1
        lo, hi = next(child for child in reference_children(lo, hi) if child[0] <= target <= child[1])
        edges.append(Fraction(hi - lo + 1, w))
    return edges


def reference_roots(edges: list[Fraction]) -> list[float]:
    return [sqrt(float(edge)) for edge in edges]


def reference_forcing(roots: list[float], delta: float) -> float:
    """The product of min(1, sqrt(float(edge)) + delta) over the path's edges."""
    value = 1.0
    for root in roots:
        value *= min(1.0, root + delta)
    return value


def reference_adversary_success(lo: int, hi: int, target: int, delta: float) -> float:
    if not 0.0 <= delta < inf:
        raise ParameterRangeError(f"delta must be finite and non-negative, got {delta}")
    return reference_forcing(reference_roots(reference_path_to(lo, hi, target)), delta)


def raised(f, *args):
    """(type, message) of the exception f(*args) raises, or None."""
    try:
        f(*args)
    except Exception as exc:  # noqa: BLE001 - the error itself is compared
        return type(exc), str(exc)
    return None


def reference_depth(lo: int, hi: int) -> int:
    children = reference_children(lo, hi)
    if children is None:
        return 0
    return 1 + max(reference_depth(*child) for child in children)


class TestBuildTree:
    def test_five_outcomes_matches_figure(self):
        tree = strong_dr.build_tree(5)
        assert strong_dr.path_to(tree, 1) == [Fraction(3, 5), Fraction(2, 3), Fraction(1, 2)]
        assert strong_dr.path_to(tree, 5) == [Fraction(2, 5), Fraction(1, 2)]

    def test_two_outcomes_single_balanced_flip(self):
        tree = strong_dr.build_tree(2)
        assert strong_dr.path_to(tree, 1) == strong_dr.path_to(tree, 2) == [Fraction(1, 2)]

    def test_power_of_two_is_full_binary(self):
        tree = strong_dr.build_tree(4)
        assert strong_dr.depth(tree) == 2
        for leaf_path in ([1], [2], [3], [4]):
            assert strong_dr.path_to(tree, leaf_path[0]) == [Fraction(1, 2), Fraction(1, 2)]

    def test_left_child_takes_ceiling_half(self):
        for n in range(2, 30):
            tree = strong_dr.build_tree(n)
            for target in range(1, n + 1):
                take = (n + 1) // 2 if target <= (n + 1) // 2 else n // 2
                assert strong_dr._path_widths(tree, target)[0] == (take, n)

    def test_too_small(self):
        with pytest.raises(ParameterRangeError):
            strong_dr.build_tree(1)

    @pytest.mark.parametrize("excess", [1, 10**11, 10**400])
    def test_sizes_past_the_cap_are_refused_before_any_node_is_built(self, excess):
        assert strong_dr.MAX_OUTCOMES == 2**15
        size = strong_dr.MAX_OUTCOMES + excess
        message = f"need at most {strong_dr.MAX_OUTCOMES} outcomes, got {size}"
        with pytest.raises(ParameterRangeError, match=message):
            strong_dr.build_tree(size)
        with pytest.raises(ParameterRangeError, match=message):
            SplitTree(1 - excess, strong_dr.MAX_OUTCOMES)

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

    def test_every_path_walks_the_reference_bisection(self):
        # each edge's (take, w) is the width of the reference child entered and of the node left
        for n in range(2, 301):
            tree = strong_dr.build_tree(n)
            for target in range(1, n + 1):
                widths, (lo, hi) = [], (1, n)
                while (children := reference_children(lo, hi)) is not None:
                    child = next(c for c in children if c[0] <= target <= c[1])
                    widths.append((child[1] - child[0] + 1, hi - lo + 1))
                    lo, hi = child
                assert strong_dr._path_widths(tree, target) == widths, (n, target)

    def test_a_node_is_only_its_range(self):
        tree = strong_dr.build_tree(3)
        assert [f.name for f in dataclasses.fields(SplitTree)] == ["lo", "hi"]
        assert tree == SplitTree(1, 3) and hash(tree) == hash(SplitTree(1, 3))
        assert type(tree) is SplitTree and repr(SplitTree(3, 3)) == "SplitTree(lo=3, hi=3)"
        assert not any(hasattr(tree, name) for name in ("left", "right", "left_prob", "right_prob", "is_leaf"))
        with pytest.raises(dataclasses.FrozenInstanceError):
            tree.lo = 2

    def test_a_directly_built_range_is_a_whole_subtree(self):
        tree = SplitTree(1, 4)
        assert strong_dr.honest_leaf_probs(tree) == [Fraction(1, 4)] * 4
        assert strong_dr.depth(tree) == 2
        for lo, hi in [(-3, 3), (0, 0), (5, 17), (10**20, 10**20 + 6)]:
            node = SplitTree(lo, hi)
            assert strong_dr.honest_leaf_probs(node) == reference_leaf_probs(lo, hi)
            assert strong_dr.depth(node) == reference_depth(lo, hi)
            for target in range(lo, hi + 1):
                assert strong_dr.path_to(node, target) == reference_path_to(lo, hi, target)

    @pytest.mark.parametrize(
        "lo, hi, message",
        [
            (3, 1, r"integer ends lo <= hi, got \[3, 1\]"),
            (1, 0, r"integer ends lo <= hi, got \[1, 0\]"),
            (1.5, 3, "integer ends lo <= hi"),
            (1, 3.0, "integer ends lo <= hi"),
            (1, "3", "integer ends lo <= hi"),
            (np.int64(1), 3, "integer ends lo <= hi"),
            (None, None, "integer ends lo <= hi"),
            (1, 2**15 + 1, "need at most 32768 outcomes, got 32769"),
        ],
    )
    def test_a_range_that_is_not_a_bisection_node_is_refused(self, lo, hi, message):
        assert strong_dr.MAX_OUTCOMES == 2**15
        with pytest.raises(ParameterRangeError, match=message):
            SplitTree(lo, hi)


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
        for n in [*range(2, 302), 1000, 4097, 2**15 - 1, 2**15]:
            probs = strong_dr.honest_leaf_probs(strong_dr.build_tree(n))
            assert probs == reference_leaf_probs(1, n), n
            assert all(type(p) is Fraction for p in probs)

    @pytest.mark.parametrize("lo", [-(10**6), -7, 0, 2, 10**20])
    def test_equals_fraction_walk_on_offset_subtrees(self, lo):
        for w in (1, 2, 3, 5, 6, 37, 100, 257):
            hi = lo + w - 1
            assert strong_dr.honest_leaf_probs(SplitTree(lo, hi)) == reference_leaf_probs(lo, hi), (lo, w)

    @pytest.mark.parametrize("n", [1, 2, 5, 37, 256, 1000])
    def test_equal_leaves_share_one_fraction(self, n):
        probs = strong_dr.honest_leaf_probs(SplitTree(1, n))
        assert len({id(p) for p in probs}) == len(set(probs)) == 1

    def test_single_leaf(self):
        assert strong_dr.honest_leaf_probs(SplitTree(4, 4)) == [Fraction(1)]


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
                edges = reference_path_to(1, n, target)
                assert strong_dr.path_to(tree, target) == edges, (n, target)
                roots = reference_roots(edges)
                for delta in DELTAS:
                    got = strong_dr.adversary_success(tree, target, delta)
                    assert got.hex() == reference_forcing(roots, delta).hex(), (n, target, delta)

    @pytest.mark.parametrize("target", [0, -1, 38, 10**30])
    def test_same_error_for_a_bad_target(self, target):
        tree = strong_dr.build_tree(37)
        error = raised(reference_path_to, 1, 37, target)
        assert error is not None and error[0] is ParameterRangeError
        assert raised(strong_dr.path_to, tree, target) == error
        assert raised(strong_dr.adversary_success, tree, target, 0.01) == error

    @pytest.mark.parametrize("delta", [nan, inf, -inf, -0.5, np.float64(nan)])
    @pytest.mark.parametrize("target", [1, 99])
    def test_same_error_for_a_bad_delta(self, delta, target):
        # the delta is checked before the target, as before
        tree = strong_dr.build_tree(37)
        error = raised(reference_adversary_success, 1, 37, target, delta)
        assert error is not None and "delta" in error[1]
        assert raised(strong_dr.adversary_success, tree, target, delta) == error


class TestDepthBound:
    @pytest.mark.parametrize("n", range(2, 65))
    def test_depth_at_most_log(self, n):
        assert strong_dr.depth(strong_dr.build_tree(n)) <= ceil(log2(n))

    def test_equals_recursive_depth(self):
        for n in range(2, 301):
            tree = strong_dr.build_tree(n)
            assert strong_dr.depth(tree) == reference_depth(1, n) == (n - 1).bit_length()

    def test_equals_bit_length_up_to_the_cap(self):
        for n in range(2, strong_dr.MAX_OUTCOMES + 1):
            assert strong_dr.depth(strong_dr.build_tree(n)) == (n - 1).bit_length(), n
        assert strong_dr.depth(SplitTree(1, 1)) == 0


class TestCompositionWithStrongCF:
    def test_three_outcome_composition(self):
        # each node is a strong imbalanced CF with P0 = ceil(w/2)/w; the
        # per-node ideal cheat values sqrt(P0) multiply to the tree value
        tree = strong_dr.build_tree(3)
        product = 1.0
        for p0 in strong_dr.path_to(tree, 1):  # the left spine
            report = strong_cf.cheat_probs(strong_cf.solve_params(float(p0)))
            product *= report.alice_force_0
        assert product == pytest.approx(
            strong_dr.adversary_success(tree, 1, 0.0), abs=1e-12
        )
        assert product == pytest.approx(1 / sqrt(3), abs=1e-12)
