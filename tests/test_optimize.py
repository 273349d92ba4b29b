"""Golden-section maximization on [0, 1] (plain floats, both ends checked),
bracketing bisection, and the exact Q(sqrt2) quadratic root with its float
sign-change certificate."""

import math
from fractions import Fraction

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from qdice import optimize
from qdice.errors import CrossCheckError, InfeasibleVariantError
from qdice.optimize import (
    _INV_PHI,
    bisect_root,
    certify_sign_change,
    maximize_unimodal,
    sqrt2_quadratic_root,
)


def loop_maximize(f, tol=1e-12):
    """The reference search on [0, 1]: golden section, then the midpoint
    against both ends, kept only where an end is strictly better."""
    a, b = 0.0, 1.0
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    candidates = [(x, f(x)), (0.0, f(0.0)), (1.0, f(1.0))]
    best = candidates[0]
    for end in candidates[1:]:
        if end[1] > best[1]:
            best = end
    return best


def loop_bisect(f, lo, hi, tol=1e-12, max_iter=200):
    """The reference bisection for finite f, without the NaN checks."""
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        raise InfeasibleVariantError("no sign change")
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        if fmid == 0.0 or hi - lo < tol:
            return mid
        if flo * fmid < 0.0:
            hi = mid
        else:
            lo, flo = mid, fmid
    return 0.5 * (lo + hi)


# unimodal on [0, 1]: non-decreasing, then non-increasing; each maximum is
# attained on an interval or at a point that f approaches continuously
OBJECTIVES = {
    "smooth": lambda x: -((x - 0.3) ** 2),
    "capped_plateau": lambda x: min(1.0 - abs(x - 0.5), 0.8),
    "constant": lambda x: 0.25 + 0.0 * x,
    "step_plateau": lambda x: 1.0 if x < 0.7 else 0.0,
    "quantized": lambda x: math.floor(8.0 * math.sin(math.pi * x) - 0.5) / 8.0,
    "edge_max": lambda x: x**3,
    "falling": lambda x: 1.0 - x,
    "sqrt_peak_near_zero": lambda x: (math.sqrt(0.99 * (1.0 - x)) + math.sqrt(1e-13 * x)) ** 2,
}

DENSE = [k / 2**16 for k in range(2**16 + 1)]  # the brute-force reference's points, both ends included


class TestMaximizeUnimodal:
    def test_f_is_called_only_with_python_floats(self):
        calls = []

        def f(x):
            calls.append(x)
            return -((x - 0.4) ** 2)

        maximize_unimodal(f)
        assert len(calls) == 63 and all(type(x) is float for x in calls)
        assert calls[-2:] == [0.0, 1.0]

    @pytest.mark.parametrize("name", [*sorted(OBJECTIVES), "nan"])
    def test_every_search_makes_63_evaluations(self, name):
        # 2 first probes, 58 bracket steps to MAXIMIZE_TOL, the midpoint and the 2 ends
        f = OBJECTIVES.get(name, lambda x: math.nan)
        calls = []
        maximize_unimodal(lambda x: calls.append(x) or f(x))
        assert len(calls) == 2 + 58 + 1 + 2

    @pytest.mark.parametrize("name", sorted(OBJECTIVES))
    def test_matches_per_point_loop(self, name):
        f = OBJECTIVES[name]
        assert maximize_unimodal(f) == loop_maximize(f)

    @pytest.mark.parametrize("name", sorted(OBJECTIVES))
    def test_reaches_the_dense_brute_force_maximum(self, name):
        f = OBJECTIVES[name]
        x, value = maximize_unimodal(f)
        assert 0.0 <= x <= 1.0 and value == f(x)
        assert value >= max(f(d) for d in DENSE)

    def test_ends_are_evaluated_after_the_search(self):
        # a monotone objective peaks at an end, which golden section never visits
        assert maximize_unimodal(lambda x: 1.0 - x) == (0.0, 1.0)
        assert maximize_unimodal(lambda x: x) == (1.0, 1.0)

    def test_the_midpoint_wins_ties_and_zero_beats_one(self):
        seen = []
        x, value = maximize_unimodal(lambda d: seen.append(d) or 0.25)
        assert (x, value) == (seen[-3], 0.25) and 0.0 < x < 1.0
        assert maximize_unimodal(lambda d: 1.0 if d in (0.0, 1.0) else 0.0) == (0.0, 1.0)

    @pytest.mark.parametrize("ends", [math.nan, 2.0, -1.0])
    def test_nan_at_the_midpoint_is_never_beaten(self, ends):
        x, value = maximize_unimodal(lambda d: ends if d in (0.0, 1.0) else math.nan)
        assert math.isnan(value) and 0.0 < x < 1.0

    @pytest.mark.parametrize("peak", [0.123456789, 0.5, 0.87654321])
    def test_refines_to_within_the_tolerance(self, peak):
        # a kink at the peak: golden-section brackets it to MAXIMIZE_TOL
        assert optimize.MAXIMIZE_TOL == 1e-12

        def kink(x):
            return -abs(x - peak)

        x, fx = maximize_unimodal(kink)
        assert abs(x - peak) <= optimize.MAXIMIZE_TOL
        assert fx == -abs(x - peak)


FINITE_ROOTS = {
    "linear": (lambda x: x - 0.3, 0.0, 1.0),
    "cubic": (lambda x: x**3 - 0.2, 0.0, 1.0),
    "root_at_lo": (lambda x: x, 0.0, 1.0),
    "root_at_hi": (lambda x: x - 1.0, 0.0, 1.0),
    "midpoint_root": (lambda x: x - 0.5, 0.0, 1.0),
    "decreasing": (lambda x: math.cos(x), 0.0, 3.0),
}


def recorded(f, calls):
    def g(x):
        calls.append(x)
        return f(x)

    return g


class TestBisectRoot:
    @pytest.mark.parametrize("name", sorted(FINITE_ROOTS))
    def test_finite_f_takes_the_reference_steps(self, name):
        f, lo, hi = FINITE_ROOTS[name]
        got_calls, want_calls = [], []
        got = bisect_root(recorded(f, got_calls), lo, hi)
        want = loop_bisect(recorded(f, want_calls), lo, hi)
        assert repr(got) == repr(want)
        assert got_calls == want_calls

    def test_no_sign_change_raises(self):
        with pytest.raises(InfeasibleVariantError, match="sign change"):
            bisect_root(lambda x: x + 1.0, 0.0, 1.0)

    @pytest.mark.parametrize("nan_at", ["lo", "hi", "both"])
    def test_nan_endpoint_raises(self, nan_at):
        lo, hi = 0.0, 1.0

        def f(x):
            if (x == lo and nan_at != "hi") or (x == hi and nan_at != "lo"):
                return math.nan
            return x - 0.3

        with pytest.raises(InfeasibleVariantError, match="NaN"):
            bisect_root(f, lo, hi)

    def test_nan_at_root_endpoint_still_raises(self):
        # f(lo) == 0 would return lo, but f(hi) is NaN
        with pytest.raises(InfeasibleVariantError, match="NaN"):
            bisect_root(lambda x: x if x < 1.0 else math.nan, 0.0, 1.0)

    @pytest.mark.parametrize("window", [(0.45, 0.55), (0.2, 0.26), (0.3, 0.3 + 1e-9)])
    def test_nan_midpoint_raises(self, window):
        def f(x):
            return math.nan if window[0] <= x <= window[1] else x - 0.3

        with pytest.raises(InfeasibleVariantError, match="NaN"):
            bisect_root(f, 0.0, 1.0)


class TestSqrt2QuadraticRoot:
    def test_balanced_fair_point(self):
        # 4 x^2 + 4 x - 1 = 0 has roots (-1 -/+ sqrt2)/2
        root = sqrt2_quadratic_root(((4, 0), (4, 0), (-1, 0)), Fraction(0), Fraction(1, 2))
        assert repr(root) == "0.20710678118654752"

    @pytest.mark.parametrize("lo, hi, shift", [(0, 1, 1), (2, 3, -1)])
    def test_sqrt2_coefficients_give_the_nearest_float(self, lo, hi, shift):
        # x^2 - 2 sqrt2 x + 1 = 0 has roots sqrt2 -/+ 1, where (x + shift)^2 = 2;
        # that changes sign between the midpoints from the root's float to
        # its neighbours (math.sqrt(2) - 1 is not the nearest float)
        x = sqrt2_quadratic_root(((1, 0), (0, -2), (1, 0)), Fraction(lo), Fraction(hi))
        below = (Fraction(x) + Fraction(math.nextafter(x, -math.inf))) / 2
        above = (Fraction(x) + Fraction(math.nextafter(x, math.inf))) / 2
        assert (below + shift) ** 2 < 2 < (above + shift) ** 2
        if shift == 1:
            assert repr(x) == "0.41421356237309503" and x != math.sqrt(2) - 1

    def test_negative_leading_coefficient(self):
        # -(x^2 - 1/4) has roots -/+ 1/2, exact floats
        assert sqrt2_quadratic_root(((-4, 0), (0, 0), (1, 0)), Fraction(0), Fraction(1)) == 0.5

    @pytest.mark.parametrize(
        "lo, hi, message",
        [
            (Fraction(-2), Fraction(1), "one outside"),  # both roots inside
            (Fraction(1), Fraction(2), "one outside"),  # neither root inside
        ],
    )
    def test_refuses_unless_exactly_one_root_inside(self, lo, hi, message):
        # roots (-1 -/+ sqrt2)/2: about -1.207 and 0.2071
        with pytest.raises(CrossCheckError, match=message):
            sqrt2_quadratic_root(((4, 0), (4, 0), (-1, 0)), lo, hi)

    @pytest.mark.parametrize("coeffs", [((1, 0), (0, 0), (1, 0)), ((1, 0), (2, 0), (1, 0)), ((0, 0), (1, 0), (1, 0))])
    def test_refuses_without_two_separated_real_roots(self, coeffs):
        # x^2 + 1 (complex), (x + 1)^2 (double), x + 1 (not quadratic)
        with pytest.raises(CrossCheckError, match="no two separated real roots"):
            sqrt2_quadratic_root(coeffs, Fraction(-2), Fraction(2))

    def test_refuses_a_root_on_a_rounding_boundary(self):
        # 2^53 x^2 - x - (2^53 + 1) = (x - (1 + 2^-53)) 2^53 (x + 1): the root
        # is the midpoint of 1 and its float successor, so no float is nearest
        coeffs = ((2**53, 0), (-1, 0), (-(2**53) - 1, 0))
        with pytest.raises(CrossCheckError, match="spans a rounding boundary"):
            sqrt2_quadratic_root(coeffs, Fraction(0), Fraction(2))


def reference_root_enclosures(coeffs):
    """The enclosures as min and max of all four bound quotients per root."""
    (x2, y2), (x1, y1), (x0, y0) = coeffs
    disc = optimize._scaled(
        x1 * x1 + 2 * y1 * y1 - 4 * (x2 * x0 + 2 * y2 * y0), 2 * x1 * y1 - 4 * (x2 * y0 + x0 * y2)
    )
    den = optimize._scaled(2 * x2, 2 * y2)
    if disc[0] <= 0 or den[0] <= 0 <= den[1]:
        return None
    scale = optimize._SCALE
    r = (math.isqrt(disc[0] * scale), math.isqrt(disc[1] * scale) + 1)
    b = optimize._scaled(-x1, -y1)
    roots = []
    for num in ((b[0] + r[0], b[1] + r[1]), (b[0] - r[1], b[1] - r[0])):
        quotients = [Fraction(n, d) for n in num for d in den]
        roots.append((min(quotients), max(quotients)))
    return roots


def reference_sqrt2_quadratic_root(coeffs, lo, hi):
    """The root picked and rounded through Fraction enclosures."""
    roots = reference_root_enclosures(coeffs)
    if roots is None:
        raise CrossCheckError(f"the quadratic {coeffs} has no two separated real roots")
    inside = [(a, b) for a, b in roots if lo <= a and b <= hi]
    outside = [(a, b) for a, b in roots if b < lo or a > hi]
    if len(inside) != 1 or len(outside) != 1:
        raise CrossCheckError(f"expected one root of {coeffs} in [{lo}, {hi}] and one outside")
    a, b = inside[0]
    if float(a) != float(b):
        raise CrossCheckError(f"root enclosure [{float(a)!r}, {float(b)!r}] spans a rounding boundary")
    return float(a)


def root_or_error(f, coeffs, lo, hi):
    try:
        return f(coeffs, lo, hi).hex()
    except CrossCheckError as exc:
        return str(exc)


def enclosures_as_fractions(coeffs):
    """`_root_enclosures` with each integer quotient read as a Fraction,
    after checking that every quotient is an int pair with a positive denominator."""
    roots = optimize._root_enclosures(coeffs)
    ends = [end for root in roots for end in root]
    assert all(type(num) is int and type(den) is int and den > 0 for num, den in ends)
    return [(Fraction(*lo), Fraction(*hi)) for lo, hi in roots]


def enclosures_or_none(coeffs):
    try:
        return enclosures_as_fractions(coeffs)
    except CrossCheckError:
        return None


_Z_SQRT2 = st.tuples(st.integers(-(10**6), 10**6), st.integers(-(10**6), 10**6))
_BIG_Z_SQRT2 = st.tuples(st.integers(-(2**90), 2**90), st.integers(-(2**90), 2**90))


class TestRootEnclosures:
    """Two integer quotients per root give the four-quotient min and max exactly."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(coeffs=st.one_of(st.tuples(*[_Z_SQRT2] * 3), st.tuples(*[_BIG_Z_SQRT2] * 3)))
    def test_random_quadratics_match_the_reference(self, coeffs):
        assert enclosures_or_none(coeffs) == reference_root_enclosures(coeffs)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        coeffs=st.tuples(*[_Z_SQRT2] * 3),
        ends=st.lists(st.fractions(min_value=-50, max_value=50, max_denominator=10**6), min_size=2, max_size=2),
    )
    def test_root_matches_the_fraction_route(self, coeffs, ends):
        # the same float, or the same CrossCheckError message
        lo, hi = sorted(ends)
        want = root_or_error(reference_sqrt2_quadratic_root, coeffs, lo, hi)
        assert root_or_error(sqrt2_quadratic_root, coeffs, lo, hi) == want

    @pytest.mark.parametrize(
        "coeffs",
        [((4, 0), (4, 0), (-1, 0)), ((-3, 1), (0, -2), (7, 0)), ((1, 0), (0, -2), (1, 0))],
    )
    def test_window_ends_at_the_enclosure_ends(self, coeffs):
        # lo and hi exactly at, or 1e-60 either side of, each end of each
        # enclosure: the integer comparisons decide as the Fraction ones do
        ends = [end for root in reference_root_enclosures(coeffs) for end in root]
        near = sorted({end + k * Fraction(1, 10**60) for end in ends for k in (-1, 0, 1)})
        far_lo, far_hi = near[0] - 1, near[-1] + 1
        for edge in near:
            for lo, hi in ((edge, far_hi), (far_lo, edge), (edge, edge)):
                want = root_or_error(reference_sqrt2_quadratic_root, coeffs, lo, hi)
                assert root_or_error(sqrt2_quadratic_root, coeffs, lo, hi) == want, (lo, hi)

    @pytest.mark.parametrize(
        "coeffs",
        [
            ((-4, 0), (0, 0), (1, 0)),  # -(4 x^2 - 1): roots -/+ 1/2
            ((-4, 0), (4, 0), (1, 0)),  # roots (1 -/+ sqrt2)/2, one of each sign
            ((1, -1), (3, 1), (-2, 5)),  # a2 = 1 - sqrt2 < 0
            ((-3, 1), (0, -2), (7, 0)),  # a2 = sqrt2 - 3 < 0
            ((-(2**60), 3), (2**59, -(2**58)), (2**61, 1)),
        ],
    )
    def test_negative_denominator_enclosure(self, coeffs):
        (x2, y2), _, _ = coeffs
        assert optimize._scaled(2 * x2, 2 * y2)[1] < 0
        roots = enclosures_as_fractions(coeffs)
        assert roots == reference_root_enclosures(coeffs)
        assert all(lo < hi for lo, hi in roots)

    @pytest.mark.parametrize(
        "coeffs",
        [
            ((4, 0), (4, 0), (-1, 0)),  # roots of both signs
            ((1, 0), (0, -2), (1, 0)),  # both roots positive
            ((1, 0), (5, 1), (2, 0)),  # both roots negative
            ((0, 1), (1, 0), (-1, 0)),  # a2 = sqrt2
        ],
    )
    def test_positive_denominator_enclosure(self, coeffs):
        (x2, y2), _, _ = coeffs
        assert optimize._scaled(2 * x2, 2 * y2)[0] > 0
        assert enclosures_as_fractions(coeffs) == reference_root_enclosures(coeffs)


class TestCertifySignChange:
    @pytest.mark.parametrize("slope", [1.0, -1.0])
    def test_accepts_a_sign_change(self, slope):
        certify_sign_change(lambda x: slope * (x - 0.25), 0.25)

    @pytest.mark.parametrize(
        "residual",
        [
            lambda x: x - 0.25 + 1e-11,  # root moved below
            lambda x: x - 0.25 - 1e-11,  # root moved above
            lambda x: 0.0,
            lambda x: math.nan,
        ],
    )
    def test_refuses_anything_else(self, residual):
        with pytest.raises(CrossCheckError, match="do not bracket"):
            certify_sign_change(residual, 0.25)

    def test_probes_one_step_either_side(self):
        seen = []
        certify_sign_change(lambda x: seen.append(x) or x - 0.5, 0.5)
        assert seen == [0.5 - 1e-12, 0.5 + 1e-12]
