"""Golden-section maximization on [0, 1] (plain floats, both ends checked),
bracketing bisection, and the exact Q(sqrt2) quadratic root, checked against
the definition of correct rounding, with its float sign-change certificate."""

import math
from decimal import Decimal, localcontext
from fractions import Fraction
from math import nextafter

import pytest

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qdice import optimize
from qdice.errors import CrossCheckError, ParameterRangeError
from qdice.optimize import bisect_root, certify_sign_change, maximize_unimodal, sqrt2_quadratic_root

INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0  # the golden section's shrink factor


def loop_maximize(f, tol=1e-12):
    """The reference search on [0, 1]: golden section, then the midpoint
    against both ends, kept only where an end is strictly better."""
    a, b = 0.0, 1.0
    c = b - INV_PHI * (b - a)
    d = a + INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - INV_PHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + INV_PHI * (b - a)
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
        raise ParameterRangeError("no sign change")
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
        with pytest.raises(ParameterRangeError, match="sign change"):
            bisect_root(lambda x: x + 1.0, 0.0, 1.0)

    @pytest.mark.parametrize("nan_at", ["lo", "hi", "both"])
    def test_nan_endpoint_raises(self, nan_at):
        lo, hi = 0.0, 1.0

        def f(x):
            if (x == lo and nan_at != "hi") or (x == hi and nan_at != "lo"):
                return math.nan
            return x - 0.3

        with pytest.raises(ParameterRangeError, match="NaN"):
            bisect_root(f, lo, hi)

    def test_nan_at_root_endpoint_still_raises(self):
        # f(lo) == 0 would return lo, but f(hi) is NaN
        with pytest.raises(ParameterRangeError, match="NaN"):
            bisect_root(lambda x: x if x < 1.0 else math.nan, 0.0, 1.0)

    @pytest.mark.parametrize("window", [(0.45, 0.55), (0.2, 0.26), (0.3, 0.3 + 1e-9)])
    def test_nan_midpoint_raises(self, window):
        def f(x):
            return math.nan if window[0] <= x <= window[1] else x - 0.3

        with pytest.raises(ParameterRangeError, match="NaN"):
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


def _mul(a, b):
    """(x + y sqrt2)(u + v sqrt2) as a rational pair."""
    return a[0] * b[0] + 2 * a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def _pair_sign(x, y):
    """The sign of x + y sqrt2 for rational x and y."""
    if x * y >= 0:
        return (x + y > 0) - (x + y < 0)
    return (1 if x > 0 else -1) * (1 if x * x > 2 * y * y else -1)


def _disc(coeffs):
    """a1^2 - 4 a2 a0 as a pair."""
    a2, a1, a0 = coeffs
    return tuple(p - 4 * q for p, q in zip(_mul(a1, a1), _mul(a2, a0)))


def exact_sign(coeffs, x):
    """The sign of a2 x^2 + a1 x + a0 at a rational or float x, in Fraction arithmetic."""
    x = Fraction(x)
    value = (Fraction(0), Fraction(0))
    for a in coeffs:  # Horner: value * x + a
        value = (value[0] * x + a[0], value[1] * x + a[1])
    return _pair_sign(*value)


def definition_root(coeffs, lo, hi):
    """The correctly rounded root in [lo, hi], from its definition alone,
    or the phrase of the refusal the kernel owes.

    Bisection over floats with exact Fraction signs finds the adjacent
    floats u < v around the sign change, and the exact sign at their
    midpoint picks the nearer one; a zero there is a tie. Returns None when
    the float nearest lo or hi already lies past the root, which no drawn
    window below reaches.
    """
    if _pair_sign(*coeffs[0]) == 0 or _pair_sign(*_disc(coeffs)) <= 0:
        return "no two separated real roots"
    s = exact_sign(coeffs, hi)
    if not lo < hi or exact_sign(coeffs, lo) * s >= 0:
        return "one outside"
    u, v = float(lo), float(hi)
    if exact_sign(coeffs, u) != -s:  # lo rounded past the root
        u = nextafter(u, -math.inf)
    if exact_sign(coeffs, v) != s:
        v = nextafter(v, math.inf)
    if exact_sign(coeffs, u) != -s or exact_sign(coeffs, v) != s:
        return None
    while nextafter(u, math.inf) < v:
        m = u / 2 + v / 2
        if not u < m < v:
            m = nextafter(u, math.inf)
        side = exact_sign(coeffs, m)
        if side == 0:
            return m
        u, v = (u, m) if side == s else (m, v)
    side = exact_sign(coeffs, (Fraction(u) + Fraction(v)) / 2)
    return "spans a rounding boundary" if side == 0 else (u if side == s else v)


def kernel_root(coeffs, lo, hi):
    """`sqrt2_quadratic_root`'s float, or the definition's phrase that its refusal names."""
    try:
        return sqrt2_quadratic_root(coeffs, lo, hi)
    except CrossCheckError as exc:
        phrases = ["no two separated real roots", "one outside", "spans a rounding boundary"]
        (phrase,) = [p for p in phrases if p in str(exc)]
        return phrase


def satisfies_the_definition(coeffs, lo, hi, x):
    """Opposite exact signs at lo < hi, and the sign change between the
    exact midpoints from x to its two float neighbours, in that direction."""
    s = exact_sign(coeffs, hi)
    below = (Fraction(x) + Fraction(nextafter(x, -math.inf))) / 2
    above = (Fraction(x) + Fraction(nextafter(x, math.inf))) / 2
    return lo < hi and exact_sign(coeffs, lo) == exact_sign(coeffs, below) == -s and exact_sign(coeffs, above) == s


def near_a_rounding_boundary(coeffs, hi, x):
    """Whether the root that rounds to x lies within 4 E of a midpoint from
    x to its neighbours, where E bounds the error of the kernel's
    fixed-point approximation of the root. With e = 1 + |disc_y| / sqrt(disc),
    the error of its root of the discriminant, E = (|y1| + e + 2 |x y2|) /
    (|a2| 2**128) for (-a1 + s sqrt(disc)) / (2 a2), and E = (2 |y0| +
    |x| (|y1| + e)) / ((|a1| + sqrt(disc)) 2**128) for the stable form
    2 a0 / (-a1 - s sqrt(disc)) that it takes where the first would cancel."""
    (x2, y2), (x1, y1), (_, y0) = coeffs
    disc_x, disc_y = _disc(coeffs)
    s = exact_sign(coeffs, hi)
    with localcontext() as ctx:
        ctx.prec = 200
        sqrt2 = Decimal(2).sqrt()
        sqrt_disc = (disc_x + disc_y * sqrt2).sqrt()
        e = 1 + abs(disc_y) / sqrt_disc
        if _pair_sign(x1, y1) == s:
            error = (2 * abs(y0) + abs(Decimal(x)) * (abs(y1) + e)) / (abs(x1 + y1 * sqrt2) + sqrt_disc)
        else:
            error = (abs(y1) + e + 2 * abs(Decimal(x) * y2)) / abs(x2 + y2 * sqrt2)
        delta = Fraction(4 * error / 2**128)
    below = (Fraction(x) + Fraction(nextafter(x, -math.inf))) / 2
    above = (Fraction(x) + Fraction(nextafter(x, math.inf))) / 2
    return exact_sign(coeffs, below + delta) == s or exact_sign(coeffs, above - delta) == -s


def matches_the_definition(coeffs, lo, hi):
    """None when the reference cannot decide; else whether the kernel gives
    the definition's float or refusal. Its float must satisfy the
    definition, and it may refuse a float of the definition only as a root
    within its approximation error of a rounding boundary."""
    got, want = kernel_root(coeffs, lo, hi), definition_root(coeffs, lo, hi)
    if want is None:
        return None
    if isinstance(got, float):
        return got == want and satisfies_the_definition(coeffs, lo, hi, got)
    if got == "spans a rounding boundary" and isinstance(want, float):
        return near_a_rounding_boundary(coeffs, hi, want)
    return got == want


_Z_SQRT2 = st.tuples(st.integers(-(10**6), 10**6), st.integers(-(10**6), 10**6))
_BIG_Z_SQRT2 = st.tuples(st.integers(-(2**90), 2**90), st.integers(-(2**90), 2**90))
_COEFFS = st.one_of(st.tuples(*[_Z_SQRT2] * 3), st.tuples(*[_BIG_Z_SQRT2] * 3))


@st.composite
def _window_around_a_root(draw):
    """Coefficients with two real roots, and a window about one of them,
    1e-14 to 1e6 wide relative to it."""
    coeffs = draw(_COEFFS)
    (x2, y2), (x1, y1), (x0, y0) = coeffs
    a2, a1, a0 = x2 + y2 * math.sqrt(2), x1 + y1 * math.sqrt(2), x0 + y0 * math.sqrt(2)
    disc = a1 * a1 - 4 * a2 * a0
    assume(a2 != 0 and disc > 0)
    root = (-a1 + draw(st.sampled_from([-1, 1])) * math.sqrt(disc)) / (2 * a2)
    width = 10 ** draw(st.floats(-14, 6)) * max(1.0, abs(root))
    below = draw(st.floats(0, 1)) * width
    return coeffs, Fraction(root) - Fraction(below), Fraction(root) + Fraction(width - below)


class TestRootByDefinition:
    """`sqrt2_quadratic_root` against its definition, decided with Fraction signs."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        coeffs=_COEFFS,
        ends=st.lists(st.fractions(min_value=-50, max_value=50, max_denominator=10**6), min_size=2, max_size=2),
    )
    def test_random_windows(self, coeffs, ends):
        lo, hi = sorted(ends)
        verdict = matches_the_definition(coeffs, lo, hi)
        assume(verdict is not None)
        assert verdict

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(case=_window_around_a_root())
    def test_windows_around_a_root(self, case):
        verdict = matches_the_definition(*case)
        assume(verdict is not None)
        assert verdict

    @pytest.mark.parametrize(
        "coeffs",
        [
            ((-4, 0), (0, 0), (1, 0)),  # -(4 x^2 - 1): roots -/+ 1/2
            ((3, 0), (5, 0), (-2, 0)),  # (3 x - 1)(x + 2): roots 1/3 and -2
            ((2**53, 0), (-1, 0), (-(2**53) - 1, 0)),  # roots -1 and 1 + 2^-53, a float midpoint
        ],
    )
    def test_windows_that_end_at_a_rational_root(self, coeffs):
        # a zero at an end is no sign change: the window is refused, as by the definition
        roots = {Fraction(-1, 2), Fraction(1, 2), Fraction(1, 3), Fraction(-2), Fraction(-1), 1 + Fraction(1, 2**53)}
        for root in (r for r in roots if exact_sign(coeffs, r) == 0):
            for lo, hi in ((root, root + 1), (root - 1, root), (root - 1, root + 1)):
                assert matches_the_definition(coeffs, lo, hi)
                if lo == root or hi == root:
                    assert kernel_root(coeffs, lo, hi) == "one outside"

    @pytest.mark.parametrize(
        "coeffs, lo, hi",
        [
            (((4, 0), (4, 0), (-1, 0)), Fraction(0), Fraction(1, 2)),  # roots (-1 -/+ sqrt2)/2
            (((1, 0), (0, -2), (1, 0)), Fraction(0), Fraction(1)),  # roots sqrt2 -/+ 1
            (((1, 0), (0, -2), (1, 0)), Fraction(2), Fraction(3)),
            (((-3, 1), (0, -2), (7, 0)), Fraction(0), Fraction(2)),  # a2 = sqrt2 - 3 < 0
        ],
    )
    def test_windows_that_end_at_a_float_midpoint(self, coeffs, lo, hi):
        # the root lies between the midpoints from its float to the neighbours:
        # a window that ends at one keeps the root or loses it, decided exactly
        x = sqrt2_quadratic_root(coeffs, lo, hi)
        below = (Fraction(x) + Fraction(nextafter(x, -math.inf))) / 2
        above = (Fraction(x) + Fraction(nextafter(x, math.inf))) / 2
        windows = {(below, hi): x, (lo, above): x, (above, hi): "one outside", (lo, below): "one outside"}
        for (w_lo, w_hi), want in windows.items():
            assert matches_the_definition(coeffs, w_lo, w_hi)
            assert kernel_root(coeffs, w_lo, w_hi) == want

    @pytest.mark.parametrize(
        "coeffs, lo, hi, root",
        [
            (((0, 1), (0, 5), (0, 0)), Fraction(-1), Fraction(1), 0.0),  # sqrt2 (x^2 + 5 x): roots 0 and -5
            (((0, 1), (0, -5), (0, 0)), Fraction(-1), Fraction(1), 0.0),  # sqrt2 (x^2 - 5 x): roots 0 and 5
            (((1, 0), (-(10**12), 0), (1, 0)), Fraction(0), Fraction(1), None),  # roots near 1e-12 and 1e12
            (((0, 1), (10**30, 0), (0, -1)), Fraction(-1), Fraction(1), None),  # sqrt2 x^2 + 1e30 x - sqrt2
        ],
    )
    def test_a_root_tiny_against_its_coefficients(self, coeffs, lo, hi, root):
        # -a1 and s sqrt(disc) cancel to the root's own tiny size, which the
        # 2**-128 fixed point of (-a1 + s sqrt(disc)) / (2 a2) cannot resolve
        x = sqrt2_quadratic_root(coeffs, lo, hi)
        assert matches_the_definition(coeffs, lo, hi)
        if root is not None:
            assert x == root
        if x == 0.0:
            assert math.copysign(1.0, x) == 1.0  # an exact zero is +0.0

    @pytest.mark.parametrize("side", ["lo", "hi"])
    def test_a_window_end_1e_60_from_the_root_is_decided(self, side):
        # (sqrt2 - 1)/2 lies within 5e-61 of these rationals, far inside any
        # float's rounding interval, and the exact signs still place it
        near = [Fraction(math.isqrt(2 * 10**120) + k - 10**60, 2 * 10**60) for k in (0, 1)]
        lo, hi = (near[0], Fraction(1, 2)) if side == "lo" else (Fraction(0), near[1])
        assert kernel_root(((4, 0), (4, 0), (-1, 0)), lo, hi) == 0.20710678118654752
        assert matches_the_definition(((4, 0), (4, 0), (-1, 0)), lo, hi)
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
