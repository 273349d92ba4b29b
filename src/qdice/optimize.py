"""Scalar solvers: golden-section search, bisection, and exact quadratic
roots over Q(sqrt 2) with a float sign-change certificate.

The package maximizes one kind of objective: the weak-CF cheat over the
split delta in [0, 1]. That objective is the square of a concave,
non-negative function, so it is unimodal on the whole interval, and
golden-section search over [0, 1] finds its maximum from any (p, eta)
without a seeding grid. The search never visits the interval's ends, so
`maximize_unimodal` also evaluates f at 0 and 1, where the maximum lies
when the objective is monotone. Everything is plain Python floats. A
search makes 63 evaluations of f for every f: 2 initial probes, 58
bracket steps, the final midpoint and the 2 ends. It calls f directly and
checks nothing itself: the caller checks the objective's fixed inputs once
before the search (`weak_cf._objective` checks A and B and returns the
per-delta function).

`sqrt2_quadratic_root` returns the correctly rounded root of a quadratic
with coefficients in Z[sqrt 2], each step decided by an exact sign, and
`certify_sign_change` checks such a root against a float residual computed
by an independent route.
"""

from __future__ import annotations

from fractions import Fraction
from math import inf, isnan, isqrt, nextafter, sqrt
from typing import Callable, Sequence

from .errors import CrossCheckError, InfeasibleVariantError

_INV_PHI = (sqrt(5.0) - 1.0) / 2.0
MAXIMIZE_TOL = 1e-12  # golden-section search stops below this bracket width


def maximize_unimodal(f: Callable[[float], float]) -> tuple[float, float]:
    """Maximize a unimodal function on [0, 1].

    Golden-section search narrows [0, 1] until the bracket is narrower than
    MAXIMIZE_TOL, calling `f` with a single Python float each time: 63
    calls in all, whatever f returns. Returns
    (argmax, max) for the best of the final bracket's midpoint, 0.0 and 1.0;
    the midpoint wins ties, and 0.0 wins a tie with 1.0. A NaN at the
    midpoint is never beaten, so it makes the result NaN.
    """
    inv_phi, tol = _INV_PHI, MAXIMIZE_TOL  # locals: read once per call, not once per probe
    a, b = 0.0, 1.0
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    best = (x, f(x))
    for end in (0.0, 1.0):
        value = f(end)
        if value > best[1]:  # False against a NaN midpoint
            best = (end, value)
    return best


def bisect_root(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float = 1e-12,
    max_iter: int = 200,
) -> float:
    """Find a root of f on [lo, hi] by bracketing bisection.

    Raises InfeasibleVariantError when f(lo) and f(hi) have the same sign,
    or when f is NaN at either end or at any midpoint.
    """
    flo, fhi = f(lo), f(hi)
    if isnan(flo) or isnan(fhi):
        raise InfeasibleVariantError(f"f is NaN on [{lo}, {hi}]: f(lo)={flo}, f(hi)={fhi}")
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        raise InfeasibleVariantError(
            f"no sign change on [{lo}, {hi}]: f(lo)={flo:.6g}, f(hi)={fhi:.6g}"
        )
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        if isnan(fmid):
            raise InfeasibleVariantError(f"f is NaN at {mid!r} on [{lo}, {hi}]")
        if fmid == 0.0 or hi - lo < tol:
            return mid
        if flo * fmid < 0.0:
            hi = mid
        else:
            lo, flo = mid, fmid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# Exact roots over Q(sqrt 2)
# ---------------------------------------------------------------------------

CERTIFY_STEP = 1e-12  # a certified root's float residual changes sign across x -/+ this
_ONE = 1 << 128  # fixed-point scale of the root's approximation: about 2.9e-39
_SQRT2 = isqrt(2 * _ONE * _ONE)  # sqrt2 * _ONE, rounded down


def _sign(p: int, q: int) -> int:
    """The sign of p + q sqrt2 for integers p and q, exactly."""
    if p * q >= 0:  # p and q agree in sign, or one of them is 0
        return (p + q > 0) - (p + q < 0)
    # they differ: p^2 against 2 q^2 decides, never equal as sqrt2 is irrational
    return 1 if (p > 0) == (p * p > 2 * q * q) else -1


def _sign_at(coeffs: Sequence[tuple[int, int]], num: int, den: int) -> int:
    """The exact sign of a2 x^2 + a1 x + a0 at x = num/den, for den > 0."""
    (x2, y2), (x1, y1), (x0, y0) = coeffs
    nn, nd, dd = num * num, num * den, den * den
    return _sign(x2 * nn + x1 * nd + x0 * dd, y2 * nn + y1 * nd + y0 * dd)


def sqrt2_quadratic_root(coeffs: Sequence[tuple[int, int]], lo: Fraction, hi: Fraction) -> float:
    """The root in [lo, hi] of a2 x^2 + a1 x + a0 = 0, correctly rounded.

    coeffs holds integer pairs (x, y) = x + y sqrt2 for a2, a1, a0; lo < hi
    are rational. Exact signs refuse, with CrossCheckError, a2 = 0, a
    discriminant <= 0, and a window without opposite signs at lo and hi
    (so exactly one root inside). That root, where the sign turns to s, the
    sign at hi, is (-a1 + s sqrt(disc)) / (2 a2), or, where -a1 and
    s sqrt(disc) would cancel, the stable 2 a0 / (-a1 - s sqrt(disc)); it is
    approximated at scale 2**128 and rounded by int true division, and an
    exact zero is returned as +0.0. The float is returned only if
    the quadratic turns to s between the exact midpoints to its two float
    neighbours, which is what correctly rounded means; else CrossCheckError.
    """
    (x2, y2), (x1, y1), (x0, y0) = coeffs
    disc_x = x1 * x1 + 2 * y1 * y1 - 4 * (x2 * x0 + 2 * y2 * y0)  # a1^2 - 4 a2 a0, exact in Z[sqrt2]
    disc_y = 2 * x1 * y1 - 4 * (x2 * y0 + x0 * y2)
    if _sign(x2, y2) == 0 or _sign(disc_x, disc_y) <= 0:
        raise CrossCheckError(f"the quadratic {coeffs} has no two separated real roots")
    lo_num, lo_den, hi_num, hi_den = lo.numerator, lo.denominator, hi.numerator, hi.denominator
    s = _sign_at(coeffs, hi_num, hi_den)
    if lo_num * hi_den >= hi_num * lo_den or _sign_at(coeffs, lo_num, lo_den) * s >= 0:
        raise CrossCheckError(f"expected one root of {coeffs} in [{lo}, {hi}] and one outside")
    sqrt_disc = isqrt(max(disc_x * _ONE + disc_y * _SQRT2, 0) * _ONE)
    minus_a1 = -x1 * _ONE - y1 * _SQRT2
    if _sign(x1, y1) == s:
        # -a1 and s sqrt(disc) cancel, so the same root is taken as
        # 2 a0 / (-a1 - s sqrt(disc)); adding 0.0 turns an exact zero's -0.0 into +0.0
        root = 2 * (x0 * _ONE + y0 * _SQRT2) / (minus_a1 - s * sqrt_disc) + 0.0
    else:
        root = (minus_a1 + s * sqrt_disc) / (2 * (x2 * _ONE + y2 * _SQRT2))
    a, b = root.as_integer_ratio()
    for neighbour, sign in ((nextafter(root, -inf), -s), (nextafter(root, inf), s)):
        c, d = neighbour.as_integer_ratio()
        if _sign_at(coeffs, a * d + c * b, 2 * b * d) != sign:  # at (root + neighbour) / 2
            raise CrossCheckError(f"the root near {root!r} spans a rounding boundary")
    return root


def certify_sign_change(residual: Callable[[float], float], x: float) -> None:
    """Raise CrossCheckError unless residual changes sign across x -/+ CERTIFY_STEP.

    A zero or NaN on either side fails the check.
    """
    below, above = residual(x - CERTIFY_STEP), residual(x + CERTIFY_STEP)
    if not below * above < 0.0:  # fails closed on NaN
        raise CrossCheckError(
            f"residual {below!r} at x - {CERTIFY_STEP} and {above!r} at x + {CERTIFY_STEP} "
            f"do not bracket x = {x!r}"
        )
