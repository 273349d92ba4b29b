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
whose coefficients lie in Z[sqrt 2], and `certify_sign_change` checks such
a root against a float residual computed by an independent route.
"""

from __future__ import annotations

from fractions import Fraction
from math import isnan, isqrt, sqrt
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
_SCALE = 1 << 128  # fixed-point scale of the root enclosures: about 2.9e-39
_SQRT2 = (isqrt(2 * _SCALE * _SCALE), isqrt(2 * _SCALE * _SCALE) + 1)  # bound sqrt(2) * _SCALE


def _scaled(x: int, y: int) -> tuple[int, int]:
    """Integers below and above (x + y sqrt2) * _SCALE."""
    lo, hi = x * _SCALE + y * _SQRT2[0], x * _SCALE + y * _SQRT2[1]
    return (lo, hi) if y >= 0 else (hi, lo)


def _root_enclosures(coeffs: Sequence[tuple[int, int]]) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """Rational enclosures of both roots of a2 x^2 + a1 x + a0 = 0.

    coeffs holds integer pairs (x, y) = x + y sqrt2 for a2, a1, a0. The
    discriminant is exact in Z[sqrt2]; sqrt2 and the square root of the
    discriminant are bounded with `math.isqrt` at scale 2**128, so each
    interval holds its exact root and is about 1e-38 wide relative to the
    coefficients. The enclosure of 2 a2 is brought to positive sign, so the
    sign of each numerator bound picks the denominator bound that gives the
    lower and the upper quotient, equal to the min and max of all four.
    Each root comes as ((lo_num, lo_den), (hi_num, hi_den)), unreduced
    integer quotients with positive denominators. Raises CrossCheckError
    unless there are two separated real roots.
    """
    (x2, y2), (x1, y1), (x0, y0) = coeffs
    # a1^2 - 4 a2 a0, exact in Z[sqrt2]
    disc = _scaled(
        x1 * x1 + 2 * y1 * y1 - 4 * (x2 * x0 + 2 * y2 * y0), 2 * x1 * y1 - 4 * (x2 * y0 + x0 * y2)
    )
    den = _scaled(2 * x2, 2 * y2)
    if disc[0] <= 0 or den[0] <= 0 <= den[1]:
        raise CrossCheckError(f"the quadratic {coeffs} has no two separated real roots")
    r = (isqrt(disc[0] * _SCALE), isqrt(disc[1] * _SCALE) + 1)  # bound sqrt(disc) * _SCALE
    b = _scaled(-x1, -y1)
    nums = ((b[0] + r[0], b[1] + r[1]), (b[0] - r[1], b[1] - r[0]))
    if den[0] < 0:  # negate the whole quotient: both ends swap and change sign
        den = (-den[1], -den[0])
        nums = tuple((-hi, -lo) for lo, hi in nums)
    d_lo, d_hi = den
    return [
        ((lo, d_hi if lo >= 0 else d_lo), (hi, d_lo if hi >= 0 else d_hi))
        for lo, hi in nums
    ]


def sqrt2_quadratic_root(coeffs: Sequence[tuple[int, int]], lo: Fraction, hi: Fraction) -> float:
    """The root in [lo, hi] of a2 x^2 + a1 x + a0 = 0, correctly rounded.

    coeffs holds integer pairs (x, y) = x + y sqrt2 for a2, a1, a0; lo and
    hi are rational. Exactly one root must lie in [lo, hi] and the other
    outside it, and both ends of its enclosure must round to the same
    float; otherwise CrossCheckError. No Fraction is built: the integer
    enclosure ends of `_root_enclosures` are compared with lo and hi by
    cross-multiplication, and each end is rounded by int true division,
    which is correctly rounded, the same float as float(Fraction(num, den)).
    """
    lo_num, lo_den = lo.numerator, lo.denominator
    hi_num, hi_den = hi.numerator, hi.denominator
    inside, outside = [], 0
    for (a, a_den), (b, b_den) in _root_enclosures(coeffs):
        if lo_num * a_den <= a * lo_den and b * hi_den <= hi_num * b_den:  # lo <= a/a_den, b/b_den <= hi
            inside.append((a, a_den, b, b_den))
        elif b * lo_den < lo_num * b_den or a * hi_den > hi_num * a_den:  # b/b_den < lo or a/a_den > hi
            outside += 1
    if len(inside) != 1 or outside != 1:
        raise CrossCheckError(f"expected one root of {coeffs} in [{lo}, {hi}] and one outside")
    a, a_den, b, b_den = inside[0]
    root, upper = a / a_den, b / b_den
    if root != upper:
        raise CrossCheckError(f"root enclosure [{root!r}, {upper!r}] spans a rounding boundary")
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
