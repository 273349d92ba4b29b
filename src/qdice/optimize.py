"""Scalar optimization helpers: grid-seeded golden-section search and bisection.

All protocol objectives in this package are smooth and unimodal on their
feasible intervals, so a dense grid to localize the optimum followed by
golden-section refinement is both robust and fast. The grid is evaluated
in one call: the objective given to `maximize_unimodal` first receives the
whole grid as a float ndarray, then plain Python floats during refinement.
The grid is built once per (lo, hi, grid_points) and cached read-only, so
every call still evaluates the objective at every grid point but no call
rebuilds or can alter the grid.
"""

from __future__ import annotations

from functools import lru_cache
from math import copysign, isnan, sqrt
from typing import Callable

import numpy as np

from .errors import InfeasibleVariantError, ParameterRangeError

_INV_PHI = (sqrt(5.0) - 1.0) / 2.0


@lru_cache(maxsize=8, typed=True)
def _seeding_grid(lo: float, hi: float, grid_points: int, hi_sign: float) -> np.ndarray:
    """np.linspace(lo, hi, grid_points), read-only.

    hi_sign only keys the cache: -0.0 == 0.0, but the grid ends on hi
    itself, sign included.
    """
    xs = np.linspace(lo, hi, grid_points)
    xs.setflags(write=False)
    return xs


def maximize_unimodal(
    f: Callable,
    lo: float = 0.0,
    hi: float = 1.0,
    grid_points: int = 10_000,
    tol: float = 1e-12,
) -> tuple[float, float]:
    """Maximize a unimodal function on [lo, hi].

    Seeds with a uniform grid of `grid_points` samples, then refines the
    bracketing interval around the best sample by golden-section search
    until its width falls below `tol`. Returns (argmax, max).

    `f` is called once with the whole grid as a float ndarray and must
    return one value per point, elementwise; every later call passes a
    single Python float. The grid is `np.linspace(lo, hi, grid_points)`,
    cached across calls and read-only: writing to it raises ValueError.
    Raises ParameterRangeError when `grid_points` < 2.
    """
    if grid_points < 2:
        raise ParameterRangeError(f"grid_points must be >= 2, got {grid_points}")
    xs = _seeding_grid(lo, hi, grid_points, copysign(1.0, hi))
    vals = np.asarray(f(xs), dtype=float)
    if vals.shape != xs.shape:
        raise ValueError(f"f returned shape {vals.shape} for a grid of shape {xs.shape}")
    i = int(np.argmax(vals))  # lowest index wins ties: deterministic
    a = float(xs[max(i - 1, 0)])
    b = float(xs[min(i + 1, grid_points - 1)])

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
    return x, f(x)


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
