"""Grid-seeded golden-section maximization: one vectorized grid call, same answers."""

import numpy as np
import pytest

from qdice.errors import ParameterRangeError
from qdice.optimize import _INV_PHI, maximize_unimodal


def loop_maximize(f, lo=0.0, hi=1.0, grid_points=10_000, tol=1e-12):
    """The per-point reference: the grid evaluated one scalar call at a time."""
    xs = np.linspace(lo, hi, grid_points)
    vals = np.array([f(x) for x in xs])
    i = int(np.argmax(vals))
    a = xs[max(i - 1, 0)]
    b = xs[min(i + 1, grid_points - 1)]
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


OBJECTIVES = {
    "smooth": lambda x: -((x - 0.3) ** 2),
    "capped_plateau": lambda x: np.minimum(1.0 - np.abs(x - 0.5), 0.8),
    "constant": lambda x: 0.25 + 0.0 * x,
    "step_plateau": lambda x: np.where(x < 0.7, 1.0, 0.0),
    "quantized": lambda x: np.floor(8.0 * np.sin(np.pi * x)) / 8.0,
    "edge_max": lambda x: x**3,
}


class TestMaximizeUnimodal:
    def test_grid_is_one_call_then_scalars(self):
        calls = []

        def f(x):
            calls.append(x)
            return -((x - 0.4) ** 2)

        maximize_unimodal(f, grid_points=1234)
        grid, *scalars = calls
        assert isinstance(grid, np.ndarray)
        assert grid.shape == (1234,) and grid.dtype == np.float64
        assert np.array_equal(grid, np.linspace(0.0, 1.0, 1234))
        assert scalars and all(np.ndim(x) == 0 for x in scalars)

    @pytest.mark.parametrize("name", sorted(OBJECTIVES))
    @pytest.mark.parametrize("grid_points", [2, 3, 17, 1000])
    def test_matches_per_point_loop(self, name, grid_points):
        f = OBJECTIVES[name]
        got = maximize_unimodal(f, -0.2, 1.1, grid_points=grid_points)
        assert got == loop_maximize(f, -0.2, 1.1, grid_points=grid_points)

    @pytest.mark.parametrize("grid_points", [1, 0, -3])
    def test_rejects_fewer_than_two_grid_points(self, grid_points):
        with pytest.raises(ParameterRangeError):
            maximize_unimodal(OBJECTIVES["smooth"], grid_points=grid_points)

    def test_rejects_objective_that_is_not_elementwise(self):
        with pytest.raises(ValueError, match="shape"):
            maximize_unimodal(lambda x: float(np.max(x)), grid_points=10)
