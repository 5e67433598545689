"""Right-continuous step functions and piecewise-constant covariance surfaces.

Every estimator in this package is a step function: it holds its initial
value up to the first jump time and the value recorded for the last jump at
or before t afterwards.  Left limits are predecessor lookups on the jump
array, never epsilon arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True, eq=False)
class StepFunction:
    """Piecewise-constant, right-continuous function on [0, inf)."""

    jump_times: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)
    initial_value: float = 0.0

    def __post_init__(self):
        jt = np.asarray(self.jump_times, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        if jt.shape != vals.shape or jt.ndim != 1:
            raise ValueError("jump_times and values must be 1-d arrays of equal length")
        if jt.size and not np.all(np.diff(jt) > 0):
            raise ValueError("jump_times must be strictly increasing")
        object.__setattr__(self, "jump_times", jt)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "initial_value", float(self.initial_value))
        jt.setflags(write=False)
        vals.setflags(write=False)

    def __call__(self, t):
        """Value at t (right-continuous)."""
        return self._lookup(t, side="right")

    def left_limit(self, t):
        """Value just before t: the last jump strictly earlier than t."""
        return self._lookup(t, side="left")

    def _lookup(self, t, side):
        t_arr = np.asarray(t, dtype=float)
        idx = np.searchsorted(self.jump_times, t_arr, side=side) - 1
        out = np.where(idx >= 0,
                       self.values[np.clip(idx, 0, None)] if self.values.size else 0.0,
                       self.initial_value)
        if np.ndim(t) == 0:
            return float(out)
        return out

    def breakpoints_in(self, a: float, b: float) -> np.ndarray:
        """Jump times strictly inside (a, b)."""
        lo = np.searchsorted(self.jump_times, a, side="right")
        hi = np.searchsorted(self.jump_times, b, side="left")
        return self.jump_times[lo:hi]

    def integrate(self, a: float, b: float) -> float:
        """Exact integral over [a, b]."""
        pts, vals = self.segments(a, b)
        return float(np.sum(vals * np.diff(pts)))

    def segments(self, a: float, b: float):
        """Breakpoints a = p0 < ... < pk = b and the constant value on each piece."""
        if not b >= a:
            raise ValueError(f"empty integration range [{a}, {b}]")
        pts = np.concatenate(([a], self.breakpoints_in(a, b), [b]))
        vals = self(pts[:-1])
        return pts, np.atleast_1d(vals)

    @property
    def final_value(self) -> float:
        return float(self.values[-1]) if self.values.size else self.initial_value


CONSTANT_ONE = StepFunction(np.array([]), np.array([]), 1.0)


@dataclass(frozen=True, eq=False)
class CovarianceSurface:
    """Piecewise-constant bivariate function on grid x grid.

    Evaluation uses the last grid point at or before each coordinate; the
    surface is 0 when either coordinate lies before the first grid point.
    """

    grid: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (grid.size, grid.size):
            raise ValueError("values must be a square matrix matching the grid")
        if grid.size and not np.all(np.diff(grid) > 0):
            raise ValueError("grid must be strictly increasing")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", vals)
        grid.setflags(write=False)
        vals.setflags(write=False)

    def value(self, s1: float, s2: float) -> float:
        i = int(np.searchsorted(self.grid, s1, side="right")) - 1
        j = int(np.searchsorted(self.grid, s2, side="right")) - 1
        if i < 0 or j < 0:
            return 0.0
        return float(self.values[i, j])

    def max_asymmetry(self) -> float:
        return float(np.max(np.abs(self.values - self.values.T))) if self.values.size else 0.0
