"""Right-continuous step functions.

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
        return float(out) if np.ndim(t) == 0 else out

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
