"""Independent reference for the asymptotic two-sample test.

The benchmark pins the asymptotic outputs of the program (the test-large
statistic, variance and decision, and the Monte Carlo phi_n counts) against
this module, which computes the same quantities a different way:

* the at-risk count is #{exit >= t} - #{entry >= t} instead of the
  program's #{entry < t} - #{exit < t};
* window integrals come from the running integral G(x) of the cause-1
  incidence, interpolated linearly between jump times, instead of suffix
  sums over a merged breakpoint grid.

Only numpy and the standard library are used; rho is constant 1.
"""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np


def _tables(entry: np.ndarray, exit_: np.ndarray, status: np.ndarray):
    """Grid times, at-risk counts and Aalen-Johansen values per grid time."""
    n = exit_.shape[0]
    times, inv = np.unique(exit_, return_inverse=True)
    k = times.shape[0]
    d1 = np.bincount(inv, weights=(status == 1), minlength=k)
    d2 = np.bincount(inv, weights=(status == 2), minlength=k)
    y = ((n - np.searchsorted(np.sort(exit_), times, side="left"))
         - (n - np.searchsorted(np.sort(entry), times, side="left"))).astype(float)
    surv = np.cumprod(1.0 - (d1 + d2) / y)
    surv_left = np.concatenate(([1.0], surv[:-1]))
    f1 = np.cumsum(surv_left * d1 / y)
    f2 = np.cumsum(surv_left * d2 / y)
    f1_left = np.concatenate(([0.0], f1[:-1]))
    f2_left = np.concatenate(([0.0], f2[:-1]))
    return times, inv, y, f1, f1_left, f2_left


class _Group:
    def __init__(self, entry, exit_, status):
        self.entry = np.asarray(entry, dtype=float)
        self.exit = np.asarray(exit_, dtype=float)
        self.status = np.asarray(status, dtype=np.int64)
        self.n = self.exit.shape[0]
        (self.times, self.inv, self.y, self.f1, self.f1_left,
         self.f2_left) = _tables(self.entry, self.exit, self.status)
        # G(x) = integral of F1 over [0, x]: piecewise linear with knots at
        # 0 and the grid times; F1 is right-continuous and 0 before times[0]
        knots = np.concatenate(([0.0], self.times))
        level = np.concatenate(([0.0], self.f1))
        self.knots = knots
        self.cum = np.concatenate(([0.0], np.cumsum(level[:-1] * np.diff(knots))))

    def g(self, x):
        return np.interp(x, self.knots, self.cum)

    def entry_integrals(self, t1: float, t2: float) -> np.ndarray:
        """Per-entry window integrals of the jump contributions (2n slots)."""
        out = np.zeros(2 * self.n)
        event = (self.status > 0) & (self.exit < t2)
        idx = np.flatnonzero(event)
        u = self.exit[idx]
        g_idx = self.inv[idx]
        x = np.maximum(u, t1)
        width = t2 - x
        tail_f1 = self.g(t2) - self.g(x)
        cause1 = self.status[idx] == 1
        factor = np.where(cause1, 1.0 - self.f2_left[g_idx], self.f1_left[g_idx])
        vals = (factor * width - tail_f1) / self.y[g_idx]
        out[np.where(cause1, idx, self.n + idx)] = vals
        return out


def asymptotic_test(group1, group2, t1: float = 0.0, t2: float = 1.5,
                    alpha: float = 0.05) -> dict | None:
    """Statistic, variance, studentized value and decision of the asymptotic
    test; None when the window is empty after intersecting with both groups'
    support (the program reports that as an error)."""
    a = _Group(*group1)
    b = _Group(*group2)
    t2_eff = min(t2, float(a.times[-1]), float(b.times[-1]))
    if not t2_eff > t1:
        return None
    kappa = math.sqrt(a.n * b.n / (a.n + b.n))
    stat = kappa * ((a.g(t2_eff) - a.g(t1)) - (b.g(t2_eff) - b.g(t1)))
    ia = a.entry_integrals(t1, t2_eff)
    ib = b.entry_integrals(t1, t2_eff)
    var = kappa**2 * (float(np.sum(ia * ia)) + float(np.sum(ib * ib)))
    stud = stat / math.sqrt(var) if var > 0 else 0.0
    crit = NormalDist().inv_cdf(1.0 - alpha)
    return {"statistic": float(stat), "variance": var, "studentized": stud,
            "reject": stud > crit}


# ---------------------------------------------------------------------------
# Table-1 data draws, in the simulator's documented stream order: all event
# times, then all cause uniforms, then all censoring times.

def draw_group1(rng: np.random.Generator, n: int, censor_rate: float):
    """Cause hazards exp(-u) and 1 - exp(-u); all-cause hazard 1."""
    t = rng.standard_exponential(n)
    cause = np.where(rng.random(n) < np.exp(-t), 1, 2)
    return _censor(rng, t, cause, censor_rate)


def draw_null_group2(rng: np.random.Generator, n: int, censor_rate: float):
    """Constant cause hazards 1 and 1 (the Table-1 null, c = 1)."""
    t = rng.standard_exponential(n) / 2.0
    cause = np.where(rng.random(n) < 0.5, 1, 2)
    return _censor(rng, t, cause, censor_rate)


def _censor(rng, t, cause, rate):
    if rate > 0:
        c = rng.standard_exponential(t.shape[0]) / rate
        observed = t <= c
        return np.zeros_like(t), np.where(observed, t, c), np.where(observed, cause, 0)
    return np.zeros_like(t), t, cause
