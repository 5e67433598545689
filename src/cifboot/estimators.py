"""Nonparametric estimators on a compiled panel.

Kaplan-Meier for all-cause survival, Nelson-Aalen for the cumulative
cause-specific hazards, Aalen-Johansen for the cumulative incidence
functions, and the plug-in covariance machinery used by the resampling and
two-sample modules.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import CountingProcessPanel
from .stepfun import StepFunction


@dataclass(frozen=True, eq=False)
class PluginTables:
    """Per-grid-time values shared by all plug-in estimators.

    Arrays are aligned with ``panel.times``.  Left limits are predecessor
    values on the same grid (value before the jump at that time).
    """

    times: np.ndarray = field(repr=False)
    at_risk: np.ndarray = field(repr=False)   # float Y(t)
    d1: np.ndarray = field(repr=False)
    d2: np.ndarray = field(repr=False)
    km: np.ndarray = field(repr=False)        # P(T > t) at t
    km_left: np.ndarray = field(repr=False)   # P(T > t-)
    f1: np.ndarray = field(repr=False)
    f1_left: np.ndarray = field(repr=False)
    f2: np.ndarray = field(repr=False)
    f2_left: np.ndarray = field(repr=False)
    na1_left: np.ndarray = field(repr=False)  # cumulative hazard left limits
    na2_left: np.ndarray = field(repr=False)

    @property
    def s2_left(self) -> np.ndarray:
        return 1.0 - self.f2_left


def plugin_tables(panel: CountingProcessPanel) -> PluginTables:
    """Compute the shared estimator tables for a panel.

    The at-risk count is at least the number of exits at every grid time, so
    no division here can hit zero.
    """
    y = panel.at_risk.astype(float)
    d1 = panel.d1.astype(float)
    d2 = panel.d2.astype(float)
    d = d1 + d2

    km = np.cumprod(1.0 - d / y)
    km_left = np.concatenate(([1.0], km[:-1]))

    inc1 = km_left * d1 / y
    inc2 = km_left * d2 / y
    f1 = np.cumsum(inc1)
    f2 = np.cumsum(inc2)
    f1_left = np.concatenate(([0.0], f1[:-1]))
    f2_left = np.concatenate(([0.0], f2[:-1]))

    na1 = np.cumsum(d1 / y)
    na2 = np.cumsum(d2 / y)
    na1_left = np.concatenate(([0.0], na1[:-1]))
    na2_left = np.concatenate(([0.0], na2[:-1]))

    return PluginTables(
        times=panel.times, at_risk=y, d1=d1, d2=d2,
        km=km, km_left=km_left,
        f1=f1, f1_left=f1_left, f2=f2, f2_left=f2_left,
        na1_left=na1_left, na2_left=na2_left,
    )


def jump_table(panel: CountingProcessPanel,
               tab: PluginTables) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-entry (jump time u, Y(u), left-limit factor) for the 2n pooled slots.

    Slot i < n is subject i's cause-1 entry, slot n + i its cause-2 entry;
    the factor is S2(u-) for cause 1 and F1(u-) for cause 2.  A slot whose
    cause the subject did not fail from (including every censored subject's
    two slots) is inactive: (+inf, 1.0, 0.0).
    """
    jump_idx = panel.subject_jumps[:, 0]
    cause = panel.subject_jumps[:, 1]
    safe = np.clip(jump_idx, 0, None)
    u = tab.times[safe]
    y = tab.at_risk[safe]
    is1 = cause == 1
    is2 = cause == 2
    jump_time = np.concatenate((np.where(is1, u, np.inf), np.where(is2, u, np.inf)))
    at_risk = np.concatenate((np.where(is1, y, 1.0), np.where(is2, y, 1.0)))
    factor = np.concatenate((np.where(is1, tab.s2_left[safe], 0.0),
                             np.where(is2, tab.f1_left[safe], 0.0)))
    return jump_time, at_risk, factor


def _step(times: np.ndarray, values: np.ndarray, keep: np.ndarray,
          initial: float) -> StepFunction:
    return StepFunction(times[keep], values[keep], initial)


def kaplan_meier(panel: CountingProcessPanel) -> StepFunction:
    """Product-limit estimator of all-cause survival P(T > t).

    Censoring-only times produce no jump.  A time where the events exhaust
    the risk set drives the product to 0 and it stays there.
    """
    tab = plugin_tables(panel)
    has_event = (panel.d1 + panel.d2) > 0
    return _step(tab.times, tab.km, has_event, 1.0)


def _cause_sum(panel: CountingProcessPanel, cause: int, power: int) -> StepFunction:
    """Step function of the sum over s <= t of d_j(s) / Y(s)^power."""
    _check_cause(cause)
    y = panel.at_risk.astype(float)
    dj = (panel.d1 if cause == 1 else panel.d2).astype(float)
    return _step(panel.times, np.cumsum(dj / y**power), dj > 0, 0.0)


def nelson_aalen(panel: CountingProcessPanel, cause: int) -> StepFunction:
    """Cumulative cause-specific hazard estimate, sum of d_j/Y over s <= t."""
    return _cause_sum(panel, cause, 1)


def aalen_johansen(panel: CountingProcessPanel, cause: int) -> StepFunction:
    """Cumulative incidence estimate: sum of KM(s-) d_j(s)/Y(s) over s <= t."""
    _check_cause(cause)
    tab = plugin_tables(panel)
    f = tab.f1 if cause == 1 else tab.f2
    dj = tab.d1 if cause == 1 else tab.d2
    # increments vanish where the survival left limit is already 0
    keep = (dj > 0) & (tab.km_left > 0)
    return _step(tab.times, f, keep, 0.0)


def sigma_hat(panel: CountingProcessPanel, cause: int) -> StepFunction:
    """Variance accumulator of the cumulative hazard: sum of d_j/Y^2."""
    return _cause_sum(panel, cause, 2)


def xi_hat(panel: CountingProcessPanel) -> StepFunction:
    """Plug-in estimate of the covariance perturbation function.

    Accumulates (1 - A1(u-) - A2(u-)) dF1(u) over the cause-1 event times,
    with Nelson-Aalen left limits for the hazards and Aalen-Johansen
    increments for F1.  Not monotone in general.
    """
    tab = plugin_tables(panel)
    inc = (1.0 - tab.na1_left - tab.na2_left) * tab.km_left * tab.d1 / tab.at_risk
    vals = np.cumsum(inc)
    return _step(tab.times, vals, inc != 0.0, 0.0)


def zeta_hat(panel: CountingProcessPanel,
             grid: np.ndarray | None = None) -> np.ndarray:
    """Plug-in covariance of the normalized Aalen-Johansen process, as the
    (G, G) matrix of its values at the points of ``grid`` (default: the
    panel's grid times).

    For s1 <= s2 the surface accumulates, over event times u <= s1,

        (S2(u-) - F1(s2)) (S2(u-) - F1(s1)) n dA1(u) / Y(u)
      + (F1(u-) - F1(s2)) (F1(u-) - F1(s1)) n dA2(u) / Y(u),

    with every ingredient replaced by its estimator.  The kernel factorizes
    as a quadratic in F1(s1), F1(s2), so three cumulative coefficient arrays
    determine the whole surface; the dense matrix below is that exact sum,
    just evaluated through the factorization.
    """
    if grid is None:
        grid = panel.times
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or (grid.size and not np.all(np.diff(grid) > 0)):
        raise ValueError("grid must be a strictly increasing 1-d array")

    tab = plugin_tables(panel)
    w1 = float(panel.n) * tab.d1 / tab.at_risk**2
    w2 = float(panel.n) * tab.d2 / tab.at_risk**2
    a0 = np.concatenate(([0.0], np.cumsum(tab.s2_left**2 * w1 + tab.f1_left**2 * w2)))
    a1 = np.concatenate(([0.0], np.cumsum(tab.s2_left * w1 + tab.f1_left * w2)))
    a2 = np.concatenate(([0.0], np.cumsum(w1 + w2)))
    f1_pad = np.concatenate(([0.0], tab.f1))

    idx = np.searchsorted(tab.times, grid, side="right")
    f1g = f1_pad[idx]
    lo = np.minimum.outer(idx, idx)
    return (a0[lo]
            - a1[lo] * np.add.outer(f1g, f1g)
            + a2[lo] * np.outer(f1g, f1g))


def _check_cause(cause: int):
    if cause not in (1, 2):
        raise ValueError(f"cause must be 1 or 2, got {cause}")
