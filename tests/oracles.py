"""Independent numerical oracles backing the test suite.

Nothing in this module imports the package under test.  Population-level
quantities come from quadrature of closed-form hazard laws; finite-sample
quantities are recomputed from counting-process tables with exact Fraction
arithmetic.  Tests compare package output against these.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np
from scipy import integrate


# ---------------------------------------------------------------------------
# population laws of the two study groups

@dataclass(frozen=True)
class Population:
    """Two-cause competing-risks law with closed-form pieces.

    ``int_f1(a, b)`` is the exact integral of the cause-1 CIF over [a, b],
    used to collapse double integrals of covariance surfaces into single
    quadratures.
    """

    alpha1: Callable[[float], float]
    alpha2: Callable[[float], float]
    f1: Callable[[float], float]
    f2: Callable[[float], float]
    surv: Callable[[float], float]
    int_f1: Callable[[float, float], float]


def group1_population() -> Population:
    """Hazards exp(-u) and 1 - exp(-u); all-cause hazard 1."""
    return Population(
        alpha1=lambda u: math.exp(-u),
        alpha2=lambda u: 1.0 - math.exp(-u),
        f1=lambda t: 0.5 * (1.0 - math.exp(-2.0 * t)),
        f2=lambda t: (1.0 - math.exp(-t)) - 0.5 * (1.0 - math.exp(-2.0 * t)),
        surv=lambda t: math.exp(-t),
        int_f1=lambda a, b: 0.5 * (b - a) + 0.25 * (math.exp(-2.0 * b)
                                                    - math.exp(-2.0 * a)),
    )


def constant_pair_population(c: float) -> Population:
    """Hazards c and 2 - c; all-cause hazard 2."""
    return Population(
        alpha1=lambda u: c,
        alpha2=lambda u: 2.0 - c,
        f1=lambda t: 0.5 * c * (1.0 - math.exp(-2.0 * t)),
        f2=lambda t: 0.5 * (2.0 - c) * (1.0 - math.exp(-2.0 * t)),
        surv=lambda t: math.exp(-2.0 * t),
        int_f1=lambda a, b: 0.5 * c * (b - a) + 0.25 * c * (math.exp(-2.0 * b)
                                                            - math.exp(-2.0 * a)),
    )


def zeta_pop(pop: Population, lam: float, s1: float, s2: float) -> float:
    """Asymptotic covariance of the normalized cause-1 CIF estimator.

    zeta(s1, s2) integrates, over u up to min(s1, s2), the squared-influence
    kernel divided by the limiting at-risk fraction y(u) = S(u) exp(-lam u).
    """
    def kern(u):
        y = pop.surv(u) * math.exp(-lam * u)
        s2u = 1.0 - pop.f2(u)
        f1u = pop.f1(u)
        return ((s2u - pop.f1(s1)) * (s2u - pop.f1(s2)) * pop.alpha1(u)
                + (f1u - pop.f1(s1)) * (f1u - pop.f1(s2)) * pop.alpha2(u)) / y

    val, _ = integrate.quad(kern, 0.0, min(s1, s2), epsabs=1e-12, epsrel=1e-12)
    return val


def xi_pop(pop: Population, s: float) -> float:
    """Mean-drift term of the exchangeably weighted resampling limit.

    Censoring-free: only hazards and CIFs enter.
    """
    def kern(u):
        s2u = 1.0 - pop.f2(u)
        return ((s2u - pop.f1(s)) * pop.alpha1(u)
                + (pop.f1(u) - pop.f1(s)) * pop.alpha2(u))

    val, _ = integrate.quad(kern, 0.0, s, epsabs=1e-12, epsrel=1e-12)
    return val


def int_xi(pop: Population, t1: float, t2: float) -> float:
    """Integral of xi over the test window (nested quadrature)."""
    val, _ = integrate.quad(lambda s: xi_pop(pop, s), t1, t2,
                            epsabs=1e-10, epsrel=1e-10, limit=200)
    return val


def double_zeta_integral(pop: Population, lam: float, t1: float,
                         t2: float) -> float:
    """Exact collapse of the double integral of zeta over [t1, t2]^2.

    Writing the kernel as a(u) - b(u)(F1(r) + F1(s)) + c(u) F1(r) F1(s) and
    swapping integration order turns the triple integral into a single
    quadrature with L(u) = t2 - max(u, t1) and M(u) = int F1 over
    [max(u, t1), t2].
    """
    def outer(u):
        y = pop.surv(u) * math.exp(-lam * u)
        s2u = 1.0 - pop.f2(u)
        f1u = pop.f1(u)
        a = (s2u**2 * pop.alpha1(u) + f1u**2 * pop.alpha2(u)) / y
        b = (s2u * pop.alpha1(u) + f1u * pop.alpha2(u)) / y
        c = (pop.alpha1(u) + pop.alpha2(u)) / y
        lo = max(u, t1)
        length = t2 - lo
        mf1 = pop.int_f1(lo, t2)
        return a * length**2 - 2.0 * b * length * mf1 + c * mf1**2

    val, _ = integrate.quad(outer, 0.0, t2, points=[t1], epsabs=1e-11,
                            epsrel=1e-11, limit=200)
    return val


def sigma_zeta2(pop1: Population, pop2: Population, lam1: float, lam2: float,
                n1: int, n2: int, t1: float, t2: float) -> float:
    """Limit variance of the two-sample integral statistic (rho = 1)."""
    n = n1 + n2
    return ((n2 / n) * double_zeta_integral(pop1, lam1, t1, t2)
            + (n1 / n) * double_zeta_integral(pop2, lam2, t1, t2))


def sigma_zeta_tilde2(pop1: Population, pop2: Population, lam1: float,
                      lam2: float, n1: int, n2: int, t1: float,
                      t2: float) -> float:
    """Limit variance of the pooled exchangeably weighted statistic.

    Differs from sigma_zeta2 by a rank-one correction built from the
    difference of the two groups' xi functions.
    """
    n = n1 + n2
    p1, p2 = n1 / n, n2 / n
    gap = int_xi(pop1, t1, t2) - int_xi(pop2, t1, t2)
    return sigma_zeta2(pop1, pop2, lam1, lam2, n1, n2, t1, t2) \
        - 0.5 * p1 * p2 * gap * gap


# ---------------------------------------------------------------------------
# exact finite-sample recomputation with Fractions

@dataclass
class BruteTables:
    """Estimator tables recomputed with exact rational arithmetic.

    All lists are indexed by the grid of distinct exit times.  ``*_left``
    holds the left limit at each grid time.
    """

    times: list
    at_risk: list
    d1: list
    d2: list
    km: list
    km_left: list
    f1: list
    f1_left: list
    f2: list
    f2_left: list
    na1: list
    na2: list
    na1_left: list
    na2_left: list
    sig1: list

    def step(self, values, t, initial):
        """Right-continuous lookup of a value list at time t."""
        out = initial
        for tk, v in zip(self.times, values):
            if tk <= t:
                out = v
            else:
                break
        return out

    def f1_at(self, t):
        return self.step(self.f1, t, Fraction(0))

    def f2_at(self, t):
        return self.step(self.f2, t, Fraction(0))

    def km_at(self, t):
        return self.step(self.km, t, Fraction(1))


def brute_tables(times, at_risk, d1, d2) -> BruteTables:
    """Recompute KM, CIFs, cumulative hazards and the variance sum exactly."""
    times = [Fraction(t) if not isinstance(t, float) else Fraction(t)
             for t in times]
    km, f1, f2, na1, na2, sig1 = [], [], [], [], [], []
    km_left, f1_left, f2_left, na1_left, na2_left = [], [], [], [], []
    s, c1, c2, h1, h2, v1 = (Fraction(1), Fraction(0), Fraction(0),
                             Fraction(0), Fraction(0), Fraction(0))
    for y, e1, e2 in zip(at_risk, d1, d2):
        km_left.append(s)
        f1_left.append(c1)
        f2_left.append(c2)
        na1_left.append(h1)
        na2_left.append(h2)
        y = Fraction(y)
        c1 += s * Fraction(e1) / y
        c2 += s * Fraction(e2) / y
        h1 += Fraction(e1) / y
        h2 += Fraction(e2) / y
        v1 += Fraction(e1) / y**2
        s *= 1 - Fraction(e1 + e2) / y
        km.append(s)
        f1.append(c1)
        f2.append(c2)
        na1.append(h1)
        na2.append(h2)
        sig1.append(v1)
    return BruteTables(times, list(at_risk), list(d1), list(d2), km, km_left,
                       f1, f1_left, f2, f2_left, na1, na2, na1_left, na2_left,
                       sig1)


def _merged_grid(bt: BruteTables, rho_steps, a, b):
    pts = {Fraction(a), Fraction(b)}
    pts.update(t for t in bt.times if a < t < b)
    pts.update(t for t, _ in rho_steps if a < t < b)
    return sorted(pts)


def rho_value(rho_steps, t):
    out = rho_steps[0][1]
    for tk, v in rho_steps:
        if tk <= t:
            out = v
    return out


def brute_rho_integrals(bt: BruteTables, rho_steps, a, b):
    """(int rho, int rho * F1hat) over [a, b], exactly."""
    if a >= b:
        return Fraction(0), Fraction(0)
    pts = _merged_grid(bt, rho_steps, a, b)
    total_r = Fraction(0)
    total_rf = Fraction(0)
    for lo, hi in zip(pts[:-1], pts[1:]):
        r = rho_value(rho_steps, lo)
        total_r += r * (hi - lo)
        total_rf += r * bt.f1_at(lo) * (hi - lo)
    return total_r, total_rf


def brute_entry_integrals(bt: BruteTables, jumps, t1, t2, rho_steps):
    """Per-entry window integrals of the Z functions, exactly.

    ``jumps`` is a per-subject list of (time, cause) with None time for
    censored subjects.  Returns 2n Fractions: cause-1 slots then cause-2
    slots, matching the pooled layout.
    """
    t1, t2 = Fraction(t1), Fraction(t2)
    n = len(jumps)
    out = [Fraction(0)] * (2 * n)
    for i, (u, cause) in enumerate(jumps):
        if u is None or cause == 0:
            continue
        u = Fraction(u)
        if u > t2:
            continue
        k = bt.times.index(u)
        y = Fraction(bt.at_risk[k])
        start = max(u, t1)
        r_int, rf_int = brute_rho_integrals(bt, rho_steps, start, t2)
        if cause == 1:
            factor = 1 - bt.f2_left[k]
            out[i] = (factor * r_int - rf_int) / y
        else:
            factor = bt.f1_left[k]
            out[n + i] = (factor * r_int - rf_int) / y
    return out


def brute_tn_unscaled(bt1: BruteTables, bt2: BruteTables, t1, t2, rho_steps):
    """int rho (F1hat_1 - F1hat_2) over [t1, t2] as an exact Fraction."""
    t1, t2 = Fraction(t1), Fraction(t2)
    pts = {t1, t2}
    pts.update(t for t in bt1.times if t1 < t < t2)
    pts.update(t for t in bt2.times if t1 < t < t2)
    pts.update(t for t, _ in rho_steps if t1 < t < t2)
    pts = sorted(pts)
    total = Fraction(0)
    for lo, hi in zip(pts[:-1], pts[1:]):
        total += (rho_value(rho_steps, lo)
                  * (bt1.f1_at(lo) - bt2.f1_at(lo)) * (hi - lo))
    return total


def brute_zeta(bt: BruteTables, n: int, s1, s2):
    """Plug-in covariance of the normalized CIF estimator, exactly."""
    s1, s2 = Fraction(s1), Fraction(s2)
    lo = min(s1, s2)
    total = Fraction(0)
    for k, t in enumerate(bt.times):
        if t > lo:
            break
        y = Fraction(bt.at_risk[k])
        w1 = Fraction(n) * Fraction(bt.d1[k]) / y**2
        w2 = Fraction(n) * Fraction(bt.d2[k]) / y**2
        a1 = 1 - bt.f2_left[k]
        a2 = bt.f1_left[k]
        total += w1 * (a1 - bt.f1_at(s1)) * (a1 - bt.f1_at(s2))
        total += w2 * (a2 - bt.f1_at(s1)) * (a2 - bt.f1_at(s2))
    return total


def brute_xi_hat(bt: BruteTables, s):
    """Plug-in xi: sum of (1 - A1(u-) - A2(u-)) dF1hat(u) up to s."""
    s = Fraction(s)
    total = Fraction(0)
    for k, t in enumerate(bt.times):
        if t > s:
            break
        y = Fraction(bt.at_risk[k])
        df1 = bt.km_left[k] * Fraction(bt.d1[k]) / y
        total += (1 - bt.na1_left[k] - bt.na2_left[k]) * df1
    return total



# ---------------------------------------------------------------------------
# one-vector bootstrap forms: T* and V*^2 of a single pooled weight vector,
# written from the formulas, as the dense reference for the package's thinned
# replicate blocks; ``prep`` is anything with the pooled ``integrals`` I and
# the scale ``kappa``

def bootstrap_statistic(prep, weights, *, centered: bool = True) -> float:
    """T* = kappa w.I; centering replaces w by w - wbar (Efron), and the
    wild variant leaves w as drawn."""
    w = np.asarray(weights, dtype=float)
    if centered:
        w = w - w.mean()
    return float(prep.kappa * (w @ prep.integrals))


def bootstrap_variance(prep, v_weights, *, include_xi: bool = True) -> float:
    """V*^2 = kappa^2 v.I^2 - kappa^2 / m (v.I)^2, the second term only with
    the correction (Efron: v = counts; wild: v = G^2, no correction), clipped
    to 0 when negative."""
    v = np.asarray(v_weights, dtype=float)
    i = prep.integrals
    k2 = prep.kappa**2
    value = k2 * (v @ (i * i))
    if include_xi:
        value -= k2 / i.size * (v @ i)**2
    return max(float(value), 0.0)


# ---------------------------------------------------------------------------
# per-entry searches, frozen as the package computed panels and window
# integrals before it read each entry through its grid index; the same
# floating-point operations, so the package must match them bit for bit

def searched_panel_counts(entry, exit_, status):
    """(times, d0, d1, d2, at_risk) of a checked sample: one masked bincount
    per status code, and Y(t) = #{entry < t} - #{exit < t} searched in the
    sorted entries and the sorted exits."""
    times, inverse = np.unique(exit_, return_inverse=True)
    d0, d1, d2 = (np.bincount(inverse[status == code], minlength=times.size)
                  for code in (0, 1, 2))
    at_risk = (np.searchsorted(np.sort(entry), times, side="left")
               - np.searchsorted(np.sort(exit_), times, side="left"))
    return times, d0, d1, d2, at_risk


def searched_entry_integrals(tab, subject_jumps, t1, t2, rho, rho_breaks,
                             sign):
    """One group's signed per-entry window integrals, each entry's jump time
    clamped to [t1, t2] and searched on the window's breakpoint grid.

    ``tab`` has the plug-in arrays ``times``, ``at_risk``, ``d1``, ``d2``,
    ``f1``, ``f1_left`` and ``s2_left``; ``subject_jumps`` is the (n, 2)
    array of (grid index, cause), (-1, 0) when censored; ``rho`` maps an
    array of times to weights and ``rho_breaks`` are its jump times inside
    (t1, t2).  Entries are cause-1 slots, then cause-2 slots; an inactive
    entry has jump time +inf, at-risk 1 and factor 0.
    """
    safe = np.clip(subject_jumps[:, 0], 0, None)
    is1, is2 = subject_jumps[:, 1] == 1, subject_jumps[:, 1] == 2

    def slots(cause1, cause2, inactive):
        return np.concatenate((np.where(is1, cause1, inactive),
                               np.where(is2, cause2, inactive)))

    u, y = tab.times[safe], tab.at_risk[safe]
    jump_time, at_risk = slots(u, u, np.inf), slots(y, y, 1.0)
    factor = slots(tab.s2_left[safe], tab.f1_left[safe], 0.0)

    event_times = tab.times[(tab.d1 + tab.d2) > 0]
    inner = event_times[(event_times > t1) & (event_times < t2)]
    pts = np.unique(np.concatenate((np.array([t1, t2]), inner, rho_breaks)))
    dt = np.diff(pts)
    rho_v = np.asarray(rho(pts[:-1]), dtype=float)
    f1_at = np.concatenate(([0.0], tab.f1))[
        np.searchsorted(tab.times, pts[:-1], side="right")]
    rho_f1_dt = rho_v * f1_at * dt
    tail_rho = np.concatenate((np.cumsum((rho_v * dt)[::-1])[::-1], [0.0]))
    tail_rho_f1 = np.concatenate((np.cumsum(rho_f1_dt[::-1])[::-1], [0.0]))
    pos = np.searchsorted(pts, np.minimum(np.maximum(jump_time, t1), t2))
    return sign * ((factor * tail_rho[pos] - tail_rho_f1[pos]) / at_risk)


# ---------------------------------------------------------------------------
# reference CSV reader: the csv-module row walk, frozen as the package read
# files before its rows went through one C-level parse

class ReferenceDataError(ValueError):
    """What the reference reader raises where the package raises DataError."""


def _reference_first_bad_row(entry, exit_, status):
    checks = (
        (np.isfinite(entry) & np.isfinite(exit_), "times must be finite"),
        (entry >= 0.0, "entry time must be >= 0"),
        (exit_ > entry, "exit must be strictly later than entry"),
        ((status == 0) | (status == 1) | (status == 2), "status must be 0, 1 or 2"),
    )
    ok = np.logical_and.reduce([good for good, _ in checks])
    if ok.all():
        return None
    i = int(np.argmin(ok))
    why = next(msg for good, msg in checks if not good[i])
    return i, f"{why}, got entry={entry[i]}, exit={exit_[i]}, status={status[i]}"


def reference_ingest_csv(path, *, entry_col="entry", exit_col="exit",
                         status_col="status", censored_code="0",
                         cause1_code="1", cause2_code="2"):
    """(entry, exit, status) read one row at a time with the csv module.

    Status codes map to 0 (censored), 1 and 2; errors carry the package's
    messages and name the file line.
    """
    code_map = {censored_code: 0, cause1_code: 1, cause2_code: 2}
    if len(code_map) != 3:
        raise ReferenceDataError("status codes must be three distinct values")

    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        col = {name: j for j, name in enumerate(header)}
        required = ((exit_col, status_col) if entry_col == "entry"
                    else (entry_col, exit_col, status_col))
        for name in required:
            if name not in col:
                raise ReferenceDataError(
                    f"missing required column {name!r} in {path}")
        for name in (entry_col, exit_col, status_col):
            if header.count(name) > 1:
                raise ReferenceDataError(f"duplicated column {name!r} in {path}")
        need = 1 + max(col[name] for name in (entry_col, exit_col, status_col)
                       if name in col)
        rows, lines = [], []
        for row in reader:
            if not row:
                continue
            if len(row) < need:
                raise ReferenceDataError(f"line {reader.line_num}: expected at "
                                         f"least {need} fields, got {len(row)}")
            rows.append(row)
            lines.append(reader.line_num)

    def floats(name):
        text = [row[col[name]] for row in rows]
        try:
            return np.array(text, dtype=float)
        except ValueError:
            for k, value in enumerate(text):
                try:
                    float(value)
                except ValueError as exc:
                    raise ReferenceDataError(f"line {lines[k]}: {exc}") from None
            raise

    exit_ = floats(exit_col)
    entry = floats(entry_col) if entry_col in col else np.zeros(len(rows))
    codes = [row[col[status_col]].strip() for row in rows]
    try:
        status = np.array([code_map[c] for c in codes], dtype=np.int64)
    except KeyError as exc:
        k = codes.index(exc.args[0])
        raise ReferenceDataError(f"line {lines[k]}: unknown status code "
                                 f"{exc.args[0]!r}") from None
    bad = _reference_first_bad_row(entry, exit_, status)
    if bad is not None:
        raise ReferenceDataError(f"line {lines[bad[0]]}: {bad[1]}")
    return entry, exit_, status

# spot values for the group-1 law, cross-checked against the simplified
# closed form xi(s) = int_0^s (1 - u) exp(-2u) du
XI1_AT_1 = 0.28383382080915315
XI1_AT_15 = 0.274893534183932


if __name__ == "__main__":
    pop1 = group1_population()
    print("xi1(1.0)  =", xi_pop(pop1, 1.0))
    print("xi1(1.5)  =", xi_pop(pop1, 1.5))
    for pair in ((0.75, 0.75), (0.75, 1.5), (1.5, 1.5)):
        print(f"zeta1{pair} =", zeta_pop(pop1, 0.0, *pair))
    pop2 = constant_pair_population(1.0)
    print("sigma_zeta2 null (0,0) =",
          sigma_zeta2(pop1, pop2, 0.0, 0.0, 1, 1, 0.0, 1.5))
    print("sigma_zeta_tilde2 null (0,0) =",
          sigma_zeta_tilde2(pop1, pop2, 0.0, 0.0, 1, 1, 0.0, 1.5))
