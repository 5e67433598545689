"""Multiplier weights and bootstrap versions of the Aalen-Johansen process.

Two resampling transforms are provided.  The wild version multiplies each
subject's jump contribution by an independent mean-zero, variance-one
multiplier.  The exchangeably weighted version pools one entry per subject
and cause (2n entries, censored subjects contributing zero functions) and
forms sqrt(2n) * sum_i w_i (Z_i - Zbar); with multinomial counts minus one
as weights this is Efron's bootstrap of the process.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .data import CountingProcessPanel, DataError
from .estimators import aalen_johansen, jump_table, plugin_tables
from .stepfun import StepFunction

EFRON = "efron"
WILD_NORMAL = "wild-normal"
WILD_POISSON = "wild-poisson"
WILD_CUSTOM = "wild-custom"
IID_WEIGHTED = "iid-weighted"
BAYESIAN = "bayesian"

_KINDS = (EFRON, WILD_NORMAL, WILD_POISSON, WILD_CUSTOM, IID_WEIGHTED, BAYESIAN)


@dataclass(frozen=True)
class WeightScheme:
    """A named weight generator.

    kind must be one of: "efron" (multinomial counts minus 1), "wild-normal"
    (iid standard normal), "wild-poisson" (iid Poisson(1) - 1), "wild-custom"
    (user sampler, must be iid mean 0 variance 1), "iid-weighted"
    (normalized positive iid weights eta/etabar - 1 over C_eta), "bayesian"
    (iid-weighted with standard exponential eta, C_eta = 1).  ``sampler``
    belongs to wild-custom and the three eta fields to iid-weighted; any
    other kind refuses them.
    """

    kind: str
    sampler: Callable[[np.random.Generator, int], np.ndarray] | None = None
    eta_sampler: Callable[[np.random.Generator, int], np.ndarray] | None = None
    mu_eta: float | None = None
    sigma_eta: float | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise DataError(f"unknown weight scheme {self.kind!r}")
        for name, owner in (("sampler", WILD_CUSTOM), ("eta_sampler", IID_WEIGHTED),
                            ("mu_eta", IID_WEIGHTED), ("sigma_eta", IID_WEIGHTED)):
            if getattr(self, name) is not None and self.kind != owner:
                raise DataError(f"{name} belongs to the {owner} scheme; the "
                                f"{self.kind} scheme does not use it")
        if self.kind == WILD_CUSTOM and self.sampler is None:
            raise DataError("wild-custom scheme needs a sampler")
        if self.kind == IID_WEIGHTED:
            if self.eta_sampler is None or self.mu_eta is None or self.sigma_eta is None:
                raise DataError("iid-weighted scheme needs eta_sampler, mu_eta and sigma_eta")
            if not self.sigma_eta > 0:
                raise DataError("iid-weighted scheme needs sigma_eta > 0")
            if not self.mu_eta > 0:
                raise DataError("iid-weighted scheme needs mu_eta > 0 (positive weights)")


def scheme_from_name(name: str) -> WeightScheme:
    """Construct a parameter-free scheme from its CLI name."""
    if name == IID_WEIGHTED or name == WILD_CUSTOM:
        raise DataError(f"scheme {name!r} needs parameters and has no CLI shorthand")
    return WeightScheme(name)


# Every weight loop works in chunks of about _CHUNK_ELEMS entries (1 MiB of
# float64), so a block and its companion (the squared block of the moment
# pass, the gathered integrals of an Efron block) stay in a 2 MiB per-core L2
# across the passes made over them.  A block far above L2 goes to DRAM on
# every pass, and one at glibc's 32 MiB mmap ceiling is mapped afresh per
# chunk.  The draws do not depend on the size; a wild block's BLAS row sums
# do, in their last bits, so the size is one constant.
_CHUNK_ELEMS = 1 << 17


def draw_weights(scheme: WeightScheme, rows: int, m: int,
                 rng: np.random.Generator) -> np.ndarray:
    """A (rows, m) block of weight vectors, one per row, for the given scheme.

    A block consumes the generator exactly as ``rows`` one-row calls would,
    so the way a run is split into blocks never changes the draws.
    """
    if m < 1:
        raise DataError(f"weight vector length must be >= 1, got {m}")
    if scheme.kind == EFRON:
        # a row's tallies of m uniform labels are its Multinomial(m, 1/m)
        # counts: O(m) per row, no binomial splitting
        labels = rng.integers(0, m, size=(rows, m))
        labels += m * np.arange(rows)[:, None]
        counts = np.bincount(labels.ravel(), minlength=rows * m)
        del labels
        return counts.reshape(rows, m) - 1.0
    if scheme.kind == WILD_NORMAL:
        return rng.standard_normal((rows, m))
    if scheme.kind == WILD_POISSON:
        w = rng.poisson(1.0, (rows, m)).astype(float)
        w -= 1.0
        return w
    if scheme.kind == BAYESIAN:
        eta = rng.standard_exponential((rows, m))
        eta /= eta.mean(axis=1, keepdims=True)
        eta -= 1.0
        return eta
    # wild-custom and iid-weighted: the sampler contract is one vector per call
    # each vector is copied into its row, so a sampler may reuse one buffer
    sampler = scheme.sampler if scheme.kind == WILD_CUSTOM else scheme.eta_sampler
    w = np.empty((rows, m))
    for row in w:
        draw = np.asarray(sampler(rng, m), dtype=float)
        if draw.shape != (m,):
            raise DataError(f"{scheme.kind} sampler returned wrong shape")
        row[:] = draw
    if scheme.kind == WILD_CUSTOM:
        return w
    if np.any(w <= 0):
        raise DataError("iid-weighted eta draws must be positive")
    w /= w.mean(axis=1, keepdims=True)
    w -= 1.0
    w /= scheme.sigma_eta / scheme.mu_eta
    return w


def row_chunks(rows: int, m: int):
    """Yield (row slice, row count) pairs covering ``rows`` rows of m
    entries each, ``_CHUNK_ELEMS // m`` rows at a time (one row when a row
    alone exceeds the budget)."""
    chunk = max(1, _CHUNK_ELEMS // m)
    for start in range(0, rows, chunk):
        take = min(chunk, rows - start)
        yield slice(start, start + take), take


@dataclass(frozen=True, eq=False)
class ZArray:
    """Sparse per-entry jump data for the pooled one-sample Z functions.

    Entry i < n is subject i's cause-1 contribution, entry n + i the cause-2
    one.  An active entry holds its jump time u, the at-risk count Y(u) and
    the left-limit factor (S2(u-) for cause 1, F1(u-) for cause 2); entry
    value at s is (factor - F1(s)) / Y(u) once u <= s.  Censored subjects'
    entries never activate (jump time +inf), so they are identically zero.
    """

    n: int
    jump_time: np.ndarray = field(repr=False)
    at_risk: np.ndarray = field(repr=False)
    factor: np.ndarray = field(repr=False)
    f1: StepFunction = field(repr=False)

    def __post_init__(self):
        for arr in (self.jump_time, self.at_risk, self.factor):
            arr.setflags(write=False)

    @property
    def size(self) -> int:
        return 2 * self.n

    def evaluate(self, s: float) -> np.ndarray:
        """All 2n entry values at a single time s."""
        active = self.jump_time <= s
        f1s = self.f1(s)
        return np.where(active, (self.factor - f1s) / self.at_risk, 0.0)


def build_z(panel: CountingProcessPanel) -> ZArray:
    """Assemble the 2n-entry Z array of a panel."""
    return ZArray(panel.n, *jump_table(panel, plugin_tables(panel)),
                  f1=aalen_johansen(panel, 1))


def _entry_sum_on_grid(z: ZArray, w: np.ndarray, grid) -> np.ndarray:
    """sum_l w_l Z_l(s) per grid point s.

    Each active entry adds w (factor - F1(s)) / Y(u) once u <= s; sorting the
    entries by jump time turns the indicator sums into prefix-sum lookups.
    Inactive entries have jump time +inf and never enter the prefix sums.
    """
    order = np.argsort(z.jump_time, kind="stable")
    cum_a = np.concatenate(([0.0], np.cumsum((w * z.factor / z.at_risk)[order])))
    cum_b = np.concatenate(([0.0], np.cumsum((w / z.at_risk)[order])))
    pos = np.searchsorted(z.jump_time[order], grid, side="right")
    return cum_a[pos] - z.f1(grid) * cum_b[pos]


def wild_process(panel: CountingProcessPanel, multipliers: np.ndarray,
                 grid) -> np.ndarray:
    """Wild bootstrap version of the normalized Aalen-Johansen process, at
    each point of ``grid``.

    One multiplier per subject, applied to that subject's single jump
    (censored subjects have none, their multiplier is unused):

        W(s) = sqrt(n) * sum_i G_i (factor_i - F1(s)) / Y(u_i) * 1(u_i <= s)

    with factor S2(u-) for cause-1 jumps and F1(u-) for cause-2 jumps.
    """
    multipliers = np.asarray(multipliers, dtype=float)
    if multipliers.shape != (panel.n,):
        raise DataError(f"need one multiplier per subject, got shape {multipliers.shape}")
    grid = np.atleast_1d(np.asarray(grid, dtype=float))

    g2 = np.concatenate((multipliers, multipliers))  # entry i and n+i belong to subject i
    return np.sqrt(panel.n) * _entry_sum_on_grid(build_z(panel), g2, grid)


def weighted_process(z: ZArray, weights: np.ndarray, grid) -> np.ndarray:
    """Exchangeably weighted bootstrap process sqrt(2n) sum w_i (Z_i - Zbar),
    at each point of ``grid``.

    Centering is applied through w - wbar, which is algebraically identical
    and cancels any constant component of the weights (exactly so when the
    mean is exactly representable, as for integer count vectors).  Note the
    sqrt(2n) convention: this resamples sqrt(2) times the one-sample process.
    """
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (z.size,):
        raise DataError(f"need {z.size} weights, got shape {weights.shape}")
    grid = np.atleast_1d(np.asarray(grid, dtype=float))

    centered = weights - weights.mean()
    return np.sqrt(z.size) * _entry_sum_on_grid(z, centered, grid)


def validate_weight_conditions(scheme: WeightScheme, m: int, draws: int,
                               rng: np.random.Generator) -> dict:
    """Monte Carlo moment report for the weight regularity conditions.

    Estimates, with standard errors, the finite-m surrogates of the
    asymptotic weight conditions: the scaled maximum of centered weights,
    the empirical variance of centered weights (target 1), the fourth
    central moment of a single weight, and the two scaled cross moments
    that control tightness.  Cross moments use exactly symmetrized
    estimators over each drawn vector, which is both unbiased and far less
    noisy than reading off fixed coordinates.
    """
    if draws < 10_000:
        raise DataError(f"need at least 10000 draws for stable moments, got {draws}")
    if m < 4:
        raise DataError("moment validation needs m >= 4")

    half = m / 2.0  # vectors of length m = 2n correspond to sample size n = m/2
    per_draw = {name: np.empty(draws) for name in
                ("max_scaled", "variance", "fourth", "cross_g6", "cross_g7")}

    for sl, take in row_chunks(draws, m):
        # one weight block and one squared block per chunk, both worked in
        # place; the fourth power squares the squares, as c**4 would call
        # libm pow once per element
        c = draw_weights(scheme, take, m, rng)
        c -= c.mean(axis=1, keepdims=True)
        c2 = np.square(c)
        s2 = np.sum(c2, axis=1)
        s4 = np.sum(np.square(c2, out=c2), axis=1)
        per_draw["max_scaled"][sl] = np.max(np.abs(c, out=c), axis=1) / np.sqrt(m)
        per_draw["variance"][sl] = s2 / m
        per_draw["fourth"][sl] = s4 / m
        # symmetrized estimators of E[c1^2 c2 c3] and E[c1 c2 c3 c4] over
        # distinct coordinates; they reduce to power sums because sum(c) = 0
        denom3 = m * (m - 1) * (m - 2)
        denom4 = denom3 * (m - 3)
        per_draw["cross_g6"][sl] = half * (2.0 * s4 - s2**2) / denom3
        per_draw["cross_g7"][sl] = half**2 * (3.0 * s2**2 - 6.0 * s4) / denom4
        del c, c2  # freed before the next chunk is drawn

    def entry(name, target=None, note=None):
        vals = per_draw[name]
        est = float(vals.mean())
        se = float(vals.std(ddof=1) / np.sqrt(draws))
        out = {"estimate": est, "mc_se": se}
        if target is not None:
            out["target"] = target
        if note:
            out["note"] = note
        return out

    report = {
        "scheme": scheme.kind,
        "m": m,
        "draws": draws,
        "max_scaled_weight": entry(
            "max_scaled", note="should shrink as m grows; finite bound check only"),
        "centered_variance": entry("variance", target=1.0),
        "fourth_central_moment": entry(
            "fourth", note="finite bound check; no universal target"),
        "scaled_cross_moment_squares": entry(
            "cross_g6", note="(m/2) E[c1^2 c2 c3]; bounded for valid schemes"),
        "scaled_cross_moment_product": entry(
            "cross_g7", note="(m/2)^2 E[c1 c2 c3 c4]; bounded for valid schemes"),
        "single_weight_limit": {
            "note": "the distributional limit of a single centered weight is an "
                    "asymptotic statement with no finite-sample test; "
                    "reported informationally only",
        },
    }
    return report
