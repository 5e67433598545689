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

from .data import CountingProcessPanel, DataError, check_count
from .estimators import PluginTables, check_grid, plugin_tables

EFRON = "efron"
WILD_NORMAL = "wild-normal"
WILD_POISSON = "wild-poisson"
IID_WEIGHTED = "iid-weighted"
BAYESIAN = "bayesian"

_KINDS = (EFRON, WILD_NORMAL, WILD_POISSON, IID_WEIGHTED, BAYESIAN)


@dataclass(frozen=True)
class WeightScheme:
    """A named weight generator.

    kind must be one of: "efron" (multinomial counts minus 1), "wild-normal"
    (iid standard normal), "wild-poisson" (iid Poisson(1) - 1),
    "iid-weighted" (positive iid eta normalized to (eta/etabar - 1) / C_eta,
    C_eta = sigma_eta / mu_eta), "bayesian" (iid-weighted with standard
    exponential eta, C_eta = 1).  iid-weighted needs ``eta_sampler(rng,
    shape)``, which returns a (rows, m) block of eta drawn row after row as
    numpy's ``size=`` draws, and a finite ``c_eta > 0``; any other kind
    refuses both.
    """

    kind: str
    eta_sampler: Callable[[np.random.Generator, tuple[int, int]],
                          np.ndarray] | None = None
    c_eta: float | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise DataError(f"unknown weight scheme {self.kind!r}")
        if self.kind != IID_WEIGHTED:
            for name in ("eta_sampler", "c_eta"):
                if getattr(self, name) is not None:
                    raise DataError(f"{name} belongs to the {IID_WEIGHTED} "
                                    f"scheme; the {self.kind} scheme does "
                                    f"not use it")
            return
        if self.eta_sampler is None or self.c_eta is None:
            raise DataError("iid-weighted scheme needs eta_sampler and c_eta")
        if not 0 < self.c_eta < np.inf:
            raise DataError("iid-weighted scheme needs a finite c_eta > 0")


# Every weight loop works in chunks of about _CHUNK_ELEMS entries (1 MiB of
# float64), so a block and its companion (the squared block of the moment
# pass, the gathered integrals of an Efron block) stay in a 2 MiB per-core L2
# across the passes made over them.  A block far above L2 goes to DRAM on
# every pass, and one at glibc's 32 MiB mmap ceiling is mapped afresh per
# chunk.  Neither the draws nor any replicate depend on the size.
_CHUNK_ELEMS = 1 << 17


def draw_weights(scheme: WeightScheme, rows: int, m: int,
                 rng: np.random.Generator) -> np.ndarray:
    """A (rows, m) block of weight vectors, one per row, for the given scheme.

    A block consumes the generator exactly as ``rows`` one-row calls would,
    so the way a run is split into blocks never changes the draws; an
    iid-weighted ``eta_sampler`` must keep that contract for its blocks.
    """
    rows, m = check_count("rows", rows, 0), check_count("m", m, 1)
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
        return rng.poisson(1.0, (rows, m)) - 1.0
    if scheme.kind == BAYESIAN:
        eta, c_eta = rng.standard_exponential((rows, m)), 1.0
    else:
        # copied, so a sampler may hand back one buffer it refills
        eta = np.array(scheme.eta_sampler(rng, (rows, m)), dtype=float)
        if eta.shape != (rows, m):
            raise DataError(f"eta sampler returned shape {eta.shape}, "
                            f"expected {(rows, m)}")
        if not np.all(eta > 0):  # NaN too
            raise DataError("iid-weighted eta draws must be positive")
        c_eta = scheme.c_eta
    eta /= eta.mean(axis=1, keepdims=True)
    eta -= 1.0
    eta /= c_eta
    return eta


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
    one.  ``index`` is each entry's position on the grid of ``tab``, the
    panel's plug-in tables, where it reads its jump time u, the at-risk
    count Y(u) and the left-limit factor (S2(u-) for cause 1, F1(u-) for
    cause 2); entry value at s is (factor - F1(s)) / Y(u) once u <= s.  An
    entry whose cause the subject did not fail from (including both of a
    censored subject's) is inactive: its index ``tab.times.size`` reads
    (+inf, 1.0, 0.0), so it is identically zero.
    """

    n: int
    index: np.ndarray = field(repr=False)
    tab: PluginTables = field(repr=False)

    def __post_init__(self):
        self.index.setflags(write=False)

    @property
    def size(self) -> int:
        return 2 * self.n

    def gather(self, cause1: np.ndarray, cause2: np.ndarray,
               inactive: float) -> np.ndarray:
        """Per-grid-time values read into the entries, cause-1 entries from
        ``cause1`` and cause-2 ones from ``cause2``; inactive ones read
        ``inactive``."""
        return np.concatenate((np.append(cause1, inactive)[self.index[:self.n]],
                               np.append(cause2, inactive)[self.index[self.n:]]))

    @property
    def jump_time(self) -> np.ndarray:
        return self.gather(self.tab.times, self.tab.times, np.inf)

    @property
    def at_risk(self) -> np.ndarray:
        return self.gather(self.tab.at_risk, self.tab.at_risk, 1.0)

    @property
    def factor(self) -> np.ndarray:
        return self.gather(self.tab.s2_left, self.tab.f1_left, 0.0)

    def evaluate(self, grid) -> np.ndarray:
        """The (2n, G) matrix E of entry values on a grid of G times, column
        g at the g-th time."""
        grid = check_grid(grid)
        return np.where(self.jump_time[:, None] <= grid,
                        (self.factor[:, None] - self.tab.f1_at(grid))
                        / self.at_risk[:, None], 0.0)


def build_z(panel: CountingProcessPanel) -> ZArray:
    """Assemble the 2n-entry Z array of a panel from one plug-in pass."""
    pos, cause = panel.subject_jumps.T
    inactive = panel.times.size
    return ZArray(panel.n, np.concatenate((np.where(cause == 1, pos, inactive),
                                           np.where(cause == 2, pos, inactive))),
                  plugin_tables(panel))


def wild_process(z: ZArray, multipliers: np.ndarray, grid) -> np.ndarray:
    """Wild bootstrap version of the normalized Aalen-Johansen process, at
    each point of ``grid``.

    One multiplier per subject, applied to that subject's single jump
    (censored subjects have none, their multiplier is unused):

        W(s) = sqrt(n) * sum_i G_i (factor_i - F1(s)) / Y(u_i) * 1(u_i <= s)

    with factor S2(u-) for cause-1 jumps and F1(u-) for cause-2 jumps.
    ``multipliers`` is one (n,) vector, or a (rows, n) block giving (rows, G).
    """
    multipliers = np.asarray(multipliers, dtype=float)
    if multipliers.shape[-1:] != (z.n,):
        raise DataError(f"need one multiplier per subject, got shape {multipliers.shape}")
    e = z.evaluate(grid)
    # a subject has at most one nonzero slot, so folding the two is exact
    return np.sqrt(z.n) * (multipliers @ (e[:z.n] + e[z.n:]))


def weighted_process(z: ZArray, weights: np.ndarray, grid) -> np.ndarray:
    """Exchangeably weighted bootstrap process sqrt(2n) sum w_i (Z_i - Zbar),
    at each point of ``grid``.

    ``weights`` is one (2n,) vector or a block of them as rows, e.g. a
    (rows, 2n) ``draw_weights`` block; a block gives one row per vector.
    Centering is applied through w - wbar, which is algebraically identical
    and cancels any constant component of the weights (exactly so when the
    mean is exactly representable, as for integer count vectors).  Note the
    sqrt(2n) convention: this resamples sqrt(2) times the one-sample process.
    """
    weights = np.asarray(weights, dtype=float)
    if weights.shape[-1:] != (z.size,):
        raise DataError(f"need {z.size} weights, got shape {weights.shape}")
    centered = weights - weights.mean(axis=-1, keepdims=True)
    return np.sqrt(z.size) * (centered @ z.evaluate(grid))


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
    # fewer draws give unstable moments; the cross moments need m >= 4
    draws = check_count("draws", draws, 10_000)
    m = check_count("m", m, 4)

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

    return {
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
