"""Studentized integral-type two-sample tests for ordered cumulative incidence.

The statistic integrates the weighted difference of the two groups' cause-1
cumulative incidence estimates over a time window.  Studentization uses the
plug-in covariance of the normalized estimator processes; bootstrap critical
values come from Efron multinomial weights or wild multipliers attached to
the pooled per-entry jump contributions.

Everything reduces to sums over the segments of each group's window on which
rho and the group's estimates are constant: the per-entry window integrals

    I_l = sign_l * integral over [t1, t2] of rho(s) Z_l(s) ds,

one number per pooled entry, and the group's integral of rho * F1, the first
of the rho * F1 tails the I_l are built from.  T_n is kappa times the
difference of the two groups' rho * F1 integrals; the plug-in variance and
every bootstrap replicate are linear or quadratic forms in the I_l, which is
what makes hundreds of replicates per dataset cheap.  The reduction is
algebraically exact, not an approximation; the unit tests compare it against
literal rectangle double sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from statistics import NormalDist

import numpy as np

from .data import CountingProcessPanel, DataError
from .estimators import PluginTables, jump_table, plugin_tables
from .resampling import (BAYESIAN, EFRON, IID_WEIGHTED, WeightScheme,
                         draw_weights, row_chunks)
from .stepfun import CONSTANT_ONE, StepFunction

_NORMAL = NormalDist()


class NumericalError(RuntimeError):
    """Numerical failure inside a test (degenerate resampling distribution)."""


@dataclass(frozen=True)
class TestConfig:
    """Window, weight function and resampling settings for a two-sample test.

    ``rho`` is a finite, positive piecewise-constant weight function on the
    window with finite jump times (None means constant 1).  ``scheme`` and
    ``B`` only matter for the bootstrap test.
    """

    t1: float = 0.0
    t2: float = 1.5
    rho: StepFunction | None = None
    alpha: float = 0.05
    B: int = 999
    scheme: WeightScheme = field(default_factory=lambda: WeightScheme(EFRON))

    def __post_init__(self):
        if not (0.0 <= self.t1 < self.t2):
            raise DataError(f"need 0 <= t1 < t2, got [{self.t1}, {self.t2}]")
        if not (0.0 < self.alpha < 1.0):
            raise DataError(f"alpha must be in (0, 1), got {self.alpha}")
        if self.B < 1:
            raise DataError(f"B must be >= 1, got {self.B}")
        if self.rho is not None:
            if not np.all(np.isfinite(self.rho.jump_times)):
                raise DataError("rho jump times must be finite")
            _, vals = self.rho.segments(self.t1, self.t2)
            if not np.all((vals > 0) & np.isfinite(vals)):
                raise DataError(
                    "rho must be finite and positive everywhere on [t1, t2]")

    @property
    def rho_or_one(self) -> StepFunction:
        return self.rho if self.rho is not None else CONSTANT_ONE


@dataclass(frozen=True)
class TestResult:
    """Outcome of one two-sample test.

    ``interval`` is the effective window actually integrated over, after
    intersecting the requested one with the span where both groups still
    have subjects at risk; ``truncated``/``warning`` report when that
    intersection bit.  For bootstrap tests, ``degenerate_replicates`` counts
    replicates whose variance was not positive (their studentized value is
    0), ``truncated_variances`` counts negative variances clipped to 0 and
    ``replicates`` holds the B studentized replicates.
    """

    method: str
    statistic: float
    variance: float
    studentized: float
    critical_value: float
    p_value: float
    reject: bool
    alpha: float
    interval: tuple[float, float]
    truncated: bool
    warning: str | None
    vn_zero: bool
    B: int | None = None
    scheme: str | None = None
    degenerate_replicates: int = 0
    truncated_variances: int = 0
    replicates: np.ndarray | None = field(default=None, repr=False)

    @property
    def decision(self) -> str:
        return "reject" if self.reject else "retain"


@dataclass(frozen=True, eq=False)
class PreparedTest:
    """One prepared dataset: the signed per-entry window integrals of the
    pooled two-group Z functions, T_n and V_n^2.

    ``integrals`` has length 2(n1 + n2): group 1's cause-1 slots, group 1's
    cause-2 slots, then group 2's slots with flipped sign (the statistic
    subtracts group 2 from group 1).  Censored subjects and jumps outside
    the window contribute zeros.  The asymptotic and bootstrap tests share
    this one precomputation.
    """

    n1: int
    n2: int
    t1: float
    t2: float
    requested_t2: float
    integrals: np.ndarray = field(repr=False)
    statistic: float
    variance: float

    def __post_init__(self):
        self.integrals.setflags(write=False)

    @property
    def truncated(self) -> bool:
        return self.t2 < self.requested_t2

    @property
    def warning(self) -> str | None:
        if self.truncated:
            return (f"window truncated to [{self.t1}, {self.t2}]: a group "
                    f"runs out of risk before {self.requested_t2}")
        return None

    @property
    def size(self) -> int:
        return 2 * (self.n1 + self.n2)

    @property
    def kappa(self) -> float:
        return _kappa(self.n1, self.n2)

    @property
    def vn_zero(self) -> bool:
        return not self.variance > 0.0

    @property
    def studentized(self) -> float:
        if self.vn_zero:
            return 0.0
        return self.statistic / math.sqrt(self.variance)


def _kappa(n1: int, n2: int) -> float:
    return math.sqrt(n1 * n2 / (n1 + n2))


def effective_window(panel1: CountingProcessPanel, panel2: CountingProcessPanel,
                     config: TestConfig) -> tuple[float, float]:
    """Intersect [t1, t2] with the span where both groups still have risk."""
    t2_eff = min(config.t2, panel1.last_time, panel2.last_time)
    if not t2_eff > config.t1:
        raise DataError(
            f"window [{config.t1}, {config.t2}] is degenerate after "
            f"intersecting with the data support (both-groups risk ends "
            f"at {t2_eff})")
    return config.t1, t2_eff


def _group_integrals(tab: PluginTables, panel: CountingProcessPanel,
                     t1: float, t2: float, rho: StepFunction,
                     sign: float) -> tuple[np.ndarray, float]:
    """Per-entry window integrals of one group's Z functions, segment-exact,
    and the group's window integral of rho * F1.

    A cause-j jump of subject i at time u contributes, at any s >= u in the
    window, (factor - F1(s)) / Y(u) with factor S2(u-) for cause 1 and
    F1(u-) for cause 2.  Integrating against rho gives

        I = (factor * R(x) - P(x)) / Y(u),   x = max(u, t1),

    with R and P the tail integrals of rho and rho * F1, both suffix sums
    over the group's breakpoint grid.  Jumps at or beyond t2 land on the
    grid's last point, where both tails are exactly zero.  The window
    integral P(t1) is summed pairwise, not read off the suffix sum.
    """
    event_times = tab.times[(tab.d1 + tab.d2) > 0]
    inner = event_times[(event_times > t1) & (event_times < t2)]
    pts = np.unique(np.concatenate((
        np.array([t1, t2]), inner, rho.breakpoints_in(t1, t2))))
    dt = np.diff(pts)
    rho_v = np.asarray(rho(pts[:-1]), dtype=float)
    f1_v = np.concatenate(([0.0], tab.f1))[
        np.searchsorted(tab.times, pts[:-1], side="right")]
    rho_f1_dt = rho_v * f1_v * dt
    tail_rho = np.concatenate((np.cumsum((rho_v * dt)[::-1])[::-1], [0.0]))
    tail_rho_f1 = np.concatenate((np.cumsum(rho_f1_dt[::-1])[::-1], [0.0]))

    u, y, factor = jump_table(panel, tab)
    # active jump times are grid members by construction, so searchsorted
    # lands exactly on them; inactive (+inf) and out-of-window entries clamp
    # to t2 where the tails vanish, and their factor is 0
    pos = np.searchsorted(pts, np.minimum(np.maximum(u, t1), t2))
    return (sign * ((factor * tail_rho[pos] - tail_rho_f1[pos]) / y),
            float(np.sum(rho_f1_dt)))


def prepare_test(panel1: CountingProcessPanel, panel2: CountingProcessPanel,
                 config: TestConfig) -> PreparedTest:
    """The window integrals, T_n and V_n^2 of a pair of panels, each of at
    least two subjects.

    V_n^2 is the rho-weighted double integral of the pooled plug-in
    covariance, the sum over entries of Z_l(s) Z_l(t) scaled by
    kappa^2 = n1 n2 / n, so it collapses to the sum of squared per-entry
    integrals.  The two group partial sums are kept separate so a group
    swap reproduces the value bit for bit.  Simulation loops use this with
    :func:`replicate_block` to run the asymptotic and bootstrap tests off a
    single precomputation.
    """
    for panel in (panel1, panel2):
        if panel.n < 2:
            raise DataError("two-sample tests need at least 2 subjects per group")
    t1, t2 = effective_window(panel1, panel2, config)
    tab1 = plugin_tables(panel1)
    tab2 = plugin_tables(panel2)
    rho = config.rho_or_one
    i1, s1 = _group_integrals(tab1, panel1, t1, t2, rho, +1.0)
    i2, s2 = _group_integrals(tab2, panel2, t1, t2, rho, -1.0)
    kappa = _kappa(panel1.n, panel2.n)
    return PreparedTest(
        n1=panel1.n, n2=panel2.n, t1=t1, t2=t2, requested_t2=config.t2,
        integrals=np.concatenate((i1, i2)),
        statistic=kappa * (s1 - s2),
        variance=float(kappa**2 * (np.sum(i1 * i1) + np.sum(i2 * i2))))


def test_phi_n(panel1: CountingProcessPanel, panel2: CountingProcessPanel,
               config: TestConfig) -> TestResult:
    """Asymptotic one-sided test: reject when T_n/V_n exceeds the normal
    (1 - alpha)-quantile.

    A zero plug-in variance sets the studentized statistic to 0 (retain) and
    flags the result.
    """
    prep = prepare_test(panel1, panel2, config)
    crit = _NORMAL.inv_cdf(1.0 - config.alpha)
    return _result(prep, config, "asymptotic", crit,
                   1.0 - _NORMAL.cdf(prep.studentized))


def _result(prep: PreparedTest, config: TestConfig, method: str,
            crit: float, p_value: float, **bootstrap) -> TestResult:
    # the fields both tests share; ``bootstrap`` carries the rest
    return TestResult(
        method=method,
        statistic=prep.statistic,
        variance=prep.variance,
        studentized=prep.studentized,
        critical_value=crit,
        p_value=p_value,
        reject=prep.studentized > crit,
        alpha=config.alpha,
        interval=(prep.t1, prep.t2),
        truncated=prep.truncated,
        warning=prep.warning,
        vn_zero=prep.vn_zero,
        **bootstrap,
    )


def _replicate_kernel(pooled: PreparedTest, wi, vi2, vi=None):
    """T* and V*^2 from wi = w.I, vi2 = v.I^2 and, for the correction term,
    vi = v.I, with w and v rows of a weight block or single vectors.

    T* = kappa w.I and V*^2 = kappa^2 v.I^2, less kappa^2 (v.I)^2 / m with
    the correction.  Negative V*^2 (possible only with the correction) are
    clipped to 0 here and counted; the count is the third value.
    """
    k2 = pooled.kappa**2
    tstar = pooled.kappa * wi
    vstar = k2 * vi2
    if vi is not None:
        vstar = vstar - k2 / pooled.size * vi**2
    truncated = int(np.count_nonzero(vstar < 0))
    return tstar, np.maximum(vstar, 0.0), truncated


def _vector(pooled: PreparedTest, values, what: str) -> np.ndarray:
    vec = np.asarray(values, dtype=float)
    if vec.shape != (pooled.size,):
        raise DataError(f"need {pooled.size} {what}, got shape {vec.shape}")
    return vec


def bootstrap_statistic(z_pooled: PreparedTest, weights, *,
                        centered: bool = True) -> float:
    """T_n*: the resampled statistic for one pooled weight vector.

    The window and rho are already baked into ``z_pooled``.  Centering
    subtracts the pooled mean of the weights, which integrates the Z-bar
    term exactly; ``centered=False`` gives the wild variant that omits it.
    """
    w = _vector(z_pooled, weights, "weights")
    if centered:
        w = w - w.mean()
    tstar, _, _ = _replicate_kernel(z_pooled, w @ z_pooled.integrals, 0.0)
    return float(tstar)


def bootstrap_variance(z_pooled: PreparedTest, v_weights, *,
                       include_xi: bool = True) -> float:
    """V_n*^2: the resampled variance for one nonnegative v-weight vector.

    With the correction term (``include_xi=True``, the Efron convention
    v = multinomial counts) the result can turn slightly negative in finite
    samples; it is then clipped to 0, as in :func:`replicate_block`.  Wild
    multipliers use v = G^2 and no correction.
    """
    v = _vector(z_pooled, v_weights, "v-weights")
    if np.any(v < 0):
        raise DataError("v-weights must be nonnegative")
    i = z_pooled.integrals
    _, vstar, _ = _replicate_kernel(
        z_pooled, 0.0, v @ (i * i), v @ i if include_xi else None)
    return float(vstar)


@dataclass(frozen=True, eq=False)
class ReplicateBlock:
    """Studentized bootstrap replicates plus degeneracy diagnostics."""

    studentized: np.ndarray = field(repr=False)
    degenerate: int = 0
    truncated: int = 0


def replicate_block(pooled: PreparedTest, scheme: WeightScheme, B: int,
                    rng: np.random.Generator) -> ReplicateBlock:
    """Generate B studentized bootstrap replicates as vectorized blocks.

    Only the k entries with a nonzero integral move T* or V*, so both
    schemes draw for those alone, and nothing when k = 0.  Efron counts are
    Multinomial(m, 1/m) over all m entries (w = counts - 1, v = counts, the
    correction term over m): L ~ Binomial(m, k/m) of a replicate's labels
    fall uniformly on the k entries, so all B hit counts are drawn, then
    each replicate's L labels, and T*, V* are sums of I and I^2 at them.
    Wild schemes draw k iid multipliers (uncentered, v = G^2, no
    correction).  Replicates whose variance is not positive get studentized
    value 0 and are counted as degenerate; negative Efron variances are
    clipped to 0 first and counted as truncated.

    The iid-weighted and Bayesian schemes are refused: Efron's V* needs
    v = w + 1 >= 0, which iid-weighted weights do not guarantee, and no
    size check covers a test under the Bayesian scheme.
    """
    if scheme.kind in (IID_WEIGHTED, BAYESIAN):
        raise DataError("the two-sample bootstrap test supports the efron "
                        "and wild schemes only")
    i = pooled.integrals
    inz = i[i != 0.0]
    k, m = inz.size, pooled.size
    tstar, vstar = np.zeros(B), np.zeros(B)
    truncated = 0
    if k and scheme.kind == EFRON:
        # all hit counts first, so the label draws do not depend on chunking;
        # a replicate draws about k labels, so chunks are sized by k, not m
        hits = rng.binomial(m, k / m, size=B)
        total = inz.sum()
        for sl, _ in row_chunks(B, k):
            h = hits[sl]
            g = inz[rng.integers(0, k, size=h.sum())]
            # reduceat gives g[start], not 0, for an empty row: skip those
            hit = h > 0
            starts = (np.cumsum(h) - h)[hit]
            s1, s2 = np.zeros(h.size), np.zeros(h.size)
            s1[hit] = np.add.reduceat(g, starts)
            s2[hit] = np.add.reduceat(np.square(g, out=g), starts)
            tstar[sl], vstar[sl], clipped = _replicate_kernel(
                pooled, s1 - total, s2, s1)
            truncated += clipped
    elif k:
        for sl, take in row_chunks(B, k):
            g = draw_weights(scheme, take, k, rng)
            wi = g @ inz
            np.square(g, out=g)
            tstar[sl], vstar[sl], _ = _replicate_kernel(
                pooled, wi, g @ (inz * inz))

    positive = vstar > 0
    degenerate = int(B - np.count_nonzero(positive))
    stud = np.zeros(B)
    np.divide(tstar, np.sqrt(vstar, where=positive, out=np.ones(B)),
              where=positive, out=stud)
    return ReplicateBlock(studentized=stud, degenerate=degenerate,
                          truncated=truncated)


def critical_rank(alpha: float, B: int) -> int:
    """Order-statistic rank of the bootstrap critical value."""
    return math.ceil((1.0 - alpha) * (B + 1))


def bootstrap_critical_value(replicates: np.ndarray, alpha: float) -> float:
    """The rank-ceil((1 - alpha)(B + 1)) order statistic of B replicates,
    or +inf when that rank exceeds B."""
    rank = critical_rank(alpha, replicates.size)
    if rank > replicates.size:
        return math.inf
    return float(np.partition(replicates, rank - 1)[rank - 1])


def test_phi_star(panel1: CountingProcessPanel, panel2: CountingProcessPanel,
                  config: TestConfig, *,
                  rng: np.random.Generator) -> TestResult:
    """Bootstrap one-sided test: compare T_n/V_n against the replicate
    order statistic of rank ceil((1 - alpha)(B + 1)).

    The p-value is (1 + #{replicates >= studentized}) / (B + 1).  With every
    replicate degenerate there is no resampling distribution to compare
    against, which raises :class:`NumericalError`; its message names the
    cause, an eventless window or bad luck in a small B.  ``rng`` draws the
    bootstrap weights.
    """
    prep = prepare_test(panel1, panel2, config)
    block = replicate_block(prep, config.scheme, config.B, rng)
    if block.degenerate == config.B:
        k = int(np.count_nonzero(prep.integrals))
        cause = ("the data carry no events inside the window" if k == 0 else
                 f"{k} of the {prep.size} window integrals are nonzero, but "
                 f"no replicate drew a positive variance from them; a larger "
                 f"B makes this unlikely")
        raise NumericalError(
            f"all {config.B} bootstrap replicates have zero variance; {cause}")

    stud = prep.studentized
    p = (1 + int(np.count_nonzero(block.studentized >= stud))) / (config.B + 1)
    return _result(
        prep, config, "efron" if config.scheme.kind == EFRON else "wild",
        bootstrap_critical_value(block.studentized, config.alpha), p,
        B=config.B,
        scheme=config.scheme.kind,
        degenerate_replicates=block.degenerate,
        truncated_variances=block.truncated,
        replicates=block.studentized,
    )
