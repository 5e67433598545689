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
from decimal import Decimal
from statistics import NormalDist

import numpy as np

from .data import CountingProcessPanel, DataError, check_count
from .resampling import (EFRON, WILD_NORMAL, WILD_POISSON, WeightScheme,
                         ZArray, build_z, draw_weights, row_chunks)
from .stepfun import CONSTANT_ONE, StepFunction

_NORMAL = NormalDist()
_BOOTSTRAP_KINDS = (EFRON, WILD_NORMAL, WILD_POISSON)


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
        # the normal quantile needs 1 - alpha < 1, false for alpha <= 2**-54
        if not 0.0 < 1.0 - self.alpha < 1.0:
            raise DataError(f"alpha must be in (0, 1) and above 2**-54, got "
                            f"{self.alpha}")
        check_count("B", self.B, 1)
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
    """One prepared dataset under its ``config``: the signed per-entry window
    integrals of the pooled two-group Z functions, T_n, V_n^2 and ``t2``, the
    window end after :func:`effective_window`.

    ``integrals`` has length 2(n1 + n2): group 1's cause-1 slots, group 1's
    cause-2 slots, then group 2's slots with flipped sign (the statistic
    subtracts group 2 from group 1).  Censored subjects and jumps outside
    the window contribute zeros.  The asymptotic and bootstrap tests share
    this one precomputation.
    """

    n1: int
    n2: int
    config: TestConfig
    t2: float
    integrals: np.ndarray = field(repr=False)
    statistic: float
    variance: float

    def __post_init__(self):
        self.integrals.setflags(write=False)

    @property
    def truncated(self) -> bool:
        return self.t2 < self.config.t2

    @property
    def warning(self) -> str | None:
        if self.truncated:
            return (f"window truncated to [{self.config.t1}, {self.t2}]: a "
                    f"group runs out of risk before {self.config.t2}")
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


def _group_integrals(z: ZArray, t1: float, t2: float, rho: StepFunction,
                     sign: float) -> tuple[np.ndarray, float]:
    """Per-entry window integrals of one group's Z functions, segment-exact,
    and the group's window integral of rho * F1.

    A cause-j jump of subject i at time u contributes, at any s >= u in the
    window, (factor - F1(s)) / Y(u) with factor S2(u-) for cause 1 and
    F1(u-) for cause 2.  Integrating against rho gives

        I = (factor * R(x) - P(x)) / Y(u),   x = max(u, t1),

    with R and P the tail integrals of rho and rho * F1, both suffix sums
    over the group's breakpoint grid, formed once per grid time u and read
    into the entries through their grid index.  Jumps at or beyond t2 land
    on the breakpoint grid's last point, where both tails are exactly zero.
    The window integral P(t1) is summed pairwise, not read off the suffix
    sum.
    """
    tab = z.tab
    times = tab.times
    # grid indices [0, a) lie at or before t1, [b, end) at or after t2
    a, b = times.searchsorted(t1, "right"), times.searchsorted(t2)
    events = np.flatnonzero((tab.d1 + tab.d2) > 0)
    inner = events[events.searchsorted(a):events.searchsorted(b)]
    extra = np.concatenate(([t1, t2], rho.breakpoints_in(t1, t2)))
    # pts are the distinct merged times and ``where`` each merged time's
    # position on them, so a rho breakpoint at an event time shares its
    # position; a stable sort merges the few sorted runs in linear time
    merged = np.concatenate((times[inner], extra))
    order = merged.argsort(kind="stable")
    merged = merged[order]
    new = np.concatenate(([True], merged[1:] != merged[:-1]))
    pts = merged[new]
    where = np.empty(order.size, dtype=np.intp)
    where[order] = np.cumsum(new) - 1
    f1 = np.empty(pts.size)
    f1[where] = np.concatenate((tab.f1[inner], tab.f1_at(extra)))
    dt = np.diff(pts)
    # a constant rho multiplies as a scalar, to the same products
    rho_v = (np.asarray(rho(pts[:-1]), dtype=float) if rho.jump_times.size
             else rho.initial_value)
    rho_f1_dt = rho_v * f1[:-1] * dt
    tail_rho = np.concatenate((np.cumsum((rho_v * dt)[::-1])[::-1], [0.0]))
    tail_rho_f1 = np.concatenate((np.cumsum(rho_f1_dt[::-1])[::-1], [0.0]))

    # no entry reads a grid time without an event, so those read position 0
    pos = np.zeros(times.size, dtype=np.intp)
    pos[inner] = where[:inner.size]
    pos[b:] = pts.size - 1
    r, p = tail_rho[pos], tail_rho_f1[pos]
    return (sign * z.gather((tab.s2_left * r - p) / tab.at_risk,
                            (tab.f1_left * r - p) / tab.at_risk, 0.0),
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
    :func:`replicate_block` and :func:`verdict` to run the asymptotic and
    bootstrap tests off a single precomputation.
    """
    for panel in (panel1, panel2):
        if panel.n < 2:
            raise DataError("two-sample tests need at least 2 subjects per group")
    t1, t2 = effective_window(panel1, panel2, config)
    rho = config.rho_or_one
    i1, s1 = _group_integrals(build_z(panel1), t1, t2, rho, +1.0)
    i2, s2 = _group_integrals(build_z(panel2), t1, t2, rho, -1.0)
    kappa = _kappa(panel1.n, panel2.n)
    return PreparedTest(
        n1=panel1.n, n2=panel2.n, config=config, t2=t2,
        integrals=np.concatenate((i1, i2)),
        statistic=kappa * (s1 - s2),
        variance=float(kappa**2 * (np.sum(i1 * i1) + np.sum(i2 * i2))))


def _replicate_kernel(pooled: PreparedTest, wi, vi2, vi=None):
    """T* and V*^2 of a chunk of replicates from their sums wi = w.I,
    vi2 = v.I^2 and, for the correction term, vi = v.I.

    T* = kappa w.I and V*^2 = kappa^2 v.I^2, less kappa^2 (v.I)^2 / m with
    the correction (Efron: v = counts; wild: v = G^2, no correction).
    Negative V*^2 (possible only with the correction) are clipped to 0 here
    and counted; the count is the third value.
    """
    k2 = pooled.kappa**2
    tstar = pooled.kappa * wi
    vstar = k2 * vi2
    if vi is not None:
        vstar = vstar - k2 / pooled.size * vi**2
    truncated = int(np.count_nonzero(vstar < 0))
    return tstar, np.maximum(vstar, 0.0), truncated


@dataclass(frozen=True, eq=False)
class ReplicateBlock:
    """Studentized bootstrap replicates of one scheme kind plus degeneracy
    diagnostics: B >= 1 finite read-only replicates, at most B of each kind."""

    studentized: np.ndarray = field(repr=False)
    scheme: str
    degenerate: int = 0
    truncated: int = 0

    def __post_init__(self):
        stud = self.studentized
        if not (isinstance(stud, np.ndarray) and stud.ndim == 1 and stud.size):
            raise DataError("studentized must be a 1-d array of replicates")
        if not np.all(np.isfinite(stud)):
            raise DataError("studentized replicates must be finite")
        if self.scheme not in _BOOTSTRAP_KINDS:
            raise DataError(f"unknown bootstrap scheme {self.scheme!r}")
        for name in ("degenerate", "truncated"):
            if check_count(name, getattr(self, name), 0) > stud.size:
                raise DataError(f"{name} must be <= B = {stud.size}")
        stud.setflags(write=False)


def replicate_block(pooled: PreparedTest, scheme: WeightScheme, B: int,
                    rng: np.random.Generator) -> ReplicateBlock:
    """Generate B studentized bootstrap replicates as vectorized blocks.

    Only the k entries with a nonzero integral move T* or V*, so both
    schemes draw for those alone, and nothing when k = 0.  Efron counts are
    Multinomial(m, 1/m) over all m entries (w = counts - 1, v = counts, the
    correction term over m): L ~ Binomial(m, k/m) of a replicate's labels
    fall uniformly on the k entries, so all B hit counts are drawn, then
    each replicate's L labels, and T*, V* are sums of I and I^2 at them.
    Wild schemes draw k iid multipliers G (uncentered, v = G^2, no
    correction) and sum each row of G I and (G I)^2 by itself, so the
    chunking moves no replicate.  Replicates whose variance is not positive
    get studentized value 0 and are counted as degenerate; negative Efron
    variances are clipped to 0 first and counted as truncated.

    The iid-weighted and Bayesian schemes are refused: Efron's V* needs
    v = w + 1 >= 0, which iid-weighted weights do not guarantee, and no
    size check covers a test under the Bayesian scheme.
    """
    if scheme.kind not in _BOOTSTRAP_KINDS:
        raise DataError("the two-sample bootstrap test supports the efron "
                        "and wild schemes only")
    B = check_count("B", B, 1)
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
            wi = np.multiply(g, inz, out=g).sum(axis=1)
            vi2 = np.square(g, out=g).sum(axis=1)
            tstar[sl], vstar[sl], _ = _replicate_kernel(pooled, wi, vi2)

    positive = vstar > 0
    degenerate = int(B - np.count_nonzero(positive))
    stud = np.zeros(B)
    np.divide(tstar, np.sqrt(vstar, where=positive, out=np.ones(B)),
              where=positive, out=stud)
    return ReplicateBlock(studentized=stud, scheme=scheme.kind,
                          degenerate=degenerate, truncated=truncated)


def _bootstrap_rank(alpha: float, B: int) -> int:
    """ceil((1 - alpha)(B + 1)), exact for the decimal alpha."""
    num, den = Decimal(str(alpha)).as_integer_ratio()
    return -(-(den - num) * (B + 1) // den)


def bootstrap_critical_value(replicates: np.ndarray, alpha: float) -> float:
    """The rank-ceil((1 - alpha)(B + 1)) order statistic of B replicates,
    or +inf when that rank exceeds B.

    The rank is exact for the decimal alpha; ``1.0 - alpha`` can round up
    past an integer (alpha = 0.18, B = 999 would give rank 821, not 820).
    """
    rank = _bootstrap_rank(alpha, replicates.size)
    if rank > replicates.size:
        return math.inf
    return float(np.partition(replicates, rank - 1)[rank - 1])


def verdict(prep: PreparedTest,
            block: ReplicateBlock | None = None) -> TestResult:
    """Decide the one-sided test of a prepared dataset at its config's level
    alpha: the one decision rule of every test.

    Without ``block``, T_n/V_n is compared with the normal (1 - alpha)-quantile
    and the p-value is 1 - Phi(T_n/V_n); a zero plug-in variance sets T_n/V_n
    to 0 (retain) and flags the result.  With ``block``, it is compared with
    the replicate order statistic of rank ceil((1 - alpha)(B + 1)) and the
    p-value is (1 + #{replicates >= T_n/V_n}) / (B + 1).  With every
    replicate degenerate there is no resampling distribution to compare
    against, which raises :class:`NumericalError`; its message names the
    cause, an eventless window or bad luck in a small B.
    """
    stud, alpha = prep.studentized, prep.config.alpha
    bootstrap = {}
    if block is None:
        method = "asymptotic"
        crit = _NORMAL.inv_cdf(1.0 - alpha)
        # the upper tail itself: 1 - Phi(x) is exactly 0 for x above ~8.3
        p_value = 0.5 * math.erfc(stud / math.sqrt(2.0))
    else:
        B = block.studentized.size
        if block.degenerate == B:
            k = int(np.count_nonzero(prep.integrals))
            cause = ("the data carry no events inside the window" if k == 0 else
                     f"{k} of the {prep.size} window integrals are nonzero, "
                     f"but no replicate drew a positive variance from them; a "
                     f"larger B makes this unlikely")
            raise NumericalError(
                f"all {B} bootstrap replicates have zero variance; {cause}")
        method = "efron" if block.scheme == EFRON else "wild"
        crit = bootstrap_critical_value(block.studentized, alpha)
        p_value = (1 + int(np.count_nonzero(block.studentized >= stud))) / (B + 1)
        bootstrap = dict(B=B, scheme=block.scheme, replicates=block.studentized,
                         degenerate_replicates=block.degenerate,
                         truncated_variances=block.truncated)
    return TestResult(
        method=method, statistic=prep.statistic, variance=prep.variance,
        studentized=stud, critical_value=crit, p_value=p_value,
        reject=stud > crit, alpha=alpha, interval=(prep.config.t1, prep.t2),
        truncated=prep.truncated, warning=prep.warning, vn_zero=prep.vn_zero,
        **bootstrap)


# the first and the fewest rows of an early_reject checkpoint: a checkpoint
# costs ~35 us of calls at n1 = n2 = 50, about 30 rows' worth; 64 lets
# B = 99 stop early too
_CHECKPOINT_ROWS = 64


def early_reject(prep: PreparedTest, scheme: WeightScheme, B: int,
                 rng: np.random.Generator) -> tuple[bool | None, ReplicateBlock]:
    """The decision of ``verdict(prep, replicate_block(prep, scheme, B,
    rng)).reject`` for a wild scheme, drawing only the replicates it needs.

    With r the rank of the critical value, T_n/V_n exceeds the rank-r
    replicate exactly when r replicates lie below it.  Replicates are drawn
    in checkpoints; after each, the test rejects once r lie below T_n/V_n
    and retains once B - r + 1 lie at or above it, but only after a
    replicate with positive variance, so an all-degenerate block is still
    drawn in full.  The first checkpoint is ``_CHECKPOINT_ROWS`` rows; each
    later one runs to where the shares below and at or above T_n/V_n seen
    so far would settle the nearer decision, and is at least as long.  Wild
    replicates do not depend on how the rows are split into calls, so the
    drawn ones are a prefix of the full block and ``rng`` is left as after
    drawing them.  Returns the decision, None where ``verdict`` raises
    :class:`NumericalError` (all B replicates degenerate), and the block of
    the drawn replicates.
    """
    if scheme.kind not in (WILD_NORMAL, WILD_POISSON):
        raise DataError("early decisions need a wild scheme: an Efron block "
                        "draws its hit counts for all B replicates first")
    B = check_count("B", B, 1)
    stud, rank = prep.studentized, _bootstrap_rank(prep.config.alpha, B)
    parts = []
    drawn = below = positive = 0
    rows = _CHECKPOINT_ROWS
    while drawn < B:
        part = replicate_block(prep, scheme, min(rows, B - drawn), rng)
        parts.append(part)
        drawn += part.studentized.size
        below += int(np.count_nonzero(part.studentized < stud))
        positive += part.studentized.size - part.degenerate
        # replicates still missing below, and at or above, to settle it
        seen = (below, drawn - below)
        need = (rank - below, B - rank + 1 - seen[1])
        if min(need) <= 0:
            if positive:
                break
            rows = _CHECKPOINT_ROWS
        else:
            # to where the shares seen so far would settle the nearer side
            rows = max(_CHECKPOINT_ROWS, min(-(-n * drawn // s)
                                             for n, s in zip(need, seen) if s))
    block = ReplicateBlock(
        studentized=np.concatenate([p.studentized for p in parts]),
        scheme=scheme.kind, degenerate=sum(p.degenerate for p in parts))
    return (below >= rank if positive else None), block


def test_phi_n(panel1: CountingProcessPanel, panel2: CountingProcessPanel,
               config: TestConfig) -> TestResult:
    """Asymptotic one-sided test: :func:`prepare_test`, then :func:`verdict`."""
    return verdict(prepare_test(panel1, panel2, config))


def test_phi_star(panel1: CountingProcessPanel, panel2: CountingProcessPanel,
                  config: TestConfig, *,
                  rng: np.random.Generator) -> TestResult:
    """Bootstrap one-sided test: :func:`prepare_test`, B replicates drawn
    from ``rng`` by :func:`replicate_block`, then :func:`verdict`."""
    prep = prepare_test(panel1, panel2, config)
    return verdict(prep, replicate_block(prep, config.scheme, config.B, rng))
