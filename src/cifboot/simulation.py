"""Monte Carlo study: hazard models, dataset generation and scenario suites.

The hazard models cover the two study groups (an exponential mixture whose
all-cause hazard is 1, and a constant pair alpha1 = c, alpha2 = 2 - c whose
all-cause hazard is 2) plus a piecewise-constant escape hatch.  Scenarios
draw independent right-censored competing-risks datasets and run the
asymptotic, wild and Efron tests on each, aggregating rejection counts.

Reproducibility: every dataset r of a scenario uses two dedicated RNG
substreams keyed by (master seed, scenario id, r, role).  Workers only ever
add integer counts, so results are identical for any worker count.
"""

from __future__ import annotations

import math
import os
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields
from itertools import repeat

import numpy as np

from .data import (CountingProcessPanel, DataError, check_count,
                   compile_panel_arrays)
from .resampling import EFRON, WILD_NORMAL, WeightScheme
from .rng import substream
from .twosample import NumericalError, TestConfig, early_reject, \
    prepare_test, replicate_block, verdict

PHI_N = "phi_n"
PHI_W = "phi_W"
PHI_E = "phi_E"


@dataclass(frozen=True)
class Group1Exp:
    """Cause-specific hazards exp(-u) and 1 - exp(-u).

    The all-cause hazard is identically 1, so event times are standard
    exponential and the cause-1 CIF is 0.5 (1 - exp(-2t)).
    """

    @property
    def tag(self) -> str:
        return "exp-mix"

    def event_times(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.standard_exponential(size)

    def cause1_prob(self, t) -> np.ndarray:
        return np.exp(-np.asarray(t, dtype=float))


@dataclass(frozen=True)
class ConstantPair:
    """Constant hazards alpha1 = c and alpha2 = 2 - c with 0 <= c <= 1.

    The all-cause hazard is 2 for every c; at c = 1 the cause-1 CIF matches
    Group1Exp's, making the pair a null configuration.
    """

    c: float

    def __post_init__(self):
        if not 0.0 <= self.c <= 1.0:
            raise DataError(f"ConstantPair needs 0 <= c <= 1, got {self.c}")

    @property
    def tag(self) -> str:
        return f"const({self.c!r})"

    def event_times(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.standard_exponential(size) / 2.0

    def cause1_prob(self, t) -> np.ndarray:
        return np.full(np.shape(np.asarray(t, dtype=float)), self.c / 2.0)


@dataclass(frozen=True)
class PiecewiseConstant:
    """Per-cause piecewise-constant hazards on [breaks[k], breaks[k+1]).

    ``breaks`` starts at 0 and the final segment extends to infinity; its
    total rate must be positive so event times are almost surely finite.
    Event times invert the all-cause cumulative hazard segment by segment.
    """

    breaks: tuple[float, ...]
    rates1: tuple[float, ...]
    rates2: tuple[float, ...]

    def __post_init__(self):
        for name in ("breaks", "rates1", "rates2"):
            object.__setattr__(self, name, tuple(float(x) for x in getattr(self, name)))
        if not all(math.isfinite(x) for x in self.breaks + self.rates1 + self.rates2):
            raise DataError("breaks and hazard rates must be finite")
        k = len(self.breaks)
        if k == 0 or self.breaks[0] != 0.0:
            raise DataError("breaks must start at 0")
        if any(b >= a for a, b in zip(self.breaks[1:], self.breaks[:-1])):
            raise DataError("breaks must be strictly increasing")
        if len(self.rates1) != k or len(self.rates2) != k:
            raise DataError("need one rate per cause per segment")
        if any(r < 0 for r in self.rates1 + self.rates2):
            raise DataError("hazard rates must be nonnegative")
        if self.rates1[-1] + self.rates2[-1] <= 0:
            raise DataError("the final segment needs a positive total rate")

    @property
    def tag(self) -> str:
        return f"pw({self.breaks!r},{self.rates1!r},{self.rates2!r})"

    def event_times(self, rng: np.random.Generator, size: int) -> np.ndarray:
        b = np.asarray(self.breaks)
        total = np.asarray(self.rates1) + np.asarray(self.rates2)
        # cumulative all-cause hazard at the segment ends, +inf for the last
        h_end = np.concatenate((np.cumsum(total[:-1] * np.diff(b)), [np.inf]))
        h_start = np.concatenate(([0.0], h_end[:-1]))
        e = rng.standard_exponential(size)
        # first segment whose cumulative hazard end exceeds the draw; its
        # rate is positive there, so the linear inversion is well defined
        k = np.searchsorted(h_end, e, side="right")
        return b[k] + (e - h_start[k]) / total[k]

    def cause1_prob(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        r1 = np.asarray(self.rates1)
        total = r1 + np.asarray(self.rates2)
        k = np.clip(np.searchsorted(self.breaks, t, side="right") - 1, 0, None)
        return np.where(total[k] > 0, r1[k] / np.where(total[k] > 0, total[k], 1.0), 0.0)


HazardModel = Group1Exp | ConstantPair | PiecewiseConstant


def draw_panel(model: HazardModel, n: int, censor_rate: float,
               rng: np.random.Generator) -> CountingProcessPanel:
    """Draw a compiled n-subject panel in one vectorized pass.

    Consumes the generator in block order: all event times, then all cause
    uniforms, then all censoring draws (none at rate 0); a negative or
    non-finite rate is a :class:`DataError`.
    """
    n = check_count("n", n, 1)
    if not 0.0 <= censor_rate < math.inf:
        raise DataError(f"censor_rate must be finite and >= 0, got {censor_rate!r}")
    t = model.event_times(rng, n)
    cause = np.where(rng.random(n) < model.cause1_prob(t), 1, 2)
    exit_, status = t, cause
    if censor_rate > 0:
        c = rng.standard_exponential(n) / censor_rate
        exit_, status = np.minimum(t, c), np.where(t <= c, cause, 0)
    return compile_panel_arrays(np.zeros(n), exit_, status)


@dataclass(frozen=True)
class ScenarioConfig:
    """One Monte Carlo cell: models, sizes, censoring, window and budgets."""

    model1: HazardModel
    model2: HazardModel
    n1: int
    n2: int
    censor_rates: tuple[float, float] = (0.0, 0.0)
    interval: tuple[float, float] = (0.0, 1.5)
    alpha: float = 0.05
    n_sim: int = 1000
    B: int = 999
    seed: int = 0

    def __post_init__(self):
        for name, least in (("n1", 2), ("n2", 2), ("n_sim", 1), ("seed", 0)):
            check_count(name, getattr(self, name), least)
        for name in ("censor_rates", "interval"):
            if len(getattr(self, name)) != 2:
                raise DataError(f"{name} needs two values, got {getattr(self, name)!r}")
        if not all(0.0 <= r < math.inf for r in self.censor_rates):
            raise DataError(f"censor_rates must be finite and >= 0, got "
                            f"{self.censor_rates!r}")
        self.test_config  # building it checks the window, alpha and B

    @property
    def test_config(self) -> TestConfig:
        """The settings of each dataset's test."""
        t1, t2 = self.interval
        return TestConfig(t1=t1, t2=t2, alpha=self.alpha, B=self.B)

    @property
    def scenario_id(self) -> str:
        """Stable identity string keying the RNG substreams.

        Depends on everything that shapes a single dataset's draw and test,
        but not on n_sim, so a shorter run replays a prefix of a longer one.
        """
        l1, l2 = self.censor_rates
        t1, t2 = self.interval
        return (f"{self.model1.tag};{self.model2.tag};n={self.n1},{self.n2};"
                f"cens={l1!r},{l2!r};window={t1!r},{t2!r};"
                f"alpha={self.alpha!r};B={self.B}")

    @property
    def c_value(self) -> float | None:
        """The c of a ConstantPair group-2 model (table row key), if any."""
        if isinstance(self.model2, ConstantPair):
            return self.model2.c
        return None


@dataclass(frozen=True)
class MonteCarloReport:
    """Aggregated rejection counts of one scenario.

    ``error_count`` tallies datasets where a test was undefined, those on
    which ``cifboot test`` exits 2 or 3: a degenerate window (``DataError``)
    or an all-degenerate bootstrap (``NumericalError`` from ``verdict``).
    They count as non-rejections.  By cause, ``degenerate_windows`` counts
    the first kind and ``all_degenerate_phi_e``/``_phi_w`` the datasets
    whose Efron or wild replicates were all degenerate (a dataset can have
    both).  ``degenerate_*`` and ``truncated_phi_e`` sum the replicate
    diagnostics (:class:`ReplicateBlock`) over all datasets.  The wild
    block stops once its verdict is settled (:func:`early_reject`), so
    ``degenerate_phi_w`` counts over the wild replicates drawn, and
    ``replicates_drawn_phi_w`` sums those; every Efron block draws all B.
    Every field between ``config`` and ``runtime`` is a tally.  ``runtime``
    is wall-clock seconds and is the one field excluded from
    reproducibility comparisons.
    """

    config: ScenarioConfig
    reject_phi_n: int
    reject_phi_w: int
    reject_phi_e: int
    error_count: int
    degenerate_phi_e: int
    degenerate_phi_w: int
    truncated_phi_e: int
    degenerate_windows: int
    all_degenerate_phi_e: int
    all_degenerate_phi_w: int
    replicates_drawn_phi_w: int
    runtime: float = field(compare=False)

    def count(self, method: str) -> int:
        return {PHI_N: self.reject_phi_n, PHI_W: self.reject_phi_w,
                PHI_E: self.reject_phi_e}[method]

    def rate(self, method: str) -> float:
        return self.count(method) / self.config.n_sim

    def mc_se(self, method: str) -> float:
        r = self.rate(method)
        return float(np.sqrt(r * (1.0 - r) / self.config.n_sim))

    @property
    def rates(self) -> dict[str, float]:
        return {m: self.rate(m) for m in (PHI_N, PHI_W, PHI_E)}


def _run_range(config: ScenarioConfig, lo: int, hi: int) -> Counter:
    """Run datasets lo..hi-1; return their tallies, each under the name of
    the :class:`MonteCarloReport` field it adds to.  Every decision is the
    ``verdict`` that ``cifboot test`` gives the same panels and weights."""
    tconf = config.test_config
    efron = WeightScheme(EFRON)
    wild = WeightScheme(WILD_NORMAL)
    l1, l2 = config.censor_rates
    sid = config.scenario_id
    tally = Counter()

    for r in range(lo, hi):
        rng_data = substream(config.seed, sid, r, "data")
        rng_weights = substream(config.seed, sid, r, "weights")
        panel1 = draw_panel(config.model1, config.n1, l1, rng_data)
        panel2 = draw_panel(config.model2, config.n2, l2, rng_data)
        try:
            prep = prepare_test(panel1, panel2, tconf)
        except DataError:
            tally.update(error_count=1, degenerate_windows=1)
            continue
        tally["reject_phi_n"] += verdict(prep).reject

        # Efron first, then wild, off the shared per-dataset weight stream;
        # wild draws last, so it stops once its verdict is settled
        eblock = replicate_block(prep, efron, config.B, rng_weights)
        try:
            reject_e = verdict(prep, eblock).reject
        except NumericalError:
            reject_e = None
        reject_w, wblock = early_reject(prep, wild, config.B, rng_weights)
        tally.update(degenerate_phi_e=eblock.degenerate,
                     degenerate_phi_w=wblock.degenerate,
                     truncated_phi_e=eblock.truncated,
                     replicates_drawn_phi_w=wblock.studentized.size)
        for method, reject in (("phi_e", reject_e), ("phi_w", reject_w)):
            if reject is None:
                tally["all_degenerate_" + method] += 1
            else:
                tally["reject_" + method] += reject
        tally["error_count"] += reject_e is None or reject_w is None

    return tally


def run_scenario(config: ScenarioConfig, workers: int = 1) -> MonteCarloReport:
    """Run one scenario's full Monte Carlo loop.

    ``workers`` > 1 splits the replicates into up to ``4 * workers`` ranges and
    runs them on a process pool of at most one process per CPU; the
    substream-per-replicate design makes the aggregate independent of the
    split.  A count below 1 is a :class:`DataError`.
    """
    workers = check_count("workers", workers, 1)
    start = time.perf_counter()
    if workers == 1 or config.n_sim < 4:
        tally = _run_range(config, 0, config.n_sim)
    else:
        edges = np.linspace(0, config.n_sim, min(4 * workers, config.n_sim) + 1,
                            dtype=int)
        with ProcessPoolExecutor(
                max_workers=min(workers, os.cpu_count() or 1)) as pool:
            tally = sum(pool.map(_run_range, repeat(config), edges[:-1],
                                 edges[1:]), Counter())
    return MonteCarloReport(
        config, runtime=time.perf_counter() - start,
        **{f.name: tally[f.name] for f in fields(MonteCarloReport)
           if f.name not in ("config", "runtime")})


TABLE1_SIZES = ((50, 50), (50, 100), (100, 100))
TABLE1_CENSORING = ((0.0, 0.0), (0.5, 0.5), (0.5, 1.0), (1.0, 0.5), (1.0, 1.0))
TABLE2_C = (0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1)
TABLE2_COLUMNS = (((50, 50), (0.0, 0.0)), ((50, 50), (1.0, 1.0)),
                  ((100, 100), (0.0, 0.0)), ((100, 100), (1.0, 1.0)))


def suite_configs(which: str, *, n_sim: int = 1000, B: int = 999,
                  seed: int = 0, alpha: float = 0.05,
                  interval: tuple[float, float] = (0.0, 1.5),
                  cells: str | None = None) -> list[ScenarioConfig]:
    """Enumerate a suite's scenario grid, optionally filtered by ``cells``.

    table1: sizes x censoring at c = 1 (15 cells, null).  table2: c from
    0.9 down to 0.1 x four design columns (36 cells, alternatives).
    """
    if which == "table1":
        grid = [(1.0, n, rates) for n in TABLE1_SIZES
                for rates in TABLE1_CENSORING]
    elif which == "table2":
        grid = [(c, n, rates) for c in TABLE2_C for n, rates in TABLE2_COLUMNS]
    else:
        raise DataError(f"unknown suite {which!r} (expected table1 or table2)")
    configs = [ScenarioConfig(model1=Group1Exp(), model2=ConstantPair(c),
                              n1=n1, n2=n2, censor_rates=rates, n_sim=n_sim,
                              B=B, seed=seed, alpha=alpha, interval=interval)
               for c, (n1, n2), rates in grid]
    if cells:
        wanted = parse_cells(cells)
        configs = [cf for cf in configs if scenario_matches(cf, wanted)]
    return configs


# --cells key -> the config values that must all equal the filter value
_CELL_KEYS = {
    "c": lambda cf: (cf.c_value,),
    "n": lambda cf: (cf.n1, cf.n2),
    "n1": lambda cf: (cf.n1,),
    "n2": lambda cf: (cf.n2,),
    "l1": lambda cf: cf.censor_rates[:1],
    "l2": lambda cf: cf.censor_rates[1:],
}


def parse_cells(spec_str: str) -> dict[str, float]:
    """Parse a cell filter like "c=0.5,n=100" into a key-value dict."""
    out = {}
    for part in spec_str.split(","):
        part = part.strip()
        if not part:
            continue
        key, sep, val = part.partition("=")
        key = key.strip()
        if not sep or key not in _CELL_KEYS:
            raise DataError(f"bad cell filter term {part!r} "
                            f"(keys: {', '.join(sorted(_CELL_KEYS))})")
        if key in out:
            raise DataError(f"cell filter key {key!r} given twice")
        try:
            out[key] = float(val)
        except ValueError:
            raise DataError(f"bad cell filter value in {part!r}") from None
    return out


def scenario_matches(config: ScenarioConfig, wanted: dict[str, float]) -> bool:
    return all(value == val for key, val in wanted.items()
               for value in _CELL_KEYS[key](config))
