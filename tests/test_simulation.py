import dataclasses
import math
from collections import Counter

import numpy as np
import pytest

import cifboot as cb
from cifboot import simulation, twosample
from cifboot.simulation import (PHI_E, PHI_N, PHI_W, ConstantPair, Group1Exp,
                                PiecewiseConstant, ScenarioConfig, draw_panel,
                                MonteCarloReport, parse_cells, run_scenario,
                                scenario_matches, suite_configs, _run_range)
from cifboot.resampling import EFRON, WILD_NORMAL
from cifboot.rng import substream


class FixedExponentials:
    """Generator stub feeding chosen values into event_times."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)

    def standard_exponential(self, size):
        assert size == self.values.size
        return self.values


# ------------------------------------------------------------- models

def test_constant_pair_validation():
    with pytest.raises(cb.DataError):
        ConstantPair(1.5)
    with pytest.raises(cb.DataError):
        ConstantPair(-0.1)
    assert ConstantPair(0.5).tag == "const(0.5)"


def test_group1_law():
    rng = np.random.default_rng(12)
    model = Group1Exp()
    t = model.event_times(rng, 40_000)
    assert abs(t.mean() - 1.0) < 0.02
    # P(cause 1) = E[exp(-T)] = 1/2 for a standard exponential T
    u = rng.random(40_000)
    frac1 = np.mean(u < model.cause1_prob(t))
    assert abs(frac1 - 0.5) < 0.01


def test_constant_pair_law():
    rng = np.random.default_rng(34)
    model = ConstantPair(0.6)
    t = model.event_times(rng, 40_000)
    assert abs(t.mean() - 0.5) < 0.01
    np.testing.assert_array_equal(model.cause1_prob(t), 0.3)


def test_group1_cif_value():
    # F1(1.5) = 0.5 (1 - exp(-3)) from the closed form
    rng = np.random.default_rng(56)
    panel = draw_panel(Group1Exp(), 40_000, 0.0, rng)
    f1 = cb.aalen_johansen(panel, 1)
    assert abs(f1(1.5) - 0.5 * (1 - math.exp(-3))) < 0.008


def test_null_pair_has_matching_cif():
    # c = 1: different all-cause rates, same cause-1 incidence
    rng = np.random.default_rng(78)
    f1a = cb.aalen_johansen(draw_panel(Group1Exp(), 5000, 0.0, rng), 1)
    f1b = cb.aalen_johansen(draw_panel(ConstantPair(1.0), 5000, 0.0, rng), 1)
    grid = np.linspace(0.0, 1.5, 151)
    assert np.max(np.abs(f1a(grid) - f1b(grid))) < 0.03


def test_piecewise_validation():
    with pytest.raises(cb.DataError, match="start at 0"):
        PiecewiseConstant((1.0,), (1.0,), (1.0,))
    with pytest.raises(cb.DataError, match="increasing"):
        PiecewiseConstant((0.0, 2.0, 1.0), (1.0,) * 3, (1.0,) * 3)
    with pytest.raises(cb.DataError, match="one rate per cause"):
        PiecewiseConstant((0.0, 1.0), (1.0,), (1.0, 1.0))
    with pytest.raises(cb.DataError, match="nonnegative"):
        PiecewiseConstant((0.0,), (-1.0,), (1.0,))
    with pytest.raises(cb.DataError, match="positive total"):
        PiecewiseConstant((0.0, 1.0), (1.0, 0.0), (1.0, 0.0))
    # non-finite breaks and rates are refused here, not left to the data
    for breaks, rates1, rates2 in (((0.0, math.nan), (1.0, 1.0), (1.0, 1.0)),
                                   ((0.0, math.inf), (1.0, 1.0), (1.0, 1.0)),
                                   ((0.0,), (math.nan,), (1.0,)),
                                   ((0.0, 1.0), (1.0, 1.0), (1.0, math.inf))):
        with pytest.raises(cb.DataError, match="must be finite"):
            PiecewiseConstant(breaks, rates1, rates2)


def test_piecewise_inversion_hand_values():
    # total hazard 1 on [0,1), 2 afterwards
    model = PiecewiseConstant((0.0, 1.0), (0.0, 2.0), (1.0, 0.0))
    t = model.event_times(FixedExponentials([0.5, 1.0, 3.0]), 3)
    np.testing.assert_allclose(t, [0.5, 1.0, 2.0], rtol=1e-15)


def test_piecewise_single_segment_matches_constant():
    model = PiecewiseConstant((0.0,), (1.0,), (1.0,))
    rng = np.random.default_rng(9)
    t = model.event_times(rng, 40_000)
    assert abs(t.mean() - 0.5) < 0.01
    np.testing.assert_array_equal(model.cause1_prob([0.3, 7.0]), 0.5)


def test_piecewise_cause_probability_by_segment():
    model = PiecewiseConstant((0.0, 1.0), (0.0, 2.0), (1.0, 0.0))
    np.testing.assert_array_equal(model.cause1_prob([0.2, 0.999]), 0.0)
    np.testing.assert_array_equal(model.cause1_prob([1.0, 5.0]), 1.0)
    # a zero-total interior segment carries no events; its probability
    # reports 0 rather than dividing by zero
    gap = PiecewiseConstant((0.0, 1.0), (0.0, 1.0), (0.0, 1.0))
    assert gap.cause1_prob(0.5) == 0.0


# ------------------------------------------------------------- drawing

def test_draw_panel_matches_block_order():
    rng1 = np.random.default_rng(77)
    rng2 = np.random.default_rng(77)
    model = ConstantPair(0.8)
    panel = draw_panel(model, 50, 0.5, rng1)

    t = model.event_times(rng2, 50)
    u = rng2.random(50)
    cause = np.where(u < model.cause1_prob(t), 1, 2)
    c = rng2.standard_exponential(50) / 0.5
    observed = t <= c
    manual = cb.compile_panel_arrays(np.zeros(50), np.where(observed, t, c),
                                     np.where(observed, cause, 0))
    np.testing.assert_array_equal(panel.times, manual.times)
    np.testing.assert_array_equal(panel.subject_jumps, manual.subject_jumps)


def test_censoring_fraction():
    rng = np.random.default_rng(15)
    # P(C < T) = lambda / (1 + lambda) for unit all-cause hazard
    panel = draw_panel(Group1Exp(), 40_000, 1.0, rng)
    frac = panel.d0.sum() / panel.n
    assert abs(frac - 0.5) < 0.01
    # and lambda / (2 + lambda) for the constant-pair models
    panel = draw_panel(ConstantPair(1.0), 40_000, 1.0, rng)
    frac = panel.d0.sum() / panel.n
    assert abs(frac - 1 / 3) < 0.01


def test_draw_panel_no_censoring_has_no_zeros():
    panel = draw_panel(ConstantPair(0.3), 500, 0.0, np.random.default_rng(2))
    assert panel.d0.sum() == 0
    assert panel.n_events == 500


# ------------------------------------------------------------- scenarios

def test_scenario_config_validation():
    ok = dict(model1=Group1Exp(), model2=ConstantPair(1.0), n1=10, n2=10)
    with pytest.raises(cb.DataError):
        ScenarioConfig(**{**ok, "n1": 1})
    with pytest.raises(cb.DataError):
        ScenarioConfig(**ok, n_sim=0)
    with pytest.raises(cb.DataError):
        ScenarioConfig(**ok, censor_rates=(-1.0, 0.0))
    with pytest.raises(cb.DataError):
        ScenarioConfig(**ok, interval=(2.0, 1.0))
    with pytest.raises(cb.DataError):
        ScenarioConfig(**ok, alpha=0.0)


@pytest.mark.parametrize("field, value", [
    ("censor_rates", (math.nan, 0.0)),  # ran uncensored without a word
    ("censor_rates", (math.inf, 0.0)),  # failed later, in compile_panel
    ("censor_rates", (0.5,)),           # bare ValueError from unpacking
    ("interval", (1.0,)),
])
def test_scenario_config_refuses_bad_pairs_and_rates(field, value):
    ok = dict(model1=Group1Exp(), model2=ConstantPair(1.0), n1=10, n2=10)
    with pytest.raises(cb.DataError, match=field):
        ScenarioConfig(**ok, **{field: value})


def test_scenario_test_config():
    ok = dict(model1=Group1Exp(), model2=ConstantPair(1.0), n1=10, n2=10)
    cf = ScenarioConfig(**ok, interval=(0.25, 1.0), alpha=0.1, B=49)
    assert cf.test_config == cb.TestConfig(t1=0.25, t2=1.0, alpha=0.1, B=49)
    # the window, alpha and B are checked once, by TestConfig
    with pytest.raises(cb.DataError, match="B must be >= 1"):
        ScenarioConfig(**ok, B=0)
    with pytest.raises(cb.DataError, match="need 0 <= t1 < t2"):
        ScenarioConfig(**ok, interval=(1.0, 1.0))


def test_scenario_id_ignores_n_sim():
    base = ScenarioConfig(model1=Group1Exp(), model2=ConstantPair(0.5),
                          n1=20, n2=30, censor_rates=(0.5, 1.0), n_sim=100)
    longer = dataclasses.replace(base, n_sim=10_000)
    assert base.scenario_id == longer.scenario_id
    assert base.c_value == 0.5
    # but everything shaping a single replicate is part of the identity
    assert base.scenario_id != dataclasses.replace(base, B=499).scenario_id
    assert base.scenario_id != dataclasses.replace(base, n1=21).scenario_id
    assert base.scenario_id != dataclasses.replace(
        base, censor_rates=(0.0, 1.0)).scenario_id


def fast_config(**over):
    base = dict(model1=Group1Exp(), model2=ConstantPair(1.0), n1=12, n2=12,
                censor_rates=(0.5, 0.5), n_sim=40, B=19, seed=99)
    base.update(over)
    return ScenarioConfig(**base)


def test_run_scenario_is_deterministic():
    config = fast_config()
    a = run_scenario(config)
    b = run_scenario(config)
    assert (a.reject_phi_n, a.reject_phi_w, a.reject_phi_e, a.error_count) \
        == (b.reject_phi_n, b.reject_phi_w, b.reject_phi_e, b.error_count)


def test_run_scenario_worker_count_is_invisible():
    config = fast_config()
    serial = run_scenario(config, workers=1)
    parallel = run_scenario(config, workers=2)
    assert serial.rates == parallel.rates
    assert serial.error_count == parallel.error_count


def test_run_scenario_rejects_worker_counts_below_one():
    for workers in (0, -2):
        with pytest.raises(cb.DataError, match="workers must be >= 1"):
            run_scenario(fast_config(), workers=workers)


def test_run_scenario_pool_is_bounded_by_the_cpu_count(monkeypatch):
    # no process is started: the pool is replaced by one that records its
    # size and maps in this process
    sizes = []

    class InProcessPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    config = fast_config(n_sim=12)
    serial = run_scenario(config, workers=1)
    monkeypatch.setattr(simulation, "ProcessPoolExecutor", InProcessPool)
    for cpus, workers in ((3, 5000), (3, 2), (None, 5000)):
        monkeypatch.setattr(simulation.os, "cpu_count", lambda: cpus)
        assert run_scenario(config, workers=workers) == serial
    assert sizes == [3, 2, 1]


def test_replicate_ranges_compose():
    config = fast_config()
    whole = _run_range(config, 0, 40)
    parts = _run_range(config, 0, 17) + _run_range(config, 17, 40)
    assert whole == parts
    # every tally is named after the report field it adds to
    tallies = {f.name for f in dataclasses.fields(MonteCarloReport)}
    assert whole and set(whole) <= tallies - {"config", "runtime"}


def test_shorter_run_is_a_prefix():
    config = fast_config()
    short = _run_range(config, 0, 15)
    prefix = _run_range(dataclasses.replace(config, n_sim=15), 0, 15)
    assert short == prefix


def test_error_datasets_counted_not_rejected():
    # two subjects with heavy censoring: most replicates have no events in
    # the window, an all-degenerate bootstrap, and count as errors
    config = fast_config(n1=2, n2=2, censor_rates=(50.0, 50.0), n_sim=30)
    report = run_scenario(config)
    assert report.error_count > 0
    assert report.reject_phi_e + report.error_count <= 30


def test_replicate_diagnostics_are_worker_invariant_sums():
    # four heavily censored subjects per group: many Efron replicates, and
    # every wild replicate of a dataset without an event in the window,
    # have zero variance; with the window starting at 0.2 some datasets
    # run out of risk before it (a degenerate window)
    windows = 0
    for interval in ((0.0, 1.5), (0.2, 1.5)):
        config = fast_config(n1=4, n2=4, censor_rates=(2.0, 2.0), n_sim=24,
                             interval=interval)
        serial = run_scenario(config, workers=1)
        parallel = run_scenario(config, workers=2)
        assert serial == parallel
        assert serial.degenerate_phi_e > 0 and serial.degenerate_phi_w > 0
        parts = [_run_range(config, lo, hi) for lo, hi in ((0, 5), (5, 24))]
        summed = parts[0] + parts[1]
        for name in ("degenerate_phi_e", "degenerate_phi_w", "truncated_phi_e",
                     "degenerate_windows", "all_degenerate_phi_e",
                     "all_degenerate_phi_w"):
            assert getattr(serial, name) == summed[name]
        # the causes split error_count; a dataset can count under both
        # schemes
        window, by_e, by_w = (serial.degenerate_windows,
                              serial.all_degenerate_phi_e,
                              serial.all_degenerate_phi_w)
        assert by_w > 0
        assert (window + max(by_e, by_w) <= serial.error_count
                <= window + by_e + by_w)
        windows += window
    assert windows > 0


def test_simulate_tallies_are_the_test_verdicts():
    # redraw each dataset off its substreams and run the tests users run:
    # a DataError is a degenerate window, a NumericalError an all-degenerate
    # bootstrap; Efron then wild draw off the one weight generator
    config = fast_config(n1=4, n2=4, censor_rates=(2.0, 2.0),
                         interval=(0.2, 1.5), n_sim=60)
    tconf, sid = config.test_config, config.scenario_id
    expected = Counter()
    for r in range(config.n_sim):
        rng_data = substream(config.seed, sid, r, "data")
        rng_weights = substream(config.seed, sid, r, "weights")
        p1 = draw_panel(config.model1, config.n1, config.censor_rates[0],
                        rng_data)
        p2 = draw_panel(config.model2, config.n2, config.censor_rates[1],
                        rng_data)
        try:
            expected["reject_phi_n"] += cb.test_phi_n(p1, p2, tconf).reject
        except cb.DataError:
            expected.update(error_count=1, degenerate_windows=1)
            continue
        failed = False
        for method, kind in (("phi_e", EFRON), ("phi_w", WILD_NORMAL)):
            conf = dataclasses.replace(tconf, scheme=cb.WeightScheme(kind))
            try:
                expected["reject_" + method] += cb.test_phi_star(
                    p1, p2, conf, rng=rng_weights).reject
            except cb.NumericalError:
                expected["all_degenerate_" + method] += 1
                failed = True
        expected["error_count"] += failed

    tally = _run_range(config, 0, config.n_sim)
    names = ("reject_phi_n", "reject_phi_e", "reject_phi_w", "error_count",
             "degenerate_windows", "all_degenerate_phi_e",
             "all_degenerate_phi_w")
    assert {n: tally[n] for n in names} == {n: expected[n] for n in names}
    # every cause shows up, and so do rejections
    assert all(expected[n] > 0 for n in names[3:])
    assert expected["reject_phi_e"] + expected["reject_phi_w"] > 0


def test_wild_tallies_count_the_replicates_drawn():
    # the wild block draws after the whole Efron block and stops once its
    # verdict is settled: degenerate_phi_w and replicates_drawn_phi_w sum
    # over the wild replicates drawn, short of B on most datasets
    config = fast_config(n1=4, n2=4, censor_rates=(2.0, 2.0), n_sim=40, B=199)
    efron, wild = cb.WeightScheme(EFRON), cb.WeightScheme(WILD_NORMAL)
    expected, tested = Counter(), 0
    for r in range(config.n_sim):
        rng_data = substream(config.seed, config.scenario_id, r, "data")
        rng_weights = substream(config.seed, config.scenario_id, r, "weights")
        p1 = draw_panel(config.model1, config.n1, config.censor_rates[0],
                        rng_data)
        p2 = draw_panel(config.model2, config.n2, config.censor_rates[1],
                        rng_data)
        try:
            prep = cb.prepare_test(p1, p2, config.test_config)
        except cb.DataError:
            continue
        tested += 1
        cb.replicate_block(prep, efron, config.B, rng_weights)
        _, block = twosample.early_reject(prep, wild, config.B, rng_weights)
        expected.update(degenerate_phi_w=block.degenerate,
                        replicates_drawn_phi_w=block.studentized.size)
    report = run_scenario(config)
    assert (report.degenerate_phi_w, report.replicates_drawn_phi_w) == (
        expected["degenerate_phi_w"], expected["replicates_drawn_phi_w"])
    # normal multipliers are degenerate only on a dataset without a nonzero
    # integral, which draws all B
    assert report.degenerate_phi_w == report.all_degenerate_phi_w * config.B > 0
    assert report.replicates_drawn_phi_w < tested * config.B * 3 / 4


def test_report_rates():
    report = run_scenario(fast_config(n_sim=20))
    assert report.rate(PHI_N) == report.reject_phi_n / 20
    assert set(report.rates) == {PHI_N, PHI_W, PHI_E}
    assert 0.0 <= report.mc_se(PHI_E) <= 0.5 / math.sqrt(20) + 1e-12
    assert report.count(PHI_W) == report.reject_phi_w


# ------------------------------------------------------------- suites

def test_suite_configs_grids():
    t1 = suite_configs("table1", n_sim=10, B=19)
    assert len(t1) == 15
    assert all(cf.model2 == ConstantPair(1.0) for cf in t1)
    assert {(cf.n1, cf.n2) for cf in t1} == {(50, 50), (50, 100), (100, 100)}

    t2 = suite_configs("table2", n_sim=10, B=19)
    assert len(t2) == 36
    assert sorted({cf.c_value for cf in t2}) == [round(0.1 * k, 1)
                                                 for k in range(1, 10)]
    with pytest.raises(cb.DataError, match="unknown suite"):
        suite_configs("table3")


def test_suite_cell_filters():
    got = suite_configs("table2", cells="c=0.5,n=100")
    assert len(got) == 2
    assert all(cf.c_value == 0.5 and cf.n1 == cf.n2 == 100 for cf in got)
    got = suite_configs("table1", cells="l1=0.5,l2=1")
    assert len(got) == 3
    got = suite_configs("table1", cells="n1=50,n2=100")
    assert len(got) == 5


def test_parse_cells():
    assert parse_cells("c=0.5, n=100") == {"c": 0.5, "n": 100.0}
    assert parse_cells("") == {}
    with pytest.raises(cb.DataError, match="bad cell filter term"):
        parse_cells("q=1")
    with pytest.raises(cb.DataError, match="bad cell filter value"):
        parse_cells("c=half")


def test_parse_cells_refuses_a_repeated_key():
    # "n=50,n=100" used to keep only n=100 and run its cells
    with pytest.raises(cb.DataError, match="'n' given twice"):
        parse_cells("n=50,n=100")


def test_scenario_matches_keys():
    cf = suite_configs("table2", cells="c=0.9")[0]
    assert scenario_matches(cf, {"c": 0.9})
    assert not scenario_matches(cf, {"c": 0.8})
    null = suite_configs("table1")[0]  # table1's cells have c = 1
    assert scenario_matches(null, {"c": 1.0})
    assert not scenario_matches(null, {"c": 0.9})
    assert scenario_matches(cf, {})
    # "n" asks for n1 and n2 both
    got = suite_configs("table1", cells="n=50")
    assert len(got) == 5
    assert all((cf.n1, cf.n2) == (50, 50) for cf in got)
