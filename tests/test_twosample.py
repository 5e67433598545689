"""Two-sample machinery against exact-rational and population oracles.

The per-entry integral reduction in twosample.py is the load-bearing piece
of the package, so it gets dual-route checks: every quantity is recomputed
from scratch in Fraction arithmetic (tests/oracles.py) on random small
panels, and the large-sample limits are checked against numerical
quadrature of the population covariances.
"""

import dataclasses
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.stats
from hypothesis import assume, example, given, settings, strategies as st

import cifboot as cb
from cifboot import resampling, twosample
from cifboot.resampling import (BAYESIAN, EFRON, WILD_NORMAL, WILD_POISSON,
                                build_z)

from cifboot.simulation import ConstantPair, Group1Exp, draw_panel

import oracles
from conftest import (build_panel, brute_from_panel, event_subjects,
                      jumps_from_subs, subjects)

HAND = [(0, 2, 1), (0, 4, 2), (0, 6, 1)]
ONE = [(Fraction(0), Fraction(1))]


def hand_pair():
    return build_panel(HAND), build_panel([(0, 6, 0), (0, 6, 0)])


# ------------------------------------------------------------- config

def test_config_validation():
    with pytest.raises(cb.DataError, match="t1 < t2"):
        cb.TestConfig(t1=2.0, t2=1.0)
    with pytest.raises(cb.DataError, match="t1 < t2"):
        cb.TestConfig(t1=-1.0, t2=1.0)
    with pytest.raises(cb.DataError, match="alpha"):
        cb.TestConfig(alpha=1.0)
    # the smallest alpha whose 1 - alpha is below 1 in floating point
    assert cb.TestConfig(alpha=2.0**-53).alpha == 2.0**-53
    for alpha in (2.0**-54, 1e-20, 5e-324):
        with pytest.raises(cb.DataError, match="alpha"):
            cb.TestConfig(alpha=alpha)
    with pytest.raises(cb.DataError, match="B"):
        cb.TestConfig(B=0)
    flat = cb.StepFunction(np.array([1.0]), np.array([0.0]), 1.0)
    with pytest.raises(cb.DataError, match="rho"):
        cb.TestConfig(t2=2.0, rho=flat)
    # the same rho is fine when the window stops before the zero segment
    cfg = cb.TestConfig(t2=1.0, rho=flat)
    assert cfg.rho_or_one is flat
    # non-finite values on the window or non-finite jump times never reach
    # the statistic as NaN
    for jumps, values, initial in (([], [], math.inf), ([0.5], [math.inf], 1.0),
                                   ([0.5], [math.nan], 1.0),
                                   ([math.nan], [2.0], 1.0),
                                   ([math.inf], [2.0], 1.0)):
        rho = cb.StepFunction(np.array(jumps), np.array(values), initial)
        with pytest.raises(cb.DataError, match="rho"):
            cb.TestConfig(t2=1.0, rho=rho)
    # an infinite value after the window is never integrated
    late = cb.StepFunction(np.array([5.0]), np.array([math.inf]), 1.0)
    assert cb.TestConfig(t2=1.0, rho=late).rho is late
    assert cb.TestConfig().rho_or_one(0.3) == 1.0


def test_effective_window():
    p1, p2 = hand_pair()
    cfg = cb.TestConfig(t1=0.0, t2=10.0)
    assert twosample.effective_window(p1, p2, cfg) == (0.0, 3.0)
    with pytest.raises(cb.DataError, match="degenerate"):
        twosample.effective_window(p1, p2, cb.TestConfig(t1=3.0, t2=10.0))


# ------------------------------------------------------------- hand values

def test_statistic_hand_value():
    # group 2 has no events, so T_n is kappa * int F1_hat of group 1;
    # the integral over [0, 3] is 1/3 * (3 - 1) = 2/3 and
    # kappa^2 = 3 * 2 / 5 = 6/5
    p1, p2 = hand_pair()
    prep = twosample.prepare_test(p1, p2, cb.TestConfig(t1=0.0, t2=3.0))
    assert prep.statistic == math.sqrt(1.2) * float(Fraction(2, 3))


def test_statistic_truncates_to_joint_support():
    p1, p2 = hand_pair()
    full = twosample.prepare_test(p1, p2, cb.TestConfig(t1=0.0, t2=3.0))
    pooled = twosample.prepare_test(p1, p2, cb.TestConfig(t1=0.0, t2=50.0))
    assert pooled.statistic == full.statistic
    assert pooled.truncated
    assert "truncated" in pooled.warning


def test_variance_hand_value():
    # worked by hand: entries of HAND vs two censored subjects give
    # I = (2/9 * 2, -1/6 * 1, 0, ...) on [0, 3] with rho = 1
    p1, p2 = hand_pair()
    cfg = cb.TestConfig(t1=0.0, t2=3.0)
    pooled = twosample.prepare_test(p1, p2, cfg)
    assert pooled.n1 == 3 and pooled.n2 == 2
    # subject 1 (cause 1 at u=1): S2(1-) = 1, integral of rho*F1 on [1,3]
    # is 2/3, so I = (1 * 2 - 2/3) / 3 = 4/9
    assert pooled.integrals[0] == pytest.approx(4 / 9, abs=1e-15)
    # subject 3 (cause 1 at u=3): zero-length tail
    assert pooled.integrals[2] == 0.0
    # subject 2's cause-2 slot: factor F1(2-) = 1/3, tail from 2 to 3:
    # I = (1/3 * 1 - 1/3) / 2 = 0
    assert pooled.integrals[4] == 0.0
    expected = (6 / 5) * ((4 / 9) ** 2)
    assert pooled.variance == pytest.approx(expected, rel=1e-15)


# ------------------------------------------------------------- dual routes

window_st = st.tuples(st.integers(0, 3), st.integers(2, 13)).filter(
    lambda ab: ab[0] < ab[1])

rho_st = st.lists(
    st.tuples(st.integers(1, 12), st.sampled_from([1, 2, 3, 4])),
    min_size=0, max_size=2, unique_by=lambda tv: tv[0]).map(
        lambda steps: sorted(steps))


def make_rho(steps, initial=1):
    """Package StepFunction and oracle step list for the same rho."""
    fn = cb.StepFunction(np.array([t / 2 for t, _ in steps]),
                         np.array([v / 2 for _, v in steps]),
                         initial)
    table = [(Fraction(0), Fraction(initial))]
    table += [(Fraction(t, 2), Fraction(v, 2)) for t, v in steps]
    return fn, table


def _window(p1, p2, a_half, b_half):
    t1 = a_half / 2
    t2 = b_half / 2
    t2_eff = min(t2, p1.last_time, p2.last_time)
    assume(t2_eff > t1)
    return t1, t2, t2_eff


@settings(max_examples=80, deadline=None)
@given(event_subjects(n_min=2, n_max=6), event_subjects(n_min=2, n_max=6),
       window_st, rho_st)
def test_entry_integrals_match_exact_rational_route(sub1, sub2, win, rho_steps):
    p1, p2 = build_panel(sub1), build_panel(sub2)
    t1, t2, t2_eff = _window(p1, p2, *win)
    rho_fn, rho_tab = make_rho(rho_steps)
    pooled = twosample.prepare_test(
        p1, p2, cb.TestConfig(t1=t1, t2=t2, rho=rho_fn))

    ft1, ft2 = Fraction(win[0], 2), Fraction(t2_eff)
    want1 = oracles.brute_entry_integrals(
        brute_from_panel(p1), jumps_from_subs(sub1), ft1, ft2, rho_tab)
    want2 = oracles.brute_entry_integrals(
        brute_from_panel(p2), jumps_from_subs(sub2), ft1, ft2, rho_tab)
    want = [float(v) for v in want1] + [-float(v) for v in want2]
    np.testing.assert_allclose(pooled.integrals, want, rtol=1e-12, atol=1e-14)


# events at 1, 2, 2.5 and 3 with a censoring at 1.5, to 3; the longer group
# has events at 1.5, 2.5 and 3.5, to 4; both have a left-truncated subject
_COINCIDENT = [(0, 2, 1), (1, 4, 2), (0, 3, 0), (0, 6, 1), (0, 5, 2)]
_LONGER = [(0, 3, 1), (2, 5, 2), (0, 8, 0), (1, 7, 1)]


@settings(max_examples=150, deadline=None)
@given(subjects(n_min=2, n_max=8, truncated=True),
       subjects(n_min=2, n_max=8, truncated=True),
       st.integers(0, 12), st.sampled_from([2.0, 3.5, 6.0, 100.0]),
       st.lists(st.tuples(st.integers(1, 26), st.integers(1, 4)), max_size=3,
                unique_by=lambda tv: tv[0]).map(sorted))
# a rho breakpoint at an event time, and one between grid times
@example(_COINCIDENT, _LONGER, 0, 6.0, [(4, 3), (7, 2)])
# t1 at an event time, with a rho breakpoint at the next event
@example(_COINCIDENT, _LONGER, 4, 6.0, [(8, 2)])
# events exactly at t2, with t1 between grid times
@example(_COINCIDENT, _LONGER, 1, 2.0, [(6, 2)])
# events at the truncated t2: group 1 runs out of risk at 3
@example(_COINCIDENT, _LONGER, 2, 100.0, [(12, 4)])
@example(_LONGER, _COINCIDENT, 0, 3.5, [])
def test_entry_integrals_match_the_per_entry_search(sub1, sub2, t1_quarters,
                                                     t2, rho_steps):
    # t1 and the rho breakpoints in quarters: odd ones fall between the
    # half-grid times; t2 = 100 lies past every exit
    p1, p2 = build_panel(sub1), build_panel(sub2)
    t1 = t1_quarters / 4
    assume(min(t2, p1.last_time, p2.last_time) > t1)
    rho = cb.StepFunction(np.array([t / 4 for t, _ in rho_steps]),
                          np.array([v / 2 for _, v in rho_steps]), 1.0)
    prep = twosample.prepare_test(p1, p2, cb.TestConfig(t1=t1, t2=t2, rho=rho))
    want = np.concatenate([
        oracles.searched_entry_integrals(
            cb.plugin_tables(p), p.subject_jumps, t1, prep.t2, rho,
            rho.breakpoints_in(t1, prep.t2), sign)
        for p, sign in ((p1, 1.0), (p2, -1.0))])
    np.testing.assert_array_equal(prep.integrals, want)
    np.testing.assert_array_equal(np.signbit(prep.integrals), np.signbit(want))


@settings(max_examples=80, deadline=None)
@given(event_subjects(n_min=2, n_max=6), event_subjects(n_min=2, n_max=6),
       window_st, rho_st)
def test_statistic_matches_exact_rational_route(sub1, sub2, win, rho_steps):
    p1, p2 = build_panel(sub1), build_panel(sub2)
    t1, t2, t2_eff = _window(p1, p2, *win)
    rho_fn, rho_tab = make_rho(rho_steps)
    got = twosample.prepare_test(
        p1, p2, cb.TestConfig(t1=t1, t2=t2, rho=rho_fn)).statistic

    unscaled = oracles.brute_tn_unscaled(
        brute_from_panel(p1), brute_from_panel(p2),
        Fraction(win[0], 2), Fraction(t2_eff), rho_tab)
    kappa = math.sqrt(p1.n * p2.n / (p1.n + p2.n))
    assert got == pytest.approx(kappa * float(unscaled), rel=1e-12, abs=1e-14)


@settings(max_examples=80, deadline=None)
@given(event_subjects(n_min=2, n_max=6), event_subjects(n_min=2, n_max=6),
       window_st, rho_st)
def test_variance_matches_exact_rational_route(sub1, sub2, win, rho_steps):
    p1, p2 = build_panel(sub1), build_panel(sub2)
    t1, t2, t2_eff = _window(p1, p2, *win)
    rho_fn, rho_tab = make_rho(rho_steps)
    got = twosample.prepare_test(
        p1, p2, cb.TestConfig(t1=t1, t2=t2, rho=rho_fn)).variance

    ft1, ft2 = Fraction(win[0], 2), Fraction(t2_eff)
    ints = (oracles.brute_entry_integrals(
                brute_from_panel(p1), jumps_from_subs(sub1), ft1, ft2, rho_tab)
            + oracles.brute_entry_integrals(
                brute_from_panel(p2), jumps_from_subs(sub2), ft1, ft2, rho_tab))
    k2 = Fraction(p1.n * p2.n, p1.n + p2.n)
    want = k2 * sum(v * v for v in ints)
    assert got == pytest.approx(float(want), rel=1e-12, abs=1e-14)


@settings(max_examples=60, deadline=None)
@given(event_subjects(n_min=2, n_max=5), event_subjects(n_min=2, n_max=5),
       st.data())
def test_bootstrap_forms_match_exact_rational_route(sub1, sub2, data):
    p1, p2 = build_panel(sub1), build_panel(sub2)
    t2_eff = min(3.0, p1.last_time, p2.last_time)
    assume(t2_eff > 0)
    cfg = cb.TestConfig(t1=0.0, t2=3.0)
    pooled = twosample.prepare_test(p1, p2, cfg)
    m = pooled.size

    counts = data.draw(st.lists(st.integers(0, 4), min_size=m, max_size=m))
    ints = [Fraction(0)] * m
    j1 = oracles.brute_entry_integrals(
        brute_from_panel(p1), jumps_from_subs(sub1), Fraction(0),
        Fraction(t2_eff), ONE)
    j2 = oracles.brute_entry_integrals(
        brute_from_panel(p2), jumps_from_subs(sub2), Fraction(0),
        Fraction(t2_eff), ONE)
    ints[:2 * p1.n] = j1
    ints[2 * p1.n:] = [-v for v in j2]
    k2 = Fraction(p1.n * p2.n, p1.n + p2.n)

    w = [Fraction(c) for c in counts]
    wbar = sum(w) / m
    want_t = sum((wi - wbar) * ii for wi, ii in zip(w, ints))
    got_t = oracles.bootstrap_statistic(pooled, np.array(counts, dtype=float))
    scale = max(1.0, abs(float(want_t)))
    assert got_t == pytest.approx(pooled.kappa * float(want_t),
                                  abs=1e-12 * scale)

    want_v = k2 * (sum(vi * ii * ii for vi, ii in zip(w, ints))
                   - Fraction(1, m) * sum(vi * ii for vi, ii in zip(w, ints))**2)
    got_v = oracles.bootstrap_variance(pooled, np.array(counts, dtype=float))
    assert got_v == pytest.approx(max(float(want_v), 0.0), rel=1e-11, abs=1e-13)

    want_plain = k2 * sum(vi * ii * ii for vi, ii in zip(w, ints))
    got_plain = oracles.bootstrap_variance(
        pooled, np.array(counts, dtype=float), include_xi=False)
    assert got_plain == pytest.approx(float(want_plain), rel=1e-12, abs=1e-14)


# ------------------------------------------------------------- exact symmetries

@settings(max_examples=60, deadline=None)
@given(event_subjects(n_min=2, n_max=7), event_subjects(n_min=2, n_max=7))
def test_group_swap_flips_statistic_exactly(sub1, sub2):
    p1, p2 = build_panel(sub1), build_panel(sub2)
    cfg = cb.TestConfig(t1=0.0, t2=4.0)
    assume(min(p1.last_time, p2.last_time) > 0)
    a = twosample.prepare_test(p1, p2, cfg)
    b = twosample.prepare_test(p2, p1, cfg)
    assert a.statistic == -b.statistic
    assert a.variance == b.variance


def test_rho_scaling_leaves_decisions_invariant():
    rng = np.random.default_rng(31)
    sub1 = [(0, int(rng.integers(1, 12)), int(rng.integers(0, 3))) for _ in range(25)]
    sub2 = [(0, int(rng.integers(1, 12)), int(rng.integers(0, 3))) for _ in range(20)]
    sub1[0] = (0, 4, 1)
    sub2[0] = (0, 5, 2)
    p1, p2 = build_panel(sub1), build_panel(sub2)

    for c in (2.0, 4.0, 0.5):
        rho = cb.StepFunction(np.array([]), np.array([]), c)
        base = cb.TestConfig(t1=0.0, t2=4.0, B=199)
        scaled = cb.TestConfig(t1=0.0, t2=4.0, B=199, rho=rho)
        a = cb.test_phi_star(p1, p2, base, rng=np.random.default_rng(7))
        b = cb.test_phi_star(p1, p2, scaled, rng=np.random.default_rng(7))
        # T and V^2 scale exactly for power-of-two c, so every studentized
        # quantity and the decision are bit-identical
        assert b.statistic == c * a.statistic
        assert b.variance == c * c * a.variance
        assert b.studentized == a.studentized
        np.testing.assert_array_equal(b.replicates, a.replicates)
        assert b.critical_value == a.critical_value
        assert b.p_value == a.p_value
        assert b.reject == a.reject

        an = cb.test_phi_n(p1, p2, base)
        bn = cb.test_phi_n(p1, p2, scaled)
        assert bn.studentized == an.studentized
        assert bn.p_value == an.p_value


# ------------------------------------------------------------- edge handling

def test_prepare_test_needs_two_per_group():
    p1 = build_panel(HAND)
    single = build_panel([(0, 6, 0)])
    with pytest.raises(cb.DataError, match="at least 2"):
        twosample.prepare_test(p1, single, cb.TestConfig(t2=2.0))


def test_eventless_window_gives_zero_variance_retain():
    p1 = build_panel([(0, 6, 0), (0, 8, 0)])
    p2 = build_panel([(0, 6, 0), (0, 10, 0)])
    res = cb.test_phi_n(p1, p2, cb.TestConfig(t1=0.0, t2=2.0))
    assert res.vn_zero
    assert res.statistic == 0.0
    assert res.studentized == 0.0
    assert not res.reject
    assert res.p_value == pytest.approx(0.5)


def test_eventless_window_bootstrap_is_degenerate():
    p1 = build_panel([(0, 6, 0), (0, 8, 0)])
    p2 = build_panel([(0, 6, 0), (0, 10, 0)])
    cfg = cb.TestConfig(t1=0.0, t2=2.0, B=19)
    with pytest.raises(cb.NumericalError,
                       match="zero variance; the data carry no events"):
        cb.test_phi_star(p1, p2, cfg, rng=np.random.default_rng(1))


def test_degenerate_by_chance_error_does_not_blame_the_data():
    # events inside the window, but 2 of 12 integrals are nonzero and the
    # one Efron replicate at this seed draws no label on them (chance
    # (10/12)^12 ~ 0.11): the asymptotic test finds the events
    p1 = build_panel([(0, 1, 1), (0, 2, 2), (0, 3, 0)])
    p2 = build_panel([(0, 1.5, 1), (0, 2.5, 2), (0, 3.5, 0)])
    cfg = cb.TestConfig(t2=3.0, B=1)
    assert not cb.test_phi_n(p1, p2, cfg).vn_zero
    with pytest.raises(cb.NumericalError) as err:
        cb.test_phi_star(p1, p2, cfg, rng=np.random.default_rng(3))
    message = str(err.value)
    assert "zero variance" in message
    assert "no events" not in message
    assert "window integrals are nonzero" in message


def test_identical_samples_give_zero_statistic():
    p = build_panel(HAND + [(0, 8, 0)])
    cfg = cb.TestConfig(t1=0.0, t2=3.5)
    assert twosample.prepare_test(p, p, cfg).statistic == 0.0
    res = cb.test_phi_n(p, p, cfg)
    assert res.studentized == 0.0 and not res.reject


def test_replicate_block_rejects_non_bootstrap_schemes():
    p1, p2 = hand_pair()
    pooled = twosample.prepare_test(p1, p2, cb.TestConfig(t2=3.0))
    iid = cb.WeightScheme("iid-weighted", c_eta=1.0,
                          eta_sampler=lambda rng, shape: rng.standard_exponential(shape))
    for scheme in (cb.WeightScheme("bayesian"), iid):
        with pytest.raises(cb.DataError, match="efron and wild"):
            twosample.replicate_block(pooled, scheme, 10,
                                      np.random.default_rng(0))


def test_replicate_block_chunking_is_invisible(monkeypatch):
    p1, p2 = hand_pair()
    pooled = twosample.prepare_test(p1, p2, cb.TestConfig(t2=3.0))
    for kind in (EFRON, WILD_NORMAL, WILD_POISSON):
        scheme = cb.WeightScheme(kind)
        big = twosample.replicate_block(pooled, scheme, 64,
                                        np.random.default_rng(3))
        monkeypatch.setattr(resampling, "_CHUNK_ELEMS", 16)
        small = twosample.replicate_block(pooled, scheme, 64,
                                          np.random.default_rng(3))
        monkeypatch.undo()
        np.testing.assert_array_equal(big.studentized, small.studentized)
        assert big.degenerate == small.degenerate
        assert big.truncated == small.truncated
    # the moment validator draws through the same chunks
    for kind in (EFRON, WILD_NORMAL, BAYESIAN):
        scheme = cb.WeightScheme(kind)
        big = cb.validate_weight_conditions(scheme, 8, 10_000,
                                            np.random.default_rng(4))
        monkeypatch.setattr(resampling, "_CHUNK_ELEMS", 24)
        small = cb.validate_weight_conditions(scheme, 8, 10_000,
                                              np.random.default_rng(4))
        monkeypatch.undo()
        assert big == small


def _large_pair():
    # k = 1,697 nonzero integrals of m = 6,000, so k * B at B = 199 spans
    # several default chunks
    rng = np.random.default_rng(21)
    p1 = draw_panel(Group1Exp(), 1500, 1.0, rng)
    p2 = draw_panel(ConstantPair(1.0), 1500, 1.0, rng)
    return twosample.prepare_test(p1, p2, cb.TestConfig(t2=1.5))


def _one_chunk(monkeypatch, rows, m):
    monkeypatch.setattr(resampling, "_CHUNK_ELEMS", rows * m + 1)


def test_replicate_block_default_chunks_match_one_chunk(monkeypatch):
    pooled = _large_pair()
    B, m = 199, pooled.size
    k = int(np.count_nonzero(pooled.integrals))
    assert k * B > 2 * resampling._CHUNK_ELEMS
    # every replicate is reduced by itself: bit for bit at any chunking,
    # from one row per chunk to the default chunks and one chunk
    budgets = (1 << 8, 1 << 12, resampling._CHUNK_ELEMS, B * m + 1)
    for kind in (EFRON, WILD_NORMAL, WILD_POISSON):
        blocks = []
        for budget in budgets:
            monkeypatch.setattr(resampling, "_CHUNK_ELEMS", budget)
            blocks.append(twosample.replicate_block(
                pooled, cb.WeightScheme(kind), B, np.random.default_rng(8)))
            monkeypatch.undo()
        whole = blocks[-1]
        for budget, block in zip(budgets, blocks[:-1]):
            np.testing.assert_array_equal(block.studentized, whole.studentized,
                                          err_msg=f"{kind} at {budget}")
            assert ((block.degenerate, block.truncated)
                    == (whole.degenerate, whole.truncated)), (kind, budget)


def test_validate_weights_default_chunks_match_one_chunk(monkeypatch):
    m, draws = 100, 10_000
    assert draws * m > 2 * resampling._CHUNK_ELEMS
    for kind in (EFRON, WILD_NORMAL):
        scheme = cb.WeightScheme(kind)
        chunked = cb.validate_weight_conditions(scheme, m, draws,
                                                np.random.default_rng(10))
        _one_chunk(monkeypatch, draws, m)
        whole = cb.validate_weight_conditions(scheme, m, draws,
                                              np.random.default_rng(10))
        monkeypatch.undo()
        assert chunked == whole


def test_weight_loops_keep_chunks_within_the_budget(monkeypatch):
    seen = []
    real = resampling.row_chunks

    def spy(rows, width):
        for sl, take in real(rows, width):
            seen.append((width, take))
            yield sl, take

    monkeypatch.setattr(resampling, "row_chunks", spy)
    monkeypatch.setattr(twosample, "row_chunks", spy)
    budget = resampling._CHUNK_ELEMS
    pooled = _large_pair()
    k = int(np.count_nonzero(pooled.integrals))
    B = 199
    for kind in (EFRON, WILD_NORMAL, WILD_POISSON):
        seen.clear()
        twosample.replicate_block(pooled, cb.WeightScheme(kind), B,
                                  np.random.default_rng(12))
        # both schemes size their chunks by the k entries a replicate
        # reads; an Efron replicate draws ~k labels, not m
        assert {width for width, _ in seen} == {k}
        assert sum(take for _, take in seen) == B
        assert len(seen) > 1
        assert all(take * width <= budget for width, take in seen)
    for kind in (EFRON, WILD_NORMAL, BAYESIAN):
        seen.clear()
        cb.validate_weight_conditions(cb.WeightScheme(kind), 100, 10_000,
                                      np.random.default_rng(13))
        assert sum(take for _, take in seen) == 10_000
        assert len(seen) > 1
        assert all(take * width <= budget for width, take in seen)
    # a row wider than the budget is a chunk of its own
    assert [take for _, take in real(3, budget + 1)] == [1, 1, 1]


# the sparse second pair leaves about a third of the Efron replicates
# degenerate
SPARSE_PAIRS = (([(0, 1, 1), (0, 2, 1), (0, 3, 2), (0, 8, 0)],
                 [(0, 2, 2), (0, 3, 1), (0, 10, 0)], 4.0),
                ([(0, 2, 1), (0, 8, 0)], [(0, 4, 2), (0, 10, 0)], 3.0))


def _studentize(tstar, vstar):
    positive = vstar > 0
    return np.where(positive,
                    tstar / np.sqrt(np.where(positive, vstar, 1.0)), 0.0)


def _thinned_counts(rng, B, k, m):
    # Efron's documented draws: per replicate L ~ Binomial(m, k/m) labels
    # land on the k nonzero entries, then the labels of all rows in turn,
    # tallied row by row onto those entries
    hits = rng.binomial(m, k / m, size=B)
    labels = np.split(rng.integers(0, k, size=hits.sum()), np.cumsum(hits)[:-1])
    return hits, np.array([np.bincount(row, minlength=k) for row in labels])


def test_replicate_block_draws_the_documented_streams():
    # Efron: thinned labels over the nonzero entries (_thinned_counts);
    # wild: one multiplier per nonzero entry, draw_weights(scheme, B, k)
    B = 300
    schemes = (cb.WeightScheme(EFRON), cb.WeightScheme(WILD_NORMAL),
               cb.WeightScheme(WILD_POISSON))
    empty_rows = 0
    for (sub1, sub2, t2), scheme in itertools.product(SPARSE_PAIRS, schemes):
        pooled = twosample.prepare_test(build_panel(sub1), build_panel(sub2),
                                        cb.TestConfig(t2=t2))
        i = pooled.integrals
        k2 = pooled.kappa**2
        nz = i != 0.0
        k = np.count_nonzero(nz)
        assert 0 < k < pooled.size
        rng_ref, rng_block = (np.random.default_rng(21) for _ in range(2))
        block = twosample.replicate_block(pooled, scheme, B, rng_block)
        if scheme.kind == EFRON:
            hits, counts = _thinned_counts(rng_ref, B, k, pooled.size)
            empty_rows += np.count_nonzero(hits == 0)
            tstar = pooled.kappa * ((counts - 1.0) @ i[nz])
            vstar = (k2 * (counts @ (i[nz] ** 2))
                     - k2 / pooled.size * (counts @ i[nz])**2)
            assert block.truncated == np.count_nonzero(vstar < 0)
        else:
            g = cb.draw_weights(scheme, B, k, rng_ref)
            tstar, vstar, _ = twosample._replicate_kernel(
                pooled, g @ i[nz], (g * g) @ (i[nz] ** 2))
            assert block.truncated == 0
        vstar = np.maximum(vstar, 0.0)
        assert block.degenerate == B - np.count_nonzero(vstar > 0)
        np.testing.assert_allclose(block.studentized, _studentize(tstar, vstar),
                                   rtol=1e-12, atol=1e-12)
        assert (rng_block.bit_generator.state
                == rng_ref.bit_generator.state)
    # rows without a label on a nonzero entry take the masked path
    assert empty_rows > 0


def test_replicate_block_without_nonzero_entries():
    # every event lies past t2, so every pooled integral is 0: neither
    # scheme draws anything, and every replicate is degenerate
    p1 = build_panel([(0, 5, 1), (0, 8, 0)])
    p2 = build_panel([(0, 6, 2), (0, 10, 0)])
    cfg = cb.TestConfig(t1=0.0, t2=2.0, B=19)
    pooled = twosample.prepare_test(p1, p2, cfg)
    assert not np.any(pooled.integrals)
    for kind in (EFRON, WILD_NORMAL):
        rng = np.random.default_rng(5)
        block = twosample.replicate_block(pooled, cb.WeightScheme(kind), 19, rng)
        assert block.degenerate == 19
        assert not np.any(block.studentized)
        untouched = np.random.default_rng(5).bit_generator.state
        assert rng.bit_generator.state == untouched
        with pytest.raises(cb.NumericalError, match="zero variance"):
            cb.test_phi_star(p1, p2, dataclasses.replace(
                cfg, scheme=cb.WeightScheme(kind)), rng=rng)


def test_one_vector_forms_are_rows_of_the_block():
    # the reference one-vector forms (oracles.bootstrap_statistic and
    # oracles.bootstrap_variance) on each drawn weight row give the T*/V*
    # behind replicate_block's studentized values and counts.
    # Rows are drawn for the nonzero entries and scattered into 2n: wild
    # rows leave 0 elsewhere; Efron rows put the m - L labels that missed
    # the nonzero entries on one zero entry, so counts sum to m
    B = 300
    for (sub1, sub2, t2), kind in itertools.product(
            SPARSE_PAIRS, (EFRON, WILD_NORMAL, WILD_POISSON)):
        pooled = twosample.prepare_test(build_panel(sub1), build_panel(sub2),
                                        cb.TestConfig(t2=t2))
        scheme = cb.WeightScheme(kind)
        efron = kind == EFRON
        nz = np.flatnonzero(pooled.integrals)
        rng = np.random.default_rng(21)
        w = np.zeros((B, pooled.size))
        if efron:
            hits, w[:, nz] = _thinned_counts(rng, B, nz.size, pooled.size)
            w[:, np.flatnonzero(pooled.integrals == 0.0)[0]] = pooled.size - hits
            w -= 1.0
        else:
            w[:, nz] = cb.draw_weights(scheme, B, nz.size, rng)
        block = twosample.replicate_block(pooled, scheme, B,
                                          np.random.default_rng(21))
        vw = w + 1.0 if efron else w * w
        t = np.array([oracles.bootstrap_statistic(pooled, row, centered=efron)
                      for row in w])
        v = np.array([oracles.bootstrap_variance(pooled, row, include_xi=efron)
                      for row in vw])
        i = pooled.integrals
        raw = pooled.kappa**2 * (vw @ (i * i))
        if efron:
            raw -= pooled.kappa**2 / pooled.size * (vw @ i)**2
        assert block.truncated == np.count_nonzero(raw < 0)
        assert block.degenerate == B - np.count_nonzero(v > 0)
        np.testing.assert_allclose(block.studentized, _studentize(t, v),
                                   rtol=1e-12, atol=1e-12)


def test_thinned_efron_has_the_multinomial_law():
    # the thinned block against T*/V* of full Multinomial(m, 1/m) count
    # vectors (draw_weights' count form) on another stream, on a censored
    # pair where most entries are zero
    data = np.random.default_rng(606)
    p1 = draw_panel(Group1Exp(), 40, 1.0, data)
    p2 = draw_panel(ConstantPair(1.0), 40, 1.0, data)
    pooled = twosample.prepare_test(p1, p2, cb.TestConfig(t2=1.5))
    i, m, k2 = pooled.integrals, pooled.size, pooled.kappa**2
    assert np.count_nonzero(i) < 0.4 * m
    B = 20_000
    block = twosample.replicate_block(pooled, cb.WeightScheme(EFRON), B,
                                      np.random.default_rng(607))
    counts = cb.draw_weights(cb.WeightScheme(EFRON), B, m,
                             np.random.default_rng(608)) + 1.0
    tstar = pooled.kappa * ((counts - 1.0) @ i)
    vstar = k2 * (counts @ (i * i)) - k2 / m * (counts @ i)**2
    full = _studentize(tstar, np.maximum(vstar, 0.0))
    assert scipy.stats.ks_2samp(block.studentized, full).pvalue >= 0.001


def test_critical_rank_convention():
    # the rank is ceil((1 - alpha)(B + 1)): 950 of 999, 19 of 19
    assert twosample.bootstrap_critical_value(np.arange(999.0), 0.05) == 949.0
    assert twosample.bootstrap_critical_value(np.arange(19.0), 0.05) == 18.0
    # B too small for the requested level (rank 11 of 10): the critical
    # value is +inf
    assert math.isinf(twosample.bootstrap_critical_value(np.arange(10.0), 0.05))
    p1 = build_panel(HAND + [(0, 8, 1)])
    p2 = build_panel([(0, 2, 2), (0, 6, 1), (0, 10, 0)])
    res = cb.test_phi_star(p1, p2, cb.TestConfig(t2=3.0, B=10),
                           rng=np.random.default_rng(0))
    assert math.isinf(res.critical_value)
    assert not res.reject
    assert res.p_value >= 1 / 11


def test_bootstrap_critical_value_is_the_rank_order_statistic():
    values = np.random.default_rng(0).permutation(99).astype(float)
    assert twosample.bootstrap_critical_value(values, 0.05) == 94.0  # rank 95
    assert twosample.bootstrap_critical_value(values[:19], 0.05) == values[:19].max()
    assert math.isinf(twosample.bootstrap_critical_value(values[:10], 0.05))
    p1 = build_panel(HAND + [(0, 8, 1), (0, 10, 0)])
    p2 = build_panel([(0, 2, 2), (0, 6, 1), (0, 12, 0)])
    res = cb.test_phi_star(p1, p2, cb.TestConfig(t2=4.0, B=99),
                           rng=np.random.default_rng(3))
    assert res.critical_value == np.sort(res.replicates)[94]


def test_bootstrap_critical_rank_is_exact_for_decimal_alpha():
    # 1.0 - alpha rounds up past the integer at these levels: the rank is
    # ceil(0.82 * 1000) = 820 and ceil(0.59 * 100) = 59, not 821 and 60;
    # a numpy scalar alpha reads as the same decimal
    for alpha, B, rank in ((0.18, 999, 820), (0.41, 99, 59),
                           (np.float64(0.18), 999, 820),
                           (0.05, 999, 950), (0.1, 19, 18)):
        crit = twosample.bootstrap_critical_value(np.arange(float(B)), alpha)
        assert crit == rank - 1, (alpha, B)
    # with the rank one too high, a replicate at p_value == alpha retained
    rng = np.random.default_rng(0)
    p1 = draw_panel(Group1Exp(), 40, 0.0, rng)
    p2 = draw_panel(ConstantPair(1.0), 40, 0.0, rng)
    res = cb.test_phi_star(p1, p2, cb.TestConfig(alpha=0.41, B=99),
                           rng=np.random.default_rng(9))
    assert res.p_value == 0.41
    assert res.reject == (res.p_value <= res.alpha)


def test_phi_star_is_deterministic_given_seed():
    p1 = build_panel(HAND + [(0, 8, 1), (0, 10, 0)])
    p2 = build_panel([(0, 2, 2), (0, 6, 1), (0, 12, 0)])
    cfg = cb.TestConfig(t2=4.0, B=99)
    a = cb.test_phi_star(p1, p2, cfg, rng=np.random.default_rng(123))
    b = cb.test_phi_star(p1, p2, cfg, rng=np.random.default_rng(123))
    assert a.statistic == b.statistic
    assert a.critical_value == b.critical_value
    assert a.p_value == b.p_value
    np.testing.assert_array_equal(a.replicates, b.replicates)
    assert a.replicates.shape == (99,)
    assert a.method == "efron" and a.B == 99 and a.scheme == "efron"


def test_verdict_reads_method_and_scheme_off_the_block():
    p1 = build_panel(HAND + [(0, 8, 1), (0, 10, 0)])
    p2 = build_panel([(0, 2, 2), (0, 6, 1), (0, 12, 0)])
    prep = twosample.prepare_test(p1, p2, cb.TestConfig(t2=4.0))
    block = cb.replicate_block(prep, cb.WeightScheme(WILD_POISSON), 99,
                               np.random.default_rng(7))
    assert block.scheme == WILD_POISSON
    res = cb.verdict(prep, block)
    assert (res.method, res.scheme, res.B) == ("wild", "wild-poisson", 99)
    assert res.replicates is block.studentized
    assert res.critical_value == twosample.bootstrap_critical_value(
        block.studentized, 0.05)
    assert res.reject == (prep.studentized > res.critical_value)
    normal = cb.verdict(prep)
    assert (normal.method, normal.B, normal.scheme) == ("asymptotic", None, None)
    assert normal.critical_value == pytest.approx(scipy.stats.norm.ppf(0.95),
                                                  rel=1e-14)
    assert normal == cb.test_phi_n(p1, p2, cb.TestConfig(t2=4.0))


def test_asymptotic_p_value_keeps_the_far_upper_tail():
    # 1 - Phi(10) is exactly 0 in doubles; the tail itself is 7.62e-24
    prep = twosample.PreparedTest(
        n1=2, n2=2, config=cb.TestConfig(), t2=1.5,
        integrals=np.zeros(8), statistic=10.0, variance=1.0)
    res = cb.verdict(prep)
    assert res.studentized == 10.0 and res.reject
    assert res.p_value > 0.0
    assert res.p_value == pytest.approx(scipy.stats.norm.sf(10.0), rel=1e-13)
    assert res.p_value == pytest.approx(7.62e-24, rel=1e-3)


def test_phi_star_reports_degenerate_counts():
    # tiny panels leave many all-zero weight draws on the event entries
    p1 = build_panel([(0, 2, 1), (0, 8, 0)])
    p2 = build_panel([(0, 4, 2), (0, 10, 0)])
    res = cb.test_phi_star(p1, p2, cb.TestConfig(t2=3.0, B=99),
                           rng=np.random.default_rng(5))
    assert 0 < res.degenerate_replicates < 99
    assert res.p_value >= (1 + 0) / 100


# ------------------------------------------------------------- early decisions

def _early_prep(stud, k=None, alpha=0.05, B=999):
    """A dataset whose T_n/V_n is exactly ``stud`` (V_n^2 = 1), over the
    window integrals of a drawn n1 = n2 = 50 pair (64 nonzero), of which
    only the first ``k`` nonzero ones are kept when k is given."""
    rng = np.random.default_rng(31)
    prep = twosample.prepare_test(draw_panel(Group1Exp(), 50, 0.5, rng),
                                  draw_panel(ConstantPair(1.0), 50, 0.5, rng),
                                  cb.TestConfig())
    integrals = prep.integrals.copy()
    if k is not None:
        integrals[np.flatnonzero(integrals)[k:]] = 0.0
    return dataclasses.replace(
        prep, config=cb.TestConfig(alpha=alpha, B=B), integrals=integrals,
        statistic=float(stud), variance=1.0)


def _ulps(values):
    """The values and their neighbours one ulp either side, in order."""
    values = np.asarray(values, dtype=float)
    return np.unique(np.concatenate((np.nextafter(values, -np.inf), values,
                                     np.nextafter(values, np.inf))))


def _record_checkpoints(monkeypatch):
    """The rows of each replicate_block call early_reject makes."""
    rows, draw = [], twosample.replicate_block

    def recorded(pooled, scheme, B, rng):
        rows.append(B)
        return draw(pooled, scheme, B, rng)

    monkeypatch.setattr(twosample, "replicate_block", recorded)
    return rows


@pytest.mark.parametrize("least", [1, 64])
def test_early_decision_at_the_critical_replicate(monkeypatch, least):
    # T_n/V_n at the rank-r replicate of the full block and one ulp either
    # side: the test rejects once r replicates lie strictly below it.  The
    # (B - r + 1)-th largest replicate, where a retain settles, is that same
    # order statistic; its neighbours at ranks r - 1 and r + 1 are checked
    # too.  The block stops at the first checkpoint where the decision is
    # settled, whatever the checkpoints' lengths
    B, wild = 999, cb.WeightScheme(WILD_NORMAL)
    base = _early_prep(0.0)
    full = twosample.replicate_block(base, wild, B, np.random.default_rng(4))
    ordered = np.sort(full.studentized)
    r = twosample._bootstrap_rank(0.05, B)
    assert r == 950 and ordered[B - (B - r + 1)] == ordered[r - 1]
    monkeypatch.setattr(twosample, "_CHECKPOINT_ROWS", least)
    rows = _record_checkpoints(monkeypatch)
    decisions = []
    for stud in _ulps(ordered[r - 2:r + 1]):
        prep = dataclasses.replace(base, statistic=float(stud))
        rows.clear()
        reject, block = twosample.early_reject(prep, wild, B,
                                               np.random.default_rng(4))
        assert reject == cb.verdict(prep, full).reject, stud
        decisions.append(reject)
        below = np.cumsum(full.studentized < stud)
        settled = (below >= r) | (np.arange(1, B + 1) - below >= B - r + 1)
        ends = np.cumsum(rows)
        assert ends[-1] == block.studentized.size and rows[0] == least
        assert settled[ends[-1] - 1] and not np.any(settled[ends[:-1] - 1])
    # at and below the rank-r replicate it retains, one ulp above it rejects
    assert decisions == [False] * 5 + [True] * 4


def test_early_checkpoints_run_to_the_projected_settling_point(monkeypatch):
    # with every replicate below T_n/V_n, the second checkpoint runs to the
    # rank-r replicate, where the test rejects; with every one at or above
    # it, the first checkpoint already holds the B - r + 1 that retain
    rows = _record_checkpoints(monkeypatch)
    wild = cb.WeightScheme(WILD_NORMAL)
    for stud, want, decision in ((1e9, [64, 886], True), (-1e9, [64], False)):
        rows.clear()
        reject, _ = twosample.early_reject(_early_prep(stud), wild, 999,
                                           np.random.default_rng(2))
        assert (rows, reject) == (want, decision)


@pytest.mark.parametrize("kind", [WILD_NORMAL, WILD_POISSON])
@pytest.mark.parametrize("k", [1, 3, None])
def test_early_decision_is_the_full_verdict(kind, k):
    # T_n/V_n at replicates of the full block (those around the critical
    # rank and a spread of others) and one ulp either side, at several
    # levels and B.  One nonzero integral makes every replicate -1 or +1
    # (ties); Poisson multipliers add degenerate replicates at 0
    scheme = cb.WeightScheme(kind)
    # 1 - alpha rounds up past the rank's integer at (0.41, 99) and
    # (0.18, 999), so a float rank is off by one there
    for alpha, B in ((0.05, 99), (0.41, 99), (0.18, 999), (0.5, 64),
                     (0.05, 19), (0.01, 19), (0.05, 999)):
        base = _early_prep(0.0, k=k, alpha=alpha, B=B)
        full = twosample.replicate_block(base, scheme, B,
                                         np.random.default_rng(B))
        ordered = np.sort(full.studentized)
        r = min(twosample._bootstrap_rank(alpha, B), B)
        picks = np.unique(np.concatenate((ordered[max(r - 2, 0):r + 1],
                                          ordered[::max(1, B // 8)])))
        for stud in _ulps(picks):
            prep = dataclasses.replace(base, statistic=float(stud))
            reject, _ = twosample.early_reject(prep, scheme, B,
                                               np.random.default_rng(B))
            assert reject == cb.verdict(prep, full).reject, (alpha, B, stud)


@pytest.mark.parametrize("kind", [WILD_NORMAL, WILD_POISSON])
def test_early_replicates_are_a_prefix_of_the_full_block(kind):
    # the replicates drawn are the full block's first rows bit for bit, and
    # the generator is left as after drawing that many rows in one call
    scheme = cb.WeightScheme(kind)
    full = twosample.replicate_block(_early_prep(0.0), scheme, 999,
                                     np.random.default_rng(12))
    sizes = set()
    for stud in (-1.0, 1.0, 1.645, 3.0):
        prep = _early_prep(stud)
        rng = np.random.default_rng(12)
        _, block = twosample.early_reject(prep, scheme, 999, rng)
        drawn = block.studentized.size
        sizes.add(drawn)
        assert (block.studentized.tobytes()
                == full.studentized[:drawn].tobytes()), stud
        after = np.random.default_rng(12)
        prefix = twosample.replicate_block(prep, scheme, drawn, after)
        assert block.degenerate == prefix.degenerate
        assert rng.bit_generator.state == after.bit_generator.state
    assert len(sizes) > 1 and min(sizes) < 999


def test_early_decision_retains_at_the_first_positive_replicate(monkeypatch):
    # B = 19 at alpha = 0.01 needs rank 20 > B: the test cannot reject, so
    # it stops at the first replicate of positive variance, even with
    # T_n/V_n above them all.  Poisson multipliers on one nonzero integral
    # make this stream's first three replicates degenerate
    assert twosample._bootstrap_rank(0.01, 19) == 20
    scheme = cb.WeightScheme(WILD_POISSON)
    prep = _early_prep(10.0, k=1, alpha=0.01, B=19)
    full = twosample.replicate_block(prep, scheme, 19, np.random.default_rng(10))
    np.testing.assert_array_equal(full.studentized[:4], [0.0, 0.0, 0.0, 1.0])
    assert not cb.verdict(prep, full).reject
    monkeypatch.setattr(twosample, "_CHECKPOINT_ROWS", 1)
    reject, block = twosample.early_reject(prep, scheme, 19,
                                           np.random.default_rng(10))
    assert reject is False
    assert (block.studentized.size, block.degenerate) == (4, 3)
    monkeypatch.undo()
    # one checkpoint spans all of B = 19; at B = 999 the first one settles
    _, block = twosample.early_reject(prep, scheme, 19, np.random.default_rng(10))
    assert block.studentized.size == 19
    prep = _early_prep(10.0, alpha=0.0005, B=999)
    assert twosample._bootstrap_rank(0.0005, 999) == 1000
    reject, block = twosample.early_reject(prep, cb.WeightScheme(WILD_NORMAL),
                                           999, np.random.default_rng(10))
    assert reject is False
    assert block.studentized.size == twosample._CHECKPOINT_ROWS


def test_early_decision_without_nonzero_entries_is_all_degenerate():
    # k = 0 (no event in the window): nothing is drawn, all B replicates
    # are degenerate and the decision is undefined, where verdict raises
    prep = _early_prep(1.0, k=0, B=99)
    assert not np.any(prep.integrals)
    wild = cb.WeightScheme(WILD_NORMAL)
    rng = np.random.default_rng(6)
    reject, block = twosample.early_reject(prep, wild, 99, rng)
    assert reject is None
    assert block.studentized.size == block.degenerate == 99
    assert rng.bit_generator.state == np.random.default_rng(6).bit_generator.state
    with pytest.raises(cb.NumericalError, match="no events inside the window"):
        cb.verdict(prep, twosample.replicate_block(prep, wild, 99, rng))


def test_early_decision_refuses_efron():
    # an Efron block draws its hit counts for all B before any label
    with pytest.raises(cb.DataError, match="wild scheme"):
        twosample.early_reject(_early_prep(0.0), cb.WeightScheme(EFRON), 99,
                               np.random.default_rng(0))


def test_result_decision_labels():
    p1, p2 = hand_pair()
    res = cb.test_phi_n(p1, p2, cb.TestConfig(t2=3.0))
    assert res.decision in ("reject", "retain")
    assert res.decision == ("reject" if res.reject else "retain")


# ------------------------------------------------------------- limits

def test_variance_approaches_population_value():
    # null simulation setup at n = 2000 per group, no censoring
    from cifboot.simulation import ConstantPair, Group1Exp, draw_panel
    rng = np.random.default_rng(2718)
    p1 = draw_panel(Group1Exp(), 2000, 0.0, rng)
    p2 = draw_panel(ConstantPair(1.0), 2000, 0.0, rng)
    cfg = cb.TestConfig(t1=0.0, t2=1.5)
    vn2 = twosample.prepare_test(p1, p2, cfg).variance
    target = 0.34995154380502635  # quadrature of the population covariance
    assert abs(vn2 - target) / target < 0.10


def test_efron_variance_approaches_tilde_population_value():
    from cifboot.simulation import ConstantPair, Group1Exp, draw_panel
    rng = np.random.default_rng(577)
    p1 = draw_panel(Group1Exp(), 2000, 0.0, rng)
    p2 = draw_panel(ConstantPair(1.0), 2000, 0.0, rng)
    pooled = twosample.prepare_test(p1, p2, cb.TestConfig(t1=0.0, t2=1.5))

    m = pooled.size
    k2 = pooled.kappa**2
    counts = cb.draw_weights(cb.WeightScheme(EFRON), 4000, m, rng) + 1.0
    i = pooled.integrals
    vstar = k2 * (counts @ (i * i)) - k2 / m * (counts @ i)**2
    tstar = pooled.kappa * ((counts - 1.0) @ i)

    tilde = 0.34690498230484024  # population value of the weighted limit
    assert abs(vstar.mean() - tilde) / tilde < 0.10
    assert abs(tstar.var() - tilde) / tilde < 0.10


def test_wild_replicates_match_plugin_variance():
    from cifboot.simulation import ConstantPair, Group1Exp, draw_panel
    rng = np.random.default_rng(1414)
    p1 = draw_panel(Group1Exp(), 1000, 0.5, rng)
    p2 = draw_panel(ConstantPair(1.0), 1000, 0.5, rng)
    cfg = cb.TestConfig(t1=0.0, t2=1.5)
    pooled = twosample.prepare_test(p1, p2, cfg)
    block = twosample.replicate_block(pooled, cb.WeightScheme(WILD_NORMAL),
                                      4000, rng)
    # wild T* has conditional variance exactly V_n^2, so the studentized
    # replicates should be close to standard normal
    assert abs(np.var(block.studentized) - 1.0) < 0.1
    assert abs(np.mean(block.studentized)) < 0.05


# ------------------------------------------------------------- power reference

def test_power_reference_matches_package_construction():
    # efron_power_reference.py recomputes criterion 2's (50,50) cells with
    # code of its own; on shared data it must give the package's integrals,
    # T, V^2 and per-vector bootstrap forms
    import efron_power_reference as reference
    rng = np.random.default_rng(31)
    cfg = cb.TestConfig(t1=reference.WINDOW[0], t2=reference.WINDOW[1])
    for c, lam in reference.CELLS:
        e1, s1 = reference.draw_group(rng, reference.N1, None, lam)
        e2, s2 = reference.draw_group(rng, reference.N2, c, lam)
        integrals, t_n, v_n = reference.prepare(e1, s1, e2, s2)
        prep = twosample.prepare_test(
            cb.compile_panel_arrays(np.zeros(reference.N1), e1, s1),
            cb.compile_panel_arrays(np.zeros(reference.N2), e2, s2), cfg)
        np.testing.assert_allclose(integrals, prep.integrals,
                                   rtol=0, atol=1e-15)
        assert t_n == pytest.approx(prep.statistic, rel=1e-13, abs=1e-15)
        assert v_n == pytest.approx(prep.variance, rel=1e-13)

        m = integrals.size
        counts = rng.multinomial(m, np.full(m, 1.0 / m), size=5).astype(float)
        g = rng.standard_normal((5, m))
        e_t, e_v = reference.efron_replicates(integrals, counts)
        w_t, w_v = reference.wild_replicates(integrals, g)
        for k in range(5):
            assert e_t[k] == pytest.approx(
                oracles.bootstrap_statistic(prep, counts[k] - 1.0),
                rel=1e-12, abs=1e-14)
            want_v = oracles.bootstrap_variance(prep, counts[k])
            assert max(e_v[k], 0.0) == pytest.approx(want_v, rel=1e-11,
                                                     abs=1e-14)
            assert w_t[k] == pytest.approx(
                oracles.bootstrap_statistic(prep, g[k], centered=False),
                rel=1e-12, abs=1e-14)
            assert w_v[k] == pytest.approx(
                oracles.bootstrap_variance(prep, g[k] ** 2, include_xi=False),
                rel=1e-12)


def test_power_reference_prefix():
    # criterion 2's phi_E targets at (50,50) are rates from one standalone
    # run of efron_power_reference.py at its SEED and N_SIM (its RECORDED
    # counts); the first 150 datasets of each cell are rerun here so that
    # the committed code is tied to that run.  Counts (phi_n, phi_W, phi_E,
    # undefined) over those datasets, from the same code:
    import efron_power_reference as reference
    assert reference.run(150) == {
        (0.7, 0.0): (47, 45, 40, 0), (0.7, 1.0): (52, 49, 53, 0),
        (0.5, 0.0): (118, 117, 118, 0), (0.5, 1.0): (107, 106, 106, 0)}
