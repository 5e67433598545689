"""Estimator checks against an independent exact-rational recomputation.

The brute-force tables in oracles.py work in Fractions on the same grid, so
agreement here is a genuine dual-route check, not a change detector.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings

import cifboot as cb
from cifboot.estimators import plugin_tables
from cifboot.simulation import Group1Exp, draw_panel

import oracles
from conftest import build_panel, brute_from_panel, event_subjects, subjects

# cause 1 at t=1, cause 2 at t=2, cause 1 at t=3; worked by hand
HAND = [(0, 2, 1), (0, 4, 2), (0, 6, 1)]


def test_hand_panel_cif_and_survival():
    panel = build_panel(HAND)
    f1 = cb.aalen_johansen(panel, 1)
    f2 = cb.aalen_johansen(panel, 2)
    km = cb.kaplan_meier(panel)
    assert f1(1.0) == pytest.approx(1 / 3, abs=1e-15)
    assert f1(2.9) == pytest.approx(1 / 3, abs=1e-15)
    assert f1(3.0) == pytest.approx(2 / 3, abs=1e-15)
    assert f2(2.0) == pytest.approx(1 / 3, abs=1e-15)
    assert f2.final_value == pytest.approx(1 / 3, abs=1e-15)
    np.testing.assert_allclose(km(np.array([1.0, 2.0, 3.0])),
                               [2 / 3, 1 / 3, 0.0], atol=1e-15)
    assert km(0.999) == 1.0
    assert f1.left_limit(3.0) == pytest.approx(1 / 3, abs=1e-15)


def test_hand_panel_hazards():
    panel = build_panel(HAND)
    na1 = cb.nelson_aalen(panel, 1)
    na2 = cb.nelson_aalen(panel, 2)
    sig1 = cb.sigma_hat(panel, 1)
    assert na1(3.0) == pytest.approx(4 / 3, abs=1e-15)
    assert na1(1.0) == pytest.approx(1 / 3, abs=1e-15)
    assert na2(3.0) == pytest.approx(1 / 2, abs=1e-15)
    assert sig1(3.0) == pytest.approx(10 / 9, abs=1e-15)
    # hazard jumps only at its own cause's event times
    assert na2(1.0) == 0.0
    np.testing.assert_array_equal(na1.jump_times, [1.0, 3.0])
    np.testing.assert_array_equal(na2.jump_times, [2.0])


def test_cause_argument_validated():
    panel = build_panel(HAND)
    for fn in (cb.aalen_johansen, cb.nelson_aalen, cb.sigma_hat):
        with pytest.raises(ValueError, match="cause"):
            fn(panel, 3)


def test_censoring_only_times_produce_no_jumps():
    panel = build_panel([(0, 2, 1), (0, 3, 0), (0, 4, 2)])
    km = cb.kaplan_meier(panel)
    f1 = cb.aalen_johansen(panel, 1)
    np.testing.assert_array_equal(km.jump_times, [1.0, 2.0])
    np.testing.assert_array_equal(f1.jump_times, [1.0])
    # the censoring still shrinks the risk set for the later event
    assert km(2.0) == pytest.approx((2 / 3) * (1 - 1 / 1), abs=1e-15)


def test_cif_stops_after_survival_hits_zero():
    # risk set exhausted at t=1; the late entrant's event cannot add mass
    panel = build_panel([(0, 2, 1), (0, 2, 1), (3, 8, 1)])
    f1 = cb.aalen_johansen(panel, 1)
    np.testing.assert_array_equal(f1.jump_times, [1.0])
    assert f1.final_value == pytest.approx(1.0, abs=1e-15)


@settings(max_examples=150, deadline=None)
@given(event_subjects(n_min=2, n_max=9, truncated=True))
def test_tables_match_exact_rational_route(subs):
    panel = build_panel(subs)
    bt = brute_from_panel(panel)
    tab = plugin_tables(panel)
    np.testing.assert_allclose(tab.km, [float(v) for v in bt.km],
                               rtol=1e-13, atol=1e-13)
    np.testing.assert_allclose(tab.f1, [float(v) for v in bt.f1],
                               rtol=1e-13, atol=1e-13)
    np.testing.assert_allclose(tab.f2, [float(v) for v in bt.f2],
                               rtol=1e-13, atol=1e-13)
    np.testing.assert_allclose(tab.na1_left, [float(v) for v in bt.na1_left],
                               rtol=1e-13, atol=1e-13)
    np.testing.assert_allclose(tab.na2_left, [float(v) for v in bt.na2_left],
                               rtol=1e-13, atol=1e-13)
    np.testing.assert_allclose(tab.km_left, [float(v) for v in bt.km_left],
                               rtol=1e-13, atol=1e-13)


@settings(max_examples=150, deadline=None)
@given(subjects(n_min=2, n_max=10, truncated=True))
def test_mass_conservation(subs):
    panel = build_panel(subs)
    tab = plugin_tables(panel)
    total = tab.f1 + tab.f2 + tab.km
    np.testing.assert_allclose(total, 1.0, rtol=0, atol=1e-12)


@settings(max_examples=100, deadline=None)
@given(event_subjects(n_min=2, n_max=8))
def test_xi_hat_matches_exact_rational_route(subs):
    panel = build_panel(subs)
    bt = brute_from_panel(panel)
    xi = cb.xi_hat(panel)
    for t in panel.times:
        exact = oracles.brute_xi_hat(bt, Fraction(t))
        assert xi(float(t)) == pytest.approx(float(exact), abs=1e-13)


@settings(max_examples=100, deadline=None)
@given(event_subjects(n_min=2, n_max=7))
def test_zeta_hat_matches_exact_rational_route(subs):
    panel = build_panel(subs)
    bt = brute_from_panel(panel)
    surf = cb.zeta_hat(panel)
    for i, s1 in enumerate(panel.times):
        for j, s2 in enumerate(panel.times):
            exact = oracles.brute_zeta(bt, panel.n, Fraction(s1), Fraction(s2))
            assert surf[i, j] == pytest.approx(float(exact), abs=1e-12)


def test_zeta_hat_is_exactly_symmetric():
    panel = build_panel([(0, 2, 1), (0, 3, 2), (0, 5, 1), (0, 8, 2), (0, 9, 0)])
    surf = cb.zeta_hat(panel)
    np.testing.assert_array_equal(surf, surf.T)


def test_zeta_hat_custom_grid():
    panel = build_panel(HAND)
    full = cb.zeta_hat(panel)  # on the grid times 1, 2, 3
    coarse = cb.zeta_hat(panel, grid=np.array([0.5, 1.5, 2.5]))
    # grid points between jumps pick up the value at the last jump, and
    # the covariance is 0 before the first one
    assert coarse[1, 2] == full[0, 1]
    np.testing.assert_array_equal(coarse[0], 0.0)
    with pytest.raises(ValueError, match="grid"):
        cb.zeta_hat(panel, grid=np.array([2.0, 1.0]))


def test_zeta_hat_hand_value():
    # one event: zeta(s,s) for s >= 1 is n * (S2(1-) - F1(s))^2 * d1 / Y^2
    panel = build_panel([(0, 2, 1), (0, 4, 0)])
    surf = cb.zeta_hat(panel, grid=np.array([1.0]))
    assert surf[0, 0] == pytest.approx(2 * (1 - 0.5) ** 2 / 4, abs=1e-15)


def test_xi_hat_hand_value():
    panel = build_panel(HAND)
    xi = cb.xi_hat(panel)
    # t=1: (1 - 0 - 0) * 1 * 1/3 = 1/3
    # t=3: add (1 - 1/3 - 1/2) * (1/3) * 1/1 = 1/18
    assert xi(1.0) == pytest.approx(1 / 3, abs=1e-15)
    assert xi(3.0) == pytest.approx(7 / 18, abs=1e-14)


# ---------------------------------------------- covariances of the resampling
#
# Given the data, the resampled processes are weighted sums of the entry
# functions Z_l, so their conditional covariances follow exactly from the
# weight covariances: I for wild multipliers and I - 11'/m for Efron counts
# over m = 2n entries.  With E the entries x grid matrix of Z_l(s), the wild
# covariance n E'E is zeta_hat itself, and the Efron one is 2 zeta_hat - S S'
# with S = E.sum(0) close to xi_hat.  No Monte Carlo is involved.

def _random_panel(rng):
    """A censored, left-truncated panel with tied times."""
    n = int(rng.integers(5, 40))
    entry = np.round(rng.uniform(0.0, 0.5, n), 1)
    exit_ = entry + 0.1 + np.round(rng.exponential(1.0, n), 1)
    return cb.compile_panel_arrays(entry, exit_, rng.integers(0, 3, n))


def _close(got, want):
    # relative to the largest entry: entries before the first event are 0
    scale = np.max(np.abs(want))
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * scale)


def test_zeta_hat_is_the_wild_and_efron_conditional_covariance():
    rng = np.random.default_rng(8)
    for _ in range(30):
        panel = _random_panel(rng)
        grid = np.sort(rng.uniform(0.0, 1.1 * panel.last_time, 9))
        zeta = cb.zeta_hat(panel, grid)
        z = cb.build_z(panel)
        e = np.stack([z.evaluate(s) for s in grid], axis=1)
        m = e.shape[0]
        # wild: n * sum_l Z_l(s) Z_l(t)
        _close(panel.n * (e.T @ e), zeta)
        # Efron: m * E' Cov(counts) E, with Cov(counts) = I - 11'/m
        s = e.sum(axis=0)
        efron = m * (e.T @ e - np.outer(s, s) / m)
        _close(efron, 2.0 * zeta - np.outer(s, s))


def test_vn_is_the_window_integral_of_zeta_hat():
    # V_n^2 = kappa^2 double integral of rho rho (zeta1/n1 + zeta2/n2) over
    # the window: both surfaces are constant on the cells of the merged
    # grid of grid times and rho jumps, so the integral is a finite sum
    rng = np.random.default_rng(9)
    for _ in range(30):
        p1, p2 = _random_panel(rng), _random_panel(rng)
        t1 = float(rng.uniform(0.0, 0.5))
        rho = cb.StepFunction(np.sort(rng.uniform(0.0, 3.0, 2)),
                              rng.uniform(0.5, 2.0, 2), 1.0)
        cfg = cb.TestConfig(t1=t1, t2=float(rng.uniform(t1 + 0.5, 3.0)),
                            rho=rho)
        prep = cb.prepare_test(p1, p2, cfg)
        pts = np.unique(np.concatenate(
            ([prep.t1, prep.t2], p1.times, p2.times, rho.jump_times)))
        pts = pts[(pts >= prep.t1) & (pts <= prep.t2)]
        left = pts[:-1]
        r = rho(left) * np.diff(pts)
        cov = cb.zeta_hat(p1, left) / p1.n + cb.zeta_hat(p2, left) / p2.n
        assert prep.variance == pytest.approx(prep.kappa**2 * (r @ cov @ r),
                                              rel=1e-12)


def test_entry_sum_approaches_xi_hat():
    # S(0.75) - xi_hat(0.75) is O(1/n); the bound and seed were fixed
    # before the first run
    for n in (200, 2000, 20000):
        panel = draw_panel(Group1Exp(), n, 0.0, np.random.default_rng(5))
        s = cb.build_z(panel).evaluate(0.75).sum()
        assert abs(s - cb.xi_hat(panel)(0.75)) <= 2.0 / n
