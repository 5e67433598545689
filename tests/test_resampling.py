from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings

import cifboot as cb
from cifboot.resampling import (BAYESIAN, EFRON, IID_WEIGHTED, WILD_CUSTOM,
                                WILD_NORMAL, WILD_POISSON, build_z,
                                draw_weights, scheme_from_name,
                                weighted_process, wild_process)

from conftest import build_panel, brute_from_panel, event_subjects, jumps_from_subs

HAND = [(0, 2, 1), (0, 4, 2), (0, 6, 1)]

ALL_SCHEMES = (
    cb.WeightScheme(EFRON),
    cb.WeightScheme(WILD_NORMAL),
    cb.WeightScheme(WILD_POISSON),
    cb.WeightScheme(BAYESIAN),
    cb.WeightScheme(WILD_CUSTOM, sampler=lambda rng, m: rng.uniform(-1.5, 1.5, m)),
    cb.WeightScheme(IID_WEIGHTED, eta_sampler=lambda rng, m: rng.gamma(2.0, size=m),
                    mu_eta=2.0, sigma_eta=np.sqrt(2.0)),
)


def one_row(scheme, m, rng):
    return draw_weights(scheme, 1, m, rng)[0]


def counts(rng, m, rows):
    return draw_weights(cb.WeightScheme(EFRON), rows, m, rng) + 1.0


def brute_z_values(bt, jumps, s):
    """Exact Z-entry values at time s, pooled cause-1-then-cause-2 layout."""
    s = Fraction(s)
    n = len(jumps)
    out = [Fraction(0)] * (2 * n)
    f1s = bt.f1_at(s)
    for i, (u, cause) in enumerate(jumps):
        if u is None or cause == 0 or Fraction(u) > s:
            continue
        k = bt.times.index(Fraction(u))
        y = Fraction(bt.at_risk[k])
        if cause == 1:
            out[i] = ((1 - bt.f2_left[k]) - f1s) / y
        else:
            out[n + i] = (bt.f1_left[k] - f1s) / y
    return out


# ---------------------------------------------------------------- schemes

def test_scheme_validation():
    with pytest.raises(cb.DataError, match="unknown weight scheme"):
        cb.WeightScheme("jackknife")
    with pytest.raises(cb.DataError, match="sampler"):
        cb.WeightScheme(WILD_CUSTOM)
    with pytest.raises(cb.DataError, match="eta_sampler"):
        cb.WeightScheme(IID_WEIGHTED)
    with pytest.raises(cb.DataError, match="sigma_eta > 0"):
        cb.WeightScheme(IID_WEIGHTED, eta_sampler=lambda r, m: r.random(m),
                        mu_eta=1.0, sigma_eta=0.0)
    # a parameter the kind does not use is refused, not silently ignored
    def f(rng, m):
        return rng.standard_normal(m)

    with pytest.raises(cb.DataError, match="sampler .*wild-normal scheme"):
        cb.WeightScheme(WILD_NORMAL, sampler=f)
    with pytest.raises(cb.DataError, match="sampler .*iid-weighted scheme"):
        cb.WeightScheme(IID_WEIGHTED, sampler=f, eta_sampler=f, mu_eta=1.0,
                        sigma_eta=1.0)
    with pytest.raises(cb.DataError, match="mu_eta .*efron scheme"):
        cb.WeightScheme(EFRON, mu_eta=1.0, sigma_eta=-5.0)
    for name in ("eta_sampler", "mu_eta", "sigma_eta"):
        for kind in (EFRON, WILD_CUSTOM, BAYESIAN):
            extra = {"sampler": f} if kind == WILD_CUSTOM else {}
            with pytest.raises(cb.DataError, match=f"{name} .*{kind} scheme"):
                cb.WeightScheme(kind, **extra, **{name: 1.0})


def test_scheme_from_name():
    for name in (EFRON, WILD_NORMAL, WILD_POISSON, BAYESIAN):
        assert scheme_from_name(name).kind == name
    for name in (IID_WEIGHTED, WILD_CUSTOM):
        with pytest.raises(cb.DataError, match="no CLI shorthand"):
            scheme_from_name(name)


def test_multinomial_counts_single():
    rng = np.random.default_rng(5)
    for m in (1, 2, 7):
        c = counts(rng, m, 1)
        assert c.shape == (1, m)
        assert c.sum() == m
        assert c.min() >= 0


def test_draw_weights_block_matches_row_by_row():
    # a block is the stack of one-row draws, bit for bit, and leaves the
    # generator where the one-row draws leave it, so chunking is invisible;
    # it is a fresh writable array (the moment pass centres it in place),
    # also when a custom sampler refills one shared buffer
    m, rows = 7, 40
    buffer = np.empty(m)

    def refill(rng, m):
        buffer[:] = rng.uniform(-1.5, 1.5, m)
        return buffer

    for scheme in ALL_SCHEMES + (cb.WeightScheme(WILD_CUSTOM, sampler=refill),):
        rng_block, rng_rows = np.random.default_rng(11), np.random.default_rng(11)
        block = draw_weights(scheme, rows, m, rng_block)
        stacked = np.stack([one_row(scheme, m, rng_rows) for _ in range(rows)])
        assert block.shape == (rows, m), scheme.kind
        assert block.flags.owndata and block.flags.writeable, scheme.kind
        assert not np.shares_memory(block, buffer)
        np.testing.assert_array_equal(block, stacked, err_msg=scheme.kind)
        assert rng_block.bit_generator.state == rng_rows.bit_generator.state


def test_multinomial_cross_moments_small_m():
    # m=4: E[M1 M2] = 1 - 1/m = 3/4 and E[prod (Mi - 1)] = 3/32
    rng = np.random.default_rng(2024)
    draws = 200_000
    c = counts(rng, 4, draws)
    pair = c[:, 0] * c[:, 1]
    quad = np.prod(c - 1.0, axis=1)
    for sample, target in ((pair, 0.75), (quad, 3 / 32)):
        se = sample.std(ddof=1) / np.sqrt(draws)
        assert abs(sample.mean() - target) < 5 * se


def test_efron_weights_sum_to_zero_exactly():
    rng = np.random.default_rng(0)
    scheme = cb.WeightScheme(EFRON)
    for m in (2, 5, 64):
        w = one_row(scheme, m, rng)
        assert w.sum() == 0.0
        assert w.min() >= -1.0
        assert np.all(w == np.round(w))


def test_wild_weights_basic():
    rng = np.random.default_rng(1)
    w = one_row(cb.WeightScheme(WILD_NORMAL), 50_000, rng)
    assert abs(w.mean()) < 0.02
    assert abs(w.var() - 1.0) < 0.03

    w = one_row(cb.WeightScheme(WILD_POISSON), 50_000, rng)
    assert w.min() >= -1.0
    assert np.all(w == np.round(w))
    assert abs(w.mean()) < 0.02


def test_custom_sampler_used_and_checked():
    scheme = cb.WeightScheme(WILD_CUSTOM,
                             sampler=lambda rng, m: np.full(m, 0.0))
    w = one_row(scheme, 4, np.random.default_rng(0))
    np.testing.assert_array_equal(w, 0.0)

    bad = cb.WeightScheme(WILD_CUSTOM, sampler=lambda rng, m: np.zeros(m + 1))
    with pytest.raises(cb.DataError, match="shape"):
        one_row(bad, 4, np.random.default_rng(0))


def test_bayesian_weights_centered():
    w = one_row(cb.WeightScheme(BAYESIAN), 1000, np.random.default_rng(3))
    assert w.min() > -1.0  # eta positive, so eta/etabar > 0
    assert abs(w.sum()) < 1e-9


def test_iid_weighted_scaling_and_positivity():
    scheme = cb.WeightScheme(IID_WEIGHTED,
                             eta_sampler=lambda rng, m: rng.standard_exponential(m),
                             mu_eta=1.0, sigma_eta=1.0)
    w = one_row(scheme, 2000, np.random.default_rng(7))
    assert abs(w.mean()) < 1e-9
    assert 0.8 < w.var() < 1.25

    neg = cb.WeightScheme(IID_WEIGHTED, eta_sampler=lambda rng, m: np.full(m, -1.0),
                          mu_eta=1.0, sigma_eta=1.0)
    with pytest.raises(cb.DataError, match="positive"):
        one_row(neg, 8, np.random.default_rng(0))


def test_gen_weights_rejects_empty():
    with pytest.raises(cb.DataError, match=">= 1"):
        draw_weights(cb.WeightScheme(EFRON), 3, 0, np.random.default_rng(0))


# ---------------------------------------------------------------- Z array

def test_z_entries_hand_values():
    panel = build_panel(HAND)
    z = build_z(panel)
    assert z.size == 6
    # subject 1, cause-1 slot: (S2(1-) - F1(1)) / Y(1) = (1 - 1/3) / 3
    assert z.evaluate(1.0)[0] == pytest.approx(2 / 9, abs=1e-15)
    # subject 2, cause-2 slot at s=3: (F1(2-) - F1(3)) / Y(2) = (1/3 - 2/3) / 2
    assert z.evaluate(3.0)[4] == pytest.approx(-1 / 6, abs=1e-15)
    # not yet active at s=1
    assert z.evaluate(1.0)[4] == 0.0
    # wrong-cause slots stay identically zero
    vals = z.evaluate(3.0)
    assert vals[1] == 0.0 and vals[3] == 0.0 and vals[5] == 0.0


def test_z_entries_censored_subject_is_zero():
    panel = build_panel([(0, 2, 1), (0, 4, 0)])
    z = build_z(panel)
    vals = z.evaluate(10.0)
    assert vals[1] == 0.0 and vals[3] == 0.0
    assert np.isinf(z.jump_time[1]) and np.isinf(z.jump_time[3])


@settings(max_examples=100, deadline=None)
@given(event_subjects(n_min=2, n_max=8))
def test_z_matches_exact_rational_route(subs):
    panel = build_panel(subs)
    z = build_z(panel)
    bt = brute_from_panel(panel)
    jumps = jumps_from_subs(subs)
    for s_half in (1, 4, 9, 12):
        got = z.evaluate(s_half / 2)
        want = brute_z_values(bt, jumps, Fraction(s_half, 2))
        np.testing.assert_allclose(got, [float(v) for v in want],
                                   rtol=1e-13, atol=1e-14)


# ---------------------------------------------------------------- processes

def test_wild_process_matches_entry_sum():
    panel = build_panel(HAND)
    z = build_z(panel)
    g = np.array([1.0, -1.0, 2.0])
    grid = np.array([0.5, 1.0, 2.0, 3.0])
    values = wild_process(panel, g, grid)
    g2 = np.concatenate((g, g))
    expected = [np.sqrt(3) * float(g2 @ z.evaluate(s)) for s in grid]
    np.testing.assert_allclose(values, expected, rtol=1e-14, atol=1e-15)
    assert values[0] == 0.0  # before the first jump


def test_wild_process_shape_check():
    panel = build_panel(HAND)
    with pytest.raises(cb.DataError, match="one multiplier per subject"):
        wild_process(panel, np.ones(4), [1.0])


def test_weighted_process_constant_weights_vanish():
    panel = build_panel(HAND)
    z = build_z(panel)
    # integer constants have an exactly representable mean, so the centered
    # weights and the whole process are exactly zero
    values = weighted_process(z, np.full(6, 4.0), np.array([1.0, 2.0, 3.0]))
    np.testing.assert_array_equal(values, 0.0)
    # non-representable means still cancel to rounding error
    values = weighted_process(z, np.full(6, 3.7), np.array([1.0, 2.0, 3.0]))
    np.testing.assert_allclose(values, 0.0, atol=1e-14)


def test_weighted_process_matches_entry_sum():
    panel = build_panel(HAND)
    z = build_z(panel)
    rng = np.random.default_rng(42)
    w = one_row(cb.WeightScheme(EFRON), 6, rng)
    grid = np.array([1.0, 1.5, 3.0])
    values = weighted_process(z, w, grid)
    c = w - w.mean()
    expected = [np.sqrt(6) * float(c @ z.evaluate(s)) for s in grid]
    np.testing.assert_allclose(values, expected, rtol=1e-13, atol=1e-15)


def test_weighted_process_centering_absorbs_shift():
    # counts and counts - 1 give the same centered weights, hence the same draw
    panel = build_panel(HAND)
    z = build_z(panel)
    rng = np.random.default_rng(9)
    c = counts(rng, 6, 1)[0]
    grid = np.array([1.0, 2.0, 3.0])
    a = weighted_process(z, c, grid)
    b = weighted_process(z, c - 1.0, grid)
    np.testing.assert_array_equal(a, b)


def test_weighted_process_shape_check():
    panel = build_panel(HAND)
    z = build_z(panel)
    with pytest.raises(cb.DataError, match="6 weights"):
        weighted_process(z, np.ones(3), [1.0])


# ---------------------------------------------------------------- validation

def test_validate_weight_conditions_guards():
    rng = np.random.default_rng(0)
    with pytest.raises(cb.DataError, match="10000"):
        cb.validate_weight_conditions(cb.WeightScheme(EFRON), 8, 100, rng)
    with pytest.raises(cb.DataError, match="m >= 4"):
        cb.validate_weight_conditions(cb.WeightScheme(EFRON), 2, 20_000, rng)


def test_validate_weight_conditions_efron_moments():
    m = 8
    rng = np.random.default_rng(101)
    report = cb.validate_weight_conditions(cb.WeightScheme(EFRON), m, 20_000, rng)
    var = report["centered_variance"]
    # multinomial counts have Var(M_i - 1) = 1 - 1/m and mean exactly 1
    assert abs(var["estimate"] - (1 - 1 / m)) < 6 * var["mc_se"]
    assert var["target"] == 1.0
    assert report["m"] == m and report["draws"] == 20_000
    # M_i ~ Binomial(m, 1/m): mu4 = npq (1 + 3 (n - 2) pq)
    fourth = report["fourth_central_moment"]
    mu4 = (1 - 1 / m) * (1 + 3 * (m - 2) * (m - 1) / m**2)
    assert abs(fourth["estimate"] - mu4) < 6 * fourth["mc_se"]
    for key in ("max_scaled_weight", "scaled_cross_moment_squares",
                "scaled_cross_moment_product"):
        assert np.isfinite(report[key]["estimate"])


def test_validate_weight_conditions_wild_normal_moments():
    rng = np.random.default_rng(55)
    report = cb.validate_weight_conditions(cb.WeightScheme(WILD_NORMAL), 16,
                                           20_000, rng)
    var = report["centered_variance"]
    # centering iid N(0,1) costs one degree of freedom
    assert abs(var["estimate"] - 15 / 16) < 6 * var["mc_se"]
    # a centred weight is N(0, 1 - 1/m), so its fourth moment is 3 (1 - 1/m)^2
    fourth = report["fourth_central_moment"]
    assert abs(fourth["estimate"] - 3 * (15 / 16) ** 2) < 6 * fourth["mc_se"]
    # centered Gaussian weights have cov -1/m off the diagonal, so by
    # Isserlis (m/2)^2 E[c1 c2 c3 c4] = 3/4 and
    # (m/2) E[c1^2 c2 c3] = -(1 - 3/m)/2 exactly
    g7 = report["scaled_cross_moment_product"]
    assert abs(g7["estimate"] - 0.75) < 6 * g7["mc_se"]
    g6 = report["scaled_cross_moment_squares"]
    assert abs(g6["estimate"] + (1 - 3 / 16) / 2) < 6 * g6["mc_se"]


def test_validate_weight_conditions_matches_textbook_formulas():
    # the report centres, squares and takes |c| in place; recompute it from
    # an identically seeded block with the literal c**2, c**4 and abs(c):
    # the variance and the maximum are the same operations (bit for bit),
    # the fourth power is (c^2)^2 instead of pow(c, 4) (rounding only)
    m, draws = 8, 10_000
    for kind in (EFRON, WILD_NORMAL, WILD_POISSON, BAYESIAN):
        scheme = cb.WeightScheme(kind)
        report = cb.validate_weight_conditions(scheme, m, draws,
                                               np.random.default_rng(17))
        w = draw_weights(scheme, draws, m, np.random.default_rng(17))
        c = w - w.mean(axis=1, keepdims=True)
        s2, s4 = np.sum(c**2, axis=1), np.sum(c**4, axis=1)
        denom3 = m * (m - 1) * (m - 2)
        per_draw = {
            "max_scaled_weight": np.max(np.abs(c), axis=1) / np.sqrt(m),
            "centered_variance": s2 / m,
            "fourth_central_moment": s4 / m,
            "scaled_cross_moment_squares": (m / 2) * (2 * s4 - s2**2) / denom3,
            "scaled_cross_moment_product":
                (m / 2) ** 2 * (3 * s2**2 - 6 * s4) / (denom3 * (m - 3)),
        }
        for key, vals in per_draw.items():
            got = [report[key]["estimate"], report[key]["mc_se"]]
            want = [vals.mean(), vals.std(ddof=1) / np.sqrt(draws)]
            if key in ("max_scaled_weight", "centered_variance"):
                assert got == want, (kind, key)
            else:
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=0,
                                           err_msg=f"{kind} {key}")
