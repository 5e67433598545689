from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings

import cifboot as cb
from cifboot.resampling import (BAYESIAN, EFRON, IID_WEIGHTED, WILD_NORMAL,
                                WILD_POISSON, build_z, draw_weights,
                                weighted_process, wild_process)
from cifboot.simulation import Group1Exp, draw_panel

from conftest import build_panel, brute_from_panel, event_subjects, jumps_from_subs

HAND = [(0, 2, 1), (0, 4, 2), (0, 6, 1)]

ALL_SCHEMES = (
    cb.WeightScheme(EFRON),
    cb.WeightScheme(WILD_NORMAL),
    cb.WeightScheme(WILD_POISSON),
    cb.WeightScheme(BAYESIAN),
    cb.WeightScheme(IID_WEIGHTED, eta_sampler=lambda rng, shape: rng.gamma(2.0, size=shape),
                    c_eta=1 / np.sqrt(2.0)),
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
    with pytest.raises(cb.DataError, match="eta_sampler and c_eta"):
        cb.WeightScheme(IID_WEIGHTED)
    with pytest.raises(cb.DataError, match="eta_sampler and c_eta"):
        cb.WeightScheme(IID_WEIGHTED, c_eta=1.0)
    for c_eta in (0.0, -1.0, np.nan):
        with pytest.raises(cb.DataError, match="finite c_eta > 0"):
            cb.WeightScheme(IID_WEIGHTED, eta_sampler=lambda r, s: r.random(s),
                            c_eta=c_eta)
    # a parameter the kind does not use is refused, not silently ignored
    def f(rng, shape):
        return rng.standard_normal(shape)

    with pytest.raises(cb.DataError, match="eta_sampler .*wild-normal scheme"):
        cb.WeightScheme(WILD_NORMAL, eta_sampler=f)
    with pytest.raises(cb.DataError, match="c_eta .*efron scheme"):
        cb.WeightScheme(EFRON, c_eta=-5.0)
    for name in ("eta_sampler", "c_eta"):
        for kind in (EFRON, WILD_NORMAL, WILD_POISSON, BAYESIAN):
            with pytest.raises(cb.DataError, match=f"{name} .*{kind} scheme"):
                cb.WeightScheme(kind, **{name: 1.0})


# C_eta = sigma_eta / mu_eta: an infinite mu_eta gives C_eta = 0, which would
# divide by zero in draw_weights, and an infinite sigma_eta gives C_eta = inf,
# which would make every weight 0
@pytest.mark.parametrize("c_eta", [0.0, np.inf],
                         ids=["mu_eta-inf", "sigma_eta-inf"])
def test_scheme_refuses_infinite_eta_moments(c_eta):
    with pytest.raises(cb.DataError, match="finite c_eta > 0"):
        cb.WeightScheme(IID_WEIGHTED, eta_sampler=lambda r, s: r.random(s),
                        c_eta=c_eta)


def test_scheme_by_name():
    # the CLI builds its scheme from the bare name
    for name in (EFRON, WILD_NORMAL, WILD_POISSON, BAYESIAN):
        assert cb.WeightScheme(name).kind == name
    with pytest.raises(cb.DataError, match="needs eta_sampler and c_eta"):
        cb.WeightScheme(IID_WEIGHTED)
    with pytest.raises(cb.DataError, match="unknown weight scheme"):
        cb.WeightScheme("wild-custom")


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
    # also when an eta_sampler refills one shared buffer per shape
    m, rows = 7, 40
    buffers = {}

    def refill(rng, shape):
        buffer = buffers.setdefault(shape, np.empty(shape))
        buffer[:] = rng.gamma(2.0, size=shape)
        return buffer

    shared = cb.WeightScheme(IID_WEIGHTED, eta_sampler=refill,
                             c_eta=1 / np.sqrt(2.0))
    for scheme in ALL_SCHEMES + (shared,):
        rng_block, rng_rows = np.random.default_rng(11), np.random.default_rng(11)
        block = draw_weights(scheme, rows, m, rng_block)
        stacked = np.stack([one_row(scheme, m, rng_rows) for _ in range(rows)])
        assert block.shape == (rows, m), scheme.kind
        assert block.flags.owndata and block.flags.writeable, scheme.kind
        assert not any(np.shares_memory(block, b) for b in buffers.values())
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
    # iid-weighted draws through its eta_sampler, one (rows, m) block per
    # call: equal etas give eta/etabar - 1 = 0 exactly, and a wrong shape
    # is refused, also a lone row for a one-row block
    shapes = []

    def iid(eta_sampler):
        return cb.WeightScheme(IID_WEIGHTED, eta_sampler=eta_sampler, c_eta=1.0)

    def constant(rng, shape):
        shapes.append(shape)
        return np.full(shape, 2.0)

    w = draw_weights(iid(constant), 3, 4, np.random.default_rng(0))
    np.testing.assert_array_equal(w, 0.0)
    assert shapes == [(3, 4)]

    for bad in (lambda rng, shape: np.ones((shape[0], shape[1] + 1)),
                lambda rng, shape: np.ones(shape[1])):
        with pytest.raises(cb.DataError, match="shape"):
            one_row(iid(bad), 4, np.random.default_rng(0))


def test_bayesian_weights_centered():
    w = one_row(cb.WeightScheme(BAYESIAN), 1000, np.random.default_rng(3))
    assert w.min() > -1.0  # eta positive, so eta/etabar > 0
    assert abs(w.sum()) < 1e-9


def test_iid_weighted_scaling_and_positivity():
    scheme = cb.WeightScheme(IID_WEIGHTED, c_eta=1.0,
                             eta_sampler=lambda rng, shape: rng.standard_exponential(shape))
    w = one_row(scheme, 2000, np.random.default_rng(7))
    assert abs(w.mean()) < 1e-9
    assert 0.8 < w.var() < 1.25

    for value in (-1.0, 0.0, np.nan):
        bad = cb.WeightScheme(IID_WEIGHTED, c_eta=1.0,
                              eta_sampler=lambda rng, shape: np.full(shape, value))
        with pytest.raises(cb.DataError, match="positive"):
            one_row(bad, 8, np.random.default_rng(0))


def test_iid_weighted_divides_by_the_coefficient_of_variation():
    # Gamma(2) eta has mu = 2 and sigma = sqrt(2), so C_eta = 1/sqrt(2) and
    # (eta/etabar - 1) has variance 1/2; dividing by C_eta gives variance 1,
    # where dividing by mu/sigma would give 1/4
    scheme = cb.WeightScheme(IID_WEIGHTED, c_eta=1 / np.sqrt(2.0),
                             eta_sampler=lambda rng, shape: rng.gamma(2.0, size=shape))
    report = cb.validate_weight_conditions(scheme, 200, 10_000,
                                           np.random.default_rng(8))
    var = report["centered_variance"]
    assert abs(var["estimate"] - 1.0) < 0.02


def test_bayesian_is_iid_weighted_with_exponential_eta():
    # the Bayesian bootstrap is the iid-weighted scheme at eta ~ Exp(1),
    # C_eta = 1: the same blocks and moment reports, bit for bit
    bayes = cb.WeightScheme(BAYESIAN)
    iid = cb.WeightScheme(IID_WEIGHTED, c_eta=1.0,
                          eta_sampler=lambda rng, shape: rng.standard_exponential(shape))
    for rows, m in ((1, 1), (1, 9), (40, 7), (3, 500)):
        np.testing.assert_array_equal(
            draw_weights(bayes, rows, m, np.random.default_rng(rows * m)),
            draw_weights(iid, rows, m, np.random.default_rng(rows * m)))
    reports = [cb.validate_weight_conditions(s, 12, 10_000,
                                             np.random.default_rng(6))
               for s in (bayes, iid)]
    assert [r.pop("scheme") for r in reports] == [BAYESIAN, IID_WEIGHTED]
    assert reports[0] == reports[1]


def test_gen_weights_rejects_empty():
    with pytest.raises(cb.DataError, match=">= 1"):
        draw_weights(cb.WeightScheme(EFRON), 3, 0, np.random.default_rng(0))


# ---------------------------------------------------------------- Z array

def test_z_entries_hand_values():
    panel = build_panel(HAND)
    z = build_z(panel)
    assert z.size == 6
    at1, at3 = z.evaluate([1.0])[:, 0], z.evaluate([3.0])[:, 0]
    # subject 1, cause-1 slot: (S2(1-) - F1(1)) / Y(1) = (1 - 1/3) / 3
    assert at1[0] == pytest.approx(2 / 9, abs=1e-15)
    # subject 2, cause-2 slot at s=3: (F1(2-) - F1(3)) / Y(2) = (1/3 - 2/3) / 2
    assert at3[4] == pytest.approx(-1 / 6, abs=1e-15)
    # not yet active at s=1
    assert at1[4] == 0.0
    # wrong-cause slots stay identically zero
    assert at3[1] == 0.0 and at3[3] == 0.0 and at3[5] == 0.0


def test_z_entries_censored_subject_is_zero():
    panel = build_panel([(0, 2, 1), (0, 4, 0)])
    z = build_z(panel)
    vals = z.evaluate([10.0])[:, 0]
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
        got = z.evaluate([s_half / 2])[:, 0]
        want = brute_z_values(bt, jumps, Fraction(s_half, 2))
        np.testing.assert_allclose(got, [float(v) for v in want],
                                   rtol=1e-13, atol=1e-14)


def test_z_evaluate_grid_stacks_the_single_time_columns():
    # the grid form is the same elementwise arithmetic, column by column
    for n, lam in ((100, 0.0), (2000, 0.5)):
        panel = draw_panel(Group1Exp(), n, lam, np.random.default_rng(n))
        z = build_z(panel)
        grid = np.unique(np.concatenate((
            [0.0, 2 * panel.last_time], np.linspace(0.05, 2.0, 27),
            panel.times[::max(1, n // 20)])))
        e = z.evaluate(grid)
        assert e.shape == (2 * n, grid.size)
        stacked = np.stack([z.evaluate([s])[:, 0] for s in grid], axis=1)
        assert e.tobytes() == stacked.tobytes()


# ---------------------------------------------------------------- processes

def test_wild_process_matches_entry_sum():
    panel = build_panel(HAND)
    z = build_z(panel)
    g = np.array([1.0, -1.0, 2.0])
    grid = np.array([0.5, 1.0, 2.0, 3.0])
    values = wild_process(z, g, grid)
    g2 = np.concatenate((g, g))
    expected = [np.sqrt(3) * float(g2 @ z.evaluate([s])[:, 0]) for s in grid]
    np.testing.assert_allclose(values, expected, rtol=1e-14, atol=1e-15)
    assert values[0] == 0.0  # before the first jump


def test_wild_process_shape_check():
    z = build_z(build_panel(HAND))
    with pytest.raises(cb.DataError, match="one multiplier per subject"):
        wild_process(z, np.ones(4), [1.0])
    with pytest.raises(cb.DataError, match="one multiplier per subject"):
        wild_process(z, np.ones((3, 4)), [1.0])
    with pytest.raises(cb.DataError, match="one multiplier per subject"):
        wild_process(z, 1.0, [1.0])


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
    expected = [np.sqrt(6) * float(c @ z.evaluate([s])[:, 0]) for s in grid]
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
    with pytest.raises(cb.DataError, match="6 weights"):
        weighted_process(z, np.ones((6, 3)), [1.0])


def test_process_blocks_match_one_vector_calls():
    # a block of weight vectors as rows (on any leading axes) gives one
    # process row per vector, each equal to the one-vector call
    panel = draw_panel(Group1Exp(), 300, 0.5, np.random.default_rng(4))
    z = build_z(panel)
    grid = np.linspace(0.1, 1.5, 29)
    rng = np.random.default_rng(5)
    for process, scheme, m in (
            (weighted_process, cb.WeightScheme(EFRON), z.size),
            (wild_process, cb.WeightScheme(WILD_NORMAL), z.n)):
        block = draw_weights(scheme, 6, m, rng)
        got = process(z, block, grid)
        assert got.shape == (6, grid.size)
        rows = np.array([process(z, w, grid) for w in block])
        np.testing.assert_allclose(got, rows, rtol=0,
                                   atol=1e-13 * np.max(np.abs(rows)))
        np.testing.assert_allclose(process(z, block.reshape(2, 3, m), grid),
                                   rows.reshape(2, 3, grid.size), rtol=0,
                                   atol=1e-13 * np.max(np.abs(rows)))


@pytest.mark.parametrize("grid", [[np.nan, 1.0], [0.5, np.inf], [-np.inf, 1.0],
                                  [[0.5, 1.0]], [2.0, 1.0], [1.0, 1.0],
                                  np.nan, 1.0])
def test_grids_must_be_finite_increasing_vectors(grid):
    # unchecked, a NaN point reads 0 in the entry matrix and both process
    # forms (jump_time <= nan is False), and a 2-d grid or a scalar would
    # not give the (2n, G) matrix; one time is the one-point grid [s]
    panel = build_panel(HAND)
    z = build_z(panel)
    for call in (lambda: cb.zeta_hat(panel, grid),
                 lambda: z.evaluate(grid),
                 lambda: wild_process(z, np.ones(z.n), grid),
                 lambda: weighted_process(z, np.ones(z.size), grid)):
        with pytest.raises(cb.DataError, match="finite, strictly increasing"):
            call()


# ---------------------------------------------------------------- validation

def test_validate_weight_conditions_guards():
    rng = np.random.default_rng(0)
    with pytest.raises(cb.DataError, match="10000"):
        cb.validate_weight_conditions(cb.WeightScheme(EFRON), 8, 100, rng)
    with pytest.raises(cb.DataError, match="m must be >= 4"):
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
