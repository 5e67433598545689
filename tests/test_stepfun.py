from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cifboot.stepfun import CONSTANT_ONE, CovarianceSurface, StepFunction


def make(jumps, values, initial=0.0):
    return StepFunction(np.asarray(jumps, float), np.asarray(values, float), initial)


def test_lookup_and_left_limit():
    f = make([1.0, 2.0], [10.0, 20.0], initial=5.0)
    assert f(0.5) == 5.0
    assert f(1.0) == 10.0      # right continuous
    assert f.left_limit(1.0) == 5.0
    assert f(1.7) == 10.0
    assert f.left_limit(2.0) == 10.0
    assert f(2.0) == 20.0
    assert f(100.0) == 20.0
    assert f.final_value == 20.0


def test_vectorized_lookup():
    f = make([1.0, 3.0], [1.0, 2.0])
    np.testing.assert_array_equal(f(np.array([0.0, 1.0, 2.0, 3.0, 4.0])),
                                  [0.0, 1.0, 1.0, 2.0, 2.0])


def test_empty_function_is_constant():
    f = make([], [], initial=7.0)
    assert f(0.0) == 7.0
    assert f.left_limit(3.0) == 7.0
    assert f.integrate(0.0, 4.0) == 28.0
    assert f.final_value == 7.0


def test_constant_one():
    assert CONSTANT_ONE(0.0) == 1.0
    assert CONSTANT_ONE.integrate(2.0, 5.5) == 3.5


def test_rejects_unsorted_jumps():
    with pytest.raises(ValueError):
        make([2.0, 1.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        make([1.0, 1.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        StepFunction(np.array([1.0]), np.array([[1.0]]))


def test_integrate_hand_value():
    f = make([1.0, 3.0], [1.0, 0.0], initial=2.0)
    # 2 on [0,1), 1 on [1,3), 0 beyond
    assert f.integrate(0.0, 4.0) == 4.0
    assert f.integrate(0.5, 1.0) == 1.0
    assert f.integrate(1.0, 1.0) == 0.0
    with pytest.raises(ValueError):
        f.integrate(2.0, 1.0)


def test_breakpoints_in_is_exclusive():
    f = make([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    np.testing.assert_array_equal(f.breakpoints_in(1.0, 3.0), [2.0])
    np.testing.assert_array_equal(f.breakpoints_in(0.0, 4.0), [1.0, 2.0, 3.0])
    assert f.breakpoints_in(1.0, 1.0).size == 0


@given(st.lists(st.integers(1, 40), min_size=1, max_size=8, unique=True),
       st.lists(st.integers(-8, 8), min_size=8, max_size=8),
       st.integers(-8, 8), st.integers(0, 41), st.integers(0, 41))
def test_integrate_matches_rational_sum(jump_q, vals_q, init_q, a_q, b_q):
    """Quarter-integer grids: the float integral equals the exact one."""
    if a_q > b_q:
        a_q, b_q = b_q, a_q
    jumps = sorted(jump_q)
    f = make([j / 4 for j in jumps], [v / 4 for v in vals_q[:len(jumps)]],
             initial=init_q / 4)

    pts = [Fraction(a_q, 4)]
    pts += [Fraction(j, 4) for j in jumps if a_q < j < b_q]
    pts += [Fraction(b_q, 4)]
    exact = Fraction(0)
    for left, right in zip(pts[:-1], pts[1:]):
        level = Fraction(init_q, 4)
        for j, v in zip(jumps, vals_q):
            if Fraction(j, 4) <= left:
                level = Fraction(v, 4)
        exact += level * (right - left)
    assert f.integrate(a_q / 4, b_q / 4) == pytest.approx(float(exact), abs=1e-12)


@given(st.lists(st.integers(0, 30), min_size=1, max_size=6, unique=True),
       st.data())
def test_left_limit_is_predecessor_value(jump_q, data):
    jumps = sorted(jump_q)
    vals = [float(k + 1) for k in range(len(jumps))]
    f = make([j / 2 for j in jumps], vals, initial=-1.0)
    t_q = data.draw(st.integers(0, 31))
    t = t_q / 2
    before = [v for j, v in zip(jumps, vals) if j / 2 < t]
    assert f.left_limit(t) == (before[-1] if before else -1.0)


def test_surface_lookup_and_initial_zone():
    grid = np.array([1.0, 2.0])
    vals = np.array([[1.0, 2.0], [2.0, 4.0]])
    surf = CovarianceSurface(grid, vals)
    assert surf.value(0.5, 1.5) == 0.0
    assert surf.value(1.0, 1.0) == 1.0
    assert surf.value(1.5, 2.7) == 2.0
    assert surf.value(2.0, 2.0) == 4.0
    assert surf.max_asymmetry() == 0.0


def test_surface_validation():
    with pytest.raises(ValueError):
        CovarianceSurface(np.array([1.0, 2.0]), np.zeros((2, 3)))
    with pytest.raises(ValueError):
        CovarianceSurface(np.array([2.0, 1.0]), np.zeros((2, 2)))


def test_surface_asymmetry_measure():
    surf = CovarianceSurface(np.array([1.0, 2.0]),
                             np.array([[0.0, 1.0], [1.5, 0.0]]))
    assert surf.max_asymmetry() == 0.5
