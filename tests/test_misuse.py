"""Every bad count, seed, rate or replicate block a caller can hand a public
callable is a ``DataError`` at the call, never a wrong answer or a numpy
error later."""

import math

import numpy as np
import pytest

import cifboot as cb
from cifboot.data import check_count
from cifboot.simulation import ConstantPair, Group1Exp

from conftest import build_panel


def _prepared():
    p1 = build_panel([(0, 2, 1), (0, 4, 2), (0, 6, 1), (0, 8, 0)])
    p2 = build_panel([(0, 3, 2), (0, 5, 1), (0, 10, 0)])
    return cb.prepare_test(p1, p2, cb.TestConfig(t2=3.0))


def _scenario(**kwargs):
    return cb.ScenarioConfig(**{**dict(model1=Group1Exp(),
                                       model2=ConstantPair(1.0), n1=10,
                                       n2=10, n_sim=2, B=19), **kwargs})


def _replicates(B):
    return cb.replicate_block(_prepared(), cb.WeightScheme("efron"), B,
                              np.random.default_rng(0))


def _decide(studentized, scheme="efron", **counts):
    return cb.verdict(_prepared(),
                      cb.ReplicateBlock(np.array(studentized), scheme, **counts))


def _draw_panel(rate, n=10):
    return cb.draw_panel(Group1Exp(), n, rate, np.random.default_rng(0))


MISUSE = [
    ("TestConfig-B=2.5", lambda: cb.TestConfig(B=2.5),
     "B must be an integer, got 2.5"),
    ("TestConfig-B=True", lambda: cb.TestConfig(B=True),
     "B must be an integer, got True"),
    ("ScenarioConfig-n1=2.5", lambda: _scenario(n1=2.5),
     "n1 must be an integer"),
    ("ScenarioConfig-n_sim=2.5", lambda: _scenario(n_sim=2.5),
     "n_sim must be an integer"),
    ("ScenarioConfig-seed=-1", lambda: _scenario(seed=-1),
     "seed must be >= 0, got -1"),
    ("replicate_block-B=0", lambda: _replicates(0), "B must be >= 1, got 0"),
    ("replicate_block-B=-3", lambda: _replicates(-3),
     "B must be >= 1, got -3"),
    ("replicate_block-B=2.5", lambda: _replicates(2.5),
     "B must be an integer"),
    ("ReplicateBlock-degenerate=5", lambda: _decide([0.1, 5.0], degenerate=5),
     "degenerate must be <= B = 2"),
    ("ReplicateBlock-truncated=-4", lambda: _decide([0.1, 5.0], truncated=-4),
     "truncated must be >= 0, got -4"),
    ("ReplicateBlock-scheme", lambda: _decide([0.1, 5.0], "nonsense"),
     "unknown bootstrap scheme 'nonsense'"),
    ("ReplicateBlock-empty", lambda: _decide([]),
     "studentized must be a 1-d array of replicates"),
    ("ReplicateBlock-nan", lambda: _decide([math.nan] * 19),
     "studentized replicates must be finite"),
    ("ReplicateBlock-inf", lambda: _decide([math.inf] * 19),
     "studentized replicates must be finite"),
    ("run_scenario-workers=1.5", lambda: cb.run_scenario(_scenario(), 1.5),
     "workers must be an integer"),
    ("validate_weight_conditions-m=4.5",
     lambda: cb.validate_weight_conditions(cb.WeightScheme("efron"), 4.5,
                                           10_000, np.random.default_rng(0)),
     "m must be an integer"),
    ("draw_panel-rate=-1", lambda: _draw_panel(-1.0),
     "censor_rate must be finite and >= 0"),
    ("draw_panel-rate=nan", lambda: _draw_panel(math.nan),
     "censor_rate must be finite and >= 0"),
    ("draw_panel-n=-1", lambda: _draw_panel(0.0, n=-1),
     "n must be >= 1, got -1"),
    ("draw_panel-n=2.5", lambda: _draw_panel(0.0, n=2.5),
     "n must be an integer"),
    ("draw_weights-rows=-1",
     lambda: cb.draw_weights(cb.WeightScheme("efron"), -1, 8,
                             np.random.default_rng(0)),
     "rows must be >= 0, got -1"),
    ("substream-seed=-1", lambda: cb.substream(-1, "s", 0, "data"),
     "seed must be >= 0, got -1"),
    ("substream-role", lambda: cb.substream(0, "s", 0, "weight"),
     "unknown stream role 'weight'"),
]


@pytest.mark.parametrize("call, message", [case[1:] for case in MISUSE],
                         ids=[case[0] for case in MISUSE])
def test_misuse_is_a_data_error(call, message):
    with pytest.raises(cb.DataError, match="^" + message):
        call()


def test_check_count_returns_a_python_int():
    for value in (3, np.int64(3), np.uint8(3)):
        assert type(check_count("k", value, 1)) is int
    for value in (np.float64(3.0), 3.0, "3", None, np.bool_(True)):
        with pytest.raises(cb.DataError, match="k must be an integer"):
            check_count("k", value, 1)
