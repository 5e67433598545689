"""Competing-risks estimation, resampling and two-sample incidence tests.

The package estimates cumulative incidence functions from right-censored,
possibly left-truncated competing-risks data, resamples the normalized
estimator process with wild multipliers or exchangeable weights, and runs
studentized one-sided two-sample tests with asymptotic or bootstrap critical
values, plus the Monte Carlo suites that size-check them.
"""

from .data import (CountingProcessPanel, DataError, PositiveRiskReport, Sample,
                   Status, check_positive_risk, compile_panel,
                   compile_panel_arrays, ingest_csv)
from .estimators import (PluginTables, aalen_johansen, kaplan_meier,
                         nelson_aalen, plugin_tables, sigma_hat, xi_hat,
                         zeta_hat)
from .resampling import (BAYESIAN, EFRON, IID_WEIGHTED, WILD_NORMAL,
                         WILD_POISSON, WeightScheme, ZArray, build_z,
                         draw_weights, validate_weight_conditions,
                         weighted_process, wild_process)
from .rng import fresh_seed, substream
from .simulation import (ConstantPair, Group1Exp, HazardModel,
                         MonteCarloReport, PiecewiseConstant, ScenarioConfig,
                         draw_panel, run_scenario, suite_configs)
from .stepfun import CONSTANT_ONE, StepFunction
from .twosample import (NumericalError, PreparedTest, ReplicateBlock,
                        TestConfig, TestResult, effective_window,
                        prepare_test, replicate_block, test_phi_n,
                        test_phi_star, verdict)

__version__ = "0.1.0"
