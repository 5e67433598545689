"""Command-line interface: estimate, test, simulate, validate-weights.

Every command resolves its options from flags, then a flat key=value config
file, then built-in defaults; writes machine-readable outputs (CSV and JSON
with 17 significant digits); and drops a manifest.json recording the
resolved configuration, the seed, versions and output paths so the run can
be reproduced exactly.

Exit codes: 0 success, 2 user or input error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import sys
import time

import numpy as np

from . import __version__
from .data import DataError, check_positive_risk, compile_panel, ingest_csv
from .estimators import aalen_johansen, kaplan_meier
from .resampling import EFRON, WILD_NORMAL, WeightScheme, scheme_from_name, \
    validate_weight_conditions
from .rng import fresh_seed, substream
from .simulation import PHI_E, PHI_N, PHI_W, run_scenario, suite_configs
from .stepfun import StepFunction
from .twosample import NumericalError, TestConfig, TestResult, test_phi_n, \
    test_phi_star

_REQUIRED = object()


# ---------------------------------------------------------------------------
# deterministic serialization

def format_float(x: float) -> str:
    """17-significant-digit decimal, enough to round-trip any double."""
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return f"{x:.17g}"


def render_json(obj) -> str:
    """Deterministic pretty JSON with 17-significant-digit floats.

    The stdlib encoder formats floats with repr, which is fine for Python
    but not pinned by contract; this writer makes the byte output part of
    the interface.
    """
    return _render(obj, 0) + "\n"


def _render(obj, level: int) -> str:
    pad = "  " * level
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple, np.ndarray)):
        items = [_render(x, level + 1) for x in obj]
        if not items:
            return "[]"
        inner = ",\n".join("  " * (level + 1) + it for it in items)
        return "[\n" + inner + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        rows = [f"{json.dumps(str(k))}: {_render(v, level + 1)}"
                for k, v in obj.items()]
        inner = ",\n".join("  " * (level + 1) + r for r in rows)
        return "{\n" + inner + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _write(path: str, text: str) -> str:
    with open(path, "w") as fh:
        fh.write(text)
    print(f"wrote {path}")
    return path


def _step_csv(fn: StepFunction) -> str:
    lines = ["time,value"]
    lines.append(f"0,{format_float(fn.initial_value)}")
    for t, v in zip(fn.jump_times, fn.values):
        lines.append(f"{format_float(float(t))},{format_float(float(v))}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# option resolution (flags > config file > defaults)

def load_config(path: str) -> dict[str, str]:
    """Read a flat key=value config file ('#' comments, blank lines ok)."""
    out = {}
    try:
        with open(path) as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                key, sep, val = line.partition("=")
                if not sep:
                    raise DataError(
                        f"{path}:{lineno}: expected key=value, got {line!r}")
                out[key.strip().replace("-", "_")] = val.strip()
    except OSError as exc:
        raise DataError(f"cannot read config file: {exc}") from None
    unknown = set(out) - _CONFIG_KEYS
    if unknown:
        raise DataError(f"unknown config keys: {', '.join(sorted(unknown))}")
    return out


_CONFIG_KEYS = {
    "input", "entry_col", "exit_col", "status_col", "horizon",
    "group1", "group2", "t1", "t2", "alpha", "B", "method", "rho",
    "suite", "nsim", "cells", "workers",
    "scheme", "m", "draws",
    "seed", "out",
}


class Resolver:
    """Merge parsed flags with a config-file dict, tracking what was used."""

    def __init__(self, args: argparse.Namespace, cfg: dict[str, str]):
        self.args = args
        self.cfg = cfg
        self.resolved: dict[str, object] = {}

    def get(self, key: str, cast=str, default=_REQUIRED):
        val = getattr(self.args, key, None)
        if val is None and key in self.cfg:
            try:
                val = cast(self.cfg[key])
            except ValueError:
                raise DataError(
                    f"config key {key}={self.cfg[key]!r} is not a valid "
                    f"{cast.__name__}") from None
        if val is None:
            if default is _REQUIRED:
                raise DataError(f"missing required option --{key.replace('_', '-')}")
            val = default
        self.resolved[key] = val
        return val

    def seed(self) -> int:
        val = self.get("seed", int, None)
        if val is None:
            val = fresh_seed()
            self.resolved["seed"] = val
        return val

    def out_dir(self) -> str:
        out = self.get("out", str, ".")
        os.makedirs(out, exist_ok=True)
        return out


def _write_manifest(out: str, command: str, res: Resolver, seed: int,
                    outputs: list[str], started: float,
                    extra: dict | None = None) -> None:
    man = {
        "command": command,
        "config": dict(res.resolved),
        "seed": seed,
        "versions": {
            "cifboot": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
        "runtime_seconds": time.perf_counter() - started,
        "outputs": [os.path.basename(p) for p in outputs],
    }
    if extra:
        man.update(extra)
    _write(os.path.join(out, "manifest.json"), render_json(man))


def parse_rho(spec: str) -> StepFunction:
    """Parse a piecewise-constant weight table like "0:1,0.75:2".

    Each comma-separated pair is time:value; the first time must be 0 and
    gives the initial value, later times are breakpoints.
    """
    times, values = [], []
    for part in spec.split(","):
        t_s, sep, v_s = part.strip().partition(":")
        if not sep:
            raise DataError(f"bad rho entry {part!r} (expected time:value)")
        try:
            times.append(float(t_s))
            values.append(float(v_s))
        except ValueError:
            raise DataError(f"bad rho entry {part!r}") from None
    if not times or times[0] != 0.0:
        raise DataError("rho table must start at time 0")
    if any(b <= a for a, b in zip(times, times[1:])):
        raise DataError("rho table times must be strictly increasing")
    return StepFunction(np.asarray(times[1:]), np.asarray(values[1:]),
                        initial_value=values[0])


# ---------------------------------------------------------------------------
# commands

def _load_sample(path: str, res: Resolver):
    # a zero-byte file has no header to complain about either
    if os.path.exists(path) and os.path.getsize(path) == 0:
        raise DataError(f"no observations in {path}")
    sample = ingest_csv(
        path,
        entry_col=res.get("entry_col", str, "entry"),
        exit_col=res.get("exit_col", str, "exit"),
        status_col=res.get("status_col", str, "status"),
    )
    if len(sample) == 0:
        raise DataError(f"no observations in {path}")
    return sample


def cmd_estimate(res: Resolver) -> int:
    started = time.perf_counter()
    path = res.get("input")
    seed = res.seed()  # unused by the estimators; recorded for uniformity
    out = res.out_dir()
    horizon = res.get("horizon", float, None)

    panel = compile_panel(_load_sample(path, res))
    outputs = [
        _write(os.path.join(out, "cif1.csv"), _step_csv(aalen_johansen(panel, 1))),
        _write(os.path.join(out, "cif2.csv"), _step_csv(aalen_johansen(panel, 2))),
        _write(os.path.join(out, "km.csv"), _step_csv(kaplan_meier(panel))),
    ]

    extra = {}
    if horizon is not None:
        report = check_positive_risk(panel, horizon)
        extra["positive_risk"] = {
            "n": report.n,
            "horizon": report.horizon,
            "min_fraction": report.min_fraction,
            "min_time": report.min_time,
            "zero_after": report.zero_after,
            "ok": report.ok,
        }
        if not report.ok:
            print(f"warning: at-risk set empty after t={report.zero_after} "
                  f"(horizon {report.horizon})", file=sys.stderr)

    _write_manifest(out, "estimate", res, seed, outputs, started, extra)
    return 0


# result.json keys in output order; the bootstrap ones only for bootstrap tests
_RESULT_KEYS = ("method", "decision", "reject", "statistic", "variance",
                "studentized", "critical_value", "p_value", "alpha",
                "interval", "truncated", "warning", "vn_zero")
_BOOTSTRAP_KEYS = ("B", "scheme", "degenerate_replicates",
                   "truncated_variances")


def result_dict(result: TestResult) -> dict:
    keys = _RESULT_KEYS + (_BOOTSTRAP_KEYS if result.B is not None else ())
    d = {key: getattr(result, key) for key in keys}
    d["interval"] = list(result.interval)
    return d


def cmd_test(res: Resolver) -> int:
    started = time.perf_counter()
    path1 = res.get("group1")
    path2 = res.get("group2")
    method = res.get("method", str, "asymptotic")
    if method not in ("asymptotic", "efron", "wild"):
        raise DataError(f"unknown method {method!r}")
    rho_spec = res.get("rho", str, None)
    seed = res.seed()
    out = res.out_dir()

    config = TestConfig(
        t1=res.get("t1", float, 0.0),
        t2=res.get("t2", float, 1.5),
        rho=parse_rho(rho_spec) if rho_spec else None,
        alpha=res.get("alpha", float, 0.05),
        B=res.get("B", int, 999),
        scheme=WeightScheme(EFRON if method == "efron" else WILD_NORMAL),
        seed=seed,
    )
    panel1 = compile_panel(_load_sample(path1, res))
    panel2 = compile_panel(_load_sample(path2, res))

    save_reps = bool(getattr(res.args, "save_replicates", False))
    if method == "asymptotic":
        result = test_phi_n(panel1, panel2, config)
    else:
        rng = substream(seed, f"test;{method};B={config.B}", 0, "weights")
        result = test_phi_star(panel1, panel2, config, rng=rng,
                               keep_replicates=save_reps)
    if result.warning:
        print(f"warning: {result.warning}", file=sys.stderr)

    outputs = [_write(os.path.join(out, "result.json"),
                      render_json(result_dict(result)))]
    if save_reps and result.replicates is not None:
        lines = ["t_stud_star"] + [format_float(float(v))
                                   for v in result.replicates]
        outputs.append(_write(os.path.join(out, "replicates.csv"),
                              "\n".join(lines) + "\n"))

    _write_manifest(out, "test", res, seed, outputs, started)
    return 0


def cmd_simulate(res: Resolver) -> int:
    started = time.perf_counter()
    suite = res.get("suite")
    seed = res.seed()
    out = res.out_dir()
    workers = res.get("workers", int, os.cpu_count() or 1)
    configs = suite_configs(
        suite,
        n_sim=res.get("nsim", int, 1000),
        B=res.get("B", int, 999),
        seed=seed,
        alpha=res.get("alpha", float, 0.05),
        interval=(res.get("t1", float, 0.0), res.get("t2", float, 1.5)),
        cells=res.get("cells", str, None),
    )
    if not configs:
        raise DataError("the cell filter matched no scenarios")

    reports = [run_scenario(cf, workers=workers) for cf in configs]

    with_c = suite == "table2"
    header = ("c," if with_c else "") + "n1,n2,l1,l2,phi_n,phi_W,phi_E"
    lines = [header]
    cells_json = []
    for rep in reports:
        cf = rep.config
        row = [str(cf.n1), str(cf.n2), format_float(cf.censor_rates[0]),
               format_float(cf.censor_rates[1]),
               format_float(rep.rate(PHI_N)), format_float(rep.rate(PHI_W)),
               format_float(rep.rate(PHI_E))]
        if with_c:
            row.insert(0, format_float(cf.c_value))
        lines.append(",".join(row))
        cells_json.append({
            "scenario_id": rep.scenario_id,
            "models": [cf.model1.tag, cf.model2.tag],
            "c": cf.c_value,
            "n1": cf.n1,
            "n2": cf.n2,
            "censor_rates": list(cf.censor_rates),
            "interval": list(cf.interval),
            "alpha": cf.alpha,
            "n_sim": cf.n_sim,
            "B": cf.B,
            "seed": cf.seed,
            "counts": {m: rep.count(m) for m in (PHI_N, PHI_W, PHI_E)},
            "degenerate_replicates": {PHI_W: rep.degenerate_phi_w,
                                      PHI_E: rep.degenerate_phi_e},
            "truncated_variances": {PHI_E: rep.truncated_phi_e},
            "degenerate_windows": rep.degenerate_windows,
            "all_degenerate_datasets": {PHI_W: rep.all_degenerate_phi_w,
                                        PHI_E: rep.all_degenerate_phi_e},
            "rates": {m: rep.rate(m) for m in (PHI_N, PHI_W, PHI_E)},
            "mc_se": {m: rep.mc_se(m) for m in (PHI_N, PHI_W, PHI_E)},
            "error_count": rep.error_count,
        })

    outputs = [
        _write(os.path.join(out, "suite.csv"), "\n".join(lines) + "\n"),
        _write(os.path.join(out, "suite.json"),
               render_json({"suite": suite, "cells": cells_json})),
    ]
    extra = {"cell_runtimes_seconds": [rep.runtime for rep in reports]}
    _write_manifest(out, "simulate", res, seed, outputs, started, extra)
    return 0


def cmd_validate_weights(res: Resolver) -> int:
    started = time.perf_counter()
    scheme_name = res.get("scheme")
    m = res.get("m", int)
    draws = res.get("draws", int, 100_000)
    seed = res.seed()
    out = res.out_dir()

    scheme = scheme_from_name(scheme_name)
    rng = substream(seed, f"validate-weights;{scheme.kind};m={m}", 0, "weights")
    report = validate_weight_conditions(scheme, m, draws, rng)

    outputs = [_write(os.path.join(out, "weights.json"), render_json(report))]
    _write_manifest(out, "validate-weights", res, seed, outputs, started)
    return 0


# ---------------------------------------------------------------------------
# parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cifboot",
        description="Cumulative incidence estimation, resampling-based "
                    "two-sample tests, and their Monte Carlo suites.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--seed", type=int, help="master RNG seed")
        p.add_argument("--out", help="output directory (default .)")

    est = sub.add_parser("estimate", help="estimate CIFs and survival from a CSV")
    common(est)
    est.add_argument("--input", help="input CSV path")
    est.add_argument("--entry-col", dest="entry_col")
    est.add_argument("--exit-col", dest="exit_col")
    est.add_argument("--status-col", dest="status_col")
    est.add_argument("--horizon", type=float,
                     help="check the at-risk set up to this time")

    tst = sub.add_parser("test", help="two-sample cumulative incidence test")
    common(tst)
    tst.add_argument("--group1", help="group 1 CSV path")
    tst.add_argument("--group2", help="group 2 CSV path")
    tst.add_argument("--t1", type=float)
    tst.add_argument("--t2", type=float)
    tst.add_argument("--alpha", type=float)
    tst.add_argument("--B", type=int, dest="B")
    tst.add_argument("--method", choices=("asymptotic", "efron", "wild"))
    tst.add_argument("--rho", help="weight table, e.g. 0:1,0.75:2")
    tst.add_argument("--entry-col", dest="entry_col")
    tst.add_argument("--exit-col", dest="exit_col")
    tst.add_argument("--status-col", dest="status_col")
    tst.add_argument("--save-replicates", action="store_true",
                     dest="save_replicates",
                     help="also write the studentized replicates CSV")

    sim = sub.add_parser("simulate", help="run a Monte Carlo scenario suite")
    common(sim)
    sim.add_argument("--suite", choices=("table1", "table2"))
    sim.add_argument("--nsim", type=int, dest="nsim")
    sim.add_argument("--B", type=int, dest="B")
    sim.add_argument("--alpha", type=float)
    sim.add_argument("--t1", type=float)
    sim.add_argument("--t2", type=float)
    sim.add_argument("--cells", help='scenario filter, e.g. "c=0.5,n=100"')
    sim.add_argument("--workers", type=int)

    val = sub.add_parser("validate-weights",
                         help="Monte Carlo check of weight moment conditions")
    common(val)
    val.add_argument("--scheme")
    val.add_argument("--m", type=int)
    val.add_argument("--draws", type=int)

    return parser


_DISPATCH = {
    "estimate": cmd_estimate,
    "test": cmd_test,
    "simulate": cmd_simulate,
    "validate-weights": cmd_validate_weights,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config) if args.config else {}
        return _DISPATCH[args.command](Resolver(args, cfg))
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
