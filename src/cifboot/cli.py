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
import dataclasses
import io
import json
import math
import os
import platform
import sys
import time

import numpy as np

from . import __version__
from .data import (DataError, check_count, check_positive_risk,
                   compile_panel, ingest_csv, read_utf8)
from .estimators import aalen_johansen, kaplan_meier
from .resampling import (EFRON, WILD_NORMAL, WeightScheme,
                         validate_weight_conditions)
from .rng import fresh_seed, substream
from .simulation import PHI_E, PHI_N, PHI_W, run_scenario, suite_configs
from .stepfun import StepFunction
from .twosample import NumericalError, TestConfig, TestResult, test_phi_n, \
    test_phi_star

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
    # the output directory is made here, so a refused run leaves none behind
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
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
# options: one table drives the parser, the config keys, the casts and defaults

_REQUIRED = object()
_METHODS = ("asymptotic", "efron", "wild")
_COLUMNS = ("entry_col", "exit_col", "status_col")


def flag(text: str) -> bool:
    """A switch's config-file value: true or false."""
    if text not in ("true", "false"):
        raise ValueError(text)
    return text == "true"


# name -> (type, default, help); a callable default is drawn at resolve time,
# and a ``flag`` option is a store-true switch on the command line
_OPTIONS = {
    "seed": (int, fresh_seed, "master RNG seed, >= 0 (drawn fresh if omitted)"),
    "out": (str, ".", "output directory"),
    "input": (str, _REQUIRED, "input CSV path"),
    "entry_col": (str, "entry", "entry-time column name"),
    "exit_col": (str, "exit", "exit-time column name"),
    "status_col": (str, "status", "status column name"),
    "horizon": (float, None, "check the at-risk set up to this time"),
    "group1": (str, _REQUIRED, "group 1 CSV path"),
    "group2": (str, _REQUIRED, "group 2 CSV path"),
    "method": (str, "asymptotic", "critical value: " + ", ".join(_METHODS)),
    "rho": (str, None, "weight table, e.g. 0:1,0.75:2"),
    "t1": (float, 0.0, "window start"),
    "t2": (float, 1.5, "window end"),
    "alpha": (float, 0.05, "test level"),
    "B": (int, 999, "bootstrap replicates"),
    "suite": (str, _REQUIRED, "scenario grid: table1 or table2"),
    "nsim": (int, 1000, "datasets per cell"),
    "cells": (str, None, 'scenario filter, e.g. "c=0.5,n=100"'),
    "workers": (int, lambda: os.cpu_count() or 1,
                "worker processes (default: CPU count)"),
    "scheme": (str, _REQUIRED, "weight scheme, e.g. efron or wild-normal"),
    "m": (int, _REQUIRED, "weight vector length"),
    "draws": (int, 100_000, "Monte Carlo draws"),
    "save_replicates": (flag, False,
                        "also write the studentized replicates CSV"),
}


def load_config(path: str, keys) -> dict[str, str]:
    """Read a flat key=value config file ('#' comments, blank lines ok),
    decoded as :func:`~cifboot.data.ingest_csv` decodes a CSV.

    Only ``keys`` are accepted, each at most once; any other key, or a key
    given twice (also as its dashed and underscored spellings), is an error.
    """
    try:
        text = read_utf8(path)
    except OSError as exc:
        raise DataError(f"cannot read config file: {exc}") from None
    out, seen = {}, {}
    for lineno, raw in enumerate(io.StringIO(text), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, val = line.partition("=")
        if not sep:
            raise DataError(
                f"{path}:{lineno}: expected key=value, got {line!r}")
        key = key.strip().replace("-", "_")
        if key in seen:
            raise DataError(f"{path}:{lineno}: config key {key} "
                            f"already set on line {seen[key]}")
        out[key], seen[key] = val.strip(), lineno
    unknown = set(out) - set(keys)
    if unknown:
        raise DataError(f"unknown config keys: {', '.join(sorted(unknown))}")
    return out


def resolve_options(args: argparse.Namespace, keys,
                    cfg: dict[str, str]) -> dict[str, object]:
    """Resolve ``keys`` in the order flag > config file > default.

    Also checks the seed and that ``out`` is not a file, before any work.
    """
    opts = {}
    for key in keys:
        cast, default, _ = _OPTIONS[key]
        val = getattr(args, key)
        if val is None and key in cfg:
            try:
                val = cast(cfg[key])
            except ValueError:
                raise DataError(f"config key {key}={cfg[key]!r} is not a "
                                f"valid {cast.__name__}") from None
        if val is None:
            if default is _REQUIRED:
                raise DataError(f"missing required option --{key.replace('_', '-')}")
            val = default() if callable(default) else default
        opts[key] = val
    check_count("seed", opts["seed"], 0)
    if os.path.isfile(opts["out"]):
        raise DataError(f"output directory {opts['out']} is a file")
    return opts


def _write_manifest(command: str, opts: dict, outputs: list[str],
                    started: float, extra: dict) -> None:
    man = {
        "command": command,
        "config": opts,
        "seed": opts["seed"],
        "versions": {
            "cifboot": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
        "runtime_seconds": time.perf_counter() - started,
        "outputs": [os.path.basename(p) for p in outputs],
        **extra,
    }
    _write(os.path.join(opts["out"], "manifest.json"), render_json(man))


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
    if not all(b > a for a, b in zip(times, times[1:])):
        raise DataError("rho table times must be strictly increasing")
    return StepFunction(np.asarray(times[1:]), np.asarray(values[1:]),
                        initial_value=values[0])


# ---------------------------------------------------------------------------
# commands

def _load_sample(path: str, opts: dict):
    # a zero-byte file has no header to complain about either
    if os.path.exists(path) and os.path.getsize(path) == 0:
        raise DataError(f"no observations in {path}")
    sample = ingest_csv(path, **{key: opts[key] for key in _COLUMNS})
    if len(sample) == 0:
        raise DataError(f"no observations in {path}")
    return sample


def cmd_estimate(opts: dict):
    out = opts["out"]
    panel = compile_panel(_load_sample(opts["input"], opts))
    # the horizon check can refuse the run, so it comes before any output
    extra = {}
    if opts["horizon"] is not None:
        report = check_positive_risk(panel, opts["horizon"])
        extra["positive_risk"] = {**dataclasses.asdict(report), "ok": report.ok}
        if not report.ok:
            print(f"warning: at-risk set empty after t={report.zero_after} "
                  f"(horizon {report.horizon})", file=sys.stderr)

    outputs = [
        _write(os.path.join(out, "cif1.csv"), _step_csv(aalen_johansen(panel, 1))),
        _write(os.path.join(out, "cif2.csv"), _step_csv(aalen_johansen(panel, 2))),
        _write(os.path.join(out, "km.csv"), _step_csv(kaplan_meier(panel))),
    ]
    return outputs, extra


# result.json keys in output order; the bootstrap ones only for bootstrap tests
_RESULT_KEYS = ("method", "decision", "reject", "statistic", "variance",
                "studentized", "critical_value", "p_value", "alpha",
                "interval", "truncated", "warning", "vn_zero")
_BOOTSTRAP_KEYS = ("B", "scheme", "degenerate_replicates",
                   "truncated_variances")


def result_dict(result: TestResult) -> dict:
    keys = _RESULT_KEYS + (_BOOTSTRAP_KEYS if result.B is not None else ())
    return {key: getattr(result, key) for key in keys}


def cmd_test(opts: dict):
    method, seed, out = opts["method"], opts["seed"], opts["out"]
    if method not in _METHODS:
        raise DataError(f"unknown method {method!r}")

    config = TestConfig(
        t1=opts["t1"],
        t2=opts["t2"],
        rho=parse_rho(opts["rho"]) if opts["rho"] else None,
        alpha=opts["alpha"],
        B=opts["B"],
        scheme=WeightScheme(EFRON if method == "efron" else WILD_NORMAL),
    )
    panel1 = compile_panel(_load_sample(opts["group1"], opts))
    panel2 = compile_panel(_load_sample(opts["group2"], opts))

    if method == "asymptotic":
        result = test_phi_n(panel1, panel2, config)
    else:
        rng = substream(seed, f"test;{method};B={config.B}", 0, "weights")
        result = test_phi_star(panel1, panel2, config, rng=rng)
    if result.warning:
        print(f"warning: {result.warning}", file=sys.stderr)

    outputs = [_write(os.path.join(out, "result.json"),
                      render_json(result_dict(result)))]
    if opts["save_replicates"] and result.replicates is not None:
        lines = ["t_stud_star"] + [format_float(float(v))
                                   for v in result.replicates]
        outputs.append(_write(os.path.join(out, "replicates.csv"),
                              "\n".join(lines) + "\n"))
    return outputs, {}


def cmd_simulate(opts: dict):
    suite, out = opts["suite"], opts["out"]
    configs = suite_configs(
        suite,
        n_sim=opts["nsim"],
        B=opts["B"],
        seed=opts["seed"],
        alpha=opts["alpha"],
        interval=(opts["t1"], opts["t2"]),
        cells=opts["cells"],
    )
    if not configs:
        raise DataError("the cell filter matched no scenarios")

    reports = []
    for cf in configs:
        reports.append(run_scenario(cf, workers=opts["workers"]))
        print(f"cell {len(reports)}/{len(configs)} done: {cf.n_sim} datasets, "
              f"{cf.n_sim / reports[-1].runtime:.1f} datasets/s", file=sys.stderr)

    with_c = suite == "table2"
    header = ("c," if with_c else "") + "n1,n2,l1,l2,phi_n,phi_W,phi_E"
    lines = [header]
    cells_json = []
    for rep in reports:
        cf = rep.config
        row = [str(cf.n1), str(cf.n2), format_float(cf.censor_rates[0]),
               format_float(cf.censor_rates[1]),
               *map(format_float, rep.rates.values())]
        if with_c:
            row.insert(0, format_float(cf.c_value))
        lines.append(",".join(row))
        cells_json.append({
            "scenario_id": cf.scenario_id,
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
            "replicates_drawn": {PHI_W: rep.replicates_drawn_phi_w},
            "rates": rep.rates,
            "mc_se": {m: rep.mc_se(m) for m in (PHI_N, PHI_W, PHI_E)},
            "error_count": rep.error_count,
        })

    outputs = [
        _write(os.path.join(out, "suite.csv"), "\n".join(lines) + "\n"),
        _write(os.path.join(out, "suite.json"),
               render_json({"suite": suite, "cells": cells_json})),
    ]
    return outputs, {"cell_runtimes_seconds": [rep.runtime for rep in reports]}


def cmd_validate_weights(opts: dict):
    scheme, m = WeightScheme(opts["scheme"]), opts["m"]
    rng = substream(opts["seed"], f"validate-weights;{scheme.kind};m={m}", 0,
                    "weights")
    report = validate_weight_conditions(scheme, m, opts["draws"], rng)
    return [_write(os.path.join(opts["out"], "weights.json"),
                   render_json(report))], {}


# ---------------------------------------------------------------------------
# parser

# command -> (handler, help, option names in manifest order); each handler
# returns its output paths and the extra manifest entries
_COMMANDS = {
    "estimate": (cmd_estimate, "estimate CIFs and survival from a CSV",
                 ("input", "seed", "out", "horizon", *_COLUMNS)),
    "test": (cmd_test, "two-sample cumulative incidence test",
             ("group1", "group2", "method", "rho", "seed", "out",
              "t1", "t2", "alpha", "B", "save_replicates", *_COLUMNS)),
    "simulate": (cmd_simulate, "run a Monte Carlo scenario suite",
                 ("suite", "seed", "out", "workers", "nsim", "B", "alpha",
                  "t1", "t2", "cells")),
    "validate-weights": (cmd_validate_weights,
                         "Monte Carlo check of weight moment conditions",
                         ("scheme", "m", "draws", "seed", "out")),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command, listed in the help; only ``command``
    gets its options when given (the others would go unused)."""
    parser = argparse.ArgumentParser(
        prog="cifboot",
        description="Cumulative incidence estimation, resampling-based "
                    "two-sample tests, and their Monte Carlo suites.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, text, keys) in _COMMANDS.items():
        cmd = sub.add_parser(name, help=text)
        if command not in (None, name):
            continue
        cmd.add_argument("--config", help="flat key=value config file")
        for key in keys:
            cast, default, help_ = _OPTIONS[key]
            if default is _REQUIRED:
                help_ += " (required)"
            elif default is not None and not callable(default) and cast is not flag:
                help_ += f" (default {default})"
            # default None: an absent switch defers to the config file
            kind = (dict(action="store_true", default=None) if cast is flag
                    else dict(type=cast))
            cmd.add_argument("--" + key.replace("_", "-"), dest=key,
                             help=help_, **kind)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    handler, _, keys = _COMMANDS[args.command]
    started = time.perf_counter()
    try:
        cfg = load_config(args.config, keys) if args.config else {}
        opts = resolve_options(args, keys, cfg)
        outputs, extra = handler(opts)
        _write_manifest(args.command, opts, outputs, started, extra)
        return 0
    except (DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
