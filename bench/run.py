"""cifboot benchmark: run one workload through ``cifboot.cli.main``.

    python3 bench/run.py --workload mc-table1 --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  Set-up (import, input generation from ``--seed``, reference
values and a reduced warm-up pass) is repeated ``SETUP_ROUNDS`` times and
its median reported as ``setup_s``.  Then full passes of the workload's
commands run in-process with one worker (one BLAS thread) until
``--seconds`` have elapsed.  Every command's outputs are checked; a command
that raises, exits non-zero or fails a check counts as failed.

End-to-end times are process CPU seconds (user + system): on a shared
virtual machine the wall clock also counts the time the host takes the
CPU away, which moved wall-clock medians by 10-15% between runs of the same
code.  Wall-clock times are printed too, under the headline metric names.

With ``--trace 0`` the last stdout line carries the end-to-end metrics.
With ``--trace 1`` untraced and traced passes alternate, and the last line
carries the per-layer metrics computed from the traced passes' spans.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import dataclasses
import gc
import io
import json
import os
import platform
import resource
import shutil
import sys
import time
from statistics import median

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORK = os.path.join(BENCH_DIR, "_work")
SETUP_ROUNDS = 3

# glibc raises its mmap and trim thresholds as a process frees large blocks,
# so the same command took between ~10k and ~140k page faults from pass to
# pass, and 0.58 s or 0.80 s with them.  Pinning the mmap threshold at the
# 32 MiB ceiling of that adjustment and switching trimming off puts every
# command in the state a long-running process grows into: freed blocks are
# reused, not returned to the kernel and faulted in again.
MMAP_THRESHOLD = 32 * 1024 * 1024
TRIM_THRESHOLD = 1024 * 1024 * 1024


def pin_allocator() -> dict:
    try:
        libc = ctypes.CDLL("libc.so.6")
        ok = (libc.mallopt(-3, MMAP_THRESHOLD) == 1     # M_MMAP_THRESHOLD
              and libc.mallopt(-1, TRIM_THRESHOLD) == 1)  # M_TRIM_THRESHOLD
    except (OSError, AttributeError):
        ok = False
    if not ok:
        return {"thresholds": "glibc default (dynamic)"}
    return {"mmap_threshold": MMAP_THRESHOLD, "trim_threshold": TRIM_THRESHOLD}


def machine_record(malloc: dict) -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = {}
    try:
        cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": cfg.get("name"), "version": cfg.get("version")}
    except (TypeError, KeyError) as exc:  # numpy < 2 has no mode="dicts"
        blas = {"name": f"unknown ({type(exc).__name__})"}
    blas["threads"] = _blas_threads()
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "malloc": malloc,
    }


def _blas_threads():
    """OpenBLAS thread count, read from the library numpy loaded."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {ln.split()[-1] for ln in fh if "openblas" in ln.lower()}
    except OSError:
        libs = set()
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def run_command(cli_main, cmd, outdir: str) -> tuple[float, float, str | None]:
    """Run one command in-process; return (wall seconds, CPU seconds, error
    or None).  CPU time is the process's user + system time."""
    os.makedirs(outdir, exist_ok=True)
    argv = list(cmd.argv) + ["--out", outdir]
    sink = io.StringIO()
    err = None
    gc.collect()  # garbage left by the previous command is not this one's cost
    start = time.perf_counter()
    cpu_start = time.process_time()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli_main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a crash is a failed operation, not a bench error
        code = f"{type(exc).__name__}: {exc}"
    cpu = time.process_time() - cpu_start
    elapsed = time.perf_counter() - start
    if code != 0:
        err = f"{cmd.label}: exit {code}: {sink.getvalue().strip()[-300:]}"
    return elapsed, cpu, err


def warm_variant(cmd, overrides: dict[str, str]):
    """The command with the workload's reduced sizes substituted."""
    argv = list(cmd.argv)
    for opt, val in overrides.items():
        if opt in argv:
            argv[argv.index(opt) + 1] = val
    return dataclasses.replace(cmd, argv=tuple(argv))


class Runner:
    """Runs passes of a workload's commands, checks outputs and keeps the
    tallies.  Only the CLI calls are timed; input generation, reference
    values and checks happen between them."""

    def __init__(self, workload, cli_main, outroot: str):
        self.wl = workload
        self.cli_main = cli_main
        self.outroot = outroot
        self.times: dict[str, list[float]] = {}
        self.units: dict[str, int] = {}
        self.cpus: list[float] = []    # per pass, CPU seconds
        self.light: list[float] = []   # every light command's CPU seconds
        self.heavy: list[float] = []   # per pass: summed heavy CPU seconds
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def run(self, cmds, replay_of: dict[str, bytes] | None = None):
        """One pass; returns its wall time and each command's output bytes.
        With ``replay_of``, outputs must equal that earlier pass byte for
        byte."""
        wall = cpu_total = heavy = 0.0
        outputs = {}
        for cmd in cmds:
            outdir = os.path.join(self.outroot, cmd.label)
            shutil.rmtree(outdir, ignore_errors=True)
            elapsed, cpu, err = run_command(self.cli_main, cmd, outdir)
            self.attempted += 1
            errs = [err] if err else self._check(cmd, outdir, outputs, replay_of)
            if errs:
                self.failed += 1
                self.errors.extend(errs)
            self.times.setdefault(cmd.label, []).append(elapsed)
            self.units[cmd.label] = cmd.units
            if cmd.light:
                self.light.append(cpu)
            else:
                heavy += cpu
            wall += elapsed
            cpu_total += cpu
        self.cpus.append(cpu_total)
        self.heavy.append(heavy)
        return wall, outputs

    def _check(self, cmd, outdir, outputs, replay_of) -> list[str]:
        try:
            with open(os.path.join(outdir, cmd.output), "rb") as fh:
                outputs[cmd.label] = fh.read()
            errs = self.wl.check(cmd, outdir)
        except (OSError, KeyError, TypeError, ValueError) as exc:
            return [f"{cmd.label}: unreadable output: {exc!r}"]
        if replay_of is not None and replay_of.get(cmd.label) != outputs[cmd.label]:
            errs.append(f"{cmd.label}: traced replay's {cmd.output} differs "
                        f"from the untraced run")
        return errs


def end_to_end(runner: Runner, setup_s: float) -> dict:
    units = sum(runner.units.values())
    return {
        "setup_s": (setup_s, "s"),
        "work_per_cpu_s": (median([units / c for c in runner.cpus]), "1/s"),
        "light_cmd_cpu_s": (median(runner.light), "s"),
        "heavy_cmd_cpu_s": (median(runner.heavy), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "MB"),
    }


def per_layer(tracer, untraced: list[float], traced: list[float]) -> dict:
    import numpy as np

    st = tracer.self_times()
    c = tracer.counters
    n_traced = len(traced)

    def ratio(a, b):
        return a / b if b else 0.0

    def tot(prefix):
        hits = [v for k, v in st.items() if k == prefix or k.startswith(prefix + ".")]
        return sum(t for t, _ in hits), sum(n for _, n in hits)

    def per_call_ms(prefix):
        return 1e3 * ratio(*tot(prefix))

    def calls(prefix):
        return tot(prefix)[1] / n_traced

    lat = 1e3 * tracer.dataset_latencies()

    def pct(q):
        return float(np.percentile(lat, q)) if lat.size else 0.0

    rb = "twosample.replicate_block"
    overhead = median(traced) / median(untraced) - 1.0
    all_self = sum(t for t, _ in st.values()) / n_traced
    return {
        f"{rb}.efron.ms": (per_call_ms(f"{rb}.efron"), "ms"),
        f"{rb}.wild.ms": (per_call_ms(f"{rb}.wild"), "ms"),
        f"{rb}.calls": (calls(rb), "count"),
        f"{rb}.efron.ns_per_entry_rep":
            (1e9 * ratio(tot(f"{rb}.efron")[0], c.get("rb.efron.entry_reps")), "ns"),
        f"{rb}.wild.ns_per_entry_rep":
            (1e9 * ratio(tot(f"{rb}.wild")[0], c.get("rb.wild.entry_reps")), "ns"),
        f"{rb}.useful_ratio": (ratio(c.get("rb.useful"), c.get("rb.reps")), "ratio"),
        "twosample.truncated_variances": (c.get("rb.truncated", 0) / n_traced, "count"),
        "twosample.prepare_test.ms": (per_call_ms("twosample.prepare_test"), "ms"),
        "twosample.prepare_test.calls": (calls("twosample.prepare_test"), "count"),
        "data.ingest_csv.ms": (per_call_ms("data.ingest_csv"), "ms"),
        "data.ingest_csv.rows_per_s":
            (ratio(c.get("ingest.rows", 0), tot("data.ingest_csv")[0]), "1/s"),
        "data.compile_panel.ms": (per_call_ms("data.compile_panel"), "ms"),
        "estimators.plugin_tables.ms": (per_call_ms("estimators.plugin_tables"), "ms"),
        "simulation.draw_panel.ms": (per_call_ms("simulation.draw_panel"), "ms"),
        "simulation.draw_panel.calls": (calls("simulation.draw_panel"), "count"),
        "simulation.loop.self_ms": (per_call_ms("simulation.run_scenario"), "ms"),
        "simulation.error_datasets": (c.get("sim.errors", 0) / n_traced, "count"),
        "simulation.dataset_ms.p50": (pct(50), "ms"),
        "simulation.dataset_ms.p99": (pct(99), "ms"),
        "simulation.dataset_ms.samples": (int(lat.size), "count"),
        "rng.substream.ms": (per_call_ms("rng.substream"), "ms"),
        "rng.substream.calls": (calls("rng.substream"), "count"),
        "resampling.validate_weight_conditions.ms":
            (per_call_ms("resampling.validate_weight_conditions"), "ms"),
        # per CLI command, so it survives a move from per-vector to batched calls
        "resampling.weight_generation.ms":
            (1e3 * ratio(tot("resampling.weight_generation")[0], tot("cli.main")[1]), "ms"),
        "cli.self_ms": (per_call_ms("cli.main"), "ms"),
        "trace.overhead_share": (overhead, "ratio"),
        "trace.accounted_share":
            (ratio(all_self, (1.0 + overhead) * median(untraced)), "ratio"),
    }


def print_breakdown(tracer, traced: list[float], units: int) -> None:
    """Self time per layer (module) per traced pass, and per work unit."""
    layers: dict[str, float] = {}
    for name, (t, _) in tracer.self_times().items():
        layer = name.split(".", 1)[0]
        layers[layer] = layers.get(layer, 0.0) + t
    total = sum(layers.values()) or 1.0
    n = len(traced)
    print(f"layer self time per traced pass ({n} passes, median traced pass "
          f"{1e3 * median(traced):.1f} ms, {units} work units per pass):")
    for layer, t in sorted(layers.items(), key=lambda kv: -kv[1]):
        print(f"  {layer:12s} {1e3 * t / n:10.2f} ms/pass  "
              f"{1e3 * t / n / units:9.4f} ms/unit  {t / total:6.1%}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "cifboot", "__init__.py")):
        print(f"error: no cifboot sources under {ROOT}/src", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, BENCH_DIR)
    # one worker means one thread: the workloads' matrix products are too
    # small to gain from a second BLAS thread, and its spin-waiting would be
    # charged to the CPU-time metrics.  Set before numpy is imported.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    malloc = pin_allocator()
    import cifboot.cli
    import_cpu = time.process_time()  # since process start, interpreter included

    def cli_main(argv):
        # looked up per call so the traced run's wrapper is the one called
        return cifboot.cli.main(argv)

    from spans import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r} "
              f"(choose from {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2

    rundir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    shutil.rmtree(rundir, ignore_errors=True)
    try:
        return _run(args, cli_main, import_cpu, malloc, rundir, WORKLOADS, Tracer)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)


def _run(args, cli_main, import_cpu, malloc, rundir, workloads, tracer_cls) -> int:
    print("machine: " + json.dumps(machine_record(malloc)))

    # set-up, in CPU seconds: import (once per process), then SETUP_ROUNDS
    # rounds of input generation, reference values and a reduced warm-up pass
    setups = []
    warm_errors = []
    for k in range(SETUP_ROUNDS):
        t0 = time.process_time()
        wl = workloads[args.workload](args.seed)
        indir = os.path.join(rundir, f"setup{k}")
        os.makedirs(indir)
        for cmd in wl.pass_commands(0, indir):
            *_, err = run_command(cli_main, warm_variant(cmd, wl.warm_overrides),
                                  os.path.join(indir, "warm", cmd.label))
            if err:
                warm_errors.append(err)
        setups.append(time.process_time() - t0)
        shutil.rmtree(indir, ignore_errors=True)
    setup_s = import_cpu + median(setups)

    runner = Runner(wl, cli_main, os.path.join(rundir, "out"))
    runner.errors.extend(warm_errors)
    tracer = tracer_cls(wl.rows) if args.trace else None
    untraced, traced = [], []
    deadline = time.perf_counter() + args.seconds
    k = 0
    while True:
        indir = os.path.join(rundir, f"pass{k}")
        os.makedirs(indir)
        cmds = wl.pass_commands(k, indir)
        wall, outputs = runner.run(cmds)
        if tracer:
            untraced.append(wall)
            tracer.install()
            try:
                wall, _ = runner.run(cmds, replay_of=outputs)
            finally:
                tracer.uninstall()
            traced.append(wall)
        shutil.rmtree(indir, ignore_errors=True)
        k += 1
        if time.perf_counter() >= deadline:
            break

    if tracer:
        metrics = per_layer(tracer, untraced, traced)
        print_breakdown(tracer, traced, sum(runner.units.values()))
        os.makedirs(WORK, exist_ok=True)
        tracer.save(os.path.join(WORK, f"spans-{args.workload}.npz"))
        named = {}
        if tracer.missing:
            print("missing layers: " + ", ".join(tracer.missing))
    else:
        metrics = end_to_end(runner, setup_s)
        named = {"setup_s": metrics["setup_s"], "peak_rss_mb": metrics["peak_rss_mb"],
                 **wl.named_metrics(runner.times, runner.units)}

    failed = runner.failed + bool(warm_errors)
    attempted = runner.attempted + bool(warm_errors)
    named["failed_share"] = (failed / attempted, "ratio")
    for err in runner.errors[:20]:
        print(f"check failed: {err}", file=sys.stderr)
    print(f"passes: {k}  commands: {runner.attempted}")
    for name, (value, unit) in named.items():
        print(f"{name}: {value:.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
