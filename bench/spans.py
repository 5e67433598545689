"""Span recorder for the traced run, installed from outside the package.

The benchmark wraps the public functions named in ``TARGETS`` in every
``cifboot`` module namespace that holds them, so calls made through
``from .x import f`` bindings are caught too.  Each call records one span
(name, start, end, parent span, operation id); the operation id is the CLI
command, or the Monte Carlo dataset once the simulator opens that dataset's
data stream.  Spans are kept in typed arrays in memory and written out once
at the end.  A target that no longer exists is reported as missing, not as
a failure.
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array

import numpy as np

# (module, candidate function names in preference order, span name).  The
# weight generator is looked up under its planned batched name first.
TARGETS = (
    ("cifboot.cli", ("main",), "cli.main"),
    ("cifboot.data", ("ingest_csv",), "data.ingest_csv"),
    ("cifboot.data", ("compile_panel",), "data.compile_panel"),
    ("cifboot.estimators", ("plugin_tables",), "estimators.plugin_tables"),
    ("cifboot.twosample", ("test_phi_n",), "twosample.test_phi_n"),
    ("cifboot.twosample", ("test_phi_star",), "twosample.test_phi_star"),
    ("cifboot.twosample", ("prepare_test",), "twosample.prepare_test"),
    ("cifboot.twosample", ("replicate_block",), "twosample.replicate_block"),
    ("cifboot.simulation", ("run_scenario",), "simulation.run_scenario"),
    ("cifboot.simulation", ("draw_panel",), "simulation.draw_panel"),
    ("cifboot.rng", ("substream",), "rng.substream"),
    ("cifboot.resampling", ("validate_weight_conditions",),
     "resampling.validate_weight_conditions"),
    ("cifboot.resampling", ("draw_weights", "gen_weights"),
     "resampling.weight_generation"),
)


class Tracer:
    """Records spans while installed; ``install``/``uninstall`` bracket a
    traced pass so untraced passes run the original functions."""

    def __init__(self, rows_by_path: dict[str, int] | None = None):
        self.rows_by_path = rows_by_path if rows_by_path is not None else {}
        self.names: list[str] = []
        self._name_idx: dict[str, int] = {}
        self.ops: list[str] = []
        self.name = array("i")
        self.op = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, float] = {}
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._cmd_op = -1
        self._op = -1
        self._commands = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _intern(self, name: str) -> int:
        idx = self._name_idx.get(name)
        if idx is None:
            idx = self._name_idx[name] = len(self.names)
            self.names.append(name)
        return idx

    def _new_op(self, label: str) -> int:
        self.ops.append(label)
        return len(self.ops) - 1

    def add(self, key: str, value: float) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + value

    def _wrap(self, fn, span: str):
        rec = self
        name_idx = self._intern(span)
        hook = _HOOKS.get(span)
        sig = inspect.signature(fn) if hook else None

        def traced(*args, **kwargs):
            bound = sig.bind(*args, **kwargs).arguments if sig else None
            idx = len(rec.start)
            label = hook.label(rec, bound) if hook else None
            if span == "cli.main" and not rec._stack:
                rec._commands += 1
                rec._cmd_op = rec._op = rec._new_op(f"cmd{rec._commands}")
            rec.name.append(rec._intern(f"{span}.{label}") if label else name_idx)
            rec.op.append(rec._op)
            rec.parent.append(rec._stack[-1] if rec._stack else -1)
            rec.end.append(0.0)
            rec._stack.append(idx)
            rec.start.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.end[idx] = time.perf_counter()
                rec._stack.pop()
            if hook:
                hook.after(rec, bound, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        self.missing = []
        modules = [m for k, m in sys.modules.items()
                   if (k == "cifboot" or k.startswith("cifboot.")) and m]
        for mod_name, candidates, span in TARGETS:
            home = sys.modules.get(mod_name)
            fn = None
            for cand in candidates:
                fn = getattr(home, cand, None) if home else None
                if callable(fn):
                    break
            if not callable(fn):
                self.missing.append(span)
                continue
            wrapper = self._wrap(fn, span)
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is fn:
                        self._patches.append((mod, attr, fn))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._patches):
            setattr(mod, attr, fn)
        self._patches.clear()

    # -- analysis ----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "op": np.frombuffer(self.op, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def self_times(self) -> dict[str, tuple[float, int]]:
        """Span name -> (total self seconds, calls).  Self time is a span's
        duration minus the durations of its direct children."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = np.zeros(dur.shape[0])
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        self_t = dur - child
        out = {}
        for idx, name in enumerate(self.names):
            sel = a["name"] == idx
            out[name] = (float(self_t[sel].sum()), int(sel.sum()))
        return out

    def dataset_latencies(self) -> np.ndarray:
        """Seconds from one dataset's data-stream draw to the next (or to the
        end of its scenario): the per-dataset latency of the Monte Carlo
        loop, including loop overhead between traced calls."""
        a = self.arrays()
        scen = self._name_idx.get("simulation.run_scenario")
        data = self._name_idx.get("rng.substream.data")
        if scen is None or data is None:
            return np.empty(0)
        out = []
        for s in np.flatnonzero(a["name"] == scen):
            starts = a["start"][(a["name"] == data) & (a["parent"] == s)]
            if starts.size:
                edges = np.append(np.sort(starts), a["end"][s])
                out.append(np.diff(edges))
        return np.concatenate(out) if out else np.empty(0)

    def save(self, path: str) -> None:
        np.savez(path, names=np.array(self.names), ops=np.array(self.ops),
                 **self.arrays())


class _Hook:
    def label(self, rec: Tracer, bound: dict) -> str | None:
        return None

    def after(self, rec: Tracer, bound: dict, result) -> None:
        pass


class _ReplicateBlock(_Hook):
    def label(self, rec, bound):
        kind = getattr(bound.get("scheme"), "kind", None)
        return "efron" if kind == "efron" else "wild"

    def after(self, rec, bound, result):
        kind = self.label(rec, bound)
        b = int(bound.get("B", 0))
        rec.add(f"rb.{kind}.entry_reps",
                b * int(getattr(bound.get("pooled"), "size", 0)))
        rec.add("rb.reps", b)
        rec.add("rb.useful", b - int(getattr(result, "degenerate", 0)))
        rec.add("rb.truncated", int(getattr(result, "truncated", 0)))


class _Substream(_Hook):
    def label(self, rec, bound):
        role = bound.get("role")
        if role == "data":
            cmd = rec.ops[rec._cmd_op] if rec._cmd_op >= 0 else "cmd?"
            rec._op = rec._new_op(f"{cmd}/dataset{bound.get('replicate')}")
        return role


class _RunScenario(_Hook):
    def after(self, rec, bound, result):
        rec._op = rec._cmd_op
        rec.add("sim.errors", int(getattr(result, "error_count", 0)))


class _IngestCsv(_Hook):
    def after(self, rec, bound, result):
        rec.add("ingest.rows", rec.rows_by_path.get(str(bound.get("path")), 0))


_HOOKS = {
    "twosample.replicate_block": _ReplicateBlock(),
    "rng.substream": _Substream(),
    "simulation.run_scenario": _RunScenario(),
    "data.ingest_csv": _IngestCsv(),
}
