"""The benchmark tracer's targets exist in the package.

``bench/spans.py`` wraps package functions by name and its hooks read some
of their parameters by name.  A rename would otherwise show up only in the
traced benchmark, as a missing layer or a zero cost.
"""

import importlib
import inspect
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"

# parameters the tracer's hooks read, by target function
HOOK_PARAMETERS = {
    ("cifboot.twosample", "replicate_block"): {"pooled", "scheme", "B"},
    ("cifboot.rng", "substream"): {"replicate", "role"},
    ("cifboot.data", "ingest_csv"): {"path"},
}


def _targets():
    # executed from source, so no bytecode cache is written under bench/
    namespace = {"__name__": "spans"}
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), namespace)
    return namespace["TARGETS"]


def test_every_span_target_resolves():
    resolved = set()
    for module_name, candidates, span in _targets():
        module = importlib.import_module(module_name)
        found = [c for c in candidates if callable(getattr(module, c, None))]
        assert found, f"{span}: none of {candidates} in {module_name}"
        resolved.add((module_name, found[0]))
    for target, params in HOOK_PARAMETERS.items():
        assert target in resolved
        module = importlib.import_module(target[0])
        fn = getattr(module, target[1])
        assert params <= set(inspect.signature(fn).parameters), target
