"""Write the golden inputs and outputs that ``test_golden.py`` compares.

Run from the root of a source checkout:

    PYTHONPATH=src python tests/make_golden.py

It writes two left-truncated, censored, tied samples (``group1.csv``, 300
rows; ``group2.csv``, 260 rows) under ``tests/golden/``, then runs each
command of ``COMMANDS`` through ``cifboot.cli.main`` and keeps its outputs in
a subdirectory named after it.  ``manifest.json`` holds timings, so it is not
kept.

The files are the standing byte-identity check of the commands' outputs.
Regenerating them changes that check; say why wherever the change is
recorded.
"""

from __future__ import annotations

import os
import shutil
import tempfile

import numpy as np

from cifboot.cli import main as cli_main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
GROUP1 = os.path.join(GOLDEN, "group1.csv")
GROUP2 = os.path.join(GOLDEN, "group2.csv")

_TEST = ("test", "--group1", GROUP1, "--group2", GROUP2, "--B", "199",
         "--seed", "2024", "--save-replicates", "--method")
_WEIGHTS = ("validate-weights", "--m", "20", "--draws", "10000",
            "--seed", "2024", "--scheme")
# output subdirectory -> the command's arguments, without --out
COMMANDS = {
    "test-asymptotic": (*_TEST, "asymptotic"),
    "test-efron": (*_TEST, "efron"),
    "test-wild": (*_TEST, "wild"),
    # both window clamps and a rho breakpoint between grid times
    "test-window": (*_TEST, "efron", "--t1", "0.2", "--t2", "50",
                    "--rho", "0:1,0.755:2"),
    "estimate": ("estimate", "--input", GROUP1, "--horizon", "1.0",
                 "--seed", "2024"),
    "validate-weights-efron": (*_WEIGHTS, "efron"),
    "validate-weights-wild-normal": (*_WEIGHTS, "wild-normal"),
    "simulate": ("simulate", "--suite", "table1", "--cells",
                 "n=50,l1=0.5,l2=0.5", "--nsim", "20", "--B", "99",
                 "--seed", "2024", "--workers", "1"),
}


def write_sample(path: str, n: int, p_cause1: float, rng) -> None:
    """n rows: half enter at 0, half at a U(0, 0.5) time; exits and entries
    on a 0.01 grid, so exit times tie; about a quarter censored."""
    entry = np.where(rng.random(n) < 0.5, 0.0, rng.uniform(0.0, 0.5, n))
    entry = np.round(entry, 2)
    exit_ = np.maximum(np.round(entry + rng.exponential(1.0, n), 2),
                       entry + 0.01)
    status = np.where(rng.random(n) < p_cause1, 1, 2)
    status[rng.random(n) < 0.25] = 0
    with open(path, "w") as fh:
        fh.write("entry,exit,status\n")
        for a, b, s in zip(entry, exit_, status):
            fh.write(f"{a:.2f},{b:.2f},{s}\n")


def run(name: str, argv, out: str) -> None:
    """Run one command with its outputs in ``out``; manifest.json dropped."""
    if cli_main([*argv, "--out", out]) != 0:
        raise SystemExit(f"{name}: command failed")
    os.remove(os.path.join(out, "manifest.json"))


def main() -> None:
    os.makedirs(GOLDEN, exist_ok=True)
    rng = np.random.default_rng(20241)
    write_sample(GROUP1, 300, 0.5, rng)
    write_sample(GROUP2, 260, 0.4, rng)
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in COMMANDS.items():
            run(name, argv, os.path.join(tmp, name))
            shutil.rmtree(os.path.join(GOLDEN, name), ignore_errors=True)
            shutil.copytree(os.path.join(tmp, name), os.path.join(GOLDEN, name))


if __name__ == "__main__":
    main()
