"""The commands reproduce the committed outputs byte for byte.

``tests/golden/`` holds two left-truncated, censored, tied samples and the
outputs of ``test`` (asymptotic, Efron and wild, and Efron on a truncated
window with an off-grid rho breakpoint), ``estimate``,
``validate-weights`` (Efron and wild-normal) and one table1 ``simulate``
cell, written by ``make_golden.py``.  Each command runs here through
``main()`` and must give the same files, manifest.json aside (it holds
timings).  A changed file is a changed output; regenerate only on purpose.
"""

import os

import pytest

from make_golden import COMMANDS, GOLDEN, run

CASES = [(name, argv, name) for name, argv in COMMANDS.items()]
# the simulate tallies do not depend on the worker count
CASES.append(("simulate-workers-2", COMMANDS["simulate"][:-1] + ("2",),
              "simulate"))


@pytest.mark.parametrize("name, argv, expected", CASES,
                         ids=[case[0] for case in CASES])
def test_outputs_match_golden(tmp_path, name, argv, expected):
    out = str(tmp_path / name)
    run(name, argv, out)
    want = os.path.join(GOLDEN, expected)
    assert sorted(os.listdir(out)) == sorted(os.listdir(want))
    for file in os.listdir(want):
        with open(os.path.join(out, file), "rb") as got, \
                open(os.path.join(want, file), "rb") as ref:
            assert got.read() == ref.read(), f"{expected}/{file}"
