"""The three benchmark workloads: inputs, commands and output checks.

Each workload turns the benchmark seed into its inputs (files and CLI
arguments) and runs them as *passes* of CLI commands through
``cifboot.cli.main``.  Each command is marked light or heavy; see README.md for why each workload, cell and size
was chosen.  Checks read only the documented output files and never depend
on which random stream the bootstrap weights consume.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from statistics import NormalDist

import numpy as np

import reference

ALPHA = 0.05
Z_CRIT = NormalDist().inv_cdf(1.0 - ALPHA)


@dataclass(frozen=True)
class Command:
    label: str
    argv: tuple[str, ...]      # without --out
    output: str                # deterministic output file checked after the run
    units: int                 # work units it completes
    light: bool = False        # counts toward light_cmd_cpu_s, else heavy_cmd_cpu_s
    expect: dict = field(default_factory=dict, compare=False)  # reference values


def _seed_of(seed: int, role: int, k: int) -> int:
    """A CLI seed derived from the workload seed, distinct per role and pass."""
    ss = np.random.SeedSequence(seed, spawn_key=(role, k))
    return int(ss.generate_state(1)[0] % (2**31 - 1)) + 1


class Workload:
    """One workload.  Pass k gets fresh inputs derived from (seed, k), as a
    fresh CLI invocation would, so no pass can reuse another's results."""

    name = ""
    # option values replaced in the reduced warm-up pass
    warm_overrides: dict[str, str] = {}

    def __init__(self, seed: int):
        self.seed = seed
        self.rows: dict[str, int] = {}  # input CSV path -> data rows

    def pass_commands(self, k: int, workdir: str) -> tuple[Command, ...]:
        """Write pass k's inputs under ``workdir`` and return its commands,
        each with the reference values it is checked against."""
        raise NotImplementedError

    def check(self, cmd: Command, outdir: str) -> list[str]:
        """Failure messages for one command's outputs (empty when correct)."""
        return []

    def named_metrics(self, times: dict[str, list[float]],
                      units: dict[str, int]) -> dict:
        """The workload's headline metrics, wall-clock (informational)."""
        return {}


def _load(outdir: str, name: str) -> dict:
    with open(os.path.join(outdir, name)) as fh:
        return json.load(fh)


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


# ---------------------------------------------------------------------------
# mc-table1

def _binomial_band(n: int, p: float, tail: float = 1e-6) -> tuple[int, int]:
    """Counts k with P(X <= k) >= tail and P(X >= k) >= tail, X ~ Bin(n, p)."""
    pmf = [math.comb(n, k) * p**k * (1 - p) ** (n - k) for k in range(n + 1)]
    cdf = np.cumsum(pmf)
    lo = int(np.argmax(cdf >= tail))
    sf = np.cumsum(pmf[::-1])[::-1]  # P(X >= k)
    hi = int(np.flatnonzero(sf >= tail)[-1])
    return lo, hi


# (label, --cells filter, n, censoring rates, published (phi_W, phi_E) sizes)
MC_CELLS = (
    ("n50-uncensored", "n=50,l1=0,l2=0", 50, (0.0, 0.0), (0.053, 0.068)),
    ("n100-censored", "n=100,l1=1,l2=1", 100, (1.0, 1.0), (0.056, 0.062)),
)
MC_NSIM = 40
MC_B = 999


class McTable1(Workload):
    name = "mc-table1"
    warm_overrides = {"--nsim": "2"}

    def pass_commands(self, k, workdir):
        from cifboot.rng import substream
        from cifboot.simulation import suite_configs

        seed = _seed_of(self.seed, 1, k)
        cmds = []
        for i, (label, cells, n, rates, published) in enumerate(MC_CELLS):
            (cfg,) = suite_configs("table1", n_sim=MC_NSIM, B=MC_B, seed=seed,
                                   cells=cells)
            rejects = 0
            for r in range(MC_NSIM):
                rng = substream(seed, cfg.scenario_id, r, "data")
                g1 = reference.draw_group1(rng, n, rates[0])
                g2 = reference.draw_null_group2(rng, n, rates[1])
                res = reference.asymptotic_test(g1, g2, *cfg.interval, ALPHA)
                rejects += bool(res and res["reject"])
            argv = ("simulate", "--suite", "table1", "--workers", "1",
                    "--B", str(MC_B), "--nsim", str(MC_NSIM),
                    "--seed", str(seed), "--cells", cells)
            cmds.append(Command(label, argv, "suite.json", MC_NSIM, i == 0, {
                "n": n, "rates": rates, "published": published,
                "phi_n": rejects}))
        return tuple(cmds)

    def check(self, cmd, outdir):
        want = cmd.expect
        doc = _load(outdir, cmd.output)
        if len(doc.get("cells", [])) != 1:
            return [f"{cmd.label}: expected one cell in suite.json"]
        got = doc["cells"][0]
        errs = []
        if (got["n1"], got["n2"], tuple(got["censor_rates"]), got["n_sim"],
                got["B"]) != (want["n"], want["n"], want["rates"], cmd.units, MC_B):
            errs.append(f"{cmd.label}: cell settings differ from the request")
        counts = got["counts"]
        if counts["phi_n"] != want["phi_n"]:
            errs.append(f"{cmd.label}: phi_n count {counts['phi_n']} != "
                        f"reference {want['phi_n']}")
        for method, p in zip(("phi_W", "phi_E"), want["published"]):
            lo, hi = _binomial_band(cmd.units, p)
            if not lo <= counts[method] <= hi:
                errs.append(f"{cmd.label}: {method} count {counts[method]} "
                            f"outside binomial band [{lo}, {hi}] of {p}")
        return errs

    def named_metrics(self, times, units):
        per_pass = [sum(ts) for ts in zip(*times.values())]
        total = sum(units.values())
        return {"mc_datasets_per_s":
                (float(np.median([total / t for t in per_pass])), "1/s")}


# ---------------------------------------------------------------------------
# test-large

TEST_N = 20_000
TEST_B = 999
TEST_T2 = 1.5
# bootstrap critical values must fall within this distance of the normal
# quantile: about six Monte Carlo standard errors (0.067) of the rank-950
# order statistic of B = 999 standard normal replicates
CRIT_BAND = 0.4
# (label, method): the sub-second asymptotic command runs three times per
# pass, between the bootstrap ones, so its median rests on three times as
# many samples spread over the pass
TEST_PASS = (("asymptotic", "asymptotic"), ("efron", "efron"),
             ("asymptotic-2", "asymptotic"), ("wild", "wild"),
             ("asymptotic-3", "asymptotic"))


def _truncated_group(rng: np.random.Generator, n: int, group: int):
    """Left-truncated, censored competing-risks sample, times on a 1e-6
    grid so a few exit times tie.

    Half the subjects enter at 0, the rest uniformly in (0, 0.5); both
    models have constant all-cause hazards (1 and 2), so the residual
    lifetime after entry is exponential.  Group 1 has cause-1 hazard
    exp(-u), group 2 constant hazards 1 and 1: the Table-1 null boundary.
    """
    entry = np.where(rng.random(n) < 0.5, 0.0, rng.uniform(0.0, 0.5, n))
    entry = np.round(entry, 6)
    rate = 1.0 if group == 1 else 2.0
    t = entry + rng.standard_exponential(n) / rate
    p1 = np.exp(-t) if group == 1 else np.full(n, 0.5)
    cause = np.where(rng.random(n) < p1, 1, 2)
    c = entry + rng.standard_exponential(n) / 0.4
    observed = t <= c
    exit_ = np.maximum(np.round(np.where(observed, t, c), 6), entry + 1e-6)
    status = np.where(observed, cause, 0)
    return entry, exit_, status


class TestLarge(Workload):
    name = "test-large"
    warm_overrides = {"--B": "19"}

    def pass_commands(self, k, workdir):
        rng = np.random.default_rng(np.random.SeedSequence(self.seed,
                                                           spawn_key=(2, k)))
        groups = []
        paths = []
        for g in (1, 2):
            entry, exit_, status = _truncated_group(rng, TEST_N, g)
            lines = ["entry,exit,status"]
            lines += [f"{a:.6f},{b:.6f},{s}" for a, b, s in
                      zip(entry.tolist(), exit_.tolist(), status.tolist())]
            path = os.path.join(workdir, f"group{g}.csv")
            with open(path, "w") as fh:
                fh.write("\n".join(lines) + "\n")
            paths.append(path)
            self.rows[path] = TEST_N
            # the reference reads the same decimal text the program parses
            cols = np.array([ln.split(",") for ln in lines[1:]])
            groups.append((cols[:, 0].astype(float), cols[:, 1].astype(float),
                           cols[:, 2].astype(np.int64)))
        ref = reference.asymptotic_test(groups[0], groups[1], 0.0, TEST_T2, ALPHA)
        seed = str(_seed_of(self.seed, 2, k))
        return tuple(
            Command(label, ("test", "--group1", paths[0], "--group2", paths[1],
                            "--t2", str(TEST_T2), "--method", m,
                            "--B", str(TEST_B), "--seed", seed),
                    "result.json", 2 * TEST_N, m == "asymptotic", ref)
            for label, m in TEST_PASS)

    def check(self, cmd, outdir):
        res = _load(outdir, cmd.output)
        ref = cmd.expect
        errs = []
        asymptotic = cmd.light
        for key in ("statistic", "variance") + (("studentized",)
                                                if asymptotic else ()):
            if not _close(res[key], ref[key], 1e-9):
                errs.append(f"{cmd.label} {key} {res[key]!r} != "
                            f"reference {ref[key]!r}")
        if asymptotic:
            if res["reject"] != ref["reject"]:
                errs.append("asymptotic decision differs from the reference")
            if res["reject"] != (res["p_value"] < ALPHA):
                errs.append("asymptotic p-value disagrees with the decision")
            return errs
        if res.get("degenerate_replicates") != 0:
            errs.append(f"{cmd.label}: {res.get('degenerate_replicates')} "
                        f"degenerate replicates")
        if not abs(res["critical_value"] - Z_CRIT) <= CRIT_BAND:
            errs.append(f"{cmd.label}: critical value {res['critical_value']} "
                        f"outside {Z_CRIT:.3f} +- {CRIT_BAND}")
        if res["reject"] != (res["p_value"] <= ALPHA):
            errs.append(f"{cmd.label}: p-value disagrees with the decision")
        return errs

    def named_metrics(self, times, units):
        asym = [t for label, ts in times.items() if label.startswith("asymptotic")
                for t in ts]
        return {"test_asymptotic_s": (float(np.median(asym)), "s"),
                "test_efron_s": (float(np.median(times["efron"])), "s"),
                "test_wild_s": (float(np.median(times["wild"])), "s")}


# ---------------------------------------------------------------------------
# validate-weights

VAL_M = 100
VAL_DRAWS = 100_000


class ValidateWeights(Workload):
    name = "validate-weights"
    warm_overrides = {"--draws": "10000"}

    def pass_commands(self, k, workdir):
        seed = str(_seed_of(self.seed, 3, k))
        # wild-normal is the cheaper scheme, so it is the light command
        return tuple(
            Command(scheme, ("validate-weights", "--scheme", scheme,
                             "--m", str(VAL_M), "--draws", str(VAL_DRAWS),
                             "--seed", seed), "weights.json", VAL_DRAWS,
                    scheme == "wild-normal")
            for scheme in ("wild-normal", "efron"))

    def check(self, cmd, outdir):
        rep = _load(outdir, cmd.output)
        if (rep.get("scheme"), rep.get("m"), rep.get("draws")) != \
                (cmd.label, VAL_M, VAL_DRAWS):
            return [f"{cmd.label}: report settings differ from the request"]
        cv = rep["centered_variance"]
        target = (VAL_M - 1) / VAL_M
        if not abs(cv["estimate"] - target) <= 4.0 * cv["mc_se"]:
            return [f"{cmd.label}: centered variance {cv['estimate']} not "
                    f"within 4 MC standard errors ({cv['mc_se']}) of {target}"]
        return []

    def named_metrics(self, times, units):
        return {
            "validate_efron_draws_per_s":
                (float(np.median([VAL_DRAWS / t for t in times["efron"]])), "1/s"),
            "validate_wild_draws_per_s":
                (float(np.median([VAL_DRAWS / t for t in times["wild-normal"]])), "1/s"),
        }


WORKLOADS = {w.name: w for w in (McTable1, TestLarge, ValidateWeights)}
