import json
import math

import numpy as np
import pytest

import cifboot as cb
from cifboot.cli import (_COMMANDS, build_parser, format_float, load_config,
                         main, parse_rho, render_json)

HAND_CSV = "entry,exit,status\n0,1,1\n0,2,2\n0,3,1\n"
GROUP2_CSV = "entry,exit,status\n0,1.5,2\n0,2.5,1\n0,4,0\n"


def write_samples(tmp_path):
    g1 = tmp_path / "g1.csv"
    g2 = tmp_path / "g2.csv"
    g1.write_text(HAND_CSV)
    g2.write_text(GROUP2_CSV)
    return str(g1), str(g2)


# ------------------------------------------------------------- serialization

def test_format_float():
    assert format_float(1 / 3) == "0.33333333333333331"
    assert format_float(0.0) == "0"
    assert format_float(float("nan")) == "NaN"
    assert format_float(float("inf")) == "Infinity"
    assert format_float(float("-inf")) == "-Infinity"
    # 17 significant digits round-trip any double
    for x in (math.pi, 2 / 3, 1e-300, 123456.789):
        assert float(format_float(x)) == x


def test_render_json_shapes():
    out = render_json({"a": True, "b": [1, 2.5], "c": None, "d": {}, "e": []})
    parsed = json.loads(out)
    assert parsed == {"a": True, "b": [1, 2.5], "c": None, "d": {}, "e": []}
    # bools must not degrade to ints
    assert '"a": true' in out
    assert out.endswith("\n")
    with pytest.raises(TypeError):
        render_json({"x": object()})


def test_render_json_is_deterministic():
    obj = {"z": 1 / 3, "arr": [float("inf"), 0.1], "n": 7}
    assert render_json(obj) == render_json(obj)
    assert "0.33333333333333331" in render_json(obj)


# ------------------------------------------------------------- option plumbing

def test_parse_rho():
    rho = parse_rho("0:1,0.75:2")
    assert rho(0.5) == 1.0 and rho(0.75) == 2.0
    assert parse_rho("0:3.5")(10.0) == 3.5
    for bad in ("1:2", "0:1,0.5", "0:1,0.5:2,0.5:3", "0:x", "0:1,nan:2",
                "0:1,1:2,nan:3"):
        with pytest.raises(cb.DataError):
            parse_rho(bad)


def test_load_config(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# comment\nt2 = 2.0\nB=199   # trailing\nexit-col=stop\n\n")
    keys = ("t2", "B", "exit_col", "seed", "out")
    cfg = load_config(str(path), keys)
    assert cfg == {"t2": "2.0", "B": "199", "exit_col": "stop"}

    bad = tmp_path / "bad.cfg"
    bad.write_text("novalue\n")
    with pytest.raises(cb.DataError, match="key=value"):
        load_config(str(bad), keys)
    bad.write_text("bogus_key=1\n")
    with pytest.raises(cb.DataError, match="unknown config keys"):
        load_config(str(bad), keys)
    with pytest.raises(cb.DataError, match="cannot read"):
        load_config(str(tmp_path / "missing.cfg"), keys)


def test_load_config_refuses_a_key_given_twice(tmp_path):
    # the later line used to win without a word; both spellings of a key
    # are the same key
    path = tmp_path / "run.cfg"
    keys = ("m", "save_replicates")
    for text, line in (("m=8\n# again\nm=20\n", 3),
                       ("save-replicates=true\nsave_replicates=false\n", 2)):
        path.write_text(text)
        key = text.split("=", 1)[0].replace("-", "_")
        with pytest.raises(cb.DataError,
                           match=rf"run.cfg:{line}: config key {key} "
                                 rf"already set on line 1"):
            load_config(str(path), keys)


def test_load_config_skips_a_byte_order_mark(tmp_path):
    # Notepad writes one; it used to glue itself to the first key
    path = tmp_path / "run.cfg"
    path.write_bytes(b"\xef\xbb\xbfseed=3\nB=19\n")
    assert load_config(str(path), ("seed", "B")) == {"seed": "3", "B": "19"}


def test_load_config_names_an_undecodable_line(tmp_path, capsys):
    path = tmp_path / "latin1.cfg"
    path.write_bytes(b"seed=3\n# caf\xe9\n")
    with pytest.raises(cb.DataError,
                       match=r"line 2: invalid UTF-8 byte 0xe9 in .*latin1"):
        load_config(str(path), ("seed",))
    g1, g2 = write_samples(tmp_path)
    assert main(["test", "--group1", g1, "--group2", g2, "--config",
                 str(path), "--out", str(tmp_path / "o")]) == 2
    assert "line 2: invalid UTF-8 byte 0xe9" in capsys.readouterr().err


def test_cli_config_rejects_keys_of_other_commands(tmp_path, capsys):
    # a key another command owns would be read by nobody and leave no
    # trace in the manifest, so it fails like an unknown key
    g1, g2 = write_samples(tmp_path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"group1={g1}\ngroup2={g2}\nscheme=wild-normal\n"
                   "nsim=5\nm=7\n")
    assert main(["test", "--config", str(cfg), "--seed", "1",
                 "--out", str(tmp_path / "o1")]) == 2
    assert "unknown config keys: m, nsim, scheme" in capsys.readouterr().err

    cfg.write_text("suite=table1\nnsim=2\nB=9\ncells=n=50,l1=0,l2=0\n"
                   "method=efron\n")
    assert main(["simulate", "--config", str(cfg), "--seed", "1",
                 "--workers", "1", "--out", str(tmp_path / "o2")]) == 2
    assert "unknown config keys: method" in capsys.readouterr().err


def test_cli_allowed_values_checked_for_flags(tmp_path, capsys):
    g1, g2 = write_samples(tmp_path)
    assert main(["test", "--group1", g1, "--group2", g2, "--method",
                 "jackknife", "--seed", "1", "--out", str(tmp_path / "o1")]) == 2
    assert "unknown method 'jackknife'" in capsys.readouterr().err
    assert main(["simulate", "--suite", "table3", "--seed", "1",
                 "--out", str(tmp_path / "o2")]) == 2
    assert "unknown suite 'table3'" in capsys.readouterr().err


def test_cli_bad_config_value(tmp_path, capsys):
    g1, g2 = write_samples(tmp_path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"group1={g1}\ngroup2={g2}\nB=many\n")
    assert main(["test", "--config", str(cfg), "--seed", "1",
                 "--out", str(tmp_path / "o")]) == 2
    assert "config key B='many' is not a valid int" in capsys.readouterr().err


def _command_argvs(tmp_path):
    g1, g2 = write_samples(tmp_path)
    return {
        "estimate": ["estimate", "--input", g1],
        "test": ["test", "--group1", g1, "--group2", g2, "--t2", "3"],
        "simulate": ["simulate", "--suite", "table1", "--nsim", "2",
                     "--B", "9", "--cells", "n=50,l1=0,l2=0",
                     "--workers", "1"],
        "validate-weights": ["validate-weights", "--scheme", "efron",
                             "--m", "4", "--draws", "10000"],
    }


def test_cli_manifest_config_holds_command_options(tmp_path):
    columns = {"entry_col", "exit_col", "status_col"}
    expected = {
        "estimate": {"input", "horizon"} | columns,
        "test": {"group1", "group2", "method", "rho", "t1", "t2", "alpha",
                 "B", "save_replicates"} | columns,
        "simulate": {"suite", "workers", "nsim", "B", "alpha", "t1", "t2",
                     "cells"},
        "validate-weights": {"scheme", "m", "draws"},
    }
    for command, argv in _command_argvs(tmp_path).items():
        out = tmp_path / command
        assert main(argv + ["--seed", "3", "--out", str(out)]) == 0
        man = json.loads((out / "manifest.json").read_text())
        assert set(man["config"]) == expected[command] | {"seed", "out"}
        assert man["config"]["seed"] == man["seed"] == 3
        assert man["config"]["out"] == str(out)


def test_cli_negative_seed_rejected(tmp_path, capsys):
    cfg = tmp_path / "seed.cfg"
    cfg.write_text("seed=-5\n")
    for command, argv in _command_argvs(tmp_path).items():
        for k, how in enumerate((["--seed", "-5"], ["--config", str(cfg)])):
            out = tmp_path / f"{command}-{k}"
            assert main(argv + how + ["--out", str(out)]) == 2, (command, how)
            assert "seed must be >= 0, got -5" in capsys.readouterr().err
            assert not (out / "manifest.json").exists()


# ------------------------------------------------------------- estimate

def test_estimate_writes_step_csvs(tmp_path):
    g1, _ = write_samples(tmp_path)
    out = tmp_path / "res"
    assert main(["estimate", "--input", g1, "--out", str(out),
                 "--seed", "1"]) == 0

    # digit strings pinned to the actual float arithmetic: km(1) is
    # 1 - 1/3, one ulp above the nearest double to 2/3
    cif1 = (out / "cif1.csv").read_text().splitlines()
    assert cif1 == ["time,value", "0,0",
                    "1,0.33333333333333331", "3,0.66666666666666674"]
    km = (out / "km.csv").read_text().splitlines()
    assert km == ["time,value", "0,1", "1,0.66666666666666674",
                  "2,0.33333333333333337", "3,0"]
    cif2 = (out / "cif2.csv").read_text().splitlines()
    assert cif2 == ["time,value", "0,0", "2,0.33333333333333337"]

    man = json.loads((out / "manifest.json").read_text())
    assert man["command"] == "estimate"
    assert man["seed"] == 1
    assert set(man["outputs"]) == {"cif1.csv", "cif2.csv", "km.csv"}
    assert man["versions"]["cifboot"] == cb.__version__


def test_estimate_all_censored_single_rows(tmp_path):
    path = tmp_path / "cens.csv"
    path.write_text("entry,exit,status\n0,1,0\n0,2,0\n")
    out = tmp_path / "res"
    assert main(["estimate", "--input", str(path), "--out", str(out),
                 "--seed", "1"]) == 0
    assert (out / "cif1.csv").read_text() == "time,value\n0,0\n"
    assert (out / "km.csv").read_text() == "time,value\n0,1\n"


def test_estimate_horizon_warning(tmp_path, capsys):
    g1, _ = write_samples(tmp_path)
    out = tmp_path / "res"
    assert main(["estimate", "--input", g1, "--out", str(out),
                 "--seed", "1", "--horizon", "5"]) == 0
    assert "at-risk set empty after t=3" in capsys.readouterr().err
    man = json.loads((out / "manifest.json").read_text())
    assert man["positive_risk"]["ok"] is False
    assert man["positive_risk"]["zero_after"] == 3.0


def test_estimate_empty_inputs(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    assert main(["estimate", "--input", str(empty), "--out",
                 str(tmp_path / "o1"), "--seed", "1"]) == 2
    assert "no observations" in capsys.readouterr().err

    headed = tmp_path / "headed.csv"
    headed.write_text("entry,exit,status\n")
    assert main(["estimate", "--input", str(headed), "--out",
                 str(tmp_path / "o2"), "--seed", "1"]) == 2
    assert "no observations" in capsys.readouterr().err


def test_estimate_missing_file(tmp_path, capsys):
    assert main(["estimate", "--input", str(tmp_path / "nope.csv"),
                 "--seed", "1"]) == 2
    assert "error" in capsys.readouterr().err



def test_estimate_undecodable_input(tmp_path, capsys):
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"exit,status\n1,1\n2,\xe9\n")
    assert main(["estimate", "--input", str(path), "--seed", "1",
                 "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "line 3: invalid UTF-8 byte 0xe9" in err and "latin1.csv" in err


def test_estimate_one_column_in_two_roles(tmp_path, capsys):
    path = tmp_path / "g.csv"
    path.write_text(HAND_CSV)
    assert main(["estimate", "--input", str(path), "--seed", "1",
                 "--exit-col", "status", "--out", str(tmp_path / "out")]) == 2
    assert "three different columns" in capsys.readouterr().err

def test_estimate_missing_required_option(capsys):
    assert main(["estimate", "--seed", "1"]) == 2
    assert "--input" in capsys.readouterr().err


# ------------------------------------------------------------- test command

def test_cli_asymptotic_result(tmp_path):
    g1, g2 = write_samples(tmp_path)
    out = tmp_path / "res"
    assert main(["test", "--group1", g1, "--group2", g2, "--t2", "3",
                 "--out", str(out), "--seed", "5"]) == 0
    result = json.loads((out / "result.json").read_text())
    assert result["method"] == "asymptotic"
    assert result["decision"] in ("reject", "retain")
    assert result["reject"] == (result["studentized"] > result["critical_value"])
    assert result["interval"] == [0.0, 3.0]
    assert "B" not in result


def test_cli_efron_rerun_is_byte_identical(tmp_path):
    g1, g2 = write_samples(tmp_path)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["test", "--group1", g1, "--group2", g2, "--t2", "3",
                     "--method", "efron", "--B", "99", "--seed", "7",
                     "--out", str(out), "--save-replicates"]) == 0
        outs.append(out)
    assert (outs[0] / "result.json").read_bytes() \
        == (outs[1] / "result.json").read_bytes()
    assert (outs[0] / "replicates.csv").read_bytes() \
        == (outs[1] / "replicates.csv").read_bytes()
    reps = (outs[0] / "replicates.csv").read_text().splitlines()
    assert reps[0] == "t_stud_star" and len(reps) == 100

    result = json.loads((outs[0] / "result.json").read_text())
    assert result["method"] == "efron"
    assert result["scheme"] == "efron"
    assert result["B"] == 99
    assert 1 / 100 <= result["p_value"] <= 1.0


def test_cli_wild_method(tmp_path):
    g1, g2 = write_samples(tmp_path)
    out = tmp_path / "res"
    assert main(["test", "--group1", g1, "--group2", g2, "--t2", "3",
                 "--method", "wild", "--B", "49", "--seed", "3",
                 "--out", str(out)]) == 0
    result = json.loads((out / "result.json").read_text())
    assert result["method"] == "wild"
    assert result["scheme"] == "wild-normal"


def test_cli_test_truncation_warning(tmp_path, capsys):
    g1, g2 = write_samples(tmp_path)
    out = tmp_path / "res"
    assert main(["test", "--group1", g1, "--group2", g2, "--t2", "9",
                 "--out", str(out), "--seed", "5"]) == 0
    assert "window truncated" in capsys.readouterr().err
    result = json.loads((out / "result.json").read_text())
    assert result["truncated"] is True
    assert result["interval"][1] == 3.0


def test_cli_test_numerical_failure_exit_code(tmp_path, capsys):
    cens = tmp_path / "cens.csv"
    cens.write_text("entry,exit,status\n0,1,0\n0,2,0\n0,3,0\n")
    assert main(["test", "--group1", str(cens), "--group2", str(cens),
                 "--t2", "3", "--method", "efron", "--B", "19",
                 "--seed", "2", "--out", str(tmp_path / "o")]) == 3
    assert "numerical failure" in capsys.readouterr().err


def test_cli_config_file_and_flag_precedence(tmp_path):
    g1, g2 = write_samples(tmp_path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"group1={g1}\ngroup2={g2}\nt2=2.0\nB=49\nmethod=efron\n")
    out = tmp_path / "res"
    assert main(["test", "--config", str(cfg), "--t2", "3.0",
                 "--seed", "11", "--out", str(out)]) == 0
    man = json.loads((out / "manifest.json").read_text())
    # the flag wins over the config file, the config over the default
    assert man["config"]["t2"] == 3.0
    assert man["config"]["B"] == 49
    assert man["config"]["method"] == "efron"
    result = json.loads((out / "result.json").read_text())
    assert result["interval"] == [0.0, 3.0]
    assert result["B"] == 49


def test_cli_save_replicates_from_config_and_in_manifest(tmp_path, capsys):
    # the switch is an option like any other: a config key (true/false) and
    # a manifest entry, with the flag winning over the file
    g1, g2 = write_samples(tmp_path)
    base = ["test", "--group1", g1, "--group2", g2, "--t2", "3",
            "--method", "efron", "--B", "19", "--seed", "4"]
    runs = {"cfg_true": ("true", []), "cfg_false": ("false", []),
            "flag_wins": ("false", ["--save-replicates"]), "absent": (None, [])}
    for name, (value, flags) in runs.items():
        out = tmp_path / name
        argv = base + ["--out", str(out)] + flags
        if value is not None:
            cfg = tmp_path / f"{name}.cfg"
            cfg.write_text(f"save_replicates={value}\n")
            argv += ["--config", str(cfg)]
        assert main(argv) == 0
        man = json.loads((out / "manifest.json").read_text())
        saved = name in ("cfg_true", "flag_wins")
        assert man["config"]["save_replicates"] is saved
        assert (out / "replicates.csv").exists() is saved
        assert ("replicates.csv" in man["outputs"]) is saved
    assert (tmp_path / "cfg_true" / "replicates.csv").read_bytes() \
        == (tmp_path / "flag_wins" / "replicates.csv").read_bytes()

    cfg = tmp_path / "bad.cfg"
    cfg.write_text("save-replicates=yes\n")
    assert main(base + ["--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "save_replicates='yes' is not a valid flag" in capsys.readouterr().err


def test_cli_bad_method_via_config(tmp_path, capsys):
    g1, g2 = write_samples(tmp_path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"group1={g1}\ngroup2={g2}\nmethod=jackknife\n")
    assert main(["test", "--config", str(cfg), "--seed", "1",
                 "--out", str(tmp_path / "o")]) == 2
    assert "unknown method" in capsys.readouterr().err


def test_cli_rho_flag(tmp_path):
    g1, g2 = write_samples(tmp_path)
    out1 = tmp_path / "r1"
    out2 = tmp_path / "r2"
    for out, rho in ((out1, "0:1"), (out2, "0:2")):
        assert main(["test", "--group1", g1, "--group2", g2, "--t2", "3",
                     "--rho", rho, "--seed", "5", "--out", str(out)]) == 0
    a = json.loads((out1 / "result.json").read_text())
    b = json.loads((out2 / "result.json").read_text())
    assert b["statistic"] == 2 * a["statistic"]
    assert b["studentized"] == a["studentized"]


def test_cli_non_finite_rho_rejected(tmp_path, capsys):
    g1, g2 = write_samples(tmp_path)
    for method in ("asymptotic", "efron", "wild"):
        for rho in ("0:inf", "0:1,0.5:inf", "0:1,nan:2"):
            out = tmp_path / "o"
            assert main(["test", "--group1", g1, "--group2", g2, "--t2", "3",
                         "--method", method, "--B", "19", "--rho", rho,
                         "--seed", "5", "--out", str(out)]) == 2
            assert "error: rho" in capsys.readouterr().err
            assert not (out / "result.json").exists()


# ------------------------------------------------------------- simulate

def test_cli_simulate_table1_cell(tmp_path):
    outs = []
    for name, workers in (("w1", "1"), ("w2", "2")):
        out = tmp_path / name
        assert main(["simulate", "--suite", "table1", "--nsim", "6",
                     "--B", "19", "--seed", "4", "--cells",
                     "n1=50,n2=100,l1=0,l2=0", "--workers", workers,
                     "--out", str(out)]) == 0
        outs.append(out)
    # worker count must not leak into any reproducible output
    assert (outs[0] / "suite.csv").read_bytes() == (outs[1] / "suite.csv").read_bytes()
    assert (outs[0] / "suite.json").read_bytes() == (outs[1] / "suite.json").read_bytes()

    lines = (outs[0] / "suite.csv").read_text().splitlines()
    assert lines[0] == "n1,n2,l1,l2,phi_n,phi_W,phi_E"
    assert len(lines) == 2
    assert lines[1].startswith("50,100,0,0,")

    suite = json.loads((outs[0] / "suite.json").read_text())
    assert suite["suite"] == "table1"
    cell = suite["cells"][0]
    assert cell["n_sim"] == 6 and cell["B"] == 19 and cell["seed"] == 4
    assert set(cell["counts"]) == {"phi_n", "phi_W", "phi_E"}
    assert set(cell["degenerate_replicates"]) == {"phi_W", "phi_E"}
    assert set(cell["truncated_variances"]) == {"phi_E"}
    assert set(cell["all_degenerate_datasets"]) == {"phi_W", "phi_E"}
    assert cell["degenerate_windows"] <= cell["error_count"]
    # the wild block stops early; B = 19 fits one checkpoint
    assert cell["replicates_drawn"] == {"phi_W": 6 * 19}
    man = json.loads((outs[0] / "manifest.json").read_text())
    assert len(man["cell_runtimes_seconds"]) == 1


def test_cli_simulate_table2_filter(tmp_path, capsys):
    out = tmp_path / "res"
    assert main(["simulate", "--suite", "table2", "--nsim", "4", "--B", "19",
                 "--seed", "4", "--cells", "c=0.5,n=100",
                 "--workers", "1", "--out", str(out)]) == 0
    lines = (out / "suite.csv").read_text().splitlines()
    assert lines[0] == "c,n1,n2,l1,l2,phi_n,phi_W,phi_E"
    assert len(lines) == 3
    assert all(row.startswith("0.5,100,100,") for row in lines[1:])
    # progress goes to stderr, one line per cell; stdout only names outputs
    captured = capsys.readouterr()
    progress = captured.err.splitlines()
    assert [line.split(":")[0] for line in progress] == ["cell 1/2 done",
                                                         "cell 2/2 done"]
    assert all(line.endswith(" datasets/s") and ": 4 datasets, " in line
               for line in progress)
    assert all(line.startswith("wrote ") for line in captured.out.splitlines())


def test_cli_simulate_rejects_worker_counts_below_one(tmp_path, capsys):
    for workers in ("0", "-2"):
        out = tmp_path / f"w{workers}"
        assert main(["simulate", "--suite", "table1", "--nsim", "4",
                     "--B", "19", "--cells", "n=50,l1=0", "--seed", "1",
                     "--workers", workers, "--out", str(out)]) == 2
        assert f"workers must be >= 1, got {workers}" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()


def test_cli_simulate_empty_filter(tmp_path, capsys):
    assert main(["simulate", "--suite", "table1", "--cells", "n1=7",
                 "--seed", "1", "--out", str(tmp_path / "o")]) == 2
    assert "matched no scenarios" in capsys.readouterr().err


# ------------------------------------------------------------- validate-weights

def test_cli_validate_weights(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["validate-weights", "--scheme", "efron", "--m", "8",
                     "--draws", "10000", "--seed", "21",
                     "--out", str(out)]) == 0
        outs.append(out)
    assert (outs[0] / "weights.json").read_bytes() \
        == (outs[1] / "weights.json").read_bytes()
    report = json.loads((outs[0] / "weights.json").read_text())
    assert report["scheme"] == "efron"
    assert report["m"] == 8
    assert report["centered_variance"]["target"] == 1.0


def test_cli_validate_weights_rejects_parametrized_scheme(tmp_path, capsys):
    assert main(["validate-weights", "--scheme", "iid-weighted", "--m", "8",
                 "--seed", "1", "--out", str(tmp_path / "o")]) == 2
    # the bare name builds no scheme: iid-weighted needs an eta block
    # sampler and C_eta, which only the Python API can pass
    assert "iid-weighted scheme needs eta_sampler and c_eta" \
        in capsys.readouterr().err


def test_cli_validate_weights_rejects_wild_custom(tmp_path, capsys):
    assert main(["validate-weights", "--scheme", "wild-custom", "--m", "8",
                 "--seed", "1", "--out", str(tmp_path / "o")]) == 2
    assert "unknown weight scheme 'wild-custom'" in capsys.readouterr().err


# ------------------------------------------------------------- misc

def test_cli_refused_runs_leave_no_output_path(tmp_path, capsys):
    # the output directory is made with the first output, and every input
    # check comes before that
    g1, g2 = write_samples(tmp_path)
    refused = {
        "iid-weighted": ["validate-weights", "--scheme", "iid-weighted",
                         "--m", "8"],
        "jackknife": ["test", "--group1", g1, "--group2", g2,
                      "--method", "jackknife"],
        "horizon": ["estimate", "--input", g1, "--horizon", "-1"],
    }
    for name, argv in refused.items():
        out = tmp_path / "out" / name
        assert main(argv + ["--seed", "1", "--out", str(out)]) == 2, name
        assert "error: " in capsys.readouterr().err
        assert not out.exists(), name
    assert not (tmp_path / "out").exists()


def test_cli_out_naming_a_file_is_refused_before_any_work(tmp_path, capsys):
    # the directory is made late, but a file in its place is found early
    out = tmp_path / "taken"
    out.write_text("keep")
    assert main(["simulate", "--suite", "table1", "--cells", "n=50,l1=0",
                 "--nsim", "2", "--B", "19", "--workers", "1", "--seed", "1",
                 "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert f"output directory {out} is a file" in captured.err
    assert "cell 1/" not in captured.err
    assert out.read_text() == "keep"


def test_cli_alpha_too_small_for_a_normal_quantile(tmp_path, capsys):
    # 1 - alpha rounds to 1 for alpha <= 2**-54, where the normal quantile
    # is undefined: an input error, not a traceback
    g1, g2 = write_samples(tmp_path)
    runs = [["test", "--group1", g1, "--group2", g2, "--method", method,
             "--B", "19"] for method in ("asymptotic", "efron", "wild")]
    runs.append(["simulate", "--suite", "table1", "--cells", "n=50,l1=0",
                 "--nsim", "2", "--B", "19", "--workers", "1"])
    for k, argv in enumerate(runs):
        out = tmp_path / f"o{k}"
        assert main(argv + ["--alpha", "1e-20", "--seed", "1",
                            "--out", str(out)]) == 2, argv
        assert "alpha must be in (0, 1) and above 2**-54, got 1e-20" \
            in capsys.readouterr().err
        assert not out.exists()


def test_cli_version():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def _help(parser, argv, capsys):
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(argv)
    assert exc.value.code == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("command", list(_COMMANDS))
def test_one_command_parser_gives_that_command_the_full_help(command, capsys):
    # main builds only the named command's options; its help is unchanged
    full = _help(build_parser(), [command, "--help"], capsys)
    assert _help(build_parser(command), [command, "--help"], capsys) == full
    assert "--config" in full


def test_top_level_help_lists_every_command(capsys):
    text = _help(build_parser("--help"), ["--help"], capsys)
    assert text == _help(build_parser(), ["--help"], capsys)
    assert all(command in text for command in _COMMANDS)


def test_main_reads_sys_argv_without_an_argv(tmp_path, monkeypatch, capsys):
    # the installed cifboot script calls main() with no arguments
    g1, _ = write_samples(tmp_path)
    out = tmp_path / "res"
    monkeypatch.setattr("sys.argv", ["cifboot", "estimate", "--input", g1,
                                     "--seed", "1", "--out", str(out)])
    assert main() == 0
    assert (out / "km.csv").exists()
    monkeypatch.setattr("sys.argv", ["cifboot", "bogus"])
    with pytest.raises(SystemExit) as exc:
        main()
    assert exc.value.code == 2
    assert "invalid choice: 'bogus'" in capsys.readouterr().err


def test_cli_fresh_seed_recorded(tmp_path):
    g1, _ = write_samples(tmp_path)
    out = tmp_path / "res"
    assert main(["estimate", "--input", g1, "--out", str(out)]) == 0
    man = json.loads((out / "manifest.json").read_text())
    assert isinstance(man["seed"], int)
