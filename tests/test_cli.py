import argparse
import contextlib
import io
import json
import math
import os
import re
import string
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import morreylab as m
from morreylab import aronsson, cli, solver
from morreylab.cli import main

NUM = r"-?\d\.\d{16}e[+-]\d+"


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    return header, rows


# --------------------------------------------------------------- beta-table

def test_beta_table_known_rows(tmp_path):
    rc = main(["beta-table", "--p-values", "3,4,8", "--out-dir", str(tmp_path)])
    assert rc == 0
    header, rows = read_csv(tmp_path / "beta_table.csv")
    assert header == ["p", "beta_p", "aperture_at_beta"]
    by_p = {row[0]: row for row in rows}
    assert abs(by_p[3.0][1] - 0.5773503) < 5e-8
    assert abs(by_p[4.0][1] - (-1.0 + 2.0 * math.sqrt(7.0)) / 9.0) < 1e-12
    assert all(abs(row[2] - 1.0) < 1e-10 for row in rows)
    betas = [row[1] for row in rows]
    assert betas == sorted(betas, reverse=True)


def test_beta_table_full_precision_format(tmp_path):
    main(["beta-table", "--p-values", "3,4", "--out-dir", str(tmp_path)])
    line = (tmp_path / "beta_table.csv").read_text().splitlines()[1]
    assert re.fullmatch(f"{NUM},{NUM},{NUM}", line)


def test_beta_table_rejects_bad_p(tmp_path):
    assert main(["beta-table", "--p-values", "1.5,4",
                 "--out-dir", str(tmp_path)]) == 1


def test_beta_table_deterministic(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    main(["beta-table", "--out-dir", str(d1)])
    main(["beta-table", "--out-dir", str(d2)])
    assert (d1 / "beta_table.csv").read_bytes() == (d2 / "beta_table.csv").read_bytes()


# ----------------------------------------------------------------- aronsson

def test_aronsson_by_kappa(tmp_path):
    rc = main(["aronsson", "--p", "4", "--kappa", "1.0",
               "--n-samples", "201", "--out-dir", str(tmp_path)])
    assert rc == 0
    header, rows = read_csv(tmp_path / "aronsson_profile.csv")
    assert header == ["theta", "phi", "f", "fprime", "g"]
    assert len(rows) == 201
    summary = json.loads((tmp_path / "aronsson_summary.json").read_text())
    assert summary["invariants"]["identity_max_abs_err"] < 1e-12
    assert summary["invariants"]["power_combination_rel_spread"] < 1e-10
    assert abs(summary["aperture_L"] - (2.0 * math.sqrt(0.6) - 1.0)) < 1e-12


def test_aronsson_by_aperture(tmp_path):
    rc = main(["aronsson", "--p", "4", "--L", "1.0", "--out-dir", str(tmp_path)])
    assert rc == 0
    summary = json.loads((tmp_path / "aronsson_summary.json").read_text())
    assert abs(summary["kappa"] - m.beta_p(4.0)) < 1e-10


@pytest.mark.parametrize("argv", [
    ["aronsson", "--p", "4"],                                  # neither
    ["aronsson", "--p", "4", "--kappa", "1", "--L", "1"],      # both
    ["aronsson", "--p", "4", "--kappa", "-1"],                 # bad kappa
    ["aronsson", "--p", "4", "--L", "-0.5"],                   # unattainable
    ["aronsson", "--p", "4", "--kappa", "1", "--threads", "2"],  # no such option
])
def test_aronsson_usage_errors(argv, tmp_path):
    assert main(argv + ["--out-dir", str(tmp_path)]) == 1


@pytest.mark.parametrize("L", ["100", "1000", "1e6"])
def test_aronsson_wide_aperture(L, tmp_path):
    rc = main(["aronsson", "--p", "4", "--L", L, "--out-dir", str(tmp_path)])
    assert rc == 0
    summary = json.loads((tmp_path / "aronsson_summary.json").read_text())
    assert abs(summary["aperture_L"] - float(L)) < 1e-12 * float(L)


# -------------------------------------------------------------------- solve

SOLVE_ARGS = ["solve", "--p", "4", "--r-min", "0.0625", "--r-max", "256",
              "--n-s", "97", "--n-phi", "17"]


def test_solve_and_analyze_pipeline(tmp_path):
    rc = main(SOLVE_ARGS + ["--out-dir", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "solve.field").exists()
    meta = json.loads((tmp_path / "solve.json").read_text())
    assert meta["converged"] is True
    assert (meta["u_min"], meta["u_max"]) == (0.0, 1.0)
    manifest = json.loads((tmp_path / "solve_manifest.json").read_text())
    assert set(manifest) == {"command", "parameters", "artifacts",
                             "wall_clock_seconds", "version", "numpy_version",
                             "scipy_version", "peak_rss_mb"}
    assert manifest["numpy_version"] == np.__version__
    assert manifest["peak_rss_mb"] > 0
    assert any(a.endswith("solve.field") for a in manifest["artifacts"])

    rc = main(["analyze", "--checkpoint", str(tmp_path / "solve"),
               "--out-dir", str(tmp_path)])
    assert rc == 0
    fit = json.loads((tmp_path / "fit_summary.json").read_text())
    assert abs(fit["beta_p"] - m.beta_p(4.0)) < 1e-12
    assert abs(fit["beta_hat"] - fit["beta_p"]) < 0.2
    assert fit["morrey"]["C_estimate"] > 0
    header, rows = read_csv(tmp_path / "decay_profile.csv")
    assert header == ["r", "S_r"]
    assert rows[0][0] == 1.0 and rows[0][1] == 1.0
    header, _ = read_csv(tmp_path / "gradient_profile.csv")
    assert header == ["r", "G_r"]


def test_solve_outputs_deterministic(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    main(SOLVE_ARGS + ["--out-dir", str(d1)])
    main(SOLVE_ARGS + ["--out-dir", str(d2)])
    assert (d1 / "solve.field").read_bytes() == (d2 / "solve.field").read_bytes()
    assert (d1 / "solve.json").read_bytes() == (d2 / "solve.json").read_bytes()


def test_solve_non_convergence_exit_code(tmp_path, monkeypatch):
    monkeypatch.setattr(solver, "_MAX_ITERS_PER_STAGE", 1)
    rc = main(SOLVE_ARGS + ["--out-dir", str(tmp_path),
                            "--grad-tol", "1e-30"])
    assert rc == 2
    assert (tmp_path / "solve.field").exists()   # partial outputs retained


def test_solve_reports_fallbacks_on_stderr(tmp_path, monkeypatch, capsys):
    # one failed factorization: a gradient step in stage 1, and the solve
    # still converges with exit code 0
    argv = ["solve", "--p", "4", "--r-min", "0.0625", "--r-max", "256",
            "--n-s", "49", "--n-phi", "17", "--out-dir", str(tmp_path)]
    factor, calls = solver.splu, []

    def fails_once(*args, **kw):
        calls.append(None)
        if len(calls) == 1:
            raise RuntimeError("Factor is exactly singular")
        return factor(*args, **kw)

    monkeypatch.setattr(solver, "splu", fails_once)
    assert main(argv) == 0
    assert capsys.readouterr().err.splitlines() == [
        "1 gradient-step fallback(s) in stage(s) 1 (eps=0.01)"]
    monkeypatch.undo()
    assert main(argv) == 0
    assert capsys.readouterr().err == ""


def test_solve_maximum_principle_violation_exit_code(tmp_path, capsys):
    # a converged field outside [0, 1] (coarse grid, large p) is a
    # numerical failure, with the outputs kept for inspection; this one
    # reaches u_min = -0.026 in [49, 2, 1, 1, 0] steps
    rc = main(["solve", "--p", "24", "--r-min", "0.015625", "--r-max", "4096",
               "--n-s", "97", "--n-phi", "17", "--out-dir", str(tmp_path)])
    assert rc == 2
    assert "discrete maximum principle violated" in capsys.readouterr().err
    meta = json.loads((tmp_path / "solve.json").read_text())
    assert meta["converged"] is True
    # every stage reaches grad_tol; none ends early on a stalled energy
    assert all(stage["converged"] for stage in meta["stages"])
    assert meta["u_min"] < 0.0 or meta["u_max"] > 1.0
    field, _ = m.load_field(tmp_path / "solve.field")
    assert (meta["u_min"], meta["u_max"]) == (field.values.min(),
                                              field.values.max())


def test_solve_large_p_coarse_grid_keeps_the_maximum_principle(tmp_path):
    # with the band Cholesky this solve ends in [29, 2, 1, 1, 0] steps with
    # u in [0, 1]; SuperLU's directions led it to u in [-2.62, 1.003]
    rc = main(["solve", "--p", "16", "--r-min", "0.0625", "--r-max", "256",
               "--n-s", "49", "--n-phi", "17", "--out-dir", str(tmp_path)])
    assert rc == 0
    meta = json.loads((tmp_path / "solve.json").read_text())
    assert meta["converged"] is True
    assert 0.0 <= meta["u_min"] and meta["u_max"] <= 1.0


def test_solve_usage_error(tmp_path):
    rc = main(["solve", "--p", "4", "--r-min", "0.5", "--r-max", "256",
               "--n-s", "96", "--n-phi", "16", "--out-dir", str(tmp_path)])
    assert rc == 1


@pytest.mark.parametrize("argv", [
    ["solve", "--p", "1.5"],
    ["solve", "--p", "2"],
    ["solve", "--p", "nan"],
    ["verify", "--p", "nan"],
    ["beta-table", "--p-values", "nan"],
])
def test_invalid_p_is_usage_error(argv, tmp_path, capsys):
    assert main(argv + ["--out-dir", str(tmp_path)]) == 1
    assert "usage error: p must be" in capsys.readouterr().err


SOLVE_49 = ["solve", "--p", "4", "--r-min", "0.0625", "--r-max", "256",
            "--n-s", "49", "--n-phi", "17"]


@pytest.mark.parametrize("flags", [
    ("--grad-tol", "inf"), ("--grad-tol", "nan"),
    ("--r-max", "inf"), ("--r-max", "nan"), ("--r-min", "nan"),
    # the schedule is retired from solve; a non-finite one still never runs
    ("--eps-schedule", "inf,1e-3"), ("--eps-schedule", "1e-2,nan"),
    # finite radii whose r**2 or r**-2 overflows
    ("--r-min", "0.015625", "--r-max", "4.784065733063811e+198",
     "--n-s", "112", "--n-phi", "9"),
    ("--r-min", repr(2.0**-660), "--r-max", "64", "--n-s", "667",
     "--n-phi", "9"),
], ids="-".join)
def test_non_finite_solve_parameter_is_usage_error(flags, tmp_path, capsys):
    with mock.patch.object(cli, "solve_extremal",
                           side_effect=AssertionError("solve was called")):
        rc = main(SOLVE_49 + list(flags) + ["--out-dir", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("usage error:")
    assert "Traceback" not in err


@pytest.mark.parametrize("key, value", [
    ("energy_rel_tol", 1e-12), ("max_iters", 100),
    ("eps_schedule", "1e-2,1e-3,1e-4,1e-5,1e-6")])
@pytest.mark.parametrize("given_as", ["flag", "config"])
def test_retired_solve_parameter_is_usage_error(key, value, given_as,
                                                tmp_path, capsys):
    # an older manifest's parameters replay as a config that names the key
    flag = "--" + key.replace("_", "-")
    if given_as == "flag":
        name, extra = flag, [flag, str(value)]
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        name, extra = key, ["--config", str(cfg)]
    with mock.patch.object(cli, "solve_extremal",
                           side_effect=AssertionError("solve was called")):
        rc = main(SOLVE_49 + extra + ["--out-dir", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("usage error:")
    assert name in err


def test_analyze_corrupt_checkpoint(tmp_path):
    (tmp_path / "junk.json").write_text("{]")
    (tmp_path / "junk.field").write_text("nonsense\n")
    rc = main(["analyze", "--checkpoint", str(tmp_path / "junk"),
               "--out-dir", str(tmp_path)])
    assert rc == 1


@pytest.mark.parametrize("edit", [lambda meta: [],
                                  lambda meta: {**meta, "stages": None},
                                  lambda meta: {**meta, "stages": [1]},
                                  lambda meta: {**meta, "spec": None},
                                  lambda meta: {**meta, "config": None},
                                  lambda meta: {**meta, "p": None},
                                  lambda meta: {**meta, "p": 8.0}],
                         ids=["list", "null-stages", "non-object-stage",
                              "null-spec", "null-config", "null-p",
                              "p-mismatch"])
def test_analyze_malformed_checkpoint_sidecar(edit, tmp_path, capsys):
    _write_synthetic_checkpoint(tmp_path / "ckpt")
    sidecar = tmp_path / "ckpt.json"
    sidecar.write_text(json.dumps(edit(json.loads(sidecar.read_text()))))
    rc = main(["analyze", "--checkpoint", str(tmp_path / "ckpt"),
               "--out-dir", str(tmp_path)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("usage error")


@pytest.mark.parametrize("edit", [
    lambda header, body: ({**header, "r_min": None}, body),
    lambda header, body: ({k: v for k, v in header.items() if k != "n_s"}, body),
    lambda header, body: ([], body),
    lambda header, body: (header, [body[0].replace("0", "nan", 1)] + body[1:]),
], ids=["null-r-min", "no-n-s", "list", "nan-value"])
def test_analyze_malformed_field_header(edit, tmp_path, capsys):
    _write_synthetic_checkpoint(tmp_path / "ckpt")
    dump = tmp_path / "ckpt.field"
    lines = dump.read_text().splitlines(keepends=True)
    header, body = edit(json.loads(lines[1]), lines[2:])
    dump.write_text("".join([lines[0], json.dumps(header) + "\n"] + body))
    rc = main(["analyze", "--checkpoint", str(tmp_path / "ckpt"),
               "--out-dir", str(tmp_path)])
    assert rc == 1
    assert capsys.readouterr().err.startswith(
        "usage error: cannot read checkpoint")


@pytest.mark.parametrize("flags", [
    ("--budget", "1"), ("--budget", "-5"), ("--window", "8,4"),
    ("--window", "1,16"), ("--window", "4,nan"),
], ids="=".join)
def test_analyze_bad_flag_is_usage_error(flags, tmp_path, capsys):
    _write_synthetic_checkpoint(tmp_path / "ckpt")
    rc = main(["analyze", "--checkpoint", str(tmp_path / "ckpt"), *flags,
               "--out-dir", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("usage error:")
    assert not (tmp_path / "out").exists()


def test_analyze_degenerate_field_is_numerical_failure(tmp_path, capsys):
    """A field that vanishes inside the fit window still exits 2."""
    _write_synthetic_checkpoint(tmp_path / "ckpt")
    result, config = m.load_checkpoint(tmp_path / "ckpt")
    result.field.values[result.grid.r >= 3.0] = 0.0
    m.save_checkpoint(result, config, tmp_path / "flat")
    rc = main(["analyze", "--checkpoint", str(tmp_path / "flat"),
               "--window", "2,7.5", "--out-dir", str(tmp_path / "out")])
    assert rc == 2
    assert "profile must be positive inside the fit window" in \
        capsys.readouterr().err


def test_analyze_accepts_retired_sidecar_keys(tmp_path):
    """A sidecar with the keys of older versions loads and analyzes alike."""
    _write_synthetic_checkpoint(tmp_path / "ckpt")
    argv = ["analyze", "--checkpoint", str(tmp_path / "ckpt"), "--window", "2,7.5"]
    assert main(argv + ["--out-dir", str(tmp_path / "new")]) == 0
    sidecar = tmp_path / "ckpt.json"
    meta = json.loads(sidecar.read_text())
    meta["pin_value"] = 1.0
    meta["config"].update(armijo_c=1e-4, max_halvings=60,
                          energy_rel_tol=1e-12, max_iters_per_stage=100)
    sidecar.write_text(json.dumps(meta))
    assert m.load_checkpoint(tmp_path / "ckpt")[1] == m.SolverConfig()
    assert main(argv + ["--out-dir", str(tmp_path / "old")]) == 0
    for name in ("decay_profile.csv", "gradient_profile.csv", "fit_summary.json"):
        assert ((tmp_path / "old" / name).read_bytes()
                == (tmp_path / "new" / name).read_bytes())


def _write_synthetic_checkpoint(base):
    grid = m.build_grid(m.GridSpec(r_min=2.0**-4, r_max=2.0**6, n_s=81, n_phi=17))
    values = np.minimum(1.0, grid.r**-0.5)[:, None] * np.sin(grid.phi)[None, :]
    result = m.SolveResult(field=m.ScalarField(grid, values), energy=0.0,
                           stages=[], converged=True, p=4.0)
    m.save_checkpoint(result, m.SolverConfig(), base)


# ------------------------------------------------------------------ outputs

@pytest.mark.parametrize("argv, data_files", [
    (["analyze", "--checkpoint", "CKPT", "--window", "2,7.5"],
     ["decay_profile.csv", "gradient_profile.csv", "fit_summary.json"]),
    (SOLVE_49, ["solve.field", "solve.json"]),
    (["verify", "--p", "4", "--mode", "quick"], ["verify_report.json"]),
], ids=["analyze", "solve", "verify"])
def test_rerun_replaces_outputs(argv, data_files, tmp_path):
    """A second run into the same out-dir creates its files afresh.

    The data files come out byte-identical, so only a hard link made
    between the runs tells a replaced file from one rewritten in place:
    the link must still be the first run's file.
    """
    _write_synthetic_checkpoint(tmp_path / "ckpt")
    argv = [str(tmp_path / "ckpt") if a == "CKPT" else a for a in argv]
    out = tmp_path / "out"
    outputs = data_files + [argv[0] + "_manifest.json"]
    assert main(argv + ["--out-dir", str(out)]) == 0
    first = {name: (out / name).read_bytes() for name in outputs}
    for name in outputs:
        os.link(out / name, tmp_path / (name + ".link"))
    assert main(argv + ["--out-dir", str(out)]) == 0
    for name in outputs:
        link = tmp_path / (name + ".link")
        assert link.read_bytes() == first[name]
        assert not link.samefile(out / name)
    for name in data_files:
        assert (out / name).read_bytes() == first[name]


# ------------------------------------------------------------------- config

def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"p_values": "3,4"}))
    out1 = tmp_path / "o1"
    main(["beta-table", "--config", str(cfg), "--out-dir", str(out1)])
    _, rows = read_csv(out1 / "beta_table.csv")
    assert [r[0] for r in rows] == [3.0, 4.0]
    # explicit flag wins over the config file
    out2 = tmp_path / "o2"
    main(["beta-table", "--config", str(cfg), "--p-values", "8",
          "--out-dir", str(out2)])
    _, rows = read_csv(out2 / "beta_table.csv")
    assert [r[0] for r in rows] == [8.0]


@pytest.mark.parametrize("argv, data_files", [
    (["beta-table", "--p-values", "3,4,8"], ["beta_table.csv"]),
    (["aronsson", "--p", "4", "--kappa", "1.0", "--n-samples", "201"],
     ["aronsson_profile.csv", "aronsson_summary.json"]),
    (["verify", "--p", "4", "--mode", "quick"], ["verify_report.json"]),
    (["solve", "--p", "4", "--r-min", "0.0625", "--r-max", "256",
      "--n-s", "49", "--n-phi", "17"], ["solve.field", "solve.json"]),
], ids=["beta-table", "aronsson-kappa", "verify-quick", "solve-49x17"])
def test_manifest_parameters_round_trip(argv, data_files, tmp_path):
    manifest_name = argv[0].replace("-", "_") + "_manifest.json"
    out1 = tmp_path / "o1"
    assert main(argv + ["--out-dir", str(out1)]) == 0
    manifest = json.loads((out1 / manifest_name).read_text())
    cfg = tmp_path / "replay.json"
    params = dict(manifest["parameters"])
    params.pop("out_dir")
    cfg.write_text(json.dumps(params))
    out2 = tmp_path / "o2"
    assert main([argv[0], "--config", str(cfg), "--out-dir", str(out2)]) == 0
    manifest2 = json.loads((out2 / manifest_name).read_text())
    p1 = dict(manifest["parameters"]); p1.pop("out_dir")
    p2 = dict(manifest2["parameters"]); p2.pop("out_dir")
    assert p1 == p2
    for name in data_files:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


@pytest.mark.parametrize("content", [None, "{]", "[1, 2]"],
                         ids=["missing", "invalid-json", "not-an-object"])
def test_unreadable_config_is_usage_error(content, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    if content is not None:
        cfg.write_text(content)
    assert main(["beta-table", "--config", str(cfg),
                 "--out-dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and str(cfg) in err


# subcommand -> dest -> (option string, kind of value); every subcommand
# also takes --config
OPTIONS = {
    "beta-table": {"p_values": ("--p-values", "floats"),
                   "out_dir": ("--out-dir", "text")},
    "aronsson": {"p": ("--p", "float"), "kappa": ("--kappa", "float"),
                 "L": ("--L", "float"), "n_samples": ("--n-samples", "int"),
                 "out_dir": ("--out-dir", "text")},
    "solve": {"p": ("--p", "float"), "r_min": ("--r-min", "float"),
              "r_max": ("--r-max", "float"), "n_s": ("--n-s", "int"),
              "n_phi": ("--n-phi", "int"),
              "grad_tol": ("--grad-tol", "float"), "tag": ("--tag", "text"),
              "out_dir": ("--out-dir", "text")},
    "analyze": {"checkpoint": ("--checkpoint", "text"),
                "window": ("--window", "floats"),
                "budget": ("--budget", "int"), "out_dir": ("--out-dir", "text")},
    "verify": {"p": ("--p", "float"), "mode": ("--mode", "mode"),
               "out_dir": ("--out-dir", "text")},
}


def test_option_strings_and_dests_frozen():
    sub = next(a for a in cli._build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    got = {command: {(opt, a.dest) for a in sp._actions if a.dest != "help"
                     for opt in a.option_strings}
           for command, sp in sub.choices.items()}
    assert got == {command: {(opt, dest) for dest, (opt, _) in options.items()}
                   | {("--config", "config")}
                   for command, options in OPTIONS.items()}


def _rejects(convert, text):
    try:
        convert(text)
    except ValueError:
        return True
    return False


def _float_list(text):
    return [float(tok) for tok in text.split(",") if tok.strip()]


_NUMBERS = st.integers() | st.floats(allow_nan=False, allow_infinity=False)
_LISTS = st.lists(st.integers(), max_size=3)
_OBJECTS = st.dictionaries(st.text(max_size=3), st.integers(), max_size=2)
_CONTAINERS = st.booleans() | _LISTS | _OBJECTS
# JSON values of a type each kind of parameter does not accept
_WRONG = {
    "float": (_CONTAINERS | st.integers(min_value=2**1024)
              | st.text(max_size=8).filter(lambda s: _rejects(float, s))),
    "int": (_CONTAINERS | st.floats(allow_nan=False, allow_infinity=False)
            | st.text(max_size=8).filter(lambda s: _rejects(int, s))),
    "floats": (_CONTAINERS | _NUMBERS
               | st.text(max_size=12).filter(lambda s: _rejects(_float_list, s))),
    "text": _CONTAINERS | _NUMBERS,
    "mode": (_CONTAINERS | _NUMBERS
             | st.text(max_size=8).filter(lambda s: s not in ("quick", "full"))),
}
_KEYS = st.text(string.ascii_letters + "_", min_size=1, max_size=12)


@pytest.mark.parametrize("command", sorted(OPTIONS))
@settings(max_examples=50, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_config_wrong_type_or_unknown_key_is_usage_error(command, data,
                                                         tmp_path):
    options = OPTIONS[command]
    key = data.draw(st.sampled_from(sorted(options))
                    | _KEYS.filter(lambda k: k not in options), label="key")
    value = data.draw(_WRONG[options[key][1]] if key in options else _NUMBERS,
                      label="value")
    cfg = tmp_path / "cfg.json"
    # a new file each time: rewriting one in place can force a disk flush
    cfg.unlink(missing_ok=True)
    cfg.write_text(json.dumps({key: value}))
    err = io.StringIO()
    started = AssertionError("a solve started")
    with mock.patch.object(cli, "solve_extremal", side_effect=started), \
            mock.patch.object(solver, "solve_extremal", side_effect=started), \
            contextlib.redirect_stderr(err):
        rc = main([command, "--config", str(cfg),
                   "--out-dir", str(tmp_path / "out")])
    assert rc == 1
    assert err.getvalue().startswith("usage error:")
    assert key in err.getvalue()


# ------------------------------------------------------------------- verify

def test_verify_quick_passes(tmp_path):
    rc = main(["verify", "--p", "4", "--mode", "quick",
               "--out-dir", str(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path / "verify_report.json").read_text())
    assert report["pass"] is True
    assert report["aronsson_identities"]["identity_max_abs_err"] < 1e-10
    assert report["barrier_synthetic"]["slow_decay_report"]["violations"] > 0
    assert report["barrier_synthetic"]["fast_decay_report"]["violations"] == 0


def test_verify_fails_on_perturbed_profile(tmp_path, monkeypatch):
    """A cone profile off its closed form by 1e-4 fails the identity gate."""
    exact = aronsson.angular_profile

    def perturbed(*args):
        profile = exact(*args)
        profile.f = profile.f * 1.0001
        return profile
    monkeypatch.setattr(aronsson, "angular_profile", perturbed)
    rc = main(["verify", "--p", "4", "--mode", "quick",
               "--out-dir", str(tmp_path)])
    assert rc == 3
    report = json.loads((tmp_path / "verify_report.json").read_text())
    assert report["aronsson_identities"]["pass"] is False
    assert report["pass"] is False


@pytest.mark.parametrize("p", [4.0, 8.0])
def test_verify_full_includes_coarse_solve(p, tmp_path):
    rc = main(["verify", "--p", str(p), "--mode", "full",
               "--out-dir", str(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path / "verify_report.json").read_text())
    assert report["coarse_solve"]["pass"] is True
    assert abs(report["coarse_solve"]["beta_hat"] - m.beta_p(p)) < 0.15


def test_verify_calls_layers_through_their_modules(tmp_path, monkeypatch):
    """The suites look layer functions up on their modules at call time,
    so a wrapper set on the module attribute sees every call."""
    seen = []

    def record(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            seen.append((name, args))
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    record(solver, "solve_extremal")
    record(aronsson, "pharmonic_residual")
    rc = main(["verify", "--p", "4", "--mode", "full",
               "--out-dir", str(tmp_path)])
    assert rc == 0
    solves = [args[0] for name, args in seen if name == "solve_extremal"]
    assert [(spec.n_s, spec.n_phi) for spec in solves] == [(145, 33)]
    assert sum(name == "pharmonic_residual" for name, _ in seen) == 2


def test_unknown_command_usage():
    assert main(["frobnicate"]) == 1
