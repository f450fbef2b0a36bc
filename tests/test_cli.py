import argparse
import contextlib
import dataclasses
import io
import json
import math
import os
import re
import string
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import morreylab as m
from morreylab import analysis, aronsson, checks, cli, grid, solver
from morreylab.cli import main
from conftest import ACC_SPEC, ACC_SPEC_FINE, read_report

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
               "--out-dir", str(tmp_path)])
    assert rc == 0
    header, rows = read_csv(tmp_path / "aronsson_profile.csv")
    assert header == ["theta", "phi", "f", "fprime", "g"]
    assert len(rows) == 1001
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
    ["aronsson", "--p", "4", "--kappa", "1e-120"],             # below the floor
    ["aronsson", "--p", "4", "--kappa", "1e-200"],
    ["aronsson", "--p", "4", "--L", "1e60"],                   # kappa 1.5e-120
])
def test_aronsson_usage_errors(argv, tmp_path):
    assert main(argv + ["--out-dir", str(tmp_path)]) == 1


@pytest.mark.parametrize("L", ["100", "1000", "1e6"])
def test_aronsson_wide_aperture(L, tmp_path):
    rc = main(["aronsson", "--p", "4", "--L", L, "--out-dir", str(tmp_path)])
    assert rc == 0
    summary = json.loads((tmp_path / "aronsson_summary.json").read_text())
    assert abs(summary["aperture_L"] - float(L)) < 1e-12 * float(L)


def test_aronsson_at_the_kappa_floor(tmp_path):
    rc = main(["aronsson", "--p", "4", "--kappa", "1e-100",
               "--out-dir", str(tmp_path)])
    assert rc == 0
    summary = json.loads((tmp_path / "aronsson_summary.json").read_text(),
                         parse_constant=float)
    report = summary["invariants"]
    assert all(math.isfinite(x) for value in report.values()
               for x in (value if isinstance(value, list) else [value]))


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
    fit = read_report(tmp_path / "fit_summary.json")
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
    # reaches u_min = -0.398 in [17, 2, 1, 1, 0] steps
    rc = main(["solve", "--p", "24", "--r-min", "0.015625", "--r-max", "4096",
               "--n-s", "97", "--n-phi", "17", "--out-dir", str(tmp_path)])
    assert rc == 2
    assert "discrete maximum principle violated" in capsys.readouterr().err
    meta = json.loads((tmp_path / "solve.json").read_text())
    assert meta["converged"] is True
    # every stage reaches grad_tol; none ends early on a stalled energy
    assert all(stage["converged"] for stage in meta["stages"])
    assert meta["u_min"] < 0.0 or meta["u_max"] > 1.0
    field = m.load_field(tmp_path / "solve.field")
    assert (meta["u_min"], meta["u_max"]) == (field.values.min(),
                                              field.values.max())


def test_solve_large_p_coarse_grid_keeps_the_maximum_principle(tmp_path):
    # with the band Cholesky this solve ends in [12, 2, 1, 1, 0] steps with
    # u in [0, 1]; SuperLU's directions led it to u in [-2.62, 1.003]
    rc = main(["solve", "--p", "16", "--r-min", "0.0625", "--r-max", "256",
               "--n-s", "49", "--n-phi", "17", "--out-dir", str(tmp_path)])
    assert rc == 0
    meta = json.loads((tmp_path / "solve.json").read_text())
    assert meta["converged"] is True
    assert 0.0 <= meta["u_min"] and meta["u_max"] <= 1.0


def test_solve_energy_overflow_is_not_a_raw_warning(tmp_path, monkeypatch,
                                                   capsys):
    # trial steps' energies overflow, also on the pin cells' corner samples
    # of mass 0, where inf * 0 is NaN; each reads as inf, the line search
    # rejects it, and the user sees solve's own diagnosis, not numpy's
    # warning
    energy, trials = solver.energy, []

    def counted(*args, **kw):
        trials.append(energy(*args, **kw))
        return trials[-1]

    monkeypatch.setattr(solver, "energy", counted)
    rc = main(["solve", "--p", "128", "--r-min", "0.0625", "--r-max", "256",
               "--n-s", "49", "--n-phi", "17", "--out-dir", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert math.inf in trials
    assert not any(math.isnan(e) for e in trials)
    assert "RuntimeWarning" not in err
    assert err.splitlines()[-1] == (
        "solver did not converge; partial outputs retained")


def test_solve_large_p_reports_its_fallbacks(tmp_path, capsys):
    # the closed-form start's energy is 0.042 here and no trial energy
    # overflows, but the band Cholesky meets non-positive pivots, so four
    # stages take gradient-step fallbacks; the one stderr line names them,
    # and u stays in [0, 1]
    rc = main(["solve", "--p", "32", "--r-min", "0.015625", "--r-max", "4096",
               "--n-s", "145", "--n-phi", "33", "--out-dir", str(tmp_path)])
    assert rc == 2
    stages = ", ".join(f"{k} (eps={eps:g})" for k, eps in
                       zip((1, 2, 4, 5), (1e-2, 1e-3, 1e-5, 1e-6)))
    assert capsys.readouterr().err.splitlines() == [
        f"300 gradient-step fallback(s) in stage(s) {stages}",
        "solver did not converge; partial outputs retained"]
    meta = json.loads((tmp_path / "solve.json").read_text())
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


@pytest.mark.parametrize("argv", [
    ["verify", "--p", "1e17"],
    ["aronsson", "--p", "1e17", "--L", "1"],
    ["beta-table", "--p-values", "1e17"],
], ids=" ".join)
def test_p_outside_the_cone_domain_is_usage_error(argv, tmp_path, capsys):
    # a = (p-1)/(p-2) rounds to 1 beyond p of about 1.8e16
    assert main(argv + ["--out-dir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith("usage error: a = (p-1)/(p-2)")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("p_values", [",", ""])
def test_empty_p_values_is_usage_error(p_values, tmp_path, capsys):
    # a table with no rows is not a result
    assert main(["beta-table", "--p-values", p_values,
                 "--out-dir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith(
        "usage error: bad value for p_values")
    assert not (tmp_path / "out").exists()


SOLVE_49 = ["solve", "--p", "4", "--r-min", "0.0625", "--r-max", "256",
            "--n-s", "49", "--n-phi", "17"]
# nodes in one direction whose nodal array (PiB) numpy refuses at once,
# without touching memory
_UNALLOCATABLE = 10**13 + 1


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
    # grids whose nodal array cannot be allocated
    ("--n-s", str(_UNALLOCATABLE)), ("--n-phi", str(_UNALLOCATABLE)),
], ids="-".join)
def test_non_finite_solve_parameter_is_usage_error(flags, tmp_path, capsys):
    with mock.patch.object(cli, "solve_extremal",
                           side_effect=AssertionError("solve was called")):
        rc = main(SOLVE_49 + list(flags) + ["--out-dir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("usage error:")
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def _naming(key, value, given_as, tmp_path):
    """The name a usage error must give for key, and the arguments that set
    it as a flag or, as an older manifest's replayed parameters do, in a
    config file."""
    flag = "--" + key.replace("_", "-")
    if given_as == "flag":
        return flag, [flag, str(value)]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    return key, ["--config", str(cfg)]


@pytest.mark.parametrize("key, value", [
    ("energy_rel_tol", 1e-12), ("max_iters", 100),
    ("eps_schedule", "1e-2,1e-3,1e-4,1e-5,1e-6"), ("tag", "x")])
@pytest.mark.parametrize("given_as", ["flag", "config"])
def test_retired_solve_parameter_is_usage_error(key, value, given_as,
                                                tmp_path, capsys):
    name, extra = _naming(key, value, given_as, tmp_path)
    with mock.patch.object(cli, "solve_extremal",
                           side_effect=AssertionError("solve was called")):
        rc = main(SOLVE_49 + extra + ["--out-dir", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("usage error:")
    assert name in err


@pytest.mark.parametrize("argv, key, value", [
    (["analyze", "--checkpoint", "CKPT", "--window", "2,7.5"], "budget", 600),
    (["analyze", "--checkpoint", "CKPT", "--window", "2,7.5"], "budget", 1),
    (["analyze", "--checkpoint", "CKPT", "--window", "2,7.5"], "budget", -5),
    (["aronsson", "--p", "4", "--kappa", "1.0"], "n_samples", 1001),
], ids=["analyze-budget=600", "analyze-budget=1", "analyze-budget=-5",
        "aronsson-n_samples=1001"])
@pytest.mark.parametrize("given_as", ["flag", "config"])
def test_retired_analysis_parameter_is_usage_error(argv, key, value, given_as,
                                                   tmp_path, capsys):
    """analyze's Hoelder budget (600) and aronsson's row count (1001) are
    fixed; naming either, at any value, is refused before --out-dir."""
    _write_synthetic_checkpoint(tmp_path / "ckpt")
    argv = [str(tmp_path / "ckpt") if a == "CKPT" else a for a in argv]
    name, extra = _naming(key, value, given_as, tmp_path)
    rc = main(argv + extra + ["--out-dir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("usage error:")
    assert name in err
    assert not (tmp_path / "out").exists()


def test_analyze_leaves_the_converged_check_to_analysis(tmp_path, capsys):
    """An unconverged checkpoint fails in the analysis layer, as every
    other bad field does: exit 2, and no out-dir is made."""
    _write_synthetic_checkpoint(tmp_path / "ckpt", converged=False)
    rc = main(["analyze", "--checkpoint", str(tmp_path / "ckpt"),
               "--out-dir", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err == "analysis failed: result is not converged\n"
    assert not (tmp_path / "out").exists()


def test_analyze_corrupt_checkpoint(tmp_path):
    (tmp_path / "junk.json").write_text("{]")
    (tmp_path / "junk.field").write_text("nonsense\n")
    rc = main(["analyze", "--checkpoint", str(tmp_path / "junk"),
               "--out-dir", str(tmp_path)])
    assert rc == 1


# a stage as save_checkpoint writes it
_STAGE = {"eps": 1e-6, "iterations": 3, "energy": 0.5, "grad_sup": 1e-10,
          "converged": True, "line_search_failures": 0, "fallbacks": 0}


@pytest.mark.parametrize("edit", [lambda meta: [],
                                  lambda meta: {**meta, "stages": None},
                                  lambda meta: {**meta, "stages": [1]},
                                  lambda meta: {**meta, "config": None},
                                  lambda meta: {**meta, "p": None},
                                  lambda meta: {**meta, "converged": "false"},
                                  lambda meta: {**meta, "converged": 1},
                                  lambda meta: {**meta, "converged": None},
                                  lambda meta: {**meta, "energy": None},
                                  lambda meta: {**meta, "energy": "x"},
                                  lambda meta: {**meta, "p": "4"},
                                  lambda meta: {**meta, "dipole_strength": "1.5"},
                                  lambda meta: {k: v for k, v in meta.items()
                                                if k != "dipole_strength"},
                                  lambda meta: {**meta, "stages": [{"eps": 0.01}]},
                                  lambda meta: {**meta, "config": {}},
                                  lambda meta: {**meta, "stages": [
                                      {**_STAGE, "iterations": "three"}]},
                                  lambda meta: {**meta, "stages": [
                                      {**_STAGE, "converged": "no"}]},
                                  lambda meta: {**meta, "stages": [
                                      {**_STAGE, "grad_sup": None}]},
                                  lambda meta: {**meta, "config": {
                                      **meta["config"],
                                      "eps_schedule": ["0.01"]}}],
                         ids=["list", "null-stages", "non-object-stage",
                              "null-config", "null-p", "bad-converged",
                              "int-converged", "null-converged", "null-energy",
                              "text-energy", "p-string", "dipole-string",
                              "no-dipole", "stage-eps-only",
                              "config-missing-keys", "text-iterations",
                              "text-stage-converged", "null-grad-sup",
                              "text-eps-schedule"])
def test_analyze_malformed_checkpoint_sidecar(edit, tmp_path, capsys):
    """Every value comes from the sidecar, with its JSON type: a missing
    field or a number written as text exits 1, not with a stand-in."""
    _write_synthetic_checkpoint(tmp_path / "ckpt")
    sidecar = tmp_path / "ckpt.json"
    sidecar.write_text(json.dumps(edit(json.loads(sidecar.read_text()))))
    # the window that analyzes the unedited checkpoint with exit code 0
    rc = main(["analyze", "--checkpoint", str(tmp_path / "ckpt"),
               "--window", "2,7.5", "--out-dir", str(tmp_path)])
    assert rc == 1
    assert capsys.readouterr().err.startswith(
        "usage error: cannot read checkpoint")


def _edit_field_dump(dump, edit):
    """Rewrite a field dump with edit(header dict, body bytes)."""
    magic, header, body = dump.read_bytes().split(b"\n", 2)
    header, body = edit(json.loads(header), body)
    dump.write_bytes(magic + b"\n" + json.dumps(header).encode() + b"\n"
                     + body)


@pytest.mark.parametrize("edit", [
    lambda header, body: ({**header, "r_min": None}, body),
    lambda header, body: ({k: v for k, v in header.items() if k != "n_s"}, body),
    lambda header, body: ([], body),
    lambda header, body: (header, np.array(np.nan, "<f8").tobytes() + body[8:]),
    lambda header, body: ({**header, "n_s": _UNALLOCATABLE}, body),
], ids=["null-r-min", "no-n-s", "list", "nan-value", "unallocatable"])
def test_analyze_malformed_field_header(edit, tmp_path, capsys):
    _write_synthetic_checkpoint(tmp_path / "ckpt")
    _edit_field_dump(tmp_path / "ckpt.field", edit)
    rc = main(["analyze", "--checkpoint", str(tmp_path / "ckpt"),
               "--out-dir", str(tmp_path)])
    assert rc == 1
    assert capsys.readouterr().err.startswith(
        "usage error: cannot read checkpoint")


@pytest.mark.parametrize("key, value", [
    ("n_s", 81.0), ("r_max", "64"), ("n_phi", True),
], ids=["float-n-s", "text-r-max", "bool-n-phi"])
def test_analyze_malformed_field_header_names_the_field(key, value, tmp_path,
                                                       capsys):
    """A header value of another JSON type than its GridSpec field exits 1
    with a message that names the field, not through numpy's error."""
    _write_synthetic_checkpoint(tmp_path / "ckpt")
    _edit_field_dump(tmp_path / "ckpt.field",
                     lambda header, body: ({**header, key: value}, body))
    rc = main(["analyze", "--checkpoint", str(tmp_path / "ckpt"),
               "--out-dir", str(tmp_path)])
    assert rc == 1
    assert capsys.readouterr().err == (
        "usage error: cannot read checkpoint: malformed checkpoint: "
        f"GridSpec lacks or mistypes {key}\n")


def _write_v1_text_dump(dump):
    """The version 1 layout: the magic line, a JSON header with the format,
    the version, p and the grid, then %.17g text rows."""
    field = m.load_field(dump)
    header = {"format": "morreylab-field", "version": 1, "p": 4.0,
              **dataclasses.asdict(field.grid.spec)}
    dump.write_text("# morreylab field v1\n" + json.dumps(header, sort_keys=True)
                    + "\n" + "".join(" ".join(f"{x:.17g}" for x in row) + "\n"
                                     for row in field.values))


@pytest.mark.parametrize("edit, match", [
    (lambda dump: _edit_field_dump(dump, lambda h, b: (h, b[:-1])),
     "body is not 11016 bytes"),
    (lambda dump: _edit_field_dump(dump, lambda h, b: (h, b + b[-8:])),
     "body is not 11016 bytes"),
    (_write_v1_text_dump,
     "starts with '# morreylab field v1', expected '# morreylab field v2'"),
], ids=["one-byte-short", "one-value-too-many", "v1-text"])
def test_analyze_rejects_a_dump_of_the_wrong_size_or_version(
        edit, match, tmp_path, capsys):
    _write_synthetic_checkpoint(tmp_path / "ckpt")
    edit(tmp_path / "ckpt.field")
    with pytest.raises(ValueError, match=match):
        m.load_field(tmp_path / "ckpt.field")
    rc = main(["analyze", "--checkpoint", str(tmp_path / "ckpt"),
               "--out-dir", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().err.startswith(
        "usage error: cannot read checkpoint")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flags", [
    ("--window", "8,4"), ("--window", "1,16"), ("--window", "4,nan"),
    ("--window", ","),
], ids="=".join)
def test_analyze_bad_flag_is_usage_error(flags, tmp_path, capsys):
    _write_synthetic_checkpoint(tmp_path / "ckpt")
    rc = main(["analyze", "--checkpoint", str(tmp_path / "ckpt"), *flags,
               "--out-dir", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("usage error:")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("window, name", [("nan,64", "start"),
                                          ("4,nan", "end")])
def test_analyze_nan_window_bound_is_named(window, name, tmp_path, capsys):
    """A NaN bound is named as such, not counted as an empty window."""
    _write_synthetic_checkpoint(tmp_path / "ckpt")
    rc = main(["analyze", "--checkpoint", str(tmp_path / "ckpt"),
               "--window", window, "--out-dir", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"usage error: window {name} must be finite, got nan\n")
    assert not (tmp_path / "out").exists()


def test_analyze_empty_default_window_is_usage_error(tmp_path, capsys):
    """With no --window, an r_max/8 at or below 4 empties the default
    window (4, r_max/8); the message names it, not a window never given."""
    _write_synthetic_checkpoint(tmp_path / "ckpt", r_max=16.0)
    rc = main(["analyze", "--checkpoint", str(tmp_path / "ckpt"),
               "--out-dir", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().err == (
        "usage error: the default window (4, r_max/8) = (4, 2) is empty for "
        "the checkpoint's r_max = 16; pass --window r_lo,r_hi with "
        "2 <= r_lo < r_hi <= r_max/8\n")
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


def test_analyze_field_without_the_circle_maximum_is_analysis_failure(
        tmp_path, capsys):
    """A field whose arc maxima rise past r = 10 fails decay_profile's
    maximum-on-the-circle check: an analysis failure, exit 2, no out-dir."""
    g = m.build_grid(m.GridSpec(r_min=2.0**-4, r_max=2.0**8, n_s=97,
                                n_phi=17))
    values = np.minimum(1.0, g.r**-0.5)[:, None] * np.sin(g.phi)[None, :]
    values[g.r > 10.0] *= 1.5
    m.save_checkpoint(m.SolveResult(field=m.ScalarField(g, values), energy=0.0,
                                    stages=[], converged=True, p=4.0),
                      m.SolverConfig(), tmp_path / "ckpt")
    rc = main(["analyze", "--checkpoint", str(tmp_path / "ckpt"),
               "--out-dir", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("analysis failed: arc maximum")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("p", [64.0, 1000.0])
def test_analyze_large_p_norm_overflow_is_numerical_failure(p, tmp_path,
                                                           capsys):
    """At p = 1000, |grad u|**p overflows on min(1, r**-beta_p) sin(phi):
    analyze exits 2 with no numpy warning and writes no fit summary, so no
    non-JSON "grad_norm": Infinity and no zero constant.  p = 64 is in
    range and gives strict JSON."""
    g = m.build_grid(m.GridSpec(r_min=2.0**-6, r_max=2.0**12, n_s=577,
                                n_phi=65))
    values = (np.minimum(1.0, g.r**-m.beta_p(p))[:, None]
              * np.sin(g.phi)[None, :])
    m.save_checkpoint(m.SolveResult(field=m.ScalarField(g, values), energy=0.0,
                                    stages=[], converged=True, p=p),
                      m.SolverConfig(), tmp_path / "ckpt")
    out = tmp_path / "out"
    rc = main(["analyze", "--checkpoint", str(tmp_path / "ckpt"),
               "--out-dir", str(out)])
    err = capsys.readouterr().err
    if p == 1000.0:
        assert rc == 2
        assert err == ("analysis failed: the gradient 1000-norm overflows "
                       "the float range\n")
        assert not (out / "fit_summary.json").exists()
    else:
        assert rc == 0 and err == ""
        fit = read_report(out / "fit_summary.json")
        assert round(fit["morrey"]["C_estimate"], 5) == 0.98877


def test_analyze_makes_one_cell_gradient_pass(tmp_path, monkeypatch):
    """analyze computes grid.cell_gradient_sq once and hands that one array
    to the gradient profile and the p-norm; the norm leaves it unchanged
    and equals the whole-array expression to the last bit."""
    _write_synthetic_checkpoint(tmp_path / "ckpt")
    original, arrays, seen = grid.cell_gradient_sq, [], []
    profile, norm = analysis.gradient_profile, analysis.lp_gradient_norm

    def everywhere(function, wrapper):
        # every module that binds the function, as perfbench's tracer does
        for module in (m, grid, analysis, cli):
            for name, value in list(vars(module).items()):
                if value is function:
                    monkeypatch.setattr(module, name, wrapper)

    def counted(field):
        arrays.append(original(field))
        return arrays[-1]

    def profiled(result, grad_sq, window):
        seen.append(("profile", grad_sq))
        return profile(result, grad_sq, window)

    def normed(result, grad_sq):
        before = grad_sq.copy()
        value = norm(result, grad_sq)
        assert np.array_equal(grad_sq, before)
        g, p = result.grid, result.p
        assert value == float(
            (2.0 * (g.cell_weight * before ** (p / 2.0)).sum()) ** (1.0 / p))
        seen.append(("norm", grad_sq))
        return value
    everywhere(original, counted)
    everywhere(profile, profiled)
    everywhere(norm, normed)
    rc = main(["analyze", "--checkpoint", str(tmp_path / "ckpt"),
               "--window", "2,7.5", "--out-dir", str(tmp_path / "out")])
    assert rc == 0
    assert len(arrays) == 1
    assert [name for name, _ in seen] == ["profile", "norm"]
    assert all(q is arrays[0] for _, q in seen)
    result = m.load_checkpoint(tmp_path / "ckpt")[0]
    assert np.array_equal(arrays[0], original(result.field))


@pytest.mark.parametrize("p", [1.5, 2.0, math.inf])
def test_analyze_checkpoint_with_invalid_p_is_usage_error(p, tmp_path, capsys):
    """A sidecar p outside (2, inf) makes the checkpoint malformed, not the
    analysis a numerical failure."""
    _write_synthetic_checkpoint(tmp_path / "ckpt", p=p)
    rc = main(["analyze", "--checkpoint", str(tmp_path / "ckpt"),
               "--window", "2,7.5", "--out-dir", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().err.startswith(
        "usage error: cannot read checkpoint")
    assert not (tmp_path / "out").exists()


def test_analyze_accepts_retired_sidecar_keys(tmp_path, capsys):
    """A checkpoint in an older layout loads to an equal result and analyzes
    to the same bytes: a sidecar with retired keys and the grid's spec, and
    a field dump whose header also holds p, the format and the version."""
    _write_synthetic_checkpoint(tmp_path / "ckpt", stages=[
        solver.StageInfo(eps=eps, iterations=3, energy=0.5, grad_sup=1e-10,
                         converged=True, line_search_failures=0, fallbacks=0,
                         energy_history=[]) for eps in (1e-2, 1e-3)])
    out, names = tmp_path / "out", ("decay_profile.csv",
                                    "gradient_profile.csv", "fit_summary.json")
    argv = ["analyze", "--checkpoint", str(tmp_path / "ckpt"), "--window",
            "2,7.5", "--out-dir", str(out)]
    want, want_config = m.load_checkpoint(tmp_path / "ckpt")
    assert main(argv) == 0
    outputs = {name: (out / name).read_bytes() for name in names}
    stdout = capsys.readouterr().out
    sidecar = tmp_path / "ckpt.json"
    meta = json.loads(sidecar.read_text())
    meta["pin_value"] = 1.0
    meta["spec"] = dataclasses.asdict(want.grid.spec)
    meta["config"].update(armijo_c=1e-4, max_halvings=60,
                          energy_rel_tol=1e-12, max_iters_per_stage=100)
    for stage in meta["stages"]:
        stage.update(energy_drift_from_prev=1e-6, predicted_drift_bound=2e-6)
    sidecar.write_text(json.dumps(meta))
    _edit_field_dump(tmp_path / "ckpt.field", lambda header, body: (
        {"format": "morreylab-field", "version": 2, "p": 4.0, **header}, body))
    result, config = m.load_checkpoint(tmp_path / "ckpt")
    assert config == want_config == m.SolverConfig()
    assert result.grid.spec == want.grid.spec
    assert np.array_equal(result.field.values, want.field.values)
    assert result.stages == want.stages and len(want.stages) == 2
    assert result.converged is want.converged
    assert np.array_equal(
        [result.p, result.energy, result.dipole_strength],
        [want.p, want.energy, want.dipole_strength], equal_nan=True)
    assert main(argv) == 0
    assert capsys.readouterr().out == stdout
    assert {name: (out / name).read_bytes() for name in names} == outputs


def _write_synthetic_checkpoint(base, p=4.0, stages=(), r_max=2.0**6,
                               converged=True):
    grid = m.build_grid(m.GridSpec(r_min=2.0**-4, r_max=r_max, n_s=81, n_phi=17))
    values = np.minimum(1.0, grid.r**-0.5)[:, None] * np.sin(grid.phi)[None, :]
    result = m.SolveResult(field=m.ScalarField(grid, values), energy=0.0,
                           stages=list(stages), converged=converged, p=p)
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


@pytest.mark.parametrize("argv", [
    ["beta-table"],
    ["aronsson", "--kappa", "1"],
    ["solve"],
    ["analyze", "--checkpoint", "CKPT", "--window", "2,7.5"],
    ["verify"],
], ids=lambda argv: argv[0])
def test_out_dir_that_is_a_file_is_usage_error(argv, tmp_path, capsys,
                                               monkeypatch):
    # main returns the exit code rather than raising; solve checks the
    # directory before it solves
    def no_solve(*args):
        raise AssertionError("solved before checking --out-dir")
    monkeypatch.setattr(cli, "solve_extremal", no_solve)
    _write_synthetic_checkpoint(tmp_path / "ckpt")
    argv = [str(tmp_path / "ckpt") if a == "CKPT" else a for a in argv]
    taken = tmp_path / "taken"
    taken.write_text("")
    assert main(argv + ["--out-dir", str(taken)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"usage error: cannot make --out-dir {taken}")
    assert "Traceback" not in err


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
    (["aronsson", "--p", "4", "--kappa", "1.0"],
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


def test_manifest_elapsed_time_survives_a_clock_step(tmp_path, monkeypatch):
    # the wall clock may step (NTP, a resume from suspend), so the manifest
    # times with the monotonic perf_counter and never reads it
    def wall_clock():
        raise AssertionError("the manifest read the wall clock")

    monkeypatch.setattr(cli.time, "time", wall_clock)
    assert main(["beta-table", "--p-values", "4",
                 "--out-dir", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / "beta_table_manifest.json").read_text())
    assert manifest["wall_clock_seconds"] >= 0.0


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
                 "L": ("--L", "float"), "out_dir": ("--out-dir", "text")},
    "solve": {"p": ("--p", "float"), "r_min": ("--r-min", "float"),
              "r_max": ("--r-max", "float"), "n_s": ("--n-s", "int"),
              "n_phi": ("--n-phi", "int"),
              "grad_tol": ("--grad-tol", "float"),
              "out_dir": ("--out-dir", "text")},
    "analyze": {"checkpoint": ("--checkpoint", "text"),
                "window": ("--window", "floats"),
                "out_dir": ("--out-dir", "text")},
    "verify": {"p": ("--p", "float"), "mode": ("--mode", "mode"),
               "out_dir": ("--out-dir", "text")},
}


def test_parser_is_built_once_per_process(tmp_path):
    """main() reuses one parser, and a rejected command line leaves it
    fit for the next call."""
    parser = cli._build_parser()
    assert main(["beta-table", "--no-such-flag", "--out-dir",
                 str(tmp_path)]) == 1
    assert main(["beta-table", "--p-values", "4",
                 "--out-dir", str(tmp_path)]) == 0
    assert cli._build_parser() is parser


def test_solve_grad_tol_default_is_the_solver_configs():
    assert cli._PARAMS["solve"]["grad_tol"][1] == m.SolverConfig().grad_tol


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
    values = [float(tok) for tok in text.split(",") if tok.strip()]
    if not values:
        raise ValueError("empty list")
    return values


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
    report = read_report(tmp_path / "verify_report.json")
    assert report["pass"] is True
    assert report["aronsson_identities"]["identity_max_abs_err"] < 1e-10
    assert report["barrier_synthetic"]["slow_decay_report"]["violations"] > 0
    assert report["barrier_synthetic"]["fast_decay_report"]["violations"] == 0


def test_verify_fails_where_the_gradient_check_overflows(tmp_path):
    # at p = 256 the check's 17 x 9 random field overflows the energy and
    # the gradient; their NaN errors fail the check instead of being
    # passed over by the fold, and the kernel raises no RuntimeWarning,
    # which the suite turns into an error
    report = checks.gradient_consistency(256.0)
    rc = main(["verify", "--p", "256", "--mode", "quick",
               "--out-dir", str(tmp_path)])
    assert report["pass"] is False
    assert report["max_rel_error"] is None
    assert rc == 3
    report = read_report(tmp_path / "verify_report.json")
    assert report["gradient_consistency"]["pass"] is False
    assert report["aronsson_identities"]["pass"] is True


def test_solve_fails_where_the_kernel_overflows(tmp_path, capsys):
    # at p = 1e6 the start field's gradient and Hessian band overflow to
    # NaN, so the first trial step is non-finite and the energy rejects it,
    # with no numpy warning (the suite turns one into an error)
    rc = main(["solve", "--p", "1e6", "--r-min", "0.0625", "--r-max", "256",
               "--n-s", "49", "--n-phi", "17", "--out-dir", str(tmp_path)])
    assert rc == 2
    assert (capsys.readouterr().err
            == "numerical failure: field contains non-finite values\n")


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
    report = read_report(tmp_path / "verify_report.json")
    assert report["aronsson_identities"]["pass"] is False
    assert report["pass"] is False


@pytest.mark.parametrize("p", [4.0, 8.0])
def test_verify_full_includes_coarse_solve(p, tmp_path):
    rc = main(["verify", "--p", str(p), "--mode", "full",
               "--out-dir", str(tmp_path)])
    assert rc == 0
    report = read_report(tmp_path / "verify_report.json")
    assert report["coarse_solve"]["pass"] is True
    assert abs(report["coarse_solve"]["beta_hat"] - m.beta_p(p)) < 0.15


@pytest.mark.parametrize("p", [24.0, 48.0])
def test_verify_full_reports_a_coarse_field_analysis_rejects(p, tmp_path):
    """At p = 24 the coarse solve converges off the maximum-on-the-circle
    property, at p = 48 it does not converge: the analysis layer rejects
    both fields, and the suite fails with beta_hat null instead of ending
    the command without a report."""
    rc = main(["verify", "--p", str(p), "--mode", "full",
               "--out-dir", str(tmp_path)])
    assert rc == 3
    report = read_report(tmp_path / "verify_report.json")
    assert report["coarse_solve"]["converged"] is (p == 24.0)
    assert report["coarse_solve"]["beta_hat"] is None
    assert report["coarse_solve"]["pass"] is False
    assert report["pass"] is False


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


def hand_listed_fit_summary(result, window):
    """fit_summary.json's dict as cmd_analyze once listed it, field by
    field, from the library's analysis calls at its budget of 600."""
    profile = m.decay_profile(result)
    grad_sq = m.cell_gradient_sq(result.field)
    fit = m.fit_exponent(profile, window)
    gprofile, gfit = m.gradient_profile(result, grad_sq, window)
    morrey = m.morrey_estimate(result, grad_sq, 600)
    bp = m.beta_p(result.p)
    return {
        "p": result.p,
        "beta_p": bp,
        "beta_hat": fit.beta_hat,
        "C_hat": fit.C_hat,
        "beta_hat_minus_beta_p": fit.beta_hat - bp,
        "window": list(fit.window),
        "rms_residual": fit.rms_residual,
        "n_points": fit.n_points,
        "gradient_exponent": gfit.beta_hat,
        "gradient_exponent_minus_expected": gfit.beta_hat - (fit.beta_hat + 1.0),
        "morrey": {
            "alpha": morrey.alpha,
            "seminorm": morrey.seminorm,
            "grad_norm": morrey.grad_norm,
            "C_estimate": morrey.C_estimate,
            "argmax_pair": [list(morrey.argmax_pair[0]),
                            list(morrey.argmax_pair[1])],
        },
    }


@pytest.mark.parametrize("case", [
    "solve_p4", "solve_p8", *(f"synthetic-{p}-{size}" for p in (4.0, 8.0)
                              for size in ("577x65", "1153x129"))])
def test_fit_summary_equals_the_hand_listed_dict(case, request, tmp_path):
    """fit_summary.json, built from the fit's and the estimate's dataclass
    fields, has the bytes of the dict that listed each field by hand."""
    if case.startswith("solve_"):
        result = request.getfixturevalue(case)
    else:
        _, p, size = case.split("-")
        spec = ACC_SPEC if size == "577x65" else ACC_SPEC_FINE
        g = m.build_grid(spec)
        b = 1.05 * m.beta_p(float(p))
        values = np.minimum(1.0, g.r ** -b)[:, None] * np.sin(g.phi)[None, :]
        result = m.SolveResult(field=m.ScalarField(g, values), energy=0.0,
                               stages=[], converged=True, p=float(p))
    m.save_checkpoint(result, m.SolverConfig(), tmp_path / "ckpt")
    loaded = m.load_checkpoint(tmp_path / "ckpt")[0]
    for k, window in enumerate((None, (3.0, 100.0))):
        out = tmp_path / f"out-{k}"
        flags = ["--window", "%r,%r" % window] if window else []
        assert main(["analyze", "--checkpoint", str(tmp_path / "ckpt"),
                     *flags, "--out-dir", str(out)]) == 0
        want = hand_listed_fit_summary(
            loaded, window or (4.0, loaded.grid.spec.r_max / 8.0))
        grid.write_json(tmp_path / f"want-{k}.json", want)
        assert ((out / "fit_summary.json").read_bytes()
                == (tmp_path / f"want-{k}.json").read_bytes())


def test_module_entry_runs_the_cli(tmp_path):
    """python -m morreylab is the CLI: --version, and a beta-table with the
    bytes of an in-process run."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src), os.environ.get("PYTHONPATH", "")]))

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "morreylab", *argv],
                              env=env, capture_output=True, text=True)

    out = run("--version")
    assert out.returncode == 0 and out.stdout == m.__version__ + "\n"
    out = run("beta-table", "--p-values", "3", "--out-dir", str(tmp_path / "a"))
    assert out.returncode == 0, out.stderr
    assert main(["beta-table", "--p-values", "3",
                 "--out-dir", str(tmp_path / "b")]) == 0
    assert ((tmp_path / "a" / "beta_table.csv").read_bytes()
            == (tmp_path / "b" / "beta_table.csv").read_bytes())


def test_one_version(capsys):
    """pyproject.toml's [project] version is the package's __version__ and
    what --version prints; a regex, since tomllib needs Python 3.11."""
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    project = re.search(r"^\[project\]\n(.*?)(?=^\[|\Z)", text,
                        re.MULTILINE | re.DOTALL).group(1)
    declared = re.findall(r'^version\s*=\s*"([^"]+)"\s*$', project,
                          re.MULTILINE)
    assert declared == [m.__version__]
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == f"{m.__version__}\n"


def test_unknown_command_usage():
    assert main(["frobnicate"]) == 1
