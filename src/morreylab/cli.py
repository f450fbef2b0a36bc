"""Command-line front end: tables, solves, analyses, verification.

Subcommands
    beta-table   critical exponents over a list of p values (CSV)
    aronsson     angular profile of one cone solution (CSV + JSON summary)
    solve        minimize the energy, write a checkpoint (field + sidecar)
    analyze      decay/gradient profiles and fits from a checkpoint
    verify       the suites of checks.py; full mode adds the residual
                 refinement and a coarse solve with its fit

Every run writes a manifest JSON listing the command, the full effective
parameter set, the artifact paths and the wall clock.  Parameters may come
from a JSON config file (--config) keyed by the flag names with
underscores; explicit flags win.  Data files carry no timestamps, so
identical invocations produce byte-identical outputs; only the manifest
records time.

Exit codes: 0 success, 1 usage error, 2 numerical failure,
3 verification failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from . import __version__, checks
from .aronsson import angular_profile, aperture_L, beta_p, kappa_of_L
from .grid import EnergyParams, GridSpec, from_fields, write_csv, write_json
from .solver import (SolverConfig, load_checkpoint, save_checkpoint,
                     solve_extremal)
from .analysis import (decay_profile, estimate_morrey_constant, fit_exponent,
                       gradient_profile)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
EXIT_VERIFY = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; the contract here is 1
    def error(self, message):
        raise UsageError(message)


def _typed(kind, *types):
    """Converter to kind from a flag string or config value of given types."""
    def parse(value):
        if type(value) not in types:
            raise TypeError(f"expected {kind.__name__}, got {json.dumps(value)}")
        return kind(value)
    return parse


_float = _typed(float, str, int, float)
_int = _typed(int, str, int)
_text = _typed(str, str)


def _floats(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip()]


def _float_list(value) -> str:
    """A comma-separated float list, checked and kept as its string."""
    _floats(_text(value))
    return value


def _choice(*choices):
    def parse(value):
        if value not in choices:
            raise ValueError(f"expected one of {choices}, got {value!r}")
        return value
    parse.choices = choices
    return parse


# subcommand -> parameter -> (parse, default); the flag is --name with
# "_" -> "-", and a default of None means unset
_PARAMS = {
    "beta-table": {"p_values": (_float_list, "2.5,3,4,8,16,1000,1000000"),
                   "out_dir": (_text, ".")},
    "aronsson": {"p": (_float, 4.0), "kappa": (_float, None),
                 "L": (_float, None), "n_samples": (_int, 1001),
                 "out_dir": (_text, ".")},
    "solve": {"p": (_float, 4.0), "r_min": (_float, 2.0**-6),
              "r_max": (_float, 2.0**12), "n_s": (_int, 577),
              "n_phi": (_int, 65),
              "eps_schedule": (_float_list, "1e-2,1e-3,1e-4,1e-5,1e-6"),
              "grad_tol": (_float, 1e-9), "energy_rel_tol": (_float, 1e-12),
              "max_iters": (_int, 100), "tag": (_text, "solve"),
              "out_dir": (_text, ".")},
    "analyze": {"checkpoint": (_text, None), "window": (_float_list, None),
                "budget": (_int, 600), "out_dir": (_text, ".")},
    "verify": {"p": (_float, 4.0), "mode": (_choice("quick", "full"), "quick"),
               "out_dir": (_text, ".")},
}


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise UsageError(f"config file {path} must hold a JSON object")
    return cfg


def _effective(args: argparse.Namespace, config: dict) -> dict:
    """Merge defaults < config file (null is unset) < flags, each converted."""
    table = _PARAMS[args.command]
    unknown = sorted(set(config) - set(table))
    if unknown:
        raise UsageError(f"{args.command} takes no config key {unknown}")
    params = {}
    for key, (parse, default) in table.items():
        params[key] = None
        for value in (default, config.get(key), getattr(args, key)):
            if value is None:
                continue
            try:
                params[key] = parse(value)
            except (TypeError, ValueError, OverflowError) as exc:
                raise UsageError(f"bad value for {key}: {exc}") from exc
    return params


def _write_manifest(out_dir: Path, command: str, params: dict,
                    artifacts: list[Path], t0: float) -> Path:
    manifest = {
        "command": command,
        "parameters": params,
        "artifacts": sorted(str(a) for a in artifacts),
        "wall_clock_seconds": time.time() - t0,
        "version": __version__,
    }
    path = out_dir / f"{command.replace('-', '_')}_manifest.json"
    write_json(path, manifest)
    return path


# ---------------------------------------------------------------- beta-table

def cmd_beta_table(params: dict) -> int:
    t0 = time.time()
    out_dir = Path(params["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    try:
        for p in _floats(params["p_values"]):
            bp = beta_p(p)
            rows.append((p, bp, aperture_L(bp, p)))
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    csv_path = out_dir / "beta_table.csv"
    write_csv(csv_path, ["p", "beta_p", "aperture_at_beta"], rows)
    manifest = _write_manifest(out_dir, "beta-table", params, [csv_path], t0)
    print(f"wrote {csv_path} and {manifest}")
    return EXIT_OK


# ------------------------------------------------------------------ aronsson

def cmd_aronsson(params: dict) -> int:
    t0 = time.time()
    if (params["kappa"] is None) == (params["L"] is None):
        raise UsageError("give exactly one of --kappa and --L")
    p = params["p"]
    try:
        kappa = (params["kappa"] if params["kappa"] is not None
                 else kappa_of_L(params["L"], p))
        profile = angular_profile(kappa, p, params["n_samples"])
    except (ValueError, ArithmeticError) as exc:
        raise UsageError(str(exc)) from exc
    out_dir = Path(params["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "aronsson_profile.csv"
    write_csv(csv_path, ["theta", "phi", "f", "fprime", "g"],
              zip(profile.theta, profile.phi, profile.f, profile.fprime,
                  profile.g))
    summary = {
        "p": p,
        "kappa": kappa,
        "aperture_L": profile.params.aperture_L,
        "axis_value": float(profile.f[(len(profile.f) - 1) // 2]),
        "invariants": profile.invariant_report(),
    }
    json_path = out_dir / "aronsson_summary.json"
    write_json(json_path, summary)
    manifest = _write_manifest(out_dir, "aronsson", params,
                               [csv_path, json_path], t0)
    print(f"wrote {csv_path}, {json_path} and {manifest}")
    return EXIT_OK


# --------------------------------------------------------------------- solve

def cmd_solve(params: dict) -> int:
    t0 = time.time()
    try:
        p = EnergyParams(p=params["p"]).p
        spec = from_fields(GridSpec, params)
        solver_config = SolverConfig(
            eps_schedule=_floats(params["eps_schedule"]),
            grad_tol=params["grad_tol"],
            energy_rel_tol=params["energy_rel_tol"],
            max_iters_per_stage=params["max_iters"])
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    result = solve_extremal(spec, p, solver_config)
    out_dir = Path(params["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    base = out_dir / params["tag"]
    field_path, meta_path = save_checkpoint(result, solver_config, base)
    artifacts = [Path(field_path), Path(meta_path)]
    manifest = _write_manifest(out_dir, "solve", params, artifacts, t0)
    print(f"energy={result.energy:.12g} converged={result.converged} "
          f"checkpoint={base} manifest={manifest}")
    if not result.converged:
        print("solver did not converge; partial outputs retained",
              file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


# ------------------------------------------------------------------- analyze

def cmd_analyze(params: dict) -> int:
    t0 = time.time()
    if params["checkpoint"] is None:
        raise UsageError("--checkpoint is required")
    try:
        result, _ = load_checkpoint(params["checkpoint"])
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read checkpoint: {exc}") from exc
    if not result.converged:
        print("checkpoint is not converged", file=sys.stderr)
        return EXIT_NUMERICAL
    window = (tuple(_floats(params["window"])) if params["window"]
              else (4.0, result.grid.spec.r_max / 8.0))
    if len(window) != 2:
        raise UsageError("--window must be 'r_lo,r_hi'")

    profile = decay_profile(result)
    try:
        fit = fit_exponent(profile, window)
        gprofile, gfit = gradient_profile(result, window)
        morrey = estimate_morrey_constant(result, params["budget"])
    except ValueError as exc:
        print(f"analysis failed: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL

    out_dir = Path(params["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    decay_csv = out_dir / "decay_profile.csv"
    write_csv(decay_csv, ["r", "S_r"], zip(profile.radii, profile.sup_values))
    grad_csv = out_dir / "gradient_profile.csv"
    write_csv(grad_csv, ["r", "G_r"], zip(gprofile.radii, gprofile.sup_values))
    bp = beta_p(result.p)
    fit_json = {
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
    json_path = out_dir / "fit_summary.json"
    write_json(json_path, fit_json)
    artifacts = [decay_csv, grad_csv, json_path]
    manifest = _write_manifest(out_dir, "analyze", params, artifacts, t0)
    print(f"beta_hat={fit.beta_hat:.7f} beta_p={bp:.7f} "
          f"C_estimate={morrey.C_estimate:.7f} manifest={manifest}")
    return EXIT_OK


# -------------------------------------------------------------------- verify

def cmd_verify(params: dict) -> int:
    t0 = time.time()
    try:
        p = EnergyParams(p=params["p"]).p
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    report = {
        "p": p,
        "mode": params["mode"],
        "aronsson_identities": checks.cone_identities(p),
        "gradient_consistency": checks.gradient_consistency(p),
        "barrier_synthetic": checks.barrier_controls(p),
    }
    if params["mode"] == "full":
        report["pharmonic_residual"] = checks.cone_residual(p)
        report["coarse_solve"] = checks.coarse_solve(p)
    report["pass"] = all(section["pass"] for key, section in report.items()
                         if isinstance(section, dict))
    out_dir = Path(params["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    json_path = out_dir / "verify_report.json"
    write_json(json_path, report)
    _write_manifest(out_dir, "verify", params, [json_path], t0)
    for key, section in report.items():
        if isinstance(section, dict):
            print(f"{key}: {'PASS' if section['pass'] else 'FAIL'}")
    if not report["pass"]:
        print("verification failed", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


# ---------------------------------------------------------------------- main

def _build_parser() -> _Parser:
    parser = _Parser(prog="morreylab",
                     description="Morrey extremal laboratory")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text) in _COMMANDS.items():
        sp = sub.add_parser(command, help=help_text)
        for name, (parse, _) in _PARAMS[command].items():
            sp.add_argument("--" + name.replace("_", "-"), dest=name,
                            choices=getattr(parse, "choices", None))
        sp.add_argument("--config", default=None)
    return parser


_COMMANDS = {
    "beta-table": (cmd_beta_table, "critical exponent table"),
    "aronsson": (cmd_aronsson, "angular profile of a cone solution"),
    "solve": (cmd_solve, "compute the discrete extremal"),
    "analyze": (cmd_analyze, "profiles, fits and constant estimate"),
    "verify": (cmd_verify, "invariant verification suites"),
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        params = _effective(args, _load_config(args.config))
        return _COMMANDS[args.command][0](params)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
