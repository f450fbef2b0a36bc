"""The names the benchmark hooks into exist in the package.

perfbench wraps layer functions by (module, attribute) name and calls the
public API as ``m.<name>`` with ``import morreylab as m``.  Its own smoke
test is outside this suite, so a renamed or deleted name would otherwise
go unnoticed here.  perfbench/tracing.py imports only the standard
library and is loaded by path; perfbench/workloads.py is read with ast.
"""

import ast
import gc
import importlib
import importlib.util
import json
import os
import shutil
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

import morreylab
from morreylab import analysis, aronsson, checks, grid, solver
from test_grid import _reference_band, _reference_sums

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SRC = Path(__file__).resolve().parents[1] / "src"


def _load_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_layer_functions_resolve():
    tracing = _load_tracing()
    assert tracing.LAYER_FUNCTIONS
    missing = [f"{module}.{attr}"
               for module, attr in tracing.LAYER_FUNCTIONS.values()
               if not callable(getattr(importlib.import_module(module), attr,
                                       None))]
    assert missing == []
    for module in tracing.MODULES:
        importlib.import_module(module)


def test_workload_package_attributes_resolve():
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    aliases = {alias.asname for node in ast.walk(tree)
               if isinstance(node, ast.Import)
               for alias in node.names if alias.name == "morreylab"}
    assert aliases == {"m"}
    used = {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "m"}
    assert used
    assert sorted(name for name in used if not hasattr(morreylab, name)) == []


def test_package_namespace_is_the_modules_all():
    # the package declares its public names once, in its modules' __all__
    names = morreylab.__all__
    assert len(names) == len(set(names))
    assert names == ["__version__", *aronsson.__all__, *grid.__all__,
                     *solver.__all__, *analysis.__all__]
    assert [name for name in names if not hasattr(morreylab, name)] == []
    assert set(names) == {
        "__version__",
        "check_p", "ConeParams", "AngularProfile", "beta_p", "aperture_L",
        "kappa_of_L", "angular_profile", "evaluate_w", "invert_phi",
        "pharmonic_residual",
        "GridSpec", "LogPolarGrid", "ScalarField", "EnergyParams",
        "build_grid", "energy", "energy_gradient", "energy_hessian",
        "cell_gradient_sq", "interpolate", "save_field", "load_field",
        "SolverConfig", "StageInfo", "SolveResult", "solve_extremal",
        "FullPlaneField", "mirror_to_fullplane", "save_checkpoint",
        "load_checkpoint",
        "DecayProfile", "DecayFit", "HolderResult", "MorreyEstimate",
        "BarrierReport", "ParameterError", "decay_profile", "default_window",
        "fit_exponent",
        "gradient_profile", "holder_seminorm", "lp_gradient_norm",
        "morrey_estimate", "estimate_morrey_constant", "barrier_check",
    }


def test_every_newton_step_factors_through_splu(monkeypatch):
    # perfbench's solver.factor_* layers time the calls to solver.splu; a
    # solver that factored some other way would leave them empty.
    factor, calls = solver.splu, []

    def counted(*args, **kwargs):
        calls.append(None)
        return factor(*args, **kwargs)

    monkeypatch.setattr(solver, "splu", counted)
    result = morreylab.solve_extremal(
        morreylab.GridSpec(r_min=2.0**-4, r_max=2.0**8, n_s=49, n_phi=17), 4.0)
    assert result.converged
    assert all(st.fallbacks == st.line_search_failures == 0
               for st in result.stages)
    steps = sum(st.iterations for st in result.stages)
    assert steps > 0
    assert len(calls) == steps


def test_solver_evaluates_through_the_traced_names(monkeypatch):
    # perfbench times grid.energy_hessian per Newton step and derives
    # solver.linesearch_trials from the energy calls inside a solve: one
    # per stage start plus one per trial.  On this grid the line search
    # accepts every full Newton step, so each stage's energy history is
    # exactly its energy calls, doubled from the quarter to the half plane.
    energies, hessians = [], []
    energy, energy_hessian = solver.energy, solver.energy_hessian

    def counted_energy(*args):
        energies.append(energy(*args))
        return energies[-1]

    def counted_hessian(*args):
        hessians.append(None)
        return energy_hessian(*args)

    monkeypatch.setattr(solver, "energy", counted_energy)
    monkeypatch.setattr(solver, "energy_hessian", counted_hessian)
    result = morreylab.solve_extremal(
        morreylab.GridSpec(r_min=2.0**-4, r_max=2.0**8, n_s=49, n_phi=17), 4.0)
    assert result.converged
    steps = sum(st.iterations for st in result.stages)
    assert steps > 0
    assert len(hessians) == steps
    assert len(energies) == len(result.stages) + steps
    assert [2.0 * e for e in energies] == [
        e for st in result.stages for e in st.energy_history]


def test_one_gradient_per_newton_iterate(monkeypatch):
    # each stage takes one gradient at its start and one after each
    # accepted step; the dipole strength reuses the final stage's last one
    calls = []
    gradient = solver.energy_gradient

    def counted_gradient(*args, **kwargs):
        calls.append(None)
        return gradient(*args, **kwargs)

    monkeypatch.setattr(solver, "energy_gradient", counted_gradient)
    result = morreylab.solve_extremal(
        morreylab.GridSpec(r_min=2.0**-4, r_max=2.0**8, n_s=49, n_phi=17), 4.0)
    assert result.converged
    steps = sum(st.iterations for st in result.stages)
    assert len(calls) == steps + len(result.stages)


def test_solver_makes_no_kernel_pass_beyond_e_g_and_hessian(monkeypatch):
    # every pass of the kernel inside a solve is one the traced energy,
    # gradient and Hessian layers see, in the counts asserted above
    calls = []
    evaluate = grid._evaluate

    def counted(field, params, want):
        calls.append(want)
        return evaluate(field, params, want)

    monkeypatch.setattr(grid, "_evaluate", counted)
    result = morreylab.solve_extremal(
        morreylab.GridSpec(r_min=2.0**-4, r_max=2.0**8, n_s=49, n_phi=17), 4.0)
    assert result.converged
    steps = sum(st.iterations for st in result.stages)
    stages = len(result.stages)
    assert steps > 0
    assert sorted(set(calls)) == ["energy", "gradient", "hessian"]
    assert calls.count("energy") == stages + steps
    assert calls.count("gradient") == stages + steps
    assert calls.count("hessian") == steps


def test_kernel_tables_are_built_once_per_solve(monkeypatch):
    # the quarter grid a solve makes carries the kernel's tables, so its
    # energy, gradient and Hessian passes share one quadrature build
    built = []
    quadrature = grid._quadrature

    def counted(g):
        built.append(g.n_phi)
        return quadrature(g)

    monkeypatch.setattr(grid, "_quadrature", counted)
    result = morreylab.solve_extremal(
        morreylab.GridSpec(r_min=2.0**-4, r_max=2.0**8, n_s=49, n_phi=17), 4.0)
    assert result.converged
    assert sum(st.iterations for st in result.stages) > 0
    assert built == [9]


def test_the_gradient_check_builds_its_tables_once(monkeypatch):
    # checks.gradient_consistency makes 41 kernel calls (40 energies and a
    # gradient) on one 17 x 9 grid, which builds its tables at the first of
    # them
    built = []
    quadrature = grid._quadrature

    def counted(g):
        built.append(g.n_phi)
        return quadrature(g)

    monkeypatch.setattr(grid, "_quadrature", counted)
    assert checks.gradient_consistency(4.0)["pass"]
    assert built == [9]


@pytest.mark.parametrize("p", [4.0, 8.0])
def test_solver_kernel_outputs_equal_the_reference_sums(p, monkeypatch):
    # the shared tables are the ones a call would build: every E, g and
    # Hessian band the solver computes on its iterates rounds as the plain
    # sums of test_grid's reference helpers, which build their own
    # quadrature.  The solver masks g and factors the band in place, so
    # both are copied.
    seen = []
    for name in ("energy", "energy_gradient", "energy_hessian"):
        def recorded(field, params, _name=name, _fn=getattr(solver, name)):
            out = _fn(field, params)
            kept = out if _name == "energy" else np.array(
                out.values if _name == "energy_gradient" else out)
            seen.append((_name, field, params, kept))
            return out
        monkeypatch.setattr(solver, name, recorded)
    result = morreylab.solve_extremal(
        morreylab.GridSpec(r_min=2.0**-4, r_max=2.0**8, n_s=49, n_phi=17), p)
    assert result.converged
    assert {name for name, *_ in seen} == {"energy", "energy_gradient",
                                           "energy_hessian"}
    for name, field, params, out in seen:
        if name == "energy":
            assert out == _reference_sums(field, params)[0]
        elif name == "energy_gradient":
            assert np.array_equal(out, _reference_sums(field, params)[1])
        else:
            assert np.array_equal(out, _reference_band(field, params))


def test_a_result_reaches_no_kernel_tables(monkeypatch):
    # perfbench keeps every SolveResult of a run, so peak_rss_mb counts
    # what they reach: the quarter grid that holds the kernel's tables is
    # garbage once the solve returns, and the result's half plane gains
    # no attribute
    quarters = {}
    energy = solver.energy

    def watched(field, params):
        assert field.grid.kernel_tables is not None
        quarters[id(field.grid)] = weakref.ref(field.grid)
        return energy(field, params)

    monkeypatch.setattr(solver, "energy", watched)
    spec = morreylab.GridSpec(r_min=2.0**-4, r_max=2.0**8, n_s=49, n_phi=17)
    result = morreylab.solve_extremal(spec, 4.0)
    assert result.converged
    gc.collect()
    assert len(quarters) == 1
    assert [ref() for ref in quarters.values()] == [None]
    assert vars(result.grid).keys() == vars(morreylab.build_grid(spec)).keys()


def test_checkpoint_io_goes_through_the_traced_field_names(monkeypatch,
                                                          tmp_path):
    # perfbench's grid.save_field_s and grid.load_field_s time the calls
    # to solver.save_field and solver.load_field
    calls = []
    for name in ("save_field", "load_field"):
        def counted(*args, _name=name, _fn=getattr(solver, name), **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(solver, name, counted)
    spec = morreylab.GridSpec(r_min=2.0**-4, r_max=2.0**8, n_s=49, n_phi=17)
    field = morreylab.ScalarField(morreylab.build_grid(spec),
                                  np.zeros((spec.n_s, spec.n_phi)))
    result = morreylab.SolveResult(field=field, energy=0.0, stages=[],
                                   converged=True, p=4.0)
    morreylab.save_checkpoint(result, morreylab.SolverConfig(),
                              tmp_path / "ckpt")
    assert calls == ["save_field"]
    loaded, _ = morreylab.load_checkpoint(tmp_path / "ckpt")
    assert calls == ["save_field", "load_field"]
    assert loaded.field.values.tobytes() == field.values.tobytes()


def test_cone_evaluation_inverts_through_the_traced_name(monkeypatch):
    # perfbench's aronsson.invert_phi_calls (16 per post-solve pass) counts
    # the calls to aronsson.invert_phi; each cone evaluation inverts its
    # angles in one call
    calls = []
    invert_phi = aronsson.invert_phi

    def counted(*args):
        calls.append(None)
        return invert_phi(*args)

    monkeypatch.setattr(aronsson, "invert_phi", counted)
    p, bp = 4.0, aronsson.beta_p(4.0)
    g = grid.build_grid(grid.GridSpec(r_min=2.0**-4, r_max=2.0**10,
                                      n_s=113, n_phi=17))
    values = np.minimum(1.0, g.r**-bp)[:, None] * np.sin(g.phi)[None, :]
    result = solver.SolveResult(field=grid.ScalarField(g, values), energy=0.0,
                                stages=[], converged=True, p=p)
    analysis.barrier_check(result, beta=0.9 * bp, tau=0.05 * bp)
    assert len(calls) == 1
    profile = aronsson.angular_profile(bp, p, 200)
    aronsson.pharmonic_residual(profile, p, [(1.0, 0.1), (1.5, -0.2)], h=1e-2)
    assert len(calls) == 2
    checks.barrier_controls(p)
    assert len(calls) == 4
    checks.cone_residual(p)
    assert len(calls) == 6


def test_import_leaves_scipy_sparse_unloaded():
    # setup_s times a fresh `import morreylab`; scipy.sparse alone adds
    # tens of milliseconds to it, and the band Cholesky does not need it
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, morreylab; "
         "print(sorted(k for k in sys.modules if k.startswith('scipy.sparse')))"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


_SCIPY_PROBE = """
import json
import sys
from morreylab import cli


def scipy_loaded():
    return sorted(k for k in sys.modules if k.split(".")[0] == "scipy"
                  and k != "scipy.linalg._flapack")


loaded, versions = {"import": scipy_loaded()}, {}
import numpy as np
import morreylab as m
out = sys.argv[1]
grid = m.build_grid(m.GridSpec(r_min=2.0**-4, r_max=2.0**6, n_s=81, n_phi=17))
values = np.minimum(1.0, grid.r**-0.5)[:, None] * np.sin(grid.phi)[None, :]
m.save_checkpoint(m.SolveResult(field=m.ScalarField(grid, values), energy=0.0,
                                stages=[], converged=True, p=4.0),
                  m.SolverConfig(), out + "/ckpt")
runs = {
    "beta-table": ["beta-table", "--p-values", "3,4"],
    "aronsson": ["aronsson", "--p", "4", "--kappa", "1.0"],
    "verify quick": ["verify", "--p", "4", "--mode", "quick"],
    "analyze": ["analyze", "--checkpoint", out + "/ckpt", "--window", "2,7.5"],
    "solve": ["solve", "--p", "4", "--r-min", "0.0625", "--r-max", "256",
              "--n-s", "49", "--n-phi", "17"],
    "verify full": ["verify", "--p", "4", "--mode", "full"],
}
for name, argv in runs.items():
    assert cli.main(argv + ["--out-dir", out]) == 0, name
    loaded[name] = scipy_loaded()
    manifest = out + "/" + argv[0].replace("-", "_") + "_manifest.json"
    with open(manifest) as fh:
        versions[name] = json.load(fh)["scipy_version"]
print("scipy.linalg._flapack" in sys.modules)
print(loaded)
print(versions)
"""


def test_no_command_loads_scipy_linalg(tmp_path):
    # the scipy.linalg package import is about 0.3 s of a fresh process and
    # scipy's own about 10 ms; solver.splu loads only the LAPACK extension
    # scipy.linalg._flapack, and the manifest reads scipy's version.py
    import scipy
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", _SCIPY_PROBE, str(tmp_path)],
                         env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    flapack, loaded, versions = out.stdout.splitlines()[-3:]
    assert flapack == "True"
    loaded = ast.literal_eval(loaded)
    assert not any(loaded.values()), loaded
    versions = ast.literal_eval(versions)
    assert len(versions) == 6
    assert set(versions.values()) == {scipy.__version__}, versions


def test_post_solve_smoke_passes_its_checks(tmp_path):
    # the benchmark's post-solve workload (analyze, barrier_check, verify
    # --mode full, the cone probe) on tiny grids, with its own correctness
    # checks, from a copy of the harness so that its results stay outside
    # the checkout
    for tree in (PERFBENCH, SRC):
        shutil.copytree(tree, tmp_path / tree.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(PERFBENCH.parent / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "post-solve",
         "--seed", "1", "--seconds", "1", "--trace", "1", "--smoke"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    assert result["metrics"]["analysis.holder_pairs"]["value"] > 0
