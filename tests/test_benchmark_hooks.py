"""The names the benchmark hooks into exist in the package.

perfbench wraps layer functions by (module, attribute) name and calls the
public API as ``m.<name>`` with ``import morreylab as m``.  Its own smoke
test is outside this suite, so a renamed or deleted name would otherwise
go unnoticed here.  perfbench/tracing.py imports only the standard
library and is loaded by path; perfbench/workloads.py is read with ast.
"""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import morreylab
from morreylab import solver

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
