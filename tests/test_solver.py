import dataclasses
import gc
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.linalg import cho_solve_banded, cholesky_banded
from scipy.sparse.linalg import splu

import morreylab as m
from morreylab import solver
from conftest import ACC_SPEC, coo_hessian, random_even_field, warm_refine


TINY_SPEC = m.GridSpec(r_min=2.0**-3, r_max=2.0**4, n_s=29, n_phi=9)
SRC = Path(__file__).resolve().parents[1] / "src"


# ------------------------------------------------------------------- config

def test_config_validation():
    with pytest.raises(ValueError):
        m.SolverConfig(eps_schedule=(1e-3, 1e-2))     # not decreasing
    with pytest.raises(ValueError):
        m.SolverConfig(eps_schedule=())
    with pytest.raises(ValueError):
        m.SolverConfig(eps_schedule=(1e-2, 0.0))
    with pytest.raises(ValueError):
        m.SolverConfig(eps_schedule=(math.inf, 1e-3))
    with pytest.raises(ValueError):
        m.SolverConfig(eps_schedule=(1e-2, math.nan))
    with pytest.raises(ValueError):
        m.SolverConfig(grad_tol=-1.0)


def test_config_round_trip(tmp_path, solve_small):
    cfg = m.SolverConfig(eps_schedule=(1e-3, 1e-5), grad_tol=1e-8)
    base = tmp_path / "ckpt"
    m.save_checkpoint(solve_small, cfg, base)
    assert m.load_checkpoint(base)[1] == cfg


# ---------------------------------------------------------------- solutions

def test_small_solve_contracts(solve_small):
    result = solve_small
    grid = result.grid
    v = result.field.values
    assert result.converged
    assert result.stages[-1].grad_sup <= 1e-9
    # constraints hold exactly
    assert np.all(v[0, :] == 0.0) and np.all(v[-1, :] == 0.0)
    assert np.all(v[:, 0] == 0.0) and np.all(v[:, -1] == 0.0)
    assert v[grid.pin_index] == 1.0
    # discrete maximum principle and unique peak at the pin
    assert v.min() >= 0.0 and v.max() <= 1.0
    assert np.unravel_index(np.argmax(v), v.shape) == grid.pin_index
    flat = np.sort(v.ravel())
    assert flat[-2] < 1.0


def test_energy_monotone_within_stages(solve_small):
    for stage in solve_small.stages:
        hist = stage.energy_history
        assert all(b <= a + 1e-15 * max(1.0, abs(a))
                   for a, b in zip(hist, hist[1:]))


def test_stage_diagnostics_recorded(solve_small):
    stages = solve_small.stages
    assert [st.eps for st in stages] == list(m.SolverConfig().eps_schedule)
    assert all(st.line_search_failures == 0 for st in stages)
    # the per-stage keys of solve.json; the continuation drift is the
    # difference of consecutive stage energies
    assert [f.name for f in dataclasses.fields(m.StageInfo)] == [
        "eps", "iterations", "energy", "grad_sup", "converged",
        "line_search_failures", "fallbacks", "energy_history"]
    assert all(math.isfinite(st.energy) for st in stages)
    assert solve_small.dipole_strength > 0.0


def test_sup_profile_non_increasing(solve_small):
    grid = solve_small.grid
    sup = np.abs(solve_small.field.values).max(axis=1)
    outside = sup[grid.i_pin:]
    assert np.all(np.diff(outside) <= 1e-15)
    assert outside[0] == 1.0


def test_non_convergence_flagged_with_partial_data(monkeypatch):
    monkeypatch.setattr(solver, "_MAX_ITERS_PER_STAGE", 1)
    cfg = m.SolverConfig(eps_schedule=(1e-2, 1e-3), grad_tol=1e-30)
    result = m.solve_extremal(TINY_SPEC, 4.0, cfg)
    assert not result.converged
    assert np.all(np.isfinite(result.field.values))
    assert [st.iterations for st in result.stages] == [1, 1]
    assert result.stages[-1].grad_sup > 1e-30


def test_warm_start_requires_matching_grid(solve_small):
    with pytest.raises(ValueError):
        m.solve_extremal(TINY_SPEC, 4.0, initial=solve_small.field)


def test_minimizer_independent_of_start(solve_small):
    # convexity: a cold start on the same grid reaches the same field
    spec = solve_small.grid.spec
    grid = m.build_grid(spec)
    rng = np.random.default_rng(11)
    init = m.ScalarField(grid, 0.5 * rng.random((spec.n_s, spec.n_phi)))
    init.apply_dirichlet()
    other = m.solve_extremal(spec, 4.0, initial=init)
    assert other.converged
    assert np.abs(other.field.values - solve_small.field.values).max() < 1e-6


@pytest.mark.parametrize("p", [2.5, 4.0, 8.0, 24.0])
def test_closed_form_start_has_no_boundary_layer(monkeypatch, p):
    # the radial factor is 0 on both rims and 1 at the pin, so
    # apply_dirichlet changes none of the columns the quarter solve reads
    grid = m.build_grid(ACC_SPEC)
    monkeypatch.setattr(m.ScalarField, "apply_dirichlet", lambda self: self)
    start = solver._initial_field(grid, p).values[:, :grid.j_pin + 1]
    monkeypatch.undo()
    fixed = m.ScalarField(grid.quarter(), start.copy()).apply_dirichlet()
    assert np.array_equal(fixed.values, start)
    assert start[grid.pin_index] == 1.0
    assert start.min() >= 0.0 and start.max() <= 1.0


def test_closed_form_start_shortens_first_stage(solve_p4, solve_p8):
    # min(r, r^-beta_p) sin(phi), zeroed at r_min, started 41 and 2e8 times
    # above the minimum, in a one-cell layer of slope about 1/ds, and took
    # 13 and 28 steps; min(1, r^-beta_p) sin(phi) took 23 and 54
    assert solve_p4.stages[0].energy_history[0] <= 3.0 * solve_p4.energy
    assert solve_p8.stages[0].energy_history[0] <= 4.0 * solve_p8.energy
    assert solve_p4.stages[0].iterations <= 8
    assert solve_p8.stages[0].iterations <= 20


def test_stage_end_robust_to_roundoff_in_direction(monkeypatch, solve_p4,
                                                   solve_p4_fine):
    # The refinement's last step in stage one changes the energy by a few
    # ulp; a relative perturbation of 1e-14 in every Newton direction must
    # not decide whether it is accepted.
    factor = solver.splu

    class PerturbedLU:
        def __init__(self, lu):
            self.lu = lu

        def solve(self, rhs):
            d = self.lu.solve(rhs)
            return d * (1.0 + 1e-14 * np.cos(np.arange(d.size)))

    monkeypatch.setattr(solver, "splu",
                        lambda *args, **kw: PerturbedLU(factor(*args, **kw)))
    result = warm_refine(solve_p4)
    assert result.converged
    assert ([st.iterations for st in result.stages]
            == [st.iterations for st in solve_p4_fine.stages])
    assert np.abs(result.field.values - solve_p4_fine.field.values).max() < 1e-10


def test_factorization_failure_counted_as_fallback(monkeypatch, tmp_path,
                                                   solve_small):
    assert all(st.fallbacks == 0 for st in solve_small.stages)
    factor, calls = solver.splu, []

    def fails_once(*args, **kw):
        calls.append(None)
        if len(calls) == 1:
            raise RuntimeError("Factor is exactly singular")
        return factor(*args, **kw)

    monkeypatch.setattr(solver, "splu", fails_once)
    result = m.solve_extremal(solve_small.grid.spec, 4.0)
    assert result.converged
    assert [st.fallbacks for st in result.stages] == [1, 0, 0, 0, 0]
    assert np.abs(result.field.values - solve_small.field.values).max() < 1e-6
    # written to the sidecar, read back, and 0 when an older sidecar lacks it
    base = tmp_path / "ck"
    m.save_checkpoint(result, m.SolverConfig(), base)
    meta = json.loads((tmp_path / "ck.json").read_text())
    assert [d["fallbacks"] for d in meta["stages"]] == [1, 0, 0, 0, 0]
    loaded, _ = m.load_checkpoint(base)
    assert [st.fallbacks for st in loaded.stages] == [1, 0, 0, 0, 0]
    for d in meta["stages"]:
        del d["fallbacks"]
    (tmp_path / "ck.json").write_text(json.dumps(meta))
    loaded, _ = m.load_checkpoint(base)
    assert [st.fallbacks for st in loaded.stages] == [0, 0, 0, 0, 0]


# --------------------------------------------------------- band Cholesky

@pytest.mark.parametrize("spec", [
    m.GridSpec(r_min=2.0**-4, r_max=2.0**8, n_s=49, n_phi=17),
    m.GridSpec(r_min=2.0**-6, r_max=2.0**12, n_s=145, n_phi=33)])
def test_band_direction_matches_superlu(spec):
    # the Newton direction of the band factor against SuperLU on the COO
    # assembly of the free nodes; the pin's component is exactly 0
    grid = m.build_grid(spec)
    quarter = grid.quarter()
    field = m.ScalarField(
        quarter, solver._initial_field(grid, 4.0).values[:, :quarter.n_phi])
    params = m.EnergyParams(p=4.0, eps=1e-3)
    box = quarter.free_box()
    pin = np.zeros(field.values.shape, dtype=bool)
    pin[quarter.pin_index] = True
    pin = pin[box].ravel()
    rhs = -m.energy_gradient(field, params).values[box].ravel()
    rhs[pin] = 0.0      # the Newton stage masks the pinned node
    band = m.energy_hessian(field, params)
    assert band.shape == (quarter.n_phi + 1, rhs.size)
    factor = solver.splu(band)
    assert factor.nnz == band.size
    direction = factor.solve(rhs)
    assert direction[pin] == 0.0
    free = ~pin
    hess = coo_hessian(field, params)[free][:, free].tocsc()
    expected = splu(hess).solve(rhs[free])
    assert (np.abs(direction[free] - expected).max()
            <= 1e-12 * np.abs(expected).max())


def start_band(spec, p=4.0):
    """Hessian band of the closed-form start on the spec's quarter grid."""
    grid = m.build_grid(spec)
    quarter = grid.quarter()
    field = m.ScalarField(
        quarter, solver._initial_field(grid, p).values[:, :quarter.n_phi])
    return m.energy_hessian(field, m.EnergyParams(p=p, eps=1e-3))


@pytest.mark.parametrize("spec", [
    m.GridSpec(r_min=2.0**-6, r_max=2.0**12, n_s=145, n_phi=33),
    m.GridSpec(r_min=2.0**-6, r_max=2.0**12, n_s=1153, n_phi=129)])
def test_band_factor_equals_cholesky_banded(spec):
    # splu calls the dpbtrf and dpbtrs that cholesky_banded and
    # cho_solve_banded call; at 1153 x 129 LAPACK takes its blocked path
    band = start_band(spec)
    rhs = np.cos(np.arange(band.shape[1]))
    expected = cholesky_banded(band.copy(order="F"), lower=True)
    factor = solver.splu(band)
    assert np.array_equal(band, expected)       # factored in place
    assert np.array_equal(factor.solve(rhs),
                          cho_solve_banded((expected, True), rhs))


_LOAD_PROBE = """
import sys
from types import SimpleNamespace
import numpy as np
import morreylab as m
from morreylab import solver
if sys.argv[1] == "no-file":
    solver.PathFinder = SimpleNamespace(find_spec=lambda name, path: None)
spec = m.GridSpec(r_min=2.0**-6, r_max=2.0**12, n_s=145, n_phi=33)
grid = m.build_grid(spec)
quarter = grid.quarter()
field = m.ScalarField(
    quarter, solver._initial_field(grid, 4.0).values[:, :quarter.n_phi])
band = m.energy_hessian(field, m.EnergyParams(p=4.0, eps=1e-3))
rhs = np.cos(np.arange(band.shape[1]))
expected = band.copy(order="F")
direction = solver.splu(band).solve(rhs)
paid = "scipy.linalg" in sys.modules
import scipy.linalg
expected = scipy.linalg.cholesky_banded(expected, lower=True)
print(paid, scipy.linalg.lapack._flapack is sys.modules["scipy.linalg._flapack"],
      np.array_equal(band, expected), np.array_equal(
          direction, scipy.linalg.cho_solve_banded((expected, True), rhs)))
"""


@pytest.mark.parametrize("how, paid", [("by-path", False), ("no-file", True)])
def test_lapack_load_is_shared_with_scipy_linalg(how, paid):
    # by path, splu leaves scipy.linalg unimported and a later import of it
    # reuses the same _flapack; where no file is found, the ordinary import
    # gives the same module, with scipy.linalg's import paid
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", _LOAD_PROBE, how], env=env,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == [str(paid), "True", "True", "True"]


def test_band_factor_rejects_a_non_positive_pivot():
    band = np.asfortranarray([[1.0, -1.0, 1.0], [2.0, 0.5, 0.0]])
    with pytest.raises(RuntimeError,
                       match="leading minor not positive definite"):
        solver.splu(band)


def test_band_factor_raises_on_a_lapack_argument_error(monkeypatch):
    lapack = solver._flapack()
    band = start_band(m.GridSpec(r_min=2.0**-4, r_max=2.0**8, n_s=49, n_phi=17))
    monkeypatch.setattr(solver, "_flapack", lambda: SimpleNamespace(
        dpbtrf=lambda ab, **kw: (ab, -1), dpbtrs=lapack.dpbtrs))
    with pytest.raises(ValueError):
        solver.splu(band.copy(order="F"))
    monkeypatch.setattr(solver, "_flapack", lambda: SimpleNamespace(
        dpbtrf=lapack.dpbtrf, dpbtrs=lambda ab, b, **kw: (b.copy(), -2)))
    factor = solver.splu(band)
    with pytest.raises(ValueError):
        factor.solve(np.ones(band.shape[1]))


def test_band_factor_leaves_no_reference_cycle():
    spec = m.GridSpec(2.0**-6, 2.0**12, 145, 33)
    uq, _ = random_even_field(spec)
    params = m.EnergyParams(p=4.0, eps=1e-3)
    gc.collect()
    gc.disable()
    try:
        for _ in range(3):
            band = m.energy_hessian(uq, params)
            solver.splu(band).solve(np.ones(band.shape[1]))
        del band
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_solve_caches_nothing_on_the_grid(solve_small):
    # perfbench keeps every result, so per-solve state must not ride on it
    fresh = m.build_grid(solve_small.grid.spec)
    assert vars(solve_small.grid).keys() == vars(fresh).keys()
    assert vars(solve_small).keys() == {f.name for f in
                                        dataclasses.fields(m.SolveResult)}


# ------------------------------------------------------------ quarter plane

@pytest.mark.parametrize("spec", [
    m.GridSpec(r_min=2.0**-4, r_max=2.0**8, n_s=49, n_phi=17),
    m.GridSpec(r_min=2.0**-6, r_max=2.0**12, n_s=145, n_phi=33)])
@pytest.mark.parametrize("p", [4.0, 8.0])
def test_quarter_newton_direction_matches_half_plane(spec, p):
    uq, half = random_even_field(spec, seed=8)
    params = m.EnergyParams(p=p, eps=1e-3)
    directions = []
    for field in (half, uq):
        box = field.grid.free_box()
        grad = m.energy_gradient(field, params).values
        grad[field.grid.constrained_mask()] = 0.0
        d = np.zeros_like(grad)
        d[box] = solver.splu(m.energy_hessian(field, params)).solve(
            -grad[box].ravel()).reshape(d[box].shape)
        directions.append(d)
    d_half, d_quarter = directions
    assert (np.abs(d_half[:, :uq.grid.n_phi] - d_quarter).max()
            <= 1e-12 * np.abs(d_half).max())


def test_stage_reports_half_plane_quantities(monkeypatch):
    # F = 2 E_quarter is the half-plane energy of the mirrored field; the
    # stop test reads the half-plane gradient, twice the quarter's on the
    # axis column; the dipole strength is the half plane's too.  Two steps
    # per stage leave all of them far from roundoff.
    monkeypatch.setattr(solver, "_MAX_ITERS_PER_STAGE", 2)
    cfg = m.SolverConfig(eps_schedule=(1e-2, 1e-3), grad_tol=1e-30)
    result = m.solve_extremal(TINY_SPEC, 4.0, cfg)
    stage, field = result.stages[-1], result.field
    params = m.EnergyParams(p=4.0, eps=1e-3)
    g = m.energy_gradient(field, params).values
    assert math.isclose(result.dipole_strength, g[result.grid.pin_index],
                        rel_tol=1e-12)
    g[result.grid.constrained_mask()] = 0.0
    assert math.isclose(stage.grad_sup, np.abs(g).max(), rel_tol=1e-12)
    assert math.isclose(stage.energy, m.energy(field, params), rel_tol=1e-14)


def test_solved_fields_are_exactly_even(solve_small, solve_p4, solve_p8,
                                        solve_p4_fine):
    for result in (solve_small, solve_p4, solve_p8, solve_p4_fine):
        v = result.field.values
        assert v.shape == (result.grid.n_s, result.grid.spec.n_phi)
        assert np.array_equal(v, v[:, ::-1])


# ------------------------------------------------------------ odd extension

def test_mirror_pinned_and_axis_values(solve_small):
    full = m.mirror_to_fullplane(solve_small)
    assert full.evaluate(np.array([0.0, 1.0])) == 1.0
    assert full.evaluate(np.array([0.0, -1.0])) == -1.0
    assert full.evaluate(np.array([2.0, 0.0])) == 0.0
    assert full.evaluate(np.array([-3.0, 0.0])) == 0.0


def test_mirror_antisymmetry_exact(solve_small):
    full = m.mirror_to_fullplane(solve_small)
    rng = np.random.default_rng(5)
    r = rng.uniform(0.2, 12.0, size=100)
    phi = rng.uniform(1e-3, np.pi - 1e-3, size=100)
    pts = np.column_stack([r * np.cos(phi), r * np.sin(phi)])
    mirrored = pts * np.array([1.0, -1.0])
    total = full.evaluate(pts) + full.evaluate(mirrored)
    assert np.all(total == 0.0)


def test_mirror_rejects_unconverged(monkeypatch):
    monkeypatch.setattr(solver, "_MAX_ITERS_PER_STAGE", 1)
    cfg = m.SolverConfig(eps_schedule=(1e-2,), grad_tol=1e-30)
    result = m.solve_extremal(TINY_SPEC, 4.0, cfg)
    with pytest.raises(ValueError):
        m.mirror_to_fullplane(result)


# --------------------------------------------------------------- checkpoint

def test_checkpoint_round_trip(tmp_path, solve_small):
    cfg = m.SolverConfig()
    base = tmp_path / "ck"
    field_path, meta_path = m.save_checkpoint(solve_small, cfg, base)
    assert field_path.endswith(".field") and meta_path.endswith(".json")
    loaded, cfg2 = m.load_checkpoint(base)
    assert cfg2 == cfg
    assert loaded.converged == solve_small.converged
    assert loaded.p == solve_small.p
    assert loaded.energy == solve_small.energy
    assert np.array_equal(loaded.field.values, solve_small.field.values)
    assert len(loaded.stages) == len(solve_small.stages)
    assert loaded.stages[-1].grad_sup == solve_small.stages[-1].grad_sup


def test_checkpoint_rejects_corruption(tmp_path, solve_small):
    base = tmp_path / "ck"
    m.save_checkpoint(solve_small, m.SolverConfig(), base)
    (tmp_path / "ck.json").write_text('{"format": "something-else"}')
    with pytest.raises(ValueError):
        m.load_checkpoint(base)
