import json
import math

import numpy as np
import pytest

import morreylab as m
from morreylab import solver
from conftest import warm_refine


TINY_SPEC = m.GridSpec(r_min=2.0**-3, r_max=2.0**4, n_s=29, n_phi=9)


# ------------------------------------------------------------------- config

def test_config_validation():
    with pytest.raises(ValueError):
        m.SolverConfig(eps_schedule=(1e-3, 1e-2))     # not decreasing
    with pytest.raises(ValueError):
        m.SolverConfig(eps_schedule=())
    with pytest.raises(ValueError):
        m.SolverConfig(eps_schedule=(1e-2, 0.0))
    with pytest.raises(ValueError):
        m.SolverConfig(grad_tol=-1.0)
    with pytest.raises(ValueError):
        m.SolverConfig(max_iters_per_stage=0)


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
    # continuation drift is reported along with its predicted bound
    for stage in stages[1:]:
        assert math.isfinite(stage.energy_drift_from_prev)
        assert stage.predicted_drift_bound > 0.0
    assert solve_small.dipole_strength > 0.0


def test_sup_profile_non_increasing(solve_small):
    grid = solve_small.grid
    sup = np.abs(solve_small.field.values).max(axis=1)
    outside = sup[grid.i_pin:]
    assert np.all(np.diff(outside) <= 1e-15)
    assert outside[0] == 1.0


def test_non_convergence_flagged_with_partial_data():
    cfg = m.SolverConfig(eps_schedule=(1e-2, 1e-3), grad_tol=1e-30,
                         energy_rel_tol=1e-30, max_iters_per_stage=1)
    result = m.solve_extremal(TINY_SPEC, 4.0, cfg)
    assert not result.converged
    assert np.all(np.isfinite(result.field.values))
    assert len(result.stages) == 2
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


def test_closed_form_start_shortens_first_stage(solve_p4, solve_p8):
    # min(1, r^-beta_p) sin(phi), which jumps to 0 at r_min, took 23 and 54
    assert solve_p4.stages[0].iterations <= 15
    assert solve_p8.stages[0].iterations <= 30


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


def test_mirror_rejects_unconverged():
    cfg = m.SolverConfig(eps_schedule=(1e-2,), grad_tol=1e-30,
                         energy_rel_tol=1e-30, max_iters_per_stage=1)
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
