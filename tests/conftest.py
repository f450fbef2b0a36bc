import numpy as np
import pytest

import morreylab as m

# desk-scale geometry used by the acceptance criteria
ACC_SPEC = m.GridSpec(r_min=2.0**-6, r_max=2.0**12, n_s=577, n_phi=65)
ACC_SPEC_FINE = m.GridSpec(r_min=2.0**-6, r_max=2.0**12, n_s=1153, n_phi=129)


@pytest.fixture(scope="session")
def solve_small():
    """Fast solve for unit tests (seconds, coarse)."""
    spec = m.GridSpec(r_min=2.0**-4, r_max=2.0**6, n_s=81, n_phi=17)
    result = m.solve_extremal(spec, 4.0)
    assert result.converged
    return result


@pytest.fixture(scope="session")
def solve_p4():
    result = m.solve_extremal(ACC_SPEC, 4.0)
    assert result.converged
    return result


def warm_refine(coarse: m.SolveResult) -> m.SolveResult:
    """Re-solve a desk-scale result on the refined grid, warm-started from
    its interpolant."""
    grid = m.build_grid(ACC_SPEC_FINE)
    rr, pp = np.meshgrid(grid.r, grid.phi, indexing="ij")
    values = np.asarray(
        m.interpolate(coarse.field, rr.ravel(), pp.ravel())).reshape(rr.shape)
    init = m.ScalarField(grid, values)
    config = m.SolverConfig(eps_schedule=(1e-5, 1e-6))
    return m.solve_extremal(ACC_SPEC_FINE, coarse.p, config, initial=init)


@pytest.fixture(scope="session")
def solve_p4_fine(solve_p4):
    """Refined solve warm-started from the base solution."""
    result = warm_refine(solve_p4)
    assert result.converged
    return result


@pytest.fixture(scope="session")
def solve_p8():
    result = m.solve_extremal(ACC_SPEC, 8.0)
    assert result.converged
    return result


def random_even_field(spec: m.GridSpec, seed: int = 3):
    """A random field on the quarter grid, pinned with zero Dirichlet data,
    and its mirror image on the half plane, which is even in x."""
    grid = m.build_grid(spec)
    quarter = grid.quarter()
    rng = np.random.default_rng(seed)
    uq = m.ScalarField(quarter, rng.random((quarter.n_s, quarter.n_phi)))
    uq.apply_dirichlet()
    half = m.ScalarField(grid, np.hstack([uq.values, uq.values[:, -2::-1]]))
    return uq, half


def synthetic_result(grid: m.LogPolarGrid, values: np.ndarray,
                     p: float = 4.0) -> m.SolveResult:
    """Wrap a closed-form field as a converged result for analysis tests."""
    return m.SolveResult(field=m.ScalarField(grid, values), energy=0.0,
                         stages=[], converged=True, p=p)
