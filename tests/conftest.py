import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp

import morreylab as m
from morreylab import grid as grid_module

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


def read_report(path) -> dict:
    """A report (verify_report.json, fit_summary.json) parsed as strict
    JSON: a NaN, Infinity or -Infinity in it is an error."""
    def reject(name):
        raise ValueError(f"not strict JSON: {name} in {path}")
    return json.loads(Path(path).read_text(), parse_constant=reject)


def synthetic_result(grid: m.LogPolarGrid, values: np.ndarray,
                     p: float = 4.0) -> m.SolveResult:
    """Wrap a closed-form field as a converged result for analysis tests."""
    return m.SolveResult(field=m.ScalarField(grid, values), energy=0.0,
                         stages=[], converged=True, p=p)


def listed_evaluator(evaluate, points) -> SimpleNamespace:
    """An evaluator for analysis.holder_seminorm whose candidates are the
    rows of points: evaluate as given, a domain that contains every point,
    and sample_points(index) the rows at index."""
    points = np.asarray(points, dtype=float)
    return SimpleNamespace(
        evaluate=evaluate, sample_count=len(points),
        contains=lambda pts: np.ones(len(pts), dtype=bool),
        sample_points=lambda index: points[index])


def band_matrix(band: np.ndarray) -> sp.csr_matrix:
    """The symmetric matrix of a LAPACK lower band, band[d, c] = A[c+d, c]."""
    n = band.shape[1]
    lower = sp.diags([band[d, :n - d] for d in range(band.shape[0])],
                     [-d for d in range(band.shape[0])], format="csr")
    return (lower + sp.triu(lower.T, k=1)).tocsr()


def coo_hessian(field: m.ScalarField, params: m.EnergyParams) -> sp.csr_matrix:
    """The Hessian on the band's box nodes, assembled as a COO matrix of
    per-cell 4x4 blocks, each the sum over its samples of coef (Jus Jus +
    Jup Jup) + beta c c with c = us Jus + up Jup, then restricted to the
    box in row-major order, with the pinned node's row and column the
    identity."""
    p, v = params.p, field.values
    v4_all = grid_module._cell_corners(v)
    blocks = np.zeros((4, 4, v4_all.shape[1]))
    for cells, w, em, Jus, Jup in grid_module._quadrature(field.grid):
        v4 = v4_all[:, cells]
        us, up = Jus @ v4, Jup @ v4
        q = (us * us + up * up) * em + params.eps**2
        coef = w * q ** (p / 2.0 - 1.0) * em
        beta = (p - 2.0) * w * q ** (p / 2.0 - 2.0) * em * em
        c = us[:, None, :] * Jus[:, :, None] + up[:, None, :] * Jup[:, :, None]
        blocks[:, :, cells] += (np.einsum("kn,ka,kb->abn", coef, Jus, Jus)
                                + np.einsum("kn,ka,kb->abn", coef, Jup, Jup)
                                + np.einsum("kn,kan,kbn->abn", beta, c, c))
    nodes = grid_module._cell_corners(np.arange(v.size).reshape(v.shape))
    rows = np.repeat(nodes, 4, axis=0).ravel()
    cols = np.tile(nodes, (4, 1)).ravel()
    full = sp.coo_matrix((blocks.ravel(), (rows, cols)),
                         shape=(v.size, v.size)).tocsr()
    index = np.arange(v.size).reshape(v.shape)
    box = index[field.grid.free_box()].ravel()
    pin = box == index[field.grid.pin_index]
    keep = sp.diags((~pin).astype(float))
    return (keep @ full[box][:, box] @ keep + sp.diags(pin.astype(float))).tocsr()
