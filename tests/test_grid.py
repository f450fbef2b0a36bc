import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import morreylab as m
from morreylab import grid as grid_module
from morreylab.grid import open_new
from conftest import band_matrix, coo_hessian, random_even_field


def small_spec(n_s=81, n_phi=17):
    return m.GridSpec(r_min=2.0**-4, r_max=2.0**6, n_s=n_s, n_phi=n_phi)


def random_interior_field(grid, seed=0):
    rng = np.random.default_rng(seed)
    field = m.ScalarField(grid, rng.standard_normal((grid.n_s, grid.n_phi)))
    return field.apply_dirichlet(), rng


# ----------------------------------------------------------------- geometry

def test_three_node_grids():
    g = m.build_grid(m.GridSpec(r_min=math.exp(-1), r_max=math.exp(1),
                                n_s=3, n_phi=3))
    assert np.array_equal(g.s, [-1.0, 0.0, 1.0])
    assert np.array_equal(g.phi, [0.0, np.pi / 2, np.pi])
    assert g.pin_index == (1, 1)
    assert g.r[1] == 1.0


def test_pin_node_exact_on_production_grid():
    g = m.build_grid(m.GridSpec(r_min=2.0**-6, r_max=2.0**12, n_s=577, n_phi=65))
    i0, j0 = g.pin_index
    assert g.s[i0] == 0.0
    assert g.r[i0] == 1.0
    assert g.phi[j0] == 0.5 * np.pi


@pytest.mark.parametrize("kwargs", [
    dict(r_min=1.5, r_max=4.0, n_s=9, n_phi=9),      # r_min >= 1
    dict(r_min=0.5, r_max=0.9, n_s=9, n_phi=9),      # r_max <= 1
    dict(r_min=0.25, r_max=4.0, n_s=9, n_phi=8),     # even n_phi
    dict(r_min=0.25, r_max=4.0, n_s=2, n_phi=9),     # too few s nodes
    dict(r_min=0.5, r_max=math.e, n_s=3, n_phi=9),   # s = 0 not on grid
    dict(r_min=2.0**-6, r_max=4.784065733063811e+198,
         n_s=112, n_phi=9),                          # r_max**2 overflows
    dict(r_min=2.0**-660, r_max=64.0, n_s=667, n_phi=9),  # r_min**-2 overflows
    # PiB of nodes, which numpy refuses at once
    dict(r_min=2.0**-4, r_max=2.0**8, n_s=10**13 + 1, n_phi=65),
    dict(r_min=2.0**-4, r_max=2.0**8, n_s=577, n_phi=10**13 + 1),
])
def test_spec_rejections(kwargs):
    with pytest.raises(ValueError):
        m.GridSpec(**kwargs)


def test_area_is_exact():
    g = m.build_grid(small_spec())
    assert abs(g.cell_weight.sum() - g.area()) < 1e-12 * g.area()


# ------------------------------------------------------------------- energy

def test_energy_zero_field():
    g = m.build_grid(small_spec())
    f = m.ScalarField(g, np.zeros((g.n_s, g.n_phi)))
    assert m.energy(f, m.EnergyParams(p=4.0, eps=0.0)) == 0.0


def test_energy_constant_integrand_exact():
    g = m.build_grid(small_spec())
    f = m.ScalarField(g, np.zeros((g.n_s, g.n_phi)))
    eps = 0.37
    expected = eps**4 / 4.0 * g.area()
    got = m.energy(f, m.EnergyParams(p=4.0, eps=eps))
    assert abs(got - expected) < 1e-14 * expected


def test_energy_unit_gradient_second_order():
    # u = y has |grad u| = 1, so the p-energy is area/p
    errs = []
    for n_s, n_phi in ((81, 17), (161, 33)):
        g = m.build_grid(small_spec(n_s, n_phi))
        f = m.ScalarField(g, np.exp(g.s)[:, None] * np.sin(g.phi)[None, :])
        e = m.energy(f, m.EnergyParams(p=4.0, eps=0.0))
        exact = g.area() / 4.0
        errs.append(abs(e - exact) / exact)
    assert errs[0] < 0.01
    assert 3.0 < errs[0] / errs[1] < 5.0


def reference_energy(field, p, eps, k=8):
    """Plain-loop evaluation of the discrete energy, one cell at a time.

    The gradient of the bilinear interpolant is integrated by the 2x2
    corner rule (cell_weight/4 per corner, e^{-2s} at the cell centre),
    except on the four cells around the pinned node, which use the k x k
    midpoint rule with the exact mass of e^{2s} over each radial strip.
    """
    g = field.grid
    v = field.values
    i0, j0 = g.pin_index
    total = 0.0
    for i in range(g.n_s - 1):
        for j in range(g.n_phi - 1):
            v00, v10 = v[i, j], v[i + 1, j]
            v01, v11 = v[i, j + 1], v[i + 1, j + 1]

            def integrand(a, b, em):
                us = ((1 - b) * (v10 - v00) + b * (v11 - v01)) / g.ds
                up = ((1 - a) * (v01 - v00) + a * (v11 - v10)) / g.dphi
                return ((us * us + up * up) * em + eps * eps) ** (p / 2)

            if i in (i0 - 1, i0) and j in (j0 - 1, j0):
                for ka in range(k):
                    s_lo, s_hi = g.s[i] + ka * g.ds / k, g.s[i] + (ka + 1) * g.ds / k
                    mass = 0.5 * (math.exp(2 * s_hi) - math.exp(2 * s_lo)) * g.dphi / k
                    a = (ka + 0.5) / k
                    em = math.exp(-2 * (g.s[i] + a * g.ds))
                    for kb in range(k):
                        total += mass * integrand(a, (kb + 0.5) / k, em)
            else:
                em = math.exp(-(g.s[i] + g.s[i + 1]))
                total += g.cell_weight[i, j] / 4 * sum(
                    integrand(a, b, em) for a in (0, 1) for b in (0, 1))
    return total / p


@pytest.mark.parametrize("p", [4.0, 8.0])
def test_energy_matches_per_cell_reference(p):
    g = m.build_grid(small_spec(41, 9))
    field, _ = random_interior_field(g, seed=11)
    eps = 0.05
    got = m.energy(field, m.EnergyParams(p=p, eps=eps))
    ref = reference_energy(field, p, eps)
    assert abs(got - ref) < 1e-13 * abs(ref)


@pytest.mark.parametrize("p", [2.0, 1.5, -3.0, math.nan, math.inf,
                               2.0**53, 1e16, 1e16 + 2, 1e17])
def test_one_rule_rejects_p(p):
    # check_p is the package's one test of p, both ends of its domain; the
    # energy and the cone family both defer to it
    for make in (m.check_p, lambda p: m.EnergyParams(p=p, eps=0.0),
                 lambda p: m.ConeParams(p, 0.5)):
        with pytest.raises(ValueError, match=re.escape(
                f"p must be in (2, 2**53), got {p}")):
            make(p)


def test_energy_params_need_eps_and_keep_p_as_a_float():
    with pytest.raises(TypeError):
        m.EnergyParams(p=4.0)
    assert type(m.EnergyParams(p=4, eps=0.0).p) is float


def test_energy_rejects_non_finite():
    g = m.build_grid(small_spec())
    f = m.ScalarField(g, np.zeros((g.n_s, g.n_phi)))
    f.values[5, 5] = np.nan
    with pytest.raises(ValueError):
        m.energy(f, m.EnergyParams(p=4.0, eps=0.1))


def test_overflowing_energy_is_inf_without_a_warning():
    # q^(p/2) overflows on every sample next to a spike at the pin, the
    # pin cells' corner samples of mass 0 among them, where inf * 0 is NaN;
    # the suite turns numpy's RuntimeWarning into an error
    g = m.build_grid(m.GridSpec(r_min=2.0**-4, r_max=2.0**8, n_s=49, n_phi=17))
    f = m.ScalarField(g, np.zeros((g.n_s, g.n_phi)))
    f.values[g.pin_index] = 1e3
    assert m.energy(f, m.EnergyParams(p=128.0, eps=1e-2)) == math.inf


def test_energy_convexity_surrogate():
    g = m.build_grid(small_spec(41, 9))
    rng = np.random.default_rng(7)
    params = m.EnergyParams(p=4.0, eps=0.0)
    for _ in range(10):
        u = m.ScalarField(g, rng.standard_normal((41, 9)))
        v = m.ScalarField(g, rng.standard_normal((41, 9)))
        lam = rng.uniform(0.05, 0.95)
        mix = m.ScalarField(g, lam * u.values + (1 - lam) * v.values)
        lhs = m.energy(mix, params)
        rhs = lam * m.energy(u, params) + (1 - lam) * m.energy(v, params)
        assert lhs <= rhs * (1 + 1e-12) + 1e-12


def test_energy_reflection_symmetry():
    g = m.build_grid(small_spec())
    f, _ = random_interior_field(g)
    params = m.EnergyParams(p=4.0, eps=0.05)
    mirrored = m.ScalarField(g, f.values[:, ::-1])
    e1, e2 = m.energy(f, params), m.energy(mirrored, params)
    assert abs(e1 - e2) < 1e-13 * max(1.0, abs(e1))


def _reference_sums(field, params):
    """E and the unmasked gradient as plain expressions over the samples of
    every quadrature rule."""
    p, e = params.p, 0.0
    v4_all = grid_module._cell_corners(field.values)
    g4_all = np.zeros_like(v4_all)
    for cells, w, em, Jus, Jup in grid_module._quadrature(field.grid):
        v4 = v4_all[:, cells]
        us, up = Jus @ v4, Jup @ v4
        q = (us * us + up * up) * em + params.eps**2
        e += float((w * q ** (p / 2.0)).sum()) / p
        wq = w * q ** (p / 2.0 - 1.0)
        coef = wq * em
        g4_all[:, cells] += Jus.T @ (coef * us) + Jup.T @ (coef * up)
    grad = np.zeros_like(field.values)
    for k, c in enumerate(grid_module._CORNERS):
        grad[c] += g4_all[k].reshape(grad[c].shape)
    return e, grad


def _reference_band(field, params):
    """The Hessian band from one whole-array pass: every cell's sixteen
    block entries, the corner rule's and then the pin rule's, folded into
    the five diagonals, each entry summing its cells in ascending a, and
    copied into LAPACK band storage with the pin's row and column the
    identity."""
    p, v = params.p, field.values
    outer = grid_module._outer
    v4_all = grid_module._cell_corners(v)
    blocks = np.zeros((16, v4_all.shape[1]))
    for cells, w, em, Jus, Jup in grid_module._quadrature(field.grid):
        v4 = v4_all[:, cells]
        us, up = Jus @ v4, Jup @ v4
        q = (us * us + up * up) * em + params.eps**2
        coef = q ** (p / 2.0 - 1.0) * w * em
        beta = (p - 2.0) * w * q ** (p / 2.0 - 2.0) * em * em
        blocks[:, cells] += (outer(Jus, Jus) @ (coef + beta * us * us)
                             + (outer(Jus, Jup) + outer(Jup, Jus)) @ (beta * us * up)
                             + outer(Jup, Jup) @ (coef + beta * up * up))
    n_s, n_phi = v.shape
    blocks = blocks.reshape(16, n_s - 1, n_phi - 1)
    n_i, w = v[field.grid.free_box()].shape
    diags = {d: np.zeros((n_i, w)) for d in (0, 1, w - 1, w, w + 1)}
    for a, b in np.ndindex(4, 4):
        (ja, ia), (jb, ib) = divmod(a, 2), divmod(b, 2)
        di, dj = ib - ia, jb - ja
        if (di, dj) >= (0, 0):
            i = slice(0, n_i - di)
            j = slice(max(0, -dj), min(w - max(0, dj), n_phi - 2 + ja))
            diags[di * w + dj][i, j] += blocks[4 * a + b, 1 - ia:, 1 - ja:][i, j]
    band = np.zeros((n_i, w, w + 2))
    for d, diag in diags.items():
        band[:, :, d] = diag
    band = band.reshape(n_i * w, w + 2).T
    pin = (field.grid.i_pin - 1) * w + field.grid.j_pin - 1
    d = np.arange(1, min(w + 1, pin) + 1)
    band[:, pin] = 0.0
    band[d, pin - d] = 0.0
    band[0, pin] = 1.0
    return band


@pytest.mark.parametrize("p", [2.5, 4.0, 8.0])
def test_energy_and_gradient_bitwise_equal_to_reference_sums(p):
    # the kernel works in place and in strips; the Armijo test's roundoff
    # allowance makes stage ends depend on E's last bits, so it must round
    # as the plain sums
    for spec in QUARTER_SPECS + [STRIP_SPEC]:
        uq, half = random_even_field(spec, seed=int(p * 2))
        rng = np.random.default_rng(int(p))
        noisy = m.ScalarField(half.grid, rng.standard_normal(half.values.shape))
        for field in (uq, half, noisy.apply_dirichlet()):
            for eps in (0.0, 1e-3):
                params = m.EnergyParams(p=p, eps=eps)
                e, grad = _reference_sums(field, params)
                assert m.energy(field, params) == e
                assert np.array_equal(
                    m.energy_gradient(field, params).values, grad)


# ------------------------------------------------------------ quarter plane

QUARTER_SPECS = [m.GridSpec(r_min=2.0**-4, r_max=2.0**8, n_s=49, n_phi=17),
                 m.GridSpec(r_min=2.0**-6, r_max=2.0**12, n_s=145, n_phi=33)]
# 9,216 cells on the half plane: three strips of grid._STRIP_CELLS = 4096,
# the last a short one; two on the quarter
STRIP_SPEC = m.GridSpec(r_min=2.0**-6, r_max=2.0**12, n_s=289, n_phi=33)


def test_quarter_grid_columns_and_constraints():
    grid = m.build_grid(QUARTER_SPECS[1])
    quarter = grid.quarter()
    assert quarter.n_phi == grid.j_pin + 1
    assert quarter.pin_index == grid.pin_index == (grid.i_pin, quarter.n_phi - 1)
    assert np.array_equal(quarter.phi, grid.phi[:quarter.n_phi])
    assert quarter.phi[-1] == 0.5 * np.pi
    assert quarter.area() == 0.5 * grid.area()
    assert abs(quarter.cell_weight.sum() - quarter.area()) < 1e-12 * quarter.area()
    fixed = quarter.constrained_mask()
    assert fixed[0].all() and fixed[-1].all() and fixed[:, 0].all()
    axis = np.flatnonzero(fixed[:, -1])
    assert list(axis) == [0, grid.i_pin, grid.n_s - 1]
    assert np.array_equal(fixed[:, :-1], grid.constrained_mask()[:, :quarter.n_phi - 1])
    # the half plane's Dirichlet column at phi = pi is untouched
    assert grid.constrained_mask()[:, -1].all()


@pytest.mark.parametrize("n_phi", [3, 5, 17])
def test_constrained_mask_is_outside_the_free_box_plus_the_pin(n_phi):
    # free_box alone names the free nodes: every other node is Dirichlet
    # (the rims r_min, r_max and phi = 0, and phi = pi on a half plane)
    grid = m.build_grid(m.GridSpec(r_min=2.0**-4, r_max=2.0**4, n_s=17,
                                   n_phi=n_phi))
    for g in (grid, grid.quarter()):
        free = np.zeros((g.n_s, g.n_phi), dtype=bool)
        free[g.free_box()] = True
        free[g.pin_index] = False
        assert np.array_equal(g.constrained_mask(), ~free)
        dirichlet = np.zeros_like(free)
        dirichlet[[0, -1]] = dirichlet[:, 0] = True
        dirichlet[:, -1] |= g is grid
        dirichlet[g.pin_index] = True
        assert np.array_equal(g.constrained_mask(), dirichlet)


def test_a_quarter_holds_none_of_its_half_planes_tables():
    # a grid keeps its kernel tables after its first kernel call; a quarter
    # taken from a half plane that has them evaluates, to the last bit, as
    # the quarter of a fresh grid
    spec = QUARTER_SPECS[0]
    half = m.build_grid(spec)
    rng = np.random.default_rng(5)
    m.energy(m.ScalarField(half, rng.random((half.n_s, half.n_phi))),
             m.EnergyParams(p=4.0, eps=0.0))
    quarter, fresh = half.quarter(), m.build_grid(spec).quarter()
    values = rng.random((quarter.n_s, quarter.n_phi))
    u = m.ScalarField(quarter, values.copy()).apply_dirichlet()
    v = m.ScalarField(fresh, values.copy()).apply_dirichlet()
    params = m.EnergyParams(p=4.0, eps=1e-3)
    assert m.energy(u, params) == m.energy(v, params)
    assert np.array_equal(m.energy_gradient(u, params).values,
                          m.energy_gradient(v, params).values)
    assert np.array_equal(m.energy_hessian(u, params),
                          m.energy_hessian(v, params))
    assert quarter.kernel_tables is not half.kernel_tables


@pytest.mark.parametrize("spec", QUARTER_SPECS)
@pytest.mark.parametrize("p", [4.0, 8.0])
def test_half_plane_energy_is_twice_the_quarter(spec, p):
    uq, half = random_even_field(spec)
    for eps in (0.0, 1e-3):
        params = m.EnergyParams(p=p, eps=eps)
        e_half = m.energy(half, params)
        assert abs(e_half - 2.0 * m.energy(uq, params)) <= 1e-14 * e_half


@pytest.mark.parametrize("spec", QUARTER_SPECS)
@pytest.mark.parametrize("p", [4.0, 8.0])
def test_half_plane_gradient_from_the_quarter(spec, p):
    # g off the axis column, 2 g on it; the pin's entry included
    uq, half = random_even_field(spec)
    params = m.EnergyParams(p=p, eps=1e-3)
    gq = m.energy_gradient(uq, params).values
    gh = m.energy_gradient(half, params).values
    expected = gq.copy()
    expected[:, -1] *= 2.0
    scale = np.abs(gh).max()
    assert np.abs(gh[:, :uq.grid.n_phi] - expected).max() <= 1e-14 * scale


# ----------------------------------------------------------------- gradient

def test_gradient_matches_directional_derivative():
    g = m.build_grid(small_spec())
    field, rng = random_interior_field(g)
    params = m.EnergyParams(p=4.0, eps=0.1)
    grad = m.energy_gradient(field, params).values
    free = ~g.constrained_mask()
    for h, tol in ((1e-4, 3e-7), (1e-5, 1e-8)):
        for _ in range(20):
            delta = np.zeros_like(grad)
            delta[free] = rng.standard_normal(int(free.sum()))
            up = m.ScalarField(g, field.values + h * delta)
            dn = m.ScalarField(g, field.values - h * delta)
            fd = (m.energy(up, params) - m.energy(dn, params)) / (2 * h)
            assert abs(fd - (grad * delta).sum()) < tol * max(1.0, abs(fd))


def test_gradient_zero_at_origin_field():
    g = m.build_grid(small_spec())
    f = m.ScalarField(g, np.zeros((g.n_s, g.n_phi)))
    grad = m.energy_gradient(f, m.EnergyParams(p=4.0, eps=0.1)).values
    assert np.all(grad == 0.0)


def test_gradient_at_dirichlet_and_pinned_nodes():
    # the gradient has an entry at every node; the pin's is the multiplier
    # of the constraint u = 1 there
    g = m.build_grid(small_spec())
    field, _ = random_interior_field(g)
    params = m.EnergyParams(p=4.0, eps=0.1)
    grad = m.energy_gradient(field, params).values
    h = 1e-4
    for node in ((20, 0), g.pin_index):
        up = m.ScalarField(g, field.values.copy())
        dn = m.ScalarField(g, field.values.copy())
        up.values[node] += h
        dn.values[node] -= h
        fd = (m.energy(up, params) - m.energy(dn, params)) / (2 * h)
        assert fd != 0.0
        assert abs(fd - grad[node]) < 1e-6 * abs(fd)


def test_gradient_locality_bit_identical():
    g = m.build_grid(small_spec())
    field, _ = random_interior_field(g)
    params = m.EnergyParams(p=4.0, eps=0.1)
    before = m.energy_gradient(field, params).values
    poke = m.ScalarField(g, field.values.copy())
    pi, pj = 20, 8
    poke.values[pi, pj] += 0.5
    after = m.energy_gradient(poke, params).values
    # only the 3x3 neighborhood of the poked node may change
    changed = before != after
    ii, jj = np.nonzero(changed)
    assert np.all(np.abs(ii - pi) <= 1)
    assert np.all(np.abs(jj - pj) <= 1)
    far = np.ones_like(changed)
    far[pi - 1:pi + 2, pj - 1:pj + 2] = False
    assert np.array_equal(before[far], after[far])


def test_hessian_matches_gradient_differences():
    g = m.build_grid(small_spec(41, 9))
    field, rng = random_interior_field(g, seed=3)
    params = m.EnergyParams(p=4.0, eps=0.1)
    hess = band_matrix(m.energy_hessian(field, params))
    box = g.free_box()
    free = ~g.constrained_mask()
    h = 1e-5
    for _ in range(5):
        delta = np.zeros_like(field.values)
        delta[free] = rng.standard_normal(int(free.sum()))
        gp = m.energy_gradient(m.ScalarField(g, field.values + h * delta),
                               params).values
        gm = m.energy_gradient(m.ScalarField(g, field.values - h * delta),
                               params).values
        fd = (gp - gm) / (2 * h)
        fd[g.constrained_mask()] = 0.0
        hd = np.zeros_like(delta)
        hd[box] = (hess @ delta[box].ravel()).reshape(hd[box].shape)
        hd[g.constrained_mask()] = 0.0
        assert np.abs(fd - hd).max() < 1e-7 * max(1.0, np.abs(hd).max())


def test_hessian_requires_regularization():
    g = m.build_grid(small_spec(41, 9))
    field, _ = random_interior_field(g)
    with pytest.raises(ValueError):
        m.energy_hessian(field, m.EnergyParams(p=4.0, eps=0.0))


# boxes of one row or one column, or of n <= kd nodes
NARROW_SPECS = [m.GridSpec(r_min=2.0**-k, r_max=2.0**k, n_s=n_s, n_phi=n_phi)
                for k, n_s, n_phi in ((1, 3, 3), (1, 3, 5), (2, 5, 3), (2, 5, 7))]


@pytest.mark.parametrize("spec", QUARTER_SPECS + NARROW_SPECS)
@pytest.mark.parametrize("p", [4.0, 8.0])
def test_hessian_band_matches_coo_assembly(spec, p):
    # the band's values, on the quarter (the solver's matrix, the pin
    # cells' midpoint rule included) and on the half plane: every stored
    # entry, the unused corner of the band and the couplings that would
    # wrap around a row's end included
    uq, half = random_even_field(spec)
    params = m.EnergyParams(p=p, eps=1e-3)
    for field in (uq, half):
        band = m.energy_hessian(field, params)
        kd, n = band.shape[0] - 1, band.shape[1]
        box = field.values[field.grid.free_box()]
        assert (kd, n) == (box.shape[1] + 1, box.size)
        assert band.flags.f_contiguous
        expected = coo_hessian(field, params)
        assert abs(sp.tril(expected, k=-kd - 1)).sum() == 0.0
        expected_band = np.zeros_like(band)
        for d in range(kd + 1):
            expected_band[d, :max(n - d, 0)] = expected.diagonal(-d)
        scale = np.abs(expected_band).max()
        assert np.abs(band - expected_band).max() <= 1e-15 * scale


@pytest.mark.parametrize("spec", QUARTER_SPECS + NARROW_SPECS + [STRIP_SPEC])
@pytest.mark.parametrize("p", [2.5, 4.0, 8.0, 32.0])
def test_hessian_band_bitwise_equal_to_reference_band(spec, p):
    # the strips and the ten lower block entries round as the whole-array
    # pass over all sixteen, on the quarter and the half plane
    uq, half = random_even_field(spec, seed=int(p * 2))
    for field in (uq, half):
        for eps in (1e-1, 1e-6):
            params = m.EnergyParams(p=p, eps=eps)
            assert np.array_equal(m.energy_hessian(field, params),
                                  _reference_band(field, params))


def _kernel_outputs(field, params):
    g = field.grid
    rng = np.random.default_rng(5)      # 2,000 points and every node
    r = np.r_[np.exp(rng.uniform(g.s[0], g.s[-1], 2000)), np.repeat(g.r, g.n_phi)]
    phi = np.r_[rng.uniform(0.0, g.phi[-1], 2000), np.tile(g.phi, g.n_s)]
    return (m.energy(field, params), m.energy_gradient(field, params).values,
            m.energy_hessian(field, params), m.interpolate(field, r, phi))


@pytest.mark.parametrize("spec", [QUARTER_SPECS[0], STRIP_SPEC] + NARROW_SPECS)
def test_kernel_does_not_depend_on_the_strip_size(spec, monkeypatch):
    # one cell row (or one interpolated point) per strip puts the pin cells
    # on a strip boundary; 10**9 cells make one strip of the whole grid.
    # On the narrow boxes two of the band's five diagonals share a row.
    uq, half = random_even_field(spec)
    for field in (uq, half):
        for p in (4.0, 8.0):
            params = m.EnergyParams(p=p, eps=1e-3)
            default = _kernel_outputs(field, params)
            for cells in (1, 10**9):
                monkeypatch.setattr(grid_module, "_STRIP_CELLS", cells)
                for got, want in zip(_kernel_outputs(field, params), default):
                    assert np.array_equal(got, want)
                monkeypatch.undo()


# -------------------------------------------------------------- interpolate

def test_interpolate_nodes_exact():
    g = m.build_grid(small_spec())
    field, _ = random_interior_field(g)
    for i in (0, 3, 40, 80):
        for j in (0, 8, 16):
            assert m.interpolate(field, g.r[i], g.phi[j]) == field.values[i, j]


def test_interpolate_linear_and_bilinear_exact():
    g = m.build_grid(small_spec())
    f_lin = m.ScalarField(g, np.broadcast_to(g.s[:, None],
                                             (g.n_s, g.n_phi)).copy())
    r_half = math.exp(g.s[10] + 0.5 * g.ds)
    assert abs(m.interpolate(f_lin, r_half, g.phi[4])
               - (g.s[10] + 0.5 * g.ds)) < 1e-13
    f_bil = m.ScalarField(g, g.s[:, None] * g.phi[None, :])
    rng = np.random.default_rng(4)
    for _ in range(25):
        s = rng.uniform(g.s[0], g.s[-1])
        phi = rng.uniform(0.0, np.pi)
        got = m.interpolate(f_bil, math.exp(s), phi)
        assert abs(got - s * phi) < 1e-12


def test_interpolate_rejects_outside():
    g = m.build_grid(small_spec())
    field, _ = random_interior_field(g)
    with pytest.raises(ValueError):
        m.interpolate(field, g.spec.r_max * 1.5, 1.0)
    with pytest.raises(ValueError):
        m.interpolate(field, 1.0, -0.5)
    nan = float("nan")
    for r, phi in ((nan, 1.0), (1.0, nan), (np.array([1.0, nan, 2.0]), 1.0)):
        with pytest.raises(ValueError):
            m.interpolate(field, r, phi)


# ------------------------------------------------------------ serialization

def test_field_dump_round_trip(tmp_path):
    g = m.build_grid(small_spec(41, 9))
    field, _ = random_interior_field(g)
    path = tmp_path / "field.txt"
    m.save_field(field, path)
    loaded = m.load_field(path)
    assert loaded.grid.spec == g.spec
    assert np.array_equal(loaded.values, field.values)


def test_field_dump_rejects_garbage(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("not a field\n{}\n")
    with pytest.raises(ValueError):
        m.load_field(path)
    # a non-finite value in the body
    g = m.build_grid(small_spec(41, 9))
    field, _ = random_interior_field(g)
    for value in ("nan", "inf", "-inf"):
        field.values[5, 3] = float(value)
        m.save_field(field, path)
        with pytest.raises(ValueError, match="non-finite"):
            m.load_field(path)


_CLAIMING_DUMP_PROBE = """
import json, sys
import morreylab as m
from morreylab import grid

def peak_rss_kb():
    with open("/proc/self/status") as fh:
        return int(next(line for line in fh
                        if line.startswith("VmHWM:")).split()[1])

# 3997 x 1001 float64 values are 32,007,976 bytes; the body holds 16
header = {"n_phi": 1001, "n_s": 3997, "r_max": 2.0**12, "r_min": 2.0**-6}
with open(sys.argv[1], "wb") as fh:
    fh.write(grid._FIELD_MAGIC + b"\\n" + json.dumps(header).encode() + b"\\n"
             + bytes(16))
before = peak_rss_kb()
try:
    m.load_field(sys.argv[1])
except ValueError as exc:
    print(exc)
print((peak_rss_kb() - before) / 1024)
"""


@pytest.mark.skipif(not Path("/proc/self/status").exists(),
                    reason="reads the peak RSS from /proc")
def test_field_dump_body_is_checked_before_it_is_allocated(tmp_path):
    """A dump whose header claims 30.5 MB of values and whose file holds
    16 bytes fails on its size without the process's peak RSS growing by
    the claim.  The load runs in a fresh process, whose VmHWM starts at
    its exec: ru_maxrss would start at the forking process's RSS, and
    tracemalloc would count GridSpec's np.empty probe, which touches no
    page."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(__file__).resolve().parents[1] / "src"),
         os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", _CLAIMING_DUMP_PROBE,
                          str(tmp_path / "claims.field")], env=env,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    message, rise_mb = out.stdout.splitlines()
    assert message == ("corrupt field dump: the body is not 32007976 bytes, "
                       "3997 x 1001 float64 values")
    assert float(rise_mb) < 8.0


def test_field_and_csv_rows_match_the_per_value_writer(tmp_path):
    # the dump is two text lines, then the values as raw little-endian
    # float64 in row-major order; one % operation per CSV file writes the
    # bytes that formatting each value did
    g = m.build_grid(small_spec(41, 9))
    values = np.random.default_rng(4).standard_normal((g.n_s, g.n_phi))
    values[3, :5] = [-0.0, 5e-324, 1e300, -1e300, -5e-324]
    m.save_field(m.ScalarField(g, values), tmp_path / "f.field")
    header = {"r_min": 2.0**-4, "r_max": 2.0**6, "n_s": 41, "n_phi": 9}
    assert (tmp_path / "f.field").read_bytes() == (
        b"# morreylab field v2\n"
        + json.dumps(header, sort_keys=True).encode() + b"\n"
        + values.astype("<f8").tobytes())
    columns = [values[:, 0], values[:, 3], values[:, 4]]
    grid_module.write_csv(tmp_path / "f.csv", ["a", "b", "c"], columns)
    assert (tmp_path / "f.csv").read_text() == "a,b,c\n" + "".join(
        ",".join(f"{x:.16e}" for x in row) + "\n" for row in zip(*columns))
    # the row format is the header's, so a column too many or too few
    # raises, and so do columns of unequal lengths
    for wrong in (columns[:2], columns + [columns[0]]):
        with pytest.raises(ValueError, match="[24] columns under a "
                                             "header of 3"):
            grid_module.write_csv(tmp_path / "r.csv", ["a", "b", "c"], wrong)
    for ragged in (columns[:2] + [columns[2][:-1]],
                   columns[:2] + [np.append(columns[2], 1.0)]):
        with pytest.raises(ValueError, match=r"a column of shape \(4[02],\) "
                                             "beside a first column of 41"):
            grid_module.write_csv(tmp_path / "r.csv", ["a", "b", "c"], ragged)


def test_csv_file_equals_the_per_value_join(tmp_path):
    # one % over the whole file writes the bytes of formatting each value
    # on its own, for signed zeros, subnormals and values near overflow,
    # whether the columns come as arrays, as lists of Python floats or as a
    # one-shot iterator
    rng = np.random.default_rng(9)
    a = np.concatenate([[-0.0, 5e-324, 1e300, -1e300, -5e-324, 0.0],
                        rng.standard_normal(7)])
    b = -a[::-1] * 3.0
    c = np.exp(20.0 * rng.standard_normal(a.size))
    rows = list(zip(a.tolist(), b.tolist(), c.tolist()))
    want = "x,y,z\n" + "".join(
        ",".join(f"{x:.16e}" for x in row) + "\n" for row in rows)
    path = tmp_path / "f.csv"
    for columns in ([a, b, c], [a.tolist(), b.tolist(), c.tolist()],
                    zip(*rows)):
        grid_module.write_csv(path, ["x", "y", "z"], columns)
        assert path.read_text() == want
    assert "-0.0000000000000000e+00" in want and "4.9406564584124654e-324" in want
    # no rows: the header alone
    grid_module.write_csv(path, ["x", "y"], [[], np.empty(0)])
    assert path.read_text() == "x,y\n"


def test_open_new_replaces_links(tmp_path):
    target = tmp_path / "target.csv"
    target.write_text("old\n")
    link = tmp_path / "out.csv"
    link.symlink_to(target)
    with open_new(link, "w") as fh:
        fh.write("new\n")
    assert target.read_text() == "old\n"
    assert not link.is_symlink() and link.read_text() == "new\n"
    with open_new(tmp_path / "fresh.csv", "w") as fh:
        fh.write("x\n")
    assert (tmp_path / "fresh.csv").read_text() == "x\n"


# ------------------------------------------------------------------ fuzzing

_FUZZ = settings(max_examples=60, deadline=None, database=None)
_FUZZ_SPECS = st.sampled_from([
    m.GridSpec(r_min=math.exp(-1), r_max=math.exp(1), n_s=3, n_phi=3),
    m.GridSpec(r_min=2.0**-3, r_max=2.0**4, n_s=29, n_phi=9),
    m.GridSpec(r_min=2.0**-4, r_max=2.0**8, n_s=49, n_phi=17)])
_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_RADII = (st.floats() | st.integers(-1074, 1023).map(lambda k: 2.0**k)
          | st.sampled_from([0.0, -0.0, 1.0, grid_module._R_MIN,
                             grid_module._R_MAX]))


def _field_values(spec):
    return hnp.arrays(np.float64, (spec.n_s, spec.n_phi), elements=_FINITE)


@_FUZZ
@given(st.one_of(
    st.tuples(_RADII, _RADII, st.integers(-2, 600), st.integers(-2, 70)),
    # r_min = 2^-k and r_max = 2^l with s = 0 on a node: often valid
    st.tuples(st.integers(0, 530), st.integers(0, 530), st.integers(1, 3),
              st.integers(1, 33)).map(
        lambda t: (2.0**-t[0], 2.0**t[1], t[2] * (t[0] + t[1]) + 1,
                   2 * t[3] + 1))))
def test_grid_spec_constructs_or_raises_value_error(args):
    try:
        spec = m.GridSpec(*args)
    except ValueError:
        return
    grid = m.build_grid(spec)
    assert grid.s[grid.i_pin] == 0.0 and grid.phi[grid.j_pin] == 0.5 * np.pi
    for a in (grid.r, grid.em2s_c, grid.radial_mass):
        assert np.all(np.isfinite(a))


@_FUZZ
@given(st.data())
def test_interpolate_exact_at_nodes_and_rejects_bad_queries(data):
    spec = data.draw(_FUZZ_SPECS)
    grid = m.build_grid(spec)
    field = m.ScalarField(grid, data.draw(_field_values(spec)))
    rr, pp = np.meshgrid(grid.r, grid.phi, indexing="ij")
    assert np.all(m.interpolate(field, rr, pp) == field.values)
    i = data.draw(st.integers(0, spec.n_s - 1))
    j = data.draw(st.integers(0, spec.n_phi - 1))
    assert m.interpolate(field, grid.r[i], grid.phi[j]) == field.values[i, j]
    bad_r = data.draw(st.sampled_from([math.nan, 0.0, -1.0])
                      | st.floats(0.0, spec.r_min * (1 - 1e-9), exclude_min=True)
                      | st.floats(min_value=spec.r_max * (1 + 1e-9)))
    bad_phi = data.draw(st.sampled_from([math.nan])
                        | st.floats(max_value=-1e-9)
                        | st.floats(min_value=np.pi + 1e-9))
    good_r, good_phi = rr.ravel()[:3], pp.ravel()[:3]
    for r, phi in ((np.append(good_r, bad_r), np.append(good_phi, 1.0)),
                   (np.append(good_r, 1.0), np.append(good_phi, bad_phi))):
        with pytest.raises(ValueError):
            m.interpolate(field, r, phi)


@_FUZZ
@given(st.data())
def test_field_dump_round_trips_bitwise(tmp_path_factory, data):
    spec = data.draw(_FUZZ_SPECS)
    values = data.draw(_field_values(spec))
    p = data.draw(st.floats(2.0, 2.0**53, exclude_min=True, exclude_max=True))
    base = tmp_path_factory.mktemp("dump") / "f"
    result = m.SolveResult(field=m.ScalarField(m.build_grid(spec), values),
                           energy=0.0, stages=[], converged=True, p=p)
    m.save_checkpoint(result, m.SolverConfig(), base)
    # the grid and the values come back from the dump, p from the sidecar
    loaded = m.load_checkpoint(base)[0]
    assert loaded.grid.spec == spec and loaded.p == p
    assert loaded.field.values.tobytes() == values.tobytes()
