import math

import numpy as np
import pytest

import morreylab as m
from morreylab import analysis
from conftest import synthetic_result


def medium_grid():
    return m.build_grid(m.GridSpec(r_min=2.0**-4, r_max=2.0**10,
                                   n_s=113, n_phi=17))


def power_law_field(grid, exponent):
    return np.minimum(1.0, grid.r**-exponent)[:, None] * np.sin(grid.phi)[None, :]


# ------------------------------------------------------------ decay profile

def test_decay_profile_pinned_radius(solve_small):
    profile = m.decay_profile(solve_small)
    assert profile.radii[0] == 1.0
    assert profile.sup_values[0] == 1.0


def test_decay_profile_synthetic_power_law():
    grid = medium_grid()
    # plain r^{-1/2} profile: the arc max sits at phi = pi/2 where sin = 1
    res = synthetic_result(grid, power_law_field(grid, 0.5))
    profile = m.decay_profile(res)
    assert np.allclose(profile.sup_values, profile.radii**-0.5, rtol=1e-14)


def test_decay_profile_strictly_decreasing_for_solve(solve_small):
    profile = m.decay_profile(solve_small)
    r_max = solve_small.grid.spec.r_max
    inside = profile.radii <= r_max / 2
    assert np.all(np.diff(profile.sup_values[inside]) < 0)


def test_decay_profile_requires_convergence(solve_small):
    broke = m.SolveResult(field=solve_small.field, energy=0.0, stages=[],
                          converged=False, p=4.0)
    with pytest.raises(ValueError):
        m.decay_profile(broke)


def test_decay_profile_rejects_bare_field(solve_small):
    with pytest.raises(TypeError):
        m.decay_profile(solve_small.field)


def test_decay_profile_rejects_increasing_sup():
    grid = medium_grid()
    values = (grid.r**0.3)[:, None] * np.sin(grid.phi)[None, :]
    with pytest.raises(ValueError):
        m.decay_profile(synthetic_result(grid, values))


# ------------------------------------------------------------ exponent fits

def exact_profile(beta, c=1.0):
    radii = 2.0 ** np.linspace(0.0, 10.0, 101)
    return m.DecayProfile(radii=radii, sup_values=c * radii**-beta)


def test_fit_exact_power_law():
    fit = m.fit_exponent(exact_profile(0.5), (2.0, 128.0))
    assert abs(fit.beta_hat - 0.5) < 1e-12
    assert abs(fit.C_hat - 1.0) < 1e-12
    assert fit.rms_residual < 1e-13


def test_fit_constant_profile():
    radii = 2.0 ** np.linspace(0.0, 10.0, 101)
    prof = m.DecayProfile(radii=radii, sup_values=np.ones_like(radii))
    fit = m.fit_exponent(prof, (2.0, 128.0))
    assert abs(fit.beta_hat) < 1e-14


def test_fit_affine_invariance_under_radius_scaling():
    beta, lam = 0.37, 4.0
    base = exact_profile(beta, c=2.0)
    scaled = m.DecayProfile(radii=lam * base.radii, sup_values=base.sup_values)
    f1 = m.fit_exponent(base, (2.0, 128.0))
    f2 = m.fit_exponent(scaled, (2.0 * lam, 128.0 * lam))
    assert abs(f2.beta_hat - f1.beta_hat) < 1e-12
    assert abs(f2.C_hat - f1.C_hat * lam**beta) < 1e-10 * f2.C_hat


def test_fit_window_validation():
    prof = exact_profile(0.5)
    with pytest.raises(ValueError):
        m.fit_exponent(prof, (1.0, 64.0))          # starts below 2
    with pytest.raises(ValueError):
        m.fit_exponent(prof, (2.0, 512.0))         # past r_max/8
    with pytest.raises(ValueError):
        m.fit_exponent(prof, (2.0, 2.5))           # too few radii
    bad = m.DecayProfile(radii=prof.radii,
                         sup_values=np.where(prof.radii < 50, 1.0, 0.0))
    with pytest.raises(ValueError):
        m.fit_exponent(bad, (2.0, 128.0))          # non-positive values


# --------------------------------------------------------- gradient profile

def test_gradient_profile_synthetic_exponent():
    grid = medium_grid()
    res = synthetic_result(grid, np.exp(-0.5 * grid.s)[:, None]
                           * np.sin(grid.phi)[None, :])
    profile, fit = m.gradient_profile(res, window=(2.0, 64.0))
    # |grad r^{-1/2} sin(phi)| has arc max proportional to r^{-3/2}
    assert abs(fit.beta_hat - 1.5) < 1e-10
    assert fit.rms_residual < 1e-12


def test_gradient_profile_unit_gradient_field():
    grid = medium_grid()
    res = synthetic_result(grid, np.exp(grid.s)[:, None]
                           * np.sin(grid.phi)[None, :])
    profile, fit = m.gradient_profile(res, window=(2.0, 64.0))
    assert abs(fit.beta_hat) < 1e-10


def test_gradient_profile_matches_decay_fit(solve_small):
    profile = m.decay_profile(solve_small)
    fit = m.fit_exponent(profile, (2.0, solve_small.grid.spec.r_max / 8.0))
    gprofile, gfit = m.gradient_profile(solve_small, (2.0, 7.5))
    assert abs(gfit.beta_hat - (fit.beta_hat + 1.0)) < 0.2


# ----------------------------------------------------------- Hoelder search

def clamp_evaluator(points):
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    return np.clip(pts[:, 0], -1.0, 1.0)


def brute_force_seminorm(alpha):
    xs = np.linspace(-1.5, 1.5, 1501)
    vals = np.clip(xs, -1.0, 1.0)
    diff = np.abs(vals[:, None] - vals[None, :])
    dist = np.abs(xs[:, None] - xs[None, :])
    iu = np.triu_indices(len(xs), k=1)
    return float(np.max(diff[iu] / dist[iu] ** alpha))


def test_holder_1d_clamp_fixture():
    p = 4.0
    alpha = 1.0 - 1.0 / p
    oracle = brute_force_seminorm(alpha)
    assert abs(oracle - 2.0 ** (1.0 / p)) < 1e-6
    pts = np.linspace(-1.5, 1.5, 301)[:, None]
    found = m.holder_seminorm(clamp_evaluator, alpha, 200, sample_points=pts)
    assert abs(found.seminorm - oracle) < 1e-6
    assert abs(abs(found.point_a[0]) - 1.0) < 1e-9
    assert abs(abs(found.point_b[0]) - 1.0) < 1e-9


def test_holder_constant_field_zero():
    const = lambda pts: np.zeros(len(np.atleast_2d(pts)))
    pts = np.linspace(-2.0, 2.0, 64)[:, None]
    found = m.holder_seminorm(const, 0.5, 50, sample_points=pts)
    assert found.seminorm == 0.0


def test_holder_pinned_pair_value(solve_small):
    p = solve_small.p
    full = m.mirror_to_fullplane(solve_small)
    pair = np.array([[0.0, 1.0], [0.0, -1.0]])
    vals = full.evaluate(pair)
    assert vals[0] == 1.0 and vals[1] == -1.0  # pinned values, exact
    quotient = abs(vals[0] - vals[1]) / 2.0 ** (1.0 - 2.0 / p)
    assert math.isclose(quotient, 2.0 ** (2.0 / p), rel_tol=1e-15)


def test_holder_search_monotone_in_budget(solve_small):
    full = m.mirror_to_fullplane(solve_small)
    alpha = 0.5
    results = [m.holder_seminorm(full, alpha, b).seminorm
               for b in (50, 100, 200, 400)]
    assert all(b >= a - 1e-15 for a, b in zip(results, results[1:]))


def test_holder_budget_validation(solve_small):
    full = m.mirror_to_fullplane(solve_small)
    with pytest.raises(ValueError):
        m.holder_seminorm(full, 0.5, 1)
    with pytest.raises(ValueError):
        m.holder_seminorm(full, 1.5, 100)
    with pytest.raises(ValueError):
        m.holder_seminorm(clamp_evaluator, 0.5, 10)   # no sample points


def full_bit_reversed_order(n):
    """The whole permutation of range(n) by bit-reversed index."""
    bits = max(1, int(np.ceil(np.log2(max(n, 2)))))
    idx = np.arange(2**bits)
    rev = np.zeros_like(idx)
    for b in range(bits):
        rev |= ((idx >> b) & 1) << (bits - 1 - b)
    return rev[rev < n]


@pytest.mark.parametrize("n", [2, 3, 7, 8, 9, 1023, 1024, 1025, 74433,
                               296321])
def test_bit_reversed_order_is_the_prefix_of_the_permutation(n):
    full = full_bit_reversed_order(n)
    assert np.array_equal(np.sort(full), np.arange(n))
    for k in (1, 2, 600, n, n + 5):
        assert np.array_equal(analysis._bit_reversed_order(n, k), full[:k])


def dense_pair_max(values, points, alpha):
    """_pair_max over the dense (n, n) difference and distance arrays."""
    diff = np.abs(values[:, None] - values[None, :])
    dist = np.linalg.norm(points[:, None, :] - points[None, :, :], axis=-1)
    iu = np.triu_indices(len(points), k=1)
    d = dist[iu]
    with np.errstate(invalid="ignore", divide="ignore"):
        quot = np.where(d > 0.0, diff[iu] / d**alpha, 0.0)
    k = int(np.argmax(quot))
    return float(quot[k]), points[iu[0][k]], points[iu[1][k]], len(quot)


def pair_max_cases():
    rng = np.random.default_rng(11)
    pts = rng.uniform(-3.0, 3.0, (300, 2))
    yield rng.standard_normal(300), pts
    dup = pts.copy()
    dup[1::3] = dup[::3][:len(dup[1::3])]      # coincident points
    yield rng.standard_normal(300), dup
    yield np.full(300, 0.25), pts               # all values equal
    # a lattice with a linear field: many pairs tie for the best quotient
    xs = np.arange(12.0)
    lattice = np.column_stack([np.repeat(xs, 12), np.tile(xs, 12)])
    yield lattice[:, 0].copy(), lattice
    line = np.linspace(-1.5, 1.5, 301)[:, None]
    yield np.clip(line[:, 0], -1.0, 1.0), line  # one dimension


@pytest.mark.parametrize("alpha", [1.0 / 3.0, 0.5, 0.75])
def test_pair_max_equals_the_dense_form(alpha):
    for values, points in pair_max_cases():
        q, pa, pb, n = analysis._pair_max(values, points, alpha)
        q_ref, pa_ref, pb_ref, n_ref = dense_pair_max(values, points, alpha)
        assert (q, n) == (q_ref, n_ref)
        assert np.array_equal(pa, pa_ref) and np.array_equal(pb, pb_ref)


def test_sample_points_list_the_pi_ray_twice():
    # sin(pi) > 0, so the phi = pi nodes come back mirrored; only the
    # phi = 0 ray (y = 0 exactly) is listed once
    grid = m.build_grid(m.GridSpec(r_min=2.0**-4, r_max=2.0**8,
                                   n_s=49, n_phi=17))
    full = m.mirror_to_fullplane(synthetic_result(
        grid, power_law_field(grid, 0.5)))
    pts = full.sample_points(np.arange(full.sample_count))
    assert pts.shape == (1617, 2) == (grid.n_s * (2 * grid.n_phi - 1), 2)
    assert np.array_equal(pts[:grid.n_s * grid.n_phi:grid.n_phi, 1],
                          np.zeros(grid.n_s))


def test_sample_points_are_the_mirrored_mesh_bit_for_bit():
    # the positions the Hoelder search keeps, computed alone, equal the
    # same rows of the whole mirrored mesh
    grid = m.build_grid(m.GridSpec(r_min=2.0**-6, r_max=2.0**12,
                                   n_s=577, n_phi=65))
    full = m.mirror_to_fullplane(synthetic_result(
        grid, power_law_field(grid, 0.5)))
    rr, pp = np.meshgrid(grid.r, grid.phi, indexing="ij")
    x, y = (rr * np.cos(pp)).ravel(), (rr * np.sin(pp)).ravel()
    mesh = np.vstack([np.column_stack([x, y]),
                      np.column_stack([x[y > 0], -y[y > 0]])])
    assert mesh.shape == (full.sample_count, 2)
    assert np.array_equal(full.sample_points(np.arange(full.sample_count)),
                          mesh)
    for k in (2, 600, 2000):
        index = analysis._bit_reversed_order(full.sample_count, k)
        assert np.array_equal(full.sample_points(index), mesh[index])


# ---------------------------------------------------------- gradient norm

def test_lp_norm_zero_field():
    grid = medium_grid()
    res = synthetic_result(grid, np.zeros((grid.n_s, grid.n_phi)))
    assert m.lp_gradient_norm(res, 4.0) == 0.0


def test_lp_norm_unit_gradient_closed_form():
    # u = y over the mirrored annulus: integral of 1 is the annulus area
    grid = medium_grid()
    res = synthetic_result(grid, np.exp(grid.s)[:, None]
                           * np.sin(grid.phi)[None, :])
    spec = grid.spec
    exact = (np.pi * (spec.r_max**2 - spec.r_min**2)) ** 0.25
    got = m.lp_gradient_norm(res, 4.0)
    assert abs(got - exact) / exact < 3e-3


def test_lp_norm_refinement_consistency():
    vals = {}
    for n_s, n_phi in ((113, 17), (225, 33)):
        grid = m.build_grid(m.GridSpec(r_min=2.0**-4, r_max=2.0**10,
                                       n_s=n_s, n_phi=n_phi))
        res = synthetic_result(grid, power_law_field(grid, 0.5))
        vals[n_s] = m.lp_gradient_norm(res, 4.0)
    assert abs(vals[225] - vals[113]) / vals[113] < 0.005


# ------------------------------------------------------- constant estimate

def test_morrey_estimate_lower_bound_ordering(solve_small):
    est = m.estimate_morrey_constant(solve_small, sample_budget=300)
    assert est.C_estimate > 0 and math.isfinite(est.C_estimate)
    # a crude admissible candidate scores below the computed extremal
    grid = solve_small.grid
    trial = synthetic_result(grid, power_law_field(grid, 2.0))
    trial.field.apply_dirichlet()
    est_trial = m.estimate_morrey_constant(trial, sample_budget=300)
    assert est_trial.C_estimate < est.C_estimate


def test_morrey_estimate_smoke_linear_field():
    grid = medium_grid()
    res = synthetic_result(grid, np.exp(grid.s)[:, None]
                           * np.sin(grid.phi)[None, :])
    res.field.values[grid.pin_index] = 1.0
    est = m.estimate_morrey_constant(res, sample_budget=200)
    assert math.isfinite(est.C_estimate) and est.C_estimate > 0


def test_morrey_estimate_rejects_zero_gradient():
    grid = medium_grid()
    res = synthetic_result(grid, np.zeros((grid.n_s, grid.n_phi)))
    with pytest.raises(ValueError):
        m.estimate_morrey_constant(res, sample_budget=100)


# ------------------------------------------------------------ barrier check

def test_barrier_fast_decay_large_eps():
    grid = medium_grid()
    bp = m.beta_p(4.0)
    res = synthetic_result(grid, power_law_field(grid, bp))
    report = m.barrier_check(res, beta=0.9 * bp, tau=0.05 * bp, eps=100.0)
    assert report.violations == 0
    assert report.max_violation == 0.0


def test_barrier_slow_decay_small_eps_violates_far_field():
    grid = medium_grid()
    bp = m.beta_p(4.0)
    res = synthetic_result(grid, power_law_field(grid, 0.1))
    report = m.barrier_check(res, beta=0.9 * bp, tau=0.05 * bp, eps=0.05)
    assert report.violations > 0
    assert report.max_violation > 0.0
    # the same comparison in closed form: violations live at large radii
    i_in = int(np.argmin(np.abs(grid.r - 1.0)))
    i_out = int(np.argmin(np.abs(grid.r - grid.spec.r_max / 8.0)))
    rr = grid.r[i_in:i_out + 1]
    u_ray = np.minimum(1.0, rr**-0.1)
    barrier_floor = grid.r[i_out] ** -0.1
    assert u_ray[len(rr) // 2] > barrier_floor  # mid-annulus sits above S(r_out)


def test_barrier_solve_admissible_eps(solve_small):
    bp = m.beta_p(4.0)
    report = m.barrier_check(solve_small, beta=0.9 * bp, tau=0.05 * bp)
    assert report.eps * report.c_f >= 1.0
    assert report.delta > 0.0
    assert report.violations == 0


def test_barrier_monotone_in_eps():
    grid = medium_grid()
    bp = m.beta_p(4.0)
    res = synthetic_result(grid, power_law_field(grid, 0.1))
    counts = [m.barrier_check(res, beta=0.9 * bp, tau=0.05 * bp, eps=e).violations
              for e in (0.05, 0.1, 0.2, 0.4)]
    assert all(b <= a for a, b in zip(counts, counts[1:]))


def test_barrier_rejects_supercritical_rate(solve_small):
    bp = m.beta_p(4.0)
    with pytest.raises(ValueError):
        m.barrier_check(solve_small, beta=bp, tau=0.01 * bp)
    with pytest.raises(ValueError):
        m.barrier_check(solve_small, beta=-0.1, tau=0.05 * bp)
