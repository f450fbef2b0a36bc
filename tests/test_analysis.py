import inspect
import math
from dataclasses import asdict

import numpy as np
import pytest

import morreylab as m
from morreylab import analysis
from conftest import ACC_SPEC, ACC_SPEC_FINE, random_even_field, synthetic_result


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
    profile, fit = m.gradient_profile(res, m.cell_gradient_sq(res.field),
                                       window=(2.0, 64.0))
    # |grad r^{-1/2} sin(phi)| has arc max proportional to r^{-3/2}
    assert abs(fit.beta_hat - 1.5) < 1e-10
    assert fit.rms_residual < 1e-12


def test_gradient_profile_unit_gradient_field():
    grid = medium_grid()
    res = synthetic_result(grid, np.exp(grid.s)[:, None]
                           * np.sin(grid.phi)[None, :])
    profile, fit = m.gradient_profile(res, m.cell_gradient_sq(res.field),
                                       window=(2.0, 64.0))
    assert abs(fit.beta_hat) < 1e-10


def test_gradient_profile_matches_decay_fit(solve_small):
    profile = m.decay_profile(solve_small)
    fit = m.fit_exponent(profile, (2.0, solve_small.grid.spec.r_max / 8.0))
    gprofile, gfit = m.gradient_profile(
        solve_small, m.cell_gradient_sq(solve_small.field), (2.0, 7.5))
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
    # (e, -e) is scored once, as the first of the C(202, 2) pairs of e, -e
    # and the 200 kept points; each of three refinement rounds scores the
    # best pair and its two 5-point clouds, C(12, 2) pairs
    assert found.pairs_evaluated == math.comb(202, 2) + 3 * math.comb(12, 2)


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


def test_holder_sampled_stage_is_monotone_in_budget(monkeypatch):
    # the sampled stage's candidates nest, so its best quotient cannot fall
    # as the budget grows; the refined result can (on this field budgets
    # 10, 50 and 100 give 5.41, 4.33 and 3.85), so the refinement is off
    grid = m.build_grid(m.GridSpec(r_min=2.0**-4, r_max=2.0**8,
                                   n_s=49, n_phi=17))
    full = m.mirror_to_fullplane(synthetic_result(grid,
                                                  power_law_field(grid, 0.5)))
    monkeypatch.setattr(analysis, "_HOLDER_REFINE_ROUNDS", 0)
    results = [m.holder_seminorm(full, 0.5, b).seminorm
               for b in (10, 50, 100, 200, 400)]
    assert all(b >= a for a, b in zip(results, results[1:]))


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


def test_holder_search_does_not_depend_on_the_pair_chunk(monkeypatch):
    # one pair per chunk scores each row alone; 10**9 pairs make one block
    # of the whole triangle
    grid = m.build_grid(m.GridSpec(r_min=2.0**-4, r_max=2.0**8,
                                   n_s=49, n_phi=17))
    result = synthetic_result(grid, power_law_field(grid, 0.5))

    def outputs():
        for values, points in pair_max_cases():
            yield analysis._pair_max(values, points, 0.5)
        for budget in (2, 600):
            h = m.holder_seminorm(m.mirror_to_fullplane(result), 0.5, budget)
            yield h.seminorm, h.point_a, h.point_b, h.pairs_evaluated
            est = m.estimate_morrey_constant(result, budget)
            yield est.seminorm, est.C_estimate, *est.argmax_pair

    default = list(outputs())
    for chunk in (1, 10**9):
        monkeypatch.setattr(analysis, "_PAIR_CHUNK", chunk)
        for got, want in zip(outputs(), default, strict=True):
            assert all(np.array_equal(a, b) for a, b in zip(got, want,
                                                            strict=True))
        monkeypatch.undo()


def full_scan_pair_max(values, points, alpha):
    """The Hoelder pair scan before pruning: every pair of the upper
    triangle scored, in blocks of whole rows of at most _PAIR_CHUNK
    entries, the first best quotient winning."""
    n, a, best, seen = len(points), 0, None, 0
    while a < n - 1:
        cols = n - 1 - a
        rows = min(max(1, analysis._PAIR_CHUNK // cols), cols)
        ra, cb = slice(a, a + rows), slice(a + 1, n)
        diff = np.abs(values[ra, None] - values[None, cb])
        d = np.sqrt(sum((col[ra, None] - col[None, cb]) ** 2
                        for col in points.T))
        with np.errstate(invalid="ignore", divide="ignore"):
            quot = np.where(d > 0.0, diff / d**alpha, 0.0)
        quot[np.tri(rows, cols, -1, dtype=bool)] = -1.0
        i, j = divmod(int(np.argmax(quot)), cols)
        if best is None or quot[i, j] > best[0]:
            best = (float(quot[i, j]), points[a + i], points[a + 1 + j])
        seen += rows * cols - rows * (rows - 1) // 2
        a += rows
    return (*best, seen)


# alpha = 1 - 2/p: p = 2.5 gives the largest reach exponent 1/alpha
HOLDER_ALPHAS = [1.0 - 2.0 / p for p in (2.5, 3.0, 4.0, 8.0, 32.0)]


def mirrored_pair_cases():
    """Values odd under y -> -y on points mirrored across the x axis, led
    by the anchor pair (0, 1), (0, -1) and shuffled: each pair ties
    exactly with its mirror image, so only the pair order breaks ties."""
    rng = np.random.default_rng(5)
    for n in (40, 300):
        upper = np.column_stack([rng.uniform(-4.0, 4.0, n),
                                 rng.uniform(0.05, 4.0, n)])
        vals = np.sin(upper[:, 0]) * upper[:, 1] / (1.0 + upper[:, 1] ** 2)
        perm = rng.permutation(2 * n)
        points = np.vstack([upper, upper * [1.0, -1.0]])[perm]
        values = np.concatenate([vals, -vals])[perm]
        yield (np.concatenate([[1.0, -1.0], values]),
               np.vstack([[[0.0, 1.0], [0.0, -1.0]], points]))
        # a steep bump beats the anchor far from it
        values = values * 40.0
        yield (np.concatenate([[1.0, -1.0], values]),
               np.vstack([[[0.0, 1.0], [0.0, -1.0]], points]))


def pruned_scan_cases(alpha):
    yield from pair_max_cases()
    yield from mirrored_pair_cases()
    line = np.linspace(-1.5, 1.5, 301)[:, None]
    yield np.zeros(301), line                   # best = 0: nothing pruned
    # the pair at 10 has |u(x) - u(y)| = |u(x)| + max|u| and beats the
    # first pair by 1e-6 relative, so it sits just inside the bound
    d = 2.0 / (1.0 + 1e-6) ** (1.0 / alpha)
    yield (np.array([1.0, -1.0, 0.5, 1.0, -1.0]),
           np.array([[0.0], [2.0], [5.0], [10.0], [10.0 + d]]))


def assert_same_pair_max(got, want):
    assert (got[0], got[3]) == (want[0], want[3])
    assert np.array_equal(got[1], want[1]) and np.array_equal(got[2], want[2])


@pytest.mark.parametrize("alpha", HOLDER_ALPHAS)
def test_pruned_pair_scan_equals_the_full_scan(alpha, monkeypatch):
    # one row per block also splits exactly tied pairs across blocks
    for chunk in (analysis._PAIR_CHUNK, 1):
        monkeypatch.setattr(analysis, "_PAIR_CHUNK", chunk)
        for values, points in pruned_scan_cases(alpha):
            assert_same_pair_max(analysis._pair_max(values, points, alpha),
                                 full_scan_pair_max(values, points, alpha))


def holder_outputs(full, alpha, budgets):
    for budget in budgets:
        h = m.holder_seminorm(full, alpha, budget)
        yield h.seminorm, h.point_a, h.point_b, h.pairs_evaluated


@pytest.mark.parametrize("alpha", HOLDER_ALPHAS)
def test_holder_search_equals_the_full_scan(alpha, solve_small, monkeypatch):
    """The whole search, sampled stage and refinement, picks the same pair
    and counts the same pairs as with every pair scored."""
    full = m.mirror_to_fullplane(solve_small)
    pts = np.linspace(-1.5, 1.5, 301)[:, None]
    budgets = (2, 50, 600, 2000)

    def outputs():
        yield from holder_outputs(full, alpha, budgets)
        h = m.holder_seminorm(clamp_evaluator, alpha, 200, sample_points=pts)
        yield h.seminorm, h.point_a, h.point_b, h.pairs_evaluated

    pruned = list(outputs())
    monkeypatch.setattr(analysis, "_pair_max", full_scan_pair_max)
    for got, want in zip(pruned, outputs(), strict=True):
        assert_same_pair_max(got, want)


def test_pruned_scan_scores_few_pairs(solve_small, monkeypatch):
    """On a solved field the anchor pair rules out most pairs at once."""
    scored = []
    quotients = analysis._quotients

    def counted(u, w, x, y, alpha):
        scored.append(len(u))
        return quotients(u, w, x, y, alpha)

    monkeypatch.setattr(analysis, "_quotients", counted)
    monkeypatch.setattr(analysis, "_HOLDER_REFINE_ROUNDS", 0)
    h = m.holder_seminorm(m.mirror_to_fullplane(solve_small), 0.5, 600)
    assert h.pairs_evaluated == math.comb(602, 2)
    assert sum(scored) < h.pairs_evaluated / 3


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
    assert m.lp_gradient_norm(res, m.cell_gradient_sq(res.field)) == 0.0


def test_lp_norm_unit_gradient_closed_form():
    # u = y over the mirrored annulus: integral of 1 is the annulus area
    grid = medium_grid()
    res = synthetic_result(grid, np.exp(grid.s)[:, None]
                           * np.sin(grid.phi)[None, :])
    spec = grid.spec
    exact = (np.pi * (spec.r_max**2 - spec.r_min**2)) ** 0.25
    got = m.lp_gradient_norm(res, m.cell_gradient_sq(res.field))
    assert abs(got - exact) / exact < 3e-3


def test_lp_norm_refinement_consistency():
    vals = {}
    for n_s, n_phi in ((113, 17), (225, 33)):
        grid = m.build_grid(m.GridSpec(r_min=2.0**-4, r_max=2.0**10,
                                       n_s=n_s, n_phi=n_phi))
        res = synthetic_result(grid, power_law_field(grid, 0.5))
        vals[n_s] = m.lp_gradient_norm(res, m.cell_gradient_sq(res.field))
    assert abs(vals[225] - vals[113]) / vals[113] < 0.005


def whole_array_gradient_sq(field):
    """cell_gradient_sq as one whole-array expression."""
    g, v = field.grid, field.values
    vs = (v[1:, :] - v[:-1, :]) / g.ds
    us = 0.5 * (vs[:, 1:] + vs[:, :-1])
    vp = (v[:, 1:] - v[:, :-1]) / g.dphi
    up = 0.5 * (vp[1:, :] + vp[:-1, :])
    return (us * us + up * up) * g.em2s_c[:, None]


@pytest.mark.parametrize("spec", [ACC_SPEC, ACC_SPEC_FINE],
                         ids=["577x65", "1153x129"])
def test_gradient_outputs_equal_the_whole_array_forms(spec):
    """The strip-wise gradient, the row maxima taken before the root and
    the in-place weighting keep every bit of the whole-array forms."""
    field = random_even_field(spec)[1]
    g = field.grid
    q = whole_array_gradient_sq(field)
    assert np.array_equal(m.cell_gradient_sq(field), q)
    r_c = np.exp(g.s_c)
    keep = r_c >= 2.0
    for p in (2.5, 4.0, 8.0, 32.0):
        res = synthetic_result(g, field.values, p=p)
        profile, fit = m.gradient_profile(res, q, (4.0, 512.0))
        assert np.array_equal(profile.radii, r_c[keep])
        assert np.array_equal(profile.sup_values,
                              np.sqrt(q)[keep].max(axis=1))
        want = float((2.0 * (g.cell_weight * q ** (p / 2.0)).sum())
                     ** (1.0 / p))
        assert m.lp_gradient_norm(res, m.cell_gradient_sq(res.field)) == want


def test_gradient_inputs_are_checked_against_the_grid():
    grid = medium_grid()
    res = synthetic_result(grid, power_law_field(grid, 0.5))
    q = m.cell_gradient_sq(res.field)
    for bad in (q[1:], q[:, :-1], q.T):
        with pytest.raises(ValueError, match="squared cell gradient of shape"):
            m.lp_gradient_norm(res, bad)
        with pytest.raises(ValueError, match="squared cell gradient of shape"):
            m.gradient_profile(res, bad, (2.0, 64.0))


def test_lp_norm_overflow_is_inf_and_the_estimate_rejects_it():
    # at p = 1000 a gradient above about 2 overflows |grad u|**p: the norm
    # is inf with no numpy warning (the suite makes warnings errors), and
    # the constant estimate rejects it
    grid = medium_grid()
    p = 1000.0
    res = synthetic_result(grid, power_law_field(grid, m.beta_p(p)), p=p)
    q = m.cell_gradient_sq(res.field)
    assert q.max() > 4.0
    assert m.lp_gradient_norm(res, q) == math.inf
    with pytest.raises(ValueError, match="gradient 1000-norm overflows"):
        m.estimate_morrey_constant(res, sample_budget=50)
    with pytest.raises(ValueError, match="gradient 1000-norm overflows"):
        m.morrey_estimate(res, q, sample_budget=50)
    with pytest.raises(ValueError, match="zero gradient norm"):
        m.morrey_estimate(res, np.zeros_like(q), sample_budget=50)
    # the Hoelder search checks its budget before the norm is checked
    for grad_sq in (q, np.zeros_like(q)):
        with pytest.raises(m.ParameterError, match="sample_budget"):
            m.morrey_estimate(res, grad_sq, sample_budget=1)
    # p = 64 is in range on the same field
    res = synthetic_result(grid, res.field.values, p=64.0)
    assert math.isfinite(m.lp_gradient_norm(res, q))


# ------------------------------------------------------- constant estimate

def test_norm_and_estimate_read_p_from_the_result():
    """No analysis input can disagree with another: p comes from the
    result, and the estimate computes its norm from the gradient."""
    assert list(inspect.signature(m.lp_gradient_norm).parameters) == [
        "result", "grad_sq"]
    assert list(inspect.signature(m.morrey_estimate).parameters) == [
        "result", "grad_sq", "sample_budget"]
    grid = medium_grid()
    values = power_law_field(grid, 0.5)
    for p in (4.0, 8.0):
        res = synthetic_result(grid, values, p=p)
        q = m.cell_gradient_sq(res.field)
        norm = m.lp_gradient_norm(res, q)
        assert norm == float(
            (2.0 * (grid.cell_weight * q ** (p / 2.0)).sum()) ** (1.0 / p))
        est = m.morrey_estimate(res, q, sample_budget=50)
        assert (est.alpha, est.grad_norm) == (1.0 - 2.0 / p, norm)
        assert est.C_estimate == est.seminorm / norm
        assert np.array_equal(m.cell_gradient_sq(res.field), q)
        assert repr(asdict(m.estimate_morrey_constant(res, 50))) == \
            repr(asdict(est))


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


@pytest.mark.parametrize("name, value", [("eps", math.nan), ("eps", math.inf),
                                         ("beta", math.nan), ("tau", math.nan)])
def test_barrier_rejects_non_finite_inputs(solve_small, name, value):
    # a NaN eps makes every comparison with the barrier false, so it would
    # report no violations whatever the field
    bp = m.beta_p(4.0)
    kwargs = {"beta": 0.9 * bp, "tau": 0.05 * bp, name: value}
    with pytest.raises(ValueError, match=f"{name}.*must be positive and finite"):
        m.barrier_check(solve_small, **kwargs)


def sampled_barrier_check(result, beta, tau, eps):
    """barrier_check as it was with f read through a 513-sample angular
    profile: the reference for the check that builds only ConeParams."""
    field, p = result.field, result.p
    kappa = beta + tau
    profile = m.angular_profile(kappa, p, 513)
    delta = (profile.params.aperture_L - 1.0) * np.pi / 2.0
    g = field.grid
    f_ang = m.evaluate_w(profile.params, 1.0, g.phi - 0.5 * np.pi)
    c_f = float(f_ang.min())
    if eps is None:
        eps = 1.5 / c_f
    i_in = int(np.argmin(np.abs(g.r - 1.0)))
    i_out = int(np.argmin(np.abs(g.r - g.spec.r_max / 8.0)))
    sup = np.abs(field.values).max(axis=1)
    s_in, s_out = float(sup[i_in]), float(sup[i_out])
    rr = g.r[i_in:i_out + 1]
    barrier = (s_out + eps * s_in * (rr[:, None] / g.r[i_in]) ** (-kappa)
               * f_ang[None, :])
    excess = field.values[i_in:i_out + 1, :] - barrier
    return m.BarrierReport(beta=beta, tau=tau, eps=float(eps),
                           violations=int((excess > 0).sum()),
                           max_violation=float(max(excess.max(), 0.0)),
                           kappa=kappa, delta=float(delta), c_f=c_f,
                           r_inner=float(g.r[i_in]),
                           r_outer=float(g.r[i_out]),
                           n_points=int(excess.size))


BARRIER_SPECS = {
    "577x65": ACC_SPEC, "1153x129": ACC_SPEC_FINE,
    "113x17": m.GridSpec(r_min=2.0**-4, r_max=2.0**10, n_s=113, n_phi=17)}


@pytest.mark.parametrize("p", [4.0, 8.0])
@pytest.mark.parametrize("eps", [None, 0.05])
@pytest.mark.parametrize("name", list(BARRIER_SPECS))
def test_barrier_report_equals_the_sampled_profile_path(name, eps, p):
    """The post-solve synthetic grids min(1, r**-b) sin(phi), b a little
    above beta_p, and barrier_controls' grid with its two decay rates."""
    grid = m.build_grid(BARRIER_SPECS[name])
    bp = m.beta_p(p)
    rates = (bp, 0.1) if name == "113x17" else (1.05 * bp,)
    for rate in rates:
        res = synthetic_result(grid, power_law_field(grid, rate), p=p)
        got = m.barrier_check(res, beta=0.9 * bp, tau=0.05 * bp, eps=eps)
        want = sampled_barrier_check(res, 0.9 * bp, 0.05 * bp, eps)
        assert asdict(got) == asdict(want)


def test_barrier_rejects_supercritical_rate(solve_small):
    bp = m.beta_p(4.0)
    with pytest.raises(ValueError):
        m.barrier_check(solve_small, beta=bp, tau=0.01 * bp)
    with pytest.raises(ValueError):
        m.barrier_check(solve_small, beta=-0.1, tau=0.05 * bp)
