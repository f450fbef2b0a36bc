import inspect
import math
import re

import numpy as np
import pytest
from scipy.integrate import quad

import morreylab as m
from morreylab import aronsson

P_GRID = [2.5, 3.0, 4.0, 8.0, 16.0, 1e3, 1e6]
KAPPA_GRID = [0.1, 0.3, 0.5, 1.0, 2.0, 5.0]

BETA_P4_CLOSED = (-1.0 + 2.0 * math.sqrt(7.0)) / 9.0


# ------------------------------------------------------------------- beta_p

def test_beta_p_boundary_and_known_values():
    assert abs(m.beta_p(2.0) - 1.0) < 1e-15
    assert abs(m.beta_p(3.0) - 1.0 / math.sqrt(3.0)) < 1e-15
    assert abs(m.beta_p(4.0) - BETA_P4_CLOSED) < 1e-15


def test_beta_p_large_p_limit():
    assert abs(m.beta_p(1e6) - 1.0 / 3.0) < 1e-5


def test_beta_p_monotone_and_range():
    vals = [m.beta_p(p) for p in P_GRID]
    assert all(b > a for a, b in zip(vals[1:], vals[:-1]))
    assert all(1.0 / 3.0 < v <= 1.0 for v in vals)


@pytest.mark.parametrize("bad", [1.5, 1.999, -3.0, float("inf"), float("nan")])
def test_beta_p_rejects_bad_p(bad):
    with pytest.raises(ValueError):
        m.beta_p(bad)


# --------------------------------------------------------------- aperture_L

@pytest.mark.parametrize("p", [3.0, 4.0, 8.0])
def test_unit_aperture_at_beta_p(p):
    assert abs(m.aperture_L(m.beta_p(p), p) - 1.0) < 1e-10


def test_aperture_value_p4_kappa1():
    # direct arithmetic: a = 3/2, mu = sqrt(3/5), L = 2*sqrt(3/5) - 1
    expected = 2.0 * math.sqrt(3.0 / 5.0) - 1.0
    assert abs(m.aperture_L(1.0, 4.0) - expected) < 1e-14


@pytest.mark.parametrize("p", [2.5, 3.0, 4.0, 8.0, 100.0])
@pytest.mark.parametrize("kappa", KAPPA_GRID)
def test_aperture_identity(kappa, p):
    a = (p - 1.0) / (p - 2.0)
    L = m.aperture_L(kappa, p)
    resid = (L + 1.0) ** 2 - (kappa + 1.0) ** 2 / (kappa**2 + kappa / a)
    assert abs(resid) < 1e-12


def test_aperture_monotone_in_kappa_and_p():
    for p in (3.0, 4.0, 8.0):
        vals = [m.aperture_L(k, p) for k in KAPPA_GRID]
        assert all(b < a for a, b in zip(vals, vals[1:]))
    for kappa in (0.3, 1.0, 2.0):
        vals = [m.aperture_L(kappa, p) for p in (2.5, 3.0, 4.0, 8.0, 100.0)]
        assert all(b < a for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("bad", [0.0, -1.0, float("nan")])
def test_aperture_rejects_bad_kappa(bad):
    with pytest.raises(ValueError):
        m.aperture_L(bad, 4.0)


# --------------------------------------------------------------- ConeParams

def test_cone_params_derives_a_mu_and_aperture():
    params = m.ConeParams(4, 1)
    assert (params.p, params.kappa) == (4.0, 1.0)
    assert type(params.p) is float and type(params.kappa) is float
    assert params.a == 1.5
    assert params.mu == math.sqrt(1.5 / 2.5)
    assert abs(params.aperture_L - (2.0 * math.sqrt(0.6) - 1.0)) < 1e-15
    with pytest.raises(TypeError):   # a, mu and L are derived, not given
        m.ConeParams(4.0, 1.0, 1.5)


@pytest.mark.parametrize("bad", [2.0, 1.5, math.nan, math.inf])
def test_cone_params_rejects_bad_p(bad):
    """p = 2 is beta_p's boundary case but has no cone solution."""
    with pytest.raises(ValueError):
        m.ConeParams(bad, 1.0)


@pytest.mark.parametrize("p", [2.5, 4.0, 8.0, 1e3])
@pytest.mark.parametrize("L", [100.0, 1e3, 1e4, 1e6])
def test_wide_cones_construct(L, p):
    """Wide apertures pass the identity check, which scales with (L+1)**2."""
    params = m.ConeParams(p, m.kappa_of_L(L, p))
    assert abs(params.aperture_L - L) < 1e-12 * L
    assert abs(params.lk2_residual()) < 1e-14 * (L + 1.0) ** 2


# --------------------------------------------------------------- kappa_of_L

def test_kappa_of_unit_aperture_is_beta_p():
    for p in (3.0, 4.0, 8.0):
        assert abs(m.kappa_of_L(1.0, p) - m.beta_p(p)) < 1e-10
    assert abs(m.kappa_of_L(1.0, 4.0) - BETA_P4_CLOSED) < 1e-10


@pytest.mark.parametrize("kappa0", [0.1, 0.5, 1.0, 2.0])
def test_kappa_of_L_round_trip(kappa0):
    p = 4.0
    back = m.kappa_of_L(m.aperture_L(kappa0, p), p)
    assert abs(back - kappa0) < 1e-10


def test_kappa_of_L_residual_contract():
    for p in (2.5, 4.0, 8.0, 1e6):
        for L in (1e-6, 0.25, 1.0, 3.0, 50.0, 1e6):
            k = m.kappa_of_L(L, p)
            assert abs(m.aperture_L(k, p) - L) < 1e-12 * max(1.0, L)


def test_kappa_below_beta_p_for_wider_cone():
    p = 4.0
    bp = m.beta_p(p)
    prev = 0.0
    for delta in (1e-1, 1e-2, 1e-3, 1e-4):
        k = m.kappa_of_L(1.0 + delta, p)
        assert k < bp
        assert k > prev  # approaches beta_p from below as delta shrinks
        prev = k
    assert abs(m.kappa_of_L(1.0 + 1e-10, p) - bp) < 1e-7


@pytest.mark.parametrize("bad_L", [0.0, -0.5, -1.0, float("nan"), float("inf"),
                                   1e300, 1e60])   # kappa 1.5e-120 at 1e60
def test_kappa_of_L_unattainable(bad_L):
    with pytest.raises(ValueError):
        m.kappa_of_L(bad_L, 4.0)


def _numbers(report):
    """Every number in an invariant report, lists flattened."""
    for value in report.values():
        yield from (value if isinstance(value, list) else [value])


@pytest.mark.parametrize("p", [2.5, 4.0, 8.0, 16.0, 64.0, 1000.0])
def test_kappa_floor(p):
    # at the floor the invariants are finite, and the RuntimeWarning filter
    # of the test run turns any overflow or invalid value into a failure
    report = m.angular_profile(1e-100, p, 2001).invariant_report()
    assert all(math.isfinite(x) for x in _numbers(report))
    for below in (9.9e-101, 1e-120, 1e-200, 5e-324):
        with pytest.raises(ValueError, match="kappa must be finite and >= 1e-100"):
            m.ConeParams(p, below)
    # a wide cone's kappa is about a / L**2: above the floor at L = 1e49
    assert m.kappa_of_L(1e49, p) >= 1e-100


# --------------------------------------------------------- angular profiles

def axis_value(kappa: float, p: float) -> float:
    a = (p - 1.0) / (p - 2.0)
    return (1.0 + 1.0 / (a * kappa)) ** (-(kappa + 1.0) / 2.0)


def test_profile_center_sample():
    p, kappa = 4.0, m.beta_p(4.0)
    prof = m.angular_profile(kappa, p, 101)
    mid = 50
    assert abs(prof.theta[mid]) < 1e-15
    assert abs(prof.phi[mid]) < 1e-14
    assert abs(prof.f[mid] - axis_value(kappa, p)) < 1e-14
    assert abs(prof.fprime[mid]) < 1e-14


def test_profile_endpoints_against_quadrature_oracle():
    p, kappa = 4.0, 0.7
    a = (p - 1.0) / (p - 2.0)
    prof = m.angular_profile(kappa, p, 51)

    def phi_quad(theta):
        integral, _ = quad(lambda t: 1.0 / (math.cos(t) ** 2 + a * kappa),
                           0.0, theta, limit=200)
        return theta - a * (1.0 + kappa) * integral

    # closed form against the integral form at interior and endpoint thetas
    for theta_probe, phi_val in zip(prof.theta, prof.phi):
        assert abs(phi_val - phi_quad(theta_probe)) < 1e-10
    assert prof.f[0] == 0.0 and prof.f[-1] == 0.0
    lim = np.pi / 2 - (1.0 + 1.0 / kappa) * prof.params.mu * np.pi / 2
    assert abs(prof.phi[-1] - lim) < 1e-14


@pytest.mark.parametrize("p", [3.0, 4.0, 8.0])
@pytest.mark.parametrize("kappa", [0.3, 1.0, 2.0])
def test_profile_pointwise_identity(kappa, p):
    prof = m.angular_profile(kappa, p, 500)
    assert prof.identity_residual() < 1e-12


def test_profile_symmetries_and_positivity():
    prof = m.angular_profile(0.8, 4.0, 201)
    assert np.all(np.diff(prof.phi) < 0)           # strictly decreasing
    assert np.allclose(prof.phi, -prof.phi[::-1], atol=1e-14)
    assert np.allclose(prof.f, prof.f[::-1], atol=1e-14)
    assert np.allclose(prof.fprime, -prof.fprime[::-1], atol=1e-14)
    assert np.all(prof.f[1:-1] > 0)
    assert np.all(prof.g > 0)


@pytest.mark.parametrize("kappa, p", [(1e-3, 2.5), (1.0, 4.0), (80.0, 1000.0)])
def test_profile_fprime_equals_its_closed_form_bit_for_bit(kappa, p):
    # f and f' share one power of the base; f' keeps the bits of its own
    # closed form, kappa base**(-(kappa+1)/2) sin(theta), at every sample
    # inside the ends, whose values are the analytic limits
    prof = m.angular_profile(kappa, p, 101)
    params, theta = prof.params, prof.theta
    fprime = params.kappa * aronsson._base(params, theta) \
        ** (-(params.kappa + 1.0) / 2.0) * np.sin(theta)
    assert np.array_equal(prof.fprime[1:-1], fprime[1:-1])
    assert np.array_equal(prof.f[1:-1],
                          aronsson._f_of_theta(params, theta)[1:-1])


@pytest.mark.parametrize("kappa", [0.3, 1.0, 2.0, 80.0, 100.0, 1000.0])
def test_power_combination_constant_equals_kappa_sq(kappa):
    # g peaks at kappa**2, so g**(kappa+1) alone overflows from kappa ~ 80;
    # the overflow warning would fail the test
    prof = m.angular_profile(kappa, 4.0, 400)
    combo = prof.power_combination()
    assert np.all(np.isfinite(combo))
    mean = combo.mean()
    assert (combo.max() - combo.min()) / mean < 1e-11
    assert abs(mean - kappa**2) / kappa**2 < 1e-12


def test_profile_rejects_tiny_sample_count():
    with pytest.raises(ValueError):
        m.angular_profile(1.0, 4.0, 2)


# ------------------------------------------------------------- evaluate_w

def test_evaluate_w_axis_and_homogeneity():
    p, kappa = 4.0, m.beta_p(4.0)
    cone = m.ConeParams(p, kappa)
    assert abs(m.evaluate_w(cone, 1.0, 0.0) - axis_value(kappa, p)) < 1e-13
    for phi in (-0.9, -0.3, 0.0, 0.4, 1.1):
        ratio = m.evaluate_w(cone, 2.0, phi) / m.evaluate_w(cone, 1.0, phi)
        assert abs(ratio - 2.0 ** (-kappa)) < 1e-10


def test_evaluate_w_boundary_and_domain():
    cone = m.ConeParams(4.0, 1.0)
    edge = cone.phi_max
    assert m.evaluate_w(cone, 1.5, edge) == 0.0
    assert m.evaluate_w(cone, 1.5, -edge) == 0.0
    with pytest.raises(ValueError):
        m.evaluate_w(cone, 1.0, edge * 1.01)
    with pytest.raises(ValueError):
        m.evaluate_w(cone, -1.0, 0.0)


def test_phi_inversion_round_trip():
    prof = m.angular_profile(0.6, 4.0, 64)
    params = prof.params
    thetas = np.linspace(-np.pi / 2 * 0.999, np.pi / 2 * 0.999, 41)
    for theta in thetas:
        phi = float(np.asarray(
            m.aronsson._phi_of_theta(params, theta)))
        back = m.invert_phi(params, phi)
        assert abs(back - theta) < 1e-12


@pytest.mark.parametrize("kappa,p", [(0.6, 4.0), (0.3, 8.0), (2.0, 3.0)])
def test_invert_phi_array_matches_scalar_calls(kappa, p):
    params = m.ConeParams(p, kappa)
    pm = params.phi_max
    rng = np.random.default_rng(3)
    phi = np.concatenate([[pm, -pm, 0.0], rng.uniform(-pm, pm, 297)])
    theta = m.invert_phi(params, phi.reshape(10, 30))
    assert theta.shape == (10, 30)
    scalar = [m.invert_phi(params, float(x)) for x in phi]
    assert all(type(t) is float for t in scalar)
    assert np.array_equal(theta.ravel(), scalar)
    assert m.invert_phi(params, np.empty(0)).shape == (0,)


def tolerance_invert_phi(params, phi):
    """invert_phi with the bisection run until every bracket is under 1e-13.

    Returns the angles and the number of halvings the loop made.
    """
    phi_of, dphi = m.aronsson._phi_of_theta, m.aronsson._dphi_dtheta
    phi = np.asarray(phi, dtype=float)
    pm = params.phi_max
    flat = phi.ravel()
    lo, hi = np.full(flat.shape, -np.pi / 2), np.full(flat.shape, np.pi / 2)
    halvings = 0
    while np.any(hi - lo > 1e-13):
        mid = 0.5 * (lo + hi)
        above = phi_of(params, mid) > flat
        lo, hi = np.where(above, mid, lo), np.where(above, hi, mid)
        halvings += 1
    theta = 0.5 * (lo + hi)
    theta -= (phi_of(params, theta) - flat) / dphi(params, theta)
    theta = np.where(flat >= pm, -np.pi / 2, np.where(
        flat <= -pm, np.pi / 2, np.clip(theta, -np.pi / 2, np.pi / 2)))
    return (theta.reshape(phi.shape) if phi.ndim else float(theta[0])), halvings


@pytest.mark.parametrize("p", [2.01, 2.5, 4.0, 8.0, 32.0, 1e6])
def test_fixed_halvings_equal_the_tolerance_bisection(p):
    # the fixed count's premise: a bracket of pi * 2**-44 is over 1e-13
    # and one of pi * 2**-45 under it, whatever the cone and the angles
    bp = m.beta_p(p)
    rng = np.random.default_rng(11)
    for kappa in (1e-100, 1e-3, 0.3, 0.9 * bp, bp, 3.0, 1e3):
        params = m.ConeParams(p, kappa)  # every pair here is a valid cone
        pm = params.phi_max
        for n in (0, 1, 2, 17, 65, 129, 450, 2000):
            phi = np.concatenate([[0.0, pm, -pm],
                                  rng.uniform(-pm, pm, max(n - 3, 0))])[:n]
            expected, halvings = tolerance_invert_phi(params, phi)
            assert halvings == (45 if n else 0)
            assert np.array_equal(m.invert_phi(params, phi), expected)
        for scalar in (pm, -pm, 0.0, 0.37 * pm):
            expected, halvings = tolerance_invert_phi(params, scalar)
            assert halvings == 45
            assert m.invert_phi(params, scalar) == expected
        square = rng.uniform(-pm, pm, (9, 14))
        square[0, :3] = pm, -pm, 0.0
        expected, halvings = tolerance_invert_phi(params, square)
        assert halvings == 45
        theta = m.invert_phi(params, square)
        assert theta.shape == (9, 14)
        assert np.array_equal(theta, expected)


def test_evaluate_w_array_matches_scalar_calls():
    # w is the cone of params alone: no exponent can disagree with kappa
    assert list(inspect.signature(m.evaluate_w).parameters) == [
        "params", "r", "phi"]
    p = 4.0
    cone = m.ConeParams(p, 0.9 * m.beta_p(p))
    pm = cone.phi_max
    rng = np.random.default_rng(4)
    phi = np.concatenate([[pm, -pm, 0.0], rng.uniform(-pm, pm, 197)])
    r = rng.uniform(0.05, 20.0, phi.size)
    pairwise = m.evaluate_w(cone, r, phi)
    assert np.array_equal(pairwise, [
        m.evaluate_w(cone, float(a), float(b)) for a, b in zip(r, phi)])
    broadcast = m.evaluate_w(cone, 1.7, phi)
    assert np.array_equal(broadcast, [
        m.evaluate_w(cone, 1.7, float(b)) for b in phi])
    # at r = 1 the radial factor is exactly 1, so a caller that applies
    # the radial factor itself (pharmonic_residual, with kappa or its
    # control exponent) rounds as evaluate_w does
    angular = m.evaluate_w(cone, 1.0, phi)
    assert np.array_equal(angular, [m.evaluate_w(cone, 1.0, float(b))
                                    for b in phi])
    assert np.array_equal(r ** (-cone.kappa) * angular, pairwise)
    assert np.array_equal(np.full(phi.size, 1.7) ** (-cone.kappa) * angular,
                          broadcast)
    grid = m.evaluate_w(cone, r[:5, None], phi[None, :7])
    assert grid.shape == (5, 7)
    assert grid[3, 6] == m.evaluate_w(cone, float(r[3]), float(phi[6]))
    assert pairwise[0] == pairwise[1] == angular[0] == angular[1] == 0.0


@pytest.mark.parametrize("where", [0, 7, -1])
def test_array_calls_reject_one_bad_element(where):
    cone = m.ConeParams(4.0, 1.0)
    pm = cone.phi_max
    for bad in (1.01 * pm, -1.01 * pm, float("nan"), float("inf")):
        phi = np.linspace(-pm, pm, 12)
        phi[where] = bad
        with pytest.raises(ValueError):
            m.invert_phi(cone, phi)
        with pytest.raises(ValueError):
            m.evaluate_w(cone, 1.0, phi)
    for bad in (0.0, -1.0, float("nan"), float("inf")):
        r = np.linspace(0.5, 2.0, 12)
        r[where] = bad
        with pytest.raises(ValueError):
            m.evaluate_w(cone, r, 0.1)


def test_nan_angle_is_a_domain_error():
    cone = m.ConeParams(4.0, 1.0)
    with pytest.raises(ValueError):
        m.invert_phi(cone, float("nan"))
    with pytest.raises(ValueError):
        m.evaluate_w(cone, 1.0, float("nan"))


# ------------------------------------------------- p-harmonicity residuals

def interior_points(n: int, phi_max: float, seed: int = 1):
    rng = np.random.default_rng(seed)
    return [(rng.uniform(0.7, 2.0), rng.uniform(-0.8, 0.8) * phi_max)
            for _ in range(n)]


def test_residual_second_order_refinement():
    p = 4.0
    kappa = m.beta_p(p)
    prof = m.angular_profile(kappa, p, 64)
    pts = interior_points(50, prof.params.phi_max)
    r2 = m.pharmonic_residual(prof, p, pts, h=1e-2)
    r3 = m.pharmonic_residual(prof, p, pts, h=1e-3)
    assert r3 < 1e-4
    assert 50.0 < r2 / r3 < 200.0


def test_residual_negative_control_does_not_vanish():
    p = 4.0
    kappa = m.beta_p(p)
    prof = m.angular_profile(kappa, p, 64)
    pts = interior_points(20, prof.params.phi_max)
    bad = 1.1 * kappa
    r2 = m.pharmonic_residual(prof, p, pts, h=1e-2, radial_exponent=bad)
    r3 = m.pharmonic_residual(prof, p, pts, h=1e-3, radial_exponent=bad)
    assert r3 > 1e-3
    assert r2 / r3 < 5.0


def test_residual_homogeneity_scaling():
    p = 4.0
    kappa = m.beta_p(p)
    prof = m.angular_profile(kappa, p, 64)
    for r, phi in ((1.3, 0.4), (0.9, -0.7)):
        r_a = m.pharmonic_residual(prof, p, [(r, phi)], h=1e-3)
        r_b = m.pharmonic_residual(prof, p, [(2 * r, phi)], h=2e-3)
        assert abs(r_b / r_a - 2.0 ** (-(kappa + 2.0))) < 1e-3


def test_residual_rejects_large_step_near_boundary():
    prof = m.angular_profile(1.0, 4.0, 64)
    near_edge = 0.999 * prof.params.phi_max
    with pytest.raises(ValueError):
        m.pharmonic_residual(prof, 4.0, [(1.0, near_edge)], h=1e-2)


def test_residual_over_points_matches_pointwise_calls():
    p = 4.0
    kappa = m.beta_p(p)
    prof = m.angular_profile(kappa, p, 64)
    pts = interior_points(30, prof.params.phi_max, seed=5)
    for h, exponent in ((1e-2, None), (1e-3, None), (1e-3, 1.1 * kappa)):
        pointwise = [m.pharmonic_residual(prof, p, [pt], h,
                                          radial_exponent=exponent)
                     for pt in pts]
        assert all(type(x) is float for x in pointwise)
        assert m.pharmonic_residual(prof, p, pts, h=h,
                                    radial_exponent=exponent) == max(pointwise)


def test_residual_rejects_a_p_other_than_the_profiles():
    """The stencil's (p - 2) and the cone w share one p: p = 8 on a p = 4
    profile is an error, not a residual of about 1.2."""
    prof = m.angular_profile(m.beta_p(4.0), 4.0, 200)
    pts = interior_points(20, prof.params.phi_max)
    with pytest.raises(ValueError, match=re.escape(
            "p=8.0 is not the p=4.0 of the profile's cone")):
        m.pharmonic_residual(prof, 8.0, pts, h=1e-3)
    with pytest.raises(ValueError, match=re.escape(
            "p=2.0 is not the p=4.0 of the profile's cone")):
        m.pharmonic_residual(prof, 2.0, pts, h=1e-3)
    assert m.pharmonic_residual(prof, 4, pts, h=1e-3) == \
        m.pharmonic_residual(prof, 4.0, pts, h=1e-3) < 1e-4


def nine_call_residual(profile, p, pts, h, radial_exponent=None):
    """pharmonic_residual's stencil with one evaluate_w call per offset,
    each at the offset's own radius, or at r = 1 times the control's
    radial factor."""
    pts = np.asarray(pts, dtype=float)
    r, phi = pts[:, 0], pts[:, 1]

    def w(x, y):
        if radial_exponent is None:
            return m.evaluate_w(profile.params, np.hypot(x, y),
                                np.arctan2(x, y))
        return (np.hypot(x, y) ** -radial_exponent
                * m.evaluate_w(profile.params, 1.0, np.arctan2(x, y)))

    x, y = r * np.sin(phi), r * np.cos(phi)
    c = w(x, y)
    wxp, wxm = w(x + h, y), w(x - h, y)
    wyp, wym = w(x, y + h), w(x, y - h)
    wx = (wxp - wxm) / (2 * h)
    wy = (wyp - wym) / (2 * h)
    wxx = (wxp - 2 * c + wxm) / (h * h)
    wyy = (wyp - 2 * c + wym) / (h * h)
    wxy = (w(x + h, y + h) - w(x + h, y - h)
           - w(x - h, y + h) + w(x - h, y - h)) / (4 * h * h)
    grad2 = wx * wx + wy * wy
    res = np.abs(wxx + wyy
                 + (p - 2) * (wx * wx * wxx + 2 * wx * wy * wxy + wy * wy * wyy) / grad2)
    return float(np.max(res))


@pytest.mark.parametrize("p", [4.0, 8.0])
def test_residual_equals_the_nine_call_stencil(p):
    kappa = m.beta_p(p)
    prof = m.angular_profile(kappa, p, 200)
    pts = interior_points(25, prof.params.phi_max, seed=7)
    pts.append((1.0, 0.0))                      # on the axis: x = 0
    for h in (1e-2, 1e-3):
        for exponent in (None, 1.1 * kappa):
            assert m.pharmonic_residual(prof, p, pts, h=h,
                                        radial_exponent=exponent) == \
                nine_call_residual(prof, p, pts, h, exponent)


@pytest.mark.parametrize("where", [0, 4, 9])
def test_residual_rejects_one_inadmissible_point(where):
    prof = m.angular_profile(1.0, 4.0, 64)
    pts = interior_points(10, prof.params.phi_max, seed=6)
    pts[where] = (1.0, 0.999 * prof.params.phi_max)
    with pytest.raises(ValueError, match=re.escape(f"phi={pts[where][1]})")):
        m.pharmonic_residual(prof, 4.0, pts, h=1e-2)
    with pytest.raises(ValueError, match=re.escape(f"phi={pts[where][1]})")):
        m.pharmonic_residual(prof, 4.0, [pts[where]], h=1e-2)


@pytest.mark.parametrize("h", [math.nan, math.inf, -1.0, 0.0])
def test_residual_rejects_bad_step(h):
    prof = m.angular_profile(1.0, 4.0, 64)
    with pytest.raises(ValueError, match=re.escape(f"step h must be positive "
                                                   f"and finite, got {h}")):
        m.pharmonic_residual(prof, 4.0, [(1.0, 0.1)], h=h)


@pytest.mark.parametrize("pts", [[], [(1.0, 0.1, 0.2)], [1.0, 0.1]])
def test_residual_rejects_malformed_point_lists(pts):
    prof = m.angular_profile(1.0, 4.0, 64)
    with pytest.raises(ValueError):
        m.pharmonic_residual(prof, 4.0, pts, h=1e-2)
