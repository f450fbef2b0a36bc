"""Verification suites, shared by the `verify` command and the tests.

Each suite takes the power p and returns a JSON-ready dict of the
numbers it measured plus a boolean "pass", the verdict of its gates.
Layer functions are called through their modules (solver.solve_extremal,
never a name bound at import), so that anything which replaces a module
attribute, such as a profiler or a test double, also sees these calls.
"""

from __future__ import annotations

from dataclasses import asdict

import numpy as np

from . import analysis, aronsson, grid, solver


def cone_identities(p: float) -> dict:
    """Structural identities of the cone family at several powers."""
    bp = aronsson.beta_p(p)
    worst_identity = 0.0
    worst_spread = 0.0
    worst_lk2 = 0.0
    g_min = np.inf
    for kappa in (0.3, bp, 1.0, 2.0):
        profile = aronsson.angular_profile(kappa, p, 1000)
        rep = profile.invariant_report()
        worst_identity = max(worst_identity, rep["identity_max_abs_err"])
        worst_spread = max(worst_spread, rep["power_combination_rel_spread"])
        worst_lk2 = max(worst_lk2, abs(rep["aperture_identity_residual"]))
        g_min = min(g_min, rep["g_min"])
    inv_err = abs(aronsson.kappa_of_L(1.0, p) - bp)
    return {"identity_max_abs_err": worst_identity,
            "power_combination_rel_spread": worst_spread,
            "aperture_identity_residual": worst_lk2,
            "kappa_of_unit_aperture_vs_beta_p": inv_err,
            "g_min": g_min,
            "pass": bool(worst_identity < 1e-10 and worst_spread < 1e-10
                         and worst_lk2 < 1e-12 and inv_err < 1e-10
                         and g_min > 0)}


def gradient_consistency(p: float) -> dict:
    """Central-difference check of the energy gradient on a small grid."""
    spec = grid.GridSpec(r_min=np.exp(-2.0), r_max=np.exp(2.0), n_s=17, n_phi=9)
    g = grid.build_grid(spec)
    rng = np.random.default_rng(20240811)
    field = grid.ScalarField(g, rng.standard_normal((spec.n_s, spec.n_phi)))
    field.apply_dirichlet()
    params = grid.EnergyParams(p=p, eps=1e-2)
    grad = grid.energy_gradient(field, params).values
    free = ~g.constrained_mask()
    h = 1e-5
    worst = 0.0
    for _ in range(20):
        delta = np.zeros_like(field.values)
        delta[free] = rng.standard_normal(int(free.sum()))
        up = grid.ScalarField(g, field.values + h * delta)
        dn = grid.ScalarField(g, field.values - h * delta)
        fd = (grid.energy(up, params) - grid.energy(dn, params)) / (2 * h)
        worst = max(worst, abs(fd - float((grad * delta).sum()))
                    / max(1.0, abs(fd)))
    return {"max_rel_error": worst, "pass": bool(worst < 1e-7)}


def barrier_controls(p: float) -> dict:
    """Barrier comparison on closed-form fields, positive and negative.

    r**-beta_p decay must pass the check at the default eps; r**-0.1
    decay must violate it at eps = 0.05.
    """
    bp = aronsson.beta_p(p)
    g = grid.build_grid(grid.GridSpec(r_min=2.0**-4, r_max=2.0**10,
                                      n_s=113, n_phi=17))
    sinphi = np.sin(g.phi)[None, :]

    def control(rate):
        values = np.minimum(1.0, g.r**-rate)[:, None] * sinphi
        return solver.SolveResult(field=grid.ScalarField(g, values),
                                  energy=0.0, stages=[], converged=True, p=p)

    good = analysis.barrier_check(control(bp), beta=0.9 * bp, tau=0.05 * bp,
                                  eps=None)
    bad = analysis.barrier_check(control(0.1), beta=0.9 * bp, tau=0.05 * bp,
                                 eps=0.05)
    return {"fast_decay_report": asdict(good),
            "slow_decay_report": asdict(bad),
            "pass": bool(good.violations == 0 and bad.violations > 0)}


def cone_residual(p: float) -> dict:
    """Finite-difference residual refinement on the cone solution."""
    profile = aronsson.angular_profile(aronsson.beta_p(p), p, 200)
    rng = np.random.default_rng(7)
    pts = [(rng.uniform(0.7, 2.0), rng.uniform(-0.8, 0.8) * profile.params.phi_max)
           for _ in range(25)]
    r_coarse = aronsson.pharmonic_residual(profile, p, pts, h=1e-2)
    r_fine = aronsson.pharmonic_residual(profile, p, pts, h=1e-3)
    ratio = r_coarse / r_fine
    return {"residual_h_1e2": r_coarse, "residual_h_1e3": r_fine,
            "refinement_ratio": ratio,
            "pass": bool(50.0 <= ratio <= 200.0 and r_fine < 1e-4)}


def coarse_solve(p: float) -> dict:
    """Small solve plus decay fit, gated at a coarse-grid tolerance."""
    spec = grid.GridSpec(r_min=2.0**-4, r_max=2.0**8, n_s=145, n_phi=33)
    result = solver.solve_extremal(spec, p, solver.SolverConfig())
    v = result.field.values
    bounds_ok = bool(v.min() >= 0.0 and v.max() <= 1.0)
    fit = analysis.fit_exponent(analysis.decay_profile(result),
                                (4.0, spec.r_max / 8.0))
    bp = aronsson.beta_p(p)
    gate = abs(fit.beta_hat - bp) < 0.15
    return {"converged": result.converged, "bounds_ok": bounds_ok,
            "beta_hat": fit.beta_hat, "beta_p": bp,
            "beta_gate_0p15": bool(gate),
            "pass": bool(result.converged and bounds_ok and gate)}
