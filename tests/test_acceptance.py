"""Acceptance suite: one test per criterion, one printed verdict line each.

The heavy solves (p = 4 base and refined, p = 8) are session fixtures
shared with the rest of the suite; everything else runs from closed forms.
"""

import math

import numpy as np

import morreylab as m
from conftest import ACC_SPEC, listed_evaluator
from morreylab import checks


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------- 1

def test_criterion_1_exponent_formula():
    ok = abs(m.beta_p(2.0) - 1.0) < 1e-12
    ok &= abs(m.beta_p(3.0) - 3.0**-0.5) < 1e-12
    grid = [2.5, 3.0, 4.0, 8.0, 16.0, 1e3, 1e6]
    vals = [m.beta_p(p) for p in grid]
    ok &= all(b < a for a, b in zip(vals, vals[1:]))
    ok &= all(1.0 / 3.0 < v <= 1.0 for v in vals)
    ok &= abs(m.beta_p(1e6) - 1.0 / 3.0) < 1e-5
    report(1, "exponent formula", ok,
           f"beta(2)={m.beta_p(2.0):.15f} beta(1e6)-1/3={m.beta_p(1e6) - 1/3:.2e}")


# ---------------------------------------------------------------------- 2

def test_criterion_2_angular_identity_suite():
    reports = [checks.cone_identities(p) for p in (3.0, 4.0, 8.0)]
    worst_id, worst_spread, worst_lk2 = (
        max(r[key] for r in reports)
        for key in ("identity_max_abs_err", "power_combination_rel_spread",
                    "aperture_identity_residual"))
    ok = all(r["pass"] and r["g_min"] > 0 for r in reports)
    ok &= worst_id < 1e-12
    report(2, "angular identity suite", ok,
           f"identity={worst_id:.1e} spread={worst_spread:.1e} "
           f"aperture={worst_lk2:.1e}")


# ---------------------------------------------------------------------- 3

def test_criterion_3_p_harmonicity_of_cone_solution():
    p = 4.0
    kappa = m.beta_p(p)
    prof = m.angular_profile(kappa, p, 200)
    rng = np.random.default_rng(42)
    pts = [(rng.uniform(0.7, 2.0), rng.uniform(-0.8, 0.8) * prof.params.phi_max)
           for _ in range(50)]
    r_coarse = m.pharmonic_residual(prof, p, pts, h=1e-2)
    r_fine = m.pharmonic_residual(prof, p, pts, h=1e-3)
    ratio = r_coarse / r_fine
    ok = 50.0 <= ratio <= 200.0
    bad = 1.1 * kappa
    n_coarse = m.pharmonic_residual(prof, p, pts, h=1e-2, radial_exponent=bad)
    n_fine = m.pharmonic_residual(prof, p, pts, h=1e-3, radial_exponent=bad)
    ok &= n_fine > 1e-3 and n_coarse / n_fine < 5.0
    report(3, "p-harmonicity of the cone solution", ok,
           f"refinement ratio={ratio:.1f}, control ratio={n_coarse / n_fine:.2f}")


# ---------------------------------------------------------------------- 4

def test_criterion_4_solver_desk_scale(solve_p4, solve_p4_fine):
    v = solve_p4.field.values
    grid = solve_p4.grid
    ok = solve_p4.converged
    for stage in solve_p4.stages:
        hist = stage.energy_history
        ok &= all(b <= a + 1e-15 * max(1.0, abs(a))
                  for a, b in zip(hist, hist[1:]))
    ok &= bool(v.min() >= 0.0 and v.max() <= 1.0)
    ok &= np.unravel_index(np.argmax(v), v.shape) == grid.pin_index
    sup = np.abs(v).max(axis=1)[grid.i_pin:]
    ok &= bool(np.all(np.diff(sup) <= 1e-15))
    worst_probe = 0.0
    for r_probe in (2.0, 8.0, 32.0):
        base = m.interpolate(solve_p4.field, r_probe, np.pi / 2)
        fine = m.interpolate(solve_p4_fine.field, r_probe, np.pi / 2)
        worst_probe = max(worst_probe, abs(fine - base) / abs(base))
    ok &= worst_probe < 0.01
    report(4, "solver correctness at desk scale", ok,
           f"max probe change={100 * worst_probe:.3f}%")


# ---------------------------------------------------------------------- 5

def test_criterion_5_decay_exponent(solve_p4, solve_p8):
    window = (4.0, ACC_SPEC.r_max / 8.0)
    detail = []
    ok = True
    for result in (solve_p4, solve_p8):
        fit = m.fit_exponent(m.decay_profile(result), window)
        bp = m.beta_p(result.p)
        ok &= bp - 0.10 <= fit.beta_hat <= bp + 0.10
        detail.append(f"p={result.p:g}: beta_hat={fit.beta_hat:.4f} "
                      f"beta_p={bp:.4f}")
    report(5, "decay exponent", ok, "; ".join(detail))


# ---------------------------------------------------------------------- 6

def test_criterion_6_gradient_decay(solve_p4, solve_p8):
    window = (4.0, ACC_SPEC.r_max / 8.0)
    detail = []
    ok = True
    for result in (solve_p4, solve_p8):
        fit = m.fit_exponent(m.decay_profile(result), window)
        _, gfit = m.gradient_profile(
            result, m.cell_gradient_sq(result.field), window)
        gap = gfit.beta_hat - (fit.beta_hat + 1.0)
        ok &= abs(gap) <= 0.15
        detail.append(f"p={result.p:g}: gradient exp={gfit.beta_hat:.4f} "
                      f"gap={gap:+.4f}")
    report(6, "gradient decay", ok, "; ".join(detail))


# ---------------------------------------------------------------------- 7

def test_criterion_7_barrier_comparison(solve_p4):
    bp = m.beta_p(4.0)
    good = m.barrier_check(solve_p4, beta=0.9 * bp, tau=0.05 * bp)
    ok = good.violations == 0 and good.eps * good.c_f >= 1.0
    bad = checks.barrier_controls(4.0)["slow_decay_report"]
    ok &= bad["violations"] > 0
    report(7, "barrier comparison", ok,
           f"solve violations={good.violations}, "
           f"negative control violations={bad['violations']}")


# ---------------------------------------------------------------------- 8

def test_criterion_8_morrey_constant(solve_p4, solve_p4_fine):
    p = solve_p4.p
    expected = 2.0 ** (2.0 / p)
    full = m.mirror_to_fullplane(solve_p4)
    pair = np.array([[0.0, 1.0], [0.0, -1.0]])
    vals = full.evaluate(pair)
    quotient = abs(vals[0] - vals[1]) / 2.0 ** (1.0 - 2.0 / p)
    ok = math.isclose(quotient, expected, rel_tol=1e-15)

    est = m.estimate_morrey_constant(solve_p4, sample_budget=600)
    ok &= est.seminorm >= quotient - 1e-15
    ok &= abs(est.seminorm - expected) / expected < 1e-3
    argmax = np.array(est.argmax_pair)
    target = pair if argmax[0][1] > 0 else pair[::-1]
    ok &= bool(np.linalg.norm(argmax - target) < 1e-9)

    est_fine = m.estimate_morrey_constant(solve_p4_fine, sample_budget=600)
    drift = abs(est_fine.C_estimate - est.C_estimate) / est.C_estimate
    ok &= drift < 0.01
    report(8, "optimal constant consistency", ok,
           f"seminorm={est.seminorm:.6f} C={est.C_estimate:.6f} "
           f"refinement drift={100 * drift:.2f}%")


# ---------------------------------------------------------------------- 9

def test_criterion_9_one_dimensional_fixture():
    p = 4.0
    alpha = 1.0 - 1.0 / p

    xs = np.linspace(-1.5, 1.5, 1501)
    vals = np.clip(xs, -1.0, 1.0)
    diff = np.abs(vals[:, None] - vals[None, :])
    dist = np.abs(xs[:, None] - xs[None, :])
    iu = np.triu_indices(len(xs), k=1)
    oracle = float(np.max(diff[iu] / dist[iu] ** alpha))

    clamp = lambda pts: np.clip(np.atleast_2d(pts)[:, 0], -1.0, 1.0)
    pts = np.linspace(-1.5, 1.5, 301)[:, None]
    found = m.holder_seminorm(listed_evaluator(clamp, pts), alpha, 200)
    ok = abs(found.seminorm - 2.0 ** (1.0 / p)) < 1e-6
    ok &= abs(found.seminorm - oracle) < 1e-6
    report(9, "one-dimensional clamp fixture", ok,
           f"seminorm={found.seminorm:.8f} oracle={oracle:.8f}")
