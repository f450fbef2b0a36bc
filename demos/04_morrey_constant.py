"""Optimal-constant estimate and the cone-solution barrier comparison.

The mirrored extremal attains the Hoelder quotient 2^(2/p) at the pair
(e2, -e2), and no sampled pair beats it; dividing by the L^p norm of the
gradient estimates the sharp constant of the inequality.  It is an
estimate, not a lower bound: the norm averages the gradient to cell
centers, which reads it low.
The exterior barrier built from a cone solution of slightly subcritical
power dominates the solve everywhere, while a synthetic slowly decaying
field pierces it in the far field.
"""

import numpy as np

from morreylab import (GridSpec, ScalarField, SolveResult, barrier_check,
                       beta_p, cell_gradient_sq, holder_seminorm,
                       lp_gradient_norm, mirror_to_fullplane, morrey_estimate,
                       solve_extremal)

p = 4.0
spec = GridSpec(r_min=2.0**-4, r_max=2.0**10, n_s=225, n_phi=33)
result = solve_extremal(spec, p)
print("=" * 64)
print(f"optimal-constant estimate, p = {p}")
print("=" * 64)

full = mirror_to_fullplane(result)
pts = np.array([[0.0, 1.0], [0.0, -1.0], [1.0, 0.0]])
print(f"mirrored field: u(e2) = {full.evaluate(pts[0]):.1f}, "
      f"u(-e2) = {full.evaluate(pts[1]):.1f}, axis = {full.evaluate(pts[2]):.1f}")

alpha = 1.0 - 2.0 / p
search = holder_seminorm(full, alpha, sample_budget=400)
print(f"Hoelder search (alpha = {alpha}): seminorm = {search.seminorm:.8f}")
print(f"  pinned-pair value 2^(2/p)          = {2.0 ** (2.0 / p):.8f}")
print(f"  argmax pair: {search.point_a} and {search.point_b}")

grad_norm = lp_gradient_norm(result, cell_gradient_sq(result.field), p)
est = morrey_estimate(result, grad_norm, sample_budget=400)
print(f"gradient p-norm over the mirrored plane: {grad_norm:.6f}")
print(f"constant estimate: {est.C_estimate:.6f}")

print()
print("barrier comparison in exterior coordinates:")
bp = beta_p(p)
report = barrier_check(result, beta=0.9 * bp, tau=0.05 * bp)
print(f"  cone power kappa = {report.kappa:.4f} < beta_p = {bp:.4f}, "
      f"extra opening delta = {report.delta:.4f}")
print(f"  admissible eps = {report.eps:.2f} (eps * c_f = "
      f"{report.eps * report.c_f:.2f} >= 1)")
print(f"  violations of u <= barrier on {report.n_points} nodes: "
      f"{report.violations}")

slow_values = np.minimum(1.0, result.grid.r**-0.1)[:, None] \
    * np.sin(result.grid.phi)[None, :]
slow = SolveResult(field=ScalarField(result.grid, slow_values), energy=0.0,
                   stages=[], converged=True, p=p)
bad = barrier_check(slow, beta=0.9 * bp, tau=0.05 * bp, eps=0.05)
print(f"  synthetic r^-0.1 control with small eps: {bad.violations} violations,"
      f" worst excess {bad.max_violation:.3f}")
print("-> decay slower than the barrier power cannot stay below the")
print("   supersolution once the cone term has died out.")
