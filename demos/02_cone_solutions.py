"""Separable p-harmonic cone solutions, evaluated exactly and verified.

Builds the angular profile of the half-plane solution for p = 4, checks
its structural identities at machine precision, and confirms by centered
finite differences that the field r**(-kappa) f(phi) really annihilates
the p-Laplacian: the residual falls at second order in the step, while a
deliberately mismatched radial exponent leaves an O(1) defect.
"""

import numpy as np

from morreylab import (angular_profile, beta_p, evaluate_w,
                       pharmonic_residual)

p = 4.0
kappa = beta_p(p)
profile = angular_profile(kappa, p, 801)

print("=" * 64)
print(f"half-plane cone solution, p = {p}, kappa = {kappa:.8f}")
print("=" * 64)

rep = profile.invariant_report()
print("structural identities on 801 angular samples:")
print(f"  (f')^2 + kappa^2 f^2 vs closed form : {rep['identity_max_abs_err']:.2e}")
print(f"  invariant power combination spread  : {rep['power_combination_rel_spread']:.2e}")
print(f"  combination value vs kappa^2        : {rep['power_combination_vs_kappa_sq']:.2e}")
print(f"  g > 0 with minimum                  : {rep['g_min']:.6f}")
print(f"  f at the boundary rays              : {rep['f_endpoints']}")

print()
print("pointwise evaluation of w = r^-kappa f(phi):")
cone = profile.params
print(f"  on the axis   w(1, 0)      = {evaluate_w(cone, 1.0, 0.0):.10f}")
print(f"  homogeneity   w(2,.3)/w(1,.3) = "
      f"{evaluate_w(cone, 2.0, 0.3) / evaluate_w(cone, 1.0, 0.3):.10f}"
      f"  (2^-kappa = {2.0**-kappa:.10f})")
print(f"  boundary ray  w(1, pi/2)   = {evaluate_w(cone, 1.0, np.pi / 2):.1f}")

print()
print("finite-difference p-Laplacian residual at 50 interior points:")
rng = np.random.default_rng(3)
pts = [(rng.uniform(0.7, 2.0), rng.uniform(-0.8, 0.8) * profile.params.phi_max)
       for _ in range(50)]
res = {h: pharmonic_residual(profile, p, pts, h=h) for h in (1e-2, 1e-3)}
print(f"  h = 1e-2: {res[1e-2]:.3e}")
print(f"  h = 1e-3: {res[1e-3]:.3e}   ratio {res[1e-2] / res[1e-3]:.1f}"
      "  (second order: ~100)")

bad = 1.1 * kappa
neg = {h: pharmonic_residual(profile, p, pts, h=h, radial_exponent=bad)
       for h in (1e-2, 1e-3)}
print("negative control with the radial exponent off by 10%:")
print(f"  h = 1e-2: {neg[1e-2]:.3e}")
print(f"  h = 1e-3: {neg[1e-3]:.3e}   ratio {neg[1e-2] / neg[1e-3]:.2f}"
      "  (no convergence: not p-harmonic)")
