"""Computing the discrete extremal and fitting its decay exponent.

Minimizes the regularized p-energy on the truncated half plane with the
value pinned to 1 at (r=1, phi=pi/2), continuing the regularization down
to 1e-6.  The converged field obeys the discrete maximum principle, its
radial sup-profile decreases, and the log-log slope of the profile over a
trusted window lands near the critical exponent beta_p.  A second solve
on a shorter domain shows how the truncation radius nudges the fit.
"""

import time

import numpy as np

from morreylab import (GridSpec, beta_p, cell_gradient_sq, decay_profile,
                       fit_exponent, gradient_profile, solve_extremal)

p = 4.0
print("=" * 64)
print(f"discrete extremal on the half plane, p = {p}")
print("=" * 64)

spec = GridSpec(r_min=2.0**-4, r_max=2.0**10, n_s=225, n_phi=33)
t0 = time.time()
result = solve_extremal(spec, p)
print(f"grid {spec.n_s} x {spec.n_phi}, r in [2^-4, 2^10]: "
      f"solved in {time.time() - t0:.1f} s")
print(f"{'eps':>8} {'iters':>6} {'grad sup':>10} {'energy':>14}")
for st in result.stages:
    print(f"{st.eps:>8g} {st.iterations:>6d} {st.grad_sup:>10.2e} "
          f"{st.energy:>14.10f}")

v = result.field.values
print(f"converged: {result.converged}, bounds: [{v.min():.3f}, {v.max():.3f}], "
      f"peak at pin: {np.unravel_index(np.argmax(v), v.shape) == result.grid.pin_index}")
print(f"discrete point-source strength at the pin: {result.dipole_strength:.6f}")

profile = decay_profile(result)
fit = fit_exponent(profile, (4.0, spec.r_max / 8.0))
bp = beta_p(p)
print()
print(f"decay fit on r in [4, {spec.r_max / 8:g}]:")
print(f"  beta_hat = {fit.beta_hat:.4f}   beta_p = {bp:.4f}   "
      f"difference = {fit.beta_hat - bp:+.4f}")
print(f"  prefactor C_hat = {fit.C_hat:.4f}, rms residual = {fit.rms_residual:.2e}")

gprofile, gfit = gradient_profile(result, cell_gradient_sq(result.field),
                                  (4.0, spec.r_max / 8))
print(f"gradient-profile exponent = {gfit.beta_hat:.4f} "
      f"(expected near beta_hat + 1 = {fit.beta_hat + 1:.4f})")

print()
print("sensitivity to the truncation radius (same resolution per octave):")
spec_short = GridSpec(r_min=2.0**-4, r_max=2.0**8, n_s=193, n_phi=33)
short = solve_extremal(spec_short, p)
fit_short = fit_exponent(decay_profile(short), (4.0, spec_short.r_max / 8.0))
print(f"  r_max = 2^10: beta_hat = {fit.beta_hat:.4f}")
print(f"  r_max = 2^8 : beta_hat = {fit_short.beta_hat:.4f}   "
      f"(shift {fit_short.beta_hat - fit.beta_hat:+.4f})")
print("-> the truncation radius moves the fitted slope by well under the")
print("   acceptance margin; the window [4, r_max/8] keeps the most")
print("   contaminated outer decade out of the fit either way.")
