"""Separable singular p-harmonic solutions on plane cones.

For p > 2 the p-Laplace equation in the plane admits cone solutions of the
form

    w(r, phi) = r**(-kappa) * f(phi),   kappa > 0,

where (r, phi) are polar coordinates with phi = 0 on the cone axis.  The
angular part is given semi-explicitly through a parameter theta ranging
over (-pi/2, pi/2):

    phi(theta) = theta - (1 + 1/kappa) * mu * arctan(mu * tan(theta)),
    f(theta)   = (1 + cos(theta)**2 / (a*kappa)) ** (-(kappa+1)/2) * cos(theta),

with

    a  = (p - 1) / (p - 2)  > 1,
    mu = sqrt(a*kappa) / sqrt(a*kappa + 1)  in (0, 1).

phi(theta) is strictly decreasing, so the map can be inverted by
bracketing.  The solution is positive inside the cone and vanishes on the
two boundary rays.  The cone opening angle is pi*L with

    L = mu * (1 + 1/kappa) - 1,

and L satisfies (L+1)**2 = (kappa+1)**2 / (kappa**2 + kappa/a).  L is
strictly decreasing in both kappa and p, so kappa and L determine each
other.  The half-plane case L = 1 singles out the critical decay power
``beta_p``; every kappa below beta_p corresponds to a cone opening wider
than a half plane.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "check_p",
    "ConeParams",
    "AngularProfile",
    "beta_p",
    "aperture_L",
    "kappa_of_L",
    "angular_profile",
    "evaluate_w",
    "invert_phi",
    "pharmonic_residual",
]

# below this kappa, kappa**2 f**2 underflows near the axis: inf or NaN invariants
_KAPPA_MIN = 1e-100


def check_p(p: float) -> float:
    """p as a float; p must lie in (2, 2**53).

    The package's one test of p: Morrey's inequality in the plane needs
    p > n = 2, and so do the cone family and the energy kernel.  Below
    2**53, p - 1 and p - 2 are exact, so the cone's a = (p-1)/(p-2)
    exceeds 1; NaN and inf fail the comparison.
    """
    p = float(p)
    if not 2.0 < p < 2.0**53:
        raise ValueError(f"p must be in (2, 2**53), got {p}")
    return p


def beta_p(p: float) -> float:
    """Critical decay exponent of the half-plane cone solution.

    beta_p = -1/3 + 2/(3(p-1)) + sqrt((-1/3 + 2/(3(p-1)))**2 + 1/3)

    Strictly decreasing in p, with beta_p(2) = 1 and limit 1/3 as p grows;
    in particular beta_p > 1/3 for every finite p.  The value p = 2 is
    accepted as the boundary case of the formula.
    """
    p = float(p)
    if not (math.isfinite(p) and p >= 2.0):
        raise ValueError(f"p must be finite and >= 2, got {p}")
    t = -1.0 / 3.0 + 2.0 / (3.0 * (p - 1.0))
    return t + math.sqrt(t * t + 1.0 / 3.0)


def aperture_L(kappa: float, p: float) -> float:
    """Cone aperture L (opening angle pi*L) of the solution with power kappa.

    L = mu*(1 + 1/kappa) - 1 with mu = sqrt(a*kappa/(a*kappa + 1)).
    Strictly decreasing in kappa and in p; L = 1 exactly at kappa = beta_p.
    """
    return ConeParams(p, kappa).aperture_L


def kappa_of_L(L: float, p: float) -> float:
    """Invert the aperture relation: the unique kappa with aperture_L = L.

    Squaring L + 1 = mu*(1 + 1/kappa) gives A*kappa**2 + B*kappa - 1 = 0
    with A = L(L+2) and B = (L+1)**2/a - 2.  For L > 0 the roots have
    product -1/A < 0, so exactly one is positive; it is evaluated in the
    form free of cancellation.  Every L > 0 is attained in exact
    arithmetic; an L whose kappa falls below the floor 1e-100 (past about
    1e50 at p = 4) is rejected.
    """
    p = check_p(p)
    L = float(L)
    if not (math.isfinite(L) and L > 0):
        raise ValueError(f"aperture L={L} not attainable for p={p}")
    a = (p - 1.0) / (p - 2.0)
    A, B = L * (L + 2.0), (L + 1.0) * (L + 1.0) / a - 2.0
    D = math.sqrt(B * B + 4.0 * A)
    kappa = (D - B) / (2.0 * A) if B < 0 else 2.0 / (B + D)
    resid = aperture_L(kappa, p) - L
    if abs(resid) > 1e-12 * max(1.0, abs(L)):
        raise ArithmeticError(
            f"aperture inversion residual {resid:.3e} exceeds tolerance")
    return kappa


@dataclass(frozen=True)
class ConeParams:
    """Parameters of one separable cone solution.

    Constructed from (p, kappa); a, mu and the aperture are derived here,
    once, and validated against the defining identities, the aperture
    identity relative to the size of (L+1)**2 so that wide cones pass.
    p must pass check_p, which makes a > 1; kappa must be finite and at
    least 1e-100.
    """

    p: float
    kappa: float
    a: float = field(init=False)
    mu: float = field(init=False)
    aperture_L: float = field(init=False)

    def __post_init__(self):
        p, kappa = check_p(self.p), float(self.kappa)
        if not (math.isfinite(kappa) and kappa >= _KAPPA_MIN):
            raise ValueError(f"kappa must be finite and >= 1e-100, got {kappa}")
        a = (p - 1.0) / (p - 2.0)
        mu = math.sqrt(a * kappa / (a * kappa + 1.0))
        derived = {"p": p, "kappa": kappa, "a": a, "mu": mu,
                   "aperture_L": mu * (1.0 + 1.0 / kappa) - 1.0}
        for name, value in derived.items():  # the dataclass is frozen
            object.__setattr__(self, name, value)
        if not (0.0 < self.mu < 1.0):
            raise ValueError(f"mu must lie in (0, 1), got {self.mu}")
        scale = max(1.0, (self.aperture_L + 1.0) ** 2 / 4.0)
        if abs(self.lk2_residual()) > 1e-12 * scale:
            raise ValueError("aperture does not satisfy the defining identity")

    def lk2_residual(self) -> float:
        """(L+1)**2 - (kappa+1)**2/(kappa**2 + kappa/a), zero in exact math."""
        k = self.kappa
        return (self.aperture_L + 1.0) ** 2 - (k + 1.0) ** 2 / (k * k + k / self.a)

    @property
    def phi_max(self) -> float:
        """Half-opening of the cone: the angular interval is (-phi_max, phi_max)."""
        return self.aperture_L * math.pi / 2.0


def _phi_of_theta(params: ConeParams, theta):
    """Angular coordinate phi(theta) for theta strictly inside
    (-pi/2, pi/2); array-safe.  The ends' values +-phi_max are set by
    angular_profile, and invert_phi evaluates only bracket midpoints."""
    coef = (1.0 / params.kappa + 1.0) * params.mu
    return theta - coef * np.arctan(params.mu * np.tan(theta))


def _dphi_dtheta(params: ConeParams, theta):
    c2 = np.cos(theta) ** 2
    return (c2 - params.a) / (c2 + params.a * params.kappa)


def _base(params: ConeParams, theta):
    """1 + cos(theta)**2/(a*kappa), the base of the powers in f, f' and g."""
    return 1.0 + np.cos(theta) ** 2 / (params.a * params.kappa)


def _f_of_theta(params: ConeParams, theta):
    return _base(params, theta) ** (-(params.kappa + 1.0) / 2.0) * np.cos(theta)


@dataclass
class AngularProfile:
    """Sampled angular data of one cone solution.

    theta is sorted ascending over [-pi/2, pi/2]; phi decreases from
    +phi_max to -phi_max.  f > 0 strictly inside and f = 0 at the ends;
    g = (f')**2 + (1 + 1/(a*kappa)) * kappa**2 * f**2 is positive
    everywhere.  Values are set once at construction and never mutated.
    """

    params: ConeParams
    theta: np.ndarray
    phi: np.ndarray
    f: np.ndarray
    fprime: np.ndarray
    g: np.ndarray

    def identity_residual(self) -> float:
        """Max deviation of (f')**2 + kappa**2 f**2 from its closed form."""
        k = self.params.kappa
        lhs = self.fprime**2 + k * k * self.f**2
        rhs = k * k * _base(self.params, self.theta) ** (-k - 1.0)
        return float(np.max(np.abs(lhs - rhs)))

    def power_combination(self) -> np.ndarray:
        """[(f')**2 + kappa**2 f**2]**(-kappa) * g**(kappa+1), per sample.

        Constant along the profile; the sampled value equals kappa**2.  It
        is formed as (g / X)**kappa * g, X = (f')**2 + kappa**2 f**2, which
        stays finite where either power alone overflows (kappa >~ 80).
        """
        k = self.params.kappa
        return (self.g / (self.fprime**2 + k * k * self.f**2)) ** k * self.g

    def invariant_report(self) -> dict:
        """Residuals of the structural identities, for verification output."""
        combo = self.power_combination()
        mean = float(np.mean(combo))
        k = self.params.kappa
        return {
            "identity_max_abs_err": self.identity_residual(),
            "aperture_identity_residual": self.params.lk2_residual(),
            "power_combination_mean": mean,
            "power_combination_rel_spread": float((combo.max() - combo.min()) / mean),
            "power_combination_vs_kappa_sq": abs(mean - k * k) / (k * k),
            "g_min": float(self.g.min()),
            "f_interior_min": float(self.f[1:-1].min()) if len(self.f) > 2 else float("nan"),
            "f_endpoints": [float(self.f[0]), float(self.f[-1])],
        }


def angular_profile(kappa: float, p: float, n_samples: int) -> AngularProfile:
    """Sample the angular data of the cone solution with power kappa.

    theta is taken on a Chebyshev-Lobatto grid of [-pi/2, pi/2], which
    clusters samples near the ends where f varies fastest.  Endpoint
    values are the analytic limits (f = 0, phi = -+phi_max).
    """
    n_samples = int(n_samples)
    if n_samples < 3:
        raise ValueError(f"n_samples must be at least 3, got {n_samples}")
    params = ConeParams(p, kappa)
    k = np.arange(n_samples)
    theta = -(np.pi / 2) * np.cos(np.pi * k / (n_samples - 1))
    theta[0], theta[-1] = -np.pi / 2, np.pi / 2

    phi = _phi_of_theta(params, theta)
    base = _base(params, theta)
    power = base ** (-(params.kappa + 1.0) / 2.0)     # as in _f_of_theta
    f = power * np.cos(theta)
    fprime = params.kappa * power * np.sin(theta)
    g = params.kappa**2 * base ** (-params.kappa)

    # analytic endpoint limits (cos(pi/2) is not exactly zero in floating point)
    phi[0], phi[-1] = params.phi_max, -params.phi_max
    f[0] = f[-1] = 0.0
    fprime[0], fprime[-1] = -params.kappa, params.kappa
    g[0] = g[-1] = params.kappa**2
    return AngularProfile(params=params, theta=theta, phi=phi, f=f,
                          fprime=fprime, g=g)


def invert_phi(params: ConeParams, phi):
    """Solve phi(theta) = phi on the strictly decreasing branch.

    phi is a scalar or an array; a scalar gives a float.  Each element is
    bisected by 45 halvings of [-pi/2, pi/2], to a bracket under 1e-13
    (pi * 2**-45 is about 8.9e-14), then polished by a single Newton step
    using the exact derivative; the bracketing is guaranteed by
    monotonicity.  A phi outside the closed cone, or NaN, is an error.
    """
    phi = np.asarray(phi, dtype=float)
    pm = params.phi_max
    inside = np.abs(phi) <= pm
    if not inside.all():
        raise ValueError(f"phi={phi.flat[np.argmin(inside)]} outside the "
                         f"closed cone [-{pm}, {pm}]")
    # 1-d, since NumPy rounds some 0-d operations differently.  All brackets
    # start equal, so every element takes the scalar bisection's halvings.
    flat = phi.ravel()
    bracket = np.empty((2, flat.size))  # rows lo, hi: phi(lo) >= phi >= phi(hi)
    bracket[0], bracket[1] = -np.pi / 2, np.pi / 2
    mid, phi_mid = np.empty(flat.size), np.empty(flat.size)
    moves = np.empty(bracket.shape, dtype=bool)
    mu, coef = params.mu, (1.0 / params.kappa + 1.0) * params.mu
    for _ in range(45):
        np.multiply(np.add(bracket[0], bracket[1], out=mid), 0.5, out=mid)
        # _phi_of_theta's interior branch, in its order: |mid| < pi/2 here
        np.tan(mid, out=phi_mid)
        np.multiply(phi_mid, mu, out=phi_mid)
        np.arctan(phi_mid, out=phi_mid)
        np.multiply(phi_mid, coef, out=phi_mid)
        np.subtract(mid, phi_mid, out=phi_mid)
        np.greater(phi_mid, flat, out=moves[0])  # mid becomes lo
        np.logical_not(moves[0], out=moves[1])  # mid becomes hi
        np.copyto(bracket, mid, where=moves)
    theta = 0.5 * (bracket[0] + bracket[1])
    theta -= (_phi_of_theta(params, theta) - flat) / _dphi_dtheta(params, theta)
    theta = np.where(flat >= pm, -np.pi / 2, np.where(
        flat <= -pm, np.pi / 2, np.clip(theta, -np.pi / 2, np.pi / 2)))
    return theta.reshape(phi.shape) if phi.ndim else float(theta[0])


def evaluate_w(params: ConeParams, r, phi):
    """Evaluate w(r, phi) = r**(-kappa) * f(phi) inside the cone of params.

    f is computed from params alone, so no sampled profile is needed.  r
    and phi are scalars or arrays that broadcast together; scalars give
    a float.  phi is measured from the cone axis; the boundary rays give 0,
    and a point outside the closed cone or a non-positive r is an error.
    """
    r, phi = np.broadcast_arrays(np.asarray(r, dtype=float),
                                 np.asarray(phi, dtype=float))
    valid = np.isfinite(r) & (r > 0)
    if not valid.all():
        raise ValueError(f"r must be positive, got {r.flat[np.argmin(valid)]}")
    theta = invert_phi(params, phi.ravel())  # 1-d, as in invert_phi
    w = np.where(np.abs(theta) >= np.pi / 2, 0.0,  # boundary ray, exact limit
                 r.ravel() ** (-params.kappa) * _f_of_theta(params, theta))
    return w.reshape(r.shape) if r.ndim else float(w[0])


def pharmonic_residual(profile: AngularProfile, p: float, sample_points,
                       h: float, radial_exponent: float | None = None) -> float:
    """Max finite-difference p-Laplacian residual of w over interior points.

    p must be the p of profile, whose cone w is; another p is an error.
    sample_points is a non-empty sequence of (r, phi) pairs strictly inside
    the cone; for a single point pass [(r, phi)].  A point whose margin is
    too small for the stencil is rejected.  Uses the normalized form

        N(w) = Lap(w) + (p-2) <grad w, D2 w grad w> / |grad w|**2,

    which vanishes exactly where w is p-harmonic and is homogeneous of
    degree -(kappa+2), so scaling (r, h) -> (2r, 2h) scales the residual
    by 2**-(kappa+2).  Second-order centered stencils give O(h**2) decay
    of the residual for the exact solution.  radial_exponent replaces kappa
    in w's radial factor only, which deliberately breaks p-harmonicity; it
    is used as a negative control.
    """
    pts = np.asarray(list(sample_points), dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("sample_points must be a non-empty list of (r, phi) pairs")
    params = profile.params
    if p != params.p:
        raise ValueError(f"p={p} is not the p={params.p} of the profile's cone")
    h = float(h)
    if not 0 < h < math.inf:
        raise ValueError(f"step h must be positive and finite, got {h}")
    r, phi = pts[:, 0], pts[:, 1]
    margin = np.minimum(r, r * np.sin(np.minimum(
        params.phi_max - np.abs(phi), np.pi / 2)))
    too_close = ~(margin > 0) | (math.sqrt(2.0) * h > margin / 2.0)
    if too_close.any():
        i = np.argmax(too_close)
        raise ValueError(
            f"step h={h} too large for the interior margin {margin[i]:.3e} "
            f"at (r={r[i]}, phi={phi[i]})")

    # the centre and its eight neighbours in one evaluate_w call at r = 1,
    # whose radial factor 1.0**(-kappa) is exactly 1; plane coordinates,
    # cone axis along +y
    x, y = r * np.sin(phi), r * np.cos(phi)
    xp, xm, yp, ym = x + h, x - h, y + h, y - h
    xs = np.stack([x, xp, xm, x, x, xp, xp, xm, xm])
    ys = np.stack([y, y, y, yp, ym, yp, ym, yp, ym])
    k = params.kappa if radial_exponent is None else float(radial_exponent)
    c, wxp, wxm, wyp, wym, wpp, wpm, wmp, wmm = (
        np.hypot(xs, ys) ** (-k) * evaluate_w(params, 1.0, np.arctan2(xs, ys)))
    wx = (wxp - wxm) / (2 * h)
    wy = (wyp - wym) / (2 * h)
    wxx = (wxp - 2 * c + wxm) / (h * h)
    wyy = (wyp - 2 * c + wym) / (h * h)
    wxy = (wpp - wpm - wmp + wmm) / (4 * h * h)
    grad2 = wx * wx + wy * wy
    if np.any(grad2 == 0.0):
        raise ArithmeticError("vanishing gradient in residual stencil")
    res = np.abs(wxx + wyy
                 + (p - 2) * (wx * wx * wxx + 2 * wx * wy * wxy + wy * wy * wyy) / grad2)
    return float(np.max(res))
