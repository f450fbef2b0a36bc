"""Decay profiles, exponent fits, Hoelder seminorm and barrier comparison.

The radial sup-profile S_r of a half-plane field is the arc maximum of |u|
at each grid radius; for the computed extremal it coincides with the
supremum over the whole exterior of the circle, which is asserted.  A
power-law fit of (ln r, ln S_r) over a trusted window estimates the decay
exponent; the window keeps away from the pinning circle (r_lo >= 2) and
from the truncation circle (r_hi <= r_max/8) where the imposed zero
contaminates the far field.

The optimal-constant estimate combines the Hoelder seminorm of exponent
1 - 2/p, searched over point pairs of the mirrored plane, with the L^p
norm of the gradient; their ratio is a lower bound on the sharp constant
of the Sobolev-type inequality this field extremizes.

The barrier comparison transcribes a supersolution argument to exterior
coordinates: with kappa = beta + tau below the critical exponent, the cone
solution w of power kappa lives on an opening slightly wider than the half
plane, so b(x) = S(r_out) + eps * S(r_in) * w(x/r_in) dominates u on the
boundary of the annulus r_in <= r <= r_out whenever eps * min f >= 1, and
pointwise domination inside is what the check counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .aronsson import angular_profile, beta_p, evaluate_w
from .grid import ScalarField, cell_gradient_sq
from .solver import FullPlaneField, SolveResult

__all__ = [
    "ParameterError",
    "DecayProfile",
    "DecayFit",
    "HolderResult",
    "MorreyEstimate",
    "BarrierReport",
    "decay_profile",
    "fit_exponent",
    "gradient_profile",
    "holder_seminorm",
    "lp_gradient_norm",
    "estimate_morrey_constant",
    "barrier_check",
]

# local refinement rounds of the Hoelder search
_HOLDER_REFINE_ROUNDS = 3
# inner radius of the barrier annulus (its outer radius is r_max / 8, the
# end of the fit window) and samples of the barrier's angular profile
_BARRIER_R_INNER = 1.0
_BARRIER_N_THETA = 513


class ParameterError(ValueError):
    """A fit window or sample budget that breaks its rules, whatever the field."""


@dataclass
class DecayProfile:
    """Radii >= 1 with the arc maximum of |u| at each radius."""

    radii: np.ndarray
    sup_values: np.ndarray

    def __post_init__(self):
        self.radii = np.asarray(self.radii, dtype=float)
        self.sup_values = np.asarray(self.sup_values, dtype=float)
        if self.radii.ndim != 1 or self.radii.shape != self.sup_values.shape:
            raise ValueError("radii and sup_values must be 1-d and congruent")
        if len(self.radii) and (np.any(np.diff(self.radii) <= 0)
                                or self.radii[0] < 1.0):
            raise ValueError("radii must be increasing and >= 1")


@dataclass
class DecayFit:
    """Least-squares power law S_r ~ C_hat * r**(-beta_hat) on a window."""

    beta_hat: float
    C_hat: float
    window: tuple
    rms_residual: float
    n_points: int


@dataclass
class HolderResult:
    """Best Hoelder quotient found and the pair attaining it."""

    seminorm: float
    point_a: np.ndarray
    point_b: np.ndarray
    pairs_evaluated: int


@dataclass
class MorreyEstimate:
    """Hoelder seminorm, gradient p-norm and their ratio."""

    alpha: float
    seminorm: float
    grad_norm: float
    C_estimate: float
    argmax_pair: tuple


@dataclass
class BarrierReport:
    """Outcome of the exterior supersolution comparison."""

    beta: float
    tau: float
    eps: float
    violations: int
    max_violation: float
    kappa: float
    delta: float
    c_f: float
    r_inner: float
    r_outer: float
    n_points: int


def _field_of(result: SolveResult) -> ScalarField:
    if not isinstance(result, SolveResult):
        raise TypeError(f"expected SolveResult, got {type(result)}")
    if not result.converged:
        raise ValueError("result is not converged")
    return result.field


def decay_profile(result) -> DecayProfile:
    """Arc maxima of |u| at every grid radius >= 1.

    Asserts that the arc maximum at each radius equals the maximum over
    the whole exterior {r' >= r}, the discrete form of the
    maximum-on-the-circle property of these fields.
    """
    field = _field_of(result)
    g = field.grid
    i1 = g.i_pin  # first radius >= 1
    sup = np.abs(field.values[i1:, :]).max(axis=1)
    exterior = np.maximum.accumulate(sup[::-1])[::-1]
    if not np.all(sup >= exterior - 1e-15 * max(1.0, sup.max())):
        raise ValueError(
            "arc maximum is not attained at the inner radius of the exterior; "
            "field violates the maximum-on-the-circle property")
    return DecayProfile(radii=g.r[i1:], sup_values=sup)


def fit_exponent(profile: DecayProfile, window: tuple) -> DecayFit:
    """Fit ln S_r = ln C - beta ln r by least squares on a radius window.

    The window must satisfy r_lo < r_hi, r_lo >= 2 and r_hi <= max(radii)/8
    and contain at least 10 profile radii, else ParameterError is raised;
    a sup value inside it that is not positive raises ValueError.
    """
    r_lo, r_hi = float(window[0]), float(window[1])
    radii, sup = profile.radii, profile.sup_values
    if r_lo >= r_hi:
        raise ParameterError("window must satisfy r_lo < r_hi")
    if r_lo < 2.0:
        raise ParameterError(f"window start must be >= 2, got {r_lo}")
    if r_hi > radii.max() / 8.0 * (1.0 + 1e-9):
        raise ParameterError(f"window end must be <= {radii.max() / 8.0} "
                             "(an eighth of the outermost radius)")
    mask = (radii >= r_lo) & (radii <= r_hi)
    if mask.sum() < 10:
        raise ParameterError(f"need at least 10 radii inside the window, "
                             f"got {int(mask.sum())}")
    if np.any(sup[mask] <= 0.0):
        raise ValueError("profile must be positive inside the fit window")
    x = np.log(radii[mask])
    y = np.log(sup[mask])
    design = np.column_stack([np.ones_like(x), x])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ coef
    return DecayFit(beta_hat=float(-coef[1]), C_hat=float(np.exp(coef[0])),
                    window=(r_lo, r_hi),
                    rms_residual=float(np.sqrt(np.mean(resid**2))),
                    n_points=int(mask.sum()))


def gradient_profile(result, window: tuple | None = None
                     ) -> tuple[DecayProfile, DecayFit]:
    """Arc maxima of |grad u| at cell-center radii >= 2, with a fit.

    The gradient magnitude is the square root of grid.cell_gradient_sq.
    The fitted exponent is expected near beta_hat + 1 for a
    field decaying at rate beta_hat.  Cell centers sit strictly inside the
    node range, so the window end is clipped to an eighth of the outermost
    cell radius.
    """
    field = _field_of(result)
    g = field.grid
    gmag = np.sqrt(cell_gradient_sq(field))
    r_c = np.exp(g.s_c)
    keep = r_c >= 2.0
    profile = DecayProfile(radii=r_c[keep], sup_values=gmag[keep].max(axis=1))
    cap = profile.radii.max() / 8.0
    if window is None:
        window = (4.0, cap)
    else:
        window = (float(window[0]), min(float(window[1]), cap))
    fit = fit_exponent(profile, window)
    return profile, fit


def _bit_reversed_order(n: int, k: int) -> np.ndarray:
    """The first k entries of the permutation of range(n) by bit-reversed
    index: nested, structured prefixes, so a larger budget always contains
    a smaller one.

    With 2**(bits-1) < n <= 2**bits, every even index reverses to a value
    below 2**(bits-1), so the first 2k indices hold at least k kept ones.
    """
    bits = max(1, int(np.ceil(np.log2(max(n, 2)))))
    idx = np.arange(min(2 * k, 2**bits))
    rev = np.zeros_like(idx)
    for b in range(bits):
        rev |= ((idx >> b) & 1) << (bits - 1 - b)
    return rev[rev < n][:k]


def _pair_max(values: np.ndarray, points: np.ndarray, alpha: float):
    """Best Hoelder quotient over all pairs of the given points.

    Only the upper-triangle pairs are formed, in row order, and the first
    best quotient wins.  The distance adds the squared coordinate
    differences column by column; in one and two dimensions that rounds as
    numpy's 2-norm of the difference vector.
    """
    ia, ib = np.triu_indices(len(points), k=1)
    diff = np.abs(values[ia] - values[ib])
    d = np.sqrt(sum((col[ia] - col[ib]) ** 2 for col in points.T))
    with np.errstate(invalid="ignore", divide="ignore"):
        quot = np.where(d > 0.0, diff / d**alpha, 0.0)
    k = int(np.argmax(quot))
    return float(quot[k]), points[ia[k]], points[ib[k]], len(quot)


def holder_seminorm(evaluator, alpha: float, sample_budget: int,
                    sample_points: np.ndarray | None = None) -> HolderResult:
    """Search the Hoelder quotient sup |u(x)-u(y)| / |x-y|**alpha.

    Three stages: the deterministic pair (e, -e) on the last coordinate
    axis, all pairs from the candidate points thinned to the budget (in
    bit-reversed order, so growing the budget only adds points), and local
    refinement around the best pair found.  The result never decreases
    when the budget increases.

    evaluator is either a FullPlaneField (candidates default to its grid
    nodes) or any callable taking an (m, d) array of points; in the latter
    case sample_points is required.
    """
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    sample_budget = int(sample_budget)
    if sample_budget < 2:
        raise ParameterError(
            f"sample_budget must be at least 2, got {sample_budget}")

    if isinstance(evaluator, FullPlaneField):
        evaluate, domain = evaluator.evaluate, evaluator.contains
    else:
        evaluate, domain = evaluator, None
    if sample_points is not None:
        pts = np.atleast_2d(np.asarray(sample_points, dtype=float))
        if pts.shape[0] < 2:
            raise ValueError("need at least two candidate points")
        chosen = pts[_bit_reversed_order(len(pts), sample_budget)]
    elif domain is not None:
        # only the kept nodes are built
        chosen = evaluator.sample_points(
            _bit_reversed_order(evaluator.sample_count, sample_budget))
    else:
        raise ValueError("sample_points required for a bare evaluator")
    dim = chosen.shape[1]

    anchor = np.zeros((2, dim))
    anchor[0, -1], anchor[1, -1] = 1.0, -1.0
    va = np.asarray(evaluate(anchor), dtype=float)
    best = abs(va[0] - va[1]) / 2.0**alpha
    best_pair = (anchor[0].copy(), anchor[1].copy())
    pairs_seen = 1

    chosen = np.vstack([anchor, chosen])
    vals = np.asarray(evaluate(chosen), dtype=float)
    q, pa, pb, n = _pair_max(vals, chosen, alpha)
    pairs_seen += n
    if q > best:
        best, best_pair = q, (pa.copy(), pb.copy())

    # local refinement: shrinking clouds around the current best pair
    scale = 0.25 * float(np.linalg.norm(best_pair[0] - best_pair[1]))
    offsets_1d = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])
    grids = np.meshgrid(*([offsets_1d] * dim), indexing="ij")
    cloud = np.column_stack([g.ravel() for g in grids])
    for _ in range(_HOLDER_REFINE_ROUNDS):
        cand = np.vstack([best_pair[0] + scale * cloud,
                          best_pair[1] + scale * cloud])
        if domain is not None:
            cand = cand[domain(cand)]
        cand = np.vstack([best_pair[0], best_pair[1], cand])
        vals = np.asarray(evaluate(cand), dtype=float)
        q, pa, pb, n = _pair_max(vals, cand, alpha)
        pairs_seen += n
        if q > best:
            best, best_pair = q, (pa.copy(), pb.copy())
        scale *= 0.25
    return HolderResult(seminorm=best, point_a=best_pair[0],
                        point_b=best_pair[1], pairs_evaluated=pairs_seen)


def lp_gradient_norm(result, p: float) -> float:
    """(integral over the mirrored plane of |grad u|**p) ** (1/p).

    Quadrature over half-plane cells with the grid weights, doubled for
    the odd reflection.
    """
    field = _field_of(result)
    g = field.grid
    q = cell_gradient_sq(field)
    return float((2.0 * (g.cell_weight * q ** (p / 2.0)).sum()) ** (1.0 / p))


def estimate_morrey_constant(result: SolveResult,
                             sample_budget: int = 600) -> MorreyEstimate:
    """Ratio of Hoelder seminorm to gradient p-norm for the mirrored field.

    For any admissible field this ratio is a lower bound on the optimal
    constant of the inequality; the computed extremal is the candidate
    that should maximize it.
    """
    from .solver import mirror_to_fullplane
    p = result.p
    alpha = 1.0 - 2.0 / p
    holder = holder_seminorm(mirror_to_fullplane(result), alpha, sample_budget)
    grad_norm = lp_gradient_norm(result, p)
    if grad_norm <= 0.0:
        raise ValueError("zero gradient norm")
    return MorreyEstimate(alpha=alpha, seminorm=holder.seminorm,
                          grad_norm=grad_norm,
                          C_estimate=holder.seminorm / grad_norm,
                          argmax_pair=(holder.point_a, holder.point_b))


def barrier_check(result, beta: float, tau: float,
                  eps: float | None = None) -> BarrierReport:
    """Count grid points where u exceeds the exterior supersolution.

    The barrier is b = S(r_out) + eps * S(r_in) * (r/r_in)**(-kappa) * f(phi)
    with kappa = beta + tau and f the angular part of the cone solution of
    power kappa, whose opening exceeds the half plane by 2*delta.  Since f
    has a positive minimum c_f over the closed half-plane angles, the
    default eps = 1.5 / c_f makes the barrier dominate u on the whole
    boundary of the annulus, and the check counts interior violations of
    u <= b.  Scaling eps up can only remove violations.
    """
    field = _field_of(result)
    p = result.p
    bp = beta_p(p)
    beta, tau = float(beta), float(tau)
    if beta <= 0 or tau <= 0:
        raise ValueError("beta and tau must be positive")
    kappa = beta + tau
    if kappa >= bp:
        raise ValueError(
            f"beta + tau = {kappa} is not below the critical exponent {bp}; "
            "no cone barrier exists at that rate")
    profile = angular_profile(kappa, p, _BARRIER_N_THETA)
    delta = (profile.params.aperture_L - 1.0) * np.pi / 2.0

    g = field.grid
    f_ang = evaluate_w(profile, 1.0, g.phi - 0.5 * np.pi)  # f at the grid angles
    c_f = float(f_ang.min())
    if eps is None:
        eps = 1.5 / c_f
    eps = float(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")

    i_in = int(np.argmin(np.abs(g.r - _BARRIER_R_INNER)))
    i_out = int(np.argmin(np.abs(g.r - g.spec.r_max / 8.0)))
    if i_out <= i_in:
        raise ValueError("annulus [1, r_max / 8] is empty")
    sup = np.abs(field.values).max(axis=1)
    s_in, s_out = float(sup[i_in]), float(sup[i_out])

    rr = g.r[i_in:i_out + 1]
    barrier = s_out + eps * s_in * (rr[:, None] / g.r[i_in]) ** (-kappa) * f_ang[None, :]
    excess = field.values[i_in:i_out + 1, :] - barrier
    return BarrierReport(beta=beta, tau=tau, eps=eps,
                         violations=int((excess > 0).sum()),
                         max_violation=float(max(excess.max(), 0.0)),
                         kappa=kappa, delta=float(delta), c_f=c_f,
                         r_inner=float(g.r[i_in]), r_outer=float(g.r[i_out]),
                         n_points=int(excess.size))
