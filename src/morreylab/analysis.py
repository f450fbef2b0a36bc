"""Decay profiles, exponent fits, Hoelder seminorm and barrier comparison.

The radial sup-profile S_r of a half-plane field is the arc maximum of |u|
at each grid radius; for the computed extremal it coincides with the
supremum over the whole exterior of the circle, which is asserted.  A
power-law fit of (ln r, ln S_r) over a trusted window estimates the decay
exponent; the window keeps away from the pinning circle (r_lo >= 2,
_WINDOW_FLOOR) and from the truncation circle (r_hi <= r_max/8, with 8
the factor _TRUNCATION) where the imposed zero contaminates the far
field.  The default window, default_window, starts at 4, _WINDOW_START.

The optimal-constant estimate combines the Hoelder seminorm of exponent
1 - 2/p, searched over point pairs of the mirrored plane, with the L^p
norm of the gradient; their ratio estimates the sharp constant of the
Sobolev-type inequality this field extremizes.  The estimate is not a
lower bound: the norm averages the gradient to cell centers, which reads
it low, and on the computed 577 x 65 extremal at p = 4 the ratio,
1.27253, exceeds the bound 2**(2/p) / ||grad u||_p of the exact energy,
1.26312.  The gradient profile and the norm read one squared cell
gradient, grid.cell_gradient_sq of the field, which a caller computes
once and passes to both; the estimate computes the norm from it.

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

from .aronsson import ConeParams, beta_p, evaluate_w
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
    "default_window",
    "fit_exponent",
    "gradient_profile",
    "holder_seminorm",
    "lp_gradient_norm",
    "morrey_estimate",
    "estimate_morrey_constant",
    "barrier_check",
]

# local refinement rounds of the Hoelder search
_HOLDER_REFINE_ROUNDS = 3
# the Hoelder search scores its pairs in blocks of whole rows of at most
# this many entries (or one row), so that its temporaries stay small
_PAIR_CHUNK = 32768
# a fit window keeps r_lo >= _WINDOW_FLOOR and r_hi <= r_max / _TRUNCATION
# (see the module docstring); the default one starts at _WINDOW_START
_WINDOW_FLOOR = 2.0
_WINDOW_START = 4.0
_TRUNCATION = 8.0
# inner radius of the barrier annulus (its outer radius is r_max /
# _TRUNCATION, the end of the default window)
_BARRIER_R_INNER = 1.0


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
    """Best Hoelder quotient found and the pair attaining it.

    pairs_evaluated counts every pair the search covers, scored or ruled
    out by _pair_max's bound as unable to win.
    """

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


def default_window(r_max: float) -> tuple[float, float]:
    """The trusted window (4, r_max/8) of a grid out to r_max; where it is
    empty, ParameterError, worded for analyze, whose checkpoint sets r_max."""
    end = r_max / _TRUNCATION
    if _WINDOW_START >= end:
        raise ParameterError(
            f"the default window ({_WINDOW_START:g}, r_max/{_TRUNCATION:g}) = "
            f"({_WINDOW_START:g}, {end:g}) is empty for the checkpoint's "
            f"r_max = {r_max:g}; pass --window r_lo,r_hi with "
            f"{_WINDOW_FLOOR:g} <= r_lo < r_hi <= r_max/{_TRUNCATION:g}")
    return _WINDOW_START, end


def fit_exponent(profile: DecayProfile, window: tuple) -> DecayFit:
    """Fit ln S_r = ln C - beta ln r by least squares on a radius window.

    The window must have finite bounds r_lo < r_hi, r_lo >= 2 and
    r_hi <= max(radii)/8 and contain at least 10 profile radii, else
    ParameterError is raised; a sup value inside it that is not positive
    raises ValueError.
    """
    r_lo, r_hi = float(window[0]), float(window[1])
    radii, sup = profile.radii, profile.sup_values
    for name, bound in (("start", r_lo), ("end", r_hi)):
        if not np.isfinite(bound):
            raise ParameterError(f"window {name} must be finite, got {bound}")
    if r_lo >= r_hi:
        raise ParameterError("window must satisfy r_lo < r_hi")
    if r_lo < _WINDOW_FLOOR:
        raise ParameterError(
            f"window start must be >= {_WINDOW_FLOOR:g}, got {r_lo}")
    end = radii.max() / _TRUNCATION
    if r_hi > end * (1.0 + 1e-9):
        raise ParameterError(f"window end must be <= {end} "
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


def _grid_of(result, grad_sq: np.ndarray):
    """The grid of a converged result whose squared cell gradient is
    grad_sq, checked by its shape."""
    g = _field_of(result).grid
    if grad_sq.shape != (g.n_s - 1, g.n_phi - 1):
        raise ValueError(f"squared cell gradient of shape {grad_sq.shape} "
                         f"on a grid of {g.n_s - 1} x {g.n_phi - 1} cells")
    return g


def gradient_profile(result, grad_sq: np.ndarray,
                     window: tuple) -> tuple[DecayProfile, DecayFit]:
    """Arc maxima of |grad u| at cell-center radii >= 2, with a fit.

    grad_sq is grid.cell_gradient_sq of the result's field, read and left
    unchanged; the gradient magnitude is its square root.  The fitted
    exponent is expected near beta_hat + 1 for a field decaying at rate
    beta_hat.  Cell centers sit strictly inside the node range, so the
    window end is clipped to an eighth of the outermost cell radius.
    """
    g = _grid_of(result, grad_sq)
    r_c = np.exp(g.s_c)
    # r_c increases, so the kept rows are a suffix; sqrt is monotone and
    # correctly rounded, so the root of the row maximum is the row maximum
    # of the roots
    keep = int(np.searchsorted(r_c, _WINDOW_FLOOR))
    profile = DecayProfile(radii=r_c[keep:],
                           sup_values=np.sqrt(grad_sq[keep:].max(axis=1)))
    cap = profile.radii.max() / _TRUNCATION
    window = (float(window[0]), min(float(window[1]), cap))
    return profile, fit_exponent(profile, window)


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


def _quotients(u, w, x, y, alpha):
    """The Hoelder quotients |u - w| / |x - y|**alpha of the pairs of
    points x[:, k], y[:, k] (one row per coordinate) with values u[k], w[k].

    A pair scores the same in either orientation, and coincident points
    score 0.  The distance adds the squared coordinate differences row by
    row; in one and two dimensions that rounds as numpy's 2-norm of the
    difference vector.
    """
    diff = np.abs(u - w)
    d = np.sqrt(sum((xc - yc) ** 2 for xc, yc in zip(x, y)))
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(d > 0.0, diff / d**alpha, 0.0)


def _pair_max(values: np.ndarray, points: np.ndarray, alpha: float):
    """Best Hoelder quotient over all pairs of the given points, whose
    values must be finite.

    The first pair's quotient, best, rules out every pair that cannot beat
    it: |u(x) - u(y)| <= |u(x)| + max|u|, so no pair farther apart than
    R(x) = ((|u(x)| + max|u|) / best)**(1/alpha) can.  The points are
    sorted along their first coordinate, and each row scores only the
    later points within R of it along that coordinate, in blocks of whole
    rows of at most _PAIR_CHUNK pairs (or one row).  R is taken for a best
    1e-9 relative below the true one, far more than the bound's rounding,
    so no pair that the full scan would pick is ruled out.  Among equal
    best quotients the first pair in the row-major order of the upper
    triangle wins.  The count returned is every pair of that triangle,
    scored or ruled out.
    """
    n = len(points)
    best = _quotients(values[:1], values[1:2], points[:1].T, points[1:2].T,
                      alpha)[0]
    order = np.argsort(points[:, 0], kind="stable")
    v, coords = values[order], points[order].T.copy()
    # end[k]: one past the last sorted point that row k scores
    end = np.full(n, n)
    cut = best * (1.0 - 1e-9)
    if cut > 0.0:
        size = np.abs(v)
        with np.errstate(over="ignore"):
            reach = ((size + size.max()) / cut) ** (1.0 / alpha)
        end = np.searchsorted(coords[0], coords[0] + reach, side="right")
    counts = end - np.arange(1, n + 1)
    covered = np.cumsum(counts)
    key, a = 1, 0                   # the pair (0, 1), as row * n + column
    while a < n - 1:
        b = max(a + 1, int(np.searchsorted(
            covered, covered[a] - counts[a] + _PAIR_CHUNK, side="right")))
        rows, c = slice(a, b), counts[a:b]
        ends = np.cumsum(c)
        # row k's columns k+1 .. end[k]-1, laid end to end
        cols = np.arange(ends[-1]) + np.repeat(np.arange(a + 1, b + 1)
                                               - (ends - c), c)
        a = b
        if not cols.size:
            continue
        quot = _quotients(np.repeat(v[rows], c), v[cols],
                          np.repeat(coords[:, rows], c, axis=1),
                          [x[cols] for x in coords], alpha)
        top = quot.max()
        if top >= best:
            hit = np.flatnonzero(quot == top)
            i = order[rows.start + np.searchsorted(ends, hit, side="right")]
            j = order[cols[hit]]
            k = int((np.minimum(i, j) * n + np.maximum(i, j)).min())
            if top > best or k < key:
                best, key = top, k
    return float(best), points[key // n], points[key % n], n * (n - 1) // 2


def holder_seminorm(evaluator, alpha: float, sample_budget: int) -> HolderResult:
    """Search the Hoelder quotient sup |u(x)-u(y)| / |x-y|**alpha.

    Two stages: all pairs from the candidate points thinned to the budget
    (in bit-reversed order, so growing the budget only adds points), led by
    e and -e on the last coordinate axis, whose pair is scored first and so
    wins every tie; then local refinement around the best pair found.  The
    sampled stage's best quotient never decreases when the budget
    increases, but the result can: the refinement starts from that stage's
    best pair, and a larger budget may move it to a pair that refines less.

    The search reads four members of evaluator, as a FullPlaneField has
    them: evaluate and contains, which take an (m, d) array of points, and
    its list of sample_count candidate points, of which sample_points(index)
    builds the given positions.  Refinement points outside contains are
    dropped.
    """
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    sample_budget = int(sample_budget)
    if sample_budget < 2:
        raise ParameterError(
            f"sample_budget must be at least 2, got {sample_budget}")

    # only the kept candidates are built
    chosen = evaluator.sample_points(
        _bit_reversed_order(evaluator.sample_count, sample_budget))
    dim = chosen.shape[1]

    anchor = np.zeros((2, dim))
    anchor[0, -1], anchor[1, -1] = 1.0, -1.0
    chosen = np.vstack([anchor, chosen])
    vals = np.asarray(evaluator.evaluate(chosen), dtype=float)
    best, pa, pb, pairs_seen = _pair_max(vals, chosen, alpha)
    best_pair = (pa.copy(), pb.copy())

    # local refinement: shrinking clouds around the current best pair
    scale = 0.25 * float(np.linalg.norm(best_pair[0] - best_pair[1]))
    offsets_1d = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])
    grids = np.meshgrid(*([offsets_1d] * dim), indexing="ij")
    cloud = np.column_stack([g.ravel() for g in grids])
    for _ in range(_HOLDER_REFINE_ROUNDS):
        cand = np.vstack([best_pair[0] + scale * cloud,
                          best_pair[1] + scale * cloud])
        cand = cand[evaluator.contains(cand)]
        cand = np.vstack([best_pair[0], best_pair[1], cand])
        vals = np.asarray(evaluator.evaluate(cand), dtype=float)
        q, pa, pb, n = _pair_max(vals, cand, alpha)
        pairs_seen += n
        if q > best:
            best, best_pair = q, (pa.copy(), pb.copy())
        scale *= 0.25
    return HolderResult(seminorm=best, point_a=best_pair[0],
                        point_b=best_pair[1], pairs_evaluated=pairs_seen)


def lp_gradient_norm(result, grad_sq: np.ndarray) -> float:
    """(integral over the mirrored plane of |grad u|**p) ** (1/p).

    p is result.p, and grad_sq is grid.cell_gradient_sq of the result's
    field, read and left unchanged.  Quadrature over half-plane cells with
    the grid weights, doubled for the odd reflection.  A norm past the
    float range is inf, with no numpy warning, as the energy kernel reports
    an overflow: |grad u|**p overflows past about 1e308, as at p = 1000
    with a gradient above 2.
    """
    g, p = _grid_of(result, grad_sq), result.p
    with np.errstate(over="ignore"):
        # times the products radial_mass[i] * dphi that make up
        # g.cell_weight, so the sum keeps the bits of the whole-array form
        q = grad_sq ** (p / 2.0)
        q *= g.radial_mass[:, None] * g.dphi
        return float((2.0 * q.sum()) ** (1.0 / p))


def morrey_estimate(result: SolveResult, grad_sq: np.ndarray,
                    sample_budget: int) -> MorreyEstimate:
    """Ratio of Hoelder seminorm to gradient p-norm for the mirrored field.

    grad_sq is grid.cell_gradient_sq of the result's field, from which the
    norm is lp_gradient_norm.  The ratio estimates the optimal constant of
    the inequality, and the computed extremal is the candidate that should
    maximize it; it is not a lower bound (see the module docstring).  A
    gradient norm that is zero or overflowed to inf raises ValueError,
    after the Hoelder search has checked sample_budget.
    """
    grad_norm = lp_gradient_norm(result, grad_sq)  # checks the result
    p = result.p
    alpha = 1.0 - 2.0 / p
    holder = holder_seminorm(FullPlaneField(result.field), alpha,
                             sample_budget)
    if grad_norm <= 0.0:
        raise ValueError("zero gradient norm")
    if not np.isfinite(grad_norm):
        raise ValueError(f"the gradient {p:g}-norm overflows the float range")
    return MorreyEstimate(alpha=alpha, seminorm=holder.seminorm,
                          grad_norm=grad_norm,
                          C_estimate=holder.seminorm / grad_norm,
                          argmax_pair=(holder.point_a, holder.point_b))


def estimate_morrey_constant(result: SolveResult,
                             sample_budget: int) -> MorreyEstimate:
    """morrey_estimate from the squared cell gradient of the result's field."""
    return morrey_estimate(result, cell_gradient_sq(_field_of(result)),
                           sample_budget)


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
    if not (0.0 < beta < np.inf and 0.0 < tau < np.inf):
        raise ValueError(
            f"beta and tau must be positive and finite, got {beta} and {tau}")
    kappa = beta + tau
    if kappa >= bp:
        raise ValueError(
            f"beta + tau = {kappa} is not below the critical exponent {bp}; "
            "no cone barrier exists at that rate")
    cone = ConeParams(p, kappa)
    delta = (cone.aperture_L - 1.0) * np.pi / 2.0

    g = field.grid
    f_ang = evaluate_w(cone, 1.0, g.phi - 0.5 * np.pi)  # f at the grid angles
    c_f = float(f_ang.min())
    if eps is None:
        eps = 1.5 / c_f
    eps = float(eps)
    if not 0.0 < eps < np.inf:
        raise ValueError(f"eps must be positive and finite, got {eps}")

    i_in = int(np.argmin(np.abs(g.r - _BARRIER_R_INNER)))
    i_out = int(np.argmin(np.abs(g.r - g.spec.r_max / _TRUNCATION)))
    if i_out <= i_in:
        raise ValueError(f"annulus [{_BARRIER_R_INNER:g}, "
                         f"r_max / {_TRUNCATION:g}] is empty")
    # the arc maxima of |u| at the two rims, the only radii the barrier reads
    s_in, s_out = (float(np.abs(field.values[i]).max()) for i in (i_in, i_out))

    rr = g.r[i_in:i_out + 1]
    barrier = s_out + eps * s_in * (rr[:, None] / g.r[i_in]) ** (-kappa) * f_ang[None, :]
    excess = field.values[i_in:i_out + 1, :] - barrier
    return BarrierReport(beta=beta, tau=tau, eps=eps,
                         violations=int((excess > 0).sum()),
                         max_violation=float(max(excess.max(), 0.0)),
                         kappa=kappa, delta=float(delta), c_f=c_f,
                         r_inner=float(g.r[i_in]), r_outer=float(g.r[i_out]),
                         n_points=int(excess.size))
