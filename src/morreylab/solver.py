"""Minimization of the regularized p-energy with a pinned unit value.

The discrete extremal is the minimizer of the energy over fields with
zero Dirichlet data and value 1 at the node (r=1, phi=pi/2).  The pinned
node replaces an explicit point source: the multiplier of the constraint
is the strength of the discrete measure concentrated there.

The extremal is even in x: the domain, the zero data and the pin are
symmetric under phi -> pi - phi, and the energy is strictly convex on the
free nodes, so the minimizer is unique and even, and so is the discrete
one, whose quadrature is symmetric too.  The solver therefore minimizes
over the quarter grid phi in [0, pi/2] only (grid.LogPolarGrid.quarter):
the axis column phi = pi/2 is free apart from the pin, a natural Neumann
condition, and the objective is F = 2 E_quarter, which equals the
half-plane energy of the mirrored field up to roundoff (the doubling is
exact in floating point).  The half-plane gradient is the quarter's off
the axis and twice it on the axis column; the stop test takes its
sup-norm from that.  The field is mirrored back to the half plane on
output, so results, checkpoints and everything downstream see the
half-plane field, exactly even.

The degenerate limit eps -> 0 is reached by continuation: each stage
minimizes the energy at one eps, warm-starting from the previous stage.
A stage, _newton_stage, runs damped Newton steps (exact Hessian factored
by a band Cholesky, Armijo backtracking with halving) until the
half-plane gradient sup-norm is at most grad_tol; it also ends,
unconverged, after _MAX_ITERS_PER_STAGE steps or on a failed line
search.  The free nodes lie in the box of rows 1..n_s-2 and columns
1..n_phi-1 of the quarter grid, and in row-major order their Hessian is
a band of half-width n_phi: grid.energy_hessian folds the ten lower
entries of each cell's 4x4 block straight into the band's five diagonals,
in LAPACK band storage, and makes the pinned node's row and column the
identity, so the pin's component of every direction is exactly 0.
The Armijo test allows an energy rise of _ENERGY_ROUNDOFF relative: near
the optimum a full Newton step changes the energy by a few ulp, and
without the allowance summation order would decide where a stage ends.
The energy is convex for every eps >= 0, so the minimizer does not depend
on the descent path.
"""

from __future__ import annotations

import importlib
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, field as dataclass_field
from importlib.machinery import PathFinder
from importlib.util import module_from_spec
from types import SimpleNamespace

import numpy as np

from .aronsson import beta_p
from .grid import (EnergyParams, GridSpec, LogPolarGrid, ScalarField,
                   build_grid, energy, energy_gradient, energy_hessian,
                   from_fields, interpolate, load_field, save_field,
                   write_json)

__all__ = [
    "SolverConfig",
    "StageInfo",
    "SolveResult",
    "solve_extremal",
    "FullPlaneField",
    "mirror_to_fullplane",
    "save_checkpoint",
    "load_checkpoint",
]

# Sufficient-decrease constant and step-halving cap of the line search.
_ARMIJO_C = 1e-4
_MAX_HALVINGS = 60
# Newton steps after which a stage ends unconverged.
_MAX_ITERS_PER_STAGE = 100
# Relative energy rise the Armijo test treats as roundoff.
_ENERGY_ROUNDOFF = 1e-15


@dataclass(frozen=True)
class SolverConfig:
    """Continuation schedule and stopping tolerance.

    The schedule must be strictly decreasing, positive and finite.  A stage
    converges when the half-plane gradient sup-norm is at most grad_tol.
    """

    eps_schedule: tuple = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6)
    grad_tol: float = 1e-9

    def __post_init__(self):
        sched = tuple(float(e) for e in self.eps_schedule)
        if not sched or not all(0 < e < math.inf for e in sched):
            raise ValueError("eps_schedule must be positive and finite")
        if any(b >= a for a, b in zip(sched, sched[1:])):
            raise ValueError("eps_schedule must be strictly decreasing")
        object.__setattr__(self, "eps_schedule", sched)
        if not 0 < self.grad_tol < math.inf:
            raise ValueError("grad_tol must be positive and finite")


@dataclass
class StageInfo:
    """Diagnostics of one continuation stage.

    fallbacks counts the gradient steps taken because the factorization
    failed or the Newton direction was not a descent direction.
    """

    eps: float
    iterations: int = 0
    energy: float = math.nan
    grad_sup: float = math.inf
    converged: bool = False
    line_search_failures: int = 0
    fallbacks: int = 0
    energy_history: list = dataclass_field(default_factory=list)


@dataclass
class SolveResult:
    """Converged field with energy, per-stage diagnostics and metadata.

    converged means the final stage reached the gradient tolerance; the
    field then satisfies all constraints exactly (edges zero, pinned node
    at 1) by construction.
    """

    field: ScalarField
    energy: float
    stages: list
    converged: bool
    p: float
    dipole_strength: float = math.nan

    @property
    def grid(self) -> LogPolarGrid:
        return self.field.grid


def _initial_field(grid: LogPolarGrid, p: float) -> ScalarField:
    """Start in the expected decay regime: f(r) sin(phi), where

        f(r) = min((r - r_min) / (1 - r_min),
                   (r^-beta_p - r_max^-beta_p) / (1 - r_max^-beta_p))

    rises linearly from 0 at r_min to 1 at the pin radius r = 1 and decays
    at the critical rate beyond it, to 0 at r_max.  apply_dirichlet changes
    no node of the quarter, so the start has no boundary layer: at p = 4 on
    the 577 x 65 grid over [2^-6, 2^12] its energy is 0.485 against the
    minimum's 0.198, at p = 8 0.212 against 0.0641.
    """
    r, decay = grid.r, grid.r ** (-beta_p(p))
    radial = np.minimum((r - r[0]) / (1.0 - r[0]),
                        (decay - decay[-1]) / (1.0 - decay[-1]))
    values = radial[:, None] * np.sin(grid.phi)[None, :]
    return ScalarField(grid, values).apply_dirichlet()


_FLAPACK = "scipy.linalg._flapack"


def _flapack():
    """scipy.linalg._flapack, the LAPACK extension behind scipy.linalg's
    banded Cholesky, loaded by path: the package __init__, about 0.3 s of a
    fresh process against under 10 ms for the extension, never runs.  It is
    registered under its own name, so a later `import scipy.linalg` reuses
    it; where no file is found it is imported the ordinary way."""
    module = sys.modules.get(_FLAPACK)
    if module is not None:
        return module
    import scipy
    spec = PathFinder.find_spec(_FLAPACK,
                                [os.path.join(scipy.__path__[0], "linalg")])
    if spec is None:
        return importlib.import_module(_FLAPACK)
    module = module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[_FLAPACK] = module
    return module


def splu(band: np.ndarray) -> SimpleNamespace:
    """Factor a Hessian band (grid.energy_hessian) in place by dpbtrf.

    The factor has solve(rhs), by dpbtrs, and nnz, the stored band entries.
    A non-positive pivot raises RuntimeError, an illegal argument
    ValueError.  The name is kept from the SuperLU factorization it
    replaced: perfbench's factorization layer wraps solver.splu.  dpbtrf
    and dpbtrs are the functions scipy.linalg's cholesky_banded and
    cho_solve_banded call, so the results are bit-identical to theirs.
    """
    lapack = _flapack()
    factor, info = lapack.dpbtrf(band, lower=1, overwrite_ab=1)
    if info > 0:
        raise RuntimeError(f"{info}-th leading minor not positive definite")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dpbtrf")

    def solve(rhs: np.ndarray) -> np.ndarray:
        x, info = lapack.dpbtrs(factor, rhs, lower=1)
        if info != 0:
            raise ValueError(f"dpbtrs failed with info = {info}")
        return x

    return SimpleNamespace(nnz=band.size, solve=solve)


def _newton_stage(field: ScalarField, params: EnergyParams,
                  grad_tol: float) -> tuple[ScalarField, StageInfo, float]:
    """Damped Newton steps at one eps from a quarter-grid field: the last
    iterate, the stage's diagnostics and the last iterate's unmasked energy
    gradient at the pinned node, half the dipole strength."""
    quarter = field.grid
    box = quarter.free_box()
    box_shape = field.values[box].shape
    constrained = quarter.constrained_mask()
    stage = StageInfo(eps=params.eps)
    e_now = 2.0 * energy(field, params)
    stage.energy_history.append(e_now)
    while True:
        g = energy_gradient(field, params).values
        pin_force = float(g[quarter.pin_index])
        g[constrained] = 0.0
        # the half plane's gradient is g off the axis column, 2 g on it
        stage.grad_sup = float(max(np.abs(g).max(),
                                   2.0 * np.abs(g[:, -1]).max()))
        stage.converged = stage.grad_sup <= grad_tol
        if stage.converged or stage.iterations == _MAX_ITERS_PER_STAGE:
            break
        # the free box in row-major order, the Hessian band's node order
        g_f = g[box].ravel()
        try:
            direction = splu(energy_hessian(field, params)).solve(-g_f)
            slope = 2.0 * float(g_f @ direction)
        except RuntimeError:
            slope = 0.0     # not positive definite: take the gradient step
        if slope >= 0.0:
            stage.fallbacks += 1
            direction, slope = -g_f, -2.0 * float(g_f @ g_f)

        step = 1.0
        for _ in range(_MAX_HALVINGS):
            trial = field.values.copy()
            trial[box] += (step * direction).reshape(box_shape)
            trial_field = ScalarField(quarter, trial)
            e_trial = 2.0 * energy(trial_field, params)
            if e_trial <= (e_now + _ARMIJO_C * step * slope
                           + _ENERGY_ROUNDOFF * max(1.0, abs(e_now))):
                break
            step *= 0.5
        else:
            stage.line_search_failures += 1
            break
        field = trial_field
        stage.iterations += 1
        e_now = e_trial
        stage.energy_history.append(e_now)
    stage.energy = e_now
    return field, stage, pin_force


def solve_extremal(spec: GridSpec, p: float, config: SolverConfig | None = None,
                   initial: ScalarField | None = None) -> SolveResult:
    """Minimize the regularized p-energy with continuation in eps.

    The field is pinned to 1 at (r=1, phi=pi/2) and zero on the
    rectangle edges; the inequality is invariant under u -> c*u, so any
    other pin value would only rescale the field.  A non-converged stage
    (iteration cap or failed line search) flags the result but keeps the
    partial data.  An explicit initial field serves as a warm start, e.g.
    a coarse solution interpolated onto a refined grid; only its columns
    phi <= pi/2 are read.  The Newton iteration runs on the quarter grid
    and the returned field is its mirror image, even in x.
    """
    if config is None:
        config = SolverConfig()
    grid = build_grid(spec)
    if initial is not None and initial.grid.spec != spec:
        raise ValueError("initial field lives on a different grid")
    start = (initial if initial is not None else _initial_field(grid, p)).values
    quarter = grid.quarter()
    field = ScalarField(quarter, start[:, :quarter.n_phi].copy()).apply_dirichlet()

    stages: list[StageInfo] = []
    for eps in config.eps_schedule:
        field, stage, pin_force = _newton_stage(
            field, EnergyParams(p=p, eps=eps), config.grad_tol)
        stages.append(stage)

    v = field.values
    half = ScalarField(grid, np.hstack([v, v[:, -2::-1]]))
    return SolveResult(field=half, energy=stages[-1].energy, stages=stages,
                       converged=stages[-1].converged, p=p,
                       dipole_strength=2.0 * pin_force)


class FullPlaneField:
    """Odd extension of a half-plane field across the horizontal axis.

    Evaluation takes plane points (x, y); the value for y < 0 is minus the
    value at the mirrored point, computed through the same interpolation
    path so antisymmetry is exact.  Points on the axis give exactly 0.
    """

    def __init__(self, field: ScalarField):
        self.field = field
        self.grid = field.grid

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Mask of points inside the (mirrored) grid annulus."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        r = np.hypot(points[:, 0], points[:, 1])
        spec = self.grid.spec
        return (r >= spec.r_min * (1 + 1e-12)) & (r <= spec.r_max * (1 - 1e-12))

    def evaluate(self, points) -> np.ndarray:
        """Values at an (m, 2) array of plane points (scalar pair accepted)."""
        pts = np.asarray(points, dtype=float)
        scalar = pts.ndim == 1
        pts = np.atleast_2d(pts)
        x, y = pts[:, 0], pts[:, 1]
        out = np.zeros(len(pts))
        off_axis = y != 0.0
        if np.any(off_axis):
            xo, yo = x[off_axis], y[off_axis]
            r = np.hypot(xo, yo)
            phi = np.arctan2(np.abs(yo), xo)
            vals = interpolate(self.field, r, phi)
            out[off_axis] = np.where(yo > 0, vals, -vals)
        return float(out[0]) if scalar else out

    @property
    def sample_count(self) -> int:
        """Length of the sample_points list, n_s * (2 * n_phi - 1)."""
        return self.grid.n_s * (2 * self.grid.n_phi - 1)

    def sample_points(self, index) -> np.ndarray:
        """Grid nodes mirrored to the full plane, at the given positions of
        their list: every node, then the mirror of each node with y > 0.

        The phi = 0 ray has y = 0 and is listed once, but sin(pi) is about
        1.2e-16, so the phi = pi ray is listed again as its near-duplicate
        mirror: every node off the phi = 0 ray is mirrored, sample_count
        points in all.  Only the positions asked for are computed.
        """
        g = self.grid
        index = np.asarray(index, dtype=np.intp)
        mirrored = index >= g.n_s * g.n_phi
        i, j = np.divmod(index, g.n_phi)
        i_m, j_m = np.divmod(index - g.n_s * g.n_phi, g.n_phi - 1)
        i = np.where(mirrored, i_m, i)
        j = np.where(mirrored, j_m + 1, j)
        y = g.r[i] * np.sin(g.phi[j])
        return np.column_stack([g.r[i] * np.cos(g.phi[j]),
                                np.where(mirrored, -y, y)])


def mirror_to_fullplane(result: SolveResult) -> FullPlaneField:
    """Antisymmetric full-plane evaluator for a converged solve."""
    if not result.converged:
        raise ValueError("cannot mirror a non-converged result")
    return FullPlaneField(result.field)


def save_checkpoint(result: SolveResult, config: SolverConfig, path_base) -> tuple[str, str]:
    """Write <base>.field and <base>.json; returns the two paths."""
    path_base = str(path_base)
    field_path, meta_path = path_base + ".field", path_base + ".json"
    save_field(result.field, field_path, p=result.p)
    meta = {
        "format": "morreylab-checkpoint",
        "version": 1,
        "p": result.p,
        "spec": asdict(result.grid.spec),
        "config": asdict(config),
        "energy": result.energy,
        "converged": result.converged,
        "u_min": float(result.field.values.min()),
        "u_max": float(result.field.values.max()),
        "dipole_strength": result.dipole_strength,
        "stages": [{k: v for k, v in asdict(st).items()
                    if k != "energy_history"} for st in result.stages],
    }
    write_json(meta_path, meta)
    return field_path, meta_path


def load_checkpoint(path_base) -> tuple[SolveResult, SolverConfig]:
    """Read a checkpoint written by save_checkpoint.

    The sidecar and the field dump must agree on the grid and on p, p must
    be one EnergyParams accepts, and the sidecar's converged and energy
    must be a JSON boolean and number.
    """
    path_base = str(path_base)
    with open(path_base + ".json") as fh:
        meta = json.load(fh)
    if not isinstance(meta, dict) or meta.get("format") != "morreylab-checkpoint":
        raise ValueError(f"not a checkpoint: {path_base}.json")
    if not isinstance(meta.get("stages"), list):
        raise ValueError("checkpoint stages must be a list of objects")
    try:
        field, header = load_field(path_base + ".field")
        spec = from_fields(GridSpec, meta["spec"])
        config = from_fields(SolverConfig, meta["config"])
        stages = [from_fields(StageInfo, d) for d in meta["stages"]]
        p = EnergyParams(p=float(meta["p"])).p
        dipole = float(meta.get("dipole_strength", math.nan))
    except TypeError as exc:    # a missing or wrong-typed field, e.g. null
        raise ValueError(f"malformed checkpoint: {exc}") from exc
    if spec != field.grid.spec:
        raise ValueError("checkpoint sidecar does not match field dump")
    if header.get("p") != p:
        raise ValueError(f"field dump p={header.get('p')} does not match "
                         f"sidecar p={p}")
    if (type(meta.get("converged")) is not bool
            or type(meta.get("energy")) not in (int, float)):
        raise ValueError("converged must be a boolean and energy a number")
    result = SolveResult(field=field, energy=meta["energy"], stages=stages,
                         converged=meta["converged"], p=p, dipole_strength=dipole)
    return result, config
