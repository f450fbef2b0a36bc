"""Log-polar discretization of the upper half plane and the p-energy.

The half plane {y > 0} is truncated to the annulus r_min <= r <= r_max and
mapped to the rectangle [ln r_min, ln r_max] x [0, pi] through s = ln r.
In these coordinates

    |grad u|**2 = (u_s**2 + u_phi**2) * exp(-2s),      dx = exp(2s) ds dphi,

so the regularized p-Dirichlet energy is

    E(u) = (1/p) * integral ((u_s**2 + u_phi**2) e^{-2s} + eps**2)^{p/2} e^{2s} ds dphi.

Discretely, each cell evaluates the integrand at its four corners from
the one-sided differences along the two edges meeting there (a 2x2
quadrature); each cell carries the exact mass of e^{2s} over the cell so
that constant integrands are integrated exactly, and the corner mean is
second-order accurate for smooth fields.  Averaging the differences to a
single cell-center gradient instead would make the energy blind to the
checkerboard lattice mode, which then concentrates at the pinned node;
the corner form has no such kernel and the energy is strictly convex on
the unconstrained nodes.  Dirichlet data u = 0 is imposed on all four
edges of the rectangle (the two axis rays and the two truncation
circles); the node at (r=1, phi=pi/2) is the pinning point used by the
solver.  The four cells touching that node carry an 8x8 midpoint rule of
the same bilinear data instead, because the pinned minimizer has a cusp
there and a two-point rule misjudges the nearly singular integrand by
tens of percent.

The two rules form the grid's quadrature, and one kernel evaluates the
energy, its exact gradient (a 3x3 stencil) and its sparse Hessian from
the same per-sample gradients.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np
import scipy.sparse as sp

__all__ = [
    "GridSpec",
    "LogPolarGrid",
    "ScalarField",
    "EnergyParams",
    "build_grid",
    "energy",
    "energy_eps2_derivative",
    "energy_gradient",
    "energy_hessian",
    "interpolate",
    "save_field",
    "load_field",
    "field_to_csv",
]

_FIELD_MAGIC = "# morreylab field v1"
# the grid uses r**2 and r**-2, which overflow beyond these radii
_R_MAX = math.sqrt(sys.float_info.max)
_R_MIN = 1.0 / _R_MAX
# midpoint samples per direction in the four cells around the pinned node
_PIN_SUBQUAD = 8


@dataclass(frozen=True)
class GridSpec:
    """Geometry of the log-polar grid.

    n_s nodes span [ln r_min, ln r_max] uniformly and must contain s = 0;
    n_phi is odd so that phi = pi/2 is a node.  The spec therefore always
    resolves the point (r=1, phi=pi/2) exactly.  The radii lie strictly
    between about 7.46e-155 and 1.34e154, where r**2 and r**-2 are finite.
    """

    r_min: float
    r_max: float
    n_s: int
    n_phi: int

    def __post_init__(self):
        if not (_R_MIN < self.r_min < 1.0 < self.r_max < _R_MAX):
            raise ValueError(f"need {_R_MIN:.3g} < r_min < 1 < r_max < "
                             f"{_R_MAX:.3g}, got ({self.r_min}, {self.r_max})")
        if self.n_s < 3:
            raise ValueError(f"n_s must be at least 3, got {self.n_s}")
        if self.n_phi < 3 or self.n_phi % 2 == 0:
            raise ValueError(f"n_phi must be odd and >= 3, got {self.n_phi}")
        s = np.linspace(math.log(self.r_min), math.log(self.r_max), self.n_s)
        if np.abs(s).min() > 1e-9:
            raise ValueError(
                "s = 0 (the circle r = 1) must be a grid node; choose n_s so "
                "that ln(r_min) is an integer multiple of the spacing")


def from_fields(cls, data: dict):
    """Dataclass cls from the entries of data that name its fields.

    Other keys are ignored and absent fields keep their defaults; a
    missing required field or data that is not a dict raises TypeError.
    """
    if not isinstance(data, dict):
        raise TypeError(f"expected an object, got {type(data).__name__}")
    return cls(**{f.name: data[f.name] for f in fields(cls) if f.name in data})


class LogPolarGrid:
    """Node coordinates, cell geometry and quadrature weights."""

    def __init__(self, spec: GridSpec):
        self.spec = spec
        s = np.linspace(math.log(spec.r_min), math.log(spec.r_max), spec.n_s)
        self.i_pin = int(np.argmin(np.abs(s)))
        s[self.i_pin] = 0.0
        phi = np.linspace(0.0, np.pi, spec.n_phi)
        self.j_pin = (spec.n_phi - 1) // 2
        phi[self.j_pin] = 0.5 * np.pi
        self.s = s
        self.phi = phi
        self.ds = (s[-1] - s[0]) / (spec.n_s - 1)
        self.dphi = np.pi / (spec.n_phi - 1)
        self.r = np.exp(s)
        # cell centers and the exact integral of e^{2s} over each s-cell
        self.s_c = 0.5 * (s[:-1] + s[1:])
        self.em2s_c = np.exp(-2.0 * self.s_c)
        self.radial_mass = 0.5 * (self.r[1:] ** 2 - self.r[:-1] ** 2)

    @property
    def cell_weight(self) -> np.ndarray:
        """Exact integral of e^{2s} over each cell, (n_s-1, n_phi-1)."""
        return self.radial_mass[:, None] * np.full(self.n_phi - 1, self.dphi)

    @property
    def n_s(self) -> int:
        return self.spec.n_s

    @property
    def n_phi(self) -> int:
        return self.spec.n_phi

    @property
    def pin_index(self) -> tuple[int, int]:
        """Grid index of the point (r=1, phi=pi/2)."""
        return (self.i_pin, self.j_pin)

    def constrained_mask(self) -> np.ndarray:
        """Boolean mask of Dirichlet edge nodes plus the pinned node."""
        m = np.zeros((self.n_s, self.n_phi), dtype=bool)
        m[0, :] = m[-1, :] = True
        m[:, 0] = m[:, -1] = True
        m[self.i_pin, self.j_pin] = True
        return m

    def area(self) -> float:
        """Exact area of the truncated half plane, pi/2 (r_max^2 - r_min^2)."""
        return 0.5 * np.pi * (self.spec.r_max ** 2 - self.spec.r_min ** 2)


def build_grid(spec: GridSpec) -> LogPolarGrid:
    """Construct the grid for a validated spec."""
    return LogPolarGrid(spec)


class ScalarField:
    """Nodal values on a log-polar grid, indexed (s-index, phi-index)."""

    def __init__(self, grid: LogPolarGrid, values: np.ndarray | None = None):
        self.grid = grid
        if values is None:
            values = np.zeros((grid.n_s, grid.n_phi))
        values = np.asarray(values, dtype=float)
        if values.shape != (grid.n_s, grid.n_phi):
            raise ValueError(
                f"values shape {values.shape} does not match grid "
                f"({grid.n_s}, {grid.n_phi})")
        self.values = values

    def copy(self) -> "ScalarField":
        return ScalarField(self.grid, self.values.copy())

    def apply_dirichlet(self) -> "ScalarField":
        """Zero the edges and set the pinned node to 1, in place."""
        v = self.values
        v[0, :] = v[-1, :] = 0.0
        v[:, 0] = v[:, -1] = 0.0
        v[self.grid.i_pin, self.grid.j_pin] = 1.0
        return self


@dataclass(frozen=True)
class EnergyParams:
    """Exponent p > 2 and regularization length eps >= 0."""

    p: float
    eps: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.p) and self.p > 2.0):
            raise ValueError(f"p must be finite and > 2, got {self.p}")
        if not (math.isfinite(self.eps) and self.eps >= 0.0):
            raise ValueError(f"eps must be >= 0, got {self.eps}")


def _cell_gradients(field: ScalarField) -> tuple[np.ndarray, np.ndarray]:
    """Difference quotients averaged to cell centers, shapes (n_s-1, n_phi-1).

    Used for output quantities (gradient profiles, norms); the energy
    itself uses the per-corner differences of the grid's quadrature.
    """
    g = field.grid
    v = field.values
    vs = (v[1:, :] - v[:-1, :]) / g.ds
    us = 0.5 * (vs[:, 1:] + vs[:, :-1])
    vp = (v[:, 1:] - v[:, :-1]) / g.dphi
    up = 0.5 * (vp[1:, :] + vp[:-1, :])
    return us, up


# a cell's nodes, in the order (i,j), (i+1,j), (i,j+1), (i+1,j+1)
_CORNERS = ((slice(None, -1), slice(None, -1)), (slice(1, None), slice(None, -1)),
            (slice(None, -1), slice(1, None)), (slice(1, None), slice(1, None)))


def _cell_corners(a: np.ndarray) -> np.ndarray:
    """The four corner values of every cell of a nodal array, (4, n_cells)."""
    return np.stack([a[c] for c in _CORNERS]).reshape(4, -1)


def _quadrature(grid: LogPolarGrid) -> tuple:
    """The energy's quadrature on a grid: two rules (cells, w, em, Jus, Jup).

    A rule samples the gradient of the bilinear interpolant of each of
    its cells.  Sample k of cell c has mass w[k, c] and radial factor
    em[k, c] = e^{-2s} (a single row where all samples share it); its
    gradient components are Jus[k] and Jup[k] applied to the cell's
    four nodal values, ordered as in _CORNERS.  The 2x2 corner rule
    samples every cell at its corners, with mass cell_weight/4 and
    e^{-2s} at the cell center, but with zero mass on the four cells
    around the pinned node.  Those carry the midpoint rule of
    _PIN_SUBQUAD**2 samples with the exact mass of e^{2s} over each
    radial strip.
    """
    k, n_c = _PIN_SUBQUAD, grid.n_phi - 1
    i0, j0 = grid.pin_index
    pin = np.array([i0 - 1, i0 - 1, i0, i0]) * n_c + [j0 - 1, j0, j0 - 1, j0]
    w = 0.25 * grid.cell_weight.reshape(1, -1)
    w[0, pin] = 0.0
    em = np.repeat(grid.em2s_c, n_c)[None, :]
    # (a, b): position of each sample along s and phi within its cell
    t = (np.arange(k) + 0.5) / k
    a, b = (x.reshape(-1, 1) for x in np.meshgrid(t, t, indexing="ij"))
    strips = grid.s[pin // n_c] + np.arange(k + 1)[:, None] * grid.ds / k
    w_pin = np.repeat(0.5 * np.diff(np.exp(2.0 * strips), axis=0), k, axis=0)
    # corners (a, b) = (0,0), (1,0), (0,1), (1,1): this order fixes how E is
    # rounded, and solves that stop at the roundoff floor depend on it
    rules = ((slice(None), w, em, np.array([0.0, 1, 0, 1])[:, None],
              np.array([0.0, 0, 1, 1])[:, None]),
             (pin, w_pin * grid.dphi / k, np.exp(-2.0 * (strips[0] + a * grid.ds)),
              a, b))
    return tuple((cells, w, em, np.hstack([b - 1, 1 - b, -b, b]) / grid.ds,
                  np.hstack([a - 1, -a, 1 - a, a]) / grid.dphi)
                 for cells, w, em, a, b in rules)


def _outer(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-sample outer products of two (K, 4) jacobians, as (16, K)."""
    return (x[:, :, None] * y[:, None, :]).reshape(-1, 16).T


def _evaluate(field: ScalarField, params: EnergyParams, order: int):
    """The discrete energy and its derivatives, up to the given order.

    Returns (E, dE/d(eps**2), g, H): order 0 fills only E, order 1 adds
    dE/d(eps**2) and the unmasked nodal gradient g, order 2 adds the sparse
    Hessian H.  All of them come from the same per-sample gradient
    (us, up) and integrand q of the grid's quadrature rules; g and H are
    summed per cell first and then scattered to the nodes once.
    """
    v = field.values
    if not np.all(np.isfinite(v)):
        raise ValueError("field contains non-finite values")
    p = params.p
    v4_all = _cell_corners(v)
    e = de2 = 0.0
    g4_all = np.zeros_like(v4_all) if order >= 1 else None
    blocks = np.zeros((16, v4_all.shape[1])) if order == 2 else None
    for cells, w, em, Jus, Jup in _quadrature(field.grid):
        v4 = v4_all[:, cells]
        us, up = Jus @ v4, Jup @ v4
        q = (us * us + up * up) * em + params.eps**2
        e += float((w * q ** (p / 2.0)).sum()) / p
        if order == 0:
            continue
        wq = w * q ** (p / 2.0 - 1.0)
        de2 += 0.5 * float(wq.sum())
        coef = wq * em
        g4_all[:, cells] += Jus.T @ (coef * us) + Jup.T @ (coef * up)
        if order == 2:
            # the Hessian of w q^(p/2) / p in the cell's nodal values is
            # coef (Jus Jus + Jup Jup) + beta c c, with c = us Jus + up Jup
            beta = (p - 2.0) * w * q ** (p / 2.0 - 2.0) * em * em
            blk = _outer(Jus, Jus) @ (coef + beta * us * us)
            blk += (_outer(Jus, Jup) + _outer(Jup, Jus)) @ (beta * us * up)
            blk += _outer(Jup, Jup) @ (coef + beta * up * up)
            blocks[:, cells] += blk
    if order == 0:
        return e, None, None, None
    grad = np.zeros_like(v)
    for k, c in enumerate(_CORNERS):
        grad[c] += g4_all[k].reshape(grad[c].shape)
    if order == 1:
        return e, de2, grad, None
    nodes = _cell_corners(np.arange(v.size).reshape(v.shape))
    rows = np.repeat(nodes, 4, axis=0).ravel()
    cols = np.tile(nodes, (4, 1)).ravel()
    hess = sp.coo_matrix((blocks.ravel(), (rows, cols)), shape=(v.size, v.size))
    return e, de2, grad, hess.tocsr()


def energy(field: ScalarField, params: EnergyParams) -> float:
    """Discrete regularized p-Dirichlet energy of the field."""
    return _evaluate(field, params, 0)[0]


def energy_eps2_derivative(field: ScalarField, params: EnergyParams) -> float:
    """Derivative of the discrete energy with respect to eps**2.

    The integrand is convex in eps**2, so eps**2 times this derivative
    bounds the energy change when eps is dropped to zero.
    """
    return _evaluate(field, params, 1)[1]


def energy_gradient(field: ScalarField, params: EnergyParams,
                    mask_constrained: bool = True) -> ScalarField:
    """Exact gradient of the discrete energy with respect to nodal values.

    Entries at Dirichlet and pinned nodes are zeroed unless
    mask_constrained is False (the unmasked value at the pinned node is
    the strength of the discrete point source enforcing the constraint).
    """
    out = _evaluate(field, params, 1)[2]
    if mask_constrained:
        out[field.grid.constrained_mask()] = 0.0
    return ScalarField(field.grid, out)


def energy_hessian(field: ScalarField, params: EnergyParams) -> sp.csr_matrix:
    """Sparse Hessian of the discrete energy over all nodes (no masking).

    Requires eps > 0 so the integrand is twice differentiable everywhere.
    Each quadrature sample contributes a 4x4 block on its cell's nodes;
    the blocks are summed per cell before assembly.  The matrix is
    symmetric positive semidefinite, and positive definite after removing
    the constrained nodes.
    """
    if params.eps <= 0.0:
        raise ValueError("energy_hessian requires eps > 0")
    return _evaluate(field, params, 2)[3]


def interpolate(field: ScalarField, r, phi):
    """Bilinear interpolation in (s, phi); exact on bilinear fields.

    Accepts scalars or arrays; NaN and queries outside the grid rectangle
    are rejected (a relative slack of a few ulp absorbs rounding at the
    rim).
    """
    g = field.grid
    r = np.asarray(r, dtype=float)
    phi = np.asarray(phi, dtype=float)
    scalar = r.ndim == 0 and phi.ndim == 0
    r, phi = np.broadcast_arrays(np.atleast_1d(r), np.atleast_1d(phi))
    if not np.all(r > 0):
        raise ValueError("r must be positive")
    s = np.log(r)
    s_lo, s_hi = g.s[0], g.s[-1]
    tol_s = 1e-12 * max(1.0, abs(s_lo), abs(s_hi))
    if not np.all((s >= s_lo - tol_s) & (s <= s_hi + tol_s)):
        raise ValueError("query radius outside the grid annulus")
    if not np.all((phi >= -1e-12) & (phi <= np.pi + 1e-12)):
        raise ValueError("query angle outside [0, pi]")
    s = np.clip(s, s_lo, s_hi)
    phi = np.clip(phi, 0.0, np.pi)
    i = np.clip(((s - s_lo) / g.ds).astype(int), 0, g.n_s - 2)
    j = np.clip((phi / g.dphi).astype(int), 0, g.n_phi - 2)
    ts = (s - g.s[i]) / g.ds
    tp = (phi - g.phi[j]) / g.dphi
    # snap to the node so queries at grid points return nodal values exactly
    # (log(exp(s)) can be an ulp off the stored node)
    ts = np.where(np.abs(ts) < 1e-12, 0.0, np.where(np.abs(1 - ts) < 1e-12, 1.0, ts))
    tp = np.where(np.abs(tp) < 1e-12, 0.0, np.where(np.abs(1 - tp) < 1e-12, 1.0, tp))
    v = field.values
    out = (v[i, j] * (1 - ts) * (1 - tp) + v[i + 1, j] * ts * (1 - tp)
           + v[i, j + 1] * (1 - ts) * tp + v[i + 1, j + 1] * ts * tp)
    return float(out[0]) if scalar else out


def open_new(path):
    """Open path for writing as a new file, unlinking any old one first.

    On ext4, truncating or renaming over a written file waits about 90 ms
    for its old data to be flushed.  A link at path is replaced, not written
    through.
    """
    Path(path).unlink(missing_ok=True)
    return open(path, "w")


def write_csv(path, header: list[str], rows) -> None:
    """Rows in full-precision scientific notation, 17 significant digits."""
    with open_new(path) as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(f"{x:.16e}" for x in row) + "\n")


def write_json(path, obj) -> None:
    """Indented JSON with sorted keys and a final newline, as a new file."""
    with open_new(path) as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def save_field(field: ScalarField, path, p: float) -> None:
    """Write a self-describing textual dump: JSON header, then nodal rows."""
    header = {"format": "morreylab-field", "version": 1,
              "p": p, **asdict(field.grid.spec)}
    with open_new(path) as fh:
        fh.write(_FIELD_MAGIC + "\n")
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for row in field.values:
            fh.write(" ".join(f"{x:.17g}" for x in row) + "\n")


def load_field(path) -> tuple[ScalarField, dict]:
    """Read a field dump; returns the field and its header dict.

    A body of the wrong shape or with a non-finite value is rejected.
    """
    with open(path) as fh:
        magic = fh.readline().rstrip("\n")
        if magic != _FIELD_MAGIC:
            raise ValueError(f"not a field dump: {path}")
        header = json.loads(fh.readline())
        spec = from_fields(GridSpec, header)
        values = np.loadtxt(fh, ndmin=2)
    grid = build_grid(spec)
    if values.shape != (spec.n_s, spec.n_phi):
        raise ValueError(f"corrupt field dump: body shape {values.shape}")
    if not np.all(np.isfinite(values)):
        raise ValueError("corrupt field dump: non-finite value in the body")
    return ScalarField(grid, values), header


def field_to_csv(field: ScalarField, path) -> None:
    """CSV export with columns r, phi, value at every node."""
    r, phi = np.meshgrid(field.grid.r, field.grid.phi, indexing="ij")
    write_csv(path, ["r", "phi", "value"],
              zip(r.ravel(), phi.ravel(), field.values.ravel()))
