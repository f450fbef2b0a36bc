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
energy, its derivative in eps**2, its exact gradient (a 3x3 stencil) or
its sparse Hessian from the same per-sample gradients, computing only the
one asked for.  The Hessian couples each node to its
9-point stencil: the kernel sums the 4x4 blocks of every cell, folds them
into a (9, n_s, n_phi) array of stencil values by 16 slice-adds, and
gathers the CSC data of a HessianPattern from it.  hessian_pattern builds
that pattern (row indices, column pointers and the gather index) for any
list of nodes in any order; the solver builds it once per solve for its
free nodes in elimination order, so a Newton step fills the data array
and nothing else.  The energy and the gradient are computed in place,
in the order of their plain expressions, so they keep their bits with
fewer fresh temporaries.

The quarter grid, LogPolarGrid.quarter(), keeps the columns 0 <= phi <=
pi/2 (the quadrant x >= 0), so the pin sits on its last column; that is
how the grid tells a quarter from a half plane.  On the quarter the
axis column phi = pi/2 is free apart from the pin, which leaves the
natural (Neumann) condition there, and only the two pin cells on its
side of the axis (phi < pi/2) carry the midpoint rule.  Both rules are
symmetric under phi -> pi - phi, so for a field even in x the half-plane
energy is twice the quarter's, and the half-plane gradient is the
quarter's off the axis and twice it on the axis column.
"""

from __future__ import annotations

import copy
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
    "HessianPattern",
    "hessian_pattern",
    "cell_gradient_sq",
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
        return self.phi.size

    @property
    def pin_index(self) -> tuple[int, int]:
        """Grid index of the point (r=1, phi=pi/2)."""
        return (self.i_pin, self.j_pin)

    def quarter(self) -> "LogPolarGrid":
        """This grid's columns 0..j_pin, the quadrant phi <= pi/2.

        The nodes are the same floats as the half plane's first j_pin + 1
        columns; spec still describes the half plane.
        """
        q = copy.copy(self)
        q.phi = self.phi[:self.j_pin + 1]
        return q

    def constrained_mask(self) -> np.ndarray:
        """Boolean mask of Dirichlet edge nodes plus the pinned node.

        On a quarter grid (the pin on the last column) the axis column is
        free apart from the pin.
        """
        m = np.zeros((self.n_s, self.n_phi), dtype=bool)
        m[:, -1] = self.j_pin < self.n_phi - 1
        m[0, :] = m[-1, :] = m[:, 0] = True
        m[self.i_pin, self.j_pin] = True
        return m

    def area(self) -> float:
        """Exact area of the grid's sector, phi_max/2 (r_max^2 - r_min^2):
        the truncated half plane, or half of it on a quarter grid."""
        return 0.5 * self.phi[-1] * (self.spec.r_max ** 2 - self.spec.r_min ** 2)


def build_grid(spec: GridSpec) -> LogPolarGrid:
    """Construct the grid for a validated spec."""
    return LogPolarGrid(spec)


class ScalarField:
    """Nodal values on a log-polar grid, indexed (s-index, phi-index)."""

    def __init__(self, grid: LogPolarGrid, values: np.ndarray):
        self.grid = grid
        values = np.asarray(values, dtype=float)
        if values.shape != (grid.n_s, grid.n_phi):
            raise ValueError(
                f"values shape {values.shape} does not match grid "
                f"({grid.n_s}, {grid.n_phi})")
        self.values = values

    def copy(self) -> "ScalarField":
        return ScalarField(self.grid, self.values.copy())

    def apply_dirichlet(self) -> "ScalarField":
        """Zero the constrained nodes and set the pinned node to 1, in place."""
        self.values[self.grid.constrained_mask()] = 0.0
        self.values[self.grid.pin_index] = 1.0
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


def cell_gradient_sq(field: ScalarField) -> np.ndarray:
    """|grad u|**2 at the cell centers, metric included, (n_s-1, n_phi-1).

    Difference quotients averaged to the cell centers, times e^{-2s} at
    the center.  Used for output quantities (gradient profiles, norms);
    the energy itself uses the per-corner differences of the grid's
    quadrature.
    """
    g = field.grid
    v = field.values
    vs = (v[1:, :] - v[:-1, :]) / g.ds
    us = 0.5 * (vs[:, 1:] + vs[:, :-1])
    vp = (v[:, 1:] - v[:, :-1]) / g.dphi
    up = 0.5 * (vp[1:, :] + vp[:-1, :])
    # every fresh array of this size page-faults, so the differences are
    # freed first and the result is built in us: 257 minor faults per
    # lp_gradient_norm call at 577x65, against 368 for us*us + up*up
    del vs, vp
    us *= us
    up *= up
    us += up
    us *= g.em2s_c[:, None]
    return us


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
    e^{-2s} at the cell center, but with zero mass on the cells around
    the pinned node: four on the half plane, the two with phi < pi/2 on
    a quarter grid.  Those carry the midpoint rule of _PIN_SUBQUAD**2
    samples with the exact mass of e^{2s} over each radial strip.
    """
    k, n_c = _PIN_SUBQUAD, grid.n_phi - 1
    i0, j0 = grid.pin_index
    pin = (np.array([i0 - 1, i0])[:, None] * n_c
           + [j for j in (j0 - 1, j0) if j < n_c]).ravel()
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


def _stencil_index(di, dj):
    """Row of the (9, n_s, n_phi) stencil array for the neighbour offset
    (di, dj), each of them -1, 0 or 1."""
    return 3 * (di + 1) + dj + 1


@dataclass(frozen=True, eq=False)
class HessianPattern:
    """CSC pattern of the Hessian restricted to a list of nodes.

    Column b and row a stand for nodes[b] and nodes[a] of the builder's
    node list.  The rows of a column are sorted, so the matrix is in
    canonical form.  Entry k of the data is src[k] of the flattened
    (9, n_s, n_phi) stencil array.
    """

    grid_shape: tuple
    src: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray


def hessian_pattern(grid: LogPolarGrid, nodes) -> HessianPattern:
    """The Hessian pattern on the given flat node indices, in their order.

    Two nodes are coupled when they are neighbours in the 9-point stencil,
    i.e. when they share a cell.  indices and indptr are int32, which
    SuperLU takes without a copy; src stays intp for the gather.
    """
    n_s, n_phi = grid.n_s, grid.n_phi
    nodes = np.asarray(nodes, dtype=np.intp)
    pos = np.full(n_s * n_phi, -1, dtype=np.int32)
    pos[nodes] = np.arange(nodes.size, dtype=np.int32)
    # (n_f, 9): the stencil neighbours (i + di, j + dj) of each column
    # node and their positions in the node list, -1 for none; the entry
    # is the neighbour's stencil value towards (-di, -dj)
    di, dj = (x.ravel() for x in np.meshgrid((-1, 0, 1), (-1, 0, 1),
                                             indexing="ij"))
    i, j = np.divmod(nodes, n_phi)
    i = i[:, None] + di
    j = j[:, None] + dj
    inside = (i >= 0) & (i < n_s) & (j >= 0) & (j < n_phi)
    row_node = np.where(inside, i * n_phi + j, 0)
    del i, j
    rows = np.where(inside, pos[row_node], -1)
    src = _stencil_index(-di, -dj) * pos.size + row_node
    del pos, row_node, inside
    order = np.argsort(rows, axis=1, kind="stable")
    rows = np.take_along_axis(rows, order, axis=1)
    src = np.take_along_axis(src, order, axis=1)
    keep = rows >= 0
    indptr = np.zeros(nodes.size + 1, dtype=np.int32)
    indptr[1:] = np.cumsum(keep.sum(axis=1))
    return HessianPattern((n_s, n_phi), src[keep], rows[keep], indptr)


def _evaluate(field: ScalarField, params: EnergyParams, want: str):
    """One of the discrete energy and its derivatives, computed alone.

    want is "energy" for E, "eps2" for dE/d(eps**2), "gradient" for the
    unmasked nodal gradient g, or "hessian" for the Hessian as stencil
    values S: S[_stencil_index(di, dj), i, j] couples node (i, j) to
    (i+di, j+dj).  All of them come from the same per-sample gradient
    (us, up) and integrand q of the grid's quadrature rules; g and S are
    summed per cell first and then scattered to the nodes once.
    """
    v = field.values
    if not np.all(np.isfinite(v)):
        raise ValueError("field contains non-finite values")
    p = params.p
    v4_all = _cell_corners(v)
    e = de2 = 0.0
    g4_all = blocks = None
    for cells, w, em, Jus, Jup in _quadrature(field.grid):
        v4 = v4_all[:, cells]
        us, up = Jus @ v4, Jup @ v4
        # E = sum w ((us*us + up*up) em + eps**2)^(p/2) / p, computed in
        # place where us and up are not needed again (E and dE/d(eps**2)):
        # every fresh array of this size page-faults.  The operations and
        # their order are those of the expression, so E keeps its bits.
        reuse = want in ("energy", "eps2")
        q = np.multiply(us, us, out=us if reuse else None)
        q += np.multiply(up, up, out=up if reuse else None)
        q *= em
        q += params.eps**2
        if want == "energy":
            q **= p / 2.0
            q *= w
            e += float(q.sum()) / p
            continue
        # coef = w q^(p/2 - 1) em, computed in place like E
        coef = q ** (p / 2.0 - 1.0)
        coef *= w
        if want == "eps2":
            de2 += 0.5 * float(coef.sum())
            continue
        coef *= em
        if want == "gradient":
            # g4 = Jus^T (coef us) + Jup^T (coef up), in place
            us *= coef
            up *= coef
            g4 = Jus.T @ us
            g4 += Jup.T @ up
            if g4_all is None:      # the corner rule: every cell, first
                g4_all = g4
            else:
                g4_all[:, cells] += g4
            continue
        # the Hessian of w q^(p/2) / p in the cell's nodal values is
        # coef (Jus Jus + Jup Jup) + beta c c, with c = us Jus + up Jup
        beta = (p - 2.0) * w * q ** (p / 2.0 - 2.0) * em * em
        blk = _outer(Jus, Jus) @ (coef + beta * us * us)
        blk += (_outer(Jus, Jup) + _outer(Jup, Jus)) @ (beta * us * up)
        blk += _outer(Jup, Jup) @ (coef + beta * up * up)
        if blocks is None:          # the corner rule: every cell, first
            blocks = blk
        else:
            blocks[:, cells] += blk
    if want == "energy":
        return e
    if want == "eps2":
        return de2
    if want == "gradient":
        grad = np.zeros_like(v)
        for k, c in enumerate(_CORNERS):
            grad[c] += g4_all[k].reshape(grad[c].shape)
        return grad
    # block entry (a, b) couples corner a to corner b, the neighbour of a
    # at the corners' offset; each stencil value sums its cells' blocks in
    # ascending a, and that order fixes how the Hessian is rounded
    stencil = np.zeros((9,) + v.shape)
    cells_shape = (v.shape[0] - 1, v.shape[1] - 1)
    for a, ca in enumerate(_CORNERS):
        for b in range(4):
            stencil[_stencil_index(b % 2 - a % 2, b // 2 - a // 2)][ca] += (
                blocks[4 * a + b].reshape(cells_shape))
    return stencil


def energy(field: ScalarField, params: EnergyParams) -> float:
    """Discrete regularized p-Dirichlet energy of the field."""
    return _evaluate(field, params, "energy")


def energy_eps2_derivative(field: ScalarField, params: EnergyParams) -> float:
    """Derivative of the discrete energy with respect to eps**2.

    The integrand is convex in eps**2, so eps**2 times this derivative
    bounds the energy change when eps is dropped to zero.
    """
    return _evaluate(field, params, "eps2")


def energy_gradient(field: ScalarField, params: EnergyParams,
                    mask_constrained: bool = True) -> ScalarField:
    """Exact gradient of the discrete energy with respect to nodal values.

    Entries at Dirichlet and pinned nodes are zeroed unless
    mask_constrained is False (the unmasked value at the pinned node is
    the strength of the discrete point source enforcing the constraint).
    """
    out = _evaluate(field, params, "gradient")
    if mask_constrained:
        out[field.grid.constrained_mask()] = 0.0
    return ScalarField(field.grid, out)


def energy_hessian(field: ScalarField, params: EnergyParams,
                   pattern: HessianPattern) -> sp.csc_matrix:
    """Sparse Hessian of the discrete energy on the pattern's nodes.

    Requires eps > 0 so the integrand is twice differentiable everywhere,
    and a pattern built on a grid of the field's shape.  Each quadrature
    sample contributes a 4x4 block on its cell's nodes; the blocks are
    summed per cell, folded into each node's 9-point stencil and gathered
    into the pattern's CSC data.  The matrix over all nodes is symmetric
    positive semidefinite, and positive definite on the free nodes.
    """
    if params.eps <= 0.0:
        raise ValueError("energy_hessian requires eps > 0")
    if pattern.grid_shape != field.values.shape:
        raise ValueError(f"Hessian pattern of a {pattern.grid_shape} grid "
                         f"used on a {field.values.shape} field")
    stencil = _evaluate(field, params, "hessian")
    n = pattern.indptr.size - 1
    return sp.csc_matrix((stencil.ravel()[pattern.src], pattern.indices,
                          pattern.indptr), shape=(n, n))


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
            row = tuple(row)
            fh.write(",".join(["%.16e"] * len(row)) % row + "\n")


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
        line = " ".join(["%.17g"] * field.values.shape[1]) + "\n"
        for row in field.values:
            fh.write(line % tuple(row))


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
