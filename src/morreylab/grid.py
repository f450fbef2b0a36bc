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
its Hessian's 4x4 cell blocks from the same per-sample gradients,
computing only the one asked for.  On the free nodes in row-major order
the Hessian is a band matrix: energy_hessian folds the blocks into its
five nonzero lower diagonals, in LAPACK band storage, which the solver
factors by a band Cholesky.  The energy and the gradient are computed in
place, in the order of their plain expressions, so they keep their bits
with fewer fresh temporaries.

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

__all__ = [
    "GridSpec",
    "LogPolarGrid",
    "ScalarField",
    "EnergyParams",
    "build_grid",
    "energy",
    "energy_gradient",
    "energy_hessian",
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

    def free_box(self) -> tuple[slice, slice]:
        """The rows 1..n_s-2 and the columns 1..n_phi-1 of a quarter grid
        (the axis column included) or 1..n_phi-2 of a half plane: every
        free node, and the pinned node."""
        return slice(1, -1), slice(1, None if self.j_pin == self.n_phi - 1
                                   else -1)

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


# corners (a, b) = (0,0), (1,0), (0,1), (1,1): this order fixes how E is
# rounded, and solves that stop at the roundoff floor depend on it; the pin
# rule's (a, b) are the midpoints of a _PIN_SUBQUAD x _PIN_SUBQUAD lattice
_PIN_A, _PIN_B = (x.reshape(-1, 1) for x in np.meshgrid(
    *2 * [(np.arange(_PIN_SUBQUAD) + 0.5) / _PIN_SUBQUAD], indexing="ij"))
# each rule's Jacobians (Jus, Jup) on the unit cell, before scaling
_UNIT_JACOBIANS = tuple(
    (np.hstack([b - 1, 1 - b, -b, b]), np.hstack([a - 1, -a, 1 - a, a]))
    for a, b in ((np.array([0.0, 1, 0, 1])[:, None],
                  np.array([0.0, 0, 1, 1])[:, None]), (_PIN_A, _PIN_B)))


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
    strips = grid.s[pin // n_c] + np.arange(k + 1)[:, None] * grid.ds / k
    w_pin = np.repeat(0.5 * np.diff(np.exp(2.0 * strips), axis=0), k, axis=0)
    em_pin = np.exp(-2.0 * (strips[0] + _PIN_A * grid.ds))
    rules = ((slice(None), w, em), (pin, w_pin * grid.dphi / k, em_pin))
    return tuple((cells, w, em, Jus / grid.ds, Jup / grid.dphi)
                 for (cells, w, em), (Jus, Jup) in zip(rules, _UNIT_JACOBIANS))


def _outer(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-sample outer products of two (K, 4) jacobians, as (16, K)."""
    return (x[:, :, None] * y[:, None, :]).reshape(-1, 16).T


def _evaluate(field: ScalarField, params: EnergyParams, want: str):
    """One of the discrete energy and its derivatives, computed alone.

    want is "energy" for E, "eps2" for dE/d(eps**2), "gradient" for the
    unmasked nodal gradient g, or "hessian" for the cell blocks B, (16,
    n_cells): B[4a + b, c] couples corner a of cell c (in _CORNERS' order)
    to its corner b.  All of them come from the same per-sample gradient
    (us, up) and integrand q of the grid's quadrature rules; g and B are
    summed per cell first, and g is then scattered to the nodes once.
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
            # E = inf on a step far off the minimizer; the line search rejects it
            with np.errstate(over="ignore"):
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
    return blocks


def energy(field: ScalarField, params: EnergyParams) -> float:
    """Discrete regularized p-Dirichlet energy of the field."""
    return _evaluate(field, params, "energy")


def energy_eps2_derivative(field: ScalarField, params: EnergyParams) -> float:
    """Derivative of the discrete energy with respect to eps**2.

    The integrand is convex in eps**2, so eps**2 times this derivative
    bounds the energy change when eps is dropped to zero.
    """
    return _evaluate(field, params, "eps2")


def energy_gradient(field: ScalarField, params: EnergyParams) -> ScalarField:
    """Exact gradient of the discrete energy with respect to the value at
    every node, the Dirichlet and pinned nodes included.

    The entry at the pinned node is the multiplier of the pin: the strength
    of the discrete point source that holds u = 1 there.
    """
    return ScalarField(field.grid, _evaluate(field, params, "gradient"))


def energy_hessian(field: ScalarField, params: EnergyParams) -> np.ndarray:
    """Hessian of the discrete energy on the grid's free_box, in LAPACK
    lower band storage: band[d, c] couples box nodes c and c + d.

    Requires eps > 0 so the integrand is twice differentiable everywhere.
    The box nodes go row-major, so with w box columns a node's lower
    neighbours (i, j+1), (i+1, j-1), (i+1, j) and (i+1, j+1) sit d = 1,
    w-1, w and w+1 = kd further on, and the band has kd + 1 rows.  One fold
    sums these five diagonals from the blocks of the cells whose two
    corners are box nodes, so couplings that would wrap around a row's end
    stay zero.  The pinned node's row and column are the identity.  The
    matrix is symmetric positive definite.
    """
    if params.eps <= 0.0:
        raise ValueError("energy_hessian requires eps > 0")
    grid, (n_s, n_phi) = field.grid, field.values.shape
    blocks = _evaluate(field, params, "hessian").reshape(16, n_s - 1, n_phi - 1)
    n_i, w = field.values[grid.free_box()].shape
    # the diagonals d = di w + dj, of which two coincide when w <= 2
    diags = {d: np.zeros((n_i, w)) for d in (0, 1, w - 1, w, w + 1)}
    # blocks[4a + b, 1 - ia:, 1 - ja:][i, j] couples box node (i, j), corner
    # a of its cell, to the cell's corner b.  Each entry sums its cells'
    # blocks in ascending a, which fixes how the Hessian is rounded.
    for a, b in np.ndindex(4, 4):
        (ja, ia), (jb, ib) = divmod(a, 2), divmod(b, 2)
        di, dj = ib - ia, jb - ja
        if (di, dj) >= (0, 0):          # the lower triangle
            # the nodes whose neighbour (i + di, j + dj) is in the box; a
            # quarter's axis column is no cell's corner 0 or 1
            i = slice(0, n_i - di)
            j = slice(max(0, -dj), min(w - max(0, dj), n_phi - 2 + ja))
            diags[di * w + dj][i, j] += blocks[4 * a + b, 1 - ia:, 1 - ja:][i, j]
    # the band reuses the blocks' memory; folding straight into it, with
    # the blocks alive, grew the heap and made each Newton step page-fault
    del blocks
    # built node-major, so that the returned band is in Fortran order and
    # LAPACK factors it without a copy
    band = np.zeros((n_i, w, w + 2))
    for d, diag in diags.items():
        band[:, :, d] = diag
    band = band.reshape(n_i * w, w + 2).T
    pin = (grid.i_pin - 1) * w + grid.j_pin - 1
    d = np.arange(1, min(w + 1, pin) + 1)
    band[:, pin] = 0.0
    band[d, pin - d] = 0.0
    band[0, pin] = 1.0
    return band


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
