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
energy, its exact gradient (a 3x3 stencil) or its Hessian from the same
per-sample gradients, computing only the one asked for.  A grid builds
the kernel's tables (the quadrature and the Hessian's outer products)
at its first kernel call and keeps them, so a solve builds them once,
on the quarter grid it makes.  The kernel walks the cells in strips of
whole s-rows, about 4,096 cells each, so that its temporaries stay in
the cache; a gradient or Hessian strip also evaluates the cell row
before its own and writes the node rows whose cells it holds, summed as
one whole-array pass would, so no bit depends on the strips.  On the
free nodes in row-major order the Hessian is a band matrix: the kernel
folds the ten lower entries of its 4x4 cell blocks straight into LAPACK
band storage, for a band Cholesky.  Where the integrand overflows, E, g
and the band hold inf or NaN, with no numpy warning; callers reject both.

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

import json
import math
import os
import sys
from dataclasses import asdict, dataclass, fields
from functools import cached_property
from pathlib import Path

import numpy as np

from .aronsson import check_p

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
]

_FIELD_MAGIC = b"# morreylab field v2"
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
    between about 7.46e-155 and 1.34e154, where r**2 and r**-2 are finite,
    and numpy must be able to allocate one array of n_s x n_phi values.
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
        try:
            np.empty((self.n_s, self.n_phi))
        except MemoryError as exc:
            raise ValueError(f"cannot allocate a field of {self.n_s} x "
                             f"{self.n_phi} nodes") from exc
        s = np.linspace(math.log(self.r_min), math.log(self.r_max), self.n_s)
        if np.abs(s).min() > 1e-9:
            raise ValueError(
                "s = 0 (the circle r = 1) must be a grid node; choose n_s so "
                "that ln(r_min) is an integer multiple of the spacing")


# the JSON type a stored value must have, by the annotation of its
# dataclass field (a string, under the future import): a float may be
# written as an integer, NaN or Infinity, but a boolean is no number
_JSON_TYPES = {
    "float": lambda x: type(x) in (int, float),
    "int": lambda x: type(x) is int,
    "bool": lambda x: type(x) is bool,
    "tuple": lambda x: (type(x) is list
                        and all(type(e) in (int, float) for e in x)),
}


def from_fields(cls, data: dict, **given):
    """Dataclass cls from given and the entries of data that name its
    other fields; other keys are ignored.  Each entry must have the JSON
    type _JSON_TYPES gives its field's annotation.  Data that is not a
    dict, or that lacks or mistypes a field, defaulted or not, raises
    TypeError."""
    if not isinstance(data, dict):
        raise TypeError(f"expected an object, got {type(data).__name__}")
    read = [f for f in fields(cls) if f.name not in given]
    bad = [f.name for f in read
           if f.name not in data or not _JSON_TYPES[f.type](data[f.name])]
    if bad:
        raise TypeError(f"{cls.__name__} lacks or mistypes {', '.join(bad)}")
    return cls(**{f.name: data[f.name] for f in read}, **given)


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
        columns; spec still describes the half plane.  The quarter is
        built afresh from spec, so it holds none of the half plane's
        kernel_tables and builds its own at its first kernel call.
        """
        q = LogPolarGrid(self.spec)
        q.phi = q.phi[:self.j_pin + 1]
        return q

    @cached_property
    def kernel_tables(self) -> tuple:
        """What the energy kernel reads of the grid, built at the first
        kernel call on it: the corner rule (w, em, jac), the pin rule (pin
        cells, their corner nodes, w, em, jac) and the Hessian band's pin
        column c with the lower diagonals d and rows c - d that reach it.

        A rule's jac is (Jus, Jup), followed by the rows of the per-sample
        outer products Jus Jus, Jus Jup + Jup Jus and Jup Jup that its
        Hessian blocks need: the corner rule's _LOWER rows and all sixteen
        of the pin rule's, whose K = 64 product with only the ten rows
        would round differently.
        """
        (_, w, em, Jus, Jup), (pin, w_pin, em_pin, Pus, Pup) = _quadrature(self)
        n_c = self.n_phi - 1
        # the pin cells' corner nodes, in _CORNERS' order
        nodes = pin + pin // n_c + np.array([[0], [n_c + 1], [1], [n_c + 2]])
        jac = (Jus, Jup) + _outer_rows(Jus, Jup, _LOWER)
        pin_jac = (Pus, Pup) + _outer_rows(Pus, Pup, slice(None))
        # the free_box's width
        n_w = len(range(self.n_phi)[self.free_box()[1]])
        col = (self.i_pin - 1) * n_w + self.j_pin - 1
        d = np.arange(1, min(n_w + 1, col) + 1)
        return (w, em, jac), (pin, nodes, w_pin, em_pin, pin_jac), (col, d, col - d)

    def constrained_mask(self) -> np.ndarray:
        """Boolean mask of the Dirichlet nodes, every node outside the
        free_box, plus the pinned node."""
        m = np.ones((self.n_s, self.n_phi), dtype=bool)
        m[self.free_box()] = False
        m[self.pin_index] = True
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

    def apply_dirichlet(self) -> "ScalarField":
        """Zero the constrained nodes and set the pinned node to 1, in place."""
        self.values[self.grid.constrained_mask()] = 0.0
        self.values[self.grid.pin_index] = 1.0
        return self


@dataclass(frozen=True)
class EnergyParams:
    """Exponent p > 2 (aronsson.check_p) and regularization length eps >= 0."""

    p: float
    eps: float

    def __post_init__(self):
        object.__setattr__(self, "p", check_p(self.p))  # frozen: as a float
        if not (math.isfinite(self.eps) and self.eps >= 0.0):
            raise ValueError(f"eps must be >= 0, got {self.eps}")


def cell_gradient_sq(field: ScalarField) -> np.ndarray:
    """|grad u|**2 at the cell centers, metric included, (n_s-1, n_phi-1).

    Difference quotients averaged to the cell centers, times e^{-2s} at
    the center.  Used for output quantities (gradient profiles, norms);
    the energy itself uses the per-corner differences of the grid's
    quadrature.  The cells are taken in strips of whole rows of about
    _STRIP_CELLS cells, each written into the returned array, so that no
    temporary has the grid's size, which would page-fault afresh on every
    call.
    """
    g = field.grid
    v = field.values
    n_r, n_c = v.shape[0] - 1, v.shape[1] - 1
    out = np.empty((n_r, n_c))
    step = max(1, _STRIP_CELLS // n_c)
    for i in range(0, n_r, step):
        w = v[i:i + step + 1]
        vs = (w[1:, :] - w[:-1, :]) / g.ds
        us = 0.5 * (vs[:, 1:] + vs[:, :-1])
        vp = (w[:, 1:] - w[:, :-1]) / g.dphi
        up = 0.5 * (vp[1:, :] + vp[:-1, :])
        us *= us
        up *= up
        us += up
        np.multiply(us, g.em2s_c[i:i + step, None], out=out[i:i + step])
    return out


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


# _evaluate walks the cells in strips of whole s-rows of about this many
# cells, so that a strip's temporaries stay in the L2 cache
_STRIP_CELLS = 4096
# the block entries 4a + b the band's fold reads, ascending: corner b lies
# in corner a's s-row, not before it, or in the next
_LOWER = [4 * a + b for a, b in np.ndindex(4, 4)
          if (b % 2 - a % 2, b // 2 - a // 2) >= (0, 0)]


def _outer_rows(Jus, Jup, rows) -> tuple:
    """The given rows of a rule's outer products, _outer of (Jus, Jus),
    (Jus, Jup) plus (Jup, Jus), and (Jup, Jup)."""
    return (_outer(Jus, Jus)[rows], (_outer(Jus, Jup) + _outer(Jup, Jus))[rows],
            _outer(Jup, Jup)[rows])


def _samples(v4, w, em, jac, params: EnergyParams, want: str):
    """One rule (w, em, jac) on the cells with corner values v4, (4,
    cells): the per-sample summands of E, the cell gradients (4, cells),
    or the rows of the cell blocks that jac holds.  An overflow is left as
    inf or NaN, under _evaluate's errstate."""
    Jus, Jup = jac[:2]
    us, up = Jus @ v4, Jup @ v4
    # E = sum w ((us*us + up*up) em + eps**2)^(p/2) / p, computed in us and
    # up, which E alone does not need again.  The operations and their
    # order are those of the expression, so E keeps its bits.
    reuse = want == "energy"
    q = np.multiply(us, us, out=us if reuse else None)
    q += np.multiply(up, up, out=up if reuse else None)
    q *= em
    q += params.eps**2
    if want == "energy":
        q **= params.p / 2.0
        q *= w
        return q
    # coef = w q^(p/2 - 1) em, computed in place like E
    coef = q ** (params.p / 2.0 - 1.0)
    coef *= w
    coef *= em
    if want == "gradient":
        # g4 = Jus^T (coef us) + Jup^T (coef up), in place
        us *= coef
        up *= coef
        g4 = Jus.T @ us
        g4 += Jup.T @ up
        return g4
    # the Hessian of w q^(p/2) / p in the cell's nodal values is
    # coef (Jus Jus + Jup Jup) + beta c c, with c = us Jus + up Jup and
    # beta = (p - 2) w q^(p/2 - 2) em em.  beta is made in q and beta us
    # once; each product keeps its operands and order, so the bits stay.
    q **= params.p / 2.0 - 2.0
    q *= (params.p - 2.0) * w
    q *= em
    q *= em
    bus = q * us
    us *= bus
    us += coef
    bus *= up
    q *= up
    q *= up
    q += coef
    Hss, Hsp, Hpp = jac[2:]
    blk = Hss @ us
    blk += Hsp @ bus
    blk += Hpp @ q
    return blk


@np.errstate(over="ignore", invalid="ignore")
def _evaluate(field: ScalarField, params: EnergyParams, want: str):
    """One of the discrete energy and its derivatives, computed alone.

    want is "energy" for E, "gradient" for the unmasked nodal gradient g,
    or "hessian" for energy_hessian's band.  All come from the per-sample
    gradient (us, up) and integrand q of the grid's quadrature rules, read
    from the grid's kernel_tables: the pin rule's, then the corner rule's
    in strips of whole s-rows of cells.  The summands of E are summed
    once, as one array.  g and the cell blocks B[4a + b, c], coupling
    corner a of cell c (in _CORNERS' order) to its corner b, are summed
    per cell; a strip folds them with the cell row before it and writes
    the node rows whose cells all lie in it, each summed from zero in
    ascending corner, as one whole-array pass would.  Only B's ten
    entries in _LOWER are made.

    numpy's overflow and invalid-value warnings are off for the whole call:
    far off the minimizer or at a large p, q^(p/2) overflows, and E, g or
    the band hold inf or NaN, which their callers reject.  On the pin
    cells' corner samples of mass 0, inf * 0 is NaN; E reads that as inf.
    """
    v = field.values
    if not np.all(np.isfinite(v)):
        raise ValueError("field contains non-finite values")
    (w, em, jac), (pin, nodes, *pin_rule), band_pin = field.grid.kernel_tables
    n_r, n_c = v.shape[0] - 1, v.shape[1] - 1
    pin_out = _samples(v.ravel()[nodes], *pin_rule, params, want)
    halo = want != "energy"
    if not halo:
        out_all = np.empty((4, n_r * n_c))
    elif want == "gradient":
        grad = np.zeros_like(v)
    else:
        pin_out = pin_out[_LOWER]
        n_i, n_w = v[field.grid.free_box()].shape
        # node-major, so that the returned band is in Fortran order and
        # LAPACK factors it without a copy
        band = np.zeros((n_i, n_w, n_w + 2))
    step = max(1, _STRIP_CELLS // n_c)
    for i in range(0, n_r, step):
        # the strip's cell rows lo..hi-1, with the halo row i - 1
        lo, hi = max(i - halo, 0), min(i + step, n_r)
        c = slice(lo * n_c, hi * n_c)
        out = _samples(_cell_corners(v[lo:hi + 1]), w[:, c], em[:, c], jac,
                       params, want)
        if not halo:
            out_all[:, c] = out
            continue
        for cell, add in zip(pin.tolist(), pin_out.T):
            if c.start <= cell < c.stop:
                out[:, cell - c.start] += add
        out = out.reshape(-1, hi - lo, n_c)
        if want == "gradient":
            g = np.zeros((hi - lo + 1, n_c + 1))
            for k, corner in enumerate(_CORNERS):
                g[corner] += out[k]
            # node rows i..hi-1, and the last strip also has node row n_r
            e = hi + (hi == n_r)
            grad[i:e] = g[i - lo:e - lo]
            continue
        for k, ab in enumerate(_LOWER):
            (ja, ia), (jb, ib) = divmod(ab // 4, 2), divmod(ab % 4, 2)
            di, dj = ib - ia, jb - ja
            # box row r (node row r + 1) is corner a of cell row r + 1 - ia
            # and couples to box row r + di < n_i.  This strip's box rows are
            # lo..hi-2; a quarter's axis column is no cell's corner 0 or 1.
            r = slice(0, min(hi - 1, n_i - di) - lo)
            j = slice(max(0, -dj), min(n_w - max(0, dj), n_c - 1 + ja))
            band[lo:, :, di * n_w + dj][r, j] += out[k, 1 - ia:, 1 - ja:][r, j]
    if want == "energy":
        e = float(out_all.sum()) / params.p + float(pin_out.sum()) / params.p
        return math.inf if math.isnan(e) else e
    if want == "gradient":
        return grad
    # the pin's row and column become the identity
    col, d, row = band_pin
    band = band.reshape(n_i * n_w, n_w + 2).T
    band[:, col] = 0.0
    band[d, row] = 0.0
    band[0, col] = 1.0
    return band


def energy(field: ScalarField, params: EnergyParams) -> float:
    """Discrete regularized p-Dirichlet energy of the field."""
    return _evaluate(field, params, "energy")


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
    w-1, w and w+1 = kd further on, and the band has kd + 1 rows.  The
    kernel folds the lower block entries of cells with both corners in
    the box straight into these five diagonals, so couplings that would
    wrap around a row's end stay zero.  The pinned node's row and column
    are the identity.  The matrix is symmetric positive definite.
    """
    if params.eps <= 0.0:
        raise ValueError("energy_hessian requires eps > 0")
    return _evaluate(field, params, "hessian")


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
    s = np.clip(s, s_lo, s_hi).ravel()
    phi = np.clip(phi, 0.0, np.pi).ravel()
    v, out = field.values, np.empty(s.size)
    # in strips of _STRIP_CELLS points, so that the temporaries stay small
    for k in range(0, s.size, _STRIP_CELLS):
        c = slice(k, k + _STRIP_CELLS)
        i = np.clip(((s[c] - s_lo) / g.ds).astype(int), 0, g.n_s - 2)
        j = np.clip((phi[c] / g.dphi).astype(int), 0, g.n_phi - 2)
        ts = (s[c] - g.s[i]) / g.ds
        tp = (phi[c] - g.phi[j]) / g.dphi
        # snap to the node so queries at grid points return nodal values
        # exactly (log(exp(s)) can be an ulp off the stored node)
        ts = np.where(np.abs(ts) < 1e-12, 0.0, np.where(np.abs(1 - ts) < 1e-12, 1.0, ts))
        tp = np.where(np.abs(tp) < 1e-12, 0.0, np.where(np.abs(1 - tp) < 1e-12, 1.0, tp))
        out[c] = (v[i, j] * (1 - ts) * (1 - tp) + v[i + 1, j] * ts * (1 - tp)
                  + v[i, j + 1] * (1 - ts) * tp + v[i + 1, j + 1] * ts * tp)
    return float(out[0]) if scalar else out.reshape(r.shape)


def open_new(path, mode: str):
    """Open path as a new file in mode ("w" or "wb"), unlinking any old
    one first.

    On ext4, truncating or renaming over a written file waits about 90 ms
    for its old data to be flushed.  A link at path is replaced, not written
    through.
    """
    Path(path).unlink(missing_ok=True)
    return open(path, mode)


def write_csv(path, header: list[str], columns) -> None:
    """One column of floats per header name, written row by row in
    full-precision scientific notation, 17 significant digits.

    The whole file is formatted by one % operation over the values as
    one flat tuple of Python floats, which writes the bytes that
    formatting each value did.  A column count other than the header's,
    or columns of unequal lengths, raises ValueError.
    """
    columns = [np.asarray(c, dtype=float) for c in columns]
    if len(columns) != len(header):
        raise ValueError(f"{len(columns)} columns under a header of "
                         f"{len(header)}")
    n_rows = columns[0].size if columns else 0
    for c in columns:
        if c.shape != (n_rows,):
            raise ValueError(f"a column of shape {c.shape} beside a first "
                             f"column of {n_rows} values")
    values = np.column_stack(columns).ravel().tolist()
    line = ",".join(["%.16e"] * len(header)) + "\n"
    with open_new(path, "w") as fh:
        fh.write(",".join(header) + "\n" + (line * n_rows) % tuple(values))


def write_json(path, obj) -> None:
    """Indented JSON with sorted keys and a final newline, as a new file."""
    with open_new(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def save_field(field: ScalarField, path) -> None:
    """Write a field dump: the magic line, the grid's GridSpec as a JSON
    header line, then the n_s * n_phi nodal values as raw little-endian
    float64, row-major."""
    header = json.dumps(asdict(field.grid.spec), sort_keys=True).encode()
    with open_new(path, "wb") as fh:
        fh.write(_FIELD_MAGIC + b"\n" + header + b"\n")
        fh.write(np.ascontiguousarray(field.values, dtype="<f8"))


def load_field(path) -> ScalarField:
    """Read a field dump.

    The header's GridSpec fields give the grid; other keys, such as the
    p, format and version that older dumps stored, are ignored.  Another
    magic line (a version 1 text dump among them), a body that is not
    exactly n_s * n_phi float64 values or a non-finite value is rejected.
    The body's length is checked against the file's size first, so a
    header that claims more nodes than the file holds is rejected before
    a buffer is allocated for them.  The values are the saved ones, bit
    for bit.
    """
    with open(path, "rb") as fh:
        magic = fh.readline(len(_FIELD_MAGIC) + 1).rstrip(b"\n")
        if magic != _FIELD_MAGIC:
            raise ValueError(f"not a field dump: {path} starts with "
                             f"{magic.decode(errors='replace')!r}, expected "
                             f"{_FIELD_MAGIC.decode()!r}")
        spec = from_fields(GridSpec, json.loads(fh.readline()))
        size = 8 * spec.n_s * spec.n_phi
        if os.fstat(fh.fileno()).st_size - fh.tell() != size:
            raise ValueError(f"corrupt field dump: the body is not {size} "
                             f"bytes, {spec.n_s} x {spec.n_phi} float64 values")
        body = bytearray(size)
        fh.readinto(body)
    values = np.frombuffer(body, dtype="<f8").reshape(spec.n_s, spec.n_phi)
    if not np.all(np.isfinite(values)):
        raise ValueError("corrupt field dump: non-finite value in the body")
    return ScalarField(build_grid(spec), values)

