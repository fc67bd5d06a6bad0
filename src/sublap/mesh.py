"""Uniform grids over boxes, domain masks, field sampling and CSV serialization.

Nodes are laid out in C order over `dims`; node classes are interior,
Dirichlet boundary, or exterior.  Every interior node has all 2n axis
neighbors present as non-exterior nodes, so interior stencils never need
one-sided closure.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

EXTERIOR = 0
BOUNDARY = 1
INTERIOR = 2


@dataclass(eq=False)
class GridDomain:
    origin: np.ndarray          # (n,)
    h: float
    dims: tuple                 # node counts per axis
    mask: np.ndarray            # (N,) uint8 in {EXTERIOR, BOUNDARY, INTERIOR}

    def __post_init__(self):
        self.origin = np.asarray(self.origin, dtype=float)
        self.n = self.origin.shape[0]
        self.dims = tuple(int(d) for d in self.dims)
        self.num_nodes = int(np.prod(self.dims))
        if self.mask.shape != (self.num_nodes,):
            raise ValueError("mask length must equal the node count")
        # C-order strides for index arithmetic
        strides = [1] * self.n
        for k in range(self.n - 2, -1, -1):
            strides[k] = strides[k + 1] * self.dims[k + 1]
        self.strides = np.array(strides, dtype=np.int64)
        self.interior_ids = np.flatnonzero(self.mask == INTERIOR)
        self.boundary_ids = np.flatnonzero(self.mask == BOUNDARY)
        self.n_interior = self.interior_ids.size
        self.n_boundary = self.boundary_ids.size
        self._points = None

    @property
    def axes(self):
        """Per-axis node coordinates origin[k] + h * arange(dims[k])."""
        return [self.origin[k] + self.h * np.arange(self.dims[k]) for k in range(self.n)]

    @property
    def points(self):
        """Node coordinates, shape (N, n), cached: the meshgrid of `axes`."""
        if self._points is None:
            grids = np.meshgrid(*self.axes, indexing="ij")
            self._points = np.column_stack([g.ravel() for g in grids])
        return self._points

    def nearest_node(self, x):
        """Id of the grid node nearest to x (clipped into the box); N ids for (N, n) points."""
        x = np.asarray(x, dtype=float)
        idx = np.rint((x - self.origin) / self.h).astype(np.int64)
        idx = np.clip(idx, 0, np.array(self.dims) - 1)
        ids = idx @ self.strides
        return ids if ids.ndim else int(ids)

    def with_mask(self, mask):
        return GridDomain(origin=self.origin, h=self.h, dims=self.dims, mask=mask)


def build_grid(box, h):
    """Uniform grid over a box; outermost layer is the Dirichlet boundary.

    box is a sequence of (lo, hi) pairs; nodes sit at lo + i*h with the
    per-axis count from rounding (hi - lo)/h.
    """
    box = [(float(lo), float(hi)) for lo, hi in box]
    h = float(h)
    if not box:
        raise ValueError("box must have at least one axis")
    if h <= 0:
        raise ValueError("h must be positive")
    dims = []
    for lo, hi in box:
        if hi <= lo:
            raise ValueError(f"box side [{lo}, {hi}] is empty")
        if h > hi - lo:
            raise ValueError(f"h={h} larger than box extent {hi - lo}")
        dims.append(int(round((hi - lo) / h)) + 1)
    origin = np.array([lo for lo, _ in box])
    mask = np.full(dims, BOUNDARY, dtype=np.uint8)
    mask[tuple(slice(1, -1) for _ in dims)] = INTERIOR
    return GridDomain(origin=origin, h=h, dims=tuple(dims), mask=mask.ravel())


def _node_values(grid, fn, dtype):
    """`fn` called once on the (N, n) node coordinates; it must return shape (N,)."""
    vals = np.asarray(fn(grid.points), dtype=dtype)
    if vals.shape != (grid.num_nodes,):
        raise ValueError(
            f"function of the (N, n) node coordinates returned shape {vals.shape}, "
            f"expected (N,) = ({grid.num_nodes},)"
        )
    return vals


def neighbor_set(grid, flags, k, step):
    """Per node: whether its neighbor at `step` * e_k (step = +1 or -1) exists and is flagged."""
    f = np.asarray(flags, dtype=bool).reshape(grid.dims)
    out = np.zeros_like(f)
    src = [slice(None)] * grid.n
    dst = [slice(None)] * grid.n
    ahead, behind = slice(1, None), slice(None, -1)
    src[k], dst[k] = (ahead, behind) if step > 0 else (behind, ahead)
    out[tuple(dst)] = f[tuple(src)]
    return out.ravel()


def mask_domain(grid, predicate):
    """Mask a grid to the nodes where `predicate` holds.

    `predicate` maps the (N, n) node coordinates to N truth values.
    Interior nodes are predicate-true nodes all of whose 2n axis neighbors
    exist and are predicate-true; the remaining predicate-true nodes are
    the Dirichlet boundary.  An all-true predicate reproduces build_grid's
    mask (the outermost layer lacks off-grid neighbors).
    """
    P = _node_values(grid, predicate, bool)
    interior = P.copy()
    for k in range(grid.n):
        for step in (1, -1):
            interior &= neighbor_set(grid, P, k, step)
    boundary = P & ~interior
    if not interior.any():
        raise ValueError("empty interior: no predicate-true node has all neighbors predicate-true")
    mask = np.full(grid.num_nodes, EXTERIOR, dtype=np.uint8)
    mask[boundary] = BOUNDARY
    mask[interior] = INTERIOR
    return grid.with_mask(mask)


def coarse_grid(grid):
    """The grid of every other node (spacing 2h) and the prolongation P onto `grid`.

    Coarse node c sits at fine node 2c; it is interior when that fine node
    is (injection), and its axis neighbors that are exterior by injection
    become boundary nodes.  P (CSR, fine interior x coarse interior) is
    multilinear interpolation with zero Dirichlet data: the Kronecker
    product of per-axis hats, entry (i, c) = max(0, 1 - |i - 2c|/2), on
    fine interior rows and coarse interior columns.  None when some axis
    has an even node count (no node sits at both ends of the 2h grid).
    """
    if any(d % 2 == 0 for d in grid.dims):
        return None
    injected = grid.mask.reshape(grid.dims)[tuple(slice(None, None, 2) for _ in grid.dims)]
    mask = injected.ravel().copy()
    coarse = GridDomain(origin=grid.origin, h=2.0 * grid.h, dims=injected.shape, mask=mask)
    for k in range(grid.n):
        for step in (1, -1):
            next_to_interior = neighbor_set(coarse, coarse.mask == INTERIOR, k, step)
            mask[next_to_interior & (mask == EXTERIOR)] = BOUNDARY
    coarse = coarse.with_mask(mask)
    P = sp.csr_matrix(np.ones((1, 1)))
    for d in grid.dims:
        # entry (i, j) = max(0, 1 - |i - j|/2); its column 2c is coarse node c's hat
        stencil = sp.diags([0.5, 1.0, 0.5], [-1, 0, 1], shape=(d, d), format="csr")
        P = sp.kron(P, stencil[:, ::2], format="csr")
    return coarse, P[grid.interior_ids][:, coarse.interior_ids]


@dataclass(eq=False)
class GridField:
    """One real value per grid node; exterior nodes are pinned to zero."""

    grid: GridDomain
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float).copy()
        if self.values.shape != (self.grid.num_nodes,):
            raise ValueError("value count must match node count")
        self.values[self.grid.mask == EXTERIOR] = 0.0

    @staticmethod
    def from_function(grid, fn):
        """Field of fn(points) -> (N,) evaluated on all node coordinates at once."""
        return GridField(grid, _node_values(grid, fn, float))

    @staticmethod
    def from_interior(grid, x, boundary=0.0):
        """Field with interior values x (n_interior,) and Dirichlet data `boundary`.

        `boundary` is a scalar or one value per boundary node.
        """
        vals = np.zeros(grid.num_nodes)
        vals[grid.interior_ids] = x
        vals[grid.boundary_ids] = boundary
        return GridField(grid, vals)

    @staticmethod
    def constant(grid, value):
        return GridField(grid, np.full(grid.num_nodes, float(value)))

    @staticmethod
    def zeros(grid):
        return GridField(grid, np.zeros(grid.num_nodes))

    def __mul__(self, scalar):
        return GridField(self.grid, self.values * float(scalar))

    __rmul__ = __mul__


# ---------------------------------------------------------------------------
# serialization


def field_to_csv(field, path):
    """Write the CSV rows index tuple, coordinates, value to the file `path`.

    Each index and coordinate is formatted once per axis value, and the
    trailing axes are joined once.  Rows go out one axis-0 slab at a time
    (all at once on a 1-D grid), each slab's values formatted once per
    distinct bit pattern.
    """
    g = field.grid
    idx_text = [[str(i) for i in range(d)] for d in g.dims]
    x_text = [[repr(x) for x in ax.tolist()] for ax in g.axes]
    lead = min(g.n - 1, 1)  # axis 0 goes slab by slab unless it is the only axis
    tail_idx = [",".join(t) for t in itertools.product(*idx_text[lead:])]
    tail_x = [",".join(t) for t in itertools.product(*x_text[lead:])]
    heads = [(f"{i},", f"{x},") for i, x in zip(idx_text[0], x_text[0])] if lead else [("", "")]
    bits = field.values.view(np.int64)
    slab = len(tail_idx)
    with open(path, "w") as buf:
        buf.write(",".join([f"i{k}" for k in range(g.n)] + [f"x{k}" for k in range(g.n)]
                           + ["value"]) + "\n")
        for a, (head_idx, head_x) in enumerate(heads):
            distinct, which = np.unique(bits[a * slab : (a + 1) * slab], return_inverse=True)
            val_text = [repr(v) for v in distinct.view(np.float64).tolist()]
            buf.write("".join(f"{head_idx}{ti},{head_x}{tx},{val_text[v]}\n"
                              for ti, tx, v in zip(tail_idx, tail_x, which.tolist())))
