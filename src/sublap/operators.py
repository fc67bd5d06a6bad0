"""Discrete first-order operators X_j and the quadratic form of H = sum X_j* X_j.

The sub-Laplacian is discretized through its quadratic form
K = sum_j B_j^T W B_j, which is symmetric PSD by construction and matches
the variational structure of the continuum operator.  B_j uses forward
differences, (X_j f)(p) ~ sum_k A[j][k](p) (f(p + h e_k) - f(p)) / h, with
quadrature rows at every non-exterior node whose forward neighbors all
exist and are non-exterior.  For the euclidean frame this reproduces the
standard 2n+1-point Laplacian stencil (scaled by h^{n-2}) entrywise, and
K annihilates constants exactly against matching boundary data.

Unknowns are interior nodes; Dirichlet data enters through the boundary
coupling block stored alongside each operator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .mesh import EXTERIOR, GridField, neighbor_set

SYMMETRY_TOL = 1e-12
DIRECT_MAX_NNZ = 60_000  # factor a system at or below this many nonzeros, else iterate


@dataclass(eq=False)
class SparseOperator:
    """Sparse matrix bound to a grid.

    `mat` has columns indexed by interior nodes; `boundary`, when present,
    is the companion block with columns indexed by boundary nodes (same
    rows), through which imposed Dirichlet values enter.  Rows are interior
    nodes for symmetric operators and quadrature rows (`row_ids`) for
    first-order operators.
    """

    grid: object
    mat: sp.csr_matrix
    symmetric: bool
    boundary: sp.csr_matrix = None
    row_ids: np.ndarray = None

    def __post_init__(self):
        self.mat = sp.csr_matrix(self.mat)
        if self.boundary is not None:
            self.boundary = sp.csr_matrix(self.boundary)
        if self.symmetric:
            scale = max(abs(self.mat).max(), 1e-300)
            asym = abs(self.mat - self.mat.T).max()
            if asym > SYMMETRY_TOL * max(scale, 1.0):
                raise ValueError(f"operator marked symmetric but |K - K^T| = {asym:g}")

    @property
    def shape(self):
        return self.mat.shape

    def apply(self, field):
        """Apply to a GridField, boundary values included; returns per-row values."""
        out = self.mat @ field.values[self.grid.interior_ids]
        if self.boundary is not None and self.grid.n_boundary:
            out = out + self.boundary @ field.values[self.grid.boundary_ids]
        return out

    def inf_norm(self):
        return float(abs(self.mat).sum(axis=1).max()) if self.mat.nnz else 0.0


def factor_spd(A):
    """One sparse LU of a symmetric positive definite matrix.

    Symmetric-mode MMD ordering without pivoting: 1.6-2.1x cheaper than
    the default COLAMD ordering on these systems.
    """
    return spla.splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                     options={"SymmetricMode": True})


def shifted_float32(A, sigma):
    """A float32 copy of A - sigma I, for matvecs that single precision serves.

    Stored by diagonals (DIA) when that band, n entries per diagonal, is at
    most 2 nnz(A): a 3-D box or sub-box grid has 11 diagonals, a band of
    1.05-1.2 nnz, and a float32 DIA matvec there costs about a quarter of
    a float64 CSR one (0.11 against 0.41 ms on Heisenberg (-1, 1)^3 at
    h = 1/16, one core).  A mask whose interior numbering scatters the
    stencil (a ball of radius 0.9 at h = 1/16: 645 diagonals, a band of
    64 nnz) stays in float32 CSR.  Built from the CSR matrix A, with the shifted diagonal
    computed in float64, so no float64 copy of A - sigma I is made.
    """
    n = A.shape[0]
    # the diagonal of each stored entry, counted from 0 at the lowest (offset -n)
    diag_of = A.indices - np.repeat(np.arange(n), np.diff(A.indptr)) + n
    present = np.bincount(diag_of, minlength=2 * n) > 0
    present[n] = True  # the shift fills the main diagonal
    offsets = np.flatnonzero(present)
    if offsets.size * n > 2 * A.nnz:
        shifted = A.astype(np.float32)
        shifted.setdiag(A.diagonal() - sigma)
        return shifted
    data = np.zeros((offsets.size, n), np.float32)
    data[(np.cumsum(present) - 1)[diag_of], A.indices] = A.data
    data[np.searchsorted(offsets, n)] = A.diagonal() - sigma
    return sp.dia_matrix((data, offsets - n), shape=A.shape)


def quadrature_row_ids(grid):
    """Non-exterior nodes whose +e_k neighbor exists and is non-exterior for every axis."""
    ok = grid.mask != EXTERIOR
    rows = ok.copy()
    for k in range(grid.n):
        rows &= neighbor_set(grid, ok, k, 1)
    return np.flatnonzero(rows)


def assemble_first_order(family, grid, j):
    """Discrete X_j (1 <= j <= m) as a quadrature-rows operator.

    Row r approximates (X_j f)(p_r); interior and boundary columns are
    split so imposed boundary values contribute through `boundary`.
    """
    if grid.n != family.n:
        raise ValueError(f"grid dimension {grid.n} != family dimension {family.n}")
    if not 1 <= j <= family.m:
        raise ValueError(f"field index {j} out of range 1..{family.m}")
    rows = quadrature_row_ids(grid)
    polys = family.coeffs[j - 1]
    pts = grid.points[rows]
    n_rows = rows.size
    data, ri, ci = [], [], []
    r_idx = np.arange(n_rows)
    for k in range(grid.n):
        if polys[k].is_zero:
            continue
        vals = polys[k].evaluate(pts) / grid.h
        nbr = rows + int(grid.strides[k])
        ri.append(r_idx)
        ci.append(nbr)
        data.append(vals)
        ri.append(r_idx)
        ci.append(rows)
        data.append(-vals)
    if data:
        full = sp.coo_matrix(
            (np.concatenate(data), (np.concatenate(ri), np.concatenate(ci))),
            shape=(n_rows, grid.num_nodes),
        ).tocsc()
    else:
        full = sp.csc_matrix((n_rows, grid.num_nodes))
    mat = full[:, grid.interior_ids].tocsr()
    bnd = full[:, grid.boundary_ids].tocsr() if grid.n_boundary else None
    return SparseOperator(grid=grid, mat=mat, symmetric=False, boundary=bnd, row_ids=rows)


def assemble_stiffness(family, grid):
    """Stiffness form K = sum_j B_j^T W B_j with W = h^n I; symmetric PSD.

    f^T K f = h^n sum_rows sum_j |X_j f|^2 >= 0 exactly for zero boundary
    data; nonzero Dirichlet data enters through the boundary block.
    """
    if grid.n != family.n:
        raise ValueError(f"grid dimension {grid.n} != family dimension {family.n}")
    w = grid.h ** grid.n
    K = None
    Kb = None
    for j in range(1, family.m + 1):
        B = assemble_first_order(family, grid, j)
        KjI = (B.mat.T @ B.mat) * w
        K = KjI if K is None else K + KjI
        if B.boundary is not None:
            KjB = (B.mat.T @ B.boundary) * w
            Kb = KjB if Kb is None else Kb + KjB
    K = ((K + K.T) * 0.5).tocsr()
    return SparseOperator(grid=grid, mat=K, symmetric=True, boundary=Kb)


def assemble_diagonal(field):
    """Mass-weighted diagonal operator: diag entries h^n * field at interior nodes."""
    grid = field.grid
    w = grid.h ** grid.n
    vals = w * field.values[grid.interior_ids]
    mat = sp.diags(vals, format="csr")
    return SparseOperator(grid=grid, mat=mat, symmetric=True)


def mass_matrix(grid):
    """The mass matrix M = h^n I on interior nodes."""
    return assemble_diagonal(GridField.constant(grid, 1.0))


def rayleigh_quotient(K, Vdiag, M, f):
    """(f^T K f - f^T V f) / (f^T M f) over interior values of f."""
    fi = f.values[K.grid.interior_ids]
    den = fi @ (M.mat @ fi)
    if den <= 0.0:
        raise ValueError("zero-norm f: f^T M f must be positive")
    num = fi @ (K.mat @ fi)
    if Vdiag is not None:
        num -= fi @ (Vdiag.mat @ fi)
    return float(num / den)
