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
from scipy.linalg import cho_solve_banded, cholesky_banded

from .mesh import EXTERIOR, neighbor_set

SYMMETRY_TOL = 1e-12
DIRECT_MAX_SEPARATOR = 180  # factor a grid system whose top separator is at most this


@dataclass(eq=False)
class SparseOperator:
    """Sparse matrix bound to a grid.

    `mat` has columns indexed by interior nodes; `boundary`, when present,
    is the companion block with columns indexed by boundary nodes (same
    rows), through which imposed Dirichlet values enter.  Rows are
    quadrature rows (`row_ids`) for first-order operators and interior
    nodes for the others, which are checked symmetric to SYMMETRY_TOL.
    """

    grid: object
    mat: sp.csr_matrix
    boundary: sp.csr_matrix = None
    row_ids: np.ndarray = None

    def __post_init__(self):
        self.mat = sp.csr_matrix(self.mat)
        if self.boundary is not None:
            self.boundary = sp.csr_matrix(self.boundary)
        if self.row_ids is None:
            asym = abs(self.mat - self.mat.T).max()
            if asym > SYMMETRY_TOL * max(abs(self.mat).max(), 1.0):
                raise ValueError(f"interior-row operator not symmetric: |K - K^T| = {asym:g}")

    @property
    def shape(self):
        return self.mat.shape

    def apply(self, field):
        """Apply to a GridField, boundary values included; returns per-row values."""
        out = self.mat @ field.values[self.grid.interior_ids]
        if self.boundary is not None:
            out = out + self.boundary @ field.values[self.grid.boundary_ids]
        return out

    def inf_norm(self):
        return float(abs(self.mat).sum(axis=1).max()) if self.mat.nnz else 0.0


class NotPositiveDefiniteError(np.linalg.LinAlgError):
    """Raised by `factor_spd` when the matrix it factors is not positive definite."""


class _Factor(spla.LinearOperator):
    def __init__(self, A):
        super().__init__(float, A.shape)
        self.calls = 0
        A = A.tocsr()
        # imported on first use: a run that factors nothing, such as the CC
        # metric's, does not load csgraph (about 1 MB)
        from scipy.sparse.csgraph import reverse_cuthill_mckee
        self.order = order = reverse_cuthill_mckee(A, symmetric_mode=True)
        n = A.shape[0]
        rank = np.empty(n, dtype=np.intp)
        rank[order] = np.arange(n)
        coo = A.tocoo()
        row, col = rank[coo.row], rank[coo.col]
        keep = (row >= col) & (coo.data != 0)  # the stored lower triangle
        row, col = row[keep], col[keep]
        ab = np.zeros((int((row - col).max(initial=0)) + 1, n), order="F")  # factored in place
        ab[row - col, col] = coo.data[keep]
        try:
            self.band = cholesky_banded(ab, lower=True, overwrite_ab=True, check_finite=False)
        except np.linalg.LinAlgError as exc:
            raise NotPositiveDefiniteError(f"banded Cholesky failed: {exc}") from None
        self.nnz = self.band.size

    def solve(self, b):
        self.calls += 1
        x = np.empty(b.shape)
        x[self.order] = cho_solve_banded((self.band, True), b[self.order], check_finite=False)
        return x

    _matvec = solve


def factor_spd(A):
    """One factorization of a symmetric positive definite matrix, as the operator x -> A^{-1} x.

    A is put in reverse Cuthill-McKee order, which depends on its pattern
    alone, and factored by LAPACK's banded Cholesky (`cholesky_banded`,
    b + 1 stored diagonals for the half-band b of the ordered matrix).  A
    failed Cholesky step raises NotPositiveDefiniteError: A is not positive
    definite.  `solve` is the operator's matvec, `calls` counts both, `band`
    holds the factor, `order` is the ordering used and `nnz` the entries the
    factor stores.
    """
    return _Factor(A)


def factor_pays(grid):
    """Whether the interior system of `grid` is factored (True) or iterated.

    A sparse factor costs what its top nested-dissection separator costs,
    about s = n^{(d-1)/d} for n unknowns in d dimensions: fill grows like
    n log n in 2-D and n^{4/3} in 3-D (George 1973; Lipton, Rose and Tarjan
    1979), and a box grid's best band is about s wide too, so one nonzero
    count cannot serve every dimension.  Grids with s <=
    DIRECT_MAX_SEPARATOR factor: every 1-D grid, 2-D grids up to 32,400
    unknowns, 3-D up to 2,414.  On the band of `factor_spd` (README's
    table, one BLAS thread) an eigensolve beats LOBPCG in 3-D up to s = 225
    and in 2-D up to s = 127, not at s = 159, and a Newton run ties Jacobi
    CG up to s = 169.
    """
    return grid.n_interior ** ((grid.n - 1) / grid.n) <= DIRECT_MAX_SEPARATOR


def shifted_copy(A, sigma, dtype):
    """A copy of A - sigma I in `dtype`, stored by diagonals where that is compact.

    `sigma` is a scalar or a vector over the rows (A - diag(sigma)).  Every
    system that is factored (`factor_spd`) or iterated on (CG) is built
    here: the shifted solves, shift-invert ARPACK, the exhaustion solves
    and LOBPCG's float32 preconditioner.  Stored by diagonals (DIA),
    offsets ascending, when that band, n entries per diagonal, is at most
    2 nnz(A): a 3-D box or sub-box grid has 11 diagonals, a band of
    1.05-1.2 nnz.  A mask whose interior numbering scatters the stencil (a
    ball of radius 0.9 at h = 1/16: 645 diagonals, a band of 64 nnz) stays
    in CSR.  Built from the CSR matrix A, with the shifted diagonal
    computed in float64, so no float64 copy of A - sigma I is made on the
    way to a float32 one.  The band's zero fill is dropped when a copy is
    converted for factoring, so `factor_spd` factors the matrix the CSR
    A - sigma I holds.  When A has sorted indices, both formats sum each
    row of a matvec in column order, so a float64 copy gives products
    bit-identical to those of the CSR A - sigma I.  On
    Heisenberg (-1, 1)^3 at h = 1/16 (29,791 unknowns, one core), a matvec
    took 0.28-0.39 ms in float64 CSR, 0.22-0.26 ms in float64 DIA and
    0.10-0.13 ms in float32 DIA.
    """
    n = A.shape[0]
    # the diagonal of each stored entry, counted from 0 at the lowest (offset -n)
    diag_of = A.indices - np.repeat(np.arange(n), np.diff(A.indptr)) + n
    present = np.bincount(diag_of, minlength=2 * n) > 0
    present[n] = True  # the shift fills the main diagonal
    offsets = np.flatnonzero(present)
    if offsets.size * n > 2 * A.nnz:
        shifted = A.astype(dtype)
        shifted.setdiag(A.diagonal() - sigma)
        return shifted
    data = np.zeros((offsets.size, n), dtype)
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
    return SparseOperator(grid=grid, mat=full[:, grid.interior_ids],
                          boundary=full[:, grid.boundary_ids], row_ids=rows)


def assemble_stiffness(family, grid):
    """Stiffness form K = sum_j B_j^T W B_j with W = h^n I; symmetric PSD.

    f^T K f = h^n sum_rows sum_j |X_j f|^2 >= 0 exactly for zero boundary
    data; nonzero Dirichlet data enters through the boundary block.  B^T B
    sums (i, j) and (j, i) in the same order, so K is exactly symmetric.
    """
    if grid.n != family.n:
        raise ValueError(f"grid dimension {grid.n} != family dimension {family.n}")
    w = grid.h ** grid.n
    K = Kb = None
    for j in range(1, family.m + 1):
        B = assemble_first_order(family, grid, j)
        KjI, KjB = (B.mat.T @ B.mat) * w, (B.mat.T @ B.boundary) * w
        K = KjI if K is None else K + KjI
        Kb = KjB if Kb is None else Kb + KjB
    return SparseOperator(grid=grid, mat=K, boundary=Kb)


def assemble_diagonal(field):
    """A diagonal (potential, weight) as the 1-D array h^n * field on the interior nodes."""
    grid = field.grid
    return grid.h ** grid.n * field.values[grid.interior_ids]


def mass_matrix(grid):
    """The diagonal of the mass matrix M = h^n I, a 1-D array over the interior nodes."""
    return np.full(grid.n_interior, grid.h ** grid.n)
