"""Principal eigenvalue solvers for the discrete sub-Laplacian.

principal_eigenpair finds the smallest eigenvalue of (K - V) u = lam M u
by shifted inverse iteration with conjugate-gradient inner solves and
Rayleigh-quotient shift acceleration; weighted_principal handles
K u = lam G u with a possibly sign-changing weight through ARPACK on the
pencil G w = mu K w (lam = 1 / mu_max); epsilon_path follows the
regularized forms K + eps * K_euclid down to eps -> 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import fields as vf
from .mesh import GridField
from .operators import SparseOperator, assemble_diagonal, assemble_stiffness, mass_matrix

DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 500
DEGENERACY_GAP = 1e-6


class ConvergenceError(RuntimeError):
    """Raised when an eigensolve does not reach its residual tolerance."""

    def __init__(self, message, lam=None, residual=None, iterations=None):
        super().__init__(message)
        self.lam = lam
        self.residual = residual
        self.iterations = iterations


@dataclass(eq=False)
class EigenResult:
    lam: float
    eigenfield: GridField
    residual: float
    iterations: int
    positive: bool
    _probe: object = field(default=None, repr=False)  # () -> bool, run on first read

    @cached_property
    def degenerate(self):
        """Whether a second eigenvalue lies within DEGENERACY_GAP of lam.

        Probed on first read; solvers that store no probe report False.
        """
        return self._probe is not None and bool(self._probe())

    def to_json_dict(self):
        return {
            "lambda": float(self.lam),
            "residual": float(self.residual),
            "iterations": int(self.iterations),
            "positive": bool(self.positive),
            "degenerate": bool(self.degenerate),
        }


def _field_from_interior(grid, u_int):
    vals = np.zeros(grid.num_nodes)
    vals[grid.interior_ids] = u_int
    return GridField(grid, vals)


def _finish(K, Vdiag, M, u_int, lam):
    mdiag = M.mat.diagonal()
    u_int = u_int / np.sqrt(u_int @ (mdiag * u_int))
    if u_int[np.argmax(np.abs(u_int))] < 0:
        u_int = -u_int
    res_vec = K.mat @ u_int - lam * (mdiag * u_int)
    if Vdiag is not None:
        res_vec -= Vdiag.mat @ u_int
    residual = float(np.linalg.norm(res_vec) / np.linalg.norm(u_int))
    positive = bool(np.all(u_int > 0.0))
    return u_int, residual, positive


def principal_eigenpair(K, Vdiag, M, tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER):
    """Smallest eigenvalue of (K - V) u = lam M u, M diagonal positive.

    Inverse iteration on the symmetrized pencil with a shift kept strictly
    below the target eigenvalue; the shift follows the Rayleigh estimate
    minus twice the residual, which preserves positive definiteness of the
    shifted matrix for the CG inner solves.
    """
    grid = K.grid
    mdiag = M.mat.diagonal()
    if np.any(mdiag <= 0):
        raise ValueError("M must have a positive diagonal")
    A = _symmetrized(K, Vdiag, mdiag)
    n = A.shape[0]
    if n == 1:
        lam = float(A[0, 0])
        u_int, residual, positive = _finish(K, Vdiag, M, np.ones(1), lam)
        return EigenResult(lam, _field_from_interior(grid, u_int), residual, 0, positive)

    scale = max(float(abs(A).sum(axis=1).max()), 1e-300)
    # K is PSD, so eig(A) >= -max(V/M); start safely below the spectrum.
    lower = 0.0
    if Vdiag is not None:
        lower = -max(float((Vdiag.mat.diagonal() / mdiag).max()), 0.0)
    sigma = lower - 1e-3 * scale - 1.0

    y = np.ones(n) / np.sqrt(n)
    lam = float(y @ (A @ y))
    iterations = 0
    inner_maxiter = max(2 * n, 200)
    ident = sp.identity(n, format="csr")
    for iterations in range(1, max_iter + 1):
        r_vec = A @ y - lam * y
        r = float(np.linalg.norm(r_vec))
        if r <= tol * 1e-2 * scale:
            break
        # Rayleigh acceleration: some eigenvalue lies within r of lam, but
        # not necessarily the lowest, so lam - 2r may overshoot it; the
        # z.Ash.z <= 0 retreat below is what keeps the shift usable.
        cand = lam - 2.0 * r - 1e-14 * scale
        if cand > sigma:
            sigma = cand
        Ash = A - sigma * ident
        rtol_inner = min(1e-2, max(0.05 * r / scale, 1e-13))
        z, info = spla.cg(Ash, y, x0=y, rtol=rtol_inner, atol=0.0, maxiter=inner_maxiter)
        if info != 0 or not np.all(np.isfinite(z)) or float(z @ (Ash @ z)) <= 0.0:
            # shift overshot (or CG stalled): retreat and solve again
            sigma = lam - max(4.0 * r, 1e-6 * scale)
            Ash = A - sigma * ident
            z, info = spla.cg(Ash, y, x0=y, rtol=min(rtol_inner, 1e-6), atol=0.0,
                              maxiter=inner_maxiter)
            if not np.all(np.isfinite(z)):
                raise ConvergenceError("inner CG produced non-finite iterate",
                                       lam=lam, residual=r, iterations=iterations)
        nz = np.linalg.norm(z)
        if nz == 0.0:
            raise ConvergenceError("inverse iteration collapsed to zero",
                                   lam=lam, residual=r, iterations=iterations)
        y = z / nz
        lam = float(y @ (A @ y))

    u_int = (1.0 / np.sqrt(mdiag)) * y
    u_int, residual, positive = _finish(K, Vdiag, M, u_int, lam)
    if residual > tol:
        raise ConvergenceError(
            f"principal eigensolve residual {residual:.3e} above tol {tol:.3e} "
            f"after {iterations} iterations",
            lam=lam, residual=residual, iterations=iterations,
        )
    return EigenResult(
        lam=lam,
        eigenfield=_field_from_interior(grid, u_int),
        residual=residual,
        iterations=iterations,
        positive=positive,
        _probe=partial(_second_gap_small, K, Vdiag, mdiag, y, lam, sigma, inner_maxiter),
    )


def _symmetrized(K, Vdiag, mdiag):
    """A = M^{-1/2} (K - V) M^{-1/2}, symmetrized, for diagonal M = diag(mdiag)."""
    S = sp.diags(1.0 / np.sqrt(mdiag))
    A = (S @ K.mat @ S).tocsr()
    if Vdiag is not None:
        A = A - sp.diags(Vdiag.mat.diagonal() / mdiag)
    return ((A + A.T) * 0.5).tocsr()


def _second_gap_small(K, Vdiag, mdiag, y, lam, sigma, inner_maxiter):
    """Estimate the second Ritz value by deflated inverse iteration.

    A is rebuilt from the caller's K and V, so a stored probe holds no
    matrix of its own.  A seeded random start has generic overlap with
    the orthogonal complement of the ground state (structured starts can
    be numerically orthogonal to the degenerate partner and miss it
    entirely).
    """
    A = _symmetrized(K, Vdiag, mdiag)
    n = A.shape[0]
    rng = np.random.default_rng(0x5EC)
    v = rng.standard_normal(n)
    v -= (v @ y) * y
    nv = np.linalg.norm(v)
    if nv < 1e-12:
        return False
    v /= nv
    Ash = A - sigma * sp.identity(n, format="csr")
    lam2 = float(v @ (A @ v))
    for _ in range(8):
        w, info = spla.cg(Ash, v, x0=v, rtol=1e-10, atol=0.0, maxiter=inner_maxiter)
        if not np.all(np.isfinite(w)):
            return False
        w -= (w @ y) * y
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return False
        v = w / nw
        new = float(v @ (A @ v))
        if abs(new - lam2) < 1e-9 * max(1.0, abs(new)):
            lam2 = new
            break
        lam2 = new
    return bool(lam2 - lam < DEGENERACY_GAP * max(1.0, abs(lam)))


def weighted_principal(K, gdiag, tol=DEFAULT_TOL):
    """Principal eigenvalue of K u = lam g u with possibly sign-changing g.

    lam = inf { f^T K f : f^T G f = 1 } is realized through the pencil
    G w = mu K w: lam = 1 / mu_max, found by ARPACK in generalized mode
    with K-inverse applications from one sparse factorization.  Errors
    out when g <= 0 everywhere.  `iterations` counts the K-solves.
    """
    grid = K.grid
    gvals = gdiag.mat.diagonal()
    if gvals.max() <= 0.0:
        raise ValueError("no positive principal eigenvalue: weight g <= 0 on the domain")
    n = K.shape[0]
    solves = 0
    if n == 1:  # ARPACK needs k < n
        mu, w = gvals[0] / K.mat[0, 0], np.ones(1)
    else:
        factor = spla.factorized(K.mat.tocsc())

        def solve(b):
            nonlocal solves
            solves += 1
            return factor(b)

        Kinv = spla.LinearOperator((n, n), matvec=solve, dtype=float)
        try:
            mu, w = spla.eigsh(gdiag.mat, k=1, M=K.mat, Minv=Kinv, which="LA", v0=np.ones(n))
        except spla.ArpackNoConvergence as exc:
            raise ConvergenceError(
                f"weighted eigensolve: ARPACK did not converge after {solves} K-solves",
                iterations=solves,
            ) from exc
        mu, w = mu[0], w[:, 0]
    lam = 1.0 / float(mu)
    mdiag = mass_matrix(grid).mat.diagonal()
    u = w / np.sqrt(w @ (mdiag * w))
    if u[np.argmax(np.abs(u))] < 0:
        u = -u
    residual = float(np.linalg.norm(K.mat @ u - lam * (gvals * u)) / np.linalg.norm(u))
    if residual > tol:
        raise ConvergenceError(
            f"weighted eigensolve residual {residual:.3e} above tol {tol:.3e} "
            f"after {solves} K-solves",
            lam=lam, residual=residual, iterations=solves,
        )
    return EigenResult(
        lam=lam,
        eigenfield=_field_from_interior(grid, u),
        residual=residual,
        iterations=solves,
        positive=bool(np.all(u > 0.0)),
    )


def epsilon_path(family, grid, Vdiag, eps_list, tol=DEFAULT_TOL):
    """lambda_1 along the regularization K + eps * K_euclid, eps decreasing.

    eps values must be strictly decreasing and positive; a trailing 0 is
    accepted and reproduces the direct (unregularized) solve.  The returned
    sequence is checked to be strictly decreasing.
    """
    eps_list = [float(e) for e in eps_list]
    if any(e < 0 for e in eps_list):
        raise ValueError("eps values must be nonnegative")
    if any(a <= b for a, b in zip(eps_list, eps_list[1:])):
        raise ValueError("eps values must be strictly decreasing")
    if any(e == 0.0 for e in eps_list[:-1]):
        raise ValueError("only the final eps may be zero")
    K = assemble_stiffness(family, grid)
    K_euc = assemble_stiffness(vf.euclidean(family.n), grid)
    M = mass_matrix(grid)
    out = []
    for eps in eps_list:
        mat = (K.mat + eps * K_euc.mat).tocsr() if eps else K.mat
        Keps = SparseOperator(grid=grid, mat=((mat + mat.T) * 0.5).tocsr(), symmetric=True)
        out.append((eps, principal_eigenpair(Keps, Vdiag, M, tol=tol).lam))
    lams = [lam for _, lam in out]
    if any(a <= b for a, b in zip(lams, lams[1:])):
        raise ConvergenceError(
            f"epsilon path not strictly decreasing: {lams}",
            lam=lams[-1], residual=None, iterations=len(lams),
        )
    return out


def _interior_coord_set(grid):
    pts = grid.points[grid.interior_ids]
    return {tuple(np.round(p / (grid.h * 0.5)).astype(int)) for p in pts}


def domain_monotonicity(family, V, nested_masks, tol=DEFAULT_TOL):
    """lambda_1 over a nested chain of masked domains; values are non-increasing.

    `V` is a callable potential (or None); masks must share a parent grid
    and have increasing interior sets.
    """
    sets = [_interior_coord_set(g) for g in nested_masks]
    for a, b in zip(sets, sets[1:]):
        if not a.issubset(b):
            raise ValueError("masks are not nested: interior sets must be increasing")
    lams = []
    for g in nested_masks:
        K = assemble_stiffness(family, g)
        M = mass_matrix(g)
        Vd = None
        if V is not None:
            Vd = assemble_diagonal(GridField.from_function(g, V))
        lams.append(principal_eigenpair(K, Vd, M, tol=tol).lam)
    for a, b in zip(lams, lams[1:]):
        if b > a + 10 * tol * max(1.0, abs(a)):
            raise ConvergenceError(f"domain monotonicity violated: {lams}")
    return lams
