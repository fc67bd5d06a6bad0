"""Principal eigenvalue solvers for the discrete sub-Laplacian.

principal_eigenpair finds the smallest eigenvalue of (K - V) u = lam M u,
and by default the second one too, in one SciPy call (shift-invert ARPACK
on small systems, LOBPCG preconditioned by float32 CG on large ones);
weighted_principal handles K u = lam G u with a possibly sign-changing
weight through ARPACK on the pencil G w = mu K w (lam = 1 / mu_max);
epsilon_path follows the regularized forms K + eps * K_euclid down to
eps -> 0, solving for lam_1 alone.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import fields as vf
from .mesh import GridField, coarse_grid
from .operators import (
    NotPositiveDefiniteError,
    assemble_stiffness,
    factor_pays,
    factor_spd,
    mass_matrix,
    shifted_copy,
)

DEFAULT_TOL = 1e-8
MAX_ITER = 500  # ARPACK Arnoldi updates or LOBPCG steps of one principal solve
DEGENERACY_GAP = 1e-6
DENSE_MAX_N = 10  # below this many unknowns the pencil goes to a dense eigh
COARSE_TOL_FACTOR = 1e3  # a cold LOBPCG start is solved on the 2h grid at this many times tol
COARSE_NOISE = 0.1  # relative size of the seeded random part of a coarse start block


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
    # a second eigenvalue within DEGENERACY_GAP of lam; None when lam_2 was not computed
    degenerate: bool | None = None
    # LOBPCG steps and shift-invert applications of the coarse solves that
    # built a cold LOBPCG start (see principal_eigenpair); not in the report
    coarse_iterations: int = 0
    # inner CG steps of this level's LOBPCG preconditioner; 0 on the other paths
    # and not in the report
    cg_iterations: int = 0
    # M-orthonormal lam_1 (and lam_2) vectors on the interior nodes, columns in
    # that order; a _principal result passes them on as `start`
    vectors: np.ndarray = field(default=None, repr=False)

    def to_json_dict(self):
        return {
            "lambda": float(self.lam),
            "residual": float(self.residual),
            "iterations": int(self.iterations),
            "positive": bool(self.positive),
            "degenerate": None if self.degenerate is None else bool(self.degenerate),
        }


def _checked_result(grid, K, u, lam, bdiag, vdiag, tol, solver, iterations, unit, **counters):
    """The EigenResult of (lam, u) for (K - V) u = lam B u, once its residual passes tol.

    The residual is ||(K - V) u - lam B u|| / ||u|| on the interior nodes,
    with B and V diagonal (`vdiag` None for V = 0); one that is above tol,
    or NaN, raises ConvergenceError naming `solver`, the residual, tol and
    `iterations` `unit`.  `counters` are the result's remaining fields.
    """
    res_vec = K @ u - lam * (bdiag * u)
    if vdiag is not None:
        res_vec -= vdiag * u
    residual = float(np.linalg.norm(res_vec) / np.linalg.norm(u))
    if not residual <= tol:
        raise ConvergenceError(
            f"{solver} residual {residual:.3e} above tol {tol:.3e} after {iterations} {unit}",
            lam=lam, residual=residual, iterations=iterations,
        )
    return EigenResult(lam=lam, eigenfield=GridField.from_interior(grid, u), residual=residual,
                       iterations=iterations, positive=bool(np.all(u > 0.0)), **counters)


def _m_normalized(u, mdiag):
    """u scaled to u^T M u = 1, with its largest-magnitude entry positive."""
    u = u / np.sqrt(u @ (mdiag * u))
    return -u if u[np.argmax(np.abs(u))] < 0 else u


def principal_eigenpair(K, Vdiag, *, tol=DEFAULT_TOL, pairs=2):
    """Smallest eigenvalue of (K - V) u = lam M u, M the lumped mass h^n I.

    `Vdiag` (None for V = 0) is the diagonal of V as a 1-D array over the
    interior nodes (`assemble_diagonal`); M is `mass_matrix(K.grid)`.  The
    pencil A = M^{-1/2} (K - V) M^{-1/2} is built in one entrywise step:
    each stored k_ij of K is multiplied by s_i s_j with s = M^{-1/2}, on
    K's own pattern, and V/M is taken off the diagonal.  Floating-point
    products commute, so A is exactly as symmetric as K (every
    SparseOperator on interior rows is checked to SYMMETRY_TOL).  The
    `pairs` (1 or 2) lowest eigenpairs of A come from one solver call at a
    shift sigma below the spectrum: a dense `eigh` when n < DENSE_MAX_N,
    ARPACK in shift-invert mode on one `factor_spd` factorization of
    A - sigma I on grids that `operators.factor_pays` factors (the same
    rule as the shifted solves), and LOBPCG preconditioned by a few CG
    steps on A - sigma I on the others.  `iterations` counts the
    shift-invert applications (the factor's `calls`) on the direct path
    and the LOBPCG steps on the other, and `cg_iterations` the CG steps of
    the LOBPCG preconditioner (0 on the other paths); `degenerate` compares
    the second eigenvalue with lam, and is None when pairs=1.  `vectors`
    has `pairs` columns (one when n = 1).

    The preconditioner scales b to unit norm and runs CG to rtol 0.1 (at
    most 50 steps) in float32, on the copy of A - sigma I that
    `operators.shifted_copy` stores by diagonals on box and sub-box
    grids.  Single precision is enough: sigma = lower - 1e-3 ||A||_inf - 1
    keeps cond(A - sigma I) below about 2e3, so float32 rounding (6e-8)
    stays far below rtol 0.1, and a preconditioner only has to be roughly
    right.  LOBPCG computes every residual and Ritz value in float64 on A,
    as does the final residual check, so the acceptance test is the same.

    LOBPCG stops when every unit Ritz vector y has ||A y - lam y|| <=
    0.5 * tol / max(M): for u = M^{-1/2} y, ||(K - V) u - lam M u|| / ||u||
    <= max(M) ||A y - lam y||, so the final residual check passes with a
    2x margin on any grid, eps or potential.  Shift-invert ARPACK gets
    the tolerance 0.5 * tol / (max(M) (||A||_inf - sigma)), which bounds
    ||A y - lam y|| the same way.

    A two-pair LOBPCG solve starts from the same pencil solved on the grid of
    every other node (`mesh.coarse_grid`: K_c = P^T K P, V_c and M_c the
    row-summed P^T V P and P^T M P) at COARSE_TOL_FACTOR * tol, its two
    eigenvectors plus a seeded random part of relative size COARSE_NOISE,
    prolonged by P.  That solve takes the path its own size picks, so a
    coarse pencil that is not factored starts from a coarser one in turn;
    the coarse levels' steps go to `coarse_iterations`, not `iterations`.
    A one-pair solve, or a grid with an even node count on some axis (no
    2h grid), starts from the first `pairs` of [ones, seeded random].  On
    Heisenberg (-1, 1)^3 at h = 1/16 (29,791 unknowns, one BLAS thread)
    the cold two-pair solve takes 22 LOBPCG steps (45 from [ones, seeded
    random]) and 0.41-0.53 s, against 0.79-0.85 s with the preconditioner's
    CG in float64 on CSR; a one-pair solve there was slower from the 2h
    grid (13 -> 8 + 14 steps at eps = 0.5).
    """
    if pairs not in (1, 2):
        raise ValueError(f"pairs must be 1 or 2, got {pairs!r}")
    grid = K.grid
    return _principal(grid, K.mat, np.zeros(grid.n_interior) if Vdiag is None else Vdiag,
                      mass_matrix(grid), tol, None, pairs)


def _start_noise(shape):
    return np.random.default_rng(0x5EC).standard_normal(shape)


def _coarse_start(grid, K, vdiag, mdiag, tol):
    """Two-column LOBPCG start block for a cold solve, and the coarse levels' step count.

    The block is the two lowest eigenvectors of the pencil on the 2h grid,
    prolonged and put in the coordinates M^{1/2} u of A; (None, 0) when
    there is no 2h grid or it has fewer than two unknowns.
    """
    level = coarse_grid(grid)
    if level is None or level[0].n_interior < 2:
        return None, 0
    grid_c, P = level
    weight = P @ np.ones(grid_c.n_interior)
    Kc = (P.T @ K @ P).tocsr()
    # V_c and M_c: the row sums of P^T diag(d) P
    try:
        coarse = _principal(grid_c, ((Kc + Kc.T) * 0.5).tocsr(), P.T @ (vdiag * weight),
                            P.T @ (mdiag * weight), COARSE_TOL_FACTOR * tol, None, 2)
    except ConvergenceError as exc:
        raise ConvergenceError(
            f"coarse start on the 2h grid ({grid_c.n_interior} unknowns): {exc}",
            lam=exc.lam, residual=exc.residual, iterations=exc.iterations,
        ) from exc
    # A coarse block can lack the fine lam_1 mode exactly (the modes of a
    # symmetric domain split into classes, and a coarse grid can order them
    # differently), and LOBPCG never creates a missing component.  A seeded
    # random part on the coarse grid keeps every component nonzero.
    Y = coarse.vectors
    R = _start_noise(Y.shape)
    Y = Y + COARSE_NOISE * R * (np.linalg.norm(Y, axis=0) / np.linalg.norm(R, axis=0))
    X = np.sqrt(mdiag)[:, None] * (P @ Y)
    return X, coarse.iterations + coarse.coarse_iterations


def _principal(grid, K, vdiag, mdiag, tol, start, pairs):
    """principal_eigenpair on validated arguments, K in CSR; the coarse levels recurse here.

    `mdiag` (h^n, or a coarse level's row sums of P^T M P) is positive.
    `start` is None or an earlier result on the same grid and M with at
    least `pairs` vectors: LOBPCG starts from its first `pairs` vectors,
    ARPACK from its lam_1 vector, and the dense `eigh` needs none.
    """
    # A = M^{-1/2} (K - V) M^{-1/2}: k_ij s_i s_j on K's pattern, as symmetric as K
    s = 1.0 / np.sqrt(mdiag)
    data = np.repeat(s, np.diff(K.indptr)) * s[K.indices]
    data *= K.data
    A = sp.csr_matrix((data, K.indices, K.indptr), shape=K.shape) - sp.diags(vdiag / mdiag)
    n = A.shape[0]
    iterations = coarse_iterations = cg_iterations = 0
    if n < DENSE_MAX_N:
        path, unit = "dense eigh", "iterations"
        lams, Y = np.linalg.eigh(A.toarray())
        lams, Y = lams[:pairs], Y[:, :pairs]
    else:
        # the start block in the coordinates M^{1/2} u of A
        X0 = None if start is None else np.sqrt(mdiag)[:, None] * start.vectors[:, :pairs]
        # K is PSD, so eig(A) >= -max(V/M); shift safely below the spectrum.
        lower = -max(float((vdiag / mdiag).max()), 0.0)
        anorm = max(float(abs(A).sum(axis=1).max()), 1e-300)
        sigma = lower - 1e-3 * anorm - 1.0
        if factor_pays(grid):
            path, unit = "shift-invert ARPACK", "operator applications"
            try:
                OPinv = factor_spd(shifted_copy(A, sigma, np.float64))
            except NotPositiveDefiniteError as exc:
                raise NotPositiveDefiniteError(
                    f"principal eigensolve: A - sigma I is not positive definite at "
                    f"sigma = {sigma:.6g}, below the spectrum of a PSD K ({exc})") from exc
            # a cold start is ones plus a seeded random part: on a symmetric
            # domain ones has no component along an antisymmetric lam_2 mode
            if X0 is None:
                r = _start_noise(n)
                v0 = 1.0 + COARSE_NOISE * r * (np.sqrt(n) / np.linalg.norm(r))
            else:
                v0 = X0[:, 0]
            # ARPACK stops at ||OPinv y - theta y|| <= tol_a |theta|, which gives
            # ||A y - lam y|| <= ||A - sigma|| tol_a <= (||A||_inf - sigma) tol_a:
            # the same 2x margin on the final check as LOBPCG's stop
            try:
                lams, Y = spla.eigsh(A, k=pairs, sigma=sigma, OPinv=OPinv, which="LM",
                                     v0=v0, maxiter=MAX_ITER,
                                     tol=0.5 * tol / (mdiag.max() * (anorm - sigma)))
            except spla.ArpackNoConvergence as exc:
                raise ConvergenceError(
                    f"principal eigensolve ({path}) did not converge after {OPinv.calls} {unit}",
                    iterations=OPinv.calls,
                ) from exc
            iterations = OPinv.calls
        else:
            path, unit = "LOBPCG", "iterations"
            A32 = shifted_copy(A, sigma, np.float32)

            def count_cg(xk):
                nonlocal cg_iterations
                cg_iterations += 1

            def precondition(b):
                scale = np.linalg.norm(b)
                if scale == 0.0:
                    return np.zeros_like(b)
                x = spla.cg(A32, (b / scale).astype(np.float32), rtol=0.1, atol=0.0, maxiter=50,
                            callback=count_cg)[0]
                return x.astype(np.float64) * scale

            X = X0
            if X is None and pairs == 2:
                X, coarse_iterations = _coarse_start(grid, K, vdiag, mdiag, tol)
            if X is None:
                X = np.column_stack([np.ones(n), _start_noise((n, 1))])[:, :pairs]
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # non-convergence is checked below
                lams, Y, hist = spla.lobpcg(
                    A, X, M=spla.LinearOperator((n, n), matvec=precondition, dtype=float),
                    tol=0.5 * tol / mdiag.max(), maxiter=MAX_ITER, largest=False,
                    retResidualNormsHistory=True,
                )
            iterations = len(hist) - 2  # the history holds the first and the final residuals too
            unit = f"iterations ({cg_iterations} inner CG steps)"
    order = np.argsort(lams)
    lams, Y = lams[order], Y[:, order]
    lam = float(lams[0])
    u_int = _m_normalized(Y[:, 0] / np.sqrt(mdiag), mdiag)
    vectors = np.column_stack([u_int, Y[:, 1:] / np.sqrt(mdiag)[:, None]])
    degenerate = None
    if pairs == 2:
        degenerate = n > 1 and bool(lams[1] - lam < DEGENERACY_GAP * max(1.0, abs(lam)))
    return _checked_result(grid, K, u_int, lam, mdiag, vdiag, tol,
                           f"principal eigensolve ({path})", iterations, unit,
                           degenerate=degenerate, coarse_iterations=coarse_iterations,
                           cg_iterations=cg_iterations, vectors=vectors)


def weighted_principal(K, gdiag, tol=DEFAULT_TOL):
    """Principal eigenvalue of K u = lam g u with possibly sign-changing g.

    lam = inf { f^T K f : f^T G f = 1 } is realized through the pencil
    G w = mu K w: lam = 1 / mu_max, found by ARPACK in generalized mode
    with K-inverse applications from one `factor_spd` Cholesky factor of K
    (SPD); `gdiag` is the weight's diagonal, h^n g on the interior nodes
    (`assemble_diagonal`).  Errors out when g <= 0 everywhere.
    `iterations` counts the K-solves (the factor's `calls`).  `degenerate`
    is None: the second eigenvalue is not computed.
    """
    grid = K.grid
    if gdiag.max() <= 0.0:
        raise ValueError("no positive principal eigenvalue: weight g <= 0 on the domain")
    n = K.shape[0]
    solves = 0
    if n == 1:  # ARPACK needs k < n
        mu, w = gdiag[0] / K.mat[0, 0], np.ones(1)
    else:
        try:
            Kinv = factor_spd(K.mat)
        except NotPositiveDefiniteError as exc:
            raise NotPositiveDefiniteError(
                f"weighted eigensolve: K is not positive definite ({exc})") from exc
        try:
            mu, w = spla.eigsh(sp.diags(gdiag, format="csr"), k=1, M=K.mat, Minv=Kinv,
                               which="LA", v0=np.ones(n))
        except spla.ArpackNoConvergence as exc:
            raise ConvergenceError(
                f"weighted eigensolve: ARPACK did not converge after {Kinv.calls} K-solves",
                iterations=Kinv.calls,
            ) from exc
        mu, w = mu[0], w[:, 0]
        solves = Kinv.calls
    lam = 1.0 / float(mu)
    u = _m_normalized(w, mass_matrix(grid))
    return _checked_result(grid, K.mat, u, lam, gdiag, None, tol, "weighted eigensolve", solves,
                           "K-solves")


def epsilon_path(family, grid, Vdiag, eps_list, tol=DEFAULT_TOL):
    """lambda_1 along the regularization K + eps * K_euclid, eps decreasing.

    eps values must be finite, nonnegative and strictly decreasing, so only
    the last can be 0, which reproduces the direct (unregularized) solve.
    Each solve computes lam_1 alone (pairs=1) and, after the first, starts
    from the previous eps's lam_1 vector (M does not depend on eps).  The solves run
    on the CSR sum K + eps K_euclid itself: both terms were checked
    symmetric when assembled, and their sum is exactly as symmetric.  The
    returned sequence is checked to be strictly decreasing.
    """
    eps_list = [float(e) for e in eps_list]
    if not eps_list:
        raise ValueError("eps_list must hold at least one eps")
    if not all(0.0 <= e < np.inf for e in eps_list):
        raise ValueError("eps values must be finite and nonnegative")
    if any(a <= b for a, b in zip(eps_list, eps_list[1:])):
        raise ValueError("eps values must be strictly decreasing")
    K = assemble_stiffness(family, grid)
    K_euc = assemble_stiffness(vf.euclidean(family.n), grid)
    M = mass_matrix(grid)
    vdiag = np.zeros(grid.n_interior) if Vdiag is None else Vdiag
    out = []
    res = None
    for eps in eps_list:
        mat = (K.mat + eps * K_euc.mat).tocsr() if eps else K.mat
        try:
            res = _principal(grid, mat, vdiag, M, tol, res, 1)
        except ConvergenceError as exc:
            raise ConvergenceError(f"epsilon path at eps={eps:g}: {exc}", lam=exc.lam,
                                   residual=exc.residual, iterations=exc.iterations) from exc
        out.append((eps, res.lam))
    lams = [lam for _, lam in out]
    if any(a <= b for a, b in zip(lams, lams[1:])):
        raise ConvergenceError(f"epsilon path not strictly decreasing: {out}", lam=lams[-1])
    return out
