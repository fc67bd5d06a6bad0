"""Semilinear solvers built on monotone sub/super-solution iteration.

Problems take the form H u = F(u) with Dirichlet data, discretized as
K u = M F(u) on the interior values.  The monotone scheme iterates
    u_{k+1} = (K + c_k M)^{-1} M (c_k u_k + F(u_k))
from a supersolution, with one rule for the shift: c_k is nodewise, at
least the sup of -F' over each node's [lower, u_k] (Amann 1976; Pao 1998).
Where F is concave on the bracket that sup is -F'(u_k), and the step is
Newton's; for a reaction that is not, a bound over [lower, upper] serves
every step, and the one shift costs one factorization.  Every run stops
only once its residual is at most tol and its last step at most tol
relative to max |u|.  Descent onto a solution in [lower, upper] rests on a
discrete maximum principle, which is monitored, not assumed.

Specializations: the logistic problem H u = mu u (a - b u^{p-1}), concave
on u >= 0, the Yamabe-type problem H u + k u - Kcap |u|^{p-1} u = 0 on
truncated boxes with far-field boundary value eps, whose reaction is not
concave, and the exhaustion sequence H u = lam g u on growing boxes with
boundary datum equal to the box index.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .expressions import compile_expression
from .mesh import GridField, build_grid
from .operators import (NotPositiveDefiniteError, assemble_diagonal, assemble_stiffness,
                        factor_pays, factor_spd, shifted_copy)

TOL_LIN = 1e-10          # relative residual bound of every shifted linear solve
MAX_ITER_MONOTONE = 1000
SUB_SLACK_FACTOR = 1e-8  # tau_sub = factor * ||K||_inf * ||u||_inf
SHIFT_CHECK_SEED = 0     # seeds the random values at which `validate_shift` samples


@dataclass(eq=False)
class SemilinearProblem:
    """H u = F(u) with constant Dirichlet data and the nodewise monotone shift.

    `reaction` maps the interior values (n_interior,) to F(u) there.
    `shift`, a callable (lower, u) -> c on interior vectors, gives at each
    node a c at least the sup of -dF/du over [lower, u] there.
    `logistic_problem` gives -F'(u) itself where 0 <= lower <= u, and
    `yamabe_problem` a bound over its whole bracket that does not depend on
    u.  `boundary_value` is the one Dirichlet value of every boundary node.
    `validate_shift` spot-checks a shift by sampled difference quotients.
    """

    K: object                       # assembled stiffness SparseOperator
    reaction: object                # callable F(u) on interior values
    shift: object                   # callable (lower, u) -> c on interior values
    boundary_value: float = 0.0

    @property
    def grid(self):
        return self.K.grid

    def validate_shift(self, c, lo, hi):
        """Sampled check that c + dF/du >= 0 at each node on [lo, hi]; returns the sampled -dF/du.

        `c`, `lo` and `hi` are interior vectors.  At every interior node,
        takes the difference quotient over [u, u + du] at a random u within
        the node's bracket and at both of its ends, [lo, lo + du] and
        [hi - du, hi], where -dF/du usually peaks; du is 1e-6 of the widest
        bracket, so a narrower one is sampled up to du beyond its top.
        """
        rng = np.random.default_rng(SHIFT_CHECK_SEED)
        lo, hi = np.minimum(lo, hi), np.maximum(lo, hi)
        du = 1e-6 * max(float((hi - lo).max(initial=0.0)), 1e-12)
        top = np.maximum(hi - du, lo)
        worst = np.max([(self.reaction(u) - self.reaction(u + du)) / du
                        for u in (rng.uniform(lo, top), lo, top)], axis=0)
        excess = worst - c - 1e-4 * np.abs(c)
        i = int(np.argmax(excess))
        if excess[i] > 1e-12:
            raise ValueError(
                f"shift {c[i]:g} below the sampled -dF/du {worst[i]:g} on "
                f"[{lo[i]:g}, {hi[i]:g}] at node {int(self.grid.interior_ids[i])}"
            )
        return worst

    def defect(self, u):
        """K u - M F(u) on the interior rows."""
        g = self.grid
        return self.K.apply(u) - g.h ** g.n * self.reaction(u.values[g.interior_ids])


@dataclass(eq=False)
class BracketSolveResult:
    solution: GridField
    lower: GridField
    upper: GridField
    residual: float
    iterations: int
    bracket_respected: bool
    steps_monotone: bool = True
    max_step_increase: float = 0.0
    status: str = "ok"
    notes: list = field(default_factory=list)
    shifts: list = field(default_factory=list)  # the nodewise shift of each K + cM built, in order
    cg_iterations: int = 0

    def to_json_dict(self):
        return {
            "residual": float(self.residual),
            "iterations": int(self.iterations),
            "bracket_respected": bool(self.bracket_respected),
            "steps_monotone": bool(self.steps_monotone),
            "max_step_increase": float(self.max_step_increase),
            "status": self.status,
            "notes": list(self.notes),
        }


class ShiftedSolver:
    """Solves (K + c M) u = M rhs with one Dirichlet value on the boundary, many times.

    The shift c is a float at least 0, or a vector over the interior nodes
    (K + diag(c) M), for which the caller keeps the sum positive definite.
    The boundary lift is built once, and A = K + c h^n I once per shift
    (`set_shift`; an equal shift keeps A and its factor), as the float64
    copy that `operators.shifted_copy` stores by diagonals on box grids:
    its matvecs are bit-identical to those of CSR K + c h^n I, and cheaper.
    On grids that `operators.factor_pays` factors, A is factored
    (`factor_spd`, in the ordering of the first shift's factor: every A has
    K's pattern) and every solve is a pair of triangular solves; a shift
    that leaves A not positive definite raises NotPositiveDefiniteError
    naming the shift's range.  Other
    systems run CG preconditioned by diag(A)^{-1} (Jacobi), because the fill
    of the factors, and with it the time and memory of factoring, outgrows
    what CG saves.
    The first CG solve starts from the boundary value as a constant (the
    exact solution when c = 0 and the source is zero; K annihilates
    constants); later solves warm-start from the previous solution,
    across a change of shift too.  CG stops at the relative residual
    `cg_tol`, the module's TOL_LIN unless a caller asks for a tighter one,
    on scipy's recursive residual, so CG resumes once from its answer when
    the recursive residual met cg_tol but the true one did not.
    On either path the true residual is then checked once: a solution is
    returned only when ||A x - b|| <= tol ||b||, with tol = TOL_LIN for a
    factored A and cg_tol for CG.
    `shifts` lists the shift of each A in order, a float or the vector
    itself (one factorization each on the direct path), and
    `cg_iterations` counts the CG steps of every solve.
    """

    def __init__(self, K, shift_c, boundary_value=0.0, cg_tol=None):
        g = K.grid
        self.cg_tol = TOL_LIN if cg_tol is None else cg_tol
        self.K = K
        self.grid = g
        self.weight = g.h ** g.n
        self.bvec = np.full(g.n_boundary, float(boundary_value))
        self.x = np.full(g.n_interior, float(boundary_value))
        self.lift = K.boundary @ self.bvec
        self.shifts = []
        self.cg_iterations = 0
        self.order = None  # the ordering of every factor, taken from the first
        self.set_shift(shift_c)

    def set_shift(self, shift_c):
        """Solve with A = K + c h^n I from now on: factor it, or take its Jacobi diagonal.

        A shift equal to the current one keeps the current A and its factor.
        """
        vector = np.ndim(shift_c) > 0
        if not vector and shift_c < 0:
            raise ValueError("shift must be nonnegative")
        if self.shifts and np.array_equal(shift_c, self.shifts[-1]):
            return
        self.A = shifted_copy(self.K.mat, -shift_c * self.weight, np.float64)
        self.factor = self.jacobi = None
        if factor_pays(self.grid):
            try:
                self.factor = factor_spd(self.A, self.order)
            except NotPositiveDefiniteError as exc:
                raise NotPositiveDefiniteError(
                    f"K + cM is not positive definite at shift {_shift_text(shift_c)} ({exc})"
                ) from exc
            self.order = self.factor.order
        else:
            self.jacobi = sp.diags(1.0 / self.A.diagonal())
        self.shifts.append(shift_c if vector else float(shift_c))

    def _count_cg(self, _xk):
        self.cg_iterations += 1

    def _cg(self, b, x0):
        return spla.cg(self.A, b, x0=x0, rtol=self.cg_tol, atol=0.0,
                       maxiter=max(4 * self.grid.n_interior, 400), M=self.jacobi,
                       callback=self._count_cg)

    def solve_interior(self, rhs):
        """Interior values of the solution u of (K + cM) u = M rhs with trace `bvec`.

        `rhs` holds interior values (length n_interior).  The returned
        array is also the next CG start; callers must not modify it.
        """
        b = self.weight * rhs - self.lift
        nb = np.linalg.norm(b)
        if nb == 0.0:
            self.x = np.zeros(self.grid.n_interior)
            return self.x
        steps = self.cg_iterations
        if self.factor is not None:
            x, info, tol = self.factor.solve(b), 0, TOL_LIN
        else:
            (x, info), tol = self._cg(b, self.x), self.cg_tol
        # CG resumes once from its answer when its recursive residual met
        # tol (info 0) but the true one did not
        for resume in (self.factor is None and info == 0, False):
            rel = float(np.linalg.norm(self.A @ x - b) / nb)
            if rel <= tol or not resume:
                break
            x, info = self._cg(b, x)
        if not rel <= tol:
            path = "direct" if self.factor is not None else f"CG (info={info})"
            raise RuntimeError(
                f"{path} linear solve at shift {_shift_text(self.shifts[-1])}: relative "
                f"residual {rel:.3e} above tol {tol:.3e} after "
                f"{self.cg_iterations - steps} CG steps"
            )
        self.x = x
        return x


def _shift_text(c):
    return f"{c!r}" if np.ndim(c) == 0 else f"in [{c.min():.6g}, {c.max():.6g}]"


def linear_solve(K, shift_c, rhs, boundary_value=0.0):
    """The GridField u solving (K + c M) u = M rhs once, u = boundary_value on the boundary.

    `rhs` is a GridField (interior values used); `boundary_value` is one
    float.  The library's own solves call `ShiftedSolver.solve_interior`.
    """
    x = ShiftedSolver(K, shift_c, boundary_value).solve_interior(rhs.values[K.grid.interior_ids])
    return GridField.from_interior(K.grid, x, boundary_value)


def check_sub_super(problem, u, sign):
    """Discrete sub- (sign=+1) or supersolution (sign=-1) test at interior rows.

    Checks sign * (K u - M F(u)) <= tau_sub with
    tau_sub = SUB_SLACK_FACTOR * ||K||_inf * max(1, ||u||_inf); returns
    (ok, worst, node).
    """
    viol = sign * problem.defect(u)
    worst = int(np.argmax(viol))
    slack = SUB_SLACK_FACTOR * problem.K.inf_norm() * max(float(np.abs(u.values).max()), 1.0)
    return (bool(viol[worst] <= slack), float(viol[worst]),
            int(problem.grid.interior_ids[worst]))


def monotone_iterate(problem, lower, upper, tol=1e-8, max_iter=MAX_ITER_MONOTONE):
    """Descend from the supersolution; iterates stay in [lower, upper].

    Each step solves (K + c_k M) u_{k+1} = M (c_k u_k + F(u_k)) with the
    nodewise shift c_k = problem.shift(lower, u_k), spot-checked by
    `validate_shift` on [lower, u_k] before the step unless a check already
    made covers it: an equal shift, checked on a bracket whose top is at
    least u_k and whose bottom, lower, at most u_k, node by node.  The
    solver keeps its factor while the shift stays equal.  Its CG solves
    stop at a relative residual of TOL_LIN, or of tol / 10 when that is
    tighter, so a tight tol is not left to solves that stop short of it.
    The run stops only once the residual is at most tol and the last step
    also meets ||u_{k+1} - u_k||_inf <= tol ||u_{k+1}||_inf: for Newton's
    steps the error left is about that step squared, which the residual
    alone does not bound.  It gives up once a step is within 4 ulps of the
    bracket's scale.  Monotone descent and bracket preservation are
    asserted at every step; violations (possible without a discrete
    maximum principle) are recorded in the result notes rather than
    silently ignored.

    The iterate is kept as its interior vector.  Every iterate carries the
    boundary value, so the boundary parts of the bracket gaps are fixed and
    taken once; only the first step also compares it with upper's trace.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    g = problem.grid
    active = g.mask != 0  # non-exterior
    if np.any(lower.values[active] > upper.values[active] + 1e-14):
        raise ValueError("bracket violated: lower > upper somewhere")
    ids = g.interior_ids
    lower_i, upper_i = lower.values[ids], upper.values[ids]
    c = problem.shift(lower_i, upper_i)
    problem.validate_shift(c, lower_i, upper_i)
    checked_c, checked_top = c, upper_i  # the shift and the bracket top last checked
    notes = []
    ok_sub, v_sub, n_sub = check_sub_super(problem, lower, +1)
    if not ok_sub:
        notes.append(f"lower field fails the discrete subsolution check by {v_sub:.3e} at node {n_sub}")
    ok_sup, v_sup, n_sup = check_sub_super(problem, upper, -1)
    if not ok_sup:
        notes.append(f"upper field fails the discrete supersolution check by {v_sup:.3e} at node {n_sup}")

    solver = ShiftedSolver(problem.K, c, problem.boundary_value, cg_tol=min(TOL_LIN, tol / 10))
    bvec, lift = solver.bvec, solver.lift
    w = g.h ** g.n
    # the gaps off the interior: lower - u and u - upper on the boundary at
    # every step, and u_1 - u_0 (on the boundary, and on the exterior for
    # the step size) at step 1 only
    lo_bnd = float((lower.values[g.boundary_ids] - bvec).max(initial=-np.inf))
    hi_bnd = float((bvec - upper.values[g.boundary_ids]).max(initial=-np.inf))
    step_off = float(np.abs(GridField.from_interior(g, upper_i, bvec).values - upper.values).max())
    bvec_abs = float(np.abs(bvec).max(initial=0.0))
    ui = upper_i
    Fu = problem.reaction(ui)  # F(u): the next right-hand side and the residual's reaction
    scale = max(float(np.abs(upper.values).max()), 1.0)
    mono_slack = 1e3 * TOL_LIN * scale
    steps_monotone = True
    max_inc = 0.0
    bracket_ok = True
    for it in range(1, max_iter + 1):
        if it > 1:
            c = problem.shift(lower_i, ui)
            if not (np.array_equal(c, checked_c) and np.all(lower_i <= ui)
                    and np.all(ui <= checked_top)):
                problem.validate_shift(c, lower_i, ui)
                checked_c, checked_top = c, ui
            solver.set_shift(c)
        x = solver.solve_interior(c * ui + Fu)
        diff = x - ui
        inc = float(diff.max())
        if it == 1:
            inc = max(inc, hi_bnd)
        max_inc = max(max_inc, inc)
        if inc > mono_slack:
            steps_monotone = False
            prev = upper if it == 1 else GridField.from_interior(g, ui, bvec)
            gap = (GridField.from_interior(g, x, bvec).values - prev.values)[active]
            node = int(np.flatnonzero(active)[np.argmax(gap)])
            notes.append(f"monotone descent violated by {inc:.3e} at node {node}, step {it}")
        lo_viol = max(float((lower_i - x).max()), lo_bnd)
        hi_viol = max(float((x - upper_i).max()), hi_bnd)
        if max(lo_viol, hi_viol) > mono_slack:
            bracket_ok = False
            notes.append(
                f"bracket violated at step {it}: below-lower {lo_viol:.3e}, above-upper {hi_viol:.3e}"
            )
        step = float(np.abs(diff).max())
        if it == 1:
            step = max(step, step_off)
        ui = x
        Fu = problem.reaction(ui)
        un = np.linalg.norm(ui)
        r = float(np.linalg.norm(problem.K.mat @ ui + lift - w * Fu))
        residual = float(r / un) if un > 0 else r
        rel_step = step / max(float(np.abs(ui).max()), bvec_abs, 1e-300)
        converged = residual <= tol and rel_step <= tol
        if converged:
            break
        if step <= 4 * np.finfo(float).eps * scale:
            notes.append(f"iteration stagnated at step {it} with residual {residual:.3e}")
            break
    status = "ok" if converged else "no-convergence"
    if status != "ok":
        what = f"residual {residual:.3e}" if residual > tol else f"relative step {rel_step:.3e}"
        notes.append(f"{what} above tol {tol:.3e} after {it} iterations")
    return BracketSolveResult(
        solution=GridField.from_interior(g, ui, bvec),
        lower=lower,
        upper=upper,
        residual=residual,
        iterations=it,
        bracket_respected=bracket_ok,
        steps_monotone=steps_monotone,
        max_step_increase=max_inc,
        status=status,
        notes=notes,
        shifts=solver.shifts,
        cg_iterations=solver.cg_iterations,
    )


def logistic_problem(K, a, b, mu, p):
    """H u = mu u (a - b |u|^{p-1}), u = 0 on the boundary, with Newton's shift.

    F(u) = mu u (a - b |u|^{p-1}), with -F'(u) = mu (p b |u|^{p-1} - a),
    which grows with |u| (mu >= 0).  So the sup of -F' over a node's
    [lower, u] is mu (p b m^{p-1} - a) with m = max(|lower|, |u|): where
    0 <= lower <= u that is -F'(u) itself, F is concave there for p > 1,
    and each monotone step is Newton's.
    """
    a_int = a.values[K.grid.interior_ids]
    b_int = b.values[K.grid.interior_ids]
    pb_int = p * b_int

    def reaction(u):
        return mu * u * (a_int - b_int * np.abs(u) ** (p - 1.0))

    def shift(lower, u):
        return mu * (pb_int * np.maximum(np.abs(lower), np.abs(u)) ** (p - 1.0) - a_int)

    return SemilinearProblem(K=K, reaction=reaction, shift=shift)


def logistic_solve(K, a, b, mu, p, eig, tol=1e-8):
    """Positive solution of H u = mu u (a - b u^{p-1}), u = 0 on the boundary.

    `eig` is the principal pair (mu1, phi) of H u = mu1 a u, as returned by
    `weighted_principal(K, assemble_diagonal(a))`.  Uses the bracket
    [eps*phi, Mcap] with Mcap = max (a/b)^{1/(p-1)} and eps the largest
    dyadic value passing the discrete subsolution test.  For mu <= mu1 the
    zero solution is returned with status "subcritical".  On this bracket
    the logistic shift is -F'(u_k), so the iteration takes Newton steps
    down from Mcap, each a solve with K - M F'(u_k), and stops once the
    residual is at most tol and the last step at most tol relative to
    max |u|.  Near the bifurcation (mu barely above mu1) that takes about a
    dozen steps; a shift fixed over the bracket would contract the slow
    mode by only about 1 - (mu - mu1)/mu1 per step.
    """
    if p <= 1:
        raise ValueError("p must exceed 1")
    g = K.grid
    a_int = a.values[g.interior_ids]
    b_int = b.values[g.interior_ids]
    if a_int.min() <= 0 or b_int.min() <= 0:
        raise ValueError("a and b must be positive on the interior")
    mu1 = eig.lam
    zero = GridField.zeros(g)
    if mu <= mu1:
        return BracketSolveResult(
            solution=zero, lower=zero, upper=zero, residual=0.0, iterations=0,
            bracket_respected=True, status="subcritical",
            notes=[f"mu={mu:g} <= mu1={mu1:g}: no positive solution expected"],
        )
    Mcap = float((np.abs(a_int / b_int) ** (1.0 / (p - 1.0))).max())
    upper = GridField.constant(g, Mcap)
    problem = logistic_problem(K, a, b, mu, p)
    phi = eig.eigenfield
    phi_max = float(phi.values[g.interior_ids].max())
    if phi_max <= 0:
        raise RuntimeError("principal eigenfield is not positive; cannot build a lower solution")
    phi = phi * (1.0 / phi_max)
    notes = []
    if not eig.positive:
        notes.append("principal eigenfield is sign-mixed; lower solution may be invalid")
    for j in range(60):
        eps = 0.5 ** j
        lower = phi * eps
        if check_sub_super(problem, lower, +1)[0] and float(lower.values.max()) < Mcap:
            break
    else:
        return BracketSolveResult(
            solution=zero, lower=zero, upper=upper, residual=float("nan"), iterations=0,
            bracket_respected=False, status="no-subsolution",
            notes=notes + ["no dyadic eps made eps*phi a discrete subsolution"],
        )
    result = monotone_iterate(problem, lower, upper, tol=tol)
    result.notes = notes + [f"mu1={mu1!r}", f"Mcap={Mcap!r}", f"eps={eps!r}"] + result.notes
    return result


def barriers(K, f, C, eps):
    """The Poisson barriers (V, W, worst) with far-field boundary value eps.

    The lower barrier V solves K V = -C M f and must meet 0 < V <= eps;
    the upper W solves K W = C M f and must meet eps <= W < 1.  Only V is
    solved for: K annihilates constants (every row of each B_j is a
    difference v - v, boundary columns included), so V + W solves the
    source-free problem with trace 2 eps, whose solution is the constant
    2 eps, and W = 2 eps - V.  So W's bounds follow from V's (eps < 1/2),
    and only V's are measured: `worst` = max(V - eps, -V) over the
    interior, at least 0 when V misses them, which means C is too large
    for this box and f.  That is reported, not raised.
    """
    if C <= 0:
        raise ValueError("C must be positive")
    if not (1.0 / 3.0 < eps < 0.5):
        raise ValueError("eps must lie in (1/3, 1/2)")
    g = K.grid
    fv = f.values[g.interior_ids]
    if fv.min() < 0:
        raise ValueError("f must be nonnegative")
    vi = ShiftedSolver(K, 0.0, eps).solve_interior(-C * fv)
    worst = max(float((vi - eps).max()), float((-vi).max()))
    return GridField.from_interior(g, vi, eps), GridField.from_interior(g, 2.0 * eps - vi, eps), worst


def yamabe_problem(K, kfield, Kfield, p, eps, upper):
    """H u + k u - Kcap |u|^{p-1} u = 0, u = eps on the boundary, with one shift below `upper`.

    F(u) = Kcap |u|^{p-1} u - k u, so H u = F is the equation.  -dF/du =
    k - p Kcap |u|^{p-1} is at most |k| + p |Kcap| |u|^{p-1}, so the shift
    on a node's [lower, u] is |k| + p |Kcap| max(|lower|, |upper|)^{p-1},
    with `upper` (a GridField) the bracket's top: every iterate lies below
    it, so the shift does not depend on u, and one shift serves the run.
    """
    k_int = kfield.values[K.grid.interior_ids]
    K_int = Kfield.values[K.grid.interior_ids]
    k_abs, pK_abs = np.abs(k_int), p * np.abs(K_int)
    upper_abs = np.abs(upper.values[K.grid.interior_ids])

    def reaction(u):
        return K_int * np.sign(u) * np.abs(u) ** p - k_int * u

    def shift(lower, u):
        return pK_abs * np.maximum(np.abs(lower), upper_abs) ** (p - 1.0) + k_abs

    return SemilinearProblem(K=K, reaction=reaction, shift=shift, boundary_value=eps)


def yamabe_coefficients(f, theta, k_pattern="cos(x0 + x1)", K_pattern="sin(x0 - x1 + 0.3)"):
    """(k, Kcap) = theta f times the smooth sign patterns, so |k|, |Kcap| <= theta f."""
    g = f.grid
    return tuple(GridField(g, theta * f.values * compile_expression(pattern, g.n)(g.points))
                 for pattern in (k_pattern, K_pattern))


def yamabe_solve(K, kfield, Kfield, p, f, theta, eps, tol=1e-8):
    """Positive solution of H u + k u - Kcap |u|^{p-1} u = 0 on a truncated box.

    Requires |k| <= theta f and |Kcap| <= theta f nodewise.  Barriers come
    from the Poisson problems with C = 2 theta (the proof's choice
    theta = theta1/3, C = 2 theta1/3); the solution is trapped between them
    and carries boundary trace eps.  When the lower barrier V misses
    0 < V <= eps (and with it W = 2 eps - V misses eps <= W < 1) the status
    is "bracket-construction-failed".
    """
    if p <= 1:
        raise ValueError("p must exceed 1")
    g = K.grid
    fv = np.abs(f.values)
    tol_dom = 1e-12 * max(1.0, float(fv.max())) * max(theta, 1.0)
    if np.any(np.abs(kfield.values) > theta * fv + tol_dom):
        raise ValueError("|k| <= theta f violated")
    if np.any(np.abs(Kfield.values) > theta * fv + tol_dom):
        raise ValueError("|Kcap| <= theta f violated")
    zero = GridField.zeros(g)
    if theta == 0.0:
        C = 1e-300  # degenerate barrier pair: both solve the homogeneous problem
    else:
        C = 2.0 * theta
    V, W, worst = barriers(K, f, C, eps)
    vi = V.values[g.interior_ids]
    if not (np.all(vi > 0.0) and np.all(vi <= eps + 1e-10 * max(1.0, eps))):
        return BracketSolveResult(
            solution=zero, lower=V, upper=W, residual=float("nan"), iterations=0,
            bracket_respected=False, status="bracket-construction-failed",
            notes=[f"barrier bounds 0 < V <= eps, eps <= W < 1 violated by {worst:.3e}: "
                   "C too large for this box/f"],
        )
    return monotone_iterate(yamabe_problem(K, kfield, Kfield, p, eps, W), V, W, tol=tol)


@dataclass(eq=False)
class ExhaustionResult:
    fields: list          # normalized solutions, one per box
    statuses: list        # "ok" | "not-definite" | "resonance" | "not-positive" | ...
    successive_diffs: list
    notes: list = field(default_factory=list)

    @property
    def all_positive(self):
        return all(s == "ok" for s in self.statuses)


@dataclass(eq=False)
class ExhaustionBox:
    """The lam-independent part of one box D_k: its grid, K, weight and datum k."""

    grid: object
    origin_id: int
    K: object               # stiffness SparseOperator
    G: np.ndarray           # diagonal weight h^n g on the interior nodes
    bvec: np.ndarray        # boundary datum, k on every boundary node
    rhs: np.ndarray         # -K_boundary @ bvec


def exhaustion_boxes(family, g_fn, box_list, h):
    """Grid, stiffness and weight of every box, built once for any number of lam."""
    for i, box in enumerate(box_list[:-1]):
        nxt = box_list[i + 1]
        for (lo, hi), (lo2, hi2) in zip(box, nxt):
            if lo2 > lo or hi2 < hi:
                raise ValueError("box_list must be increasing (each box contained in the next)")
    boxes = []
    for k, box in enumerate(box_list, start=1):
        grid = build_grid(box, h)
        origin_id = grid.nearest_node(np.zeros(grid.n))
        if np.linalg.norm(grid.points[origin_id]) > 1e-9 * h:
            raise ValueError("0 must be a grid node of every box")
        K = assemble_stiffness(family, grid)
        G = assemble_diagonal(GridField.from_function(grid, g_fn))
        bvec = np.full(grid.n_boundary, float(k))
        rhs = -K.boundary @ bvec
        boxes.append(ExhaustionBox(grid, origin_id, K, G, bvec, rhs))
    return boxes


def exhaustion_construct(boxes, lam, tol=1e-10):
    """Solve H u = lam g u on growing boxes D_k with boundary datum k.

    `boxes` comes from exhaustion_boxes; only these solves depend on lam.
    Each solution is checked for interior positivity, normalized to
    u(0) = 1, and compared with its predecessor on the smallest box; the
    successive max differences are the convergence diagnostic.

    K - lam G is factored by `factor_spd`.  It is symmetric positive
    definite exactly when lam lies below the principal eigenvalue of D_k,
    which holds for every lam that `verify_thm_1_3` samples with its
    default mu (the principal eigenvalue for a weight g_plus >= g on a
    larger box).  A factor that finds K - lam G not positive definite fails
    the box as "not-definite": lam is not below D_k's principal eigenvalue.
    Otherwise the checks decide: a solution beyond 1e8 k is reported as
    resonance (lam numerically a Dirichlet eigenvalue of D_k), and a solve
    whose relative residual exceeds `tol` as "inaccurate".
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    fields_out = []
    statuses = []
    notes = []
    for k, box in enumerate(boxes, start=1):
        grid, origin_id, rhs, bvec = box.grid, box.origin_id, box.rhs, box.bvec
        A = shifted_copy(box.K.mat, lam * box.G, np.float64)
        try:
            x = factor_spd(A).solve(rhs)
        except NotPositiveDefiniteError:
            notes.append(f"box {k}: lam={lam:g} is not below the principal eigenvalue of D_{k} "
                         "(K - lam G is not positive definite)")
            fields_out.append(None)
            statuses.append("not-definite")
            continue
        if not np.all(np.isfinite(x)) or np.abs(x).max() > 1e8 * max(k, 1):
            notes.append(f"box {k}: lam={lam:g} is a Dirichlet eigenvalue of D_{k} (singular system)")
            fields_out.append(None)
            statuses.append("resonance")
            continue
        nb = float(np.linalg.norm(rhs))
        rel = float(np.linalg.norm(A @ x - rhs)) / nb if nb > 0 else 0.0
        if not rel <= tol:
            notes.append(f"box {k}: direct solve residual {rel:.3e} above tol {tol:.3e}")
            fields_out.append(None)
            statuses.append("inaccurate")
            continue
        u = GridField.from_interior(grid, x, bvec)
        status = "ok"
        if np.any(u.values[grid.interior_ids] <= 0.0):
            status = "not-positive"
            notes.append(
                f"box {k}: interior positivity failed (min {u.values[grid.interior_ids].min():.3e}); "
                "no discrete maximum principle is guaranteed"
            )
        u0 = float(u.values[origin_id])
        if u0 <= 0:
            status = "not-positive"
            notes.append(f"box {k}: u(0) = {u0:.3e} <= 0, normalization impossible")
            fields_out.append(None)
            statuses.append(status)
            continue
        fields_out.append(u * (1.0 / u0))
        statuses.append(status)
    base = boxes[0].grid
    base_pts = base.points[base.interior_ids]
    on_base = [None if u is None else u.values[u.grid.nearest_node(base_pts)] for u in fields_out]
    diffs = [float(np.abs(b - a).max()) for a, b in zip(on_base, on_base[1:])
             if a is not None and b is not None]
    return ExhaustionResult(fields=fields_out, statuses=statuses, successive_diffs=diffs, notes=notes)
