"""Desk-scale verification suites for the comparison and existence theorems.

Each suite turns one statement into a family of concrete grid computations
with a pass/fail margin per case.  Margins are measured against the
discretization allowance tau_margin = 10 h where a continuum-strict
inequality can degrade with the scheme's consistency error.  Reports are
deterministic given (config, seed): every case carries a digest of its
configuration, and rerunning a digest reproduces its margin.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from . import semilinear as sm
from .eigen import principal_eigenpair, weighted_principal
from .expressions import compile_expression
from .mesh import GridField, build_grid, mask_domain
from .operators import assemble_diagonal, assemble_stiffness, mass_matrix

MARGIN_H_FACTOR = 10.0
SUBBOX_MIN_FRAC = 0.35  # smallest side of a random subbox, as a fraction of the box side


def _digest(config):
    blob = json.dumps(config, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


@dataclass(eq=False)
class CaseResult:
    config: dict
    margin: float
    note: str = ""

    @property
    def digest(self):
        return _digest(self.config)

    @property
    def passed(self):
        return self.margin > 0.0

    def to_json_dict(self):
        return {
            "digest": self.digest,
            "config": self.config,
            "margin": float(self.margin),
            "passed": bool(self.passed),
            "note": self.note,
        }


@dataclass(eq=False)
class VerificationReport:
    theorem: str
    cases: list
    notes: list = field(default_factory=list)

    @property
    def passed_count(self):
        return sum(1 for c in self.cases if c.passed)

    @property
    def total(self):
        return len(self.cases)

    @property
    def passed(self):
        """Every case passed, and there was at least one case."""
        return self.total > 0 and self.passed_count == self.total

    def to_json_dict(self):
        return {
            "theorem": self.theorem,
            "summary": f"{self.passed_count}/{self.total}",
            "passed": bool(self.passed),
            "cases": [c.to_json_dict() for c in self.cases],
            "notes": list(self.notes),
        }


def _random_subbox(rng, box):
    lo = []
    hi = []
    for a, b in box:
        span = b - a
        size = rng.uniform(SUBBOX_MIN_FRAC, 0.9) * span
        start = a + rng.uniform(0.0, span - size)
        lo.append(start)
        hi.append(start + size)
    return list(zip(lo, hi))


def verify_thm_1_2(family, grid, u_expr, n_subdomains=20, seed=0, tol=1e-8):
    """Positivity of the principal eigenvalue under an admissible potential.

    The potential is manufactured from a positive smooth u as the discrete
    quotient V = (K u)/(M u), so H u - V u = 0 holds exactly on the grid
    (the boundary case of the hypothesis).  Every random subdomain must
    then have lambda_1(D) > -tau_margin; a strict-inequality variant with
    V lowered by the constant bump 0.5 is checked per case as well: its
    lambda_1 must be lambda_1(D) + 0.5 to within 1e-6 * max(1, |lambda_1(D)|).
    """
    u = GridField.from_function(grid, compile_expression(u_expr, grid.n))
    if np.any(u.values[grid.mask != 0] <= 0.0):
        raise ValueError("u_expr must be positive on the box")
    K = assemble_stiffness(family, grid)
    w = grid.h ** grid.n
    V = GridField.from_interior(grid, K.apply(u) / (w * u.values[grid.interior_ids]))
    tau = MARGIN_H_FACTOR * grid.h
    rng = np.random.default_rng(seed)
    box = [(float(grid.origin[k]), float(grid.origin[k] + (grid.dims[k] - 1) * grid.h))
           for k in range(grid.n)]
    cases = []
    made = 0
    attempts = 0
    while made < n_subdomains and attempts < 20 * n_subdomains:
        attempts += 1
        sub = _random_subbox(rng, box)
        lo = np.array([a for a, _ in sub])
        hi = np.array([b for _, b in sub])
        try:
            g_sub = mask_domain(grid, lambda pts: np.all((pts >= lo) & (pts <= hi), axis=1))
        except ValueError as exc:
            if "empty interior" not in str(exc):
                raise
            continue
        if g_sub.n_interior < 4:
            continue
        K_sub = assemble_stiffness(family, g_sub)
        M_sub = mass_matrix(g_sub)
        V_sub = assemble_diagonal(GridField(g_sub, V.values))
        lam = principal_eigenpair(K_sub, V_sub, M_sub, tol=tol).lam
        bump = 0.5
        V_bump = assemble_diagonal(GridField(g_sub, V.values - bump))
        lam_strict = principal_eigenpair(K_sub, V_bump, M_sub, tol=tol).lam
        cfg = {
            "suite": "thm_1_2",
            "family": family.name,
            "subbox": [[float(a), float(b)] for a, b in sub],
            "h": grid.h,
            "seed": seed,
            "case": made,
        }
        margin = lam + tau
        # V - bump shifts the whole spectrum up by exactly bump
        if abs(lam_strict - (lam + bump)) > 1e-6 * max(1.0, abs(lam)):
            margin = min(margin, -1.0)
        cases.append(CaseResult(cfg, margin, f"lambda1={lam!r}, bumped={lam_strict!r}"))
        made += 1
    notes = [f"tau_margin={tau!r}", f"potential from u_expr={u_expr}"]
    if made < n_subdomains:
        notes.append(f"made {made} of {n_subdomains} subdomains in {attempts} attempts")
    return VerificationReport(theorem="Thm 1.2 (eigenvalue positivity)", cases=cases, notes=notes)


def verify_thm_1_3(family, g_expr, g_plus_expr, lam_fractions, box_list, h,
                   mu=None, tol=1e-10):
    """Every lambda in (0, mu] is principal: exhaustion surrogate on boxes.

    mu defaults to the principal eigenvalue for g_plus on a box enlarged by
    1.25x beyond the largest exhaustion box, keeping every sampled lambda
    strictly below the principal eigenvalue of each D_k (exact resonance
    would otherwise occur at lambda = mu on the largest box).  `tol` bounds
    the relative residual of each box's direct solve; a box over it fails
    its case.
    """
    if not box_list:
        raise ValueError("boxes must list at least one box")
    n = len(box_list[0])
    g_fn = compile_expression(g_expr, n)
    gp_fn = compile_expression(g_plus_expr, n)
    boxes = sm.exhaustion_boxes(family, g_fn, box_list, h)
    big = boxes[-1].grid
    gv = g_fn(big.points)
    gpv = gp_fn(big.points)
    if np.any(gv > gpv + 1e-12):
        raise ValueError("hypothesis g <= g_plus violated on the largest box")
    notes = []
    if mu is None:
        ref_box = [(1.25 * a, 1.25 * b) for a, b in box_list[-1]]
        ref = build_grid(ref_box, h)
        K_ref = assemble_stiffness(family, ref)
        G_ref = assemble_diagonal(GridField.from_function(ref, gp_fn))
        mu = weighted_principal(K_ref, G_ref, tol=1e-9).lam
        notes.append(f"mu={mu!r} computed for g_plus on the 1.25x reference box")
    cases = []
    for frac in lam_fractions:
        if not 0.0 < frac <= 1.0:
            raise ValueError("lambda fractions must lie in (0, 1]")
        lam = frac * mu
        cfg = {
            "suite": "thm_1_3",
            "family": family.name,
            "lam": lam,
            "boxes": [[list(map(float, side)) for side in b] for b in box_list],
            "h": h,
        }
        ex = sm.exhaustion_construct(boxes, lam, tol=tol)
        if not ex.all_positive:
            cases.append(CaseResult(cfg, -1.0, "; ".join(ex.notes) or "positivity failed"))
            continue
        pos_margin = min(
            float(u.values[u.grid.interior_ids].min()) for u in ex.fields if u is not None
        )
        if len(ex.successive_diffs) >= 2:
            diff_margin = min(
                a - b for a, b in zip(ex.successive_diffs, ex.successive_diffs[1:])
            )
        else:
            diff_margin = float("inf")
        margin = min(pos_margin, diff_margin)
        cases.append(CaseResult(cfg, margin, f"diffs={ex.successive_diffs!r}"))
    return VerificationReport(theorem="Thm 1.3 (principal eigenvalue interval)", cases=cases, notes=notes)


def verify_prop_4_2(family, grid, a_expr, b_expr, p, mu_factors, tol=1e-8):
    """Logistic problem: subcritical factors give zero, supercritical a
    unique positive solution (probed by two-bracket agreement)."""
    a = GridField.from_function(grid, compile_expression(a_expr, grid.n))
    b = GridField.from_function(grid, compile_expression(b_expr, grid.n))
    K = assemble_stiffness(family, grid)
    eig = weighted_principal(K, assemble_diagonal(a), tol=min(tol, 1e-9))
    mu1 = eig.lam
    cases = []
    for cfac in mu_factors:
        mu = cfac * mu1
        cfg = {
            "suite": "prop_4_2",
            "family": family.name,
            "h": grid.h,
            "p": p,
            "mu_factor": cfac,
        }
        res = sm.logistic_solve(K, a, b, mu, p, eig, tol=tol)
        if cfac <= 1.0:
            ok = res.status == "subcritical" and float(np.abs(res.solution.values).max()) == 0.0
            cases.append(CaseResult(cfg, 1.0 if ok else -1.0, f"status={res.status}"))
            continue
        ui = res.solution.values[grid.interior_ids]
        pos_margin = float(ui.min())
        res_margin = tol - res.residual
        # uniqueness probe: rerun from a doubled upper bracket
        Mcap2 = 2.0 * float(res.upper.values.max())
        res2 = sm.monotone_iterate(sm.logistic_problem(K, a, b, mu, p), res.lower,
                                   GridField.constant(grid, Mcap2), tol=tol)
        rel = float(
            np.abs(res2.solution.values - res.solution.values).max()
            / max(np.abs(res.solution.values).max(), 1e-300)
        )
        margin = min(pos_margin, res_margin, 1e-6 - rel)
        note = f"max_u={float(ui.max())!r}, two_bracket_rel={rel!r}"
        if res.status != "ok" or res2.status != "ok":
            note += f", status={res.status}/{res2.status}"
            margin = min(margin, -1.0)
        cases.append(CaseResult(cfg, margin, note))
    return VerificationReport(
        theorem="Prop 4.2 (logistic existence/uniqueness)",
        cases=cases,
        notes=[f"mu1={mu1!r}"],
    )


def verify_thm_1_4(family, box, h, f_expr, theta_list, eps_list, p, tol=1e-8,
                   stability_box=None):
    """Yamabe-type family of positive solutions on a truncated box.

    For each (theta, eps): builds |k|, |Kcap| <= theta f with fixed smooth
    sign patterns, solves, and checks the bracket, positivity, residual, and
    boundary-trace contracts.  With `stability_box` set, also reruns the
    first passing case on the larger box and reports the max-norm change on
    the inner half-box as a truncation diagnostic; a rerun that does not
    end with status "ok" adds a failing case instead, and with no passing
    case a note says the rerun was skipped.
    """
    n = len(box)
    f_fn = compile_expression(f_expr, n)

    def setup(b):  # grid, K and f on the box b
        g = build_grid(b, h)
        return g, assemble_stiffness(family, g), GridField.from_function(g, f_fn)

    grid, K, f = setup(box)
    cases = []
    first_solution = None
    for theta in theta_list:
        kf, Kf = sm.yamabe_coefficients(f, theta)
        for eps in eps_list:
            cfg = {
                "suite": "thm_1_4",
                "family": family.name,
                "box": [list(map(float, side)) for side in box],
                "h": h,
                "theta": theta,
                "eps": eps,
                "p": p,
            }
            res = sm.yamabe_solve(K, kf, Kf, p, f, theta, eps, tol=tol)
            if res.status == "bracket-construction-failed":
                note = "theta too large for box: " + "; ".join(res.notes)
                cases.append(CaseResult(cfg, -1.0, note))
                continue
            gi = grid.interior_ids
            u = res.solution
            bracket_margin = min(
                float((u.values - res.lower.values)[gi].min()),
                float((res.upper.values - u.values)[gi].min()),
            )
            pos_margin = float(u.values[gi].min())
            trace_err = float(np.abs(u.values[grid.boundary_ids] - eps).max())
            res_margin = tol - res.residual
            margin = min(bracket_margin + 1e-12, pos_margin, res_margin,
                         1e-12 - trace_err)
            if res.status != "ok":
                margin = min(margin, -1.0)
            cases.append(CaseResult(cfg, margin,
                                    f"residual={float(res.residual)!r}, trace_err={trace_err!r}"))
            if first_solution is None and margin > 0.0:
                first_solution = (cfg, u)
    notes = []
    if stability_box is not None and first_solution is None:
        notes.append("stability rerun on stability_box skipped: no case passed")
    elif stability_box is not None:
        cfg, u_small = first_solution
        theta, eps = cfg["theta"], cfg["eps"]
        big, Kb, fb = setup(stability_box)
        res_b = sm.yamabe_solve(Kb, *sm.yamabe_coefficients(fb, theta), p, fb, theta, eps, tol=tol)
        if res_b.status != "ok":
            notes.append(f"stability rerun on stability_box ended with status {res_b.status!r}")
            cfg = {**cfg, "box": [list(map(float, side)) for side in stability_box]}
            cases.append(CaseResult(cfg, -1.0, "; ".join([f"status={res_b.status}"] + res_b.notes)))
        else:
            half = 0.5 * np.array(box, dtype=float)
            pts = grid.points
            sel = np.all((pts >= half[:, 0] - 1e-12) & (pts <= half[:, 1] + 1e-12), axis=1)
            ids_small = np.flatnonzero(sel & (grid.mask == 2))
            vals_small = u_small.values[ids_small]
            vals_big = res_b.solution.values[big.nearest_node(pts[ids_small])]
            change = float(np.abs(vals_big - vals_small).max()
                           / max(np.abs(vals_small).max(), 1e-300))
            notes.append(f"truncation change on inner half-box: {change!r}")
    return VerificationReport(theorem="Thm 1.4 (Yamabe-type family)", cases=cases, notes=notes)
