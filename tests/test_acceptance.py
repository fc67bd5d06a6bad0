"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a PASS line with its observed margin so a plain
`pytest -s tests/test_acceptance.py` doubles as the acceptance report.
"""

import json
import time

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import sublap as sl
from sublap import ccmetric as cc
from sublap import semilinear as sm
from sublap.cli import main as cli_main
from sublap.operators import SparseOperator
from sublap.verify import verify_thm_1_2, verify_thm_1_4


def report(name, detail):
    print(f"\nACCEPTANCE {name}: PASS ({detail})")


# ---------------------------------------------------------------------------
# 1. Euclidean ground truth


def test_criterion_01_euclidean_ground_truth():
    t0 = time.perf_counter()
    g = sl.build_grid([(0, 1), (0, 1)], 1.0 / 64)
    K = sl.assemble_stiffness(sl.euclidean(2), g)
    M = sl.mass_matrix(g)
    res = sl.principal_eigenpair(K, None, M, tol=1e-8)
    elapsed = time.perf_counter() - t0
    target = 2 * np.pi**2
    rel = abs(res.lam - target) / target
    assert rel < 0.01
    assert elapsed < 10.0
    report("1 (euclidean ground truth)",
           f"lambda={res.lam:.6f}, rel err {rel:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. Potential-shift identity


def test_criterion_02_potential_shift_identity():
    g = sl.build_grid([(0, 1), (0, 1)], 1.0 / 32)
    K = sl.assemble_stiffness(sl.euclidean(2), g)
    M = sl.mass_matrix(g)
    lam0 = sl.principal_eigenpair(K, None, M, tol=1e-11).lam
    worst = 0.0
    for c in (-3.0, 0.0, 5.0):
        Vd = sl.assemble_diagonal(sl.GridField.constant(g, c))
        lam = sl.principal_eigenpair(K, Vd, M, tol=1e-11).lam
        worst = max(worst, abs(lam - (lam0 - c)))
    assert worst <= 1e-10
    report("2 (potential shift)", f"worst |lam(V=c) - (lam0 - c)| = {worst:.2e}")


# ---------------------------------------------------------------------------
# 3. epsilon path on the Heisenberg box


def dense_smallest(K, M):
    S = np.diag(1.0 / np.sqrt(M))
    A = S @ K.mat.toarray() @ S
    return float(scipy.linalg.eigvalsh((A + A.T) / 2)[0])


def test_criterion_03_epsilon_path():
    heis = sl.heisenberg()
    eps_list = [0.5, 0.25, 0.1, 0.01]
    g = sl.build_grid([(-1, 1)] * 3, 1.0 / 16)
    path = sl.epsilon_path(heis, g, None, eps_list + [0.0], tol=1e-9)
    lams = [lam for _, lam in path]
    assert all(a > b for a, b in zip(lams, lams[1:]))
    K = sl.assemble_stiffness(heis, g)
    M = sl.mass_matrix(g)
    direct = sl.principal_eigenpair(K, None, M, tol=1e-9).lam
    assert abs(lams[-1] - direct) <= 1e-8
    # dense generalized eigensolve cross-check on a 9^3 grid
    g9 = sl.build_grid([(-1, 1)] * 3, 0.25)
    assert g9.dims == (9, 9, 9)
    path9 = sl.epsilon_path(heis, g9, None, eps_list + [0.0], tol=1e-10)
    K9 = sl.assemble_stiffness(heis, g9)
    K9e = sl.assemble_stiffness(sl.euclidean(3), g9)
    M9 = sl.mass_matrix(g9)
    worst = 0.0
    for eps, lam in path9:
        mat = (K9.mat + eps * K9e.mat).tocsr()
        Keps = SparseOperator(grid=g9, mat=((mat + mat.T) * 0.5).tocsr(), symmetric=True)
        worst = max(worst, abs(lam - dense_smallest(Keps, M9)))
    assert worst <= 1e-8
    report("3 (epsilon path)",
           f"lams={[round(v, 5) for v in lams]}, eps=0 gap {abs(lams[-1] - direct):.1e}, "
           f"dense gap {worst:.1e}")


# ---------------------------------------------------------------------------
# 4. Thm 1.2 suite


def test_criterion_04_thm_1_2_suite():
    t0 = time.perf_counter()
    g2 = sl.build_grid([(0, 1), (0, 1)], 1.0 / 32)
    rep_e = verify_thm_1_2(sl.euclidean(2), g2, "exp(x + y)", n_subdomains=20, seed=11)
    g3 = sl.build_grid([(-1, 1)] * 3, 1.0 / 8)
    rep_h = verify_thm_1_2(sl.heisenberg(), g3, "exp(0.2*(x + y + t))",
                           n_subdomains=20, seed=12)
    elapsed = time.perf_counter() - t0
    assert rep_e.passed and rep_e.total == 20
    assert rep_h.passed and rep_h.total == 20
    # determinism under the seed
    rep_e2 = verify_thm_1_2(sl.euclidean(2), g2, "exp(x + y)", n_subdomains=20, seed=11)
    assert json.dumps(rep_e.to_json_dict(), sort_keys=True) == \
        json.dumps(rep_e2.to_json_dict(), sort_keys=True)
    assert elapsed < 60.0
    min_margin = min(c.margin for c in rep_e.cases + rep_h.cases)
    report("4 (Thm 1.2 suite)",
           f"euclid 20/20, heisenberg 20/20, min margin {min_margin:.3f}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 5. Lemma 4.1 / Prop 4.2


def damped_newton_logistic(K, a, b, mu, p, u0, tol=1e-12, max_iter=100):
    g = K.grid
    w = g.h ** g.n
    av = a.values[g.interior_ids]
    bv = b.values[g.interior_ids]
    u = u0.values[g.interior_ids].copy()

    def res_of(u):
        return K.mat @ u - w * (mu * u * (av - bv * np.abs(u) ** (p - 1.0)))

    r = res_of(u)
    for _ in range(max_iter):
        if np.linalg.norm(r) <= tol * max(np.linalg.norm(u), 1.0):
            break
        J = K.mat - sp.diags(w * mu * (av - p * bv * np.abs(u) ** (p - 1.0)))
        step = spla.spsolve(J.tocsc(), r)
        alpha = 1.0
        for _ in range(30):
            cand = u - alpha * step
            rc = res_of(cand)
            if np.linalg.norm(rc) < np.linalg.norm(r):
                u, r = cand, rc
                break
            alpha *= 0.5
        else:
            break
    vals = np.zeros(g.num_nodes)
    vals[g.interior_ids] = u
    return sl.GridField(g, vals)


def test_criterion_05_logistic():
    g = sl.build_grid([(0, 1), (0, 1)], 1.0 / 32)
    K = sl.assemble_stiffness(sl.euclidean(2), g)
    a = sl.GridField.constant(g, 1.0)
    b = sl.GridField.constant(g, 1.0)
    eig = sl.weighted_principal(K, sl.assemble_diagonal(a), tol=1e-10)
    mu1 = eig.lam
    res = sm.logistic_solve(K, a, b, 2 * mu1, 2.0, eig, tol=1e-10)
    assert res.status == "ok"
    ui = res.solution.values[g.interior_ids]
    assert ui.min() > 0.0
    assert np.all(res.solution.values <= 1.0 + 1e-12)
    # two-bracket agreement
    problem = sm.logistic_problem(K, a, b, 2 * mu1, 2.0)
    res2 = sm.monotone_iterate(problem, res.lower, sl.GridField.constant(g, 2.0), tol=1e-10)
    rel_brackets = np.abs(res2.solution.values - res.solution.values).max() / ui.max()
    assert rel_brackets <= 1e-6
    # damped-Newton cross-solver
    newton = damped_newton_logistic(K, a, b, 2 * mu1, 2.0, res.solution)
    rel_newton = np.abs(newton.values - res.solution.values).max() / ui.max()
    assert rel_newton <= 1e-6
    # subcritical
    res0 = sm.logistic_solve(K, a, b, 0.5 * mu1, 2.0, eig)
    assert res0.status == "subcritical"
    assert np.all(res0.solution.values == 0.0)
    report("5 (logistic)",
           f"max u={ui.max():.4f} in (0,1], brackets agree {rel_brackets:.1e}, "
           f"newton agrees {rel_newton:.1e}, subcritical zero")


# ---------------------------------------------------------------------------
# 6. Prop 5.1 monotone mechanics


def test_criterion_06_monotone_mechanics():
    g = sl.build_grid([(0, 1), (0, 1)], 1.0 / 32)
    K = sl.assemble_stiffness(sl.euclidean(2), g)
    a = sl.GridField.constant(g, 1.0)
    b = sl.GridField.constant(g, 1.0)
    eig = sl.weighted_principal(K, sl.assemble_diagonal(a), tol=1e-10)
    res_l = sm.logistic_solve(K, a, b, 2 * eig.lam, 2.0, eig, tol=1e-8)
    assert res_l.steps_monotone
    assert res_l.residual <= 1e-8
    g3 = sl.build_grid([(-4, 4)] * 3, 0.5)
    heis = sl.heisenberg()
    K3 = sl.assemble_stiffness(heis, g3)
    f = sl.GridField.from_function(g3, lambda pts: np.exp(-np.sum(pts**2, axis=1)))
    theta = 0.02
    kf = sl.GridField(g3, theta * f.values * np.cos(g3.points[:, 0] + g3.points[:, 1]))
    Kf = sl.GridField(g3, theta * f.values * np.sin(g3.points[:, 0] - g3.points[:, 1] + 0.3))
    res_y = sm.yamabe_solve(K3, kf, Kf, 3.0, f, theta, 0.4, tol=1e-8)
    assert res_y.status == "ok"
    assert res_y.steps_monotone
    assert res_y.residual <= 1e-8
    report("6 (monotone mechanics)",
           f"logistic max step increase {res_l.max_step_increase:.1e}, "
           f"yamabe max step increase {res_y.max_step_increase:.1e}, residuals <= 1e-8")


# ---------------------------------------------------------------------------
# 7. Thm 1.4 suite


def test_criterion_07_thm_1_4_suite():
    rep = verify_thm_1_4(
        sl.heisenberg(), [(-4, 4)] * 3, 0.5, "exp(-(x**2 + y**2 + t**2))",
        [0.02], [0.35, 0.45], 3.0, tol=1e-8, stability_box=[(-8, 8)] * 3,
    )
    assert rep.passed and rep.total == 2
    note = next(n for n in rep.notes if "truncation" in n)
    change = float(note.split(":")[1])
    assert change < 0.05
    report("7 (Thm 1.4 suite)",
           f"2/2 cases (brackets, positivity, residual, exact trace), "
           f"truncation change {change:.2e} < 5%")


# ---------------------------------------------------------------------------
# 8. CC metric


def test_criterion_08_cc_metric():
    fam = sl.euclidean(2)
    g = sl.build_grid([(-0.5, 4.5), (-0.5, 4.5)], 0.05)
    d_graph, seed = cc.cc_distance_graph(fam, g, (0, 0), (3, 4), directions=32)
    refined = cc.cc_distance_refine(fam, seed, segments=24, tol=1e-3)
    rel_e = abs(refined.T - 5.0) / 5.0
    assert rel_e < 0.03

    heis = sl.heisenberg()
    g3 = sl.build_grid([(-0.3, 1.3), (-0.3, 1.3), (-0.3, 0.3)], 0.05)
    d_h, seed_h = cc.cc_distance_graph(heis, g3, (0, 0, 0), (1, 1, 0), directions=32)
    ref_h = cc.cc_distance_refine(heis, seed_h, segments=24, tol=1e-3)
    d_planar = min(d_h, ref_h.T)
    rel_h = abs(d_planar - np.sqrt(2)) / np.sqrt(2)
    assert rel_h < 0.05

    taus = [0.01, 0.04, 0.16]
    ds = []
    for tau in taus:
        h = tau / 4
        L = max(3.2 * np.sqrt(tau / np.pi), 8 * h)
        gv = sl.build_grid([(-L, L), (-L, L), (-1.3 * tau, 1.3 * tau)], h)
        d_v, seed_v = cc.cc_distance_graph(heis, gv, (0, 0, 0), (0, 0, tau), directions=16)
        ref_v = cc.cc_distance_refine(heis, seed_v, segments=20, tol=1e-3)
        ds.append(min(d_v, ref_v.T))
    slope = np.polyfit(np.log(taus), np.log(ds), 1)[0]
    assert 0.4 <= slope <= 0.6
    report("8 (CC metric)",
           f"euclid rel err {rel_e:.3%}, heis planar rel err {rel_h:.3%}, "
           f"vertical slope {slope:.3f}")


# ---------------------------------------------------------------------------
# 9. measure / inequality probes


def test_criterion_09_probes():
    # euclidean doubling within 10% of 2^n
    g2 = sl.build_grid([(-0.9, 0.9), (-0.9, 0.9)], 0.008)
    ratios2, _ = cc.doubling_estimate(sl.euclidean(2), (0, 0), [0.2, 0.3, 0.4], g2,
                                      directions=16)
    worst2 = max(abs(r - 4.0) / 4.0 for _, r in ratios2)
    assert worst2 < 0.10
    g3 = sl.build_grid([(-0.45, 0.45)] * 3, 0.02)
    ratios3, _ = cc.doubling_estimate(sl.euclidean(3), (0, 0, 0), [0.1, 0.15], g3,
                                      directions=32)
    worst3 = max(abs(r - 8.0) / 8.0 for _, r in ratios3)
    assert worst3 < 0.10

    # heisenberg volume-growth slope (homogeneous dimension 4)
    heis = sl.heisenberg()
    vols = []
    radii = [0.4, 0.6, 0.9]
    for R in radii:
        h = R * R / 24
        tmax = R * R / 16
        box = [(-1.1 * R, 1.1 * R), (-1.1 * R, 1.1 * R), (-1.4 * tmax, 1.4 * tmax)]
        gv = sl.build_grid(box, h)
        ball = cc.metric_ball(heis, (0, 0, 0), R, gv, directions=16, step_scales=(1,))
        vols.append(ball.volume)
    slope = np.polyfit(np.log(radii), np.log(vols), 1)[0]
    assert 3.6 <= slope <= 4.4

    # Poincare stability across R in {0.2, 0.4} and h, h/2 (euclidean ball)
    cs = {}
    for R in (0.2, 0.4):
        for h in (0.02, 0.01):
            gb = sl.build_grid([(-2.2 * R, 2.2 * R), (-2.2 * R, 2.2 * R)], h)
            ball = cc.metric_ball(sl.euclidean(2), (0, 0), R, gb,
                                  directions=32, step_scales=(1, 2, 3))
            corpus = cc.random_polynomial_corpus(gb, 12, degree=2, seed=21)
            rep = cc.poincare_probe(sl.euclidean(2), ball, corpus, R)
            cs[(R, h)] = rep.C_est
    vals = list(cs.values())
    spread = (max(vals) - min(vals)) / max(vals)
    assert spread < 0.25
    report("9 (probes)",
           f"euclid doubling errs {worst2:.2%}/{worst3:.2%}, heis slope {slope:.3f}, "
           f"poincare spread {spread:.2%}")


# ---------------------------------------------------------------------------
# 10. determinism


def test_criterion_10_byte_determinism(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "family": "euclidean(2)",
        "grid": {"box": [[0, 1], [0, 1]], "h": 1.0 / 16},
        "u_expr": "exp(x + y)",
        "n_subdomains": 5,
    }))
    blobs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        code = cli_main(["--config", str(cfg_path), "--out", str(out),
                         "--seed", "17", "verify", "thm1_2"])
        assert code == 0
        blobs.append((out / "report.json").read_bytes())
    assert blobs[0] == blobs[1]

    cfg2 = tmp_path / "eps.json"
    cfg2.write_text(json.dumps({
        "family": "heisenberg",
        "grid": {"box": [[-1, 1], [-1, 1], [-1, 1]], "h": 0.25},
        "eps_list": [0.5, 0.1, 0.0],
    }))
    blobs2 = []
    for name in ("e1", "e2"):
        out = tmp_path / name
        code = cli_main(["--config", str(cfg2), "--out", str(out),
                         "--seed", "17", "epspath"])
        assert code == 0
        blobs2.append((out / "report.json").read_bytes())
    assert blobs2[0] == blobs2[1]
    report("10 (determinism)", "verify + epspath reports byte-identical across reruns")
