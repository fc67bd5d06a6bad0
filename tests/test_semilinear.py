import ast
import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

import sublap.eigen as eigen_mod
from sublap.cli import main
from sublap.eigen import principal_eigenpair, weighted_principal
from sublap.fields import euclidean, heisenberg
from sublap.mesh import GridField, build_grid, mask_domain
import sublap.operators as operators_mod
from sublap.operators import (
    DIRECT_MAX_SEPARATOR,
    NotPositiveDefiniteError,
    assemble_diagonal,
    assemble_stiffness,
    factor_pays,
    factor_spd,
)
import sublap.semilinear as sm
from sublap.semilinear import (
    TOL_LIN,
    SemilinearProblem,
    ShiftedSolver,
    barriers,
    check_sub_super,
    exhaustion_boxes,
    exhaustion_construct,
    linear_solve,
    logistic_problem,
    logistic_solve,
    monotone_iterate,
    yamabe_problem,
    yamabe_solve,
)
from sublap.verify import verify_prop_4_2, verify_thm_1_3


def test_linear_solve_zero():
    g = build_grid([(0, 1), (0, 1)], 0.25)
    K = assemble_stiffness(euclidean(2), g)
    u = linear_solve(K, 0.0, GridField.zeros(g), 0.0)
    assert np.all(u.values == 0.0)


def test_linear_solve_manufactured_second_order():
    errs = []
    for h in (1.0 / 16, 1.0 / 32):
        g = build_grid([(0, 1), (0, 1)], h)
        K = assemble_stiffness(euclidean(2), g)
        rhs = GridField.from_function(
            g, lambda pts: 2 * np.pi**2 * np.sin(np.pi * pts[:, 0]) * np.sin(np.pi * pts[:, 1])
        )
        u = linear_solve(K, 0.0, rhs, 0.0)
        exact = GridField.from_function(
            g, lambda pts: np.sin(np.pi * pts[:, 0]) * np.sin(np.pi * pts[:, 1])
        )
        errs.append(np.abs(u.values - exact.values).max())
    assert 3.0 <= errs[0] / errs[1] <= 5.0


def test_linear_solve_linearity():
    g = build_grid([(0, 1), (0, 1)], 0.125)
    K = assemble_stiffness(euclidean(2), g)
    rng = np.random.default_rng(3)
    rhs = GridField(g, rng.standard_normal(g.num_nodes))
    u1 = linear_solve(K, 1.0, rhs, 0.0)
    u2 = linear_solve(K, 1.0, GridField(g, 2.0 * rhs.values), 0.0)
    assert np.abs(u2.values - 2.0 * u1.values).max() < 1e-8 * max(1.0, np.abs(u1.values).max())


def _solve_field(solver, rhs):
    """One solve as a GridField, with the solver's boundary value on the boundary."""
    return GridField.from_interior(solver.grid, solver.solve_interior(rhs), solver.bvec)


def _shifted_system(family, box, h):
    g = build_grid(box, h)
    K = assemble_stiffness(family, g)
    return K, np.random.default_rng(7).standard_normal(g.n_interior)


@pytest.mark.parametrize("family,box,h", [
    (euclidean(2), [(0, 1), (0, 1)], 1.0 / 32),
    (heisenberg(), [(-2, 2)] * 3, 0.5),
])
def test_shifted_solver_direct_and_warm_cg_agree(monkeypatch, family, box, h):
    K, rhs = _shifted_system(family, box, h)
    direct = ShiftedSolver(K, 3.0, 0.4)
    assert direct.factor is not None
    monkeypatch.setattr(operators_mod, "DIRECT_MAX_SEPARATOR", -1)
    iterative = ShiftedSolver(K, 3.0, 0.4)
    assert iterative.factor is None
    for scale in (1.0, 1.1):  # second solve starts CG from the first solution
        ud = _solve_field(direct, scale * rhs)
        ui = _solve_field(iterative, scale * rhs)
        assert np.abs(ud.values - ui.values).max() <= 1e-9 * np.abs(ud.values).max()
        assert np.all(ud.values[K.grid.boundary_ids] == 0.4)


def test_shifted_cg_is_jacobi_preconditioned_and_counts_its_steps(monkeypatch):
    K, rhs = _shifted_system(heisenberg(), [(-2, 2)] * 3, 0.5)
    monkeypatch.setattr(operators_mod, "DIRECT_MAX_SEPARATOR", -1)
    solver = ShiftedSolver(K, 0.0)
    solver.solve_interior(rhs)
    steps = []
    spla.cg(solver.A, rhs * solver.weight, rtol=TOL_LIN, atol=0.0, callback=steps.append)
    assert 0 < solver.cg_iterations < len(steps)  # diag(A)^{-1} cuts the plain CG steps
    # a new shift keeps the warm start: back at the old shift, the old
    # solution already meets the tolerance
    solver.set_shift(3.0)
    solver.set_shift(0.0)
    before = solver.cg_iterations
    solver.solve_interior(rhs)
    assert solver.cg_iterations == before and solver.shifts == [0.0, 3.0, 0.0]
    monkeypatch.setattr(operators_mod, "DIRECT_MAX_SEPARATOR", DIRECT_MAX_SEPARATOR)
    direct = ShiftedSolver(K, 0.0)
    direct.solve_interior(rhs)
    assert direct.cg_iterations == 0 and direct.jacobi is None


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_shifted_solver_direct_residual_guard(monkeypatch):
    # a tol no solve meets fails the direct path and forced CG alike, and the
    # message names the path, the shift, the residual, the tol and the CG steps;
    # CG's own residual underflows to nan before its 400 steps run out
    K, rhs = _shifted_system(euclidean(2), [(0, 1), (0, 1)], 0.125)
    for direct_max, path, rel in ((DIRECT_MAX_SEPARATOR, "direct", r"\d\.\d{3}e-\d+"),
                                  (-1, r"CG \(info=400\)", "nan")):
        monkeypatch.setattr(operators_mod, "DIRECT_MAX_SEPARATOR", direct_max)
        monkeypatch.setattr(sm, "TOL_LIN", 1e-300)
        solver = ShiftedSolver(K, 1.5)
        with pytest.raises(RuntimeError) as err:
            solver.solve_interior(rhs)
        assert re.fullmatch(rf"{path} linear solve at shift 1\.5: relative residual {rel} "
                            rf"above tol 1\.000e-300 after {solver.cg_iterations} CG steps",
                            str(err.value))
    assert solver.cg_iterations == 400


def test_shifted_cg_checks_its_true_residual(monkeypatch):
    # scipy's cg stops on its recursive residual: at tol 1e-15 one CG run
    # leaves the true residual above tol, so the solver resumes CG once
    K, rhs = _shifted_system(euclidean(2), [(0, 1), (0, 1)], 0.125)
    monkeypatch.setattr(operators_mod, "DIRECT_MAX_SEPARATOR", -1)
    monkeypatch.setattr(sm, "TOL_LIN", 1e-15)
    solver = ShiftedSolver(K, 1.5)
    b = solver.weight * rhs - solver.lift
    steps = []
    x, info = spla.cg(solver.A, b, rtol=1e-15, atol=0.0, M=solver.jacobi, callback=steps.append)
    assert info == 0 and np.linalg.norm(solver.A @ x - b) > 1e-15 * np.linalg.norm(b)
    x = solver.solve_interior(rhs)
    assert np.linalg.norm(solver.A @ x - b) <= 1e-15 * np.linalg.norm(b)
    assert solver.cg_iterations > len(steps)
    # where the resumed run still misses tol, the solve fails
    with pytest.raises(RuntimeError, match=r"^CG \(info=0\) linear solve at shift 1\.5: "
                                           r"relative residual .* above tol 1\.000e-16"):
        monkeypatch.setattr(sm, "TOL_LIN", 1e-16)
        ShiftedSolver(K, 1.5).solve_interior(rhs)


def test_shifted_cg_starts_from_the_scalar_boundary_value(monkeypatch):
    # with c = 0 and no source the constant boundary value solves the system
    K, _ = _shifted_system(heisenberg(), [(-2, 2)] * 3, 0.5)
    monkeypatch.setattr(operators_mod, "DIRECT_MAX_SEPARATOR", -1)
    solver = ShiftedSolver(K, 0.0, 0.4)
    u = _solve_field(solver, np.zeros(K.grid.n_interior))
    assert solver.cg_iterations == 0
    assert np.abs(u.values - 0.4).max() <= 1e-12


def _count_factors(monkeypatch):
    """The list to which every `factor_spd` call of the semilinear and eigen layers appends."""
    calls = []
    for mod in (sm, eigen_mod):
        monkeypatch.setattr(mod, "factor_spd",
                            lambda *args, real=mod.factor_spd: calls.append(1) or real(*args))
    return calls


def test_monotone_factors_once_below_threshold(monkeypatch):
    # one factorization per distinct shift: a Newton run factors once per
    # step but the last, and a shift that stays equal factors once
    g, K, a, b, eig = logistic_setup(1.0 / 8)
    assert factor_pays(g)
    newton = logistic_problem(K, a, b, 2 * eig.lam, 2.0)
    lower, upper = GridField.zeros(g), GridField.constant(g, 1.0)
    calls = _count_factors(monkeypatch)
    res = monotone_iterate(newton, lower, upper, tol=1e-9)
    assert res.status == "ok" and res.steps_monotone and res.bracket_respected
    assert len(calls) == len(res.shifts) == res.iterations < 10
    ids = g.interior_ids
    assert np.array_equal(res.shifts[0], newton.shift(lower.values[ids], upper.values[ids]))
    calls.clear()
    c0 = float(res.shifts[0].max())
    constant = dataclasses.replace(newton, shift=lambda lo, u: np.full_like(u, c0))
    res = monotone_iterate(constant, lower, upper, tol=1e-9)
    assert res.status == "ok" and res.iterations > 10 and len(calls) == 1
    assert len(res.shifts) == 1 and np.all(res.shifts[0] == c0)


def test_an_equal_shift_keeps_the_factor(monkeypatch):
    K, rhs = _shifted_system(euclidean(2), [(0, 1), (0, 1)], 1.0 / 16)
    calls = _count_factors(monkeypatch)
    c = np.linspace(1.0, 2.0, K.grid.n_interior)
    solver = ShiftedSolver(K, c)
    x = solver.solve_interior(rhs).copy()
    factor = solver.factor
    solver.set_shift(c.copy())  # the same values in another array
    assert len(calls) == 1 and solver.factor is factor and len(solver.shifts) == 1
    assert np.array_equal(solver.solve_interior(rhs), x)
    solver.set_shift(c + 1.0)
    assert len(calls) == 2 and len(solver.shifts) == 2


def test_yamabe_barriers_share_one_factorization(monkeypatch):
    g, K, f, kf, Kf = yamabe_setup()
    assert factor_pays(g)
    calls = _count_factors(monkeypatch)
    res = yamabe_solve(K, kf, Kf, 3.0, f, 0.05, 0.4, tol=1e-8)
    assert res.status == "ok"
    assert len(calls) == 2  # both barriers, then the monotone iterate
    # invalid barrier data is refused before anything is factored
    with pytest.raises(ValueError, match="eps must lie"):
        yamabe_solve(K, kf, Kf, 3.0, f, 0.05, 0.6)
    with pytest.raises(ValueError, match="C must be nonnegative"):
        barriers(K, f, -1.0, 0.4)
    assert len(calls) == 2
    # C = 0 (theta = 0) is the source-free problem: both barriers are eps
    V, W, worst = barriers(K, f, 0.0, 0.4)
    for barrier in (V, W):
        np.testing.assert_allclose(barrier.values, 0.4, rtol=0, atol=1e-12)
    assert worst <= 1e-12


def test_no_factorization_above_threshold(monkeypatch):
    # the benchmark's Thm 1.4 box: 3,375 unknowns, a top separator of 225
    g = build_grid([(-4, 4)] * 3, 0.5)
    K = assemble_stiffness(heisenberg(), g)
    assert not factor_pays(g)
    calls = _count_factors(monkeypatch)
    f = GridField.from_function(g, lambda pts: np.exp(-(pts**2).sum(axis=1)))
    kf = GridField(g, 0.02 * f.values)
    res = yamabe_solve(K, kf, kf, 3.0, f, 0.02, 0.4)
    assert res.status == "ok" and res.iterations > 1
    assert calls == []
    assert len(res.shifts) == 1 and res.cg_iterations >= res.iterations


def test_a_2d_system_above_the_old_nonzero_limit_is_factored_once(monkeypatch):
    # 127^2 unknowns and 80,645 nonzeros, but a top separator of 127
    K, rhs = _shifted_system(euclidean(2), [(0, 1), (0, 1)], 1.0 / 128)
    assert K.mat.nnz > 60_000 and factor_pays(K.grid)
    calls = _count_factors(monkeypatch)
    solver = ShiftedSolver(K, 1.0)
    for scale in (1.0, 2.0):
        solver.solve_interior(scale * rhs)
    assert len(calls) == 1 and solver.cg_iterations == 0


@pytest.mark.parametrize("box,h,factored", [
    ([(0, 1)], 1.0 / 64, True),              # 1-D: s = 1 at any size
    ([(0, 1)] * 2, 1.0 / 12, True),          # 11^2 unknowns, s = 11
    ([(0, 1)] * 2, 1.0 / 14, False),         # 13^2, s = 13
    ([(-1, 1)] * 3, 0.5, True),              # 3^3, s = 9
    ([(-1, 1)] * 3, 0.25, False),            # 7^3, s = 49
], ids=["1d", "2d-small", "2d-large", "3d-small", "3d-large"])
def test_shifted_and_eigen_solves_take_the_same_path(monkeypatch, box, h, factored):
    monkeypatch.setattr(operators_mod, "DIRECT_MAX_SEPARATOR", 12)
    g = build_grid(box, h)
    K = assemble_stiffness(euclidean(g.n), g)
    assert factor_pays(g) is factored
    shifted = ShiftedSolver(K, 1.0)
    shifted.solve_interior(np.ones(g.n_interior))
    calls = _count_factors(monkeypatch)
    eig = principal_eigenpair(K, None, pairs=1)  # one level: no coarse start
    assert (shifted.factor is not None) is (len(calls) == 1) is (eig.cg_iterations == 0) is factored


@pytest.mark.parametrize("mask, storage", [
    (None, "dia"),
    (lambda pts: np.sum(pts**2, axis=1) <= 9.0, "csr"),
], ids=["box", "ball"])
def test_cg_on_the_diagonal_copy_is_bit_identical_to_csr(monkeypatch, mask, storage):
    # a DIA matrix with ascending offsets sums each row in the order of a
    # CSR matrix with sorted indices; a ball's scattered stencil stays CSR
    monkeypatch.setattr(operators_mod, "DIRECT_MAX_SEPARATOR", -1)
    g = build_grid([(-4, 4)] * 3, 0.5)
    if mask is not None:
        g = mask_domain(g, mask)
    K = assemble_stiffness(heisenberg(), g)
    assert K.mat.has_sorted_indices
    rhs = np.random.default_rng(5).standard_normal(g.n_interior)

    def solves():
        solver = ShiftedSolver(K, 2.0, 0.4)
        xs = [solver.solve_interior(rhs).copy()]
        solver.set_shift(0.5)
        xs.append(solver.solve_interior(rhs).copy())
        return solver, xs

    copy, xs = solves()
    assert copy.A.format == storage and copy.A.dtype == np.float64
    monkeypatch.setattr(sm, "shifted_copy",
                        lambda A, sigma, dtype: A - sigma * sp.identity(A.shape[0], format="csr"))
    csr, ys = solves()
    assert csr.A.format == "csr"
    assert all(np.array_equal(x, y) for x, y in zip(xs, ys))
    assert copy.cg_iterations == csr.cg_iterations > 0


@pytest.mark.parametrize("mask, storage", [
    (None, "dia"),
    (lambda pts: np.sum(pts**2, axis=1) <= 2.25, "csr"),
], ids=["box", "ball"])
def test_factored_solve_on_the_shifted_copy_is_bit_identical_to_csr(monkeypatch, mask, storage):
    # factor_spd receives the same pattern and values from shifted_copy's
    # K + c h^n I, by diagonals or in CSR, as from the CSR sum, so it takes
    # the same order and band
    monkeypatch.setattr(operators_mod, "DIRECT_MAX_SEPARATOR", 10**6)
    g = build_grid([(-2, 2)] * 3, 0.25)
    if mask is not None:
        g = mask_domain(g, mask)
    K = assemble_stiffness(heisenberg(), g)
    rhs = np.random.default_rng(5).standard_normal(g.n_interior)
    solver = ShiftedSolver(K, 2.0, 0.4)
    assert solver.factor is not None and solver.A.format == storage
    x = solver.solve_interior(rhs)
    w = g.h ** g.n
    A = K.mat + 2.0 * w * sp.identity(g.n_interior, format="csr")
    ref = factor_spd(A).solve(w * rhs - K.boundary @ np.full(g.n_boundary, 0.4))
    assert np.array_equal(x, ref)


def test_monotone_zero_problem_instant():
    g = build_grid([(0, 1), (0, 1)], 0.25)
    K = assemble_stiffness(euclidean(2), g)
    problem = SemilinearProblem(K=K, reaction=lambda u: np.zeros_like(u),
                                shift=lambda lo, u: np.zeros_like(u))
    z = GridField.zeros(g)
    res = monotone_iterate(problem, z, z, tol=1e-12)
    assert res.iterations == 1
    assert res.residual == 0.0
    assert np.all(res.solution.values == 0.0)


def test_monotone_linear_reaction_is_linear_solve():
    g = build_grid([(0, 1), (0, 1)], 0.125)
    K = assemble_stiffness(euclidean(2), g)
    f = GridField.from_function(g, lambda pts: np.cos(pts[:, 0]) + pts[:, 1])
    f_int = f.values[g.interior_ids]
    problem = SemilinearProblem(K=K, reaction=lambda u: f_int,
                                shift=lambda lo, u: np.zeros_like(u))
    direct = linear_solve(K, 0.0, f, 0.0)
    upper = GridField.constant(g, float(np.abs(direct.values).max()) * 2 + 1)
    lower = GridField.constant(g, -float(np.abs(direct.values).max()) * 2 - 1)
    res = monotone_iterate(problem, lower, upper, tol=1e-9)
    # the first step solves the equation; the second repeats that solve, and
    # its zero step meets the step bound
    assert res.iterations == 2
    assert np.abs(res.solution.values - direct.values).max() < 1e-8


def test_monotone_evaluates_reaction_once_per_iterate(monkeypatch):
    # F(u) of each iterate is both its residual's reaction and the next
    # step's right-hand side, so each further step costs one evaluation; the
    # shift check's six (three difference quotients) are paid once, since the
    # shift stays equal and every iterate stays inside the bracket it checked
    g, K, a, b, eig = logistic_setup(h=1.0 / 8)
    logistic = logistic_problem(K, a, b, 2 * eig.lam, 2.0)
    calls = []

    def counted(u):
        calls.append(1)
        return logistic.reaction(u)

    c = logistic.shift(np.zeros(g.n_interior), np.ones(g.n_interior))
    problem = SemilinearProblem(K=K, reaction=counted, shift=lambda lo, u: c)
    lower, upper = GridField.zeros(g), GridField.constant(g, 1.0)
    counts = []
    for steps in (1, 5):
        calls.clear()
        monkeypatch.setattr(sm, "MAX_ITER_MONOTONE", steps)
        res = monotone_iterate(problem, lower, upper, tol=1e-14)
        assert res.iterations == steps
        counts.append(len(calls))
    assert counts[1] - counts[0] == 4 * 1


def test_lipschitz_validation():
    # F = 10 u (1 - u) on [0, 1]: -dF/du = 10 (2u - 1) peaks at 10
    g = build_grid([(0, 1), (0, 1)], 0.25)
    K = assemble_stiffness(euclidean(2), g)
    a = GridField.constant(g, 1.0)
    b = GridField.constant(g, 1.0)
    logistic = logistic_problem(K, a, b, 10.0, 2.0)
    n = g.n_interior
    zero, one = np.zeros(n), np.ones(n)
    c = logistic.shift(zero, one)
    assert np.all(c == 10.0)
    assert logistic.validate_shift(c, zero, one).max() <= 10.0 * (1 + 1e-4)
    with pytest.raises(ValueError, match="shift 0.1 below"):
        logistic.validate_shift(np.full(n, 0.1), zero, one)
    c[3] = 9.0  # one node's shift too small: the error names it
    with pytest.raises(ValueError, match=rf"^shift 9 below .* at node {g.interior_ids[3]}$"):
        logistic.validate_shift(c, zero, one)
    logistic.validate_shift(zero, zero, np.full(n, 0.5))  # dF/du >= 0 on [0, 1/2]


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_logistic_shift_meets_the_one_sided_bound(p):
    g = build_grid([(0, 1), (0, 1)], 1.0 / 8)
    problem = logistic_problem(
        assemble_stiffness(euclidean(2), g),
        GridField.from_function(g, lambda pts: 1.0 + 0.5 * pts[:, 0]),
        GridField.from_function(g, lambda pts: 1.0 + 0.3 * pts[:, 1]), 7.0, p)
    a_int = 1.0 + 0.5 * g.points[g.interior_ids, 0]
    b_int = 1.0 + 0.3 * g.points[g.interior_ids, 1]
    flat = float(((a_int / (p * b_int)) ** (1.0 / (p - 1.0))).min())  # dF/du >= 0 up to here
    n = g.n_interior
    zero = np.zeros(n)
    rng = np.random.default_rng(11)
    du = 1e-7
    for hi in (0.3 * flat, 0.99 * flat, 1.01 * flat, 0.8, 1.5, 3.0):
        top = np.full(n, hi)
        c = problem.shift(zero, top)
        assert (c.max() > 0.0) == (hi > flat)
        # the closed forms written out, bit for bit
        assert np.array_equal(c, 7.0 * (p * b_int * top ** (p - 1.0) - a_int))
        for _ in range(20):
            u = rng.uniform(0.0, hi - du, size=n)
            F = problem.reaction(u)
            assert np.array_equal(F, 7.0 * u * (a_int - b_int * np.abs(u) ** (p - 1.0)))
            slope = (problem.reaction(u + du) - F) / du
            assert (c + slope).min() >= -1e-6
        problem.validate_shift(c, zero, top)
        # -dF/du reaches c at the bracket's top, so a smaller shift fails
        with pytest.raises(ValueError, match="below the sampled"):
            problem.validate_shift(c - 0.5 * np.abs(c), zero, top)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), p=st.sampled_from([1.5, 2.0, 3.0]))
def test_each_shift_bounds_minus_f_prime_on_random_nodewise_brackets(seed, p):
    # brackets drawn node by node, lower partly negative; -F' sampled inside
    # each node's [lower, u] (below upper for the Yamabe problem)
    g = build_grid([(0, 1), (0, 1)], 1.0 / 8)
    K = assemble_stiffness(euclidean(2), g)
    rng = np.random.default_rng(seed)
    n, ids = g.n_interior, g.interior_ids

    def field():
        return GridField(g, rng.uniform(0.2, 2.0, g.num_nodes))

    a, b, mu = field(), field(), float(rng.uniform(0.5, 50.0))
    kf, Kf = (GridField(g, rng.uniform(-1.0, 1.0, g.num_nodes)) for _ in range(2))
    lower = rng.uniform(-1.0, 1.0, n)
    u = lower + rng.uniform(0.0, 2.0, n)
    upper = u + rng.uniform(0.0, 1.0, n)
    logistic = logistic_problem(K, a, b, mu, p)
    yamabe = yamabe_problem(K, kf, Kf, p, 0.4, GridField.from_interior(g, upper, 0.4))
    a_i, b_i, k_i, K_i = (x.values[ids] for x in (a, b, kf, Kf))
    c_log, c_yam = logistic.shift(lower, u), yamabe.shift(lower, u)
    for _ in range(10):
        v = rng.uniform(lower, u)
        assert np.all(c_log >= mu * (p * b_i * np.abs(v) ** (p - 1.0) - a_i))
        assert np.all(c_yam >= k_i - p * K_i * np.abs(v) ** (p - 1.0))
    # Newton's -F'(u) where 0 <= lower <= u, bit for bit
    newton = -(mu * (a_i - p * b_i * np.abs(u) ** (p - 1.0)))
    sel = lower >= 0.0
    assert sel.any() and np.array_equal(c_log[sel], newton[sel])
    assert np.array_equal(yamabe.shift(lower, upper), c_yam)  # independent of u


def logistic_setup(h=1.0 / 16):
    g = build_grid([(0, 1), (0, 1)], h)
    K = assemble_stiffness(euclidean(2), g)
    a = GridField.constant(g, 1.0)
    b = GridField.constant(g, 1.0)
    return g, K, a, b, weighted_principal(K, assemble_diagonal(a), tol=1e-10)


def test_monotone_stops_when_its_step_stagnates_below_an_unreachable_tol(monkeypatch):
    # at tol 1e-30 the residual floors at round-off; the iteration stops once
    # its step is within 4 ulps of the bracket's scale, long before step 2000,
    # also where round-off leaves the descent cycling at a step of 1 ulp.
    # The shift is held at the logistic shift's top on [0, 1], so the
    # descent is linear.
    g, K, a, b, eig = logistic_setup(1.0 / 8)
    logistic = logistic_problem(K, a, b, 4 * eig.lam, 2.0)
    c0 = float(logistic.shift(np.zeros(g.n_interior), np.ones(g.n_interior)).max())
    problem = dataclasses.replace(logistic, shift=lambda lo, u: np.full_like(u, c0))
    monkeypatch.setattr(sm, "MAX_ITER_MONOTONE", 2000)
    res = monotone_iterate(problem, GridField.zeros(g), GridField.constant(g, 1.0), tol=1e-30)
    assert res.status == "no-convergence" and 10 < res.iterations < 2000
    assert res.residual < 1e-12
    assert [n for n in res.notes if "stagnated" in n] == [
        f"iteration stagnated at step {res.iterations} with residual {res.residual:.3e}"]
    assert res.notes[-1] == (f"residual {res.residual:.3e} above tol 1.000e-30 "
                             f"after {res.iterations} iterations")


def test_logistic_supercritical_positive_bounded():
    g, K, a, b, eig = logistic_setup()
    res = logistic_solve(K, a, b, 2 * eig.lam, 2.0, eig, tol=1e-8)
    assert res.status == "ok"
    assert res.residual <= 1e-8
    ui = res.solution.values[g.interior_ids]
    assert ui.min() > 0.0
    assert ui.max() < 1.0
    assert np.all(res.solution.values <= 1.0 + 1e-12)
    assert res.steps_monotone
    assert res.bracket_respected


def test_logistic_matches_damped_newton(damped_newton_logistic):
    g, K, a, b, eig = logistic_setup()
    res = logistic_solve(K, a, b, 2 * eig.lam, 2.0, eig, tol=1e-10)
    newton = damped_newton_logistic(K, a, b, 2 * eig.lam, 2.0, res.solution)
    rel = np.abs(newton.values - res.solution.values).max() / np.abs(res.solution.values).max()
    assert rel < 1e-6


def test_logistic_subcritical_zero():
    g, K, a, b, eig = logistic_setup()
    res = logistic_solve(K, a, b, 0.5 * eig.lam, 2.0, eig)
    assert res.status == "subcritical"
    assert np.all(res.solution.values == 0.0)


def test_logistic_two_bracket_agreement():
    g, K, a, b, eig = logistic_setup()
    res = logistic_solve(K, a, b, 2 * eig.lam, 2.0, eig, tol=1e-10)
    problem = logistic_problem(K, a, b, 2 * eig.lam, 2.0)
    res2 = monotone_iterate(problem, res.lower, GridField.constant(g, 2.0), tol=1e-10)
    rel = np.abs(res2.solution.values - res.solution.values).max() / np.abs(res.solution.values).max()
    assert rel < 1e-6


def test_monotone_descent_recorded():
    g, K, a, b, eig = logistic_setup(1.0 / 8)
    res = logistic_solve(K, a, b, 2 * eig.lam, 2.0, eig, tol=1e-9)
    assert res.steps_monotone
    assert res.max_step_increase <= 1e-7


@pytest.mark.parametrize("bvalue,trace,mask_of_node", [(0.0, 0.05, 2), (0.3, -0.5, 1)])
def test_step_one_violation_notes_match_a_full_grid_reference(monkeypatch, bvalue, trace,
                                                              mask_of_node):
    # upper = 0.05 inside is not a supersolution of H u = 40 u (1 - u), so
    # step 1 rises above it; with upper's trace far below the boundary value
    # a boundary node rises most.  The reference takes the gaps on full-grid
    # fields over every non-exterior node of a disk.  The shift is held at
    # 0, the sup of -dF/du over these brackets' values.
    box = build_grid([(-1, 1), (-1, 1)], 1.0 / 8)
    g = mask_domain(box, lambda pts: (pts**2).sum(axis=1) < 0.8)
    K = assemble_stiffness(euclidean(2), g)
    one = GridField.constant(g, 1.0)
    problem = dataclasses.replace(logistic_problem(K, one, one, 40.0, 2.0), boundary_value=bvalue,
                                  shift=lambda lo, u: np.zeros_like(u))
    upper = GridField.from_interior(g, np.full(g.n_interior, 0.05), trace)
    lower = GridField.from_interior(g, np.zeros(g.n_interior), min(trace, 0.0))
    monkeypatch.setattr(sm, "MAX_ITER_MONOTONE", 1)
    res = monotone_iterate(problem, lower, upper)
    active = g.mask != 0
    c = np.zeros(g.n_interior)
    ui = upper.values[g.interior_ids]
    u1 = _solve_field(ShiftedSolver(K, c, bvalue), c * ui + problem.reaction(ui))
    rise = (u1.values - upper.values)[active]
    node = int(np.flatnonzero(active)[np.argmax(rise)])
    below = (lower.values - u1.values)[active].max()
    assert g.mask[node] == mask_of_node and np.any(g.mask == 0)
    assert [n for n in res.notes if "step 1" in n] == [
        f"monotone descent violated by {rise.max():.3e} at node {node}, step 1",
        f"bracket violated at step 1: below-lower {below:.3e}, above-upper {rise.max():.3e}",
    ]
    assert not (res.steps_monotone or res.bracket_respected)
    assert res.max_step_increase == rise.max()
    assert len(res.shifts) == 1 and np.array_equal(res.shifts[0], c)


def test_sub_super_checks():
    g, K, a, b, eig = logistic_setup(1.0 / 8)
    mu = 2 * eig.lam
    problem = logistic_problem(K, a, b, mu, 2.0)
    ok_up, _, _ = check_sub_super(problem, GridField.constant(g, 1.0), -1)
    assert ok_up
    res = logistic_solve(K, a, b, mu, 2.0, eig, tol=1e-9)
    ok_lo, _, _ = check_sub_super(problem, res.lower, +1)
    assert ok_lo
    # the constant 1/2 is a subsolution, not a supersolution; its defect is
    # the same at every interior row, so the signed test flips its sign
    half = GridField.constant(g, 0.5)
    ok_sub, worst_sub, _ = check_sub_super(problem, half, +1)
    ok_sup, worst_sup, node = check_sub_super(problem, half, -1)
    assert ok_sub and not ok_sup
    assert worst_sup == pytest.approx(-worst_sub) and worst_sup > 0.0
    assert g.mask[node] == 2


def in_bounds(V, eps):
    """The lower barrier's bounds 0 < V <= eps on the interior, as yamabe_solve checks them."""
    vi = V.values[V.grid.interior_ids]
    return bool(np.all(vi > 0.0) and np.all(vi <= eps + 1e-10 * max(1.0, eps)))


def test_poisson_zero_source_constant():
    g = build_grid([(0, 1), (0, 1)], 0.125)
    K = assemble_stiffness(euclidean(2), g)
    V, _, worst = barriers(K, GridField.zeros(g), 1.0, 0.4)
    assert in_bounds(V, 0.4)
    assert np.abs(V.values[g.interior_ids] - 0.4).max() < 1e-9
    assert abs(worst) < 1e-9  # V = eps: the upper bound is met with equality


def test_poisson_disk_radial_oracle():
    # mask a disk, solve -lap U = -C f with U = eps on the rim, compare the
    # center value against the radial ODE U(r) = eps - C int_r^R (1/s)
    # int_0^s f(rho) rho drho ds computed by quadrature
    h = 1.0 / 64
    R = 0.45
    g = build_grid([(0, 1), (0, 1)], h)
    disk = mask_domain(g, lambda pts: np.sum((pts - 0.5) ** 2, axis=1) < R * R)
    K = assemble_stiffness(euclidean(2), disk)
    C = 0.05
    f = GridField.from_function(disk, lambda pts: np.exp(-10 * np.sum((pts - 0.5) ** 2, axis=1)))
    V, _, _ = barriers(K, f, C, 0.4)
    assert in_bounds(V, 0.4)
    rr = np.linspace(0, R, 4001)
    fr = np.exp(-10 * rr**2)
    inner = np.concatenate([[0.0], np.cumsum(0.5 * (fr[1:] * rr[1:] + fr[:-1] * rr[:-1]) * np.diff(rr))])
    integrand = np.zeros_like(rr)
    integrand[1:] = inner[1:] / rr[1:]
    outer = np.concatenate([[0.0], np.cumsum(0.5 * (integrand[1:] + integrand[:-1]) * np.diff(rr))])
    center_exact = 0.4 - C * (outer[-1] - 0.0)
    center_id = disk.nearest_node([0.5, 0.5])
    assert abs(V.values[center_id] - center_exact) < 0.03 * abs(center_exact - 0.4) + 2e-4


def test_poisson_sign_mirror():
    g = build_grid([(0, 1), (0, 1)], 0.125)
    K = assemble_stiffness(euclidean(2), g)
    f = GridField.from_function(g, lambda pts: np.exp(-5 * np.sum((pts - 0.5) ** 2, axis=1)))
    um, up, _ = barriers(K, f, 0.05, 0.4)
    assert np.abs((up.values - 0.4) + (um.values - 0.4)).max() < 1e-9


@pytest.mark.parametrize("direct_max", [DIRECT_MAX_SEPARATOR, -1], ids=["direct", "cg"])
def test_upper_barrier_is_two_eps_minus_the_lower(monkeypatch, direct_max):
    # W = 2 eps - V against a solve of K W = C M f with trace eps of its own,
    # on a box and on a disk with exterior nodes
    monkeypatch.setattr(operators_mod, "DIRECT_MAX_SEPARATOR", direct_max)
    box = build_grid([(-1, 1), (-1, 1)], 1.0 / 16)
    for g, family in ((yamabe_setup()[0], heisenberg()),
                      (mask_domain(box, lambda pts: (pts**2).sum(axis=1) < 0.8), euclidean(2))):
        K = assemble_stiffness(family, g)
        f = GridField.from_function(g, lambda pts: np.exp(-(pts**2).sum(axis=1)))
        _, upper, _ = barriers(K, f, 0.1, 0.4)
        W = _solve_field(ShiftedSolver(K, 0.0, 0.4), 0.1 * f.values[g.interior_ids])
        assert np.abs(upper.values - W.values).max() <= 1e-9
        assert np.all(upper.values[g.boundary_ids] == 0.4)


def test_poisson_validates_inputs():
    g = build_grid([(0, 1), (0, 1)], 0.25)
    K = assemble_stiffness(euclidean(2), g)
    f = GridField.constant(g, 1.0)
    with pytest.raises(ValueError):
        barriers(K, f, -1.0, 0.4)
    with pytest.raises(ValueError):
        barriers(K, f, 1.0, 0.6)
    with pytest.raises(ValueError):
        barriers(K, GridField.constant(g, -1.0), 1.0, 0.4)


def test_upper_barrier_in_bounds_whenever_the_lower_is():
    # W = 2 eps - V, so V within 0 < V <= eps puts W within eps <= W < 1;
    # C from far below to far above the largest admissible one
    g = build_grid([(0, 1), (0, 1)], 0.125)
    K = assemble_stiffness(euclidean(2), g)
    tol = 1e-10
    seen = set()
    for f in (GridField.constant(g, 1.0),
              GridField.from_function(g, lambda pts: np.exp(-5 * np.sum((pts - 0.5) ** 2, axis=1)))):
        for C in np.geomspace(1e-3, 1e3, 25):
            for eps in (0.34, 0.4, 0.49):
                V, W, worst = barriers(K, f, C, eps)
                wi = W.values[g.interior_ids]
                ok = in_bounds(V, eps)
                seen.add(ok)
                if ok:
                    assert np.all(wi >= eps - tol) and np.all(wi < 1.0) and worst <= tol
                else:
                    assert worst >= 0.0
        assert barriers(K, f, 1e3, 0.4)[2] > 0  # C far too large
    assert seen == {True, False}


def test_poisson_bound_violation_reported_not_raised():
    g = build_grid([(0, 1), (0, 1)], 0.125)
    K = assemble_stiffness(euclidean(2), g)
    f = GridField.constant(g, 1.0)
    V, _, worst = barriers(K, f, 100.0, 0.4)  # C far too large
    assert not in_bounds(V, 0.4)
    assert worst > 0
    # yamabe_solve with theta = 50 builds the same pair (C = 2 theta) and reports it
    z = GridField.zeros(g)
    res = yamabe_solve(K, z, z, 3.0, f, 50.0, 0.4)
    assert res.status == "bracket-construction-failed" and not res.bracket_respected
    assert res.notes == [f"barrier bounds 0 < V <= eps, eps <= W < 1 violated by {worst:.3e}: "
                         "C too large for this box/f"]
    assert np.array_equal(res.lower.values, V.values)


def yamabe_setup(h=0.5, box=2.0, theta=0.05):
    g = build_grid([(-box, box)] * 3, h)
    heis = heisenberg()
    K = assemble_stiffness(heis, g)
    f = GridField.from_function(g, lambda pts: np.exp(-np.sum(pts**2, axis=1)))
    kf = GridField(g, theta * f.values * np.cos(g.points[:, 0] + g.points[:, 1]))
    Kf = GridField(g, theta * f.values * np.sin(g.points[:, 0] - g.points[:, 1] + 0.3))
    return g, K, f, kf, Kf


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_yamabe_shift_meets_the_one_sided_bound(p):
    g, K, f, kf, Kf = yamabe_setup()
    ids = g.interior_ids
    kv, Kv = kf.values[ids], Kf.values[ids]
    V, W, _ = barriers(K, f, 0.1, 0.4)
    rng = np.random.default_rng(5)
    du = 1e-7
    for lower, upper in ((V, W), (GridField.zeros(g), GridField.constant(g, 1.0)),
                         (GridField.constant(g, -0.5), GridField.constant(g, 2.0))):
        problem = yamabe_problem(K, kf, Kf, p, 0.4, upper)
        assert problem.boundary_value == 0.4
        lo, hi = lower.values[ids], upper.values[ids]
        c = problem.shift(lo, hi)
        assert c.max() > 0.0
        assert np.array_equal(problem.shift(lo, lo), c)  # the same shift below upper
        problem.validate_shift(c, lo, hi)
        for _ in range(20):
            u = rng.uniform(lo, hi - du)
            F = problem.reaction(u)
            # the reaction written out, bit for bit
            assert np.array_equal(F, Kv * np.sign(u) * np.abs(u) ** p - kv * u)
            slope = (problem.reaction(u + du) - F) / du
            assert (c + slope).min() >= -1e-6
    # on the barrier bracket: the closed form written out, and the solver's one shift
    vi, wi = V.values[ids], W.values[ids]
    bound = p * np.abs(Kv) * np.maximum(np.abs(vi), np.abs(wi)) ** (p - 1.0) + np.abs(kv)
    assert np.array_equal(yamabe_problem(K, kf, Kf, p, 0.4, W).shift(vi, wi), bound)
    shifts = yamabe_solve(K, kf, Kf, p, f, 0.05, 0.4).shifts
    assert len(shifts) == 1 and np.array_equal(shifts[0], bound)


def test_yamabe_run_cut_at_four_steps_names_the_relative_step(monkeypatch):
    # the `solve yamabe` config: the fourth step meets the residual bound but
    # not the step bound, and a fifth meets both
    g, K, f, _, _ = yamabe_setup()
    kf, Kf = sm.yamabe_coefficients(f, 0.05)
    V, W, _ = barriers(K, f, 0.1, 0.4)
    problem = yamabe_problem(K, kf, Kf, 3.0, 0.4, W)
    monkeypatch.setattr(sm, "MAX_ITER_MONOTONE", 4)
    res = monotone_iterate(problem, V, W, tol=1e-8)
    assert res.status == "no-convergence" and res.residual <= 1e-8 and len(res.shifts) == 1
    assert re.fullmatch(r"relative step \S+ above tol 1\.000e-08 after 4 iterations",
                        res.notes[-1])
    monkeypatch.setattr(sm, "MAX_ITER_MONOTONE", 5)
    res = monotone_iterate(problem, V, W, tol=1e-8)
    assert res.status == "ok" and res.iterations == 5 and len(res.shifts) == 1


def test_yamabe_run_checks_its_one_shift_once(monkeypatch):
    # the shift stays equal and every iterate stays in [V, W], the bracket the
    # first check covered, so no step repeats the check
    checks = []
    real = SemilinearProblem.validate_shift
    monkeypatch.setattr(SemilinearProblem, "validate_shift",
                        lambda self, *args: checks.append(1) or real(self, *args))
    g, K, f, _, _ = yamabe_setup()
    kf, Kf = sm.yamabe_coefficients(f, 0.05)
    res = yamabe_solve(K, kf, Kf, 3.0, f, 0.05, 0.4)
    assert res.status == "ok" and res.iterations > 1 and len(checks) == 1


def test_monotone_checks_a_shift_again_when_it_changes_or_leaves_the_bracket(monkeypatch):
    # a logistic run at a fixed shift: the first check covers [0, 1], and the
    # descent from 1 stays inside it
    checks = []
    real = SemilinearProblem.validate_shift
    monkeypatch.setattr(SemilinearProblem, "validate_shift",
                        lambda self, *args: checks.append(1) or real(self, *args))
    g, K, a, b, eig = logistic_setup(1.0 / 8)
    logistic = logistic_problem(K, a, b, 2 * eig.lam, 2.0)
    c0 = float(logistic.shift(np.zeros(g.n_interior), np.ones(g.n_interior)).max())
    problem = dataclasses.replace(logistic, shift=lambda lo, u: np.full_like(u, c0))
    res = monotone_iterate(problem, GridField.zeros(g), GridField.constant(g, 1.0), tol=1e-9)
    assert res.status == "ok" and res.iterations > 2 and len(checks) == 1
    # with lower = 0.9, not a subsolution, the descent falls below lower
    checks.clear()
    res = monotone_iterate(problem, GridField.constant(g, 0.9), GridField.constant(g, 1.0),
                           tol=1e-9)
    assert not res.bracket_respected and len(checks) > 1
    # a shift that changes is checked again at each step
    checks.clear()
    res = monotone_iterate(logistic, GridField.zeros(g), GridField.constant(g, 1.0), tol=1e-9)
    assert res.status == "ok" and len(checks) == res.iterations


def test_a_tol_below_tol_lin_tightens_the_cg_stop():
    # the benchmark's Thm 1.4 box takes the CG path; each CG solve stopped at
    # TOL_LIN = 1e-10 could not carry the run to tol 1e-12
    g = build_grid([(-4, 4)] * 3, 0.5)
    K = assemble_stiffness(heisenberg(), g)
    assert not factor_pays(g)
    f = GridField.from_function(g, lambda pts: np.exp(-(pts**2).sum(axis=1)))
    kf, Kf = sm.yamabe_coefficients(f, 0.02)
    loose = yamabe_solve(K, kf, Kf, 3.0, f, 0.02, 0.4)
    tight = yamabe_solve(K, kf, Kf, 3.0, f, 0.02, 0.4, tol=1e-12)
    assert loose.status == tight.status == "ok" and tight.residual <= 1e-12
    assert tight.cg_iterations > loose.cg_iterations > 0
    scale = np.abs(tight.solution.values).max()
    assert np.abs(tight.solution.values - loose.solution.values).max() <= 1e-7 * scale


def test_a_shift_that_is_not_definite_is_named():
    # h = 1/100: 9,801 unknowns on an ordered half-band of 99
    for h in (1.0 / 16, 1.0 / 100):
        K, rhs = _shifted_system(euclidean(2), [(0, 1), (0, 1)], h)
        assert factor_pays(K.grid)
        c = np.full(K.grid.n_interior, -1e3)  # below -lam1 = -19.7
        with pytest.raises(NotPositiveDefiniteError,
                           match=r"^K \+ cM is not positive definite at shift in \[-1000, -1000\] "
                                 r"\(banded Cholesky failed: "):
            ShiftedSolver(K, c)


def test_yamabe_zero_reaction_constant():
    g, K, f, _, _ = yamabe_setup()
    z = GridField.zeros(g)
    res = yamabe_solve(K, z, z, 3.0, f, 0.0, 0.4)
    assert res.status == "ok"
    assert np.abs(res.solution.values[g.interior_ids] - 0.4).max() < 1e-8


def test_yamabe_bracket_and_trace():
    g, K, f, kf, Kf = yamabe_setup()
    res = yamabe_solve(K, kf, Kf, 3.0, f, 0.05, 0.4, tol=1e-8)
    assert res.status == "ok"
    assert res.residual <= 1e-8
    gi = g.interior_ids
    assert np.all(res.lower.values[gi] <= res.solution.values[gi] + 1e-12)
    assert np.all(res.solution.values[gi] <= res.upper.values[gi] + 1e-12)
    assert np.all(res.solution.values[g.boundary_ids] == 0.4)
    assert res.solution.values[gi].min() > 0
    assert res.steps_monotone


def test_yamabe_eps_sweep_each_contract_holds():
    g, K, f, kf, Kf = yamabe_setup()
    for eps in (0.35, 0.40, 0.45):
        res = yamabe_solve(K, kf, Kf, 3.0, f, 0.05, eps, tol=1e-8)
        assert res.status == "ok"
        assert np.all(res.solution.values[g.boundary_ids] == eps)


def test_yamabe_validates_domination():
    g, K, f, kf, Kf = yamabe_setup()
    big = GridField(g, 10 * np.ones(g.num_nodes))
    with pytest.raises(ValueError, match="theta f"):
        yamabe_solve(K, big, Kf, 3.0, f, 0.05, 0.4)


def test_exhaustion_zero_weight_constant():
    boxes = [[(-1, 1)] * 2, [(-1.5, 1.5)] * 2, [(-2, 2)] * 2]
    zero = exhaustion_boxes(euclidean(2), lambda pts: np.zeros(pts.shape[0]), boxes, 0.25)
    ex = exhaustion_construct(zero, 1.0)
    assert ex.statuses == ["ok", "ok", "ok"]
    for u in ex.fields:
        assert np.abs(u.values[u.grid.interior_ids] - 1.0).max() < 1e-10
    assert max(ex.successive_diffs) < 1e-10


def test_exhaustion_positive_weight_converging():
    boxes = [[(-1, 1)] * 2, [(-2, 2)] * 2, [(-3, 3)] * 2, [(-4, 4)] * 2]
    ex = exhaustion_construct(exhaustion_boxes(euclidean(2), lambda pts: np.ones(pts.shape[0]),
                                               boxes, 0.125), 0.3)
    assert ex.all_positive
    d = ex.successive_diffs
    assert all(a > b for a, b in zip(d, d[1:]))


def test_exhaustion_resonance_detected():
    # just below lam1, K - lam G is definite and the solution blows up; at the
    # computed lam1 it is singular to rounding, and either failure is right
    box = [(-1, 1)] * 2
    g = build_grid(box, 0.25)
    K = assemble_stiffness(euclidean(2), g)
    lam1 = principal_eigenpair(K, None, tol=1e-12).lam
    boxes = exhaustion_boxes(euclidean(2), lambda pts: np.ones(pts.shape[0]), [box], 0.25)
    ex = exhaustion_construct(boxes, lam1 * (1.0 - 1e-12))
    assert ex.statuses == ["resonance"] and ex.fields == [None]
    assert exhaustion_construct(boxes, lam1).statuses[0] in ("resonance", "not-definite")


def test_exhaustion_between_the_first_two_eigenvalues_is_not_positive():
    # lam = 8 lies between lam1 = 4.87 and lam2 = 11.81 of this box: K - lam G
    # is indefinite, so the factor refuses it and the box fails
    box = [(-1, 1)] * 2
    ex = exhaustion_construct(exhaustion_boxes(euclidean(2), lambda pts: np.ones(pts.shape[0]),
                                               [box], 0.25), 8.0)
    assert ex.statuses == ["not-definite"] and ex.fields == [None]
    assert ex.notes == ["box 1: lam=8 is not below the principal eigenvalue of D_1 "
                        "(K - lam G is not positive definite)"]


def test_exhaustion_boxes_built_once_serve_every_lam():
    def g_fn(pts):
        return 1.0 - 2.0 * np.exp(-((pts[:, 0] - 1.5) ** 2 + pts[:, 1] ** 2))

    boxes = [[(-1, 1)] * 2, [(-2, 2)] * 2]
    built = exhaustion_boxes(euclidean(2), g_fn, boxes, 0.25)
    assert [K.grid.dims for K, _ in built] == [(9, 9), (17, 17)]
    for lam in (0.2, 0.6):
        fresh = exhaustion_construct(exhaustion_boxes(euclidean(2), g_fn, boxes, 0.25), lam)
        reused = exhaustion_construct(built, lam)
        assert reused.statuses == fresh.statuses and reused.notes == fresh.notes
        assert reused.successive_diffs == fresh.successive_diffs
        for u, v in zip(reused.fields, fresh.fields):
            assert np.array_equal(u.values, v.values)


def test_exhaustion_factors_k_minus_lam_g_bit_for_bit():
    # the shift lam G is a vector, of both signs here
    def g_fn(pts):
        return 1.0 - 2.0 * np.exp(-((pts[:, 0] - 1.5) ** 2 + pts[:, 1] ** 2))

    boxes = exhaustion_boxes(euclidean(2), g_fn, [[(-1, 1)] * 2, [(-2, 2)] * 2], 0.25)
    assert any(G.min() < 0.0 < G.max() for _, G in boxes)
    ex = exhaustion_construct(boxes, 0.6)
    assert ex.statuses == ["ok", "ok"]
    for k, ((K, G), u) in enumerate(zip(boxes, ex.fields), start=1):
        bvec = np.full(K.grid.n_boundary, float(k))  # box k's datum is k
        x = factor_spd(K.mat - sp.diags(0.6 * G)).solve(-K.boundary @ bvec)
        ref = GridField.from_interior(K.grid, x, bvec)
        origin = K.grid.nearest_node(np.zeros(2))
        assert np.array_equal(u.values, (ref * (1.0 / float(ref.values[origin]))).values)


def test_exhaustion_fails_each_box_whose_principal_eigenvalue_lam_exceeds():
    # g = 1: lam1 is 4.87 on D_1 and 1.24 on D_2, so lam = 3 passes D_1 only
    boxes = [[(-1, 1)] * 2, [(-2, 2)] * 2]
    ex = exhaustion_construct(exhaustion_boxes(euclidean(2), lambda pts: np.ones(pts.shape[0]),
                                               boxes, 0.25), 3.0)
    assert ex.statuses == ["ok", "not-definite"] and ex.fields[1] is None
    assert ex.notes == ["box 2: lam=3 is not below the principal eigenvalue of D_2 "
                        "(K - lam G is not positive definite)"]
    rep = verify_thm_1_3(euclidean(2), "1 + 0*x", "1 + 0*x", [1.0], boxes, 0.25, mu=3.0)
    assert rep.total == 1 and not rep.passed and rep.cases[0].margin == -1.0
    assert rep.cases[0].note == ex.notes[0]


def test_logistic_without_a_dyadic_subsolution_reports_it():
    # b = 1e20 puts Mcap = max a/b below every dyadic eps*phi the search tries
    g, K, a, _, eig = logistic_setup(1.0 / 8)
    res = logistic_solve(K, a, GridField.constant(g, 1e20), 2 * eig.lam, 2.0, eig)
    assert res.status == "no-subsolution" and res.iterations == 0
    assert not res.bracket_respected and np.isnan(res.residual)
    assert res.notes == ["no dyadic eps made eps*phi a discrete subsolution"]
    assert np.all(res.solution.values == 0.0) and np.all(res.upper.values == 1e-20)


def test_exhaustion_validates_boxes():
    with pytest.raises(ValueError, match="increasing"):
        exhaustion_boxes(euclidean(2), lambda pts: np.ones(pts.shape[0]),
                         [[(-2, 2)] * 2, [(-1, 1)] * 2], 0.25)


def test_logistic_runs_solve_the_weighted_pencil_once(monkeypatch, tmp_path):
    # the caller solves K u = mu1 a u once and hands the pair to every logistic_solve
    calls = []
    orig = spla.eigsh

    def counted(*args, **kwargs):
        calls.append(1)
        return orig(*args, **kwargs)

    monkeypatch.setattr(spla, "eigsh", counted)
    cfg = tmp_path / "l.json"
    cfg.write_text(json.dumps({"family": "euclidean(2)",
                               "grid": {"box": [[0, 1], [0, 1]], "h": 0.125},
                               "a": "1 + 0*x", "b": "1 + 0*x", "p": 2.0, "mu_factor": 2.0}))
    assert main(["--config", str(cfg), "--out", str(tmp_path / "o"), "solve", "logistic"]) == 0
    assert len(calls) == 1
    calls.clear()
    g = build_grid([(0, 1), (0, 1)], 0.125)
    rep = verify_prop_4_2(euclidean(2), g, "1 + 0*x", "1 + 0*x", 2.0, [0.5, 2.0, 4.0])
    assert rep.passed and rep.total == 3
    assert len(calls) == 1


def _near_threshold_runs(monkeypatch):
    """Both monotone runs of the benchmark's prop4_2 case mu = 1.01 mu1 (h = 1/32), and K."""
    runs, problems = [], []
    orig = sm.monotone_iterate

    def counted(problem, *args, **kwargs):
        problems.append(problem)
        runs.append(orig(problem, *args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(sm, "monotone_iterate", counted)
    g = build_grid([(0, 1), (0, 1)], 1.0 / 32)
    rep = verify_prop_4_2(euclidean(2), g, "1 + 0*x", "1 + 0*x", 2.0, [1.01])
    assert rep.passed and len(runs) == 2
    assert problems[0].K is problems[1].K
    return runs, problems[0].K


def test_prop4_2_near_threshold_runs_stay_under_20_newton_steps(monkeypatch):
    # with a scalar shift the two runs took 978 and 979 steps (1,973 and
    # 3,967 with the starting bracket's shift kept throughout)
    runs, _ = _near_threshold_runs(monkeypatch)
    for res in runs:
        assert res.status == "ok" and res.steps_monotone and res.bracket_respected
        assert res.iterations <= 20


def test_prop4_2_near_threshold_runs_lie_within_1e_8_of_a_newton_reference(monkeypatch,
                                                                           damped_newton_logistic):
    # with a scalar shift the runs stopped 5.2e-5 from the solution, and
    # Newton stopped on the residual alone 1.5e-8: near the bifurcation the
    # linearization's smallest eigenvalue is about mu - mu1, so a residual
    # below tol leaves an error far above it
    runs, K = _near_threshold_runs(monkeypatch)
    g = K.grid
    one = GridField.constant(g, 1.0)
    mu = 1.01 * weighted_principal(K, assemble_diagonal(one), tol=1e-9).lam
    ref = damped_newton_logistic(K, one, one, mu, 2.0, one, tol=1e-14)
    w = g.h ** g.n
    ri = ref.values[g.interior_ids]
    assert np.linalg.norm(K.mat @ ri - w * mu * ri * (1.0 - ri)) <= 1e-14
    assert ri.min() > 0.0  # the positive solution, not u = 0
    for res in runs:
        rel = np.abs(res.solution.values - ref.values).max() / np.abs(ref.values).max()
        assert rel <= 1e-8


def test_newton_on_the_3d_cg_path_descends_in_fewer_cg_steps():
    # the benchmark's logistic grid: 3,375 unknowns, a top separator of 225
    g = build_grid([(-1, 1)] * 3, 1.0 / 8)
    assert not factor_pays(g)
    K = assemble_stiffness(heisenberg(), g)
    one = GridField.constant(g, 1.0)
    eig = weighted_principal(K, assemble_diagonal(one))
    res = logistic_solve(K, one, one, 2 * eig.lam, 2.0, eig)
    assert res.status == "ok" and res.steps_monotone and res.bracket_respected
    assert len(res.shifts) == res.iterations and all(np.ndim(c) == 1 for c in res.shifts)
    logistic = logistic_problem(K, one, one, 2 * eig.lam, 2.0)
    ids = g.interior_ids
    c0 = float(logistic.shift(res.lower.values[ids], res.upper.values[ids]).max())
    fixed = dataclasses.replace(logistic, shift=lambda lo, u: np.full_like(u, c0))
    ref = monotone_iterate(fixed, res.lower, res.upper)
    assert ref.status == "ok" and res.iterations < ref.iterations
    assert 0 < res.cg_iterations < ref.cg_iterations


def test_a_wrong_sign_shift_is_refused_before_any_solve(monkeypatch):
    # c = +F'(u) instead of -F'(u): at the top of the bracket the sampled
    # -dF/du lies above it, and the check names the node before anything is
    # factored
    g, K, a, b, eig = logistic_setup(1.0 / 8)
    problem = logistic_problem(K, a, b, 2 * eig.lam, 2.0)
    wrong = dataclasses.replace(problem, shift=lambda lo, u: -problem.shift(lo, u))
    calls = _count_factors(monkeypatch)
    monkeypatch.setattr(sm, "MAX_ITER_MONOTONE", 1)
    with pytest.raises(ValueError, match=r"^shift \S+ below the sampled -dF/du \S+ on "
                                         r"\[0, 1\] at node \d+$"):
        monotone_iterate(wrong, GridField.zeros(g), GridField.constant(g, 1.0))
    assert calls == []


def test_semilinear_does_not_import_eigen():
    imported = set()
    for node in ast.walk(ast.parse(Path(sm.__file__).read_text())):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ["sublap" if node.level else None, node.module]))
            imported.add(module)
            imported.update(f"{module}.{alias.name}" for alias in node.names)
    assert "sublap.fields" in imported or "sublap.mesh" in imported  # the scan sees sublap imports
    assert not {n for n in imported if n == "sublap.eigen" or n.startswith("sublap.eigen.")}
