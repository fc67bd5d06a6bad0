import functools
import json

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

import sublap.cli as cli_mod
import sublap.eigen as eigen_mod
import sublap.operators as operators_mod
from sublap.cli import main
from sublap.eigen import (
    ConvergenceError,
    DEFAULT_TOL,
    epsilon_path,
    principal_eigenpair,
    weighted_principal,
)
from sublap.expressions import compile_expression
from sublap.fields import euclidean, grushin, heisenberg
from sublap.mesh import GridField, build_grid, coarse_grid, mask_domain
from sublap.operators import (
    NotPositiveDefiniteError,
    SparseOperator,
    assemble_diagonal,
    assemble_stiffness,
    mass_matrix,
    shifted_copy,
)
from sublap.verify import verify_thm_1_2

# DIRECT_MAX_SEPARATOR values that force each path of principal_eigenpair
SOLVER_PATHS = pytest.mark.parametrize("max_separator", [operators_mod.DIRECT_MAX_SEPARATOR, -1],
                                       ids=["shift-invert", "lobpcg"])
THM_1_2_U = "exp(0.2*(x + y + t))"


def dense_smallest(K, Vdiag, M):
    """Dense oracle: smallest eigenvalue of (K - V) u = lam M u; V, M diagonal vectors."""
    S = np.diag(1.0 / np.sqrt(M))
    A = K.mat.toarray()
    if Vdiag is not None:
        A = A - np.diag(Vdiag)
    A = S @ A @ S
    return float(scipy.linalg.eigvalsh((A + A.T) / 2)[0])


def dense_weighted_principal(K, gdiag):
    """Dense oracle: lam = 1 / mu_max of the pencil G w = mu K w via Cholesky."""
    L = scipy.linalg.cholesky(K.mat.toarray(), lower=True)
    G = np.diag(gdiag)
    tmp = scipy.linalg.solve_triangular(L, G, lower=True)
    C = scipy.linalg.solve_triangular(L, tmp.T, lower=True)
    mu = scipy.linalg.eigvalsh((C + C.T) / 2)
    return 1.0 / float(mu[-1])


def unit_square_setup(h):
    g = build_grid([(0, 1), (0, 1)], h)
    K = assemble_stiffness(euclidean(2), g)
    M = mass_matrix(g)
    return g, K, M


def test_principal_matches_exact_discrete_eigenvalue():
    # the 5-point stencil eigenvalue on the unit square is known in closed
    # form: (8/h^2) sin^2(pi h / 2)
    g, K, M = unit_square_setup(1.0 / 32)
    res = principal_eigenpair(K, None, tol=1e-10)
    exact = (8.0 / g.h**2) * np.sin(np.pi * g.h / 2) ** 2
    assert abs(res.lam - exact) < 1e-8
    assert res.residual <= 1e-10
    assert res.positive
    assert abs(res.lam - 2 * np.pi**2) < 0.01 * 2 * np.pi**2


def test_eigenfield_m_normalized_and_sign_fixed():
    g, K, M = unit_square_setup(1.0 / 16)
    res = principal_eigenpair(K, None, tol=1e-10)
    u = res.eigenfield.values[g.interior_ids]
    assert abs(u @ (M * u) - 1.0) < 1e-10
    assert u[np.argmax(np.abs(u))] > 0


def test_potential_shift_identity():
    g, K, M = unit_square_setup(1.0 / 32)
    lam0 = principal_eigenpair(K, None, tol=1e-11).lam
    for c in (-3.0, 0.0, 5.0):
        Vd = assemble_diagonal(GridField.constant(g, c))
        lam = principal_eigenpair(K, Vd, tol=1e-11).lam
        assert abs(lam - (lam0 - c)) < 1e-10


def test_principal_matches_dense_on_heisenberg():
    g = build_grid([(-1, 1)] * 3, 0.25)
    K = assemble_stiffness(heisenberg(), g)
    M = mass_matrix(g)
    res = principal_eigenpair(K, None, tol=1e-9)
    lam_dense = dense_smallest(K, None, M)
    assert abs(res.lam - lam_dense) < 1e-8
    assert res.positive


def test_heisenberg_self_convergence_richardson():
    # first-order scheme: Richardson extrapolations from successive pairs
    # agree within 2%
    lams = []
    for h in (1.0 / 4, 1.0 / 8, 1.0 / 16):
        g = build_grid([(-1, 1)] * 3, h)
        K = assemble_stiffness(heisenberg(), g)
        lams.append(principal_eigenpair(K, None, tol=1e-9).lam)
    rich1 = 2 * lams[1] - lams[0]
    rich2 = 2 * lams[2] - lams[1]
    assert abs(rich1 - rich2) < 0.02 * abs(rich2)


def test_non_convergence_reported(monkeypatch):
    # on this pencil shift-invert ARPACK needs two Arnoldi updates at tol 1e-14
    K, _, M = heisenberg_cube_pencil(0.25)
    monkeypatch.setattr(eigen_mod, "MAX_ITER", 1)
    with pytest.raises(ConvergenceError, match=r"\(shift-invert ARPACK\) did not converge after "
                                               r"\d+ operator applications$"):
        principal_eigenpair(K, None, tol=1e-14)
    monkeypatch.setattr(eigen_mod, "MAX_ITER", 2)
    assert principal_eigenpair(K, None, tol=1e-14).residual <= 1e-14


@pytest.mark.parametrize("h", [0.5, 0.25], ids=["one-unknown", "nine-unknowns"])
def test_principal_small_systems_match_dense_oracle(h):
    # below DENSE_MAX_N unknowns the pencil goes to a dense eigh
    g, K, M = unit_square_setup(h)
    Vd = assemble_diagonal(GridField.from_function(g, lambda pts: 3.0 * pts[:, 0]))
    res = principal_eigenpair(K, Vd, tol=1e-10)
    assert K.shape[0] < eigen_mod.DENSE_MAX_N and res.iterations == 0
    assert abs(res.lam - dense_smallest(K, Vd, M)) <= 1e-10 * max(1.0, abs(res.lam))
    assert res.positive and not res.degenerate


def test_lobpcg_non_convergence_names_path_residual_and_iterations(monkeypatch):
    # LOBPCG only warns when it stops short; the residual check must raise
    monkeypatch.setattr(operators_mod, "DIRECT_MAX_SEPARATOR", -1)
    monkeypatch.setattr(eigen_mod, "MAX_ITER", 1)
    g, K, M = unit_square_setup(1.0 / 16)
    with pytest.raises(ConvergenceError, match=r"\(LOBPCG\) residual .* after \d+ iterations "
                                               r"\(\d+ inner CG steps\)$") as err:
        principal_eigenpair(K, None, tol=1e-14)
    assert err.value.residual > 1e-14 and 1 <= err.value.iterations <= 2


def test_weighted_unit_weight_reduces_to_unweighted():
    g, K, M = unit_square_setup(1.0 / 16)
    direct = principal_eigenpair(K, None, tol=1e-10).lam
    G = assemble_diagonal(GridField.constant(g, 1.0))
    w = weighted_principal(K, G, tol=1e-10)
    assert abs(w.lam - direct) < 1e-8
    assert w.positive


def test_weighted_scaling_identity():
    g, K, M = unit_square_setup(1.0 / 16)
    G1 = assemble_diagonal(GridField.constant(g, 1.0))
    G2 = assemble_diagonal(GridField.constant(g, 2.0))
    w1 = weighted_principal(K, G1, tol=1e-10)
    w2 = weighted_principal(K, G2, tol=1e-10)
    assert abs(w2.lam - w1.lam / 2) < 1e-8 * max(1.0, w1.lam)
    diff = np.abs(w1.eigenfield.values - w2.eigenfield.values).max()
    assert diff < 1e-8


def check_weighted_against_dense(family, box, h, weight):
    g = build_grid(box, h)
    K = assemble_stiffness(family, g)
    G = assemble_diagonal(GridField.from_function(g, weight))
    w = weighted_principal(K, G, tol=1e-9)
    lam_dense = dense_weighted_principal(K, G)
    assert abs(w.lam - lam_dense) < 1e-8
    assert w.positive


def test_weighted_sign_changing_matches_dense_oracle():
    check_weighted_against_dense(euclidean(2), [(0, 1)] * 2, 1.0 / 16,
                                 lambda pts: 1.0 - 2.0 * (pts[:, 0] > 0.5))


@pytest.mark.parametrize("family,box,h,weight", [
    # mostly negative: the slowest case for power iteration on the pencil
    (euclidean(2), [(0, 1)] * 2, 1.0 / 16, lambda pts: np.where(pts[:, 0] > 0.8, 1.0, -5.0)),
    (heisenberg(), [(-0.5, 0.5)] * 3, 1.0 / 8, lambda pts: 1.0 - 2.0 * (pts[:, 0] > 0.2)),
    (euclidean(2), [(0, 1)] * 2, 0.5, lambda pts: np.full(pts.shape[0], 3.0)),  # one node
], ids=["mostly-negative", "heisenberg-sign-changing", "one-interior-node"])
def test_weighted_hard_cases_match_dense_oracle(family, box, h, weight):
    check_weighted_against_dense(family, box, h, weight)


def test_factor_spd_counts_solves_and_matvecs_alike():
    g, K, M = unit_square_setup(1.0 / 8)
    op = operators_mod.factor_spd(K.mat)
    b = np.arange(1.0, g.n_interior + 1)
    x = spla.splu(K.mat.tocsc()).solve(b)
    assert op.calls == 0 and op.shape == K.shape
    for y in (op.solve(b), op.matvec(b), op @ b):
        assert np.allclose(y, x, rtol=1e-12, atol=0.0)
    assert op.calls == 3
    # the band of the ordered K is held, its stored entries readable
    assert op.band.shape == (8, g.n_interior) and op.nnz == op.band.size >= K.mat.nnz


def test_eigensolves_name_a_factor_that_is_not_definite():
    # -K is negative definite: no shift below the spectrum of a PSD K makes
    # -K - sigma I definite, and the weighted pencil cannot factor -K
    g, K, M = unit_square_setup(1.0 / 8)
    neg = SparseOperator(grid=g, mat=-K.mat)
    with pytest.raises(NotPositiveDefiniteError, match=r"^principal eigensolve: A - sigma I is "
                                                       r"not positive definite at sigma = -\S+, "):
        principal_eigenpair(neg, None)
    with pytest.raises(NotPositiveDefiniteError,
                       match=r"^weighted eigensolve: K is not positive definite \("):
        weighted_principal(neg, assemble_diagonal(GridField.constant(g, 1.0)))


@pytest.mark.parametrize("solver", ["principal", "weighted"])
def test_direct_eigensolve_iterations_are_its_factor_calls(monkeypatch, solver):
    made = []
    real = eigen_mod.factor_spd
    monkeypatch.setattr(eigen_mod, "factor_spd", lambda *args: made.append(real(*args)) or made[-1])
    g, K, M = unit_square_setup(1.0 / 8)
    if solver == "principal":
        res = principal_eigenpair(K, None)
    else:
        res = weighted_principal(K, assemble_diagonal(GridField.constant(g, 1.0)))
    assert len(made) == 1 and res.iterations == made[0].calls > 0


def test_weighted_counts_k_solves_and_reports_arpack_failure(monkeypatch):
    g, K, M = unit_square_setup(1.0 / 8)
    G = assemble_diagonal(GridField.constant(g, 1.0))
    solves = []
    real = eigen_mod.factor_spd

    def counted_factor(*args):
        factor = real(*args)
        solve = factor.solve

        def counted(b):
            solves.append(1)
            return solve(b)
        factor.solve = factor._matvec = counted
        return factor

    monkeypatch.setattr(eigen_mod, "factor_spd", counted_factor)
    assert weighted_principal(K, G).iterations == len(solves) > 0

    def no_convergence(*args, **kwargs):
        raise spla.ArpackNoConvergence("stopped", np.zeros(0), np.zeros((K.shape[0], 0)))

    monkeypatch.setattr(spla, "eigsh", no_convergence)
    with pytest.raises(ConvergenceError, match="ARPACK did not converge") as err:
        weighted_principal(K, G)
    assert err.value.iterations == 0


def test_weighted_reports_a_residual_above_tol():
    # ARPACK stops near machine precision, far above a tolerance of 1e-30
    g, K, M = unit_square_setup(1.0 / 8)
    with pytest.raises(ConvergenceError, match=r"weighted eigensolve residual .* above tol "
                                               r"1\.000e-30 after \d+ K-solves") as err:
        weighted_principal(K, assemble_diagonal(GridField.constant(g, 1.0)), tol=1e-30)
    assert err.value.residual > 1e-30 and err.value.iterations > 0
    assert err.value.lam == pytest.approx(weighted_principal(K, M).lam, rel=1e-9)


def test_weighted_refuses_a_nan_residual(monkeypatch):
    # a NaN residual is not within tol: the weighted solve used to return it
    g, K, M = unit_square_setup(1.0 / 8)
    monkeypatch.setattr(spla, "eigsh", lambda *args, **kwargs: (
        np.ones(1), np.full((K.shape[0], 1), np.nan)))
    with pytest.raises(ConvergenceError, match=r"^weighted eigensolve residual nan above tol "
                                               r"1\.000e-08 after 0 K-solves$") as err:
        weighted_principal(K, assemble_diagonal(GridField.constant(g, 1.0)))
    assert np.isnan(err.value.residual) and err.value.lam == 1.0


def test_weighted_result_reports_degenerate_null():
    # the pencil solve computes no second eigenvalue
    g, K, M = unit_square_setup(1.0 / 8)
    res = weighted_principal(K, assemble_diagonal(GridField.constant(g, 1.0)))
    assert res.degenerate is None
    assert json.dumps(res.to_json_dict()).endswith('"degenerate": null}')


def test_weighted_nonpositive_weight_rejected():
    g, K, M = unit_square_setup(1.0 / 8)
    G = assemble_diagonal(GridField.constant(g, -1.0))
    with pytest.raises(ValueError, match="no positive principal eigenvalue"):
        weighted_principal(K, G)


def test_variational_lower_bound():
    g, K, M = unit_square_setup(1.0 / 16)
    lam = principal_eigenpair(K, None, tol=1e-10).lam
    rng = np.random.default_rng(12)
    for _ in range(50):
        f = rng.standard_normal(g.num_nodes)[g.interior_ids]
        assert f @ (K.mat @ f) / (f @ (M * f)) >= lam - 1e-8


def test_epsilon_path_euclidean_scaling_identity():
    g, K, M = unit_square_setup(1.0 / 16)
    lam0 = principal_eigenpair(K, None, tol=1e-11).lam
    path = epsilon_path(euclidean(2), g, None, [0.5, 0.25, 0.1], tol=1e-11)
    for eps, lam in path:
        assert abs(lam - (1 + eps) * lam0) < 1e-8 * max(1.0, lam0)


@SOLVER_PATHS
def test_epsilon_path_heisenberg_decreasing_with_dense_crosscheck(monkeypatch, max_separator):
    monkeypatch.setattr(operators_mod, "DIRECT_MAX_SEPARATOR", max_separator)
    heis = heisenberg()
    g = build_grid([(-1, 1)] * 3, 0.25)
    eps_list = [0.5, 0.25, 0.1, 0.01, 0.0]
    path = epsilon_path(heis, g, None, eps_list, tol=1e-9)
    lams = [lam for _, lam in path]
    assert all(a > b for a, b in zip(lams, lams[1:]))
    # dense cross-check at every eps
    K = assemble_stiffness(heis, g)
    K_euc = assemble_stiffness(euclidean(3), g)
    M = mass_matrix(g)
    from sublap.operators import SparseOperator

    for (eps, lam) in path:
        mat = (K.mat + eps * K_euc.mat).tocsr()
        Keps = SparseOperator(grid=g, mat=((mat + mat.T) * 0.5).tocsr())
        assert abs(lam - dense_smallest(Keps, None, M)) < 1e-8


def record_principal(monkeypatch):
    """The list that every later eigen._principal call appends its result to."""
    solves = []
    real = eigen_mod._principal
    monkeypatch.setattr(eigen_mod, "_principal", lambda *args: solves.append(real(*args)) or solves[-1])
    return solves


def test_warm_start_matches_cold_in_fewer_lobpcg_steps(monkeypatch):
    # the epsilon path starts each solve after the first from the previous
    # eps's vector; a path of eps = 0.1 alone solves it cold
    monkeypatch.setattr(operators_mod, "DIRECT_MAX_SEPARATOR", -1)
    solves = record_principal(monkeypatch)
    g = build_grid([(-1, 1)] * 3, 1.0 / 8)
    epsilon_path(heisenberg(), g, None, [0.25, 0.1], tol=1e-9)
    epsilon_path(heisenberg(), g, None, [0.1], tol=1e-9)
    _, warm, cold = solves
    assert abs(warm.lam - cold.lam) <= 1e-10 * abs(cold.lam)
    assert warm.iterations < cold.iterations
    # the start vectors are M-orthonormal and stay out of the report and the repr
    V, M = warm.vectors, mass_matrix(g)
    assert np.allclose(V.T @ (M[:, None] * V), np.eye(1), atol=1e-12)
    assert np.array_equal(V[:, 0], warm.eigenfield.values[warm.eigenfield.grid.interior_ids])
    assert "vectors" not in warm.to_json_dict() and "vectors" not in repr(warm)


@SOLVER_PATHS
def test_pairs_validated_sets_the_vector_columns_and_degenerate(monkeypatch, max_separator):
    monkeypatch.setattr(operators_mod, "DIRECT_MAX_SEPARATOR", max_separator)
    g, K, M = unit_square_setup(1.0 / 16)
    for bad in (0, 3):
        with pytest.raises(ValueError, match="pairs must be 1 or 2"):
            principal_eigenpair(K, None, pairs=bad)
    one = principal_eigenpair(K, None, tol=1e-10, pairs=1)
    two = principal_eigenpair(K, None, tol=1e-10)
    assert one.vectors.shape == (g.n_interior, 1) and two.vectors.shape == (g.n_interior, 2)
    assert abs(one.lam - two.lam) <= 1e-10 * two.lam
    # pairs=1 never computes lambda_2, so its report must not claim "false"
    assert one.degenerate is None and two.degenerate is False
    assert json.dumps(one.to_json_dict()).endswith('"degenerate": null}')
    assert json.dumps(two.to_json_dict()).endswith('"degenerate": false}')


@functools.lru_cache(maxsize=1)
def heisenberg_potential_pencil():
    """Heisenberg (-1, 1)^2 x (-1/2, 1/2) at h = 1/8, a sign-changing potential, dense lambda_1."""
    g = build_grid([(-1, 1), (-1, 1), (-0.5, 0.5)], 1.0 / 8)
    K = assemble_stiffness(heisenberg(), g)
    V = GridField.from_function(g, lambda pts: 4.0 * pts[:, 0] + 2.0 * pts[:, 2] ** 2)
    Vd = assemble_diagonal(V)
    M = mass_matrix(g)
    return g, K, Vd, M, dense_smallest(K, Vd, M)


@pytest.mark.parametrize("tol", [1e-8, 1e-10])
def test_lobpcg_stop_rule_meets_the_final_residual_check(monkeypatch, tol):
    # LOBPCG stops at ||A y - lam y|| <= 0.5 tol / max(M), which bounds the
    # residual of the final check by tol / 2 on any eps and potential
    monkeypatch.setattr(operators_mod, "DIRECT_MAX_SEPARATOR", -1)
    g, K, Vd, M, exact = heisenberg_potential_pencil()
    cold = principal_eigenpair(K, Vd, tol=tol)
    solves = record_principal(monkeypatch)
    path = epsilon_path(heisenberg(), g, Vd, [0.5, 0.25, 0.1, 0.01, 0.0], tol=tol)
    assert cold.residual <= tol and cold.degenerate is False
    assert len(solves) == 5
    assert all(r.residual <= tol and r.degenerate is None for r in solves)
    for lam in (cold.lam, path[-1][1]):
        assert abs(lam - exact) <= 1e-10 * abs(exact)


def test_epsilon_path_failure_names_eps(monkeypatch):
    # only the warm-started solves are cut short, so the path fails at its second eps
    monkeypatch.setattr(operators_mod, "DIRECT_MAX_SEPARATOR", -1)

    def short_when_warm(grid, K, vdiag, mdiag, tol, start, pairs, real=eigen_mod._principal):
        if start is not None:
            tol = 1e-14
            monkeypatch.setattr(eigen_mod, "MAX_ITER", 1)
        return real(grid, K, vdiag, mdiag, tol, start, pairs)

    monkeypatch.setattr(eigen_mod, "_principal", short_when_warm)
    g = build_grid([(0, 1), (0, 1)], 1.0 / 16)
    with pytest.raises(ConvergenceError, match=r"^epsilon path at eps=0\.25: principal eigensolve "
                                               r"\(LOBPCG\) residual") as err:
        epsilon_path(euclidean(2), g, None, [0.5, 0.25, 0.0], tol=1e-9)
    assert err.value.residual > 1e-14 and err.value.lam > 0 and 1 <= err.value.iterations <= 2


def test_epsilon_path_not_decreasing_lists_the_pairs(monkeypatch):
    def flat(*args, real=eigen_mod._principal):
        res = real(*args)
        res.lam = 1.0
        return res

    monkeypatch.setattr(eigen_mod, "_principal", flat)
    g = build_grid([(0, 1), (0, 1)], 1.0 / 8)
    with pytest.raises(ConvergenceError, match=r"not strictly decreasing: \[\(0\.5, 1\.0\), "
                                               r"\(0\.25, 1\.0\)\]") as err:
        epsilon_path(euclidean(2), g, None, [0.5, 0.25])
    assert err.value.lam == 1.0 and err.value.iterations is None


def test_epsilon_path_validates_ordering():
    g, K, M = unit_square_setup(1.0 / 8)
    with pytest.raises(ValueError):
        epsilon_path(euclidean(2), g, None, [0.1, 0.5])
    with pytest.raises(ValueError):
        epsilon_path(euclidean(2), g, None, [0.5, -0.1])
    with pytest.raises(ValueError, match="^eps values must be finite and nonnegative$"):
        epsilon_path(euclidean(2), g, None, [np.inf, 0.0])


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
        Vd = None
        if V is not None:
            Vd = assemble_diagonal(GridField.from_function(g, V))
        lams.append(principal_eigenpair(K, Vd, tol=tol).lam)
    for a, b in zip(lams, lams[1:]):
        if b > a + 10 * tol * max(1.0, abs(a)):
            raise ConvergenceError(f"domain monotonicity violated: {lams}")
    return lams


def test_domain_monotonicity_square_scaling():
    # Dirichlet eigenvalue scales like side^-2
    g = build_grid([(0, 1), (0, 1)], 1.0 / 32)
    inner = mask_domain(g, lambda pts: np.all(np.abs(pts - 0.5) <= 0.25 + 1e-12, axis=1))
    lams = domain_monotonicity(euclidean(2), None, [inner, g])
    assert lams[0] > lams[1]
    assert abs(lams[0] / lams[1] - 4.0) < 0.1 * 4.0


def test_domain_monotonicity_identical_masks():
    g = build_grid([(0, 1), (0, 1)], 1.0 / 16)
    lams = domain_monotonicity(euclidean(2), None, [g, g])
    assert abs(lams[0] - lams[1]) < 1e-9 * max(1.0, abs(lams[0]))


def test_domain_monotonicity_heisenberg_nested():
    heis = heisenberg()
    g = build_grid([(-1, 1)] * 3, 1.0 / 8)
    inner = mask_domain(g, lambda pts: np.all(np.abs(pts) <= 0.5 + 1e-12, axis=1))
    lams = domain_monotonicity(heis, None, [inner, g])
    assert lams[0] > lams[1]


def test_domain_monotonicity_with_a_constant_potential_shifts_every_eigenvalue():
    # V = 3 lowers each lambda_1 of H - V by exactly 3
    g = build_grid([(0, 1), (0, 1)], 1.0 / 16)
    inner = mask_domain(g, lambda pts: np.all(np.abs(pts - 0.5) <= 0.25 + 1e-12, axis=1))
    free = domain_monotonicity(euclidean(2), None, [inner, g])
    shifted = domain_monotonicity(euclidean(2), lambda pts: np.full(len(pts), 3.0), [inner, g])
    assert shifted[0] > shifted[1]
    for lam_v, lam in zip(shifted, free):
        assert abs(lam_v - (lam - 3.0)) <= 1e-6 * max(1.0, abs(lam))


def test_domain_monotonicity_rejects_non_nested():
    g = build_grid([(0, 1), (0, 1)], 1.0 / 16)
    left = mask_domain(g, lambda pts: pts[:, 0] <= 0.5)
    right = mask_domain(g, lambda pts: pts[:, 0] >= 0.5)
    with pytest.raises(ValueError, match="not nested"):
        domain_monotonicity(euclidean(2), None, [left, right])


def check_degeneracy_flag():
    # two identical disjoint squares: the ground state is (near) twofold
    # degenerate and the flag must fire; a single square must not set it
    g = build_grid([(0, 1), (0, 1)], 1.0 / 16)
    two = mask_domain(
        g, lambda pts: (pts[:, 0] <= 0.4375 + 1e-12) | (pts[:, 0] >= 0.5625 - 1e-12)
    )
    K = assemble_stiffness(euclidean(2), two)
    res = principal_eigenpair(K, None, tol=1e-9)
    assert res.degenerate
    K1 = assemble_stiffness(euclidean(2), g)
    res1 = principal_eigenpair(K1, None, tol=1e-9)
    assert not res1.degenerate


def test_degeneracy_flag_on_disconnected_domain():
    check_degeneracy_flag()


def test_degeneracy_flag_on_the_lobpcg_path(monkeypatch):
    monkeypatch.setattr(operators_mod, "DIRECT_MAX_SEPARATOR", -1)
    check_degeneracy_flag()


def test_cli_eigen_reports_degeneracy_from_the_solve(monkeypatch, tmp_path):
    # a wall of large -V at x = 0.5 splits the square into two equal wells
    solves = []

    def recorded(*args, **kwargs):
        solves.append(principal_eigenpair(*args, **kwargs))
        return solves[-1]

    monkeypatch.setattr(cli_mod, "principal_eigenpair", recorded)
    for potential, expected in (("-1e6 * (abs(x - 0.5) < 0.1)", True), ("0", False)):
        cfg = tmp_path / "eigen.json"
        cfg.write_text(json.dumps({"family": "euclidean(2)", "potential": potential,
                                   "grid": {"box": [[0, 1], [0, 1]], "h": 0.0625}}))
        out = tmp_path / f"out-{expected}"
        assert main(["--config", str(cfg), "--out", str(out), "eigen"]) == 0
        report = json.loads((out / "report.json").read_text())["results"]["eigen"]
        assert report["degenerate"] is solves[-1].degenerate is expected
    assert len(solves) == 2


@functools.lru_cache(maxsize=1)
def thm_1_2_setup():
    """Heisenberg (-1, 1)^3 at h = 1/8 and the potential V = K u / M u of verify thm1_2."""
    g = build_grid([(-1, 1)] * 3, 1.0 / 8)
    K = assemble_stiffness(heisenberg(), g)
    u = GridField.from_function(g, compile_expression(THM_1_2_U, 3))
    V = np.zeros(g.num_nodes)
    V[g.interior_ids] = K.apply(u) / (g.h**3 * u.values[g.interior_ids])
    return g, V


def thm_1_2_pencil(lo, hi, bump):
    """K, V and M of verify thm1_2 on the subbox [lo, hi], V lowered by `bump`."""
    g, V = thm_1_2_setup()
    sub = mask_domain(g, lambda pts: np.all((pts >= lo) & (pts <= hi), axis=1))
    return (assemble_stiffness(heisenberg(), sub),
            assemble_diagonal(GridField(sub, V - bump)), mass_matrix(sub))


def check_against_dense(K, Vd, M):
    lam = principal_eigenpair(K, Vd).lam
    exact = dense_smallest(K, Vd, M)
    assert abs(lam - exact) <= 1e-9 * max(1.0, abs(exact))


@st.composite
def pencils(draw):
    """A Heisenberg h=1/8 subbox with the thm1_2 potential, or a 2D grid with a potential."""
    # sizes are drawn as offsets below the largest box, so examples start
    # near n = 1,331 (3D) or 1,444 (2D) and shrink towards smaller boxes
    if draw(st.booleans()):
        h = 1.0 / 8
        lo = np.array([draw(st.integers(0, 4)) for _ in range(3)])
        size = np.array([12 - draw(st.integers(0, 8)) for _ in range(3)])
        return thm_1_2_pencil(lo * h - 1 - 1e-9, (lo + size) * h - 1 + 1e-9,
                              draw(st.sampled_from([0.0, 0.5])))
    family = draw(st.sampled_from([euclidean(2), grushin()]))
    h = 1.0 / 16
    g = build_grid([(-1, (39 - draw(st.integers(0, 35))) * h - 1),
                    (-1, (39 - draw(st.integers(0, 35))) * h - 1)], h)
    c, a, k = draw(st.floats(-40, 40)), draw(st.floats(0, 200)), draw(st.integers(1, 4))
    V = GridField.from_function(
        g, lambda pts: c + a * np.sin(k * np.pi * pts[:, 0]) * np.cos(np.pi * pts[:, 1]))
    return assemble_stiffness(family, g), assemble_diagonal(V), mass_matrix(g)


@SOLVER_PATHS
@settings(max_examples=10)
@given(pencil=pencils())
def test_principal_matches_dense_oracle_property(max_separator, pencil):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(operators_mod, "DIRECT_MAX_SEPARATOR", max_separator)
        check_against_dense(*pencil)


@SOLVER_PATHS
@pytest.mark.parametrize("potential", [False, True], ids=["no-potential", "potential"])
def test_pencil_scaling_with_a_varying_mass_matches_dense_oracle(monkeypatch, max_separator,
                                                                 potential):
    # only the coarse levels pass a non-constant M; here it goes to _principal
    # directly, on a non-dyadic h where s = M^{-1/2} is inexact, and every pencil a
    # solver receives (this level's and the coarse ones') is exactly symmetric
    monkeypatch.setattr(operators_mod, "DIRECT_MAX_SEPARATOR", max_separator)
    seen = []
    for name in ("factor_spd", "shifted_copy"):
        real = getattr(eigen_mod, name)
        monkeypatch.setattr(eigen_mod, name,
                            lambda A, *rest, real=real: seen.append(A) or real(A, *rest))
    g = build_grid([(-1, 1)] * 2, 1.0 / 6)
    K = assemble_stiffness(grushin(), g)
    M = assemble_diagonal(GridField.from_function(
        g, lambda pts: 1.0 + 0.5 * pts[:, 0] + 0.3 * pts[:, 1] ** 2))
    Vd = assemble_diagonal(GridField.from_function(
        g, lambda pts: 5.0 * pts[:, 0] - 2.0 * pts[:, 1])) if potential else None
    res = eigen_mod._principal(g, K.mat, np.zeros(g.n_interior) if Vd is None else Vd, M, 1e-9,
                               None, 2)
    exact = dense_smallest(K, Vd, M)
    assert abs(res.lam - exact) <= 1e-9 * max(1.0, abs(exact))
    assert res.residual <= 1e-9 and res.positive
    assert np.allclose(res.vectors.T @ (M[:, None] * res.vectors), np.eye(2), atol=1e-10)
    assert seen and all((A != A.T).nnz == 0 for A in seen)


@SOLVER_PATHS
@pytest.mark.parametrize("seed,case", [(1009, 3), (526691478, 11), (0, 10), (2, 1), (526691478, 8)])
def test_thm_1_2_cases_that_found_a_higher_eigenvalue(monkeypatch, max_separator, seed, case):
    # inverse iteration returned a higher member of a near-degenerate pair here;
    # at (526691478, 8) a LOBPCG start from the 2h grid without its random part did
    monkeypatch.setattr(operators_mod, "DIRECT_MAX_SEPARATOR", max_separator)
    g, _ = thm_1_2_setup()
    rep = verify_thm_1_2(heisenberg(), g, THM_1_2_U, n_subdomains=case + 1, seed=seed)
    assert rep.passed_count == rep.total
    (lo, hi) = np.array(rep.cases[case].config["subbox"]).T
    for bump in (0.0, 0.5):
        check_against_dense(*thm_1_2_pencil(lo, hi, bump))


def heisenberg_cube_pencil(h, mask=None):
    """Heisenberg (-1, 1)^3 at spacing h, optionally masked, with the potential 4x + 2t^2."""
    g = build_grid([(-1, 1)] * 3, h)
    if mask is not None:
        g = mask_domain(g, mask)
    V = GridField.from_function(g, lambda pts: 4.0 * pts[:, 0] + 2.0 * pts[:, 2] ** 2)
    return assemble_stiffness(heisenberg(), g), assemble_diagonal(V), mass_matrix(g)


@pytest.mark.parametrize("mask", [None, lambda pts: pts[:, 0] ** 2 + pts[:, 1] ** 2 <= 0.81],
                         ids=["box", "disc"])
def test_coarse_start_matches_the_old_start_in_fewer_steps(monkeypatch, mask):
    # a cold LOBPCG solve starts from the pencil on the 2h grid; with that
    # start taken away it falls back to [ones, seeded random]
    monkeypatch.setattr(operators_mod, "DIRECT_MAX_SEPARATOR", -1)
    K, Vd, M = heisenberg_cube_pencil(1.0 / 8, mask)
    new = principal_eigenpair(K, Vd, tol=1e-9)
    monkeypatch.setattr(eigen_mod, "_coarse_start", lambda *args: (None, 0))
    old = principal_eigenpair(K, Vd, tol=1e-9)
    assert abs(new.lam - old.lam) <= 1e-10 * abs(old.lam)
    assert new.residual <= 1e-9 and new.degenerate is False and new.positive
    assert new.iterations < old.iterations
    assert new.coarse_iterations > 0 and old.coarse_iterations == 0
    assert "coarse_iterations" not in new.to_json_dict()
    # the second pair too: the coarse block must not miss a class of modes
    second = [v @ (K.mat @ v - Vd * v) / (v @ (M * v))
              for v in (new.vectors[:, 1], old.vectors[:, 1])]
    assert abs(second[0] - second[1]) <= 1e-8 * abs(second[1])


def test_one_pair_solves_keep_the_ones_start(monkeypatch):
    # a one-column block from the 2h grid took more steps than ones
    monkeypatch.setattr(operators_mod, "DIRECT_MAX_SEPARATOR", -1)
    K, Vd, M = heisenberg_cube_pencil(1.0 / 8)
    res = principal_eigenpair(K, Vd, tol=1e-9, pairs=1)
    assert res.coarse_iterations == 0 and res.residual <= 1e-9


def test_even_node_count_keeps_the_old_start(monkeypatch):
    monkeypatch.setattr(operators_mod, "DIRECT_MAX_SEPARATOR", -1)
    g = build_grid([(-1, 1), (-1, 1), (-0.5, 0.625)], 1.0 / 8)
    assert g.dims == (17, 17, 10) and coarse_grid(g) is None
    calls = []
    lobpcg = spla.lobpcg

    def recorded(A, X0, **kwargs):
        calls.append(X0.copy())  # lobpcg overwrites its start block
        return lobpcg(A, X0, **kwargs)

    monkeypatch.setattr(spla, "lobpcg", recorded)
    res = principal_eigenpair(assemble_stiffness(heisenberg(), g), None, tol=1e-9)
    X = np.column_stack([np.ones(g.n_interior),
                         np.random.default_rng(0x5EC).standard_normal(g.n_interior)])
    assert len(calls) == 1 and np.array_equal(calls[0], X)
    assert res.coarse_iterations == 0 and res.residual <= 1e-9


def test_coarse_level_failure_names_the_stage_residual_and_steps(monkeypatch):
    monkeypatch.setattr(operators_mod, "DIRECT_MAX_SEPARATOR", -1)
    monkeypatch.setattr(eigen_mod, "MAX_ITER", 1)
    g, K, M = unit_square_setup(1.0 / 32)
    with pytest.raises(ConvergenceError, match=r"^coarse start on the 2h grid \(225 unknowns\): "
                                               r"coarse start on the 2h grid \(49 unknowns\): "
                                               r"principal eigensolve \(LOBPCG\) residual .* "
                                               r"after \d+ iterations "
                                               r"\(\d+ inner CG steps\)$") as err:
        principal_eigenpair(K, None, tol=1e-12)
    assert err.value.residual > 1e-12 * eigen_mod.COARSE_TOL_FACTOR
    assert 1 <= err.value.iterations <= 2


def test_cli_eigen_on_lobpcg_writes_identical_reports(monkeypatch, tmp_path):
    monkeypatch.setattr(operators_mod, "DIRECT_MAX_SEPARATOR", -1)
    cfg = tmp_path / "eigen.json"
    cfg.write_text(json.dumps({"family": "heisenberg", "potential": "4*x + 2*t**2",
                               "grid": {"box": [[-1, 1]] * 3, "h": 0.25}, "tol": 1e-9}))
    reports = []
    for run in ("a", "b"):
        assert main(["--config", str(cfg), "--out", str(tmp_path / run), "eigen"]) == 0
        reports.append((tmp_path / run / "report.json").read_bytes())
    assert reports[0] == reports[1]
    assert json.loads(reports[0])["results"]["eigen"]["residual"] <= 1e-9


def test_lobpcg_on_the_csr_copy_matches_shift_invert(monkeypatch):
    # a ball's stencil spreads over 123 diagonals: the preconditioner runs
    # on the float32 CSR copy there
    K, Vd, M = heisenberg_cube_pencil(1.0 / 8, lambda pts: np.sum(pts**2, axis=1) <= 0.81)
    direct = principal_eigenpair(K, Vd, tol=1e-9)
    monkeypatch.setattr(operators_mod, "DIRECT_MAX_SEPARATOR", -1)
    storage = []

    def recorded(A, sigma, dtype):
        copy = shifted_copy(A, sigma, dtype)
        storage.append(copy.format)
        return copy

    monkeypatch.setattr(eigen_mod, "shifted_copy", recorded)
    res = principal_eigenpair(K, Vd, tol=1e-9)
    assert storage[0] == "csr" and res.residual <= 1e-9
    assert abs(res.lam - direct.lam) <= 1e-9


def test_a_2d_pencil_above_the_old_nonzero_limit_takes_shift_invert(monkeypatch):
    # 127^2 unknowns (80,645 nonzeros) but a top separator of 127: factored
    g, K, M = unit_square_setup(1.0 / 128)
    factored = []
    monkeypatch.setattr(eigen_mod, "factor_spd",
                        lambda A, *rest, real=eigen_mod.factor_spd: factored.append(A) or real(A, *rest))
    direct = principal_eigenpair(K, None, tol=1e-9)
    assert len(factored) == 1 and direct.cg_iterations == 0 and direct.coarse_iterations == 0
    monkeypatch.setattr(operators_mod, "DIRECT_MAX_SEPARATOR", -1)
    lobpcg = principal_eigenpair(K, None, tol=1e-9)
    assert lobpcg.cg_iterations > 0
    assert abs(direct.lam - lobpcg.lam) <= 1e-9 * lobpcg.lam


def test_lobpcg_solves_repeat_bit_for_bit(monkeypatch):
    monkeypatch.setattr(operators_mod, "DIRECT_MAX_SEPARATOR", -1)
    K, Vd, M = heisenberg_cube_pencil(1.0 / 8)
    first, second = (principal_eigenpair(K, Vd, tol=1e-9) for _ in range(2))
    assert first.lam == second.lam and np.array_equal(first.vectors, second.vectors)
    assert first.cg_iterations == second.cg_iterations > 0


def test_cg_iterations_count_the_preconditioner_steps_of_lobpcg_only(monkeypatch):
    steps = []
    cg = spla.cg

    def counted(A, b, callback=None, **kwargs):
        def step(xk):
            steps.append(1)
            callback(xk)
        return cg(A, b, callback=step, **kwargs)

    monkeypatch.setattr(spla, "cg", counted)
    g, K, M = unit_square_setup(1.0 / 16)
    assert principal_eigenpair(K, None).cg_iterations == 0 and not steps
    monkeypatch.setattr(operators_mod, "DIRECT_MAX_SEPARATOR", -1)
    res = principal_eigenpair(K, None, pairs=1)  # one level: no coarse start
    assert res.cg_iterations == len(steps) > 0
    assert "cg_iterations" not in res.to_json_dict()


def test_lobpcg_preconditioner_maps_zero_to_zero(monkeypatch):
    monkeypatch.setattr(operators_mod, "DIRECT_MAX_SEPARATOR", -1)
    images = []
    lobpcg = spla.lobpcg

    def recorded(A, X, M=None, **kwargs):
        images.append(M.matvec(np.zeros(A.shape[0])))
        return lobpcg(A, X, M=M, **kwargs)

    monkeypatch.setattr(spla, "lobpcg", recorded)
    g, K, M = unit_square_setup(1.0 / 16)
    assert principal_eigenpair(K, None, pairs=1).residual <= 1e-8
    assert len(images) == 1 and images[0].dtype == np.float64 and not np.any(images[0])
