import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from sublap.fields import Polynomial, VectorFieldFamily, euclidean, grushin, heisenberg
from sublap.mesh import GridField, build_grid, mask_domain
from sublap.operators import (
    SYMMETRY_TOL,
    SparseOperator,
    assemble_diagonal,
    assemble_first_order,
    assemble_stiffness,
    mass_matrix,
    rayleigh_quotient,
    shifted_copy,
)


def five_point_laplacian(n_per_axis, h, ndim):
    """Independent construction of the standard 2n+1-point stencil matrix."""
    N = n_per_axis
    T = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(N, N))
    I = sp.identity(N)
    if ndim == 1:
        L = T
    elif ndim == 2:
        L = sp.kron(T, I) + sp.kron(I, T)
    else:
        L = (sp.kron(sp.kron(T, I), I) + sp.kron(sp.kron(I, T), I)
             + sp.kron(sp.kron(I, I), T))
    return (L * h ** (ndim - 2)).tocsr()


def test_first_order_euclidean_exact_on_linear():
    g = build_grid([(0, 1)], 0.125)
    B = assemble_first_order(euclidean(1), g, 1)
    f = GridField.from_function(g, lambda pts: pts[:, 0])
    vals = B.apply(f)
    assert np.allclose(vals, 1.0, atol=1e-13)


def test_first_order_heisenberg_t_derivative():
    g = build_grid([(0.5, 2.5)] * 3, 0.25)
    heis = heisenberg()
    B1 = assemble_first_order(heis, g, 1)
    B2 = assemble_first_order(heis, g, 2)
    f = GridField.from_function(g, lambda pts: pts[:, 2])
    v1 = B1.apply(f)
    v2 = B2.apply(f)
    # X1 f = -y/2, X2 f = x/2 exactly for linear f
    pts = g.points[B1.row_ids]
    assert np.allclose(v1, -pts[:, 1] / 2, atol=1e-12)
    assert np.allclose(v2, pts[:, 0] / 2, atol=1e-12)


def test_first_order_grushin_vanishes_on_axis():
    g = build_grid([(-0.5, 0.5), (-0.5, 0.5)], 0.25)
    B2 = assemble_first_order(grushin(), g, 2)
    f = GridField.from_function(g, lambda pts: pts[:, 1])
    vals = B2.apply(f)
    pts = g.points[B2.row_ids]
    on_axis = np.abs(pts[:, 0]) < 1e-12
    assert np.all(np.abs(vals[on_axis]) < 1e-13)


def test_first_order_index_validation():
    g = build_grid([(0, 1), (0, 1)], 0.25)
    with pytest.raises(ValueError):
        assemble_first_order(euclidean(2), g, 0)
    with pytest.raises(ValueError):
        assemble_first_order(euclidean(2), g, 3)
    with pytest.raises(ValueError):
        assemble_first_order(euclidean(3), g, 1)


def test_stiffness_euclidean_reduces_to_standard_stencil():
    for ndim in (1, 2, 3):
        h = 0.25
        g = build_grid([(0, 1)] * ndim, h)
        K = assemble_stiffness(euclidean(ndim), g)
        L = five_point_laplacian(g.dims[0] - 2, h, ndim)
        diff = abs(K.mat - L).max()
        assert diff <= 1e-12 * abs(L).max()


def test_stiffness_symmetric_and_psd():
    rng = np.random.default_rng(4)
    for fam, box in ((euclidean(2), [(0, 1)] * 2), (heisenberg(), [(-1, 1)] * 3),
                     (grushin(), [(-1, 1)] * 2)):
        g = build_grid(box, 0.25)
        K = assemble_stiffness(fam, g)
        asym = abs(K.mat - K.mat.T).max()
        assert asym <= 1e-12 * max(1.0, abs(K.mat).max())
        for _ in range(50):
            v = rng.standard_normal(g.n_interior)
            q = v @ (K.mat @ v)
            assert q >= -1e-10 * (v @ v)


def test_symmetric_operator_rejects_an_asymmetry_above_the_tolerance():
    # the eigen pencil keeps K's symmetry exactly and relies on this guard
    g = build_grid([(0, 1), (0, 1)], 0.25)
    K = assemble_stiffness(euclidean(2), g).mat

    def bumped(rel):  # K with k_01 moved by rel * SYMMETRY_TOL * max |k_ij| (= 4)
        return K + sp.csr_matrix(([rel * SYMMETRY_TOL * abs(K).max()], ([0], [1])), shape=K.shape)

    SparseOperator(grid=g, mat=bumped(0.1))
    with pytest.raises(ValueError, match=r"not symmetric: \|K - K\^T\| = 4e-11$"):
        SparseOperator(grid=g, mat=bumped(10.0))


def test_only_first_order_operators_skip_the_symmetry_check():
    # no flag switches the check off; quadrature rows (row_ids) are not square
    g = build_grid([(0, 1), (0, 1)], 0.25)
    K = assemble_stiffness(euclidean(2), g).mat
    lower = sp.tril(K, format="csr")
    with pytest.raises(TypeError):
        SparseOperator(grid=g, mat=lower, symmetric=False)
    with pytest.raises(ValueError, match="not symmetric"):
        SparseOperator(grid=g, mat=lower)
    SparseOperator(grid=g, mat=lower, row_ids=g.interior_ids)
    assert assemble_first_order(euclidean(2), g, 1).row_ids is not None


@st.composite
def _polynomial_families(draw):
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 3))
    term = st.tuples(st.floats(-2, 2, allow_subnormal=False), st.tuples(*[st.integers(0, 2)] * n))
    poly = st.lists(term, max_size=3).map(lambda t: Polynomial(n, tuple(t)))
    coeffs = draw(st.tuples(*[st.tuples(*[poly] * n)] * m))
    return VectorFieldFamily(n=n, m=m, coeffs=coeffs)


@settings(max_examples=40)
@given(_polynomial_families())
def test_stiffness_symmetric_psd_property(fam):
    g = build_grid([(-1, 1)] * fam.n, {1: 0.1, 2: 0.25, 3: 0.5}[fam.n])
    K = assemble_stiffness(fam, g).mat
    assert (K != K.T).nnz == 0
    ev = np.linalg.eigvalsh(K.toarray())
    assert ev.min() >= -1e-12 * max(1.0, abs(ev).max())


@settings(max_examples=40)
@given(_polynomial_families(), st.booleans())
def test_stiffness_is_exactly_symmetric_unsymmetrized_property(fam, ball):
    # assemble_stiffness forms no (K + K^T)/2: the products give K^T == K bit for bit
    g = build_grid([(-1, 1)] * fam.n, {1: 0.1, 2: 0.2, 3: 0.25}[fam.n])
    if ball:
        g = mask_domain(g, lambda pts: np.sum(pts**2, axis=1) <= 0.8)
    K = assemble_stiffness(fam, g).mat
    assert (K != K.T).nnz == 0


def test_stiffness_annihilates_constants():
    for fam, box in ((euclidean(2), [(0, 1)] * 2), (heisenberg(), [(-1, 1)] * 3)):
        g = build_grid(box, 0.25)
        K = assemble_stiffness(fam, g)
        ones = GridField.constant(g, 1.0)
        assert np.abs(K.apply(ones)).max() <= 1e-12 * abs(K.mat).max()


def test_stiffness_heisenberg_positive_energy():
    g = build_grid([(-1, 1)] * 3, 0.25)
    K = assemble_stiffness(heisenberg(), g)
    vals = np.zeros(g.num_nodes)
    vals[g.interior_ids] = 1.0
    f = GridField(g, vals)
    fi = f.values[g.interior_ids]
    assert fi @ (K.mat @ fi) > 0


def test_adjoint_consistency():
    g = build_grid([(-1, 1)] * 3, 0.25)
    B = assemble_first_order(heisenberg(), g, 1)
    rng = np.random.default_rng(9)
    w = g.h ** g.n
    for _ in range(10):
        f = rng.standard_normal(g.n_interior)
        v = rng.standard_normal(B.mat.shape[0])
        lhs = (B.mat @ f) @ (w * v)
        rhs = f @ (B.mat.T @ (w * v))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_rayleigh_quotient_classical_value():
    g = build_grid([(0, 1), (0, 1)], 1.0 / 32)
    K = assemble_stiffness(euclidean(2), g)
    M = mass_matrix(g)
    f = GridField.from_function(g, lambda pts: np.sin(np.pi * pts[:, 0]) * np.sin(np.pi * pts[:, 1]))
    q = rayleigh_quotient(K, None, M, f)
    assert abs(q - 2 * np.pi**2) < 0.02 * 2 * np.pi**2


def test_rayleigh_quotient_potential_shift_exact():
    g = build_grid([(0, 1), (0, 1)], 0.125)
    K = assemble_stiffness(euclidean(2), g)
    M = mass_matrix(g)
    V = assemble_diagonal(GridField.constant(g, 3.7))
    rng = np.random.default_rng(2)
    f = GridField(g, rng.standard_normal(g.num_nodes))
    q0 = rayleigh_quotient(K, None, M, f)
    qV = rayleigh_quotient(K, V, M, f)
    assert abs(qV - (q0 - 3.7)) <= 1e-12 * max(1.0, abs(q0))


def test_rayleigh_quotient_zero_norm_rejected():
    g = build_grid([(0, 1), (0, 1)], 0.25)
    K = assemble_stiffness(euclidean(2), g)
    M = mass_matrix(g)
    with pytest.raises(ValueError):
        rayleigh_quotient(K, None, M, GridField.zeros(g))


def test_diagonal_mass_matrix():
    g = build_grid([(0, 1), (0, 1)], 0.25)
    M = assemble_diagonal(GridField.constant(g, 1.0))
    assert M.shape == (g.n_interior,) and np.array_equal(M, mass_matrix(g))
    assert np.allclose(M, g.h**2)


def test_diagonal_zero_and_indefinite():
    g = build_grid([(0, 1), (0, 1)], 0.25)
    Z = assemble_diagonal(GridField.zeros(g))
    assert abs(Z).max() == 0.0
    gfield = GridField.from_function(g, lambda pts: 1.0 - 2.0 * (pts[:, 0] > 0.5))
    d = assemble_diagonal(gfield)
    assert d.min() < 0 < d.max()


def _bump(pts):
    r2 = np.sum((pts / 0.8) ** 2, axis=1)
    out = np.zeros(pts.shape[0])
    inside = r2 < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - r2[inside]))
    return out


def _bump_grad(pts):
    r2 = np.sum((pts / 0.8) ** 2, axis=1)
    vals = _bump(pts)
    grad = np.zeros_like(pts)
    inside = r2 < 1.0
    coef = -2.0 / (1.0 - r2[inside]) ** 2 / 0.8**2
    grad[inside] = vals[inside, None] * coef[:, None] * pts[inside]
    return grad


def test_divergence_form_consistency_at_least_first_order():
    # f^T K f -> int a^{ik} d_i f d_k f with O(h) error (the observed rate
    # is better: the forward-difference errors partly cancel in the
    # quadratic form); oracle by fine Riemann quadrature of the analytic
    # integrand
    heis = heisenberg()
    fine = build_grid([(-1, 1)] * 3, 1.0 / 32)
    pts = fine.points[fine.interior_ids]
    a = heis.diffusion_tensor_batch(pts)
    gr = _bump_grad(pts)
    integrand = np.einsum("pik,pi,pk->p", a, gr, gr)
    exact = fine.h**3 * integrand.sum()
    errs = []
    for h in (1.0 / 4, 1.0 / 8, 1.0 / 16):
        g = build_grid([(-1, 1)] * 3, h)
        K = assemble_stiffness(heis, g)
        f = GridField.from_function(g, _bump)
        fi = f.values[g.interior_ids]
        errs.append(abs(fi @ (K.mat @ fi) - exact))
    assert errs[0] > errs[1] > errs[2]
    assert errs[0] / errs[1] >= 1.5
    assert errs[1] / errs[2] >= 1.5


@pytest.mark.parametrize("mask, storage", [
    (None, "dia"),
    (lambda pts: np.all(np.abs(pts - 0.125) <= 0.625 + 1e-12, axis=1), "dia"),
    (lambda pts: np.sum(pts**2, axis=1) <= 0.81, "csr"),
], ids=["box", "sub-box", "ball"])
def test_shifted_float32_stores_a_stencil_band_by_diagonals(mask, storage):
    # a ball's interior numbering spreads the 11-point stencil over 123
    # diagonals, a band of 13 nnz, so its copy stays CSR
    g = build_grid([(-1, 1)] * 3, 1.0 / 8)
    if mask is not None:
        g = mask_domain(g, mask)
    A = assemble_stiffness(heisenberg(), g).mat
    S = shifted_copy(A, -2.5, np.float32)
    assert S.format == storage and S.dtype == np.float32
    exact = A + 2.5 * sp.identity(A.shape[0], format="csr")
    assert (S.tocsr() != exact.astype(np.float32)).nnz == 0
    x = np.random.default_rng(3).standard_normal(A.shape[0])
    y = exact @ x
    assert np.linalg.norm(S @ x.astype(np.float32) - y) <= 1e-6 * np.linalg.norm(y)
