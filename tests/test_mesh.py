import io
import itertools

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given
from hypothesis import strategies as st

from sublap.mesh import (
    BOUNDARY,
    EXTERIOR,
    INTERIOR,
    GridField,
    build_grid,
    coarse_grid,
    field_to_csv,
    mask_domain,
    neighbor_set,
)
from sublap.operators import quadrature_row_ids


def test_build_grid_3x3():
    g = build_grid([(0, 1), (0, 1)], 0.5)
    assert g.dims == (3, 3)
    assert g.n_interior == 1
    assert g.n_boundary == 8


def test_build_grid_65():
    g = build_grid([(0, 1), (0, 1)], 1.0 / 64)
    assert g.dims == (65, 65)
    assert g.n_interior == 63 * 63


def test_build_grid_3d():
    g = build_grid([(-1, 1)] * 3, 0.25)
    assert g.dims == (9, 9, 9)
    assert g.n_interior == 7**3


def test_build_grid_h_too_large():
    with pytest.raises(ValueError):
        build_grid([(0, 1), (0, 0.5)], 0.6)


def test_build_grid_needs_an_axis():
    with pytest.raises(ValueError, match="box must have at least one axis"):
        build_grid([], 0.5)


def neighbor_ids(grid, node_id):
    """The 2n axis neighbors of a node that exist on the grid, by index arithmetic:
    the oracle for `neighbor_set`."""
    multi = np.unravel_index(node_id, grid.dims)
    return [node_id + s * int(grid.strides[k])
            for k in range(grid.n) for s in (-1, 1) if 0 <= multi[k] + s < grid.dims[k]]


def test_interior_neighbors_exist():
    g = build_grid([(0, 1), (0, 1)], 0.25)
    for node in g.interior_ids:
        nbrs = neighbor_ids(g, node)
        assert len(nbrs) == 4
        assert all(g.mask[j] != EXTERIOR for j in nbrs)


def test_mask_partition():
    g = build_grid([(0, 1), (0, 1)], 1.0 / 16)
    sub = mask_domain(g, lambda pts: np.sum((pts - 0.5) ** 2, axis=1) < 0.15)
    counts = {INTERIOR: 0, BOUNDARY: 0, EXTERIOR: 0}
    for v in sub.mask:
        counts[int(v)] += 1
    assert sum(counts.values()) == g.num_nodes
    assert counts[INTERIOR] > 0 and counts[BOUNDARY] > 0 and counts[EXTERIOR] > 0


def test_mask_disk_area_oracle():
    # node counts track the disk area (oracle: pi * r^2 / h^2); the
    # interior count carries a one-sided O(h * perimeter) shave, so the 5%
    # band needs h small relative to r
    r = 0.4
    h = 1.0 / 32
    g = build_grid([(0, 1), (0, 1)], h)
    sub = mask_domain(g, lambda pts: np.sum((pts - 0.5) ** 2, axis=1) < r * r)
    expected = np.pi * r * r / h**2
    covered = sub.n_interior + sub.n_boundary
    assert abs(covered - expected) < 0.05 * expected
    h = 1.0 / 128
    g = build_grid([(0, 1), (0, 1)], h)
    sub = mask_domain(g, lambda pts: np.sum((pts - 0.5) ** 2, axis=1) < r * r)
    expected = np.pi * r * r / h**2
    assert abs(sub.n_interior - expected) < 0.05 * expected


def test_mask_all_true_reproduces_build_grid():
    g = build_grid([(0, 1), (0, 1)], 0.125)
    sub = mask_domain(g, lambda pts: np.ones(pts.shape[0], dtype=bool))
    assert np.array_equal(sub.mask, g.mask)


def test_nearest_node_scalar_and_batch_agree():
    g = build_grid([(-1, 2), (0, 1), (0, 0.5)], 0.25)
    rng = np.random.default_rng(3)
    pts = rng.uniform(-1.5, 2.5, size=(200, 3))  # some fall outside and are clipped
    ids = g.nearest_node(pts)
    assert ids.shape == (200,)
    assert ids.tolist() == [g.nearest_node(x) for x in pts]
    assert isinstance(g.nearest_node(pts[0]), int)
    inside = np.all((pts >= [-1, 0, 0]) & (pts <= [2, 1, 0.5]), axis=1)
    brute = [int(np.argmin(((g.points - x) ** 2).sum(axis=1))) for x in pts[inside]]
    assert ids[inside].tolist() == brute


def test_mask_single_node_empty_interior():
    g = build_grid([(0, 1), (0, 1)], 0.25)
    center = g.points[g.nearest_node([0.5, 0.5])]
    with pytest.raises(ValueError, match="empty interior"):
        mask_domain(g, lambda pts: np.all(np.abs(pts - center) < 1e-9, axis=1))


def test_mask_covers_predicate_set_exactly():
    g = build_grid([(0, 1), (0, 1)], 1.0 / 16)
    pred = lambda pts: np.sum((pts - 0.5) ** 2, axis=1) < 0.1
    sub = mask_domain(g, pred)
    P = pred(g.points)
    non_ext = sub.mask != EXTERIOR
    assert np.array_equal(non_ext, P)
    # and the rim nodes of a disk are adjacent to the interior
    interior = set(np.flatnonzero(sub.mask == INTERIOR))
    adj = sum(
        any(j in interior for j in neighbor_ids(sub, int(b)))
        for b in np.flatnonzero(sub.mask == BOUNDARY)
    )
    assert adj == sub.n_boundary


def test_exterior_values_pinned_to_zero():
    g = build_grid([(0, 1), (0, 1)], 0.125)
    sub = mask_domain(g, lambda pts: np.sum((pts - 0.5) ** 2, axis=1) < 0.1)
    f = GridField(sub, np.ones(sub.num_nodes))
    assert np.all(f.values[sub.mask == EXTERIOR] == 0.0)


def test_field_csv_round_trip(tmp_path):
    g = build_grid([(0, 1), (0, 1)], 0.25)
    rng = np.random.default_rng(1)
    f = GridField(g, rng.standard_normal(g.num_nodes))
    field_to_csv(f, tmp_path / "f.csv")
    lines = (tmp_path / "f.csv").read_text().splitlines()
    assert lines[0] == "i0,i1,x0,x1,value"
    table = np.loadtxt(lines[1:], delimiter=",")
    nodes = np.column_stack([*np.unravel_index(np.arange(g.num_nodes), g.dims), g.points])
    assert np.array_equal(table[:, :-1], nodes)
    assert np.array_equal(table[:, -1], f.values)


def _csv_test_values(g, kind):
    rng = np.random.default_rng(g.num_nodes)
    if kind == "random":
        vals = rng.standard_normal(g.num_nodes) * 10.0 ** rng.integers(-300, 301, g.num_nodes)
        vals[:6] = [1e300, -1e-300, 5e-324, np.inf, -0.0, np.nan]
        return vals
    if kind == "indicator":
        return (rng.random(g.num_nodes) < 0.3).astype(float)
    # 0.0, -0.0 and two NaN payloads: each bit pattern is formatted on its own
    nans = np.array([0x7FF8000000000000, 0x7FF8000000000001], dtype=np.uint64).view(np.float64)
    return np.array([0.0, -0.0, *nans])[rng.integers(0, 4, g.num_nodes)]


@pytest.mark.parametrize("box, h", [
    ([(-1.3, 2.1)], 0.1),
    ([(0, 1), (-0.7, 0.45)], 0.05),
    ([(-0.3, 0.3), (0, 0.5), (-0.02, 0.04)], 0.02),
    ([(0, 0.3), (-0.2, 0.1), (0.05, 0.2), (-1, -0.8)], 0.05),
])
def test_field_csv_matches_node_by_node_writer(tmp_path, node_by_node_csv, box, h):
    full = build_grid(box, h)
    # a slanted half-space mask leaves exterior nodes that are no sub-box
    half = mask_domain(full, lambda pts: pts.sum(axis=1) < np.mean(box, axis=1).sum())
    for g in (full, half):
        for kind in ("random", "indicator", "signed_zeros_and_nans"):
            f = GridField(g, _csv_test_values(g, kind))
            ref = io.StringIO()
            node_by_node_csv(f, ref)
            field_to_csv(f, tmp_path / "f.csv")
            assert (tmp_path / "f.csv").read_bytes() == ref.getvalue().encode()


@pytest.mark.parametrize("build", [GridField.from_function, mask_domain])
def test_node_functions_called_once_and_errors_surface(build):
    # a node function sees all (N, n) coordinates in one call; its own
    # errors propagate and a per-point (scalar-only) function is refused
    g = build_grid([(0, 1), (0, 1)], 0.25)
    calls = []

    def broken(pts):
        calls.append(np.shape(pts))
        raise KeyError("missing coefficient")

    with pytest.raises(KeyError, match="missing coefficient"):
        build(g, broken)
    assert calls == [(g.num_nodes, 2)]
    with pytest.raises(ValueError, match=rf"expected \(N,\) = \({g.num_nodes},\)"):
        build(g, lambda p: p[0] ** 2 + p[1] ** 2 < 0.25)


@given(st.integers(1, 3), st.lists(st.integers(1, 6), min_size=3, max_size=3),
       st.floats(0.3, 1.0), st.integers(0, 2**32 - 1))
def test_mask_classes_partition_nodes(n, sides, density, seed):
    # INTERIOR, BOUNDARY and EXTERIOR partition the nodes; a node is interior
    # exactly when it and all 2n axis neighbors are predicate-true, and a
    # quadrature row exactly when it and its n forward neighbors are usable
    g = build_grid([(0, 0.5 * k) for k in sides[:n]], 0.5)
    flags = np.random.default_rng(seed).random(g.num_nodes) < density
    full = np.array([
        flags[i] and len(neighbor_ids(g, i)) == 2 * n and all(flags[neighbor_ids(g, i)])
        for i in range(g.num_nodes)
    ], dtype=bool)
    if not full.any():
        with pytest.raises(ValueError, match="empty interior"):
            mask_domain(g, lambda pts: flags)
        return
    sub = mask_domain(g, lambda pts: flags)
    classes = [sub.mask == c for c in (INTERIOR, BOUNDARY, EXTERIOR)]
    assert np.array_equal(sum(c.astype(int) for c in classes), np.ones(g.num_nodes, dtype=int))
    assert np.array_equal(classes[0], full)
    assert np.array_equal(classes[1], flags & ~full)
    assert np.array_equal(classes[2], ~flags)
    multi = np.unravel_index(np.arange(g.num_nodes), g.dims)
    forward_ok = [
        all(multi[k][i] + 1 < g.dims[k] and flags[i + g.strides[k]] for k in range(n))
        for i in range(g.num_nodes)
    ]
    assert quadrature_row_ids(sub).tolist() == np.flatnonzero(flags & forward_ok).tolist()


def test_coarse_grid_injects_the_mask_and_interpolates_multilinearly():
    g = build_grid([(-1, 1), (0, 1), (0, 0.5)], 0.125)
    disc = mask_domain(g, lambda pts: pts[:, 0] ** 2 + (pts[:, 1] - 0.5) ** 2 <= 0.6)
    for fine in (g, disc):
        coarse, P = coarse_grid(fine)
        assert coarse.dims == (9, 5, 3) and coarse.h == 0.25
        assert np.array_equal(coarse.origin, fine.origin)
        on_coarse = fine.mask.reshape(fine.dims)[::2, ::2, ::2].ravel()
        assert np.array_equal(coarse.mask == INTERIOR, on_coarse == INTERIOR)
        # every interior node keeps all 2n axis neighbors non-exterior
        for k in range(3):
            for step in (1, -1):
                nbr = neighbor_set(coarse, coarse.mask != EXTERIOR, k, step)
                assert nbr[coarse.interior_ids].all()
        assert P.shape == (fine.n_interior, coarse.n_interior)
        # a coarse node's own fine node takes its value unchanged
        own = np.searchsorted(fine.interior_ids, np.ravel_multi_index(
            [2 * m for m in np.unravel_index(coarse.interior_ids, coarse.dims)], fine.dims))
        assert np.array_equal(P[own].toarray(), np.eye(coarse.n_interior))
        # a multilinear function is reproduced wherever all 2^n corners are interior
        f = lambda pts: 1 + pts[:, 0] - 2 * pts[:, 1] + 3 * pts[:, 0] * pts[:, 1] * pts[:, 2]
        Pu = P @ f(coarse.points[coarse.interior_ids])
        full = np.asarray(P.sum(axis=1)).ravel() == 1.0
        assert full.sum() > coarse.n_interior
        assert np.allclose(Pu[full], f(fine.points[fine.interior_ids])[full], atol=1e-13)
        assert np.all(P.data > 0)


def test_coarse_grid_needs_an_odd_node_count_on_every_axis():
    assert coarse_grid(build_grid([(0, 1), (0, 1.125)], 0.125)) is None
    coarse, P = coarse_grid(build_grid([(0, 0.5), (0, 0.5)], 0.25))
    assert coarse.dims == (2, 2) and coarse.n_interior == 0 and P.shape == (1, 0)


def _prolongation_oracle(fine, coarse):
    """P node by node: a fine interior node halfway between coarse nodes along d
    axes takes 2^-d from each of its 2^d coarse corners that is interior, 0 from
    the others.  Also returns how many corners lie outside the coarse mask."""
    column = {int(c): j for j, c in enumerate(coarse.interior_ids)}
    rows, cols, vals, outside = [], [], [], 0
    for r, node in enumerate(fine.interior_ids):
        multi = np.unravel_index(node, fine.dims)
        around = [sorted({int(m) // 2, (int(m) + 1) // 2}) for m in multi]
        weight = 0.5 ** sum(int(m) % 2 for m in multi)
        for corner in itertools.product(*around):
            c = int(np.ravel_multi_index(corner, coarse.dims))
            if c in column:
                rows.append(r)
                cols.append(column[c])
                vals.append(weight)
            else:
                outside += coarse.mask[c] == EXTERIOR
    P = sp.csr_matrix((vals, (rows, cols)), shape=(fine.n_interior, coarse.n_interior))
    P.sort_indices()
    return P, outside


@pytest.mark.parametrize("make", [
    lambda: build_grid([(-1, 1)] * 3, 0.25),
    lambda: mask_domain(build_grid([(-1, 1)] * 3, 0.125), lambda p: (p**2).sum(axis=1) <= 0.7),
    lambda: build_grid([(0, 1), (0, 1.5)], 1.0 / 16),
], ids=["box", "ball", "2d"])
def test_coarse_grid_prolongation_matches_a_per_node_oracle(make):
    fine = make()
    coarse, P = coarse_grid(fine)
    oracle, outside = _prolongation_oracle(fine, coarse)
    assert (outside > 0) == np.any(fine.mask == EXTERIOR)  # the ball has corners off its mask
    assert P.has_sorted_indices and P.shape == oracle.shape
    for part in ("indptr", "indices", "data"):
        got, want = getattr(P, part), getattr(oracle, part)
        assert got.astype(want.dtype).tobytes() == want.tobytes(), part
