import heapq

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sublap.ccmetric as ccm
from sublap.ccmetric import (
    CCUnreachableError,
    PathResult,
    ball_bump,
    cc_distance_graph,
    cc_distance_refine,
    doubling_estimate,
    metric_ball,
    poincare_probe,
    random_polynomial_corpus,
    sobolev_probe,
    unit_controls,
)
from sublap.fields import Polynomial, VectorFieldFamily, euclidean, grushin, heisenberg, lie_bracket
from sublap.mesh import EXTERIOR, GridField, build_grid, mask_domain
from sublap.operators import assemble_first_order


def test_unit_controls_on_sphere():
    for m in (1, 2, 3):
        F = unit_controls(m, 16)
        norms = np.linalg.norm(F, axis=1)
        assert np.all(np.abs(norms - 1.0) < 1e-12)


def test_euclid_straight_line_graph_and_refined():
    g = build_grid([(-0.5, 4.5), (-0.5, 4.5)], 0.1)
    d, path = cc_distance_graph(euclidean(2), g, (0, 0), (3, 4), directions=32)
    assert d >= 5.0 - 1e-9           # upper bound on the true distance
    assert abs(d - 5.0) < 0.06 * 5.0
    refined = cc_distance_refine(euclidean(2), path, segments=24, tol=1e-3)
    assert not refined.stalled
    assert refined.T <= path.T + 1e-12
    assert abs(refined.T - 5.0) < 0.01 * 5.0
    assert refined.defect <= 1e-3


def test_path_controls_in_unit_ball():
    g = build_grid([(-0.5, 4.5), (-0.5, 4.5)], 0.1)
    _, path = cc_distance_graph(euclidean(2), g, (0, 0), (3, 4), directions=16)
    norms = np.linalg.norm(path.controls, axis=1)
    assert np.all(norms <= 1.0 + 1e-9)
    assert np.linalg.norm(path.waypoints[0] - np.array([0, 0])) <= g.h
    assert np.linalg.norm(path.waypoints[-1] - np.array([3, 4])) <= g.h


def test_refine_staircase_to_diagonal():
    S0 = 20
    controls = np.zeros((S0, 2))
    controls[0::2, 0] = 1.0
    controls[1::2, 1] = 1.0
    way = [np.zeros(2)]
    for k in range(S0):
        way.append(way[-1] + 0.1 * controls[k])
    seed = PathResult(T=2.0, waypoints=np.array(way), controls=controls,
                      durations=np.full(S0, 0.1), defect=0.0)
    refined = cc_distance_refine(euclidean(2), seed, segments=16, tol=1e-3)
    assert abs(refined.T - np.sqrt(2)) < 0.005 * np.sqrt(2)
    assert refined.T <= 2.0


def test_refine_never_increases_duration():
    g = build_grid([(-0.2, 1.2), (-0.2, 1.2)], 0.1)
    d, path = cc_distance_graph(euclidean(2), g, (0, 0), (1, 0), directions=8)
    refined = cc_distance_refine(euclidean(2), path, segments=8, tol=1e-3)
    assert refined.T <= path.T + 1e-12


def test_heisenberg_planar_diagonal():
    heis = heisenberg()
    g = build_grid([(-0.3, 1.3), (-0.3, 1.3), (-0.3, 0.3)], 0.05)
    d, path = cc_distance_graph(heis, g, (0, 0, 0), (1, 1, 0), directions=32)
    assert abs(d - np.sqrt(2)) < 0.05 * np.sqrt(2)
    refined = cc_distance_refine(heis, path, segments=16, tol=1e-3)
    assert refined.T <= d + 1e-12
    assert abs(refined.T - np.sqrt(2)) < 0.05 * np.sqrt(2)


def test_heisenberg_vertical_bracket_motion():
    # the pure-t direction is reachable only through commutator loops;
    # the graph value for target (0,0,tau) is ~ 4 sqrt(tau)
    heis = heisenberg()
    tau = 0.16
    h = tau / 4
    g = build_grid([(-0.6, 0.6), (-0.6, 0.6), (-1.3 * tau, 1.3 * tau)], h)
    d, path = cc_distance_graph(heis, g, (0, 0, 0), (0, 0, tau), directions=16)
    assert abs(d - 4 * np.sqrt(tau)) < 0.2 * 4 * np.sqrt(tau)
    refined = cc_distance_refine(heis, path, segments=20, tol=1e-3)
    true = 2 * np.sqrt(np.pi * tau)
    assert refined.T <= d + 1e-12
    assert abs(refined.T - true) < 0.08 * true


def test_grushin_degenerate_axis_motion():
    # moving along y at x=0 needs the bracket [X1, X2] = dy
    gr = grushin()
    g = build_grid([(-0.6, 0.6), (-0.3, 0.9)], 0.02)
    d, path = cc_distance_graph(gr, g, (0.0, 0.0), (0.0, 0.4), directions=16)
    assert np.isfinite(d)
    assert d > 0.4  # strictly harder than euclidean


def test_unreachable_reported():
    # two disjoint components: every edge into the exterior gap is rejected
    from sublap.mesh import mask_domain

    g = build_grid([(0, 1), (0, 1)], 0.05)
    two = mask_domain(
        g, lambda pts: (pts[:, 0] < 0.3) | (pts[:, 0] > 0.7)
    )
    with pytest.raises(CCUnreachableError) as err:
        cc_distance_graph(euclidean(2), g.with_mask(two.mask), (0.1, 0.5), (0.9, 0.5),
                          directions=8)
    assert err.value.reached_count > 0
    assert err.value.reached_radius >= 0.0


def test_symmetry_within_snap_error():
    heis = heisenberg()
    g = build_grid([(-0.9, 0.9), (-0.9, 0.9), (-0.4, 0.4)], 0.06)
    pairs = [((0, 0, 0), (0.5, 0.3, 0.05)), ((-0.3, 0.2, 0), (0.4, -0.2, -0.04))]
    for x, y in pairs:
        dxy, _ = cc_distance_graph(heis, g, x, y, directions=16)
        dyx, _ = cc_distance_graph(heis, g, y, x, directions=16)
        assert abs(dxy - dyx) <= 4 * g.h


def test_triangle_inequality_with_snap_slack():
    fam = euclidean(2)
    g = build_grid([(-1, 1), (-1, 1)], 0.05)
    rng = np.random.default_rng(8)
    for _ in range(5):
        x, y, z = rng.uniform(-0.8, 0.8, size=(3, 2))
        dxz, _ = cc_distance_graph(fam, g, x, z, directions=16)
        dxy, _ = cc_distance_graph(fam, g, x, y, directions=16)
        dyz, _ = cc_distance_graph(fam, g, y, z, directions=16)
        assert dxz <= dxy + dyz + 3 * g.h


def test_euclidean_lower_bound():
    # the graph value is an upper bound on the distance between the snapped
    # endpoints, so d-hat / |snap(x) - snap(y)| >= 1 up to float noise
    fam = euclidean(2)
    g = build_grid([(-1, 1), (-1, 1)], 0.05)
    rng = np.random.default_rng(9)
    cs = []
    for _ in range(5):
        x, y = rng.uniform(-0.8, 0.8, size=(2, 2))
        d, path = cc_distance_graph(fam, g, x, y, directions=16)
        node_dist = np.linalg.norm(path.waypoints[0] - path.waypoints[-1])
        cs.append(d / node_dist)
    assert min(cs) > 1.0 - 1e-9


def test_metric_ball_disk_volume():
    g = build_grid([(-0.65, 0.65), (-0.65, 0.65)], 0.01)
    ball = metric_ball(euclidean(2), (0, 0), 0.5, g, directions=64, step_scales=(1, 2, 3))
    assert abs(ball.volume - np.pi / 4) < 0.05 * np.pi / 4


def test_metric_ball_zero_radius():
    g = build_grid([(-0.5, 0.5), (-0.5, 0.5)], 0.1)
    ball = metric_ball(euclidean(2), (0, 0), 0.0, g)
    assert ball.node_ids.size == 1
    assert ball.volume == g.h**2


def test_metric_ball_clip_error():
    g = build_grid([(-0.5, 0.5), (-0.5, 0.5)], 0.05)
    with pytest.raises(ValueError, match="clipped"):
        metric_ball(euclidean(2), (0, 0), 0.6, g)


def test_ball_nesting():
    g = build_grid([(-0.7, 0.7), (-0.7, 0.7)], 0.02)
    b1 = metric_ball(euclidean(2), (0, 0), 0.3, g, directions=16)
    b2 = metric_ball(euclidean(2), (0, 0), 0.5, g, directions=16)
    assert set(b1.node_ids).issubset(set(b2.node_ids))


def test_doubling_euclidean_2d():
    g = build_grid([(-0.9, 0.9), (-0.9, 0.9)], 0.008)
    ratios, C1 = doubling_estimate(euclidean(2), (0, 0), [0.2, 0.3, 0.4], g, directions=16)
    for _, r in ratios:
        assert abs(r - 4.0) < 0.10 * 4.0
    assert abs(C1 - 4.0) < 0.10 * 4.0


def test_doubling_euclidean_3d():
    g = build_grid([(-0.45, 0.45)] * 3, 0.02)
    ratios, _ = doubling_estimate(euclidean(3), (0, 0, 0), [0.1, 0.15], g, directions=32)
    for _, r in ratios:
        assert abs(r - 8.0) < 0.10 * 8.0


def test_doubling_counts_one_ball_at_twice_the_largest_radius():
    heis = heisenberg()
    g = build_grid([(-0.5, 0.5), (-0.5, 0.5), (-0.06, 0.06)], 0.02)
    radii = [0.1, 0.2]
    ratios, C1 = doubling_estimate(heis, (0.01, 0, 0), radii, g, directions=8, step_scales=(1,))
    ball = metric_ball(heis, (0.01, 0, 0), 2 * max(radii), g, directions=8, step_scales=(1,))
    expected = [(R, np.count_nonzero(ball.dist <= 2 * R) / np.count_nonzero(ball.dist <= R))
                for R in radii]
    assert ratios == expected and C1 == max(r for _, r in expected)
    with pytest.raises(ValueError, match="too far"):
        doubling_estimate(heis, (0.8, 0, 0), radii, g, directions=8, step_scales=(1,))
    with pytest.raises(ValueError, match="clipped"):
        doubling_estimate(heis, (0, 0, 0), [0.3], g, directions=8, step_scales=(1,))


def test_heisenberg_volume_growth_dimension_four():
    # per-radius grids with resolution h ~ R^2 (the vertical reach of a
    # commutator loop scales like the squared budget); the log-log slope
    # of volume vs radius estimates the homogeneous dimension 4
    heis = heisenberg()
    vols = []
    radii = [0.4, 0.6, 0.9]
    for R in radii:
        h = R * R / 24
        tmax = R * R / 16
        box = [(-1.1 * R, 1.1 * R), (-1.1 * R, 1.1 * R), (-1.4 * tmax, 1.4 * tmax)]
        g = build_grid(box, h)
        ball = metric_ball(heis, (0, 0, 0), R, g, directions=16, step_scales=(1,))
        vols.append(ball.volume)
    slope = np.polyfit(np.log(radii), np.log(vols), 1)[0]
    assert 3.6 <= slope <= 4.4
    # the same data exhibit the doubling constant ~ 2^4 between per-radius runs
    ratio = np.exp(np.polyval(np.polyfit(np.log(radii), np.log(vols), 1), np.log(0.8))
                   - np.polyval(np.polyfit(np.log(radii), np.log(vols), 1), np.log(0.4)))
    assert 10.0 <= ratio <= 24.0


def test_heisenberg_single_grid_doubling_finite():
    # one-grid doubling on heisenberg: the t-direction of the inner ball is
    # at the resolution floor, so only coarse 4D-ish growth is asserted;
    # resolving both scales needs h << R^2/16, out of desk-scale reach
    heis = heisenberg()
    g = build_grid([(-0.55, 0.55), (-0.55, 0.55), (-0.025, 0.025)], 0.005)
    ratios, C1 = doubling_estimate(heis, (0, 0, 0), [0.25], g, directions=8, step_scales=(1,))
    assert np.isfinite(C1)
    assert 4.0 <= C1 <= 40.0


def test_poincare_constant_skipped():
    g = build_grid([(-0.65, 0.65), (-0.65, 0.65)], 0.02)
    ball = metric_ball(euclidean(2), (0, 0), 0.5, g, directions=16)
    rep = poincare_probe(euclidean(2), ball, [GridField.constant(g, 2.0)], 0.5)
    assert rep.ratios == []
    assert len(rep.skipped) == 1


def test_poincare_linear_field_stable_under_refinement():
    vals = []
    for h in (0.02, 0.01):
        g = build_grid([(-0.65, 0.65), (-0.65, 0.65)], h)
        ball = metric_ball(euclidean(2), (0, 0), 0.5, g, directions=32, step_scales=(1, 2, 3))
        u = GridField.from_function(g, lambda pts: pts[:, 0])
        rep = poincare_probe(euclidean(2), ball, [u], 0.5)
        vals.append(rep.ratios[0][1])
    assert abs(vals[0] - vals[1]) < 0.10 * abs(vals[1])


def test_poincare_heisenberg_corpus_stability():
    heis = heisenberg()
    vals = []
    for R in (0.5, 0.8):
        h = R * R / 24
        tmax = R * R / 16
        box = [(-1.1 * R, 1.1 * R), (-1.1 * R, 1.1 * R), (-1.4 * tmax, 1.4 * tmax)]
        g = build_grid(box, h)
        ball = metric_ball(heis, (0, 0, 0), R, g, directions=16, step_scales=(1,))
        corpus = random_polynomial_corpus(g, 20, degree=2, seed=42)
        rep = poincare_probe(heis, ball, corpus, R)
        vals.append(rep.C_est)
    assert abs(vals[0] - vals[1]) < 0.35 * max(vals)


def test_sobolev_bump_matches_direct_quadrature():
    g = build_grid([(-0.65, 0.65), (-0.65, 0.65)], 0.02)
    fam = euclidean(2)
    ball = metric_ball(fam, (0, 0), 0.5, g, directions=32, step_scales=(1, 2, 3))
    bump = ball_bump(ball, power=2)
    rep = sobolev_probe(fam, ball, [bump], 4.0, 2.0)
    assert len(rep.ratios) == 1
    # independent oracle: recompute both averages with hand-rolled forward
    # differences over the ball nodes
    dims = g.dims
    vals = bump.values.reshape(dims)
    gx = np.zeros(dims)
    gy = np.zeros(dims)
    gx[:-1, :] = (vals[1:, :] - vals[:-1, :]) / g.h
    gy[:, :-1] = (vals[:, 1:] - vals[:, :-1]) / g.h
    grad = np.sqrt(gx**2 + gy**2).ravel()
    in_ball = np.zeros(g.num_nodes, dtype=bool)
    in_ball[ball.node_ids] = True
    sel = in_ball.copy()
    # forward rows exclude the far faces, mirroring the operator row set
    outer = g.is_outer_face(np.arange(g.num_nodes))
    multi = np.unravel_index(np.arange(g.num_nodes), dims)
    far = (multi[0] == dims[0] - 1) | (multi[1] == dims[1] - 1)
    sel &= ~far
    lhs = np.mean(np.abs(bump.values[sel]) ** 4) ** 0.25
    rhs = 0.5 * np.mean(grad[sel] ** 2) ** 0.5
    oracle = lhs / rhs
    assert abs(rep.ratios[0][1] - oracle) < 1e-3 * oracle


def test_sobolev_corpus_bounded_under_refinement():
    fam = euclidean(2)
    vals = []
    for h in (0.02, 0.01):
        g = build_grid([(-0.65, 0.65), (-0.65, 0.65)], h)
        ball = metric_ball(fam, (0, 0), 0.5, g, directions=32, step_scales=(1, 2, 3))
        bumps = [ball_bump(ball, power=p) for p in (1, 2, 3)]
        rep = sobolev_probe(fam, ball, bumps, 4.0, 2.0)
        vals.append(rep.C_est)
    assert abs(vals[0] - vals[1]) < 0.20 * max(vals)


def test_sobolev_validates_support():
    g = build_grid([(-0.65, 0.65), (-0.65, 0.65)], 0.05)
    fam = euclidean(2)
    ball = metric_ball(fam, (0, 0), 0.4, g, directions=16)
    not_supported = GridField.constant(g, 1.0)
    with pytest.raises(ValueError, match="supported"):
        sobolev_probe(fam, ball, [not_supported], 4.0, 2.0)


def test_sobolev_requires_q_above_p():
    g = build_grid([(-0.65, 0.65), (-0.65, 0.65)], 0.05)
    fam = euclidean(2)
    ball = metric_ball(fam, (0, 0), 0.4, g, directions=16)
    with pytest.raises(ValueError):
        sobolev_probe(fam, ball, [ball_bump(ball)], 2.0, 2.0)


def test_path_csv_export():
    fam = euclidean(2)
    g = build_grid([(-0.2, 1.2), (-0.2, 1.2)], 0.1)
    _, path = cc_distance_graph(fam, g, (0, 0), (1, 0), directions=8)
    text = path.to_csv()
    lines = text.strip().splitlines()
    assert lines[0] == "x0,x1,t_cum"
    assert len(lines) == len(path.waypoints) + 1


@pytest.fixture(scope="module")
def vertical_seed():
    """Graph path from the origin to (0, 0, tau) in Heisenberg, tau = 0.04."""
    tau = 0.04
    h = tau / 4
    L = max(3.2 * np.sqrt(tau / np.pi), 8 * h)
    g = build_grid([(-L, L), (-L, L), (-1.3 * tau, 1.3 * tau)], h)
    _, seed = cc_distance_graph(heisenberg(), g, (0, 0, 0), (0, 0, tau), directions=16)
    return tau, seed


def test_refine_vertical_reaches_target_at_constant_speed(vertical_seed):
    # the least-energy control hits the target and has constant speed; its
    # length bounds the true distance sqrt(4 pi tau) from above
    tau, seed = vertical_seed
    S = 20
    refined = cc_distance_refine(heisenberg(), seed, segments=S, tol=1e-3)
    assert not refined.stalled
    assert np.linalg.norm(refined.waypoints[-1] - seed.waypoints[-1]) <= 1e-12
    np.testing.assert_allclose(refined.durations, refined.T / S, rtol=1e-5, atol=0)
    np.testing.assert_allclose(np.linalg.norm(refined.controls, axis=1), 1.0, rtol=1e-12)
    assert seed.T >= refined.T >= np.sqrt(4 * np.pi * tau) * (1 - 1e-9)
    assert refined.defect <= 1e-12


@pytest.mark.parametrize("S", [5, 7, 10, 13])
def test_refine_vertical_converges_before_the_step_cap(vertical_seed, monkeypatch, S):
    # one batch of the controls and their 2*S*m probes per Gauss-Newton
    # step, then one integration for the waypoints
    tau, seed = vertical_seed
    sizes = []
    integrate = ccm._integrate_controls_batch

    def counted_integrate(family, x0, controls, T, substeps=6):
        sizes.append(controls.shape[0])
        return integrate(family, x0, controls, T, substeps)

    monkeypatch.setattr(ccm, "_integrate_controls_batch", counted_integrate)
    refined = cc_distance_refine(heisenberg(), seed, segments=S, tol=1e-3)
    assert sizes[:-1] == [2 * S * 2 + 1] * (len(sizes) - 1)
    assert sizes[-1] == 1
    assert len(sizes) - 1 < ccm.REFINE_STEPS
    assert not refined.stalled
    assert refined.defect <= 1e-12
    assert seed.T > refined.T >= np.sqrt(4 * np.pi * tau) * (1 - 1e-9)


def test_refine_returns_seed_when_no_shorter_path(vertical_seed):
    # three pieces cannot beat the seed's square loop: the least-energy
    # triangle enclosing area tau is longer, so the seed comes back as it
    # is; with two pieces the loop diverges without raising
    _, seed = vertical_seed
    assert cc_distance_refine(heisenberg(), seed, segments=3, tol=1e-3) is seed
    assert cc_distance_refine(heisenberg(), seed, segments=2, tol=1e-3) is seed


def test_refine_stall_returns_seed_with_a_note(vertical_seed):
    # one constant control never leaves the (x, y)-line towards (0, 0, tau)
    _, seed = vertical_seed
    refined = cc_distance_refine(heisenberg(), seed, segments=1, tol=1e-3)
    assert refined.stalled
    assert refined.T == seed.T
    assert refined.waypoints is seed.waypoints
    assert refined.controls is seed.controls
    (note,) = refined.notes
    assert f"after {ccm.REFINE_STEPS} Gauss-Newton steps" in note
    assert "length" in note and "defect" in note


def test_refine_stalls_when_the_path_misses_the_endpoint(vertical_seed, monkeypatch):
    # one Gauss-Newton step leaves a path shorter than the seed whose end
    # misses (0, 0, tau) by about 15 x tol |y - x|: not an upper bound
    tau, seed = vertical_seed
    monkeypatch.setattr(ccm, "REFINE_STEPS", 1)
    refined = cc_distance_refine(heisenberg(), seed, segments=20, tol=1e-3)
    assert refined.stalled
    assert refined.T == seed.T
    assert refined.waypoints is seed.waypoints
    (note,) = refined.notes
    assert "after 1 Gauss-Newton steps" in note and "endpoint miss" in note


def _ref_snap(ctx, targets):
    """Reference: round, clip and measure the (N, n) offsets in one piece."""
    idx = np.rint((targets - ctx.grid.origin) / ctx.h).astype(np.int64)
    valid = np.all((idx >= 0) & (idx < ctx.dims), axis=1)
    idx_c = np.clip(idx, 0, ctx.dims - 1)
    ids = idx_c @ ctx.strides
    valid &= ctx.ok_node[ids]
    s = np.linalg.norm(targets - (ctx.grid.origin + idx_c * ctx.h), axis=1)
    return ids, s, valid


def _ref_snapped_edges(ctx, p, targets, base):
    ids, s, valid = _ref_snap(ctx, targets)
    valid &= ids != p
    sig = ctx.sigma[ids]
    valid &= (s <= ccm.SNAP_ZERO) | (sig > ctx.sigma_floor)
    w = base + np.where(s <= ccm.SNAP_ZERO, 0.0, s / np.maximum(sig, ctx.sigma_floor))
    sel = np.flatnonzero(valid)
    return sel, ids[sel], w[sel]


def _ref_edges_from(ctx, p):
    """Reference: the edges out of one node, built node by node."""
    parts = []
    x = ctx.coords[p]
    vel = ctx.F @ ctx.A_all[p]
    for mult in ctx.step_scales:
        dt = mult * ctx.h
        sel, ids, w = _ref_snapped_edges(ctx, p, x + dt * vel, dt)
        parts.append((ids, w, np.zeros(sel.size, dtype=np.int8), sel.astype(np.int32),
                      np.full(sel.size, dt)))
    for pi, bvals in enumerate(ctx.bracket_vals):
        b = bvals[p]
        if np.linalg.norm(b) * ctx.comm_s[-1] ** 2 < 0.25 * ctx.h:
            continue
        disp = np.outer(ctx.comm_s**2, b)
        for sgn in (1, -1):
            sel, ids, w = _ref_snapped_edges(ctx, p, x + sgn * disp, 4.0 * ctx.comm_s)
            parts.append((ids, w, np.ones(sel.size, dtype=np.int8),
                          np.full(sel.size, pi * 2 + (sgn < 0), dtype=np.int32),
                          ctx.comm_s[sel]))
    return tuple(np.concatenate(col) for col in zip(*parts))


def _ref_dijkstra(ctx, source, target=None, rmax=None):
    """Reference: heap Dijkstra that settles and expands one node at a time."""
    N = ctx.grid.num_nodes
    dist = np.full(N, np.inf)
    settled = np.zeros(N, dtype=bool)
    parent = np.full(N, -1, dtype=np.int64)
    p_kind = np.zeros(N, dtype=np.int8)
    p_info = np.zeros(N, dtype=np.int32)
    p_scale = np.zeros(N)
    p_dur = np.zeros(N)
    dist[source] = 0.0
    heap = [(0.0, source)]
    while heap:
        d, p = heapq.heappop(heap)
        if settled[p]:
            continue
        if rmax is not None and d > rmax:
            break
        settled[p] = True
        if p == target:
            break
        ids, w, kind, info, scale = _ref_edges_from(ctx, p)
        nd = d + w
        better = nd < dist[ids]
        for t, ndv, kv, iv, sv, wv in zip(
            ids[better], nd[better], kind[better], info[better], scale[better], w[better]
        ):
            if ndv >= dist[t]:
                continue
            dist[t] = ndv
            parent[t] = p
            p_kind[t] = kv
            p_info[t] = iv
            p_scale[t] = sv
            p_dur[t] = wv
            heapq.heappush(heap, (float(ndv), int(t)))
    return dist, settled, (parent, p_kind, p_info, p_scale, p_dur)


def _assert_same_search(got, ref):
    for a, b in zip((got[0], got[1], *got[2]), (ref[0], ref[1], *ref[2])):
        assert a.dtype == b.dtype
        assert a.tobytes() == b.tobytes()


@st.composite
def _graph_queries(draw):
    three_d = draw(st.booleans())
    family = heisenberg() if three_d else euclidean(2)
    h = draw(st.sampled_from([0.05, 0.1, 0.125]))
    half = [draw(st.integers(3, 6)) * h for _ in range(2)]
    box = [(-half[0], half[0]), (-half[1], half[1])]
    if three_d:
        box.append((-2 * h, draw(st.integers(2, 4)) * h))
    grid = build_grid(box, h)
    if draw(st.booleans()):
        r = draw(st.floats(2.0, 5.0)) * h
        grid = grid.with_mask(
            mask_domain(grid, lambda pts: pts[:, 0] ** 2 + pts[:, 1] ** 2 < r * r).mask)
    usable = np.flatnonzero(grid.mask != EXTERIOR)
    source = int(usable[draw(st.integers(0, usable.size - 1))])
    scales = st.lists(st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0]), min_size=1, max_size=3)
    ctx = ccm._GraphContext(
        family, grid, draw(st.integers(2, 16)),
        draw(st.lists(st.sampled_from([1, 2, 4, 8, 16]), min_size=1, max_size=3)),
        draw(scales),
    )
    if draw(st.booleans()):
        query = {"rmax": draw(st.floats(0.0, 1.0))}
    else:
        query = {"target": int(usable[draw(st.integers(0, usable.size - 1))])}
    return family, ctx, source, query


@settings(max_examples=60)
@given(_graph_queries())
def test_bucketed_dijkstra_matches_heap_dijkstra(case):
    family, ctx, source, query = case
    got = ccm._dijkstra(ctx, source, **query)
    _assert_same_search(got, _ref_dijkstra(ctx, source, **query))
    # every edge's planar displacement is at most its duration (sigma_min(A) = 1,
    # commutator loops are closed in the (x, y) plane), so reached nodes keep
    # the euclidean / planar lower bound
    dist = got[0]
    reached = np.flatnonzero(np.isfinite(dist))
    planar = np.linalg.norm(ctx.coords[reached, :2] - ctx.coords[source, :2], axis=1)
    assert np.all(dist[reached] >= (1.0 - 1e-12) * planar)


def test_batched_edges_match_per_node_edges():
    g = build_grid([(-0.3, 0.3), (-0.3, 0.3), (-0.1, 0.1)], 0.05)
    ctx = ccm._GraphContext(heisenberg(), g, 16, (1, 2, 4), (1, 2))
    nodes = np.array([g.nearest_node(p) for p in ((0, 0, 0), (0.25, -0.3, 0.1), (0.1, 0.1, -0.05))])
    ids, w, kind, info, scale, src, pos = ctx.edges_from(nodes)
    for r, p in enumerate(nodes):
        ref = _ref_edges_from(ctx, p)
        mine = src == r
        assert np.all(np.diff(pos[mine]) > 0)
        for a, b in zip((ids[mine], w[mine], kind[mine], info[mine], scale[mine]), ref):
            assert a.tobytes() == b.tobytes()


def test_graph_build_evaluates_coefficients_once(monkeypatch):
    # Heisenberg's coefficients never mention t: one evaluation on the
    # t-index-0 plane of 13 x 13 nodes serves all 13 x 13 x 5
    heis = heisenberg()
    calls = []
    evaluate = type(heis).eval_coefficients_batch

    def counted(self, points):
        calls.append(len(points))
        return evaluate(self, points)

    monkeypatch.setattr(type(heis), "eval_coefficients_batch", counted)
    g = build_grid([(-0.3, 0.3), (-0.3, 0.3), (-0.1, 0.1)], 0.05)
    ctx = ccm._GraphContext(heis, g, 16, (1, 2, 4), (1, 2))
    assert g.num_nodes == 13 * 13 * 5 and calls == [13 * 13]
    sigma = np.linalg.svd(evaluate(heis, g.points), compute_uv=False).min(axis=1)
    assert ctx.sigma.tobytes() == sigma.tobytes()


def _family_of_every_axis():
    """A 3-D pair of fields whose coefficients mention x, y and t."""
    def poly(*terms):
        return Polynomial(3, terms)
    one = poly((1.0, (0, 0, 0)))
    rows = ((one, poly((0.2, (0, 0, 2))), poly((-0.5, (0, 1, 0)))),
            (poly((0.1, (1, 0, 1))), one, poly((0.5, (1, 0, 0)), (0.3, (0, 1, 3)))))
    return VectorFieldFamily(n=3, m=2, coeffs=rows, name="every-axis")


@pytest.mark.parametrize("family", [heisenberg(), grushin(), euclidean(3), _family_of_every_axis()],
                         ids=lambda fam: fam.name)
def test_graph_build_matches_evaluation_at_every_node(family):
    g = build_grid([(-0.3, 0.3), (-0.2, 0.25), (-0.1, 0.1)][: family.n], 0.05)
    ctx = ccm._GraphContext(family, g, 8, (1, 2), (1,))
    A = family.eval_coefficients_batch(g.points)
    sigma = np.linalg.svd(A, compute_uv=False).min(axis=1)
    assert ctx.A_all.shape == A.shape and ctx.A_all.tobytes() == A.tobytes()
    assert ctx.sigma.shape == sigma.shape and ctx.sigma.tobytes() == sigma.tobytes()
    assert ctx.sigma_floor == ccm.SIGMA_FLOOR * max(float(sigma.max()), 1.0)
    brackets = {(i, j): lie_bracket(family.coeffs[i], family.coeffs[j])
                for i in range(family.m) for j in range(i + 1, family.m)}
    pairs = [ij for ij, br in brackets.items() if not all(p.is_zero for p in br)]
    assert ctx.pairs == pairs and len(ctx.bracket_vals) == len(pairs)
    for ij, vals in zip(pairs, ctx.bracket_vals):
        full = np.column_stack([p.evaluate(g.points) for p in brackets[ij]])
        assert vals.shape == full.shape and vals.tobytes() == full.tobytes()


@pytest.mark.parametrize("scales", [
    {"step_scales": (0,)}, {"step_scales": (1, -1)}, {"step_scales": (np.inf,)},
    {"comm_scales": (1, 0)}, {"comm_scales": (np.nan,)},
])
def test_non_positive_scales_rejected(scales):
    # commutator scales are a code constant, so only the graph context takes them
    heis = heisenberg()
    g = build_grid([(-0.3, 0.3), (-0.3, 0.3), (-0.1, 0.1)], 0.05)
    with pytest.raises(ValueError, match="must be finite and > 0"):
        ccm._GraphContext(heis, g, 8, **{"comm_scales": ccm.COMM_SCALES, **scales})
    if "step_scales" in scales:
        with pytest.raises(ValueError, match="must be finite and > 0"):
            cc_distance_graph(heis, g, (0, 0, 0), (0.2, 0.1, 0), directions=8, **scales)
        with pytest.raises(ValueError, match="must be finite and > 0"):
            metric_ball(heis, (0, 0, 0), 0.1, g, directions=8, **scales)


@pytest.mark.parametrize("box", [[(-1, 1), (0, 2)], [(-1, 1), (0, 1), (-0.5, 0.5)]])
def test_polynomial_corpus_matches_a_term_by_term_evaluation(box):
    # each member sums, in exponent order, its seeded coefficient times each
    # coordinate power in axis order: the same floating-point operations, bit for bit
    g = build_grid(box, 0.25)
    corpus = random_polynomial_corpus(g, 4, degree=2, seed=7)
    rng = np.random.default_rng(7)
    exps = [e for e in np.ndindex(*(3,) * g.n) if sum(e) <= 2]
    for member in corpus:
        ref = np.zeros(g.num_nodes)
        for c, e in zip(rng.standard_normal(len(exps)), exps):
            term = np.full(g.num_nodes, c)
            for k, ek in enumerate(e):
                if ek:
                    term = term * g.points[:, k] ** ek
            ref += term
        np.testing.assert_array_equal(member.values, ref)


def test_controls_integrate_exactly_on_a_constant_family():
    # with constant coefficients the flow is x0 + (T/S) sum_s u_s A
    rng = np.random.default_rng(3)
    controls = rng.standard_normal((4, 5, 2))
    states = ccm._integrate_controls_batch(euclidean(2), (0.5, -1.0), controls, 2.0)
    ref = np.array([0.5, -1.0]) + np.cumsum(controls, axis=1) * (2.0 / 5)
    np.testing.assert_allclose(states[:, 1:], ref, rtol=0, atol=1e-14)
    assert (states[:, 0] == (0.5, -1.0)).all()


def _ref_velocity(family, points, controls):
    """Reference: contract the controls with the full coefficient tensor."""
    return np.einsum("bm,bmn->bn", controls, family.eval_coefficients_batch(points))


def _family_of_three_dense_fields():
    """Three fields on R^2 with no zero coefficient: each velocity sums three products."""
    def poly(*terms):
        return Polynomial(2, terms)
    rows = ((poly((1.0, (0, 0))), poly((0.3, (1, 1)), (-2.0, (0, 0)))),
            (poly((0.7, (2, 0)), (0.1, (0, 1))), poly((1.0, (0, 1)))),
            (poly((-1.3, (1, 2))), poly((0.5, (3, 0)), (1.0, (0, 0)))))
    return VectorFieldFamily(n=2, m=3, coeffs=rows, name="three-dense")


_FAMILIES = [heisenberg(), grushin(), euclidean(2), euclidean(3), _family_of_every_axis(),
             _family_of_three_dense_fields()]


@pytest.mark.parametrize("N", [1, 7, 81, 1000])
@pytest.mark.parametrize("family", _FAMILIES, ids=lambda fam: fam.name)
def test_velocity_kernel_matches_the_coefficient_tensor_bit_for_bit(family, N):
    rng = np.random.default_rng(N)
    x = rng.uniform(-2.0, 2.0, (N, family.n))
    u = rng.standard_normal((N, family.m))
    x[::3, 0] = -0.0  # signed zeros in the points and controls
    u[::4, -1] = -0.0
    got = family.velocity_batch(x, u)
    ref = _ref_velocity(family, x, u)
    assert got.shape == ref.shape and got.tobytes() == ref.tobytes()


def _ref_integrate(family, x0, controls, T, substeps):
    """Reference: RK2 with both stage velocities from the coefficient tensor."""
    B, S, _ = controls.shape
    state = np.tile(np.asarray(x0, dtype=float), (B, 1))
    states = [state]
    hdt = T / S / substeps
    for si in range(S):
        f = controls[:, si, :]
        for _ in range(substeps):
            mid = state + 0.5 * hdt * _ref_velocity(family, state, f)
            state = state + hdt * _ref_velocity(family, mid, f)
        states.append(state)
    return np.stack(states, axis=1)


@pytest.mark.parametrize("family", _FAMILIES, ids=lambda fam: fam.name)
def test_integrated_controls_match_the_coefficient_tensor_rk2_bit_for_bit(family):
    rng = np.random.default_rng(5)
    x0 = rng.uniform(-0.5, 0.5, family.n)
    for B, S, T, substeps in ((1, 3, 1.0, 8), (81, 20, 1.0, ccm.REFINE_SUBSTEPS), (7, 4, 0.3, 6)):
        controls = rng.standard_normal((B, S, family.m))
        got = ccm._integrate_controls_batch(family, x0, controls, T, substeps)
        ref = _ref_integrate(family, x0, controls, T, substeps)
        assert got.shape == ref.shape == (B, S + 1, family.n)
        assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("masked", [False, True])
def test_snap_matches_the_whole_offset_formula_bit_for_bit(masked):
    g = build_grid([(-0.3, 0.3), (-0.2, 0.25), (-0.1, 0.1)], 0.05)
    if masked:
        g = g.with_mask(mask_domain(g, lambda pts: pts[:, 0] ** 2 + pts[:, 1] ** 2 < 0.04).mask)
    ctx = ccm._GraphContext(heisenberg(), g, 8, (1, 2), (1,))
    rng = np.random.default_rng(11)
    lo, hi = g.origin, g.origin + (np.array(g.dims) - 1) * g.h
    inside = rng.uniform(lo, hi, (200, 3))
    faces, far = [], []  # past each face, by under half a cell, half a cell and 3.7 cells
    for k in range(3):
        for side, sgn in ((lo, -1.0), (hi, 1.0)):
            for by in (0.3, 0.5, 3.7):
                pt = inside[:20].copy()
                pt[:, k] = side[k] + sgn * by * g.h
                faces.append(pt)
                far.append(np.full(20, by > 1))
    nodes = g.points[rng.choice(g.num_nodes, 50, replace=False)]
    half = nodes + 0.5 * g.h * rng.choice([-1.0, 0.0, 1.0], nodes.shape)  # half a cell off
    exterior = g.points[g.mask == EXTERIOR]
    assert (exterior.size > 0) == masked
    targets = np.vstack([inside, *faces, nodes, half, exterior])
    got, ref = ctx._snap(targets), _ref_snap(ctx, targets)
    for a, b in zip(got, ref):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    far = np.concatenate([np.zeros(len(inside), dtype=bool), *far])
    assert not got[2][: far.size][far].any()
    if masked:
        assert not got[2][-exterior.shape[0]:].any()
