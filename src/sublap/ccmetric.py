"""Carnot-Caratheodory distance, metric balls, and measure/inequality probes.

Distances are estimated in two stages.  Stage one is Dijkstra over grid
nodes: from each node, one Euler step of duration h along sampled unit
controls reaches neighbors (snapped to the nearest node, with the edge
duration inflated by snap-distance / sigma_min(A)); in addition, square
commutator loops exp(sX_i) exp(sX_j) exp(-sX_i) exp(-sX_j) of duration 4s
provide sound upper-bound edges along bracket directions, without which
no grid walk can advance along a bracket direction at sub-unit radius
(the per-step drift h*r/2 always snaps away).  Dijkstra settles one
distance bucket at a time: no edge is shorter than the smallest base
duration w_min, so every frontier node within w_min of the closest one is
final, and the edges of the whole bucket are built and relaxed in one
batch of array operations.  Ties are broken in the order of a
one-node-at-a-time heap Dijkstra, so distances and parents match it
exactly.  The coefficients, sigma_min and bracket values behind the edges
are computed once per value of the axes their polynomials mention, and
gathered to every node.  Stage two resamples the seed path as
piecewise-constant controls on [0, 1] and finds the least-energy controls
that reach the target: at constant speed, length equals sqrt(energy), so
these give the shortest path with that many pieces.  One Gauss-Newton loop
steps onto the endpoint and halfway down the energy along it; a result no
shorter than the seed returns the seed.
Every flow, seed commutator legs included, goes through one batched RK2
integrator: each Gauss-Newton step integrates the controls and their
Jacobian probes in one batch, and each RK2 stage takes sum_j u_j X_j from
the family's prepared velocity kernel, not from the (B, m, n) coefficient
tensor.  Edge targets are snapped to nodes one axis at a time.

Every edge corresponds to a genuinely horizontal motion plus an explicit
time surcharge, so the graph value is an upper bound on d up to the
reported defect.

Metric balls are one radius-limited Dijkstra search.  The doubling ratios
|B(2R)| / |B(R)| are counts over one ball of radius 2 max R, and the
Poincare and Sobolev probes share one pass that evaluates |Xu| on the
ball's gradient quadrature rows.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .fields import Polynomial, lie_bracket
from .mesh import EXTERIOR, GridField
from .operators import assemble_first_order

SIGMA_FLOOR = 1e-8        # relative floor on sigma_min(A) before an edge is rejected
SNAP_ZERO = 1e-12
DEFAULT_DIRECTIONS = 32
COMM_SCALES = (1, 2, 4, 8, 16)  # commutator loop areas in units of h
REFINE_STEPS = 100        # Gauss-Newton steps of the refinement before it gives up
REFINE_SUBSTEPS = 6       # RK2 substeps per control piece in the refinement


class CCUnreachableError(RuntimeError):
    """Target disconnected under snap; carries the largest reached ball."""

    def __init__(self, message, reached_radius, reached_count):
        super().__init__(message)
        self.reached_radius = reached_radius
        self.reached_count = reached_count


@dataclass(eq=False)
class PathResult:
    """A horizontal path: total duration T, waypoints, per-segment unit controls."""

    T: float
    waypoints: np.ndarray      # (S+1, n)
    controls: np.ndarray       # (S, m)
    durations: np.ndarray      # (S,)
    defect: float
    stalled: bool = False
    notes: list = field(default_factory=list)

    def to_csv(self):
        n = self.waypoints.shape[1]
        lines = [",".join([f"x{k}" for k in range(n)] + ["t_cum"])]
        t = 0.0
        for i, w in enumerate(self.waypoints):
            lines.append(",".join(repr(float(v)) for v in w) + f",{t!r}")
            if i < len(self.durations):
                t += float(self.durations[i])
        return "\n".join(lines) + "\n"


def unit_controls(m, directions):
    """`directions` points on the unit sphere of R^m, deterministic."""
    if directions < 2:
        raise ValueError("need at least 2 directions")
    if m == 1:
        return np.array([[1.0], [-1.0]])
    if m == 2:
        ang = 2.0 * np.pi * np.arange(directions) / directions
        return np.column_stack([np.cos(ang), np.sin(ang)])
    rng = np.random.default_rng(0xC0FFEE)
    axes = np.vstack([np.eye(m), -np.eye(m)])
    extra = rng.standard_normal((max(directions - 2 * m, 0), m))
    extra /= np.linalg.norm(extra, axis=1, keepdims=True)
    return np.vstack([axes, extra])[:directions]


class _GraphContext:
    """Per-(family, grid) data shared by distance and ball queries."""

    def __init__(self, family, grid, directions, comm_scales, step_scales=(1,)):
        for name, scales in (("step_scales", step_scales), ("comm_scales", comm_scales)):
            arr = np.asarray(scales, dtype=float)
            if not (arr.size and np.all(np.isfinite(arr) & (arr > 0))):
                raise ValueError(f"{name} must be finite and > 0, got {list(scales)}")
        self.family = family
        self.grid = grid
        self.h = grid.h
        self.coords = grid.points
        self.F = unit_controls(family.m, directions)
        self.step_scales = np.asarray(step_scales, dtype=float)
        # nonzero brackets [X_i, X_j], i < j
        self.pairs, brackets = [], []
        for i in range(family.m):
            for j in range(i + 1, family.m):
                br = lie_bracket(family.coeffs[i], family.coeffs[j])
                if not all(p.is_zero for p in br):
                    self.pairs.append((i, j))
                    brackets.append(br)
        # Coefficients, sigma_min and brackets vary only along the axes some
        # polynomial mentions: evaluate them at index 0 of every other axis
        # and gather the values back to all nodes.
        polys = [p for rows in (family.coeffs, brackets) for row in rows for p in row]
        used = [any(e[k] for p in polys for _, e in p.terms) for k in range(grid.n)]
        shape = [d if u else 1 for d, u in zip(grid.dims, used)]
        rep = np.arange(grid.num_nodes).reshape(grid.dims)[tuple(slice(d) for d in shape)].ravel()
        gather = np.broadcast_to(np.arange(rep.size).reshape(shape), grid.dims).ravel()
        pts = self.coords[rep]
        A = family.eval_coefficients_batch(pts)
        sigma = np.linalg.svd(A, compute_uv=False).min(axis=1)
        self.A_all = A[gather]
        self.sigma = sigma[gather]
        self.sigma_floor = SIGMA_FLOOR * max(float(sigma.max()), 1.0)
        self.bracket_vals = [np.column_stack([p.evaluate(pts) for p in br])[gather] for br in brackets]
        self.dims = np.array(grid.dims, dtype=np.int64)
        self.strides = grid.strides
        self.ok_node = grid.mask != EXTERIOR
        self.comm_s = np.sqrt(np.array(comm_scales, dtype=float) * self.h) if self.pairs else np.array([])
        # no edge is shorter than its base duration (snap surcharges are >= 0)
        bases = np.concatenate([self.step_scales * self.h, 4.0 * self.comm_s])
        self.w_min = bases.min(initial=np.inf)

    def _snap(self, targets_float):
        """Round to nodes; returns (ids, snap distance, valid mask).

        One axis at a time: round, range-check, clip and add index * stride,
        then add the squared offset from the node in axis order; one sqrt at
        the end rounds as norm(axis=1) of the (N, n) offsets does.
        """
        N = targets_float.shape[0]
        ids = np.zeros(N, dtype=np.int64)
        valid = np.ones(N, dtype=bool)
        s2 = np.zeros(N)
        for t, lo, dim, stride in zip(targets_float.T, self.grid.origin, self.dims, self.strides):
            ik = np.rint((t - lo) / self.h).astype(np.int64)
            valid &= (ik >= 0) & (ik < dim)
            np.clip(ik, 0, dim - 1, out=ik)
            ids += ik * stride
            off = t - (lo + ik * self.h)
            s2 += off * off
        valid &= self.ok_node[ids]
        return ids, np.sqrt(s2), valid

    def edges_from(self, ps):
        """All edges out of the nodes `ps`, built in one batch.

        Returns (target ids, durations, kind, info, scale, src, pos): `src`
        is the edge's row in `ps` and `pos` its position among one node's
        edges (step edges by scale, then direction; then commutator loops by
        pair, sign and scale); edges come out ordered by (src, pos).  A
        snapped edge pays its snap distance over sigma_min(A) at the target
        on top of its base duration; self-loops and targets whose sigma_min
        is below the floor are dropped.
        """
        ps = np.asarray(ps, dtype=np.int64)
        B, n = ps.size, self.grid.n
        D, C = self.F.shape[0], self.comm_s.size
        x = self.coords[ps][:, None, :]                      # (B, 1, n)
        vel = self.F @ self.A_all[ps]                        # (B, D, n)
        parts = []  # (ends (B, k, n), live (B, k), kind, info, scale) per edge family
        for mult in self.step_scales:
            dt = mult * self.h
            parts.append((x + dt * vel, np.ones((B, D), dtype=bool), np.zeros(D, dtype=np.int8),
                          np.arange(D, dtype=np.int32), np.full(D, dt)))
        for pi, bvals in enumerate(self.bracket_vals):
            b = bvals[ps]
            # a stacked `@` rounds like the per-node norm(b)
            nb = np.sqrt((b[:, None, :] @ b[:, :, None])[:, 0, 0])
            reach = nb * self.comm_s[-1] ** 2 >= 0.25 * self.h  # loop can reach the next node level
            live = np.repeat(reach[:, None], C, axis=1)
            disp = (self.comm_s**2)[None, :, None] * b[:, None, :]  # (B, C, n)
            for neg in (0, 1):
                parts.append((x - disp if neg else x + disp, live, np.ones(C, dtype=np.int8),
                              np.full(C, pi * 2 + neg, dtype=np.int32), self.comm_s))
        ends, live, kind, info, scale = zip(*parts)
        kind, info, scale = (np.concatenate(col) for col in (kind, info, scale))
        E = kind.size
        base = np.where(kind == 1, 4.0 * scale, scale)   # a loop of side s lasts 4s
        ids, s, valid = self._snap(np.concatenate(ends, axis=1).reshape(-1, n))
        valid &= np.concatenate(live, axis=1).ravel()
        valid &= ids != np.repeat(ps, E)
        sig = self.sigma[ids]
        valid &= (s <= SNAP_ZERO) | (sig > self.sigma_floor)
        w = np.tile(base, B) + np.where(s <= SNAP_ZERO, 0.0, s / np.maximum(sig, self.sigma_floor))
        sel = np.flatnonzero(valid)
        src, pos = np.divmod(sel, E)
        return ids[sel], w[sel], kind[pos], info[pos], scale[pos], src, pos


def _dijkstra(ctx, source, target=None, rmax=None):
    """Shortest graph durations from `source`, settled a distance bucket at a time.

    Each round takes d_min, the smallest tentative distance on the
    frontier.  No edge is shorter than ctx.w_min, so every frontier node
    with dist < d_min + w_min is final; the bucket is settled and all its
    edges are built and relaxed in one batch.  A node improved by several
    candidates keeps the least in (duration, the source's pop order
    (dist, id), edge position): the order in which a one-node-at-a-time
    heap Dijkstra applies them, so dist and the parent arrays match it
    exactly.  With `rmax`, nodes beyond it stay unsettled; with `target`,
    the search stops once the target is settled.
    """
    N = ctx.grid.num_nodes
    dist = np.full(N, np.inf)
    settled = np.zeros(N, dtype=bool)
    parent = np.full(N, -1, dtype=np.int64)
    p_kind = np.zeros(N, dtype=np.int8)
    p_info = np.zeros(N, dtype=np.int32)
    p_scale = np.zeros(N)
    p_dur = np.zeros(N)
    dist[source] = 0.0
    front = np.array([source], dtype=np.int64)
    on_front = np.zeros(N, dtype=bool)
    on_front[source] = True
    while front.size:
        fd = dist[front]
        d_min = fd.min()
        take = (fd < d_min + ctx.w_min) | (fd == d_min)  # the minimum settles even below an ulp
        if rmax is not None:
            take &= fd <= rmax
        if not take.any():
            break
        bucket = front[take]
        bucket = bucket[np.lexsort((bucket, dist[bucket]))]  # heap pop order
        front = front[~take]
        on_front[bucket] = False
        expand, done = bucket, False
        hit = np.flatnonzero(bucket == target) if target is not None else ()
        if len(hit):  # the target pops in this bucket: the search ends there
            bucket, expand, done = bucket[: hit[0] + 1], bucket[: hit[0]], True
        settled[bucket] = True
        ids, w, kind, info, scale, src, _ = ctx.edges_from(expand)
        nd = dist[expand][src] + w
        keep = np.flatnonzero(nd < dist[ids])
        # edges come in (src, pos) order and lexsort is stable: ties keep it
        order = keep[np.lexsort((nd[keep], ids[keep]))]
        win = order[np.diff(ids[order], prepend=-1) != 0]  # first candidate per target
        t = ids[win]
        dist[t] = nd[win]
        parent[t] = expand[src[win]]
        p_kind[t] = kind[win]
        p_info[t] = info[win]
        p_scale[t] = scale[win]
        p_dur[t] = w[win]
        new = t[~on_front[t]]
        on_front[new] = True
        front = np.concatenate([front, new])
        if done:
            break
    return dist, settled, (parent, p_kind, p_info, p_scale, p_dur)


def _reconstruct(ctx, source, target, parents):
    parent, p_kind, p_info, p_scale, p_dur = parents
    chain = []
    node = target
    while node != source:
        chain.append(node)
        node = int(parent[node])
        if node < 0:
            raise RuntimeError("broken parent chain")
    chain.append(source)
    chain.reverse()
    m = ctx.family.m
    waypoints = [ctx.coords[chain[0]].copy()]
    controls = []
    durations = []
    for prev, cur in zip(chain, chain[1:]):
        kind = p_kind[cur]
        if kind == 0:
            f = ctx.F[p_info[cur]]
            controls.append(f)
            durations.append(float(p_dur[cur]))
            waypoints.append(ctx.coords[cur].copy())
        else:
            pi, neg = divmod(int(p_info[cur]), 2)
            i, j = ctx.pairs[pi]
            s = float(p_scale[cur])
            order = [(i, 1.0), (j, 1.0), (i, -1.0), (j, -1.0)]
            if neg:
                order = [(j, 1.0), (i, 1.0), (j, -1.0), (i, -1.0)]
            legs = np.zeros((1, 4, m))
            for li, (fld, sgn) in enumerate(order):
                legs[0, li, fld] = sgn
            ends = _integrate_controls_batch(ctx.family, ctx.coords[prev], legs, 4.0 * s, substeps=8)
            extra = float(p_dur[cur]) - 4.0 * s  # snap surcharge on the last leg
            controls.extend(legs[0])
            durations.extend([s, s, s, s + extra])
            waypoints.extend(ends[0, 1:])
            waypoints[-1] = ctx.coords[cur].copy()  # close the snap gap at the node
    waypoints = np.array(waypoints)
    controls = np.array(controls) if controls else np.zeros((0, m))
    durations = np.array(durations)
    defect = _path_defect(ctx.family, waypoints, controls, durations)
    return PathResult(
        T=float(durations.sum()),
        waypoints=waypoints,
        controls=controls,
        durations=durations,
        defect=defect,
    )


def _path_defect(family, waypoints, controls, durations):
    """Max violation of gamma' = sum f_j X_j across segments (midpoint rule)."""
    seg = np.flatnonzero(durations > 0)
    if seg.size == 0:
        return 0.0
    w0, w1 = waypoints[seg], waypoints[seg + 1]
    A = family.eval_coefficients_batch(0.5 * (w0 + w1))
    # a stacked `@` and row-wise vector norms round like the per-segment
    # forms (einsum and norm(axis=1) can differ in the last bits)
    v = (controls[seg][:, None, :] @ A)[:, 0]
    gap = (w1 - w0) / durations[seg][:, None] - v
    return max(float(np.linalg.norm(row)) for row in gap)


def cc_distance_graph(family, grid, x, y, directions=DEFAULT_DIRECTIONS, step_scales=(1,)):
    """Dijkstra upper bound on d(x, y) and the realizing path."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    lo = grid.origin
    hi = grid.origin + (np.array(grid.dims) - 1) * grid.h
    for pt in (x, y):
        if np.any(pt < lo - 1e-12) or np.any(pt > hi + 1e-12):
            raise ValueError(f"point {pt} outside the grid box")
    ctx = _GraphContext(family, grid, directions, COMM_SCALES, step_scales)
    src = grid.nearest_node(x)
    tgt = grid.nearest_node(y)
    if src == tgt:
        return 0.0, PathResult(
            T=0.0, waypoints=np.array([grid.points[src]] * 2),
            controls=np.zeros((1, family.m)), durations=np.zeros(1), defect=0.0,
        )
    dist, settled, parents = _dijkstra(ctx, src, target=tgt)
    if not np.isfinite(dist[tgt]):
        reached = dist[settled]
        raise CCUnreachableError(
            f"target {y} unreachable under snap from {x}",
            reached_radius=float(reached.max()) if reached.size else 0.0,
            reached_count=int(settled.sum()),
        )
    path = _reconstruct(ctx, src, tgt, parents)
    return float(dist[tgt]), path


def _resample_controls(seed, segments):
    """Piecewise-constant controls of the seed (T > 0) sampled on `segments` equal slices."""
    edges = np.concatenate([[0.0], np.cumsum(seed.durations)])
    mid = (np.arange(segments) + 0.5) * (seed.T / segments)
    idx = np.clip(np.searchsorted(edges, mid, side="right") - 1, 0, len(seed.durations) - 1)
    return seed.controls[idx].copy()


def _integrate_controls_batch(family, x0, controls, T, substeps=6):
    """RK2 flows from x0 for a batch of control grids; controls (B, S, m).

    Each of the S segments lasts T/S, split into `substeps` midpoint steps
    whose two velocities come from `family.velocity_batch`; returns the
    states at the segment ends, shape (B, S+1, n), with x0 in column 0.
    """
    B, S, m = controls.shape
    state = np.tile(np.asarray(x0, dtype=float), (B, 1))
    states = [state]
    dt = T / S
    hdt = dt / substeps
    for si in range(S):
        f = controls[:, si, :]
        for _ in range(substeps):
            mid = state + 0.5 * hdt * family.velocity_batch(state, f)
            state = state + hdt * family.velocity_batch(mid, f)
        states.append(state)
    return np.stack(states, axis=1)


def cc_distance_refine(family, seed, segments=24, tol=1e-3):
    """Shortest piecewise-constant path to the seed's endpoint.

    A horizontal path has length <= sqrt(T * energy), with equality at
    constant speed, so the shortest path with `segments` constant pieces
    that reaches the target is the least-energy control u on [0, 1].  Each
    Gauss-Newton step integrates u and its +-1e-6 probes in one batch and
    moves u by the minimum-norm correction onto the endpoint plus half the
    energy step along it.  The length sum |u_i| / S is T; a result that is
    not shorter than the seed returns the seed, and a non-finite T, a
    defect above `tol` or an endpoint miss above tol * |y - x| returns the
    seed with the stall flag set.
    """
    if segments < 1:
        raise ValueError(f"segments must be at least 1, got {segments}")
    if seed.T <= 0:
        return seed
    x0 = seed.waypoints[0].copy()
    target = seed.waypoints[-1].copy()
    S = segments
    u = _resample_controls(seed, S) * seed.T
    m = u.shape[1]
    B = S * m
    fd = 1e-6
    probes = np.concatenate([np.zeros((1, B)), fd * np.eye(B), -fd * np.eye(B)])
    miss_tol = 1e-12 * float(np.linalg.norm(target - x0))
    length = np.inf
    for steps in range(1, REFINE_STEPS + 1):
        batch = (u.reshape(-1) + probes).reshape(-1, S, m)
        ends = _integrate_controls_batch(family, x0, batch, 1.0, REFINE_SUBSTEPS)[:, -1]
        r = ends[0] - target
        prev, length = length, float(np.linalg.norm(u, axis=1).sum()) / S
        if abs(length - prev) <= 1e-12 * length and np.linalg.norm(r) <= miss_tol:
            break
        J = ((ends[1 : B + 1] - ends[B + 1 :]) / (2 * fd)).T   # (n, S*m)
        G = np.linalg.pinv(J @ J.T)
        v = u.reshape(-1)
        v = v - J.T @ (G @ r) - 0.5 * (v - J.T @ (G @ (J @ v)))
        u = v.reshape(S, m)
    speed = np.linalg.norm(u, axis=1)
    T = float(speed.sum()) / S
    way = _integrate_controls_batch(family, x0, u[None], 1.0, REFINE_SUBSTEPS)[0]
    controls = np.divide(u, speed[:, None], out=np.zeros_like(u), where=speed[:, None] > 0)
    durations = speed / S
    miss = float(np.linalg.norm(way[-1] - target))
    defect = max(_path_defect(family, way, controls, durations), miss / max(T, 1e-300))
    miss_bound = tol * float(np.linalg.norm(target - x0))
    ok = bool(np.isfinite(T) and defect <= tol)
    if ok and T >= seed.T:
        return seed
    if not (ok and miss <= miss_bound):
        return PathResult(
            T=seed.T, waypoints=seed.waypoints, controls=seed.controls,
            durations=seed.durations, defect=seed.defect, stalled=True,
            notes=[f"refinement stalled after {steps} Gauss-Newton steps: "
                   f"length {T!r}, defect {float(defect)!r} (tol {tol!r}), "
                   f"endpoint miss {miss!r} (bound {miss_bound!r})"],
        )
    return PathResult(T=T, waypoints=way, controls=controls, durations=durations,
                      defect=float(defect))


@dataclass(eq=False)
class BallResult:
    grid: object
    center_id: int
    radius: float
    node_ids: np.ndarray
    dist: np.ndarray      # distances for node_ids, same order
    volume: float


def metric_ball(family, center, R, grid, directions=DEFAULT_DIRECTIONS, step_scales=(1, 2, 3)):
    """Single-source Dijkstra ball {d_hat <= R}; volume = h^n * node count."""
    if R < 0:
        raise ValueError("radius must be nonnegative")
    center = np.asarray(center, dtype=float)
    cid = grid.nearest_node(center)
    if np.linalg.norm(grid.points[cid] - center) > grid.h:
        raise ValueError("center too far from any grid node")
    hn = grid.h ** grid.n
    if R == 0.0:
        return BallResult(grid, cid, 0.0, np.array([cid]), np.zeros(1), hn)
    ctx = _GraphContext(family, grid, directions, COMM_SCALES, step_scales)
    dist, settled, _ = _dijkstra(ctx, cid, rmax=R)
    ids = np.flatnonzero(np.isfinite(dist) & (dist <= R))
    if np.any(grid.is_outer_face(ids)):
        raise ValueError("metric ball clipped by the grid box; enlarge the box")
    return BallResult(grid, cid, float(R), ids, dist[ids], hn * ids.size)


def doubling_estimate(family, center, radii, grid, directions=DEFAULT_DIRECTIONS,
                      step_scales=(1, 2, 3)):
    """|B(2R)| / |B(R)| for each R, plus the max ratio C1.

    Both balls of every R are counted on one metric ball of radius 2 max R,
    so its center and grid box are checked as `metric_ball` checks them.
    """
    radii = sorted(float(r) for r in radii)
    if not radii or radii[0] <= 0:
        raise ValueError("radii must be positive")
    dist = metric_ball(family, center, 2.0 * radii[-1], grid, directions, step_scales).dist
    ratios = []
    for R in radii:
        nR = int(np.count_nonzero(dist <= R))
        if nR == 0:
            raise ValueError(f"ball of radius {R} contains no nodes at this h")
        ratios.append((R, int(np.count_nonzero(dist <= 2.0 * R)) / nR))
    C1 = max(r for _, r in ratios)
    return ratios, C1


@dataclass(eq=False)
class ProbeReport:
    ratios: list          # (label, ratio) per corpus function
    C_est: float
    skipped: list

    def to_json_dict(self):
        return {
            "ratios": [[str(k), float(v)] for k, v in self.ratios],
            "C_est": float(self.C_est),
            "skipped": [str(s) for s in self.skipped],
        }


def _horizontal_gradients(family, ball, corpus):
    """|Xu| on the ball nodes that are gradient quadrature rows.

    Returns the number of such nodes and, lazily per corpus field, its
    label, the field, its values there and sqrt(sum_j (X_j u)^2) there.
    """
    ops = [assemble_first_order(family, ball.grid, j) for j in range(1, family.m + 1)]
    row_ids = ops[0].row_ids
    rows = np.searchsorted(row_ids, ball.node_ids)
    hit = rows < row_ids.size
    hit[hit] = row_ids[rows[hit]] == ball.node_ids[hit]
    nodes, rows = ball.node_ids[hit], rows[hit]
    fields = ((f"u{i}", u, u.values[nodes], np.sqrt(sum(op.apply(u)[rows] ** 2 for op in ops)))
              for i, u in enumerate(corpus))
    return nodes.size, fields


def poincare_probe(family, ball, corpus, R):
    """ratio_i = sum_B |u_i - mean| / (R * sum_B |X u_i|); C_est = max ratio."""
    n_rows, fields = _horizontal_gradients(family, ball, corpus)
    if n_rows == 0:
        raise ValueError("ball contains no gradient quadrature rows")
    ratios = []
    skipped = []
    for label, _, vals, grads in fields:
        den = float(R * grads.sum())
        num = float(np.abs(vals - vals.mean()).sum())
        if den <= 1e-14 * max(1.0, num):
            skipped.append(f"{label}: zero horizontal gradient on the ball")
            continue
        ratios.append((label, num / den))
    C_est = max((r for _, r in ratios), default=0.0)
    return ProbeReport(ratios=ratios, C_est=C_est, skipped=skipped)


def sobolev_probe(family, ball, corpus, q, p):
    """(avg_B |u|^q)^{1/q} / (R * (avg_B |Xu|^p)^{1/p}) per corpus function."""
    if not q > p or p < 1:
        raise ValueError("need q > p >= 1")
    grid = ball.grid
    in_ball = np.zeros(grid.num_nodes, dtype=bool)
    in_ball[ball.node_ids] = True
    _, fields = _horizontal_gradients(family, ball, corpus)
    ratios = []
    skipped = []
    for label, u, vals, grads in fields:
        outside = u.values[~in_ball & (grid.mask != EXTERIOR)]
        if outside.size and np.abs(outside).max() > 1e-10 * max(1.0, np.abs(u.values).max()):
            raise ValueError(f"{label}: corpus function not compactly supported in the ball")
        if float(grads.max(initial=0.0)) <= 1e-14:
            skipped.append(f"{label}: zero horizontal gradient on the ball")
            continue
        lhs = float(np.mean(np.abs(vals) ** q) ** (1.0 / q))
        rhs = float(ball.radius * np.mean(grads**p) ** (1.0 / p))
        ratios.append((label, lhs / rhs))
    return ProbeReport(ratios=ratios, C_est=max((r for _, r in ratios), default=0.0), skipped=skipped)


def random_polynomial_corpus(grid, count, degree=2, seed=0):
    """Seeded low-degree polynomial fields for probe corpora."""
    rng = np.random.default_rng(seed)
    exps = [e for e in itertools.product(range(degree + 1), repeat=grid.n) if sum(e) <= degree]
    polys = [Polynomial(grid.n, tuple(zip(rng.standard_normal(len(exps)), exps)))
             for _ in range(count)]
    return [GridField(grid, poly.evaluate(grid.points)) for poly in polys]


def ball_bump(ball, power=2):
    """Compactly supported bump ((1 - (d/R)^2)_+)^power built from ball distances."""
    grid = ball.grid
    vals = np.zeros(grid.num_nodes)
    t = 1.0 - (ball.dist / max(ball.radius, 1e-300)) ** 2
    vals[ball.node_ids] = np.maximum(t, 0.0) ** power
    return GridField(grid, vals)
