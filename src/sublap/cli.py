"""Command-line front end: config parsing, dispatch, report/plot emission.

Configs are JSON with a strict per-command schema (unknown keys are
rejected: a typo in a tolerance name must not silently change what a
verification run claims).  All artifacts are byte-deterministic given the
same config and seed: reports carry no timestamps, floats are serialized
by repr, and plots are written by a fixed-order SVG emitter.

Exit codes: 0 success / all checks passed, 1 a verification or solver
check failed, 2 configuration error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import ccmetric as cc
from . import semilinear as sm
from . import verify as vfy
from .eigen import epsilon_path, principal_eigenpair, weighted_principal
from .expressions import compile_expression
from .fields import hormander_rank, lie_bracket, resolve_family
from .mesh import GridField, build_grid, field_to_csv
from .operators import assemble_diagonal, assemble_stiffness, mass_matrix


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# config schema

_GRID_KEYS = {"box", "h"}

_SCHEMAS = {
    "fields-info": {"required": {"family"}, "optional": {"sample_points", "max_step"}},
    "eigen": {"required": {"family", "grid"}, "optional": {"potential", "weight", "tol"},
              "exclusive": ("weight", "potential")},
    "epspath": {"required": {"family", "grid", "eps_list"}, "optional": {"potential", "tol"}},
    "solve-logistic": {"required": {"family", "grid", "a", "b", "p"},
                       "optional": {"mu", "mu_factor", "tol"}, "exclusive": ("mu", "mu_factor")},
    "solve-yamabe": {"required": {"family", "grid", "f", "theta", "eps", "p"},
                     "optional": {"k_pattern", "K_pattern", "tol"}},
    "distance": {"required": {"family", "grid", "x", "y"},
                 "optional": {"directions", "segments", "tol", "step_scales"}},
    "ball": {"required": {"family", "grid", "center", "radius"},
             "optional": {"directions", "step_scales"}},
    "probe-poincare": {"required": {"family", "grid", "center", "radius"},
                       "optional": {"corpus_count", "corpus_degree", "directions", "step_scales"}},
    "probe-sobolev": {"required": {"family", "grid", "center", "radius", "q", "p"},
                      "optional": {"directions", "step_scales"}},
    "probe-doubling": {"required": {"family", "grid", "center", "radii"},
                       "optional": {"directions", "step_scales"}},
    "verify-thm1_2": {"required": {"family", "grid", "u_expr"},
                      "optional": {"n_subdomains", "tol"}},
    "verify-thm1_3": {"required": {"family", "g", "g_plus", "lam_fractions", "boxes", "h"},
                      "optional": {"mu", "tol"}},
    "verify-prop4_2": {"required": {"family", "grid", "a", "b", "p", "mu_factors"},
                       "optional": {"tol"}},
    "verify-thm1_4": {"required": {"family", "box", "h", "f", "theta_list", "eps_list", "p"},
                      "optional": {"stability_box", "tol"}},
}

_DEFAULTS = {
    "potential": "0",
    "tol": 1e-8,
    "directions": 32,
    "segments": 24,
    "n_subdomains": 20,
    "corpus_count": 12,
    "corpus_degree": 2,
    "max_step": 3,
}


@dataclass(eq=False)
class RunConfig:
    command: str
    params: dict
    out: Path
    seed: int = 0
    plot: bool = False

    def echo(self):
        return {
            "command": self.command,
            "params": self.params,
            "seed": self.seed,
            "plot": self.plot,
        }


def validate_config(command, raw):
    if command not in _SCHEMAS:
        raise ConfigError(f"unknown command {command!r}")
    schema = _SCHEMAS[command]
    keys = set(raw)
    unknown = keys - schema["required"] - schema["optional"]
    if unknown:
        raise ConfigError(f"unknown config keys for {command}: {sorted(unknown)}")
    missing = schema["required"] - keys
    if missing:
        raise ConfigError(f"missing config keys for {command}: {sorted(missing)}")
    both = set(schema.get("exclusive", ())) & keys
    if len(both) > 1:
        raise ConfigError(f"config keys {sorted(both)} exclude each other for {command}")
    params = dict(raw)
    for key in schema["required"] | schema["optional"]:
        if key not in params and key in _DEFAULTS:
            params[key] = _DEFAULTS[key]
    if "grid" in params:
        gspec = params["grid"]
        if not isinstance(gspec, dict) or set(gspec) != _GRID_KEYS:
            raise ConfigError("grid spec must be {'box': [[lo, hi], ...], 'h': float}")
    return params


def _build_grid_from(params):
    gspec = params["grid"]
    return build_grid([tuple(side) for side in gspec["box"]], float(gspec["h"]))


def _jsonify(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonify(v) for v in obj.tolist()]
    return obj


def write_report(outdir, payload):
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / "report.json"
    path.write_text(json.dumps(_jsonify(payload), indent=2, sort_keys=True) + "\n")
    return path


# ---------------------------------------------------------------------------
# SVG heatmap slices

_COLOR_STOPS = [
    (0.0, (68, 1, 84)),
    (0.25, (59, 82, 139)),
    (0.5, (33, 145, 140)),
    (0.75, (94, 201, 98)),
    (1.0, (253, 231, 37)),
]


def _color(v):
    v = min(max(v, 0.0), 1.0)
    for (a, ca), (b, cb) in zip(_COLOR_STOPS, _COLOR_STOPS[1:]):
        if v <= b:
            t = 0.0 if b == a else (v - a) / (b - a)
            rgb = tuple(int(round(x + t * (y - x))) for x, y in zip(ca, cb))
            return "#{:02x}{:02x}{:02x}".format(*rgb)
    return "#fde725"


def emit_plot(fieldobj, slice_spec=None, cell=8):
    """Deterministic SVG heatmap of a 2-D axis-aligned slice of a field."""
    grid = fieldobj.grid
    vals = fieldobj.values.reshape(grid.dims)
    if grid.n == 2:
        plane = vals
    else:
        if slice_spec is None:
            raise ValueError("slice spec (axis, index) required for fields with n > 2")
        axis, index = slice_spec
        if not 0 <= axis < grid.n:
            raise ValueError(f"slice axis {axis} out of range")
        if not 0 <= index < grid.dims[axis]:
            raise ValueError(f"slice index {index} out of range for axis {axis}")
        plane = np.take(vals, index, axis=axis)
        while plane.ndim > 2:
            plane = np.take(plane, plane.shape[-1] // 2, axis=-1)
    ny, nx = plane.shape
    if nx == 0 or ny == 0:
        raise ValueError("zero-size field slice")
    vmin = float(plane.min())
    vmax = float(plane.max())
    span = vmax - vmin
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{nx * cell}" height="{ny * cell}" '
        f'viewBox="0 0 {nx * cell} {ny * cell}">',
    ]
    for i in range(ny):
        for j in range(nx):
            v = 0.5 if span == 0.0 else (float(plane[i, j]) - vmin) / span
            lines.append(
                f'<rect x="{j * cell}" y="{(ny - 1 - i) * cell}" width="{cell}" '
                f'height="{cell}" fill="{_color(v)}"/>'
            )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# command implementations


def _run_fields_info(cfg):
    family = resolve_family(cfg.params["family"])
    rng = np.random.default_rng(cfg.seed)
    pts = rng.uniform(-1.0, 1.0, size=(int(cfg.params.get("sample_points", 5)), family.n))
    ranks = [hormander_rank(family, x, int(cfg.params["max_step"])) for x in pts]
    brackets = {}
    for i in range(family.m):
        for j in range(i + 1, family.m):
            br = lie_bracket(family.coeffs[i], family.coeffs[j])
            brackets[f"[X{i + 1},X{j + 1}]"] = [p.to_term_list() for p in br]
    results = {
        "name": family.name,
        "n": family.n,
        "m": family.m,
        "coefficients": [[p.to_term_list() for p in row] for row in family.coeffs],
        "pairwise_brackets": brackets,
        "sampled_ranks": [
            {"point": list(map(float, x)), "rank": r, "step": s}
            for x, (r, s) in zip(pts, ranks)
        ],
    }
    return results, 0, []


def _run_eigen(cfg):
    family = resolve_family(cfg.params["family"])
    grid = _build_grid_from(cfg.params)
    K = assemble_stiffness(family, grid)
    M = mass_matrix(grid)
    tol = float(cfg.params["tol"])
    weight = cfg.params.get("weight")
    if weight is not None:
        gfield = GridField.from_function(grid, compile_expression(weight, grid.n))
        res = weighted_principal(K, assemble_diagonal(gfield), tol=tol)
    else:
        V = GridField.from_function(grid, compile_expression(cfg.params["potential"], grid.n))
        Vd = assemble_diagonal(V)
        res = principal_eigenpair(K, Vd, M, tol=tol)
    return {"eigen": res.to_json_dict()}, 0, [("eigenfield", res.eigenfield)]


def _run_epspath(cfg):
    family = resolve_family(cfg.params["family"])
    grid = _build_grid_from(cfg.params)
    V = GridField.from_function(grid, compile_expression(cfg.params["potential"], grid.n))
    Vd = assemble_diagonal(V)
    path = epsilon_path(family, grid, Vd, [float(e) for e in cfg.params["eps_list"]],
                        tol=float(cfg.params["tol"]))
    return {"epsilon_path": [[e, lam] for e, lam in path]}, 0, []


def _run_solve_logistic(cfg):
    family = resolve_family(cfg.params["family"])
    grid = _build_grid_from(cfg.params)
    K = assemble_stiffness(family, grid)
    a = GridField.from_function(grid, compile_expression(cfg.params["a"], grid.n))
    b = GridField.from_function(grid, compile_expression(cfg.params["b"], grid.n))
    p = float(cfg.params["p"])
    tol = float(cfg.params["tol"])
    eig = weighted_principal(K, assemble_diagonal(a), tol=min(tol, 1e-9))
    if "mu" in cfg.params:
        mu = float(cfg.params["mu"])
    else:
        mu = float(cfg.params.get("mu_factor", 2.0)) * eig.lam
    res = sm.logistic_solve(K, a, b, mu, p, eig, tol=tol)
    payload = res.to_json_dict()
    payload["mu"] = mu
    code = 0 if res.status in ("ok", "subcritical") else 1
    return {"logistic": payload}, code, [("solution", res.solution)]


def _run_solve_yamabe(cfg):
    family = resolve_family(cfg.params["family"])
    grid = _build_grid_from(cfg.params)
    K = assemble_stiffness(family, grid)
    f = GridField.from_function(grid, compile_expression(cfg.params["f"], grid.n))
    theta = float(cfg.params["theta"])
    patterns = {key: cfg.params[key] for key in ("k_pattern", "K_pattern") if key in cfg.params}
    kf, Kf = sm.yamabe_coefficients(f, theta, **patterns)
    res = sm.yamabe_solve(K, kf, Kf, float(cfg.params["p"]), f, theta,
                          float(cfg.params["eps"]), tol=float(cfg.params["tol"]))
    code = 0 if res.status == "ok" else 1
    return {"yamabe": res.to_json_dict()}, code, [("solution", res.solution)]


def _run_distance(cfg):
    family = resolve_family(cfg.params["family"])
    grid = _build_grid_from(cfg.params)
    d_graph, seed_path = cc.cc_distance_graph(
        family, grid, cfg.params["x"], cfg.params["y"],
        directions=int(cfg.params["directions"]),
        step_scales=tuple(cfg.params.get("step_scales", (1,))),
    )
    refined = cc.cc_distance_refine(family, seed_path, segments=int(cfg.params["segments"]),
                                    tol=float(cfg.params["tol"]))
    results = {
        "distance": {
            "graph_upper_bound": d_graph,
            "refined": refined.T,
            "defect": refined.defect,
            "stalled": refined.stalled,
            "notes": list(refined.notes),
        }
    }
    return results, 0, [("path", refined)]


def _run_ball(cfg):
    family = resolve_family(cfg.params["family"])
    grid = _build_grid_from(cfg.params)
    ball = cc.metric_ball(family, cfg.params["center"], float(cfg.params["radius"]), grid,
                          directions=int(cfg.params["directions"]),
                          step_scales=tuple(cfg.params.get("step_scales", (1, 2, 3))))
    results = {
        "ball": {
            "radius": ball.radius,
            "node_count": int(ball.node_ids.size),
            "volume": ball.volume,
        }
    }
    indicator = GridField(grid, np.zeros(grid.num_nodes))
    indicator.values[ball.node_ids] = 1.0
    return results, 0, [("ball_indicator", indicator)]


def _run_probe(kind, cfg):
    family = resolve_family(cfg.params["family"])
    grid = _build_grid_from(cfg.params)
    steps = tuple(cfg.params.get("step_scales", (1, 2, 3)))
    dirs = int(cfg.params["directions"])
    if kind == "doubling":
        ratios, C1 = cc.doubling_estimate(family, cfg.params["center"],
                                          [float(r) for r in cfg.params["radii"]],
                                          grid, directions=dirs, step_scales=steps)
        return {"doubling": {"ratios": ratios, "C1": C1}}, 0, []
    R = float(cfg.params["radius"])
    ball = cc.metric_ball(family, cfg.params["center"], R, grid,
                          directions=dirs, step_scales=steps)
    if kind == "poincare":
        corpus = cc.random_polynomial_corpus(grid, int(cfg.params["corpus_count"]),
                                             degree=int(cfg.params["corpus_degree"]),
                                             seed=cfg.seed)
        rep = cc.poincare_probe(family, ball, corpus, R)
        return {"poincare": rep.to_json_dict()}, 0, []
    bump = cc.ball_bump(ball)
    rep = cc.sobolev_probe(family, ball, [bump], float(cfg.params["q"]), float(cfg.params["p"]))
    return {"sobolev": rep.to_json_dict()}, 0, []


def _run_verify(suite, cfg):
    family = resolve_family(cfg.params["family"])
    tol = float(cfg.params["tol"])
    if suite == "thm1_2":
        grid = _build_grid_from(cfg.params)
        rep = vfy.verify_thm_1_2(family, grid, cfg.params["u_expr"],
                                 n_subdomains=int(cfg.params["n_subdomains"]),
                                 seed=cfg.seed, tol=tol)
    elif suite == "thm1_3":
        rep = vfy.verify_thm_1_3(family, cfg.params["g"], cfg.params["g_plus"],
                                 [float(v) for v in cfg.params["lam_fractions"]],
                                 [[tuple(side) for side in b] for b in cfg.params["boxes"]],
                                 float(cfg.params["h"]),
                                 mu=cfg.params.get("mu"), tol=tol, seed=cfg.seed)
    elif suite == "prop4_2":
        grid = _build_grid_from(cfg.params)
        rep = vfy.verify_prop_4_2(family, grid, cfg.params["a"], cfg.params["b"],
                                  float(cfg.params["p"]),
                                  [float(v) for v in cfg.params["mu_factors"]], tol=tol)
    elif suite == "thm1_4":
        rep = vfy.verify_thm_1_4(family, [tuple(side) for side in cfg.params["box"]],
                                 float(cfg.params["h"]), cfg.params["f"],
                                 [float(v) for v in cfg.params["theta_list"]],
                                 [float(v) for v in cfg.params["eps_list"]],
                                 float(cfg.params["p"]), tol=tol,
                                 stability_box=(
                                     [tuple(side) for side in cfg.params["stability_box"]]
                                     if cfg.params.get("stability_box") else None
                                 ))
    else:
        raise ConfigError(f"unknown verify suite {suite!r}")
    code = 0 if rep.passed else 1
    return {"verification": rep.to_json_dict()}, code, []


# ---------------------------------------------------------------------------
# entry point


def run(cfg):
    """Dispatch a validated RunConfig; returns (exit code, report path)."""
    handlers = {
        "fields-info": _run_fields_info,
        "eigen": _run_eigen,
        "epspath": _run_epspath,
        "solve-logistic": _run_solve_logistic,
        "solve-yamabe": _run_solve_yamabe,
        "distance": _run_distance,
        "ball": _run_ball,
    }
    if cfg.command in handlers:
        results, code, artifacts = handlers[cfg.command](cfg)
    elif cfg.command.startswith("probe-"):
        results, code, artifacts = _run_probe(cfg.command.split("-", 1)[1], cfg)
    elif cfg.command.startswith("verify-"):
        results, code, artifacts = _run_verify(cfg.command.split("-", 1)[1], cfg)
    else:
        raise ConfigError(f"unknown command {cfg.command!r}")
    outdir = Path(cfg.out)
    outdir.mkdir(parents=True, exist_ok=True)
    artifact_paths = []
    for name, obj in artifacts:
        if isinstance(obj, GridField):
            path = outdir / f"{name}.csv"
            field_to_csv(obj, path)
            artifact_paths.append(str(path.name))
            if cfg.plot:
                spec = None if obj.grid.n == 2 else (obj.grid.n - 1, obj.grid.dims[-1] // 2)
                svg_path = outdir / f"{name}.svg"
                svg_path.write_text(emit_plot(obj, spec))
                artifact_paths.append(str(svg_path.name))
        elif isinstance(obj, cc.PathResult):
            path = outdir / f"{name}.csv"
            path.write_text(obj.to_csv())
            artifact_paths.append(str(path.name))
    payload = {
        "config": cfg.echo(),
        "results": results,
        "artifacts": sorted(artifact_paths),
        "exit_code": code,
    }
    report_path = write_report(outdir, payload)
    return code, report_path


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="sublap",
        description="Numerical laboratory for Hormander vector fields and sub-Laplacians",
    )
    parser.add_argument("--config", type=Path, help="JSON config file")
    parser.add_argument("--out", type=Path, default=Path("out"), help="output directory")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--plot", action="store_true", help="emit SVG heatmap slices")
    sub = parser.add_subparsers(dest="cmd", required=True)

    fields_p = sub.add_parser("fields", help="vector field family inspection")
    fields_sub = fields_p.add_subparsers(dest="subcmd", required=True)
    fields_sub.add_parser("info")

    sub.add_parser("eigen", help="principal Dirichlet eigenvalue")
    sub.add_parser("epspath", help="epsilon-regularization eigenvalue path")

    solve_p = sub.add_parser("solve", help="semilinear solvers")
    solve_sub = solve_p.add_subparsers(dest="subcmd", required=True)
    solve_sub.add_parser("logistic")
    solve_sub.add_parser("yamabe")

    sub.add_parser("distance", help="Carnot-Caratheodory distance estimate")
    sub.add_parser("ball", help="metric ball and volume")

    probe_p = sub.add_parser("probe", help="measure/inequality probes")
    probe_sub = probe_p.add_subparsers(dest="subcmd", required=True)
    for name in ("poincare", "sobolev", "doubling"):
        probe_sub.add_parser(name)

    verify_p = sub.add_parser("verify", help="theorem verification suites")
    verify_sub = verify_p.add_subparsers(dest="subcmd", required=True)
    for name in ("thm1_2", "thm1_3", "prop4_2", "thm1_4"):
        verify_sub.add_parser(name)
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    command = args.cmd if getattr(args, "subcmd", None) is None else f"{args.cmd}-{args.subcmd}"
    try:
        if args.config is None:
            raise ConfigError("--config is required")
        raw = json.loads(Path(args.config).read_text())
        params = validate_config(command, raw)
        cfg = RunConfig(command=command, params=params, out=args.out,
                        seed=args.seed, plot=args.plot)
    except (ConfigError, OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        code, report_path = run(cfg)
    except (ValueError, RuntimeError) as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1
    print(f"report: {report_path} (exit {code})")
    return code


if __name__ == "__main__":
    sys.exit(main())
