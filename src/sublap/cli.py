"""Command-line front end: config parsing, dispatch, report/plot emission.

One table, ``COMMANDS``, lists every command with its handler, help text,
config keys and defaults; the parser, the config check and the dispatch
are all built from it.  Configs are JSON with a strict per-command schema
(unknown keys are rejected: a typo in a tolerance name must not silently
change what a verification run claims).  A second table, ``SCHEMA``, gives
every config key its kind, elements and range, and ``validate_config``
checks each given value against it before anything runs.  All artifacts are
byte-deterministic given the same config and seed: reports carry no
timestamps, floats are serialized by repr (a NaN or an infinity as null, so
a report is strict JSON), and plots are written by a fixed-order SVG
emitter.

Exit codes: 0 success / all checks passed, 1 a verification or solver
check failed, 2 configuration error.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

from . import ccmetric as cc
from . import semilinear as sm
from . import verify as vfy
from .eigen import DEFAULT_TOL, epsilon_path, principal_eigenpair, weighted_principal
from .expressions import compile_expression
from .fields import hormander_rank, lie_bracket, resolve_family
from .mesh import GridField, build_grid, field_to_csv
from .operators import assemble_diagonal, assemble_stiffness, mass_matrix


class ConfigError(ValueError):
    pass


_POINTS = ("x", "y", "center")  # the config keys that hold one point of R^n


@dataclass(eq=False)
class RunConfig:
    """A validated run.  Its family and grid are resolved when it is made,
    so a bad family name or grid spec, or a grid or verify box or a point
    (`x`, `y`, `center`) of another dimension than the family's, is a
    configuration error."""

    command: str
    params: dict
    out: Path
    seed: int = 0
    plot: bool = False
    family: object = field(init=False, repr=False)
    grid: object = field(init=False, repr=False)

    def __post_init__(self):
        try:
            self.family = resolve_family(self.params["family"])
            gspec = self.params.get("grid")
            self.grid = None if gspec is None else build_grid(gspec["box"], float(gspec["h"]))
            shaped = {"grid": gspec["box"] if gspec else None, "box": self.params.get("box"),
                      "stability_box": self.params.get("stability_box")}
            shaped.update((f"boxes[{i}]", box) for i, box in enumerate(self.params.get("boxes", ())))
            shaped.update((key, self.params.get(key)) for key in _POINTS)
            for name, value in shaped.items():
                if value is not None and len(value) != self.family.n:
                    what = "coordinates" if name in _POINTS else "axes"
                    raise ValueError(f"{name} has {len(value)} {what} but family "
                                     f"{self.family.name!r} acts on R^{self.family.n}")
        except (ValueError, TypeError) as exc:
            raise ConfigError(str(exc)) from exc

    def echo(self):
        return {
            "command": self.command,
            "params": self.params,
            "seed": self.seed,
            "plot": self.plot,
        }


def _json_value(obj):
    """A report value as strict JSON takes it: numpy arrays and scalars as Python
    lists and scalars, and NaN or an infinity, which JSON has no literal for, as None."""
    if isinstance(obj, (np.ndarray, np.generic)):
        obj = obj.tolist()
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {key: _json_value(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_value(value) for value in obj]
    return obj


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
# command implementations: each takes the run and its params and returns
# (results, exit code, artifacts)


def _field(cfg, expr):
    """A config expression as a field on the run's grid."""
    return GridField.from_function(cfg.grid, compile_expression(expr, cfg.grid.n))


def _floats(values):
    return [float(v) for v in values]


def _graph_options(p):
    return {"directions": int(p["directions"]), "step_scales": tuple(p["step_scales"])}


def _ball(cfg, p):
    return cc.metric_ball(cfg.family, p["center"], float(p["radius"]), cfg.grid,
                          **_graph_options(p))


def _verdict(rep):
    return {"verification": rep.to_json_dict()}, 0 if rep.passed else 1, []


def _run_fields_info(cfg, p):
    family = cfg.family
    rng = np.random.default_rng(cfg.seed)
    pts = rng.uniform(-1.0, 1.0, size=(int(p["sample_points"]), family.n))
    ranks = [hormander_rank(family, x, int(p["max_step"])) for x in pts]
    brackets = {}
    for i in range(family.m):
        for j in range(i + 1, family.m):
            br = lie_bracket(family.coeffs[i], family.coeffs[j])
            brackets[f"[X{i + 1},X{j + 1}]"] = [poly.to_term_list() for poly in br]
    results = {
        "name": family.name,
        "n": family.n,
        "m": family.m,
        "coefficients": [[poly.to_term_list() for poly in row] for row in family.coeffs],
        "pairwise_brackets": brackets,
        "sampled_ranks": [
            {"point": list(map(float, x)), "rank": r, "step": s}
            for x, (r, s) in zip(pts, ranks)
        ],
    }
    return results, 0, []


def _run_eigen(cfg, p):
    K = assemble_stiffness(cfg.family, cfg.grid)
    tol = float(p["tol"])
    if "weight" in p:
        res = weighted_principal(K, assemble_diagonal(_field(cfg, p["weight"])), tol=tol)
    else:
        res = principal_eigenpair(K, assemble_diagonal(_field(cfg, p["potential"])),
                                  mass_matrix(cfg.grid), tol=tol)
    return {"eigen": res.to_json_dict()}, 0, [("eigenfield", res.eigenfield)]


def _run_epspath(cfg, p):
    path = epsilon_path(cfg.family, cfg.grid, assemble_diagonal(_field(cfg, p["potential"])),
                        _floats(p["eps_list"]), tol=float(p["tol"]))
    return {"epsilon_path": [[e, lam] for e, lam in path]}, 0, []


def _run_solve_logistic(cfg, p):
    K = assemble_stiffness(cfg.family, cfg.grid)
    a, b = _field(cfg, p["a"]), _field(cfg, p["b"])
    tol = float(p["tol"])
    eig = weighted_principal(K, assemble_diagonal(a), tol=min(tol, 1e-9))
    mu = float(p["mu"]) if "mu" in p else float(p["mu_factor"]) * eig.lam
    res = sm.logistic_solve(K, a, b, mu, float(p["p"]), eig, tol=tol)
    code = 0 if res.status in ("ok", "subcritical") else 1
    return {"logistic": {**res.to_json_dict(), "mu": mu}}, code, [("solution", res.solution)]


def _run_solve_yamabe(cfg, p):
    K = assemble_stiffness(cfg.family, cfg.grid)
    f = _field(cfg, p["f"])
    theta = float(p["theta"])
    patterns = {key: p[key] for key in ("k_pattern", "K_pattern") if key in p}
    kf, Kf = sm.yamabe_coefficients(f, theta, **patterns)
    res = sm.yamabe_solve(K, kf, Kf, float(p["p"]), f, theta, float(p["eps"]),
                          tol=float(p["tol"]))
    code = 0 if res.status == "ok" else 1
    return {"yamabe": res.to_json_dict()}, code, [("solution", res.solution)]


def _run_distance(cfg, p):
    d_graph, seed_path = cc.cc_distance_graph(cfg.family, cfg.grid, p["x"], p["y"],
                                              **_graph_options(p))
    path = cc.cc_distance_refine(cfg.family, seed_path, segments=int(p["segments"]),
                                 tol=float(p["tol"]))
    results = {
        "distance": {
            "graph_upper_bound": d_graph,
            "refined": path.T,
            "defect": path.defect,
            "stalled": path.stalled,
            "notes": list(path.notes),
        }
    }
    return results, 0, [("path", path)]


def _run_ball(cfg, p):
    ball = _ball(cfg, p)
    indicator = GridField(cfg.grid, np.zeros(cfg.grid.num_nodes))
    indicator.values[ball.node_ids] = 1.0
    results = {
        "ball": {
            "radius": ball.radius,
            "node_count": int(ball.node_ids.size),
            "volume": ball.volume,
        }
    }
    return results, 0, [("ball_indicator", indicator)]


def _run_probe_poincare(cfg, p):
    corpus = cc.random_polynomial_corpus(cfg.grid, int(p["corpus_count"]),
                                         degree=int(p["corpus_degree"]), seed=cfg.seed)
    rep = cc.poincare_probe(cfg.family, _ball(cfg, p), corpus, float(p["radius"]))
    return {"poincare": rep.to_json_dict()}, 0, []


def _run_probe_sobolev(cfg, p):
    ball = _ball(cfg, p)
    rep = cc.sobolev_probe(cfg.family, ball, [cc.ball_bump(ball)], float(p["q"]), float(p["p"]))
    return {"sobolev": rep.to_json_dict()}, 0, []


def _run_probe_doubling(cfg, p):
    ratios, C1 = cc.doubling_estimate(cfg.family, p["center"], _floats(p["radii"]), cfg.grid,
                                      **_graph_options(p))
    return {"doubling": {"ratios": ratios, "C1": C1}}, 0, []


def _run_verify_thm1_2(cfg, p):
    return _verdict(vfy.verify_thm_1_2(cfg.family, cfg.grid, p["u_expr"],
                                       n_subdomains=int(p["n_subdomains"]),
                                       seed=cfg.seed, tol=float(p["tol"])))


def _run_verify_thm1_3(cfg, p):
    return _verdict(vfy.verify_thm_1_3(
        cfg.family, p["g"], p["g_plus"], _floats(p["lam_fractions"]), p["boxes"], float(p["h"]),
        mu=p.get("mu"), tol=float(p["tol"])))


def _run_verify_prop4_2(cfg, p):
    return _verdict(vfy.verify_prop_4_2(cfg.family, cfg.grid, p["a"], p["b"], float(p["p"]),
                                        _floats(p["mu_factors"]), tol=float(p["tol"])))


def _run_verify_thm1_4(cfg, p):
    return _verdict(vfy.verify_thm_1_4(
        cfg.family, p["box"], float(p["h"]), p["f"], _floats(p["theta_list"]),
        _floats(p["eps_list"]), float(p["p"]), tol=float(p["tol"]),
        stability_box=p.get("stability_box")))


# ---------------------------------------------------------------------------
# the command table


@dataclass(frozen=True)
class Command:
    """A command named "group-leaf" runs as `sublap ... group leaf`.

    `required` is a space-separated key list; `optional` maps each
    optional key to its default, or to None for a key with none.  What a
    key takes, under each command, is its `SCHEMA` entry.  A config gives
    at most one of the two `exclusive` keys, and a default is filled (and
    so echoed) unless its key or the key it excludes is given.
    """

    handler: object
    help: str
    required: str
    optional: dict
    exclusive: tuple = ()


_GRAPH = {"directions": cc.DEFAULT_DIRECTIONS, "step_scales": (1, 2, 3)}

COMMANDS = {
    "fields-info": Command(_run_fields_info, "Lie brackets and sampled Hormander ranks",
                           "family", {"sample_points": 5, "max_step": 3}),
    "eigen": Command(_run_eigen, "principal Dirichlet eigenvalue", "family grid",
                     {"potential": "0", "weight": None, "tol": DEFAULT_TOL},
                     ("weight", "potential")),
    "epspath": Command(_run_epspath, "epsilon-regularization eigenvalue path",
                       "family grid eps_list", {"potential": "0", "tol": DEFAULT_TOL}),
    "solve-logistic": Command(_run_solve_logistic, "logistic equation", "family grid a b p",
                              {"mu": None, "mu_factor": 2.0, "tol": 1e-8}, ("mu", "mu_factor")),
    "solve-yamabe": Command(_run_solve_yamabe, "Yamabe-type equation",
                            "family grid f theta eps p",
                            {"k_pattern": None, "K_pattern": None, "tol": 1e-8}),
    "distance": Command(_run_distance, "Carnot-Caratheodory distance estimate",
                        "family grid x y", {**_GRAPH, "step_scales": (1,), "segments": 24,
                                            "tol": 1e-8}),
    "ball": Command(_run_ball, "metric ball and volume", "family grid center radius", _GRAPH),
    "probe-poincare": Command(_run_probe_poincare, "Poincare ratios of a polynomial corpus",
                              "family grid center radius",
                              {**_GRAPH, "corpus_count": 12, "corpus_degree": 2}),
    "probe-sobolev": Command(_run_probe_sobolev, "Sobolev ratio of a ball bump",
                             "family grid center radius q p", _GRAPH),
    "probe-doubling": Command(_run_probe_doubling, "doubling ratios of metric balls",
                              "family grid center radii", _GRAPH),
    "verify-thm1_2": Command(_run_verify_thm1_2, "Thm 1.2: positive principal eigenvalue",
                             "family grid u_expr", {"n_subdomains": 20, "tol": 1e-8}),
    "verify-thm1_3": Command(_run_verify_thm1_3, "Thm 1.3: every lambda in (0, mu] principal",
                             "family g g_plus lam_fractions boxes h",
                             {"mu": None, "tol": 1e-8}),
    "verify-prop4_2": Command(_run_verify_prop4_2, "Prop 4.2: logistic problem",
                              "family grid a b p mu_factors", {"tol": 1e-8}),
    "verify-thm1_4": Command(_run_verify_thm1_4, "Thm 1.4: Yamabe-type solution family",
                             "family box h f theta_list eps_list p",
                             {"stability_box": None, "tol": 1e-8}),
}


@dataclass(frozen=True)
class Key:
    """A config key's rule: the JSON `kind` of its value (an integer counts as
    a number), the (what, check) of a list's or an object's `elements`, and
    the (what, test) `range` of each number or [lo, hi] pair, or a dict from
    each command that takes the key to its range.  Beyond its rule, every
    number must be finite and every list non-empty."""

    kind: str
    elements: tuple = ()
    range: object = None


_TYPES = {"string": str, "integer": int, "number": (int, float), "list": (list, tuple),
          "object": dict}


def _is(value, kind):
    """Whether a config value is of the JSON `kind`; a boolean is of none."""
    return isinstance(value, _TYPES[kind]) and not isinstance(value, bool)


_NUMBERS = ("a list of numbers", lambda value: all(_is(v, "number") for v in value))
_PAIRS = ("a list of [lo, hi] number pairs", lambda value: all(
    _is(side, "list") and len(side) == 2 and _NUMBERS[1](side) for side in value))
_BOXES = ("a list of boxes of [lo, hi] number pairs",
          lambda value: all(_is(box, "list") and _PAIRS[1](box) for box in value))
_ORDERED = ("[lo, hi] pairs with lo < hi", lambda v: v[:, 0] < v[:, 1])
_POSITIVE, _NONNEGATIVE = ("> 0", lambda v: v > 0), (">= 0", lambda v: v >= 0)
_COUNT, _EPS = (">= 1", lambda v: v >= 1), ("in (1/3, 1/2)", lambda v: (v > 1 / 3) & (v < 1 / 2))

# every config key's rule, read by `validate_config` alone
SCHEMA = {
    **dict.fromkeys(("family", "potential", "weight", "a", "b", "f", "g", "g_plus", "u_expr",
                     "k_pattern", "K_pattern"), Key("string")),
    "grid": Key("object", ("{'box': [[lo, hi], ...], 'h': number}",
                           lambda value: set(value) == {"box", "h"})),
    **dict.fromkeys(("sample_points", "max_step", "segments", "corpus_count", "corpus_degree",
                     "n_subdomains"), Key("integer", range=_COUNT)),
    "directions": Key("integer", range=(">= 2", lambda v: v >= 2)),
    **dict.fromkeys(("tol", "h"), Key("number", range=_POSITIVE)),
    **dict.fromkeys(("radius", "theta"), Key("number", range=_NONNEGATIVE)),
    **dict.fromkeys(("mu_factor", "q"), Key("number")), "eps": Key("number", range=_EPS),
    "p": Key("number", range={**dict.fromkeys(("solve-logistic", "solve-yamabe", "verify-prop4_2",
                                               "verify-thm1_4"), ("> 1", lambda v: v > 1)),
                              "probe-sobolev": _COUNT}),
    "mu": Key("number", range={"solve-logistic": None, "verify-thm1_3": _POSITIVE}),
    **dict.fromkeys(("x", "y", "center", "mu_factors"), Key("list", _NUMBERS)),
    **dict.fromkeys(("radii", "step_scales"), Key("list", _NUMBERS, _POSITIVE)),
    "theta_list": Key("list", _NUMBERS, _NONNEGATIVE),
    "lam_fractions": Key("list", _NUMBERS, ("in (0, 1]", lambda v: (v > 0) & (v <= 1))),
    "eps_list": Key("list", _NUMBERS, {"verify-thm1_4": _EPS, "epspath": (
        ">= 0 and strictly decreasing", lambda v: (v >= 0) & (np.diff(v, prepend=np.inf) < 0))}),
    **dict.fromkeys(("box", "stability_box"), Key("list", _PAIRS, _ORDERED)),
    "boxes": Key("list", _BOXES, _ORDERED),
}

_GROUP_HELP = {"fields": "vector field family inspection", "solve": "semilinear solvers",
               "probe": "measure/inequality probes", "verify": "theorem verification suites"}


def validate_config(command, raw):
    """`raw` with the command's defaults filled; ConfigError if it does not fit.

    A key given as null counts as not given.  A given value, and each member
    of the grid (as `grid.box` and `grid.h`), must meet its `SCHEMA` rule.
    """
    if command not in COMMANDS:
        raise ConfigError(f"unknown command {command!r}")
    if not isinstance(raw, dict):
        raise ConfigError(f"config must be a JSON object, not {type(raw).__name__}")
    spec = COMMANDS[command]
    params = {key: value for key, value in raw.items() if value is not None}
    keys, required = set(params), set(spec.required.split())
    unknown = keys - required - set(spec.optional)
    if unknown:
        raise ConfigError(f"unknown config keys for {command}: {sorted(unknown)}")
    missing = required - keys
    if missing:
        raise ConfigError(f"missing config keys for {command}: {sorted(missing)}")
    given = keys & set(spec.exclusive)
    if len(given) > 1:
        raise ConfigError(f"config keys {sorted(given)} exclude each other for {command}")
    todo = list(params.items())
    for name, value in todo:  # the grid's members join the list when it is reached
        rule, what = SCHEMA[name.rpartition(".")[2]], None
        if not _is(value, rule.kind):
            what = ("an " if rule.kind in ("integer", "object") else "a ") + rule.kind
        elif rule.elements and not rule.elements[1](value):
            what = rule.elements[0]
        elif rule.kind == "object":
            todo += [(f"{name}.{sub}", member) for sub, member in value.items()]
        elif rule.kind != "string":
            try:  # one array per box of `boxes`, else one; an int past float range is not finite
                nums = [np.asarray(v, dtype=float)
                        for v in (value if rule.elements == _BOXES else [value])]
            except OverflowError:
                nums = [np.array(np.inf)]
            ranged = rule.range.get(command) if isinstance(rule.range, dict) else rule.range
            if rule.kind == "list" and not (nums and all(a.size for a in nums)):
                what = "non-empty"
            elif not all(np.isfinite(a).all() for a in nums):
                what = "finite"
            elif ranged is not None and not all(ranged[1](a).all() for a in nums):
                what = ranged[0]
        if what:
            raise ConfigError(f"config key {name!r} for {command} must be {what}, got {value!r}")
    taken = (keys | set(spec.exclusive)) if given else keys
    params.update((key, default) for key, default in spec.optional.items()
                  if default is not None and key not in taken)
    return params


# ---------------------------------------------------------------------------
# entry point


def run(cfg):
    """Dispatch a validated RunConfig; returns (exit code, report path)."""
    results, code, artifacts = COMMANDS[cfg.command].handler(cfg, cfg.params)
    outdir = Path(cfg.out)
    outdir.mkdir(parents=True, exist_ok=True)
    names = []
    for name, obj in artifacts:
        path = outdir / f"{name}.csv"
        names.append(path.name)
        if isinstance(obj, cc.PathResult):
            path.write_text(obj.to_csv())
            continue
        field_to_csv(obj, path)
        if cfg.plot:
            spec = None if obj.grid.n == 2 else (obj.grid.n - 1, obj.grid.dims[-1] // 2)
            (outdir / f"{name}.svg").write_text(emit_plot(obj, spec))
            names.append(f"{name}.svg")
    payload = {
        "config": cfg.echo(),
        "results": results,
        "artifacts": sorted(names),
        "exit_code": code,
    }
    report = outdir / "report.json"
    report.write_text(json.dumps(_json_value(payload), indent=2, sort_keys=True, allow_nan=False)
                      + "\n")
    return code, report


@contextlib.contextmanager
def _one_blas_thread():
    """Run numpy's and scipy's OpenBLAS on one thread, then restore their thread counts.

    Each wheel bundles its own OpenBLAS in `<package>.libs`, and a sum split
    over threads rounds differently, so reports would depend on the thread
    count.  A library without the get/set pair is left as it is.
    """
    restore = []
    for pkg, suffix in ((np, "64_"), (scipy, "")):
        for path in sorted((Path(pkg.__file__).parents[1] / f"{pkg.__name__}.libs").glob(
                "libscipy_openblas*.so")):
            lib = ctypes.CDLL(str(path))
            get, put = (getattr(lib, f"scipy_openblas_{op}_num_threads{suffix}", None)
                        for op in ("get", "set"))
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                restore.append((put, get()))
                put(1)
    try:
        yield
    finally:
        for put, threads in restore:
            put(threads)


def _seed(text):
    """`--seed`: a non-negative integer, as numpy's generators take."""
    if int(text) < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text}")
    return int(text)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="sublap",
        description="Numerical laboratory for Hormander vector fields and sub-Laplacians",
    )
    parser.add_argument("--config", type=Path, help="JSON config file")
    parser.add_argument("--out", type=Path, default=Path("out"), help="output directory")
    parser.add_argument("--seed", type=_seed, default=0)
    parser.add_argument("--plot", action="store_true", help="emit SVG heatmap slices")
    sub = parser.add_subparsers(dest="cmd", required=True)
    groups = {}
    for name, spec in COMMANDS.items():
        group, _, leaf = name.partition("-")
        if not leaf:
            sub.add_parser(name, help=spec.help).set_defaults(command=name)
            continue
        if group not in groups:
            groups[group] = sub.add_parser(group, help=_GROUP_HELP[group]).add_subparsers(
                dest="subcmd", required=True)
        groups[group].add_parser(leaf, help=spec.help).set_defaults(command=name)
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        if args.config is None:
            raise ConfigError("--config is required")
        raw = json.loads(Path(args.config).read_text())
        cfg = RunConfig(command=args.command, params=validate_config(args.command, raw),
                        out=args.out, seed=args.seed, plot=args.plot)
    except (ConfigError, OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        with _one_blas_thread():
            code, report_path = run(cfg)
    except (ValueError, RuntimeError) as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1
    print(f"report: {report_path} (exit {code})")
    return code


if __name__ == "__main__":
    sys.exit(main())
