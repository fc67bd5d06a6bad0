"""The benchmark's workloads: the CLI commands of one pass and the checks on their reports.

A pass runs a workload's commands in order, one at a time, through
``sublap.cli.main``.  Every command writes ``report.json`` into its own
output directory; ``check_command`` reads those reports, records the key
outputs (eigenvalues, distances, margins, node counts) and lists every
failed operation.  An operation is one CLI command or one verification
case.

The benchmark seed reaches the program only as the CLI ``--seed`` of the
seeded commands (``probe poincare`` draws its polynomial corpus from it);
the configs themselves are fixed.  ``verify thm1_2`` runs with the CLI's
default seed, 0, whatever the benchmark seed: with other seeds about one
in a hundred of its subdomain sets hits a defect of ``principal_eigenpair``
(it can converge to a higher eigenvalue of a near-degenerate pair), and a
benchmark run must not fail on inputs the program mishandles by chance.
See "A program defect the benchmark steps around" in ``README.md``.

``size="smoke"`` shrinks every grid so that a pass takes about a second;
the benchmark's own tests use it to check that every metric is emitted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

WORKLOADS = ("spectral", "semilinear", "ccmetric")
SIZES = ("full", "smoke")

TAU = 0.04                                   # vertical target (0, 0, TAU)
VERTICAL_REF = math.sqrt(4 * math.pi * TAU)  # Heisenberg d((0,0,0), (0,0,tau)) = sqrt(4 pi tau)
PLANAR_REF = math.sqrt(2.0)                  # d((0,0,0), (1,1,0)) is euclidean


@dataclass(frozen=True)
class Command:
    """One CLI invocation: ``sublap --config <cfg> --out <dir> [--seed s] <words>``."""

    name: str
    words: tuple
    config: dict
    seeded: bool = False


def _box(side, n):
    return [[-side, side]] * n


def spectral(size):
    """Eigen layer only: large inverse-iteration solves, then many small masked ones."""
    h = 1.0 / 16 if size == "full" else 0.25
    h_sub = 1.0 / 8 if size == "full" else 0.25
    subdomains = 20 if size == "full" else 4
    grid = {"box": _box(1, 3), "h": h}
    return [
        Command("eigen", ("eigen",), {"family": "heisenberg", "grid": grid, "tol": 1e-9}),
        Command("epspath", ("epspath",), {
            "family": "heisenberg", "grid": grid,
            "eps_list": [0.5, 0.25, 0.1, 0.01, 0.0], "tol": 1e-9,
        }),
        Command("thm1_2", ("verify", "thm1_2"), {
            "family": "heisenberg", "grid": {"box": _box(1, 3), "h": h_sub},
            "u_expr": "exp(0.2*(x + y + t))", "n_subdomains": subdomains,
        }),  # fixed subdomains (CLI seed 0); see the module docstring
    ]


def semilinear(size):
    """Monotone iteration and shifted solves; eigen only through the weighted pencil."""
    full = size == "full"
    return [
        Command("prop4_2", ("verify", "prop4_2"), {
            "family": "euclidean(2)",
            "grid": {"box": [[0, 1], [0, 1]], "h": 1.0 / 32 if full else 1.0 / 8},
            "a": "1 + 0*x", "b": "1 + 0*x", "p": 2.0,
            "mu_factors": [0.5, 1.01, 2.0, 4.0] if full else [0.5, 2.0],
        }),
        Command("thm1_4", ("verify", "thm1_4"), {
            "family": "heisenberg", "box": _box(4, 3), "h": 0.5 if full else 1.0,
            "f": "exp(-(x**2 + y**2 + t**2))", "theta_list": [0.02],
            "eps_list": [0.35, 0.45], "p": 3.0, "stability_box": _box(8, 3),
        }),
        Command("thm1_3", ("verify", "thm1_3"), {
            "family": "euclidean(2)",
            "g": "1 - 2*exp(-((x - 1.5)**2 + y**2))", "g_plus": "1 + 0*x",
            "lam_fractions": [0.25, 0.5, 1.0],
            "boxes": [_box(1, 2), _box(2, 2), _box(3, 2)],
            "h": 1.0 / 16 if full else 0.25,
        }),
        Command("logistic", ("solve", "logistic"), {
            "family": "heisenberg",
            "grid": {"box": _box(1, 3), "h": 0.125 if full else 0.25},
            "a": "1 + 0*x", "b": "1 + 0*x", "p": 2.0, "mu_factor": 2.0,
        }),
    ]


def ccmetric(size):
    """CC metric only: point queries with refinement, a full-radius sweep, a probe.

    The smoke size leaves out the vertical query: its refinement costs about
    10 s at any grid size.
    """
    full = size == "full"
    half = max(3.2 * math.sqrt(TAU / math.pi), 2 * TAU)
    R = 0.4
    tmax = R * R / 16
    vertical = Command("distance_vertical", ("distance",), {
        "family": "heisenberg",
        "grid": {"box": [[-half, half], [-half, half], [-1.3 * TAU, 1.3 * TAU]], "h": TAU / 4},
        "x": [0, 0, 0], "y": [0, 0, TAU], "directions": 16, "segments": 20, "tol": 1e-3,
    })
    return [vertical] * full + [
        Command("distance_planar", ("distance",), {
            "family": "heisenberg",
            "grid": {"box": [[-0.3, 1.3], [-0.3, 1.3], [-0.3, 0.3]], "h": 0.1},
            "x": [0, 0, 0], "y": [1, 1, 0], "directions": 32, "segments": 12 if full else 8,
            "tol": 1e-3,
        }),
        Command("ball", ("ball",), {
            "family": "heisenberg",
            "grid": {"box": [[-1.1 * R, 1.1 * R], [-1.1 * R, 1.1 * R],
                             [-1.4 * tmax, 1.4 * tmax]], "h": R * R / (24 if full else 12)},
            "center": [0, 0, 0], "radius": R, "directions": 16, "step_scales": [1],
        }),
        Command("poincare", ("probe", "poincare"), {
            "family": "euclidean(2)",
            "grid": {"box": _box(2.2 * R, 2), "h": 0.01 if full else 0.04},
            "center": [0, 0], "radius": R, "directions": 32, "step_scales": [1, 2, 3],
        }, seeded=True),
    ]


_BUILDERS = {"spectral": spectral, "semilinear": semilinear, "ccmetric": ccmetric}


def commands(workload, size="full"):
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}; choose from {', '.join(SIZES)}")
    return _BUILDERS[workload](size)


# ---------------------------------------------------------------------------
# output checks


def _verification(report, expected_total):
    """Checks of a verify report: (failures, outputs, cases, failed cases)."""
    ver = report["results"]["verification"]
    cases = ver["cases"]
    failed = sum(1 for c in cases if not c["passed"])
    failures = [] if len(cases) == expected_total else [
        f"{len(cases)} cases, expected {expected_total}"]
    outputs = {
        "summary": ver["summary"],
        "margins": [c["margin"] for c in cases],
    }
    return failures, outputs, len(cases), failed


def _check_eigen(rep, cfg, done):
    eig = rep["results"]["eigen"]
    fails = [] if eig["residual"] <= cfg["tol"] else [f"residual {eig['residual']!r} above tol"]
    return fails, {"lambda": eig["lambda"], "iterations": eig["iterations"]}, 0, 0


def _check_epspath(rep, cfg, done):
    path = rep["results"]["epsilon_path"]
    lams = [lam for _, lam in path]
    fails = []
    if not all(a > b for a, b in zip(lams, lams[1:])):
        fails.append(f"epsilon path not strictly decreasing: {lams}")
    if "eigen" in done:
        gap = abs(lams[-1] - done["eigen"]["lambda"])
        if gap > 1e-8:
            fails.append(f"lambda(eps=0) differs from eigen's lambda by {gap:.3e}")
    return fails, {"lambdas": lams}, 0, 0


def _check_verify(expected):
    def check(rep, cfg, done):
        return _verification(rep, expected(cfg))
    return check


def _check_thm1_4(rep, cfg, done):
    fails, outputs, cases, failed = _verification(
        rep, len(cfg["theta_list"]) * len(cfg["eps_list"]))
    notes = [n for n in rep["results"]["verification"]["notes"] if "truncation" in n]
    if not notes:
        fails.append("no truncation note")
    else:
        change = float(notes[0].split(":")[1])
        outputs["truncation_change"] = change
        if not change < 0.05:
            fails.append(f"truncation change {change!r} not below 5%")
    return fails, outputs, cases, failed


def _check_logistic(rep, cfg, done):
    res = rep["results"]["logistic"]
    fails = []
    if res["status"] != "ok":
        fails.append(f"logistic status {res['status']!r}")
    if not res["residual"] <= cfg.get("tol", 1e-8):
        fails.append(f"logistic residual {res['residual']!r} above tol")
    return fails, {"mu": res["mu"], "residual": res["residual"],
                   "iterations": res["iterations"]}, 0, 0


def _distance(rep):
    d = rep["results"]["distance"]
    return d["graph_upper_bound"], d["refined"], d["defect"]


def _check_vertical(rep, cfg, done):
    graph, refined, defect = _distance(rep)
    fails = []
    rel = abs(refined - VERTICAL_REF) / VERTICAL_REF
    if not rel <= 0.02:
        fails.append(f"vertical distance {refined!r} off sqrt(4 pi tau) by {rel:.2%}")
    if not refined <= graph:
        fails.append(f"refined {refined!r} above the graph bound {graph!r}")
    if not defect <= cfg["tol"]:
        fails.append(f"defect {defect!r} above tol")
    return fails, {"graph": graph, "refined": refined, "defect": defect}, 0, 0


def _check_planar(rep, cfg, done):
    graph, refined, defect = _distance(rep)
    d = min(graph, refined)
    fails = []
    rel = abs(d - PLANAR_REF) / PLANAR_REF
    if not rel <= 0.05:
        fails.append(f"planar distance {d!r} off sqrt(2) by {rel:.2%}")
    if not defect <= cfg["tol"]:
        fails.append(f"defect {defect!r} above tol")
    return fails, {"graph": graph, "refined": refined, "defect": defect}, 0, 0


def _check_ball(rep, cfg, done):
    ball = rep["results"]["ball"]
    h = cfg["grid"]["h"]
    fails = []
    if ball["node_count"] < 1:
        fails.append("empty ball")
    if not math.isclose(ball["volume"], ball["node_count"] * h ** 3, rel_tol=1e-12):
        fails.append("ball volume is not h^3 times its node count")
    return fails, {"node_count": ball["node_count"], "volume": ball["volume"]}, 0, 0


def _check_poincare(rep, cfg, done):
    rep_p = rep["results"]["poincare"]
    fails = []
    if rep_p["skipped"] or len(rep_p["ratios"]) != 12:
        fails.append(f"{len(rep_p['ratios'])} Poincare ratios, skipped {rep_p['skipped']}")
    if not 0.0 < rep_p["C_est"] < 1.0:
        fails.append(f"Poincare constant {rep_p['C_est']!r} outside (0, 1)")
    return fails, {"C_est": rep_p["C_est"]}, 0, 0


CHECKS = {
    "eigen": _check_eigen,
    "epspath": _check_epspath,
    "thm1_2": _check_verify(lambda cfg: cfg["n_subdomains"]),
    "prop4_2": _check_verify(lambda cfg: len(cfg["mu_factors"])),
    "thm1_4": _check_thm1_4,
    "thm1_3": _check_verify(lambda cfg: len(cfg["lam_fractions"])),
    "logistic": _check_logistic,
    "distance_vertical": _check_vertical,
    "distance_planar": _check_planar,
    "ball": _check_ball,
    "poincare": _check_poincare,
}


def check_command(command, code, report, done):
    """Check one finished command: (failures, key outputs, cases, failed cases).

    ``failures`` lists what failed in the command itself; verification
    cases are counted apart, each as an operation of its own.  ``done``
    maps the names of earlier commands of the pass to their key outputs,
    for checks that compare two commands.
    """
    if report is None:
        return [f"no report (exit code {code})"], {}, 0, 0
    try:
        fails, outputs, cases, failed = CHECKS[command.name](report, command.config, done)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        return [f"malformed report: {exc!r}"], {}, 0, 0
    if code != 0:
        fails = [f"exit code {code}"] + fails
    return fails, outputs, cases, failed
