"""Run every CLI command of a checkout, each into an output directory of its own.

    python3 tools/bench_outputs.py <checkout> <out-dir> [--size full|smoke]

Every command of ``<checkout>/perfbench/workloads.py`` runs in order, in
this process, through ``<checkout>/src``'s ``sublap.cli.main``, with BLAS
and OpenMP capped at one thread and ``--seed 1`` for the seeded commands.
Then ``untimed`` lists the commands that no benchmark workload times
(``fields info``, ``solve yamabe``, ``probe sobolev``, ``probe doubling``)
at fixed configs, ``solve yamabe`` with ``--plot`` at theta = 0.05 and at
theta = 0, so every CLI command runs at least once, ``eigen`` on a 1-D
grid with ``--plot``, whose plot is one row, ``eigen`` on a grid large
enough to take the LOBPCG path at both sizes, a weighted ``eigen`` and an
``epspath`` on a factored grid.  The run named ``<name>``
writes to ``<out-dir>/<name>/``, so that ``diff -r`` of two output
directories compares every report, field file and plot of two checkouts,
or of two runs of one.  The configs go to a temporary directory, not under
``<out-dir>``.  A run that exits non-zero is named on stderr as
``<name>: exit <code>``.  Exits 0 when every command exited 0, 1 otherwise.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
import tempfile
import types
from pathlib import Path
from typing import NamedTuple

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class Run(NamedTuple):
    """One CLI invocation, with the fields of a workloads.py command and `plot`."""

    name: str
    words: tuple
    config: dict
    seeded: bool = False
    plot: bool = False


def untimed(size):
    """The commands no benchmark workload runs, on Heisenberg grids near the ball workload's.

    ``solve yamabe`` runs twice with ``--plot``, at theta = 0.05 and at
    theta = 0 (``yamabe_theta0``, the barrier pair with C = 0).  Then comes
    a 1-D ``eigen`` run with ``--plot``, which no workload makes.  Last,
    ``eigen_lobpcg`` runs ``eigen`` at h = 1/8 on (-1, 1)^3 (3,375 unknowns),
    which takes the LOBPCG path with a factored 2h coarse start at both
    sizes: every smoke-size workload eigensolve is factored or dense.
    ``eigen_weight`` takes the weighted pencil of ``eigen`` with a weight
    that changes sign, and ``epspath_factored`` runs ``epspath`` at
    h = 1/4 on (-1, 1)^3 (343 unknowns), where each shift-invert solve
    after the first starts from the last eigenvector.
    """
    full = size == "full"
    R = 0.4
    tmax = R * R / 16
    ball_grid = {"box": [[-1.1 * R, 1.1 * R]] * 2 + [[-1.4 * tmax, 1.4 * tmax]],
                 "h": R * R / (24 if full else 12)}
    ball = {"family": "heisenberg", "grid": ball_grid, "center": [0, 0, 0], "directions": 16,
            "step_scales": [1]}
    yamabe = {"family": "heisenberg", "grid": {"box": [[-2, 2]] * 3, "h": 0.5 if full else 1.0},
              "f": "exp(-(x**2 + y**2 + t**2))", "theta": 0.05, "eps": 0.4, "p": 3.0}
    return [
        Run("fields_info", ("fields", "info"), {"family": "heisenberg", "sample_points": 5},
            seeded=True),
        Run("yamabe", ("solve", "yamabe"), yamabe, plot=True),
        Run("yamabe_theta0", ("solve", "yamabe"), {**yamabe, "theta": 0.0}, plot=True),
        Run("sobolev", ("probe", "sobolev"), {**ball, "radius": R, "q": 4.0, "p": 2.0}),
        Run("doubling", ("probe", "doubling"), {**ball, "radii": [R / 4, R / 2]}),
        Run("eigen_1d", ("eigen",), {"family": "euclidean(1)",
                                     "grid": {"box": [[0, 1]], "h": 1 / 64 if full else 1 / 16}},
            plot=True),
        Run("eigen_lobpcg", ("eigen",), {"family": "heisenberg",
                                         "grid": {"box": [[-1, 1]] * 3, "h": 1 / 8}}),
        Run("eigen_weight", ("eigen",), {"family": "euclidean(2)",
                                         "grid": {"box": [[-1, 1]] * 2, "h": 1 / 8},
                                         "weight": "1 - 2*exp(-4*((x - 0.3)**2 + y**2))"}),
        Run("epspath_factored", ("epspath",), {"family": "heisenberg",
                                               "grid": {"box": [[-1, 1]] * 3, "h": 1 / 4},
                                               "eps_list": [0.5, 0.1, 0.0]}),
    ]


def load_workloads(checkout):
    """The checkout's perfbench/workloads.py, executed from its source (no bytecode cache)."""
    path = Path(checkout) / "perfbench" / "workloads.py"
    # registered first: its dataclasses look the module up by name
    module = types.ModuleType("perfbench_workloads")
    sys.modules[module.__name__] = module
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


def runs(checkout, size):
    """Every run, in order: the workloads' commands, then `untimed`."""
    wl = load_workloads(checkout)
    return [cmd for workload in wl.WORKLOADS for cmd in wl.commands(workload, size)] + untimed(size)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", type=Path)
    parser.add_argument("out", type=Path)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    args = parser.parse_args(argv)
    # before numpy is first imported, through sublap below
    os.environ.update(dict.fromkeys(THREAD_VARS, "1"))
    src = (args.checkout / "src").resolve()
    sys.path.insert(0, str(src))
    cli = importlib.import_module("sublap.cli")
    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"imported {cli.__file__}, not the checkout's sublap")
    codes = []
    with tempfile.TemporaryDirectory() as configs:
        for cmd in runs(args.checkout, args.size):
            cfg = Path(configs) / f"{cmd.name}.json"
            cfg.write_text(json.dumps(cmd.config, sort_keys=True))
            argv = ["--config", str(cfg), "--out", str(args.out / cmd.name)]
            argv += ["--seed", "1"] * cmd.seeded + ["--plot"] * getattr(cmd, "plot", False)
            codes.append(cli.main(argv + list(cmd.words)))
            if codes[-1]:
                print(f"{cmd.name}: exit {codes[-1]}", file=sys.stderr)
    return 0 if not any(codes) else 1


if __name__ == "__main__":
    sys.exit(main())
