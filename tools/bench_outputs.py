"""Run every benchmark command of a checkout, each into an output directory of its own.

    python3 tools/bench_outputs.py <checkout> <out-dir> [--size full|smoke]

Every command of ``<checkout>/perfbench/workloads.py`` runs in order, in
this process, through ``<checkout>/src``'s ``sublap.cli.main``, with BLAS
and OpenMP capped at one thread and ``--seed 1`` for the seeded commands.
The command named ``<name>`` writes to ``<out-dir>/<name>/``, so that
``diff -r`` of two output directories compares every report and field
file of two checkouts, or of two runs of one.  The configs go to a
temporary directory, not under ``<out-dir>``.  Exits 0 when every
command exited 0, 1 otherwise.
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

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def load_workloads(checkout):
    """The checkout's perfbench/workloads.py, executed from its source (no bytecode cache)."""
    path = Path(checkout) / "perfbench" / "workloads.py"
    # registered first: its dataclasses look the module up by name
    module = types.ModuleType("perfbench_workloads")
    sys.modules[module.__name__] = module
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


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
    wl = load_workloads(args.checkout)
    codes = []
    with tempfile.TemporaryDirectory() as configs:
        for workload in wl.WORKLOADS:
            for cmd in wl.commands(workload, args.size):
                cfg = Path(configs) / f"{cmd.name}.json"
                cfg.write_text(json.dumps(cmd.config, sort_keys=True))
                argv = ["--config", str(cfg), "--out", str(args.out / cmd.name)]
                codes.append(cli.main(argv + ["--seed", "1"] * cmd.seeded + list(cmd.words)))
    return 0 if not any(codes) else 1


if __name__ == "__main__":
    sys.exit(main())
