"""sublap benchmark: one workload, one seed, a fixed time budget.

    python3 perfbench/run.py --workload spectral --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The workload runs in a fresh child
process (``worker.py``) that imports sublap from the checkout's ``src``
and calls ``sublap.cli.main`` once per command, one command at a time (a
closed loop with one client).  Set-up is timed in that child and in
set-up-only children started before and after it, so that the samples
spread over the run; the median of the ``SETUP_SAMPLES`` is reported.

With ``--trace 0`` the last line of standard output is the JSON result
with the end-to-end metrics; with ``--trace 1`` it carries the per-layer
metrics of the traced passes instead.  A full record (machine info, seed,
every pass, key outputs of every command) goes to
``perfbench/results/<workload>-seed<seed>-trace<t>.json``, and the traced
run's spans to ``...-spans.csv`` beside it.  Exit code 0 means the run
finished, whatever its checks found; 2 means it could not run here.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import PER_LAYER
from workloads import SIZES, WORKLOADS

BENCH = Path(__file__).resolve().parent
SETUP_SAMPLES = 5
# One BLAS/OpenMP thread: on the 2-core box two threads made the Heisenberg
# h=1/16 eigensolve slower (5.0 s wall, 9.4 s CPU against 3.2 s for both).
THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
RUN_LIMIT_S = 170.0
TICKS_PER_S = os.sysconf("SC_CLK_TCK")

END_TO_END = [
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "ratio"),
]


class BenchError(RuntimeError):
    pass


def stolen_seconds():
    """Time the host has kept this machine's CPUs from running, from /proc/stat.

    On the shared host the hypervisor at times deschedules the busy CPU for
    a quarter of the time; that time passes on the wall clock but is none
    of the program's doing, so set-up and command times leave it out.
    Idle CPUs accrue none.
    """
    with open("/proc/stat") as f:
        fields = f.readline().split()
    return int(fields[8]) / TICKS_PER_S


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=SIZES, default="full",
                   help="'smoke' shrinks every grid; used by the benchmark's own tests")
    return p.parse_args(argv)


def _child(root, work, result, deadline, extra):
    """Run worker.py; returns (set-up seconds since spawn, less stolen time; result)."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--work", str(work),
           "--result", str(result)] + extra
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    env.update({k: THREADS for k in THREAD_VARS})
    stolen = stolen_seconds()
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True,
                              timeout=max(deadline - spawned, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded the {RUN_LIMIT_S:.0f} s run limit") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}:\n{proc.stderr[-3000:]}")
    out = json.loads(result.read_text())
    return out["t_ready"] - spawned - (out["stolen_at_ready"] - stolen), out


def _layer_metrics(passes):
    """Per-layer metrics: median times over traced passes, counters from one pass.

    A layer time is scaled to the host's speed by its pass's ratio of
    scaled to raw wall time.
    """
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    metrics = {}
    unsteady = []
    for name, unit in PER_LAYER:
        if name == "trace.overhead_frac":
            value = (statistics.median(p["wall_s"] for p in traced)
                     / statistics.median(p["wall_s"] for p in plain) - 1.0)
        elif unit == "s":
            value = statistics.median(p["layers"][name] * p["wall_s"] / p["raw_wall_s"]
                                      for p in traced)
        else:
            values = {p["layers"][name] for p in traced}
            if len(values) > 1:
                unsteady.append(f"{name} differs between traced passes: {sorted(values)}")
            value = traced[0]["layers"][name]
        metrics[name] = {"value": value, "unit": unit}
    return metrics, unsteady


def run(args, root):
    work = BENCH / ".work" / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    common = ["--workload", args.workload, "--size", args.size, "--seed", str(args.seed)]
    deadline = time.monotonic() + RUN_LIMIT_S
    work.mkdir(parents=True)

    def setup_only(i):
        return _child(root, work, work / f"setup-{i}.json", deadline,
                      common + ["--mode", "setup"])[0]
    try:
        setups = [setup_only(i) for i in range(SETUP_SAMPLES // 2)]
        setup, out = _child(root, work, work / "run.json", deadline, common + [
            "--mode", "run", "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--spans", str(results / f"{stem}-spans.csv")])
        setups.append(setup)
        setups += [setup_only(i) for i in range(SETUP_SAMPLES // 2, SETUP_SAMPLES - 1)]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    passes = out["passes"]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    problems = [f"pass {i} {c['command']}: {'; '.join(c['failures'])}"
                for i, p in enumerate(passes) for c in p["commands"] if c["failures"]]
    problems += [f"pass {i} {c['command']}: {c['cases_failed']} verification case(s) failed"
                 for i, p in enumerate(passes) for c in p["commands"] if c["cases_failed"]]
    if args.trace:
        metrics, unsteady = _layer_metrics(passes)
        problems += unsteady
    else:
        plain = [p for p in passes if not p["traced"]]
        values = {
            "wall_s": statistics.median(p["wall_s"] for p in plain),
            "cpu_s": statistics.median(p["cpu_s"] for p in plain),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": out["peak_rss_mb"],
            "ok_frac": (attempted - failed) / attempted,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    line = {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": metrics}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "size": args.size, "machine": out["machine"],
              "setup_samples_s": setups, "peak_rss_mb": out["peak_rss_mb"],
              "failed_frac": failed / attempted, "problems": problems,
              "result": line, "passes": passes}
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    return line, record


def main(argv=None):
    args = _parse(argv)
    root = Path.cwd()
    if not (root / "src" / "sublap" / "cli.py").is_file():
        print(f"no sublap sources under {root / 'src'}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    try:
        line, record = run(args, root)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    for i, p in enumerate(record["passes"]):
        cmds = ", ".join(f"{c['command']} {c['seconds']:.2f}s" for c in p["commands"])
        print(f"pass {i}{' (traced)' if p['traced'] else ''}: wall {p['wall_s']:.3f}s "
              f"(raw {p['raw_wall_s']:.3f}s), cpu {p['cpu_s']:.3f}s "
              f"(raw {p['raw_cpu_s']:.3f}s); raw: {cmds}")
    print(f"setup samples: {', '.join(f'{s:.3f}' for s in record['setup_samples_s'])} s; "
          f"failed_frac {record['failed_frac']:.4f} ({line['failed']}/{line['attempted']})")
    for problem in record["problems"]:
        print(f"problem: {problem}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
