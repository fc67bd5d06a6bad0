"""One workload in one fresh process: set-up, timed passes, output checks.

Started by ``perfbench/run.py`` from the root of a checkout, with
``PYTHONPATH`` pointing at the checkout's ``src``.  In ``setup`` mode it
only imports sublap and writes the workload's configs, so that the parent
can time set-up again.  In ``run`` mode it then runs passes of the
workload until the next pass would end after ``--seconds`` (one pass at
least); with ``--trace 1`` the passes alternate untraced and traced, two
passes at least.
The result goes to ``--result`` as JSON; nothing is printed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from run import stolen_seconds
from workloads import check_command, commands

PROBE_EVERY_S = 0.5
PROBE_REPEATS = 2
# The probe kernel's time on a quiet host (the 2-core Xeon box): scaled
# times are raw times * PROBE_NOMINAL_S / (median probe time while they ran).
PROBE_NOMINAL_S = 0.0045


class SpeedProbe:
    """Samples the host's speed while the workload runs.

    On a shared host the same pass can take 1.6x longer from one minute to
    the next.  A timer signal interrupts the main thread every
    PROBE_EVERY_S seconds, between two bytecodes of whatever it is running,
    and times a fixed kernel that does not use sublap (the fastest of
    PROBE_REPEATS runs, about 5 ms each).  The samples taken during a
    command tell how fast the host was while it ran; ``spent`` is the time
    the handler took, which callers subtract from their timings.
    """

    def __init__(self):
        self.samples = []
        self.spent = 0.0
        self._a = np.empty(4096)
        self._b = np.empty(4096)

    def _kernel(self):
        total = 0
        for i in range(30_000):
            total += (i * i) % 7
        self._a[:] = np.arange(4096.0)
        for _ in range(200):
            np.multiply(self._a, self._a, out=self._b)
            np.add(self._b, 1.0, out=self._b)
            np.sqrt(self._b, out=self._a)
        return total

    def _sample(self, signum, frame):
        start = time.perf_counter()
        best = float("inf")
        for _ in range(PROBE_REPEATS):
            t0 = time.perf_counter()
            self._kernel()
            best = min(best, time.perf_counter() - t0)
        self.samples.append(best)
        self.spent += time.perf_counter() - start

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--size", default="full")
    p.add_argument("--mode", choices=("setup", "run"), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--work", type=Path, required=True)
    p.add_argument("--result", type=Path, required=True)
    p.add_argument("--spans", type=Path, help="where the traced run writes its last pass's spans")
    return p.parse_args(argv)


def _dir_bytes(out):
    """(report.json bytes, other artifact bytes) written into one output directory."""
    report = artifacts = 0
    if out.is_dir():
        for f in out.iterdir():
            if f.name == "report.json":
                report += f.stat().st_size
            else:
                artifacts += f.stat().st_size
    return report, artifacts


def run_pass(cli, cmds, configs, out_root, seed, probe, tracer=None):
    """Run every command once, in order, and check its report.

    A command's time runs from its call to the end of its check, less the
    probe's share and less the time the host stole from the machine.  Its
    scaled time uses the probe samples taken while it ran, or those of the
    whole pass when it got fewer than three.
    """
    shutil.rmtree(out_root, ignore_errors=True)
    done = {}
    records = []
    attempted = failed = 0
    first_sample = len(probe.samples)
    for i, cmd in enumerate(cmds):
        out = out_root / cmd.name
        argv = ["--config", str(configs[cmd.name]), "--out", str(out)]
        if cmd.seeded:
            argv += ["--seed", str(seed)]
        argv += list(cmd.words)
        err = io.StringIO()
        n0, spent0 = len(probe.samples), probe.spent
        stolen0 = stolen_seconds()
        t0 = time.perf_counter()
        c0 = time.process_time()
        if tracer is not None:
            tracer.command = i
            span = tracer.open("cli.main")
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        except Exception as exc:  # a command that raises is a failed operation
            code = None
            err.write(repr(exc))
        finally:
            if tracer is not None:
                tracer.close(span)
        report = None
        if code is not None and (out / "report.json").is_file():
            report = json.loads((out / "report.json").read_text())
        fails, outputs, cases, cases_failed = check_command(cmd, code, report, done)
        probing = probe.spent - spent0
        stolen = stolen_seconds() - stolen0
        seconds = time.perf_counter() - t0 - probing - stolen
        cpu = time.process_time() - c0 - probing
        done[cmd.name] = outputs
        attempted += 1 + cases
        failed += bool(fails) + cases_failed
        records.append({"command": cmd.name, "exit_code": code, "seconds": seconds,
                        "cpu_s": cpu, "stolen_s": stolen, "probe_s": probe.samples[n0:],
                        "outputs": outputs, "failures": fails, "cases": cases,
                        "cases_failed": cases_failed, "stderr": err.getvalue()[-2000:]})
    pass_samples = probe.samples[first_sample:]
    wall = cpu = 0.0
    for r in records:
        samples = r["probe_s"] if len(r["probe_s"]) >= 3 else pass_samples
        factor = PROBE_NOMINAL_S / statistics.median(samples) if samples else 1.0
        wall += r["seconds"] * factor
        cpu += r["cpu_s"] * factor
    report_bytes = artifact_bytes = 0
    for cmd in cmds:
        r, a = _dir_bytes(out_root / cmd.name)
        report_bytes += r
        artifact_bytes += a
    return {"wall_s": wall, "cpu_s": cpu,
            "raw_wall_s": sum(r["seconds"] for r in records),
            "raw_cpu_s": sum(r["cpu_s"] for r in records),
            "attempted": attempted, "failed": failed,
            "report_bytes": report_bytes, "artifact_bytes": artifact_bytes,
            "commands": records}


def main(argv=None):
    args = _parse(argv)
    import sublap
    from sublap import cli

    src = (Path.cwd() / "src").resolve()
    if src not in Path(sublap.__file__).resolve().parents:
        print(f"sublap imported from {sublap.__file__}, not from {src}", file=sys.stderr)
        return 2
    cmds = commands(args.workload, args.size)
    cfg_dir = args.work / "configs"
    cfg_dir.mkdir(parents=True, exist_ok=True)
    configs = {}
    for cmd in cmds:
        configs[cmd.name] = cfg_dir / f"{cmd.name}.json"
        configs[cmd.name].write_text(json.dumps(cmd.config, sort_keys=True))
    result = {"t_ready": time.monotonic(), "stolen_at_ready": stolen_seconds()}
    if args.mode == "run":
        result.update(_measure(args, cli, cmds, configs))
    args.result.write_text(json.dumps(result))
    return 0


def _machine():
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_caps": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "platform": platform.platform(),
    }


def _measure(args, cli, cmds, configs):
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
    out_root = args.work / "out"
    passes = []
    t_start = time.perf_counter()
    with SpeedProbe() as probe:
        while True:
            traced = tracer is not None and len(passes) % 2 == 1
            if traced:
                tracer.reset()
                tracer.install()
            try:
                p = run_pass(cli, cmds, configs, out_root, args.seed, probe,
                             tracer if traced else None)
            finally:
                if traced:
                    tracer.uninstall()
            p["traced"] = traced
            if traced:
                p["layers"] = tracer.layer_metrics(p["report_bytes"], p["artifact_bytes"])
            passes.append(p)
            elapsed = time.perf_counter() - t_start
            typical = statistics.median(q["raw_wall_s"] for q in passes)
            enough = len(passes) >= (2 if tracer is not None else 1)
            if enough and elapsed + typical > args.seconds:
                break
    out = {"passes": passes,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
           "machine": _machine()}
    if tracer is not None and args.spans is not None:
        tracer.write_spans(args.spans)
    return out


if __name__ == "__main__":
    sys.exit(main())
