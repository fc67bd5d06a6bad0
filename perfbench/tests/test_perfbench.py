"""The benchmark's own tests: reduced-size runs of every workload, and the tracer.

Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "perfbench"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
# counters are deterministic; times and the overhead ratio derived from them are not
COUNTERS = [n for n, unit in PER_LAYER.items() if unit != "s" and n != "trace.overhead_frac"]


def smoke(workload, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def result_line(proc):
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"], proc.stdout
    assert line["failed"] == 0 and line["attempted"] >= 1
    return line


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_emits_every_end_to_end_metric(workload):
    line = result_line(smoke(workload, 0))
    assert {k: v["unit"] for k, v in line["metrics"].items()} == END_TO_END
    assert all(v["value"] > 0 for v in line["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_runs_emit_every_layer_metric_and_repeat_their_counters(workload):
    first, second = (result_line(smoke(workload, 1)) for _ in range(2))
    for line in (first, second):
        assert {k: v["unit"] for k, v in line["metrics"].items()} == PER_LAYER
    assert {n: first["metrics"][n]["value"] for n in COUNTERS} == \
        {n: second["metrics"][n]["value"] for n in COUNTERS}
    assert first["metrics"]["cli.commands"]["value"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", ".work", "__pycache__"))
    proc = smoke("semilinear", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_tracer_attributes_counters_and_restores_the_originals():
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    try:
        import sublap as sl
        from sublap import cli
        from tracer import Tracer
    finally:
        del sys.path[:2]
    originals = (sl.principal_eigenpair, cli.principal_eigenpair,
                 sl.VectorFieldFamily.eval_coefficients_batch)
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.principal_eigenpair is not originals[1]
        g = sl.build_grid([(0, 1), (0, 1)], 0.125)
        K = sl.assemble_stiffness(sl.euclidean(2), g)
        res = sl.principal_eigenpair(K, None, sl.mass_matrix(g))
        sl.euclidean(2).eval_coefficients_batch(g.points)
    finally:
        tracer.uninstall()
    assert (sl.principal_eigenpair, cli.principal_eigenpair,
            sl.VectorFieldFamily.eval_coefficients_batch) == originals
    m = tracer.layer_metrics(0, 0)
    assert m["operators.assemble_calls"] == 1       # its two first-order calls are nested
    assert m["operators.unknowns"] == g.n_interior
    assert m["eigen.principal_calls"] == 1
    assert m["eigen.principal_iters"] == res.iterations
    assert m["eigen.cg_calls"] >= res.iterations and m["eigen.cg_iters"] > 0
    assert m["semilinear.cg_iters"] == 0
    assert m["fields.eval_calls"] == 1 and m["fields.eval_points"] == g.num_nodes
    spans = tracer.spans
    assert all(end >= start for _, start, end, _, _ in spans)
    assert m["mesh.build_s"] > 0 and m["eigen.principal_s"] > 0
