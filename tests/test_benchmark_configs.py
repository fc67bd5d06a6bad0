"""The benchmark's command configs, read from perfbench/workloads.py without
changing it, must pass the CLI's config checks at every size, a smoke-size
pass of every workload must pass the benchmark's own output checks, and
tools/bench_outputs.py must run every CLI command and write the same output
tree twice, which tools/compare_outputs.py then finds identical and equal to
the checked-in record of tools/record_outputs.py."""

import contextlib
import importlib.util
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

from sublap.cli import COMMANDS, RunConfig, main, validate_config

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "bench_outputs.py"
_spec = importlib.util.spec_from_file_location("bench_outputs", TOOL)
bench_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_outputs)
wl = bench_outputs.load_workloads(ROOT)
_spec = importlib.util.spec_from_file_location("compare_outputs",
                                               ROOT / "tools" / "compare_outputs.py")
compare_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_outputs)
_spec = importlib.util.spec_from_file_location("record_outputs",
                                               ROOT / "tools" / "record_outputs.py")
record_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(record_outputs)


def _strict_json(data):
    """A report parsed as strict JSON: NaN, Infinity and -Infinity are refused."""
    def refuse(name):
        raise ValueError(f"{name} is not strict JSON")
    return json.loads(data, parse_constant=refuse)


def _sums(path):
    """{file: sha256} of a SHA256SUMS file."""
    return {name: digest for digest, name in
            (line.split("  ", 1) for line in path.read_text().splitlines())}


@pytest.mark.parametrize("workload", wl.WORKLOADS)
@pytest.mark.parametrize("size", wl.SIZES)
def test_every_benchmark_config_passes_validate_config_and_run_config(tmp_path, workload, size):
    cmds = wl.commands(workload, size)
    assert cmds
    for cmd in cmds:
        command = "-".join(cmd.words)
        params = validate_config(command, dict(cmd.config))
        RunConfig(command=command, params=params, out=tmp_path / cmd.name, seed=1)
    assert not any(tmp_path.iterdir())  # checking a config writes nothing


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_every_smoke_pass_passes_the_benchmark_checks(tmp_path, workload):
    # run as the benchmark worker runs a pass: in order, --seed for the seeded
    # commands, each report checked with the key outputs of the earlier ones
    done = {}
    for cmd in wl.commands(workload, "smoke"):
        cfg = tmp_path / f"{cmd.name}.json"
        cfg.write_text(json.dumps(cmd.config, sort_keys=True))
        out = tmp_path / cmd.name
        argv = ["--config", str(cfg), "--out", str(out)]
        argv += ["--seed", "1"] * cmd.seeded + list(cmd.words)
        code = main(argv)
        report = json.loads((out / "report.json").read_text())
        fails, outputs, _, cases_failed = wl.check_command(cmd, code, report, done)
        assert (cmd.name, fails, cases_failed) == (cmd.name, [], 0)
        done[cmd.name] = outputs


def test_bench_outputs_writes_one_identical_tree_per_run(tmp_path):
    trees = []
    for run in ("a", "b"):
        subprocess.run([sys.executable, str(TOOL), str(ROOT), str(tmp_path / run),
                        "--size", "smoke"], check=True, capture_output=True)
        trees.append({path.relative_to(tmp_path / run): path.read_bytes()
                      for path in (tmp_path / run).rglob("*") if path.is_file()})
    assert trees[0] == trees[1]
    runs = bench_outputs.runs(ROOT, "smoke")
    names = [cmd.name for cmd in runs]
    assert len(set(names)) == len(names) and {path.parts[0] for path in trees[0]} == set(names)
    assert all(Path(name, "report.json") in trees[0] for name in names)
    reports = {path: _strict_json(data) for path, data in trees[0].items()
               if path.name == "report.json"}
    # one run, at least, of every CLI command
    assert {reports[Path(name, "report.json")]["config"]["command"]
            for name in names} == set(COMMANDS)
    assert Path("yamabe", "solution.svg") in trees[0]
    assert compare_outputs.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 0
    # every report byte for byte, and every other file by its sha256, as recorded
    record = tmp_path / "record"
    record_outputs.write_record(tmp_path / "a", record)
    summary = io.StringIO()
    with contextlib.redirect_stdout(summary):
        differing = compare_outputs.main([str(record_outputs.RECORD), str(record)])
    recorded, fresh = _sums(record_outputs.RECORD / "SHA256SUMS"), _sums(record / "SHA256SUMS")
    moved = sorted(name for name in recorded.keys() | fresh.keys()
                   if recorded.get(name) != fresh.get(name))
    assert not differing, (
        f"smoke outputs differ from {record_outputs.RECORD} (if on purpose, run "
        f"`python3 tools/record_outputs.py`):\n{summary.getvalue()}"
        f"sha256 changed: {moved}")


def test_bench_outputs_names_every_run_that_exits_non_zero(tmp_path, monkeypatch, capsys):
    grid = {"box": [[0, 1], [0, 1]], "h": 0.25}
    Run = bench_outputs.Run
    monkeypatch.setattr(bench_outputs, "runs", lambda checkout, size: [
        Run("good", ("eigen",), {"family": "euclidean(2)", "grid": grid}),
        Run("raises", ("eigen",), {"family": "euclidean(2)", "grid": grid, "potential": "x +"}),
        Run("config", ("eigen",), {"family": "euclidean(2)", "grid": grid, "typo": 1}),
    ])
    for var in bench_outputs.THREAD_VARS:  # main sets them; restored afterwards
        monkeypatch.setenv(var, "1")
    monkeypatch.setattr(sys, "path", list(sys.path))
    assert bench_outputs.main([str(ROOT), str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert [line for line in err if ": exit " in line] == ["raises: exit 1", "config: exit 2"]


def test_compare_outputs_names_each_file_that_differs_and_its_largest_change(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    for tree, lam, status, value, extra in ((a, 2.0, "ok", "0.5", False),
                                            (b, 2.0 + 3e-12, "failed", "0.5000001", True)):
        (tree / "eigen").mkdir(parents=True)
        (tree / "eigen" / "report.json").write_text(json.dumps(
            {"results": {"lambda": lam, "iterations": 7, "status": status, "ok": True}}))
        (tree / "eigen" / "field.csv").write_text(f"i0,value\n0,{value}\n1,0.0\n2,-1.0\n")
        (tree / "same.json").write_text("[1, 2]")
        if extra:
            (tree / "plot.svg").write_text("<svg/>")
    assert compare_outputs.main([str(a), str(b)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "eigen/field.csv: 1 numbers moved, largest relative change 1e-07 at 1:value, "
        "0 other changes",
        "eigen/report.json: 1 numbers moved, largest relative change 1.5e-12 at "
        "results.lambda, 1 other changes",
        "    results.status: 'ok' -> 'failed'",
        f"plot.svg: only in {b}",
    ]
    assert compare_outputs.main([str(a), str(b), "--each"]) == 1
    assert "    results.lambda: 2.0 -> 2.000000000003 (1.5e-12)" in capsys.readouterr().out
