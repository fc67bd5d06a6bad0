"""The benchmark's command configs, read from perfbench/workloads.py without
changing it, must pass the CLI's config checks at every size, a smoke-size
pass of every workload must pass the benchmark's own output checks, and
tools/bench_outputs.py must run every CLI command and write the same output
tree twice."""

import importlib.util
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
    # one run, at least, of every CLI command
    assert {json.loads(trees[0][Path(name, "report.json")])["config"]["command"]
            for name in names} == set(COMMANDS)
    assert Path("yamabe", "solution.svg") in trees[0]


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
