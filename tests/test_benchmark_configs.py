"""The benchmark's command configs, read from perfbench/workloads.py without
changing it, must pass the CLI's config checks at every size, and a smoke-size
pass of every workload must pass the benchmark's own output checks."""

import json
import sys
import types
from pathlib import Path

import pytest

from sublap.cli import RunConfig, main, validate_config

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _workloads():
    # executed from its source, so no bytecode cache is written next to it; the
    # module is registered first because its dataclasses look it up by name
    module = types.ModuleType("perfbench_workloads")
    sys.modules[module.__name__] = module
    exec(compile(WORKLOADS.read_text(), str(WORKLOADS), "exec"), module.__dict__)
    return module


wl = _workloads()


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
