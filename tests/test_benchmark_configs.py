"""The benchmark's command configs, read from perfbench/workloads.py without
changing it, must pass the CLI's config checks at every size."""

import sys
import types
from pathlib import Path

import pytest

from sublap.cli import RunConfig, validate_config

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
