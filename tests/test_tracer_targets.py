"""The benchmark tracer wraps sublap names given as strings; each must resolve."""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_list(name):
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == [name]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACER} assigns no {name}")


def test_every_name_the_benchmark_tracer_wraps_resolves():
    targets, methods = _tracer_list("TARGETS"), _tracer_list("METHODS")
    missing = [f"{mod}.{attr}" for mod, attr, _ in targets
               if not hasattr(importlib.import_module(mod), attr)]
    missing += [f"{mod}.{cls}.{meth}" for mod, cls, meth, _ in methods
                if not hasattr(getattr(importlib.import_module(mod), cls, None), meth)]
    assert targets and methods and not missing
