"""The benchmark tracer wraps sublap names given as strings, and scipy's `cg` on its
module; calls must reach the wrappers."""

import ast
import importlib
from pathlib import Path

import numpy as np
import scipy.sparse.linalg as spla

import sublap.eigen as eigen
import sublap.operators as operators
import sublap.semilinear as semilinear
from sublap.fields import euclidean
from sublap.mesh import build_grid
from sublap.operators import assemble_stiffness

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


def test_semilinear_and_eigen_call_cg_through_the_scipy_module(monkeypatch):
    # the tracer counts CG steps by replacing scipy.sparse.linalg.cg, so both
    # layers must look cg up on that module when they call it; a name bound
    # at import time would bypass the wrapper and read 0 CG steps
    calls = []
    cg = spla.cg

    def counted(*args, **kwargs):
        calls.append(1)
        return cg(*args, **kwargs)

    monkeypatch.setattr(spla, "cg", counted)
    monkeypatch.setattr(operators, "DIRECT_MAX_SEPARATOR", -1)
    g = build_grid([(0, 1), (0, 1)], 0.125)
    K = assemble_stiffness(euclidean(2), g)
    semilinear.ShiftedSolver(K, 1.0).solve_interior(np.ones(g.n_interior))
    from_semilinear = len(calls)
    eigen.principal_eigenpair(K, None, pairs=1)
    assert 0 < from_semilinear < len(calls)
