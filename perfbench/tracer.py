"""Spans and counters for the traced run, installed from the benchmark's files.

``Tracer.install`` wraps the public entry points of each sublap module,
``VectorFieldFamily.eval_coefficients(_batch)`` and the scipy solvers
``cg``, ``spsolve`` and ``factorized``.  A wrapped name is replaced in its
defining module and in every sublap module that imported it, so calls made
through ``from .eigen import principal_eigenpair`` are traced too.
``uninstall`` puts every original back.

A span is ``[name, start, end, parent, command]``: the name is
``<layer>.<function>``, ``parent`` is the index of the enclosing span (-1
at the top) and ``command`` the index of the CLI command that caused it.
Spans stay in memory until the run ends.  A scipy span is booked under
the layer of its nearest enclosing sublap span, so CG iterations inside
``principal_eigenpair`` count as ``eigen.cg_iters`` and those inside
``linear_solve`` as ``semilinear.cg_iters``.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import defaultdict

SCIPY = "scipy"

# (module, attribute, span name); the span's layer is the part before the dot
TARGETS = [
    ("sublap.mesh", "build_grid", "mesh.build_grid"),
    ("sublap.mesh", "mask_domain", "mesh.mask_domain"),
    ("sublap.mesh", "field_to_csv", "mesh.field_to_csv"),
    ("sublap.operators", "assemble_stiffness", "operators.assemble_stiffness"),
    ("sublap.operators", "assemble_first_order", "operators.assemble_first_order"),
    ("sublap.eigen", "principal_eigenpair", "eigen.principal_eigenpair"),
    ("sublap.eigen", "weighted_principal", "eigen.weighted_principal"),
    ("sublap.eigen", "epsilon_path", "eigen.epsilon_path"),
    ("sublap.semilinear", "monotone_iterate", "semilinear.monotone_iterate"),
    ("sublap.semilinear", "linear_solve", "semilinear.linear_solve"),
    ("sublap.semilinear", "logistic_solve", "semilinear.logistic_solve"),
    ("sublap.semilinear", "yamabe_solve", "semilinear.yamabe_solve"),
    ("sublap.semilinear", "exhaustion_construct", "semilinear.exhaustion_construct"),
    ("sublap.ccmetric", "cc_distance_graph", "ccmetric.cc_distance_graph"),
    ("sublap.ccmetric", "cc_distance_refine", "ccmetric.cc_distance_refine"),
    ("sublap.ccmetric", "metric_ball", "ccmetric.metric_ball"),
    ("sublap.ccmetric", "doubling_estimate", "ccmetric.probe"),
    ("sublap.ccmetric", "random_polynomial_corpus", "ccmetric.probe"),
    ("sublap.ccmetric", "poincare_probe", "ccmetric.probe"),
    ("sublap.ccmetric", "sobolev_probe", "ccmetric.probe"),
    ("sublap.verify", "verify_thm_1_2", "verify.suite"),
    ("sublap.verify", "verify_thm_1_3", "verify.suite"),
    ("sublap.verify", "verify_prop_4_2", "verify.suite"),
    ("sublap.verify", "verify_thm_1_4", "verify.suite"),
]
METHODS = [
    ("sublap.fields", "VectorFieldFamily", "eval_coefficients", "fields.eval"),
    ("sublap.fields", "VectorFieldFamily", "eval_coefficients_batch", "fields.eval"),
]

# Every per-layer metric with its unit, in the order they are reported.
PER_LAYER = [
    ("fields.eval_calls", "count"), ("fields.eval_points", "count"), ("fields.eval_s", "s"),
    ("mesh.build_s", "s"), ("mesh.mask_calls", "count"), ("mesh.csv_s", "s"),
    ("mesh.csv_bytes", "bytes"),
    ("operators.assemble_calls", "count"), ("operators.assemble_s", "s"),
    ("operators.unknowns", "count"), ("operators.K_nnz", "count"),
    ("eigen.principal_calls", "count"), ("eigen.principal_s", "s"),
    ("eigen.principal_iters", "count"), ("eigen.cg_calls", "count"), ("eigen.cg_iters", "count"),
    ("eigen.weighted_calls", "count"), ("eigen.weighted_s", "s"),
    ("eigen.weighted_iters", "count"), ("eigen.factor_calls", "count"), ("eigen.factor_s", "s"),
    ("semilinear.monotone_calls", "count"), ("semilinear.monotone_steps", "count"),
    ("semilinear.monotone_s", "s"), ("semilinear.linear_solves", "count"),
    ("semilinear.linear_solve_s", "s"), ("semilinear.cg_iters", "count"),
    ("semilinear.direct_solves", "count"), ("semilinear.unconverged", "count"),
    ("ccmetric.graph_calls", "count"), ("ccmetric.graph_s", "s"),
    ("ccmetric.grid_nodes", "count"), ("ccmetric.ball_calls", "count"),
    ("ccmetric.ball_s", "s"), ("ccmetric.ball_nodes", "count"),
    ("ccmetric.refine_calls", "count"), ("ccmetric.refine_s", "s"),
    ("ccmetric.refine_eval_calls", "count"), ("ccmetric.refine_shrink", "ratio"),
    ("ccmetric.refine_stalled", "count"), ("ccmetric.probe_s", "s"),
    ("verify.suite_calls", "count"), ("verify.suite_s", "s"), ("verify.self_s", "s"),
    ("verify.cases", "count"), ("verify.cases_failed", "count"), ("verify.min_margin", "1"),
    ("cli.commands", "count"), ("cli.command_s", "s"), ("cli.self_s", "s"),
    ("cli.report_bytes", "bytes"), ("cli.artifact_bytes", "bytes"),
    ("trace.overhead_frac", "ratio"),
]


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _after_eval(tr, args, kwargs, result):
    tr.counts["fields.eval_points"] += result.shape[0] if result.ndim == 3 else 1


def _after_csv(tr, args, kwargs, result):
    path = _arg(args, kwargs, 1, "path_or_buf")
    if isinstance(path, (str, bytes)) or hasattr(path, "__fspath__"):
        tr.counts["mesh.csv_bytes"] += os.path.getsize(path)


def _after_stiffness(tr, args, kwargs, result):
    tr.counts["operators.unknowns"] += result.shape[0]
    tr.counts["operators.K_nnz"] += result.mat.nnz


def _after_principal(tr, args, kwargs, result):
    tr.counts["eigen.principal_iters"] += result.iterations


def _after_weighted(tr, args, kwargs, result):
    tr.counts["eigen.weighted_iters"] += result.iterations


def _after_monotone(tr, args, kwargs, result):
    tr.counts["semilinear.monotone_steps"] += result.iterations
    tr.counts["semilinear.unconverged"] += result.status != "ok"


def _after_graph(tr, args, kwargs, result):
    tr.counts["ccmetric.grid_nodes"] += _arg(args, kwargs, 1, "grid").num_nodes


def _after_ball(tr, args, kwargs, result):
    tr.counts["ccmetric.ball_nodes"] += result.node_ids.size


def _after_refine(tr, args, kwargs, result):
    tr.counts["ccmetric.refined_T"] += result.T
    tr.counts["ccmetric.seed_T"] += _arg(args, kwargs, 1, "seed").T
    tr.counts["ccmetric.refine_stalled"] += bool(result.stalled)


def _after_suite(tr, args, kwargs, result):
    tr.counts["verify.cases"] += result.total
    tr.counts["verify.cases_failed"] += result.total - result.passed_count
    for case in result.cases:
        tr.min_margin = min(tr.min_margin, case.margin)


AFTER = {
    "fields.eval": _after_eval,
    "mesh.field_to_csv": _after_csv,
    "operators.assemble_stiffness": _after_stiffness,
    "eigen.principal_eigenpair": _after_principal,
    "eigen.weighted_principal": _after_weighted,
    "semilinear.monotone_iterate": _after_monotone,
    "ccmetric.cc_distance_graph": _after_graph,
    "ccmetric.metric_ball": _after_ball,
    "ccmetric.cc_distance_refine": _after_refine,
    "verify.suite": _after_suite,
}


def _layer(name):
    return name.split(".", 1)[0]


class Tracer:
    """Collects spans and counters while installed; see the module docstring."""

    def __init__(self):
        self._undo = []
        self.reset()

    def reset(self):
        self.spans = []
        self.stack = []
        self.counts = defaultdict(float)
        self.cg_iters = {}          # span index of a scipy.cg call -> its iterations
        self.min_margin = float("inf")
        self.command = -1

    # -- spans --------------------------------------------------------------

    def open(self, name):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None,
                           self.stack[-1] if self.stack else -1, self.command])
        self.stack.append(idx)
        return idx

    def close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, name, fn):
        tracer = self
        after = AFTER.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if after is not None:
                after(tracer, args, kwargs, result)
            return result
        return traced

    def _wrap_cg(self, fn):
        """scipy's cg with a callback that counts iterations."""
        tracer = self

        @functools.wraps(fn)
        def cg(A, b, *args, callback=None, **kwargs):
            idx = tracer.open("scipy.cg")
            tracer.cg_iters[idx] = 0

            def count(xk):
                tracer.cg_iters[idx] += 1
                if callback is not None:
                    callback(xk)
            try:
                return fn(A, b, *args, callback=count, **kwargs)
            finally:
                tracer.close(idx)
        return cg

    def _patch(self, owner, attr, new):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        if self._undo:
            raise RuntimeError("tracer already installed")
        import scipy.sparse.linalg as spla

        modules = [m for k, m in sorted(sys.modules.items())
                   if (k == "sublap" or k.startswith("sublap.")) and m is not None]
        wanted = [(importlib.import_module(mod), attr, name) for mod, attr, name in TARGETS]
        wanted += [(spla, attr, f"{SCIPY}.{attr}") for attr in ("cg", "spsolve", "factorized")]
        for owner, attr, name in wanted:
            orig = getattr(owner, attr)
            new = self._wrap_cg(orig) if name == "scipy.cg" else self._wrap(name, orig)
            for mod in [owner] + modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._patch(mod, key, new)
        for mod, cls, attr, name in METHODS:
            klass = getattr(importlib.import_module(mod), cls)
            self._patch(klass, attr, self._wrap(name, vars(klass)[attr]))

    def uninstall(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    # -- per-layer metrics ----------------------------------------------------

    def layer_metrics(self, report_bytes, artifact_bytes):
        """Every PER_LAYER metric except trace.overhead_frac, from this pass's spans.

        A scipy span is booked under the layer of its nearest sublap
        ancestor, as ``<layer>/scipy.<function>``.
        """
        calls = defaultdict(int)
        total = defaultdict(float)
        self_s = defaultdict(float)
        outer_calls = defaultdict(int)
        outer_s = defaultdict(float)
        cg_iters = defaultdict(int)
        refine_evals = 0
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        home = []       # layer each span is booked under; parents precede children
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            layer = _layer(name)
            parent_name = self.spans[parent][0] if parent >= 0 else ""
            key = name
            if layer == SCIPY:
                layer = home[parent] if parent >= 0 else ""
                key = f"{layer}/{name}"
                cg_iters[layer] += self.cg_iters.get(i, 0)
            home.append(layer)
            dur = end - start
            calls[key] += 1
            total[key] += dur
            self_s[key] += dur - child[i]
            if key == name and _layer(parent_name) != layer:
                outer_calls[layer] += 1
                outer_s[layer] += dur
            if name == "fields.eval" and parent_name == "ccmetric.cc_distance_refine":
                refine_evals += 1
        c = self.counts
        seed_T = c["ccmetric.seed_T"]
        return {
            "fields.eval_calls": calls["fields.eval"],
            "fields.eval_points": int(c["fields.eval_points"]),
            "fields.eval_s": total["fields.eval"],
            "mesh.build_s": total["mesh.build_grid"],
            "mesh.mask_calls": calls["mesh.mask_domain"],
            "mesh.csv_s": total["mesh.field_to_csv"],
            "mesh.csv_bytes": int(c["mesh.csv_bytes"]),
            "operators.assemble_calls": outer_calls["operators"],
            "operators.assemble_s": outer_s["operators"],
            "operators.unknowns": int(c["operators.unknowns"]),
            "operators.K_nnz": int(c["operators.K_nnz"]),
            "eigen.principal_calls": calls["eigen.principal_eigenpair"],
            "eigen.principal_s": total["eigen.principal_eigenpair"],
            "eigen.principal_iters": int(c["eigen.principal_iters"]),
            "eigen.cg_calls": calls["eigen/scipy.cg"],
            "eigen.cg_iters": cg_iters["eigen"],
            "eigen.weighted_calls": calls["eigen.weighted_principal"],
            "eigen.weighted_s": total["eigen.weighted_principal"],
            "eigen.weighted_iters": int(c["eigen.weighted_iters"]),
            "eigen.factor_calls": calls["eigen/scipy.factorized"],
            "eigen.factor_s": total["eigen/scipy.factorized"],
            "semilinear.monotone_calls": calls["semilinear.monotone_iterate"],
            "semilinear.monotone_steps": int(c["semilinear.monotone_steps"]),
            "semilinear.monotone_s": total["semilinear.monotone_iterate"],
            "semilinear.linear_solves": calls["semilinear.linear_solve"],
            "semilinear.linear_solve_s": total["semilinear.linear_solve"],
            "semilinear.cg_iters": cg_iters["semilinear"],
            "semilinear.direct_solves": calls["semilinear/scipy.spsolve"],
            "semilinear.unconverged": int(c["semilinear.unconverged"]),
            "ccmetric.graph_calls": calls["ccmetric.cc_distance_graph"],
            "ccmetric.graph_s": total["ccmetric.cc_distance_graph"],
            "ccmetric.grid_nodes": int(c["ccmetric.grid_nodes"]),
            "ccmetric.ball_calls": calls["ccmetric.metric_ball"],
            "ccmetric.ball_s": total["ccmetric.metric_ball"],
            "ccmetric.ball_nodes": int(c["ccmetric.ball_nodes"]),
            "ccmetric.refine_calls": calls["ccmetric.cc_distance_refine"],
            "ccmetric.refine_s": total["ccmetric.cc_distance_refine"],
            "ccmetric.refine_eval_calls": refine_evals,
            "ccmetric.refine_shrink": c["ccmetric.refined_T"] / seed_T if seed_T else 0.0,
            "ccmetric.refine_stalled": int(c["ccmetric.refine_stalled"]),
            "ccmetric.probe_s": total["ccmetric.probe"],
            "verify.suite_calls": calls["verify.suite"],
            "verify.suite_s": total["verify.suite"],
            "verify.self_s": self_s["verify.suite"],
            "verify.cases": int(c["verify.cases"]),
            "verify.cases_failed": int(c["verify.cases_failed"]),
            "verify.min_margin": self.min_margin if calls["verify.suite"] else 0.0,
            "cli.commands": calls["cli.main"],
            "cli.command_s": total["cli.main"],
            "cli.self_s": self_s["cli.main"],
            "cli.report_bytes": report_bytes,
            "cli.artifact_bytes": artifact_bytes,
        }

    def write_spans(self, path):
        with open(path, "w") as out:
            out.write("id,name,start,end,parent,command\n")
            for i, (name, start, end, parent, command) in enumerate(self.spans):
                out.write(f"{i},{name},{start!r},{end!r},{parent},{command}\n")
