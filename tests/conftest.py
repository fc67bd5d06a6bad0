"""Hypothesis runs the same examples on every run and has no per-example deadline.

Derandomized examples keep the suite repeatable run to run; timing noise on
small shared hosts would otherwise trip the default 200 ms deadline.
"""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import settings

from sublap.mesh import GridField

settings.register_profile("sublap", derandomize=True, deadline=None, database=None)
settings.load_profile("sublap")


def _node_by_node_csv(field, buf):
    """Reference: the node-by-node CSV writer."""
    g = field.grid
    idx_names = ",".join(f"i{k}" for k in range(g.n))
    coord_names = ",".join(f"x{k}" for k in range(g.n))
    buf.write(f"{idx_names},{coord_names},value\n")
    multi = np.unravel_index(np.arange(g.num_nodes), g.dims)
    pts = g.points
    for node in range(g.num_nodes):
        idx = ",".join(str(int(multi[k][node])) for k in range(g.n))
        coords = ",".join(repr(float(pts[node, k])) for k in range(g.n))
        buf.write(f"{idx},{coords},{float(field.values[node])!r}\n")


def _damped_newton_logistic(K, a, b, mu, p, u0, tol=1e-12):
    """Independent oracle: damped Newton on K u - M F(u) = 0, at most 100 steps."""
    g = K.grid
    w = g.h ** g.n
    av = a.values[g.interior_ids]
    bv = b.values[g.interior_ids]
    u = u0.values[g.interior_ids].copy()

    def res(u):
        return K.mat @ u - w * (mu * u * (av - bv * np.abs(u) ** (p - 1.0)))

    r = res(u)
    for _ in range(100):
        if np.linalg.norm(r) <= tol * max(np.linalg.norm(u), 1.0):
            break
        dF = mu * (av - p * bv * np.abs(u) ** (p - 1.0))
        J = K.mat - sp.diags(w * dF)
        step = spla.spsolve(J.tocsc(), r)
        alpha = 1.0
        for _ in range(30):
            cand = u - alpha * step
            rc = res(cand)
            if np.linalg.norm(rc) < np.linalg.norm(r):
                u, r = cand, rc
                break
            alpha *= 0.5
        else:
            break
    return GridField.from_interior(g, u)


@pytest.fixture
def damped_newton_logistic():
    """The damped Newton solver of the logistic problem that monotone runs are checked against."""
    return _damped_newton_logistic


@pytest.fixture
def node_by_node_csv():
    """The reference CSV writer that `mesh.field_to_csv` must match byte for byte."""
    return _node_by_node_csv
