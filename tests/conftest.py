"""Hypothesis runs the same examples on every run and has no per-example deadline.

Derandomized examples keep the suite repeatable run to run; timing noise on
small shared hosts would otherwise trip the default 200 ms deadline.
"""

import numpy as np
import pytest
from hypothesis import settings

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


@pytest.fixture
def node_by_node_csv():
    """The reference CSV writer that `mesh.field_to_csv` must match byte for byte."""
    return _node_by_node_csv
