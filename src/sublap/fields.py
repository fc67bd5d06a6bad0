"""Vector field families with multivariate-polynomial coefficients.

A family is a list of m first-order fields on R^n; field j acts on scalar
functions as sum_k A[j][k](x) * d/dx_k with polynomial entries A[j][k].
Polynomial coefficients keep Lie brackets exact, so the bracket-generating
(rank) check is symbolic-then-numeric rather than finite-difference based.
Flows need only the velocity sum_j u_j X_j(x): `velocity_batch` evaluates it
from a per-family plan of the nonzero coefficients, bit for bit as the
contraction of the full coefficient tensor would.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np
import scipy.linalg

# Rank tolerance, relative to the largest column norm of the evaluated
# span matrix.  Separates exact degeneracy (e.g. Grushin on {x=0}) from
# round-off.
TAU_RANK = 1e-8


def _normalize_terms(n, terms):
    acc = {}
    for coeff, exps in terms:
        e = tuple(int(v) for v in exps)
        if len(e) != n:
            raise ValueError(f"exponent tuple {e} has length {len(e)}, expected {n}")
        if any(v < 0 for v in e):
            raise ValueError(f"negative exponent in {e}")
        acc.setdefault(e, []).append(float(coeff))
    # fsum gives the correctly-rounded sum independent of accumulation
    # order, so algebraic identities (e.g. bracket antisymmetry) hold
    # exactly coefficient-wise
    out = []
    for e, coeffs in sorted(acc.items()):
        c = math.fsum(coeffs)
        if c != 0.0:
            out.append((c, e))
    return tuple(out)


@dataclass(frozen=True)
class Polynomial:
    """Multivariate polynomial: sum of (coefficient, exponent-tuple) terms.

    Terms are unique per exponent tuple and zero coefficients are pruned,
    so polynomials compare equal iff they have identical term lists.
    """

    n: int
    terms: tuple

    def __post_init__(self):
        object.__setattr__(self, "terms", _normalize_terms(self.n, self.terms))

    @staticmethod
    def constant(n, value):
        return Polynomial(n, ((value, (0,) * n),))

    @staticmethod
    def variable(n, k):
        exps = [0] * n
        exps[k] = 1
        return Polynomial(n, ((1.0, tuple(exps)),))

    @property
    def is_zero(self):
        return not self.terms

    def evaluate(self, points):
        """Evaluate at a single point (n,) or a batch (N, n)."""
        pts = np.asarray(points, dtype=float)
        single = pts.ndim == 1
        if single:
            pts = pts[None, :]
        if pts.shape[1] != self.n:
            raise ValueError(f"point dimension {pts.shape[1]} != polynomial dimension {self.n}")
        out = np.zeros(pts.shape[0])
        for coeff, exps in self.terms:
            term = np.full(pts.shape[0], coeff)
            for k, e in enumerate(exps):
                if e:
                    term *= pts[:, k] ** e
            out += term
        return float(out[0]) if single else out

    def partial(self, k):
        """Exact partial derivative with respect to x_k."""
        terms = []
        for coeff, exps in self.terms:
            if exps[k] == 0:
                continue
            e = list(exps)
            e[k] -= 1
            terms.append((coeff * exps[k], tuple(e)))
        return Polynomial(self.n, tuple(terms))

    def __add__(self, other):
        if isinstance(other, (int, float)):
            other = Polynomial.constant(self.n, float(other))
        if other.n != self.n:
            raise ValueError("dimension mismatch")
        return Polynomial(self.n, self.terms + other.terms)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return Polynomial(self.n, tuple((c * float(other), e) for c, e in self.terms))
        if other.n != self.n:
            raise ValueError("dimension mismatch")
        terms = []
        for c1, e1 in self.terms:
            for c2, e2 in other.terms:
                terms.append((c1 * c2, tuple(a + b for a, b in zip(e1, e2))))
        return Polynomial(self.n, tuple(terms))

    __rmul__ = __mul__

    def to_term_list(self):
        return [[c, list(e)] for c, e in self.terms]


@dataclass(frozen=True)
class VectorFieldFamily:
    """m polynomial vector fields on R^n; row j of `coeffs` is field j."""

    n: int
    m: int
    coeffs: tuple  # m-tuple of n-tuples of Polynomial
    name: str = ""

    def __post_init__(self):
        if len(self.coeffs) != self.m:
            raise ValueError("coefficient matrix must have m rows")
        for row in self.coeffs:
            if len(row) != self.n:
                raise ValueError("coefficient matrix must have n columns")
            for p in row:
                if p.n != self.n:
                    raise ValueError("coefficient polynomial dimension mismatch")
        object.__setattr__(self, "coeffs", tuple(tuple(row) for row in self.coeffs))

    def eval_coefficients(self, x):
        """Coefficient matrix A(x), shape (m, n), at a single point."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            raise ValueError(f"point shape {x.shape} != ({self.n},)")
        if not np.all(np.isfinite(x)):
            raise ValueError("point must be finite")
        return np.array([[p.evaluate(x) for p in row] for row in self.coeffs])

    def eval_coefficients_batch(self, points):
        """Coefficient matrices at a batch of points, shape (N, m, n)."""
        pts = np.asarray(points, dtype=float)
        out = np.empty((pts.shape[0], self.m, self.n))
        for j, row in enumerate(self.coeffs):
            for k, p in enumerate(row):
                out[:, j, k] = p.evaluate(pts)
        return out

    @cached_property
    def _velocity_plan(self):
        """(j, k, terms) of every nonzero coefficient, j-major; each term is
        (coefficient, ((axis, exponent), ...)) over its nonzero exponents."""
        return tuple((j, k, tuple((c, tuple((a, e) for a, e in enumerate(exps) if e))
                                  for c, exps in p.terms))
                     for j, row in enumerate(self.coeffs) for k, p in enumerate(row)
                     if not p.is_zero)

    def velocity_batch(self, points, controls):
        """sum_j u_j X_j(x) at a batch of points, shape (N, n); controls (N, m).

        Each nonzero coefficient is evaluated term by term, as
        `Polynomial.evaluate` does, times u_j, and the products are summed
        over j in order from 0.  For finite controls this is bit-identical to
        einsum("bm,bmn->bn", controls, eval_coefficients_batch(points)),
        without building the (N, m, n) tensor.
        """
        x = np.asarray(points, dtype=float).T
        u = np.asarray(controls, dtype=float).T
        out = np.zeros((self.n, x.shape[1]))
        for j, k, terms in self._velocity_plan:
            if terms == ((1.0, ()),):  # u_j * 1.0 is u_j
                out[k] += u[j]
                continue
            val = None
            for c, powers in terms:
                term = c
                for a, e in powers:
                    term = term * (x[a] if e == 1 else x[a] ** e)  # x ** 1 is x
                val = term if val is None else val + term
            out[k] += u[j] * val
        return out.T


def lie_bracket(f1, f2):
    """Exact symbolic Lie bracket of two polynomial vector fields.

    [f1, f2]^k = sum_i f1^i d_i f2^k - f2^i d_i f1^k.  All product terms
    are gathered before a single exact-sum normalization, so the bracket
    is antisymmetric exactly, coefficient-wise.
    """
    f1 = tuple(f1)
    f2 = tuple(f2)
    n = f1[0].n
    if len(f1) != n or len(f2) != n or any(p.n != n for p in f1 + f2):
        raise ValueError("bracket requires two n-component fields on R^n")
    out = []
    for k in range(n):
        raw = []
        for i in range(n):
            if not f1[i].is_zero:
                raw.extend((f1[i] * f2[k].partial(i)).terms)
            if not f2[i].is_zero:
                raw.extend((-c, e) for c, e in (f2[i] * f1[k].partial(i)).terms)
        out.append(Polynomial(n, tuple(raw)))
    return tuple(out)


def _matrix_rank(columns, tol):
    """Rank by column-pivoted QR with threshold relative to the largest column norm."""
    M = np.column_stack(columns)
    norms = np.linalg.norm(M, axis=0)
    top = norms.max()
    if top == 0.0:
        return 0
    R = scipy.linalg.qr(M, mode="r", pivoting=True)[0]
    diag = np.abs(np.diag(R))
    return int(np.sum(diag > tol * top))


def hormander_rank(family, x, max_step, tol=TAU_RANK):
    """Span dimension of the fields and their iterated brackets at x.

    Returns (rank, step) where step is the smallest bracket length
    achieving rank n, or the string "exceeded" if max_step brackets do
    not suffice.  Left-normed brackets [X_i, [X_j, ...]] are enough to
    span the generated Lie algebra, so only those are formed.
    """
    if max_step < 1:
        raise ValueError("max_step must be >= 1")
    x = np.asarray(x, dtype=float)
    level = [row for row in family.coeffs]
    collected = list(level)
    step_found = None
    rank = 0
    for step in range(1, max_step + 1):
        if step > 1:
            new = []
            for base in family.coeffs:
                for v in level:
                    b = lie_bracket(base, v)
                    if any(not p.is_zero for p in b):
                        new.append(b)
            level = new
            collected.extend(new)
        cols = [np.array([p.evaluate(x) for p in vec]) for vec in collected]
        rank = _matrix_rank(cols, tol) if cols else 0
        if rank == family.n:
            step_found = step
            break
    return rank, (step_found if step_found is not None else "exceeded")


# ---------------------------------------------------------------------------
# built-in families


def euclidean(n):
    """X_j = d/dx_j: the standard frame, H reduces to the Laplacian."""
    rows = []
    for j in range(n):
        rows.append(tuple(Polynomial.constant(n, 1.0 if k == j else 0.0) for k in range(n)))
    return VectorFieldFamily(n=n, m=n, coeffs=tuple(rows), name=f"euclidean({n})")


def heisenberg():
    """First Heisenberg group frame: X1 = dx - (y/2) dt, X2 = dy + (x/2) dt."""
    n = 3
    zero = Polynomial.constant(n, 0.0)
    one = Polynomial.constant(n, 1.0)
    x = Polynomial.variable(n, 0)
    y = Polynomial.variable(n, 1)
    rows = (
        (one, zero, -0.5 * y),
        (zero, one, 0.5 * x),
    )
    return VectorFieldFamily(n=n, m=2, coeffs=rows, name="heisenberg")


def grushin():
    """Grushin plane frame: X1 = dx, X2 = x dy; degenerate on {x = 0}."""
    n = 2
    zero = Polynomial.constant(n, 0.0)
    one = Polynomial.constant(n, 1.0)
    x = Polynomial.variable(n, 0)
    rows = (
        (one, zero),
        (zero, x),
    )
    return VectorFieldFamily(n=n, m=2, coeffs=rows, name="grushin")


# ---------------------------------------------------------------------------
# family definition files (JSON: n, m, name, coeffs as term lists)


def family_to_dict(family):
    return {
        "n": family.n,
        "m": family.m,
        "name": family.name,
        "coeffs": [[p.to_term_list() for p in row] for row in family.coeffs],
    }


def family_from_dict(data):
    missing = [key for key in ("n", "m", "coeffs") if key not in data]
    if missing:
        raise ValueError(f"family definition lacks key(s) {missing}")
    n = int(data["n"])
    m = int(data["m"])
    rows = []
    for row in data["coeffs"]:
        if len(row) != n:
            raise ValueError("coefficient row length mismatch")
        rows.append(tuple(Polynomial(n, tuple((c, tuple(e)) for c, e in entry)) for entry in row))
    if len(rows) != m:
        raise ValueError("coefficient row count mismatch")
    return VectorFieldFamily(n=n, m=m, coeffs=tuple(rows), name=str(data.get("name", "")))


def save_family(family, path):
    Path(path).write_text(json.dumps(family_to_dict(family), indent=2, sort_keys=True) + "\n")


def load_family(path):
    return family_from_dict(json.loads(Path(path).read_text()))


_EUCLID_RE = re.compile(r"^euclidean\((\d+)\)$")


def resolve_family(spec):
    """Resolve a family from a string: a built-in name or a definition file path.

    Accepted names: "euclidean(n)", "heisenberg", "grushin".  Any other
    string is read as the path of a file that `save_family` wrote.
    """
    name = spec.strip()
    m = _EUCLID_RE.match(name)
    if m:
        return euclidean(int(m.group(1)))
    if name == "heisenberg":
        return heisenberg()
    if name == "grushin":
        return grushin()
    p = Path(name)
    if p.exists():
        return load_family(p)
    raise ValueError(f"unknown family {spec!r} (not a built-in name or a readable file)")
