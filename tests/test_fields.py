import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sublap.fields import (
    Polynomial,
    VectorFieldFamily,
    euclidean,
    family_from_dict,
    family_to_dict,
    grushin,
    heisenberg,
    hormander_rank,
    lie_bracket,
    load_family,
    resolve_family,
    save_family,
)


def test_euclidean_coefficients_identity():
    fam = euclidean(2)
    A = fam.eval_coefficients([0.3, -1.2])
    assert np.array_equal(A, np.eye(2))


def test_heisenberg_coefficients_at_point():
    A = heisenberg().eval_coefficients([1.0, 2.0, 0.0])
    assert np.array_equal(A, np.array([[1.0, 0.0, -1.0], [0.0, 1.0, 0.5]]))


def test_grushin_degenerate_on_axis():
    A = grushin().eval_coefficients([0.0, 5.0])
    assert np.array_equal(A, np.array([[1.0, 0.0], [0.0, 0.0]]))


def test_bracket_constant_fields_commute():
    fam = euclidean(2)
    br = lie_bracket(fam.coeffs[0], fam.coeffs[1])
    assert all(p.is_zero for p in br)


def test_bracket_heisenberg_is_dt():
    heis = heisenberg()
    br = lie_bracket(heis.coeffs[0], heis.coeffs[1])
    assert br[0].is_zero and br[1].is_zero
    assert br[2].terms == ((1.0, (0, 0, 0)),)


def test_bracket_grushin_is_dy():
    gr = grushin()
    br = lie_bracket(gr.coeffs[0], gr.coeffs[1])
    assert br[0].is_zero
    assert br[1].terms == ((1.0, (0, 0)),)


def _random_poly_field(rng, n, degree=2):
    out = []
    for _ in range(n):
        terms = []
        for _ in range(rng.integers(1, 4)):
            exps = tuple(int(e) for e in rng.integers(0, degree + 1, size=n))
            terms.append((float(rng.standard_normal()), exps))
        out.append(Polynomial(n, tuple(terms)))
    return tuple(out)


def test_bracket_antisymmetry_exact():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(2, 4))
        f1 = _random_poly_field(rng, n)
        f2 = _random_poly_field(rng, n)
        fwd = lie_bracket(f1, f2)
        bwd = lie_bracket(f2, f1)
        for p, q in zip(fwd, bwd):
            s = p + q
            assert s.is_zero, f"[f1,f2]+[f2,f1] has terms {s.terms}"


def _poly_fields(n, count, coeffs):
    """`count` polynomial vector fields on R^n, degree <= 2 per exponent."""
    term = st.tuples(coeffs, st.tuples(*[st.integers(0, 2)] * n))
    poly = st.lists(term, max_size=3).map(lambda t: Polynomial(n, tuple(t)))
    return st.tuples(*[st.tuples(*[poly] * n)] * count)


@settings(max_examples=60)
@given(st.integers(1, 3).flatmap(
    lambda n: _poly_fields(n, 2, st.floats(-1e3, 1e3, allow_subnormal=False))))
def test_bracket_antisymmetric_property(fields):
    f1, f2 = fields
    for p, q in zip(lie_bracket(f1, f2), lie_bracket(f2, f1)):
        assert (p + q).is_zero


@settings(max_examples=60)
@given(st.integers(1, 3).flatmap(lambda n: _poly_fields(n, 3, st.integers(-3, 3))))
def test_bracket_jacobi_identity_property(fields):
    # small integer coefficients keep every product and sum exact
    x, y, z = fields
    cyc = [lie_bracket(a, lie_bracket(b, c)) for a, b, c in ((x, y, z), (y, z, x), (z, x, y))]
    for p, q, r in zip(*cyc):
        assert (p + q + r).is_zero


def test_hormander_rank_euclidean():
    assert hormander_rank(euclidean(3), [0.2, 0.1, -0.4], 1) == (3, 1)


def test_hormander_rank_heisenberg_needs_brackets():
    assert hormander_rank(heisenberg(), [0.0, 0.0, 0.0], 2) == (3, 2)
    assert hormander_rank(heisenberg(), [0.0, 0.0, 0.0], 1) == (2, "exceeded")


def test_hormander_rank_grushin():
    assert hormander_rank(grushin(), [0.0, 0.0], 2) == (2, 2)
    assert hormander_rank(grushin(), [1.0, 0.0], 2) == (2, 1)


def test_hormander_rank_random_points_full():
    rng = np.random.default_rng(3)
    for fam in (euclidean(2), heisenberg(), grushin()):
        pts = rng.uniform(-3, 3, size=(100, fam.n))
        for x in pts:
            rank, step = hormander_rank(fam, x, 2)
            assert rank == fam.n
            assert step in (1, 2)


def test_polynomial_eval_matches_naive_monomial_sum():
    rng = np.random.default_rng(5)
    for _ in range(50):
        n = int(rng.integers(1, 4))
        terms = tuple(
            (float(rng.standard_normal()), tuple(int(e) for e in rng.integers(0, 4, size=n)))
            for _ in range(5)
        )
        poly = Polynomial(n, terms)
        x = rng.uniform(-1.5, 1.5, size=n)
        naive = sum(c * np.prod([x[k] ** e for k, e in enumerate(exps)])
                    for c, exps in poly.terms)
        val = poly.evaluate(x)
        assert abs(val - naive) <= 1e-12 * max(1.0, abs(naive))


def test_polynomial_terms_unique_and_pruned():
    p = Polynomial(2, ((1.0, (1, 0)), (2.0, (1, 0)), (0.0, (0, 1))))
    assert p.terms == ((3.0, (1, 0)),)


def test_polynomial_dimension_mismatch():
    with pytest.raises(ValueError):
        Polynomial(2, ((1.0, (1, 0, 0)),))
    with pytest.raises(ValueError):
        euclidean(2).eval_coefficients([1.0, 2.0, 3.0])


def test_family_file_round_trip(tmp_path):
    heis = heisenberg()
    path = tmp_path / "heis.json"
    save_family(heis, path)
    back = load_family(path)
    assert back.n == 3 and back.m == 2
    x = np.array([0.4, -0.8, 0.1])
    assert np.array_equal(back.eval_coefficients(x), heis.eval_coefficients(x))


def test_resolve_family_builtins_and_file(tmp_path):
    assert resolve_family("euclidean(4)").n == 4
    assert resolve_family("heisenberg").name == "heisenberg"
    assert resolve_family("grushin").m == 2
    path = tmp_path / "fam.json"
    save_family(grushin(), path)
    assert resolve_family(str(path)).name == "grushin"
    with pytest.raises(ValueError):
        resolve_family("noSuchFamily")


def test_family_dict_round_trip():
    fam = heisenberg()
    back = family_from_dict(json.loads(json.dumps(family_to_dict(fam))))
    pt = np.array([1.0, 2.0, 3.0])
    assert np.array_equal(back.eval_coefficients(pt), fam.eval_coefficients(pt))


def test_family_dict_missing_key_is_a_value_error():
    data = family_to_dict(heisenberg())
    del data["coeffs"]
    with pytest.raises(ValueError, match=r"family definition lacks key\(s\) \['coeffs'\]"):
        family_from_dict(data)
    with pytest.raises(ValueError, match=r"lacks key\(s\) \['m', 'coeffs'\]"):
        family_from_dict({"n": 2})
