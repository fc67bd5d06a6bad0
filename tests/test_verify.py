import json

import numpy as np
import pytest

from sublap.fields import euclidean, heisenberg
from sublap.mesh import build_grid
from sublap.verify import (
    verify_prop_4_2,
    verify_thm_1_2,
    verify_thm_1_3,
    verify_thm_1_4,
)


def test_thm_1_2_euclid_exponential():
    g = build_grid([(0, 1), (0, 1)], 1.0 / 32)
    rep = verify_thm_1_2(euclidean(2), g, "exp(x + y)", n_subdomains=6, seed=1)
    assert rep.total == 6
    assert rep.passed
    for c in rep.cases:
        assert c.margin > 0
        assert c.passed


def test_thm_1_2_constant_u_recovers_dirichlet():
    # u == 1 gives V ~ 0, so every subdomain eigenvalue is the plain
    # Dirichlet one, strictly positive
    g = build_grid([(0, 1), (0, 1)], 1.0 / 16)
    rep = verify_thm_1_2(euclidean(2), g, "1 + 0*x", n_subdomains=4, seed=0)
    assert rep.passed
    for c in rep.cases:
        lam = float(c.note.split("lambda1=")[1].split(",")[0])
        assert lam > 0


def test_thm_1_2_rejects_nonpositive_u():
    g = build_grid([(0, 1), (0, 1)], 0.125)
    with pytest.raises(ValueError, match="positive"):
        verify_thm_1_2(euclidean(2), g, "x - 0.5", n_subdomains=2, seed=0)


def test_thm_1_2_deterministic_bitwise():
    g = build_grid([(0, 1), (0, 1)], 1.0 / 16)
    rep1 = verify_thm_1_2(euclidean(2), g, "exp(x + y)", n_subdomains=4, seed=7)
    rep2 = verify_thm_1_2(euclidean(2), g, "exp(x + y)", n_subdomains=4, seed=7)
    j1 = json.dumps(rep1.to_json_dict(), sort_keys=True)
    j2 = json.dumps(rep2.to_json_dict(), sort_keys=True)
    assert j1 == j2


def test_thm_1_2_digest_rerun_reproduces_margin():
    g = build_grid([(0, 1), (0, 1)], 1.0 / 16)
    rep1 = verify_thm_1_2(euclidean(2), g, "exp(x + y)", n_subdomains=4, seed=3)
    rep2 = verify_thm_1_2(euclidean(2), g, "exp(x + y)", n_subdomains=4, seed=3)
    margins1 = {c.digest: c.margin for c in rep1.cases}
    for c in rep2.cases:
        assert abs(margins1[c.digest] - c.margin) <= 1e-12 * max(1.0, abs(c.margin))


def test_thm_1_3_equal_weights_at_mu():
    boxes = [[(-2.5, 2.5)] * 2, [(-3, 3)] * 2, [(-3.5, 3.5)] * 2, [(-4, 4)] * 2]
    rep = verify_thm_1_3(euclidean(2), "1 + 0*x", "1 + 0*x", [0.5, 1.0], boxes, 0.125)
    assert rep.passed
    assert rep.total == 2


def test_thm_1_3_sign_changing_below_g_plus():
    boxes = [[(-1, 1)] * 2, [(-2, 2)] * 2, [(-3, 3)] * 2, [(-4, 4)] * 2]
    rep = verify_thm_1_3(
        euclidean(2), "1 - 2*exp(-((x - 1.5)**2 + y**2))", "1 + 0*x",
        [0.5, 1.0], boxes, 0.125,
    )
    assert rep.passed


def test_thm_1_3_rejects_bad_domination():
    boxes = [[(-1, 1)] * 2, [(-2, 2)] * 2]
    with pytest.raises(ValueError, match="g <= g_plus"):
        verify_thm_1_3(euclidean(2), "2 + 0*x", "1 + 0*x", [0.5], boxes, 0.25)


def test_thm_1_3_rejects_bad_fractions():
    boxes = [[(-1, 1)] * 2, [(-2, 2)] * 2]
    with pytest.raises(ValueError, match="fractions"):
        verify_thm_1_3(euclidean(2), "1 + 0*x", "1 + 0*x", [0.0], boxes, 0.25)


def test_prop_4_2_sub_and_supercritical():
    g = build_grid([(0, 1), (0, 1)], 1.0 / 16)
    rep = verify_prop_4_2(euclidean(2), g, "1 + 0*x", "1 + 0*x", 2.0, [0.5, 1.01, 2.0])
    assert rep.passed
    assert rep.total == 3
    sub = rep.cases[0]
    assert "subcritical" in sub.note
    near = rep.cases[1]
    max_u_near = float(near.note.split("max_u=")[1].split(",")[0])
    far = rep.cases[2]
    max_u_far = float(far.note.split("max_u=")[1].split(",")[0])
    assert 0 < max_u_near < max_u_far  # near-threshold solution is small
    for case in rep.cases[1:]:  # both brackets converge to one solution
        rel = float(case.note.split("two_bracket_rel=")[1].split(",")[0])
        assert rel <= 1e-6
        assert case.margin <= 1e-6 - rel
        assert "status=" not in case.note


def test_thm_1_4_heisenberg_small_box():
    rep = verify_thm_1_4(
        heisenberg(), [(-2, 2)] * 3, 0.5, "exp(-(x**2 + y**2 + t**2))",
        [0.0, 0.05], [0.35, 0.45], 3.0,
    )
    assert rep.total == 4
    assert rep.passed


def test_thm_1_4_truncation_stability_note():
    rep = verify_thm_1_4(
        heisenberg(), [(-2, 2)] * 3, 0.5, "exp(-(x**2 + y**2 + t**2))",
        [0.05], [0.4], 3.0, stability_box=[(-4, 4)] * 3,
    )
    assert rep.passed
    note = next(n for n in rep.notes if "truncation" in n)
    change = float(note.split(":")[1])
    assert change < 0.05


def test_thm_1_2_strict_shift_check_is_two_sided(monkeypatch):
    # V - 0.5 shifts lambda_1 by exactly 0.5; a bumped solve that moves further fails too
    import sublap.verify as verify_mod

    g = build_grid([(0, 1), (0, 1)], 1.0 / 16)
    principal = verify_mod.principal_eigenpair
    calls = []

    def overshoot(*args, **kwargs):
        res = principal(*args, **kwargs)
        calls.append(res)
        if len(calls) % 2 == 0:
            res.lam += 1e-3
        return res

    honest = verify_thm_1_2(euclidean(2), g, "exp(x + y)", n_subdomains=3, seed=1)
    monkeypatch.setattr(verify_mod, "principal_eigenpair", overshoot)
    rep = verify_thm_1_2(euclidean(2), g, "exp(x + y)", n_subdomains=3, seed=1)
    assert honest.passed_count == honest.total == 3
    assert rep.passed_count == 0 and all(c.margin == -1.0 for c in rep.cases)
