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


def test_prop_4_2_fails_a_case_whose_solves_do_not_converge(monkeypatch):
    # both runs of each supercritical case stop after one step
    import sublap.semilinear as sm

    real = sm.monotone_iterate
    monkeypatch.setattr(sm, "monotone_iterate",
                        lambda *args, **kwargs: real(*args, **{**kwargs, "max_iter": 1}))
    g = build_grid([(0, 1), (0, 1)], 1.0 / 8)
    rep = verify_prop_4_2(euclidean(2), g, "1 + 0*x", "1 + 0*x", 2.0, [0.5, 2.0])
    assert rep.total == 2 and rep.cases[0].passed and not rep.passed
    assert rep.cases[1].margin == -1.0
    assert rep.cases[1].note.endswith(", status=no-convergence/no-convergence")


def test_thm_1_4_fails_a_case_whose_solve_does_not_converge(monkeypatch):
    import sublap.semilinear as sm

    real = sm.monotone_iterate
    monkeypatch.setattr(sm, "monotone_iterate",
                        lambda *args, **kwargs: real(*args, **{**kwargs, "max_iter": 1}))
    rep = verify_thm_1_4(
        heisenberg(), [(-2, 2)] * 3, 0.5, "exp(-(x**2 + y**2 + t**2))", [0.05], [0.4], 3.0,
    )
    assert rep.total == 1 and not rep.passed and rep.cases[0].margin == -1.0


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


def test_thm_1_4_notes_a_skipped_stability_rerun():
    # theta too large for the barriers: no case passes, so nothing is rerun
    rep = verify_thm_1_4(
        heisenberg(), [(-2, 2)] * 3, 1.0, "exp(-(x**2 + y**2 + t**2))",
        [5.0], [0.4], 3.0, stability_box=[(-4, 4)] * 3,
    )
    assert rep.total == 1 and not rep.passed
    assert rep.notes == ["stability rerun on stability_box skipped: no case passed"]


@pytest.mark.parametrize("status", ["no-convergence", "bracket-construction-failed"])
def test_thm_1_4_fails_an_unconverged_stability_rerun_without_a_truncation_note(monkeypatch,
                                                                              status):
    # a rerun that did not converge has no truncation figure to report
    import sublap.semilinear as sm

    real = sm.yamabe_solve
    rerun = []

    def solve(K, *args, **kwargs):
        res = real(K, *args, **kwargs)
        if K.grid.n_interior > 343:  # the stability box, not the (-2, 2)^3 cases
            rerun.append(res)
            res.status = status
        return res

    monkeypatch.setattr(sm, "yamabe_solve", solve)
    rep = verify_thm_1_4(
        heisenberg(), [(-2, 2)] * 3, 0.5, "exp(-(x**2 + y**2 + t**2))",
        [0.05], [0.4], 3.0, stability_box=[(-4, 4)] * 3,
    )
    assert len(rerun) == 1 and rep.total == 2 and not rep.passed
    assert rep.cases[0].passed and not rep.cases[1].passed
    assert not any("truncation" in note for note in rep.notes)
    assert rep.notes == [f"stability rerun on stability_box ended with status {status!r}"]
    assert rep.cases[1].config["box"] == [[-4.0, 4.0]] * 3


def test_thm_1_2_notes_a_short_count_and_reraises_other_mask_errors(monkeypatch):
    # no random subbox of (-1, 1)^3 at h = 0.5 has 4 interior nodes
    import sublap.verify as verify_mod

    g = build_grid([(-1, 1)] * 3, 0.5)
    rep = verify_thm_1_2(heisenberg(), g, "1 + 0*x", n_subdomains=5, seed=0)
    assert rep.total == 0 and not rep.passed
    assert rep.notes[-1] == "made 0 of 5 subdomains in 100 attempts"

    def broken(grid, predicate):
        raise ValueError("predicate gave the wrong shape")

    monkeypatch.setattr(verify_mod, "mask_domain", broken)
    with pytest.raises(ValueError, match="wrong shape"):
        verify_thm_1_2(heisenberg(), g, "1 + 0*x", n_subdomains=5, seed=0)


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


@pytest.mark.parametrize("suite", ["prop4_2", "thm1_3", "thm1_4"])
def test_suite_with_an_empty_case_list_reports_no_case_and_fails(suite):
    # the CLI rejects these empty lists; called directly, a suite runs no case
    g = build_grid([(0, 1), (0, 1)], 0.25)
    run = {
        "prop4_2": lambda: verify_prop_4_2(euclidean(2), g, "1 + 0*x", "1 + 0*x", 2.0, []),
        "thm1_3": lambda: verify_thm_1_3(euclidean(2), "1 + 0*x", "1 + 0*x", [],
                                         [[(-1, 1)] * 2], 0.25),
        "thm1_4": lambda: verify_thm_1_4(heisenberg(), [(-2, 2)] * 3, 1.0,
                                         "exp(-(x**2 + y**2 + t**2))", [], [0.4], 3.0),
    }[suite]
    ver = run().to_json_dict()
    assert ver["summary"] == "0/0" and ver["passed"] is False
