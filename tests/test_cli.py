import io
import json

import numpy as np
import pytest

from sublap.cli import ConfigError, emit_plot, main, validate_config
from sublap.mesh import GridField, build_grid, field_from_csv


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def test_validate_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown config keys"):
        validate_config("eigen", {"family": "euclidean(2)",
                                  "grid": {"box": [[0, 1], [0, 1]], "h": 0.25},
                                  "tolerance": 1e-8})


def test_validate_rejects_missing_keys():
    with pytest.raises(ConfigError, match="missing config keys"):
        validate_config("eigen", {"family": "euclidean(2)"})


def test_validate_fills_defaults():
    params = validate_config("eigen", {"family": "euclidean(2)",
                                       "grid": {"box": [[0, 1], [0, 1]], "h": 0.25}})
    assert params["potential"] == "0"
    assert params["tol"] == 1e-8


def test_cli_eigen_end_to_end(tmp_path):
    cfg = write_config(tmp_path, "eigen.json", {
        "family": "euclidean(2)",
        "grid": {"box": [[0, 1], [0, 1]], "h": 1.0 / 32},
    })
    out = tmp_path / "out"
    code = main(["--config", str(cfg), "--out", str(out), "eigen"])
    assert code == 0
    rep = json.loads((out / "report.json").read_text())
    lam = rep["results"]["eigen"]["lambda"]
    assert abs(lam - 2 * np.pi**2) < 0.01 * 2 * np.pi**2
    assert (out / "eigenfield.csv").exists()
    assert rep["config"]["params"]["tol"] == 1e-8  # defaults echoed


def test_cli_distance(tmp_path):
    cfg = write_config(tmp_path, "dist.json", {
        "family": "euclidean(2)",
        "grid": {"box": [[-0.5, 4.5], [-0.5, 4.5]], "h": 0.1},
        "x": [0, 0],
        "y": [3, 4],
    })
    out = tmp_path / "out"
    code = main(["--config", str(cfg), "--out", str(out), "distance"])
    assert code == 0
    rep = json.loads((out / "report.json").read_text())
    assert abs(rep["results"]["distance"]["refined"] - 5.0) < 0.02 * 5.0
    assert rep["results"]["distance"]["notes"] == []
    assert (out / "path.csv").exists()


def test_cli_distance_reports_refinement_stall(tmp_path):
    # one constant control cannot reach a vertical target
    cfg = write_config(tmp_path, "dist.json", {
        "family": "heisenberg",
        "grid": {"box": [[-0.2, 0.2], [-0.2, 0.2], [-0.06, 0.06]], "h": 0.01},
        "x": [0, 0, 0],
        "y": [0, 0, 0.04],
        "directions": 16,
        "segments": 1,
    })
    out = tmp_path / "out"
    code = main(["--config", str(cfg), "--out", str(out), "distance"])
    assert code == 0
    dist = json.loads((out / "report.json").read_text())["results"]["distance"]
    assert dist["stalled"] is True
    assert dist["refined"] == dist["graph_upper_bound"]
    (note,) = dist["notes"]
    assert note.startswith("refinement stalled after")


def test_cli_config_error_exit_2(tmp_path):
    cfg = write_config(tmp_path, "bad.json", {
        "family": "euclidean(2)",
        "grid": {"box": [[0, 1], [0, 1]], "h": 0.25},
        "tolll": 1,
    })
    assert main(["--config", str(cfg), "--out", str(tmp_path / "o"), "eigen"]) == 2


def test_cli_eigen_rejects_weight_with_potential(tmp_path, capsys):
    # the weighted pencil has no potential term: both keys would drop one
    cfg = write_config(tmp_path, "eigen.json", {
        "family": "euclidean(2)",
        "grid": {"box": [[0, 1], [0, 1]], "h": 0.25},
        "weight": "1 + 0*x",
        "potential": "2 + 0*x",
    })
    assert main(["--config", str(cfg), "--out", str(tmp_path / "o"), "eigen"]) == 2
    assert "['potential', 'weight'] exclude each other" in capsys.readouterr().err


def test_cli_solve_logistic_rejects_mu_with_mu_factor(tmp_path, capsys):
    cfg = write_config(tmp_path, "l.json", {
        "family": "euclidean(2)",
        "grid": {"box": [[0, 1], [0, 1]], "h": 0.25},
        "a": "1 + 0*x",
        "b": "1 + 0*x",
        "p": 2.0,
        "mu": 30.0,
        "mu_factor": 2.0,
    })
    assert main(["--config", str(cfg), "--out", str(tmp_path / "o"), "solve", "logistic"]) == 2
    assert "['mu', 'mu_factor'] exclude each other" in capsys.readouterr().err


def test_cli_missing_config_exit_2(tmp_path):
    assert main(["--out", str(tmp_path / "o"), "eigen"]) == 2


def test_cli_ball_rejects_non_positive_step_scales(tmp_path, capsys):
    cfg = write_config(tmp_path, "ball.json", {
        "family": "heisenberg",
        "grid": {"box": [[-0.3, 0.3], [-0.3, 0.3], [-0.1, 0.1]], "h": 0.05},
        "center": [0, 0, 0], "radius": 0.1, "directions": 8, "step_scales": [0],
    })
    assert main(["--config", str(cfg), "--out", str(tmp_path / "o"), "ball"]) == 1
    assert "step_scales must be finite and > 0, got [0]" in capsys.readouterr().err


def test_cli_verify_exit_codes(tmp_path):
    cfg = write_config(tmp_path, "v.json", {
        "family": "euclidean(2)",
        "grid": {"box": [[0, 1], [0, 1]], "h": 1.0 / 16},
        "u_expr": "exp(x + y)",
        "n_subdomains": 3,
    })
    out = tmp_path / "out"
    code = main(["--config", str(cfg), "--out", str(out), "--seed", "5", "verify", "thm1_2"])
    assert code == 0
    rep = json.loads((out / "report.json").read_text())
    assert rep["results"]["verification"]["passed"] is True


# one config per suite that makes no case
NO_CASE_CONFIGS = {
    "thm1_2": {"family": "heisenberg", "grid": {"box": [[-1, 1]] * 3, "h": 0.5},
               "u_expr": "1 + 0*x"},
    "prop4_2": {"family": "euclidean(2)", "grid": {"box": [[0, 1], [0, 1]], "h": 0.25},
                "a": "1 + 0*x", "b": "1 + 0*x", "p": 2.0, "mu_factors": []},
    "thm1_4": {"family": "heisenberg", "box": [[-2, 2]] * 3, "h": 1.0,
               "f": "exp(-(x**2 + y**2 + t**2))", "theta_list": [], "eps_list": [0.4],
               "p": 3.0},
    "thm1_3": {"family": "euclidean(2)", "g": "1 + 0*x", "g_plus": "1 + 0*x",
               "lam_fractions": [], "boxes": [[[-1, 1], [-1, 1]]], "h": 0.25},
}


@pytest.mark.parametrize("suite", list(NO_CASE_CONFIGS))
def test_cli_verify_with_no_case_fails(tmp_path, suite):
    out = tmp_path / "out"
    code = main(["--config", str(write_config(tmp_path, "v.json", NO_CASE_CONFIGS[suite])),
                 "--out", str(out), "verify", suite])
    assert code == 1
    ver = json.loads((out / "report.json").read_text())["results"]["verification"]
    assert ver["summary"] == "0/0" and ver["passed"] is False


def test_cli_verify_thm1_3_passes_tol(tmp_path, monkeypatch):
    import sublap.semilinear as sm

    seen = []
    orig = sm.exhaustion_construct

    def recording(*args, **kwargs):
        seen.append(kwargs["tol"])
        return orig(*args, **kwargs)

    monkeypatch.setattr(sm, "exhaustion_construct", recording)
    payload = {
        "family": "euclidean(2)", "g": "1 + 0*x", "g_plus": "1 + 0*x",
        "lam_fractions": [0.5], "boxes": [[[-1, 1], [-1, 1]], [[-2, 2], [-2, 2]]],
        "h": 0.25, "tol": 1e-7,
    }
    out = tmp_path / "out"
    code = main(["--config", str(write_config(tmp_path, "t.json", payload)),
                 "--out", str(out), "verify", "thm1_3"])
    assert code == 0
    assert seen == [1e-7]
    # a bound no direct solve can meet fails every box instead of passing it
    payload["tol"] = 1e-300
    code = main(["--config", str(write_config(tmp_path, "t2.json", payload)),
                 "--out", str(tmp_path / "out2"), "verify", "thm1_3"])
    assert code == 1
    case = json.loads((tmp_path / "out2" / "report.json").read_text())["results"]["verification"]["cases"][0]
    assert "direct solve residual" in case["note"]


def test_cli_byte_determinism(tmp_path):
    cfg = write_config(tmp_path, "v.json", {
        "family": "euclidean(2)",
        "grid": {"box": [[0, 1], [0, 1]], "h": 1.0 / 16},
        "u_expr": "exp(x + y)",
        "n_subdomains": 3,
    })
    outs = []
    for name in ("o1", "o2"):
        out = tmp_path / name
        main(["--config", str(cfg), "--out", str(out), "--seed", "9", "verify", "thm1_2"])
        outs.append((out / "report.json").read_bytes())
    assert outs[0] == outs[1]


def test_cli_ball_indicator_byte_determinism(tmp_path, node_by_node_csv):
    cfg = write_config(tmp_path, "b.json", {
        "family": "heisenberg",
        "grid": {"box": [[-0.33, 0.33], [-0.33, 0.33], [-0.02, 0.02]], "h": 0.02},
        "center": [0, 0, 0], "radius": 0.3, "directions": 8, "step_scales": [1],
    })
    outs = []
    for name in ("o1", "o2"):
        out = tmp_path / name
        assert main(["--config", str(cfg), "--out", str(out), "ball"]) == 0
        outs.append((out / "ball_indicator.csv").read_bytes())
    assert outs[0] == outs[1]
    grid = build_grid([(-0.33, 0.33), (-0.33, 0.33), (-0.02, 0.02)], 0.02)
    indicator = field_from_csv(grid, tmp_path / "o1" / "ball_indicator.csv")
    assert set(np.unique(indicator.values)) == {0.0, 1.0}
    ref = io.StringIO()
    node_by_node_csv(indicator, ref)
    assert outs[0] == ref.getvalue().encode()


def test_cli_fields_info(tmp_path):
    cfg = write_config(tmp_path, "f.json", {"family": "heisenberg"})
    out = tmp_path / "out"
    code = main(["--config", str(cfg), "--out", str(out), "fields", "info"])
    assert code == 0
    rep = json.loads((out / "report.json").read_text())
    info = rep["results"]
    assert info["n"] == 3 and info["m"] == 2
    assert all(r["rank"] == 3 for r in info["sampled_ranks"])


def test_cli_solve_logistic(tmp_path):
    cfg = write_config(tmp_path, "l.json", {
        "family": "euclidean(2)",
        "grid": {"box": [[0, 1], [0, 1]], "h": 1.0 / 16},
        "a": "1 + 0*x",
        "b": "1 + 0*x",
        "p": 2.0,
        "mu_factor": 2.0,
    })
    out = tmp_path / "out"
    code = main(["--config", str(cfg), "--out", str(out), "solve", "logistic"])
    assert code == 0
    rep = json.loads((out / "report.json").read_text())
    assert rep["results"]["logistic"]["status"] == "ok"


def test_cli_heisenberg_logistic_descends_inside_its_bracket(tmp_path):
    cfg = write_config(tmp_path, "l.json", {
        "family": "heisenberg",
        "grid": {"box": [[-1, 1]] * 3, "h": 0.125},
        "a": "1 + 0*x",
        "b": "1 + 0*x",
        "p": 2.0,
        "mu_factor": 2.0,
    })
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), "solve", "logistic"]) == 0
    res = json.loads((out / "report.json").read_text())["results"]["logistic"]
    assert res["status"] == "ok" and res["residual"] <= 1e-8
    assert res["steps_monotone"] is True and res["bracket_respected"] is True


def test_cli_ball_with_plot(tmp_path):
    cfg = write_config(tmp_path, "b.json", {
        "family": "euclidean(2)",
        "grid": {"box": [[-0.6, 0.6], [-0.6, 0.6]], "h": 0.05},
        "center": [0, 0],
        "radius": 0.4,
        "directions": 16,
    })
    out = tmp_path / "out"
    code = main(["--config", str(cfg), "--out", str(out), "--plot", "ball"])
    assert code == 0
    svg = (out / "ball_indicator.svg").read_text()
    assert svg.startswith("<svg")


def test_emit_plot_constant_uniform():
    g = build_grid([(0, 1), (0, 1)], 0.25)
    svg = emit_plot(GridField.constant(g, 2.0))
    fills = {line.split('fill="')[1].split('"')[0]
             for line in svg.splitlines() if "<rect" in line}
    assert len(fills) == 1


def test_emit_plot_deterministic():
    g = build_grid([(0, 1), (0, 1)], 0.125)
    rng = np.random.default_rng(4)
    f = GridField(g, rng.standard_normal(g.num_nodes))
    assert emit_plot(f) == emit_plot(f)


def test_emit_plot_3d_requires_slice():
    g = build_grid([(0, 1)] * 3, 0.25)
    f = GridField.constant(g, 1.0)
    with pytest.raises(ValueError, match="slice"):
        emit_plot(f)
    svg = emit_plot(f, (2, 1))
    assert "<rect" in svg
    with pytest.raises(ValueError, match="out of range"):
        emit_plot(f, (2, 99))


def test_emit_plot_eigenfield_single_interior_max(tmp_path):
    # the plotted ground state has exactly one strict local maximum
    from sublap.eigen import principal_eigenpair
    from sublap.fields import euclidean
    from sublap.operators import assemble_stiffness, mass_matrix

    g = build_grid([(0, 1), (0, 1)], 1.0 / 16)
    K = assemble_stiffness(euclidean(2), g)
    res = principal_eigenpair(K, None, mass_matrix(g), tol=1e-9)
    vals = res.eigenfield.values.reshape(g.dims)
    n_max = 0
    for i in range(1, g.dims[0] - 1):
        for j in range(1, g.dims[1] - 1):
            v = vals[i, j]
            nb = [vals[i - 1, j], vals[i + 1, j], vals[i, j - 1], vals[i, j + 1]]
            if all(v > w for w in nb):
                n_max += 1
    assert n_max == 1
    svg = emit_plot(res.eigenfield)
    assert svg.count("<rect") == g.num_nodes


def test_cli_config_echo_reproduces_run(tmp_path):
    # the report's config echo re-validates and reproduces the results
    from sublap.cli import RunConfig, run, validate_config

    cfg = write_config(tmp_path, "e.json", {
        "family": "euclidean(2)",
        "grid": {"box": [[0, 1], [0, 1]], "h": 1.0 / 16},
    })
    out1 = tmp_path / "out1"
    main(["--config", str(cfg), "--out", str(out1), "eigen"])
    rep1 = json.loads((out1 / "report.json").read_text())
    echo = rep1["config"]
    params = validate_config(echo["command"], echo["params"])
    out2 = tmp_path / "out2"
    run(RunConfig(command=echo["command"], params=params, out=out2,
                  seed=echo["seed"], plot=echo["plot"]))
    rep2 = json.loads((out2 / "report.json").read_text())
    assert rep1["results"] == rep2["results"]
