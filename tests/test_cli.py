import ast
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sublap import cli
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
    assert main(["--config", str(cfg), "--out", str(tmp_path / "o"), "ball"]) == 2
    assert "config key 'step_scales' for ball must be > 0, got [0]" in capsys.readouterr().err


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


# one config per suite that makes no case; an empty case list of the
# other suites is a config error, and tests/test_verify.py runs them empty
NO_CASE_CONFIGS = {
    "thm1_2": {"family": "heisenberg", "grid": {"box": [[-1, 1]] * 3, "h": 0.5},
               "u_expr": "1 + 0*x"},
}
PROP4_2_2D = {"family": "euclidean(2)", "grid": {"box": [[0, 1], [0, 1]], "h": 0.25},
              "a": "1 + 0*x", "b": "1 + 0*x", "p": 2.0, "mu_factors": [2.0]}
THM1_3_2D = {"family": "euclidean(2)", "g": "1 + 0*x", "g_plus": "1 + 0*x",
             "lam_fractions": [0.5], "boxes": [[[-1, 1], [-1, 1]]], "h": 0.25}


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


_DISK = {"family": "euclidean(2)", "grid": {"box": [[-1, 1], [-1, 1]], "h": 0.1},
         "center": [0, 0], "radius": 0.5, "directions": 16, "step_scales": [1]}


@pytest.mark.parametrize("argv, payload, key", [
    (["solve", "yamabe"], {"family": "heisenberg", "grid": {"box": [[-2, 2]] * 3, "h": 0.5},
                           "f": "exp(-(x**2 + y**2 + t**2))", "theta": 0.05, "eps": 0.4,
                           "p": 3.0}, "yamabe"),
    (["probe", "sobolev"], {**_DISK, "q": 4.0, "p": 2.0}, "sobolev"),
    (["probe", "doubling"], {**{k: v for k, v in _DISK.items() if k != "radius"},
                             "radii": [0.2, 0.4]}, "doubling"),
    (["probe", "poincare"], {**_DISK, "corpus_count": 3}, "poincare"),
], ids=["solve-yamabe", "probe-sobolev", "probe-doubling", "probe-poincare"])
def test_cli_command_end_to_end_writes_the_same_bytes_twice(tmp_path, argv, payload, key):
    cfg = write_config(tmp_path, "c.json", payload)
    outs = []
    for name in ("o1", "o2"):
        out = tmp_path / name
        assert main(["--config", str(cfg), "--out", str(out), "--seed", "3"] + argv) == 0
        outs.append({f.name: f.read_bytes() for f in sorted(out.iterdir())})
    assert key in json.loads(outs[0]["report.json"])["results"]
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


# ---------------------------------------------------------------------------
# the command table

# every default the CLI fills, per command
DEFAULTS = {
    "fields-info": {"sample_points": 5, "max_step": 3},
    "eigen": {"potential": "0", "tol": 1e-8},
    "epspath": {"potential": "0", "tol": 1e-8},
    "solve-logistic": {"mu_factor": 2.0, "tol": 1e-8},
    "solve-yamabe": {"tol": 1e-8},
    "distance": {"directions": 32, "step_scales": [1], "segments": 24, "tol": 1e-8},
    "ball": {"directions": 32, "step_scales": [1, 2, 3]},
    "probe-poincare": {"directions": 32, "step_scales": [1, 2, 3], "corpus_count": 12,
                       "corpus_degree": 2},
    "probe-sobolev": {"directions": 32, "step_scales": [1, 2, 3]},
    "probe-doubling": {"directions": 32, "step_scales": [1, 2, 3]},
    "verify-thm1_2": {"n_subdomains": 20, "tol": 1e-8},
    "verify-thm1_3": {"tol": 1e-8},
    "verify-prop4_2": {"tol": 1e-8},
    "verify-thm1_4": {"tol": 1e-8},
}
GRID_2D = {"box": [[0, 1], [0, 1]], "h": 0.25}


def minimal_config(command):
    """Every required key of `command`, with a placeholder of its kind where any value in
    its range will do."""
    fixed = {"family": "euclidean(2)", "grid": GRID_2D, "box": GRID_2D["box"],
             "boxes": [GRID_2D["box"]], "p": 2, "eps": 0.4, "eps_list": [0.4],
             **dict.fromkeys(cli._POINTS, [0.5, 0.5])}
    placeholder = {"string": "1", "number": 1, "list": [1]}
    return {key: fixed[key] if key in fixed else placeholder[cli.SCHEMA[key].kind]
            for key in cli.COMMANDS[command].required.split()}


def test_table_lists_every_command():
    assert list(cli.COMMANDS) == list(DEFAULTS)


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_table_entry_parses_validates_and_echoes_its_defaults(command, tmp_path):
    args = cli._build_parser().parse_args(["--config", "c.json", *command.split("-")])
    assert args.command == command
    params = validate_config(command, minimal_config(command))
    cfg = cli.RunConfig(command=command, params=params, out=tmp_path)
    echoed = json.loads(json.dumps(cli._json_value(cfg.echo())))["params"]
    assert validate_config(command, echoed) == echoed
    assert {key: echoed[key] for key in DEFAULTS[command]} == DEFAULTS[command]
    assert set(echoed) == set(minimal_config(command)) | set(DEFAULTS[command])


def _schema_entries():
    """Each key named in the `SCHEMA` literal of cli.py, once per time it is named."""
    tree = ast.parse(Path(cli.__file__).read_text())
    (table,) = [node.value for node in tree.body if isinstance(node, ast.Assign)
                and ast.unparse(node.targets[0]) == "SCHEMA"]
    return [elt.value for key, value in zip(table.keys, table.values)
            for elt in ([key] if key is not None else value.args[0].elts)]


def test_schema_and_command_table_agree():
    taken = {}
    for command, spec in cli.COMMANDS.items():
        for key in [*spec.required.split(), *spec.optional]:
            taken.setdefault(key, set()).add(command)
    entries = _schema_entries()
    # one entry per key of every command, and none unused (the grid's box and
    # h are checked by the entries of box and h, which verify-thm1_4 takes)
    assert sorted(entries) == sorted(set(entries)) == sorted(taken) == sorted(cli.SCHEMA)
    for key, rule in cli.SCHEMA.items():
        if isinstance(rule.range, dict):  # a range per command, for each command taking it
            assert set(rule.range) == taken[key], key
    for command, spec in cli.COMMANDS.items():
        defaults = {key: value for key, value in spec.optional.items() if value is not None}
        for key, value in defaults.items():  # each default meets its key's rule
            validate_config(command, {**minimal_config(command), key: value})


def test_validate_takes_a_range_from_the_command():
    sobolev = {"family": "euclidean(2)", "grid": GRID_2D, "center": [0.5, 0.5], "radius": 0.1,
               "q": 4.0}
    assert validate_config("probe-sobolev", {**sobolev, "p": 1})["p"] == 1
    assert validate_config("solve-logistic", {**minimal_config("solve-logistic"),
                                              "mu": -1.0})["mu"] == -1.0
    with pytest.raises(ConfigError, match=r"'p' for solve-logistic must be > 1, got 1$"):
        validate_config("solve-logistic", {**minimal_config("solve-logistic"), "p": 1})
    with pytest.raises(ConfigError, match=r"'mu' for verify-thm1_3 must be > 0, got -1.0$"):
        validate_config("verify-thm1_3", {**minimal_config("verify-thm1_3"), "mu": -1.0})


def test_no_default_for_a_key_that_a_given_key_excludes():
    eigen = validate_config("eigen", {"family": "euclidean(2)", "grid": GRID_2D,
                                      "weight": "1 + 0*x"})
    assert "potential" not in eigen and eigen["tol"] == 1e-8
    logistic = validate_config("solve-logistic", {**minimal_config("solve-logistic"), "mu": 30.0})
    assert "mu_factor" not in logistic and logistic["mu"] == 30.0


def test_cli_weighted_eigen_echoes_no_potential(tmp_path):
    cfg = write_config(tmp_path, "w.json", {"family": "euclidean(2)", "grid": GRID_2D,
                                            "weight": "1 + 0*x"})
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), "eigen"]) == 0
    params = json.loads((out / "report.json").read_text())["config"]["params"]
    assert params == {"family": "euclidean(2)", "grid": GRID_2D, "weight": "1 + 0*x",
                      "tol": 1e-8}


def test_validate_treats_a_null_key_as_not_given():
    params = validate_config("eigen", {"family": "euclidean(2)", "grid": GRID_2D,
                                       "weight": None, "tol": None})
    assert params == {"family": "euclidean(2)", "grid": GRID_2D, "potential": "0", "tol": 1e-8}
    with pytest.raises(ConfigError, match=r"missing config keys for eigen: \['grid'\]"):
        validate_config("eigen", {"family": "euclidean(2)", "grid": None})


def _old_jsonify(obj):
    # the report serializer the json.dumps hook replaced
    if isinstance(obj, dict):
        return {str(k): _old_jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_old_jsonify(v) for v in obj]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_old_jsonify(v) for v in obj.tolist()]
    return obj


def test_report_hook_writes_the_bytes_of_the_old_serializer():
    # ... except that NaN and the infinities, which strict JSON lacks, are null
    payload = {"b": np.bool_(True), "i": np.int64(-7), "f": np.float64(0.1) * 3,
               "nan": float("nan"), "f32": np.float32(1.5), "t": (1, np.int32(2)),
               "a": {"nested": np.arange(6, dtype=float).reshape(2, 3) / 7,
                     "flags": np.array([True, False]), "inf": np.array([np.inf, -np.inf])}}
    new = json.dumps(cli._json_value(payload), indent=2, sort_keys=True, allow_nan=False)
    old = _old_jsonify(payload)
    old["nan"], old["a"]["inf"] = None, [None, None]
    assert new == json.dumps(old, indent=2, sort_keys=True)
    with pytest.raises(TypeError, match="set is not JSON serializable"):
        json.dumps(cli._json_value({"s": {1}}))


@pytest.mark.parametrize("grid, family, message", [
    (GRID_2D, "heisenbrg", "unknown family 'heisenbrg'"),
    ({"box": [[0, 1], [0, 0.5]], "h": 0.75}, "euclidean(2)", "h=0.75 larger than box extent 0.5"),
    (GRID_2D, "heisenberg", "grid has 2 axes but family 'heisenberg' acts on R^3"),
], ids=["family", "h", "dimension"])
def test_cli_bad_family_or_grid_is_a_config_error(tmp_path, capsys, grid, family, message):
    cfg = write_config(tmp_path, "e.json", {"family": family, "grid": grid})
    assert main(["--config", str(cfg), "--out", str(tmp_path / "o"), "eigen"]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_cli_family_file_missing_a_key_is_a_config_error(tmp_path, capsys):
    (tmp_path / "fam.json").write_text(json.dumps({"n": 2}))
    cfg = write_config(tmp_path, "f.json", {"family": str(tmp_path / "fam.json")})
    assert main(["--config", str(cfg), "--out", str(tmp_path / "o"), "fields", "info"]) == 2
    assert capsys.readouterr().err == "config error: family definition lacks key(s) ['m', 'coeffs']\n"
    assert not (tmp_path / "o").exists()


THM1_4_HEIS = {"family": "heisenberg", "box": [[-2, 2]] * 3, "h": 1.0,
               "f": "exp(-(x**2 + y**2 + t**2))", "theta_list": [0.02], "eps_list": [0.4],
               "p": 3.0}
THM1_3_HEIS = {"family": "heisenberg", "g": "1 + 0*x", "g_plus": "1 + 0*x",
               "lam_fractions": [0.5], "boxes": [[[-1, 1]] * 3, [[-2, 2]] * 2], "h": 0.5}


@pytest.mark.parametrize("suite, payload, message", [
    ("thm1_4", {**THM1_4_HEIS, "box": [[-2, 2]] * 2}, "box has 2 axes"),
    ("thm1_4", {**THM1_4_HEIS, "stability_box": [[-4, 4]] * 2}, "stability_box has 2 axes"),
    ("thm1_3", THM1_3_HEIS, "boxes[1] has 2 axes"),
], ids=["thm1_4-box", "thm1_4-stability_box", "thm1_3-boxes"])
def test_cli_verify_box_of_another_dimension_is_a_config_error(tmp_path, capsys, suite, payload,
                                                              message):
    cfg = write_config(tmp_path, "v.json", payload)
    assert main(["--config", str(cfg), "--out", str(tmp_path / "o"), "verify", suite]) == 2
    assert f"config error: {message} but family 'heisenberg' acts on R^3" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv, payload, message", [
    (["distance"], {"family": "heisenberg", "grid": {"box": [[-1, 1]] * 3, "h": 0.5},
                    "x": [0, 0, 0], "y": [0, 0, 0.5], "step_scales": 1},
     "config key 'step_scales' for distance must be a list, got 1"),
    (["eigen"], {"family": "euclidean(2)", "grid": GRID_2D, "tol": "abc"},
     "config key 'tol' for eigen must be a number, got 'abc'"),
], ids=["distance-step_scales", "eigen-tol"])
def test_cli_value_of_another_kind_than_its_default_is_a_config_error(tmp_path, capsys, argv,
                                                                      payload, message):
    cfg = write_config(tmp_path, "c.json", payload)
    assert main(["--config", str(cfg), "--out", str(tmp_path / "o"), *argv]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "o").exists()


def test_validate_counts_an_integer_as_a_number_and_nothing_else_as_an_integer():
    given = {"family": "euclidean(2)", "grid": GRID_2D, "u_expr": "1"}
    assert validate_config("verify-thm1_2", {**given, "tol": 1})["tol"] == 1
    for bad in (2.0, True, "2", [2]):
        with pytest.raises(ConfigError,
                           match="'n_subdomains' for verify-thm1_2 must be an integer"):
            validate_config("verify-thm1_2", {**given, "n_subdomains": bad})


BALL_HEIS = {"family": "heisenberg", "grid": {"box": [[-0.3, 0.3], [-0.3, 0.3], [-0.1, 0.1]],
                                              "h": 0.05},
             "center": [0, 0, 0], "radius": 0.1, "directions": 8}
DIST_2D = {"family": "euclidean(2)", "grid": {"box": [[-0.5, 1.5], [-0.5, 1.5]], "h": 0.1},
           "x": [0, 0], "y": [1, 1]}


@pytest.mark.parametrize("argv, payload, code, key", [
    (["verify", "thm1_3"], {**THM1_3_2D, "boxes": []}, 2, "boxes"),
    (["epspath"], {"family": "euclidean(2)", "grid": GRID_2D, "eps_list": []}, 2, "eps_list"),
    (["ball"], {**BALL_HEIS, "family": "euclidean(2)", "grid": GRID_2D, "center": [0.5, 0.5],
                "step_scales": []}, 2, "step_scales"),
    (["ball"], {**BALL_HEIS, "step_scales": []}, 2, "step_scales"),
    (["distance"], {**DIST_2D, "segments": 0}, 2, "segments"),
    (["distance"], {**DIST_2D, "segments": -3}, 2, "segments"),
    (["verify", "thm1_4"], {**THM1_4_HEIS, "stability_box": []}, 2, "stability_box"),
    (["probe", "poincare"], {**BALL_HEIS, "corpus_count": 0}, 2, "corpus_count"),
    (["probe", "poincare"], {**BALL_HEIS, "corpus_degree": 0}, 2, "corpus_degree"),
    (["fields", "info"], {"family": "heisenberg", "sample_points": 0}, 2, "sample_points"),
    (["eigen"], {"family": "euclidean(2)", "grid": GRID_2D, "potential": "x +"}, 1, "'x +'"),
    (["eigen"], {"family": "euclidean(2)", "grid": GRID_2D, "potential": "1/0*x"}, 1,
     "'1/0*x'"),
    (["verify", "thm1_3"], {**THM1_3_2D, "g": "1+"}, 1, "'1+'"),
], ids=["thm1_3-boxes", "epspath-eps_list", "ball-step_scales-euclidean",
        "ball-step_scales-heisenberg", "distance-segments-0", "distance-segments-negative",
        "thm1_4-stability_box", "poincare-corpus_count", "poincare-corpus_degree",
        "fields_info-sample_points", "eigen-potential-syntax", "eigen-potential-division",
        "thm1_3-g-syntax"])
def test_cli_empty_or_zero_count_value_exits_with_a_one_line_error(tmp_path, capsys, argv,
                                                                   payload, code, key):
    # each value used to crash with a traceback, or to run and report nothing;
    # an expression that does not parse or divides by zero is named
    cfg = write_config(tmp_path, "c.json", payload)
    assert main(["--config", str(cfg), "--out", str(tmp_path / "o"), *argv]) == code
    err = capsys.readouterr().err
    assert err.startswith("config error: " if code == 2 else "run failed: ")
    assert key in err and err.count("\n") == 1
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv, payload, message", [
    (["ball"], {**BALL_HEIS, "directions": 1}, "'directions' for ball must be >= 2, got 1"),
    (["distance"], {**DIST_2D, "directions": 0}, "'directions' for distance must be >= 2, got 0"),
    (["distance"], {**DIST_2D, "segments": 0}, "'segments' for distance must be >= 1, got 0"),
    (["ball"], {**BALL_HEIS, "radius": -0.1}, "'radius' for ball must be >= 0, got -0.1"),
    (["probe", "poincare"], {**BALL_HEIS, "radius": float("nan")},
     "'radius' for probe-poincare must be finite, got nan"),
    (["probe", "doubling"], {**BALL_HEIS, "radius": None, "radii": [0.05, 0]},
     "'radii' for probe-doubling must be > 0, got [0.05, 0]"),
    (["probe", "doubling"], {**BALL_HEIS, "radius": None, "radii": [float("inf")]},
     "'radii' for probe-doubling must be finite, got [inf]"),
    (["ball"], {**BALL_HEIS, "step_scales": [1, -2]}, "'step_scales' for ball must be > 0"),
    (["distance"], {**DIST_2D, "step_scales": [float("nan")]},
     "'step_scales' for distance must be finite"),
    (["distance"], {**DIST_2D, "tol": 0}, "'tol' for distance must be > 0, got 0"),
    (["distance"], {**DIST_2D, "tol": -1e-3}, "'tol' for distance must be > 0, got -0.001"),
], ids=["ball-directions", "distance-directions", "distance-segments", "ball-radius",
        "poincare-radius-nan", "doubling-radii-zero", "doubling-radii-inf", "ball-step_scales",
        "distance-step_scales-nan", "distance-tol-zero", "distance-tol-negative"])
def test_cli_out_of_range_cc_value_is_a_config_error_naming_it(tmp_path, capsys, argv, payload,
                                                                message):
    # each used to fail the run (exit 1) or, for a tol <= 0, to run a
    # refinement that can only stall (exit 0)
    cfg = write_config(tmp_path, "c.json", payload)
    assert main(["--config", str(cfg), "--out", str(tmp_path / "o"), *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err and err.count("\n") == 1
    assert not (tmp_path / "o").exists()


LOGISTIC_2D = {"family": "euclidean(2)", "grid": GRID_2D, "a": "1 + 0*x", "b": "1 + 0*x",
               "p": 2.0}
YAMABE_HEIS = {"family": "heisenberg", "grid": {"box": [[-2, 2]] * 3, "h": 1.0},
               "f": "exp(-(x**2 + y**2 + t**2))", "theta": 0.02, "eps": 0.4, "p": 3.0}
_INF, _NAN = float("inf"), float("nan")


@pytest.mark.parametrize("argv, payload, message", [
    (["eigen"], {"family": "euclidean(2)", "grid": GRID_2D, "tol": -1},
     "'tol' for eigen must be > 0, got -1"),
    (["verify", "thm1_2"], {**NO_CASE_CONFIGS["thm1_2"], "tol": float("inf")},
     "'tol' for verify-thm1_2 must be finite, got inf"),
    (["fields", "info"], {"family": "heisenberg", "max_step": 0},
     "'max_step' for fields-info must be >= 1, got 0"),
    (["verify", "thm1_2"], {**NO_CASE_CONFIGS["thm1_2"], "n_subdomains": 0},
     "'n_subdomains' for verify-thm1_2 must be >= 1, got 0"),
    (["epspath"], {"family": "euclidean(2)", "grid": GRID_2D, "eps_list": [float("inf"), 0]},
     "'eps_list' for epspath must be finite, got [inf, 0]"),
    (["verify", "thm1_4"], {**THM1_4_HEIS, "eps_list": [-0.4]},
     "'eps_list' for verify-thm1_4 must be in (1/3, 1/2), got [-0.4]"),
    (["eigen"], {"family": "euclidean(2)", "grid": {"box": [[0, _INF], [0, 1]], "h": 0.25}},
     "'grid.box' for eigen must be finite, got [[0, inf], [0, 1]]"),
    (["solve", "logistic"], {**LOGISTIC_2D, "mu_factor": _NAN},
     "'mu_factor' for solve-logistic must be finite, got nan"),
    (["solve", "logistic"], {**LOGISTIC_2D, "mu": _INF},
     "'mu' for solve-logistic must be finite, got inf"),
    (["solve", "logistic"], {**LOGISTIC_2D, "p": _INF},
     "'p' for solve-logistic must be finite, got inf"),
    (["ball"], {**BALL_HEIS, "center": [_NAN, 0, 0]},
     "'center' for ball must be finite, got [nan, 0, 0]"),
    (["verify", "thm1_3"], {**THM1_3_2D, "h": _NAN},
     "'h' for verify-thm1_3 must be finite, got nan"),
    (["verify", "thm1_3"], {**THM1_3_2D, "lam_fractions": [_NAN]},
     "'lam_fractions' for verify-thm1_3 must be finite, got [nan]"),
    (["eigen"], {"family": "euclidean(2)", "grid": {**GRID_2D, "h": 10**400}},
     "'grid.h' for eigen must be finite, got 1000"),
    (["solve", "logistic"], {**LOGISTIC_2D, "p": 0.5},
     "'p' for solve-logistic must be > 1, got 0.5"),
    (["solve", "yamabe"], {**YAMABE_HEIS, "p": 1}, "'p' for solve-yamabe must be > 1, got 1"),
    (["verify", "prop4_2"], {**PROP4_2_2D, "p": 1.0},
     "'p' for verify-prop4_2 must be > 1, got 1.0"),
    (["verify", "thm1_4"], {**THM1_4_HEIS, "p": 0.9},
     "'p' for verify-thm1_4 must be > 1, got 0.9"),
    (["solve", "yamabe"], {**YAMABE_HEIS, "eps": 0.6},
     "'eps' for solve-yamabe must be in (1/3, 1/2), got 0.6"),
    (["solve", "yamabe"], {**YAMABE_HEIS, "theta": -0.05},
     "'theta' for solve-yamabe must be >= 0, got -0.05"),
    (["verify", "thm1_4"], {**THM1_4_HEIS, "eps_list": [0.2]},
     "'eps_list' for verify-thm1_4 must be in (1/3, 1/2), got [0.2]"),
    (["verify", "thm1_4"], {**THM1_4_HEIS, "theta_list": [-0.02]},
     "'theta_list' for verify-thm1_4 must be >= 0, got [-0.02]"),
    (["probe", "sobolev"], {**BALL_HEIS, "q": 4.0, "p": 0.5},
     "'p' for probe-sobolev must be >= 1, got 0.5"),
    (["verify", "thm1_3"], {**THM1_3_2D, "lam_fractions": [1.5]},
     "'lam_fractions' for verify-thm1_3 must be in (0, 1], got [1.5]"),
    (["verify", "thm1_3"], {**THM1_3_2D, "mu": -1}, "'mu' for verify-thm1_3 must be > 0, got -1"),
    (["verify", "thm1_3"], {**THM1_3_2D, "h": 0}, "'h' for verify-thm1_3 must be > 0, got 0"),
    (["epspath"], {"family": "euclidean(2)", "grid": GRID_2D, "eps_list": [0.1, 0.5]},
     "'eps_list' for epspath must be >= 0 and strictly decreasing, got [0.1, 0.5]"),
    (["verify", "prop4_2"], {**PROP4_2_2D, "mu_factors": []},
     "'mu_factors' for verify-prop4_2 must be non-empty, got []"),
    (["verify", "thm1_3"], {**THM1_3_2D, "lam_fractions": []},
     "'lam_fractions' for verify-thm1_3 must be non-empty, got []"),
    (["verify", "thm1_4"], {**THM1_4_HEIS, "theta_list": []},
     "'theta_list' for verify-thm1_4 must be non-empty, got []"),
    (["verify", "thm1_4"], {**THM1_4_HEIS, "eps_list": []},
     "'eps_list' for verify-thm1_4 must be non-empty, got []"),
    (["verify", "thm1_3"], {**THM1_3_2D, "boxes": [[]]},
     "'boxes' for verify-thm1_3 must be non-empty, got [[]]"),
    (["verify", "thm1_3"], {**THM1_3_2D, "boxes": [[[-1, 1], [1, -1]]]},
     "'boxes' for verify-thm1_3 must be [lo, hi] pairs with lo < hi, got [[[-1, 1], [1, -1]]]"),
], ids=["eigen-tol", "thm1_2-tol-inf", "fields_info-max_step", "thm1_2-n_subdomains",
        "epspath-eps_list-inf", "thm1_4-eps_list-negative", "eigen-grid-box-inf",
        "logistic-mu_factor-nan", "logistic-mu-inf", "logistic-p-inf", "ball-center-nan",
        "thm1_3-h-nan", "thm1_3-lam_fractions-nan", "eigen-grid-h-huge", "logistic-p", "yamabe-p",
        "prop4_2-p", "thm1_4-p", "yamabe-eps", "yamabe-theta", "thm1_4-eps_list",
        "thm1_4-theta_list", "sobolev-p", "thm1_3-lam_fractions", "thm1_3-mu", "thm1_3-h",
        "epspath-eps_list-increasing", "prop4_2-mu_factors-empty", "thm1_3-lam_fractions-empty",
        "thm1_4-theta_list-empty", "thm1_4-eps_list-empty", "thm1_3-boxes-empty-box",
        "thm1_3-boxes-reversed-side"])
def test_cli_out_of_range_solver_value_is_a_config_error_naming_it(tmp_path, capsys, argv,
                                                                   payload, message):
    # each used to reach the solver: a tol <= 0 ran the whole solve before
    # its residual check failed, eps = inf ended in an ARPACK error, an infinite
    # grid side in an OverflowError traceback, a NaN mu_factor wrote a bare NaN
    # into report.json, a NaN center failed as "metric ball clipped by the grid
    # box", other values out of range failed the run, and n_subdomains 0 or an
    # empty case list wrote a report with no case
    cfg = write_config(tmp_path, "c.json", payload)
    assert main(["--config", str(cfg), "--out", str(tmp_path / "o"), *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err and err.count("\n") == 1
    assert not (tmp_path / "o").exists()


def test_cli_expression_with_a_huge_power_fails_at_once(tmp_path):
    # read as integers, 9**9**9 ran as an exact integer power for minutes; a
    # child process with a timeout keeps a regression from hanging the suite
    cfg = write_config(tmp_path, "e.json", {"family": "euclidean(2)", "grid": GRID_2D,
                                            "potential": "x + 9**9**9"})
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-m", "sublap.cli", "--config", str(cfg), "--out",
                           str(tmp_path / "o"), "eigen"], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 1
    assert proc.stderr.startswith("run failed: expression 'x + 9**9**9' fails: ")
    assert proc.stderr.count("\n") == 1
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("key", ["weight", "potential"])
def test_cli_expression_with_a_non_finite_value_fails_in_one_line(tmp_path, key):
    # sqrt(x) is NaN where x < 0: the run used to print a RuntimeWarning and
    # two LAPACK lines, then fail with "ARPACK error -9999"; a child process
    # shows what numpy and LAPACK write to stderr themselves
    cfg = write_config(tmp_path, "e.json", {"family": "euclidean(2)",
                                            "grid": {"box": [[-1, 1], [-1, 1]], "h": 0.25},
                                            key: "sqrt(x)"})
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-m", "sublap.cli", "--config", str(cfg), "--out",
                           str(tmp_path / "o"), "eigen"], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 1
    assert proc.stderr == "run failed: expression 'sqrt(x)' is nan at [-1.0, -1.0]\n"
    assert not (tmp_path / "o").exists()


def _no_constant(name):
    raise AssertionError(f"report holds {name}, which strict JSON has no literal for")


def test_cli_report_writes_a_nan_result_as_null(tmp_path):
    # the barrier check fails before any step, with residual NaN, which the
    # report used to hold as a bare NaN
    cfg = write_config(tmp_path, "y.json", {
        "family": "euclidean(2)", "grid": {"box": [[-2, 2], [-2, 2]], "h": 0.5},
        "f": "exp(-(x**2 + y**2))", "theta": 5, "eps": 0.4, "p": 3})
    assert main(["--config", str(cfg), "--out", str(tmp_path / "o"), "solve", "yamabe"]) == 1
    text = (tmp_path / "o" / "report.json").read_text()
    report = json.loads(text, parse_constant=_no_constant)
    assert report["results"]["yamabe"]["residual"] is None
    assert '"residual": null,' in text and report["exit_code"] == 1


DIST_HEIS = {"family": "heisenberg", "grid": {"box": [[-1, 1]] * 3, "h": 0.5},
             "x": [0, 0, 0], "y": [0, 0, 0.5]}


@pytest.mark.parametrize("argv, payload, message", [
    (["distance"], {**DIST_HEIS, "x": [0, 0]}, "x has 2 coordinates"),
    (["distance"], {**DIST_HEIS, "y": [0, 0, 0, 0.5]}, "y has 4 coordinates"),
    (["ball"], {**BALL_HEIS, "center": [0, 0]}, "center has 2 coordinates"),
], ids=["distance-x", "distance-y", "ball-center"])
def test_cli_point_of_another_dimension_is_a_config_error(tmp_path, capsys, argv, payload,
                                                         message):
    # a short x used to end in "run failed: operands could not be broadcast"
    cfg = write_config(tmp_path, "p.json", payload)
    assert main(["--config", str(cfg), "--out", str(tmp_path / "o"), *argv]) == 2
    assert capsys.readouterr().err == (
        f"config error: {message} but family 'heisenberg' acts on R^3\n")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("h", ["0.25", "abc"])
def test_cli_grid_h_given_as_a_string_is_a_config_error(tmp_path, capsys, h):
    # "0.25" used to run as 0.25, and "abc" to fail naming neither grid nor h
    cfg = write_config(tmp_path, "e.json", {"family": "euclidean(2)",
                                            "grid": {**GRID_2D, "h": h}})
    assert main(["--config", str(cfg), "--out", str(tmp_path / "o"), "eigen"]) == 2
    assert capsys.readouterr().err == (
        f"config error: config key 'grid.h' for eigen must be a number, got {h!r}\n")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv, payload, key", [
    (["verify", "prop4_2"], {**PROP4_2_2D, "mu_factors": "2"}, "mu_factors"),
    (["eigen"], {"family": "euclidean(2)", "grid": GRID_2D, "weight": 5}, "weight"),
    (["solve", "logistic"], {**LOGISTIC_2D, "a": 5}, "a"),
    (["solve", "logistic"], {**LOGISTIC_2D, "p": "two"}, "p"),
    (["solve", "logistic"], {**LOGISTIC_2D, "mu": "abc"}, "mu"),
    (["solve", "yamabe"], {**YAMABE_HEIS, "k_pattern": 7}, "k_pattern"),
    (["verify", "thm1_3"], {**THM1_3_2D, "mu": "abc"}, "mu"),
    (["epspath"], {"family": "euclidean(2)", "grid": GRID_2D, "eps_list": 0.5}, "eps_list"),
    (["ball"], {**BALL_HEIS, "radius": "big"}, "radius"),
], ids=["prop4_2-mu_factors", "eigen-weight", "logistic-a", "logistic-p", "logistic-mu",
        "yamabe-k_pattern", "thm1_3-mu", "epspath-eps_list", "ball-radius"])
def test_cli_key_with_no_default_of_another_kind_exits_2_naming_it(tmp_path, capsys, argv,
                                                                   payload, key):
    # each value used to run (a string iterated as a list), end in a
    # TypeError traceback, or fail the run after it had started
    cfg = write_config(tmp_path, "c.json", payload)
    assert main(["--config", str(cfg), "--out", str(tmp_path / "o"), *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: config key {key!r} for ") and err.count("\n") == 1
    assert not (tmp_path / "o").exists()


DOUBLING_HEIS = {**{k: v for k, v in BALL_HEIS.items() if k != "radius"}, "radii": [0.05]}


@pytest.mark.parametrize("argv, payload, key", [
    (["epspath"], {"family": "euclidean(2)", "grid": GRID_2D, "eps_list": [[0.5]]}, "eps_list"),
    (["verify", "thm1_4"], {**THM1_4_HEIS, "theta_list": ["a"]}, "theta_list"),
    (["verify", "thm1_3"], {**THM1_3_2D, "lam_fractions": [True]}, "lam_fractions"),
    (["verify", "prop4_2"], {**PROP4_2_2D, "mu_factors": ["2"]}, "mu_factors"),
    (["probe", "doubling"], {**DOUBLING_HEIS, "radii": ["x"]}, "radii"),
    (["distance"], {**DIST_2D, "x": ["a", 0]}, "x"),
    (["distance"], {**DIST_2D, "y": [1, None]}, "y"),
    (["ball"], {**BALL_HEIS, "center": [0, 0, {}]}, "center"),
    (["ball"], {**BALL_HEIS, "step_scales": ["1"]}, "step_scales"),
    (["verify", "thm1_4"], {**THM1_4_HEIS, "box": [[-2, 2], [-2, 2], [-2, "2"]]}, "box"),
    (["verify", "thm1_4"], {**THM1_4_HEIS, "stability_box": [[-4, 4], [-4], [-4, 4]]},
     "stability_box"),
    (["eigen"], {"family": "heisenberg", "grid": {"box": [[-1, 1], [-1, "b"], [-1, 1]],
                                                  "h": 0.5}}, "grid"),
    (["verify", "thm1_3"], {**THM1_3_2D, "boxes": [[[-1, 1], [-1, 1]], [-2, 2]]}, "boxes"),
], ids=["eps_list", "theta_list", "lam_fractions", "mu_factors", "radii", "x", "y", "center",
        "step_scales", "box", "stability_box", "grid-box", "boxes"])
def test_cli_list_key_with_an_element_of_another_kind_exits_2_naming_it(tmp_path, capsys, argv,
                                                                        payload, key):
    # each element used to end in a TypeError traceback, in "run failed", or
    # in a config error that did not name the key
    cfg = write_config(tmp_path, "c.json", payload)
    assert main(["--config", str(cfg), "--out", str(tmp_path / "o"), *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and key in err and err.count("\n") == 1
    assert not (tmp_path / "o").exists()


def test_reports_do_not_depend_on_the_blas_thread_count(tmp_path):
    # at h = 1/12 (12,167 unknowns) the eigen solve's BLAS sums round
    # differently on two threads unless the CLI runs it on one
    cfg = write_config(tmp_path, "e.json", {"family": "heisenberg",
                                            "grid": {"box": [[-1, 1]] * 3, "h": 1.0 / 12}})
    src = str(Path(cli.__file__).resolve().parents[1])
    trees = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        subprocess.run([sys.executable, "-m", "sublap.cli", "--config", str(cfg), "--out",
                        str(out), "eigen"], env=env, check=True, capture_output=True)
        trees.append({f.name: f.read_bytes() for f in sorted(out.iterdir())})
    assert trees[0] == trees[1] and set(trees[0]) == {"report.json", "eigenfield.csv"}


def test_cli_distance_between_points_that_snap_to_one_node_is_zero(tmp_path, monkeypatch):
    # x and y 0.01 apart on a grid of h = 0.1: no graph search and no refinement
    cfg = write_config(tmp_path, "d.json", {
        "family": "heisenberg",
        "grid": {"box": [[-0.3, 1.3], [-0.3, 1.3], [-0.3, 0.3]], "h": 0.1},
        "x": [0, 0, 0], "y": [0.01, 0, 0]})
    out = tmp_path / "out"
    calls = []

    def counted(name):
        orig = getattr(cli.cc, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return orig(*args, **kwargs)
        return wrapper

    for name in ("_dijkstra", "_integrate_controls_batch"):
        monkeypatch.setattr(cli.cc, name, counted(name))
    assert main(["--config", str(cfg), "--out", str(out), "distance"]) == 0
    assert calls == []
    dist = json.loads((out / "report.json").read_text())["results"]["distance"]
    assert dist == {"graph_upper_bound": 0.0, "refined": 0.0, "defect": 0.0, "stalled": False,
                    "notes": []}
    header, first, second = (out / "path.csv").read_text().splitlines()
    assert header == "x0,x1,x2,t_cum" and first == second
    assert np.abs(np.array(first.split(","), dtype=float)).max() < 1e-12


def test_cli_negative_seed_is_a_usage_error_naming_it(tmp_path, capsys):
    # it used to fail the run: "run failed: expected non-negative integer"
    cfg = write_config(tmp_path, "f.json", {"family": "heisenberg"})
    with pytest.raises(SystemExit) as exc:
        main(["--config", str(cfg), "--out", str(tmp_path / "o"), "--seed", "-1", "fields",
              "info"])
    assert exc.value.code == 2
    assert "argument --seed: must be a non-negative integer, got -1" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()
