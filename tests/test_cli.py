import copy
import json
import os

import numpy as np
import pytest

from fracstab import ConfigError, FractionalOrder, NewtonError, UniformGrid, solve_fde_abm
from fracstab.cli import main
from fracstab.config import config_from_dict, load_config
from fracstab.csvio import write_csv
from fracstab.models import sica, teiv
from fracstab.svgplot import plot_panels

BASE_SICA = {
    "model": "sica",
    "params": {
        "lambda_": 10724.0,
        "mu": 1.0 / 69.54,
        "beta": 0.066,
        "rho": 0.1,
        "phi": 1.0,
        "alpha_t": 0.33,
        "omega": 0.09,
        "d": 1.0,
        "incidence": "standard",
    },
    "orders": [0.9, 1.0],
    "initial_state": [596597.568, 74574.696, 37287.348, 37287.348],
    "t_end": 50.0,
    "steps": 100,
    "functionals": ["v0"],
}

BASE_TEIV = {
    "model": "teiv",
    "params": {
        "lambda_": 5.0, "mu_T": 0.1, "mu_E": 0.2, "mu_I": 0.3, "mu_V": 2.0,
        "rho": 0.05, "gamma": 0.3, "k": 10.0, "beta": 0.01,
        "alpha1": 0.01, "alpha2": 0.01, "alpha3": 0.001,
    },
    "orders": [0.8, 1.0],
    "initial_state": [40.0, 1.0, 1.0, 5.0],
    "t_end": 100.0,
    "steps": 200,
    "functionals": ["teiv_at_anchor"],
}


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


# ---------------------------------------------------------------- config parsing

def test_config_rejects_unknown_top_level_field():
    doc = copy.deepcopy(BASE_SICA)
    doc["stepss"] = 100
    with pytest.raises(ConfigError):
        config_from_dict(doc)


def test_config_rejects_unknown_param_field():
    doc = copy.deepcopy(BASE_SICA)
    doc["params"]["betta"] = 0.1
    with pytest.raises(ConfigError):
        config_from_dict(doc)


def test_config_rejects_empty_orders():
    doc = copy.deepcopy(BASE_SICA)
    doc["orders"] = []
    with pytest.raises(ConfigError):
        config_from_dict(doc)


def test_config_rejects_bad_steps_and_horizon():
    for field, value in (("steps", 5), ("t_end", 0.0), ("t_end", -3.0)):
        doc = copy.deepcopy(BASE_SICA)
        doc[field] = value
        with pytest.raises(ConfigError):
            config_from_dict(doc)


def test_config_rejects_model_functional_mismatch():
    doc = copy.deepcopy(BASE_SICA)
    doc["functionals"] = ["teiv_at_anchor"]
    with pytest.raises(ConfigError):
        config_from_dict(doc)


def test_load_config_reports_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(str(path))


# ---------------------------------------------------------------- CSV round trip

def read_csv(path):
    """(header, columns) of a file written by ``write_csv``."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return header, list(data.T)


def test_csv_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(13)
    cols = [rng.standard_normal(50) * 10.0 ** rng.integers(-8, 8) for _ in range(3)]
    path = str(tmp_path / "data.csv")
    write_csv(path, ["a", "b", "c"], cols)
    header, back = read_csv(path)
    assert header == ["a", "b", "c"]
    for orig, rt in zip(cols, back):
        np.testing.assert_array_equal(orig, rt)
    with open(path, "rb") as fh:
        assert b"\r" not in fh.read()


def test_csv_bytes_match_per_cell_reference(tmp_path):
    # the per-cell writer that np.savetxt replaced, kept as the reference
    def reference(header, columns):
        lines = [",".join(header)]
        lines += [",".join(format(c[i], ".17g") for c in columns) for i in range(len(columns[0]))]
        return "".join(line + "\n" for line in lines).encode("utf-8")

    rng = np.random.default_rng(5)
    special = np.array([-0.0, 0.0, 5e-324, -5e-324, 1e-310, np.inf, -np.inf, np.nan,
                        0.1, 1.0 / 3.0, 2.0 ** 53 + 2.0, 1.7976931348623157e308])
    columns = [
        special,
        rng.standard_normal(special.size) * 10.0 ** rng.integers(-300, 300, special.size),
        np.nextafter(rng.uniform(1.0, 10.0, special.size), np.inf),
    ]
    path = str(tmp_path / "data.csv")
    write_csv(path, ["t", "x", "y"], columns)
    with open(path, "rb") as fh:
        assert fh.read() == reference(["t", "x", "y"], columns)


def test_svg_points_match_per_point_reference(tmp_path):
    rng = np.random.default_rng(11)
    times = np.linspace(0.0, 7.3, 97)
    curves = [np.cumsum(rng.standard_normal(times.size)) * 1e3, rng.uniform(-2.0, 5.0, times.size)]
    path = str(tmp_path / "plot.svg")
    plot_panels(path, times, [("X", curves)], ["a", "b"])
    with open(path, encoding="utf-8") as fh:
        svg = fh.read()
    points = [line.split('points="')[1].split('"')[0]
              for line in svg.splitlines() if line.startswith("<polyline")]

    # the per-point f-string loop that the array arithmetic replaced
    left = top = 48
    sx = (360 - 2 * 48) / (times[-1] - times[0])
    ymin = min(float(np.min(c)) for c in curves)
    ymax = max(float(np.max(c)) for c in curves)
    sy = (240 - 2 * 48) / (ymax - ymin)
    expected = [
        " ".join(f"{left + (t - times[0]) * sx:.2f},{top + (ymax - y) * sy:.2f}"
                 for t, y in zip(times, c))
        for c in curves
    ]
    assert points == expected


# ---------------------------------------------------------------- commands

def test_cmd_r0_baseline(tmp_path, capsys):
    code = main(["r0", "--config", write_config(tmp_path, BASE_SICA)])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["r0"] == pytest.approx(0.2900, abs=5e-4)
    assert doc["endemic"] is None
    assert doc["disease_free"][0] == pytest.approx(7.4575e5, rel=1e-4)


def test_cmd_r0_teiv(tmp_path, capsys):
    code = main(["r0", "--config", write_config(tmp_path, BASE_TEIV)])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["r0"] == pytest.approx(3.0303, abs=1e-3)
    assert doc["chronic"] is not None


def test_cmd_simulate_artifacts_round_trip(tmp_path, capsys):
    out_dir = str(tmp_path / "out")
    code = main([
        "simulate", "--config", write_config(tmp_path, BASE_SICA), "--out", out_dir,
    ])
    assert code == 0
    csv_path = os.path.join(out_dir, "trajectory_order_0.9.csv")
    header, cols = read_csv(csv_path)
    assert header[:5] == ["t", "S", "I", "C", "A"]
    assert "V_v0" in header and "dcaputo_V_v0" in header

    # emitted samples must be bit-identical to an in-process solve
    cfg = config_from_dict(copy.deepcopy(BASE_SICA))
    grid = UniformGrid(0.0, cfg.t_end / cfg.steps, cfg.steps)
    traj = solve_fde_abm(
        sica.sica_model(cfg.params), FractionalOrder(0.9),
        np.asarray(cfg.initial_state), grid,
    )
    np.testing.assert_array_equal(cols[1], traj.component(0))

    with open(os.path.join(out_dir, "states.svg"), encoding="utf-8") as fh:
        svg = fh.read()
    assert svg.startswith("<?xml")
    assert svg.count("<polyline") == 8  # 4 state panels x 2 orders
    assert 'stroke="blue"' in svg and 'stroke="red"' in svg


def diverging_mass_action_config():
    # read as mass action, the calibrated beta makes the disease-free point
    # violently unstable, and with 200-year steps the solve blows up at node 3
    doc = copy.deepcopy(BASE_SICA)
    doc["params"]["incidence"] = "mass_action"
    doc["params"]["beta"] = 0.866
    doc["t_end"] = 2000.0
    doc["steps"] = 10
    doc["functionals"] = []
    return doc


def test_cmd_simulate_domain_error_removes_partial_outputs(tmp_path, capsys):
    # read as mass action with a small beta, order 0.6 solves and is written,
    # then order 0.5 undershoots below zero and psi raises a DomainError
    doc = copy.deepcopy(BASE_SICA)
    doc["params"]["incidence"] = "mass_action"
    doc["params"]["beta"] = 1e-5
    doc["orders"] = [0.6, 0.5]
    doc["t_end"] = 2000.0
    doc["steps"] = 5000
    doc["functionals"] = ["v1"]
    out_dir = str(tmp_path / "out")
    code = main(["simulate", "--config", write_config(tmp_path, doc), "--out", out_dir])
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"] == "DomainError"
    assert os.listdir(out_dir) == []


def test_cmd_simulate_removes_a_half_written_file(tmp_path, monkeypatch):
    def failing_plot(path, *args):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("<?xml")
        raise OSError("no space left on device")

    monkeypatch.setattr("fracstab.cli.plot_panels", failing_plot)
    out_dir = str(tmp_path / "out")
    with pytest.raises(OSError):
        main(["simulate", "--config", write_config(tmp_path, BASE_SICA), "--out", out_dir])
    assert os.listdir(out_dir) == []


def test_cmd_simulate_divergence_removes_partial_outputs(tmp_path, capsys):
    doc = diverging_mass_action_config()
    out_dir = str(tmp_path / "out")
    with np.errstate(all="ignore"):
        code = main(["simulate", "--config", write_config(tmp_path, doc), "--out", out_dir])
    assert code == 3
    assert os.listdir(out_dir) == []
    assert "divergence" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["report", "simulate", "verify-lemma"])
def test_divergence_json_names_node_and_order(tmp_path, capsys, command):
    doc = diverging_mass_action_config()
    doc["orders"] = [0.5, 1.0]
    extra = {
        "report": [],
        "simulate": ["--out", str(tmp_path / "out")],
        "verify-lemma": ["--coordinate", "S", "--xbar", "1.0"],
    }[command]
    with np.errstate(all="ignore"):
        code = main([command, "--config", write_config(tmp_path, doc)] + extra)
    assert code == 3
    assert json.loads(capsys.readouterr().out) == {"error": "divergence", "node": 3, "order": 0.5}


def test_cmd_verify_lemma_pass(tmp_path, capsys):
    out_file = str(tmp_path / "cert.json")
    code = main([
        "verify-lemma", "--config", write_config(tmp_path, BASE_SICA),
        "--coordinate", "S", "--g", "identity",
        "--xbar", "745746.99", "--order", "0.9", "--out", out_file,
    ])
    assert code == 0
    with open(out_file, encoding="utf-8") as fh:
        doc = json.load(fh)
    assert doc["pass"] is True
    assert doc["kind"] == "lemma_inequality"


def test_cmd_verify_lemma_bad_inputs(tmp_path, capsys):
    cfg_path = write_config(tmp_path, BASE_SICA)
    assert main(["verify-lemma", "--config", cfg_path,
                 "--coordinate", "S", "--g", "cubic", "--xbar", "1.0"]) == 2
    assert main(["verify-lemma", "--config", cfg_path,
                 "--coordinate", "Z", "--xbar", "1.0"]) == 2
    assert main(["verify-lemma", "--config", cfg_path,
                 "--coordinate", "S", "--xbar", "-2.0"]) == 2


@pytest.mark.parametrize("xbar", ["nan", "inf", "0", "-1"])
def test_cmd_verify_lemma_rejects_bad_xbar_before_solving(tmp_path, capsys, monkeypatch, xbar):
    solves = []
    monkeypatch.setattr("fracstab.cli.solve_fde_abm", lambda *args: solves.append(args))
    code = main(["verify-lemma", "--config", write_config(tmp_path, BASE_SICA),
                 "--coordinate", "S", "--xbar", xbar])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert "xbar must be finite and strictly positive" in err["message"]
    assert solves == []


def test_cmd_verify_lemma_non_positive_samples_exit_2(tmp_path, capsys):
    # read as mass action with a small beta, I undershoots to -15,397 at node 2
    doc = copy.deepcopy(BASE_SICA)
    doc["params"]["incidence"] = "mass_action"
    doc["params"]["beta"] = 1e-5
    doc["orders"] = [0.5]
    doc["t_end"] = 4.0
    doc["steps"] = 10
    code = main(["verify-lemma", "--config", write_config(tmp_path, doc),
                 "--coordinate", "I", "--xbar", "1.0"])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "DomainError"
    assert "sample 2 is -15396." in err["message"]


def test_cmd_report_disease_free_certified(tmp_path, capsys):
    code = main(["report", "--config", write_config(tmp_path, BASE_SICA)])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["regime"] == "disease-free"
    for entry in doc["per_order"]:
        assert entry["verdict"] == "disease-free, certified"
        assert "ball_entry_time_5pct" in entry


def test_cmd_report_endemic_certified(tmp_path, capsys, monkeypatch):
    newton_calls = []
    newton = sica.damped_newton

    def counted_newton(*args, **kwargs):
        newton_calls.append(args)
        return newton(*args, **kwargs)

    monkeypatch.setattr(sica, "damped_newton", counted_newton)
    doc = copy.deepcopy(BASE_SICA)
    doc["params"]["beta"] = 0.866
    doc["functionals"] = ["v1"]
    code = main(["report", "--config", write_config(tmp_path, doc)])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["regime"] == "endemic"
    assert all(e["verdict"] == "endemic, certified" for e in out["per_order"])
    # the endemic point is solved once and anchors the functional too
    assert len(newton_calls) == 1


def test_cmd_report_flags_mass_action_inconsistency(tmp_path, capsys):
    doc = copy.deepcopy(BASE_SICA)
    doc["params"]["incidence"] = "mass_action"
    # keep the horizon tiny: read literally as mass action, the calibrated
    # transmission coefficient makes the disease-free point violently
    # unstable, which is exactly the inconsistency being flagged
    doc["steps"] = 50
    doc["t_end"] = 1e-4
    code = main(["report", "--config", write_config(tmp_path, doc)])
    assert code == 1
    out = json.loads(capsys.readouterr().out)
    assert out["r0_spectral_consistent"] is False
    assert all("inconsistency" in e["verdict"] for e in out["per_order"])


def test_missing_config_file_is_config_error(tmp_path):
    assert main(["r0", "--config", str(tmp_path / "nope.json")]) == 2


@pytest.mark.parametrize("field,value", [
    ("initial_state", ["a", 1, 2, 3]),
    ("params", 5),
    ("steps", "x"),
    ("orders", 0.5),
    ("t_end", None),
    ("functionals", [["v0"]]),
    ("steps", 100.7),
    ("steps", float("inf")),
    ("params", []),
])
def test_mistyped_config_value_exits_2_with_json_error(tmp_path, capsys, field, value):
    doc = copy.deepcopy(BASE_SICA)
    doc[field] = value
    code = main(["r0", "--config", write_config(tmp_path, doc)])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"


@pytest.mark.parametrize("base,field,value", [
    (BASE_SICA, "orders", [True]),
    (BASE_SICA, "t_end", True),
    (BASE_SICA, "steps", True),
    (BASE_SICA, "initial_state", [True, 74574.696, 37287.348, 37287.348]),
    (BASE_SICA, "params", dict(BASE_SICA["params"], beta=True)),
    (BASE_TEIV, "params", dict(BASE_TEIV["params"], alpha1=False)),
], ids=["orders", "t_end", "steps", "initial_state", "sica_param", "teiv_param"])
def test_boolean_config_number_exits_2_with_json_error(tmp_path, capsys, base, field, value):
    # Python takes true as 1: without the check, "orders": [true] would
    # solve at order 1.0 and pass
    doc = copy.deepcopy(base)
    doc[field] = value
    code = main(["report", "--config", write_config(tmp_path, doc)])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert "boolean" in err["message"]


def test_newton_failure_exits_2_with_json_error(tmp_path, capsys, monkeypatch):
    def failing_newton(*args, **kwargs):
        raise NewtonError("no convergence after 200 iterations")

    monkeypatch.setattr(teiv, "damped_newton", failing_newton)
    code = main(["report", "--config", write_config(tmp_path, BASE_TEIV)])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "NewtonError", "message": "no convergence after 200 iterations"}
