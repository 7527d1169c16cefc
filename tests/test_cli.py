import copy
import dataclasses
import json
import os
import re

import numpy as np
import pytest

from fracstab import (
    ConfigError,
    FractionalOrder,
    LyapunovFunctional,
    NewtonError,
    Trajectory,
    UniformGrid,
    caputo_of_functional,
    decrescence_certificate,
    default_tolerance,
    solve_fde_abm,
)
from fracstab.cli import certify_order, main
from fracstab.config import ExperimentConfig, config_from_dict, load_config
from fracstab.csvio import write_csv
from fracstab.models import MODELS, ModelSpec, sica
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


CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


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


@pytest.mark.parametrize("orders", [[0.8, 0.8], [0.5, 0.5000001]])
def test_config_rejects_orders_whose_file_names_collide(orders):
    doc = dict(copy.deepcopy(BASE_TEIV), orders=orders)
    with pytest.raises(ConfigError, match=rf"orders \[{orders[0]}, {orders[1]}\] share a file name"):
        config_from_dict(doc)


def test_negative_initial_state_is_a_config_error_before_any_solve(tmp_path, capsys, monkeypatch):
    def no_solve(*args):
        raise AssertionError("solve_fde_abm ran")

    monkeypatch.setattr("fracstab.cli.solve_fde_abm", no_solve)
    doc = dict(copy.deepcopy(BASE_TEIV), initial_state=[40.0, -1.0, 1.0, 5.0])
    assert main(["report", "--config", write_config(tmp_path, doc)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "ConfigError", "message": "initial_state must be non-negative; ['E'] below 0"}


@pytest.mark.parametrize("command", ["report", "simulate", "verify-lemma"])
@pytest.mark.parametrize("config,label,xbar", [("teiv_demo", "T", "23.3"), ("fig2", "S", "144339.46")])
def test_zero_initial_state_at_a_positive_anchor_fails_before_any_solve(
        tmp_path, capsys, monkeypatch, command, config, label, xbar):
    # psi anchored at a positive value refuses node 0, so no solve may run first
    solves = []
    monkeypatch.setattr("fracstab.cli.solve_fde_abm",
                        lambda *args: solves.append(args) or solve_fde_abm(*args))
    with open(os.path.join(CONFIGS, f"{config}.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["initial_state"][0] = 0.0
    argv = [command, "--config", write_config(tmp_path, doc)]
    if command == "simulate":
        argv += ["--out", str(tmp_path / "out")]
    if command == "verify-lemma":
        argv += ["--coordinate", label, "--xbar", xbar]
    assert main(argv) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert err["message"].startswith(f"initial_state {label} = 0.0 is below psi's floor")
    assert solves == []
    assert not (tmp_path / "out").exists()


def test_verify_lemma_checks_only_its_coordinate_against_the_floor(tmp_path, capsys, monkeypatch):
    solves = []
    monkeypatch.setattr("fracstab.cli.solve_fde_abm",
                        lambda *args: solves.append(args) or solve_fde_abm(*args))
    doc = dict(copy.deepcopy(BASE_SICA), initial_state=[0.0, 74574.696, 37287.348, 37287.348])
    argv = ["verify-lemma", "--config", write_config(tmp_path, doc), "--xbar", "1000.0"]
    assert main(argv + ["--coordinate", "S"]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"
    assert solves == []
    assert main(argv + ["--coordinate", "I"]) in (0, 1)
    assert json.loads(capsys.readouterr().out)["kind"] == "lemma_inequality"
    assert len(solves) == 1


def test_unknown_model_exits_2_naming_it(tmp_path, capsys):
    doc = dict(copy.deepcopy(BASE_TEIV), model="tiev")
    assert main(["report", "--config", write_config(tmp_path, doc)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError" and "'tiev'" in err["message"]


@pytest.mark.parametrize("name,value", [("mu_T", 0), ("alpha1", -0.1)])
def test_params_value_the_dataclass_rejects_exits_2_naming_it(tmp_path, capsys, name, value):
    doc = copy.deepcopy(BASE_TEIV)
    doc["params"][name] = value
    assert main(["report", "--config", write_config(tmp_path, doc)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError" and f"parameter {name} must be" in err["message"]


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


@pytest.mark.parametrize("n", [801, 5001], ids=["1_to_4_a_column", "about_19_a_column"])
def test_svg_long_curve_keeps_each_columns_first_last_and_y_extremes(tmp_path, n):
    # n samples over 265 pixel columns; M4 applies at every density
    rng = np.random.default_rng(12)
    times = np.linspace(0.0, 2000.0, n)
    curve = np.cumsum(rng.standard_normal(times.size))
    path = str(tmp_path / "plot.svg")
    plot_panels(path, times, [("X", [curve])], ["a"])
    with open(path, encoding="utf-8") as fh:
        (line,) = [ln for ln in fh.read().splitlines() if ln.startswith("<polyline")]
    emitted = line.split('points="')[1].split('"')[0].split()

    # every sample formatted; at least 0.0528 px apart, so each x string names one sample
    left = top = 48
    sx = (360 - 2 * 48) / (times[-1] - times[0])
    sy = (240 - 2 * 48) / (curve.max() - curve.min())
    full = [f"{left + (t - times[0]) * sx:.2f},{top + (curve.max() - y) * sy:.2f}"
            for t, y in zip(times, curve)]
    index_of = {point.split(",")[0]: k for k, point in enumerate(full)}
    kept = [index_of[point.split(",")[0]] for point in emitted]
    assert [full[k] for k in kept] == emitted
    assert all(a < b for a, b in zip(kept, kept[1:]))  # time order, no repeats
    xs = [float(point.split(",")[0]) for point in emitted]
    assert all(a <= b for a, b in zip(xs, xs[1:]))

    columns = np.floor((times - times[0]) * sx).astype(int)
    assert len(emitted) < times.size
    for col in np.unique(columns):
        members = np.flatnonzero(columns == col)
        mine = [k for k in kept if columns[k] == col]
        assert len(mine) <= 4
        assert members[0] in mine and members[-1] in mine
        ys = [float(full[k].split(",")[1]) for k in members]
        kept_ys = [float(full[k].split(",")[1]) for k in mine]
        assert min(kept_ys) == min(ys) and max(kept_ys) == max(ys)


# ---------------------------------------------------------------- commands

def test_cmd_r0_baseline(tmp_path, capsys):
    code = main(["r0", "--config", write_config(tmp_path, BASE_SICA)])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["r0"] == pytest.approx(0.2900, abs=5e-4)
    assert doc["endemic"] is None
    assert doc["free"][0] == pytest.approx(7.4575e5, rel=1e-4)


def test_cmd_r0_teiv(tmp_path, capsys):
    code = main(["r0", "--config", write_config(tmp_path, BASE_TEIV)])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["r0"] == pytest.approx(3.0303, abs=1e-3)
    assert doc["endemic"] is not None


@pytest.mark.parametrize("config,header", [
    (None, "t,S,I,C,A,V_v0,dcaputo_V_v0"),
    ("teiv_demo.json", "t,T,E,I,V,V_teiv_at_anchor,dcaputo_V_teiv_at_anchor"),
], ids=["base_sica", "teiv_demo"])
def test_cmd_simulate_artifacts_round_trip(tmp_path, capsys, config, header):
    path = os.path.join(CONFIGS, config) if config else write_config(tmp_path, BASE_SICA)
    out_dir = str(tmp_path / "out")
    assert main(["simulate", "--config", path, "--out", out_dir]) == 0
    cfg = load_config(path)
    grid = UniformGrid(0.0, cfg.t_end / cfg.steps, cfg.steps)
    for order in cfg.orders:
        written, cols = read_csv(os.path.join(out_dir, f"trajectory_order_{order.alpha:g}.csv"))
        assert written == header.split(",")
        # emitted samples must be bit-identical to an in-process solve
        traj = solve_fde_abm(cfg.spec.model(cfg.params), order, np.asarray(cfg.initial_state), grid)
        np.testing.assert_array_equal(cols[1], traj.component(0))

    with open(os.path.join(out_dir, "states.svg"), encoding="utf-8") as fh:
        svg = fh.read()
    assert svg.startswith("<?xml")
    assert svg.count("<polyline") == 8  # 4 state panels x 2 orders
    assert 'stroke="blue"' in svg and 'stroke="red"' in svg


def test_cmd_simulate_draws_a_flat_curve_inside_its_panel(tmp_path, capsys):
    # from the disease-free point I, C and A stay exactly 0: each of their
    # panels has ymax == ymin
    with open(os.path.join(CONFIGS, "fig1.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["initial_state"] = [745746.99, 0.0, 0.0, 0.0]
    out_dir = str(tmp_path / "out")
    assert main(["simulate", "--config", write_config(tmp_path, doc), "--out", out_dir]) == 0
    header, cols = read_csv(os.path.join(out_dir, "trajectory_order_0.5.csv"))
    assert all((cols[header.index(label)] == 0.0).all() for label in ("I", "C", "A"))
    with open(os.path.join(out_dir, "states.svg"), encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    polylines = 0
    for line in lines:
        if line.startswith("<rect") and 'fill="none"' in line:
            x, y, w, h = (float(line.split(f'{k}="')[1].split('"')[0])
                          for k in ("x", "y", "width", "height"))
        elif line.startswith("<polyline"):
            polylines += 1
            for point in line.split('points="')[1].split('"')[0].split():
                px, py = map(float, point.split(","))
                assert x <= px <= x + w and y <= py <= y + h, (point, x, y, w, h)
    assert polylines == 16  # 4 state panels x 4 orders


def test_cmd_simulate_fig2_writes_a_decimated_svg(tmp_path, capsys):
    # 16 curves of 5,001 nodes: 1.1 MB with every sample, about 124 KB with M4
    out_dir = str(tmp_path / "out")
    code = main(["simulate", "--config", os.path.join(CONFIGS, "fig2.json"), "--out", out_dir])
    assert code == 0
    assert os.path.getsize(os.path.join(out_dir, "states.svg")) < 200_000


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


def test_cmd_simulate_undershoot_removes_partial_outputs(tmp_path, capsys):
    # read as mass action with a small beta, order 0.6 solves, then order 0.5
    # undershoots below zero at node 2: every solve runs before any write
    doc = copy.deepcopy(BASE_SICA)
    doc["params"]["incidence"] = "mass_action"
    doc["params"]["beta"] = 1e-5
    doc["orders"] = [0.6, 0.5]
    doc["t_end"] = 2000.0
    doc["steps"] = 5000
    doc["functionals"] = ["v1"]
    out_dir = str(tmp_path / "out")
    code = main(["simulate", "--config", write_config(tmp_path, doc), "--out", out_dir])
    assert code == 3
    assert json.loads(capsys.readouterr().out) == {"error": "undershoot", "node": 2, "order": 0.5}
    assert not os.path.exists(out_dir)


def test_cmd_simulate_removes_a_half_written_file(tmp_path, monkeypatch, capsys):
    def failing_plot(path, *args):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("<?xml")
        raise OSError("no space left on device")

    monkeypatch.setattr("fracstab.cli.plot_panels", failing_plot)
    out_dir = str(tmp_path / "out")
    code = main(["simulate", "--config", write_config(tmp_path, BASE_SICA), "--out", out_dir])
    assert code == 2
    assert json.loads(capsys.readouterr().err) == {"error": "OSError", "message": "no space left on device"}
    assert os.listdir(out_dir) == []


def test_os_error_on_an_output_path_exits_2_before_any_output(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    config = write_config(tmp_path, BASE_TEIV)
    code = main(["simulate", "--config", config, "--out", str(blocker / "out")])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert json.loads(captured.err)["error"] == "NotADirectoryError"


@pytest.mark.parametrize("command", ["report", "simulate", "verify-lemma"])
def test_grid_too_large_to_allocate_exits_2_and_creates_nothing(tmp_path, capsys, command):
    # 10**15 steps ask for 7 PiB, more than any address space holds, so the
    # first allocation fails at once
    doc = dict(copy.deepcopy(BASE_TEIV), steps=10**15)
    out_dir = tmp_path / "out"
    extra = {
        "report": [],
        "simulate": ["--out", str(out_dir)],
        "verify-lemma": ["--coordinate", "T", "--xbar", "23.3"],
    }[command]
    assert main([command, "--config", write_config(tmp_path, doc)] + extra) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["error"] == "MemoryError" and "Unable to allocate" in err["message"]
    assert not out_dir.exists()


def test_cmd_simulate_divergence_removes_partial_outputs(tmp_path, capsys):
    doc = diverging_mass_action_config()
    out_dir = str(tmp_path / "out")
    code = main(["simulate", "--config", write_config(tmp_path, doc), "--out", out_dir])
    assert code == 3
    assert not os.path.exists(out_dir)
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
    code = main([command, "--config", write_config(tmp_path, doc)] + extra)
    assert code == 3
    assert json.loads(capsys.readouterr().out) == {"error": "divergence", "node": 3, "order": 0.5}
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["report", "simulate"])
def test_diverging_solve_prints_only_its_json(tmp_path, capsys, command):
    # inf reaches the near-field history sum at node 65 of order 0.2; the
    # finiteness guard reports that node, and numpy warns of nothing (a
    # RuntimeWarning would escape main here, as warnings are errors)
    doc = {
        "model": "sica",
        "params": {"lambda_": 287.93937144974944, "mu": 0.23383192334306496,
                   "beta": 41.86276748043872, "rho": 9.989618506529423,
                   "phi": 0.4100995727518101, "alpha_t": 0.005256563600471007,
                   "omega": 0.006607089833277681, "d": 0.4919489377203808,
                   "incidence": "standard"},
        "orders": [0.2, 0.335, 0.602],
        "initial_state": [10.480535359849316, 305.5357827123813, 1688831.745012575,
                          3.4358868442902057],
        "t_end": 0.0033228662579858482,
        "steps": 200,
        "functionals": ["v1"],
    }
    extra = ["--out", str(tmp_path / "out")] if command == "simulate" else []
    assert main([command, "--config", write_config(tmp_path, doc)] + extra) == 3
    captured = capsys.readouterr()
    assert json.loads(captured.out) == {"error": "divergence", "node": 65, "order": 0.2}
    assert captured.err == ""
    assert not (tmp_path / "out").exists()


def fig1_config(**params):
    with open(os.path.join(CONFIGS, "fig1.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["params"].update(params)
    return doc


@pytest.mark.parametrize("command", ["report", "simulate", "verify-lemma"])
def test_undershoot_json_names_node_and_order(tmp_path, capsys, command):
    # fig1 read as mass action at a small beta: at order 0.5, I is -15,397 at node 2
    doc = fig1_config(incidence="mass_action", beta=1e-5)
    extra = {
        "report": [],
        "simulate": ["--out", str(tmp_path / "out")],
        "verify-lemma": ["--coordinate", "S", "--xbar", "1.0", "--order", "0.5"],
    }[command]
    assert main([command, "--config", write_config(tmp_path, doc)] + extra) == 3
    assert json.loads(capsys.readouterr().out) == {"error": "undershoot", "node": 2, "order": 0.5}
    assert not (tmp_path / "out").exists()


def test_undershoot_floor_scales_with_the_running_maximum(tmp_path, capsys):
    # at h = 1.0 the order-0.5 solve first goes negative at node 7 and ends
    # near 4.5e182: a floor scaled by the whole trajectory would wait to node 1911
    doc = dict(fig1_config(), orders=[0.5], steps=2000)
    assert main(["report", "--config", write_config(tmp_path, doc)]) == 3
    assert json.loads(capsys.readouterr().out) == {"error": "undershoot", "node": 7, "order": 0.5}


# the printed key order of both certificates; "order" follows for the lemma's
CERTIFICATE_KEYS = ["kind", "max_violation", "tolerance", "pass", "violating_node", "grid"]


def test_cmd_verify_lemma_pass(tmp_path, capsys):
    code = main([
        "verify-lemma", "--config", write_config(tmp_path, BASE_SICA),
        "--coordinate", "S", "--g", "identity", "--xbar", "745746.99", "--order", "0.9",
    ])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert list(doc) == [*CERTIFICATE_KEYS, "order"]
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


def test_cmd_verify_lemma_non_positive_samples_exit_3(tmp_path, capsys):
    # read as mass action with a small beta, I undershoots to -15,397 at node 2
    doc = copy.deepcopy(BASE_SICA)
    doc["params"]["incidence"] = "mass_action"
    doc["params"]["beta"] = 1e-5
    doc["orders"] = [0.5]
    doc["t_end"] = 4.0
    doc["steps"] = 10
    code = main(["verify-lemma", "--config", write_config(tmp_path, doc),
                 "--coordinate", "I", "--xbar", "1.0"])
    assert code == 3
    assert json.loads(capsys.readouterr().out) == {"error": "undershoot", "node": 2, "order": 0.5}


def test_cmd_report_disease_free_certified(tmp_path, capsys):
    code = main(["report", "--config", write_config(tmp_path, BASE_SICA)])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["regime"] == "disease-free"
    for entry in doc["per_order"]:
        assert entry["verdict"] == "disease-free, certified"
        assert "ball_entry_time_5pct" in entry
        assert list(entry["decrescence"]) == CERTIFICATE_KEYS


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


@pytest.mark.parametrize("beta", [0.22760119914166133, 0.22760119914166144])
def test_fig1_a_few_ulp_above_the_threshold_has_a_positive_endemic_point(tmp_path, capsys, beta):
    # here Newton from the positive seed steps to I, C, A ~ -1e-10, so the seed
    # is the endemic point, and the functional's anchor is positive
    with open(os.path.join(CONFIGS, "fig1.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["params"].update(mu=1.0 / 69.54, beta=beta)
    doc.update(steps=100, t_end=40.0, orders=[0.9], functionals=["v1"])
    path = write_config(tmp_path, doc)
    assert main(["r0", "--config", path]) == 0
    r0_doc = json.loads(capsys.readouterr().out)
    assert 0.0 < r0_doc["threshold"] - 1.0 < 1e-15
    assert all(v > 0 for v in r0_doc["endemic"])
    assert main(["report", "--config", path]) == 0
    per_order = json.loads(capsys.readouterr().out)["per_order"]
    assert [e["verdict"] for e in per_order] == ["endemic, certified"]
    assert main(["simulate", "--config", path, "--out", str(tmp_path / "out")]) == 0


def test_cmd_report_uncertified_order_exits_1(capsys, monkeypatch):
    # a tolerance no derivative can meet at order 0.8 only; finite, so the JSON stays standard
    tolerance = default_tolerance
    monkeypatch.setattr("fracstab.cli.default_tolerance", lambda grid, order, V: (
        -1e300 if order.alpha == 0.8 else tolerance(grid, order, V)))
    assert main(["report", "--config", os.path.join(CONFIGS, "teiv_demo.json")]) == 1
    per_order = json.loads(capsys.readouterr().out)["per_order"]
    assert [e["verdict"] for e in per_order] == ["endemic, uncertified", "endemic, certified"]
    assert per_order[0]["decrescence"]["pass"] is False
    assert per_order[0]["decrescence"]["violating_node"] == 0


def mass_action_fig2(tmp_path):
    """fig2 read as mass action, with beta scaled to threshold 2, on 500 steps to T = 200."""
    with open(os.path.join(CONFIGS, "fig2.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["params"]["incidence"] = "mass_action"
    p = sica.SicaParams(**doc["params"])
    doc["params"]["beta"] = p.beta * 2.0 / sica.endemic_threshold(p)
    doc["steps"], doc["t_end"] = 500, 200.0
    return write_config(tmp_path, doc, "mass_action_fig2.json")


def test_cmd_report_certifies_mass_action_above_its_threshold(tmp_path, capsys):
    # r0 is 2.7e-6 here: the threshold, not r0, decides persistence and consistency
    code = main(["report", "--config", mass_action_fig2(tmp_path)])
    out = json.loads(capsys.readouterr().out)
    assert out["r0"] < 1e-5 and out["r0_spectral_consistent"] is True
    assert [e["verdict"] for e in out["per_order"]] == ["endemic, certified"] * 4
    assert code == 0


def test_a_consistency_check_on_r0_fails_mass_action_above_its_threshold(
        tmp_path, capsys, monkeypatch):
    # the check as it stood before the threshold decided it: r0 in the threshold's place
    check = ModelSpec.spectral_consistent
    monkeypatch.setattr(ModelSpec, "spectral_consistent",
                        lambda spec, p: check(dataclasses.replace(spec, threshold=spec.r0), p))
    with pytest.raises(AssertionError):
        test_cmd_report_certifies_mass_action_above_its_threshold(tmp_path, capsys)


def test_cmd_report_flags_a_field_that_disagrees_with_the_threshold(tmp_path, capsys, monkeypatch):
    # threshold 0.9, but a transmission term 1.2x the published one makes the
    # free point unstable: report's own spectral test must see it and exit 1
    doc = copy.deepcopy(BASE_SICA)
    p = sica.SicaParams(**doc["params"])
    doc["params"]["beta"] = p.beta * 0.9 / sica.endemic_threshold(p)
    field = sica.sica_field
    monkeypatch.setattr(sica, "sica_field",
                        lambda q: field(dataclasses.replace(q, beta=1.2 * q.beta)))
    code = main(["report", "--config", write_config(tmp_path, doc)])
    out = json.loads(capsys.readouterr().out)
    assert out["regime"] == "disease-free" and out["r0_spectral_consistent"] is False
    assert all(re.fullmatch(r"disease-free, (un)?certified", e["verdict"]) for e in out["per_order"])
    assert code == 1


def test_cmd_report_rejects_an_anchor_that_is_not_an_equilibrium(capsys, monkeypatch):
    endemic = sica.sica_endemic
    monkeypatch.setattr(sica, "sica_endemic", lambda p: 1.05 * endemic(p))
    code = main(["report", "--config", os.path.join(CONFIGS, "fig2.json")])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ContractError" and "not an equilibrium" in err["message"]


def test_cmd_report_per_order_is_certify_order(tmp_path, capsys):
    assert main(["report", "--config", write_config(tmp_path, BASE_SICA)]) == 0
    doc = json.loads(capsys.readouterr().out)
    cfg = config_from_dict(BASE_SICA)
    target = cfg.spec.predicted(cfg.params)
    functional = cfg.spec.functional_at(cfg.params, target)
    grid = UniformGrid(0.0, cfg.t_end / cfg.steps, cfg.steps)
    for order, entry in zip(cfg.orders, doc["per_order"]):
        traj = solve_fde_abm(cfg.spec.model(cfg.params), order, cfg.initial_state, grid)
        expected = certify_order(functional, traj, target, "disease-free")
        assert list(expected) == [
            "order", "verdict", "decrescence", "final_relative_distance", "ball_entry_time_5pct"]
        assert expected["verdict"] == "disease-free, certified"
        assert json.dumps(entry) == json.dumps(expected)


# ---------------------------------------------------------------- per-order evidence

def hand_built(states, target, h=0.5, alpha=0.9):
    """A trajectory through given states, a log-Volterra functional at ``target``,
    and their ``certify_order`` entry in the endemic regime."""
    states = np.asarray(states, dtype=float)
    traj = Trajectory(UniformGrid(0.0, h, len(states) - 1), states, FractionalOrder(alpha))
    functional = LyapunovFunctional((1.0,) * len(target), target)
    return traj, functional, certify_order(functional, traj, target, "endemic")


def decrescence_of(functional, traj):
    """The decrescence certificate that ``certify_order`` should report."""
    V = functional.values_along(traj.states)
    tolerance = default_tolerance(traj.grid, traj.order, V)
    return decrescence_certificate(caputo_of_functional(V, traj), tolerance)


def test_certify_order_ball_entry_is_the_first_node_within_5pct():
    # distances over max|target| = 20: 0.5, 0.1, 0.05 (on the boundary), 0.025, 0.075
    traj, functional, entry = hand_built(
        [[10.0, 30.0], [12.0, 21.0], [10.0, 19.0], [10.5, 20.0], [10.0, 21.5]], [10.0, 20.0])
    assert list(entry) == [
        "order", "verdict", "decrescence", "final_relative_distance", "ball_entry_time_5pct"]
    assert entry["order"] == 0.9
    assert entry["ball_entry_time_5pct"] == 1.0
    assert entry["final_relative_distance"] == 0.075
    assert functional.values_along(traj.states).max() > 1.0
    assert entry["decrescence"] == decrescence_of(functional, traj)


def test_certify_order_no_entry_time_outside_the_ball():
    # distances 0.5, 0.25, 0.075
    _, _, entry = hand_built([[10.0, 30.0], [10.0, 25.0], [10.0, 21.5]], [10.0, 20.0])
    assert entry["ball_entry_time_5pct"] is None
    assert entry["final_relative_distance"] == 0.075


def test_certify_order_small_target_is_normalised_by_one():
    # max|target| = 0.5 < 1: distances 0.125, 0.03125 are absolute; doubled, the
    # second would be 0.0625, outside the ball
    traj, functional, entry = hand_built([[0.5, 0.375], [0.5, 0.28125]], [0.5, 0.25])
    assert entry["final_relative_distance"] == 0.03125
    assert entry["ball_entry_time_5pct"] == traj.grid.h
    assert functional.values_along(traj.states).max() < 1.0  # so the tolerance scale is 1
    assert entry["decrescence"] == decrescence_of(functional, traj)
    assert entry["decrescence"]["tolerance"] == 10.0 * traj.grid.h ** (2.0 - traj.order.alpha)


def test_missing_config_file_is_config_error(tmp_path):
    assert main(["r0", "--config", str(tmp_path / "nope.json")]) == 2


@pytest.mark.parametrize("argv,message", [
    (["report"], "the following arguments are required: --config"),
    (["verify-lemma", "--config", "c.json", "--coordinate", "S", "--xbar", "abc"],
     "argument --xbar: invalid float value: 'abc'"),
    (["frobnicate", "--config", "c.json"], "argument command: invalid choice: 'frobnicate'"),
], ids=["no_config", "malformed_xbar", "unknown_command"])
def test_usage_error_exits_2_with_json_error(capsys, argv, message):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["error"] == "ArgumentError" and err["message"].startswith(message)


@pytest.mark.parametrize("command,extra", [
    ("r0", []), ("report", []), ("verify-lemma", ["--coordinate", "T", "--xbar", "23.3"]),
], ids=["r0", "report", "verify-lemma"])
def test_out_is_a_usage_error_outside_simulate(tmp_path, capsys, command, extra):
    out_file = tmp_path / "r.json"
    config = os.path.join(CONFIGS, "teiv_demo.json")
    assert main([command, "--config", config, *extra, "--out", str(out_file)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["error"] == "ArgumentError" and "unrecognized arguments: --out" in err["message"]
    assert not out_file.exists()


def test_help_still_exits_0_with_text(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["report", "--help"])
    assert exit_.value.code == 0
    assert capsys.readouterr().out.startswith("usage: fracstab report")


def test_non_utf8_config_exits_2_with_json_error(tmp_path, capsys):
    # exit 1 is "a certificate fails": an unreadable config is not that
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"model": "sica\xff"}')
    assert main(["report", "--config", str(path)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert "not UTF-8: byte 15" in err["message"]


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
    ("initial_state", "1234"),
    ("initial_state", ["596597.568", 74574.696, 37287.348, 37287.348]),
    ("t_end", "2000"),
    ("orders", "1"),
    ("orders", ["0.5"]),
    ("functionals", "v0"),
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


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")],
                         ids=["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("field", ["params", "initial_state"])
@pytest.mark.parametrize("command", ["r0", "report", "simulate"])
def test_non_finite_config_number_exits_2_with_json_error(tmp_path, capsys, command, field, value):
    # Python's json reads NaN and Infinity; unchecked, report on "beta": NaN
    # ends in a LinAlgError traceback with exit 1, and r0 in a NewtonError
    doc = copy.deepcopy(BASE_SICA)
    if field == "params":
        doc["params"]["beta"] = value
    else:
        doc["initial_state"][1] = value
    argv = [command, "--config", write_config(tmp_path, doc)]
    out_dir = tmp_path / "out"
    if command == "simulate":
        argv += ["--out", str(out_dir)]
    assert main(argv) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert "finite" in err["message"] and json.dumps(value) in err["message"]
    assert not out_dir.exists()


def _wrong_json_types():
    """(base, path, value, name) cases for each field of the config, the first item of
    each of its arrays and each field of every registered model's params, set to
    values of each JSON type that the field's value in a valid config is not."""
    bases = {"sica": BASE_SICA, "teiv": BASE_TEIV}
    paths = [(BASE_SICA, (f.name,)) for f in dataclasses.fields(ExperimentConfig)]
    paths += [(BASE_SICA, (name, 0)) for name in ("orders", "initial_state", "functionals")]
    paths += [(bases[model], ("params", f.name))
              for model, spec in MODELS.items() for f in dataclasses.fields(spec.params)]
    cases = []
    for base, path in paths:
        valid = base
        for key in path:
            valid = valid[key]
        if isinstance(valid, (int, float)):
            wrong = {"numeric_string": str(valid), "big_integer": 10**400}
        else:
            wrong = {"number": 1} if isinstance(valid, str) else {"numeric_string": "1"}
        wrong.update(boolean=True, nested_array=[[1.0]], null=None)
        name = f"{path[0]}[0]" if path[1:] == (0,) else ".".join(path)
        cases += [pytest.param(base, path, value, name, id=f"{base['model']}:{name}:{kind}")
                  for kind, value in wrong.items()]
    return cases


@pytest.mark.parametrize("base,path,value,name", _wrong_json_types())
def test_every_field_of_a_wrong_json_type_exits_2_naming_it(tmp_path, capsys, base, path, value,
                                                            name):
    doc = copy.deepcopy(base)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    assert main(["r0", "--config", write_config(tmp_path, doc)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert err["message"].startswith(name), err["message"]


def test_config_numbers_take_the_types_of_their_fields(tmp_path):
    # integer rates of 300 digits, passed on as ints, overflowed in TEIV's
    # integer arithmetic and escaped main as an OverflowError (exit 1)
    doc = dict(copy.deepcopy(BASE_TEIV), t_end=100, steps=200.0)
    doc["params"].update(lambda_=10**300, k=10**300, beta=10**300)
    cfg = config_from_dict(doc)
    assert {type(cfg.params.lambda_), type(cfg.params.beta), type(cfg.t_end)} == {float}
    assert type(cfg.steps) is int and cfg.steps == 200
    assert main(["r0", "--config", write_config(tmp_path, doc)]) in (0, 2)


def test_a_config_integer_python_refuses_to_read_exits_2(tmp_path, capsys):
    # json.load raises a plain ValueError on an integer of over 4,300 digits
    text = json.dumps(BASE_SICA).replace('"t_end": 50.0', '"t_end": ' + "1" * 5000)
    path = tmp_path / "huge.json"
    path.write_text(text)
    assert main(["r0", "--config", str(path)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"


def test_newton_failure_exits_2_with_json_error(tmp_path, capsys, monkeypatch):
    # the whole of damped_newton fails, its seed fallback included (tests/test_newton.py)
    def failing_newton(*args, **kwargs):
        raise NewtonError("residual 0.001 too large at the seed [1. 2. 3. 4.]")

    monkeypatch.setattr(sica, "damped_newton", failing_newton)
    doc = copy.deepcopy(BASE_SICA)
    doc["params"]["beta"] = 0.866
    code = main(["report", "--config", write_config(tmp_path, doc)])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "NewtonError", "message": "residual 0.001 too large at the seed [1. 2. 3. 4.]"}
