import copy
import json
import os

import numpy as np
import pytest

from fracstab import (
    ConfigError,
    FractionalOrder,
    LyapunovFunctional,
    NewtonError,
    Trajectory,
    UniformGrid,
    default_tolerance,
    solve_fde_abm,
)
from fracstab.cli import certify_order, main
from fracstab.config import config_from_dict, load_config
from fracstab.csvio import write_csv
from fracstab.models import sica
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


def test_svg_long_curve_keeps_each_columns_first_last_and_y_extremes(tmp_path):
    # 5,001 samples over 265 pixel columns: about 19 a column, so M4 applies
    rng = np.random.default_rng(12)
    times = np.linspace(0.0, 2000.0, 5001)
    curve = np.cumsum(rng.standard_normal(times.size))
    path = str(tmp_path / "plot.svg")
    plot_panels(path, times, [("X", [curve])], ["a"])
    with open(path, encoding="utf-8") as fh:
        (line,) = [ln for ln in fh.read().splitlines() if ln.startswith("<polyline")]
    emitted = line.split('points="')[1].split('"')[0].split()

    # every sample formatted; 0.0528 px apart, so each x string names one sample
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


def test_svg_keeps_every_sample_up_to_4_per_pixel_column(tmp_path):
    # 264 pixels give 265 columns: 1,060 samples are drawn in full, 1,061 are not
    rng = np.random.default_rng(13)
    emitted = {}
    for n in (1060, 1061):
        times = np.linspace(0.0, 1.0, n)
        path = str(tmp_path / f"plot{n}.svg")
        plot_panels(path, times, [("X", [np.cumsum(rng.standard_normal(n))])], ["a"])
        with open(path, encoding="utf-8") as fh:
            (line,) = [ln for ln in fh.read().splitlines() if ln.startswith("<polyline")]
        emitted[n] = len(line.split('points="')[1].split('"')[0].split())
    assert emitted[1060] == 1060 and emitted[1061] < 1061


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
    # read as mass action with a small beta, order 0.6 solves and is written,
    # then order 0.5 undershoots below zero at node 2
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
    assert os.listdir(out_dir) == []


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
    code = main(["report", "--config", config, "--out", str(tmp_path / "missing" / "r.json")])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert json.loads(captured.err)["error"] == "FileNotFoundError"


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


def test_undershoot_floor_scales_with_the_running_maximum(tmp_path, capsys):
    # at h = 1.0 the order-0.5 solve first goes negative at node 7 and ends
    # near 4.5e182: a floor scaled by the whole trajectory would wait to node 1911
    doc = dict(fig1_config(), orders=[0.5], steps=2000)
    assert main(["report", "--config", write_config(tmp_path, doc)]) == 3
    assert json.loads(capsys.readouterr().out) == {"error": "undershoot", "node": 7, "order": 0.5}


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


def test_cmd_report_rejects_an_anchor_that_is_not_an_equilibrium(capsys, monkeypatch):
    endemic = sica.sica_endemic
    monkeypatch.setattr(sica, "sica_endemic", lambda p: 1.05 * endemic(p))
    code = main(["report", "--config", os.path.join(CONFIGS, "fig2.json")])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ContractError" and "not an equilibrium" in err["message"]


def test_cmd_report_per_order_is_certify_order_plus_verdict(tmp_path, capsys):
    assert main(["report", "--config", write_config(tmp_path, BASE_SICA)]) == 0
    doc = json.loads(capsys.readouterr().out)
    cfg = config_from_dict(BASE_SICA)
    target = cfg.spec.predicted(cfg.params)
    functional = cfg.spec.functional_at(cfg.params, target)
    grid = UniformGrid(0.0, cfg.t_end / cfg.steps, cfg.steps)
    for order, entry in zip(cfg.orders, doc["per_order"]):
        traj = solve_fde_abm(cfg.spec.model(cfg.params), order, cfg.initial_state, grid)
        evidence = certify_order(functional, traj, target).to_json_dict()
        assert entry.pop("verdict") == "disease-free, certified"
        assert entry == json.loads(json.dumps(evidence))


# ---------------------------------------------------------------- per-order evidence

def hand_built(states, target, h=0.5, alpha=0.9):
    """A trajectory through given states, a log-Volterra functional at ``target``,
    and their ``certify_order``."""
    states = np.asarray(states, dtype=float)
    traj = Trajectory(UniformGrid(0.0, h, len(states) - 1), states, FractionalOrder(alpha))
    functional = LyapunovFunctional((1.0,) * len(target), target)
    return traj, functional, certify_order(functional, traj, target)


def test_certify_order_ball_entry_is_the_first_node_within_5pct():
    # distances over max|target| = 20: 0.5, 0.1, 0.05 (on the boundary), 0.025, 0.075
    traj, functional, evidence = hand_built(
        [[10.0, 30.0], [12.0, 21.0], [10.0, 19.0], [10.5, 20.0], [10.0, 21.5]], [10.0, 20.0])
    assert evidence.distances.tolist() == [0.5, 0.1, 0.05, 0.025, 0.075]
    assert evidence.ball_entry_time == 1.0
    assert evidence.final_relative_distance == 0.075
    V = functional.values_along(traj.states)
    assert V.max() > 1.0
    assert evidence.certificate.tolerance == default_tolerance(traj.grid, traj.order, V)
    doc = evidence.to_json_dict()
    assert list(doc) == ["order", "decrescence", "final_relative_distance", "ball_entry_time_5pct"]
    assert doc["order"] == 0.9 and doc["ball_entry_time_5pct"] == 1.0
    assert doc["decrescence"] == evidence.certificate.to_json_dict()


def test_certify_order_no_entry_time_outside_the_ball():
    _, _, evidence = hand_built([[10.0, 30.0], [10.0, 25.0], [10.0, 21.5]], [10.0, 20.0])
    assert evidence.distances.tolist() == [0.5, 0.25, 0.075]
    assert evidence.ball_entry_time is None
    assert evidence.to_json_dict()["ball_entry_time_5pct"] is None
    assert evidence.final_relative_distance == 0.075


def test_certify_order_small_target_is_normalised_by_one():
    # max|target| = 0.5 < 1: distances are absolute, not doubled
    traj, functional, evidence = hand_built([[0.5, 0.375], [0.5, 0.25]], [0.5, 0.25])
    assert evidence.distances.tolist() == [0.125, 0.0]
    assert evidence.ball_entry_time == traj.grid.h
    V = functional.values_along(traj.states)
    assert V.max() < 1.0  # so the tolerance scale is 1
    assert evidence.certificate.tolerance == default_tolerance(traj.grid, traj.order, V)
    assert evidence.certificate.tolerance == 10.0 * traj.grid.h ** (2.0 - traj.order.alpha)


def test_missing_config_file_is_config_error(tmp_path):
    assert main(["r0", "--config", str(tmp_path / "nope.json")]) == 2


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


def test_newton_failure_exits_2_with_json_error(tmp_path, capsys, monkeypatch):
    # SICA's endemic point, which has no fallback; TEIV's chronic point falls
    # back to its closed-form seed (tests/test_teiv.py)
    def failing_newton(*args, **kwargs):
        raise NewtonError("no convergence after 200 iterations")

    monkeypatch.setattr(sica, "damped_newton", failing_newton)
    doc = copy.deepcopy(BASE_SICA)
    doc["params"]["beta"] = 0.866
    code = main(["report", "--config", write_config(tmp_path, doc)])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "NewtonError", "message": "no convergence after 200 iterations"}
