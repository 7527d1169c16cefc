"""The benchmark's own code, imported unedited from ``bench/``.

Its tracer patches package functions by name and its checks build a
``ModelDefinition`` positionally.  A rename or a reordered field there
breaks the traced benchmark while every other test stays green.
"""

import importlib.util
import json
import os
import sys

import numpy as np

import fracstab.cli as cli

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)


def _bench_module(name):
    spec = importlib.util.spec_from_file_location(
        f"bench_{name}", os.path.join(ROOT, "bench", f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def _teiv_demo_40_steps():
    """The TEIV demo at its own step size, 40 steps long."""
    with open(os.path.join(ROOT, "configs", "teiv_demo.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    return dict(doc, t_end=40 * doc["t_end"] / doc["steps"], steps=40)


def test_tracer_patches_every_lookup_point_and_restores_it(tmp_path):
    tracing = _bench_module("tracing")
    path = tmp_path / "teiv.json"
    path.write_text(json.dumps(_teiv_demo_40_steps()))
    tracer = tracing.Tracer()
    originals = tracing.install(tracer)
    try:
        assert all(getattr(owner, attr) is not fn for owner, attr, fn in originals)
        code = cli.main(["report", "--config", str(path)])
    finally:
        tracing.uninstall(originals)
    assert all(getattr(owner, attr) is fn for owner, attr, fn in originals)

    assert code == 0
    spans = [span.name for span in tracer.spans]
    summary = tracer.summary()
    assert summary["cli.calls"] == 1 and summary["newton.calls"] == 1
    assert summary["solver.abm_calls"] == 2 and summary["solver.node_steps"] == 80
    # f(x0) and two calls a step per solve, plus the 4 x 2 central differences
    # of the spectral check: the step must not change how often it evaluates
    assert summary["models.rhs_calls"] == 2 * (1 + 2 * 40) + 8
    # one functional pass per solve feeds both the L1 derivative and the scale
    assert spans.count("lyapunov.values_along") == 2
    # each solve's L1 derivative and certificate are looked up on cli, where the tracer wraps them
    assert spans.count("lyapunov.decrescence") == 4


def test_order1_reference_builds_the_program_model_positionally():
    checks = _bench_module("checks")
    ref = checks.Order1Reference(_teiv_demo_40_steps())
    assert ref.exact.shape == ref.half_step.shape == (41, 4)
    assert np.isfinite(ref.errors(ref.half_step)).all()


def test_every_workload_command_line_parses():
    workloads = _bench_module("workloads")
    parser = cli._build_parser()
    for name in workloads.WORKLOADS:
        _, items = workloads.make_workload(name, 1)
        for item in items:
            argv = workloads.item_argv(item, f"{item['config']}.json", "out")
            assert parser.parse_args(argv).command == item["command"], argv
