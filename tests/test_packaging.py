import ast
import json
import os
import re
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
PACKAGE = os.path.join(ROOT, "src", "fracstab")


def third_party_imports() -> set:
    """Top-level names of the absolute imports under src/fracstab, less the
    standard library and the package itself."""
    names = set()
    for folder, _, files in os.walk(PACKAGE):
        for name in files:
            if not name.endswith(".py"):
                continue
            with open(os.path.join(folder, name), encoding="utf-8") as fh:
                tree = ast.parse(fh.read())
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    names.update(alias.name.split(".")[0] for alias in node.names)
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"__future__", "fracstab"}


def test_runtime_imports_match_declared_dependencies():
    tomllib = pytest.importorskip("tomllib")
    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as fh:
        deps = tomllib.load(fh)["project"]["dependencies"]
    declared = {re.split(r"[<>=!~;\[ ]", dep)[0] for dep in deps}
    assert third_party_imports() == declared


def run_fresh(*args: str) -> subprocess.CompletedProcess:
    """A fresh interpreter on ``args``, with src on its path, from the repository root."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)


def test_cli_run_loads_no_scipy():
    # a fresh interpreter: the test session itself imports scipy for the oracles
    run = run_fresh(
        "-c",
        "import sys\n"
        "import fracstab.cli as cli\n"
        "code = cli.main(['report', '--config', 'configs/teiv_demo.json'])\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        "sys.exit(code)\n"
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "[]"


def test_cli_import_leaves_numpy_polynomial_to_the_first_quadrature():
    # only psi_profile with a non-identity g uses the Gauss-Legendre rule
    run = run_fresh(
        "-c",
        "import sys\n"
        "import numpy as np\n"
        "import fracstab.cli\n"
        "from fracstab.lyapunov import GFunction, psi_profile\n"
        "print('numpy.polynomial' in sys.modules)\n"
        "psi_profile(GFunction(np.sqrt, 'sqrt'), 2.0, np.array([1.0, 3.0]))\n"
        "print('numpy.polynomial' in sys.modules)\n"
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["False", "True"]


@pytest.mark.parametrize("params,code,stream,expected", [
    (None, 2, "stderr",
     {"error": "ArgumentError", "message": "the following arguments are required: --config"}),
    # fig1 read as mass action at a small beta: at order 0.5, I is negative at node 2
    ({"incidence": "mass_action", "beta": 1e-5}, 3, "stdout",
     {"error": "undershoot", "node": 2, "order": 0.5}),
], ids=["usage_error", "undershoot"])
def test_script_exit_status_and_streams(tmp_path, params, code, stream, expected):
    # the process's own status, through sys.exit(main()), as the console script ends
    argv = ["report"]
    if params is not None:
        with open(os.path.join(ROOT, "configs", "fig1.json"), encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["params"].update(params)
        config = tmp_path / "config.json"
        config.write_text(json.dumps(doc))
        argv += ["--config", str(config)]
    run = run_fresh("-m", "fracstab.cli", *argv)
    printed, other = (run.stderr, run.stdout) if stream == "stderr" else (run.stdout, run.stderr)
    assert run.returncode == code, run.stderr
    assert json.loads(printed) == expected
    assert other == ""
