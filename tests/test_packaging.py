import ast
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


def run_fresh(script: str) -> subprocess.CompletedProcess:
    """``script`` in a fresh interpreter, with src on its path, from the repository root."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", script], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)


def test_cli_run_loads_no_scipy():
    # a fresh interpreter: the test session itself imports scipy for the oracles
    run = run_fresh(
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
