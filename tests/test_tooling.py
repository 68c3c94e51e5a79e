"""The names that tooling and users look up in the package still resolve, and
the CLI starts without the SciPy subpackages it does not need.

``perfbench/tracing.py`` wraps the functions in its ``LAYER_FUNCTIONS`` table
by name (``--trace 1``); a rename or deletion there would break tracing, not
any program test.  The file is only read here.

Import cost is most of a short CLI run, so ``import hinfgp.cli`` loads neither
``scipy.signal`` (never used by the package) nor ``scipy.optimize`` (used only
while tuning).  The test suite imports both itself, so these checks run in a
fresh interpreter.
"""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hinfgp

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"
SRC = ROOT / "src"


def layer_functions():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [
        (layer, home, name)
        for layer, (home, names, _) in module.LAYER_FUNCTIONS.items()
        for name in names
    ]


@pytest.mark.parametrize("layer, home, name", layer_functions())
def test_traced_function_exists(layer, home, name):
    assert callable(getattr(importlib.import_module(home), name, None)), f"{layer}: {home}.{name}"


@pytest.mark.parametrize("name", hinfgp.__all__)
def test_public_name_resolves(name):
    assert hasattr(hinfgp, name)


def loaded_modules_after(code):
    """The ``sys.modules`` names a fresh interpreter holds after running ``code``."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))}
    probe = code + "\nimport sys\nprint(' '.join(sys.modules))"
    proc = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120, check=True
    )
    return set(proc.stdout.split())


def test_cli_import_loads_neither_scipy_signal_nor_optimize():
    loaded = loaded_modules_after("import hinfgp.cli")
    assert "hinfgp.cli" in loaded
    assert "scipy.signal" not in loaded
    assert "scipy.optimize" not in loaded


@pytest.mark.parametrize("command, config", [("verify", "verify_h2.json"), ("sample", "sample_geometric.json")])
def test_untuned_commands_leave_scipy_optimize_unloaded(tmp_path, command, config):
    argv = [command, "--config", str(ROOT / "configs" / config), "--out", str(tmp_path)]
    loaded = loaded_modules_after(f"import hinfgp.cli\nassert hinfgp.cli.main({argv!r}) == 0")
    assert "scipy.optimize" not in loaded
    assert any(tmp_path.iterdir())


def test_package_does_not_import_scipy_signal():
    for path in sorted((SRC / "hinfgp").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            assert not any(name.startswith("scipy.signal") for name in names), f"{path.name}: {names}"
