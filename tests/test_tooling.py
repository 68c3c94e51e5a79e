"""The names that tooling and users look up in the package still resolve.

``perfbench/tracing.py`` wraps the functions in its ``LAYER_FUNCTIONS`` table
by name (``--trace 1``); a rename or deletion there would break tracing, not
any program test.  The file is only read here.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

import hinfgp

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


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
