"""The names that tooling and users look up in the package still resolve, the
README's library example runs, and the CLI starts without the SciPy
subpackages it does not need.

Public names live in the submodules: each module's ``__all__`` lists what it
exports, and the package itself exports only ``__version__``.

``perfbench/tracing.py`` wraps the functions in its ``LAYER_FUNCTIONS`` table
by name (``--trace 1``); a rename or deletion there would break tracing, not
any program test.  The file is only read here.

Import cost is most of a short CLI run, so ``import hinfgp.cli`` loads neither
``scipy.signal`` (never used by the package) nor ``scipy.optimize`` (used only
while tuning).  The test suite imports both itself, so these checks run in a
fresh interpreter.

Importing the package's linear-algebra users sets numpy's bundled OpenBLAS to
one thread and leaves scipy's OpenBLAS alone, and fixes glibc's malloc
thresholds so freed work arrays stay in the heap (see ``hinfgp._linalg``);
both are checked in a fresh interpreter, since this one imported them already.
"""

import ast
import ctypes
import importlib
import importlib.util
import json
import os
import platform
import re
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import hinfgp
from hinfgp import _linalg, cli, kernels, regression, sampling, sysid, verify

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


PUBLIC = [
    (module, name)
    for module in (hinfgp, kernels, regression, sampling, verify, sysid, cli)
    for name in module.__all__
]


@pytest.mark.parametrize("module, name", PUBLIC, ids=[name for _, name in PUBLIC])
def test_public_name_resolves(module, name):
    assert hasattr(module, name), f"{module.__name__}.{name}"


def test_tracer_alias_is_not_public():
    """``predict_sl_many`` stays only as the tracer's name for ``predict_sl``;
    the retired entry points are out of every ``__all__``."""
    assert regression.predict_sl_many is regression.predict_sl
    for module, name in (
        (regression, "predict_sl_many"),
        (regression, "SchurComplement"),
        (verify, "ContinuityReport"),
        (verify, "continuity_probe"),
        (verify, "h2_kernel"),
        (kernels, "BoundFamily"),
    ):
        assert name not in module.__all__, f"{module.__name__}.{name}"


def test_readme_library_example_runs():
    """The README's "Library example" block runs as written, and its disk is
    centred on its posterior mean."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    namespace = {}
    exec(code, namespace)
    assert namespace["bound"].center == namespace["mean"]


def fresh_stdout(code):
    """What a fresh interpreter, with the package on its path, prints running ``code``."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120, check=True
    )
    return proc.stdout


def loaded_modules_after(code):
    """The ``sys.modules`` names a fresh interpreter holds after running ``code``."""
    return set(fresh_stdout(code + "\nimport sys\nprint(' '.join(sys.modules))").split())


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


SITE = Path(np.__file__).resolve().parent.parent
NUMPY_OPENBLAS = sorted((SITE / "numpy.libs").glob("libscipy_openblas64_*.so"))
needs_numpy_openblas = pytest.mark.skipif(
    not NUMPY_OPENBLAS, reason="numpy's bundled OpenBLAS (numpy.libs/libscipy_openblas64_*.so) is absent"
)

THREAD_PROBE = """
import ctypes, importlib, json
from pathlib import Path
import numpy, scipy.linalg
site = Path(numpy.__file__).resolve().parent.parent
numpy_blas = ctypes.CDLL(str(sorted((site / "numpy.libs").glob("libscipy_openblas64_*.so"))[0]))
numpy_threads = numpy_blas.scipy_openblas_get_num_threads64_
scipy_libs = sorted((site / "scipy.libs").glob("libscipy_openblas*.so"))
scipy_threads = ctypes.CDLL(str(scipy_libs[0])).scipy_openblas_get_num_threads if scipy_libs else lambda: None
before = {{"numpy": numpy_threads(), "scipy": scipy_threads()}}
importlib.import_module({module!r})
print(json.dumps({{"before": before, "after": {{"numpy": numpy_threads(), "scipy": scipy_threads()}}}}))
"""


@needs_numpy_openblas
@pytest.mark.parametrize("module", ["hinfgp.cli", "hinfgp.regression", "hinfgp.verify", "hinfgp.sysid"])
def test_import_pins_numpy_openblas_to_one_thread(module):
    """numpy's runtime reports 1 thread after the import; scipy's runtime (or
    None where scipy bundles none) reports what it did before."""
    counts = json.loads(fresh_stdout(THREAD_PROBE.format(module=module)))
    assert counts["after"]["numpy"] == 1
    assert counts["after"]["scipy"] == counts["before"]["scipy"]


@pytest.mark.parametrize("contents", [(), ("libscipy_openblas64_bogus.so",)], ids=["empty", "not_a_library"])
def test_pin_without_numpy_openblas_is_a_no_op(tmp_path, contents):
    for name in contents:
        (tmp_path / name).write_bytes(b"not an ELF file")
    assert _linalg._pin_numpy_openblas(tmp_path) is False


needs_glibc = pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="mallopt's thresholds are glibc's")

HEAP_PROBE = """
import resource{imports}
import numpy as np
p = np.full((400, 400), 2.0 + 1.0j)
p / (p - 1.0)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(20):
    p / (p - 1.0)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@needs_glibc
def test_import_keeps_freed_heap():
    """After the import, 20 rounds of 2.5 MB complex temporaries reuse the
    freed heap; without it, glibc hands the pages back and every round
    faults them in again (about 1 200 minor faults a round)."""
    kept = int(fresh_stdout(HEAP_PROBE.format(imports="\nimport hinfgp.verify")))
    returned = int(fresh_stdout(HEAP_PROBE.format(imports="")))
    assert kept < 100 and returned > 1000


@needs_glibc
def test_heap_policy_is_set_through_glibc():
    assert _linalg._keep_freed_heap(ctypes.CDLL(None)) is True


def test_heap_policy_without_mallopt_is_a_no_op():
    assert _linalg._keep_freed_heap(types.SimpleNamespace()) is False


def test_heap_policy_stops_at_a_refused_value():
    """A ``mallopt`` that refuses the mmap threshold (musl's stub returns 0)
    is not asked for the trim threshold, so neither is changed."""
    calls = []

    def refuse(param, value):
        calls.append((param, value))
        return 0

    assert _linalg._keep_freed_heap(types.SimpleNamespace(mallopt=refuse)) is False
    assert calls == [(-3, 32 << 20)]


@needs_numpy_openblas
def test_wide_artifacts_agree_with_two_numpy_threads(tmp_path):
    """The identify-wide shape (wide estimator, 400 filters, fixed mixture)
    run with numpy's OpenBLAS at two threads, as before the pin, agrees with
    the pinned run to 1e-8 relative: the thread count moves only rounding."""
    set_threads = ctypes.CDLL(str(NUMPY_OPENBLAS[0])).scipy_openblas_set_num_threads64_
    set_threads.argtypes = [ctypes.c_int]
    set_threads.restype = None
    cfg = json.loads((ROOT / "configs" / "resonant.json").read_text(encoding="utf-8"))
    cfg["kernel"]["tunable"] = []
    cfg["estimator"] = "wide"
    cfg["filter_bank"]["num_filters"] = 400
    cfg["verify"] = {"n_max": 20, "grid_count": 20}

    def artifacts(threads):
        set_threads(threads)
        out = tmp_path / str(threads)
        cli.run_identify(cli.parse_identify_config({**cfg, "out_dir": str(out)}))
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        table = np.loadtxt(out / "predictions.csv", delimiter=",", skiprows=3)
        return table, [summary[key] for key in ("median_rel_error", "impropriety", "log_marginal_likelihood")]

    try:
        pinned, two = artifacts(1), artifacts(2)
    finally:
        set_threads(1)
    for a, b in zip(pinned, two):
        np.testing.assert_allclose(b, a, rtol=1e-8, atol=0.0)
