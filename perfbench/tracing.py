"""Spans around the calls into each hinfgp layer, and the per-layer metrics
derived from them.

The wrappers live in the benchmark, not in the program: ``Tracer.install``
replaces every module attribute of the hinfgp package that is bound to a
listed public function.  ``cli`` and ``regression`` bind names such as
``fit`` and ``gram`` at import, so each function is patched at every
attribute the pipeline can look it up through, not only where it is defined.

A span is ``(name, start, end, parent, experiment, attrs)``: ``parent`` is the
index of the enclosing span (or None), ``experiment`` the benchmark's
experiment id, and ``attrs`` the work counts measured at that boundary.
Spans stay in memory until ``dump`` writes them out at the end of a run.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path


def _etfe_counts(args, kwargs, result):
    spec = args[2] if len(args) > 2 else kwargs["spec"]
    return {"kept": len(result), "filters": spec.num_filters}


def _gram_counts(args, kwargs, result):
    return {"entries": int(result.shape[0]) ** 2}


def _lml_counts(args, kwargs, result):
    return {"finite": int(math.isfinite(result))}


def _driscoll_counts(args, kwargs, result):
    # Per prefix n: Cholesky of R_n (n^3/3) and two triangular solves with n
    # right-hand sides (n^3 each).
    return {"flops": sum(7 * n**3 // 3 for n in result.n_values)}


def _draw_counts(args, kwargs, result):
    return {"coeffs": int(result.size)}


# span name -> (defining module, public functions, count hook)
LAYER_FUNCTIONS = {
    "cli.parse": ("hinfgp.cli", ("parse_identify_config", "parse_verify_config", "parse_sample_config"), None),
    "cli.run": ("hinfgp.cli", ("run_identify", "run_verify", "run_sample"), None),
    "sysid.system": ("hinfgp.sysid", ("make_resonant_system", "make_allpass"), None),
    "sysid.simulate": ("hinfgp.sysid", ("simulate",), None),
    "sysid.noise_var": ("hinfgp.sysid", ("estimate_noise_var",), None),
    "sysid.etfe": ("hinfgp.sysid", ("etfe",), _etfe_counts),
    "kernels.gram": ("hinfgp.kernels", ("gram",), _gram_counts),
    "kernels.from_config": ("hinfgp.kernels", ("from_config",), None),
    "regression.tune": ("hinfgp.regression", ("optimize_hyperparameters",), None),
    "regression.lml": ("hinfgp.regression", ("log_marginal_likelihood",), _lml_counts),
    "regression.fit": ("hinfgp.regression", ("fit",), None),
    "regression.predict_sl": ("hinfgp.regression", ("predict_sl", "predict_sl_many"), None),
    "regression.predict_wl": ("hinfgp.regression", ("predict_wl",), None),
    "regression.schur": ("hinfgp.regression", ("schur_P",), None),
    "verify.symmetry": ("hinfgp.verify", ("symmetry_test",), None),
    "verify.driscoll": ("hinfgp.verify", ("driscoll_test",), _driscoll_counts),
    "sampling.draw": ("hinfgp.sampling", ("sample_stationary_batch", "sample_cozine_batch"), _draw_counts),
}

_PACKAGE_MODULES = (
    "hinfgp",
    "hinfgp.cli",
    "hinfgp.kernels",
    "hinfgp.regression",
    "hinfgp.sampling",
    "hinfgp.sysid",
    "hinfgp.verify",
)


class Tracer:
    """Records spans for the wrapped hinfgp functions while installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.experiment = None
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def span(self, name: str, start: float, end: float) -> None:
        """Record a span measured outside a wrapper (e.g. an import)."""
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, start, end, parent, self.experiment, {}])

    def _wrap(self, name: str, fn, counts):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # from_config recurses into mixture components: time the outer call only
            if self._stack and self.spans[self._stack[-1]][0] == name:
                return fn(*args, **kwargs)
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            record = [name, time.perf_counter(), None, parent, self.experiment, {}]
            self.spans.append(record)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                record[2] = time.perf_counter()
            if counts is not None:
                record[5] = counts(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        modules = [importlib.import_module(m) for m in _PACKAGE_MODULES]
        for name, (home, functions, counts) in LAYER_FUNCTIONS.items():
            defining = importlib.import_module(home)
            for fname in functions:
                original = getattr(defining, fname)
                traced = self._wrap(name, original, counts)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, traced)
                            self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()



def dump(spans: list[list], path: Path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for record in spans:
            handle.write(json.dumps(record) + "\n")


def load_spans(path: Path, offset: int, experiment: int) -> list[list]:
    """Read spans written by ``dump`` in a child process, shifting parent
    indices by ``offset`` and stamping them with ``experiment``."""
    spans = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            if record[3] is not None:
                record[3] += offset
            record[4] = experiment
            spans.append(record)
    return spans


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    own = [end - start for _, start, end, _, _, _ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def shares(spans: list[list], wall: float) -> dict[str, tuple[float, float]]:
    """(self time, inclusive time) of every span name, as shares of ``wall``."""
    own = self_times(spans)
    out: dict[str, tuple[float, float]] = {}
    for (name, start, end, _, _, _), mine in zip(spans, own):
        self_share, inclusive = out.get(name, (0.0, 0.0))
        out[name] = (self_share + mine / wall, inclusive + (end - start) / wall)
    return out


def layer_metrics(spans: list[list], experiments: int, artifact_bytes: float) -> dict[str, float]:
    """Per-experiment means of the per-layer metrics (0 where a layer is idle)."""
    own = self_times(spans)
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    attrs: dict[str, float] = {}
    for name, start, end, _, _, counts in spans:
        total[name] = total.get(name, 0.0) + (end - start)
        calls[name] = calls.get(name, 0) + 1
        for key, value in counts.items():
            attrs[f"{name}.{key}"] = attrs.get(f"{name}.{key}", 0) + value
    cli_self = sum(t for t, rec in zip(own, spans) if rec[0] == "cli.run")

    def per(value: float) -> float:
        return value / experiments

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    return {
        "cli.parse_s": per(total.get("cli.parse", 0.0)),
        "cli.run_s": per(total.get("cli.run", 0.0)),
        "cli.self_s": per(cli_self),
        "cli.artifact_bytes": artifact_bytes,
        "sysid.system_s": per(total.get("sysid.system", 0.0)),
        "sysid.simulate_s": per(total.get("sysid.simulate", 0.0)),
        "sysid.noise_var_s": per(total.get("sysid.noise_var", 0.0)),
        "sysid.etfe_s": per(total.get("sysid.etfe", 0.0)),
        "sysid.sites_kept_ratio": ratio(attrs.get("sysid.etfe.kept", 0), attrs.get("sysid.etfe.filters", 0)),
        "kernels.gram_calls": per(calls.get("kernels.gram", 0)),
        "kernels.gram_s": per(total.get("kernels.gram", 0.0)),
        "kernels.gram_entries": per(attrs.get("kernels.gram.entries", 0)),
        "kernels.from_config_calls": per(calls.get("kernels.from_config", 0)),
        "kernels.from_config_s": per(total.get("kernels.from_config", 0.0)),
        "regression.tune_s": per(total.get("regression.tune", 0.0)),
        "regression.lml_calls": per(calls.get("regression.lml", 0)),
        "regression.lml_s": per(total.get("regression.lml", 0.0)),
        "regression.lml_finite_ratio": ratio(attrs.get("regression.lml.finite", 0), calls.get("regression.lml", 0)),
        "regression.fit_s": per(total.get("regression.fit", 0.0)),
        "regression.predict_sl_s": per(total.get("regression.predict_sl", 0.0)),
        "regression.predict_wl_calls": per(calls.get("regression.predict_wl", 0)),
        "regression.predict_wl_s": per(total.get("regression.predict_wl", 0.0)),
        "regression.schur_s": per(total.get("regression.schur", 0.0)),
        "verify.symmetry_s": per(total.get("verify.symmetry", 0.0)),
        "verify.driscoll_calls": per(calls.get("verify.driscoll", 0)),
        "verify.driscoll_s": per(total.get("verify.driscoll", 0.0)),
        "verify.driscoll_flops": per(attrs.get("verify.driscoll.flops", 0)),
        "sampling.draw_s": per(total.get("sampling.draw", 0.0)),
        "sampling.coeffs_drawn": per(attrs.get("sampling.draw.coeffs", 0)),
    }


_IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import hinfgp.cli; "
    "print('hinfgp.cli import', time.perf_counter() - t)"
)


def import_metrics(root: Path, env: dict, repeats: int = 3) -> dict[str, float]:
    """Median over fresh interpreters of ``import hinfgp.cli`` and of the
    cumulative ``-X importtime`` figures for scipy.signal and scipy.optimize."""
    samples: dict[str, list[float]] = {"import.hinfgp_s": [], "import.scipy_signal_s": [], "import.scipy_optimize_s": []}
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", _IMPORT_PROBE],
            cwd=root, env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        samples["import.hinfgp_s"].append(float(proc.stdout.split()[-1]))
        cumulative = {}
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            fields = line[len("import time:"):].split("|")
            try:
                cumulative[fields[2].strip()] = int(fields[1]) * 1e-6
            except ValueError:  # the header row
                continue
        samples["import.scipy_signal_s"].append(cumulative.get("scipy.signal", 0.0))
        samples["import.scipy_optimize_s"].append(cumulative.get("scipy.optimize", 0.0))
    return {name: statistics.median(values) for name, values in samples.items()}
