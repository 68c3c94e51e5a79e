"""Config-driven experiment runner.

Three subcommands tie the library together:

* ``identify`` — simulate a test system, form the filter-bank ETFE, tune the
  kernel hyperparameters by marginal likelihood, regress, and emit Bode-plot
  tables plus a verification report for the tuned kernel;
* ``verify`` — run the symmetry and RKHS-membership probes on a kernel spec;
* ``sample`` — draw process realizations and Monte Carlo covariance summaries.

Configs are single JSON documents with nested sections; unknown keys anywhere
are errors so runs fail fast instead of silently ignoring typos.  Every output
file declares the SHA-256 of the resolved config (out_dir excluded, seed
included) and the seed, and a rerun with the same config and seed is
byte-identical: all randomness flows from Philox streams derived from the
seed, and no timestamps are written.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from . import kernels
from ._linalg import ConditioningError
from .kernels import ComplexKernel, CozineParams, StationarySequence
from .regression import (
    _disk_bounds,
    fit,
    log_marginal_likelihood,
    optimize_hyperparameters,
    predict_sl_many,
    predict_wl,
    schur_P,
)
from .sampling import sample_cozine_batch, sample_stationary_batch
from .sysid import DiscreteTF, FilterBankSpec, TimeTrace, estimate_noise_var, etfe, make_allpass, make_resonant_system, simulate
from .verify import MIN_N_MAX, dense_spiral, driscoll_parts, symmetry_test

__all__ = ["ConfigError", "main", "run_identify", "run_verify", "run_sample"]

PREDICTION_GRID_SIZE = 512
# Relative: a symmetry check passes when both errors are below
# SYMMETRY_TOL * max(1, max |k(z,z)|), so a kernel scaled up by tuning is held
# to the same relative accuracy as an unscaled one.
SYMMETRY_TOL = 1e-10


class ConfigError(ValueError):
    """A config document failed validation."""


# ---------------------------------------------------------------------------
# config plumbing


def load_config(path) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            raw = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    return raw


def resolve_config(raw: Mapping, seed_override: int | None, out_override: str | None) -> dict:
    resolved = copy.deepcopy(dict(raw))
    if seed_override is not None:
        resolved["seed"] = seed_override
    if out_override is not None:
        resolved["out_dir"] = out_override
    return resolved


def config_hash(resolved: Mapping) -> str:
    """SHA-256 of the canonical config JSON; out_dir is excluded so the hash
    identifies the scientific content of a run, not where its files land."""
    payload = {k: v for k, v in resolved.items() if k != "out_dir"}
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _check_keys(section: Mapping, allowed: set, where: str) -> None:
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where}")


def _get_number(section: Mapping, key: str, where: str, default=None):
    if key not in section:
        if default is not None:
            return default
        raise ConfigError(f"missing required key '{key}' in {where}")
    val = section[key]
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ConfigError(f"'{key}' in {where} must be a number, got {val!r}")
    return float(val)


def _get_int(section: Mapping, key: str, where: str, default=None):
    if key not in section:
        if default is not None:
            return default
        raise ConfigError(f"missing required key '{key}' in {where}")
    val = section[key]
    if isinstance(val, bool) or not isinstance(val, int):
        raise ConfigError(f"'{key}' in {where} must be an integer, got {val!r}")
    return val


def _get_n_max(section: Mapping, where: str) -> int:
    """The Driscoll probe size, checked here so a run fails before it writes anything."""
    n_max = _get_int(section, "n_max", where, 200)
    if n_max < MIN_N_MAX:
        raise ConfigError(f"'n_max' in {where} must be >= {MIN_N_MAX}, got {n_max}")
    return n_max


def _get_out_dir(cfg: Mapping) -> str:
    out_dir = cfg.get("out_dir")
    if not isinstance(out_dir, str) or not out_dir:
        raise ConfigError("no output directory: set 'out_dir' in the config or pass --out")
    return out_dir


# ---------------------------------------------------------------------------
# kernel specs: families with tunable parameters, plus verify-only extensions

def kernel_family_from_record(record: Mapping, tunable: Sequence[str]) -> kernels.KernelFamily:
    """The :class:`~hinfgp.kernels.KernelFamily` of an ``identify`` kernel record.

    The family maps a {path: value} assignment of the ``tunable`` paths to a
    ComplexKernel and declares each path's range.  A starting value that the
    tuner cannot transform, such as a weight of 0 or an angle of 0, is a
    ConfigError naming its path (see
    :meth:`~hinfgp.kernels.KernelFamily.unconstrained_start`).
    """
    base = dict(record)
    base.pop("tunable", None)
    try:
        family = kernels.KernelFamily.from_config(base, tunable)
        family.unconstrained_start()
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return family


def kernel_from_verify_record(record: Mapping) -> ComplexKernel:
    """Kernel spec for the ``verify`` subcommand: a standard family, the
    ``{"name": "h2"}`` Hardy space kernel, or either with ``"circular": true``
    (see :meth:`~hinfgp.kernels.KernelFamily.from_config`)."""
    try:
        return kernels.KernelFamily.from_config(record, verify=True)({})
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


# ---------------------------------------------------------------------------
# identify


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    """Validated view of an ``identify`` config document."""

    seed: int
    system: DiscreteTF
    system_type: str
    input_var: float
    output_var: float
    trace_len: int
    bank: FilterBankSpec
    kernel: kernels.KernelFamily
    estimator: str
    eta: float
    noise_var: float | str
    budget: int
    out_dir: str
    impropriety_diag: bool
    verify_n_max: int
    verify_grid_count: int
    sha256: str


def _parse_system(section: Mapping) -> tuple[DiscreteTF, str]:
    if not isinstance(section, Mapping):
        raise ConfigError("'system' must be a mapping")
    kind = section.get("type")
    if kind == "resonant":
        _check_keys(section, {"type", "omega0", "xi", "fs"}, "system")
        tf = make_resonant_system(
            _get_number(section, "omega0", "system"),
            _get_number(section, "xi", "system"),
            _get_number(section, "fs", "system"),
        )
    elif kind == "allpass":
        _check_keys(section, {"type", "pole", "fs"}, "system")
        pole = section.get("pole")
        if not (isinstance(pole, list) and len(pole) == 2):
            raise ConfigError("allpass system needs 'pole': [re, im]")
        tf = make_allpass(complex(float(pole[0]), float(pole[1])), _get_number(section, "fs", "system"))
    elif kind == "external":
        _check_keys(section, {"type", "num", "den", "fs"}, "system")
        num, den = section.get("num"), section.get("den")
        if not (isinstance(num, list) and isinstance(den, list)):
            raise ConfigError("external system needs coefficient lists 'num' and 'den'")
        tf = DiscreteTF(np.asarray(num, dtype=float), np.asarray(den, dtype=float), _get_number(section, "fs", "system"))
    else:
        raise ConfigError(f"unknown system type {kind!r}; expected resonant | allpass | external")
    return tf, kind


def _parse_filter_bank(section: Mapping) -> FilterBankSpec:
    if not isinstance(section, Mapping):
        raise ConfigError("'filter_bank' must be a mapping")
    _check_keys(
        section,
        {"num_filters", "taps", "window_sigma", "center_freqs", "window_convention"},
        "filter_bank",
    )
    kwargs: dict = {
        "num_filters": _get_int(section, "num_filters", "filter_bank", 25),
        "taps": _get_int(section, "taps", "filter_bank", 1000),
        "window_sigma": _get_number(section, "window_sigma", "filter_bank", 0.25),
    }
    if "center_freqs" in section:
        freqs = section["center_freqs"]
        if not isinstance(freqs, list):
            raise ConfigError("'center_freqs' must be a list of frequencies")
        kwargs["center_freqs"] = tuple(float(f) for f in freqs)
    if "window_convention" in section:
        kwargs["window_convention"] = section["window_convention"]
    try:
        return FilterBankSpec(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"filter_bank: {exc}") from exc


def parse_identify_config(resolved: Mapping) -> ExperimentConfig:
    _check_keys(
        resolved,
        {
            "seed",
            "system",
            "noise",
            "trace_len",
            "filter_bank",
            "kernel",
            "estimator",
            "eta",
            "noise_var",
            "budget",
            "out_dir",
            "diagnostics",
            "verify",
        },
        "config",
    )
    seed = _get_int(resolved, "seed", "config")
    try:
        system, system_type = _parse_system(resolved.get("system", {}))
    except ValueError as exc:
        raise ConfigError(f"system: {exc}") from exc

    noise = resolved.get("noise")
    if not isinstance(noise, Mapping):
        raise ConfigError("missing required section 'noise'")
    _check_keys(noise, {"input_var", "output_var"}, "noise")
    input_var = _get_number(noise, "input_var", "noise")
    output_var = _get_number(noise, "output_var", "noise")
    if input_var <= 0.0 or output_var < 0.0:
        raise ConfigError("noise variances must satisfy input_var > 0, output_var >= 0")

    trace_len = _get_int(resolved, "trace_len", "config")
    bank = _parse_filter_bank(resolved.get("filter_bank", {}))
    if trace_len < bank.taps:
        raise ConfigError(f"trace_len={trace_len} is shorter than the {bank.taps}-tap filters")

    kernel_section = resolved.get("kernel")
    if not isinstance(kernel_section, Mapping):
        raise ConfigError("missing required section 'kernel'")
    tunable = kernel_section.get("tunable", [])
    if not isinstance(tunable, list) or not all(isinstance(t, str) for t in tunable):
        raise ConfigError("'kernel.tunable' must be a list of parameter paths")
    try:
        kernel = kernel_family_from_record(kernel_section, tunable)
    except ValueError as exc:
        raise ConfigError(f"kernel: {exc}") from exc

    estimator = resolved.get("estimator")
    if estimator not in ("strict", "wide"):
        raise ConfigError(f"estimator must be 'strict' or 'wide', got {estimator!r}")
    eta = _get_number(resolved, "eta", "config")
    if eta <= 0.0:
        raise ConfigError(f"eta must be positive, got {eta}")

    noise_var = resolved.get("noise_var", "auto")
    if noise_var != "auto":
        if isinstance(noise_var, bool) or not isinstance(noise_var, (int, float)) or noise_var < 0:
            raise ConfigError("'noise_var' must be \"auto\" or a nonnegative number")
        noise_var = float(noise_var)

    budget = _get_int(resolved, "budget", "config", 2000)
    if budget < 1:
        raise ConfigError(f"budget must be >= 1, got {budget}")

    diagnostics = resolved.get("diagnostics", {})
    if not isinstance(diagnostics, Mapping):
        raise ConfigError("'diagnostics' must be a mapping")
    _check_keys(diagnostics, {"impropriety"}, "diagnostics")
    impropriety = diagnostics.get("impropriety", False)
    if not isinstance(impropriety, bool):
        raise ConfigError("'diagnostics.impropriety' must be a boolean")

    verify_section = resolved.get("verify", {})
    if not isinstance(verify_section, Mapping):
        raise ConfigError("'verify' must be a mapping")
    _check_keys(verify_section, {"n_max", "grid_count"}, "verify")
    verify_n_max = _get_n_max(verify_section, "verify")
    verify_grid_count = _get_int(verify_section, "grid_count", "verify", 200)

    return ExperimentConfig(
        seed=seed,
        system=system,
        system_type=system_type,
        input_var=input_var,
        output_var=output_var,
        trace_len=trace_len,
        bank=bank,
        kernel=kernel,
        estimator=estimator,
        eta=eta,
        noise_var=noise_var,
        budget=budget,
        out_dir=_get_out_dir(resolved),
        impropriety_diag=impropriety,
        verify_n_max=verify_n_max,
        verify_grid_count=verify_grid_count,
        sha256=config_hash(resolved),
    )


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return "%.17g" % float(value)


def _write_csv(path: Path, provenance: tuple[str, int], columns: Sequence[str], rows) -> None:
    sha, seed = provenance
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"# config_sha256={sha}\n")
        handle.write(f"# seed={seed}\n")
        handle.write(",".join(columns) + "\n")
        for row in rows:
            handle.write(",".join(_fmt(v) for v in row) + "\n")


def _write_json(path: Path, record: Mapping) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, sort_keys=True, indent=2)
        handle.write("\n")


def _verify_record(
    kernel: ComplexKernel, n_max: int, grid_count: int, r_lo=1.1, r_hi=3.0, tol=SYMMETRY_TOL
) -> dict:
    """Symmetry and Driscoll sections of a verification report.

    The symmetry errors pass below ``tol * max(1, scale)``, with ``scale`` the
    largest |k(z,z)| on the grid: ``tol`` is relative to the kernel's size.
    """
    grid = dense_spiral(grid_count, r_lo, r_hi)
    sym = symmetry_test(kernel, grid)
    real_part, imag_part = driscoll_parts(kernel, n_max)
    return {
        "symmetry": {
            **sym.to_record(),
            "tol": tol,
            "passed": max(sym.max_err_diag, sym.max_err_cross) < tol * max(1.0, sym.scale),
        },
        "driscoll": {
            "real_part": real_part.to_record(),
            "imag_part": imag_part.to_record(),
        },
    }


def run_identify(cfg: ExperimentConfig) -> dict:
    """Full identification pipeline; writes the artifact files and returns the summary."""
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    provenance = (cfg.sha256, cfg.seed)
    fs = cfg.system.sample_rate

    input_seed, output_noise_seed, input_noise_seed, tuner_seed = (
        int(s) for s in np.random.SeedSequence(cfg.seed).generate_state(4, np.uint64)
    )
    rng_input = np.random.Generator(np.random.Philox(key=input_seed))
    u_clean = math.sqrt(cfg.input_var) * rng_input.standard_normal(cfg.trace_len)
    y_trace = simulate(
        cfg.system, TimeTrace(u_clean, fs), seed=output_noise_seed, noise_var=cfg.output_var
    )
    rng_u_noise = np.random.Generator(np.random.Philox(key=input_noise_seed))
    u_obs = TimeTrace(
        u_clean + math.sqrt(cfg.output_var) * rng_u_noise.standard_normal(cfg.trace_len)
        if cfg.output_var > 0.0
        else u_clean,
        fs,
    )

    if cfg.noise_var == "auto":
        noise_var = estimate_noise_var(u_obs, y_trace, cfg.bank)
    else:
        noise_var = float(cfg.noise_var)
    data = etfe(u_obs, y_trace, cfg.bank, noise_var)
    site_freqs = np.angle(data.sites)

    if cfg.kernel.tunable:
        values, likelihood = optimize_hyperparameters(cfg.kernel, data, cfg.budget, tuner_seed)
    else:
        values, likelihood = {}, log_marginal_likelihood(cfg.kernel, {}, data)
    kernel = cfg.kernel(values)
    post = fit(kernel, data)

    grid = math.pi * (np.arange(PREDICTION_GRID_SIZE) + 1.0) / (PREDICTION_GRID_SIZE + 1.0)
    grid_z = np.exp(1j * grid)
    wl_fallback = False
    if cfg.estimator == "strict":
        means, variances = predict_sl_many(post, grid_z)
        site_means, site_vars = predict_sl_many(post, data.sites)
    else:
        means, variances, _, wl_fallback = predict_wl(post, grid_z)
        site_means, site_vars, _, _ = predict_wl(post, data.sites)

    true_grid = cfg.system.freq_response(grid)
    true_sites = cfg.system.response(data.sites)
    sigmas = np.sqrt(variances)
    bounds = [_disk_bounds(complex(m), cfg.eta * s, cfg.eta) for m, s in zip(means, sigmas)]

    site_radii = cfg.eta * np.sqrt(site_vars)
    sites_inside = int(np.sum(np.abs(true_sites - site_means) <= site_radii))

    max_true = float(np.max(np.abs(true_grid)))
    median_rel_error = float(np.median(np.abs(means - true_grid))) / max_true

    _write_csv(
        out / "etfe_data.csv",
        provenance,
        ("omega", "re_y", "im_y"),
        (
            (w, y.real, y.imag)
            for w, y in zip(site_freqs, data.responses)
        ),
    )
    _write_csv(
        out / "predictions.csv",
        provenance,
        (
            "omega",
            "re_true",
            "im_true",
            "re_mean",
            "im_mean",
            "sigma",
            "mag_lo",
            "mag_hi",
            "phase_lo",
            "phase_hi",
            "phase_full",
        ),
        (
            (
                w,
                t.real,
                t.imag,
                b.center.real,
                b.center.imag,
                s,
                b.mag_interval[0],
                b.mag_interval[1],
                b.phase_interval[0] if b.phase_interval else -math.pi,
                b.phase_interval[1] if b.phase_interval else math.pi,
                b.phase_interval is None,
            )
            for w, t, s, b in zip(grid, true_grid, sigmas, bounds)
        ),
    )
    _write_json(
        out / "hyperparameters.json",
        {
            "config_sha256": cfg.sha256,
            "seed": cfg.seed,
            "tunable": list(cfg.kernel.tunable),
            "values": values,
            "log_marginal_likelihood": likelihood,
            "budget": cfg.budget,
        },
    )
    verify_record = {
        "config_sha256": cfg.sha256,
        "seed": cfg.seed,
        **_verify_record(kernel, cfg.verify_n_max, cfg.verify_grid_count),
    }
    _write_json(out / "verify_report.json", verify_record)

    summary: dict = {
        "config_sha256": cfg.sha256,
        "seed": cfg.seed,
        "system": cfg.system_type,
        "estimator": cfg.estimator,
        "eta": cfg.eta,
        "n_data": len(data),
        "noise_var": noise_var,
        "hyperparameters": values,
        "log_marginal_likelihood": likelihood,
        "median_rel_error": median_rel_error,
        "max_true_magnitude": max_true,
        "sites_inside_ellipsoid": sites_inside,
        "verify": verify_record,
    }
    if cfg.estimator == "wide":
        summary["wl_fallback"] = wl_fallback
    if cfg.impropriety_diag or cfg.estimator == "wide":
        summary["impropriety"] = schur_P(post).impropriety
    _write_json(out / "summary.json", summary)
    return summary


# ---------------------------------------------------------------------------
# verify


def parse_verify_config(resolved: Mapping) -> dict:
    _check_keys(resolved, {"seed", "kernel", "n_max", "grid", "symmetry_tol", "out_dir"}, "config")
    seed = _get_int(resolved, "seed", "config", 0)
    kernel_section = resolved.get("kernel")
    if not isinstance(kernel_section, Mapping):
        raise ConfigError("missing required section 'kernel'")
    n_max = _get_n_max(resolved, "config")
    grid = resolved.get("grid", {})
    if not isinstance(grid, Mapping):
        raise ConfigError("'grid' must be a mapping")
    _check_keys(grid, {"count", "r_lo", "r_hi"}, "grid")
    return {
        "seed": seed,
        "kernel": kernel_section,
        "n_max": n_max,
        "grid_count": _get_int(grid, "count", "grid", 200),
        "r_lo": _get_number(grid, "r_lo", "grid", 1.1),
        "r_hi": _get_number(grid, "r_hi", "grid", 3.0),
        "symmetry_tol": _get_number(resolved, "symmetry_tol", "config", SYMMETRY_TOL),
        "out_dir": _get_out_dir(resolved),
        "sha256": config_hash(resolved),
    }


def run_verify(cfg: Mapping) -> dict:
    """Verification pipeline: symmetry + Driscoll reports for a kernel spec."""
    kernel = kernel_from_verify_record(cfg["kernel"])
    report = {
        "config_sha256": cfg["sha256"],
        "seed": cfg["seed"],
        **_verify_record(
            kernel, cfg["n_max"], cfg["grid_count"], cfg["r_lo"], cfg["r_hi"], cfg["symmetry_tol"]
        ),
    }
    out = Path(cfg["out_dir"])
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "report.json", report)
    return report


# ---------------------------------------------------------------------------
# sample


def parse_sample_config(resolved: Mapping) -> dict:
    _check_keys(
        resolved, {"seed", "kernel", "count", "trunc", "max_paths_saved", "out_dir"}, "config"
    )
    seed = _get_int(resolved, "seed", "config")
    count = _get_int(resolved, "count", "config")
    if count < 0:
        raise ConfigError(f"count must be nonnegative, got {count}")
    trunc = _get_int(resolved, "trunc", "config", 200)
    if trunc < 1:
        raise ConfigError(f"trunc must be >= 1, got {trunc}")
    max_saved = _get_int(resolved, "max_paths_saved", "config", 100)
    kernel_section = resolved.get("kernel")
    if not isinstance(kernel_section, Mapping):
        raise ConfigError("missing required section 'kernel'")
    return {
        "seed": seed,
        "kernel": copy.deepcopy(dict(kernel_section)),
        "count": count,
        "trunc": trunc,
        "max_paths_saved": max_saved,
        "out_dir": _get_out_dir(resolved),
        "sha256": config_hash(resolved),
    }


_SAMPLE_PROBES = (
    (2.0 + 0.0j, 2.0 + 0.0j),
    (2.0 + 0.0j, 2.0 * np.exp(1j * math.pi / 3.0)),
)


_SAMPLED_FAMILIES = ("geometric", "exponential", "stationary_list", "cozine")


def _sampling_family(record: Mapping):
    """Map a kernel record to (sampler batch fn, kernel, expected abs-sum, label)."""
    name = record.get("name")
    if name not in _SAMPLED_FAMILIES:
        supported = ", ".join(_SAMPLED_FAMILIES)
        raise ConfigError(f"kernel {name!r} has no path sampler; supported families: {supported}")
    family = kernels.KernelFamily.from_config(record)
    kernel, params = family({}), family.params
    if family.name == "cozine":
        resonance = CozineParams(params["a"], params["omega0"])

        def draw(seed: int, count: int, trunc: int) -> np.ndarray:
            return sample_cozine_batch(resonance, seed, count)

        # E|h(n)| = a^n sqrt(2/pi) since X cos + Y sin is standard normal
        label = f"cozine(a={resonance.a}, omega0={resonance.omega0})"
        return draw, kernel, math.sqrt(2.0 / math.pi) / (1.0 - resonance.a), label
    if family.name == "geometric":
        seq = StationarySequence.geometric(params["alpha"])
    elif family.name == "exponential":
        seq = StationarySequence.exponential()
    else:
        seq = StationarySequence.explicit(params["coefficients"])

    def draw(seed: int, count: int, trunc: int) -> np.ndarray:
        return sample_stationary_batch(seq, trunc, seed, count)

    return draw, kernel, math.sqrt(2.0 / math.pi) * seq.sum_a, seq.describe()


def run_sample(cfg: Mapping) -> dict:
    """Sampling pipeline: writes impulse responses and Monte Carlo covariance summaries."""
    try:
        draw, kernel, expected_abs_sum, label = _sampling_family(cfg["kernel"])
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"kernel: {exc}") from exc
    out = Path(cfg["out_dir"])
    out.mkdir(parents=True, exist_ok=True)
    provenance = (cfg["sha256"], cfg["seed"])
    count = cfg["count"]

    summary: dict = {
        "config_sha256": cfg["sha256"],
        "seed": cfg["seed"],
        "family": label,
        "count": count,
    }
    paths_file = out / "paths.txt"
    with open(paths_file, "w", encoding="utf-8") as handle:
        handle.write(f"# config_sha256={cfg['sha256']}\n")
        handle.write(f"# seed={cfg['seed']}\n")
        handle.write(f"# family={label}\n")
        if count > 0:
            mat = draw(cfg["seed"], count, cfg["trunc"])
            for row in mat[: cfg["max_paths_saved"]]:
                handle.write(" ".join("%.17g" % v for v in row) + "\n")

    if count > 0:
        abs_sums = np.sum(np.abs(mat), axis=1)
        summary["mean_abs_sum"] = float(np.mean(abs_sums))
        summary["expected_abs_sum"] = expected_abs_sum
        if count > 1:
            summary["se_abs_sum"] = float(np.std(abs_sums, ddof=1) / math.sqrt(count))
        powers = np.arange(mat.shape[1])
        probes = []
        for z, w in _SAMPLE_PROBES:
            f_z = mat @ (z ** -powers)
            f_w = mat @ (w ** -powers)
            herm = f_z * np.conj(f_w)
            comp = f_z * f_w
            probe = {
                "z": [z.real, z.imag],
                "w": [w.real, w.imag],
                "sample_hermitian": [float(np.mean(herm.real)), float(np.mean(herm.imag))],
                "sample_complementary": [float(np.mean(comp.real)), float(np.mean(comp.imag))],
                "kernel_hermitian": [
                    float(np.real(kernel.hermitian_eval(z, w))),
                    float(np.imag(kernel.hermitian_eval(z, w))),
                ],
                "kernel_complementary": [
                    float(np.real(kernel.complementary_eval(z, w))),
                    float(np.imag(kernel.complementary_eval(z, w))),
                ],
            }
            if count > 1:
                probe["se_hermitian"] = float(
                    math.sqrt((np.var(herm.real, ddof=1) + np.var(herm.imag, ddof=1)) / count)
                )
                probe["se_complementary"] = float(
                    math.sqrt((np.var(comp.real, ddof=1) + np.var(comp.imag, ddof=1)) / count)
                )
            probes.append(probe)
        summary["probes"] = probes

    _write_json(out / "summary.json", summary)
    return summary


# ---------------------------------------------------------------------------
# entry point


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="hinfgp",
        description="Bayesian frequency-domain system identification with "
        "conjugate-symmetric H-infinity Gaussian process priors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("identify", "simulate, estimate, tune, and regress a test system"),
        ("verify", "run symmetry and RKHS-membership probes on a kernel spec"),
        ("sample", "draw process realizations and Monte Carlo summaries"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="path to the JSON config document")
        cmd.add_argument("--seed", type=int, default=None, help="override the config seed")
        cmd.add_argument("--out", default=None, help="override the config output directory")
    args = parser.parse_args(argv)

    try:
        resolved = resolve_config(load_config(args.config), args.seed, args.out)
        if args.command == "identify":
            run_identify(parse_identify_config(resolved))
        elif args.command == "verify":
            run_verify(parse_verify_config(resolved))
        else:
            run_sample(parse_sample_config(resolved))
    except (ConfigError, ConditioningError, ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
