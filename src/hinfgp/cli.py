"""Config-driven experiment runner.

Three subcommands tie the library together:

* ``identify`` — simulate a test system, form the filter-bank ETFE, tune the
  kernel hyperparameters by marginal likelihood, regress, and emit Bode-plot
  tables plus a verification report for the tuned kernel;
* ``verify`` — run the symmetry and RKHS-membership probes on a kernel spec;
* ``sample`` — draw process realizations and Monte Carlo covariance summaries.

Configs are single JSON documents with nested sections; unknown keys anywhere
are errors so runs fail fast instead of silently ignoring typos.  A run
computes every output file before it creates out_dir, so a failed run writes
nothing.  Every output file declares the SHA-256 of the resolved config
(out_dir excluded, seed included) and the seed, and a rerun with the same
config and seed is byte-identical: all randomness flows from Philox streams
derived from the seed, and no timestamps are written.
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
from .kernels import ComplexKernel
from .regression import (
    _disk_bounds,
    fit,
    log_marginal_likelihood,
    optimize_hyperparameters,
    predict_sl_many,
    predict_wl,
    schur_P,
)
from .sampling import path_law, sample_paths
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
    if not kernels._is_real(val):
        raise ConfigError(f"'{key}' in {where} must be a finite number, got {val!r}")
    return float(val)


def _get_int(section: Mapping, key: str, where: str, default=None, minimum=None):
    """An integer config value, at least ``minimum`` when one is given: sizes
    and seeds are checked here, so a run fails before it writes anything."""
    if key not in section:
        if default is not None:
            return default
        raise ConfigError(f"missing required key '{key}' in {where}")
    val = section[key]
    if isinstance(val, bool) or not isinstance(val, int):
        raise ConfigError(f"'{key}' in {where} must be an integer, got {val!r}")
    if minimum is not None and val < minimum:
        raise ConfigError(f"'{key}' in {where} must be >= {minimum}, got {val}")
    return val


def _is_real_list(value) -> bool:
    """Whether a config value is a non-empty list of finite, non-bool reals."""
    return isinstance(value, list) and bool(value) and all(kernels._is_real(v) for v in value)


def _get_section(cfg: Mapping, key: str) -> Mapping:
    section = cfg.get(key)
    if not isinstance(section, Mapping):
        raise ConfigError(f"missing required section '{key}'")
    return section


def _get_out_dir(cfg: Mapping) -> str:
    out_dir = cfg.get("out_dir")
    if not isinstance(out_dir, str) or not out_dir:
        raise ConfigError("no output directory: set 'out_dir' in the config or pass --out")
    return out_dir


# ---------------------------------------------------------------------------
# kernel specs: one reader for all three subcommands


def parse_kernel(
    section: Mapping, tunable: Sequence[str] = (), verify: bool = False
) -> kernels.KernelFamily:
    """The :class:`~hinfgp.kernels.KernelFamily` of a config's ``kernel`` section.

    ``tunable`` lists the paths ``identify`` tunes (the section's own
    ``tunable`` key removed); ``verify`` also admits the ``{"name": "h2"}``
    Hardy space kernel and a ``"circular": true`` flag (see
    :meth:`~hinfgp.kernels.KernelFamily.from_config`).  Every error is a
    ConfigError starting ``kernel:``, including a tunable starting value on
    its range's boundary, such as a weight or an angle of 0, which names its
    path (see :meth:`~hinfgp.kernels.KernelFamily.unconstrained_start`).
    """
    try:
        family = kernels.KernelFamily.from_config(section, tunable, verify)
        family.unconstrained_start()
    except ValueError as exc:
        raise ConfigError(f"kernel: {exc}") from exc
    return family


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
        if not (_is_real_list(pole) and len(pole) == 2):
            raise ConfigError(f"allpass system needs 'pole': [re, im] of two finite numbers, got {pole!r}")
        tf = make_allpass(complex(float(pole[0]), float(pole[1])), _get_number(section, "fs", "system"))
    elif kind == "external":
        _check_keys(section, {"type", "num", "den", "fs"}, "system")
        num, den = section.get("num"), section.get("den")
        if not (_is_real_list(num) and _is_real_list(den)):
            raise ConfigError(
                "external system needs non-empty coefficient lists 'num' and 'den' of finite numbers, "
                f"got {num!r} and {den!r}"
            )
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
        if not _is_real_list(freqs):
            raise ConfigError(f"'center_freqs' must be a non-empty list of finite numbers, got {freqs!r}")
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
    seed = _get_int(resolved, "seed", "config", minimum=0)
    try:
        system, system_type = _parse_system(resolved.get("system", {}))
    except ValueError as exc:
        raise ConfigError(f"system: {exc}") from exc

    noise = _get_section(resolved, "noise")
    _check_keys(noise, {"input_var", "output_var"}, "noise")
    input_var = _get_number(noise, "input_var", "noise")
    output_var = _get_number(noise, "output_var", "noise")
    if input_var <= 0.0 or output_var < 0.0:
        raise ConfigError("noise variances must satisfy input_var > 0, output_var >= 0")

    trace_len = _get_int(resolved, "trace_len", "config")
    bank = _parse_filter_bank(resolved.get("filter_bank", {}))
    if trace_len < bank.taps:
        raise ConfigError(f"trace_len={trace_len} is shorter than the {bank.taps}-tap filters")

    kernel_section = _get_section(resolved, "kernel")
    tunable = kernel_section.get("tunable", [])
    if not isinstance(tunable, list) or not all(isinstance(t, str) for t in tunable):
        raise ConfigError("'kernel.tunable' must be a list of parameter paths")
    kernel = parse_kernel({k: v for k, v in kernel_section.items() if k != "tunable"}, tunable)

    estimator = resolved.get("estimator")
    if estimator not in ("strict", "wide"):
        raise ConfigError(f"estimator must be 'strict' or 'wide', got {estimator!r}")
    eta = _get_number(resolved, "eta", "config")
    if eta <= 0.0:
        raise ConfigError(f"eta must be positive, got {eta}")

    noise_var = resolved.get("noise_var", "auto")
    if noise_var != "auto":
        if not kernels._is_real(noise_var) or noise_var < 0:
            raise ConfigError("'noise_var' must be \"auto\" or a finite nonnegative number")
        noise_var = float(noise_var)

    budget = _get_int(resolved, "budget", "config", 2000, minimum=1)

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
    verify_n_max = _get_int(verify_section, "n_max", "verify", 200, minimum=MIN_N_MAX)
    verify_grid_count = _get_int(verify_section, "grid_count", "verify", 200, minimum=1)

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


def _csv(columns: Sequence[str], rows) -> str:
    lines = [",".join(columns)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _publish(out_dir: str, sha: str, seed: int, files: Mapping[str, dict | str]) -> None:
    """Create ``out_dir`` and write a run's files, each stamped with the config
    SHA-256 and the seed.

    ``files`` maps a file name to a JSON record, which gains the
    ``config_sha256`` and ``seed`` keys in place (so a returned record is the
    one written), or to a table's text, which gains two ``#`` header lines.
    Every file is rendered before ``out_dir`` is created, and each ``run_*``
    calls this once, as its last step: a run that fails writes nothing.
    """
    header = f"# config_sha256={sha}\n# seed={seed}\n"
    rendered = {}
    for name, body in files.items():
        if isinstance(body, str):
            rendered[name] = header + body
        else:
            body.update(config_sha256=sha, seed=seed)
            rendered[name] = json.dumps(body, sort_keys=True, indent=2) + "\n"
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, text in rendered.items():
        (out / name).write_text(text, encoding="utf-8")


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

    verify_record = {
        "config_sha256": cfg.sha256,
        "seed": cfg.seed,
        **_verify_record(kernel, cfg.verify_n_max, cfg.verify_grid_count),
    }
    summary: dict = {
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

    _publish(
        cfg.out_dir,
        cfg.sha256,
        cfg.seed,
        {
            "etfe_data.csv": _csv(
                ("omega", "re_y", "im_y"),
                ((w, y.real, y.imag) for w, y in zip(site_freqs, data.responses)),
            ),
            "predictions.csv": _csv(
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
            ),
            "hyperparameters.json": {
                "tunable": list(cfg.kernel.tunable),
                "values": values,
                "log_marginal_likelihood": likelihood,
                "budget": cfg.budget,
            },
            "verify_report.json": verify_record,
            "summary.json": summary,
        },
    )
    return summary


# ---------------------------------------------------------------------------
# verify


def parse_verify_config(resolved: Mapping) -> dict:
    _check_keys(resolved, {"seed", "kernel", "n_max", "grid", "symmetry_tol", "out_dir"}, "config")
    seed = _get_int(resolved, "seed", "config", 0, minimum=0)
    kernel = parse_kernel(_get_section(resolved, "kernel"), verify=True)
    n_max = _get_int(resolved, "n_max", "config", 200, minimum=MIN_N_MAX)
    grid = resolved.get("grid", {})
    if not isinstance(grid, Mapping):
        raise ConfigError("'grid' must be a mapping")
    _check_keys(grid, {"count", "r_lo", "r_hi"}, "grid")
    return {
        "seed": seed,
        "kernel": kernel,
        "n_max": n_max,
        "grid_count": _get_int(grid, "count", "grid", 200, minimum=1),
        "r_lo": _get_number(grid, "r_lo", "grid", 1.1),
        "r_hi": _get_number(grid, "r_hi", "grid", 3.0),
        "symmetry_tol": _get_number(resolved, "symmetry_tol", "config", SYMMETRY_TOL),
        "out_dir": _get_out_dir(resolved),
        "sha256": config_hash(resolved),
    }


def run_verify(cfg: Mapping) -> dict:
    """Verification pipeline: symmetry + Driscoll reports for a parsed kernel family."""
    report = _verify_record(
        cfg["kernel"]({}), cfg["n_max"], cfg["grid_count"], cfg["r_lo"], cfg["r_hi"], cfg["symmetry_tol"]
    )
    _publish(cfg["out_dir"], cfg["sha256"], cfg["seed"], {"report.json": report})
    return report


# ---------------------------------------------------------------------------
# sample


def parse_sample_config(resolved: Mapping) -> dict:
    _check_keys(
        resolved, {"seed", "kernel", "count", "trunc", "max_paths_saved", "out_dir"}, "config"
    )
    seed = _get_int(resolved, "seed", "config", minimum=0)
    count = _get_int(resolved, "count", "config", minimum=0)
    trunc = _get_int(resolved, "trunc", "config", 200, minimum=1)
    max_saved = _get_int(resolved, "max_paths_saved", "config", 100, minimum=0)
    kernel_section = _get_section(resolved, "kernel")
    try:
        path_law(kernel_section.get("name"))  # first: an unsampled record may not parse
    except ValueError as exc:
        raise ConfigError(f"kernel: {exc}") from exc
    return {
        "seed": seed,
        "kernel": parse_kernel(kernel_section),
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


def run_sample(cfg: Mapping) -> dict:
    """Sampling pipeline: writes impulse responses and Monte Carlo covariance summaries."""
    family, count = cfg["kernel"], cfg["count"]
    law = path_law(family.name)
    kernel, label = family({}), law.label(family.params)
    summary: dict = {"family": label, "count": count}
    paths = f"# family={label}\n"
    if count > 0:
        mat = sample_paths(family, cfg["trunc"], cfg["seed"], count)
        paths += "".join(" ".join("%.17g" % v for v in row) + "\n" for row in mat[: cfg["max_paths_saved"]])
        abs_sums = np.sum(np.abs(mat), axis=1)
        summary["mean_abs_sum"] = float(np.mean(abs_sums))
        summary["expected_abs_sum"] = law.abs_sum(family.params)
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

    _publish(cfg["out_dir"], cfg["sha256"], cfg["seed"], {"paths.txt": paths, "summary.json": summary})
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
    except (ValueError, RuntimeError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
