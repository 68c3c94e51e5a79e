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
from ._config import _REQUIRED, _TOP, ConfigError, _is_real, _Section
from .kernels import ComplexKernel
from .regression import (
    _at_sites, _log_likelihood, ellipsoid, fit, optimize_hyperparameters, predict_sl, predict_wl, schur_P,
)
from .sampling import _MAX_ENTRIES, path_law, sample_paths
from .sysid import DiscreteTF, FilterBankSpec, TimeTrace, etfe, make_allpass, make_resonant_system, simulate
from .verify import MIN_N_MAX, dense_spiral, driscoll_parts, symmetry_test

__all__ = ["ConfigError", "main", "run_identify", "run_verify", "run_sample"]

PREDICTION_GRID_SIZE = 512
# Relative: a symmetry check passes when both errors are below
# SYMMETRY_TOL * max(1, max |k(z,z)|), so a kernel scaled up by tuning is held
# to the same relative accuracy as an unscaled one.
SYMMETRY_TOL = 1e-10
# The symmetry grid's radii when a config gives none.
_R_LO, _R_HI = 1.1, 3.0
# Allocation caps, checked while parsing: no array a run allocates exceeds
# _MAX_ENTRIES entries, so a size whose square is a Gram is at most _MAX_SIDE.
_MAX_SIDE = math.isqrt(_MAX_ENTRIES)


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


def _provenance(cfg: _Section, seed_default=_REQUIRED) -> dict:
    """The ``seed``, ``out_dir`` and config ``sha256`` that every run records."""
    seed = cfg.integer("seed", seed_default, minimum=0)
    out_dir = cfg.get("out_dir", "")
    if not isinstance(out_dir, str) or not out_dir:
        raise ConfigError("no output directory: set 'out_dir' in the config or pass --out")
    return {"seed": seed, "out_dir": out_dir, "sha256": config_hash(cfg.mapping)}


def _probe_sizes(top: _Section, grid: _Section, count_key: str) -> tuple[int, int]:
    """``n_max`` of the Driscoll probe (in ``top``) and the symmetry grid's size."""
    return (
        top.integer("n_max", 200, minimum=MIN_N_MAX, maximum=_MAX_SIDE),
        grid.integer(count_key, 200, minimum=1, maximum=_MAX_ENTRIES),
    )


# ---------------------------------------------------------------------------
# kernel specs: one reader for all three subcommands


def parse_kernel(
    section: Mapping, tunable: Sequence[str] = (), verify: bool = False
) -> kernels.KernelFamily:
    """The :class:`~hinfgp.kernels.KernelFamily` of a config's ``kernel`` section.

    ``tunable`` lists the paths ``identify`` tunes (the section's own
    ``tunable`` key removed); ``verify`` also admits the ``{"name": "h2"}``
    Hardy space kernel and the boolean ``circular`` flag (see
    :meth:`~hinfgp.kernels.KernelFamily.from_config`).  Every error is a
    ConfigError naming its key.  The config reader names a refused record
    key by its path (``'omega0' in kernel.component2.params``); the
    family's own checks start ``kernel:``: a value out of its family's
    range, a tunable path that does not resolve, and a tunable starting
    value on its range's boundary, such as a weight or an angle of 0 (see
    :meth:`~hinfgp.kernels.KernelFamily.unconstrained_start`).
    """
    try:
        family = kernels.KernelFamily.from_config(section, tunable, verify)
        family.unconstrained_start()
    except ConfigError:
        raise
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


def _parse_system(system: _Section) -> tuple[DiscreteTF, str]:
    kind = system.choice("type", ("resonant", "allpass", "external"))
    fs = system.number("fs", above=0)
    if kind == "resonant":
        make, args = make_resonant_system, (system.number("omega0"), system.number("xi"), fs)
    elif kind == "allpass":
        make, args = make_allpass, (complex(*system.reals("pole", length=2)), fs)
    else:
        make, args = DiscreteTF, (system.reals("num"), system.reals("den"), fs)
    system.close()
    try:
        return make(*args), kind
    except ValueError as exc:
        raise ConfigError(f"system: {exc}") from exc


def _parse_filter_bank(bank: _Section) -> FilterBankSpec:
    num_filters = bank.integer("num_filters", FilterBankSpec.num_filters, minimum=1, maximum=_MAX_SIDE)
    taps = bank.integer("taps", FilterBankSpec.taps, minimum=1)
    most = _MAX_ENTRIES // num_filters
    bank.bound("taps", taps, taps <= most, f"<= {most} ({_MAX_ENTRIES} entries over 'num_filters' = {num_filters})")
    spec = {
        "num_filters": num_filters,
        "taps": taps,
        "window_sigma": bank.number("window_sigma", FilterBankSpec.window_sigma, above=0),
        "center_freqs": bank.reals("center_freqs", None),
        "window_convention": bank.get("window_convention", FilterBankSpec.window_convention),
    }
    bank.close()
    try:
        return FilterBankSpec(**spec)
    except ValueError as exc:
        raise ConfigError(f"filter_bank: {exc}") from exc


def parse_identify_config(resolved: Mapping) -> ExperimentConfig:
    cfg = _Section(resolved, _TOP)
    provenance = _provenance(cfg)
    system, system_type = _parse_system(cfg.section("system"))
    noise = cfg.section("noise")
    input_var, output_var = noise.number("input_var", above=0), noise.number("output_var", minimum=0)
    noise.close()

    trace_len = cfg.integer("trace_len", minimum=1, maximum=_MAX_ENTRIES)
    bank = _parse_filter_bank(cfg.section("filter_bank", required=False))
    cfg.bound("trace_len", trace_len, trace_len >= bank.taps, f">= 'taps' in filter_bank ({bank.taps})")
    # estimate_noise_var keeps one estimate per filter and per trace_len // taps segment
    most = (_MAX_ENTRIES // bank.num_filters + 1) * bank.taps - 1
    rule = f"<= {most} (at most {_MAX_ENTRIES} noise estimates for its 'num_filters' and 'taps')"
    cfg.bound("trace_len", trace_len, trace_len <= most, rule)

    kernel = cfg.section("kernel")
    tunable = kernel.get(
        "tunable", [], lambda v: isinstance(v, list) and all(isinstance(t, str) for t in v), "a list of parameter paths"
    )
    family = parse_kernel({k: v for k, v in kernel.mapping.items() if k != "tunable"}, tunable)

    diagnostics = cfg.section("diagnostics", required=False)
    impropriety = diagnostics.get("impropriety", False, lambda v: isinstance(v, bool), "a boolean")
    diagnostics.close()
    probe = cfg.section("verify", required=False)
    verify_n_max, verify_grid_count = _probe_sizes(probe, probe, "grid_count")
    probe.close()

    parsed = ExperimentConfig(
        **provenance,
        system=system,
        system_type=system_type,
        input_var=input_var,
        output_var=output_var,
        trace_len=trace_len,
        bank=bank,
        kernel=family,
        estimator=cfg.choice("estimator", ("strict", "wide")),
        eta=cfg.number("eta", above=0),
        noise_var=cfg.get(
            "noise_var",
            "auto",
            lambda v: v == "auto" or _is_real(v) and v >= 0,
            '"auto" or a finite number >= 0',
        ),
        budget=cfg.integer("budget", 2000, minimum=1),
        impropriety_diag=impropriety,
        verify_n_max=verify_n_max,
        verify_grid_count=verify_grid_count,
    )
    cfg.close()
    return parsed


def _csv(columns: Sequence[str], row_format: str, rows) -> str:
    """A table: the header, then one ``row_format % row`` line per row.

    Each real is ``%.17g`` of a Python float (so -0, inf and nan read as
    such) and each flag ``%d`` of a bool, 1 or 0.
    """
    return "\n".join([",".join(columns), *(row_format % row for row in rows)]) + "\n"


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
    kernel: ComplexKernel, n_max: int, grid_count: int, r_lo=_R_LO, r_hi=_R_HI, tol=SYMMETRY_TOL
) -> dict:
    """Symmetry and Driscoll sections of a verification report.

    The symmetry errors pass below ``tol * max(1, scale)``, with ``scale`` the
    largest |k(z,z)| on the grid: ``tol`` is relative to the kernel's size.
    """
    grid = dense_spiral(grid_count, r_lo, r_hi)
    sym = symmetry_test(kernel, grid)
    return {
        "symmetry": {
            **sym.to_record(),
            "tol": tol,
            "passed": max(sym.max_err_diag, sym.max_err_cross) < tol * max(1.0, sym.scale),
        },
        "driscoll": driscoll_parts(kernel, n_max).to_record(),
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

    data = etfe(u_obs, y_trace, cfg.bank, cfg.noise_var)
    site_freqs = np.angle(data.sites)
    # etfe's sites are exp(j w) of the kept centres, bit for bit
    centres = cfg.bank.freqs
    dropped = centres[~np.isin(np.exp(1j * centres), data.sites)]

    values = {}
    if cfg.kernel.tunable:
        values, _ = optimize_hyperparameters(cfg.kernel, data, cfg.budget, tuner_seed)
    post = fit(cfg.kernel(values), data)
    # the tuner's best score is this value bit for bit: both factor the same K_yy
    likelihood = _log_likelihood(post.factorization, post.alpha_vec, data.responses)
    kernel = post.kernel

    grid = math.pi * (np.arange(PREDICTION_GRID_SIZE) + 1.0) / (PREDICTION_GRID_SIZE + 1.0)
    grid_z = np.exp(1j * grid)
    wl_fallback = False
    if cfg.estimator == "strict":
        means, variances = predict_sl(post, grid_z)
    else:
        means, variances, wl_fallback = predict_wl(post, grid_z)
    site_means, site_vars = _at_sites(post, cfg.estimator == "wide")

    true_grid = cfg.system.freq_response(grid)
    true_sites = cfg.system.response(data.sites)
    sigmas = np.sqrt(variances)
    bounds = [ellipsoid(m, v, cfg.eta) for m, v in zip(means.tolist(), variances.tolist())]

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
        "etfe_dropped": dropped.tolist(),
        "noise_var": data.noise_var,
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
        summary["impropriety"] = schur_P(post)
        # the widely linear state's route: its term count and their truncation
        # bound in coefficient space, both null on the dense route
        summary["wl_terms"] = post._augmented.terms
        summary["wl_terms_tail"] = post._augmented.tail

    _publish(
        cfg.out_dir,
        cfg.sha256,
        cfg.seed,
        {
            "etfe_data.csv": _csv(
                ("omega", "re_y", "im_y"),
                "%.17g,%.17g,%.17g",
                zip(site_freqs.tolist(), data.responses.real.tolist(), data.responses.imag.tolist()),
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
                "%.17g," * 10 + "%d",
                (
                    (
                        w,
                        t.real,
                        t.imag,
                        b.center.real,
                        b.center.imag,
                        s,
                        *b.mag_interval,
                        *(b.phase_interval or (-math.pi, math.pi)),
                        b.phase_interval is None,
                    )
                    for w, t, s, b in zip(grid.tolist(), true_grid.tolist(), sigmas.tolist(), bounds)
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
    cfg = _Section(resolved, _TOP)
    grid = cfg.section("grid", required=False)
    n_max, grid_count = _probe_sizes(cfg, grid, "count")
    parsed = {
        **_provenance(cfg, seed_default=0),
        "kernel": parse_kernel(cfg.section("kernel").mapping, verify=True),
        "n_max": n_max,
        "grid_count": grid_count,
        "r_lo": grid.number("r_lo", _R_LO, minimum=1),
        "r_hi": grid.number("r_hi", _R_HI, minimum=1),
        "symmetry_tol": cfg.number("symmetry_tol", SYMMETRY_TOL, above=0),
    }
    grid.close()
    cfg.close()
    return parsed


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
    cfg = _Section(resolved, _TOP)
    parsed = {
        **_provenance(cfg),
        "count": cfg.integer("count", minimum=0),
        # one path of trunc + 1 entries must fit a path matrix, even at count 0
        "trunc": cfg.integer("trunc", 200, minimum=1, maximum=_MAX_ENTRIES - 1),
        "max_paths_saved": cfg.integer("max_paths_saved", 100, minimum=0),
    }
    kernel = cfg.section("kernel").mapping
    try:
        law = path_law(kernel.get("name"))  # first: an unsampled record may not parse
    except ValueError as exc:
        raise ConfigError(f"kernel: {exc}") from exc
    # cozine's truncation depends on its draw, and is checked when it draws
    columns = 1 if law.amplitudes is None else parsed["trunc"] + 1
    most = _MAX_ENTRIES // columns
    shape = "at least one entry per path" if columns == 1 else f"'trunc' + 1 = {columns} entries per path"
    rule = f"<= {most} (a path matrix of at most {_MAX_ENTRIES} entries, {shape})"
    cfg.bound("count", parsed["count"], parsed["count"] <= most, rule)
    parsed["kernel"] = parse_kernel(kernel)
    cfg.close()
    return parsed


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
            k_zw, kt_zw = kernel.hermitian_eval(z, w), kernel.complementary_eval(z, w)
            probe = {
                "z": [z.real, z.imag],
                "w": [w.real, w.imag],
                "sample_hermitian": [float(np.mean(herm.real)), float(np.mean(herm.imag))],
                "sample_complementary": [float(np.mean(comp.real)), float(np.mean(comp.imag))],
                "kernel_hermitian": [float(np.real(k_zw)), float(np.imag(k_zw))],
                "kernel_complementary": [float(np.real(kt_zw)), float(np.imag(kt_zw))],
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
