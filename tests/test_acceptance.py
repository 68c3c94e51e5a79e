"""Acceptance gate: eleven numbered end-to-end criteria.

Each test checks one criterion at its stated tolerance and prints a single
``criterion N: PASS/FAIL (...)`` line (visible with ``pytest -s``); the same
line is the assertion message on failure.
"""

import hashlib
import json
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from hinfgp import cli, regression
from hinfgp.kernels import (
    ComplexKernel,
    KernelFamily,
    cozine_kernel,
    exponential_kernel,
    from_config,
    geometric_kernel,
    h2_kernel,
    real_imag_kernels,
)
from hinfgp.regression import (
    FrequencyDataset,
    fit,
    predict_sl,
    predict_wl,
)
from hinfgp.sampling import sample_cozine_batch, sample_stationary_batch
from hinfgp.sysid import TimeTrace, estimate_noise_var, etfe, simulate
from hinfgp.verify import dense_spiral, driscoll_test, symmetry_test

REPO = Path(__file__).resolve().parents[1]
CONFIG_DIR = REPO / "configs"


def report(num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def annulus_grid(count: int, r_lo: float, r_hi: float) -> np.ndarray:
    """Golden-angle points with radii spanning the full annulus."""
    m = np.arange(count)
    return np.linspace(r_lo, r_hi, count) * np.exp(1j * m * math.pi * (3.0 - math.sqrt(5.0)))


def random_instance(rng, n_max=6):
    alpha = rng.uniform(0.2, 0.8)
    n = rng.integers(2, n_max + 1)
    angles = np.sort(rng.uniform(-math.pi, math.pi, n))
    while np.min(np.diff(np.concatenate([angles, [angles[0] + 2 * math.pi]]))) < 0.3:
        angles = np.sort(rng.uniform(-math.pi, math.pi, n))
    radii = rng.uniform(1.05, 2.5, n)
    sites = radii * np.exp(1j * angles)
    y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return geometric_kernel(alpha), sites, y


def run_experiment(config_name: str, out_dir: Path):
    resolved = cli.resolve_config(cli.load_config(CONFIG_DIR / config_name), None, str(out_dir))
    cfg = cli.parse_identify_config(resolved)
    start = time.perf_counter()
    summary = cli.run_identify(cfg)
    elapsed = time.perf_counter() - start
    return cfg, summary, elapsed


def rebuild_posterior(cfg, values):
    """Recreate the run's dataset (same seed derivation as the pipeline) and
    refit with the recorded hyperparameter values."""
    input_seed, output_noise_seed, input_noise_seed, _ = (
        int(s) for s in np.random.SeedSequence(cfg.seed).generate_state(4, np.uint64)
    )
    rng_input = np.random.Generator(np.random.Philox(key=input_seed))
    u_clean = math.sqrt(cfg.input_var) * rng_input.standard_normal(cfg.trace_len)
    fs = cfg.system.sample_rate
    y_trace = simulate(
        cfg.system, TimeTrace(u_clean, fs), seed=output_noise_seed, noise_var=cfg.output_var
    )
    if cfg.output_var > 0.0:
        rng_u = np.random.Generator(np.random.Philox(key=input_noise_seed))
        u_obs = TimeTrace(
            u_clean + math.sqrt(cfg.output_var) * rng_u.standard_normal(cfg.trace_len), fs
        )
    else:
        u_obs = TimeTrace(u_clean, fs)
    if cfg.noise_var == "auto":
        noise_var = estimate_noise_var(u_obs, y_trace, cfg.bank)
    else:
        noise_var = float(cfg.noise_var)
    data = etfe(u_obs, y_trace, cfg.bank, noise_var)
    return fit(cfg.kernel(values), data), data


@pytest.fixture(scope="module")
def resonant_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("resonant")
    cfg, summary, elapsed = run_experiment("resonant.json", out)
    return cfg, summary, out, elapsed


@pytest.fixture(scope="module")
def allpass_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("allpass")
    cfg, summary, elapsed = run_experiment("allpass.json", out)
    return cfg, summary, out, elapsed


class TestAcceptanceCriteria:
    def test_criterion_01_closed_forms_match_series(self):
        start = time.perf_counter()
        pts = annulus_grid(100, 1.1, 5.0)
        z = pts[:, None]
        w = pts[None, :]
        worst = 0.0
        cases = [(geometric_kernel(a), a) for a in (0.5, 0.8)]
        cases.append((exponential_kernel(), None))
        for kernel, alpha in cases:
            for target, pair_w in (
                (np.asarray(kernel.hermitian_eval(z, w)), np.conj(w)),
                (np.asarray(kernel.complementary_eval(z, w)), w),
            ):
                inv_p = 1.0 / (z * pair_w)
                acc = np.zeros_like(inv_p)
                term = np.ones_like(inv_p)
                for n in range(201):
                    acc += term
                    term = term * (alpha * inv_p) if alpha is not None else term * inv_p / (n + 1)
                worst = max(worst, float(np.max(np.abs(target - acc))))
        elapsed = time.perf_counter() - start
        ok = worst < 1e-10 and elapsed < 1.0
        report(1, ok, f"max closed-form vs 200-term series error {worst:.2e}, {elapsed:.2f}s")

    def test_criterion_02_cozine_monte_carlo(self):
        start = time.perf_counter()
        family = KernelFamily.from_config({"name": "cozine", "params": {"a": 0.5, "omega0": math.pi / 2.0}})
        kernel = family({})
        count = 100_000
        mat = sample_cozine_batch(family, seed=20260823, count=count)
        powers = np.arange(mat.shape[1])
        probes = [
            (2.0 + 0.0j, 2.0 + 0.0j),
            (2.0 + 0.0j, 2.0 * np.exp(1j * math.pi / 3.0)),
            (1.3 * np.exp(0.9j), 1.3 * np.exp(0.9j)),
            (1.2 * np.exp(-2.0j), 3.0 * np.exp(1.0j)),
            (1.5 * np.exp(1j * math.pi / 2.0), 2.0 * np.exp(-1j * math.pi / 4.0)),
        ]
        worst = 0.0
        for z, w in probes:
            f_z = mat @ z ** (-powers)
            f_w = mat @ w ** (-powers)
            for samples, target in (
                (f_z * np.conj(f_w), complex(kernel.hermitian_eval(z, w))),
                (f_z * f_w, complex(kernel.complementary_eval(z, w))),
            ):
                se = math.sqrt(
                    (np.var(samples.real, ddof=1) + np.var(samples.imag, ddof=1)) / count
                )
                worst = max(worst, abs(np.mean(samples) - target) / se)
        elapsed = time.perf_counter() - start
        ok = worst < 4.0 and elapsed < 30.0
        report(
            2,
            ok,
            f"worst covariance deviation {worst:.2f} standard errors over "
            f"{len(probes)} probe pairs x 2 parts, {elapsed:.1f}s",
        )

    def test_criterion_03_conjugate_symmetry(self):
        start = time.perf_counter()
        grid = dense_spiral(200, 1.1, 3.0)
        builtins = [
            geometric_kernel(0.5),
            geometric_kernel(0.25),
            exponential_kernel(),
            cozine_kernel(0.5, math.pi / 2.0),
            from_config({"name": "stationary_list", "params": {"coefficients": [1.0, 0.5, 0.25]}}),
            from_config(
                {
                    "name": "mixture",
                    "params": {"weight1": 0.3, "weight2": 0.7},
                    "component1": {"name": "geometric", "params": {"alpha": 0.5}},
                    "component2": {"name": "cozine", "params": {"a": 0.9, "omega0": 0.63}},
                }
            ),
        ]
        worst = 0.0
        for kernel in builtins:
            rep = symmetry_test(kernel, grid)
            worst = max(worst, rep.max_err_diag, rep.max_err_cross)
        base = geometric_kernel(0.5)
        circular = ComplexKernel(base.hermitian_eval, lambda z, w: 0.0 * np.multiply(z, w))
        circ_err = symmetry_test(circular, grid).max_err_cross
        elapsed = time.perf_counter() - start
        ok = worst < 1e-10 and circ_err > 1e-10 and elapsed < 1.0
        report(
            3,
            ok,
            f"{len(builtins)} built-ins max error {worst:.2e}, circular counterexample "
            f"error {circ_err:.2e}, {elapsed:.2f}s",
        )

    def test_criterion_04_driscoll_discrimination(self):
        start = time.perf_counter()
        self_test = driscoll_test(h2_kernel, 200)
        n_vals = np.asarray(self_test.n_values, dtype=float)
        traces = np.asarray(self_test.traces)
        rel = float(np.max(np.abs(traces - n_vals) / n_vals))
        k_r, k_i = real_imag_kernels(geometric_kernel(0.5))
        rep_r = driscoll_test(k_r, 200)
        rep_i = driscoll_test(k_i, 200)
        bound = max(max(rep_r.traces), max(rep_i.traces))
        elapsed = time.perf_counter() - start
        ok = (
            rel < 1e-8
            and self_test.verdict == "diverging"
            and rep_r.verdict == "converging"
            and rep_i.verdict == "converging"
            and bound < 10.0
            and elapsed < 60.0
        )
        report(
            4,
            ok,
            f"self-test traces = n to {rel:.2e} rel ({self_test.verdict}); "
            f"geometric(0.5) {rep_r.verdict}/{rep_i.verdict} with traces <= {bound:.3f}, "
            f"{elapsed:.1f}s",
        )

    def test_criterion_05_path_summability(self):
        start = time.perf_counter()
        count = 10_000
        family = KernelFamily.from_config({"name": "geometric", "params": {"alpha": 0.25}})
        mat = sample_stationary_batch(family, 200, 20260823, count)
        sums = np.sum(np.abs(mat), axis=1)
        target = math.sqrt(2.0 / math.pi) / (1.0 - 0.5)
        se = float(np.std(sums, ddof=1) / math.sqrt(count))
        dev = abs(float(np.mean(sums)) - target) / se
        elapsed = time.perf_counter() - start
        ok = dev < 3.0 and elapsed < 10.0
        report(
            5,
            ok,
            f"mean impulse-response abs-sum {np.mean(sums):.4f} vs {target:.4f} "
            f"({dev:.2f} standard errors), {elapsed:.1f}s",
        )

    def test_criterion_06_regression_exactness(self):
        post = fit(
            geometric_kernel(0.5), FrequencyDataset(np.array([2.0]), np.array([1.0 + 0j]))
        )
        mean, var = predict_sl(post, 3.0)
        oracle_err = max(abs(mean - 21.0 / 22.0), abs(var - 36.0 / 2057.0))

        rng = np.random.default_rng(2026)
        worst_interp = 0.0
        worst_var_low, worst_var_high = 0.0, 0.0
        for _ in range(50):
            kernel, sites, y = random_instance(rng)
            exact = fit(kernel, FrequencyDataset(sites, y, 0.0))
            for z, target in zip(sites, y):
                m, _ = predict_sl(exact, complex(z))
                worst_interp = max(worst_interp, abs(m - target) / max(1.0, abs(target)))
            noisy = fit(kernel, FrequencyDataset(sites, y, 0.01))
            for _ in range(5):
                z = complex(rng.uniform(1.05, 3.0) * np.exp(1j * rng.uniform(-math.pi, math.pi)))
                _, v = predict_sl(noisy, z)
                prior = float(np.real(kernel.hermitian_eval(z, z)))
                worst_var_low = max(worst_var_low, -v)
                worst_var_high = max(worst_var_high, v - prior)
        ok = (
            oracle_err < 1e-10
            and worst_interp < 1e-6
            and worst_var_low <= 0.0
            and worst_var_high <= 1e-12
        )
        report(
            6,
            ok,
            f"hand-computed posterior error {oracle_err:.2e}; 50 instances: worst "
            f"interpolation {worst_interp:.2e}, variance within [0, prior] "
            f"(margins {worst_var_low:.1e}/{worst_var_high:.1e})",
        )

    def test_criterion_07_coverage_calibration(self):
        kernel = geometric_kernel(0.5)
        family = KernelFamily.from_config({"name": "geometric", "params": {"alpha": 0.5}})
        sites = np.exp(1j * np.arange(1, 26) * math.pi / 26.0)
        held = np.exp(1j * np.linspace(1.5, 24.5, 8) * math.pi / 26.0)
        trunc, draws, eta, noise = 200, 200, 3.0, 0.01
        mat = sample_stationary_batch(family, trunc, 777, draws)
        powers = np.arange(trunc + 1)
        f_sites = mat @ (sites[:, None] ** (-powers[None, :])).T
        f_held = mat @ (held[:, None] ** (-powers[None, :])).T
        noise_rng = np.random.default_rng(20260823)
        hits = total = 0
        for i in range(draws):
            y = f_sites[i] + math.sqrt(noise / 2.0) * (
                noise_rng.standard_normal(sites.size)
                + 1j * noise_rng.standard_normal(sites.size)
            )
            post = fit(kernel, FrequencyDataset(sites, y, noise))
            means, variances = predict_sl(post, held)
            hits += int(np.sum(np.abs(f_held[i] - means) <= eta * np.sqrt(variances)))
            total += held.size
        freq = hits / total
        p = 8.0 / 9.0
        threshold = p - 3.0 * math.sqrt(p * (1.0 - p) / total)
        ok = freq >= threshold
        report(
            7,
            ok,
            f"eta=3 ellipsoid coverage {freq:.4f} over {total} held-out trials "
            f"(bound {threshold:.4f})",
        )

    def test_criterion_08_resonant_experiment(self, resonant_run):
        cfg, summary, _, elapsed = resonant_run
        geometry = (
            cfg.input_var == 0.01
            and cfg.output_var == 1e-6
            and cfg.bank.num_filters == 25
            and cfg.bank.taps == 1000
            and cfg.system.sample_rate == 100.0
        )
        ok = (
            geometry
            and summary["n_data"] == 25
            and summary["median_rel_error"] < 0.1
            and summary["sites_inside_ellipsoid"] >= 22
            and elapsed < 120.0
        )
        report(
            8,
            ok,
            f"median rel error {summary['median_rel_error']:.4f} (< 0.1), "
            f"{summary['sites_inside_ellipsoid']}/25 sites inside eta=3 ellipsoids, "
            f"{elapsed:.1f}s",
        )

    def test_criterion_09_allpass_experiment(self, allpass_run):
        _, summary, out, elapsed = allpass_run
        rows = np.loadtxt(out / "predictions.csv", delimiter=",", skiprows=3)
        mags = np.abs(rows[:, 3] + 1j * rows[:, 4])
        flat_fraction = float(np.mean(np.abs(mags - 1.0) < 0.15))
        ok = (
            summary["median_rel_error"] < 0.1
            and summary["sites_inside_ellipsoid"] >= 22
            and flat_fraction >= 0.9
        )
        report(
            9,
            ok,
            f"median rel error {summary['median_rel_error']:.4f}, "
            f"{summary['sites_inside_ellipsoid']}/25 sites inside, "
            f"|mean| within 0.15 of 1 at {100 * flat_fraction:.1f}% of grid points, "
            f"{elapsed:.1f}s",
        )

    def test_criterion_10_impropriety_diagnostic(self, resonant_run):
        cfg, summary, out, _ = resonant_run
        ratio = summary["impropriety"]
        values = json.loads((out / "hyperparameters.json").read_text())["values"]
        post, data = rebuild_posterior(cfg, values)
        # guard: the rebuilt dataset must match the one the pipeline wrote
        logged = np.loadtxt(out / "etfe_data.csv", delimiter=",", skiprows=3)
        np.testing.assert_allclose(
            logged[:, 1] + 1j * logged[:, 2], data.responses, rtol=0, atol=1e-15
        )
        grid_z = np.exp(1j * math.pi * (np.arange(512) + 1.0) / 513.0)
        means_sl, _ = predict_sl(post, grid_z)
        means_wl = np.array([predict_wl(post, complex(z)).mean for z in grid_z])
        rms = float(
            np.sqrt(np.mean(np.abs(means_wl - means_sl) ** 2))
            / np.sqrt(np.mean(np.abs(means_sl) ** 2))
        )
        ok = ratio < 0.1 and rms < 0.05
        report(
            10,
            ok,
            f"Schur-complement ratio {ratio:.4f} (< 0.1), widely vs strictly linear "
            f"mean difference {100 * rms:.2f}% RMS (< 5%)",
        )

    def test_criterion_11_determinism(self, tmp_path):
        jobs = {
            "identify": {
                "seed": 9,
                "system": {"type": "external", "num": [2.0], "den": [1.0], "fs": 1.0},
                "noise": {"input_var": 1.0, "output_var": 0.0001},
                "trace_len": 400,
                "filter_bank": {"num_filters": 5, "taps": 100},
                "kernel": {"name": "geometric", "params": {"alpha": 0.5}},
                "estimator": "strict",
                "eta": 3.0,
                "noise_var": 0.0001,
                "budget": 1,
                "verify": {"n_max": 40, "grid_count": 60},
            },
            "verify": {
                "seed": 0,
                "kernel": {"name": "geometric", "params": {"alpha": 0.5}},
                "n_max": 80,
                "grid": {"count": 80},
            },
            "sample": {
                "seed": 4,
                "kernel": {"name": "geometric", "params": {"alpha": 0.25}},
                "count": 500,
                "trunc": 150,
                "max_paths_saved": 20,
            },
        }
        ok = True
        details = []
        for name, base in jobs.items():
            digests = []
            for attempt in range(2):
                out = tmp_path / f"{name}{attempt}"
                cfg_path = tmp_path / f"{name}{attempt}.json"
                cfg_path.write_text(json.dumps(dict(base, out_dir=str(out))))
                proc = subprocess.run(
                    [sys.executable, "-m", "hinfgp.cli", name, "--config", str(cfg_path)],
                    capture_output=True,
                    text=True,
                    cwd=REPO,
                )
                assert proc.returncode == 0, f"{name} run failed: {proc.stderr}"
                digests.append(
                    {
                        f.name: hashlib.sha256(f.read_bytes()).hexdigest()
                        for f in sorted(out.iterdir())
                    }
                )
            same = digests[0] == digests[1] and len(digests[0]) > 0
            ok = ok and same
            details.append(f"{name} {'byte-identical' if same else 'DIFFERS'}")
        report(11, ok, "; ".join(details))


def test_resonant_tune_takes_under_400_evaluations(monkeypatch, tmp_path):
    """The tune of configs/resonant.json (budget 2000) converges in fewer
    than 400 likelihood evaluations, each with its gradient, to at least the
    47.42 the Nelder-Mead search it replaced reached in 1 993 of them."""
    calls = []
    evaluate = regression._likelihood

    def counting(*args):
        calls.append(None)
        return evaluate(*args)

    monkeypatch.setattr(regression, "_likelihood", counting)
    raw = json.loads((CONFIG_DIR / "resonant.json").read_text(encoding="utf-8"))
    summary = cli.run_identify(cli.parse_identify_config(cli.resolve_config(raw, None, str(tmp_path / "out"))))
    assert len(calls) < 400
    assert summary["log_marginal_likelihood"] >= 47.42


@pytest.mark.parametrize(
    "seed, omega0, xi",
    [
        (1664036786, 143.54296634659545, 0.16654919541414115),
        (1538097552, 133.42509227226657, 0.2922654663309315),
        (305642068, 131.68881271412724, 0.23876844637756262),
    ],
    ids=["former-optimum", "first-step", "white-noise-corner"],
)
def test_drawn_resonant_plant_meets_the_error_bound(tmp_path, seed, omega0, xi):
    """configs/resonant.json on three drawn plants (the benchmark's
    identify-tune inputs 29 of seed 805, 5 of seed 7104 and 76 of seed
    7101).  On the first, the Nelder-Mead optimum predicted with a median
    relative error of 0.1097, past criterion 8's bound of 0.1.  On the
    second, L-BFGS-B with the clamps as bounds took the whole gradient as
    its first step, ended in a corner at an LML of -45.2 (against -5.5) and
    predicted at 0.259.  On the third, with alpha searched up to 1, the
    tune ended at alpha -> 1 with weight1 -> 0, where the geometric member
    is white noise on the diagonal, and predicted at 0.120."""
    raw = json.loads((CONFIG_DIR / "resonant.json").read_text(encoding="utf-8"))
    raw["seed"] = seed
    raw["system"]["omega0"] = omega0
    raw["system"]["xi"] = xi
    summary = cli.run_identify(cli.parse_identify_config(cli.resolve_config(raw, None, str(tmp_path / "out"))))
    assert summary["median_rel_error"] < 0.1


@pytest.mark.parametrize(
    "seed, omega0, xi",
    [
        (1646073651, 122.28808630312551, 0.19263615734675882),
        (795354691, 148.74102942921618, 0.2755324157987285),
        (227287083, 148.29657095427737, 0.20667513944523874),
        (1111959145, 137.2044668876674, 0.28802046963634254),
    ],
    ids=["seed-1-input-161", "seed-7205-input-9", "seed-4-input-83", "seed-7101-input-52"],
)
def test_peak_start_reaches_the_error_bound(tmp_path, seed, omega0, xi):
    """configs/resonant.json on four drawn plants (the benchmark's
    identify-tune inputs named by the ids).  From the record's start and
    four jittered ones, every search ended in a local optimum far from the
    resonance (LML -61.4, -41.2, -69.2 and -29.7) and predicted at 0.163,
    0.120, 0.236 and 0.094.  The fifth start, with omega0 at the ETFE's
    peak, reaches LMLs of -4.4 to 13.7 and errors of 0.009 to 0.035."""
    raw = json.loads((CONFIG_DIR / "resonant.json").read_text(encoding="utf-8"))
    raw["seed"] = seed
    raw["system"]["omega0"] = omega0
    raw["system"]["xi"] = xi
    summary = cli.run_identify(cli.parse_identify_config(cli.resolve_config(raw, None, str(tmp_path / "out"))))
    assert summary["median_rel_error"] < 0.1


# Tuned results of the shipped configs, pinned exactly: the L-BFGS-B path
# depends on every likelihood and gradient bit, so any change to kernel
# evaluation, Gram assembly or factorization shows here.  The former
# Nelder-Mead optimum of the resonant config is the benchmark's
# TUNED_RESONANT, the kernel that identify-wide fixes, and
# test_regression.TUNED_MIXTURE.
GOLDEN_TUNED = {
    "resonant.json": (
        47.834692810562345,
        {
            "weight1": 0.03846850193112265,
            "weight2": 0.21008073077821374,
            "component1.alpha": 8.184178360426072e-10,
            "component2.a": 0.9390048271861803,
            "component2.omega0": 0.6255141003949337,
        },
    ),
    "allpass.json": (12.703579562080396, {"alpha": 0.39423194864897637}),
}


def test_tuned_results_are_golden(resonant_run, allpass_run):
    for name, run in (("resonant.json", resonant_run), ("allpass.json", allpass_run)):
        summary = run[1]
        likelihood, values = GOLDEN_TUNED[name]
        assert summary["log_marginal_likelihood"] == likelihood, name
        assert summary["hyperparameters"] == values, name
