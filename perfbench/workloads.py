"""The benchmark's four workloads: seeded inputs, one experiment, output checks.

Every workload is a closed loop: one benchmark process keeps one experiment
in flight and starts the next when the previous one returns.  Inputs come
only from the workload seed, through ``random.Random``, so the same seed gives
the same configs on any numpy version; the program receives nothing but
those configs.

Each workload class says why it was chosen: the layer it stresses and the
layers it bypasses.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

IDENTIFY_ARTIFACTS = (
    "etfe_data.csv",
    "predictions.csv",
    "hyperparameters.json",
    "verify_report.json",
    "summary.json",
)
MAX_MEDIAN_REL_ERROR = 0.1
SAMPLE_SE_LIMIT = 5.0
CLI_TIMEOUT_S = 120.0

# Tuned mixture hyperparameters of the shipped configs/resonant.json run.
TUNED_RESONANT = {
    "weight1": 0.02198313451245096,
    "weight2": 0.35829538298079183,
    "component1.alpha": 0.007437084182554785,
    "component2.a": 0.9390638257609869,
    "component2.omega0": 0.6254776553250977,
}

_COZINE = {"name": "cozine", "params": {"a": 0.9, "omega0": 0.2 * math.pi}}
_GEOMETRIC = {"name": "geometric", "params": {"alpha": 0.5}}
VERIFY_KERNELS = (
    {"name": "h2"},
    _GEOMETRIC,
    _COZINE,
    {"name": "mixture", "params": {"weight1": 1.0, "weight2": 1.0}, "component1": _GEOMETRIC, "component2": _COZINE},
    {**_GEOMETRIC, "circular": True},
)


def config_sha256(config: dict) -> str:
    """The provenance hash every artifact must carry: canonical JSON without out_dir."""
    payload = {k: v for k, v in config.items() if k != "out_dir"}
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def subcommand(config: dict) -> str:
    if "system" in config:
        return "identify"
    if "count" in config:
        return "sample"
    return "verify"


def program_env(root: Path) -> dict:
    """The environment for a child interpreter that imports hinfgp from ``root/src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    return env


def digest_dir(path: Path) -> dict[str, str]:
    return {
        f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in sorted(path.iterdir()) if f.is_file()
    }


def dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.iterdir() if f.is_file())


class Quality:
    """Quality figures accumulated by the output checks."""

    def __init__(self) -> None:
        self.lml: list[float] = []
        self.rel_error: list[float] = []
        self.sites_inside = 0
        self.n_data = 0
        self.verdicts_agreeing = 0
        self.verdicts = 0

    def metrics(self) -> dict[str, tuple[float, str]]:
        out = {}
        if self.lml:
            out["tuned_lml_mean"] = (sum(self.lml) / len(self.lml), "nats")
            out["median_rel_error_mean"] = (sum(self.rel_error) / len(self.rel_error), "ratio")
            out["coverage_ratio"] = (self.sites_inside / self.n_data, "ratio")
        if self.verdicts:
            out["verdict_agree_ratio"] = (self.verdicts_agreeing / self.verdicts, "ratio")
        return out


def _load_json(path: Path, sha: str, problems: list[str]):
    if not path.is_file():
        problems.append(f"missing {path.name}")
        return None
    doc = json.loads(path.read_text(encoding="utf-8"))
    if doc.get("config_sha256") != sha:
        problems.append(f"{path.name} carries the wrong config hash")
    return doc


def _check_text_header(path: Path, sha: str, problems: list[str]) -> None:
    if not path.is_file():
        problems.append(f"missing {path.name}")
        return
    with open(path, "r", encoding="utf-8") as handle:
        if handle.readline().rstrip("\n") != f"# config_sha256={sha}":
            problems.append(f"{path.name} carries the wrong config hash")


def check_identify(config: dict, out: Path, quality: Quality) -> list[str]:
    problems: list[str] = []
    sha = config_sha256(config)
    docs = {}
    for name in IDENTIFY_ARTIFACTS:
        if name.endswith(".csv"):
            _check_text_header(out / name, sha, problems)
        else:
            docs[name] = _load_json(out / name, sha, problems)
    summary, report = docs["summary.json"], docs["verify_report.json"]
    if summary is None or report is None:
        return problems
    if not summary["median_rel_error"] < MAX_MEDIAN_REL_ERROR:
        problems.append(f"median_rel_error {summary['median_rel_error']} >= {MAX_MEDIAN_REL_ERROR}")
    if not (summary["verify"]["symmetry"]["passed"] and report["symmetry"]["passed"]):
        problems.append("tuned kernel fails the symmetry check")
    quality.lml.append(summary["log_marginal_likelihood"])
    quality.rel_error.append(summary["median_rel_error"])
    quality.sites_inside += summary["sites_inside_ellipsoid"]
    quality.n_data += summary["n_data"]
    return problems


def check_verify(config: dict, out: Path, quality: Quality) -> list[str]:
    """h2 must diverge twice, an H-infinity kernel must never diverge, and a
    circular kernel must fail symmetry (a finding, not an error).  Verdicts
    that differ from the known class only by being inconclusive are counted
    in ``verdict_agree_ratio`` instead of failing the experiment."""
    problems: list[str] = []
    report = _load_json(out / "report.json", config_sha256(config), problems)
    if report is None:
        return problems
    kernel = config["kernel"]
    is_h2 = kernel.get("name") == "h2"
    circular = bool(kernel.get("circular", False))
    verdicts = [report["driscoll"][part]["verdict"] for part in ("real_part", "imag_part")]
    passed = report["symmetry"]["passed"]
    if is_h2 and verdicts != ["diverging", "diverging"]:
        problems.append(f"h2 Driscoll verdicts {verdicts}, expected two 'diverging'")
    if not is_h2 and "diverging" in verdicts:
        problems.append(f"H-infinity kernel {kernel} judged diverging")
    if passed == circular:
        problems.append(f"symmetry passed={passed} for circular={circular}")
    expected = "diverging" if is_h2 else "converging"
    quality.verdicts_agreeing += (passed != circular) + sum(v == expected for v in verdicts)
    quality.verdicts += 1 + len(verdicts)
    return problems


def _within(sample, reference, se: float) -> bool:
    return abs(complex(*sample) - complex(*reference)) <= SAMPLE_SE_LIMIT * se


def check_sample(config: dict, out: Path, quality: Quality) -> list[str]:
    problems: list[str] = []
    sha = config_sha256(config)
    _check_text_header(out / "paths.txt", sha, problems)
    summary = _load_json(out / "summary.json", sha, problems)
    if summary is None:
        return problems
    if abs(summary["mean_abs_sum"] - summary["expected_abs_sum"]) > SAMPLE_SE_LIMIT * summary["se_abs_sum"]:
        problems.append("mean_abs_sum is more than 5 standard errors from its kernel value")
    for probe in summary["probes"]:
        for part in ("hermitian", "complementary"):
            if not _within(probe[f"sample_{part}"], probe[f"kernel_{part}"], probe[f"se_{part}"]):
                problems.append(f"{part} probe at z={probe['z']}, w={probe['w']} is off by more than 5 standard errors")
    return problems


CHECKS = {"identify": check_identify, "verify": check_verify, "sample": check_sample}


def check(config: dict, out: Path, quality: Quality) -> list[str]:
    return CHECKS[subcommand(config)](config, out, quality)


class InProcess:
    """Experiments that call ``hinfgp.cli`` parse + run in this process."""

    cycle = 1

    def __init__(self, root: Path, seed: int) -> None:
        import hinfgp.cli

        self.cli = hinfgp.cli
        self.root = root
        self.seed = seed

    def run(self, config: dict, out: Path, spans_file: Path | None = None) -> None:
        resolved = {**copy.deepcopy(config), "out_dir": str(out)}
        kind = subcommand(config)
        if kind == "identify":
            self.cli.run_identify(self.cli.parse_identify_config(resolved))
        elif kind == "verify":
            self.cli.run_verify(self.cli.parse_verify_config(resolved))
        else:
            self.cli.run_sample(self.cli.parse_sample_config(resolved))

    def _shipped(self, name: str) -> dict:
        config = json.loads((self.root / "configs" / name).read_text(encoding="utf-8"))
        config.pop("out_dir", None)
        return config


class IdentifyTune(InProcess):
    """Marginal-likelihood tuning: ``run_identify`` on resonant plants with the
    shipped mixture kernel's 5 tunable parameters, budget 2000, the strict
    estimator and 25 filters.  About 2 000 LML evaluations on 25x25 Grams per
    experiment, each rebuilding the kernel through ``from_config``; widely
    linear prediction is absent.  Config 0 is configs/resonant.json itself;
    the others draw omega0/fs from [0.3, 1.5] rad/sample, xi from
    [0.05, 0.3] and the experiment seed."""

    def inputs(self, count: int) -> list[dict]:
        rng = random.Random(self.seed)
        base = self._shipped("resonant.json")
        configs = [base]
        for _ in range(count - 1):
            config = copy.deepcopy(base)
            fs = config["system"]["fs"]
            config["system"]["omega0"] = rng.uniform(0.3, 1.5) * fs
            config["system"]["xi"] = rng.uniform(0.05, 0.3)
            config["seed"] = rng.randrange(2**31)
            configs.append(config)
        return configs


class IdentifyWide(InProcess):
    """Widely linear prediction at n = 400: ``run_identify`` on the shipped
    resonant plant with the mixture kernel fixed at its tuned values, the
    wide estimator and 400 filters; only the experiment seed is drawn.  912
    scalar ``predict_wl`` calls plus ``eigh``/``schur_P`` on a 2.5 MB Gram
    and a single LML: the opposite use of ``kernels``/``regression`` from
    ``identify-tune``, a few large Grams instead of many small ones."""

    def inputs(self, count: int) -> list[dict]:
        rng = random.Random(self.seed)
        base = self._shipped("resonant.json")
        kernel = base["kernel"]
        kernel["tunable"] = []
        for path, value in TUNED_RESONANT.items():
            *parents, leaf = path.split(".")
            node = kernel
            for part in parents:
                node = node[part]
            node["params"][leaf] = value
        base["estimator"] = "wide"
        base["filter_bank"]["num_filters"] = 400
        configs = []
        for _ in range(count):
            config = copy.deepcopy(base)
            config["seed"] = rng.randrange(2**31)
            configs.append(config)
        return configs


class VerifyDeep(InProcess):
    """The Driscoll probe at n_max = 400 (grid count 200), cycling through
    h2, geometric, cozine, their mixture and a circular geometric kernel.
    The prefix refactorizations dominate; ``regression`` and ``sysid`` stay
    idle."""

    cycle = len(VERIFY_KERNELS)

    def inputs(self, count: int) -> list[dict]:
        # The seed picks the record that opens the cycle (and so the
        # determinism probe) and the seed each config records.
        offset = self.seed % len(VERIFY_KERNELS)
        return [
            {
                "seed": self.seed,
                "kernel": copy.deepcopy(VERIFY_KERNELS[(offset + i) % len(VERIFY_KERNELS)]),
                "n_max": 400,
                "grid": {"count": 200},
            }
            for i in range(count)
        ]


class CliCold:
    """One fresh ``python -m hinfgp.cli`` process per experiment, on the
    shipped ``configs/*.json`` unmodified; only ``--out`` is redirected.
    The only workload where import cost reaches the user, and the only one
    that runs ``hinfgp.sampling``."""

    def __init__(self, root: Path, seed: int) -> None:
        self.root = root
        self.seed = seed
        self.paths = sorted((root / "configs").glob("*.json"))
        self.cycle = len(self.paths)
        self.env = program_env(root)

    def inputs(self, count: int) -> list[dict]:
        # The seed picks the config that opens the cycle (and so the
        # determinism probe); the files themselves are never changed.
        shipped = [json.loads(path.read_text(encoding="utf-8")) for path in self.paths]
        self.path_of = {config_sha256(c): path for c, path in zip(shipped, self.paths)}
        offset = self.seed % len(shipped)
        return [shipped[(offset + i) % len(shipped)] for i in range(count)]

    def run(self, config: dict, out: Path, spans_file: Path | None = None) -> None:
        path = self.path_of[config_sha256(config)]
        cli_args = [subcommand(config), "--config", str(path), "--out", str(out)]
        if spans_file is None:
            command = [sys.executable, "-m", "hinfgp.cli", *cli_args]
        else:
            launcher = Path(__file__).with_name("launcher.py")
            command = [sys.executable, str(launcher), str(spans_file), *cli_args]
        proc = subprocess.run(
            command, cwd=self.root, env=self.env, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True, timeout=CLI_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"exit status {proc.returncode}: {proc.stderr.strip()[-300:]}")


WORKLOADS = {
    "identify-tune": IdentifyTune,
    "identify-wide": IdentifyWide,
    "verify-deep": VerifyDeep,
    "cli-cold": CliCold,
}
