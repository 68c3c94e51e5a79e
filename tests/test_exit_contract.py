"""The exit-status contract over generated configs.

Each example takes a small copy of a shipped config and changes one key, at
any depth and including whole sections: it removes the key, sets it to a
hostile value, or adds an unknown sibling (which a parser that forgets to
refuse unread keys would accept).  Then ``hinfgp`` runs in-process, and it
must either exit 0 with its subcommand's full file set, or exit 1 with
exactly one ``error:`` line and no output directory.  When parsing refuses
the changed config, the message names the changed key.

10**12 stands for a size no run could allocate: the caps refuse it while
parsing, and any allocation it drove would fail at once.
"""

import contextlib
import copy
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from hinfgp import cli

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

FILES = {
    "identify": {"etfe_data.csv", "predictions.csv", "hyperparameters.json", "verify_report.json", "summary.json"},
    "verify": {"report.json"},
    "sample": {"paths.txt", "summary.json"},
}
PARSERS = {
    "identify": cli.parse_identify_config,
    "verify": cli.parse_verify_config,
    "sample": cli.parse_sample_config,
}
SIBLING = "unknown_sibling"
LIST_KERNEL = {"name": "stationary_list", "params": {"coefficients": [1.0, 0.5, 0.25]}, "circular": True}


def _shipped(name, **overrides):
    cfg = json.loads((CONFIG_DIR / name).read_text(encoding="utf-8"))
    cfg.update(out_dir="out", **overrides)
    return cfg


def _bases():
    identify = [
        _shipped(name, budget=1, verify={"n_max": 20, "grid_count": 20}) for name in ("resonant.json", "allpass.json")
    ]
    for cfg in identify:
        cfg["kernel"]["tunable"] = []
    verify = [_shipped(name, n_max=20) for name in ("verify_geometric.json", "verify_h2.json")]
    # no shipped config has a circular flag or a coefficient list
    verify.append(_shipped("verify_geometric.json", n_max=20, kernel=LIST_KERNEL))
    for cfg in verify:
        cfg["grid"] = {**cfg.get("grid", {}), "count": 20}
    sample = _shipped("sample_geometric.json", count=20)
    return [("identify", cfg) for cfg in identify] + [("verify", cfg) for cfg in verify] + [("sample", sample)]


def _paths(node, prefix=()):
    """The path of every key in a config, at any depth."""
    for key, value in node.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _paths(value, prefix + (key,))


BASES = _bases()
LIST_BASE = next(index for index, (_, cfg) in enumerate(BASES) if cfg["kernel"] == LIST_KERNEL)
CASES = [(index, path) for index, (_, cfg) in enumerate(BASES) for path in _paths(cfg)]
MUTATIONS = [("remove", None), ("sibling", None)] + [
    ("set", value) for value in (0, -1, 10**12, math.nan, True, "x", [], None)
]


def _mutated(cfg, path, mutation):
    """A copy of ``cfg`` with the key at ``path`` changed, and the changed key's name."""
    cfg = copy.deepcopy(cfg)
    *parents, leaf = path
    node = cfg
    for key in parents:
        node = node[key]
    kind, value = mutation
    if kind == "remove":
        del node[leaf]
    elif kind == "set":
        node[leaf] = value
    else:
        node[SIBLING], leaf = 1, SIBLING
    return cfg, leaf


@settings(derandomize=True, deadline=None, max_examples=300, database=None)
@given(case=st.sampled_from(CASES), mutation=st.sampled_from(MUTATIONS))
@example(case=(len(BASES) - 1, ("count",)), mutation=("set", 10**12))  # sample's path matrix
@example(case=(LIST_BASE, ("kernel", "circular")), mutation=("set", 0))
@example(case=(LIST_BASE, ("kernel", "params", "coefficients")), mutation=("set", [True]))
def test_one_changed_key_exits_cleanly(case, mutation):
    index, path = case
    command, base = BASES[index]
    cfg, leaf = _mutated(base, path, mutation)
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp), warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a run's warnings are not part of the contract
        try:
            PARSERS[command](copy.deepcopy(cfg))
        except cli.ConfigError as exc:
            assert leaf in str(exc), (path, mutation, str(exc))
        Path("config.json").write_text(json.dumps(cfg), encoding="utf-8")
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = cli.main([command, "--config", "config.json"])
        errors = [line for line in stderr.getvalue().splitlines() if line.startswith("error: ")]
        out_dir = cfg.get("out_dir")
        out = Path(out_dir) if isinstance(out_dir, str) and out_dir else None
        if code == 0:
            assert errors == [] and {p.name for p in out.iterdir()} == FILES[command], (path, mutation)
        else:
            assert code == 1 and len(errors) == 1, (path, mutation, errors)
            assert out is None or not out.exists(), (path, mutation)
