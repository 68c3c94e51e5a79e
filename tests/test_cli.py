"""Config parsing, kernel records, artifact files, and exit codes for the
``hinfgp`` command-line entry point."""

import hashlib
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from hinfgp import cli, regression, sysid
from hinfgp._linalg import ConditioningError
from hinfgp.cli import (
    ConfigError,
    config_hash,
    load_config,
    parse_identify_config,
    parse_kernel,
    parse_sample_config,
    parse_verify_config,
    resolve_config,
)
from hinfgp.kernels import ComplexKernel, from_config, geometric_kernel

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def identify_config(out_dir, **overrides):
    cfg = {
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
        "out_dir": str(out_dir),
    }
    cfg.update(overrides)
    return cfg


def mixture_record(**overrides):
    """A mixture kernel record; ``weight1``/``weight2`` go to its params, other keys to the record."""
    record = {
        "name": "mixture",
        "params": {"weight1": 1.0, "weight2": 1.0},
        "component1": {"name": "geometric", "params": {"alpha": 0.5}},
        "component2": {"name": "exponential"},
    }
    for key, value in overrides.items():
        (record["params"] if key.startswith("weight") else record)[key] = value
    return record


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


class TestConfigPlumbing:
    def test_load_rejects_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(path)

    def test_load_rejects_non_object(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigError, match="JSON object"):
            load_config(path)

    def test_resolve_overrides(self):
        raw = {"seed": 1, "out_dir": "a"}
        assert resolve_config(raw, None, None) == raw
        assert resolve_config(raw, 7, None)["seed"] == 7
        assert resolve_config(raw, None, "b")["out_dir"] == "b"
        assert raw["seed"] == 1  # input untouched

    def test_hash_ignores_out_dir(self):
        base = {"seed": 1, "kernel": {"name": "geometric"}, "out_dir": "x"}
        moved = dict(base, out_dir="somewhere/else")
        assert config_hash(base) == config_hash(moved)
        assert len(config_hash(base)) == 64

    def test_hash_sensitive_to_content(self):
        base = {"seed": 1, "out_dir": "x"}
        assert config_hash(base) != config_hash(dict(base, seed=2))


class TestKernelFamilyFromRecord:
    def test_flat_substitution(self):
        record = {"name": "geometric", "params": {"alpha": 0.5}}
        family = parse_kernel(record, ["alpha"])
        assert family.tunable == ("alpha",)
        assert family.record_value("alpha") == 0.5
        z, w = 2.0 + 0.0j, 2.0 * np.exp(1j * math.pi / 3.0)
        got = family({"alpha": 0.7}).hermitian_eval(z, w)
        want = geometric_kernel(0.7).hermitian_eval(z, w)
        assert abs(got - want) < 1e-14

    def test_nested_substitution(self):
        record = {
            "name": "mixture",
            "params": {"weight1": 0.3, "weight2": 0.7},
            "component1": {"name": "geometric", "params": {"alpha": 0.5}},
            "component2": {"name": "cozine", "params": {"a": 0.6, "omega0": 1.1}},
        }
        family = parse_kernel(
            record, ["component1.alpha", "component2.a", "weight1"]
        )
        assert family.tunable == ("component1.alpha", "component2.a", "weight1")
        assert [family.record_value(p) for p in family.tunable] == [0.5, 0.6, 0.3]
        built = family({"component1.alpha": 0.9, "component2.a": 0.4, "weight1": 1.5})
        direct = from_config(
            {
                "name": "mixture",
                "params": {"weight1": 1.5, "weight2": 0.7},
                "component1": {"name": "geometric", "params": {"alpha": 0.9}},
                "component2": {"name": "cozine", "params": {"a": 0.4, "omega0": 1.1}},
            }
        )
        z = 1.5 * np.exp(0.4j)
        assert abs(built.hermitian_eval(z, z) - direct.hermitian_eval(z, z)) < 1e-14

    def test_base_record_unchanged_by_family_calls(self):
        record = {"name": "geometric", "params": {"alpha": 0.5}}
        family = parse_kernel(record, ["alpha"])
        family({"alpha": 0.9})
        assert record["params"]["alpha"] == 0.5

    def test_no_tunable_gives_no_domains(self):
        family = parse_kernel({"name": "exponential"}, [])
        assert family.tunable == ()
        assert family.domains == {}

    def test_non_tunable_leaf(self):
        record = {"name": "geometric", "params": {"alpha": 0.5}}
        with pytest.raises(ConfigError, match="not tunable"):
            parse_kernel(record, ["coefficients"])

    def test_duplicate_path(self):
        record = {"name": "geometric", "params": {"alpha": 0.5}}
        with pytest.raises(ConfigError, match="duplicate"):
            parse_kernel(record, ["alpha", "alpha"])

    def test_unresolvable_path(self):
        record = {"name": "geometric", "params": {"alpha": 0.5}}
        with pytest.raises(ConfigError, match="does not resolve"):
            parse_kernel(record, ["component3.alpha"])

    def test_missing_initial_value(self):
        record = {"name": "geometric", "params": {"alpha": 0.5}}
        with pytest.raises(ConfigError, match="no initial value"):
            parse_kernel(record, ["a"])

    def test_invalid_base_record_rejected_eagerly(self):
        with pytest.raises(ValueError, match="kernel"):
            parse_kernel({"name": "nope"}, [])


class TestKernelFromVerifyRecord:
    def test_h2_kernel(self):
        kernel = parse_kernel({"name": "h2"}, verify=True)({})
        assert abs(kernel.hermitian_eval(2.0, 2.0) - 4.0 / 3.0) < 1e-14
        z, w = 2.0 + 0.0j, 2.0 * np.exp(1j * math.pi / 3.0)
        # complementary part pairs f with f, i.e. the kernel at (z, conj(w))
        want = (z * w) / (z * w - 1.0)
        assert abs(kernel.complementary_eval(z, w) - want) < 1e-14

    def test_h2_extra_keys_rejected(self):
        with pytest.raises(ConfigError, match="h2"):
            parse_kernel({"name": "h2", "params": {"alpha": 0.5}}, verify=True)

    def test_circular_flag_zeroes_complementary(self):
        record = {"name": "geometric", "params": {"alpha": 0.5}, "circular": True}
        kernel = parse_kernel(record, verify=True)({})
        z = 2.0 * np.exp(0.7j)
        assert kernel.complementary_eval(z, z) == 0.0
        assert abs(
            kernel.hermitian_eval(z, z) - geometric_kernel(0.5).hermitian_eval(z, z)
        ) < 1e-14

    def test_circular_must_be_boolean(self):
        with pytest.raises(ConfigError, match="circular"):
            parse_kernel(
                {"name": "geometric", "params": {"alpha": 0.5}, "circular": "yes"}, verify=True
            )

    def test_unknown_family(self):
        with pytest.raises(ConfigError, match="unknown kernel"):
            parse_kernel({"name": "sobolev"}, verify=True)


class TestParseIdentifyConfig:
    def test_good_config(self, tmp_path):
        cfg = parse_identify_config(identify_config(tmp_path))
        assert cfg.seed == 9
        assert cfg.system_type == "external"
        assert cfg.estimator == "strict"
        assert cfg.kernel.tunable == ()
        assert cfg.noise_var == 0.0001
        assert cfg.verify_n_max == 40
        assert len(cfg.sha256) == 64

    @pytest.mark.parametrize(
        "mutate, match",
        [
            (lambda c: c.update(surprise=1), "unknown key"),
            (lambda c: c.pop("seed"), "seed"),
            (lambda c: c.update(seed=True), "integer"),
            (lambda c: c.pop("system"), "missing required key 'system' in config"),
            (lambda c: c["system"].update(type="continuous"), "'type' in system must be one of"),
            (lambda c: c["system"].pop("num"), "missing required key 'num' in system"),
            (lambda c: c["system"].update(fs=-1.0), r"'fs' in system must be > 0, got -1\.0"),
            (
                lambda c: c.update(system={"type": "resonant", "omega0": 5.0, "xi": 0.1, "fs": 0}),
                r"'fs' in system must be > 0, got 0",
            ),
            (
                lambda c: c.update(system={"type": "allpass", "pole": [0.5, 0.0], "fs": 0.0}),
                r"'fs' in system must be > 0, got 0\.0",
            ),
            (
                lambda c: c.update(system={"type": "resonant", "omega0": 1e12, "xi": 0.1, "fs": 50.0}),
                r"fs=50\.0 Hz undersamples the resonance at omega0=1000000000000\.0",
            ),
            (lambda c: c.pop("noise"), "noise"),
            (lambda c: c["noise"].update(input_var=0.0), "input_var"),
            (lambda c: c["noise"].update(output_var=-1.0), "output_var"),
            (
                lambda c: c.update(trace_len=50),
                r"'trace_len' in config must be >= 'taps' in filter_bank \(100\), got 50",
            ),
            (lambda c: c["filter_bank"].update(window_convention="boxcar"), "window_convention must be"),
            (lambda c: c.update(kernel=mixture_record(weight1=-1.0)), "'weight1'"),
            (lambda c: c.update(kernel=mixture_record(component1=3)), "'component1'"),
            (lambda c: c.update(kernel=mixture_record(component2=[])), "'component2'"),
            (lambda c: c.update(estimator="robust"), "estimator"),
            (lambda c: c.update(eta=0.0), "eta"),
            (lambda c: c.update(noise_var=-0.5), "noise_var"),
            (lambda c: c.update(noise_var="guess"), "noise_var"),
            (lambda c: c.update(budget=0), "budget"),
            (lambda c: c.update(diagnostics={"impropriety": "yes"}), "boolean"),
            (lambda c: c.update(verify={"points": 10}), "unknown key"),
            (lambda c: c.update(verify={"n_max": 15}), "n_max"),
            (lambda c: c["kernel"].update(tunable="alpha"), "list"),
            (lambda c: c.pop("out_dir"), "output directory"),
        ],
        ids=[
            "extra_key",
            "no_seed",
            "bool_seed",
            "no_system",
            "bad_system_type",
            "bad_external",
            "negative_fs",
            "resonant_zero_fs",
            "allpass_zero_fs",
            "undersampled",
            "no_noise",
            "zero_input_var",
            "negative_output_var",
            "short_trace",
            "bad_window_convention",
            "negative_weight",
            "scalar_component1",
            "list_component2",
            "bad_estimator",
            "zero_eta",
            "negative_noise_var",
            "string_noise_var",
            "zero_budget",
            "non_bool_diag",
            "bad_verify_key",
            "small_verify_n_max",
            "tunable_not_list",
            "no_out_dir",
        ],
    )
    def test_rejects(self, tmp_path, mutate, match):
        cfg = identify_config(tmp_path)
        mutate(cfg)
        with pytest.raises(ConfigError, match=match):
            parse_identify_config(cfg)

    def test_resonant_system_requires_all_parameters(self, tmp_path):
        cfg = identify_config(tmp_path, system={"type": "resonant", "omega0": 5.0, "fs": 50.0})
        with pytest.raises(ConfigError, match="xi"):
            parse_identify_config(cfg)

    def test_allpass_pole_checked(self, tmp_path):
        cfg = identify_config(tmp_path, system={"type": "allpass", "pole": [1.5, 0.0], "fs": 1.0})
        with pytest.raises(ConfigError, match="unit circle"):
            parse_identify_config(cfg)

    def test_custom_center_freqs(self, tmp_path):
        cfg = identify_config(
            tmp_path,
            filter_bank={"num_filters": 2, "taps": 100, "center_freqs": [0.5, 1.5]},
        )
        parsed = parse_identify_config(cfg)
        np.testing.assert_allclose(parsed.bank.freqs, [0.5, 1.5])

    def test_shipped_configs_parse(self):
        for name in ("resonant.json", "allpass.json"):
            resolved = load_config(CONFIG_DIR / name)
            cfg = parse_identify_config(resolved)
            assert cfg.out_dir

    def test_verify_config_rejects_small_n_max(self, tmp_path):
        cfg = {"kernel": {"name": "h2"}, "n_max": 19, "out_dir": str(tmp_path)}
        with pytest.raises(ConfigError, match="n_max"):
            parse_verify_config(cfg)

    @pytest.mark.parametrize(
        "grid,key",
        [({"r_lo": 0.2, "r_hi": 0.9}, "r_lo"), ({"r_hi": 0.9}, "r_hi"), ({"r_lo": 0.0, "r_hi": 0.0}, "r_lo")],
        ids=["inside", "r_hi-inside", "origin"],
    )
    def test_verify_config_rejects_grid_inside_unit_disk(self, tmp_path, grid, key):
        """The symmetry identities hold on the kernel domain |z| >= 1 only."""
        cfg = {"kernel": {"name": "h2"}, "grid": grid, "out_dir": str(tmp_path)}
        with pytest.raises(ConfigError, match=f"'{key}' in grid must be >= 1, got "):
            parse_verify_config(cfg)

    def test_shipped_aux_configs_parse(self):
        parse_verify_config(load_config(CONFIG_DIR / "verify_geometric.json"))
        parse_verify_config(load_config(CONFIG_DIR / "verify_h2.json"))
        parse_sample_config(load_config(CONFIG_DIR / "sample_geometric.json"))


class TestMainExitCodes:
    def test_missing_config_file(self, capsys):
        assert cli.main(["verify", "--config", "/nonexistent/x.json"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{oops")
        assert cli.main(["verify", "--config", str(path)]) == 1
        assert "not valid JSON" in capsys.readouterr().err

    def test_unknown_key(self, tmp_path, capsys):
        cfg = identify_config(tmp_path, banana=1)
        assert cli.main(["identify", "--config", write_config(tmp_path, cfg)]) == 1
        assert "unknown key" in capsys.readouterr().err

    def test_small_verify_n_max_fails_before_writing(self, tmp_path, capsys):
        cfg = {**load_config(CONFIG_DIR / "resonant.json"), "verify": {"n_max": 15}}
        out = tmp_path / "out"
        assert cli.main(["identify", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 1
        assert "n_max" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "path, value",
        [("weight1", 0.0), ("component2.omega0", 0.0), ("component1.alpha", 0.97)],
        ids=["zero_weight", "zero_omega0", "alpha_past_search_range"],
    )
    def test_untransformable_start_fails_before_writing(self, tmp_path, capsys, path, value):
        """A tunable value on its domain's boundary is a valid kernel but no
        starting point for the log/logit search, and nor is an alpha past
        0.95, where the search for alpha stops: parsing names the path."""
        cfg = load_config(CONFIG_DIR / "resonant.json")
        *parents, leaf = path.split(".")
        node = cfg["kernel"]
        for part in parents:
            node = node[part]
        node["params"][leaf] = value
        out = tmp_path / "out"
        assert cli.main(["identify", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 1
        assert f"'{path}'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "overrides, bad",
        [
            ({"system": {"type": "external", "num": [math.nan], "den": [1.0], "fs": 1.0}}, [math.nan]),
            ({"system": {"type": "external", "num": [], "den": [1.0], "fs": 1.0}}, []),
            ({"system": {"type": "external", "num": [True], "den": [1.0], "fs": 1.0}}, [True]),
            ({"system": {"type": "allpass", "pole": ["0.3", 0.1], "fs": 1.0}}, ["0.3", 0.1]),
            ({"system": {"type": "allpass", "pole": [True, 0.1], "fs": 1.0}}, [True, 0.1]),
            ({"filter_bank": {"num_filters": 1, "taps": 100, "center_freqs": ["0.5"]}}, ["0.5"]),
            ({"filter_bank": {"num_filters": 1, "taps": 100, "center_freqs": [True]}}, [True]),
        ],
        ids=["nan_num", "empty_num", "bool_num", "string_pole", "bool_pole", "string_freq", "bool_freq"],
    )
    def test_non_numeric_system_or_bank_entry_fails_before_writing(self, tmp_path, capsys, overrides, bad):
        """Each coefficient, pole part and center frequency is checked while
        parsing: the error quotes the offending list and no out_dir is made."""
        out = tmp_path / "out"
        cfg = identify_config(out, **overrides)
        assert cli.main(["identify", "--config", write_config(tmp_path, cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and repr(bad) in err
        assert not out.exists()

    @staticmethod
    def _command_config(command, kernel, out):
        if command == "identify":
            return identify_config(out, kernel=kernel)
        if command == "verify":
            return {"seed": 0, "kernel": kernel, "n_max": 40, "grid": {"count": 40}, "out_dir": str(out)}
        return {"seed": 0, "kernel": kernel, "count": 10, "out_dir": str(out)}

    @pytest.mark.parametrize("command", ["identify", "verify", "sample"])
    @pytest.mark.parametrize(
        "kernel,param",
        [
            ({"name": "geometric", "params": {"alpha": "0.5"}}, "alpha"),
            ({"name": "geometric", "params": {"alpha": None}}, "alpha"),
            ({"name": "geometric", "params": {"alpha": [0.5]}}, "alpha"),
            ({"name": "cozine", "params": {"a": 0.5, "omega0": True}}, "omega0"),
        ],
        ids=["string", "null", "list", "bool"],
    )
    def test_non_numeric_parameter_fails_before_writing(self, tmp_path, capsys, command, kernel, param):
        out = tmp_path / "out"
        cfg = self._command_config(command, kernel, out)
        assert cli.main([command, "--config", write_config(tmp_path, cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"parameter '{param}'" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["identify", "verify"])
    @pytest.mark.parametrize("weight", ["1", True], ids=["string", "bool"])
    def test_non_numeric_mixture_weight_fails(self, tmp_path, capsys, command, weight):
        kernel = {
            "name": "mixture",
            "params": {"weight1": weight},
            "component1": {"name": "geometric", "params": {"alpha": 0.5}},
            "component2": {"name": "exponential"},
        }
        out = tmp_path / "out"
        cfg = self._command_config(command, kernel, out)
        assert cli.main([command, "--config", write_config(tmp_path, cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "parameter 'weight1'" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "coefficients",
        ["123", [1.0, math.nan], [1.0, math.inf], [True, 0.5], ["1.0"], [], [1.0, -0.5]],
        ids=["string", "nan", "infinity", "bool", "numeric-string", "empty", "negative"],
    )
    def test_bad_coefficients_fail_sample(self, tmp_path, capsys, coefficients):
        kernel = {"name": "stationary_list", "params": {"coefficients": coefficients}}
        out = tmp_path / "out"
        cfg = self._command_config("sample", kernel, out)
        assert cli.main(["sample", "--config", write_config(tmp_path, cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "'coefficients'" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command,key,mutate",
        [
            ("identify", "eta", lambda c: c.update(eta=math.nan)),
            ("identify", "eta", lambda c: c.update(eta=math.inf)),
            ("identify", "eta", lambda c: c.update(eta=-math.inf)),
            ("identify", "output_var", lambda c: c["noise"].update(output_var=math.nan)),
            ("identify", "noise_var", lambda c: c.update(noise_var=math.nan)),
            ("verify", "r_lo", lambda c: c["grid"].update(r_lo=math.nan)),
            ("verify", "symmetry_tol", lambda c: c.update(symmetry_tol=math.inf)),
            ("identify", "eta", lambda c: c.update(eta=10**400)),
            ("verify", "symmetry_tol", lambda c: c.update(symmetry_tol=-(10**400))),
        ],
        ids=[
            "eta-nan",
            "eta-infinity",
            "eta-minus-infinity",
            "output_var-nan",
            "noise_var-nan",
            "r_lo-nan",
            "symmetry_tol-infinity",
            "eta-beyond-float",
            "symmetry_tol-beyond-float",
        ],
    )
    def test_non_finite_number_fails_before_writing(self, tmp_path, capsys, command, key, mutate):
        """json reads NaN, Infinity and integers of any size; a config number
        must have a finite float value."""
        out = tmp_path / "out"
        cfg = self._command_config(command, {"name": "geometric", "params": {"alpha": 0.5}}, out)
        mutate(cfg)
        assert cli.main([command, "--config", write_config(tmp_path, cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"'{key}'" in err and "finite" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["identify", "verify", "sample"])
    @pytest.mark.parametrize("via", ["config", "flag"])
    def test_negative_seed_fails_before_writing(self, tmp_path, capsys, command, via):
        out = tmp_path / "out"
        cfg = self._command_config(command, {"name": "geometric", "params": {"alpha": 0.5}}, out)
        flags = []
        if via == "config":
            cfg["seed"] = -1
        else:
            flags = ["--seed", "-1"]
        assert cli.main([command, "--config", write_config(tmp_path, cfg), *flags]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "'seed'" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command,key,mutate",
        [
            ("identify", "grid_count", lambda c: c.update(verify={"n_max": 40, "grid_count": 0})),
            ("verify", "count", lambda c: c.update(grid={"count": 0})),
            ("verify", "count", lambda c: c.update(grid={"count": -3})),
        ],
        ids=["identify-zero", "verify-zero", "verify-negative"],
    )
    def test_empty_symmetry_grid_fails_before_writing(self, tmp_path, capsys, command, key, mutate):
        out = tmp_path / "out"
        cfg = self._command_config(command, {"name": "geometric", "params": {"alpha": 0.5}}, out)
        mutate(cfg)
        assert cli.main([command, "--config", write_config(tmp_path, cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"'{key}'" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "key,changes",
        [
            ("max_paths_saved", {"max_paths_saved": -1}),
            ("max_paths_saved", {"max_paths_saved": -3999}),
            ("count", {"count": -1}),
            ("trunc", {"trunc": 0}),
            ("count", {"count": 10**12}),
            ("trunc", {"trunc": 10**12}),
            ("trunc", {"count": 0, "trunc": 10**12}),
        ],
        ids=[
            "max_paths_saved-minus-one",
            "max_paths_saved-minus-3999",
            "negative-count",
            "zero-trunc",
            "huge-count",
            "huge-trunc",
            "huge-trunc-zero-count",
        ],
    )
    def test_sample_rejects(self, tmp_path, capsys, key, changes):
        """A negative ``max_paths_saved`` would slice the saved paths from the
        end (-1 keeps all but one): it is refused while parsing, like the other
        sample sizes.  A path matrix past 2**24 entries is refused while
        parsing too, naming ``count`` and, for a stationary family, ``trunc``;
        a single path past it (count 0 still draws one row) names ``trunc``."""
        out = tmp_path / "out"
        cfg = {**self._command_config("sample", {"name": "geometric", "params": {"alpha": 0.5}}, out), **changes}
        assert cli.main(["sample", "--config", write_config(tmp_path, cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"'{key}'" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command,key,mutate",
        [
            ("identify", "trace_len", lambda c: c.update(trace_len=2**24 + 1)),
            ("identify", "num_filters", lambda c: c.update(filter_bank={"num_filters": 2**12 + 1, "taps": 1})),
            # 257 x 65281 = 2**24 + 1: one entry past the cap, as filter bank or as noise estimates
            ("identify", "taps", lambda c: c.update(trace_len=65281, filter_bank={"num_filters": 257, "taps": 65281})),
            ("identify", "trace_len", lambda c: c.update(trace_len=65281, filter_bank={"num_filters": 257, "taps": 1})),
            ("identify", "n_max", lambda c: c.update(verify={"n_max": 2**12 + 1})),
            ("identify", "grid_count", lambda c: c.update(verify={"grid_count": 2**24 + 1})),
            ("verify", "n_max", lambda c: c.update(n_max=2**12 + 1)),
            ("verify", "count", lambda c: c.update(grid={"count": 2**24 + 1})),
        ],
        ids=["trace_len", "num_filters", "bank-entries", "noise-estimates", "identify-n_max",
             "identify-grid_count", "verify-n_max", "verify-count"],
    )
    def test_size_past_its_cap_refused_before_allocating(self, tmp_path, capsys, command, key, mutate):
        """Every size that drives an allocation is capped while parsing, so no
        array a run allocates exceeds 2**24 entries, and a Gram side 2**12."""
        out = tmp_path / "out"
        cfg = self._command_config(command, {"name": "geometric", "params": {"alpha": 0.5}}, out)
        mutate(cfg)
        path = write_config(tmp_path, cfg)
        tracemalloc.start()
        try:
            code = cli.main([command, "--config", path])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"'{key}'" in err and "<=" in err
        assert not out.exists()
        assert peak < 2**20  # bytes: far below any capped array

    def test_sizes_at_their_caps_parse(self, tmp_path):
        cfg = identify_config(tmp_path, trace_len=65280, filter_bank={"num_filters": 257, "taps": 1})
        cfg["verify"] = {"n_max": 2**12, "grid_count": 2**24}
        assert parse_identify_config(cfg).bank.num_filters == 257
        cfg.update(trace_len=2**24, filter_bank={"num_filters": 2**12, "taps": 2**12})
        assert parse_identify_config(cfg).trace_len == 2**24
        verify = {"kernel": {"name": "h2"}, "n_max": 2**12, "grid": {"count": 2**24}, "out_dir": str(tmp_path)}
        assert parse_verify_config(verify)["grid_count"] == 2**24

    def test_missing_out_dir(self, tmp_path, capsys):
        cfg = {"seed": 0, "kernel": {"name": "geometric", "params": {"alpha": 0.5}}, "count": 10}
        assert cli.main(["sample", "--config", write_config(tmp_path, cfg)]) == 1
        assert "output directory" in capsys.readouterr().err


class TestFailedRunWritesNothing:
    """Every ``identify`` stage runs before ``out_dir`` is created: a stage
    that raises leaves one ``error:`` line on stderr and no ``out_dir``."""

    STAGES = ("simulate", "optimize_hyperparameters", "fit", "predict_wl", "driscoll_parts", "schur_P")

    @staticmethod
    def _main(tmp_path, capsys, cfg):
        code = cli.main(["identify", "--config", write_config(tmp_path, cfg)])
        errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
        return code, errors

    @pytest.mark.parametrize("stage", STAGES)
    @pytest.mark.parametrize(
        "exc",
        [ValueError("stage failed"), ConditioningError("stage failed"), MemoryError("stage failed")],
        ids=["ValueError", "ConditioningError", "MemoryError"],
    )
    def test_failing_stage(self, tmp_path, capsys, monkeypatch, stage, exc):
        """The wide estimator with one tunable parameter reaches all six
        stages; the error line shows that the patched stage ran."""

        def fail(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli, stage, fail)
        out = tmp_path / "out"
        kernel = {"name": "geometric", "params": {"alpha": 0.5}, "tunable": ["alpha"]}
        code, errors = self._main(tmp_path, capsys, identify_config(out, kernel=kernel, estimator="wide", budget=5))
        assert code == 1
        assert errors == ["error: stage failed"]
        assert not out.exists()

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("tunable", [[], ["alpha"]], ids=["fixed", "tuned"])
    def test_overflowing_plant(self, tmp_path, capsys, tunable):
        """Coefficients of 1e308 give finite outputs but NaN ETFE responses:
        the dataset names them instead of the tuner or the factorization."""
        out = tmp_path / "out"
        cfg = identify_config(
            out,
            system={"type": "external", "num": [1e308, 1e308], "den": [1.0], "fs": 1.0},
            noise={"input_var": 0.01, "output_var": 0.0001},
            kernel={"name": "geometric", "params": {"alpha": 0.5}, "tunable": tunable},
        )
        code, errors = self._main(tmp_path, capsys, cfg)
        assert code == 1
        assert len(errors) == 1 and "responses are not finite" in errors[0]
        assert not out.exists()


class TestVerifyPipeline:
    def _run(self, tmp_path, kernel_record, **extra):
        cfg = {"seed": 0, "kernel": kernel_record, "n_max": 80, "grid": {"count": 80}}
        cfg.update(extra)
        out = tmp_path / "out"
        code = cli.main(
            ["verify", "--config", write_config(tmp_path, cfg), "--out", str(out)]
        )
        report = json.loads((out / "report.json").read_text())
        return code, report

    def test_geometric_report(self, tmp_path):
        code, report = self._run(tmp_path, {"name": "geometric", "params": {"alpha": 0.5}})
        assert code == 0
        assert report["symmetry"]["passed"] is True
        assert report["symmetry"]["max_err_diag"] < 1e-10
        assert report["driscoll"]["real_part"]["verdict"] == "converging"
        assert report["driscoll"]["imag_part"]["verdict"] == "converging"

    def test_h2_diverges(self, tmp_path):
        code, report = self._run(tmp_path, {"name": "h2"})
        assert code == 0
        assert report["driscoll"]["real_part"]["verdict"] == "diverging"
        assert report["driscoll"]["imag_part"]["verdict"] == "diverging"

    def test_circular_fails_symmetry_but_exits_zero(self, tmp_path):
        code, report = self._run(
            tmp_path, {"name": "geometric", "params": {"alpha": 0.5}, "circular": True}
        )
        assert code == 0  # a failed probe is a finding, not a crash
        assert report["symmetry"]["passed"] is False
        assert report["symmetry"]["max_err_cross"] > 1e-2


# Tuned hyperparameters of the configs/resonant.json kernel on two simulated
# resonant plants (config seeds 1747763072 and 307191845).  weight2 scales the
# kernel to max |k(z,z)| of 5.5e5 and 5.1e6, so the conjugate-symmetric kernel
# shows rounding-level symmetry errors (1.6e-10 and 7.8e-10) above 1e-10.
SCALED_TUNES = (
    {
        "component1.alpha": 0.9254587212094584,
        "component2.a": 0.9136692264739977,
        "component2.omega0": 0.5472333059919492,
        "weight1": 0.0025775624795714575,
        "weight2": 34294.1517063367,
    },
    {
        "component1.alpha": 0.9419574236650151,
        "component2.a": 0.925641005460698,
        "component2.omega0": 0.6776819095523986,
        "weight1": 0.0035738408723226664,
        "weight2": 290107.7346968827,
    },
)


class TestScaledSymmetryCheck:
    """The symmetry bound is relative to max |k(z,z)| on the grid."""

    def _kernel(self, values):
        record = load_config(CONFIG_DIR / "resonant.json")["kernel"]
        tunable = record.pop("tunable")
        return parse_kernel(record, tunable)(values)

    @pytest.mark.parametrize("values", SCALED_TUNES)
    def test_scaled_kernel_passes(self, values):
        section = cli._verify_record(self._kernel(values), 20, 200)["symmetry"]
        assert section["scale"] > 1e5
        assert section["max_err_diag"] > cli.SYMMETRY_TOL  # an absolute bound fails it
        assert section["passed"] is True

    @pytest.mark.parametrize("values", SCALED_TUNES)
    def test_scaled_circular_kernel_fails(self, values):
        kernel = self._kernel(values)
        circular = ComplexKernel(kernel.hermitian_eval, lambda z, w: 0.0 * np.multiply(z, w))
        assert cli._verify_record(circular, 20, 200)["symmetry"]["passed"] is False



class TestSamplePipeline:
    def _config(self, out_dir, **overrides):
        cfg = {
            "seed": 4,
            "kernel": {"name": "geometric", "params": {"alpha": 0.25}},
            "count": 3000,
            "trunc": 150,
            "max_paths_saved": 10,
            "out_dir": str(out_dir),
        }
        cfg.update(overrides)
        return cfg

    @pytest.mark.parametrize(
        "kernel",
        [
            {"name": "geometric", "params": {"alpha": 0.25}},
            {"name": "exponential"},
            {"name": "stationary_list", "params": {"coefficients": [1.0, 0.5, 0.25, 0.125]}},
            {"name": "cozine", "params": {"a": 0.6, "omega0": 1.1}},
        ],
        ids=lambda kernel: kernel["name"],
    )
    def test_summary_statistics(self, tmp_path, kernel):
        out = tmp_path / "out"
        cfg = self._config(out, kernel=kernel)
        assert cli.main(["sample", "--config", write_config(tmp_path, cfg)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["count"] == 3000
        # mean absolute impulse-response sum against the closed form
        gap = abs(summary["mean_abs_sum"] - summary["expected_abs_sum"])
        assert gap < 4.0 * summary["se_abs_sum"], summary
        for probe in summary["probes"]:
            sample = complex(*probe["sample_hermitian"])
            kernel = complex(*probe["kernel_hermitian"])
            assert abs(sample - kernel) < 5.0 * probe["se_hermitian"], probe
            sample_c = complex(*probe["sample_complementary"])
            kernel_c = complex(*probe["kernel_complementary"])
            assert abs(sample_c - kernel_c) < 5.0 * probe["se_complementary"], probe

    def test_paths_file_truncated_to_max_saved(self, tmp_path):
        out = tmp_path / "out"
        cli.main(["sample", "--config", write_config(tmp_path, self._config(out, count=50))])
        lines = (out / "paths.txt").read_text().splitlines()
        assert len(lines) == 3 + 10
        assert all(line.startswith("#") for line in lines[:3])

    def test_zero_count(self, tmp_path):
        out = tmp_path / "out"
        code = cli.main(
            ["sample", "--config", write_config(tmp_path, self._config(out, count=0))]
        )
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["count"] == 0
        assert "probes" not in summary
        assert len((out / "paths.txt").read_text().splitlines()) == 3

    def test_reproducible_bytes(self, tmp_path):
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            cfg = self._config(out, count=200)
            cli.main(["sample", "--config", write_config(tmp_path, cfg, f"{sub}.json")])
            outs.append(out)
        assert (outs[0] / "paths.txt").read_bytes() == (outs[1] / "paths.txt").read_bytes()
        assert (outs[0] / "summary.json").read_bytes() == (outs[1] / "summary.json").read_bytes()

    @pytest.mark.parametrize(
        "kernel,count",
        [
            ({"name": "cozine", "params": {"a": 0.999999, "omega0": 1.0}}, 4),
            ({"name": "cozine", "params": {"a": 0.5, "omega0": 1.0}}, 2**24 + 1),
            ({"name": "geometric", "params": {"alpha": 0.25}}, 10**9),
        ],
        ids=["cozine-slow-decay", "cozine-huge-count", "stationary-huge-count"],
    )
    def test_oversized_path_matrix_refused(self, tmp_path, capsys, kernel, count):
        """A draw above 2**24 entries is refused before anything is allocated
        or written: cozine at a = 0.999999 needs 29 million columns.  A count
        past the cap is refused while parsing, naming ``count``; cozine's
        truncation is known only once it draws."""
        out = tmp_path / "out"
        path = write_config(tmp_path, self._config(out, kernel=kernel, count=count))
        tracemalloc.start()
        try:
            code = cli.main(["sample", "--config", path])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "path matrix" in err
        assert ("'count' in config" in err) == (count > 4)
        assert not out.exists()
        assert peak < 2**20  # bytes: far below one refused row block

    def test_unsampleable_kernel(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = self._config(out)
        cfg["kernel"] = {
            "name": "mixture",
            "weight1": 0.5,
            "component1": {"name": "geometric", "params": {"alpha": 0.5}},
            "weight2": 0.5,
            "component2": {"name": "exponential"},
        }
        assert cli.main(["sample", "--config", write_config(tmp_path, cfg)]) == 1
        assert "error: kernel: kernel name 'mixture' has no path sampler" in capsys.readouterr().err
        assert not out.exists()

    def test_non_string_kernel_name(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = self._config(out, kernel={"name": 0})
        assert cli.main(["sample", "--config", write_config(tmp_path, cfg)]) == 1
        assert "error: kernel: kernel name 0 has no path sampler" in capsys.readouterr().err
        assert not out.exists()


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("identify")
    out = tmp / "out"
    cfg = identify_config(out)
    code = cli.main(["identify", "--config", write_config(tmp, cfg)])
    return code, out, cfg


class TestIdentifyPipeline:
    def test_exit_code(self, run):
        assert run[0] == 0

    def test_artifacts_exist(self, run):
        _, out, _ = run
        for name in (
            "etfe_data.csv",
            "predictions.csv",
            "hyperparameters.json",
            "verify_report.json",
            "summary.json",
        ):
            assert (out / name).exists(), name

    def test_csv_layout(self, run):
        _, out, _ = run
        lines = (out / "predictions.csv").read_text().splitlines()
        assert len(lines) == 2 + 1 + 512
        assert lines[0].startswith("# config_sha256=")
        assert lines[1] == "# seed=9"
        assert lines[2].split(",")[:3] == ["omega", "re_true", "im_true"]
        etfe_lines = (out / "etfe_data.csv").read_text().splitlines()
        assert len(etfe_lines) == 2 + 1 + 5

    def test_summary_contents(self, run):
        _, out, _ = run
        summary = json.loads((out / "summary.json").read_text())
        assert summary["seed"] == 9
        assert summary["system"] == "external"
        assert summary["n_data"] == 5
        hyper = json.loads((out / "hyperparameters.json").read_text())
        assert hyper["config_sha256"] == summary["config_sha256"]
        # constant-gain plant: the flat-response estimate should be close
        assert summary["median_rel_error"] < 0.05
        assert summary["max_true_magnitude"] == pytest.approx(2.0, rel=1e-12)

    def test_predictions_track_truth(self, run):
        _, out, _ = run
        rows = np.loadtxt(out / "predictions.csv", delimiter=",", skiprows=3)
        true = rows[:, 1] + 1j * rows[:, 2]
        mean = rows[:, 3] + 1j * rows[:, 4]
        assert np.median(np.abs(true - mean)) < 0.1
        assert np.all(rows[:, 5] >= 0.0)  # sigma column
        assert np.all(rows[:, 6] <= rows[:, 7])  # magnitude interval ordered

    def test_seed_override_changes_hash(self, run, tmp_path):
        _, _, cfg = run
        out2 = tmp_path / "other"
        code = cli.main(
            [
                "identify",
                "--config",
                write_config(tmp_path, cfg),
                "--seed",
                "11",
                "--out",
                str(out2),
            ]
        )
        assert code == 0
        summary = json.loads((out2 / "summary.json").read_text())
        assert summary["seed"] == 11
        base = json.loads((run[1] / "summary.json").read_text())
        assert summary["config_sha256"] != base["config_sha256"]

    def test_wide_estimator_reports_diagnostics(self, tmp_path):
        digests = []
        for name in ("wide", "wide_again"):
            out = tmp_path / name
            cfg = identify_config(out, estimator="wide")
            assert cli.main(["identify", "--config", write_config(tmp_path, cfg, f"{name}.json")]) == 0
            digests.append(
                {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in out.iterdir()}
            )
        assert digests[0] == digests[1]
        summary = json.loads((out / "summary.json").read_text())
        assert "wl_fallback" in summary
        assert "impropriety" in summary
        assert 0.0 <= summary["impropriety"]

    def test_tuned_run_records_values(self, tmp_path):
        out = tmp_path / "tuned"
        cfg = identify_config(
            out,
            kernel={"name": "geometric", "params": {"alpha": 0.5}, "tunable": ["alpha"]},
            budget=40,
        )
        assert cli.main(["identify", "--config", write_config(tmp_path, cfg)]) == 0
        hyper = json.loads((out / "hyperparameters.json").read_text())
        assert hyper["tunable"] == ["alpha"]
        assert 0.0 < hyper["values"]["alpha"] < 1.0
        assert math.isfinite(hyper["log_marginal_likelihood"])


class TestSharedWork:
    """One identify run builds one filter bank, and an untuned run assembles
    and factors K_yy once."""

    def _run(self, tmp_path, **overrides):
        cfg = identify_config(tmp_path / "out", **overrides)
        return cli.run_identify(parse_identify_config(cfg))

    def test_one_filter_bank_per_run(self, tmp_path, monkeypatch):
        calls = []
        build = sysid._filter_bank

        def counting(spec):
            calls.append(spec)
            return build(spec)

        monkeypatch.setattr(sysid, "_filter_bank", counting)
        summary = self._run(tmp_path, noise_var="auto")
        assert len(calls) == 1
        assert summary["noise_var"] > 0.0

    def test_untuned_likelihood_from_fit_factor(self, tmp_path, monkeypatch):
        calls = {"hermitian": 0, "factor": 0}
        fitted = []
        real_gram, real_likelihood, real_factor, real_fit = (
            regression.gram,
            regression._likelihood,
            regression.chol_factor_with_jitter,
            cli.fit,
        )

        def counting_gram(kernel, points, part="hermitian", noise_var=0.0):
            calls["hermitian"] += part == "hermitian"
            return real_gram(kernel, points, part, noise_var)

        def counting_likelihood(bound, values, data):  # assembles its own K_yy
            calls["hermitian"] += 1
            return real_likelihood(bound, values, data)

        def counting_factor(*args, **kwargs):
            calls["factor"] += 1
            return real_factor(*args, **kwargs)

        def capturing_fit(kernel, data):
            fitted.append(data)
            return real_fit(kernel, data)

        monkeypatch.setattr(regression, "gram", counting_gram)
        monkeypatch.setattr(regression, "_likelihood", counting_likelihood)
        monkeypatch.setattr(regression, "chol_factor_with_jitter", counting_factor)
        monkeypatch.setattr(cli, "fit", capturing_fit)
        kernel = mixture_record()
        summary = self._run(tmp_path, kernel=kernel, noise_var="auto")
        assert calls == {"hermitian": 1, "factor": 1}
        expected = regression.log_marginal_likelihood(parse_kernel(kernel), {}, fitted[0])
        assert summary["log_marginal_likelihood"] == expected


def _old_csv(columns, rows):
    """The per-value renderer that ``cli._csv`` replaced, kept as its oracle."""

    def fmt(value):
        if isinstance(value, (bool, np.bool_)):
            return "1" if value else "0"
        if isinstance(value, (int, np.integer)):
            return str(int(value))
        return "%.17g" % float(value)

    return "\n".join([",".join(columns), *(",".join(fmt(v) for v in row) for row in rows)]) + "\n"


def test_csv_rendering_matches_the_per_value_renderer():
    values = [
        -0.0, 0.0, math.inf, -math.inf, math.nan, 5e-324, -2.2250738585072014e-308, 1e-300,
        1.7976931348623157e308, -1e300, 0.1, 1.0 / 3.0, -math.pi, 2.0**53 + 2.0, 123456789.0,
    ]
    rng = np.random.default_rng(5)
    rows = [
        (*rng.choice(values, 4).tolist(), bool(flag))
        for flag in (True, False)
        for _ in range(40)
    ]
    rows += [(v, -v, v * 0.5, np.float64(v), v > 0) for v in values]
    columns = ("a", "b", "c", "d", "flag")
    assert cli._csv(columns, "%.17g," * 4 + "%d", rows) == _old_csv(columns, rows)
