"""KernelFamily against the record-substitution path it replaces.

The reference substitutes the hyperparameters into a copy of the config
record, parses it with ``kernels.from_config``, assembles the Gram with
``kernels.gram`` and factors it with ``scipy.linalg.cho_factor`` (one relative
jitter retry, as ``chol_factor_with_jitter`` documents).  The family must give
the same kernel values, Gram and likelihood, compared with ``==``.
"""

import copy
import json
import math
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hinfgp import cli, kernels, regression
from hinfgp.kernels import KernelFamily, from_config, gram, h2_kernel
from hinfgp.regression import FrequencyDataset, log_marginal_likelihood

REPO = Path(__file__).resolve().parents[1]
FAMILY_SETTINGS = settings(derandomize=True, deadline=None, max_examples=20)

_UNIT = st.floats(0.01, 0.99)
_DOMAINS = {
    "alpha": _UNIT,
    "a": _UNIT,
    "omega0": st.floats(0.0, math.pi),
    "weight1": st.floats(0.0, 3.0),
    "weight2": st.floats(0.0, 3.0),
}


def substitute(record: dict, theta: dict) -> dict:
    rec = copy.deepcopy(record)
    for path, value in theta.items():
        *parents, leaf = path.split(".")
        node = rec
        for part in parents:
            node = node[part]
        node["params"][leaf] = float(value)
    return rec


def reference_lml(record: dict, theta: dict, data: FrequencyDataset) -> float:
    mat = gram(from_config(substitute(record, theta)), data.sites, "hermitian", data.noise_var)
    try:
        try:
            factor = scipy.linalg.cho_factor(mat, lower=True)
        except np.linalg.LinAlgError:
            jitter = 1e-10 * float(np.mean(np.real(np.diag(mat))))
            factor = scipy.linalg.cho_factor(mat + jitter * np.eye(len(mat), dtype=mat.dtype), lower=True)
    except (np.linalg.LinAlgError, ValueError):
        return -math.inf
    solution = scipy.linalg.cho_solve(factor, data.responses)
    if not np.isfinite(solution).all():
        return -math.inf
    quad = float(np.real(np.conj(data.responses) @ solution))
    logdet = 2.0 * float(np.sum(np.log(np.real(np.diag(factor[0])))))
    return -0.5 * (quad + logdet + len(data) * math.log(2.0 * math.pi))


def scalar_paths(record: dict, prefix: str = "") -> list[str]:
    paths = [prefix + name for name in record.get("params", {}) if name in _DOMAINS]
    for key in ("component1", "component2"):
        if key in record:
            paths += scalar_paths(record[key], f"{prefix}{key}.")
    return paths


@st.composite
def leaf_records(draw, name):
    if name == "geometric":
        return {"name": "geometric", "params": {"alpha": draw(_UNIT)}}
    if name == "exponential":
        return {"name": "exponential"}
    if name == "cozine":
        return {"name": "cozine", "params": {"a": draw(_UNIT), "omega0": draw(_DOMAINS["omega0"])}}
    coeffs = draw(st.lists(st.floats(0.0, 2.0), min_size=1, max_size=5))
    return {"name": "stationary_list", "params": {"coefficients": coeffs}}


_LEAVES = ("geometric", "exponential", "cozine", "stationary_list")


@st.composite
def records(draw, shape):
    """One leaf family, or a mixture whose second component is itself a mixture."""
    if shape != "nested_mixture":
        return draw(leaf_records(shape))

    def mixture(second):
        return {
            "name": "mixture",
            "params": {"weight1": draw(_DOMAINS["weight1"]), "weight2": draw(_DOMAINS["weight2"])},
            "component1": draw(leaf_records(draw(st.sampled_from(_LEAVES)))),
            "component2": second,
        }

    return mixture(mixture(draw(leaf_records(draw(st.sampled_from(_LEAVES))))))


@st.composite
def datasets(draw):
    count = draw(st.integers(1, 8))
    radii = draw(st.lists(st.floats(1.0, 3.0), min_size=count, max_size=count))
    angles = draw(st.lists(st.floats(-math.pi, math.pi), min_size=count, max_size=count))
    sites = np.asarray(radii) * np.exp(1j * np.asarray(angles))
    parts = draw(st.lists(st.floats(-2.0, 2.0), min_size=2 * count, max_size=2 * count))
    noise_var = draw(st.sampled_from([0.0, 1e-6, 0.1]))
    assume(noise_var > 0.0 or np.unique(sites).size == count)
    return FrequencyDataset(sites, np.asarray(parts[::2]) + 1j * np.asarray(parts[1::2]), noise_var)


@st.composite
def family_cases(draw, shape):
    record = draw(records(shape))
    tunable = [path for path in scalar_paths(record) if draw(st.booleans())]
    theta = {path: draw(_DOMAINS[path.split(".")[-1]]) for path in tunable}
    return record, tunable, theta


_SHAPES = ("geometric", "exponential", "cozine", "stationary_list", "nested_mixture")


@pytest.mark.parametrize("shape", _SHAPES)
@FAMILY_SETTINGS
@given(data=st.data())
def test_likelihood_equals_record_substitution(shape, data):
    record, tunable, theta = data.draw(family_cases(shape))
    dataset = data.draw(datasets())
    family = KernelFamily.from_config(record, tunable)
    expected = reference_lml(record, theta, dataset)
    assert log_marginal_likelihood(family, theta, dataset) == expected
    reference_gram = gram(from_config(substitute(record, theta)), dataset.sites, "hermitian", dataset.noise_var)
    np.testing.assert_array_equal(family.bind(dataset.sites, dataset.noise_var)(theta)[0], reference_gram)


@pytest.mark.parametrize("shape", _SHAPES)
@FAMILY_SETTINGS
@given(data=st.data())
def test_kernel_values_equal_record_substitution(shape, data):
    record, tunable, theta = data.draw(family_cases(shape))
    pts = data.draw(datasets()).sites
    built = KernelFamily.from_config(record, tunable)(theta)
    parsed = from_config(substitute(record, theta))
    z, w = pts[:, None], pts[None, :]
    np.testing.assert_array_equal(built.hermitian_eval(z, w), parsed.hermitian_eval(z, w))
    np.testing.assert_array_equal(built.complementary_eval(z, w), parsed.complementary_eval(z, w))


def test_singular_gram_scores_minus_inf_on_both_paths():
    record = {
        "name": "mixture",
        "params": {"weight1": 1.0, "weight2": 1.0},
        "component1": {"name": "geometric", "params": {"alpha": 0.5}},
        "component2": {"name": "cozine", "params": {"a": 0.6, "omega0": 1.0}},
    }
    data = FrequencyDataset(np.exp(1j * np.linspace(0.2, 3.0, 6)), np.ones(6, complex), 0.0)
    theta = {"weight1": 0.0, "weight2": 0.0}
    family = KernelFamily.from_config(record, ["weight1", "weight2"])
    assert reference_lml(record, theta, data) == -math.inf
    assert log_marginal_likelihood(family, theta, data) == -math.inf


def _vanishing_mixture(weight1):
    geometric = {"name": "geometric", "params": {"alpha": 0.5}}
    return {
        "name": "mixture",
        "params": {"weight1": weight1, "weight2": 0.0},
        "component1": geometric,
        "component2": geometric,
    }


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "weight1, sites, responses",
    [(1e-320, [1.0, 1.5], [1.0, 2.0]), (5e-324, [1.0], [1j])],
    ids=["two_sites", "one_site"],
)
def test_overflowing_solve_scores_minus_inf(weight1, sites, responses):
    """A subnormal Gram factors, but K_yy^{-1} y overflows: -inf, not NaN or a warning."""
    record = _vanishing_mixture(weight1)
    data = FrequencyDataset(np.array(sites, complex), np.array(responses, complex), 0.0)
    assert log_marginal_likelihood(KernelFamily.from_config(record), {}, data) == -math.inf
    assert reference_lml(record, {}, data) == -math.inf


_OUT_OF_DOMAIN = [
    ({"name": "geometric", "params": {"alpha": 0.5}}, "alpha", value)
    for value in (0.0, 1.0, 1.5, -0.2)
] + [
    ({"name": "cozine", "params": {"a": 0.5, "omega0": 1.0}}, "a", 1.0),
    ({"name": "cozine", "params": {"a": 0.5, "omega0": 1.0}}, "omega0", 3.5),
    (
        {
            "name": "mixture",
            "params": {"weight1": 1.0, "weight2": 1.0},
            "component1": {"name": "geometric", "params": {"alpha": 0.5}},
            "component2": {"name": "exponential"},
        },
        "weight2",
        -0.5,
    ),
]


@pytest.mark.parametrize("record, path, value", _OUT_OF_DOMAIN)
def test_out_of_domain_values_raise_on_both_paths(record, path, value):
    data = FrequencyDataset(np.array([2.0, 3j]), np.array([1.0, 0.5j]), 0.1)
    family = KernelFamily.from_config(record, [path])
    with pytest.raises(ValueError):
        reference_lml(record, {path: value}, data)
    with pytest.raises(ValueError):
        log_marginal_likelihood(family, {path: value}, data)
    with pytest.raises(ValueError):
        family({path: value})


def test_unknown_hyperparameter_path_rejected():
    family = KernelFamily.from_config({"name": "geometric", "params": {"alpha": 0.5}}, ["alpha"])
    with pytest.raises(ValueError, match="unknown hyperparameter"):
        family({"beta": 0.3})


def test_verify_members_match_their_definitions():
    pts = 1.7 * np.exp(1j * np.linspace(-3.0, 3.0, 9))
    z, w = pts[:, None], pts[None, :]
    h2 = KernelFamily.from_config({"name": "h2"}, verify=True)({})
    np.testing.assert_array_equal(h2.hermitian_eval(z, w), h2_kernel(z, w))
    np.testing.assert_array_equal(h2.complementary_eval(z, w), h2_kernel(z, np.conj(w)))
    record = {"name": "geometric", "params": {"alpha": 0.5}}
    circular = KernelFamily.from_config({**record, "circular": True}, verify=True)({})
    np.testing.assert_array_equal(circular.hermitian_eval(z, w), from_config(record).hermitian_eval(z, w))
    np.testing.assert_array_equal(circular.complementary_eval(z, w), 0.0 * np.multiply(z, w))
    with pytest.raises(ValueError, match=r"^'name' in kernel must be one of .*'mixture'\], got 'h2'$"):
        KernelFamily.from_config({"name": "h2"})


def test_terms_only_where_the_law_is_a_finite_sum():
    """``h2`` (every a_n = 1) and a kernel built by hand carry no terms.  A
    geometric series keeps the first N + 1 terms with alpha^{N+1} <= eps at
    the values it is called with (52 at 0.5, 26 at 0.25) and reports its tail
    alpha^{N+1}/(1 - alpha); cozine has two exact terms, and a mixture its
    members' together.  A circular family keeps its record's terms of k,
    marked ``circular``."""
    pts = 1.3 * np.exp(1j * np.linspace(-3.0, 3.0, 9))
    h2 = KernelFamily.from_config({"name": "h2"}, verify=True)({})
    record = {"name": "geometric", "params": {"alpha": 0.5}}
    circular = KernelFamily.from_config({**record, "circular": True}, verify=True)({})
    raw = kernels.ComplexKernel(h2_kernel, h2_kernel)
    assert h2._terms is None and raw._terms is None
    geometric = KernelFamily.from_config(record, ["alpha"])
    terms = geometric({})._terms
    assert terms.psi(pts).shape == (9, 52) and terms.tail == 0.5**52 / 0.5
    assert not terms.circular and circular._terms.circular and circular._terms.tail == terms.tail
    np.testing.assert_array_equal(circular._terms.psi(pts), terms.psi(pts))
    assert geometric({"alpha": 0.25})._terms.psi(pts).shape == (9, 26)
    cozine = {"name": "cozine", "params": {"a": 0.9, "omega0": 1.0}}
    assert from_config(cozine)._terms.psi(pts).shape == (9, 2) and from_config(cozine)._terms.tail == 0.0
    mixture = from_config({"name": "mixture", "params": {"weight1": 2.0}, "component1": record, "component2": cozine})
    assert mixture._terms.psi(pts).shape == (9, 54) and mixture._terms.tail == 2.0 * terms.tail


def test_circular_family_tunes_the_wrapped_parameters():
    raw = json.loads((REPO / "configs" / "resonant.json").read_text(encoding="utf-8"))["kernel"]
    tunable = raw.pop("tunable")
    plain = KernelFamily.from_config(raw, tunable, verify=True)
    circular = KernelFamily.from_config({**raw, "circular": True}, tunable, verify=True)
    assert [circular.record_value(p) for p in tunable] == [plain.record_value(p) for p in tunable]
    values = dict(zip(tunable, (0.7, 0.4, 2.0, 0.8, 1.1)))
    pts = 1.3 * np.exp(1j * np.linspace(-3.0, 3.0, 9))
    z, w = pts[:, None], pts[None, :]
    kernel = circular(values)
    np.testing.assert_array_equal(kernel.hermitian_eval(z, w), plain(values).hermitian_eval(z, w))
    np.testing.assert_array_equal(kernel.complementary_eval(z, w), np.zeros((9, 9)))


def test_one_tune_parses_the_record_once(monkeypatch, tmp_path):
    """Every evaluation the search asks for is one call of the likelihood
    evaluator, and none of them parses the record or assembles the Gram
    through ``gram``."""
    counts = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(kernels, "from_config", counting("from_config", kernels.from_config))
    monkeypatch.setattr(
        KernelFamily, "from_config", staticmethod(counting("from_config", KernelFamily.from_config))
    )
    counted_gram = counting("gram", kernels.gram)
    for module in (kernels, regression):
        monkeypatch.setattr(module, "gram", counted_gram)
    monkeypatch.setattr(regression, "_likelihood", counting("lml", regression._likelihood))
    minimize = scipy.optimize.minimize

    def searching(fun, x0, **kwargs):
        # the tuner's own count: the objective calls that return a value
        def objective(vec):
            value = fun(vec)
            counts["searched"] += 1
            return value

        return minimize(objective, x0, **kwargs)

    monkeypatch.setattr(scipy.optimize, "minimize", searching)
    raw = json.loads((REPO / "configs" / "resonant.json").read_text(encoding="utf-8"))
    raw["budget"] = 300
    cli.run_identify(cli.parse_identify_config(cli.resolve_config(raw, None, str(tmp_path))))
    assert counts["lml"] == counts["searched"] + 1  # + the starting point's evaluation
    assert counts["lml"] <= 300
    assert counts["from_config"] == 1  # parse_identify_config; run_identify reuses its family
    assert counts["gram"] <= 2  # fit and the impropriety diagnostic
