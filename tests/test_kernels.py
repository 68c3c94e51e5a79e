"""Kernel-module tests: frozen closed-form values, series cross-checks, structure."""

import math
import re

import numpy as np
import pytest

from hinfgp.kernels import (
    ComplexKernel,
    KernelFamily,
    cozine_kernel,
    exponential_kernel,
    from_config,
    geometric_kernel,
    gram,
    real_imag_kernels,
)


def spiral_points(count, r_lo=1.1, r_hi=3.0, seed=3):
    """Log-spaced radii, pseudo-random angles; deterministic probe set."""
    rng = np.random.default_rng(seed)
    radii = np.geomspace(r_lo, r_hi, count)
    angles = rng.uniform(-math.pi, math.pi, count)
    return radii * np.exp(1j * angles)


def geometric(alpha):
    return {"name": "geometric", "params": {"alpha": alpha}}


def cozine(a, omega0):
    return {"name": "cozine", "params": {"a": a, "omega0": omega0}}


def stationary_list(*a_sq):
    return {"name": "stationary_list", "params": {"coefficients": list(a_sq)}}


def mixture(component1, weight1, component2, weight2):
    return {
        "name": "mixture",
        "params": {"weight1": weight1, "weight2": weight2},
        "component1": component1,
        "component2": component2,
    }


class TestGeometricKernel:
    def test_value_at_two_two(self):
        # k(2,2) = 4/(4 - 1/2) = 8/7, hand arithmetic
        k = geometric_kernel(0.5)
        assert complex(k.hermitian_eval(2.0, 2.0)) == pytest.approx(8.0 / 7.0, abs=1e-15)

    def test_offdiagonal_value(self):
        # zw* = 4 e^{-i pi/3}; k = p/(p - 1/4) evaluated exactly by computer algebra
        k = geometric_kernel(0.25)
        val = complex(k.hermitian_eval(2.0, 2.0 * np.exp(1j * math.pi / 3.0)))
        assert val.real == pytest.approx(1.029045643153526971, abs=1e-14)
        assert val.imag == pytest.approx(0.057495462491912939, abs=1e-14)

    def test_complementary_is_hermitian_at_conjugate_argument(self):
        k = geometric_kernel(0.3)
        pts = spiral_points(40)
        for z, w in zip(pts[:20], pts[20:]):
            assert complex(k.complementary_eval(z, w)) == pytest.approx(
                complex(k.hermitian_eval(z, np.conj(w))), abs=1e-13
            )

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.2, 1.5])
    def test_rejects_alpha_outside_unit_interval(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            geometric_kernel(alpha)

    def test_matches_power_series(self):
        # closed form against the defining sum over a_n^2 (zw*)^{-n}
        alpha = 0.5
        k = geometric_kernel(alpha)
        pts = spiral_points(30)
        n = np.arange(120)
        for z in pts[:10]:
            p = z * np.conj(pts[17])
            series = np.sum(alpha**n * p ** (-n.astype(float)))
            assert complex(k.hermitian_eval(z, pts[17])) == pytest.approx(series, abs=1e-12)


class TestExponentialKernel:
    def test_value_at_two_two(self):
        k = exponential_kernel()
        assert complex(k.hermitian_eval(2.0, 2.0)) == pytest.approx(
            1.2840254166877414, abs=1e-15
        )  # exp(1/4)

    def test_rejects_zero_product(self):
        k = exponential_kernel()
        with pytest.raises(ValueError, match="zw"):
            k.hermitian_eval(0.0, 2.0)

    def test_matches_factorial_series(self):
        k = exponential_kernel()
        z, w = 1.5 * np.exp(0.7j), 2.5 * np.exp(-1.2j)
        p = z * np.conj(w)
        series, term = 0.0 + 0j, 1.0 + 0j
        for n in range(1, 60):
            series += term
            term /= n * p
        assert complex(k.hermitian_eval(z, w)) == pytest.approx(series, abs=1e-13)


class TestStationaryKernel:
    def test_explicit_list_value(self):
        # 1 + (1/2)/4 + (1/4)/16 = 1.140625 at zw* = 4
        k = from_config(stationary_list(1.0, 0.5, 0.25))
        assert complex(k.hermitian_eval(2.0, 2.0)) == pytest.approx(1.140625, abs=1e-15)

    def test_record_matches_constructor(self):
        kg = from_config(geometric(0.5))
        direct = geometric_kernel(0.5)
        pts = spiral_points(10)
        np.testing.assert_allclose(
            np.asarray(kg.hermitian_eval(pts, pts[::-1])),
            np.asarray(direct.hermitian_eval(pts, pts[::-1])),
            atol=1e-15,
        )


class TestCozineKernel:
    def test_frozen_diag_value(self):
        # a = 1/2, omega0 = pi/2: cos(omega0) = 0, so k(2,2) = (1 + 1/16)/(17/16)^2 = 16/17
        k = cozine_kernel(0.5, math.pi / 2.0)
        assert complex(k.hermitian_eval(2.0, 2.0)) == pytest.approx(16.0 / 17.0, abs=1e-15)

    def test_complementary_conjugate_relation(self):
        k = cozine_kernel(0.7, 0.9)
        pts = spiral_points(24, seed=5)
        for z, w in zip(pts[:12], pts[12:]):
            assert complex(k.complementary_eval(z, w)) == pytest.approx(
                complex(k.hermitian_eval(z, np.conj(w))), abs=1e-13
            )

    def test_matches_impulse_response_double_sum(self):
        """k(z, w) = sum_{m,n} E[h(m) h(n)] z^{-m} (w*)^{-n} with
        E[h(m)h(n)] = a^{m+n} cos((m - n) omega0)."""
        a, omega0 = 0.5, 1.2
        k = cozine_kernel(a, omega0)
        m = np.arange(80)
        cov = a ** (m[:, None] + m[None, :]) * np.cos((m[:, None] - m[None, :]) * omega0)
        z, w = 1.6 * np.exp(0.4j), 2.2 * np.exp(-0.8j)
        zm = (1.0 / z) ** m
        wn = (1.0 / np.conj(w)) ** m
        double_sum = zm @ cov @ wn
        assert complex(k.hermitian_eval(z, w)) == pytest.approx(double_sum, abs=1e-11)

    @pytest.mark.parametrize("a,omega0", [(0.0, 1.0), (1.0, 1.0), (0.5, -0.1), (0.5, 3.2)])
    def test_parameter_validation(self, a, omega0):
        with pytest.raises(ValueError):
            cozine_kernel(a, omega0)


class TestMixtureKernel:
    def test_pointwise_combination(self):
        mix = from_config(mixture(geometric(0.5), 0.3, cozine(0.5, math.pi / 2.0), 0.7))
        # 0.3 * 8/7 + 0.7 * 16/17, exact rational arithmetic
        assert complex(mix.hermitian_eval(2.0, 2.0)) == pytest.approx(
            1.0016806722689076, abs=1e-14
        )

    def test_negative_weight_rejected(self):
        """In the record, and as a tuned value; a NaN weight is refused like a
        negative one."""
        with pytest.raises(ValueError, match="weight"):
            from_config(mixture(geometric(0.5), -1.0, geometric(0.5), 1.0))
        family = KernelFamily.from_config(mixture(geometric(0.5), 1.0, geometric(0.5), 1.0), ["weight1"])
        with pytest.raises(ValueError, match="weight"):
            family({"weight1": math.nan})

    def test_weights_stored(self):
        k1, k2 = geometric_kernel(0.5), exponential_kernel()
        mix = from_config(mixture(geometric(0.5), 2.0, {"name": "exponential"}, 3.0))
        z, w = 2.0 + 1.0j, 1.5 - 0.5j
        for part in ("hermitian_eval", "complementary_eval"):
            expected = 2.0 * getattr(k1, part)(z, w) + 3.0 * getattr(k2, part)(z, w)
            assert getattr(mix, part)(z, w) == expected


def builtin_kernels():
    return [
        ("geometric", geometric_kernel(0.5)),
        ("exponential", exponential_kernel()),
        ("cozine", cozine_kernel(0.6, 1.1)),
        ("stationary_list", from_config(stationary_list(1.0, 0.5, 0.25))),
        ("mixture", from_config(mixture(geometric(0.4), 1.0, cozine(0.5, 2.0), 0.5))),
    ]


BUILTIN_IDS = [name for name, _ in builtin_kernels()]


class TestKernelStructure:
    """General properties every built-in covariance pair must satisfy."""

    @pytest.mark.parametrize("name,kernel", builtin_kernels(), ids=BUILTIN_IDS)
    def test_hermitian_symmetry(self, name, kernel):
        pts = spiral_points(16, seed=11)
        for z, w in zip(pts[:8], pts[8:]):
            assert complex(kernel.hermitian_eval(z, w)) == pytest.approx(
                np.conj(complex(kernel.hermitian_eval(w, z))), abs=1e-13
            )

    @pytest.mark.parametrize("name,kernel", builtin_kernels(), ids=BUILTIN_IDS)
    def test_complementary_symmetry(self, name, kernel):
        pts = spiral_points(16, seed=13)
        for z, w in zip(pts[:8], pts[8:]):
            assert complex(kernel.complementary_eval(z, w)) == pytest.approx(
                complex(kernel.complementary_eval(w, z)), abs=1e-13
            )

    @pytest.mark.parametrize("name,kernel", builtin_kernels(), ids=BUILTIN_IDS)
    def test_hermitian_gram_psd(self, name, kernel):
        pts = spiral_points(30, seed=17)
        mat = gram(kernel, pts)
        eigvals = np.linalg.eigvalsh(mat)
        assert eigvals.min() >= -1e-8 * max(1.0, eigvals.max())

    @pytest.mark.parametrize("name,kernel", builtin_kernels(), ids=BUILTIN_IDS)
    def test_real_imag_parts_sum_to_real_part(self, name, kernel):
        k_r, k_i = real_imag_kernels(kernel)
        pts = spiral_points(12, seed=19)
        for z, w in zip(pts[:6], pts[6:]):
            total = float(k_r(z, w)) + float(k_i(z, w))
            assert total == pytest.approx(float(np.real(kernel.hermitian_eval(z, w))), abs=1e-13)

    def test_imag_part_vanishes_on_real_axis(self):
        # real impulse response: on the real axis f is real, so Im f has no variance
        k_r, k_i = real_imag_kernels(geometric_kernel(0.5))
        for z in (1.5, 2.0, 3.0, 7.5):
            assert float(k_i(z, z)) == pytest.approx(0.0, abs=1e-14)
            assert float(k_r(z, z)) == pytest.approx(
                float(np.real(geometric_kernel(0.5).hermitian_eval(z, z))), abs=1e-14
            )


class TestGram:
    def test_noise_on_diagonal_only(self):
        k = geometric_kernel(0.5)
        pts = spiral_points(5)
        clean = gram(k, pts)
        noisy = gram(k, pts, noise_var=0.25)
        np.testing.assert_allclose(noisy - clean, 0.25 * np.eye(5), atol=1e-15)

    def test_complementary_refuses_noise(self):
        with pytest.raises(ValueError, match="proper"):
            gram(geometric_kernel(0.5), spiral_points(4), "complementary", noise_var=0.1)

    def test_rejects_interior_points(self):
        with pytest.raises(ValueError, match=r"at index 1 lies outside the kernel domain"):
            gram(geometric_kernel(0.5), np.array([2.0, 0.5 + 0.1j]))

    def test_rejects_unknown_part(self):
        with pytest.raises(ValueError, match="part"):
            gram(geometric_kernel(0.5), spiral_points(3), part="pseudo")

    def test_unit_circle_points_allowed(self):
        pts = np.exp(1j * np.linspace(0.1, 3.0, 8))
        mat = gram(geometric_kernel(0.5), pts)
        assert np.all(np.isfinite(mat))


class TestFromConfig:
    @pytest.mark.parametrize(
        "record,probe",
        [
            ({"name": "geometric", "params": {"alpha": 0.5}}, 8.0 / 7.0),
            ({"name": "exponential"}, 1.2840254166877414),
            ({"name": "cozine", "params": {"a": 0.5, "omega0": math.pi / 2.0}}, 16.0 / 17.0),
            ({"name": "stationary_list", "params": {"coefficients": [1.0, 0.5, 0.25]}}, 1.140625),
            ({"name": "exponential", "params": {}}, 1.2840254166877414),
        ],
    )
    def test_builds_each_family(self, record, probe):
        k = from_config(record)
        assert complex(k.hermitian_eval(2.0, 2.0)) == pytest.approx(probe, abs=1e-13)

    def test_builds_mixture(self):
        record = {
            "name": "mixture",
            "params": {"weight1": 0.3, "weight2": 0.7},
            "component1": {"name": "geometric", "params": {"alpha": 0.5}},
            "component2": {"name": "cozine", "params": {"a": 0.5, "omega0": math.pi / 2.0}},
        }
        k = from_config(record)
        assert complex(k.hermitian_eval(2.0, 2.0)) == pytest.approx(1.0016806722689076, abs=1e-13)

    def test_mixture_without_params_weighs_each_component_one(self):
        record = {"name": "mixture", "component1": geometric(0.5), "component2": cozine(0.5, 1.0)}
        z, w = 2.0, 1.5 * np.exp(0.4j)
        want = geometric_kernel(0.5).hermitian_eval(z, w) + cozine_kernel(0.5, 1.0).hermitian_eval(z, w)
        assert from_config(record).hermitian_eval(z, w) == want

    def test_unknown_name(self):
        with pytest.raises(ValueError, match=r"'name' in kernel must be one of .*, got 'matern'"):
            from_config({"name": "matern"})

    def test_unknown_top_level_key(self):
        with pytest.raises(ValueError, match=r"unknown key\(s\) \['extra'\] in kernel$"):
            from_config({"name": "geometric", "params": {"alpha": 0.5}, "extra": 1})

    def test_unknown_parameter(self):
        with pytest.raises(ValueError, match=r"unknown key\(s\) \['beta'\] in kernel\.params$"):
            from_config({"name": "geometric", "params": {"alpha": 0.5, "beta": 1.0}})

    def test_missing_required_parameter(self):
        with pytest.raises(ValueError, match="alpha"):
            from_config({"name": "geometric"})

    def test_mixture_requires_components(self):
        with pytest.raises(ValueError, match="component"):
            from_config({"name": "mixture", "params": {"weight1": 1.0, "weight2": 1.0}})

    def test_non_mapping_rejected(self):
        with pytest.raises(ValueError, match="mapping"):
            from_config(["geometric"])

    def test_non_string_name_rejected(self):
        with pytest.raises(ValueError, match=r"'name' in kernel must be one of .*, got \['geometric'\]"):
            from_config({"name": ["geometric"], "params": {"alpha": 0.5}})

    def test_non_mapping_params_rejected(self):
        with pytest.raises(ValueError, match=r"'params' in kernel must be a mapping, got \[0\.5\]"):
            from_config({"name": "geometric", "params": [0.5]})


class TestParameterChecks:
    """Each record value is checked once, when the record is parsed."""

    @pytest.mark.parametrize(
        "record,param,kernel",
        [
            (geometric("0.5"), "alpha", "geometric"),
            (geometric(None), "alpha", "geometric"),
            (geometric([0.5]), "alpha", "geometric"),
            (geometric(True), "alpha", "geometric"),
            (geometric(math.nan), "alpha", "geometric"),
            (cozine(0.5, True), "omega0", "cozine"),
            (cozine("0.5", 1.0), "a", "cozine"),
            (mixture(geometric(0.5), "1", geometric(0.5), 1.0), "weight1", "mixture"),
            (mixture(geometric(0.5), 1.0, geometric(0.5), True), "weight2", "mixture"),
            (mixture(geometric(0.5), math.inf, geometric(0.5), 1.0), "weight1", "mixture"),
            (mixture(geometric(0.5), 1.0, geometric(0.5), math.nan), "weight2", "mixture"),
            (mixture(geometric(0.5), 1.0, cozine(0.5, None), 1.0), "omega0", "cozine"),
        ],
    )
    def test_non_numeric_scalar_rejected(self, record, param, kernel):
        # the key's path: the top node's params, or those of the component whose family is ``kernel``
        where = "kernel.params" if record["name"] == kernel else "kernel.component2.params"
        message = f"'{param}' in {where} must be a finite number"
        with pytest.raises(ValueError, match=re.escape(message)):
            from_config(record)

    def test_numpy_scalars_accepted(self):
        k = from_config(geometric(np.float64(0.5)))
        assert complex(k.hermitian_eval(2.0, 2.0)) == complex(geometric_kernel(0.5).hermitian_eval(2.0, 2.0))

    def test_constructor_rejects_non_numeric(self):
        with pytest.raises(ValueError, match=r"'omega0' in kernel\.params must be a finite number, got '1\.0'"):
            cozine_kernel(0.5, "1.0")

    @pytest.mark.parametrize(
        "coefficients",
        [
            "123",
            [],
            [1.0, -0.1],
            [1.0, math.nan],
            [1.0, math.inf],
            [True, 0.5],
            ["1.0", 0.5],
            [1.0, None],
            {"0": 1.0},
            1.0,
            None,
        ],
        ids=repr,
    )
    def test_coefficients_rejected(self, coefficients):
        record = {"name": "stationary_list", "params": {"coefficients": coefficients}}
        with pytest.raises(ValueError, match="non-empty list of finite nonnegative numbers"):
            from_config(record)

    def test_coefficients_stored_as_floats(self):
        family = KernelFamily.from_config({"name": "stationary_list", "params": {"coefficients": (1, 0.25)}})
        assert family.params["coefficients"] == (1.0, 0.25)
        assert all(type(c) is float for c in family.params["coefficients"])
