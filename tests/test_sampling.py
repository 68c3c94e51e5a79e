"""Path-sampling tests: determinism, truncation, structure, Monte Carlo covariances."""

import math

import numpy as np
import pytest

from hinfgp.kernels import KernelFamily, cozine_kernel, geometric_kernel
from hinfgp.sampling import path_law, sample_cozine_batch, sample_paths, sample_stationary_batch


def geometric(alpha):
    return KernelFamily.from_config({"name": "geometric", "params": {"alpha": alpha}})


def exponential():
    return KernelFamily.from_config({"name": "exponential"})


def explicit(*a_sq):
    return KernelFamily.from_config({"name": "stationary_list", "params": {"coefficients": list(a_sq)}})


def cozine(a, omega0):
    return KernelFamily.from_config({"name": "cozine", "params": {"a": a, "omega0": omega0}})


def philox_normals(seed, shape):
    return np.random.Generator(np.random.Philox(key=seed)).standard_normal(shape)


def cozine_draws(family, h):
    """(X, Y) of each row h(n) = a^n (X cos(n w0) + Y sin(n w0)), from h(0) and h(1)."""
    a, omega0 = family.params["a"], family.params["omega0"]
    x = h[:, 0]
    y = (h[:, 1] / a - x * math.cos(omega0)) / math.sin(omega0)
    return x, y


HALF_NORMAL_MEAN = math.sqrt(2.0 / math.pi)


class TestSamplingLaws:
    """Each family's law against its formula written out here; draws compare with ==."""

    def test_geometric(self):
        alpha = 0.123456789
        mat = sample_stationary_batch(geometric(alpha), trunc=40, seed=8, count=6)
        expected = philox_normals(8, (6, 41)) * alpha ** (np.arange(41, dtype=float) / 2.0)
        assert np.array_equal(mat, expected)
        law = path_law("geometric")
        assert law.abs_sum({"alpha": alpha}) == HALF_NORMAL_MEAN * (1.0 / (1.0 - math.sqrt(alpha)))
        assert law.label({"alpha": alpha}) == "geometric(alpha=0.123456789)"

    def test_geometric_amplitudes(self):
        amps = path_law("geometric").amplitudes({"alpha": 0.25}, 4)
        np.testing.assert_allclose(amps, [1.0, 0.5, 0.25, 0.125], atol=1e-15)
        # sum alpha^{n/2} = 1/(1 - sqrt(alpha)) = 2 for alpha = 1/4
        abs_sum = path_law("geometric").abs_sum({"alpha": 0.25})
        assert abs_sum == pytest.approx(2.0 * HALF_NORMAL_MEAN, abs=1e-14)

    def test_exponential(self):
        # a_n = 1/sqrt(n!), 400 of them: the iterative product underflows
        # gracefully instead of overflowing the factorial
        amps = np.empty(400)
        val = 1.0
        for i in range(400):
            amps[i] = val
            val /= math.sqrt(i + 1.0)
        mat = sample_stationary_batch(exponential(), trunc=399, seed=12, count=3)
        assert np.array_equal(mat, philox_normals(12, (3, 400)) * amps)
        assert np.all(np.isfinite(mat))
        law_amps = path_law("exponential").amplitudes({}, 400)
        assert np.all(np.isfinite(law_amps))
        assert law_amps[-1] < 1e-300 or law_amps[-1] == 0.0
        expected = [1.0, 1.0, 1.0 / math.sqrt(2.0), 1.0 / math.sqrt(6.0), 1.0 / math.sqrt(24.0)]
        np.testing.assert_allclose(law_amps[:5], expected, rtol=1e-14)
        total, term, n = 0.0, 1.0, 0
        while term > 1e-18:
            total += term
            n += 1
            term /= math.sqrt(n)
        assert path_law("exponential").abs_sum({}) == HALF_NORMAL_MEAN * total
        assert path_law("exponential").label({}) == "exponential"

    @pytest.mark.parametrize("trunc", [2, 9], ids=["list-longer", "list-shorter"])
    def test_stationary_list(self, trunc):
        a_sq = (1.0, 0.25, 0.0625, 0.5, 0.125)
        family = explicit(*a_sq)
        amps = np.zeros(trunc + 1)
        stored = np.sqrt(np.asarray(a_sq[: trunc + 1]))
        amps[: stored.size] = stored
        mat = sample_stationary_batch(family, trunc=trunc, seed=4, count=5)
        assert np.array_equal(mat, philox_normals(4, (5, trunc + 1)) * amps)
        law = path_law("stationary_list")
        assert law.abs_sum(family.params) == HALF_NORMAL_MEAN * float(np.sum(np.sqrt(a_sq)))
        assert law.label(family.params) == "explicit(n=5)"

    def test_stationary_list_padding_and_sum(self):
        params = explicit(1.0, 0.25).params
        np.testing.assert_allclose(
            path_law("stationary_list").amplitudes(params, 4), [1.0, 0.5, 0.0, 0.0], atol=1e-15
        )
        abs_sum = path_law("stationary_list").abs_sum(params)
        assert abs_sum == pytest.approx(1.5 * HALF_NORMAL_MEAN, abs=1e-15)

    @pytest.mark.parametrize(
        "a,omega0,label",
        [(0.45, math.pi / 2.0, "cozine(a=0.45, omega0=1.5707963267948966)"), (0.9, 1, "cozine(a=0.9, omega0=1.0)")],
    )
    def test_cozine(self, a, omega0, label):
        mat = sample_cozine_batch(cozine(a, omega0), seed=21, count=7)
        draws = philox_normals(21, (7, 2))
        x, y = draws[:, 0], draws[:, 1]
        envelope = float(np.max(np.hypot(x, y)))
        trunc = max(0, math.ceil(math.log(1e-12 / envelope) / math.log(a)))
        n = np.arange(trunc + 1)
        expected = a**n * (np.multiply.outer(x, np.cos(n * omega0)) + np.multiply.outer(y, np.sin(n * omega0)))
        assert np.array_equal(mat, expected)
        law = path_law("cozine")
        assert law.abs_sum({"a": a, "omega0": omega0}) == HALF_NORMAL_MEAN / (1.0 - a)
        assert law.label({"a": a, "omega0": omega0}) == label

    def test_sample_paths_picks_the_family_sampler(self):
        assert np.array_equal(
            sample_paths(geometric(0.5), 30, 2, 4), sample_stationary_batch(geometric(0.5), 30, 2, 4)
        )
        # cozine chooses its own truncation: trunc is not read
        family = cozine(0.6, 1.0)
        assert np.array_equal(sample_paths(family, 30, 2, 4), sample_cozine_batch(family, 2, 4))

    @pytest.mark.parametrize("name", ["mixture", "h2", "harmonic", None, ["geometric"]])
    def test_unsampled_family_rejected(self, name):
        with pytest.raises(ValueError, match="no path sampler"):
            path_law(name)


class TestStationarySampling:
    def test_batch_shape(self):
        mat = sample_stationary_batch(geometric(0.5), trunc=50, seed=3, count=2)
        assert mat.shape == (2, 51)  # n = 0..trunc inclusive
        assert np.all(np.isfinite(mat))

    def test_same_seed_reproduces(self):
        family = geometric(0.3)
        a = sample_stationary_batch(family, trunc=30, seed=11, count=3)
        b = sample_stationary_batch(family, trunc=30, seed=11, count=3)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        family = geometric(0.3)
        a = sample_stationary_batch(family, trunc=30, seed=1, count=1)
        b = sample_stationary_batch(family, trunc=30, seed=2, count=1)
        assert not np.array_equal(a, b)

    def test_amplitude_envelope(self):
        """Each draw is a_n w_n, so across many paths var(h(n)) = a_n^2."""
        family = geometric(0.25)
        mat = sample_stationary_batch(family, trunc=6, seed=29, count=20000)
        sample_var = np.var(mat, axis=0, ddof=1)
        expected = 0.25 ** np.arange(7)
        np.testing.assert_allclose(sample_var, expected, rtol=0.08)

    def test_batch_count_zero(self):
        mat = sample_stationary_batch(geometric(0.5), 10, 0, 0)
        assert mat.shape[0] == 0

    def test_explicit_sequence_truncates_at_list_end(self):
        family = explicit(1.0, 0.25)
        mat = sample_stationary_batch(family, trunc=8, seed=0, count=3)
        # a_n = 0 beyond the stored list, so the tail draws are exactly zero
        np.testing.assert_array_equal(mat[:, 2:], np.zeros((3, 7)))

    def test_monte_carlo_covariance_matches_kernel(self):
        """E[f(z) f(w)*] over draws matches the geometric closed form (4 SE)."""
        family = geometric(0.5)
        kernel = geometric_kernel(0.5)
        mat = sample_stationary_batch(family, trunc=120, seed=101, count=20000)
        n = np.arange(mat.shape[1])
        z, w = 2.0 + 0j, 2.0 * np.exp(1j * math.pi / 3.0)
        f_z = mat @ z ** (-n.astype(float))
        f_w = mat @ w ** (-n.astype(float))
        prods = f_z * np.conj(f_w)
        target = complex(kernel.hermitian_eval(z, w))
        for part, want in ((prods.real, target.real), (prods.imag, target.imag)):
            se = np.std(part, ddof=1) / math.sqrt(part.size)
            assert abs(np.mean(part) - want) <= 4.0 * se


class TestCozineSampling:
    def test_resonance_recurrence(self):
        """h obeys the second-order recurrence h(n) = 2 a cos(w0) h(n-1) - a^2 h(n-2)."""
        a, omega0 = 0.8, 1.3
        mat = sample_cozine_batch(cozine(a, omega0), seed=17, count=4)
        assert mat.shape[1] > 10
        c = 2.0 * a * math.cos(omega0)
        for h in mat:
            for n in range(2, h.size):
                assert h[n] == pytest.approx(c * h[n - 1] - a**2 * h[n - 2], abs=1e-12)

    def test_damped_envelope(self):
        family = cozine(0.6, 0.9)
        mat = sample_cozine_batch(family, seed=5, count=4)
        x, y = cozine_draws(family, mat)
        envelope = np.multiply.outer(np.hypot(x, y), 0.6 ** np.arange(mat.shape[1]))
        assert np.all(np.abs(mat) <= envelope * (1.0 + 1e-9))

    def test_truncation_tail_is_negligible(self):
        family = cozine(0.5, 1.0)
        mat = sample_cozine_batch(family, seed=9, count=4)
        x, y = cozine_draws(family, mat)
        assert np.all(0.5 ** mat.shape[1] * np.hypot(x, y) < 1e-11)

    def test_batch_common_truncation(self):
        """All rows stop where the largest envelope a^n sqrt(X^2 + Y^2) falls below 1e-12."""
        a = 0.7
        family = cozine(a, 2.0)
        mat = sample_cozine_batch(family, seed=3, count=5)
        assert mat.ndim == 2 and mat.shape[0] == 5
        x, y = cozine_draws(family, mat)
        largest = float(np.max(np.hypot(x, y)))
        last = mat.shape[1] - 1
        assert largest * a**last <= 1e-12 * (1.0 + 1e-9)
        assert largest * a ** (last - 1) > 1e-12 * (1.0 - 1e-9)

    def test_batch_count_zero(self):
        mat = sample_cozine_batch(cozine(0.5, 1.0), seed=0, count=0)
        assert mat.shape[0] == 0

    def test_monte_carlo_covariance_matches_kernel(self):
        kernel = cozine_kernel(0.5, math.pi / 2.0)
        mat = sample_cozine_batch(cozine(0.5, math.pi / 2.0), seed=211, count=20000)
        n = np.arange(mat.shape[1])
        z, w = 2.0 + 0j, 1.5 * np.exp(-0.7j)
        f_z = mat @ z ** (-n.astype(float))
        f_w = mat @ w ** (-n.astype(float))
        for prods, target in (
            (f_z * np.conj(f_w), complex(kernel.hermitian_eval(z, w))),
            (f_z * f_w, complex(kernel.complementary_eval(z, w))),
        ):
            for part, want in ((prods.real, target.real), (prods.imag, target.imag)):
                se = np.std(part, ddof=1) / math.sqrt(part.size)
                assert abs(np.mean(part) - want) <= 4.0 * se


class TestSummabilityOracle:
    def test_geometric_expected_abs_sum(self):
        """E sum |h| = sqrt(2/pi) sum a_n: half-normal mean of each unit draw."""
        family = geometric(0.25)
        mat = sample_stationary_batch(family, trunc=200, seed=77, count=4000)
        sums = np.sum(np.abs(mat), axis=1)
        se = np.std(sums, ddof=1) / math.sqrt(sums.size)
        assert abs(np.mean(sums) - 1.5957691216057307) <= 3.0 * se
