"""Path-sampling tests: determinism, truncation, structure, Monte Carlo covariances."""

import math

import numpy as np
import pytest

from hinfgp.kernels import CozineParams, StationarySequence, cozine_kernel, geometric_kernel
from hinfgp.sampling import sample_cozine_batch, sample_stationary_batch


def cozine_draws(params, h):
    """(X, Y) of each row h(n) = a^n (X cos(n w0) + Y sin(n w0)), from h(0) and h(1)."""
    x = h[:, 0]
    y = (h[:, 1] / params.a - x * math.cos(params.omega0)) / math.sin(params.omega0)
    return x, y


class TestStationarySampling:
    def test_batch_shape(self):
        mat = sample_stationary_batch(StationarySequence.geometric(0.5), trunc=50, seed=3, count=2)
        assert mat.shape == (2, 51)  # n = 0..trunc inclusive
        assert np.all(np.isfinite(mat))

    def test_same_seed_reproduces(self):
        seq = StationarySequence.geometric(0.3)
        a = sample_stationary_batch(seq, trunc=30, seed=11, count=3)
        b = sample_stationary_batch(seq, trunc=30, seed=11, count=3)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        seq = StationarySequence.geometric(0.3)
        a = sample_stationary_batch(seq, trunc=30, seed=1, count=1)
        b = sample_stationary_batch(seq, trunc=30, seed=2, count=1)
        assert not np.array_equal(a, b)

    def test_amplitude_envelope(self):
        """Each draw is a_n w_n, so across many paths var(h(n)) = a_n^2."""
        seq = StationarySequence.geometric(0.25)
        mat = sample_stationary_batch(seq, trunc=6, seed=29, count=20000)
        sample_var = np.var(mat, axis=0, ddof=1)
        expected = 0.25 ** np.arange(7)
        np.testing.assert_allclose(sample_var, expected, rtol=0.08)

    def test_batch_count_zero(self):
        mat = sample_stationary_batch(StationarySequence.geometric(0.5), 10, 0, 0)
        assert mat.shape[0] == 0

    def test_explicit_sequence_truncates_at_list_end(self):
        seq = StationarySequence.explicit([1.0, 0.25])
        mat = sample_stationary_batch(seq, trunc=8, seed=0, count=3)
        # a_n = 0 beyond the stored list, so the tail draws are exactly zero
        np.testing.assert_array_equal(mat[:, 2:], np.zeros((3, 7)))

    def test_monte_carlo_covariance_matches_kernel(self):
        """E[f(z) f(w)*] over draws matches the geometric closed form (4 SE)."""
        seq = StationarySequence.geometric(0.5)
        kernel = geometric_kernel(0.5)
        mat = sample_stationary_batch(seq, trunc=120, seed=101, count=20000)
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
        params = CozineParams(0.8, 1.3)
        mat = sample_cozine_batch(params, seed=17, count=4)
        assert mat.shape[1] > 10
        c = 2.0 * params.a * math.cos(params.omega0)
        for h in mat:
            for n in range(2, h.size):
                assert h[n] == pytest.approx(c * h[n - 1] - params.a**2 * h[n - 2], abs=1e-12)

    def test_damped_envelope(self):
        params = CozineParams(0.6, 0.9)
        mat = sample_cozine_batch(params, seed=5, count=4)
        x, y = cozine_draws(params, mat)
        envelope = np.multiply.outer(np.hypot(x, y), params.a ** np.arange(mat.shape[1]))
        assert np.all(np.abs(mat) <= envelope * (1.0 + 1e-9))

    def test_truncation_tail_is_negligible(self):
        params = CozineParams(0.5, 1.0)
        mat = sample_cozine_batch(params, seed=9, count=4)
        x, y = cozine_draws(params, mat)
        assert np.all(0.5 ** mat.shape[1] * np.hypot(x, y) < 1e-11)

    def test_batch_common_truncation(self):
        """All rows stop where the largest envelope a^n sqrt(X^2 + Y^2) falls below 1e-12."""
        params = CozineParams(0.7, 2.0)
        mat = sample_cozine_batch(params, seed=3, count=5)
        assert mat.ndim == 2 and mat.shape[0] == 5
        x, y = cozine_draws(params, mat)
        largest = float(np.max(np.hypot(x, y)))
        last = mat.shape[1] - 1
        assert largest * params.a**last <= 1e-12 * (1.0 + 1e-9)
        assert largest * params.a ** (last - 1) > 1e-12 * (1.0 - 1e-9)

    def test_batch_count_zero(self):
        mat = sample_cozine_batch(CozineParams(0.5, 1.0), seed=0, count=0)
        assert mat.shape[0] == 0

    def test_monte_carlo_covariance_matches_kernel(self):
        params = CozineParams(0.5, math.pi / 2.0)
        kernel = cozine_kernel(params)
        mat = sample_cozine_batch(params, seed=211, count=20000)
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
        seq = StationarySequence.geometric(0.25)
        mat = sample_stationary_batch(seq, trunc=200, seed=77, count=4000)
        sums = np.sum(np.abs(mat), axis=1)
        se = np.std(sums, ddof=1) / math.sqrt(sums.size)
        assert abs(np.mean(sums) - 1.5957691216057307) <= 3.0 * se
