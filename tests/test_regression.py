"""Regression tests: frozen hand/CAS-computed posteriors, augmented-solve oracle,
ellipsoids, likelihood values and gradients, and the L-BFGS-B tuner."""

import math

import numpy as np
import pytest
import scipy.linalg

from hinfgp import _linalg, regression
from hinfgp._linalg import ConditioningError, chol_factor_with_jitter
from hinfgp.kernels import (
    ComplexKernel,
    Domain,
    KernelFamily,
    cozine_kernel,
    geometric_kernel,
    gram,
)
from hinfgp.regression import (
    EllipsoidBound,
    FrequencyDataset,
    WidelyLinearPrediction,
    complementary_var,
    ellipsoid,
    fit,
    log_marginal_likelihood,
    optimize_hyperparameters,
    predict_sl,
    predict_wl,
    schur_P,
)
from hinfgp.sysid import make_resonant_system


def augmented_solve(kernel, data, z):
    """Independent widely linear oracle: dense LU solve of the 2n x 2n system
    over the stacked vector [y; conj(y)].  Cross-covariances follow from
    E[y_i f] = kt(z, z_i) and E[conj(y_i) f] = k(z, z_i).  ``z`` is a scalar
    or a 1-D array of queries, solved together; an array gives arrays."""
    zs = np.atleast_1d(np.asarray(z, dtype=complex))[:, None]
    a_mat = gram(kernel, data.sites, "hermitian", data.noise_var)
    b_mat = gram(kernel, data.sites, "complementary")
    gamma = np.block([[a_mat, b_mat], [np.conj(b_mat), np.conj(a_mat)]])
    yy = np.concatenate([data.responses, np.conj(data.responses)])
    u = np.asarray(kernel.hermitian_eval(zs, data.sites[None, :]), dtype=complex)
    v = np.asarray(kernel.complementary_eval(zs, data.sites[None, :]), dtype=complex)
    rows = np.hstack([u, v])
    solved = np.linalg.solve(gamma, np.column_stack([yy, np.conj(rows).T, np.hstack([v, u]).T]))
    q = zs.shape[0]
    mean = rows @ solved[:, 0]
    var = np.real(kernel.hermitian_eval(zs[:, 0], zs[:, 0])) - np.real(
        np.einsum("ij,ji->i", rows, solved[:, 1 : q + 1])
    )
    comp = kernel.complementary_eval(zs[:, 0], zs[:, 0]) - np.einsum("ij,ji->i", rows, solved[:, q + 1 :])
    if np.ndim(z) == 0:
        return complex(mean[0]), float(var[0]), complex(comp[0])
    return mean, var, comp


def dense_posterior(kernel, data):
    """``fit``'s posterior with its widely linear state built on the dense
    route (``regression._dense_state``), whatever terms the kernel has."""
    post = fit(kernel, data)
    post.__dict__["_augmented"] = regression._dense_state(post)
    return post


# The resonant mixture at the former Nelder-Mead optimum of
# configs/resonant.json: the values perfbench's identify-wide fixes
# (TUNED_RESONANT); today's tuned values are test_acceptance.GOLDEN_TUNED.
TUNED_MIXTURE = {
    "name": "mixture",
    "params": {"weight1": 0.02198313451245096, "weight2": 0.35829538298079183},
    "component1": {"name": "geometric", "params": {"alpha": 0.007437084182554785}},
    "component2": {"name": "cozine", "params": {"a": 0.9390638257609869, "omega0": 0.6254776553250977}},
}


def random_instance(rng, n_max=6):
    """Small well-separated complex-site dataset with a geometric prior."""
    alpha = rng.uniform(0.2, 0.8)
    n = rng.integers(2, n_max + 1)
    angles = np.sort(rng.uniform(-math.pi, math.pi, n))
    while np.min(np.diff(np.concatenate([angles, [angles[0] + 2 * math.pi]]))) < 0.3:
        angles = np.sort(rng.uniform(-math.pi, math.pi, n))
    radii = rng.uniform(1.05, 2.5, n)
    sites = radii * np.exp(1j * angles)
    y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return geometric_kernel(alpha), sites, y


class TestFrequencyDataset:
    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            FrequencyDataset(np.array([2.0, 3.0]), np.array([1.0 + 0j]))

    def test_negative_noise(self):
        """A NaN or infinite noise variance is refused like a negative one,
        by the dataset, ``gram`` and ``bind`` alike; a NaN one is not read as
        zero."""
        family = KernelFamily.from_config({"name": "geometric", "params": {"alpha": 0.5}})
        for noise_var in (-0.1, math.nan, math.inf):
            with pytest.raises(ValueError, match="noise_var"):
                FrequencyDataset(np.array([2.0]), np.array([1.0 + 0j]), noise_var)
            with pytest.raises(ValueError, match="noise_var"):
                gram(family({}), np.array([2.0]), noise_var=noise_var)
            with pytest.raises(ValueError, match="noise_var"):
                family.bind(np.array([2.0]), noise_var)

    def test_interior_sites_rejected(self):
        with pytest.raises(ValueError, match=r"\|z\| >= 1"):
            FrequencyDataset(np.array([0.9]), np.array([1.0 + 0j]))

    def test_duplicate_sites_zero_noise(self):
        with pytest.raises(ConditioningError, match="duplicate"):
            FrequencyDataset(np.array([2.0, 2.0]), np.array([1.0 + 0j, 1.0 + 0j]), 0.0)

    def test_duplicate_sites_allowed_with_noise(self):
        data = FrequencyDataset(np.array([2.0, 2.0]), np.array([1.0 + 0j, 1.0 + 0j]), 0.1)
        assert len(data) == 2

    def test_unit_circle_sites_allowed(self):
        data = FrequencyDataset(np.exp(1j * np.array([0.5, 1.0])), np.zeros(2, complex), 0.01)
        assert len(data) == 2

    @pytest.mark.parametrize(
        "sites, responses, message",
        [
            ([2.0, 3.0], [1.0, complex(np.nan, np.nan)], "1 of 2 responses are not finite"),
            ([2.0, 3.0], [np.inf, 1.0], "1 of 2 responses are not finite"),
            ([2.0, complex(np.nan, 1.0)], [1.0, 1.0], r"point .* at index 1 is not finite"),
            ([np.inf, 3.0], [1.0, 1.0], r"point .* at index 0 is not finite"),
        ],
        ids=["nan-response", "inf-response", "nan-site", "inf-site"],
    )
    def test_non_finite_entries_rejected(self, sites, responses, message):
        """A NaN or infinite entry is named at construction, not found later
        as a failed factorization or an all -inf likelihood.  A site is
        refused by the one kernel-domain check (``_check_sites``)."""
        with pytest.raises(ValueError, match=message):
            FrequencyDataset(np.array(sites, complex), np.array(responses, complex), 0.01)


class TestCholeskyJitter:
    def test_indefinite_matrix_raises(self):
        mat = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3 and -1
        with pytest.raises(ConditioningError):
            chol_factor_with_jitter(mat, 1e-10)

    def test_spd_matrix_factors(self):
        factor, jitter = chol_factor_with_jitter(np.eye(3) * 2.0, 1e-10)
        np.testing.assert_allclose(np.tril(factor), math.sqrt(2.0) * np.eye(3))
        assert jitter == 0.0

    def test_retry_returns_its_jitter(self):
        """A singular PSD matrix factors on the retry, and the jitter returned
        is the one added: rel_jitter times the mean diagonal."""
        mat = np.array([[1.0, 1.0], [1.0, 1.0]])
        factor, jitter = chol_factor_with_jitter(mat, 1e-10)
        assert jitter == 1e-10 * 1.0
        lower = np.tril(factor)
        np.testing.assert_allclose(lower @ lower.T, mat + jitter * np.eye(2), rtol=0.0, atol=1e-15)

    def test_triangular_inverse_zeroes_the_upper_triangle(self):
        """``tri_inverse`` of a factor whose upper triangle holds leftover
        input is the inverse of its lower triangle, with zeros above."""
        rng = np.random.default_rng(49)
        root = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        factor, _ = chol_factor_with_jitter(root @ root.conj().T + np.eye(5))
        assert np.any(np.triu(factor, 1) != 0.0)
        inverse = _linalg.tri_inverse(factor)
        assert np.all(np.triu(inverse, 1) == 0.0)
        np.testing.assert_allclose(inverse @ np.tril(factor), np.eye(5), rtol=0.0, atol=1e-13)


class TestStrictlyLinear:
    def test_single_point_frozen_values(self):
        # geometric(1/2), site 2, y = 1, noise-free, query 3:
        # mean = k(3,2)/k(2,2) = (12/11)/(8/7) = 21/22
        # var  = k(3,3) - k(3,2)^2/k(2,2) = 18/17 - 126/121 = 36/2057
        post = fit(geometric_kernel(0.5), FrequencyDataset(np.array([2.0]), np.array([1.0 + 0j])))
        mean, var = predict_sl(post, 3.0)
        assert abs(mean - 21.0 / 22.0) < 1e-10
        assert abs(var - 36.0 / 2057.0) < 1e-10

    def test_interpolation_noise_free(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            kernel, sites, y = random_instance(rng)
            post = fit(kernel, FrequencyDataset(sites, y, 0.0))
            for z, target in zip(sites, y):
                mean, var = predict_sl(post, complex(z))
                assert abs(mean - target) < 1e-6 * max(1.0, abs(target))
                assert var < 1e-6

    def test_variance_sandwich(self):
        rng = np.random.default_rng(43)
        for _ in range(25):
            kernel, sites, y = random_instance(rng)
            post = fit(kernel, FrequencyDataset(sites, y, 0.01))
            for _ in range(10):
                z = rng.uniform(1.0, 4.0) * np.exp(1j * rng.uniform(-math.pi, math.pi))
                _, var = predict_sl(post, complex(z))
                prior = float(np.real(kernel.hermitian_eval(z, z)))
                assert 0.0 <= var <= prior + 1e-12

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(44)
        kernel, sites, y = random_instance(rng)
        post = fit(kernel, FrequencyDataset(sites, y, 0.05))
        zs = 1.5 * np.exp(1j * np.linspace(-2.0, 2.0, 7))
        means, variances = predict_sl(post, zs)
        for z, m, v in zip(zs, means, variances):
            m1, v1 = predict_sl(post, complex(z))
            assert abs(m - m1) < 1e-12
            assert abs(v - v1) < 1e-12

        # predict_wl on an array: 130 points cross the 64-row block boundaries
        base = geometric_kernel(0.5)
        circ = ComplexKernel(base.hermitian_eval, lambda z, w: 0.0 * np.multiply(z, w))
        real_sites = FrequencyDataset(np.array([2.0, 3.0, 5.0]), np.array([1.0, 0.5, 0.2]) + 0j, 0.0)
        zs = (1.1 + np.linspace(0.0, 2.0, 130)) * np.exp(1j * np.linspace(-3.0, 3.0, 130))
        for wl_post in (post, fit(base, real_sites), fit(circ, FrequencyDataset(sites, y, 0.05))):
            batch = predict_wl(wl_post, zs)
            comp_batch = complementary_var(wl_post, zs)
            assert batch.mean.shape == batch.hermitian_var.shape == comp_batch.shape == (130,)
            for i, z in enumerate(zs):
                single = predict_wl(wl_post, complex(z))
                comp_single = complementary_var(wl_post, complex(z))
                assert single.used_fallback == batch.used_fallback
                assert abs(batch.mean[i] - single.mean) < 1e-12
                assert abs(batch.hermitian_var[i] - single.hermitian_var) < 1e-12
                if batch.used_fallback:
                    assert math.isnan(comp_batch[i].real)
                    assert math.isnan(comp_single.real)
                else:
                    assert abs(comp_batch[i] - comp_single) < 1e-12
        assert predict_wl(fit(base, real_sites), zs).used_fallback

    def test_scalar_gives_floats_and_array_gives_arrays(self):
        """A scalar query, a Python or a 0-d array one, gives a (complex,
        float) pair; a 1-D array gives arrays of its length."""
        post = fit(geometric_kernel(0.5), FrequencyDataset(np.array([2.0, 3.0]), np.array([1.0, 0.5 + 0.5j])))
        for z in (3.0, 2.0 + 1.0j, np.array(3.0)):
            mean, var = predict_sl(post, z)
            assert type(mean) is complex and type(var) is float
        means, variances = predict_sl(post, np.array([3.0]))
        assert means.shape == variances.shape == (1,)
        assert (means[0], variances[0]) == predict_sl(post, 3.0)

    def test_query_inside_domain_rejected(self):
        post = fit(geometric_kernel(0.5), FrequencyDataset(np.array([2.0]), np.array([1.0 + 0j])))
        with pytest.raises(ValueError, match="at index 0 lies outside the kernel domain"):
            predict_sl(post, 0.5)
        with pytest.raises(ValueError, match="domain"):
            predict_sl(post, np.array([2.0, 0.5]))

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            fit(geometric_kernel(0.5), FrequencyDataset(np.array([]), np.array([])))

    def test_alpha_vec_solves_system(self):
        rng = np.random.default_rng(45)
        kernel, sites, y = random_instance(rng)
        data = FrequencyDataset(sites, y, 0.02)
        post = fit(kernel, data)
        residual = post.gram_yy @ post.alpha_vec - data.responses
        assert np.max(np.abs(residual)) < 1e-10


class TestWidelyLinear:
    def _single_site_posterior(self):
        # geometric(1/2), one site at sqrt(2) (1 + i), y = 1 + 2i, noise 1/10
        data = FrequencyDataset(
            np.array([math.sqrt(2.0) * (1 + 1j)]), np.array([1.0 + 2.0j]), 0.1
        )
        return fit(geometric_kernel(0.5), data)

    def test_single_site_frozen_values(self):
        """Computer-algebra oracle for the full widely linear update at z = 3."""
        post = self._single_site_posterior()
        mean_sl, var_sl = predict_sl(post, 3.0)
        assert mean_sl.real == pytest.approx(0.74498769463604403, abs=1e-12)
        assert mean_sl.imag == pytest.approx(1.75660305060851178, abs=1e-12)
        assert var_sl == pytest.approx(0.15385923797386644, abs=1e-12)
        pred = predict_wl(post, 3.0)
        assert not pred.used_fallback
        assert pred.mean.real == pytest.approx(0.82299957978198233, abs=1e-12)
        assert pred.mean.imag == pytest.approx(0.0, abs=1e-12)
        assert pred.hermitian_var == pytest.approx(0.05240337747707735, abs=1e-12)
        assert complementary_var(post, 3.0).real == pytest.approx(
            0.05240337747707735, abs=1e-12
        )

    def test_real_axis_prediction_is_real(self):
        """A conjugate-symmetric prior forces real predictions on the real axis
        once y and y* are both used; the strictly linear mean has no such
        constraint."""
        post = self._single_site_posterior()
        for z in (2.0, 3.0, 5.0):
            pred = predict_wl(post, z)
            assert abs(pred.mean.imag) < 1e-10
            # at a real query the error is real, so both variances coincide
            comp = complementary_var(post, z)
            assert comp.real == pytest.approx(pred.hermitian_var, abs=1e-10)
            assert abs(comp.imag) < 1e-10

    def test_matches_augmented_solve(self):
        """The blockwise factor of Gamma against the dense 2n x 2n oracle."""
        rng = np.random.default_rng(46)
        for kernel_fn in (geometric_kernel(0.5), cozine_kernel(0.6, 1.1)):
            _, sites, y = random_instance(rng, n_max=5)
            data = FrequencyDataset(sites, y, 0.05)
            post = fit(kernel_fn, data)
            queries = []
            for _ in range(4):
                z = complex(rng.uniform(1.1, 4.0) * np.exp(1j * rng.uniform(-math.pi, math.pi)))
                mean_o, var_o, comp_o = augmented_solve(kernel_fn, data, z)
                pred = predict_wl(post, z)
                assert abs(pred.mean - mean_o) < 1e-9
                assert abs(pred.hermitian_var - var_o) < 1e-9
                assert abs(complementary_var(post, z) - comp_o) < 1e-9
                queries.append(z)
            batch = predict_wl(post, np.array(queries))
            comps = complementary_var(post, np.array(queries))
            for z, mean, var, comp in zip(queries, batch.mean, batch.hermitian_var, comps):
                mean_o, var_o, comp_o = augmented_solve(kernel_fn, data, z)
                assert abs(mean - mean_o) < 1e-9
                assert abs(var - var_o) < 1e-9
                assert abs(comp - comp_o) < 1e-9

    def test_matches_augmented_solve_at_large_n(self):
        """The identify-wide regime, at 120 unit-circle sites under the tuned
        resonant mixture with noise 3.6e-3: mean, Hermitian and complementary
        variance agree with the dense oracle to 1e-9 of their largest
        magnitude over 130 queries (three 64-row blocks)."""
        kernel = KernelFamily.from_config(TUNED_MIXTURE)({})
        rng = np.random.default_rng(53)
        sites = np.exp(1j * np.linspace(0.02, math.pi - 0.02, 120))
        noise = rng.standard_normal(120) + 1j * rng.standard_normal(120)
        data = FrequencyDataset(sites, kernel.hermitian_eval(sites, 1.05) + 0.06 * noise, 3.6e-3)
        off_circle = rng.uniform(1.0, 1.5, 30) * np.exp(1j * rng.uniform(0.0, math.pi, 30))
        queries = np.concatenate([np.exp(1j * rng.uniform(-math.pi, math.pi, 100)), off_circle])
        post = fit(kernel, data)
        pred = predict_wl(post, queries)
        assert not pred.used_fallback
        got_all = (pred.mean, pred.hermitian_var, complementary_var(post, queries))
        for got, want in zip(got_all, augmented_solve(kernel, data, queries)):
            assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))

    def test_rank_deficient_schur_complement_takes_jitter(self):
        """Zero noise at sites {2, 3, 1.5+1j}: S = conj(P) has eigenvalues about
        {0, 2e-16, 9.8e-4}, so its first factorization fails and the jitter
        retry factors it.  The means equal those of the former truncated
        pseudo-inverse of P (eigenvalues below 1e-8 of the largest dropped)."""
        data = FrequencyDataset(np.array([2.0, 3.0, 1.5 + 1.0j]), np.array([1.0, 0.5, 0.2]) + 0j, 0.0)
        post = fit(geometric_kernel(0.5), data)
        assert not _linalg._potrf(post._augmented.s_mat)[1]
        for z, mean in ((2.5, 0.667819279717027), (2.0 + 0.5j, 0.7375274166623034 - 0.3639058103689029j)):
            pred = predict_wl(post, z)
            assert not pred.used_fallback
            assert abs(pred.mean - mean) < 1e-9

    def test_variance_never_exceeds_strictly_linear(self):
        rng = np.random.default_rng(47)
        for _ in range(20):
            kernel, sites, y = random_instance(rng)
            post = fit(kernel, FrequencyDataset(sites, y, 0.05))
            for _ in range(5):
                z = complex(rng.uniform(1.05, 3.0) * np.exp(1j * rng.uniform(-math.pi, math.pi)))
                _, var_sl = predict_sl(post, z)
                pred = predict_wl(post, z)
                assert pred.hermitian_var <= var_sl + 1e-9

    def test_real_sites_fall_back(self):
        """Real sites with zero noise make y* = y, so P vanishes identically."""
        data = FrequencyDataset(np.array([2.0, 3.0, 5.0]), np.array([1.0, 0.5, 0.2]) + 0j, 0.0)
        post = fit(geometric_kernel(0.5), data)
        pred = predict_wl(post, 2.5)
        assert pred.used_fallback
        assert math.isnan(complementary_var(post, 2.5).real)
        mean_sl, var_sl = predict_sl(post, 2.5)
        assert pred.mean == pytest.approx(mean_sl, abs=1e-14)
        assert pred.hermitian_var == pytest.approx(var_sl, abs=1e-14)

    def test_circular_kernel_reduces_to_strictly_linear(self):
        """kt = 0 means y* carries no extra information: the corrections vanish
        exactly and the complementary error variance is zero."""
        base = geometric_kernel(0.5)
        circ = ComplexKernel(base.hermitian_eval, lambda z, w: 0.0 * np.multiply(z, w))
        rng = np.random.default_rng(48)
        _, sites, y = random_instance(rng)
        post = fit(circ, FrequencyDataset(sites, y, 0.05))
        z = 2.0 + 1.0j
        mean_sl, var_sl = predict_sl(post, z)
        pred = predict_wl(post, z)
        assert not pred.used_fallback
        assert abs(pred.mean - mean_sl) < 1e-12
        assert abs(pred.hermitian_var - var_sl) < 1e-12
        assert abs(complementary_var(post, z)) < 1e-12

    def test_wide_state_built_once(self, monkeypatch):
        """The complementary Gram and the factor L22 of S = conj(P) are
        computed once per posterior, by whichever of ``predict_wl``,
        ``complementary_var`` and ``schur_P`` comes first."""
        rng = np.random.default_rng(52)
        kernel, sites, y = random_instance(rng)
        data = FrequencyDataset(sites, y, 0.05)
        post, other, third = (fit(kernel, data) for _ in range(3))  # K_yy's factors are not counted
        calls = {"complementary": 0, "factor": 0}
        real_gram, real_factor = regression.gram, regression.chol_factor_with_jitter

        def counting_gram(kernel, points, part="hermitian", noise_var=0.0):
            calls["complementary"] += part == "complementary"
            return real_gram(kernel, points, part, noise_var)

        def counting_factor(*args, **kwargs):
            calls["factor"] += 1
            return real_factor(*args, **kwargs)

        monkeypatch.setattr(regression, "gram", counting_gram)
        monkeypatch.setattr(regression, "chol_factor_with_jitter", counting_factor)
        predict_wl(post, np.array([2.0 + 1.0j, 1.5 - 0.5j]))
        predict_wl(post, 3.0)
        complementary_var(post, 3.0)
        schur_P(post)
        assert calls == {"complementary": 1, "factor": 1}
        schur_P(other)
        predict_wl(other, 3.0)
        assert calls == {"complementary": 2, "factor": 2}
        complementary_var(third, 3.0)
        predict_wl(third, 3.0)
        assert calls == {"complementary": 3, "factor": 3}

    def test_prediction_solves_only_x(self, monkeypatch):
        """``predict_wl`` returns three fields and solves for x = L^{-1} [u, v]^H
        alone: each block's two triangular solves take one right-hand-side
        column per query point of the block, and the query diagonal kt(z, z),
        which only the complementary variance reads, is never evaluated.
        ``complementary_var`` does both, which shows that the records see it."""
        assert WidelyLinearPrediction._fields == ("mean", "hermitian_var", "used_fallback")
        base = geometric_kernel(0.5)
        diagonal = []

        def complementary(z, w):
            diagonal.append(np.ndim(z) == np.ndim(w) == 1)
            return base.complementary_eval(z, w)

        _, sites, y = random_instance(np.random.default_rng(54))
        post = fit(ComplexKernel(base.hermitian_eval, complementary), FrequencyDataset(sites, y, 0.05))
        schur_P(post)  # builds the widely linear state, whose solves are not counted
        widths = []
        real_solve = scipy.linalg.solve_triangular

        def recording_solve(a, b, **kwargs):
            widths.append(np.shape(b)[1])
            return real_solve(a, b, **kwargs)

        monkeypatch.setattr(regression.scipy.linalg, "solve_triangular", recording_solve)
        diagonal.clear()
        zs = (1.1 + np.linspace(0.0, 2.0, 130)) * np.exp(1j * np.linspace(-3.0, 3.0, 130))
        assert not predict_wl(post, zs).used_fallback
        predict_wl(post, 3.0)
        assert widths == [64, 64, 64, 64, 2, 2, 1, 1]
        assert diagonal and not any(diagonal)
        widths.clear()
        complementary_var(post, zs[:3])
        assert widths == [6, 6]
        assert any(diagonal)

    def test_proper_kernel_impropriety_is_one(self):
        """With a zero complementary covariance B = 0, so P = A = K_yy and
        the impropriety ||P||_2 / ||K_yy||_2 is 1, returned as a float."""
        rng = np.random.default_rng(53)
        kernel, sites, y = random_instance(rng)
        circ = ComplexKernel(kernel.hermitian_eval, lambda z, w: 0.0 * np.multiply(z, w))
        impropriety = schur_P(fit(circ, FrequencyDataset(sites, y, 0.05)))
        assert type(impropriety) is float
        assert impropriety == pytest.approx(1.0, abs=1e-12)

    def test_schur_complement_against_dense_inverse(self):
        rng = np.random.default_rng(49)
        kernel, sites, y = random_instance(rng)
        data = FrequencyDataset(sites, y, 0.05)
        post = fit(kernel, data)
        a_mat = gram(kernel, sites, "hermitian", 0.05)
        b_mat = gram(kernel, sites, "complementary")
        direct = a_mat - b_mat @ np.linalg.inv(np.conj(a_mat)) @ np.conj(b_mat)
        impropriety = schur_P(post)
        matrix = np.conj(post._augmented.s_mat)
        assert np.max(np.abs(matrix - 0.5 * (direct + direct.conj().T))) < 1e-10
        assert impropriety == pytest.approx(
            np.linalg.norm(direct, 2) / np.linalg.norm(a_mat, 2), rel=1e-8
        )

    def test_schur_p_is_psd(self):
        rng = np.random.default_rng(50)
        for _ in range(10):
            kernel, sites, y = random_instance(rng)
            post = fit(kernel, FrequencyDataset(sites, y, 0.05))
            eigvals = np.linalg.eigvalsh(np.conj(post._augmented.s_mat))
            assert eigvals.min() >= -1e-8 * max(1.0, eigvals.max())


def _site_reference(post, digits=60):
    """The widely linear posterior at the data sites for the factored
    Gamma_f = [[A + j1 I, B], [B^H, A* + (j1 + j2) I]] (j1 the jitter ``fit``
    reports, j2 the one ``_augmented`` reports: S is formed from
    conj(A + j1 I) and factored with j2), at ``digits`` decimal digits with
    the float Grams taken as exact.  Through the Schur complement
    P_f = A_f - B D^{-1} B^H, D = A* + (j1 + j2) I: Gamma_f^{-1}'s top-left
    block is P_f^{-1} and the top half
    of Gamma_f^{-1} (y; y*) is P_f^{-1} (y - B D^{-1} y*).  Returns the means
    and variances as float arrays."""
    import mpmath

    data = post.dataset
    n, shift = len(data), data.noise_var + post.jitter
    a_mat = post.gram_yy
    b_mat = gram(post.kernel, data.sites, "complementary")
    with mpmath.workdps(digits):
        a_f, b, d = (mpmath.matrix(n, n) for _ in range(3))
        for i in range(n):
            for j in range(n):
                a_f[i, j] = mpmath.mpc(complex(a_mat[i, j]))
                b[i, j] = mpmath.mpc(complex(b_mat[i, j]))
                d[i, j] = mpmath.mpc(complex(np.conj(a_mat[i, j])))
            a_f[i, i] += post.jitter
            d[i, i] += post.jitter + post._augmented.jitter
        d_inv = d**-1
        p_inv = (a_f - b * d_inv * b.transpose_conj()) ** -1
        y = mpmath.matrix([mpmath.mpc(complex(v)) for v in data.responses])
        y_conj = mpmath.matrix([mpmath.mpc(complex(np.conj(v))) for v in data.responses])
        top = p_inv * (y - b * d_inv * y_conj)
        means = np.array([complex(y[i] - shift * top[i]) for i in range(n)])
        variances = np.array([float(mpmath.re(shift - shift**2 * p_inv[i, i])) for i in range(n)])
    return means, variances


class TestSitePosterior:
    """``_at_sites``: the posterior at the data sites from the factors the
    posterior holds, against a high-precision reference and the predictors."""

    def _jittered(self):
        """Zero noise at 12 unit-circle sites and 12 copies 1e-6 rad away:
        K_yy and S both need the jitter retry."""
        angles = np.linspace(0.2, 2.9, 12)
        sites = np.exp(1j * np.concatenate([angles, angles + 1e-6]))
        kernel = geometric_kernel(0.5)
        return fit(kernel, FrequencyDataset(sites, kernel.hermitian_eval(sites, 1.3 + 0.4j), 0.0))

    def test_both_jitters_take_the_exact_block(self):
        """With jitter j1 in L11, S is formed from conj(K_yy + j1 I), the
        matrix L11 factors, so S factors without a jitter of its own and
        Gamma_f = [[A + j1 I, B], [B^H, A* + j1 I]] is conjugate symmetric.
        The exact top-left block agrees with the 60-digit reference to 1e-14
        absolute, and the means to 1e-9 of max |y|; the L22-only diagonal,
        Gamma_f^{-1}'s bottom-right block, now agrees with it as well."""
        post = self._jittered()
        state = post._augmented
        assert post.jitter > 0.0 and state.jitter == 0.0
        ref_means, ref_vars = _site_reference(post)
        means, variances = regression._at_sites(post, True)
        assert np.max(np.abs(variances - ref_vars)) <= 1e-14
        assert np.max(np.abs(means - ref_means)) <= 1e-9 * np.max(np.abs(post.dataset.responses))
        shift = post.jitter
        l22_only = shift - shift**2 * np.sum(np.abs(_linalg.tri_inverse(state.l22)) ** 2, axis=0)
        assert np.max(np.abs(l22_only - ref_vars)) <= 1e-14

    def test_l22_inverse_alone_without_jitter(self, wide_shape, monkeypatch):
        """Without jitter the dense route's widely linear variance takes one
        triangular inverse, L22's, and still agrees with ``predict_wl`` at
        the 400 sites of the identify-wide shape; a jittered posterior
        inverts L11 too."""
        data, kernel = wide_shape
        post = dense_posterior(kernel, data)
        assert post.jitter == 0.0 and post._augmented.jitter == 0.0
        inverted = []
        real_inverse = regression.tri_inverse

        def recording_inverse(factor):
            inverted.append(factor is post._augmented.l22)
            return real_inverse(factor)

        monkeypatch.setattr(regression, "tri_inverse", recording_inverse)
        means, variances = regression._at_sites(post, True)
        assert inverted == [True]
        pred = predict_wl(post, data.sites)
        assert np.max(np.abs(means - pred.mean)) <= 1e-10 * np.max(np.abs(pred.mean))
        assert np.max(np.abs(variances - pred.hermitian_var)) <= 1e-12
        inverted.clear()
        regression._at_sites(self._jittered(), True)
        assert len(inverted) == 2

    def test_real_site_fallback(self):
        """Real sites with zero noise make S numerically zero: the widely
        linear read falls back to the strictly linear one, as ``predict_wl``
        does, and gives y with zero variance."""
        data = FrequencyDataset(np.array([2.0, 3.0, 5.0]), np.array([1.0, 0.5, 0.2]) + 0j, 0.0)
        post = fit(geometric_kernel(0.5), data)
        assert post._augmented.l22 is None and post.jitter == 0.0
        means, variances = regression._at_sites(post, True)
        strict = regression._at_sites(post, False)
        assert np.array_equal(means, strict[0]) and np.array_equal(variances, strict[1])
        assert np.array_equal(means, data.responses) and np.all(variances == 0.0)
        pred = predict_wl(post, data.sites)
        assert pred.used_fallback
        np.testing.assert_allclose(pred.mean, means, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(pred.hermitian_var, variances, rtol=0.0, atol=1e-12)

    def test_strict_jitter_shifts_by_the_jitter(self):
        """A jittered K_yy at zero noise: the strictly linear read uses the
        shift s = j1 and agrees with ``predict_sl`` at the sites."""
        post = self._jittered()
        means, variances = regression._at_sites(post, False)
        ref_means, ref_vars = predict_sl(post, post.dataset.sites)
        assert np.all(variances > 0.0)
        np.testing.assert_allclose(variances, ref_vars, rtol=0.0, atol=1e-14)
        np.testing.assert_allclose(means, ref_means, rtol=0.0, atol=1e-12)


def _hermitian_with_spectrum(rng, eigenvalues):
    """A dense complex Hermitian matrix with the given eigenvalues."""
    n = len(eigenvalues)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    mat = (q * np.asarray(eigenvalues, dtype=float)) @ q.conj().T
    return 0.5 * (mat + mat.conj().T)


def _dense_largest(mat):
    n = mat.shape[0]
    return float(scipy.linalg.eigvalsh(mat, subset_by_index=[n - 1, n - 1])[0])


def _spectra(n):
    return {
        "decaying": 0.5 ** np.arange(n),
        "clustered": np.r_[1.0, 1.0 - 1e-10, 0.5 ** np.arange(1, n)][:n],
        "flat": np.linspace(0.9, 1.0, n),
        "rank1": np.r_[3.0, np.zeros(n - 1)],
        "zero": np.zeros(n),
        "roundoff": 1e-17 * 0.7 ** np.arange(n),
    }


@pytest.fixture(scope="module")
def wide_shape():
    """The identify-wide shape: the fixed resonant mixture on 400 unit-circle
    sites, with a resonant plant's noisy response and its estimated noise."""
    freqs = np.arange(1, 401) * math.pi / 401
    rng = np.random.default_rng(8101)
    noise = 0.02 * (rng.standard_normal(400) + 1j * rng.standard_normal(400))
    response = make_resonant_system(20.0 * math.pi, 0.1, 100.0).freq_response(freqs) + noise
    return FrequencyDataset(np.exp(1j * freqs), response, 0.0012), KernelFamily.from_config(TUNED_MIXTURE)({})


WIDE_GRID = np.exp(1j * math.pi * (np.arange(512) + 1.0) / 513.0)  # run_identify's prediction grid


class TestCoefficientRoute:
    """The widely linear state in coefficient space (``_CoefficientFactor``),
    taken when the kernel has fewer terms than there are sites and the
    loading is positive, against the dense factor of Gamma."""

    def test_wide_shape_takes_the_coefficient_route(self, wide_shape, monkeypatch):
        """At the identify-wide shape (r = 10 terms, n = 400 sites) the
        public path solves only with the r x r factor: on the grid, for the
        complementary variance, the impropriety and the site posterior.  No
        complementary Gram, Lanczos run or triangular inverse is formed."""
        data, kernel = wide_shape
        post = fit(kernel, data)
        orders = []
        real_solve = scipy.linalg.solve_triangular

        def recording_solve(a, b, **kwargs):
            orders.append(a.shape[0])
            return real_solve(a, b, **kwargs)

        def refuse(*args, **kwargs):
            raise AssertionError("dense widely linear work")

        monkeypatch.setattr(regression.scipy.linalg, "solve_triangular", recording_solve)
        for name in ("gram", "tri_inverse", "_largest_eigenvalue"):
            monkeypatch.setattr(regression, name, refuse)
        assert not predict_wl(post, WIDE_GRID).used_fallback
        complementary_var(post, WIDE_GRID)
        schur_P(post)
        regression._at_sites(post, True)
        state = post._augmented
        assert isinstance(state, regression._CoefficientFactor)
        assert state.terms == 10 and 0.0 < state.tail < 1e-16
        assert orders and set(orders) == {10}

    def test_agrees_with_the_dense_route_at_the_wide_shape(self, wide_shape):
        """The stated tolerances, on the 512-point grid and at the 400 sites:
        means within 1e-10 of the largest |mean|, Hermitian variances within
        1e-8 relative, complementary variances within 1e-8 of the largest,
        and the impropriety within 1e-11 relative."""
        data, kernel = wide_shape
        post, dense = fit(kernel, data), dense_posterior(kernel, data)
        assert isinstance(post._augmented, regression._CoefficientFactor)
        got, want = predict_wl(post, WIDE_GRID), predict_wl(dense, WIDE_GRID)
        assert not got.used_fallback and not want.used_fallback
        pairs = [(got.mean, got.hermitian_var, want.mean, want.hermitian_var)]
        pairs.append((*regression._at_sites(post, True), *regression._at_sites(dense, True)))
        for mean, var, mean_d, var_d in pairs:
            assert np.max(np.abs(mean - mean_d)) <= 1e-10 * np.max(np.abs(mean_d))
            assert np.all(np.abs(var - var_d) <= 1e-8 * var_d)
        comp, comp_d = complementary_var(post, WIDE_GRID), complementary_var(dense, WIDE_GRID)
        assert np.max(np.abs(comp - comp_d)) <= 1e-8 * np.max(np.abs(comp_d))
        assert abs(schur_P(post) - schur_P(dense)) <= 1e-11 * schur_P(dense)

    def test_route_rule(self):
        """Terms, r < n and a positive loading take the coefficient route;
        a kernel built by hand, r >= n, a series too long to expand and a
        zero loading take the dense factor."""
        sites = np.exp(1j * np.linspace(0.3, 2.8, 6))
        y = np.linspace(1.0, 2.0, 6) + 0.5j
        noisy = FrequencyDataset(sites, y, 0.05)
        cozine = cozine_kernel(0.6, 1.1)
        assert isinstance(fit(cozine, noisy)._augmented, regression._CoefficientFactor)
        raw = ComplexKernel(cozine.hermitian_eval, cozine.complementary_eval)
        long_series = geometric_kernel(0.95)
        assert long_series._terms is None
        two_sites = FrequencyDataset(sites[:2], y[:2], 0.05)
        for post in (fit(raw, noisy), fit(long_series, noisy), fit(cozine, two_sites)):
            assert isinstance(post._augmented, regression._AugmentedFactor)
        # a posterior with sigma^2 = 0 and no jitter: s = 0
        unloaded = fit(cozine, noisy)
        unloaded.dataset = FrequencyDataset(sites, y, 0.0)
        assert unloaded.jitter == 0.0 and isinstance(unloaded._augmented, regression._AugmentedFactor)

    def test_fallback_decided_as_on_the_dense_route(self):
        """Real sites at a loading of 1e-14: lambda_max(P) is about 2s, below
        1e-14 lambda_max(A), and both routes fall back to the strictly linear
        prediction, with impropriety within 2 % of each other."""
        data = FrequencyDataset(np.array([2.0, 3.0, 5.0, 1.5, 1.2]), np.array([1.0, 0.5, 0.2, 0.1, 0.3]) + 0j, 1e-14)
        kernel = cozine_kernel(0.6, 1.1)
        post, dense = fit(kernel, data), dense_posterior(kernel, data)
        assert post.jitter == 0.0 and isinstance(post._augmented, regression._CoefficientFactor)
        assert post._augmented.fallback and dense._augmented.fallback
        assert schur_P(post) == pytest.approx(schur_P(dense), rel=0.02)
        pred = predict_wl(post, 2.5)
        assert pred.used_fallback and (pred.mean, pred.hermitian_var) == predict_sl(post, 2.5)
        assert math.isnan(complementary_var(post, 2.5).real)
        strict = regression._at_sites(post, False)
        assert all(np.array_equal(a, b) for a, b in zip(regression._at_sites(post, True), strict))

    @pytest.mark.parametrize("noise", [1e-16, 1e-17, 1e-18])
    def test_jittered_dense_route_answers_or_falls_back(self, noise):
        """Real sites with noise far below rounding: ``fit`` adds jitter, and a
        kernel built by hand takes the dense route.  S is formed from the
        jittered K_yy that L11 factors, so it factors (or the fallback fires);
        formed from the unjittered K_yy it failed even after its retry."""
        data = FrequencyDataset(np.array([2.0, 3.0, 5.0, 1.5, 1.2]), np.array([1.0, 0.5, 0.2, 0.1, 0.3]) + 0j, noise)
        cozine = cozine_kernel(0.6, 1.1)
        post = fit(ComplexKernel(cozine.hermitian_eval, cozine.complementary_eval), data)
        assert post.jitter > 0.0 and isinstance(post._augmented, regression._AugmentedFactor)
        pred = predict_wl(post, 2.5)
        assert np.isfinite(pred.mean) and pred.hermitian_var >= 0.0
        assert pred.used_fallback == post._augmented.fallback
        means, variances = regression._at_sites(post, True)
        assert np.all(np.isfinite(means)) and np.all(variances >= 0.0)


class TestNonFiniteQueries:
    """A NaN or infinite query point is refused by the domain check, before
    any solve: the predictors' triangular solves do not scan their inputs."""

    BAD = [complex(math.nan, 0.0), complex(0.0, math.inf), complex(-math.inf, 1.0), complex(math.nan, math.nan)]

    def _posteriors(self):
        _, sites, y = random_instance(np.random.default_rng(55))
        real_sites = FrequencyDataset(np.array([2.0, 3.0, 5.0]), np.array([1.0, 0.5, 0.2]) + 0j, 0.0)
        noisy = fit(geometric_kernel(0.5), FrequencyDataset(sites, y, 0.05))
        fallback = fit(geometric_kernel(0.5), real_sites)
        assert not predict_wl(noisy, 3.0).used_fallback and predict_wl(fallback, 3.0).used_fallback
        return noisy, fallback

    @pytest.mark.parametrize("bad", BAD)
    def test_every_predictor_refuses_the_point(self, bad):
        for post in self._posteriors():
            for predictor in (predict_sl, predict_wl, complementary_var):
                with pytest.raises(ValueError, match="at index 0 is not finite"):
                    predictor(post, bad)
                with pytest.raises(ValueError, match="at index 1 is not finite"):
                    predictor(post, np.array([2.0, bad, 3.0]))
                with pytest.raises(ValueError, match="at index 70 is not finite"):
                    predictor(post, np.append(np.full(70, 2.0 + 1.0j), bad))

    @pytest.mark.parametrize("bad", BAD)
    def test_gram_refuses_the_point(self, bad):
        with pytest.raises(ValueError, match="at index 1 is not finite"):
            gram(geometric_kernel(0.5), [2.0, bad])


class TestLargestEigenvalue:
    """Lanczos against the dense eigensolver, to 1e-12 relative (exactly 0
    for the zero matrix)."""

    @pytest.mark.parametrize("n", [1, 2, 25, 400])
    @pytest.mark.parametrize("spectrum", ["decaying", "clustered", "flat", "rank1", "zero", "roundoff"])
    def test_matches_eigvalsh(self, n, spectrum):
        rng = np.random.default_rng(n)
        mat = _hermitian_with_spectrum(rng, _spectra(n)[spectrum])
        expected = _dense_largest(mat)
        got = regression._largest_eigenvalue(mat)
        if spectrum == "zero":
            assert got == 0.0 == expected
        else:
            assert abs(got - expected) <= 1e-12 * abs(expected)

    def test_structured_matrices(self):
        """Real symmetric matrices with structured eigenvectors.  The
        circulant's top eigenvector alternates in sign, so it is orthogonal
        to the all-ones vector, itself the eigenvector of the smallest
        eigenvalue: started there, Lanczos would stop at once on 0.1.  The
        Toeplitz matrix's eigenvectors are symmetric or antisymmetric."""
        idx = np.arange(60)
        shift = np.roll(np.eye(16), 1, axis=1)
        for mat in (np.eye(16) - 0.45 * (shift + shift.T), 0.8 ** np.abs(idx[:, None] - idx[None, :])):
            expected = _dense_largest(mat)
            assert abs(regression._largest_eigenvalue(mat) - expected) <= 1e-12 * expected

    def test_flat_spectrum_takes_the_capped_fallback(self, monkeypatch):
        rng = np.random.default_rng(3)
        mat = _hermitian_with_spectrum(rng, _spectra(400)["flat"])
        expected = _dense_largest(mat)
        calls = []
        dense = scipy.linalg.eigvalsh

        def counting(*args, **kwargs):
            calls.append(args[0].shape)
            return dense(*args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "eigvalsh", counting)
        assert regression._largest_eigenvalue(mat) == expected
        assert calls == [(400, 400)]

    def test_fallback_threshold_decided_as_by_eigvalsh(self):
        """lambda_max(S) within 1e-9 of 1e-14 lambda_max(A), on both sides:
        the fallback test reads the same from Lanczos as from eigvalsh."""
        rng = np.random.default_rng(11)
        a_mat = _hermitian_with_spectrum(rng, 10.0 * 0.6 ** np.arange(25))
        lam_a = regression._largest_eigenvalue(a_mat)
        assert abs(lam_a - _dense_largest(a_mat)) <= 1e-12 * lam_a
        base = _hermitian_with_spectrum(rng, 0.5 ** np.arange(25))
        for factor in (1.0 - 1e-9, 1.0 + 1e-9):
            s_mat = base * (factor * 1e-14 * _dense_largest(a_mat) / _dense_largest(base))
            lam_s = regression._largest_eigenvalue(s_mat)
            assert abs(lam_s - _dense_largest(s_mat)) <= 1e-12 * lam_s
            assert (lam_s <= 1e-14 * lam_a) == (factor < 1.0)

    def test_wide_shape_takes_no_dense_eigensolve(self, wide_shape, monkeypatch):
        """On the dense route at the identify-wide shape both A and S
        converge, and the impropriety stays within 1e-12 of the dense
        eigensolver's ratio."""
        data, kernel = wide_shape
        post = dense_posterior(kernel, data)
        state = post._augmented
        expected = _dense_largest(state.s_mat) / _dense_largest(post.gram_yy)

        def refuse(*args, **kwargs):
            raise AssertionError("dense eigensolve")

        monkeypatch.setattr(scipy.linalg, "eigvalsh", refuse)
        impropriety = schur_P(dense_posterior(kernel, data))
        assert abs(impropriety - expected) <= 1e-12 * expected


class TestEllipsoid:
    def test_disk_geometry_frozen(self):
        bound = EllipsoidBound(4.0 + 0j, 3.0, (1.0, 7.0), (-0.8480620789814810, 0.8480620789814810))
        assert bound.mag_interval == (1.0, 7.0)
        # half-width = asin(3/4)
        lo, hi = bound.phase_interval
        assert hi == pytest.approx(math.asin(0.75), abs=1e-12)
        assert bound.phase_interval is not None

    def test_posterior_disk(self):
        post = fit(geometric_kernel(0.5), FrequencyDataset(np.array([2.0]), np.array([1.0 + 0j])))
        eta = 2.0
        mean, var = predict_sl(post, 3.0)
        bound = ellipsoid(mean, var, eta)
        assert bound.center == pytest.approx(mean, abs=1e-14)
        assert bound.radius == pytest.approx(eta * math.sqrt(var), abs=1e-14)
        assert bound.mag_interval[0] == pytest.approx(abs(mean) - bound.radius, abs=1e-14)

    def test_origin_in_disk_gives_full_circle(self):
        bound = EllipsoidBound(0.1 + 0j, 0.5, (0.0, 0.6), None)
        assert bound.phase_interval is None

    def test_contains(self):
        """Every point of the disk |w - center| <= radius lies in the
        magnitude interval and, where there is one, in the phase interval;
        a point beyond the radius is outside the disk."""
        for mean, var, eta in ((1.0 + 1.0j, 0.0625, 2.0), (-2.0 + 0.1j, 1.0, 1.0), (0.1 + 0.1j, 1.0, 3.0)):
            bound = ellipsoid(mean, var, eta)
            for angle in np.linspace(0.0, 2.0 * math.pi, 37):
                for scale in (0.0, 0.5, 1.0 - 1e-12):
                    w = bound.center + scale * bound.radius * complex(math.cos(angle), math.sin(angle))
                    assert abs(w - bound.center) <= bound.radius
                    lo, hi = bound.mag_interval
                    assert lo - 1e-12 <= abs(w) <= hi + 1e-12
                    if bound.phase_interval is not None:
                        lo, hi = bound.phase_interval
                        # the interval may leave (-pi, pi]: compare on the branch nearest its centre
                        phase = math.atan2(w.imag, w.real)
                        phase += 2.0 * math.pi * round(((lo + hi) / 2.0 - phase) / (2.0 * math.pi))
                        assert lo - 1e-12 <= phase <= hi + 1e-12
            outside = bound.center + 1.01 * bound.radius
            assert not abs(outside - bound.center) <= bound.radius

    def test_eta_validation(self):
        with pytest.raises(ValueError, match="eta"):
            ellipsoid(1.0 + 0j, 0.25, 0.0)

    def test_negative_eta_rejected(self):
        """A NaN eta is refused like a negative one, not turned into NaN
        intervals."""
        for eta in (-1.0, math.nan):
            with pytest.raises(ValueError, match="eta"):
                ellipsoid(1.0 + 0j, 0.25, eta)

    def test_zero_variance_is_a_point(self):
        bound = ellipsoid(3.0 + 4.0j, 0.0, 3.0)
        assert bound.radius == 0.0
        assert bound.mag_interval == (5.0, 5.0)
        phase = math.atan2(4.0, 3.0)
        assert bound.phase_interval == (phase, phase)
        assert abs(3.0 + 4.0j - bound.center) <= bound.radius

    def test_disk_over_origin_takes_every_phase(self):
        bound = ellipsoid(0.1 + 0.1j, 1.0, 3.0)
        assert bound.phase_interval is None
        assert bound.mag_interval == (0.0, abs(0.1 + 0.1j) + 3.0)
        assert abs(0.0 - bound.center) <= bound.radius

    def test_disk_touching_origin_takes_every_phase(self):
        """radius == |center|: the closed disk holds the origin, so no phase
        interval, and the magnitude interval starts at 0."""
        bound = ellipsoid(3.0 + 4.0j, 25.0, 1.0)
        assert bound.radius == abs(bound.center) == 5.0
        assert bound.phase_interval is None
        assert bound.mag_interval == (0.0, 10.0)

    def test_phase_interval_may_cross_the_branch_cut(self):
        """A disk around a negative real mean is centred on phase pi, so its
        upper endpoint lies above pi."""
        bound = ellipsoid(-2.0 + 0j, 1.0, 1.0)
        lo, hi = bound.phase_interval
        assert (lo, hi) == (math.pi - math.asin(0.5), math.pi + math.asin(0.5))
        assert hi > math.pi

    def test_numpy_scalars_give_the_same_disk(self):
        """Elements of ``predict_sl``'s or ``predict_wl``'s arrays give the
        disk their Python-float values give, bit for bit."""
        mean, var = np.complex128(0.6 - 0.3j), np.float64(0.02)
        assert ellipsoid(mean, var, 3.0) == ellipsoid(complex(mean), float(var), 3.0)

    def test_markov_coverage_on_gaussian_draws(self):
        """|w - c| <= eta sigma holds with frequency well above 1 - 1/eta^2
        when w is complex Gaussian around c with total variance sigma^2."""
        rng = np.random.default_rng(51)
        eta = 3.0
        sigma = 0.7
        draws = sigma / math.sqrt(2.0) * (rng.standard_normal(5000) + 1j * rng.standard_normal(5000))
        inside = np.mean(np.abs(draws) <= eta * sigma)
        assert inside >= 1.0 - 1.0 / eta**2


def one_term_family(a_sq):
    """The stationary_list family with the single coefficient ``a_sq``: k = a_sq."""
    return KernelFamily.from_config({"name": "stationary_list", "params": {"coefficients": [a_sq]}})


class TestLikelihood:
    def test_unit_kernel_zero_observation(self):
        # K = [1], y = 0: L = -1/2 log(2 pi)
        data = FrequencyDataset(np.array([2.0]), np.array([0.0 + 0j]), 0.0)
        val = log_marginal_likelihood(one_term_family(1.0), {}, data)
        assert val == pytest.approx(-0.9189385332046727, abs=1e-12)

    def test_scaled_kernel_frozen_value(self):
        # K = [2], y = sqrt(2): L = -1/2 (1 + log 2 + log 2 pi)
        data = FrequencyDataset(np.array([2.0]), np.array([math.sqrt(2.0) + 0j]), 0.0)
        val = log_marginal_likelihood(one_term_family(2.0), {}, data)
        assert val == pytest.approx(-1.7655121234846454, abs=1e-12)

    def test_failed_factorization_returns_minus_inf(self):
        data = FrequencyDataset(np.array([2.0]), np.array([1.0 + 0j]), 0.0)
        assert log_marginal_likelihood(one_term_family(0.0), {}, data) == -math.inf

    def test_jitter_policy_matches_fit(self):
        """Near-duplicate sites at zero noise: fit's single jitter retry
        succeeds, and the likelihood must use the same factor instead of -inf."""
        base = np.exp(1j * np.linspace(0.0, math.pi, 30))
        sites = np.concatenate([base, base[:5] * np.exp(1e-9j)])
        data = FrequencyDataset(sites, np.cos(3.0 * np.angle(sites)) + 0j, 0.0)
        kernel = geometric_kernel(0.5)
        with pytest.raises(np.linalg.LinAlgError):
            scipy.linalg.cho_factor(gram(kernel, sites), lower=True)
        post = fit(kernel, data)
        quad = float(np.real(np.conj(data.responses) @ post.alpha_vec))
        logdet = 2.0 * float(np.sum(np.log(np.real(np.diag(post.factorization)))))
        expected = -0.5 * (quad + logdet + len(data) * math.log(2.0 * math.pi))
        family = KernelFamily.from_config({"name": "geometric", "params": {"alpha": 0.5}})
        val = log_marginal_likelihood(family, {}, data)
        assert math.isfinite(val)
        assert val == expected

    @pytest.mark.filterwarnings("error")
    def test_overflowing_solve_through_fit_factor_is_minus_inf(self):
        """A subnormal Gram factors, but K_yy^{-1} y overflows: the shared
        formula gives -inf from fit's factor as from the evaluator."""
        family = one_term_family(1e-320)
        data = FrequencyDataset(np.array([2.0]), np.array([1.0 + 0j]), 0.0)
        post = fit(family({}), data)
        assert not np.isfinite(post.alpha_vec).all()
        assert regression._log_likelihood(post.factorization, post.alpha_vec, data.responses) == -math.inf
        assert log_marginal_likelihood(family, {}, data) == -math.inf

    def test_fit_factor_gives_the_evaluator_value(self, wide_shape):
        data, _ = wide_shape
        family = KernelFamily.from_config(TUNED_MIXTURE)
        post = fit(family({}), data)
        value = regression._log_likelihood(post.factorization, post.alpha_vec, data.responses)
        assert value == log_marginal_likelihood(family, {}, data)

    def test_higher_likelihood_for_better_matched_scale(self):
        """y of unit size: the unit-variance kernel should beat a grossly
        misscaled one."""
        data = FrequencyDataset(np.array([2.0]), np.array([0.9 + 0.1j]), 0.0)
        well = log_marginal_likelihood(one_term_family(1.0), {}, data)
        # wildly inflated prior variance wastes probability mass
        badly = log_marginal_likelihood(one_term_family(400.0), {}, data)
        assert well > badly


class TestDomain:
    def test_positive_round_trip(self):
        dom = Domain.positive()
        for x in (1e-6, 1.0, 3000.0):
            assert dom.from_unconstrained(dom.to_unconstrained(x)) == pytest.approx(x, rel=1e-12)

    def test_interval_round_trip(self):
        dom = Domain.interval(0.0, math.pi)
        for x in (0.01, 1.5, 3.1):
            assert dom.from_unconstrained(dom.to_unconstrained(x)) == pytest.approx(x, rel=1e-9)

    def test_clamping_keeps_values_finite_and_legal(self):
        pos = Domain.positive()
        assert math.isfinite(pos.from_unconstrained(1e9))
        assert pos.from_unconstrained(-1e9) > 0.0
        box = Domain.interval(0.0, 1.0)
        assert 0.0 < box.from_unconstrained(1e9) <= 1.0
        assert 0.0 < box.from_unconstrained(-1e9) < 1.0

    @pytest.mark.parametrize(
        "domain", [Domain.positive(), Domain.interval(0.0, math.pi)], ids=["positive", "interval"]
    )
    def test_slope_is_the_maps_derivative(self, domain):
        """Central differences inside the clamp; 0 beyond it, where the map
        is constant."""
        step = 1e-6
        for t in (-8.0, -2.0, 0.0, 0.7, 5.0):
            central = (domain.from_unconstrained(t + step) - domain.from_unconstrained(t - step)) / (2.0 * step)
            assert domain.slope(t) == pytest.approx(central, rel=1e-6, abs=1e-300)
        for t in (domain.limit + 1.0, -domain.limit - 1.0, 1e9):
            assert domain.slope(t) == 0.0

    def test_boundary_values_not_transformable(self):
        with pytest.raises(ValueError):
            Domain.positive().to_unconstrained(0.0)
        with pytest.raises(ValueError):
            Domain.interval(0.0, 1.0).to_unconstrained(1.0)

    def test_empty_interval_rejected(self):
        with pytest.raises(ValueError, match="interval"):
            Domain.interval(2.0, 1.0)


GEOMETRIC = {"name": "geometric", "params": {"alpha": 0.37}}
COZINE = {"name": "cozine", "params": {"a": 0.6, "omega0": 1.1}}
MIXTURE = {
    "name": "mixture",
    "params": {"weight1": 0.3, "weight2": 0.7},
    "component1": GEOMETRIC,
    "component2": COZINE,
}


def geometric_data():
    """Responses drawn from geometric(0.6) at 12 circle sites."""
    rng = np.random.default_rng(52)
    sites = np.exp(1j * np.linspace(0.2, 3.0, 12))
    k = geometric_kernel(0.6)
    chol = np.linalg.cholesky(gram(k, sites) + 1e-10 * np.eye(12))
    y = chol @ (rng.standard_normal(12) + 1j * rng.standard_normal(12)) / math.sqrt(2.0)
    return FrequencyDataset(sites, y, 1e-4)


def _count_evaluations(monkeypatch) -> list:
    """Record every call of the evaluator the tuner calls."""
    calls = []
    evaluate = regression._likelihood

    def counting(*args):
        calls.append(args)
        return evaluate(*args)

    monkeypatch.setattr(regression, "_likelihood", counting)
    return calls


class TestOptimizer:
    def _family(self, alpha):
        return KernelFamily.from_config({"name": "geometric", "params": {"alpha": alpha}}, ["alpha"])

    def test_budget_one_returns_init(self):
        family, data = self._family(0.37), geometric_data()
        values, score = optimize_hyperparameters(family, data, budget=1, seed=0)
        assert values["alpha"] == pytest.approx(0.37, abs=1e-12)
        assert score == pytest.approx(log_marginal_likelihood(family, {"alpha": 0.37}, data), abs=1e-12)

    def test_never_worse_than_init(self):
        family, data = self._family(0.1), geometric_data()
        values, score = optimize_hyperparameters(family, data, budget=300, seed=3)
        assert score >= log_marginal_likelihood(family, {}, data) - 1e-12
        assert 0.0 < values["alpha"] < 1.0

    def test_respects_budget(self, monkeypatch):
        calls = _count_evaluations(monkeypatch)
        optimize_hyperparameters(self._family(0.3), geometric_data(), budget=50, seed=1)
        assert 0 < len(calls) <= 50

    @pytest.mark.parametrize("budget", [2, 6, 11])
    def test_small_budget_is_spent_exactly(self, monkeypatch, budget):
        """The starting point, then five starts with (budget - 1) // 5
        evaluations each: fewer than a start of the five-path mixture
        needs, so each start spends its share to the last evaluation and no
        further."""
        calls = _count_evaluations(monkeypatch)
        family = KernelFamily.from_config(MIXTURE, TUNED_PATHS[-1][1])
        optimize_hyperparameters(family, geometric_data(), budget=budget, seed=1)
        assert len(calls) == budget

    def test_best_score_is_the_fit_likelihood(self):
        """The tuner's best score is, bit for bit, the likelihood that
        ``fit``'s factor gives at the tuned values, which is what
        ``identify`` reports on every run."""
        data = geometric_data()
        for family in (self._family(0.25), KernelFamily.from_config(MIXTURE, TUNED_PATHS[-1][1])):
            values, score = optimize_hyperparameters(family, data, budget=60, seed=4)
            post = fit(family(values), data)
            assert score == regression._log_likelihood(post.factorization, post.alpha_vec, data.responses)

    @pytest.mark.parametrize("peak_angle", [None, 0.0, math.pi], ids=["inside", "at-0", "at-pi"])
    def test_last_start_at_the_response_peak(self, monkeypatch, peak_angle):
        """With a tunable omega0, the fifth start is the record's start with
        omega0 at the angle of the largest |response|; the others keep their
        draws.  A peak at angle 0 or pi, which omega0's domain cannot map,
        and a family without omega0 keep the fourth jittered start."""
        import scipy.optimize

        starts = []
        minimize = scipy.optimize.minimize

        def recording(fun, x0, **kwargs):
            starts.append(np.array(x0))
            return minimize(fun, x0, **kwargs)

        monkeypatch.setattr(scipy.optimize, "minimize", recording)
        drawn = geometric_data()
        sites, responses = drawn.sites.copy(), drawn.responses.copy()
        if peak_angle is not None:
            sites[0] = np.exp(1j * peak_angle)
            responses[0] = 10.0 * np.max(np.abs(responses))
        data = FrequencyDataset(sites, responses, drawn.noise_var)
        peak = int(np.argmax(np.abs(responses)))
        for tunable in (("weight1", "component2.omega0"), ("weight1", "component2.a")):
            starts.clear()
            family = KernelFamily.from_config(MIXTURE, tunable)
            optimize_hyperparameters(family, data, budget=5 * 40 + 1, seed=3)
            start = family.unconstrained_start()
            rng = np.random.Generator(np.random.Philox(key=3))
            jittered = [start + rng.standard_normal(start.size) for _ in range(4)]
            assert len(starts) == 5
            for got, want in zip(starts[:4], [start] + jittered[:3]):
                np.testing.assert_array_equal(got, want)
            if tunable[-1].endswith("omega0") and peak_angle is None:
                omega0 = family.domains["component2.omega0"].to_unconstrained(float(np.angle(sites[peak])))
                np.testing.assert_array_equal(starts[4], [start[0], omega0])
            else:
                np.testing.assert_array_equal(starts[4], jittered[3])

    def test_deterministic_given_seed(self):
        out1 = optimize_hyperparameters(self._family(0.25), geometric_data(), budget=120, seed=9)
        out2 = optimize_hyperparameters(self._family(0.25), geometric_data(), budget=120, seed=9)
        assert out1 == out2

    def test_boundary_start_names_path(self):
        record = {"name": "cozine", "params": {"a": 0.6, "omega0": 0.0}}
        family = KernelFamily.from_config(record, ["omega0"])
        with pytest.raises(ValueError, match="'omega0'"):
            optimize_hyperparameters(family, geometric_data(), budget=10, seed=0)

    def test_all_minus_inf_raises(self):
        zero = {"name": "stationary_list", "params": {"coefficients": [0.0]}}
        record = {"name": "mixture", "params": {"weight1": 0.5}, "component1": zero, "component2": zero}
        family = KernelFamily.from_config(record, ["weight1"])
        data = FrequencyDataset(np.array([2.0]), np.array([1.0 + 0j]), 0.0)
        with pytest.raises(RuntimeError, match="-inf"):
            optimize_hyperparameters(family, data, budget=30, seed=0)

    def test_budget_validation(self):
        with pytest.raises(ValueError, match="budget"):
            optimize_hyperparameters(self._family(0.5), geometric_data(), budget=0)

    def test_family_without_tunable_rejected(self):
        family = KernelFamily.from_config({"name": "exponential"})
        with pytest.raises(ValueError, match="tunable"):
            optimize_hyperparameters(family, geometric_data(), budget=10)


# Every tunable leaf, on each record where it lives, alone; and the
# mixture's five together.
TUNED_PATHS = [
    (GEOMETRIC, ("alpha",)),
    (COZINE, ("a",)),
    (COZINE, ("omega0",)),
    (MIXTURE, ("weight1",)),
    (MIXTURE, ("weight2",)),
    (MIXTURE, ("component1.alpha",)),
    (MIXTURE, ("component2.a",)),
    (MIXTURE, ("component2.omega0",)),
    (MIXTURE, ("weight1", "weight2", "component1.alpha", "component2.a", "component2.omega0")),
]


@pytest.mark.parametrize("record, tunable", TUNED_PATHS, ids=lambda v: v["name"] if isinstance(v, dict) else "+".join(v))
class TestDomainTable:
    """The optimizer reads each path's range and start from the family."""

    def test_budget_one_evaluates_the_record(self, record, tunable):
        family, data = KernelFamily.from_config(record, tunable), geometric_data()
        values, score = optimize_hyperparameters(family, data, budget=1)
        assert list(values) == list(tunable)
        for path in tunable:
            assert values[path] == pytest.approx(family.record_value(path), rel=1e-12)
        assert score == log_marginal_likelihood(family, values, data)

    def test_tuned_values_stay_in_their_domains(self, record, tunable):
        family = KernelFamily.from_config(record, tunable)
        values, _ = optimize_hyperparameters(family, geometric_data(), budget=50, seed=5)
        for path in tunable:
            domain = family.domains[path]
            assert domain.lo <= values[path] <= domain.hi if domain.kind == "interval" else values[path] >= 0.0, path

    @pytest.mark.parametrize("base", [-1.0, 0.5, 2.0])
    def test_gradient_matches_central_differences(self, record, tunable, base):
        """The evaluator's gradient, chained through the domains' maps, is
        the derivative of its value in the tuner's coordinates; its Gram is
        the one ``gram`` assembles and its value the likelihood, both exactly.  Noise
        1e-2 keeps K_yy well conditioned, so the differences' rounding stays
        near 1e-7 of the gradient's largest entry."""
        family = KernelFamily.from_config(record, tunable)
        drawn = geometric_data()
        data = FrequencyDataset(drawn.sites, drawn.responses, 1e-2)
        gram_with_derivatives = family.bind(data.sites, data.noise_var)
        domains = [family.domains[path] for path in tunable]

        def values_at(t):
            return {path: d.from_unconstrained(x) for path, d, x in zip(tunable, domains, t)}

        t = base + 0.37 * np.arange(len(tunable))
        values = values_at(t)
        gram_yy, derivatives = gram_with_derivatives(values)
        assert np.array_equal(gram_yy, gram(family(values), data.sites, "hermitian", data.noise_var))
        assert len(derivatives) == len(tunable)
        score, gradient = regression._likelihood(gram_with_derivatives, values, data)
        assert score == log_marginal_likelihood(family, values, data)
        analytic = gradient * [d.slope(x) for d, x in zip(domains, t)]
        step = 1e-5
        central = []
        for i in range(len(tunable)):
            shift = step * np.eye(len(tunable))[i]
            up = regression._likelihood(gram_with_derivatives, values_at(t + shift), data)[0]
            down = regression._likelihood(gram_with_derivatives, values_at(t - shift), data)[0]
            central.append((up - down) / (2.0 * step))
        np.testing.assert_allclose(central, analytic, rtol=0, atol=1e-5 * np.max(np.abs(analytic)))

    @pytest.mark.parametrize("t", [-1e3, 0.0, 1e3])  # +-1e3: the transforms' clamps
    def test_search_space_passes_the_kernel_checks(self, record, tunable, t):
        """Every point the transforms reach is a valid kernel, so the table
        and the family's parameter checks agree."""
        family = KernelFamily.from_config(record, tunable)
        values = {path: family.domains[path].from_unconstrained(t) for path in tunable}
        family(values)
