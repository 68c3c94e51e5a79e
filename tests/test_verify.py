"""Symmetry, membership-probe, and continuity tests for the verification module."""

import math

import numpy as np
import pytest
import scipy.linalg

from hinfgp.kernels import (
    ComplexKernel,
    CozineParams,
    cozine_kernel,
    exponential_kernel,
    geometric_kernel,
    mixture_kernel,
    real_imag_kernels,
)
from hinfgp.verify import (
    _real_gram,
    continuity_probe,
    continuity_search,
    dense_spiral,
    driscoll_test,
    h2_kernel,
    symmetry_test,
)


def circular_variant(kernel):
    """Break conjugate symmetry by zeroing the complementary covariance."""
    return ComplexKernel(kernel.hermitian_eval, lambda z, w: 0.0 * np.multiply(z, w))


class TestH2Kernel:
    def test_value(self):
        assert complex(h2_kernel(2.0, 2.0)) == pytest.approx(4.0 / 3.0, abs=1e-15)

    def test_singularity_rejected(self):
        with pytest.raises(ValueError, match="singular"):
            h2_kernel(1.0, 1.0)

    def test_reproducing_against_geometric(self):
        # zw*/(zw* - 1) is the alpha -> 1 limit of the geometric family
        z, w = 1.7 * np.exp(0.8j), 2.4 * np.exp(-0.3j)
        near_one = geometric_kernel(1.0 - 1e-9)
        assert complex(h2_kernel(z, w)) == pytest.approx(
            complex(near_one.hermitian_eval(z, w)), rel=1e-6
        )


class TestDenseSpiral:
    def test_count_and_annulus(self):
        pts = dense_spiral(150, 1.05, 3.0)
        assert pts.shape == (150,)
        radii = np.abs(pts)
        assert radii.min() > 1.05 - 1e-12
        assert radii.max() <= 3.0 + 1e-12

    def test_points_distinct(self):
        pts = dense_spiral(300)
        assert np.unique(np.round(pts, 12)).size == 300

    def test_deterministic(self):
        np.testing.assert_array_equal(dense_spiral(50), dense_spiral(50))


class TestDriscoll:
    def test_h2_against_itself_traces_equal_n(self):
        """trace(R_n^{-1} R_n) = n; the factorized route must reproduce it."""
        report = driscoll_test(h2_kernel, n_max=200)
        for n, tr in zip(report.n_values, report.traces):
            assert abs(tr - n) <= 1e-8 * n
        assert report.verdict == "diverging"
        assert report.growth_slope == pytest.approx(1.0, abs=1e-6)

    def test_geometric_converges(self):
        k_r, k_i = real_imag_kernels(geometric_kernel(0.5))
        for part in (k_r, k_i):
            report = driscoll_test(part, n_max=200)
            assert report.verdict == "converging"
            assert max(report.traces) < 10.0

    def test_exponential_converges(self):
        k_r, _ = real_imag_kernels(exponential_kernel())
        assert driscoll_test(k_r, n_max=100).verdict == "converging"

    def test_slow_drift_is_inconclusive(self):
        # a small h2 admixture drifts too slowly for "diverging" but is not Cauchy
        geo = geometric_kernel(0.5)

        def drifting(z, w):
            return np.real(geo.hermitian_eval(z, w)) + 0.004 * np.real(h2_kernel(z, w))

        report = driscoll_test(drifting, n_max=200)
        assert report.verdict == "inconclusive"

    def test_n_max_validation(self):
        with pytest.raises(ValueError, match="n_max"):
            driscoll_test(h2_kernel, n_max=5)

    def test_explicit_points_must_cover_n_max(self):
        with pytest.raises(ValueError, match="points"):
            driscoll_test(h2_kernel, n_max=50, points=dense_spiral(20))

    def test_points_inside_circle_rejected(self):
        pts = np.linspace(0.5, 5.0, 60) * np.exp(1j * 0.3)
        with pytest.raises(ValueError, match="outside"):
            driscoll_test(h2_kernel, n_max=50, points=pts)

    def test_duplicate_points_rejected(self):
        pts = dense_spiral(60)
        pts[30] = pts[5]
        with pytest.raises(ValueError, match="duplicate"):
            driscoll_test(h2_kernel, n_max=40, points=pts)
        # a repeat past n_max is never used
        assert driscoll_test(h2_kernel, n_max=30, points=pts).traces[-1] == pytest.approx(30.0)

    def test_report_record_roundtrip(self):
        record = driscoll_test(h2_kernel, n_max=20).to_record()
        assert record["verdict"] == "diverging"
        assert len(record["n_values"]) == len(record["traces"]) == 2


def per_prefix_traces(k_real, pts, n_max):
    """Reference Driscoll traces: both Grams rebuilt from scratch for every prefix."""
    traces = []
    for n in range(10, n_max + 1, 10):
        r_gram = _real_gram(h2_kernel, pts[:n])
        k_gram = _real_gram(k_real, pts[:n])
        try:
            chol = scipy.linalg.cholesky(r_gram, lower=True)
        except np.linalg.LinAlgError:
            jitter = 1e-12 * np.trace(r_gram) / n
            chol = scipy.linalg.cholesky(r_gram + jitter * np.eye(n), lower=True)
        half = scipy.linalg.solve_triangular(chol, k_gram, lower=True)
        congruent = scipy.linalg.solve_triangular(chol, half.T, lower=True)
        traces.append(float(np.trace(congruent)))
    return tuple(traces)


def _candidate_parts():
    geo = geometric_kernel(0.5)
    cozine = cozine_kernel(CozineParams(0.9, 0.2 * math.pi))
    kernels = {
        "geometric": geo,
        "cozine": cozine,
        "mixture": mixture_kernel(geo, 1.0, cozine, 1.0),
        "circular": circular_variant(geo),
    }
    parts = {"h2": h2_kernel}
    for name, kernel in kernels.items():
        parts[f"{name}-real"], parts[f"{name}-imag"] = real_imag_kernels(kernel)
    return parts


CANDIDATE_PARTS = _candidate_parts()


class TestDriscollGramViews:
    """Prefix views of the n_max Grams must give exactly the per-prefix traces."""

    @pytest.mark.parametrize("n_max", [120, 230])
    @pytest.mark.parametrize("name", sorted(CANDIDATE_PARTS))
    def test_traces_bit_identical(self, name, n_max):
        k_real = CANDIDATE_PARTS[name]
        report = driscoll_test(k_real, n_max=n_max)
        assert report.traces == per_prefix_traces(k_real, dense_spiral(n_max), n_max)

    def test_points_longer_than_n_max(self):
        pts = dense_spiral(300, 1.1, 2.5)
        k_real = CANDIDATE_PARTS["mixture-real"]
        report = driscoll_test(k_real, n_max=150, points=pts)
        assert report.n_values[-1] == 150
        assert report.traces == per_prefix_traces(k_real, pts, 150)


class TestSymmetry:
    @pytest.mark.parametrize(
        "kernel",
        [
            geometric_kernel(0.3),
            geometric_kernel(0.7),
            exponential_kernel(),
            cozine_kernel(CozineParams(0.5, math.pi / 2.0)),
            cozine_kernel(CozineParams(0.9, 0.4)),
            mixture_kernel(
                geometric_kernel(0.5), 1.0, cozine_kernel(CozineParams(0.6, 2.0)), 0.5
            ),
        ],
        ids=["geo03", "geo07", "exp", "cozine-res", "cozine-slow", "mixture"],
    )
    def test_builtin_kernels_pass(self, kernel):
        report = symmetry_test(kernel, dense_spiral(200, 1.1, 3.0))
        assert report.max_err_diag < 1e-10
        assert report.max_err_cross < 1e-10

    def test_circular_counterexample_fails(self):
        report = symmetry_test(circular_variant(geometric_kernel(0.5)), dense_spiral(200, 1.1, 3.0))
        assert report.max_err_cross > 1e-2  # kt = 0 cannot equal k(z,z) > 0

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            symmetry_test(geometric_kernel(0.5), [])

    def test_record_reports_grid_size(self):
        record = symmetry_test(geometric_kernel(0.5), dense_spiral(30)).to_record()
        assert record["grid_size"] == 30


class TestContinuity:
    def _pairs(self):
        gaps = np.geomspace(1e-8, 0.5, 40)
        return [(0.3, 0.3 + g) for g in gaps]

    def test_geometric_satisfies_some_bound(self):
        k_r, _ = real_imag_kernels(geometric_kernel(0.5))
        reports = continuity_search(k_r, self._pairs())
        assert any(r.passed for r in reports)

    def test_probe_fails_for_tiny_constant(self):
        k_r, _ = real_imag_kernels(geometric_kernel(0.5))
        report = continuity_probe(k_r, self._pairs(), C=1e-9, alpha=2.0)
        assert not report.passed
        assert report.worst_margin < 0.0

    def test_degenerate_pair_rejected(self):
        k_r, _ = real_imag_kernels(geometric_kernel(0.5))
        with pytest.raises(ValueError, match="degenerate"):
            continuity_probe(k_r, [(0.3, 0.3)], C=1.0, alpha=1.0)

    def test_wide_pair_rejected(self):
        k_r, _ = real_imag_kernels(geometric_kernel(0.5))
        with pytest.raises(ValueError, match="theta"):
            continuity_probe(k_r, [(0.0, 1.5)], C=1.0, alpha=1.0)

    def test_empty_pairs_rejected(self):
        k_r, _ = real_imag_kernels(geometric_kernel(0.5))
        with pytest.raises(ValueError, match="nonempty"):
            continuity_probe(k_r, [], C=1.0, alpha=1.0)
