"""Property tests over random inputs for the paper's invariants: PSD Grams on
the exterior disk, conjugate symmetry of the variance, the widely linear
variance never exceeding the strictly linear one, batch predictions equal to
scalar ones, the |z| >= 1 domain, exact interpolation at zero noise, the
posterior at the data sites read from the factors, and the Markov coverage
bound of the confidence disks."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hinfgp.kernels import KernelFamily, exponential_kernel, from_config, geometric_kernel, gram
from hinfgp import regression
from hinfgp.regression import (
    FrequencyDataset, _at_sites, complementary_var, fit, predict_sl, predict_wl, schur_P,
)
from hinfgp.sampling import sample_cozine_batch, sample_stationary_batch

PROPERTY_SETTINGS = settings(derandomize=True, deadline=None, max_examples=25)


@st.composite
def exterior_points(draw, min_size=1, max_size=12):
    """Points z = r e^{jt} with 1 <= r <= 3: the closed exterior disk near the circle."""
    count = draw(st.integers(min_size, max_size))
    radii = draw(st.lists(st.floats(1.0, 3.0), min_size=count, max_size=count))
    angles = draw(st.lists(st.floats(-math.pi, math.pi), min_size=count, max_size=count))
    return np.asarray(radii) * np.exp(1j * np.asarray(angles))


alphas = st.floats(0.05, 0.95)


@st.composite
def conjugate_symmetric_kernels(draw):
    """The built-in families with real impulse responses (no circular variant)."""
    family = draw(st.sampled_from(["geometric", "exponential", "cozine", "mixture"]))
    if family == "geometric":
        return geometric_kernel(draw(alphas))
    if family == "exponential":
        return exponential_kernel()
    a, omega0 = draw(st.floats(0.05, 0.95)), draw(st.floats(0.0, math.pi))
    cozine = {"name": "cozine", "params": {"a": a, "omega0": omega0}}
    if family == "cozine":
        return from_config(cozine)
    weights = st.floats(0.0, 2.0)
    geometric = {"name": "geometric", "params": {"alpha": draw(alphas)}}
    params = {"weight1": draw(weights), "weight2": draw(weights)}
    return from_config({"name": "mixture", "params": params, "component1": geometric, "component2": cozine})


@st.composite
def stationary_lists(draw):
    """A ``stationary_list`` kernel of one to four coefficients a_n^2."""
    coefficients = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4))
    return from_config({"name": "stationary_list", "params": {"coefficients": coefficients}})


# every family a run can identify with: the widely linear state of those with
# fewer terms than sites (cozine, short lists) is built in coefficient space
identify_kernels = st.one_of(conjugate_symmetric_kernels(), stationary_lists())


@st.composite
def noisy_posteriors(draw):
    """A posterior on up to 8 exterior sites with proper noise, under any
    prior ``identify`` accepts, so that both widely linear routes are drawn."""
    sites = draw(exterior_points(max_size=8))
    parts = draw(st.lists(st.floats(-2.0, 2.0), min_size=2 * sites.size, max_size=2 * sites.size))
    responses = np.asarray(parts[::2]) + 1j * np.asarray(parts[1::2])
    noise_var = draw(st.floats(0.01, 0.5))
    return fit(draw(identify_kernels), FrequencyDataset(sites, responses, noise_var))


@PROPERTY_SETTINGS
@given(alpha=alphas, pts=exterior_points())
def test_geometric_gram_is_hermitian_psd(alpha, pts):
    mat = gram(geometric_kernel(alpha), pts)
    trace = float(np.real(np.trace(mat)))
    np.testing.assert_allclose(mat, mat.conj().T, rtol=0.0, atol=1e-14 * trace)
    assert np.linalg.eigvalsh(mat).min() >= -1e-10 * trace


@PROPERTY_SETTINGS
@given(kernel=conjugate_symmetric_kernels(), pts=exterior_points())
def test_variance_is_conjugate_symmetric(kernel, pts):
    direct = np.asarray(kernel.hermitian_eval(pts, pts))
    mirrored = np.asarray(kernel.hermitian_eval(np.conj(pts), np.conj(pts)))
    np.testing.assert_allclose(mirrored, direct, rtol=1e-12, atol=1e-12)


@PROPERTY_SETTINGS
@given(kernel=identify_kernels, pts=exterior_points())
def test_terms_reproduce_both_covariances(kernel, pts):
    """A family's terms give k = Psi Psi^H and kt = Psi Psi^T at exterior
    points, within their tail bound plus rounding (1e-12 of the largest
    prior variance, which bounds |k| and |kt| there)."""
    terms = kernel._terms
    assume(terms is not None)  # a geometric alpha above about 0.93 keeps none
    psi = terms.psi(pts)
    z, w = pts[:, None], pts[None, :]
    scale = max(1.0, float(np.max(np.real(kernel.hermitian_eval(pts, pts)))))
    tol = terms.tail + 1e-12 * scale
    assert np.max(np.abs(psi @ psi.conj().T - kernel.hermitian_eval(z, w))) <= tol
    assert np.max(np.abs(psi @ psi.T - kernel.complementary_eval(z, w))) <= tol


@PROPERTY_SETTINGS
@given(post=noisy_posteriors(), queries=exterior_points(max_size=10))
def test_coefficient_route_matches_the_dense_route(post, queries):
    """Where the widely linear state is built in coefficient space, it
    agrees with the dense factor of Gamma within the stated tolerances, at
    the queries and at the data sites: means within 1e-10 of the largest
    |mean|, Hermitian variances within 1e-8 relative, complementary
    variances within 1e-8 of the largest, impropriety within 1e-11
    relative.  Each adds a rounding floor of 1e-14 of the problem's scale
    (max(1, |y|) for the means; the largest prior variance plus the noise
    for the variances), which binds only where a figure is itself at
    rounding level: a zero prior or zero data, where the coefficient route
    gives an exact 0 and the dense one eps-sized residues."""
    assume(isinstance(post._augmented, regression._CoefficientFactor))
    dense = fit(post.kernel, post.dataset)
    dense.__dict__["_augmented"] = regression._dense_state(dense)
    data = post.dataset
    points = np.concatenate([data.sites, queries])
    mean_floor = 1e-14 * max(1.0, float(np.max(np.abs(data.responses))))
    var_floor = 1e-14 * (float(np.max(np.real(post.kernel.hermitian_eval(points, points)))) + data.noise_var)
    got, want = predict_wl(post, queries), predict_wl(dense, queries)
    assert got.used_fallback == want.used_fallback is False
    for (mean, var), (mean_d, var_d) in (
        ((got.mean, got.hermitian_var), (want.mean, want.hermitian_var)),
        (_at_sites(post, True), _at_sites(dense, True)),
    ):
        assert np.max(np.abs(mean - mean_d)) <= 1e-10 * np.max(np.abs(mean_d)) + mean_floor
        assert np.all(np.abs(var - var_d) <= 1e-8 * var_d + var_floor)
    comp, comp_d = complementary_var(post, queries), complementary_var(dense, queries)
    assert np.max(np.abs(comp - comp_d)) <= 1e-8 * np.max(np.abs(comp_d)) + var_floor
    assert abs(schur_P(post) - schur_P(dense)) <= 1e-11 * schur_P(dense)


@PROPERTY_SETTINGS
@given(post=noisy_posteriors(), queries=exterior_points(max_size=10))
def test_widely_linear_variance_below_strictly_linear(post, queries):
    _, var_sl = predict_sl(post, queries)
    wl = predict_wl(post, queries)
    assert np.all(wl.hermitian_var <= var_sl + 1e-10)


@PROPERTY_SETTINGS
@given(post=noisy_posteriors(), queries=exterior_points(max_size=10))
def test_array_widely_linear_matches_scalar_calls(post, queries):
    """An array of queries gives what one call per point gives, to 1e-12,
    for ``predict_wl``, ``complementary_var`` and ``predict_sl``."""
    means, variances = predict_sl(post, queries)
    for i, z in enumerate(queries):
        mean, var = predict_sl(post, complex(z))
        assert abs(means[i] - mean) <= 1e-12
        assert abs(variances[i] - var) <= 1e-12
    batch = predict_wl(post, queries)
    comps = complementary_var(post, queries)
    for i, z in enumerate(queries):
        single = predict_wl(post, complex(z))
        assert single.used_fallback == batch.used_fallback
        assert abs(batch.mean[i] - single.mean) <= 1e-12
        assert abs(batch.hermitian_var[i] - single.hermitian_var) <= 1e-12
        if not batch.used_fallback:
            assert abs(comps[i] - complementary_var(post, complex(z))) <= 1e-12


@PROPERTY_SETTINGS
@given(
    post=noisy_posteriors(),
    pts=exterior_points(max_size=6),
    inner=st.floats(0.0, 0.999),
    angle=st.floats(-math.pi, math.pi),
    slot=st.integers(0, 6),
)
def test_interior_points_raise(post, pts, inner, angle, slot):
    """One point with |z| < 1 among exterior ones is rejected by Gram assembly
    and by both predictors."""
    pts = np.insert(pts, min(slot, pts.size), inner * np.exp(1j * angle))
    with pytest.raises(ValueError, match=f"at index {min(slot, pts.size - 1)} lies outside the kernel domain"):
        gram(post.kernel, pts)
    with pytest.raises(ValueError, match=f"at index {min(slot, pts.size - 1)} lies outside the kernel domain"):
        predict_sl(post, pts)
    with pytest.raises(ValueError, match=f"at index {min(slot, pts.size - 1)} lies outside the kernel domain"):
        predict_wl(post, pts)


@st.composite
def separated_points(draw, max_size=6, min_gap=0.3):
    """Exterior points at least ``min_gap`` apart, so zero-noise Grams stay invertible."""
    pts = draw(exterior_points(max_size=max_size))
    gaps = np.abs(pts[:, None] - pts[None, :]) + np.eye(pts.size) * min_gap
    assume(gaps.min() >= min_gap)
    return pts


@PROPERTY_SETTINGS
@given(alpha=st.floats(0.3, 0.95), sites=separated_points(), data=st.data())
def test_zero_noise_posterior_interpolates(alpha, sites, data):
    """At zero noise the posterior mean reproduces every observation and the
    variance vanishes at the sites, up to rounding amplified by cond(K):
    100 cond(K) eps, relative to max(1, |y|) and to k(z, z)."""
    parts = data.draw(st.lists(st.floats(-2.0, 2.0), min_size=2 * sites.size, max_size=2 * sites.size))
    responses = np.asarray(parts[::2]) + 1j * np.asarray(parts[1::2])
    kernel = geometric_kernel(alpha)
    post = fit(kernel, FrequencyDataset(sites, responses, 0.0))
    tol = 100.0 * np.linalg.cond(post.gram_yy) * np.finfo(float).eps
    means, variances = predict_sl(post, sites)
    assert np.max(np.abs(means - responses)) <= tol * max(1.0, np.max(np.abs(responses)))
    assert np.all(variances <= tol * np.real(kernel.hermitian_eval(sites, sites)))


@PROPERTY_SETTINGS
@given(alpha=st.floats(0.3, 0.95), sites=separated_points(), data=st.data())
def test_site_posterior_interpolates_exactly_at_zero_noise(alpha, sites, data):
    """At zero noise, where ``fit`` took no jitter, the posterior read at the
    data sites has mean == y and variance == 0 exactly, on both estimators:
    the shift s = sigma_e^2 + jitter is 0, so the formulas leave y untouched."""
    parts = data.draw(st.lists(st.floats(-2.0, 2.0), min_size=2 * sites.size, max_size=2 * sites.size))
    responses = np.asarray(parts[::2]) + 1j * np.asarray(parts[1::2])
    post = fit(geometric_kernel(alpha), FrequencyDataset(sites, responses, 0.0))
    assume(post.jitter == 0.0)
    for wide in (False, True):
        means, variances = _at_sites(post, wide)
        assert np.array_equal(means, responses)
        assert np.all(variances == 0.0)


@PROPERTY_SETTINGS
@given(post=noisy_posteriors())
def test_site_posterior_matches_the_predictors(post):
    """The posterior read at the data sites from the factors equals
    ``predict_sl``'s and ``predict_wl``'s there, within 100 cond eps:
    relative to max(1, max |y|) for the means and to the larger of the
    largest prior variance k(z_i, z_i) and the noise s for the variances,
    with the condition number of the matrix each estimator solves with
    (K_yy, or Gamma for the widely linear one).  Both sides subtract nearly
    equal numbers (y - s b against x^H c, s - s^2 d against k - ||x||^2), so
    the rounding they differ by grows with it: a real site with y = j gives
    a widely linear mean of 0 from |y| = 1, and a zero prior a variance of
    eps s from s - s^2 d."""
    sites, responses = post.dataset.sites, post.dataset.responses
    comp = gram(post.kernel, sites, "complementary")
    gamma = np.block([[post.gram_yy, comp], [comp.conj().T, post.gram_yy.conj()]])
    mean_scale = max(1.0, float(np.max(np.abs(responses))))
    var_scale = max(float(np.max(np.real(post.kernel.hermitian_eval(sites, sites)))), post.dataset.noise_var)
    sl_means, sl_vars = predict_sl(post, sites)
    wl = predict_wl(post, sites)
    for wide, solved, means, variances in (
        (False, post.gram_yy, sl_means, sl_vars),
        (True, gamma, wl.mean, wl.hermitian_var),
    ):
        tol = 100.0 * np.linalg.cond(solved) * np.finfo(float).eps
        got_means, got_vars = _at_sites(post, wide)
        assert np.max(np.abs(got_means - means)) <= tol * mean_scale
        assert np.max(np.abs(got_vars - variances)) <= tol * var_scale


MARKOV_PATHS = 400


@PROPERTY_SETTINGS
@given(
    family=st.sampled_from(["geometric", "cozine"]),
    a=st.floats(0.05, 0.95),
    omega0=st.floats(0.0, math.pi),
    z=exterior_points(max_size=1),
    eta=st.floats(1.5, 4.0),
    seed=st.integers(0, 2**31 - 1),
)
def test_prior_paths_obey_markov_coverage(family, a, omega0, z, eta, seed):
    """Prior paths from the batch samplers fall in the disk |f(z)| <= eta sqrt(k(z, z))
    at a rate of at least 1 - 1/eta^2 (Markov), less a binomial slack of four
    standard deviations of the miss rate at that bound over MARKOV_PATHS paths."""
    z = complex(z[0])
    if family == "geometric":
        prior = KernelFamily.from_config({"name": "geometric", "params": {"alpha": a}})
        coeffs = sample_stationary_batch(prior, 200, seed, MARKOV_PATHS)
    else:
        prior = KernelFamily.from_config({"name": "cozine", "params": {"a": a, "omega0": omega0}})
        coeffs = sample_cozine_batch(prior, seed, MARKOV_PATHS)
    kernel = prior({})
    values = coeffs @ z ** -np.arange(coeffs.shape[1])
    sigma = math.sqrt(float(np.real(kernel.hermitian_eval(z, z))))
    miss_bound = 1.0 / eta**2
    slack = 4.0 * math.sqrt(miss_bound * (1.0 - miss_bound) / MARKOV_PATHS)
    coverage = float(np.mean(np.abs(values) <= eta * sigma))
    assert coverage >= 1.0 - miss_bound - slack
