"""Property tests over random inputs for the paper's invariants: PSD Grams on
the exterior disk, conjugate symmetry of the variance, the widely linear
variance never exceeding the strictly linear one, and batch predictions
equal to scalar ones."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from hinfgp.kernels import (
    CozineParams,
    cozine_kernel,
    exponential_kernel,
    geometric_kernel,
    gram,
    mixture_kernel,
)
from hinfgp.regression import FrequencyDataset, fit, predict_sl_many, predict_wl

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
    cozine = cozine_kernel(CozineParams(draw(st.floats(0.05, 0.95)), draw(st.floats(0.0, math.pi))))
    if family == "cozine":
        return cozine
    weights = st.floats(0.0, 2.0)
    return mixture_kernel(geometric_kernel(draw(alphas)), draw(weights), cozine, draw(weights))


@st.composite
def noisy_posteriors(draw):
    """A geometric-prior posterior on up to 8 exterior sites with proper noise."""
    sites = draw(exterior_points(max_size=8))
    parts = draw(st.lists(st.floats(-2.0, 2.0), min_size=2 * sites.size, max_size=2 * sites.size))
    responses = np.asarray(parts[::2]) + 1j * np.asarray(parts[1::2])
    noise_var = draw(st.floats(0.01, 0.5))
    return fit(geometric_kernel(draw(alphas)), FrequencyDataset(sites, responses, noise_var))


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
@given(post=noisy_posteriors(), queries=exterior_points(max_size=10))
def test_widely_linear_variance_below_strictly_linear(post, queries):
    _, var_sl = predict_sl_many(post, queries)
    wl = predict_wl(post, queries)
    assert np.all(wl.hermitian_var <= var_sl + 1e-10)


@PROPERTY_SETTINGS
@given(post=noisy_posteriors(), queries=exterior_points(max_size=10))
def test_array_widely_linear_matches_scalar_calls(post, queries):
    batch = predict_wl(post, queries)
    for i, z in enumerate(queries):
        single = predict_wl(post, complex(z))
        assert single.used_fallback == batch.used_fallback
        assert abs(batch.mean[i] - single.mean) <= 1e-12
        assert abs(batch.hermitian_var[i] - single.hermitian_var) <= 1e-12
        if not batch.used_fallback:
            assert abs(batch.complementary_var[i] - single.complementary_var) <= 1e-12
