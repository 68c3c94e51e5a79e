"""Draw realizations of the stationary-sequence and cozine process families.

Every sampled path is a row of real impulse-response coefficients h(n), so
f(z) = sum_n h(n) z^{-n} can be evaluated anywhere on or outside the unit
circle and conjugate symmetry f(z*) = f(z)* holds exactly.

Randomness comes from numpy's Philox generator — a counter-based bit stream
keyed by an explicit 64-bit seed — so every draw is reproducible and parallel
Monte Carlo loops can use independent per-task seeds.  Each sampler draws a
whole matrix of paths from a single stream.
"""

from __future__ import annotations

import math

import numpy as np

from .kernels import CozineParams, StationarySequence

__all__ = ["sample_stationary_batch", "sample_cozine_batch"]

_COZINE_TAIL_TOL = 1e-12


def _philox(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed))


def sample_stationary_batch(
    seq: StationarySequence, trunc: int, seed: int, count: int
) -> np.ndarray:
    """Impulse responses of ``count`` stationary paths, one row per path.

    Row i holds h(n) = a_n w_n, n = 0..trunc, with w_n i.i.d. N(0, 1): the
    path f(z) = sum_{n=0}^{trunc} a_n w_n z^{-n}.  A truncation N = 200 leaves
    a geometric tail alpha^{(N+1)/2}/(1-sqrt(alpha)) below 1e-4 for
    alpha <= 0.88 (4.9e-4 at alpha = 0.9).  All draws come from the single
    Philox stream keyed by ``seed``.
    """
    if trunc < 1:
        raise ValueError(f"truncation length must be >= 1, got {trunc}")
    if count < 0:
        raise ValueError(f"count must be nonnegative, got {count}")
    amps = seq.coefficients(trunc + 1)
    return _philox(seed).standard_normal((count, trunc + 1)) * amps


def _cozine_trunc(a: float, envelope: float) -> int:
    """Smallest N with a^N * envelope < the tail tolerance (envelope = sqrt(X^2+Y^2))."""
    if envelope <= _COZINE_TAIL_TOL:
        return 0
    return max(0, math.ceil(math.log(_COZINE_TAIL_TOL / envelope) / math.log(a)))


def _cozine_coeffs(params: CozineParams, x, y, trunc: int) -> np.ndarray:
    n = np.arange(trunc + 1)
    decay = params.a ** n
    cos_part = np.cos(n * params.omega0)
    sin_part = np.sin(n * params.omega0)
    return decay * (np.multiply.outer(x, cos_part) + np.multiply.outer(y, sin_part))


def sample_cozine_batch(params: CozineParams, seed: int, count: int) -> np.ndarray:
    """Impulse responses of ``count`` damped-cosine paths, one row per path.

    Row i holds h(n) = a^n (X_i cos(n w0) + Y_i sin(n w0)), X_i, Y_i i.i.d.
    N(0, 1), the impulse response of the rational form.  All rows share one
    truncation: the first N where the largest geometric envelope
    a^n sqrt(X_i^2 + Y_i^2) among the draws falls below 1e-12 (decay at rate a
    guarantees termination).  Single Philox stream keyed by ``seed``.
    """
    if count < 0:
        raise ValueError(f"count must be nonnegative, got {count}")
    if count == 0:
        return np.zeros((0, 1))
    draws = _philox(seed).standard_normal((count, 2))
    x, y = draws[:, 0], draws[:, 1]
    trunc = _cozine_trunc(params.a, float(np.max(np.hypot(x, y))))
    return _cozine_coeffs(params, x, y, trunc)
