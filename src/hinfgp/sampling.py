"""Draw realizations of the stationary-sequence and cozine process families.

Every sampled path is stored through its real impulse response h(n), so
f(z) = sum_n h(n) z^{-n} can be evaluated anywhere on or outside the unit
circle and conjugate symmetry f(z*) = f(z)* holds exactly.

Randomness comes from numpy's Philox generator — a counter-based bit stream
keyed by an explicit 64-bit seed — so every draw is reproducible and parallel
Monte Carlo loops can use independent per-task seeds.  The ``*_batch`` helpers
draw a whole matrix of paths from a single stream; a batch is its own stream,
not the concatenation of the corresponding single-path streams.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .kernels import CozineParams, StationarySequence

__all__ = [
    "SampledPath",
    "sample_stationary",
    "sample_stationary_batch",
    "sample_cozine",
    "sample_cozine_batch",
    "eval_path",
    "abs_sum",
]

_COZINE_TAIL_TOL = 1e-12


def _philox(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed))


@dataclass(frozen=True, eq=False)
class SampledPath:
    """One process realization, stored as its real impulse response h(0..N)."""

    impulse_coeffs: np.ndarray
    origin: str
    seed: int

    def __post_init__(self) -> None:
        coeffs = np.asarray(self.impulse_coeffs, dtype=float)
        if coeffs.ndim != 1 or coeffs.size == 0:
            raise ValueError("impulse_coeffs must be a nonempty one-dimensional real sequence")
        if not np.all(np.isfinite(coeffs)):
            raise ValueError("impulse_coeffs must be finite")
        object.__setattr__(self, "impulse_coeffs", coeffs)


def sample_stationary(seq: StationarySequence, trunc: int = 200, seed: int = 0) -> SampledPath:
    """Draw one path f(z) = sum_{n=0}^{trunc} a_n w_n z^{-n}, w_n i.i.d. N(0, 1).

    The stored coefficients h(n) = a_n w_n, n = 0..trunc, are the row of
    :func:`sample_stationary_batch` with ``count=1``.  The default truncation
    N = 200 leaves a geometric tail alpha^{(N+1)/2}/(1-sqrt(alpha)) below 1e-4
    for alpha <= 0.88 (4.9e-4 at alpha = 0.9).
    """
    coeffs = sample_stationary_batch(seq, trunc, seed, 1)[0]
    return SampledPath(coeffs, f"stationary:{seq.describe()}", seed)


def sample_stationary_batch(
    seq: StationarySequence, trunc: int, seed: int, count: int
) -> np.ndarray:
    """Impulse responses of ``count`` stationary paths, one row per path.

    All draws come from the single Philox stream keyed by ``seed``.
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


def sample_cozine(params: CozineParams, seed: int = 0) -> SampledPath:
    """Draw one damped-cosine path with X, Y i.i.d. N(0, 1).

    The impulse response h(n) = a^n (X cos(n w0) + Y sin(n w0)) of the rational
    form is stored up to the first N where the geometric envelope
    a^n sqrt(X^2 + Y^2) falls below 1e-12 (decay at rate a guarantees
    termination): the single row of :func:`sample_cozine_batch` with ``count=1``.
    """
    coeffs = sample_cozine_batch(params, seed, 1)[0]
    return SampledPath(coeffs, f"cozine(a={params.a}, omega0={params.omega0})", seed)


def sample_cozine_batch(params: CozineParams, seed: int, count: int) -> np.ndarray:
    """Impulse responses of ``count`` cozine paths, one row per path.

    All rows share a common truncation (set by the largest envelope among the
    draws) so they form a rectangular matrix; individual rows follow the same
    law as :func:`sample_cozine` paths.  Single Philox stream keyed by ``seed``.
    """
    if count < 0:
        raise ValueError(f"count must be nonnegative, got {count}")
    if count == 0:
        return np.zeros((0, 1))
    draws = _philox(seed).standard_normal((count, 2))
    x, y = draws[:, 0], draws[:, 1]
    trunc = _cozine_trunc(params.a, float(np.max(np.hypot(x, y))))
    return _cozine_coeffs(params, x, y, trunc)


def eval_path(path: SampledPath, z: complex) -> complex:
    """Evaluate f(z) = sum_n h(n) z^{-n} over the stored coefficients.

    Requires |z| >= 1 (up to rounding).  On the unit circle itself the stored
    truncation must have decayed for the value to be trustworthy; if the last
    stored coefficient still exceeds 1e-12 a warning is issued.
    """
    radius = abs(z)
    if radius < 1.0 - 1e-12:
        raise ValueError(f"path evaluation requires |z| >= 1, got |z| = {radius}")
    coeffs = path.impulse_coeffs
    if radius < 1.0 + 1e-12 and abs(coeffs[-1]) > _COZINE_TAIL_TOL:
        warnings.warn(
            "evaluating a path on |z| = 1 whose stored tail has not decayed below 1e-12; "
            "increase the truncation length for a reliable value",
            RuntimeWarning,
            stacklevel=2,
        )
    return complex(np.polynomial.polynomial.polyval(1.0 / z, coeffs))


def abs_sum(path: SampledPath) -> float:
    """sum_n |h(n)| over the stored coefficients (always finite)."""
    return float(np.sum(np.abs(path.impulse_coeffs)))
