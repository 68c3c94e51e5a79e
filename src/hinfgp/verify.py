"""Numerical probes for H-infinity membership and conjugate symmetry of a kernel.

Whether the sample paths of a Gaussian process are almost surely bounded
analytic functions outside the unit disk is a zero-one property.  Sufficient
conditions come in two parts, and this module probes both numerically:

1. a boundary continuity condition on the real/imaginary-part kernels
   (``continuity_probe``), and
2. Driscoll's RKHS criterion (``driscoll_test``): the paths of a GP with real
   kernel k lie in the reproducing kernel Hilbert space of a reference kernel
   r exactly when traces of K_n R_n^{-1} over growing Gram matrices stay
   bounded.  Here the reference space is the Hardy space H2, whose kernel is
   r(z, w) = zw*/(zw* - 1).

``symmetry_test`` checks the exact covariance identities k(z, z) = k(z*, z*)
and k(z, z) = kt(z, z*) that characterize processes with real impulse
responses.

Candidate kernels fed to ``driscoll_test``/``continuity_probe`` are the *real*
covariances of the real or imaginary part of the process (see
:func:`hinfgp.kernels.real_imag_kernels`); ``driscoll_parts`` probes both parts
of a complex kernel with one H2 factorization.  Gram matrices are assembled from the
real part of the kernel values, matching the realified-space construction in
which both K_n and R_n are real symmetric matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import scipy.linalg

from ._linalg import chol_factor_with_jitter
from .kernels import ComplexKernel, _part_values, h2_kernel

__all__ = [
    "DriscollReport",
    "SymmetryReport",
    "ContinuityReport",
    "h2_kernel",
    "dense_spiral",
    "driscoll_test",
    "driscoll_parts",
    "symmetry_test",
    "continuity_probe",
]

# The smallest n_max whose trace sequence (n = 10, 20, ...) gives the tail
# fit in ``driscoll_test`` two points.
MIN_N_MAX = 20

# Tail thresholds of the Driscoll classification: slope per point and
# relative Cauchy spread (see ``driscoll_test``).
_SLOPE_TOL = 0.01
_TRACE_TOL = 1e-3


@dataclass(frozen=True)
class DriscollReport:
    """Trace sequence of the RKHS-membership test and its classification."""

    n_values: tuple[int, ...]
    traces: tuple[float, ...]
    verdict: str  # "converging" | "diverging" | "inconclusive"
    growth_slope: float

    def to_record(self) -> dict:
        return {
            "n_values": list(self.n_values),
            "traces": list(self.traces),
            "verdict": self.verdict,
            "growth_slope": self.growth_slope,
        }


@dataclass(frozen=True)
class SymmetryReport:
    """Worst-case errors of the real-impulse-response covariance identities."""

    max_err_diag: float  # max |k(z,z) - k(z*,z*)|
    max_err_cross: float  # max |k(z,z) - kt(z,z*)|
    scale: float  # max |k(z,z)|, which sets the size of rounding in both errors
    grid: tuple[complex, ...]

    def to_record(self) -> dict:
        return {
            "max_err_diag": self.max_err_diag,
            "max_err_cross": self.max_err_cross,
            "scale": self.scale,
            "grid_size": len(self.grid),
        }


@dataclass(frozen=True)
class ContinuityReport:
    """Outcome of the boundary-continuity bound check for one (C, alpha)."""

    passed: bool
    worst_margin: float
    worst_pair: tuple[float, float]
    C: float
    alpha: float


def dense_spiral(count: int, r_lo: float = 1.05, r_hi: float = 3.0) -> np.ndarray:
    """Deterministic low-discrepancy points in the annulus r_lo <= |z| <= r_hi.

    Golden-angle rotation with radii accumulating toward the inner circle,
    where the H2 Gram is hardest to handle: z_m = r_m e^{j m pi (3 - sqrt 5)}
    with r_m = r_lo + (r_hi - r_lo)/(1 + m), m = 1..count.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    m = np.arange(1, count + 1, dtype=float)
    theta = m * (math.pi * (3.0 - math.sqrt(5.0)))
    radii = r_lo + (r_hi - r_lo) / (1.0 + m)
    return radii * np.exp(1j * theta)


def _real_gram(k_real: Callable, points: np.ndarray) -> np.ndarray:
    z = points[:, None]
    w = points[None, :]
    return np.real(np.asarray(k_real(z, w)))


def _h2_probe(n_max: int, points: Sequence[complex] | None) -> tuple[np.ndarray, np.ndarray]:
    """The first ``n_max`` probe points and the lower factor of their H2 Gram R_{n_max}."""
    if n_max < MIN_N_MAX:
        raise ValueError(f"n_max must be >= {MIN_N_MAX}, got {n_max}")
    if points is None:
        pts = dense_spiral(n_max)
    else:
        pts = np.asarray(points, dtype=complex)
        if pts.size < n_max:
            raise ValueError(f"need at least n_max={n_max} points, got {pts.size}")
    pts = pts[:n_max]
    if np.any(np.abs(pts) <= 1.0):
        raise ValueError("all points must lie strictly outside the unit circle")
    if np.unique(pts).size < n_max:
        raise ValueError("points must be distinct: duplicate points give a singular H2 Gram")
    return pts, chol_factor_with_jitter(_real_gram(h2_kernel, pts), rel_jitter=1e-12)


def _report(factor: np.ndarray, k_gram: np.ndarray, slope_tol: float, trace_tol: float) -> DriscollReport:
    """Traces of L^{-1} K L^{-T} at n = 10, 20, ..., n_max and their classification."""
    half = scipy.linalg.solve_triangular(factor, k_gram, lower=True)
    congruent = scipy.linalg.solve_triangular(factor, half.T, lower=True)
    cumulative = np.cumsum(np.diag(congruent))
    n_values = list(range(10, k_gram.shape[0] + 1, 10))
    traces = [float(cumulative[n - 1]) for n in n_values]

    tail = max(2, math.ceil(len(n_values) / 3))
    tail_n = np.asarray(n_values[-tail:], dtype=float)
    tail_tr = np.asarray(traces[-tail:])
    slope = float(np.polyfit(tail_n, tail_tr, 1)[0])
    if slope > slope_tol:
        verdict = "diverging"
    elif float(np.max(tail_tr) - np.min(tail_tr)) <= trace_tol * max(1.0, abs(traces[-1])):
        verdict = "converging"
    else:
        verdict = "inconclusive"
    return DriscollReport(tuple(n_values), tuple(traces), verdict, slope)


def driscoll_test(
    k_real: Callable,
    n_max: int = 200,
    points: Sequence[complex] | None = None,
    slope_tol: float = _SLOPE_TOL,
    trace_tol: float = _TRACE_TOL,
) -> DriscollReport:
    """Zero-one RKHS membership probe: traces of K_n R_n^{-1} for n = 10, 20, ..., n_max.

    ``k_real`` is the real candidate covariance (typically ``k_r`` or ``k_i``
    of a complex kernel); complex return values are projected to their real
    part.  R_n is the H2 Gram on the same points.  Each trace is computed
    through a symmetric factorization, trace(L_n^{-1} K_n L_n^{-T}) with
    R_n = L_n L_n^T, which keeps the product congruent to a PSD matrix.

    Both Grams are built once on the first ``n_max`` points, and
    R_{n_max} = L L^T is factored once (only the lower triangle of the factor
    is read).  The leading n x n block of L is L_n, so the leading block of
    L^{-1} K L^{-T} is L_n^{-1} K_n L_n^{-T}, and the traces are cumulative
    sums of its diagonal.  They match factoring each prefix separately up to
    rounding: within 1e-9 relative up to ``n_max`` 230, and about 3e-5 at 400,
    where cond(R) nears 1e16 and both routes miss the exact limit by more.
    The factor comes from :func:`~hinfgp._linalg.chol_factor_with_jitter` at
    ``rel_jitter=1e-12``.  If R_{n_max} needs its single retry, the jitter
    (1e-12 times the mean diagonal of R_{n_max}) enters every prefix,
    including those whose own factorization would succeed without it.
    Repeated points raise ``ValueError``; near-duplicates that defeat the
    retry raise ``ConditioningError``.  ``n_max`` must be at least
    ``MIN_N_MAX`` (20), so that the tail fit below has two points.

    A bounded trace sequence is evidence the paths lie in H2 (hence extend to
    H-infinity under the continuity condition); growth linear in n is evidence
    they do not.  Classification is heuristic and thresholded: ``diverging``
    when the least-squares slope over the final third exceeds ``slope_tol``
    per point, ``converging`` when that tail is Cauchy within ``trace_tol``
    (relative), else ``inconclusive``.
    """
    pts, factor = _h2_probe(n_max, points)
    return _report(factor, _real_gram(k_real, pts), slope_tol, trace_tol)


def driscoll_parts(kernel: ComplexKernel, n_max: int) -> tuple[DriscollReport, DriscollReport]:
    """``driscoll_test`` of both real parts of a complex kernel, sharing their work.

    Returns the reports of k_r = Re{k + kt}/2 and k_i = Re{k - kt}/2 (see
    :func:`hinfgp.kernels.real_imag_kernels`), equal to two ``driscoll_test``
    calls with their default points and tolerances.  Both parts are measured
    against the same R_{n_max} on the same points, so it is built and
    factored once, and k and kt are evaluated once.
    """
    pts, factor = _h2_probe(n_max, None)
    z, w = pts[:, None], pts[None, :]
    herm, comp = kernel.hermitian_eval(z, w), kernel.complementary_eval(z, w)
    return (
        _report(factor, _part_values(herm, comp, imag=False), _SLOPE_TOL, _TRACE_TOL),
        _report(factor, _part_values(herm, comp, imag=True), _SLOPE_TOL, _TRACE_TOL),
    )


def symmetry_test(kernel: ComplexKernel, grid: Sequence[complex]) -> SymmetryReport:
    """Check the real-impulse-response identities over ``grid``.

    Reports max |k(z,z) - k(z*,z*)| and max |k(z,z) - kt(z,z*)|; both vanish
    exactly when the process has conjugate-symmetric paths.  Rounding leaves
    errors proportional to the kernel's size, so the report also carries
    ``scale`` = max |k(z,z)| over the grid.
    """
    pts = np.asarray(grid, dtype=complex)
    if pts.size == 0:
        raise ValueError("symmetry grid must be nonempty")
    diag = np.asarray(kernel.hermitian_eval(pts, pts))
    diag_conj = np.asarray(kernel.hermitian_eval(np.conj(pts), np.conj(pts)))
    cross = np.asarray(kernel.complementary_eval(pts, np.conj(pts)))
    return SymmetryReport(
        float(np.max(np.abs(diag - diag_conj))),
        float(np.max(np.abs(diag - cross))),
        float(np.max(np.abs(diag))),
        tuple(complex(z) for z in pts),
    )


def continuity_probe(
    k_real: Callable,
    angle_pairs: Sequence[tuple[float, float]],
    C: float,
    alpha: float,
) -> ContinuityReport:
    """Check the boundary-continuity bound for one constant pair (C, alpha).

    For every angle pair the variance increment of the real-part process on
    the circle, k(e^{jt}, e^{jt}) + k(e^{js}, e^{js}) - 2 k(e^{jt}, e^{js}),
    must stay below C / |log|t - s||^{1 + alpha}.  Pairs need 0 < |t - s| < 1.
    Returns the worst (smallest) margin bound - increment.
    """
    pairs = [(float(t), float(s)) for t, s in angle_pairs]
    if not pairs:
        raise ValueError("angle_pairs must be nonempty")
    worst = math.inf
    worst_pair = pairs[0]
    passed = True
    for t, s in pairs:
        gap = abs(t - s)
        if gap == 0.0:
            raise ValueError(f"degenerate pair (theta = phi = {t}) rejected")
        if gap >= 1.0:
            raise ValueError(f"angle pairs must satisfy |theta - phi| < 1, got {gap}")
        zt = complex(math.cos(t), math.sin(t))
        zs = complex(math.cos(s), math.sin(s))
        increment = float(
            np.real(k_real(zt, zt)) + np.real(k_real(zs, zs)) - 2.0 * np.real(k_real(zt, zs))
        )
        bound = C / abs(math.log(gap)) ** (1.0 + alpha)
        margin = bound - increment
        if margin < worst:
            worst = margin
            worst_pair = (t, s)
        if margin < 0.0:
            passed = False
    return ContinuityReport(passed, worst, worst_pair, float(C), float(alpha))
