"""Numerical probes for H-infinity membership and conjugate symmetry of a kernel.

Whether the sample paths of a Gaussian process are almost surely bounded
analytic functions outside the unit disk is a zero-one property.  Sufficient
conditions come in two parts: a boundary continuity condition on the
real/imaginary-part kernels, which this module does not probe, and
Driscoll's RKHS criterion (``driscoll_test``): the paths of a GP with real
kernel k lie in the reproducing kernel Hilbert space of a reference kernel r
exactly when traces of K_n R_n^{-1} over growing Gram matrices stay bounded.
Here the reference space is the Hardy space H2, whose kernel is
r(z, w) = zw*/(zw* - 1) (``hinfgp.kernels.h2_kernel``).

``symmetry_test`` checks the exact covariance identities k(z, z) = k(z*, z*)
and k(z, z) = kt(z, z*) that characterize processes with real impulse
responses.

Candidate kernels fed to ``driscoll_test`` are the *real* covariances of the
real or imaginary part of the process (see
:func:`hinfgp.kernels.real_imag_kernels`); ``driscoll_parts`` probes both parts
of a complex kernel with one H2 factorization.  Gram matrices are assembled from the
real part of the kernel values, matching the realified-space construction in
which both K_n and R_n are real symmetric matrices.  A kernel with a term
expansion (``hinfgp.kernels._Terms``, k = Psi Psi^H, kt = Psi Psi^T) needs no
candidate Gram: each part's is A A^T for a real matrix A of 2r or fewer
columns, and one triangular solve with A gives every trace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import scipy.linalg

from ._linalg import _finite, chol_factor_with_jitter
from .kernels import ComplexKernel, _check_sites, _part_values, h2_kernel

__all__ = [
    "DriscollParts",
    "DriscollReport",
    "SymmetryReport",
    "dense_spiral",
    "driscoll_test",
    "driscoll_parts",
    "symmetry_test",
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
    grid_size: int

    def to_record(self) -> dict:
        return {
            "max_err_diag": self.max_err_diag,
            "max_err_cross": self.max_err_cross,
            "scale": self.scale,
            "grid_size": self.grid_size,
        }


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


def _h2_probe(n_max: int, points: Sequence[complex] | None) -> tuple[np.ndarray, np.ndarray, float]:
    """The first ``n_max`` probe points, the lower factor of their H2 Gram
    R_{n_max} and the jitter its factorization added (0.0 when none)."""
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
    _check_sites(pts)
    if np.unique(pts).size < n_max:
        raise ValueError("points must be distinct: duplicate points give a singular H2 Gram")
    factor, jitter = chol_factor_with_jitter(_real_gram(h2_kernel, pts), rel_jitter=1e-12)
    return pts, factor, jitter


def _report(factor: np.ndarray, k_gram: np.ndarray) -> DriscollReport:
    """Traces of L^{-1} K L^{-T} at n = 10, 20, ..., n_max and their classification.

    The H2 Gram was scanned for NaN and inf when it was factored, and the
    candidate Gram is scanned here (``ValueError``), so the two solves skip
    scipy's ``check_finite`` scans.
    """
    half = scipy.linalg.solve_triangular(factor, _finite(k_gram), lower=True, check_finite=False)
    congruent = scipy.linalg.solve_triangular(factor, half.T, lower=True, check_finite=False)
    return _classify(np.cumsum(np.diag(congruent)))


def _classify(cumulative: np.ndarray) -> DriscollReport:
    """The report of the cumulative traces ``cumulative[n - 1]`` at n = 10, 20,
    ..., read by the tail rule of ``driscoll_test``."""
    n_values = list(range(10, cumulative.size + 1, 10))
    traces = [float(cumulative[n - 1]) for n in n_values]

    tail = max(2, math.ceil(len(n_values) / 3))
    tail_n = np.asarray(n_values[-tail:], dtype=float)
    tail_tr = np.asarray(traces[-tail:])
    slope = float(np.polyfit(tail_n, tail_tr, 1)[0])
    if slope > _SLOPE_TOL:
        verdict = "diverging"
    elif float(np.max(tail_tr) - np.min(tail_tr)) <= _TRACE_TOL * max(1.0, abs(traces[-1])):
        verdict = "converging"
    else:
        verdict = "inconclusive"
    return DriscollReport(tuple(n_values), tuple(traces), verdict, slope)


def driscoll_test(
    k_real: Callable, n_max: int = 200, points: Sequence[complex] | None = None
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
    A NaN or infinite point raises ``ValueError`` naming it and its index;
    repeated points raise ``ValueError`` too.  Near-duplicates are not caught:
    the retry's jitter rescues R_{n_max}, and the pair silently counts as
    one point (with ``pts[30] = pts[5] * (1 + 1e-15)``, the H2 self-trace
    at n = 40 reads 39.0001, not 40).  ``ConditioningError`` is raised only
    when the retry fails too.  ``n_max`` must be at least
    ``MIN_N_MAX`` (20), so that the tail fit below has two points.

    A bounded trace sequence is evidence the paths lie in H2 (hence extend to
    H-infinity under the continuity condition); growth linear in n is evidence
    they do not.  Classification is heuristic and thresholded: ``diverging``
    when the least-squares slope over the final third exceeds 0.01 per point,
    ``converging`` when the spread of that tail is at most 1e-3 of
    max(1, |last trace|), else ``inconclusive``.
    """
    pts, factor, _ = _h2_probe(n_max, points)
    return _report(factor, _real_gram(k_real, pts))


@dataclass(frozen=True)
class DriscollParts:
    """The Driscoll reports of both real parts of a complex kernel and the
    route that computed them: ``terms`` is the number r of the kernel's terms
    (None on the dense route), ``terms_tail`` their truncation bound (0.0 for
    an exact expansion, None on the dense route) and ``h2_jitter`` what the
    factorization of R_{n_max} added to its diagonal (0.0 when nothing)."""

    real_part: DriscollReport
    imag_part: DriscollReport
    terms: int | None
    terms_tail: float | None
    h2_jitter: float

    def to_record(self) -> dict:
        return {
            "real_part": self.real_part.to_record(),
            "imag_part": self.imag_part.to_record(),
            "terms": self.terms,
            "terms_tail": self.terms_tail,
            "h2_jitter": self.h2_jitter,
        }


def _stacked(psi: np.ndarray) -> np.ndarray:
    """[Re Psi, Im Psi], checked finite, in Fortran order so that a triangular
    solve overwrites it in place."""
    r = psi.shape[1]
    stacked = np.empty((psi.shape[0], 2 * r), order="F")
    stacked[:, :r], stacked[:, r:] = psi.real, psi.imag
    return _finite(stacked)


def driscoll_parts(kernel: ComplexKernel, n_max: int) -> DriscollParts:
    """``driscoll_test`` of both real parts of a complex kernel, sharing their work.

    Gives the reports of k_r = Re{k + kt}/2 and k_i = Re{k - kt}/2 (see
    :func:`hinfgp.kernels.real_imag_kernels`) on ``driscoll_test``'s default
    points.  Both parts are measured against the same R_{n_max} = L L^T, so
    it is built and factored once.

    A kernel without terms (``h2``, one built by hand) takes the dense route:
    k and kt are evaluated once, and the reports equal two ``driscoll_test``
    calls bit for bit.  A kernel with terms (``kernel._terms``, Psi = P + jQ
    at the points) takes the terms route: k_r's Gram is P P^T and k_i's is
    Q Q^T, or (P P^T + Q Q^T)/2 for both parts of a circular kernel, whose kt
    is zero.  The trace at n is the sum over rows m < n of the squared row
    norms of L^{-1} P (or Q), as L_n is L's leading block, so one triangular
    solve with the n_max x 2r matrix [P, Q] gives every trace of both parts.
    It differs from the dense route by rounding (within 1e-8 relative at
    ``n_max`` 230), and it keeps its accuracy where cond(R) nears 1e16: at
    ``n_max`` 400 it meets the limits sum a_n^2 to about 1e-11, where the
    dense route misses them by up to 3e-3.  A truncated series moves each
    trace by at most its tail (``_Terms.tail``).
    """
    pts, factor, jitter = _h2_probe(n_max, None)
    terms = kernel._terms
    if terms is None:
        z, w = pts[:, None], pts[None, :]
        herm, comp = kernel.hermitian_eval(z, w), kernel.complementary_eval(z, w)
        real_part = _report(factor, _part_values(herm, comp, imag=False))
        imag_part = _report(factor, _part_values(herm, comp, imag=True))
        return DriscollParts(real_part, imag_part, None, None, jitter)
    # the H2 Gram was scanned when it was factored and the terms are in _stacked
    solved = scipy.linalg.solve_triangular(
        factor, _stacked(terms.psi(pts)), lower=True, overwrite_b=True, check_finite=False
    )
    r = solved.shape[1] // 2
    real_rows = np.einsum("ij,ij->i", solved[:, :r], solved[:, :r])
    imag_rows = np.einsum("ij,ij->i", solved[:, r:], solved[:, r:])
    if terms.circular:
        real_rows = imag_rows = 0.5 * (real_rows + imag_rows)
    return DriscollParts(_classify(np.cumsum(real_rows)), _classify(np.cumsum(imag_rows)), r, terms.tail, jitter)


def symmetry_test(kernel: ComplexKernel, grid: Sequence[complex]) -> SymmetryReport:
    """Check the real-impulse-response identities over ``grid``.

    Reports max |k(z,z) - k(z*,z*)| and max |k(z,z) - kt(z,z*)|; both vanish
    exactly when the process has conjugate-symmetric paths.  Rounding leaves
    errors proportional to the kernel's size, so the report also carries
    ``scale`` = max |k(z,z)| over the grid.  Every grid point must lie in the
    kernel domain |z| >= 1 (``ValueError`` otherwise).
    """
    pts = np.asarray(grid, dtype=complex)
    if pts.size == 0:
        raise ValueError("symmetry grid must be nonempty")
    _check_sites(pts)
    diag = np.asarray(kernel.hermitian_eval(pts, pts))
    diag_conj = np.asarray(kernel.hermitian_eval(np.conj(pts), np.conj(pts)))
    cross = np.asarray(kernel.complementary_eval(pts, np.conj(pts)))
    return SymmetryReport(
        float(np.max(np.abs(diag - diag_conj))),
        float(np.max(np.abs(diag - cross))),
        float(np.max(np.abs(diag))),
        int(pts.size),
    )
