"""Complex Gaussian process regression on frequency-response data.

Given noisy observations y_i = g(z_i) + e_i of a transfer function at sites
z_i on or outside the unit circle, with a ComplexKernel prior on g and proper
noise of variance sigma_e^2, this module provides

* the strictly linear posterior (``fit`` / ``predict_sl``): the complex LMMSE
  estimator using y only, at a scalar or a 1-D array of query points,
    mean(z) = sum_i k(z, z_i) [K_yy^{-1} y]_i,
    var(z)  = k(z, z) - u K_yy^{-1} u^H,   u_i = k(z, z_i),
  with K_yy = k(z_i, z_j) + sigma_e^2 I;

* the widely linear refinement (``predict_wl``): conditioning on y and y* is
  a Hermitian solve with the augmented covariance Gamma = [[A, B], [B^H, A*]],
  A = K_yy and B = Kt_yy the complementary Gram (Picinbono & Chevalier 1995).
  ``Posterior._augmented`` builds it by one of two routes, behind the same
  functions:

  - in coefficient space, when the kernel is a sum of r < n terms with real
    coefficients (``kernels._Terms``: k = Psi Psi^H, kt = Psi Psi^T) and the
    loading s = sigma_e^2 + jitter is positive.  Then the posterior is
    Bayesian linear regression on the r coefficients (Rasmussen & Williams,
    *GPML* 2006, section 2.1): with X = [Re Psi; Im Psi], the precision
    Lambda = I + (2/s) X^T X = L L^T is r x r and real, the mean at z is
    psi(z) cbar, cbar = Lambda^{-1} (2/s) X^T [Re y; Im y], the Hermitian
    variance ||L^{-1} psi(z)^T||^2 and the complementary variance
    sum (L^{-1} psi(z)^T)^2;

  - otherwise from Gamma's dense lower Cholesky factor
    L = [[L11, 0], [L21, L22]], built blockwise from ``fit``'s factor L11 of
    A without forming Gamma:

      L21^H = L11^{-1} B,   L22 L22^H = S = A* - L21 L21^H = conj(P),

    with P = A - B (A*)^{-1} B* the Schur complement (``schur_P``).  When
    ``fit`` factored A + j I, S is formed from conj(A + j I), the matrix L11
    factors, so the factored Gamma stays conjugate symmetric.  For the
    cross row r = [u, v], u_i = k(z, z_i), v_i = kt(z, z_i), x = L^{-1} r^H
    and c = L^{-1} [y; y*], mean_wl(z) = x^H c and var_wl(z) = k(z, z) -
    ||x||^2, and the complementary variance is kt(z, z) - x^H w,
    w = L^{-1} [v, u]^T.

  The complementary variance is its own function (``complementary_var``),
  so a prediction computes the mean and Hermitian variance alone.  Both take
  a scalar or a 1-D array of query points, evaluated in blocks of 64 rows;

* the posterior at the data sites themselves (``_at_sites``), read from what
  the posterior holds, without a per-query solve.  In coefficient space it
  is the formula above at the sites.  Otherwise, at site i the cross row
  [u, v] is Gamma's row i minus s [e_i, 0], so
    mean = y - s [Gamma^{-1} (y; y*)]_top,   var = s - s^2 [Gamma^{-1}]_ii
  (K_yy^{-1} in place of Gamma^{-1} for the strictly linear estimator).
  At zero noise without jitter this is mean = y and var = 0 exactly;

* confidence ellipsoids (``ellipsoid``): the disk |w - mean| <= eta * sigma
  around a posterior mean and variance from either predictor, which covers
  the true response with probability >= 1 - 1/eta^2 (Markov bound, no
  Gaussianity needed), summarized as magnitude/phase intervals;

* the log marginal likelihood and a gradient-based hyperparameter search
  (``log_marginal_likelihood`` / ``optimize_hyperparameters``: L-BFGS-B on
  the likelihood's analytic gradient) over a kernel family
  (``hinfgp.kernels.KernelFamily``), bound once to the data's sites.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Mapping, NamedTuple

import numpy as np
import scipy.linalg

from ._linalg import ConditioningError, chol_factor_with_jitter, chol_solve, tri_inverse
from .kernels import ComplexKernel, KernelFamily, _check_sites, _Terms, gram

__all__ = [
    "FrequencyDataset",
    "Posterior",
    "EllipsoidBound",
    "WidelyLinearPrediction",
    "ConditioningError",
    "fit",
    "predict_sl",
    "schur_P",
    "predict_wl",
    "complementary_var",
    "ellipsoid",
    "log_marginal_likelihood",
    "optimize_hyperparameters",
]

_WL_BLOCK = 64  # query rows per widely linear block: bounds the working set at large n
# Lanczos for lambda_max: a step cap past which the dense eigensolver answers
# (32 steps take about 8 ms at n = 400, the dense solve 30-40 ms), the start
# vector's angle and the stopping rule's rounding unit.
_LANCZOS_STEPS = 32
_GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True, eq=False)
class FrequencyDataset:
    """Observation sites z_i (|z_i| >= 1), complex responses y_i, noise variance."""

    sites: np.ndarray
    responses: np.ndarray
    noise_var: float = 0.0

    def __post_init__(self) -> None:
        sites = np.asarray(self.sites, dtype=complex)
        responses = np.asarray(self.responses, dtype=complex)
        if sites.ndim != 1 or responses.ndim != 1:
            raise ValueError("sites and responses must be one-dimensional")
        if sites.size != responses.size:
            raise ValueError(
                f"sites and responses disagree in length: {sites.size} vs {responses.size}"
            )
        bad = np.flatnonzero(~np.isfinite(responses))
        if bad.size:
            raise ValueError(
                f"{bad.size} of {responses.size} responses are not finite (first: {responses[bad[0]]} at index {bad[0]})"
            )
        _check_sites(sites, self.noise_var)  # also refuses non-finite sites
        if self.noise_var == 0.0 and sites.size != np.unique(sites).size:
            raise ConditioningError(
                "duplicate observation sites with zero noise give a singular Gram matrix"
            )
        object.__setattr__(self, "sites", sites)
        object.__setattr__(self, "responses", responses)
        object.__setattr__(self, "noise_var", float(self.noise_var))

    def __len__(self) -> int:
        return int(self.sites.size)


@dataclass(eq=False)
class Posterior:
    """Fitted regression state: kernel, data, K_yy, its lower Cholesky factor and K_yy^{-1} y.

    ``jitter`` is what ``fit`` added to K_yy's diagonal before it factored
    (0.0 when nothing was): ``factorization`` and ``alpha_vec`` belong to
    K_yy + jitter I, while ``gram_yy`` is K_yy itself.  The widely linear
    state, ``_augmented``, is computed on first use by ``schur_P``,
    ``predict_wl``, ``complementary_var`` or ``_at_sites`` and kept.
    """

    kernel: ComplexKernel
    dataset: FrequencyDataset
    gram_yy: np.ndarray
    factorization: np.ndarray
    alpha_vec: np.ndarray
    jitter: float

    @cached_property
    def _augmented(self) -> _AugmentedFactor | _CoefficientFactor:
        """The widely linear state, built on first use by one of two routes.

        When the kernel has a non-circular term expansion (``kernels._Terms``)
        with fewer terms r than there are sites and the loading s = sigma_e^2 +
        ``jitter`` is positive, the posterior is Bayesian linear regression
        on the r coefficients (``_coefficient_state``), r x r work; else it
        is Gamma's dense blockwise factor (``_dense_state``).  Both states
        have the same methods, ``predict``, ``complementary`` and ``sites``,
        and fields ``impropriety``, ``fallback``, ``terms`` (r, or None on
        the dense route) and ``tail``.
        """
        shift = self.dataset.noise_var + self.jitter
        terms = self.kernel._terms
        psi = None if terms is None or terms.circular else terms.psi(self.dataset.sites)
        if psi is not None and psi.shape[1] < len(self.dataset) and shift > 0.0:
            return _coefficient_state(self, terms, psi, shift)
        return _dense_state(self)


class _AugmentedFactor(NamedTuple):
    """The dense widely linear state: the blockwise lower Cholesky factor of
    Gamma = [[A, B], [B^H, A*]] beyond ``fit``'s L11, and what the widely
    linear update reads from it (built by ``_dense_state``)."""

    l21: np.ndarray  # B^H L11^{-H}
    s_mat: np.ndarray  # S = A* - L21 L21^H = conj(P), Hermitian
    impropriety: float  # lambda_max(S) / lambda_max(A)
    l22: np.ndarray | None  # lower factor of S + jitter I; None when S is numerically zero
    coeffs: np.ndarray | None  # c = L^{-1} [y; y*]; None when l22 is
    jitter: float  # added to S's diagonal before it factored; 0.0 when none was
    terms = None  # this route reads no term expansion
    tail = None

    @property
    def fallback(self) -> bool:
        return self.l22 is None

    def predict(self, post: Posterior, pts: np.ndarray):
        """Mean and Hermitian variance at one block of query points.

        One triangular solve with L11 and one with L22 give x = L^{-1} [u, v]^H,
        one column per query point, so that the mean is x^H c and the
        Hermitian variance k(z, z) - ||x||^2.
        """
        u, v = _cross_covariances(post, pts)
        x = _forward_solve(post.factorization, self.l21, self.l22, u.conj().T, v.conj().T)
        mean = x.conj().T @ self.coeffs
        prior = np.real(np.asarray(post.kernel.hermitian_eval(pts, pts)))
        return mean, np.maximum(prior - np.sum(np.abs(x) ** 2, axis=0), 0.0)

    def complementary(self, post: Posterior, pts: np.ndarray) -> np.ndarray:
        """kt(z, z) - x^H w at one block, with x and w = L^{-1} [v, u]^T
        solved side by side."""
        u, v = _cross_covariances(post, pts)
        q = u.shape[0]
        solved = _forward_solve(
            post.factorization, self.l21, self.l22,
            np.hstack([u.conj().T, v.T]), np.hstack([v.conj().T, u.T]),
        )
        x, w = solved[:, :q], solved[:, q:]
        prior = np.asarray(post.kernel.complementary_eval(pts, pts), dtype=complex)
        return prior - np.sum(x.conj() * w, axis=0)

    def sites(self, post: Posterior) -> tuple[np.ndarray, np.ndarray]:
        """Mean y - s b and variance max(s - s^2 d, 0) at the data sites.

        b = Gamma^{-1} (y; y*)'s top half is two back-substitutions on c.  d
        is the squared column norms of L22^{-1} (diag P^{-1} = diag S^{-1})
        when neither L11 nor L22 took jitter.  S's own jitter breaks Gamma's
        conjugate symmetry (L11's alone does not, since S is formed from the
        jittered K_yy), so with any jitter d is the exact top-left block,
        ||L11^{-1} e_i||^2 + ||L22^{-1} L21 L11^{-1} e_i||^2.
        """
        shift = post.dataset.noise_var + post.jitter
        top, bottom = np.split(self.coeffs, 2)
        lower = scipy.linalg.solve_triangular(self.l22, bottom, lower=True, trans="C", check_finite=False)
        # L21^H b2 = conj(b2^H L21): no conjugate transpose of the n x n L21
        top = top - np.conj(np.conj(lower) @ self.l21)
        solved = scipy.linalg.solve_triangular(post.factorization, top, lower=True, trans="C", check_finite=False)
        l22_inv = tri_inverse(self.l22)
        if post.jitter == 0.0 and self.jitter == 0.0:
            diag = _squared_column_norms(l22_inv)
        else:
            l11_inv = tri_inverse(post.factorization)
            diag = _squared_column_norms(l11_inv) + _squared_column_norms(l22_inv @ (self.l21 @ l11_inv))
        return post.dataset.responses - shift * solved, np.maximum(shift - shift**2 * diag, 0.0)


class _CoefficientFactor(NamedTuple):
    """The widely linear state in coefficient space (built by
    ``_coefficient_state``): the posterior of the r real coefficients c of
    the kernel's terms, f(z) = psi(z) c with c ~ N(0, I), given y = Psi c + e.

    With X = [Re Psi; Im Psi] and the loading s on both real parts (s/2
    each), the precision is Lambda = I + (2/s) X^T X = L L^T and the mean
    cbar = Lambda^{-1} (2/s) X^T [Re y; Im y].  For t = L^{-1} psi(z)^T the
    mean at z is psi(z) cbar = t^T (L^T cbar), the Hermitian variance
    ||t||^2 and the complementary variance sum t^2: at the sites as at any
    query point.
    """

    chol: np.ndarray  # L, the real lower Cholesky factor of Lambda, r x r
    weights: np.ndarray  # L^T cbar
    psi: Callable[[np.ndarray], np.ndarray]  # the kernel's terms, z -> Psi
    site_psi: np.ndarray  # Psi at the data sites, n x r
    impropriety: float  # lambda_max(P) / lambda_max(A), as on the dense route
    fallback: bool  # lambda_max(P) at most 1e-14 times lambda_max(A)
    terms: int  # r
    tail: float  # the terms' truncation bound (``kernels._Terms.tail``)

    def predict(self, post: Posterior, pts: np.ndarray):
        return self._moments(self.psi(pts))

    def complementary(self, post: Posterior, pts: np.ndarray) -> np.ndarray:
        t = self._whitened(self.psi(pts))
        return np.sum(t * t, axis=0)

    def sites(self, post: Posterior) -> tuple[np.ndarray, np.ndarray]:
        return self._moments(self.site_psi)

    def _whitened(self, psi: np.ndarray) -> np.ndarray:
        return scipy.linalg.solve_triangular(self.chol, psi.T, lower=True, check_finite=False)

    def _moments(self, psi: np.ndarray):
        t = self._whitened(psi)
        return t.T @ self.weights, _squared_column_norms(t)


def _dense_state(post: Posterior) -> _AugmentedFactor:
    """Factor Gamma from L11: one triangular solve for L21, S, and S's factor.

    S = conj(K_yy + j I) - L21 L21^H, with j the jitter ``fit`` added: the
    Schur complement of the matrix L11 factors.

    S is left unfactored (the widely linear fallback) when its largest
    eigenvalue is at most 1e-14 times A's; otherwise it is factored with the
    one jitter retry, or raises ``ConditioningError``.  Both largest
    eigenvalues come from ``_largest_eigenvalue`` (Lanczos, a few
    matrix-vector products at K_yy's decaying spectrum), which also gives the
    impropriety lambda_max(S) / lambda_max(A).  The state keeps the jitter S
    took, which its site posterior reads.
    """
    comp = gram(post.kernel, post.dataset.sites, "complementary")
    l21_h = scipy.linalg.solve_triangular(post.factorization, comp, lower=True, check_finite=False)
    l21 = l21_h.conj().T
    a_conj = np.conj(post.gram_yy)
    a_conj[np.diag_indices_from(a_conj)] += post.jitter
    s_mat = a_conj - l21 @ l21_h
    s_mat = 0.5 * (s_mat + s_mat.conj().T)
    lam_a, lam_s = (_largest_eigenvalue(mat) for mat in (post.gram_yy, s_mat))
    if lam_s <= 1e-14 * lam_a:
        return _AugmentedFactor(l21, s_mat, lam_s / lam_a, None, None, 0.0)
    l22, jitter = chol_factor_with_jitter(s_mat)
    responses = post.dataset.responses
    coeffs = _forward_solve(post.factorization, l21, l22, responses, np.conj(responses))
    return _AugmentedFactor(l21, s_mat, lam_s / lam_a, l22, coeffs, jitter)


def _coefficient_state(post: Posterior, terms: _Terms, site_psi: np.ndarray, shift: float) -> _CoefficientFactor:
    """The posterior of the coefficients of ``terms`` from Psi at the sites and the loading s.

    With G = Psi^H Psi, X^T X = Re G and X^T [Re y; Im y] = Re(Psi^H y), so
    every factorization is r x r.  Gamma's Schur complement is
    P = s I + s Psi (conj(G) + s I)^{-1} Psi^H, so lambda_max(P) = s + s mu,
    with mu the largest eigenvalue of the pencil (G, conj(G) + s I), and
    lambda_max(A) = s + lambda_max(G): the impropriety and the fallback test
    read these two numbers as the dense route reads its Lanczos pair.
    """
    r = site_psi.shape[1]
    psi_h = site_psi.conj().T
    gram_c = psi_h @ site_psi  # the factorizations below read its lower triangle
    chol = np.linalg.cholesky(np.eye(r) + (2.0 / shift) * gram_c.real)  # eigenvalues >= 1
    weights = scipy.linalg.solve_triangular(
        chol, (2.0 / shift) * (psi_h @ post.dataset.responses).real, lower=True, check_finite=False
    )
    lam_g = float(np.linalg.eigvalsh(gram_c)[-1])
    mu = float(scipy.linalg.eigh(gram_c, np.conj(gram_c) + shift * np.eye(r), eigvals_only=True)[-1])
    lam_s, lam_a = shift + shift * mu, shift + lam_g
    return _CoefficientFactor(
        chol, weights, terms.psi, site_psi, lam_s / lam_a, lam_s <= 1e-14 * lam_a, r, terms.tail
    )


def _forward_solve(l11, l21, l22, top, bottom) -> np.ndarray:
    """L^{-1} [top; bottom] for Gamma's factor L = [[L11, 0], [L21, L22]],
    by block forward substitution: two triangular solves and one product.

    The factors and the right-hand sides are built by this module, so the
    solves skip scipy's ``check_finite`` scan; non-finite query points are
    refused before (``_check_sites``).
    """
    upper = scipy.linalg.solve_triangular(l11, top, lower=True, check_finite=False)
    lower = scipy.linalg.solve_triangular(l22, bottom - l21 @ upper, lower=True, check_finite=False)
    return np.concatenate([upper, lower])


def _largest_eigenvalue(mat: np.ndarray) -> float:
    """Largest eigenvalue of a Hermitian matrix, by Lanczos with full reorthogonalization.

    The Krylov basis starts from the fixed vector cos(g i), i = 1..n, with g
    the golden angle: no random draw, and no all-ones vector, which
    structured matrices can make orthogonal to the top eigenvector.  Each
    step projects the new direction out of the whole basis twice, then takes
    the Ritz values of the tridiagonal T_k.  It stops when the top Ritz
    pair's residual bound beta_k |s_k[-1]|, which bounds its distance to an
    eigenvalue, is at most eps times the largest |Ritz value| (Golub & Van
    Loan, *Matrix Computations*, ch. 10).  A spectrum with no dominant
    eigenvalue (a flat or noise-dominated one) may not converge within
    ``_LANCZOS_STEPS`` steps; its answer is then the dense one from
    ``scipy.linalg.eigvalsh``, read from the lower triangle.
    """
    n = mat.shape[0]
    steps = min(n, _LANCZOS_STEPS)
    basis = np.empty((steps, n), dtype=np.result_type(mat.dtype, float))
    tridiagonal = np.zeros((steps, steps))  # lower triangle of T
    start = np.cos(_GOLDEN_ANGLE * np.arange(1, n + 1))
    q = start / np.linalg.norm(start)
    for k in range(steps):
        basis[k] = q
        w = mat @ q
        tridiagonal[k, k] = np.vdot(q, w).real
        done = basis[: k + 1]
        for _ in range(2):  # twice is enough (Kahan-Parlett)
            w -= done.T @ (done.conj() @ w)
        beta = float(np.linalg.norm(w))
        ritz, vectors = np.linalg.eigh(tridiagonal[: k + 1, : k + 1])
        scale = max(abs(ritz[0]), abs(ritz[-1]))
        if beta * abs(vectors[-1, -1]) <= _EPS * scale:
            return float(ritz[-1])
        if k + 1 < steps:
            tridiagonal[k + 1, k] = beta
            q = w / beta
    return float(scipy.linalg.eigvalsh(mat, subset_by_index=[n - 1, n - 1])[0])


class WidelyLinearPrediction(NamedTuple):
    """``predict_wl``'s posterior mean and Hermitian error variance, scalars
    or arrays as the query was, and whether S = conj(P) was numerically zero
    (the strictly linear fallback)."""

    mean: complex
    hermitian_var: float
    used_fallback: bool


@dataclass(frozen=True)
class EllipsoidBound:
    """Disk |w - center| <= radius summarized as magnitude and phase intervals.

    ``phase_interval`` is ``None`` when the disk contains the origin (every
    phase is possible); otherwise it is centered on the principal-value phase
    of ``center`` with half-width asin(radius/|center|), so its endpoints may
    leave (-pi, pi] when the disk straddles the branch cut.
    """

    center: complex
    radius: float
    mag_interval: tuple[float, float]
    phase_interval: tuple[float, float] | None


def fit(kernel: ComplexKernel, data: FrequencyDataset) -> Posterior:
    """Factor K_yy = k(z_i, z_j) + sigma_e^2 I once and cache K_yy^{-1} y.

    If the factorization fails, a single jitter of 1e-10 times the mean
    diagonal is added, and kept as ``Posterior.jitter``, before giving up
    with a ConditioningError.
    """
    if len(data) == 0:
        raise ValueError("cannot fit an empty dataset")
    gram_yy = gram(kernel, data.sites, "hermitian", data.noise_var)
    factorization, jitter = chol_factor_with_jitter(gram_yy)
    alpha_vec = chol_solve(factorization, data.responses)
    return Posterior(kernel, data, gram_yy, factorization, alpha_vec, jitter)


def predict_sl(post: Posterior, z):
    """Strictly linear posterior mean and (clamped nonnegative) variance at z.

    ``z`` is a scalar, which gives a (complex, float) pair, or a 1-D array,
    which gives a pair of arrays.
    """
    pts, scalar = _query_points(z)
    cross = np.asarray(
        post.kernel.hermitian_eval(pts[:, None], post.dataset.sites[None, :]), dtype=complex
    )
    means = cross @ post.alpha_vec
    solved = chol_solve(post.factorization, np.conj(cross).T)
    quad = np.real(np.einsum("ij,ji->i", cross, solved))
    prior = np.real(np.asarray(post.kernel.hermitian_eval(pts, pts)))
    variances = np.maximum(prior - quad, 0.0)
    if scalar:
        return complex(means[0]), float(variances[0])
    return means, variances


# perfbench/tracing.py's LAYER_FUNCTIONS table wraps this name too
predict_sl_many = predict_sl


def schur_P(post: Posterior) -> float:
    """The impropriety ||P||_2 / ||K_yy||_2 of the augmented covariance.

    P = A - B (A*)^{-1} B* is the Schur complement of Gamma: Hermitian PSD,
    with conj(P) = S.  Its spectral norm relative to ||K_yy||_2 measures how
    much the widely linear estimator can improve on the strictly linear one
    (P = 0 is the maximally improper case: y* is perfectly predictable from
    y).  On the dense route the norms are lambda_max(S) and lambda_max(K_yy)
    by Lanczos, which agree with a dense eigensolver to about 1e-15
    relative (a spectrum on which Lanczos does not converge within its step
    cap takes the dense answer); in coefficient space they are
    s + s mu and s + lambda_max(Psi^H Psi) from r x r eigenproblems
    (``_coefficient_state``).
    """
    return post._augmented.impropriety


def predict_wl(post: Posterior, z) -> WidelyLinearPrediction:
    """Widely linear posterior at z: mean, Hermitian variance, fallback state.

    ``z`` is a scalar or a 1-D array; an array gives a prediction of arrays,
    evaluated in blocks of 64 rows.  The posterior comes from
    ``Posterior._augmented``: in coefficient space when the kernel has fewer
    terms than there are sites and the noise is positive, else from Gamma's
    dense factor, whose S = conj(P) is factored with one jitter retry, then
    ``ConditioningError``.  When P is numerically zero (largest eigenvalue at
    most 1e-14 times K_yy's), the strictly linear prediction is returned
    with ``used_fallback=True``.  The complementary variance is
    ``complementary_var``'s.
    """
    pts, scalar = _query_points(z)
    state = post._augmented
    if state.fallback:
        mean, herm_var = predict_sl(post, pts)
    else:
        mean, herm_var = np.empty(pts.size, complex), np.empty(pts.size)
        for start in range(0, pts.size, _WL_BLOCK):
            rows = slice(start, start + _WL_BLOCK)
            mean[rows], herm_var[rows] = state.predict(post, pts[rows])
    if scalar:
        mean, herm_var = complex(mean[0]), float(herm_var[0])
    return WidelyLinearPrediction(mean, herm_var, state.fallback)


def complementary_var(post: Posterior, z):
    """Widely linear complementary error variance E[(g(z) - mean_wl(z))^2] at z.

    On the dense route it is kt(z, z) - x^H w with x = L^{-1} [u, v]^H and
    w = L^{-1} [v, u]^T, from the factor of Gamma that ``predict_wl`` uses;
    in coefficient space it is sum t^2, t = L^{-1} psi(z)^T.  ``z`` is a
    scalar, which gives a complex, or a 1-D array, which gives an array; it
    is NaN where ``predict_wl`` falls back to the strictly linear prediction.
    """
    pts, scalar = _query_points(z)
    state = post._augmented
    comp_var = np.full(pts.size, complex(math.nan, math.nan))
    if not state.fallback:
        for start in range(0, pts.size, _WL_BLOCK):
            rows = slice(start, start + _WL_BLOCK)
            comp_var[rows] = state.complementary(post, pts[rows])
    return complex(comp_var[0]) if scalar else comp_var


def _query_points(z) -> tuple[np.ndarray, bool]:
    """Query points as a checked 1-D complex array, and whether z was a scalar."""
    pts = np.asarray(z, dtype=complex)
    scalar = pts.ndim == 0
    pts = pts.reshape(-1)
    _check_sites(pts)
    return pts, scalar


def _cross_covariances(post: Posterior, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """u = k(z, z_i) and v = kt(z, z_i): one row per query point."""
    sites = post.dataset.sites[None, :]
    u = np.asarray(post.kernel.hermitian_eval(pts[:, None], sites), dtype=complex)
    v = np.asarray(post.kernel.complementary_eval(pts[:, None], sites), dtype=complex)
    return u, v


def _at_sites(post: Posterior, wide: bool) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean and Hermitian variance at the data sites, as
    ``predict_wl`` (``wide``) or ``predict_sl`` give them there, from the
    factors the posterior already holds.

    The strictly linear estimator, and the widely linear fallback, give
    mean y - s b and variance max(s - s^2 d, 0) with s = sigma_e^2 +
    ``post.jitter``, b = ``alpha_vec`` and d the squared column norms of
    L11^{-1}.  The widely linear estimator reads its state's ``sites``: the
    same formula with Gamma^{-1}'s top half on the dense route, and the
    coefficient posterior at the sites in coefficient space.
    """
    state = post._augmented if wide else None
    if state is not None and not state.fallback:
        return state.sites(post)
    shift = post.dataset.noise_var + post.jitter
    diag = _squared_column_norms(tri_inverse(post.factorization))
    return post.dataset.responses - shift * post.alpha_vec, np.maximum(shift - shift**2 * diag, 0.0)


def _squared_column_norms(mat: np.ndarray) -> np.ndarray:
    return np.sum(mat.real**2 + mat.imag**2, axis=0)


def ellipsoid(mean: complex, var: float, eta: float) -> EllipsoidBound:
    """Confidence disk of radius eta * sqrt(var) around a posterior mean.

    ``mean`` and ``var`` are one point's posterior mean and (Hermitian)
    variance from ``predict_sl`` or ``predict_wl``.  By the Markov bound the
    true response lies inside with probability at least 1 - 1/eta^2.  The
    magnitude interval is [max(0, |c| - r), |c| + r]; the phase interval has
    half-width asin(r/|c|) unless the disk contains the origin, in which case
    every phase is possible.  The arithmetic is on Python floats, one point
    per call (numpy's ``abs``, ``arcsin`` and ``arctan2`` can differ from
    them in the last bit).
    """
    if not eta > 0.0:
        raise ValueError(f"eta must be positive, got {eta}")
    center = complex(mean)
    radius = eta * math.sqrt(var)
    mag = abs(center)
    mag_interval = (max(0.0, mag - radius), mag + radius)
    if radius < mag:
        half_width = math.asin(radius / mag)
        phase = math.atan2(center.imag, center.real)
        phase_interval = (phase - half_width, phase + half_width)
    else:
        phase_interval = None
    return EllipsoidBound(center, radius, mag_interval, phase_interval)


def log_marginal_likelihood(
    kernel_family: KernelFamily,
    theta: Mapping[str, float],
    data: FrequencyDataset,
) -> float:
    """L(theta) = -1/2 (y^H K_yy^{-1} y + log det K_yy + n log 2 pi).

    ``kernel_family`` maps the hyperparameters ``theta`` to a kernel; it is
    bound to the data's sites (:meth:`~hinfgp.kernels.KernelFamily.bind`),
    which gives K_yy bit for bit as ``gram`` assembles it.  K_yy is factored
    exactly as ``fit`` factors it, with the same single jitter retry; a
    factorization that still fails, a non-finite Gram, or a solve
    K_yy^{-1} y that overflows (a Gram that factors but is nearly zero)
    returns -inf, which the optimizer treats as the worst possible value.
    Values outside a family's domain raise ``ValueError``.  This is the value
    of the evaluator the tuner calls, which also gives the gradient;
    ``identify`` reads the same formula (``_log_likelihood``) from ``fit``'s
    factor.
    """
    return _likelihood(kernel_family.bind(data.sites, data.noise_var), dict(theta), data)[0]


def _likelihood(
    gram_with_derivatives, values: Mapping[str, float], data: FrequencyDataset
) -> tuple[float, np.ndarray]:
    """L at ``values`` and its gradient, from a bound family's
    ``gram_with_derivatives`` (one entry per tunable path).

    dL/d theta = 1/2 tr((a a^H - K_yy^{-1}) dK_yy/d theta) with a = K_yy^{-1} y
    (Rasmussen & Williams, *GPML* 2006, section 5.4.1), from the factor that
    gives L.  A family without tunable paths forms no inverse and no
    derivative.  A value of -inf comes with a zero gradient.
    """
    n = len(data)
    if n == 0:
        raise ValueError("cannot evaluate the likelihood of an empty dataset")
    # the search reaches extreme values, where K_yy or its derivatives
    # overflow: that is the -inf or the non-finite gradient, not a warning
    with np.errstate(all="ignore"):
        gram_yy, derivatives = gram_with_derivatives(values)
        gradient = np.zeros(len(derivatives))
        try:
            factor, _ = chol_factor_with_jitter(gram_yy)
        except (ConditioningError, ValueError):
            return -math.inf, gradient
        solution = chol_solve(factor, data.responses)
        value = _log_likelihood(factor, solution, data.responses)
        if derivatives and value > -math.inf:
            weights = np.outer(solution, np.conj(solution)) - chol_solve(factor, np.eye(n))
            # tr(W D) = vdot(W, D) for a Hermitian W
            gradient = 0.5 * np.array([np.vdot(weights, d).real for d in derivatives])
        return value, gradient


def _log_likelihood(factor: np.ndarray, solution: np.ndarray, responses: np.ndarray) -> float:
    """L = -1/2 (y^H a + 2 sum log diag(L) + n log 2 pi) from K_yy's lower
    factor L and a = K_yy^{-1} y; -inf when the solve a is not finite.

    The one formula for L: the tuner's evaluator and ``identify``'s ``fit``
    (``Posterior.factorization`` and ``alpha_vec``) both read it.
    """
    if not np.isfinite(solution).all():
        return -math.inf
    with np.errstate(all="ignore"):
        quad = float(np.real(np.conj(responses) @ solution))
        logdet = 2.0 * float(np.sum(np.log(np.real(np.diag(factor)))))
        return -0.5 * (quad + logdet + responses.size * math.log(2.0 * math.pi))


class _BudgetSpent(Exception):
    """Raised by the tuner's objective to end a start whose share is spent."""


def _peak_start(names, domains, start: np.ndarray, data: FrequencyDataset) -> np.ndarray | None:
    """``start`` with every tunable ``omega0`` at the angle of the site with
    the largest |response|, in unconstrained coordinates; None when no path
    is an omega0 or the angle lies on the domain's boundary."""
    slots = [i for i, name in enumerate(names) if name.rsplit(".", 1)[-1] == "omega0"]
    if not slots:
        return None
    angle = float(np.angle(data.sites[np.argmax(np.abs(data.responses))]))
    peak = start.copy()
    try:
        for i in slots:
            peak[i] = domains[i].to_unconstrained(angle)
    except ValueError:
        return None
    return peak


def optimize_hyperparameters(
    family: KernelFamily,
    data: FrequencyDataset,
    budget: int = 2000,
    seed: int = 0,
) -> tuple[dict[str, float], float]:
    """Maximize the marginal likelihood with L-BFGS-B on its analytic gradient.

    The family declares the search: its tunable paths (``family.tunable``),
    each path's range (``family.domains``) and the starting point
    (``family.unconstrained_start()``, whose ``ValueError`` names a path
    that starts on its range's boundary).  The search runs in unconstrained
    coordinates, with the gradient chained through the domains' maps (whose
    slope is 0 beyond their clamps).  It runs from five starts, splitting a
    total ``budget`` of likelihood evaluations across them: the starting
    point, then 4 jittered restarts (Philox stream keyed by ``seed``,
    unit-scale jitter in unconstrained coordinates).  When a tunable path
    ends in ``omega0``, the last start is instead the starting point with
    every such omega0 at the angle of the data site with the largest
    |response| (the ETFE's resonance peak), unless that angle is 0 or pi,
    which its domain cannot map.  Each evaluation gives the likelihood and
    its gradient, and a -inf one counts too.  ``budget=1`` evaluates and
    returns the starting values.  Returns the best {path: value} map and its
    likelihood; raises if every evaluation is -inf.  The family is bound to
    the data's sites once.
    """
    import scipy.optimize  # here, not at module level: verify and sample never tune

    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    names = family.tunable
    if not names:
        raise ValueError("the kernel family declares no tunable hyperparameter")
    domains = [family.domains[name] for name in names]
    bound = family.bind(data.sites, data.noise_var)
    evals, limit = 0, 1  # evaluations spent, and where the current start must stop
    best_score, best_values = -math.inf, None

    def objective(vec: np.ndarray) -> tuple[float, np.ndarray]:
        """-L and its gradient in unconstrained coordinates.  A -inf value or
        an overflowed gradient reads as (+inf, 0), which the search backs
        away from."""
        nonlocal evals, best_score, best_values
        if evals >= limit:
            raise _BudgetSpent
        ts = vec.tolist()
        values = {n: d.from_unconstrained(t) for n, d, t in zip(names, domains, ts)}
        score, gradient = _likelihood(bound, values, data)
        evals += 1
        if score > best_score:
            best_score, best_values = score, values
        if not (math.isfinite(score) and np.isfinite(gradient).all()):
            return math.inf, np.zeros(vec.size)
        return -score, -gradient * [d.slope(t) for d, t in zip(domains, ts)]

    start = family.unconstrained_start()
    objective(start)  # budget=1 stops here, with the starting values as the incumbent

    rng = np.random.Generator(np.random.Philox(key=seed))
    starts = [start] + [start + rng.standard_normal(start.size) for _ in range(4)]
    peak = _peak_start(names, domains, start, data)
    if peak is not None:
        starts[-1] = peak
    share = max(1, (budget - 1) // len(starts))
    for point in starts:
        if evals >= budget:
            break
        limit = evals + min(share, budget - evals)
        # No bounds: with every coordinate boxed, L-BFGS-B's first step is
        # the whole gradient (its curvature model starts as the identity),
        # which at the |dL/dt| of 1e3 that poor starting values give leaps
        # to the box's corners; unbounded, the first step has unit length.
        try:
            scipy.optimize.minimize(objective, point, jac=True, method="L-BFGS-B")
        except _BudgetSpent:
            pass
    if best_score == -math.inf:
        raise RuntimeError("hyperparameter optimization failed: every evaluation was -inf")
    return best_values, float(best_score)
