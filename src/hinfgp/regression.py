"""Complex Gaussian process regression on frequency-response data.

Given noisy observations y_i = g(z_i) + e_i of a transfer function at sites
z_i on or outside the unit circle, with a ComplexKernel prior on g and proper
noise of variance sigma_e^2, this module provides

* the strictly linear posterior (``fit`` / ``predict_sl``): the complex LMMSE
  estimator using y only,
    mean(z) = sum_i k(z, z_i) [K_yy^{-1} y]_i,
    var(z)  = k(z, z) - u K_yy^{-1} u^H,   u_i = k(z, z_i),
  with K_yy = k(z_i, z_j) + sigma_e^2 I;

* the widely linear refinement (``predict_wl``): conditioning on y and y* is
  a Hermitian solve with the augmented covariance Gamma = [[A, B], [B^H, A*]],
  A = K_yy and B = Kt_yy the complementary Gram (Picinbono & Chevalier 1995).
  Gamma's lower Cholesky factor L = [[L11, 0], [L21, L22]] is built blockwise
  from ``fit``'s factor L11 of A, without forming Gamma:

    L21^H = L11^{-1} B,   L22 L22^H = S = A* - L21 L21^H = conj(P),

  with P = A - B (A*)^{-1} B* the Schur complement (``schur_P``).  For the
  cross row r = [u, v], u_i = k(z, z_i), v_i = kt(z, z_i), x = L^{-1} r^H and
  c = L^{-1} [y; y*], mean_wl(z) = x^H c and var_wl(z) = k(z, z) - ||x||^2.
  ``predict_wl`` takes a scalar or a 1-D array of query points, evaluated in
  blocks of 64 rows;

* confidence ellipsoids (``ellipsoid``): disks |w - mean(z)| <= eta * sigma(z)
  which cover the true response with probability >= 1 - 1/eta^2 (Markov bound,
  no Gaussianity needed), summarized as magnitude/phase intervals;

* the log marginal likelihood and a gradient-based hyperparameter search
  (``log_marginal_likelihood`` / ``optimize_hyperparameters``: L-BFGS-B on
  the likelihood's analytic gradient) over a kernel family
  (``hinfgp.kernels.KernelFamily``), bound once to the data's sites.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, NamedTuple, Sequence

import numpy as np
import scipy.linalg

from ._linalg import ConditioningError, chol_factor_with_jitter, chol_solve
from .kernels import BoundFamily, ComplexKernel, KernelFamily, _check_sites, gram

__all__ = [
    "FrequencyDataset",
    "Posterior",
    "EllipsoidBound",
    "SchurComplement",
    "WidelyLinearPrediction",
    "ConditioningError",
    "fit",
    "predict_sl",
    "predict_sl_many",
    "schur_P",
    "predict_wl",
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
        for name, values in (("sites", sites), ("responses", responses)):
            bad = np.flatnonzero(~np.isfinite(values))
            if bad.size:
                raise ValueError(
                    f"{bad.size} of {values.size} {name} are not finite (first: {values[bad[0]]} at index {bad[0]})"
                )
        _check_sites(sites, self.noise_var)
        if self.noise_var == 0.0 and sites.size != np.unique(sites).size:
            raise ConditioningError(
                "duplicate observation sites with zero noise give a singular Gram matrix"
            )
        object.__setattr__(self, "sites", sites)
        object.__setattr__(self, "responses", responses)
        object.__setattr__(self, "noise_var", float(self.noise_var))

    def __len__(self) -> int:
        return int(self.sites.size)


class _AugmentedFactor(NamedTuple):
    """The blockwise lower Cholesky factor of Gamma = [[A, B], [B^H, A*]]
    beyond ``fit``'s L11, and what the widely linear update reads from it."""

    l21: np.ndarray  # B^H L11^{-H}
    s_mat: np.ndarray  # S = A* - L21 L21^H = conj(P), Hermitian
    impropriety: float  # lambda_max(S) / lambda_max(A)
    l22: np.ndarray | None  # lower factor of S; None when S is numerically zero
    coeffs: np.ndarray | None  # c = L^{-1} [y; y*]; None when l22 is


@dataclass(eq=False)
class Posterior:
    """Fitted regression state: kernel, data, K_yy, its lower Cholesky factor and K_yy^{-1} y.

    The widely linear state, ``_augmented``, is computed on first use by
    ``schur_P`` or ``predict_wl`` and kept.
    """

    kernel: ComplexKernel
    dataset: FrequencyDataset
    gram_yy: np.ndarray
    factorization: np.ndarray
    alpha_vec: np.ndarray

    @cached_property
    def _augmented(self) -> _AugmentedFactor:
        """Factor Gamma from L11: one triangular solve for L21, S, and S's factor.

        S is left unfactored (the widely linear fallback) when its largest
        eigenvalue is at most 1e-14 times A's; otherwise it is factored with
        the one jitter retry, or raises ``ConditioningError``.  Both largest
        eigenvalues come from ``_largest_eigenvalue`` (Lanczos, a few
        matrix-vector products at K_yy's decaying spectrum), which also gives
        the impropriety lambda_max(S) / lambda_max(A).
        """
        comp = gram(self.kernel, self.dataset.sites, "complementary")
        l21_h = scipy.linalg.solve_triangular(self.factorization, comp, lower=True)
        l21 = l21_h.conj().T
        s_mat = np.conj(self.gram_yy) - l21 @ l21_h
        s_mat = 0.5 * (s_mat + s_mat.conj().T)
        lam_a, lam_s = (_largest_eigenvalue(mat) for mat in (self.gram_yy, s_mat))
        if lam_s <= 1e-14 * lam_a:
            return _AugmentedFactor(l21, s_mat, lam_s / lam_a, None, None)
        l22 = chol_factor_with_jitter(s_mat)
        responses = self.dataset.responses
        c1 = scipy.linalg.solve_triangular(self.factorization, responses, lower=True)
        c2 = scipy.linalg.solve_triangular(l22, np.conj(responses) - l21 @ c1, lower=True)
        return _AugmentedFactor(l21, s_mat, lam_s / lam_a, l22, np.concatenate([c1, c2]))


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
    mean: complex
    hermitian_var: float
    complementary_var: complex
    used_fallback: bool


@dataclass(frozen=True)
class SchurComplement:
    """P = K_yy - Kt_yy (K_yy*)^{-1} Kt_yy* and the impropriety diagnostic ||P||_2/||K_yy||_2.

    Both norms are largest eigenvalues of PSD matrices, found by Lanczos to
    rounding (``_largest_eigenvalue``).
    """

    matrix: np.ndarray
    impropriety: float


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
    eta: float
    mag_interval: tuple[float, float]
    phase_interval: tuple[float, float] | None

    @property
    def phase_is_full_circle(self) -> bool:
        return self.phase_interval is None

    def contains(self, value: complex) -> bool:
        return abs(value - self.center) <= self.radius


def fit(kernel: ComplexKernel, data: FrequencyDataset) -> Posterior:
    """Factor K_yy = k(z_i, z_j) + sigma_e^2 I once and cache K_yy^{-1} y.

    If the factorization fails, a single jitter of 1e-10 times the mean
    diagonal is added before giving up with a ConditioningError.
    """
    if len(data) == 0:
        raise ValueError("cannot fit an empty dataset")
    gram_yy = gram(kernel, data.sites, "hermitian", data.noise_var)
    factorization = chol_factor_with_jitter(gram_yy)
    alpha_vec = chol_solve(factorization, data.responses)
    return Posterior(kernel, data, gram_yy, factorization, alpha_vec)


def predict_sl(post: Posterior, z: complex) -> tuple[complex, float]:
    """Strictly linear posterior mean and (clamped nonnegative) variance at z."""
    means, variances = predict_sl_many(post, [z])
    return complex(means[0]), float(variances[0])


def predict_sl_many(post: Posterior, zs: Sequence[complex]) -> tuple[np.ndarray, np.ndarray]:
    """Strictly linear posterior means and (clamped nonnegative) variances over a grid."""
    pts = np.asarray(zs, dtype=complex)
    _check_sites(pts)
    cross = np.asarray(
        post.kernel.hermitian_eval(pts[:, None], post.dataset.sites[None, :]), dtype=complex
    )
    means = cross @ post.alpha_vec
    solved = chol_solve(post.factorization, np.conj(cross).T)
    quad = np.real(np.einsum("ij,ji->i", cross, solved))
    prior = np.real(np.asarray(post.kernel.hermitian_eval(pts, pts)))
    return means, np.maximum(prior - quad, 0.0)


def schur_P(post: Posterior) -> SchurComplement:
    """Schur complement P = A - B (A*)^{-1} B* of the augmented covariance.

    P is Hermitian PSD, and conj(P) is S, the block that ``predict_wl``
    factors.  Its spectral norm relative to ||K_yy||_2 measures how much the
    widely linear estimator can improve on the strictly linear one (P = 0 is
    the maximally improper case: y* is perfectly predictable from y).  The
    norms are lambda_max(S) and lambda_max(K_yy) by Lanczos, which agree with
    a dense eigensolver to about 1e-15 relative; a spectrum on which Lanczos
    does not converge within its step cap takes the dense answer.
    """
    state = post._augmented
    return SchurComplement(np.conj(state.s_mat), state.impropriety)


def predict_wl(post: Posterior, z) -> WidelyLinearPrediction:
    """Widely linear posterior at z: mean, Hermitian variance, complementary variance.

    ``z`` is a scalar or a 1-D array; an array gives a prediction of arrays.
    S = conj(P) is factored with one jitter retry, then ``ConditioningError``.
    When S is numerically zero (largest eigenvalue at most 1e-14 times
    K_yy's), the strictly linear prediction is returned with
    ``used_fallback=True`` and a NaN complementary variance.
    """
    pts = np.asarray(z, dtype=complex)
    scalar = pts.ndim == 0
    pts = pts.reshape(-1)
    _check_sites(pts)
    state = post._augmented
    fallback = state.l22 is None
    if fallback:
        mean, herm_var = predict_sl_many(post, pts)
        comp_var = np.full(pts.size, complex(math.nan, math.nan))
    else:
        mean, herm_var, comp_var = (np.empty(pts.size, kind) for kind in (complex, float, complex))
        for start in range(0, pts.size, _WL_BLOCK):
            rows = slice(start, start + _WL_BLOCK)
            mean[rows], herm_var[rows], comp_var[rows] = _wl_block(post, state, pts[rows])
    if scalar:
        mean, herm_var, comp_var = complex(mean[0]), float(herm_var[0]), complex(comp_var[0])
    return WidelyLinearPrediction(mean, herm_var, comp_var, fallback)


def _wl_block(post: Posterior, state: _AugmentedFactor, pts: np.ndarray):
    """Widely linear mean and variances at one block of query points.

    One triangular solve with L11 and one with L22 give, side by side,
    x = L^{-1} [u, v]^H and w = L^{-1} [v, u]^T, so that the mean is x^H c,
    the Hermitian variance k(z, z) - ||x||^2 and the complementary variance
    kt(z, z) - x^H w.
    """
    sites, q = post.dataset.sites[None, :], pts.size
    u = np.asarray(post.kernel.hermitian_eval(pts[:, None], sites), dtype=complex)
    v = np.asarray(post.kernel.complementary_eval(pts[:, None], sites), dtype=complex)
    top = scipy.linalg.solve_triangular(post.factorization, np.hstack([u.conj().T, v.T]), lower=True)
    rhs = np.hstack([v.conj().T, u.T]) - state.l21 @ top
    bottom = scipy.linalg.solve_triangular(state.l22, rhs, lower=True)
    solved = np.vstack([top, bottom])
    x, w = solved[:, :q], solved[:, q:]
    mean = x.conj().T @ state.coeffs
    prior = np.real(np.asarray(post.kernel.hermitian_eval(pts, pts)))
    hermitian_var = np.maximum(prior - np.sum(np.abs(x) ** 2, axis=0), 0.0)
    prior_comp = np.asarray(post.kernel.complementary_eval(pts, pts), dtype=complex)
    return mean, hermitian_var, prior_comp - np.sum(x.conj() * w, axis=0)


def ellipsoid(post: Posterior, z: complex, eta: float) -> EllipsoidBound:
    """Confidence disk of radius eta * sigma_g(z) around the strictly linear mean.

    By the Markov bound the true response lies inside with probability at
    least 1 - 1/eta^2.  The magnitude interval is [max(0, |c| - r), |c| + r];
    the phase interval has half-width asin(r/|c|) unless the disk contains the
    origin, in which case every phase is possible.
    """
    if eta <= 0.0:
        raise ValueError(f"eta must be positive, got {eta}")
    mean, var = predict_sl(post, z)
    return _disk_bounds(mean, eta * math.sqrt(var), eta)


def _disk_bounds(center: complex, radius: float, eta: float) -> EllipsoidBound:
    mag = abs(center)
    mag_interval = (max(0.0, mag - radius), mag + radius)
    if radius < mag:
        half_width = math.asin(radius / mag)
        phase = math.atan2(center.imag, center.real)
        phase_interval = (phase - half_width, phase + half_width)
    else:
        phase_interval = None
    return EllipsoidBound(center, radius, eta, mag_interval, phase_interval)


def _bind(kernel_family: KernelFamily | BoundFamily, data: FrequencyDataset) -> BoundFamily:
    """``kernel_family`` bound to the sites and noise of ``data``: a family
    already bound to them is used as is, any other is bound here."""
    if isinstance(kernel_family, BoundFamily):
        if kernel_family.sites is data.sites and kernel_family.noise_var == data.noise_var:
            return kernel_family
        kernel_family = kernel_family.family
    return kernel_family.bind(data.sites, data.noise_var)


def log_marginal_likelihood(
    kernel_family: KernelFamily | BoundFamily,
    theta: Mapping[str, float],
    data: FrequencyDataset,
) -> float:
    """L(theta) = -1/2 (y^H K_yy^{-1} y + log det K_yy + n log 2 pi).

    ``kernel_family`` maps the hyperparameters ``theta`` to a kernel: a
    :class:`~hinfgp.kernels.KernelFamily`, or the same family bound to the
    data's sites (``optimize_hyperparameters`` binds once per search, so each
    evaluation only assembles K_yy from precomputed site arrays).  Both give
    the same K_yy bit for bit.  K_yy is factored exactly as ``fit``
    factors it, with the same single jitter retry; a factorization that still
    fails, a non-finite Gram, or a solve K_yy^{-1} y that overflows (a Gram
    that factors but is nearly zero) returns -inf, which the optimizer treats
    as the worst possible value.  Values outside a family's domain raise
    ``ValueError``.  This is the value of the evaluator the tuner calls,
    which also gives the gradient; an untuned ``identify`` run reads the same
    formula (``_log_likelihood``) from ``fit``'s factor.
    """
    return _likelihood(_bind(kernel_family, data), dict(theta), data)[0]


def _likelihood(
    bound: BoundFamily, values: Mapping[str, float], data: FrequencyDataset
) -> tuple[float, np.ndarray]:
    """L at ``values`` and its gradient along ``bound.family.tunable``.

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
        gram_yy, derivatives = bound.gram_with_derivatives(values)
        gradient = np.zeros(len(derivatives))
        try:
            factor = chol_factor_with_jitter(gram_yy)
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

    The one formula for L: the tuner's evaluator and an untuned run's
    ``fit`` (``Posterior.factorization`` and ``alpha_vec``) both read it.
    """
    if not np.isfinite(solution).all():
        return -math.inf
    with np.errstate(all="ignore"):
        quad = float(np.real(np.conj(responses) @ solution))
        logdet = 2.0 * float(np.sum(np.log(np.real(np.diag(factor)))))
        return -0.5 * (quad + logdet + responses.size * math.log(2.0 * math.pi))


class _BudgetSpent(Exception):
    """Raised by the tuner's objective to end a start whose share is spent."""


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
    slope is 0 beyond their clamps).  It runs from the starting point plus 4
    jittered restarts (Philox stream keyed by ``seed``, unit-scale jitter in
    unconstrained coordinates), splitting a total ``budget`` of likelihood
    evaluations across the starts; each evaluation gives the likelihood and
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
    bound = _bind(family, data)
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
