"""Complex Gaussian process regression on frequency-response data.

Given noisy observations y_i = g(z_i) + e_i of a transfer function at sites
z_i on or outside the unit circle, with a ComplexKernel prior on g and proper
noise of variance sigma_e^2, this module provides

* the strictly linear posterior (``fit`` / ``predict_sl``): the complex LMMSE
  estimator using y only,
    mean(z) = sum_i k(z, z_i) [K_yy^{-1} y]_i,
    var(z)  = k(z, z) - u K_yy^{-1} u^H,   u_i = k(z, z_i),
  with K_yy = k(z_i, z_j) + sigma_e^2 I;

* the widely linear refinement (``predict_wl``): conditioning on both y and
  y* through the augmented covariance [[A, B], [B*, A*]] with A = K_yy and
  B = Kt_yy the complementary Gram.  Writing W = A^{-1}B, the Schur complement
  P = A - B W* measures the refinement's advantage (``schur_P``); the widely
  linear mean and variances reduce to the strictly linear ones plus
  corrections through the Hermitian matrix P* = conj(P):

    mean_wl(z) = mean_sl(z) + d Pbar^+ s,      d = v - (u A^{-1}) B,
    var_wl(z)  = var_sl(z) - d Pbar^+ d^H,     s = conj(y - B conj(alpha)),

  where v_i = kt(z, z_i) and Pbar^+ is a truncated pseudo-inverse of
  conj(P) (eigenvalues below p_floor * ||P|| are dropped — P is typically
  near-singular for conjugate-symmetric priors, which is exactly the regime in
  which the plain inverse is numerically unstable).  ``predict_wl`` takes a
  scalar or a 1-D array of query points, evaluated in blocks of 64 rows;

* confidence ellipsoids (``ellipsoid``): disks |w - mean(z)| <= eta * sigma(z)
  which cover the true response with probability >= 1 - 1/eta^2 (Markov bound,
  no Gaussianity needed), summarized as magnitude/phase intervals;

* the log marginal likelihood and a derivative-free hyperparameter search
  (``log_marginal_likelihood`` / ``optimize_hyperparameters``) over a kernel
  family (``hinfgp.kernels.KernelFamily``), bound once to the data's sites.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np
import scipy.linalg

from ._linalg import ConditioningError, chol_factor_with_jitter, chol_solve
from .kernels import BoundFamily, ComplexKernel, KernelFamily, gram

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

_SITE_TOL = 1e-12
_WL_BLOCK = 64  # query rows per widely linear block: bounds the working set at large n


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
        if self.noise_var < 0.0:
            raise ValueError(f"noise_var must be nonnegative, got {self.noise_var}")
        if np.any(np.abs(sites) < 1.0 - _SITE_TOL):
            raise ValueError("all observation sites must satisfy |z| >= 1")
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
    """Fitted regression state: kernel, data, K_yy, its lower Cholesky factor and K_yy^{-1} y."""

    kernel: ComplexKernel
    dataset: FrequencyDataset
    gram_yy: np.ndarray
    factorization: np.ndarray
    alpha_vec: np.ndarray
    _wl_cache: dict = field(default_factory=dict, repr=False)


class WidelyLinearPrediction(NamedTuple):
    mean: complex
    hermitian_var: float
    complementary_var: complex
    used_fallback: bool


@dataclass(frozen=True)
class SchurComplement:
    """P = K_yy - Kt_yy (K_yy*)^{-1} Kt_yy* and the impropriety diagnostic ||P||_2/||K_yy||_2."""

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


def _check_queries(post: Posterior, pts: np.ndarray) -> None:
    if np.any(np.abs(pts) < 1.0 - _SITE_TOL):
        raise ValueError("query points must not lie inside the kernel domain")


def predict_sl(post: Posterior, z: complex) -> tuple[complex, float]:
    """Strictly linear posterior mean and (clamped nonnegative) variance at z."""
    means, variances = predict_sl_many(post, [z])
    return complex(means[0]), float(variances[0])


def predict_sl_many(post: Posterior, zs: Sequence[complex]) -> tuple[np.ndarray, np.ndarray]:
    """Strictly linear posterior means and (clamped nonnegative) variances over a grid."""
    pts = np.asarray(zs, dtype=complex)
    _check_queries(post, pts)
    cross = np.asarray(
        post.kernel.hermitian_eval(pts[:, None], post.dataset.sites[None, :]), dtype=complex
    )
    means = cross @ post.alpha_vec
    solved = chol_solve(post.factorization, np.conj(cross).T)
    quad = np.real(np.einsum("ij,ji->i", cross, solved))
    prior = np.real(np.asarray(post.kernel.hermitian_eval(pts, pts)))
    return means, np.maximum(prior - quad, 0.0)


def _schur(post: Posterior):
    """(B, W = A^{-1} B, Hermitian part of P = A - B W*, ||A||_2), computed once per posterior."""
    if "schur" not in post._wl_cache:
        comp = gram(post.kernel, post.dataset.sites, "complementary")
        w_mat = chol_solve(post.factorization, comp)
        p_mat = post.gram_yy - comp @ np.conj(w_mat)
        scale = float(np.linalg.norm(post.gram_yy, 2))
        post._wl_cache["schur"] = (comp, w_mat, 0.5 * (p_mat + p_mat.conj().T), scale)
    return post._wl_cache["schur"]


def _wl_state(post: Posterior, p_floor: float):
    """Cached truncated eigendecomposition of conj(P) for one p_floor:
    (basis, 1/eigenvalues, Pbar^+ s), or None when P is numerically zero."""
    key = float(p_floor)
    if key in post._wl_cache:
        return post._wl_cache[key]
    comp, _, p_herm, scale = _schur(post)
    eigvals, eigvecs = np.linalg.eigh(np.conj(p_herm))
    lam_max = float(eigvals[-1])
    if lam_max <= 1e-14 * scale:
        state = None
    else:
        keep = eigvals >= p_floor * lam_max
        basis = eigvecs[:, keep]
        inv_lam = 1.0 / eigvals[keep]
        residual = np.conj(
            post.dataset.responses - comp @ np.conj(post.alpha_vec)
        )  # s = y* - B* A^{-1} y
        correction = basis @ (inv_lam * (basis.conj().T @ residual))  # Pbar^+ s
        state = (basis, inv_lam, correction)
    post._wl_cache[key] = state
    return state


def schur_P(post: Posterior) -> SchurComplement:
    """Schur complement P = A - B (A*)^{-1} B* of the augmented covariance.

    P is Hermitian PSD; its spectral norm relative to ||K_yy||_2 measures how
    much the widely linear estimator can improve on the strictly linear one
    (P = 0 is the maximally improper case: y* is perfectly predictable from y).
    """
    _, _, p_herm, scale = _schur(post)
    return SchurComplement(p_herm, float(np.linalg.norm(p_herm, 2) / scale))


def predict_wl(post: Posterior, z, p_floor: float = 1e-8) -> WidelyLinearPrediction:
    """Widely linear posterior at z: mean, Hermitian variance, complementary variance.

    ``z`` is a scalar or a 1-D array; an array gives a prediction of arrays.
    Eigenvalues of P below ``p_floor * ||P||_2`` are dropped from the inverse
    (truncated pseudo-inverse).  When P is numerically zero altogether —
    nothing survives the floor — the strictly linear prediction is returned
    with ``used_fallback=True`` and a NaN complementary variance.
    """
    pts = np.asarray(z, dtype=complex)
    scalar = pts.ndim == 0
    pts = pts.reshape(-1)
    _check_queries(post, pts)
    state = _wl_state(post, p_floor)
    if state is None:
        mean, herm_var = predict_sl_many(post, pts)
        comp_var = np.full(pts.size, complex(math.nan, math.nan))
    else:
        mean, herm_var, comp_var = (np.empty(pts.size, kind) for kind in (complex, float, complex))
        for start in range(0, pts.size, _WL_BLOCK):
            rows = slice(start, start + _WL_BLOCK)
            mean[rows], herm_var[rows], comp_var[rows] = _wl_block(post, state, pts[rows])
    if scalar:
        mean, herm_var, comp_var = complex(mean[0]), float(herm_var[0]), complex(comp_var[0])
    return WidelyLinearPrediction(mean, herm_var, comp_var, state is None)


def _wl_block(post: Posterior, state, pts: np.ndarray):
    """Widely linear mean and variances at one block of query points.

    With A = L L^H, one triangular solve each for u and v gives both u A^{-1} u^H
    and u A^{-1} v^T.  The cached W = A^{-1} B gives d = v - u W and, since B is
    complex symmetric (B* A^{-1} = W^H), e = u - v W*.
    """
    basis, inv_lam, correction = state
    _, w_mat, _, _ = _schur(post)
    factor, sites = post.factorization, post.dataset.sites[None, :]
    u = np.asarray(post.kernel.hermitian_eval(pts[:, None], sites), dtype=complex)
    v = np.asarray(post.kernel.complementary_eval(pts[:, None], sites), dtype=complex)
    lu = scipy.linalg.solve_triangular(factor, np.conj(u).T, lower=True)  # L^{-1} u^H
    lv = scipy.linalg.solve_triangular(factor, v.T, lower=True)  # L^{-1} v^T
    d = v - u @ w_mat
    d_proj = d @ basis
    mean = u @ post.alpha_vec + d @ correction
    prior = np.real(np.asarray(post.kernel.hermitian_eval(pts, pts)))
    quad_sl = np.sum(np.abs(lu) ** 2, axis=0)  # u A^{-1} u^H
    hermitian_var = np.maximum(prior - quad_sl - np.abs(d_proj) ** 2 @ inv_lam, 0.0)

    # complementary error variance: kt(z,z) - u A^{-1} v^T - d Pbar^+ e^T
    prior_comp = np.asarray(post.kernel.complementary_eval(pts, pts), dtype=complex)
    e_proj = (u - v @ np.conj(w_mat)) @ np.conj(basis)
    u_ainv_v = np.sum(np.conj(lu) * lv, axis=0)  # u A^{-1} v^T
    return mean, hermitian_var, prior_comp - u_ainv_v - (d_proj * e_proj) @ inv_lam


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


FamilyFn = Callable[[Mapping[str, float]], ComplexKernel]


def _bind(kernel_family: FamilyFn | BoundFamily, data: FrequencyDataset) -> BoundFamily:
    """``kernel_family`` bound to the sites and noise of ``data``.

    A family already bound to them is used as is, and a :class:`KernelFamily`
    is bound once here.  Any other callable (hyperparameters -> ComplexKernel)
    is adapted: its Gram is assembled through ``gram`` at every evaluation.
    """
    if isinstance(kernel_family, BoundFamily):
        if kernel_family.sites is data.sites and kernel_family.noise_var == data.noise_var:
            return kernel_family
        kernel_family = kernel_family.family
    if isinstance(kernel_family, KernelFamily):
        return kernel_family.bind(data.sites, data.noise_var)
    return BoundFamily(
        kernel_family,
        data.sites,
        data.noise_var,
        lambda values: gram(kernel_family(values), data.sites, "hermitian", data.noise_var),
    )


def log_marginal_likelihood(
    kernel_family: FamilyFn | BoundFamily,
    theta: Mapping[str, float],
    data: FrequencyDataset,
) -> float:
    """L(theta) = -1/2 (y^H K_yy^{-1} y + log det K_yy + n log 2 pi).

    ``kernel_family`` maps the hyperparameters to a kernel: a
    :class:`~hinfgp.kernels.KernelFamily`, the same family bound to the data's
    sites (``optimize_hyperparameters`` binds once per search, so each
    evaluation only assembles K_yy from precomputed site arrays), or any
    callable, whose kernel's Gram is then built through ``gram``.  All three
    give the same K_yy bit for bit.  K_yy is factored exactly as ``fit``
    factors it, with the same single jitter retry; a factorization that still
    fails, a non-finite Gram, or a solve K_yy^{-1} y that overflows (a Gram
    that factors but is nearly zero) returns -inf, which the optimizer treats
    as the worst possible value.  Values outside a family's domain raise
    ``ValueError``.
    """
    n = len(data)
    if n == 0:
        raise ValueError("cannot evaluate the likelihood of an empty dataset")
    gram_yy = _bind(kernel_family, data).gram(dict(theta))
    try:
        factor = chol_factor_with_jitter(gram_yy)
    except (ConditioningError, ValueError):
        return -math.inf
    solution = chol_solve(factor, data.responses)
    if not np.isfinite(solution).all():
        return -math.inf
    quad = float(np.real(np.conj(data.responses) @ solution))
    logdet = 2.0 * float(np.sum(np.log(np.real(np.diag(factor)))))
    return -0.5 * (quad + logdet + n * math.log(2.0 * math.pi))


def optimize_hyperparameters(
    family: KernelFamily,
    data: FrequencyDataset,
    budget: int = 2000,
    seed: int = 0,
) -> tuple[dict[str, float], float]:
    """Maximize the marginal likelihood with Nelder-Mead in transformed coordinates.

    The family declares the search: its tunable paths (``family.tunable``),
    each path's range (``family.domains``) and the starting point
    (``family.unconstrained_start()``, whose ``ValueError`` names a path
    that starts on its range's boundary).  The search runs from that point
    plus 4 jittered restarts (Philox stream keyed by ``seed``, unit-scale jitter in
    unconstrained coordinates), splitting a total budget of likelihood
    evaluations across the starts.  ``budget=1`` evaluates and returns the
    starting values.  Returns the best {path: value} map and its likelihood;
    raises if every evaluation is -inf.  The family is bound to the data's
    sites once, and every evaluation goes through ``log_marginal_likelihood``
    with the bound family.
    """
    import scipy.optimize  # here, not at module level: verify and sample never tune

    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    names = family.tunable
    if not names:
        raise ValueError("the kernel family declares no tunable hyperparameter")
    domains = [family.domains[name] for name in names]
    bound = _bind(family, data)

    def unpack(vec: np.ndarray) -> dict[str, float]:
        return {n: d.from_unconstrained(t) for n, d, t in zip(names, domains, vec.tolist())}

    evals = 0
    best: dict = {"L": -math.inf}

    def objective(vec: np.ndarray) -> float:
        nonlocal evals
        if evals >= budget:
            return math.inf
        values = unpack(vec)
        try:
            score = log_marginal_likelihood(bound, values, data)
        except ValueError:
            score = -math.inf
        evals += 1
        if score > best["L"]:
            best["L"] = score
            best["values"] = values
        return -score if math.isfinite(score) else math.inf

    start = family.unconstrained_start()
    objective(start)  # budget=1 stops here, with the starting values as the incumbent

    rng = np.random.Generator(np.random.Philox(key=seed))
    starts = [start] + [start + rng.standard_normal(start.size) for _ in range(4)]
    share = max(1, (budget - 1) // len(starts))
    for point in starts:
        remaining = budget - evals
        if remaining < 1:
            break
        scipy.optimize.minimize(
            objective,
            point,
            method="Nelder-Mead",
            options={"maxfev": min(share, remaining), "xatol": 1e-6, "fatol": 1e-9},
        )
    if best["L"] == -math.inf:
        raise RuntimeError("hyperparameter optimization failed: every evaluation was -inf")
    return best["values"], float(best["L"])
