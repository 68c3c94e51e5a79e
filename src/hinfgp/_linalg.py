"""Shared dense linear-algebra helpers: jittered Cholesky factorization and its solve.

Both call LAPACK ``potrf``/``potrs`` directly: the routines that
:func:`scipy.linalg.cho_factor` and :func:`scipy.linalg.cho_solve` call, with
the same arguments, so results are bit-identical without the wrappers'
per-call validation overhead (which dominates at the small orders the
likelihood search factors thousands of times).
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import get_lapack_funcs


class ConditioningError(RuntimeError):
    """A Gram-matrix factorization failed even after the documented jitter bump."""


def _finite(arr: np.ndarray) -> np.ndarray:
    if not np.isfinite(arr).all():
        raise ValueError("array must not contain infs or NaNs")
    return arr


def _potrf(mat: np.ndarray):
    """(lower Cholesky factor, whether potrf succeeded) of a finite matrix."""
    potrf, = get_lapack_funcs(("potrf",), (mat,))
    factor, info = potrf(_finite(mat), lower=True, overwrite_a=False, clean=False)
    if info < 0:
        raise ValueError(f"LAPACK potrf reported an illegal value in argument {-info}")
    return factor, info == 0


def chol_factor_with_jitter(mat: np.ndarray, rel_jitter: float = 1e-10):
    """Cholesky-factor a (near-)PSD matrix, retrying once with jitter on the diagonal.

    Returns the lower factor as :func:`scipy.linalg.cho_factor` does with
    ``lower=True`` (the upper triangle holds leftover input), for
    :func:`chol_solve`.  A matrix with a NaN or infinite entry raises
    ``ValueError``.  The retry policy is deliberately simple and documented so
    downstream results stay reproducible: one bump of ``rel_jitter`` times the
    mean diagonal, then :class:`ConditioningError`.  ``fit`` and
    ``log_marginal_likelihood`` both use the default, so the tuner and the fit
    agree on every hyperparameter value; the Driscoll probe factors its H2
    Gram R_{n_max} with ``rel_jitter=1e-12``.
    """
    mat = np.asarray(mat)
    factor, ok = _potrf(mat)
    if ok:
        return factor
    jitter = rel_jitter * float(np.mean(np.real(np.diag(mat))))
    factor, ok = _potrf(mat + jitter * np.eye(mat.shape[0], dtype=mat.dtype))
    if not ok:
        raise ConditioningError(
            f"matrix of order {mat.shape[0]} is not positive definite, "
            f"even after adding diagonal jitter {jitter:.3e}"
        )
    return factor


def chol_solve(factor: np.ndarray, rhs) -> np.ndarray:
    """Solve A x = rhs given the lower factor of A from :func:`chol_factor_with_jitter`.

    A right-hand side with a NaN or infinite entry raises ``ValueError``.
    """
    rhs = _finite(np.asarray(rhs))
    potrs, = get_lapack_funcs(("potrs",), (factor, rhs))
    solution, info = potrs(factor, rhs, lower=True, overwrite_b=False)
    if info != 0:
        raise ValueError(f"LAPACK potrs reported an illegal value in argument {-info}")
    return solution
