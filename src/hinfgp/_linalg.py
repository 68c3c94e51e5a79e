"""Shared dense linear-algebra helpers: jittered Cholesky factorization."""

from __future__ import annotations

import numpy as np
import scipy.linalg


class ConditioningError(RuntimeError):
    """A Gram-matrix factorization failed even after the documented jitter bump."""


def chol_factor_with_jitter(mat: np.ndarray, rel_jitter: float = 1e-10):
    """Cholesky-factor a (near-)PSD matrix, retrying once with jitter on the diagonal.

    Returns the ``(factor, lower)`` pair produced by :func:`scipy.linalg.cho_factor`,
    suitable for :func:`scipy.linalg.cho_solve`.  The retry policy is deliberately
    simple and documented so downstream results stay reproducible: one bump of
    ``rel_jitter`` times the mean diagonal, then :class:`ConditioningError`.
    ``fit`` and ``log_marginal_likelihood`` both use the default, so the tuner
    and the fit agree on every hyperparameter value.
    """
    try:
        return scipy.linalg.cho_factor(mat, lower=True)
    except np.linalg.LinAlgError:
        pass
    jitter = rel_jitter * float(np.mean(np.real(np.diag(mat))))
    bumped = mat + jitter * np.eye(mat.shape[0], dtype=mat.dtype)
    try:
        return scipy.linalg.cho_factor(bumped, lower=True)
    except np.linalg.LinAlgError as exc:
        raise ConditioningError(
            f"matrix of order {mat.shape[0]} is not positive definite, "
            f"even after adding diagonal jitter {jitter:.3e}"
        ) from exc
