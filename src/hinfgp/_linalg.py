"""Shared dense linear-algebra helpers: the BLAS thread and heap policies,
jittered Cholesky factorization, its solve and the inverse of its factor.

Thread policy.  A pip-installed numpy and scipy each bundle their own
OpenBLAS runtime with its own worker pool: numpy's
``numpy.libs/libscipy_openblas64_*.so`` serves ``@``, ``eigh``, ``svd`` and
``norm``, and scipy's ``scipy.libs/libscipy_openblas*.so`` serves the LAPACK
calls made through :mod:`scipy.linalg` (``potrf``, ``potrs``,
``solve_triangular``).  On a machine with few cores the two pools contend,
and a small product waits for workers busy in the other runtime (a 25x1000
complex matvec took 6.4 ms instead of 8 us on two cores).  Importing this
module therefore sets numpy's bundled runtime to one thread, once, through
its ``scipy_openblas_set_num_threads64_`` entry point.  scipy's runtime keeps
its default thread count: the Driscoll probe's order-400 factorizations and
triangular solves run there and use every core.  Where numpy's bundled copy is
absent (an MKL, conda or system OpenBLAS build) nothing is changed.

Heap policy.  Order-400 Grams and their temporaries (2.5 MB each when
complex) are built and freed a dozen times per Driscoll report.  glibc's
malloc adjusts its mmap and trim thresholds as it goes, and with them a freed
temporary at the top of the heap is handed back to the kernel, so the next
one faults every page in afresh (about 5 300 minor faults, 21 MB of zeroed
pages, per verify report).  Importing this module therefore calls glibc's
``mallopt`` once, with ``M_MMAP_THRESHOLD`` = 32 MiB (glibc's cap on 64-bit)
and ``M_TRIM_THRESHOLD`` = 64 MiB; setting both is needed, since setting
either one switches off the dynamic adjustment of the other.  Up to 64 MiB
of freed heap then stays with the process, and arrays above 32 MiB are still
mapped and unmapped on their own.  Allocation moves no arithmetic: every
result keeps its bytes.  Where ``mallopt`` is absent (macOS) or refuses the
values (musl's stub) nothing is changed; a process that wants other values
calls ``mallopt`` itself after the import.

Both factorization helpers call LAPACK ``potrf``/``potrs`` directly: the
routines that :func:`scipy.linalg.cho_factor` and
:func:`scipy.linalg.cho_solve` call, with the same arguments, so results are
bit-identical without the wrappers' per-call validation overhead (which
dominates at the small orders the likelihood search factors hundreds of
times per tune, with two solves each).  :func:`tri_inverse` calls
``trtri`` the same way.
"""

from __future__ import annotations

import ctypes
from pathlib import Path

import numpy as np
from scipy.linalg import get_lapack_funcs


def _pin_numpy_openblas(libs_dir: Path) -> bool:
    """Set the numpy-bundled OpenBLAS in ``libs_dir`` to one thread; whether it did.

    The library is the one numpy already loaded, so ``ctypes`` gets the same
    handle.  A directory without ``libscipy_openblas64_*.so``, or a library
    without the ``scipy_openblas_set_num_threads64_`` symbol, changes nothing.
    """
    for path in sorted(libs_dir.glob("libscipy_openblas64_*.so")):
        try:
            set_num_threads = ctypes.CDLL(str(path)).scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        set_num_threads.argtypes = [ctypes.c_int]
        set_num_threads.restype = None
        set_num_threads(1)
        return True
    return False


_pin_numpy_openblas(Path(np.__file__).resolve().parent.parent / "numpy.libs")

_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


def _keep_freed_heap(libc) -> bool:
    """Fix glibc's malloc thresholds through ``libc.mallopt``; whether both were set.

    The mmap threshold goes first: a ``libc`` without ``mallopt``, or one that
    refuses that value (``mallopt`` returns 0), leaves both thresholds as they
    were.  glibc accepts any trim threshold.
    """
    mallopt = getattr(libc, "mallopt", None)
    if mallopt is None:
        return False
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    return all(mallopt(param, value) == 1 for param, value in (
        (_M_MMAP_THRESHOLD, 32 << 20),
        (_M_TRIM_THRESHOLD, 64 << 20),
    ))


_keep_freed_heap(ctypes.CDLL(None))


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


def chol_factor_with_jitter(mat: np.ndarray, rel_jitter: float = 1e-10) -> tuple[np.ndarray, float]:
    """Cholesky-factor a (near-)PSD matrix, retrying once with jitter on the diagonal.

    Returns ``(factor, jitter)``: the lower factor as
    :func:`scipy.linalg.cho_factor` gives it with ``lower=True`` (the upper
    triangle holds leftover input), for :func:`chol_solve`, and the jitter
    that was added to the diagonal before it factored, 0.0 when none was.
    So ``factor`` is the factor of ``mat + jitter * I``.  A matrix with a NaN
    or infinite entry raises ``ValueError``.  The retry policy is
    deliberately simple and documented so downstream results stay
    reproducible: one bump of ``rel_jitter`` times the mean diagonal, then
    :class:`ConditioningError`.  ``fit`` and ``log_marginal_likelihood`` both
    use the default, so the tuner and the fit agree on every hyperparameter
    value; the Driscoll probe factors its H2 Gram R_{n_max} with
    ``rel_jitter=1e-12``.
    """
    mat = np.asarray(mat)
    factor, ok = _potrf(mat)
    if ok:
        return factor, 0.0
    jitter = rel_jitter * float(np.mean(np.real(np.diag(mat))))
    factor, ok = _potrf(mat + jitter * np.eye(mat.shape[0], dtype=mat.dtype))
    if not ok:
        raise ConditioningError(
            f"matrix of order {mat.shape[0]} is not positive definite, "
            f"even after adding diagonal jitter {jitter:.3e}"
        )
    return factor, jitter


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


def tri_inverse(factor: np.ndarray) -> np.ndarray:
    """L^{-1} for a lower factor L from :func:`chol_factor_with_jitter`, by LAPACK ``trtri``.

    ``trtri`` writes only the lower triangle, and the factor's upper triangle
    holds leftover input, so the upper triangle of the result is zeroed.
    """
    trtri, = get_lapack_funcs(("trtri",), (factor,))
    inverse, info = trtri(factor, lower=True, overwrite_c=False)
    if info != 0:
        raise ValueError(f"LAPACK trtri reported info {info}")
    return np.tril(inverse)
