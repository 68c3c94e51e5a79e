"""Draw realizations of the families whose impulse-response law is known.

Every sampled path is a row of real impulse-response coefficients h(n), so
f(z) = sum_n h(n) z^{-n} can be evaluated anywhere on or outside the unit
circle and conjugate symmetry f(z*) = f(z)* holds exactly.

One table, keyed by :class:`~hinfgp.kernels.KernelFamily` node name, holds
each sampled family's law (``path_law``): the stationary families'
amplitudes a_n, with h(n) = a_n w_n for i.i.d. standard normal w_n; the
expected abs-sum E sum_n |h(n)|; and the label artifacts carry.  Cozine
paths are h(n) = a^n (X cos(n w0) + Y sin(n w0)) instead.

Randomness comes from numpy's Philox generator — a counter-based bit stream
keyed by an explicit 64-bit seed — so every draw is reproducible and parallel
Monte Carlo loops can use independent per-task seeds.  Each sampler draws a
whole matrix of paths from a single stream, and refuses with ``ValueError``
a matrix of more than 2**24 entries before it allocates one.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

__all__ = ["path_law", "sample_paths", "sample_stationary_batch", "sample_cozine_batch"]

_COZINE_TAIL_TOL = 1e-12
# The largest array a run allocates, in entries (128 MiB of floats): the path
# matrix here, and the sizes the CLI caps while parsing.  Cozine's truncation
# grows as log(tol)/log(a), 29 million columns at a = 0.999999.
_MAX_ENTRIES = 2**24
_HALF_NORMAL_MEAN = math.sqrt(2.0 / math.pi)  # E|w| for w ~ N(0, 1)


def _exponential_amplitudes(count: int) -> np.ndarray:
    """a_n = 1/sqrt(n!), built iteratively to avoid factorial overflow."""
    a = np.empty(count)
    val = 1.0
    for i in range(count):
        a[i] = val
        val /= math.sqrt(i + 1.0)
    return a


def _exponential_sum_a() -> float:
    total, term, n = 0.0, 1.0, 0
    while term > 1e-18:
        total += term
        n += 1
        term /= math.sqrt(n)
    return total


def _list_amplitudes(a_sq: tuple, count: int) -> np.ndarray:
    """sqrt(a_n^2) of the stored list, cut or zero-padded to ``count``."""
    out = np.zeros(count)
    stored = np.sqrt(np.asarray(a_sq[:count]))
    out[: stored.size] = stored
    return out


class _Law(NamedTuple):
    amplitudes: Callable | None  # (params, count) -> a_n, n < count; None: cozine's own draw
    abs_sum: Callable  # params -> E sum_n |h(n)|
    label: Callable  # params -> the family's name in artifacts


# Each h(n) is a_n times a standard normal (for cozine, a^n times X cos + Y sin),
# so E|h(n)| = sqrt(2/pi) a_n and E sum_n |h(n)| = sqrt(2/pi) sum_n a_n.
_LAWS = {
    "geometric": _Law(
        lambda p, count: float(p["alpha"]) ** (np.arange(count, dtype=float) / 2.0),
        lambda p: _HALF_NORMAL_MEAN * (1.0 / (1.0 - math.sqrt(p["alpha"]))),
        lambda p: f"geometric(alpha={float(p['alpha'])})",
    ),
    "exponential": _Law(
        lambda p, count: _exponential_amplitudes(count),
        lambda p: _HALF_NORMAL_MEAN * _exponential_sum_a(),
        lambda p: "exponential",
    ),
    "stationary_list": _Law(
        lambda p, count: _list_amplitudes(p["coefficients"], count),
        lambda p: _HALF_NORMAL_MEAN * float(np.sum(np.sqrt(p["coefficients"]))),
        lambda p: f"explicit(n={len(p['coefficients'])})",
    ),
    "cozine": _Law(
        None,
        lambda p: _HALF_NORMAL_MEAN / (1.0 - p["a"]),
        lambda p: f"cozine(a={float(p['a'])}, omega0={float(p['omega0'])})",
    ),
}


def path_law(name) -> _Law:
    """The law of the family node ``name``: ``amplitudes``, ``abs_sum`` and
    ``label``, each a function of the node's ``params``.

    A family without a path sampler raises ``ValueError``; the name is all
    this reads, so it can be checked before the record is parsed.
    """
    if not isinstance(name, str) or name not in _LAWS:
        raise ValueError(f"kernel name {name!r} has no path sampler; supported families: {', '.join(_LAWS)}")
    return _LAWS[name]


def _philox(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed))


def _check_size(rows: int, cols: int) -> None:
    if rows * cols > _MAX_ENTRIES:
        raise ValueError(
            f"a {rows} x {cols} path matrix exceeds the limit of {_MAX_ENTRIES} entries"
        )


def sample_paths(family, trunc: int, seed: int, count: int) -> np.ndarray:
    """``count`` paths of the parsed family node ``family``, one row per path.

    ``trunc`` is the stationary families' truncation; cozine chooses its own.
    """
    if path_law(family.name).amplitudes is None:
        return sample_cozine_batch(family, seed, count)
    return sample_stationary_batch(family, trunc, seed, count)


def sample_stationary_batch(family, trunc: int, seed: int, count: int) -> np.ndarray:
    """Impulse responses of ``count`` stationary paths, one row per path.

    Row i holds h(n) = a_n w_n, n = 0..trunc, with w_n i.i.d. N(0, 1) and a_n
    the amplitudes of the family node ``family``: the path f(z) =
    sum_{n=0}^{trunc} a_n w_n z^{-n}.  A truncation N = 200 leaves a
    geometric tail alpha^{(N+1)/2}/(1-sqrt(alpha)) below 1e-4 for
    alpha <= 0.88 (4.9e-4 at alpha = 0.9).  All draws come from the single
    Philox stream keyed by ``seed``.
    """
    if trunc < 1:
        raise ValueError(f"truncation length must be >= 1, got {trunc}")
    if count < 0:
        raise ValueError(f"count must be nonnegative, got {count}")
    _check_size(max(count, 1), trunc + 1)
    amps = path_law(family.name).amplitudes(family.params, trunc + 1)
    return _philox(seed).standard_normal((count, trunc + 1)) * amps


def _cozine_trunc(a: float, envelope: float) -> int:
    """Smallest N with a^N * envelope < the tail tolerance (envelope = sqrt(X^2+Y^2))."""
    if envelope <= _COZINE_TAIL_TOL:
        return 0
    return max(0, math.ceil(math.log(_COZINE_TAIL_TOL / envelope) / math.log(a)))


def sample_cozine_batch(family, seed: int, count: int) -> np.ndarray:
    """Impulse responses of ``count`` damped-cosine paths, one row per path.

    Row i holds h(n) = a^n (X_i cos(n w0) + Y_i sin(n w0)), X_i, Y_i i.i.d.
    N(0, 1), the impulse response of the rational form, with a and w0 the
    ``params`` of the cozine node ``family``.  All rows share one
    truncation: the first N where the largest geometric envelope
    a^n sqrt(X_i^2 + Y_i^2) among the draws falls below 1e-12 (decay at rate a
    guarantees termination).  Single Philox stream keyed by ``seed``.
    """
    if count < 0:
        raise ValueError(f"count must be nonnegative, got {count}")
    if count == 0:
        return np.zeros((0, 1))
    _check_size(count, 1)
    a, omega0 = family.params["a"], family.params["omega0"]
    draws = _philox(seed).standard_normal((count, 2))
    x, y = draws[:, 0], draws[:, 1]
    trunc = _cozine_trunc(a, float(np.max(np.hypot(x, y))))
    _check_size(count, trunc + 1)
    n = np.arange(trunc + 1)
    return a**n * (np.multiply.outer(x, np.cos(n * omega0)) + np.multiply.outer(y, np.sin(n * omega0)))
