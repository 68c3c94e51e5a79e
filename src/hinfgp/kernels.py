"""Covariance functions of complex Gaussian processes on the exterior of the unit disk.

A zero-mean complex Gaussian process f(z) indexed by points of the closed
exterior disk E = {z : |z| >= 1} is specified by a *pair* of covariance
functions: the Hermitian covariance k(z, w) = E[f(z) f(w)*] and the
complementary covariance kt(z, w) = E[f(z) f(w)].  Realizations of such a
process are candidate transfer functions; processes whose paths have real
impulse responses satisfy the conjugate symmetry f(z*) = f(z)*, which at the
covariance level reads k(z, z) = k(z*, z*) and k(z, z) = kt(z, z*).

This module provides the built-in covariance families

* ``geometric_kernel`` / ``exponential_kernel`` / ``stationary_kernel`` —
  Hermitian stationary processes f(z) = sum_n a_n w_n z^{-n} with nonnegative
  l1 coefficient sequences {a_n^2},
* ``cozine_kernel`` — a random damped-cosine (second-order resonance) process,
* ``mixture_kernel`` — nonnegative combinations,

plus Gram-matrix assembly, the real/imaginary part decomposition used by
the H-infinity membership checks, and ``KernelFamily``: a config record
parsed once into a map from tunable hyperparameters to kernels, which binds
to fixed sites for repeated Gram evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

__all__ = [
    "ComplexKernel",
    "StationarySequence",
    "CozineParams",
    "geometric_kernel",
    "exponential_kernel",
    "stationary_kernel",
    "cozine_kernel",
    "mixture_kernel",
    "real_imag_kernels",
    "gram",
    "from_config",
    "Domain",
    "KernelFamily",
    "BoundFamily",
]

KernelFn = Callable[..., np.ndarray]


@dataclass(frozen=True, eq=False)
class ComplexKernel:
    """A paired Hermitian/complementary covariance over the closed exterior disk.

    ``hermitian_eval(z, w)`` evaluates k(z, w) = E[f(z) f(w)*] and
    ``complementary_eval(z, w)`` evaluates kt(z, w) = E[f(z) f(w)].  Both
    callables accept scalars or broadcastable numpy arrays and are pure
    functions, safe to call concurrently.  Evaluation is valid for
    |z|, |w| >= 1 (every built-in family is finite on the unit circle itself).
    """

    hermitian_eval: KernelFn
    complementary_eval: KernelFn


@dataclass(frozen=True)
class StationarySequence:
    """Nonnegative l1 coefficients {a_n^2} of a Hermitian stationary process.

    The process is f(z) = sum_{n>=0} a_n w_n z^{-n} with i.i.d. standard real
    normal w_n, so k(z, w) = sum_n a_n^2 (zw*)^{-n}.  ``kind`` selects either a
    closed-form family ("geometric": a_n^2 = alpha^n; "exponential":
    a_n^2 = 1/n!) or an explicit finite list of a_n^2 values.
    """

    kind: str
    alpha: float | None = None
    a_sq: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.kind == "geometric":
            if self.alpha is None or not 0.0 < self.alpha < 1.0:
                raise ValueError(f"geometric sequence needs alpha in (0, 1), got {self.alpha}")
        elif self.kind == "exponential":
            pass
        elif self.kind == "explicit":
            if self.a_sq is None or len(self.a_sq) == 0:
                raise ValueError("explicit sequence needs at least one coefficient")
            if any(c < 0.0 for c in self.a_sq):
                raise ValueError("sequence coefficients a_n^2 must be nonnegative")
        else:
            raise ValueError(f"unknown sequence kind {self.kind!r}")

    @classmethod
    def geometric(cls, alpha: float) -> "StationarySequence":
        return cls("geometric", alpha=float(alpha))

    @classmethod
    def exponential(cls) -> "StationarySequence":
        return cls("exponential")

    @classmethod
    def explicit(cls, a_sq: Sequence[float]) -> "StationarySequence":
        return cls("explicit", a_sq=tuple(float(c) for c in a_sq))

    def coefficients(self, count: int) -> np.ndarray:
        """First ``count`` amplitude coefficients a_n = sqrt(a_n^2), n = 0..count-1."""
        n = np.arange(count, dtype=float)
        if self.kind == "geometric":
            return self.alpha ** (n / 2.0)
        if self.kind == "exponential":
            # a_n = 1/sqrt(n!), built iteratively to avoid factorial overflow
            a = np.empty(count)
            val = 1.0
            for i in range(count):
                a[i] = val
                val /= math.sqrt(i + 1.0)
            return a
        out = np.zeros(count)
        stored = np.sqrt(np.asarray(self.a_sq[:count]))
        out[: stored.size] = stored
        return out

    @property
    def sum_a(self) -> float:
        """sum_n a_n (finite: the amplitude sequence is summable for all kinds)."""
        if self.kind == "geometric":
            return 1.0 / (1.0 - math.sqrt(self.alpha))
        if self.kind == "exponential":
            total, term, n = 0.0, 1.0, 0
            while term > 1e-18:
                total += term
                n += 1
                term /= math.sqrt(n)
            return total
        return float(np.sum(np.sqrt(self.a_sq)))

    def describe(self) -> str:
        if self.kind == "geometric":
            return f"geometric(alpha={self.alpha})"
        if self.kind == "exponential":
            return "exponential"
        return f"explicit(n={len(self.a_sq)})"


@dataclass(frozen=True)
class CozineParams:
    """Damped-resonance parameters: pole radius ``a`` in (0,1), angle ``omega0`` in [0, pi]."""

    a: float
    omega0: float

    def __post_init__(self) -> None:
        _resonance(self.a, self.omega0)


# Each family's covariance is written once, as a function of the site arrays
# that do not depend on its parameters (the product p = zw*, or the
# reciprocals 1/z and 1/w*).  ``KernelFamily._hermitian`` is the one place
# that applies them; kernels, complementary parts and site-bound Grams all
# come from it.


def _geometric(p, alpha):
    """sum_n alpha^n p^{-n} = p/(p - alpha)."""
    return p / (p - alpha)


def _h2(p):
    """The Hardy space kernel: the geometric series at alpha = 1, singular at p = 1."""
    if np.any(p == 1.0):
        raise ValueError("h2 kernel is singular at zw* = 1")
    return _geometric(p, 1.0)


def _exponential(p):
    """sum_n p^{-n}/n! = exp(1/p)."""
    if np.any(p == 0):
        raise ValueError("exponential kernel is undefined at zw* = 0 or zw = 0")
    return np.exp(1.0 / p)


def _power_series(coeffs: np.ndarray, p):
    """sum_n coeffs[n] * p^{-n}, evaluated by Horner's rule in 1/p."""
    return np.polynomial.polynomial.polyval(1.0 / np.asarray(p, dtype=complex), coeffs)


def _cozine_quad(a, c, x):
    return 1.0 - 2.0 * a * c * x + (a * x) ** 2


def _cozine(a, c, zi, wi):
    """(1 - a c (zi + wi) + a^2 zi wi) / (D(zi) D(wi)) with D(x) = 1 - 2 a c x + (a x)^2."""
    num = 1.0 - a * c * (zi + wi) + a * a * zi * wi
    return num / (_cozine_quad(a, c, zi) * _cozine_quad(a, c, wi))


def _mixture(w1, k1, w2, k2, *args):
    """w1 k1(*args) + w2 k2(*args), each part released once it is scaled."""
    return w1 * k1(*args) + w2 * k2(*args)


# Parameter checks: each maps a node's scalar parameters to the validated
# numbers its formula takes.


def _alpha(alpha) -> tuple[float]:
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    return (float(alpha),)


def _resonance(a, omega0) -> tuple[float, float]:
    if not 0.0 < a < 1.0:
        raise ValueError(f"pole radius a must lie in (0, 1), got {a}")
    if not 0.0 <= omega0 <= math.pi:
        raise ValueError(f"omega0 must lie in [0, pi], got {omega0}")
    return float(a), math.cos(omega0)


def _weights(w1, w2) -> tuple[float, float]:
    if w1 < 0.0 or w2 < 0.0:
        raise ValueError(f"mixture weights must be nonnegative, got {w1}, {w2}")
    return float(w1), float(w2)


# family name -> (its scalar parameters, in order, and their check)
_CHECKS = {
    "geometric": (("alpha",), _alpha),
    "cozine": (("a", "omega0"), _resonance),
    "mixture": (("weight1", "weight2"), _weights),
}


@dataclass(frozen=True)
class Domain:
    """Allowed range of one hyperparameter: the positive half-line or an interval.

    Values are validated against the closed hull; the optimizer works in
    unconstrained coordinates (log for positive parameters, logit for
    intervals), so search never leaves the open interior.
    """

    kind: str  # "positive" | "interval"
    lo: float = 0.0
    hi: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in ("positive", "interval"):
            raise ValueError(f"unknown domain kind {self.kind!r}")
        if self.kind == "interval" and not self.lo < self.hi:
            raise ValueError(f"empty interval domain [{self.lo}, {self.hi}]")

    @classmethod
    def positive(cls) -> "Domain":
        return cls("positive")

    @classmethod
    def interval(cls, lo: float, hi: float) -> "Domain":
        return cls("interval", float(lo), float(hi))

    def contains(self, x: float) -> bool:
        if self.kind == "positive":
            return x >= 0.0
        return self.lo <= x <= self.hi

    def to_unconstrained(self, x: float) -> float:
        if self.kind == "positive":
            if x <= 0.0:
                raise ValueError(f"positive-domain value must be > 0 to transform, got {x}")
            return math.log(x)
        frac = (x - self.lo) / (self.hi - self.lo)
        if not 0.0 < frac < 1.0:
            raise ValueError(f"interval-domain value must be strictly interior, got {x}")
        return math.log(frac / (1.0 - frac))

    def from_unconstrained(self, t: float) -> float:
        if self.kind == "positive":
            return math.exp(min(max(t, -690.0), 690.0))
        frac = 1.0 / (1.0 + math.exp(-min(max(t, -36.0), 36.0)))
        return self.lo + (self.hi - self.lo) * frac


# tunable parameter name -> the range the tuner searches: the closed hull of
# what its check above accepts (alpha^n summable, cozine poles inside the
# disk, nonnegative mixture weights)
_DOMAINS = {
    "alpha": Domain.interval(0.0, 1.0),
    "a": Domain.interval(0.0, 1.0),
    "omega0": Domain.interval(0.0, math.pi),
    "weight1": Domain.positive(),
    "weight2": Domain.positive(),
}


def _node(name: str, **params) -> ComplexKernel:
    """The kernel of a parameter-free family node."""
    return KernelFamily(name, params, "", ())({})


def geometric_kernel(alpha: float) -> ComplexKernel:
    """Stationary kernel with a_n^2 = alpha^n: k(z,w) = zw*/(zw* - alpha).

    The complementary part sums the same series in zw instead of zw*:
    kt(z,w) = zw/(zw - alpha).  Note kt(z, w) = k(z, w*), the structural
    signature of a real impulse response.
    """
    return _node("geometric", alpha=alpha)


def exponential_kernel() -> ComplexKernel:
    """Stationary kernel with a_n^2 = 1/n!: k(z,w) = exp(1/(zw*)), kt(z,w) = exp(1/(zw)).

    These are the closed forms of the series sum_n (zw*)^{-n} / n!.
    """
    return _node("exponential")


def h2_kernel(z, w):
    """Reproducing kernel of the Hardy space H2: r(z, w) = zw*/(zw* - 1).

    Defined for |zw*| > 1; the point zw* = 1 is the kernel's singularity.
    """
    return _h2(np.multiply(z, np.conj(w)))


def _zero_complementary(z, w):
    return 0.0 * np.multiply(z, w)


def stationary_kernel(seq: StationarySequence) -> ComplexKernel:
    """Kernel of the stationary process defined by ``seq``.

    Closed-form tags delegate to the analytic formulas; explicit lists are
    summed exactly over their stored coefficients (n = 0..N).
    """
    if seq.kind == "geometric":
        return geometric_kernel(seq.alpha)
    if seq.kind == "exponential":
        return exponential_kernel()
    return _node("stationary_list", coefficients=seq.a_sq)


def cozine_kernel(params: CozineParams) -> ComplexKernel:
    """Covariance of the random damped-cosine process.

    The process is the second-order rational transfer function

        f(z) = (X - a (X cos w0 - Y sin w0) z^{-1}) / (1 - 2 a cos(w0) z^{-1} + a^2 z^{-2})

    with X, Y i.i.d. standard normal; its impulse response is
    h(n) = a^n (X cos(n w0) + Y sin(n w0)).  Both covariance parts are rational:

        k(z, w)  = (1 - a cos(w0) (z^{-1} + (w*)^{-1}) + a^2 (z w*)^{-1}) / (D(z^{-1}) D((w*)^{-1}))

    with D(x) = 1 - 2 a cos(w0) x + a^2 x^2, and kt(z, w) = k(z, w*).  The poles
    a e^{+-j w0} lie strictly inside the unit disk, so evaluation is finite for
    |z|, |w| >= 1.
    """
    return _node("cozine", a=params.a, omega0=params.omega0)


def mixture_kernel(k1: ComplexKernel, w1: float, k2: ComplexKernel, w2: float) -> ComplexKernel:
    """Pointwise nonnegative combination w1*k1 + w2*k2 of both covariance parts."""
    w1, w2 = _weights(w1, w2)

    def herm(z, w):
        return _mixture(w1, k1.hermitian_eval, w2, k2.hermitian_eval, z, w)

    def comp(z, w):
        return _mixture(w1, k1.complementary_eval, w2, k2.complementary_eval, z, w)

    return ComplexKernel(herm, comp)


def real_imag_kernels(kernel: ComplexKernel):
    """Real-valued covariances of Re f and Im f.

    Returns callables ``(k_r, k_i)`` with k_r = Re{k + kt}/2 and
    k_i = Re{k - kt}/2; both are real symmetric PSD kernels, and
    k_r(z, w) + k_i(z, w) = Re k(z, w) by construction.
    """

    def k_r(z, w):
        return _part_values(kernel.hermitian_eval(z, w), kernel.complementary_eval(z, w), imag=False)

    def k_i(z, w):
        return _part_values(kernel.hermitian_eval(z, w), kernel.complementary_eval(z, w), imag=True)

    return k_r, k_i


def _part_values(herm, comp, imag: bool):
    """Re{k + kt}/2 (the covariance of Re f) or, with ``imag``, Re{k - kt}/2
    (that of Im f), from values ``herm`` of k and ``comp`` of kt."""
    return 0.5 * np.real(herm - comp if imag else herm + comp)


def _check_sites(pts: np.ndarray, noise_var: float) -> None:
    if pts.ndim != 1:
        raise ValueError("points must be a one-dimensional sequence of complex numbers")
    if noise_var < 0.0:
        raise ValueError(f"noise_var must be nonnegative, got {noise_var}")
    if np.any(np.abs(pts) < 1.0 - 1e-12):
        bad = pts[np.abs(pts) < 1.0 - 1e-12][0]
        raise ValueError(f"point {bad} lies inside the kernel domain (|z| >= 1)")


def gram(
    kernel: ComplexKernel,
    points: Sequence[complex],
    part: str = "hermitian",
    noise_var: float = 0.0,
) -> np.ndarray:
    """Covariance matrix of the process at ``points``.

    ``part="hermitian"`` gives K[i,j] = k(z_i, z_j) plus ``noise_var`` on the
    diagonal; ``part="complementary"`` gives Kt[i,j] = kt(z_i, z_j).
    Observation noise is modeled as proper (circular), so it never enters the
    complementary part — requesting it there is an error.
    """
    pts = np.asarray(points, dtype=complex)
    _check_sites(pts, noise_var)
    z = pts[:, None]
    w = pts[None, :]
    if part == "hermitian":
        mat = np.asarray(kernel.hermitian_eval(z, w), dtype=complex)
        if noise_var > 0.0:
            mat = mat + noise_var * np.eye(pts.size)
        return mat
    if part == "complementary":
        if noise_var > 0.0:
            raise ValueError("observation noise is proper: no noise term on the complementary Gram")
        return np.asarray(kernel.complementary_eval(z, w), dtype=complex)
    raise ValueError(f"part must be 'hermitian' or 'complementary', got {part!r}")


_CONFIG_PARAMS = {
    "geometric": {"alpha"},
    "exponential": set(),
    "cozine": {"a", "omega0"},
    "stationary_list": {"coefficients"},
    "mixture": {"weight1", "weight2"},
}
_COMPONENTS = ("component1", "component2")


class KernelFamily:
    """A kernel family parsed once from a config record, with named tunable parameters.

    ``family(values)`` is the ComplexKernel at the hyperparameters ``values``,
    a {path: value} map over the family's tunable paths: a path names a scalar
    parameter of the record, such as ``"alpha"`` or ``"component2.omega0"``.
    Parameters absent from ``values`` keep their record values.  Nothing is
    copied or parsed per call, and values outside a family's domain raise
    ``ValueError``.  ``bind`` fixes the sites for repeated Gram evaluations.

    The family declares what a tuner needs: ``tunable``, its paths in the
    order given, ``domains``, each path's :class:`Domain`,
    ``record_value(path)``, each path's starting value, and
    ``unconstrained_start()``, those values in the search's coordinates.

    Every family's prior has a real impulse response, so its complementary
    part is kt(z, w) = k(z, w*): each node evaluates only its Hermitian
    covariance (``_hermitian``), and the ``circular`` member zeroes kt.

    Build one with :meth:`from_config`.  Each instance is a node of the
    record's tree (``name``, ``params``, ``children``).
    """

    def __init__(self, name: str, params: Mapping, prefix: str, tunable: tuple, children=()):
        self.name = name
        self.params = params
        self.children = tuple(children)
        # parameter name -> hyperparameter path, for the tunable ones
        self.slots = {n: prefix + n for n in _CONFIG_PARAMS.get(name, ()) if prefix + n in tunable}
        mapped = set(self.slots.values()).union(*(c.tunable for c in self.children))
        self.tunable = tuple(path for path in tunable if path in mapped)
        self.domains = {path: _DOMAINS[path.rsplit(".", 1)[-1]] for path in self.tunable}
        self._numbers({})  # validates the record's values

    @classmethod
    def from_config(
        cls, record: Mapping, tunable: Sequence[str] = (), verify: bool = False
    ) -> "KernelFamily":
        """Parse a kernel config record (see :func:`from_config`) into a family.

        ``tunable`` lists the paths of the parameters the family maps; each
        must name a scalar parameter with a value in the record.  ``verify``
        also accepts the verify-only members: ``{"name": "h2"}`` (the Hardy
        space kernel, a natural diverging candidate) and a boolean top-level
        ``circular`` key, which zeroes the complementary part (a deliberate
        symmetry-breaking counterexample).
        """
        tunable = tuple(tunable)
        family = _parse_family(record, "", tunable, verify)
        if len(set(tunable)) != len(tunable):
            raise ValueError(f"duplicate tunable path in {tunable}")
        for path in tunable:
            family.record_value(path)
        return family

    def record_value(self, path: str) -> float:
        """The record's value of the tunable parameter at ``path``.

        Paths of a ``circular`` family name the parameters of the kernel it wraps.
        """
        *parents, leaf = path.split(".")
        if leaf not in _DOMAINS:
            raise ValueError(f"parameter '{path}' is not tunable")
        node = self.children[0] if self.name == "circular" else self
        for part in parents:
            if part not in _COMPONENTS or node.name != "mixture":
                raise ValueError(f"tunable path '{path}' does not resolve in the kernel record")
            node = node.children[_COMPONENTS.index(part)]
        if leaf not in node.params:
            raise ValueError(f"tunable path '{path}' has no initial value in the kernel record")
        return float(node.params[leaf])

    def unconstrained_start(self) -> np.ndarray:
        """The tuner's starting point: each tunable path's record value mapped
        through its domain's ``to_unconstrained``, in ``tunable`` order.

        A value on its range's boundary, such as a weight of 0 or an angle of
        0, cannot be transformed and raises ``ValueError`` naming its path.
        """
        start = []
        for path in self.tunable:
            try:
                start.append(self.domains[path].to_unconstrained(self.record_value(path)))
            except ValueError as exc:
                raise ValueError(f"tunable parameter '{path}' cannot start the search: {exc}") from exc
        return np.array(start)

    def __call__(self, values: Mapping[str, float]) -> ComplexKernel:
        values = dict(self._checked(values))
        self._check_tree(values)  # out-of-domain values raise here, not at evaluation

        def herm(z, w):
            return self._hermitian(z, w)(values)

        def comp(z, w):
            return herm(z, np.conj(w))

        return ComplexKernel(herm, _zero_complementary if self.name == "circular" else comp)

    def bind(self, sites: Sequence[complex], noise_var: float = 0.0) -> "BoundFamily":
        """This family at fixed sites z_i with observation noise ``noise_var``.

        Binding checks the sites against the kernel domain and computes what
        does not depend on the hyperparameters once (see ``_hermitian``).  The
        bound ``gram(values)`` then equals ``gram(self(values), sites,
        "hermitian", noise_var)`` bit for bit.  A family without tunable
        parameters returns one read-only Gram at every call.
        """
        pts = np.asarray(sites, dtype=complex)
        _check_sites(pts, noise_var)
        hermitian = self._hermitian(pts[:, None], pts[None, :])
        if not self.tunable:
            hermitian({}).flags.writeable = False
        if noise_var > 0.0:
            noise = noise_var * np.eye(pts.size)
            return BoundFamily(self, pts, noise_var, lambda values: hermitian(self._checked(values)) + noise)
        return BoundFamily(self, pts, noise_var, lambda values: hermitian(self._checked(values)))

    def _checked(self, values: Mapping[str, float]) -> Mapping[str, float]:
        unknown = set(values).difference(self.tunable)
        if unknown:
            raise ValueError(
                f"unknown hyperparameter path(s) {sorted(unknown)}; tunable: {sorted(self.tunable)}"
            )
        return values

    def _check_tree(self, values: Mapping[str, float]) -> None:
        self._numbers(values)
        for child in self.children:
            child._check_tree(values)

    def _value(self, values: Mapping[str, float], name: str) -> float:
        path = self.slots.get(name)
        if path is not None and path in values:
            return float(values[path])
        return self.params.get(name, 1.0)  # only mixture weights are optional, defaulting to 1

    def _numbers(self, values: Mapping[str, float]) -> tuple:
        """This node's validated numbers at ``values``: (alpha,), (a, cos omega0),
        (weight1, weight2), or () for a node without scalar parameters."""
        names, check = _CHECKS.get(self.name, ((), lambda: ()))
        return check(*[self._value(values, n) for n in names])

    def _hermitian(self, z, w):
        """values -> k(z, w), this node's Hermitian covariance at the hyperparameters ``values``.

        What does not depend on ``values`` is computed here, once per (z, w):
        the product zw* (series families), the reciprocals 1/z and 1/w*
        (cozine), the children's parts, and the whole value of a node
        without tunable parameters.
        """
        if self.name == "cozine":
            zi, wi = 1.0 / np.asarray(z, dtype=complex), 1.0 / np.conj(w)

            def herm(values):
                return _cozine(*self._numbers(values), zi, wi)

        elif self.children:  # mixture or circular
            parts = [child._hermitian(z, w) for child in self.children]
            if self.name == "circular":
                herm = parts[0]
            else:

                def herm(values):
                    w1, w2 = self._numbers(values)
                    return _mixture(w1, parts[0], w2, parts[1], values)

        else:  # a series in p = zw*
            p = np.multiply(z, np.conj(w))
            if self.name == "geometric":

                def herm(values):
                    return _geometric(p, *self._numbers(values))

            elif self.name == "exponential":
                herm = _constant(_exponential(p))
            elif self.name == "h2":
                herm = _constant(_h2(p))
            else:
                herm = _constant(_power_series(np.asarray(self.params["coefficients"], dtype=float), p))
        return herm if self.tunable else _constant(herm({}))


def _constant(value):
    return lambda values: value


@dataclass(frozen=True, eq=False)
class BoundFamily:
    """A kernel family bound to sites and a noise variance (see :meth:`KernelFamily.bind`).

    ``gram(values)`` is K_yy = [k(z_i, z_j)] + noise_var I at the
    hyperparameters ``values``.
    """

    family: Callable[[Mapping[str, float]], ComplexKernel]
    sites: np.ndarray
    noise_var: float
    gram: Callable[[Mapping[str, float]], np.ndarray]


def _parse_family(record: Mapping, prefix: str, tunable: tuple, verify: bool) -> KernelFamily:
    if not isinstance(record, Mapping):
        raise ValueError(f"kernel config must be a mapping, got {type(record).__name__}")
    if verify:
        record = dict(record)
        circular = record.pop("circular", False)
        if not isinstance(circular, bool):
            raise ValueError(f"'circular' must be a boolean, got {circular!r}")
        if circular:
            return KernelFamily("circular", {}, prefix, tunable, [_parse_family(record, prefix, tunable, True)])
        if record.get("name") == "h2":
            unknown = set(record) - {"name"}
            if unknown:
                raise ValueError(f"unknown key(s) {sorted(unknown)} in h2 kernel record")
            return KernelFamily("h2", {}, prefix, tunable)
    name = record.get("name")
    if name not in _CONFIG_PARAMS:
        raise ValueError(
            f"unknown kernel name {name!r}; expected one of {sorted(_CONFIG_PARAMS)}"
        )
    allowed_keys = {"name", "params"} | (set(_COMPONENTS) if name == "mixture" else set())
    unknown = set(record) - allowed_keys
    if unknown:
        raise ValueError(f"unknown kernel config key(s) {sorted(unknown)} for kernel {name!r}")
    params = dict(record.get("params", {}))
    unknown_params = set(params) - _CONFIG_PARAMS[name]
    if unknown_params:
        raise ValueError(f"unknown parameter(s) {sorted(unknown_params)} for kernel {name!r}")
    if name == "geometric" and "alpha" not in params:
        raise ValueError("geometric kernel config requires 'alpha'")
    if name == "cozine":
        missing = {"a", "omega0"} - set(params)
        if missing:
            raise ValueError(f"cozine kernel config requires {sorted(missing)}")
    if name == "stationary_list":
        if "coefficients" not in params:
            raise ValueError("stationary_list kernel config requires 'coefficients'")
        params["coefficients"] = StationarySequence.explicit(params["coefficients"]).a_sq
    children = []
    if name == "mixture":
        for key in _COMPONENTS:
            if key not in record:
                raise ValueError(f"mixture kernel config requires nested record {key!r}")
        children = [_parse_family(record[key], f"{prefix}{key}.", tunable, False) for key in _COMPONENTS]
    return KernelFamily(name, params, prefix, tunable, children)


def from_config(record: Mapping) -> ComplexKernel:
    """Build a kernel from a declarative config record.

    The record holds ``name`` (one of "geometric", "exponential", "cozine",
    "stationary_list", "mixture") and a ``params`` map; mixtures additionally
    carry nested ``component1``/``component2`` records.  Unknown keys anywhere
    are errors, so configs fail fast instead of silently ignoring typos.
    """
    return KernelFamily.from_config(record)({})
