"""Covariance functions of complex Gaussian processes on the exterior of the unit disk.

A zero-mean complex Gaussian process f(z) indexed by points of the closed
exterior disk E = {z : |z| >= 1} is specified by a *pair* of covariance
functions: the Hermitian covariance k(z, w) = E[f(z) f(w)*] and the
complementary covariance kt(z, w) = E[f(z) f(w)].  Realizations of such a
process are candidate transfer functions; processes whose paths have real
impulse responses satisfy the conjugate symmetry f(z*) = f(z)*, which at the
covariance level reads k(z, z) = k(z*, z*) and k(z, z) = kt(z, z*).

This module provides the covariance families, each a node of a config record
(see ``from_config``):

* ``geometric``, ``exponential`` and ``stationary_list`` — Hermitian
  stationary processes f(z) = sum_n a_n w_n z^{-n} with nonnegative l1
  coefficient sequences {a_n^2} (alpha^n, 1/n!, or an explicit list),
* ``cozine`` — a random damped-cosine (second-order resonance) process,
* ``mixture`` — a nonnegative combination of two records,

with the constructors ``geometric_kernel``, ``exponential_kernel`` and
``cozine_kernel`` for the families set by scalars alone.  A verify record
may also name ``h2``, the Hardy space kernel, and set the boolean
``circular`` flag of its top node, which zeroes the complementary part.
Records are read by the same reader as every other config section
(``hinfgp._config``).  It also holds Gram-matrix assembly, the
real/imaginary part decomposition used by the H-infinity membership checks,
and ``KernelFamily``: a config record parsed once into a map from tunable
hyperparameters to kernels, which binds to fixed sites for repeated Gram
evaluation.

Every family but ``h2`` and a circular one is also a sum of terms with real
coefficients, f(z) = sum_j c_j psi_j(z) with c_j i.i.d. N(0, 1), so that
k(z, w) = Psi(z) Psi(w)^H and kt(z, w) = Psi(z) Psi(w)^T.  A kernel from a
family carries these terms (``ComplexKernel._terms``): a_n z^{-n} for the
stationary families, with a_n from their law in ``hinfgp.sampling``, cut
where the tail of sum_n a_n^2 falls to float eps of the sum (exact for a
list); cozine's two rational terms, exactly; a mixture's members' terms
scaled by sqrt(w).  ``hinfgp.regression`` reads them to build the widely
linear posterior in coefficient space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from ._config import _REQUIRED, _TOP, _is_real, _Section
from .sampling import path_law

__all__ = [
    "ComplexKernel",
    "geometric_kernel",
    "exponential_kernel",
    "cozine_kernel",
    "real_imag_kernels",
    "gram",
    "from_config",
    "Domain",
    "KernelFamily",
]

KernelFn = Callable[..., np.ndarray]

# A stationary series keeps its terms up to the first N whose tail
# sum_{n > N} a_n^2 is at most _TAIL_EPS times the whole sum; one that needs
# more than _MAX_TERMS terms has no expansion (a geometric alpha above about
# 0.93).  The sums read a_n up to twice _MAX_TERMS: at geometric or faster
# decay, what lies beyond is below _TAIL_EPS^2 of the sum.
_TAIL_EPS = float(np.finfo(float).eps)
_MAX_TERMS = 512


@dataclass(frozen=True, eq=False)
class ComplexKernel:
    """A paired Hermitian/complementary covariance over the closed exterior disk.

    ``hermitian_eval(z, w)`` evaluates k(z, w) = E[f(z) f(w)*] and
    ``complementary_eval(z, w)`` evaluates kt(z, w) = E[f(z) f(w)].  Both
    callables accept scalars or broadcastable numpy arrays and are pure
    functions, safe to call concurrently.  Evaluation is valid for
    |z|, |w| >= 1 (every built-in family is finite on the unit circle itself).

    ``_terms`` is the kernel's finite expansion in real-coefficient terms
    (:class:`_Terms`), set by :class:`KernelFamily` for the families that
    have one; ``None`` for ``h2``, a circular family and a kernel built by
    hand.
    """

    hermitian_eval: KernelFn
    complementary_eval: KernelFn
    _terms: _Terms | None = field(default=None, repr=False)


class _Terms(NamedTuple):
    """A kernel as a sum of r terms with real coefficients, f(z) = sum_j c_j
    psi_j(z) for i.i.d. standard normal c_j, so that k(z, w) = Psi(z) Psi(w)^H
    and kt(z, w) = Psi(z) Psi(w)^T.

    ``psi`` maps q points to the q x r matrix Psi.  ``tail`` bounds
    |k - Psi Psi^H| and |kt - Psi Psi^T| over |z|, |w| >= 1: the sum of the
    a_n^2 a truncated series leaves out (|z^{-n}| <= 1 there), 0.0 for an
    exact expansion.
    """

    psi: Callable[[np.ndarray], np.ndarray]
    tail: float


# Each family's covariance is written once, as a function of the site arrays
# that do not depend on its parameters (the product p = zw*, or the
# reciprocals 1/z and 1/w*).  ``KernelFamily._hermitian`` is the one place
# that applies them; kernels, complementary parts and site-bound Grams all
# come from it.


def _geometric(p, alpha):
    """sum_n alpha^n p^{-n} = p/(p - alpha)."""
    return p / (p - alpha)


def _d_geometric(p, alpha):
    """d/d alpha of ``_geometric``: p/(p - alpha)^2."""
    return p / (p - alpha) ** 2


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


def _cozine_parts(a, c, zi, wi):
    """The numerator 1 - a c (zi + wi) + a^2 zi wi and the denominators D(zi), D(wi)."""
    return 1.0 - a * c * (zi + wi) + a * a * zi * wi, _cozine_quad(a, c, zi), _cozine_quad(a, c, wi)


def _cozine(a, c, zi, wi):
    """(1 - a c (zi + wi) + a^2 zi wi) / (D(zi) D(wi)) with D(x) = 1 - 2 a c x + (a x)^2."""
    num, dz, dw = _cozine_parts(a, c, zi, wi)
    return num / (dz * dw)


def _d_cozine(a, c, zi, wi):
    """``_cozine(a, c, zi, wi)`` with its derivatives in a and c.

    The quotient rule on k = num / den, den = D(zi) D(wi), gives
    dk = d num / den - k (dD(zi) / D(zi) + dD(wi) / D(wi)), where
    dD(x)/da = 2 x (a x - c) and dD(x)/dc = -2 a x.
    """
    num, dz, dw = _cozine_parts(a, c, zi, wi)
    den = dz * dw
    k = num / den
    s = zi + wi
    d_a = (2.0 * a * zi * wi - c * s) / den - k * (2.0 * zi * (a * zi - c) / dz + 2.0 * wi * (a * wi - c) / dw)
    d_c = -a * s / den + k * (2.0 * a * zi / dz + 2.0 * a * wi / dw)
    return k, d_a, d_c


def _mixture(w1, part1, w2, part2):
    """w1 k1 + w2 k2 from the parts' (k_i, {path: dk_i}) pairs, with its
    derivatives: each part's own, scaled by its weight.  The derivative in
    w_i is k_i itself, which the caller keys by the weight's path.
    """
    (k1, d1), (k2, d2) = part1, part2
    derivatives = {path: w1 * d for path, d in d1.items()}
    derivatives.update((path, w2 * d) for path, d in d2.items())
    return w1 * k1 + w2 * k2, derivatives


# Parameter checks: each maps a node's scalar parameters to the validated
# numbers its formula takes.


def _alpha(alpha) -> tuple[float]:
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    return (float(alpha),)


def _resonance(a, omega0) -> tuple[float, float]:
    if not 0.0 < a < 1.0:
        raise ValueError(f"pole radius 'a' must lie in (0, 1), got {a}")
    if not 0.0 <= omega0 <= math.pi:
        raise ValueError(f"omega0 must lie in [0, pi], got {omega0}")
    return float(a), math.cos(omega0)


def _weights(w1, w2) -> tuple[float, float]:
    if not (w1 >= 0.0 and w2 >= 0.0):
        raise ValueError(f"mixture weights 'weight1' and 'weight2' must be nonnegative, got {w1}, {w2}")
    return float(w1), float(w2)


# family name -> (its parameters, in order, and the check of their values;
# None for a family without scalar parameters).  Only verify records may name
# ``h2``.
_CHECKS = {
    "geometric": (("alpha",), _alpha),
    "exponential": ((), None),
    "cozine": (("a", "omega0"), _resonance),
    "stationary_list": (("coefficients",), None),
    "mixture": (("weight1", "weight2"), _weights),
    "h2": ((), None),
}
_COMPONENTS = ("component1", "component2")


@dataclass(frozen=True)
class Domain:
    """Allowed range of one hyperparameter: the positive half-line or an interval.

    Values are validated against the closed hull; the optimizer works in
    unconstrained coordinates (log for positive parameters, logit for
    intervals), so search never leaves the open interior.  Those coordinates
    are clamped to [-``limit``, ``limit``], where exp and the logistic stay
    finite and off the boundary; ``slope`` is the map's exact derivative,
    0 beyond the clamp.
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

    def to_unconstrained(self, x: float) -> float:
        if self.kind == "positive":
            if x <= 0.0:
                raise ValueError(f"positive-domain value must be > 0 to transform, got {x}")
            return math.log(x)
        frac = (x - self.lo) / (self.hi - self.lo)
        if not 0.0 < frac < 1.0:
            raise ValueError(f"interval-domain value must be strictly interior, got {x}")
        return math.log(frac / (1.0 - frac))

    @property
    def limit(self) -> float:
        return 690.0 if self.kind == "positive" else 36.0

    def from_unconstrained(self, t: float) -> float:
        t = min(max(t, -self.limit), self.limit)
        if self.kind == "positive":
            return math.exp(t)
        return self.lo + (self.hi - self.lo) * _logistic(t)

    def slope(self, t: float) -> float:
        """d from_unconstrained / dt."""
        if abs(t) > self.limit:
            return 0.0
        if self.kind == "positive":
            return math.exp(t)
        frac = _logistic(t)
        return (self.hi - self.lo) * frac * (1.0 - frac)


def _logistic(t: float) -> float:
    return 1.0 / (1.0 + math.exp(-t))


# tunable parameter name -> the range the tuner searches: the closed hull of
# what its check above accepts (alpha^n summable, cozine poles inside the
# disk, nonnegative mixture weights), except that alpha stops at 0.95.  As
# alpha -> 1 with weight1 -> 0, weight1/(1 - alpha) stays finite while the
# correlation (1 - alpha)/|1 - alpha e^{-i d}| of sites d rad apart vanishes:
# the geometric member turns into white noise on K_yy's diagonal, a second
# noise variance that the likelihood may prefer and the posterior mean pays
# for.  At 0.95, neighbouring sites of a 25-filter ETFE (d = 0.12) keep a
# correlation of 0.39.
_DOMAINS = {
    "alpha": Domain.interval(0.0, 0.95),
    "a": Domain.interval(0.0, 1.0),
    "omega0": Domain.interval(0.0, math.pi),
    "weight1": Domain.positive(),
    "weight2": Domain.positive(),
}


def _node(name: str, **params) -> ComplexKernel:
    """The kernel of the record ``{"name": name, "params": params}``."""
    return KernelFamily.from_config({"name": name, "params": params})({})


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


def cozine_kernel(a: float, omega0: float) -> ComplexKernel:
    """Covariance of the random damped-cosine process.

    The process is the second-order rational transfer function

        f(z) = (X - a (X cos w0 - Y sin w0) z^{-1}) / (1 - 2 a cos(w0) z^{-1} + a^2 z^{-2})

    with X, Y i.i.d. standard normal; its impulse response is
    h(n) = a^n (X cos(n w0) + Y sin(n w0)).  Both covariance parts are rational:

        k(z, w)  = (1 - a cos(w0) (z^{-1} + (w*)^{-1}) + a^2 (z w*)^{-1}) / (D(z^{-1}) D((w*)^{-1}))

    with D(x) = 1 - 2 a cos(w0) x + a^2 x^2, and kt(z, w) = k(z, w*).  The poles
    a e^{+-j w0} lie strictly inside the unit disk, so evaluation is finite for
    |z|, |w| >= 1.  The pole radius ``a`` lies in (0, 1) and the angle
    ``omega0`` in [0, pi].
    """
    return _node("cozine", a=a, omega0=omega0)


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


def _check_sites(pts: np.ndarray, noise_var: float = 0.0) -> None:
    """The one check of the kernel domain |z| >= 1, for sites and query points
    alike: a NaN or infinite point is outside it too.  ``noise_var`` must be
    finite and nonnegative; a NaN one is refused, not read as zero."""
    if pts.ndim != 1:
        raise ValueError("points must be a one-dimensional sequence of complex numbers")
    if not 0.0 <= noise_var < math.inf:
        raise ValueError(f"noise_var must be nonnegative and finite, got {noise_var}")
    bad = np.flatnonzero(~np.isfinite(pts))
    if bad.size:
        raise ValueError(f"point {pts[bad[0]]} at index {bad[0]} is not finite")
    inside = np.flatnonzero(np.abs(pts) < 1.0 - 1e-12)
    if inside.size:
        raise ValueError(f"point {pts[inside[0]]} at index {inside[0]} lies outside the kernel domain (|z| >= 1)")


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
    covariance (``_hermitian``).  A family whose ``circular`` flag is set
    (verify records only) zeroes kt instead.

    Build one with :meth:`from_config`.  Each instance is a node of the
    record's tree (``name``, ``params``, ``children``, and ``circular``,
    which only a top node may set).
    """

    def __init__(self, name: str, params: Mapping, prefix: str, tunable: tuple, children=(), circular=False):
        self.name = name
        self.params = params
        self.children = tuple(children)
        self.circular = circular
        # scalar parameter name -> hyperparameter path, for the tunable ones
        self.slots = {n: prefix + n for n in _CHECKS[name][0] if n in _DOMAINS and prefix + n in tunable}
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
        ``circular`` key, which sets the flag of the same name: it zeroes the
        complementary part (a deliberate symmetry-breaking counterexample).
        The record is read by the config reader, so a refused key raises
        :class:`~hinfgp.cli.ConfigError` naming its path, such as
        ``'omega0' in kernel.component2.params``.
        """
        tunable = tuple(tunable)
        # read as a config's ``kernel`` section, which must be a mapping
        family = _parse_family(_Section({"kernel": record}, _TOP).section("kernel"), "", tunable, verify)
        if len(set(tunable)) != len(tunable):
            raise ValueError(f"duplicate tunable path in {tunable}")
        for path in tunable:
            family.record_value(path)
        return family

    def record_value(self, path: str) -> float:
        """The record's value of the tunable parameter at ``path``."""
        *parents, leaf = path.split(".")
        if leaf not in _DOMAINS:
            raise ValueError(f"parameter '{path}' is not tunable")
        node = self
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
            return self._hermitian(z, w)(values)[0]

        def comp(z, w):
            return herm(z, np.conj(w))

        if self.circular:
            return ComplexKernel(herm, _zero_complementary)
        return ComplexKernel(herm, comp, self._expansion(values))

    def _expansion(self, values: Mapping[str, float]) -> _Terms | None:
        """This node's terms at the hyperparameters ``values`` (:class:`_Terms`),
        or ``None`` for ``h2`` and for a series longer than ``_MAX_TERMS``.

        A stationary family's terms are a_n z^{-n}, with a_n from its law
        (``sampling.path_law``) at ``values``, cut where the tail falls to
        ``_TAIL_EPS`` of the sum; a finite list is exact.  Cozine is exact in
        two terms, phi1 = (1 - a c x)/D(x) and phi2 = a sin(omega0) x/D(x)
        with x = 1/z: phi1 phi1 + phi2 phi2 is ``_cozine``'s numerator, as
        c^2 + sin^2 = 1.  A mixture joins its members' terms, each scaled by
        sqrt(w), and adds their tails with weight w.
        """
        if self.name == "h2":
            return None
        if self.name == "cozine":
            a, c = self._numbers(values)
            sine = math.sin(self._value(values, "omega0"))

            def psi(z):
                x = 1.0 / z
                den = _cozine_quad(a, c, x)
                return np.stack([(1.0 - a * c * x) / den, a * sine * x / den], axis=1)

            return _Terms(psi, 0.0)
        if self.children:
            parts = [child._expansion(values) for child in self.children]
            if any(part is None for part in parts):
                return None
            weights = self._numbers(values)

            def psi(z):
                return np.hstack([math.sqrt(w) * part.psi(z) for w, part in zip(weights, parts)])

            return _Terms(psi, sum(w * part.tail for w, part in zip(weights, parts)))
        params = {name: self._value(values, name) for name in _CHECKS[self.name][0]}
        count = max(2 * _MAX_TERMS, len(params.get("coefficients", ())))
        amplitudes = path_law(self.name).amplitudes(params, count)
        tails = np.append(np.cumsum(amplitudes[::-1] ** 2)[::-1], 0.0)  # tails[n] = sum_{m >= n} a_m^2
        keep = int(np.argmax(tails[1:] <= _TAIL_EPS * tails[0])) + 1  # terms n < keep
        if keep > _MAX_TERMS:
            return None
        kept = amplitudes[:keep]
        return _Terms(lambda z: np.vander(1.0 / z, keep, increasing=True) * kept, float(tails[keep]))

    def bind(
        self, sites: Sequence[complex], noise_var: float = 0.0
    ) -> Callable[[Mapping[str, float]], tuple[np.ndarray, list]]:
        """This family at fixed sites z_i with observation noise ``noise_var``,
        as the function ``gram_with_derivatives``.

        ``gram_with_derivatives(values)`` is K_yy = [k(z_i, z_j)] + noise_var I
        at the hyperparameters ``values``, with the list of its derivatives
        dK_yy/d theta, one per path of ``tunable``, in that order.  Binding
        checks the sites against the kernel domain and computes what does not
        depend on the hyperparameters once (see ``_hermitian``), and the Gram
        equals ``gram(self(values), sites, "hermitian", noise_var)`` bit for
        bit.  A family without tunable parameters returns one read-only Gram
        at every call.
        """
        pts = np.asarray(sites, dtype=complex)
        _check_sites(pts, noise_var)
        hermitian = self._hermitian(pts[:, None], pts[None, :])
        if not self.tunable:
            hermitian({})[0].flags.writeable = False
        noise = noise_var * np.eye(pts.size) if noise_var > 0.0 else None

        def gram_with_derivatives(values):
            k, derivatives = hermitian(self._checked(values), True)
            return k if noise is None else k + noise, [derivatives[path] for path in self.tunable]

        return gram_with_derivatives

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
        names, check = _CHECKS[self.name]
        return check(*[self._value(values, n) for n in names]) if check else ()

    def _hermitian(self, z, w):
        """(values, grad) -> (k(z, w), derivatives), this node's Hermitian
        covariance at the hyperparameters ``values``.

        With ``grad``, the derivatives are a {path: dk/d value} map over the
        node's tunable paths; without it the map is empty and nothing beyond
        k is formed.  What does not depend on ``values`` is computed here,
        once per (z, w): the product zw* (series families), the reciprocals
        1/z and 1/w* (cozine), the children's parts, and the whole value of a
        node without tunable parameters.
        """
        if self.name == "cozine":
            zi, wi = 1.0 / np.asarray(z, dtype=complex), 1.0 / np.conj(w)

            def herm(values, grad=False):
                a, c = self._numbers(values)
                if not grad:
                    return _cozine(a, c, zi, wi), {}
                k, d_a, d_c = _d_cozine(a, c, zi, wi)
                # through c = cos omega0
                return k, self._by_path(a=d_a, omega0=-math.sin(self._value(values, "omega0")) * d_c)

        elif self.children:  # mixture
            parts = [child._hermitian(z, w) for child in self.children]

            def herm(values, grad=False):
                w1, w2 = self._numbers(values)
                part1, part2 = (part(values, grad) for part in parts)
                k, derivatives = _mixture(w1, part1, w2, part2)
                if grad:
                    derivatives.update(self._by_path(weight1=part1[0], weight2=part2[0]))
                return k, derivatives

        else:  # a series in p = zw*
            p = np.multiply(z, np.conj(w))
            if self.name == "geometric":

                def herm(values, grad=False):
                    (alpha,) = self._numbers(values)
                    return _geometric(p, alpha), (self._by_path(alpha=_d_geometric(p, alpha)) if grad else {})

            elif self.name == "exponential":
                herm = _constant(_exponential(p))
            elif self.name == "h2":
                herm = _constant(_h2(p))
            else:
                herm = _constant(_power_series(np.asarray(self.params["coefficients"], dtype=float), p))
        return herm if self.tunable else _constant(herm({})[0])

    def _by_path(self, **derivatives):
        """The derivatives named by parameter, keyed by path, for the tunable ones."""
        return {path: derivatives[name] for name, path in self.slots.items()}


def _constant(value):
    return lambda values, grad=False: (value, {})


def _parse_family(record: _Section, prefix: str, tunable: tuple, verify: bool) -> KernelFamily:
    """The family of the kernel record ``record``, whose tunable paths start with
    ``prefix``; ``verify`` admits the verify-only ``h2`` and ``circular``."""
    name = record.choice("name", tuple(n for n in _CHECKS if verify or n != "h2"))
    circular = verify and record.get("circular", False, lambda v: isinstance(v, bool), "a boolean")
    params = {}
    if name != "h2":  # h2 takes no params key, not even an empty one
        section = record.section("params", required=False)
        for key in _CHECKS[name][0]:
            if key == "coefficients":
                value = section.get(
                    key,
                    valid=lambda v: isinstance(v, (list, tuple)) and bool(v) and all(_is_real(c) and c >= 0 for c in v),
                    rule="a non-empty list of finite nonnegative numbers",
                )
                params[key] = tuple(map(float, value))
                continue
            # only mixture weights are optional: ``_value`` takes 1 for an absent one
            value = section.get(key, None if name == "mixture" else _REQUIRED, _is_real, "a finite number")
            if value is not None:
                params[key] = value
        section.close()
    keys = _COMPONENTS if name == "mixture" else ()
    children = [_parse_family(record.section(key), f"{prefix}{key}.", tunable, False) for key in keys]
    record.close()
    return KernelFamily(name, params, prefix, tunable, children, circular)


def from_config(record: Mapping) -> ComplexKernel:
    """Build a kernel from a declarative config record.

    The record holds ``name`` (one of "geometric", "exponential", "cozine",
    "stationary_list", "mixture") and a ``params`` map; mixtures additionally
    carry nested ``component1``/``component2`` records.  Unknown keys anywhere
    are errors, so configs fail fast instead of silently ignoring typos.
    Scalar parameters must be finite real numbers (not booleans), and
    ``coefficients`` a non-empty list of finite nonnegative ones.
    """
    return KernelFamily.from_config(record)({})
