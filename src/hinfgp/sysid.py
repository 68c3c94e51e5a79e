"""Simulated experiment data: LTI test systems, noise injection, and filter-bank ETFE.

The experiments drive a discrete-time system with Gaussian white noise,
corrupt both the input and output records with measurement noise, and form an
empirical transfer function estimate (ETFE) by passing both records through a
bank of windowed narrowband filters h_i(n) = e^{j w_i n} w(n): the ratio of the
filtered output to the filtered input, read off at the first tap-complete
sample, estimates g(e^{j w_i}).  The resulting complex observations at sites
z_i = e^{j w_i} feed the regression module.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.linalg

from .regression import FrequencyDataset
from .sampling import _philox

__all__ = [
    "DiscreteTF",
    "TimeTrace",
    "FilterBankSpec",
    "make_resonant_system",
    "make_allpass",
    "simulate",
    "gaussian_window",
    "etfe",
    "estimate_noise_var",
]


@dataclass(frozen=True, eq=False)
class DiscreteTF:
    """Rational transfer function g(z) = (sum_k b_k z^{-k}) / (1 + sum_k a_k z^{-k}).

    The denominator must be monic and all poles strictly inside the unit
    circle (checked at construction).
    """

    num_coeffs: np.ndarray
    den_coeffs: np.ndarray
    sample_rate: float

    def __post_init__(self) -> None:
        num = np.atleast_1d(np.asarray(self.num_coeffs, dtype=float))
        den = np.atleast_1d(np.asarray(self.den_coeffs, dtype=float))
        if den.size == 0 or abs(den[0] - 1.0) > 1e-12:
            raise ValueError("denominator 'den' must be monic (leading coefficient 1)")
        if self.sample_rate <= 0.0:
            raise ValueError(f"sample_rate must be positive, got {self.sample_rate}")
        if den.size > 1:
            roots = np.roots(den)
            if roots.size and np.max(np.abs(roots)) >= 1.0:
                raise ValueError(
                    f"unstable system: pole magnitude {np.max(np.abs(roots)):.6f} >= 1 (roots of 'den')"
                )
        object.__setattr__(self, "num_coeffs", num)
        object.__setattr__(self, "den_coeffs", den)
        object.__setattr__(self, "sample_rate", float(self.sample_rate))

    @property
    def poles(self) -> np.ndarray:
        return np.roots(self.den_coeffs)

    def response(self, z) -> np.ndarray:
        """g evaluated at complex points z (typically e^{j omega})."""
        x = 1.0 / np.asarray(z, dtype=complex)
        num = np.polynomial.polynomial.polyval(x, self.num_coeffs)
        den = np.polynomial.polynomial.polyval(x, self.den_coeffs)
        return num / den

    def freq_response(self, omega) -> np.ndarray:
        """g(e^{j omega}) on a grid of angular frequencies (rad/sample)."""
        return self.response(np.exp(1j * np.asarray(omega, dtype=float)))


@dataclass(frozen=True, eq=False)
class TimeTrace:
    """Real sampled signal with its sample rate."""

    samples: np.ndarray
    sample_rate: float

    def __post_init__(self) -> None:
        samples = np.asarray(self.samples, dtype=float)
        if samples.ndim != 1:
            raise ValueError("samples must be one-dimensional")
        if not np.all(np.isfinite(samples)):
            raise ValueError("samples must be finite")
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "sample_rate", float(self.sample_rate))

    def __len__(self) -> int:
        return int(self.samples.size)

    def save(self, path) -> None:
        """Write the samples as single-column plain text (17 significant digits)."""
        np.savetxt(path, self.samples, fmt="%.17g")

    @classmethod
    def load(cls, path, sample_rate: float) -> "TimeTrace":
        return cls(np.atleast_1d(np.loadtxt(path, dtype=float)), sample_rate)


@dataclass(frozen=True)
class FilterBankSpec:
    """Bank of windowed complex narrowband filters for the ETFE.

    When ``center_freqs`` is omitted, ``num_filters`` frequencies are placed
    uniformly strictly inside (0, pi): w_i = i pi / (num_filters + 1).  The
    window follows the "printed" convention exp(-1/2 (sigma (n - taps/2)/taps)^2)
    by default; the alternative "scaled" reading exp(-1/2 ((n - taps/2)/(sigma taps))^2)
    is selectable because the printed one is nearly flat at sigma = 0.25.
    """

    num_filters: int = 25
    taps: int = 1000
    window_sigma: float = 0.25
    center_freqs: tuple[float, ...] | None = None
    window_convention: str = "printed"

    def __post_init__(self) -> None:
        if self.taps < 1:
            raise ValueError(f"taps must be >= 1, got {self.taps}")
        if self.num_filters < 1:
            raise ValueError(f"num_filters must be >= 1, got {self.num_filters}")
        if self.window_convention not in ("printed", "scaled"):
            raise ValueError(f"window_convention must be 'printed' or 'scaled', got {self.window_convention!r}")
        if self.center_freqs is not None:
            freqs = tuple(float(f) for f in self.center_freqs)
            if len(freqs) != self.num_filters:
                raise ValueError(
                    f"{len(freqs)} center_freqs for num_filters={self.num_filters}"
                )
            if any(not 0.0 < f < math.pi for f in freqs):
                raise ValueError("center_freqs must lie strictly inside (0, pi)")
            if any(b <= a for a, b in zip(freqs, freqs[1:])):
                raise ValueError("center_freqs must be strictly increasing")
            object.__setattr__(self, "center_freqs", freqs)

    @property
    def freqs(self) -> np.ndarray:
        if self.center_freqs is not None:
            return np.asarray(self.center_freqs)
        i = np.arange(1, self.num_filters + 1, dtype=float)
        return i * math.pi / (self.num_filters + 1)

    def window(self) -> np.ndarray:
        if self.window_convention == "printed":
            return gaussian_window(self.taps, self.window_sigma)
        n = np.arange(self.taps, dtype=float)
        return np.exp(-0.5 * ((n - self.taps / 2.0) / (self.window_sigma * self.taps)) ** 2)


def make_resonant_system(omega0: float, xi: float, fs: float) -> DiscreteTF:
    """Zero-order-hold discretization of g(s) = w0^2 / (s^2 + 2 xi w0 s + w0^2).

    The continuous system has unit DC gain and resonance near w0 rad/s.  With
    the state-space form (A, B, C, 0), ZOH at sample rate fs takes
    [[Ad, Bd], [0, 1]] = expm([[A, B], [0, 0]] / fs), which maps the poles
    s_i to exp(s_i/fs) exactly.  The transfer function follows as
    den = det(zI - Ad) and num = det(zI - Ad + Bd C) - den.  These are the
    operations SciPy's ``cont2discrete(..., "zoh")`` and ``ss2tf`` perform,
    and the coefficients equal theirs bit for bit.
    """
    if omega0 <= 0.0:
        raise ValueError(f"omega0 must be positive, got {omega0}")
    if not 0.0 < xi < 1.0:
        raise ValueError(f"xi must lie in (0, 1), got {xi}")
    if fs <= omega0 / math.pi:
        raise ValueError(
            f"sample rate fs={fs} Hz undersamples the resonance at omega0={omega0} rad/s"
        )
    a_mat = np.array([[0.0, 1.0], [-omega0**2, -2.0 * xi * omega0]])
    b_mat = np.array([[0.0], [1.0]])
    c_mat = np.array([[omega0**2, 0.0]])
    transition = scipy.linalg.expm((1.0 / fs) * np.block([[a_mat, b_mat], [np.zeros((1, 3))]]))
    ad, bd = transition[:2, :2], transition[:2, 2:]
    den = np.poly(ad)
    return DiscreteTF(np.poly(ad - bd @ c_mat) - den, den, fs)


def make_allpass(pole: complex, fs: float) -> DiscreteTF:
    """Second-order allpass with poles at ``pole`` and its conjugate.

    Numerator coefficients are the reversed denominator, the standard allpass
    construction: den = [1, -2 Re z0, |z0|^2], num = [|z0|^2, -2 Re z0, 1], so
    |g(e^{j w})| = 1 for all w.
    """
    pole = complex(pole)
    if abs(pole) >= 1.0:
        raise ValueError(f"allpass pole must lie strictly inside the unit circle, got {pole}")
    r_sq = abs(pole) ** 2
    mid = -2.0 * pole.real
    return DiscreteTF([r_sq, mid, 1.0], [1.0, mid, r_sq], fs)


def simulate(tf: DiscreteTF, input_trace: TimeTrace, seed: int = 0, noise_var: float = 0.0) -> TimeTrace:
    """Drive ``tf`` with ``input_trace`` from zero initial state, plus output noise.

    The filter is the direct-form II transposed recursion in SciPy
    ``lfilter``'s operation order (see :func:`_lfilter`), so the output
    equals lfilter's bit for bit.  I.i.d. Gaussian noise of variance
    ``noise_var`` is added to the output (no draws are consumed when the
    variance is zero).
    """
    if input_trace.sample_rate != tf.sample_rate:
        raise ValueError(
            f"sample-rate mismatch: input {input_trace.sample_rate} Hz, system {tf.sample_rate} Hz"
        )
    if noise_var < 0.0:
        raise ValueError(f"noise_var must be nonnegative, got {noise_var}")
    out = _lfilter(tf.num_coeffs, tf.den_coeffs, input_trace.samples)
    if noise_var > 0.0:
        out = out + math.sqrt(noise_var) * _philox(seed).standard_normal(out.size)
    return TimeTrace(out, tf.sample_rate)


def _lfilter(num: np.ndarray, den: np.ndarray, x: np.ndarray) -> np.ndarray:
    """y = (num/den) x from zero state, as SciPy's ``lfilter(num, den, x)``.

    Both coefficient lists are divided by den[0] and zero-padded to one
    order.  Each step is y = z_0 + b_0 x, z_{n-1} = z_n + x b_n - y a_n,
    z_{order-1} = x b_order - y a_order, in Python floats (IEEE doubles, the
    same roundings as lfilter's C loop).  A one-term denominator is a
    convolution, as in lfilter.
    """
    a0 = float(den[0])
    if den.size == 1:
        return np.convolve(num / a0, x)[: x.size]
    order = max(num.size, den.size) - 1
    b = [c / a0 for c in num.tolist()] + [0.0] * (order + 1 - num.size)
    a = [c / a0 for c in den.tolist()] + [0.0] * (order + 1 - den.size)
    b0, b_last, a_last = b[0], b[order], a[order]
    z = [0.0] * order
    out = []
    for xk in x.tolist():
        yk = z[0] + b0 * xk
        for n in range(1, order):
            z[n - 1] = z[n] + xk * b[n] - yk * a[n]
        z[order - 1] = xk * b_last - yk * a_last
        out.append(yk)
    return np.array(out)


def gaussian_window(taps: int, sigma_w: float) -> np.ndarray:
    """w(n) = exp(-1/2 (sigma_w (n - taps/2) / taps)^2) for n = 0..taps-1."""
    if taps < 1:
        raise ValueError(f"taps must be >= 1, got {taps}")
    n = np.arange(taps, dtype=float)
    return np.exp(-0.5 * (sigma_w * (n - taps / 2.0) / taps) ** 2)


def _filter_bank(spec: FilterBankSpec) -> np.ndarray:
    n = np.arange(spec.taps, dtype=float)
    return np.exp(1j * np.outer(spec.freqs, n)) * spec.window()


def _segment_outputs(samples: np.ndarray, bank: np.ndarray, taps: int, segment: int) -> np.ndarray:
    """Filter outputs at the tap-complete sample N = taps - 1 + segment * taps."""
    end = taps - 1 + segment * taps
    window = samples[end - taps + 1 : end + 1][::-1]
    return bank @ window


def etfe(
    u: TimeTrace, y: TimeTrace, spec: FilterBankSpec, noise_var: float | str = 0.0
) -> FrequencyDataset:
    """Empirical transfer function estimate from one input/output record pair.

    Both records are convolved with each filter h_i(n) = e^{j w_i n} w(n) and
    the ratio (filtered y)/(filtered u) at the first tap-complete sample
    N = taps - 1 estimates g(e^{j w_i}).  Frequencies whose filtered input
    magnitude falls below 1e-9 ||u|| are dropped with a warning (the ratio
    would blow up).  ``noise_var`` is recorded for the regression stage;
    ``"auto"`` records :func:`estimate_noise_var`'s pooled estimate, equal to
    it bit for bit, from the filter bank built here once (the estimate's
    first segment is this estimate's).
    """
    if len(u) < spec.taps or len(y) < spec.taps:
        raise ValueError(
            f"traces must be at least taps={spec.taps} samples long, got {len(u)} and {len(y)}"
        )
    if isinstance(noise_var, str) and noise_var != "auto":
        raise ValueError(f'noise_var must be a number or "auto", got {noise_var!r}')
    bank = _filter_bank(spec)
    u_f = _segment_outputs(u.samples, bank, spec.taps, 0)
    y_f = _segment_outputs(y.samples, bank, spec.taps, 0)
    if noise_var == "auto":
        noise_var = _pooled_noise_var(u, y, spec, bank, (u_f, y_f))
    floor = 1e-9 * float(np.linalg.norm(u.samples))
    keep = np.abs(u_f) >= floor
    if not np.all(keep):
        dropped = spec.freqs[~keep]
        warnings.warn(
            f"dropping {dropped.size} ETFE frequencies with filtered input below "
            f"{floor:.3e}: {np.array2string(dropped, precision=4)}",
            RuntimeWarning,
            stacklevel=2,
        )
    freqs = spec.freqs[keep]
    return FrequencyDataset(np.exp(1j * freqs), y_f[keep] / u_f[keep], noise_var)


def estimate_noise_var(u: TimeTrace, y: TimeTrace, spec: FilterBankSpec) -> float:
    """Pooled variance of repeated-segment transfer estimates.

    The records are cut into every full non-overlapping block of ``taps``
    samples; each block yields one transfer estimate per frequency, read at
    its own tap-complete sample.  The per-frequency sample variance (complex,
    ddof=1) over blocks is pooled by the median across frequencies, a robust
    single noise figure for the regression stage.  ``etfe(u, y, spec,
    "auto")`` records the same value from its own filter bank.
    """
    return _pooled_noise_var(u, y, spec, _filter_bank(spec))


def _pooled_noise_var(
    u: TimeTrace,
    y: TimeTrace,
    spec: FilterBankSpec,
    bank: np.ndarray,
    first: tuple[np.ndarray, np.ndarray] | None = None,
) -> float:
    """:func:`estimate_noise_var` with the filter bank built, and segment 0's
    filtered (u, y) when ``first`` gives them."""
    segments = min(len(u), len(y)) // spec.taps
    if segments < 2:
        raise ValueError(
            f"need at least 2 full segments of {spec.taps} samples to estimate the "
            f"noise variance, got {segments}"
        )
    floor = 1e-9 * float(np.linalg.norm(u.samples))
    estimates = np.empty((segments, spec.num_filters), dtype=complex)
    valid = np.ones(spec.num_filters, dtype=bool)
    for s in range(segments):
        if s == 0 and first is not None:
            u_f, y_f = first
        else:
            u_f = _segment_outputs(u.samples, bank, spec.taps, s)
            y_f = _segment_outputs(y.samples, bank, spec.taps, s)
        valid &= np.abs(u_f) >= floor
        with np.errstate(divide="ignore", invalid="ignore"):
            estimates[s] = y_f / u_f
    if not np.any(valid):
        raise ValueError("no frequency produced a usable transfer estimate in every segment")
    est = estimates[:, valid]
    centered = est - est.mean(axis=0)
    per_freq = np.sum(np.abs(centered) ** 2, axis=0) / (segments - 1)
    return float(np.median(per_freq))
