"""Discrete-time plant models, simulation, and the filter-bank transfer estimator."""

import math

import numpy as np
import pytest
import scipy.signal
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hinfgp.sysid import (
    DiscreteTF,
    FilterBankSpec,
    TimeTrace,
    estimate_noise_var,
    etfe,
    gaussian_window,
    make_allpass,
    make_resonant_system,
    simulate,
)
from hinfgp.sysid import _filter_bank


def orthogonal_block(rng, bank_row, taps):
    """Random real block whose reversed contents the given complex filter row
    cannot see (used to force the low-input-energy dropping path)."""
    v = rng.standard_normal(taps)
    basis = []
    for part in (np.real(bank_row), np.imag(bank_row)):
        q = part.astype(float).copy()
        for b in basis:
            q -= (q @ b) * b
        basis.append(q / np.linalg.norm(q))
    for b in basis:
        v = v - (v @ b) * b
    return v[::-1]


class TestDiscreteTF:
    def test_response_frozen_values(self):
        tf = DiscreteTF([1.0, 0.5], [1.0, -0.3], 1.0)
        # g(2) = (1 + 0.5/2) / (1 - 0.3/2) = 25/17
        assert complex(tf.response(2.0)) == pytest.approx(25.0 / 17.0, abs=1e-14)
        # g(j) = (1 - 0.5j) / (1 + 0.3j) = (0.85 - 0.8j)/1.09
        got = complex(tf.freq_response(math.pi / 2.0))
        assert got.real == pytest.approx(0.85 / 1.09, abs=1e-14)
        assert got.imag == pytest.approx(-0.8 / 1.09, abs=1e-14)

    def test_poles(self):
        tf = DiscreteTF([1.0], [1.0, -0.3], 1.0)
        np.testing.assert_allclose(tf.poles, [0.3], atol=1e-14)

    def test_non_monic_rejected(self):
        with pytest.raises(ValueError, match="monic"):
            DiscreteTF([1.0], [2.0, 1.0], 1.0)

    @pytest.mark.parametrize("den", [[1.0, -1.5], [1.0, -1.0]], ids=["outside", "on_circle"])
    def test_unstable_rejected(self, den):
        with pytest.raises(ValueError, match="unstable"):
            DiscreteTF([1.0], den, 1.0)

    def test_bad_sample_rate(self):
        with pytest.raises(ValueError, match="sample_rate"):
            DiscreteTF([1.0], [1.0], 0.0)


class TestResonantSystem:
    def test_pole_mapping_is_exact_exponential(self):
        """ZOH discretization maps continuous poles s to exp(s/fs)."""
        omega0, xi, fs = 20.0 * math.pi, 0.1, 100.0
        tf = make_resonant_system(omega0, xi, fs)
        s_poles = np.array(
            [
                -xi * omega0 + 1j * omega0 * math.sqrt(1.0 - xi**2),
                -xi * omega0 - 1j * omega0 * math.sqrt(1.0 - xi**2),
            ]
        )
        got = np.sort_complex(tf.poles)
        want = np.sort_complex(np.exp(s_poles / fs))
        assert np.max(np.abs(got - want)) < 1e-9, (
            f"discrete poles {got} != exp(s/fs) {want}"
        )

    def test_unit_dc_gain(self):
        tf = make_resonant_system(20.0 * math.pi, 0.1, 100.0)
        assert abs(complex(tf.response(1.0)) - 1.0) < 1e-9

    def test_step_settles_to_one(self):
        """Unit step output within 1e-6 of 1 once the exp(-xi w0 t) envelope
        has decayed (checked from 20 time constants on, where it is ~2e-9)."""
        omega0, xi, fs = 5.0, 0.25, 50.0
        tf = make_resonant_system(omega0, xi, fs)
        y = simulate(tf, TimeTrace(np.ones(1200), fs)).samples
        n_settle = int(20.0 / (xi * omega0) * fs)
        worst = np.max(np.abs(y[n_settle:] - 1.0))
        assert worst < 1e-6, f"max |y - 1| = {worst:.3e} after {n_settle} samples"

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="omega0"):
            make_resonant_system(0.0, 0.1, 100.0)
        with pytest.raises(ValueError, match="xi"):
            make_resonant_system(1.0, 1.0, 100.0)
        with pytest.raises(ValueError, match="undersamples"):
            make_resonant_system(100.0, 0.1, 10.0)


class TestAllpass:
    def test_unit_magnitude_on_circle(self):
        tf = make_allpass(0.35355339059327373 + 0.35355339059327373j, 100.0)
        omega = np.linspace(0.01, math.pi - 0.01, 500)
        mags = np.abs(tf.freq_response(omega))
        assert np.max(np.abs(mags - 1.0)) < 1e-12

    def test_pole_placement(self):
        pole = 0.3 + 0.4j
        tf = make_allpass(pole, 1.0)
        got = np.sort_complex(tf.poles)
        want = np.sort_complex(np.array([pole, np.conj(pole)]))
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_zero_at_reciprocal_of_pole(self):
        # numerator = reversed denominator, so zeros sit at 1/poles
        tf = make_allpass(0.5, 1.0)
        assert abs(complex(tf.response(2.0))) < 1e-14

    def test_pole_outside_disk_rejected(self):
        with pytest.raises(ValueError, match="inside the unit circle"):
            make_allpass(1.0 + 0.5j, 1.0)


class TestSimulate:
    def test_static_gain_exact(self):
        u = TimeTrace(np.random.default_rng(0).standard_normal(100), 1.0)
        y = simulate(DiscreteTF([2.0], [1.0], 1.0), u)
        np.testing.assert_array_equal(y.samples, 2.0 * u.samples)

    def test_noise_seed_determinism(self):
        tf = DiscreteTF([1.0], [1.0], 1.0)
        u = TimeTrace(np.zeros(50), 1.0)
        y1 = simulate(tf, u, seed=5, noise_var=0.3)
        y2 = simulate(tf, u, seed=5, noise_var=0.3)
        y3 = simulate(tf, u, seed=6, noise_var=0.3)
        np.testing.assert_array_equal(y1.samples, y2.samples)
        assert np.any(y1.samples != y3.samples)

    def test_zero_variance_consumes_no_draws(self):
        tf = DiscreteTF([1.0], [1.0], 1.0)
        u = TimeTrace(np.ones(10), 1.0)
        np.testing.assert_array_equal(
            simulate(tf, u, seed=1).samples, simulate(tf, u, seed=2).samples
        )

    def test_rate_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            simulate(DiscreteTF([1.0], [1.0], 2.0), TimeTrace(np.ones(5), 1.0))

    def test_negative_noise_var(self):
        with pytest.raises(ValueError, match="noise_var"):
            simulate(DiscreteTF([1.0], [1.0], 1.0), TimeTrace(np.ones(5), 1.0), noise_var=-1.0)


def assert_bitwise_equal(got, want):
    """Equal values and equal signs of zero: what a text artifact of them would show."""
    assert np.array_equal(got, want), f"max |diff| = {np.max(np.abs(got - want)):.3e}"
    assert np.array_equal(np.signbit(got), np.signbit(want))


def assert_simulate_matches_lfilter(tf, x):
    got = simulate(tf, TimeTrace(x, tf.sample_rate)).samples
    assert_bitwise_equal(got, scipy.signal.lfilter(tf.num_coeffs, tf.den_coeffs, x))


def input_samples(seed, size, lead_zeros):
    """Gaussian input whose first ``lead_zeros`` samples are exact zeros."""
    x = np.random.default_rng(seed).standard_normal(size)
    x[:lead_zeros] = 0.0
    return x


REFERENCE_SETTINGS = settings(derandomize=True, deadline=None, max_examples=40)
input_draws = {"seed": st.integers(0, 2**32 - 1), "lead_zeros": st.integers(0, 30)}


class TestScipySignalReference:
    """The in-package ZOH, ss2tf and filter against scipy.signal, which the
    package itself does not import: equal bit for bit."""

    @REFERENCE_SETTINGS
    @given(
        omega0=st.floats(1e-2, 1e3),
        xi=st.floats(1e-3, 0.999),
        oversampling=st.floats(1.01, 1e3),
    )
    def test_resonant_system_matches_cont2discrete_ss2tf(self, omega0, xi, oversampling):
        fs = omega0 / math.pi * oversampling
        a_mat = np.array([[0.0, 1.0], [-omega0**2, -2.0 * xi * omega0]])
        system = (a_mat, np.array([[0.0], [1.0]]), np.array([[omega0**2, 0.0]]), np.array([[0.0]]))
        ad, bd, cd, dd, _ = scipy.signal.cont2discrete(system, dt=1.0 / fs, method="zoh")
        num, den = scipy.signal.ss2tf(ad, bd, cd, dd)
        tf = make_resonant_system(omega0, xi, fs)
        assert_bitwise_equal(tf.num_coeffs, num[0])
        assert_bitwise_equal(tf.den_coeffs, den)

    @REFERENCE_SETTINGS
    @given(omega=st.floats(0.05, 3.0), xi=st.floats(0.01, 0.9), **input_draws)
    def test_simulate_resonant_matches_lfilter(self, omega, xi, seed, lead_zeros):
        tf = make_resonant_system(omega, xi, 1.0)
        assert_simulate_matches_lfilter(tf, input_samples(seed, 2000, lead_zeros))

    @REFERENCE_SETTINGS
    @given(radius=st.floats(0.0, 0.99), angle=st.floats(0.0, math.pi), **input_draws)
    def test_simulate_allpass_matches_lfilter(self, radius, angle, seed, lead_zeros):
        tf = make_allpass(radius * complex(math.cos(angle), math.sin(angle)), 1.0)
        assert_simulate_matches_lfilter(tf, input_samples(seed, 2000, lead_zeros))

    @REFERENCE_SETTINGS
    @given(
        real_poles=st.lists(st.floats(-0.95, 0.95), max_size=4),
        pole_pairs=st.lists(st.tuples(st.floats(0.0, 0.95), st.floats(0.0, math.pi)), max_size=2),
        num=st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=6),
        **input_draws,
    )
    @example(real_poles=[], pole_pairs=[], num=[2.0], seed=0, lead_zeros=0)  # pure gain
    @example(real_poles=[0.5], pole_pairs=[], num=[1.0, -0.4, 0.3, 0.2, -0.1], seed=1, lead_zeros=3)
    @example(real_poles=[0.9, -0.5], pole_pairs=[(0.8, 1.0)], num=[1.0, 0.5], seed=2, lead_zeros=0)
    @example(real_poles=[], pole_pairs=[], num=[0.5, -1.0, 0.25], seed=3, lead_zeros=5)  # FIR
    def test_simulate_external_matches_lfilter(self, real_poles, pole_pairs, num, seed, lead_zeros):
        """Monic stable denominators of order 0-4, numerators longer, shorter
        or as long, and a pure gain."""
        assume(len(real_poles) + 2 * len(pole_pairs) <= 4)
        pairs = [r * complex(math.cos(t), math.sin(t)) for r, t in pole_pairs]
        poles = real_poles + pairs + [p.conjugate() for p in pairs]
        tf = DiscreteTF(num, np.real(np.poly(poles)) if poles else [1.0], 1.0)
        assert_simulate_matches_lfilter(tf, input_samples(seed, 500, lead_zeros))

    @pytest.mark.parametrize("den", [[1.0 + 1e-13], [1.0 + 1e-13, -0.5, 0.25]])
    def test_simulate_divides_by_leading_coefficient(self, den):
        """DiscreteTF accepts a leading coefficient within 1e-12 of 1; lfilter
        divides every coefficient by it, and so does simulate."""
        tf = DiscreteTF([0.3, 0.7], den, 1.0)
        assert_simulate_matches_lfilter(tf, input_samples(4, 300, 0))


class TestTimeTrace:
    def test_save_load_round_trip(self, tmp_path):
        trace = TimeTrace(np.random.default_rng(3).standard_normal(40), 50.0)
        path = tmp_path / "trace.txt"
        trace.save(path)
        loaded = TimeTrace.load(path, 50.0)
        np.testing.assert_array_equal(loaded.samples, trace.samples)
        assert loaded.sample_rate == 50.0

    def test_single_sample_file(self, tmp_path):
        path = tmp_path / "one.txt"
        TimeTrace(np.array([1.5]), 1.0).save(path)
        assert len(TimeTrace.load(path, 1.0)) == 1

    def test_validation(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            TimeTrace(np.ones((2, 2)), 1.0)
        with pytest.raises(ValueError, match="finite"):
            TimeTrace(np.array([1.0, np.nan]), 1.0)

    def test_len(self):
        assert len(TimeTrace(np.zeros(7), 1.0)) == 7


class TestFilterBankSpec:
    def test_default_frequencies(self):
        spec = FilterBankSpec(num_filters=25, taps=1000)
        np.testing.assert_allclose(
            spec.freqs, np.arange(1, 26) * math.pi / 26.0, rtol=0, atol=1e-15
        )

    def test_window_conventions_frozen(self):
        printed = FilterBankSpec(num_filters=5, taps=1000, window_sigma=0.25)
        assert printed.window()[0] == pytest.approx(0.99221793826024351, abs=1e-15)
        scaled = FilterBankSpec(
            num_filters=5, taps=1000, window_sigma=0.25, window_convention="scaled"
        )
        # edge value exp(-2): the scaled reading actually tapers
        assert scaled.window()[0] == pytest.approx(0.13533528323661269, abs=1e-15)

    def test_window_peak_and_symmetry(self):
        win = gaussian_window(10, 2.0)
        assert win[5] == 1.0
        np.testing.assert_allclose(win[5 - np.arange(1, 5)], win[5 + np.arange(1, 5)], rtol=1e-15)

    def test_gaussian_window_validation(self):
        with pytest.raises(ValueError, match="taps"):
            gaussian_window(0, 0.25)

    def test_custom_center_freqs(self):
        spec = FilterBankSpec(num_filters=2, taps=16, center_freqs=(0.5, 1.5))
        np.testing.assert_allclose(spec.freqs, [0.5, 1.5])

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"taps": 0}, "taps"),
            ({"num_filters": 0}, "num_filters"),
            ({"window_convention": "boxcar"}, "convention"),
            ({"num_filters": 3, "center_freqs": (0.5, 1.5)}, "center_freqs"),
            ({"num_filters": 2, "center_freqs": (1.5, 0.5)}, "increasing"),
            ({"num_filters": 2, "center_freqs": (0.5, 3.5)}, r"\(0, pi\)"),
        ],
        ids=["taps", "count", "convention", "mismatch", "order", "range"],
    )
    def test_validation(self, kwargs, match):
        base = {"num_filters": 2, "taps": 16}
        base.update(kwargs)
        with pytest.raises(ValueError, match=match):
            FilterBankSpec(**base)


class TestEtfe:
    def _multisine(self, spec, length, seed=5):
        rng = np.random.default_rng(seed)
        n = np.arange(length)
        phases = rng.uniform(0.0, 2.0 * math.pi, spec.freqs.size)
        return TimeTrace(
            np.sum(np.cos(np.outer(spec.freqs, n) + phases[:, None]), axis=0), 1.0
        )

    def test_static_gain(self):
        rng = np.random.default_rng(7)
        spec = FilterBankSpec(num_filters=8, taps=256)
        u = TimeTrace(rng.standard_normal(256), 1.0)
        data = etfe(u, simulate(DiscreteTF([2.0], [1.0], 1.0), u), spec)
        assert len(data) == 8
        np.testing.assert_allclose(data.responses, 2.0, atol=1e-9)
        np.testing.assert_allclose(np.abs(data.sites), 1.0, atol=1e-14)

    def test_unit_delay_phase(self):
        """With a steady multisine probe the estimate tracks g = z^{-1}."""
        spec = FilterBankSpec(num_filters=8, taps=1000)
        u = self._multisine(spec, 1000)
        data = etfe(u, simulate(DiscreteTF([0.0, 1.0], [1.0], 1.0), u), spec)
        err = np.max(np.abs(data.responses - 1.0 / data.sites))
        assert err < 1e-2, f"delay estimate error {err:.3e}"

    def test_second_order_system(self):
        spec = FilterBankSpec(num_filters=8, taps=1000)
        u = self._multisine(spec, 1000)
        tf = DiscreteTF([0.2, 0.1], [1.0, -0.5, 0.25], 1.0)
        data = etfe(u, simulate(tf, u), spec)
        err = np.max(np.abs(data.responses - tf.response(data.sites)))
        assert err < 5e-3, f"transfer estimate error {err:.3e}"

    def test_scalar_linearity(self):
        rng = np.random.default_rng(7)
        spec = FilterBankSpec(num_filters=8, taps=256)
        u = TimeTrace(rng.standard_normal(256), 1.0)
        y = simulate(DiscreteTF([2.0], [1.0], 1.0), u)
        base = etfe(u, y, spec).responses
        tripled = etfe(u, TimeTrace(3.0 * y.samples, 1.0), spec).responses
        np.testing.assert_allclose(tripled, 3.0 * base, rtol=1e-9)
        both = etfe(
            TimeTrace(5.0 * u.samples, 1.0), TimeTrace(5.0 * y.samples, 1.0), spec
        ).responses
        np.testing.assert_allclose(both, base, rtol=1e-9)

    def test_error_decreases_with_taps(self):
        """Longer filters localize better: the broadband-input estimate of the
        resonant plant tightens going from 1000 to 4000 taps."""
        tf = make_resonant_system(20.0 * math.pi, 0.1, 100.0)
        rng = np.random.default_rng(11)
        u = TimeTrace(rng.standard_normal(4000), 100.0)
        y = simulate(tf, u)
        errors = {}
        for taps in (1000, 4000):
            spec = FilterBankSpec(num_filters=25, taps=taps)
            data = etfe(u, y, spec)
            errors[taps] = np.median(np.abs(data.responses - tf.response(data.sites)))
        assert errors[4000] < errors[1000], f"errors {errors}"

    def test_short_trace_rejected(self):
        spec = FilterBankSpec(num_filters=2, taps=64)
        with pytest.raises(ValueError, match="taps"):
            etfe(TimeTrace(np.ones(32), 1.0), TimeTrace(np.ones(32), 1.0), spec)

    def test_weak_input_frequency_dropped_with_warning(self):
        spec = FilterBankSpec(num_filters=5, taps=64)
        bank = _filter_bank(spec)
        rng = np.random.default_rng(7)
        u = TimeTrace(orthogonal_block(rng, bank[2], 64), 1.0)
        y = TimeTrace(2.0 * u.samples, 1.0)
        with pytest.warns(RuntimeWarning, match="dropping"):
            data = etfe(u, y, spec)
        assert len(data) == 4
        # the remaining sites exclude the starved center frequency
        gap = np.min(np.abs(data.sites - np.exp(1j * spec.freqs[2])))
        assert gap > 0.1

    def test_noise_var_recorded(self):
        rng = np.random.default_rng(7)
        spec = FilterBankSpec(num_filters=3, taps=64)
        u = TimeTrace(rng.standard_normal(64), 1.0)
        data = etfe(u, u, spec, noise_var=0.125)
        assert data.noise_var == 0.125


class TestEstimateNoiseVar:
    def _setup(self, noise_var, seed=3):
        rng = np.random.default_rng(13)
        u = TimeTrace(rng.standard_normal(4096), 1.0)
        y = simulate(DiscreteTF([2.0], [1.0], 1.0), u, seed=seed, noise_var=noise_var)
        return u, y, FilterBankSpec(num_filters=6, taps=512)

    def test_noise_free_estimate_is_zero(self):
        u, y, spec = self._setup(0.0)
        assert estimate_noise_var(u, y, spec) < 1e-30

    def test_monotone_in_noise(self):
        estimates = [estimate_noise_var(*self._setup(nv)) for nv in (0.0, 0.01, 0.25)]
        assert estimates[0] < estimates[1] < estimates[2], f"estimates {estimates}"

    def test_requires_two_segments(self):
        rng = np.random.default_rng(1)
        u = TimeTrace(rng.standard_normal(500), 1.0)
        spec = FilterBankSpec(num_filters=3, taps=512)
        with pytest.raises(ValueError, match="segments"):
            estimate_noise_var(u, u, spec)

    def test_all_frequencies_starved(self):
        spec = FilterBankSpec(num_filters=1, taps=8, center_freqs=(1.5,))
        bank = _filter_bank(spec)
        rng = np.random.default_rng(7)
        blocks = [orthogonal_block(rng, bank[0], 8) for _ in range(2)]
        u = TimeTrace(np.concatenate(blocks), 1.0)
        with pytest.raises(ValueError, match="usable"):
            estimate_noise_var(u, TimeTrace(2.0 * u.samples, 1.0), spec)


class TestEtfeAutoNoise:
    """``etfe(..., "auto")`` records estimate_noise_var's value from its own bank."""

    def _traces(self, seed):
        rng = np.random.default_rng(seed)
        u = TimeTrace(rng.standard_normal(4096), 100.0)
        tf = make_resonant_system(20.0 * math.pi, 0.1, 100.0)
        return u, simulate(tf, u, seed=seed, noise_var=1e-3)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("spec", [FilterBankSpec(num_filters=25, taps=1000), FilterBankSpec(num_filters=7, taps=512)])
    def test_equals_estimate_noise_var(self, seed, spec):
        u, y = self._traces(seed)
        data = etfe(u, y, spec, "auto")
        assert data.noise_var == estimate_noise_var(u, y, spec)
        fixed = etfe(u, y, spec, data.noise_var)
        np.testing.assert_array_equal(data.responses, fixed.responses)
        np.testing.assert_array_equal(data.sites, fixed.sites)

    def test_short_record_and_unknown_string_rejected(self):
        rng = np.random.default_rng(1)
        u = TimeTrace(rng.standard_normal(700), 1.0)
        spec = FilterBankSpec(num_filters=3, taps=512)
        with pytest.raises(ValueError, match="segments"):
            etfe(u, u, spec, "auto")
        with pytest.raises(ValueError, match='"auto"'):
            etfe(u, u, spec, "automatic")
