"""Symmetry and membership-probe tests for the verification module."""

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hinfgp import cli, verify
from hinfgp._linalg import chol_factor_with_jitter
from hinfgp.kernels import (
    ComplexKernel,
    cozine_kernel,
    exponential_kernel,
    from_config,
    geometric_kernel,
    h2_kernel,
    real_imag_kernels,
)
from hinfgp.verify import _real_gram, dense_spiral, driscoll_parts, driscoll_test, symmetry_test


def circular_variant(kernel):
    """Break conjugate symmetry by zeroing the complementary covariance."""
    return ComplexKernel(kernel.hermitian_eval, lambda z, w: 0.0 * np.multiply(z, w))


class TestH2Kernel:
    def test_value(self):
        assert complex(h2_kernel(2.0, 2.0)) == pytest.approx(4.0 / 3.0, abs=1e-15)

    def test_singularity_rejected(self):
        with pytest.raises(ValueError, match="singular"):
            h2_kernel(1.0, 1.0)

    def test_reproducing_against_geometric(self):
        # zw*/(zw* - 1) is the alpha -> 1 limit of the geometric family
        z, w = 1.7 * np.exp(0.8j), 2.4 * np.exp(-0.3j)
        near_one = geometric_kernel(1.0 - 1e-9)
        assert complex(h2_kernel(z, w)) == pytest.approx(
            complex(near_one.hermitian_eval(z, w)), rel=1e-6
        )


class TestDenseSpiral:
    def test_count_and_annulus(self):
        pts = dense_spiral(150, 1.05, 3.0)
        assert pts.shape == (150,)
        radii = np.abs(pts)
        assert radii.min() > 1.05 - 1e-12
        assert radii.max() <= 3.0 + 1e-12

    def test_points_distinct(self):
        pts = dense_spiral(300)
        assert np.unique(np.round(pts, 12)).size == 300

    def test_deterministic(self):
        np.testing.assert_array_equal(dense_spiral(50), dense_spiral(50))


class TestDriscoll:
    def test_h2_against_itself_traces_equal_n(self):
        """trace(R_n^{-1} R_n) = n; the factorized route must reproduce it."""
        report = driscoll_test(h2_kernel, n_max=200)
        for n, tr in zip(report.n_values, report.traces):
            assert abs(tr - n) <= 1e-8 * n
        assert report.verdict == "diverging"
        assert report.growth_slope == pytest.approx(1.0, abs=1e-6)

    def test_geometric_converges(self):
        k_r, k_i = real_imag_kernels(geometric_kernel(0.5))
        for part in (k_r, k_i):
            report = driscoll_test(part, n_max=200)
            assert report.verdict == "converging"
            assert max(report.traces) < 10.0

    def test_exponential_converges(self):
        k_r, _ = real_imag_kernels(exponential_kernel())
        assert driscoll_test(k_r, n_max=100).verdict == "converging"

    def test_slow_drift_is_inconclusive(self):
        # a small h2 admixture drifts too slowly for "diverging" but is not Cauchy
        geo = geometric_kernel(0.5)

        def drifting(z, w):
            return np.real(geo.hermitian_eval(z, w)) + 0.004 * np.real(h2_kernel(z, w))

        report = driscoll_test(drifting, n_max=200)
        assert report.verdict == "inconclusive"

    def test_n_max_validation(self):
        with pytest.raises(ValueError, match="n_max"):
            driscoll_test(h2_kernel, n_max=5)

    def test_n_max_needs_two_tail_points(self):
        # n_max = 15 has one trace, too few for the tail's least-squares slope
        with pytest.raises(ValueError, match="n_max"):
            driscoll_test(h2_kernel, n_max=15)

    def test_explicit_points_must_cover_n_max(self):
        with pytest.raises(ValueError, match="points"):
            driscoll_test(h2_kernel, n_max=50, points=dense_spiral(20))

    def test_points_inside_circle_rejected(self):
        pts = np.linspace(0.5, 5.0, 60) * np.exp(1j * 0.3)
        with pytest.raises(ValueError, match="outside"):
            driscoll_test(h2_kernel, n_max=50, points=pts)

    def test_duplicate_points_rejected(self):
        pts = dense_spiral(60)
        pts[30] = pts[5]
        with pytest.raises(ValueError, match="duplicate"):
            driscoll_test(h2_kernel, n_max=40, points=pts)
        # a repeat past n_max is never used
        assert driscoll_test(h2_kernel, n_max=30, points=pts).traces[-1] == pytest.approx(30.0)

    @pytest.mark.parametrize(
        "bad, where",
        [([math.nan], [3]), ([complex(math.inf, 0.0)], [3]), ([math.nan, math.nan], [3, 17])],
        ids=["nan", "inf", "two_nans"],
    )
    def test_non_finite_points_named(self, bad, where):
        """A NaN or infinite probe point is refused by the kernel-domain
        check, which names the first one and its index, before any Gram is
        built; two NaNs are not mistaken for a duplicate pair."""
        pts = dense_spiral(40)
        pts[where] = bad
        with pytest.raises(ValueError, match=r"at index 3 is not finite"):
            driscoll_test(h2_kernel, n_max=20, points=pts)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_candidate_gram_raises(self, bad):
        """One infinite or NaN value of the candidate covariance raises
        ``ValueError``: the report's triangular solves skip scipy's finiteness
        scan, so the candidate Gram is checked once before them, and NaN
        traces are never classified."""
        geo = geometric_kernel(0.5)

        def k_real(z, w):
            values = np.real(np.asarray(geo.hermitian_eval(z, w)))
            values[3, 7] = bad
            return values

        with pytest.raises(ValueError, match="infs or NaNs"):
            driscoll_test(k_real, n_max=40)

        def hermitian(z, w):
            values = np.array(geo.hermitian_eval(z, w), dtype=complex)
            values[3, 7] = bad
            return values

        with pytest.raises(ValueError, match="infs or NaNs"):
            driscoll_parts(ComplexKernel(hermitian, geo.complementary_eval), 40)

    def test_report_record_roundtrip(self):
        record = driscoll_test(h2_kernel, n_max=20).to_record()
        assert record["verdict"] == "diverging"
        assert len(record["n_values"]) == len(record["traces"]) == 2


def per_prefix_trace(k_real, pts, n):
    """Reference Driscoll trace at one prefix: both Grams rebuilt and R_n factored from scratch."""
    r_gram = _real_gram(h2_kernel, pts[:n])
    k_gram = _real_gram(k_real, pts[:n])
    try:
        chol = scipy.linalg.cholesky(r_gram, lower=True)
    except np.linalg.LinAlgError:
        jitter = 1e-12 * np.trace(r_gram) / n
        chol = scipy.linalg.cholesky(r_gram + jitter * np.eye(n), lower=True)
    half = scipy.linalg.solve_triangular(chol, k_gram, lower=True)
    congruent = scipy.linalg.solve_triangular(chol, half.T, lower=True)
    return float(np.trace(congruent))


def per_prefix_traces(k_real, pts, n_max):
    """Reference Driscoll traces, every prefix factored on its own."""
    return tuple(per_prefix_trace(k_real, pts, n) for n in range(10, n_max + 1, 10))


def assert_traces_close(traces, reference, rel=1e-9):
    assert len(traces) == len(reference)
    for got, want in zip(traces, reference):
        assert abs(got - want) <= rel * max(1.0, abs(want))


def _candidate_kernels():
    geo = geometric_kernel(0.5)
    mixture = {
        "name": "mixture",
        "params": {"weight1": 1.0, "weight2": 1.0},
        "component1": {"name": "geometric", "params": {"alpha": 0.5}},
        "component2": {"name": "cozine", "params": {"a": 0.9, "omega0": 0.2 * math.pi}},
    }
    return {
        "geometric": geo,
        "cozine": cozine_kernel(0.9, 0.2 * math.pi),
        "mixture": from_config(mixture),
        "circular": circular_variant(geo),
    }


def _candidate_parts():
    parts = {"h2": h2_kernel}
    for name, kernel in _candidate_kernels().items():
        parts[f"{name}-real"], parts[f"{name}-imag"] = real_imag_kernels(kernel)
    return parts


CANDIDATE_PARTS = _candidate_parts()


class TestDriscollGramViews:
    """One factorization of R_{n_max} gives the traces of factoring every
    prefix R_n, up to rounding: within 1e-9 relative while R is well
    conditioned (the worst seen is 5.2e-10, at n_max 230).  The traces were
    once compared bit for bit, which the test name still says."""

    @pytest.mark.parametrize("n_max", [120, 230])
    @pytest.mark.parametrize("name", sorted(CANDIDATE_PARTS))
    def test_traces_bit_identical(self, name, n_max):
        k_real = CANDIDATE_PARTS[name]
        report = driscoll_test(k_real, n_max=n_max)
        assert_traces_close(report.traces, per_prefix_traces(k_real, dense_spiral(n_max), n_max))

    def test_points_longer_than_n_max(self):
        pts = dense_spiral(300, 1.1, 2.5)
        k_real = CANDIDATE_PARTS["mixture-real"]
        report = driscoll_test(k_real, n_max=150, points=pts)
        assert report.n_values[-1] == 150
        assert_traces_close(report.traces, per_prefix_traces(k_real, pts, 150))

    def test_jitter_retry_perturbs_every_prefix(self):
        """A near-duplicate point makes R_{n_max} fail its first factorization;
        the retry's jitter then enters all prefixes, even those before the
        near-duplicate, whose own factorization needs none."""
        pts = dense_spiral(40)
        pts[30] = pts[5] * (1.0 + 1e-15)
        report = driscoll_test(h2_kernel, n_max=40, points=pts)
        r_full = _real_gram(h2_kernel, pts)
        with pytest.raises(np.linalg.LinAlgError):
            scipy.linalg.cholesky(r_full, lower=True)
        jitter = 1e-12 * float(np.mean(np.diag(r_full)))
        chol = scipy.linalg.cholesky(r_full + jitter * np.eye(40), lower=True)
        half = scipy.linalg.solve_triangular(chol, r_full, lower=True)
        diag = np.diag(scipy.linalg.solve_triangular(chol, half.T, lower=True))
        assert report.traces == tuple(float(t) for t in np.cumsum(diag)[9::10])
        # R_10 factors without jitter and its self-trace is 10 to rounding
        # there; the shared jitter moves it by more than that
        assert per_prefix_trace(h2_kernel, pts, 10) == pytest.approx(10.0, abs=1e-13)
        assert 1e-12 < 10.0 - report.traces[0] < 1e-9


GEOMETRIC_RECORD = {"name": "geometric", "params": {"alpha": 0.5}}
PART_KERNELS = {
    "h2": cli.parse_kernel({"name": "h2"}, verify=True)({}),
    **_candidate_kernels(),
    "hand-built-geometric": ComplexKernel(geometric_kernel(0.5).hermitian_eval, geometric_kernel(0.5).complementary_eval),
    "circular-family": cli.parse_kernel({**GEOMETRIC_RECORD, "circular": True}, verify=True)({}),
}


def counting(calls, part, fn, n_max):
    """``fn`` that counts its calls on the n_max x n_max probe grid under ``part``."""

    def wrapped(z, w):
        if np.shape(z) == (n_max, 1) and np.shape(w) == (1, n_max):
            calls[part] += 1
        return fn(z, w)

    return wrapped


class TestDriscollParts:
    """One probe for both parts, from one H2 factorization.  A kernel without
    terms gives the reports of two ``driscoll_test`` calls bit for bit, from
    one evaluation of k and kt; a kernel with terms gives them within 1e-8
    relative (the worst seen is 4.4e-9, geometric at n_max 230) and growth
    slopes within 1e-10 of max(1, |last trace|) (6.1e-11 seen), from one
    triangular solve with its terms and no candidate Gram."""

    @pytest.mark.parametrize("n_max", [120, 230])
    @pytest.mark.parametrize("name", sorted(PART_KERNELS))
    def test_equals_one_test_per_part(self, name, n_max):
        kernel = PART_KERNELS[name]
        expected = tuple(driscoll_test(part, n_max) for part in real_imag_kernels(kernel))
        parts = driscoll_parts(kernel, n_max)
        if kernel._terms is None:
            assert (parts.real_part, parts.imag_part) == expected
            assert parts.terms is None and parts.terms_tail is None
            return
        assert parts.terms == kernel._terms.psi(dense_spiral(1)).shape[1]
        assert parts.terms_tail == kernel._terms.tail
        for got, want in zip((parts.real_part, parts.imag_part), expected):
            assert got.n_values == want.n_values and got.verdict == want.verdict
            assert_traces_close(got.traces, want.traces, rel=1e-8)
            assert got.growth_slope == pytest.approx(want.growth_slope, abs=1e-10 * max(1.0, want.traces[-1]))

    def test_circular_parts_are_equal(self):
        parts = driscoll_parts(PART_KERNELS["circular-family"], 60)
        assert parts.real_part == parts.imag_part

    def test_n_max_validation(self):
        with pytest.raises(ValueError, match="n_max"):
            driscoll_parts(geometric_kernel(0.5), n_max=15)

    def test_verify_record_factors_and_evaluates_once(self, monkeypatch):
        n_max = 60
        probe_calls = {"hermitian": 0, "complementary": 0}
        factor_calls = []

        def counting_factor(mat, rel_jitter):
            factor_calls.append(mat.shape)
            return chol_factor_with_jitter(mat, rel_jitter=rel_jitter)

        geo = geometric_kernel(0.5)
        kernel = ComplexKernel(
            counting(probe_calls, "hermitian", geo.hermitian_eval, n_max),
            counting(probe_calls, "complementary", geo.complementary_eval, n_max),
        )
        monkeypatch.setattr(verify, "chol_factor_with_jitter", counting_factor)
        record = cli._verify_record(kernel, n_max, 30)
        assert factor_calls == [(n_max, n_max)]
        assert probe_calls == {"hermitian": 1, "complementary": 1}
        assert record["driscoll"]["real_part"]["verdict"] == "converging"

    def test_terms_route_builds_no_candidate_gram(self):
        n_max = 60
        probe_calls = {"hermitian": 0, "complementary": 0}
        geo = geometric_kernel(0.5)
        kernel = ComplexKernel(
            counting(probe_calls, "hermitian", geo.hermitian_eval, n_max),
            counting(probe_calls, "complementary", geo.complementary_eval, n_max),
            geo._terms,
        )
        assert driscoll_parts(kernel, n_max) == driscoll_parts(geo, n_max)
        assert probe_calls == {"hermitian": 0, "complementary": 0}

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_terms_raise(self, bad):
        geo = geometric_kernel(0.5)

        def psi(z):
            values = geo._terms.psi(z)
            values[3, 7] = bad
            return values

        kernel = ComplexKernel(geo.hermitian_eval, geo.complementary_eval, geo._terms._replace(psi=psi))
        with pytest.raises(ValueError, match="infs or NaNs"):
            driscoll_parts(kernel, 40)

    def test_record_names_the_route(self, monkeypatch):
        """The ``driscoll`` section says which route computed it (``terms``,
        ``terms_tail``) and what jitter R's factorization took."""
        geometric = cli._verify_record(PART_KERNELS["geometric"], 60, 30)["driscoll"]
        assert (geometric["terms"], geometric["terms_tail"], geometric["h2_jitter"]) == (52, 0.5**52 / 0.5, 0.0)
        cozine = cli._verify_record(PART_KERNELS["cozine"], 60, 30)["driscoll"]
        assert (cozine["terms"], cozine["terms_tail"]) == (2, 0.0)
        h2 = cli._verify_record(PART_KERNELS["h2"], 60, 30)["driscoll"]
        assert (h2["terms"], h2["terms_tail"], h2["h2_jitter"]) == (None, None, 0.0)

        def jittered(mat, rel_jitter):
            factor, _ = chol_factor_with_jitter(mat, rel_jitter=rel_jitter)
            return factor, 2.5e-13

        monkeypatch.setattr(verify, "chol_factor_with_jitter", jittered)
        assert cli._verify_record(PART_KERNELS["h2"], 60, 30)["driscoll"]["h2_jitter"] == 2.5e-13

    def test_terms_traces_against_80_digits(self):
        """geometric(0.5)'s real part on the terms route, against the same
        traces tr(R_n^{-1} P_n P_n^T) evaluated with 80 digits from the same
        float points and amplitudes: within 1e-14 relative (3.3e-16 seen)."""
        import mpmath

        n_max = 120
        kernel = geometric_kernel(0.5)
        amplitudes = kernel._terms.psi(np.ones(1, dtype=complex))[0].real.tolist()
        with mpmath.workdps(80):
            zs = [mpmath.mpc(complex(z)) for z in dense_spiral(n_max)]
            low, solved, row_norms = [], [], []
            for i, z in enumerate(zs):
                h2 = [mpmath.re(z * mpmath.conj(w) / (z * mpmath.conj(w) - 1)) for w in zs[: i + 1]]
                row = []  # row i of R's lower Cholesky factor
                for j in range(i):
                    row.append((h2[j] - mpmath.fdot(row, low[j][:j])) / low[j][j])
                row.append(mpmath.sqrt(h2[i] - mpmath.fdot(row, row)))
                low.append(row)
                terms = [mpmath.re(mpmath.mpf(a) * z ** (-m)) for m, a in enumerate(amplitudes)]
                x_row = [(p - mpmath.fdot(row[:i], [x[c] for x in solved])) / row[i] for c, p in enumerate(terms)]
                solved.append(x_row)
                row_norms.append(mpmath.fsum(v * v for v in x_row))
            exact = [float(mpmath.fsum(row_norms[:n])) for n in range(10, n_max + 1, 10)]
        traces = driscoll_parts(kernel, n_max).real_part.traces
        assert max(abs(t - e) / e for t, e in zip(traces, exact)) <= 1e-14


VERIFY_DEEP_RECORDS = {
    "h2": {"name": "h2"},
    "geometric": GEOMETRIC_RECORD,
    "cozine": {"name": "cozine", "params": {"a": 0.9, "omega0": 0.2 * math.pi}},
    "mixture": {
        "name": "mixture",
        "params": {"weight1": 1.0, "weight2": 1.0},
        "component1": GEOMETRIC_RECORD,
        "component2": {"name": "cozine", "params": {"a": 0.9, "omega0": 0.2 * math.pi}},
    },
    "circular": {**GEOMETRIC_RECORD, "circular": True},
}


@pytest.mark.parametrize("name", sorted(VERIFY_DEEP_RECORDS))
def test_known_classes_at_n_max_400(name):
    """At n_max 400, where cond(R) nears 1e16, each record gets its known
    class: h2 diverges in both parts, and every kernel with terms converges
    in both (the dense route left geometric's imaginary part and both
    circular parts inconclusive)."""
    record = cli._verify_record(cli.parse_kernel(VERIFY_DEEP_RECORDS[name], verify=True)({}), 400, 200)
    expected = "diverging" if name == "h2" else "converging"
    assert [record["driscoll"][part]["verdict"] for part in ("real_part", "imag_part")] == [expected] * 2
    assert record["symmetry"]["passed"] == (name != "circular")


def prior_energy(record):
    """(sum_n a_n^2, sum_{n>=1} a_n^2) for a kernel config record.

    The first is the prior's H2 energy sum_n E h(n)^2, the limit of the
    Driscoll traces of the real part; the second drops E h(0)^2 = k(inf, inf)
    and is the limit for the imaginary part.  Mixtures are weighted sums.
    """
    name, params = record["name"], record.get("params", {})
    if name == "geometric":
        alpha = params["alpha"]
        return 1.0 / (1.0 - alpha), alpha / (1.0 - alpha)
    if name == "exponential":
        return math.e, math.e - 1.0
    if name == "cozine":
        a_sq = params["a"] ** 2
        return 1.0 / (1.0 - a_sq), a_sq / (1.0 - a_sq)
    if name == "stationary_list":
        coeffs = params["coefficients"]
        return math.fsum(coeffs), math.fsum(coeffs[1:])
    w1, w2 = params.get("weight1", 1.0), params.get("weight2", 1.0)
    first, second = prior_energy(record["component1"]), prior_energy(record["component2"])
    return tuple(w1 * e1 + w2 * e2 for e1, e2 in zip(first, second))


def _geometric(alpha):
    return {"name": "geometric", "params": {"alpha": alpha}}


def _cozine(a, omega0):
    return {"name": "cozine", "params": {"a": a, "omega0": omega0}}


def _explicit(coeffs):
    return {"name": "stationary_list", "params": {"coefficients": coeffs}}


ORACLE_RECORDS = {
    "geometric-0.3": _geometric(0.3),
    "geometric-0.5": _geometric(0.5),
    "geometric-0.8": _geometric(0.8),
    "exponential": {"name": "exponential"},
    "cozine-0.5-0.6": _cozine(0.5, 0.6),
    "cozine-0.9-0.2pi": _cozine(0.9, 0.2 * math.pi),
    "explicit": _explicit([1.0, 0.5, 0.25, 0.1]),
    "mixture": {
        "name": "mixture",
        "params": {"weight1": 1.0, "weight2": 0.5},
        "component1": _geometric(0.5),
        "component2": _cozine(0.9, 0.2 * math.pi),
    },
}


def oracle_errors(record, n_max):
    """|final trace - closed-form limit| for the real and the imaginary part."""
    parts = real_imag_kernels(from_config(record))
    return [
        (abs(driscoll_test(part, n_max=n_max).traces[-1] - limit), limit, part)
        for part, limit in zip(parts, prior_energy(record))
    ]


def terms_oracle_errors(record, n_max):
    """``oracle_errors`` of both parts from ``driscoll_parts``, which takes
    the terms route for every record here."""
    parts = driscoll_parts(from_config(record), n_max)
    return [
        (abs(report.traces[-1] - limit), limit)
        for report, limit in zip((parts.real_part, parts.imag_part), prior_energy(record))
    ]


class TestDriscollOracle:
    """The traces tend to the prior's closed-form energies (sum of a_n^2).

    On the dense route, ill conditioning at n_max 400 caps the accuracy, so
    the limits are checked at 200, where the probe itself has not yet quite
    converged (1e-6).  The terms route stays accurate at 400, where the
    probe has converged: within 1e-10 of max(1, limit) (2.2e-12 seen)."""

    @pytest.mark.parametrize("name", sorted(ORACLE_RECORDS))
    def test_final_trace_meets_prior_energy(self, name):
        for error, limit, _ in oracle_errors(ORACLE_RECORDS[name], 200):
            assert error <= 1e-6 * max(1.0, limit)

    @pytest.mark.parametrize("name", ["geometric-0.5", "cozine-0.9-0.2pi", "explicit", "mixture"])
    def test_no_further_from_prior_energy_than_per_prefix(self, name):
        # at n_max 400 cond(R) is about 1e16 and both routes miss the limit by
        # 3e-4 to 6e-3; one factorization must not add to that
        pts = dense_spiral(400)
        for error, limit, part in oracle_errors(ORACLE_RECORDS[name], 400):
            assert error <= 1.1 * abs(per_prefix_trace(part, pts, 400) - limit)

    @settings(derandomize=True, deadline=None, max_examples=25)
    @given(alpha=st.floats(0.05, 0.8))
    def test_geometric_limits(self, alpha):
        for error, limit, _ in oracle_errors(_geometric(alpha), 200):
            assert error <= 1e-6 * max(1.0, limit)

    @settings(derandomize=True, deadline=None, max_examples=25)
    @given(coeffs=st.lists(st.floats(0.0, 2.0), min_size=1, max_size=8))
    def test_explicit_limits(self, coeffs):
        assume(sum(coeffs) > 0.0)
        for error, limit, _ in oracle_errors(_explicit(coeffs), 200):
            assert error <= 1e-6 * max(1.0, limit)

    @pytest.mark.parametrize("name", sorted(ORACLE_RECORDS))
    def test_terms_route_meets_prior_energy_at_400(self, name):
        for error, limit in terms_oracle_errors(ORACLE_RECORDS[name], 400):
            assert error <= 1e-10 * max(1.0, limit)

    @settings(derandomize=True, deadline=None, max_examples=25)
    @given(alpha=st.floats(0.05, 0.8))
    def test_terms_route_geometric_limits(self, alpha):
        for error, limit in terms_oracle_errors(_geometric(alpha), 400):
            assert error <= 1e-10 * max(1.0, limit)

    @settings(derandomize=True, deadline=None, max_examples=25)
    @given(coeffs=st.lists(st.floats(0.0, 2.0), min_size=1, max_size=8))
    def test_terms_route_explicit_limits(self, coeffs):
        assume(sum(coeffs) > 0.0)
        for error, limit in terms_oracle_errors(_explicit(coeffs), 400):
            assert error <= 1e-10 * max(1.0, limit)


class TestSymmetry:
    @pytest.mark.parametrize(
        "kernel",
        [
            geometric_kernel(0.3),
            geometric_kernel(0.7),
            exponential_kernel(),
            cozine_kernel(0.5, math.pi / 2.0),
            cozine_kernel(0.9, 0.4),
            from_config(
                {
                    "name": "mixture",
                    "params": {"weight1": 1.0, "weight2": 0.5},
                    "component1": {"name": "geometric", "params": {"alpha": 0.5}},
                    "component2": {"name": "cozine", "params": {"a": 0.6, "omega0": 2.0}},
                }
            ),
        ],
        ids=["geo03", "geo07", "exp", "cozine-res", "cozine-slow", "mixture"],
    )
    def test_builtin_kernels_pass(self, kernel):
        report = symmetry_test(kernel, dense_spiral(200, 1.1, 3.0))
        assert report.max_err_diag < 1e-10
        assert report.max_err_cross < 1e-10

    def test_circular_counterexample_fails(self):
        report = symmetry_test(circular_variant(geometric_kernel(0.5)), dense_spiral(200, 1.1, 3.0))
        assert report.max_err_cross > 1e-2  # kt = 0 cannot equal k(z,z) > 0

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            symmetry_test(geometric_kernel(0.5), [])

    @pytest.mark.parametrize(
        "grid",
        [dense_spiral(20, 0.2, 0.9), dense_spiral(20, 0.0, 0.0), [2.0, 0.5j]],
        ids=["inside", "origin", "one-point"],
    )
    def test_grid_inside_unit_disk_rejected(self, grid):
        """Reports hold only on the kernel domain |z| >= 1, checked as for regression sites."""
        with pytest.raises(ValueError, match="lies outside the kernel domain"):
            symmetry_test(geometric_kernel(0.5), grid)

    def test_record_reports_grid_size(self):
        record = symmetry_test(geometric_kernel(0.5), dense_spiral(30)).to_record()
        assert record["grid_size"] == 30
