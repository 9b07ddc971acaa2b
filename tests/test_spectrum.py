import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq
from scipy.stats import norm

from sigclust import (
    DataMatrix,
    DegenerateNoiseError,
    EigenSpectrum,
    InvalidConfigError,
    InvalidDataError,
    MAD_STD_NORMAL,
    NoiseEstimate,
    NoTraceSolutionError,
    NullSpectrum,
    estimate_noise,
    hard_threshold,
    sample_spectrum,
    soft_threshold,
)
from sigclust.spectrum import _MEDIAN_MIN_SIZE, _MEDIAN_SAMPLE, _median


def spectrum_of(eigenvalues, d=None, n=10):
    lam = np.asarray(eigenvalues, dtype=np.float64)
    d = d if d is not None else lam.size
    return EigenSpectrum(eigenvalues=lam, trace=float(lam.sum()), d=d, n=n)


def random_spectra(count, rng, d_range=(5, 2000)):
    """Random spiked spectra paired with noise levels that keep the
    trace-matching problem feasible."""
    for _ in range(count):
        d = int(rng.integers(*d_range))
        n_spikes = int(rng.integers(0, min(d, 12) + 1))
        bulk = rng.uniform(0.05, 1.5, size=d)
        bulk[:n_spikes] += rng.uniform(2.0, 500.0, size=n_spikes)
        lam = np.sort(bulk)[::-1]
        # sigma^2 strictly below the mean eigenvalue so a solution exists
        s2 = float(rng.uniform(0.05, 0.95)) * float(lam.mean())
        yield spectrum_of(lam), NoiseEstimate(sigma_n_sq=s2, mad_raw=np.sqrt(s2) * MAD_STD_NORMAL)


class TestEstimateNoise:
    def test_mad_constant_is_the_normal_quartile(self):
        assert MAD_STD_NORMAL == norm.ppf(0.75)

    def test_hand_case(self):
        x = DataMatrix(np.array([[1.0, 2.0, 3.0, 4.0, 5.0]]))
        noise = estimate_noise(x)
        assert noise.mad_raw == 1.0
        assert np.sqrt(noise.sigma_n_sq) == pytest.approx(1.0 / norm.ppf(0.75), rel=1e-12)
        assert np.sqrt(noise.sigma_n_sq) == pytest.approx(1.48260, abs=5e-6)

    def test_constant_matrix_degenerate(self):
        with pytest.raises(DegenerateNoiseError):
            estimate_noise(DataMatrix(np.full((3, 5), 2.5)))

    def test_monte_carlo_consistency(self):
        rng = np.random.default_rng(42)
        x = DataMatrix(rng.normal(0.0, 2.0, size=(1000, 1000)))
        noise = estimate_noise(x)
        assert 3.9 <= noise.sigma_n_sq <= 4.1

    def test_location_invariance(self):
        # Integer-valued entries and shift keep every float op exact.
        rng = np.random.default_rng(5)
        base = rng.integers(-10, 10, size=(7, 9)).astype(np.float64)
        shifted = estimate_noise(DataMatrix(base + 3.0))
        assert shifted == estimate_noise(DataMatrix(base))

    @settings(max_examples=300, deadline=None)
    @given(
        data=st.data(),
        d=st.integers(1, 7),
        n=st.integers(2, 6),
        ties=st.booleans(),
        transposed=st.booleans(),
    )
    def test_matches_the_one_line_mad(self, data, d, n, ties, transposed):
        # d * n runs over odd and even entry counts; small integers give ties.
        cell = (st.integers(-3, 3).map(float) if ties else
                st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False))
        cells = data.draw(st.lists(cell, min_size=d * n, max_size=d * n))
        values = np.array(cells).reshape((n, d) if transposed else (d, n))
        x = DataMatrix(values.T if transposed else values)
        before = x.values.copy()
        entries = x.values.ravel()
        want = float(np.median(np.abs(entries - np.median(entries))))
        if want == 0.0:
            with pytest.raises(DegenerateNoiseError):
                estimate_noise(x)
        else:
            noise = estimate_noise(x)
            assert noise.mad_raw == want
            # Squared as estimate_noise squares it: ``** 2`` goes through
            # libm's pow, which is not always correctly rounded.
            sigma_n = want / MAD_STD_NORMAL
            assert noise.sigma_n_sq == sigma_n * sigma_n
        np.testing.assert_array_equal(x.values, before)


def _bits(value):
    return np.float64(value).tobytes()


def _median_input(kind, size, rng):
    if kind == "normal":
        a = rng.normal(size=size)
    elif kind == "sorted":
        a = np.sort(rng.normal(size=size))
    elif kind == "reversed":
        a = np.sort(rng.normal(size=size))[::-1].copy()
    elif kind == "ties":
        a = rng.integers(0, 3, size=size).astype(np.float64)
    elif kind == "small-int":
        a = rng.integers(-20, 20, size=size).astype(np.float64)
    else:  # "huge": the two middle entries near ±1.7e308 overflow their sum
        a = rng.uniform(-1.0, 1.0, size=size) * 1.7e308
        sign = rng.choice([-1.0, 1.0])
        a[rng.permutation(size)[: size // 2]] = sign * rng.uniform(1.69e308, 1.7e308)
    return a + 0.0  # no -0.0, whose sign np.partition may put either way


class TestMedian:
    """``_median`` is ``np.median`` bit for bit, whichever way it finds it."""

    @settings(max_examples=120, deadline=None)
    @given(
        offset=st.integers(-3, 3),
        scale=st.sampled_from([1, 3]),
        kind=st.sampled_from(["normal", "sorted", "reversed", "ties", "small-int", "huge"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_np_median(self, offset, scale, kind, seed):
        # Odd and even sizes on both sides of the size constant.
        a = _median_input(kind, scale * _MEDIAN_MIN_SIZE + offset, np.random.default_rng(seed))
        before = a.copy()
        with np.errstate(over="ignore"):
            want, got = np.median(a), _median(a)
        assert _bits(got) == _bits(want)
        np.testing.assert_array_equal(a, before)

    def test_band_selection_runs_on_random_data(self, monkeypatch):
        monkeypatch.setattr(np, "median", lambda a: pytest.fail("fell back to np.median"))
        rng = np.random.default_rng(3)
        for size in (_MEDIAN_MIN_SIZE, 2 * _MEDIAN_MIN_SIZE + 1):
            a = rng.normal(size=size)
            assert _bits(_median(a)) == _bits(np.sort(a)[[(size - 1) // 2, size // 2]].mean())

    @pytest.mark.parametrize("size", [_MEDIAN_MIN_SIZE, _MEDIAN_MIN_SIZE + 1])
    def test_sample_that_misses_falls_back(self, monkeypatch, size):
        # Every sampled entry is 1.0 and every other one 0.0, so the band
        # [1.0, 1.0] lies above the median's rank.
        a = np.zeros(size)
        a[:: size // _MEDIAN_SAMPLE] = 1.0
        median, calls = np.median, []
        monkeypatch.setattr(np, "median", lambda b: calls.append(b) or median(b))
        assert _bits(_median(a)) == _bits(0.0)
        assert len(calls) == 1 and calls[0] is a

    def test_below_size_constant_is_np_median(self, monkeypatch):
        a = np.random.default_rng(4).normal(size=_MEDIAN_MIN_SIZE - 1)
        monkeypatch.setattr(np, "median", lambda b: "np.median")
        assert _median(a) == "np.median"

    @settings(max_examples=25, deadline=None)
    @given(d=st.integers(400, 1500), n=st.integers(100, 200), seed=st.integers(0, 2**32 - 1))
    def test_estimate_noise_matches_two_np_medians(self, d, n, seed):
        rng = np.random.default_rng(seed)
        values = rng.normal(size=(d, n)) * rng.uniform(0.5, 3.0, size=(d, 1))
        values[: d // 10] += rng.normal(0.0, 4.0, size=(d // 10, 1))
        x = DataMatrix(values)
        entries = x.values.ravel()
        mad = float(np.median(np.abs(entries - np.median(entries))))
        noise = estimate_noise(x)
        assert noise.mad_raw == mad
        sigma_n = mad / MAD_STD_NORMAL
        assert noise.sigma_n_sq == sigma_n * sigma_n


class TestHardThreshold:
    NOISE = NoiseEstimate(sigma_n_sq=1.0, mad_raw=MAD_STD_NORMAL)

    def test_hand_case(self):
        out = hard_threshold(spectrum_of([5.0, 2.0, 0.5, 0.2]), self.NOISE)
        np.testing.assert_array_equal(out.eigenvalues, [5.0, 2.0, 1.0, 1.0])
        assert out.rank_cap_l == 2
        assert out.sigma_n_sq == 1.0

    def test_pure_noise_case(self):
        out = hard_threshold(spectrum_of([0.9, 0.5, 0.1]), self.NOISE)
        np.testing.assert_array_equal(out.eigenvalues, [1.0, 1.0, 1.0])
        assert out.rank_cap_l == 0

    def test_top_spike_retained_unchanged(self):
        # Values shaped like the d/n = 10 limit of a single 100-spike.
        lam = np.r_[110.1, 17.3, np.linspace(16.0, 5.0, 8)]
        out = hard_threshold(spectrum_of(lam), self.NOISE)
        assert out.eigenvalues[0] == 110.1

    def test_equals_entrywise_max_on_random_spectra(self):
        rng = np.random.default_rng(1)
        for spec, noise in random_spectra(50, rng, d_range=(5, 300)):
            out = hard_threshold(spec, noise)
            np.testing.assert_array_equal(
                out.eigenvalues, np.maximum(spec.padded(), noise.sigma_n_sq)
            )
            assert out.rank_cap_l == int((spec.padded() > noise.sigma_n_sq).sum())

    def test_padding_floors_at_noise(self):
        out = hard_threshold(spectrum_of([5.0, 2.0], d=6), self.NOISE)
        np.testing.assert_array_equal(out.eigenvalues, [5.0, 2.0, 1.0, 1.0, 1.0, 1.0])


class TestSoftThreshold:
    NOISE = NoiseEstimate(sigma_n_sq=1.0, mad_raw=MAD_STD_NORMAL)

    def test_hand_case_one(self):
        out = soft_threshold(spectrum_of([10.0, 0.5, 0.5]), self.NOISE)
        assert out.tau == pytest.approx(1.0, abs=1e-10)
        np.testing.assert_allclose(out.eigenvalues, [9.0, 1.0, 1.0], atol=1e-10)
        assert out.eigenvalues.sum() == pytest.approx(11.0, abs=1e-9)

    def test_hand_case_two(self):
        out = soft_threshold(spectrum_of([6.0, 3.0, 0.3, 0.3, 0.3, 0.1]), self.NOISE)
        assert out.tau == pytest.approx(1.5, abs=1e-10)
        np.testing.assert_allclose(
            out.eigenvalues, [4.5, 1.5, 1.0, 1.0, 1.0, 1.0], atol=1e-10
        )
        assert out.eigenvalues.sum() == pytest.approx(10.0, abs=1e-9)

    def test_tau_zero_when_all_above_noise(self):
        lam = np.array([5.0, 3.0, 1.5, 1.2])
        out = soft_threshold(spectrum_of(lam), self.NOISE)
        assert out.tau == 0.0
        np.testing.assert_array_equal(out.eigenvalues, lam)

    def test_no_trace_solution(self):
        noise = NoiseEstimate(sigma_n_sq=2.0, mad_raw=1.0)
        with pytest.raises(NoTraceSolutionError):
            soft_threshold(spectrum_of([1.0, 1.0]), noise)

    def test_noise_floor_equal_to_trace(self):
        # d * s2 == trace: no rho qualifies, tau = lam_1 - s2 and every
        # eigenvalue lands on the floor.
        out = soft_threshold(spectrum_of([3.0, 1.0]), NoiseEstimate(2.0, 1.0))
        assert out.tau == 1.0
        np.testing.assert_array_equal(out.eigenvalues, [2.0, 2.0])

    def test_tau_zero_when_smallest_eigenvalue_equals_noise(self):
        lam = np.array([5.0, 2.0, 1.0])
        out = soft_threshold(spectrum_of(lam), self.NOISE)
        assert out.tau == 0.0
        np.testing.assert_array_equal(out.eigenvalues, lam)

    def test_tau_on_a_breakpoint(self):
        # u = lam - s2 = [6, 2, -2, -2]: tau = 2 = u_2, so the second
        # eigenvalue lands exactly on the floor.
        out = soft_threshold(spectrum_of([9.0, 5.0, 1.0, 1.0]), NoiseEstimate(3.0, 1.0))
        assert out.tau == 2.0
        np.testing.assert_array_equal(out.eigenvalues, [7.0, 3.0, 3.0, 3.0])

    @pytest.mark.parametrize("s2", [1.0, 4.0])
    def test_single_eigenvalue(self, s2):
        out = soft_threshold(spectrum_of([4.0]), NoiseEstimate(s2, 1.0))
        assert out.tau == 0.0
        np.testing.assert_array_equal(out.eigenvalues, [4.0])

    @settings(max_examples=300, deadline=None)
    @given(
        head=st.lists(st.floats(0.0, 1e4, allow_subnormal=False), min_size=1, max_size=60),
        pad=st.integers(0, 200),
        share=st.floats(0.0, 1.0),
    )
    def test_exact_tau_properties(self, head, pad, share):
        lam = np.sort(np.asarray(head))[::-1]
        spec = spectrum_of(lam, d=lam.size + pad)
        trace = spec.padded().sum()
        s2 = share * trace / spec.d
        assume(s2 > 0.0 and spec.d * s2 <= trace)
        out = soft_threshold(spec, NoiseEstimate(s2, 1.0))
        assert abs(out.eigenvalues.sum() - trace) <= 1e-12 * trace
        assert out.tau >= 0.0
        assert np.all(out.eigenvalues >= s2)
        assert np.all(np.diff(out.eigenvalues) <= 0.0)

    def test_trace_preserved_and_tau_matches_brentq_oracle(self):
        rng = np.random.default_rng(2)
        for spec, noise in random_spectra(200, rng, d_range=(5, 400)):
            out = soft_threshold(spec, noise)
            lam = spec.padded()
            target = lam.sum()
            assert abs(out.eigenvalues.sum() - target) <= 1e-8 * target

            if out.tau > 0.0:
                s2 = noise.sigma_n_sq

                def residual(tau):
                    return np.maximum(lam - tau - s2, 0.0).sum() + lam.size * s2 - target

                oracle = brentq(residual, 0.0, float(lam[0]), xtol=1e-13)
                assert out.tau == pytest.approx(oracle, abs=1e-9 * max(lam[0], 1.0))

    def test_soft_below_hard_with_shared_floor(self):
        rng = np.random.default_rng(3)
        for spec, noise in random_spectra(40, rng, d_range=(5, 200)):
            soft = soft_threshold(spec, noise).eigenvalues
            hard = hard_threshold(spec, noise).eigenvalues
            assert np.all(soft <= hard + 1e-12)
            floor = spec.padded() <= noise.sigma_n_sq
            np.testing.assert_array_equal(soft[floor], hard[floor])

    def test_shrunk_sum_monotone_in_tau(self):
        lam = np.r_[40.0, 12.0, np.ones(20)]
        s2 = 0.8
        taus = np.linspace(0.0, 45.0, 200)
        sums = [np.maximum(lam - t - s2, 0.0).sum() + lam.size * s2 for t in taus]
        assert np.all(np.diff(sums) <= 1e-12)

    def test_ordering_preserved(self):
        rng = np.random.default_rng(4)
        for spec, noise in random_spectra(30, rng, d_range=(5, 150)):
            for out in (soft_threshold(spec, noise), hard_threshold(spec, noise)):
                assert np.all(np.diff(out.eigenvalues) <= 1e-15)


@pytest.mark.parametrize("method,eigenvalues,error,message", [
    ("bogus", [1.0], InvalidConfigError, "unknown spectrum method 'bogus'"),
    ("true", [[1.0]], InvalidDataError, "nonempty 1-d"),
    ("true", [], InvalidDataError, "nonempty 1-d"),
    ("true", [2.0, np.nan], InvalidDataError, "NaN or infinite"),
    ("true", [1.0, 2.0], InvalidDataError, "sorted descending"),
    ("true", [1.0, -1.0], InvalidDataError, "nonnegative with positive sum"),
    ("true", [0.0, 0.0], InvalidDataError, "nonnegative with positive sum"),
    ("hard", [1.0, 0.0], InvalidDataError, "hard spectrum must be strictly positive"),
], ids=["method", "2-d", "empty", "nan", "ascending", "negative", "zero-sum", "hard-zero"])
def test_null_spectrum_validation(method, eigenvalues, error, message):
    with pytest.raises(error, match=message):
        NullSpectrum(method=method, eigenvalues=np.asarray(eigenvalues, dtype=np.float64))


def test_thresholding_composes_with_sample_spectrum():
    # End-to-end: spiked data in, positive descending null spectra out.
    rng = np.random.default_rng(8)
    x = rng.normal(size=(150, 40))
    x[:3] *= 8.0
    data = DataMatrix(x)
    spec = sample_spectrum(data)
    noise = estimate_noise(data)
    hard = hard_threshold(spec, noise)
    soft = soft_threshold(spec, noise)
    for out in (hard, soft):
        assert out.eigenvalues.size == 150
        assert out.eigenvalues[-1] > 0.0
    assert soft.eigenvalues.sum() == pytest.approx(spec.trace, rel=1e-8)
