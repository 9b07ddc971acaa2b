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
    SpikeBelowBulkError,
    estimate_noise,
    hard_threshold,
    rmt_predicted_spectrum,
    sample_spectrum,
    soft_threshold,
)


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


class TestRmtPrediction:
    def test_single_spike_limits(self):
        out = rmt_predicted_spectrum(v=100.0, w=1, n=100, d=1000)
        assert out.shape == (3,)
        assert out[0] == pytest.approx(100.0 + 10.0 * 100.0 / 99.0, rel=1e-12)
        assert out[0] == pytest.approx(110.1010, abs=5e-5)
        assert out[1] == pytest.approx((1.0 + np.sqrt(10.0)) ** 2, rel=1e-12)
        assert out[1] == pytest.approx(17.3246, abs=5e-5)
        assert out[2] == pytest.approx((1.0 - np.sqrt(10.0)) ** 2, rel=1e-12)

    def test_tall_spike(self):
        out = rmt_predicted_spectrum(v=1000.0, w=1, n=100, d=1000)
        assert out[0] == pytest.approx(1010.01, abs=5e-3)

    def test_spike_below_bulk(self):
        with pytest.raises(SpikeBelowBulkError) as exc:
            rmt_predicted_spectrum(v=2.0, w=1, n=100, d=1000)
        assert exc.value.bulk_edge_upper == pytest.approx((1 + np.sqrt(10.0)) ** 2)
        assert exc.value.bulk_edge_lower == pytest.approx((1 - np.sqrt(10.0)) ** 2)

    def test_multiple_spikes_width(self):
        out = rmt_predicted_spectrum(v=50.0, w=4, n=50, d=300)
        assert out.shape == (6,)
        assert np.all(out[:4] == out[0])

    def test_shape_preconditions(self):
        with pytest.raises(InvalidConfigError):
            rmt_predicted_spectrum(v=100.0, w=1, n=100, d=50)  # d <= n
        with pytest.raises(InvalidConfigError):
            rmt_predicted_spectrum(v=100.0, w=100, n=100, d=1000)  # w >= n


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
