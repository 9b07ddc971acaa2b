import hashlib

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from sigclust import (
    DataMatrix,
    InvalidConfigError,
    InvalidSpectraError,
    NullSpectrum,
    TestConfig,
    empirical_p,
    engine,
    gaussian_p,
    run_test,
    run_tests,
    simulate_null_cis,
)


def make_config(**kwargs):
    kwargs.setdefault("n_sim", 100)
    kwargs.setdefault("master_seed", 1234)
    return TestConfig(**kwargs)


def combined_null(hard, soft, n, config):
    """Per-replication minimum of the hard and soft null indices."""
    return np.minimum(*engine._simulate((hard, soft), n, config))


class TestPValueHelpers:
    def test_empirical_formula(self):
        null = np.array([0.1, 0.2, 0.3, 0.4])
        assert empirical_p(0.25, null) == (1 + 2) / 5
        assert empirical_p(0.0, null) == 1 / 5  # floor, never zero
        assert empirical_p(1.0, null) == 1.0

    def test_gaussian_at_mean_is_half(self):
        assert gaussian_p(0.5, 0.5, 0.1) == 0.5

    def test_gaussian_open_interval(self):
        assert 0.0 < gaussian_p(-100.0, 0.5, 0.001) < 1.0
        assert 0.0 < gaussian_p(100.0, 0.5, 0.001) < 1.0

    def test_gaussian_zero_sd_degenerate(self):
        assert gaussian_p(0.3, 0.3, 0.0) == 0.5
        assert gaussian_p(0.2, 0.3, 0.0) < 0.5 < gaussian_p(0.4, 0.3, 0.0)

    def test_gaussian_matches_ndtr(self):
        z = np.linspace(-37.0, 8.0, 4501)
        p = np.array([gaussian_p(v, 0.0, 1.0) for v in z])
        np.testing.assert_allclose(p, ndtr(z), rtol=1e-9, atol=0.0)

    def test_gaussian_deep_lower_tail_is_not_clamped(self):
        p = gaussian_p(-30.0, 0.0, 1.0)
        assert p == pytest.approx(4.906713927148187e-198, rel=1e-9)
        assert p > 1e100 * np.finfo(np.float64).tiny


class TestSimulateNullCis:
    def test_range_and_length(self):
        spec = NullSpectrum(method="true", eigenvalues=np.array([1.0]))
        cis = simulate_null_cis(spec, n=4, config=make_config())
        assert cis.shape == (100,)
        assert np.all((cis >= 0.0) & (cis <= 1.0))

    def test_deterministic(self):
        spec = NullSpectrum(method="true", eigenvalues=np.array([1.0]))
        a = simulate_null_cis(spec, n=6, config=make_config())
        b = simulate_null_cis(spec, n=6, config=make_config())
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("restarts", [1, 20])
    def test_block_size_does_not_change_results(self, monkeypatch, restarts):
        # n = 10 puts many replications in a block by default; a budget of
        # one byte runs one (replication, arm) element per block.
        lam = _spiked(40, [9.0, 4.0])
        hard = NullSpectrum(method="hard", eigenvalues=lam, sigma_n_sq=1.0)
        wide = NullSpectrum(method="true", eigenvalues=np.linspace(12.0, 0.5, 40))
        config = make_config(n_sim=150, restarts_null=restarts)
        assert engine._block_size(10, 2) > 1
        blocked = engine._simulate((hard, wide), 10, config)
        single = simulate_null_cis(hard, 10, config)
        monkeypatch.setattr(engine, "_BLOCK_BYTES", 1)
        assert engine._block_size(10, 1) == 1
        np.testing.assert_array_equal(simulate_null_cis(hard, 10, config), single)
        np.testing.assert_array_equal(blocked[0], single)
        for a, b in zip(engine._simulate((hard, wide), 10, config), blocked):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("restarts,digest", [
        (20, "c943f715a8284129ba437292971444b9552ab12020524628cea8834390a4a4af"),
        (1, "0392b0f3560c26d2d8e6fbf3846910e6155cc9beff5a27aa62c9f74b52bbb67c"),
    ])
    def test_null_stream_pin(self, restarts, digest):
        # Pins the null streams and the 2-means kernel bit for bit, as
        # computed on x86-64 with OpenBLAS (another BLAS may round the
        # Gram products differently). A change that moves the null indices
        # on purpose updates the digests and says so.
        spec = NullSpectrum(method="true", eigenvalues=np.r_[9.0, 4.0, 2.0, np.ones(27)])
        config = TestConfig(n_sim=100, master_seed=20240607, restarts_null=restarts)
        cis = simulate_null_cis(spec, n=9, config=config)
        assert hashlib.sha256(cis.tobytes()).hexdigest() == digest

    def test_worker_count_does_not_change_results(self):
        lam = np.sort(np.random.default_rng(0).uniform(0.5, 5.0, 8))[::-1]
        spec = NullSpectrum(method="true", eigenvalues=lam)
        serial = simulate_null_cis(spec, n=12, config=make_config())
        parallel = simulate_null_cis(spec, n=12, config=make_config(workers=3))
        np.testing.assert_array_equal(serial, parallel)

    def test_mean_tracks_population_value(self):
        # Spiked spectrum: the simulated indices concentrate near the
        # population value of the optimal split, with finite-sample bias.
        from sigclust import theoretical_ci

        lam = np.r_[100.0, np.ones(999)]
        spec = NullSpectrum(method="true", eigenvalues=lam)
        cis = simulate_null_cis(spec, n=100, config=make_config())
        assert abs(cis.mean() - theoretical_ci(lam)) < 0.03


class TestCombined:
    def test_equal_spectra_match_single_run(self):
        lam = np.array([4.0, 2.0, 1.0, 1.0])
        a = NullSpectrum(method="hard", eigenvalues=lam, sigma_n_sq=1.0)
        b = NullSpectrum(method="soft", eigenvalues=lam, sigma_n_sq=1.0, tau=0.0)
        config = make_config()
        combined = combined_null(a, b, n=10, config=config)
        single = simulate_null_cis(a, n=10, config=config)
        np.testing.assert_array_equal(combined, single)

    def test_min_property_exact(self):
        hard = NullSpectrum(
            method="hard", eigenvalues=np.array([9.0, 2.0, 1.0]), sigma_n_sq=1.0
        )
        soft = NullSpectrum(
            method="soft", eigenvalues=np.array([6.0, 1.5, 1.0]), sigma_n_sq=1.0, tau=3.0
        )
        config = make_config()
        combined = combined_null(hard, soft, n=15, config=config)
        hard_only = simulate_null_cis(hard, n=15, config=config)
        soft_only = simulate_null_cis(soft, n=15, config=config)
        np.testing.assert_array_equal(combined, np.minimum(hard_only, soft_only))

    @seed(20240607)
    @settings(max_examples=12, deadline=None)
    @given(
        d=st.integers(3, 30),
        n=st.integers(4, 16),
        spikes=st.lists(st.floats(2.0, 50.0), min_size=1, max_size=3),
        workers=st.sampled_from([1, 2]),
        data_seed=st.integers(0, 2**32 - 1),
    )
    def test_run_tests_combined_is_min_of_arms(self, d, n, spikes, workers, data_seed):
        sd = np.sqrt(_spiked(d, spikes))
        x = DataMatrix(sd[:, None] * np.random.default_rng(data_seed).standard_normal((d, n)))
        reports = run_tests(x, make_config(workers=workers), ("hard", "soft", "combined"))
        hard, soft, combined = (reports[m] for m in ("hard", "soft", "combined"))
        assert combined.null_cis.tobytes() == np.minimum(hard.null_cis, soft.null_cis).tobytes()
        assert combined.p_empirical >= max(hard.p_empirical, soft.p_empirical)


def _spiked(d, head):
    return np.r_[head, np.ones(d - len(head))]


def _factor_grams(lam, n, draws, seed):
    """Uncentred Gram matrices of ``draws`` compact null factors."""
    plan = engine._compact_plan((NullSpectrum(method="true", eigenvalues=lam),), n)
    rng = np.random.default_rng(seed)
    grams = []
    for _ in range(draws):
        (f,) = engine._factors(plan, n, rng)
        grams.append(f.T @ f)
    return np.array(grams)


def _dense_grams(lam, n, draws, seed):
    rng = np.random.default_rng(seed)
    grams = []
    for _ in range(draws):
        z = np.sqrt(lam)[:, None] * rng.standard_normal((lam.size, n))
        grams.append(z.T @ z)
    return np.array(grams)


class TestCompactNullFactor:
    # Spike heads over a unit floor; n = 6, so K = min(d, 6). d = 8 has
    # d - K = 2 <= n bulk rows (dense branch), d = 60 has 54 (Bartlett
    # branch); WIDE has more spikes than n, so its rows past K and its bulk
    # come from its own continuation of the stream.
    HEAD = [9.0, 4.0, 2.5]
    WIDE = [9.0, 6.0, 4.0, 3.0, 2.5, 2.0, 1.7, 1.4]
    CASES = [(8, HEAD), (60, HEAD), (60, WIDE)]

    @pytest.mark.parametrize("d,head", CASES)
    def test_gram_moments_match_exact_values(self, d, head):
        lam = _spiked(d, head)
        grams = _factor_grams(lam, n=6, draws=20000, seed=d + len(head))
        diag = grams[:, np.arange(6), np.arange(6)].ravel()
        off = grams[:, 0, 1:].ravel()
        s1, s2 = lam.sum(), (lam**2).sum()
        # Sample moments within 5 Monte Carlo standard errors; the errors
        # use the Gaussian fourth moments of the Gram entries.
        assert abs(diag.mean() - s1) < 5 * np.sqrt(2 * s2 / diag.size)
        assert abs(diag.var() / (2 * s2) - 1) < 5 * np.sqrt(
            (48 * (lam**4).sum() + 8 * s2**2) / (4 * s2**2 * 20000)
        )
        assert abs(off.mean()) < 5 * np.sqrt(s2 / off.size)
        assert abs(off.var() / s2 - 1) < 5 * np.sqrt(
            (6 * (lam**4).sum() + 3 * s2**2) / (s2**2 * 20000) - 1 / 20000
        )

    @pytest.mark.parametrize("d,head", CASES)
    def test_ks_against_dense_draw(self, d, head):
        from scipy.stats import ks_2samp

        lam = _spiked(d, head)
        compact = _factor_grams(lam, n=6, draws=3000, seed=100 + d + len(head))
        dense = _dense_grams(lam, n=6, draws=3000, seed=200 + d + len(head))
        for stat in (
            lambda g: g[:, 2, 2],
            lambda g: g[:, 1, 4],
            lambda g: np.linalg.eigvalsh(g)[:, -1],
        ):
            assert ks_2samp(stat(compact), stat(dense)).pvalue > 1e-3

    def test_arm_nulls_do_not_depend_on_the_other_arms(self):
        # Unequal spike counts, and two spectra with more eigenvalues above
        # their floor than n: each arm's null indices are those of the arm
        # simulated alone, and combined is the minimum of the two
        # single-arm runs.
        d, n = 300, 12
        hard = NullSpectrum(method="hard", eigenvalues=_spiked(d, [50.0, 20.0, 9.0, 3.0]),
                            sigma_n_sq=1.0)
        soft = NullSpectrum(method="soft", eigenvalues=_spiked(d, [40.0]),
                            sigma_n_sq=1.0, tau=9.0)
        wide = NullSpectrum(method="true", eigenvalues=np.linspace(30.0, 1.0, d))
        wider = NullSpectrum(method="true", eigenvalues=np.linspace(20.0, 0.5, d))
        config = make_config()
        alone = {id(s): simulate_null_cis(s, n, config) for s in (hard, soft, wide, wider)}
        for arms in [(hard, soft, wide), (wide, soft), (soft, hard), (wider, hard, wide)]:
            for arm, cis in zip(arms, engine._simulate(arms, n, config)):
                np.testing.assert_array_equal(cis, alone[id(arm)])
        np.testing.assert_array_equal(
            combined_null(hard, soft, n, config),
            np.minimum(alone[id(hard)], alone[id(soft)]),
        )

    def test_factor_rows_do_not_grow_with_d(self, monkeypatch):
        rows = []
        original = engine._gram

        def spy(values):
            rows.append(values.shape[0])
            return original(values)

        monkeypatch.setattr(engine, "_gram", spy)
        d, n = 20000, 30
        hard = NullSpectrum(method="hard", eigenvalues=_spiked(d, [50.0, 20.0, 9.0, 3.0]),
                            sigma_n_sq=1.0)
        soft = NullSpectrum(method="soft", eigenvalues=_spiked(d, [40.0, 10.0]),
                            sigma_n_sq=1.0, tau=9.0)
        combined_null(hard, soft, n, make_config(restarts_null=5))
        assert len(rows) == 200
        assert max(rows) <= 2 * n  # K = n leading rows over an n-row Bartlett triangle

    def test_grid_methods_simulate_four_arms_in_one_pass(self, monkeypatch):
        calls = []
        original = engine._simulate

        def spy(spectra, n, config, pool=None):
            calls.append(tuple(s.method for s in spectra))
            return original(spectra, n, config, pool)

        monkeypatch.setattr(engine, "_simulate", spy)
        rng = np.random.default_rng(21)
        x = DataMatrix(rng.normal(size=(40, 10)))
        config = make_config(true_eigenvalues=np.ones(40))
        reports = run_tests(x, config, engine.METHODS)
        assert calls == [("true", "sample", "hard", "soft")]
        np.testing.assert_array_equal(
            reports["combined"].null_cis,
            np.minimum(reports["hard"].null_cis, reports["soft"].null_cis),
        )


class TestRunTest:
    def test_report_invariants(self):
        rng = np.random.default_rng(10)
        x = DataMatrix(rng.normal(size=(8, 25)))
        report = run_test(x, make_config(method="combined"))
        null = report.null_cis
        assert report.p_empirical == (1 + np.count_nonzero(null <= report.ci_observed)) / 101
        assert 0.0 < report.p_empirical <= 1.0
        assert 0.0 < report.p_gaussian < 1.0
        assert np.all((null >= 0.0) & (null <= 1.0))
        assert isinstance(report.spectrum_used, tuple)
        assert report.seed == 1234
        assert report.observed_mode == "two-means"

    def test_byte_determinism_of_reports(self):
        rng = np.random.default_rng(11)
        x = DataMatrix(rng.normal(size=(6, 20)))
        a = run_test(x, make_config(method="hard"))
        b = run_test(x, make_config(method="hard"))
        np.testing.assert_array_equal(a.null_cis, b.null_cis)
        assert a.ci_observed == b.ci_observed
        assert a.p_empirical == b.p_empirical
        assert a.p_gaussian == b.p_gaussian

    def test_empirical_floor_when_observed_below_all(self):
        # Two far blobs: the observed index sits below every null index.
        rng = np.random.default_rng(12)
        x = np.hstack([rng.normal(size=(2, 10)), rng.normal(size=(2, 10)) + 200.0])
        report = run_test(DataMatrix(x), make_config(method="hard", n_sim=999))
        assert report.p_empirical == 1.0 / 1000.0

    def test_sample_equals_hard_when_no_floor_active(self):
        # Heavy-tailed entries make the MAD-based noise level undershoot
        # every sample eigenvalue, so thresholding leaves the spectrum
        # unchanged and the null runs coincide.
        rng = np.random.default_rng(13)
        x = DataMatrix(rng.laplace(size=(3, 300)))
        reports = run_tests(x, make_config(method="sample"), ("sample", "hard"))
        hard_spec = reports["hard"].spectrum_used
        sample_spec = reports["sample"].spectrum_used
        np.testing.assert_array_equal(hard_spec.eigenvalues, sample_spec.eigenvalues)
        np.testing.assert_array_equal(
            reports["sample"].null_cis, reports["hard"].null_cis
        )

    def test_combined_arms_share_draws_with_single_methods(self):
        rng = np.random.default_rng(14)
        x = DataMatrix(rng.normal(size=(30, 12)))
        reports = run_tests(
            x, make_config(method="combined"), ("hard", "soft", "combined")
        )
        np.testing.assert_array_equal(
            reports["combined"].null_cis,
            np.minimum(reports["hard"].null_cis, reports["soft"].null_cis),
        )

    def test_sample_method_keeps_trailing_zeros(self):
        # d > n: the sample spectrum carries d - n + 1 exact zeros; those
        # rows simulate as constant zero rather than being floored.
        rng = np.random.default_rng(19)
        x = DataMatrix(rng.normal(size=(30, 10)))
        report = run_test(x, make_config(method="sample"))
        lam = report.spectrum_used.eigenvalues
        assert lam.size == 30
        assert np.all(lam[9:] == 0.0)
        assert np.all((report.null_cis >= 0.0) & (report.null_cis <= 1.0))

    def test_known_label_mode(self):
        from sigclust import cluster_index_for_labels

        rng = np.random.default_rng(15)
        x = DataMatrix(rng.normal(size=(4, 10)))
        labels = np.array([1, 2] * 5)
        report = run_test(x, make_config(method="sample", labels=labels))
        assert report.observed_mode == "known-labels"
        assert report.ci_observed == cluster_index_for_labels(x, labels).ci

    def test_true_method_requires_eigenvalues(self):
        rng = np.random.default_rng(16)
        x = DataMatrix(rng.normal(size=(4, 10)))
        with pytest.raises(InvalidConfigError):
            run_test(x, make_config(method="true"))
        with pytest.raises(InvalidSpectraError):
            run_test(
                x,
                make_config(method="true", true_eigenvalues=np.ones(3)),
            )

    def test_soft_fallback_to_flat_spectrum(self):
        # Rows nearly constant but far apart: the entry MAD is large while
        # the row-centered trace is tiny, so no soft offset can match it.
        rng = np.random.default_rng(17)
        base = np.arange(10.0)[:, None] * 30.0
        x = DataMatrix(base + 1e-3 * rng.normal(size=(10, 8)))
        report = run_test(x, make_config(method="soft"))
        assert any("flat spectrum" in w for w in report.warnings)
        lam = report.spectrum_used.eigenvalues
        assert np.allclose(lam, lam[0])  # flat
        assert report.spectrum_used.tau is None

    def test_config_validation(self):
        with pytest.raises(InvalidConfigError):
            TestConfig(n_sim=50)
        with pytest.raises(InvalidConfigError):
            TestConfig(method="bogus")
        with pytest.raises(InvalidConfigError):
            TestConfig(restarts_null=0)
        with pytest.raises(InvalidConfigError):
            TestConfig(workers=0)
        with pytest.raises(InvalidConfigError):
            TestConfig(master_seed=-1)

    @pytest.mark.parametrize("methods,message", [
        ((), "at least one method is required"),
        (("bogus",), "unknown method 'bogus'"),
        (("hard", "hard"), "method 'hard' is listed twice"),
    ], ids=["empty", "unknown", "duplicate"])
    def test_bad_methods_list_is_bad_config(self, methods, message):
        x = DataMatrix(np.random.default_rng(19).normal(size=(5, 12)))
        with pytest.raises(InvalidConfigError, match=message):
            run_tests(x, make_config(), methods)

    def test_timing_counts_prelude_and_shared_simulation(self, monkeypatch):
        # A stubbed clock advances only inside the observed 2-means (1 s)
        # and inside the one null simulation pass that serves every method
        # (10 s); a second pass would take 100 s.
        from types import SimpleNamespace

        clock = SimpleNamespace(now=0.0)

        def ticking(fn, steps):
            steps = iter(steps)

            def wrapped(*args, **kwargs):
                clock.now += next(steps)
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(engine, "time", SimpleNamespace(perf_counter=lambda: clock.now))
        monkeypatch.setattr(engine, "two_means_ci", ticking(engine.two_means_ci, [1.0]))
        monkeypatch.setattr(engine, "_simulate", ticking(engine._simulate, [10.0, 100.0]))
        rng = np.random.default_rng(20)
        x = DataMatrix(rng.normal(size=(5, 12)))
        reports = run_tests(x, make_config(), ("hard", "soft", "combined"))
        assert [r.timing_seconds for r in reports.values()] == [11.0, 11.0, 11.0]

    def test_missing_seed_drawn_and_echoed(self):
        config = TestConfig(n_sim=100)
        assert isinstance(config.master_seed, int)
        rng = np.random.default_rng(18)
        x = DataMatrix(rng.normal(size=(3, 12)))
        report = run_test(x, config)
        rerun = run_test(x, make_config(method=config.method, master_seed=report.seed))
        np.testing.assert_array_equal(report.null_cis, rerun.null_cis)

    def test_resolve_seed(self):
        drawn = engine.resolve_seed(None)
        assert isinstance(drawn, int) and 0 <= drawn < 2**64
        assert engine.resolve_seed(5) == 5
        with pytest.raises(InvalidConfigError, match="master_seed must be >= 0, got -1"):
            engine.resolve_seed(-1)


class TestTrueMethodCalibration:
    def test_null_pvalues_roughly_uniform_smoke(self):
        # Identity covariance, small scale; the full-accuracy version runs
        # in the acceptance suite.
        lam = np.ones(20)
        rejections = 0
        reps = 40
        for rep in range(reps):
            rng = np.random.default_rng(1000 + rep)
            x = DataMatrix(rng.standard_normal((20, 20)))
            report = run_test(
                x, make_config(method="true", true_eigenvalues=lam, master_seed=rep)
            )
            rejections += report.p_empirical < 0.05
        assert rejections / reps <= 0.2
