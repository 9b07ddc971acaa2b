import hashlib
import os
import tracemalloc
import warnings
from contextlib import nullcontext

import null_reference
import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from sigclust import (
    DataMatrix,
    DegenerateDataError,
    InvalidConfigError,
    InvalidLabelsError,
    InvalidSpectraError,
    NullSpectrum,
    TestConfig,
    empirical_p,
    engine,
    gaussian_p,
    run_test,
    run_tests,
    simulate_null_cis,
    two_means_ci,
)
from sigclust._streams import NULL_REP, OBSERVED, as_generator, null_generator, stream
from sigclust.cluster import _best_splits, _start_pairs


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
        pytest.param(20, "9577c57cde459c69e56e9477463e2ec25e5257ea588e308a9699e71623521bed",
                     id="restarts20"),
        pytest.param(1, "bf0aaf6d1b1ff277ee99371a0716e3cda0b41b338d24bfc953663843d498bce9",
                     id="restarts1"),
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

    def test_realistic_shape_pin(self):
        # Pins a hard and a soft arm at d = 1000, n = 100 with 20 restarts,
        # the shape of a gene-expression run, bit for bit (x86-64,
        # OpenBLAS): blocks of many elements whose restarts leave the
        # kernel's stack after different numbers of sweeps.
        lam = np.r_[40.0, 25.0, 12.0, 6.0, 3.0, np.ones(995)]
        hard = NullSpectrum(method="hard", eigenvalues=lam, sigma_n_sq=1.0)
        soft = NullSpectrum(method="soft", eigenvalues=np.maximum(lam - 2.0, 1.0),
                            sigma_n_sq=1.0, tau=2.0)
        config = TestConfig(n_sim=100, master_seed=20261020)
        cis = np.stack(engine._simulate((hard, soft), 100, config))
        assert (hashlib.sha256(cis.tobytes()).hexdigest()
                == "8ff96842353525c199b7a6eef5005812e64d04ba4fb104f37f7ca332385924c0")

    def test_replication_draws_start_pairs_then_grams_from_one_stream(self, monkeypatch):
        # Replication r draws everything from null_generator(master_seed, r):
        # its start pairs first, then every arm's Gram matrix (a wide arm's
        # own rows included), shared by the arms of the replication.
        seen = []

        def spy(grams, first, second):
            seen.append((grams.copy(), first.copy(), second.copy()))
            return _best_splits(grams, first, second)

        monkeypatch.setattr(engine, "_best_splits", spy)
        n, restarts = 10, 7
        spectra = (NullSpectrum(method="hard", eigenvalues=_spiked(40, [9.0, 4.0]),
                                sigma_n_sq=1.0),
                   NullSpectrum(method="true", eigenvalues=np.linspace(12.0, 0.5, 40)))
        config = make_config(restarts_null=restarts)
        engine._simulate(spectra, n, config)
        grams, first, second = (np.concatenate(a) for a in zip(*seen))
        plan = engine._compact_plan([engine._unit_mean(s) for s in spectra], n, np.float32)
        out = np.empty((2, n, n), dtype=np.float32)
        for r in range(config.n_sim):
            rng = null_generator(config.master_seed, r)
            i, j = _start_pairs(n, restarts, rng)
            engine._null_grams(plan, n, rng, out)
            elems = slice(2 * r, 2 * r + 2)
            np.testing.assert_array_equal(first[elems], [i, i])
            np.testing.assert_array_equal(second[elems], [j, j])
            np.testing.assert_array_equal(grams[elems], out)

    def test_ks_against_float64_philox_reference(self):
        # The engine's null (SFC64 streams, float32 Gram matrices and
        # kernel) against the float64 reference on Philox streams of
        # another master seed: the stacked-factor Gram matrices of
        # null_reference through the same 2-means. Each arm's two samples
        # of 2,000 indices must pass a two-sample KS test at alpha = 0.001.
        from scipy.stats import ks_2samp

        d, n, reps = 60, 12, 2000
        lam = _spiked(d, [9.0, 4.0, 2.5])
        spectra = (NullSpectrum(method="hard", eigenvalues=lam, sigma_n_sq=1.0),
                   NullSpectrum(method="soft", eigenvalues=np.maximum(lam - 2.0, 1.0),
                                sigma_n_sq=1.0, tau=2.0))
        config = make_config(n_sim=reps, master_seed=7001)
        plan = engine._compact_plan(spectra, n)
        grams, first, second = [], [], []
        for r in range(reps):
            rng = as_generator(stream(7002, NULL_REP, r))
            i, j = _start_pairs(n, config.restarts_null, rng)
            grams.append(null_reference.null_grams(plan, n, rng))
            first += [i, i]
            second += [j, j]
        grams = np.concatenate(grams)
        _, wss = _best_splits(grams, np.array(first), np.array(second))
        reference = (wss / np.trace(grams, axis1=1, axis2=2)).reshape(reps, 2)
        for e, spectrum in enumerate(spectra):
            fast = simulate_null_cis(spectrum, n, config)
            assert fast.dtype == np.float64 and fast.shape == (reps,)
            assert ks_2samp(fast, reference[:, e]).pvalue > 1e-3

    def test_spectrum_scale_does_not_move_the_null(self):
        # Each arm runs in float32 on its spectrum scaled to a mean
        # eigenvalue of 1, so spectra whose Gram matrices would overflow or
        # underflow float32 give the same finite indices as the original.
        lam = np.r_[30.0, 8.0, 2.0, np.full(57, 0.5)]
        scales = (1.0, 1e-30, 1e30, 1e-150, 1e150)
        arms = [NullSpectrum(method="true", eigenvalues=lam * s) for s in scales]
        config = make_config()
        base, *scaled = engine._simulate(arms, 15, config)
        for arm, cis in zip(arms[1:], scaled):
            assert np.isfinite(cis).all()
            np.testing.assert_allclose(cis, base, rtol=1e-6, atol=0.0)
            np.testing.assert_array_equal(simulate_null_cis(arm, 15, config), cis)

    def test_zero_total_sum_of_squares_raises(self, monkeypatch):
        real = engine._null_grams

        def zero(plan, n, rng, out):
            real(plan, n, rng, out)
            out[:] = 0.0

        monkeypatch.setattr(engine, "_null_grams", zero)
        spec = NullSpectrum(method="true", eigenvalues=np.ones(5))
        with pytest.raises(DegenerateDataError, match="total sum of squares is zero"):
            simulate_null_cis(spec, n=6, config=make_config())

    def test_worker_count_does_not_change_results(self):
        lam = np.sort(np.random.default_rng(0).uniform(0.5, 5.0, 8))[::-1]
        spec = NullSpectrum(method="true", eigenvalues=lam)
        serial = simulate_null_cis(spec, n=12, config=make_config())
        parallel = simulate_null_cis(spec, n=12, config=make_config(workers=3))
        np.testing.assert_array_equal(serial, parallel)

    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity"),
                        reason="the pool forks where io forks its readers")
    def test_pool_forks_where_io_forks(self, monkeypatch):
        # Pinned so that Python 3.14's forkserver default does not change
        # the pool; one worker opens none.
        seen = {}

        def executor(**kwargs):
            seen.update(kwargs)
            return nullcontext()

        monkeypatch.setattr(engine, "ProcessPoolExecutor", executor)
        with engine._pool(1) as pool:
            assert pool is None and not seen
        engine._pool(2)
        assert seen["max_workers"] == 2
        assert seen["mp_context"].get_start_method() == "fork"

    def test_fork_warning_is_ignored_where_the_workers_start(self, monkeypatch):
        # Python 3.12+ warns at each fork while other threads run (OpenBLAS's
        # among them), and the tests turn warnings into errors; here every
        # fork warns as it would there.
        real_fork = os.fork

        def warning_fork():
            warnings.warn("This process (pid=1) is multi-threaded, use of fork() may "
                          "lead to deadlocks in the child.", DeprecationWarning)
            return real_fork()

        spec = NullSpectrum(method="true", eigenvalues=np.r_[4.0, 2.0, np.ones(6)])
        serial = simulate_null_cis(spec, n=12, config=make_config())
        monkeypatch.setattr(os, "fork", warning_fork)
        parallel = simulate_null_cis(spec, n=12, config=make_config(workers=2))
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


def _engine_grams(spectra, n, rng):
    """The engine's centred null Gram matrices (arms, n, n), one draw."""
    plan = engine._compact_plan(spectra, n)
    out = np.empty((len(spectra), n, n))
    engine._null_grams(plan, n, rng, out)
    return out


def _factor_grams(lam, n, draws, seed):
    """Centred null Gram matrices of ``draws`` replications of one arm."""
    spectra = (NullSpectrum(method="true", eigenvalues=lam),)
    rng = np.random.default_rng(seed)
    return np.concatenate([_engine_grams(spectra, n, rng) for _ in range(draws)])


def _dense_grams(lam, n, draws, seed):
    rng = np.random.default_rng(seed)
    grams = []
    for _ in range(draws):
        z = np.sqrt(lam)[:, None] * rng.standard_normal((lam.size, n))
        zc = z - z.mean(axis=1, keepdims=True)
        grams.append(zc.T @ zc)
    return np.array(grams)


def _reference_spectrum(kind, d, n, rng):
    """A spectrum of length d: up to three spikes over a unit floor
    ("spiked"), the sample shape with exact zeros past n - 1 ("sample"),
    or up to d distinct values over a unit floor, which is wide when more
    than n of them lie above it ("wide")."""
    if kind == "spiked":
        head = np.sort(rng.uniform(1.5, 30.0, rng.integers(0, min(d, 4))))[::-1]
        return NullSpectrum(method="hard", eigenvalues=_spiked(d, head), sigma_n_sq=1.0)
    if kind == "sample":
        lam = np.zeros(d)
        lam[: min(d, n - 1)] = np.sort(rng.uniform(0.1, 20.0, min(d, n - 1)))[::-1]
        return NullSpectrum(method="sample", eigenvalues=lam)
    head = np.linspace(25.0, 1.5, rng.integers(1, d + 1))
    return NullSpectrum(method="true", eigenvalues=_spiked(d, head))


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
        # Gc = C ZᵀΛZ C = Σ_l λ_l y_l y_lᵀ with independent y_l ~ N(0, C),
        # C = I - 11ᵀ/n. So E[Gc] = tr(Λ)·C, and entry (i, j) sums the
        # products λ_l y_li y_lj, whose cumulants, with a = C_ii, b = C_jj
        # and c = C_ij, are κ2 = (ab + c²)·λ_l² and
        # κ4 = (6(ab - c²)² + 48abc²)·λ_l⁴. Every entry's sample mean and
        # variance must lie within 5 Monte Carlo standard errors.
        n, draws = 6, 20000
        lam = _spiked(d, head)
        grams = _factor_grams(lam, n, draws, seed=d + len(head))
        c = np.eye(n) - 1.0 / n
        ab = np.outer(np.diag(c), np.diag(c))
        var = (ab + c**2) * (lam**2).sum()
        k4 = (6 * (ab - c**2) ** 2 + 48 * ab * c**2) * (lam**4).sum()
        assert np.all(np.abs(grams.mean(axis=0) - lam.sum() * c) < 5 * np.sqrt(var / draws))
        assert np.all(np.abs(grams.var(axis=0) / var - 1)
                      < 5 * np.sqrt((k4 + 2 * var**2) / (var**2 * draws)))

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

    @seed(20261019)
    @settings(max_examples=80, deadline=None)
    @given(
        d=st.integers(1, 40),
        n=st.integers(2, 12),
        kinds=st.lists(st.sampled_from(["spiked", "sample", "wide"]), min_size=1, max_size=4),
        draw_seed=st.integers(0, 2**32 - 1),
    )
    @example(d=5, n=8, kinds=["spiked", "sample"], draw_seed=1)  # d <= n: no bulk
    @example(d=14, n=8, kinds=["spiked", "sample", "wide"], draw_seed=2)  # dense bulk
    @example(d=40, n=8, kinds=["wide", "spiked", "sample", "wide"], draw_seed=3)  # Bartlett
    @example(d=40, n=4, kinds=["wide", "wide"], draw_seed=4)  # wide arms over Bartlett bulks
    def test_matches_stacked_factor_reference(self, d, n, kinds, draw_seed):
        # From the same generator state, every arm's Gram matrix equals the
        # stacked-factor reference's to round-off, and both end the stream
        # at the same point.
        spectra = tuple(_reference_spectrum(k, d, n, np.random.default_rng([draw_seed, i]))
                        for i, k in enumerate(kinds))
        plan = engine._compact_plan(spectra, n)
        fast_rng, ref_rng = (np.random.default_rng(draw_seed) for _ in range(2))
        fast = _engine_grams(spectra, n, fast_rng)
        ref = null_reference.null_grams(plan, n, ref_rng)
        assert fast_rng.bit_generator.state == ref_rng.bit_generator.state
        for f, r in zip(fast, ref):
            np.testing.assert_allclose(f, r, rtol=0, atol=1e-12 * np.abs(r).max())

    @seed(20261020)
    @settings(max_examples=60, deadline=None)
    @given(
        d=st.integers(1, 40),
        n=st.integers(2, 12),
        kinds=st.lists(st.sampled_from(["spiked", "sample", "wide"]), min_size=1, max_size=4),
        draw_seed=st.integers(0, 2**32 - 1),
        dtype=st.sampled_from([np.float32, np.float64]),
    )
    @example(d=40, n=8, kinds=["sample", "spiked"], draw_seed=1, dtype=np.float32)  # zero floor
    @example(d=40, n=4, kinds=["wide", "spiked", "wide"], draw_seed=2, dtype=np.float32)
    def test_in_place_build_matches_out_of_place(self, d, n, kinds, draw_seed, dtype):
        # Products written straight into the stack, and floor·BcᵀBc added in
        # place only where the floor is nonzero, give the bits of
        # ``rows.T @ rows + floor * own_gram``, from the same draws.
        spectra = tuple(
            engine._unit_mean(_reference_spectrum(k, d, n, np.random.default_rng([draw_seed, i])))
            for i, k in enumerate(kinds))
        plan = engine._compact_plan(spectra, n, dtype)
        fast_rng, ref_rng = (np.random.default_rng(draw_seed) for _ in range(2))
        fast, ref = (np.empty((len(spectra), n, n), dtype=dtype) for _ in range(2))
        engine._null_grams(plan, n, fast_rng, fast)
        null_reference.out_of_place_grams(plan, n, ref_rng, ref)
        assert fast_rng.bit_generator.state == ref_rng.bit_generator.state
        assert fast.tobytes() == ref.tobytes()

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
        calls, normals = [], []
        original = engine._null_grams

        class Counting:
            # The replication's generator, counting the normals it draws.
            def __init__(self, rng):
                self._rng = rng

            def __getattr__(self, name):
                return getattr(self._rng, name)

            def standard_normal(self, size, **kwargs):
                normals.append(int(np.prod(size)))
                return self._rng.standard_normal(size, **kwargs)

        def spy(plan, n, rng, out):
            calls.append(out.shape)
            normals.append(0)  # marks the start of a replication
            return original(plan, n, Counting(rng), out)

        monkeypatch.setattr(engine, "_null_grams", spy)
        d, n = 20000, 30
        hard = NullSpectrum(method="hard", eigenvalues=_spiked(d, [50.0, 20.0, 9.0, 3.0]),
                            sigma_n_sq=1.0)
        soft = NullSpectrum(method="soft", eigenvalues=_spiked(d, [40.0, 10.0]),
                            sigma_n_sq=1.0, tau=9.0)
        combined_null(hard, soft, n, make_config(restarts_null=5))
        assert calls == [(2, n, n)] * 100  # one call per replication, both arms
        per_rep = np.add.reduceat(normals, np.flatnonzero(np.array(normals) == 0))
        # K = n leading rows over an n-row Bartlett triangle
        assert per_rep.max() <= n * n + n * (n - 1) // 2

    def test_grid_methods_simulate_four_arms_in_one_pass(self, monkeypatch):
        calls = []
        original = engine._simulate

        def spy(spectra, n, config, pool=None):
            calls.append(tuple(s.method for s in spectra))
            return original(spectra, n, config, pool)

        monkeypatch.setattr(engine, "_simulate", spy)
        rng = np.random.default_rng(21)
        x = DataMatrix(rng.normal(size=(40, 10)))
        # A spiked true spectrum: the soft arm falls back to a flat one here.
        config = make_config(true_eigenvalues=_spiked(40, [4.0]))
        reports = run_tests(x, config, engine.METHODS)
        assert calls == [("true", "sample", "hard", "soft")]
        np.testing.assert_array_equal(
            reports["combined"].null_cis,
            np.minimum(reports["hard"].null_cis, reports["soft"].null_cis),
        )

    def test_equal_arms_of_one_run_are_simulated_once(self, monkeypatch):
        # The soft arm falls back to the flat spectrum, which scales to the
        # flat true arm's unit-mean spectrum: one simulation serves both.
        rng = np.random.default_rng(21)
        x = DataMatrix(rng.normal(size=(40, 10)))
        config = make_config(true_eigenvalues=np.ones(40))
        alone = {m: run_tests(x, config, (m,))[m] for m in ("true", "soft")}
        calls = []
        original = engine._simulate

        def spy(spectra, n, config, pool=None):
            calls.append(tuple(s.method for s in spectra))
            return original(spectra, n, config, pool)

        monkeypatch.setattr(engine, "_simulate", spy)
        reports = run_tests(x, config, engine.METHODS)
        assert calls == [("true", "sample", "hard")]
        assert "soft estimator fell back" in reports["soft"].warnings[0]
        for m, report in alone.items():
            np.testing.assert_array_equal(reports[m].null_cis, report.null_cis)
        np.testing.assert_array_equal(
            reports["combined"].null_cis,
            np.minimum(reports["hard"].null_cis, reports["soft"].null_cis),
        )


class TestPrelude:
    """``_prelude`` forms one centred Gram matrix for the observed 2-means
    and the sample spectrum; the public functions form their own."""

    @pytest.mark.parametrize("d,n", [(400, 30), (12, 30)])
    def test_matches_the_public_functions(self, d, n):
        rng = np.random.default_rng(d)
        x = DataMatrix(rng.normal(size=(d, n)) * rng.uniform(0.5, 4.0, size=(d, 1)))
        config = make_config()
        prelude = engine._prelude(x, config, ("sample", "combined"))
        split = two_means_ci(x, config.restarts_observed, stream(config.master_seed, OBSERVED))
        spectra, _ = engine.estimate_null_spectra(x, ("sample", "hard", "soft"))
        assert prelude.ci_observed == split.ci
        for arm, spectrum in spectra.items():
            assert np.array_equal(prelude.spectra[arm].eigenvalues, spectrum.eigenvalues)
            assert prelude.spectra[arm].sigma_n_sq == spectrum.sigma_n_sq

    def test_constant_matrix_is_degenerate(self):
        with pytest.raises(DegenerateDataError, match="total sum of squares is zero"):
            engine._prelude(DataMatrix(np.full((50, 8), 1.5)), make_config(), ("hard",))

    def test_peak_memory_on_a_wide_matrix(self):
        # d >> n: the prelude's only d x n temporaries are the centred copy
        # behind the Gram matrix and the MAD's deviations, one at a time.
        # The bound was fixed before this test first ran; the d-space
        # rescoring and the second centring used to peak at 2.0 matrices.
        rng = np.random.default_rng(6)
        x = DataMatrix(rng.normal(size=(8000, 60)))
        tracemalloc.start()
        try:
            engine._prelude(x, make_config(), ("combined",))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * x.values.nbytes


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

    def test_two_observations_give_an_all_zero_null_without_simulating(self, monkeypatch):
        # Every split of two observations has a zero index; round-off in a
        # simulated null would put some null indices just above it.
        monkeypatch.setattr(engine, "_simulate", lambda *a: pytest.fail("n=2 simulated"))
        x = DataMatrix(np.random.default_rng(3).normal(size=(50, 2)))
        config = make_config(n_sim=200, true_eigenvalues=np.ones(50))
        for report in run_tests(x, config, engine.METHODS).values():
            assert report.ci_observed == 0.0
            np.testing.assert_array_equal(report.null_cis, np.zeros(200))
            assert (report.p_empirical, report.p_gaussian) == (1.0, 0.5)

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

    def test_known_labels_are_scored_as_given(self):
        x = DataMatrix(np.random.default_rng(15).normal(size=(4, 3)))
        with pytest.raises(InvalidLabelsError, match="values 1 or 2"):
            run_test(x, make_config(method="sample", labels=[1.5, 2.9, 1.0]))
        as_int = run_test(x, make_config(method="sample", labels=[1, 2, 1]))
        as_float = run_test(x, make_config(method="sample", labels=[1.0, 2.0, 1.0]))
        assert as_float.ci_observed == as_int.ci_observed
        assert as_float.p_empirical == as_int.p_empirical
        np.testing.assert_array_equal(as_float.null_cis, as_int.null_cis)

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
        monkeypatch.setattr(engine, "_two_means", ticking(engine._two_means, [1.0]))
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
