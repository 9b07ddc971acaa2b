import numpy as np
import pytest
from hypothesis import assume, example, given, seed, settings
from hypothesis import strategies as st

import lloyd_reference as reference
from sigclust import (
    DataMatrix,
    DegenerateDataError,
    InvalidConfigError,
    InvalidDataError,
    InvalidLabelsError,
    TooLargeError,
    cluster_index_for_labels,
    theoretical_ci,
    two_means_ci,
    two_means_exhaustive,
)
from sigclust import cluster


def one_d(points):
    return DataMatrix(np.asarray(points, dtype=np.float64)[None, :])


class TestClusterIndexForLabels:
    def test_perfectly_separated_pairs(self):
        split = cluster_index_for_labels(one_d([-1, -1, 1, 1]), [1, 1, 2, 2])
        assert split.wss == 0.0
        assert split.tss == 4.0
        assert split.ci == 0.0

    def test_three_points(self):
        split = cluster_index_for_labels(one_d([0, 1, 2]), [1, 2, 2])
        assert split.wss == pytest.approx(0.5, abs=1e-14)
        assert split.tss == pytest.approx(2.0, abs=1e-14)
        assert split.ci == pytest.approx(0.25, abs=1e-14)

    def test_degenerate_data(self):
        x = DataMatrix(np.tile(np.arange(3.0)[:, None], (1, 4)))
        with pytest.raises(DegenerateDataError):
            cluster_index_for_labels(x, [1, 1, 2, 2])

    def test_bad_labels(self):
        x = one_d([0, 1, 2, 3])
        with pytest.raises(InvalidLabelsError):
            cluster_index_for_labels(x, [1, 1, 1, 1])  # cluster 2 empty
        with pytest.raises(InvalidLabelsError):
            cluster_index_for_labels(x, [1, 2, 3, 1])  # bad value
        with pytest.raises(InvalidLabelsError):
            cluster_index_for_labels(x, [1, 2])  # wrong length

    def test_location_invariance(self):
        rng = np.random.default_rng(0)
        values = rng.normal(size=(6, 15))
        labels = rng.integers(1, 3, size=15)
        labels[:2] = [1, 2]
        base = cluster_index_for_labels(DataMatrix(values), labels).ci
        shift = rng.normal(size=(6, 1)) * 50.0
        moved = cluster_index_for_labels(DataMatrix(values + shift), labels).ci
        assert moved == pytest.approx(base, abs=1e-10)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(1)
        values = rng.normal(size=(8, 12))
        labels = rng.integers(1, 3, size=12)
        labels[:2] = [1, 2]
        q, _ = np.linalg.qr(rng.normal(size=(8, 8)))
        base = cluster_index_for_labels(DataMatrix(values), labels).ci
        rotated = cluster_index_for_labels(DataMatrix(q @ values), labels).ci
        assert rotated == pytest.approx(base, abs=1e-10)

    def test_ci_in_unit_interval(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            values = rng.normal(size=(4, 10))
            labels = rng.integers(1, 3, size=10)
            labels[:2] = [1, 2]
            split = cluster_index_for_labels(DataMatrix(values), labels)
            assert 0.0 <= split.ci <= 1.0
            assert split.wss <= split.tss + 1e-12


class TestTwoMeans:
    def test_separated_pairs(self):
        assert two_means_ci(one_d([-1, -1, 1, 1]), restarts=3, seed=0).ci == 0.0

    def test_three_points_matches_oracle(self):
        split = two_means_ci(one_d([0, 1, 2]), restarts=3, seed=7)
        assert split.ci == pytest.approx(0.25, abs=1e-14)

    def test_separated_blobs(self):
        rng = np.random.default_rng(3)
        blob1 = rng.normal(size=(2, 10))
        blob2 = rng.normal(size=(2, 10)) + 100.0
        x = DataMatrix(np.hstack([blob1, blob2]))
        split = two_means_ci(x, restarts=10, seed=1)
        assert split.ci < 0.01
        oracle = two_means_exhaustive(x)
        assert split.ci == pytest.approx(oracle.ci, abs=1e-12)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(4)
        x = DataMatrix(rng.normal(size=(5, 30)))
        a = two_means_ci(x, restarts=10, seed=99)
        b = two_means_ci(x, restarts=10, seed=99)
        assert a.ci == b.ci
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_degenerate_data(self):
        with pytest.raises(DegenerateDataError):
            two_means_ci(DataMatrix(np.ones((2, 5))), restarts=2, seed=0)

    def test_needs_a_restart(self):
        with pytest.raises(InvalidConfigError, match="restarts must be >= 1"):
            two_means_ci(one_d([0.0, 1.0, 5.0]), restarts=0, seed=0)

    def test_both_clusters_nonempty(self):
        # Duplicated columns make ties common; the split must stay binary.
        x = DataMatrix(np.array([[1.0, 1.0, 1.0, 5.0]]))
        split = two_means_ci(x, restarts=5, seed=2)
        assert set(split.labels.tolist()) == {1, 2}


def _columns(d, n, distinct, seed):
    """d x n normal matrix with ``distinct`` distinct columns (duplicates if < n)."""
    rng = np.random.default_rng(seed)
    k = min(distinct, n)
    cols = np.r_[np.arange(k), rng.integers(0, k, size=n - k)]
    rng.shuffle(cols)
    return rng.normal(size=(d, k))[:, cols]


def _mirror_tie(values):
    """Whether two distinct columns are, to round-off, both farthest from the
    grand mean. An emptied cluster is refilled with either of them, chosen by
    rounding that differs between the d-space and Gram forms, so a restart
    may end in the mirror image of the reference split (names swapped)."""
    dist = ((values - values.mean(axis=1, keepdims=True)) ** 2).sum(axis=0)
    top = np.flatnonzero(dist >= dist.max() * (1.0 - 1e-12))
    return any(not np.array_equal(values[:, top[0]], values[:, t]) for t in top[1:])


def _same_split(a, b, mirror_ok):
    return np.array_equal(a, b) or (mirror_ok and np.array_equal(a, 3 - b))


class TestBatchedKernelAgainstReference:
    """The Gram-form batched kernel against the original d-space Lloyd."""

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(2, 40),
        d=st.integers(1, 300),
        restarts=st.integers(1, 25),
        distinct=st.integers(2, 40),
        seed=st.integers(0, 2**32 - 1),
        cap=st.sampled_from([None, 1, 2]),
    )
    @example(n=3, d=1, restarts=25, distinct=2, seed=0, cap=None)  # duplicate start pairs
    @example(n=4, d=5, restarts=25, distinct=2, seed=1, cap=None)  # two columns, twice each
    @example(n=40, d=300, restarts=25, distinct=40, seed=2, cap=1)
    @example(n=40, d=300, restarts=25, distinct=40, seed=3, cap=2)
    @example(n=2, d=1, restarts=1, distinct=2, seed=730379, cap=None)  # mean far from spread
    def test_matches_d_space_lloyd(self, n, d, restarts, distinct, seed, cap):
        values = _columns(d, n, distinct, seed)
        mirror_ok = _mirror_tie(values)
        with pytest.MonkeyPatch.context() as mp:
            if cap is not None:
                mp.setattr(cluster, "MAX_LLOYD_ITER", cap)
            ref_runs = reference.restart_results(values, restarts, np.random.default_rng(seed))
            ref_labels, ref_wss = reference.best_split(
                values, restarts, np.random.default_rng(seed)
            )
            gram = cluster._gram(values)[None]
            first, second = cluster._start_pairs(n, restarts, np.random.default_rng(seed))
            in2 = cluster._lloyd(gram, first[None], second[None])[0]
            _, kernel_wss = cluster._best_splits(gram, first[None], second[None])
            index = kernel_wss[0] / np.trace(gram[0])
            split = two_means_ci(
                DataMatrix(values), restarts=restarts, seed=np.random.default_rng(seed)
            )

        for r, (labels, _) in enumerate(ref_runs):
            assert _same_split(np.where(in2[r], 2, 1), labels, mirror_ok)
        tss = cluster._tss(values)
        assert index == pytest.approx(ref_wss / tss, abs=1e-12)
        assert split.ci == pytest.approx(ref_wss / tss, abs=1e-12)
        wss = np.array([w for _, w in ref_runs])
        if np.sum(wss <= ref_wss + 1e-12 * tss) == 1:  # the best wss is unique
            assert _same_split(split.labels, ref_labels, mirror_ok)

    def test_centroid_terms_match_explicit_weights(self):
        # Gram matrices of uncentred data: their row sums are far from zero,
        # so the terms that carry them count.
        rng = np.random.default_rng(8)
        values = rng.normal(size=(3, 20, 15)) + 50.0
        grams = values.transpose(0, 2, 1) @ values
        in2 = rng.random((3, 6, 15)) < 0.4
        in2[..., 0], in2[..., 1] = True, False
        got = cluster._centroid_terms(grams, grams.sum(axis=2)[:, None, :], in2)
        w1 = ~in2 / (~in2).sum(axis=2, keepdims=True)
        w2 = in2 / in2.sum(axis=2, keepdims=True)
        gw1, gw2 = w1 @ grams, w2 @ grams
        want = (gw1, gw2, (w1 * gw1).sum(axis=2, keepdims=True),
                (w2 * gw2).sum(axis=2, keepdims=True))
        for a, b in zip(got, want):
            np.testing.assert_allclose(a, b, rtol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(2, 30),
        restarts=st.integers(1, 12),
        shapes=st.lists(
            st.tuples(st.integers(1, 60), st.integers(1, 30), st.integers(0, 2**32 - 1)),
            min_size=1, max_size=6,
        ),
        cap=st.sampled_from([None, 1, 2]),
    )
    @example(n=4, restarts=6, shapes=[(3, 2, 0), (5, 4, 1), (1, 1, 2)], cap=None)
    @example(n=30, restarts=12, shapes=[(60, 30, s) for s in range(6)], cap=1)
    def test_stack_equals_each_element_alone(self, n, restarts, shapes, cap):
        # Elements of one stack converge after different numbers of sweeps
        # (one-distinct-column elements at once), so the stacked run packs
        # and drops them while the others keep moving.
        grams, firsts, seconds = [], [], []
        for d, distinct, seed in shapes:
            grams.append(cluster._gram(_columns(d, n, distinct, seed)))
            i, j = cluster._start_pairs(n, restarts, np.random.default_rng(seed))
            firsts.append(i)
            seconds.append(j)
        grams, firsts, seconds = np.array(grams), np.array(firsts), np.array(seconds)
        with pytest.MonkeyPatch.context() as mp:
            if cap is not None:
                mp.setattr(cluster, "MAX_LLOYD_ITER", cap)
            in2 = cluster._lloyd(grams, firsts, seconds)
            labels, wss = cluster._best_splits(grams, firsts, seconds)
            for e in range(len(grams)):
                one = (grams[e:e + 1], firsts[e:e + 1], seconds[e:e + 1])
                np.testing.assert_array_equal(in2[e], cluster._lloyd(*one)[0])
                alone_labels, alone_wss = cluster._best_splits(*one)
                np.testing.assert_array_equal(labels[e], alone_labels[0])
                assert wss[e] == alone_wss[0]

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.one_of(st.integers(2, 500), st.just(3 * 2**30 + 17)),
        restarts=st.integers(1, 120),
        seed=st.integers(0, 2**32 - 1),
        odd_word=st.booleans(),
        philox=st.booleans(),
    )
    @example(n=3 * 2**30 + 17, restarts=50, seed=0, odd_word=True, philox=True)
    @example(n=2, restarts=10, seed=1, odd_word=False, philox=False)
    def test_start_pairs_equal_scalar_draws(self, n, restarts, seed, odd_word, philox):
        # n near 3 * 2**30 makes numpy redraw about one word in four; n = 2
        # draws integers(1), which consumes no word; odd_word leaves half a
        # 64-bit word buffered in the generator beforehand.
        def gen():
            g = (np.random.Generator(np.random.Philox(seed)) if philox
                 else np.random.default_rng(seed))
            if odd_word:
                g.integers(7)
            return g

        scalar, batched = gen(), gen()
        i, j = np.array(
            [(scalar.integers(n), scalar.integers(n - 1)) for _ in range(restarts)]
        ).T
        got = cluster._start_pairs(n, restarts, batched)
        np.testing.assert_array_equal(got[0], i)
        np.testing.assert_array_equal(got[1], j + (j >= i))
        assert scalar.integers(2**40) == batched.integers(2**40)  # same stream position

    def test_emptied_cluster_is_refilled(self):
        # Starting at two copies of one column ties every point, so all go
        # to cluster 1 and cluster 2 takes the point farthest from the mean.
        def start_pair(seed):
            i, j = cluster._start_pairs(3, 1, np.random.default_rng(seed))
            return {int(i[0]), int(j[0])}

        values = np.array([[0.0, 0.0, 3.0]])
        seed = next(s for s in range(100) if start_pair(s) == {0, 1})
        split = two_means_ci(DataMatrix(values), restarts=1, seed=np.random.default_rng(seed))
        ref_labels, _ = reference.best_split(values, 1, np.random.default_rng(seed))
        np.testing.assert_array_equal(split.labels, [1, 1, 2])
        np.testing.assert_array_equal(ref_labels, [1, 1, 2])

    def test_duplicate_columns_share_gram_entries(self):
        values = _columns(257, 15, 6, seed=5)
        gram = cluster._gram(values)
        for a in range(15):
            for b in range(15):
                if np.array_equal(values[:, a], values[:, b]):
                    np.testing.assert_array_equal(gram[a], gram[b])
                    np.testing.assert_array_equal(gram[:, a], gram[:, b])


class TestTwoMeansInvariance:
    """The split and the index do not depend on where the data sit, how the
    variables are rotated or how they are scaled."""

    @seed(20240607)
    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(3, 30),
        d=st.integers(1, 40),
        distinct=st.integers(2, 30),
        data_seed=st.integers(0, 2**32 - 1),
        restarts=st.integers(1, 12),
        move=st.sampled_from(["shift", "rotate", "scale"]),
    )
    @example(n=12, d=30, distinct=5, data_seed=1, restarts=8, move="shift")
    @example(n=9, d=3, distinct=2, data_seed=2, restarts=6, move="scale")
    def test_split_and_index_are_invariant(self, n, d, distinct, data_seed, restarts, move):
        # On a 2^-10 grid a shift of up to 1e6 is exact, while the centred
        # Gram matrix of the shifted data has row sums far from zero.
        values = np.round(_columns(d, n, distinct, data_seed) * 1024) / 1024
        assume(cluster._tss(values) > 0.0)
        rng = np.random.default_rng(data_seed)
        if move == "shift":
            moved = values + np.round(rng.uniform(-1e6, 1e6, (d, 1)) * 1024) / 1024
        elif move == "rotate":
            q, r = np.linalg.qr(rng.normal(size=(d, d)))
            moved = (q * np.sign(np.diag(r))) @ values
        else:
            moved = rng.uniform(1e-3, 1e3) * values
        split = two_means_ci(DataMatrix(values), restarts=restarts, seed=data_seed)
        other = two_means_ci(DataMatrix(moved), restarts=restarts, seed=data_seed)
        # The same partition: restarts that reach it with its names swapped
        # tie on wss, and round-off picks which of them comes first.
        assert _same_split(other.labels, split.labels, mirror_ok=True)
        assert other.ci == pytest.approx(split.ci, abs=1e-12)


class TestExhaustive:
    def test_three_points(self):
        split = two_means_exhaustive(one_d([0, 1, 2]))
        assert split.ci == pytest.approx(0.25, abs=1e-14)
        assert sorted(np.bincount(split.labels)[1:].tolist()) == [1, 2]

    def test_separated_pairs(self):
        assert two_means_exhaustive(one_d([-1, -1, 1, 1])).ci == 0.0

    def test_too_large(self):
        rng = np.random.default_rng(5)
        with pytest.raises(TooLargeError):
            two_means_exhaustive(DataMatrix(rng.normal(size=(2, 21))))

    def test_degenerate_data(self):
        x = DataMatrix(np.tile(np.arange(3.0)[:, None], (1, 6)))
        with pytest.raises(DegenerateDataError, match="total sum of squares is zero"):
            two_means_exhaustive(x)

    def test_oracle_dominance_small_sample(self):
        rng = np.random.default_rng(6)
        hits = 0
        for trial in range(10):
            d = int(rng.integers(1, 6))
            n = int(rng.integers(4, 13))
            x = DataMatrix(rng.normal(size=(d, n)))
            restarted = two_means_ci(x, restarts=100, seed=trial).ci
            exact = two_means_exhaustive(x).ci
            assert restarted >= exact - 1e-12
            hits += abs(restarted - exact) <= 1e-10
        assert hits >= 9

    def test_rotation_invariance_of_optimum(self):
        rng = np.random.default_rng(7)
        values = rng.normal(size=(3, 9))
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        base = two_means_exhaustive(DataMatrix(values)).ci
        rotated = two_means_exhaustive(DataMatrix(q @ values)).ci
        assert rotated == pytest.approx(base, abs=1e-10)


class TestTheoreticalCI:
    def test_single_eigenvalue(self):
        assert theoretical_ci([7.0]) == pytest.approx(1.0 - 2.0 / np.pi, rel=1e-15)
        assert theoretical_ci([7.0]) == pytest.approx(0.36338, abs=5e-6)

    def test_spiked_spectrum(self):
        lam = np.r_[100.0, np.ones(999)]
        expected = 1.0 - (2.0 / np.pi) * (100.0 / 1099.0)
        assert theoretical_ci(lam) == pytest.approx(expected, rel=1e-15)
        assert theoretical_ci(lam) == pytest.approx(0.94209, abs=5e-5)

    def test_flat_spectrum(self):
        assert theoretical_ci(np.ones(1000)) == pytest.approx(
            1.0 - 2.0 / (1000.0 * np.pi), rel=1e-12
        )

    def test_scale_invariance(self):
        rng = np.random.default_rng(8)
        lam = np.sort(rng.uniform(0.1, 50.0, size=40))[::-1]
        assert theoretical_ci(4.0 * lam) == theoretical_ci(lam)

    def test_invalid_inputs(self):
        with pytest.raises(InvalidDataError):
            theoretical_ci([])
        with pytest.raises(InvalidDataError):
            theoretical_ci([1.0, -2.0])

    @pytest.mark.parametrize(
        "lam, delta1, delta_total, expected",
        [
            (np.r_[100.0, np.ones(999)], 0.0, 0.0, 0.0),
            (np.r_[100.0, np.ones(999)], 10.0, 0.0, 10.0 / 1099.0),
            (
                np.r_[1000.0, np.ones(999)], 10.0, 900.0,
                (1999.0 * 10.0 - 1000.0 * 900.0) / (1999.0 * 2899.0),
            ),
        ],
        ids=["unbiased_case", "top_bias_only", "anti_conservative_regime"],
    )
    def test_distorted_spectrum_shift(self, lam, delta1, delta_total, expected):
        # Raising the top eigenvalue by delta1 and the total by delta_total
        # lowers the index by (2/pi) (S delta1 - lam_1 delta_total) / (S (S + delta_total)),
        # S = sum(lam): it rises (anti-conservative) when the total grows enough.
        biased = lam.copy()
        biased[0] += delta1
        biased[1:] += (delta_total - delta1) / (lam.size - 1)
        assert biased.min() > 0 and biased.sum() == pytest.approx(lam.sum() + delta_total)
        shift = (np.pi / 2) * (theoretical_ci(lam) - theoretical_ci(biased))
        assert shift == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_monte_carlo_consistency_smoke(self):
        # Split a diagonal Gaussian at the sign of the first coordinate and
        # compare the empirical index against the closed form (full-accuracy
        # version runs in the acceptance suite).
        rng = np.random.default_rng(9)
        lam = np.r_[100.0, np.ones(9)]
        draws = 100_000
        x = np.sqrt(lam)[:, None] * rng.standard_normal((10, draws))
        labels = np.where(x[0] > 0, 1, 2)
        split = cluster_index_for_labels(DataMatrix(x), labels)
        assert split.ci == pytest.approx(theoretical_ci(lam), abs=0.01)
