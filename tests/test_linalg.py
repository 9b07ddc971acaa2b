import numpy as np
import pytest

from sigclust import DataMatrix, InvalidDataError, sample_spectrum
from sigclust.linalg import EPS_EIG_REL


@pytest.mark.parametrize("d,n", [(40, 17), (6, 30)])
def test_sample_spectrum_ignores_row_shifts(d, n):
    # Each row is centred, so adding a constant to every row leaves the
    # spectrum unchanged up to the round-off of the row means.
    rng = np.random.default_rng(d * 100 + n)
    x = rng.normal(size=(d, n))
    base = sample_spectrum(DataMatrix(x))
    shifted = sample_spectrum(DataMatrix(x + rng.uniform(-10.0, 10.0, size=(d, 1))))
    top = base.eigenvalues[0]
    np.testing.assert_allclose(shifted.eigenvalues, base.eigenvalues, rtol=1e-12, atol=1e-12 * top)
    assert shifted.trace == pytest.approx(base.trace, rel=1e-12)


def test_datamatrix_rejects_bad_input():
    with pytest.raises(InvalidDataError):
        DataMatrix([[1.0, np.nan]])
    with pytest.raises(InvalidDataError):
        DataMatrix([[1.0, np.inf], [0.0, 1.0]])
    with pytest.raises(InvalidDataError):
        DataMatrix([[1.0], [2.0]])  # single observation
    with pytest.raises(InvalidDataError):
        DataMatrix(np.ones(3))  # not 2-d
    with pytest.raises(InvalidDataError, match="at least one variable"):
        DataMatrix(np.empty((0, 3)))  # no variables


def test_sample_spectrum_hand_case():
    spec = sample_spectrum(DataMatrix([[1.0, -1.0], [1.0, -1.0]]))
    np.testing.assert_allclose(spec.eigenvalues, [2.0, 0.0], atol=1e-12)
    assert spec.trace == pytest.approx(2.0, abs=1e-12)
    assert spec.d == 2 and spec.n == 2


def test_sample_spectrum_identical_columns_all_zero():
    col = np.arange(5.0)
    x = DataMatrix(np.tile(col[:, None], (1, 4)))
    spec = sample_spectrum(x)
    np.testing.assert_array_equal(spec.eigenvalues, np.zeros(4))
    assert spec.trace == 0.0


def test_gram_path_matches_dense_covariance_oracle():
    # Dual-route check: the d > n Gram computation must match an explicit
    # d-by-d covariance eigendecomposition.
    rng = np.random.default_rng(7)
    x = DataMatrix(rng.normal(size=(50, 10)))
    spec = sample_spectrum(x)

    centered = x.values - x.values.mean(axis=1, keepdims=True)
    dense = np.sort(np.linalg.eigvalsh((centered @ centered.T) / x.n))[::-1]
    top = dense[0]
    np.testing.assert_allclose(spec.padded(), np.maximum(dense, 0.0), atol=1e-9 * top)


@pytest.mark.parametrize("d,n", [(3, 30), (20, 20), (120, 15), (200, 40)])
def test_gram_trick_equivalence(d, n):
    rng = np.random.default_rng(d * 1000 + n)
    x = DataMatrix(rng.normal(size=(d, n)) * rng.uniform(0.5, 3.0, size=(d, 1)))
    spec = sample_spectrum(x)
    centered = x.values - x.values.mean(axis=1, keepdims=True)
    dense = np.sort(np.linalg.eigvalsh((centered @ centered.T) / n))[::-1]
    dense = dense[: spec.eigenvalues.size]
    scale = max(dense[0], 1e-30)
    np.testing.assert_allclose(spec.eigenvalues, np.maximum(dense, 0.0), atol=1e-9 * scale)


def test_rotation_invariance():
    rng = np.random.default_rng(11)
    x = DataMatrix(rng.normal(size=(30, 12)))
    base = sample_spectrum(x).eigenvalues

    q, _ = np.linalg.qr(rng.normal(size=(30, 30)))
    centered = x.values - x.values.mean(axis=1, keepdims=True)
    rotated = sample_spectrum(DataMatrix(q @ centered)).eigenvalues
    np.testing.assert_allclose(rotated, base, rtol=1e-8, atol=1e-8 * base[0])


def test_trace_identity():
    rng = np.random.default_rng(3)
    for d, n in [(5, 50), (80, 9), (60, 60)]:
        x = DataMatrix(rng.normal(size=(d, n)))
        spec = sample_spectrum(x)
        centered = x.values - x.values.mean(axis=1, keepdims=True)
        frob = float((centered * centered).sum()) / n
        assert spec.trace == pytest.approx(frob, rel=1e-10)


def test_rank_bound():
    rng = np.random.default_rng(4)
    for d, n in [(40, 6), (6, 40), (25, 25)]:
        x = DataMatrix(rng.normal(size=(d, n)))
        spec = sample_spectrum(x)
        eps = EPS_EIG_REL * spec.eigenvalues[0]
        assert np.count_nonzero(spec.eigenvalues > eps) <= min(d, n - 1)
        # trailing values are exact zeros, not tiny residue
        assert np.all(spec.padded()[min(d, n - 1):] == 0.0)


def test_single_variable_spectrum_is_variance():
    x = DataMatrix([[1.0, 2.0, 3.0, 6.0]])
    spec = sample_spectrum(x)
    assert spec.eigenvalues.size == 1
    assert spec.eigenvalues[0] == pytest.approx(np.var([1.0, 2.0, 3.0, 6.0]), rel=1e-12)
