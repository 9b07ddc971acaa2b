"""Dense linear-algebra kernel: the data matrix and its sample-covariance spectrum.

Data matrices are oriented variables-by-observations: d rows, n columns.
The sample covariance uses the 1/n normalizer. Its nonzero eigenvalues are
computed from the n-by-n Gram matrix whenever d > n, which is the cheap
route in high-dimension low-sample-size regimes, and from the d-by-d
covariance otherwise; that Gram matrix is the same product
(:func:`_centred_gram`) that the 2-means search runs on, so a run forms it
once. All operations are pure functions over immutable inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidDataError

# Eigenvalues below EPS_EIG_REL times the largest one are round-off noise
# and are clamped to exactly zero.
EPS_EIG_REL = 1e-10


@dataclass(frozen=True)
class DataMatrix:
    """A dense d-by-n matrix: d variables in rows, n >= 2 observations in columns.

    Entries must all be finite; the constructor copies the input into a
    float64 array and rejects anything else.
    """

    values: np.ndarray

    def __post_init__(self):
        values = np.array(self.values, dtype=np.float64)
        if values.ndim != 2:
            raise InvalidDataError(f"expected a 2-d array, got ndim={values.ndim}")
        d, n = values.shape
        if d < 1:
            raise InvalidDataError("matrix needs at least one variable (row)")
        if n < 2:
            raise InvalidDataError(f"need at least 2 observations (columns), got {n}")
        if not np.all(np.isfinite(values)):
            raise InvalidDataError("matrix contains NaN or infinite entries")
        object.__setattr__(self, "values", values)

    @property
    def d(self) -> int:
        return self.values.shape[0]

    @property
    def n(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class EigenSpectrum:
    """Descending eigenvalues of a 1/n sample covariance.

    ``eigenvalues`` has length min(d, n); the remaining d - min(d, n)
    eigenvalues are exact zeros and are materialized by :meth:`padded`.
    ``trace`` is the sum of all d eigenvalues.
    """

    eigenvalues: np.ndarray
    trace: float
    d: int
    n: int

    def padded(self) -> np.ndarray:
        """Full length-d eigenvalue vector, trailing exact zeros included."""
        out = np.zeros(self.d)
        out[: self.eigenvalues.size] = self.eigenvalues
        return out


def _centred(values: np.ndarray) -> np.ndarray:
    """``values`` less their row means, in ``values``' dtype."""
    return values - values.mean(axis=1, keepdims=True)


def _centred_gram(values: np.ndarray) -> np.ndarray:
    """Gram matrix ``XcᵀXc`` (n by n) of the row-centred columns of ``values``.

    This is the one product over the d x n matrix that the 2-means search,
    the observed index and, for d > n, the sample spectrum all start from.
    """
    centered = _centred(values)
    return centered.T @ centered


def sample_spectrum(x: DataMatrix) -> EigenSpectrum:
    """Eigenvalues of the 1/n sample covariance of the row-centered matrix.

    For d > n the spectrum comes from the n-by-n Gram matrix of the centered
    columns (:func:`_centred_gram`), divided by n, whose nonzero eigenvalues
    coincide with the covariance's. Row centering puts the all-ones vector
    in the null space, so at most n - 1 eigenvalues are nonzero; trailing
    eigenvalues are reported as exact zeros, as are round-off values below
    ``EPS_EIG_REL`` times the largest.
    """
    return _sample_spectrum(x, None)


def _sample_spectrum(x: DataMatrix, gram: np.ndarray | None) -> EigenSpectrum:
    """:func:`sample_spectrum` of ``x``, taken for d > n from ``gram``, the
    ``_centred_gram`` of ``x.values``, formed here when None."""
    d, n = x.d, x.n
    if d > n:
        gram = _centred_gram(x.values) if gram is None else gram
        evals = np.linalg.eigvalsh(gram / n)
    else:
        centered = _centred(x.values)
        evals = np.linalg.eigvalsh((centered @ centered.T) / n)
    evals = np.sort(evals)[::-1].copy()
    top = max(float(evals[0]), 0.0)
    evals[evals < EPS_EIG_REL * top] = 0.0
    if n - 1 < evals.size:
        evals[n - 1 :] = 0.0  # rank of the centered matrix is at most n - 1
    return EigenSpectrum(eigenvalues=evals, trace=float(evals.sum()), d=d, n=n)
