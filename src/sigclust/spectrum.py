"""Null-spectrum estimation: MAD background noise and eigenvalue thresholding.

Both estimators start from the sample covariance eigenvalues padded to the
full dimension d. Hard thresholding floors every eigenvalue at the
background noise variance, leaving large eigenvalues untouched. Soft
thresholding additionally subtracts a constant offset tau from the
eigenvalues that stay above the floor, with tau solved exactly so that the
estimated spectrum keeps the sample trace. With the 1/n normalizer that
trace is not unbiased: its expectation is (n - 1)/n · tr Σ, while the MAD
noise variance estimates σ² itself (ROADMAP item 1 puts the two on one
scale).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .errors import (
    DegenerateNoiseError,
    InvalidConfigError,
    InvalidDataError,
    NoTraceSolutionError,
)
from .linalg import DataMatrix, EigenSpectrum

# MAD of the standard normal distribution, i.e. the 75% quantile of |N(0,1)|.
# Computed from the inverse normal CDF rather than hard-coded.
MAD_STD_NORMAL = NormalDist().inv_cdf(0.75)

# Arrays of fewer entries take np.median directly; larger ones are sampled
# at a stride that leaves about _MEDIAN_SAMPLE entries to bracket the median,
# then scanned _MEDIAN_CHUNK entries at a time.
_MEDIAN_MIN_SIZE = 1 << 16
_MEDIAN_SAMPLE = 1 << 12
_MEDIAN_CHUNK = 1 << 16

_METHODS = ("sample", "hard", "soft", "true")


@dataclass(frozen=True)
class NoiseEstimate:
    """Background noise variance estimated from the MAD of all d*n entries."""

    sigma_n_sq: float
    mad_raw: float


@dataclass(frozen=True)
class NullSpectrum:
    """Length-d descending eigenvalue vector defining a Gaussian null.

    ``method`` is one of "sample", "hard", "soft", "true". Thresholded
    spectra ("hard", "soft") are strictly positive; "sample" and "true"
    spectra may carry exact zeros (rows with zero eigenvalue simulate as
    constant zero). ``sigma_n_sq`` is set for hard/soft, ``tau`` for soft,
    and ``rank_cap_l`` for hard.
    """

    method: str
    eigenvalues: np.ndarray
    sigma_n_sq: float | None = None
    tau: float | None = None
    rank_cap_l: int | None = None

    def __post_init__(self):
        if self.method not in _METHODS:
            raise InvalidConfigError(f"unknown spectrum method {self.method!r}")
        lam = np.asarray(self.eigenvalues, dtype=np.float64)
        if lam.ndim != 1 or lam.size == 0:
            raise InvalidDataError("eigenvalues must be a nonempty 1-d vector")
        if not np.all(np.isfinite(lam)):
            raise InvalidDataError("eigenvalues contain NaN or infinite entries")
        if np.any(np.diff(lam) > 0):
            raise InvalidDataError("eigenvalues must be sorted descending")
        if np.any(lam < 0) or lam.sum() <= 0:
            raise InvalidDataError("eigenvalues must be nonnegative with positive sum")
        if self.method in ("hard", "soft") and lam[-1] <= 0:
            raise InvalidDataError(f"{self.method} spectrum must be strictly positive")
        object.__setattr__(self, "eigenvalues", lam)

    @property
    def d(self) -> int:
        return self.eigenvalues.size


def estimate_noise(x: DataMatrix) -> NoiseEstimate:
    """MAD-based background noise variance over all d*n raw entries.

    The deviation center is the overall median of the raw (uncentered)
    entries; the raw MAD is rescaled by the standard-normal MAD so that
    ``sigma_n_sq`` is consistent for Gaussian noise. A zero MAD means a
    mostly constant matrix with no meaningful null and raises
    :class:`DegenerateNoiseError`.

    Both medians are ``np.median``'s, found by :func:`_median`'s band
    selection; the deviations live in one d*n temporary, made absolute in
    place.
    """
    values = x.values.ravel()
    dev = values - _median(values)
    np.abs(dev, out=dev)
    mad_raw = float(_median(dev))
    if mad_raw == 0.0:
        raise DegenerateNoiseError(
            "MAD of the data is zero; background noise level undefined"
        )
    sigma_n = mad_raw / MAD_STD_NORMAL
    return NoiseEstimate(sigma_n_sq=sigma_n * sigma_n, mad_raw=mad_raw)


def _median(a: np.ndarray):
    """``np.median(a)`` of a finite 1-d float64 array, found in a band.

    Sorting every ``a.size // _MEDIAN_SAMPLE``-th entry brackets the middle
    rank(s) in a band [lo, hi] with a margin of about four standard
    deviations of the sample rank; one pass, in chunks, counts the entries
    below lo and extracts the band, and only the band is partitioned. The
    result is ``np.mean`` over the same one or two order statistics that
    ``np.median`` averages, so it is ``np.median(a)`` bit for bit (up to
    the sign of a zero median when ``a`` holds both 0.0 and -0.0). A band
    that misses the middle rank falls back to ``np.median``, as do arrays
    below ``_MEDIAN_MIN_SIZE`` entries.
    """
    size = a.size
    if size < _MEDIAN_MIN_SIZE:
        return np.median(a)
    ranks = sorted({(size - 1) // 2, size // 2})
    sample = np.sort(a[:: size // _MEDIAN_SAMPLE])
    margin = 2 * math.isqrt(sample.size)
    at = [r * sample.size // size for r in ranks]
    lo = sample[max(at[0] - margin, 0)]
    hi = sample[min(at[-1] + margin, sample.size - 1)]
    below, parts = 0, []
    for start in range(0, size, _MEDIAN_CHUNK):  # chunks keep the masks small
        chunk = a[start : start + _MEDIAN_CHUNK]
        inside = chunk >= lo
        below += chunk.size - np.count_nonzero(inside)
        inside &= chunk <= hi
        parts.append(chunk[inside])
    band = np.concatenate(parts)
    if below > ranks[0] or ranks[-1] >= below + band.size:
        return np.median(a)
    kth = [r - below for r in ranks]
    band.partition(kth)
    return np.mean(band[kth])


def hard_threshold(spec: EigenSpectrum, noise: NoiseEstimate) -> NullSpectrum:
    """Floor every sample eigenvalue at the noise variance.

    Eigenvalues above the noise level are kept exactly as sampled. The
    recorded ``rank_cap_l`` is the number of sample eigenvalues strictly
    above the noise variance, the smallest rank cap that reproduces this
    estimator.
    """
    lam = spec.padded()
    s2 = noise.sigma_n_sq
    return NullSpectrum(
        method="hard",
        eigenvalues=np.maximum(lam, s2),
        sigma_n_sq=s2,
        rank_cap_l=int(np.count_nonzero(lam > s2)),
    )


def soft_threshold(spec: EigenSpectrum, noise: NoiseEstimate) -> NullSpectrum:
    """Shrink large eigenvalues by a trace-matching offset tau.

    Each estimated eigenvalue is ``max(lam_k - tau - s2, 0) + s2`` where s2
    is the noise variance and tau >= 0 solves

        sum_k max(lam_k - tau - s2, 0) + d * s2 = sum_k lam_k.

    The left side is piecewise linear in tau, so the root is exact, as in
    the simplex projection: with u = lam - s2 (padding included) and S its
    cumulative sum, tau is tau_rho = (S_rho - S_d) / rho for the largest
    rho with u_rho > tau_rho, or u_1 when d * s2 equals the trace. tau is exactly 0.0
    when no eigenvalue is below s2. If d * s2 exceeds the trace, no tau
    works and :class:`NoTraceSolutionError` is raised.
    """
    lam = spec.padded()
    s2 = noise.sigma_n_sq
    d = lam.size
    target = float(lam.sum())
    if d * s2 > target:
        raise NoTraceSolutionError(
            f"noise floor d*sigma^2 = {d * s2:.6g} exceeds the sample trace "
            f"{target:.6g}; no nonnegative offset matches the trace"
        )
    u = lam - s2
    cum = np.cumsum(u)
    taus = (cum - cum[-1]) / np.arange(1, d + 1)
    above = np.flatnonzero(u > taus)
    tau = float(taus[above[-1]] if above.size else u[0])
    return NullSpectrum(
        method="soft", eigenvalues=np.maximum(lam - tau, s2), sigma_n_sq=s2, tau=tau
    )


def flat_fallback_spectrum(spec: EigenSpectrum, noise: NoiseEstimate) -> NullSpectrum:
    """Trace-preserving flat spectrum used when no soft offset exists.

    All d eigenvalues are set to trace/d, which keeps the sample trace, the
    quantity that drives the test statistic's denominator. Its expectation
    is (n - 1)/n · tr Σ (1/n normalizer; see ROADMAP item 1).
    """
    lam = np.full(spec.d, spec.trace / spec.d)
    return NullSpectrum(
        method="soft", eigenvalues=lam, sigma_n_sq=noise.sigma_n_sq, tau=None
    )
