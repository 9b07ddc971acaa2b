"""Monte Carlo engine for the clustering-significance test.

A run estimates a Gaussian null spectrum from the data (or takes it as
given), simulates ``n_sim`` null data sets of the same shape, computes the
2-means cluster index on each, and converts the observed index into an
empirical and a Gaussian p-value. Every replication draws from a stream
derived deterministically from (master_seed, replication index), so
results are bit-identical for any worker count, and the combined method's
hard and soft arms share both the Gaussian draw and the k-means seeding
within each replication.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.stats import norm

from ._streams import NULL_REP, OBSERVED, as_generator, stream
from .cluster import cluster_index_for_labels, two_means_ci, two_means_index
from .errors import InvalidConfigError, InvalidSpectraError, NoTraceSolutionError
from .linalg import DataMatrix, sample_spectrum
from .spectrum import (
    NullSpectrum,
    estimate_noise,
    flat_fallback_spectrum,
    hard_threshold,
    soft_threshold,
)

METHODS = ("true", "sample", "hard", "soft", "combined")

DEFAULT_N_SIM = 1000
DEFAULT_RESTARTS_NULL = 20
DEFAULT_RESTARTS_OBSERVED = 100


@dataclass(frozen=True)
class TestConfig:
    """Configuration of one significance-test run.

    ``method`` picks the null spectrum: "sample" uses the raw sample
    eigenvalues (trailing exact zeros included), "hard"/"soft" the
    thresholded estimates, "combined" the per-replication minimum of the
    hard and soft indices, and "true" a user-supplied spectrum passed via
    ``true_eigenvalues``. A missing ``master_seed`` is drawn from OS
    entropy so the run stays reproducible from the report echo.
    """

    __test__ = False  # not a pytest class, despite the name

    method: str = "combined"
    n_sim: int = DEFAULT_N_SIM
    master_seed: int | None = None
    restarts_null: int = DEFAULT_RESTARTS_NULL
    restarts_observed: int = DEFAULT_RESTARTS_OBSERVED
    labels: np.ndarray | None = None
    true_eigenvalues: np.ndarray | None = None
    workers: int = 1

    def __post_init__(self):
        if self.method not in METHODS:
            raise InvalidConfigError(
                f"method must be one of {METHODS}, got {self.method!r}"
            )
        if self.n_sim < 100:
            raise InvalidConfigError(f"n_sim must be >= 100, got {self.n_sim}")
        if self.restarts_null < 1 or self.restarts_observed < 1:
            raise InvalidConfigError("restart counts must be >= 1")
        if self.workers < 1:
            raise InvalidConfigError("workers must be >= 1")
        if self.master_seed is None:
            object.__setattr__(
                self, "master_seed", int.from_bytes(os.urandom(8), "little") >> 1
            )
        if self.labels is not None:
            object.__setattr__(self, "labels", np.asarray(self.labels, dtype=np.int64))
        if self.true_eigenvalues is not None:
            lam = np.sort(np.asarray(self.true_eigenvalues, dtype=np.float64))[::-1]
            object.__setattr__(self, "true_eigenvalues", lam)


@dataclass(frozen=True)
class TestReport:
    """Immutable result of one significance-test run.

    ``spectrum_used`` is the null spectrum that generated the simulations,
    or the (hard, soft) pair for the combined method. ``timing_seconds`` is
    the wall time of the shared prelude (observed statistic and spectra)
    plus this method's own null simulation, and is excluded from all
    determinism guarantees.
    """

    __test__ = False  # not a pytest class, despite the name

    method: str
    ci_observed: float
    null_cis: np.ndarray
    p_empirical: float
    p_gaussian: float
    null_mean: float
    null_sd: float
    spectrum_used: NullSpectrum | tuple[NullSpectrum, NullSpectrum]
    warnings: tuple[str, ...]
    seed: int
    n_sim: int
    restarts_null: int
    restarts_observed: int
    observed_mode: str
    timing_seconds: float


def empirical_p(ci_observed: float, null_cis: np.ndarray) -> float:
    """(1 + #{null <= observed}) / (n_sim + 1); never exactly zero."""
    count = int(np.count_nonzero(null_cis <= ci_observed))
    return (1 + count) / (null_cis.size + 1)


def gaussian_p(ci_observed: float, null_mean: float, null_sd: float) -> float:
    """Lower-tail normal probability of the observed index under the
    moment-fitted null; clamped into the open interval (0, 1)."""
    if null_sd <= 0.0:
        p = 0.5 if ci_observed == null_mean else (0.0 if ci_observed < null_mean else 1.0)
    else:
        p = float(norm.cdf((ci_observed - null_mean) / null_sd))
    tiny = np.finfo(np.float64).tiny
    return float(min(max(p, tiny), 1.0 - np.finfo(np.float64).epsneg))


def _replication_cis(sqrt_rows, n, master_seed, rep, restarts):
    # One Gaussian draw per replication; each arm rescales the same draw
    # and reuses the same k-means seed sequence.
    gauss_seq, km_seq = stream(master_seed, NULL_REP, int(rep)).spawn(2)
    z = as_generator(gauss_seq).standard_normal((sqrt_rows[0].size, n))
    return [
        two_means_index(sq[:, None] * z, restarts, as_generator(km_seq))
        for sq in sqrt_rows
    ]


def _replication_chunk(task):
    sqrt_rows, n, master_seed, reps, restarts = task
    return [_replication_cis(sqrt_rows, n, master_seed, r, restarts) for r in reps]


def _simulate(spectra, n, config):
    sqrt_rows = tuple(np.sqrt(s.eigenvalues) for s in spectra)
    if config.workers <= 1:
        rows = [
            _replication_cis(sqrt_rows, n, config.master_seed, r, config.restarts_null)
            for r in range(config.n_sim)
        ]
    else:
        chunks = [
            c.tolist()
            for c in np.array_split(np.arange(config.n_sim), config.workers * 4)
            if c.size
        ]
        tasks = [
            (sqrt_rows, n, config.master_seed, chunk, config.restarts_null)
            for chunk in chunks
        ]
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            chunk_rows = list(pool.map(_replication_chunk, tasks))
        # Merge by replication index: chunks are contiguous and in order.
        rows = [row for chunk in chunk_rows for row in chunk]
    cis = np.asarray(rows, dtype=np.float64)
    return tuple(cis[:, k].copy() for k in range(len(spectra)))


def simulate_null_cis(spectrum: NullSpectrum, n: int, config: TestConfig) -> np.ndarray:
    """Cluster indices of ``n_sim`` simulated null data sets.

    Replication r draws a d-by-n standard normal matrix from the stream
    keyed by (master_seed, r), scales row j by sqrt(lambda_j), and runs
    seeded 2-means with ``restarts_null`` restarts. Output is ordered by
    replication index and is identical for any worker count.
    """
    return _simulate((spectrum,), n, config)[0]


def simulate_null_cis_combined(
    hard: NullSpectrum, soft: NullSpectrum, n: int, config: TestConfig
) -> np.ndarray:
    """Per-replication minimum of the hard-arm and soft-arm cluster indices.

    Both arms of each replication rescale one shared standard normal draw
    and use identical k-means seeding, so the minimum is taken over a
    genuinely paired pair of indices.
    """
    if hard.d != soft.d:
        raise InvalidSpectraError(
            f"spectra disagree in dimension: {hard.d} vs {soft.d}"
        )
    hard_cis, soft_cis = _simulate((hard, soft), n, config)
    return np.minimum(hard_cis, soft_cis)


def _null_spectra(x, config, methods):
    """Null spectra per method, plus shared warnings."""
    warnings: list[str] = []
    spectra: dict[str, NullSpectrum | tuple[NullSpectrum, NullSpectrum]] = {}
    estimated = [m for m in methods if m != "true"]
    if estimated:
        spec = sample_spectrum(x)
        noise = None
        if any(m in ("hard", "soft", "combined") for m in estimated):
            noise = estimate_noise(x)
        if "sample" in estimated:
            spectra["sample"] = NullSpectrum(method="sample", eigenvalues=spec.padded())
        hard = soft = None
        if any(m in ("hard", "combined") for m in estimated):
            hard = hard_threshold(spec, noise)
        if any(m in ("soft", "combined") for m in estimated):
            try:
                soft = soft_threshold(spec, noise)
            except NoTraceSolutionError as err:
                soft = flat_fallback_spectrum(spec, noise)
                warnings.append(f"soft estimator fell back to a flat spectrum: {err}")
        if "hard" in estimated:
            spectra["hard"] = hard
        if "soft" in estimated:
            spectra["soft"] = soft
        if "combined" in estimated:
            spectra["combined"] = (hard, soft)
    if "true" in methods:
        if config.true_eigenvalues is None:
            raise InvalidConfigError('method "true" requires true_eigenvalues')
        if config.true_eigenvalues.size != x.d:
            raise InvalidSpectraError(
                f"true eigenvalues have length {config.true_eigenvalues.size}, "
                f"expected d={x.d}"
            )
        spectra["true"] = NullSpectrum(method="true", eigenvalues=config.true_eigenvalues)
    return spectra, warnings


def run_tests(
    x: DataMatrix, config: TestConfig, methods: tuple[str, ...] | None = None
) -> dict[str, TestReport]:
    """Run the significance test for several methods on one data set.

    The observed statistic, the sample spectrum, and the noise estimate are
    computed once and shared; each method then simulates its own null
    distribution from the common replication streams. With
    ``config.labels`` set, the observed index is computed on the given
    partition instead of by 2-means optimization, and the mode is recorded
    in the report.
    """
    methods = tuple(methods) if methods is not None else (config.method,)
    for m in methods:
        if m not in METHODS:
            raise InvalidConfigError(f"unknown method {m!r}")
    t0 = time.perf_counter()

    if config.labels is not None:
        split = cluster_index_for_labels(x, config.labels)
        observed_mode = "known-labels"
    else:
        split = two_means_ci(
            x,
            restarts=config.restarts_observed,
            seed=stream(config.master_seed, OBSERVED),
        )
        observed_mode = "two-means"
    ci_obs = split.ci

    spectra, shared_warnings = _null_spectra(x, config, methods)
    prelude_seconds = time.perf_counter() - t0

    reports = {}
    for m in methods:
        t_method = time.perf_counter()
        used = spectra[m]
        if m == "combined":
            null_cis = simulate_null_cis_combined(used[0], used[1], x.n, config)
        else:
            null_cis = simulate_null_cis(used, x.n, config)
        null_mean = float(null_cis.mean())
        null_sd = float(null_cis.std(ddof=1))
        reports[m] = TestReport(
            method=m,
            ci_observed=ci_obs,
            null_cis=null_cis,
            p_empirical=empirical_p(ci_obs, null_cis),
            p_gaussian=gaussian_p(ci_obs, null_mean, null_sd),
            null_mean=null_mean,
            null_sd=null_sd,
            spectrum_used=used,
            warnings=tuple(shared_warnings),
            seed=config.master_seed,
            n_sim=config.n_sim,
            restarts_null=config.restarts_null,
            restarts_observed=config.restarts_observed,
            observed_mode=observed_mode,
            timing_seconds=prelude_seconds + (time.perf_counter() - t_method),
        )
    return reports


def run_test(x: DataMatrix, config: TestConfig) -> TestReport:
    """Run the significance test with the method named in ``config``."""
    return run_tests(x, config, (config.method,))[config.method]
