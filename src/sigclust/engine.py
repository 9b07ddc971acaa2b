"""Monte Carlo engine for the clustering-significance test.

A run estimates a Gaussian null spectrum from the data (or takes it as
given), simulates ``n_sim`` null data sets of the same shape, computes the
2-means cluster index on each, and converts the observed index into an
empirical and a Gaussian p-value. The index depends on a null data set
only through its centred n-by-n Gram matrix, so a replication draws a
factor F whose Gram matrix FᵀF has the law of ZᵀΛZ: Gaussian rows for
the min(d, n) leading eigenvalues over a Bartlett triangle for the flat
bulk, at most 2n rows whatever d is (a spectrum with more than n
eigenvalues above its floor keeps them all as rows). Every replication
draws from a stream derived deterministically from (master_seed,
replication index), so an arm's results are bit-identical for any worker
count and whichever other arms are simulated alongside, and all arms
simulated in one run (the combined method's hard and soft arms among
them) share both the Gaussian draw and the k-means seeding within each
replication.

Replications run in blocks, mapped on a worker pool when one is open. A
block stacks the Gram matrices of all its (replication, arm) elements
and runs their 2-means together, one batched product per Lloyd sweep.
Its size comes from a byte budget of Gram matrices (``_BLOCK_BYTES``),
never from the worker count, and no element's result depends on the rest
of its block.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from ._streams import NULL_REP, OBSERVED, as_generator, seed_int, stream
from .cluster import _best_splits, _gram, _start_pairs, cluster_index_for_labels, two_means_ci
from .errors import (
    DegenerateDataError,
    InvalidConfigError,
    InvalidSpectraError,
    NoTraceSolutionError,
)
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
MIN_N_SIM = 100
DEFAULT_RESTARTS_NULL = 20
DEFAULT_RESTARTS_OBSERVED = 100
_BLOCK_BYTES = 1 << 20  # Gram matrices per block; 2 MB ran no faster and used more memory
_BLOCK_REPS = 64  # bounds the block's restart arrays when n is small


def check_methods(methods: tuple[str, ...]) -> None:
    """Raise InvalidConfigError unless ``methods`` names at least one
    method of METHODS and none twice."""
    if not methods:
        raise InvalidConfigError("at least one method is required")
    for i, m in enumerate(methods):
        if m not in METHODS:
            raise InvalidConfigError(f"unknown method {m!r}; choose from {', '.join(METHODS)}")
        if m in methods[:i]:
            raise InvalidConfigError(f"method {m!r} is listed twice")


def resolve_seed(master_seed: int | None) -> int:
    """The master seed to run with: a missing one is drawn from OS entropy
    (64 bits); a negative one raises InvalidConfigError."""
    if master_seed is None:
        return seed_int(np.random.SeedSequence())
    if master_seed < 0:
        raise InvalidConfigError(f"master_seed must be >= 0, got {master_seed}")
    return master_seed


def check_workers(workers: int) -> None:
    """Raise InvalidConfigError unless ``workers`` is at least 1."""
    if workers < 1:
        raise InvalidConfigError("workers must be >= 1")


@dataclass(frozen=True)
class TestConfig:
    """Configuration of one significance-test run.

    ``method`` picks the null spectrum: "sample" uses the raw sample
    eigenvalues (trailing exact zeros included), "hard"/"soft" the
    thresholded estimates, "combined" the per-replication minimum of the
    hard and soft indices, and "true" a user-supplied spectrum passed via
    ``true_eigenvalues``. A missing ``master_seed`` is drawn from OS
    entropy so the run stays reproducible from the report echo. The
    default null index takes fewer restarts than the observed one, which
    makes the test reject a true null somewhat too often; equal counts
    calibrate it.
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
        check_methods((self.method,))
        if self.n_sim < MIN_N_SIM:
            raise InvalidConfigError(f"n_sim must be >= {MIN_N_SIM}, got {self.n_sim}")
        if self.restarts_null < 1 or self.restarts_observed < 1:
            raise InvalidConfigError("restart counts must be >= 1")
        check_workers(self.workers)
        object.__setattr__(self, "master_seed", resolve_seed(self.master_seed))
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
    plus the one null simulation pass shared by every method of the run,
    and is excluded from all determinism guarantees.
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
        # erfc keeps the lower tail, where 1 + erf(z / sqrt 2) underflows
        # to 0 below z = -8.3 or so.
        z = (ci_observed - null_mean) / null_sd
        p = 0.5 * math.erfc(-z / math.sqrt(2.0))
    tiny = np.finfo(np.float64).tiny
    return float(min(max(p, tiny), 1.0 - np.finfo(np.float64).epsneg))


def _compact_plan(spectra, n):
    """(d, K, per-arm sqrt of the leading eigenvalues, per-arm sqrt floor).

    K = min(d, n) whatever the arms are, so an arm's draws never depend on
    the other arms of the run. An arm whose spectrum is flat at its own
    floor ``λ[-1]`` past K (sample, hard, soft and spiked spectra) has K
    leading rows; a wider one keeps every eigenvalue above its floor.
    """
    d = spectra[0].d
    k = min(d, n)
    lams = [s.eigenvalues for s in spectra]
    heads = tuple(np.sqrt(lam[: max(k, np.count_nonzero(lam > lam[-1]))]) for lam in lams)
    floors = tuple(float(np.sqrt(lam[-1])) for lam in lams)
    return d, k, heads, floors


@lru_cache(maxsize=8)
def _upper(n):
    return np.triu_indices(n, 1)


def _bulk_factor(rng, m, n):
    """B with BᵀB ~ Wishart_n(m, I): m dense normal rows when m <= n, else
    the n-by-n upper Bartlett triangle (normals above the diagonal,
    sqrt(chi2(m - i)) at diagonal entry i)."""
    if m <= n:
        return rng.standard_normal((m, n))
    b = np.zeros((n, n))
    b[_upper(n)] = rng.standard_normal(n * (n - 1) // 2)
    b[np.diag_indices(n)] = np.sqrt(rng.chisquare(m - np.arange(n)))
    return b


def _factors(plan, n, rng):
    """One factor per arm whose Gram matrix has the law of ZᵀΛZ.

    All arms share the K leading Gaussian rows and the bulk factor; an arm
    with a zero floor (the sample spectrum) keeps only its leading rows. A
    wide arm draws its rows past K and its own bulk from the stream as it
    stands after the shared draws, the same point for every wide arm.
    """
    d, k, heads, floors = plan
    z = rng.standard_normal((k, n))
    bulk = _bulk_factor(rng, d - k, n)
    shared_end = rng.bit_generator.state
    factors = []
    for head, floor in zip(heads, floors):
        rows, own_bulk = head[:k, None] * z, bulk
        if head.size > k:
            rng.bit_generator.state = shared_end
            rows = np.vstack([rows, head[k:, None] * rng.standard_normal((head.size - k, n))])
            own_bulk = _bulk_factor(rng, d - head.size, n)
        factors.append(np.vstack([rows, floor * own_bulk]) if floor > 0.0 else rows)
    return factors


def _block_cis(plan, n, master_seed, restarts, reps):
    """Null indices (len(reps), arms) of the replications ``reps``.

    Each replication draws its factors and one set of start pairs from its
    own streams; every arm reuses the start pairs, and the 2-means of
    every (replication, arm) element runs in one stacked kernel.
    """
    arms = len(plan[2])
    grams = np.empty((len(reps) * arms, n, n))
    starts = np.empty((2, len(reps) * arms, restarts), dtype=np.intp)
    for b, rep in enumerate(reps):
        gauss_seq, km_seq = stream(master_seed, NULL_REP, rep).spawn(2)
        elems = slice(b * arms, (b + 1) * arms)
        starts[:, elems] = np.stack(_start_pairs(n, restarts, as_generator(km_seq)))[:, None]
        for e, f in enumerate(_factors(plan, n, as_generator(gauss_seq)), b * arms):
            grams[e] = _gram(f)
    tss = np.trace(grams, axis1=1, axis2=2)
    if np.any(tss <= 0.0):
        raise DegenerateDataError("total sum of squares is zero; no cluster structure")
    _, wss = _best_splits(grams, *starts)
    return (wss / tss).reshape(len(reps), arms)


def _block_size(n, arms):
    """Replications per block: about ``_BLOCK_BYTES`` of Gram matrices, at
    most ``_BLOCK_REPS``; independent of the worker count."""
    return max(1, min(_BLOCK_REPS, _BLOCK_BYTES // (8 * n * n * arms)))


def _pool(workers):
    """A process pool for ``workers`` > 1, else a null context (None)."""
    return ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext()


def _simulate(spectra, n, config, pool=None):
    """Null indices of every arm in ``spectra``, from one shared pass.
    Blocks map on the caller's ``pool`` (``run_tests`` opens one per call,
    ``harness.run_grid`` one per grid), or run serially when it is None."""
    plan = _compact_plan(spectra, n)
    size = _block_size(n, len(spectra))
    blocks = [range(s, min(s + size, config.n_sim)) for s in range(0, config.n_sim, size)]
    one_block = partial(_block_cis, plan, n, config.master_seed, config.restarts_null)
    # Executor.map yields in input order, so rows stay in replication
    # order for any worker count.
    rows = list((map if pool is None else pool.map)(one_block, blocks))
    cis = np.concatenate(rows)
    return tuple(cis[:, k].copy() for k in range(len(spectra)))


def simulate_null_cis(spectrum: NullSpectrum, n: int, config: TestConfig) -> np.ndarray:
    """Cluster indices of ``n_sim`` simulated null data sets.

    Replication r draws, from the stream keyed by (master_seed, r), the
    K = min(d, n) leading rows sqrt(lambda_j) * z_j of the null data and a
    factor of the d - K flat rows with the same Gram law (a Bartlett
    triangle when d - K > n), and runs seeded 2-means with
    ``restarts_null`` restarts on the Gram matrix of the stacked factor.
    Replications run in blocks sized from a byte budget of Gram matrices
    that does not depend on the worker count, one batched product per
    Lloyd sweep per block, on a pool of ``config.workers`` processes
    opened for this call when that is above one. Output is ordered by
    replication index and is identical for any worker count and block size.
    """
    with _pool(config.workers) as pool:
        return _simulate((spectrum,), n, config, pool)[0]


def estimate_null_spectra(
    x: DataMatrix, arms, true_eigenvalues: np.ndarray | None = None
) -> tuple[dict[str, NullSpectrum], list[str]]:
    """Null spectra for the ``arms`` among "sample", "hard", "soft" and
    "true", plus warnings. The soft arm falls back to the flat,
    trace-preserving spectrum when no soft offset matches the trace."""
    spectra: dict[str, NullSpectrum] = {}
    warnings: list[str] = []
    if {"sample", "hard", "soft"} & set(arms):
        spec = sample_spectrum(x)
        noise = estimate_noise(x) if {"hard", "soft"} & set(arms) else None
    if "sample" in arms:
        spectra["sample"] = NullSpectrum(method="sample", eigenvalues=spec.padded())
    if "hard" in arms:
        spectra["hard"] = hard_threshold(spec, noise)
    if "soft" in arms:
        try:
            spectra["soft"] = soft_threshold(spec, noise)
        except NoTraceSolutionError as err:
            spectra["soft"] = flat_fallback_spectrum(spec, noise)
            warnings.append(f"soft estimator fell back to a flat spectrum: {err}")
    if "true" in arms:
        if true_eigenvalues is None:
            raise InvalidConfigError('method "true" requires true_eigenvalues')
        if true_eigenvalues.size != x.d:
            raise InvalidSpectraError(
                f"true eigenvalues have length {true_eigenvalues.size}, expected d={x.d}"
            )
        spectra["true"] = NullSpectrum(method="true", eigenvalues=true_eigenvalues)
    return spectra, warnings


def run_tests(
    x: DataMatrix, config: TestConfig, methods: tuple[str, ...] | None = None
) -> dict[str, TestReport]:
    """Run the significance test for several methods on one data set.

    ``methods`` must name at least one method of METHODS, none twice.
    The observed statistic, the sample spectrum, and the noise estimate are
    computed once and shared. Each distinct arm the methods need (sample,
    hard, soft, true; "combined" needs hard and soft) is then simulated
    once, all in one pass over the common replication streams, and the
    combined null is the per-replication minimum of the hard and soft
    indices. With ``config.labels`` set, the observed index is computed on
    the given partition instead of by 2-means optimization, and the mode
    is recorded in the report. With n = 2 the reports warn that the test
    cannot reject. The null runs on a pool of ``config.workers`` processes
    opened for this call when that is above one.
    """
    with _pool(config.workers) as pool:
        return _run_tests(x, config, methods, pool)


def _run_tests(x, config, methods, pool):
    """``run_tests`` with the null's blocks mapped on ``pool`` (or serially
    when it is None), so that a grid can share one pool across its runs."""
    methods = tuple(methods) if methods is not None else (config.method,)
    check_methods(methods)
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

    arms = tuple(dict.fromkeys(
        a for m in methods for a in (("hard", "soft") if m == "combined" else (m,))
    ))
    spectra, shared_warnings = estimate_null_spectra(x, arms, config.true_eigenvalues)
    if x.n == 2:
        shared_warnings.append(
            "n=2: every split puts one observation in each cluster, so the observed "
            "and every null cluster index are 0 and the test cannot reject"
        )
    null = dict(zip(arms, _simulate([spectra[a] for a in arms], x.n, config, pool)))
    if "combined" in methods:
        spectra["combined"] = (spectra["hard"], spectra["soft"])
        null["combined"] = np.minimum(null["hard"], null["soft"])
    elapsed = time.perf_counter() - t0

    reports = {}
    for m in methods:
        null_cis = null[m]
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
            spectrum_used=spectra[m],
            warnings=tuple(shared_warnings),
            seed=config.master_seed,
            n_sim=config.n_sim,
            restarts_null=config.restarts_null,
            restarts_observed=config.restarts_observed,
            observed_mode=observed_mode,
            timing_seconds=elapsed,
        )
    return reports


def run_test(x: DataMatrix, config: TestConfig) -> TestReport:
    """Run the significance test with the method named in ``config``."""
    return run_tests(x, config, (config.method,))[config.method]
