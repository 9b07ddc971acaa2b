"""Monte Carlo engine for the clustering-significance test.

A run estimates a Gaussian null spectrum from the data (or takes it as
given), simulates ``n_sim`` null data sets of the same shape, computes the
2-means cluster index on each, and converts the observed index into an
empirical and a Gaussian p-value. The index depends on a null data set
only through its centred n-by-n Gram matrix, so a replication draws
Gaussian rows Z for the K = min(d, n) leading eigenvalues and a bulk
factor B whose Gram matrix has the law of the flat rows' (a Bartlett
triangle when d - K > n), at most 2n rows whatever d is. Row centring is
linear, so Z and B are centred once per replication and BcᵀBc is formed
once; each arm's centred Gram matrix is then (h∘Zc)ᵀ(h∘Zc) + floor·BcᵀBc,
with h the square roots of its leading eigenvalues and floor its flat
eigenvalue (a spectrum with more than n eigenvalues above its floor
draws its own rows past K and its own bulk). Every replication draws
from one SFC64 stream derived deterministically from (master_seed,
replication index), in a fixed order: the k-means start pairs, Z, the
bulk factor, then each wide arm's own rows from the state after those
shared draws. So an arm's results are bit-identical for any worker count
and whichever other arms are simulated alongside, and all arms simulated
in one run (the combined method's hard and soft arms among them) share
both the Gaussian draw and the k-means seeding within each replication.

Every null pass is planned here, by ``_shared_nulls``, for one data set
(``run_tests``) or for one replication of a grid group (``harness``):
arms with equal unit-mean spectra are simulated once, and the distinct
arms are cut into passes whose Gram matrices for one replication fit
``_BLOCK_BYTES``. Within a pass, replications run in blocks, mapped on a
worker pool when one is open. A block stacks the Gram matrices of all its
(replication, arm) elements and runs their 2-means together: each Lloyd
sweep multiplies every element's still-moving restarts by its Gram matrix
in one product. Its size comes from the same byte budget, never from the
worker count, and no element's result depends on the rest of its block.

The null runs in float32: each arm's spectrum is scaled to a mean
eigenvalue of 1, which leaves the index's law unchanged and keeps every
Gram entry far inside float32's range, and the normals, the Gram
matrices and the Lloyd kernel are float32, with tss summed in float64.
Under a Gaussian null the index is O(1) (its population value is at
least 1 - 2/π), so float32 round-off, a few 1e-7 of tss, is far below
the null's own spread. The observed statistic stays float64.
"""

from __future__ import annotations

import math
import os
import threading
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, replace
from functools import lru_cache, partial
from multiprocessing import get_context

import numpy as np

from ._streams import OBSERVED, null_generator, seed_int, stream
from .cluster import _best_splits, _start_pairs, _two_means, cluster_index_for_labels
from .errors import (
    DegenerateDataError,
    InvalidConfigError,
    InvalidSpectraError,
    NoTraceSolutionError,
)
from .linalg import DataMatrix, _centred, _centred_gram, _sample_spectrum
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
# Gram matrices per block. Medians of 15 in-process CLI runs at 1, 2 and
# 4 MiB of float32 Gram matrices (2-core x86-64, one OpenBLAS thread):
# test-combined-d1k 0.188, 0.180, 0.193 s; grid-calib-w2 0.229, 0.223,
# 0.227 s; test-hard-d20k 1.026, 1.025, 1.061 s.
_BLOCK_BYTES = 2 << 20
# dtype of the null's Gram matrices, and so of its Lloyd kernel.
_NULL_DTYPE = np.dtype(np.float32)
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
            object.__setattr__(self, "labels", np.asarray(self.labels))
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


def _compact_plan(spectra, n, dtype=np.float64):
    """(d, K, per-arm sqrt of the leading eigenvalues (``dtype``), per-arm floor).

    K = min(d, n) whatever the arms are, so an arm's draws never depend on
    the other arms of the run. An arm whose spectrum is flat at its own
    floor ``λ[-1]`` past K (sample, hard, soft and spiked spectra) has K
    leading rows; a wider one keeps every eigenvalue above its floor.
    """
    d = spectra[0].d
    k = min(d, n)
    lams = [s.eigenvalues for s in spectra]
    heads = tuple(np.sqrt(lam[: max(k, np.count_nonzero(lam > lam[-1]))]).astype(dtype)
                  for lam in lams)
    floors = tuple(float(lam[-1]) for lam in lams)
    return d, k, heads, floors


@lru_cache(maxsize=8)
def _triangle(n):
    """Flat indices into an n-by-n matrix: the strict upper triangle in row
    order, and the diagonal."""
    i, j = np.triu_indices(n, 1)
    return i * n + j, np.arange(0, n * n, n + 1)


def _bulk_factor(rng, m, n, dtype=np.float64):
    """B (``dtype``) with BᵀB ~ Wishart_n(m, I): m dense normal rows when
    m <= n, else the n-by-n upper Bartlett triangle (normals above the
    diagonal, sqrt(chi2(m - i)) at diagonal entry i). The normals are
    drawn in ``dtype``, the chi-square draws in float64."""
    if m <= n:
        return rng.standard_normal((m, n), dtype=dtype)
    upper, diag = _triangle(n)
    b = np.zeros(n * n, dtype=dtype)
    b[upper] = rng.standard_normal(upper.size, dtype=dtype)
    b[diag] = np.sqrt(rng.chisquare(m - np.arange(n)))
    return b.reshape(n, n)


def _null_grams(plan, n, rng, out):
    """Write one centred Gram matrix per arm, with the law of C ZᵀΛZ C
    (C = I - 11ᵀ/n), into ``out`` (arms, n, n).

    All arms share the K leading Gaussian rows Z and the bulk factor B,
    centred once, and BcᵀBc: an arm's Gram is (h∘Zc)ᵀ(h∘Zc) + floor·BcᵀBc,
    so one with a zero floor (the sample spectrum) keeps only its leading
    rows. A wide arm draws its rows past K and its own bulk from the stream
    as it stands after the shared draws, the same point for every wide arm.
    The normals, the centring, the plan's h and the products, written
    straight into ``out`` (floor·BcᵀBc added in place), are in ``out``'s
    dtype (float32 in the null, on unit-mean spectra), the chi-square draws
    in float64. Continuous draws have no exact duplicate columns, so, unlike
    the observed statistic's, no duplicate guard runs.
    """
    d, k, heads, floors = plan
    dtype = out.dtype
    zc = _centred(rng.standard_normal((k, n), dtype=dtype))
    bulk = _centred(_bulk_factor(rng, d - k, n, dtype))
    # Building the state dict costs about 10 µs: only wide arms need it.
    shared_end = rng.bit_generator.state if any(h.size > k for h in heads) else None
    bulk_gram = bulk.T @ bulk
    for e, (head, floor) in enumerate(zip(heads, floors)):
        rows, own_gram = head[:k, None] * zc, bulk_gram
        if head.size > k:
            rng.bit_generator.state = shared_end
            extra = _centred(rng.standard_normal((head.size - k, n), dtype=dtype))
            rows = np.vstack([rows, head[k:, None] * extra])
            own = _centred(_bulk_factor(rng, d - head.size, n, dtype))
            own_gram = own.T @ own
        np.matmul(rows.T, rows, out=out[e])
        if floor:
            out[e] += floor * own_gram


def _block_cis(plan, n, master_seed, restarts, reps):
    """Null indices (len(reps), arms) of the replications ``reps``.

    Each replication draws one set of start pairs, then its Gram matrices
    (``_NULL_DTYPE``), from its own generator (``null_generator``); every
    arm reuses the start pairs, and the 2-means of every (replication,
    arm) element runs in one stacked kernel. tss is summed in float64.
    An element whose Gram matrix has a zero trace (a zero total sum of
    squares) gets NaN, so that it fails only the run it belongs to.
    """
    arms = len(plan[2])
    grams = np.empty((len(reps) * arms, n, n), dtype=_NULL_DTYPE)
    starts = np.empty((2, len(reps) * arms, restarts), dtype=np.intp)
    for b, rep in enumerate(reps):
        rng = null_generator(master_seed, rep)
        elems = slice(b * arms, (b + 1) * arms)
        starts[:, elems] = np.stack(_start_pairs(n, restarts, rng))[:, None]
        _null_grams(plan, n, rng, grams[elems])
    tss = np.trace(grams, axis1=1, axis2=2, dtype=np.float64)
    _, wss = _best_splits(grams, *starts)
    cis = np.divide(wss, tss, out=np.full_like(wss, np.nan), where=tss > 0.0)
    return cis.reshape(len(reps), arms)


def _gram_bytes(n, arms):
    """Bytes of one replication's null Gram matrices: ``arms`` n-by-n
    matrices of ``_NULL_DTYPE``."""
    return arms * n * n * _NULL_DTYPE.itemsize


def _block_size(n, arms):
    """Replications per block: about ``_BLOCK_BYTES`` of float32 Gram
    matrices (``_gram_bytes``), at most ``_BLOCK_REPS``; independent of the
    worker count."""
    return max(1, min(_BLOCK_REPS, _BLOCK_BYTES // _gram_bytes(n, arms)))


def _forks() -> bool:
    """Whether ``io``'s readers and ``_pool``'s workers fork: where the
    platform tells this process's CPUs (Linux) and no other Python thread
    runs, whose locks held at the fork would stay held in the child."""
    return hasattr(os, "sched_getaffinity") and threading.active_count() == 1


def _pool(workers):
    """A process pool for ``workers`` > 1, else a null context (None). Its
    workers fork where ``_forks`` allows, else start the platform's way."""
    if workers == 1:
        return nullcontext()
    return ProcessPoolExecutor(max_workers=workers,
                               mp_context=get_context("fork" if _forks() else None))


@contextmanager
def _quiet_fork():
    """Ignore Python 3.12+'s warning at a fork while threads (OpenBLAS's) run."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", r"This process .* is multi-threaded", DeprecationWarning)
        yield


def _unit_mean(spectrum):
    """``spectrum`` scaled to a mean eigenvalue of 1. The cluster index does
    not change with scale, so neither does its null law, and float32 Gram
    matrices of a unit-mean spectrum can neither overflow nor underflow."""
    lam = spectrum.eigenvalues / spectrum.eigenvalues[0]  # the top: no overflow
    return replace(spectrum, eigenvalues=lam / lam.mean())


def _simulate(spectra, n, config, pool=None):
    """Null indices of every arm in ``spectra``, from one shared pass, each
    arm scaled to a mean eigenvalue of 1. Blocks map on the caller's
    ``pool`` (``run_tests`` opens one per call, ``harness.run_grid`` one per
    grid), or run serially when it is None."""
    plan = _compact_plan([_unit_mean(s) for s in spectra], n, _NULL_DTYPE)
    size = _block_size(n, len(spectra))
    blocks = [range(s, min(s + size, config.n_sim)) for s in range(0, config.n_sim, size)]
    one_block = partial(_block_cis, plan, n, config.master_seed, config.restarts_null)
    # Executor.map submits every block at once, and yields in input order,
    # so rows stay in replication order for any worker count.
    with _quiet_fork():
        rows = (map if pool is None else pool.map)(one_block, blocks)
    cis = np.concatenate(list(rows))
    return tuple(cis[:, k].copy() for k in range(len(spectra)))


def simulate_null_cis(spectrum: NullSpectrum, n: int, config: TestConfig) -> np.ndarray:
    """Cluster indices of ``n_sim`` simulated null data sets.

    Replication r draws, from one SFC64 stream keyed by (master_seed, r),
    the k-means start pairs, then the K = min(d, n) leading rows
    sqrt(lambda_j) * z_j of the null data and a factor of the d - K flat
    rows with the same Gram law (a Bartlett triangle when d - K > n), and
    runs seeded 2-means with ``restarts_null`` restarts on the centred
    Gram matrix of the two, in float32 on the spectrum scaled to a mean
    eigenvalue of 1.
    Replications run in blocks sized from a byte budget of Gram matrices
    that does not depend on the worker count, each Lloyd sweep one product
    per element of a block, on a pool of ``config.workers`` processes
    opened for this call when that is above one. Output is ordered by
    replication index and is identical for any worker count and block size.
    """
    with _pool(config.workers) as pool:
        return _checked(_simulate((spectrum,), n, config, pool)[0])


def estimate_null_spectra(
    x: DataMatrix, arms, true_eigenvalues: np.ndarray | None = None, gram=None
) -> tuple[dict[str, NullSpectrum], list[str]]:
    """Null spectra for the ``arms`` among "sample", "hard", "soft" and
    "true", plus warnings. The soft arm falls back to the flat,
    trace-preserving spectrum when no soft offset matches the trace. For
    d > n the sample spectrum comes from ``gram``, the ``_centred_gram`` of
    ``x.values``, formed here when None."""
    spectra: dict[str, NullSpectrum] = {}
    warnings: list[str] = []
    if {"sample", "hard", "soft"} & set(arms):
        spec = _sample_spectrum(x, gram)
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
    is recorded in the report. With n = 2 every split puts one observation
    in each cluster, so the null is all zeros without simulating and the
    reports warn that the test cannot reject. The null runs on a pool of
    ``config.workers`` processes opened for this call when that is above
    one.
    """
    prelude = _prelude(x, config, methods)
    with _pool(config.workers) as pool:
        return _reports(prelude, _shared_nulls([prelude], pool)[0])


def _arms(methods):
    """The distinct null spectra that ``methods`` need, in order."""
    return tuple(dict.fromkeys(
        a for m in methods for a in (("hard", "soft") if m == "combined" else (m,))
    ))


@dataclass(frozen=True)
class _Prelude:
    """What one data set's run keeps until its null has run: the observed
    index and the null spectra, not the data matrix."""

    config: TestConfig
    methods: tuple[str, ...]
    arms: tuple[str, ...]
    n: int
    ci_observed: float
    observed_mode: str
    spectra: dict
    warnings: tuple[str, ...]
    started: float


def _prelude(x, config, methods) -> _Prelude:
    """The observed statistic, null spectra and warnings of one data set.

    The centred Gram matrix is formed once, here, for the observed 2-means
    and (when d > n) the sample spectrum, and dropped on return."""
    methods = tuple(methods) if methods is not None else (config.method,)
    check_methods(methods)
    started = time.perf_counter()
    gram = None
    if config.labels is not None:
        split = cluster_index_for_labels(x, config.labels)
        observed_mode = "known-labels"
    else:
        gram = _centred_gram(x.values)
        split = _two_means(
            x, gram, config.restarts_observed, stream(config.master_seed, OBSERVED)
        )
        observed_mode = "two-means"
        if x.d <= x.n:
            gram = None  # the spectrum comes from the d x d covariance
    arms = _arms(methods)
    spectra, warnings = estimate_null_spectra(x, arms, config.true_eigenvalues, gram)
    if x.n == 2:
        warnings.append(
            "n=2: every split puts one observation in each cluster, so the observed "
            "and every null cluster index are 0 and the test cannot reject"
        )
    return _Prelude(config, methods, arms, x.n, split.ci, observed_mode, spectra,
                    tuple(warnings), started)


def _shared_nulls(preludes, pool):
    """Per prelude, the null indices of its arms, in arm order.

    The preludes share d, n and their configs' n_sim, master_seed and
    restarts_null, as one replication of a grid group does. Arms whose
    unit-mean spectra are exactly equal are simulated once. The distinct
    arms are cut, in prelude order, into ``_simulate`` passes whose Gram
    matrices for one replication fit ``_BLOCK_BYTES``; a prelude's new arms
    never straddle two passes, so each pass holds at least one prelude and
    the combined method's hard and soft arms share their draw. An arm's
    indices do not depend on the arms beside it, so neither the sharing nor
    the cut changes a result. At n = 2 every null index is 0, and nothing
    is simulated.
    """
    if not preludes or preludes[0].n == 2:
        return [tuple(np.zeros(p.config.n_sim) for _ in p.arms) for p in preludes]
    n, config = preludes[0].n, preludes[0].config
    # ids: unit-mean eigenvalue bytes -> index into the distinct spectra;
    # owned: each prelude's arms as such indices; starts: each pass's first.
    ids, spectra, owned, starts = {}, [], [], []
    for p in preludes:
        first_new = len(spectra)
        owned.append([])
        for a in p.arms:
            key = _unit_mean(p.spectra[a]).eigenvalues.tobytes()
            if key not in ids:
                ids[key] = len(spectra)
                spectra.append(p.spectra[a])
            owned[-1].append(ids[key])
        if len(spectra) > first_new and (
                not starts or _gram_bytes(n, len(spectra) - starts[-1]) > _BLOCK_BYTES):
            starts.append(first_new)
    del ids  # the keys are as large as the spectra
    cis = []
    for lo, hi in zip(starts, starts[1:] + [len(spectra)]):
        cis += _simulate(spectra[lo:hi], n, config, pool)
    return [tuple(cis[i] for i in arms) for arms in owned]


def _checked(cis):
    """``cis``, unless an element's Gram matrix had a zero trace."""
    if np.isnan(cis).any():
        raise DegenerateDataError("total sum of squares is zero; no cluster structure")
    return cis


def _reports(prelude, cis) -> dict[str, TestReport]:
    """One report per method from a prelude and its arms' null indices
    ``cis`` (``_shared_nulls``)."""
    config = prelude.config
    null = {a: _checked(c) for a, c in zip(prelude.arms, cis)}
    spectra = dict(prelude.spectra)
    if "combined" in prelude.methods:
        spectra["combined"] = (spectra["hard"], spectra["soft"])
        null["combined"] = np.minimum(null["hard"], null["soft"])
    elapsed = time.perf_counter() - prelude.started

    ci_obs = prelude.ci_observed
    reports = {}
    for m in prelude.methods:
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
            warnings=prelude.warnings,
            seed=config.master_seed,
            n_sim=config.n_sim,
            restarts_null=config.restarts_null,
            restarts_observed=config.restarts_observed,
            observed_mode=prelude.observed_mode,
            timing_seconds=elapsed,
        )
    return reports


def run_test(x: DataMatrix, config: TestConfig) -> TestReport:
    """Run the significance test with the method named in ``config``."""
    return run_tests(x, config, (config.method,))[config.method]
