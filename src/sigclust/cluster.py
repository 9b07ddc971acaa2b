"""2-means clustering and the cluster-index test statistic.

The cluster index of a binary split is the within-cluster sum of squares
divided by the total sum of squares about the grand mean; small values
mean strong clustering. Lloyd-style 2-means with seeded restarts minimizes
the index approximately, and an exhaustive bipartition search provides the
exact optimum for small n. One closed form relates the index to a
covariance eigenvalue spectrum: :func:`theoretical_ci`, the population
value of the optimal split of a centered Gaussian.

The index is invariant to location and rotation, so it depends on the data
only through the n-by-n Gram matrix ``G = XcᵀXc`` of the centered columns.
The 2-means search therefore runs as kernel k-means on ``G`` (Dhillon, Guan
and Kulis, KDD 2004): with ``w_k`` cluster k's indicator divided by its
size, the margin ``G(w1 - w2) - (w1ᵀGw1 - w2ᵀGw2) / 2`` is the difference
of squared distances to the two centroids. Every term comes from the
product ``s = in2 @ G`` of the cluster-2 indicators with G and from G's
row sums t: ``G w2 = s / n2`` and ``G w1 = (t - s) / n1``. The kernel runs
on a stack of Gram matrices (one per null replication and arm, or a stack
of one for the observed statistic): one batched product with one row per
restart advances every restart of every element still moving. The
observed statistic and the null replications share this one kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._streams import as_generator
from .errors import (
    DegenerateDataError,
    InvalidConfigError,
    InvalidDataError,
    InvalidLabelsError,
    TooLargeError,
)
from .linalg import DataMatrix

MAX_LLOYD_ITER = 300
EXHAUSTIVE_MAX_N = 20
_EXHAUSTIVE_CHUNK = 1 << 16
_DUPLICATE_RTOL = 1e-8  # relative gap below which two columns are compared exactly


@dataclass(frozen=True)
class ClusterSplit:
    """A binary partition of the observations with its sums of squares.

    ``labels`` holds 1 or 2 per observation; ``ci = wss / tss``.
    """

    labels: np.ndarray
    wss: float
    tss: float
    ci: float


def _tss(values: np.ndarray) -> float:
    centered = values - values.mean(axis=1, keepdims=True)
    return float((centered * centered).sum())


def _wss(values: np.ndarray, labels: np.ndarray) -> float:
    total = 0.0
    for k in (1, 2):
        cols = values[:, labels == k]
        delta = cols - cols.mean(axis=1, keepdims=True)
        total += float((delta * delta).sum())
    return total


def cluster_index_for_labels(x: DataMatrix, labels) -> ClusterSplit:
    """Cluster index of a user-supplied binary partition.

    The total sum of squares is taken about the grand mean, matching the
    k-means decomposition, and each cluster's contribution is taken about
    its own centroid. Raises :class:`InvalidLabelsError` unless both
    clusters are nonempty, and :class:`DegenerateDataError` when all
    observations coincide (zero total sum of squares).
    """
    labels = np.asarray(labels)
    if labels.shape != (x.n,):
        raise InvalidLabelsError(
            f"labels must have length n={x.n}, got shape {labels.shape}"
        )
    if not np.all((labels == 1) | (labels == 2)):
        raise InvalidLabelsError("labels must take values 1 or 2 only")
    labels = labels.astype(np.int64)
    if not (np.any(labels == 1) and np.any(labels == 2)):
        raise InvalidLabelsError("both clusters must be nonempty")
    tss = _tss(x.values)
    if tss <= 0.0:
        raise DegenerateDataError("total sum of squares is zero; no cluster structure")
    wss = _wss(x.values, labels)
    return ClusterSplit(labels=labels, wss=wss, tss=tss, ci=wss / tss)


def _gram(values: np.ndarray) -> np.ndarray:
    """Gram matrix ``XcᵀXc`` of the grand-mean-centered columns (n by n).

    BLAS may round the entries of two identical columns differently, which
    would break the exact ties between duplicate observations that the
    d-space algorithm sees. So every exact duplicate gets the Gram row and
    column of its first copy.
    """
    xc = values - values.mean(axis=1, keepdims=True)
    gram = xc.T @ xc
    diag = np.diagonal(gram)
    ranked = np.sort(diag)
    if not np.any(np.diff(ranked) <= _DUPLICATE_RTOL * ranked[1:]):
        return gram  # duplicates would have equal diagonal entries, to round-off
    scale = diag[:, None] + diag[None, :]
    close = np.triu(scale - 2.0 * gram <= _DUPLICATE_RTOL * scale, 1)
    original = np.arange(gram.shape[0])
    for a, b in zip(*np.nonzero(close)):  # only candidates, verified exactly
        if original[b] == b and np.array_equal(values[:, a], values[:, b]):
            original[b] = original[a]
    return gram[np.ix_(original, original)]


def _start_pairs(n: int, restarts: int, rng) -> tuple[np.ndarray, np.ndarray]:
    """Distinct pair of initial observations per restart, drawn in restart order.

    One call with an array of bounds makes the draws of ``rng.integers(n)``
    then ``rng.integers(n - 1)`` per restart, word for word.
    """
    i, j = rng.integers(np.tile([n, n - 1], restarts)).reshape(restarts, 2).T
    return i, j + (j >= i)  # uniform over distinct pairs


def _refill_empty(in2: np.ndarray, far: np.ndarray) -> None:
    # An emptied cluster takes the point farthest from the surviving
    # centroid, which is then the grand mean: the point of largest G_ii.
    n2 = in2.sum(axis=2)
    for size, fill in ((in2.shape[2], False), (0, True)):
        elem, restart = np.nonzero(n2 == size)
        in2[elem, restart, far[elem]] = fill


def _centroid_terms(grams: np.ndarray, rowsums: np.ndarray, in2: np.ndarray):
    """``G w1``, ``G w2`` (M, R, n) and ``w1ᵀG w1``, ``w2ᵀG w2`` (M, R, 1).

    ``in2`` (M, R, n) marks cluster 2 of restart r of element e at
    ``in2[e, r]``; cluster k's centroid is ``Xc @ w_k`` with ``w_k`` its
    indicator divided by its size ``n_k``. ``rowsums`` (M, 1, n) holds each
    G's row sums t. One R-row product ``s = in2 @ G`` gives every term, as
    G is symmetric: with ``q = in2ᵀs`` and ``in2ᵀt = 1ᵀs``,
    ``G w2 = s / n2``, ``G w1 = (t - s) / n1``, ``w2ᵀG w2 = q / n2²`` and
    ``w1ᵀG w1 = (Σt - 2 in2ᵀt + q) / n1²``. Centring makes t zero only up
    to round-off, which grows with the data's distance from the origin, so
    t is used as computed and the terms hold for the G at hand.
    """
    mask = in2.astype(np.float64)
    s = mask @ grams
    n2 = mask.sum(axis=2, keepdims=True)
    n1 = in2.shape[2] - n2
    q = (mask * s).sum(axis=2, keepdims=True)
    total = rowsums.sum(axis=2, keepdims=True)
    sq1 = (total - 2.0 * s.sum(axis=2, keepdims=True) + q) / (n1 * n1)
    return (rowsums - s) / n1, s / n2, sq1, q / (n2 * n2)


def _lloyd(grams: np.ndarray, first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """Final cluster-2 memberships (M, R, n) of one Lloyd run per start pair.

    ``grams`` stacks M centred Gram matrices and ``first``/``second`` (M, R)
    hold each element's start pairs. Each sweep advances every restart
    still moving with one batched product: an element's moving restarts
    are packed to the front of its slot, padded to the largest count. A
    restart whose labels stop changing is done, and none runs more than
    ``MAX_LLOYD_ITER`` sweeps. Elements with no moving restart leave the
    stack once they are half of it.
    """
    m, r = first.shape
    diag = np.diagonal(grams, axis1=1, axis2=2)
    far = np.argmax(diag, axis=1)
    d1 = np.take_along_axis(diag, first, axis=1)[:, :, None]
    d2 = np.take_along_axis(diag, second, axis=1)[:, :, None]
    # margin g > 0 means closer to centroid 1; initial ties go to cluster 1
    g = (np.take_along_axis(grams, first[:, :, None], axis=1)
         - np.take_along_axis(grams, second[:, :, None], axis=1) - 0.5 * (d1 - d2))
    in2 = g < 0.0
    moving = np.ones((m, r), dtype=bool)
    elems, stack, rowsums = np.arange(m), grams, grams.sum(axis=2)[:, None, :]
    for _ in range(MAX_LLOYD_ITER):
        live = moving[elems]
        counts = live.sum(axis=1)
        width = int(counts.max())
        slot = np.argsort(~live, axis=1, kind="stable")[:, :width]  # moving first
        real = np.arange(width) < counts[:, None]
        slot = np.where(real, slot, slot[:, :1])
        rows = np.broadcast_to(elems[:, None], slot.shape)
        cur = in2[rows, slot]
        _refill_empty(cur, far[elems])
        gw1, gw2, sq1, sq2 = _centroid_terms(stack, rowsums, cur)
        g = gw1 - gw2 - 0.5 * (sq1 - sq2)
        new = (g < 0.0) | ((g == 0.0) & cur)  # ties keep their label
        in2[rows[real], slot[real]] = new[real]
        moving[elems] = False
        moved = real & (new != cur).any(axis=2)
        moving[rows[moved], slot[moved]] = True
        alive = moved.any(axis=1)
        if not alive.any():
            break
        if 2 * alive.sum() <= len(elems):
            elems, stack, rowsums = elems[alive], stack[alive], rowsums[alive]
    _refill_empty(in2, far)
    return in2


def _best_splits(grams: np.ndarray, first: np.ndarray, second: np.ndarray):
    """Cluster-2 membership (M, n) and wss (M,) of each element's best
    restart; the first restart wins ties."""
    in2 = _lloyd(grams, first, second)
    n2 = in2.sum(axis=2)
    _, _, sq1, sq2 = _centroid_terms(grams, grams.sum(axis=2)[:, None, :], in2)
    # wss via the centroid identity; clamp round-off below zero
    trace = np.trace(grams, axis1=1, axis2=2)[:, None]
    wss = np.maximum(trace - (in2.shape[2] - n2) * sq1[..., 0] - n2 * sq2[..., 0], 0.0)
    best = np.argmin(wss, axis=1)
    elem = np.arange(len(grams))
    return in2[elem, best], wss[elem, best]


def two_means_ci(x: DataMatrix, restarts: int = 20, seed=None) -> ClusterSplit:
    """Best 2-means split over seeded restarts, by minimal cluster index.

    Each restart initializes the centroids at a distinct pair of
    observations drawn from the seeded generator, then iterates Lloyd
    updates until the labels stabilize (at most ``MAX_LLOYD_ITER`` sweeps).
    A point equidistant from both centroids keeps its current label, and an
    emptied cluster is refilled with the point farthest from the surviving
    centroid. The sweeps run in kernel form on the n-by-n Gram matrix of
    the centered observations, in the null's stacked kernel as a stack of
    one; the winning split is then scored directly from the data by
    :func:`cluster_index_for_labels`, which raises on degenerate data. The
    returned index is an upper bound on the global optimum and is
    deterministic given the seed.
    """
    if restarts < 1:
        raise InvalidConfigError("restarts must be >= 1")
    first, second = _start_pairs(x.n, restarts, as_generator(seed))
    in2, _ = _best_splits(_gram(x.values)[None], first[None], second[None])
    return cluster_index_for_labels(x, np.where(in2[0], 2, 1))


def two_means_exhaustive(x: DataMatrix) -> ClusterSplit:
    """Exact minimum-index bipartition by enumerating all 2^(n-1) - 1 splits.

    Observation 0 is pinned to cluster 1, so every nonempty bipartition is
    visited exactly once. Only feasible for n <= ``EXHAUSTIVE_MAX_N``.
    """
    n = x.n
    if n > EXHAUSTIVE_MAX_N:
        raise TooLargeError(
            f"exhaustive search needs n <= {EXHAUSTIVE_MAX_N}, got {n}"
        )
    # Work on grand-mean-centered columns; wss is translation invariant and
    # the sum formula below is better conditioned this way.
    xc = x.values - x.values.mean(axis=1, keepdims=True)
    total_sq = float((xc * xc).sum())
    s_all = xc.sum(axis=1)
    rest = xc[:, 1:].T  # (n-1, d)
    m = n - 1
    count = (1 << m) - 1
    bit_id = np.arange(m, dtype=np.uint32)

    best_wss = np.inf
    best_mask = 0
    for start in range(1, count + 1, _EXHAUSTIVE_CHUNK):
        masks = np.arange(start, min(start + _EXHAUSTIVE_CHUNK, count + 1), dtype=np.uint32)
        bits = ((masks[:, None] >> bit_id) & 1).astype(np.float64)  # 1 -> cluster 2
        n2 = bits.sum(axis=1)
        n1 = n - n2
        s2 = bits @ rest
        s1 = s_all[None, :] - s2
        wss = total_sq - (s1 * s1).sum(axis=1) / n1 - (s2 * s2).sum(axis=1) / n2
        k = int(np.argmin(wss))
        if wss[k] < best_wss:
            best_wss = float(wss[k])
            best_mask = int(masks[k])

    labels = np.ones(n, dtype=np.int64)
    labels[1:][((best_mask >> bit_id) & 1) == 1] = 2
    return cluster_index_for_labels(x, labels)


def theoretical_ci(eigenvalues) -> float:
    """Population cluster index of the optimally split centered Gaussian.

    For a Gaussian with covariance eigenvalues ``lam`` (all positive,
    descending), the best split is along the top eigendirection and the
    index equals ``1 - (2/pi) * lam_1 / sum(lam)``. The value depends only
    on the ratio of the top eigenvalue to the total variation, so it is
    scale invariant.
    """
    lam = np.asarray(eigenvalues, dtype=np.float64)
    if lam.ndim != 1 or lam.size == 0:
        raise InvalidDataError("eigenvalues must be a nonempty 1-d vector")
    if not np.all(np.isfinite(lam)) or np.any(lam <= 0):
        raise InvalidDataError("eigenvalues must be positive and finite")
    return float(1.0 - (2.0 / np.pi) * (lam.max() / lam.sum()))
