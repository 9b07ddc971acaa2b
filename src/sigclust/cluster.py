"""2-means clustering and the cluster-index test statistic.

The cluster index of a binary split is the within-cluster sum of squares
divided by the total sum of squares about the grand mean; small values
mean strong clustering. Lloyd-style 2-means with seeded restarts minimizes
the index approximately. One closed form relates the index to a
covariance eigenvalue spectrum: :func:`theoretical_ci`, the population
value of the optimal split of a centered Gaussian.

The index is invariant to location and rotation, so it depends on the data
only through the n-by-n Gram matrix ``G = XcᵀXc`` of the centered columns.
The 2-means search therefore runs as kernel k-means on ``G`` (Dhillon, Guan
and Kulis, KDD 2004): with ``w_k`` cluster k's indicator divided by its
size n_k, the margin ``G(w1 - w2) - (w1ᵀGw1 - w2ᵀGw2) / 2`` is the difference
of squared distances to the two centroids. Every term comes from the
product ``s = in2 @ G`` of the cluster-2 indicators with G, ``q = in2ᵀs``
and G's row sums t: ``G w2 = s / n2``, ``G w1 = (t - s) / n1``. Centring
makes t zero, so the margin is ``-n (s - θ) / (n1 n2)`` with
``θ = q (n1 - n2) / (2 n1 n2)``: point i joins cluster 2 iff ``s_i > θ``,
one threshold per restart. t is zero only up to round-off, and enters the
score alone, as computed: ``wss = tr G - n1 w1ᵀGw1 - n2 w2ᵀGw2`` with
``w1ᵀGw1 = (Σt - 2 Σs + q) / n1²`` and ``w2ᵀGw2 = q / n2²``. The kernel runs
on a stack of Gram matrices (one per null replication and arm, or the
observed statistic's one). Each restart still moving is one row, and a
sweep multiplies each element's rows by its G in one product; a restart
leaves in the sweep that stops it, scored from that sweep's s. The
observed statistic (float64) and the null replications (float32) share
this one kernel, which runs in the dtype of the Gram matrices it is given,
and both take wss from its centroid identity and tss as ``tr G``. A run
also takes its sample spectrum from the observed G when d > n.
:func:`cluster_index_for_labels` scores a given partition from the data
instead, where n may be too large for G.
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
)
from .linalg import DataMatrix, _centred, _centred_gram

MAX_LLOYD_ITER = 300
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
    centered = _centred(values)
    return float((centered * centered).sum())


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
    wss = sum(_tss(x.values[:, labels == k]) for k in (1, 2))
    return ClusterSplit(labels=labels, wss=wss, tss=tss, ci=wss / tss)


def _guard_duplicates(values: np.ndarray, gram: np.ndarray) -> np.ndarray:
    """``gram``, the ``_centred_gram`` of ``values``, with exact ties kept.

    BLAS may round the entries of two identical columns differently, which
    would break the exact ties between duplicate observations that the
    d-space algorithm sees. So every exact duplicate gets the Gram row and
    column of its first copy, in a new matrix; ``gram`` itself is returned
    when no two columns are equal.
    """
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


def _products(grams: np.ndarray, elem: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """``mask[i] @ grams[elem[i]]`` for each row i, one product per element
    over its rows; ``elem`` is sorted, so each element's rows are adjacent."""
    s = np.empty_like(mask)
    cuts = (np.flatnonzero(np.diff(elem)) + 1).tolist()
    for e, a, b in zip(elem[[0] + cuts].tolist(), [0] + cuts, cuts + [len(elem)]):
        np.matmul(mask[a:b], grams[e], out=s[a:b])
    return s


def _lloyd(grams: np.ndarray, first: np.ndarray, second: np.ndarray):
    """Cluster-2 memberships (M, R, n) and wss (M, R) of one Lloyd run per
    start pair. ``grams`` stacks M centred Gram matrices and ``first`` and
    ``second`` (M, R) hold each element's start pairs. Each (element,
    restart) still moving is one row, grouped by element; a sweep multiplies
    each element's rows by its Gram matrix once and labels them by their θ
    (module docstring), a point with ``s_i = θ`` keeping its label. A
    restart leaves in the sweep that finds its labels unchanged, scored from
    that sweep's s by the centroid identity, the one use of t; one still
    moving after ``MAX_LLOYD_ITER`` sweeps is refilled and scored in one
    more. The sweeps run in the Gram matrices' dtype (float32 in the null,
    float64 for the observed statistic); the trace and wss are float64.
    """
    m, r = first.shape
    n = grams.shape[1]
    diag = np.diagonal(grams, axis1=1, axis2=2)
    far = np.argmax(diag, axis=1)
    elem = np.arange(m)[:, None]
    # margin g > 0 means closer to centroid 1; initial ties go to cluster 1
    g = (grams[elem, first] - grams[elem, second]
         - 0.5 * (diag[elem, first] - diag[elem, second])[:, :, None])
    cur = (g < 0.0).reshape(m * r, n)
    in2 = np.empty((m * r, n), dtype=bool)
    # what the centroid identity needs of each restart's last sweep
    ssum, q_last, n2_last = (np.empty(m * r, dtype=grams.dtype) for _ in range(3))
    pos = np.arange(m * r)  # row of each restart in the outputs
    elem = pos // r
    for sweep in range(MAX_LLOYD_ITER + 1):  # the last one only scores
        mask = cur.astype(grams.dtype)
        n2 = mask.sum(axis=1, keepdims=True)
        if n2.min() == 0 or n2.max() == n:
            # An emptied cluster takes the point farthest from the surviving
            # centroid, which is then the grand mean: the point of largest G_ii.
            for size, fill, count in ((n, False, n - 1), (0, True, 1)):
                rows = np.flatnonzero(n2[:, 0] == size)
                cur[rows, far[elem[rows]]] = fill
                n2[rows] = count
            mask = cur.astype(grams.dtype)
        s = _products(grams, elem, mask)
        q = (mask * s).sum(axis=1, keepdims=True)
        theta = q * (n - 2.0 * n2) / (2.0 * (n - n2) * n2)
        new = s > theta
        new |= (s == theta) & cur  # ties keep their label
        moved = (new != cur).any(axis=1) & (sweep < MAX_LLOYD_ITER)
        stop = ~moved
        p = pos[stop]
        in2[p], ssum[p], q_last[p], n2_last[p] = (
            cur[stop], s[stop].sum(axis=1), q[stop, 0], n2[stop, 0])
        elem, pos, cur = elem[moved], pos[moved], new[moved]
        if not elem.size:
            break
    # wss via the centroid identity, in float64; clamp round-off below zero
    total = np.repeat(grams.sum(axis=2).sum(axis=1), r)  # Σt
    trace = np.repeat(np.trace(grams, axis1=1, axis2=2, dtype=np.float64), r)
    n1 = n - n2_last
    sq1 = (total - 2.0 * ssum + q_last) / (n1 * n1)
    sq2 = q_last / (n2_last * n2_last)
    n2 = n2_last.astype(np.float64)
    wss = np.maximum(trace - (n - n2) * sq1 - n2 * sq2, 0.0)
    return in2.reshape(m, r, n), wss.reshape(m, r)


def _best_splits(grams: np.ndarray, first: np.ndarray, second: np.ndarray):
    """Cluster-2 membership (M, n) and wss (M,) of each element's best
    restart; the first restart wins ties."""
    in2, wss = _lloyd(grams, first, second)
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
    centroid. The sweeps run in kernel form on the n-by-n Gram matrix G of
    the centered observations, in the null's kernel with this matrix as its
    only element, in float64, and the winner is scored as every null index
    is: ``tss = tr G`` and wss from the kernel's centroid identity
    ``tr G - n1 w1ᵀGw1 - n2 w2ᵀGw2``. That equals
    :func:`cluster_index_for_labels` on the data to absolute round-off, so
    an index far below 1 keeps fewer correct digits. A zero ``tss`` raises
    :class:`DegenerateDataError`. The clusters are named canonically:
    cluster 1 holds the first observation, so restarts that reach one
    partition with the names swapped give the same labels.
    The returned index is an upper bound on the global optimum and is
    deterministic given the seed.
    """
    if restarts < 1:
        raise InvalidConfigError("restarts must be >= 1")
    return _two_means(x, _centred_gram(x.values), restarts, seed)


def _two_means(x: DataMatrix, gram: np.ndarray, restarts: int, seed) -> ClusterSplit:
    """:func:`two_means_ci` of ``x`` given ``gram``, its ``_centred_gram``."""
    first, second = _start_pairs(x.n, restarts, as_generator(seed))
    gram = _guard_duplicates(x.values, gram)
    in2, wss = _best_splits(gram[None], first[None], second[None])
    labels = np.where(in2[0] != in2[0, 0], 2, 1)
    tss = float(np.trace(gram))
    if tss <= 0.0:
        raise DegenerateDataError("total sum of squares is zero; no cluster structure")
    wss = float(wss[0])
    return ClusterSplit(labels=labels, wss=wss, tss=tss, ci=wss / tss)


def theoretical_ci(eigenvalues) -> float:
    """Population cluster index of the optimally split centered Gaussian.

    For a Gaussian with covariance eigenvalues ``lam`` (finite and
    nonnegative with a positive sum, so zeros are allowed, as in a sample
    spectrum with d > n), the best split is along the top eigendirection
    and the index equals ``1 - (2/pi) * lam_1 / sum(lam)``. The value
    depends only on the ratio of the top eigenvalue to the total
    variation, so it is scale invariant.
    """
    lam = np.asarray(eigenvalues, dtype=np.float64)
    if lam.ndim != 1 or lam.size == 0:
        raise InvalidDataError("eigenvalues must be a nonempty 1-d vector")
    if not np.all(np.isfinite(lam)) or np.any(lam < 0) or lam.sum() <= 0:
        raise InvalidDataError("eigenvalues must be finite and nonnegative with positive sum")
    return float(1.0 - (2.0 / np.pi) * (lam.max() / lam.sum()))
