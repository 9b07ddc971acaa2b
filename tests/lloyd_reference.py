"""Two references for the Gram-form kernel in ``sigclust.cluster``.

The original d-space Lloyd 2-means runs one restart at a time on the raw
d-by-n values: seeded distinct-pair starts, initial ties to cluster 1,
later ties keep their label, an emptied cluster refilled with the point
farthest from the grand mean, and at most
``sigclust.cluster.MAX_LLOYD_ITER`` sweeps per restart (read at call time,
so tests can patch the cap).

``margin_lloyd`` is the batched Gram-form kernel as it was before its
label rule became one threshold per restart: each sweep forms every
point's margin between the two centroids from the centroid terms, the
Gram matrices' row sums included.
"""

import numpy as np

from sigclust import cluster
from sigclust.linalg import _centred_gram


def _assign(values, c1, c2, current):
    # Signed margin between squared distances: g > 0 means closer to c1.
    g = (c1 - c2) @ values - 0.5 * (c1 @ c1 - c2 @ c2)
    if current is None:
        return np.where(g >= 0.0, 1, 2)  # initial ties go to cluster 1
    return np.where(g > 0.0, 1, np.where(g < 0.0, 2, current))  # ties keep labels


def _centroids(values, labels, row_total):
    mask2 = (labels == 2).astype(np.float64)
    n2 = mask2.sum()
    s2 = values @ mask2
    c1 = (row_total - s2) / (values.shape[1] - n2)
    c2 = s2 / n2
    return c1, c2, n2


def _repair_empty(values, labels, row_total):
    # An emptied cluster is refilled with the point farthest from the
    # surviving centroid (which is then the grand mean).
    n = values.shape[1]
    for k in (1, 2):
        if not np.any(labels == k):
            centroid = row_total / n
            dist = ((values - centroid[:, None]) ** 2).sum(axis=0)
            labels = labels.copy()
            labels[int(np.argmax(dist))] = k
    return labels


def lloyd(values, rng, row_total):
    """One seeded Lloyd run: labels with both clusters nonempty, and the
    number of the sweep that left them unchanged (None if no sweep within
    the cap did)."""
    n = values.shape[1]
    i = int(rng.integers(n))
    j = int(rng.integers(n - 1))
    if j >= i:
        j += 1  # uniform distinct pair of initial observations
    labels = _assign(values, values[:, i], values[:, j], current=None)
    for sweep in range(1, cluster.MAX_LLOYD_ITER + 1):
        labels = _repair_empty(values, labels, row_total)
        c1, c2, _ = _centroids(values, labels, row_total)
        new = _assign(values, c1, c2, current=labels)
        if np.array_equal(new, labels):
            return labels, sweep
        labels = new
    return _repair_empty(values, labels, row_total), None


def restart_sweeps(values, restarts, rng):
    """The converging sweep of each seeded restart (None if capped), in
    restart order."""
    row_total = values.sum(axis=1)
    return [lloyd(values, rng, row_total)[1] for _ in range(restarts)]


def restart_results(values, restarts, rng):
    """(labels, wss) of each seeded restart, in restart order."""
    n = values.shape[1]
    row_total = values.sum(axis=1)
    # The centroid identity is translation-invariant, but on raw values it
    # loses about (|mean| / spread)^2 * eps to cancellation; it is scored on
    # the values centred about the grand mean.
    centred = values - row_total[:, None] / n
    centred_total = centred.sum(axis=1)
    total_sq = float((centred * centred).sum())
    out = []
    for _ in range(restarts):
        labels, _ = lloyd(values, rng, row_total)
        c1, c2, n2 = _centroids(centred, labels, centred_total)
        # wss via the centroid identity; clamp round-off below zero
        wss = max(total_sq - (n - n2) * float(c1 @ c1) - n2 * float(c2 @ c2), 0.0)
        out.append((labels, wss))
    return out


def best_split(values, restarts, rng):
    """Labels and wss of the first restart with the smallest wss."""
    best_labels, best_wss = None, np.inf
    for labels, wss in restart_results(values, restarts, rng):
        if wss < best_wss:
            best_labels, best_wss = labels, wss
    return best_labels, best_wss


def gram(values):
    """Gram matrix ``XcᵀXc`` of the grand-mean-centred columns (n by n), with
    exact duplicate columns tied as the observed statistic ties them."""
    return cluster._guard_duplicates(values, _centred_gram(values))


def _refill_empty(in2, far):
    # An emptied cluster takes the point farthest from the surviving
    # centroid, which is then the grand mean: the point of largest G_ii.
    n2 = in2.sum(axis=1)
    for size, fill in ((in2.shape[1], False), (0, True)):
        rows = np.flatnonzero(n2 == size)
        in2[rows, far[rows]] = fill


def centroid_terms(grams, rowsums, elem, in2):
    """``G w1``, ``G w2`` (L, n) and ``w1ᵀG w1``, ``w2ᵀG w2`` (L, 1).

    Row i of ``in2`` (L, n) marks cluster 2 of a restart of element
    ``elem[i]``, whose Gram matrix is ``grams[elem[i]]`` with row sums t
    ``rowsums[elem[i]]``; cluster k's centroid is ``Xc @ w_k`` with ``w_k``
    its indicator divided by its size ``n_k``. One product ``s = in2 @ G``
    per row gives every term, as G is symmetric: with ``q = in2ᵀs`` and
    ``in2ᵀt = 1ᵀs``, ``G w2 = s / n2``, ``G w1 = (t - s) / n1``,
    ``w2ᵀG w2 = q / n2²`` and ``w1ᵀG w1 = (Σt - 2 in2ᵀt + q) / n1²``.
    """
    mask = in2.astype(grams.dtype)
    s = cluster._products(grams, elem, mask)
    n2 = mask.sum(axis=1, keepdims=True)
    n1 = in2.shape[1] - n2
    q = (mask * s).sum(axis=1, keepdims=True)
    t = rowsums[elem]
    sq1 = (t.sum(axis=1, keepdims=True) - 2.0 * s.sum(axis=1, keepdims=True) + q) / (n1 * n1)
    return (t - s) / n1, s / n2, sq1, q / (n2 * n2)


def margin_lloyd(grams, first, second):
    """The Gram-form kernel in its margin form: memberships (M, R, n) and
    wss (M, R) as ``sigclust.cluster._lloyd`` returns them.

    Each sweep forms the margin ``G w1 - G w2 - (w1ᵀG w1 - w2ᵀG w2) / 2``
    of every point from the centroid terms, row sums t included, and a
    point joins cluster 2 where it is negative; ties keep their label. A
    restart that stops is scored from that sweep's terms by the centroid
    identity, as the kernel scores it.
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
    in2, wss = np.empty((m, r, n), dtype=bool), np.empty((m, r))
    rowsums, trace = grams.sum(axis=2), np.trace(grams, axis1=1, axis2=2, dtype=np.float64)
    elem, restart = np.divmod(np.arange(m * r), r)
    for sweep in range(cluster.MAX_LLOYD_ITER + 1):  # the last one only scores
        _refill_empty(cur, far[elem])
        gw1, gw2, sq1, sq2 = centroid_terms(grams, rowsums, elem, cur)
        g = gw1 - gw2 - 0.5 * (sq1 - sq2)
        new = (g < 0.0) | ((g == 0.0) & cur)  # ties keep their label
        moved = (new != cur).any(axis=1) & (sweep < cluster.MAX_LLOYD_ITER)
        stop = ~moved
        e, k, n2 = elem[stop], restart[stop], cur[stop].sum(axis=1)
        in2[e, k] = cur[stop]
        # wss via the centroid identity; clamp round-off below zero
        wss[e, k] = np.maximum(trace[e] - (n - n2) * sq1[stop, 0] - n2 * sq2[stop, 0], 0.0)
        elem, restart, cur = elem[moved], restart[moved], new[moved]
        if not elem.size:
            break
    return in2, wss
