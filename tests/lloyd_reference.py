"""The original d-space Lloyd 2-means, kept as the reference for the
Gram-form kernel in ``sigclust.cluster``.

It runs one restart at a time on the raw d-by-n values: seeded distinct-pair
starts, initial ties to cluster 1, later ties keep their label, an emptied
cluster refilled with the point farthest from the grand mean, and at most
``sigclust.cluster.MAX_LLOYD_ITER`` sweeps per restart (read at call time,
so tests can patch the cap).
"""

import numpy as np

from sigclust import cluster


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
