"""Exact 2-means by brute force, the oracle for the restarted Lloyd search
in ``sigclust.cluster``.

It enumerates every bipartition, so its cost doubles with each observation;
the tests call it with n of at most a dozen or so.
"""

import numpy as np

from sigclust import cluster_index_for_labels


def two_means_exhaustive(x):
    """Exact minimum-index bipartition by enumerating all 2^(n-1) - 1 splits.

    Observation 0 is pinned to cluster 1, so every nonempty bipartition is
    visited exactly once; the first split in mask order wins ties.
    """
    n = x.n
    # Work on grand-mean-centered columns; wss is translation invariant and
    # the sum formula below is better conditioned this way.
    xc = x.values - x.values.mean(axis=1, keepdims=True)
    total_sq = float((xc * xc).sum())
    bit_id = np.arange(n - 1, dtype=np.uint32)
    masks = np.arange(1, 1 << (n - 1), dtype=np.uint32)
    bits = ((masks[:, None] >> bit_id) & 1).astype(np.float64)  # 1 -> cluster 2
    n2 = bits.sum(axis=1)
    s2 = bits @ xc[:, 1:].T
    s1 = xc.sum(axis=1)[None, :] - s2
    wss = total_sq - (s1 * s1).sum(axis=1) / (n - n2) - (s2 * s2).sum(axis=1) / n2
    best_mask = int(masks[np.argmin(wss)])

    labels = np.ones(n, dtype=np.int64)
    labels[1:][((best_mask >> bit_id) & 1) == 1] = 2
    return cluster_index_for_labels(x, labels)
