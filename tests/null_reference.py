"""Slow reference for the engine's null Gram matrices: one stacked factor
per arm, centred and multiplied out on its own.

Each arm stacks the K shared leading rows, scaled by the square roots of
its leading eigenvalues, over its scaled bulk factor, and takes the
centred Gram matrix of that stack through ``cluster._gram``. The draws are
the engine's, call for call, so from the same generator state every arm's
Gram matrix equals ``engine._null_grams``' to round-off.
"""

import numpy as np

from sigclust.cluster import _gram
from sigclust.engine import _bulk_factor


def factors(plan, n, rng):
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
    out = []
    for head, floor in zip(heads, floors):
        rows, own_bulk = head[:k, None] * z, bulk
        if head.size > k:
            rng.bit_generator.state = shared_end
            rows = np.vstack([rows, head[k:, None] * rng.standard_normal((head.size - k, n))])
            own_bulk = _bulk_factor(rng, d - head.size, n)
        out.append(np.vstack([rows, np.sqrt(floor) * own_bulk]) if floor > 0.0 else rows)
    return out


def null_grams(plan, n, rng):
    """Centred Gram matrices (arms, n, n) of the stacked factors."""
    return np.array([_gram(f) for f in factors(plan, n, rng)])
