"""Slow reference for the engine's null Gram matrices: one stacked factor
per arm, centred and multiplied out on its own.

Each arm stacks the K shared leading rows, scaled by the square roots of
its leading eigenvalues, over its scaled bulk factor, and takes the
centred Gram matrix of that stack through ``lloyd_reference.gram``. The draws are
the engine's, call for call, so from the same generator state every arm's
Gram matrix equals ``engine._null_grams``' to round-off.

``out_of_place_grams`` is ``engine._null_grams`` before its products were
written into the output stack in place; the two agree bit for bit.
"""

import numpy as np

from lloyd_reference import gram
from sigclust.engine import _bulk_factor
from sigclust.linalg import _centred


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
    return np.array([gram(f) for f in factors(plan, n, rng)])


def out_of_place_grams(plan, n, rng, out):
    """The engine's ``_null_grams`` as it was before the products were
    written in place: each arm's Gram matrix formed as ``rows.T @ rows +
    floor * own_gram`` and then copied into ``out``, with the same draws in
    the same order. The plan's heads are cast to ``out``'s dtype here."""
    d, k, heads, floors = plan
    dtype = out.dtype
    zc = _centred(rng.standard_normal((k, n), dtype=dtype))
    bulk = _centred(_bulk_factor(rng, d - k, n, dtype))
    shared_end = rng.bit_generator.state
    bulk_gram = bulk.T @ bulk
    for e, (head, floor) in enumerate(zip(heads, floors)):
        head = head.astype(dtype, copy=False)
        rows, own_gram = head[:k, None] * zc, bulk_gram
        if head.size > k:
            rng.bit_generator.state = shared_end
            extra = _centred(rng.standard_normal((head.size - k, n), dtype=dtype))
            rows = np.vstack([rows, head[k:, None] * extra])
            own = _centred(_bulk_factor(rng, d - head.size, n, dtype))
            own_gram = own.T @ own
        out[e] = rows.T @ rows + floor * own_gram
