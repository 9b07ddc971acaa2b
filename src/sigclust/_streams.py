"""Deterministic random-stream derivation shared by the engine and harness.

Every stream is keyed through a ``SeedSequence`` built from the master
seed plus a spawn key of (domain tag, index...), so streams of different
keys are independent whatever the bit generator. Serial and parallel
execution therefore draw bit-identical numbers for a given master seed,
regardless of how work is distributed across workers. Each null
replication draws from one SFC64 generator (``null_generator``), whose
normals cost less than Philox's; the observed statistic and the scenario
data draw from Philox (``as_generator``).
"""

from __future__ import annotations

import numpy as np

# Domain tags keep independent stream families from colliding.
NULL_REP = 0  # per-replication null draws and their k-means seeds
OBSERVED = 1  # k-means restarts for the observed statistic
SCENARIO_DATA = 2  # per-rep scenario data generation
SCENARIO_TEST = 3  # per-rep master seeds handed to the engine


def stream(master_seed: int, domain: int, *index: int) -> np.random.SeedSequence:
    """SeedSequence for (master_seed, domain, index...)."""
    return np.random.SeedSequence(master_seed, spawn_key=(domain, *index))


def as_generator(seed) -> np.random.Generator:
    """Coerce ints, SeedSequences, Generators, or None into a Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    return np.random.Generator(np.random.Philox(seed))


def null_generator(master_seed: int, rep: int) -> np.random.Generator:
    """Null replication ``rep``'s one generator: SFC64 on the stream keyed
    by (master_seed, NULL_REP, rep)."""
    return np.random.Generator(np.random.SFC64(stream(master_seed, NULL_REP, rep)))


def seed_int(seq: np.random.SeedSequence) -> int:
    """Collapse a SeedSequence into a reproducible 64-bit integer seed."""
    return int(seq.generate_state(1, np.uint64)[0])
