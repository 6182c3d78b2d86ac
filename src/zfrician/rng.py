"""Reproducible random streams.

All stochastic code in this package draws from Philox counter-based
generators keyed by an integer seed plus a substream path. Philox output
is platform-independent, and disjoint spawn keys give statistically
independent streams, so results are reproducible regardless of how work
is chunked or parallelized.
"""

from __future__ import annotations

import numpy as np

__all__ = ["substream", "standard_complex_normal"]


def substream(seed: int, *path: int) -> np.random.Generator:
    """Return a Philox generator for the substream identified by (seed, *path)."""
    seq = np.random.SeedSequence(entropy=seed, spawn_key=tuple(path))
    return np.random.Generator(np.random.Philox(seq))


def standard_complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    """Draw i.i.d. circularly-symmetric complex Gaussians with unit variance."""
    re = rng.standard_normal(shape)
    im = rng.standard_normal(shape)
    return (re + 1j * im) / np.sqrt(2.0)
