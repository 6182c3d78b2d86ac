"""Reproducible random streams.

All stochastic code in this package draws from Philox counter-based
generators keyed by an integer seed plus a substream path. Philox output
is platform-independent, and disjoint spawn keys give statistically
independent streams, so results are reproducible regardless of how work
is chunked or parallelized.
"""

from __future__ import annotations

import numpy as np

__all__ = ["substream", "standard_complex_normal", "chunks", "redraw", "RETRY_OFFSET", "MAX_REDRAW_ROUNDS"]

RETRY_OFFSET = 1_000_000
# A check that flags a fixed share p of draws leaves a chunk of 16,384 rows
# flagged after 64 rounds with probability below 1e-5 for p <= 0.7; a
# model that keeps failing past this is degenerate, not unlucky.
MAX_REDRAW_ROUNDS = 64


def substream(seed: int, *path: int) -> np.random.Generator:
    """Return a Philox generator for the substream identified by (seed, *path)."""
    seq = np.random.SeedSequence(entropy=seed, spawn_key=tuple(path))
    return np.random.Generator(np.random.Philox(seq))


def standard_complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    """Draw i.i.d. circularly-symmetric complex Gaussians with unit variance."""
    # Multiplying by 1/sqrt(2) is what numpy's complex-by-real division
    # does, so this single pass gives (re + 1j * im) / sqrt(2) bit for bit.
    out = np.empty(shape, dtype=complex)
    scale = 1.0 / np.sqrt(2.0)
    np.multiply(rng.standard_normal(shape), scale, out=out.real)
    np.multiply(rng.standard_normal(shape), scale, out=out.imag)
    return out


def chunks(seed: int, path: tuple, total: int, size: int):
    """Yield ``(key, start, n)`` for each chunk of ``total`` draws.

    Chunk k covers draws ``[k * size, k * size + n)`` and owns the substream
    ``substream(*key)`` with ``key = (seed, *path, k)``.
    """
    for k, start in enumerate(range(0, total, size)):
        yield (seed, *path, k), start, min(size, total - start)


def redraw(x: np.ndarray, bad: np.ndarray, draw, check, key: tuple, failure: str) -> int:
    """Replace the rows of x flagged by ``bad`` in place; return rows replaced.

    Round r draws every flagged row at once as ``draw(rng, count)`` from
    ``substream(*key, RETRY_OFFSET + r)``; ``check(rows)`` then flags the
    replacements that must go round again. Unflagged rows are not touched.
    Rows still flagged after ``MAX_REDRAW_ROUNDS`` rounds raise a ValueError
    that names the chunk key and ``failure``, what the check rejects.
    """
    idx = np.flatnonzero(bad)
    replaced = 0
    retry = 0
    while idx.size:
        if retry == MAX_REDRAW_ROUNDS:
            raise ValueError(f"chunk key {key}: {idx.size} draws still {failure} after {retry} redraw rounds")
        retry += 1
        replaced += idx.size
        x[idx] = draw(substream(*key, RETRY_OFFSET + retry), idx.size)
        idx = idx[check(x[idx])]
    return replaced
