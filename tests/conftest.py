"""Shared builders for randomized model tests."""

import numpy as np
import pytest

from zfrician import mcsim
from zfrician.channel import ChannelModel, channel_from_parts
from zfrician.schur import schur_complement

# Substream namespace for test channel draws; the simulator's samplers use 1-3.
_TEST_SPACE = 0


def random_corr(rng: np.random.Generator, n_t: int, diag_load: float = 0.5) -> np.ndarray:
    """Random Hermitian positive-definite correlation with trace n_t."""
    a = (rng.standard_normal((n_t, n_t)) + 1j * rng.standard_normal((n_t, n_t))) / np.sqrt(2)
    r = a @ a.conj().T + diag_load * np.eye(n_t)
    r *= n_t / np.trace(r).real
    return r


def random_mean(rng: np.random.Generator, n_r: int, n_t: int) -> np.ndarray:
    return (rng.standard_normal((n_r, n_t)) + 1j * rng.standard_normal((n_r, n_t))) / np.sqrt(2)


def random_model(
    rng: np.random.Generator,
    n_r: int = 4,
    n_t: int = 3,
    k: float | None = None,
    condition: bool | None = None,
    v: int = 1,
    perturb: float = 0.0,
) -> ChannelModel:
    """Random channel model; condition=True manufactures the aligned mean.

    ``perturb`` adds a relative perturbation to the intended mean block
    after alignment (used to step off the condition manifold).
    """
    if k is None:
        k = float(rng.uniform(1.0, 10.0))
    r_t = random_corr(rng, n_t)
    mean = random_mean(rng, n_r, n_t)
    if condition:
        r_cond, _ = schur_complement(r_t / (k + 1.0), v)
        mean[:, :v] = mean[:, v:] @ r_cond
        if perturb:
            e = random_mean(rng, n_r, v)
            scale = np.linalg.norm(mean[:, :v])
            if scale < 1e-9:
                scale = 1.0
            mean[:, :v] += perturb * scale * e / np.linalg.norm(e)
    return channel_from_parts(r_t, mean, k)


def draw_channels(model: ChannelModel, count: int, seed: int) -> np.ndarray:
    """``count`` full-rank channel draws from the simulator's sampler, shape (count, n_r, n_t)."""
    return np.concatenate([h for _, _, h, _ in mcsim._channel_chunks(model, seed, _TEST_SPACE, count)])


@pytest.fixture
def rng():
    return np.random.default_rng(20240901)
