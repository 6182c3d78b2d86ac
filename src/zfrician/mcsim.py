"""Monte Carlo ZF link simulator.

Quasi-static model: every trial draws a fresh channel, an MPSK symbol per
stream, and white complex Gaussian noise with N0 = 1 (the symbol energy is
gamma_s * n_t, so budgets are unambiguous). The ZF detector maps each
output coordinate to the closest constellation point, which for PSK is the
phase-nearest point. Trials run in fixed-size chunks, each chunk on its
own Philox substream, so totals are reproducible and independent of how
the work is split.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import stats

from . import schur
from .channel import ChannelModel, LinkBudget
from .rng import standard_complex_normal, substream
from .snrdist import GammaSnrDist

__all__ = [
    "SimResult",
    "SnrSamples",
    "simulate_ser",
    "sample_snr",
    "sample_sc",
    "ks_test_gamma",
]

_CHUNK = 16_384

# Substream namespaces (first path element) so the three samplers never
# share draws even under a common seed.
_SER_SPACE = 1
_SNR_SPACE = 2
_SC_SPACE = 3
_RETRY_OFFSET = 1_000_000


@dataclass(frozen=True)
class SimResult:
    """Per-stream symbol-error count with a 3-sigma binomial half-width."""

    trials: int
    errors: int
    ser: float
    ci_halfwidth_3sigma: float


@dataclass
class SnrSamples:
    """Empirical post-detection SNR draws for one stream (1-based)."""

    stream: int
    values: np.ndarray


def _chunk_channels(model: ChannelModel, a_h: np.ndarray, rng, n: int) -> np.ndarray:
    n_r, n_t = model.h_d.shape
    g = standard_complex_normal(rng, (n, n_r, n_t))
    return model.h_d + g @ a_h


def _bad_draws(h: np.ndarray) -> np.ndarray:
    sv = np.linalg.svd(h, compute_uv=False)
    return sv[:, -1] <= schur.RANK_TOL * sv[:, 0]


def _redraw(model, a_h, seed, space, chunk_idx, h, bad_mask, redraw_counter):
    """Replace rank-deficient draws deterministically; returns total redraws."""
    retry = 0
    while bad_mask.any():
        retry += 1
        redraw_counter += int(bad_mask.sum())
        rng = substream(seed, space, chunk_idx, _RETRY_OFFSET + retry)
        fresh = _chunk_channels(model, a_h, rng, int(bad_mask.sum()))
        h[bad_mask] = fresh
        bad = _bad_draws(h[bad_mask])
        new_mask = np.zeros_like(bad_mask)
        new_mask[np.flatnonzero(bad_mask)[bad]] = True
        bad_mask = new_mask
    return redraw_counter


def _warn_redraws(redraws: int, trials: int) -> None:
    if redraws > 0.001 * trials:
        warnings.warn(f"{redraws} rank-deficient channel redraws in {trials} trials")


def simulate_ser(
    model: ChannelModel, budget: LinkBudget, m: int, trials: int, seed: int
) -> list[SimResult]:
    """Simulate ZF detection; returns one SimResult per stream (index 0 = stream 1)."""
    if trials < 1_000:
        raise ValueError("need at least 1000 trials")
    if m < 2 or m & (m - 1):
        raise ValueError("constellation order must be a power of two >= 2")
    a_h = schur.ul_decompose(model.r_tk).a.conj().T
    n_r, n_t = model.h_d.shape
    sqrt_gs = math.sqrt(budget.gamma_s)
    errors = np.zeros(n_t, dtype=np.int64)
    redraws = 0
    done = 0
    chunk_idx = 0
    while done < trials:
        n = min(_CHUNK, trials - done)
        rng = substream(seed, _SER_SPACE, chunk_idx)
        h = _chunk_channels(model, a_h, rng, n)
        sym_idx = rng.integers(0, m, size=(n, n_t))
        noise = standard_complex_normal(rng, (n, n_r))
        bad = _bad_draws(h)
        if bad.any():
            redraws = _redraw(model, a_h, seed, _SER_SPACE, chunk_idx, h, bad, redraws)
        x = np.exp(2j * np.pi * sym_idx / m)
        # y = x + W^-1 H^H n / sqrt(gamma_s): the received vector is
        # sqrt(gamma_s) H x + n with unit noise power.
        hh = h.conj().transpose(0, 2, 1)
        w = hh @ h
        z = np.linalg.solve(w, (hh @ noise[:, :, None]))[:, :, 0]
        y = x + z / sqrt_gs
        det_idx = np.mod(np.rint(np.angle(y) * m / (2.0 * np.pi)), m).astype(np.int64)
        errors += (det_idx != sym_idx).sum(axis=0)
        done += n
        chunk_idx += 1
    _warn_redraws(redraws, trials)
    out = []
    for i in range(n_t):
        ser = errors[i] / trials
        ci = 3.0 * math.sqrt(ser * (1.0 - ser) / trials)
        out.append(SimResult(trials=trials, errors=int(errors[i]), ser=float(ser), ci_halfwidth_3sigma=ci))
    return out


def sample_snr(
    model: ChannelModel, budget: LinkBudget, count: int, seed: int
) -> list[SnrSamples]:
    """Draw post-detection SNRs gamma_i = gamma_s / [W^-1]_ii for every stream."""
    if count < 1_000:
        raise ValueError("need at least 1000 samples")
    a_h = schur.ul_decompose(model.r_tk).a.conj().T
    n_t = model.n_t
    values = np.empty((count, n_t))
    redraws = 0
    done = 0
    chunk_idx = 0
    while done < count:
        n = min(_CHUNK, count - done)
        rng = substream(seed, _SNR_SPACE, chunk_idx)
        h = _chunk_channels(model, a_h, rng, n)
        bad = _bad_draws(h)
        if bad.any():
            redraws = _redraw(model, a_h, seed, _SNR_SPACE, chunk_idx, h, bad, redraws)
        w = h.conj().transpose(0, 2, 1) @ h
        inv_diag = np.einsum("bii->bi", np.linalg.inv(w)).real
        values[done : done + n] = budget.gamma_s / inv_diag
        done += n
        chunk_idx += 1
    _warn_redraws(redraws, count)
    return [SnrSamples(stream=i + 1, values=values[:, i].copy()) for i in range(n_t)]


def sample_sc(model: ChannelModel, v: int, count: int, seed: int) -> np.ndarray:
    """Draw Schur-complement samples, shape (count, v, v)."""
    if count < 1_000:
        raise ValueError("need at least 1000 samples")
    a_h = schur.ul_decompose(model.r_tk).a.conj().T
    out = np.empty((count, v, v), dtype=complex)
    redraws = 0
    done = 0
    chunk_idx = 0
    while done < count:
        n = min(_CHUNK, count - done)
        rng = substream(seed, _SC_SPACE, chunk_idx)
        h = _chunk_channels(model, a_h, rng, n)
        for k in range(n):
            retry = 0
            while True:
                try:
                    gamma1 = schur.gramian_and_sc(h[k], v)
                    break
                except np.linalg.LinAlgError:
                    retry += 1
                    redraws += 1
                    rng_r = substream(seed, _SC_SPACE, chunk_idx, _RETRY_OFFSET + retry, k)
                    h[k] = _chunk_channels(model, a_h, rng_r, 1)[0]
            out[done + k] = gamma1
        done += n
        chunk_idx += 1
    _warn_redraws(redraws, count)
    return out


def ks_test_gamma(samples, dist: GammaSnrDist):
    """One-sample Kolmogorov-Smirnov test against a Gamma SNR law.

    Returns (statistic, critical_at_1pct, reject) using the asymptotic 1%
    critical value 1.63/sqrt(n).
    """
    samples = np.asarray(samples, dtype=float)
    if samples.size < 100:
        raise ValueError("need at least 100 samples")
    cdf = stats.gamma(a=dist.shape, scale=dist.scale).cdf
    statistic = float(stats.kstest(samples, cdf).statistic)
    critical = 1.63 / math.sqrt(samples.size)
    return statistic, critical, statistic > critical
