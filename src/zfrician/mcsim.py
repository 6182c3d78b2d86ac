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
from .rng import chunks, redraw, standard_complex_normal, substream
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

# A draw with det(W) > _CERTIFY * tr(W)^n_t has lambda_min / lambda_max of
# W = H^H H above _CERTIFY, far above RANK_TOL^2; only the rest need an SVD.
_CERTIFY = 1e-12


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


def _gramian(h: np.ndarray) -> np.ndarray:
    return h.conj().transpose(0, 2, 1) @ h


def _bad_draws(h: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Flag draws whose singular-value ratio is at most RANK_TOL; w = H^H H.

    Draws certified by det(W) / tr(W)^n_t skip the SVD; the mask equals the
    SVD test on every draw.
    """
    n_t = w.shape[-1]
    certified = np.linalg.det(w).real > _CERTIFY * np.einsum("bii->b", w).real ** n_t
    bad = np.zeros(h.shape[0], dtype=bool)
    idx = np.flatnonzero(~certified)
    if idx.size:
        sv = np.linalg.svd(h[idx], compute_uv=False)
        bad[idx] = sv[:, -1] <= schur.RANK_TOL * sv[:, 0]
    return bad


def _channel_chunks(model: ChannelModel, seed: int, space: int, total: int):
    """Yield ``(rng, start, h, w)`` per chunk: full-rank draws and their Gramians.

    Each draw is ``h_d + G A^H`` with A the upper factor of r_tk, formed as
    one GEMM over the chunk. Chunk k draws from ``substream(seed, space, k)``,
    which the caller keeps using; rank-deficient draws are redrawn from the
    chunk's retry substreams.
    """
    a_h = schur.ul_decompose(model.r_tk).a.conj().T
    n_r, n_t = model.h_d.shape

    def draw(rng, n):
        g = standard_complex_normal(rng, (n * n_r, n_t))
        return model.h_d + (g @ a_h).reshape(n, n_r, n_t)

    redraws = 0
    for key, start, n in chunks(seed, (space,), total, _CHUNK):
        rng = substream(*key)
        h = draw(rng, n)
        w = _gramian(h)
        bad = _bad_draws(h, w)
        if bad.any():
            redraws += redraw(h, bad, draw, lambda x: _bad_draws(x, _gramian(x)), key)
            w = _gramian(h)
        yield rng, start, h, w
    if redraws > 0.001 * total:
        warnings.warn(f"{redraws} rank-deficient channel redraws in {total} trials")


def simulate_ser(
    model: ChannelModel, budget: LinkBudget, m: int, trials: int, seed: int
) -> list[SimResult]:
    """Simulate ZF detection; returns one SimResult per stream (index 0 = stream 1)."""
    if trials < 1_000:
        raise ValueError("need at least 1000 trials")
    if m < 2 or m & (m - 1):
        raise ValueError("constellation order must be a power of two >= 2")
    n_r, n_t = model.h_d.shape
    sqrt_gs = math.sqrt(budget.gamma_s)
    errors = np.zeros(n_t, dtype=np.int64)
    for rng, _, h, w in _channel_chunks(model, seed, _SER_SPACE, trials):
        n = h.shape[0]
        sym_idx = rng.integers(0, m, size=(n, n_t))
        noise = standard_complex_normal(rng, (n, n_r))
        x = np.exp(2j * np.pi * sym_idx / m)
        # y = x + W^-1 H^H n / sqrt(gamma_s): the received vector is
        # sqrt(gamma_s) H x + n with unit noise power.
        z = np.linalg.solve(w, (h.conj().transpose(0, 2, 1) @ noise[:, :, None]))[:, :, 0]
        y = x + z / sqrt_gs
        det_idx = np.mod(np.rint(np.angle(y) * m / (2.0 * np.pi)), m).astype(np.int64)
        errors += (det_idx != sym_idx).sum(axis=0)
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
    values = np.empty((count, model.n_t))
    for _, start, h, w in _channel_chunks(model, seed, _SNR_SPACE, count):
        inv_diag = np.einsum("bii->bi", np.linalg.inv(w)).real
        values[start : start + h.shape[0]] = budget.gamma_s / inv_diag
    return [SnrSamples(stream=i + 1, values=values[:, i].copy()) for i in range(model.n_t)]


def sample_sc(model: ChannelModel, v: int, count: int, seed: int) -> np.ndarray:
    """Draw Schur-complement samples, shape (count, v, v).

    With ``[H2 H1] = QR`` (interfering columns first), the complement of the
    interfering block in ``W = H^H H`` is ``R11^H R11``, R11 the trailing
    v x v block of R; ``schur.gramian_and_sc`` is the per-draw oracle.
    """
    if count < 1_000:
        raise ValueError("need at least 1000 samples")
    if not 1 <= v < model.n_t:
        raise ValueError("need 1 <= v < n_t")
    out = np.empty((count, v, v), dtype=complex)
    for _, start, h, _ in _channel_chunks(model, seed, _SC_SPACE, count):
        r11 = np.linalg.qr(np.concatenate([h[:, :, v:], h[:, :, :v]], axis=2), mode="r")[:, -v:, -v:]
        sc = r11.conj().transpose(0, 2, 1) @ r11
        out[start : start + h.shape[0]] = 0.5 * (sc + sc.conj().transpose(0, 2, 1))
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
