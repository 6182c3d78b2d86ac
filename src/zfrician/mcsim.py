"""Monte Carlo ZF link simulator.

Quasi-static model: every trial draws a fresh channel, an MPSK symbol per
stream, and white complex Gaussian noise with N0 = 1 (the symbol energy is
gamma_s * n_t, so budgets are unambiguous). The ZF detector maps each
output coordinate to the closest constellation point. For M-PSK that is a
sector test: a symbol is correct iff the output, rotated back by the sent
point, lies strictly inside the wedge |arg| < pi / M (``_in_sector``). An
output within a few ulps of a wedge edge may be decided otherwise than by
rounding its phase, and one exactly on an edge counts as an error. Trials
run in fixed-size chunks, each chunk on its own Philox substream, so
totals are reproducible and independent of how the work is split.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import gammainc

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

# A draw whose lower bound on lambda_min / lambda_max of W = H^H H exceeds
# _CERTIFY is far above RANK_TOL^2; only the rest need an SVD.
_CERTIFY = 1e-12

# Most draws per Gram-Schmidt block. A chunk runs as the fewest equal blocks
# under this cap: 5,000 draws as one block, 16,384 as three of 5,462. Timed
# from 2x2 to 12x6, three such blocks beat 2,048-draw blocks by 24-31% on a
# full chunk, and two of 8,192 by 2-6% at every shape but 2x2 (3% slower).
_QR_BLOCK = 6_144

# How the redraw error describes draws that keep failing the rank check.
_RANK_FAILURE = f"have sigma_min/sigma_max <= RANK_TOL = {schur.RANK_TOL:g}"


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


def _gram_schmidt(h: np.ndarray):
    """Factor every draw as H = QR by modified Gram-Schmidt, batch axis last.

    ``h`` has shape (n, n_r, n_t); returns ``q`` of shape (n_r, n_t, n) and
    ``r_inv`` = R^-1 of shape (n_t, n_t, n). R^-1 is built alongside Q as
    the column transform with Q = H R^-1. Python loops run over the n_t
    columns only; every step is vectorized over one of the fewest equal
    blocks of at most ``_QR_BLOCK`` draws. Each draw's arithmetic, and the
    order of every sum over the receive axis, is the same in any block, so
    the bytes do not depend on the cut. A rank-deficient draw gets
    non-finite entries, which the rank certificate rejects.
    """
    n, n_r, n_t = h.shape
    q = np.empty((n_r, n_t, n), dtype=complex)
    r_inv = np.zeros((n_t, n_t, n), dtype=complex)
    r_inv[np.arange(n_t), np.arange(n_t)] = 1.0
    size = -(-n // -(-n // _QR_BLOCK))  # ceil(n / number of blocks)
    buf = np.empty((max(n_r, n_t), n_t, size), dtype=complex)
    with np.errstate(divide="ignore", invalid="ignore"):
        for b in range(0, n, size):
            a, t = q[..., b : b + size], r_inv[..., b : b + size]
            a[...] = h[b : b + size].transpose(1, 2, 0)
            for j in range(n_t):
                col = a[:, j]
                r_jj = np.sqrt((col.real**2 + col.imag**2).sum(axis=0))
                col /= r_jj
                t[: j + 1, j] /= r_jj
                if j + 1 == n_t:
                    break
                # r_jk = q_j^H a_k, then a_k -= q_j r_jk and t_k -= t_j r_jk for k > j
                tmp = buf[:n_r, j + 1 :, : a.shape[-1]]
                np.multiply(col.conj()[:, None], a[:, j + 1 :], out=tmp)
                r_j = tmp.sum(axis=0)
                np.multiply(col[:, None], r_j, out=tmp)
                a[:, j + 1 :] -= tmp
                tmp = buf[: j + 1, j + 1 :, : a.shape[-1]]
                np.multiply(t[: j + 1, j, None], r_j, out=tmp)
                t[: j + 1, j + 1 :] -= tmp
    return q, r_inv


def _inv_diag(r_inv: np.ndarray) -> np.ndarray:
    """[W^-1]_ii = ||row i of R^-1||^2 per draw, shape (n_t, n).

    Sums squares of the float view (real and imaginary parts interleaved
    along the batch axis), so no complex temporary is formed.
    """
    v = r_inv.view(float)
    s = np.einsum("ikb,ikb->ib", v, v)
    return s[:, 0::2] + s[:, 1::2]


def _bad_draws(h: np.ndarray, r_inv: np.ndarray) -> np.ndarray:
    """Flag draws whose singular-value ratio is at most RANK_TOL; r_inv = R^-1 of H P = QR.

    lambda_min / lambda_max of W = H^H H is at least 1 / (tr W ||R^-1||_F^2),
    since lambda_max <= tr W and 1 / lambda_min = ||R^-1||_2^2, whatever the
    permutation P. Draws it certifies skip the SVD; the mask equals the SVD test.
    """
    hv = h.reshape(h.shape[0], -1).view(float)
    tr_w = np.einsum("bi,bi->b", hv, hv)
    certified = tr_w * _inv_diag(r_inv).sum(axis=0) < 1.0 / _CERTIFY
    bad = np.zeros(h.shape[0], dtype=bool)
    idx = np.flatnonzero(~certified)
    if idx.size:
        sv = np.linalg.svd(h[idx], compute_uv=False)
        bad[idx] = sv[:, -1] <= schur.RANK_TOL * sv[:, 0]
    return bad


def _zf_output(q: np.ndarray, r_inv: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """ZF-filtered noise z = W^-1 H^H n = R^-1 Q^H n per draw, shape (n, n_t).

    ``noise`` has shape (n, n_r). Q^H n is taken one column at a time, as
    if n were one more column of the Gram-Schmidt factor of H.
    """
    resid = noise.T.copy()
    proj = np.empty((q.shape[1], q.shape[2]), dtype=complex)
    for j in range(q.shape[1]):
        proj[j] = (q[:, j].conj() * resid).sum(axis=0)
        resid -= q[:, j] * proj[j]
    return np.einsum("ikb,kb->bi", r_inv, proj)


def _in_sector(u: np.ndarray, m: int) -> np.ndarray:
    """Whether each M-PSK symbol is decided correctly, given u = z conj(x) / sqrt(gamma_s).

    The output y = x (1 + u) is closest to x iff 1 + u lies in the wedge
    |arg| < pi / m: 1 + Re u > 0 and, for m > 2, |Im u| < tan(pi / m) (1 + Re u),
    which alone implies the first. A point on a wedge edge counts as an error.
    """
    if m == 2:
        return u.real > -1.0
    return np.abs(u.imag) < math.tan(math.pi / m) * (u.real + 1.0)


def _channel_chunks(model: ChannelModel, seed: int, space: int, total: int, order=slice(None)):
    """Yield ``(rng, start, h, q, r_inv)`` per chunk: full-rank draws and their factors.

    Each draw is ``h_d + G A^H`` with A the upper factor of r_tk, formed as
    one GEMM over the chunk; ``q`` and ``r_inv`` are the batch-last
    Gram-Schmidt factor (see ``_gram_schmidt``) of its columns in ``order``;
    the default order is a view, not a copy. Chunk k draws from
    ``substream(seed, space, k)``, which the caller keeps using;
    rank-deficient draws are redrawn from the chunk's retry substreams.
    """
    n_r, n_t = model.h_d.shape
    if n_t > n_r:  # every draw would be rank-deficient, yet the SVD test sees only n_r values
        raise ValueError(f"need n_t <= n_r for ZF, got n_r = {n_r}, n_t = {n_t}")
    a_h = schur.ul_decompose(model.r_tk).conj().T

    def draw(rng, n):
        g = standard_complex_normal(rng, (n * n_r, n_t))
        return model.h_d + (g @ a_h).reshape(n, n_r, n_t)

    def check(x):
        return _bad_draws(x, _gram_schmidt(x[:, :, order])[1])

    redraws = 0
    for key, start, n in chunks(seed, (space,), total, _CHUNK):
        rng = substream(*key)
        h = draw(rng, n)
        q, r_inv = _gram_schmidt(h[:, :, order])
        bad = _bad_draws(h, r_inv)
        if bad.any():
            redraws += redraw(h, bad, draw, check, key, _RANK_FAILURE)
            idx = np.flatnonzero(bad)
            q[..., idx], r_inv[..., idx] = _gram_schmidt(h[idx][:, :, order])
        yield rng, start, h, q, r_inv
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
    errors = np.zeros(n_t, dtype=np.int64)
    # conj(x) / sqrt(gamma_s) per symbol index
    rotation = np.exp(-2j * np.pi * np.arange(m) / m) / math.sqrt(budget.gamma_s)
    for rng, _, h, q, r_inv in _channel_chunks(model, seed, _SER_SPACE, trials):
        n = h.shape[0]
        sym_idx = rng.integers(0, m, size=(n, n_t))
        noise = standard_complex_normal(rng, (n, n_r))
        # The ZF output is y = x + z / sqrt(gamma_s) with z = W^-1 H^H n: the
        # received vector is sqrt(gamma_s) H x + n with unit noise power.
        u = _zf_output(q, r_inv, noise) * rotation[sym_idx]
        errors += n - np.count_nonzero(_in_sector(u, m), axis=0)
    ser = errors / trials
    ci = 3.0 * np.sqrt(ser * (1.0 - ser) / trials)
    return [SimResult(trials, int(e), float(s), float(c)) for e, s, c in zip(errors, ser, ci)]


def sample_snr(
    model: ChannelModel, budget: LinkBudget, count: int, seed: int
) -> list[SnrSamples]:
    """Draw post-detection SNRs gamma_i = gamma_s / [W^-1]_ii for every stream."""
    if count < 1_000:
        raise ValueError("need at least 1000 samples")
    values = np.empty((count, model.n_t))
    for _, start, h, _, r_inv in _channel_chunks(model, seed, _SNR_SPACE, count):
        values[start : start + h.shape[0]] = budget.gamma_s / _inv_diag(r_inv).T
    return [SnrSamples(stream=i + 1, values=values[:, i].copy()) for i in range(model.n_t)]


def sample_sc(model: ChannelModel, v: int, count: int, seed: int) -> np.ndarray:
    """Draw Schur-complement samples, shape (count, v, v).

    With ``[H2 H1] = QR`` (interfering columns first), the complement of the
    interfering block in ``W = H^H H`` is ``R11^H R11``, R11 the trailing
    v x v block of R. The chunk driver factors in that column order, so R11^-1
    is the trailing block of its R^-1, inverted here by back substitution.
    """
    if count < 1_000:
        raise ValueError("need at least 1000 samples")
    if not 1 <= v < model.n_t:
        raise ValueError("need 1 <= v < n_t")
    out = np.empty((count, v, v), dtype=complex)
    for _, start, h, _, r_inv in _channel_chunks(model, seed, _SC_SPACE, count, np.r_[v : model.n_t, :v]):
        t, r11 = r_inv[-v:, -v:], np.zeros((v, v, h.shape[0]), dtype=complex)
        for i in range(v - 1, -1, -1):  # row i of R11 = t^-1 is (e_i - t[i, i+1:] R11[i+1:]) / t_ii
            r11[i] = (np.eye(v)[i, :, None] - np.einsum("kb,kjb->jb", t[i, i + 1 :], r11[i + 1 :])) / t[i, i]
        sc = np.einsum("kib,kjb->bij", r11.conj(), r11)
        out[start : start + h.shape[0]] = 0.5 * (sc + sc.conj().transpose(0, 2, 1))
    return out


def ks_test_gamma(samples, dist: GammaSnrDist):
    """One-sample Kolmogorov-Smirnov test against a Gamma SNR law.

    Returns (statistic, critical_at_1pct, reject) using the asymptotic 1%
    critical value 1.63/sqrt(n). The statistic is max(D+, D-) over the
    sorted samples, formed as ``scipy.stats.kstest`` forms it; no p-value
    is computed.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.size < 100:
        raise ValueError("need at least 100 samples")
    x = np.sort(samples)
    n = x.size
    cdf = gammainc(dist.shape, np.maximum(x, 0.0) / dist.scale)  # the Gamma CDF, 0 for x <= 0
    d_plus = (np.arange(1.0, n + 1) / n - cdf).max()
    d_minus = (cdf - np.arange(0.0, n) / n).max()
    statistic = float(max(d_plus, d_minus))
    critical = 1.63 / math.sqrt(samples.size)
    return statistic, critical, statistic > critical
