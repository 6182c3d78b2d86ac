"""ZF SNR and Schur-complement distribution objects.

Under the mean-correlation condition the per-stream ZF SNR is exactly
Gamma with shape ``n = n_r - n_t + 1`` and scale ``gamma_s`` divided by the
corresponding diagonal entry of the inverse transmit covariance; the
mean-matched virtual model gives the same form with the virtual scale
matrix. For a Rician intended stream against zero-mean interferers the
stream-1 m.g.f. is available both as a confluent-series form and as a
determinantal form, and the matrix Schur complement has a closed m.g.f.
in terms of 0F0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import hypergeom, schur
from .channel import ChannelModel, SystemDims
from .hypergeom import EigenSpectrum, cluster_spectrum

__all__ = [
    "GammaSnrDist",
    "Rank1MgfParams",
    "exact_gamma_snr",
    "virtual_gamma_snr",
    "mgf_gamma",
    "rank1_params",
    "mgf_gamma1_series",
    "mgf_gamma1_det",
    "mgf_sc_conditional",
    "mgf_sc_rician_rayleigh",
]


@dataclass(frozen=True)
class GammaSnrDist:
    """Gamma SNR law: shape is the diversity order, scale the average per branch."""

    shape: int
    scale: float | np.ndarray  # an array holds one scale per average SNR
    kind: str  # "exact" | "virtual"

    def __post_init__(self):
        if not np.all(np.asarray(self.scale) > 0):
            raise ValueError("scale must be positive")
        if self.kind not in ("exact", "virtual"):
            raise ValueError("kind must be 'exact' or 'virtual'")

    @property
    def mean(self) -> float:
        return self.shape * self.scale


@dataclass(frozen=True)
class Rank1MgfParams:
    """Inputs of the stream-1 m.g.f. for a Rician stream over Rayleigh interference.

    ``alpha`` is the conditional-mean power seen through the inverse
    conditional variance; it vanishes exactly when the mean offset does.
    ``gamma_k1`` may be a 1-D array, one entry per average SNR.
    """

    gamma_k1: float | np.ndarray
    alpha: float
    n: int
    n_r: int
    n_t: int

    def __post_init__(self):
        if not np.all(np.asarray(self.gamma_k1) > 0):
            raise ValueError("gamma_k1 must be positive")
        if self.alpha < 0:
            raise ValueError("alpha must be nonnegative")
        if self.n != self.n_r - self.n_t + 1:
            raise ValueError("n must equal n_r - n_t + 1")


def _inv_diag_entry(mat: np.ndarray, i: int) -> float:
    try:
        inv = np.linalg.inv(mat)
    except np.linalg.LinAlgError:
        raise np.linalg.LinAlgError("correlation matrix singular") from None
    return float(inv[i, i].real)


def _per_snr(gamma_s):
    """A scalar stays a float; a 1-D array of average SNRs stays an array."""
    g = np.asarray(gamma_s, dtype=float)
    if g.ndim > 1:
        raise ValueError("gamma_s must be a scalar or a 1-D array")
    return g if g.ndim else float(g)


def exact_gamma_snr(model: ChannelModel, stream: int, gamma_s, v: int | None = None) -> GammaSnrDist:
    """Exact Gamma SNR law for one stream (streams are 1-based).

    Valid when the mean-correlation condition holds for a partition whose
    intended block contains the stream; verifying that (via
    schur.check_condition) is the caller's responsibility. For a Rician
    model the partition size ``v`` must be stated and cover the stream: the
    Gamma law is proven only for the intended block, so extrapolating past
    it is refused. Rayleigh-only models (K = 0 or zero mean) accept every
    stream.

    The scale is computed as gamma_s / [r_t^-1]_ii / (K+1), which keeps the
    identity scale(K) * (K+1) = scale(0) at machine precision. ``gamma_s``
    may be a 1-D array: the inverse is taken once and each scale is formed
    elementwise in that order, so it equals the scalar call's bit for bit.
    """
    n_t = model.n_t
    if not 1 <= stream <= n_t:
        raise ValueError("stream out of range")
    rician = model.k_factor != 0.0 and np.linalg.norm(model.h_d) > 0.0
    if rician:
        if v is None:
            raise ValueError("Rician model: state the partition size v the condition was checked for")
        if stream > v:
            raise ValueError("no exact Gamma law beyond the intended block under Rician fading")
    shape = model.n_r - n_t + 1
    gamma_0 = _per_snr(gamma_s) / _inv_diag_entry(model.r_t, stream - 1)
    return GammaSnrDist(shape=shape, scale=gamma_0 / (model.k_factor + 1.0), kind="exact")


def virtual_gamma_snr(model: ChannelModel, stream: int, gamma_s) -> GammaSnrDist:
    """Gamma SNR law of the mean-matched virtual model (any stream, 1-based).

    ``gamma_s`` may be a 1-D array, as for ``exact_gamma_snr``.
    """
    if not 1 <= stream <= model.n_t:
        raise ValueError("stream out of range")
    shape = model.n_r - model.n_t + 1
    scale = _per_snr(gamma_s) / _inv_diag_entry(schur.virtual_scale(model), stream - 1)
    return GammaSnrDist(shape=shape, scale=scale, kind="virtual")


def mgf_gamma(d: GammaSnrDist, s):
    """(1 - s*scale)^-shape, defined for s*scale < 1; s may be an array."""
    if np.any(np.asarray(s) * d.scale >= 1.0):
        raise ValueError("m.g.f. pole")
    return (1.0 - s * d.scale) ** (-d.shape)


def _require_zero_mean_interferers(blocks: schur.PartitionBlocks) -> None:
    if np.linalg.norm(blocks.h_d2) > 1e-12 * max(1.0, np.linalg.norm(blocks.h_d1)):
        raise ValueError("requires a zero-mean interfering block")


def rank1_params(model: ChannelModel, gamma_s) -> Rank1MgfParams:
    """Stream-1 m.g.f. parameters for the v = 1 partition.

    The m.g.f. is derived for zero-mean interferers. A Rician interfering
    block is accepted only where the mean-correlation condition holds: there
    alpha is 0 and the law is the pure Gamma one. Only ``gamma_k1 =
    gamma_s * sc`` depends on ``gamma_s``, which may be a 1-D array.
    """
    blocks = schur.conditional_params(model, 1)
    mu = blocks.m_matrix[:, 0]
    if np.linalg.norm(mu) > schur.CONDITION_TOL * np.linalg.norm(model.h_d):
        _require_zero_mean_interferers(blocks)
    sc = float(blocks.sc_corr[0, 0].real)
    inv_sc = 1.0 / sc
    return Rank1MgfParams(
        gamma_k1=_per_snr(gamma_s) * sc,
        alpha=inv_sc * float(np.vdot(mu, mu).real),
        n=model.n_r - model.n_t + 1,
        n_r=model.n_r,
        n_t=model.n_t,
    )


def _sigma1(p: Rank1MgfParams, s: float) -> float:
    return s * p.gamma_k1 * p.alpha / (1.0 - s * p.gamma_k1)


def mgf_gamma1_series(p: Rank1MgfParams, s: float) -> float:
    """Stream-1 SNR m.g.f.: Gamma factor times 1F1(n; n_r; sigma1(s))."""
    if s * p.gamma_k1 >= 1.0:
        raise ValueError("m.g.f. pole")
    gam = (1.0 - s * p.gamma_k1) ** (-p.n)
    return gam * hypergeom.f11_series(p.n, p.n_r, _sigma1(p, s), 1e-12)


def mgf_gamma1_det(p: Rank1MgfParams, s):
    """Determinantal form of the stream-1 SNR m.g.f.; s may be an array.

    Gamma factor times the rank-1 0F0 at sigma1(s), one
    ``f00_rank1_idempotent`` call for all arguments.
    With an array ``p.gamma_k1`` of k entries the result has one row per
    entry, shape (k, *s.shape). Both factors are formed elementwise in the
    scalar order of operations, so each value is bit-identical to a scalar
    call. A Gamma factor beyond double range, next to the pole, raises a
    ValueError naming s and n.
    """
    s = np.asarray(s, dtype=float)
    sg = np.multiply.outer(p.gamma_k1, s)
    if np.any(sg >= 1.0):
        raise ValueError("m.g.f. pole")
    base = 1.0 - sg
    with np.errstate(over="ignore"):
        gam = np.float_power(base, -p.n)  # libm pow, as float ** int; np.power rounds differently
    big = np.isinf(gam)
    if big.any():
        bad = np.broadcast_to(s, sg.shape)[big][:1].tolist()
        raise ValueError(f"stream-1 m.g.f. Gamma factor leaves double range at s = {bad}, n = {p.n}")
    f00 = hypergeom.f00_rank1_idempotent(sg * p.alpha / base, p.n, p.n_r)  # _sigma1's order of operations
    out = gam * f00
    return out if sg.ndim else float(out)


def _mgf_domain_factor(theta: np.ndarray, sc_corr: np.ndarray, n_v: int):
    """Check I - theta @ sc_corr is on the m.g.f. domain; return (inv, det^-n_v)."""
    v = sc_corr.shape[0]
    f = np.eye(v) - theta @ sc_corr
    eig = np.linalg.eigvals(theta @ sc_corr)
    if np.max(eig.real) >= 1.0 - 1e-12:
        raise ValueError("m.g.f. domain")
    det = np.linalg.det(f)
    return np.linalg.inv(f), float(det.real) ** (-n_v)


def mgf_sc_conditional(
    theta: np.ndarray, blocks: schur.PartitionBlocks, q2: np.ndarray, n_v: int
) -> float:
    """M.g.f. of the Schur complement conditioned on the interfering columns.

    The conditional law is noncentral Wishart with n_v degrees of freedom,
    scale sc_corr, and noncentrality driven by the projected mean offset.
    """
    theta = np.asarray(theta, dtype=complex)
    inv_f, det_pow = _mgf_domain_factor(theta, blocks.sc_corr, n_v)
    m = blocks.m_matrix
    tr = np.trace(inv_f @ theta @ m.conj().T @ q2 @ m)
    return det_pow * float(np.exp(tr.real))


# Relative slack above 1 that an m.g.f. at negative-semidefinite theta may
# show from rounding before it is refused.
_MGF_ABOVE_ONE_RTOL = 1e-9


def mgf_sc_rician_rayleigh(
    theta: np.ndarray, blocks: schur.PartitionBlocks, dims: SystemDims
) -> float:
    """Unconditioned Schur-complement m.g.f. for zero-mean interfering columns.

    The Haar average of the conditional m.g.f. turns the etr term into
    0F0(S, L) with S built from the mean offset and L the idempotent
    projector spectrum. S generically has v distinct nonzero eigenvalues,
    handled by the low-rank determinant form; degenerate spectra route
    through the general multiplicity form. A result that is not finite
    and positive, or that exceeds 1 (beyond a 1e-9 rounding slack) where
    theta has no positive eigenvalue, raises a ValueError naming theta's
    spectrum and n_r.
    """
    theta = np.asarray(theta, dtype=complex)
    if blocks.v != dims.v:
        raise ValueError("blocks and dims disagree on v")
    _require_zero_mean_interferers(blocks)
    inv_f, det_pow = _mgf_domain_factor(theta, blocks.sc_corr, dims.n_v)
    if not theta.any():
        return 1.0
    m = blocks.m_matrix
    s_mat = m @ inv_f @ theta @ m.conj().T
    eigs = np.linalg.eigvalsh(0.5 * (s_mat + s_mat.conj().T))
    scale = max(1.0, float(np.abs(eigs).max()))
    nonzero = eigs[np.abs(eigs) > 1e-9 * scale]
    nonzero = np.sort(nonzero)[::-1]
    use_rank_v = (
        nonzero.size == dims.v
        and np.min(np.abs(nonzero)) >= hypergeom.SMALL_SIGMA
        and (nonzero.size == 1 or np.min(-np.diff(nonzero)) > hypergeom.COINCIDENCE_RTOL * scale)
    )
    if use_rank_v:
        f00 = hypergeom.f00_rank_v_idempotent(nonzero, dims.n_v, dims.n_r)
    else:
        snapped = np.where(np.abs(eigs) > 1e-9 * scale, eigs, 0.0)
        lam = EigenSpectrum([1.0, 0.0], [dims.n_v, dims.n_r - dims.n_v])
        f00 = hypergeom.f00_general(cluster_spectrum(snapped), lam)
    value = float(det_pow * f00)
    if math.isfinite(value) and 0.0 < value <= 1.0 + _MGF_ABOVE_ONE_RTOL:
        return value
    theta_eigs = np.linalg.eigvalsh(0.5 * (theta + theta.conj().T))
    where = f"theta spectrum [{', '.join(f'{x:.3g}' for x in theta_eigs)}], n_r = {dims.n_r}"
    if not (math.isfinite(value) and value > 0.0):  # an m.g.f. is an expectation of exp(.) > 0
        raise ValueError(f"Schur-complement m.g.f. = {value!r} is not positive at {where}")
    if theta_eigs.max() <= 0.0:  # tr(theta SC) <= 0 for a PSD complement, so exp(.) <= 1
        raise ValueError(f"Schur-complement m.g.f. = {value!r} exceeds 1 at negative-semidefinite {where}")
    return value
