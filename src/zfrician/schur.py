"""Block partitioning and Schur-complement machinery.

Everything here views the transmit side split into an intended block of
``v`` streams and an interfering block of ``n_t - v`` streams. The Schur
complement of the interfering block in the Gramian ``W = H^H H`` is the
conditional sample correlation of the intended columns given the others;
its distribution drives every ZF SNR result in this package.

The mean-correlation alignment condition ``H_d1 = H_d2 @ r_cond`` is what
makes that Schur complement central-Wishart, and equivalently makes the
mean-matched "virtual" central-Wishart model exact. ``check_condition``
measures it, and ``virtual_sc_residual`` / ``whitening_check`` expose two
independent equivalent diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # avoid a runtime import cycle with .channel
    from .channel import ChannelModel

__all__ = [
    "UlFactor",
    "PartitionBlocks",
    "ConditionReport",
    "ul_decompose",
    "schur_complement",
    "gramian_and_sc",
    "projection_eigencheck",
    "conditional_params",
    "check_condition",
    "virtual_scale",
    "virtual_sc_residual",
    "whitening_check",
]

# Numerical rank: singular-value ratio below this is treated as deficient.
RANK_TOL = 1e-10

# Default relative tolerance for the mean-correlation condition.
CONDITION_TOL = 1e-8


@dataclass
class UlFactor:
    """Upper-triangular factor with ``a @ a^H = r`` (strictly lower block zero)."""

    a: np.ndarray

    def blocks(self, v: int):
        """Return (a11, a12, a22) for the v | rest split; a21 is zero."""
        return self.a[:v, :v], self.a[:v, v:], self.a[v:, v:]


@dataclass
class PartitionBlocks:
    """Model-level partition quantities for a given split v.

    ``r_cond`` is the regression matrix of the intended columns on the
    interfering ones, ``m_matrix`` the conditional-mean offset
    ``H_d1 - H_d2 @ r_cond``, and ``sc_corr`` the v x v Schur complement of
    the interfering block in r_tk (the conditional row covariance).
    """

    v: int
    r_cond: np.ndarray
    m_matrix: np.ndarray
    sc_corr: np.ndarray
    h_d1: np.ndarray
    h_d2: np.ndarray


@dataclass
class ConditionReport:
    """Residual of the mean-correlation alignment condition."""

    residual: float
    holds: bool
    tol: float


def _hermitize(x: np.ndarray) -> np.ndarray:
    return 0.5 * (x + x.conj().T)


def ul_decompose(r: np.ndarray) -> UlFactor:
    """Factor a Hermitian positive-definite r as a @ a^H, a upper triangular.

    Implemented as a Cholesky factorization under index reversal, which
    flips the usual lower-triangular factor into the upper orientation.
    """
    r = np.asarray(r, dtype=complex)
    if np.abs(r - r.conj().T).max() > 1e-10 * max(1.0, np.abs(r).max()):
        raise ValueError("matrix must be Hermitian")
    flip = np.flip  # a = J L J with L = chol(J r J)
    try:
        low = np.linalg.cholesky(flip(flip(r, 0), 1))
    except np.linalg.LinAlgError:
        raise np.linalg.LinAlgError("correlation matrix not positive definite") from None
    return UlFactor(a=flip(flip(low, 0), 1))


def schur_complement(x: np.ndarray, v: int):
    """Block regression and Schur complement of the interfering block of x.

    With x split v | rest, returns ``(x22^-1 x21, x11 - x12 x22^-1 x21)``,
    the complement Hermitized. This is the one place the complement is
    formed, for Gramian draws and for correlation matrices alike.
    """
    if not 1 <= v < x.shape[0]:
        raise ValueError("need 1 <= v < n_t")
    try:
        reg = np.linalg.solve(x[v:, v:], x[v:, :v])
    except np.linalg.LinAlgError:
        raise np.linalg.LinAlgError("interfering-block matrix singular") from None
    return reg, _hermitize(x[:v, :v] - x[:v, v:] @ reg)


def _check_rank(h: np.ndarray) -> None:
    sv = np.linalg.svd(h, compute_uv=False)
    if sv[-1] <= RANK_TOL * sv[0]:
        raise np.linalg.LinAlgError("channel matrix rank deficient")


def _null_projector(h2: np.ndarray) -> np.ndarray:
    """Projector onto the orthogonal complement of the columns of h2."""
    return np.eye(h2.shape[0]) - h2 @ np.linalg.solve(h2.conj().T @ h2, h2.conj().T)


def gramian_and_sc(h: np.ndarray, v: int) -> np.ndarray:
    """The v x v Schur complement of the Gramian W = H^H H for one channel draw.

    The complement is computed both by ``schur_complement`` of W and as the
    Hermitian form of the intended columns against the null-space projector
    of the interfering columns; the two must agree, which guards against
    ill-conditioned draws.
    """
    h = np.asarray(h, dtype=complex)
    _check_rank(h)
    _, gamma1 = schur_complement(h.conj().T @ h, v)
    h1 = h[:, :v]
    gamma1_proj = _hermitize(h1.conj().T @ _null_projector(h[:, v:]) @ h1)
    if np.abs(gamma1 - gamma1_proj).max() > 1e-9 * max(1.0, np.abs(gamma1).max()):
        raise np.linalg.LinAlgError("Schur-complement cross-check failed (ill-conditioned draw)")
    return gamma1


def projection_eigencheck(h2: np.ndarray) -> np.ndarray:
    """Eigenvalues (ascending) of the null-space projector of h2^H.

    For an n_r x (n_t - v) full-rank h2 these are n_t - v zeros and
    n_r - n_t + v ones.
    """
    h2 = np.asarray(h2, dtype=complex)
    _check_rank(h2)
    return np.linalg.eigvalsh(_hermitize(_null_projector(h2)))


def conditional_params(model: "ChannelModel", v: int) -> PartitionBlocks:
    """Partition r_tk and the mean, and derive the conditional parameters."""
    r_cond, sc_corr = schur_complement(model.r_tk, v)
    try:
        np.linalg.cholesky(_hermitize(model.r_tk[v:, v:]))
    except np.linalg.LinAlgError:
        raise np.linalg.LinAlgError("interfering-block correlation not positive definite") from None
    h_d1, h_d2 = model.h_d[:, :v], model.h_d[:, v:]
    return PartitionBlocks(
        v=v, r_cond=r_cond, m_matrix=h_d1 - h_d2 @ r_cond, sc_corr=sc_corr, h_d1=h_d1, h_d2=h_d2
    )


def check_condition(model: "ChannelModel", v: int, tol: float = CONDITION_TOL) -> ConditionReport:
    """Measure the mean-correlation alignment H_d1 = H_d2 @ r_cond.

    The residual is relative to ||h_d||_F; a purely Rayleigh model
    (h_d = 0) always satisfies the condition.
    """
    blocks = conditional_params(model, v)
    residual = float(np.linalg.norm(blocks.m_matrix))
    holds = residual <= tol * float(np.linalg.norm(model.h_d))
    return ConditionReport(residual=residual, holds=holds, tol=tol)


def virtual_scale(model: "ChannelModel") -> np.ndarray:
    """Scale matrix of the mean-matched zero-mean (virtual) Gramian model.

    E{W} under the actual model equals n_r times this matrix, so a
    zero-mean Gaussian channel with this transmit covariance reproduces
    the Gramian mean exactly.
    """
    return _hermitize(model.r_tk + model.h_d.conj().T @ model.h_d / model.n_r)


def virtual_sc_residual(model: "ChannelModel", v: int) -> float:
    """Distance between the virtual and actual conditional covariances.

    Returns ||SC_v(virtual scale) - SC_v(r_tk)||_F, which is zero exactly
    when the mean-correlation condition holds.
    """
    _, sc_virtual = schur_complement(virtual_scale(model), v)
    _, sc_actual = schur_complement(model.r_tk, v)
    return float(np.linalg.norm(sc_virtual - sc_actual))


def whitening_check(model: "ChannelModel", v: int) -> float:
    """Norm of the first v mean columns after transmit-correlation whitening.

    Right-multiplying the channel by a^-H (a from ul_decompose of r_tk)
    whitens the rows; the condition holds exactly when the whitened mean
    has zero first-v columns.
    """
    a = ul_decompose(model.r_tk).a
    whitened_mean = model.h_d @ np.linalg.inv(a).conj().T
    return float(np.linalg.norm(whitened_mean[:, :v]))
