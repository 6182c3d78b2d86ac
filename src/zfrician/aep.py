"""Average symbol-error probability for MPSK via m.g.f. quadrature.

The instantaneous MPSK symbol-error probability is a single finite
integral over theta in (0, (M-1)pi/M]; averaging over the fading SNR
replaces the exponential integrand by the SNR m.g.f. evaluated at
negative arguments. All integrals use a fixed 96-node Gauss-Legendre
rule, whose nodes are interior so the theta -> 0 endpoint (where the
integrand of any fading average vanishes) is never evaluated.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable

import numpy as np
from scipy.special import roots_legendre

from .snrdist import Rank1MgfParams, mgf_gamma1_det

__all__ = [
    "QUADRATURE_NODES",
    "instantaneous_pe",
    "aep_from_mgf",
    "aep_exact_condition",
    "aep_rice_ray_det",
]

QUADRATURE_NODES = 96


def _check_m(m: int) -> None:
    if m < 2 or m & (m - 1):
        raise ValueError("constellation order must be a power of two >= 2")


@lru_cache(maxsize=None)
def _quad_rule(m: int, nodes: int):
    """Gauss-Legendre nodes/weights on [0, (M-1)pi/M]."""
    x, w = roots_legendre(nodes)
    upper = (m - 1) * np.pi / m
    theta = 0.5 * upper * (x + 1.0)
    return theta, 0.5 * upper * w


def instantaneous_pe(gamma: float, m: int, nodes: int = QUADRATURE_NODES) -> float:
    """MPSK symbol-error probability at instantaneous SNR gamma."""
    _check_m(m)
    if gamma < 0:
        raise ValueError("gamma must be nonnegative")
    theta, w = _quad_rule(m, nodes)
    g = math.sin(math.pi / m) ** 2
    vals = np.exp(-gamma * g / np.sin(theta) ** 2)
    return float(np.dot(w, vals) / np.pi)


def aep_from_mgf(mgf: Callable[[float], float], m: int, nodes: int = QUADRATURE_NODES) -> float:
    """Average error probability from an SNR m.g.f. (evaluated at negative args)."""
    _check_m(m)
    theta, w = _quad_rule(m, nodes)
    g = math.sin(math.pi / m) ** 2
    vals = np.array([mgf(-g / math.sin(t) ** 2) for t in theta])
    return float(np.dot(w, vals) / np.pi)


def aep_exact_condition(n: int, gamma_ki: float, m: int, nodes: int = QUADRATURE_NODES) -> float:
    """AEP for a Gamma(n, gamma_ki) SNR.

    Exact when the mean-correlation condition holds; given the virtual
    scale it is the mean-matched approximation.
    """
    _check_m(m)
    if gamma_ki < 0:
        raise ValueError("gamma_ki must be positive")
    theta, w = _quad_rule(m, nodes)
    g = math.sin(math.pi / m) ** 2
    vals = (1.0 + g / np.sin(theta) ** 2 * gamma_ki) ** (-n)
    return float(np.dot(w, vals) / np.pi)


def aep_rice_ray_det(p: Rank1MgfParams, m: int, nodes: int = QUADRATURE_NODES) -> float:
    """Exact stream-1 AEP for a Rician stream over zero-mean interference.

    Integrates the determinantal m.g.f.; nodes where the effective
    argument is below the small-sigma threshold automatically use the
    series form of the identical value.
    """
    if p.alpha <= 0:
        raise ValueError("alpha must be positive (genuinely Rician stream)")
    return aep_from_mgf(lambda s: mgf_gamma1_det(p, s), m, nodes)
