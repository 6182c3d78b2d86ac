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
    "aep_from_mgf",
    "aep_exact_condition",
    "aep_rice_ray_det",
]

QUADRATURE_NODES = 96


@lru_cache(maxsize=None)
def _quad_rule(m: int, nodes: int):
    """M.g.f. arguments s = -sin^2(pi/M)/sin^2(theta) and weights of the rule.

    Gauss-Legendre nodes theta on [0, (M-1)pi/M]. The arrays are cached and
    handed to m.g.f. callables, so they are read-only.
    """
    x, w = roots_legendre(nodes)
    upper = (m - 1) * np.pi / m
    theta = 0.5 * upper * (x + 1.0)
    s = -math.sin(math.pi / m) ** 2 / np.sin(theta) ** 2
    s.flags.writeable = False
    return s, 0.5 * upper * w


def aep_from_mgf(mgf: Callable[[np.ndarray], np.ndarray], m: int, nodes: int = QUADRATURE_NODES) -> float:
    """Average error probability from an SNR m.g.f.

    ``mgf`` is called once, on the array of the rule's (negative) arguments,
    and returns the m.g.f. values there. With the point-mass m.g.f.
    exp(s * gamma) this is the instantaneous error probability at gamma.
    """
    if m < 2 or m & (m - 1):
        raise ValueError("constellation order must be a power of two >= 2")
    s, w = _quad_rule(m, nodes)
    return float(np.dot(w, mgf(s)) / np.pi)


def aep_exact_condition(n: int, gamma_ki: float, m: int, nodes: int = QUADRATURE_NODES) -> float:
    """AEP for a Gamma(n, gamma_ki) SNR, whose m.g.f. is (1 - s gamma_ki)^-n.

    Exact when the mean-correlation condition holds; given the virtual
    scale it is the mean-matched approximation.
    """
    if gamma_ki < 0:
        raise ValueError("gamma_ki must be nonnegative")
    return aep_from_mgf(lambda s: (1.0 - s * gamma_ki) ** (-n), m, nodes)


def aep_rice_ray_det(p: Rank1MgfParams, m: int, nodes: int = QUADRATURE_NODES) -> float:
    """Exact stream-1 AEP for a Rician stream over zero-mean interference.

    Integrates the determinantal m.g.f., evaluated on all quadrature nodes
    in one call; nodes where the effective argument is below the
    small-sigma threshold use the series form of the identical value.
    """
    if p.alpha <= 0:
        raise ValueError("alpha must be positive (genuinely Rician stream)")
    return aep_from_mgf(lambda s: mgf_gamma1_det(p, s), m, nodes)
