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


def aep_from_mgf(mgf: Callable[[np.ndarray], np.ndarray], m: int, nodes: int = QUADRATURE_NODES):
    """Average error probability from an SNR m.g.f.

    ``mgf`` is called once, on the array of the rule's (negative) arguments,
    and returns the m.g.f. values there: one row gives a float, k rows (one
    per SNR law) an array of k AEPs. Each row is summed by its own dot
    product, so a row's AEP does not depend on the rows beside it. With the
    point-mass m.g.f. exp(s * gamma) this is the instantaneous error
    probability at gamma.
    """
    if m < 2 or m & (m - 1):
        raise ValueError("constellation order must be a power of two >= 2")
    s, w = _quad_rule(m, nodes)
    vals = np.asarray(mgf(s))
    aeps = [float(np.dot(w, row) / np.pi) for row in np.atleast_2d(vals)]
    return np.array(aeps) if vals.ndim > 1 else aeps[0]


def aep_exact_condition(n: int, gamma_ki, m: int, nodes: int = QUADRATURE_NODES):
    """AEP for a Gamma(n, gamma_ki) SNR, whose m.g.f. is (1 - s gamma_ki)^-n.

    Exact when the mean-correlation condition holds; given the virtual
    scale it is the mean-matched approximation. A 1-D array of scales
    gives an array of AEPs, each equal to the scalar call's.
    """
    if np.any(np.asarray(gamma_ki) < 0):
        raise ValueError("gamma_ki must be nonnegative")
    return aep_from_mgf(lambda s: (1.0 - np.multiply.outer(gamma_ki, s)) ** (-n), m, nodes)


def aep_rice_ray_det(p: Rank1MgfParams, m: int, nodes: int = QUADRATURE_NODES):
    """Exact stream-1 AEP for a Rician stream over zero-mean interference.

    Integrates the determinantal m.g.f., evaluated on all quadrature nodes
    (and all entries of an array ``p.gamma_k1``) in one call. An AEP
    outside [0, 1] or not finite raises a ValueError.
    """
    if p.alpha <= 0:
        raise ValueError("alpha must be positive (genuinely Rician stream)")
    aeps = aep_from_mgf(lambda s: mgf_gamma1_det(p, s), m, nodes)
    vals = np.atleast_1d(aeps)
    bad = ~((vals >= 0.0) & (vals <= 1.0))  # NaN fails both
    if bad.any():
        raise ValueError(
            f"determinantal AEP = {float(vals[bad][0])!r} at n_r = {p.n_r}, n = {p.n}, "
            f"alpha = {p.alpha:.6g} is not a probability in [0, 1]"
        )
    return aeps
