"""MIMO zero-forcing performance under transmit-correlated Rician fading.

Closed-form (exact and mean-matched approximate) ZF SNR distributions and
MPSK error probabilities built on Schur complements of Wishart Gramians
and determinantal hypergeometric evaluations, validated against a built-in
Monte Carlo link simulator.
"""

from . import aep, channel, cli, hypergeom, mcsim, schur, snrdist
from .channel import (
    ChannelModel,
    FadingSpec,
    LinkBudget,
    SystemDims,
    preset,
)
from .schur import check_condition, virtual_scale

__all__ = [
    "aep",
    "channel",
    "cli",
    "hypergeom",
    "mcsim",
    "schur",
    "snrdist",
    "ChannelModel",
    "FadingSpec",
    "LinkBudget",
    "SystemDims",
    "preset",
    "check_condition",
    "virtual_scale",
]

__version__ = "0.1.0"
