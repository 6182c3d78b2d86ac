"""Correlated Rician MIMO channel model.

The channel matrix is ``H = H_d + H_r`` where the deterministic component
carries a fraction K/(K+1) of the total power (K is the linear Rician
factor) and each row of the random component is zero-mean complex Gaussian
with transmit covariance ``r_tk = r_t / (K + 1)``. The transmit correlation
``r_t`` is synthesized from a truncated Laplacian power azimuth spectrum
for a uniform linear array and trace-normalized to the antenna count.

Scenario presets ``B1`` (urban microcell: K = 9 dB, AS = 3 deg, high
correlation) and ``A1`` (indoor office: K = 7 dB, AS = 51 deg, low
correlation) are loadable by name.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SystemDims",
    "FadingSpec",
    "ChannelModel",
    "LinkBudget",
    "build_correlation_matrix",
    "normalize_mean",
    "channel_from_parts",
    "preset",
    "db_to_linear",
    "PRESET_NAMES",
]

# Fixed node count for the PAS quadrature; trace renormalization absorbs
# the residual truncation error.
_PAS_NODES = 2048


def db_to_linear(x_db: float) -> float:
    """Convert a dB power ratio to linear scale."""
    return 10.0 ** (x_db / 10.0)


@dataclass(frozen=True)
class SystemDims:
    """Antenna counts and stream-partition size.

    ``n_v = n_r - n_t + v`` is the rank of the interference null-space
    projector; ``n = n_r - n_t + 1`` is the per-stream diversity order.
    Both are derived, never stored.
    """

    n_r: int
    n_t: int
    v: int

    def __post_init__(self):
        if self.n_t > self.n_r:
            raise ValueError("need n_t <= n_r")
        if not 1 <= self.v < self.n_t:
            raise ValueError("partition size v must satisfy 1 <= v < n_t")

    @property
    def n_v(self) -> int:
        return self.n_r - self.n_t + self.v

    @property
    def n(self) -> int:
        return self.n_r - self.n_t + 1


@dataclass(frozen=True)
class FadingSpec:
    """Fading scenario parameters: the K factor and the transmit correlation.

    ``k_factor`` is linear (convert dB at this boundary, nowhere else).
    The deterministic mean is chosen per fading case, not here.
    """

    k_factor: float
    azimuth_spread_deg: float
    center_azimuth_deg: float
    antenna_spacing_halfwavelengths: float

    def __post_init__(self):
        if self.k_factor < 0:
            raise ValueError("k_factor must be nonnegative")
        if self.azimuth_spread_deg <= 0:
            raise ValueError("azimuth_spread_deg must be positive")
        if self.antenna_spacing_halfwavelengths <= 0:
            raise ValueError("antenna spacing must be positive")


@dataclass
class ChannelModel:
    """Assembled channel statistics: mean, transmit correlation, K factor.

    Invariants (checked on construction):
      * trace(r_t) = n_t
      * ||h_d||_F^2 = K/(K+1) * n_r * n_t
      * r_tk = r_t / (K+1), both Hermitian
    """

    h_d: np.ndarray
    r_t: np.ndarray
    r_tk: np.ndarray
    k_factor: float

    def __post_init__(self):
        self.h_d = np.asarray(self.h_d, dtype=complex)
        self.r_t = np.asarray(self.r_t, dtype=complex)
        self.r_tk = np.asarray(self.r_tk, dtype=complex)
        n_t = self.r_t.shape[0]
        if self.h_d.shape[1] != n_t:
            raise ValueError("h_d and r_t disagree on transmit antenna count")
        scale = max(1.0, float(np.abs(self.r_t).max()))
        if np.abs(self.r_t - self.r_t.conj().T).max() > 1e-12 * scale:
            raise ValueError("r_t is not Hermitian")
        if np.abs(self.r_tk - self.r_tk.conj().T).max() > 1e-12 * scale:
            raise ValueError("r_tk is not Hermitian")
        if abs(np.trace(self.r_t).real - n_t) > 1e-10 * n_t:
            raise ValueError("trace(r_t) must equal n_t")
        if np.abs(self.r_tk - self.r_t / (self.k_factor + 1.0)).max() > 1e-12 * scale:
            raise ValueError("r_tk must equal r_t/(K+1)")
        k = self.k_factor
        want = k / (k + 1.0) * self.h_d.shape[0] * n_t
        got = float(np.linalg.norm(self.h_d) ** 2)
        if abs(got - want) > 1e-10 * max(1.0, want):
            raise ValueError("h_d power violates the K-factor normalization")

    @property
    def n_r(self) -> int:
        return self.h_d.shape[0]

    @property
    def n_t(self) -> int:
        return self.r_t.shape[0]


@dataclass(frozen=True)
class LinkBudget:
    """Total symbol-energy budget and the per-antenna / per-bit SNRs."""

    es_over_n0: float
    gamma_s: float
    gamma_b: float

    def __post_init__(self):
        if self.es_over_n0 <= 0:
            raise ValueError("es_over_n0 must be positive")

    @classmethod
    def from_es(cls, es_over_n0: float, n_t: int, m: int) -> "LinkBudget":
        gamma_s = es_over_n0 / n_t
        return cls(es_over_n0, gamma_s, gamma_s / np.log2(m))

    @classmethod
    def from_gamma_b_db(cls, gamma_b_db: float, n_t: int, m: int) -> "LinkBudget":
        gamma_b = db_to_linear(gamma_b_db)
        gamma_s = gamma_b * np.log2(m)
        return cls(gamma_s * n_t, gamma_s, gamma_b)


def build_correlation_matrix(spec: FadingSpec, n_t: int) -> np.ndarray:
    """Transmit correlation of a ULA under a truncated Laplacian PAS.

    Entry (p, q) is the spatial correlation for element separation p - q:
    the PAS-weighted average of exp(j*2*pi*d_n*(p-q)*sin(theta)), with a
    Laplacian PAS of standard deviation AS centered on theta_c, truncated
    to +-180 deg, on a fixed 2048-node trapezoidal grid. The result is
    trace-renormalized to n_t.
    """
    if n_t == 1:
        return np.ones((1, 1), dtype=complex)
    sigma = np.deg2rad(spec.azimuth_spread_deg)
    theta_c = np.deg2rad(spec.center_azimuth_deg)
    b = sigma / np.sqrt(2.0)  # Laplacian scale for standard deviation sigma
    theta = np.linspace(theta_c - np.pi, theta_c + np.pi, _PAS_NODES)
    pas = np.exp(-np.abs(theta - theta_c) / b)
    area = np.trapezoid(pas, theta)
    if not area > 0.0:  # every node underflowed: the PAS is narrower than the grid spacing
        raise ValueError(f"azimuth_spread_deg {spec.azimuth_spread_deg!r} is too narrow for the PAS grid")
    pas /= area
    d_n = spec.antenna_spacing_halfwavelengths
    r = np.empty((n_t, n_t), dtype=complex)
    for sep in range(n_t):
        kernel = np.exp(1j * 2.0 * np.pi * d_n * sep * np.sin(theta))
        rho = np.trapezoid(kernel * pas, theta)
        for p in range(n_t - sep):
            r[p + sep, p] = rho
            r[p, p + sep] = np.conj(rho)
    r = 0.5 * (r + r.conj().T)
    eig = np.linalg.eigvalsh(r)
    if eig[0] < -1e-12 * max(1.0, eig[-1]):
        raise RuntimeError("correlation synthesis failed")
    r *= n_t / np.trace(r).real
    return r


def normalize_mean(raw: np.ndarray) -> np.ndarray:
    """Rescale so the squared Frobenius norm equals n_r * n_t."""
    raw = np.asarray(raw, dtype=complex)
    norm2 = float(np.linalg.norm(raw) ** 2)
    if norm2 == 0.0:
        raise ValueError("zero mean matrix cannot be normalized")
    n_r, n_t = raw.shape
    return raw * np.sqrt(n_r * n_t / norm2)


def channel_from_parts(r_t: np.ndarray, mean_raw: np.ndarray, k_factor: float) -> ChannelModel:
    """Assemble a ChannelModel from an explicit correlation and raw mean.

    The mean is normalized then scaled to carry K/(K+1) of the power; for
    K = 0 the deterministic component is identically zero and the raw mean
    is ignored.
    """
    r_t = np.asarray(r_t, dtype=complex)
    mean_raw = np.asarray(mean_raw, dtype=complex)
    if k_factor == 0.0:
        h_d = np.zeros(mean_raw.shape, dtype=complex)
    else:
        h_d = np.sqrt(k_factor / (k_factor + 1.0)) * normalize_mean(mean_raw)
    return ChannelModel(h_d=h_d, r_t=r_t, r_tk=r_t / (k_factor + 1.0), k_factor=k_factor)


_PRESETS = {
    "B1": dict(k_db=9.0, azimuth_spread_deg=3.0),
    "A1": dict(k_db=7.0, azimuth_spread_deg=51.0),
}

PRESET_NAMES = tuple(_PRESETS)


def preset(name: str) -> FadingSpec:
    """Load a named scenario preset (B1 or A1).

    Both use a ULA at half-wavelength spacing unit (d_n = 1) and a PAS
    centered at 5 degrees.
    """
    try:
        p = _PRESETS[name]
    except KeyError:
        raise ValueError(f"unknown preset {name!r}; choose from {PRESET_NAMES}") from None
    return FadingSpec(
        k_factor=db_to_linear(p["k_db"]),
        azimuth_spread_deg=p["azimuth_spread_deg"],
        center_azimuth_deg=5.0,
        antenna_spacing_halfwavelengths=1.0,
    )
