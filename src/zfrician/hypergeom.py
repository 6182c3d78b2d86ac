"""Hypergeometric functions of scalar and matrix argument.

The two-matrix-argument function 0F0(S, L) is the Haar-unitary average of
etr(S U L U^H); it depends on the two spectra only. Three closed forms are
implemented as determinants of matrices with elementary-function entries:

* both spectra distinct (``f00_distinct``),
* arbitrary multiplicities, via the continuous extension with mixed
  partial derivatives of exp(sigma*lambda) (``f00_general``),
* S of low rank with an idempotent L (``f00_rank_v_idempotent`` and the
  rank-1 specialization ``f00_rank1_idempotent``).

For rank-1 S with eigenvalue sigma and idempotent L of rank n in ambient
dimension n_r, 0F0 collapses to the scalar confluent function
1F1(n; n_r; sigma), which links the determinantal forms to the classical
series (``f11_series``). A Monte Carlo Haar average (``haar_oracle``)
provides an independent estimate of the defining integral for validation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .rng import chunks, standard_complex_normal, substream

__all__ = [
    "EigenSpectrum",
    "Rank1IdemParams",
    "factorial_product",
    "f11_series",
    "f00_distinct",
    "f00_general",
    "f00_rank_v_idempotent",
    "f00_rank1_idempotent",
    "haar_oracle",
    "cluster_spectrum",
    "SMALL_SIGMA",
]

# Below this magnitude the low-rank determinant form is a 0/0-style ratio
# whose analytic cancellation costs eps/sigma^(n_r-1) in relative accuracy;
# at 0.1 the determinant and series branches agree to ~1e-8 up to n_r = 6.
SMALL_SIGMA = 0.1

# Relative eigenvalue gap under which the distinct-spectrum form is refused.
COINCIDENCE_RTOL = 1e-8

# Above this the exponential row is factored out and the determinant is
# assembled in log domain.
LOG_DOMAIN_SIGMA = 200.0

_MAX_SERIES_TERMS = 100_000
_HAAR_CHUNK = 20_000
_QR_BLOCK = 2_048  # QR a chunk in blocks: its workspace is several copies of the input

# f11_series rescales its partial sum by 2**-_RESCALE_BITS beyond _RESCALE.
_RESCALE_BITS = 900
_RESCALE = 2.0**_RESCALE_BITS
# exp() of anything above this is a normal double (not subnormal).
_EXP_NORMAL_MIN = -700.0
# ln 2 split so that j * _LN2_HI is exact for |j| < 2**20 (fdlibm constants).
_LN2_HI = 6.93147180369123816490e-01
_LN2_LO = 1.90821492927058770002e-10


@dataclass(frozen=True)
class EigenSpectrum:
    """A spectrum as distinct values (strictly decreasing) with multiplicities."""

    values: tuple
    multiplicities: tuple

    def __init__(self, values: Sequence[float], multiplicities: Sequence[int]):
        values = tuple(float(v) for v in values)
        multiplicities = tuple(int(m) for m in multiplicities)
        if len(values) != len(multiplicities) or not values:
            raise ValueError("values and multiplicities must be equal-length and nonempty")
        if any(m < 1 for m in multiplicities):
            raise ValueError("multiplicities must be >= 1")
        if any(a <= b for a, b in zip(values, values[1:])):
            raise ValueError("values must be strictly decreasing")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "multiplicities", multiplicities)

    @property
    def total(self) -> int:
        return sum(self.multiplicities)

    def expanded(self) -> list:
        """Values repeated according to multiplicity."""
        return [v for v, m in zip(self.values, self.multiplicities) for _ in range(m)]


@dataclass(frozen=True)
class Rank1IdemParams:
    """Rank-1 spectrum sigma1 paired with a rank-n idempotent in dimension n_r."""

    sigma1: float
    n: int
    n_r: int

    def __post_init__(self):
        if not 1 <= self.n <= self.n_r:
            raise ValueError("need 1 <= n <= n_r")


def factorial_product(n: int) -> float:
    """prod_{j=1}^{n} (j-1)!, the normalization constant of the Haar integrals."""
    if n < 0:
        raise ValueError("n must be >= 0")
    out = 1
    for j in range(1, n + 1):
        out *= math.factorial(j - 1)
    try:
        return float(out)
    except OverflowError:
        raise RuntimeError("factorial product overflows double precision") from None


def f11_series(a: float, b: float, x: float, rtol: float = 1e-14) -> float:
    """Confluent hypergeometric 1F1(a; b; x) by series summation.

    For x < 0 the defining series alternates with catastrophic
    cancellation, so the Kummer reflection exp(x) 1F1(b-a; b; -x) is
    summed instead; the value is identical. A partial sum that nears
    overflow is rescaled by an exact power of two, and the exponent is
    recombined with exp(x) without rounding, so a reflection whose two
    factors leave double range (x = -800) still keeps full precision.
    """
    if rtol <= 0:
        raise ValueError("rtol must be positive")
    if b <= 0 and b == int(b):
        raise ValueError("b must not be a nonpositive integer")
    shift = 0.0
    if x < 0:
        shift, a, x = x, b - a, -x
    term = 1.0
    total = 1.0
    exponent = 0  # the sum is total * 2**exponent
    for n in range(_MAX_SERIES_TERMS):
        term *= (a + n) / (b + n) * x / (n + 1)
        total += term
        if abs(total) > _RESCALE:
            term /= _RESCALE
            total /= _RESCALE
            exponent += _RESCALE_BITS
        if abs(term) < rtol * abs(total):
            break
    else:
        raise RuntimeError("1F1 series did not converge")
    if not exponent and shift > _EXP_NORMAL_MIN:  # neither factor left double range
        return math.exp(shift) * total
    # exp(shift) = 2**j * exp(r) with |r| <= ln2/2, r formed exactly
    j = round(shift / math.log(2.0))
    r = (shift - j * _LN2_HI) - j * _LN2_LO
    try:
        return math.ldexp(total * math.exp(r), exponent + j)
    except OverflowError:
        raise RuntimeError("1F1 overflows double precision") from None


def _check_decreasing(vals: Sequence[float], what: str) -> np.ndarray:
    arr = np.asarray(vals, dtype=float)
    if np.any(np.diff(arr) >= 0):
        raise ValueError(f"{what} eigenvalues must be strictly decreasing")
    return arr


def f00_distinct(sigma: Sequence[float], lam: Sequence[float]) -> float:
    """0F0(S, L) when both n_r-point spectra are distinct.

    det(exp(sigma_i lambda_j)) divided by both Vandermonde products, scaled
    by the Haar normalization. Near-coincident eigenvalues make the
    Vandermonde denominators blow up; such inputs are refused.
    """
    sig = _check_decreasing(sigma, "sigma")
    lmb = _check_decreasing(lam, "lambda")
    if sig.size != lmb.size:
        raise ValueError("spectra must have equal length")
    for arr in (sig, lmb):
        scale = max(1.0, float(np.abs(arr).max()))
        if arr.size > 1 and np.min(-np.diff(arr)) <= COINCIDENCE_RTOL * scale:
            raise ValueError("use f00_general")
    n_r = sig.size
    det = np.linalg.det(np.exp(np.outer(sig, lmb)))
    den = 1.0
    for i in range(n_r):
        for j in range(i + 1, n_r):
            den *= (sig[i] - sig[j]) * (lmb[i] - lmb[j])
    return float(det / den * factorial_product(n_r))


def _derivative_orders(mults: Sequence[int]) -> list:
    """Within each multiplicity group the order runs m-1 down to 0."""
    orders = []
    for m in mults:
        orders.extend(range(m - 1, -1, -1))
    return orders


def _mixed_partial_exp(sig: float, lam: float, a: int, b: int) -> float:
    # d^a/dsig^a d^b/dlam^b exp(sig lam), closed form via the product rule
    acc = 0.0
    for k in range(min(a, b) + 1):
        acc += math.comb(b, k) * math.perm(a, k) * lam ** (a - k) * sig ** (b - k)
    return acc * math.exp(sig * lam)


def f00_general(sigma: EigenSpectrum, lam: EigenSpectrum) -> float:
    """0F0(S, L) for arbitrary eigenvalue multiplicities.

    Continuous extension of the distinct-spectrum determinant: rows/columns
    within a repeated group are replaced by derivatives of exp(sigma*lambda)
    of decreasing order, the Vandermonde factors pair distinct values with
    multiplicity-product exponents, and each repeated group contributes a
    factorial-product normalization.
    """
    n_r = sigma.total
    if n_r != lam.total:
        raise ValueError("spectra must have the same ambient dimension")
    sig_rep = sigma.expanded()
    lam_rep = lam.expanded()
    a = _derivative_orders(sigma.multiplicities)
    b = _derivative_orders(lam.multiplicities)
    if len(a) != n_r or len(b) != n_r:
        raise ValueError("derivative-order bookkeeping is inconsistent")
    mat = np.empty((n_r, n_r))
    for i in range(n_r):
        for j in range(n_r):
            mat[i, j] = _mixed_partial_exp(sig_rep[i], lam_rep[j], a[i], b[j])
    num = np.linalg.det(mat) * factorial_product(n_r)
    for m in sigma.multiplicities:
        num /= factorial_product(m)
    for m in lam.multiplicities:
        num /= factorial_product(m)
    den = 1.0
    for vals, mults in ((sigma.values, sigma.multiplicities), (lam.values, lam.multiplicities)):
        for i in range(len(vals)):
            for j in range(i + 1, len(vals)):
                den *= (vals[i] - vals[j]) ** (mults[i] * mults[j])
    return float(num / den)


@lru_cache(maxsize=None)
def _idempotent_constant_rows(v: int, rank_l: int, n_r: int) -> np.ndarray:
    """Rows v+1..n_r of the idempotent table: factorial/binomial entries free of S."""
    rows = np.zeros((n_r - v, n_r))
    for i in range(v + 1, n_r + 1):
        for j in range(1, n_r + 1):
            if j <= rank_l:
                if n_r - i >= rank_l - j:
                    rows[i - v - 1, j - 1] = math.factorial(rank_l - j) * math.comb(n_r - i, rank_l - j)
            elif i == j:
                rows[i - v - 1, j - 1] = math.factorial(n_r - i)
    return rows


def _idempotent_table(sigmas, rank_l: int, n_r: int, shifts) -> np.ndarray:
    """Determinant table for low-rank S against a rank_l idempotent L.

    Row i <= v carries exp(sigma_i - shifts[i]) times a power of sigma_i in
    the first rank_l columns and bare powers after; the remaining rows are
    constant factorial/binomial entries.
    """
    v = len(sigmas)
    mat = np.empty((n_r, n_r))
    mat[v:] = _idempotent_constant_rows(v, rank_l, n_r)
    for i, (s, shift) in enumerate(zip(sigmas, shifts)):
        e, e_bare = math.exp(s - shift), math.exp(-shift)
        mat[i] = [e * s ** (rank_l - j) for j in range(1, rank_l + 1)] + [
            e_bare * s ** (n_r - j) for j in range(rank_l + 1, n_r + 1)
        ]
    return mat


def f00_rank_v_idempotent(sigma_nonzero: Sequence[float], n_v: int, n_r: int) -> float:
    """0F0(S, L) for rank-v S (distinct nonzero spectrum) and idempotent rank-n_v L."""
    sig = _check_decreasing(sigma_nonzero, "sigma")
    v = sig.size
    if v >= n_r:
        raise ValueError("need rank v < n_r")
    if not 1 <= n_v <= n_r:
        raise ValueError("need 1 <= n_v <= n_r")
    if np.min(np.abs(sig)) < SMALL_SIGMA:
        raise ValueError("small-eigenvalue regime: use series fallback")
    scale = max(1.0, float(np.abs(sig).max()))
    if v > 1 and np.min(-np.diff(sig)) <= COINCIDENCE_RTOL * scale:
        raise ValueError("use f00_general")

    shifts = np.where(sig > LOG_DOMAIN_SIGMA, sig, 0.0)
    mat = _idempotent_table(sig, n_v, n_r, shifts)
    const = (
        factorial_product(n_r)
        / factorial_product(n_r - v)
        / factorial_product(n_r - n_v)
        / factorial_product(n_v)
    )
    if shifts.any():
        sign, logdet = np.linalg.slogdet(mat)
        log_den = (n_r - v) * np.sum(np.log(np.abs(sig)))
        den_sign = np.prod(np.sign(sig) ** (n_r - v))
        for i in range(v):
            for j in range(i + 1, v):
                log_den += math.log(abs(sig[i] - sig[j]))
                den_sign *= math.copysign(1.0, sig[i] - sig[j])
        return float(sign * den_sign * math.exp(logdet + shifts.sum() - log_den + math.log(const)))
    den = float(np.prod(sig ** (n_r - v)))
    for i in range(v):
        for j in range(i + 1, v):
            den *= sig[i] - sig[j]
    return float(np.linalg.det(mat) * const / den)


@lru_cache(maxsize=None)
def _rank1_const(n: int, n_r: int) -> float:
    """Rank-1 Haar normalization (n_r-1)! / (F(n) F(n_r-n)), with F = factorial_product."""
    return math.factorial(n_r - 1) / (factorial_product(n) * factorial_product(n_r - n))


def f00_rank1_idempotent(p: Rank1IdemParams) -> float:
    """0F0 for rank-1 S against a rank-n idempotent, equal to 1F1(n; n_r; sigma1).

    The rank-v determinant at v = 1: det(table) * const / sigma1^(n_r-1),
    assembled in log domain above LOG_DOMAIN_SIGMA. Below the small-sigma
    threshold the determinant form loses all precision, so the series
    evaluation of the identical 1F1 value is used.
    """
    sigma, n, n_r = p.sigma1, p.n, p.n_r
    if abs(sigma) < SMALL_SIGMA:
        return f11_series(n, n_r, sigma)
    if n == n_r:
        # L is the identity: the Haar average is etr(S) itself.
        return math.exp(sigma)
    shift = sigma if sigma > LOG_DOMAIN_SIGMA else 0.0
    mat = _idempotent_table((sigma,), n, n_r, (shift,))
    const = _rank1_const(n, n_r)
    if shift:
        sign, logdet = np.linalg.slogdet(mat)
        return float(sign * math.exp(logdet + shift - (n_r - 1) * math.log(sigma) + math.log(const)))
    return float(np.linalg.det(mat) * const / sigma ** (n_r - 1))


def haar_oracle(s_diag: Sequence[float], lambda_diag: Sequence[float], samples: int, seed: int):
    """Monte Carlo estimate of the Haar average of etr(S U L U^H).

    U is drawn by QR of a complex Ginibre matrix with the R diagonal phase
    fixed, the standard construction of the unitary Haar measure. Returns
    (estimate, standard_error); deterministic given seed, independent of
    chunking.
    """
    if samples < 1_000:
        raise ValueError("need at least 1000 samples")
    s = np.asarray(s_diag, dtype=float)
    lam = np.asarray(lambda_diag, dtype=float)
    if s.size != lam.size:
        raise ValueError("spectra must have equal length")
    n = s.size
    acc = 0.0
    acc2 = 0.0
    for key, _, m in chunks(seed, (), samples, _HAAR_CHUNK):
        z = standard_complex_normal(substream(*key), (m, n, n))
        vals = np.empty(m)
        for b in range(0, m, _QR_BLOCK):
            q, r = np.linalg.qr(z[b : b + _QR_BLOCK])
            d = np.einsum("bii->bi", r)
            q = q * (d / np.abs(d))[:, None, :]
            vals[b : b + _QR_BLOCK] = np.exp(np.einsum("bik,i,k->b", np.abs(q) ** 2, s, lam))
        acc += float(vals.sum())
        acc2 += float((vals**2).sum())
    mean = acc / samples
    var = max(acc2 / samples - mean**2, 0.0)
    return mean, math.sqrt(var / samples)


def cluster_spectrum(eigenvalues: Sequence[float], rel_tol: float = COINCIDENCE_RTOL) -> EigenSpectrum:
    """Group numerically coincident eigenvalues into an EigenSpectrum.

    Values whose gap is below rel_tol (relative to the spectrum scale) are
    merged into one representative (their mean); values within the same
    tolerance of zero are snapped to exactly zero.
    """
    eigs = np.sort(np.asarray(eigenvalues, dtype=float))[::-1]
    scale = max(1.0, float(np.abs(eigs).max()))
    groups: list[list[float]] = [[eigs[0]]]
    for x in eigs[1:]:
        if groups[-1][-1] - x <= rel_tol * scale:
            groups[-1].append(x)
        else:
            groups.append([x])
    values = []
    mults = []
    for g in groups:
        rep = float(np.mean(g))
        if abs(rep) <= rel_tol * scale:
            rep = 0.0
        values.append(rep)
        mults.append(len(g))
    return EigenSpectrum(values, mults)
