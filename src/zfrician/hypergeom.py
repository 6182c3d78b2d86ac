"""Hypergeometric functions of scalar and matrix argument.

The two-matrix-argument function 0F0(S, L) is the Haar-unitary average of
etr(S U L U^H); it depends on the two spectra only. Two closed forms are
implemented as determinants of matrices with elementary-function entries:

* arbitrary multiplicities, via the continuous extension with mixed
  partial derivatives of exp(sigma*lambda) (``f00_general``; its
  all-distinct case has the checked entry ``f00_distinct``),
* S of low rank with an idempotent L (``f00_rank_v_idempotent``, and
  ``f00_rank1_idempotent`` for a whole array of rank-1 spectra). Both go
  through one body that stacks the tables of many spectra for a single
  determinant call.

For rank-1 S with eigenvalue sigma and idempotent L of rank n in ambient
dimension n_r, 0F0 collapses to the scalar confluent function
1F1(n; n_r; sigma), which links the determinantal forms to the classical
series (``f11_series``). A Monte Carlo Haar average (``haar_oracle``)
provides an independent estimate of the defining integral for validation.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .rng import chunks, standard_complex_normal, substream

__all__ = [
    "EigenSpectrum",
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


def _check_distinct(vals: Sequence[float], what: str) -> np.ndarray:
    """Refuse a spectrum that is not strictly decreasing or has near-coincident values."""
    arr = np.asarray(vals, dtype=float)
    if np.any(np.diff(arr) >= 0):
        raise ValueError(f"{what} eigenvalues must be strictly decreasing")
    scale = max(1.0, float(np.abs(arr).max()))
    if arr.size > 1 and np.min(-np.diff(arr)) <= COINCIDENCE_RTOL * scale:
        raise ValueError("use f00_general")
    return arr


def f00_distinct(sigma: Sequence[float], lam: Sequence[float]) -> float:
    """0F0(S, L) when both n_r-point spectra are distinct.

    ``f00_general`` with every multiplicity 1: det(exp(sigma_i lambda_j))
    over both Vandermonde products, scaled by the Haar normalization.
    Near-coincident eigenvalues make the Vandermonde denominators blow up;
    such inputs are refused.
    """
    sig = _check_distinct(sigma, "sigma")
    lmb = _check_distinct(lam, "lambda")
    if sig.size != lmb.size:
        raise ValueError("spectra must have equal length")
    ones = [1] * sig.size
    return f00_general(EigenSpectrum(sig, ones), EigenSpectrum(lmb, ones))


def _derivative_orders(mults: Sequence[int]) -> list:
    """Within each multiplicity group the order runs m-1 down to 0."""
    orders = []
    for m in mults:
        orders.extend(range(m - 1, -1, -1))
    return orders


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
    sig = np.array(sigma.expanded())[:, None]
    lmb = np.array(lam.expanded())[None, :]
    a = _derivative_orders(sigma.multiplicities)
    b = _derivative_orders(lam.multiplicities)
    mat = np.exp(sig * lmb)
    if any(a) or any(b):
        # d^a/dsig^a d^b/dlam^b exp(sig lam) by the product rule: term k is
        # C(b, k) P(a, k) lam^(a-k) sig^(b-k), present for k <= min(a, b)
        a_col, b_row = np.array(a)[:, None], np.array(b)[None, :]
        poly = np.zeros((n_r, n_r))
        for k in range(min(max(a), max(b)) + 1):
            coef = np.outer([math.perm(i, k) for i in a], [math.comb(j, k) for j in b])
            poly += coef * lmb ** np.maximum(a_col - k, 0) * sig ** np.maximum(b_row - k, 0)
        mat *= poly
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


@lru_cache(maxsize=None)
def _idempotent_const(v: int, rank_l: int, n_r: int) -> float:
    """F(n_r) / (F(n_r-v) F(n_r-rank_l) F(rank_l)), F = factorial_product; F(n_r) / F(n_r-v) in integers."""
    num = math.prod(map(math.factorial, range(n_r - v, n_r)))
    return num / (factorial_product(n_r - rank_l) * factorial_product(rank_l))


def _idempotent_f00(spectra: Sequence[Sequence[float]], rank_l: int, n_r: int) -> list:
    """0F0(S, L) for each low-rank S against the same rank_l idempotent L.

    Each spectrum holds v < n_r strictly decreasing nonzero floats. Row
    i <= v of its table is exp(sigma_i) times powers of sigma_i, the rest
    are constant; the stacked tables take one slogdet call, and each
    value is det * const / (prod_i sigma_i^(n_r-v) prod_{i<j} (sigma_i - sigma_j)).
    Rows above LOG_DOMAIN_SIGMA keep exp(sigma_i) out of the table and are
    added back to log|det|, which stays finite where det underflows.
    Entries and denominators use scalar float arithmetic, so a spectrum
    rounds alike alone or in a stack.
    """
    mats = np.empty((len(spectra), n_r, n_r))
    for mat, sig in zip(mats, spectra):
        v = len(sig)
        mat[v:] = _idempotent_constant_rows(v, rank_l, n_r)
        for i, s in enumerate(sig):
            shift = s if s > LOG_DOMAIN_SIGMA else 0.0
            e, e_bare = math.exp(s - shift), math.exp(-shift)
            mat[i] = [e * s ** (rank_l - j) for j in range(1, rank_l + 1)] + [
                e_bare * s ** (n_r - j) for j in range(rank_l + 1, n_r + 1)
            ]
    out = []
    signs, logdets = np.linalg.slogdet(mats)
    for sign, logdet, sig in zip(signs.tolist(), logdets.tolist(), spectra):
        v = len(sig)
        const = _idempotent_const(v, rank_l, n_r)
        gaps = [a - b for a, b in itertools.combinations(sig, 2)]
        shift = sum(s for s in sig if s > LOG_DOMAIN_SIGMA)
        if shift and sign:
            log_den = sum((n_r - v) * math.log(abs(s)) for s in sig) + sum(math.log(g) for g in gaps)
            sign *= math.prod(math.copysign(1.0, s) ** (n_r - v) for s in sig)
            out.append(sign * math.exp(logdet + shift - log_den + math.log(const)))
        else:
            det = sign * math.exp(logdet)  # bit for bit numpy's det
            out.append(det * const / math.prod([s ** (n_r - v) for s in sig] + gaps))
    return out


def f00_rank_v_idempotent(sigma_nonzero: Sequence[float], n_v: int, n_r: int) -> float:
    """0F0(S, L) for rank-v S (distinct nonzero spectrum) and idempotent rank-n_v L."""
    sig = _check_distinct(sigma_nonzero, "sigma")
    v = sig.size
    if v >= n_r:
        raise ValueError("need rank v < n_r")
    if not 1 <= n_v <= n_r:
        raise ValueError("need 1 <= n_v <= n_r")
    if np.min(np.abs(sig)) < SMALL_SIGMA:
        raise ValueError("small-eigenvalue regime: use series fallback")
    return _idempotent_f00([sig.tolist()], n_v, n_r)[0]


def f00_rank1_idempotent(sigma1, n: int, n_r: int):
    """0F0 for rank-1 S against a rank-n idempotent, equal to 1F1(n; n_r; sigma1).

    ``sigma1`` is a scalar or an array; an array gives an array of the same
    shape. Below the small-sigma threshold the determinant form loses all
    precision, so such entries sum the series of the identical 1F1 value.
    For n == n_r the value is exp(sigma1). All other entries share one
    determinant call, the rank-v body at v = 1.
    """
    if not 1 <= n <= n_r:
        raise ValueError("need 1 <= n <= n_r")
    sig = np.asarray(sigma1, dtype=float)
    vals = sig.ravel().tolist()
    out = np.empty(len(vals))
    on_table = []
    for k, s in enumerate(vals):
        if abs(s) < SMALL_SIGMA:
            out[k] = f11_series(n, n_r, s)
        elif n == n_r:
            out[k] = math.exp(s)  # L is the identity: the Haar average is etr(S) itself
        else:
            on_table.append(k)
    if on_table:
        out[on_table] = _idempotent_f00([(vals[k],) for k in on_table], n, n_r)
    return out.reshape(sig.shape) if sig.ndim else float(out[0])


def haar_oracle(s_diag: Sequence[float], lambda_diag: Sequence[float], samples: int, seed: int):
    """Monte Carlo estimate of the Haar average of etr(S U L U^H).

    U is the Q of a QR of a complex Ginibre matrix. Fixing the phases of
    R's diagonal would make U exactly Haar, but it only multiplies each
    column of Q by a unit phase, and the integrand depends on U through
    |u_ik|^2 alone, so the fix is skipped. Returns (estimate,
    standard_error); deterministic given seed, independent of chunking.
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
            q = np.linalg.qr(z[b : b + _QR_BLOCK])[0]
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
