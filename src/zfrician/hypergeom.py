"""Hypergeometric functions of scalar and matrix argument.

The two-matrix-argument function 0F0(S, L) is the Haar-unitary average of
etr(S U L U^H); it depends on the two spectra only. Two closed forms are
implemented as determinants of matrices with elementary-function entries:

* arbitrary multiplicities, via the continuous extension with mixed
  partial derivatives of exp(sigma*lambda) (``f00_general``; its
  all-distinct case has the checked entry ``f00_distinct``),
* S of low rank v with an idempotent L (``f00_rank_v_idempotent``), which
  stacks the tables of many spectra for a single determinant call.

For rank-1 S with eigenvalue sigma and idempotent L of rank n in ambient
dimension n_r, 0F0 collapses to the scalar confluent function
1F1(n; n_r; sigma). ``f00_rank1_idempotent`` evaluates it for a whole
array of sigmas from Kummer's integral, where the determinant would
cancel: in closed form (a terminating sum) for large negative sigma, by a
fixed Gauss-Jacobi rule elsewhere; ``f11_series`` sums the classical
series. A Monte Carlo Haar average (``haar_oracle``) provides an
independent estimate of the defining integral for validation.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np
from scipy.special import roots_jacobi

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

# Below this magnitude the rank-v determinant form (f00_rank_v_idempotent)
# is a 0/0-style ratio that cancels badly, and it refuses such a spectrum.
# eps/sigma^(n_r-1) does not bound the loss: over n_r 4-16 and |sigma|
# 0.11-3, the v = 1 form's error against mpmath measured a median 1e6 and a
# maximum 1.2e16 times that. The rank-1 evaluator does not use it.
SMALL_SIGMA = 0.1

# Relative eigenvalue gap under which the distinct-spectrum form is refused.
COINCIDENCE_RTOL = 1e-8

# Above this the exponential row is factored out and the determinant is
# assembled in log domain.
LOG_DOMAIN_SIGMA = 200.0

# Rank-1 0F0 by Kummer's integral: its terminating closed form below a split
# of at most -_KUMMER_SPLIT (dropped part below exp(_KUMMER_DROPPED_LOG) =
# 2^-60, and absolute sum at most _KUMMER_GUARD times the signed one), the
# Gauss-Jacobi rule elsewhere, at most _KUMMER_BLOCK sigmas per buffer.
# KUMMER_MAX_N_R is the largest n_r the mpmath property test covers.
_KUMMER_JACOBI_NODES = 128
_KUMMER_SPLIT = 300.0
_KUMMER_DROPPED_LOG = -60 * math.log(2.0)
_KUMMER_GUARD = 16.0
_KUMMER_BLOCK = 256
KUMMER_MAX_N_R = 40

_MAX_SERIES_TERMS = 100_000
_HAAR_CHUNK = 20_000
_QR_BLOCK = 2_048  # QR a chunk in blocks: its workspace is several copies of the input

# f11_series rescales its partial sum by 2**-_RESCALE_BITS beyond _RESCALE.
_RESCALE_BITS = 900
_RESCALE = 2.0**_RESCALE_BITS
# exp() of anything above this is a normal double (not subnormal).
_EXP_NORMAL_MIN = -700.0
# math.exp() of anything above this overflows; of this itself it is finite.
_EXP_MAX = math.log(sys.float_info.max)
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

    Rounding adds up over long sums, so the error can exceed ``rtol``:
    against mpmath, 300 random (a, b, x) with x in [-3000, 700] gave a
    worst relative error of 1.5e-13, at x = -1698 (about 2,000 terms).
    """
    if rtol <= 0:
        raise ValueError("rtol must be positive")
    for name, value in (("a", a), ("b", b), ("x", x)):
        if not math.isfinite(value):
            raise ValueError(f"1F1 needs a finite {name}, got {value}")
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


def _beyond_double(sigma: Sequence[float], n_r: int) -> ValueError:
    return ValueError(f"0F0 evaluation leaves double range at sigma = {list(sigma)}, n_r = {n_r}")


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
    # derivative orders: within each multiplicity group they run m-1 down to 0
    a, b = ([k for m in spec.multiplicities for k in range(m - 1, -1, -1)] for spec in (sigma, lam))
    with np.errstate(over="ignore"):
        mat = np.exp(sig * lmb)
    if not np.isfinite(mat).all():
        raise _beyond_double(sigma.values, n_r)
    if any(a) or any(b):
        # d^a/dsig^a d^b/dlam^b exp(sig lam) by the product rule: term k is
        # C(b, k) P(a, k) lam^(a-k) sig^(b-k), present for k <= min(a, b)
        a_col, b_row = np.array(a)[:, None], np.array(b)[None, :]
        poly = np.zeros((n_r, n_r))
        for k in range(min(max(a), max(b)) + 1):
            perms, combs = [math.perm(i, k) for i in a], [math.comb(j, k) for j in b]
            if max(perms) * max(combs) > np.iinfo(np.int64).max:  # numpy would wrap or make an object array
                raise ValueError(f"0F0 derivative coefficients leave int64 at n_r = {n_r}")
            coef = np.outer(perms, combs)
            poly += coef * lmb ** np.maximum(a_col - k, 0) * sig ** np.maximum(b_row - k, 0)
        mat *= poly
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
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
        out = float(num / den)
    if not math.isfinite(out):
        raise _beyond_double(sigma.values, n_r)
    return out


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
    try:
        const = num / (factorial_product(n_r - rank_l) * factorial_product(rank_l))
    except (RuntimeError, OverflowError):
        const = 0.0
    if not 0.0 < const < math.inf:
        raise ValueError(
            f"determinantal 0F0 out of double range at n_r = {n_r}, n = {rank_l}: its factorial normalization overflows"
        )
    return const


def _idempotent_f00(sig: np.ndarray, rank_l: int, n_r: int) -> np.ndarray:
    """0F0(S, L) for each low-rank S against the same rank_l idempotent L.

    ``sig`` is a (k, v) array: k spectra of v < n_r strictly decreasing
    nonzero floats. Row i <= v of a table is exp(sigma_i) times powers of
    sigma_i, the rest are constant; the stacked tables take one slogdet
    call, and each value is
    det * const / (prod_i sigma_i^(n_r-v) prod_{i<j} (sigma_i - sigma_j)).
    Rows above LOG_DOMAIN_SIGMA keep exp(sigma_i) out of the table and are
    added back to log|det|, which stays finite where det underflows. A
    spectrum whose det or quotient would overflow takes the same log-domain
    route, and one whose value is beyond double range raises a ValueError.
    exp and the powers are scalar libm calls (numpy's vector exp and power
    round differently on long arrays); the rest is elementwise numpy in the
    scalar order of operations, so a spectrum rounds alike alone or in a
    stack. exp(0.0) and pow(x, 0.0) are exactly 1.0, so those entries are
    not computed.
    """
    k, v = sig.shape
    const = _idempotent_const(v, rank_l, n_r)
    flat = sig.ravel().tolist()
    shifted = sig.ravel() > LOG_DOMAIN_SIGMA
    # a row holds exp(sigma) beside 1, or in log domain 1 beside exp(-sigma)
    e = np.ones(k * v)
    e[~shifted] = [math.exp(s) for s in sig.ravel()[~shifted].tolist()]
    e_bare = np.ones(k * v)
    e_bare[shifted] = [math.exp(-s) for s in sig.ravel()[shifted].tolist()]
    e, e_bare = e.reshape(k, v, 1), e_bare.reshape(k, v, 1)
    n_pow = max(rank_l, n_r - rank_l)
    # powers 0..n_pow-1 of each entry; math.pow is the libm pow that float ** int calls
    pw = np.empty((n_pow, k * v))
    pw[0] = 1.0
    for p in range(1, n_pow):
        pw[p] = np.fromiter(map(math.pow, flat, itertools.repeat(float(p))), float, k * v)
    pw = pw.T.reshape(k, v, n_pow)
    mats = np.empty((k, n_r, n_r))
    mats[:, v:] = _idempotent_constant_rows(v, rank_l, n_r)
    # pw[..., :r][..., ::-1] is powers r-1 down to 0, and empty for r = 0
    mats[:, :v, :rank_l] = e * pw[..., :rank_l][..., ::-1]
    mats[:, :v, rank_l:] = e_bare * pw[..., : n_r - rank_l][..., ::-1]
    signs, logdets = np.linalg.slogdet(mats)
    out = np.empty(k)
    in_log = ((sig > LOG_DOMAIN_SIGMA).any(axis=1) | (logdets > _EXP_MAX)) & (signs != 0)
    direct = ~in_log
    if direct.any():
        sd = sig[direct]
        det = signs[direct] * np.array([math.exp(x) for x in logdets[direct].tolist()])  # bit for bit numpy's det
        den_pw = np.array([s ** (n_r - v) for s in sd.ravel().tolist()]).reshape(sd.shape)
        den = den_pw[:, 0]
        for i in range(1, v):
            den = den * den_pw[:, i]
        for a, b in itertools.combinations(range(v), 2):
            den = den * (sd[:, a] - sd[:, b])
        with np.errstate(over="ignore", divide="ignore"):
            vals = det * const / den
        out[direct] = vals
        in_log[direct] = ~np.isfinite(vals)  # the quotient overflowed: redo it in log domain
    for i in np.flatnonzero(in_log).tolist():
        row = flat[i * v : (i + 1) * v]
        shift = sum(s for s in row if s > LOG_DOMAIN_SIGMA)
        log_den = sum((n_r - v) * math.log(abs(s)) for s in row)
        log_den += sum(math.log(a - b) for a, b in itertools.combinations(row, 2))
        sign = signs[i] * math.prod(math.copysign(1.0, s) ** (n_r - v) for s in row)
        try:
            out[i] = sign * math.exp(logdets[i] + shift - log_den + math.log(const))
        except OverflowError:
            raise _beyond_double(row, n_r) from None
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
    return float(_idempotent_f00(sig[None, :], n_v, n_r)[0])


@lru_cache(maxsize=None)
def _beta_rule(a: int, b: int):
    """128-node Gauss-Jacobi rule for the mean over x ~ Beta(a, b - a).

    Nodes in (0, 1) and weights divided by their sum, both read-only (they
    are cached).
    """
    x, w = roots_jacobi(_KUMMER_JACOBI_NODES, b - a - 1, a - 1)
    nodes, weights = 0.5 * (x + 1.0), w / w.sum()
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


@lru_cache(maxsize=None)
def _kummer_tail(a: int, b: int):
    """The split and the coefficients of 1F1(a; b; z)'s terminating form.

    Kummer's integral (DLMF 13.4.1) with y = |z| x, extended from (0, |z|)
    to (0, inf), integrates the polynomial (1 - y/|z|)^k, k = b - a - 1,
    against Gamma(a, 1) in closed form. So for z < 0, 1F1(a; b; z) is
    Gamma(b) / (Gamma(b - a) |z|^a) times P(t) - D(|z|), with t = 1/|z|,
    P(t) = sum_j c_j t^j, c_0 = 1 and c_(j+1) = -c_j (k - j)(a + j) / (j + 1).
    The dropped part, the integral past |z|, is the e^z term of the
    connection formula (DLMF 13.2(vii)) and terminates too: D(Z) = e^-Z
    Z^(2a-b) sum_(i<a) Gamma(b-a+i) / (Gamma(i+1) Gamma(a-i)) Z^-i. The
    split is the smallest integer Z <= 300 from which D stays below 2^-60;
    D decreases once Z >= 2a - b, so the search starts there. Returns
    (split, coefficients), the rows c_j and |c_j|, read-only.
    """
    k = b - a - 1
    c = [1]
    for j in range(k):
        c.append(-c[j] * (k - j) * (a + j) // (j + 1))
    coef = np.array([[float(x) for x in c], [float(abs(x)) for x in c]])
    coef.flags.writeable = False
    # log D(Z) at every integer Z from max(1, 2a - b) to 300, term i of its sum in column i
    log_terms = np.array([math.lgamma(b - a + i) - math.lgamma(i + 1) - math.lgamma(a - i) for i in range(a)])
    big_z = np.arange(max(1, 2 * a - b), _KUMMER_SPLIT + 1.0)
    log_z = np.log(big_z)
    log_sum = np.logaddexp.reduce(log_terms - np.multiply.outer(log_z, np.arange(a)), axis=1)
    above = np.flatnonzero(-big_z + (2 * a - b) * log_z + log_sum > _KUMMER_DROPPED_LOG)
    split = big_z[0] if not above.size else big_z[min(above[-1] + 1, big_z.size - 1)]
    return float(split), coef


def _block_sums(z: np.ndarray, nodes: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_j weights_j * exp(z_i * nodes_j) for each z_i.

    Runs in blocks of at most _KUMMER_BLOCK values through one contiguous
    buffer, and only elementwise ufuncs and a row sum touch it, so each
    z_i's sum has the same bits however many values share the call.
    """
    out = np.empty(z.size)
    buf = np.empty((min(z.size, _KUMMER_BLOCK), nodes.size))
    for i in range(0, z.size, _KUMMER_BLOCK):
        blk = buf[: min(_KUMMER_BLOCK, z.size - i)]
        np.multiply.outer(z[i : i + len(blk)], nodes, out=blk)
        np.exp(blk, out=blk)
        blk *= weights
        out[i : i + len(blk)] = blk.sum(axis=1)
    return out


def _kummer_negative(a: int, b: int, z: np.ndarray):
    """1F1(a; b; z) for 1 <= a < b and z <= 0, as (mantissa, log_scale).

    The value is mantissa * exp(log_scale). For z <= -split (see
    ``_kummer_tail``) the mantissa is the polynomial P(1/|z|), summed by
    Horner together with Q = sum_j |c_j| |z|^-j, and log_scale is
    lgamma(b) - lgamma(b - a) - a log|z|. The dropped part is below 2^-60;
    Q >= 1, so where Q <= 16 P it is below 2^-56 of P. A z where Q > 16 P,
    whose alternating sum would cancel, and every z above -split take the
    128-node Gauss-Jacobi average of exp(z x), whose terms are all
    positive, with log_scale 0. For n_r <= 40 the guard passes at every
    tested |z| >= 300 (Q / P <= 12.6 there), so the Jacobi rule is used
    only on [-300, 0].
    """
    mant = np.empty(z.size)
    log_scale = np.zeros(z.size)
    split, coef = _kummer_tail(a, b)
    far = np.flatnonzero(z <= -split)
    near = np.ones(z.size, dtype=bool)
    if far.size:
        t = -1.0 / z[far]
        acc = np.repeat(coef[:, -1:], far.size, axis=1)
        for j in range(coef.shape[1] - 2, -1, -1):
            acc *= t
            acc += coef[:, j : j + 1]
        p, q = acc
        ok = q <= _KUMMER_GUARD * p
        far = far[ok]
        mant[far] = p[ok]
        log_scale[far] = (math.lgamma(b) - math.lgamma(b - a)) - a * np.log(-z[far])
        near[far] = False
    if near.any():
        mant[near] = _block_sums(z[near], *_beta_rule(a, b))
        mant[z == 0.0] = 1.0  # exact, where the weights' rounded sum may not be
    return mant, log_scale


def f00_rank1_idempotent(sigma1, n: int, n_r: int):
    """0F0 for rank-1 S against a rank-n idempotent, equal to 1F1(n; n_r; sigma1).

    ``sigma1`` is a scalar or an array; an array gives an array of the same
    shape, each entry with the bits of its scalar call. For n == n_r the
    value is exp(sigma1). Otherwise it is Kummer's integral (DLMF 13.4.1),
    E[exp(sigma1 x)] with x ~ Beta(n, n_r - n). For sigma1 <= -Z, with a
    split Z of 23 to 122 set per (n, n_r), its closed form is exact to
    double precision: a Gamma-function factor times a polynomial of degree
    n_r - n - 1 in 1/|sigma1|. Above -Z, and where that polynomial would
    cancel, a 128-node Gauss-Jacobi rule (Golub & Welsch, Math. Comp. 23,
    1969) averages exp(sigma1 x). For sigma1 > 0 the reflection
    exp(sigma1) 1F1(n_r - n; n_r; -sigma1) is used, combined in log form.
    Against mpmath it is within 1e-10 relative for n_r <= KUMMER_MAX_N_R
    and sigma1 in [-1.6e4, 600]; the worst seen is 8.2e-13, from the
    Jacobi rule near a split, and the closed form's is 6.3e-14. A larger
    n_r with n < n_r is refused, and so is a value beyond double range or a
    non-finite sigma1.
    """
    if not 1 <= n <= n_r:
        raise ValueError("need 1 <= n <= n_r")
    if n < n_r and n_r > KUMMER_MAX_N_R:
        raise ValueError(f"rank-1 0F0 is evaluated for n_r <= {KUMMER_MAX_N_R}, got n_r = {n_r}")
    sig = np.asarray(sigma1, dtype=float)
    flat = sig.ravel()
    if not np.isfinite(flat).all():
        raise ValueError(f"rank-1 0F0 needs finite sigma, got {flat[~np.isfinite(flat)][0]}")
    if n == n_r:  # L is the identity: the Haar average is etr(S) itself
        big = flat[flat > _EXP_MAX]
        if big.size:
            raise _beyond_double(big[:1].tolist(), n_r)
        out = np.array([math.exp(s) for s in flat.tolist()])
    else:
        pos = flat > 0.0
        mant, log_scale = np.empty(flat.size), np.empty(flat.size)
        for mask, a, z in ((~pos, n, flat), (pos, n_r - n, -flat)):
            if mask.any():
                mant[mask], log_scale[mask] = _kummer_negative(a, n_r, z[mask])
        log_scale[pos] += flat[pos]
        with np.errstate(over="ignore"):
            out = mant * np.exp(log_scale)
        big = ~np.isfinite(out)
        if big.any():
            raise _beyond_double(flat[big][:1].tolist(), n_r)
    return out.reshape(sig.shape) if sig.ndim else float(out[0])


def _most_repeated(x: np.ndarray) -> float:
    """The value repeated most often in x (exact equality); among ties
    0.0, then the smallest magnitude, then the positive one."""
    vals, counts = np.unique(x, return_counts=True)
    tied = vals[counts == counts.max()]
    return min((float(v) + 0.0 for v in tied), key=lambda v: (v != 0.0, abs(v), v < 0))


def haar_oracle(s_diag: Sequence[float], lambda_diag: Sequence[float], samples: int, seed: int):
    """Monte Carlo estimate of the Haar average of etr(S U L U^H).

    The integrand is exp(sum_ik s_i lambda_k |u_ik|^2). Every row and
    column of U is a unit vector, so for any constants c and d it equals,
    pointwise, exp(d sum(s) + c sum(lambda) - n c d) times
    exp(sum_ik (s_i - c)(lambda_k - d) |u_ik|^2). The oracle takes c and d
    as the most repeated values of s and lambda (ties go to 0.0, then the
    smallest magnitude, then the positive value), which leaves the law of
    the estimate unchanged and zeroes as many weights as possible.

    The shifted integrand reads only the r columns of U where
    lambda_k != d, or only the r rows where s_i != c, and each sample
    draws just those: the Q of an n x r complex Ginibre matrix has the
    law of r columns of a Haar U, and, conjugated, of r rows. Fixing the
    phases of R's diagonal would make Q exactly so, but it only
    multiplies each column of Q by a unit phase, which |u_ik|^2 ignores,
    so the fix is skipped. The columns are drawn when lambda - d has no
    more nonzeros than s - c, the rows otherwise. A full-rank pair draws
    n x (n - 1); with r = 0 (a constant spectrum) the integrand is
    constant and nothing is drawn. Returns (estimate, standard_error);
    deterministic given seed, independent of chunking. Non-finite input,
    or an estimate beyond double range, raises ValueError.
    """
    if samples < 1_000:
        raise ValueError("need at least 1000 samples")
    s = np.asarray(s_diag, dtype=float)
    lam = np.asarray(lambda_diag, dtype=float)
    if s.size != lam.size:
        raise ValueError("spectra must have equal length")
    if not (np.isfinite(s).all() and np.isfinite(lam).all()):
        raise ValueError(f"Haar oracle needs finite spectra, got s = {s.tolist()}, lambda = {lam.tolist()}")
    beyond = ValueError(f"Haar oracle leaves double range at s = {s.tolist()}, lambda = {lam.tolist()}")
    n = s.size
    c, d = _most_repeated(s), _most_repeated(lam)
    try:
        factor = math.exp(d * float(s.sum()) + c * float(lam.sum()) - n * c * d)
    except OverflowError:
        raise beyond from None
    s, lam = s - c, lam - d
    cols, rows = np.flatnonzero(lam), np.flatnonzero(s)
    if cols.size <= rows.size:  # |u_ik|^2 for the columns k of U in cols
        w_row, w_col = s, lam[cols]
    else:  # |u_ik|^2 = |conj(u)_ki|^2 for the rows i of U in rows, as columns of U^H
        w_row, w_col = lam, s[rows]
    r = w_col.size
    est, se = factor, 0.0
    if r:
        acc = 0.0
        acc2 = 0.0
        with np.errstate(over="ignore", invalid="ignore"):  # a sum beyond double range raises below
            for key, _, m in chunks(seed, (), samples, _HAAR_CHUNK):
                z = standard_complex_normal(substream(*key), (m, n, r))
                vals = np.empty(m)
                for b in range(0, m, _QR_BLOCK):
                    q = np.linalg.qr(z[b : b + _QR_BLOCK])[0]
                    vals[b : b + _QR_BLOCK] = np.exp(np.einsum("bik,i,k->b", np.abs(q) ** 2, w_row, w_col))
                acc += float(vals.sum())
                acc2 += float((vals**2).sum())
        mean = acc / samples
        var = max(acc2 / samples - mean**2, 0.0)
        est, se = factor * mean, factor * math.sqrt(var / samples)
    # the integrand is exp(.) > 0, so an estimate of 0 has underflowed
    if not (math.isfinite(est) and math.isfinite(se)) or est == 0.0:
        raise beyond
    return est, se


def cluster_spectrum(eigenvalues: Sequence[float]) -> EigenSpectrum:
    """Group numerically coincident eigenvalues into an EigenSpectrum.

    Values whose gap is below COINCIDENCE_RTOL (relative to the spectrum
    scale) are merged into one representative (their mean); values within
    the same tolerance of zero are snapped to exactly zero.
    """
    eigs = np.sort(np.asarray(eigenvalues, dtype=float))[::-1]
    scale = max(1.0, float(np.abs(eigs).max()))
    groups: list[list[float]] = [[eigs[0]]]
    for x in eigs[1:]:
        if groups[-1][-1] - x <= COINCIDENCE_RTOL * scale:
            groups[-1].append(x)
        else:
            groups.append([x])
    values = []
    mults = []
    for g in groups:
        rep = float(np.mean(g))
        if abs(rep) <= COINCIDENCE_RTOL * scale:
            rep = 0.0
        values.append(rep)
        mults.append(len(g))
    return EigenSpectrum(values, mults)
