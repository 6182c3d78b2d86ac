"""Bit pins of the determinantal 0F0 path.

The CSV prints twelve significant digits, which cannot show a last-bit
move; these ``float.hex()`` values can. The rank-v pins were taken from
the entry-by-entry table build, so a rewrite of the tables that changes any
rounding step fails here. The rank-1 pins were taken from the Kummer
quadrature with numpy's AVX-512 SIMD ``exp`` (x86-64); an ``exp`` that
rounds differently moves their last bits, and their mpmath bounds are the
portable check. A rank-1 pin that the Kummer quadrature moved keeps its
determinant-era value beside it, and one that the closed form moved keeps
its Jacobi-era value. The inputs cover n_r 2-12, n = n_r (the
exp branch), sigma1 on both sides of 0, and log-domain rows (sigma > 200)
of the rank-v determinant for v = 2 and 3.
"""

import numpy as np
import pytest

from zfrician.aep import aep_rice_ray_det
from zfrician.hypergeom import f00_rank1_idempotent, f00_rank_v_idempotent
from zfrician.snrdist import Rank1MgfParams, mgf_gamma1_det

from conftest import mpmath_rice_ray_aep


def params(gamma_k1, alpha, n_r, n_t):
    return Rank1MgfParams(gamma_k1=gamma_k1, alpha=alpha, n=n_r - n_t + 1, n_r=n_r, n_t=n_t)


# (gamma_k1, alpha, n_r, n_t, M) -> aep_rice_ray_det, and the determinant's
# value where the Kummer quadrature moved it
AEP_PINS = {
    (0.7, 0.15, 2, 1, 2): ("0x1.42abe9baafb9ap-4", None),  # n = n_r
    (3.0, 0.15, 4, 3, 4): ("0x1.02fc3249ff20ep-4", "0x1.02fc3249ff21cp-4"),
    (0.5, 0.12, 7, 4, 4): ("0x1.6f48e9803bc2ap-3", "0x1.6f48e980422c8p-3"),
    (10.0, 2.0, 3, 2, 8): ("0x1.063c2fcb2302dp-5", "0x1.063c2fcb23041p-5"),
    (25.0, 7.5, 6, 4, 4): ("0x1.21f2f0a150495p-17", "0x1.21f2f0a150499p-17"),
    (1.5, 40.0, 8, 1, 16): ("0x1.7b1d48184deb9p-6", None),  # n = n_r
    (50.0, 3.0, 10, 3, 2): ("0x1.fb657fe37aee7p-53", "0x1.fb657fe375e83p-53"),
    (4.0, 3.0, 12, 6, 8): ("0x1.9b38dc62f6a81p-8", "0x1.9b38d9a0f62a8p-8"),
    (200.0, 12.0, 12, 11, 4): ("0x1.18db3115128c4p-17", "0x1.18db3115128fcp-17"),
    (8.0, 1.0, 12, 1, 16): ("0x1.3a57547aad02ap-7", None),  # n = n_r
}
MOVED = sorted(case for case, (_, old) in AEP_PINS.items() if old is not None)
# the determinant cancelled here: off mpmath by 4.1e-12 and 1.0e-7
KNOWN_WRONG = [(0.5, 0.12, 7, 4, 4), (4.0, 3.0, 12, 6, 8)]

# (sigma, n_v, n_r) -> f00_rank_v_idempotent
RANK_V_PINS = {
    ((2.3, -1.1), 2, 5): "0x1.e49176eb566ecp+0",
    ((260.0, 245.0), 3, 4): "0x1.211be3e4c6a42p+715",  # both rows log-domain
    ((230.0, -3.5), 4, 7): "0x1.df05378fab912p+312",  # one row log-domain
    ((7.0, 0.6, -4.2), 2, 6): "0x1.5fe85d4e7e8ecp+3",
    ((400.0, 390.0, 380.0), 1, 4): "0x1.4c0575e61ad8ep+563",
}


@pytest.mark.parametrize("case", sorted(AEP_PINS))
def test_aep_rice_ray_det_bits(case):
    *p, m = case
    assert aep_rice_ray_det(params(*p), m).hex() == AEP_PINS[case][0]


@pytest.mark.parametrize("case", MOVED)
def test_moved_aep_pins_against_mpmath(case):
    pytest.importorskip("mpmath")
    *p, m = case
    ref = mpmath_rice_ray_aep(params(*p), m)
    new, old = (float.fromhex(x) for x in AEP_PINS[case])
    assert abs(new - ref) <= 1e-14 * ref
    if case in KNOWN_WRONG:
        assert abs(new - ref) < abs(old - ref)


@pytest.mark.parametrize("case", sorted(RANK_V_PINS))
def test_f00_rank_v_bits(case):
    sigma, n_v, n_r = case
    assert f00_rank_v_idempotent(list(sigma), n_v, n_r).hex() == RANK_V_PINS[case]


def test_rank1_array_bits():
    # Jacobi nodes on both sides of 0; sigma = 250 is the reflection's closed form
    sig = (0.05, -3.0, 250.0)
    vals = f00_rank1_idempotent(np.array(sig), 2, 6)
    # determinant era: 0x1.04501156af459p+0, 0x1.ad12cca4658fdp-2, 0x1.9e379f192d5bdp+335
    # Jacobi era of sigma = 250: 0x1.9e379f192cffbp+335 (2.0e-13 off mpmath)
    expected = ["0x1.04501156af45ap+0", "0x1.ad12cca4658f6p-2", "0x1.9e379f192d5cfp+335"]
    assert [x.hex() for x in vals.tolist()] == expected
    mp = pytest.importorskip("mpmath")
    for x, s, rtol in zip(vals.tolist(), sig, (1e-12, 1e-12, 1e-14)):
        ref = mp.hyp1f1(2, 6, s)
        assert abs(x - ref) <= rtol * ref


def test_mgf_gamma1_det_bits():
    # sigma1 = 280 (the reflection's closed form), 30 and -5.7
    p = params(1.0, 120.0, 5, 3)
    s_vals = (0.7, 0.2, -0.05)
    vals = mgf_gamma1_det(p, np.array(s_vals))
    # determinant era: 0x1.62e5bb3043a94p+396, 0x1.c4b3f95965204p+37, 0x1.c083c72164314p-5
    # Jacobi era of sigma1 = 280: 0x1.62e5bb3042f5dp+396 (4.4e-13 off mpmath)
    expected = ["0x1.62e5bb3043a1fp+396", "0x1.c4b3f95965254p+37", "0x1.c083c72164327p-5"]
    assert [x.hex() for x in vals.tolist()] == expected
    mp = pytest.importorskip("mpmath")
    for x, s, rtol in zip(vals.tolist(), s_vals, (1e-14, 1e-12, 1e-12)):
        one_minus = 1 - mp.mpf(s) * p.gamma_k1
        ref = one_minus ** (-p.n) * mp.hyp1f1(p.n, p.n_r, mp.mpf(s) * p.gamma_k1 * p.alpha / one_minus)
        assert abs(x - ref) <= rtol * ref
