"""Bit pins of the determinantal 0F0 path.

The CSV prints twelve significant digits, which cannot show a last-bit
move; these ``float.hex()`` values can. They were taken from the
entry-by-entry table build, so a rewrite of the tables that changes any
rounding step fails here. The inputs cover n_r 2-12, n = n_r (the exp
branch), quadrature nodes on the small-sigma series, direct-determinant
nodes, and log-domain rows (sigma > 200) for v = 1, 2 and 3.
"""

import numpy as np
import pytest

from zfrician.aep import aep_rice_ray_det
from zfrician.hypergeom import f00_rank1_idempotent, f00_rank_v_idempotent
from zfrician.snrdist import Rank1MgfParams, mgf_gamma1_det


def params(gamma_k1, alpha, n_r, n_t):
    return Rank1MgfParams(gamma_k1=gamma_k1, alpha=alpha, n=n_r - n_t + 1, n_r=n_r, n_t=n_t)


# (gamma_k1, alpha, n_r, n_t, M) -> aep_rice_ray_det
AEP_PINS = {
    (0.7, 0.15, 2, 1, 2): "0x1.42abe9baafb9ap-4",  # n = n_r, 54 series nodes
    (3.0, 0.15, 4, 3, 4): "0x1.02fc3249ff21cp-4",  # 30 series nodes
    (0.5, 0.12, 7, 4, 4): "0x1.6f48e980422c8p-3",
    (10.0, 2.0, 3, 2, 8): "0x1.063c2fcb23041p-5",
    (25.0, 7.5, 6, 4, 4): "0x1.21f2f0a150499p-17",
    (1.5, 40.0, 8, 1, 16): "0x1.7b1d48184deb9p-6",  # n = n_r
    (50.0, 3.0, 10, 3, 2): "0x1.fb657fe375e83p-53",
    (4.0, 3.0, 12, 6, 8): "0x1.9b38d9a0f62a8p-8",
    (200.0, 12.0, 12, 11, 4): "0x1.18db3115128fcp-17",
    (8.0, 1.0, 12, 1, 16): "0x1.3a57547aad02ap-7",  # n = n_r
}

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
    assert aep_rice_ray_det(params(*p), m).hex() == AEP_PINS[case]


@pytest.mark.parametrize("case", sorted(RANK_V_PINS))
def test_f00_rank_v_bits(case):
    sigma, n_v, n_r = case
    assert f00_rank_v_idempotent(list(sigma), n_v, n_r).hex() == RANK_V_PINS[case]


def test_rank1_array_bits():
    # series, direct and log-domain entries in one call
    vals = f00_rank1_idempotent(np.array([0.05, -3.0, 250.0]), 2, 6)
    expected = ["0x1.04501156af459p+0", "0x1.ad12cca4658fdp-2", "0x1.9e379f192d5bdp+335"]
    assert [x.hex() for x in vals.tolist()] == expected


def test_mgf_gamma1_det_bits():
    # sigma1 = 280 (log domain), 30 and -5.7
    vals = mgf_gamma1_det(params(1.0, 120.0, 5, 3), np.array([0.7, 0.2, -0.05]))
    expected = ["0x1.62e5bb3043a94p+396", "0x1.c4b3f95965204p+37", "0x1.c083c72164314p-5"]
    assert [x.hex() for x in vals.tolist()] == expected
