"""MPSK error-probability quadrature."""

import numpy as np
import pytest

from zfrician.aep import (
    aep_exact_condition,
    aep_from_mgf,
    aep_rice_ray_det,
)
from zfrician.snrdist import GammaSnrDist, Rank1MgfParams, mgf_gamma, mgf_gamma1_series

# adaptive quadrature (scipy.integrate.quad, epsabs=1e-14) of the M=4,
# gamma=10 integrand
PE_QPSK_G10 = 0.001564789636945211


def instantaneous_pe(gamma, m):
    """Error probability at a fixed SNR: the AEP of the point-mass m.g.f. exp(s gamma)."""
    return aep_from_mgf(lambda s: np.exp(s * gamma), m)


class TestInstantaneous:
    def test_zero_snr_is_guessing(self):
        for m in (2, 4, 8):
            assert abs(instantaneous_pe(0.0, m) - (m - 1) / m) < 1e-14

    def test_high_snr_vanishes(self):
        assert instantaneous_pe(1e6, 4) <= 1e-12

    def test_frozen_quadrature_oracle(self):
        assert abs(instantaneous_pe(10.0, 4) - PE_QPSK_G10) < 1e-10

    def test_bad_m(self):
        with pytest.raises(ValueError):
            instantaneous_pe(1.0, 3)


class TestFromMgf:
    def test_constant_mgf(self):
        assert abs(aep_from_mgf(np.ones_like, 4) - 0.75) < 1e-14

    def test_gamma_mgf_matches_closed_form(self):
        d = GammaSnrDist(shape=2, scale=4.0, kind="exact")
        a = aep_from_mgf(lambda s: mgf_gamma(d, s), 4)
        b = aep_exact_condition(2, 4.0, 4)
        assert abs(a - b) < 1e-10

    def test_series_path_matches_determinantal_path(self):
        p = Rank1MgfParams(gamma_k1=0.8, alpha=5.0, n=2, n_r=4, n_t=3)
        a = aep_from_mgf(lambda s: [mgf_gamma1_series(p, x) for x in s], 4)
        b = aep_rice_ray_det(p, 4)
        assert abs(a - b) <= 1e-9 * max(a, b)


class TestClosedForms:
    def test_zero_scale_is_guessing(self):
        assert abs(aep_exact_condition(2, 0.0, 4) - 0.75) < 1e-14

    def test_against_link_simulation(self):
        # Gamma(2, 10) is the exact stream law for K=0, identity correlation,
        # gamma_s = 10
        from zfrician.channel import LinkBudget, channel_from_parts
        from zfrician.mcsim import simulate_ser

        model = channel_from_parts(np.eye(3), np.zeros((4, 3)), 0.0)
        budget = LinkBudget.from_es(30.0, 3, 4)
        res = simulate_ser(model, budget, 4, 1_000_000, seed=41)[0]
        pe = aep_exact_condition(2, 10.0, 4)
        assert abs(res.ser - pe) <= res.ci_halfwidth_3sigma


class TestRiceRayDet:
    def params(self, alpha):
        return Rank1MgfParams(gamma_k1=1.3, alpha=alpha, n=2, n_r=4, n_t=3)

    def test_alpha_to_zero_limit(self):
        a = aep_rice_ray_det(self.params(1e-12), 4)
        b = aep_exact_condition(2, 1.3, 4)
        assert abs(a - b) <= 1e-6

    def test_alpha_zero_rejected(self):
        with pytest.raises(ValueError, match="alpha"):
            aep_rice_ray_det(self.params(0.0), 4)

    def test_range_and_monotone(self):
        vals = []
        for gamma in (0.1, 0.4, 1.6, 6.4, 25.6):
            p = Rank1MgfParams(gamma_k1=gamma, alpha=3.0, n=2, n_r=4, n_t=3)
            v = aep_rice_ray_det(p, 4)
            assert 0.0 <= v <= 0.75
            vals.append(v)
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_node_doubling_stable(self):
        p = self.params(4.0)
        assert abs(aep_rice_ray_det(p, 4, nodes=96) - aep_rice_ray_det(p, 4, nodes=192)) <= 1e-10
        a = aep_exact_condition(2, 3.0, 4, nodes=96)
        b = aep_exact_condition(2, 3.0, 4, nodes=192)
        assert abs(a - b) <= 1e-10
