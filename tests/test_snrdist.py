"""SNR distribution objects and m.g.f. forms."""

import numpy as np
import pytest

from zfrician import aep, schur, snrdist
from zfrician.channel import SystemDims, channel_from_parts, db_to_linear
from zfrician.rng import standard_complex_normal, substream
from zfrician.snrdist import (
    GammaSnrDist,
    Rank1MgfParams,
    exact_gamma_snr,
    mgf_gamma,
    mgf_gamma1_det,
    mgf_gamma1_series,
    mgf_sc_conditional,
    mgf_sc_rician_rayleigh,
    rank1_params,
    virtual_gamma_snr,
)

from conftest import draw_channels, random_corr, random_mean, random_model


class TestExactGammaSnr:
    def test_identity_correlation_rayleigh(self):
        m = channel_from_parts(np.eye(3), np.zeros((4, 3)), 0.0)
        d = exact_gamma_snr(m, 1, gamma_s=7.0)
        assert d.shape == 2 and abs(d.scale - 7.0) < 1e-14 and d.kind == "exact"

    def test_k_9db_reduction(self, rng):
        r = random_corr(rng, 3)
        k = db_to_linear(9.0)
        m0 = channel_from_parts(r, np.zeros((4, 3)), 0.0)
        mk = channel_from_parts(r, random_mean(rng, 4, 3), k)
        d0 = exact_gamma_snr(m0, 1, 10.0)
        dk = exact_gamma_snr(mk, 1, 10.0, v=1)
        assert abs(dk.scale - d0.scale / 8.943282347242815) < 1e-12 * d0.scale

    def test_k_plus_one_identity_machine_precision(self, rng):
        # scale(K) * (K+1) recovers scale(0) to floating-point roundoff
        r = random_corr(rng, 3)
        for k in (0.7, 5.0, 7.943282347242815):
            m0 = channel_from_parts(r, np.zeros((4, 3)), 0.0)
            mk = channel_from_parts(r, random_mean(rng, 4, 3), k)
            g0 = exact_gamma_snr(m0, 2, 5.0).scale
            gk = exact_gamma_snr(mk, 2, 5.0, v=2).scale
            assert abs(gk * (k + 1.0) - g0) <= 1e-14 * g0

    def test_scale_decreases_in_k(self, rng):
        r = random_corr(rng, 3)
        scales = []
        for k in (0.0, 1.0, 3.0, 9.0):
            m = channel_from_parts(r, random_mean(rng, 4, 3), k)
            scales.append(exact_gamma_snr(m, 1, 5.0, v=1).scale)
        assert all(b < a for a, b in zip(scales, scales[1:]))

    def test_rician_requires_partition(self, rng):
        m = random_model(rng)
        with pytest.raises(ValueError, match="partition size"):
            exact_gamma_snr(m, 1, 5.0)
        with pytest.raises(ValueError, match="intended block"):
            exact_gamma_snr(m, 2, 5.0, v=1)
        # Rayleigh models accept any stream with no partition stated
        m0 = random_model(rng, k=0.0)
        exact_gamma_snr(m0, 3, 5.0)

    def test_mean_against_simulated_snr(self, rng):
        from zfrician.channel import LinkBudget
        from zfrician.mcsim import sample_snr

        m = random_model(np.random.default_rng(3), condition=True)
        d = exact_gamma_snr(m, 1, 12.0, v=1)
        budget = LinkBudget.from_es(36.0, 3, 4)
        samples = sample_snr(m, budget, 100_000, seed=5)[0].values
        assert abs(samples.mean() / d.mean - 1.0) < 0.01


class TestVirtualGammaSnr:
    def test_rayleigh_matches_exact(self, rng):
        m = random_model(rng, k=0.0)
        for i in (1, 2, 3):
            de = exact_gamma_snr(m, i, 4.0)
            dv = virtual_gamma_snr(m, i, 4.0)
            assert abs(de.scale - dv.scale) < 1e-12 * de.scale
            assert dv.kind == "virtual"

    def test_condition_equalizes_scales(self, rng):
        for _ in range(10):
            m = random_model(rng, condition=True)
            de = exact_gamma_snr(m, 1, 4.0, v=1)
            dv = virtual_gamma_snr(m, 1, 4.0)
            assert abs(de.scale - dv.scale) <= 1e-10 * de.scale

    def test_violation_separates_scales(self, rng):
        # Rician stream over Rayleigh interference with real correlation
        from zfrician.channel import build_correlation_matrix, preset

        spec = preset("B1")
        r = build_correlation_matrix(spec, 3)
        mean = np.zeros((4, 3), dtype=complex)
        mean[:, 0] = random_mean(rng, 4, 1)[:, 0]
        m = channel_from_parts(r, mean, spec.k_factor)
        de = exact_gamma_snr(m, 1, 4.0, v=1)  # formula value; law not exact here
        dv = virtual_gamma_snr(m, 1, 4.0)
        assert abs(de.scale - dv.scale) / de.scale > 1e-3


class TestMgfGamma:
    def test_values(self):
        d = GammaSnrDist(shape=2, scale=3.0, kind="exact")
        assert mgf_gamma(d, 0.0) == 1.0
        assert abs(mgf_gamma(d, -1.0 / 3.0) - 0.25) < 1e-14
        d2 = GammaSnrDist(shape=2, scale=3.0, kind="exact")
        assert abs(mgf_gamma(d2, 0.1) - 0.7**-2) < 1e-12

    def test_pole(self):
        d = GammaSnrDist(shape=2, scale=3.0, kind="exact")
        with pytest.raises(ValueError, match="pole"):
            mgf_gamma(d, 0.5)

    def test_array_argument(self):
        d = GammaSnrDist(shape=2, scale=3.0, kind="exact")
        s = np.array([0.0, -1.0 / 3.0, 0.1])
        assert np.allclose(mgf_gamma(d, s), [1.0, 0.25, 0.7**-2], rtol=1e-12)
        with pytest.raises(ValueError, match="pole"):
            mgf_gamma(d, np.array([-1.0, 0.5]))


class TestRank1Params:
    def test_full_rician_refused(self):
        # B1 with an arbitrary mean in every column: Rician interferers and
        # the condition fails, so the rank-1 m.g.f. does not apply
        from zfrician.channel import build_correlation_matrix, preset

        spec = preset("B1")
        mean = random_mean(np.random.default_rng(3), 4, 3)
        m = channel_from_parts(build_correlation_matrix(spec, 3), mean, spec.k_factor)
        assert not schur.check_condition(m, 1).holds
        with pytest.raises(ValueError, match="zero-mean interfering block"):
            rank1_params(m, 5.0)

    def test_zero_mean_alpha(self, rng):
        m = random_model(rng, k=0.0)
        p = rank1_params(m, 5.0)
        assert p.alpha == 0.0

    def test_identity_correlation_alpha(self, rng):
        mean = np.zeros((4, 3), dtype=complex)
        mean[:, 0] = [1.0, 1.0, 1.0, 1.0]
        k = 3.0
        m = channel_from_parts(np.eye(3), mean, k)
        p = rank1_params(m, 5.0)
        # r_tk = I/(K+1): alpha = (K+1) ||h_d1||^2 = (K+1) * K/(K+1) * 12 / ... here
        # ||h_d1||^2 = K/(K+1)*12 since all power sits in column 1
        expect = (k + 1.0) * (k / (k + 1.0) * 12.0)
        assert abs(p.alpha - expect) < 1e-9
        assert abs(p.gamma_k1 - 5.0 / (k + 1.0)) < 1e-12

    def test_block_inverse_oracle(self, rng):
        from zfrician.channel import build_correlation_matrix, preset

        spec = preset("B1")
        r = build_correlation_matrix(spec, 3)
        mean = np.zeros((4, 3), dtype=complex)
        mean[:, 0] = random_mean(rng, 4, 1)[:, 0]
        m = channel_from_parts(r, mean, spec.k_factor)
        p = rank1_params(m, 5.0)
        r11_up = np.linalg.inv(m.r_tk)[0, 0].real
        mu = m.h_d[:, 0]
        assert abs(p.alpha - r11_up * np.vdot(mu, mu).real) < 1e-10 * p.alpha
        assert abs(p.gamma_k1 - 5.0 / r11_up) < 1e-10 * p.gamma_k1


class TestStream1Mgf:
    def params(self, alpha=2.0):
        return Rank1MgfParams(gamma_k1=1.0, alpha=alpha, n=2, n_r=4, n_t=3)

    def test_alpha_zero_reduces_to_gamma(self):
        p = self.params(alpha=0.0)
        d = GammaSnrDist(shape=2, scale=1.0, kind="exact")
        for s in (-0.5, -2.0, 0.5):
            assert abs(mgf_gamma1_series(p, s) - mgf_gamma(d, s)) < 1e-12

    def test_at_zero(self):
        assert mgf_gamma1_series(self.params(), 0.0) == 1.0
        assert mgf_gamma1_det(self.params(), 0.0) == 1.0

    def test_det_equals_series(self):
        p = self.params(alpha=2.0)
        a = mgf_gamma1_series(p, -0.5)
        b = mgf_gamma1_det(p, -0.5)
        assert abs(a - b) <= 1e-7 * abs(a)

    def test_det_on_quadrature_nodes_equals_scalar_calls(self):
        s = aep._quad_rule(4, 96)[0]
        for alpha in (0.15, 2.0, 40.0):  # alpha 0.15 mixes series and determinant nodes
            p = self.params(alpha=alpha)
            assert mgf_gamma1_det(p, s).tolist() == [mgf_gamma1_det(p, x) for x in s.tolist()]

    def test_det_negative_grid_positive_decreasing(self):
        p = self.params(alpha=2.0)
        vals = [mgf_gamma1_det(p, s) for s in -np.geomspace(0.01, 1e3, 40)]
        assert all(v > 0 for v in vals)
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_pole(self):
        with pytest.raises(ValueError, match="pole"):
            mgf_gamma1_series(self.params(), 1.5)

    def test_condition_collapses_to_pure_gamma(self, rng):
        # v = 1 alignment means alpha = 0, so the series m.g.f. IS the Gamma m.g.f.
        m = random_model(rng, condition=True)
        p = rank1_params(m, 6.0)
        assert p.alpha < 1e-20
        d = exact_gamma_snr(m, 1, 6.0, v=1)
        for s in -np.geomspace(0.01, 100, 10):
            assert abs(mgf_gamma1_series(p, s) - mgf_gamma(d, s)) <= 1e-9

    def test_mean_derivative_vs_monte_carlo(self):
        from zfrician.channel import LinkBudget, build_correlation_matrix, preset
        from zfrician.mcsim import sample_snr

        rng = np.random.default_rng(12)
        spec = preset("A1")
        r = build_correlation_matrix(spec, 3)
        mean = np.zeros((4, 3), dtype=complex)
        mean[:, 0] = random_mean(rng, 4, 1)[:, 0]
        m = channel_from_parts(r, mean, spec.k_factor)
        p = rank1_params(m, 8.0)
        eps = 1e-6
        deriv = (mgf_gamma1_series(p, eps) - mgf_gamma1_series(p, -eps)) / (2 * eps)
        budget = LinkBudget.from_es(24.0, 3, 4)
        vals = sample_snr(m, budget, 400_000, seed=31)[0].values
        se = vals.std(ddof=1) / np.sqrt(vals.size)
        assert abs(deriv - vals.mean()) <= 3 * se


def conditional_sc_draws(model, blocks, h2, q2, count, seed):
    """Draw scalar complements of H1 | H2 for a fixed interferer draw."""
    mean1 = blocks.m_matrix + h2 @ blocks.r_cond
    sc = blocks.sc_corr[0, 0].real
    z = standard_complex_normal(substream(seed), (count, model.n_r, 1))
    h1 = mean1[None, :, :] + np.sqrt(sc) * z
    return np.einsum("bri,rs,bsj->bij", h1.conj(), q2, h1)[:, 0, 0].real


class TestMatrixScMgf:
    def test_theta_zero(self, rng):
        m = random_model(rng)
        blocks = schur.conditional_params(m, 1)
        q2 = np.eye(4)
        assert mgf_sc_conditional(np.zeros((1, 1)), blocks, q2, 2) == 1.0

    def test_zero_mean_is_central_form(self, rng):
        m = random_model(rng, k=0.0)
        blocks = schur.conditional_params(m, 1)
        q2 = np.eye(4) * 0.0
        theta = np.array([[-0.7]])
        expect = float(np.linalg.det(np.eye(1) - theta @ blocks.sc_corr).real) ** (-2)
        assert abs(mgf_sc_conditional(theta, blocks, q2, 2) - expect) < 1e-12

    def test_conditional_against_monte_carlo(self, rng):
        m = random_model(np.random.default_rng(8), condition=False)
        blocks = schur.conditional_params(m, 1)
        h2 = draw_channels(m, 1, seed=77)[0][:, 1:]
        q2 = np.eye(4) - h2 @ np.linalg.solve(h2.conj().T @ h2, h2.conj().T)
        draws = conditional_sc_draws(m, blocks, h2, q2, 100_000, seed=13)
        for theta in (-0.3, -1.0):
            mgf = mgf_sc_conditional(np.array([[theta]]), blocks, q2, 2)
            vals = np.exp(theta * draws)
            se = vals.std(ddof=1) / np.sqrt(vals.size)
            assert abs(mgf - vals.mean()) <= 3 * se

    def test_domain_violation(self, rng):
        m = random_model(rng)
        blocks = schur.conditional_params(m, 1)
        theta = np.array([[10.0 / blocks.sc_corr[0, 0].real]])
        with pytest.raises(ValueError, match="m.g.f. domain"):
            mgf_sc_conditional(theta, blocks, np.eye(4), 2)

    def test_rician_rayleigh_theta_zero(self, rng):
        m = random_model(rng, k=0.0)
        blocks = schur.conditional_params(m, 1)
        dims = SystemDims(4, 3, 1)
        assert mgf_sc_rician_rayleigh(np.zeros((1, 1)), blocks, dims) == 1.0

    def test_rician_rayleigh_requires_zero_interferer_mean(self, rng):
        m = random_model(rng)  # generic Rician mean everywhere
        blocks = schur.conditional_params(m, 1)
        with pytest.raises(ValueError, match="zero-mean interfering"):
            mgf_sc_rician_rayleigh(np.array([[-0.5]]), blocks, SystemDims(4, 3, 1))

    def test_v1_chain_matches_stream1_mgf(self, rng):
        # M_gamma1(s) = M_SC(s * gamma_s) for the scalar split
        mean = np.zeros((4, 3), dtype=complex)
        mean[:, 0] = random_mean(rng, 4, 1)[:, 0]
        m = channel_from_parts(random_corr(rng, 3), mean, 4.0)
        blocks = schur.conditional_params(m, 1)
        dims = SystemDims(4, 3, 1)
        gamma_s = 9.0
        p = rank1_params(m, gamma_s)
        for s in (-0.03, -0.7, -12.0):
            a = mgf_gamma1_series(p, s)
            b = mgf_sc_rician_rayleigh(np.array([[s * gamma_s]]), blocks, dims)
            assert abs(a - b) <= 1e-7 * abs(a)

    def test_v2_against_monte_carlo(self):
        from zfrician.mcsim import sample_sc

        rng = np.random.default_rng(21)
        mean = random_mean(rng, 4, 3)
        mean[:, 2] = 0.0
        m = channel_from_parts(random_corr(rng, 3), mean, 3.0)
        blocks = schur.conditional_params(m, 2)
        dims = SystemDims(4, 3, 2)
        samples = sample_sc(m, 2, 40_000, seed=19)
        for theta_diag in ([-0.5, -0.2], [-1.0, -0.9]):
            theta = np.diag(theta_diag).astype(complex)
            mgf = mgf_sc_rician_rayleigh(theta, blocks, dims)
            vals = np.exp(np.einsum("ij,bji->b", theta, samples).real)
            se = vals.std(ddof=1) / np.sqrt(vals.size)
            assert abs(mgf - vals.mean()) <= 3 * se
