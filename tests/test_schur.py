"""Partitioning, UL factorization, Schur complements, condition diagnostics."""

import numpy as np
import pytest

from zfrician import schur
from zfrician.channel import channel_from_parts

from conftest import draw_channels, random_corr, random_mean, random_model


class TestUlDecompose:
    def test_identity(self):
        a = schur.ul_decompose(np.eye(3))
        assert np.allclose(a, np.eye(3))

    def test_diagonal(self):
        a = schur.ul_decompose(np.diag([2.0, 0.5]))
        assert np.allclose(a, np.diag([np.sqrt(2.0), np.sqrt(0.5)]))

    def test_random_reconstruction_and_block_identities(self, rng):
        for _ in range(20):
            r = random_corr(rng, 3)
            a = schur.ul_decompose(r)
            assert np.abs(a @ a.conj().T - r).max() < 1e-12
            assert np.abs(np.tril(a, -1)).max() == 0.0
            for v in (1, 2):
                a11, a12, a22 = a[:v, :v], a[:v, v:], a[v:, v:]
                r11, r12 = r[:v, :v], r[:v, v:]
                r21, r22 = r[v:, :v], r[v:, v:]
                # interfering-block cross term and the correlation complement
                assert np.abs(r21 - a22 @ a12.conj().T).max() < 1e-10
                sc = r11 - r12 @ np.linalg.solve(r22, r21)
                assert np.abs(a11 @ a11.conj().T - sc).max() < 1e-10

    def test_not_pd_raises(self):
        with pytest.raises(np.linalg.LinAlgError, match="not positive definite"):
            schur.ul_decompose(np.diag([1.0, -1.0]))

    def test_not_hermitian_raises(self):
        with pytest.raises(ValueError, match="Hermitian"):
            schur.ul_decompose(np.array([[1.0, 2.0], [0.0, 1.0]]))


class TestGramianAndSc:
    def test_orthogonal_blocks(self):
        h = np.zeros((4, 3), dtype=complex)
        h[:2, 0] = [1.0, 1j]
        h[2:, 1:] = np.eye(2)
        gamma1 = schur.gramian_and_sc(h, 1)
        assert np.allclose(gamma1, h[:, :1].conj().T @ h[:, :1])

    def test_2x2_determinant_identity(self, rng):
        h = random_mean(rng, 2, 2)
        gamma1 = schur.gramian_and_sc(h, 1)
        w = h.conj().T @ h
        expect = np.linalg.det(w).real / w[1, 1].real
        assert abs(gamma1[0, 0].real - expect) < 1e-9 * max(1.0, abs(expect))

    def test_inverse_diagonal_identity(self, rng):
        # scalar complement equals 1/[W^-1]_11 and is gamma_s-free
        for _ in range(20):
            h = random_mean(rng, 4, 3)
            gamma1 = schur.gramian_and_sc(h, 1)
            w = h.conj().T @ h
            assert abs(gamma1[0, 0].real - 1.0 / np.linalg.inv(w)[0, 0].real) < 1e-9

    def test_block_inverse_consistency(self, rng):
        # (W^11)^-1 from partitioned inversion equals the complement, any v
        for v in (1, 2):
            h = random_mean(rng, 5, 3)
            gamma1 = schur.gramian_and_sc(h, v)
            winv = np.linalg.inv(h.conj().T @ h)
            expect = np.linalg.inv(winv[:v, :v])
            assert np.abs(gamma1 - expect).max() < 1e-9 * max(1.0, np.abs(expect).max())

    def test_rank_deficient_raises(self):
        h = np.ones((4, 3), dtype=complex)
        with pytest.raises(np.linalg.LinAlgError, match="rank deficient"):
            schur.gramian_and_sc(h, 1)


class TestProjectionEigencheck:
    def test_counts_4x3_v1(self, rng):
        h2 = random_mean(rng, 4, 2)
        eigs = schur.projection_eigencheck(h2)
        assert np.abs(eigs[:2]).max() < 1e-9
        assert np.abs(eigs[2:] - 1.0).max() < 1e-9

    def test_canonical_projector(self):
        h2 = np.zeros((4, 1), dtype=complex)
        h2[0, 0] = 1.0
        eigs = schur.projection_eigencheck(h2)
        assert np.allclose(np.sort(eigs), [0.0, 1.0, 1.0, 1.0], atol=1e-12)

    def test_idempotency(self, rng):
        h2 = random_mean(rng, 4, 2)
        q2 = np.eye(4) - h2 @ np.linalg.solve(h2.conj().T @ h2, h2.conj().T)
        assert np.abs(q2 @ q2 - q2).max() < 1e-10


class TestConditionalParams:
    def test_uncorrelated_blocks(self, rng):
        m = channel_from_parts(np.eye(3), random_mean(rng, 4, 3), 2.0)
        blocks = schur.conditional_params(m, 1)
        assert np.allclose(blocks.r_cond, 0)
        assert np.allclose(blocks.m_matrix, m.h_d[:, :1])
        assert np.allclose(blocks.sc_corr, np.eye(1) / 3.0)  # r_tk = I/(K+1)

    def test_condition_by_construction(self, rng):
        m = random_model(rng, condition=True)
        blocks = schur.conditional_params(m, 1)
        assert np.abs(blocks.m_matrix).max() < 1e-12

    def test_block_inverse_oracle(self, rng):
        for v in (1, 2):
            m = random_model(rng, n_t=4, v=v)
            blocks = schur.conditional_params(m, v)
            full_inv = np.linalg.inv(m.r_tk)
            expect = np.linalg.inv(full_inv[:v, :v])
            assert np.abs(blocks.sc_corr - expect).max() < 1e-10

    def test_matches_ul_factor(self, rng):
        m = random_model(rng)
        blocks = schur.conditional_params(m, 1)
        a11 = schur.ul_decompose(m.r_tk)[:1, :1]
        assert np.abs(blocks.sc_corr - a11 @ a11.conj().T).max() < 1e-10

    def test_singular_interferers_raise(self, rng):
        # r is PSD with unit trace but its interfering block is singular
        from zfrician.channel import ChannelModel, normalize_mean

        r = np.diag([1.0, 0.0, 2.0]).astype(complex)
        h_d = np.sqrt(0.5) * normalize_mean(random_mean(rng, 4, 3))
        model = ChannelModel(h_d=h_d, r_t=r, r_tk=r / 2.0, k_factor=1.0)
        with pytest.raises(np.linalg.LinAlgError, match="interfering-block"):
            schur.conditional_params(model, 1)


class TestCheckCondition:
    def test_rayleigh_always_holds(self, rng):
        m = random_model(rng, k=0.0)
        rep = schur.check_condition(m, 1)
        assert rep.holds and rep.residual == 0.0

    def test_uncorrelated_ray_rice_holds(self, rng):
        r = np.eye(3)
        mean = random_mean(rng, 4, 3)
        mean[:, 0] = 0.0
        m = channel_from_parts(r, mean, 3.0)
        rep = schur.check_condition(m, 1)
        assert rep.holds

    def test_rice_ray_fails(self, rng):
        mean = random_mean(rng, 4, 3)
        mean[:, 1:] = 0.0
        m = channel_from_parts(random_corr(rng, 3), mean, 3.0)
        rep = schur.check_condition(m, 1)
        assert not rep.holds
        # with zero interferer mean the residual is just ||h_d1||
        assert abs(rep.residual - np.linalg.norm(m.h_d[:, :1])) < 1e-12


class TestVirtualScale:
    def test_rayleigh_identity(self, rng):
        m = random_model(rng, k=0.0)
        assert np.allclose(schur.virtual_scale(m), m.r_tk)

    def test_unit_mean_arithmetic(self, rng):
        # h_d with h_d^H h_d = (K/(K+1) * n_r) I via scaled unitary columns
        q, _ = np.linalg.qr(random_mean(rng, 4, 3))
        k = 3.0
        h_d = np.sqrt(k / (k + 1) * 4) * q
        r = random_corr(rng, 3)
        m = channel_from_parts(r, h_d, k)
        expect = m.r_tk + (k / (k + 1)) * np.eye(3)
        assert np.abs(schur.virtual_scale(m) - expect).max() < 1e-10

    def test_matches_gramian_mean(self, rng):
        count = 100_000
        m = random_model(rng)
        draws = draw_channels(m, count, seed=11)
        w = draws.conj().transpose(0, 2, 1) @ draws
        emp = w.mean(axis=0)
        se = w.std(axis=0) / np.sqrt(count)
        assert np.all(np.abs(emp - 4 * schur.virtual_scale(m)) <= 3.5 * se)


class TestEquivalenceDiagnostics:
    def test_condition_gives_zero_residual(self, rng):
        for _ in range(100):
            m = random_model(rng, condition=True)
            assert schur.virtual_sc_residual(m, 1) <= 1e-10
            assert schur.whitening_check(m, 1) <= 1e-10

    def test_rayleigh_zero(self, rng):
        m = random_model(rng, k=0.0)
        assert schur.virtual_sc_residual(m, 1) <= 1e-12
        assert schur.whitening_check(m, 1) <= 1e-12

    def test_perturbation_sweep_monotone_from_zero(self, rng):
        residuals = []
        for eps in (1e-4, 1e-3, 1e-2, 1e-1):
            m = random_model(np.random.default_rng(5), condition=True, perturb=eps)
            residuals.append(schur.virtual_sc_residual(m, 1))
        assert all(r > 0 for r in residuals)
        assert all(b > a for a, b in zip(residuals, residuals[1:]))

    def test_residual_iff_condition(self, rng):
        for _ in range(100):
            m = random_model(rng, condition=bool(rng.integers(2)), perturb=0.0)
            rep = schur.check_condition(m, 1)
            resid = schur.virtual_sc_residual(m, 1)
            if rep.holds:
                assert resid <= 1e-10
            else:
                assert resid > 1e-8

    def test_whitening_violation_value(self, rng):
        # residual equals the norm of M projected through the whitening block
        m = random_model(rng, condition=True, perturb=0.05)
        blocks = schur.conditional_params(m, 1)
        a11 = schur.ul_decompose(m.r_tk)[:1, :1]
        expect = np.linalg.norm(blocks.m_matrix @ np.linalg.inv(a11).conj().T)
        assert abs(schur.whitening_check(m, 1) - expect) < 1e-10

    def test_mean_correlation_parallelism(self, rng):
        # under the condition, regressing the mean blocks reproduces r_cond
        for _ in range(20):
            m = random_model(rng, n_r=5, n_t=3, condition=True)
            blocks = schur.conditional_params(m, 1)
            h1, h2 = m.h_d[:, :1], m.h_d[:, 1:]
            gram = h2.conj().T @ h2
            if np.linalg.cond(gram) > 1e8:
                continue
            reg = np.linalg.solve(gram, h2.conj().T @ h1)
            assert np.abs(reg - blocks.r_cond).max() < 1e-9
