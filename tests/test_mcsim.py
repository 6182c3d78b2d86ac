"""Monte Carlo link simulator and goodness-of-fit plumbing."""

import numpy as np
import pytest

from zfrician import mcsim, schur
from zfrician.channel import LinkBudget, channel_from_parts
from zfrician.mcsim import ks_test_gamma, sample_sc, sample_snr, simulate_ser
from zfrician.rng import RETRY_OFFSET, chunks, redraw, standard_complex_normal, substream
from zfrician.snrdist import GammaSnrDist, exact_gamma_snr

from conftest import draw_channels, random_model


def rayleigh_identity_model():
    return channel_from_parts(np.eye(3), np.zeros((4, 3)), 0.0)


class TestSimulateSer:
    def test_noise_free_limit(self):
        model = rayleigh_identity_model()
        budget = LinkBudget.from_gamma_b_db(60.0, 3, 4)
        for r in simulate_ser(model, budget, 4, 100_000, seed=1):
            assert r.ser <= 1e-5

    def test_pure_guessing_limit(self):
        model = rayleigh_identity_model()
        budget = LinkBudget.from_gamma_b_db(-60.0, 3, 4)
        for r in simulate_ser(model, budget, 4, 50_000, seed=1):
            assert abs(r.ser - 0.75) <= r.ci_halfwidth_3sigma

    def test_matches_exact_aep_under_condition(self, rng):
        from zfrician.aep import aep_exact_condition

        m = random_model(np.random.default_rng(2), condition=True)
        budget = LinkBudget.from_gamma_b_db(6.0, 3, 4)
        d = exact_gamma_snr(m, 1, budget.gamma_s, v=1)
        pe = aep_exact_condition(d.shape, d.scale, 4)
        res = simulate_ser(m, budget, 4, 100_000, seed=9)[0]
        assert abs(res.ser - pe) <= res.ci_halfwidth_3sigma

    def test_deterministic(self, rng):
        m = random_model(rng)
        budget = LinkBudget.from_gamma_b_db(5.0, 3, 4)
        a = simulate_ser(m, budget, 4, 20_000, seed=3)
        b = simulate_ser(m, budget, 4, 20_000, seed=3)
        assert a == b

    def test_result_invariants(self, rng):
        m = random_model(rng)
        budget = LinkBudget.from_gamma_b_db(5.0, 3, 4)
        for r in simulate_ser(m, budget, 4, 20_000, seed=3):
            assert r.ser == r.errors / r.trials
            assert abs(r.ci_halfwidth_3sigma - 3 * np.sqrt(r.ser * (1 - r.ser) / r.trials)) < 1e-15

    def test_trial_floor(self, rng):
        m = random_model(rng)
        with pytest.raises(ValueError, match="1000"):
            simulate_ser(m, LinkBudget.from_gamma_b_db(5.0, 3, 4), 4, 100, seed=0)


class TestSampleSnr:
    def test_identity_rayleigh_mean(self):
        model = rayleigh_identity_model()
        budget = LinkBudget.from_es(30.0, 3, 4)  # gamma_s = 10
        streams = sample_snr(model, budget, 100_000, seed=2)
        for s in streams:
            assert abs(s.values.mean() / 20.0 - 1.0) < 0.01  # N * gamma_s = 2 * 10

    def test_ks_accepts_condition_law(self):
        m = random_model(np.random.default_rng(6), condition=True)
        budget = LinkBudget.from_es(30.0, 3, 4)
        d = exact_gamma_snr(m, 1, budget.gamma_s, v=1)
        vals = sample_snr(m, budget, 50_000, seed=8)[0].values
        stat, crit, reject = ks_test_gamma(vals, d)
        assert not reject

    def test_ks_rejects_virtual_law_off_condition(self):
        # B1 Rician stream over Rayleigh interference: the virtual Gamma law
        # is detectably wrong at 1e5 samples
        from zfrician.cli import ExperimentConfig, build_model
        from zfrician.snrdist import virtual_gamma_snr

        cfg = ExperimentConfig(scenario="B1", fading_case="rice_ray", seed=2024)
        m = build_model(cfg)
        budget = LinkBudget.from_es(30.0, 3, 4)
        d = virtual_gamma_snr(m, 1, budget.gamma_s)
        vals = sample_snr(m, budget, 100_000, seed=21)[0].values
        stat, crit, reject = ks_test_gamma(vals, d)
        assert reject

    def test_snr_matches_complement_identity(self, rng):
        # gamma_i from the full inverse equals the complement route per draw
        m = random_model(rng)
        gamma_s = 7.0
        draws = draw_channels(m, 50, seed=4)
        for h in draws:
            w_inv = np.linalg.inv(h.conj().T @ h)
            gamma1 = schur.gramian_and_sc(h, 2)
            inv_sc = np.linalg.inv(gamma1)
            for i in range(2):
                a = gamma_s / w_inv[i, i].real
                b = gamma_s / inv_sc[i, i].real
                assert abs(a - b) <= 1e-9 * a

    def test_positive(self, rng):
        m = random_model(rng)
        vals = sample_snr(m, LinkBudget.from_es(3.0, 3, 4), 2_000, seed=4)
        for s in vals:
            assert (s.values > 0).all()


class TestSampleSc:
    def test_matches_direct_computation(self, rng):
        m = random_model(rng)
        samples = sample_sc(m, 1, 1_000, seed=14)
        assert samples.shape == (1_000, 1, 1)
        assert np.all(samples[:, 0, 0].real > 0)

    def test_wishart_mean_under_condition(self):
        # E{SC} = n_v * sc_corr for the central law
        m = random_model(np.random.default_rng(10), condition=True, v=1)
        blocks = schur.conditional_params(m, 1)
        samples = sample_sc(m, 1, 50_000, seed=15)[:, 0, 0].real
        se = samples.std(ddof=1) / np.sqrt(samples.size)
        assert abs(samples.mean() - 2 * blocks.sc_corr[0, 0].real) <= 3 * se

    def test_rayleigh_reduction(self):
        m = channel_from_parts(np.eye(3), np.zeros((4, 3)), 0.0)
        samples = sample_sc(m, 1, 50_000, seed=16)[:, 0, 0].real
        se = samples.std(ddof=1) / np.sqrt(samples.size)
        assert abs(samples.mean() - 2.0) <= 3 * se  # n_v * 1


def svd_mask(h):
    sv = np.linalg.svd(h, compute_uv=False)
    return sv[:, -1] <= schur.RANK_TOL * sv[:, 0]


class TestRankCheck:
    def test_certified_mask_equals_svd_mask_on_random_draws(self, rng):
        for n_r, n_t in [(4, 3), (6, 4), (12, 6), (3, 3)]:
            h = draw_channels(random_model(rng, n_r, n_t), 2_000, seed=n_r * n_t)
            bad = mcsim._bad_draws(h, mcsim._gramian(h))
            assert np.array_equal(bad, svd_mask(h))
            assert not bad.any()

    def test_certified_mask_equals_svd_mask_near_deficient(self, rng):
        # column 1 = column 0 + delta * noise, so sigma_min / sigma_max ~ delta,
        # with delta on both sides of RANK_TOL
        deltas = np.repeat(np.logspace(-4, -14, 41), 5)
        for n_r, n_t in [(4, 3), (8, 5)]:
            h = (rng.standard_normal((deltas.size, n_r, n_t)) + 1j * rng.standard_normal((deltas.size, n_r, n_t))) / 2
            noise = rng.standard_normal((deltas.size, n_r)) + 1j * rng.standard_normal((deltas.size, n_r))
            h[:, :, 1] = h[:, :, 0] + deltas[:, None] * noise
            bad = mcsim._bad_draws(h, mcsim._gramian(h))
            assert np.array_equal(bad, svd_mask(h))
            assert bad.any() and not bad.all()


class TestChunkDriver:
    def test_chunk_keys_and_sizes(self):
        assert list(chunks(7, (2,), 25, 10)) == [((7, 2, 0), 0, 10), ((7, 2, 1), 10, 10), ((7, 2, 2), 20, 5)]
        assert [key for key, _, _ in chunks(7, (), 10, 10)] == [(7, 0)]

    def test_redraw_replaces_only_flagged_rows(self):
        key = (5, 9, 0)

        def draw(g, n):
            return standard_complex_normal(g, (n, 3))

        x = draw(substream(*key), 20)
        before = x.copy()
        bad = np.zeros(20, dtype=bool)
        bad[[3, 7, 11]] = True
        # the check rejects the first replacement once, then accepts all
        rejects = iter([np.array([True, False, False]), np.array([False])])
        assert redraw(x, bad, draw, lambda rows: next(rejects), key) == 4
        assert np.array_equal(x[~bad], before[~bad])
        first = draw(substream(*key, RETRY_OFFSET + 1), 3)
        second = draw(substream(*key, RETRY_OFFSET + 2), 1)
        assert np.array_equal(x[[7, 11]], first[1:])
        assert np.array_equal(x[3], second[0])

    def test_channel_chunks_redraw_from_retry_substream(self, rng, monkeypatch):
        model = random_model(rng)
        seed, count, rows = 31, 1_500, [2, 5]
        clean = [(h.copy(), w.copy()) for _, _, h, w in mcsim._channel_chunks(model, seed, mcsim._SNR_SPACE, count)]
        calls = []

        def fake_bad(h, w):
            calls.append(h.shape[0])
            bad = np.zeros(h.shape[0], dtype=bool)
            if len(calls) == 1:
                bad[rows] = True
            return bad

        monkeypatch.setattr(mcsim, "_bad_draws", fake_bad)
        with pytest.warns(UserWarning, match="2 rank-deficient channel redraws in 1500"):
            ((_, _, h, w),) = list(mcsim._channel_chunks(model, seed, mcsim._SNR_SPACE, count))
        assert calls == [count, len(rows)]
        keep = np.setdiff1d(np.arange(count), rows)
        assert np.array_equal(h[keep], clean[0][0][keep])
        a_h = schur.ul_decompose(model.r_tk).conj().T
        g = standard_complex_normal(substream(seed, mcsim._SNR_SPACE, 0, RETRY_OFFSET + 1), (len(rows) * 4, 3))
        assert np.array_equal(h[rows], model.h_d + (g @ a_h).reshape(len(rows), 4, 3))
        assert np.array_equal(w, mcsim._gramian(h))


class TestBatchedSc:
    @pytest.mark.parametrize("n_r,n_t,v", [(4, 3, 1), (4, 3, 2), (6, 4, 2), (8, 5, 3), (3, 3, 2)])
    def test_matches_per_draw_oracle(self, rng, n_r, n_t, v):
        model = random_model(rng, n_r, n_t)
        seed, count = 40 + n_r, 1_000
        samples = sample_sc(model, v, count, seed)
        ((_, _, h, _),) = list(mcsim._channel_chunks(model, seed, mcsim._SC_SPACE, count))
        for k in range(count):
            oracle = schur.gramian_and_sc(h[k], v)
            assert np.abs(samples[k] - oracle).max() <= 1e-12 * np.abs(oracle).max()


class TestKsTestGamma:
    def test_calibration(self):
        d = GammaSnrDist(shape=2, scale=3.0, kind="exact")
        rejects = 0
        for seed in range(50):
            vals = np.random.default_rng(seed).gamma(2.0, 3.0, size=10_000)
            rejects += ks_test_gamma(vals, d)[2]
        assert rejects <= 1  # >= 98% acceptance at the 1% level

    def test_power_against_scale_shift(self):
        d = GammaSnrDist(shape=2, scale=3.0, kind="exact")
        vals = np.random.default_rng(0).gamma(2.0, 4.5, size=10_000)
        stat, crit, reject = ks_test_gamma(vals, d)
        assert reject

    def test_critical_value_arithmetic(self):
        d = GammaSnrDist(shape=2, scale=3.0, kind="exact")
        vals = np.random.default_rng(1).gamma(2.0, 3.0, size=100)
        stat, crit, reject = ks_test_gamma(vals, d)
        assert abs(crit - 0.163) < 1e-15
        assert stat < crit

    def test_sample_floor(self):
        d = GammaSnrDist(shape=2, scale=3.0, kind="exact")
        with pytest.raises(ValueError, match="100"):
            ks_test_gamma(np.ones(50), d)
