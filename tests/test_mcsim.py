"""Monte Carlo link simulator and goodness-of-fit plumbing."""

import os
import subprocess
import sys

import numpy as np
import pytest

from zfrician import cli, mcsim, schur
from zfrician.channel import LinkBudget, channel_from_parts
from zfrician.mcsim import ks_test_gamma, sample_sc, sample_snr, simulate_ser
from zfrician.rng import MAX_REDRAW_ROUNDS, RETRY_OFFSET, chunks, redraw, standard_complex_normal, substream
from zfrician.snrdist import GammaSnrDist, exact_gamma_snr

from conftest import draw_channels, random_model

EPS = np.finfo(float).eps


def rayleigh_identity_model():
    return channel_from_parts(np.eye(3), np.zeros((4, 3)), 0.0)


def b1_rayleigh_model(n_r, n_t):
    return cli.build_model(cli.ExperimentConfig(scenario="B1", fading_case="rayleigh_only", n_r=n_r, n_t=n_t))


def gramian(h):
    return h.conj().transpose(0, 2, 1) @ h


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

    def test_rank_deficient_model_raises_instead_of_hanging(self):
        # sigma_min / sigma_max of every draw is about 1.4e-12 < RANK_TOL, so
        # no redraw round can succeed
        model = channel_from_parts(np.diag([1.5, 1.5, 3e-24]), np.zeros((4, 3)), 0.0)
        budget = LinkBudget.from_gamma_b_db(5.0, 3, 4)
        with pytest.raises(ValueError, match=r"chunk key \(1, 1, 0\): 1000 draws .*RANK_TOL = 1e-10") as exc:
            simulate_ser(model, budget, 4, 1000, 1)
        assert "\n" not in str(exc.value)

    def test_more_streams_than_receivers_refused(self):
        model = channel_from_parts(np.eye(3), np.ones((2, 3)), 1.0)
        budget = LinkBudget.from_gamma_b_db(10.0, 3, 4)
        with pytest.raises(ValueError, match="need n_t <= n_r for ZF, got n_r = 2, n_t = 3"):
            simulate_ser(model, budget, 4, 1000, 1)
        with pytest.raises(ValueError, match="need n_t <= n_r"):
            sample_snr(model, budget, 1000, 1)


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


def certified_mask(h):
    return mcsim._bad_draws(h, mcsim._gram_schmidt(h)[1])


class TestRankCheck:
    def test_certified_mask_equals_svd_mask_on_random_draws(self, rng):
        for n_r, n_t in [(4, 3), (6, 4), (12, 6), (3, 3)]:
            h = draw_channels(random_model(rng, n_r, n_t), 2_000, seed=n_r * n_t)
            bad = certified_mask(h)
            assert np.array_equal(bad, svd_mask(h))
            assert not bad.any()

    @pytest.mark.parametrize("n", [8, 12])
    def test_b1_square_draws_rarely_reach_the_svd(self, n, monkeypatch):
        # B1's 3-degree spread makes W ill-conditioned; the certificate must
        # still clear 99% of the draws without an SVD
        count = 4_000
        model = b1_rayleigh_model(n, n)
        lapack_svd = np.linalg.svd
        rows = []

        def counting_svd(a, *args, **kwargs):
            rows.append(a.shape[0])
            return lapack_svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        h = draw_channels(model, count, seed=n)
        assert sum(rows) < 0.01 * count
        monkeypatch.setattr(np.linalg, "svd", lapack_svd)
        assert np.array_equal(certified_mask(h), svd_mask(h))

    def test_certified_mask_equals_svd_mask_near_deficient(self, rng):
        # column 1 = column 0 + delta * noise, so sigma_min / sigma_max ~ delta,
        # with delta on both sides of RANK_TOL
        deltas = np.repeat(np.logspace(-4, -14, 41), 5)
        for n_r, n_t in [(4, 3), (8, 5)]:
            h = (rng.standard_normal((deltas.size, n_r, n_t)) + 1j * rng.standard_normal((deltas.size, n_r, n_t))) / 2
            noise = rng.standard_normal((deltas.size, n_r)) + 1j * rng.standard_normal((deltas.size, n_r))
            h[:, :, 1] = h[:, :, 0] + deltas[:, None] * noise
            bad = certified_mask(h)
            assert np.array_equal(bad, svd_mask(h))
            assert bad.any() and not bad.all()


class TestStreams:
    """Faster forms of the simulator's draws keep the old values bit for bit."""

    @pytest.mark.parametrize("shape", [(7,), (16_384, 3), (4, 5, 6)])
    def test_complex_normal_is_the_divided_sum(self, shape):
        for k in range(20):
            z = standard_complex_normal(substream(77, 4, k), shape)
            g = substream(77, 4, k)
            re = g.standard_normal(shape)
            im = g.standard_normal(shape)
            assert z.shape == shape and z.dtype == complex
            assert np.array_equal(z.view(np.uint64), ((re + 1j * im) / np.sqrt(2.0)).view(np.uint64))

    @pytest.mark.parametrize("m", [2, 4, 8, 16, 32, 64])
    def test_constellation_lookup_is_the_per_symbol_exp(self, m):
        sym_idx = substream(78, m).integers(0, m, size=(5_000, 4))
        looked_up = np.exp(2j * np.pi * np.arange(m) / m)[sym_idx]
        assert np.array_equal(looked_up.view(np.uint64), np.exp(2j * np.pi * sym_idx / m).view(np.uint64))


def angle_rule_errors(z, sym_idx, m, sqrt_gs):
    """The phase-rounding decision the sector test replaced: errors, shape of ``sym_idx``."""
    y = np.exp(2j * np.pi * np.arange(m) / m)[sym_idx] + z / sqrt_gs
    det_idx = np.mod(np.rint(np.angle(y) * m / (2.0 * np.pi)), m).astype(np.int64)
    return det_idx != sym_idx


def sector_errors(z, sym_idx, m, sqrt_gs):
    """``simulate_ser``'s decision: the sector test on u = z conj(x) / sqrt(gamma_s)."""
    rotation = np.exp(-2j * np.pi * np.arange(m) / m) / sqrt_gs
    return ~mcsim._in_sector(z * rotation[sym_idx], m)


class TestSectorDecision:
    """The sector test decides as rounding the phase did, off the wedge edges.

    Points exactly on an edge are left out: rounding the phase breaks such a
    tie by round-half-even, the sector test counts it as an error, and
    continuous noise lands there with probability zero.
    """

    M_VALUES = [2, 4, 8, 16, 32, 64]
    SQRT_GS = 3.0

    @pytest.mark.parametrize("m", M_VALUES)
    def test_agrees_with_angle_rule_on_random_points(self, m):
        rng = substream(79, m)
        n = 1_000_000
        sym_idx = rng.integers(0, m, size=n)
        # noise magnitudes from 1e-2 to 1e2 times the signal put points in every wedge
        z = standard_complex_normal(rng, n) * self.SQRT_GS * 10.0 ** rng.uniform(-2.0, 2.0, n)
        ref = angle_rule_errors(z, sym_idx, m, self.SQRT_GS)
        assert 0 < ref.sum() < n
        assert np.array_equal(sector_errors(z, sym_idx, m, self.SQRT_GS), ref)

    @pytest.mark.parametrize("m", M_VALUES)
    def test_agrees_with_angle_rule_beside_every_edge(self, m):
        sym, radius = np.meshgrid(np.arange(m), [0.05, 0.3, 1.0, 2.0, 7.0, 40.0], indexing="ij")
        sym, radius = sym.ravel(), radius.ravel()
        for edge in (-1.0, 1.0):
            for step, inside in ((-1e-9, True), (1e-9, False)):
                offset = edge * (np.pi / m + step)
                y = radius * np.exp(1j * (2.0 * np.pi * sym / m + offset))
                z = (y - np.exp(2j * np.pi * sym / m)) * self.SQRT_GS
                ref = angle_rule_errors(z, sym, m, self.SQRT_GS)
                assert np.all(ref != inside)
                assert np.array_equal(sector_errors(z, sym, m, self.SQRT_GS), ref)


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
        assert redraw(x, bad, draw, lambda rows: next(rejects), key, "fail") == 4
        assert np.array_equal(x[~bad], before[~bad])
        first = draw(substream(*key, RETRY_OFFSET + 1), 3)
        second = draw(substream(*key, RETRY_OFFSET + 2), 1)
        assert np.array_equal(x[[7, 11]], first[1:])
        assert np.array_equal(x[3], second[0])

    def test_redraw_gives_up_after_max_rounds(self):
        key = (5, 9, 0)
        draws = []

        def draw(g, n):
            draws.append(n)
            return standard_complex_normal(g, (n, 3))

        x = draw(substream(*key), 20)
        bad = np.zeros(20, dtype=bool)
        bad[[3, 7]] = True
        message = rf"^chunk key \(5, 9, 0\): 2 draws still fail after {MAX_REDRAW_ROUNDS} redraw rounds$"
        with pytest.raises(ValueError, match=message):
            redraw(x, bad, draw, lambda rows: np.ones(rows.shape[0], dtype=bool), key, "fail")
        assert draws == [20] + [2] * MAX_REDRAW_ROUNDS

    def test_channel_chunks_redraw_from_retry_substream(self, rng, monkeypatch):
        model = random_model(rng)
        seed, count, rows = 31, 1_500, [2, 5]
        # the factor's column order moves neither the draws nor the redraws
        orders = [slice(None), np.r_[1:3, :1], np.r_[2:3, :2], np.array([1, 0, 2])]

        def chunk(order):
            ((_, _, h, q, r_inv),) = mcsim._channel_chunks(model, seed, mcsim._SNR_SPACE, count, order)
            return h, q, r_inv

        clean = chunk(orders[0])[0]
        for order in orders[1:]:
            assert chunk(order)[0].tobytes() == clean.tobytes()
        calls = []

        def fake_bad(h, r_inv):
            calls.append(h.shape[0])
            bad = np.zeros(h.shape[0], dtype=bool)
            if len(calls) == 1:
                bad[rows] = True
            return bad

        monkeypatch.setattr(mcsim, "_bad_draws", fake_bad)
        keep = np.setdiff1d(np.arange(count), rows)
        a_h = schur.ul_decompose(model.r_tk).conj().T
        g = standard_complex_normal(substream(seed, mcsim._SNR_SPACE, 0, RETRY_OFFSET + 1), (len(rows) * 4, 3))
        redrawn = model.h_d + (g @ a_h).reshape(len(rows), 4, 3)
        for order in orders:
            calls.clear()
            with pytest.warns(UserWarning, match="2 rank-deficient channel redraws in 1500"):
                h, q, r_inv = chunk(order)
            assert calls == [count, len(rows)]
            assert h[keep].tobytes() == clean[keep].tobytes()
            assert h[rows].tobytes() == redrawn.tobytes()
            # the replaced rows are refactored, so the factor matches the final draws
            q_ref, r_inv_ref = mcsim._gram_schmidt(h[:, :, order])
            assert np.array_equal(q, q_ref) and np.array_equal(r_inv, r_inv_ref)


class TestBatchedSc:
    @pytest.mark.parametrize("n_r,n_t,v", [(4, 3, 1), (4, 3, 2), (6, 4, 2), (8, 5, 3), (3, 3, 2)])
    def test_matches_per_draw_oracle(self, rng, n_r, n_t, v):
        model = random_model(rng, n_r, n_t)
        seed, count = 40 + n_r, 1_000
        samples = sample_sc(model, v, count, seed)
        ((_, _, h, _, _),) = list(mcsim._channel_chunks(model, seed, mcsim._SC_SPACE, count))
        for k in range(count):
            oracle = schur.gramian_and_sc(h[k], v)
            assert np.abs(samples[k] - oracle).max() <= 1e-12 * np.abs(oracle).max()

    @pytest.mark.parametrize("case", ["rayleigh_only", "rice_ray"])
    @pytest.mark.parametrize("n_r,n_t,v", [(4, 3, 2), (8, 6, 3), (8, 8, 4), (12, 12, 6), (12, 12, 11)])
    def test_b1_matches_lapack_qr(self, case, n_r, n_t, v):
        # B1's 3-degree spread makes W ill-conditioned. The reference is the
        # LAPACK R of the same draws with the interfering columns first; both
        # sides err by about eps cond(W), so the bound is TestGramSchmidtKernel's.
        count, seed = 2_000, 80 + n_r + v
        cfg = cli.ExperimentConfig(scenario="B1", fading_case=case, n_r=n_r, n_t=n_t, v=v)
        model = cli.build_model(cfg)
        samples = sample_sc(model, v, count, seed)
        ((_, _, h, _, _),) = list(mcsim._channel_chunks(model, seed, mcsim._SC_SPACE, count))
        ref = gramian(np.linalg.qr(h[:, :, np.r_[v:n_t, :v]], mode="r")[:, -v:, -v:])
        tol = 64 * EPS * np.linalg.cond(gramian(h))
        err, size = np.linalg.norm(samples - ref, axis=(1, 2)), np.linalg.norm(ref, axis=(1, 2))
        assert np.all(err <= tol * size)
        # unscaled: the complement read from R stays near LAPACK's (at most
        # 1.7e-14 measured), where inv([W^-1]_11) errs by up to 8.5e-8
        assert np.all(err <= 1e-12 * size)


LAPACK_SHAPES = [(2, 2), (3, 3), (4, 3), (6, 4), (8, 6), (8, 8), (12, 8), (12, 12)]


class TestGramSchmidtKernel:
    """ZF outputs and SNRs of the Gram-Schmidt factor against LAPACK on the same draws.

    Both sides err by about eps * cond(W) (normal equations on the LAPACK
    side); the tolerance 64 eps cond(W) per draw was fixed before measuring.
    """

    @staticmethod
    def model(kind, n_r, n_t, rng):
        return random_model(rng, n_r, n_t) if kind == "random" else b1_rayleigh_model(n_r, n_t)

    @pytest.mark.parametrize("kind", ["random", "B1"])
    @pytest.mark.parametrize("n_r,n_t", LAPACK_SHAPES)
    def test_zf_output_matches_lapack_solve(self, rng, kind, n_r, n_t):
        count = 2_000
        model = self.model(kind, n_r, n_t, rng)
        ((_, _, h, q, r_inv),) = list(mcsim._channel_chunks(model, 50 + n_r, mcsim._SER_SPACE, count))
        noise = standard_complex_normal(rng, (count, n_r))
        w = gramian(h)
        ref = np.linalg.solve(w, h.conj().transpose(0, 2, 1) @ noise[:, :, None])[:, :, 0]
        z = mcsim._zf_output(q, r_inv, noise)
        tol = 64 * EPS * np.linalg.cond(w)
        assert np.all(np.linalg.norm(z - ref, axis=1) <= tol * np.linalg.norm(ref, axis=1))

    @pytest.mark.parametrize("kind", ["random", "B1"])
    @pytest.mark.parametrize("n_r,n_t", LAPACK_SHAPES)
    def test_snr_matches_lapack_inverse(self, rng, kind, n_r, n_t):
        count, seed, gamma_s = 2_000, 60 + n_r, 5.0
        model = self.model(kind, n_r, n_t, rng)
        budget = LinkBudget(gamma_s * n_t, gamma_s, gamma_s / 2)
        got = np.stack([s.values for s in sample_snr(model, budget, count, seed)], axis=1)
        ((_, _, h, _, _),) = list(mcsim._channel_chunks(model, seed, mcsim._SNR_SPACE, count))
        w = gramian(h)
        ref = gamma_s / np.einsum("bii->bi", np.linalg.inv(w)).real
        tol = 64 * EPS * np.linalg.cond(w)
        assert np.all(np.abs(got - ref) <= tol[:, None] * ref)


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

    @pytest.mark.parametrize("seed", range(4))
    def test_statistic_equals_scipy_kstest(self, seed):
        from scipy import stats

        model = cli.build_model(cli.ExperimentConfig(scenario="B1", fading_case="rice_rice_condition", seed=seed))
        budget = LinkBudget.from_gamma_b_db(3.0 * seed, model.n_t, 4)
        d = exact_gamma_snr(model, 1, budget.gamma_s, v=1)
        vals = sample_snr(model, budget, 5_000, seed=70 + seed)[0].values
        vals[:3] = [-1.0, 0.0, np.inf]  # outside the support the CDF is 0 or 1
        ref = stats.kstest(vals, stats.gamma(a=d.shape, scale=d.scale).cdf).statistic
        assert ks_test_gamma(vals, d)[0] == ref

    def test_import_leaves_scipy_stats_unloaded(self):
        code = "import sys, zfrician; print('scipy.stats' in sys.modules)"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
        assert out.stdout.strip() == "False"
