"""Channel construction, normalization, and sampling tests."""

import dataclasses
import math
import re

import numpy as np
import pytest
from scipy.integrate import quad

from zfrician import channel
from zfrician.channel import (
    ChannelModel,
    FadingSpec,
    LinkBudget,
    SystemDims,
    build_correlation_matrix,
    channel_from_parts,
    db_to_linear,
    normalize_mean,
    preset,
)
from zfrician.cli import ExperimentConfig, build_model

from conftest import draw_channels, random_corr, random_mean


def spec_with(as_deg=3.0, k=1.0, theta_c=5.0, d_n=1.0):
    return FadingSpec(
        k_factor=k,
        azimuth_spread_deg=as_deg,
        center_azimuth_deg=theta_c,
        antenna_spacing_halfwavelengths=d_n,
    )


def assemble(k, n_r=4, n_t=3):
    """A model from a PAS correlation and a fixed arbitrary complex mean."""
    raw = random_mean(np.random.default_rng(0), n_r, n_t)
    return channel_from_parts(build_correlation_matrix(spec_with(k=k), n_t), raw, k)


def pas_correlation_oracle(sep, as_deg, theta_c_deg, d_n):
    """Adaptive-quadrature evaluation of the truncated-Laplacian correlation."""
    sigma = np.deg2rad(as_deg)
    th_c = np.deg2rad(theta_c_deg)
    b = sigma / np.sqrt(2.0)
    lo, hi = th_c - np.pi, th_c + np.pi
    kw = dict(limit=800, points=[th_c])
    norm = quad(lambda t: np.exp(-abs(t - th_c) / b), lo, hi, **kw)[0]
    re = quad(lambda t: np.cos(2 * np.pi * d_n * sep * np.sin(t)) * np.exp(-abs(t - th_c) / b), lo, hi, **kw)[0]
    im = quad(lambda t: np.sin(2 * np.pi * d_n * sep * np.sin(t)) * np.exp(-abs(t - th_c) / b), lo, hi, **kw)[0]
    return (re + 1j * im) / norm


class TestCorrelationMatrix:
    def test_single_antenna(self):
        r = build_correlation_matrix(spec_with(), 1)
        assert r.shape == (1, 1) and r[0, 0] == 1.0

    def test_hermitian_psd_unit_trace(self):
        for as_deg in (3.0, 20.0, 51.0, 120.0):
            r = build_correlation_matrix(spec_with(as_deg=as_deg), 4)
            assert np.allclose(r, r.conj().T, atol=1e-14)
            assert np.linalg.eigvalsh(r).min() > -1e-12
            assert abs(np.trace(r).real - 4) < 1e-12

    def test_presets_and_moderate_spreads_stay_accepted(self):
        for name in ("B1", "A1"):
            for n_t in range(2, 13):
                build_correlation_matrix(preset(name), n_t)
        for as_deg in np.linspace(2.0, 60.0, 30):
            for n_t in range(2, 7):
                eig = np.linalg.eigvalsh(build_correlation_matrix(spec_with(as_deg=as_deg), n_t))
                assert eig[0] > 1e-6 * eig[-1]

    def test_b1_entry_matches_quadrature_oracle(self):
        # oracle value (adaptive quadrature, sep = -1): high correlation
        oracle = 0.8107268359413632 - 0.49377274149903044j
        r = build_correlation_matrix(spec_with(as_deg=3.0), 3)
        assert abs(r[0, 1] - oracle) < 1e-4
        assert abs(r[0, 1]) > 0.9  # "high transmit correlation"

    def test_large_spread_decorrelates(self):
        # oracle |rho| at AS=180 deg is 0.20347... (the construction's
        # large-AS limit is |J0(2 pi)| ~= 0.22, so ~0.2 is as low as it gets)
        r = build_correlation_matrix(spec_with(as_deg=180.0), 3)
        oracle = pas_correlation_oracle(-1, 180.0, 5.0, 1.0)
        assert abs(abs(r[0, 1]) - abs(oracle)) < 1e-4
        assert abs(r[0, 1]) < 0.25
        assert abs(r[0, 2]) < 0.2

    def test_every_entry_matches_oracle(self):
        r = build_correlation_matrix(spec_with(as_deg=51.0), 3)
        for p in range(3):
            for q in range(3):
                oracle = pas_correlation_oracle(p - q, 51.0, 5.0, 1.0)
                assert abs(r[p, q] - oracle) < 2e-4


class TestCorrelationCache:
    """Each (spec, n_t) is integrated once; callers get copies and never see the cache."""

    def test_mutating_a_result_leaves_the_next_call_unchanged(self):
        channel._correlation.cache_clear()
        spec = spec_with(as_deg=17.0)
        first = build_correlation_matrix(spec, 4)
        want = first.tobytes()
        first[:] = 0.0
        again = build_correlation_matrix(spec, 4)
        assert again.tobytes() == want
        again[0, 1] = 7.0
        assert build_correlation_matrix(spec, 4).tobytes() == want

    @pytest.mark.parametrize(
        "as_deg, match",
        [(1e-4, "is too narrow for the PAS grid"), (0.01, "gives a numerically singular transmit correlation at n_t = 3")],
        ids=["too_narrow", "singular"],
    )
    def test_refusal_repeats(self, as_deg, match):
        for _ in range(2):
            with pytest.raises(ValueError, match=match):
                build_correlation_matrix(spec_with(as_deg=as_deg), 3)

    def test_uncorrelated_case_leaves_the_preset_intact(self):
        channel._correlation.cache_clear()
        cfg = ExperimentConfig(scenario="B1", fading_case="ray_rice_uncorr", n_r=4, n_t=3)
        build_model(cfg)
        model = build_model(dataclasses.replace(cfg, fading_case="rayleigh_only"))
        assert model.r_t.tobytes() == channel._correlation.__wrapped__(preset("B1"), 3).tobytes()

    def test_cache_is_bounded(self):
        maxsize = channel._correlation.cache_info().maxsize
        assert maxsize is not None and 0 < maxsize <= 1024


class TestFadingSpecFinite:
    FIELDS = ("k_factor", "azimuth_spread_deg", "center_azimuth_deg", "antenna_spacing_halfwavelengths")

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("field", FIELDS)
    def test_non_finite_field_refused(self, field, bad):
        kw = dict(k_factor=1.0, azimuth_spread_deg=3.0, center_azimuth_deg=5.0, antenna_spacing_halfwavelengths=1.0)
        kw[field] = bad
        with pytest.raises(ValueError, match=f"^{re.escape(f'{field} must be a finite number, got {bad!r}')}$"):
            FadingSpec(**kw)


class TestNormalizeMean:
    def test_all_ones_unchanged(self):
        raw = np.ones((4, 3), dtype=complex)
        assert np.allclose(normalize_mean(raw), raw)

    def test_identity_padded_scales_by_two(self):
        raw = np.zeros((4, 3), dtype=complex)
        raw[:3, :3] = np.eye(3)
        assert np.allclose(normalize_mean(raw), 2.0 * raw)

    def test_random_norm(self, rng):
        raw = random_mean(rng, 4, 3)
        out = normalize_mean(raw)
        assert abs(np.linalg.norm(out) ** 2 - 12.0) < 1e-12

    def test_zero_raises(self):
        with pytest.raises(ValueError, match="zero mean"):
            normalize_mean(np.zeros((4, 3)))


class TestAssemble:
    def test_rayleigh(self):
        m = assemble(0.0)
        assert not m.h_d.any()
        assert np.allclose(m.r_tk, m.r_t)

    def test_large_k_limit(self):
        m = assemble(1e6)
        assert abs(np.linalg.norm(m.h_d) ** 2 - 12.0) < 1e-4
        assert np.allclose(m.r_tk, m.r_t / (1e6 + 1))

    def test_k_9db_power(self):
        k = db_to_linear(9.0)
        m = assemble(k)
        assert abs(np.linalg.norm(m.h_d) ** 2 - 12 * k / (k + 1)) < 1e-9

    def test_power_ratio_identity(self, rng):
        # ||h_d||^2 / (n_r * trace(r_tk)) recovers the K factor
        for k in (0.5, 3.0, 7.9):
            m = channel_from_parts(random_corr(rng, 3), random_mean(rng, 4, 3), k)
            ratio = np.linalg.norm(m.h_d) ** 2 / (4 * np.trace(m.r_tk).real)
            assert abs(ratio - k) < 1e-9 * max(1.0, k)

    def test_invariants_enforced(self, rng):
        r = random_corr(rng, 3)
        bad_mean = random_mean(rng, 4, 3)  # not power-normalized
        with pytest.raises(ValueError, match="normalization"):
            ChannelModel(h_d=bad_mean, r_t=r, r_tk=r / 2.0, k_factor=1.0)
        with pytest.raises(ValueError, match="trace"):
            ChannelModel(h_d=np.zeros((4, 3)), r_t=2 * r, r_tk=2 * r, k_factor=0.0)


class TestSampleChannel:
    """Channel draws of the simulator's one sampler, ``mcsim._channel_chunks``."""

    def test_mean_and_row_covariance(self, rng):
        count = 100_000
        m = channel_from_parts(random_corr(rng, 3), random_mean(rng, 4, 3), 2.0)
        draws = draw_channels(m, count, seed=42)
        # elementwise mean within 3 standard errors
        resid = draws.mean(axis=0) - m.h_d
        se = 1.0 / np.sqrt(count)  # each entry has unit-variance complex parts scaled by r_tk
        assert np.abs(resid).max() < 3.5 * se * np.sqrt(np.abs(np.diag(m.r_tk)).max())
        # pooled row covariance within 3 empirical SEs per entry
        rows = (draws - m.h_d).reshape(-1, 3)
        outer = rows[:, :, None] * rows.conj()[:, None, :]
        emp = outer.mean(axis=0)
        se = outer.std(axis=0) / np.sqrt(rows.shape[0])
        assert np.all(np.abs(emp - m.r_tk.T) <= 3.5 * se)

    def test_identity_covariance_rayleigh(self, rng):
        count = 50_000
        m = channel_from_parts(np.eye(3), np.zeros((4, 3)), 0.0)
        draws = draw_channels(m, count, seed=3)
        rows = draws.reshape(-1, 3)
        emp = rows.conj().T @ rows / rows.shape[0]
        assert np.abs(emp - np.eye(3)).max() < 3.5 / np.sqrt(rows.shape[0])

    def test_deterministic(self, rng):
        m = channel_from_parts(random_corr(rng, 3), random_mean(rng, 4, 3), 1.0)
        a = draw_channels(m, 1500, seed=7)
        b = draw_channels(m, 1500, seed=7)
        assert a.shape == (1500, 4, 3)
        assert np.array_equal(a, b)


class TestTypes:
    def test_system_dims(self):
        d = SystemDims(4, 3, 1)
        assert d.n_v == 2 and d.n == 2
        with pytest.raises(ValueError):
            SystemDims(3, 4, 1)
        with pytest.raises(ValueError):
            SystemDims(4, 3, 3)

    def test_link_budget(self):
        b = LinkBudget.from_gamma_b_db(10.0, 3, 4)
        assert abs(b.gamma_b - 10.0) < 1e-12
        assert abs(b.gamma_s - 20.0) < 1e-12
        assert abs(b.gamma_s * 3 - b.es_over_n0) < 1e-12

    def test_presets(self):
        b1 = preset("B1")
        a1 = preset("A1")
        assert abs(b1.k_factor - db_to_linear(9.0)) < 1e-12
        assert abs(a1.k_factor - db_to_linear(7.0)) < 1e-12
        assert b1.azimuth_spread_deg == 3.0 and a1.azimuth_spread_deg == 51.0
        with pytest.raises(ValueError, match="unknown preset"):
            preset("C9")
