"""The average SNR as an array axis of the closed-form chain.

A sweep evaluates each closed form once, over all its grid points. Every
array form must equal the per-element scalar calls by ``float.hex()``:
the Gamma scales, the rank-1 parameters, the determinantal m.g.f.
(series, direct and log-domain nodes, and n = n_r), both AEPs, and the
rows of whole sweeps against per-point calls.
"""

import re
from dataclasses import replace

import numpy as np
import pytest

from zfrician import aep, channel, cli, snrdist
from zfrician.channel import LinkBudget
from zfrician.snrdist import Rank1MgfParams


def hexes(values):
    return [float(x).hex() for x in np.ravel(values)]


def random_gamma_s(rng, k=9):
    return np.exp(rng.uniform(np.log(0.05), np.log(2e3), k))


def random_config(rng, **kw):
    n_r = int(rng.integers(2, 13))
    config = dict(
        scenario=str(rng.choice([*channel.PRESET_NAMES, "custom"])),
        fading_case=str(rng.choice(cli.FADING_CASES)),
        n_r=n_r,
        n_t=int(rng.integers(2, n_r + 1)),
        v=1,
        m=int(2 ** rng.integers(1, 5)),
        gamma_b_grid_db=[float(x) for x in np.arange(rng.uniform(-5.0, 5.0), 25.0, rng.uniform(1.0, 6.0))],
        seed=int(rng.integers(1 << 31)),
        k_db=float(rng.uniform(-5.0, 12.0)),
        azimuth_spread_deg=float(rng.uniform(2.0, 60.0)),
    )
    if config["n_t"] > 2 and rng.random() < 0.3:
        config["v"] = 2
    config.update(kw)
    cfg = cli.ExperimentConfig(**config)
    return replace(cfg, methods=tuple(x for x in cfg.resolved_methods() if x != "sim"))


class TestArrayEqualsScalar:
    def test_gamma_scales(self, rng):
        for _ in range(10):
            cfg = random_config(rng, fading_case=str(rng.choice(cli._EXACT_OK)))
            model = cli.build_model(cfg)
            gamma_s = random_gamma_s(rng)
            for stream in range(1, cfg.v + 1):
                exact = snrdist.exact_gamma_snr(model, stream, gamma_s, v=cfg.v).scale
                virtual = snrdist.virtual_gamma_snr(model, stream, gamma_s).scale
                scalar_exact = [snrdist.exact_gamma_snr(model, stream, g, v=cfg.v).scale for g in gamma_s.tolist()]
                scalar_virtual = [snrdist.virtual_gamma_snr(model, stream, g).scale for g in gamma_s.tolist()]
                assert all(type(x) is float for x in scalar_exact + scalar_virtual)
                assert hexes(exact) == hexes(scalar_exact)
                assert hexes(virtual) == hexes(scalar_virtual)

    def test_rank1_params(self, rng):
        for _ in range(10):
            model = cli.build_model(random_config(rng, fading_case="rice_ray", v=1))
            gamma_s = random_gamma_s(rng)
            p = snrdist.rank1_params(model, gamma_s)
            scalar = [snrdist.rank1_params(model, g) for g in gamma_s.tolist()]
            assert hexes(p.gamma_k1) == hexes([q.gamma_k1 for q in scalar])
            assert all(q.alpha == p.alpha and type(q.gamma_k1) is float for q in scalar)

    def test_gamma_s_must_be_one_dimensional(self):
        model = cli.build_model(cli.ExperimentConfig())
        with pytest.raises(ValueError, match="1-D"):
            snrdist.virtual_gamma_snr(model, 1, np.ones((2, 2)))

    @pytest.mark.parametrize(
        "alpha, n_r, n_t, s",
        [
            (0.15, 4, 3, aep._quad_rule(4, 96)[0]),  # series and determinant nodes
            (3.0, 5, 1, aep._quad_rule(8, 96)[0]),  # n = n_r
            (7.5, 12, 5, aep._quad_rule(16, 96)[0]),
            (450.0, 6, 4, np.array([0.5, 0.3, -0.2, 0.0])),  # sigma1 > 200 at s > 0: log domain
        ],
    )
    def test_mgf_gamma1_det(self, alpha, n_r, n_t, s):
        gamma_k1 = np.array([0.9, 0.25, 1.1, 1.7e-3])
        p = Rank1MgfParams(gamma_k1=gamma_k1, alpha=alpha, n=n_r - n_t + 1, n_r=n_r, n_t=n_t)
        rows = snrdist.mgf_gamma1_det(p, s)
        assert rows.shape == (gamma_k1.size, s.size)
        scalar = [snrdist.mgf_gamma1_det(replace(p, gamma_k1=g), x) for g in gamma_k1.tolist() for x in s.tolist()]
        assert hexes(rows) == hexes(scalar)

    def test_aep_exact_condition(self, rng):
        for _ in range(20):
            n, m = int(rng.integers(1, 13)), int(2 ** rng.integers(1, 5))
            scales = np.append(random_gamma_s(rng, 30), 0.0)
            arr = aep.aep_exact_condition(n, scales, m)
            scalar = [aep.aep_exact_condition(n, g, m) for g in scales.tolist()]
            assert all(type(x) is float for x in scalar)
            assert hexes(arr) == hexes(scalar)

    def test_aep_rice_ray_det(self, rng):
        for n_r in range(2, 7):
            for n_t in (1, 2, n_r):  # n_t = 1 gives n = n_r
                if n_t > n_r:
                    continue
                alpha = float(np.exp(rng.uniform(np.log(0.1), np.log(50.0))))
                p = Rank1MgfParams(random_gamma_s(rng, 12) / 40.0, alpha, n_r - n_t + 1, n_r, n_t)
                m = int(2 ** rng.integers(1, 5))
                arr = aep.aep_rice_ray_det(p, m)
                scalar = [aep.aep_rice_ray_det(replace(p, gamma_k1=g), m) for g in p.gamma_k1.tolist()]
                assert all(type(x) is float for x in scalar)
                assert hexes(arr) == hexes(scalar)


def test_sweep_rows_equal_per_point_calls(rng):
    """~20 random sweeps; every closed-form cell equals its own scalar call."""
    refused = 0
    for _ in range(20):
        cfg = random_config(rng)
        model = cli.build_model(cfg)
        n = cfg.n_r - cfg.n_t + 1
        expected = []
        try:
            for gb in cfg.gamma_b_grid_db:
                g = LinkBudget.from_gamma_b_db(gb, cfg.n_t, cfg.m).gamma_s
                for stream in range(1, cfg.v + 1):
                    cells = [None, None, None]
                    if "exact" in cfg.methods:
                        d = snrdist.exact_gamma_snr(model, stream, g, v=cfg.v)
                        cells[0] = aep.aep_exact_condition(n, d.scale, cfg.m).hex()
                    if "approx" in cfg.methods:
                        d = snrdist.virtual_gamma_snr(model, stream, g)
                        cells[1] = aep.aep_exact_condition(n, d.scale, cfg.m).hex()
                    if "determinantal" in cfg.methods and stream == 1:
                        cells[2] = aep.aep_rice_ray_det(snrdist.rank1_params(model, g), cfg.m).hex()
                    expected.append(cells)
        except ValueError as exc:  # a point the determinantal evaluator refuses refuses the sweep
            refused += 1
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                cli.run_experiment(cfg)
            continue
        rows, _ = cli.run_experiment(cfg)
        got = [[None if x is None else x.hex() for x in (r.aep_exact, r.aep_approx, r.aep_det)] for r in rows]
        assert got == expected
    assert refused < 5
