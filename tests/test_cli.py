"""Experiment runner, CSV emission, gating, and the command-line surface."""

import csv
import json
import threading
import time

import numpy as np
import pytest

from zfrician import channel, cli, schur, snrdist
from zfrician.cli import (
    ExperimentConfig,
    ResultRow,
    build_model,
    emit_csv,
    main,
    run_experiment,
)

from conftest import mpmath_rice_ray_aep


def tiny_cfg(**kw):
    base = dict(
        scenario="B1",
        fading_case="rice_rice_condition",
        gamma_b_grid_db=[0.0, 6.0],
        trials=2_000,
        seed=11,
    )
    base.update(kw)
    return ExperimentConfig(**base)


class TestBuildModel:
    def test_rayleigh_only(self):
        m = build_model(tiny_cfg(fading_case="rayleigh_only"))
        assert m.k_factor == 0.0 and not m.h_d.any()

    def test_ray_rice_uncorr(self):
        m = build_model(tiny_cfg(fading_case="ray_rice_uncorr"))
        assert not m.h_d[:, :1].any() and m.h_d[:, 1:].any()
        assert np.abs(m.r_t[:1, 1:]).max() == 0.0
        assert abs(np.trace(m.r_t).real - 3) < 1e-10
        assert schur.check_condition(m, 1).holds

    def test_rice_rice_condition(self):
        m = build_model(tiny_cfg())
        assert m.h_d.all()
        assert schur.check_condition(m, 1).holds

    def test_rice_ray(self):
        m = build_model(tiny_cfg(fading_case="rice_ray"))
        assert not m.h_d[:, 1:].any() and m.h_d[:, :1].any()
        assert not schur.check_condition(m, 1).holds

    def test_ray_rice_corr(self):
        m = build_model(tiny_cfg(fading_case="ray_rice_corr"))
        assert not m.h_d[:, :1].any()
        assert not schur.check_condition(m, 1).holds

    def test_custom_scenario(self):
        cfg = tiny_cfg(scenario="custom", k_db=5.0, azimuth_spread_deg=30.0)
        m = build_model(cfg)
        assert abs(m.k_factor - 10 ** 0.5) < 1e-12
        with pytest.raises(ValueError, match="custom scenario"):
            build_model(tiny_cfg(scenario="custom"))


class TestGating:
    def test_exact_refused_off_condition(self):
        cfg = tiny_cfg(fading_case="ray_rice_corr", methods=("exact", "sim"))
        with pytest.raises(ValueError, match="no closed form; use sim"):
            run_experiment(cfg)

    def test_exact_refused_for_rice_ray(self):
        cfg = tiny_cfg(fading_case="rice_ray", methods=("exact",))
        with pytest.raises(ValueError, match="determinantal"):
            run_experiment(cfg)

    def test_determinantal_only_rice_ray(self):
        cfg = tiny_cfg(methods=("determinantal",))
        with pytest.raises(ValueError, match="rice_ray"):
            run_experiment(cfg)

    def test_determinantal_needs_v1(self):
        cfg = tiny_cfg(fading_case="rice_ray", v=2, methods=("determinantal",))
        with pytest.raises(ValueError, match="v = 1"):
            run_experiment(cfg)

    def test_default_methods_per_case(self):
        assert tiny_cfg().resolved_methods() == ("exact", "approx", "sim")
        assert tiny_cfg(fading_case="rice_ray").resolved_methods() == (
            "approx",
            "determinantal",
            "sim",
        )
        assert tiny_cfg(fading_case="ray_rice_corr").resolved_methods() == ("approx", "sim")

    def test_config_validation(self):
        with pytest.raises(ValueError, match="increasing"):
            run_experiment(tiny_cfg(gamma_b_grid_db=[4.0, 2.0]))
        with pytest.raises(ValueError, match="unknown fading case"):
            run_experiment(tiny_cfg(fading_case="nope"))
        with pytest.raises(ValueError, match="trials"):
            run_experiment(tiny_cfg(trials=10))


class TestRunExperiment:
    def test_condition_case_exact_equals_approx(self):
        rows, summary = run_experiment(tiny_cfg(methods=("exact", "approx")))
        assert len(rows) == 2  # grid points x v
        for r in rows:
            assert abs(r.aep_exact - r.aep_approx) <= 1e-10
            assert 0.0 <= r.aep_exact <= 1.0
        assert summary.condition_holds
        assert summary.max_exact_approx_gap <= 1e-10

    def test_rayleigh_consistency(self):
        cfg = tiny_cfg(fading_case="rayleigh_only", trials=50_000, gamma_b_grid_db=[4.0])
        rows, summary = run_experiment(cfg)
        (r,) = rows
        assert abs(r.aep_exact - r.aep_approx) <= 1e-12
        assert abs(r.ser_sim - r.aep_exact) <= r.ser_ci

    def test_rice_ray_rows(self):
        cfg = tiny_cfg(fading_case="rice_ray", gamma_b_grid_db=[6.0], methods=("approx", "determinantal"))
        rows, summary = run_experiment(cfg)
        (r,) = rows
        assert r.aep_exact is None
        assert r.aep_det is not None and r.aep_approx is not None
        assert summary.condition_holds is False

    def test_streams_cover_intended_block(self):
        cfg = tiny_cfg(v=2, gamma_b_grid_db=[2.0], methods=("exact", "approx"))
        rows, _ = run_experiment(cfg)
        assert [r.stream for r in rows] == [1, 2]


class TestEmitCsv:
    HEADER = "gamma_b_db,stream,aep_exact,aep_approx,aep_det,ser_sim,ser_ci_3sigma"

    def test_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_csv([], path)
        assert path.read_text().strip() == self.HEADER

    def test_round_trip(self, tmp_path):
        row = ResultRow(gamma_b_db=6.0, stream=1, aep_exact=0.123456789012345, ser_sim=0.1)
        path = tmp_path / "one.csv"
        emit_csv([row], path)
        with open(path) as fh:
            rec = list(csv.DictReader(fh))[0]
        assert float(rec["gamma_b_db"]) == 6.0
        assert int(rec["stream"]) == 1
        assert abs(float(rec["aep_exact"]) - row.aep_exact) < 1e-12  # >= 10 significant digits
        assert rec["aep_det"] == "" and rec["aep_approx"] == ""
        assert float(rec["ser_sim"]) == 0.1

    def test_monotone_exact_column(self, tmp_path):
        cfg = tiny_cfg(gamma_b_grid_db=[0.0, 4.0, 8.0, 12.0], methods=("exact",))
        rows, _ = run_experiment(cfg)
        path = tmp_path / "fig1.csv"
        emit_csv(rows, path)
        with open(path) as fh:
            vals = [float(r["aep_exact"]) for r in csv.DictReader(fh)]
        assert all(b <= a for a, b in zip(vals, vals[1:]))

    def test_byte_identical_reruns(self, tmp_path):
        cfg = tiny_cfg(trials=5_000)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(run_experiment(cfg)[0], p1)
        emit_csv(run_experiment(cfg)[0], p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestSimPool:
    """A sweep's simulations run on a thread pool without changing a byte."""

    def sweep_csv(self, tmp_path, name):
        cfg = tiny_cfg(gamma_b_grid_db=[0.0, 3.0, 6.0, 9.0, 12.0], methods=("exact", "approx", "sim"))
        path = tmp_path / name
        emit_csv(run_experiment(cfg)[0], path)
        return path.read_bytes()

    def test_csv_independent_of_worker_count(self, tmp_path, monkeypatch):
        simulate = cli.mcsim.simulate_ser
        first = cli._point_seed(11, 0)

        def slow_first_point(model, budget, m, trials, seed):
            if seed == first:  # with several workers the first point then finishes last
                time.sleep(0.3)
            return simulate(model, budget, m, trials, seed)

        monkeypatch.setattr(cli.mcsim, "simulate_ser", slow_first_point)
        sized = []
        out = {}
        for workers in (1, 3):

            def fixed(points, workers=workers):
                sized.append(points)
                return workers

            monkeypatch.setattr(cli, "_sim_workers", fixed)
            out[workers] = self.sweep_csv(tmp_path, f"{workers}.csv")
        assert sized == [5, 5]
        assert out[1] == out[3]

    def test_workers_bounded_by_points_and_cpus(self):
        assert cli._sim_workers(1) == 1
        assert 1 <= cli._sim_workers(64) <= 64

    def test_point_failure_exits_one_line(self, tmp_path, capsys, monkeypatch):
        simulate = cli.mcsim.simulate_ser
        failing = cli._point_seed(5, 2)

        def fake(model, budget, m, trials, seed):
            if seed == failing:
                raise ValueError("point 2 failed")
            return simulate(model, budget, m, trials, seed)

        monkeypatch.setattr(cli.mcsim, "simulate_ser", fake)
        out = tmp_path / "out.csv"
        argv = ["--grid", "0:3:12", "--trials", "2000", "--seed", "5", "--methods", "approx,sim", "--out", str(out)]
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: point 2 failed\n"
        assert not out.exists()

    def test_no_worker_thread_left_running(self):
        before = threading.active_count()
        run_experiment(tiny_cfg(gamma_b_grid_db=[0.0, 4.0, 8.0, 12.0]))
        assert threading.active_count() == before

    def test_no_pool_without_sim(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a pool was created for a sweep without sim")

        monkeypatch.setattr(cli, "ThreadPoolExecutor", refuse)
        rows, _ = run_experiment(tiny_cfg(methods=("exact", "approx")))
        assert all(r.ser_sim is None for r in rows)


class TestMain:
    def test_list_presets(self, capsys):
        assert main(["--list-presets"]) == 0
        out = capsys.readouterr().out
        assert channel.PRESET_NAMES == tuple(channel._PRESETS)
        for name, p in channel._PRESETS.items():
            line = f"{name}: K = {p['k_db']:g} dB, azimuth spread = {p['azimuth_spread_deg']:g} deg"
            assert line in out

    def test_error_exit_code(self, capsys):
        rc = main(["--case", "ray_rice_corr", "--methods", "exact", "--trials", "2000"])
        assert rc != 0
        assert "no closed form; use sim" in capsys.readouterr().err

    def test_config_file_with_overrides(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            json.dumps(
                dict(
                    scenario="B1",
                    fading_case="rice_rice_condition",
                    gamma_b_grid_db=[0.0, 4.0],
                    trials=2_000,
                    seed=5,
                    methods=["exact", "approx"],
                )
            )
        )
        out_path = tmp_path / "out.csv"
        rc = main(["--config", str(cfg_path), "--grid", "0:4:8", "--out", str(out_path)])
        assert rc == 0
        with open(out_path) as fh:
            recs = list(csv.DictReader(fh))
        assert [float(r["gamma_b_db"]) for r in recs] == [0.0, 4.0, 8.0]  # flag overrode file
        assert "condition residual" in capsys.readouterr().out

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(dict(nonsense=1)))
        assert main(["--config", str(cfg_path)]) != 0
        assert "unknown config fields" in capsys.readouterr().err


class TestBadInput:
    """Bad config input exits 1 with a one-line message, before any output."""

    def run(self, tmp_path, capsys, args, config=None):
        argv = ["--out", str(tmp_path / "out.csv"), "--trials", "2000", *args]
        if config is not None:
            argv += ["--config", self.write(tmp_path, config)]
        assert main(argv) == 1
        assert not (tmp_path / "out.csv").exists()
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        return err

    @staticmethod
    def write(tmp_path, config):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        return str(cfg_path)

    def test_zero_grid_step(self, tmp_path, capsys):
        assert "nonzero step" in self.run(tmp_path, capsys, ["--grid", "0:0:10"])

    @pytest.mark.parametrize("grid", ["0:1e-9:1000", "-3000:1e-300:3000", "0:1e-4:10"])
    def test_grid_with_too_many_points(self, tmp_path, capsys, grid):
        err = self.run(tmp_path, capsys, [f"--grid={grid}", "--methods", "approx"])
        assert "more than 100,000 points" in err

    def test_grid_at_the_point_cap_parses(self):
        assert len(cli._parse_grid("0:1e-4:9.9999")) == 100_000

    def test_nan_grid(self, tmp_path, capsys):
        assert "finite numbers" in self.run(tmp_path, capsys, ["--grid", "nan"])

    def test_more_streams_than_receivers(self, tmp_path, capsys):
        err = self.run(tmp_path, capsys, ["--methods", "approx"], dict(n_r=2, n_t=3))
        assert "n_t <= n_r" in err

    def test_partition_beyond_streams(self, tmp_path, capsys):
        assert "partition size v" in self.run(tmp_path, capsys, [], dict(v=5))

    def test_non_integer_antenna_count(self, tmp_path, capsys):
        assert "n_r must be an integer" in self.run(tmp_path, capsys, [], dict(n_r="4"))

    def test_constellation_not_power_of_two(self, tmp_path, capsys):
        assert "power of two" in self.run(tmp_path, capsys, [], dict(m=6))

    def test_non_numeric_k_factor(self, tmp_path, capsys):
        config = dict(scenario="custom", k_db="5", azimuth_spread_deg=30.0)
        assert "k_db must be a finite number" in self.run(tmp_path, capsys, [], config)

    def test_methods_not_a_list(self, tmp_path, capsys):
        assert "methods must be a list" in self.run(tmp_path, capsys, [], dict(methods="approx"))

    def test_grid_not_a_list(self, tmp_path, capsys):
        assert "gamma_b_grid_db must be a list" in self.run(tmp_path, capsys, [], dict(gamma_b_grid_db=5))

    def test_huge_grid_value(self, tmp_path, capsys):
        err = self.run(tmp_path, capsys, [], dict(gamma_b_grid_db=[0, 1e9]))
        assert "between -3000 and 3000 dB" in err

    def test_huge_k_factor(self, tmp_path, capsys):
        config = dict(scenario="custom", k_db=1e9, azimuth_spread_deg=30.0)
        assert "k_db must lie between" in self.run(tmp_path, capsys, [], config)

    @pytest.mark.parametrize("data", [5, None, "abc", [1]])
    def test_config_not_an_object(self, tmp_path, capsys, data):
        cfg_path = tmp_path / "raw.json"
        cfg_path.write_text(json.dumps(data))
        assert "must hold a JSON object" in self.run(tmp_path, capsys, ["--config", str(cfg_path)])

    def test_spread_narrower_than_pas_grid(self, tmp_path, capsys):
        config = dict(scenario="custom", k_db=5.0, azimuth_spread_deg=1e-4)
        assert "azimuth_spread_deg 0.0001 is too narrow for the PAS grid" in self.run(tmp_path, capsys, [], config)

    @pytest.mark.parametrize("case", cli.FADING_CASES)
    @pytest.mark.parametrize("spread", [1e-3, 0.01])
    def test_spread_giving_singular_correlation(self, tmp_path, capsys, case, spread):
        config = dict(scenario="custom", fading_case=case, k_db=3.0, azimuth_spread_deg=spread)
        err = self.run(tmp_path, capsys, [], config)
        assert f"azimuth_spread_deg {spread!r} gives a numerically singular transmit correlation at n_t = 3" in err

    def rice_ray_against_mpmath(self, tmp_path, config):
        # the determinantal AEPs of a config, checked point by point against mpmath's 1F1
        out = tmp_path / "det.csv"
        assert main(["--out", str(out), "--methods", "determinantal", "--config", self.write(tmp_path, config)]) == 0
        with open(out) as fh:
            got = [float(r["aep_det"]) for r in csv.DictReader(fh)]
        cfg = ExperimentConfig(**config)
        model = build_model(cfg)
        for gb, val in zip(cfg.gamma_b_grid_db, got, strict=True):
            p = snrdist.rank1_params(model, channel.LinkBudget.from_gamma_b_db(gb, cfg.n_t, cfg.m).gamma_s)
            ref = mpmath_rice_ray_aep(p, cfg.m)
            assert abs(val - ref) <= 1e-10 * ref, (gb, val, ref)

    def test_determinantal_beyond_double_range(self, tmp_path, capsys):
        # n = 28 streams' worth of factorials overflowed the determinant's
        # normalization; the quadrature has none, and refuses only past the
        # n_r its mpmath test covers
        pytest.importorskip("mpmath")
        config = dict(scenario="custom", k_db=-20, azimuth_spread_deg=10, fading_case="rice_ray", n_r=30, n_t=3)
        self.rice_ray_against_mpmath(tmp_path, config)
        err = self.run(tmp_path, capsys, [], {**config, "n_r": 41})
        assert "rank-1 0F0 is evaluated for n_r <= 40, got n_r = 41" in err

    def test_determinantal_not_a_probability(self, tmp_path, capsys, monkeypatch):
        # the n_r = 14 determinant cancelled here (-88.9); the quadrature is exact
        pytest.importorskip("mpmath")
        config = dict(scenario="custom", k_db=-25, azimuth_spread_deg=10, fading_case="rice_ray", n_r=14, n_t=3)
        self.rice_ray_against_mpmath(tmp_path, config)
        # a value outside [0, 1] (here an m.g.f. of -1, so the AEP -3/4) is
        # refused before the simulations run, so emit_csv never sees it
        monkeypatch.setattr(cli.aep, "mgf_gamma1_det", lambda p, s: -np.ones(np.shape(np.multiply.outer(p.gamma_k1, s))))
        err = self.run(tmp_path, capsys, [], config)
        assert err.startswith("error: determinantal AEP = -0.75 ") and "at n_r = 14, n = 12, alpha = " in err

    def test_probability_out_of_range(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli.aep, "aep_exact_condition", lambda n, gamma_ki, m: np.full(np.shape(gamma_ki), np.nan))
        err = self.run(tmp_path, capsys, ["--methods", "approx"])
        assert "aep_approx = nan at 0 dB is not a probability" in err
