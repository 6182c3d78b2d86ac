"""Experiment runner, CSV emission, gating, and the command-line surface."""

import csv
import json

import numpy as np
import pytest

from zfrician import channel, cli, schur
from zfrician.cli import (
    ExperimentConfig,
    ResultRow,
    build_model,
    emit_csv,
    main,
    run_experiment,
)


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
            cfg_path = tmp_path / "cfg.json"
            cfg_path.write_text(json.dumps(config))
            argv += ["--config", str(cfg_path)]
        assert main(argv) == 1
        assert not (tmp_path / "out.csv").exists()
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        return err

    def test_zero_grid_step(self, tmp_path, capsys):
        assert "nonzero step" in self.run(tmp_path, capsys, ["--grid", "0:0:10"])

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

    def test_probability_out_of_range(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli.aep, "aep_exact_condition", lambda *args: float("nan"))
        err = self.run(tmp_path, capsys, ["--methods", "approx"])
        assert "aep_approx = nan at 0 dB is not a probability" in err
