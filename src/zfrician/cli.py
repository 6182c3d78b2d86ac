"""Scenario-driven experiment runner.

Sweeps per-bit SNR over a dB grid for a named fading case, evaluating any
of four methods per stream of the intended block: the exact Gamma-law AEP
(only where the mean-correlation condition gives it meaning), the virtual
(mean-matched) approximation, the determinantal exact AEP for a Rician
stream over Rayleigh interference, and Monte Carlo simulation. Results go
to a CSV with a fixed schema; a text summary reports the condition
residual and the exact-vs-approximate gap.

Config is a JSON file using the field names of ExperimentConfig;
command-line flags override file values.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import numbers
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import aep, channel, mcsim, schur, snrdist
from .channel import ChannelModel, FadingSpec, LinkBudget, SystemDims
from .rng import standard_complex_normal, substream

__all__ = [
    "ExperimentConfig",
    "ResultRow",
    "ExperimentSummary",
    "build_model",
    "run_experiment",
    "emit_csv",
    "main",
]

FADING_CASES = (
    "rayleigh_only",
    "ray_rice_uncorr",
    "rice_rice_condition",
    "rice_ray",
    "ray_rice_corr",
)

METHODS = ("exact", "approx", "determinantal", "sim")

# Cases where the condition holds by construction, so the Gamma-law AEP is
# exact for streams of the intended block.
_EXACT_OK = ("rayleigh_only", "ray_rice_uncorr", "rice_rice_condition")

_SCENARIOS = (*channel.PRESET_NAMES, "custom")

_INT_FIELDS = ("n_r", "n_t", "v", "m", "trials", "seed")
_REAL_FIELDS = ("k_db", "azimuth_spread_deg", "center_azimuth_deg", "antenna_spacing_halfwavelengths")
# dB inputs stay within 10^(+-300) on the linear scale, inside double range.
_DB_LIMIT = 3000.0

_MEAN_STREAM = 7
_SIM_POINT_STREAM = 10


@dataclass
class ExperimentConfig:
    scenario: str = "B1"  # a channel preset name, or "custom"
    fading_case: str = "rice_rice_condition"
    n_r: int = 4
    n_t: int = 3
    v: int = 1
    m: int = 4
    gamma_b_grid_db: list = field(default_factory=lambda: [float(x) for x in range(0, 21, 2)])
    trials: int = 100_000
    seed: int = 2024
    methods: tuple = ()  # empty -> every method valid for the case
    # custom-scenario parameters (ignored for named presets)
    k_db: float | None = None
    azimuth_spread_deg: float | None = None
    center_azimuth_deg: float = 5.0
    antenna_spacing_halfwavelengths: float = 1.0

    def validate(self) -> None:
        """Check the whole config; every failure is a one-line ValueError."""
        for name in _INT_FIELDS:
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        for name in _REAL_FIELDS:
            value = getattr(self, name)
            if value is not None and not (isinstance(value, numbers.Real) and math.isfinite(value)):
                raise ValueError(f"{name} must be a finite number, got {value!r}")
        if self.k_db is not None and abs(self.k_db) > _DB_LIMIT:
            raise ValueError(f"k_db must lie between -{_DB_LIMIT:g} and {_DB_LIMIT:g} dB, got {self.k_db!r}")
        SystemDims(self.n_r, self.n_t, self.v)
        if self.m < 2 or self.m & (self.m - 1):
            raise ValueError(f"m must be a power of two >= 2, got {self.m}")
        if self.scenario not in _SCENARIOS:
            raise ValueError(f"unknown scenario {self.scenario!r}; choose from {_SCENARIOS}")
        if self.fading_case not in FADING_CASES:
            raise ValueError(f"unknown fading case {self.fading_case!r}; choose from {FADING_CASES}")
        if self.scenario == "custom" and (self.k_db is None or self.azimuth_spread_deg is None):
            raise ValueError("custom scenario requires k_db and azimuth_spread_deg")
        for name in ("gamma_b_grid_db", "methods"):
            if not isinstance(getattr(self, name), (list, tuple)):
                raise ValueError(f"{name} must be a list, got {getattr(self, name)!r}")
        grid = list(self.gamma_b_grid_db)
        if not all(isinstance(g, numbers.Real) and math.isfinite(g) and abs(g) <= _DB_LIMIT for g in grid):
            raise ValueError(
                f"gamma_b_grid_db must hold finite numbers between -{_DB_LIMIT:g} and {_DB_LIMIT:g} dB, got {grid}"
            )
        if not grid or any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("gamma_b_grid_db must be nonempty and increasing")
        for meth in self.methods:
            if meth not in METHODS:
                raise ValueError(f"unknown method {meth!r}; choose from {METHODS}")
        methods = self.resolved_methods()
        if "sim" in methods and self.trials < 1_000:
            raise ValueError("simulation requires trials >= 1000")
        case = self.fading_case
        if "exact" in methods and case not in _EXACT_OK:
            if case == "rice_ray":
                raise ValueError(
                    "no Gamma-form closed AEP for the Rician stream; use the determinantal method"
                )
            raise ValueError("no closed form; use sim")
        if "determinantal" in methods:
            if case != "rice_ray":
                raise ValueError("determinantal method applies only to the rice_ray case")
            if self.v != 1:
                raise ValueError("determinantal method requires v = 1")

    def resolved_methods(self) -> tuple:
        if self.methods:
            return tuple(self.methods)
        out = ["approx", "sim"]
        if self.fading_case in _EXACT_OK:
            out.insert(0, "exact")
        if self.fading_case == "rice_ray" and self.v == 1:
            out.insert(-1, "determinantal")
        return tuple(out)


@dataclass
class ResultRow:
    gamma_b_db: float
    stream: int
    aep_exact: float | None = None
    aep_approx: float | None = None
    aep_det: float | None = None
    ser_sim: float | None = None
    ser_ci: float | None = None


@dataclass
class ExperimentSummary:
    fading_case: str
    condition_residual: float
    condition_holds: bool
    max_exact_approx_gap: float | None

    def text(self) -> str:
        lines = [
            f"fading case: {self.fading_case}",
            f"condition residual ||H_d1 - H_d2 r_cond||_F = {self.condition_residual:.6e}"
            f" (holds: {self.condition_holds})",
        ]
        if self.max_exact_approx_gap is not None:
            lines.append(f"max |exact - approx| over grid: {self.max_exact_approx_gap:.6e}")
        return "\n".join(lines)


def _scenario_spec(cfg: ExperimentConfig) -> FadingSpec:
    if cfg.scenario in channel.PRESET_NAMES:
        return channel.preset(cfg.scenario)
    return FadingSpec(
        k_factor=channel.db_to_linear(cfg.k_db),
        azimuth_spread_deg=cfg.azimuth_spread_deg,
        center_azimuth_deg=cfg.center_azimuth_deg,
        antenna_spacing_halfwavelengths=cfg.antenna_spacing_halfwavelengths,
    )


def build_model(cfg: ExperimentConfig) -> ChannelModel:
    """Construct the channel model a fading case calls for.

    The deterministic mean starts from a seeded arbitrary complex matrix
    and is shaped per case: zero intended / interfering blocks where the
    case says so, and for the full-Rician condition case the intended
    block is manufactured as H_d2 @ r_cond so the condition holds exactly.
    The uncorrelated Rayleigh/Rician case zeroes the cross blocks of the
    transmit correlation.
    """
    cfg.validate()
    spec = _scenario_spec(cfg)
    r_t = channel.build_correlation_matrix(spec, cfg.n_t)
    v = cfg.v
    k = spec.k_factor
    case = cfg.fading_case
    if case == "rayleigh_only":
        return channel.channel_from_parts(r_t, np.zeros((cfg.n_r, cfg.n_t)), 0.0)
    # the mean has its own substream, so drawing it after the Rayleigh return changes no bits
    raw = standard_complex_normal(substream(cfg.seed, _MEAN_STREAM), (cfg.n_r, cfg.n_t))
    if case == "ray_rice_uncorr":
        r_t = r_t.copy()
        r_t[:v, v:] = 0.0
        r_t[v:, :v] = 0.0
        r_t *= cfg.n_t / np.trace(r_t).real
        mean = raw.copy()
        mean[:, :v] = 0.0
        return channel.channel_from_parts(r_t, mean, k)
    if case == "ray_rice_corr":
        mean = raw.copy()
        mean[:, :v] = 0.0
        return channel.channel_from_parts(r_t, mean, k)
    if case == "rice_ray":
        mean = np.zeros_like(raw)
        mean[:, :v] = raw[:, :v]
        return channel.channel_from_parts(r_t, mean, k)
    # rice_rice_condition: intended mean manufactured from the interferers
    r_cond, _ = schur.schur_complement(r_t / (k + 1.0), v)
    mean = raw.copy()
    mean[:, :v] = mean[:, v:] @ r_cond
    return channel.channel_from_parts(r_t, mean, k)


def _point_seed(seed: int, idx: int) -> int:
    return int(np.random.SeedSequence(entropy=seed, spawn_key=(_SIM_POINT_STREAM, idx)).generate_state(1)[0])


def _sim_workers(points: int) -> int:
    """Threads for a sweep's simulations: one per grid point, at most one per usable CPU."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return min(points, cpus)


def run_experiment(cfg: ExperimentConfig):
    """Run one configured sweep; returns (rows, summary).

    Each closed form is evaluated once per method and stream, with the
    grid's average SNRs as an array axis. With ``sim``, the grid points'
    simulations run side by side on a thread pool (numpy releases the GIL
    in their heavy steps). Each point draws from its own point seed, so the
    rows do not depend on the worker count.
    """
    model = build_model(cfg)
    methods = cfg.resolved_methods()
    report = schur.check_condition(model, cfg.v)
    n = model.n_r - model.n_t + 1
    grid = cfg.gamma_b_grid_db
    # LinkBudget.from_gamma_b_db's gamma_s, in its scalar order; the budgets themselves only feed sim
    log2_m = np.log2(cfg.m)
    gamma_s = np.array([channel.db_to_linear(gb) * log2_m for gb in grid])

    # the determinantal AEPs go first: a refusal there should not wait for the simulations
    dets = [None] * len(grid)
    if "determinantal" in methods:
        dets = aep.aep_rice_ray_det(snrdist.rank1_params(model, gamma_s), cfg.m).tolist()

    exact, approx = {}, {}
    for stream in range(1, cfg.v + 1):
        if "exact" in methods:
            d = snrdist.exact_gamma_snr(model, stream, gamma_s, v=cfg.v)
            exact[stream] = aep.aep_exact_condition(n, d.scale, cfg.m).tolist()
        if "approx" in methods:
            d = snrdist.virtual_gamma_snr(model, stream, gamma_s)
            approx[stream] = aep.aep_exact_condition(n, d.scale, cfg.m).tolist()

    sims = [None] * len(grid)
    if "sim" in methods:
        budgets = [LinkBudget.from_gamma_b_db(gb, cfg.n_t, cfg.m) for gb in grid]

        def simulate(idx):
            return mcsim.simulate_ser(model, budgets[idx], cfg.m, cfg.trials, _point_seed(cfg.seed, idx))

        with ThreadPoolExecutor(max_workers=_sim_workers(len(budgets))) as pool:
            sims = list(pool.map(simulate, range(len(budgets))))

    rows: list[ResultRow] = []
    gap = None
    for idx, (gb, det_val, sim) in enumerate(zip(grid, dets, sims)):
        for stream in range(1, cfg.v + 1):
            row = ResultRow(gamma_b_db=float(gb), stream=stream)
            if stream in exact:
                row.aep_exact = exact[stream][idx]
            if stream in approx:
                row.aep_approx = approx[stream][idx]
            if det_val is not None and stream == 1:
                row.aep_det = det_val
            if sim is not None:
                row.ser_sim = sim[stream - 1].ser
                row.ser_ci = sim[stream - 1].ci_halfwidth_3sigma
            if row.aep_exact is not None and row.aep_approx is not None:
                g = abs(row.aep_exact - row.aep_approx)
                gap = g if gap is None else max(gap, g)
            rows.append(row)
    summary = ExperimentSummary(
        fading_case=cfg.fading_case,
        condition_residual=report.residual,
        condition_holds=report.holds,
        max_exact_approx_gap=gap,
    )
    return rows, summary


_CSV_HEADER = ["gamma_b_db", "stream", "aep_exact", "aep_approx", "aep_det", "ser_sim", "ser_ci_3sigma"]


def _fmt(x) -> str:
    return "" if x is None else format(x, ".12g")


def emit_csv(rows, path) -> None:
    """Write rows with the fixed header; absent methods leave empty fields.

    Every probability must be finite and in [0, 1]; otherwise nothing is
    written and a ValueError names the first offending field.
    """
    for r in rows:
        for name in ("aep_exact", "aep_approx", "aep_det", "ser_sim"):
            x = getattr(r, name)
            if x is not None and not 0.0 <= x <= 1.0:
                raise ValueError(f"{name} = {x!r} at {r.gamma_b_db:g} dB is not a probability in [0, 1]")
    with open(path, "w", newline="") as fh:
        _write_csv(rows, fh)


def _write_csv(rows, fh) -> None:
    csv.writer(fh).writerows(
        [_CSV_HEADER]
        + [
            [
                _fmt(r.gamma_b_db),
                r.stream,
                _fmt(r.aep_exact),
                _fmt(r.aep_approx),
                _fmt(r.aep_det),
                _fmt(r.ser_sim),
                _fmt(r.ser_ci),
            ]
            for r in rows
        ]
    )


def _parse_grid(text: str) -> list:
    if ":" in text:
        parts = [float(x) for x in text.split(":")]
        if len(parts) != 3 or not all(map(math.isfinite, parts)) or parts[1] == 0:
            raise ValueError(f"grid {text!r}: need finite 'start:step:stop' with a nonzero step")
        start, step, stop = parts
        # count before np.arange allocates: 0:1e-9:1000 would take 7.3 TiB and end in a
        # MemoryError traceback. The cap of 100,000 points is far above any real sweep.
        if (stop + step / 2 - start) / step > 100_000:
            raise ValueError(f"grid {text!r}: more than 100,000 points")
        return [float(x) for x in np.arange(start, stop + step / 2, step)]
    return [float(x) for x in text.split(",")]


def _list_presets() -> str:
    lines = ["available presets (ULA, PAS centered at 5 deg, spacing d_n = 1):"]
    for name, p in channel._PRESETS.items():
        lines.append(f"  {name}: K = {p['k_db']:g} dB, azimuth spread = {p['azimuth_spread_deg']:g} deg")
    return "\n".join(lines)


@functools.cache  # parse_args leaves the parser unchanged, so one serves every main call
def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="zfrician",
        description="ZF error-rate experiments under correlated Rician fading",
    )
    p.add_argument("--config", help="JSON config file (ExperimentConfig field names)")
    p.add_argument("--scenario", choices=_SCENARIOS)
    p.add_argument("--case", dest="fading_case", choices=list(FADING_CASES))
    p.add_argument("--grid", help="dB grid: 'start:step:stop' or comma-separated values")
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--methods", help="comma-separated subset of exact,approx,determinantal,sim")
    p.add_argument("--out", default="results.csv", help="output CSV path")
    p.add_argument("--list-presets", action="store_true")
    return p


def _config_from_args(args) -> ExperimentConfig:
    cfg = ExperimentConfig()
    if args.config:
        with open(args.config) as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError(f"config file must hold a JSON object, got {json.dumps(data)[:40]}")
        unknown = set(data) - set(cfg.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        cfg = replace(cfg, **data)
    if args.scenario:
        cfg.scenario = args.scenario
    if args.fading_case:
        cfg.fading_case = args.fading_case
    if args.grid:
        cfg.gamma_b_grid_db = _parse_grid(args.grid)
    if args.trials is not None:
        cfg.trials = args.trials
    if args.seed is not None:
        cfg.seed = args.seed
    if args.methods:
        cfg.methods = tuple(m.strip() for m in args.methods.split(",") if m.strip())
    return cfg


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.list_presets:
        print(_list_presets())
        return 0
    try:
        cfg = _config_from_args(args)
        rows, summary = run_experiment(cfg)
        emit_csv(rows, args.out)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(summary.text())
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
