"""The three benchmark workloads: input generation, units of work and gates.

A workload is an endless, seeded sequence of rounds of units; a run ends
on a round boundary, so every run sees the same mix of unit kinds.
``prepare`` does the untimed set-up a unit needs (writing its CLI config,
building its model), ``run`` is the timed call into the program's public
API, ``digest`` turns the result into bytes for the determinism checks,
and ``check`` is the correctness gate.

Every statistical gate allows a correct program to fail one unit with
probability below ``ALPHA_UNIT``: the budget is split evenly over the
checks a unit makes.

Why these workloads:

* ``sim_sweep``: the AC5 CLI sweep with ``sim``.  Nearly all of its time
  is ``mcsim.simulate_ser``, so a Monte Carlo change shows here and a
  closed-form change predicts no change.
* ``analytic_sweep``: closed forms only (``mcsim`` idle), CLI sweeps over
  every fading case up to n_r = 12 and random rank-1 determinantal AEPs
  up to n_r = 6.
* ``mc_validation``: the oracle checks (AC8, AC2 and AC4 shapes), which
  use ``mcsim`` and ``schur`` through ``sample_sc``, ``sample_snr`` and the
  Haar oracle rather than through ``simulate_ser``.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy import stats
from scipy.special import roots_legendre

from zfrician import aep, channel, cli, hypergeom, mcsim, schur, snrdist
from zfrician.channel import LinkBudget, SystemDims
from zfrician.snrdist import Rank1MgfParams

# Chance that a correct program fails the gate of one unit.
ALPHA_UNIT = 1e-5

# Rank-1 AEPs must match the mpmath reference to this relative tolerance.
AEP_RTOL = 1e-6

# The antenna counts the package's own tests cover.  Rank-1 determinantal
# AEPs are timed only up to here: above it the determinant-vs-series switch
# is known to be wrong (ROADMAP item 2), and a timed unit must not fail.
# ``AnalyticSweep.defect_probe`` keeps that defect in the run record.
TESTED_MAX_N_R = 6

M = 4


@dataclass
class Unit:
    kind: str
    params: dict
    work: int  # trials, AEP points or draws the unit produces
    n_r: int = 4
    shape: str = ""  # finer than ``kind``: units of one shape cost about the same
    cache: dict = field(default_factory=dict, repr=False)

    @property
    def group(self) -> str:
        """The latency group: kind and shape."""
        return f"{self.kind}:{self.shape}" if self.shape else self.kind


def z_limit(checks: int) -> float:
    """Two-sided |z| bound for one of ``checks`` Gaussian checks in a unit."""
    return float(stats.norm.isf(ALPHA_UNIT / checks / 2.0))


def _grid(start: float, step: float, stop: float) -> list:
    return [float(x) for x in np.arange(start, stop + step / 2, step)]


def _seed(rng: np.random.Generator) -> int:
    return int(rng.integers(1 << 31))


def _shuffled(rng: np.random.Generator, values) -> list:
    """``values`` in a seeded random order."""
    values = list(values)
    return [values[i] for i in rng.permutation(len(values))]


def _cycle(rng: np.random.Generator, values):
    """Endless seeded shuffles of ``values``, each value once per pass.

    Drawing costly choices (n_r, scenario) this way keeps the mix of cheap
    and costly units in a run nearly the same for every seed.
    """
    while True:
        yield from _shuffled(rng, values)


def _warm_caches() -> None:
    """Fill the program's lazy caches (the quadrature rule) before timing."""
    aep.aep_exact_condition(1, 1.0, M)


def _parse_csv(text: bytes) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text.decode())))


def _probability_fields_ok(rows: list[dict]) -> bool:
    for row in rows:
        for key in ("aep_exact", "aep_approx", "aep_det", "ser_sim", "ser_ci_3sigma"):
            if row[key] == "":
                continue
            x = float(row[key])
            if not (math.isfinite(x) and 0.0 <= x <= 1.0):
                return False
    return True


class _CliWorkload:
    """Units that are one in-process CLI sweep each, config file to CSV."""

    def __init__(self, seed: int, workdir: Path) -> None:
        self.rng = np.random.default_rng(seed)
        self.config_path = workdir / "config.json"
        self.csv_path = workdir / "out.csv"

    def _cli_unit(self, config: dict, n_points: int) -> Unit:
        return Unit("cli", {"config": config}, work=n_points, n_r=config["n_r"], shape=config["fading_case"])

    def warm(self, unit: Unit) -> None:
        if unit.kind == "cli":
            cli.build_model(cli.ExperimentConfig(**unit.params["config"]))
        _warm_caches()

    def prepare(self, unit: Unit) -> None:
        if unit.kind == "cli":
            self.config_path.write_text(json.dumps(unit.params["config"]))

    def run(self, unit: Unit):
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["--config", str(self.config_path), "--out", str(self.csv_path)])
        if code != 0:
            raise RuntimeError(f"cli exited with {code}")
        return self.csv_path.read_bytes()

    def digest(self, unit: Unit, result) -> bytes:
        return result


class SimSweep(_CliWorkload):
    """B1 rice_rice_condition 4x3, grid 0:2:14, methods exact,approx,sim."""

    name = "sim_sweep"
    throughput_name = "sim_trials_per_s"
    TRIALS = 5_000
    GRID = _grid(0, 2, 14)

    def rounds(self):
        while True:
            config = {
                "scenario": "B1",
                "fading_case": "rice_rice_condition",
                "n_r": 4,
                "n_t": 3,
                "v": 1,
                "m": M,
                "gamma_b_grid_db": self.GRID,
                "trials": self.TRIALS,
                "seed": _seed(self.rng),
                "methods": ["exact", "approx", "sim"],
            }
            yield [self._cli_unit(config, self.TRIALS * len(self.GRID))]

    def check(self, unit: Unit, result: bytes) -> str | None:
        rows = _parse_csv(result)
        if len(rows) != len(self.GRID) or not _probability_fields_ok(rows):
            return "bad CSV shape or field outside [0, 1]"
        alpha = ALPHA_UNIT / len(rows)
        for row in rows:
            exact, approx = float(row["aep_exact"]), float(row["aep_approx"])
            if abs(exact - approx) > 1e-10:
                return f"exact-approx gap {abs(exact - approx):.3g}"
            errors = round(float(row["ser_sim"]) * self.TRIALS)
            p_value = stats.binomtest(errors, self.TRIALS, exact).pvalue
            if p_value < alpha:
                return f"sim SER off at {row['gamma_b_db']} dB (p={p_value:.2g})"
        return None


class AnalyticSweep(_CliWorkload):
    """Closed forms only: CLI sweeps without sim, plus random rank-1 AEPs."""

    name = "analytic_sweep"
    throughput_name = "aep_points_per_s"
    GRID = _grid(0, 1, 20)
    # Every round sweeps each fading case at every (n_r, n_t) shape once and
    # evaluates RANK1_PER_SHAPE rank-1 AEPs at every tested shape, so all
    # runs time the same mix of shapes; the seed draws the values.
    SWEEP_SHAPES = [(n_r, n_t) for n_r in range(2, 13) for n_t in range(2, min(n_r, 6) + 1)]
    RANK1_SHAPES = [(n_r, n_t) for n_r in range(2, TESTED_MAX_N_R + 1) for n_t in range(2, n_r + 1)]
    RANK1_PER_SHAPE = 10
    _QUAD_NODES = aep.QUADRATURE_NODES

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self._scenarios = _cycle(self.rng, ["B1", "A1", "custom"])
        self._probe_rng = np.random.default_rng([seed, 1])

    def _sweep_config(self, case: str, n_r: int, n_t: int) -> dict:
        rng = self.rng
        scenario = next(self._scenarios)
        config = {
            "scenario": scenario,
            "fading_case": case,
            "n_r": n_r,
            "n_t": n_t,
            "v": 1,
            "m": M,
            "gamma_b_grid_db": self.GRID,
            "seed": _seed(rng),
        }
        if scenario == "custom":
            config["k_db"] = float(rng.uniform(-5.0, 12.0))
            config["azimuth_spread_deg"] = float(rng.uniform(2.0, 60.0))
        methods = [m for m in cli.ExperimentConfig(**config).resolved_methods() if m != "sim"]
        config["methods"] = methods
        return config

    @staticmethod
    def _rank1_params(rng: np.random.Generator, n_r: int, n_t: int) -> Rank1MgfParams:
        return Rank1MgfParams(
            gamma_k1=float(np.exp(rng.uniform(np.log(0.05), np.log(50.0)))),
            alpha=float(np.exp(rng.uniform(np.log(0.1), np.log(50.0)))),
            n=n_r - n_t + 1,
            n_r=n_r,
            n_t=n_t,
        )

    def rounds(self):
        while True:
            batch = []
            for case in cli.FADING_CASES:
                for n_r, n_t in self.SWEEP_SHAPES:
                    config = self._sweep_config(case, n_r, n_t)
                    batch.append(self._cli_unit(config, len(self.GRID) * len(config["methods"])))
            for n_r, n_t in self.RANK1_SHAPES * self.RANK1_PER_SHAPE:
                p = self._rank1_params(self.rng, n_r, n_t)
                batch.append(Unit("rank1", {"p": p}, work=1, n_r=n_r))
            yield _shuffled(self.rng, batch)

    def run(self, unit: Unit):
        if unit.kind == "cli":
            return super().run(unit)
        return aep.aep_rice_ray_det(unit.params["p"], M)

    def digest(self, unit: Unit, result) -> bytes:
        return result if unit.kind == "cli" else repr(result).encode()

    def reference_aep(self, p: Rank1MgfParams) -> float:
        """Stream-1 AEP from mpmath's 1F1 on the same 96-node Gauss-Legendre rule."""
        import mpmath as mp

        x, w = roots_legendre(self._QUAD_NODES)
        upper = (M - 1) * math.pi / M
        theta = 0.5 * upper * (x + 1.0)
        g = math.sin(math.pi / M) ** 2
        total = mp.mpf(0)
        for t, wt in zip(theta, 0.5 * upper * w):
            s = mp.mpf(-g) / mp.sin(mp.mpf(t)) ** 2
            one_minus = 1 - s * p.gamma_k1
            sigma1 = s * p.gamma_k1 * p.alpha / one_minus
            total += wt * one_minus ** (-p.n) * mp.hyp1f1(p.n, p.n_r, sigma1)
        return float(total / mp.pi)

    def rank1_error(self, p: Rank1MgfParams, value: float) -> float:
        ref = self.reference_aep(p)
        return abs(value - ref) / abs(ref)

    def check(self, unit: Unit, result) -> str | None:
        if unit.kind == "cli":
            rows = _parse_csv(result)
            if len(rows) != len(self.GRID) or not _probability_fields_ok(rows):
                return "CSV field not finite or outside [0, 1]"
            return None
        err = self.rank1_error(unit.params["p"], result)
        if not err <= AEP_RTOL:
            return f"rank-1 AEP relative error {err:.3g} at n_r={unit.n_r}"
        return None

    def defect_probe(self, per_n_r: int = 10) -> dict:
        """Untimed: rank-1 AEPs at n_r 7 to 12 gated like the timed ones.

        These antenna counts are left out of the timed units because the
        determinantal path is known to be wrong there; the probe keeps
        how often and how badly in the run record, so a fix shows.
        """
        rng = self._probe_rng
        worst, failed = {}, 0
        n_rs = range(TESTED_MAX_N_R + 1, 13)
        for n_r in n_rs:
            errs = []
            for _ in range(per_n_r):
                p = self._rank1_params(rng, n_r, int(rng.integers(2, n_r + 1)))
                try:
                    errs.append(self.rank1_error(p, aep.aep_rice_ray_det(p, M)))
                except Exception:  # raising is part of the defect being probed
                    errs.append(math.inf)
            failed += sum(not e <= AEP_RTOL for e in errs)
            worst[str(n_r)] = max(errs)
        return {"attempted": per_n_r * len(n_rs), "failed": failed, "worst_rel_error_by_n_r": worst}


def _random_corr(rng: np.random.Generator, n_t: int) -> np.ndarray:
    a = (rng.standard_normal((n_t, n_t)) + 1j * rng.standard_normal((n_t, n_t))) / np.sqrt(2)
    r = a @ a.conj().T + 0.5 * np.eye(n_t)
    return r * (n_t / np.trace(r).real)


def _random_mean(rng: np.random.Generator, n_r: int, n_t: int) -> np.ndarray:
    return (rng.standard_normal((n_r, n_t)) + 1j * rng.standard_normal((n_r, n_t))) / np.sqrt(2)


def _spread_spectrum(rng: np.random.Generator, size: int) -> np.ndarray:
    while True:
        vals = np.sort(rng.uniform(-1.5, 1.5, size))[::-1]
        if np.min(-np.diff(vals)) > 0.15:
            return vals


def _hash(*arrays) -> bytes:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.digest()


class McValidation:
    """Oracle checks: Schur-complement m.g.f. (AC8), Haar 0F0 (AC2), Gamma law (AC4)."""

    name = "mc_validation"
    throughput_name = "mc_draws_per_s"
    # Draw counts chosen so that each kind of case takes about 250 ms at
    # the seed commit: with similar costs the median case latency does not
    # jump between kinds from one run to the next.
    SC_DRAWS = 2_400
    SC_THETAS = 5
    HAAR_SAMPLES = {3: 90_000, 4: 55_000}
    SNR_DRAWS = 27_000

    def __init__(self, seed: int, workdir: Path) -> None:
        self.rng = np.random.default_rng(seed)

    def rounds(self):
        while True:
            # One round: each Haar case shape of AC2 (distinct spectra of
            # size 3 or 4, or rank-2 S) once, each with an AC8 and an AC4 case.
            batch = []
            for haar_size in _shuffled(self.rng, [3, 4, None]):
                batch += self._cases(haar_size)
            yield batch

    def _cases(self, haar_size) -> list[Unit]:
        """One AC8 case, one AC2 case with the given Haar shape, one AC4 case."""
        rng = self.rng
        mean = _random_mean(rng, 4, 3)
        mean[:, 2] = 0.0
        theta_steps = [rng.uniform(0.05, 0.5, size=2) for _ in range(self.SC_THETAS)]
        sc = Unit(
            "sc",
            {"corr": _random_corr(rng, 3), "mean": mean, "k": float(rng.uniform(1.0, 8.0)),
             "theta_steps": theta_steps, "seed": _seed(rng)},
            work=self.SC_DRAWS,
        )
        if haar_size:
            haar = {"sigma": _spread_spectrum(rng, haar_size), "lam": _spread_spectrum(rng, haar_size)}
        else:
            sig = np.sort(rng.uniform(0.3, 2.5, 2))[::-1]
            if sig[0] - sig[1] < 0.1:
                sig[0] += 0.2
            haar = {"sigma": sig, "lam": None}
        haar["seed"] = _seed(rng)
        haar["samples"] = self.HAAR_SAMPLES[haar_size or 4]
        config = cli.ExperimentConfig(scenario="B1", fading_case="rice_rice_condition", seed=_seed(rng))
        snr = Unit(
            "snr",
            {"config": config, "gamma_b_db": float(rng.uniform(0.0, 14.0)), "seed": _seed(rng)},
            work=self.SNR_DRAWS,
        )
        haar_shape = f"distinct{haar_size}" if haar_size else "rank2"
        return [sc, Unit("haar", haar, work=haar["samples"], shape=haar_shape), snr]

    def warm(self, unit: Unit) -> None:
        self.prepare(unit)
        _warm_caches()

    def prepare(self, unit: Unit) -> None:
        if unit.cache:
            return
        p = unit.params
        if unit.kind == "sc":
            model = channel.channel_from_parts(p["corr"], p["mean"], p["k"])
            unit.cache["model"] = model
            blocks = schur.conditional_params(model, 2)
            unit.cache["blocks"] = blocks
            # theta = -diag(step / E[SC_ii]): E[SC] = n_v sc_corr + (n_v / n_r) M^H M
            # for the unconditioned complement, so etr(theta @ SC) stays of
            # order one and its sample mean is close to normal at SC_DRAWS.
            n_v, n_r = 3, 4
            scale = n_v * np.diag(blocks.sc_corr).real + n_v / n_r * np.sum(np.abs(blocks.m_matrix) ** 2, axis=0)
            unit.cache["thetas"] = [np.diag(-step / scale).astype(complex) for step in p["theta_steps"]]
        elif unit.kind == "snr":
            model = cli.build_model(p["config"])
            unit.cache["model"] = model
            unit.cache["budget"] = LinkBudget.from_gamma_b_db(p["gamma_b_db"], model.n_t, M)
        else:
            unit.cache["ready"] = True

    def run(self, unit: Unit):
        p, c = unit.params, unit.cache
        if unit.kind == "sc":
            samples = mcsim.sample_sc(c["model"], 2, self.SC_DRAWS, p["seed"])
            dims = SystemDims(4, 3, 2)
            mgfs = [snrdist.mgf_sc_rician_rayleigh(t, c["blocks"], dims) for t in c["thetas"]]
            return samples, mgfs
        if unit.kind == "haar":
            if p["lam"] is None:
                value = hypergeom.f00_rank_v_idempotent(p["sigma"], 3, 4)
                s_diag, l_diag = [p["sigma"][0], p["sigma"][1], 0.0, 0.0], [1.0, 1.0, 1.0, 0.0]
            else:
                value = hypergeom.f00_distinct(p["sigma"], p["lam"])
                s_diag, l_diag = p["sigma"], p["lam"]
            est, se = hypergeom.haar_oracle(s_diag, l_diag, p["samples"], p["seed"])
            return value, est, se
        model, budget = c["model"], c["budget"]
        values = mcsim.sample_snr(model, budget, self.SNR_DRAWS, p["seed"])[0].values
        dist = snrdist.exact_gamma_snr(model, 1, budget.gamma_s, v=1)
        stat = mcsim.ks_test_gamma(values, dist)[0]
        return values, dist, stat

    def digest(self, unit: Unit, result) -> bytes:
        if unit.kind == "sc":
            samples, mgfs = result
            return _hash(samples, np.array(mgfs))
        if unit.kind == "haar":
            return repr(result).encode()
        values, dist, stat = result
        return _hash(values, np.array([dist.shape, dist.scale, stat]))

    def check(self, unit: Unit, result) -> str | None:
        if unit.kind == "sc":
            samples, mgfs = result
            limit = z_limit(len(mgfs))
            for theta, mgf in zip(unit.cache["thetas"], mgfs):
                vals = np.exp(np.einsum("ij,bji->b", theta, samples).real)
                z = abs(mgf - vals.mean()) / (vals.std(ddof=1) / math.sqrt(vals.size))
                if not z <= limit:
                    return f"Schur-complement m.g.f. |z| = {z:.2f}"
            return None
        if unit.kind == "haar":
            value, est, se = result
            z = abs(value - est) / se
            if not z <= z_limit(1):
                return f"Haar oracle |z| = {z:.2f}"
            return None
        values, dist, stat = result
        p_value = float(stats.kstwo.sf(stat, values.size))
        z = abs(values.mean() - dist.mean) / (values.std(ddof=1) / math.sqrt(values.size))
        if p_value < ALPHA_UNIT / 2 or not z <= z_limit(2):
            return f"Gamma law: KS p = {p_value:.2g}, mean |z| = {z:.2f}"
        return None


WORKLOADS = {w.name: w for w in (SimSweep, AnalyticSweep, McValidation)}
