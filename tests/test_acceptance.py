"""Acceptance suite: one criterion per test, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
Every tolerance is fixed here, not calibrated at runtime.
"""

import time

import numpy as np
import pytest

from zfrician import aep, cli, hypergeom, mcsim, schur, snrdist
from zfrician.channel import LinkBudget, SystemDims, channel_from_parts
from zfrician.snrdist import Rank1MgfParams

from conftest import random_corr, random_mean, random_model


def report(tag: str, ok: bool, detail: str, elapsed: float, budget: float) -> None:
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"[{tag}] {status} — {detail} (runtime {elapsed:.1f}s < {budget:.0f}s)", flush=True)
    assert ok, f"{tag}: {detail}"
    assert elapsed < budget, f"{tag}: runtime {elapsed:.1f}s exceeds {budget:.0f}s"


def test_criterion_1_confluent_identity():
    """Rank-1/idempotent 0F0 equals the 1F1 series on the full grid."""
    t0 = time.time()
    worst = 0.0
    for n_r in range(1, 13):
        for n in range(1, n_r + 1):
            for sigma1 in np.geomspace(0.1, 50.0, 20):
                det_form = hypergeom.f00_rank1_idempotent(sigma1, n, n_r)
                series = hypergeom.f11_series(n, n_r, sigma1)
                worst = max(worst, abs(det_form - series) / abs(series))
    report(
        "AC1",
        worst <= 1e-7,
        f"max relative 0F0-vs-1F1 deviation {worst:.2e} <= 1e-7 over 1<=N<=N_R<=12, sigma in [0.1,50]",
        time.time() - t0,
        5.0,
    )


def test_criterion_2_haar_oracle_validation():
    """Determinantal 0F0 matches the Monte Carlo Haar average within 3 SE."""
    t0 = time.time()
    rng = np.random.default_rng(777)
    worst_z = 0.0
    cases = 0

    def draw_spectrum(size):
        while True:
            vals = np.sort(rng.uniform(-1.5, 1.5, size))[::-1]
            if np.min(-np.diff(vals)) > 0.15:
                return vals

    for size in (3, 4):
        for _ in range(10):
            sig = draw_spectrum(size)
            lam = draw_spectrum(size)
            val = hypergeom.f00_distinct(sig, lam)
            est, se = hypergeom.haar_oracle(sig, lam, 150_000, seed=int(rng.integers(1 << 30)))
            worst_z = max(worst_z, abs(val - est) / se)
            cases += 1
    for _ in range(5):
        sig = np.sort(rng.uniform(0.3, 2.5, 2))[::-1]
        if sig[0] - sig[1] < 0.1:
            sig[0] += 0.2
        val = hypergeom.f00_rank_v_idempotent(sig, 3, 4)
        est, se = hypergeom.haar_oracle(
            [sig[0], sig[1], 0.0, 0.0], [1.0, 1.0, 1.0, 0.0], 400_000, seed=int(rng.integers(1 << 30))
        )
        worst_z = max(worst_z, abs(val - est) / se)
        cases += 1
    report(
        "AC2",
        worst_z <= 3.0,
        f"worst |formula - MC|/SE = {worst_z:.2f} <= 3 over {cases} spectra (1.5e5-4e5 samples)",
        time.time() - t0,
        120.0,
    )


def test_criterion_3_condition_equivalence():
    """Virtual-vs-actual complement residual separates the condition manifold."""
    t0 = time.time()
    rng = np.random.default_rng(31_415)
    max_on = 0.0
    min_off = np.inf
    for _ in range(500):
        m = random_model(rng, condition=True)
        max_on = max(max_on, schur.virtual_sc_residual(m, 1))
    for _ in range(500):
        m = random_model(rng, condition=True, perturb=1e-2)
        min_off = min(min_off, schur.virtual_sc_residual(m, 1))
    report(
        "AC3",
        max_on <= 1e-10 and min_off > 1e-6,
        f"500 aligned models: max residual {max_on:.2e} <= 1e-10; "
        f"500 perturbed (1e-2): min residual {min_off:.2e} > 1e-6",
        time.time() - t0,
        30.0,
    )


def test_criterion_4_gamma_law_under_condition():
    """B1 full-Rician condition case: KS fit, 1% mean accuracy, K+1 scale law."""
    t0 = time.time()
    cfg = cli.ExperimentConfig(scenario="B1", fading_case="rice_rice_condition", seed=2024)
    model = cli.build_model(cfg)
    assert schur.check_condition(model, 1).holds
    budget = LinkBudget.from_gamma_b_db(10.0, 3, 4)
    n_samples = 100_000
    dist = snrdist.exact_gamma_snr(model, 1, budget.gamma_s, v=1)
    values = mcsim.sample_snr(model, budget, n_samples, seed=606)[0].values
    stat, crit, reject = mcsim.ks_test_gamma(values, dist)
    mean_err = abs(values.mean() / dist.mean - 1.0)

    # scale(K) * (K+1) must recover the Rayleigh scale at machine precision
    rayleigh_twin = channel_from_parts(model.r_t, np.zeros((4, 3)), 0.0)
    gamma_0 = snrdist.exact_gamma_snr(rayleigh_twin, 1, budget.gamma_s).scale
    scale_err = abs(dist.scale * (model.k_factor + 1.0) - gamma_0) / gamma_0

    ok = (not reject) and mean_err < 0.01 and scale_err < 1e-12
    report(
        "AC4",
        ok,
        f"KS {stat:.4f} < {crit:.4f}, mean error {mean_err:.3%} < 1%, "
        f"(K+1)-scale identity rel err {scale_err:.1e}",
        time.time() - t0,
        60.0,
    )


def test_criterion_5_full_rician_condition_sweep():
    """B1 condition case: exact == approximate AEP, simulation inside 3-sigma."""
    t0 = time.time()
    cfg = cli.ExperimentConfig(
        scenario="B1",
        fading_case="rice_rice_condition",
        gamma_b_grid_db=[0, 2, 4, 6, 8, 10, 12, 14],
        trials=100_000,
        seed=2024,
        methods=("exact", "approx", "sim"),
    )
    rows, summary = cli.run_experiment(cfg)
    max_gap = max(abs(r.aep_exact - r.aep_approx) for r in rows)
    checked = [r for r in rows if r.aep_exact >= 1e-3]
    sim_ok = all(abs(r.ser_sim - r.aep_exact) <= r.ser_ci for r in checked)
    report(
        "AC5",
        max_gap <= 1e-10 and sim_ok and len(checked) == len(rows),
        f"max |exact - approx| = {max_gap:.2e} <= 1e-10; "
        f"simulated SER within 3-sigma at {len(checked)}/{len(rows)} points with AEP >= 1e-3",
        time.time() - t0,
        300.0,
    )


def test_criterion_6_rice_rayleigh_sweep():
    """A1 Rician/Rayleigh: determinantal AEP tracks simulation, virtual does not."""
    t0 = time.time()
    cfg = cli.ExperimentConfig(
        scenario="A1",
        fading_case="rice_ray",
        gamma_b_grid_db=[0, 2, 4, 6, 8, 10, 12],
        trials=100_000,
        seed=2024,
        methods=("approx", "determinantal", "sim"),
    )
    rows, _ = cli.run_experiment(cfg)
    checked = [r for r in rows if r.aep_det >= 1e-3]
    det_ok = all(abs(r.ser_sim - r.aep_det) <= r.ser_ci for r in checked)
    approx_out = sum(abs(r.ser_sim - r.aep_approx) > r.ser_ci for r in rows)
    report(
        "AC6",
        det_ok and len(checked) >= 3 and approx_out >= 1,
        f"determinantal within 3-sigma at {len(checked)}/{len(checked)} points with AEP >= 1e-3; "
        f"virtual outside the CI at {approx_out}/{len(rows)} points",
        time.time() - t0,
        300.0,
    )


def test_criterion_7_mgf_path_independence():
    """Series and determinantal stream-1 m.g.f.s agree over the AEP domain."""
    t0 = time.time()
    rng = np.random.default_rng(99)
    s_grid = -np.geomspace(0.01, 1e3, 25)
    worst = 0.0
    evaluated = 0
    for _ in range(100):
        n_r = int(rng.integers(2, 13))
        n_t = int(rng.integers(2, n_r + 1))
        p = Rank1MgfParams(
            gamma_k1=float(rng.uniform(0.05, 5.0)),
            alpha=float(np.exp(rng.uniform(np.log(0.1), np.log(50.0)))),
            n=n_r - n_t + 1,
            n_r=n_r,
            n_t=n_t,
        )
        for s in s_grid:
            a = snrdist.mgf_gamma1_series(p, float(s))
            b = snrdist.mgf_gamma1_det(p, float(s))
            worst = max(worst, abs(a - b) / abs(a))
            evaluated += 1
    report(
        "AC7",
        worst <= 1e-7,
        f"max relative series-vs-determinantal gap {worst:.2e} <= 1e-7 "
        f"over {evaluated} (params, s) pairs",
        time.time() - t0,
        10.0,
    )


def test_criterion_8_matrix_sc_mgf():
    """v=2 unconditioned complement m.g.f. matches the empirical etr average."""
    t0 = time.time()
    rng = np.random.default_rng(2718)
    dims = SystemDims(4, 3, 2)
    worst_z = 0.0
    for model_idx in range(5):
        mean = random_mean(rng, 4, 3)
        mean[:, 2] = 0.0
        model = channel_from_parts(random_corr(rng, 3), mean, float(rng.uniform(1.0, 8.0)))
        blocks = schur.conditional_params(model, 2)
        samples = mcsim.sample_sc(model, 2, 100_000, seed=3000 + model_idx)
        for _ in range(5):
            theta = np.diag(-rng.uniform(0.1, 1.5, size=2)).astype(complex)
            mgf = snrdist.mgf_sc_rician_rayleigh(theta, blocks, dims)
            vals = np.exp(np.einsum("ij,bji->b", theta, samples).real)
            se = vals.std(ddof=1) / np.sqrt(vals.size)
            worst_z = max(worst_z, abs(mgf - vals.mean()) / se)
    report(
        "AC8",
        worst_z <= 3.0,
        f"worst |mgf - empirical|/SE = {worst_z:.2f} <= 3 over 5 models x 5 diagonal thetas "
        f"(1e5 draws each)",
        time.time() - t0,
        180.0,
    )


def test_criterion_9_interference_type_phenomenon():
    """Virtual law fits Rayleigh/Rician only under low correlation; Rician
    interference beats Rayleigh interference when correlation is high."""
    t0 = time.time()

    def sweep(scenario, case, grid, methods):
        cfg = cli.ExperimentConfig(
            scenario=scenario,
            fading_case=case,
            gamma_b_grid_db=grid,
            trials=100_000,
            seed=2024,
            methods=methods,
        )
        return cli.run_experiment(cfg)[0]

    grid_a1 = [0, 2, 4, 6, 8, 10, 12]
    grid_b1 = [0, 2, 4, 6, 8, 10, 12, 14]
    a1 = sweep("A1", "ray_rice_corr", grid_a1, ("approx", "sim"))
    a1_ok = all(abs(r.ser_sim - r.aep_approx) <= r.ser_ci for r in a1)

    b1 = sweep("B1", "ray_rice_corr", grid_b1, ("approx", "sim"))
    b1_fail_points = sum(abs(r.ser_sim - r.aep_approx) > r.ser_ci for r in b1)

    b1_ray = sweep("B1", "rayleigh_only", grid_b1, ("sim",))
    top = -1  # highest grid point
    rician_better = b1[top].ser_sim < b1_ray[top].ser_sim - (b1[top].ser_ci + b1_ray[top].ser_ci)

    report(
        "AC9",
        a1_ok and b1_fail_points >= 1 and rician_better,
        f"A1 virtual-vs-sim within 3-sigma at all {len(a1)} points; "
        f"B1 fails at {b1_fail_points} points; "
        f"B1 Rician-interference SER {b1[top].ser_sim:.4f} < Rayleigh-interference "
        f"{b1_ray[top].ser_sim:.4f} at {grid_b1[top]} dB",
        time.time() - t0,
        600.0,
    )
