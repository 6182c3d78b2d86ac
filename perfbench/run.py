"""zfrician benchmark: one workload per run, metrics as one JSON line.

Run from the repository root:

    python3 perfbench/run.py --workload sim_sweep --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py`` for why each was chosen): ``sim_sweep``,
``analytic_sweep`` and ``mc_validation``.  Inputs come from ``--seed``
only; the program under test is imported from ``src/`` of the checkout.

``--trace 0`` measures the end-to-end metrics with tracing off:

* ``setup_s``: median over fresh interpreters of the time from process
  start through import, the first model build and warm lazy caches;
* ``unit_ms_p50`` and ``unit_ms_tail``: latency of one unit (one CLI
  sweep, one rank-1 AEP or one validation case).  The p50 is taken per
  unit group (kind and shape, see ``workloads.Unit.group``) and the group
  medians are combined by geometric mean, so the mix of groups in a run
  does not move it; the tail is the highest percentile of all units with
  at least ten samples beyond it;
* ``throughput_per_s``: simulated trials per second (``sim_sweep``),
  AEP points per second (``analytic_sweep``) or Monte Carlo draws per
  second (``mc_validation``);
* ``peak_rss_mb`` and ``pass_frac`` (units that passed their gate).

``analytic_sweep`` also records, untimed, the rank-1 AEP error at
n_r = 7..12, where the determinantal path is known to be wrong.

``--trace 1`` runs each unit untraced and then traced (see ``tracer.py``),
checks that both runs give identical bytes, and reports per-layer calls
and self time plus derived ratios.

The line before the result is a JSON record of the run's environment,
unit counts and gate notes; it is also written to ``.perfbench_out/``.
The process exits 2 without a result if the program sources are missing.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP pools to one thread before numpy loads: the matrices are
# tiny, and the runs must not depend on other load on the machine.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

SETUP_REPEATS = 5
MIN_UNITS = 21
TAIL_BEYOND = 10


def source_ok() -> bool:
    return (SRC / "zfrician" / "__init__.py").is_file()


def import_program():
    """Import zfrician from this checkout's ``src`` and nowhere else."""
    sys.path.insert(0, str(SRC))
    import zfrician

    if Path(zfrician.__file__).resolve().parent != (SRC / "zfrician").resolve():
        raise ImportError(f"zfrician imported from {zfrician.__file__}, not {SRC}")
    return zfrician


def measure_setup(workload: str, seed: int) -> list[float]:
    """Time fresh interpreters from spawn until the workload is warm."""
    out = []
    for _ in range(SETUP_REPEATS):
        t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload, str(seed), repr(t0)],
            capture_output=True,
            text=True,
            timeout=120,
            cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()[-500:]}")
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Highest percentile with TAIL_BEYOND samples beyond it: (value, percentile, beyond)."""
    xs = sorted(latencies)
    k = max(len(xs) - TAIL_BEYOND - 1, 0)
    return xs[k], 100.0 * (k + 1) / len(xs), len(xs) - k - 1


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
    return proc.stdout.strip() or None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "zfrician").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(seed: int) -> dict:
    import mpmath
    import numpy
    import scipy

    return {
        "seed": seed,
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
    }


class Pass:
    """One timed pass over units: latencies, digests and gate verdicts."""

    def __init__(self, wl) -> None:
        self.wl = wl
        self.units = []
        self.latencies: list[float] = []
        self.digests: list[bytes | None] = []
        self.verdicts: list[str | None] = []  # None when the unit passed its gate
        self._unchecked: list = []  # results awaiting check(), None for a raising unit

    def run_unit(self, unit, tracer=None) -> None:
        wl = self.wl
        wl.prepare(unit)
        if tracer is not None:
            tracer.unit = len(self.units)
        t0 = time.perf_counter()
        try:
            result = wl.run(unit)
        except Exception as exc:  # a raising unit is a failed unit, not a crashed benchmark
            self.latencies.append(time.perf_counter() - t0)
            self.units.append(unit)
            self.digests.append(None)
            self.verdicts.append(f"raised {exc!r}")
            self._unchecked.append(None)
            traceback.print_exc(file=sys.stderr)
            return
        self.latencies.append(time.perf_counter() - t0)
        self.units.append(unit)
        self.digests.append(wl.digest(unit, result))
        self.verdicts.append(None)
        self._unchecked.append(result)

    def check(self) -> None:
        """Gate every unit that returned.

        Called after the timed loop: the mpmath references are slow, and
        running them between units would leave each unit cold caches.
        """
        for i, (unit, result) in enumerate(zip(self.units, self._unchecked)):
            if result is not None:
                self.verdicts[i] = self.wl.check(unit, result)
        self._unchecked = []

    @property
    def busy_s(self) -> float:
        return sum(self.latencies)

    @property
    def failed(self) -> int:
        return sum(v is not None for v in self.verdicts)

    def notes(self) -> list[str]:
        return [f"unit {i} ({u.kind}, n_r={u.n_r}): {v}" for i, (u, v) in enumerate(zip(self.units, self.verdicts)) if v]


def start(workload: str, seed: int):
    """Warm the workload and run its first unit once, untimed.

    Returns the workload, its stream of rounds (starting again from the
    first round, so the timed pass repeats the first unit) and the first
    run's digest, which the timed pass must reproduce byte for byte.
    """
    import workloads

    wl = workloads.WORKLOADS[workload](seed, OUT_DIR)
    rounds = wl.rounds()
    first = next(rounds)
    wl.warm(first[0])
    once = Pass(wl)
    once.run_unit(first[0])
    return wl, itertools.chain([first], rounds), once.digests[0]


def run_for(wl, rounds, seconds: float, traced: Pass | None = None, tracer=None) -> Pass:
    """Run whole rounds until ``seconds`` of unit time and MIN_UNITS units.

    With ``traced``, each unit also runs traced right after its untraced
    run, so slow drifts of the machine hit both sides of the overhead
    ratio alike.
    """
    p = Pass(wl)
    while p.busy_s < seconds or len(p.units) < MIN_UNITS:
        for unit in next(rounds):
            p.run_unit(unit)
            if traced is not None:
                with tracer:
                    traced.run_unit(unit, tracer)
    return p


def group_p50_ms(p: Pass) -> tuple[float, dict]:
    """Geometric mean over unit groups of each group's median latency, in ms."""
    by_group: dict[str, list[float]] = {}
    for u, x in zip(p.units, p.latencies):
        by_group.setdefault(u.group, []).append(x * 1e3)
    medians = {g: statistics.median(xs) for g, xs in sorted(by_group.items())}
    return statistics.geometric_mean(medians.values()), medians


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workload: str, seed: int, seconds: float, record: dict):
    setup = measure_setup(workload, seed)
    wl, rounds, reference = start(workload, seed)
    p = run_for(wl, rounds, seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    p.check()
    deterministic = reference is not None and reference == p.digests[0]
    if not deterministic:
        p.verdicts[0] = p.verdicts[0] or "output differs from the same unit run before"
    p50_ms, group_p50 = group_p50_ms(p)
    tail_ms, tail_pct, beyond = tail([x * 1e3 for x in p.latencies])
    work = sum(u.work for u in p.units)
    record.update(
        setup_samples_s=setup,
        units=len(p.units),
        unit_groups={g: sum(u.group == g for u in p.units) for g in group_p50},
        group_p50_ms=group_p50,
        tail_percentile=tail_pct,
        tail_samples_beyond=beyond,
        work=work,
        busy_s=p.busy_s,
        throughput={wl.throughput_name: work / p.busy_s},
        fail_frac=p.failed / len(p.units),
        deterministic_rerun=deterministic,
        failures=p.notes(),
    )
    metrics = {
        "setup_s": metric(statistics.median(setup), "s"),
        "unit_ms_p50": metric(p50_ms, "ms"),
        "unit_ms_tail": metric(tail_ms, "ms"),
        "throughput_per_s": metric(work / p.busy_s, "1/s"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
        "pass_frac": metric(1.0 - p.failed / len(p.units), "frac"),
    }
    if hasattr(wl, "defect_probe"):
        record["rank1_rel_error_beyond_tested"] = wl.defect_probe()
    correct = deterministic and p.failed == 0
    return correct, len(p.units), p.failed, metrics


# Entry points each workload is meant to load; their share of traced time
# is reported as ``intended_cover_frac``.
INTENDED = {
    "sim_sweep": ("mcsim.simulate_ser",),
    "analytic_sweep": ("cli.run_experiment", "cli.emit_csv", "aep.aep_rice_ray_det"),
    "mc_validation": ("mcsim.sample_sc", "mcsim.sample_snr", "hypergeom.haar_oracle"),
}


def per_layer(workload: str, seed: int, seconds: float, record: dict):
    from tracer import Tracer

    wl, rounds, reference = start(workload, seed)
    tracer = Tracer()
    traced = Pass(wl)
    plain = run_for(wl, rounds, seconds / 2, traced, tracer)
    plain.check()
    tracer.save(OUT_DIR / f"spans-{workload}.npz")

    mismatches = [i for i, (a, b) in enumerate(zip(plain.digests, traced.digests)) if a is None or a != b]
    for i in mismatches:
        plain.verdicts[i] = plain.verdicts[i] or "traced output differs from untraced"
    deterministic = reference is not None and reference == plain.digests[0]
    if not deterministic:
        plain.verdicts[0] = plain.verdicts[0] or "output differs from the same unit run before"
    layers = tracer.reduce()
    metrics = {}
    for name, s in layers.items():
        metrics[f"{name}.calls"] = metric(s["calls"], "count")
        metrics[f"{name}.self_s"] = metric(s["self_s"], "s")

    def per(name: str, kind: str, scale: float) -> float:
        work = sum(u.work for u in traced.units if u.kind == kind)
        return layers[name]["incl_s"] * scale / work if work else 0.0

    sc_draws = sum(u.work for u in traced.units if u.kind == "sc")
    det_calls = layers["aep.aep_rice_ray_det"]["calls"]
    derived = {
        "mcsim.us_per_trial": (per("mcsim.simulate_ser", "cli", 1e6), "us"),
        "mcsim.us_per_sc_draw": (per("mcsim.sample_sc", "sc", 1e6), "us"),
        "mcsim.us_per_snr_draw": (per("mcsim.sample_snr", "snr", 1e6), "us"),
        "hypergeom.us_per_haar_sample": (per("hypergeom.haar_oracle", "haar", 1e6), "us"),
        "schur.sc_redraws": (layers["schur.gramian_and_sc"]["calls"] - sc_draws if sc_draws else 0, "count"),
        "aep.ms_per_det_point": (
            layers["aep.aep_rice_ray_det"]["incl_s"] * 1e3 / det_calls if det_calls else 0.0,
            "ms",
        ),
        "snrdist.series_fallback_frac": (tracer.child_share("snrdist.mgf_gamma1_det", "snrdist.mgf_gamma1_series"), "frac"),
        "trace_overhead_frac": (traced.busy_s / plain.busy_s - 1.0, "frac"),
        "intended_cover_frac": (tracer.cover_s(INTENDED[workload]) / traced.busy_s, "frac"),
    }
    for name, (value, unit) in derived.items():
        metrics[name] = metric(value, unit)
    record.update(
        units=len(traced.units),
        absent_functions=tracer.absent,
        incl_s={n: s["incl_s"] for n, s in layers.items()},
        untraced_busy_s=plain.busy_s,
        traced_busy_s=traced.busy_s,
        trace_mismatches=mismatches,
        deterministic_rerun=deterministic,
        failures=plain.notes(),
    )
    correct = deterministic and not mismatches and plain.failed == 0
    return correct, len(plain.units), plain.failed, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("sim_sweep", "analytic_sweep", "mc_validation"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not source_ok():
        print(f"error: program sources not found under {SRC}", file=sys.stderr)
        return 2
    import_program()
    OUT_DIR.mkdir(exist_ok=True)
    record = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds}
    record["environment"] = environment(args.seed)
    run = per_layer if args.trace else end_to_end
    correct, attempted, failed, metrics = run(args.workload, args.seed, args.seconds, record)
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    record["result"] = result
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1))
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
