"""Golden CSV digests: refactors must reproduce these sweeps byte for byte.

Each config runs through the command line with the default grid
(0:2:20 dB) and seed. The first two digests were taken before the
Schur-complement and rank-1 0F0 consolidation, the third before the
batched Monte Carlo kernel, the fourth before the Gram-Schmidt ZF
kernel (nearly every 8x6 B1 draw there fails the old det certificate);
a change here means a number moved.
"""

import hashlib
import json

import pytest

from zfrician.cli import main

GOLDEN = {
    "b1_condition_sim": (
        dict(
            scenario="B1",
            fading_case="rice_rice_condition",
            n_r=4,
            n_t=3,
            methods=["exact", "approx", "sim"],
            trials=2_000,
        ),
        "91dfa1bb19ac0e72d5f77594132d691965a975d9668ff30b3b33ea9c581bbfb7",
    ),
    "a1_rice_ray_det": (
        dict(scenario="A1", fading_case="rice_ray", n_r=6, n_t=4, methods=["approx", "determinantal"]),
        "ace0ac80639085072090adbe51cb6ae15cc084ed66084d6c6a676c1ef4d2bedd",
    ),
    "a1_rice_ray_sim": (
        dict(scenario="A1", fading_case="rice_ray", n_r=6, n_t=4, methods=["approx", "sim"], trials=2_000),
        "6f473ca519b3d11d7b2e6233d9f78109440f651e0a05e58dd6e35fbdf1d6a7b5",
    ),
    "b1_rayleigh_sim": (
        dict(scenario="B1", fading_case="rayleigh_only", n_r=8, n_t=6, methods=["approx", "sim"], trials=2_000),
        "a15b88689dc8b1799bfa51fcbcd7f2c050818a68981276421b51768d3e6f655f",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_csv_sha256(name, tmp_path, capsys):
    config, digest = GOLDEN[name]
    cfg_path, out_path = tmp_path / "cfg.json", tmp_path / "out.csv"
    cfg_path.write_text(json.dumps(config))
    assert main(["--config", str(cfg_path), "--out", str(out_path)]) == 0
    assert hashlib.sha256(out_path.read_bytes()).hexdigest() == digest
