"""Bit pins of the Gamma-law AEP path.

The CSV prints twelve significant digits, which cannot show a last-bit
move; these ``float.hex()`` values can. They cover the Gamma-law AEP on
its own (shape 1-12, scale 0 to 1e3, M 2-16) and the exact and virtual
columns of three sweeps: a B1 condition case with two intended streams,
an A1 Rayleigh 12x8 case at M = 16 and a custom uncorrelated 2x2 case.
"""

import pytest

from zfrician.aep import aep_exact_condition
from zfrician.cli import ExperimentConfig, run_experiment

# (n, gamma_ki, M) -> aep_exact_condition
AEP_PINS = {
    (1, 0.0, 2): "0x1.0000000000000p-1",
    (1, 0.37, 4): "0x1.029e6f7d22165p-1",
    (2, 3.0, 2): "0x1.a56b753953803p-7",
    (3, 0.05, 8): "0x1.8efc60b201978p-1",
    (4, 12.5, 16): "0x1.63d27854a7434p-4",
    (5, 1.0, 4): "0x1.88fe1b074bfeap-5",
    (7, 250.0, 8): "0x1.1826ce9f5b570p-39",
    (9, 0.8, 2): "0x1.5bd4e371ec512p-11",
    (11, 40.0, 16): "0x1.0d267f42e599ep-17",
    (12, 1000.0, 4): "0x1.acc43c177e623p-111",
}

# sweep config -> (aep_exact, aep_approx) per row, in grid-then-stream order
SWEEP_PINS = {
    "b1_condition_v2": (
        dict(
            scenario="B1",
            fading_case="rice_rice_condition",
            n_r=4,
            n_t=3,
            v=2,
            m=2,
            gamma_b_grid_db=[-4.0, 0.0, 5.0, 10.0, 20.0],
        ),
        [
            ("0x1.e05ffa5c147f2p-2", "0x1.e05ffa5c147f6p-2"),
            ("0x1.ee724cc58a952p-2", "0x1.ee724cc58a956p-2"),
            ("0x1.cdfc06ff1c7c3p-2", "0x1.cdfc06ff1c7cbp-2"),
            ("0x1.e432a6631d36ap-2", "0x1.e432a6631d370p-2"),
            ("0x1.a7bb98311cb0bp-2", "0x1.a7bb98311cb18p-2"),
            ("0x1.cead2d49a188dp-2", "0x1.cead2d49a1897p-2"),
            ("0x1.66ae9f05543d7p-2", "0x1.66ae9f05543ecp-2"),
            ("0x1.a8ef95bef845cp-2", "0x1.a8ef95bef846fp-2"),
            ("0x1.0b84a13e3caf8p-3", "0x1.0b84a13e3cb32p-3"),
            ("0x1.047422f8652bfp-2", "0x1.047422f8652ebp-2"),
        ],
    ),
    "a1_rayleigh_12x8": (
        dict(
            scenario="A1",
            fading_case="rayleigh_only",
            n_r=12,
            n_t=8,
            m=16,
            gamma_b_grid_db=[0.0, 10.0, 20.0, 30.0],
            seed=5,
        ),
        [
            ("0x1.001a52233d638p-2", "0x1.001a52233d638p-2"),
            ("0x1.9d82cb52351b7p-9", "0x1.9d82cb52351b7p-9"),
            ("0x1.0a79ff0d5179dp-22", "0x1.0a79ff0d5179dp-22"),
            ("0x1.c830b71067ea1p-39", "0x1.c830b71067ea1p-39"),
        ],
    ),
    "custom_uncorr_2x2": (
        dict(
            scenario="custom",
            k_db=6.0,
            azimuth_spread_deg=25.0,
            fading_case="ray_rice_uncorr",
            n_r=2,
            n_t=2,
            m=8,
            gamma_b_grid_db=[0.0, 7.0, 14.0],
            seed=77,
        ),
        [
            ("0x1.5b2d800b6ba36p-1", "0x1.5b2d800b6ba36p-1"),
            ("0x1.bcf5e99c23b22p-2", "0x1.bcf5e99c23b22p-2"),
            ("0x1.567c6e2b7fad4p-3", "0x1.567c6e2b7fad4p-3"),
        ],
    ),
}


@pytest.mark.parametrize("case", sorted(AEP_PINS))
def test_aep_exact_condition_bits(case):
    assert aep_exact_condition(*case).hex() == AEP_PINS[case]


@pytest.mark.parametrize("name", sorted(SWEEP_PINS))
def test_sweep_gamma_columns_bits(name):
    config, expected = SWEEP_PINS[name]
    rows, _ = run_experiment(ExperimentConfig(methods=("exact", "approx"), **config))
    assert [(r.aep_exact.hex(), r.aep_approx.hex()) for r in rows] == expected
