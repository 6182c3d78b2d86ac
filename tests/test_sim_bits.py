"""Pins of the link simulator's error counts and of its Gram-Schmidt factor.

The goldens cover one constellation (QPSK) through the CSV. These pins
hold ``simulate_ser``'s per-stream error counts for BPSK to 16-PSK on
four shapes and two SNRs, so a change to the factor or to the symbol
decision that moves any count fails here. 20,000 trials are one full
chunk and a short one. The factor's bytes must not depend on how a chunk
is cut into blocks: each draw's arithmetic, and the order of every sum
over the receive axis, are the same in any block.
"""

import numpy as np
import pytest

from zfrician import cli, mcsim
from zfrician.channel import LinkBudget
from zfrician.rng import standard_complex_normal, substream

TRIALS = 20_000
SEED = 31

# (m, n_r, n_t, gamma_b_db) -> per-stream errors of B1 rice_rice_condition
ERROR_PINS = {
    (2, 2, 2, 0.0): (8961, 8880),
    (2, 2, 2, 16.0): (4421, 4299),
    (4, 2, 2, 0.0): (13870, 13797),
    (4, 2, 2, 16.0): (7663, 7357),
    (8, 2, 2, 0.0): (16758, 16622),
    (8, 2, 2, 16.0): (11479, 11176),
    (16, 2, 2, 0.0): (18306, 18268),
    (16, 2, 2, 16.0): (14810, 14613),
    (2, 4, 3, 0.0): (9096, 9317, 8727),
    (2, 4, 3, 16.0): (4566, 6437, 3519),
    (4, 4, 3, 0.0): (14068, 14402, 13610),
    (4, 4, 3, 16.0): (8116, 10825, 6235),
    (8, 4, 3, 0.0): (16800, 17076, 16561),
    (8, 4, 3, 16.0): (11823, 14422, 10280),
    (16, 4, 3, 0.0): (18315, 18442, 18192),
    (16, 4, 3, 16.0): (15080, 16815, 14019),
    (2, 6, 4, 0.0): (9031, 9612, 9483, 8478),
    (2, 6, 4, 16.0): (4454, 7305, 6795, 2549),
    (4, 6, 4, 0.0): (13960, 14487, 14430, 13363),
    (4, 6, 4, 16.0): (7964, 11770, 11238, 4700),
    (8, 6, 4, 0.0): (16800, 17116, 17142, 16419),
    (8, 6, 4, 16.0): (11883, 15099, 14716, 8554),
    (16, 6, 4, 0.0): (18304, 18592, 18569, 18072),
    (16, 6, 4, 16.0): (15069, 17320, 17044, 12775),
    (2, 8, 6, 0.0): (9229, 9567, 9846, 9680, 9407, 7807),
    (2, 8, 6, 16.0): (5392, 8052, 8608, 8104, 6366, 1150),
    (4, 8, 6, 0.0): (14188, 14598, 14856, 14697, 14415, 12539),
    (4, 8, 6, 16.0): (9300, 12874, 13442, 12862, 10705, 2160),
    (8, 8, 6, 0.0): (16984, 17208, 17392, 17332, 17072, 15651),
    (8, 8, 6, 16.0): (13172, 15940, 16414, 16005, 14312, 5274),
    (16, 8, 6, 0.0): (18512, 18618, 18668, 18677, 18474, 17641),
    (16, 8, 6, 16.0): (16024, 17775, 18115, 17894, 16696, 9865),
}


@pytest.mark.parametrize("n_r, n_t", [(2, 2), (4, 3), (6, 4), (8, 6)])
def test_error_counts_pinned(n_r, n_t):
    model = cli.build_model(cli.ExperimentConfig(scenario="B1", fading_case="rice_rice_condition", n_r=n_r, n_t=n_t))
    for (m, nr, nt, db), pinned in ERROR_PINS.items():
        if (nr, nt) != (n_r, n_t):
            continue
        res = mcsim.simulate_ser(model, LinkBudget.from_gamma_b_db(db, n_t, m), m, TRIALS, seed=SEED)
        assert tuple(r.errors for r in res) == pinned, (m, db)


@pytest.mark.parametrize("n_r, n_t", [(2, 2), (4, 3), (6, 4), (8, 6), (12, 6)])
@pytest.mark.parametrize("n", [1, 904, 5_000, 16_384])
def test_gram_schmidt_bytes_do_not_depend_on_block_size(n_r, n_t, n, monkeypatch):
    h = standard_complex_normal(substream(7, n_r, n_t, n), (n, n_r, n_t))
    factors = []
    for block in (2_048, 8_192, n):
        monkeypatch.setattr(mcsim, "_QR_BLOCK", block)
        q, r_inv = mcsim._gram_schmidt(h)
        factors.append((q.tobytes(), r_inv.tobytes()))
    assert factors[1] == factors[0]
    assert factors[2] == factors[0]
