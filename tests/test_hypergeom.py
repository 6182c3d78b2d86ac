"""Hypergeometric evaluators: series, determinantal forms, Haar oracle."""

import math

import numpy as np
import pytest

from zfrician import hypergeom
from zfrician.hypergeom import (
    EigenSpectrum,
    cluster_spectrum,
    f00_distinct,
    f00_general,
    f00_rank1_idempotent,
    f00_rank_v_idempotent,
    f11_series,
    factorial_product,
    haar_oracle,
)

# 200-term direct summation at 40-digit precision
F11_2_4_15 = 2.2384986041439423799
# 400-term direct summation at 40-digit precision (alternating series)
F11_2_4_M30 = 0.0062222222222228876532


class TestScalars:
    def test_factorial_product(self):
        assert factorial_product(1) == 1.0
        assert factorial_product(3) == 2.0
        assert factorial_product(5) == 288.0
        with pytest.raises(RuntimeError, match="overflow"):
            factorial_product(200)

    def test_f11_exponential_identity(self):
        for x in (0.3, 2.0, 17.5):
            assert abs(f11_series(1.7, 1.7, x) - math.exp(x)) < 1e-12 * math.exp(x)

    def test_f11_at_zero(self):
        assert f11_series(2.0, 4.0, 0.0) == 1.0

    def test_f11_frozen_values(self):
        assert abs(f11_series(2, 4, 1.5) - F11_2_4_15) < 1e-13 * F11_2_4_15
        assert abs(f11_series(2, 4, -30.0) - F11_2_4_M30) < 1e-11 * F11_2_4_M30

    def test_f11_bad_b(self):
        with pytest.raises(ValueError):
            f11_series(1.0, -2.0, 1.0)

    @pytest.mark.parametrize(
        "a, b, x",
        [
            (2, 4, -800.0),
            (2, 4, -30.0),
            (1, 2, -745.0),
            (3.5, 6, -2000.0),
            (2, 4, 600.0),
            (1.5, 3, 700.0),
            (2, 7, 0.01),
        ],
    )
    def test_f11_against_mpmath(self, a, b, x):
        # reflections whose exp(x) underflows, sums that pass 2**900
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        ref = float(mp.hyp1f1(a, b, x))
        assert abs(f11_series(a, b, x) - ref) <= 1e-13 * abs(ref)

    def test_f11_overflow_raises(self):
        with pytest.raises(RuntimeError, match="overflows"):
            f11_series(2, 4, 800.0)


class TestDistinct:
    def test_1x1(self):
        assert abs(f00_distinct([0.7], [1.3]) - math.exp(0.7 * 1.3)) < 1e-14

    def test_symmetry(self):
        sig = [0.9, 0.3, -0.5]
        lam = [1.1, 0.2, -0.8]
        a, b = f00_distinct(sig, lam), f00_distinct(lam, sig)
        assert abs(a - b) < 1e-10 * abs(a)

    def test_against_haar(self):
        sig = [0.9, 0.3, -0.5]
        lam = [1.1, 0.2, -0.8]
        val = f00_distinct(sig, lam)
        est, se = haar_oracle(sig, lam, 150_000, seed=11)
        assert abs(val - est) <= 3 * se

    def test_near_coincident_refused(self):
        with pytest.raises(ValueError, match="use f00_general"):
            f00_distinct([1.0, 1.0 - 1e-12, 0.0], [2.0, 1.0, 0.0])

    def test_degenerate_limit_approaches_rank1_form(self):
        # perturbed rank-1 spectrum against a perturbed idempotent spectrum
        # converges to the closed low-rank value as the perturbation shrinks
        target = f00_rank1_idempotent(1.7, 2, 4)
        errs = []
        for eps in (1e-2, 1e-3, 1e-4):
            sig = [1.7, 3 * eps, 2 * eps, eps]
            lam = [1.0 + eps, 1.0, eps, 0.0]
            errs.append(abs(f00_distinct(sig, lam) - target))
        assert all(b < a for a, b in zip(errs, errs[1:]))
        assert errs[-1] < 1e-3 * target

    def test_not_decreasing_refused(self):
        with pytest.raises(ValueError, match="strictly decreasing"):
            f00_distinct([0.0, 1.0], [2.0, 1.0])


class TestGeneral:
    def test_matches_rank1_structure(self):
        s1, n, n_r = 1.7, 2, 4
        a = f00_general(EigenSpectrum([s1, 0.0], [1, 3]), EigenSpectrum([1.0, 0.0], [n, n_r - n]))
        b = f00_rank1_idempotent(s1, n, n_r)
        assert abs(a - b) < 1e-9 * abs(b)

    def test_repeated_pair_against_haar(self):
        a = f00_general(EigenSpectrum([1.2, -0.4], [2, 1]), EigenSpectrum([0.9, 0.1, -0.6], [1, 1, 1]))
        est, se = haar_oracle([1.2, 1.2, -0.4], [0.9, 0.1, -0.6], 200_000, seed=23)
        assert abs(a - est) <= 3 * se

    def test_zero_s_gives_one(self):
        a = f00_general(EigenSpectrum([0.0], [4]), EigenSpectrum([1.0, 0.0], [3, 1]))
        assert abs(a - 1.0) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="ambient dimension"):
            f00_general(EigenSpectrum([1.0], [2]), EigenSpectrum([1.0], [3]))


class TestRankVIdempotent:
    def test_v1_collapse(self):
        a = f00_rank_v_idempotent([1.7], 2, 4)
        b = f00_rank1_idempotent(1.7, 2, 4)
        assert abs(a - b) < 1e-10 * abs(b)

    def test_against_haar(self):
        val = f00_rank_v_idempotent([2.0, 1.0], 3, 4)
        est, se = haar_oracle([2.0, 1.0, 0.0, 0.0], [1.0, 1.0, 1.0, 0.0], 400_000, seed=7)
        assert abs(val - est) <= 3 * se

    def test_cross_with_general(self):
        for sig in ([2.0, 1.0], [0.8, -1.3], [-0.5, -2.5]):
            a = f00_rank_v_idempotent(sig, 3, 4)
            b = f00_general(
                cluster_spectrum(list(sig) + [0.0, 0.0]), EigenSpectrum([1.0, 0.0], [3, 1])
            )
            assert abs(a - b) < 1e-8 * abs(b)

    def test_small_eigenvalue_refused(self):
        with pytest.raises(ValueError, match="series fallback"):
            f00_rank_v_idempotent([1.0, 1e-3], 3, 4)

    def test_coincident_refused(self):
        with pytest.raises(ValueError, match="f00_general"):
            f00_rank_v_idempotent([1.0, 1.0 - 1e-12], 3, 4)


class TestRank1Idempotent:
    @pytest.mark.parametrize("sigma1", [0.5, 5.0, 50.0])
    def test_equals_confluent_series(self, sigma1):
        val = f00_rank1_idempotent(sigma1, 2, 4)
        ref = f11_series(2, 4, sigma1)
        assert abs(val - ref) <= 1e-8 * abs(ref)

    def test_identity_projector(self):
        # full-rank projector turns the average into etr(S) itself
        val = f00_rank1_idempotent(3.3, 4, 4)
        assert abs(val - math.exp(3.3)) < 1e-10 * math.exp(3.3)

    def test_closed_form_1_2(self):
        # 1F1(1;2;1) = e - 1
        val = f00_rank1_idempotent(1.0, 1, 2)
        assert abs(val - (math.e - 1.0)) < 1e-12

    def test_small_sigma_fallback_continuous(self):
        lo = f00_rank1_idempotent(0.099, 2, 4)  # series branch
        hi = f00_rank1_idempotent(0.101, 2, 4)  # determinant branch
        ref_lo = f11_series(2, 4, 0.099)
        ref_hi = f11_series(2, 4, 0.101)
        assert abs(lo - ref_lo) < 1e-12
        assert abs(hi - ref_hi) < 1e-8

    def test_log_domain_branch(self):
        # above the exp-factoring threshold the value still matches the series
        val = f00_rank1_idempotent(250.0, 2, 4)
        ref = f11_series(2, 4, 250.0)
        assert abs(val - ref) < 1e-7 * abs(ref)

    def test_array_equals_scalar_calls(self):
        # series (|sigma| < 0.1), direct-determinant and log-domain entries in one array
        sig = np.array([[0.05, -0.09, 0.1, -0.3], [1.7, -25.0, 150.0, 250.0], [-0.0, 380.0, 210.0, -7.5]])
        for n, n_r in ((2, 4), (1, 5), (4, 4)):
            arr = f00_rank1_idempotent(sig, n, n_r)
            assert arr.shape == sig.shape
            assert arr.ravel().tolist() == [f00_rank1_idempotent(float(x), n, n_r) for x in sig.ravel()]

    def test_rank_out_of_range_refused(self):
        with pytest.raises(ValueError, match="1 <= n <= n_r"):
            f00_rank1_idempotent([1.0, 2.0], 5, 4)


class TestLogDomainAssembly:
    """Factoring exp(sigma) out of the table agrees with the direct determinant."""

    @pytest.mark.parametrize(
        "f00",
        [
            lambda: f00_rank1_idempotent(250.0, 2, 4),
            lambda: f00_rank_v_idempotent([260.0, 245.0], 3, 4),
            # three shifted rows: exp(-390) * exp(-380) underflows a
            # determinant whose pivots all fit a double
            lambda: f00_rank_v_idempotent([400.0, 390.0, 380.0], 1, 4),
        ],
        ids=["v1", "v2", "v3_small_rank"],
    )
    def test_agrees_with_direct(self, f00, monkeypatch):
        logged = f00()
        monkeypatch.setattr(hypergeom, "LOG_DOMAIN_SIGMA", math.inf)
        direct = f00()
        assert math.isfinite(direct) and direct > 0
        assert abs(logged - direct) <= 1e-12 * direct


class TestHaarOracle:
    def test_zero_s(self):
        est, se = haar_oracle([0.0, 0.0, 0.0], [1.0, 0.5, 0.0], 2_000, seed=1)
        assert est == 1.0 and se == 0.0

    def test_identity_lambda_zero_variance(self):
        est, se = haar_oracle([0.4, -0.2, 0.1], [1.0, 1.0, 1.0], 2_000, seed=1)
        assert abs(est - math.exp(0.3)) < 1e-12
        assert se < 1e-12

    def test_deterministic(self):
        a = haar_oracle([1.0, 0.0], [1.0, 0.0], 5_000, seed=3)
        b = haar_oracle([1.0, 0.0], [1.0, 0.0], 5_000, seed=3)
        assert a == b

    def test_sample_floor(self):
        with pytest.raises(ValueError, match="1000"):
            haar_oracle([1.0], [1.0], 10, seed=0)

    def test_qr_blocks_do_not_change_bits(self, monkeypatch):
        # 25,000 samples: a full chunk and a partial one, each split into
        # blocks with a partial last block
        args = ([0.9, -0.3, 0.2, 0.1], [1.0, 0.6, 0.2, 0.0], 25_000, 5)
        blocked = haar_oracle(*args)
        monkeypatch.setattr(hypergeom, "_QR_BLOCK", hypergeom._HAAR_CHUNK)
        assert haar_oracle(*args) == blocked


class TestClusterSpectrum:
    def test_grouping_and_zero_snap(self):
        spec = cluster_spectrum([1.0, 1.0 + 1e-12, -2.0, 1e-14])
        assert spec.values == (1.0 + 5e-13, 0.0, -2.0)
        assert spec.multiplicities == (2, 1, 1)

    def test_distinct_passthrough(self):
        spec = cluster_spectrum([3.0, 1.0, 2.0])
        assert spec.values == (3.0, 2.0, 1.0)
        assert spec.multiplicities == (1, 1, 1)
