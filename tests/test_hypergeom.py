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
from zfrician.rng import standard_complex_normal

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

    @pytest.mark.parametrize(
        "a, b, x, name",
        [
            (2, 4, float("nan"), "x"),
            (2, 4, float("inf"), "x"),
            (2, 4, float("-inf"), "x"),
            (float("nan"), 4, 1.0, "a"),
            (2, float("inf"), 1.0, "b"),
        ],
    )
    def test_f11_non_finite_refused(self, a, b, x, name):
        # refused before summing, not after 100,000 terms as "did not converge"
        with pytest.raises(ValueError, match=f"^1F1 needs a finite {name}, got "):
            f11_series(a, b, x)


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

    @pytest.mark.parametrize("size", [5, 6])
    def test_against_haar_beyond_size_4(self, size):
        # AC2 covers sizes 3 and 4; the same spectrum law, three cases per size
        rng = np.random.default_rng(9_000 + size)

        def draw_spectrum():
            while True:
                vals = np.sort(rng.uniform(-1.5, 1.5, size))[::-1]
                if np.min(-np.diff(vals)) > 0.15:
                    return vals

        for _ in range(3):
            sig, lam = draw_spectrum(), draw_spectrum()
            val = f00_distinct(sig, lam)
            est, se = haar_oracle(sig, lam, 150_000, seed=int(rng.integers(1 << 30)))
            assert abs(val - est) <= 4 * se, (sig, lam, val, est, se)

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

    @pytest.mark.parametrize("n_r", [21, 23, 30])
    def test_coefficients_past_int64_refused(self, n_r):
        # a multiplicity of n_r - 1 needs products such as P(19, 15) C(19, 15) > 2**63
        # from n_r = 21; from n_r = 23 numpy turned them into an object array
        with pytest.raises(ValueError, match=rf"^0F0 derivative coefficients leave int64 at n_r = {n_r}$"):
            f00_general(EigenSpectrum([0.5, 0.0], [1, n_r - 1]), EigenSpectrum([1.0, 0.0], [1, n_r - 1]))


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

    @pytest.mark.parametrize(
        "sig, n_r", [([1.0, -0.5], 4), ([2.5, 0.7, -1.2], 5), ([300.0, 0.4], 6)], ids=["v2", "v3", "v2_log_domain"]
    )
    def test_full_rank_l_is_etr(self, sig, n_r):
        # L = I: 0F0(S, I) = etr(S); the table has no right-hand block
        assert f00_rank_v_idempotent(sig, n_r, n_r) == math.exp(sum(sig))

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
        # either side of SMALL_SIGMA (0.1): no branch of the rank-1 path switches there
        lo = f00_rank1_idempotent(0.099, 2, 4)
        hi = f00_rank1_idempotent(0.101, 2, 4)
        ref_lo = f11_series(2, 4, 0.099)
        ref_hi = f11_series(2, 4, 0.101)
        assert abs(lo - ref_lo) < 1e-12
        assert abs(hi - ref_hi) < 1e-8

    def test_log_domain_branch(self):
        # exp(250) times the closed form of the reflection matches the series
        val = f00_rank1_idempotent(250.0, 2, 4)
        ref = f11_series(2, 4, 250.0)
        assert abs(val - ref) < 1e-7 * abs(ref)

    def test_array_equals_scalar_calls(self):
        # the Jacobi rule, the closed form, sigma = 0 and n == n_r in one array
        sig = np.array([[0.05, -0.09, 0.1, -0.3], [1.7, -25.0, 150.0, 250.0], [-0.0, 380.0, 210.0, -7.5]])
        for n, n_r in ((2, 4), (1, 5), (4, 4)):
            arr = f00_rank1_idempotent(sig, n, n_r)
            assert arr.shape == sig.shape
            assert arr.ravel().tolist() == [f00_rank1_idempotent(float(x), n, n_r) for x in sig.ravel()]

    def test_rank_out_of_range_refused(self):
        with pytest.raises(ValueError, match="1 <= n <= n_r"):
            f00_rank1_idempotent([1.0, 2.0], 5, 4)

    def test_sigma_zero_is_one(self):
        assert f00_rank1_idempotent(np.array([0.0, -0.0]), 3, 7).tolist() == [1.0, 1.0]

    def test_n_r_past_the_tested_range_refused(self):
        with pytest.raises(ValueError, match=r"^rank-1 0F0 is evaluated for n_r <= 40, got n_r = 41$"):
            f00_rank1_idempotent(-1.0, 3, 41)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_sigma_refused(self, bad):
        with pytest.raises(ValueError, match=r"^rank-1 0F0 needs finite sigma, got "):
            f00_rank1_idempotent([-1.0, bad], 3, 7)

    @pytest.mark.parametrize("n_r", range(2, 41))
    def test_against_mpmath(self, n_r):
        # Kummer's integral over its whole stated domain: every n < n_r,
        # and sigma1 log-spaced on both sides of 0, across the split
        # between the Jacobi rule and the closed form, down to -1.6e4 and
        # up to 600 (reflection)
        mp = pytest.importorskip("mpmath")
        sig = np.concatenate([-np.geomspace(1e-4, 1.6e4, 17), np.geomspace(1e-4, 600.0, 13)])
        for n in range(1, n_r):
            vals = f00_rank1_idempotent(sig, n, n_r)
            for val, s in zip(vals.tolist(), sig.tolist()):
                ref = mp.hyp1f1(n, n_r, s)
                assert abs(val - ref) <= 1e-10 * ref, (n, s, val)

    def test_closed_form_against_mpmath(self):
        # every n < n_r <= 40 at its closed form's split, 1.5 times it, 300
        # and 1.6e4, with the guard free to send a point to the Jacobi rule
        mp = pytest.importorskip("mpmath")
        for n_r in range(2, hypergeom.KUMMER_MAX_N_R + 1):
            for n in range(1, n_r):
                split = hypergeom._kummer_tail(n, n_r)[0]
                sig = np.array([-split, -1.5 * split, -300.0, -1.6e4])
                for val, s in zip(f00_rank1_idempotent(sig, n, n_r).tolist(), sig.tolist()):
                    ref = mp.hyp1f1(n, n_r, s)
                    assert abs(val - ref) <= 1e-12 * ref, (n, n_r, s, val)

    def test_closed_form_beyond_300(self, monkeypatch):
        # the Jacobi rule is not certified below -300: no pair may reach it there
        def no_jacobi(*args):
            raise AssertionError("Gauss-Jacobi rule used")

        monkeypatch.setattr(hypergeom, "_block_sums", no_jacobi)
        sig = np.concatenate([-np.geomspace(300.0, 1.6e4, 60), np.geomspace(300.0, 650.0, 20)])
        for n_r in range(2, hypergeom.KUMMER_MAX_N_R + 1):
            for n in range(1, n_r):
                assert hypergeom._kummer_tail(n, n_r)[0] <= 300.0
                assert np.isfinite(f00_rank1_idempotent(sig, n, n_r)).all()

    def test_cancellation_guard(self):
        # (20, 40): the alternating sum cancels near its split of 49, where
        # the closed form alone is off by 1.6e-11; the guard sends it to the
        # Jacobi rule. -42 lies above the split.
        mp = pytest.importorskip("mpmath")
        split, coef = hypergeom._kummer_tail(20, 40)
        assert split == 49.0
        p, q = (np.polyval(row[::-1], 1.0 / split) for row in coef)
        assert q > 16.0 * p
        for s in (-42.0, -split):
            ref = mp.hyp1f1(20, 40, s)
            assert abs(f00_rank1_idempotent(s, 20, 40) - ref) <= 1e-12 * ref

    def test_jacobi_bytes_do_not_depend_on_block_size(self, monkeypatch):
        # every |sigma| <= 20 is above the smallest split (23): all 601 take the Jacobi rule
        sig = np.linspace(-20.0, 20.0, 601)
        out = []
        for block in (64, 256, sig.size):
            monkeypatch.setattr(hypergeom, "_KUMMER_BLOCK", block)
            out.append(f00_rank1_idempotent(sig, 3, 9).tobytes())
        assert out[1] == out[0]
        assert out[2] == out[0]


class TestLogDomainAssembly:
    """Factoring exp(sigma) out of the table agrees with the direct determinant."""

    @pytest.mark.parametrize(
        "f00",
        [
            lambda: f00_rank_v_idempotent([260.0, 245.0], 3, 4),
            # three shifted rows: exp(-390) * exp(-380) underflows a
            # determinant whose pivots all fit a double
            lambda: f00_rank_v_idempotent([400.0, 390.0, 380.0], 1, 4),
        ],
        ids=["v2", "v3_small_rank"],
    )
    def test_agrees_with_direct(self, f00, monkeypatch):
        logged = f00()
        monkeypatch.setattr(hypergeom, "LOG_DOMAIN_SIGMA", math.inf)
        direct = f00()
        assert math.isfinite(direct) and direct > 0
        assert abs(logged - direct) <= 1e-12 * direct


class TestBeyondDoubleRange:
    """A value past double range is a one-line ValueError naming sigma and n_r."""

    @pytest.mark.parametrize(
        "f00, match",
        [
            (lambda: f00_rank_v_idempotent([800.0, 700.0], 2, 5), "sigma = [800.0, 700.0], n_r = 5"),
            (lambda: f00_rank1_idempotent(800.0, 2, 6), "sigma = [800.0], n_r = 6"),
            (lambda: f00_rank1_idempotent([-3.0, 800.0, 50.0], 2, 6), "sigma = [800.0], n_r = 6"),
            (lambda: f00_rank1_idempotent(800.0, 6, 6), "sigma = [800.0], n_r = 6"),
            (lambda: f00_distinct([800.0, 1.0], [1.0, 0.5]), "sigma = [800.0, 1.0], n_r = 2"),
        ],
        ids=["rank_v", "rank1", "rank1_array", "rank1_identity", "distinct"],
    )
    def test_refused(self, f00, match):
        with pytest.raises(ValueError, match="0F0 evaluation leaves double range at ") as err:
            f00()
        assert match in str(err.value) and "\n" not in str(err.value)

    @pytest.mark.parametrize("sig, n_r", [([150.0, 140.0, 130.0], 20), ([190.0, 180.0, 170.0], 16), ([199.0, 198.0], 27)])
    def test_overflowing_table_goes_to_log_domain(self, sig, n_r):
        # log|det| of these tables exceeds the double range, the value does not:
        # with L the identity, 0F0 is etr(S)
        val = f00_rank_v_idempotent(sig, n_r, n_r)
        ref = math.exp(sum(sig))
        assert abs(val - ref) <= 1e-12 * ref


# haar_oracle (est, se) for full-rank pairs, float.hex(): the pin, then the
# same call before the oracle shifted each spectrum by its most repeated
# value. The pre-shift values drew n x n, the pins draw n x (n - 1), so the
# two are independent estimates of the same average.
HAAR_FULL_RANK_PINS = [
    (
        ([0.9, 0.3, -0.5], [1.1, 0.2, -0.8], 25_000, 101),
        ("0x1.4173590d3cfd9p+0", "0x1.f3cb38398fbf5p-9"),
        ("0x1.413941bde6b4ep+0", "0x1.f433ba10a7197p-9"),
    ),
    (
        ([1.3, 0.6, -0.2, -1.1], [1.0, 0.4, -0.3, -0.9], 25_000, 202),
        ("0x1.48734c730e998p+0", "0x1.76071b00510c7p-8"),
        ("0x1.4653e133f3bc9p+0", "0x1.732a05f9f968fp-8"),
    ),
]


class TestHaarOracle:
    def test_zero_s(self):
        est, se = haar_oracle([0.0, 0.0, 0.0], [1.0, 0.5, 0.0], 2_000, seed=1)
        assert est == 1.0 and se == 0.0

    def test_zero_lambda_draws_nothing(self, monkeypatch):
        monkeypatch.setattr(hypergeom, "standard_complex_normal", None)  # a draw would raise
        assert haar_oracle([0.4, -0.2, 0.1], [0.0, 0.0, 0.0], 2_000, seed=1) == (1.0, 0.0)
        assert haar_oracle([0.0, 0.0, 0.0], [1.0, 0.5, 0.0], 2_000, seed=1) == (1.0, 0.0)

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
        # blocks with a partial last block; 3 columns, then 2, then 2 rows
        # (s - 0 has 2 nonzeros, lambda - 0.1 has 4) drawn
        cases = [
            ([0.9, -0.3, 0.2, 0.1], [1.0, 0.6, 0.2, 0.0], 25_000, 5),
            ([1.7, 0.9, 0.0, 0.0, 0.0], [1.0, 1.0, 1.0, 0.0, 0.0], 25_000, 6),
            ([1.2, -0.5, 0.0, 0.0, 0.0], [0.9, 0.4, 0.1, -0.3, 0.6], 25_000, 7),
        ]
        blocked = [haar_oracle(*args) for args in cases]
        monkeypatch.setattr(hypergeom, "_QR_BLOCK", hypergeom._HAAR_CHUNK)
        assert [haar_oracle(*args) for args in cases] == blocked

    @pytest.mark.parametrize("args, pin, pre_shift", HAAR_FULL_RANK_PINS, ids=["3x3", "4x4"])
    def test_full_rank_bits_pinned(self, args, pin, pre_shift):
        est, se = haar_oracle(*args)
        assert (est.hex(), se.hex()) == pin
        old_est, old_se = (float.fromhex(x) for x in pre_shift)
        assert abs(est - old_est) <= 4 * math.hypot(se, old_se)

    def test_constant_lambda_draws_nothing(self, monkeypatch):
        monkeypatch.setattr(hypergeom, "standard_complex_normal", None)  # a draw would raise
        s = [0.4, -0.2, 0.1]
        est, se = haar_oracle(s, [0.7, 0.7, 0.7], 2_000, seed=1)
        ref = math.exp(0.7 * sum(s))
        assert abs(est - ref) <= 1e-15 * ref and se == 0.0

    def test_zero_wins_a_tie(self, monkeypatch):
        # 0.0 ties with -0.4 in s and with -0.5 in lambda: neither spectrum is
        # shifted, so the draw and the bytes are those of the unshifted oracle
        drawn = []

        def spy(rng, size):
            drawn.append(size[1:])
            return standard_complex_normal(rng, size)

        monkeypatch.setattr(hypergeom, "standard_complex_normal", spy)
        est, se = haar_oracle([0.9, -0.4, 0.0, -0.4, 0.0], [0.0, 0.6, -0.5, 0.0, -0.5], 2_000, seed=3)
        assert drawn == [(5, 3)]
        assert (est.hex(), se.hex()) == ("0x1.02723448d1100p+0", "0x1.2e932fbdaf6fap-8")

    @pytest.mark.parametrize(
        "s, lam, match",
        [
            ([400.0, 0.0, 0.0], [3.0, 0.0, 0.0], "leaves double range"),
            ([400.0, 400.0, 400.0, 1.0], [3.0, 3.0, 3.0, 1.0], "leaves double range"),
            ([-400.0, -400.0, -400.0, 1.0], [3.0, 3.0, 3.0, 1.0], "leaves double range"),
            ([-400.0, -400.0, -400.0], [3.0, 3.0, 3.0], "leaves double range"),
            ([float("nan"), 0.0, 0.0], [3.0, 0.0, 0.0], "needs finite spectra"),
            ([1.0, 0.0, 0.0], [float("inf"), 0.0, 0.0], "needs finite spectra"),
        ],
        ids=["estimate_overflows", "shift_overflows", "estimate_underflows", "constant_underflows", "nan", "inf"],
    )
    def test_non_finite_refused(self, s, lam, match):
        with pytest.raises(ValueError, match=f"^Haar oracle {match}") as err:
            haar_oracle(s, lam, 2_000, seed=1)
        assert "\n" not in str(err.value)

    # The ids name the form the unshifted oracle drew. Shifting (1, 1, 1, 0)
    # by 1 leaves one nonzero, so rank2_rows now draws a column, rank2_columns a row.
    @pytest.mark.parametrize(
        "s, lam, shape",
        [
            ([0.9, 0.3, -0.5], [1.1, 0.2, -0.8], (3, 2)),
            ([2.0, 1.0, 0.0, 0.0], [1.0, 1.0, 1.0, 0.0], (4, 1)),
            ([1.0, 1.0, 1.0, 0.0], [2.0, 1.0, 0.0, 0.0], (4, 1)),
            ([0.0, 0.7, 0.0, 0.0, 0.0], [0.5, 0.0, 0.3, -0.2, 0.0], (5, 1)),
        ],
        ids=["full_rank", "rank2_rows", "rank2_columns", "rank1_rows"],
    )
    def test_draws_only_the_columns_read(self, s, lam, shape, monkeypatch):
        drawn = []

        def spy(rng, size):
            drawn.append(size[1:])
            return standard_complex_normal(rng, size)

        monkeypatch.setattr(hypergeom, "standard_complex_normal", spy)
        haar_oracle(s, lam, 1_000, seed=2)
        assert drawn == [shape]

    @pytest.mark.parametrize("n", [4, 5])
    @pytest.mark.parametrize("sig", [[1.3], [1.6, -0.7]], ids=["v1", "v2"])
    def test_row_form_against_rank_v(self, sig, n):
        # rank-v S against a rank-3 idempotent; after the shift n = 5, v = 1 draws rows
        val = f00_rank_v_idempotent(sig, 3, n)
        s = list(sig) + [0.0] * (n - len(sig))
        est, se = haar_oracle(s, [1.0, 1.0, 1.0] + [0.0] * (n - 3), 100_000, seed=30 + n)
        assert abs(val - est) <= 4 * se

    @pytest.mark.parametrize("s", [[1.2, 0.5, -0.3, -0.9], [1.2, 0.5, 0.1, -0.3, -0.9]], ids=["n4", "n5"])
    def test_column_form_against_general(self, s):
        # full-rank S against rank-2 L: 2 nonzeros in lambda, so columns are drawn
        n = len(s)
        val = f00_general(EigenSpectrum(s, [1] * n), EigenSpectrum([0.8, 0.0, -0.6], [1, n - 2, 1]))
        est, se = haar_oracle(s, [0.8, -0.6] + [0.0] * (n - 2), 100_000, seed=40 + n)
        assert abs(val - est) <= 4 * se

    @pytest.mark.parametrize(
        "s, lam",
        [([1.4, 0.6, 0.0, 0.0], [1.0, 1.0, 1.0, 0.0]), ([0.9, 0.3, -0.5], [1.1, 0.2, -0.8])],
        ids=["rank2", "full_rank"],
    )
    def test_swapped_spectra_agree(self, s, lam):
        # 0F0(S, L) = 0F0(L, S); the swapped call draws the other form
        a, se_a = haar_oracle(s, lam, 100_000, seed=51)
        b, se_b = haar_oracle(lam, s, 100_000, seed=52)
        assert abs(a - b) <= 4 * math.hypot(se_a, se_b)


class TestClusterSpectrum:
    def test_grouping_and_zero_snap(self):
        spec = cluster_spectrum([1.0, 1.0 + 1e-12, -2.0, 1e-14])
        assert spec.values == (1.0 + 5e-13, 0.0, -2.0)
        assert spec.multiplicities == (2, 1, 1)

    def test_distinct_passthrough(self):
        spec = cluster_spectrum([3.0, 1.0, 2.0])
        assert spec.values == (3.0, 2.0, 1.0)
        assert spec.multiplicities == (1, 1, 1)
