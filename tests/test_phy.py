"""Transmit/relay/receive chain operations and the fused chain kernel."""

import math

import numpy as np
import pytest

from dafsc import analysis, harness
from dafsc.fading import FadingConfig, generate_awgn, generate_fading
from dafsc.phy import (
    ModulationParams,
    PowerProfile,
    chain_error_counts,
    constellation,
    decision_variables,
    differential_encode,
    gray_bit_error_lut,
    min_distance_detect,
    relay_forward,
    select_combine,
    semi_mrc_combine,
    symbols_to_indices,
)


class TestModulationParams:
    def test_dbpsk_constants(self):
        mod = ModulationParams.dbpsk()
        assert mod.order == 2 and mod.a == 0.0
        assert mod.b == pytest.approx(math.sqrt(2.0))
        assert mod.beta == 0.0

    def test_dqpsk_constants(self):
        mod = ModulationParams.dqpsk()
        assert mod.a == pytest.approx(0.7653668647301795, rel=1e-12)
        assert mod.b == pytest.approx(1.8477590650225735, rel=1e-12)
        assert 0.0 <= mod.beta < 1.0

    def test_from_name(self):
        assert ModulationParams.from_name("DBPSK").order == 2
        with pytest.raises(ValueError):
            ModulationParams.from_name("qam16")


class TestPowerProfile:
    def test_split_and_default_gain(self):
        prof = PowerProfile.from_db(20.0, 0.7)
        assert prof.total_power == pytest.approx(100.0)
        assert prof.p0 == pytest.approx(70.0)
        assert prof.p1 == pytest.approx(30.0)
        assert prof.amplification == pytest.approx(math.sqrt(30.0 / 71.0))

    def test_explicit_gain(self):
        prof = PowerProfile(total_power=10.0, q=0.5, amplification=2.0)
        assert prof.amplification == 2.0

    def test_invariants(self):
        with pytest.raises(ValueError):
            PowerProfile(total_power=0.0, q=0.5)
        with pytest.raises(ValueError):
            PowerProfile(total_power=1.0, q=1.0)
        with pytest.raises(ValueError):
            PowerProfile(total_power=1.0, q=0.5, amplification=-1.0)
        with pytest.raises(ValueError):
            PowerProfile(total_power=1.0, q=0.5, amplification=float("nan"))
        # A*A or 1/(A*A) not a positive finite float
        for amp in (1e-160, 1e-300, 1e155, float("inf")):
            with pytest.raises(ValueError, match="amplification"):
                PowerProfile(total_power=100.0, q=0.7, amplification=amp)


class TestDifferentialEncoding:
    def test_identity_stream(self):
        np.testing.assert_allclose(differential_encode([1, 1], 2), [1, 1, 1])

    def test_alternating_stream(self):
        np.testing.assert_allclose(differential_encode([-1, -1], 2), [1, -1, 1],
                                   atol=1e-12)

    def test_quaternary_stream(self):
        got = differential_encode([1j, 1j, -1], 4)
        np.testing.assert_allclose(got, [1, 1j, -1, 1], atol=1e-12)

    def test_output_longer_by_one_and_unit_magnitude(self):
        rng = np.random.default_rng(0)
        info = constellation(4)[rng.integers(0, 4, 257)]
        enc = differential_encode(info, 4)
        assert enc.size == 258
        np.testing.assert_allclose(np.abs(enc), 1.0, atol=1e-12)
        # recursion s[k] = v[k] s[k-1]
        np.testing.assert_allclose(enc[1:], info * enc[:-1], atol=1e-12)

    def test_domain_error_for_foreign_symbol(self):
        with pytest.raises(ValueError):
            differential_encode([1.0, 0.5 + 0.5j], 2)
        with pytest.raises(ValueError):
            differential_encode([np.exp(1j * 0.3)], 4)


class TestRelayForward:
    def test_zero_gain_passes_noise(self):
        w = np.array([1 + 2j, -3j])
        np.testing.assert_array_equal(relay_forward([5, 6], 0.0, [1, 1], w), w)

    def test_noiseless_arithmetic(self):
        got = relay_forward([1 + 1j], 2.0, [1.0], [0.0])
        np.testing.assert_allclose(got, [2 + 2j])

    def test_shape_error(self):
        with pytest.raises(ValueError):
            relay_forward([1, 2, 3], 1.0, [1, 2], [0, 0])

    def test_cascade_substitution_identity(self):
        # forwarding the relay's received signal equals the cascaded-channel
        # form: A sqrt(P0) h_sr h_rd s + (A h_rd w_sr + w_rd), elementwise
        rng = np.random.default_rng(2)
        n = 64
        s = constellation(4)[rng.integers(0, 4, n)]
        h_sr = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / math.sqrt(2)
        h_rd = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / math.sqrt(2)
        w_sr = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / math.sqrt(2)
        w_rd = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / math.sqrt(2)
        p0, amp = 7.0, 0.8
        y_sr = math.sqrt(p0) * h_sr * s + w_sr
        got = relay_forward(y_sr, amp, h_rd, w_rd)
        want = amp * math.sqrt(p0) * h_sr * h_rd * s + (amp * h_rd * w_sr + w_rd)
        np.testing.assert_allclose(got, want, rtol=1e-13)


class TestDecisionVariables:
    def test_conjugate_product(self):
        z_sd, z_rd = decision_variables([1, 1j], [2, -2])
        assert z_sd[0] == 1j
        assert z_rd[0] == -4

    def test_noiseless_direct_link_carries_symbol(self):
        rng = np.random.default_rng(3)
        info = constellation(4)[rng.integers(0, 4, 50)]
        h = 0.3 - 0.8j
        y = math.sqrt(5.0) * h * differential_encode(info, 4)
        z_sd, _ = decision_variables(y, y)
        np.testing.assert_allclose(z_sd, 5.0 * abs(h) ** 2 * info, rtol=1e-12)

    def test_shape_error(self):
        with pytest.raises(ValueError):
            decision_variables([1.0], [1.0, 2.0])


class TestCombiners:
    def test_select_direct_wins(self):
        assert select_combine(3 + 0j, 1 + 0j) == 3 + 0j

    def test_select_relay_wins(self):
        assert select_combine(1 + 1j, -2 + 0j) == -2 + 0j

    def test_select_tie_prefers_direct(self):
        assert select_combine(1 + 0j, -1 + 0j) == 1 + 0j

    def test_select_returns_one_of_inputs_with_max_magnitude(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal(500) + 1j * rng.standard_normal(500)
        b = rng.standard_normal(500) + 1j * rng.standard_normal(500)
        out = select_combine(a, b)
        is_a = out == a
        is_b = out == b
        assert np.all(is_a | is_b)
        np.testing.assert_array_equal(np.abs(out), np.maximum(np.abs(a), np.abs(b)))

    def test_semi_mrc_direct_term(self):
        assert semi_mrc_combine(2 + 0j, 0j, 3.0) == 1 + 0j

    def test_semi_mrc_relay_weight(self):
        assert semi_mrc_combine(0j, 4 + 0j, 1.0) == 1 + 0j

    def test_semi_mrc_large_gain_limit(self):
        out = semi_mrc_combine(2 + 2j, 5 - 1j, 1e9)
        assert out == pytest.approx(1 + 1j, abs=1e-12)

    def test_semi_mrc_gain_validation(self):
        with pytest.raises(ValueError):
            semi_mrc_combine(1 + 0j, 1 + 0j, 0.0)


class TestDetection:
    def test_binary_examples(self):
        assert min_distance_detect(0.9 + 0.1j, 2) == 1 + 0j

    def test_quaternary_examples(self):
        got = min_distance_detect(-0.2 + 3j, 4)
        assert got == pytest.approx(1j, abs=1e-12)

    def test_zero_resolves_to_first_point(self):
        assert min_distance_detect(0j, 4) == 1 + 0j

    def test_boundary_tie_deterministic(self):
        # exactly between symbols 1 and j: lowest index wins
        tie = np.exp(1j * math.pi / 4)
        assert min_distance_detect(tie, 4) == 1 + 0j

    def test_matches_argmin_definition_on_random_inputs(self):
        rng = np.random.default_rng(5)
        z = 3.0 * (rng.standard_normal(1000) + 1j * rng.standard_normal(1000))
        for order in (2, 4):
            got = min_distance_detect(z, order)
            points = constellation(order)
            want = points[np.argmin(np.abs(z[:, None] - points) ** 2, axis=1)]
            np.testing.assert_array_equal(got, want)

    def test_dbpsk_depends_on_real_sign(self):
        rng = np.random.default_rng(6)
        z = rng.standard_normal(500) + 1j * rng.standard_normal(500)
        got = min_distance_detect(z, 2)
        want = np.where(z.real >= 0, 1 + 0j, -1 + 0j)
        np.testing.assert_array_equal(got, want)


class TestDetectionTies:
    """Decision variables on a decision boundary, or 0: the fused chain and
    min_distance_detect both pick the lowest-index nearest point."""

    # zeta / a -> index of the lowest-index nearest point
    NEAREST = {
        2: [(0, 0), (1, 0), (-1, 1), (1j, 0), (-1j, 0),
            (1 + 1j, 0), (1 - 1j, 0), (-1 + 1j, 1), (-1 - 1j, 1)],
        4: [(0, 0), (1, 0), (-1, 2), (1j, 1), (-1j, 3),
            (1 + 1j, 0), (-1 + 1j, 1), (-1 - 1j, 2), (1 - 1j, 0)],
    }

    @pytest.mark.parametrize("a", [0.5, 1.0, 3.0])
    @pytest.mark.parametrize("order", [2, 4])
    def test_tie_table(self, order, a):
        mod = ModulationParams.dbpsk() if order == 2 else ModulationParams.dqpsk()
        prof = PowerProfile.from_db(10.0, 0.7)
        lut = gray_bit_error_lut(order)
        silent = np.zeros(2, dtype=complex)
        for unit, nearest in self.NEAREST[order]:
            zeta = a * complex(unit)
            assert symbols_to_indices(min_distance_detect(zeta, order), order) == nearest
            for sent in range(order):
                # silent channels make y_sd = w_sd = (1, zeta) and y_rd = 0:
                # SC decides on zeta, semi-MRC on zeta / 2
                errs = chain_error_counts([sent], silent, silent, silent,
                                          np.array([1.0, zeta]), silent, silent,
                                          profile=prof, mod=mod, frame_len=1)
                assert errs == (lut[sent, nearest], lut[sent, nearest]), (zeta, sent)


class TestGrayMapping:
    def test_adjacent_symbols_one_bit(self):
        lut = gray_bit_error_lut(4)
        for m in range(4):
            assert lut[m, (m + 1) % 4] == 1
            assert lut[m, (m + 2) % 4] == 2
            assert lut[m, m] == 0

    def test_binary_lut(self):
        np.testing.assert_array_equal(gray_bit_error_lut(2), [[0, 1], [1, 0]])


def _trial_arrays(mod, profile, n_frames, frame_len, seed):
    ss = np.random.SeedSequence(entropy=(seed,))
    streams = [np.random.default_rng(c) for c in ss.spawn(7)]
    n = n_frames * (frame_len + 1)
    cfg = FadingConfig(normalized_doppler=0.001)
    taps = [generate_fading(cfg, n, rng=streams[i]) for i in range(3)]
    noise = [generate_awgn(streams[3 + i], n) for i in range(3)]
    v_idx = streams[6].integers(0, mod.order, n_frames * frame_len)
    return v_idx, taps, noise


class TestChain:
    def test_noiseless_static_channels_error_free(self):
        for name in ("dbpsk", "dqpsk"):
            mod = ModulationParams.from_name(name)
            prof = PowerProfile.from_db(20.0, 0.7)
            L = 400
            rng = np.random.default_rng(7)
            v = rng.integers(0, mod.order, L)
            ones = np.ones(L + 1, dtype=complex)
            zeros = np.zeros(L + 1, dtype=complex)
            errs = chain_error_counts(v, ones, ones, ones, zeros, zeros, zeros,
                                      profile=prof, mod=mod, frame_len=L)
            assert errs == (0, 0)

    def test_no_signal_gives_half_ber(self):
        mod = ModulationParams.dbpsk()
        prof = PowerProfile(total_power=1e-9, q=0.5)
        v_idx, taps, noise = _trial_arrays(mod, prof, 40, 500, seed=8)
        err_sc, err_mrc = chain_error_counts(v_idx, *taps, *noise,
                                             profile=prof, mod=mod, frame_len=500)
        bits = v_idx.size
        assert err_sc / bits == pytest.approx(0.5, abs=0.05)
        assert err_mrc / bits == pytest.approx(0.5, abs=0.05)

    def test_length_validation(self):
        mod = ModulationParams.dbpsk()
        prof = PowerProfile.from_db(10.0, 0.5)
        ones = np.ones(10, dtype=complex)
        with pytest.raises(ValueError):
            chain_error_counts(np.zeros(7, np.int64), ones, ones, ones, ones,
                               ones, ones, profile=prof, mod=mod, frame_len=3)

    def test_simulation_matches_analytics(self):
        # moderate-size paired run against the exact closed form, judged
        # with the between-trial (cluster) standard error
        mod = ModulationParams.dbpsk()
        prof = PowerProfile.from_db(20.0, 0.7)
        config = harness.ExperimentConfig(seed=1234, frames_per_trial=4,
                                          frame_length=500)
        trials, bits_per_trial = 600, 4 * 500
        rates = []
        total_err = 0
        for t in range(trials):
            e_sc, _, _ = harness._run_trial(config, prof, 0, t)
            total_err += e_sc
            rates.append(e_sc / bits_per_trial)
        ber = total_err / (trials * bits_per_trial)
        se = np.std(rates, ddof=1) / math.sqrt(trials)
        ana = analysis.analytical_ber(mod, prof)
        assert abs(ber - ana) <= 3.0 * se

