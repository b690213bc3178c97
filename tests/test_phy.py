"""The phy parameter types and the fused chain kernel, checked in absolute
terms: hand-worked decisions, ties and Gray distances."""

import math

import numpy as np
import pytest

from dafsc import analysis, harness
from dafsc.fading import FadingConfig, generate_awgn, generate_fading
from dafsc.phy import ModulationParams, PowerProfile, chain_error_counts


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

    def test_order_is_the_only_setting(self):
        # a and b follow from the order, so a mismatched pair cannot be built
        with pytest.raises(TypeError):
            ModulationParams(4, 0.0, math.sqrt(2.0))
        with pytest.raises(TypeError):
            ModulationParams(order=4, a=0.0)
        with pytest.raises(TypeError):
            ModulationParams(order=4, b=math.sqrt(2.0))
        for order in (3, 4.0, 2.0):
            with pytest.raises(ValueError):
                ModulationParams(order)
        assert ModulationParams(2) == ModulationParams.dbpsk()
        assert ModulationParams(4) == ModulationParams.dqpsk()


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


# Hamming distance of the Gray labels m ^ (m >> 1) of a sent and a detected
# constellation index: GRAY_DISTANCE[order][sent][detected]
GRAY_DISTANCE = {
    2: [[0, 1], [1, 0]],
    4: [[0, 1, 2, 1], [1, 0, 1, 2], [2, 1, 0, 1], [1, 2, 1, 0]],
}


MODULATION = {2: ModulationParams.dbpsk(), 4: ModulationParams.dqpsk()}


def silent_counts(sent, y_sd, y_rd, order=2, amplification=1.0):
    """(SC, semi-MRC) bit errors of one sent symbol index over silent
    channels (h = 0, so y = w) with the branch samples y_sd and y_rd."""
    prof = PowerProfile(total_power=10.0, q=0.7, amplification=amplification)
    silent = np.zeros(2, dtype=complex)
    return chain_error_counts([sent], silent, silent, silent,
                              np.asarray(y_sd, dtype=complex), silent,
                              np.asarray(y_rd, dtype=complex),
                              profile=prof, mod=MODULATION[order], frame_len=1)


def decisions(zeta_sd, zeta_rd=0j, order=2, amplification=1.0):
    """(SC, semi-MRC) constellation indices the kernel detects from the
    decision variables zeta_sd and zeta_rd, fed in as the branch samples
    (1, zeta): the detected index is the one sent symbol with no bit error."""
    counts = [silent_counts(m, (1, zeta_sd), (1, zeta_rd), order, amplification)
              for m in range(order)]
    return tuple(next(m for m in range(order) if counts[m][c] == 0) for c in (0, 1))


def static_link_counts(order, h_sd, h_sr, h_rd, length=50, seed=3):
    """(SC, semi-MRC) bit errors of random symbols over noiseless static
    channels h_sd, h_sr, h_rd."""
    prof = PowerProfile(total_power=5.0, q=0.6, amplification=0.8)
    v = np.random.default_rng(seed).integers(0, order, length)
    taps = [np.full(length + 1, h, dtype=complex) for h in (h_sd, h_sr, h_rd)]
    zeros = np.zeros(length + 1, dtype=complex)
    return chain_error_counts(v, *taps, zeros, zeros, zeros,
                              profile=prof, mod=MODULATION[order], frame_len=length)


class TestDifferentialEncoding:
    def test_output_longer_by_one_and_unit_magnitude(self):
        # a frame of L symbols is L + 1 channel uses: the reference s[0]
        # and one use per symbol
        mod = ModulationParams.dqpsk()
        prof = PowerProfile.from_db(10.0, 0.5)
        v = np.zeros(4, np.int64)
        for uses in (4, 6):
            links = [np.ones(uses, dtype=complex)] * 6
            with pytest.raises(ValueError, match="must have 5 samples"):
                chain_error_counts(v, *links, profile=prof, mod=mod, frame_len=4)
        links = [np.ones(5, dtype=complex)] * 3 + [np.zeros(5, dtype=complex)] * 3
        assert chain_error_counts(v, *links, profile=prof, mod=mod,
                                  frame_len=4) == (0, 0)


class TestRelayForward:
    def test_zero_gain_passes_noise(self):
        # a zero relay-destination channel passes only the destination
        # noise: the source-relay samples do not reach the decisions
        mod = ModulationParams.dqpsk()
        prof = PowerProfile.from_db(10.0, 0.5)
        rng = np.random.default_rng(1)
        v = rng.integers(0, 4, 30)
        n = 31
        h_sd, w_sd, w_rd, h_sr, w_sr = (rng.standard_normal(n)
                                        + 1j * rng.standard_normal(n)
                                        for _ in range(5))
        zeros = np.zeros(n, dtype=complex)
        got = chain_error_counts(v, h_sd, h_sr, zeros, w_sd, w_sr, w_rd,
                                 profile=prof, mod=mod, frame_len=30)
        want = chain_error_counts(v, h_sd, zeros, zeros, w_sd, zeros, w_rd,
                                  profile=prof, mod=mod, frame_len=30)
        assert got == want

    def test_noiseless_arithmetic(self):
        # a silent direct link: the amplified relay branch alone carries
        # every symbol
        for order in (2, 4):
            assert static_link_counts(order, 0.0, 1 + 1j, 0.5 - 2j) == (0, 0)

    def test_shape_error(self):
        mod = ModulationParams.dbpsk()
        prof = PowerProfile.from_db(10.0, 0.5)
        links = [np.ones(4, dtype=complex)] * 6
        links[2] = np.ones(3, dtype=complex)
        with pytest.raises(ValueError, match="h_rd must have 4 samples"):
            chain_error_counts(np.zeros(3, np.int64), *links, profile=prof,
                               mod=mod, frame_len=3)


class TestDecisionVariables:
    def test_conjugate_product(self):
        # zeta = conj(y[k-1]) * y[k]: samples (j, 1) give -j (index 3),
        # not j; on the relay branch (2, -2) gives -4 (index 2)
        assert decisions(-1j, order=4) == (3, 3)
        assert silent_counts(3, (1j, 1), (0, 0), order=4) == (0, 0)
        assert silent_counts(2, (0, 0), (2, -2), order=4) == (0, 0)

    def test_noiseless_direct_link_carries_symbol(self):
        # a silent relay branch: the direct branch alone carries every symbol
        for order in (2, 4):
            assert static_link_counts(order, 0.3 - 0.8j, 0.0, 0.0) == (0, 0)


class TestCombiners:
    def test_select_direct_wins(self):
        assert decisions(3, -1)[0] == 0

    def test_select_relay_wins(self):
        assert decisions(1 + 1j, -2)[0] == 1

    def test_select_tie_prefers_direct(self):
        # equal |zeta_sd| and |zeta_rd| detecting different symbols: SC
        # counts the errors of the direct branch's point
        for order, z_sd, z_rd, direct in ((2, 1, -1, 0), (2, -1, 1, 1),
                                          (4, 1j, -1, 1), (4, -1, 1j, 2),
                                          (4, -1j, 1, 3)):
            for sent in range(order):
                err_sc, _ = silent_counts(sent, (1, z_sd), (1, z_rd), order)
                assert err_sc == GRAY_DISTANCE[order][sent][direct]

    def test_select_returns_one_of_inputs_with_max_magnitude(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal(200) + 1j * rng.standard_normal(200)
        b = rng.standard_normal(200) + 1j * rng.standard_normal(200)
        for z_sd, z_rd in zip(a, b):
            larger = z_rd if abs(z_rd) > abs(z_sd) else z_sd
            assert decisions(z_sd, z_rd, 4)[0] == decisions(larger, 0j, 4)[0]

    def test_semi_mrc_direct_term(self):
        # a zero relay decision variable leaves zeta_sd / 2: the direct decision
        assert decisions(-2, 0j, amplification=3.0)[1] == 1
        assert decisions(-0.2 + 3j, 0j, 4, amplification=3.0)[1] == 1

    def test_semi_mrc_relay_weight(self):
        # zeta_sd / 2 + zeta_rd / (2 (1 + A^2)) with zeta_sd = 1, zeta_rd = -3:
        # -1/4 at A = 1 decides -1; 1/5 at A = 2 decides +1
        assert decisions(1, -3, amplification=1.0)[1] == 1
        assert decisions(1, -3, amplification=2.0)[1] == 0

    def test_semi_mrc_large_gain_limit(self):
        # the relay weight 1 / (2 (1 + A^2)) vanishes as A grows
        assert decisions(2 + 1j, -5e6, 4, amplification=1.0)[1] == 2
        assert decisions(2 + 1j, -5e6, 4, amplification=1e9)[1] == 0


class TestDetection:
    def test_binary_examples(self):
        assert decisions(0.9 + 0.1j) == (0, 0)

    def test_quaternary_examples(self):
        assert decisions(-0.2 + 3j, order=4) == (1, 1)

    def test_zero_resolves_to_first_point(self):
        assert decisions(0j, order=4) == (0, 0)

    def test_boundary_tie_deterministic(self):
        # exactly between symbols 1 and j (exp(j pi/4) is not: its real
        # part is one ulp larger): lowest index wins
        assert decisions(1 + 1j, order=4) == (0, 0)

    def test_matches_argmin_definition_on_random_inputs(self):
        rng = np.random.default_rng(5)
        z = 3.0 * (rng.standard_normal(300) + 1j * rng.standard_normal(300))
        for order in (2, 4):
            points = np.exp(2j * np.pi * np.arange(order) / order)
            want = np.argmin(np.abs(z[:, None] - points) ** 2, axis=1)
            got = [decisions(zeta, 0j, order)[0] for zeta in z]
            np.testing.assert_array_equal(got, want)

    def test_dbpsk_depends_on_real_sign(self):
        rng = np.random.default_rng(6)
        z = rng.standard_normal(200) + 1j * rng.standard_normal(200)
        got = [decisions(zeta)[0] for zeta in z]
        np.testing.assert_array_equal(got, z.real < 0)


class TestDetectionTies:
    """Decision variables on a decision boundary, or 0: the kernel picks
    the lowest-index nearest point."""

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
        for unit, nearest in self.NEAREST[order]:
            zeta = a * complex(unit)
            for sent in range(order):
                # y_sd = (1, zeta) and y_rd = 0: SC decides on zeta,
                # semi-MRC on zeta / 2
                errs = silent_counts(sent, (1, zeta), (0, 0), order)
                distance = GRAY_DISTANCE[order][sent][nearest]
                assert errs == (distance, distance), (zeta, sent)


class TestGrayMapping:
    def test_adjacent_symbols_one_bit(self):
        points = [1, 1j, -1, -1j]
        for m in range(4):
            for step, bits in ((0, 0), (1, 1), (2, 2), (3, 1)):
                zeta = points[(m + step) % 4]
                assert silent_counts(m, (1, zeta), (0, 0), 4) == (bits, bits)

    def test_binary_lut(self):
        got = [[silent_counts(m, (1, zeta), (0, 0))[0] for zeta in (1, -1)]
               for m in range(2)]
        assert got == [[0, 1], [1, 0]]


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
        for frame_len in (0, -1):
            with pytest.raises(ValueError, match="frame_len must be >= 1"):
                chain_error_counts(np.zeros(6, np.int64), ones, ones, ones, ones,
                                   ones, ones, profile=prof, mod=mod,
                                   frame_len=frame_len)

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
            e_sc, _ = harness._run_trial(config, prof, 0, t)
            total_err += e_sc
            rates.append(e_sc / bits_per_trial)
        ber = total_err / (trials * bits_per_trial)
        se = np.std(rates, ddof=1) / math.sqrt(trials)
        ana = analysis.analytical_ber(mod, prof)
        assert abs(ber - ana) <= 3.0 * se

