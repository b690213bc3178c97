"""Statistical checks of the fading and noise generators."""

import math

import numpy as np
import pytest
from scipy.special import j0

from dafsc.fading import FadingConfig, _draw_angles, generate_awgn, generate_fading
from oracles import sos_taps_direct


class TestFadingConfig:
    def test_invariants(self):
        with pytest.raises(ValueError):
            FadingConfig(normalized_doppler=0.5)
        with pytest.raises(ValueError):
            FadingConfig(normalized_doppler=-0.1)
        # the sinusoid order is a constant, not a setting
        assert FadingConfig().num_sinusoids == 16
        with pytest.raises(TypeError):
            FadingConfig(num_sinusoids=4)

    def test_length_check(self):
        with pytest.raises(ValueError):
            generate_fading(FadingConfig(), 0, rng=np.random.default_rng(0))


@pytest.fixture(scope="module")
def slow_taps():
    return generate_fading(FadingConfig(normalized_doppler=0.001), 1_000_000,
                           rng=np.random.default_rng(101))


class TestFadingStatistics:
    def test_unit_variance(self, slow_taps):
        var = np.mean(np.abs(slow_taps) ** 2)
        assert 0.98 <= var <= 1.02

    def test_zero_mean(self, slow_taps):
        assert abs(np.mean(slow_taps)) < 0.05

    @pytest.mark.parametrize("lag", [1, 10, 100])
    def test_autocorrelation_matches_j0(self, slow_taps, lag):
        var = np.mean(np.abs(slow_taps) ** 2)
        ac = np.mean(slow_taps[lag:] * np.conj(slow_taps[:-lag])).real / var
        assert ac == pytest.approx(j0(2 * math.pi * 0.001 * lag), abs=0.03)

    def test_slow_fading_step_energy(self, slow_taps):
        step = np.mean(np.abs(np.diff(slow_taps)) ** 2)
        assert step < 1e-4

    def test_zero_doppler_static(self):
        taps = generate_fading(FadingConfig(normalized_doppler=0.0), 5000,
                               rng=np.random.default_rng(7))
        assert np.max(np.abs(taps - taps[0])) == 0.0

    def test_ensemble_tap_statistics(self):
        # per-tap statistics across independent realizations: CN(0, 1)
        cfg = FadingConfig(normalized_doppler=0.001)
        first_taps = np.array([
            generate_fading(cfg, 2, rng=np.random.default_rng(c))[0]
            for c in np.random.SeedSequence(31).spawn(4000)])
        assert abs(np.mean(first_taps)) < 0.05
        assert np.mean(np.abs(first_taps) ** 2) == pytest.approx(1.0, abs=0.06)

    def test_determinism(self):
        cfg = FadingConfig(normalized_doppler=0.001)
        a = generate_fading(cfg, 4096, rng=np.random.default_rng(55))
        b = generate_fading(cfg, 4096, rng=np.random.default_rng(55))
        np.testing.assert_array_equal(a, b)

    def test_distinct_seeds_differ(self):
        a = generate_fading(FadingConfig(), 1000, rng=np.random.default_rng(1))
        b = generate_fading(FadingConfig(), 1000, rng=np.random.default_rng(2))
        assert np.max(np.abs(a - b)) > 0.1

    def test_cross_link_independence(self):
        # measured at a faster doppler so the 1e6-sample estimate itself
        # has scatter well below the 0.01 bound
        cfg = FadingConfig(normalized_doppler=0.2)
        streams = [np.random.default_rng(c)
                   for c in np.random.SeedSequence(321).spawn(3)]
        taps = [generate_fading(cfg, 1_000_000, rng=r) for r in streams]
        for i in range(3):
            for j in range(i + 1, 3):
                num = np.mean(taps[i] * np.conj(taps[j]))
                den = math.sqrt(np.mean(np.abs(taps[i]) ** 2)
                                * np.mean(np.abs(taps[j]) ** 2))
                assert abs(num) / den < 0.01

    def test_cascade_product_unit_mean(self):
        # |h_sr * h_rd|^2 has unit mean; a moderate doppler decorrelates
        # the time average enough for a tight check
        cfg = FadingConfig(normalized_doppler=0.02)
        streams = [np.random.default_rng(c)
                   for c in np.random.SeedSequence(77).spawn(2)]
        h_sr = generate_fading(cfg, 1_000_000, rng=streams[0])
        h_rd = generate_fading(cfg, 1_000_000, rng=streams[1])
        mean_gain = np.mean(np.abs(h_sr * h_rd) ** 2)
        assert mean_gain == pytest.approx(1.0, abs=0.05)


class TestSynthesisMatchesDirectSum:
    """The angle-addition synthesizer against the per-sinusoid sum, on the
    angles ``generate_fading`` draws from the same seed."""

    @staticmethod
    def _max_gap(doppler, length, seed):
        taps = generate_fading(FadingConfig(normalized_doppler=doppler), length,
                               rng=np.random.default_rng(seed))
        angles = _draw_angles(np.random.default_rng(seed))
        ref = sos_taps_direct(length, 2.0 * np.pi * doppler, *angles)
        return float(np.max(np.abs(taps - ref)))

    @pytest.mark.parametrize("doppler", [0.0, 0.001, 0.2, 0.49])
    @pytest.mark.parametrize("length", [1, 2, 31, 32, 33, 1002])
    def test_short_records(self, length, doppler):
        assert self._max_gap(doppler, length, seed=length) <= 1e-12

    def test_million_taps(self):
        assert self._max_gap(0.001, 1_000_000, seed=4) <= 1e-11



class TestDrawAngles:
    def test_matches_direct_expression(self):
        # the alpha offsets are tabulated once; the angles stay bitwise
        # those of the expression evaluated in full on every call
        n = FadingConfig.num_sinusoids
        rng = np.random.default_rng(n)
        for _ in range(2):
            state = rng.bit_generator.state
            got = _draw_angles(rng)
            ref = np.random.default_rng()
            ref.bit_generator.state = state
            theta = ref.uniform(-np.pi, np.pi)
            phi = ref.uniform(-np.pi, np.pi, n)
            psi = ref.uniform(-np.pi, np.pi, n)
            k = np.arange(1, n + 1, dtype=np.float64)
            alpha = (2.0 * np.pi * k - np.pi + theta) / (4.0 * n)
            for a, b in zip(got, (np.cos(alpha), np.sin(alpha), phi, psi)):
                assert np.array_equal(a, b)

class TestAwgn:
    def test_moments(self):
        z = generate_awgn(np.random.default_rng(11), 1_000_000)
        assert np.mean(np.abs(z) ** 2) == pytest.approx(1.0, abs=0.01)
        assert abs(np.mean(z)) < 0.01

    def test_circular_symmetry(self):
        z = generate_awgn(np.random.default_rng(12), 1_000_000)
        corr = np.corrcoef(z.real, z.imag)[0, 1]
        assert abs(corr) < 0.01
        assert np.var(z.real) == pytest.approx(0.5, abs=0.01)

    def test_determinism(self):
        np.testing.assert_array_equal(generate_awgn(np.random.default_rng(42), 1000),
                                      generate_awgn(np.random.default_rng(42), 1000))

    def test_draw_layout(self):
        # the first `length` normals are the real parts, the next the
        # imaginary parts, each scaled by sqrt(1 / 2)
        z = np.random.default_rng(14).standard_normal((2, 257))
        got = generate_awgn(np.random.default_rng(14), 257)
        np.testing.assert_array_equal(got.real, math.sqrt(0.5) * z[0])
        np.testing.assert_array_equal(got.imag, math.sqrt(0.5) * z[1])

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            generate_awgn(np.random.default_rng(1), 0)
