"""Closed-form BER and outage expressions against independent oracles."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from dafsc import analysis
from dafsc.analysis import (
    analytical_ber,
    angle_weights,
    ber_high_snr_approx,
    conditional_gamma_max_cdf,
    draw_combiner_snr,
    outage_probability,
    relay_branch_mean_snr,
)
from dafsc.phy import ModulationParams, PowerProfile
from dafsc.harness import ExperimentConfig, run_power_allocation_sweep
from dafsc.specfn import PERIODIC_NODE_SETS, integrate_theta, periodic_nodes, scaled_e1
from dafsc.validate import oracle_ber_2d, outage_quadrature
from oracles import static_dbpsk_selection_errors

DBPSK = ModulationParams.dbpsk()
DQPSK = ModulationParams.dqpsk()


class TestAngleWeights:
    def test_dbpsk_collapses_to_constants(self):
        theta = np.linspace(-math.pi, math.pi, 33)
        weight, snr_scale = angle_weights(theta, DBPSK)
        np.testing.assert_allclose(weight, 1.0, atol=1e-14)
        np.testing.assert_allclose(snr_scale, 1.0, atol=1e-14)

    def test_dqpsk_at_minus_half_pi(self):
        weight, snr_scale = angle_weights(-math.pi / 2.0, DQPSK)
        beta = DQPSK.beta
        want = (DQPSK.b**2 / 4.0) * (1.0 - beta) ** 2
        assert snr_scale == pytest.approx(want, rel=1e-14)
        assert weight == pytest.approx((1 - beta**2) / (1 - beta) ** 2, rel=1e-14)

    def test_dqpsk_unit_scale_at_zero(self):
        _, snr_scale = angle_weights(0.0, DQPSK)
        assert snr_scale == pytest.approx(1.0, rel=1e-14)

    @pytest.mark.parametrize("beta", [0.0, DQPSK.beta, 0.2, 0.8])
    def test_weight_integrates_to_two_pi(self, beta):
        # angle_weights reads only beta, b and bits_per_symbol, so a stand-in
        # can carry a beta that no constellation has
        mod = SimpleNamespace(beta=beta, b=2.0, bits_per_symbol=2) if beta else DBPSK
        total = integrate_theta(lambda th: angle_weights(th, mod)[0])
        assert total == pytest.approx(2.0 * math.pi, rel=1e-10)


class TestConditionalCdf:
    def test_at_origin(self):
        assert conditional_gamma_max_cdf(0.0, 1.0, 1.0) == 0.0

    def test_limit_to_one(self):
        assert conditional_gamma_max_cdf(1e6, 1.0, 1.0) == pytest.approx(1.0)

    def test_unit_parameters_value(self):
        assert conditional_gamma_max_cdf(1.0, 1.0, 1.0) == pytest.approx(
            0.3995764008937280, rel=1e-12)

    def test_monte_carlo_crosscheck(self):
        rng = np.random.default_rng(17)
        draws = np.maximum(rng.exponential(1.0, 1_000_000),
                           rng.exponential(1.0, 1_000_000))
        mc = np.mean(draws <= 1.0)
        assert conditional_gamma_max_cdf(1.0, 1.0, 1.0) == pytest.approx(mc, abs=0.002)

    def test_nondecreasing_and_bounded(self):
        rng = np.random.default_rng(18)
        for _ in range(20):
            p0 = rng.uniform(0.1, 50.0)
            c = rng.uniform(0.01, p0)
            g = np.sort(rng.uniform(0.0, 100.0, 64))
            vals = conditional_gamma_max_cdf(g, p0, c)
            assert np.all(vals >= 0.0) and np.all(vals <= 1.0)
            assert np.all(np.diff(vals) >= 0.0)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            conditional_gamma_max_cdf(-1.0, 1.0, 1.0)
        for bad in (math.nan, np.array([1.0, math.nan])):
            with pytest.raises(ValueError, match="gamma must be >= 0"):
                conditional_gamma_max_cdf(bad, 1.0, 1.0)
        with pytest.raises(ValueError):
            conditional_gamma_max_cdf(1.0, 0.0, 1.0)


class TestRelayBranchMeanSnr:
    def test_bounded_by_source_power(self):
        prof = PowerProfile.from_db(20.0, 0.7)
        lam = 10.0 ** np.random.default_rng(19).uniform(-3, 3, 100)
        c = relay_branch_mean_snr(prof, lam)
        assert np.all(c > 0.0) and np.all(c < prof.p0)


class TestIntegrandTermStructure:
    def test_scaled_arguments_ordered(self):
        # the relay-average E1 argument is always below its gain offset:
        # 1/(A^2 (1 + p0 a)) < 1/A^2 and 1/(A^2 (2 + p0 a)) < 1/(2 A^2)
        rng = np.random.default_rng(23)
        theta = rng.uniform(-math.pi, math.pi, 50)
        for mod in (DBPSK, DQPSK):
            _, snr_scale = angle_weights(theta, mod)
            for _ in range(5):
                prof = PowerProfile.from_db(rng.uniform(0, 35), rng.uniform(0.1, 0.9))
                a2 = prof.amplification**2
                b_gain = 1.0 / a2
                b_arg = 1.0 / (a2 * (1.0 + prof.p0 * snr_scale))
                d_gain = 1.0 / (2.0 * a2)
                d_arg = 1.0 / (a2 * (2.0 + prof.p0 * snr_scale))
                assert np.all(b_arg > 0.0) and np.all(b_arg < b_gain)
                assert np.all(d_arg > 0.0) and np.all(d_arg < d_gain)



def _three_term_integrand(theta, mod, profile):
    """The BER integrand as the sum of the direct, relayed and joint
    averages of the selection combiner, each formed on its own (the form
    the collapsed integrand replaced).  Returns the sum and the sum of the
    terms' magnitudes, the scale of the sum's rounding error."""
    weight, snr_scale = angle_weights(theta, mod)
    a2 = profile.amplification**2
    s = profile.p0 * snr_scale + 1.0
    t = profile.p0 * snr_scale + 2.0
    term_direct = 1.0 / s
    term_relay = (1.0 + ((1.0 - 1.0 / s) / a2) * scaled_e1(1.0 / (a2 * s))) / s
    term_joint = (2.0 / t) * (1.0 + ((0.5 - 1.0 / t) / a2) * scaled_e1(1.0 / (a2 * t)))
    return (weight * (term_direct + term_relay - term_joint),
            weight * (term_direct + term_relay + term_joint))


class TestCollapsedIntegrand:
    GRID = [(mod, p_db, q) for mod in (DBPSK, DQPSK)
            for p_db in range(0, 51, 5)
            for q in (0.01, 0.3, 0.7, 0.99)]

    def test_matches_three_term_sum(self):
        # the three-term sum cancels down to ~1/t of its terms at high power,
        # so the two forms are compared on the scale of those terms: any
        # algebra slip in a term would show far above a few ulp there
        theta = np.concatenate([periodic_nodes(k) for k in range(4)])
        for mod, p_db, q in self.GRID:
            prof = PowerProfile.from_db(float(p_db), q)
            want, scale = _three_term_integrand(theta, mod, prof)
            got = analysis._ber_integrand(*angle_weights(theta, mod), prof)
            assert np.all(np.abs(got - want) <= 1e-15 * scale), (mod, p_db, q)

    def test_rational_part_alone_at_huge_relay_gain(self):
        # (c/A^2) E1s(1/(A^2 s)) ~ c ln(A^2 s) / A^2 vanishes as A grows,
        # leaving the rational part 2/(s t), formed without cancellation
        theta = periodic_nodes(0)
        prof = PowerProfile.from_db(40.0, 0.7, 1e150)
        weight, snr_scale = angle_weights(theta, DQPSK)
        c = prof.p0 * snr_scale
        want = weight * (2.0 / ((c + 1.0) * (c + 2.0)))
        assert np.array_equal(analysis._ber_integrand(weight, snr_scale, prof), want)


class TestAngleTables:
    POINTS = [(p_db, q) for p_db in (0.0, 20.0, 45.0) for q in (0.1, 0.7)]
    FRESH = (
        "import json, sys\n"
        "from dafsc.analysis import analytical_ber, ber_high_snr_approx\n"
        "from dafsc.phy import ModulationParams, PowerProfile\n"
        "mod = ModulationParams.from_name(sys.argv[1])\n"
        "points = json.loads(sys.argv[2])\n"
        "print(json.dumps([[f(mod, PowerProfile.from_db(p, q)).hex()\n"
        "                   for f in (analytical_ber, ber_high_snr_approx)]\n"
        "                  for p, q in points]))\n"
    )

    def test_interleaved_modulations_match_fresh_process(self):
        src = Path(__file__).resolve().parents[1] / "src"
        fresh = {}
        for name in ("dbpsk", "dqpsk"):
            result = subprocess.run(
                [sys.executable, "-c", self.FRESH, name, json.dumps(self.POINTS)],
                capture_output=True, text=True, check=True,
                env={**os.environ, "PYTHONPATH": str(src)})
            fresh[name] = json.loads(result.stdout)
        for order in (("dbpsk", "dqpsk"), ("dqpsk", "dbpsk")):
            analysis._angle_table.cache_clear()
            got = {name: [] for name in order}
            for p_db, q in self.POINTS:
                prof = PowerProfile.from_db(p_db, q)
                for name in order:
                    mod = ModulationParams.from_name(name)
                    got[name].append([analytical_ber(mod, prof).hex(),
                                      ber_high_snr_approx(mod, prof).hex()])
            assert got == fresh, order

    def test_bounded_and_read_only_after_sweep(self):
        analysis._angle_table.cache_clear()
        for name in ("dqpsk", "dbpsk"):
            run_power_allocation_sweep(ExperimentConfig(modulation=name))
            info = analysis._angle_table.cache_info()
            assert info.currsize <= info.maxsize == 2 * PERIODIC_NODE_SETS
        assert info.hits > info.misses
        for mod in (DBPSK, DQPSK):
            for k in range(2):
                table = analysis._angle_table(mod, k)
                assert table is analysis._angle_table(mod, k)
                for column in table:
                    assert not column.flags.writeable
                    with pytest.raises(ValueError):
                        column[0] = 0.0
                want = angle_weights(periodic_nodes(k), mod)
                assert all(np.array_equal(a, b) for a, b in zip(table, want))

class TestAnalyticalBer:
    def test_dbpsk_integral_matches_collapsed_form(self):
        # the DBPSK integrand has weight 1 and SNR scale 1 at every angle,
        # so its integral over 4 pi is half its value at any one angle
        prof = PowerProfile.from_db(20.0, 0.7)
        collapsed = 0.5 * float(_three_term_integrand(0.0, DBPSK, prof)[0])
        assert analytical_ber(DBPSK, prof) == pytest.approx(collapsed, rel=1e-12)

    def test_frozen_anchor_values(self):
        # pinned after verifying against the independent 2-D quadrature
        prof = PowerProfile.from_db(20.0, 0.7)
        assert analytical_ber(DBPSK, prof) == pytest.approx(1.3329472598523e-03, rel=1e-9)
        assert analytical_ber(DQPSK, prof) == pytest.approx(4.4620059145510e-03, rel=1e-9)

    def test_agrees_with_2d_oracle(self):
        for mod in (DBPSK, DQPSK):
            prof = PowerProfile.from_db(25.0, 0.7)
            assert analytical_ber(mod, prof) == pytest.approx(
                oracle_ber_2d(mod, prof), rel=1e-8)

    def test_vanishing_power_limit(self):
        prof = PowerProfile(total_power=1e-12, q=0.5)
        assert analytical_ber(DBPSK, prof) == pytest.approx(0.5, abs=1e-6)

    def test_monotone_in_power(self):
        for mod in (DBPSK, DQPSK):
            vals = [analytical_ber(mod, PowerProfile.from_db(p, 0.7))
                    for p in np.arange(0.0, 40.1, 2.5)]
            assert np.all(np.diff(vals) < 0.0)

    def test_quaternary_harder_than_binary(self):
        for p_db in np.arange(10.0, 30.1, 5.0):
            prof = PowerProfile.from_db(p_db, 0.7)
            assert analytical_ber(DQPSK, prof) > analytical_ber(DBPSK, prof)

    def test_result_in_valid_range(self):
        rng = np.random.default_rng(20)
        for _ in range(10):
            prof = PowerProfile.from_db(rng.uniform(-5, 35), rng.uniform(0.1, 0.9))
            v = analytical_ber(DBPSK, prof)
            assert 0.0 < v <= 0.5 + 1e-12

    @pytest.mark.parametrize("p_db", [5.0, 10.0])
    def test_describes_snr_selection_not_zeta_selection(self, p_db):
        # the closed form selects by instantaneous SNR; selecting by |zeta|,
        # as the simulated receiver and the paper's combiner do, errs ~12 %
        # more often here
        prof = PowerProfile.from_db(p_db, 0.7)
        n = 1_000_000
        exact = analytical_ber(DBPSK, prof)
        z = []
        for errors in static_dbpsk_selection_errors(prof, n, np.random.default_rng(11)):
            p = errors / n
            z.append((p - exact) / math.sqrt(p * (1.0 - p) / n))
        by_snr, by_zeta = z
        assert abs(by_snr) <= 3.0
        assert by_zeta > 10.0


class TestPeriodicRuleMatchesAdaptive:
    """The periodic trapezoid rule against the adaptive Gauss-Legendre
    integrator on the same integrands."""

    GRID = [(mod, p_db, q) for mod in (DBPSK, DQPSK)
            for p_db in (0.0, 10.0, 20.0, 30.0, 40.0, 50.0)
            for q in (0.01, 0.3, 0.7, 0.99)]

    def test_exact_ber(self):
        worst = 0.0
        for mod, p_db, q in self.GRID:
            prof = PowerProfile.from_db(p_db, q)
            want = integrate_theta(
                lambda th: analysis._ber_integrand(*angle_weights(th, mod), prof)) / (4.0 * math.pi)
            worst = max(worst, abs(analytical_ber(mod, prof) - want) / want)
        assert worst <= 1e-10

    def test_high_snr_approx(self):
        worst = 0.0
        for mod, p_db, q in self.GRID:
            prof = PowerProfile.from_db(p_db, q)

            def integrand(th):
                weight, scale = angle_weights(th, mod)
                return weight * 2.0 / ((1.0 + scale * prof.p0) * (2.0 + scale * prof.p0))

            want = integrate_theta(integrand) / (4.0 * math.pi)
            worst = max(worst, abs(ber_high_snr_approx(mod, prof) - want) / want)
        assert worst <= 1e-10


class TestHighSnrApprox:
    def test_slope_near_two(self):
        for mod in (DBPSK, DQPSK):
            a30 = ber_high_snr_approx(mod, PowerProfile.from_db(30.0, 0.7))
            a40 = ber_high_snr_approx(mod, PowerProfile.from_db(40.0, 0.7))
            slope = -(math.log10(a40) - math.log10(a30))
            assert 1.9 <= slope <= 2.05

    def test_positive(self):
        for p_db in (0.0, 15.0, 35.0):
            assert ber_high_snr_approx(DBPSK, PowerProfile.from_db(p_db, 0.7)) > 0.0

    def test_tracks_below_exact_curve(self):
        prof = PowerProfile.from_db(35.0, 0.7)
        for mod in (DBPSK, DQPSK):
            assert ber_high_snr_approx(mod, prof) <= analytical_ber(mod, prof)


class TestOutage:
    # 60-digit mpmath values of the closed form at q = 0.7, on the float p0
    # and amplification of PowerProfile.from_db: {(gamma_db, power_db): P}
    HIGH_POWER_MPMATH = {
        (-10.0, 50.0): 6.1361130863511164e-11,
        (-10.0, 80.0): 9.4254444697192373e-17,
        (-10.0, 100.0): 1.1618382533601476e-20,
        (-10.0, 150.0): 1.7100727991593905e-30,
        (0.0, 50.0): 5.0396162204030036e-9,
        (0.0, 80.0): 8.3289753359450014e-15,
        (0.0, 100.0): 1.0521913441186842e-18,
        (0.0, 150.0): 1.600425889969197e-28,
        (10.0, 50.0): 3.9430573325938581e-7,
        (10.0, 80.0): 7.2325060132860909e-13,
        (10.0, 100.0): 9.4254443460375155e-17,
        (10.0, 150.0): 1.4907789807789988e-26,
    }

    def test_zero_threshold(self):
        assert outage_probability(0.0, PowerProfile.from_db(10.0, 0.7)) == 0.0

    def test_large_gain_limit(self):
        prof = PowerProfile(total_power=20.0, q=0.5, amplification=1e8)
        want = (1.0 - math.exp(-1.0 / prof.p0)) ** 2
        assert outage_probability(1.0, prof) == pytest.approx(want, rel=1e-6)

    def test_frozen_anchor(self):
        prof = PowerProfile(total_power=20.0, q=0.5, amplification=1.0)
        assert outage_probability(1.0, prof) == pytest.approx(
            0.029156066082801538, rel=1e-10)

    def test_monte_carlo_crosscheck(self):
        prof = PowerProfile(total_power=20.0, q=0.5, amplification=1.0)
        rng = np.random.default_rng(21)
        draws = draw_combiner_snr(prof, 10_000_000, rng)
        mc = float(np.mean(draws <= 1.0))
        se = math.sqrt(mc * (1.0 - mc) / draws.size)
        assert abs(outage_probability(1.0, prof) - mc) <= 3.0 * se

    def test_quadrature_crosscheck(self):
        rng = np.random.default_rng(22)
        for _ in range(6):
            prof = PowerProfile(total_power=rng.uniform(1.0, 100.0),
                                q=rng.uniform(0.2, 0.8),
                                amplification=rng.uniform(0.3, 3.0))
            g = rng.uniform(0.05, 20.0)
            assert outage_probability(g, prof) == pytest.approx(
                outage_quadrature(g, prof), rel=1e-8)

    @pytest.mark.parametrize("key", sorted(HIGH_POWER_MPMATH))
    def test_high_power_matches_mpmath(self, key):
        # both factors vanish with g/p0; forming either as 1 - (something
        # near 1) left a relative error of 0.23 at 150 dB
        gamma_db, power_db = key
        got = outage_probability(10.0 ** (gamma_db / 10.0),
                                 PowerProfile.from_db(power_db, 0.7))
        assert got == pytest.approx(self.HIGH_POWER_MPMATH[key], rel=1e-10)

    def test_underflowing_relay_scale(self):
        # A^2 p0 = 1e-300 * 7e-31 underflows to 0, so x = sqrt(4 g / (A^2 p0))
        # is inf and 1 - x K1(x) takes its limit 1
        prof = PowerProfile.from_db(-300.0, 0.7, 1e-150)
        assert outage_probability(1.0, prof) == 1.0
        np.testing.assert_array_equal(
            outage_probability(np.array([0.0, 1.0]), prof), [0.0, 1.0])

    def test_nondecreasing_in_threshold(self):
        prof = PowerProfile.from_db(15.0, 0.7)
        g = np.linspace(0.0, 50.0, 101)
        vals = outage_probability(g, prof)
        assert np.all(np.diff(vals) >= 0.0)
        assert np.all((vals >= 0.0) & (vals <= 1.0))

    def test_domain_error(self):
        with pytest.raises(ValueError):
            outage_probability(-0.5, PowerProfile.from_db(10.0, 0.5))
        with pytest.raises(ValueError):
            outage_probability(np.array([1.0, -0.5]), PowerProfile.from_db(10.0, 0.5))
        for bad in (math.nan, np.array([1.0, math.nan])):
            with pytest.raises(ValueError, match="gamma_th must be >= 0"):
                outage_probability(bad, PowerProfile.from_db(10.0, 0.5))

    def test_array_shapes(self):
        prof = PowerProfile.from_db(15.0, 0.7)
        g = np.array([[0.0, 0.5, 2.0], [8.0, 0.0, 30.0]])
        assert type(outage_probability(2.0, prof)) is float
        assert outage_probability(g[0], prof).shape == (3,)
        got = outage_probability(g, prof)
        assert got.shape == (2, 3)
        assert got[0, 0] == 0.0 and got[1, 1] == 0.0
        elementwise = np.array([[outage_probability(v, prof) for v in row] for row in g])
        np.testing.assert_allclose(got, elementwise, rtol=1e-15)
        assert outage_probability(np.zeros(4), prof).tolist() == [0.0] * 4
        assert outage_probability(np.array([]), prof).shape == (0,)

    def test_array_matches_quadrature(self):
        rng = np.random.default_rng(24)
        for _ in range(3):
            prof = PowerProfile(total_power=rng.uniform(1.0, 100.0),
                                q=rng.uniform(0.2, 0.8),
                                amplification=rng.uniform(0.3, 3.0))
            # thresholds on both sides of the K1 series / trapezoid split
            g = np.sort(rng.uniform(0.05, 60.0, 8))
            want = [outage_quadrature(gi, prof) for gi in g]
            np.testing.assert_allclose(outage_probability(g, prof), want, rtol=1e-8)

    def test_snr_draws_deterministic(self):
        prof = PowerProfile.from_db(10.0, 0.7)
        a = draw_combiner_snr(prof, 1000, np.random.default_rng(5))
        b = draw_combiner_snr(prof, 1000, np.random.default_rng(5))
        np.testing.assert_array_equal(a, b)
