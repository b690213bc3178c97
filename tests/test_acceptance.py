"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Criteria, tolerances and grids are fixed here; nothing is tuned at run
time.  Criterion 4 asserts the stated slope window on the exact
closed-form curve net of the logarithmic factor its closed form predicts
for the fixed-gain relay branch, and that the exact curve approaches its
closed-form high-power asymptote; see the test docstrings for the
derivation.
"""

import io
import math

import numpy as np
import pytest
from scipy.special import j0

from dafsc import analysis, harness, specfn
from dafsc.fading import FadingConfig, generate_fading
from dafsc.phy import ModulationParams, PowerProfile
from dafsc.validate import E1_X, K1_X, oracle_ber_2d, outage_quadrature, slope_net_of_log
from oracles import high_power_asymptote, mpmath_special_values

MODS = {"dbpsk": ModulationParams.dbpsk(), "dqpsk": ModulationParams.dqpsk()}
SEED = harness.DEFAULT_SEED


def _report(criterion: str, passed: bool, detail: str):
    state = "PASS" if passed else "FAIL"
    print(f"[acceptance] {state} {criterion}: {detail}")


class TestCriterion1ExactBerOracle:
    def test_closed_form_vs_2d_quadrature(self):
        """Closed-form BER vs independent 2-D quadrature, rel <= 1e-8."""
        worst = 0.0
        worst_at = None
        for name, mod in MODS.items():
            for p_db in (10.0, 15.0, 20.0, 25.0, 30.0):
                for q in (0.5, 0.7, 0.9):
                    prof = PowerProfile.from_db(p_db, q)
                    a = analysis.analytical_ber(mod, prof)
                    o = oracle_ber_2d(mod, prof)
                    rel = abs(a - o) / o
                    if rel > worst:
                        worst, worst_at = rel, (name, p_db, q)
        passed = worst <= 1e-8
        _report("1 exact-BER oracle equivalence",
                passed, f"worst rel err {worst:.3e} at {worst_at} (bound 1e-8)")
        assert passed

@pytest.fixture(scope="module")
def curves():
    out = {}
    for name in MODS:
        config = harness.ExperimentConfig(
            modulation=name, seed=SEED, workers=8,
            min_bit_errors=200, max_symbols=20_000_000)
        out[name] = harness.run_ber_curve(config)
    return out


class TestCriterion2AnalysisVsSimulation:
    @pytest.mark.parametrize("name", list(MODS))
    def test_simulation_within_three_standard_errors(self, curves, name):
        points, _ = curves[name]
        worst_z = 0.0
        worst_at = None
        for p in points:
            se = p.estimate.ci_sc / 1.96
            z = abs(p.estimate.ber_sc - p.analytical_ber) / se
            if z > worst_z:
                worst_z, worst_at = z, p.x
        passed = worst_z <= 3.0
        _report(f"2 analysis-vs-simulation ({name})", passed,
                f"worst |z| {worst_z:.2f} at {worst_at} dB (bound 3)")
        assert passed


class TestCriterion3OptimalPowerAllocation:
    @pytest.mark.parametrize("name", list(MODS))
    def test_argmin_q_in_window(self, name):
        config = harness.ExperimentConfig(modulation=name)
        _, argmin_q = harness.run_power_allocation_sweep(config)
        passed = all(0.65 <= argmin_q[p] <= 0.75 for p in (15.0, 20.0, 25.0))
        _report(f"3 optimal power allocation ({name})", passed,
                f"argmin q {argmin_q} (window [0.65, 0.75], grid step 0.05)")
        assert passed


class TestCriterion4DiversityOrder:
    @pytest.mark.parametrize("name", list(MODS))
    def test_exact_curve_slope_in_window(self, name):
        """Diversity order of the exact closed form between 30 and 40 dB.

        The relayed-branch terms of the integrand go through
        scaled_e1(1/(A^2 s)) with s = 1 + p0 snr_scale, and
        scaled_e1(x) = -ln x - gamma + O(x).  As s grows the direct, relay
        and joint terms therefore reduce to (1/A^2) ln(A^2 s)/s^2 + O(1/s^2),
        so BER ~ C ln(A^2 p0)/p0^2: diversity order two times the
        logarithmic factor of the fixed-gain relay.  The raw secant slope
        falls short of the order by log10(L(40)/L(30)), L = ln(A^2 p0),
        which is added back here (raw 1.84 / 1.81 -> 1.98 / 1.95 for
        DBPSK / DQPSK; the log-free O(1/p0^2) remainder keeps the corrected
        slope just below two, and it rises toward two with power).

        The same correction applied to the exact curve divided by
        ln(A^2 p0), a curve without the log factor, must land outside the
        window (2.13 / 2.10): the check rejects a curve of the wrong
        asymptotic form.
        """
        mod = MODS[name]
        raw, log_term, slope = slope_net_of_log(analysis.analytical_ber, mod)
        _, _, log_free_slope = slope_net_of_log(
            lambda m, p: analysis.analytical_ber(m, p) / math.log(p.amplification**2 * p.p0),
            mod)
        in_window = 1.85 <= slope <= 2.05
        rejects_log_free = not (1.85 <= log_free_slope <= 2.05)
        passed = in_window and rejects_log_free
        _report(f"4 diversity order, exact curve ({name})", passed,
                f"secant slope 30->40 dB = {raw:.4f} raw + {log_term:.4f} "
                f"log10(L40/L30) = {slope:.4f} (window [1.85, 2.05]); "
                f"exact / ln(A^2 p0) corrected alike = {log_free_slope:.4f} "
                f"(must fall outside)")
        assert in_window
        assert rejects_log_free

    # |exact / asymptote - 1| at 40, 50 and 60 dB.  Worst over both
    # modulations and the five q: 9.6e-3, 1.0e-3 and 1.0e-4 (DQPSK,
    # q = 0.1); the bounds are twice that.  The gap falls like ln(p0)/p0:
    # each 10 dB step cut it 5.5x to 10.9x at every (modulation, q), so each
    # step must cut it at least 4x.  Above 60 dB the exact value carries the
    # E1 difference's rounding error (ROADMAP item 1).
    ASYMPTOTE_BOUNDS = {40.0: 2e-2, 50.0: 2e-3, 60.0: 2e-4}

    @pytest.mark.parametrize("name", list(MODS))
    def test_exact_curve_meets_its_asymptote(self, name):
        """The exact curve against its closed-form high-power asymptote
        (``oracles.high_power_asymptote``), BER p0^2 ->
        (1/4 pi) int w/sigma^2 [2 + (2 ln(A^2 p0 sigma) - 2 gamma - 1)/A^2].
        A curve without the ln(A^2 p0) factor of the fixed-gain relay
        branch, or with a wrong constant, cannot approach it."""
        mod = MODS[name]
        worst = dict.fromkeys(self.ASYMPTOTE_BOUNDS, 0.0)
        least_cut = math.inf
        for q in (0.1, 0.3, 0.5, 0.7, 0.9):
            gaps = []
            for p_db in self.ASYMPTOTE_BOUNDS:
                prof = PowerProfile.from_db(p_db, q)
                gap = abs(analysis.analytical_ber(mod, prof) / high_power_asymptote(mod, prof) - 1.0)
                worst[p_db] = max(worst[p_db], gap)
                gaps.append(gap)
            least_cut = min(least_cut, gaps[0] / gaps[1], gaps[1] / gaps[2])
        within = all(worst[p] <= bound for p, bound in self.ASYMPTOTE_BOUNDS.items())
        passed = within and least_cut >= 4.0
        _report(f"4 diversity order, asymptote ({name})", passed,
                "worst |exact/asymptote - 1| "
                + ", ".join(f"{worst[p]:.2e} at {p:g} dB (<= {b:g})"
                            for p, b in self.ASYMPTOTE_BOUNDS.items())
                + f"; least cut per 10 dB {least_cut:.1f}x (>= 4)")
        assert within
        assert least_cut >= 4.0


class TestCriterion5CombinerGap:
    def test_sc_within_one_db_of_semi_mrc(self):
        config = harness.ExperimentConfig(
            modulation="dbpsk", seed=SEED, workers=8,
            power_db=tuple(np.arange(15.0, 27.6, 2.5)),
            min_bit_errors=2000, max_symbols=20_000_000)
        points, _ = harness.run_ber_curve(config)

        def power_at(target, values):
            x = np.array([p.x for p in points])
            y = np.log10(np.array(values))
            return float(np.interp(math.log10(target), y[::-1], x[::-1]))

        p_sc = power_at(1e-3, [p.estimate.ber_sc for p in points])
        p_mrc = power_at(1e-3, [p.estimate.ber_mrc for p in points])
        gap = p_sc - p_mrc
        sc_never_better = all(
            (p.estimate.ber_mrc - p.estimate.ber_sc) <= p.estimate.ci_sc
            for p in points)
        passed = gap <= 1.0 and sc_never_better
        _report("5 SC vs semi-MRC gap", passed,
                f"horizontal gap at BER 1e-3 = {gap:.3f} dB (bound 1 dB); "
                f"SC never better than semi-MRC beyond its CI: {sc_never_better}")
        assert passed


class TestCriterion6OutageClosedForm:
    def test_against_monte_carlo_and_quadrature(self):
        combos = [(p0, amp, gth)
                  for p0, amp in ((2.0, 0.5), (10.0, 1.0), (50.0, 2.0))
                  for gth in (0.5, 2.0, 10.0)]
        worst_z = 0.0
        worst_rel = 0.0
        for i, (p0, amp, gth) in enumerate(combos):
            profile = PowerProfile(total_power=p0 / 0.7, q=0.7, amplification=amp)
            closed = analysis.outage_probability(gth, profile)
            rng = np.random.default_rng(
                np.random.SeedSequence(entropy=(SEED, 600, i)))
            draws = analysis.draw_combiner_snr(profile, 10_000_000, rng)
            mc = float(np.mean(draws <= gth))
            se = math.sqrt(mc * (1.0 - mc) / draws.size)
            worst_z = max(worst_z, abs(closed - mc) / se)
            worst_rel = max(worst_rel,
                            abs(closed - outage_quadrature(gth, profile)) / closed)
        passed = worst_z <= 3.0 and worst_rel <= 1e-8
        _report("6 outage closed form", passed,
                f"worst MC |z| {worst_z:.2f} over 9 combos at 1e7 draws (bound 3); "
                f"worst quadrature rel err {worst_rel:.3e} (bound 1e-8)")
        assert passed


class TestCriterion7SpecialFunctions:
    def test_oracle_grids(self):
        rel = lambda got, want: float(np.max(np.abs(got - want) / np.abs(want)))
        _, e1_scaled, _, _ = mpmath_special_values(tuple(E1_X))
        _, _, k1, k1_complement = mpmath_special_values(tuple(K1_X))
        # the kernels the closed forms call, against 40-digit mpmath
        checks = {
            "scaled E1": (rel(specfn.scaled_e1(E1_X), e1_scaled), 1e-10),
            "scaled K1": (rel(specfn.bessel_k1_scaled(K1_X), k1 * np.exp(K1_X)), 1e-10),
            "1 - x K1": (rel(specfn.bessel_k1_complement(K1_X), k1_complement), 1e-13),
        }
        passed = all(err <= bound for err, bound in checks.values())
        detail = ", ".join(f"{k} {err:.2e} (<= {bound:g})"
                           for k, (err, bound) in checks.items())
        _report("7 special functions vs brute-force oracles", passed, detail)
        assert passed


class TestCriterion8FadingStatistics:
    def test_statistics_at_one_million_samples(self):
        taps = generate_fading(FadingConfig(normalized_doppler=0.001), 1_000_000,
                               rng=np.random.default_rng(SEED))
        var = float(np.mean(np.abs(taps) ** 2))
        var_ok = abs(var - 1.0) <= 0.02

        ac_err = 0.0
        for lag in (1, 10, 100):
            ac = float(np.mean(taps[lag:] * np.conj(taps[:-lag])).real) / var
            ac_err = max(ac_err, abs(ac - j0(2 * math.pi * 0.001 * lag)))
        ac_ok = ac_err <= 0.03

        # independence bound is meaningful only where the correlation
        # estimator's own scatter is well below 0.01, hence the faster
        # doppler for this sub-check
        fast = FadingConfig(normalized_doppler=0.2)
        three = [generate_fading(fast, 1_000_000, rng=np.random.default_rng(c))
                 for c in np.random.SeedSequence(SEED + 2).spawn(3)]
        rho = 0.0
        for i in range(3):
            for j in range(i + 1, 3):
                num = abs(np.mean(three[i] * np.conj(three[j])))
                den = math.sqrt(float(np.mean(np.abs(three[i]) ** 2))
                                * float(np.mean(np.abs(three[j]) ** 2)))
                rho = max(rho, num / den)
        rho_ok = rho < 0.01

        passed = var_ok and ac_ok and rho_ok
        _report("8 fading statistics", passed,
                f"variance {var:.4f} (+/-2%), worst autocorr err {ac_err:.4f} "
                f"(<= 0.03), worst cross-link |rho| {rho:.4f} (< 0.01)")
        assert passed


class TestCriterion9Determinism:
    def test_identical_csv_across_worker_counts(self):
        texts = []
        for workers in (1, 4, 8):
            config = harness.ExperimentConfig(
                modulation="dqpsk", power_db=(10.0, 20.0), seed=SEED,
                workers=workers, min_bit_errors=100, max_symbols=300_000,
                frames_per_trial=2, frame_length=250)
            points, _ = harness.run_ber_curve(config)
            buf = io.StringIO()
            harness.write_ber_csv(buf, points)
            texts.append(buf.getvalue())
        passed = texts[0] == texts[1] == texts[2]
        _report("9 determinism across worker counts", passed,
                f"CSV outputs identical for workers 1/4/8: {passed}")
        assert passed
