"""The validation suite behind ``dafsc validate``, and its independent
quadrature oracles.

The oracles reach the exact BER and outage results by another route than
the closed forms under test: they integrate the rational conditional-average
terms numerically (QUADPACK) over the exponential relay-destination gain,
without the exponential-integral / Bessel algebra.  scipy is imported only
inside them and the suite, so importing the package never pays for it.
"""

import math

import numpy as np

from . import analysis, specfn
from .fading import FadingConfig, generate_fading
from .harness import DEFAULT_SEED
from .phy import ModulationParams, PowerProfile


def oracle_ber_2d(mod: ModulationParams, profile: PowerProfile) -> float:
    """Independent route to the average BER: numerical two-level quadrature
    of the conditional error integral, averaging the rational branch terms
    over the exponential relay-destination gain without any E1 algebra."""
    from scipy.integrate import quad

    p0 = profile.p0
    a2 = profile.amplification**2

    def inner(theta):
        weight, snr_scale = analysis.angle_weights(theta, mod)
        s = 1.0 + p0 * snr_scale
        t = 2.0 + p0 * snr_scale

        def over_gain(lam):
            relayed = (1.0 + a2 * lam) / (1.0 + a2 * lam * s)
            joint = (1.0 + 2.0 * a2 * lam) / (1.0 + a2 * lam * t)
            return (1.0 / s + relayed - joint) * math.exp(-lam)

        value, _ = quad(over_gain, 0.0, np.inf, epsabs=1e-14, epsrel=1e-12, limit=300)
        return weight * value

    value, _ = quad(inner, -np.pi, np.pi, epsabs=1e-15, epsrel=1e-11, limit=300)
    return value / (4.0 * math.pi)


def outage_quadrature(gamma_th: float, profile: PowerProfile) -> float:
    """Average of the conditional max-SNR CDF over the relay-destination
    gain by direct quadrature (independent of the Bessel closed form)."""
    from scipy.integrate import quad

    def integrand(lam):
        c = analysis.relay_branch_mean_snr(profile, lam)
        return analysis.conditional_gamma_max_cdf(gamma_th, profile.p0, c) * math.exp(-lam)

    value, _ = quad(integrand, 0.0, np.inf, epsabs=1e-14, epsrel=1e-12, limit=300)
    return value


def run_validation_suite(seed: int = DEFAULT_SEED):
    """Execute the oracle comparisons and return the report.

    Covers the special-function grids against their frozen brute-force
    oracle values, the production quadrature rule against a closed form,
    the BER closed form against the independent two-level quadrature,
    fading statistics, the diversity slope of the high-power approximation,
    and the outage closed form against direct averaging.  Each check is a
    dict with keys ``name``, ``passed``, ``observed`` and ``bound``.
    """
    from scipy.special import j0

    from . import _reference_tables as tables

    checks = []

    def record(name, passed, observed, bound_text):
        checks.append({"name": name, "passed": bool(passed),
                       "observed": float(observed), "bound": bound_text})

    def add(name, observed, bound_value, bound_text):
        record(name, observed <= bound_value, observed, bound_text)

    rel = lambda got, want: float(np.max(np.abs(got - want) / np.abs(want)))
    # the kernels the closed forms call, each branch of each on the grid
    add("specfn.scaled_e1_grid",
        rel(specfn.scaled_e1(tables.E1_X), tables.SCALED_E1_VALUES),
        1e-10, "max rel err <= 1e-10")
    add("specfn.k1_grid",
        rel(specfn.bessel_k1_scaled(tables.K1_X), tables.K1_VALUES * np.exp(tables.K1_X)),
        1e-10, "max rel err <= 1e-10")
    add("specfn.k1_complement_grid",
        rel(specfn.bessel_k1_complement(tables.K1_X), tables.K1_COMPLEMENT_VALUES),
        1e-13, "max rel err <= 1e-13")

    # the rule analytical_ber and ber_high_snr_approx integrate with
    closed = 2.0 * math.pi / 0.75
    got = specfn.integrate_periodic(lambda th: 1.0 / (1.25 + np.sin(th)))
    add("quadrature.closed_form", abs(got - closed) / closed, 1e-10, "rel err <= 1e-10")

    worst = 0.0
    for mod in (ModulationParams.dbpsk(), ModulationParams.dqpsk()):
        for p_db in (10.0, 20.0, 30.0):
            for q in (0.5, 0.9):
                profile = PowerProfile.from_db(p_db, q)
                a = analysis.analytical_ber(mod, profile)
                o = oracle_ber_2d(mod, profile)
                worst = max(worst, abs(a - o) / o)
    add("ber.closed_form_vs_2d_quadrature", worst, 1e-8, "max rel err <= 1e-8")

    n = 1_000_000
    fcfg = FadingConfig(normalized_doppler=0.001)
    taps = generate_fading(fcfg, n, rng=np.random.default_rng(seed))
    var = float(np.mean(np.abs(taps) ** 2))
    add("fading.variance", abs(var - 1.0), 0.02, "|var - 1| <= 0.02")
    worst_ac = 0.0
    for lag in (1, 10, 100):
        ac = float(np.mean(taps[lag:] * np.conj(taps[:-lag])).real) / var
        worst_ac = max(worst_ac, abs(ac - j0(2 * math.pi * 0.001 * lag)))
    add("fading.autocorrelation", worst_ac, 0.03, "max |ac - J0| <= 0.03 at lags 1/10/100")
    step = float(np.mean(np.abs(taps[1:] - taps[:-1]) ** 2))
    add("fading.slow_fading_step", step, 1e-4, "mean |h[k]-h[k-1]|^2 < 1e-4")

    # independence estimated at a faster doppler: the product of two
    # slowly fading processes decorrelates so slowly that a 1e6-sample
    # correlation estimate at fd*Ts = 0.001 has ~0.03 scatter on its own
    fast = FadingConfig(normalized_doppler=0.2)
    three = [generate_fading(fast, n, rng=np.random.default_rng(c))
             for c in np.random.SeedSequence(seed + 2).spawn(3)]
    worst_rho = 0.0
    for i in range(3):
        for j in range(i + 1, 3):
            rho = np.mean(three[i] * np.conj(three[j])) / math.sqrt(
                float(np.mean(np.abs(three[i]) ** 2)) * float(np.mean(np.abs(three[j]) ** 2)))
            worst_rho = max(worst_rho, abs(rho))
    add("fading.cross_independence", worst_rho, 0.01, "max |rho| < 0.01")

    mod = ModulationParams.dbpsk()
    a30 = analysis.ber_high_snr_approx(mod, PowerProfile.from_db(30.0, 0.7))
    a40 = analysis.ber_high_snr_approx(mod, PowerProfile.from_db(40.0, 0.7))
    slope = -(math.log10(a40) - math.log10(a30))
    record("diversity.approx_slope", 1.9 <= slope <= 2.05, slope, "in [1.9, 2.05]")
    p35 = PowerProfile.from_db(35.0, 0.7)
    ratio = analysis.ber_high_snr_approx(mod, p35) / analysis.analytical_ber(mod, p35)
    add("diversity.approx_below_exact", ratio, 1.0, "approx/exact <= 1")

    worst_out = 0.0
    for p0 in (2.0, 10.0, 50.0):
        for amp in (0.5, 1.0):
            profile = PowerProfile(total_power=p0 / 0.7, q=0.7, amplification=amp)
            for g in (0.5, 2.0):
                a = analysis.outage_probability(g, profile)
                o = outage_quadrature(g, profile)
                worst_out = max(worst_out, abs(a - o) / o)
    add("outage.closed_form_vs_quadrature", worst_out, 1e-8, "max rel err <= 1e-8")

    return {"passed": all(c["passed"] for c in checks), "checks": checks}


__all__ = ["oracle_ber_2d", "outage_quadrature", "run_validation_suite"]
