"""Closed-form performance analysis of the selection-combining receiver.

Exact average bit error rate, its high-power diversity approximation, and
the outage probability of the combiner output SNR, all in linear power
units.  The average BER comes from the conditional differential-detection
error integral, averaged in closed form over the exponential direct-branch
SNR and the (conditionally exponential) relayed-branch SNR, leaving a
single integral over the angle variable.  That integrand is periodic and
analytic in the angle, so the periodic trapezoid rule
(:func:`~dafsc.specfn.integrate_periodic`) converges geometrically; a
DQPSK point takes 64 or 128 nodes.

The relayed-branch average introduces exponential-integral terms; they are
evaluated through the exponentially scaled E1, one array call per set of
nodes, so nothing blows up when the relay gain is large or the power is
high.  The outage closed form is evaluated over a whole threshold array in
one K1 call.
"""

import math

import numpy as np

from .phy import ModulationParams, PowerProfile
from .specfn import bessel_k1_complement, integrate_periodic, scaled_e1


def angle_weights(theta, mod: ModulationParams):
    """Angular weight and SNR scale of the conditional bit-error integrand.

    For the differential detector the conditional bit error probability
    given an instantaneous SNR ``gamma`` equals the average over theta in
    [-pi, pi] of ``weight(theta) * exp(-snr_scale(theta) * gamma) / (4 pi)``.
    Returns the pair (weight, snr_scale), vectorized over ``theta``.
    """
    theta = np.asarray(theta, dtype=np.float64)
    beta = mod.beta
    sin_t = np.sin(theta)
    weight = (1.0 - beta**2) / (1.0 + 2.0 * beta * sin_t + beta**2)
    snr_scale = (mod.b**2 / (2.0 * mod.bits_per_symbol)) * (
        1.0 + beta**2 + 2.0 * beta * sin_t
    )
    return weight, snr_scale


def relay_branch_mean_snr(profile: PowerProfile, h_rd_gain):
    """Mean SNR of the relayed branch conditioned on the relay-destination
    power gain |h_rd|^2 (the branch SNR is exponential with this mean)."""
    a2 = profile.amplification**2
    lam = np.asarray(h_rd_gain, dtype=np.float64)
    return a2 * profile.p0 * lam / (1.0 + a2 * lam)


def conditional_gamma_max_cdf(gamma, p0: float, c: float):
    """CDF of the combiner output SNR given the relayed branch mean ``c``.

    Both branch SNRs are conditionally exponential (means ``p0`` and
    ``c``), so the maximum has CDF (1 - exp(-g/p0)) (1 - exp(-g/c)).
    """
    if not (p0 > 0.0 and c > 0.0):
        raise ValueError("p0 and c must be > 0")
    g = np.asarray(gamma, dtype=np.float64)
    if g.size and np.min(g) < 0.0:
        raise ValueError("gamma must be >= 0")
    out = (1.0 - np.exp(-g / p0)) * (1.0 - np.exp(-g / c))
    return float(out) if out.ndim == 0 else out


def _ber_integrand(theta, mod: ModulationParams, profile: PowerProfile):
    weight, snr_scale = angle_weights(theta, mod)
    p0 = profile.p0
    a2 = profile.amplification**2
    s = p0 * snr_scale + 1.0
    t = p0 * snr_scale + 2.0

    e1 = scaled_e1(1.0 / (a2 * np.concatenate((s, t))))
    e1_s, e1_t = e1[: s.size], e1[s.size :]

    term_direct = 1.0 / s
    relay_gain = (1.0 - 1.0 / s) / a2
    term_relay = (1.0 + relay_gain * e1_s) / s
    joint_gain = (0.5 - 1.0 / t) / a2
    term_joint = (2.0 / t) * (1.0 + joint_gain * e1_t)

    return weight * (term_direct + term_relay - term_joint)


def analytical_ber(mod: ModulationParams, profile: PowerProfile) -> float:
    """Exact average bit error rate of the selection combiner.

    The angle integral is evaluated by the periodic trapezoid rule at the
    default tolerances; deterministic.  The value lies in
    (0, 1/2] and tends to 1/2 as the powers vanish.  At high power the
    relayed-branch terms, through scaled_e1(x) = -ln x - gamma + O(x),
    reduce to (1/A^2) ln(A^2 s)/s^2 + O(1/s^2) with s = 1 + scale p0, so
    BER p0^2 / ln(A^2 p0) tends to a constant: diversity order two times
    the logarithmic factor of the fixed-gain relay branch.
    """
    value = integrate_periodic(lambda th: _ber_integrand(th, mod, profile))
    return value / (4.0 * math.pi)


def ber_high_snr_approx(mod: ModulationParams, profile: PowerProfile) -> float:
    """High-power BER approximation exhibiting the diversity slope of two.

    Replaces both averaged branch terms by their dominant rational parts,
    which collapses the integrand to
    2 weight / ((1 + scale p0)(2 + scale p0)); the result decays like
    1/p0^2.  It drops the ln(A^2 p0) factor of the exact curve
    (:func:`analytical_ber`), so it lies below the exact value by a ratio
    that grows like ln(A^2 p0) / A^2.
    """
    p0 = profile.p0

    def integrand(theta):
        weight, snr_scale = angle_weights(theta, mod)
        return weight * 2.0 / ((1.0 + snr_scale * p0) * (2.0 + snr_scale * p0))

    return integrate_periodic(integrand) / (4.0 * math.pi)


def outage_probability(gamma_th, profile: PowerProfile):
    """Probability that the combiner output SNR falls below ``gamma_th``.

    Averaging the conditional max-SNR CDF over the exponential
    relay-destination power gain gives the closed form
    (1 - e^(-u)) * (1 - e^(-u) * x K1(x)),  u = g/p0,  x = sqrt(4 g / (A^2 p0)).
    Both factors are formed without subtracting from 1, which would cancel
    at high power: 1 - e^(-u) as -expm1(-u), and the second factor as
    (1 - e^(-u)) + e^(-u) * (1 - x K1(x)) with
    :func:`~dafsc.specfn.bessel_k1_complement`.  Vectorized over
    ``gamma_th`` (exactly 0 at a zero threshold); returns values in
    [0, 1], a float for a scalar.
    """
    g = np.asarray(gamma_th, dtype=np.float64)
    if g.size and np.min(g) < 0.0:
        raise ValueError("gamma_th must be >= 0")
    p0 = profile.p0
    a2 = profile.amplification**2
    # x = inf where A^2 p0 underflows to 0 (nan at g = 0, masked below)
    with np.errstate(all="ignore"):
        x = np.sqrt(4.0 * g / (a2 * p0))
    k1_gap = np.zeros_like(x)  # 1 - x K1(x); 0 at x = 0
    positive = x > 0.0
    if positive.any():
        k1_gap[positive] = bessel_k1_complement(x[positive])
    u = g / p0
    direct = -np.expm1(-u)
    out = direct * (direct + np.exp(-u) * k1_gap)
    return float(out) if out.ndim == 0 else out


def draw_combiner_snr(
    profile: PowerProfile, size: int, rng: np.random.Generator
) -> np.ndarray:
    """Monte Carlo draws of the combiner output SNR.

    Draws the three link power gains as unit-mean exponentials, forms the
    direct-branch SNR p0*|h_sd|^2 and the relayed-branch SNR c*|h_sr|^2
    with c the conditional mean from :func:`relay_branch_mean_snr`, and
    returns their maximum.  Used as the sampling oracle for the outage
    closed form.
    """
    g_sd = rng.exponential(1.0, size)
    g_sr = rng.exponential(1.0, size)
    g_rd = rng.exponential(1.0, size)
    gamma_direct = profile.p0 * g_sd
    gamma_relay = relay_branch_mean_snr(profile, g_rd) * g_sr
    return np.maximum(gamma_direct, gamma_relay)


__all__ = [
    "angle_weights",
    "relay_branch_mean_snr",
    "conditional_gamma_max_cdf",
    "analytical_ber",
    "ber_high_snr_approx",
    "outage_probability",
    "draw_combiner_snr",
]
