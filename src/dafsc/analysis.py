"""Closed-form performance analysis of the selection-combining receiver.

Exact average bit error rate, its high-power diversity approximation, and
the outage probability of the combiner output SNR, all in linear power
units.  They describe selection by the larger instantaneous SNR; the
simulated receiver (``phy.chain_error_counts``), like the paper's, selects
the larger |zeta| and errs more often.  The average BER comes from the
conditional differential-detection error integral, averaged in closed form
over the exponential direct-branch SNR and the (conditionally exponential)
relayed-branch SNR, leaving a single integral over the angle variable.
That integrand is periodic and analytic in the angle, so the periodic
trapezoid rule (:func:`~dafsc.specfn.integrate_periodic_sets`) converges
geometrically to its fixed tolerance (relative 1e-10); a DQPSK point takes
64 or 128 nodes.  The angular weights depend only on the modulation and the
nodes, so they are tabulated once per node set.

The relayed-branch average introduces exponential-integral terms; they are
evaluated through the exponentially scaled E1, one array call per set of
nodes, so nothing blows up when the relay gain is large or the power is
high.  The outage closed form is evaluated over a whole threshold array in
one K1 call.
"""

import functools
import math

import numpy as np

from .phy import ModulationParams, PowerProfile
from .specfn import (
    PERIODIC_NODE_SETS,
    bessel_k1_complement,
    integrate_periodic_sets,
    periodic_nodes,
    scaled_e1,
)


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


# s = c + 1 and t = c + 2 of the BER integrand as the rows of one array
_S_T_OFFSETS = np.array([[1.0], [2.0]])


@functools.lru_cache(maxsize=2 * PERIODIC_NODE_SETS)
def _angle_table(mod: ModulationParams, k: int):
    """:func:`angle_weights` on node set ``k`` of the periodic rule.

    Built once per (modulation, node set) and read-only, since every
    point of a curve integrates over the same nodes; the bound holds one
    entry per node set for each of the two modulations.
    """
    table = angle_weights(periodic_nodes(k), mod)
    for column in table:
        column.flags.writeable = False
    return table


def _ber_integrand(weight, snr_scale, profile: PowerProfile):
    """The BER integrand at angles with the given :func:`angle_weights`.

    With c = p0 snr_scale, s = c + 1 and t = c + 2 it is
    weight [2/(s t) + (c/A^2) (E1s(1/(A^2 s))/s^2 - E1s(1/(A^2 t))/t^2)],
    E1s the scaled E1: the direct, relayed and joint averages of the
    selection combiner with their rational parts summed exactly
    (1/s + 1/s - 2/t = 2/(s t), as t = s + 1), so only the E1
    difference is left to cancel at high power.
    """
    a2 = profile.amplification**2
    c = profile.p0 * snr_scale
    st = c + _S_T_OFFSETS
    s, t = st
    e1 = scaled_e1(1.0 / (a2 * st)) / (st * st)
    return weight * (2.0 / (s * t) + (c / a2) * (e1[0] - e1[1]))


def analytical_ber(mod: ModulationParams, profile: PowerProfile) -> float:
    """Exact average bit error rate of selection by instantaneous SNR: the
    DPSK error at the larger of the two branch SNRs, averaged.  Selecting
    the larger |zeta|, as the simulated receiver does, errs about 12 % more
    often (DBPSK, 5-10 dB, q = 0.7).  Raises ValueError for a relay gain A
    at which A^2 (c + 2) or c / A^2 overflows, c = p0 snr_scale at its most.

    The angle integral is evaluated by the periodic trapezoid rule at its
    fixed tolerances; deterministic.  The value lies in (0, 1/2] and tends
    to 1/2 as the powers vanish.  At high power the relayed-branch terms,
    through scaled_e1(x) = -ln x - gamma + O(x), reduce to
    (1/A^2) ln(A^2 s)/s^2 + O(1/s^2) with s = 1 + scale p0, so
    BER p0^2 / ln(A^2 p0) tends to a constant: diversity order two times
    the logarithmic factor of the fixed-gain relay branch.
    """
    a2 = profile.amplification**2
    c = profile.p0 * float(_angle_table(mod, 0)[1].max())  # at theta = pi/2
    if not (math.isfinite(a2 * (c + 2.0)) and math.isfinite(c / a2)):
        raise ValueError(f"amplification {profile.amplification!r} is out of the "
                         f"closed form's range at p0 = {profile.p0!r}")
    value = integrate_periodic_sets(
        lambda k: _ber_integrand(*_angle_table(mod, k), profile))
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

    def integrand(k):
        weight, snr_scale = _angle_table(mod, k)
        return weight * 2.0 / ((1.0 + snr_scale * p0) * (2.0 + snr_scale * p0))

    return integrate_periodic_sets(integrand) / (4.0 * math.pi)


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
    profile: PowerProfile, size: int, rng: "np.random.Generator"
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
