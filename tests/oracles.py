"""Independent numerical oracles shared by the analysis and acceptance tests.

The analytical routes avoid the production code path entirely: they
integrate the rational conditional-average terms numerically (QUADPACK)
instead of using the exponential-integral / Bessel closed forms under test.
The fading route sums the sinusoids one by one, the definition that the
production synthesizer evaluates by angle addition.
"""

import math

import numpy as np
from scipy.integrate import quad

from dafsc.analysis import (
    angle_weights,
    conditional_gamma_max_cdf,
    relay_branch_mean_snr,
)


def oracle_ber_2d(mod, profile):
    """Two-level quadrature of the conditional error integral, averaging
    the rational branch terms over the exponential relay-destination gain.
    Never touches E1."""
    p0, a2 = profile.p0, profile.amplification**2

    def inner(theta):
        weight, snr_scale = angle_weights(theta, mod)
        s = 1.0 + p0 * snr_scale
        t = 2.0 + p0 * snr_scale

        def over_gain(lam):
            relayed = (1.0 + a2 * lam) / (1.0 + a2 * lam * s)
            joint = (1.0 + 2.0 * a2 * lam) / (1.0 + a2 * lam * t)
            return (1.0 / s + relayed - joint) * math.exp(-lam)

        val, _ = quad(over_gain, 0.0, np.inf, epsabs=1e-14, epsrel=1e-12, limit=300)
        return weight * val

    val, _ = quad(inner, -math.pi, math.pi, epsabs=1e-15, epsrel=1e-11, limit=300)
    return val / (4.0 * math.pi)


def outage_quadrature(gamma_th, profile):
    """Average of the conditional max-SNR CDF over the relay-destination
    gain by direct quadrature (no Bessel closed form)."""

    def integrand(lam):
        c = relay_branch_mean_snr(profile, lam)
        return conditional_gamma_max_cdf(gamma_th, profile.p0, c) * math.exp(-lam)

    val, _ = quad(integrand, 0.0, np.inf, epsabs=1e-14, epsrel=1e-12, limit=300)
    return val


def sos_taps_direct(length, w_d, cos_alpha, sin_alpha, phi, psi):
    """Sum-of-sinusoids taps by direct evaluation of every sinusoid at
    every tap: N*length cosines per arm."""
    k = np.arange(length, dtype=np.float64)
    re = np.zeros(length)
    im = np.zeros(length)
    for n in range(cos_alpha.shape[0]):
        re += np.cos(w_d * cos_alpha[n] * k + phi[n])
        im += np.cos(w_d * sin_alpha[n] * k + psi[n])
    scale = 1.0 / math.sqrt(cos_alpha.shape[0])
    return scale * (re + 1j * im)
