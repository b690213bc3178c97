"""Independent fading oracle for the tests.

The sum-of-sinusoids route evaluates every sinusoid one by one, the
definition that the production synthesizer evaluates by angle addition.
The analytical oracles live in :mod:`dafsc.validate`.
"""

import math

import numpy as np


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
