"""Correlated Rayleigh fading and complex white Gaussian noise generation.

Channel taps are produced by a sum-of-sinusoids synthesizer with randomized
arrival angles and phases, giving zero-mean, unit-variance complex Gaussian
processes whose autocorrelation follows the classical land-mobile model
J0(2*pi*fd*Ts*n).  Distinct seeds give statistically independent processes,
which is how the source-destination, source-relay and relay-destination
links are kept spatially uncorrelated.
"""

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class FadingConfig:
    """Parameters of one fading process.

    ``normalized_doppler`` is the Doppler shift times the symbol period
    (cycles per sample); zero gives a static channel.  ``num_sinusoids``
    is the sum-of-sinusoids order per quadrature arm.
    """

    normalized_doppler: float = 0.001
    num_sinusoids: int = 16
    seed: int | None = None

    def __post_init__(self):
        if not (0.0 <= self.normalized_doppler < 0.5):
            raise ValueError("normalized_doppler must lie in [0, 0.5)")
        if self.num_sinusoids < 8:
            raise ValueError("num_sinusoids must be >= 8")


def _sos_taps_numpy_impl(length, w_d, cos_alpha, sin_alpha, phi, psi):
    """Sum of ``cos(w_d*cos_alpha[n]*k + phi[n])`` (real arm) and of
    ``cos(w_d*sin_alpha[n]*k + psi[n])`` (imaginary arm) over n, scaled to
    unit variance, for k = 0 .. length-1.

    Tap k is written k = b*M + m with block length M = ceil(sqrt(length)),
    and angle addition gives

        cos(w*k + p) = cos(w*b*M + p)*cos(w*m) - sin(w*b*M + p)*sin(w*m),

    so each arm is two (blocks x N) @ (N x M) matrix products built from
    about 4*N*sqrt(length) cosines and sines instead of N*length cosines.
    """
    scale = 1.0 / math.sqrt(cos_alpha.shape[0])
    if w_d == 0.0:
        # a static channel repeats tap 0 exactly; BLAS does not promise the
        # same summation order for every element of a matrix product
        return np.full(length, scale * complex(np.cos(phi).sum(), np.cos(psi).sum()))
    block = math.isqrt(length - 1) + 1
    n_blocks = -(-length // block)
    omega = w_d * np.stack((cos_alpha, sin_alpha))  # (arm, n)
    phase = np.stack((phi, psi))
    block_starts = block * np.arange(n_blocks, dtype=np.float64)
    outer = omega[:, None, :] * block_starts[:, None] + phase[:, None, :]  # (arm, b, n)
    inner = omega[:, :, None] * np.arange(block, dtype=np.float64)  # (arm, n, m)
    arms = np.cos(outer) @ np.cos(inner) - np.sin(outer) @ np.sin(inner)
    arms = arms.reshape(2, -1)[:, :length]
    return scale * (arms[0] + 1j * arms[1])


def _draw_angles(num_sinusoids, rng):
    theta = rng.uniform(-np.pi, np.pi)
    phi = rng.uniform(-np.pi, np.pi, num_sinusoids)
    psi = rng.uniform(-np.pi, np.pi, num_sinusoids)
    n = np.arange(1, num_sinusoids + 1, dtype=np.float64)
    alpha = (2.0 * np.pi * n - np.pi + theta) / (4.0 * num_sinusoids)
    return np.cos(alpha), np.sin(alpha), phi, psi


def generate_fading(
    config: FadingConfig, length: int, rng: np.random.Generator | None = None
) -> np.ndarray:
    """Generate ``length`` correlated unit-variance Rayleigh channel taps.

    The returned complex array has ensemble mean 0 and variance 1 per tap,
    with lag-n autocorrelation approaching J0(2*pi*fd*Ts*n).  Passing
    ``rng`` overrides the seed in ``config`` (used by the harness to hand
    each simulation trial its own stream).  Identical (config, length)
    yield identical output.
    """
    if length < 1:
        raise ValueError("length must be >= 1")
    if rng is None:
        rng = np.random.default_rng(config.seed)
    cos_a, sin_a, phi, psi = _draw_angles(config.num_sinusoids, rng)
    w_d = 2.0 * np.pi * config.normalized_doppler
    return _sos_taps_numpy_impl(length, w_d, cos_a, sin_a, phi, psi)


def generate_awgn(seed, length: int, variance: float = 1.0) -> np.ndarray:
    """Circularly-symmetric complex Gaussian noise, i.i.d. per sample.

    Real and imaginary parts each carry ``variance / 2``.  ``seed`` may be
    anything ``np.random.default_rng`` accepts, or an existing Generator.
    """
    if length < 1:
        raise ValueError("length must be >= 1")
    if not (variance > 0.0):
        raise ValueError("variance must be > 0")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    z = rng.standard_normal((2, length))
    return math.sqrt(variance / 2.0) * (z[0] + 1j * z[1])


__all__ = ["FadingConfig", "generate_fading", "generate_awgn"]
