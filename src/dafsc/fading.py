"""Correlated Rayleigh fading and complex white Gaussian noise generation.

Channel taps are produced by a sum-of-sinusoids synthesizer with randomized
arrival angles and phases, giving zero-mean, unit-variance complex Gaussian
processes whose autocorrelation follows the classical land-mobile model
J0(2*pi*fd*Ts*n).  Distinct seeds give statistically independent processes,
which is how the source-destination, source-relay and relay-destination
links are kept spatially uncorrelated.

The synthesizer evaluates the sum by blocks: each sinusoid's phasor over a
block and over the block starts comes from a running product of one
complex exponential, and a matrix product sums the sinusoids, so a record
of L taps costs O(sqrt(L)) cosines instead of O(L) per sinusoid.
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
    and angle addition gives, per sinusoid of frequency w and phase p,

        cos(w*k + p) = Re(e^{i(w*b*M + p)} * e^{i*w*m}).

    Both factors come from complex-exponential recurrences: a running
    product (cumprod) over M steps of e^{i*w} from 1, and over the blocks
    of e^{i*w*M} from e^{i*p}, so a call evaluates 3*N cosines and sines
    per arm instead of N*length cosines.  The real part of the product,
    summed over the N sinusoids of an arm, is one (blocks x 2N) @ (2N x M)
    real matrix product of the interleaved real and imaginary parts.
    """
    n = cos_alpha.shape[0]
    scale = 1.0 / math.sqrt(n)
    if w_d == 0.0:
        # a static channel repeats tap 0 exactly; BLAS does not promise the
        # same summation order for every element of a matrix product
        return np.full(length, scale * complex(np.cos(phi).sum(), np.cos(psi).sum()))
    block = math.isqrt(length - 1) + 1
    n_blocks = -(-length // block)
    # per (arm, sinusoid): -w, the block step w*M and the phase.  The inner
    # factor is conjugated: the dot product of the (re, im) pairs of a and
    # conj(b) is Re(a*b)
    angle = np.empty((3, 2, n))
    np.multiply(cos_alpha, -w_d, out=angle[0, 0])
    np.multiply(sin_alpha, -w_d, out=angle[0, 1])
    np.multiply(angle[0], -block, out=angle[1])
    angle[2, 0] = phi
    angle[2, 1] = psi
    turn = np.empty(angle.shape, dtype=np.complex128)
    np.cos(angle, out=turn.real)
    np.sin(angle, out=turn.imag)
    # grid[j, 0] = e^{-i*w*j} (tap offset j in a block),
    # grid[j, 1] = scale * e^{i*(w*j*M + p)} (block j; n_blocks <= M)
    grid = np.empty((block, 2, 2, n), dtype=np.complex128)
    grid[0, 0] = 1.0
    np.multiply(turn[2], scale, out=grid[0, 1])
    grid[1:] = turn[:2]
    np.cumprod(grid, axis=0, out=grid)
    lhs = grid[:n_blocks, 1].transpose(1, 0, 2).view(np.float64)  # (arm, b, 2n)
    rhs = grid[:, 0].transpose(1, 0, 2).view(np.float64).transpose(0, 2, 1)  # (arm, 2n, m)
    arms = lhs @ rhs
    taps = np.empty((n_blocks, block), dtype=np.complex128)
    taps.real = arms[0]
    taps.imag = arms[1]
    return taps.reshape(-1)[:length]


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
    w = np.empty(length, dtype=np.complex128)
    w.real = z[0]
    w.imag = z[1]
    w *= math.sqrt(variance / 2.0)
    return w


__all__ = ["FadingConfig", "generate_fading", "generate_awgn"]
