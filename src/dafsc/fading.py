"""Correlated Rayleigh fading and complex white Gaussian noise generation.

Channel taps are produced by a sum-of-sinusoids synthesizer (16 sinusoids
per quadrature arm) with randomized arrival angles and phases, giving
zero-mean, unit-variance complex Gaussian processes whose autocorrelation
follows the classical land-mobile model J0(2*pi*fd*Ts*n).  Each call
draws its own angles and phases, so successive calls on one generator give
statistically independent processes, which is how the source-destination,
source-relay and relay-destination links are kept spatially uncorrelated.
"""

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np


@dataclass(frozen=True)
class FadingConfig:
    """Parameters of one fading process.

    ``normalized_doppler`` is the Doppler shift times the symbol period
    (cycles per sample); zero gives a static channel.  ``num_sinusoids``,
    the sum-of-sinusoids order per quadrature arm, is a constant, not a
    setting.
    """

    num_sinusoids: ClassVar[int] = 16
    normalized_doppler: float = 0.001

    def __post_init__(self):
        if not (0.0 <= self.normalized_doppler < 0.5):
            raise ValueError("normalized_doppler must lie in [0, 0.5)")


# 2 pi n - pi for n = 1..N, read-only
_ALPHA_OFFSETS = 2.0 * np.pi * np.arange(1.0, FadingConfig.num_sinusoids + 1.0) - np.pi
_ALPHA_OFFSETS.flags.writeable = False


def _draw_angles(rng):
    # theta, then the N phases phi, then the N phases psi: one draw gives
    # the values and stream position of three consecutive ones
    n = FadingConfig.num_sinusoids
    u = rng.uniform(-np.pi, np.pi, 2 * n + 1)
    alpha = (_ALPHA_OFFSETS + u[0]) / (4.0 * n)
    return np.cos(alpha), np.sin(alpha), u[1:n + 1], u[n + 1:]


def generate_fading(config: FadingConfig, length: int,
                    rng: "np.random.Generator") -> np.ndarray:
    """Generate ``length`` correlated unit-variance Rayleigh channel taps.

    The taps have ensemble mean 0, variance 1 and lag-n autocorrelation
    approaching J0(2*pi*fd*Ts*n); the angles and phases come from ``rng``.

    Tap k is the sum of ``cos(w_d*cos_alpha[n]*k + phi[n])`` (real arm)
    and of ``cos(w_d*sin_alpha[n]*k + psi[n])`` (imaginary arm) over the N
    sinusoids, scaled by 1/sqrt(N), with w_d = 2*pi*fd*Ts.  Writing
    k = b*M + m with block length M = ceil(sqrt(length)), angle addition
    gives, per sinusoid of frequency w and phase p,

        cos(w*k + p) = Re(e^{i(w*b*M + p)} * e^{i*w*m}).

    Both factors come from complex-exponential recurrences: a running
    product (cumprod) over M steps of e^{i*w} from 1, and over the blocks
    of e^{i*w*M} from e^{i*p}, so a call evaluates 3*N cosines and sines
    per arm instead of N*length cosines.  The real part of the product,
    summed over the N sinusoids of an arm, is one (blocks x 2N) @ (2N x M)
    real matrix product of the interleaved real and imaginary parts.
    """
    if length < 1:
        raise ValueError("length must be >= 1")
    n = config.num_sinusoids
    cos_alpha, sin_alpha, phi, psi = _draw_angles(rng)
    w_d = 2.0 * np.pi * config.normalized_doppler
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


def generate_awgn(rng: "np.random.Generator", length: int) -> np.ndarray:
    """Unit-variance circularly-symmetric complex Gaussian noise, i.i.d.
    per sample, drawn from ``rng``.

    The first ``length`` standard normals are the real parts and the next
    ``length`` the imaginary parts, each scaled by sqrt(1/2).
    """
    if length < 1:
        raise ValueError("length must be >= 1")
    z = rng.standard_normal((2, length))
    w = np.empty(length, dtype=np.complex128)
    w.real = z[0]
    w.imag = z[1]
    w *= math.sqrt(0.5)
    return w


__all__ = ["FadingConfig", "generate_fading", "generate_awgn"]
