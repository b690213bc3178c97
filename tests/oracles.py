"""Independent oracles for the tests.

:func:`step_chain_counts` runs the relay/combining chain step by step, as
the paper writes it, frame by frame: the definition that
:func:`dafsc.phy.chain_error_counts` evaluates as one fused kernel.  The
sum-of-sinusoids route :func:`sos_taps_direct` evaluates every sinusoid one
by one, the definition that the production synthesizer evaluates by angle
addition.  :func:`static_dbpsk_selection_errors` runs DBPSK symbol by
symbol over static channels under two selection rules, to tell which
receiver the exact BER describes.  :func:`mpmath_special_values` gives
the 40-digit values the special-function kernels are checked against.
:func:`scaled_e1`, :func:`bessel_k1_scaled` and :func:`bessel_k1_complement`
are the array kernels of :mod:`dafsc.specfn` in their earlier form, op by
op, and :func:`analytical_ber` the exact BER built on them: the values that
the trimmed kernels must equal bit for bit.  :func:`high_power_asymptote`
is the exact BER's closed-form limit at high power, which the exact curve
must approach.  The quadrature oracles live in :mod:`dafsc.validate`.
"""

import functools
import math

import mpmath as mp
import numpy as np

from dafsc import specfn
from dafsc.analysis import angle_weights


@functools.cache
def mpmath_special_values(xs):
    """E1(x), e^x E1(x), K1(x) and 1 - x K1(x) at each float x of the tuple
    ``xs``, evaluated by mpmath at 40 digits and rounded to float: four
    read-only arrays.  Cached, so each argument list is evaluated once per
    pytest run and every caller shares the arrays."""
    values = []
    with mp.workdps(40):
        for x in map(mp.mpf, xs):
            e1, k1 = mp.e1(x), mp.besselk(1, x)
            values.append([float(v) for v in (e1, mp.exp(x) * e1, k1, 1 - x * k1)])
    columns = tuple(np.array(column) for column in zip(*values))
    for column in columns:
        column.flags.writeable = False
    return columns


def step_chain_counts(v_idx, h_sd, h_sr, h_rd, w_sd, w_sr, w_rd, profile, mod,
                      frame_len):
    """(SC, semi-MRC) bit errors of the chain, step by step, frame by frame.

    Each frame differentially encodes its symbols from s[0] = 1, passes the
    direct and the amplified relay branch, forms zeta = conj(y[k-1]) * y[k]
    on each branch, combines by selection (the larger |zeta|, the direct
    branch on a tie) and by semi-MRC, detects the nearest point (lowest
    index on a tie) and counts the Gray label bits that differ.
    """
    order = mod.order
    points = np.array([1 + 0j, 1j, -1 + 0j, -1j])[:: 4 // order]
    gray = [m ^ (m >> 1) for m in range(order)]
    hamming = np.array([[bin(g ^ h).count("1") for h in gray] for g in gray])
    sqrt_p0 = math.sqrt(profile.p0)
    amp = profile.amplification
    errors = [0, 0]
    for f in range(v_idx.size // frame_len):
        v = v_idx[f * frame_len:(f + 1) * frame_len]
        u = slice(f * (frame_len + 1), (f + 1) * (frame_len + 1))
        s = np.cumprod(np.concatenate(([1 + 0j], points[v])))
        y_sd = sqrt_p0 * h_sd[u] * s + w_sd[u]
        y_sr = sqrt_p0 * h_sr[u] * s + w_sr[u]
        y_rd = amp * h_rd[u] * y_sr + w_rd[u]
        z_sd = np.conj(y_sd[:-1]) * y_sd[1:]
        z_rd = np.conj(y_rd[:-1]) * y_rd[1:]
        sc = np.where(z_rd.real**2 + z_rd.imag**2 > z_sd.real**2 + z_sd.imag**2,
                      z_rd, z_sd)
        mrc = 0.5 * z_sd + z_rd / (2.0 * (1.0 + amp**2))
        for c, zeta in enumerate((sc, mrc)):
            detected = np.argmin(np.abs(zeta[:, None] - points) ** 2, axis=1)
            errors[c] += int(hamming[v, detected].sum())
    return tuple(errors)


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


def static_dbpsk_selection_errors(profile, n_symbols, rng, chunk=100_000):
    """(SNR selection, |zeta| selection) bit errors of DBPSK over
    ``n_symbols`` independent symbols, each over its own static channel.

    Per symbol: three CN(0, 1) link gains held over the symbol's two channel
    uses, fresh CN(0, 1) noise on each link at each use, and the reference
    phase sent twice (the error rate does not depend on the data), so a bit
    is wrong when Re zeta < 0.  On the same draws, one rule selects the
    branch with the larger instantaneous SNR, p0 |h_sd|^2 against
    A^2 p0 |h_sr|^2 |h_rd|^2 / (1 + A^2 |h_rd|^2); the other, as the paper's
    combiner, the larger |zeta|.  Ties go to the direct branch.
    """
    sqrt_p0 = math.sqrt(profile.p0)
    amp = profile.amplification

    def cn(*shape):
        return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2.0)

    errors = [0, 0]
    for start in range(0, n_symbols, chunk):
        m = min(chunk, n_symbols - start)
        h_sd, h_sr, h_rd = cn(3, m)
        w_sd, w_sr, w_rd = cn(3, 2, m)  # [link][use]
        y_sd = sqrt_p0 * h_sd + w_sd
        y_rd = amp * h_rd * (sqrt_p0 * h_sr + w_sr) + w_rd
        z_sd = np.conj(y_sd[0]) * y_sd[1]
        z_rd = np.conj(y_rd[0]) * y_rd[1]
        g_rd = amp**2 * np.abs(h_rd) ** 2
        by_snr = g_rd * np.abs(h_sr) ** 2 / (1.0 + g_rd) > np.abs(h_sd) ** 2
        by_zeta = np.abs(z_rd) > np.abs(z_sd)
        for rule, relayed in enumerate((by_snr, by_zeta)):
            errors[rule] += int(np.count_nonzero(np.where(relayed, z_rd, z_sd).real < 0.0))
    return tuple(errors)


def _horner(coeffs, x):
    # from an array of the last coefficient, one multiply and one add a term
    acc = np.full_like(x, coeffs[-1])
    for c in coeffs[-2::-1]:
        acc *= x
        acc += c
    return acc


def _e1_series(x):
    n = max(1, int(np.searchsorted(np.array(specfn._E1_REACH), x.max(), side="right")))
    return -specfn._EULER_GAMMA - np.log(x) - x * _horner(np.array(specfn._E1_COEFFS[:n]), x)


def _e1_fraction(x):
    # three ops a level: x + (2i + 1), minus the level below, i^2 over that
    tail = np.zeros_like(x)
    for i in range(specfn._E1_CF_DEPTH, 0, -1):
        denom = x + (2.0 * i + 1.0)
        denom -= tail
        np.divide(float(i * i), denom, out=tail)
    return 1.0 / ((x + 1.0) - tail)


def _k1_complement_series(x):
    # the I1 and the psi-weighted series, each by its own Horner pass
    q = 0.25 * x * x
    half_x = 0.5 * x
    i1 = half_x * _horner(specfn._K1_I1_COEFFS[:specfn._K1_TERMS], q)
    tail = 0.5 * half_x * _horner(specfn._K1_LOG_COEFFS[:specfn._K1_TERMS], q)
    return x * (tail - np.log(half_x) * i1)


def _k1_trapezoid(x):
    # each block's (nodes x block) terms as new arrays, one op at a time
    half_step = np.arcsinh(np.sqrt(22.5 / x)) / specfn._K1_NODES
    x = np.minimum(x, np.finfo(np.float64).max)
    acc = np.full_like(x, 0.5)
    for start in range(0, x.size, specfn._K1_BLOCK):
        cols = slice(start, start + specfn._K1_BLOCK)
        m2sh2 = -2.0 * np.sinh(np.multiply.outer(specfn._K1_NODE_INDEX, half_step[cols])) ** 2
        for term in np.exp(x[cols] * m2sh2) * (1.0 - m2sh2):
            acc[cols] += term
    return (2.0 * half_step) * acc


def _evaluate(x, split, below, above):
    # the branch by a mask over the whole call, built on every call
    arr = np.asarray(x, dtype=np.float64)
    flat = arr.reshape(-1)
    assert not flat.size or flat.min() > 0.0
    low = flat <= split
    if not flat.size:
        out = np.empty(0)
    elif low.all():
        out = below(flat)
    elif not low.any():
        out = above(flat)
    else:
        out = np.empty_like(flat)
        out[low] = below(flat[low])
        out[~low] = above(flat[~low])
    out = out.reshape(arr.shape)
    return float(out) if arr.ndim == 0 else out


def scaled_e1(x):
    """exp(x) E1(x): the series up to x = 2, the fraction above."""
    return _evaluate(x, specfn._E1_SPLIT, lambda v: np.exp(v) * _e1_series(v), _e1_fraction)


def bessel_k1_scaled(x):
    """exp(x) K1(x): from the complement series up to x = 2, the trapezoid above."""
    return _evaluate(x, specfn._K1_SPLIT,
                     lambda v: np.exp(v) * (1.0 - _k1_complement_series(v)) / v,
                     _k1_trapezoid)


def bessel_k1_complement(x):
    """1 - x K1(x): the series up to x = 2, 1 - x e^(-x) (e^x K1(x)) above."""
    return _evaluate(x, specfn._K1_SPLIT, _k1_complement_series, _k1_complement_large)


def _k1_complement_large(x):
    x = np.minimum(x, 50.0)
    return 1.0 - x * bessel_k1_scaled(x) * np.exp(-x)


def analytical_ber(mod, profile):
    """The exact BER's 128-node rule over the integrand built from
    :func:`scaled_e1`, each half summed by ``np.sum``; no range or
    convergence check."""
    weight, snr_scale = angle_weights(specfn.PERIODIC_NODES, mod)
    a2 = profile.amplification**2
    c = profile.p0 * snr_scale
    st = c + np.array([[1.0], [2.0]])
    s, t = st
    e1 = scaled_e1(1.0 / (a2 * st)) / (st * st)
    values = weight * (2.0 / (s * t) + (c / a2) * (e1[0] - e1[1]))
    coarse = float(np.sum(values[:64]))
    total = coarse + float(np.sum(values[64:]))
    return (math.pi / 64) * total / (4.0 * math.pi)


def high_power_integrand(theta, mod, profile):
    """The integrand over theta of :func:`high_power_asymptote`, times
    4 pi p0^2: of order one at every power, so that no integrator's
    absolute tolerance swamps it."""
    weight, snr_scale = angle_weights(theta, mod)
    a2 = profile.amplification**2
    log_term = 2.0 * np.log(a2 * profile.p0 * snr_scale) - 2.0 * np.euler_gamma - 1.0
    return weight / snr_scale**2 * (2.0 + log_term / a2)


def high_power_asymptote(mod, profile):
    """The exact BER's high-power asymptote at ``profile``.

    With scaled E1(x) = -ln x - gamma + O(x ln x) and t = s + 1, the
    relayed difference of the BER integrand is -f'(s) + O(ln s / s^4),
    f = (ln(A^2 s) - gamma) / s^2, so
    BER p0^2 -> (1/4 pi) int w / sigma^2 [2 + (2 ln(A^2 p0 sigma) - 2 gamma - 1) / A^2] dtheta,
    w and sigma the weight and SNR scale of
    :func:`~dafsc.analysis.angle_weights`; its gap to the exact BER falls
    like ln(p0) / p0.  The angle integral is the plain 128-node trapezoid
    sum over :data:`~dafsc.specfn.PERIODIC_NODES`: 2 pi times the mean.
    """
    values = high_power_integrand(specfn.PERIODIC_NODES, mod, profile)
    return float(np.mean(values)) / (2.0 * profile.p0**2)
