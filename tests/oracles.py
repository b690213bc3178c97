"""Independent oracles for the tests.

:func:`step_chain_counts` runs the relay/combining chain step by step, as
the paper writes it, frame by frame: the definition that
:func:`dafsc.phy.chain_error_counts` evaluates as one fused kernel.  The
sum-of-sinusoids route :func:`sos_taps_direct` evaluates every sinusoid one
by one, the definition that the production synthesizer evaluates by angle
addition.  :func:`static_dbpsk_selection_errors` runs DBPSK symbol by
symbol over static channels under two selection rules, to tell which
receiver the exact BER describes.  :func:`mpmath_special_values` gives
the 40-digit values the special-function kernels are checked against.  The
analytical oracles live in :mod:`dafsc.validate`.
"""

import functools
import math

import mpmath as mp
import numpy as np


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
