"""Differential M-PSK transmit/relay/receive chain.

Implements the two-phase protocol: the source differentially encodes and
broadcasts a frame; the relay scales its noisy copy by a fixed gain and
retransmits; the destination forms per-symbol decision variables from
consecutive received samples on each branch, combines them either by
magnitude selection or by fixed-weight (semi-MRC) combining, and detects
with minimum Euclidean distance over the constellation.

:func:`chain_error_counts` runs the whole per-symbol chain over flat
per-channel-use arrays in one vectorized numpy kernel.  It detects by sign
comparisons on the real and imaginary parts (DBPSK: re < 0; DQPSK: the
signs of re - im and re + im), which pick the nearest constellation point;
an exact tie between two nearest points, or zeta = 0, goes to the lowest
constellation index.
"""

import math
from dataclasses import dataclass

import numpy as np

_SQRT2 = math.sqrt(2.0)

# Per constellation order: bits per symbol and the constants a, b of the
# differential detector's bit-error integral (Proakis, App. B)
_ORDER_CONSTANTS = {
    2: (1, 0.0, _SQRT2),
    4: (2, math.sqrt(2.0 - _SQRT2), math.sqrt(2.0 + _SQRT2)),
}


@dataclass(frozen=True)
class ModulationParams:
    """A differential PSK constellation, given by its order (2: DBPSK,
    4: DQPSK), which fixes the constants of the differential bit-error
    integrand (a, b and their ratio beta)."""

    order: int

    @property
    def a(self) -> float:
        return _ORDER_CONSTANTS[self.order][1]

    @property
    def b(self) -> float:
        return _ORDER_CONSTANTS[self.order][2]

    @property
    def beta(self) -> float:
        return self.a / self.b

    @property
    def bits_per_symbol(self) -> int:
        return _ORDER_CONSTANTS[self.order][0]

    @classmethod
    def dbpsk(cls) -> "ModulationParams":
        return cls(order=2)

    @classmethod
    def dqpsk(cls) -> "ModulationParams":
        return cls(order=4)

    @classmethod
    def from_name(cls, name: str) -> "ModulationParams":
        key = name.strip().lower()
        if key == "dbpsk":
            return cls.dbpsk()
        if key == "dqpsk":
            return cls.dqpsk()
        raise ValueError(f"unknown modulation {name!r} (use dbpsk or dqpsk)")

    def __post_init__(self):
        if self.order not in (2, 4):
            raise ValueError("order must be 2 or 4")


@dataclass(frozen=True)
class PowerProfile:
    """Total power split between source and relay, plus the relay gain.

    ``q`` is the fraction of the total power assigned to the source; a
    None amplification becomes sqrt(p1 / (p0 + 1)), which normalizes the
    average relay transmit power to p1 under unit-variance relay noise.
    """

    total_power: float
    q: float
    amplification: float | None = None

    def __post_init__(self):
        if not (self.total_power > 0.0):
            raise ValueError("total_power must be > 0")
        if not (0.0 < self.q < 1.0):
            raise ValueError("q must lie in (0, 1)")
        if self.amplification is None:
            object.__setattr__(
                self, "amplification", math.sqrt(self.p1 / (self.p0 + 1.0))
            )
        amp = self.amplification
        # the closed forms use A^2 and 1/A^2, so both must be finite and > 0
        if not (amp > 0.0 and 0.0 < amp * amp < math.inf
                and 1.0 / (amp * amp) < math.inf):
            raise ValueError(f"amplification must be > 0 with A*A and 1/(A*A) "
                             f"positive finite floats, got {amp!r}")

    @property
    def p0(self) -> float:
        return self.q * self.total_power

    @property
    def p1(self) -> float:
        return (1.0 - self.q) * self.total_power

    @classmethod
    def from_db(
        cls, total_power_db: float, q: float, amplification: float | None = None
    ) -> "PowerProfile":
        return cls(10.0 ** (total_power_db / 10.0), q, amplification)


# Per order: the constellation points exp(2j*pi*m/order), exact because
# they are quarter turns, and, row per Gray label bit, that bit of each
# point's binary-reflected Gray label m ^ (m >> 1).  Built once; every chain
# call shares them.
_CONSTELLATION = {order: np.array([1 + 0j, 1j, -1 + 0j, -1j])[:: 4 // order]
                  for order in (2, 4)}
_GRAY_BITS = {
    order: np.array([[(m ^ m >> 1) >> bit & 1 for m in range(order)]
                     for bit in range(order.bit_length() - 1)], dtype=bool)
    for order in (2, 4)
}
for _table in (*_CONSTELLATION.values(), *_GRAY_BITS.values()):
    _table.setflags(write=False)


def _detected_bits(d, order):
    """Gray label bits of the constellation point nearest to each ``d``;
    on an exact tie between two nearest points, or d = 0, the point with
    the lowest constellation index.

    DBPSK: the label is re < 0.  DQPSK: with a = re - im and b = re + im,
    the nearest point is 1 if a >= 0 and b >= 0, j if a < 0 <= b, -1 if
    a <= 0 and b < 0, and -j if a > 0 > b.  Its label (00, 01, 11, 10) has
    the high bit b < 0 and the low bit (a, b) < (0, 0) in lexicographic
    order, which is numpy's order on complex numbers: (1 + 1j) * d is
    a + ib.  A rounded a or b keeps the sign of the exact value, so no
    value near a decision boundary is misplaced.
    """
    if order == 2:
        return (d.real < 0,)
    r = d * (1 + 1j)
    return r < 0, r.imag < 0


def chain_error_counts(
    v_idx, h_sd, h_sr, h_rd, w_sd, w_sr, w_rd,
    profile: PowerProfile, mod: ModulationParams, frame_len: int,
):
    """Run the full chain over flat per-channel-use arrays.

    The channel/noise arrays must have length n_frames * (frame_len + 1)
    where n_frames = len(v_idx) / frame_len; each frame restarts the
    differential reference.  Returns (bit_errors_sc, bit_errors_mrc).
    """
    v_idx = np.ascontiguousarray(v_idx, dtype=np.int64)
    if v_idx.size % frame_len:
        raise ValueError("v_idx length must be a multiple of frame_len")
    n_frames = v_idx.size // frame_len
    shape = (n_frames, frame_len + 1)
    n_uses = n_frames * (frame_len + 1)
    links = {"h_sd": h_sd, "h_sr": h_sr, "h_rd": h_rd,
             "w_sd": w_sd, "w_sr": w_sr, "w_rd": w_rd}
    for name, arr in links.items():
        arr = np.ascontiguousarray(arr, dtype=np.complex128)
        if arr.size != n_uses:
            raise ValueError(f"{name} must have {n_uses} samples")
        links[name] = arr.reshape(shape)
    h_sd, h_sr, h_rd, w_sd, w_sr, w_rd = links.values()
    order = mod.order
    amp = profile.amplification
    vi = v_idx.reshape(n_frames, frame_len)
    s_idx = np.zeros(shape, dtype=np.int64)
    np.cumsum(vi, axis=1, out=s_idx[:, 1:])
    s_idx &= order - 1
    s = (math.sqrt(profile.p0) * _CONSTELLATION[order])[s_idx]

    # y[0]: relay-destination branch, y[1]: direct branch
    y = np.empty((2,) + shape, dtype=np.complex128)
    y_sr = h_sr * s
    y_sr += w_sr
    np.multiply(h_rd, amp, out=y[0])
    y[0] *= y_sr
    y[0] += w_rd
    np.multiply(h_sd, s, out=y[1])
    y[1] += w_sd

    # z[0], z[1]: relay and direct decision variables; z[1] then becomes the
    # selection combiner and z[2] the semi-MRC, so z[1:] holds both outputs
    z = np.empty((3, n_frames, frame_len), dtype=np.complex128)
    np.conj(y[..., :-1], out=z[:2])
    z[:2] *= y[..., 1:]
    squares = np.square(z[:2].view(np.float64))
    mag = squares[..., ::2] + squares[..., 1::2]  # re^2 + im^2
    np.multiply(z[0], 1.0 / (2.0 * (1.0 + amp**2)), out=z[2])
    z[2] += 0.5 * z[1]
    np.copyto(z[1], z[0], where=mag[0] > mag[1])  # ties keep the direct branch

    err_sc = err_mrc = 0
    for bits, sent in zip(_detected_bits(z[1:], order),
                          _GRAY_BITS[order].take(vi, axis=1)):
        wrong = bits != sent
        err_sc += np.count_nonzero(wrong[0])
        err_mrc += np.count_nonzero(wrong[1])
    return int(err_sc), int(err_mrc)


__all__ = ["ModulationParams", "PowerProfile", "chain_error_counts"]
