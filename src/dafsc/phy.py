"""Differential M-PSK transmit/relay/receive chain.

Implements the two-phase protocol: the source differentially encodes and
broadcasts a frame; the relay scales its noisy copy by a fixed gain and
retransmits; the destination forms per-symbol decision variables from
consecutive received samples on each branch, combines them either by
magnitude selection or by fixed-weight (semi-MRC) combining, and detects
with minimum Euclidean distance over the constellation.

The fused chain (:func:`chain_error_counts`) runs the whole per-symbol
chain over flat per-channel-use arrays in one vectorized numpy kernel.  It
detects by sign comparisons on the real and imaginary parts (DBPSK: re < 0;
DQPSK: the signs of re - im and re + im), which pick the same point as
:func:`min_distance_detect`, and like it resolve an exact tie between two
nearest points, or zeta = 0, to the lower constellation index.
"""

import math
from dataclasses import dataclass

import numpy as np

_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class ModulationParams:
    """Constellation order plus the constants of the differential
    bit-error integrand (a, b and their ratio beta)."""

    order: int
    a: float
    b: float

    @property
    def beta(self) -> float:
        return self.a / self.b

    @property
    def bits_per_symbol(self) -> int:
        return int(math.log2(self.order))

    @classmethod
    def dbpsk(cls) -> "ModulationParams":
        return cls(order=2, a=0.0, b=_SQRT2)

    @classmethod
    def dqpsk(cls) -> "ModulationParams":
        return cls(order=4, a=math.sqrt(2.0 - _SQRT2), b=math.sqrt(2.0 + _SQRT2))

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
        if not (0.0 <= self.a / self.b < 1.0):
            raise ValueError("require 0 <= a/b < 1")


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


def constellation(order: int) -> np.ndarray:
    """The unit-magnitude M-PSK symbol set exp(2j*pi*m/order).

    For the quarter-turn orders the points are exact (no 1e-16 residue
    from the complex exponential).
    """
    if order in (2, 4):
        quarter = np.array([1 + 0j, 1j, -1 + 0j, -1j])
        return quarter[:: 4 // order].copy()
    return np.exp(2j * np.pi * np.arange(order) / order)


def _gray_labels(order: int) -> list[int]:
    """The binary-reflected Gray label of each constellation index."""
    return [m ^ (m >> 1) for m in range(order)]


def gray_bit_error_lut(order: int) -> np.ndarray:
    """bit_errors[m, n]: Hamming distance of the Gray labels of symbols m, n."""
    gray = _gray_labels(order)
    lut = np.zeros((order, order), dtype=np.int64)
    for i in range(order):
        for j in range(order):
            lut[i, j] = bin(gray[i] ^ gray[j]).count("1")
    return lut


def symbols_to_indices(symbols, order: int) -> np.ndarray:
    """Map unit-magnitude M-PSK symbols to constellation indices.

    Raises ``ValueError`` when any input is not a constellation point.
    """
    z = np.asarray(symbols, dtype=np.complex128)
    idx = np.mod(np.rint(np.angle(z) * (order / (2.0 * np.pi))).astype(np.int64), order)
    if not np.allclose(constellation(order)[idx], z, rtol=0.0, atol=1e-9):
        raise ValueError("symbols are not members of the M-PSK constellation")
    return idx


def differential_encode(symbols, order: int) -> np.ndarray:
    """Differentially encode M-PSK symbols: s[0] = 1, s[k] = v[k] s[k-1].

    Output is one element longer than the input; encoding runs on
    constellation indices, so every element is an exact constellation point.
    """
    idx = np.cumsum(symbols_to_indices(symbols, order)) % order
    return constellation(order)[np.concatenate(([0], idx))]


def relay_forward(y_sr, amplification: float, h_rd, w_rd) -> np.ndarray:
    """Relay retransmission: scale the received samples, apply the
    relay-destination channel, add destination noise."""
    y_sr = np.asarray(y_sr)
    h_rd = np.asarray(h_rd)
    w_rd = np.asarray(w_rd)
    if not (y_sr.shape == h_rd.shape == w_rd.shape):
        raise ValueError("relay_forward requires equal-length sequences")
    return amplification * h_rd * y_sr + w_rd


def decision_variables(y_sd, y_rd):
    """Per-symbol decision variables on both branches.

    Returns (zeta_sd, zeta_rd) with zeta[k] = conj(y[k]) * y[k+1]; each is
    one element shorter than the inputs.
    """
    y_sd = np.asarray(y_sd)
    y_rd = np.asarray(y_rd)
    if y_sd.size < 2 or y_rd.size < 2:
        raise ValueError("decision_variables needs at least two samples per branch")
    return np.conj(y_sd[:-1]) * y_sd[1:], np.conj(y_rd[:-1]) * y_rd[1:]


def select_combine(zeta_sd, zeta_rd):
    """Pick the branch whose decision variable has the larger magnitude.

    Exact magnitude ties resolve to the direct branch.  Works on scalars
    or equal-shape arrays.
    """
    zeta_sd = np.asarray(zeta_sd)
    zeta_rd = np.asarray(zeta_rd)
    m_sd = zeta_sd.real**2 + zeta_sd.imag**2
    m_rd = zeta_rd.real**2 + zeta_rd.imag**2
    out = np.where(m_rd > m_sd, zeta_rd, zeta_sd)
    return out[()] if out.ndim == 0 else out


def semi_mrc_combine(zeta_sd, zeta_rd, amplification: float):
    """Fixed-weight combining from channel second-order statistics:
    zeta_sd / 2 + zeta_rd / (2 (1 + amplification^2))."""
    if not (amplification > 0.0):
        raise ValueError("amplification must be > 0")
    return 0.5 * np.asarray(zeta_sd) + np.asarray(zeta_rd) / (
        2.0 * (1.0 + amplification**2)
    )


def min_distance_detect(zeta, order: int) -> np.ndarray:
    """Minimum-Euclidean-distance detection over the M-PSK set.

    Returns the nearest constellation point(s); distance ties (including
    zeta == 0) resolve to the lowest constellation index.
    """
    z = np.atleast_1d(np.asarray(zeta, dtype=np.complex128))
    points = constellation(order)
    d2 = np.abs(z[..., None] - points) ** 2
    idx = np.argmin(d2, axis=-1)
    out = points[idx]
    return out[0] if np.isscalar(zeta) or np.ndim(zeta) == 0 else out


# Per order: the constellation and, row per Gray label bit, that bit of each
# point's label.  Built once; every chain call shares them.
_CONSTELLATION = {order: constellation(order) for order in (2, 4)}
_GRAY_BITS = {
    order: np.array([[label >> bit & 1 for label in _gray_labels(order)]
                     for bit in range(order.bit_length() - 1)], dtype=bool)
    for order in (2, 4)
}
for _table in (*_CONSTELLATION.values(), *_GRAY_BITS.values()):
    _table.setflags(write=False)


def _detected_bits(d, order):
    """Gray label bits of the constellation point nearest to each ``d``,
    lowest index on exact ties (the rule of :func:`min_distance_detect`).

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


__all__ = [
    "ModulationParams",
    "PowerProfile",
    "constellation",
    "gray_bit_error_lut",
    "symbols_to_indices",
    "differential_encode",
    "relay_forward",
    "decision_variables",
    "select_combine",
    "semi_mrc_combine",
    "min_distance_detect",
    "chain_error_counts",
]
