"""The fused chain kernel against the step-by-step chain oracle."""

import math

import hypothesis
import numpy as np
from hypothesis import strategies as st

from dafsc.phy import ModulationParams, PowerProfile, chain_error_counts
from oracles import step_chain_counts


@hypothesis.settings(derandomize=True, deadline=None, max_examples=300)
@hypothesis.given(
    order=st.sampled_from([2, 4]),
    n_frames=st.integers(1, 3),
    frame_len=st.integers(2, 64),
    power_db=st.floats(-10.0, 60.0),
    q=st.floats(0.05, 0.95),
    gain=st.sampled_from([None, 0.1, 1.0, 7.0]),
    seed=st.integers(0, 2**32 - 1),
    special=st.sampled_from(["none", "silent", "tie", "lattice"]),
)
def test_fused_chain_equals_step_functions(order, n_frames, frame_len, power_db,
                                           q, gain, seed, special):
    mod = ModulationParams.dbpsk() if order == 2 else ModulationParams.dqpsk()
    profile = PowerProfile.from_db(power_db, q, gain)
    rng = np.random.default_rng(seed)
    n = n_frames * (frame_len + 1)

    def gaussian():
        return (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / math.sqrt(2.0)

    h_sd, h_sr, h_rd, w_sd, w_sr, w_rd = (gaussian() for _ in range(6))
    v_idx = rng.integers(0, order, n_frames * frame_len)
    uses = rng.random(n) < 0.3
    if special == "silent":
        # y_sd = y_rd = 0 on these uses: zero decision variables and
        # exact 0 == 0 magnitude ties in the selection
        h_sd[uses] = w_sd[uses] = h_rd[uses] = w_rd[uses] = 0.0
    elif special == "tie":
        # y_sd = w_sd and y_rd = conj(w_sd): the relay decision variable is
        # the conjugate of the direct one, equal magnitude, other phase
        h_sd[uses] = h_rd[uses] = 0.0
        w_rd[uses] = np.conj(w_sd[uses])
    elif special == "lattice":
        # y_sd = w_sd on Gaussian integers and a silent relay: the decision
        # variables are exact Gaussian integers, often on a decision
        # boundary (|re| == |im|, re == 0) or 0
        h_sd[uses] = h_rd[uses] = w_rd[uses] = 0.0
        w_sd[uses] = np.array([1.0, 1j]) @ rng.integers(-2, 3, (2, uses.sum()))

    arrays = (h_sd, h_sr, h_rd, w_sd, w_sr, w_rd)
    fused = chain_error_counts(v_idx, *arrays, profile=profile, mod=mod,
                               frame_len=frame_len)
    assert fused == step_chain_counts(v_idx, *arrays, profile, mod, frame_len)
