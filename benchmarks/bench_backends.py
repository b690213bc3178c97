#!/usr/bin/env python3
"""Benchmark the hot kernels and one end-to-end Monte Carlo point.

Times the two hot paths, sum-of-sinusoids fading synthesis (numpy only:
it has a single implementation) and the per-symbol relay/combining chain
(numba kernel against the numpy fallback when numba is installed), plus
one end-to-end Monte Carlo point, and prints a comparison table.

Usage:  python3 benchmarks/bench_backends.py [--taps N] [--symbols N]
"""

import argparse
import math
import time

import numpy as np

from dafsc import _backend
from dafsc.fading import _draw_angles, _sos_taps_numpy_impl
from dafsc.phy import (
    ModulationParams,
    PowerProfile,
    constellation,
    gray_bit_error_lut,
    _chain_counts_numpy_impl,
)


def timeit(fn, repeats=5):
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def bench_fading(n_taps):
    rng = np.random.default_rng(0)
    cos_a, sin_a, phi, psi = _draw_angles(16, rng)
    w_d = 2.0 * math.pi * 0.001
    args = (n_taps, w_d, cos_a, sin_a, phi, psi)
    return {"numpy": timeit(lambda: _sos_taps_numpy_impl(*args))}


def bench_chain(n_symbols):
    mod = ModulationParams.dqpsk()
    profile = PowerProfile.from_db(20.0, 0.7)
    frame_len = 500
    n_frames = n_symbols // frame_len
    n_uses = n_frames * (frame_len + 1)
    rng = np.random.default_rng(1)
    v_idx = rng.integers(0, mod.order, n_frames * frame_len)
    cplx = lambda: (rng.standard_normal(n_uses)
                    + 1j * rng.standard_normal(n_uses)) / math.sqrt(2.0)
    arrays = [cplx() for _ in range(6)]
    args = (v_idx, *arrays, math.sqrt(profile.p0), profile.amplification,
            1.0 / (2.0 * (1.0 + profile.amplification**2)),
            constellation(mod.order), gray_bit_error_lut(mod.order), frame_len)
    rows = {}
    rows["numpy"] = timeit(lambda: _chain_counts_numpy_impl(*args))
    if _backend.HAS_NUMBA:
        from dafsc.phy import _chain_counts_numba

        _chain_counts_numba(*args)  # compile
        rows["numba"] = timeit(lambda: _chain_counts_numba(*args))
        assert tuple(_chain_counts_numba(*args)) == tuple(_chain_counts_numpy_impl(*args))
    return rows


def bench_point():
    # one full Monte Carlo point (fading + noise + chain), active backend only
    from dafsc import harness
    from dafsc.phy import PowerProfile

    config = harness.ExperimentConfig(modulation="dbpsk", seed=3,
                                      min_bit_errors=100, max_symbols=2_000_000)
    profile = PowerProfile.from_db(25.0, 0.7)
    harness.simulate_point(config, profile, 0)  # warm
    return timeit(lambda: harness.simulate_point(config, profile, 0), repeats=3)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--taps", type=int, default=1_000_000)
    parser.add_argument("--symbols", type=int, default=1_000_000)
    args = parser.parse_args()

    print(f"active backend: {_backend.BACKEND} (numba installed: {_backend.HAS_NUMBA})")
    print()
    print(f"{'kernel':<34}{'numpy':>12}{'numba':>12}{'speedup':>10}")

    fading = bench_fading(args.taps)
    chain = bench_chain(args.symbols)
    for label, rows, unit in (
        (f"fading synthesis ({args.taps} taps)", fading, args.taps),
        (f"relay chain ({args.symbols} symbols)", chain, args.symbols),
    ):
        np_t = rows["numpy"]
        nb_t = rows.get("numba")
        speedup = f"{np_t / nb_t:.1f}x" if nb_t else "-"
        nb_s = f"{nb_t * 1e3:.1f} ms" if nb_t else "-"
        print(f"{label:<34}{np_t * 1e3:>9.1f} ms{nb_s:>12}{speedup:>10}")
        rate = unit / (nb_t or np_t) / 1e6
        print(f"{'':<34}{'':>12}{'':>12}{rate:>8.1f} M/s")

    t_point = bench_point()
    print(f"\nfull Monte Carlo point at 25 dB ({_backend.BACKEND}): {t_point:.2f} s")


if __name__ == "__main__":
    main()
