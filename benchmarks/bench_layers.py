"""Per-call cost of each layer of one Monte Carlo trial.

Usage:

    python3 benchmarks/bench_layers.py --label NAME --out FILE [--src DIR]

Imports ``dafsc`` from DIR (default: ``src/`` of this checkout) and times the
calls one trial makes at DQPSK, 30 dB, q = 0.7, 2 frames x 500 symbols
(1,002 channel uses): seeding (SeedSequence, 7-way spawn, 7 Generators),
one ``generate_fading``, one ``generate_awgn``, the symbol draw, one
``chain_error_counts`` and one whole ``harness._run_trial``, the call
``simulate_point`` makes per trial.  Each of 15 rounds times 200 calls of
every layer in turn; the result is the median and quartiles over rounds, in
microseconds per call.  It is stored under
``runs[NAME]`` of the JSON file FILE (a ``BENCH_*.json``), keeping the other
labels, so two source trees measured one after the other share one file.
"""

import argparse
import itertools
import json
import os
import platform
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
USES = 1002
SYMBOLS = 1000
POWER_DB = 30.0
ROUNDS = 15
CALLS = 200


def layers():
    """(name, zero-argument callable) for every timed layer."""
    import numpy as np
    from dafsc import fading, harness, phy

    config = harness.ExperimentConfig(modulation="dqpsk")
    profile = config.profile(POWER_DB)
    mod = phy.ModulationParams.dqpsk()
    fcfg = fading.FadingConfig()
    rng = np.random.default_rng(1)
    taps = [fading.generate_fading(fcfg, USES, rng=rng) for _ in range(3)]
    noise = [fading.generate_awgn(rng, USES) for _ in range(3)]
    v_idx = rng.integers(0, mod.order, SYMBOLS)
    trial = itertools.count()

    def seeding():
        ss = harness.trial_seed_sequence(config.seed, 0, next(trial))
        return [np.random.default_rng(child) for child in ss.spawn(7)]

    return [
        ("seeding", seeding),
        ("fading", lambda: fading.generate_fading(fcfg, USES, rng=rng)),
        ("awgn", lambda: fading.generate_awgn(rng, USES)),
        ("symbols", lambda: rng.integers(0, mod.order, SYMBOLS)),
        ("chain", lambda: phy.chain_error_counts(
            v_idx, *taps, *noise, profile=profile, mod=mod, frame_len=SYMBOLS // 2)),
        ("trial", lambda: harness._run_trial(config, profile, 0, next(trial))),
    ]


def quartiles(values):
    v = sorted(values)
    n = len(v) - 1
    return [v[n // 4], v[n // 2], v[(3 * n) // 4]]


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def measure():
    import numpy as np

    timed = layers()
    for _, fn in timed:  # warm caches and lazy set-up
        for _ in range(CALLS // 4 + 1):
            fn()
    samples = {name: [] for name, _ in timed}
    for _ in range(ROUNDS):
        for name, fn in timed:
            t0 = time.perf_counter()
            for _ in range(CALLS):
                fn()
            samples[name].append(1e6 * (time.perf_counter() - t0) / CALLS)
    us = {name: quartiles(v) for name, v in samples.items()}
    parts = (us["seeding"][1] + 3 * us["fading"][1] + 3 * us["awgn"][1]
             + us["symbols"][1] + us["chain"][1])
    return {
        "us_per_call": {name: {"q1": q[0], "median": q[1], "q3": q[2]}
                        for name, q in us.items()},
        "sum_of_layers_us": parts,
        "fading_ns_per_tap": 1e3 * us["fading"][1] / USES,
        "trial_mbit_per_s": 2 * SYMBOLS / us["trial"][1],
        "machine": {
            "nproc": len(os.sched_getaffinity(0)),
            "cpu": cpu_model(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "rounds": ROUNDS,
        "calls_per_round": CALLS,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--src", default=str(ROOT / "src"))
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(Path(args.src).resolve()))
    result = measure()

    out = Path(args.out)
    doc = json.loads(out.read_text()) if out.exists() else {}
    doc["workload"] = (f"one DQPSK trial at {POWER_DB:g} dB, q = 0.7: 2 frames x "
                       f"{SYMBOLS // 2} symbols, {USES} channel uses per link")
    doc.setdefault("runs", {})[args.label] = result
    out.write_text(json.dumps(doc, indent=2) + "\n")
    for name, q in result["us_per_call"].items():
        print(f"{args.label:>10} {name:>8}: {q['median']:8.1f} us "
              f"[{q['q1']:.1f}, {q['q3']:.1f}]")
    print(f"{args.label:>10} trial {result['trial_mbit_per_s']:.3f} Mbit/s, "
          f"sum of layers {result['sum_of_layers_us']:.1f} us")


if __name__ == "__main__":
    main()
