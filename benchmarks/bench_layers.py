"""Per-call cost of each layer of a Monte Carlo trial and of the analytic engine.

Usage:

    python3 benchmarks/bench_layers.py --out FILE --label NAME [--src DIR]
    python3 benchmarks/bench_layers.py --out FILE --label A --src DIR_A \\
        --label B --src DIR_B

Imports ``dafsc`` from each DIR (default: ``src/`` of this checkout) in a
fresh process and times, in microseconds per call:

- the calls one trial makes at DQPSK, 30 dB, q = 0.7, 2 frames x 500
  symbols (1,002 channel uses): seeding (the trial's SeedSequence and its
  one generator, ``default_rng(harness.trial_seed_sequence(...))``), one
  ``generate_fading``, one ``generate_awgn``, the symbol draw, one
  ``chain_error_counts`` and one whole ``harness._run_trial``, the call
  ``simulate_point`` makes per trial;
- one ``simulate_point`` at the same point with the default stop rule,
  beside the number of trials it ran and its cost per trial;
- ``analytical_ber`` per modulation at the same point;
- ``outage_probability`` over 10^4 thresholds from -10 to 30 dB;
- ``run_outage_curve`` over the 51-power x 801-threshold grid of the
  benchmark's ``analytic`` workload, and ``write_outage_csv`` of the
  tree's own result for that grid into a ``StringIO``;
- ``run_outage_curve`` with its Monte Carlo column, 1,000 draws, over 11
  powers (0 to 50 dB) x 81 thresholds (-10 to 30 dB);
- the K1 trapezoid (``specfn._k1_scaled_trapezoid``) over 782, 2,000 and
  10^4 arguments in [2.01, 700], above the series / trapezoid split at 2
  (782 is the largest call of the 51 x 801 grid);
- startup: a fresh interpreter, run in DIR, that imports ``dafsc.cli``;
  beside its wall time the file stores the child's VmHWM in kB.

Each round times a fixed number of calls of every layer in turn.  Two trees
are measured in the order A B B A, 8 rounds per slot, so a drift of the
machine's speed that is linear over the run weighs on both alike; with one
tree the slot runs alone.  A label's result is the median and quartiles over
its rounds, stored under ``runs[NAME]`` of the JSON file FILE (a
``BENCH_*.json``), keeping the other labels.
"""

import argparse
import io
import itertools
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
USES = 1002
SYMBOLS = 1000
POWER_DB = 30.0
ROUNDS = 8
CALLS = 200
OUTAGE_THRESHOLDS = 10_000
OUTAGE_POWERS_DB = [float(p) for p in range(51)]
OUTAGE_GAMMA_DB = [-10.0 + 0.05 * i for i in range(801)]
MC_POWERS_DB = [5.0 * i for i in range(11)]
MC_GAMMA_DB = [-10.0 + 0.5 * i for i in range(81)]
MC_DRAWS = 1_000
K1_SIZES = (782, 2_000, 10_000)
STARTUP = "import dafsc.cli\nprint(open('/proc/self/status').read().split('VmHWM:')[1].split()[0])"


def start_child(src, peaks_kb):
    """Run a fresh interpreter importing ``dafsc.cli`` from ``src``; append
    its VmHWM (kB) to ``peaks_kb``."""
    proc = subprocess.run([sys.executable, "-c", STARTUP], cwd=src,
                          capture_output=True, text=True, check=True)
    peaks_kb.append(int(proc.stdout))


def layers(src, peaks_kb, point_trials):
    """(name, zero-argument callable, calls per round) for every layer;
    ``simulate_point`` appends its trial count to ``point_trials``."""
    import numpy as np
    from dafsc import analysis, fading, harness, phy, specfn

    config = harness.ExperimentConfig(modulation="dqpsk")
    profile = config.profile(POWER_DB)
    mod = phy.ModulationParams.dqpsk()
    dbpsk = phy.ModulationParams.dbpsk()
    fcfg = fading.FadingConfig()
    rng = np.random.default_rng(1)
    taps = [fading.generate_fading(fcfg, USES, rng=rng) for _ in range(3)]
    noise = [fading.generate_awgn(rng, USES) for _ in range(3)]
    v_idx = rng.integers(0, mod.order, SYMBOLS)
    trial = itertools.count()
    thresholds = 10.0 ** (np.linspace(-10.0, 30.0, OUTAGE_THRESHOLDS) / 10.0)
    outage_config = harness.ExperimentConfig(power_db=tuple(OUTAGE_POWERS_DB), q=0.7)
    mc_config = harness.ExperimentConfig(power_db=tuple(MC_POWERS_DB), q=0.7)
    grid = harness.run_outage_curve(outage_config, OUTAGE_GAMMA_DB)
    k1_args = {n: np.geomspace(2.01, 700.0, n) for n in K1_SIZES}

    def seeding():
        return np.random.default_rng(harness.trial_seed_sequence(config.seed, 0, next(trial)))

    def point():
        point_trials.append(harness.simulate_point(config, profile, 0).trials)

    return [
        ("seeding", seeding, CALLS),
        ("fading", lambda: fading.generate_fading(fcfg, USES, rng=rng), CALLS),
        ("awgn", lambda: fading.generate_awgn(rng, USES), CALLS),
        ("symbols", lambda: rng.integers(0, mod.order, SYMBOLS), CALLS),
        ("chain", lambda: phy.chain_error_counts(
            v_idx, *taps, *noise, profile=profile, mod=mod,
            frame_len=SYMBOLS // 2), CALLS),
        ("trial", lambda: harness._run_trial(config, profile, 0, next(trial)), CALLS),
        ("simulate_point", point, 1),
        ("ber_dbpsk", lambda: analysis.analytical_ber(dbpsk, profile), CALLS),
        ("ber_dqpsk", lambda: analysis.analytical_ber(mod, profile), CALLS),
        ("outage_vector", lambda: analysis.outage_probability(thresholds, profile), 20),
        ("outage_curve", lambda: harness.run_outage_curve(outage_config, OUTAGE_GAMMA_DB), 2),
        ("outage_csv", lambda: harness.write_outage_csv(io.StringIO(), grid), 2),
        ("outage_mc", lambda: harness.run_outage_curve(
            mc_config, MC_GAMMA_DB, mc_draws=MC_DRAWS), 2),
        *((f"k1_trapezoid_{n}", lambda x=x: specfn._k1_scaled_trapezoid(x), 20)
          for n, x in k1_args.items()),
        ("startup", lambda: start_child(src, peaks_kb), 4),
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


def sample(src):
    """Per-round microseconds per call of every layer, from ``src``, the
    startup children's VmHWM under ``startup_peak_rss_kb`` and
    ``simulate_point``'s trial count under ``simulate_point_trials``."""
    src = Path(src).resolve()
    sys.path.insert(0, str(src))
    peaks_kb = []
    point_trials = []
    timed = layers(src, peaks_kb, point_trials)
    for _, fn, calls in timed:  # warm caches and lazy set-up
        for _ in range(calls // 4 + 1):
            fn()
    peaks_kb.clear()
    samples = {name: [] for name, _, _ in timed}
    for _ in range(ROUNDS):
        for name, fn, calls in timed:
            t0 = time.perf_counter()
            for _ in range(calls):
                fn()
            samples[name].append(1e6 * (time.perf_counter() - t0) / calls)
    return {**samples, "startup_peak_rss_kb": peaks_kb,
            "simulate_point_trials": point_trials[-1:]}


def summarize(samples, slots):
    import numpy as np

    counts = ("startup_peak_rss_kb", "simulate_point_trials")
    us = {name: quartiles(v) for name, v in samples.items() if name not in counts}
    point_trials = samples["simulate_point_trials"][0]
    peak = quartiles(samples["startup_peak_rss_kb"])
    parts = (us["seeding"][1] + 3 * us["fading"][1] + 3 * us["awgn"][1]
             + us["symbols"][1] + us["chain"][1])
    return {
        "us_per_call": {name: {"q1": q[0], "median": q[1], "q3": q[2]}
                        for name, q in us.items()},
        "sum_of_layers_us": parts,
        "fading_ns_per_tap": 1e3 * us["fading"][1] / USES,
        "trial_mbit_per_s": 2 * SYMBOLS / us["trial"][1],
        "simulate_point_trials": point_trials,
        "simulate_point_us_per_trial": us["simulate_point"][1] / point_trials,
        "outage_ns_per_threshold": 1e3 * us["outage_vector"][1] / OUTAGE_THRESHOLDS,
        "outage_csv_ns_per_row": 1e3 * us["outage_csv"][1]
        / (len(OUTAGE_POWERS_DB) * len(OUTAGE_GAMMA_DB)),
        "startup_peak_rss_kb": {"q1": peak[0], "median": peak[1], "q3": peak[2]},
        "machine": {
            "nproc": len(os.sched_getaffinity(0)),
            "cpu": cpu_model(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "slots": slots,
        "rounds": len(next(iter(samples.values()))),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", action="append")
    parser.add_argument("--src", action="append")
    parser.add_argument("--out")
    parser.add_argument("--sample", help=argparse.SUPPRESS)  # one slot's worker
    args = parser.parse_args(argv)
    if args.sample:
        json.dump(sample(args.sample), sys.stdout)
        return
    srcs = args.src or [str(ROOT / "src")]
    if len(srcs) != len(args.label or ()) or len(srcs) > 2 or not args.out:
        parser.error("give --out and one or two --src trees, one --label each")
    order = [0, 1, 1, 0] if len(srcs) == 2 else [0]

    samples = [{} for _ in srcs]
    for slot, i in enumerate(order):
        proc = subprocess.run(
            [sys.executable, __file__, "--sample", srcs[i]],
            capture_output=True, text=True, check=True)
        for name, values in json.loads(proc.stdout).items():
            samples[i].setdefault(name, []).extend(values)
        print(f"slot {slot}: {args.label[i]} done", file=sys.stderr)

    out = Path(args.out)
    doc = json.loads(out.read_text()) if out.exists() else {}
    doc["workload"] = (
        f"one DQPSK trial at {POWER_DB:g} dB, q = 0.7: 2 frames x {SYMBOLS // 2} "
        f"symbols, {USES} channel uses per link; simulate_point at that point, "
        f"default stop rule (trials run: simulate_point_trials); "
        f"analytical_ber per modulation "
        f"at the same point; outage_probability over {OUTAGE_THRESHOLDS} "
        f"thresholds; run_outage_curve over {len(OUTAGE_POWERS_DB)} powers x "
        f"{len(OUTAGE_GAMMA_DB)} thresholds and write_outage_csv of its result "
        f"into a StringIO; run_outage_curve with {MC_DRAWS} Monte Carlo draws "
        f"over {len(MC_POWERS_DB)} powers x {len(MC_GAMMA_DB)} thresholds; "
        f"the K1 trapezoid over {', '.join(map(str, K1_SIZES))} "
        f"arguments in [2.01, 700]; a fresh interpreter importing dafsc.cli")
    runs = doc.setdefault("runs", {})
    for i, label in enumerate(args.label):
        runs[label] = result = summarize(
            samples[i], [s for s, j in enumerate(order) if j == i])
        for name, q in result["us_per_call"].items():
            print(f"{label:>10} {name:>18}: {q['median']:10.1f} us "
                  f"[{q['q1']:.1f}, {q['q3']:.1f}]")
        print(f"{label:>10} simulate_point {result['simulate_point_trials']} trials, "
              f"{result['simulate_point_us_per_trial']:.1f} us per trial")
        print(f"{label:>10} trial {result['trial_mbit_per_s']:.3f} Mbit/s, "
              f"sum of layers {result['sum_of_layers_us']:.1f} us, "
              f"startup VmHWM {result['startup_peak_rss_kb']['median']} kB")
    out.write_text(json.dumps(doc, indent=2) + "\n")


if __name__ == "__main__":
    main()
