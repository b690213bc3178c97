#!/usr/bin/env python3
"""The dafsc benchmark: end-to-end cost of BER curves and analytical sweeps.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload mc-dqpsk-w2 --seed 1 --seconds 50 --trace 0

Every repetition runs the workload through ``dafsc.cli.main`` in a fresh
Python process (``child.py``) and checks the CSVs it writes.  With
``--trace 0`` the run measures end-to-end metrics; with ``--trace 1`` it
alternates plain and traced repetitions of identical inputs and reports
per-layer counts and times.  Human-readable lines come first; the last line
of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``attempted`` counts output points checked, ``failed`` the points (or trace
reconciliations) that failed a check.  The exit code is 2 when the checkout
holds no dafsc source, 0 otherwise.
"""

import argparse
import csv
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"

CHILD_TIMEOUT_S = 100.0  # a run must end within 180 s even if a client hangs
SETUP_PROBES = 10      # extra processes per run that only import dafsc
Q = 0.7                # source power share of every ber-curve / outage point
SE_LIMIT = 4.0         # |sim_sc - analytical| <= SE_LIMIT * ci_sc / 1.96
VALUE_RTOL = 1e-9      # full-precision analytical values vs the reference
CSV_RTOL = 5e-6        # six significant digits in the CSV


def now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def grid(start, step, count):
    """An explicit grid start + i*step, so CLI range parsing never matters."""
    return [start + i * step for i in range(count)]


def fmt(v):
    return f"{v:.10g}"


def csv_list(values):
    return ",".join(fmt(v) for v in values)


# ---------------------------------------------------------------------------
# Workloads.  Each builds the CLI jobs of one repetition from a seed and
# names the output points the checks expect.

MC_DQPSK_POWERS = grid(25.0, 2.5, 3)      # 25 .. 30 dB
SWEEP_POWERS = grid(0.0, 5.0, 11)         # 0 .. 50 dB
SWEEP_Q = grid(0.01, 0.01, 99)            # 0.01 .. 0.99
OUTAGE_POWERS = grid(0.0, 1.0, 51)        # 0 .. 50 dB
OUTAGE_GAMMA = grid(-10.0, 0.05, 801)     # -10 .. 30 dB

# "clients" processes run each repetition at once.  analytic is
# single-threaded, and one core of a shared machine changes speed by up to
# 25 % within minutes, independently of the other; one client per core
# averages the two, as the two worker threads of mc-dqpsk-w2 already do.
WORKLOADS = {
    "mc-dqpsk-w2": {"mod": "dqpsk", "powers": MC_DQPSK_POWERS, "workers": 2, "clients": 1},
    "analytic": {"clients": 2},
}

ORDERS = {"dqpsk": 4}


def jobs_for(workload, seed, work):
    """CLI argv lists of one repetition; outputs go under ``work``."""
    work.mkdir(parents=True, exist_ok=True)
    if workload.startswith("mc-"):
        w = WORKLOADS[workload]
        return [["ber-curve", "--mod", w["mod"], "--power-db", csv_list(w["powers"]),
                 "--q", fmt(Q), "--workers", str(w["workers"]), "--seed", str(seed),
                 "--out", str(work / "curve.csv")]]
    # power-sweep ignores --power-db (it reads sweep_power_db), so the sweep
    # powers go through the config file
    config = work / "sweep.cfg"
    config.write_text(f"sweep_power_db = {csv_list(SWEEP_POWERS)}\n")
    return [
        ["power-sweep", "--config", str(config), "--mod", "dqpsk",
         "--q-grid", csv_list(SWEEP_Q), "--out", str(work / "sweep.csv")],
        # "=" keeps argparse from reading the leading "-10" as an option
        ["outage", "--power-db", csv_list(OUTAGE_POWERS), "--q", fmt(Q),
         f"--gamma-db={csv_list(OUTAGE_GAMMA)}", "--mc-draws", "0",
         "--out", str(work / "outage.csv")],
    ]


def points_of(workload):
    """Number of output points one repetition produces."""
    if workload.startswith("mc-"):
        return len(WORKLOADS[workload]["powers"])
    return len(SWEEP_POWERS) * len(SWEEP_Q) + len(OUTAGE_POWERS) * len(OUTAGE_GAMMA)


# ---------------------------------------------------------------------------
# Reference values, keyed on rounded dB / q coordinates.

def ber_key(order, power_db, q):
    return (order, round(power_db, 6), round(q, 10))


def outage_key(power_db, q, gamma_db):
    return (round(power_db, 6), round(q, 10), round(gamma_db, 6))


def to_db(linear):
    return 10.0 * math.log10(linear)


def load_reference(path=REFERENCE):
    """Frozen analytical values: ({ber_key: value}, {outage_key: value})."""
    with open(path) as fh:
        data = json.load(fh)
    ber = {}
    for block in data["ber"]:
        for p_db, row in zip(block["power_db"], block["values"]):
            for q, value in zip(block["q"], row):
                ber[ber_key(block["order"], p_db, q)] = value
    out = {}
    block = data["outage"]
    for p_db, row in zip(block["power_db"], block["values"]):
        for g_db, value in zip(block["gamma_db"], row):
            out[outage_key(p_db, block["q"], g_db)] = value
    return ber, out


def captured_values(result):
    """The full-precision analytical values the child captured, by key."""
    ber = {ber_key(o, to_db(p), q): v for o, p, q, v in result.get("ber_values", [])}
    out = {outage_key(to_db(p), q, to_db(g)): v
           for g, p, q, v in result.get("outage_values", [])}
    return ber, out


# ---------------------------------------------------------------------------
# Correctness checks.  Each returns (attempted, failed, messages).

def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _close(got, want, rtol):
    return abs(got - want) <= rtol * abs(want)


def check_analytical(csv_text, ref, captured, lo, hi, lo_open):
    """Problems with one analytical value: CSV, full precision and range."""
    problems = []
    if ref is None:
        return ["no reference value"]
    try:
        if not _close(float(csv_text), ref, CSV_RTOL):
            problems.append(f"csv {csv_text} != reference {ref:.6e}")
    except ValueError:
        problems.append(f"csv value {csv_text!r} unreadable")
    if captured is None:
        problems.append("value not seen at analysis.analytical_ber/outage_probability")
    else:
        if not _close(captured, ref, VALUE_RTOL):
            problems.append(f"value {captured!r} != reference {ref!r}")
        if not ((lo < captured if lo_open else lo <= captured) and captured <= hi):
            problems.append(f"value {captured!r} outside its range")
    return problems


def check_ber_curve(path, mod, powers, ref_ber, cap_ber):
    """Check a ber-curve CSV point by point (the SC accuracy is pooled)."""
    order = ORDERS[mod]
    header, rows = read_csv(path)
    messages = []
    failed = 0
    if header != ["x", "analytical", "sim_sc", "ci_sc", "sim_mrc", "ci_mrc", "bits"]:
        return len(powers), len(powers), [f"{path.name}: bad header {header}"]
    for i, p_db in enumerate(powers):
        problems = []
        if i >= len(rows) or rows[i][0] != f"{p_db:.2f}":
            problems.append("row missing")
        else:
            x, ana, sim_sc, ci_sc, sim_mrc, _ci_mrc, bits = rows[i]
            key = ber_key(order, p_db, Q)
            ref = ref_ber.get(key)
            problems += check_analytical(ana, ref, cap_ber.get(key), 0.0, 0.5, True)
            try:
                sc, ci, mrc, nbits = float(sim_sc), float(ci_sc), float(sim_mrc), int(bits)
                if not (0.0 < sc <= 0.5 and ci > 0.0):
                    problems.append(f"SC {sc} or its ci {ci} out of range")
                if not 0.0 < mrc <= 0.5:
                    problems.append(f"MRC {mrc} outside (0, 1/2]")
                if nbits <= 0:
                    problems.append("no bits simulated")
            except ValueError:
                problems.append("simulated columns missing")
        if problems:
            failed += 1
            messages.append(f"{path.name} {p_db:.2f} dB: " + "; ".join(problems))
    return len(powers), failed, messages


def check_sc_accuracy(mod, powers, curves, ref_ber):
    """Pooled over the curves of a run, SC must lie within SE_LIMIT standard
    errors (ci/1.96) of the analytical value at every power.

    The reported ci is Wald-type from 48 or more error-bearing trials whose
    error counts are heavy-tailed in slow fading, so one curve alone falls
    below the analysis by more than 4 of its SE at about 2 points in 500;
    pooling the curves of a run (distinct seeds) shrinks that tail while a
    biased simulator shows more clearly.  Returns (attempted, failed,
    messages, largest single-curve |z|).
    """
    order = ORDERS[mod]
    failed = 0
    messages = []
    worst = 0.0
    for i, p_db in enumerate(powers):
        ref = ref_ber.get(ber_key(order, p_db, Q))
        errors = bits = var = 0.0
        for rows in curves:
            sc, ci, nbits = float(rows[i][2]), float(rows[i][3]), int(rows[i][6])
            worst = max(worst, abs(sc - ref) / (ci / 1.96))
            errors += sc * nbits
            bits += nbits
            var += (nbits * ci / 1.96) ** 2
        z = abs(errors / bits - ref) / (math.sqrt(var) / bits)
        if z > SE_LIMIT:
            failed += 1
            messages.append(f"{p_db:.2f} dB: pooled SC {errors / bits:.4e} over "
                            f"{len(curves)} curves is {z:.1f} SE from {ref:.4e}")
    return len(powers), failed, messages, worst


def check_sweep(work, ref_ber, cap_ber):
    attempted = failed = 0
    messages = []
    for p_db in SWEEP_POWERS:
        path = work / f"sweep_P{p_db:.2f}dB.csv"
        attempted += len(SWEEP_Q)
        if not path.is_file():
            failed += len(SWEEP_Q)
            messages.append(f"{path.name} missing")
            continue
        _, rows = read_csv(path)
        for i, q in enumerate(SWEEP_Q):
            key = ber_key(ORDERS["dqpsk"], p_db, q)
            if i >= len(rows) or rows[i][0] != f"{q:.2f}":
                problems = ["row missing"]
            else:
                problems = check_analytical(rows[i][1], ref_ber.get(key),
                                            cap_ber.get(key), 0.0, 0.5, True)
            if problems:
                failed += 1
                messages.append(f"{path.name} q={q:.2f}: " + "; ".join(problems))
    return attempted, failed, messages


def check_outage(path, ref_out, cap_out):
    expected = [(p, g) for p in OUTAGE_POWERS for g in OUTAGE_GAMMA]
    _, rows = read_csv(path)
    failed = 0
    messages = []
    for i, (p_db, g_db) in enumerate(expected):
        key = outage_key(p_db, Q, g_db)
        if i >= len(rows) or rows[i][:2] != [f"{p_db:.2f}", f"{g_db:.2f}"]:
            problems = ["row missing"]
        else:
            problems = check_analytical(rows[i][2], ref_out.get(key),
                                        cap_out.get(key), 0.0, 1.0, False)
        if problems:
            failed += 1
            messages.append(f"{path.name} {p_db:.2f} dB, {g_db:.2f} dB: "
                            + "; ".join(problems))
    return len(expected), failed, messages


def check_rep(workload, rep, reference):
    """Check one repetition's process result and outputs."""
    n = points_of(workload)
    result = rep["result"]
    if result is None:
        return n, n, [f"process failed (exit {rep['returncode']}): {rep['stderr'][-400:]}"]
    problems = []
    if rep["returncode"] != 0 or any(code != 0 for code in result["exit_codes"]):
        problems.append(f"exit codes {rep['returncode']} {result['exit_codes']}")
    warnings = [ln for ln in rep["stderr"].splitlines() if ln.startswith("warning:")]
    if warnings:
        problems.append(f"{len(warnings)} warning(s): {warnings[0]}")
    if problems:
        return n, n, problems
    ref_ber, ref_out = reference
    cap_ber, cap_out = captured_values(result)
    work = rep["work"]
    try:
        if workload.startswith("mc-"):
            w = WORKLOADS[workload]
            return check_ber_curve(work / "curve.csv", w["mod"], w["powers"],
                                   ref_ber, cap_ber)
        a1, f1, m1 = check_sweep(work, ref_ber, cap_ber)
        a2, f2, m2 = check_outage(work / "outage.csv", ref_out, cap_out)
        return a1 + a2, f1 + f2, m1 + m2
    except (OSError, csv.Error, IndexError) as exc:
        return n, n, [f"outputs unreadable: {exc}"]


# ---------------------------------------------------------------------------
# Trace: per-layer metrics and reconciliation with the CSV.

def _quantile(values, q):
    values = sorted(values)
    if not values:
        return 0.0
    return values[min(len(values) - 1, int(q * len(values)))]


def layer_metrics(result):
    """Per-layer metrics of one traced repetition."""
    st = result["stats"]

    def get(name, field="busy_s"):
        return st.get(name, {}).get(field, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    taps = get("fading.generate_fading", "taps")
    symbols = get("phy.chain_error_counts", "symbols")
    trial_calls = get("harness.trial_seed_sequence", "calls")
    ber_calls = get("analysis.analytical_ber", "calls")

    # harness self time: per trial, its span minus fading/noise/chain; per
    # point, the part of the point's span no trial covers (batching, stats)
    trials, points = result["trials"], result["points"]
    trial_self = sum(t_end - t_begin - child for _, _, t_begin, t_end, child, *_ in trials)
    point_wall = sum(t1 - t0 for _, t0, t1, *_ in points)
    uncovered = 0.0
    for point, t0, t1, *_ in points:
        spans = sorted((b, e) for p, _, b, e, *_ in trials if p == point)
        covered, edge = 0.0, t0
        for b, e in spans:
            b, e = max(b, edge), min(e, t1)
            if e > b:
                covered += e - b
                edge = e
        uncovered += (t1 - t0) - covered

    overshoot = trials_run = 0
    target_ratios = []
    for point, _, _, min_errors, min_trials in points:
        rows = sorted((t, sc, mrc) for p, t, _, _, _, sc, mrc, _ in trials if p == point)
        err_sc = err_mrc = occ_sc = occ_mrc = 0
        needed = len(rows)
        for i, (_, sc, mrc) in enumerate(rows):
            err_sc += sc
            err_mrc += mrc
            occ_sc += sc > 0
            occ_mrc += mrc > 0
            if (needed == len(rows) and min(err_sc, err_mrc) >= min_errors
                    and min(occ_sc, occ_mrc) >= min_trials):
                needed = i + 1
        overshoot += len(rows) - needed
        trials_run += len(rows)
        target_ratios.append(min(err_sc, err_mrc) / min_errors)

    return {
        "fading.taps_calls": (get("fading.generate_fading", "calls"), "count"),
        "fading.taps": (taps, "count"),
        "fading.taps_busy_s": (get("fading.generate_fading"), "s"),
        "fading.ns_per_tap": (ratio(get("fading.generate_fading") * 1e9, taps), "ns"),
        "fading.cos_evals": (get("fading.generate_fading", "cos_evals"), "count"),
        "fading.noise_calls": (get("fading.generate_awgn", "calls"), "count"),
        "fading.noise_samples": (get("fading.generate_awgn", "samples"), "count"),
        "fading.noise_busy_s": (get("fading.generate_awgn"), "s"),
        "phy.chain_calls": (get("phy.chain_error_counts", "calls"), "count"),
        "phy.symbols": (symbols, "count"),
        "phy.chain_busy_s": (get("phy.chain_error_counts"), "s"),
        "phy.ns_per_symbol": (ratio(get("phy.chain_error_counts") * 1e9, symbols), "ns"),
        "phy.error_trial_frac": (ratio(get("phy.chain_error_counts", "error_trials"),
                                       get("phy.chain_error_counts", "calls")), "ratio"),
        "harness.points": (get("harness.simulate_point", "calls"), "count"),
        "harness.trials": (trial_calls, "count"),
        "harness.self_s": (trial_self + uncovered, "s"),
        "harness.concurrency": (ratio(sum(t[3] - t[2] for t in trials), point_wall), "ratio"),
        "harness.target_ratio": (ratio(sum(target_ratios), len(target_ratios)), "ratio"),
        "harness.batch_overshoot_frac": (ratio(overshoot, trials_run), "ratio"),
        "analysis.ber_calls": (ber_calls, "count"),
        "analysis.ber_busy_s": (get("analysis.analytical_ber"), "s"),
        "analysis.ber_ms_p50": (1e3 * _quantile(result["durations"], 0.50), "ms"),
        "analysis.ber_ms_p99": (1e3 * _quantile(result["durations"], 0.99), "ms"),
        "analysis.theta_nodes_per_point": (ratio(get("analysis.integrand", "nodes"),
                                                 ber_calls), "count"),
        "specfn.scaled_e1_elems": (get("specfn.scaled_e1", "elems"), "count"),
        "specfn.scaled_e1_busy_s": (get("specfn.scaled_e1"), "s"),
        "specfn.integrate_theta_self_s": (get("specfn.integrate_theta", "self_s"), "s"),
        "analysis.outage_calls": (get("analysis.outage_probability", "calls"), "count"),
        "analysis.outage_busy_s": (get("analysis.outage_probability"), "s"),
        "specfn.k1_elems": (get("specfn.bessel_k1_scaled", "elems"), "count"),
        "specfn.k1_busy_s": (get("specfn.bessel_k1_scaled"), "s"),
        "cli.self_s": (get("cli.main", "self_s"), "s"),
    }


def same_outputs(plain_dir, traced_dir):
    """Problems if a traced repetition wrote other CSVs than the plain one."""
    plain = {p.name: p.read_bytes() for p in sorted(plain_dir.glob("*.csv"))}
    traced = {p.name: p.read_bytes() for p in sorted(traced_dir.glob("*.csv"))}
    if not plain or plain != traced:
        return ["traced outputs differ from the plain repetition's"]
    return []


def reconcile(workload, rep):
    """Trace counts that must agree with each other and with the CSV."""
    result = rep["result"]
    st = result["stats"]

    def calls(name):
        return st.get(name, {}).get("calls", 0)

    problems = []
    if workload.startswith("mc-"):
        w = WORKLOADS[workload]
        trials = calls("harness.trial_seed_sequence")
        if not trials:
            problems.append("no trials seen at harness.trial_seed_sequence")
        if not (calls("fading.generate_fading") == calls("fading.generate_awgn")
                == 3 * trials):
            problems.append("fading.taps_calls == fading.noise_calls == 3*harness.trials "
                            f"fails: {calls('fading.generate_fading')}, "
                            f"{calls('fading.generate_awgn')}, {trials}")
        if calls("phy.chain_error_counts") != trials:
            problems.append(f"phy.chain_calls {calls('phy.chain_error_counts')} != "
                            f"harness.trials {trials}")
        try:
            _, rows = read_csv(rep["work"] / "curve.csv")
        except OSError as exc:
            return [f"csv unreadable: {exc}"]
        bits_per_symbol = int(math.log2(ORDERS[w["mod"]]))
        for i, row in enumerate(rows):
            mine = [t for t in result["trials"] if t[0] == i]
            sc = sum(t[5] for t in mine)
            mrc = sum(t[6] for t in mine)
            bits = bits_per_symbol * sum(t[7] for t in mine)
            if str(bits) != row[6]:
                problems.append(f"point {i}: phy.symbols*bits_per_symbol {bits} != csv bits {row[6]}")
            elif bits and (f"{sc / bits:.5e}", f"{mrc / bits:.5e}") != (row[2], row[4]):
                problems.append(f"point {i}: chain errors {sc}/{mrc} over {bits} bits "
                                f"!= csv BER {row[2]}/{row[4]}")
        if len(result["points"]) != len(rows):
            problems.append(f"harness.points {len(result['points'])} != csv rows {len(rows)}")
    else:
        n_ber = len(SWEEP_POWERS) * len(SWEEP_Q)
        n_out = len(OUTAGE_POWERS) * len(OUTAGE_GAMMA)
        if calls("analysis.analytical_ber") != n_ber:
            problems.append(f"analysis.ber_calls {calls('analysis.analytical_ber')} "
                            f"!= {n_ber} sweep points")
        if len(result["outage_values"]) != n_out:
            problems.append(f"{len(result['outage_values'])} outage values seen "
                            f"!= {n_out} outage points")
    return problems


# ---------------------------------------------------------------------------
# Processes

def run_children(specs, trace):
    """Run one fresh process per (work, jobs) pair, all at once.

    Returns one repetition record per pair: timings, exit status, stderr.
    """
    started = []
    for work, jobs in specs:
        work.mkdir(parents=True, exist_ok=True)
        spec_path = work / "spec.json"
        spec_path.write_text(json.dumps({"src": str(SRC), "jobs": jobs, "trace": trace,
                                         "result": str(work / "result.json")}))
        env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
                   MKL_NUM_THREADS="1")
        with open(work / "stderr.txt", "w") as err:
            t_spawn = now()
            proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), str(spec_path)],
                                    stdout=subprocess.DEVNULL, stderr=err, env=env,
                                    cwd=str(ROOT))
        started.append((work, t_spawn, proc))
    deadline = now() + CHILD_TIMEOUT_S
    reps = []
    for work, t_spawn, proc in started:
        try:
            proc.wait(timeout=max(deadline - now(), 0.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        stderr = (work / "stderr.txt").read_text()
        result = None
        if proc.returncode == 0 and (work / "result.json").is_file():
            with open(work / "result.json") as fh:
                result = json.load(fh)
        rep = {"work": work, "returncode": proc.returncode, "stderr": stderr,
               "result": result}
        if result is not None:
            rep["setup_s"] = result["t_ready"] - t_spawn
            rep["wall_s"] = result["t_done"] - t_spawn
        reps.append(rep)
    return reps


def run_child(work, jobs, trace):
    return run_children([(work, jobs)], trace)[0]


def speed_probe():
    """Seconds for a fixed amount of numpy cos work: a machine-speed gauge.

    Printed at the start and end of every run as a diagnostic.  A core of a
    shared machine can change speed by 10-20 % within minutes, and this
    shows whether a slow run coincided with a slow machine.
    """
    import numpy as np

    x = np.linspace(0.0, 1000.0, 1_000_000)
    t0 = now()
    for _ in range(30):
        np.cos(x)
    return now() - t0


def machine_facts():
    facts = {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version()}
    try:
        import numpy

        facts["numpy"] = numpy.__version__
    except ImportError:
        facts["numpy"] = None
    try:
        with open("/proc/cpuinfo") as fh:
            facts["cpu"] = next((ln.split(":", 1)[1].strip() for ln in fh
                                 if ln.startswith("model name")), "unknown")
    except OSError:
        facts["cpu"] = "unknown"
    caches = []
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(base.glob("index*")):
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            size = (idx / "size").read_text().strip()
            caches.append(f"L{level} {kind} {size}")
        except OSError:
            pass
    facts["caches"] = caches
    return facts


# ---------------------------------------------------------------------------

def rep_seeds(seed):
    rng = random.Random(seed)
    while True:
        yield rng.randrange(2**31)


def run(workload, seed, seconds, trace, base):
    reference = load_reference()
    facts = machine_facts()
    run_child(base / "warmup", [], False)  # byte-compile and fill the file cache
    probes = [speed_probe()]
    attempted = failed = 0
    messages = []
    reps, traced = [], []
    seeds = rep_seeds(seed)
    clients = 1 if trace else WORKLOADS[workload]["clients"]
    rounds = 0
    t_start = now()
    while True:
        # a traced run repeats one input, so its per-layer counts must repeat
        if not trace or not reps:
            rep_seed = next(seeds)
        works = [base / f"rep{rounds}-{i}" for i in range(clients)]
        batch = run_children([(w, jobs_for(workload, rep_seed, w)) for w in works], False)
        if trace:
            work = base / f"trace{rounds}"
            batch.append(run_child(work, jobs_for(workload, rep_seed, work), True))
        for rep in batch:
            a, f, m = check_rep(workload, rep, reference)
            rep["ok"] = f == 0
            attempted, failed, messages = attempted + a, failed + f, messages + m
        if trace and batch[-1]["result"] is not None:
            # wrapping must change nothing the CLI writes
            problems = (reconcile(workload, batch[-1])
                        + same_outputs(batch[0]["work"], batch[-1]["work"]))
            attempted += 1
            failed += bool(problems)
            messages += problems
        reps += batch[:clients]
        traced += batch[clients:]
        rounds += 1
        elapsed = now() - t_start
        if elapsed + elapsed / rounds > seconds:
            break
    worst_z = None
    if workload.startswith("mc-") and not trace:
        w = WORKLOADS[workload]
        curves = [read_csv(r["work"] / "curve.csv")[1] for r in reps if r["ok"]]
        if curves:
            a, f, m, worst_z = check_sc_accuracy(w["mod"], w["powers"], curves, reference[0])
            attempted, failed, messages = attempted + a, failed + f, messages + m
    setup_runs = [run_child(base / f"setup{i}", [], False) for i in range(SETUP_PROBES)]
    setups = [r["setup_s"] for r in reps + traced + setup_runs if "setup_s" in r]
    probes.append(speed_probe())

    good = [r for r in reps if r["ok"]]
    results = [r["result"] for r in good]
    if results:
        facts["dafsc.BACKEND"] = results[0]["backend"]
        facts["dafsc.HAS_NUMBA"] = results[0]["has_numba"]
    print(f"workload {workload}  seed {seed}  trace {int(trace)}  repetitions {len(reps)}")
    print("machine " + json.dumps(facts))
    print("speed_probe_s " + " ".join(f"{p:.4f}" for p in probes)
          + "  (30 x numpy cos over 1e6 doubles at start and end; diagnostic only)")

    metrics = {}
    extra = {}
    if not trace:
        if good:
            metrics["wall_s"] = (statistics.median(r["wall_s"] for r in good), "s")
            metrics["cpu_s"] = (statistics.median(r["cpu_s"] for r in results), "s")
            metrics["work_per_s"] = (statistics.median(work_done(workload, r) / r["wall_s"]
                                                       for r in good), "1/s")
            metrics["setup_s"] = (statistics.median(setups), "s")
            metrics["peak_rss_mb"] = (statistics.median(r["peak_rss_kb"] / 1024.0
                                                        for r in results), "MB")
            extra.update(rate_lines(workload, good))
        extra["fail_frac"] = (failed / max(attempted, 1), "ratio")
        if worst_z is not None:
            extra["max_single_curve_z"] = (worst_z, "SE")
    else:
        per_rep = [layer_metrics(r["result"]) for r in traced if r["result"] is not None]
        if per_rep:
            counts = [{k: v for k, (v, u) in m.items() if u == "count"} for m in per_rep]
            if any(c != counts[0] for c in counts):
                failed += 1
                messages.append("per-layer counts differ between identical repetitions")
            attempted += 1
            for name in per_rep[0]:
                metrics[name] = (statistics.median(m[name][0] for m in per_rep),
                                 per_rep[0][name][1])
            plain = [r["wall_s"] for r in reps if "wall_s" in r]
            wall_traced = [r["wall_s"] for r in traced if "wall_s" in r]
            metrics["trace_overhead_frac"] = (
                statistics.median(wall_traced) / statistics.median(plain) - 1.0, "ratio")
    for name, (value, unit) in list(metrics.items()) + list(extra.items()):
        print(f"  {name:32s} {value:14.6g} {unit}")
    for msg in messages[:20]:
        print(f"check failed: {msg}")
    if len(messages) > 20:
        print(f"check failed: ... {len(messages) - 20} more")
    return {
        "correct": failed == 0 and bool(metrics),
        "attempted": max(attempted, 1),
        "failed": failed if attempted else 1,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def work_done(workload, rep):
    """Work of one repetition: simulated bits (mc-*) or analytical values."""
    if workload.startswith("mc-"):
        _, rows = read_csv(rep["work"] / "curve.csv")
        return sum(int(row[6]) for row in rows)
    return points_of(workload)


def rate_lines(workload, good):
    """Throughput of the repetitions, printed next to the end-to-end metrics."""
    if workload.startswith("mc-"):
        bits = sum(work_done(workload, r) for r in good)
        return {"sim_mbit_per_s": (bits / 1e6 / sum(r["wall_s"] for r in good), "Mbit/s")}
    # the sweep is the first CLI call of a repetition, the outage grid the second
    sweep_s = sum(r["result"]["t_jobs"][0] - r["result"]["t_ready"] for r in good)
    outage_s = sum(r["result"]["t_jobs"][1] - r["result"]["t_jobs"][0] for r in good)
    return {"ber_points_per_s": (len(SWEEP_POWERS) * len(SWEEP_Q) * len(good) / sweep_s, "1/s"),
            "outage_points_per_s": (len(OUTAGE_POWERS) * len(OUTAGE_GAMMA) * len(good)
                                    / outage_s, "1/s")}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "dafsc" / "cli.py").is_file():
        print(f"error: no dafsc source under {SRC}; run from a dafsc checkout",
              file=sys.stderr)
        return 2
    base = ROOT / ".perfbench_work" / str(os.getpid())
    try:
        out = run(args.workload, args.seed, args.seconds, bool(args.trace), base)
    finally:
        shutil.rmtree(base, ignore_errors=True)
        try:
            (ROOT / ".perfbench_work").rmdir()
        except OSError:
            pass
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
