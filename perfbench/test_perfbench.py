"""Tests of the benchmark's own checks: perturbed outputs must be counted.

Run with:  python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run

REF_BER, REF_OUT = run.load_reference()


def write_curve(path, mod, powers, perturb=None):
    """A ber-curve CSV as the CLI writes it, built from the reference."""
    order = run.ORDERS[mod]
    lines = ["x,analytical,sim_sc,ci_sc,sim_mrc,ci_mrc,bits"]
    for i, p_db in enumerate(powers):
        ana = REF_BER[run.ber_key(order, p_db, run.Q)]
        row = {"x": f"{p_db:.2f}", "analytical": f"{ana:.5e}", "sim_sc": f"{ana:.5e}",
               "ci_sc": f"{0.1 * ana:.5e}", "sim_mrc": f"{0.5 * ana:.5e}",
               "ci_mrc": f"{0.05 * ana:.5e}", "bits": "1000000"}
        if perturb and perturb[0] == i:
            row[perturb[1]] = perturb[2](ana)
        lines.append(",".join(row.values()))
    path.write_text("\n".join(lines) + "\n")


def captured(mod, powers):
    order = run.ORDERS[mod]
    return {run.ber_key(order, p, run.Q): REF_BER[run.ber_key(order, p, run.Q)]
            for p in powers}


def check(tmp_path, perturb=None, cap=None):
    powers = run.MC_DQPSK_POWERS
    path = tmp_path / "curve.csv"
    write_curve(path, "dqpsk", powers, perturb)
    cap = captured("dqpsk", powers) if cap is None else cap
    return run.check_ber_curve(path, "dqpsk", powers, REF_BER, cap)


def test_reference_covers_every_workload_point():
    for p in run.MC_DQPSK_POWERS:
        assert run.ber_key(4, p, run.Q) in REF_BER
    for p in run.SWEEP_POWERS:
        for q in run.SWEEP_Q:
            assert run.ber_key(4, p, q) in REF_BER
    for p in run.OUTAGE_POWERS:
        for g in run.OUTAGE_GAMMA:
            assert run.outage_key(p, run.Q, g) in REF_OUT


def test_clean_curve_passes(tmp_path):
    attempted, failed, messages = check(tmp_path)
    assert (attempted, failed, messages) == (len(run.MC_DQPSK_POWERS), 0, [])


def test_perturbed_analytical_csv_value_is_counted(tmp_path):
    _, failed, messages = check(tmp_path, (2, "analytical", lambda a: f"{a * 1.001:.5e}"))
    assert failed == 1 and "csv" in messages[0]


def test_simulated_point_far_from_analysis_is_counted(tmp_path):
    powers = run.MC_DQPSK_POWERS
    curves = []
    for k in range(3):
        path = tmp_path / f"curve{k}.csv"
        write_curve(path, "dqpsk", powers, (2, "sim_sc", lambda a: f"{a * 1.5:.5e}"))
        curves.append(run.read_csv(path)[1])
    attempted, failed, messages, worst = run.check_sc_accuracy("dqpsk", powers, curves,
                                                               REF_BER)
    assert (attempted, failed) == (len(powers), 1) and "SE from" in messages[0]
    assert abs(worst - 0.5 / 0.1 * 1.96) < 1e-3


def test_one_outlying_curve_is_diluted_by_pooling(tmp_path):
    powers = run.MC_DQPSK_POWERS
    curves = []
    for k in range(4):
        path = tmp_path / f"curve{k}.csv"
        perturb = (0, "sim_sc", lambda a: f"{a * 0.6:.5e}") if k == 0 else None
        write_curve(path, "dqpsk", powers, perturb)
        curves.append(run.read_csv(path)[1])
    _, failed, _, worst = run.check_sc_accuracy("dqpsk", powers, curves, REF_BER)
    assert failed == 0 and worst > run.SE_LIMIT


def test_perturbed_outage_value_is_counted(tmp_path):
    lines = ["power_db,gamma_th_db,analytical,mc,ci_mc,draws"]
    cap = {}
    for p in run.OUTAGE_POWERS:
        for g in run.OUTAGE_GAMMA:
            key = run.outage_key(p, run.Q, g)
            value = REF_OUT[key] * (1.01 if (p, g) == (run.OUTAGE_POWERS[3], run.OUTAGE_GAMMA[7])
                                    else 1.0)
            cap[key] = REF_OUT[key]
            lines.append(f"{p:.2f},{g:.2f},{value:.5e},,,0")
    path = tmp_path / "outage.csv"
    path.write_text("\n".join(lines) + "\n")
    attempted, failed, messages = run.check_outage(path, REF_OUT, cap)
    assert (attempted, failed) == (len(lines) - 1, 1) and "csv" in messages[0]


def test_mrc_outside_range_is_counted(tmp_path):
    _, failed, _ = check(tmp_path, (0, "sim_mrc", lambda a: "6.00000e-01"))
    assert failed == 1


def test_full_precision_drift_is_counted(tmp_path):
    cap = captured("dqpsk", run.MC_DQPSK_POWERS)
    key = run.ber_key(4, run.MC_DQPSK_POWERS[1], run.Q)
    cap[key] *= 1 + 1e-8  # invisible in the six-digit CSV
    _, failed, messages = check(tmp_path, cap=cap)
    assert failed == 1 and "reference" in messages[0]


def test_missing_capture_is_counted(tmp_path):
    _, failed, _ = check(tmp_path, cap={})
    assert failed == len(run.MC_DQPSK_POWERS)


def test_warning_or_exit_code_fails_every_point(tmp_path):
    rep = {"work": tmp_path, "returncode": 0, "stderr": "warning: budget hit\n",
           "result": {"exit_codes": [0]}}
    n = len(run.MC_DQPSK_POWERS)
    assert run.check_rep("mc-dqpsk-w2", rep, (REF_BER, REF_OUT))[:2] == (n, n)
    rep.update(stderr="", result={"exit_codes": [3]})
    assert run.check_rep("mc-dqpsk-w2", rep, (REF_BER, REF_OUT))[:2] == (n, n)


def test_reconciliation_catches_a_silent_engine(tmp_path):
    write_curve(tmp_path / "curve.csv", "dqpsk", run.MC_DQPSK_POWERS)
    stats = {"harness.trial_seed_sequence": {"calls": 10},
             "fading.generate_fading": {"calls": 30},
             "fading.generate_awgn": {"calls": 0},
             "phy.chain_error_counts": {"calls": 10}}
    rep = {"work": tmp_path, "result": {"stats": stats, "trials": [], "points": []}}
    problems = run.reconcile("mc-dqpsk-w2", rep)
    assert any("noise_calls" in p for p in problems)
    assert any("csv bits" in p for p in problems)


def test_exits_nonzero_without_a_checkout(tmp_path):
    here = Path(run.__file__).resolve().parent
    shutil.copytree(here, tmp_path / here.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(here.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{here.name}/run.py", "--workload", "analytic", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_matches_the_script():
    spec = json.loads((Path(run.__file__).resolve().parent.parent
                       / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
