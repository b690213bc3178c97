"""Harness orchestration: determinism, CSV round-trips, CLI, validation."""

import argparse
import csv
import dataclasses
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import dafsc
from dafsc import analysis, cli, harness, specfn
from dafsc.fading import generate_awgn, generate_fading
from dafsc.harness import (
    DEFAULT_SEED,
    BerPoint,
    ExperimentConfig,
    run_ber_curve,
    run_outage_curve,
    run_power_allocation_sweep,
    simulate_point,
    trial_seed_sequence,
    write_ber_csv,
    write_outage_csv,
)
from dafsc.phy import chain_error_counts
from dafsc.validate import run_validation_suite

FAST_SIM = dict(
    power_db=(10.0, 15.0),
    min_bit_errors=100,
    max_symbols=200_000,
    frames_per_trial=2,
    frame_length=250,
    seed=321,
)


def ber_csv_text(points):
    """What ``write_ber_csv`` writes for ``points``."""
    buf = io.StringIO()
    write_ber_csv(buf, points)
    return buf.getvalue()


GOLDEN_CSV = {
    "dbpsk": (
        "x,analytical,sim_sc,ci_sc,sim_mrc,ci_mrc,bits\n"
        "10.00,4.08135e-02,3.73125e-02,1.09853e-02,3.02187e-02,1.01583e-02,32000\n"
        "20.00,1.33295e-03,2.22115e-03,9.89442e-04,1.86538e-03,9.54236e-04,208000\n"
        "30.00,2.40945e-05,1.00000e-05,1.45992e-05,1.00000e-05,1.45992e-05,300000\n"
    ),
    "dqpsk": (
        "x,analytical,sim_sc,ci_sc,sim_mrc,ci_mrc,bits\n"
        "10.00,8.44159e-02,8.04531e-02,1.47095e-02,6.82813e-02,1.43528e-02,64000\n"
        "20.00,4.46201e-03,6.36250e-03,2.69241e-03,5.00625e-03,2.55514e-03,160000\n"
        "30.00,9.70321e-05,1.00000e-04,7.32519e-05,6.33333e-05,5.10270e-05,600000\n"
    ),
}


# Outage CSVs: one grid with blank Monte Carlo cells (and a -0.0 threshold
# beside 0.0), frozen from the row-by-row csv.writer output, and one with
# Monte Carlo cells (and a -0.0 power), frozen from one sample per power
# read at every threshold.  The writer may change, these bytes may not.
GOLDEN_OUTAGE_CSV = {
    "closed_form": (
        dict(power_db=(0.0, 12.5, 30.0), q=0.7, seed=5),
        (-10.0, -2.5, -0.0, 0.0, 0.05, 3.0, 7.5, 12.345, 30.0),
        0,
        "power_db,gamma_th_db,analytical,mc,ci_mc,draws\n"
        "0.00,-10.00,9.51714e-02,,,0\n"
        "0.00,-2.50,5.42455e-01,,,0\n"
        "0.00,-0.00,7.58393e-01,,,0\n"
        "0.00,0.00,7.58393e-01,,,0\n"
        "0.00,0.05,7.62405e-01,,,0\n"
        "0.00,3.00,9.42112e-01,,,0\n"
        "0.00,7.50,9.99676e-01,,,0\n"
        "0.00,12.35,1.00000e+00,,,0\n"
        "0.00,30.00,1.00000e+00,,,0\n"
        "12.50,-10.00,6.74560e-04,,,0\n"
        "12.50,-2.50,1.26401e-02,,,0\n"
        "12.50,-0.00,3.12555e-02,,,0\n"
        "12.50,0.00,3.12555e-02,,,0\n"
        "12.50,0.05,3.18098e-02,,,0\n"
        "12.50,3.00,8.56769e-02,,,0\n"
        "12.50,7.50,3.05508e-01,,,0\n"
        "12.50,12.35,7.36050e-01,,,0\n"
        "12.50,30.00,1.00000e+00,,,0\n"
        "30.00,-10.00,3.94767e-07,,,0\n"
        "30.00,-2.50,9.87883e-06,,,0\n"
        "30.00,-0.00,2.84937e-05,,,0\n"
        "30.00,0.00,2.84937e-05,,,0\n"
        "30.00,0.05,2.91012e-05,,,0\n"
        "30.00,3.00,1.00320e-04,,,0\n"
        "30.00,7.50,6.40792e-04,,,0\n"
        "30.00,12.35,4.41287e-03,,,0\n"
        "30.00,30.00,7.47971e-01,,,0\n"
    ),
    "monte_carlo": (
        dict(power_db=(-0.0, 15.0), q=0.7, seed=6),
        (-30.0, 0.0, 5.0),
        2000,
        "power_db,gamma_th_db,analytical,mc,ci_mc,draws\n"
        "-0.00,-30.00,5.61256e-05,0.00000e+00,0.00000e+00,2000\n"
        "-0.00,0.00,7.58393e-01,7.70000e-01,1.84438e-02,2000\n"
        "-0.00,5.00,9.89082e-01,9.93000e-01,3.65397e-03,2000\n"
        "15.00,-30.00,4.66300e-08,0.00000e+00,0.00000e+00,2000\n"
        "15.00,0.00,1.24230e-02,1.40000e-02,5.14924e-03,2000\n"
        "15.00,5.00,7.20746e-02,7.40000e-02,1.14726e-02,2000\n"
    ),
}

class TestExperimentConfig:
    def test_defaults_valid(self):
        cfg = ExperimentConfig()
        assert cfg.mod.order == 2
        assert cfg.power_db[0] == 5.0 and cfg.power_db[-1] == 35.0

    @pytest.mark.parametrize("kwargs", [
        dict(modulation="8psk"),
        dict(power_db=()),
        dict(q=1.5),
        dict(q_grid=(0.0, 0.5)),
        dict(min_bit_errors=50),
        dict(workers=0),
        dict(max_symbols=10),
        dict(seed=-1),
        dict(normalized_doppler=0.7),
        dict(normalized_doppler=float("nan")),
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ExperimentConfig(**kwargs)

    def test_stop_rule_constants_are_not_settings(self):
        assert {f.name for f in dataclasses.fields(ExperimentConfig)} == {
            "modulation", "power_db", "q", "q_grid", "sweep_power_db", "amplification",
            "normalized_doppler", "frame_length", "frames_per_trial", "min_bit_errors",
            "max_symbols", "seed", "workers", "analytical_only"}
        cfg = ExperimentConfig()
        assert (cfg.batch_trials, cfg.min_error_trials) == (32, 48)
        assert cfg.fading.num_sinusoids == 16
        for key in ("batch_trials", "min_error_trials", "num_sinusoids"):
            with pytest.raises(TypeError):
                ExperimentConfig(**{key: 16})

    def test_profile_uses_override_gain(self):
        cfg = ExperimentConfig(amplification=2.5)
        assert cfg.profile(10.0).amplification == 2.5


class TestSeedHygiene:
    def test_streams_never_collide(self):
        seen = set()
        for point in range(8):
            for trial in range(200):
                ss = trial_seed_sequence(777, point, trial)
                word = np.random.default_rng(ss).integers(0, 2**63 - 1)
                seen.add(int(word))
        assert len(seen) == 8 * 200

    def test_streams_reproducible(self):
        a = np.random.default_rng(trial_seed_sequence(1, 2, 3)).standard_normal(8)
        b = np.random.default_rng(trial_seed_sequence(1, 2, 3)).standard_normal(8)
        np.testing.assert_array_equal(a, b)


@pytest.fixture(scope="module")
def fast_points():
    cfg = ExperimentConfig(**FAST_SIM)
    return run_ber_curve(cfg)


class TestBerCurve:
    def test_analytical_column_strictly_decreasing(self):
        cfg = ExperimentConfig(power_db=tuple(np.arange(5.0, 30.1, 2.5)),
                               analytical_only=True)
        points, _ = run_ber_curve(cfg)
        ana = [p.analytical_ber for p in points]
        assert np.all(np.diff(ana) < 0.0)

    def test_simulated_fields_populated(self, fast_points):
        points, _ = fast_points
        for p in points:
            assert 0.0 <= p.estimate.ber_sc <= 1.0
            assert 0.0 <= p.estimate.ber_mrc <= 1.0
            assert p.estimate.ci_sc > 0.0
            assert p.estimate.bits > 0

    def test_worker_count_invariance(self, fast_points):
        base, _ = fast_points
        for workers in (4, 8):
            cfg = ExperimentConfig(workers=workers, **FAST_SIM)
            points, _ = run_ber_curve(cfg)
            assert ber_csv_text(points) == ber_csv_text(base)

    @pytest.mark.parametrize("modulation", ["dbpsk", "dqpsk"])
    def test_fixed_seed_csv_bytes(self, modulation):
        # frozen from one generator per trial, drawn in the order that
        # trial_seed_sequence documents; the synthesis algorithm may change,
        # these bytes may not, unless that draw order changes with them
        cfg = ExperimentConfig(modulation=modulation, power_db=(10.0, 20.0, 30.0),
                               seed=DEFAULT_SEED, min_bit_errors=100,
                               max_symbols=300_000, frames_per_trial=2,
                               frame_length=250)
        points, _ = run_ber_curve(cfg)
        assert ber_csv_text(points) == GOLDEN_CSV[modulation]

    def test_budget_warning_flagged(self):
        cfg = ExperimentConfig(power_db=(30.0,), min_bit_errors=100_000,
                               max_symbols=10_000, frames_per_trial=2,
                               frame_length=250, seed=1)
        _, warnings = run_ber_curve(cfg)
        assert len(warnings) == 1 and "low confidence" in warnings[0]

    def test_budget_ending_below_the_error_trial_floor_warns(self):
        # 20 trials carry far more than 200 errors, but fewer than 48 of
        # them carry any, so the budget, not the stop rule, ends the point
        cfg = ExperimentConfig(power_db=(5.0,), max_symbols=20_000, seed=1)
        est = simulate_point(cfg, cfg.profile(5.0), 0)
        assert est.trials == 20 and est.reached_target is False
        assert min(est.ber_sc, est.ber_mrc) * est.bits >= cfg.min_bit_errors
        _, warnings = run_ber_curve(cfg)
        assert len(warnings) == 1 and "low confidence" in warnings[0]
        argv = ["ber-curve", "--mod", "dbpsk", "--power-db", "5", "--max-symbols",
                "20000", "--seed", "1", "--strict"]
        assert cli.main(argv) == 3

    def test_budget_is_never_exceeded(self, capsys):
        # 1,500 symbols allow one whole 1,000-symbol trial, not two
        argv = ["ber-curve", "--power-db", "30", "--max-symbols", "1500", "--seed", "1"]
        assert cli.main(argv) == 0
        captured = capsys.readouterr()
        assert [p.estimate.bits for p in parse_ber_csv(captured.out)] == [1000]
        assert "1500 symbol budget hit" in captured.err
        cfg = ExperimentConfig(power_db=(30.0,), max_symbols=1999, seed=1)
        assert simulate_point(cfg, cfg.profile(30.0), 0).trials == 1

    def test_paired_combiners_strongly_correlated(self):
        cfg = ExperimentConfig(**FAST_SIM)
        profile = cfg.profile(10.0)
        per_trial = [harness._run_trial(cfg, profile, 0, t) for t in range(64)]
        sc = np.array([r[0] for r in per_trial], dtype=float)
        mrc = np.array([r[1] for r in per_trial], dtype=float)
        # identical channel/noise realizations make the two counts move
        # together far more than independent runs would
        assert np.corrcoef(sc, mrc)[0, 1] > 0.5


class TestTrialStreams:
    # (SC, semi-MRC) bit errors of trials 0..63 of point 0 at the default
    # 2 x 500-symbol trial and DEFAULT_SEED, frozen from the per-trial
    # engine with one generator per trial; every trial not listed has (0, 0)
    PINNED = {
        ("dqpsk", 30.0): {11: (1, 1), 23: (1, 1), 35: (11, 10)},
        ("dbpsk", 20.0): {1: (14, 13), 11: (11, 8), 17: (2, 2), 18: (1, 0),
                          19: (1, 3), 23: (5, 6), 29: (2, 1), 31: (1, 0),
                          34: (1, 0), 35: (25, 23), 37: (1, 0), 45: (2, 3),
                          49: (2, 3), 60: (11, 11)},
    }

    @pytest.mark.parametrize("key", sorted(PINNED))
    def test_default_frames_pinned(self, key):
        modulation, power_db = key
        cfg = ExperimentConfig(modulation=modulation, seed=DEFAULT_SEED)
        assert (cfg.frames_per_trial, cfg.frame_length) == (2, 500)
        profile = cfg.profile(power_db)
        got = [harness._run_trial(cfg, profile, 0, t) for t in range(64)]
        want = [self.PINNED[key].get(t, (0, 0)) for t in range(64)]
        assert got == want

    @pytest.mark.parametrize("modulation", ["dbpsk", "dqpsk"])
    def test_draw_layout(self, modulation):
        # one generator per trial: taps sd, sr, rd, then noise sd, sr, rd,
        # then the symbols, whatever the seed, point and trial
        cfg = ExperimentConfig(modulation=modulation, frames_per_trial=3,
                               frame_length=7, seed=4242)
        profile = cfg.profile(3.0)
        uses = 3 * (7 + 1)  # a frame carries its reference symbol too
        for point, trial in [(0, 0), (1, 5), (7, 2**40)]:
            rng = np.random.default_rng(trial_seed_sequence(cfg.seed, point, trial))
            taps = [generate_fading(cfg.fading, uses, rng) for _ in range(3)]
            noise = [generate_awgn(rng, uses) for _ in range(3)]
            v_idx = rng.integers(0, cfg.mod.order, 3 * 7)
            want = chain_error_counts(v_idx, *taps, *noise, profile=profile,
                                      mod=cfg.mod, frame_len=7)
            assert harness._run_trial(cfg, profile, point, trial) == want


class TestSimulatePointDefinition:
    """Every ``PointEstimate`` field against its definition, written out
    from the (SC, semi-MRC) counts of trials 0 .. trials - 1: the stop rule
    holds at the last batch boundary and at no earlier one, unless the
    budget ends the point."""

    SMALL = dict(modulation="dqpsk", frames_per_trial=2, frame_length=250,
                 min_bit_errors=100, seed=321)
    CASES = {
        "target": (dict(max_symbols=300_000, **SMALL), 10.0, True),
        # 80 trials, two whole batches and the 16 the budget allows, carry
        # the errors but too few error-bearing trials
        "budget": (dict(max_symbols=40_000, **SMALL), 20.0, False),
    }

    @staticmethod
    def stop_rule(cfg, counts):
        sc = [e[0] for e in counts]
        mrc = [e[1] for e in counts]
        errors = min(sum(sc), sum(mrc))
        error_trials = min(sum(e > 0 for e in sc), sum(e > 0 for e in mrc))
        return errors >= cfg.min_bit_errors and error_trials >= cfg.min_error_trials

    @staticmethod
    def halfwidth(p, bits, rates):
        se_binom = math.sqrt(p * (1.0 - p) / bits)
        se_cluster = float(np.std(rates, ddof=1)) / math.sqrt(len(rates))
        return 1.96 * max(se_binom, se_cluster)

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_every_field(self, case):
        settings, power_db, reached = self.CASES[case]
        cfg = ExperimentConfig(**settings)
        profile = cfg.profile(power_db)
        est = simulate_point(cfg, profile, 1)
        counts = [harness._run_trial(cfg, profile, 1, t) for t in range(est.trials)]
        trial_symbols = cfg.frames_per_trial * cfg.frame_length
        trial_bits = trial_symbols * cfg.mod.bits_per_symbol
        bits = est.trials * trial_bits
        max_trials = cfg.max_symbols // trial_symbols
        boundaries = [n for n in range(cfg.batch_trials, max_trials, cfg.batch_trials)
                      if n < est.trials]
        assert not any(self.stop_rule(cfg, counts[:n]) for n in boundaries)
        assert est.reached_target is self.stop_rule(cfg, counts) is reached
        assert est.reached_target or est.trials == max_trials
        assert est.trials % cfg.batch_trials == 0 or est.trials == max_trials
        assert est.trials == len(counts) > 1 and est.bits == bits
        for column, (ber, ci) in enumerate([(est.ber_sc, est.ci_sc),
                                            (est.ber_mrc, est.ci_mrc)]):
            errors = [e[column] for e in counts]
            p = sum(errors) / bits
            assert ber == p
            assert ci == self.halfwidth(p, bits, [e / trial_bits for e in errors])


class TestTrialOrderIndependence:
    """A trial's result must not depend on which trials ran before it, on
    its thread or another: no RNG state may pass from one trial to the
    next.  One odd-length frame leaves a half-used 32-bit word in the
    symbol stream after every trial."""

    CFG = ExperimentConfig(modulation="dqpsk", frames_per_trial=1, frame_length=51,
                           seed=99)
    PROFILE = CFG.profile(8.0)
    KEYS = [(point, trial) for point in (0, 3) for trial in range(12)]

    def run(self, keys):
        return {k: harness._run_trial(self.CFG, self.PROFILE, *k) for k in keys}

    def test_shuffled_and_interleaved_match_in_order(self):
        in_order = self.run(self.KEYS)
        assert len({v[:2] for v in in_order.values()}) > 12  # trials differ
        shuffled = list(self.KEYS)
        np.random.default_rng(5).shuffle(shuffled)
        interleaved = [k for pair in zip(self.KEYS[:12], self.KEYS[12:]) for k in pair]
        assert self.run(shuffled) == in_order
        assert self.run(interleaved) == in_order

    def test_two_threads_at_once(self):
        in_order = self.run(self.KEYS)
        barrier = threading.Barrier(2)

        def work(keys):
            barrier.wait(timeout=60)
            return [self.run(keys) for _ in range(3)]

        with ThreadPoolExecutor(2) as pool:
            halves = pool.map(work, (self.KEYS[::2], self.KEYS[1::2][::-1]))
            for runs in halves:
                for got in runs:
                    assert got == {k: in_order[k] for k in got}


class TestPerTrialCallPattern:
    """``perfbench`` reconciles a traced run from these calls: per trial one
    ``trial_seed_sequence(seed, point, trial)``, positional, which opens the
    trial's span, then 3 ``generate_fading``, 3 ``generate_awgn`` and one
    ``chain_error_counts``, which closes it.  This pins that pattern until
    the benchmark reconciles from ``simulate_point``'s results instead
    (ROADMAP item 2)."""

    def test_simulate_point_call_sequence(self, monkeypatch):
        calls = []

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls.append((name, args if name == "seed" else None, kwargs))
                return fn(*args, **kwargs)
            return wrapper

        for name, attr in [("seed", "trial_seed_sequence"), ("fading", "generate_fading"),
                           ("noise", "generate_awgn"), ("chain", "chain_error_counts")]:
            monkeypatch.setattr(harness, attr, counting(name, getattr(harness, attr)))
        cfg = ExperimentConfig(modulation="dqpsk", frame_length=20,
                               max_symbols=400, seed=11)
        est = simulate_point(cfg, cfg.profile(5.0), 2)
        assert est.trials == 10
        pattern = ["seed"] + ["fading"] * 3 + ["noise"] * 3 + ["chain"]
        assert [c[0] for c in calls] == pattern * est.trials
        seeds = [c for c in calls if c[0] == "seed"]
        assert [(args, kwargs) for _, args, kwargs in seeds] == \
            [((11, 2, t), {}) for t in range(est.trials)]


class TestPowerSweep:
    def test_argmin_near_known_optimum(self):
        cfg = ExperimentConfig(q_grid=harness.DEFAULT_Q_GRID)
        tables, argmin_q = run_power_allocation_sweep(cfg)
        for p_db, rows in tables.items():
            assert len(rows) == len(cfg.q_grid)
            assert 0.65 <= argmin_q[p_db] <= 0.75

    def test_reproducible_bit_exact(self):
        cfg = ExperimentConfig()
        t1, a1 = run_power_allocation_sweep(cfg)
        t2, a2 = run_power_allocation_sweep(cfg)
        assert a1 == a2
        for p_db in t1:
            assert [r.analytical_ber for r in t1[p_db]] == \
                   [r.analytical_ber for r in t2[p_db]]

    def test_edges_worse_than_optimum(self):
        cfg = ExperimentConfig()
        tables, _ = run_power_allocation_sweep(cfg)
        for rows in tables.values():
            by_q = {r.x: r.analytical_ber for r in rows}
            assert by_q[0.05] > by_q[0.7] and by_q[0.95] > by_q[0.7]


class TestOutageCurve:
    def test_zero_threshold_row_exact_zero(self):
        cfg = ExperimentConfig(power_db=(10.0,), seed=5)
        grid = run_outage_curve(cfg, gamma_th_db=(-300.0, 0.0, 5.0))
        # a -300 dB threshold is numerically zero outage; 0 dB is gamma=1
        assert grid.analytical[0, 0] < 1e-25
        assert np.all(np.diff(grid.analytical[0]) > 0.0)

    def test_one_closed_form_call_per_power(self, monkeypatch):
        calls = []
        true_outage = analysis.outage_probability

        def counting(gamma_th, profile):
            calls.append(np.size(gamma_th))
            return true_outage(gamma_th, profile)

        monkeypatch.setattr(analysis, "outage_probability", counting)
        cfg = ExperimentConfig(power_db=(0.0, 10.0, 20.0), seed=5)
        gamma_db = (-10.0, -2.5, 0.0, 5.0, 12.5, 30.0)
        grid = run_outage_curve(cfg, gamma_th_db=gamma_db)
        assert calls == [len(gamma_db)] * 3
        assert grid.power_db == cfg.power_db and grid.gamma_th_db == gamma_db
        assert grid.analytical.dtype == np.float64
        assert grid.analytical.shape == (len(cfg.power_db), len(gamma_db))
        assert not grid.analytical.flags.writeable
        assert grid.mc_estimate is None and grid.ci_halfwidth is None
        for i, p_db in enumerate(grid.power_db):
            for j, g_db in enumerate(grid.gamma_th_db):
                want = true_outage(10.0 ** (g_db / 10.0), cfg.profile(p_db))
                assert grid.analytical[i, j] == pytest.approx(want, rel=1e-15)

    def test_negative_mc_draws_rejected(self):
        with pytest.raises(ValueError):
            run_outage_curve(ExperimentConfig(power_db=(10.0,)), [0.0], mc_draws=-5)

    def test_mc_column_within_ci(self):
        cfg = ExperimentConfig(power_db=(10.0,), seed=6)
        grid = run_outage_curve(cfg, gamma_th_db=(0.0, 5.0), mc_draws=200_000)
        assert grid.mc_estimate.shape == grid.analytical.shape == (1, 2)
        assert grid.draws == 200_000
        assert np.all(np.abs(grid.mc_estimate - grid.analytical)
                      <= 3.0 * (grid.ci_halfwidth / 1.96))

    def test_one_sample_per_power(self, monkeypatch):
        sizes = []
        true_draw = analysis.draw_combiner_snr

        def counting(profile, size, rng):
            sizes.append(size)
            return true_draw(profile, size, rng)

        monkeypatch.setattr(analysis, "draw_combiner_snr", counting)
        cfg = ExperimentConfig(power_db=(0.0, 10.0, 20.0), seed=5)
        run_outage_curve(cfg, gamma_th_db=(-10.0, 0.0, 5.0, 10.0, 20.0), mc_draws=300)
        assert sizes == [300] * 3

    def test_mc_cells_read_one_sample_per_power(self):
        # row i is the share of one sample, seeded by (seed, 10_000 + i),
        # at or below each threshold; each cell has its own half-width
        cfg = ExperimentConfig(power_db=(-5.0, 10.0, 25.0), q=0.6, seed=11)
        gamma_db = (-40.0, -3.0, 0.0, 0.05, 2.5, 7.0, 15.0, 40.0)
        draws = 700
        grid = run_outage_curve(cfg, gamma_db, mc_draws=draws)
        for i, p_db in enumerate(cfg.power_db):
            rng = np.random.default_rng(np.random.SeedSequence(entropy=(11, 10_000 + i)))
            sample = analysis.draw_combiner_snr(cfg.profile(p_db), draws, rng)
            for j, g_db in enumerate(gamma_db):
                p = float(np.mean(sample <= 10.0 ** (g_db / 10.0)))
                assert grid.mc_estimate[i, j] == p
                assert grid.ci_halfwidth[i, j] == 1.96 * math.sqrt(p * (1.0 - p) / draws)
        assert grid.mc_estimate[0, 0] == 0.0 and grid.mc_estimate[0, -1] == 1.0

    def test_mc_rows_non_decreasing(self):
        # an empirical CDF cannot fall as the threshold grows
        cfg = ExperimentConfig(power_db=(0.0, 10.0, 20.0), seed=3)
        gamma_db = [round(-5.0 + 0.05 * j, 10) for j in range(401)]
        grid = run_outage_curve(cfg, gamma_db, mc_draws=500)
        for row in grid.mc_estimate:
            assert np.all(np.diff(row) >= 0.0)

    def test_mc_arrays_read_only(self):
        cfg = ExperimentConfig(power_db=(0.0, 10.0), seed=5)
        grid = run_outage_curve(cfg, gamma_th_db=(0.0, 3.0, 6.0), mc_draws=50)
        assert grid.draws == 50
        for column in (grid.mc_estimate, grid.ci_halfwidth):
            assert column.dtype == np.float64 and column.shape == (2, 3)
            assert not column.flags.writeable


def parse_ber_csv(text):
    """The rows of a BER CSV as ``BerPoint``s, blank simulated cells as no
    estimate."""
    header, *rows = csv.reader(io.StringIO(text))
    assert header == harness.BER_CSV_HEADER
    points = []
    for x, ana, sc, ci_sc, mrc, ci_mrc, bits in rows:
        # the CSV does not carry trials or reached_target: placeholders
        estimate = None if sc == "" else harness.PointEstimate(
            ber_sc=float(sc), ber_mrc=float(mrc), ci_sc=float(ci_sc),
            ci_mrc=float(ci_mrc), bits=int(bits), trials=0, reached_target=False)
        points.append(BerPoint(x=float(x), analytical_ber=float(ana), estimate=estimate))
    return points


class TestCsv:
    def test_round_trip_bit_exact(self):
        cfg = ExperimentConfig(**FAST_SIM)
        points, _ = run_ber_curve(cfg)
        text = ber_csv_text(points)
        parsed = parse_ber_csv(text)
        assert ber_csv_text(parsed) == text
        reparsed = parse_ber_csv(ber_csv_text(parsed))
        assert reparsed == parsed

    def test_round_trip_with_blanks(self):
        points = [BerPoint(x=10.0, analytical_ber=1.25e-3)]
        text = ber_csv_text(points)
        assert text.splitlines()[1] == "10.00,1.25000e-03,,,,,0"
        parsed = parse_ber_csv(text)
        assert parsed[0].estimate is None
        assert ber_csv_text(parsed) == text

    def test_header_fixed(self):
        text = ber_csv_text([])
        assert text == "x,analytical,sim_sc,ci_sc,sim_mrc,ci_mrc,bits\n"

    def test_file_io(self, tmp_path):
        points = [BerPoint(x=5.0, analytical_ber=0.1, estimate=harness.PointEstimate(
            ber_sc=0.09, ber_mrc=0.08, ci_sc=0.01, ci_mrc=0.01, bits=1000,
            trials=1, reached_target=True))]
        path = tmp_path / "curve.csv"
        with open(path, "w", newline="") as fh:
            write_ber_csv(fh, points)
        assert path.read_bytes() == ber_csv_text(points).encode()

    @pytest.mark.parametrize("name", sorted(GOLDEN_OUTAGE_CSV))
    def test_outage_csv_bytes(self, name, tmp_path):
        kwargs, gamma_db, mc_draws, want = GOLDEN_OUTAGE_CSV[name]
        rows = run_outage_curve(ExperimentConfig(**kwargs), gamma_db, mc_draws=mc_draws)
        buf = io.StringIO()
        write_outage_csv(buf, rows)
        assert buf.getvalue() == want
        path = tmp_path / "outage.csv"
        with open(path, "w", newline="") as fh:
            write_outage_csv(fh, rows)
        assert path.read_bytes() == want.encode()

    def test_outage_csv_signed_zero_grid(self):
        # cells are formatted by position, so the two signed zeros of either
        # coordinate each keep their own sign
        grid = harness.OutageGrid(
            power_db=(1.0, -0.0), gamma_th_db=(0.0, -0.0, 1.005),
            analytical=np.array([[0.25, 0.5, 0.75], [1e-300, 0.0, 1.0]]))
        buf = io.StringIO()
        write_outage_csv(buf, grid)
        assert buf.getvalue().splitlines()[1:] == [
            "1.00,0.00,2.50000e-01,,,0",
            "1.00,-0.00,5.00000e-01,,,0",
            "1.00,1.00,7.50000e-01,,,0",  # the double nearest 1.005 lies below it
            "-0.00,0.00,1.00000e-300,,,0",
            "-0.00,-0.00,0.00000e+00,,,0",
            "-0.00,1.00,1.00000e+00,,,0",
        ]

    def test_outage_csv_schema(self, tmp_path):
        cfg = ExperimentConfig(power_db=(10.0,), seed=5)
        rows = run_outage_curve(cfg, gamma_th_db=(0.0,))
        path = tmp_path / "outage.csv"
        with open(path, "w", newline="") as fh:
            write_outage_csv(fh, rows)
        lines = path.read_text().splitlines()
        assert lines[0] == "power_db,gamma_th_db,analytical,mc,ci_mc,draws"
        assert len(lines) == 2


# the checks a 1 % error in the scaled K1 fails
TAMPERED_K1_FAILS = {"specfn.k1_grid", "specfn.k1_complement_grid",
                     "outage.closed_form_vs_quadrature"}


class TestValidationSuite:
    def test_fresh_run_passes(self):
        report = run_validation_suite()
        failed = [c for c in report["checks"] if not c["passed"]]
        assert report["passed"], f"failed checks: {failed}"

    def test_tampered_k1_detected(self, monkeypatch):
        # the scaled K1 is checked on its grid and, through 1 - x K1 above
        # x = 2, on the complement grid and in every outage value
        true_k1 = specfn.bessel_k1_scaled
        monkeypatch.setattr(specfn, "bessel_k1_scaled", lambda x: 1.01 * true_k1(x))
        report = run_validation_suite()
        assert not report["passed"]
        failing = {c["name"] for c in report["checks"] if not c["passed"]}
        assert failing == TAMPERED_K1_FAILS

    def test_check_names(self):
        # the special-function checks cover exactly the kernels the closed
        # forms call: scaled E1, scaled K1 and 1 - x K1
        report = run_validation_suite()
        assert [c["name"] for c in report["checks"]] == [
            "specfn.scaled_e1_grid", "specfn.k1_grid", "specfn.k1_complement_grid",
            "quadrature.closed_form",
            "ber.closed_form_vs_2d_quadrature", "fading.variance",
            "fading.autocorrelation", "fading.slow_fading_step",
            "fading.cross_independence", "diversity.approx_slope",
            "diversity.approx_below_exact", "outage.closed_form_vs_quadrature"]

    def test_tampered_periodic_rule_detected(self, monkeypatch):
        true_rule = specfn.integrate_periodic
        monkeypatch.setattr(specfn, "integrate_periodic",
                            lambda f: 1.01 * true_rule(f))
        report = run_validation_suite()
        assert not report["passed"]
        failing = {c["name"] for c in report["checks"] if not c["passed"]}
        assert failing == {"quadrature.closed_form"}


class TestConfigFile:
    def test_parse_and_types(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(
            "# comment line\n"
            "modulation = dqpsk\n"
            "power_db = 10:20:5   # inline comment\n"
            "q = 0.6\n"
            "min_bit_errors = 150\n"
            "analytical_only = true\n"
        )
        kwargs = cli.load_config_file(str(path))
        assert kwargs == {
            "modulation": "dqpsk",
            "power_db": (10.0, 15.0, 20.0),
            "q": 0.6,
            "min_bit_errors": 150,
            "analytical_only": True,
        }

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("powerlevel = 9001\n")
        with pytest.raises(ValueError):
            cli.load_config_file(str(path))

    @pytest.mark.parametrize("key", ["batch_trials", "min_error_trials",
                                     "num_sinusoids"])
    def test_stop_rule_constant_key_rejected(self, key, tmp_path, capsys):
        path = tmp_path / "exp.cfg"
        path.write_text(f"power_db = 10\nanalytical_only = true\n{key} = 16\n")
        assert cli.main(["ber-curve", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "unknown key" in err

    @pytest.mark.parametrize("word,value", [
        ("1", True), ("TRUE", True), ("Yes", True), ("on", True),
        ("0", False), ("false", False), ("NO", False), ("Off", False)])
    def test_boolean_words(self, tmp_path, word, value):
        path = tmp_path / "exp.cfg"
        path.write_text(f"analytical_only = {word}\n")
        assert cli.load_config_file(str(path)) == {"analytical_only": value}

    @pytest.mark.parametrize("word", ["maybe", "", "2", "truthy", "nope"])
    def test_unknown_boolean_word_rejected(self, tmp_path, word):
        path = tmp_path / "bad.cfg"
        path.write_text(f"analytical_only = {word}\n")
        with pytest.raises(ValueError, match="analytical_only"):
            cli.load_config_file(str(path))

    def test_unknown_boolean_word_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("power_db = 10\nanalytical_only = maybe\n")
        assert cli.main(["ber-curve", "--config", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: ")


class TestGridParsing:
    def test_list(self):
        assert cli.parse_grid("5,7.5,10") == (5.0, 7.5, 10.0)

    def test_range_inclusive(self):
        assert cli.parse_grid("5:35:2.5")[-1] == 35.0
        assert len(cli.parse_grid("5:35:2.5")) == 13

    def test_short_ranges_unchanged(self):
        assert cli.parse_grid("0:20:2") == tuple(float(v) for v in range(0, 21, 2))
        assert cli.parse_grid("0.5:0.9:0.1") == (0.5, 0.6, 0.7, 0.8, 0.9)
        assert cli.parse_grid("0.01:0.99:0.01") == tuple(
            round(0.01 * k, 10) for k in range(1, 100))
        assert cli.parse_grid("1:1:1") == (1.0,)
        assert cli.parse_grid("0:10:0.3")[-1] == 9.9

    def test_long_range_no_drift(self):
        # each value is start + i*step, not a running sum
        grid = cli.parse_grid("0:1000:0.1")
        assert len(grid) == 10_001 and grid[-1] == 1000.0
        assert grid[1234] == 123.4
        assert len(cli.parse_grid("0:10000:0.1")) == 100_001
        assert cli.parse_grid("0:10000:0.1")[-1] == 10000.0

    def test_bad_range(self):
        with pytest.raises(ValueError):
            cli.parse_grid("5:35")
        with pytest.raises(ValueError):
            cli.parse_grid("5:35:-1")
        with pytest.raises(ValueError):
            cli.parse_grid("35:5:1")

    @pytest.mark.parametrize("text", ["inf", "nan", "5,-inf", "0:inf:1", "0:10:nan"])
    def test_non_finite_rejected(self, text):
        with pytest.raises(ValueError):
            cli.parse_grid(text)


class TestCli:
    def test_analytical_only_curve(self, tmp_path, capsys):
        out = tmp_path / "c.csv"
        code = cli.main(["ber-curve", "--mod", "dbpsk", "--power-db", "10,20",
                         "--analytical-only", "--out", str(out)])
        assert code == 0
        points = parse_ber_csv(out.read_text())
        assert len(points) == 2 and points[0].estimate is None

    def test_flags_override_config_file(self, tmp_path):
        cfgfile = tmp_path / "exp.cfg"
        cfgfile.write_text("modulation = dbpsk\nq = 0.5\npower_db = 10\n"
                           "analytical_only = true\n")
        out = tmp_path / "c.csv"
        code = cli.main(["ber-curve", "--config", str(cfgfile),
                         "--mod", "dqpsk", "--out", str(out)])
        assert code == 0
        points = parse_ber_csv(out.read_text())
        # q from file (0.5), modulation overridden to dqpsk
        from dafsc.analysis import analytical_ber
        from dafsc.phy import ModulationParams, PowerProfile
        want = analytical_ber(ModulationParams.dqpsk(), PowerProfile.from_db(10.0, 0.5))
        assert points[0].analytical_ber == pytest.approx(want, rel=1e-5)

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as info:
            cli.main(["ber-curve", "--mod", "16qam"])
        assert info.value.code == 1

    def test_bad_grid_exit_code(self):
        assert cli.main(["ber-curve", "--power-db", "abc", "--analytical-only"]) == 1

    @pytest.mark.parametrize("argv", [
        ["ber-curve", "--analytical-only", "--power-db", "20", "--amp", "nan"],
        ["ber-curve", "--analytical-only", "--power-db", "20", "--doppler", "0.7"],
        ["outage", "--power-db", "10", "--gamma-db=inf"],
        ["outage", "--power-db", "10", "--gamma-db=nan"],
        ["outage", "--power-db", "10", "--gamma-db", "0", "--mc-draws", "-5"],
        # 10 ** (x / 10) overflows a float above about 3082.5 dB
        ["ber-curve", "--analytical-only", "--power-db", "4000"],
        ["outage", "--power-db", "10", "--gamma-db=4000"],
        # A*A or 1/(A*A) is not a positive finite float
        ["ber-curve", "--analytical-only", "--power-db", "20", "--amp", "1e-160"],
        ["ber-curve", "--analytical-only", "--power-db", "20", "--amp", "inf"],
        ["ber-curve", "--analytical-only", "--power-db", "20", "--amp", "1e155"],
        ["outage", "--power-db", "20", "--gamma-db", "0", "--amp", "1e-300"],
        ["outage", "--power-db", "10", "--gamma-db="],
        # A*A and 1/(A*A) are finite, but A^2 (c + 2) or c / A^2 of the BER
        # integrand overflows
        ["ber-curve", "--analytical-only", "--power-db", "10", "--amp", "1e154"],
        ["ber-curve", "--analytical-only", "--power-db", "10", "--amp", "1e-154"],
    ])
    def test_invalid_value_exit_code(self, argv, capsys):
        assert cli.main(argv) == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.filterwarnings("error")  # numpy's overflow warning included
    @pytest.mark.parametrize("argv", [
        ["ber-curve", "--power-db", "10", "--amp", "1e-154", "--mod", "dqpsk"],
        ["power-sweep", "--power-db", "10", "--amp", "1e154"],
    ])
    def test_out_of_range_amplification_is_named(self, argv, capsys):
        # rejected before any integrand is evaluated, also by a simulated
        # curve and a sweep: one line, no warning
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: amplification ")

    def test_min_errors_below_floor_is_usage_error(self):
        assert cli.main(["ber-curve", "--power-db", "10", "--min-errors", "10"]) == 1

    def test_strict_escalates_budget_warning(self, tmp_path):
        out = tmp_path / "c.csv"
        code = cli.main(["ber-curve", "--power-db", "30", "--min-errors", "100000",
                         "--max-symbols", "10000", "--seed", "3",
                         "--out", str(out), "--strict"])
        assert code == 3
        assert cli.main(["ber-curve", "--power-db", "30", "--min-errors", "100000",
                         "--max-symbols", "10000", "--seed", "3",
                         "--out", str(out)]) == 0

    def test_power_sweep_writes_per_power_files(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = cli.main(["power-sweep", "--power-db", "15,20",
                         "--q-grid", "0.5:0.9:0.1", "--out", str(out)])
        assert code == 0
        for p in (15.0, 20.0):
            rows = parse_ber_csv((tmp_path / f"sweep_P{p:.2f}dB.csv").read_text())
            assert [r.x for r in rows] == [0.5, 0.6, 0.7, 0.8, 0.9]
        err = capsys.readouterr().err
        assert "minimized at" in err

    def test_power_sweep_out_dots_in_directories(self, tmp_path):
        (tmp_path / "out.d").mkdir()
        for out, want in ((f"{tmp_path}/./sweep", tmp_path / "sweep_P15.00dB"),
                          (f"{tmp_path}/out.d/sweep", tmp_path / "out.d" / "sweep_P15.00dB"),
                          (f"{tmp_path}/sweep.csv", tmp_path / "sweep_P15.00dB.csv")):
            code = cli.main(["power-sweep", "--mod", "dbpsk", "--power-db", "15",
                             "--q-grid", "0.5,0.7", "--out", out])
            assert code == 0
            assert [r.x for r in parse_ber_csv(want.read_text())] == [0.5, 0.7]

    def test_power_sweep_several_powers_need_out(self, monkeypatch, capsys):
        # stdout holds one CSV, which has no power column
        def no_work(config):
            raise AssertionError("the sweep ran")
        monkeypatch.setattr(harness, "run_power_allocation_sweep", no_work)
        code = cli.main(["power-sweep", "--power-db", "10,20", "--q-grid", "0.5,0.7"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")

    def test_power_sweep_out_help_names_the_stem(self, capsys):
        # power-sweep writes one file per power, named from --out
        with pytest.raises(SystemExit) as info:
            cli.main(["power-sweep", "--help"])
        assert info.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        assert "--out STEM output file stem: one STEM_P<power>dB.EXT per power" in text
        assert "output CSV path" not in text

    def test_power_sweep_honours_power_db(self, capsys):
        code = cli.main(["power-sweep", "--power-db", "10", "--q-grid", "0.5,0.7"])
        assert code == 0
        lines = [ln for ln in capsys.readouterr().err.splitlines()
                 if ln.startswith("P = ")]
        assert len(lines) == 1 and lines[0].startswith("P = 10.00 dB")

    @pytest.mark.parametrize("powers", ["15.001,15.004", "15,15"])
    def test_power_sweep_rejects_powers_equal_at_two_decimals(
            self, powers, tmp_path, capsys):
        # their tables would share one file name and one key
        code = cli.main(["power-sweep", "--power-db", powers, "--q-grid", "0.5,0.7",
                         "--out", str(tmp_path / "s.csv")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert list(tmp_path.iterdir()) == []

    SUBCOMMAND_FLAGS = {
        "ber-curve": {"--config", "--mod", "--power-db", "--q", "--amp", "--doppler",
                      "--seed", "--workers", "--min-errors", "--max-symbols",
                      "--analytical-only", "--out", "--strict"},
        "power-sweep": {"--config", "--mod", "--power-db", "--amp", "--q-grid", "--out"},
        "outage": {"--config", "--power-db", "--q", "--amp", "--seed", "--gamma-db",
                   "--mc-draws", "--out"},
        "validate": {"--seed", "--out"},
    }

    def test_each_subcommand_takes_only_the_flags_it_reads(self):
        parser = cli.build_parser()
        subs = next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction))
        got = {name: {opt for action in sub._actions for opt in action.option_strings}
               - {"-h", "--help"} for name, sub in subs.choices.items()}
        assert got == self.SUBCOMMAND_FLAGS

    @pytest.mark.parametrize("argv", [
        ["power-sweep", "--seed", "3"],
        # not read as an abbreviation of --q-grid
        ["power-sweep", "--q", "0.9"],
        ["outage", "--mod", "dqpsk"],
    ])
    def test_flag_the_subcommand_does_not_take_is_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main(argv)
        assert info.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: ") and "unrecognized arguments" in err

    def test_benchmark_jobs_parse(self, tmp_path):
        # the benchmark's CLI calls, read from its own script
        path = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"
        spec = importlib.util.spec_from_file_location("perfbench_run", path)
        bench = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(bench)
        for workload in bench.WORKLOADS:
            for argv in bench.jobs_for(workload, 1, tmp_path / workload):
                args = cli.build_parser().parse_args(argv)
                cli._build_config(args)

    def test_benchmark_child_reads_what_exists(self):
        # the traced benchmark run wraps these functions by name and reads
        # these attributes, from its own script
        path = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"
        spec = importlib.util.spec_from_file_location("perfbench_child", path)
        child = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(child)
        for _, module_name, name in child.TRACED:
            assert callable(getattr(importlib.import_module(module_name), name))
        config = ExperimentConfig()
        assert (config.min_bit_errors, config.min_error_trials) == (200, 48)
        assert dafsc.FadingConfig().num_sinusoids == 16
        assert isinstance(dafsc.BACKEND, str) and isinstance(dafsc.HAS_NUMBA, bool)

    def test_import_leaves_scipy_and_reference_tables_unloaded(self):
        # scipy.integrate alone takes longer to import than the whole package
        src = Path(__file__).resolve().parents[1] / "src"
        probe = ("import sys, dafsc, dafsc.cli; print(sorted(m for m in "
                 "('scipy', 'dafsc.validate', 'json') if m in sys.modules))")
        result = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                                text=True, check=True,
                                env={**os.environ, "PYTHONPATH": str(src)})
        assert result.stdout.strip() == "[]"

    @staticmethod
    def _fresh_cli_runs(tmp_path, *argvs):
        """Exit codes of ``cli.main`` over ``argvs`` in a fresh interpreter,
        the numpy.random modules that importing dafsc and those runs loaded
        beyond a bare ``import numpy``, and whether they loaded the
        validation suite or scipy."""
        src = Path(__file__).resolve().parents[1] / "src"
        probe = ("import json, sys, numpy\n"
                 "bare = set(sys.modules)\n"
                 "import dafsc, dafsc.cli\n"
                 "codes = [dafsc.cli.main(argv) for argv in json.loads(sys.argv[1])]\n"
                 "print(json.dumps([codes, sorted(m for m in set(sys.modules) - bare\n"
                 "                  if m.split('.')[:2] == ['numpy', 'random']),\n"
                 "                  sorted(m for m in ('dafsc.validate', 'scipy')\n"
                 "                         if m in sys.modules)]))")
        result = subprocess.run(
            [sys.executable, "-c", probe, json.dumps(argvs)], capture_output=True,
            text=True, check=True, cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(src)})
        return json.loads(result.stdout)

    def test_analytic_subcommands_leave_numpy_random_unloaded(self, tmp_path):
        # the closed forms draw nothing, so they need not pay for numpy.random,
        # and only validate needs the validation suite
        codes, loaded, suite = self._fresh_cli_runs(
            tmp_path,
            ["power-sweep", "--mod", "dqpsk", "--power-db", "10,20",
             "--q-grid", "0.3,0.7", "--out", "sweep.csv"],
            ["outage", "--power-db", "10,20", "--gamma-db", "0,5",
             "--mc-draws", "0", "--out", "outage.csv"],
            ["ber-curve", "--power-db", "10,20", "--analytical-only", "--out", "ber.csv"])
        assert codes == [0, 0, 0]
        assert loaded == []
        assert suite == []
        assert len((tmp_path / "sweep_P20.00dB.csv").read_text().splitlines()) == 3

    def test_simulation_in_a_fresh_interpreter(self, tmp_path):
        # numpy.random loads on the first trial
        codes, _, _ = self._fresh_cli_runs(
            tmp_path, ["ber-curve", "--power-db", "10", "--max-symbols", "1000",
                       "--out", "ber.csv"])
        assert codes == [0]
        (point,) = parse_ber_csv((tmp_path / "ber.csv").read_text())
        assert point.estimate is not None and point.estimate.bits == 1000

    @pytest.mark.parametrize("argv, engine", [
        (["ber-curve", "--mod", "dqpsk", "--power-db", "20,25"], "dafsc.harness.run_ber_curve"),
        (["power-sweep", "--power-db", "10,20"], "dafsc.harness.run_power_allocation_sweep"),
        (["outage", "--power-db", "10"], "dafsc.harness.run_outage_curve"),
        (["validate"], "dafsc.validate.run_validation_suite"),
    ], ids=["ber-curve", "power-sweep", "outage", "validate"])
    def test_unusable_out_fails_before_computing(self, argv, engine, tmp_path,
                                                 monkeypatch, capsys):
        def never(*args, **kwargs):
            raise AssertionError("computed before opening --out")
        monkeypatch.setattr(engine, never)
        code = cli.main([*argv, "--out", str(tmp_path / "missing" / "x.csv")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_run_failing_after_open_leaves_out_empty(self, tmp_path, monkeypatch):
        def diverge(mod, profile):
            raise specfn.QuadratureConvergenceError(1e-3, 1e-4)
        monkeypatch.setattr(analysis, "analytical_ber", diverge)
        out = tmp_path / "x.csv"
        out.write_text("old")
        code = cli.main(["ber-curve", "--power-db", "10", "--analytical-only",
                         "--out", str(out)])
        assert code == 3
        assert out.read_text() == ""

    def test_quadrature_failure_exit_code(self, monkeypatch, capsys):
        def diverge(mod, profile):
            raise specfn.QuadratureConvergenceError(1e-3, 1e-4)
        monkeypatch.setattr(analysis, "analytical_ber", diverge)
        code = cli.main(["ber-curve", "--power-db", "10", "--analytical-only"])
        assert code == 3
        assert capsys.readouterr().err.startswith("error: quadrature did not converge")

    def test_out_of_memory_exit_code(self, capsys):
        # 10**17 float64 draws need 8e17 bytes, beyond any 57-bit address
        # space, so the allocation is refused at once
        code = cli.main(["outage", "--power-db", "10", "--gamma-db", "0",
                         "--mc-draws", str(10**17)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1

    def test_outage_command(self, tmp_path):
        out = tmp_path / "o.csv"
        code = cli.main(["outage", "--power-db", "15", "--gamma-db", "0,5",
                         "--mc-draws", "50000", "--seed", "9", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 3

    def test_outage_out_matches_stdout(self, tmp_path, capsys):
        argv = ["outage", "--power-db", "0:10:5", "--gamma-db=-5:5:2.5",
                "--mc-draws", "500", "--seed", "4"]
        assert cli.main(argv) == 0
        printed = capsys.readouterr().out
        out = tmp_path / "o.csv"
        assert cli.main(argv + ["--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert out.read_bytes() == printed.encode()
        assert len(printed.splitlines()) == 1 + 3 * 5

    def test_ber_curve_out_matches_stdout(self, tmp_path, capsys):
        argv = ["ber-curve", "--analytical-only", "--power-db", "10,20"]
        assert cli.main(argv) == 0
        printed = capsys.readouterr().out
        out = tmp_path / "c.csv"
        assert cli.main(argv + ["--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert out.read_bytes() == printed.encode()
        assert len(printed.splitlines()) == 1 + 2

    def test_validate_json_report(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = cli.main(["validate", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["passed"] and len(report["checks"]) >= 10

    def test_validate_failure_exit_code(self, tmp_path, monkeypatch):
        true_k1 = specfn.bessel_k1_scaled
        monkeypatch.setattr(specfn, "bessel_k1_scaled", lambda x: 1.01 * true_k1(x))
        out = tmp_path / "report.json"
        assert cli.main(["validate", "--out", str(out)]) == 2
        report = json.loads(out.read_text())
        assert {c["name"] for c in report["checks"] if not c["passed"]} == TAMPERED_K1_FAILS
