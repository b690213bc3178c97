"""Experiment orchestration: Monte Carlo BER curves, power-allocation
sweeps, outage curves, and CSV emission.

Simulation is organized as independent trials; a trial carries a few
consecutive frames over one continuously evolving channel realization per
link.  Every trial draws from one generator of its own,
``default_rng(trial_seed_sequence(master seed, point index, trial index))``,
so results are reproducible and no RNG state passes from one trial to the
next (see ``trial_seed_sequence`` for the order of its draws).  Trials run
in order on the calling thread, in batches of 32; the stop rule
(``min_bit_errors`` errors over at least 48 error-bearing trials, for both
combiners) is evaluated only at batch boundaries, which keeps the set of
executed trials deterministic, and a point the symbol budget ends first
carries a low-confidence warning.  ``ExperimentConfig.workers`` is
accepted and validated but does not change how trials run: a trial is
mostly short numpy calls that hold the interpreter lock, and a thread pool
over trials measured slower than one thread at every worker count.

Both combiners are evaluated on identical channel/noise realizations in a
single pass (paired comparison), so their difference has far lower
variance than independent runs would give.

Confidence half-widths are 1.96 times the larger of the binomial standard
error and the between-trial (cluster) standard error; in slow fading the
errors arrive in bursts, so the binomial term alone would understate the
uncertainty badly.
"""

import math
from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar

import numpy as np

from . import analysis
from .fading import FadingConfig, generate_awgn, generate_fading
from .phy import ModulationParams, PowerProfile, chain_error_counts

DEFAULT_POWER_GRID_DB = tuple(float(x) / 4.0 for x in range(20, 141, 10))  # 5:35:2.5
DEFAULT_Q_GRID = tuple(round(0.05 * i, 2) for i in range(1, 20))  # 0.05:0.95:0.05
DEFAULT_SWEEP_POWERS_DB = (15.0, 20.0, 25.0)
DEFAULT_SEED = 20260811


@dataclass(frozen=True)
class ExperimentConfig:
    """Settings for one experiment run (dB on the outside, linear inside)."""

    # the stop rule's constants (see simulate_point), not settings
    batch_trials: ClassVar[int] = 32
    min_error_trials: ClassVar[int] = 48

    modulation: str = "dbpsk"
    power_db: tuple = DEFAULT_POWER_GRID_DB
    q: float = 0.7
    q_grid: tuple = DEFAULT_Q_GRID
    sweep_power_db: tuple = DEFAULT_SWEEP_POWERS_DB
    amplification: float | None = None
    normalized_doppler: float = 0.001
    frame_length: int = 500
    frames_per_trial: int = 2
    min_bit_errors: int = 200
    max_symbols: int = 20_000_000
    seed: int = DEFAULT_SEED
    workers: int = 1
    analytical_only: bool = False

    def __post_init__(self):
        self.mod, self.fading  # build both: each raises on a bad setting
        if not self.power_db or not self.q_grid or not self.sweep_power_db:
            raise ValueError("power and q grids must be nonempty")
        if not (0.0 < self.q < 1.0):
            raise ValueError("q must lie in (0, 1)")
        if any(not (0.0 < q < 1.0) for q in self.q_grid):
            raise ValueError("q_grid values must lie in (0, 1)")
        if self.min_bit_errors < 100:
            raise ValueError("min_bit_errors must be >= 100")
        if self.frame_length < 2:
            raise ValueError("frame_length must be >= 2")
        if self.frames_per_trial < 1:
            raise ValueError("frames_per_trial must be >= 1")
        if self.max_symbols < self.frame_length * self.frames_per_trial:
            raise ValueError("max_symbols smaller than a single trial")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")

    # built once per config: every trial reads them
    @cached_property
    def mod(self) -> ModulationParams:
        return ModulationParams.from_name(self.modulation)

    @cached_property
    def fading(self) -> FadingConfig:
        return FadingConfig(self.normalized_doppler)

    def profile(self, power_db: float, q: float | None = None) -> PowerProfile:
        return PowerProfile.from_db(power_db, self.q if q is None else q,
                                    self.amplification)


@dataclass(frozen=True)
class PointEstimate:
    """One point's paired SC / semi-MRC Monte Carlo result (see simulate_point)."""

    ber_sc: float
    ber_mrc: float
    ci_sc: float
    ci_mrc: float
    bits: int
    trials: int
    reached_target: bool


@dataclass(frozen=True)
class BerPoint:
    """One row of a BER curve; ``estimate`` is None when not simulated."""

    x: float
    analytical_ber: float
    estimate: PointEstimate | None = None


def trial_seed_sequence(master_seed: int, point_index: int, trial_index: int):
    """The RNG root for one (point, trial) pair; collision-free by design.

    A trial seeds one generator from it and draws, in this order: the
    fading taps of the sd, sr and rd links, then their noise in the same
    link order, then the transmitted symbol indices.  That order is part of
    the contract: every fixed-seed output depends on it."""
    return np.random.SeedSequence(entropy=(master_seed, point_index, trial_index))


def _run_trial(config: ExperimentConfig, profile: PowerProfile,
               point_index: int, trial_index: int):
    mod = config.mod
    n_uses = config.frames_per_trial * (config.frame_length + 1)
    rng = np.random.default_rng(trial_seed_sequence(config.seed, point_index, trial_index))
    taps = [generate_fading(config.fading, n_uses, rng) for _ in range(3)]
    noise = [generate_awgn(rng, n_uses) for _ in range(3)]
    v_idx = rng.integers(0, mod.order, config.frames_per_trial * config.frame_length)
    return chain_error_counts(
        v_idx, *taps, *noise, profile=profile, mod=mod,
        frame_len=config.frame_length,
    )


def _estimate(errors, trial_bits):
    """One combiner's BER and 95 % half-width from its per-trial bit errors."""
    n = errors.size
    bits = n * trial_bits
    p = int(errors.sum()) / bits
    se_binom = math.sqrt(p * (1.0 - p) / bits)
    se_cluster = 0.0
    if n > 1:
        se_cluster = float(np.std(errors / trial_bits, ddof=1)) / math.sqrt(n)
    return p, 1.96 * max(se_binom, se_cluster)


def simulate_point(config: ExperimentConfig, profile: PowerProfile,
                   point_index: int) -> PointEstimate:
    """Paired SC / semi-MRC Monte Carlo at one operating point.

    Runs deterministic batches of ``batch_trials`` trials until both
    combiners have accumulated ``min_bit_errors`` across at least
    ``min_error_trials`` error-bearing trials each (``reached_target``), or
    until the symbol budget is exhausted: at most ``max_symbols //
    trial_symbols`` whole trials run.  The occupancy floor matters in slow
    fading: errors arrive in bursts, and the between-trial standard error
    is only trustworthy once enough independent trials have contributed
    errors.  Every estimate derives from one record, the (trials x 2)
    array of each trial's (SC, semi-MRC) bit errors.
    """
    trial_symbols = config.frames_per_trial * config.frame_length
    trial_bits = trial_symbols * config.mod.bits_per_symbol
    max_trials = config.max_symbols // trial_symbols
    batches = []
    total = np.zeros(2, dtype=np.int64)
    occupied = np.zeros(2, dtype=np.int64)
    trial = 0
    reached_target = False
    while not reached_target and trial < max_trials:
        stop = min(trial + config.batch_trials, max_trials)
        batch = np.array([_run_trial(config, profile, point_index, t)
                          for t in range(trial, stop)], dtype=np.int64)
        batches.append(batch)
        total += batch.sum(axis=0)
        occupied += np.count_nonzero(batch, axis=0)
        trial = stop
        reached_target = bool(total.min() >= config.min_bit_errors
                              and occupied.min() >= config.min_error_trials)
    errors = np.concatenate(batches)
    ber_sc, ci_sc = _estimate(errors[:, 0], trial_bits)
    ber_mrc, ci_mrc = _estimate(errors[:, 1], trial_bits)
    return PointEstimate(
        ber_sc=ber_sc,
        ber_mrc=ber_mrc,
        ci_sc=ci_sc,
        ci_mrc=ci_mrc,
        bits=len(errors) * trial_bits,
        trials=len(errors),
        reached_target=reached_target,
    )


def run_ber_curve(config: ExperimentConfig):
    """BER versus total power for both combiners plus the exact curve.

    Returns (points, warnings); a warning is recorded (not raised) for any
    point whose stop rule was not met within the symbol budget.
    """
    mod = config.mod
    points = []
    warnings = []
    for index, p_db in enumerate(config.power_db):
        profile = config.profile(p_db)
        ana = analysis.analytical_ber(mod, profile)
        if config.analytical_only:
            points.append(BerPoint(x=p_db, analytical_ber=ana))
            continue
        est = simulate_point(config, profile, index)
        if not est.reached_target:
            warnings.append(
                f"point {p_db:.2f} dB: {config.max_symbols} symbol budget hit "
                f"before {config.min_bit_errors} errors over "
                f"{config.min_error_trials} error-bearing trials (low confidence)"
            )
        points.append(BerPoint(x=p_db, analytical_ber=ana, estimate=est))
    return points, warnings


def run_power_allocation_sweep(config: ExperimentConfig):
    """Analytical BER over the q grid for each sweep power.

    Returns (tables, argmin_q) where ``tables`` maps power in dB to its
    list of BerPoints (x = q) and ``argmin_q`` maps power to the grid q
    minimizing the analytical BER.  Purely analytical, bit-reproducible.
    """
    mod = config.mod
    tables = {}
    argmin_q = {}
    for p_db in config.sweep_power_db:
        rows = [
            BerPoint(x=q, analytical_ber=analysis.analytical_ber(
                mod, config.profile(p_db, q)))
            for q in config.q_grid
        ]
        tables[p_db] = rows
        argmin_q[p_db] = rows[int(np.argmin([r.analytical_ber for r in rows]))].x
    return tables, argmin_q


@dataclass(frozen=True, eq=False)
class OutageGrid:
    """An outage curve over (power grid) x (threshold grid): row i of each
    read-only float64 array belongs to ``power_db[i]``, column j to
    ``gamma_th_db[j]``.  ``mc_estimate`` (row i: the share of one sample of
    ``draws`` SNRs at or below each threshold) and ``ci_halfwidth`` (each
    cell's binomial half-width) are None when no Monte Carlo draws were
    made.  Compared by identity, as arrays have no single truth value."""

    power_db: tuple
    gamma_th_db: tuple
    analytical: np.ndarray
    mc_estimate: np.ndarray | None = None
    ci_halfwidth: np.ndarray | None = None
    draws: int = 0


def run_outage_curve(config: ExperimentConfig, gamma_th_db, mc_draws: int = 0):
    """Outage probability over (power grid) x (threshold grid) as an
    ``OutageGrid``, the closed form in one call per power over the whole
    threshold grid.  ``mc_draws`` > 0 adds a Monte Carlo estimate: per
    power, one sample of that many combiner output SNRs, seeded by
    (config.seed, 10_000 + power index) and read at every threshold.
    """
    if mc_draws < 0:
        raise ValueError("mc_draws must be >= 0")
    if len(gamma_th_db) == 0:
        raise ValueError("the threshold grid must be nonempty")
    g_lin = np.array([10.0 ** (g_db / 10.0) for g_db in gamma_th_db])
    shape = (len(config.power_db), len(g_lin))
    analytical = np.empty(shape)
    mc = np.empty(shape) if mc_draws else None
    for i, p_db in enumerate(config.power_db):
        profile = config.profile(p_db)
        analytical[i] = analysis.outage_probability(g_lin, profile)
        if mc_draws:
            rng = np.random.default_rng((config.seed, 10_000 + i))
            sample = np.sort(analysis.draw_combiner_snr(profile, mc_draws, rng))
            mc[i] = np.searchsorted(sample, g_lin, side="right") / mc_draws
    ci = 1.96 * np.sqrt(mc * (1.0 - mc) / mc_draws) if mc_draws else None
    for column in (analytical, mc, ci):
        if column is not None:
            column.flags.writeable = False
    return OutageGrid(tuple(config.power_db), tuple(gamma_th_db),
                      analytical, mc, ci, mc_draws)


# ---------------------------------------------------------------------------
# CSV emission to an open text file.  One header row; dB/q coordinates with
# two decimals, probabilities in scientific notation with six significant
# digits, blank cells for absent values; no cell needs CSV quoting.

BER_CSV_HEADER = ["x", "analytical", "sim_sc", "ci_sc", "sim_mrc", "ci_mrc", "bits"]
OUTAGE_CSV_HEADER = ["power_db", "gamma_th_db", "analytical", "mc", "ci_mc", "draws"]


def write_ber_csv(fh, points) -> None:
    """Write ``BerPoint`` rows as CSV to the open text file ``fh``."""
    fh.write(",".join(BER_CSV_HEADER) + "\n")
    for p in points:
        e = p.estimate
        sim = ",,,,0" if e is None else (
            f"{e.ber_sc:.5e},{e.ci_sc:.5e},{e.ber_mrc:.5e},{e.ci_mrc:.5e},{e.bits}")
        fh.write(f"{p.x:.2f},{p.analytical_ber:.5e},{sim}\n")


def write_outage_csv(fh, grid) -> None:
    """Write an ``OutageGrid`` as CSV to the open text file ``fh``, one row
    per cell, powers outer and one ``write`` per power.  Each power and each
    threshold is formatted once, by position, so -0.0 keeps its sign."""
    g_cells = [f"{g:.2f}," for g in grid.gamma_th_db]
    no_mc = [f",,,{grid.draws}\n"] * len(g_cells)
    fh.write(",".join(OUTAGE_CSV_HEADER) + "\n")
    for i, p_db in enumerate(grid.power_db):
        lead = f"{p_db:.2f},"
        tails = no_mc if grid.mc_estimate is None else [
            f",{m:.5e},{c:.5e},{grid.draws}\n" for m, c in
            zip(grid.mc_estimate[i].tolist(), grid.ci_halfwidth[i].tolist())]
        fh.write("".join([f"{lead}{g}{a:.5e}{t}" for g, a, t in
                          zip(g_cells, grid.analytical[i].tolist(), tails)]))


__all__ = [
    "ExperimentConfig",
    "BerPoint",
    "OutageGrid",
    "PointEstimate",
    "DEFAULT_POWER_GRID_DB",
    "DEFAULT_Q_GRID",
    "DEFAULT_SWEEP_POWERS_DB",
    "DEFAULT_SEED",
    "trial_seed_sequence",
    "simulate_point",
    "run_ber_curve",
    "run_power_allocation_sweep",
    "run_outage_curve",
    "write_ber_csv",
    "write_outage_csv",
    "BER_CSV_HEADER",
    "OUTAGE_CSV_HEADER",
]
