"""Experiment orchestration: Monte Carlo BER curves, power-allocation
sweeps, outage curves, and CSV emission.

Simulation is organized as independent trials; a trial carries a few
consecutive frames over one continuously evolving channel realization per
link.  Every trial derives its RNG streams from
(master seed, point index, trial index), so results are reproducible: its
7 streams (3 fading, 3 noise, symbols) are those of ``default_rng(c)`` for
the children c of ``trial_seed_sequence(...).spawn(7)``, bit for bit.  They
are not built that way: the children's state words are computed from the
parent's entropy pool with numpy's SeedSequence hash, and each PCG64 seeds
itself from them, at under a third of the cost of spawning.  Trials run
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

import csv
import io
import math
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cache, cached_property, lru_cache
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
class BerPoint:
    """One row of a BER curve; simulated fields are None when not run."""

    x: float
    analytical_ber: float
    simulated_ber_sc: float | None = None
    simulated_ber_mrc: float | None = None
    ci_halfwidth_sc: float | None = None
    ci_halfwidth_mrc: float | None = None
    bits_simulated: int = 0


def trial_seed_sequence(master_seed: int, point_index: int, trial_index: int):
    """The RNG root for one (point, trial) pair; collision-free by design."""
    return np.random.SeedSequence(entropy=(master_seed, point_index, trial_index))


# ---------------------------------------------------------------------------
# Trial streams.  A trial draws from the 7 children of its SeedSequence,
# ``[default_rng(c) for c in ss.spawn(7)]``.  The children's state words are
# computed here from the parent's pool with numpy's SeedSequence hash
# (constants as named in numpy/random/bit_generator.pyx), and PCG64 seeds
# itself from them as it would from each child.

_TRIAL_STREAMS = 7
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875    # hashmix (entropy mixing)
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED    # generate_state
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = np.uint32(16)
_MASK32 = (1 << 32) - 1


def _hash_const(init, mult, k):
    """The hash multiplier after k steps: init * mult**k mod 2**32."""
    return init * pow(mult, k, 1 << 32) & _MASK32


@lru_cache(maxsize=8)
def _spawn_terms(n_entropy):
    """MIX_MULT_R * hashmix(child) for the spawn-key word of each child
    (rows) and pool word (columns), twice over: the pool cycles twice to
    give generate_state's 8 words.

    A child's entropy is the parent's, zero-padded to the pool size, then
    its index, so its pool equals the parent's until that last word, which
    is hashed with the constants after 4 + 12 (pool fill and cross-mix)
    plus 4 per run-entropy word beyond the pool."""
    step = 16 + 4 * max(0, n_entropy - _POOL_SIZE)
    terms = np.empty((_TRIAL_STREAMS, 2, _POOL_SIZE), dtype=np.uint32)
    for child in range(_TRIAL_STREAMS):
        for d in range(_POOL_SIZE):
            k = step + d
            h = (child ^ _hash_const(_INIT_A, _MULT_A, k)) \
                * _hash_const(_INIT_A, _MULT_A, k + 1) & _MASK32
            terms[child, :, d] = _MIX_MULT_R * (h ^ h >> 16) & _MASK32
    terms.flags.writeable = False
    return terms


# generate_state's multipliers before and after each of its 8 steps
_STATE_XOR, _STATE_MUL = (
    np.array([_hash_const(_INIT_B, _MULT_B, k + s) for k in range(2 * _POOL_SIZE)],
             dtype=np.uint32).reshape(2, _POOL_SIZE)
    for s in (0, 1))


def _child_words(ss):
    """``[c.generate_state(4, np.uint64) for c in ss.spawn(7)]`` as a
    (7, 4) array, from the pool of ``ss`` (a SeedSequence without a spawn
    key, pool size 4, no children spawned yet)."""
    n_entropy = sum((int(e).bit_length() + 31) // 32 or 1 for e in ss.entropy)
    # child pool = mix(pool, hashmix(child)), then generate_state's hash
    w = ss.pool * _MIX_MULT_L - _spawn_terms(n_entropy)
    w ^= w >> _XSHIFT
    w ^= _STATE_XOR
    w *= _STATE_MUL
    w ^= w >> _XSHIFT
    # as numpy pairs them: little-endian 32-bit halves, native 64-bit words
    words = w.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)
    return words.reshape(_TRIAL_STREAMS, 4)


@cache
def _child_state():
    """The ``_ChildState`` class, built on the first trial: its base is
    numpy.random's, which the analytic paths never load.  Two threads that
    build it at once each get a working class; the cache keeps one."""

    class _ChildState(np.random.bit_generator.ISeedSequence):
        """A spawned child's state words, for a BitGenerator to seed from."""

        __slots__ = ("words",)

        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or dtype is not np.uint64:
                raise ValueError("only PCG64's 4 uint64 seed words are held")
            return self.words

    return _ChildState


def _trial_streams(ss):
    """Generators on the streams of ``ss.spawn(7)``'s children."""
    child_state = _child_state()
    return [np.random.Generator(np.random.PCG64(child_state(words)))
            for words in _child_words(ss)]


def _run_trial(config: ExperimentConfig, profile: PowerProfile,
               point_index: int, trial_index: int):
    mod = config.mod
    n_uses = config.frames_per_trial * (config.frame_length + 1)
    ss = trial_seed_sequence(config.seed, point_index, trial_index)
    streams = _trial_streams(ss)
    taps = [generate_fading(config.fading, n_uses, streams[i]) for i in range(3)]
    noise = [generate_awgn(streams[3 + i], n_uses) for i in range(3)]
    v_idx = streams[6].integers(0, mod.order, config.frames_per_trial * config.frame_length)
    err_sc, err_mrc = chain_error_counts(
        v_idx, *taps, *noise, profile=profile, mod=mod,
        frame_len=config.frame_length,
    )
    bits = config.frames_per_trial * config.frame_length * mod.bits_per_symbol
    return err_sc, err_mrc, bits


@dataclass(frozen=True)
class PointEstimate:
    ber_sc: float
    ber_mrc: float
    ci_sc: float
    ci_mrc: float
    bits: int
    trials: int
    reached_target: bool


def _halfwidth(errors, bits_total, per_trial_rates, n_trials):
    p = errors / bits_total
    se_binom = math.sqrt(max(p * (1.0 - p), 0.0) / bits_total)
    se_cluster = 0.0
    if n_trials > 1:
        se_cluster = float(np.std(per_trial_rates, ddof=1)) / math.sqrt(n_trials)
    return 1.96 * max(se_binom, se_cluster)


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
    errors.
    """
    trial_symbols = config.frames_per_trial * config.frame_length
    max_trials = config.max_symbols // trial_symbols
    err_sc = err_mrc = bits = 0
    occupied_sc = occupied_mrc = 0
    rates_sc = []
    rates_mrc = []
    trial = 0
    reached_target = False
    while not reached_target and trial < max_trials:
        stop = min(trial + config.batch_trials, max_trials)
        for t in range(trial, stop):
            e_sc, e_mrc, b = _run_trial(config, profile, point_index, t)
            err_sc += e_sc
            err_mrc += e_mrc
            bits += b
            occupied_sc += e_sc > 0
            occupied_mrc += e_mrc > 0
            rates_sc.append(e_sc / b)
            rates_mrc.append(e_mrc / b)
        trial = stop
        reached_target = (min(err_sc, err_mrc) >= config.min_bit_errors
                          and min(occupied_sc, occupied_mrc) >= config.min_error_trials)
    n = len(rates_sc)
    return PointEstimate(
        ber_sc=err_sc / bits,
        ber_mrc=err_mrc / bits,
        ci_sc=_halfwidth(err_sc, bits, rates_sc, n),
        ci_mrc=_halfwidth(err_mrc, bits, rates_mrc, n),
        bits=bits,
        trials=n,
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
        points.append(BerPoint(
            x=p_db,
            analytical_ber=ana,
            simulated_ber_sc=est.ber_sc,
            simulated_ber_mrc=est.ber_mrc,
            ci_halfwidth_sc=est.ci_sc,
            ci_halfwidth_mrc=est.ci_mrc,
            bits_simulated=est.bits,
        ))
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
# CSV emission.  One header row; x and other dB/q coordinates with two
# decimals, probabilities in scientific notation with six significant
# digits, blank cells for absent values.

BER_CSV_HEADER = ["x", "analytical", "sim_sc", "ci_sc", "sim_mrc", "ci_mrc", "bits"]
OUTAGE_CSV_HEADER = ["power_db", "gamma_th_db", "analytical", "mc", "ci_mc", "draws"]


def _fmt_prob(v) -> str:
    return "" if v is None else f"{v:.5e}"


@contextmanager
def _opened(path_or_file):
    """Yield a writable file object as is; open a path for writing (no
    newline translation) for the block and close it afterwards."""
    if hasattr(path_or_file, "write"):
        yield path_or_file
    else:
        with open(path_or_file, "w", newline="") as fh:
            yield fh


def write_ber_csv(path_or_file, points) -> None:
    with _opened(path_or_file) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(BER_CSV_HEADER)
        for p in points:
            writer.writerow([
                f"{p.x:.2f}",
                _fmt_prob(p.analytical_ber),
                _fmt_prob(p.simulated_ber_sc),
                _fmt_prob(p.ci_halfwidth_sc),
                _fmt_prob(p.simulated_ber_mrc),
                _fmt_prob(p.ci_halfwidth_mrc),
                str(p.bits_simulated),
            ])


def ber_csv_text(points) -> str:
    buf = io.StringIO()
    write_ber_csv(buf, points)
    return buf.getvalue()


def write_outage_csv(path_or_file, grid) -> None:
    """Write an ``OutageGrid`` as CSV, one row per cell, powers outer and
    one ``write`` per power.  Each power and each threshold is formatted
    once, by position, so -0.0 keeps its sign; no cell needs CSV quoting."""
    g_cells = [f"{g:.2f}," for g in grid.gamma_th_db]
    no_mc = [f",,,{grid.draws}\n"] * len(g_cells)
    with _opened(path_or_file) as fh:
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
    "ber_csv_text",
    "write_outage_csv",
    "BER_CSV_HEADER",
    "OUTAGE_CSV_HEADER",
]
