"""Command-line interface.

Subcommands: ``ber-curve``, ``power-sweep``, ``outage``, ``validate``.
Each takes only the flags it reads.  Values can also come from a key=value
config file via ``--config``; explicit flags override file entries.

Exit codes: 0 success, 1 usage error (including a flag the subcommand does
not take, several ``power-sweep`` powers without ``--out``, a dB value too
large to convert to linear units and an array too large to allocate), 2
validation failure, 3 budget warnings escalated by ``--strict`` or an
analytical integral that did not converge.
"""

import argparse
import json
import math
import os
import sys
from contextlib import ExitStack
from dataclasses import fields

from . import harness, validate
from .harness import ExperimentConfig
from .specfn import QuadratureConvergenceError


class _Parser(argparse.ArgumentParser):
    """Exits 1 on a usage error.  Flags are taken only spelt in full, so
    that ``power-sweep --q`` is an error, not ``--q-grid``."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


def _finite(text: str) -> float:
    if not math.isfinite(value := float(text)):
        raise ValueError(f"grid values must be finite, got {text.strip()!r}")
    return value


def parse_grid(text: str):
    """Parse a numeric list ("5,10,15") or inclusive range ("5:35:2.5")."""
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"range must be start:stop:step, got {text!r}")
        start, stop, step = (_finite(p) for p in parts)
        if step <= 0:
            raise ValueError("range step must be > 0")
        # each value from its index, so no rounding error accumulates
        count = math.floor((stop - start + 1e-9 * max(1.0, step)) / step) + 1
        if count < 1:
            raise ValueError(f"empty range {text!r}")
        return tuple(round(start + i * step, 10) for i in range(count))
    return tuple(_finite(p) for p in text.split(",") if p.strip())


_BOOL_WORDS = {"1": True, "true": True, "yes": True, "on": True,
               "0": False, "false": False, "no": False, "off": False}


def _parse_bool(text: str) -> bool:
    if text.lower() not in _BOOL_WORDS:
        raise ValueError(f"must be one of 1/true/yes/on or 0/false/no/off, got {text!r}")
    return _BOOL_WORDS[text.lower()]


# each config key's parser, from its ExperimentConfig annotation
_TYPE_PARSERS = {tuple: parse_grid, int: int, bool: _parse_bool, str: str}
_KEY_PARSERS = {f.name: _TYPE_PARSERS.get(f.type, float)
                for f in fields(ExperimentConfig)}


def load_config_file(path: str) -> dict:
    """Read ``key = value`` lines (# comments allowed) into config kwargs."""
    out = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key = value")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in _KEY_PARSERS:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                out[key] = _KEY_PARSERS[key](value)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {key}: {exc}") from None
    return out


# add_argument keywords of the shared flags.  A flag that sets a config key
# has that key as its dest (and so as its metavar in --help); a grid flag
# keeps its text for _build_config to parse, so a bad grid reads "error: …".
_FLAGS = {
    "--config": dict(help="key=value config file; flags override it"),
    "--mod": dict(dest="modulation", choices=["dbpsk", "dqpsk"], help="modulation"),
    "--power-db": dict(help="total power grid, list or start:stop:step (dB)"),
    "--q": dict(type=float, help="power allocation fraction for the source"),
    "--amp": dict(dest="amplification", type=float,
                  help="override the relay amplification factor"),
    "--doppler": dict(dest="normalized_doppler", type=float,
                      help="normalized Doppler (fd*Ts)"),
    "--seed": dict(type=int, help="master RNG seed"),
    "--workers": dict(type=int,
                      help="accepted for compatibility (>= 1); trials run on one thread"),
    "--min-errors": dict(dest="min_bit_errors", type=int, help="bit-error target per point"),
    "--max-symbols": dict(type=int, help="symbol budget per point"),
    "--analytical-only": dict(action="store_true", default=None,
                              help="skip simulation, emit analytical values only"),
    "--out": dict(help="output CSV path (default: stdout)"),
    "--strict": dict(action="store_true",
                     help="exit 3 if any point missed its error target"),
}


def _add_flags(sub, *options):
    for option in options:
        sub.add_argument(option, **_FLAGS[option])


def build_parser() -> _Parser:
    parser = _Parser(prog="dafsc", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    subs = parser.add_subparsers(dest="command", required=True)

    ber = subs.add_parser("ber-curve", help="BER vs total power")
    _add_flags(ber, *_FLAGS)

    sweep = subs.add_parser("power-sweep", help="analytical BER vs allocation q")
    _add_flags(sweep, "--config", "--mod", "--amp")
    sweep.add_argument("--out", metavar="STEM", help="output file stem: one "
                       "STEM_P<power>dB.EXT per power (stdout only for a single power)")
    sweep.add_argument("--power-db", dest="sweep_power_db",
                       help="powers swept, list or start:stop:step (dB); one table per power")
    sweep.add_argument("--q-grid", help="q grid, list or start:stop:step")

    outage = subs.add_parser("outage", help="outage probability vs threshold")
    _add_flags(outage, "--config", "--power-db", "--q", "--amp", "--seed", "--out")
    outage.add_argument("--gamma-db", default="0:20:2",
                        help="SNR threshold grid in dB (default 0:20:2)")
    outage.add_argument("--mc-draws", type=int, default=0,
                        help="Monte Carlo draws per power (0 disables the check column)")

    val = subs.add_parser("validate", help="run the oracle validation suite")
    val.add_argument("--seed", type=int, help="seed for the statistical checks")
    val.add_argument("--out", help="write the JSON report here (default: stdout)")
    return parser


def _build_config(args) -> ExperimentConfig:
    """The config file's settings, overridden by every config flag the
    subcommand declared and the command line gave."""
    kwargs = load_config_file(args.config) if args.config else {}
    for key, value in vars(args).items():
        if key in _KEY_PARSERS and value is not None:
            kwargs[key] = parse_grid(value) if _KEY_PARSERS[key] is parse_grid else value
    return ExperimentConfig(**kwargs)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # every output is opened before the first computation, so a bad
        # --out fails at once; a run that fails later leaves it empty
        with ExitStack() as outputs:
            def output(path):
                return outputs.enter_context(open(path, "w", newline="")) if path else sys.stdout

            if args.command == "validate":
                out = output(args.out)
                report = validate.run_validation_suite(
                    seed=args.seed if args.seed is not None else harness.DEFAULT_SEED)
                out.write(json.dumps(report, indent=2) + "\n")
                for check in report["checks"]:
                    status = "PASS" if check["passed"] else "FAIL"
                    print(f"{status} {check['name']}: {check['observed']:.3e} "
                          f"({check['bound']})", file=sys.stderr)
                return 0 if report["passed"] else 2

            config = _build_config(args)

            if args.command == "ber-curve":
                out = output(args.out)
                points, warnings = harness.run_ber_curve(config)
                harness.write_ber_csv(out, points)
                for w in warnings:
                    print(f"warning: {w}", file=sys.stderr)
                if warnings and args.strict:
                    return 3
                return 0

            if args.command == "power-sweep":
                # the tables are keyed, and their files named, by power;
                # stdout holds one CSV, so one table
                labels = {f"{p_db:.2f}" for p_db in config.sweep_power_db}
                if len(labels) < len(config.sweep_power_db):
                    raise ValueError("sweep powers must differ at two decimals, "
                                     f"got {config.sweep_power_db}")
                if len(labels) > 1 and not args.out:
                    raise ValueError("several sweep powers need --out "
                                     "(one file per power)")
                stem, ext = os.path.splitext(args.out or "")
                outs = {p_db: output(args.out and f"{stem}_P{p_db:.2f}dB{ext}")
                        for p_db in config.sweep_power_db}
                tables, argmin_q = harness.run_power_allocation_sweep(config)
                for p_db, rows in tables.items():
                    harness.write_ber_csv(outs[p_db], rows)
                for p_db, q_best in argmin_q.items():
                    print(f"P = {p_db:.2f} dB: analytical BER minimized at q = {q_best:.2f}",
                          file=sys.stderr)
                return 0

            if args.command == "outage":
                gamma_th_db = parse_grid(args.gamma_db)
                out = output(args.out)
                grid = harness.run_outage_curve(config, gamma_th_db, mc_draws=args.mc_draws)
                harness.write_outage_csv(out, grid)
                return 0
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OverflowError:
        print("error: a dB value is too large for a float", file=sys.stderr)
        return 1
    except QuadratureConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    raise AssertionError("unreachable")


if __name__ == "__main__":
    raise SystemExit(main())
