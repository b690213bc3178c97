"""Command-line interface.

Subcommands: ``ber-curve``, ``power-sweep``, ``outage``, ``validate``.
Values can also come from a key=value config file via ``--config``;
explicit flags override file entries.

Exit codes: 0 success, 1 usage error (including a dB value too large to
convert to linear units), 2 validation failure, 3 budget warnings
escalated by ``--strict`` or an analytical integral that did not converge.
"""

import argparse
import json
import math
import os
import sys
from dataclasses import fields

from . import harness, validate
from .harness import ExperimentConfig
from .specfn import QuadratureConvergenceError


class _Parser(argparse.ArgumentParser):
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


def _add_common(sub):
    sub.add_argument("--config", help="key=value config file; flags override it")
    sub.add_argument("--mod", choices=["dbpsk", "dqpsk"], help="modulation")
    sub.add_argument("--power-db", help="total power grid, list or start:stop:step (dB); "
                     "for power-sweep, the powers swept")
    sub.add_argument("--q", type=float, help="power allocation fraction for the source")
    sub.add_argument("--amp", type=float, help="override the relay amplification factor")
    sub.add_argument("--doppler", type=float, help="normalized Doppler (fd*Ts)")
    sub.add_argument("--seed", type=int, help="master RNG seed")
    sub.add_argument("--workers", type=int,
                     help="accepted for compatibility (>= 1); trials run on one thread")
    sub.add_argument("--min-errors", type=int, help="bit-error target per point")
    sub.add_argument("--max-symbols", type=int, help="symbol budget per point")
    sub.add_argument("--analytical-only", action="store_true", default=None,
                     help="skip simulation, emit analytical values only")
    sub.add_argument("--out", help="output CSV path (default: stdout)")
    sub.add_argument("--strict", action="store_true",
                     help="exit 3 if any point missed its error target")


def build_parser() -> _Parser:
    parser = _Parser(prog="dafsc", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    subs = parser.add_subparsers(dest="command", required=True)

    ber = subs.add_parser("ber-curve", parents=[], help="BER vs total power")
    _add_common(ber)

    sweep = subs.add_parser("power-sweep", help="analytical BER vs allocation q")
    _add_common(sweep)
    sweep.add_argument("--q-grid", help="q grid, list or start:stop:step")

    outage = subs.add_parser("outage", help="outage probability vs threshold")
    _add_common(outage)
    outage.add_argument("--gamma-db", default="0:20:2",
                        help="SNR threshold grid in dB (default 0:20:2)")
    outage.add_argument("--mc-draws", type=int, default=0,
                        help="Monte Carlo draws per point (0 disables the check column)")

    val = subs.add_parser("validate", help="run the oracle validation suite")
    val.add_argument("--seed", type=int, help="seed for the statistical checks")
    val.add_argument("--out", help="write the JSON report here (default: stdout)")
    return parser


def _build_config(args) -> ExperimentConfig:
    kwargs = {}
    if args.config:
        kwargs.update(load_config_file(args.config))
    overrides = {
        "modulation": args.mod,
        "q": args.q,
        "amplification": args.amp,
        "normalized_doppler": args.doppler,
        "seed": args.seed,
        "workers": args.workers,
        "min_bit_errors": args.min_errors,
        "max_symbols": args.max_symbols,
        "analytical_only": args.analytical_only,
    }
    if args.power_db is not None:
        key = "sweep_power_db" if args.command == "power-sweep" else "power_db"
        overrides[key] = parse_grid(args.power_db)
    if getattr(args, "q_grid", None) is not None:
        overrides["q_grid"] = parse_grid(args.q_grid)
    kwargs.update({k: v for k, v in overrides.items() if v is not None})
    return ExperimentConfig(**kwargs)


def _emit(text: str, out_path):
    if out_path:
        with open(out_path, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "validate":
            report = validate.run_validation_suite(
                seed=args.seed if args.seed is not None else harness.DEFAULT_SEED)
            _emit(json.dumps(report, indent=2) + "\n", args.out)
            for check in report["checks"]:
                status = "PASS" if check["passed"] else "FAIL"
                print(f"{status} {check['name']}: {check['observed']:.3e} "
                      f"({check['bound']})", file=sys.stderr)
            return 0 if report["passed"] else 2

        config = _build_config(args)

        if args.command == "ber-curve":
            points, warnings = harness.run_ber_curve(config)
            _emit(harness.ber_csv_text(points), args.out)
            for w in warnings:
                print(f"warning: {w}", file=sys.stderr)
            if warnings and args.strict:
                return 3
            return 0

        if args.command == "power-sweep":
            tables, argmin_q = harness.run_power_allocation_sweep(config)
            chunks = []
            for p_db, rows in tables.items():
                if args.out:
                    stem, ext = os.path.splitext(args.out)
                    harness.write_ber_csv(f"{stem}_P{p_db:.2f}dB{ext}", rows)
                else:
                    chunks.append(harness.ber_csv_text(rows))
            if chunks:
                sys.stdout.write("".join(chunks))
            for p_db, q_best in argmin_q.items():
                print(f"P = {p_db:.2f} dB: analytical BER minimized at q = {q_best:.2f}",
                      file=sys.stderr)
            return 0

        if args.command == "outage":
            grid = harness.run_outage_curve(
                config, parse_grid(args.gamma_db), mc_draws=args.mc_draws)
            harness.write_outage_csv(args.out or sys.stdout, grid)
            return 0
    except (ValueError, OSError) as exc:
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
