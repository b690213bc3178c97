#!/usr/bin/env python3
"""Regenerate the frozen special-function reference tables.

The tables in ``dafsc/_reference_tables.py`` are produced by brute-force
oracles evaluated in arbitrary precision (mpmath):

* exponential integral: the convergent series
  E1(x) = -euler_gamma - ln(x) - sum_{k>=1} (-x)^k / (k * k!)
  summed with enough working digits that the alternating-series
  cancellation is exact; for the scaled form at large x the integral
  representation  exp(x)*E1(x) = int_0^inf exp(-u)/(x+u) du  is used.
* modified Bessel K1: the integral representation
  K1(x) = int_0^inf exp(-x*cosh t) * cosh t dt
  evaluated by high-resolution quadrature on a truncated interval whose
  tail is provably below the target precision; its complement
  1 - x*K1(x) is formed from that value at the same 60 working digits.

Every oracle value is cross-checked against mpmath's own independent
implementations before being written out; the script aborts if any
disagreement above 1e-25 (relative) is found.

Requires mpmath (not a runtime dependency of the package itself).

Usage:  python3 tools/gen_reference_tables.py > src/dafsc/_reference_tables.py
"""

import sys

import mpmath as mp
import numpy as np


def e1_series(x):
    """E1 via the alternating series, exact to the working precision."""
    # cancellation headroom: terms peak at ~exp(x) while the sum is ~exp(-x)
    mp.mp.dps = 50 + int(0.9 * float(x))
    x = mp.mpf(x)
    total = -mp.euler - mp.log(x)
    term = mp.mpf(1)
    k = 1
    while True:
        term *= -x / k
        contrib = -term / k
        total += contrib
        if abs(contrib) < mp.eps * (abs(total) + abs(term)) and k > 4:
            break
        k += 1
        if k > 100000:
            raise RuntimeError("series did not converge")
    return total


def scaled_e1_oracle(x):
    """exp(x)*E1(x): series for small x, integral representation for large."""
    if float(x) <= 50.0:
        mp.mp.dps = 60
        return mp.exp(mp.mpf(x)) * e1_series(x)
    mp.mp.dps = 40
    x = mp.mpf(x)
    return mp.quad(lambda u: mp.exp(-u) / (x + u), [0, mp.inf])


def k1_integral(x):
    """K1 via quadrature of the cosh-kernel integral representation."""
    mp.mp.dps = 60
    x = mp.mpf(x)
    # truncate where exp(-x*(cosh T - 1)) is ~1e-75 relative to the peak;
    # integrate the exp(x)-scaled kernel so quad sees O(1) magnitudes
    T = mp.acosh(1 + 175 / x)
    knee = min(3 / mp.sqrt(x), T / 2)  # gaussian-like core width ~ 1/sqrt(x)
    val = mp.quad(
        lambda t: mp.exp(-x * (mp.cosh(t) - 1)) * mp.cosh(t),
        [0, knee, T / 2, T],
        maxdegree=12,
    )
    return val * mp.exp(-x)


def crosscheck(tag, xs, oracle_vals, reference_fn, tol=mp.mpf("1e-25")):
    worst = mp.mpf(0)
    for x, v in zip(xs, oracle_vals):
        mp.mp.dps = 50
        ref = reference_fn(mp.mpf(x))
        rel = abs(v - ref) / abs(ref)
        worst = max(worst, rel)
        if rel > tol:
            raise SystemExit(f"{tag}: oracle disagrees with mpmath at x={x}: rel={rel}")
    print(f"# crosscheck {tag}: max rel diff vs mpmath = {mp.nstr(worst, 3)}", file=sys.stderr)


def fmt_array(name, values):
    lines = [f"{name} = np.array(["]
    for v in values:
        lines.append(f"    {v!r},")
    lines.append("])")
    return "\n".join(lines)


def main():
    e1_x = np.logspace(-12, np.log10(700.0), 56)
    k1_x = np.logspace(-10, np.log10(700.0), 52)

    e1_vals = [e1_series(x) for x in e1_x]
    se1_vals = [scaled_e1_oracle(x) for x in e1_x]
    k1_vals = [k1_integral(x) for x in k1_x]
    mp.mp.dps = 60
    k1c_vals = [1 - mp.mpf(x) * v for x, v in zip(k1_x, k1_vals)]

    crosscheck("E1", e1_x, e1_vals, lambda x: mp.e1(x))
    crosscheck("scaled E1", e1_x, se1_vals, lambda x: mp.exp(x) * mp.e1(x))
    crosscheck("K1", k1_x, k1_vals, lambda x: mp.besselk(1, x))
    crosscheck("1 - x K1", k1_x, k1c_vals, lambda x: 1 - x * mp.besselk(1, x))

    mp.mp.dps = 25
    out = []
    out.append('"""Frozen special-function reference values.')
    out.append("")
    out.append("Generated by tools/gen_reference_tables.py from brute-force")
    out.append("series/integral oracles evaluated in arbitrary precision.")
    out.append("Do not edit by hand; regenerate instead.")
    out.append('"""')
    out.append("")
    out.append("import numpy as np")
    out.append("")
    out.append(fmt_array("E1_X", [float(x) for x in e1_x]))
    out.append("")
    out.append(fmt_array("E1_VALUES", [float(v) for v in e1_vals]))
    out.append("")
    out.append(fmt_array("SCALED_E1_VALUES", [float(v) for v in se1_vals]))
    out.append("")
    out.append(fmt_array("K1_X", [float(x) for x in k1_x]))
    out.append("")
    out.append(fmt_array("K1_VALUES", [float(v) for v in k1_vals]))
    out.append("")
    out.append(fmt_array("K1_COMPLEMENT_VALUES", [float(v) for v in k1c_vals]))
    out.append("")
    print("\n".join(out))


if __name__ == "__main__":
    main()
