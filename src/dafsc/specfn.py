"""Special functions and deterministic quadrature for the analytical engine.

Provides the exponentially scaled exponential integral exp(x) E1(x) and
modified Bessel function exp(x) K1(x), the complement 1 - x K1(x), a
periodic trapezoid integrator over [-pi, pi) for the analytic periodic
integrands of the BER engine, and a deterministic adaptive Gauss-Legendre
integrator for general integrands on [-pi, pi].
The scaled forms are the ones the engine needs: the BER integrand pairs E1
with its inverse exponential, and the outage closed form reads K1 only
through 1 - x K1(x).
Both integrators work to one fixed tolerance, relative 1e-10 or absolute
1e-14, within a fixed budget.

The special functions are array code on numpy: each call evaluates its
whole argument array (masked series and continued-fraction or quadrature
branches, an empty branch skipped), keeps the shape of the input, and
returns a float for a scalar argument.
"""

import functools
import math

import numpy as np

_EULER_GAMMA = 0.5772156649015328606

# Series / continued-fraction split of E1.  Above x = 2 a backward
# continued fraction of depth min(60, 4 + 150/x) is exact to the last ulp
# (at depth 60 the error is below 1e-16 from x = 1.5 on); below it the
# alternating series loses at most ~30 ulp to cancellation.
_E1_SPLIT = 2.0
_E1_CF_MAX_DEPTH = 60

# Power-series coefficients, index k standing for x^(k+1) (E1) or q^k (K1).
_K = np.arange(40)
_FACT = np.cumprod(np.concatenate(([1.0], np.arange(1.0, 42.0))))  # 0! .. 41!
# E1(x) = -gamma - ln x - x * sum_k _E1_COEFFS[k] x^k,  (-1)^(k+1)/((k+1)(k+1)!)
_E1_COEFFS = (-1.0) ** (_K + 1) / ((_K + 1) * _FACT[_K + 1])
# K1 ascending series in q = x^2/4: sum_k q^k/(k!(k+1)!) and the same
# weighted by psi(k+1) + psi(k+2)
_K1_I1_COEFFS = 1.0 / (_FACT[_K] * _FACT[_K + 1])
_K1_PSI = -2.0 * _EULER_GAMMA + 1.0 + np.concatenate(
    ([0.0], np.cumsum(1.0 / _K[1:] + 1.0 / (_K[1:] + 1.0))))
_K1_LOG_COEFFS = _K1_PSI * _K1_I1_COEFFS
# Reach of each term: E1 terms below 1e-19 (1e-17 of E1 >= 0.0489 on
# (0, 2]), K1 terms below 1e-20.
_E1_REACH = (1e-19 / np.abs(_E1_COEFFS)) ** (1.0 / (_K + 1))
_K1_REACH = (1e-20 / np.maximum(np.abs(_K1_LOG_COEFFS), _K1_I1_COEFFS)) ** (
    1.0 / np.maximum(_K, 1))
# Series / trapezoid split of K1.  Below it 1 - x K1(x) comes from the
# series without its leading 1, which loses under 1 bit (see
# _k1_complement_series), and exp(x)K1(x) = exp(x)(1 - c)/x from it, where
# c <= 0.73 costs under 2 bits; above it exp(x)K1(x) is a trapezoid rule and
# 1 - x K1(x) >= 0.72, so the direct difference loses under 2 bits.
_K1_SPLIT = 2.0
# Trapezoid nodes on [0, acosh(1 + 45/x)] for exp(x)K1(x) above the split;
# 16 already reach machine precision over (2, 700] (8.8e-16 relative
# against 50-digit mpmath at 246 points, 32 nodes 7.0e-16).
_K1_NODES = 32
_K1_NODE_INDEX = np.arange(1.0, _K1_NODES + 1.0)
# Arguments per (nodes x arguments) block.  A 51 x 801 outage grid makes 36
# trapezoid calls of 5 to 782 arguments, 13,237 in all; the k1_grid layer
# of benchmarks/bench_layers.py times them at 1.80 ms (BENCH_27.json,
# 2-vCPU AMD EPYC); the node loop this replaced takes 3.7-3.9 ms over the
# same calls (best of 7 x 20 runs).  Blocks are about 3x faster up to 250
# arguments (35 us against 97 us at 250) and still ahead at 782 (88 against
# 132 us); the node loop wins from about 900 arguments on (145 against
# 158 us at 900, 0.61 against 1.08 ms at 10^4), which only a call with
# more thresholds per power reaches (10^4 thresholds at 30 dB send 1,309
# arguments).
_K1_BLOCK = 512

# Both integrators accept an estimate once its error estimate is at most
# max(_ABSOLUTE_TOLERANCE, _RELATIVE_TOLERANCE * |estimate|);
# integrate_theta gives up after _THETA_MAX_BISECTIONS bisections.
_RELATIVE_TOLERANCE = 1e-10
_ABSOLUTE_TOLERANCE = 1e-14
_THETA_MAX_BISECTIONS = 500


class QuadratureConvergenceError(RuntimeError):
    """Raised when an integrator cannot reach its tolerance within its budget.

    Carries the best available estimate and the achieved error bound.
    """

    def __init__(self, estimate: float, error_estimate: float):
        super().__init__(
            f"quadrature did not converge: estimate={estimate!r}, "
            f"error bound={error_estimate:.3e}"
        )
        self.estimate = estimate
        self.error_estimate = error_estimate


def _series_length(reach, arg_max):
    """Number of leading series coefficients to use: term k is below the
    series' tolerance for every argument below ``reach[k]`` (increasing)."""
    return max(1, int(np.searchsorted(reach, arg_max, side="right")))


def _horner(coeffs, x):
    acc = np.full_like(x, coeffs[-1])
    for c in coeffs[-2::-1]:
        acc *= x
        acc += c
    return acc


def _e1_series(x):
    # -gamma - ln x - sum_k (-x)^k/(k k!) for x <= 2
    n = _series_length(_E1_REACH, x.max())
    return -_EULER_GAMMA - np.log(x) - x * _horner(_E1_COEFFS[:n], x)


def _e1_cf_scaled(x):
    # exp(x)*E1(x) = 1/(x+1- 1/(x+3- 4/(x+5- 9/(x+7- ...)))) for x > 2,
    # evaluated backward from a depth set by the smallest argument
    depth = min(_E1_CF_MAX_DEPTH, 4 + math.ceil(150.0 / float(x.min())))
    tail = np.zeros_like(x)
    for i in range(depth, 0, -1):
        denom = x + (2.0 * i + 1.0)
        denom -= tail
        np.divide(float(i * i), denom, out=tail)
    return 1.0 / ((x + 1.0) - tail)


def _k1_complement_series(x):
    # K1 = ln(x/2) I1(x) + 1/x - (x/4) sum_k (psi(k+1)+psi(k+2)) q^k/(k!(k+1)!)
    # with q = x^2/4, for x <= 2, so 1 - x K1(x) = x (tail - ln(x/2) I1(x)):
    # the series without its leading 1.  -ln(x/2) I1(x) > 0 up to x = 2; tail
    # < 0 below x ~ 0.93 (its first coefficient is 1 - 2 gamma) but stays
    # under 4 % of -ln(x/2) I1(x) there, so the sum loses less than one bit
    q = 0.25 * x * x
    n = _series_length(_K1_REACH, q.max())
    half_x = 0.5 * x
    i1 = half_x * _horner(_K1_I1_COEFFS[:n], q)
    tail = 0.5 * half_x * _horner(_K1_LOG_COEFFS[:n], q)
    return x * (tail - np.log(half_x) * i1)


def _k1_scaled_trapezoid(x):
    # exp(x)*K1(x) = int_0^inf exp(-2x sinh^2(t/2)) cosh t dt, trapezoid on
    # [0, acosh(1 + 45/x)]: exponentially convergent for the even analytic
    # integrand.  All nodes by a block of arguments at once; the node terms
    # are added in node order, which keeps the sum bitwise a node loop's.
    # 1 + 45/x rounds to 1 from x ~ 4.05e17 on, where the rule sums to 0.0;
    # the clamp keeps that at x = inf and where -2x overflows (inf * 0 = NaN)
    x = np.minimum(x, 1e300)
    half_step = 0.5 * np.arccosh(1.0 + 45.0 / x) / _K1_NODES
    acc = np.full_like(x, 0.5)  # integrand value 1 at t = 0, half weight
    for start in range(0, x.size, _K1_BLOCK):
        cols = slice(start, start + _K1_BLOCK)
        sh2 = np.sinh(np.multiply.outer(_K1_NODE_INDEX, half_step[cols])) ** 2
        for term in np.exp(-2.0 * x[cols] * sh2) * (1.0 + 2.0 * sh2):
            acc[cols] += term
    return (2.0 * half_step) * acc


def _k1_complement_large(x):
    # x K1(x) < 1e-20 from x = 50 on: the clamp keeps 1.0 at x = inf
    x = np.minimum(x, 50.0)
    return 1.0 - x * bessel_k1_scaled(x) * np.exp(-x)


def _evaluate(x, name, split, below, above):
    """Evaluate the 1-d array kernels ``below`` where x <= split and
    ``above`` elsewhere, skipping an empty side; ``x`` must be positive.
    Keeps the shape of ``x`` and returns a float for a scalar."""
    arr = np.asarray(x, dtype=np.float64)
    flat = arr.reshape(-1)
    if flat.size and not flat.min() > 0.0:  # NaN fails it too
        raise ValueError(f"{name} requires strictly positive arguments")
    low = flat <= split
    if not flat.size:
        out = np.empty(0)
    elif low.all():
        out = below(flat)
    elif not low.any():
        out = above(flat)
    else:
        out = np.empty_like(flat)
        out[low] = below(flat[low])
        out[~low] = above(flat[~low])
    out = out.reshape(arr.shape)
    return float(out) if arr.ndim == 0 else out


def scaled_e1(x):
    """Exponentially scaled exponential integral exp(x) * E1(x), x > 0.

    The convergent series for x <= 2, a continued fraction above; relative
    error a few ulp across [1e-12, 700].  Never overflows; for large x it
    behaves like 1/(x+1).  This is the form used inside the bit-error-rate
    integrand, where the raw product would pair a huge E1 with a unit-sized
    exponential.
    """
    return _evaluate(x, "scaled_e1", _E1_SPLIT,
                     lambda v: np.exp(v) * _e1_series(v), _e1_cf_scaled)


def bessel_k1_scaled(x):
    """Exponentially scaled exp(x) * K1(x) for x > 0 (no underflow).

    exp(x) (1 - c) / x from the complement c = 1 - x K1(x) of the ascending
    series up to x = 2, exponentially convergent trapezoid quadrature of the
    cosh-kernel integral representation above.
    """
    return _evaluate(x, "bessel_k1_scaled", _K1_SPLIT,
                     lambda v: np.exp(v) * (1.0 - _k1_complement_series(v)) / v,
                     _k1_scaled_trapezoid)


def bessel_k1_complement(x):
    """1 - x*K1(x) for x > 0, to a few ulp relative also where x*K1(x)
    tends to 1 (x -> 0).

    The ascending K1 series with its leading 1 removed up to x = 2,
    1 - x e^(-x) (e^x K1(x)) above; 1.0, the limit, from x = 50 on, x = inf
    included.  Keeps the shape of ``x``; a float for a scalar.
    """
    return _evaluate(x, "bessel_k1_complement", _K1_SPLIT,
                     _k1_complement_series, _k1_complement_large)


# First and largest node counts of the periodic trapezoid rule, and the
# number of node sets it evaluates: the first two rules' 64 nodes, then one
# set per further doubling.
_PERIODIC_START_NODES = 32
_PERIODIC_MAX_NODES = 1 << 16
PERIODIC_NODE_SETS = (_PERIODIC_MAX_NODES // (2 * _PERIODIC_START_NODES)).bit_length()


@functools.lru_cache(maxsize=PERIODIC_NODE_SETS)
def periodic_nodes(k: int) -> np.ndarray:
    """Node set ``k`` of :func:`integrate_periodic`, read-only.

    Set 0 holds the 64 nodes of the first two rules: the 32 nodes
    -pi + 2 pi j / 32 of the first, then the 32 midpoints the first
    doubling adds (the rule always compares these two, so one call
    evaluates both).  Set k >= 1 holds the n = 64 * 2^(k-1) midpoints
    -pi + 2 pi (j + 1/2) / n that the next doubling adds.  Built once per
    set.
    """
    if not 0 <= k < PERIODIC_NODE_SETS:
        raise ValueError(f"node set must lie in [0, {PERIODIC_NODE_SETS})")
    n = _PERIODIC_START_NODES << k
    offsets = np.arange(n, dtype=np.float64) + 0.5
    if k == 0:
        offsets = np.concatenate((offsets - 0.5, offsets))
    nodes = -math.pi + (2.0 * math.pi / n) * offsets
    nodes.flags.writeable = False
    return nodes


def integrate_periodic(f) -> float:
    """Integrate a 2pi-periodic ``f`` over [-pi, pi) by the trapezoid rule.

    ``f`` must be vectorized; it is called with the read-only node arrays
    of :func:`periodic_nodes`.  For a periodic integrand analytic in a strip
    around the real axis the rule converges geometrically (Trefethen and
    Weideman, SIAM Review 56(3), 2014).  Nodes are nested: the first call
    evaluates ``f`` on the 32-node rule and the midpoints of its first
    doubling, each later call only at the new midpoints, and the error
    estimate is the difference from the rule on the previous (half) node
    set.  Nodes double, from 32, until the estimate meets the relative
    tolerance 1e-10 or the absolute tolerance 1e-14.  Two rules agree
    falsely on Fourier content they both alias, so the integrand's Fourier
    coefficients should decay geometrically, as those of the BER integrand
    do.

    Raises :class:`QuadratureConvergenceError` (carrying the best
    estimate and its error bound) if 65,536 nodes do not meet them.
    """
    return integrate_periodic_sets(lambda k: f(periodic_nodes(k)))


def integrate_periodic_sets(values) -> float:
    """:func:`integrate_periodic` for an integrand given per node set.

    ``values(k)`` returns the integrand on ``periodic_nodes(k)``, so a
    caller can tabulate what depends only on the nodes once per set.
    """
    n = _PERIODIC_START_NODES
    step = 2.0 * math.pi / n
    first = values(0)
    total = float(np.sum(first[:n]))
    estimate = step * total
    error = math.inf
    for k in range(PERIODIC_NODE_SETS):  # one doubling per set, to 65,536 nodes
        total += float(np.sum(first[n:] if k == 0 else values(k)))
        n *= 2
        step *= 0.5
        previous, estimate = estimate, step * total
        error = abs(estimate - previous)
        if error <= max(_ABSOLUTE_TOLERANCE, _RELATIVE_TOLERANCE * abs(estimate)):
            return estimate
    raise QuadratureConvergenceError(estimate, error)


@functools.cache
def _gauss_legendre():
    # built on first use: numpy.polynomial costs ~2 ms of the package import,
    # and only integrate_theta needs it
    return np.polynomial.legendre.leggauss(10), np.polynomial.legendre.leggauss(21)


def _panel(f, a, b):
    (lo_nodes, lo_weights), (hi_nodes, hi_weights) = _gauss_legendre()
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    coarse = half * float(np.dot(lo_weights, f(mid + half * lo_nodes)))
    fine = half * float(np.dot(hi_weights, f(mid + half * hi_nodes)))
    return fine, abs(fine - coarse)


def integrate_theta(f) -> float:
    """Integrate ``f`` over [-pi, pi] by deterministic adaptive bisection.

    ``f`` must be vectorized: given an ndarray of angles it returns the
    ndarray of integrand values.  Each panel is estimated with a nested
    10/21-point Gauss-Legendre pair; the panel with the largest error
    estimate is bisected until the summed error estimate meets the
    relative tolerance 1e-10 or the absolute tolerance 1e-14.  The
    subdivision sequence depends only on ``f``, so results are
    reproducible bit-for-bit.  Unlike :func:`integrate_periodic` it needs
    neither periodicity nor smoothness.

    Raises :class:`QuadratureConvergenceError` (carrying the best
    estimate and its error bound) if 500 bisections do not meet them.
    """
    values = [_panel(f, -math.pi, math.pi)]
    bounds = [(-math.pi, math.pi)]
    while True:
        total = 0.0
        err = 0.0
        for v, e in values:
            total += v
            err += e
        if err <= max(_ABSOLUTE_TOLERANCE, _RELATIVE_TOLERANCE * abs(total)):
            return total
        if len(values) > _THETA_MAX_BISECTIONS:  # one panel more per bisection
            raise QuadratureConvergenceError(total, err)
        worst = max(range(len(values)), key=lambda i: values[i][1])
        a, b = bounds[worst]
        mid = 0.5 * (a + b)
        values[worst] = _panel(f, a, mid)
        bounds[worst] = (a, mid)
        values.append(_panel(f, mid, b))
        bounds.append((mid, b))


__all__ = [
    "QuadratureConvergenceError",
    "scaled_e1",
    "bessel_k1_scaled",
    "bessel_k1_complement",
    "PERIODIC_NODE_SETS",
    "periodic_nodes",
    "integrate_periodic",
    "integrate_periodic_sets",
    "integrate_theta",
]
