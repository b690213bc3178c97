"""Special functions and deterministic quadrature for the analytical engine.

Provides the exponentially scaled exponential integral exp(x) E1(x) and
modified Bessel function exp(x) K1(x), the complement 1 - x K1(x), a fixed
128-node periodic trapezoid rule over [-pi, pi) for the analytic periodic
integrands of the BER engine, and a deterministic adaptive Gauss-Legendre
integrator for general integrands on [-pi, pi].
The scaled forms are the ones the engine needs: the BER integrand pairs E1
with its inverse exponential, and the outage closed form reads K1 only
through 1 - x K1(x).
Both integrators check their estimate against one fixed tolerance, relative
1e-10 or absolute 1e-14: the periodic rule against its own 64-node half, the
adaptive one over at most 500 bisections.

The special functions are array code on numpy: each call evaluates its
whole argument array (series and continued-fraction or quadrature
branches, one kernel for the whole call unless it straddles the split),
keeps the shape of the input, and returns a float for a scalar argument.
"""

import bisect
import functools
import math

import numpy as np

_EULER_GAMMA = 0.5772156649015328606


def _operands(values):
    # Read-only 0-d float64 arrays.  As ufunc operands they are the same
    # float64 values as Python floats, but numpy skips the conversion of a
    # Python scalar: an add to 256 doubles costs ~0.41 us with one and
    # ~0.70 us with a float (2-vCPU Xeon, numpy 2.4).
    out = [np.array(v, dtype=np.float64) for v in values]
    for a in out:
        a.flags.writeable = False
    return out


# Series / continued-fraction split of E1.  Above x = 2 a backward
# continued fraction of depth 60 is exact to the last ulp (its error is
# below 1e-16 from x = 1.5 on); below it the alternating series loses at
# most ~30 ulp to cancellation.
_E1_SPLIT = 2.0
_E1_CF_DEPTH = 60
# Level i of the fraction (i = 60 down to 1) is i^2 / (x + 2i + 1 - level
# i + 1).  The offsets 2i + 1 of every level, then the 1 of the final x + 1,
# form one read-only column: one broadcast add makes all the denominators,
# and each level is one subtract and one divide in place.
_E1_CF_OFFSETS = np.arange(2.0 * _E1_CF_DEPTH + 1.0, 0.0, -2.0)[:, None]
_E1_CF_OFFSETS.flags.writeable = False
_E1_CF_SQUARES = _operands(i * i for i in range(_E1_CF_DEPTH, 0, -1))
# Arguments per block of those (61 x block) levels: at most 2 MB, where one
# block for the whole call would hold 61 doubles an argument (0.5 GB for
# 10^6 arguments).  The exact BER's calls hold 256 arguments at most.
_E1_CF_BLOCK = 4096

# Power-series coefficients, index k standing for x^(k+1) (E1) or q^k (K1).
_K = np.arange(40)
_FACT = np.cumprod(np.concatenate(([1.0], np.arange(1.0, 42.0))))  # 0! .. 41!
# E1(x) = -gamma - ln x - x * sum_k _E1_COEFFS[k] x^k,  (-1)^(k+1)/((k+1)(k+1)!)
_E1_COEFFS = _operands((-1.0) ** (_K + 1) / ((_K + 1) * _FACT[_K + 1]))
# K1 ascending series in q = x^2/4: sum_k q^k/(k!(k+1)!) and the same
# weighted by psi(k+1) + psi(k+2)
_K1_I1_COEFFS = 1.0 / (_FACT[_K] * _FACT[_K + 1])
_K1_PSI = -2.0 * _EULER_GAMMA + 1.0 + np.concatenate(
    ([0.0], np.cumsum(1.0 / _K[1:] + 1.0 / (_K[1:] + 1.0))))
_K1_LOG_COEFFS = _K1_PSI * _K1_I1_COEFFS
# Reach of each E1 term: below 1e-19 (1e-17 of E1 >= 0.0489 on (0, 2]).
_E1_REACH = ((1e-19 / np.abs(_E1_COEFFS)) ** (1.0 / (_K + 1))).tolist()
# Terms of both K1 series: those before the first below 1e-20 at the split
# (q = 1), 13.  One length for every call keeps each value a function of its
# argument alone; a length per call saved nothing on the outage grid.
_K1_TERMS = int(np.argmax(np.maximum(np.abs(_K1_LOG_COEFFS), _K1_I1_COEFFS) < 1e-20))
# Two passes over (n,) beat one over (2, n) with (2, 1) coefficient columns,
# whose broadcast add costs more than it saves: 23 against 36 us for both
# series at 700 arguments (2-vCPU Xeon, numpy 2.4)
_K1_I1_TERMS = _operands(_K1_I1_COEFFS[:_K1_TERMS])
_K1_LOG_TERMS = _operands(_K1_LOG_COEFFS[:_K1_TERMS])
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
# Arguments per (nodes x arguments) block, which bounds the (32 x block)
# temporaries.  Blocks beat the node-by-node loop up to about 4,000
# arguments a call (BENCH_33.json); a power of the 51 x 801 outage grid
# sends at most 782.
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


def _horner(coeffs, x):
    # c[0] + x (c[1] + ... + x c[-1]) for 0-d coefficients (_operands),
    # seeded with c[-1] x: bitwise the loop acc = acc x + c from acc = c[-1],
    # without an array of that constant.  A lone c[0] is returned as it is,
    # for the caller to broadcast.
    if len(coeffs) == 1:
        return coeffs[0]
    acc = coeffs[-1] * x
    for c in coeffs[-2:0:-1]:
        acc += c
        acc *= x
    acc += coeffs[0]
    return acc


def _e1_series(x):
    # -gamma - ln x - sum_k (-x)^k/(k k!) for x <= 2, to the first term
    # below its tolerance at the call's largest argument
    n = max(1, bisect.bisect_right(_E1_REACH, x.max()))
    return -_EULER_GAMMA - np.log(x) - x * _horner(_E1_COEFFS[:n], x)


def _e1_cf_scaled(x):
    # exp(x)*E1(x) = 1/(x+1- 1/(x+3- 4/(x+5- 9/(x+7- ...)))) for x > 2,
    # evaluated backward from one depth for every argument; the deepest
    # level has no level below it to subtract
    out = np.empty_like(x)
    for start in range(0, x.size, _E1_CF_BLOCK):
        cols = slice(start, start + _E1_CF_BLOCK)
        levels = x[cols] + _E1_CF_OFFSETS
        tail = np.divide(_E1_CF_SQUARES[0], levels[0], out=levels[0])
        for square, denom in zip(_E1_CF_SQUARES[1:], levels[1:-1]):
            denom -= tail
            tail = np.divide(square, denom, out=denom)
        last = levels[-1]
        last -= tail
        np.divide(1.0, last, out=out[cols])
    return out


def _k1_complement_series(x):
    # K1 = ln(x/2) I1(x) + 1/x - (x/4) sum_k (psi(k+1)+psi(k+2)) q^k/(k!(k+1)!)
    # with q = x^2/4, for x <= 2, so 1 - x K1(x) = x (tail - ln(x/2) I1(x)):
    # the series without its leading 1.  -ln(x/2) I1(x) > 0 up to x = 2; tail
    # < 0 below x ~ 0.93 (its first coefficient is 1 - 2 gamma) but stays
    # under 4 % of -ln(x/2) I1(x) there, so the sum loses less than one bit
    q = 0.25 * x * x
    half_x = 0.5 * x
    i1 = half_x * _horner(_K1_I1_TERMS, q)
    tail = 0.5 * half_x * _horner(_K1_LOG_TERMS, q)
    return x * (tail - np.log(half_x) * i1)


def _k1_scaled_trapezoid(x):
    # exp(x)*K1(x) = int_0^inf exp(-2x sinh^2(t/2)) cosh t dt, trapezoid on
    # [0, acosh(1 + 45/x)]: exponentially convergent for the even analytic
    # integrand.  All nodes by a block of arguments at once; the node terms
    # are added in node order, which keeps the sum bitwise a node loop's.
    # The interval as 2 asinh(sqrt(22.5/x)) keeps its width where 1 + 45/x
    # rounds to 1 (x >~ 4.05e17), x times -2 sinh^2 does not overflow as -2x
    # does (x >~ 9e307), and at x = inf, step 0, the clamp keeps the terms
    # finite (inf * 0 = NaN): the rule gives 0.0, the limit.
    half_step = np.arcsinh(np.sqrt(22.5 / x)) / _K1_NODES
    x = np.minimum(x, np.finfo(np.float64).max)
    acc = np.full_like(x, 0.5)  # integrand value 1 at t = 0, half weight
    for start in range(0, x.size, _K1_BLOCK):
        cols = slice(start, start + _K1_BLOCK)
        # -2 sinh^2(k h) and exp(x (-2 sinh^2)) (1 + 2 sinh^2), each op in
        # place on one of two (nodes x block) arrays
        m2sh2 = np.multiply.outer(_K1_NODE_INDEX, half_step[cols])
        np.sinh(m2sh2, out=m2sh2)
        np.square(m2sh2, out=m2sh2)
        m2sh2 *= -2.0
        terms = np.multiply(x[cols], m2sh2)
        np.exp(terms, out=terms)
        terms *= np.subtract(1.0, m2sh2, out=m2sh2)
        block = acc[cols]
        for term in terms:
            block += term
    return (2.0 * half_step) * acc


def _k1_complement_large(x):
    # x K1(x) < 1e-20 from x = 50 on: the clamp keeps 1.0 at x = inf
    x = np.minimum(x, 50.0)
    return 1.0 - x * bessel_k1_scaled(x) * np.exp(-x)


def _evaluate(x, name, split, below, above):
    """Evaluate the 1-d array kernels ``below`` where x <= split and
    ``above`` elsewhere; ``x`` must be positive.  The call's minimum and
    maximum pick one kernel for the whole array; a mask is built only when
    the call straddles the split.  Keeps the shape of ``x`` and returns a
    float for a scalar."""
    arr = np.asarray(x, dtype=np.float64)
    flat = arr.reshape(-1)
    if not flat.size:
        out = np.empty(0)
    elif not (lowest := flat.min()) > 0.0:  # NaN fails it too
        raise ValueError(f"{name} requires strictly positive arguments")
    elif lowest > split:
        out = above(flat)
    elif flat.max() <= split:
        out = below(flat)
    else:
        low = flat <= split
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


# Nodes of the periodic trapezoid rule: the 64-node rule -pi + 2 pi j / 64,
# then its 64 midpoints, which together make the 128-node rule.
_PERIODIC_HALF = 64
PERIODIC_NODES = -math.pi + (2.0 * math.pi / _PERIODIC_HALF) * np.concatenate(
    (np.arange(_PERIODIC_HALF, dtype=np.float64),
     np.arange(_PERIODIC_HALF, dtype=np.float64) + 0.5))
PERIODIC_NODES.flags.writeable = False


def integrate_periodic(values) -> float:
    """Integrate a 2pi-periodic integrand over [-pi, pi) by the trapezoid rule.

    ``values`` holds the integrand at :data:`PERIODIC_NODES`; the result is
    the 128-node rule, and its error estimate the difference from the
    64-node rule on the first half of the nodes.  For a periodic integrand
    analytic in a strip around the real axis the rule converges
    geometrically (Trefethen and Weideman, SIAM Review 56(3), 2014): the
    BER integrand's Fourier coefficients fall like beta^n, beta = tan(pi/8)
    for DQPSK.  Two rules agree falsely on Fourier content they both alias,
    so the estimate is only as good as that decay.

    Raises :class:`QuadratureConvergenceError` (carrying the estimate and
    its error bound) if that difference exceeds the relative tolerance
    1e-10 and the absolute tolerance 1e-14.
    """
    coarse = float(values[:_PERIODIC_HALF].sum())
    total = coarse + float(values[_PERIODIC_HALF:].sum())
    estimate = (math.pi / _PERIODIC_HALF) * total
    error = abs(estimate - (2.0 * math.pi / _PERIODIC_HALF) * coarse)
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
    "PERIODIC_NODES",
    "integrate_periodic",
    "integrate_theta",
]
