"""Special functions against their brute-force oracles, plus quadrature."""

import math

import numpy as np
import pytest

from dafsc import specfn
from dafsc.specfn import (
    PERIODIC_NODE_SETS,
    QuadratureConvergenceError,
    bessel_k1_complement,
    bessel_k1_scaled,
    integrate_periodic,
    integrate_periodic_sets,
    integrate_theta,
    periodic_nodes,
    scaled_e1,
)
from dafsc.validate import E1_X, K1_X
from oracles import mpmath_special_values

# NaN, alone and inside an array, fails every domain check
NAN_ARGUMENTS = (math.nan, np.array([1.0, math.nan]))

_EULER = 0.5772156649015328606

# arguments on both sides of the branch points, checked against 40-digit
# mpmath: E1's series / continued-fraction split and K1's series /
# trapezoid split at x = 2, and around x = 5.5, where an ascending K1
# series reaching that far loses ~1e-12 to cancellation
E1_STRADDLE = (0.9, 0.99, 1.0, 1.01, 1.1, 1.9, 1.99, 2.0, 2.01, 2.1)
K1_STRADDLE = (1.99, 2.0, 2.01, 5.0, 5.4, 5.49, 5.5, 5.51, 5.6, 6.0)
# arguments of 1 - x K1(x), down to where x K1(x) rounds to 1 and across
# the series / direct split at x = 2
K1_COMPLEMENT = (1e-12, 1e-06, 0.001, 0.1, 1.0, 1.99, 2.0, 2.01, 5.0, 20.0)
# arguments across the split at x = 2 and over (2, 5.5], where an ascending
# series would cancel: both forms must hold a few ulp on either side
K1_BOTH_FORMS = (1.5, 1.99, 2.0, 2.01, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0, 5.25, 5.49,
                 5.5, 5.51, 6.0, 8.0)


def e1_series_oracle(x: float) -> float:
    """Independent series oracle, float-exact for x <= 1."""
    total = -_EULER - math.log(x)
    term = 1.0
    for k in range(1, 80):
        term *= -x / k
        total -= term / k
    return total


class TestExpIntegral:
    # E1 itself through exp(-x) * scaled_e1(x): the scaled form runs both
    # E1 kernels, the series up to x = 2 and the continued fraction above
    def test_series_oracle_spot_values(self):
        for x in (1.0, 0.5, 1e-4, 1e-8):
            assert math.exp(-x) * scaled_e1(x) == pytest.approx(e1_series_oracle(x),
                                                                rel=1e-13)

    def test_known_value_at_one(self):
        assert math.exp(-1.0) * scaled_e1(1.0) == pytest.approx(0.21938393439552027,
                                                                rel=1e-13)

    def test_small_argument_log_dominated(self):
        assert math.exp(-1e-8) * scaled_e1(1e-8) == pytest.approx(17.843465089050833,
                                                                  rel=1e-13)

    def test_asymptotic_product(self):
        # x * e^x * E1(x) -> 1
        assert 500.0 * scaled_e1(500.0) == pytest.approx(1.0, abs=1e-2)

    def test_frozen_oracle_grid(self):
        want = mpmath_special_values(tuple(E1_X))[0]
        got = np.exp(-E1_X) * scaled_e1(E1_X)
        assert np.max(np.abs(got - want) / want) <= 1e-12

    def test_domain_error(self):
        with pytest.raises(ValueError):
            scaled_e1(0.0)
        with pytest.raises(ValueError):
            scaled_e1(-1.0)
        with pytest.raises(ValueError):
            scaled_e1(np.array([1.0, -2.0]))
        for bad in NAN_ARGUMENTS:
            with pytest.raises(ValueError, match="strictly positive"):
                scaled_e1(bad)

    def test_strictly_decreasing_positive(self):
        # (e^x E1)' = e^x E1 - 1/x < 0, and E1 itself decreases faster
        rng = np.random.default_rng(1)
        x = np.sort(10.0 ** rng.uniform(-10, 2, 200))
        vals = scaled_e1(x)
        assert np.all(vals > 0)
        assert np.all(np.diff(vals) < 0)


class TestScaledE1:
    def test_matches_product_where_safe(self):
        from scipy.special import exp1

        rng = np.random.default_rng(2)
        x = 10.0 ** rng.uniform(-10, math.log10(300.0), 100)
        direct = np.exp(x) * exp1(x)
        assert np.max(np.abs(scaled_e1(x) - direct) / direct) <= 1e-9

    def test_large_argument_no_overflow(self):
        assert scaled_e1(700.0) == pytest.approx(1.0 / 701.0, rel=1e-2)
        assert np.isfinite(scaled_e1(1e8))

    def test_value_at_one(self):
        assert scaled_e1(1.0) == pytest.approx(0.5963473623231941, rel=1e-12)

    def test_tiny_argument_equals_e1(self):
        # identity up to (e^x - 1) ~ 1e-10
        assert scaled_e1(1e-10) == pytest.approx(e1_series_oracle(1e-10), rel=1e-9)

    def test_frozen_oracle_grid(self):
        want = mpmath_special_values(tuple(E1_X))[1]
        assert np.max(np.abs(scaled_e1(E1_X) - want) / want) <= 1e-10

    def test_domain_error(self):
        with pytest.raises(ValueError):
            scaled_e1(-0.5)
        for bad in NAN_ARGUMENTS:
            with pytest.raises(ValueError, match="strictly positive"):
                scaled_e1(bad)


class TestBesselK1:
    # K1 through bessel_k1_scaled, which runs both K1 kernels: the series
    # up to x = 2 and the trapezoid rule above
    def test_small_argument_limit(self):
        # x * K1(x) -> 1
        assert 1e-8 * bessel_k1_scaled(1e-8) == pytest.approx(1.0, abs=1e-6)

    def test_known_values(self):
        assert bessel_k1_scaled(1.0) == pytest.approx(math.e * 0.6019072301972346, rel=1e-11)
        assert bessel_k1_scaled(10.0) == pytest.approx(math.exp(10.0) * 1.8648773453825585e-05,
                                                       rel=1e-10)

    def test_frozen_oracle_grid(self):
        want = mpmath_special_values(tuple(K1_X))[2] * np.exp(K1_X)
        assert np.max(np.abs(bessel_k1_scaled(K1_X) - want) / want) <= 1e-10

    def test_scaled_variant(self):
        from scipy.special import k1e

        x = np.array([0.1, 1.0, 5.0, 20.0, 700.0])
        want = k1e(x)
        got = bessel_k1_scaled(x)
        assert np.max(np.abs(got - want) / want) <= 1e-9

    def test_monotone_and_xk1_bounded(self):
        # e^x K1(x) decreases, and so does K1 itself; x K1(x) falls from 1
        rng = np.random.default_rng(3)
        x = np.sort(10.0 ** rng.uniform(-8, 2.5, 200))
        vals = bessel_k1_scaled(x)
        assert np.all(vals > 0)
        assert np.all(np.diff(vals) < 0)
        xk1 = x * np.exp(-x) * vals
        assert np.all(xk1 > 0) and np.all(xk1 <= 1.0 + 1e-12)
        assert np.all(np.diff(xk1) < 1e-12)

    def test_both_forms_match_mpmath_to_a_few_ulp(self):
        x = np.array(K1_BOTH_FORMS)
        _, _, k1, complement = mpmath_special_values(K1_BOTH_FORMS)
        got_k1 = np.exp(-x) * bessel_k1_scaled(x)
        assert np.max(np.abs(got_k1 - k1) / k1) <= 2e-15
        got_complement = bessel_k1_complement(x)
        assert np.max(np.abs(got_complement - complement) / complement) <= 2e-15

    def test_domain_error(self):
        with pytest.raises(ValueError):
            bessel_k1_scaled(0.0)
        for bad in NAN_ARGUMENTS:
            with pytest.raises(ValueError, match="strictly positive"):
                bessel_k1_scaled(bad)


def _k1_trapezoid_node_loop(x):
    # the node-by-node loop that _k1_scaled_trapezoid replaced: the same
    # terms, one array of arguments per node, added in node order
    half_step = 0.5 * np.arccosh(1.0 + 45.0 / x) / specfn._K1_NODES
    minus_two_x = -2.0 * x
    acc = np.full_like(x, 0.5)
    for j in range(1, specfn._K1_NODES + 1):
        sh2 = np.sinh(j * half_step)
        sh2 *= sh2
        acc += np.exp(minus_two_x * sh2) * (1.0 + 2.0 * sh2)
    return (2.0 * half_step) * acc


class TestK1Trapezoid:
    # arguments on both sides of the series / trapezoid split at x = 2 and
    # around 5.5, up to 700; the 2,500-argument array spans several
    # argument blocks
    X = np.concatenate((np.linspace(1.5, 2.5, 20), np.linspace(5.0, 6.0, 41),
                        np.geomspace(6.0, 700.0, 59)))
    LONG = np.random.default_rng(3).uniform(5.0, 700.0, 2_500)

    @pytest.mark.parametrize("shape", [(), (120,), (4, 30), (2_500,)],
                             ids=["0d", "1d", "2d", "blocks"])
    def test_bitwise_equal_to_node_loop(self, shape):
        if shape == ():
            args = [np.array(v) for v in self.X]
        elif shape == (2_500,):
            args = [self.LONG]
        else:
            args = [self.X.reshape(shape), self.X[::-1].reshape(shape)]
        for x in args:
            got = np.asarray(bessel_k1_scaled(x))
            assert got.shape == shape
            above = x > specfn._K1_SPLIT
            assert np.array_equal(got[above], _k1_trapezoid_node_loop(x[above]))


class TestBesselK1Complement:
    def test_matches_mpmath(self):
        x = np.array(K1_COMPLEMENT)
        want = mpmath_special_values(K1_COMPLEMENT)[3]
        got = bessel_k1_complement(x)
        assert np.max(np.abs(got - want) / want) <= 1e-13

    def test_frozen_oracle_grid(self):
        want = mpmath_special_values(tuple(K1_X))[3]
        assert np.max(np.abs(bessel_k1_complement(K1_X) - want) / want) <= 1e-13

    def test_domain_error(self):
        with pytest.raises(ValueError):
            bessel_k1_complement(0.0)
        for bad in NAN_ARGUMENTS:
            with pytest.raises(ValueError, match="strictly positive"):
                bessel_k1_complement(bad)


class TestArrayEvaluation:
    FUNCS = [scaled_e1, bessel_k1_scaled, bessel_k1_complement]

    @pytest.mark.parametrize("func", FUNCS, ids=lambda f: f.__name__)
    def test_shapes(self, func):
        x = np.array([[0.3, 1.7, 4.0], [6.5, 12.0, 40.0]])
        assert type(func(1.5)) is float
        assert type(func(np.float64(1.5))) is float
        assert func(x[0]).shape == (3,)
        got = func(x)
        assert got.shape == (2, 3)
        elementwise = np.array([[func(v) for v in row] for row in x])
        np.testing.assert_allclose(got, elementwise, rtol=1e-15)

    def test_e1_straddling_split(self):
        # one array crossing x = 1 and the series / fraction split at 2,
        # mixed with the grid, at the grid bounds
        mixed = np.concatenate((E1_STRADDLE, E1_X))
        straddle = mpmath_special_values(E1_STRADDLE)
        grid = mpmath_special_values(tuple(E1_X))
        want_e1 = np.concatenate((straddle[0], grid[0]))
        want_se1 = np.concatenate((straddle[1], grid[1]))
        se1 = scaled_e1(mixed)
        e1 = np.exp(-mixed) * se1
        assert np.max(np.abs(e1 - want_e1) / want_e1) <= 1e-12
        assert np.max(np.abs(se1 - want_se1) / want_se1) <= 1e-10

    def test_k1_straddling_split(self):
        mixed = np.concatenate((K1_STRADDLE, K1_X)).reshape(-1, 1)
        want = np.concatenate((mpmath_special_values(K1_STRADDLE)[2],
                               mpmath_special_values(tuple(K1_X))[2]))
        got = np.exp(-mixed[:, 0]) * bessel_k1_scaled(mixed)[:, 0]
        assert np.max(np.abs(got - want) / want) <= 1e-10

    def test_empty_input(self):
        for func in self.FUNCS:
            assert func(np.array([])).shape == (0,)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("func, limit", zip(FUNCS, (0.0, 0.0, 1.0)),
                             ids=[f.__name__ for f in FUNCS])
    def test_limit_at_infinity(self, func, limit):
        # +inf alone and inside an array, with no warning
        assert func(math.inf) == limit
        assert func(np.array([3.0, math.inf]))[1] == limit


class TestIntegrateTheta:
    def test_constant(self):
        got = integrate_theta(lambda th: np.ones_like(th))
        assert got == pytest.approx(2.0 * math.pi, rel=1e-12)

    def test_odd_function(self):
        assert abs(integrate_theta(np.sin)) <= 1e-13

    def test_closed_form_rational(self):
        got = integrate_theta(lambda th: 1.0 / (1.25 + np.sin(th)))
        assert got == pytest.approx(8.377580409572782, rel=1e-10)

    def test_riemann_sum_crosscheck(self):
        f = lambda th: np.exp(np.cos(3.0 * th)) / (1.3 + np.sin(th))
        th = -math.pi + (np.arange(2_000_000) + 0.5) * (2.0 * math.pi / 2_000_000)
        riemann = float(np.mean(f(th)) * 2.0 * math.pi)
        assert integrate_theta(f) == pytest.approx(riemann, rel=1e-9)

    def test_linearity(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            a, b = rng.uniform(-3, 3, 2)
            c1, c2 = rng.uniform(0.1, 2.0, 2)
            f = lambda th: np.cos(c1 * th) ** 2
            g = lambda th: 1.0 / (1.5 + np.sin(c2 + th))
            combined = integrate_theta(lambda th: a * f(th) + b * g(th))
            split = a * integrate_theta(f) + b * integrate_theta(g)
            assert combined == pytest.approx(split, rel=1e-9, abs=1e-12)

    def test_deterministic(self):
        f = lambda th: np.exp(np.sin(5 * th))
        assert integrate_theta(f) == integrate_theta(f)

    def test_convergence_error_carries_estimate(self):
        # 251 unit jumps: a panel holding one has an error estimate of about
        # its width, so meeting 1e-10 takes some 30 bisections per jump, far
        # more than the 500 the rule may make
        staircase = lambda th: np.floor(40.0 * th + 0.3)
        with pytest.raises(QuadratureConvergenceError) as info:
            integrate_theta(staircase)
        err = info.value
        assert np.isfinite(err.estimate)
        assert err.error_estimate > 0
        # a narrow peak is within the budget: closed form (2/100) atan(100 pi)
        spiky = lambda th: 1.0 / (1.0 + 1e4 * th * th)
        assert integrate_theta(spiky) == pytest.approx(
            0.02 * math.atan(100.0 * math.pi), rel=1e-10)

    def test_budget_ends_at_the_last_checked_state(self):
        calls = []

        def staircase(th):
            calls.append(th.size)
            return np.floor(40.0 * th + 0.3)

        with pytest.raises(QuadratureConvergenceError) as info:
            integrate_theta(staircase)
        # 500 bisections leave 501 panels from 1 + 2 * 500 panel rules, each
        # one 10-node and one 21-node call
        assert calls == [10, 21] * 1001
        # that state, bisected in the same order: worst panel first, its left
        # half in place and its right half appended
        bounds = [(-math.pi, math.pi)]
        values = [specfn._panel(staircase, -math.pi, math.pi)]
        for _ in range(500):
            worst = max(range(len(values)), key=lambda i: values[i][1])
            a, b = bounds[worst]
            mid = 0.5 * (a + b)
            bounds[worst], values[worst] = (a, mid), specfn._panel(staircase, a, mid)
            bounds.append((mid, b))
            values.append(specfn._panel(staircase, mid, b))
        assert info.value.estimate == sum(v for v, _ in values)
        assert info.value.error_estimate == sum(e for _, e in values)


class TestIntegratePeriodic:
    def test_constant_exact(self):
        got = integrate_periodic(lambda th: np.full_like(th, 3.0))
        assert got == pytest.approx(6.0 * math.pi, rel=1e-15)

    def test_closed_form_rational(self):
        # 2 pi / sqrt(1.25^2 - 1)
        got = integrate_periodic(lambda th: 1.0 / (1.25 + np.sin(th)))
        assert got == pytest.approx(2.0 * math.pi / 0.75, rel=1e-12)

    def test_odd_function(self):
        assert abs(integrate_periodic(np.sin)) <= 1e-14

    def test_matches_adaptive_rule_on_smooth_periodic(self):
        f = lambda th: np.exp(np.cos(3.0 * th)) / (1.3 + np.sin(th))
        assert integrate_periodic(f) == pytest.approx(integrate_theta(f), rel=1e-10)

    def test_nested_nodes_evaluated_once(self):
        seen = []

        def f(th):
            seen.append(th)
            return 1.0 / (1.25 + np.sin(th))

        integrate_periodic(f)
        nodes = np.sort(np.concatenate(seen))
        assert nodes.size == 128
        np.testing.assert_allclose(
            nodes, -math.pi + 2.0 * math.pi * np.arange(128) / 128, atol=1e-14)

    def test_node_sets_are_the_nested_rule(self):
        # set 0: the 32-node rule and its 32 midpoints; then the midpoints
        # each further doubling adds
        n, step = 32, 2.0 * math.pi / 32
        rules = [-math.pi + step * np.arange(n)]
        while n < 1 << 16:
            rules.append(-math.pi + step * (np.arange(n) + 0.5))
            n *= 2
            step *= 0.5
        assert np.array_equal(periodic_nodes(0), np.concatenate(rules[:2]))
        for k in range(1, PERIODIC_NODE_SETS):
            assert np.array_equal(periodic_nodes(k), rules[k + 1])
        assert len(rules) == PERIODIC_NODE_SETS + 1
        for k in (0, PERIODIC_NODE_SETS - 1):
            assert periodic_nodes(k) is periodic_nodes(k)
            assert not periodic_nodes(k).flags.writeable
        for k in (-1, PERIODIC_NODE_SETS):
            with pytest.raises(ValueError):
                periodic_nodes(k)

    @staticmethod
    def _one_set_per_call(f):
        # the rule building its nodes on every call and evaluating one node
        # set per call, as before node sets were tabulated
        n = 32
        step = 2.0 * math.pi / n
        total = float(np.sum(f(-math.pi + step * np.arange(n))))
        estimate = step * total
        while n < 1 << 16:
            total += float(np.sum(f(-math.pi + step * (np.arange(n) + 0.5))))
            n *= 2
            step *= 0.5
            previous, estimate = estimate, step * total
            if abs(estimate - previous) <= max(1e-14, 1e-10 * abs(estimate)):
                return estimate
        raise AssertionError("reference rule did not converge")

    @pytest.mark.parametrize("f", [
        lambda th: 1.0 / (1.25 + np.sin(th)),
        lambda th: np.exp(np.cos(3.0 * th)) / (1.3 + np.sin(th)),
        lambda th: 1.0 / (1.01 + np.sin(th)),
    ])
    def test_bitwise_equal_to_one_set_per_call(self, f):
        want = self._one_set_per_call(f)
        assert integrate_periodic(f) == want
        assert integrate_periodic_sets(lambda k: f(periodic_nodes(k))) == want

    def test_convergence_error_carries_estimate(self):
        with pytest.raises(QuadratureConvergenceError) as info:
            integrate_periodic(lambda th: np.abs(np.sin(th - 1.0)))
        err = info.value
        assert np.isfinite(err.estimate) and err.estimate > 0
        assert err.error_estimate > 0

    def test_node_ceiling(self):
        # kinks off the nodes make the rule converge only algebraically:
        # the node ceiling stops it
        count = [0]

        def kinked(th):
            count[0] += th.size
            return np.abs(np.sin(th - 1.0))

        with pytest.raises(QuadratureConvergenceError) as info:
            integrate_periodic(kinked)
        assert count[0] == 1 << 16
        assert info.value.estimate == pytest.approx(4.0, rel=1e-8)
