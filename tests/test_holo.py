import math

import numpy as np
import pytest

from monogenica import (
    CoincidentSpectrum,
    Contour,
    HoloDomainError,
    HoloFn,
    contour_integrate,
    default_contour,
    holo_eval,
)
from monogenica.holo import DerivativeStack, HoloSum

STACK_FNS = {
    "exp": HoloFn.exp(amp=0.5 - 1j, scale=1.3 + 0.2j, shift=0.1j),
    "sin": HoloFn.sin(scale=-0.7 + 0.4j, shift=0.3),
    "cos": HoloFn.cos(amp=2.0, scale=0.9j),
    "poly": HoloFn.poly([1.0, -2.0, 0.5j, 1.0, 0.25 - 0.5j], scale=1.1, shift=-0.2),
    "series": HoloFn.series(0.5, [1.0, 2.0, -1.0, 0.25, 1j, -0.3], radius=10.0, amp=1j),
    "sum": HoloSum((HoloFn.exp(scale=0.5), HoloFn.poly([0.0, 1.0, 3.0]), HoloFn.cos())),
}


class TestHoloEval:
    def test_exp_derivatives_at_zero(self):
        f = HoloFn.exp()
        for k in range(6):
            assert holo_eval(f, k, 0.0) == 1.0

    def test_poly_derivative(self):
        f = HoloFn.square()
        assert holo_eval(f, 1, 2 + 1j) == 4 + 2j
        assert holo_eval(f, 2, 2 + 1j) == 2.0
        assert holo_eval(f, 3, 2 + 1j) == 0.0

    def test_sin_second_derivative(self):
        f = HoloFn.sin()
        assert abs(holo_eval(f, 2, 1.0) + math.sin(1.0)) < 1e-15

    def test_series_matches_function(self):
        # exp around 0 as a truncated series.
        coeffs = [1.0 / math.factorial(k) for k in range(25)]
        f = HoloFn.series(0.0, coeffs, radius=4.0)
        for k in range(3):
            assert abs(holo_eval(f, k, 1.2 + 0.3j) - np.exp(1.2 + 0.3j)) < 1e-12

    def test_series_radius_guard(self):
        f = HoloFn.series(0.0, [1.0, 1.0], radius=1.0)
        with pytest.raises(HoloDomainError):
            holo_eval(f, 0, 0.95)

    def test_negative_order_rejected(self):
        with pytest.raises(HoloDomainError):
            holo_eval(HoloFn.exp(), -1, 0.0)

    @pytest.mark.parametrize(
        "f",
        [
            HoloFn.exp(),
            HoloFn.sin(),
            HoloFn.cos(),
            HoloFn.poly([1.0, -2.0, 0.5j, 1.0]),
            HoloFn.series(0.5, [1.0, 2.0, -1.0, 0.25], radius=100.0),
        ],
    )
    def test_derivative_consistency_finite_difference(self, f):
        h = 1e-5
        for k in range(3):
            for xi in (0.3, -1.2 + 0.8j, 2.5 - 1.0j):
                fd = (holo_eval(f, k, xi + h) - holo_eval(f, k, xi - h)) / (2 * h)
                assert abs(fd - holo_eval(f, k + 1, xi)) < 1e-6

    def test_scale_shift_rule(self):
        c, alpha, beta = 2.0 - 1.0j, 0.7 + 0.3j, -0.4j
        f = HoloFn.sin(amp=c, scale=alpha, shift=beta)
        for k in range(4):
            xi = 1.1 - 0.2j
            direct = c * alpha**k * holo_eval(HoloFn.sin(), k, alpha * xi + beta)
            assert abs(holo_eval(f, k, xi) - direct) < 1e-13

    def test_vectorized_over_points(self):
        f = HoloFn.exp()
        xs = np.array([0.0, 1.0, 1j])
        assert np.allclose(holo_eval(f, 0, xs), np.exp(xs))


class TestDerivativeStack:
    @pytest.mark.parametrize("name", sorted(STACK_FNS))
    @pytest.mark.parametrize("K", [0, 1, 7])
    @pytest.mark.parametrize(
        "xi", [0.3 - 0.4j, np.array([0.0, 1.2 + 0.8j, -0.7 - 0.1j, 2.0])], ids=["scalar", "array"]
    )
    def test_matches_eval_per_order(self, name, K, xi):
        f = STACK_FNS[name]
        got = f.derivatives(K, xi)
        ref = np.stack([f.eval(k, xi) for k in range(K + 1)])
        assert got.shape == (K + 1,) + np.shape(xi)
        assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref))

    def test_zero_polynomial(self):
        got = HoloFn.zero().derivatives(3, np.array([0.5, 1j]))
        assert got.shape == (4, 2) and not np.any(got)

    def test_series_overrun_raises_from_both(self):
        f = HoloFn.series(0.0, [1.0, 1.0], radius=1.0)
        with pytest.raises(HoloDomainError):
            f.eval(0, np.array([0.1, 0.95]))
        with pytest.raises(HoloDomainError):
            f.derivatives(2, np.array([0.1, 0.95]))

    def test_negative_order_rejected(self):
        with pytest.raises(HoloDomainError):
            HoloFn.exp().derivatives(-1, 0.0)


class TestStackedKernel:
    """One DerivativeStack call over many functions, each at its own points."""

    ROWS = [
        STACK_FNS["exp"],
        STACK_FNS["sin"],
        STACK_FNS["poly"],
        STACK_FNS["cos"],
        STACK_FNS["series"],
        STACK_FNS["sum"],
        HoloFn.zero(),
        STACK_FNS["exp"],
        HoloSum((STACK_FNS["series"], HoloSum((HoloFn.sin(), STACK_FNS["cos"])))),
    ]

    @pytest.mark.parametrize("lo", [0, 2])
    @pytest.mark.parametrize("N", [1, 6])
    def test_rows_match_eval(self, rng, lo, N):
        K = [3, 0, 6, 5, 7, 2, 1, 4, 9]
        xi = rng.uniform(-2, 2, (len(K), N)) + 1j * rng.uniform(-2, 2, (len(K), N))
        stack = DerivativeStack(self.ROWS, K, lo)
        got = stack(xi)
        assert got.shape == (sum(K) + len(K), N) == (stack.size, N)
        for i, f in enumerate(self.ROWS):
            rows = got[stack.offsets[i] : stack.offsets[i] + K[i] + 1]
            ref = np.stack([f.eval(lo + k, xi[i]) for k in range(K[i] + 1)])
            assert np.max(np.abs(rows - ref)) <= 1e-15 * np.max(np.abs(ref)), i

    def test_columns_do_not_depend_on_each_other(self, rng):
        K = [3, 0, 6, 5, 7, 2, 1, 4, 9]
        xi = rng.uniform(-2, 2, (len(K), 40)) + 1j * rng.uniform(-2, 2, (len(K), 40))
        stack = DerivativeStack(self.ROWS, K, 1)
        got = stack(xi)
        for j in range(40):
            assert np.array_equal(got[:, j], stack(xi[:, j : j + 1])[:, 0])

    @pytest.mark.parametrize(
        "row, lo",
        [
            (HoloFn.series(0.0, [1.0, 1.0], radius=1.0), 0),
            (HoloFn.series(0.0, [1.0, 1.0], radius=1.0, scale=2.0), 0),
            (HoloSum((HoloFn.exp(), HoloFn.series(0.0, [1.0, 1.0], radius=1.0))), 0),
            # Orders 2.. of a linear series vanish; the domain still counts.
            (HoloFn.series(0.0, [1.0, 1.0], radius=1.0), 2),
        ],
        ids=["plain", "scaled", "in-sum", "vanishing-orders"],
    )
    def test_series_out_of_domain_raises(self, row, lo):
        ok = HoloFn.series(0.0, [1.0, 2.0, 3.0], radius=10.0)
        xi = np.array([[0.1, 0.2], [0.3, 0.95], [0.1, 0.2]], dtype=np.complex128)
        stack = DerivativeStack([ok, row, HoloFn.exp()], [2, 3, 1], lo)
        with pytest.raises(HoloDomainError):
            stack(xi)
        # The same rows inside the domain evaluate.
        assert np.all(np.isfinite(stack(xi * 0.3)))

    def test_negative_orders_rejected(self):
        with pytest.raises(HoloDomainError):
            DerivativeStack([HoloFn.exp()], [-1])
        with pytest.raises(HoloDomainError):
            DerivativeStack([HoloFn.exp()], [2], -1)


class TestDefaultContour:
    def test_plain(self):
        c = default_contour(0.0, [2.0])
        assert c.center == 0.0 and c.radius == 1.0 and c.nodes == 256

    def test_no_others(self):
        assert default_contour(0.0, []).radius == 1.0

    def test_close_neighbor_clamps(self):
        c = default_contour(0.0, [0.05])
        assert abs(c.radius - 0.025) < 1e-15

    def test_coincident_raises(self):
        with pytest.raises(CoincidentSpectrum):
            default_contour(0.0, [1e-12])

    def test_contour_validation(self):
        with pytest.raises(ValueError):
            Contour(0.0, -1.0)
        with pytest.raises(ValueError):
            Contour(0.0, 1.0, nodes=4)


class TestQuadrature:
    def test_cauchy_simple_pole(self):
        c = Contour(0.5 + 0.5j, 1.0)
        val = contour_integrate(lambda t: 1.0 / (t - c.center), c)
        assert abs(val - 1.0) < 1e-13

    def test_no_pole(self):
        c = Contour(0.0, 1.0)
        val = contour_integrate(lambda t: np.ones_like(t), c)
        assert abs(val) < 1e-14

    def test_second_order_pole(self):
        c = Contour(0.0, 1.0)
        val = contour_integrate(lambda t: 1.0 / (t - c.center) ** 2, c)
        assert abs(val) < 1e-13

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("a", [0.0, 0.3 + 0.2j, -0.5j])
    def test_pole_family_inside(self, k, a):
        # |a| <= 0.5 * radius: residue is 1 for k = 1, else 0.
        c = Contour(0.0, 1.0, nodes=256)
        val = contour_integrate(lambda t: 1.0 / (t - a) ** k, c)
        expect = 1.0 if k == 1 else 0.0
        assert abs(val - expect) < 1e-12

    def test_derivative_of_holomorphic_numerator(self):
        # (1/2*pi*i) int f(t)/(t - a)^3 dt = f''(a)/2 for f = exp.
        a = 0.2 - 0.1j
        c = Contour(a, 0.8)
        val = contour_integrate(lambda t: np.exp(t) / (t - a) ** 3, c)
        assert abs(val - np.exp(a) / 2.0) < 1e-12

    def test_vector_valued_integrand(self):
        c = Contour(0.0, 1.0)
        g = lambda t: np.stack([1.0 / t, np.ones_like(t)])
        val = contour_integrate(g, c)
        assert np.max(np.abs(val - np.array([1.0, 0.0]))) < 1e-13

    def test_each_node_evaluated_once(self):
        # A smooth integrand converges at the first doubling: the 512-node
        # rule reuses the 256 nodes and adds the 256 halfway between them.
        c = Contour(0.1 + 0.2j, 0.5, nodes=256)
        calls = []

        def g(t):
            calls.append(np.array(t))
            return np.exp(t) / (t - c.center) ** 2

        val = contour_integrate(g, c)
        assert [len(t) for t in calls] == [256, 256]
        theta = np.angle((np.concatenate(calls) - c.center) / c.radius)
        slots = np.round(theta / (2 * np.pi) * 512).astype(int) % 512
        assert sorted(slots) == list(range(512))
        assert abs(val - np.exp(c.center)) < 1e-13

    def test_nested_doubling_equals_fresh_rule(self):
        c = Contour(0.1 + 0.2j, 0.5, nodes=256)
        g = lambda t: np.exp(t) / (t - c.center) ** 2
        w = np.exp(2j * np.pi * np.arange(512) / 512)
        fresh = c.radius / 512 * g(c.center + c.radius * w) @ w
        assert abs(contour_integrate(g, c) - fresh) <= 1e-15

    def test_warning_when_not_stabilized(self):
        # A pole sitting almost on the circle defeats the trapezoid rule.
        c = Contour(0.0, 1.0, nodes=16)
        with pytest.warns(RuntimeWarning):
            contour_integrate(lambda t: 1.0 / (t - 0.999999), c, max_nodes=64)
