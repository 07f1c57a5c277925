import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monogenica import (
    Contour,
    HoloDomainError,
    HoloFn,
    contour_integrate,
    enclosing_contour,
)
from monogenica.holo import DEFAULT_NODES, DerivativeStack, HoloSum, parse_complex, parse_int, parse_real

from oracles import derivatives

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
            assert f.eval(k, 0.0) == 1.0

    def test_poly_derivative(self):
        f = HoloFn.square()
        assert f.eval(1, 2 + 1j) == 4 + 2j
        assert f.eval(2, 2 + 1j) == 2.0
        assert f.eval(3, 2 + 1j) == 0.0

    def test_sin_second_derivative(self):
        f = HoloFn.sin()
        assert abs(f.eval(2, 1.0) + math.sin(1.0)) < 1e-15

    def test_series_matches_function(self):
        # exp around 0 as a truncated series.
        coeffs = [1.0 / math.factorial(k) for k in range(25)]
        f = HoloFn.series(0.0, coeffs, radius=4.0)
        for k in range(3):
            assert abs(f.eval(k, 1.2 + 0.3j) - np.exp(1.2 + 0.3j)) < 1e-12

    def test_series_radius_guard(self):
        f = HoloFn.series(0.0, [1.0, 1.0], radius=1.0)
        with pytest.raises(HoloDomainError):
            f.eval(0, 0.95)

    def test_negative_order_rejected(self):
        with pytest.raises(HoloDomainError):
            HoloFn.exp().eval(-1, 0.0)

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
                fd = (f.eval(k, xi + h) - f.eval(k, xi - h)) / (2 * h)
                assert abs(fd - f.eval(k + 1, xi)) < 1e-6

    def test_scale_shift_rule(self):
        c, alpha, beta = 2.0 - 1.0j, 0.7 + 0.3j, -0.4j
        f = HoloFn.sin(amp=c, scale=alpha, shift=beta)
        for k in range(4):
            xi = 1.1 - 0.2j
            direct = c * alpha**k * HoloFn.sin().eval(k, alpha * xi + beta)
            assert abs(f.eval(k, xi) - direct) < 1e-13

    def test_vectorized_over_points(self):
        f = HoloFn.exp()
        xs = np.array([0.0, 1.0, 1j])
        assert np.allclose(f.eval(0, xs), np.exp(xs))


class TestDerivativeStack:
    @pytest.mark.parametrize("name", sorted(STACK_FNS))
    @pytest.mark.parametrize("K", [0, 1, 7])
    @pytest.mark.parametrize(
        "xi", [0.3 - 0.4j, np.array([0.0, 1.2 + 0.8j, -0.7 - 0.1j, 2.0])], ids=["scalar", "array"]
    )
    def test_matches_eval_per_order(self, name, K, xi):
        f = STACK_FNS[name]
        got = derivatives(f, K, xi)
        ref = np.stack([f.eval(k, xi) for k in range(K + 1)])
        assert got.shape == (K + 1,) + np.shape(xi)
        assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref))

    def test_zero_polynomial(self):
        got = derivatives(HoloFn.zero(), 3, np.array([0.5, 1j]))
        assert got.shape == (4, 2) and not np.any(got)

    def test_series_overrun_raises_from_both(self):
        f = HoloFn.series(0.0, [1.0, 1.0], radius=1.0)
        with pytest.raises(HoloDomainError):
            f.eval(0, np.array([0.1, 0.95]))
        with pytest.raises(HoloDomainError):
            derivatives(f, 2, np.array([0.1, 0.95]))

    def test_negative_order_rejected(self):
        with pytest.raises(HoloDomainError):
            derivatives(HoloFn.exp(), -1, 0.0)


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

    def test_one_entry_horner_columns(self, rng):
        # One 6-coefficient poly at order 0: at one point every Horner step
        # multiplies a one-element array, which numpy rounds by another loop
        # when the product is taken in place.
        f = HoloFn.poly([1.0, 0.5 - 0.2j, 0.3j, -0.7, 0.1 + 0.1j, 0.05j])
        stack = DerivativeStack([f], [0])
        xi = rng.normal(size=(1, 40)) + 1j * rng.normal(size=(1, 40))
        got = stack(xi)
        for j in range(40):
            assert np.array_equal(got[:, j], stack(xi[:, j : j + 1])[:, 0]), j

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


class TestStackNeighbours:
    """A row's bits, and the domain error a stack raises, do not depend on the other rows."""

    # Row orders of ROWS: as listed, reversed, grouped by kind, and shuffled;
    # every kind interleaved, HoloSum rows, a repeated exp and the zero poly.
    PERMUTATIONS = [
        list(range(9)),
        list(range(8, -1, -1)),
        [2, 6, 4, 3, 1, 0, 7, 5, 8],
        [5, 0, 8, 2, 7, 4, 1, 6, 3],
        [6, 3, 5, 1, 8, 0, 4, 2, 7],
    ]

    @pytest.mark.parametrize("perm", PERMUTATIONS, ids=lambda p: "".join(map(str, p)))
    @pytest.mark.parametrize("N", [1, 6])
    def test_row_bits_do_not_depend_on_neighbours(self, rng, perm, N):
        rows = [TestStackedKernel.ROWS[i] for i in perm]
        xi = rng.uniform(-2, 2, (len(rows), N)) + 1j * rng.uniform(-2, 2, (len(rows), N))
        # Orders 0 put sin and cos leaves in their one-function blocks.
        for K in ([[3, 0, 6, 5, 7, 2, 1, 4, 9][i] for i in perm], [0] * len(rows)):
            for lo in range(4):
                stack = DerivativeStack(rows, K, lo)
                got = stack(xi)
                for i, f in enumerate(rows):
                    alone = DerivativeStack([f], [K[i]], lo)(xi[i : i + 1])
                    row = got[stack.offsets[i] : stack.offsets[i] + K[i] + 1]
                    assert row.tobytes() == alone.tobytes(), (perm, K, lo, i)

    def test_first_overrunning_series_in_row_order_is_named(self):
        # Both series overrun at 0.95; each names its own distance and radius.
        a = HoloFn.series(0.0, [1.0, 1.0], radius=1.0)
        b = HoloFn.series(0.1, [1.0, 2.0, 3.0], radius=0.5)
        text = {
            "a": "series evaluated at distance 0.95 from its center; safe radius is 0.9",
            "b": "series evaluated at distance 0.85 from its center; safe radius is 0.45",
        }
        xi = np.full((5, 2), 0.95 + 0j)
        for rows, first in (
            ([HoloFn.poly([1.0, 2.0]), a, HoloFn.exp(), b, HoloFn.sin()], "a"),
            ([HoloFn.exp(), b, HoloFn.poly([1.0, 2.0]), HoloFn.cos(), a], "b"),
            ([HoloFn.sin(), HoloSum((HoloFn.exp(), b)), a, HoloFn.zero(), HoloFn.exp()], "b"),
        ):
            for lo in range(3):
                with pytest.raises(HoloDomainError) as err:
                    DerivativeStack(rows, [1, 0, 2, 1, 0], lo)(xi)
                assert str(err.value) == text[first], (first, lo)


def _series_leaves(fns):
    for f in fns:
        for leaf in f.parts if isinstance(f, HoloSum) else (f,):
            if leaf.kind == "series":
                yield leaf


def _outside(leaf, t):
    """Largest distance of the leaf's arguments at t from its centre, over its safe radius."""
    return np.max(np.abs(leaf.scale * t + leaf.shift - leaf.center)) / (0.9 * leaf.radius)


_coord = st.floats(-1.0, 1.0)
_cplx = st.builds(complex, _coord, _coord)
_series = st.builds(
    lambda c, r, s, sh: HoloFn.series(c, [1.0, 0.5j, 0.25], radius=r, scale=s, shift=sh),
    _cplx,
    st.floats(0.05, 20.0),
    st.builds(complex, st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)).filter(lambda s: abs(s) >= 0.1),
    _cplx,
)
_leaf = st.one_of(_series, st.just(HoloFn.exp()), st.just(HoloFn.poly([1.0, 2.0])))
_fn = st.one_of(_leaf, st.builds(lambda a, b: HoloSum((a, b)), _leaf, _leaf))


class TestDefaultContour:
    """The integral route's circle: enclosing_contour."""

    def test_plain(self):
        c = enclosing_contour([0.0, 2.0], [HoloFn.exp()])
        assert c.center == 1.0 and c.radius == 2.0 and c.nodes == DEFAULT_NODES

    def test_no_others(self):
        c = enclosing_contour([0.3 + 0.1j], [HoloFn.exp()])
        assert c.center == 0.3 + 0.1j and c.radius == 1.0

    def test_close_neighbor_clamps(self):
        # Points 0.05 apart: 2 * delta = 0.05 is clamped from below at 1.
        c = enclosing_contour([0.0, 0.05], [HoloFn.exp()])
        assert abs(c.center - 0.025) < 1e-15 and c.radius == 1.0

    @pytest.mark.parametrize("gap", [1e-6, 1e-11, 1e-12, 0.0])
    def test_coincident_points_share_the_circle(self, gap):
        c = enclosing_contour([0.5j, 0.5j + gap], [HoloFn.exp()])
        assert abs(c.center - (0.5j + gap / 2)) < 1e-15 and c.radius == 1.0

    def test_series_caps_the_radius(self):
        # Safe disc of radius 0.9 about 0; the point sits 0.1 off its centre.
        c = enclosing_contour([0.1], [HoloFn.series(0.0, [1.0, 0.5], radius=1.0)])
        assert 0.8 - 1e-12 < c.radius < 0.8
        # Scaled and shifted: f(xi) = g(2 xi + 1), disc 0.45 about -0.5,
        # inside a HoloSum.
        f = HoloSum((HoloFn.exp(), HoloFn.series(0.0, [1.0], radius=1.0, scale=2.0, shift=1.0)))
        c = enclosing_contour([-0.5], [f])
        assert 0.45 - 1e-12 < c.radius < 0.45

    def test_no_circle_raises(self):
        # Two points on a chord near the edge of one series' safe disc: the
        # cap 0.9 - 0.6 is below 1.1 * delta = 0.66.
        f = HoloFn.series(0.0, [1.0, 0.5], radius=1.0)
        with pytest.raises(HoloDomainError, match="series"):
            enclosing_contour([-0.6 + 0.6j, 0.6 + 0.6j], [HoloFn.exp(), f])

    def test_contour_validation(self):
        with pytest.raises(ValueError):
            Contour(0.0, -1.0)
        with pytest.raises(ValueError):
            Contour(0.0, 1.0, nodes=4)

    @settings(max_examples=150, deadline=None)
    @given(
        xi=st.lists(st.builds(complex, st.floats(-0.5, 0.5), st.floats(-0.5, 0.5)), min_size=1, max_size=3),
        fns=st.lists(_fn, min_size=1, max_size=4),
    )
    def test_nodes_inside_every_series_disc(self, xi, fns):
        center = np.mean(xi)
        delta = np.max(np.abs(np.array(xi) - center))
        leaves = list(_series_leaves(fns))
        try:
            c = enclosing_contour(xi, fns)
        except HoloDomainError:
            # The smallest circle allowed, radius 1.1 delta, already leaves
            # some series' safe disc.
            w = np.exp(2j * np.pi * np.arange(4096) / 4096)
            t = center + 1.1 * delta * (1 + 1e-9) * w
            assert leaves and max(_outside(leaf, t) for leaf in leaves) > 1 - 1e-9
            return
        assert 1.1 * delta < c.radius <= max(2 * delta, 1.0) * (1 + 1e-12)
        # Every node of every rule up to MAX_NODES.
        t = c.center + c.radius * np.exp(2j * np.pi * np.arange(4096) / 4096)
        for leaf in leaves:
            assert _outside(leaf, t) <= 1.0
        DerivativeStack(fns, [0] * len(fns))(np.broadcast_to(t, (len(fns), len(t))))


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
        # A smooth integrand converges at the first doubling, from one call
        # on the 512 nodes: the 256-node rule is their even nodes.
        c = Contour(0.1 + 0.2j, 0.5, nodes=256)
        calls = []

        def g(t):
            calls.append(np.array(t))
            return np.exp(t) / (t - c.center) ** 2

        val = contour_integrate(g, c)
        assert [len(t) for t in calls] == [512]
        theta = np.angle((np.concatenate(calls) - c.center) / c.radius)
        slots = np.round(theta / (2 * np.pi) * 512).astype(int) % 512
        assert sorted(slots) == list(range(512))
        assert abs(val - np.exp(c.center)) < 1e-13

    def test_contract_is_tested_and_returned(self):
        # Row 1 never settles (a pole almost on the circle); a contraction
        # that drops it converges at the first doubling and returns only
        # the contracted value.
        c = Contour(0.0, 1.0, nodes=16)
        calls = []

        def g(t):
            calls.append(len(t))
            return np.stack([np.exp(t) / t**2, 1.0 / (t - 0.999999)])

        val = contour_integrate(g, c, max_nodes=64, contract=lambda v: 3.0 * v[0])
        assert calls == [32] and abs(val - 3.0) < 1e-13
        with pytest.warns(RuntimeWarning):
            contour_integrate(g, c, max_nodes=64)

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


class TestNumberReaders:
    @pytest.mark.parametrize("value, expect", [(3, 3.0), (-2.5, -2.5), (10**300, 1e300), (0, 0.0)])
    def test_real(self, value, expect):
        got = parse_real(value)
        assert type(got) is float and got == expect

    @pytest.mark.parametrize("value", [True, False, "1", None, [1.0], float("nan"), float("inf"),
                                       -float("inf"), 10**400])
    def test_not_real(self, value):
        with pytest.raises(ValueError, match="not a finite number"):
            parse_real(value)

    @pytest.mark.parametrize("value", [0, 3, -7, 10**400])
    def test_int(self, value):
        assert parse_int(value) == value

    @pytest.mark.parametrize("value", [3.0, 2.9, True, "3", None, [3]])
    def test_not_int(self, value):
        with pytest.raises(ValueError, match="not an integer"):
            parse_int(value)

    @pytest.mark.parametrize("value, expect", [(2, 2 + 0j), ([1, -0.5], 1 - 0.5j), ((0.0, 3), 3j)])
    def test_complex(self, value, expect):
        got = parse_complex(value)
        assert type(got) is complex and got == expect

    @pytest.mark.parametrize("value", [True, [False, True], "1", ["1", "2"], [1.0, 0.0, 2.0], [],
                                       [1.0, float("nan")], 10**400, None])
    def test_not_complex(self, value):
        with pytest.raises(ValueError, match="not a complex number"):
            parse_complex(value)
