import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monogenica import HoloDomainError, HoloFn, UnstableQuadrature, holo
from monogenica.holo import (
    Contour,
    DerivativeStack,
    NonFiniteIntegrand,
    contour_integrate,
    enclosing_contour,
    parse_complex,
    parse_int,
    parse_real,
)

from oracles import derivatives

STACK_FNS = {
    "exp": HoloFn.exp(amp=0.5 - 1j, scale=1.3 + 0.2j, shift=0.1j),
    "sin": HoloFn.sin(scale=-0.7 + 0.4j, shift=0.3),
    "cos": HoloFn.cos(amp=2.0, scale=0.9j),
    "poly": HoloFn.poly([1.0, -2.0, 0.5j, 1.0, 0.25 - 0.5j], scale=1.1, shift=-0.2),
    "series": HoloFn.series(0.5, [1.0, 2.0, -1.0, 0.25, 1j, -0.3], radius=10.0, amp=1j),
    # a cos(0.5 xi + 0.3) = a cos(0.3) cos(0.5 xi) - a sin(0.3) sin(0.5 xi):
    # a sum of a sin and a cos as one function.
    "sum": HoloFn.cos(amp=0.5 + 1j, scale=0.5, shift=0.3),
}


class TestHoloEval:
    def test_exp_derivatives_at_zero(self):
        f = HoloFn.exp()
        for k in range(6):
            assert f.eval(k, 0.0) == 1.0

    def test_poly_derivative(self):
        f = HoloFn.poly([0.0, 0.0, 1.0])
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

    @pytest.mark.parametrize("radius", [math.inf, float("inf"), np.inf, np.float64(np.inf)])
    def test_an_infinite_radius_caps_nothing(self, radius):
        # Any float +inf, not only math.inf itself, is the default radius.
        f = HoloFn.series(0.0, [1.0, 1.0], radius=radius)
        assert type(f.radius) is float and f.radius == math.inf and f._safe_disc is None
        assert f.eval(0, 1e6) == 1 + 1e6

    @pytest.mark.parametrize("radius", [0.0, -1.0, -math.inf, math.nan, "inf", None, True])
    def test_a_radius_must_be_a_real_above_zero(self, radius):
        with pytest.raises((ValueError, HoloDomainError)):
            HoloFn.series(0.0, [1.0, 1.0], radius=radius)

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
        # A second series, at orders beyond its degree.
        HoloFn.series(-0.3j, [0.5, -1.0, 0.25j, 2.0, 0.1, 0.3 - 0.2j, 0.05, -0.02j], radius=8.0,
                      scale=0.9 - 0.2j, shift=0.2),
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
            # Orders 2.. of a linear series vanish; the domain still counts.
            (HoloFn.series(0.0, [1.0, 1.0], radius=1.0), 2),
        ],
        ids=["plain", "scaled", "vanishing-orders"],
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
    # every kind interleaved, two series, a repeated exp and the zero poly.
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

    @pytest.mark.parametrize("lo", range(4))
    def test_one_shared_row_equals_the_broadcast_rows(self, lo):
        # The integral route passes its nodes as one row for every row: the
        # same bits as the rows broadcast to the stack's shape, at 64 nodes,
        # with the term orders and with all orders 0 (the value stack).
        rows = TestStackedKernel.ROWS
        t = 0.3 - 0.1j + 1.4 * np.exp(2j * np.pi * (np.arange(64) + 0.25) / 64)
        for K in ([3, 0, 6, 5, 7, 2, 1, 4, 9], [0] * len(rows)):
            stack = DerivativeStack(rows, K, lo)
            got = stack(t[None])
            assert got.tobytes() == stack(np.broadcast_to(t, (len(rows), len(t)))).tobytes(), (K, lo)

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
            ([HoloFn.sin(), b, a, HoloFn.zero(), HoloFn.exp()], "b"),
        ):
            for lo in range(3):
                with pytest.raises(HoloDomainError) as err:
                    DerivativeStack(rows, [1, 0, 2, 1, 0], lo)(xi)
                assert str(err.value) == text[first], (first, lo)


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
_fn = st.one_of(_series, st.just(HoloFn.exp()), st.just(HoloFn.poly([1.0, 2.0])))


class TestDefaultContour:
    """The integral route's circle: enclosing_contour."""

    def test_plain(self):
        c = enclosing_contour([0.0, 2.0], [HoloFn.exp()])
        assert c.center == 1.0 and c.radius == 2.0

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
        # Scaled and shifted: f(xi) = g(2 xi + 1), disc 0.45 about -0.5.
        f = HoloFn.series(0.0, [1.0], radius=1.0, scale=2.0, shift=1.0)
        c = enclosing_contour([-0.5], [HoloFn.exp(), f])
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

    @settings(max_examples=150, deadline=None)
    @given(
        xi=st.lists(st.builds(complex, st.floats(-0.5, 0.5), st.floats(-0.5, 0.5)), min_size=1, max_size=3),
        fns=st.lists(_fn, min_size=1, max_size=4),
    )
    def test_nodes_inside_every_series_disc(self, xi, fns):
        center = np.mean(xi)
        delta = np.max(np.abs(np.array(xi) - center))
        leaves = [f for f in fns if f.kind == "series"]
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
        c = Contour(0.0, 1.0)
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
        # on the 64 nodes: the 32-node rule is their even nodes.
        c = Contour(0.1 + 0.2j, 0.5)
        calls = []

        def g(t):
            calls.append(np.array(t))
            return np.exp(t) / (t - c.center) ** 2

        val = contour_integrate(g, c)
        assert [len(t) for t in calls] == [64]
        theta = np.angle((np.concatenate(calls) - c.center) / c.radius)
        slots = np.round(theta / (2 * np.pi) * 64).astype(int) % 64
        assert sorted(slots) == list(range(64))
        assert abs(val - np.exp(c.center)) < 1e-13

    def test_contract_is_tested_and_returned(self, monkeypatch):
        # Row 1 never settles (a pole almost on the circle); a contraction
        # that drops it converges at the first doubling and returns only
        # the contracted value.  Without the contraction the 64-node first
        # call already reaches the node cap, set to 64 here.
        monkeypatch.setattr(holo, "MAX_NODES", 64)
        c = Contour(0.0, 1.0)
        calls = []

        def g(t):
            calls.append(len(t))
            return np.stack([np.exp(t) / t**2, 1.0 / (t - 0.999999)])

        val = contour_integrate(g, c, contract=lambda v: 3.0 * v[0])
        assert calls == [64] and abs(val - 3.0) < 1e-13
        with pytest.raises(UnstableQuadrature, match="did not stabilize to 1e-10 at 64 nodes"):
            contour_integrate(g, c)
        assert calls == [64, 64]

    def test_nested_doubling_equals_fresh_rule(self):
        # A pole at 0.8 of the radius: the 64-node first call, then two
        # doublings to the 256-node rule.
        c = Contour(0.1 + 0.2j, 0.5)
        calls = []

        def g(t):
            calls.append(len(t))
            return np.exp(t) / (t - c.center - 0.4)

        got = contour_integrate(g, c)
        assert calls == [64, 64, 128]
        w = np.exp(2j * np.pi * np.arange(256) / 256)
        fresh = c.radius / 256 * g(c.center + c.radius * w) @ w
        assert abs(got - fresh) <= 1e-15

    def test_first_two_rules_are_contracted_together(self):
        # The contraction sees the 32- and 64-node rules stacked on a last
        # axis, then each later rule alone; the 32-node rule is the sum over
        # the even nodes of the first call.
        c = Contour(0.1, 0.9)
        g = lambda t: np.stack([np.exp(t) / (t - 0.7), np.cos(t) / (t - 0.8) ** 2])
        seen = []

        def contract(v):
            seen.append(v)
            return v

        contour_integrate(g, c, contract=contract)
        assert seen[0].shape == (2, 2) and len(seen) > 1 and all(v.shape == (2,) for v in seen[1:])
        for col, nn in enumerate((32, 64)):
            w = np.exp(2j * np.pi * np.arange(nn) / nn)
            rule = c.radius / nn * g(c.center + c.radius * w) @ w
            assert np.max(np.abs(seen[0][:, col] - rule)) <= 1e-15 * np.max(np.abs(rule)), nn

    @pytest.mark.parametrize("bad", [np.inf, np.nan, complex(np.inf, 1.0)])
    def test_non_finite_integrand_raises_at_once(self, bad):
        # No rule converges on a non-finite integrand: one call, then
        # NonFiniteIntegrand (a HoloDomainError), not 4096 nodes.
        c = Contour(0.0, 1.0)
        calls = []

        def g(t):
            calls.append(len(t))
            out = np.stack([np.exp(t), 1.0 / (t - 0.2)])
            out[1, 5] = bad
            return out

        with pytest.raises(NonFiniteIntegrand, match="not finite on the contour"), np.errstate(invalid="ignore"):
            contour_integrate(g, c)
        assert calls == [64]
        assert issubclass(NonFiniteIntegrand, HoloDomainError)

    def test_raises_when_not_stabilized(self, monkeypatch):
        # A pole sitting almost on the circle defeats the trapezoid rule;
        # with a cap of 128 nodes UnstableQuadrature, an exception and not a
        # warning, comes after one doubling: no unconverged rule is returned.
        monkeypatch.setattr(holo, "MAX_NODES", 128)
        c = Contour(0.0, 1.0)
        calls = []

        def g(t):
            calls.append(len(t))
            return 1.0 / (t - 0.999999)

        with pytest.raises(UnstableQuadrature, match="did not stabilize to 1e-10 at 128 nodes"):
            contour_integrate(g, c)
        assert calls == [64, 64]
        assert not issubclass(UnstableQuadrature, Warning)


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

    @pytest.mark.parametrize("reader, value, expect", [
        (parse_real, np.float64(-2.5), -2.5), (parse_real, np.int32(3), 3.0), (parse_int, np.int64(-7), -7),
        (parse_complex, np.complex128(1 - 2j), 1 - 2j), (parse_complex, 2j, 2j), (parse_complex, np.float32(0.5), 0.5 + 0j),
    ])
    def test_numpy_scalars_and_a_python_complex(self, reader, value, expect):
        got = reader(value)
        assert type(got) is type(expect) and got == expect

    @pytest.mark.parametrize("reader", [parse_real, parse_int, parse_complex])
    @pytest.mark.parametrize("value", [np.bool_(True), np.float64("nan"), np.float32("inf"),
                                       np.complex128(complex(1.0, math.inf)), complex(math.nan, 0.0)])
    def test_numpy_scalars_that_are_no_finite_number(self, reader, value):
        with pytest.raises(ValueError, match="not a"):
            reader(value)

    @pytest.mark.parametrize("value", [True, [False, True], "1", ["1", "2"], [1.0, 0.0, 2.0], [],
                                       [1.0, float("nan")], 10**400, None])
    def test_not_complex(self, value):
        with pytest.raises(ValueError, match="not a complex number"):
            parse_complex(value)
