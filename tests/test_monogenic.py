import itertools
import math
import re
import warnings

import numpy as np
import pytest

from monogenica import (
    HoloDomainError,
    HoloFn,
    MonogenicSpec,
    PdeSpec,
    TriadSpec,
    cr_residual,
    eval_explicit,
    eval_integral,
    eval_special,
    gateaux_derivative,
    validate_algebra,
    validate_triad,
)
from monogenica import monogenic, resolvent
from monogenica.algebra import AlgebraSpec, SpecialCase
from monogenica.holo import DEFAULT_NODES, MAX_NODES, UnstableQuadrature
from monogenica.monogenic import extract_components
from monogenica.resolvent import t_coeffs

from conftest import fixture_triad, most_terms_per_b, random_triad
from oracles import (apply_operator, basis, embed, functional_f, pointwise_partials, spectrum,
                     wrong_xi_values, xi)
from test_algebra import direct_sum_truncated, skewed_basis

# A coordinate of a point and a value that is not finite for it.
NON_FINITE = [(c, v) for c in range(3) for v in (math.nan, math.inf, -math.inf)]


def assert_non_finite_row(route, ms, coordinate, value):
    """route at a batch whose first point has value at coordinate.

    No coordinate is tested: a NaN gives a row of NaN and no warning, an
    infinite value a row that is not finite (numpy's invalid-value warning
    silenced), and the other row keeps the bits it has alone.
    """
    pts = np.array([[0.3, 0.4, -0.2], [0.1, -0.5, 0.6]])
    bad = pts.copy()
    bad[0, coordinate] = value
    with warnings.catch_warnings(), np.errstate(invalid="ignore" if math.isinf(value) else "raise"):
        warnings.simplefilter("error")
        got = route(ms, bad)
    if math.isnan(value):
        assert np.isnan(got[0]).all()
    else:
        assert not np.isfinite(got[0]).all()
    assert np.array_equal(got[1], route(ms, pts[1]))


def exp_series_oracle(spec, zeta, terms=40):
    """exp of an algebra element by its truncated power series."""
    acc = spec.unit()
    term = spec.unit()
    for k in range(1, terms + 1):
        term = spec.multiply(term, zeta) / k
        acc = acc + term
    return acc


class TestTriadValidation:
    def test_zero_e3_fails_rank(self, alg_d2):
        triad = TriadSpec.create([1j, 1.0], [0.0, 0.0])
        assert any(v.kind == "rank" for v in validate_triad(alg_d2, triad))

    def test_rank_is_reported_as_an_int(self, alg_d2):
        # Printed as "rank at (2,)", not as a numpy scalar's repr.
        violations = validate_triad(alg_d2, TriadSpec.create([1j, 1.0], [0.0, 0.0]))
        (rank,) = [v for v in violations if v.kind == "rank"]
        assert rank.where == (2,) and type(rank.where[0]) is int

    def test_harmonic_triad_valid(self, alg_ss2):
        assert validate_triad(alg_ss2, fixture_triad("alg_ss2")) == []

    def test_all_real_triad_fails_surjectivity(self, alg_ss2):
        triad = TriadSpec.create([1.0, 2.0], [3.0, 4.0])
        bad_u = sorted(v.where[0] for v in validate_triad(alg_ss2, triad) if v.kind == "surjectivity")
        assert bad_u == [1, 2]

    def test_fixture_triads_valid(self, all_monospecs):
        for name, ms in all_monospecs.items():
            assert ms.validate() == [], name

    def test_dimension_mismatch(self, alg_t4):
        # Stated once, where the spec is made, beside the F and G counts.
        with pytest.raises(ValueError, match="triad a and b need 4 coefficients each, got 1 and 1"):
            MonogenicSpec.create(alg_t4, TriadSpec.create([1j], [0.0]), [HoloFn.exp()],
                                 [HoloFn.exp()] * 3)


def test_create_rejects_a_wrong_g_count(alg_t4):
    # alg_t4 has n - m = 3 radical indices, so it needs 3 G functions.
    with pytest.raises(ValueError, match="need 3 G functions, got 1"):
        MonogenicSpec.create(alg_t4, fixture_triad("alg_t4"), [HoloFn.exp()], [HoloFn.exp()])


class TestEmbedding:
    def test_x_axis_embeds_to_unit(self, all_algebras):
        for name, spec in all_algebras.items():
            triad = fixture_triad(name)
            assert np.allclose(embed(spec, triad, (1.0, 0.0, 0.0)), spec.unit())
            for u in range(1, spec.m + 1):
                assert xi(triad, (1.0, 0.0, 0.0), u) == 1.0

    def test_d2_example(self, alg_d2):
        triad = TriadSpec.create([1j, 1.0], [0.5, 0.0])
        zeta = embed(alg_d2, triad, (0.0, 1.0, 0.0))
        assert np.allclose(zeta, [1j, 1.0])
        assert xi(triad, (0.0, 1.0, 0.0), 1) == 1j

    def test_functional_of_embedding_is_xi(self, all_algebras, rng):
        for name, spec in all_algebras.items():
            triad = fixture_triad(name)
            for _ in range(10):
                p = tuple(rng.uniform(-2, 2, 3))
                zeta = embed(spec, triad, p)
                for u in range(1, spec.m + 1):
                    assert abs(functional_f(spec, u, zeta) - xi(triad, p, u)) < 1e-14


class TestExplicit:
    def test_semisimple_squares(self, alg_ss2):
        triad = fixture_triad("alg_ss2")
        ms = MonogenicSpec.create(alg_ss2, triad, [HoloFn.poly([0.0, 0.0, 1.0])] * 2)
        p = (0.7, 0.4, -0.3)
        xi_v = spectrum(triad, alg_ss2.m, *p)
        assert np.max(np.abs(eval_explicit(ms, p) - xi_v**2)) < 1e-14

    def test_d2_exp_against_series_oracle(self, alg_d2):
        triad = fixture_triad("alg_d2")
        ms = MonogenicSpec.create(alg_d2, triad, [HoloFn.exp()], [HoloFn.zero()])
        p = (0.1, 0.5, -0.3)
        got = eval_explicit(ms, p)
        oracle = exp_series_oracle(alg_d2, embed(alg_d2, triad, p))
        assert np.max(np.abs(got - oracle)) < 1e-13
        # Phi = e^(xi_1) * (I_1 + T_2 * I_2)
        xi1 = xi(triad, p, 1)
        T = t_coeffs(alg_d2, triad, p[1], p[2])
        assert abs(got[0] - np.exp(xi1)) < 1e-14
        assert abs(got[1] - T[0] * np.exp(xi1)) < 1e-14

    def test_zero_data_gives_zero(self, alg_t4):
        triad = fixture_triad("alg_t4")
        ms = MonogenicSpec.create(
            alg_t4, triad, [HoloFn.zero()], [HoloFn.zero()] * 3
        )
        assert np.allclose(eval_explicit(ms, (0.3, -0.8, 1.1)), 0.0)

    def test_exp_series_oracle_on_r5(self, alg_r5):
        triad = fixture_triad("alg_r5")
        ms = MonogenicSpec.create(
            alg_r5, triad, [HoloFn.exp()], [HoloFn.zero()] * 4
        )
        p = (0.2, 0.4, 0.1)
        oracle = exp_series_oracle(alg_r5, embed(alg_r5, triad, p))
        assert np.max(np.abs(eval_explicit(ms, p) - oracle)) < 1e-12

    def test_linearity(self, alg_t4, rng):
        def add(f, g):
            """f + g as one function: polys add their coefficients, exps of one scale and shift their amps."""
            if f.kind == "exp":
                assert (g.kind, g.scale, g.shift) == ("exp", f.scale, f.shift)
                return HoloFn.exp(amp=f.amp + g.amp, scale=f.scale, shift=f.shift)
            return HoloFn.poly([a + b for a, b in itertools.zip_longest(f.coeffs, g.coeffs, fillvalue=0.0)])

        triad = fixture_triad("alg_t4")
        F1 = HoloFn.exp(amp=0.7 - 0.2j, scale=0.8 + 0.1j, shift=0.2)
        F2 = HoloFn.exp(amp=-0.3 + 0.5j, scale=0.8 + 0.1j, shift=0.2)
        G1 = [HoloFn.poly([1.0, 0.5j, -0.25]), HoloFn.exp(scale=-0.5j), HoloFn.poly([1.0])]
        G2 = [HoloFn.poly([-0.5, 2.0]), HoloFn.exp(amp=0.25j, scale=-0.5j), HoloFn.poly([0.0, 1.0j, 0.5, 0.2])]
        ms1 = MonogenicSpec.create(alg_t4, triad, [F1], G1)
        ms2 = MonogenicSpec.create(alg_t4, triad, [F2], G2)
        ms12 = MonogenicSpec.create(alg_t4, triad, [add(F1, F2)], [add(g1, g2) for g1, g2 in zip(G1, G2)])
        p = tuple(rng.uniform(-1, 1, 3))
        total = eval_explicit(ms1, p) + eval_explicit(ms2, p)
        assert np.max(np.abs(eval_explicit(ms12, p) - total)) < 1e-12


class TestBatchedExplicit:
    @pytest.mark.parametrize("coordinate, value", NON_FINITE)
    def test_non_finite_coordinate_gives_a_row_that_is_not_finite(self, all_monospecs, coordinate, value):
        assert_non_finite_row(eval_explicit, all_monospecs["alg_t4"], coordinate, value)

    @pytest.mark.parametrize("p", [("0.3", 0.4, -0.2), (0.3, None, -0.2), (0.3, 0.4, 10**400),
                                   [0.1, [0.2, 0.3], 0.4]], ids=["string", "none", "big-int", "ragged"])
    def test_a_point_that_is_not_numbers_is_refused(self, all_monospecs, p):
        # Refused by its dtype, not parsed: the routes and the residuals
        # share one reader, read_points.
        for fn in (eval_explicit, eval_special, cr_residual):
            with pytest.raises(ValueError, match=re.escape(f"a point is three numbers (x, y, z), got {p!r}")):
                fn(all_monospecs["alg_t4"], p)

    def test_complex_points(self, all_monospecs, rng):
        # Complex points, such as the circle rule's samples: the explicit and
        # Taylor routes agree there, and zero imaginary parts give the real
        # points' bits.
        for name, ms in all_monospecs.items():
            pts = rng.uniform(-1.0, 1.0, (4, 3)) + 1j * rng.uniform(-0.1, 0.1, (4, 3))
            ex = eval_explicit(ms, pts, order=1)
            assert np.max(np.abs(eval_special(ms, pts, 1) - ex)) <= 1e-12 * (1.0 + np.max(np.abs(ex))), name
            assert np.array_equal(eval_explicit(ms, pts.real + 0j), eval_explicit(ms, pts.real)), name

    @pytest.mark.parametrize("count", [1, 7, 64])
    def test_batch_equals_rows(self, all_monospecs, rng, count):
        for name, ms in all_monospecs.items():
            pts = rng.uniform(-1.5, 1.5, (count, 3))
            got = eval_explicit(ms, pts)
            rows = np.array([eval_explicit(ms, tuple(p)) for p in pts])
            assert got.shape == (count, ms.algebra.n), name
            assert np.max(np.abs(got - rows)) <= 1e-14 * np.max(np.abs(rows)), name

    def test_empty_batch(self, all_monospecs):
        for name, ms in all_monospecs.items():
            for r in (0, 2):
                for route in (eval_explicit, eval_special):
                    assert route(ms, np.zeros((0, 3)), order=r).shape == (0, ms.algebra.n), name

    @pytest.mark.parametrize("name", ["alg_r5", "trunc8", "general"])
    def test_empty_batch_every_kind(self, all_algebras, rng, name):
        # mixed_data puts a series leaf in the stack once n >= 5, so the
        # series domain check meets a batch of no points.
        spec = {"trunc8": lambda: truncated_poly(8), "general": lambda: general_cartan(rng)}.get(
            name, lambda: all_algebras[name])()
        F, G = mixed_data(spec)
        assert "series" in {f.kind for f in F + G}
        ms = MonogenicSpec.create(spec, random_triad(spec, rng), F, G)
        empty = np.zeros((0, 3))
        for r in (0, 2):
            for route in (eval_explicit, eval_special):
                assert route(ms, empty, order=r).shape == (0, spec.n), (route.__name__, r)
        assert eval_explicit(ms, empty, order=np.zeros(0, dtype=int)).shape == (0, spec.n)

    def test_cr_residual_default_path_is_one_batch(self, all_monospecs, monkeypatch):
        # One call on the 13 samples: Phi' at the point and 6 on each circle.
        calls = []
        pointwise = monogenic.eval_explicit

        def recording(ms, p, order=0):
            calls.append(np.shape(p))
            return pointwise(ms, p, order)

        monkeypatch.setattr(monogenic, "eval_explicit", recording)
        for name, ms in all_monospecs.items():
            p = (0.35, -0.2, 0.45)
            calls.clear()
            ry, rz = cr_residual(ms, p)
            assert calls == [(13, 3)], name
            ey, ez = cr_residual(ms, p, partials=pointwise_partials(ms, p, lambda q, r: pointwise(ms, q, r)))
            assert max(np.max(np.abs(ry - ey)), np.max(np.abs(rz - ez))) <= 1e-12, name

    @pytest.mark.parametrize("count", [1, 5])
    def test_cr_residual_rows_match_points(self, all_monospecs, rng, count):
        for name, ms in all_monospecs.items():
            pts = rng.uniform(-1.2, 1.2, (count, 3))
            ry, rz = cr_residual(ms, pts)
            assert ry.shape == rz.shape == (count, ms.algebra.n), name
            for p, gy, gz in zip(pts, ry, rz):
                ey, ez = cr_residual(ms, tuple(p))
                assert max(np.max(np.abs(gy - ey)), np.max(np.abs(gz - ez))) <= 1e-12, name


def record_quadrature(monkeypatch):
    """Log each contour monogenic integrates over and the size of each integrand call."""
    contours, sizes = [], []
    quad = monogenic.contour_integrate

    def counting(g, contour, **kw):
        contours.append(contour)

        def counted(t):
            sizes.append(len(t))
            return g(t)

        return quad(counted, contour, **kw)

    monkeypatch.setattr(monogenic, "contour_integrate", counting)
    return contours, sizes


class TestIntegral:
    @pytest.mark.parametrize("coordinate, value", NON_FINITE)
    def test_non_finite_point_is_refused(self, all_monospecs, monkeypatch, coordinate, value):
        # A ValueError naming the point before any arithmetic, not a message
        # about a circle within nan of nan+nanj.
        p = [0.3, 0.4, -0.2]
        p[coordinate] = value
        _, sizes = record_quadrature(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(f"the contour route needs a finite point, "
                                                           f"got {tuple(p)}")):
                eval_integral(all_monospecs["alg_t4"], p)
        assert sizes == []

    def test_three_way_agreement(self, all_monospecs, rng):
        for name, ms in all_monospecs.items():
            for _ in range(5):
                p = tuple(rng.uniform(-1.5, 1.5, 3))
                xi_v = spectrum(ms.triad, ms.algebra.m, *p)
                if len(xi_v) > 1 and np.min(np.abs(np.subtract.outer(xi_v, xi_v))
                                            + np.eye(len(xi_v))) < 0.1:
                    continue
                ex = eval_explicit(ms, p)
                assert np.max(np.abs(eval_integral(ms, p) - ex)) < 1e-8, name
                assert np.max(np.abs(eval_special(ms, p) - ex)) < 1e-12, name

    @pytest.mark.parametrize(
        "name", ["alg_ss2", "alg_d2", "alg_t4", "alg_p2", "alg_r5", "trunc10", "general"]
    )
    def test_integral_matches_explicit(self, all_monospecs, rng, name):
        # One circle around the spectrum, at r = 0..3, to 1e-12.
        if name in all_monospecs:
            ms = all_monospecs[name]
        else:
            spec = truncated_poly(10) if name == "trunc10" else general_cartan(rng)
            F, G = mixed_data(spec)
            ms = MonogenicSpec.create(spec, random_triad(spec, rng), F, G)
        for p in ((0.25, 0.4, -0.15), (-0.4, 0.6, 0.3), (0.1, -0.3, 0.5)):
            for r in range(4):
                ex = eval_explicit(ms, p, order=r)
                got = eval_integral(ms, p, r)
                assert np.max(np.abs(got - ex)) < 1e-12 * (1 + np.max(np.abs(ex))), (p, r)

    def test_one_integrand_call_per_point(self, all_monospecs, monkeypatch):
        # Smooth data converge at the first doubling: one call on the
        # 2 * DEFAULT_NODES nodes of the first two rules, with W(t) from the
        # stack and no scalar HoloFn.eval.
        _, sizes = record_quadrature(monkeypatch)

        def no_eval(*args):
            raise AssertionError("HoloFn.eval called")

        monkeypatch.setattr(HoloFn, "eval", no_eval)
        p = (0.25, 0.4, -0.15)
        for name, ms in all_monospecs.items():
            for r in range(4):
                sizes.clear()
                eval_integral(ms, p, r)
                assert sizes == [2 * DEFAULT_NODES], (name, r)

    @pytest.mark.parametrize("name", ["alg_ss2", "alg_p2"])
    def test_small_start_does_not_stop_early(self, all_algebras, monkeypatch, name):
        # xi_u = +-0.5 on the unit circle, delta = radius / 2, the closest
        # enclosing_contour allows: the poles spoil the 32- and 64-node rules
        # alike, so they disagree and the rule doubles before it returns.
        spec = all_algebras[name]
        a, b = [1.0, -1.0, 1j, 0.0][: spec.n], [1j, 2j, 0.0, 1.0][: spec.n]
        G = [HoloFn.sin(), HoloFn.poly([1.0, 0.0, 0.5])][: spec.n - spec.m]
        ms = MonogenicSpec.create(spec, TriadSpec.create(a, b), [HoloFn.exp(), HoloFn.exp()], G)
        p = (0.0, 0.5, 0.0)
        contours, sizes = record_quadrature(monkeypatch)
        for r in range(4):
            sizes.clear()
            got = eval_integral(ms, p, r)
            ex = eval_explicit(ms, p, order=r)
            assert contours[-1].center == 0 and contours[-1].radius == 1.0
            assert len(sizes) > 1, (r, sizes)
            assert np.max(np.abs(got - ex)) < 1e-12 * (1 + np.max(np.abs(ex))), r

    @pytest.mark.parametrize("table", ["b_coeffs", "q_table"])
    def test_reads_no_coefficient_table(self, all_monospecs, monkeypatch, table):
        # R^p comes from the Neumann series in the algebra: a table of the
        # explicit route, perturbed by 1e-6 relative, moves explicit values
        # and leaves every integral value's bits as they were.
        p = (0.25, 0.4, -0.15)
        specs = {name: ms for name, ms in all_monospecs.items() if ms.algebra.n > ms.algebra.m}
        before = {name: [(eval_explicit(ms, p, order=r), eval_integral(ms, p, r)) for r in range(4)]
                  for name, ms in specs.items()}
        b_coeffs, original = resolvent.b_coeffs, getattr(resolvent, table)
        monkeypatch.setattr(resolvent, table, lambda *args: original(*args) * (1 + 1e-6))
        moved = []
        for name, ms in specs.items():
            T = t_coeffs(ms.algebra, ms.triad, p[1], p[2])
            for r, (ex, integral) in enumerate(before[name]):
                assert eval_integral(ms, p, r).tobytes() == integral.tobytes(), (name, r)
                shift = np.max(np.abs(eval_explicit(ms, p, order=r) - ex)) / np.max(np.abs(ex))
                # B enters explicit values only through Q_k, k >= 3.
                if table == "q_table" or np.any(b_coeffs(ms.algebra, T) != 0):
                    assert shift > 1e-9, (name, r)
                    moved.append(name)
        assert set(moved) == set(specs) if table == "q_table" else moved

    def test_overflowing_data_raise_after_one_call(self, all_monospecs, monkeypatch):
        # exp(800) overflows on the circle: HoloDomainError naming the point
        # after the first integrand call, not 4096 nodes and UnstableQuadrature.
        ms = all_monospecs["alg_ss2"]
        _, sizes = record_quadrature(monkeypatch)
        text = r"the value at \(800\.0, 0\.1, 0\.1\) is not finite: the data overflow there"
        with np.errstate(over="ignore", invalid="ignore"):
            for r in range(3):
                sizes.clear()
                with pytest.raises(HoloDomainError, match=text):
                    eval_integral(ms, (800, 0.1, 0.1), r)
                assert sizes == [2 * DEFAULT_NODES], r
            with pytest.raises(HoloDomainError, match=text):
                eval_integral(ms, (800.0, 0.1, 0.1), 2)

    @pytest.mark.parametrize("name", ["alg_ss2", "alg_t4"])
    def test_circle_lost_in_the_rounding_of_its_centre_raises(self, all_monospecs, monkeypatch,
                                                             name):
        # At 1e16 a float64 steps by 2, so centre + 1 is the centre: the
        # radius-1 circle's nodes would round onto it, and onto the spectrum
        # point there.  Refused before the first integrand call, without a
        # divide-by-zero warning.
        ms = all_monospecs[name]
        _, sizes = record_quadrature(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for x in (1e16, -3e16):
                with pytest.raises(HoloDomainError, match=rf"no contour route at the point "
                                                          rf"\({re.escape(repr(x))}, 0\.0, 0\.0\): "
                                                          rf"the circle of radius 1\.0 about"):
                    eval_integral(ms, (x, 0.0, 0.0))
        assert sizes == []

    def test_unconverged_quadrature_raises(self, alg_ss2, monkeypatch):
        # F_1 = cos(60 xi) reaches e^60 on the circle around the near-
        # coincident spectrum at (0.3, 1e-6, 0), so rounding keeps successive
        # rules apart: UnstableQuadrature at the node cap, never a value.
        ms = MonogenicSpec.create(alg_ss2, fixture_triad("alg_ss2"),
                                  [HoloFn.cos(scale=60.0), HoloFn.exp()])
        _, sizes = record_quadrature(monkeypatch)
        with pytest.raises(UnstableQuadrature, match=f"did not stabilize to 1e-10 at {MAX_NODES} nodes"):
            eval_integral(ms, (0.3, 1e-6, 0.0), 3)
        assert sum(sizes) == MAX_NODES

    @pytest.mark.parametrize("shape", [(3, 3), (1, 3), (3, 1), ()])
    def test_more_than_one_point_is_refused(self, all_monospecs, shape):
        # The contour route takes one point: a batch is one ValueError that
        # says so and names its shape, at every order.
        ms = all_monospecs["alg_t4"]
        p = np.full(shape, 0.2)
        text = rf"takes one point \(x, y, z\), got an array of shape {re.escape(str(shape))}"
        with pytest.raises(ValueError, match=text):
            eval_integral(ms, p)
        with pytest.raises(ValueError, match=text):
            eval_integral(ms, p, 2)

    def test_a_ragged_point_is_refused(self, all_monospecs):
        with pytest.raises(ValueError, match=r"takes one point \(x, y, z\), got \[0\.1, \[0\.2, 0\.3\], 0\.4\]"):
            eval_integral(all_monospecs["alg_t4"], [0.1, [0.2, 0.3], 0.4])

    @pytest.mark.parametrize("p", [("0.3", 0.4, -0.2), (0.3, None, -0.2), (0.3, 0.4, 10**400),
                                   (0.3 + 0j, 0.4, -0.2)])
    def test_a_point_that_is_not_three_numbers_is_refused(self, all_monospecs, p):
        # Refused by its type, not parsed: a string coordinate is no number.
        with pytest.raises(ValueError, match=re.escape(f"takes one point (x, y, z), got {p!r}")):
            eval_integral(all_monospecs["alg_t4"], p)

    def test_one_point_as_a_tuple_or_an_array(self, all_monospecs):
        for name, ms in all_monospecs.items():
            for r in range(3):
                got = eval_integral(ms, (0.25, 0.4, -0.15), r)
                assert got.shape == (ms.algebra.n,)
                for p in (np.array([0.25, 0.4, -0.15]), [0.25, 0.4, -0.15]):
                    assert eval_integral(ms, p, r).tobytes() == got.tobytes(), (name, r)

    def test_coincident_spectrum_shares_contour(self, all_monospecs):
        # On the x axis every xi_u collapses to x; the one circle around
        # them still reproduces the explicit value.
        for name, ms in all_monospecs.items():
            p = (0.5, 0.0, 0.0)
            ex = eval_explicit(ms, p)
            assert np.max(np.abs(eval_integral(ms, p) - ex)) < 1e-8, name

    def test_near_coincident_matches_explicit(self, alg_ss2):
        triad = TriadSpec.create([1j, 1j + 1e-11], [0.3, 0.3])
        ms = MonogenicSpec.create(alg_ss2, triad, [HoloFn.exp(), HoloFn.exp()])
        p = (0.0, 1.0, 0.0)
        assert np.max(np.abs(eval_integral(ms, p) - eval_explicit(ms, p))) < 1e-10

    @pytest.mark.parametrize("gap", [1e-6, 1e-11, 0.0])
    def test_near_coincident_spectra(self, alg_ss2, gap):
        # xi_1 - xi_2 = i * gap, one circle of radius 1 around both.
        triad = TriadSpec.create([1j + 1j * gap, 1j], [0.3, 0.3])
        ms = MonogenicSpec.create(alg_ss2, triad, [HoloFn.exp(), HoloFn.sin(scale=0.7)])
        p = (0.3, 1.0, -0.2)
        for r in range(4):
            ex = eval_explicit(ms, p, order=r)
            got = eval_integral(ms, p, r)
            assert np.max(np.abs(got - ex)) < 1e-12 * (1 + np.max(np.abs(ex))), r

    def test_series_domain_caps_the_circle(self, alg_d2):
        # A series F of radius 1 centred on the lone xi: the circle shrinks
        # to 0.9 minus a rounding margin and stays in the series' domain.
        triad = fixture_triad("alg_d2")
        p = (0.2, 0.3, -0.1)
        f = HoloFn.series(complex(xi(triad, p, 1)), [1.0, 0.5, 0.25, 0.125], radius=1.0)
        ms = MonogenicSpec.create(alg_d2, triad, [f], [HoloFn.exp()])
        for r in range(4):
            ex = eval_explicit(ms, p, order=r)
            got = eval_integral(ms, p, r)
            assert np.max(np.abs(got - ex)) < 1e-12 * (1 + np.max(np.abs(ex))), r

    def test_no_enclosing_circle_raises(self, alg_ss2):
        # xi_1, xi_2 = -0.6 + 0.6i, 0.6 + 0.6i: a chord near the edge of
        # F_1's safe disc (0.9 about 0) leaves no radius above 1.1 * 0.6.
        triad = TriadSpec.create([0.6j, 0.6j], [-0.6, 0.6])
        f = HoloFn.series(0.0, [1.0, 0.5], radius=1.0)
        ms = MonogenicSpec.create(alg_ss2, triad, [f, HoloFn.exp()])
        p = (0.0, 1.0, 1.0)
        assert np.allclose(spectrum(triad, alg_ss2.m, *p), [-0.6 + 0.6j, 0.6 + 0.6j])
        eval_explicit(ms, p)
        with pytest.raises(HoloDomainError, match="series"):
            eval_integral(ms, p)


class TestSpecial:
    def test_prop2_formula(self, alg_p2):
        triad = fixture_triad("alg_p2")
        F = [HoloFn.exp(), HoloFn.sin()]
        G = [HoloFn.poly([0.0, 1.0]), HoloFn.cos()]
        ms = MonogenicSpec.create(alg_p2, triad, F, G)
        p = (0.4, -0.7, 0.9)
        xi_v = spectrum(triad, alg_p2.m, *p)
        T = t_coeffs(alg_p2, triad, p[1], p[2])
        expect = np.zeros(4, dtype=np.complex128)
        expect[0] = F[0].eval(0, xi_v[0])
        expect[1] = F[1].eval(0, xi_v[1])
        expect[2] = G[0].eval(0, xi_v[0]) + T[0] * F[0].eval(1, xi_v[0])
        expect[3] = G[1].eval(0, xi_v[1]) + T[1] * F[1].eval(1, xi_v[1])
        got = eval_special(ms, p)
        assert np.max(np.abs(got - expect)) < 1e-14
        assert np.max(np.abs(eval_explicit(ms, p) - expect)) < 1e-14

    def test_semisimple_path(self, all_monospecs):
        ms = all_monospecs["alg_ss2"]
        p = (1.0, 0.5, 0.2)
        assert np.array_equal(eval_special(ms, p), eval_explicit(ms, p))

    def test_prop1_collapses_to_single_xi(self, all_monospecs):
        ms = all_monospecs["alg_t4"]
        p = (0.3, 0.7, -0.4)
        assert np.max(np.abs(eval_special(ms, p) - eval_explicit(ms, p))) < 1e-12

    def test_general_algebra_equals_explicit(self, rng):
        spec = AlgebraSpec.create(5, 2, [], {3: 1, 4: 1, 5: 2})
        assert spec.classify_special_case() is SpecialCase.GENERAL
        triad = random_triad(spec, rng)
        ms = MonogenicSpec.create(
            spec, triad, [HoloFn.exp(), HoloFn.sin()], [HoloFn.zero()] * 3
        )
        p = (0.1, 0.2, 0.3)
        ex = eval_explicit(ms, p)
        assert np.max(np.abs(eval_special(ms, p) - ex)) <= 1e-12 * (1 + np.max(np.abs(ex)))

    @pytest.mark.parametrize(
        "name", ["alg_ss2", "alg_d2", "alg_t4", "alg_p2", "alg_r5", "general", "trunc16"]
    )
    def test_equals_explicit_at_every_order(self, all_monospecs, rng, name):
        if name in all_monospecs:
            ms = all_monospecs[name]
        else:
            spec = general_cartan(rng) if name == "general" else truncated_poly(16)
            ms = MonogenicSpec.create(spec, random_triad(spec, rng), *mixed_data(spec))
        for count in (1, 7, 40):
            pts = rng.uniform(-1.2, 1.2, (count, 3))
            for r in range(4):
                batch = eval_special(ms, pts, order=r)
                ex = eval_explicit(ms, pts, order=r)
                assert batch.shape == (count, ms.algebra.n)
                assert np.max(np.abs(batch - ex)) <= 1e-12 * (1 + np.max(np.abs(ex))), (count, r)
                for p, row in zip(pts, batch):
                    assert np.array_equal(row, eval_special(ms, tuple(p), order=r)), (count, r)

    def test_negative_order_rejected(self, all_monospecs):
        with pytest.raises(ValueError):
            eval_special(all_monospecs["alg_t4"], (0.1, 0.2, 0.3), order=-1)

    @pytest.mark.parametrize("coordinate, value", NON_FINITE)
    def test_non_finite_coordinate_gives_a_row_that_is_not_finite(self, all_monospecs, coordinate, value):
        assert_non_finite_row(eval_special, all_monospecs["alg_t4"], coordinate, value)


# Each Gateaux test runs on both routes, so the contour route keeps its
# coverage as the cross-check of the explicit one.
# Phi^(r), r >= 1, by the explicit and the contour route.
ROUTES = {"explicit": gateaux_derivative, "integral": eval_integral}


class TestGateaux:
    def test_semisimple_square_derivative(self, alg_ss2):
        triad = fixture_triad("alg_ss2")
        ms = MonogenicSpec.create(alg_ss2, triad, [HoloFn.poly([0.0, 0.0, 1.0])] * 2)
        p = (0.6, 0.3, -0.2)
        xi_v = spectrum(triad, alg_ss2.m, *p)
        for method, derivative in ROUTES.items():
            got = derivative(ms, p, 1)
            assert np.max(np.abs(got - 2 * xi_v)) < 1e-10, method

    def test_d2_exp_reproduces(self, alg_d2):
        triad = fixture_triad("alg_d2")
        ms = MonogenicSpec.create(alg_d2, triad, [HoloFn.exp()], [HoloFn.zero()])
        p = (0.1, 0.5, -0.3)
        for method, derivative in ROUTES.items():
            got = derivative(ms, p, 1)
            assert np.max(np.abs(got - eval_explicit(ms, p))) < 1e-10, method

    def test_directional_definition(self, all_monospecs):
        eps = 1e-6
        for name, ms in all_monospecs.items():
            spec, triad = ms.algebra, ms.triad
            p = (0.25, 0.4, -0.15)
            base = eval_explicit(ms, p)
            dirs = {
                "e1": (spec.unit(), (1.0, 0.0, 0.0)),
                "e2": (triad.a_vec, (0.0, 1.0, 0.0)),
                "e3": (triad.b_vec, (0.0, 0.0, 1.0)),
            }
            scale = 1.0 + float(np.max(np.abs(base)))
            for method, derivative in ROUTES.items():
                deriv = derivative(ms, p, 1)
                for h_vec, h_dir in dirs.values():
                    q = tuple(c + eps * d for c, d in zip(p, h_dir))
                    quotient = (eval_explicit(ms, q) - base) / eps
                    expect = spec.multiply(h_vec, deriv)
                    assert np.max(np.abs(quotient - expect)) < 1e-5 * scale, (name, method)

    def test_derivative_tower(self, all_monospecs):
        # Second derivative equals a finite difference of the first.
        h = 1e-4
        for name, ms in all_monospecs.items():
            p = (0.2, 0.3, -0.1)
            for method, derivative in ROUTES.items():
                d2 = derivative(ms, p, 2)
                up = derivative(ms, (p[0] + h, p[1], p[2]), 1)
                dn = derivative(ms, (p[0] - h, p[1], p[2]), 1)
                fd = (up - dn) / (2 * h)  # d/dx Phi' = e1 * Phi'' = Phi''
                assert np.max(np.abs(d2 - fd)) < 1e-4, (name, method)

    def test_derivative_is_monogenic(self, all_monospecs):
        # The explicit route's Phi' at the circle samples, which are complex;
        # the contour route takes real points only, so its partials are the
        # oracle's central differences (step 1e-4).
        partials = [PdeSpec.create(1, [(*e, 1.0)]) for e in monogenic.CR_TERMS]
        for name, ms in all_monospecs.items():
            p = (0.35, -0.2, 0.45)
            scale = 1.0 + float(np.max(np.abs(gateaux_derivative(ms, p, 1))))
            derived = pointwise_partials(ms, p, lambda q, r: gateaux_derivative(ms, q, r + 1))
            ry, rz = cr_residual(ms, p, partials=derived)
            assert max(np.max(np.abs(ry)), np.max(np.abs(rz))) < 1e-9 * scale, name
            dx, dy, dz = (apply_operator(lambda q: eval_integral(ms, q, 1), d, p, 1e-4) for d in partials)
            ry, rz = (dq - ms.algebra.multiply(dx, e) for dq, e in ((dy, ms.triad.a_vec), (dz, ms.triad.b_vec)))
            assert max(np.max(np.abs(ry)), np.max(np.abs(rz))) < 1e-5 * scale, name

    def test_order_must_be_positive(self, all_monospecs):
        with pytest.raises(ValueError):
            gateaux_derivative(all_monospecs["alg_d2"], (0, 0, 0), 0)
        with pytest.raises(ValueError):
            eval_integral(all_monospecs["alg_d2"], (0.1, 0.2, 0.3), -1)

    def test_routes_agree(self, all_monospecs):
        for name, ms in all_monospecs.items():
            for p in ((0.25, 0.4, -0.15), (-0.4, 0.6, 0.3)):
                for r in (1, 2, 3):
                    ex = gateaux_derivative(ms, p, r)
                    dev = np.max(np.abs(eval_integral(ms, p, r) - ex))
                    assert dev < 1e-10 * (1.0 + np.max(np.abs(ex))), (name, p, r, dev)

    @pytest.mark.parametrize("y", [1e-6, 1e-7])
    def test_near_coincident_closed_form(self, alg_ss2, y):
        # xi_1 - xi_2 = i y: the integral route does not converge here for
        # r >= 2, while exp data give Phi^(r) = exp(xi_u) in every component.
        triad = fixture_triad("alg_ss2")
        ms = MonogenicSpec.create(alg_ss2, triad, [HoloFn.exp(), HoloFn.exp()])
        p = (0.3, y, 0.0)
        expect = np.exp(spectrum(triad, alg_ss2.m, *p))
        for r in (1, 2, 3):
            assert np.max(np.abs(gateaux_derivative(ms, p, r) - expect)) < 1e-12, r

    @pytest.mark.parametrize("count", [1, 7])
    def test_order_batch_rows_match_points(self, all_monospecs, rng, count):
        for name, ms in all_monospecs.items():
            pts = rng.uniform(-1.2, 1.2, (count, 3))
            for r in (1, 2, 3):
                batch = eval_explicit(ms, pts, order=r)
                assert batch.shape == (count, ms.algebra.n), name
                for p, row in zip(pts, batch):
                    assert np.array_equal(row, eval_explicit(ms, tuple(p), order=r)), (name, r)


class TestCauchyRiemann:
    def test_polynomial_data_tight(self, alg_t4):
        triad = fixture_triad("alg_t4")
        ms = MonogenicSpec.create(
            alg_t4,
            triad,
            [HoloFn.poly([1.0, 0.5, -0.25])],
            [HoloFn.poly([0.0, 1.0]), HoloFn.poly([2.0]), HoloFn.poly([0.0, 0.0, 1.0])],
        )
        ry, rz = cr_residual(ms, (0.4, -0.6, 0.2))
        assert max(np.max(np.abs(ry)), np.max(np.abs(rz))) < 1e-9

    def test_exp_data(self, all_monospecs):
        ms = all_monospecs["alg_d2"]
        ry, rz = cr_residual(ms, (0.0, 1.0, 0.0))
        assert max(np.max(np.abs(ry)), np.max(np.abs(rz))) < 1e-6

    def test_all_fixtures_random_points(self, all_monospecs, rng):
        for name, ms in all_monospecs.items():
            for _ in range(20):
                p = tuple(rng.uniform(-1.5, 1.5, 3))
                scale = 1.0 + float(np.max(np.abs(eval_explicit(ms, p))))
                ry, rz = cr_residual(ms, p)
                res = max(float(np.max(np.abs(ry))), float(np.max(np.abs(rz))))
                assert res <= 1e-6 * scale, (name, p, res)

    def test_series_near_its_safe_radius(self, alg_ss2):
        # xi_1 = 0.3 lies 0.01 inside the series' safe disc (0.9 of its
        # radius): the circles shrink with that margin, so every sample stays
        # inside the disc, where a radius of 1/32 would leave it.
        series = HoloFn.series(0.0, [1.0, 0.5, 0.25, 0.125, 0.0625], 0.31 / 0.9)
        ms = MonogenicSpec.create(alg_ss2, fixture_triad("alg_ss2"), [series, HoloFn.exp()])
        ry, rz = cr_residual(ms, (0.3, 0.0, 0.0))
        assert max(np.max(np.abs(ry)), np.max(np.abs(rz))) < 1e-9
        with pytest.raises(HoloDomainError, match="series evaluated at distance"):
            eval_explicit(ms, (0.3 + 1 / 32, 0.0, 0.0))

    def test_negative_control_wrong_xi_index(self, alg_p2):
        # Evaluate G_s at the other idempotent's xi: residual must blow up.
        triad = fixture_triad("alg_p2")
        F = [HoloFn.exp(), HoloFn.sin()]
        G = [HoloFn.sin(), HoloFn.cos()]
        ms = MonogenicSpec.create(alg_p2, triad, F, G)
        partials = pointwise_partials(ms, (0.4, 0.8, -0.3), lambda q, r: wrong_xi_values(ms, q, r))
        ry, rz = cr_residual(ms, (0.4, 0.8, -0.3), partials=partials)
        assert max(np.max(np.abs(ry)), np.max(np.abs(rz))) > 1e-3


class TestComponents:
    def test_unit_components(self, alg_p2):
        assert extract_components(alg_p2.unit()) == [1.0, 1.0, 0.0, 0.0]

    def test_roundtrip(self, alg_r5, rng):
        v = (rng.uniform(-1, 1, 5) + 1j * rng.uniform(-1, 1, 5))
        comps = extract_components(v)
        rebuilt = sum(c * basis(alg_r5, k + 1) for k, c in enumerate(comps))
        assert np.array_equal(rebuilt, v)

    def test_d2_exp_components(self, alg_d2):
        triad = fixture_triad("alg_d2")
        ms = MonogenicSpec.create(alg_d2, triad, [HoloFn.exp()], [HoloFn.zero()])
        p = (0.3, -0.4, 0.6)
        comps = extract_components(eval_explicit(ms, p))
        xi1 = xi(triad, p, 1)
        T = t_coeffs(alg_d2, triad, p[1], p[2])
        assert abs(comps[0] - np.exp(xi1)) < 1e-14
        assert abs(comps[1] - T[0] * np.exp(xi1)) < 1e-14


def truncated_poly(n):
    """C[eps]/(eps^n) with I_k = eps^(k-1): m = 1, every product is one I_k."""
    upsilon = [(r, s, r + s - 1, 1.0) for r in range(2, n + 1) for s in range(r, n + 2 - r)]
    return AlgebraSpec.create(n, 1, upsilon, {s: 1 for s in range(2, n + 1)})


def general_cartan(rng):
    """C[rho]/rho^6 (+) C[rho]/rho^5 in a skewed radical basis: m = 2, General."""
    return skewed_basis(direct_sum_truncated(6, 5), rng)


def mixed_data(spec):
    """F and G cycling through every kind."""
    kinds = [
        HoloFn.poly([1.0, -0.5j, 0.25, 0.1 + 0.2j], scale=0.9 + 0.1j),
        HoloFn.exp(amp=0.8 - 0.2j, scale=0.7 + 0.2j, shift=0.1),
        HoloFn.sin(scale=0.6 - 0.3j),
        HoloFn.cos(amp=1.2j, shift=-0.2j),
        HoloFn.series(0.1j, [1.0, 0.5, -0.25j, 0.125, 0.1, -0.05j], radius=50.0, amp=0.7),
        HoloFn.exp(amp=0.6 + 0.3j, scale=0.5, shift=-0.2j),
    ]
    fns = [kinds[i % len(kinds)] for i in range(spec.n)]
    return fns[: spec.m], fns[spec.m :]


class TestRowsAtHigherOrder:
    """Rows of a batch equal pointwise calls beyond the fixtures' n <= 5."""

    def test_general_algebra_is_general(self, rng):
        spec = general_cartan(rng)
        assert validate_algebra(spec) == []
        assert spec.classify_special_case() is SpecialCase.GENERAL
        assert np.iscomplexobj(spec.products[1])
        assert np.any(np.imag(list(spec.upsilon.values())))
        # Some B[r, p] sums several T_s.
        assert most_terms_per_b(spec) >= 3

    @pytest.mark.parametrize("name", ["trunc8", "trunc16", "general"])
    def test_order_batch_rows_match_points(self, rng, name):
        spec = {
            "trunc8": lambda: truncated_poly(8),
            "trunc16": lambda: truncated_poly(16),
            "general": lambda: general_cartan(rng),
        }[name]()
        assert validate_algebra(spec) == []
        F, G = mixed_data(spec)
        ms = MonogenicSpec.create(spec, random_triad(spec, rng), F, G)
        for count in (1, 7, 40):
            pts = rng.uniform(-1.0, 1.0, (count, 3))
            for r in range(4):
                batch = eval_explicit(ms, pts, order=r)
                assert batch.shape == (count, spec.n)
                assert np.all(np.isfinite(batch))
                for p, row in zip(pts, batch):
                    assert np.array_equal(row, eval_explicit(ms, tuple(p), order=r)), (name, count, r)

    def test_one_product_rows_match_points(self, alg_d2, rng):
        # alg_d2's term list has one (term, order) product, so a pointwise
        # call multiplies one-element arrays, which numpy rounds by another
        # loop when the product is taken in place.
        F, G = mixed_data(alg_d2)
        ms = MonogenicSpec.create(alg_d2, random_triad(alg_d2, rng), F, G)
        pts = rng.uniform(-1.2, 1.2, (40, 3))
        for r in range(4):
            for p, row in zip(pts, eval_explicit(ms, pts, order=r)):
                assert np.array_equal(row, eval_explicit(ms, tuple(p), order=r)), (p, r)

    def test_general_algebra_against_integral(self, rng):
        spec = general_cartan(rng)
        F, G = mixed_data(spec)
        ms = MonogenicSpec.create(spec, random_triad(spec, rng), F, G)
        p = (0.2, 0.6, -0.3)
        ex = eval_explicit(ms, p)
        assert np.max(np.abs(eval_integral(ms, p) - ex)) < 1e-10 * (1 + np.max(np.abs(ex)))
        for r in (1, 2):
            ex = eval_explicit(ms, p, order=r)
            dev = np.max(np.abs(eval_integral(ms, p, r) - ex))
            assert dev < 1e-9 * (1 + np.max(np.abs(ex))), r


class TestOrderPerPoint:
    """eval_explicit with one Gateaux order per point, from one derivative table."""

    ORDERS = [0, 2, 0, 3, 2]

    @pytest.fixture(scope="class")
    def pinned_specs(self):
        from test_pinned_bits import monospecs

        return monospecs()

    def test_rows_equal_scalar_calls(self, pinned_specs, rng):
        # The families of tests/test_pinned_bits.py, every kind of data.
        pts = rng.uniform(-0.6, 0.6, (len(self.ORDERS), 3))
        for name, ms in pinned_specs.items():
            for orders in (self.ORDERS, [1] * 5, [4, 0, 0, 0, 0]):
                batch = eval_explicit(ms, pts, order=np.array(orders))
                assert batch.shape == (len(pts), ms.algebra.n)
                for p, r, row in zip(pts, orders, batch):
                    assert np.array_equal(row, eval_explicit(ms, tuple(p), order=r)), (name, orders)
            one = eval_explicit(ms, tuple(pts[0]), order=[3])
            assert np.array_equal(one, eval_explicit(ms, tuple(pts[0]), order=3)), name

    def test_one_table_per_order_range(self, pinned_specs):
        ms = pinned_specs["alg_t4"]
        pts = np.array([[0.1, 0.2, 0.3], [0.3, -0.1, 0.2]])
        eval_explicit(ms, pts, order=[1, 3])
        wide = ms.derivative_stack(1, 2)
        assert ms.derivative_stack(1, 2) is wide
        K = ms.algebra.explicit_plan.orders
        assert np.array_equal(np.diff(wide.offsets), K[:-1] + 3)
        # Row i of the wide table read from entry w on is the table at order 1 + w.
        xi_v = spectrum(ms.triad, ms.algebra.m, *pts.T).T[ms.algebra.explicit_plan.owner]
        table = wide(xi_v)
        for w in range(3):
            narrow = ms.derivative_stack(1 + w)
            at = np.concatenate([np.arange(k + 1) + o + w for k, o in zip(K, wide.offsets)])
            assert np.array_equal(table[at], narrow(xi_v)), w

    def test_empty_batch(self, all_monospecs):
        for name, ms in all_monospecs.items():
            got = eval_explicit(ms, np.zeros((0, 3)), order=np.zeros(0, dtype=int))
            assert got.shape == (0, ms.algebra.n), name

    @pytest.mark.parametrize(
        "order",
        [-1, [0, -1, 2], [0, 1], [0, 1, 2, 3], [0.0, 1.0, 2.0], [[0, 1, 2]]],
        ids=["negative", "negative-in-array", "short", "long", "floats", "2-d"],
    )
    def test_bad_orders_raise(self, all_monospecs, order):
        ms = all_monospecs["alg_t4"]
        pts = np.array([[0.1, 0.2, 0.3], [0.3, -0.1, 0.2], [0.0, 0.4, -0.3]])
        with pytest.raises(ValueError):
            eval_explicit(ms, pts, order=order)
