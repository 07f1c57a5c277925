import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from monogenica import (
    LAPLACE,
    HoloFn,
    MonogenicSpec,
    NoZeroFound,
    PdeSpec,
    TriadSpec,
    ZeroAt,
    central_stencil,
    characteristic_residual,
    definite_sign,
    eval_explicit,
    operator_identity_check,
    p_nonvanishing_scan,
    p_poly,
    pde_from_dict,
    pde_residual,
)

from monogenica import pde as pde_mod
from monogenica.algebra import AlgebraSpec

from conftest import fixture_triad
from oracles import EXTREMES, apply_operator, functional_f, nonvanishing_scan, xi

WAVE = PdeSpec.create(2, [(2, 0, 0, 1.0), (0, 2, 0, -1.0)])

# Third-order operator d^3/dx^3 + d/dx d^2/dy^2 + d/dx d^2/dz^2; a harmonic
# triad is characteristic for it since e1 * (e1^2 + e2^2 + e3^2) = 0.
ORDER3 = PdeSpec.create(3, [(3, 0, 0, 1.0), (1, 2, 0, 1.0), (1, 0, 2, 1.0)])

# Order five with nested exponents; characteristic for a = (i/sqrt(2), i),
# b = (1, 0) on the two-idempotent semi-simple algebra.
ORDER5 = PdeSpec.create(5, [(5, 0, 0, 1.0), (3, 2, 0, 1.0), (1, 2, 2, 1.0)])
ORDER5_TRIAD = TriadSpec.create([1j / math.sqrt(2.0), 1j], [1.0, 0.0])

# Laplace-characteristic triads for the radical test algebras: the full
# algebra element 1 + e2^2 + e3^2 vanishes, not just its idempotent part.
HARMONIC_D2 = TriadSpec.create([1j, 0.0], [0.0, 1.0])
HARMONIC_T4 = TriadSpec.create([1j, 0.0, 0.5j, 0.0], [0.0, 1.0, 0.0, 0.0])


class TestPdeSpec:
    def test_exponent_sum_enforced(self):
        with pytest.raises(ValueError):
            PdeSpec.create(2, [(1, 0, 0, 1.0)])
        with pytest.raises(ValueError):
            PdeSpec.create(0, [])
        with pytest.raises(ValueError):
            PdeSpec.create(2, [(-1, 3, 0, 1.0)])

    @pytest.mark.parametrize("N, term, error", [
        (2, (2.5, 0, 0, 1.0), "not an integer: 2.5"),
        (2, ("2", 0, 0, 1.0), "not an integer: '2'"),
        (2, (True, 1, 0, 1.0), "not an integer: True"),
        (2.0, (2, 0, 0, 1.0), "not an integer: 2.0"),
        (2, (2, 0, 0, "1e0"), "not a finite number: '1e0'"),
        (2, (2, 0, 0, math.nan), "not a finite number: nan"),
    ], ids=["fraction", "string", "bool", "float-order", "string-coefficient", "nan-coefficient"])
    def test_numbers_are_read_as_a_job_files_are(self, N, term, error):
        # holo.parse_int and parse_real, not int() and float(): 2.5 is not
        # truncated to 2, nor "2" or True read as an integer.
        with pytest.raises(ValueError, match=re.escape(error)):
            PdeSpec.create(N, [term])

    def test_laplace_terms(self):
        assert LAPLACE.N == 2
        assert len(LAPLACE.terms) == 3

    def test_from_dict(self):
        pde = pde_from_dict({"N": 2, "terms": [[2, 0, 0, 1.0], [0, 2, 0, -1.0]]})
        assert pde == WAVE


class TestCharacteristic:
    def test_harmonic_triad_is_characteristic(self, alg_ss2):
        triad = fixture_triad("alg_ss2")
        res = characteristic_residual(alg_ss2, triad, LAPLACE)
        assert np.max(np.abs(res)) < 1e-12

    def test_all_real_triad_is_not(self, alg_ss2):
        triad = TriadSpec.create([1.0, 2.0], [3.0, 4.0])
        res = characteristic_residual(alg_ss2, triad, LAPLACE)
        assert np.max(np.abs(res)) > 1.0

    def test_componentwise_equals_scalar_identity(self, alg_ss2):
        # f_u of the residual is 1 + a_u^2 + b_u^2 for the Laplacian.
        triad = TriadSpec.create([0.5j, 2.0 + 1j], [1.0, -0.3j])
        res = characteristic_residual(alg_ss2, triad, LAPLACE)
        for u in (1, 2):
            scalar = 1.0 + triad.a[u - 1] ** 2 + triad.b[u - 1] ** 2
            assert abs(res[u - 1] - scalar) < 1e-14

    def test_radical_harmonic_triads(self, alg_d2, alg_t4):
        for spec, triad in ((alg_d2, HARMONIC_D2), (alg_t4, HARMONIC_T4)):
            res = characteristic_residual(spec, triad, LAPLACE)
            assert np.max(np.abs(res)) < 1e-12

    def test_order3_harmonic(self, alg_ss2):
        res = characteristic_residual(alg_ss2, fixture_triad("alg_ss2"), ORDER3)
        assert np.max(np.abs(res)) < 1e-12

    def test_order5_stored_triad(self, alg_ss2):
        res = characteristic_residual(alg_ss2, ORDER5_TRIAD, ORDER5)
        assert np.max(np.abs(res)) < 1e-12

    def test_laplace_takes_two_products(self, alg_t4, monkeypatch):
        # e2^2 and e3^2; the unit factors of e1^2, e2^2 and e3^2 take none.
        calls = []
        multiply = AlgebraSpec.multiply
        monkeypatch.setattr(AlgebraSpec, "multiply",
                            lambda self, a, b: calls.append(1) or multiply(self, a, b))
        res = characteristic_residual(alg_t4, HARMONIC_T4, LAPLACE)
        assert len(calls) == 2
        assert np.max(np.abs(res)) < 1e-12


def scan_bits(result):
    """A scan result with its coordinates as float.hex, so -0.0 differs from 0.0."""
    if isinstance(result, ZeroAt):
        return ("ZeroAt", result.a.hex(), result.b.hex())
    return type(result).__name__


@st.composite
def symbols(draw):
    """(family, P(a, b)): symbols of order 2 or 4 from four families, one per branch of the scan.

    Each is drawn with either sign, so P <= 0 everywhere, the scan's argmax
    branch, is drawn as often as P >= 0.  definite: a positive constant
    plus positive even terms, which definite_sign settles; grid-zero: c
    a^k, zero along a = 0 and of one sign for even k, or c (a^k - b^k);
    interior: c0 + c1 a^2 - c2 b^2, a sign change inside the box; leading:
    a constant above 100 plus a^2 - b^2, of one sign on the box with a
    leading part of both signs.  The last three have an odd exponent, mixed
    signs or no constant, so the grid, rays and bisection run on them.
    """
    family = draw(st.sampled_from(["definite", "grid-zero", "interior", "leading"]))
    N = draw(st.sampled_from([2, 4]))
    c = [draw(st.floats(0.05, 20.0)) for _ in range(4)]
    if family == "definite":
        terms = [(N, 0, 0, c[0]), (N - 2, 2, 0, c[1]), (N - 2, 0, 2, c[2])]
        if N == 4:
            terms.append((0, 2, 2, c[3]))
    elif family == "grid-zero":
        k = draw(st.integers(1, N))
        terms = [(N - k, k, 0, c[0])]
        if draw(st.booleans()):
            terms.append((N - k, 0, k, -c[0]))
    elif family == "interior":
        terms = [(N, 0, 0, c[0]), (N - 2, 2, 0, c[1]), (N - 2, 0, 2, -c[2])]
    else:
        terms = [(N, 0, 0, draw(st.floats(101.0, 1e4))), (N - 2, 2, 0, 1.0), (N - 2, 0, 2, -1.0)]
    sign = draw(st.sampled_from([1.0, -1.0]))
    return family, PdeSpec.create(N, draw(st.permutations([(*t[:3], sign * t[3]) for t in terms])))


class TestSymbolScan:
    def test_p_poly_values(self):
        assert p_poly(LAPLACE.terms, 2.0, 3.0) == 14.0
        assert p_poly(WAVE.terms, 2.0, 7.0) == -3.0

    def test_laplace_has_no_real_zero(self):
        assert isinstance(p_nonvanishing_scan(LAPLACE), NoZeroFound)

    def test_order3_and_order5_scans(self):
        assert isinstance(p_nonvanishing_scan(ORDER3), NoZeroFound)
        assert isinstance(p_nonvanishing_scan(ORDER5), NoZeroFound)

    def test_wave_zero_found(self):
        hit = p_nonvanishing_scan(WAVE)
        assert isinstance(hit, ZeroAt)
        assert abs(p_poly(WAVE.terms, hit.a, hit.b)) < 1e-6

    @pytest.mark.parametrize(
        "terms, expected",
        [
            ([(2, 0, 0, 1.0), (0, 2, 0, 1.0), (0, 0, 2, 1.0)], None),
            # A grid sample is an exact zero.
            ([(2, 0, 0, 1.0), (0, 2, 0, -1.0)], ("-0x1.0000000000000p+0", "-0x1.4000000000000p+3")),
            # No grid sample is near zero: bisection inside the box.
            ([(2, 0, 0, -0.5), (0, 2, 0, 1.0)], ("-0x1.6a09e667f3bccp-1", "-0x1.4000000000000p+3")),
            ([(2, 0, 0, -0.3), (0, 2, 0, 1.0), (0, 0, 2, -1.0)],
             ("-0x1.40f5c28f5c290p+2", "-0x1.3f0a3d70a3d70p+2")),
            # P > 0 on the box, but its leading part a^2 - b^2 changes sign:
            # a zero along a direction, outside the box.
            ([(2, 0, 0, 1000.0), (0, 2, 0, 1.0), (0, 0, 2, -1.0)],
             ("0x1.170e362ffce46p-49", "0x1.f9f6e4990f228p+4")),
        ],
        ids=["laplace", "wave-grid-zero", "wave-bisect", "wave-yz-bisect", "leading-sign-change"],
    )
    def test_scan_results_are_pinned(self, terms, expected):
        # float.hex of the results before |P| and cos/sin were computed once.
        hit = p_nonvanishing_scan(PdeSpec.create(2, terms))
        if expected is None:
            assert isinstance(hit, NoZeroFound)
        else:
            assert isinstance(hit, ZeroAt)
            assert (hit.a.hex(), hit.b.hex()) == expected

    @settings(max_examples=150, deadline=None)
    @given(case=symbols())
    # P >= 0 and P <= 0 with zeros along a = 0: the sample nearest zero is
    # argmin P in one, argmax P in the other.
    @example(case=("grid-zero", PdeSpec.create(2, [(0, 2, 0, 1.0)])))
    @example(case=("grid-zero", PdeSpec.create(2, [(0, 2, 0, -1.0)])))
    # P <= 0 on the grid, with a sample within 1e-9 max |P| of zero but not
    # within 1e-9; the tiny b^2 term of the other sign leaves it unsettled.
    @example(case=("grid-zero", PdeSpec.create(2, [(2, 0, 0, -1e-8), (0, 2, 0, -1.0),
                                                   (0, 0, 2, 1e-30)])))
    # P < 0 everywhere, and its leading part too.
    @example(case=("definite", PdeSpec.create(2, [(2, 0, 0, -1.0), (0, 2, 0, -2.0),
                                                  (0, 0, 2, -3.0)])))
    def test_scan_matches_the_abs_grid_oracle(self, case):
        # A definite symbol is settled by the signs of its terms; every
        # other one runs through the grid, rays and bisection as before.
        family, pde = case
        if family == "definite":
            assert definite_sign(pde.terms) != 0.0
            assert isinstance(p_nonvanishing_scan(pde), NoZeroFound)
        else:
            assert definite_sign(pde.terms) == 0.0
            assert scan_bits(p_nonvanishing_scan(pde)) == scan_bits(nonvanishing_scan(pde))

    @pytest.mark.parametrize("terms", [
        [(2, 0, 0, 1e-12), (0, 2, 0, 1.0), (0, 0, 2, 1.0)],
        [(2, 0, 0, -1e-8), (0, 2, 0, -1.0)],
    ], ids=["tiny-positive-constant", "tiny-negative-constant"])
    def test_definite_symbol_is_settled_without_a_sample(self, monkeypatch, terms):
        # |P| >= |c0| > 0 on all of R^2.  The sampled scan reported
        # ZeroAt(0.0, 0.0) and ZeroAt(0.0, -10.0) here: its tolerance,
        # 1e-9 max |P| on the box, exceeds |c0|.
        pde = PdeSpec.create(2, terms)

        def no_samples(*args):
            raise AssertionError("P was evaluated")

        monkeypatch.setattr(pde_mod, "p_poly", no_samples)
        assert isinstance(p_nonvanishing_scan(pde), NoZeroFound)

    @pytest.mark.parametrize("terms", [
        [(2, 0, 0, 1.0), (1, 1, 0, 1e-30), (0, 2, 0, 1.0)],  # an odd exponent
        [(2, 0, 0, 1.0), (0, 2, 0, 1.0), (0, 0, 2, -1e-30)],  # mixed signs
        [(0, 2, 0, 1.0), (0, 0, 2, 1.0)],  # no constant
        [(2, 0, 0, 1.0), (2, 0, 0, -1.0), (0, 2, 0, 1.0)],  # constants that cancel
        # Constants of both signs, summing to 1: no sum is formed.
        [(2, 0, 0, 1.0), (2, 0, 0, 1e16), (2, 0, 0, -1e16), (0, 2, 0, 3.0)],
        [(2, 0, 0, -1.0), (0, 2, 0, 1.0)],  # a constant of the other sign
        [(2, 0, 0, math.nan), (0, 2, 0, 1.0)],
        [(2, 0, 0, 1.0), (0, 2, 0, math.inf)],
    ], ids=["odd-exponent", "mixed-signs", "no-constant", "cancelling-constants",
            "constants-of-both-signs", "opposite-constant", "nan", "inf"])
    def test_other_symbols_are_never_settled(self, terms):
        # The terms as given: PdeSpec.create refuses the NaN and inf rows,
        # and definite_sign must not settle them either.
        assert definite_sign(terms) == 0.0

    def test_zero_terms_are_dropped_and_constants_may_repeat(self):
        # Terms with a zero coefficient, odd exponents included, are
        # dropped.  Repeated constants of one sign settle, also where their
        # float sum overflows.
        terms = [(2, 0, 0, 1.0), (0, 2, 0, 3.0), (1, 1, 0, 0.0), (1, 0, 1, -0.0)]
        assert definite_sign(PdeSpec.create(2, terms).terms) == 1.0
        assert definite_sign([(2, 0, 0, 1.7e308), (2, 0, 0, 1.7e308), (0, 2, 0, 1.0)]) == 1.0
        assert definite_sign([(2, 0, 0, -1e16), (2, 0, 0, -1.0), (0, 0, 2, -2.0)]) == -1.0

    @settings(max_examples=200, deadline=None)
    @given(
        c0=st.floats(5e-324, 1e300) | st.sampled_from([5e-324, 1e-300, 1e-12, 1.0, 1.7e308]),
        others=st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2),
                                  st.floats(5e-324, 1e300) | st.sampled_from([5e-324, 1.7e308])),
                        max_size=4),
        sign=st.sampled_from([1.0, -1.0]),
        a=st.floats(-1e300, 1e300) | st.sampled_from(EXTREMES),
        b=st.floats(-1e300, 1e300) | st.sampled_from(EXTREMES),
    )
    def test_settled_symbol_keeps_the_sign_of_its_constant(self, c0, others, sign, a, b):
        # A constant plus even monomials of its sign: p_poly, in float64 as
        # the scan samples, gives P with sign * P >= c0 > 0, never 0 nor the
        # other sign.  p_poly forms each term as (C a^beta) b^gamma, so a
        # term whose one factor overflows to inf while the other is 0 is
        # NaN: a float limit of the evaluator, not a zero of P.
        terms = [(4, 0, 0, sign * c0)] + [(4 - 2 * i - 2 * j, 2 * i, 2 * j, sign * c)
                                          for i, j, c in others if i + j <= 2]
        assert definite_sign(terms) == sign
        assert isinstance(p_nonvanishing_scan(PdeSpec.create(4, terms)), NoZeroFound)
        a, b = np.float64(a), np.float64(b)
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            P = p_poly(terms, a, b)
            if np.isnan(P):
                assert any(sorted([abs(c * a**beta), b**gamma]) == [0.0, np.inf]
                           for _, beta, gamma, c in terms)
            else:
                assert sign * P >= c0

    def test_missing_pure_x_term_zero_at_origin(self):
        pde = PdeSpec.create(2, [(0, 2, 0, 1.0), (0, 0, 2, 1.0)])
        hit = p_nonvanishing_scan(pde)
        assert isinstance(hit, ZeroAt)
        assert abs(p_poly(pde.terms, hit.a, hit.b)) < 1e-9


class TestStencils:
    @pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
    def test_monomial_exactness(self, order):
        # The O(h^2) stencil is exact on x^order and kills lower powers.
        offsets, weights = map(np.array, central_stencil(order))
        h = 0.1
        xs = offsets * h
        got = float(weights @ xs**order) / h**order
        assert abs(got - math.factorial(order)) < 1e-9
        for lower in range(order):
            assert abs(float(weights @ xs**lower)) < 1e-9

    def test_zero_order(self):
        offsets, weights = central_stencil(0)
        assert list(offsets) == [0] and list(weights) == [1.0]

    def test_apply_operator_on_polynomial(self):
        fn = lambda p: np.array([p[0] ** 2 + p[1] ** 2 - 2 * p[2] ** 2])
        out = apply_operator(fn, LAPLACE, (0.3, -0.5, 0.9), h=1e-3)
        assert abs(out[0]) < 1e-9
        out = apply_operator(fn, WAVE, (0.3, -0.5, 0.9), h=1e-3)
        assert abs(out[0]) < 1e-9


class TestPdeResidual:
    def test_polynomial_data_tight(self, alg_ss2):
        triad = fixture_triad("alg_ss2")
        ms = MonogenicSpec.create(
            alg_ss2, triad, [HoloFn.poly([1.0, 2.0, 0.5, -0.25]), HoloFn.poly([0.0, 1j, 1.0])]
        )
        # Degree-3 data is differentiated exactly by the stencil, so the
        # residual is pure roundoff; h = 1e-2 keeps the 1/h^2 amplification low.
        res = pde_residual(ms, LAPLACE, (0.4, -0.2, 0.7), h=1e-2)
        assert np.max(np.abs(res)) < 1e-9

    def test_exp_data(self, alg_ss2, alg_d2, alg_t4):
        cases = [
            MonogenicSpec.create(alg_ss2, fixture_triad("alg_ss2"), [HoloFn.exp(), HoloFn.exp()]),
            MonogenicSpec.create(alg_d2, HARMONIC_D2, [HoloFn.exp()], [HoloFn.sin()]),
            MonogenicSpec.create(
                alg_t4, HARMONIC_T4, [HoloFn.exp()], [HoloFn.sin(), HoloFn.cos(), HoloFn.exp()]
            ),
        ]
        for ms in cases:
            p = (0.3, 0.5, -0.4)
            scale = 1.0 + float(np.max(np.abs(eval_explicit(ms, p))))
            res = pde_residual(ms, LAPLACE, p)
            assert np.max(np.abs(res)) < 1e-4 * scale, ms.algebra.n

    def test_order3_residual(self, alg_ss2):
        triad = fixture_triad("alg_ss2")
        ms = MonogenicSpec.create(alg_ss2, triad, [HoloFn.exp(), HoloFn.sin()])
        res = pde_residual(ms, ORDER3, (0.2, 0.3, -0.1))
        assert np.max(np.abs(res)) < 1e-4

    def test_order5_residual(self, alg_ss2):
        ms = MonogenicSpec.create(
            alg_ss2, ORDER5_TRIAD, [HoloFn.sin(scale=0.7), HoloFn.exp(scale=0.5)]
        )
        res = pde_residual(ms, ORDER5, (0.1, 0.4, 0.2), h=2e-2)
        assert np.max(np.abs(res)) < 1e-4

    def test_noncharacteristic_triad_fails(self, alg_ss2):
        # exp data on a non-characteristic triad leaves a visible residual.
        triad = TriadSpec.create([2j, 1j], [1.0, 0.5j])
        assert np.max(np.abs(characteristic_residual(alg_ss2, triad, LAPLACE))) > 0.5
        ms = MonogenicSpec.create(alg_ss2, triad, [HoloFn.exp(), HoloFn.exp()])
        res = pde_residual(ms, LAPLACE, (0.2, 0.1, 0.3))
        assert np.max(np.abs(res)) > 1e-2


    def test_batched_default_path(self, all_monospecs, monkeypatch):
        # One eval_explicit call on the distinct stencil points, agreeing
        # with the pointwise operator.
        calls = []
        pointwise = pde_mod.eval_explicit

        def recording(ms, p):
            calls.append(np.shape(p))
            return pointwise(ms, p)

        monkeypatch.setattr(pde_mod, "eval_explicit", recording)
        for name, ms in all_monospecs.items():
            p = (0.3, 0.5, -0.4)
            for pde, distinct in ((LAPLACE, 7), (ORDER3, 12)):
                calls.clear()
                res = pde_residual(ms, pde, p)
                assert calls == [(distinct, 3)], name
                ref = apply_operator(lambda q: pointwise(ms, q), pde, p, 1e-3)
                assert np.max(np.abs(res - ref)) <= 1e-12, name

    @pytest.mark.parametrize("count", [1, 5])
    def test_rows_match_points(self, all_monospecs, rng, count):
        for name, ms in all_monospecs.items():
            pts = rng.uniform(-1.2, 1.2, (count, 3))
            res = pde_residual(ms, LAPLACE, pts)
            assert res.shape == (count, ms.algebra.n), name
            for p, row in zip(pts, res):
                assert np.max(np.abs(row - pde_residual(ms, LAPLACE, tuple(p)))) <= 1e-12, name


class TestOperatorIdentity:
    def test_characteristic_case_near_zero(self, all_monospecs):
        for name in ("alg_ss2", "alg_d2"):
            ms = all_monospecs[name]
            p = (0.3, 0.5, -0.4)
            scale = 1.0 + float(np.max(np.abs(eval_explicit(ms, p))))
            diff = operator_identity_check(ms, LAPLACE, p)
            assert np.max(np.abs(diff)) < 1e-3 * scale, name

    def test_noncharacteristic_case_still_holds(self, alg_ss2):
        # The identity relates L_N(Phi) to Phi^(N) times the characteristic
        # element; it holds whether or not that element vanishes.
        triad = TriadSpec.create([2j, 1j], [1.0, 0.5j])
        ms = MonogenicSpec.create(alg_ss2, triad, [HoloFn.exp(), HoloFn.sin()])
        p = (0.2, 0.1, 0.3)
        scale = 1.0 + float(np.max(np.abs(eval_explicit(ms, p))))
        diff = operator_identity_check(ms, LAPLACE, p)
        assert np.max(np.abs(diff)) < 1e-3 * scale

    def test_functional_projection(self, alg_ss2):
        # f_u of the characteristic element is the scalar symbol evaluated
        # on the complex pair (a_u, b_u).
        triad = TriadSpec.create([2j, 1j], [1.0, 0.5j])
        res = characteristic_residual(alg_ss2, triad, LAPLACE)
        for u in (1, 2):
            a_u, b_u = triad.a[u - 1], triad.b[u - 1]
            scalar = sum(
                c * a_u**beta * b_u**gamma for _, beta, gamma, c in LAPLACE.terms
            )
            assert abs(functional_f(alg_ss2, u, res) - scalar) < 1e-13


class TestHarmonicComponents:
    def test_real_and_imag_parts_solve_laplace(self, alg_ss2):
        # U_1 for exp data on a harmonic triad is a classical 3-D harmonic
        # function, so its real and imaginary parts solve Laplace directly.
        triad = fixture_triad("alg_ss2")
        p = (0.1, 0.2, 0.3)
        u1 = lambda q: np.exp(xi(triad, q, 1))
        for part in (np.real, np.imag):
            res = apply_operator(lambda q: np.array([part(u1(q))]), LAPLACE, p, h=1e-3)
            assert abs(res[0]) < 1e-4


# A symbol with zeros and coefficients that are not powers of two, so
# c * (A**b * B**g) would round differently from (c * A**b) * B**g.
SKEW_WAVE = PdeSpec.create(2, [(2, 0, 0, 0.7), (0, 2, 0, -1.3), (0, 1, 1, 0.3)])


@pytest.mark.parametrize("pde", [LAPLACE, SKEW_WAVE], ids=["laplace", "skew-wave"])
def test_p_poly_matches_meshgrid(pde):
    # The broadcast form, as the scan samples its grid, gives the meshgrid
    # form's bits.
    assert isinstance(p_nonvanishing_scan(pde), NoZeroFound if pde is LAPLACE else ZeroAt)
    axis = np.linspace(-10.0, 10.0, 101)
    A, B = np.meshgrid(axis, axis, indexing="ij")
    P = np.zeros_like(A)
    for _, beta, gamma, c in pde.terms:
        P += c * A**beta * B**gamma
    assert np.array_equal(p_poly(pde.terms, axis[:, None], axis), P)
