"""Acceptance gate: one test per headline criterion, each printing PASS/FAIL.

Run with `pytest tests/test_acceptance.py -s` to see the criterion lines.
"""

import math
import time

import mpmath
import numpy as np
import pytest

from monogenica import (
    HoloFn,
    MonogenicSpec,
    NoZeroFound,
    TriadSpec,
    characteristic_residual,
    cr_residual,
    eval_explicit,
    eval_integral,
    eval_special,
    gateaux_derivative,
    operator_identity_check,
    p_nonvanishing_scan,
    pde_residual,
)
from monogenica.cli import main as cli_main
from monogenica.fixtures import fixture_path
from monogenica.pde import LAPLACE
from monogenica.resolvent import b_coeffs, q_table, t_coeffs

from conftest import fixture_triad, random_triad
from oracles import (embed, invert, pointwise_partials, resolvent_closed, resolvent_recurrence, spectrum,
                     wrong_xi_values)
from test_monogenic import truncated_poly
from test_pde import ORDER3, ORDER5, ORDER5_TRIAD
from test_resolvent import geometric_series_resolvent

SEED = 977


def report(label: str, ok: bool, detail: str = "") -> None:
    tail = f"  ({detail})" if detail else ""
    print(f"\n{'PASS' if ok else 'FAIL'} {label}{tail}")
    assert ok, f"{label}{tail}"


def make_tuples(all_algebras, count: int, rng):
    """Random (algebra, triad, point, t) tuples with t off the spectrum."""
    specs = list(all_algebras.values())
    out = []
    while len(out) < count:
        spec = specs[len(out) % len(specs)]
        triad = random_triad(spec, rng)
        p = tuple(rng.uniform(-2.0, 2.0, 3))
        t = complex(*rng.uniform(-4.0, 4.0, 2))
        if np.min(np.abs(t - spectrum(triad, spec.m, *p))) < 0.1:
            continue
        out.append((spec, triad, p, t))
    return out


@pytest.fixture(scope="module")
def tuples(all_algebras):
    rng = np.random.default_rng(SEED)
    return make_tuples(all_algebras, 1000, rng)


def test_criterion_1_resolvent_identity(tuples):
    start = time.perf_counter()
    worst = 0.0
    for spec, triad, p, t in tuples:
        res = resolvent_closed(spec, triad, p, t)
        lhs = spec.multiply(t * spec.unit() - embed(spec, triad, p), res)
        worst = max(worst, float(np.max(np.abs(lhs - spec.unit()))))
    elapsed = time.perf_counter() - start
    report(
        "criterion 1: resolvent identity over 1000 tuples",
        worst <= 1e-12 and elapsed <= 5.0,
        f"max deviation {worst:.3e}, {elapsed:.2f}s",
    )


def test_criterion_2_oracle_equivalence(tuples):
    worst = 0.0
    for spec, triad, p, t in tuples:
        closed = resolvent_closed(spec, triad, p, t)
        oracle = invert(spec, t * spec.unit() - embed(spec, triad, p))
        worst = max(worst, float(np.max(np.abs(closed - oracle))))
    report(
        "criterion 2: closed form vs linear-solve oracle",
        worst <= 1e-10,
        f"max deviation {worst:.3e}",
    )


def test_criterion_3_recurrence_vs_table(tuples, alg_t4):
    worst = 0.0
    base_exact = True
    for spec, triad, p, t in tuples[:300]:
        rec = resolvent_recurrence(spec, triad, p, t)
        clo = resolvent_closed(spec, triad, p, t)
        worst = max(worst, float(np.max(np.abs(rec - clo))))
        T = t_coeffs(spec, triad, p[1], p[2])
        Q = q_table(spec, T, b_coeffs(spec, T))
        base_exact &= bool(np.array_equal(Q[2, :], T))

    rng = np.random.default_rng(SEED + 1)
    closed_ok = True
    for _ in range(20):
        triad = random_triad(alg_t4, rng)
        y, z = rng.uniform(-2, 2, 2)
        T = t_coeffs(alg_t4, triad, y, z)
        Q = q_table(alg_t4, T, b_coeffs(alg_t4, T))
        closed_ok &= abs(Q[3, 2] - 2 * T[0] * T[1]) < 1e-13
        closed_ok &= abs(Q[4, 2] - T[0] ** 3) < 1e-13
        x = float(rng.uniform(-2, 2))
        t = complex(*rng.uniform(2.5, 4.0, 2))
        xi1 = x + y * triad.a[0] + z * triad.b[0]
        got = resolvent_closed(alg_t4, triad, (x, y, z), t)
        closed_ok &= (
            float(np.max(np.abs(got - geometric_series_resolvent(t, xi1, T)))) < 1e-13
        )
    report(
        "criterion 3: recurrence vs table assembly and closed Q forms",
        worst <= 1e-12 and base_exact and closed_ok,
        f"max deviation {worst:.3e}",
    )


def separated_points(ms, count, rng):
    pts = []
    while len(pts) < count:
        p = tuple(rng.uniform(-1.5, 1.5, 3))
        xi_v = spectrum(ms.triad, ms.algebra.m, *p)
        if len(xi_v) > 1:
            gaps = np.abs(np.subtract.outer(xi_v, xi_v)) + np.eye(len(xi_v))
            if float(np.min(gaps)) < 0.1:
                continue
        pts.append(p)
    return pts


def test_criterion_4_representation_consistency(all_monospecs):
    start = time.perf_counter()
    rng = np.random.default_rng(SEED + 2)
    worst_int = 0.0
    worst_spec = 0.0
    for name, ms in all_monospecs.items():
        for p in separated_points(ms, 50, rng):
            ex = eval_explicit(ms, p)
            worst_int = max(worst_int, float(np.max(np.abs(eval_integral(ms, p) - ex))))
            worst_spec = max(worst_spec, float(np.max(np.abs(eval_special(ms, p) - ex))))
    elapsed = time.perf_counter() - start
    report(
        "criterion 4: explicit vs integral vs special paths, 5 fixtures x 50 points",
        worst_int <= 1e-8 and worst_spec <= 1e-12 and elapsed <= 30.0,
        f"integral {worst_int:.3e}, special {worst_spec:.3e}, {elapsed:.2f}s",
    )


def test_criterion_5_cauchy_riemann(all_monospecs, alg_p2):
    rng = np.random.default_rng(SEED + 3)
    worst_rel = 0.0
    for name, ms in all_monospecs.items():
        for _ in range(20):
            p = tuple(rng.uniform(-1.5, 1.5, 3))
            scale = 1.0 + float(np.max(np.abs(eval_explicit(ms, p))))
            ry, rz = cr_residual(ms, p)
            res = max(float(np.max(np.abs(ry))), float(np.max(np.abs(rz))))
            worst_rel = max(worst_rel, res / scale)

    # Negative control: feed G_s the wrong idempotent's evaluation argument.
    triad = fixture_triad("alg_p2")
    F = [HoloFn.exp(), HoloFn.sin()]
    G = [HoloFn.sin(), HoloFn.cos()]
    ms = MonogenicSpec.create(alg_p2, triad, F, G)
    partials = pointwise_partials(ms, (0.4, 0.8, -0.3), lambda q, r: wrong_xi_values(ms, q, r))
    ry, rz = cr_residual(ms, (0.4, 0.8, -0.3), partials=partials)
    control = max(float(np.max(np.abs(ry))), float(np.max(np.abs(rz))))
    report(
        "criterion 5: Cauchy-Riemann residuals plus negative control",
        worst_rel <= 1e-6 and control >= 1e-3,
        f"worst relative residual {worst_rel:.3e}, control {control:.3e}",
    )


def test_criterion_6_derivative_definition(all_monospecs):
    eps = 1e-6
    worst_quot = 0.0
    worst_cr = 0.0
    for name, ms in all_monospecs.items():
        spec, triad = ms.algebra, ms.triad
        p = (0.25, 0.4, -0.15)
        base = eval_explicit(ms, p)
        deriv = gateaux_derivative(ms, p, 1)
        scale = 1.0 + float(np.max(np.abs(base)))
        for h_vec, h_dir in (
            (spec.unit(), (1.0, 0.0, 0.0)),
            (triad.a_vec, (0.0, 1.0, 0.0)),
            (triad.b_vec, (0.0, 0.0, 1.0)),
        ):
            q = tuple(c + eps * d for c, d in zip(p, h_dir))
            quotient = (eval_explicit(ms, q) - base) / eps
            dev = float(np.max(np.abs(quotient - spec.multiply(h_vec, deriv))))
            worst_quot = max(worst_quot, dev / scale)
        dscale = 1.0 + float(np.max(np.abs(deriv)))
        partials = pointwise_partials(ms, p, lambda q, r: gateaux_derivative(ms, q, r + 1))
        ry, rz = cr_residual(ms, p, partials=partials)
        worst_cr = max(
            worst_cr,
            max(float(np.max(np.abs(ry))), float(np.max(np.abs(rz)))) / dscale,
        )
    report(
        "criterion 6: difference quotients and monogenicity of the derivative",
        worst_quot <= 1e-5 and worst_cr <= 1e-5,
        f"worst quotient {worst_quot:.3e}, worst derivative CR {worst_cr:.3e}",
    )


def test_criterion_7_pde_bridge(alg_ss2):
    triad = fixture_triad("alg_ss2")
    char = float(np.max(np.abs(characteristic_residual(alg_ss2, triad, LAPLACE))))

    p = (0.3, 0.4, -0.2)
    ms_exp = MonogenicSpec.create(alg_ss2, triad, [HoloFn.exp(), HoloFn.exp()])
    scale = 1.0 + float(np.max(np.abs(eval_explicit(ms_exp, p))))
    r = pde_residual(ms_exp, LAPLACE, p)
    exp_res = max(float(np.max(np.abs(r.real))), float(np.max(np.abs(r.imag))))

    ms_poly = MonogenicSpec.create(
        alg_ss2, triad, [HoloFn.poly([0.25, 0.5, 0.25]), HoloFn.poly([0.0, 0.25j, 0.25])]
    )
    r = pde_residual(ms_poly, LAPLACE, p)
    poly_res = max(float(np.max(np.abs(r.real))), float(np.max(np.abs(r.imag))))

    control_triad = TriadSpec.create([2j, 1j], [1.0, 0.5j])
    ms_ctrl = MonogenicSpec.create(alg_ss2, control_triad, [HoloFn.exp(), HoloFn.sin()])
    cscale = 1.0 + float(np.max(np.abs(eval_explicit(ms_ctrl, p))))
    ident = float(np.max(np.abs(operator_identity_check(ms_ctrl, LAPLACE, p))))

    report(
        "criterion 7: Laplace bridge on the harmonic fixture triad",
        char <= 1e-12
        and exp_res <= 1e-4 * scale
        and poly_res <= 1e-9
        and ident <= 1e-3 * cscale,
        f"char {char:.3e}, exp {exp_res:.3e}, poly {poly_res:.3e}, identity {ident:.3e}",
    )


def test_criterion_8_nonelliptic_witnesses(alg_ss2):
    harmonic = fixture_triad("alg_ss2")
    cases = ((ORDER3, harmonic), (ORDER5, ORDER5_TRIAD))
    ok = True
    details = []
    for pde, triad in cases:
        scan_ok = isinstance(p_nonvanishing_scan(pde), NoZeroFound)
        char = float(np.max(np.abs(characteristic_residual(alg_ss2, triad, pde))))
        imag_ok = all(
            abs(triad.a[u].imag) > 1e-12 or abs(triad.b[u].imag) > 1e-12
            for u in range(alg_ss2.m)
        )
        ok &= scan_ok and imag_ok and char <= 1e-12
        details.append(f"order {pde.N}: scan={'clean' if scan_ok else 'zero'}, char {char:.1e}")
    report(
        "criterion 8: order-3 and order-5 operators with nonvanishing symbol",
        ok,
        "; ".join(details),
    )


def test_criterion_9_cli_determinism(tmp_path, capsys):
    job_ok = str(fixture_path("job_laplace_ss2.json"))
    job_bad = str(fixture_path("job_broken_triad.json"))
    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    code1 = cli_main(["grid", job_ok, "--out", str(f1)])
    code2 = cli_main(["grid", job_ok, "--out", str(f2)])
    identical = f1.read_bytes() == f2.read_bytes()
    check_ok = cli_main(["check", job_ok])
    check_bad = cli_main(["check", job_bad])
    capsys.readouterr()  # swallow the subcommand output
    report(
        "criterion 9: deterministic CSV and check exit codes",
        code1 == code2 == 0 and identical and check_ok == 0 and check_bad == 1,
        f"grid codes ({code1},{code2}), check codes ({check_ok},{check_bad})",
    )


def test_criterion_10_gateaux_routes_closed_form(alg_ss2):
    # exp data on the semisimple fixture: Phi^(r) = exp(xi_u) in every
    # component.  The near-coincident points (xi_1 - xi_2 = i y) are where
    # the contour route does not converge; its error there is reported,
    # not gated (one enclosing contour is the open fix).
    triad = fixture_triad("alg_ss2")
    ms = MonogenicSpec.create(alg_ss2, triad, [HoloFn.exp(), HoloFn.exp()])
    generic = [(0.3, 0.4, -0.2), (-0.5, 0.1, 0.7), (0.9, -0.6, 0.2)]
    near = [(0.3, 1e-6, 0.0), (0.3, 1e-7, 0.0)]
    worst = {"explicit": 0.0, "integral": 0.0, "integral near": 0.0}
    for p in generic + near:
        expect = np.exp(spectrum(triad, alg_ss2.m, *p))
        for r in (1, 2, 3):
            for method, derivative in (("explicit", gateaux_derivative), ("integral", eval_integral)):
                err = float(np.max(np.abs(derivative(ms, p, r) - expect)))
                key = method + (" near" if method == "integral" and p in near else "")
                worst[key] = max(worst[key], err / (1.0 + float(np.max(np.abs(expect)))))
    report(
        "criterion 10: Gateaux derivatives r = 1..3 against exp(xi_u)",
        worst["explicit"] <= 1e-14 and worst["integral"] <= 1e-10,
        f"explicit {worst['explicit']:.3e} everywhere; integral {worst['integral']:.3e} "
        f"at generic points, {worst['integral near']:.3e} near-coincident",
    )


# -- absolute accuracy against a 50-digit reference -----------------------------

ACCURACY_DATA = [
    HoloFn.exp(amp=0.8 - 0.2j, scale=0.7 + 0.2j, shift=0.1),
    HoloFn.sin(scale=0.6 - 0.3j, shift=0.2j),
    HoloFn.series(0.1j, [1.0, 0.5, -0.25j, 0.125, 0.1, -0.05j], radius=50.0, amp=0.7),
]


def mp_derivative(f, k, xi):
    """f^(k)(xi) in mpmath: exact exp, sin and term-wise series derivatives."""
    scale = mpmath.mpc(f.scale)
    w = scale * xi + mpmath.mpc(f.shift)
    if f.kind == "exp":
        g = mpmath.exp(w)
    elif f.kind == "sin":
        g = mpmath.sin(w + k * mpmath.pi / 2)
    else:
        v = w - mpmath.mpc(f.center)
        g = sum(mpmath.mpc(c) * math.perm(j, k) * v ** (j - k)
                for j, c in enumerate(f.coeffs) if j >= k)
    return mpmath.mpc(f.amp) * scale**k * g


def mp_phi(ms, p, orders):
    """Phi^(r)(zeta) for r in orders: Taylor sums about xi_u, block by block, in mpmath.

    Inside block u, P_u = I_u zeta - xi_u I_u is nilpotent, so I_u F(zeta) =
    sum_k F^(k)(xi_u) / k! P_u^k and I_s G(zeta) = I_s sum_k G^(k)(xi_u) / k!
    P_u^k for u = u_s.  The product is built from the algebra's defining
    data (n, m, u_map, upsilon), not from its product tables.
    """
    spec, n, m = ms.algebra, ms.algebra.n, ms.algebra.m
    table = [(u, u, u, 1) for u in range(m)]
    for s, u in spec.u_map.items():
        table += [(u - 1, s - 1, s - 1, 1), (s - 1, u - 1, s - 1, 1)]
    for (r, s, k), v in spec.upsilon.items():
        table += [(r - 1, s - 1, k - 1, v)] + ([(s - 1, r - 1, k - 1, v)] if r != s else [])
    table = [(i, j, k, mpmath.mpc(v)) for i, j, k, v in table]

    def mul(a, b):
        out = [mpmath.mpc(0)] * n
        for i, j, k, v in table:
            out[k] += v * a[i] * b[j]
        return out

    def basis(i):
        return [mpmath.mpc(int(j == i)) for j in range(n)]

    x, y, z = (mpmath.mpf(c) for c in p)
    zeta = [x * (j < m) + y * mpmath.mpc(a) + z * mpmath.mpc(b)
            for j, (a, b) in enumerate(zip(ms.triad.a, ms.triad.b))]
    out = {r: [mpmath.mpc(0)] * n for r in orders}
    for u in range(m):
        xi = zeta[u]
        P = [c - xi * e for c, e in zip(mul(basis(u), zeta), basis(u))]
        powers = [basis(u)]
        while len(powers) <= n - m and any(powers[-1]):
            powers.append(mul(powers[-1], P))
        owned = [s for s in range(m, n) if spec.u_map[s + 1] == u + 1]
        for r in orders:
            def taylor(f):
                c = [mp_derivative(f, r + k, xi) / math.factorial(k) for k in range(len(powers))]
                return [sum(ck * pk[j] for ck, pk in zip(c, powers)) for j in range(n)]
            terms = [taylor(ms.F[u])] + [mul(basis(s), taylor(ms.G[s - m])) for s in owned]
            out[r] = [sum(col) for col in zip(out[r], *terms)]
    return {r: np.array([complex(c) for c in v]) for r, v in out.items()}


def test_criterion_11_absolute_accuracy(all_algebras):
    orders = range(13)
    algebras = {name: all_algebras[name] for name in ("alg_ss2", "alg_d2", "alg_t4")}
    algebras["eps16"] = truncated_poly(16)
    triads = {name: fixture_triad(name) for name in ("alg_ss2", "alg_d2", "alg_t4")}
    triads["eps16"] = TriadSpec.create([0.3 + 1j, 1.0] + [0.0] * 14,
                                       [0.5 - 0.4j, 0.2j, 1.0] + [0.0] * 13)
    routes = {
        "explicit": eval_explicit,
        "special": eval_special,
        "integral": eval_integral,
    }
    worst = {route: [0.0] * len(orders) for route in routes}
    start = time.perf_counter()
    # The contour route is gated at r <= 3, the orders --compare and the
    # benchmark use; above that its error grows with r and is only reported.
    with mpmath.workdps(50):
        for name, spec in algebras.items():
            data = [ACCURACY_DATA[i % len(ACCURACY_DATA)] for i in range(spec.n)]
            ms = MonogenicSpec.create(spec, triads[name], data[: spec.m], data[spec.m :])
            for p in ((0.3, 0.4, -0.2), (-0.5, 0.1, 0.7)):
                ref = mp_phi(ms, p, orders)
                for route, fn in routes.items():
                    for r in orders:
                        err = np.max(np.abs(fn(ms, p, order=r) - ref[r]))
                        rel = float(err / (1 + np.max(np.abs(ref[r]))))
                        worst[route][r] = max(worst[route][r], rel)
    elapsed = time.perf_counter() - start
    for route, errs in worst.items():
        print(f"\n  {route}: " + ", ".join(f"r={r} {e:.1e}" for r, e in zip(orders, errs)))
    report(
        "criterion 11: absolute accuracy of Phi^(r), r = 0..12, against 50-digit Taylor sums "
        "(ss2, d2, t4, C[eps]/eps^16; exp, sin, series)",
        all(e <= 1e-14 for route in ("explicit", "special") for e in worst[route])
        and all(e <= 5e-14 for e in worst["integral"][:4]),
        ", ".join(f"{route} {max(errs):.3e}" for route, errs in worst.items())
        + f", integral at r <= 3 {max(worst['integral'][:4]):.3e}, {elapsed:.2f}s",
    )
