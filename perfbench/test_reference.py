"""Closed-form tests of the benchmark's reference and input generators.

Run with: python3 -m pytest perfbench/test_reference.py
"""

import cmath
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import workloads  # noqa: E402

FIXTURES = HERE.parent / "src" / "monogenica" / "fixtures"
POINTS = np.array([[0.3, 0.4, -0.2], [-0.5, 0.1, 0.7]])


def fixture(name):
    return json.loads((FIXTURES / f"{name}.json").read_text(encoding="utf-8"))


def xi(triad, u, p):
    x, y, z = p
    return x + y * reference.cnum(triad["a"][u]) + z * reference.cnum(triad["b"][u])


@pytest.mark.parametrize("r", [0, 1, 3])
def test_exp_on_semisimple_is_exp_of_each_spectrum_point(r):
    triad = {"a": [[0.0, 2.0], [0.0, 1.0]], "b": [[math.sqrt(3.0), 0.0], [0.0, 0.0]]}
    got = reference.phi(fixture("alg_ss2"), triad, [{"kind": "exp"}] * 2, [], POINTS, r)
    want = [[cmath.exp(xi(triad, u, p)) for u in range(2)] for p in POINTS]
    np.testing.assert_allclose(got, want, rtol=1e-14)


def test_dual_numbers_first_order_taylor():
    triad = {"a": [[0.0, 1.0], 1.0], "b": [[0.3, 0.2], 0.5]}
    F = {"kind": "sin", "amp": [0.5, 0.2], "scale": [1.1, 0.0], "shift": [0.1, 0.1]}
    G = {"kind": "poly", "coeffs": [1.0, [0.0, 2.0], 3.0]}
    got = reference.phi(fixture("alg_d2"), triad, [F], [G], POINTS)
    amp, scale, shift = complex(0.5, 0.2), 1.1, complex(0.1, 0.1)
    for row, (x, y, z) in zip(got, POINTS):
        w = xi(triad, 0, (x, y, z))
        t = y * 1.0 + z * 0.5
        f, df = amp * cmath.sin(scale * w + shift), amp * scale * cmath.cos(scale * w + shift)
        g = 1.0 + 2j * w + 3.0 * w * w
        np.testing.assert_allclose(row, [f, df * t + g], rtol=1e-14)


def test_square_on_truncated_polynomials():
    """zeta^2 for zeta = xi + T2 eps + T3 eps^2 + T4 eps^3, eps^4 = 0."""
    triad = {"a": [[0.0, 1.0], 1.0, 0.0, 0.0], "b": [[0.5, 0.5], 0.0, 1.0, 0.0]}
    square = {"kind": "poly", "coeffs": [0.0, 0.0, 1.0]}
    zero = {"kind": "poly", "coeffs": []}
    got = reference.phi(fixture("alg_t4"), triad, [square], [zero] * 3, POINTS)
    for row, (x, y, z) in zip(got, POINTS):
        w = xi(triad, 0, (x, y, z))
        t2, t3, t4 = y, z, 0.0
        want = [w * w, 2 * w * t2, 2 * w * t3 + t2 * t2, 2 * w * t4 + 2 * t2 * t3]
        np.testing.assert_allclose(row, want, rtol=1e-14, atol=1e-15)


def test_derivative_table():
    w = np.array([0.3 + 0.2j, -1.1 + 0.4j])
    for k in range(9):
        np.testing.assert_allclose(reference.holo_derivative({"kind": "sin"}, k, w),
                                   np.sin(w + k * np.pi / 2), rtol=1e-13)
        np.testing.assert_allclose(reference.holo_derivative({"kind": "cos"}, k, w),
                                   np.cos(w + k * np.pi / 2), rtol=1e-13)
    series = {"kind": "series", "center": [0.5, 0.0], "coeffs": [1.0, 2.0, 3.0]}
    np.testing.assert_allclose(reference.holo_derivative(series, 1, w), 2.0 + 6.0 * (w - 0.5))
    np.testing.assert_allclose(reference.holo_derivative(series, 2, w), [6.0, 6.0])
    np.testing.assert_allclose(reference.holo_derivative(series, 3, w), [0.0, 0.0])


@pytest.mark.parametrize("n", [4, 9])
def test_truncated_polynomial_algebra_is_associative_and_commutative(n):
    M = reference.product_tensor(workloads.truncated_poly_algebra(n))
    np.testing.assert_array_equal(M, M.transpose(1, 0, 2))
    left = np.einsum("ijq,qpk->ijpk", M, M)
    right = np.einsum("jpq,iqk->ijpk", M, M)
    np.testing.assert_array_equal(left, right)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_generated_laplace_triads(seed):
    jobs = workloads.check_jobs(seed, FIXTURES)
    terms = workloads.LAPLACE["terms"]
    for job in jobs[:-1]:
        assert reference.characteristic_residual(job["algebra"], job["triad"], terms) < 1e-12
        assert reference.surjective(job["algebra"], job["triad"])
    assert reference.characteristic_residual(jobs[-1]["algebra"], jobs[-1]["triad"], terms) > 0.1


def test_broken_triad_fixture_is_not_surjective():
    job = json.loads((FIXTURES / "job_broken_triad.json").read_text(encoding="utf-8"))
    assert not reference.surjective(fixture("alg_ss2"), job["triad"])
    assert reference.characteristic_residual(fixture("alg_ss2"), job["triad"],
                                             job["pde"]["terms"]) > 1.0
