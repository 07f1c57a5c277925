import math

import numpy as np
import pytest

from monogenica import HoloFn, MonogenicSpec, TriadSpec
from monogenica.algebra import load_algebra
from monogenica.fixtures import fixture_path

SQRT3 = math.sqrt(3.0)


@pytest.fixture(scope="session")
def alg_ss2():
    return load_algebra(fixture_path("alg_ss2"))


@pytest.fixture(scope="session")
def alg_d2():
    return load_algebra(fixture_path("alg_d2"))


@pytest.fixture(scope="session")
def alg_t4():
    return load_algebra(fixture_path("alg_t4"))


@pytest.fixture(scope="session")
def alg_p2():
    return load_algebra(fixture_path("alg_p2"))


@pytest.fixture(scope="session")
def alg_r5():
    return load_algebra(fixture_path("alg_r5"))


@pytest.fixture(scope="session")
def all_algebras(alg_ss2, alg_d2, alg_t4, alg_p2, alg_r5):
    return {
        "alg_ss2": alg_ss2,
        "alg_d2": alg_d2,
        "alg_t4": alg_t4,
        "alg_p2": alg_p2,
        "alg_r5": alg_r5,
    }


def random_element(spec, rng, radius=1.0):
    re = rng.uniform(-radius, radius, spec.n)
    im = rng.uniform(-radius, radius, spec.n)
    return (re + 1j * im).astype(np.complex128)


def most_terms_per_b(spec):
    """The most s with a nonzero Y[r, s -> p], r < p and s < p, for one (r, p).

    Counted over the nonzero products; each such s adds one T_s to B[r, p].
    """
    (i, j, k), _ = spec.products
    radical = (i >= spec.m) & (j >= spec.m) & (k > np.maximum(i, j))
    return int(np.bincount(i[radical] * spec.n + k[radical]).max(initial=0))


def random_triad(spec, rng):
    """Random triad that is valid by construction.

    The idempotent coordinates of e2 get an imaginary part bounded away
    from zero so the surjectivity condition holds; real linear independence
    is generic and double-checked by the caller where it matters.
    """
    a = random_element(spec, rng)
    b = random_element(spec, rng)
    for u in range(spec.m):
        im = a[u].imag
        a[u] = a[u].real + 1j * (math.copysign(max(abs(im), 0.4), im or 1.0))
    return TriadSpec.create(a, b)


def fixture_triad(name):
    """A fixed, hand-checked triad per fixture algebra."""
    return {
        "alg_ss2": TriadSpec.create([2j, 1j], [SQRT3, 0.0]),
        "alg_d2": TriadSpec.create([1j, 1.0], [0.3 + 0.2j, 0.5]),
        "alg_t4": TriadSpec.create([1j, 1.0, 0.0, 0.0], [0.5 + 0.5j, 0.0, 1.0, 0.0]),
        "alg_p2": TriadSpec.create([2j, 1j, 1.0, 0.0], [SQRT3, 0.7, 0.0, 1.0]),
        "alg_r5": TriadSpec.create(
            [1j, 1.0, 0.0, 0.2, 0.0], [0.4 + 0.7j, 0.0, 1.0, 0.0, 0.3]
        ),
    }[name]


def fixture_monospec(name, algebra):
    """One smooth monogenic function per fixture algebra."""
    triad = fixture_triad(name)
    d = algebra.n - algebra.m
    F = [HoloFn.exp(), HoloFn.sin(), HoloFn.cos()][: algebra.m]
    G = [
        HoloFn.poly([0.0, 1.0]),
        HoloFn.sin(),
        HoloFn.poly([1.0, 0.0, 0.5]),
        HoloFn.cos(),
    ][:d]
    return MonogenicSpec.create(algebra, triad, F, G)


@pytest.fixture(scope="session")
def all_monospecs(all_algebras):
    return {name: fixture_monospec(name, alg) for name, alg in all_algebras.items()}


@pytest.fixture()
def rng():
    return np.random.default_rng(20260823)
