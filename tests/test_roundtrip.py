"""The JSON forms of algebras, holomorphic functions and PDEs read back unchanged."""

import cmath
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from monogenica import AlgebraSpec, HoloFn, PdeSpec, algebra_from_dict, pde_from_dict
from monogenica.holo import holo_from_dict

from oracles import algebra_to_dict, holo_to_dict, pde_to_dict

finite = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
# Moduli near 1 keep every triple product far above rounding noise.
units = st.builds(cmath.rect, st.floats(0.5, 2.0), st.floats(-3.14, 3.14))
complexes = st.builds(complex, finite, finite)


def through_json(data):
    return json.loads(json.dumps(data))


@st.composite
def algebras(draw):
    """A valid algebra: either radical vectors with any owners and no
    products, or a chain I_{m+a} = lam_a eps^a of C[eps]/(eps^(d+1)) owned
    by one idempotent, whose structure constants are lam_a lam_b / lam_(a+b)."""
    m = draw(st.integers(1, 3))
    d = draw(st.integers(0, 5))
    if draw(st.booleans()) or d < 2:
        owners = draw(st.lists(st.integers(1, m), min_size=d, max_size=d))
        return AlgebraSpec.create(m + d, m, [], {m + 1 + a: u for a, u in enumerate(owners)})
    u = draw(st.integers(1, m))
    lam = [None] + [draw(units) for _ in range(d)]
    upsilon = [
        (m + a, m + b, m + a + b, lam[a] * lam[b] / lam[a + b])
        for a in range(1, d + 1)
        for b in range(a, d + 1 - a)
    ]
    return AlgebraSpec.create(m + d, m, upsilon, {m + a: u for a in range(1, d + 1)})


@st.composite
def holo_fns(draw):
    kind = draw(st.sampled_from(["poly", "exp", "sin", "cos", "series"]))
    kw = {
        "amp": draw(complexes),
        "scale": draw(complexes),
        "shift": draw(complexes),
    }
    if kind in ("poly", "series"):
        kw["coeffs"] = draw(st.lists(complexes, max_size=6))
    if kind == "series":
        kw["center"] = draw(complexes)
        kw["radius"] = draw(st.floats(1e-3, 1e3))
    return HoloFn(kind, **kw)


@st.composite
def pdes(draw):
    N = draw(st.integers(1, 5))
    terms = []
    for _ in range(draw(st.integers(1, 4))):
        alpha = draw(st.integers(0, N))
        beta = draw(st.integers(0, N - alpha))
        terms.append((alpha, beta, N - alpha - beta, draw(finite)))
    return PdeSpec.create(N, terms)


@settings(max_examples=80, deadline=None)
@given(spec=algebras())
def test_algebra_round_trip(spec):
    back = algebra_from_dict(through_json(algebra_to_dict(spec)))
    assert back == spec
    assert (back.mult_tensor == spec.mult_tensor).all()


@settings(max_examples=80, deadline=None)
@given(f=holo_fns())
def test_holo_round_trip(f):
    assert holo_from_dict(through_json(holo_to_dict(f))) == f


@settings(max_examples=80, deadline=None)
@given(pde=pdes())
def test_pde_round_trip(pde):
    assert pde_from_dict(through_json(pde_to_dict(pde))) == pde
