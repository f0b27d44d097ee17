"""Property-based checks of the algebraic invariants on a compact domain."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from cube_reference import cube_quadrature
from varhardy.atoms import Cube
from varhardy.exponent import VariableExponent, dual_exponent
from varhardy.grid import Domain, GridFunction, quadrature, rescale_mollifier
from varhardy.maximal import hl_maximal
from varhardy.norms import _luxemburg_solve, luxemburg_norm, modular
from varhardy.wavelets import analyze, build_wavelet_system
from varhardy.weights import SLACK, VARIANCE_MARGIN, Weight, _bennett, _bracket

DOM = Domain(1, 2, 5)  # small lattice keeps every example cheap
SQUARE = Domain(2, DOM.half_width, DOM.level)  # DOM x DOM, for tensor products
MAXIMAL_DOMS = pytest.mark.parametrize("dom", [DOM, Domain(2, 0.5, 4)], ids=["n1", "n2"])

finite_arrays = st.lists(
    st.floats(min_value=-5.0, max_value=5.0, allow_nan=False),
    min_size=DOM.npts, max_size=DOM.npts,
).map(lambda v: np.asarray(v))

exponent_arrays = st.lists(
    st.floats(min_value=0.5, max_value=4.0, allow_nan=False),
    min_size=DOM.npts, max_size=DOM.npts,
).map(lambda v: np.asarray(v))

scalars = st.floats(min_value=0.01, max_value=100.0, allow_nan=False)


def samples_on(dom):
    return hnp.arrays(
        float, dom.shape, elements=st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)
    )


@settings(max_examples=25, deadline=None)
@given(finite_arrays, finite_arrays, scalars)
def test_quadrature_linearity(a, b, c):
    f = GridFunction(DOM, a)
    g = GridFunction(DOM, b)
    lhs = quadrature(c * f + g)
    rhs = c * quadrature(f) + quadrature(g)
    assert abs(lhs - rhs) <= 1e-12 * (1 + abs(rhs))


@settings(max_examples=25, deadline=None)
@given(finite_arrays, exponent_arrays, scalars)
def test_luxemburg_homogeneity(a, pv, c):
    f = GridFunction(DOM, a)
    p = VariableExponent(GridFunction(DOM, pv))
    n1 = luxemburg_norm(f, p)
    n2 = luxemburg_norm(c * f, p)
    assert n2 == pytest.approx(c * n1, rel=1e-7, abs=1e-12)


@settings(max_examples=20, deadline=None)
@given(finite_arrays, finite_arrays, exponent_arrays)
def test_triangle_inequality_for_p_at_least_one(a, b, pv):
    p = VariableExponent(GridFunction(DOM, 1.0 + pv))
    f = GridFunction(DOM, a)
    g = GridFunction(DOM, b)
    assert luxemburg_norm(f + g, p) <= (
        luxemburg_norm(f, p) + luxemburg_norm(g, p)
    ) * (1 + 1e-6) + 1e-12


@settings(max_examples=25, deadline=None)
@given(exponent_arrays)
def test_dual_exponent_involution(pv):
    p = VariableExponent(GridFunction(DOM, 1.05 + pv))
    back = dual_exponent(dual_exponent(p))
    assert np.max(np.abs(back.values.samples - p.values.samples)) <= 1e-10


@MAXIMAL_DOMS
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_maximal_sublinearity(dom, data):
    f = GridFunction(dom, data.draw(samples_on(dom)))
    g = GridFunction(dom, data.draw(samples_on(dom)))
    excess = hl_maximal(f + g).samples - hl_maximal(f).samples - hl_maximal(g).samples
    assert np.max(excess) <= 1e-10


@MAXIMAL_DOMS
@settings(max_examples=15, deadline=None)
@given(data=st.data(), c=scalars)
def test_maximal_positive_homogeneity(dom, data, c):
    f = GridFunction(dom, data.draw(samples_on(dom)))
    lhs = hl_maximal(c * f).samples
    rhs = c * hl_maximal(f).samples
    assert np.max(np.abs(lhs - rhs)) <= 1e-10 * (1 + c)


@settings(max_examples=20, deadline=None)
@given(finite_arrays, exponent_arrays, st.floats(min_value=0.1, max_value=0.9))
def test_modular_monotone_under_shrinking(a, pv, t):
    p = VariableExponent(GridFunction(DOM, pv))
    w = Weight(GridFunction(DOM, np.ones(DOM.shape)))
    f = GridFunction(DOM, a)
    assert modular(t * f, p, w) <= modular(f, p, w) + 1e-12


# Tensor consistency: on a separable input f(x) g(y) every lattice helper
# must give the outer product of its one-dimensional results.


def tensor(a, b):
    return GridFunction(SQUARE, np.outer(a, b))


@settings(max_examples=10, deadline=None)
@given(finite_arrays, finite_arrays, st.integers(min_value=0, max_value=3))
def test_rescale_mollifier_is_separable(a, b, j):
    t = 2.0**-j
    lhs = rescale_mollifier(tensor(a, b), t).samples
    rhs = np.outer(*(rescale_mollifier(GridFunction(DOM, v), t).samples for v in (a, b)))
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(1.0, np.max(np.abs(rhs)))


cube_axes = st.tuples(st.integers(0, 2), st.integers(-6, 5))


@settings(max_examples=25, deadline=None)
@given(finite_arrays, finite_arrays, st.integers(-1, 4), cube_axes, cube_axes)
def test_cube_quadrature_is_separable(a, b, k, ax, ay):
    (sx, mx), (sy, my) = ax, ay
    lhs = cube_quadrature(tensor(a, b), Cube(k, (sx, sy), (mx, my)))
    qa = cube_quadrature(GridFunction(DOM, a), Cube(k, (sx,), (mx,)))
    qb = cube_quadrature(GridFunction(DOM, b), Cube(k, (sy,), (my,)))
    assert abs(lhs - qa * qb) <= 1e-12 * max(1.0, abs(qa * qb))


@settings(max_examples=10, deadline=None)
@given(finite_arrays, finite_arrays)
def test_wavelet_bands_are_separable(a, b):
    db2 = build_wavelet_system(2)
    co = analyze(tensor(a, b), db2, 1)
    for j, bands in co.details.items():
        lo_hi = [analyze(GridFunction(DOM, v), db2, j) for v in (a, b)]
        lo = [c.scaling for c in lo_hi]
        hi = [c.details[j]["h"] for c in lo_hi]
        for key, want in (("lh", np.outer(lo[0], hi[1])), ("hl", np.outer(hi[0], lo[1])),
                          ("hh", np.outer(hi[0], hi[1]))):
            assert np.max(np.abs(bands[key] - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


@st.composite
def modular_groups(draw):
    """(c, p) of one group of points: c from 1e-200 to 1e200, so that log M
    takes both signs; p in [1.05, 4], or one value of it, or the dual
    exponents p / (p - 1) of p in [1.05, 1.5] (3 to 21)."""
    n = draw(st.one_of(st.just(1), st.integers(2, 24)))
    c = 10.0 ** np.asarray(draw(st.lists(st.floats(-200.0, 200.0), min_size=n, max_size=n)))
    kind = draw(st.sampled_from(["spread", "one value", "dual"]))
    if kind == "one value":
        return c, np.full(n, draw(st.floats(1.05, 4.0)))
    hi = 4.0 if kind == "spread" else 1.5
    p = np.asarray(draw(st.lists(st.floats(1.05, hi), min_size=n, max_size=n)))
    return c, (p if kind == "spread" else p / (p - 1.0))


@settings(max_examples=200, deadline=None)
@given(modular_groups())
def test_bennett_bound_holds(group):
    """The root s of sum c e^{-p s} = 1, from the solver, lies in
    `_bracket`'s [lo, hi] with hi tightened by `_bennett`, within SLACK.
    The variance is E[p^2] - E[p]^2 plus VARIANCE_MARGIN = 1e-12 times
    E[p^2], which covers the cancellation of the difference (its error is
    estimated at 7e-15 E[p^2]); a group of one value of p, or of one point,
    has variance 0 and is bounded by the margin alone."""
    assert VARIANCE_MARGIN == 1e-12
    c, p = group
    m = np.sum(c)
    log_m, p_mean, p_sq, p_lo, p_hi = (
        np.array([x]) for x in (np.log(m), np.sum(c * p) / m, np.sum(c * p * p) / m, p.min(), p.max())
    )
    lo, hi = _bracket(log_m, p_mean, p_lo, p_hi)
    top = _bennett(log_m, p_mean, p_sq, p_lo, p_hi, hi)
    # the norm is homogeneous in g: g = e^{-top} keeps it at most 1 where
    # the bound holds, below the solver's cap
    shift = float(top[0])
    s = math.log(_luxemburg_solve(np.asarray(math.exp(-shift)), p, c).item()) + shift
    assert top[0] <= hi[0]
    assert lo[0] - math.log1p(SLACK) <= s <= top[0] + math.log1p(SLACK)
