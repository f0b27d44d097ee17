import numpy as np
import pytest

from varhardy.exponent import (
    VariableExponent,
    dual_exponent,
    lh0_constant,
    lhinf_constant,
    mean_exponent,
    s_exponent,
    S_SENTINEL,
)
from varhardy.grid import Cube, Domain, GridFunction, quadrature
from varhardy.presets import exponent_preset


@pytest.fixture
def dom():
    return Domain(1, 8, 9)


class TestBounds:
    def test_constant(self, dom):
        p = VariableExponent.constant(dom, 2.0)
        assert (p.p_minus, p.p_plus) == (2.0, 2.0)

    def test_half_one_clip(self, dom):
        p = exponent_preset("paper91", dom)
        lo, hi = p.p_minus, p.p_plus
        assert lo == pytest.approx(0.5)
        assert hi == pytest.approx(1.0)

    def test_sin2_dense_sampling(self, dom):
        # oracle: dense sampling of 2 + sin^2 on the window
        p = exponent_preset("sin2", dom)
        xs = np.linspace(-8, 8, 400001)
        vals = 2 + np.sin(xs) ** 2
        lo, hi = p.p_minus, p.p_plus
        assert lo == pytest.approx(vals.min(), abs=1e-4)
        assert hi == pytest.approx(vals.max(), abs=1e-4)

    def test_nonpositive_rejected(self, dom):
        with pytest.raises(ValueError):
            VariableExponent(GridFunction(dom, np.zeros(dom.shape)))


class TestLogHolder:
    def test_constant_is_zero(self, dom):
        assert lh0_constant(VariableExponent.constant(dom, 3.0)) == 0.0

    def test_lipschitz_matches_bruteforce(self, dom):
        p = VariableExponent.from_callable(dom, lambda x: 2 + np.minimum(1.0, np.abs(x)))
        c = lh0_constant(p)
        # brute-force oracle over a coarse subgrid
        xs = dom.axis()[::32]
        vals = 2 + np.minimum(1.0, np.abs(xs))
        dx = np.abs(xs[:, None] - xs[None, :])
        dv = np.abs(vals[:, None] - vals[None, :])
        m = (dx > 0) & (dx <= 0.5)
        oracle = np.max(dv[m] * np.log(1 / dx[m]))
        assert c == pytest.approx(oracle, rel=0.2)
        assert np.isfinite(c)

    def test_step_unstable_across_resolutions(self, dom):
        step = lambda x: np.where(x < 0, 2.0, 3.0)
        c0 = lh0_constant(VariableExponent.from_callable(dom, step))
        c1 = lh0_constant(VariableExponent.from_callable(dom.refine(), step))
        assert c1 / c0 > 1.05  # grows without bound as h -> 0

    def test_smooth_resolution_stable(self, dom):
        p = exponent_preset("lhdecay:1", dom)
        c0 = lh0_constant(p)
        c1 = lh0_constant(p.at_level(dom.level + 1))
        assert 0.8 <= (c1 + 1e-12) / (c0 + 1e-12) <= 1.25


class TestLHInfinity:
    def test_at_limit_zero(self, dom):
        p = VariableExponent.constant(dom, 2.0)
        assert lhinf_constant(p) == 0.0

    def test_exact_by_construction(self, dom):
        p = exponent_preset("lhdecay:1", dom)
        assert lhinf_constant(p) == pytest.approx(1.0, abs=1e-9)

    def test_exponential_decay_oracle(self, dom):
        p = VariableExponent.from_callable(dom, lambda x: 2 + np.exp(-np.abs(x)), p_infty=2.0)
        xs = np.linspace(-8, 8, 200001)
        oracle = np.max(np.exp(-np.abs(xs)) * np.log(np.e + np.abs(xs)))
        assert lhinf_constant(p) == pytest.approx(oracle, rel=1e-3)

    def test_requires_declared_limit(self, dom):
        p = VariableExponent(GridFunction(dom, np.full(dom.shape, 2.0)))
        with pytest.raises(ValueError):
            lhinf_constant(p)


class TestDual:
    def test_two_self_dual(self, dom):
        p = VariableExponent.constant(dom, 2.0)
        q = dual_exponent(p)
        assert np.allclose(q.values.samples, 2.0)

    def test_four_gives_four_thirds(self, dom):
        q = dual_exponent(VariableExponent.constant(dom, 4.0))
        assert np.allclose(q.values.samples, 4.0 / 3.0)

    def test_pointwise_identity(self, dom):
        p = exponent_preset("sin2", dom)
        q = dual_exponent(p)
        assert np.max(np.abs(1 / p.values.samples + 1 / q.values.samples - 1)) < 1e-12

    def test_involution_and_bound_duality(self, dom):
        p = exponent_preset("lhdecay:1", dom)
        pp = dual_exponent(dual_exponent(p))
        assert np.max(np.abs(pp.values.samples - p.values.samples)) < 1e-12
        q = dual_exponent(p)
        assert q.p_minus == pytest.approx(p.p_plus / (p.p_plus - 1), rel=1e-12)

    def test_rejects_p_minus_at_most_one(self, dom):
        with pytest.raises(ValueError):
            dual_exponent(exponent_preset("paper91", dom))


class TestMeanExponent:
    def test_constant(self, dom):
        p = VariableExponent.constant(dom, 3.0)
        assert mean_exponent(p, Cube(0, (0,), (0,))) == pytest.approx(3.0)

    def test_two_block_closed_form(self, dom):
        # p = 2 on the left half of [0,1), 4 on the right: p_E = 8/3
        p = VariableExponent.from_callable(dom, lambda x: np.where(x < 0.5, 2.0, 4.0))
        assert mean_exponent(p, Cube(0, (0,), (0,))) == pytest.approx(8.0 / 3.0, rel=1e-9)

    def test_between_bounds(self, dom):
        p = exponent_preset("sin2", dom)
        pe = mean_exponent(p, Cube(1, (2,), (3,)))
        assert p.p_minus <= pe <= p.p_plus


class TestSExponent:
    def test_constant_gives_sentinel(self, dom):
        p = VariableExponent.constant(dom, 2.0)
        assert np.all(s_exponent(p).samples == S_SENTINEL)

    def test_pointwise_value(self, dom):
        p = VariableExponent.from_callable(dom, lambda x: np.full_like(x, 2.0), p_infty=4.0)
        # |1/4 - 1/2| = 1/4 so s = 4
        assert np.allclose(s_exponent(p).samples, 4.0)

    def test_integrability_probe(self, dom):
        # quadrature oracle: gamma^{s(x)/p_minus} integrable for the decaying preset
        p = exponent_preset("lhdecay:1", dom)
        s = s_exponent(p)
        gamma = 0.1
        integrand = GridFunction(dom, gamma ** np.minimum(s.samples / p.p_minus, 700))
        coarse = quadrature(integrand)
        p2 = p.at_level(dom.level + 1)
        s2 = s_exponent(p2)
        fine = quadrature(GridFunction(p2.domain, gamma ** np.minimum(s2.samples / p2.p_minus, 700)))
        assert fine <= 1.5 * coarse
        assert np.isfinite(coarse)
