import numpy as np
import pytest

from varhardy.exponent import VariableExponent, dual_exponent
from varhardy.grid import Domain, GridFunction
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
