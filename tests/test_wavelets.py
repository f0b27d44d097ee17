import math

import numpy as np
import pytest

from varhardy.exponent import VariableExponent
from varhardy.grid import Domain, GridFunction
from varhardy.norms import lq_norm
from varhardy.presets import function_preset, weight_preset
from varhardy.wavelets import (
    analyze,
    build_wavelet_system,
    synthesize_coefficients,
    v_function,
    w_function,
    wavelet_norm,
)


@pytest.fixture(scope="module")
def dom():
    return Domain(1, 8, 9)


@pytest.fixture(scope="module")
def db2():
    return build_wavelet_system(2)


def l2(f):
    d = f.domain
    return math.sqrt(d.h**d.dim * float(np.sum(f.samples**2)))


class TestFilters:
    def test_db2_four_taps_and_sum(self, db2):
        assert db2.scaling_filter.size == 4
        assert np.sum(db2.scaling_filter) == pytest.approx(math.sqrt(2.0), abs=1e-12)

    @pytest.mark.parametrize("N", [2, 3, 4, 6, 10])
    def test_qmf_identities(self, N):
        sys = build_wavelet_system(N)
        h = sys.scaling_filter
        assert np.sum(h * h) == pytest.approx(1.0, abs=1e-10)
        for m in range(1, N):
            assert abs(np.sum(h[2 * m :] * h[: h.size - 2 * m])) <= 1e-10

    @pytest.mark.parametrize("N", [2, 3, 5, 8])
    def test_discrete_vanishing_moments(self, N):
        sys = build_wavelet_system(N)
        g = sys.wavelet_filter
        k = np.arange(g.size, dtype=float)
        for beta in range(N):
            scale = np.sum(np.abs(g) * k**beta) + 1.0
            assert abs(np.sum(g * k**beta)) <= 1e-9 * scale

    def test_unsupported_order(self):
        with pytest.raises(ValueError):
            build_wavelet_system(1)
        with pytest.raises(ValueError):
            build_wavelet_system(11)


class TestTransform:
    def test_perfect_reconstruction(self, dom, db2):
        rng = np.random.default_rng(0)
        f = GridFunction(dom, rng.normal(size=dom.shape))
        back = synthesize_coefficients(analyze(f, db2, 0))
        assert np.max(np.abs(back.samples - f.samples)) <= 1e-10

    def test_parseval(self, dom, db2):
        rng = np.random.default_rng(1)
        f = GridFunction(dom, rng.normal(size=dom.shape))
        co = analyze(f, db2, 0)
        assert co.energy() == pytest.approx(l2(f) ** 2, abs=1e-8)
        assert co.scaling.size + sum(a.size for v in co.details.values() for a in v.values()) == dom.npts

    def test_linearity(self, dom, db2):
        rng = np.random.default_rng(2)
        f = GridFunction(dom, rng.normal(size=dom.shape))
        g = GridFunction(dom, rng.normal(size=dom.shape))
        ca = analyze(f + 2.0 * g, db2, 3)
        cf = analyze(f, db2, 3)
        cg = analyze(g, db2, 3)
        assert np.allclose(ca.scaling, cf.scaling + 2 * cg.scaling, atol=1e-12)
        for j in ca.details:
            assert np.allclose(ca.details[j]["h"], cf.details[j]["h"] + 2 * cg.details[j]["h"], atol=1e-12)

    def test_basis_member_gives_indicator_coefficients(self, dom, db2):
        co0 = analyze(GridFunction(dom, np.zeros(dom.shape)), db2, 0)
        k0 = co0.scaling.size // 3
        co0.scaling[k0] = 1.0
        member = synthesize_coefficients(co0)
        co = analyze(member, db2, 0)
        assert co.scaling[k0] == pytest.approx(1.0, abs=1e-8)
        rest = np.delete(co.scaling, k0)
        assert np.max(np.abs(rest)) <= 1e-8
        for j in co.details:
            assert np.max(np.abs(co.details[j]["h"])) <= 1e-8

    def test_shift_covariance(self, dom, db2):
        rng = np.random.default_rng(3)
        base = rng.normal(size=dom.shape)
        f = GridFunction(dom, base)
        shift_cells = 1 << dom.level  # shift by exactly 2^-J * 1 with J = 0
        g = GridFunction(dom, np.roll(base, shift_cells))
        cf = analyze(f, db2, 0)
        cg = analyze(g, db2, 0)
        assert np.allclose(np.roll(cf.scaling, 1), cg.scaling, atol=1e-10)

    def test_level_overflow(self, dom, db2):
        f = GridFunction(dom, np.zeros(dom.shape))
        with pytest.raises(ValueError, match="overflow"):
            analyze(f, db2, dom.level)


class TestTransform2D:
    @pytest.fixture(scope="class")
    def dom2(self):
        return Domain(2, 2, 6)

    def test_perfect_reconstruction(self, dom2, db2):
        rng = np.random.default_rng(0)
        f = GridFunction(dom2, rng.normal(size=dom2.shape))
        back = synthesize_coefficients(analyze(f, db2, 0))
        assert np.max(np.abs(back.samples - f.samples)) <= 1e-10

    def test_parseval(self, dom2, db2):
        rng = np.random.default_rng(1)
        f = GridFunction(dom2, rng.normal(size=dom2.shape))
        co = analyze(f, db2, 0)
        assert sorted(co.details[0]) == ["hh", "hl", "lh"]
        assert co.energy() == pytest.approx(l2(f) ** 2, abs=1e-8)
        assert co.scaling.size + sum(a.size for v in co.details.values() for a in v.values()) == dom2.npts**2


class TestSquareFunctions:
    def test_v_zero(self, dom, db2):
        f = GridFunction(dom, np.zeros(dom.shape))
        assert v_function(f, db2, 0).sup() == 0.0

    def test_v_norm_identity(self, dom, db2):
        rng = np.random.default_rng(4)
        f = GridFunction(dom, rng.normal(size=dom.shape))
        co = analyze(f, db2, 0)
        vf = v_function(f, db2, 0)
        assert l2(vf) ** 2 == pytest.approx(float(np.sum(co.scaling**2)), abs=1e-8)

    def test_single_scaling_coefficient(self, dom, db2):
        J = 2
        co = analyze(GridFunction(dom, np.zeros(dom.shape)), db2, J)
        co.scaling[co.scaling.size // 2] = 0.7
        f = synthesize_coefficients(co)
        vf = v_function(f, db2, J)
        assert vf.sup() == pytest.approx(0.7 * 2 ** (J / 2), rel=1e-7)

    def test_parseval_partition(self, dom, db2):
        rng = np.random.default_rng(5)
        f = GridFunction(dom, rng.normal(size=dom.shape))
        vf, wf = v_function(f, db2, 0), w_function(f, db2, 0)
        assert l2(vf) ** 2 + l2(wf) ** 2 == pytest.approx(l2(f) ** 2, abs=1e-7)

    def test_plateau_interior_annihilated(self, dom, db2):
        # degree < N on a wide plateau: away from the edges by the coarse
        # support reach, every contributing coefficient vanishes
        plat = function_preset("plateau:0,4,1", dom)
        wf = w_function(plat, db2, 2)
        interior = np.abs(dom.axis()) < 1.0
        assert np.max(wf.samples[interior]) <= 1e-10 * plat.sup()


class TestWaveletNorm:
    def test_zero(self, dom, db2):
        p = VariableExponent.constant(dom, 2.0)
        w = weight_preset("const:1", dom)
        f = GridFunction(dom, np.zeros(dom.shape))
        assert wavelet_norm(f, p, w, db2) == 0.0

    def test_l2_band_over_bumps(self, dom, db2):
        p = VariableExponent.constant(dom, 2.0)
        rng = np.random.default_rng(6)
        ratios = []
        for _ in range(10):
            c, s = rng.uniform(-2, 2), rng.uniform(0.3, 1.5)
            f = function_preset(f"bump:{c:.3f},{s:.3f}", dom)
            ratios.append(wavelet_norm(f, p, None, db2) / lq_norm(f, 2.0))
        assert max(ratios) / min(ratios) <= 4.0

    def test_moment_gate(self, dom, db2):
        # q_w about 3/2 with p_minus = 1/4 demands L >= 5, beyond db2
        p = VariableExponent.constant(dom, 0.25)
        w = weight_preset("absp:0.5", dom)
        f = function_preset("bump:0,1", dom)
        with pytest.raises(ValueError, match="moment"):
            wavelet_norm(f, p, w, db2)
        # and a system with enough moments passes the gate
        assert wavelet_norm(f, p, w, build_wavelet_system(6)) > 0.0
