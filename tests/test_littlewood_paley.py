import numpy as np
import pytest

from varhardy import grid
from varhardy.exponent import VariableExponent
from varhardy.grid import Domain, GridFunction, convolve, quadrature, rescale_mollifier
from varhardy.littlewood_paley import (
    lp_norm,
    make_phi_pair,
    square_function,
    telescoping_reconstruct,
)
from varhardy.norms import lq_norm
from varhardy.presets import exponent_preset, function_preset, weight_preset


@pytest.fixture(scope="module")
def dom():
    return Domain(1, 8, 9)


@pytest.fixture(scope="module")
def pair(dom):
    return make_phi_pair(2, dom)


class TestPhiPair:
    def test_unit_mass_and_vanishing_moments(self, dom, pair):
        phi, phi_star = pair
        x = dom.axis()
        assert quadrature(phi) == pytest.approx(1.0, abs=1e-6)
        assert abs(quadrature(GridFunction(dom, phi_star.samples))) <= 1e-8
        for beta in (1, 2):
            assert abs(quadrature(GridFunction(dom, phi_star.samples * x**beta))) <= 1e-8

    def test_supports(self, dom, pair):
        phi, phi_star = pair
        x = dom.axis()
        assert np.all(phi.samples[np.abs(x) > 1.0] == 0.0)
        assert np.all(phi_star.samples[np.abs(x) > 2.0] == 0.0)

    def test_2d_pair(self):
        d2 = Domain(2, 4, 6)
        phi, phi_star = make_phi_pair(1, d2)
        assert quadrature(phi) == pytest.approx(1.0, abs=1e-5)
        x, y = d2.coords()
        assert abs(quadrature(GridFunction(d2, phi_star.samples * x))) <= 1e-7
        assert abs(quadrature(GridFunction(d2, phi_star.samples))) <= 1e-7


    @pytest.mark.parametrize("L", [0, 1, 2])
    def test_2d_moments(self, L):
        d2 = Domain(2, 2, 6)
        phi, phi_star = make_phi_pair(L, d2)
        x, y = d2.coords()
        assert quadrature(phi) == pytest.approx(1.0, abs=1e-5)
        for a in range(L + 1):
            for b in range(L + 1 - a):
                moment = quadrature(GridFunction(d2, phi_star.samples * x**a * y**b))
                assert abs(moment) <= 1e-7, (a, b)

    @pytest.mark.parametrize("L", [0, 2])
    @pytest.mark.parametrize("d", [Domain(1, 8, 9), Domain(2, 2, 6)], ids=["n1", "n2"])
    def test_phi_star_telescopes_bitwise(self, d, L):
        phi, phi_star = make_phi_pair(L, d)
        for j in range(1, d.level - 1):
            lhs = rescale_mollifier(phi_star, 2.0**-j).samples
            rhs = rescale_mollifier(phi, 2.0**-j).samples - rescale_mollifier(phi, 2.0 ** (1 - j)).samples
            assert np.array_equal(lhs, rhs), j


class TestSquareFunction:
    def test_zero(self, dom, pair):
        _, phi_star = pair
        f = GridFunction(dom, np.zeros(dom.shape))
        assert square_function(f, phi_star, 5).sup() == 0.0

    def test_polynomial_plateau_interior(self, dom, pair):
        _, phi_star = pair
        # degree <= 2 is annihilated away from the plateau edges; depth is
        # kept at scales with >= 32 samples per unit so the kernel's
        # discrete moments are faithful (the sampling error of the bump
        # grows like exp(-c t/h) toward the scale floor)
        plat = GridFunction.from_callable(
            dom, lambda x: np.where(np.abs(x) < 4, 1.0 + x + 0.5 * x**2, 0.0)
        )
        sf = square_function(plat, phi_star, dom.level - 6)
        x = dom.axis()
        interior = np.abs(x) < 1.0
        assert np.max(sf.samples[interior]) <= 1e-6 * plat.sup()

    def test_monotone_in_depth(self, dom, pair):
        _, phi_star = pair
        f = function_preset("bump:1,0.8", dom)
        a = square_function(f, phi_star, 3)
        b = square_function(f, phi_star, 6)
        assert np.all(b.samples >= a.samples - 1e-14)

    def test_level_consistency_with_grid_primitives(self, dom, pair):
        _, phi_star = pair
        f = function_preset("bump:0,1", dom)
        sf1 = square_function(f, phi_star, 1)
        direct = convolve(f, rescale_mollifier(phi_star, 0.5))
        assert np.max(np.abs(sf1.samples**2 - direct.samples**2)) <= 1e-12

    def test_kernels_from_another_domain_are_refused(self, dom, pair):
        # same sample count, different window and step
        other = Domain(1, 4, 10)
        phi, phi_star = pair
        f = function_preset("bump:0,1", other)
        p = VariableExponent.constant(other, 2.0)
        for call in (
            lambda: square_function(f, phi_star, 3),
            lambda: lp_norm(f, p, None, phi, phi_star),
            lambda: telescoping_reconstruct(f, phi),
        ):
            with pytest.raises(ValueError, match="domain mismatch"):
                call()

    def test_telescope_refuses_a_phi_without_its_pair(self, dom, pair):
        phi, _ = pair
        f = function_preset("bump:0,1", dom)
        with pytest.raises(ValueError, match="make_phi_pair"):
            telescoping_reconstruct(f, GridFunction(dom, phi.samples))

    def test_depth_guard(self, dom, pair):
        _, phi_star = pair
        f = function_preset("bump:0,1", dom)
        with pytest.raises(ValueError, match="deep"):
            square_function(f, phi_star, dom.level)


class TestLPNorm:
    def test_zero(self, dom, pair):
        phi, phi_star = pair
        p = VariableExponent.constant(dom, 2.0)
        f = GridFunction(dom, np.zeros(dom.shape))
        assert lp_norm(f, p, None, phi, phi_star) == 0.0

    def test_homogeneous(self, dom, pair):
        phi, phi_star = pair
        p = exponent_preset("lhdecay:1", dom)
        w = weight_preset("power:1", dom)
        f = function_preset("bump:0.5,1", dom)
        n1 = lp_norm(f, p, w, phi, phi_star)
        n2 = lp_norm(3.0 * f, p, w, phi, phi_star)
        assert n2 == pytest.approx(3.0 * n1, rel=1e-7)

    def test_l2_band_over_bumps(self, dom, pair):
        phi, phi_star = pair
        p = VariableExponent.constant(dom, 2.0)
        rng = np.random.default_rng(8)
        ratios = []
        for _ in range(10):
            c, s = rng.uniform(-2, 2), rng.uniform(0.3, 1.5)
            f = function_preset(f"bump:{c:.3f},{s:.3f}", dom)
            ratios.append(lp_norm(f, p, None, phi, phi_star) / lq_norm(f, 2.0))
        assert max(ratios) / min(ratios) <= 4.0


class TestTelescoping:
    def test_exact_identity_random(self, dom, pair):
        phi, _ = pair
        rng = np.random.default_rng(1)
        f = GridFunction(dom, rng.normal(size=dom.shape))
        for J in (1, 3, dom.level - 3):
            _, rep = telescoping_reconstruct(f, phi, J=J)
            assert rep.q("telescope_error") <= 1e-10

    def test_exact_identity_random_2d(self):
        d2 = Domain(2, 2, 5)
        phi, _ = make_phi_pair(1, d2)
        f = GridFunction(d2, np.random.default_rng(2).normal(size=d2.shape))
        for J in (1, d2.level - 3):
            _, rep = telescoping_reconstruct(f, phi, J=J)
            assert rep.q("telescope_error") <= 1e-10

    def test_smooth_bump_mollification_error(self, dom, pair):
        phi, _ = pair
        f = function_preset("bump:0.3,1.1", dom)
        _, rep = telescoping_reconstruct(f, phi, J=dom.level - 3)
        assert rep.q("relative_l2_error") <= 0.01

    def test_jump_error_decay_rate(self, dom, pair):
        phi, _ = pair
        jump = GridFunction.from_callable(dom, lambda x: ((x >= 0) & (x < 1)).astype(float))
        errs = []
        js = range(2, dom.level - 2)
        for J in js:
            _, rep = telescoping_reconstruct(jump, phi, J=J)
            errs.append(rep.q("relative_l2_error"))
        slope = np.polyfit(list(js), np.log2(errs), 1)[0]
        assert slope == pytest.approx(-0.5, abs=0.2)


class TestSpectraKept:
    @pytest.fixture
    def built(self, monkeypatch):
        """Every kernel spectrum the module builds."""
        built = []
        real = grid.kernel_spectrum

        def counting(g):
            built.append(g)
            return real(g)

        monkeypatch.setattr(grid, "kernel_spectrum", counting)
        return built

    def test_second_call_builds_no_kernel_spectrum(self, dom, built):
        phi, phi_star = make_phi_pair(2, dom)
        p = exponent_preset("lhdecay:1", dom)
        w = weight_preset("power:1", dom)
        f, g = function_preset("bump:0.5,1", dom), function_preset("bump:-1,0.7,2", dom)
        first = lp_norm(f, p, w, phi, phi_star)
        assert len(built) == dom.level - 2  # phi and J = level - 3 levels of phi_star
        built.clear()
        assert lp_norm(f, p, w, phi, phi_star) == first
        lp_norm(g, p, w, phi, phi_star)
        square_function(g, phi_star, 4)
        assert built == []

    def test_second_telescope_builds_no_kernel_spectrum(self, dom, built):
        phi, _ = make_phi_pair(2, dom)
        f = function_preset("bump:0.5,1", dom)
        out, _ = telescoping_reconstruct(f, phi)
        assert built
        built.clear()
        again, _ = telescoping_reconstruct(f, phi)
        assert built == []
        assert np.array_equal(again.samples, out.samples)

    def test_telescope_after_lp_norm_builds_one_spectrum(self, dom, built):
        phi, phi_star = make_phi_pair(2, dom)
        f = function_preset("bump:0.5,1", dom)
        lp_norm(f, VariableExponent.constant(dom, 2.0), None, phi, phi_star)
        built.clear()
        telescoping_reconstruct(f, phi)
        assert len(built) == 1  # phi at 2^-J; the levels reuse phi_star's spectra
