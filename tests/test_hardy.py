import numpy as np
import pytest

from varhardy.exponent import VariableExponent
from varhardy.grid import Domain, GridFunction, convolve, rescale_mollifier
from varhardy.hardy import (
    _offset_max,
    build_dictionary,
    capital_n,
    dirac_membership_check,
    grand_maximal,
    hardy_norm,
    nested_dictionaries,
    LARGE_RADIUS,
)
from varhardy.norms import lq_norm, luxemburg_norm
from varhardy.presets import exponent_preset, function_preset, weight_preset
from varhardy.weights import Weight


@pytest.fixture(scope="module")
def dom():
    return Domain(1, 8, 9)


@pytest.fixture(scope="module")
def dicts(dom):
    return nested_dictionaries(2, 8, dom)


class TestDictionaryBuild:
    def test_canonical_bump_passes_bound(self, dom, dicts):
        small, _ = dicts
        from varhardy.hardy import _fd_derivative_sup

        for member in small.members:
            sup = _fd_derivative_sup(member.samples, dom.h, small.order + 1, 1)
            assert sup <= 1.0
            # supported in the unit ball
            outside = np.abs(dom.axis()) >= 1.0
            assert np.all(member.samples[outside] == 0.0)

    def test_nondegenerate(self, dicts):
        small, large = dicts
        assert small.nondegenerate and large.nondegenerate

    def test_reproducible_from_seed(self, dom):
        a = build_dictionary(2, "large", 12, dom, seed=42)
        b = build_dictionary(2, "large", 12, dom, seed=42)
        assert len(a.members) == 12
        for ma, mb in zip(a.members, b.members):
            assert np.array_equal(ma.samples, mb.samples)

    def test_nesting(self, dicts):
        small, large = dicts
        for ms, ml in zip(small.members, large.members):
            assert np.array_equal(ms.samples, ml.samples)

    def test_count_floor(self, dom):
        with pytest.raises(ValueError):
            build_dictionary(2, "small", 3, dom)


class TestGrandMaximal:
    def test_pointwise_chain(self, dom, dicts):
        small, large = dicts
        f = function_preset("bump:0.5,0.9", dom)
        m0 = grand_maximal(f, small, "M0")
        mb = grand_maximal(f, large, "Mbar0")
        mn = grand_maximal(f, large, "MN")
        assert np.all(m0.samples <= mb.samples + 1e-12)
        assert np.all(mb.samples <= mn.samples + 1e-12)

    def test_bump_comparable_at_peak(self, dom, dicts):
        _, large = dicts
        f = function_preset("bump:0,1", dom)
        mn = grand_maximal(f, large, "MN")
        ratio = mn.sup() / f.sup()
        assert 0.5 <= ratio <= 4.0

    def test_delta_profile_slope(self, dom, dicts):
        small, _ = dicts
        prof = grand_maximal(function_preset("delta", dom), small, "M0").samples
        x = dom.axis()
        sel = (x >= 4 * dom.h) & (x <= 0.25)
        slope = np.polyfit(np.log(x[sel]), np.log(prof[sel]), 1)[0]
        assert slope == pytest.approx(-1.0, abs=0.15)

    def test_sublinear(self, dom, dicts):
        _, large = dicts
        rng = np.random.default_rng(1)
        f = function_preset("bump:-1,0.8", dom)
        g = function_preset("bump:1,0.5", dom)
        mf = grand_maximal(f, large, "M0")
        mg = grand_maximal(g, large, "M0")
        mfg = grand_maximal(f + g, large, "M0")
        assert np.all(mfg.samples <= mf.samples + mg.samples + 1e-12)

    def test_monotone_under_dictionary_enlargement(self, dom):
        small = build_dictionary(2, "small", 4, dom)
        bigger = build_dictionary(2, "small", 8, dom)
        f = function_preset("bump:2,0.7", dom)
        a = grand_maximal(f, small, "M0")
        b = grand_maximal(f, bigger, "M0")
        assert np.all(a.samples <= b.samples + 1e-15)

    def test_support_propagation(self, dom, dicts):
        _, large = dicts
        f = function_preset("bump:0,1.5", dom)  # supported in B(1.5)
        m0 = grand_maximal(f, large, "M0")
        far = np.abs(dom.axis()) > 1.5 + LARGE_RADIUS + 2 * dom.h
        # zero up to FFT round-off dust
        assert np.max(m0.samples[far]) <= 1e-13 * f.sup()


def plain_grand_maximal(f, dic, mode):
    """The grand maximal function as one convolution per member and scale."""
    d = f.domain
    out = np.zeros(d.shape)
    for member in dic.members:
        for j in range(d.level - 1):  # t = 2^-j from 1 down to 4h
            conv = np.abs(convolve(f, rescale_mollifier(member, 2.0 ** (-j))).samples)
            if mode == "MN":
                conv = _offset_max(conv, 1 << (d.level - j), d.dim)
            out = np.maximum(out, conv)
    return out


class TestGrandMaximalBank:
    @pytest.mark.parametrize(
        "domain, bumps",
        [
            (Domain(1, 8, 9), ("bump:0.5,0.9", "bump:-1.2,0.4,3")),
            (Domain(2, 2, 4), ("bump:0.3,0.6", "bump:-0.5,0.9,2")),
        ],
        ids=["n1", "n2"],
    )
    def test_matches_one_convolution_per_kernel(self, domain, bumps):
        _, large = nested_dictionaries(2, 8, domain)
        # the second function meets a dictionary whose spectra are cached
        for spec in bumps:
            f = function_preset(spec, domain)
            for mode in ("M0", "MN"):
                want = plain_grand_maximal(f, large, mode)
                assert np.array_equal(grand_maximal(f, large, mode).samples, want)


class TestHardyNorm:
    def test_zero(self, dom, dicts):
        _, large = dicts
        p = VariableExponent.constant(dom, 2.0)
        w = weight_preset("const:1", dom)
        f = GridFunction(dom, np.zeros(dom.shape))
        assert hardy_norm(f, p, w, large) == 0.0

    def test_positive_iff_nonzero(self, dom, dicts):
        _, large = dicts
        p = VariableExponent.constant(dom, 2.0)
        f = function_preset("bump:3,0.2,0.01", dom)
        assert hardy_norm(f, p, None, large, check_order=False) > 0.0

    def test_comparable_to_l2_over_bumps(self, dom, dicts):
        # h^p = L^p for p > 1: the ratio stays in a fixed band over bumps
        _, large = dicts
        p = VariableExponent.constant(dom, 2.0)
        w = weight_preset("const:1", dom)
        rng = np.random.default_rng(7)
        ratios = []
        for _ in range(10):
            c, s = rng.uniform(-2, 2), rng.uniform(0.3, 1.5)
            f = function_preset(f"bump:{c:.3f},{s:.3f}", dom)
            ratios.append(hardy_norm(f, p, w, large) / lq_norm(f, 2.0))
        assert max(ratios) / min(ratios) <= 4.0

    def test_equivalence_probe_stability(self, dom, dicts):
        # ratio of MN-based to M0-based norms stays bounded across bumps
        small, large = dicts
        p = exponent_preset("lhdecay:1", dom)
        w = weight_preset("power:1", dom)
        rng = np.random.default_rng(3)
        ratios = []
        for _ in range(8):
            c, s = rng.uniform(-2, 2), rng.uniform(0.4, 1.2)
            f = function_preset(f"bump:{c:.3f},{s:.3f}", dom)
            num = luxemburg_norm(grand_maximal(f, large, "MN"), p, w)
            den = luxemburg_norm(grand_maximal(f, small, "M0"), p, w)
            ratios.append(num / den)
        assert max(ratios) / min(ratios) <= 4.0
        assert all(r >= 1.0 - 1e-9 for r in ratios)

    def test_order_gate(self, dom, dicts):
        _, large = dicts
        p = VariableExponent.from_callable(dom, lambda x: np.full_like(x, 0.5), 0.5)
        w = weight_preset("absp:0.5", dom)
        f = function_preset("bump:0,1", dom)
        # q_w = 3/2, p_minus = 1/2 requires order 2 + floor(2) = 4 > 2
        with pytest.raises(ValueError, match="order"):
            hardy_norm(f, p, w, large)


class TestCapitalN:
    def test_unit_weight(self, dom):
        p = VariableExponent.constant(dom, 2.0)
        w = weight_preset("const:1", dom)
        assert capital_n(p, w) == 2

    def test_critical_power_weight(self, dom):
        # q_w about 3/2 and p_minus = 1/2 give 2 + floor(1 * (3 - 1)) = 4
        p = VariableExponent.from_callable(dom, lambda x: np.full_like(x, 0.5), 0.5)
        w = weight_preset("absp:0.5", dom)
        assert capital_n(p, w) == 4

    def test_monotone_in_p_minus(self, dom):
        w = weight_preset("absp:0.5", dom)
        values = []
        for pm in (0.4, 0.7, 1.0):
            p = VariableExponent.constant(dom, pm)
            values.append(capital_n(p, w))
        assert values == sorted(values, reverse=True)


class TestDiracMembership:
    def test_example_couples_pass(self, dom):
        couples = [
            (exponent_preset("paper91", dom), Weight.from_callable(dom, lambda x: np.ones_like(np.asarray(x, dtype=float)), midpoint=True)),
            (exponent_preset("const:2", dom), Weight.from_callable(dom, lambda x: np.abs(x) ** 2 / (1 + np.abs(x) ** 3), midpoint=True)),
            (exponent_preset("const:2", dom), Weight.from_callable(dom, lambda x: np.abs(x) ** 2 * np.exp(np.abs(x)), midpoint=True)),
        ]
        for p, w in couples:
            assert dirac_membership_check(p, w).passed

    def test_lebesgue_couple_fails(self, dom):
        p = exponent_preset("const:2", dom)
        w = weight_preset("const:1", dom)
        rep = dirac_membership_check(p, w)
        assert not rep.passed
        assert rep.q("ratio") >= 2.0 - 1e-6
