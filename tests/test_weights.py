import numpy as np
import pytest

from varhardy import weights as weights_mod
from varhardy.exponent import VariableExponent
from varhardy.grid import CubeLayout, Domain, GridFunction, all_shifts, level_range
from varhardy.presets import exponent_preset, weight_preset
from varhardy.weights import (
    Weight,
    a1_loc_constant,
    a_loc_infty_constant,
    a_loc_p_constant,
    a_loc_var_constant,
    dual_weight,
    q_w_estimate,
    reverse_holder_check,
    stability_ratio,
    tilde_a_constant,
    STABILITY_FACTOR,
)


@pytest.fixture
def dom():
    return Domain(1, 8, 9)


def two_res(spec, fn, m=9):
    c0 = fn(weight_preset(spec, Domain(1, 8, m)))
    c1 = fn(weight_preset(spec, Domain(1, 8, m + 1)))
    return c0, c1


class TestAInfty:
    def test_constant_weight(self, dom):
        rep = a_loc_infty_constant(weight_preset("const:4", dom))
        assert rep.constant == pytest.approx(1.0, abs=1e-10)

    def test_power_weight_finite_stable(self):
        c0, c1 = two_res("power:3", lambda w: a_loc_infty_constant(w).constant)
        assert np.isfinite(c0)
        assert stability_ratio(c0, c1) <= STABILITY_FACTOR

    def test_jensen_lower_bound(self, dom):
        rng = np.random.default_rng(0)
        w = Weight(GridFunction(dom, np.exp(rng.normal(size=dom.shape))))
        assert a_loc_infty_constant(w).constant >= 1.0 - 1e-9


class TestAP:
    def test_unit_weight(self, dom):
        rep = a_loc_p_constant(weight_preset("const:1", dom), 2.0)
        assert rep.constant == pytest.approx(1.0, abs=1e-12)

    def test_sqrt_weight_stable(self):
        # frozen two-resolution oracle: constant about 1.34, ratio about 1.005
        c0, c1 = two_res("absp:0.5", lambda w: a_loc_p_constant(w, 2.0).constant)
        assert c0 == pytest.approx(1.344, rel=0.02)
        assert stability_ratio(c0, c1) <= STABILITY_FACTOR

    def test_square_weight_blows_up(self):
        # alpha = 2 >= p - 1 fails A_p; frozen oracle ratio 2.000 per level
        c0, c1 = two_res("absp:2", lambda w: a_loc_p_constant(w, 2.0).constant)
        assert stability_ratio(c0, c1) >= 2.0 * (1 - 1e-3)

    def test_rejects_p_at_most_one(self, dom):
        with pytest.raises(ValueError):
            a_loc_p_constant(weight_preset("const:1", dom), 1.0)


class TestA1:
    def test_unit_weight(self, dom):
        assert a1_loc_constant(weight_preset("const:1", dom)).constant == pytest.approx(1.0)

    def test_unit_weight_2d(self):
        # analytic oracle: M^loc 1 = 1, so [1]_{A1 loc} = 1 in every dimension
        w = Weight.constant(Domain(2, 4, 5), 1.0)
        assert a1_loc_constant(w).constant == pytest.approx(1.0, rel=1e-12)

    def test_decreasing_power_finite(self, dom):
        # frozen direct evaluation oracle: about 1.386
        c = a1_loc_constant(weight_preset("power:-1", dom)).constant
        assert c == pytest.approx(1.386, rel=0.02)

    def test_increasing_power_blows_up(self):
        # frozen oracle: sqrt(2) growth per level, so factor 2 over two levels
        c0 = a1_loc_constant(weight_preset("absp:0.5", Domain(1, 8, 9))).constant
        c2 = a1_loc_constant(weight_preset("absp:0.5", Domain(1, 8, 11))).constant
        assert c2 / c0 >= 1.8


class TestReverseHolder:
    def test_constant_weight(self, dom):
        rep = reverse_holder_check(weight_preset("const:1", dom))
        assert rep.passed
        assert rep.q("worst_ratio") == pytest.approx(1.0, abs=1e-9)

    def test_decaying_power(self, dom):
        rep = reverse_holder_check(weight_preset("power:-1", dom))
        assert rep.passed
        assert rep.q("worst_ratio") <= 2.0

    def test_forced_exponent_fails(self, dom):
        # with q forced to 3 (not the self-improvement exponent) the bound
        # breaks on small cubes near the singularity
        rep = reverse_holder_check(weight_preset("absp:-0.9", dom), q=3.0)
        assert not rep.passed
        assert rep.q("worst_ratio") > 2.0


class TestDualWeight:
    def test_unit(self, dom):
        p = exponent_preset("sin2", dom)
        s = dual_weight(weight_preset("const:1", dom), p)
        assert np.allclose(s.values.samples, 1.0)

    def test_p_two_reciprocal(self, dom):
        p = VariableExponent.constant(dom, 2.0)
        w = weight_preset("power:2", dom)
        s = dual_weight(w, p)
        assert np.allclose(s.values.samples * w.values.samples, 1.0, rtol=1e-12)

    def test_involution(self, dom):
        from varhardy.exponent import dual_exponent

        p = exponent_preset("lhdecay:1", dom)
        w = weight_preset("power:1", dom)
        back = dual_weight(dual_weight(w, p), dual_exponent(p))
        assert np.allclose(back.values.samples, w.values.samples, rtol=1e-10)


class TestALocVar:
    def test_unit_weight_const_exponent(self, dom):
        p = VariableExponent.constant(dom, 2.0)
        rep = a_loc_var_constant(weight_preset("const:1", dom), p)
        assert rep.constant == pytest.approx(1.0, rel=1e-5)

    def test_power_weight_decay_exponent(self, dom):
        p = exponent_preset("lhdecay:1", dom)
        c0 = a_loc_var_constant(weight_preset("power:1", dom), p).constant
        p1 = p.at_level(10)
        c1 = a_loc_var_constant(weight_preset("power:1", Domain(1, 8, 10)), p1).constant
        assert np.isfinite(c0)
        assert stability_ratio(c0, c1) <= STABILITY_FACTOR

    def test_monotone_in_exponent(self, dom):
        # finiteness transfers from p(.) to q(.) = p(.) + 1/2
        p = exponent_preset("const:2", dom)
        q = exponent_preset("const:2.5", dom)
        for spec in ("power:-0.5", "power:1"):
            w = weight_preset(spec, dom)
            cp = a_loc_var_constant(w, p).constant
            cq = a_loc_var_constant(w, q).constant
            assert np.isfinite(cp) and np.isfinite(cq)

    def test_scale_invariance_constant_exponent(self, dom):
        # with w entering as a measure, exact scale invariance of the
        # variable-exponent constant requires constant p; variable p gives
        # a genuine (small) drift, so only the constant case is asserted
        p = VariableExponent.constant(dom, 2.5)
        w1 = weight_preset("power:-0.5", dom)
        w2 = Weight(GridFunction(dom, 7.0 * w1.values.samples))
        c1 = a_loc_var_constant(w1, p).constant
        c2 = a_loc_var_constant(w2, p).constant
        assert c2 == pytest.approx(c1, rel=1e-5)

    def test_scale_variance_variable_exponent_is_bounded(self, dom):
        p = exponent_preset("sin2", dom)
        w1 = weight_preset("power:-0.5", dom)
        w2 = Weight(GridFunction(dom, 7.0 * w1.values.samples))
        c1 = a_loc_var_constant(w1, p).constant
        c2 = a_loc_var_constant(w2, p).constant
        assert 0.5 <= c2 / c1 <= 2.0


class TestQW:
    def test_unit_weight(self, dom):
        q = q_w_estimate(weight_preset("const:1", dom))
        assert q == pytest.approx(1.0, abs=1.1 / 32.0)

    def test_sqrt_power_threshold(self, dom):
        # classical critical index for |x|^alpha is 1 + alpha
        q = q_w_estimate(weight_preset("absp:0.5", dom))
        assert q == pytest.approx(1.5, abs=0.1)

    def test_decaying_power(self, dom):
        q = q_w_estimate(weight_preset("power:-0.5", dom))
        assert q == pytest.approx(1.0, abs=1.1 / 32.0)


def plain_a_p(w, p):
    """sup of m_Q(w) m_Q(w^{-1/(p-1)})^{p-1} over the inside cubes, one
    layout at a time."""
    d = w.domain
    ws = w.values.samples
    sig = ws ** (-1.0 / (p - 1.0))
    best = -np.inf
    for k in level_range(d, 1.0):
        for a in all_shifts(d.dim):
            cubes = CubeLayout(d, k, a)
            inside = cubes.occupancy() > 1.0 - 1e-9
            vals = np.where(inside, cubes.means(ws) * cubes.means(sig) ** (p - 1.0), -np.inf)
            best = max(best, float(np.max(vals)))
    return best


def plain_q_w(w, tol=1.0 / 32.0, cap=64.0, threshold=1.05):
    """The critical-index bisection, one fresh a_loc_p_constant pair per step."""
    fine = w.at_level(w.domain.level + 1)

    def stable(p):
        return a_loc_p_constant(fine, p).constant <= threshold * a_loc_p_constant(w, p).constant

    assert stable(cap)
    lo, hi = 1.0, cap
    if stable(2.0):
        hi = 2.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if stable(mid):
            hi = mid
        else:
            lo = mid
    return hi


class TestQWReuse:
    @pytest.mark.parametrize(
        "spec, domain",
        [(s, Domain(1, 8, 9)) for s in ("const:1", "power:1", "power:-0.5", "absp:0.5")]
        + [("absp:0.5", Domain(2, 1, 5))],
        ids=["const:1", "power:1", "power:-0.5", "absp:0.5", "absp:0.5-n2"],
    )
    def test_matches_plain_bisection(self, spec, domain):
        w = weight_preset(spec, domain)
        assert q_w_estimate(w) == plain_q_w(weight_preset(spec, domain))

    @pytest.mark.parametrize("domain", [Domain(1, 8, 9), Domain(2, 1, 5)], ids=["n1", "n2"])
    def test_a_p_matches_plain_sweep(self, domain):
        for spec in ("power:1", "absp:0.5"):
            w = weight_preset(spec, domain)
            for p in (1.25, 2.0, 5.5):
                assert a_loc_p_constant(w, p).constant == plain_a_p(w, p)

    @pytest.fixture
    def layouts_built(self, monkeypatch):
        built = []

        class Counting(CubeLayout):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        monkeypatch.setattr(weights_mod, "CubeLayout", Counting)
        return built

    def test_second_call_builds_no_layout(self, dom, layouts_built):
        w = weight_preset("absp:0.5", dom)
        first = q_w_estimate(w)
        assert layouts_built
        layouts_built.clear()
        assert q_w_estimate(w) == first
        assert layouts_built == []

    def test_new_level_or_tolerance_is_searched_afresh(self, dom, layouts_built):
        w = weight_preset("absp:0.5", dom)
        first = q_w_estimate(w)
        layouts_built.clear()
        coarse = q_w_estimate(w, tol=1.0 / 8.0)
        assert layouts_built and coarse == plain_q_w(w, tol=1.0 / 8.0)
        layouts_built.clear()
        assert q_w_estimate(w.at_level(dom.level)) == first
        assert layouts_built


class TestTilde:
    def test_unit_const(self, dom):
        p = VariableExponent.constant(dom, 2.0)
        rep = tilde_a_constant(weight_preset("const:1", dom), p, max_side=1.0)
        assert rep.constant == pytest.approx(1.0, rel=1e-5)

    def test_cofiniteness_with_a_loc_var(self, dom):
        p = exponent_preset("lhdecay:1", dom)
        for mu in (-0.5, 0.0, 1.0, 2.0):
            w = weight_preset(f"power:{mu}", dom)
            ta = tilde_a_constant(w, p, max_side=1.0).constant
            av = a_loc_var_constant(w, p).constant
            assert np.isfinite(ta) == np.isfinite(av)

    def test_exp_weight_small_cubes_only(self, dom):
        p = VariableExponent.constant(dom, 2.0)
        w = weight_preset("exp:1", dom)
        small = tilde_a_constant(w, p, max_side=1.0).constant
        full = tilde_a_constant(w, p).constant
        assert np.isfinite(small)
        assert full / small > 10  # large cubes blow the constant up

    def test_scale_invariance(self, dom):
        p = exponent_preset("sin2", dom)
        c1 = tilde_a_constant(weight_preset("const:1", dom), p, max_side=1.0).constant
        c2 = tilde_a_constant(weight_preset("const:9", dom), p, max_side=1.0).constant
        assert c2 == pytest.approx(c1, rel=1e-5)
