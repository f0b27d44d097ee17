import tracemalloc

import numpy as np
import pytest

from varhardy import norms
from varhardy import weights as weights_mod
from varhardy.exponent import VariableExponent, dual_exponent
from varhardy.grid import CubeLayout, Domain, GridFunction, all_shifts, layout_sums, level_range
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


DOMAINS_1D_2D = pytest.mark.parametrize("domain", [Domain(1, 8, 9), Domain(2, 1, 5)], ids=["n1", "n2"])


class TestWeight:
    @pytest.mark.parametrize("c", [0.0, -1.0])
    def test_constant_rejects_nonpositive(self, dom, c):
        # the clamp would otherwise make a weight of CLAMP_FLOOR everywhere
        with pytest.raises(ValueError, match="constant weight must be positive"):
            Weight.constant(dom, c)

    @pytest.mark.parametrize("c", [np.nan, np.inf])
    def test_constant_rejects_nonfinite(self, dom, c):
        with pytest.raises(ValueError, match="finite"):
            Weight.constant(dom, c)


class TestAInfty:
    @DOMAINS_1D_2D
    def test_constant_weight(self, domain):
        rep = a_loc_infty_constant(weight_preset("const:4", domain))
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

    @pytest.mark.parametrize("p", [np.nan, np.inf])
    def test_rejects_p_not_finite(self, p):
        # nan read as a constant of -inf and inf as 3.0
        with pytest.raises(ValueError, match="p must exceed 1 and be finite"):
            a_loc_p_constant(weight_preset("power:0.5", Domain(1, 8, 6)), p)


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
    @DOMAINS_1D_2D
    def test_constant_weight(self, domain):
        rep = reverse_holder_check(weight_preset("const:1", domain))
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

    @pytest.mark.parametrize("q", [0.0, -1.0, 1.0, np.nan, np.inf])
    def test_rejects_exponent_outside_range(self, q):
        # q = 0 divided by zero; the others passed, inf with a worst ratio of 1
        with pytest.raises(ValueError, match="q must exceed 1 and be finite"):
            reverse_holder_check(weight_preset("power:0.5", Domain(1, 8, 6)), q)


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

    @DOMAINS_1D_2D
    def test_sqrt_power_threshold(self, domain):
        # classical critical index for |x|^alpha is 1 + alpha / n
        q = q_w_estimate(weight_preset("absp:0.5", domain))
        assert q == pytest.approx(1.0 + 0.5 / domain.dim, abs=0.1)

    def test_decaying_power(self, dom):
        q = q_w_estimate(weight_preset("power:-0.5", dom))
        assert q == pytest.approx(1.0, abs=1.1 / 32.0)


def plain_a_p(w, p):
    """(sup of m_Q(w) m_Q(w^{-1/(p-1)})^{p-1} over the inside cubes, cube
    count), one `CubeLayout` at a time."""
    d = w.domain
    ws = w.values.samples
    sig = ws ** (-1.0 / (p - 1.0))
    best = -np.inf
    count = 0
    for k in level_range(d, 1.0):
        for a in all_shifts(d.dim):
            cubes = CubeLayout(d, k, a)
            inside = cubes.occupancy() > 1.0 - 1e-9
            vals = np.where(inside, cubes.means(ws) * cubes.means(sig) ** (p - 1.0), -np.inf)
            best = max(best, float(np.max(vals)))
            count += cubes.count
    return best, count


def plain_q_w(w):
    """The critical-index bisection over (1, 64] to width 1/32 with the 1.05
    stability cut, one fresh a_loc_p_constant pair per step."""
    fine = w.at_level(w.domain.level + 1)

    def stable(p):
        return a_loc_p_constant(fine, p).constant <= 1.05 * a_loc_p_constant(w, p).constant

    assert stable(64.0)
    lo, hi = 1.0, 64.0
    if stable(2.0):
        hi = 2.0
    while hi - lo > 1.0 / 32.0:
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
        # the chain pyramid sums in another order than the layouts
        for spec in ("power:1", "absp:0.5"):
            w = weight_preset(spec, domain)
            for p in (1.25, 2.0, 5.5):
                rep = a_loc_p_constant(w, p)
                best, count = plain_a_p(w, p)
                assert rep.constant == pytest.approx(best, rel=1e-12, abs=0.0)
                assert rep.cube_count == count

    @pytest.fixture
    def chains_built(self, monkeypatch):
        """Every sweep of the chain pyramids the weight constants start."""
        built = []

        def counting(domain, shifts, *args):
            built.append((domain, tuple(shifts)))
            return layout_sums(domain, shifts, *args)

        monkeypatch.setattr(weights_mod, "layout_sums", counting)
        return built

    def test_2d_peak_memory(self):
        # the sweep keeps masks and m_Q(w) per chain level; a cube id per
        # lattice point for every (level, shift) would peak above 200 MB
        w = weight_preset("const:1", Domain(2, 2, 6))
        tracemalloc.start()
        try:
            q_w_estimate(w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100e6

    def test_second_call_builds_no_layout(self, dom, chains_built):
        w = weight_preset("absp:0.5", dom)
        first = q_w_estimate(w)
        assert chains_built
        chains_built.clear()
        assert q_w_estimate(w) == first
        assert chains_built == []

    def test_new_level_is_searched_afresh(self, dom, chains_built):
        w = weight_preset("absp:0.5", dom)
        first = q_w_estimate(w)
        chains_built.clear()
        assert q_w_estimate(w.at_level(dom.level)) == first
        assert chains_built


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

    def test_infinite_max_side_is_no_bound(self, dom):
        p = exponent_preset("sin2", dom)
        w = weight_preset("power:1", dom)
        whole = tilde_a_constant(w, p, max_side=4.0 * dom.half_width)
        rep = tilde_a_constant(w, p, max_side=float("inf"))
        assert (rep.constant, rep.cube_count) == (whole.constant, whole.cube_count)

    def test_scale_invariance(self, dom):
        p = exponent_preset("sin2", dom)
        c1 = tilde_a_constant(weight_preset("const:1", dom), p, max_side=1.0).constant
        c2 = tilde_a_constant(weight_preset("const:9", dom), p, max_side=1.0).constant
        assert c2 == pytest.approx(c1, rel=1e-5)


def plain_a_var(w, p):
    """(sup of |Q|^{-1} ||chi_Q||_{p,w} ||chi_Q||_{p',sigma}, cube count):
    every layout through `batch_restricted_norms`, then the max."""
    d = w.domain
    pd, sigma = dual_exponent(p), dual_weight(w, p)
    best, count = -np.inf, 0
    for k in level_range(d, 1.0):
        for a in all_shifts(d.dim):
            n1, _ = norms.batch_restricted_norms(1.0, p, w, k, a)
            n2, _ = norms.batch_restricted_norms(1.0, pd, sigma, k, a)
            best = max(best, float(np.max(n1 * n2 / (2.0 ** (-k)) ** d.dim)))
            count += n1.size
    return best, count


def plain_tilde(w, p, max_side):
    """(sup of |Q|^{-p_Q} ||w||_{L^1(Q)} ||w^{-1}||_{L^{1/(p-1)}(Q)} over the
    inside cubes of the main grid, cube count): every level solved."""
    d = w.domain
    shift = (1,) * d.dim
    pv, ws = p.values.samples, w.values.samples
    r = VariableExponent(GridFunction(d, pv / (pv - 1.0) / pv), p_infty=None)
    best, count = -np.inf, 0
    for k in level_range(d, 2.0 * d.half_width if max_side is None else max_side):
        cubes = CubeLayout(d, k, shift)
        nq, _ = norms.batch_restricted_norms(1.0 / ws, r, None, k, shift)
        occupancy = cubes.occupancy()
        p_q = occupancy / cubes.means(1.0 / pv)
        vals = ((2.0 ** (-k)) ** d.dim) ** (-p_q) * (cubes.sums(ws) * d.h**d.dim) * nq
        best = max(best, float(np.max(np.where(occupancy > 1.0 - 1e-9, vals, -np.inf))))
        count += cubes.count
    return best, count


E4_WEIGHTS = ("const:1", "power:1", "power:-0.5", "absp:0.5")
E4_EXPONENTS = ("const:2", "const:3", "sin2", "lhdecay:1")


@pytest.fixture
def solves(monkeypatch):
    """Every call of `norms.batch_restricted_norms`: (level, shift, cubes
    solved)."""
    seen = []
    real = norms.batch_restricted_norms

    def counting(g, p, w, level, shift, *rest):
        vals, qidx = real(g, p, w, level, shift, *rest)
        seen.append((level, shift, vals.size))
        return vals, qidx

    monkeypatch.setattr(norms, "batch_restricted_norms", counting)
    return seen


@pytest.fixture
def branches(monkeypatch):
    """The arguments of every `weights._branch_and_bound` call."""
    seen = []
    real = weights_mod._branch_and_bound

    def capture(*args):
        seen.append(args)
        return real(*args)

    monkeypatch.setattr(weights_mod, "_branch_and_bound", capture)
    return seen


class TestBranchAndBound:
    """The constants solve only the cubes whose bracket can reach the sup,
    and return bitwise the sup of a sweep that solves every layout."""

    @DOMAINS_1D_2D
    @pytest.mark.parametrize("wspec", E4_WEIGHTS)
    @pytest.mark.parametrize("pspec", E4_EXPONENTS)
    def test_a_var_equals_full_sweep(self, domain, wspec, pspec):
        w, p = weight_preset(wspec, domain), exponent_preset(pspec, domain)
        rep = a_loc_var_constant(w, p)
        assert (rep.constant, rep.cube_count) == plain_a_var(w, p)
        assert 0 < rep.cubes_solved <= rep.cube_count

    @DOMAINS_1D_2D
    @pytest.mark.parametrize("wspec", ["exp:1", "power:-0.5", "absp:0.5"])
    @pytest.mark.parametrize("pspec", ["const:2", "lhdecay:1"])
    @pytest.mark.parametrize("max_side", [1.0, None])
    def test_tilde_equals_full_sweep(self, domain, wspec, pspec, max_side):
        w, p = weight_preset(wspec, domain), exponent_preset(pspec, domain)
        rep = tilde_a_constant(w, p, max_side=max_side)
        assert (rep.constant, rep.cube_count) == plain_tilde(w, p, max_side)
        assert 0 < rep.cubes_solved <= rep.cube_count

    @DOMAINS_1D_2D
    @pytest.mark.parametrize(
        "wspec, pspec",
        [
            ("absp:0.5", "lhdecay:1"),
            ("exp:1", "sin2"),
            ("power:-0.5", "const:2"),
            ("power:1", "sin2"),
            ("const:1", "sin2"),
        ],
    )
    def test_every_solved_cube_lies_in_its_bracket(self, domain, wspec, pspec, branches):
        # every cube of every layout, not only the candidates: the bracket,
        # and the upper bound that the second moment tightens
        w, p = weight_preset(wspec, domain), exponent_preset(pspec, domain)
        a_loc_var_constant(w, p)
        tilde_a_constant(w, p, max_side=None)
        checked = tightened = 0
        for d, max_side, shifts, arrays, ops, moments, bracket, solve in branches:
            coarsest = level_range(d, max_side)[-1]
            pyramids = zip(
                layout_sums(d, all_shifts(d.dim), arrays, coarsest, ops),
                layout_sums(d, all_shifts(d.dim), moments, coarsest),
            )
            for (k, held, red), (_, _, sq) in pyramids:
                for shift in set(held) & set(shifts):
                    lo, hi = (np.exp(b).ravel() for b in bracket(k, red))
                    refined = np.exp(bracket(k, red, sq)[1]).ravel()
                    vals = solve(k, shift)
                    inside = np.isfinite(vals)
                    assert np.array_equal(inside, hi > 0)
                    assert np.all(refined <= hi)
                    assert np.all(vals[inside] >= lo[inside] * (1 - weights_mod.SLACK))
                    assert np.all(vals[inside] <= refined[inside] * (1 + weights_mod.SLACK))
                    checked += inside.sum()
                    tightened += np.count_nonzero(refined < hi)
        assert checked > 0
        if pspec == "sin2":  # p varies on every cube
            assert tightened > 0

    @DOMAINS_1D_2D
    @pytest.mark.parametrize("wspec", E4_WEIGHTS)
    @pytest.mark.parametrize("pspec", E4_EXPONENTS)
    def test_one_point_cubes_are_one(self, domain, wspec, pspec, branches):
        # the closed form that brackets the lattice layout at [0, 0]: a
        # one-point cube has value 1 in both constants, within rounding
        w, p = weight_preset(wspec, domain), exponent_preset(pspec, domain)
        a_loc_var_constant(w, p)
        tilde_a_constant(w, p, max_side=None)
        for (d, _, shifts, *_, solve), tol in zip(branches, (1e-12, 1e-14)):
            vals = solve(d.level, shifts[0])
            assert vals.size == d.npts ** d.dim
            assert np.max(np.abs(vals - 1.0)) <= tol

    @pytest.mark.parametrize(
        "wspec, layouts, cubes", [("power:-0.5", 1, 1), ("const:1", 27, 28641)], ids=["pruned", "ties"]
    )
    def test_layouts_solved(self, dom, wspec, layouts, cubes, solves, monkeypatch):
        # a constant weight and exponent make every cube 1: ties are never
        # pruned, but of the 30 layouts the three lattice ones are one, and
        # shifts 0 and 2 share their cubes at level m - 1: 27 are solved;
        # where the bounds prune, one cube of one layout is
        # no bracket is refined: the pruned case's candidates are too few
        # to pay for the second-moment pass, and the ties' brackets are tight
        monkeypatch.setattr(weights_mod, "_bennett", lambda *args: pytest.fail("refined"))
        rep = a_loc_var_constant(weight_preset(wspec, dom), exponent_preset("const:2", dom))
        assert len(level_range(dom, 1.0)) * len(all_shifts(1)) == 30
        assert rep.cube_count == sum(CubeLayout(dom, k, a).count for k in level_range(dom, 1.0) for a in all_shifts(1))
        assert len(solves) == 2 * layouts
        # both norms of a layout solve the same cubes, counted once
        assert rep.cubes_solved == cubes == sum(n for *_, n in solves) // 2
        assert rep.cubes_refined == 0

    @pytest.mark.parametrize("level", [5, 6])
    def test_second_moment_prunes_the_2d_pair(self, level, solves):
        # the range-only bracket left 118 (m = 5) and 174 (m = 6) cubes in
        # 18 layouts to solve; with each cube's variance of p, one layout
        # and two cubes are left
        dom = Domain(2, 1, level)
        rep = a_loc_var_constant(weight_preset("power:1", dom), exponent_preset("sin2", dom))
        assert len(solves) == 2
        assert rep.cubes_solved == 2 == sum(n for *_, n in solves) // 2
        assert rep.cubes_refined > 0

    @DOMAINS_1D_2D
    def test_unsolved_ties_repeat_a_solved_layout(self, domain, solves):
        # where every cube is 1 nothing is pruned: each layout left unsolved
        # has the cubes of a solved layout of its level, whose values it takes
        rep = a_loc_var_constant(weight_preset("const:1", domain), exponent_preset("const:2", domain))
        solved = {(k, a) for k, a, _ in solves}
        assert len(solves) == 2 * len(solved)
        n = domain.dim
        levels = level_range(domain, 1.0)
        skipped = [(k, a) for k in levels for a in all_shifts(n) if (k, a) not in solved]
        assert len(skipped) == (3**n - 1) + (3**n - 2**n)
        for k, a in skipped:
            ids = CubeLayout(domain, k, a).ids
            assert any(np.array_equal(ids, CubeLayout(domain, k, b).ids) for j, b in solved if j == k)
        # every cube of a solved layout is solved, both norms counted once
        assert rep.cubes_solved == sum(c for *_, c in solves) // 2

    def test_no_cube_fits_max_side(self, dom):
        w, p = weight_preset("const:1", dom), VariableExponent.constant(dom, 2.0)
        with pytest.raises(ValueError, match="max_side = 0.0001 .* h = 0.00195312"):
            tilde_a_constant(w, p, max_side=1e-4)

    def test_nan_max_side_fits_no_cube(self, dom):
        w, p = weight_preset("const:1", dom), VariableExponent.constant(dom, 2.0)
        with pytest.raises(ValueError, match="no cube of side at most max_side = nan"):
            tilde_a_constant(w, p, max_side=np.nan)
