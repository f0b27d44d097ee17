import numpy as np
import pytest
from scipy.optimize import brentq

from cube_reference import cube_quadrature
from varhardy import norms as norms_mod
from varhardy.atoms import Cube
from varhardy.exponent import VariableExponent
from varhardy.grid import CubeLayout, Domain, GridFunction
from varhardy.norms import (
    LAMBDA_CAP,
    batch_restricted_norms,
    holder_check,
    indicator_norm_profile,
    localization_norm,
    luxemburg_norm,
    lq_norm,
    modular,
    unit_ball_modular_check,
)
from varhardy.presets import exponent_preset, function_preset, weight_preset
from varhardy.weights import Weight


@pytest.fixture
def dom():
    return Domain(1, 8, 9)


def piecewise(dom, pieces):
    """Indicator mixture sum_i c_i * chi_[a_i, b_i)."""
    x = dom.axis()
    out = np.zeros(dom.shape)
    for a, b, c in pieces:
        out += c * ((x >= a) & (x < b))
    return GridFunction(dom, out)


def piecewise_exponent(dom, edges, default=2.0):
    """p = p_i on [a_i, b_i) for each (a_i, b_i, p_i), default elsewhere."""
    x = dom.axis()
    pf = np.full(dom.shape, default)
    for a, b, pv in edges:
        pf[(x >= a) & (x < b)] = pv
    return VariableExponent(GridFunction(dom, pf))


def oracle_pieces(edges, lo, hi, c):
    """Pieces of value c, and their exponents, where [lo, hi) meets the edges."""
    met = [(max(a, lo), min(b, hi), pv) for a, b, pv in edges if max(a, lo) < min(b, hi)]
    return [(a, b, c) for a, b, _ in met], [pv for _, _, pv in met]


def luxemburg_oracle(dom, pieces, p_pieces):
    """Scalar root-finder oracle for piecewise-constant f and p, w = 1.

    solves sum_i len_i (c_i / lam)^{p_i} = 1 by Brent's method on the exact
    lattice lengths.
    """
    x = dom.axis()
    terms = []
    for (a, b, c), pv in zip(pieces, p_pieces):
        n_lattice = int(np.sum((x >= a) & (x < b)))
        terms.append((n_lattice * dom.h, abs(c), pv))

    def g(lam):
        return sum(L * (c / lam) ** pv for L, c, pv in terms) - 1.0

    hi = 1.0
    while g(hi) > 0:
        hi *= 2
    lo = hi
    while g(lo) < 0 and lo > 1e-280:
        lo /= 2
    return brentq(g, lo, hi, xtol=1e-14 * lo, rtol=1e-13)  # relative: the root lies in [lo, 2 lo]


@pytest.mark.parametrize("p0", [0.5, 4.0])
def test_oracle_is_relative_for_small_norms(dom, p0):
    # ||c chi_[1,2)|| = c for every exponent; an absolute xtol misses c = 1e-25
    got = luxemburg_oracle(dom, [(1.0, 2.0, 1e-25)], [p0])
    assert got == pytest.approx(1e-25, rel=1e-12, abs=0)


class TestModular:
    def test_zero(self, dom):
        f = GridFunction(dom, np.zeros(dom.shape))
        p = VariableExponent.constant(dom, 2.0)
        assert modular(f, p) == 0.0

    def test_indicator(self, dom):
        f = piecewise(dom, [(0, 1, 1.0)])
        p = exponent_preset("sin2", dom)
        assert modular(f, p) == pytest.approx(1.0, abs=dom.h)

    def test_x_on_unit_interval(self, dom):
        f = GridFunction.from_callable(dom, lambda x: np.where((x >= 0) & (x < 1), x, 0.0))
        p = VariableExponent.constant(dom, 2.0)
        assert modular(f, p) == pytest.approx(1.0 / 3.0, abs=2 * dom.h)


class TestLuxemburg:
    def test_single_block_scaling(self, dom):
        for p0 in (0.5, 1.0, 2.0, 3.5):
            p = VariableExponent.constant(dom, p0)
            f = piecewise(dom, [(0, 1, 3.0)])
            mass = 1.0  # lattice length of [0,1) is exactly 1
            assert luxemburg_norm(f, p) == pytest.approx(3.0 * mass ** (1 / p0), rel=1e-7)

    def test_two_block_root_oracle(self, dom):
        pieces = [(0, 1, 1.0), (1, 2, 2.0)]
        f = piecewise(dom, pieces)
        p = VariableExponent.from_callable(dom, lambda x: np.where(x < 1, 2.0, 3.0))
        lam = luxemburg_norm(f, p)
        # oracle: unique lambda with lam^-2 + 8 lam^-3 = 1
        oracle = brentq(lambda t: t**-2.0 + 8.0 * t**-3.0 - 1.0, 1e-3, 1e3, rtol=1e-13)
        assert lam == pytest.approx(oracle, rel=1e-6)

    def test_homogeneity(self, dom):
        rng = np.random.default_rng(5)
        p = exponent_preset("sin2", dom)
        w = weight_preset("power:1", dom)
        x = dom.axis()
        f = GridFunction(dom, np.where(np.abs(x) < 3, rng.normal(size=dom.shape), 0.0))
        n1 = luxemburg_norm(f, p, w)
        c = 7.3
        assert luxemburg_norm(c * f, p, w) == pytest.approx(c * n1, rel=1e-8)

    def test_zero_function(self, dom):
        p = VariableExponent.constant(dom, 2.0)
        assert luxemburg_norm(GridFunction(dom, np.zeros(dom.shape)), p) == 0.0

    def test_randomized_oracle_agreement(self, dom):
        # 50 randomized piecewise-constant cases against the scalar root oracle
        rng = np.random.default_rng(42)
        for _ in range(50):
            k = rng.integers(2, 6)
            edges = np.sort(rng.uniform(-6, 6, size=k + 1))
            pieces = [
                (edges[i], edges[i + 1], rng.uniform(0.2, 5.0)) for i in range(k)
            ]
            pvals = rng.uniform(0.6, 4.0, size=k)
            x = dom.axis()
            pf = np.full(dom.shape, 2.0)
            for (a, b, _), pv in zip(pieces, pvals):
                pf[(x >= a) & (x < b)] = pv
            p = VariableExponent(GridFunction(dom, pf))
            f = piecewise(dom, pieces)
            got = luxemburg_norm(f, p)
            want = luxemburg_oracle(dom, pieces, pvals)
            assert got == pytest.approx(want, rel=1e-6)

    def test_triangle_inequality(self, dom):
        rng = np.random.default_rng(11)
        p = exponent_preset("lhdecay:1", dom)
        for _ in range(10):
            f = GridFunction(dom, rng.normal(size=dom.shape))
            g = GridFunction(dom, rng.normal(size=dom.shape))
            assert luxemburg_norm(f + g, p) <= (
                luxemburg_norm(f, p) + luxemburg_norm(g, p)
            ) * (1 + 1e-6)

    def test_monotone_in_absolute_value(self, dom):
        p = exponent_preset("sin2", dom)
        f = function_preset("bump:0,2", dom)
        assert luxemburg_norm(0.5 * f, p) <= luxemburg_norm(f, p)

    def test_attainment_of_unit_modular(self, dom):
        rng = np.random.default_rng(3)
        p = exponent_preset("sin2", dom)
        w = weight_preset("power:-1", dom)
        f = GridFunction(dom, rng.normal(size=dom.shape))
        nrm = luxemburg_norm(f, p, w)
        assert modular((1.0 / nrm) * f, p, w) == pytest.approx(1.0, abs=1e-6)


class TestLqNorm:
    @pytest.mark.parametrize("q", [0.0, -1.0, np.nan, -np.inf])
    def test_rejects_non_positive_q(self, q):
        f = GridFunction(Domain(1, 8, 4), np.ones((256,)))
        with pytest.raises(ValueError, match="q must be positive"):
            lq_norm(f, q)


class TestHolder:
    def test_indicator_pair_sharp(self, dom):
        p = VariableExponent.constant(dom, 2.0)
        f = piecewise(dom, [(0, 1, 1.0)])
        rep = holder_check(f, f, p)
        assert rep.passed
        assert rep.q("r_p") == pytest.approx(1.0)
        assert rep.q("lhs") == pytest.approx(1.0, abs=dom.h)

    def test_rp_at_most_two(self, dom):
        for spec in ("const:1.2", "const:4", "sin2", "lhdecay:2"):
            p = exponent_preset(spec, dom)
            rp = 1 + 1 / p.p_minus - 1 / p.p_plus
            assert rp <= 2.0

    def test_randomized_pairs(self, dom):
        rng = np.random.default_rng(17)
        p = exponent_preset("sin2", dom)
        x = dom.axis()
        sup = np.abs(x) < 4
        for _ in range(50):
            f = GridFunction(dom, np.where(sup, rng.normal(size=dom.shape), 0.0))
            g = GridFunction(dom, np.where(sup, rng.normal(size=dom.shape), 0.0))
            assert holder_check(f, g, p).passed


class TestModularSandwich:
    def test_unit_sphere(self, dom):
        p = exponent_preset("sin2", dom)
        w = weight_preset("power:-0.5", dom)
        f = function_preset("bump:1,2", dom)
        f = (1.0 / luxemburg_norm(f, p, w)) * f
        rep = unit_ball_modular_check(f, p, w)
        assert rep.passed
        assert rep.q("modular") == pytest.approx(1.0, abs=1e-6)

    def test_half_norm_band(self, dom):
        p = VariableExponent.from_callable(dom, lambda x: 2.5 + 0.5 * np.tanh(x))
        f = function_preset("bump:0,1", dom)
        f = (0.5 / luxemburg_norm(f, p)) * f
        rep = unit_ball_modular_check(f, p)
        assert rep.passed
        assert rep.q("modular") <= 0.25 * (1 + 1e-6)
        assert rep.q("modular") >= 0.5**3 * (1 - 1e-6)

    def test_indicator_corollary(self, dom):
        # ||chi_Q|| <= 1 iff w(Q) <= 1
        p = exponent_preset("lhdecay:1", dom)
        for wspec in ("const:0.5", "const:3"):
            w = weight_preset(wspec, dom)
            chi = piecewise(dom, [(0, 1, 1.0)])
            nrm = luxemburg_norm(chi, p, w)
            wq = cube_quadrature(w.values, Cube(0, (0,), (0,)))
            assert (nrm <= 1 + 1e-9) == (wq <= 1 + 1e-9)


class TestIndicatorProfile:
    @pytest.mark.parametrize(
        "domain, cube",
        [(Domain(1, 8, 9), (3, (0,), (5,))), (Domain(2, 1, 5), (3, (0, 0), (5, -3)))],
        ids=["n1", "n2"],
    )
    def test_constant_exponent(self, domain, cube):
        p = VariableExponent.constant(domain, 2.0)
        rep = indicator_norm_profile(*cube, p)
        for key in ("vs_p_minus", "vs_p_plus", "vs_p_infty"):
            assert rep.q(key) == pytest.approx(1.0, rel=1e-6)

    def test_unit_volume_exact(self, dom):
        p = exponent_preset("sin2", dom)
        rep = indicator_norm_profile(0, (0,), (2,), p)
        assert rep.q("volume") == 1.0
        assert rep.passed

    def test_small_cube_sweep_spread(self, dom):
        p = exponent_preset("lhdecay:1", dom)
        ratios = []
        for k in (2, 3, 4, 5):
            idx = int(np.floor(5.0 * 2**k))
            rep = indicator_norm_profile(k, (0,), (idx,), p)
            ratios.append(rep.q("vs_p_minus"))
        spread = max(ratios) / min(ratios)
        # the bound was e^max(C, 1) with C the empirical local log-Holder
        # constant of lhdecay:1, which reads 0.114 on this window: so e
        assert spread <= np.e


class TestLocalization:
    def test_constant_exponent_exact(self, dom):
        p = VariableExponent.constant(dom, 2.5)
        f = function_preset("bump:0.3,2.5", dom)
        assert localization_norm(f, p, 0) == pytest.approx(luxemburg_norm(f, p), rel=1e-7)

    def test_single_cube_support(self, dom):
        p = exponent_preset("lhdecay:1", dom)
        # supported inside one level-0 cube of the distinguished grid
        f = piecewise(dom, [(0.4, 1.3, 1.0)])
        assert localization_norm(f, p, 0) == pytest.approx(luxemburg_norm(f, p), rel=1e-7)

    def test_equivalence_band(self, dom):
        rng = np.random.default_rng(23)
        p = exponent_preset("lhdecay:1", dom)
        for _ in range(15):
            c = rng.uniform(-4, 4)
            s = rng.uniform(0.3, 2.0)
            f = function_preset(f"bump:{c},{s},{rng.uniform(0.5, 2):.3f}", dom)
            ratio = localization_norm(f, p, 0) / luxemburg_norm(f, p)
            assert 1 / 3 <= ratio <= 3


class TestBatchNorms:
    def test_matches_scalar(self, dom):
        p = exponent_preset("sin2", dom)
        w = weight_preset("power:1", dom)
        norms, qidx = batch_restricted_norms(1.0, p, w, 1, (1,))
        # check three cubes against the scalar path
        x = dom.axis()
        for target in (3, 10, 20):
            sel = qidx == target
            chi = GridFunction(dom, sel.astype(float))
            want = luxemburg_norm(chi, p, w)
            assert norms[target] == pytest.approx(want, rel=1e-6)

    @pytest.mark.parametrize("domain", [Domain(1, 8, 9), Domain(2, 1, 5)], ids=["n1", "n2"])
    @pytest.mark.parametrize("p0", [0.5, 2.0, 3.5])
    def test_constant_exponent_closed_form(self, domain, p0):
        # ||chi_Q||_{L^p(w)} = w(Q)^{1/p}, with w(Q) summed cube by cube
        p = VariableExponent.constant(domain, p0)
        w = weight_preset("power:1", domain)
        norms, qidx = batch_restricted_norms(1.0, p, w, 2, (1,) * domain.dim)
        hn = domain.h**domain.dim
        want = [(hn * np.sum(w.values.samples[qidx == j])) ** (1 / p0) for j in range(norms.size)]
        np.testing.assert_allclose(norms, want, rtol=1e-12)

    def test_piecewise_exponent_root_oracle(self, dom):
        # p jumps inside cubes; each cube's norm against Brent's method
        edges = [(-8.0, -0.7, 3.5), (-0.7, 0.3, 1.2), (0.3, 1.9, 0.6), (1.9, 8.0, 2.0)]
        p = piecewise_exponent(dom, edges)
        norms, qidx = batch_restricted_norms(1.0, p, None, 0, (1,))
        x = dom.axis()
        for target in np.unique(qidx[np.abs(x) < 3]):
            sel = x[qidx == target]
            want = luxemburg_oracle(dom, *oracle_pieces(edges, sel[0], sel[-1] + dom.h, 1.0))
            assert norms[target] == pytest.approx(want, rel=1e-11)

    @pytest.mark.parametrize(
        "pieces, p_pieces, scale",
        [
            # p in {0.5, 4} on a function of size 1e-25
            ([(1.0, 1.5, 1.0), (1.5, 2.0, 1.0)], [0.5, 4.0], 1e-25),
            # |f|^p underflows to 0 at every point
            ([(1.0, 2.0, 1.0)], [4.0], 1e-100),
            # the modular overflows to the left of the root: Newton's first
            # step from the low-exponent block overshoots into the p = 400 block
            ([(1.0, 1.0 + 2 / 512, 1.0), (1.5, 2.0, np.exp(-8.0))], [0.5, 400.0], 1.0),
        ],
        ids=["tiny", "underflow", "overflow"],
    )
    def test_extreme_scales_root_oracle(self, dom, pieces, p_pieces, scale):
        # the oracle solves at scale 1; the norm is homogeneous
        p = piecewise_exponent(dom, [(a, b, pv) for (a, b, _), pv in zip(pieces, p_pieces)])
        f = scale * piecewise(dom, pieces)
        want = scale * luxemburg_oracle(dom, pieces, p_pieces)
        assert luxemburg_norm(f, p) == pytest.approx(want, rel=1e-8, abs=0)
        norms, qidx = batch_restricted_norms(f.samples, p, None, 0, (0,))
        (target,) = np.unique(qidx[f.samples != 0])
        assert norms[target] == pytest.approx(want, rel=1e-8, abs=0)
        assert np.all(np.delete(norms, target) == 0.0)

    def test_overflow_above_cap(self, dom):
        p = VariableExponent.constant(dom, 2.0)
        f = piecewise(dom, [(0, 1, 10.0 * LAMBDA_CAP)])
        with pytest.raises(OverflowError):
            luxemburg_norm(f, p)
        with pytest.raises(OverflowError):
            batch_restricted_norms(f.samples, p, None, 0, (0,))

    def test_lq_norm_consistency(self, dom):
        f = function_preset("bump:0,1", dom)
        p = VariableExponent.constant(dom, 3.0)
        assert lq_norm(f, 3.0) == pytest.approx(luxemburg_norm(f, p), rel=1e-7)
        assert lq_norm(f, np.inf) == f.sup()


class TestBatchIndependence:
    """A cube's norm depends on its own points only: bitwise the same from
    the whole layout, from a call on that cube alone and from a call on a
    random half of the cubes, and the scalar norm of g on the cube."""

    @pytest.mark.parametrize(
        "domain, layouts",
        [(Domain(1, 8, 9), [(3, (2,)), (0, (1,))]), (Domain(2, 1, 5), [(2, (2, 0)), (0, (1, 1))])],
        ids=["n1", "n2"],
    )
    @pytest.mark.parametrize(
        "wspec, pspec", [("absp:0.5", "sin2"), ("exp:1", "lhdecay:1"), ("power:-0.5", "const:2")]
    )
    def test_a_cube_does_not_see_its_batch(self, domain, layouts, wspec, pspec):
        w, p = weight_preset(wspec, domain), exponent_preset(pspec, domain)
        rng = np.random.default_rng(41)
        for level, shift in layouts:
            # the indicator's norm (the A-type constants) and 1/w on the cube (Ã's)
            for g in (np.array(1.0), 1.0 / w.values.samples):
                whole, ids = batch_restricted_norms(g, p, w, level, shift)
                half = rng.permutation(whole.size)[: whole.size // 2]
                got, _ = batch_restricted_norms(g, p, w, level, shift, half)
                assert np.array_equal(got, whole[half])
                for q in range(whole.size):
                    alone, _ = batch_restricted_norms(g, p, w, level, shift, np.array([q]))
                    assert alone[0] == whole[q]
                    on_cube = GridFunction(domain, np.where(ids == q, g, 0.0))
                    assert whole[q] == pytest.approx(luxemburg_norm(on_cube, p, w), rel=1e-14, abs=0)


class TestResolutionConvergence:
    def test_doubling_resolution_moves_norm_under_two_percent(self, dom):
        # smooth test functions: the Luxemburg norm is quadrature-converged
        fine = Domain(dom.dim, dom.half_width, dom.level + 1)
        for spec in ("bump:0,1", "bump:-1.5,0.6,1.7", "plateau:0,3"):
            for pspec, wspec in (("sin2", "power:1"), ("lhdecay:1", "const:1")):
                n0 = luxemburg_norm(
                    function_preset(spec, dom),
                    exponent_preset(pspec, dom),
                    weight_preset(wspec, dom),
                )
                n1 = luxemburg_norm(
                    function_preset(spec, fine),
                    exponent_preset(pspec, fine),
                    weight_preset(wspec, fine),
                )
                assert abs(n1 - n0) <= 0.02 * n0


def newton_reference(g, pvals, c, cubes=None):
    """The per-group Luxemburg solve as one plain Newton loop over every
    group at once, each group frozen at its own first step of at most
    REL_TOL: the reference of the solver's closed forms, shortcuts and
    shrinking working arrays."""
    if cubes is None:
        sums, field = (lambda v: np.sum(v, keepdims=True).ravel()), (lambda s: s)
    else:
        sums, field = cubes.sums, cubes.field
    with np.errstate(divide="ignore"):
        logg = np.log(np.abs(g))
    top = float(np.max(logg))
    if top == -np.inf:
        return sums(np.zeros(logg.shape))
    if top == np.inf:
        raise OverflowError("norm overflow")
    b = logg - top
    pmin, pmax = float(np.min(pvals)), float(np.max(pvals))
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        terms = c * np.exp(pvals * b)
        rho = sums(terms)
        live = rho > 0
        log_rho = np.log(np.where(live, rho, 1.0))
        lo = np.minimum(log_rho / pmin, log_rho / pmax)
        hi = np.maximum(log_rho / pmin, log_rho / pmax)
        s, frozen = np.zeros(rho.shape), np.zeros(rho.shape, dtype=bool)
        for _ in range(norms_mod._MAX_STEPS):
            nxt = s + np.log(rho) * rho / sums(pvals * terms)
            nxt = np.where((nxt >= lo) & (nxt <= hi), nxt, 0.5 * (lo + hi))
            done = np.abs(nxt - s) <= norms_mod.REL_TOL
            s = np.where(frozen, s, nxt)
            frozen |= done
            if np.all(frozen):
                break
            terms = c * np.exp(pvals * (b - field(s)))
            rho = sums(terms)
            lo = np.where(rho > 1.0, s, lo)
            hi = np.where(rho < 1.0, s, hi)
        else:
            raise ArithmeticError("Luxemburg solve did not converge")
    lam = np.where(live, np.exp(top + s), 0.0)
    if np.any(lam > LAMBDA_CAP):
        raise OverflowError("norm overflow")
    return lam


class TestConstantExponentShortcut:
    """A constant exponent solves in closed form, and one value of g skips
    the per-point log and exp; both bitwise the Newton loop's result."""

    @pytest.mark.parametrize("domain", [Domain(1, 8, 9), Domain(2, 1, 5)], ids=["n1", "n2"])
    @pytest.mark.parametrize("p0", [0.5, 2.0, 3.5])
    @pytest.mark.parametrize("weighted", [False, True], ids=["w=1", "w"])
    @pytest.mark.parametrize("level", [None, 3, 0, -1], ids=["scalar", "k3", "k0", "k-1"])
    def test_bitwise_the_newton_loop(self, domain, p0, weighted, level):
        p = VariableExponent.constant(domain, p0)
        w = weight_preset("power:1", domain) if weighted else None
        c = norms_mod._cell_weights(domain, w)
        cubes = None if level is None else CubeLayout(domain, level, (1,) * domain.dim)
        x = np.abs(domain.axis())
        r = x if domain.dim == 1 else np.hypot(x[:, None], x[None, :])
        bump = np.where(r < 0.3, np.cos(r), 0.0)  # zero on most cubes: empty groups
        for g in (np.array(2.5), np.broadcast_to(2.5, domain.shape), bump, 1e-3 * bump):
            want = newton_reference(np.broadcast_to(g, domain.shape), p.values.samples, c, cubes)
            if cubes is None:
                got = norms_mod._luxemburg_solve(g, p.values.samples, c)
            else:
                got, _ = batch_restricted_norms(g, p, w, level, cubes.shift)
            assert np.array_equal(got, want)
        if cubes is not None:
            assert np.any(want == 0.0) and np.any(want > 0.0)

    @pytest.mark.parametrize("spec", ["sin2", "lhdecay:1"])
    def test_broadcast_value_under_variable_exponent(self, spec):
        d = Domain(1, 8, 9)
        p = exponent_preset(spec, d)
        w = weight_preset("absp:0.5", d)
        for level in (5, 0):
            # cubes that converge at different steps leave the solve apart
            for g in (np.array(1.0), 1.0 / w.values.samples):
                got, _ = batch_restricted_norms(g, p, w, level, (0,))
                want = newton_reference(np.broadcast_to(g, d.shape), p.values.samples,
                                        norms_mod._cell_weights(d, w), CubeLayout(d, level, (0,)))
                assert np.array_equal(got, want)

    @pytest.mark.parametrize("level", [0, -4])
    def test_nonfinite_modular_raises_as_the_loop(self, level):
        # a weight of 1e308 overflows the modular of the coarse cubes
        d = Domain(1, 8, 9)
        p = VariableExponent.constant(d, 2.0)
        c = norms_mod._cell_weights(d, Weight.constant(d, 1e308))
        cubes = CubeLayout(d, level, (1,))
        with pytest.raises(Exception) as want:
            newton_reference(np.ones(d.shape), p.values.samples, c, cubes)
        with pytest.raises(want.type, match=str(want.value)):
            batch_restricted_norms(1.0, p, Weight.constant(d, 1e308), level, (1,))
