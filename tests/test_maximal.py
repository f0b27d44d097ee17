import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from cube_reference import cube_quadrature, enumerate_cubes
from varhardy.exponent import VariableExponent
from varhardy import grid, maximal
from varhardy.grid import (
    CubeLayout,
    Domain,
    GridFunction,
    all_shifts,
    chain_sums,
    cube_index_map,
    level_range,
)
from varhardy.maximal import (
    averaging_e_k,
    boundedness_probe,
    grid_maximal,
    hl_maximal,
    k_b_operator,
    local_maximal,
    peak_majorant_convolution,
    peak_majorant_domination,
    powered_weighted_local_maximal,
    restricted_dyadic_maximal,
    vector_valued_maximal_ratio,
)
from varhardy.presets import function_preset, weight_preset


@pytest.fixture
def dom():
    return Domain(1, 8, 9)


def bump_family(dom, rng, count, centers=(-3, 3), widths=(0.2, 1.5)):
    out = []
    for _ in range(count):
        c = rng.uniform(*centers)
        s = rng.uniform(*widths)
        a = rng.uniform(0.5, 2.0)
        out.append(function_preset(f"bump:{c:.4f},{s:.4f},{a:.4f}", dom))
    return out


def enumeration_oracle(f, x_point, max_side=32.0):
    """Direct enumeration: max cube average over cubes containing x_point."""
    best = 0.0
    for c in enumerate_cubes(f.domain, max_side):
        corner = c.side * (c.index[0] + c.shift[0] / 3.0)
        if corner <= x_point < corner + c.side:
            best = max(best, cube_quadrature(abs(f), c) / c.volume)
    return best


class TestHLMaximal:
    def test_constant_fixed(self, dom):
        f = GridFunction(dom, np.full(dom.shape, 2.5))
        out = hl_maximal(f)
        assert np.allclose(out.samples, 2.5, atol=1e-12)

    def test_dominates_f(self, dom):
        f = function_preset("bump:1,0.7", dom)
        assert np.all(hl_maximal(f).samples >= np.abs(f.samples) - 1e-12)

    def test_indicator_at_distance_against_oracle(self, dom):
        # frozen from the direct enumeration oracle: the best shifted dyadic
        # cube through x=2 catching [0,1) has side 4, average 1/4; the
        # continuum supremum 1/3 (cube [-1,2]) is bracketed within 6^n
        f = function_preset("haar:0.5,0.5", dom)  # chi_[0,1) as |f|
        f = abs(f)
        i2 = dom.half_npts + int(round(2.0 / dom.h))
        got = hl_maximal(f).samples[i2]
        oracle = enumeration_oracle(f, 2.0)
        assert got == pytest.approx(oracle, rel=1e-9)
        assert got == pytest.approx(0.25, rel=0.02)
        assert got <= 1.0
        assert 6.0 * got >= (1.0 / 3.0) * 0.98

    def test_sublinear_and_homogeneous(self, dom):
        rng = np.random.default_rng(0)
        f = GridFunction(dom, rng.normal(size=dom.shape))
        g = GridFunction(dom, rng.normal(size=dom.shape))
        mf, mg, mfg = hl_maximal(f), hl_maximal(g), hl_maximal(f + g)
        assert np.all(mfg.samples <= mf.samples + mg.samples + 1e-10)
        assert np.allclose(hl_maximal(-2.0 * f).samples, 2.0 * mf.samples, rtol=1e-12)


class TestTwoDimensional:
    """Analytic and metamorphic oracles that break on any missing factor of h."""

    @pytest.mark.parametrize(
        "op",
        [hl_maximal, local_maximal, lambda f: grid_maximal(f, (1, 1))],
        ids=["hl", "local", "grid"],
    )
    def test_constant_fixed_2d(self, op):
        d2 = Domain(2, 4, 5)
        out = op(GridFunction(d2, np.full(d2.shape, 2.5)))
        # every point lies in a side-h cube of the window, whose mean is 2.5
        assert np.allclose(out.samples, 2.5, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_dyadic_dilation_covariance(self, dim):
        # x -> 2x maps the level-k cubes of Domain(n, T, m) onto the level
        # k-1 cubes of Domain(n, 2T, m-1) and keeps every cube mean
        small, large = Domain(dim, 2, 5), Domain(dim, 4, 4)
        vals = np.random.default_rng(11).normal(size=small.shape)
        a = hl_maximal(GridFunction(small, vals)).samples
        b = hl_maximal(GridFunction(large, vals)).samples
        assert np.allclose(a, b, rtol=1e-12, atol=0.0)


def layout_grid_maximal(f, shift, max_side, min_side):
    """Per-level reference: the max over levels of each cube's mean, one
    `CubeLayout` per level."""
    d = f.domain
    out = np.zeros(d.shape)
    for k in level_range(d, 4.0 * d.half_width if max_side is None else max_side, min_side):
        cubes = CubeLayout(d, k, shift)
        out = np.maximum(out, cubes.field(cubes.means(np.abs(f.samples))))
    return out


def interior(d, margin=0.25):
    x = np.abs(d.axis()) < d.half_width - margin
    return x if d.dim == 1 else x[:, None] & x[None, :]


class TestChainPyramid:
    """The chain pyramid against per-level oracles that do not use it."""

    @pytest.mark.parametrize("d", [Domain(1, 2, 5), Domain(2, 1, 4)], ids=["n1", "n2"])
    @pytest.mark.parametrize(
        "sides", [(None, None), (1.0, None), (None, 0.25), (0.5, 0.125), (0.25, 0.5)],
        ids=["all", "max1", "min0.25", "band", "empty"],
    )
    def test_matches_layout_means(self, d, sides):
        # sparse input on a small window, so cubes cut by its edge count
        rng = np.random.default_rng(17)
        f = GridFunction(d, rng.random(d.shape) * (rng.random(d.shape) < 0.1))
        for a in all_shifts(d.dim):
            got = grid_maximal(f, a, *sides).samples
            want = layout_grid_maximal(f, a, *sides)
            assert np.array_equal(got == 0, want == 0)
            assert np.allclose(got, want, rtol=1e-12, atol=0.0)
            if sides == (0.25, 0.5):
                assert not level_range(d, *sides) and not np.any(got)

    @pytest.mark.parametrize("d", [Domain(1, 2, 5), Domain(2, 1, 4)], ids=["n1", "n2"])
    def test_nesting_lemma(self, d):
        # the level-(k+1) cube q' of shift a' lies in the level-k cube
        # (q' - [a' == 1]) // 2 of shift 2a' mod 3
        for a in all_shifts(d.dim):
            parent = tuple(2 * b % 3 for b in a)
            for k in range(d.level - 1, d.min_cube_level() - 1, -1):
                fine = cube_index_map(d, k + 1, a)
                coarse = cube_index_map(d, k, parent)
                for q, p, b in zip(fine, coarse, a):
                    assert np.array_equal(p, (q - (b == 1)) // 2)

    @pytest.mark.parametrize("d", [Domain(1, 8, 9), Domain(2, 4, 5)], ids=["n1", "n2"])
    @pytest.mark.parametrize(
        "op",
        [hl_maximal, local_maximal, lambda f: grid_maximal(f, (1,) * f.domain.dim)],
        ids=["hl", "local", "grid"],
    )
    def test_constant_exact_inside(self, d, op):
        c = 2.7
        out = op(GridFunction(d, np.full(d.shape, c))).samples
        assert np.all(out[interior(d)] == c)

    def test_operators_route_through_grid_maximal(self, monkeypatch):
        # the benchmark plants errors in maximal.grid_maximal; every operator
        # built on it must still look it up by module attribute
        d = Domain(1, 2, 5)
        f = function_preset("bump:0.3,0.6", d)
        ops = {
            "hl": lambda: hl_maximal(f),
            "local": lambda: local_maximal(f),
            "restricted": lambda: restricted_dyadic_maximal(f, 0.5, "below"),
        }
        before = {name: op().samples for name, op in ops.items()}
        real = maximal.grid_maximal
        monkeypatch.setattr(maximal, "grid_maximal", lambda *a, **k: real(*a, **k) * 2.0)
        for name, op in ops.items():
            assert not np.array_equal(op().samples, before[name]), name


def repeat_children(r, lead, shape):
    """The parent value at every child cube, by repeats: the inverse of the
    pair sums that made the level."""
    for ax in reversed(range(r.ndim)):
        r = np.repeat(r, 2, axis=ax)[(slice(None),) * ax + (slice(lead[ax], lead[ax] + shape[ax]),)]
    return r


def repeat_chain_sup(d, shift, levels, value, *arrays):
    """Reference descent: a fresh lattice field per chain, the running max
    expanded to each finer level by `repeat_children`."""
    levels = set(levels)
    if not levels:
        return np.zeros(d.shape)
    run = above = None
    for k, _, lead, sums in reversed(list(chain_sums(d, shift, arrays, min(levels)))):
        if run is not None:
            run = repeat_children(run, above, sums[0].shape)
        if k in levels:
            v = value(k, *sums)
            run = v if run is None else np.maximum(run, v)
        above = lead
    return run


def repeat_grid_maximal(f, shift, max_side=None, min_side=None):
    d = f.domain
    levels = level_range(d, 4.0 * d.half_width if max_side is None else max_side, min_side)
    absf = np.abs(f.samples)

    def mean(k, s):
        return s * (2.0 ** ((k - d.level) * d.dim))

    other = tuple(2 * a % 3 for a in shift)
    even = repeat_chain_sup(d, shift, [k for k in levels if (d.level - k) % 2 == 0], mean, absf)
    return np.maximum(even, repeat_chain_sup(d, other, [k for k in levels if (d.level - k) % 2], mean, absf))


def repeat_all_grids(f, max_side):
    out = np.zeros(f.domain.shape)
    for a in all_shifts(f.domain.dim):
        out = np.maximum(out, repeat_grid_maximal(f, a, max_side))
    return out


def repeat_powered(f, w, u):
    d = f.domain
    scale = f.sup()
    ws = w.values.samples
    g = (np.abs(f.samples) / scale) ** u * ws
    out = np.zeros(d.shape)
    for a in all_shifts(d.dim):
        out = np.maximum(out, repeat_chain_sup(d, a, level_range(d, 1.0), lambda k, n, m: n / m, g, ws))
    return scale * out ** (1.0 / u)


WINDOWS = [Domain(1, 2, 5), Domain(2, 1, 4)]


def sparse_signed(d):
    rng = np.random.default_rng(23)
    return GridFunction(d, rng.normal(size=d.shape) * (rng.random(d.shape) < 0.2))


class TestInPlaceDescent:
    """The in-place descent against the repeat-based one, bit for bit."""

    @pytest.mark.parametrize("d", WINDOWS, ids=["n1", "n2"])
    def test_windows_have_both_leads_and_odd_counts(self, d):
        leads, odd = set(), set()
        for a in all_shifts(d.dim):
            for _, _, lead, (s,) in chain_sums(d, a, (np.ones(d.shape),), d.min_cube_level()):
                if lead is not None:
                    leads |= set(enumerate(lead))
                    odd |= {ax for ax, n in enumerate(s.shape) if n % 2}
        assert leads == {(ax, z) for ax in range(d.dim) for z in (0, 1)}
        assert odd == set(range(d.dim))

    @pytest.mark.parametrize("d", WINDOWS, ids=["n1", "n2"])
    @pytest.mark.parametrize(
        "sides", [(None, None), (1.0, None), (None, 0.25), (0.5, 0.125), (0.25, 0.5)],
        ids=["all", "max1", "min0.25", "band", "empty"],
    )
    def test_grid_maximal(self, d, sides):
        f = sparse_signed(d)
        for a in all_shifts(d.dim):
            assert np.array_equal(grid_maximal(f, a, *sides).samples, repeat_grid_maximal(f, a, *sides))

    @pytest.mark.parametrize("d", WINDOWS, ids=["n1", "n2"])
    def test_operators(self, d):
        f = sparse_signed(d)
        main = (1,) * d.dim
        assert np.array_equal(hl_maximal(f).samples, repeat_all_grids(f, None))
        # at R = h no chain climbs, and for 2h <= R < 4h level m - 1 is the coarsest
        for R in (d.h, 2 * d.h, 3 * d.h, 0.25, 1.0):
            assert np.array_equal(local_maximal(f, R).samples, repeat_all_grids(f, R))
        for r0 in (d.h, 0.25, 1.0):  # "above" at 0.25 and 1.0 leaves out the lattice level
            assert np.array_equal(restricted_dyadic_maximal(f, r0, "below").samples,
                                  repeat_grid_maximal(f, main, r0))
            assert np.array_equal(restricted_dyadic_maximal(f, r0, "above").samples,
                                  repeat_grid_maximal(f, main, 4.0 * d.half_width, r0))

    @pytest.mark.parametrize("d", WINDOWS, ids=["n1", "n2"])
    def test_operators_sweep_each_chain_once(self, d, monkeypatch):
        # each of the 3^n chains descends once.  At level m - 1 the chains
        # whose lattice shifts differ only between 0 and 1 on some axes pair
        # the same lattice points, so the lattice is pair-summed once per
        # lead class (2^n) and once more for the zero shift's own grid:
        # 3 in 1-D and 5 in 2-D, not one per chain (3 and 9).  The powered
        # operator sweeps all 3^n chains by class, two arrays each.
        descents, lattice = {}, []
        real_sup, real_pairs = maximal._chain_sup, grid._pair_sums

        def sup(out, sweep, *rest):
            if sweep:
                k, shift = sweep[0][:2]
                a = tuple(pow(2, d.level - k, 3) * b % 3 for b in shift)  # the chain's lattice shift
                assert a not in descents
                descents[a] = d.level - k
            return real_sup(out, sweep, *rest)

        def pairs(s, *rest):
            lattice.append(s.shape == d.shape)
            return real_pairs(s, *rest)

        monkeypatch.setattr(maximal, "_chain_sup", sup)
        monkeypatch.setattr(grid, "_pair_sums", pairs)
        f = sparse_signed(d)
        w = weight_preset("power:0.5", d)
        zero = (0,) * d.dim
        for op in (hl_maximal, local_maximal, lambda f: local_maximal(f, 0.25)):
            descents.clear()
            lattice.clear()
            op(f)
            # the zero shift's grid descends from level m - 1, every other chain from m - 2
            assert descents == {a: 1 if a == zero else 2 for a in all_shifts(d.dim)}
            assert sum(lattice) == 2 ** d.dim + 1
        descents.clear()
        lattice.clear()
        powered_weighted_local_maximal(f, w, 2.0)
        assert descents == {a: 2 for a in all_shifts(d.dim)}
        assert sum(lattice) == 2 * 2 ** d.dim

    @pytest.mark.parametrize("lead", list(itertools.product((0, 1), repeat=3)))
    @pytest.mark.parametrize("fill", [False, True])
    def test_raise_in_three_dimensions(self, lead, fill):
        # the row-pair raise is written over n axes: in 3-D, odd and even
        # sizes, both leads on every axis, against the repeat-based expansion
        rng = np.random.default_rng(3)
        shape = (5, 6, 7)
        run = rng.random(shape)
        parent = rng.random([(n + z + 1) // 2 for n, z in zip(shape, lead)])
        up = repeat_children(parent, lead, shape)
        want = up if fill else np.maximum(run, up)
        maximal._raise(run, parent, list(lead), fill)
        assert np.array_equal(run, want)

    @pytest.mark.parametrize("d", WINDOWS, ids=["n1", "n2"])
    @pytest.mark.parametrize("u", [1.0, 2.0])
    def test_powered(self, d, u):
        f = sparse_signed(d)
        w = weight_preset("power:0.5", d)
        assert np.array_equal(powered_weighted_local_maximal(f, w, u).samples, repeat_powered(f, w, u))

    @pytest.mark.parametrize(
        "op, bound",
        [(lambda f: grid_maximal(f, (1, 1)), 2.5), (hl_maximal, 3.5), (local_maximal, 3.5)],
        ids=["grid", "hl", "local"],
    )
    def test_traced_peak_in_lattice_arrays(self, op, bound):
        # the descent raises |f| in place inside the pyramid's own buffers,
        # each output array is adopted, not copied, and the pair sums run
        # in blocks: 1.87 (grid) and 2.67 (hl, local, whose lead classes
        # keep each member's level m - 2 while the class's value takes the
        # place of its level-(m - 1) sums; 2.55 one chain at a time); the
        # repeat-based descent peaked at 4.86 and 5.86, the copying
        # constructor at 2.68 and 3.68
        d = Domain(2, 4, 6)
        f = GridFunction(d, np.random.default_rng(5).random(d.shape))
        op(f)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            op(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (peak - base) / f.samples.nbytes <= bound


# sparse signed inputs on these windows; their outputs are pinned by one
# SHA-256, recorded before the all-grid operators shared their finest level
PINNED_WINDOWS = [Domain(2, 8, 6), Domain(2, 4, 5), Domain(2, 1, 4), Domain(1, 8, 12), Domain(1, 2, 5)]
PINNED_DIGEST = "5833b870a7fbb616e233c21ea476b894895d1f370ec0bd741bc8e6d0795abcb5"


def test_operator_outputs_are_pinned():
    digest = hashlib.sha256()
    for d in PINNED_WINDOWS:
        f = sparse_signed(d)
        w = weight_preset("power:0.5", d)
        digest.update(hl_maximal(f).samples.tobytes())
        for R in (d.h, 2 * d.h, 3 * d.h, 0.25, 1.0):
            digest.update(local_maximal(f, R).samples.tobytes())
        for u in (1.0, 2.0):
            digest.update(powered_weighted_local_maximal(f, w, u).samples.tobytes())
    assert digest.hexdigest() == PINNED_DIGEST


class TestLocalMaximal:
    @pytest.mark.parametrize("R", [math.nan, math.inf])
    def test_rejects_non_finite_R(self, dom, R):
        with pytest.raises(ValueError, match="R must be finite"):
            local_maximal(function_preset("bump:0,1", dom), R)

    def test_dominated_by_global(self, dom):
        f = function_preset("bump:-2,1", dom)
        assert np.all(local_maximal(f).samples <= hl_maximal(f).samples + 1e-12)

    def test_support_separation(self, dom):
        f = abs(function_preset("haar:0.5,0.5", dom))  # chi_[0,1)
        i5 = dom.half_npts + int(round(5.0 / dom.h))
        assert local_maximal(f, R=1.0).samples[i5] == 0.0

    def test_monotone_in_radius(self, dom):
        f = function_preset("bump:0,0.5", dom)
        m1 = local_maximal(f, R=1.0)
        m2 = local_maximal(f, R=2.0)
        assert np.all(m2.samples >= m1.samples - 1e-12)


class TestGridMaximal:
    def test_below_full_maximal(self, dom):
        f = function_preset("bump:2,1", dom)
        m = hl_maximal(f)
        for a in all_shifts(1):
            assert np.all(grid_maximal(f, a).samples <= m.samples + 1e-12)

    def test_covering_inequality(self, dom):
        rng = np.random.default_rng(4)
        for f in bump_family(dom, rng, 5):
            total = np.zeros(dom.shape)
            for a in all_shifts(1):
                total += grid_maximal(f, a).samples
            assert np.all(hl_maximal(f).samples <= 6.0 * total + 1e-12)

    def test_covering_inequality_2d(self):
        d2 = Domain(2, 4, 5)
        rng = np.random.default_rng(9)
        for _ in range(3):
            c = rng.uniform(-1, 1, size=2)
            f = GridFunction.from_callable(
                d2, lambda x, y: np.exp(-((x - c[0]) ** 2 + (y - c[1]) ** 2) * 4)
            )
            total = np.zeros(d2.shape)
            for a in all_shifts(2):
                total += grid_maximal(f, a).samples
            assert np.all(hl_maximal(f).samples <= 36.0 * total + 1e-12)

    @pytest.mark.parametrize("sides", [(math.nan, None), (None, math.nan), (1.0, math.nan)],
                             ids=["max", "min", "band"])
    def test_rejects_nan_sides(self, dom, sides):
        # a nan side would select no level and read as M f = 0 for every f
        f = function_preset("bump:0,1", dom)
        with pytest.raises(ValueError, match="must not be nan"):
            grid_maximal(f, (1,), *sides)

    @pytest.mark.parametrize("shift", [(0,), (1,), (2,)])
    def test_infinite_max_side_is_no_bound(self, dom, shift):
        # the default 4T is already the coarsest enumerable side
        f = function_preset("bump:0,1", dom)
        assert np.array_equal(grid_maximal(f, shift, math.inf).samples, grid_maximal(f, shift).samples)

    def test_rejects_infinite_min_side(self, dom):
        # it would select no level and read as M f = 0 for every f
        f = function_preset("bump:0,1", dom)
        with pytest.raises(ValueError, match="min_side must be finite"):
            grid_maximal(f, (1,), min_side=math.inf)

    def test_delta_hand_enumeration(self, dom):
        # hand enumeration for the standard grid: the point 0 sits on every
        # dyadic boundary, so M is 1/(side of the smallest cube [0, 2^j h)
        # containing x) to the right and 0 strictly to the left
        delta = function_preset("delta", dom)
        m = grid_maximal(delta, (0,)).samples
        i0 = dom.half_npts
        h = dom.h
        assert m[i0] == pytest.approx(1.0 / h, rel=1e-12)
        assert m[i0 + 1] == pytest.approx(1.0 / (2 * h), rel=1e-12)
        assert m[i0 + 2] == pytest.approx(1.0 / (4 * h), rel=1e-12)
        assert m[i0 - 1] == 0.0


class TestPoweredWeighted:
    def test_constant_function(self, dom):
        w = weight_preset("power:1", dom)
        f = GridFunction(dom, np.full(dom.shape, 3.0))
        for u in (0.5, 1.0, 4.0):
            out = powered_weighted_local_maximal(f, w, u)
            assert np.allclose(out.samples, 3.0, rtol=1e-10)

    def test_u_one_equals_weighted_local(self, dom):
        f = function_preset("bump:0,1", dom)
        w = weight_preset("const:1", dom)
        a = powered_weighted_local_maximal(f, w, 1.0)
        b = local_maximal(f)
        assert np.max(np.abs(a.samples - b.samples)) <= 1e-12

    def test_large_u_approaches_local_sup(self, dom):
        x = dom.axis()
        f = GridFunction(dom, 1.0 + ((x >= 0) & (x < 1)).astype(float))
        w = weight_preset("const:1", dom)
        out = powered_weighted_local_maximal(f, w, 16.0)
        # sup-oracle: on [0,1) some admissible cube sits fully inside, so the
        # powered average attains the essential sup 2 there
        inside = (x >= 0.25) & (x < 0.75)
        assert np.all(out.samples[inside] >= 2.0 * (1 - 1e-9))
        assert out.sup() <= 2.0 * (1 + 1e-9)

    def test_monotone_in_u(self, dom):
        f = function_preset("bump:1,1.2", dom)
        w = weight_preset("power:-0.5", dom)
        a = powered_weighted_local_maximal(f, w, 0.5)
        b = powered_weighted_local_maximal(f, w, 2.0)
        assert np.all(b.samples >= a.samples - 1e-10)

    def test_rejects_weight_from_another_domain(self, dom):
        # Domain(1, 4, 10) has the same sample count as Domain(1, 8, 9)
        f = function_preset("bump:0,1", dom)
        w = weight_preset("const:1", Domain(1, 4, 10))
        with pytest.raises(ValueError, match="domain mismatch"):
            powered_weighted_local_maximal(f, w, 1.0)

    def test_rejects_bad_u(self, dom):
        f = function_preset("bump:0,1", dom)
        w = weight_preset("const:1", dom)
        with pytest.raises(ValueError):
            powered_weighted_local_maximal(f, w, 0.0)

    @pytest.mark.parametrize("u", [math.inf, math.nan])
    def test_rejects_non_finite_u(self, dom, u):
        f = function_preset("bump:0,1", dom)
        w = weight_preset("const:1", dom)
        with pytest.raises(ValueError, match="u must be positive and finite"):
            powered_weighted_local_maximal(f, w, u)


class TestKB:
    def test_delta_reproduces_kernel(self, dom):
        delta = function_preset("delta", dom)
        out = k_b_operator(delta, 16.0)
        want = np.exp(-16.0 * np.abs(dom.axis()))
        assert np.max(np.abs(out.samples - want)) <= 2 * dom.h

    def test_constant_gives_two_over_b(self, dom):
        B = 4.0
        f = GridFunction(dom, np.ones(dom.shape))
        out = k_b_operator(f, B)
        i0 = dom.half_npts
        assert out.samples[i0] == pytest.approx(2.0 / B, rel=0.05)

    def test_linearity(self, dom):
        f = function_preset("bump:0,1", dom)
        g = function_preset("bump:1,0.5", dom)
        lhs = k_b_operator(f + 2.0 * g, 8.0)
        rhs = k_b_operator(f, 8.0) + 2.0 * k_b_operator(g, 8.0)
        assert np.max(np.abs(lhs.samples - rhs.samples)) <= 1e-10

    @pytest.mark.parametrize("B", [math.nan, math.inf])
    def test_rejects_non_finite_B(self, dom, B):
        with pytest.raises(ValueError, match="B must be positive and finite"):
            k_b_operator(function_preset("bump:0,1", dom), B)


class TestPeakMajorant:
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("name", ["A", "B"])
    def test_rejects_non_finite_parameters(self, dom, name, bad):
        args = {"A": 2.0, "B": 8.0, name: bad}
        with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
            peak_majorant_convolution(function_preset("bump:0,1", dom), 2, args["A"], args["B"])

    def test_zero(self, dom):
        f = GridFunction(dom, np.zeros(dom.shape))
        out = peak_majorant_convolution(f, 2, 2.0, 8.0)
        assert np.all(out.samples == 0.0)

    def test_kernel_peak_is_one(self, dom):
        from varhardy.maximal import peak_majorant_kernel

        ker = peak_majorant_kernel(dom, 0, 3.0, 5.0)
        assert ker.samples[dom.half_npts] == 1.0

    def test_domination_constant(self, dom):
        rng = np.random.default_rng(21)
        consts = []
        for f in bump_family(dom, rng, 20):
            rep = peak_majorant_domination(f, 3, 2.0, 8.0)
            assert rep.passed
            consts.append(rep.q("constant"))
        assert np.isfinite(max(consts))


class TestAveraging:
    def test_constant_unchanged_inside(self, dom):
        f = GridFunction(dom, np.full(dom.shape, 1.7))
        out = averaging_e_k(f, 3)
        interior = np.abs(dom.axis()) < dom.half_width - 0.25
        assert np.allclose(out.samples[interior], 1.7)

    def test_idempotent(self, dom):
        rng = np.random.default_rng(2)
        f = GridFunction(dom, rng.normal(size=dom.shape))
        once = averaging_e_k(f, 4)
        twice = averaging_e_k(once, 4)
        # exact on full cubes, up to the rounding of re-summed block means;
        # window-edge cubes carry the zero-extension normalization artifact
        interior = np.abs(dom.axis()) < dom.half_width - 0.25
        assert np.allclose(once.samples[interior], twice.samples[interior], rtol=1e-13, atol=1e-15)

    def test_dominated_by_restricted_maximal(self, dom):
        rng = np.random.default_rng(3)
        f = GridFunction(dom, rng.normal(size=dom.shape))
        for k, r0 in ((4, 2.0**-4), (4, 0.25), (2, 0.5)):
            ek = averaging_e_k(f, k)
            m = restricted_dyadic_maximal(f, r0, "below")
            assert np.all(np.abs(ek.samples) <= m.samples + 1e-12)

    def test_scale_below_resolution(self, dom):
        f = GridFunction(dom, np.zeros(dom.shape))
        with pytest.raises(ValueError):
            averaging_e_k(f, dom.level + 1)


class TestRestricted:
    def test_union_reconstructs_full(self, dom):
        rng = np.random.default_rng(6)
        f = GridFunction(dom, np.abs(rng.normal(size=dom.shape)))
        below = restricted_dyadic_maximal(f, 2 * dom.half_width, "below")
        above = restricted_dyadic_maximal(f, dom.h, "above")
        full = grid_maximal(f, (1,))
        assert np.allclose(np.maximum(below.samples, above.samples), full.samples, atol=1e-12)

    def test_above_bound_off_support(self, dom):
        f = abs(function_preset("haar:0.5,0.5", dom))  # chi_[0,1)
        out = restricted_dyadic_maximal(f, 4.0, "above")
        x = dom.axis()
        far = np.abs(x - 0.5) > 4.5
        assert np.all(out.samples[far] <= 0.25 + 1e-12)

    def test_monotone_below(self, dom):
        f = function_preset("bump:0,1", dom)
        a = restricted_dyadic_maximal(f, 0.25, "below")
        b = restricted_dyadic_maximal(f, 1.0, "below")
        assert np.all(b.samples >= a.samples - 1e-12)


class TestBoundednessProbe:
    def test_identity_ratio_one(self, dom):
        rng = np.random.default_rng(8)
        p = VariableExponent.constant(dom, 2.0)
        rep = boundedness_probe(lambda f: f, p, None, bump_family(dom, rng, 5))
        assert rep.q("operator_norm") == pytest.approx(1.0, rel=1e-9)

    def test_local_maximal_stable_unweighted(self, dom):
        rng = np.random.default_rng(9)
        p = VariableExponent.constant(dom, 2.0)
        fam = bump_family(dom, rng, 10)
        d0 = boundedness_probe(local_maximal, p, None, fam).q("operator_norm")
        fine = Domain(dom.dim, dom.half_width, dom.level + 1)
        p1 = VariableExponent.constant(fine, 2.0)
        fam1 = [
            GridFunction.from_callable(fine, lambda x, f=f: np.interp(x, dom.axis(), f.samples))
            for f in fam
        ]
        d1 = boundedness_probe(local_maximal, p1, None, fam1).q("operator_norm")
        assert d1 <= 1.5 * d0

    def test_zero_member_skipped(self, dom):
        p = VariableExponent.constant(dom, 2.0)
        fam = [GridFunction(dom, np.zeros(dom.shape)), function_preset("bump:0,1", dom)]
        with pytest.warns(UserWarning):
            rep = boundedness_probe(local_maximal, p, None, fam)
        assert rep.q("skipped") == 1.0


class TestVectorValued:
    @pytest.mark.parametrize("q", [math.inf, math.nan])
    def test_rejects_non_finite_q(self, dom, q):
        p = VariableExponent.constant(dom, 2.0)
        with pytest.raises(ValueError, match="q must exceed 1 and be finite"):
            vector_valued_maximal_ratio([function_preset("bump:0,1", dom)], q, p, None)

    def test_single_member_reduces_to_scalar(self, dom):
        p = VariableExponent.constant(dom, 2.0)
        f = function_preset("bump:0,1", dom)
        rep = vector_valued_maximal_ratio([f], 2.0, p, None)
        scalar = boundedness_probe(local_maximal, p, None, [f]).q("operator_norm")
        assert rep.q("ratio") == pytest.approx(scalar, rel=1e-9)

    def test_disjoint_indicators(self, dom):
        p = VariableExponent.constant(dom, 2.0)
        fam = [abs(function_preset(f"haar:{c},0.25", dom)) for c in (-4.0, 0.0, 4.0)]
        rep = vector_valued_maximal_ratio(fam, 2.0, p, None)
        assert np.isfinite(rep.q("ratio"))
        assert rep.q("ratio") >= 1.0
