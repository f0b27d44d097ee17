import math
import pickle

import numpy as np
import pytest

from scipy import fft as sp_fft

from cube_reference import cube_quadrature, enumerate_cubes
from varhardy import atoms, grid
from varhardy.atoms import Cube, _owner_atoms, whitney_decompose
from varhardy.grid import (
    CubeLayout,
    Domain,
    GridFunction,
    all_shifts,
    chain_sums,
    convolve,
    convolve_bank,
    cube_centers,
    cube_index_map,
    cube_lattice_ranges,
    kernel_spectrum,
    layout_sums,
    level_range,
    quadrature,
    rescale_mollifier,
    smallest_enclosing_cubes,
)


@pytest.fixture
def dom():
    return Domain(1, 8, 9)


def lattice_count(cube, d):
    """Number of lattice points in a cube."""
    return math.prod(max(b - a, 0) for a, b in cube.lattice_ranges(d))


def smallest_enclosing_cube(domain, lo, hi):
    """The `Cube` that `smallest_enclosing_cubes` finds for one box [lo, hi]
    of lattice coordinates."""
    level, shift, index = smallest_enclosing_cubes(domain, np.reshape(lo, (1, -1)), np.reshape(hi, (1, -1)))
    return Cube(int(level[0]), tuple(shift[0].tolist()), tuple(index[0].tolist()))


def indicator(dom, lo, hi):
    return GridFunction.from_callable(dom, lambda x: ((x >= lo) & (x < hi)).astype(float))


class TestDomain:
    def test_basic(self, dom):
        assert dom.h == 2.0 ** -9
        assert dom.npts == 8192
        assert dom.axis()[dom.half_npts] == 0.0

    def test_cached_counts_stay_out_of_identity(self):
        # npts, half_npts and shape are computed once per instance; equality,
        # hash, repr and pickling see the three fields only
        a, b = Domain(2, 4, 5), Domain(2, 4, 5)
        assert (a.npts, a.half_npts, a.shape) == (256, 128, (256, 256))
        assert a == b and hash(a) == hash(b) and repr(a) == repr(b) == "Domain(n=2, T=4, m=5)"
        assert pickle.loads(pickle.dumps(a)) == b
        assert Domain(2, 4, 6) != a and Domain(1, 4, 5) != a

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            Domain(3, 8, 9)
        with pytest.raises(ValueError):
            Domain(1, 8, 3)
        with pytest.raises(ValueError):
            Domain(1, 5.0, 9)  # sample count not a power of two

    def test_refine_nests_lattice(self, dom):
        fine = Domain(dom.dim, dom.half_width, dom.level + 1)
        assert set(dom.axis()).issubset(set(fine.axis()))


class TestGridFunctionSamples:
    def test_constructor_copies(self, dom):
        a = np.ones(dom.shape)
        f = GridFunction(dom, a)
        a[0] = 5.0
        assert f.samples[0] == 1.0 and a.flags.writeable
        assert not f.samples.flags.writeable

    def test_adopt_keeps_the_array(self, dom):
        a = np.ones(dom.shape)
        f = GridFunction._adopt(dom, a)
        assert f.samples is a and not a.flags.writeable

    @pytest.mark.parametrize("build", [GridFunction, GridFunction._adopt], ids=["copy", "adopt"])
    def test_rejects_complex_samples(self, dom, build):
        with pytest.raises(ValueError, match="complex128"):
            build(dom, np.ones(dom.shape) * (1 + 2j))

    def test_arithmetic_rejects_complex_result(self, dom):
        with pytest.raises(ValueError, match="complex128"):
            GridFunction(dom, np.ones(dom.shape)) * 1j

    def test_library_outputs_are_read_only(self, dom):
        from varhardy.hardy import grand_maximal, nested_dictionaries
        from varhardy.maximal import grid_maximal, hl_maximal

        f = indicator(dom, 0.0, 1.0)
        g = indicator(dom, -1.0, 0.5)
        small, _ = nested_dictionaries(1, 8, dom)
        outs = [hl_maximal(f), grid_maximal(f, (1,)), f + g, convolve(f, g), grand_maximal(f, small, "M0")]
        for out in outs:
            assert not out.samples.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                out.samples[0] = 1.0


class TestQuadrature:
    def test_constant_one(self, dom):
        f = GridFunction.from_callable(dom, lambda x: np.ones_like(x))
        q = cube_quadrature(f, Cube(0, (0,), (0,)))
        assert abs(q - 1.0) <= dom.h

    def test_zero(self, dom):
        f = GridFunction.from_callable(dom, lambda x: np.zeros_like(x))
        assert quadrature(f) == 0.0

    def test_x_squared_closed_form(self, dom):
        # oracle: int_0^1 x^2 dx = 1/3
        f = GridFunction.from_callable(dom, lambda x: np.where((x >= 0) & (x < 1), x**2, 0.0))
        assert abs(quadrature(f) - 1.0 / 3.0) <= 2 * dom.h

    def test_linearity(self, dom):
        rng = np.random.default_rng(0)
        f = GridFunction(dom, rng.normal(size=dom.shape))
        g = GridFunction(dom, rng.normal(size=dom.shape))
        lhs = quadrature(2.5 * f + (-1.25) * g)
        rhs = 2.5 * quadrature(f) - 1.25 * quadrature(g)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))

    def test_empty_intersection_is_zero(self, dom):
        f = GridFunction.from_callable(dom, lambda x: np.ones_like(x))
        far = Cube(0, (0,), (1000,))
        assert cube_quadrature(f, far) == 0.0

    def test_2d(self):
        d2 = Domain(2, 4, 5)
        f = GridFunction.from_callable(d2, lambda x, y: np.ones(np.broadcast(x, y).shape))
        q = cube_quadrature(f, Cube(0, (0, 0), (0, 0)))
        assert abs(q - 1.0) <= 4 * d2.h


class TestEnumerate:
    def test_hand_enumeration_count(self):
        # sides 1, 1/2, 1/4 on [-1, 1): 2 + 4 + 8 = 14 cubes
        d = Domain(1, 1, 4)
        cubes = enumerate_cubes(d, max_side=1.0, shifts=[(0,)], min_side=0.25)
        assert len(cubes) == 14
        by_level = {}
        for c in cubes:
            by_level.setdefault(c.level, []).append(c)
        assert {k: len(v) for k, v in by_level.items()} == {0: 2, 1: 4, 2: 8}

    def test_min_side_equal_max_side(self, dom):
        cubes = enumerate_cubes(dom, max_side=dom.h, shifts=[(0,)])
        assert {c.level for c in cubes} == {dom.level}
        assert len(cubes) == dom.npts

    def test_all_shifts_no_duplicates(self, dom):
        cubes = enumerate_cubes(dom, max_side=0.5, min_side=0.25)
        keys = {(c.level, c.shift, c.index) for c in cubes}
        assert len(keys) == len(cubes)
        assert {c.shift for c in cubes} == set(all_shifts(1))

    def test_deterministic_order(self, dom):
        a = enumerate_cubes(dom, max_side=0.5, min_side=0.25)
        b = enumerate_cubes(dom, max_side=0.5, min_side=0.25)
        assert a == b
        levels = [c.level for c in a]
        assert levels == sorted(levels, reverse=True)

    def test_level_range_of_nan_is_empty(self, dom):
        # nan compares false both ways: no level, rather than a failed int()
        assert level_range(dom, np.nan) == []
        assert level_range(dom, 1.0) == list(range(dom.level, -1, -1))


class TestTiling:
    @pytest.mark.parametrize("shift", [(0,), (1,), (2,)])
    @pytest.mark.parametrize("level", [9, 5, 2, 0])
    def test_partition_of_lattice(self, dom, shift, level):
        # every lattice point lies in exactly one cube per (level, shift)
        cubes = [c for c in enumerate_cubes(dom, 2.0 ** -level, [shift], 2.0 ** -level)]
        cover = np.zeros(dom.npts, dtype=int)
        for c in cubes:
            (a, b), = c.lattice_ranges(dom)
            cover[a:b] += 1
        assert np.all(cover == 1)


class TestCubeLayout:
    """One layout per (level, shift) against per-cube slices and the enumeration."""

    @pytest.mark.parametrize("step", [0, 3, 6])
    @pytest.mark.parametrize("d", [Domain(1, 2, 5), Domain(2, 1, 4)], ids=["n1", "n2"])
    def test_matches_slices_and_enumeration(self, d, step):
        # coarse levels clip the edge cubes of the shifted grids at the window
        level = d.level - step
        f = np.random.default_rng(step).normal(size=d.shape)
        full = 2.0 ** ((d.level - level) * d.dim)
        for a in all_shifts(d.dim):
            cubes = CubeLayout(d, level, a)
            enum = [
                c for c in enumerate_cubes(d, 2.0**-level, [a], 2.0**-level)
                if lattice_count(c, d) > 0
            ]
            # flat cube ids run row-major over the per-axis cube indices
            ids = [Cube(level, a, tuple(i + q0 for i, q0 in zip(ix, cubes.first))) for ix in np.ndindex(cubes.shape)]
            assert ids == enum
            owner = cubes.field(np.arange(cubes.count))
            means = np.empty(cubes.count)
            for j, c in enumerate(enum):
                block = tuple(slice(lo, hi) for lo, hi in c.lattice_ranges(d))
                assert np.all(owner[block] == j)
                means[j] = np.sum(f[block]) * d.h**d.dim / c.volume
            assert np.array_equal(cubes.occupancy(), [lattice_count(c, d) / full for c in enum])
            np.testing.assert_allclose(cubes.means(f), means, rtol=1e-12, atol=1e-14)
            if step > 0 and any(a):
                # a shifted grid never has a cube edge on the window edge
                assert cubes.occupancy()[0] < 1.0


class TestChainSums:
    """The chain pyramid against `CubeLayout`, the reference for every
    (level, shift)."""

    @pytest.mark.parametrize("d", [Domain(1, 2, 5), Domain(2, 1, 4)], ids=["n1", "n2"])
    def test_chains_cover_every_level_and_shift_once(self, d):
        f = np.random.default_rng(5).random(d.shape)
        levels = level_range(d, 1.0)
        seen = []
        for a in all_shifts(d.dim):
            for k, shift, _, (s, count) in chain_sums(d, a, (f, np.ones(d.shape)), levels[-1]):
                seen.append((k, shift))
                cubes = CubeLayout(d, k, shift)
                assert s.shape == cubes.shape
                np.testing.assert_allclose(s.ravel(), cubes.sums(f), rtol=1e-12, atol=0.0)
                inside = count.ravel() == 2.0 ** ((d.level - k) * d.dim)
                assert np.array_equal(inside, cubes.occupancy() > 1.0 - 1e-9)
        assert len(seen) == len(set(seen))
        assert set(seen) == {(k, a) for k in levels for a in all_shifts(d.dim)}

    @pytest.mark.parametrize("d", [Domain(1, 8, 9), Domain(2, 1, 5)], ids=["n1", "n2"])
    def test_layouts_repeat_only_where_the_cubes_do(self, d):
        # one layout per (level, shift) with distinct cubes: the lattice
        # level is one for every shift, and at level m - 1 shifts 0 and 2
        # pair the same lattice points on each axis
        f = np.random.default_rng(8).standard_normal(d.shape)
        levels = level_range(d, 1.0)
        want = {(k, shift): s for a in all_shifts(d.dim) for k, shift, _, (s,) in chain_sums(d, a, (f,), levels[-1])}
        seen = []
        layouts = list(layout_sums(d, all_shifts(d.dim), (f,), levels[-1]))
        for k, shifts, (s,) in layouts:
            cubes = CubeLayout(d, k, shifts[0])
            for shift in shifts:
                seen.append((k, shift))
                other = CubeLayout(d, k, shift)
                assert np.array_equal(other.ids, cubes.ids)  # the same cubes, up to the index offset
                assert np.array_equal(want[k, shift], s)
            assert len(shifts) == {d.level: 3 ** d.dim, d.level - 1: 2 ** sum(a != 1 for a in shifts[0])}.get(k, 1)
        assert sorted(seen) == sorted(want)
        assert len(seen) - len(layouts) == (3 ** d.dim - 1) + (3 ** d.dim - 2 ** d.dim)
        if d.dim == 1:
            assert (len(layouts), len(seen)) == (27, 30)

    @pytest.mark.parametrize("block", [1, 3, 40])
    @pytest.mark.parametrize("d", [Domain(1, 1, 4), Domain(2, 1, 4)], ids=["1d", "2d"])
    def test_blocks_leave_sums_bitwise_unchanged(self, d, block, monkeypatch):
        f = np.random.default_rng(6).standard_normal(d.shape)

        def pyramid():
            return [s for a in all_shifts(d.dim) for *_, (s,) in chain_sums(d, a, (f,), d.min_cube_level())]

        whole = pyramid()  # every level in one block
        monkeypatch.setattr(grid, "PAIR_BLOCK", block)
        blocked = pyramid()
        assert all(np.array_equal(a, b) for a, b in zip(whole, blocked, strict=True))

    @pytest.mark.parametrize("block", [3, grid.PAIR_BLOCK])
    @pytest.mark.parametrize("d", [Domain(1, 1, 4), Domain(2, 1, 4)], ids=["1d", "2d"])
    def test_min_max_pyramids_match_cube_layout(self, d, block, monkeypatch):
        monkeypatch.setattr(grid, "PAIR_BLOCK", block)
        f = np.random.default_rng(7).standard_normal(d.shape)
        layouts = layout_sums(d, all_shifts(d.dim), (f, f), d.min_cube_level(), (np.minimum, np.maximum))
        for k, shifts, (lo, hi) in layouts:
            for shift in shifts:
                ids = CubeLayout(d, k, shift).ids.ravel()
                ref_lo, ref_hi = np.full(lo.size, np.inf), np.full(hi.size, -np.inf)
                np.minimum.at(ref_lo, ids, f.ravel())
                np.maximum.at(ref_hi, ids, f.ravel())
                assert np.array_equal(lo.ravel(), ref_lo) and np.array_equal(hi.ravel(), ref_hi)


class TestOneThirdTrick:
    def test_random_intervals_are_covered(self, dom):
        rng = np.random.default_rng(7)
        unit = 2**dom.level  # lattice points per unit length
        for _ in range(50):
            lo = int(rng.integers(-6 * unit, 5 * unit))
            width = int(rng.integers(1, 2 * unit + 1))
            R = smallest_enclosing_cube(dom, [lo], [lo + width])
            corner = R.side * (R.index[0] + R.shift[0] / 3.0)
            assert corner <= lo * dom.h and (lo + width) * dom.h < corner + R.side
            assert R.volume <= 6.0 * width * dom.h + 1e-12

    def test_2d_cover(self):
        d2 = Domain(2, 4, 5)
        rng = np.random.default_rng(8)
        unit = 2**d2.level
        for _ in range(20):
            lo = rng.integers(-3 * unit, 2 * unit, size=2)
            w = int(rng.integers(1, 3 * unit // 2 + 1))
            R = smallest_enclosing_cube(d2, lo, lo + w)
            assert R.volume <= 6.0**2 * (w * d2.h) ** 2 + 1e-9


def reference_enclosing_cube(domain, lo, hi):
    """The search written out box by box on coordinates x: levels from the
    finest the width allows down to the coarsest, shifts in `all_shifts`
    order, first hit, with float membership tests."""
    width = max(b - a for a, b in zip(lo, hi))
    k_start = min(math.floor(-math.log2(max(width, domain.h / 4)) + 1e-12), domain.level)
    for k in range(k_start, domain.min_cube_level() - 1, -1):
        side = 2.0**-k
        for a in all_shifts(domain.dim):
            m = [math.floor(l / side - s / 3.0) for l, s in zip(lo, a)]
            corner = [side * (i + s / 3.0) for i, s in zip(m, a)]
            if all(c <= l and h < c + side for c, l, h in zip(corner, lo, hi)):
                return Cube(k, a, tuple(m))
    raise ValueError("no cube")


class TestEnclosingCubes:
    @pytest.mark.parametrize("dim", [1, 2], ids=["n1", "n2"])
    def test_batch_matches_reference(self, dim):
        # seeded lattice boxes inside windows of three widths, from a point
        # to the whole window, log-uniform in width per axis; the reference
        # searches their coordinates x = i h
        rng = np.random.default_rng(dim)
        for T in (0.5, 2, 8):
            d = Domain(dim, T, 9 if dim == 1 else 6)
            n = d.npts
            width = np.floor(n ** rng.uniform(0, 1, size=(300, dim))).astype(np.int64) - 1
            width[:3] = np.array([[0], [1], [n - 1]])
            lo = rng.integers(-(n // 2), n // 2 - width)
            hi = lo + width
            level, shift, index = smallest_enclosing_cubes(d, lo, hi)
            for row in range(len(lo)):
                want = reference_enclosing_cube(d, (lo[row] * d.h).tolist(), (hi[row] * d.h).tolist())
                assert Cube(int(level[row]), tuple(shift[row].tolist()), tuple(index[row].tolist())) == want

    @pytest.mark.parametrize("d", [Domain(1, 8, 9), Domain(2, 2, 6)], ids=["n1", "n2"])
    def test_kept_owner_segments_keep_their_own_boxes(self, d):
        # owner segments of the ragged buffer, one box each, as
        # atomic_decompose hands them over: the dropped ones, far out near
        # the window edge, lie between kept segments
        rng = np.random.default_rng(5)
        x = d.axis()
        kept = np.array([True, False, False, True, False, True, True, False, True, False] * 3)
        reach = 24 if d.dim == 1 else 12  # keeps every support below unit volume
        lo = np.array([
            rng.integers(d.npts // 4, d.npts // 2, size=d.dim) if keep else rng.choice([1, d.npts - reach - 1], size=d.dim)
            for keep in kept
        ])
        shape = rng.integers(4, reach, size=lo.shape)
        size = np.prod(shape, axis=1)
        first = np.cumsum(size) - size
        summed = rng.normal(size=size.sum()) * (rng.random(size.sum()) < 0.7)
        summed[first + rng.integers(size)] = 1.0
        point = atoms._box_points(d, lo, shape)
        coords = np.stack(np.unravel_index(point, d.shape), axis=1)
        rows = _owner_atoms(summed, point, lo, shape, kept, d, math.inf, None)
        assert len(rows.lam) == kept.sum()
        for lam, atom, s in zip(rows.lam, rows.atoms(d, math.inf, 0), np.flatnonzero(kept)):
            seg = slice(first[s], first[s] + size[s])
            c = coords[seg]
            assert np.all((c >= lo[s]) & (c < lo[s] + shape[s])) and len({tuple(p) for p in c.tolist()}) == size[s]
            nz = summed[seg] != 0
            assert atom.support == reference_enclosing_cube(d, x[c[nz].min(0)].tolist(), x[c[nz].max(0)].tolist())
            assert atom.patch.lo == tuple(lo[s].tolist())
            assert atom.patch.arr.shape == tuple(shape[s].tolist())
            dense = np.zeros(d.shape)
            dense[tuple(slice(a, a + k) for a, k in zip(atom.patch.lo, atom.patch.arr.shape))] = atom.patch.arr
            assert np.count_nonzero(dense) == np.count_nonzero(summed[seg])
            np.testing.assert_allclose(lam * dense[tuple(c.T)], summed[seg], rtol=1e-15, atol=0)

    def test_empty_batch_and_errors(self):
        for d in (Domain(1, 8, 9), Domain(2, 4, 6)):
            unit, none = 2**d.level, np.zeros((0, d.dim), dtype=np.int64)
            level, shift, index = smallest_enclosing_cubes(d, none, none)
            assert level.shape == (0,) and shift.shape == index.shape == (0, d.dim)
            lo = np.array([[0] * d.dim, [unit] * d.dim])
            with pytest.raises(ValueError, match="empty box"):
                smallest_enclosing_cubes(d, lo, lo[::-1] - [[0] * d.dim, [unit // 2] * d.dim])
            # wider than the largest cube, side 4T
            with pytest.raises(ValueError, match="largest"):
                smallest_enclosing_cube(d, [-8 * unit] * d.dim, [40 * unit] * d.dim)


def check_ranges_and_centres(d, level, shift, cubes):
    """`cube_lattice_ranges` and `cube_centers` of cubes of one (level,
    shift) against `cube_index_map`, the cube box and the Cube methods."""
    qmap = cube_index_map(d, level, shift)
    index = np.array([c.index for c in cubes]).reshape(-1, d.dim)
    start, stop = cube_lattice_ranges(d, level, np.array(shift), index)
    for i in range(d.dim):  # cube_index_map is sorted along each axis
        first = np.searchsorted(qmap[i], index[:, i], "left")
        last = np.searchsorted(qmap[i], index[:, i], "right")
        met = last > first
        assert np.array_equal(start[met, i], first[met])
        assert np.array_equal(stop[met, i], last[met])
        assert np.all(stop[~met, i] <= start[~met, i])
    centre = cube_centers(level, np.array(shift), index)
    side = 2.0**-level
    corner = side * (index + np.array(shift) / 3.0)
    assert np.allclose(centre, corner + side / 2, rtol=0, atol=1e-15 * max(side, 1.0))
    assert [c.lattice_ranges(d) for c in cubes] == [tuple(zip(s, e)) for s, e in zip(start.tolist(), stop.tolist())]
    assert [c.center for c in cubes] == [tuple(r) for r in centre.tolist()]


class TestCubeArithmetic:
    """The one range/centre routine against `cube_index_map`, an
    independent integer path: the points of cube index q are its range."""

    @pytest.mark.parametrize("d", [Domain(1, 2, 6), Domain(2, 1, 5)], ids=["n1", "n2"])
    def test_every_enumerated_cube(self, d):
        # coarse levels clip the edge cubes of every grid at the window
        for level in (d.level - 1, d.level - 3, d.min_cube_level()):
            for a in all_shifts(d.dim):
                check_ranges_and_centres(d, level, a, enumerate_cubes(d, 2.0**-level, [a], 2.0**-level))

    @pytest.mark.parametrize("d", [Domain(1, 8, 9), Domain(2, 4, 8)], ids=["n1", "n2"])
    def test_every_whitney_cube(self, d):
        r = d.coords()[0] if d.dim == 1 else np.maximum(*map(np.abs, d.coords()))
        om = GridFunction(d, np.broadcast_to((r > -1.5) & (r < 1.6), d.shape).astype(float))
        cubes = whitney_decompose(om)
        assert cubes
        for level in {c.level for c in cubes}:
            check_ranges_and_centres(d, level, (0,) * d.dim, [c for c in cubes if c.level == level])


class TestConvolve:
    def test_delta_identity(self, dom):
        rng = np.random.default_rng(2)
        f = GridFunction(dom, rng.normal(size=dom.shape))
        delta = np.zeros(dom.shape)
        delta[dom.half_npts] = 1.0 / dom.h
        g = GridFunction(dom, delta)
        out = convolve(f, g)
        assert np.allclose(out.samples, f.samples, atol=1e-10)

    def test_box_box_triangle(self, dom):
        # oracle: chi_[0,1] * chi_[0,1] is the hat on [0,2] with peak 1 at x=1
        f = indicator(dom, 0.0, 1.0)
        out = convolve(f, f)
        x = dom.axis()
        hat = np.clip(1.0 - np.abs(x - 1.0), 0.0, None)
        assert np.max(np.abs(out.samples - hat)) <= 2 * dom.h

    def test_commutative(self, dom):
        rng = np.random.default_rng(3)
        x = dom.axis()
        f = GridFunction(dom, np.where(np.abs(x) < 2, rng.normal(size=dom.shape), 0.0))
        g = GridFunction(dom, np.where(np.abs(x - 1) < 1, rng.normal(size=dom.shape), 0.0))
        a = convolve(f, g)
        b = convolve(g, f)
        assert np.max(np.abs(a.samples - b.samples)) <= 1e-10

    def test_domain_mismatch(self, dom):
        f = GridFunction(dom, np.zeros(dom.shape))
        fine = Domain(dom.dim, dom.half_width, dom.level + 1)
        g = GridFunction(fine, np.zeros(fine.shape))
        with pytest.raises(ValueError):
            convolve(f, g)


def direct_convolution(f: np.ndarray, g: np.ndarray, h: float) -> np.ndarray:
    """h^n sum_i f(i) g(p - i) over the window, by brute force: one shifted
    copy of f per nonzero kernel sample, with x = 0 at index N/2."""
    n = f.shape[0]
    m = n // 2
    out = np.zeros(f.shape)
    for k in zip(*np.nonzero(g)):
        shift = [ki - m for ki in k]  # out(p) += f(p - shift) g(k)
        dst = tuple(slice(max(s, 0), n + min(s, 0)) for s in shift)
        src = tuple(slice(max(-s, 0), n - max(s, 0)) for s in shift)
        out[dst] += f[src] * g[k]
    return out * h ** f.ndim


def bank_kernels(d: Domain) -> dict[str, tuple[np.ndarray, int]]:
    """(samples, reach) of kernels of every reach: a centre spike, one
    sample at x = -T, full support, zero, and a random kernel of reach 3."""
    m = d.half_npts
    rng = np.random.default_rng(11)
    spike = np.zeros(d.shape)
    spike[(m,) * d.dim] = 1.0
    edge = np.zeros(d.shape)
    edge[(0,) * d.dim] = 1.0
    edge[(m + 1,) * d.dim] = -2.0
    near = np.zeros(d.shape)
    near[(slice(m - 3, m + 4),) * d.dim] = rng.normal(size=(7,) * d.dim)
    return {
        "spike": (spike, 0),
        "edge": (edge, m),
        "full": (np.exp(-d.radius()), m),
        "zero": (np.zeros(d.shape), 0),
        "near": (near, 3),
    }


class TestConvolveBank:
    DOMAINS = [Domain(1, 2, 6), Domain(2, 1, 4)]

    @pytest.mark.parametrize("d", DOMAINS, ids=["n1", "n2"])
    @pytest.mark.parametrize("name", ["spike", "edge", "full", "zero", "near"])
    def test_matches_direct_sum(self, d, name):
        g, reach = bank_kernels(d)[name]
        f = np.random.default_rng(12).normal(size=d.shape)
        spec = kernel_spectrum(GridFunction(d, g))
        assert spec.reach == reach
        got = next(convolve_bank(GridFunction(d, f), [spec]))
        want = direct_convolution(f, g, d.h)
        if d.dim == 1:
            n, m = d.npts, d.half_npts
            assert np.allclose(want, np.convolve(f, g)[m : m + n] * d.h, rtol=0, atol=1e-13 * np.abs(want).max())
        assert np.allclose(got, want, rtol=0, atol=1e-13 * np.abs(want).max())

    @pytest.mark.parametrize("d", DOMAINS, ids=["n1", "n2"])
    def test_full_support_keeps_the_window_length(self, d):
        spec = kernel_spectrum(GridFunction(d, bank_kernels(d)["full"][0]))
        n = sp_fft.next_fast_len(2 * d.npts - 1, True)
        assert spec.values.shape == (n,) * (d.dim - 1) + (n // 2 + 1,)

    @pytest.mark.parametrize("d", DOMAINS, ids=["n1", "n2"])
    def test_one_forward_transform_per_padded_shape(self, d, monkeypatch):
        kernels = bank_kernels(d)
        order = ["spike", "full", "near", "edge", "spike", "zero", "near"]
        specs = [kernel_spectrum(GridFunction(d, kernels[k][0])) for k in order]
        shapes = {sp_fft.next_fast_len(d.npts + 2 * s.reach, True) for s in specs}
        assert 1 < len(shapes) < len(specs)
        calls = []
        real_rfftn = sp_fft.rfftn

        def counting(x, *args, **kwargs):
            calls.append(x.shape)
            return real_rfftn(x, *args, **kwargs)

        monkeypatch.setattr(grid.sp_fft, "rfftn", counting)
        f = np.random.default_rng(13).normal(size=d.shape)
        got = list(convolve_bank(GridFunction(d, f), specs))
        assert len(calls) == len(shapes)
        for k, out in zip(order, got):
            want = direct_convolution(f, kernels[k][0], d.h)
            assert np.allclose(out, want, rtol=0, atol=1e-13 * np.abs(want).max())


class TestRescale:
    @pytest.fixture
    def phi(self, dom):
        return GridFunction.from_callable(
            dom, lambda x: np.where(np.abs(x) < 1, np.exp(1 - 1 / np.maximum(1 - x**2, 1e-300)), 0.0)
        )

    def test_identity_at_one(self, phi):
        out = rescale_mollifier(phi, 1.0)
        assert np.array_equal(out.samples, phi.samples)

    def test_mass_preserved(self, phi, dom):
        m0 = quadrature(phi)
        m1 = quadrature(rescale_mollifier(phi, 0.5))
        assert abs(m1 - m0) <= 4 * dom.h

    def test_sup_scales_exactly(self, phi, dom):
        out = rescale_mollifier(phi, 0.25)
        assert out.sup() == 4.0 * phi.sup()

    def test_below_resolution_rejected(self, phi, dom):
        with pytest.raises(ValueError, match="below resolution"):
            rescale_mollifier(phi, dom.h / 2)

