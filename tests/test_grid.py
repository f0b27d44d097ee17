import numpy as np
import pytest

from varhardy.grid import (
    Box,
    Cube,
    CubeLayout,
    Domain,
    GridFunction,
    all_shifts,
    convolve,
    enumerate_cubes,
    quadrature,
    rescale_mollifier,
    smallest_enclosing_cube,
)


@pytest.fixture
def dom():
    return Domain(1, 8, 9)


def indicator(dom, lo, hi):
    return GridFunction.from_callable(dom, lambda x: ((x >= lo) & (x < hi)).astype(float))


class TestDomain:
    def test_basic(self, dom):
        assert dom.h == 2.0 ** -9
        assert dom.npts == 8192
        assert dom.axis()[dom.half_npts] == 0.0

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            Domain(3, 8, 9)
        with pytest.raises(ValueError):
            Domain(1, 8, 3)
        with pytest.raises(ValueError):
            Domain(1, 5.0, 9)  # sample count not a power of two

    def test_refine_nests_lattice(self, dom):
        fine = dom.refine()
        assert set(dom.axis()).issubset(set(fine.axis()))


class TestQuadrature:
    def test_constant_one(self, dom):
        f = GridFunction.from_callable(dom, lambda x: np.ones_like(x))
        q = quadrature(f, Cube(0, (0,), (0,)))
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
        assert quadrature(f, far) == 0.0

    def test_2d(self):
        d2 = Domain(2, 4, 5)
        f = GridFunction.from_callable(d2, lambda x, y: np.ones(np.broadcast(x, y).shape))
        q = quadrature(f, Cube(0, (0, 0), (0, 0)))
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
                if c.lattice_count(d) > 0
            ]
            assert [cubes.cube(j) for j in range(cubes.count)] == enum
            owner = cubes.field(np.arange(cubes.count))
            means = np.empty(cubes.count)
            for j, c in enumerate(enum):
                block = tuple(slice(lo, hi) for lo, hi in c.lattice_ranges(d))
                assert np.all(owner[block] == j)
                means[j] = np.sum(f[block]) * d.h**d.dim / c.volume
            assert np.array_equal(cubes.occupancy(), [c.lattice_count(d) / full for c in enum])
            np.testing.assert_allclose(cubes.means(f), means, rtol=1e-12, atol=1e-14)
            if step > 0 and any(a):
                # a shifted grid never has a cube edge on the window edge
                assert cubes.occupancy()[0] < 1.0


class TestOneThirdTrick:
    def test_random_intervals_are_covered(self, dom):
        rng = np.random.default_rng(7)
        for _ in range(50):
            lo = rng.uniform(-6, 5)
            width = rng.uniform(dom.h, 2.0)
            R = smallest_enclosing_cube(dom, [lo], [lo + width])
            assert R.corner[0] <= lo and lo + width < R.corner[0] + R.side
            assert R.volume <= 6.0 * width + 1e-12

    def test_2d_cover(self):
        d2 = Domain(2, 4, 5)
        rng = np.random.default_rng(8)
        for _ in range(20):
            lo = rng.uniform(-3, 2, size=2)
            w = rng.uniform(d2.h, 1.5)
            R = smallest_enclosing_cube(d2, lo, lo + w)
            assert R.volume <= 6.0**2 * w**2 + 1e-9


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
        g = GridFunction(dom.refine(), np.zeros(dom.refine().shape))
        with pytest.raises(ValueError):
            convolve(f, g)


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


class TestBox:
    def test_dilate_and_mask(self, dom):
        b = Box((0.0,), (1.0,))
        d = b.dilate(2.0)
        assert d.lo[0] == pytest.approx(-0.5) and d.hi[0] == pytest.approx(1.5)
        assert int(b.lattice_mask(dom).sum()) == int(round(1.0 / dom.h))
