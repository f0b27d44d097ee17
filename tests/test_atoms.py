import hashlib
import json
import math
import types
from collections import Counter

import numpy as np
import pytest

from varhardy import atoms
from varhardy.atoms import (
    Atom,
    AtomicDecomposition,
    Cube,
    Patch,
    atomic_decompose,
    cz_decompose,
    load_decomposition,
    save_decomposition,
    sequence_norm,
    synthesize,
    validate_atom,
    validate_atoms,
    whitney_decompose,
    whitney_geometry_report,
)
from varhardy.exponent import VariableExponent
from varhardy.grid import Domain, GridFunction, cube_centers, cube_lattice_ranges, quadrature
from varhardy.hardy import grand_maximal, nested_dictionaries
from varhardy.norms import lq_norm, luxemburg_norm
from varhardy.presets import exponent_preset, function_preset, weight_preset


@pytest.fixture(scope="module")
def dom():
    return Domain(1, 8, 9)


@pytest.fixture(scope="module")
def dicts(dom):
    return nested_dictionaries(2, 8, dom)


@pytest.fixture(scope="module")
def dom2():
    # the first 2-D window with Whitney cubes: the 2^{-n-6} gap needs a
    # distance of 2^{n+6} sqrt(n) h to the complement
    return Domain(2, 2, 8)


def square_level_sets(domain, levels):
    """Surrogate grand maximal function: 0.5 outside, value v on the
    square max(|x|, |y|) < r for each (r, v), nested."""
    x, y = domain.coords()
    box = np.maximum(np.abs(x), np.abs(y))
    out = np.full(domain.shape, 0.5)
    for r, v in levels:
        out[box < r] = v

    def fake(f, dic, kind):
        return GridFunction(domain, out)

    return fake


def support_counts(dec):
    """Atom count per (level, shift, kind) in 1-D; the counts sum to the atom count."""
    r = dec.rows
    return dict(Counter(zip(r.level.tolist(), r.shift[:, 0].tolist(), (atoms.KINDS[k] for k in r.kind.tolist()))))


def cube_arrays(cubes, n):
    """(level, shift, index) arrays of a list of cubes."""
    return (
        np.array([c.level for c in cubes], dtype=np.int64),
        np.array([c.shift for c in cubes], dtype=np.int64).reshape(-1, n),
        np.array([c.index for c in cubes], dtype=np.int64).reshape(-1, n),
    )


def level_set(dom, mn, lam):
    """Lattice indicator of the level set {mn > lam}."""
    return GridFunction(dom, (mn > lam).astype(float))


def windows(lo, shape, values):
    """(lo, values) of each box of a ragged buffer, in order."""
    bounds = np.concatenate([[0], np.cumsum(np.prod(shape, axis=1))]).tolist()
    return [(tuple(l), values[a:b].reshape(s)) for l, s, a, b in zip(lo.tolist(), shape.tolist(), bounds, bounds[1:])]


def add_windows(out, d, lo, shape, values):
    """Add every box of a ragged buffer into the lattice array `out`, box
    after box."""
    np.add.at(out.reshape(-1), atoms._box_points(d, lo, shape), values)


def haar_atom(dom, cube):
    """Mean-zero two-block profile on a cube, normalized in sup norm."""
    (a, b), = cube.lattice_ranges(dom)
    mid = (a + b) // 2
    arr = np.zeros(b - a)
    arr[: mid - a] = 1.0
    arr[mid - a :] = -1.0
    arr -= arr.mean()  # exact zero mean on the lattice
    return Atom(cube, dom, Patch((a,), arr), math.inf, 0, "local")


def dense(lo, arr, d):
    """Values on the box at `lo` spread over the whole lattice, zero
    outside the box."""
    out = np.zeros(d.shape)
    out[tuple(slice(a, a + k) for a, k in zip(lo, arr.shape))] = arr
    return out


def one_atom(atom):
    """A decomposition that holds the one atom, for `validate_atoms`."""
    s, arr = atom.support, atom.patch.arr
    rows = atoms._Rows(
        arr.ravel(), np.array([arr.size]), np.array([atom.patch.lo]), np.array([arr.shape]),
        np.array([s.level]), np.array([s.shift]), np.array([s.index]), np.array([atoms.KINDS.index(atom.kind)]),
        np.ones(1),
    )
    return AtomicDecomposition(atom.domain, rows, np.zeros(1, dtype=np.int64), atom.q, atom.L, 1.0)


def feed_atom(h, lam, cube, kind, box, values):
    h.update(np.float64(lam).tobytes())
    h.update(np.array(cube, dtype=np.int64).tobytes())
    h.update(kind.encode())
    h.update(np.array(box, dtype=np.int64).tobytes())
    h.update(np.ascontiguousarray(values, dtype=np.float64).tobytes())


def round_trip_digest(h, dec, p, w):
    """Feed `h` every bit of a round trip, read from the store: per atom
    lambda, support, kind, window lo, shape and values, then the level
    tags, the synthesis and the sequence norm."""
    r = dec.rows
    bounds = np.concatenate([[0], np.cumsum(r.size)]).tolist()
    for lam, k, a, m, kind, lo, shp, i, j in zip(
        r.lam.tolist(), r.level.tolist(), r.shift.tolist(), r.index.tolist(), r.kind.tolist(),
        r.lo.tolist(), r.shape.tolist(), bounds, bounds[1:],
    ):
        feed_atom(h, lam, [k, *a, *m], atoms.KINDS[kind], [*lo, *shp], r.values[i:j])
    h.update(dec.tag.astype(np.int64).tobytes())
    h.update(synthesize(dec).samples.tobytes())
    h.update(np.float64(sequence_norm(dec.lambdas, dec.cubes, p, w, dec.v)).tobytes())


def report_digest(dec, w, p):
    """SHA-256 of every `validate_atom` report of a decomposition."""
    h = hashlib.sha256()
    for a in dec.atoms:
        r = validate_atom(a, w, p)
        h.update(np.array([r.passed, *r.quantities.values()], dtype=np.float64).tobytes())
    return h.hexdigest()


def partition_of_unity(cubes, dom):
    """Partition weights of cubes given as (level, shift, index) arrays, as
    the localisation builds them (order -1: no moment projection): each
    cube's window box (lo, shape) and its weights on the box, window after
    window in cube order."""
    cov = atoms._localise(np.zeros(dom.shape), *cubes, dom, -1)
    return cov.lo, cov.shape, cov.buffer("eta")


def moment_projection(f, eta, L):
    """P in P_L with int (f - P) x^b eta = 0 for |b| <= L, on the bounding
    window of eta's support, by the localisation's own Gram solve; the
    monomials are centred on the window and scaled by its half width."""
    d = f.domain
    nz = np.nonzero(eta.samples)
    lo = tuple(int(np.min(ix)) for ix in nz)
    hi = tuple(int(np.max(ix)) + 1 for ix in nz)
    sl = tuple(slice(a, b) for a, b in zip(lo, hi))
    x = d.axis()
    center = [(x[a] + x[b - 1]) / 2.0 for a, b in zip(lo, hi)]
    scale = max(max((x[b - 1] - x[a]) / 2.0 for a, b in zip(lo, hi)), d.h)
    mono = atoms._monomials([(x[a:b] - c) / scale for a, b, c in zip(lo, hi, center)], L)
    row = eta.samples[sl].reshape(1, -1)
    fit = atoms._moment_fit(f.samples[sl].reshape(1, -1), row, mono, atoms._inverse_grams(row, mono))
    return Patch(lo, fit.reshape(eta.samples[sl].shape))


class TestValidateAtom:
    def test_indicator_is_moment_free_atom(self, dom):
        cube = Cube(2, (0,), (1,))
        (a, b), = cube.lattice_ranges(dom)
        arr = np.ones(b - a)
        atom = Atom(cube, dom, Patch((a,), arr), math.inf, -1, "local")
        w = weight_preset("power:1", dom)
        assert validate_atom(atom, w).passed

    def test_constant_unit_atom(self, dom):
        cube = Cube(0, (0,), (-3,))
        (a, b), = cube.lattice_ranges(dom)
        atom = Atom(cube, dom, Patch((a,), np.ones(b - a)), math.inf, 0, "unit")
        assert validate_atom(atom, weight_preset("power:-2", dom)).passed

    def test_haar_moments_pass(self, dom):
        atom = haar_atom(dom, Cube(3, (0,), (2,)))
        w = weight_preset("const:1", dom)
        rep = validate_atom(atom, w)
        assert rep.passed
        assert rep.q("moment_worst_rel") <= 1.0

    def test_size_violation_detected(self, dom):
        cube = Cube(2, (0,), (0,))
        (a, b), = cube.lattice_ranges(dom)
        atom = Atom(cube, dom, Patch((a,), 3.0 * np.ones(b - a)), math.inf, -1, "local")
        rep = validate_atom(atom, weight_preset("const:1", dom))
        assert not rep.passed  # sup is 3 > 1

    def test_broken_moment_detected(self, dom):
        cube = Cube(3, (0,), (2,))
        (a, b), = cube.lattice_ranges(dom)
        atom = Atom(cube, dom, Patch((a,), np.ones(b - a)), math.inf, 0, "local")
        rep = validate_atom(atom, weight_preset("const:1", dom))
        assert rep.q("moment_worst_rel") > 1.0

    def test_batched_verdicts_match(self, dom):
        # the planted atoms above, each in a store of its own
        planted = []
        for k, shift, index, scale, L in ((2, 0, 1, 1.0, -1), (2, 0, 0, 3.0, -1), (3, 0, 2, 1.0, 0)):
            cube = Cube(k, (shift,), (index,))
            (a, b), = cube.lattice_ranges(dom)
            planted.append(Atom(cube, dom, Patch((a,), scale * np.ones(b - a)), math.inf, L, "local"))
        planted.append(haar_atom(dom, Cube(3, (0,), (2,))))
        cube = Cube(3, (0,), (2,))  # a value one point outside the support
        (a, b), = cube.lattice_ranges(dom)
        arr = np.zeros(b - a + 2)
        arr[[0, -1]] = 0.5, -0.5
        planted.append(Atom(cube, dom, Patch((a - 1,), arr), math.inf, 0, "local"))
        w = weight_preset("power:1", dom)
        want = [validate_atom(atom, w).passed for atom in planted]
        assert want == [True, False, False, True, False]
        assert [bool(validate_atoms(one_atom(atom), w)[0]) for atom in planted] == want
        verdicts = []
        for q, scale in ((2.5, 1.0), (2.5, 1e3), (4.0, 1.0), (4.0, 1e3)):  # the size bound at a finite q
            atom = haar_atom(dom, Cube(3, (0,), (2,)))
            atom.q, atom.patch.arr = q, scale * atom.patch.arr / atom.patch.arr.max()
            verdicts.append(validate_atom(atom, w).passed)
            assert validate_atoms(one_atom(atom), w)[0] == verdicts[-1]
        assert verdicts == [True, False, True, False]


class TestSequenceNorms:
    def test_single_pair(self, dom):
        p = exponent_preset("lhdecay:1", dom)
        w = weight_preset("power:-0.5", dom)
        cube = Cube(1, (0,), (0,))
        chi = np.zeros(dom.shape)
        (a, b), = cube.lattice_ranges(dom)
        chi[a:b] = 1.0
        want = 2.5 * luxemburg_norm(GridFunction(dom, chi), p, w)
        assert sequence_norm([2.5], cube_arrays([cube], 1), p, w, 1.0) == pytest.approx(want, rel=1e-7)

    def test_disjoint_constant_exponent_closed_form(self, dom):
        # p = v: the modular is additive over disjoint cubes, so the norm is
        # (sum lam_j^v |Q_j|)^{1/v}
        v = 0.5
        p = VariableExponent.constant(dom, v)
        cubes = [Cube(1, (0,), (0,)), Cube(1, (0,), (4,)), Cube(2, (0,), (-8,))]
        lams = [1.0, 2.0, 0.5]
        w = weight_preset("const:1", dom)
        got = sequence_norm(lams, cube_arrays(cubes, 1), p, w, v)
        want = sum(l**v * c.volume for l, c in zip(lams, cubes)) ** (1 / v)
        assert got == pytest.approx(want, rel=1e-6)

    def test_monotone_in_lambda(self, dom):
        p = exponent_preset("sin2", dom)
        w = weight_preset("const:1", dom)
        cubes = cube_arrays([Cube(2, (0,), (0,)), Cube(2, (0,), (2,))], 1)
        a = sequence_norm([1.0, 1.0], cubes, p, w, 1.0)
        b = sequence_norm([2.0, 1.0], cubes, p, w, 1.0)
        assert b >= a

    def test_v_gate(self, dom):
        p = VariableExponent.constant(dom, 0.8)
        with pytest.raises(ValueError):
            sequence_norm([1.0], cube_arrays([Cube(1, (0,), (0,))], 1), p, None, 0.9)

    def test_one_coefficient_per_support(self, dom):
        # a surplus or a missing coefficient is an error, not a dropped term
        p = VariableExponent.constant(dom, 2.0)
        cubes = cube_arrays([Cube(2, (0,), (0,)), Cube(2, (0,), (2,))], 1)
        for lams in ([1.0, 1.0, 5.0], [1.0]):
            with pytest.raises(ValueError, match=f"{len(lams)} coefficients for 2 support cubes"):
                sequence_norm(lams, cubes, p, None, 1.0)

    def test_nan_coefficient_is_not_nonnegative(self, dom):
        p = VariableExponent.constant(dom, 2.0)
        cubes = cube_arrays([Cube(2, (0,), (0,)), Cube(2, (0,), (2,))], 1)
        with pytest.raises(ValueError, match="nonnegative"):
            sequence_norm([1.0, math.nan], cubes, p, None, 1.0)


class TestWhitney:
    def test_interval_cascade(self, dom):
        om = GridFunction.from_callable(dom, lambda x: ((x > 0) & (x < 8)).astype(float))
        cubes = whitney_decompose(om)
        assert cubes
        rep = whitney_geometry_report(om, cube_arrays(cubes, 1))
        assert rep.passed
        sides = {c.side for c in cubes}
        assert len(sides) >= 3  # dyadic cascade toward the endpoints
        # disjointness and coverage accounting
        cover = np.zeros(dom.shape, dtype=int)
        for c in cubes:
            (a, b), = c.lattice_ranges(dom)
            cover[a:b] += 1
        assert cover.max() == 1

    def test_empty_set(self, dom):
        om = GridFunction(dom, np.zeros(dom.shape))
        assert whitney_decompose(om) == []

    def test_full_window_rejected(self, dom):
        om = GridFunction(dom, np.ones(dom.shape))
        with pytest.raises(ValueError, match="exterior"):
            whitney_decompose(om)

    def test_overlap_count_stable(self):
        counts = []
        for m in (9, 10):
            d = Domain(1, 8, m)
            om = GridFunction.from_callable(d, lambda x: ((x > -3) & (x < 5)).astype(float))
            cubes = cube_arrays(whitney_decompose(om), 1)
            counts.append(whitney_geometry_report(om, cubes).q("max_dilated_overlap"))
        assert counts[0] == counts[1]

    @pytest.mark.parametrize(
        "d, wide",
        [(Domain(1, 8, 9), False), (Domain(1, 4096, 12), True), (Domain(2, 2, 8), False), (Domain(2, 64, 12), True)],
        ids=["n1", "n1-wide", "n2", "n2-wide"],
    )
    def test_dilated_windows_match_float_dilation(self, d, wide):
        # the float reference is a box [corner, corner + side) dilated about
        # its center by 1 + 2^{-n-10}, each end rounded up to the lattice;
        # the wide windows hold sides of 2^{n+11} h and more inside the
        # window, where the dilation grows a window by whole lattice steps
        rng = np.random.default_rng(d.dim * d.level)
        h, m0, n = d.h, d.half_npts, d.dim
        grown = 0
        for _ in range(1000):
            k = int(rng.integers(d.min_cube_level(), d.level + 1))
            side = 2.0**-k
            a = rng.integers(0, 3, size=n).tolist()
            reach = math.ceil(d.half_width / side) + 1
            q = rng.integers(-reach - 1, reach + 1, size=n).tolist()
            corner = np.array([side * (m + s / 3.0) for m, s in zip(q, a)])
            c = (corner + (corner + side)) / 2
            r = side / 2 * (1.0 + 2.0 ** (-n - 10))
            for lo, hi, s, m in zip(c - r, c + r, a, q):
                want = [min(max(int(math.ceil(v / h)) + m0, 0), d.npts) for v in (lo, hi)]
                assert [int(v) for v in atoms._dilated_ranges(d, k, s, m)] == want
                start, stop = cube_lattice_ranges(d, k, s, m)
                grown += 0 < want[0] < start - 1 and stop + 1 < want[1] < d.npts
        assert bool(grown) == wide

    def test_2d_geometry(self):
        # the gap constant needs dist >= 2^{n+6} sqrt(n) h before any cube
        # qualifies, so the two dimensional check runs on a finer grid
        d2 = Domain(2, 4, 8)
        om = GridFunction.from_callable(
            d2, lambda x, y: ((np.maximum(np.abs(x), np.abs(y)) < 1.6)).astype(float)
        )
        cubes = whitney_decompose(om)
        assert cubes
        assert whitney_geometry_report(om, cube_arrays(cubes, 2)).passed


class TestPartition:
    def test_sums_to_one_inside(self, dom):
        om = GridFunction.from_callable(dom, lambda x: ((x > 0) & (x < 6)).astype(float))
        cubes = whitney_decompose(om)
        total = np.zeros(dom.shape)
        add_windows(total, dom, *partition_of_unity(cube_arrays(cubes, 1), dom))
        x = dom.axis()
        deep = (x > 1.0) & (x < 5.0)
        assert np.max(np.abs(total[deep] - 1.0)) <= 1e-10
        assert np.min(total) >= 0.0 and np.max(total) <= 1.0 + 1e-12

    def test_support_containment(self, dom):
        om = GridFunction.from_callable(dom, lambda x: ((x > 0) & (x < 6)).astype(float))
        cubes = whitney_decompose(om)
        etas = windows(*partition_of_unity(cube_arrays(cubes, 1), dom))
        for c, (lo, e) in zip(cubes[:50], etas[:50]):
            # one lattice cell slack: the dilation is sub-lattice
            (a, b), = c.lattice_ranges(dom)
            mask = np.ones(dom.shape, bool)
            mask[max(a - 1, 0) : b + 1] = False
            assert np.all(dense(lo, e, dom)[mask] == 0.0)


class TestMomentProjection:
    def test_polynomial_fixed_point(self, dom):
        eta = GridFunction.from_callable(
            dom, lambda x: np.clip(1 - np.abs(x - 1), 0, 1)
        )
        f = GridFunction.from_callable(dom, lambda x: 2.0 + 3.0 * (x - 1.0))
        proj = moment_projection(f, eta, 1)
        vals = dense(proj.lo, proj.arr, dom)
        sup_region = eta.samples > 0
        assert np.max(np.abs(vals[sup_region] - f.samples[sup_region])) <= 1e-8

    def test_order_zero_is_weighted_mean(self, dom):
        eta = GridFunction.from_callable(dom, lambda x: ((x >= 0) & (x < 1)).astype(float))
        rng = np.random.default_rng(3)
        f = GridFunction(dom, rng.normal(size=dom.shape))
        proj = moment_projection(f, eta, 0)
        want = quadrature(f * eta) / quadrature(eta)
        assert proj.arr == pytest.approx(np.full(proj.arr.shape, want), rel=1e-10)

    def test_residual_moments_vanish(self, dom):
        eta = GridFunction.from_callable(
            dom, lambda x: np.clip(2 - np.abs(x), 0, 1)
        )
        rng = np.random.default_rng(4)
        f = GridFunction(dom, rng.normal(size=dom.shape))
        proj = moment_projection(f, eta, 2)
        pv = dense(proj.lo, proj.arr, dom)
        x = dom.axis()
        for beta in range(3):
            resid = quadrature(GridFunction(dom, (f.samples - pv) * x**beta * eta.samples))
            assert abs(resid) <= 1e-8 * max(1.0, lq_norm(f, 2.0))


class TestCZ:
    def test_empty_and_full_level_sets(self, dom):
        # an empty set has no cubes, and f is its own good part; a set that
        # fills the window has no exterior
        f = function_preset("bump:0,1", dom)
        good, cubes, (_, _, bad) = cz_decompose(f, GridFunction(dom, np.zeros(dom.shape)), 1)
        assert cubes[0].size == bad.size == 0 and np.array_equal(good.samples, f.samples)
        with pytest.raises(ValueError, match="no exterior"):
            cz_decompose(f, GridFunction(dom, np.ones(dom.shape)), 1)

    def test_threshold_above_max(self, dom, dicts):
        _, large = dicts
        f = function_preset("bump:0,1", dom)
        mn = grand_maximal(f, large, "MN")
        good, cubes, (_, _, bad) = cz_decompose(f, level_set(dom, mn.samples, 2.0 * mn.sup()), 1)
        assert cubes[0].size == bad.size == 0
        assert np.array_equal(good.samples, f.samples)

    def test_exact_reconstruction(self, dom, dicts):
        _, large = dicts
        rng = np.random.default_rng(11)
        for _ in range(3):
            c, s = rng.uniform(-2, 2), rng.uniform(0.5, 1.5)
            f = function_preset(f"bump:{c:.3f},{s:.3f}", dom)
            mn = grand_maximal(f, large, "MN").samples
            lam = float(np.median(mn[mn > 0]))
            good, _, bad = cz_decompose(f, level_set(dom, mn, lam), 1)
            recon = good.samples.copy()
            add_windows(recon, dom, *bad)
            assert np.max(np.abs(recon - f.samples)) <= 1e-10 * f.sup()

    def test_good_part_bound_recorded(self, dom, dicts):
        _, large = dicts
        consts = []
        rng = np.random.default_rng(12)
        for _ in range(3):
            f = function_preset(f"bump:{rng.uniform(-1,1):.2f},1", dom)
            mn = grand_maximal(f, large, "MN").samples
            lam = float(np.median(mn[mn > 0]))
            good, _, _ = cz_decompose(f, level_set(dom, mn, lam), 1)
            consts.append(good.sup() / lam)
        assert max(consts) < 100.0  # finite recorded constant

    def test_bad_parts_have_vanishing_moments(self, dom, dicts):
        _, large = dicts
        f = function_preset("bump:0.5,1.2", dom)
        mn = grand_maximal(f, large, "MN").samples
        lam = float(np.median(mn[mn > 0]))
        _, (level, shift, index), bad = cz_decompose(f, level_set(dom, mn, lam), 1)
        centers = cube_centers(level, shift[:, 0], index[:, 0])
        x = dom.axis()
        checked = 0
        for center, (lo, b) in zip(centers[:40], windows(*bad)[:40]):
            b = dense(lo, b, dom)
            for beta in range(2):
                mono = (x - center) ** beta
                resid = quadrature(GridFunction(dom, b * mono))
                scale = dom.h * float(np.sum(np.abs(b))) + 1e-300
                assert abs(resid) <= 1e-7 * scale + 1e-14
            checked += 1
        assert checked

    def test_patches_follow_cube_order(self, dom, dicts):
        # each bad part lies on its own cube's window: the cube's lattice
        # range grown by one point a side, clipped to the lattice
        _, large = dicts
        f = function_preset("bump:0.5,1.2", dom)
        mn = grand_maximal(f, large, "MN").samples
        _, cubes, (lo, _, _) = cz_decompose(f, level_set(dom, mn, float(np.median(mn[mn > 0]))), 1)
        cubes = tuple(c[::-1] for c in cubes)  # finest first, against the level order of the groups
        starts = [max(a - 1, 0) for a in cube_lattice_ranges(dom, cubes[0], cubes[1][:, 0], cubes[2][:, 0])[0].tolist()]
        assert len(set(cubes[0].tolist())) > 1
        assert lo[::-1, 0].tolist() == starts
        assert partition_of_unity(cubes, dom)[0][:, 0].tolist() == starts

    def test_2d_square_split(self, dom2):
        mn = square_level_sets(dom2, [(1.6, 1.0)])(None, None, "MN").samples
        x, y = dom2.coords()
        f = GridFunction(dom2, np.exp(-(x**2 + y**2)) * (1.0 + x * y))
        good, (level, shift, index), bad = cz_decompose(f, level_set(dom2, mn, 0.75), 1)
        assert len(level) > 1000
        recon = good.samples.copy()
        add_windows(recon, dom2, *bad)
        assert np.max(np.abs(recon - f.samples)) <= 1e-10 * f.sup()
        axis = dom2.axis()
        hn = dom2.h**2
        for center, (lo, b) in zip(cube_centers(level[:, None], shift, index), windows(*bad)):
            u, v = (axis[a : a + k] - c for a, k, c in zip(lo, b.shape, center))
            scale = hn * float(np.sum(np.abs(b))) + 1e-300
            for a, c in ((0, 0), (1, 0), (0, 1)):
                resid = hn * float(np.sum(b * (u**a)[:, None] * (v**c)[None, :]))
                assert abs(resid) <= 1e-7 * scale + 1e-14


@pytest.fixture(scope="module")
def setup(dom, dicts):
    _, large = dicts
    p = VariableExponent.constant(dom, 2.0)
    w = weight_preset("const:1", dom)
    f = function_preset("bump:0.5,1.2", dom)
    dec = atomic_decompose(f, p, w, large, L=1)
    return p, w, f, dec, large


class TestAtomicDecompose:

    def test_zero_function(self, dom, dicts):
        _, large = dicts
        p = VariableExponent.constant(dom, 2.0)
        w = weight_preset("const:1", dom)
        dec = atomic_decompose(GridFunction(dom, np.zeros(dom.shape)), p, w, large, L=1)
        assert dec.atoms == []
        assert synthesize(dec).sup() == 0.0

    def test_round_trip_exact(self, setup):
        p, w, f, dec, _ = setup
        out = synthesize(dec)
        assert lq_norm(out - f, 2.0) / lq_norm(f, 2.0) <= 1e-10

    def test_all_atoms_validate(self, setup):
        p, w, f, dec, _ = setup
        for atom in dec.atoms:
            assert validate_atom(atom, w, p).passed

    def test_sequence_norm_finite_and_comparable(self, setup, dom, dicts):
        from varhardy.hardy import hardy_norm

        p, w, f, dec, large = setup
        ratio = sequence_norm(dec.lambdas, dec.cubes, p, w, dec.v) / hardy_norm(f, p, w, large)
        assert 0.25 <= ratio <= 10.0

    def test_lambda_levels_tagged_and_bounded(self, setup):
        # with tight normalization absorbed into the coefficient, lambda at
        # threshold level j is bounded by a fixed multiple of 2^j times the
        # good-part constant, but can be much smaller (local oscillation)
        p, w, f, dec, _ = setup
        assert len(dec.tag) == len(dec.lambdas)
        worst = max(
            lam / 2.0**tag for lam, tag in zip(dec.lambdas.tolist(), dec.tag.tolist())
        )
        assert worst < 1e3

    def test_admissibility_gates(self, dom, dicts, setup):
        _, large = dicts
        p, w, f, dec, _ = setup
        with pytest.raises(ValueError, match="admissibility"):
            atomic_decompose(f, p, w, large, q=1.5, L=1)  # q <= max(q_w, p_plus)
        with pytest.raises(ValueError, match="admissibility"):
            atomic_decompose(f, p, w, large, v=3.0)
        with pytest.raises(ValueError, match="admissibility"):
            atomic_decompose(f, p, w, large, L=-1, v=1.0)  # L below the floor

    def test_self_decomposition_of_atom(self, dom, dicts):
        _, large = dicts
        p = VariableExponent.constant(dom, 2.0)
        w = weight_preset("const:1", dom)
        atom = haar_atom(dom, Cube(3, (0,), (2,)))
        f = GridFunction(dom, dense(atom.patch.lo, atom.patch.arr, dom))
        dec = atomic_decompose(f, p, w, large, L=0)
        out = synthesize(dec)
        assert lq_norm(out - f, 2.0) <= 1e-10 * lq_norm(f, 2.0)
        chi = GridFunction.from_callable(
            dom, lambda x: ((x >= 0.25) & (x < 0.375)).astype(float)
        )
        bound = luxemburg_norm(chi, p, w)
        a_norm = sequence_norm(dec.lambdas, dec.cubes, p, w, dec.v)
        assert a_norm / bound < 100.0


    def test_constant_function_round_trips(self):
        # M_N f stays above its lowest dyadic threshold on the whole window;
        # the thresholds start at the first level set with an exterior
        d = Domain(1, 8, 7)
        _, large = nested_dictionaries(2, 8, d)
        p = VariableExponent.constant(d, 2.0)
        w = weight_preset("const:1", d)
        f = GridFunction(d, np.ones(d.shape))
        dec = atomic_decompose(f, p, w, large, L=1)
        assert lq_norm(synthesize(dec) - f, 2.0) <= 1e-10 * lq_norm(f, 2.0)
        for atom in dec.atoms:
            assert validate_atom(atom, w, p).passed

    # f does not vanish around the cover, so pieces carry the rounding of
    # f - P; every kept atom must still pass the moment check
    NONVANISHING = {
        "1+exp(-x^2)": lambda x: 1 + np.exp(-(x**2)),
        "exp(-(x/4)^2)": lambda x: np.exp(-((x / 4) ** 2)),
        "2+sin(x)exp(-x^2/8)": lambda x: 2 + np.sin(x) * np.exp(-(x**2) / 8),
    }

    @pytest.mark.parametrize("m", [7, 8, 9])
    @pytest.mark.parametrize("name", sorted(NONVANISHING))
    def test_atoms_above_rounding_validate(self, m, name):
        d = Domain(1, 8, m)
        _, large = nested_dictionaries(2, 8, d)
        p = VariableExponent.constant(d, 2.0)
        w = weight_preset("const:1", d)
        f = GridFunction.from_callable(d, self.NONVANISHING[name])
        dec = atomic_decompose(f, p, w, large, L=1)
        assert dec.atoms
        assert [a for a in dec.atoms if not validate_atom(a, w, p).passed] == []
        assert np.max(np.abs(synthesize(dec).samples - f.samples)) <= 1e-12 * f.sup()

    # recorded before the grouped localisation replaced the per-cube paths
    PINNED = {
        ("bump:-0.7,0.9,1.3", 0): (8.919438433000119, 0.02742187048935259, 1.299837368267868, 0.9947618073279059),
        ("bump:-0.7,0.9,1.3", 1): (8.919438433000119, 0.02742187048935259, 1.299837368267868, 1.199820310446864),
        ("bump:0.4,0.5,0.8", 0): (5.611096977115798, 0.025046968222395223, 0.7994253152159401, 0.8020264895396927),
        ("bump:0.4,0.5,0.8", 1): (5.611096977115798, 0.025046968222395223, 0.7994253152159401, 0.9704012232495292),
    }

    @pytest.mark.parametrize("spec,pair", sorted(PINNED))
    def test_pinned_values(self, spec, pair):
        d = Domain(1, 8, 7)
        _, large = nested_dictionaries(2, 8, d)
        p, w = [
            (VariableExponent.constant(d, 2.0), weight_preset("const:1", d)),
            (exponent_preset("lhdecay:1", d), weight_preset("power:1", d)),
        ][pair]
        dec = atomic_decompose(function_preset(spec, d), p, w, large)
        # the level-pair atoms, then the good part's unit atoms, whose
        # largest coefficient at q = inf is sup|g|
        local = dec.rows.kind == atoms.KINDS.index("local")
        lam = dec.lambdas
        got = (
            sum(lam[local]),
            max(lam[local]),
            max(lam[~local]),
            sequence_norm(lam[local], [c[local] for c in dec.cubes], p, w, dec.v),
        )
        assert got == pytest.approx(self.PINNED[(spec, pair)], rel=1e-9)
        assert support_counts(dec) == self.SUPPORTS[spec]

    # atoms per (level, shift, kind), recorded before the Whitney covers and
    # the support search became integer arrays, with the good part's unit
    # atoms added when they replaced its window-sized atom; q = inf, so both
    # (p, w) pairs give the same supports
    SUPPORTS = {
        "bump:-0.7,0.9,1.3": {
            (2, 0, "local"): 65, (2, 1, "local"): 66, (3, 0, "local"): 218, (3, 1, "local"): 182,
            (3, 2, "local"): 146, (4, 0, "local"): 102, (4, 1, "local"): 89, (4, 2, "local"): 82,
            (5, 0, "local"): 29, (5, 1, "local"): 28, (5, 2, "local"): 2, (6, 0, "local"): 57,
            (6, 1, "local"): 57, (0, 0, "unit"): 3,
        },
        "bump:0.4,0.5,0.8": {
            (2, 0, "local"): 37, (2, 1, "local"): 37, (3, 0, "local"): 112, (3, 1, "local"): 105,
            (3, 2, "local"): 74, (4, 0, "local"): 70, (4, 1, "local"): 42, (4, 2, "local"): 43,
            (5, 1, "local"): 5, (6, 0, "local"): 64, (6, 1, "local"): 63, (0, 0, "unit"): 2,
        },
        # benchmark-style round trips at m = 9, one per (p, w) pair
        ("bump:0.3,0.5,1.4", 0): {
            (2, 0, "local"): 36, (2, 1, "local"): 37, (3, 0, "local"): 112, (3, 1, "local"): 97,
            (3, 2, "local"): 81, (4, 0, "local"): 61, (4, 1, "local"): 64, (4, 2, "local"): 45,
            (5, 0, "local"): 32, (5, 1, "local"): 19, (5, 2, "local"): 16, (6, 0, "local"): 18,
            (6, 1, "local"): 43, (6, 2, "local"): 40, (7, 0, "local"): 44, (7, 1, "local"): 44,
            (7, 2, "local"): 1, (8, 0, "local"): 164, (8, 1, "local"): 165, (0, 0, "unit"): 2,
        },
        ("bump:-0.8,0.9,0.7", 1): {
            (2, 0, "local"): 74, (2, 1, "local"): 65, (3, 0, "local"): 203, (3, 1, "local"): 191,
            (3, 2, "local"): 148, (4, 0, "local"): 105, (4, 1, "local"): 88, (4, 2, "local"): 88,
            (5, 0, "local"): 10, (5, 1, "local"): 38, (5, 2, "local"): 37, (6, 0, "local"): 8,
            (6, 1, "local"): 40, (6, 2, "local"): 32, (7, 0, "local"): 147, (7, 1, "local"): 146,
            (8, 0, "local"): 128, (8, 1, "local"): 129, (0, 0, "unit"): 3,
        },
    }

    @pytest.mark.parametrize("spec,pair", [("bump:0.3,0.5,1.4", 0), ("bump:-0.8,0.9,0.7", 1)])
    def test_pinned_supports_at_m9(self, dom, dicts, spec, pair):
        _, large = dicts
        p, w = [
            (VariableExponent.constant(dom, 2.0), weight_preset("const:1", dom)),
            (exponent_preset("lhdecay:1", dom), weight_preset("power:1", dom)),
        ][pair]
        dec = atomic_decompose(function_preset(spec, dom), p, w, large)
        assert support_counts(dec) == self.SUPPORTS[(spec, pair)]

    def test_2d_round_trip(self, dom2, monkeypatch):
        monkeypatch.setattr(
            atoms, "grand_maximal", square_level_sets(dom2, [(1.45, 4.0), (1.44, 2.0), (1.43, 1.0)])
        )
        monkeypatch.setattr(atoms, "q_w_estimate", lambda w: 1.0)  # exact for const:1
        x, y = dom2.coords()
        f = GridFunction(dom2, np.exp(-(x**2 + y**2)) * (1.0 + x * y))
        p = VariableExponent.constant(dom2, 2.0)
        w = weight_preset("const:1", dom2)
        dec = atomic_decompose(f, p, w, types.SimpleNamespace(order=2), L=1)
        assert any(a.kind == "local" for a in dec.atoms)
        out = synthesize(dec)
        assert np.max(np.abs(out.samples - f.samples)) <= 1e-10 * f.sup()
        for atom in dec.atoms:
            assert validate_atom(atom, w, p).passed

    def test_atomic_norm_is_translation_invariant(self):
        # w(x + c) = e^c w(x) and p = 2, so every translate of a bump has
        # the same atomic norm over its L^2_w norm
        d = Domain(1, 16, 9)
        large = nested_dictionaries(2, 8, d)[1]
        p, w = exponent_preset("const:2", d), weight_preset("exp:1", d)
        ratios = []
        for c in (-6, -3, 0, 3, 6):
            f = function_preset(f"bump:{c},0.5", d)
            dec = atomic_decompose(f, p, w, large)
            ratios.append(sequence_norm(dec.lambdas, dec.cubes, p, w, dec.v) / luxemburg_norm(f, p, w))
        assert max(ratios) / min(ratios) <= 1.0 + 1e-12

    def test_2d_window_of_e7_decomposes_into_unit_atoms(self):
        # no Whitney cube fits this window, so the good part is all of f:
        # its unit atoms are the rows that E7's 2-D cases check
        d = Domain(2, 2, 5)
        large = nested_dictionaries(2, 8, d, 42, 4.0)[1]
        p, w = VariableExponent.constant(d, 2.0), weight_preset("const:1", d)
        dec = atomic_decompose(function_preset("bump:0.3,0.6", d), p, w, large, L=1)
        assert len(dec.lambdas) > 0
        assert all(atoms.KINDS[k] == "unit" for k in dec.rows.kind.tolist())
        assert validate_atoms(dec, w).all()

    def test_good_part_of_a_narrow_window_is_cut(self):
        # at T = 1/4 a cube of side 4T is a unit cube: the good part's row
        # must still be cut into unit pieces
        d = Domain(1, 0.25, 6)
        p, w = VariableExponent.constant(d, 2.0), weight_preset("const:1", d)
        f = function_preset("bump:0,0.1", d)
        dec = atomic_decompose(f, p, w, nested_dictionaries(2, 8, d)[1])
        assert dec.rows.level.tolist() == [0, 0] and dec.rows.index[:, 0].tolist() == [-1, 0]
        assert validate_atoms(dec, w).all()
        assert np.array_equal(synthesize(dec).samples, f.samples)


def criterion_10_family(domain):
    """The 20 bumps of acceptance criterion 10 (seed 110)."""
    rng = np.random.default_rng(110)
    out = []
    for _ in range(20):
        c, s, a = rng.uniform(-1.5, 1.5), rng.uniform(0.25, 1.2), rng.uniform(0.5, 2.0)
        out.append(function_preset(f"bump:{c:.6f},{s:.6f},{a:.6f}", domain))
    return out


class TestBitwisePins:
    """SHA-256 of every bit of the round trips (`round_trip_digest`;
    criterion 10 feeds its 20 decompositions per pair into one digest), and
    of every `validate_atom` report.  Re-pinned when the good part's
    window-sized atom became unit rows after the level-pair rows; every
    level-pair row kept its bits, from before atoms were stored as one
    ragged buffer.  The batched `validate_atoms` must give each atom
    `validate_atom`'s verdict."""

    ROUND_TRIPS = {
        "m9-0": "ae904eabaf631621e21f7043d1b3d1aead8f7f551d63e26737f18212702fd2d2",
        "m9-1": "a01444aec291badce8fb99b447dfca683560d4ca75f13e1702b91daf0b1a9fff",
        "criterion-10-0": "ccc9813497acf90273ef2b2cf0e487bfb659e1b092cfdb4941d71b9e26d3dc13",
        "criterion-10-1": "48132849b959641db39bea8d990bf228e6df8f24e1c6266d3de2ce241aa6e663",
        "2d": "e4cae190f2d5cefef617cf2ba1ff9f433a08bf033be5a8563081b0cfc5e2897d",
        "q4-split": "79e2fa16e7d11801a8264407b45f903b510775214224e50a0b5e1d5f66c9affb",
    }
    REPORTS = {
        "m9-0": "0f5a4eb04738f3a3cf22b262db846f8e180d1bcea053f3bc744ebc078802ec9b",
        "m9-1": "11bdff51911741e54c4eef466584f47cc5fee52bee7c70028848dccac08968fa",
        "2d": "4ea9124f16184ad00e5047c84007f441b57f5f9cdaaebfa2ef34d34486d2bd0d",
        "q4-split": "d68030fb38a28e6eb1424c152eb5ad98be705f7f4181d8b2e4eea543112f6ff4",
    }

    @staticmethod
    def pair(dom, i):
        return [
            (VariableExponent.constant(dom, 2.0), weight_preset("const:1", dom)),
            (exponent_preset("lhdecay:1", dom), weight_preset("power:1", dom)),
        ][i]

    @staticmethod
    def check_verdicts(dec, w, p):
        assert validate_atoms(dec, w).tolist() == [validate_atom(a, w, p).passed for a in dec.atoms]

    @pytest.mark.parametrize("spec,i", [("bump:0.3,0.5,1.4", 0), ("bump:-0.8,0.9,0.7", 1)])
    def test_m9(self, dom, dicts, spec, i, monkeypatch):
        # a few thousand pairs per level pair and atoms per decomposition:
        # small blocks of pairs and of atoms give the same bits as one block
        monkeypatch.setattr(atoms, "CORRECTION_BLOCK", 97)
        monkeypatch.setattr(atoms, "ATOM_BLOCK", 5)
        p, w = self.pair(dom, i)
        dec = atomic_decompose(function_preset(spec, dom), p, w, dicts[1])
        h = hashlib.sha256()
        round_trip_digest(h, dec, p, w)
        assert h.hexdigest() == self.ROUND_TRIPS[f"m9-{i}"]
        assert report_digest(dec, w, p) == self.REPORTS[f"m9-{i}"]
        self.check_verdicts(dec, w, p)

    @pytest.mark.parametrize("i", [0, 1])
    def test_criterion_10(self, dom, dicts, i):
        p, w = self.pair(dom, i)
        h = hashlib.sha256()
        for f in criterion_10_family(dom):
            dec = atomic_decompose(f, p, w, dicts[1])
            round_trip_digest(h, dec, p, w)
            self.check_verdicts(dec, w, p)
        assert h.hexdigest() == self.ROUND_TRIPS[f"criterion-10-{i}"]

    def test_finite_q_with_unit_split(self, monkeypatch):
        # q = 4 under a nonconstant weight, on a window wide enough for
        # Whitney cubes of unit side: some kept boxes need a support larger
        # than a unit cube and are cut into unit pieces
        d = Domain(1, 64, 4)
        p, w = self.pair(d, 1)
        find, coarsest = atoms.smallest_enclosing_cubes, []

        def spy(*args):
            out = find(*args)
            coarsest.append(int(out[0].min(initial=0)))
            return out

        monkeypatch.setattr(atoms, "smallest_enclosing_cubes", spy)
        dec = atomic_decompose(function_preset("bump:0,40", d), p, w, nested_dictionaries(2, 8, d)[1], q=4.0)
        assert min(coarsest) < 0 and dec.q == 4.0
        h = hashlib.sha256()
        round_trip_digest(h, dec, p, w)
        assert h.hexdigest() == self.ROUND_TRIPS["q4-split"]
        assert report_digest(dec, w, p) == self.REPORTS["q4-split"]
        self.check_verdicts(dec, w, p)

    def test_2d(self, dom2, monkeypatch):
        monkeypatch.setattr(
            atoms, "grand_maximal", square_level_sets(dom2, [(1.45, 4.0), (1.44, 2.0), (1.43, 1.0)])
        )
        monkeypatch.setattr(atoms, "q_w_estimate", lambda w: 1.0)  # exact for const:1
        x, y = dom2.coords()
        f = GridFunction(dom2, np.exp(-(x**2 + y**2)) * (1.0 + x * y))
        p = VariableExponent.constant(dom2, 2.0)
        w = weight_preset("const:1", dom2)
        dec = atomic_decompose(f, p, w, types.SimpleNamespace(order=2), L=1)
        h = hashlib.sha256()
        round_trip_digest(h, dec, p, w)
        assert h.hexdigest() == self.ROUND_TRIPS["2d"]
        assert report_digest(dec, w, p) == self.REPORTS["2d"]
        self.check_verdicts(dec, w, p)


def owner_pieces(d, cube, arr, w):
    """(lambda, atom view) of the `_owner_atoms` rows of one kept box that
    holds `arr` on the lattice box of `cube`, which must come out as the
    box's support."""
    lo = np.array([[a for a, _ in cube.lattice_ranges(d)]])
    shape = np.array([arr.shape])
    point = atoms._box_points(d, lo, shape)
    top = atoms.smallest_enclosing_cubes(d, lo - d.half_npts, lo + shape - 1 - d.half_npts)
    assert [int(top[0][0]), tuple(top[1][0].tolist()), tuple(top[2][0].tolist())] == [cube.level, cube.shift, cube.index]
    rows = atoms._owner_atoms(arr.ravel(), point, lo, shape, np.ones(1, dtype=bool), d, math.inf, w)
    return list(zip(rows.lam.tolist(), rows.atoms(d, math.inf, -1)))


class TestUnitSplit:
    def test_oversized_atom_splits_into_unit_pieces(self, dom):
        cube = Cube(-2, (0,), (0,))  # side 4
        (a, b), = cube.lattice_ranges(dom)
        arr = np.ones(b - a) * 0.5
        w = weight_preset("const:1", dom)
        pieces = owner_pieces(dom, cube, 2.0 * arr, w)
        assert len(pieces) == 4
        for lam, piece in pieces:
            assert piece.support.volume == 1.0
            assert validate_atom(piece, w).passed
        total = np.zeros(dom.shape)
        for lam, piece in pieces:
            total += lam * dense(piece.patch.lo, piece.patch.arr, dom)
        assert np.max(np.abs(total[a:b] - 1.0)) <= 1e-12

    def test_shifted_atom_splits_where_its_values_are(self, dom):
        cube = Cube(-2, (1,), (0,))  # side 4 from 4/3: meets the unit cubes 1 .. 5
        (a, b), = cube.lattice_ranges(dom)
        arr = np.linspace(1.0, 2.0, b - a)
        w = weight_preset("const:1", dom)
        pieces = owner_pieces(dom, cube, arr, w)
        assert [piece.support.index for _, piece in pieces] == [(i,) for i in range(1, 6)]
        total = np.zeros(dom.shape)
        for lam, piece in pieces:
            assert validate_atom(piece, w).passed
            total += lam * dense(piece.patch.lo, piece.patch.arr, dom)
        assert np.max(np.abs(total[a:b] - arr)) <= 1e-12 and not np.any(total[:a]) and not np.any(total[b:])

    def test_oversized_owner_box_is_cut_into_unit_pieces(self):
        # a kept box of the level-pair buffer whose support is wider than a
        # unit cube becomes unit pieces, in place, between the other atoms
        d = Domain(1, 8, 6)
        lo = np.array([[40], [200], [400]])
        shape = np.array([[10], [150], [12]])
        summed = np.random.default_rng(7).normal(size=int(shape.sum()))
        point = atoms._box_points(d, lo, shape)
        rows = atoms._owner_atoms(summed, point, lo, shape, np.ones(3, dtype=bool), d, math.inf, None)
        pieces = rows.atoms(d, math.inf, 0)
        # the middle box spans 150 h = 2.3 units: three unit cubes
        assert [a.kind for a in pieces] == ["local"] + ["unit"] * 3 + ["local"]
        assert all(a.support.volume == 1.0 for a in pieces[1:-1])
        total = np.zeros(d.shape)
        for lam, a in zip(rows.lam, pieces):
            total += lam * dense(a.patch.lo, a.patch.arr, d)
        np.testing.assert_allclose(total[point], summed, rtol=1e-15, atol=0)

    def test_2d_atom_splits_into_four(self):
        d = Domain(2, 4, 4)
        cube = Cube(-1, (0, 0), (0, 0))  # side 2
        sl = tuple(slice(a, b) for a, b in cube.lattice_ranges(d))
        x, y = d.coords()
        arr = (0.5 + 0.25 * np.sin(3 * x) * np.cos(2 * y))[sl]
        w = weight_preset("const:1", d)
        pieces = owner_pieces(d, cube, arr, w)
        assert len(pieces) == 4
        total = np.zeros(d.shape)
        for piece_lam, piece in pieces:
            assert piece.support.volume == 1.0
            assert validate_atom(piece, w).passed
            total += piece_lam * dense(piece.patch.lo, piece.patch.arr, d)
        assert np.max(np.abs(total[sl] - arr)) <= 1e-12
        outside = np.ones(d.shape, dtype=bool)
        outside[sl] = False
        assert not np.any(total[outside])


class TestSerialization:
    def test_round_trip(self, tmp_path, dom, dicts):
        _, large = dicts
        p = VariableExponent.constant(dom, 2.0)
        w = weight_preset("const:1", dom)
        f = function_preset("bump:0,0.8", dom)
        dec = atomic_decompose(f, p, w, large, L=1)
        path = tmp_path / "dec.json"
        save_decomposition(dec, path)
        assert path.exists() and path.with_suffix(".bin").exists()
        back = load_decomposition(path)
        assert len(back.atoms) == len(dec.atoms)
        assert back.lambdas == pytest.approx(dec.lambdas)
        assert (back.q, back.L, back.v) == (dec.q, dec.L, dec.v)
        assert np.array_equal(back.tag, dec.tag)
        a = synthesize(dec)
        b = synthesize(back)
        assert np.max(np.abs(a.samples - b.samples)) <= 1e-12
        # both files byte for byte, pinned when the good part became unit
        # rows; the level-pair entries are as written before the ragged store
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "cd0e35be653fb9cf4c1edc784a11f12e135c466e8bd5168ec32be2eb528da44a"
        )
        assert hashlib.sha256(path.with_suffix(".bin").read_bytes()).hexdigest() == (
            "bb84f57c4d343d91678f072c1c1559d2aaa3f1e952ab37829447afe2057b0c2d"
        )
        assert np.array_equal(b.samples, a.samples) and np.array_equal(back.lambdas, dec.lambdas)

    def test_empty_round_trip(self, tmp_path, dom, dicts):
        _, large = dicts
        p = VariableExponent.constant(dom, 2.0)
        w = weight_preset("const:1", dom)
        zero = GridFunction(dom, np.zeros(dom.shape))
        dec = atomic_decompose(zero, p, w, large, q=4.0, L=2)
        assert dec.atoms == []
        path = tmp_path / "empty.json"
        save_decomposition(dec, path)
        assert path.with_suffix(".bin").read_bytes() == b""
        back = load_decomposition(path)
        assert back.atoms == []
        assert synthesize(back).sup() == 0.0
        assert (back.q, back.L, back.v, back.tag.tolist()) == (4.0, 2, dec.v, [])

    def test_unknown_kind_is_named(self, tmp_path, dom, dicts):
        # files written while the good part was one window-sized atom end
        # with an entry of kind "single"
        p = VariableExponent.constant(dom, 2.0)
        w = weight_preset("const:1", dom)
        dec = atomic_decompose(function_preset("bump:0,0.8", dom), p, w, dicts[1], L=1)
        path = tmp_path / "old.json"
        save_decomposition(dec, path)
        doc = json.loads(path.read_text())
        doc["atoms"].append({**doc["atoms"][-1], "kind": "single"})
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="unknown atom kind 'single'"):
            load_decomposition(path)
