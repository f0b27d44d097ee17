import math
import types

import numpy as np
import pytest

from varhardy import atoms
from varhardy.atoms import (
    Atom,
    Patch,
    atomic_decompose,
    bad_part_majorant_check,
    cz_decompose,
    load_decomposition,
    moment_projection,
    partition_of_unity,
    save_decomposition,
    sequence_norm,
    sequence_norm_dagger,
    synthesize,
    validate_atom,
    whitney_decompose,
    whitney_geometry_report,
    _split_unit_pieces,
)
from varhardy.exponent import VariableExponent
from varhardy.grid import Cube, Domain, GridFunction, quadrature
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


def haar_atom(dom, cube):
    """Mean-zero two-block profile on a cube, normalized in sup norm."""
    (a, b), = cube.lattice_ranges(dom)
    mid = (a + b) // 2
    arr = np.zeros(b - a)
    arr[: mid - a] = 1.0
    arr[mid - a :] = -1.0
    arr -= arr.mean()  # exact zero mean on the lattice
    return Atom(cube, dom, Patch((a,), arr), math.inf, 0, "local")


class TestValidateAtom:
    def test_indicator_is_moment_free_atom(self, dom):
        cube = Cube(2, (0,), (1,))
        (a, b), = cube.lattice_ranges(dom)
        arr = np.ones(b - a)
        atom = Atom(cube, dom, Patch((a,), arr), math.inf, -1, "local")
        w = weight_preset("power:1", dom)
        assert validate_atom(atom, w).passed

    def test_constant_single_atom(self, dom):
        from varhardy.grid import smallest_enclosing_cube

        window = smallest_enclosing_cube(dom, [-8.0], [8.0 - dom.h])
        arr = np.ones(dom.shape)
        atom = Atom(window, dom, Patch((0,), arr), math.inf, 0, "single")
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


class TestSequenceNorms:
    def test_single_pair(self, dom):
        p = exponent_preset("lhdecay:1", dom)
        w = weight_preset("power:-0.5", dom)
        cube = Cube(1, (0,), (0,))
        chi = np.zeros(dom.shape)
        (a, b), = cube.lattice_ranges(dom)
        chi[a:b] = 1.0
        want = 2.5 * luxemburg_norm(GridFunction(dom, chi), p, w)
        assert sequence_norm([2.5], [cube], p, w, 1.0) == pytest.approx(want, rel=1e-7)

    def test_disjoint_constant_exponent_closed_form(self, dom):
        # p = v: the modular is additive over disjoint cubes, so the norm is
        # (sum lam_j^v |Q_j|)^{1/v}
        v = 0.5
        p = VariableExponent.constant(dom, v)
        cubes = [Cube(1, (0,), (0,)), Cube(1, (0,), (4,)), Cube(2, (0,), (-8,))]
        lams = [1.0, 2.0, 0.5]
        w = weight_preset("const:1", dom)
        got = sequence_norm(lams, cubes, p, w, v)
        want = sum(l**v * c.volume for l, c in zip(lams, cubes)) ** (1 / v)
        assert got == pytest.approx(want, rel=1e-6)

    def test_monotone_in_lambda(self, dom):
        p = exponent_preset("sin2", dom)
        w = weight_preset("const:1", dom)
        cubes = [Cube(2, (0,), (0,)), Cube(2, (0,), (2,))]
        a = sequence_norm([1.0, 1.0], cubes, p, w, 1.0)
        b = sequence_norm([2.0, 1.0], cubes, p, w, 1.0)
        assert b >= a

    def test_v_gate(self, dom):
        p = VariableExponent.constant(dom, 0.8)
        with pytest.raises(ValueError):
            sequence_norm([1.0], [Cube(1, (0,), (0,))], p, None, 0.9)

    def test_dagger_single_closed_form(self, dom):
        p = VariableExponent.constant(dom, 2.0)
        w = weight_preset("power:1", dom)
        cube = Cube(1, (0,), (1,))
        got = sequence_norm_dagger([3.0], [cube], p, w)
        assert got == pytest.approx(3.0 * w.mass(cube) ** 0.5, rel=1e-6)

    def test_dagger_zero(self, dom):
        p = VariableExponent.constant(dom, 2.0)
        assert sequence_norm_dagger([0.0, 0.0], [Cube(1, (0,), (0,))] * 2, p, None) == 0.0

    def test_dagger_vs_sequence_norm_band(self, dom):
        # for p_plus <= 1 the two sequence functionals are interchangeable;
        # record the ratio over random families
        rng = np.random.default_rng(9)
        p = VariableExponent.constant(dom, 0.7)
        w = weight_preset("const:1", dom)
        for _ in range(5):
            k = rng.integers(2, 6)
            cubes = [Cube(2, (0,), (int(m),)) for m in rng.integers(-20, 20, size=k)]
            lams = list(rng.uniform(0.1, 3.0, size=k))
            a = sequence_norm(lams, cubes, p, w, 0.65)
            b = sequence_norm_dagger(lams, cubes, p, w)
            assert 0.2 <= a / b <= 5.0


class TestWhitney:
    def test_interval_cascade(self, dom):
        om = GridFunction.from_callable(dom, lambda x: ((x > 0) & (x < 8)).astype(float))
        cubes = whitney_decompose(om)
        assert cubes
        rep = whitney_geometry_report(om, cubes)
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
            cubes = whitney_decompose(om)
            counts.append(whitney_geometry_report(om, cubes).q("max_dilated_overlap"))
        assert counts[0] == counts[1]

    def test_2d_geometry(self):
        # the gap constant needs dist >= 2^{n+6} sqrt(n) h before any cube
        # qualifies, so the two dimensional check runs on a finer grid
        d2 = Domain(2, 4, 8)
        om = GridFunction.from_callable(
            d2, lambda x, y: ((np.maximum(np.abs(x), np.abs(y)) < 1.6)).astype(float)
        )
        cubes = whitney_decompose(om)
        assert cubes
        assert whitney_geometry_report(om, cubes).passed


class TestPartition:
    def test_sums_to_one_inside(self, dom):
        om = GridFunction.from_callable(dom, lambda x: ((x > 0) & (x < 6)).astype(float))
        cubes = whitney_decompose(om)
        etas = partition_of_unity(cubes, dom)
        total = np.zeros(dom.shape)
        for e in etas:
            e.add_into(total)
        x = dom.axis()
        deep = (x > 1.0) & (x < 5.0)
        assert np.max(np.abs(total[deep] - 1.0)) <= 1e-10
        assert np.min(total) >= 0.0 and np.max(total) <= 1.0 + 1e-12

    def test_support_containment(self, dom):
        om = GridFunction.from_callable(dom, lambda x: ((x > 0) & (x < 6)).astype(float))
        cubes = whitney_decompose(om)
        etas = partition_of_unity(cubes, dom)
        for c, e in zip(cubes[:50], etas[:50]):
            box = c.box().dilate(1.0 + 2.0 ** (-1 - 10))
            outside = ~box.lattice_mask(dom)
            # one lattice cell slack: the dilation is sub-lattice
            (a, b), = c.lattice_ranges(dom)
            mask = np.ones(dom.shape, bool)
            mask[max(a - 1, 0) : b + 1] = False
            assert np.all(e.materialize(dom).samples[mask] == 0.0)


class TestMomentProjection:
    def test_polynomial_fixed_point(self, dom):
        eta = GridFunction.from_callable(
            dom, lambda x: np.clip(1 - np.abs(x - 1), 0, 1)
        )
        f = GridFunction.from_callable(dom, lambda x: 2.0 + 3.0 * (x - 1.0))
        proj = moment_projection(f, eta, 1)
        vals = proj.materialize(dom).samples
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
        pv = proj.materialize(dom).samples
        x = dom.axis()
        for beta in range(3):
            resid = quadrature(GridFunction(dom, (f.samples - pv) * x**beta * eta.samples))
            assert abs(resid) <= 1e-8 * max(1.0, lq_norm(f, 2.0))


class TestCZ:
    def test_threshold_above_max(self, dom, dicts):
        _, large = dicts
        f = function_preset("bump:0,1", dom)
        mn = grand_maximal(f, large, "MN")
        good, bad = cz_decompose(f, 2.0 * mn.sup(), large, 1)
        assert bad == []
        assert np.array_equal(good.samples, f.samples)

    def test_exact_reconstruction(self, dom, dicts):
        _, large = dicts
        rng = np.random.default_rng(11)
        for _ in range(3):
            c, s = rng.uniform(-2, 2), rng.uniform(0.5, 1.5)
            f = function_preset(f"bump:{c:.3f},{s:.3f}", dom)
            mn = grand_maximal(f, large, "MN").samples
            lam = float(np.median(mn[mn > 0]))
            good, bad = cz_decompose(f, lam, large, 1)
            recon = good.samples.copy()
            for _, b in bad:
                b.add_into(recon)
            assert np.max(np.abs(recon - f.samples)) <= 1e-10 * f.sup()

    def test_good_part_bound_recorded(self, dom, dicts):
        _, large = dicts
        consts = []
        rng = np.random.default_rng(12)
        for _ in range(3):
            f = function_preset(f"bump:{rng.uniform(-1,1):.2f},1", dom)
            mn = grand_maximal(f, large, "MN").samples
            lam = float(np.median(mn[mn > 0]))
            good, _ = cz_decompose(f, lam, large, 1)
            consts.append(good.sup() / lam)
        assert max(consts) < 100.0  # finite recorded constant

    def test_bad_parts_have_vanishing_moments(self, dom, dicts):
        _, large = dicts
        f = function_preset("bump:0.5,1.2", dom)
        mn = grand_maximal(f, large, "MN").samples
        lam = float(np.median(mn[mn > 0]))
        _, bad = cz_decompose(f, lam, large, 1)
        etas = partition_of_unity([c for c, _ in bad], dom)
        x = dom.axis()
        checked = 0
        for (cube, b), eta in list(zip(bad, etas))[:40]:
            b = b.materialize(dom).samples
            for beta in range(2):
                mono = (x - cube.center[0]) ** beta
                resid = quadrature(GridFunction(dom, b * mono))
                scale = dom.h * float(np.sum(np.abs(b))) + 1e-300
                assert abs(resid) <= 1e-7 * scale + 1e-14
            checked += 1
        assert checked

    def test_2d_square_split(self, dom2, monkeypatch):
        monkeypatch.setattr(atoms, "grand_maximal", square_level_sets(dom2, [(1.6, 1.0)]))
        x, y = dom2.coords()
        f = GridFunction(dom2, np.exp(-(x**2 + y**2)) * (1.0 + x * y))
        good, bad = cz_decompose(f, 0.75, types.SimpleNamespace(order=2), 1)
        assert len(bad) > 1000
        recon = good.samples.copy()
        for _, b in bad:
            b.add_into(recon)
        assert np.max(np.abs(recon - f.samples)) <= 1e-10 * f.sup()
        axis = dom2.axis()
        hn = dom2.h**2
        for cube, b in bad:
            u, v = (axis[s] - c for s, c in zip(b.slices(), cube.center))
            scale = hn * float(np.sum(np.abs(b.arr))) + 1e-300
            for a, c in ((0, 0), (1, 0), (0, 1)):
                resid = hn * float(np.sum(b.arr * (u**a)[:, None] * (v**c)[None, :]))
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
        lam0 = dec.single_part[0]
        a_norm = sequence_norm(dec.lambdas, dec.cubes, p, w, dec.v)
        ratio = (lam0 + a_norm) / hardy_norm(f, p, w, large)
        assert 0.25 <= ratio <= 10.0

    def test_lambda_levels_tagged_and_bounded(self, setup):
        # with tight normalization absorbed into the coefficient, lambda at
        # threshold level j is bounded by a fixed multiple of 2^j times the
        # good-part constant, but can be much smaller (local oscillation)
        p, w, f, dec, _ = setup
        assert len(dec.level_tags) == len(dec.lambdas)
        worst = max(
            lam / 2.0**tag for lam, tag in zip(dec.lambdas, dec.level_tags)
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
        f = atom.values
        dec = atomic_decompose(f, p, w, large, L=0)
        out = synthesize(dec)
        assert lq_norm(out - f, 2.0) <= 1e-10 * lq_norm(f, 2.0)
        chi = GridFunction.from_callable(
            dom, lambda x: ((x >= 0.25) & (x < 0.375)).astype(float)
        )
        bound = luxemburg_norm(chi, p, w)
        a_norm = sequence_norm(dec.lambdas, dec.cubes, p, w, dec.v)
        assert (dec.single_part[0] + a_norm) / bound < 100.0


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
        for atom in dec.atoms + [dec.single_part[1]]:
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
        got = (
            sum(dec.lambdas),
            max(dec.lambdas),
            dec.single_part[0],
            sequence_norm(dec.lambdas, dec.cubes, p, w, dec.v),
        )
        assert got == pytest.approx(self.PINNED[(spec, pair)], rel=1e-9)

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
        for atom in dec.atoms + [dec.single_part[1]]:
            assert validate_atom(atom, w, p).passed


class TestUnitSplit:
    def test_oversized_atom_splits_into_unit_pieces(self, dom):
        cube = Cube(-2, (0,), (0,))  # side 4
        (a, b), = cube.lattice_ranges(dom)
        arr = np.ones(b - a) * 0.5
        atom = Atom(cube, dom, Patch((a,), arr), math.inf, -1, "unit")
        w = weight_preset("const:1", dom)
        pieces = _split_unit_pieces(atom, 2.0, w)
        assert len(pieces) == 4
        for lam, piece in pieces:
            assert piece.support.volume == 1.0
            assert validate_atom(piece, w).passed
        total = np.zeros(dom.shape)
        for lam, piece in pieces:
            piece.patch.add_into(total, lam)
        assert np.max(np.abs(total[a:b] - 1.0)) <= 1e-12

    def test_2d_atom_splits_into_four(self):
        d = Domain(2, 4, 4)
        cube = Cube(-1, (0, 0), (0, 0))  # side 2
        sl = tuple(slice(a, b) for a, b in cube.lattice_ranges(d))
        x, y = d.coords()
        arr = (0.5 + 0.25 * np.sin(3 * x) * np.cos(2 * y))[sl]
        lo = tuple(s.start for s in sl)
        atom = Atom(cube, d, Patch(lo, arr / np.max(np.abs(arr))), math.inf, -1, "unit")
        w = weight_preset("const:1", d)
        lam = float(np.max(np.abs(arr)))
        pieces = _split_unit_pieces(atom, lam, w)
        assert len(pieces) == 4
        total = np.zeros(d.shape)
        for piece_lam, piece in pieces:
            assert piece.support.volume == 1.0
            assert validate_atom(piece, w).passed
            piece.patch.add_into(total, piece_lam)
        assert np.max(np.abs(total[sl] - arr)) <= 1e-12
        outside = np.ones(d.shape, dtype=bool)
        outside[sl] = False
        assert not np.any(total[outside])


class TestMajorantCheck:
    def test_haar_atom_constant(self, dom, dicts):
        _, large = dicts
        w = weight_preset("const:1", dom)
        p = VariableExponent.constant(dom, 2.0)
        atom = haar_atom(dom, Cube(3, (0,), (2,)))
        rep = bad_part_majorant_check(atom, large, w, p)
        assert rep.passed
        assert np.isfinite(rep.q("constant"))

    def test_moment_broken_control(self, dom, dicts):
        # breaking the cancellation inflates the decay constant
        _, large = dicts
        w = weight_preset("const:1", dom)
        p = VariableExponent.constant(dom, 2.0)
        cube = Cube(3, (0,), (2,))
        good = haar_atom(dom, cube)
        (a, b), = cube.lattice_ranges(dom)
        bad = Atom(cube, dom, Patch((a,), np.abs(good.patch.arr)), math.inf, 0, "local")
        c_good = bad_part_majorant_check(good, large, w, p).q("constant")
        c_bad = bad_part_majorant_check(bad, large, w, p).q("constant")
        assert c_bad > 2.0 * c_good

    @pytest.mark.parametrize("corner", [(2, 2), (-3, -3), (2, -3)])
    def test_2d_reach_is_per_axis(self, corner):
        # the grand maximal function of an atom vanishes beyond its cube
        # grown by R + 1 on every axis, wherever the cube sits
        d = Domain(2, 8, 4)
        _, large = nested_dictionaries(2, 8, d)
        cube = Cube(2, (0, 0), tuple(4 * c for c in corner))  # side 1/4
        arr = np.outer([1.0, 1.0, -1.0, -1.0], np.ones(4))
        lo = tuple(s.start for s in cube.lattice_slices(d))
        atom = Atom(cube, d, Patch(lo, arr), math.inf, 0, "local")
        rep = bad_part_majorant_check(atom, large, None, VariableExponent.constant(d, 2.0))
        assert rep.passed, rep.quantities


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
        assert back.level_tags == dec.level_tags
        a = synthesize(dec)
        b = synthesize(back)
        assert np.max(np.abs(a.samples - b.samples)) <= 1e-12

    def test_empty_round_trip(self, tmp_path, dom, dicts):
        _, large = dicts
        p = VariableExponent.constant(dom, 2.0)
        w = weight_preset("const:1", dom)
        zero = GridFunction(dom, np.zeros(dom.shape))
        dec = atomic_decompose(zero, p, w, large, q=4.0, L=2)
        assert dec.atoms == []
        path = tmp_path / "empty.json"
        save_decomposition(dec, path)
        back = load_decomposition(path)
        assert back.atoms == [] and back.single_part is None
        assert (back.q, back.L, back.v, back.level_tags) == (4.0, 2, dec.v, [])
