"""Atoms, sequence norms and the Whitney-based atomic decomposition.

The decomposition machinery follows the classical good/bad split: level
sets of the grand maximal function are covered by Whitney cubes whose size
is a fixed small fraction (2^{-n-6}) of their distance to the complement,
a near-partition of unity localizes f minus its moment projection on each
cube, and the multi-level assembly over thresholds 2^j turns the level
differences into atoms with exact vanishing moments via per-pair
re-projections.  The good part, carried by the single atom, is f minus
the kept atoms, so reconstruction is exact by construction; a piece whose
peak is below KEEP_FLOOR times the largest |f| on its window, or below
DUST_FLOOR times sup|f|, is rounding dust and stays in the good part.

One localisation path serves n = 1 and n = 2.  A Whitney cover stays
integer arrays, one level, shift and index row per cube, from the builder
through localisation; `whitney_decompose` is the list-of-cubes view of the
same builder.  Cubes are grouped by (level, window shape, clip offset,
shift); a group shares its scaled monomial matrix, so its bumps, partition
weights, Gram systems, projections and bad parts are batched contractions
over windows gathered by flat lattice index.  The level-pair assembly
finds each next-level window's owners by joining on that index and
re-projects every (window, owner) pair of a group in one contraction.  The
supports of a level pair's kept atoms come from one batched search
(`grid.smallest_enclosing_cubes`), and `Cube` objects are built only for
them.  Results become windowed patches only at the end, never full-lattice
arrays; a decomposition at default resolution holds thousands of atoms.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import reduce
from itertools import product as iproduct
from pathlib import Path

import numpy as np
from scipy.ndimage import distance_transform_edt

from .exponent import VariableExponent
from .grid import (
    Cube,
    Domain,
    GridFunction,
    cube_centers,
    cube_lattice_ranges,
    multi_indices,
    smallest_enclosing_cube,
    smallest_enclosing_cubes,
)
from .hardy import TestDictionary, grand_maximal
from .norms import luxemburg_norm
from .report import Report
from .weights import Weight, moment_order, q_w_estimate

__all__ = [
    "Atom",
    "AtomicDecomposition",
    "Patch",
    "validate_atom",
    "sequence_norm",
    "whitney_decompose",
    "cz_decompose",
    "atomic_decompose",
    "synthesize",
    "save_decomposition",
    "load_decomposition",
]

WHITNEY_GAP_EXP = 6  # diam(Q) <= 2^{-n-6} dist(Q, complement)
MOMENT_TOL = 1e-8
# A level piece is a difference of terms up to max|f| on its window, so its
# values, and its moments in units of its L^1 norm over its peak, carry a
# rounding error of a few eps * max|f|.  validate_atom certifies moments to
# MOMENT_TOL of the L^1 norm, which rounding allows only for peaks well
# above (eps / MOMENT_TOL) * max|f|.  DUST_FLOOR, relative to sup|f|, drops
# the round-off left where consecutive bad parts agree.
KEEP_FLOOR = 4.0 * np.finfo(float).eps / MOMENT_TOL
DUST_FLOOR = 1e-13
LAMBDA_FLOOR = 1e-300
MAX_LEVELS = 16  # thresholds 2^j below the top one


# ---------------------------------------------------------------------------
# windowed patches


@dataclass
class Patch:
    """Dense values on a small index window of the lattice."""

    lo: tuple[int, ...]
    arr: np.ndarray

    def slices(self) -> tuple[slice, ...]:
        return tuple(slice(l, l + s) for l, s in zip(self.lo, self.arr.shape))

    def add_into(self, dense: np.ndarray, scale: float = 1.0) -> None:
        dense[self.slices()] += scale * self.arr

    def window(self, box: tuple[slice, ...]) -> np.ndarray:
        """Values on the lattice box `box`, zero outside the patch."""
        out = np.zeros(tuple(s.stop - s.start for s in box))
        ov = [(max(s.start, lo), min(s.stop, lo + n)) for s, lo, n in zip(box, self.lo, self.arr.shape)]
        if all(a < b for a, b in ov):
            dst = tuple(slice(a - s.start, b - s.start) for (a, b), s in zip(ov, box))
            out[dst] = self.arr[tuple(slice(a - lo, b - lo) for (a, b), lo in zip(ov, self.lo))]
        return out

    def norm_lq(self, domain: Domain, q: float, w: Weight | None) -> float:
        if math.isinf(q):
            return float(np.max(np.abs(self.arr))) if self.arr.size else 0.0
        ws = 1.0 if w is None else w.values.samples[self.slices()]
        hn = domain.h ** domain.dim
        return (hn * float(np.sum(np.abs(self.arr) ** q * ws))) ** (1.0 / q)

    def l1(self, domain: Domain) -> float:
        return domain.h ** domain.dim * float(np.sum(np.abs(self.arr)))


# ---------------------------------------------------------------------------
# atom and decomposition containers


@dataclass
class Atom:
    """Normalized building block supported on a cube.

    kind is "local" (|Q| < 1, vanishing moments up to L), "unit" (|Q| = 1,
    no moment condition) or "single" (no support restriction).
    """

    support: Cube
    domain: Domain
    patch: Patch
    q: float
    L: int
    kind: str

    def lq_norm(self, w: Weight | None) -> float:
        return self.patch.norm_lq(self.domain, self.q, w)


@dataclass
class AtomicDecomposition:
    """Coefficient/atom pairs plus the single-atom part (for f = 0, the
    zero good part with the floor coefficient)."""

    domain: Domain
    lambdas: list[float]
    atoms: list[Atom]
    q: float
    L: int
    v: float
    single_part: tuple[float, Atom]
    level_tags: list[int] = field(default_factory=list)

    @property
    def cubes(self) -> list[Cube]:
        return [a.support for a in self.atoms]


# ---------------------------------------------------------------------------
# sequence norms


def sequence_norm(
    lambdas, cubes, p: VariableExponent, w: Weight | None, v: float
) -> float:
    """Luxemburg norm of (sum |lambda_j|^v chi_{Q_j})^{1/v}.

    The strict v < p_minus hypothesis belongs to the decomposition theorems
    and is enforced there; the functional itself is well defined up to
    v = p_minus (where disjoint supports make the modular additive).
    """
    if not (0.0 < v <= 1.0) or v > p.p_minus:
        raise ValueError(f"v must lie in (0, p_minus] and (0, 1], got {v}")
    d = p.domain
    acc = np.zeros(d.shape)
    for lam, cube in zip(lambdas, cubes):
        if lam < 0:
            raise ValueError("coefficients must be nonnegative")
        acc[cube.lattice_slices(d)] += abs(lam) ** v
    return luxemburg_norm(GridFunction._adopt(d, acc ** (1.0 / v)), p, w)


# ---------------------------------------------------------------------------
# Whitney machinery


def _edt_cells(mask: np.ndarray) -> np.ndarray:
    """Euclidean distance (in cells) to the complement, window edge counts
    as complement."""
    padded = np.pad(mask, 1, constant_values=False)
    d = distance_transform_edt(padded)
    sl = tuple(slice(1, -1) for _ in range(mask.ndim))
    return d[sl]


def _whitney_cover(mask: np.ndarray, d: Domain) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(level, shift, index) arrays of the Whitney cubes of a lattice set,
    coarsest level first and row-major within a level; every shift is 0."""
    n = d.dim
    if not np.any(mask):
        return np.zeros(0, dtype=np.int64), np.zeros((0, n), dtype=np.int64), np.zeros((0, n), dtype=np.int64)
    if np.all(mask):
        raise ValueError("no exterior: the set must be a strict subset of the window")
    gap = 2.0 ** (-n - WHITNEY_GAP_EXP)
    dist = _edt_cells(mask) * d.h
    taken = np.zeros(d.shape, dtype=bool)
    # coarsest conceivable side: diam <= gap * dist <= gap * window dimeter
    k_lo = max(
        int(math.ceil(-math.log2(max(gap * 4 * d.half_width * math.sqrt(n), d.h)))),
        d.min_cube_level(),
    )
    inner = tuple(range(1, 2 * n, 2))
    level, index = [], []
    for k in range(k_lo, d.level + 1):
        side = 2.0 ** (-k)
        run = 1 << (d.level - k)
        ncubes = d.npts // run
        blocks = (ncubes, run) * n  # axis i splits into (cube index, offset)
        diam = side * math.sqrt(n)
        inside = mask.reshape(blocks).all(axis=inner)
        dmin = dist.reshape(blocks).min(axis=inner)
        free = ~taken.reshape(blocks).any(axis=inner)
        ok = inside & free & (diam <= gap * dmin)
        found = np.stack(np.nonzero(ok), axis=1) - ncubes // 2
        level.append(np.full(len(found), k, dtype=np.int64))
        index.append(found)
        taken.reshape(blocks)[...] |= ok.reshape((ncubes, 1) * n)
    index = np.concatenate(index)
    return np.concatenate(level), np.zeros_like(index), index


def _cube_list(level: np.ndarray, shift: np.ndarray, index: np.ndarray) -> list[Cube]:
    return [Cube(k, tuple(a), tuple(m)) for k, a, m in zip(level.tolist(), shift.tolist(), index.tolist())]


def whitney_decompose(omega: GridFunction) -> list[Cube]:
    """Maximal standard-dyadic cubes inside the open set with the two-sided
    size/distance bound diam <= 2^{-n-6} dist <= 4 diam.

    The open set is given by its lattice indicator.  Cubes at the finest
    level whose required size would fall below the grid step are left
    uncovered (a boundary band of width about 2^{n+6} h).
    """
    return _cube_list(*_whitney_cover(omega.samples > 0.5, omega.domain))


def _dilated_ranges(d: Domain, level, shift, index):
    """`grid.cube_lattice_ranges` of the cube (level k, shift a, index q)
    dilated about its center by 1 + 2^{-n-10}: with R = 2^{m-k} and D =
    2^{n+11}, its ends in units of h are R((3q + a)D - 3) / (3D) and
    R((3q + a + 3)D + 3) / (3D), whose ceilings are clipped to [0, N]."""
    r = 1 << (d.level - level)
    D = 1 << (d.dim + 11)
    num = 3 * index + shift
    start = -((-r * (num * D - 3)) // (3 * D)) + d.half_npts
    stop = -((-r * ((num + 3) * D + 3)) // (3 * D)) + d.half_npts
    return np.clip(start, 0, d.npts), np.clip(stop, 0, d.npts)


def whitney_geometry_report(omega: GridFunction, cubes: list[Cube]) -> Report:
    """Two-sided bound check and dilated-cube overlap count for a cover."""
    d = omega.domain
    n = d.dim
    gap = 2.0 ** (-n - WHITNEY_GAP_EXP)
    dist = _edt_cells(omega.samples > 0.5) * d.h
    violations = 0
    overlap = np.zeros(d.shape, dtype=np.int32)
    for c in cubes:
        dmin = float(np.min(dist[c.lattice_slices(d)]))
        diam = c.side * math.sqrt(n)
        if not (diam <= gap * dmin <= 4.0 * diam + 1e-12):
            violations += 1
        overlap[tuple(slice(*_dilated_ranges(d, c.level, a, q)) for a, q in zip(c.shift, c.index))] += 1
    max_overlap = int(overlap.max()) if cubes else 0
    return Report(
        "whitney_geometry",
        passed=violations == 0,
        quantities={
            "violations": float(violations),
            "cube_count": float(len(cubes)),
            "max_dilated_overlap": float(max_overlap),
        },
    )


# ---------------------------------------------------------------------------
# grouped localisation


def _tensor(factors: list[np.ndarray], ufunc=np.multiply) -> np.ndarray:
    """Row-wise tensor combination of per-axis factors (K, W_i) into
    (K, W_0 * W_1 * ...), flattened in lattice (row-major) order."""
    out = factors[0]
    for fac in factors[1:]:
        out = ufunc(out[:, :, None], fac[:, None, :]).reshape(len(out), -1)
    return out


def _monomials(axes: list[np.ndarray], L: int) -> np.ndarray:
    """(W, na) scaled monomials u^alpha, |alpha| <= L, on a flat window
    spanned by the per-axis coordinates."""
    cols = [_tensor([u[None] ** k for u, k in zip(axes, a)])[0] for a in multi_indices(len(axes), L)]
    return np.stack(cols, axis=1) if cols else np.zeros((math.prod(u.size for u in axes), 0))


class DegenerateBumpError(ValueError):
    pass


def _inverse_grams(eta: np.ndarray, mono: np.ndarray) -> np.ndarray:
    """Inverse moment Gram matrices, one per weight row of eta."""
    G = np.einsum("wa,kw,wb->kab", mono, eta, mono)
    if G.size and np.any(np.linalg.cond(G) > 1e10):
        raise DegenerateBumpError("degenerate bump: ill conditioned Gram block")
    return np.linalg.inv(G)


def _moment_fit(values: np.ndarray, eta: np.ndarray, mono: np.ndarray, inv_gram: np.ndarray) -> np.ndarray:
    """Rows of P in P_L on the window with int (values - P) u^b eta = 0."""
    rhs = np.einsum("kw,wa->ka", values * eta, mono)
    coef = np.einsum("kab,kb->ka", inv_gram, rhs)
    return np.einsum("ka,wa->kw", coef, mono)


@dataclass
class _Group:
    """Cubes sharing level, window shape, clip offset and shift: their
    relative lattice offsets agree, so they share one scaled monomial
    matrix."""

    cube: np.ndarray  # (K,) positions in the cover's cube arrays
    point: np.ndarray  # (K, W) flat lattice indices of each window
    eta: np.ndarray  # (K, W) partition weights
    bad: np.ndarray  # (K, W) (f - P_k) eta_k
    mono: np.ndarray  # (W, na)
    inv_gram: np.ndarray  # (K, na, na)


@dataclass
class _Cover:
    """Whitney cover of one set with its localisation, kept as its groups;
    `lo`/`shape` give each cube's window box for rendering patches."""

    groups: list[_Group]
    lo: np.ndarray  # (K, n)
    shape: np.ndarray  # (K, n)

    def patches(self, rows: str) -> list[Patch]:
        """One patch per cube, in cube order, from the group rows `rows`
        ("eta" or "bad")."""
        out = [None] * len(self.lo)
        for g in self.groups:
            shp = tuple(int(v) for v in self.shape[g.cube[0]])
            for c, row in zip(g.cube.tolist(), getattr(g, rows)):
                out[c] = Patch(tuple(int(v) for v in self.lo[c]), row.reshape(shp))
        return out


def _localise(f: np.ndarray, level: np.ndarray, shift: np.ndarray, index: np.ndarray, domain: Domain, L: int) -> _Cover:
    """Bumps, partition weights, moment projections and bad parts of every
    cube, given as (level, shift, index) arrays, one batched step per
    (level, window shape, clip offset, shift) group.

    The bump is the plateau profile between the two dilations of its cube;
    its ramp width is sub-lattice at every realizable cube size, so on the
    lattice it is the cube indicator plus the shared corner points of the
    closed inner dilation, which the partition splits evenly.
    """
    d = domain
    n = d.dim
    x = d.axis()
    start, stop = cube_lattice_ranges(d, level[:, None], shift, index)
    lo = np.maximum(start - 1, 0)
    shape = np.minimum(stop + 1, d.npts) - lo
    centers = cube_centers(level[:, None], shift, index)
    keys = np.concatenate([level[:, None], shape, lo - start, shift], axis=1)
    uniq, gid = np.unique(keys, axis=0, return_inverse=True)
    members = [np.flatnonzero(gid == g) for g in range(len(uniq))]
    strides = d.npts ** np.arange(n - 1, -1, -1)
    total = np.zeros(d.npts**n)
    staged = []
    for idx in members:
        side = 2.0 ** (-int(level[idx[0]]))
        s1 = 0.5 * side * (1.0 + 2.0 ** (-n - 11))
        s2 = 0.5 * side * (1.0 + 2.0 ** (-n - 10))
        offs = [np.arange(w) for w in shape[idx[0]]]
        ix = [lo[idx, i, None] + offs[i] for i in range(n)]
        bump = _tensor(
            [np.clip((s2 - np.abs(x[ix[i]] - centers[idx, i, None])) / (s2 - s1), 0.0, 1.0) for i in range(n)]
        )
        point = _tensor([ix[i] * strides[i] for i in range(n)], np.add)
        np.add.at(total, point.ravel(), bump.ravel())
        # relative offsets agree across the group: scale on its first cube
        mono = _monomials([(x[ix[i][0]] - centers[idx[0], i]) / (side / 2.0) for i in range(n)], L)
        staged.append((idx, point, bump, mono))
    f = f.ravel()
    groups = []
    for idx, point, bump, mono in staged:
        tot = total[point]
        eta = bump / np.where(tot > 0, tot, 1.0)
        f_rows = f[point]
        inv_gram = _inverse_grams(eta, mono)
        bad = (f_rows - _moment_fit(f_rows, eta, mono, inv_gram)) * eta
        groups.append(_Group(idx, point, eta, bad, mono, inv_gram))
    return _Cover(groups, lo, shape)


# ---------------------------------------------------------------------------
# good/bad split at a single threshold


def cz_decompose(
    f: GridFunction, lam: float, dic: TestDictionary, L: int
) -> tuple[GridFunction, list[tuple[Cube, Patch]]]:
    """Good/bad split at one threshold of the grand maximal function.

    f = good + sum of the windowed bad parts exactly; each bad part carries
    vanishing moments, against its own localization weight, up to order L.
    """
    d = f.domain
    if math.isnan(lam):
        raise ValueError("threshold must not be nan")
    mn = grand_maximal(f, dic, "MN")
    mask = mn.samples > lam
    if np.all(mask):
        raise ValueError("no exterior: threshold below the maximal function minimum")
    cubes = _whitney_cover(mask, d)
    cov = _localise(f.samples, *cubes, d, L)
    dense = np.zeros(f.samples.size)
    for g in cov.groups:
        np.add.at(dense, g.point.ravel(), g.bad.ravel())
    good = GridFunction._adopt(d, f.samples - dense.reshape(d.shape))
    return good, list(zip(_cube_list(*cubes), cov.patches("bad")))


# ---------------------------------------------------------------------------
# multi-level atomic decomposition


def _level_thresholds(mn: np.ndarray) -> list[int]:
    """Exponents j of the thresholds 2^j, from the first level set that
    leaves part of the window uncovered up to the first empty one."""
    top = float(np.max(mn))
    if top <= 0:
        return []
    j_hi = int(math.ceil(math.log2(top)))
    low = float(np.min(mn))
    if low > 0:
        j_lo = int(math.ceil(math.log2(low)))
    else:
        j_lo = int(math.floor(math.log2(float(np.min(mn[mn > 0])))))
    j_lo = max(j_lo, j_hi - MAX_LEVELS)
    return list(range(j_lo, j_hi + 1))


def _expand(start: np.ndarray, count: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(row, position) for every position in [start[row], start[row] + count[row])."""
    row = np.repeat(np.arange(count.size), count)
    first = np.cumsum(count) - count
    return row, start[row] + np.arange(row.size) - first[row]


def _level_pieces(cov_j: _Cover, cov_n: _Cover, size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Atoms of one level pair as flat (owner, point, value) entries sorted
    by owner, then point; `cov_j` holds at least one cube.

    Each owner's atom is its bad part b_{j,k} minus, for every next-level
    cube whose window meets the owner's, the owner's share of b_{j+1} re-
    projected against that cube's weight so the moments stay exact.
    """
    # the owners' own entries, group after group: each (owner, point) key
    # meets its own entry first, so the sums below do not depend on the order
    gj = cov_j.groups
    own_j = np.concatenate([np.repeat(g.cube, g.point.shape[1]) for g in gj])
    point_j = np.concatenate([g.point.ravel() for g in gj])
    eta_j = np.concatenate([g.eta.ravel() for g in gj])
    by_point = np.argsort(point_j, kind="stable")
    sorted_points = point_j[by_point]
    nj = len(cov_j.lo)
    owner, point, value = [own_j], [point_j], [np.concatenate([g.bad.ravel() for g in gj])]
    for g in cov_n.groups:
        width = g.point.shape[1]
        query = g.point.ravel()
        start = np.searchsorted(sorted_points, query, side="left")
        count = np.searchsorted(sorted_points, query, side="right") - start
        rec, pos = _expand(start, count)
        hit = by_point[pos]
        pairs, pair_of = np.unique(rec // width * nj + own_j[hit], return_inverse=True)
        row, own = np.divmod(pairs, nj)
        cut = np.zeros((pairs.size, width))
        cut[pair_of, rec % width] = eta_j[hit]
        f_minus_p = np.divide(g.bad, g.eta, out=np.zeros_like(g.bad), where=g.eta > 0)
        weighted = cut * f_minus_p[row]
        eta = g.eta[row]
        corr = (weighted - _moment_fit(weighted, eta, g.mono, g.inv_gram[row])) * eta
        owner.append(np.repeat(own, width))
        point.append(g.point[row].ravel())
        value.append(-corr.ravel())
    owner, point, value = (np.concatenate(a) for a in (owner, point, value))
    keys, at = np.unique(owner * size + point, return_inverse=True)
    summed = np.zeros(keys.size)
    np.add.at(summed, at, value)
    owner, point = np.divmod(keys, size)
    return owner, point, summed


def _coefficient(patch: Patch, region: Cube | None, domain: Domain, q: float, w: Weight | None) -> float:
    """Tight coefficient: the patch's L^q_w norm over w(region)^{1/q}."""
    mass = 1.0 if math.isinf(q) else w.mass(region) ** (1.0 / q)
    return max(patch.norm_lq(domain, q, w) / max(mass, LAMBDA_FLOOR), LAMBDA_FLOOR)


def _owner_atoms(point, value, starts, kept, domain: Domain, q: float, L: int, w: Weight | None):
    """Normalized atoms from the flat entries of the kept owner segments
    (segment s spans [starts[s], starts[s + 1])), each on the bounding
    window of its segment; the support is the smallest cube around the
    nonzero values, and an oversized atom is cut into unit pieces."""
    d = domain
    x = d.axis()
    coords = np.stack(np.unravel_index(point, d.shape), axis=1)
    # reduce over every segment, then select: each box spans its own segment
    nz = (value != 0)[:, None]
    lo = np.minimum.reduceat(coords, starts)[kept]
    hi = np.maximum.reduceat(coords, starts)[kept]
    sup_lo = np.minimum.reduceat(np.where(nz, coords, d.npts), starts)[kept]
    sup_hi = np.maximum.reduceat(np.where(nz, coords, -1), starts)[kept]
    level, shift, index = smallest_enclosing_cubes(d, x[sup_lo], x[sup_hi])
    # scatter the kept entries into one row-major buffer of all windows
    seg = np.repeat(np.arange(starts.size), np.diff(starts, append=point.size))
    sel = kept[seg]
    row = (np.cumsum(kept) - 1)[seg[sel]]
    shape = hi - lo + 1
    size = np.prod(shape, axis=1)
    at = np.zeros(row.size, dtype=np.int64)
    for i in range(d.dim):
        at = at * shape[row, i] + coords[sel, i] - lo[row, i]
    buf = np.zeros(int(size.sum()))
    buf[at + (np.cumsum(size) - size)[row]] = value[sel]
    arrs = np.split(buf, np.cumsum(size)[:-1])
    out = []
    boxes = zip(level.tolist(), shift.tolist(), index.tolist(), lo.tolist(), shape.tolist(), arrs)
    for k, a, m, l, shp, arr in boxes:
        support = Cube(k, tuple(a), tuple(m))
        patch = Patch(tuple(l), arr.reshape(shp))
        lam = _coefficient(patch, support, d, q, w)
        patch.arr = patch.arr / lam
        if support.volume < 1.0 + 1e-12:
            kind = "local" if support.volume < 1.0 else "unit"
            out.append((lam, Atom(support, d, patch, q, L, kind)))
        else:
            out.extend(_split_unit_pieces(Atom(support, d, patch, q, L, "unit"), lam, w))
    return out


def atomic_decompose(
    f: GridFunction,
    p: VariableExponent,
    w: Weight,
    dic: TestDictionary,
    q: float = math.inf,
    L: int | None = None,
    v: float | None = None,
) -> AtomicDecomposition:
    """Multi-level atomic decomposition driven by thresholds 2^j.

    Atoms at level j are the Whitney-localized pieces of the difference of
    consecutive good parts, re-projected pairwise so every local atom keeps
    exact vanishing moments; coefficients absorb the tight normalization.
    The single atom carries the good part f minus the kept atoms, so the
    reconstruction is exact.  The admissibility gates on (q, L, v) follow
    the standing assumptions of the equivalence theorem and raise with the
    violated inequality.
    """
    d = f.domain
    q_w = q_w_estimate(w)
    if v is None:
        v = min(1.0, 0.9 * p.p_minus)
    if not (0.0 < v <= 1.0 and v < p.p_minus):
        raise ValueError(f"admissibility violated: need 0 < v <= 1 and v < p_minus, got v={v}")
    moment_floor = moment_order(d.dim, q_w, v)
    if L is None:
        L = max(moment_floor, 0)
    if L < moment_floor:
        raise ValueError(
            f"admissibility violated: need L >= floor(n(q_w/v - 1)) = {moment_floor}, got L={L}"
        )
    if dic.order < L:
        raise ValueError(
            f"admissibility violated: need dictionary order N >= L, got N={dic.order} < {L}"
        )
    if not (q > max(q_w, p.p_plus)):
        raise ValueError(
            f"admissibility violated: need q > max(q_w, p_plus) = {max(q_w, p.p_plus):g}, got q={q}"
        )

    mn = grand_maximal(f, dic, "MN").samples
    levels = _level_thresholds(mn)

    def cover(mask: np.ndarray) -> _Cover:
        return _localise(f.samples, *_whitney_cover(mask, d), d, L)

    lambdas: list[float] = []
    atoms: list[Atom] = []
    tags: list[int] = []
    kept_sum = np.zeros(f.samples.size)
    f_abs = np.abs(f.samples.ravel())
    dust = DUST_FLOOR * f.sup()
    masks = [mn > 2.0**j for j in levels]
    cov_j = cover(masks[0]) if masks else None
    for j, mask_j, mask_n in zip(levels, masks, masks[1:]):
        # identical level sets, or a cover without cubes (its subsets have
        # none either): the difference vanishes exactly
        if np.array_equal(mask_j, mask_n) or not cov_j.groups:
            continue
        cov_n = cover(mask_n)
        owner, point, value = _level_pieces(cov_j, cov_n, f.samples.size)
        starts = np.flatnonzero(np.diff(owner, prepend=-1))
        peak = np.maximum.reduceat(np.abs(value), starts)
        kept = peak > np.maximum(KEEP_FLOOR * np.maximum.reduceat(f_abs[point], starts), dust)
        keep = np.repeat(kept, np.diff(starts, append=owner.size))
        np.add.at(kept_sum, point[keep], value[keep])
        for lam, atom in _owner_atoms(point, value, starts, kept, d, q, L, w):
            lambdas.append(lam)
            atoms.append(atom)
            tags.append(j)
        cov_j = cov_n

    # the top threshold's level set is empty, so the level differences
    # telescope to the first threshold's bad part: f - kept is its good part
    gpatch = Patch((0,) * d.dim, f.samples - kept_sum.reshape(d.shape))
    lam0 = _coefficient(gpatch, None, d, q, w)
    gpatch.arr = gpatch.arr / lam0
    window_cube = smallest_enclosing_cube(d, [-d.half_width] * d.dim, [d.half_width - d.h] * d.dim)
    single = (lam0, Atom(window_cube, d, gpatch, q, L, "single"))
    return AtomicDecomposition(d, lambdas, atoms, q, L, v, single, tags)


def _split_unit_pieces(atom: Atom, lam: float, w: Weight | None):
    """Cut an oversized atom into unit-cube pieces, renormalized; each
    piece is read from the atom's patch window."""
    d = atom.domain
    # the unit cubes holding the support's first and last samples, per axis
    spans = [
        range((a - d.half_npts) >> d.level, ((b - 1 - d.half_npts) >> d.level) + 1)
        for a, b in atom.support.lattice_ranges(d)
    ]
    out = []
    for index in iproduct(*spans):
        cube = Cube(0, (0,) * d.dim, index)
        sl = cube.lattice_slices(d)
        win = lam * atom.patch.window(sl)
        if not np.any(win):
            continue
        patch = Patch(tuple(s.start for s in sl), win)
        piece_lam = _coefficient(patch, cube, d, atom.q, w)
        patch.arr = patch.arr / piece_lam
        out.append((piece_lam, Atom(cube, d, patch, atom.q, atom.L, "unit")))
    return out


def synthesize(dec: AtomicDecomposition) -> GridFunction:
    """sum of lambda_j a_j plus the single part, rendered on the lattice."""
    dense = np.zeros(dec.domain.shape)
    for lam, atom in [*zip(dec.lambdas, dec.atoms), dec.single_part]:
        atom.patch.add_into(dense, lam)
    return GridFunction._adopt(dec.domain, dense)


# ---------------------------------------------------------------------------
# validation and probes


def validate_atom(a: Atom, w: Weight | None, p: VariableExponent | None = None) -> Report:
    """Support, size and moment margins of one atom."""
    d = a.domain
    support_leak = 0.0
    if a.kind != "single":
        leak = np.abs(a.patch.arr)  # the lattice outside the patch is zero
        leak[tuple(
            slice(max(s.start - lo, 0), max(s.stop - lo, 0))
            for s, lo in zip(a.support.lattice_slices(d), a.patch.lo)
        )] = 0.0
        support_leak = float(leak.max(initial=0.0))
    size = a.lq_norm(w)
    if math.isinf(a.q):
        budget = 1.0
    else:
        region = None if a.kind == "single" else a.support
        budget = (w.mass(region) if w is not None else (
            a.support.volume if region is not None else (2 * d.half_width) ** d.dim
        )) ** (1.0 / a.q)
    size_ok = size <= budget * (1.0 + 1e-6)
    moment_worst = 0.0
    if a.kind == "local" and a.L >= 0:
        l1 = a.patch.l1(d)
        x = d.axis()
        axes = [x[s] - c for s, c in zip(a.patch.slices(), a.support.center)]
        for alpha in multi_indices(d.dim, a.L):
            mono = reduce(np.multiply, np.ix_(*[ax**k for ax, k in zip(axes, alpha)]))
            mom = d.h ** d.dim * float(np.sum(a.patch.arr * mono))
            tol = MOMENT_TOL * max(l1, 1e-300) * a.support.side ** sum(alpha)
            moment_worst = max(moment_worst, abs(mom) / tol if tol > 0 else math.inf)
    passed = support_leak == 0.0 and size_ok and moment_worst <= 1.0
    return Report(
        "validate_atom",
        passed=bool(passed),
        quantities={
            "support_leak": support_leak,
            "size": size,
            "size_budget": budget,
            "moment_worst_rel": moment_worst,
        },
    )


# ---------------------------------------------------------------------------
# serialization


def save_decomposition(dec: AtomicDecomposition, path: str | Path) -> None:
    """JSON index with a little-endian float64 binary sidecar for values."""
    path = Path(path)
    sidecar = path.with_suffix(".bin")
    entries = []
    offset = 0
    with open(sidecar, "wb") as fh:
        for lam, atom in [*zip(dec.lambdas, dec.atoms), dec.single_part]:
            arr = np.ascontiguousarray(atom.patch.arr, dtype="<f8")
            fh.write(arr.tobytes())
            entries.append(
                {
                    "lambda": lam,
                    "cube": {
                        "k": atom.support.level,
                        "a": list(atom.support.shift),
                        "m": list(atom.support.index),
                    },
                    "q": None if math.isinf(atom.q) else atom.q,
                    "L": atom.L,
                    "kind": atom.kind,
                    "values_ref": {
                        "offset": offset,
                        "shape": list(arr.shape),
                        "lo": list(atom.patch.lo),
                    },
                }
            )
            offset += arr.nbytes
    doc = {
        "domain": {
            "dim": dec.domain.dim,
            "half_width": dec.domain.half_width,
            "level": dec.domain.level,
        },
        "q": None if math.isinf(dec.q) else dec.q,
        "L": dec.L,
        "v": dec.v,
        "level_tags": list(dec.level_tags),
        "sidecar": sidecar.name,
        "atoms": entries,
    }
    path.write_text(json.dumps(doc, indent=1, sort_keys=True))


def load_decomposition(path: str | Path) -> AtomicDecomposition:
    path = Path(path)
    doc = json.loads(path.read_text())
    dom = Domain(**doc["domain"])
    raw = (path.parent / doc["sidecar"]).read_bytes()
    lambdas, atoms = [], []
    for e in doc["atoms"]:
        ref = e["values_ref"]
        count = int(np.prod(ref["shape"]))
        arr = np.frombuffer(
            raw, dtype="<f8", count=count, offset=ref["offset"]
        ).reshape(ref["shape"]).copy()
        cube = Cube(e["cube"]["k"], tuple(e["cube"]["a"]), tuple(e["cube"]["m"]))
        q = math.inf if e["q"] is None else e["q"]
        lambdas.append(e["lambda"])
        atoms.append(Atom(cube, dom, Patch(tuple(ref["lo"]), arr), q, e["L"], e["kind"]))
    # the single atom is written last
    single = (lambdas.pop(), atoms.pop())
    q = math.inf if doc["q"] is None else doc["q"]
    return AtomicDecomposition(dom, lambdas, atoms, q, doc["L"], doc["v"], single, doc["level_tags"])
