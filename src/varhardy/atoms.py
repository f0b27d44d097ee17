"""Atoms, sequence norms and the Whitney-based atomic decomposition.

The decomposition machinery follows the classical good/bad split: level
sets of the grand maximal function are covered by Whitney cubes whose size
is a fixed small fraction (2^{-n-6}) of their distance to the complement,
a near-partition of unity localizes f minus its moment projection on each
cube, and the multi-level assembly over thresholds 2^j turns the level
differences into atoms with exact vanishing moments via per-pair
re-projections.  The good part is f minus the kept atoms, so
reconstruction is exact by construction; it needs no cancellation and
enters as unit atoms, its nonzero pieces on the level-0 cubes.  A piece
whose peak is below KEEP_FLOOR times the largest |f| on its window, or
below DUST_FLOOR times sup|f|, is rounding dust and stays in the good part.

One localisation path serves n = 1 and n = 2, and every step works on
arrays: a cube is a (level, shift, index) row, and values on lattice boxes
form a ragged buffer, box after box and row-major within a box, beside the
boxes' (lo, shape) rows.  Cubes are grouped by one integer key per cube
that encodes (level, window shape, clip offset, shift); a group shares its
scaled monomial matrix, so its bumps, partition weights, Gram systems,
projections and bad parts are batched contractions over windows gathered
by flat lattice index.  The level-pair assembly finds each next-level
window's owners in a map from lattice points to the owners' cubes,
re-projects every (window, owner) pair of a group in one contraction, and
sums each owner's atom in its own box of one buffer; one batched integer
search (`grid.smallest_enclosing_cubes`) finds the supports, and an atom
whose support exceeds a unit cube is cut into unit pieces.  The view types
`Atom`, `Patch` and `Cube` are built only for the `atoms` view, its
per-atom reference `validate_atom` and `whitney_decompose`'s list.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property, reduce
from pathlib import Path
from typing import NamedTuple

import numpy as np
from scipy.ndimage import distance_transform_edt

from .exponent import VariableExponent
from .grid import (
    Domain,
    GridFunction,
    chain_steps,
    climb_chain,
    cube_centers,
    cube_index,
    cube_lattice_ranges,
    multi_indices,
    smallest_enclosing_cubes,
)
from .hardy import TestDictionary, grand_maximal
from .norms import luxemburg_norm
from .report import Report
from .weights import Weight, moment_order, q_w_estimate

__all__ = [
    "Atom",
    "AtomicDecomposition",
    "Cube",
    "Patch",
    "validate_atom",
    "validate_atoms",
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
CORRECTION_BLOCK = 1 << 16  # (window, owner) pairs re-projected at a time
ATOM_BLOCK = 1 << 16  # atoms rendered or validated at a time


# ---------------------------------------------------------------------------
# ragged boxes, atom and decomposition containers


def _box_points(d: Domain, lo: np.ndarray, shape: np.ndarray) -> np.ndarray:
    """Flat lattice indices of every point of the boxes (lo, shape), box
    after box and row-major within a box."""
    size = np.prod(shape, axis=1)
    row, t = _expand(np.zeros_like(size), size)
    out = lo[row, 0]
    for i in range(1, lo.shape[1]):
        out = out * d.npts + lo[row, i]
    stride = 1
    for i in range(lo.shape[1] - 1, 0, -1):
        t, r = np.divmod(t, shape[row, i])
        out += r * stride
        stride *= d.npts
    return out + t * stride


def _expand(start: np.ndarray, count: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(row, position) for every position in [start[row], start[row] + count[row])."""
    row = np.repeat(np.arange(count.size), count)
    first = np.cumsum(count) - count
    return row, start[row] + np.arange(row.size) - first[row]


@dataclass(frozen=True)
class Cube:
    """Shifted dyadic cube 2^-level * [m + a/3, m + a/3 + 1) per axis, the
    support of an `Atom` view."""

    level: int
    shift: tuple[int, ...]
    index: tuple[int, ...]

    def __post_init__(self):
        if not all(a in (0, 1, 2) for a in self.shift):
            raise ValueError("shift components must be 0, 1 or 2")
        if len(self.shift) != len(self.index):
            raise ValueError("shift/index dimension mismatch")

    @property
    def side(self) -> float:
        return 2.0 ** (-self.level)

    @property
    def volume(self) -> float:
        return self.side ** len(self.index)

    @property
    def center(self) -> tuple[float, ...]:
        return tuple(cube_centers(self.level, a, m) for m, a in zip(self.index, self.shift))

    def lattice_ranges(self, domain: Domain) -> tuple[tuple[int, int], ...]:
        """Half-open [start, stop) sample-index ranges per axis, clipped."""
        if self.level > domain.level:
            raise ValueError("cube below grid resolution")
        return tuple(cube_lattice_ranges(domain, self.level, a, m) for m, a in zip(self.index, self.shift))


@dataclass
class Patch:
    """Dense values on the lattice box at `lo` of the shape of `arr`."""

    lo: tuple[int, ...]
    arr: np.ndarray


@dataclass
class Atom:
    """Normalized building block supported on a cube.

    kind is "local" (|Q| < 1, vanishing moments up to L) or "unit" (|Q| =
    1, no moment condition).
    """

    support: Cube
    domain: Domain
    patch: Patch
    q: float
    L: int
    kind: str


KINDS = ("local", "unit")


class _Rows(NamedTuple):
    """Atoms in ragged form: the values of atom i, row-major on its window
    box (lo[i], shape[i]), are the next size[i] entries of `values`."""

    values: np.ndarray  # (V,)
    size: np.ndarray  # (K,)
    lo: np.ndarray  # (K, n)
    shape: np.ndarray  # (K, n)
    level: np.ndarray  # (K,) support cube
    shift: np.ndarray  # (K, n)
    index: np.ndarray  # (K, n)
    kind: np.ndarray  # (K,) index into KINDS
    lam: np.ndarray  # (K,)

    @classmethod
    def join(cls, parts: list[_Rows], n: int) -> _Rows:
        """The rows of `parts` in order, typed as rows of dimension n."""
        ints, boxes = np.zeros(0, dtype=np.int64), np.zeros((0, n), dtype=np.int64)
        empty = (np.zeros(0), ints, boxes, boxes, ints, boxes, boxes, ints, np.zeros(0))
        return cls(*(np.concatenate(cols) for cols in zip(empty, *parts)))

    def take(self, sel: np.ndarray) -> _Rows:
        """The rows `sel`, in that order."""
        _, at = _expand((np.cumsum(self.size) - self.size)[sel], self.size[sel])
        return _Rows(self.values[at], *(col[sel] for col in self[1:]))

    def blocks(self):
        """The store in consecutive blocks of at most ATOM_BLOCK atoms,
        which bound the memory of work over all values."""
        ends = np.concatenate([[0], np.cumsum(self.size)]).tolist()
        for a in range(0, len(self.size), ATOM_BLOCK):
            b = min(a + ATOM_BLOCK, len(self.size))
            yield _Rows(self.values[ends[a]:ends[b]], *(col[a:b] for col in self[1:]))

    def atoms(self, d: Domain, q: float, L: int) -> list[Atom]:
        """One `Atom` per row, its patch a view into `values`."""
        bounds = np.concatenate([[0], np.cumsum(self.size)]).tolist()
        return [
            Atom(cube, d, Patch(tuple(lo), self.values[a:b].reshape(shp)), q, L, KINDS[kind])
            for cube, lo, shp, kind, a, b in zip(
                _cube_list(self.level, self.shift, self.index),
                self.lo.tolist(), self.shape.tolist(), self.kind.tolist(), bounds, bounds[1:],
            )
        ]


@dataclass(eq=False)
class AtomicDecomposition:
    """Atoms in ragged form: the level-pair atoms, then the good part's unit
    atoms (none for f = 0).

    `rows` holds the atoms' normalised values with per-atom window boxes,
    support cubes, kinds and coefficients, `tag` each atom's threshold
    exponent j, all read-only.  A level-pair atom is tagged with the lower
    threshold of its pair; a unit atom of the good part with the top
    threshold j_hi, whose level set is empty, so that 2^{j_hi} bounds M_N f.
    `lambdas` and `cubes` (level, shift, index) are the columns that
    `sequence_norm` takes; `atoms` lists `Atom` views, built on first
    access, each patch a view into the buffer.
    """

    domain: Domain
    rows: _Rows
    tag: np.ndarray
    q: float
    L: int
    v: float

    def __post_init__(self):
        for col in (*self.rows, self.tag):
            col.flags.writeable = False

    @property
    def lambdas(self) -> np.ndarray:
        return self.rows.lam

    @property
    def cubes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self.rows.level, self.rows.shift, self.rows.index

    @cached_property
    def atoms(self) -> list[Atom]:
        return self.rows.atoms(self.domain, self.q, self.L)


# ---------------------------------------------------------------------------
# sequence norms


def sequence_norm(
    lambdas, cubes, p: VariableExponent, w: Weight | None, v: float
) -> float:
    """Luxemburg norm of (sum |lambda_j|^v chi_{Q_j})^{1/v}, for the
    coefficients `lambdas` and the support cubes `cubes`, given as
    (level, shift, index) arrays with one row per coefficient.

    The strict v < p_minus hypothesis belongs to the decomposition theorems
    and is enforced there; the functional itself is well defined up to
    v = p_minus (where disjoint supports make the modular additive).
    """
    if not (0.0 < v <= 1.0) or v > p.p_minus:
        raise ValueError(f"v must lie in (0, p_minus] and (0, 1], got {v}")
    d = p.domain
    lam = np.asarray(lambdas, dtype=float).reshape(-1)
    level, shift, index = (np.asarray(c, dtype=np.int64) for c in cubes)
    shift, index = shift.reshape(-1, d.dim), index.reshape(-1, d.dim)
    if not lam.size == level.size == len(shift) == len(index):
        raise ValueError(f"{lam.size} coefficients for {level.size} support cubes")
    if not np.all(lam >= 0):  # nan fails too
        raise ValueError("coefficients must be nonnegative")
    if np.any(level > d.level):
        raise ValueError("cube below grid resolution")
    start, stop = cube_lattice_ranges(d, level.reshape(-1, 1), shift, index)
    shape = np.maximum(stop - start, 0)
    # np.add.at adds in index order: each point sums its cubes' terms in
    # their order; Python's ** on each coefficient, as numpy's power may
    # round differently
    acc = np.zeros(d.shape)
    terms = np.repeat([abs(x) ** v for x in lam.tolist()], np.prod(shape, axis=1))
    np.add.at(acc.reshape(-1), _box_points(d, start, shape), terms)
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
    # coarsest conceivable side: diam <= gap * dist <= gap * window dimeter
    k_lo = max(
        int(math.ceil(-math.log2(max(gap * 4 * d.half_width * math.sqrt(n), d.h)))),
        d.min_cube_level(),
    )
    # each cube's least distance to the complement, finest level first, by
    # the min pyramid of the shift-0 chain; only a cube inside the set has a
    # positive one, so the size test below also keeps cubes inside the set
    dist = _edt_cells(mask) * d.h
    dmin = [dist, *(s for *_, (s,) in climb_chain(chain_steps(d, (0,) * n, k_lo), (dist,), (np.minimum,)))]
    # one flag per cube of the level: inside a cube already taken
    taken = np.zeros((d.npts >> (d.level - k_lo),) * n, dtype=bool)
    level, index = [], []
    for k in range(k_lo, d.level + 1):
        for i in range(n if k > k_lo else 0):
            taken = taken.repeat(2, axis=i)
        ok = ~taken & (2.0 ** (-k) * math.sqrt(n) <= gap * dmin[d.level - k])
        found = np.stack(np.nonzero(ok), axis=1) - len(ok) // 2
        level.append(np.full(len(found), k, dtype=np.int64))
        index.append(found)
        taken |= ok
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


def whitney_geometry_report(omega: GridFunction, cubes: tuple[np.ndarray, np.ndarray, np.ndarray]) -> Report:
    """Two-sided bound check and dilated-cube overlap count for a cover
    given as (level, shift, index) arrays."""
    d = omega.domain
    level, shift, index = cubes
    gap = 2.0 ** (-d.dim - WHITNEY_GAP_EXP)
    dist = _edt_cells(omega.samples > 0.5).ravel() * d.h
    start, stop = cube_lattice_ranges(d, level[:, None], shift, index)
    cells = np.maximum(stop - start, 0)
    dmin = _segment_reduce(np.minimum, dist[_box_points(d, start, cells)], np.prod(cells, axis=1))
    diam = np.ldexp(math.sqrt(d.dim), -level)  # side * sqrt(n)
    violations = int(np.count_nonzero(~((diam <= gap * dmin) & (gap * dmin <= 4.0 * diam + 1e-12))))
    start, stop = _dilated_ranges(d, level[:, None], shift, index)
    overlap = np.bincount(_box_points(d, start, np.maximum(stop - start, 0)), minlength=d.npts**d.dim)
    return Report(
        "whitney_geometry",
        passed=violations == 0,
        quantities={
            "violations": float(violations),
            "cube_count": float(len(level)),
            "max_dilated_overlap": float(overlap.max()),
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
    if G.shape[1:] == (1, 1):  # order 0: no singular value decomposition
        if np.any(G <= 0.0):
            raise DegenerateBumpError("degenerate bump: nonpositive Gram block")
        return 1.0 / G
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
    `lo`/`shape` give each cube's window box, `start`/`stop` its lattice
    range."""

    groups: list[_Group]
    lo: np.ndarray  # (K, n)
    shape: np.ndarray  # (K, n)
    start: np.ndarray  # (K, n)
    stop: np.ndarray  # (K, n)

    def buffer(self, rows: str) -> np.ndarray:
        """The group rows `rows` ("eta" or "bad") of every cube, window
        after window in cube order and row-major on each window box."""
        size = np.prod(self.shape, axis=1)
        out = np.empty(int(size.sum()))
        for g in self.groups:
            out[_expand((np.cumsum(size) - size)[g.cube], size[g.cube])[1]] = getattr(g, rows).ravel()
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
    # one integer key per cube, mixed radix over the columns, so that keys
    # order as the rows do; a stable sort lists each group's cubes in order
    key = np.zeros(len(level), dtype=np.int64)
    for col in np.concatenate([level[:, None], shape, lo - start, shift], axis=1).T:
        col = col - col.min(initial=0)
        key = key * (int(col.max(initial=0)) + 1) + col
    order = np.argsort(key, kind="stable")
    members = np.split(order, np.flatnonzero(np.diff(key[order])) + 1) if order.size else []
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
    return _Cover(groups, lo, shape, start, stop)


# ---------------------------------------------------------------------------
# good/bad split at a single threshold


def cz_decompose(f: GridFunction, omega: GridFunction, L: int) -> tuple[GridFunction, tuple, tuple]:
    """Good/bad split of f on an open set, a level set of its grand maximal
    function, given by its lattice indicator omega.

    Returns the good part, the Whitney cubes as (level, shift, index)
    arrays, and (lo, shape, bad): each cube's window box and its bad part
    on that box, window after window in cube order and row-major on each
    box.  f = good + sum of the bad parts exactly; each bad part carries
    vanishing moments, against its own localization weight, up to order L.
    """
    d = f.domain
    cubes = _whitney_cover(omega.samples > 0.5, d)
    cov = _localise(f.samples, *cubes, d, L)
    dense = np.zeros(f.samples.size)
    for g in cov.groups:
        np.add.at(dense, g.point.ravel(), g.bad.ravel())
    good = GridFunction._adopt(d, f.samples - dense.reshape(d.shape))
    return good, cubes, (cov.lo, cov.shape, cov.buffer("bad"))


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


def _level_pieces(cov_j: _Cover, cov_n: _Cover, d: Domain):
    """Atoms of one level pair, each summed in its own box of one ragged
    buffer; `cov_j` holds at least one cube.

    Each owner's atom is its bad part b_{j,k} minus, for every next-level
    cube whose window meets the owner's, the owner's share of b_{j+1} re-
    projected against that cube's weight so the moments stay exact.  Its
    box bounds its own window and those cubes' windows.  Returns the boxes
    (lo, shape) in owner order, the buffer of summed values, box after box
    and row-major within a box, and the mask of buffer points that carry an
    entry (in 2-D the windows need not fill their box).
    """
    gj, gn = cov_j.groups, cov_n.groups
    nj = len(cov_j.lo)
    # the owner cube of every lattice point: a cover's cubes are disjoint
    owner_at = np.full(d.npts**d.dim, -1)
    cells = cov_j.stop - cov_j.start
    owner_at[_box_points(d, cov_j.start, cells)] = np.repeat(np.arange(nj), np.prod(cells, axis=1))
    # windows are cubes grown by one point a side, so an owner's window meets
    # a next-level window (a row; rows count on across the groups) exactly
    # when its cube meets that window grown by one more point
    first_row = np.cumsum([0] + [len(g.cube) for g in gn])
    rows = np.concatenate([np.zeros(0, dtype=np.int64)] + [g.cube for g in gn])
    glo = np.maximum(cov_n.lo[rows] - 1, 0)
    gshape = np.minimum(cov_n.lo[rows] + cov_n.shape[rows] + 1, d.npts) - glo
    owner = owner_at[_box_points(d, glo, gshape)]
    # the distinct (row, owner) keys in order (np.sort then a mask is many
    # times faster than np.unique here)
    key = np.sort((np.repeat(np.arange(rows.size), np.prod(gshape, axis=1)) * nj + owner)[owner >= 0])
    row, own = np.divmod(key[np.concatenate([[True], key[1:] != key[:-1]])[: key.size]], nj)
    pair_cut = np.searchsorted(row, first_row)  # each group's pairs are contiguous
    # every owner's weights, window after window
    eta_j = cov_j.buffer("eta")
    eta_size = np.prod(cov_j.shape, axis=1)
    eta_at = np.cumsum(eta_size) - eta_size
    lo, hi = cov_j.lo.copy(), cov_j.lo + cov_j.shape
    np.minimum.at(lo, own, cov_n.lo[rows[row]])
    np.maximum.at(hi, own, cov_n.lo[rows[row]] + cov_n.shape[rows[row]])
    shape = hi - lo
    size = np.prod(shape, axis=1)
    first = np.cumsum(size) - size
    stride = np.ones_like(shape)  # row-major within each box
    for i in range(shape.shape[1] - 2, -1, -1):
        stride[:, i] = stride[:, i + 1] * shape[:, i + 1]
    summed = np.zeros(int(size.sum()))
    covered = np.zeros(summed.size, dtype=bool)

    def add(own_b, wlo, wshape, live, vals):
        """Mark the windows (owner per row, window lo per row, one shape)
        in their owners' boxes and add the values of the `live` rows; the
        other rows are exact zeros, which leave every sum as it is."""
        at = first[own_b]
        for i in range(len(wshape)):
            at = at + (wlo[:, i] - lo[own_b, i]) * stride[own_b, i]
        at = at[:, None]
        for i, o in enumerate(np.unravel_index(np.arange(math.prod(wshape)), tuple(wshape))):
            at = at + o * stride[own_b, i, None]
        covered[at.ravel()] = True
        np.add.at(summed, at[live].ravel(), vals.ravel())

    # np.add.at adds in index order: at every point of its box, an owner's
    # atom takes its own entry first, then the corrections group by group
    for g in gj:
        live = g.bad.any(axis=1)
        add(g.cube, cov_j.lo[g.cube], cov_j.shape[g.cube[0]], live, g.bad[live])
    for i, g in enumerate(gn):
        f_minus_p = np.divide(g.bad, g.eta, out=np.zeros_like(g.bad), where=g.eta > 0)
        wshape = cov_n.shape[g.cube[0]]
        # f - P vanishes on a row whose bad part does, and so do its
        # corrections
        live_rows = g.bad.any(axis=1)
        # blocks of pairs bound the memory of the corrections
        for p0 in range(pair_cut[i], pair_cut[i + 1], CORRECTION_BLOCK):
            P = slice(p0, min(p0 + CORRECTION_BLOCK, pair_cut[i + 1]))
            r = row[P] - first_row[i]
            live = live_rows[r]
            r_live, o_live = r[live], own[P][live]
            # the owner's weight at each point of the window, 0 off its window
            wlo, olo, oshape = cov_n.lo[g.cube[r_live]], cov_j.lo[o_live], cov_j.shape[o_live]
            inside, flat = True, 0
            for ax, offs in enumerate(np.unravel_index(np.arange(g.eta.shape[1]), tuple(wshape))):
                at = (wlo[:, ax] - olo[:, ax])[:, None] + offs
                inside = inside & (at >= 0) & (at < oshape[:, ax, None])
                flat = flat * oshape[:, ax, None] + at
            cut = np.where(inside, eta_j[np.where(inside, eta_at[o_live, None] + flat, 0)], 0.0)
            weighted = cut * f_minus_p[r_live]
            eta = g.eta[r_live]
            corr = (weighted - _moment_fit(weighted, eta, g.mono, g.inv_gram[r_live])) * eta
            add(own[P], cov_n.lo[g.cube[r]], wshape, live, -corr)
    return lo, shape, summed, covered


def _coefficients(values, size, lo, shape, start, stop, d: Domain, q: float, w: Weight) -> np.ndarray:
    """Tight coefficient of each row of values on its box (lo, shape): its
    L^q_w norm over w(R)^{1/q} for the lattice range R = [start, stop), or
    at q = inf its sup, floored at LAMBDA_FLOOR."""
    if math.isinf(q):
        return np.maximum(np.maximum.reduceat(np.abs(values), np.cumsum(size) - size), LAMBDA_FLOOR)
    hn = d.h**d.dim
    ws = w.values.samples
    bounds = np.concatenate([[0], np.cumsum(size)]).tolist()
    lam = []
    for a, b, l, s, r0, r1 in zip(bounds, bounds[1:], lo.tolist(), shape.tolist(), start.tolist(), stop.tolist()):
        box = ws[tuple(slice(i, i + k) for i, k in zip(l, s))]
        norm = (hn * float(np.sum(np.abs(values[a:b].reshape(s)) ** q * box))) ** (1.0 / q)
        mass = (hn * float(np.sum(ws[tuple(slice(i, max(i, j)) for i, j in zip(r0, r1))]))) ** (1.0 / q)
        lam.append(max(norm / max(mass, LAMBDA_FLOOR), LAMBDA_FLOOR))
    return np.array(lam)


def _owner_atoms(summed, point, lo, shape, kept, domain: Domain, q: float, w: Weight) -> _Rows:
    """Normalized atoms of the kept boxes of `_level_pieces` (`point` holds
    each buffer entry's flat lattice index), each on its whole box; the
    support is the smallest cube around the nonzero values, and an
    oversized atom is cut into unit pieces."""
    d = domain
    size = np.prod(shape, axis=1)
    start = np.cumsum(size) - size
    # reduce over every box, then select
    nz = (summed != 0)[:, None]
    coords = np.stack(np.unravel_index(point, d.shape), axis=1)
    sup_lo = np.minimum.reduceat(np.where(nz, coords, d.npts), start)[kept]
    sup_hi = np.maximum.reduceat(np.where(nz, coords, -1), start)[kept]
    level, shift, index = smallest_enclosing_cubes(d, sup_lo - d.half_npts, sup_hi - d.half_npts)
    values, lo, shape, size = summed[np.repeat(kept, size)], lo[kept], shape[kept], size[kept]
    region = cube_lattice_ranges(d, level[:, None], shift, index)
    lam = _coefficients(values, size, lo, shape, *region, d, q, w)
    # |Q| < 1 is a local atom, |Q| = 1 a unit one
    rows = _Rows(values / np.repeat(lam, size), size, lo, shape, level, shift, index, (level <= 0).astype(np.int64), lam)
    return rows if np.all(level >= 0) else _split_unit_pieces(rows, d, q, w)


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
    The good part f minus the kept atoms follows as unit atoms, so the
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

    parts, tags = [], []
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
        lo, shape, summed, covered = _level_pieces(cov_j, cov_n, d)
        size = np.prod(shape, axis=1)
        start = np.cumsum(size) - size
        point = _box_points(d, lo, shape)
        peak = np.maximum.reduceat(np.abs(summed), start)
        # the largest |f| over the points that carry an entry
        f_max = np.maximum.reduceat(np.where(covered, f_abs[point], 0.0), start)
        kept = peak > np.maximum(KEEP_FLOOR * f_max, dust)
        keep = np.repeat(kept, size) & covered
        np.add.at(kept_sum, point[keep], summed[keep])
        if np.any(kept):
            parts.append(_owner_atoms(summed, point, lo, shape, kept, d, q, w))
            tags.append(np.full(len(parts[-1].lam), j, dtype=np.int64))
        cov_j = cov_n

    # the top threshold's level set is empty, so the level differences
    # telescope to the first threshold's bad part: f - kept is its good part.
    # It enters as one window-sized row on a cube of side 4T (at least 2)
    # that holds the window, and is cut into its unit pieces
    good = f.samples.ravel() - kept_sum
    one = np.ones((1, d.dim), dtype=np.int64)
    window = _Rows(good, np.array([good.size]), 0 * one, d.npts * one, np.array([min(d.min_cube_level(), -1)]),
                   one, -one, np.array([KINDS.index("unit")]), np.ones(1))
    parts.append(_split_unit_pieces(window, d, q, w))
    tags.append(np.full(len(parts[-1].lam), levels[-1] if levels else 0, dtype=np.int64))
    return AtomicDecomposition(d, _Rows.join(parts, d.dim), np.concatenate(tags), q, L, v)


def _split_unit_pieces(rows: _Rows, d: Domain, q: float, w: Weight) -> _Rows:
    """`rows` with every atom whose support exceeds a unit cube replaced, in
    its place, by its nonzero pieces on the level-0, shift-0 cubes that meet
    the support, row-major, each a renormalised unit atom on its cube's box."""
    n = d.dim
    big = np.flatnonzero(rows.level < 0)
    # per axis, the unit cubes from the one holding the support's first
    # sample to the one holding its last
    start, stop = cube_lattice_ranges(d, rows.level[big, None], rows.shift[big], rows.index[big])
    first, last = (cube_index(d, 0, 0, e - d.half_npts) for e in (start, stop - 1))
    count = last + 1 - first
    owner, t = _expand(np.zeros(big.size, dtype=np.int64), np.prod(count, axis=1))
    unit = np.zeros((t.size, n), dtype=np.int64)
    for i in range(n - 1, -1, -1):
        t, unit[:, i] = np.divmod(t, count[owner, i])
    unit += first[owner]
    owner = big[owner]
    start, stop = cube_lattice_ranges(d, 0, 0, unit)
    shape = np.maximum(stop - start, 0)
    size = np.prod(shape, axis=1)
    # each piece point's place in its atom's box, row-major; off the box it is 0
    src = np.repeat(owner, size)
    rel = np.stack(np.unravel_index(_box_points(d, start, shape), d.shape), axis=1) - rows.lo[src]
    inside = np.all((rel >= 0) & (rel < rows.shape[src]), axis=1)
    at = (np.cumsum(rows.size) - rows.size)[src]
    for i in range(n):
        at = at + np.where(inside, rel[:, i], 0) * np.prod(rows.shape[src, i + 1 :], axis=1)
    raw = np.where(inside, rows.lam[src] * rows.values[at], 0.0)
    live = np.bincount(np.repeat(np.arange(size.size), size)[raw != 0], minlength=size.size) > 0
    raw, size, start, stop, unit = raw[np.repeat(live, size)], size[live], start[live], stop[live], unit[live]
    lam = _coefficients(raw, size, start, stop - start, start, stop, d, q, w)
    zero = np.zeros_like(unit)
    kind = np.full(size.size, KINDS.index("unit"))
    pieces = _Rows(raw / np.repeat(lam, size), size, start, stop - start, zero[:, 0], zero, unit, kind, lam)
    rest = np.flatnonzero(rows.level >= 0)
    order = np.argsort(np.concatenate([rest, owner[live]]), kind="stable")
    return _Rows.join([rows.take(rest), pieces], n).take(order)


def synthesize(dec: AtomicDecomposition) -> GridFunction:
    """sum of lambda_j a_j over every atom, rendered on the lattice."""
    d = dec.domain
    dense = np.zeros(d.shape)
    # np.add.at adds in index order: every point sums its atoms in atom order
    for b in dec.rows.blocks():
        np.add.at(dense.reshape(-1), _box_points(d, b.lo, b.shape), np.repeat(b.lam, b.size) * b.values)
    return GridFunction._adopt(d, dense)


# ---------------------------------------------------------------------------
# validation and probes


def validate_atom(a: Atom, w: Weight | None, p: VariableExponent | None = None) -> Report:
    """Support, size and moment margins of one atom."""
    d = a.domain
    hn = d.h ** d.dim
    mag = np.abs(a.patch.arr)
    if math.isinf(a.q):
        size = float(mag.max()) if mag.size else 0.0
        budget = 1.0
    else:
        box = tuple(slice(l, l + s) for l, s in zip(a.patch.lo, a.patch.arr.shape))
        size = (hn * float(np.sum(mag**a.q * (1.0 if w is None else w.values.samples[box])))) ** (1.0 / a.q)
        # w(Q) over the support's lattice box
        cube = tuple(slice(i, max(i, j)) for i, j in a.support.lattice_ranges(d))
        budget = (a.support.volume if w is None else hn * float(np.sum(w.values.samples[cube]))) ** (1.0 / a.q)
    size_ok = size <= budget * (1.0 + 1e-6)
    moments = a.kind == "local" and a.L >= 0
    l1 = hn * float(mag.sum()) if moments else 0.0
    # the lattice outside the patch is zero
    mag[tuple(
        slice(max(start - lo, 0), max(stop - lo, start - lo, 0))
        for (start, stop), lo in zip(a.support.lattice_ranges(d), a.patch.lo)
    )] = 0.0
    support_leak = float(mag.max(initial=0.0))
    moment_worst = 0.0
    if moments:
        axes = [d.axis()[l : l + k] - c for l, k, c in zip(a.patch.lo, mag.shape, a.support.center)] if a.L > 0 else []
        for alpha in multi_indices(d.dim, a.L):
            if any(alpha):
                mono = reduce(np.multiply, np.ix_(*[ax**k for ax, k in zip(axes, alpha)]))
                mom = hn * float((a.patch.arr * mono).sum())
            else:  # the order-0 monomial is 1
                mom = hn * float(a.patch.arr.sum())
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


def _segment_reduce(ufunc, values: np.ndarray, size: np.ndarray) -> np.ndarray:
    """`ufunc` reduced over each atom's run of `values`; 0 for an atom
    without values."""
    out = np.zeros(size.size)
    some = size > 0
    if values.size:
        out[some] = ufunc.reduceat(values, (np.cumsum(size) - size)[some])
    return out


def validate_atoms(dec: AtomicDecomposition, w: Weight | None) -> np.ndarray:
    """Verdict per atom of `dec.atoms`, from the ragged store: no nonzero
    value outside the support cube's lattice box, the L^q_w size within
    w(Q)^{1/q} (1 at q = inf), and for a local atom every moment up to order
    L within MOMENT_TOL * side^{|alpha|} of its L^1 norm, about its centre.
    It passes exactly the atoms that `validate_atom` passes."""
    d = dec.domain
    hn = d.h ** d.dim
    ws = None if w is None else w.values.samples.ravel()
    verdicts = []
    for r in dec.rows.blocks():
        atom = np.repeat(np.arange(r.size.size), r.size)
        point = _box_points(d, r.lo, r.shape)
        coords = np.stack(np.unravel_index(point, d.shape), axis=1)
        start, stop = cube_lattice_ranges(d, r.level[:, None], r.shift, r.index)
        stop = np.maximum(start, stop)
        outside = np.any((coords < start[atom]) | (coords >= stop[atom]), axis=1)
        leak = np.bincount(atom[outside & (r.values != 0)], minlength=r.size.size) > 0
        mag = np.abs(r.values)
        if math.isinf(dec.q):
            size, budget = _segment_reduce(np.maximum, mag, r.size), 1.0
        elif ws is None:
            size = (hn * _segment_reduce(np.add, mag**dec.q, r.size)) ** (1.0 / dec.q)
            budget = 2.0 ** (-d.dim * r.level / dec.q)  # |Q|^{1/q}
        else:
            size = (hn * _segment_reduce(np.add, mag**dec.q * ws[point], r.size)) ** (1.0 / dec.q)
            # w(Q) over the support's lattice box
            cells = stop - start
            mass = hn * _segment_reduce(np.add, ws[_box_points(d, start, cells)], np.prod(cells, axis=1))
            budget = mass ** (1.0 / dec.q)
        ok = ~leak & (size <= budget * (1.0 + 1e-6))
        local = r.kind == KINDS.index("local")
        if dec.L >= 0 and np.any(local):
            l1 = np.maximum(hn * _segment_reduce(np.add, mag, r.size), 1e-300)
            # the monomials about each support's centre; order 0 is 1
            u = d.axis()[coords] - cube_centers(r.level[:, None], r.shift, r.index)[atom] if dec.L > 0 else None
            worst = np.zeros(r.size.size)
            for alpha in multi_indices(d.dim, dec.L):
                terms = r.values * np.prod(u**alpha, axis=1) if any(alpha) else r.values
                mom = hn * _segment_reduce(np.add, terms, r.size)
                worst = np.maximum(worst, np.abs(mom) / (MOMENT_TOL * l1 * 2.0 ** (-r.level * sum(alpha))))
            ok &= ~local | (worst <= 1.0)
        verdicts.append(ok)
    return np.concatenate([np.zeros(0, dtype=bool), *verdicts])


# ---------------------------------------------------------------------------
# serialization


def save_decomposition(dec: AtomicDecomposition, path: str | Path) -> None:
    """JSON index, one entry per atom, with a little-endian float64 binary
    sidecar for the atom buffer."""
    path = Path(path)
    sidecar = path.with_suffix(".bin")
    r = dec.rows
    sidecar.write_bytes(r.values.astype("<f8").tobytes())
    q = None if math.isinf(dec.q) else dec.q
    columns = zip(
        r.lam.tolist(), r.level.tolist(), r.shift.tolist(), r.index.tolist(), (KINDS[k] for k in r.kind.tolist()),
        (8 * (np.cumsum(r.size) - r.size)).tolist(), r.shape.tolist(), r.lo.tolist(),
    )
    entries = [
        {"lambda": lam, "cube": {"k": k, "a": a, "m": m}, "q": q, "L": dec.L, "kind": kind,
         "values_ref": {"offset": offset, "shape": shape, "lo": lo}}
        for lam, k, a, m, kind, offset, shape, lo in columns
    ]
    doc = {
        "domain": {
            "dim": dec.domain.dim,
            "half_width": dec.domain.half_width,
            "level": dec.domain.level,
        },
        "q": q,
        "L": dec.L,
        "v": dec.v,
        "level_tags": dec.tag.tolist(),
        "sidecar": sidecar.name,
        "atoms": entries,
    }
    path.write_text(json.dumps(doc, indent=1, sort_keys=True))


def load_decomposition(path: str | Path) -> AtomicDecomposition:
    path = Path(path)
    doc = json.loads(path.read_text())
    dom = Domain(**doc["domain"])
    raw = np.frombuffer((path.parent / doc["sidecar"]).read_bytes(), dtype="<f8").astype(float)
    n = dom.dim
    entries = doc["atoms"]
    unknown = [e["kind"] for e in entries if e["kind"] not in KINDS]
    if unknown:
        raise ValueError(f"unknown atom kind {unknown[0]!r}: a decomposition holds {' and '.join(KINDS)} atoms")

    def column(*keys, dtype=np.int64, width=n):
        return np.array([reduce(dict.get, keys, e) for e in entries], dtype=dtype).reshape(-1, width)

    shape = column("values_ref", "shape")
    size = np.prod(shape, axis=1)
    _, at = _expand(column("values_ref", "offset", width=1)[:, 0] // 8, size)
    kind = np.array([KINDS.index(e["kind"]) for e in entries], dtype=np.int64)
    rows = _Rows(
        raw[at], size, column("values_ref", "lo"), shape, column("cube", "k", width=1)[:, 0],
        column("cube", "a"), column("cube", "m"), kind, column("lambda", dtype=float, width=1)[:, 0],
    )
    q = math.inf if doc["q"] is None else doc["q"]
    tag = np.array(doc["level_tags"], dtype=np.int64)
    return AtomicDecomposition(dom, rows, tag, q, doc["L"], doc["v"])
