"""Atoms, sequence norms and the Whitney-based atomic decomposition.

The decomposition machinery follows the classical good/bad split: level
sets of the grand maximal function are covered by Whitney cubes whose size
is a fixed small fraction (2^{-n-6}) of their distance to the complement,
a near-partition of unity localizes f minus its moment projection on each
cube, and the multi-level assembly over thresholds 2^j turns the level
differences into atoms with exact vanishing moments via per-pair
re-projections.  Reconstruction is exact by construction: whatever the
cross terms fail to cancel is folded into the good part.

Atom payloads are stored as windowed patches, not full-lattice arrays; a
decomposition at default resolution holds thousands of atoms.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import product as iproduct
from pathlib import Path

import numpy as np
from scipy.ndimage import distance_transform_edt

from .exponent import VariableExponent
from .grid import Cube, Domain, GridFunction, smallest_enclosing_cube
from .hardy import TestDictionary, grand_maximal
from .maximal import local_maximal
from .norms import _luxemburg_solve, luxemburg_norm
from .report import Report
from .weights import Weight, q_w_estimate

__all__ = [
    "Atom",
    "AtomicDecomposition",
    "Patch",
    "validate_atom",
    "sequence_norm",
    "sequence_norm_dagger",
    "whitney_decompose",
    "partition_of_unity",
    "moment_projection",
    "PolynomialPatch",
    "cz_decompose",
    "atomic_decompose",
    "synthesize",
    "bad_part_majorant_check",
    "save_decomposition",
    "load_decomposition",
]

WHITNEY_GAP_EXP = 6  # diam(Q) <= 2^{-n-6} dist(Q, complement)
MOMENT_TOL = 1e-8
LAMBDA_FLOOR = 1e-300


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

    def materialize(self, domain: Domain) -> GridFunction:
        dense = np.zeros(domain.shape)
        self.add_into(dense)
        return GridFunction(domain, dense)

    def norm_lq(self, domain: Domain, q: float, w: Weight | None) -> float:
        if math.isinf(q):
            return float(np.max(np.abs(self.arr))) if self.arr.size else 0.0
        ws = 1.0 if w is None else w.values.samples[self.slices()]
        hn = domain.h ** domain.dim
        return (hn * float(np.sum(np.abs(self.arr) ** q * ws))) ** (1.0 / q)

    def l1(self, domain: Domain) -> float:
        return domain.h ** domain.dim * float(np.sum(np.abs(self.arr)))


def _union_patch(patches: list[tuple[Patch, float]], dim: int) -> Patch:
    los = np.array([p.lo for p, _ in patches])
    his = np.array([[l + s for l, s in zip(p.lo, p.arr.shape)] for p, _ in patches])
    lo = los.min(axis=0)
    hi = his.max(axis=0)
    arr = np.zeros(tuple(hi - lo))
    for p, scale in patches:
        sl = tuple(slice(a - b, a - b + s) for a, b, s in zip(p.lo, lo, p.arr.shape))
        arr[sl] += scale * p.arr
    return Patch(tuple(int(v) for v in lo), arr)


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

    @property
    def values(self) -> GridFunction:
        return self.patch.materialize(self.domain)

    def lq_norm(self, w: Weight | None) -> float:
        return self.patch.norm_lq(self.domain, self.q, w)


@dataclass
class AtomicDecomposition:
    """Coefficient/atom/cube triples plus the optional single-atom part.

    `remainder` holds the unassigned good part when no single atom is
    requested; synthesis does not include it, so its norm measures the
    truncation honesty of the no-single-atom branch.
    """

    domain: Domain
    lambdas: list[float]
    atoms: list[Atom]
    cubes: list[Cube]
    q: float
    L: int
    v: float
    single_part: tuple[float, Atom] | None = None
    remainder: GridFunction | None = None
    level_tags: list[int] = field(default_factory=list)

    def __post_init__(self):
        if not (len(self.lambdas) == len(self.atoms) == len(self.cubes)):
            raise ValueError("lambdas, atoms and cubes must have equal length")


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
        rngs = cube.lattice_ranges(d)
        sl = tuple(slice(a, b) for a, b in rngs)
        acc[sl] += abs(lam) ** v
    return luxemburg_norm(GridFunction(d, acc ** (1.0 / v)), p, w)


def sequence_norm_dagger(lambdas, cubes, p: VariableExponent, w: Weight | None) -> float:
    """inf of lam > 0 with sum_j int_{Q_j} ((|lambda_j|/lam) chi)^{p} w <= 1.

    Overlapping cubes contribute separately, so this is not the modular of
    any single function; their points form one group of the Luxemburg solve.
    """
    d = p.domain
    hn = d.h ** d.dim
    lam_pts, p_pts, w_pts = [], [], []
    ws = None if w is None else w.values.samples
    for lam, cube in zip(lambdas, cubes):
        if lam == 0:
            continue
        sl = tuple(slice(a, b) for a, b in cube.lattice_ranges(d))
        p_pts.append(p.values.samples[sl].ravel())
        w_pts.append((np.ones(p_pts[-1].size) if ws is None else ws[sl].ravel()))
        lam_pts.append(np.full(p_pts[-1].size, abs(lam)))
    if not lam_pts:
        return 0.0
    return _luxemburg_solve(
        np.concatenate(lam_pts), np.concatenate(p_pts), hn * np.concatenate(w_pts)
    ).item()


# ---------------------------------------------------------------------------
# Whitney machinery


def _edt_cells(mask: np.ndarray) -> np.ndarray:
    """Euclidean distance (in cells) to the complement, window edge counts
    as complement."""
    padded = np.pad(mask, 1, constant_values=False)
    d = distance_transform_edt(padded)
    sl = tuple(slice(1, -1) for _ in range(mask.ndim))
    return d[sl]


def whitney_decompose(omega: GridFunction) -> list[Cube]:
    """Maximal standard-dyadic cubes inside the open set with the two-sided
    size/distance bound diam <= 2^{-n-6} dist <= 4 diam.

    The open set is given by its lattice indicator.  Cubes at the finest
    level whose required size would fall below the grid step are left
    uncovered (a boundary band of width about 2^{n+6} h).
    """
    d = omega.domain
    mask = omega.samples > 0.5
    if not np.any(mask):
        return []
    if np.all(mask):
        raise ValueError("no exterior: the set must be a strict subset of the window")
    n = d.dim
    gap = 2.0 ** (-n - WHITNEY_GAP_EXP)
    dist = _edt_cells(mask) * d.h
    shift = (0,) * n
    taken = np.zeros(d.shape, dtype=bool)
    out: list[Cube] = []
    # coarsest conceivable side: diam <= gap * dist <= gap * window dimeter
    k_lo = max(
        int(math.ceil(-math.log2(max(gap * 4 * d.half_width * math.sqrt(n), d.h)))),
        d.min_cube_level(),
    )
    for k in range(k_lo, d.level + 1):
        side = 2.0 ** (-k)
        run = 1 << (d.level - k)
        ncubes = d.npts // run
        diam = side * math.sqrt(n)
        if n == 1:
            inside = mask.reshape(ncubes, run).all(axis=1)
            dmin = dist.reshape(ncubes, run).min(axis=1)
            free = ~taken.reshape(ncubes, run).any(axis=1)
            ok = inside & free & (diam <= gap * dmin)
            for flat in np.nonzero(ok)[0]:
                out.append(Cube(k, shift, (int(flat) - ncubes // 2,)))
            taken.reshape(ncubes, run)[ok] = True
        else:
            resh = mask.reshape(ncubes, run, ncubes, run)
            inside = resh.all(axis=(1, 3))
            dmin = dist.reshape(ncubes, run, ncubes, run).min(axis=(1, 3))
            free = ~taken.reshape(ncubes, run, ncubes, run).any(axis=(1, 3))
            ok = inside & free & (diam <= gap * dmin)
            sel = np.nonzero(ok)
            for fx, fy in zip(*sel):
                out.append(Cube(k, shift, (int(fx) - ncubes // 2, int(fy) - ncubes // 2)))
            tk = taken.reshape(ncubes, run, ncubes, run)
            tk[sel[0], :, sel[1], :] = True
    return out


def whitney_geometry_report(omega: GridFunction, cubes: list[Cube]) -> Report:
    """Two-sided bound check and dilated-cube overlap count for a cover."""
    d = omega.domain
    n = d.dim
    gap = 2.0 ** (-n - WHITNEY_GAP_EXP)
    dist = _edt_cells(omega.samples > 0.5) * d.h
    violations = 0
    overlap = np.zeros(d.shape, dtype=np.int32)
    h = d.h
    m0 = d.half_npts
    for c in cubes:
        sl = tuple(slice(a, b) for a, b in c.lattice_ranges(d))
        dmin = float(np.min(dist[sl]))
        diam = c.side * math.sqrt(n)
        if not (diam <= gap * dmin <= 4.0 * diam + 1e-12):
            violations += 1
        box = c.box().dilate(1.0 + 2.0 ** (-n - 10))
        idx = tuple(
            slice(
                max(int(math.ceil(lo / h)) + m0, 0),
                min(int(math.ceil(hi / h)) + m0, d.npts),
            )
            for lo, hi in zip(box.lo, box.hi)
        )
        overlap[idx] += 1
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


def _bump_patch(cube: Cube, domain: Domain) -> Patch:
    """Plateau profile between the two dilations of the cube, windowed.

    The ramp width is sub-lattice at every realizable cube size, so on the
    lattice this is the cube indicator plus the shared corner points of
    the closed inner dilation.
    """
    n = domain.dim
    s1 = 0.5 * cube.side * (1.0 + 2.0 ** (-n - 11))
    s2 = 0.5 * cube.side * (1.0 + 2.0 ** (-n - 10))
    rngs = cube.lattice_ranges(domain)
    lo = tuple(max(a - 1, 0) for a, _ in rngs)
    hi = tuple(min(b + 1, domain.npts) for _, b in rngs)
    axes = []
    x = domain.axis()
    for dim_i in range(n):
        xs = x[lo[dim_i] : hi[dim_i]]
        dist = np.abs(xs - cube.center[dim_i])
        axes.append(np.clip((s2 - dist) / (s2 - s1), 0.0, 1.0))
    if n == 1:
        arr = axes[0]
    else:
        arr = axes[0][:, None] * axes[1][None, :]
    return Patch(lo, arr.copy())


def partition_of_unity(cubes: list[Cube], domain: Domain) -> list[GridFunction]:
    """Near-partition subordinate to the dilated Whitney cubes.

    Returns one function per cube; they sum to exactly 1 on the covered
    region (shared corner points are split evenly between neighbors).
    """
    patches = [_bump_patch(c, domain) for c in cubes]
    total = np.zeros(domain.shape)
    for p in patches:
        p.add_into(total)
    out = []
    for p in patches:
        sl = p.slices()
        denom = np.where(total[sl] > 0, total[sl], 1.0)
        eta = np.zeros(domain.shape)
        eta[sl] = p.arr / denom
        out.append(GridFunction(domain, eta))
    return out


def _eta_patches(cubes: list[Cube], domain: Domain) -> list[Patch]:
    patches = [_bump_patch(c, domain) for c in cubes]
    total = np.zeros(domain.shape)
    for p in patches:
        p.add_into(total)
    for p in patches:
        sl = p.slices()
        denom = np.where(total[sl] > 0, total[sl], 1.0)
        p.arr = p.arr / denom
    return patches


# ---------------------------------------------------------------------------
# moment projection


def _alphas(dim: int, L: int) -> list[tuple[int, ...]]:
    if L < 0:
        return []
    return [a for a in iproduct(range(L + 1), repeat=dim) if sum(a) <= L]


@dataclass
class PolynomialPatch:
    """Polynomial in coordinates centered/scaled per cube, with its weight
    window; evaluate() renders it on an index window."""

    coeffs: np.ndarray
    alphas: list[tuple[int, ...]]
    center: tuple[float, ...]
    scale: float

    def evaluate(self, domain: Domain, lo: tuple[int, ...], shape: tuple[int, ...]) -> np.ndarray:
        x = domain.axis()
        axes = [
            (x[lo[i] : lo[i] + shape[i]] - self.center[i]) / self.scale
            for i in range(domain.dim)
        ]
        out = np.zeros(shape)
        for c, a in zip(self.coeffs, self.alphas):
            if domain.dim == 1:
                out += c * axes[0] ** a[0]
            else:
                out += c * (axes[0] ** a[0])[:, None] * (axes[1] ** a[1])[None, :]
        return out


class DegenerateBumpError(ValueError):
    pass


def _project_patch(
    f_win: np.ndarray,
    eta: Patch,
    L: int,
    center: tuple[float, ...],
    scale: float,
    domain: Domain,
    gram_cache: dict | None = None,
    cache_key=None,
) -> PolynomialPatch:
    """Least-moments projection: P in P_L with int (f - P) u^b eta = 0."""
    alphas = _alphas(domain.dim, L)
    if not alphas:
        return PolynomialPatch(np.zeros(0), [], center, scale)
    x = domain.axis()
    axes = [
        (x[eta.lo[i] : eta.lo[i] + eta.arr.shape[i]] - center[i]) / scale
        for i in range(domain.dim)
    ]

    def mono(a):
        if domain.dim == 1:
            return axes[0] ** a[0]
        return (axes[0] ** a[0])[:, None] * (axes[1] ** a[1])[None, :]

    monos = [mono(a) for a in alphas]
    solver = None
    if gram_cache is not None and cache_key in gram_cache:
        solver = gram_cache[cache_key]
    if solver is None:
        G = np.empty((len(alphas), len(alphas)))
        for i, mi in enumerate(monos):
            for j in range(i, len(monos)):
                G[i, j] = G[j, i] = float(np.sum(mi * monos[j] * eta.arr))
        if np.linalg.cond(G) > 1e10:
            raise DegenerateBumpError("degenerate bump: moment Gram system ill conditioned")
        solver = np.linalg.inv(G)
        if gram_cache is not None:
            gram_cache[cache_key] = solver
    rhs = np.array([float(np.sum(f_win * m * eta.arr)) for m in monos])
    return PolynomialPatch(solver @ rhs, alphas, center, scale)


def moment_projection(f: GridFunction, eta: GridFunction, L: int) -> PolynomialPatch:
    """Public projection: P in P_L with int (f - P) x^b eta dx = 0, |b| <= L.

    Monomials are centered at the weight's support center and scaled by
    half its support width, which keeps the Gram system well conditioned.
    """
    d = f.domain
    nz = np.nonzero(eta.samples)
    if nz[0].size == 0:
        raise ValueError("weight has empty support")
    lo = tuple(int(np.min(ix)) for ix in nz)
    hi = tuple(int(np.max(ix)) + 1 for ix in nz)
    sl = tuple(slice(a, b) for a, b in zip(lo, hi))
    patch = Patch(lo, eta.samples[sl].copy())
    x = d.axis()
    center = tuple((x[a] + x[b - 1]) / 2.0 for a, b in zip(lo, hi))
    scale = max(max((x[b - 1] - x[a]) / 2.0 for a, b in zip(lo, hi)), d.h)
    return _project_patch(f.samples[sl], patch, L, center, scale, d)


# ---------------------------------------------------------------------------
# good/bad split at a single threshold


@dataclass
class _CoverData:
    """Whitney cover of one level set with batched localization data.

    Cubes are grouped into same-size blocks; within a block the scaled
    monomial matrix is shared, so Grams, projections and bad parts are
    single batched contractions.
    """

    cubes: list[Cube]
    eta_lo: np.ndarray  # (K,) window starts (1-D path)
    win: np.ndarray  # (K,) window lengths
    etas: list[np.ndarray]
    bads: list[np.ndarray]
    monos: list[np.ndarray | None]
    inv_grams: list[np.ndarray | None]
    order: np.ndarray  # argsort of eta_lo
    sorted_starts: np.ndarray
    sorted_stops: np.ndarray

    def eta_patch(self, k: int) -> Patch:
        return Patch((int(self.eta_lo[k]),), self.etas[k])

    def bad_patch(self, k: int) -> Patch:
        return Patch((int(self.eta_lo[k]),), self.bads[k])

    def owners_of(self, lo: int, hi: int) -> np.ndarray:
        """Indices of cubes whose eta window meets [lo, hi)."""
        i0 = int(np.searchsorted(self.sorted_stops, lo, side="right"))
        i1 = int(np.searchsorted(self.sorted_starts, hi, side="left"))
        return self.order[i0:i1]

    def project_onto(self, k: int, weighted_f: np.ndarray) -> np.ndarray:
        """Projection values (on the window of cube k) of weighted_f against
        this cube's localization weight."""
        if self.monos[k] is None:
            return np.zeros_like(weighted_f)
        rhs = self.monos[k].T @ (weighted_f * self.etas[k])
        return self.monos[k] @ (self.inv_grams[k] @ rhs)


def _build_cover_1d(f: GridFunction, cubes: list[Cube], L: int) -> _CoverData:
    d = f.domain
    alphas = _alphas(1, L)
    na = len(alphas)
    patches = [_bump_patch(c, d) for c in cubes]
    total = np.zeros(d.shape)
    for pch in patches:
        pch.add_into(total)
    K = len(cubes)
    eta_lo = np.array([pch.lo[0] for pch in patches], dtype=np.int64)
    win = np.array([pch.arr.shape[0] for pch in patches], dtype=np.int64)
    etas: list[np.ndarray] = [None] * K
    bads: list[np.ndarray] = [None] * K
    monos: list[np.ndarray | None] = [None] * K
    inv_grams: list[np.ndarray | None] = [None] * K
    # group by (level, window length, clip offset) so each block shares its
    # relative lattice-offset pattern and hence its monomial matrix
    groups: dict[tuple[int, int, int], list[int]] = {}
    for i, (c, pch) in enumerate(zip(cubes, patches)):
        rel = pch.lo[0] - c.lattice_ranges(d)[0][0]
        groups.setdefault((c.level, pch.arr.shape[0], rel), []).append(i)
    x = d.axis()
    for (lvl, wlen, _rel), idxs in groups.items():
        rows = np.stack([patches[i].arr for i in idxs])
        lo_arr = eta_lo[idxs]
        gather = lo_arr[:, None] + np.arange(wlen)[None, :]
        tot = total[gather]
        rows = rows / np.where(tot > 0, tot, 1.0)
        f_rows = f.samples[gather]
        side = 2.0 ** (-lvl)
        centers = np.array([cubes[i].center[0] for i in idxs])
        if na:
            u = (x[gather] - centers[:, None]) / (side / 2.0)
            # relative offsets are identical across the block
            M = np.stack([u[0] ** a[0] for a in alphas], axis=1)
            G = np.einsum("wa,kw,wb->kab", M, rows, M)
            if np.any(np.linalg.cond(G) > 1e10):
                raise DegenerateBumpError("degenerate bump: ill conditioned Gram block")
            invG = np.linalg.inv(G)
            rhs = np.einsum("kw,wa->ka", f_rows * rows, M)
            coef = np.einsum("kab,kb->ka", invG, rhs)
            pvals = np.einsum("ka,wa->kw", coef, M)
        else:
            M = None
            invG = None
            pvals = 0.0
        brows = (f_rows - pvals) * rows
        for pos, i in enumerate(idxs):
            etas[i] = rows[pos]
            bads[i] = brows[pos]
            monos[i] = M
            inv_grams[i] = None if invG is None else invG[pos]
    order = np.argsort(eta_lo, kind="stable")
    return _CoverData(
        cubes,
        eta_lo,
        win,
        etas,
        bads,
        monos,
        inv_grams,
        order,
        eta_lo[order],
        (eta_lo + win)[order],
    )


def _bad_parts(
    f: GridFunction, cubes: list[Cube], L: int
) -> tuple[list[Patch], list[Patch]]:
    """(f - P_k) eta_k patches per Whitney cube plus the eta patches."""
    d = f.domain
    if d.dim == 1:
        cov = _build_cover_1d(f, cubes, L)
        return (
            [cov.bad_patch(i) for i in range(len(cubes))],
            [cov.eta_patch(i) for i in range(len(cubes))],
        )
    etas = _eta_patches(cubes, d)
    bads: list[Patch] = []
    for cube, eta in zip(cubes, etas):
        f_win = f.samples[eta.slices()]
        proj = _project_patch(f_win, eta, L, cube.center, cube.side / 2.0, d)
        pvals = proj.evaluate(d, eta.lo, eta.arr.shape) if proj.coeffs.size else 0.0
        bads.append(Patch(eta.lo, (f_win - pvals) * eta.arr))
    return bads, etas


def cz_decompose(
    f: GridFunction, lam: float, dic: TestDictionary, L: int
) -> tuple[GridFunction, list[tuple[Cube, GridFunction]]]:
    """Good/bad split at one threshold of the grand maximal function.

    f = good + sum of bad parts exactly; each bad part carries vanishing
    moments, against its own localization weight, up to order L.
    """
    d = f.domain
    mn = grand_maximal(f, dic, "MN")
    mask = mn.samples > lam
    if np.all(mask):
        raise ValueError("no exterior: threshold below the maximal function minimum")
    omega = GridFunction(d, mask.astype(float))
    cubes = whitney_decompose(omega)
    bads, _ = _bad_parts(f, cubes, L)
    dense = np.zeros(d.shape)
    for b in bads:
        b.add_into(dense)
    good = GridFunction(d, f.samples - dense)
    return good, [(c, b.materialize(d)) for c, b in zip(cubes, bads)]


# ---------------------------------------------------------------------------
# multi-level atomic decomposition


def _level_thresholds(mn: np.ndarray, max_levels: int) -> list[int]:
    top = float(np.max(mn))
    if top <= 0:
        return []
    j_hi = int(math.ceil(math.log2(top)))
    positive = mn[mn > 0]
    j_lo = int(math.floor(math.log2(float(np.min(positive)))))
    j_lo = max(j_lo, j_hi - max_levels)
    return list(range(j_lo, j_hi + 1))


def atomic_decompose(
    f: GridFunction,
    p: VariableExponent,
    w: Weight,
    dic: TestDictionary,
    q: float = math.inf,
    L: int | None = None,
    v: float | None = None,
    include_single: bool = True,
    max_levels: int = 16,
) -> AtomicDecomposition:
    """Multi-level atomic decomposition driven by thresholds 2^j.

    Atoms at level j are the Whitney-localized pieces of the difference of
    consecutive good parts, re-projected pairwise so every local atom keeps
    exact vanishing moments; coefficients absorb the tight normalization.
    The admissibility gates on (q, L, v) follow the standing assumptions
    of the equivalence theorem and raise with the violated inequality.
    """
    d = f.domain
    q_w = q_w_estimate(w)
    if v is None:
        v = min(1.0, 0.9 * p.p_minus)
    if not (0.0 < v <= 1.0 and v < p.p_minus):
        raise ValueError(f"admissibility violated: need 0 < v <= 1 and v < p_minus, got v={v}")
    moment_floor = math.floor(d.dim * (q_w / v - 1.0))
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
    levels = _level_thresholds(mn, max_levels)
    if not levels:
        return AtomicDecomposition(d, [], [], [], q, L, v)

    # Whitney cover per threshold 2^j; identical masks share one cover, and
    # pairs of identical masks are skipped outright (their difference is 0)
    masks = [mn > 2.0**j for j in levels]
    cover_cache: dict[bytes, _CoverData | None] = {}
    per_level: list[_CoverData | None] = []
    for mask in masks:
        key = mask.tobytes()
        if key not in cover_cache:
            if not np.any(mask):
                cover_cache[key] = None
            else:
                cubes = whitney_decompose(GridFunction(d, mask.astype(float)))
                cover_cache[key] = (
                    _build_cover_1d(f, cubes, L) if d.dim == 1 else None
                )
                if cover_cache[key] is None and cubes:
                    raise NotImplementedError(
                        "atomic decomposition batching is one dimensional"
                    )
        per_level.append(cover_cache[key])

    lambdas: list[float] = []
    atoms: list[Atom] = []
    sup_cubes: list[Cube] = []
    tags: list[int] = []
    residual = np.zeros(d.shape)  # sum_j (sum_k A_{j,k} - (b_j - b_{j+1}))
    f_scale = max(f.sup(), 1e-300)

    for li in range(len(levels) - 1):
        j = levels[li]
        cov_j = per_level[li]
        cov_n = per_level[li + 1]
        if cov_j is None and cov_n is None:
            continue
        if cov_j is cov_n:
            continue  # identical level sets: the difference vanishes exactly
        # start from b_{j,k}; subtract the overlapping next-level pieces with
        # moment-restoring re-projection per pair
        nj = len(cov_j.cubes) if cov_j else 0
        pieces: list[list[tuple[Patch, float]]] = [
            [(cov_j.bad_patch(i), 1.0)] for i in range(nj)
        ]
        residual_level = np.zeros(d.shape)
        if cov_n:
            for i in range(len(cov_n.cubes)):
                cov_n.bad_patch(i).add_into(residual_level, -1.0)  # -(b_{j+1})
        for i in range(nj):
            cov_j.bad_patch(i).add_into(residual_level)  # + b_j
        for kk in range(len(cov_n.cubes) if cov_n else 0):
            eta_n = cov_n.eta_patch(kk)
            b_n = cov_n.bad_patch(kk)
            lo = eta_n.lo[0]
            shape = eta_n.arr.shape
            owners = cov_j.owners_of(lo, lo + shape[0]) if cov_j else []
            f_minus_p = np.divide(
                b_n.arr, eta_n.arr, out=np.zeros_like(b_n.arr), where=eta_n.arr > 0
            )
            for oi in owners:
                eta_j = cov_j.eta_patch(int(oi))
                cut = np.zeros(shape)
                a0 = max(lo, eta_j.lo[0])
                b0 = min(lo + shape[0], eta_j.lo[0] + eta_j.arr.shape[0])
                if b0 <= a0:
                    continue
                cut[a0 - lo : b0 - lo] = eta_j.arr[a0 - eta_j.lo[0] : b0 - eta_j.lo[0]]
                weighted_f = cut * f_minus_p
                pvals = cov_n.project_onto(kk, weighted_f)
                corr = Patch(eta_n.lo, (weighted_f - pvals) * eta_n.arr)
                pieces[int(oi)].append((corr, -1.0))
        for oi, plist in enumerate(pieces):
            a_patch = _union_patch(plist, d.dim)
            # round-off dust (saturated regions where consecutive bad parts
            # agree) flows into the residual instead of becoming an atom
            if np.max(np.abs(a_patch.arr), initial=0.0) <= 1e-13 * f_scale:
                continue
            a_patch.add_into(residual_level, -1.0)
            nz = np.nonzero(np.abs(a_patch.arr) > 0)
            if nz[0].size == 0:
                continue
            lo_idx = tuple(int(np.min(ix)) + l for ix, l in zip(nz, a_patch.lo))
            hi_idx = tuple(int(np.max(ix)) + l for ix, l in zip(nz, a_patch.lo))
            x = d.axis()
            box_lo = [x[i] for i in lo_idx]
            box_hi = [x[i] for i in hi_idx]
            support = smallest_enclosing_cube(d, box_lo, box_hi)
            nu = a_patch.norm_lq(d, q, w) / max(w.mass(support) ** (1.0 / q) if not math.isinf(q) else 1.0, LAMBDA_FLOOR)
            lam = max(nu, LAMBDA_FLOOR)
            a_patch.arr = a_patch.arr / lam
            kind = "local" if support.volume < 1.0 else "unit"
            atom = Atom(support, d, a_patch, q, L, kind)
            if support.volume < 1.0 + 1e-12:
                lambdas.append(lam)
                atoms.append(atom)
                sup_cubes.append(support)
                tags.append(j)
            else:
                for piece_lam, piece_atom in _split_unit_pieces(atom, lam, w):
                    lambdas.append(piece_lam)
                    atoms.append(piece_atom)
                    sup_cubes.append(piece_atom.support)
                    tags.append(j)
        residual -= residual_level

    # good part of the lowest threshold, corrected by the exact residual
    dense_b = np.zeros(d.shape)
    if per_level[0] is not None:
        for i in range(len(per_level[0].cubes)):
            per_level[0].bad_patch(i).add_into(dense_b)
    good = f.samples - dense_b - residual
    single = None
    remainder = None
    if include_single:
        gpatch = Patch((0,) * d.dim, good.copy())
        mass = w.mass() ** (1.0 / q) if not math.isinf(q) else 1.0
        nu0 = gpatch.norm_lq(d, q, w) / max(mass, LAMBDA_FLOOR)
        lam0 = max(nu0, LAMBDA_FLOOR)
        gpatch.arr = gpatch.arr / lam0
        window_cube = smallest_enclosing_cube(
            d, [-d.half_width] * d.dim, [d.half_width - d.h] * d.dim
        )
        single = (lam0, Atom(window_cube, d, gpatch, q, L, "single"))
    else:
        remainder = GridFunction(d, good)
    return AtomicDecomposition(
        d, lambdas, atoms, sup_cubes, q, L, v, single, remainder, tags
    )


def _split_unit_pieces(atom: Atom, lam: float, w: Weight | None):
    """Cut an oversized atom into unit-cube pieces, renormalized."""
    d = atom.domain
    dense = atom.patch.materialize(d).samples * lam
    x = d.axis()
    lo_cell = int(math.floor(x[atom.patch.lo[0]])) if d.dim == 1 else None
    out = []
    rngs = atom.support.lattice_ranges(d)
    if d.dim == 1:
        (a, b), = rngs
        start = int(math.floor(x[a]))
        stop = int(math.ceil(x[min(b, d.npts) - 1])) + 1
        for l in range(start, stop):
            cube = Cube(0, (0,), (l,))
            (ca, cb), = cube.lattice_ranges(d)
            if cb <= ca:
                continue
            win = dense[ca:cb]
            if not np.any(win):
                continue
            patch = Patch((ca,), win.copy())
            nu = patch.norm_lq(d, atom.q, w)
            if not math.isinf(atom.q):
                nu = nu / max(w.mass(cube) ** (1.0 / atom.q), LAMBDA_FLOOR)
            piece_lam = max(nu, LAMBDA_FLOOR)
            patch.arr = patch.arr / piece_lam
            out.append((piece_lam, Atom(cube, d, patch, atom.q, atom.L, "unit")))
        return out
    raise NotImplementedError("unit splitting implemented for n = 1")


def synthesize(dec: AtomicDecomposition) -> GridFunction:
    """sum of lambda_j a_j plus the single part, rendered on the lattice."""
    dense = np.zeros(dec.domain.shape)
    for lam, atom in zip(dec.lambdas, dec.atoms):
        atom.patch.add_into(dense, lam)
    if dec.single_part is not None:
        lam0, a0 = dec.single_part
        a0.patch.add_into(dense, lam0)
    return GridFunction(dec.domain, dense)


# ---------------------------------------------------------------------------
# validation and probes


def validate_atom(a: Atom, w: Weight | None, p: VariableExponent | None = None) -> Report:
    """Support, size and moment margins of one atom."""
    d = a.domain
    dense = a.patch.materialize(d).samples
    outside = np.ones(d.shape, dtype=bool)
    if a.kind != "single":
        rngs = a.support.lattice_ranges(d)
        sl = tuple(slice(x, y) for x, y in rngs)
        outside[sl] = False
        support_leak = float(np.max(np.abs(dense[outside]))) if np.any(outside) else 0.0
    else:
        support_leak = 0.0
    size = a.lq_norm(w)
    if math.isinf(a.q):
        budget = 1.0 if a.kind != "single" else 1.0
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
        for alpha in _alphas(d.dim, a.L):
            sl = a.patch.slices()
            axes = [
                x[sl[i].start : sl[i].stop] - a.support.center[i] for i in range(d.dim)
            ]
            if d.dim == 1:
                mono = axes[0] ** alpha[0]
            else:
                mono = (axes[0] ** alpha[0])[:, None] * (axes[1] ** alpha[1])[None, :]
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


def bad_part_majorant_check(
    a: Atom, dic: TestDictionary, w: Weight | None, p: VariableExponent | None
) -> Report:
    """Pointwise decay of the grand maximal function of a local atom.

    Records the constant sup over x outside 2Q of
    M0 a / (M^loc chi_Q)^{(n+L+1)/n}.
    """
    d = a.domain
    if a.support.volume >= 1.0:
        raise ValueError("majorant check applies to local atoms with |Q| < 1")
    m0 = grand_maximal(a.values, dic, "M0").samples
    chi = np.zeros(d.shape)
    sl = tuple(slice(x, y) for x, y in a.support.lattice_ranges(d))
    chi[sl] = 1.0
    mloc = local_maximal(GridFunction(d, chi)).samples
    exponent = (d.dim + a.L + 1) / d.dim
    outside = ~a.support.box().dilate(2.0).lattice_mask(d)
    mask = outside & (mloc > 0)
    const = float(np.max(m0[mask] / mloc[mask] ** exponent)) if np.any(mask) else 0.0
    reach = a.support.box().dilate(1.0)
    x = d.axis()
    if d.dim == 1:
        far = (x < reach.lo[0] - dic.radius - 1.0) | (x > reach.hi[0] + dic.radius + 1.0)
    else:
        r = d.radius()
        far = r > float(np.max(np.abs(reach.hi))) + dic.radius + 1.0
    leak = float(np.max(m0[far])) if np.any(far) else 0.0
    return Report(
        "bad_part_majorant_check",
        passed=leak <= 1e-12 * max(1.0, float(np.max(np.abs(a.patch.arr)))),
        quantities={"constant": const, "outside_reach_leak": leak},
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
        items = list(zip(dec.lambdas, dec.atoms))
        if dec.single_part is not None:
            items.append(dec.single_part)
        for lam, atom in items:
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
        "v": dec.v,
        "single": dec.single_part is not None,
        "sidecar": sidecar.name,
        "atoms": entries,
    }
    path.write_text(json.dumps(doc, indent=1, sort_keys=True))


def load_decomposition(path: str | Path) -> AtomicDecomposition:
    path = Path(path)
    doc = json.loads(path.read_text())
    dom = Domain(**doc["domain"])
    raw = (path.parent / doc["sidecar"]).read_bytes()
    lambdas, atoms, cubes = [], [], []
    single = None
    entries = doc["atoms"]
    n_single = 1 if doc["single"] else 0
    for i, e in enumerate(entries):
        ref = e["values_ref"]
        count = int(np.prod(ref["shape"]))
        arr = np.frombuffer(
            raw, dtype="<f8", count=count, offset=ref["offset"]
        ).reshape(ref["shape"]).copy()
        cube = Cube(e["cube"]["k"], tuple(e["cube"]["a"]), tuple(e["cube"]["m"]))
        q = math.inf if e["q"] is None else e["q"]
        atom = Atom(cube, dom, Patch(tuple(ref["lo"]), arr), q, e["L"], e["kind"])
        if doc["single"] and i == len(entries) - n_single:
            single = (e["lambda"], atom)
        else:
            lambdas.append(e["lambda"])
            atoms.append(atom)
            cubes.append(cube)
    L = entries[0]["L"] if entries else 0
    q = math.inf if not entries or entries[0]["q"] is None else entries[0]["q"]
    return AtomicDecomposition(dom, lambdas, atoms, cubes, q, L, doc["v"], single)
