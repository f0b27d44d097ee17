"""Uniform-grid discretization substrate.

Functions live on a uniform lattice over the window [-T, T)^n with dyadic
step h = 2^-m.  Cubes come from the three shifted dyadic grids per axis
(shifts a/3, a in {0,1,2}), so every axis-parallel cube is contained in a
cube of these grids of at most 6^n times its volume.  A cube is a (level,
shift, index) row of integers.  Which samples a cube holds, and which cube
holds a sample, is exact integer arithmetic (3 * corner / h is an
integer): one rule, `cube_index`, gives the cube of a lattice point, the
support search of `smallest_enclosing_cubes` included, and one pyramid,
`climb_chain`, takes per-cube sums, minima and maxima.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, reduce
from itertools import product
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np
from scipy import fft as sp_fft

__all__ = [
    "Domain",
    "GridFunction",
    "CubeLayout",
    "chain_sums",
    "chain_steps",
    "climb_chain",
    "layout_sums",
    "lead_classes",
    "quadrature",
    "convolve",
    "convolve_bank",
    "KernelSpectrum",
    "kernel_spectrum",
    "scaled_spectrum",
    "rescale_mollifier",
    "cube_lattice_ranges",
    "cube_centers",
    "smallest_enclosing_cubes",
    "bump_profile",
    "multi_indices",
]

MAIN_GRID_SHIFT = 1  # the distinguished dyadic grid uses shift (1,...,1)


def _is_pow2(x: float) -> bool:
    m, e = math.frexp(x)
    return m == 0.5


def bump_profile(u: np.ndarray) -> np.ndarray:
    """Bump exp(1 - 1/(1 - u^2)) on |u| < 1 with peak value 1, zero outside."""
    u2 = np.minimum(u * u, 1.0)
    with np.errstate(divide="ignore", over="ignore"):
        vals = np.exp(1.0 - 1.0 / np.maximum(1.0 - u2, 1e-300))
    return np.where(u2 < 1.0, vals, 0.0)


def multi_indices(dim: int, order: int) -> list[tuple[int, ...]]:
    """Multi-indices alpha in N^dim with |alpha| <= order (none if order < 0)."""
    return [a for a in product(range(order + 1), repeat=dim) if sum(a) <= order]


@lru_cache(maxsize=32)
def _axis_ints_cached(npts: int) -> np.ndarray:
    arr = np.arange(-(npts // 2), npts // 2, dtype=np.int64)
    arr.flags.writeable = False
    return arr


@lru_cache(maxsize=32)
def _axis_cached(npts: int, h: float) -> np.ndarray:
    arr = _axis_ints_cached(npts) * h
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class Domain:
    """Uniform lattice over [-T, T)^n with step h = 2^-level.

    The sample count per axis, 2*T/h, must be a power of two so that FFT
    convolution and dyadic level counting stay exact.
    """

    dim: int
    half_width: float
    level: int

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {self.dim}")
        if self.level < 4:
            raise ValueError(f"level must be >= 4, got {self.level}")
        if self.half_width <= 0 or not _is_pow2(self.half_width):
            raise ValueError("half_width must be a positive power of two")
        if self.npts < 2:
            raise ValueError("window too small for the requested level")

    @property
    def h(self) -> float:
        return 2.0 ** (-self.level)

    # the sample counts are read on every lattice operation, so each is
    # computed once per instance; they are not fields, so equality, hash
    # and repr do not see them
    @cached_property
    def npts(self) -> int:
        # 2T / h, an exact power of two
        return int(round(self.half_width * 2.0 ** (self.level + 1)))

    @cached_property
    def half_npts(self) -> int:
        return self.npts // 2

    @cached_property
    def shape(self) -> tuple[int, ...]:
        return (self.npts,) * self.dim

    def axis_ints(self) -> np.ndarray:
        """Integer lattice coordinates i along one axis; x = i*h."""
        return _axis_ints_cached(self.npts)

    def axis(self) -> np.ndarray:
        return _axis_cached(self.npts, self.h)

    def coords(self) -> tuple[np.ndarray, ...]:
        """Coordinate arrays broadcastable to `shape`."""
        return np.ix_(*[self.axis()] * self.dim)

    def radius(self) -> np.ndarray:
        """|x| at every lattice point."""
        return reduce(np.hypot, self.coords(), 0.0)

    def min_cube_level(self) -> int:
        """Coarsest useful cube level; side caps at 4T."""
        return -int(round(math.log2(self.half_width))) - 2

    def __repr__(self):
        return f"Domain(n={self.dim}, T={self.half_width:g}, m={self.level})"


def _check_real(samples) -> None:
    # a cast to float would drop the imaginary part with only a warning
    if np.iscomplexobj(samples):
        raise ValueError(f"samples must be real, got dtype {np.asarray(samples).dtype}")


@dataclass(frozen=True)
class GridFunction:
    """Sampled real function on a Domain lattice; immutable.

    The public constructor copies its samples, since the caller may still
    hold the array and write to it.  The library's own operators, the
    arithmetic ones included, build their output arrays afresh and hand
    them to `_adopt`, which freezes such an array in place instead of
    copying it.

    `_memo` holds what callers derive from the samples and keep, such as a
    kernel's spectra per scale, or the phi_star of a `make_phi_pair` phi;
    the samples never change, so it cannot go stale.
    """

    domain: Domain
    samples: np.ndarray
    _memo: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        _check_real(self.samples)
        self._freeze(np.array(self.samples, dtype=float, order="C"))

    @classmethod
    def _adopt(cls, domain: Domain, arr: np.ndarray) -> "GridFunction":
        """GridFunction that keeps `arr` itself, made read-only: only for an
        array its caller has just allocated and holds no other reference to."""
        _check_real(arr)
        gf = cls.__new__(cls)
        object.__setattr__(gf, "domain", domain)
        object.__setattr__(gf, "_memo", {})
        gf._freeze(np.ascontiguousarray(arr, dtype=float))
        return gf

    def _freeze(self, arr: np.ndarray) -> None:
        if arr.shape != self.domain.shape:
            raise ValueError(
                f"sample shape {arr.shape} does not match domain {self.domain.shape}"
            )
        if not np.all(np.isfinite(arr)):
            raise ValueError("samples must be finite")
        arr.flags.writeable = False
        object.__setattr__(self, "samples", arr)

    @classmethod
    def from_callable(cls, domain: Domain, fn: Callable) -> "GridFunction":
        return cls(domain, np.broadcast_to(fn(*domain.coords()), domain.shape))

    def __abs__(self):
        return self._adopt(self.domain, np.abs(self.samples))

    def __add__(self, other):
        return self._adopt(self.domain, self.samples + self._vals(other))

    def __sub__(self, other):
        return self._adopt(self.domain, self.samples - self._vals(other))

    def __mul__(self, other):
        return self._adopt(self.domain, self.samples * self._vals(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._adopt(self.domain, self.samples / self._vals(other))

    def _vals(self, other):
        if isinstance(other, GridFunction):
            if other.domain != self.domain:
                raise ValueError("domain mismatch")
            return other.samples
        return other

    def sup(self) -> float:
        return float(np.max(np.abs(self.samples)))


def cube_lattice_ranges(domain: Domain, level, shift, index):
    """Sample-index range [start, stop) along one axis of the cube
    2^-level [index + shift/3, index + shift/3 + 1), clipped to the window.

    Elementwise over ints or broadcastable integer arrays, with level at
    most domain.level.  Exact: 3 * corner / h is an integer, so both ends
    are integer ceilings, and for shift 0 they are lattice points.
    """
    s = 1 << (domain.level - level)
    num = s * (3 * index + shift)  # 3 * corner / h
    start = -((-num) // 3) + domain.half_npts
    stop = -((-(num + 3 * s)) // 3) + domain.half_npts
    # clip with operators that ints and arrays share
    return start - start * (start < 0), stop - (stop - domain.npts) * (stop > domain.npts)


def cube_centers(level, shift, index):
    """Center coordinate along one axis of the cube 2^-level [index +
    shift/3, index + shift/3 + 1); elementwise over ints or arrays."""
    side = 2.0 ** (-level)
    return side * (index + shift / 3.0) + side / 2


def cube_index(domain: Domain, level, shift, i):
    """Index along one axis of the cube of level `level` and shift `shift`
    that holds the lattice coordinate i (x = i*h): (3i - a s) // (3s) with
    s = 2^(m - level).  Elementwise over ints or broadcastable integer
    arrays, with level at most domain.level."""
    s = 1 << (domain.level - level)
    return (3 * i - shift * s) // (3 * s)


def cube_index_map(domain: Domain, level: int, shift: tuple[int, ...]) -> list[np.ndarray]:
    """Per-axis cube index of every lattice point, exact integers."""
    if level > domain.level:
        raise ValueError("cube level below grid resolution")
    return [cube_index(domain, level, a, domain.axis_ints()) for a in shift]


class CubeLayout:
    """Which lattice points lie in which cube of one shifted grid level.

    `ids` maps every lattice point to a flat cube id, row-major over the
    per-axis cube indices; `count` cubes meet the window and `first` holds
    the cube index of the first lattice point on each axis.  It serves the
    work done on one level at a time, such as per-cube Luxemburg solves;
    sweeps over every level run along `chain_sums` instead.
    """

    def __init__(self, domain: Domain, level: int, shift: tuple[int, ...]):
        idx = cube_index_map(domain, level, shift)
        self.domain = domain
        self.level = level
        self.shift = tuple(shift)
        self.first = tuple(int(q[0]) for q in idx)
        self.shape = tuple(int(q[-1]) - q0 + 1 for q, q0 in zip(idx, self.first))
        self.count = math.prod(self.shape)
        ids, *rest = (q - q0 for q, q0 in zip(idx, self.first))
        for q, n in zip(rest, self.shape[1:]):
            ids = np.add.outer(ids * n, q)  # row-major
        self.ids = ids

    def sums(self, values: np.ndarray) -> np.ndarray:
        """Sum of `values` over the lattice points of each cube."""
        return np.bincount(self.ids.ravel(), weights=values.ravel(), minlength=self.count)

    def means(self, values: np.ndarray) -> np.ndarray:
        """Riemann mean over each cube against its full volume (zero
        extension outside the window)."""
        d = self.domain
        return self.sums(values) * (d.h ** d.dim / (2.0 ** (-self.level)) ** d.dim)

    def field(self, flat: np.ndarray) -> np.ndarray:
        """Per-point array holding the value of the cube containing each point."""
        return flat[self.ids]

    def occupancy(self) -> np.ndarray:
        """Share of each cube's lattice points that lie inside the window."""
        counts = np.bincount(self.ids.ravel(), minlength=self.count)
        return counts / (2.0 ** (self.domain.level - self.level)) ** self.domain.dim

    def points(self, cubes: np.ndarray | None = None) -> tuple[np.ndarray | slice, np.ndarray]:
        """The lattice points of `cubes` (flat cube ids, none repeated; every
        cube when None) in row-major order: (their flat indices, a slice of
        every point when cubes is None; the position in `cubes` of each
        one's cube)."""
        ids = self.ids.ravel()
        if cubes is None:
            return slice(None), ids
        pos = np.full(self.count, -1)
        pos[cubes] = np.arange(len(cubes))
        seg = pos[ids]
        at = np.flatnonzero(seg >= 0)
        return at, seg[at]


def _axis(ax: int, sl: slice) -> tuple[slice, ...]:
    return (slice(None),) * ax + (sl,)


PAIR_BLOCK = 1 << 14  # parent cubes per block of `_pair_sums`


class PairPlan(NamedTuple):
    """The index work of one `_pair_sums` level, worked out once.  `blocks`
    holds, per block of parent rows, (child rows, parent rows, passes), and
    a pass per axis is (shape of its output, None when that is the block's
    rows of the result; first children; second children; where the pairs'
    reductions go; the lone children, copied as they are)."""

    parents: tuple[int, ...]
    blocks: tuple


def _plan_pairs(shape: tuple[int, ...], lead: tuple[int, ...], block: int) -> PairPlan:
    """The `PairPlan` of a level of shape `shape` for `lead`.  Per axis a
    lead of 1 leaves the first child alone in its parent; the rest pair
    up, and an odd one out at the end is alone in the last parent.

    The parents go in blocks of rows along the first axis, at most `block`
    parents each, so in 2-D the first axis's pair reductions are a
    block-sized temporary instead of half a lattice array; every parent
    reduces its children in the same order."""
    z = lead[0]
    parents = tuple((n + y + 1) // 2 for n, y in zip(shape, lead))
    rows = max(1, block // math.prod(parents[1:]))
    blocks = []
    for p in range(0, parents[0], rows):
        # parent p holds the child rows 2p - z and 2p - z + 1 that exist
        lo, hi = max(0, 2 * p - z), min(shape[0], 2 * (p + rows) - z)
        passes = []
        size = [hi - lo, *shape[1:]]
        for ax, y in enumerate([z if p == 0 else 0, *lead[1:]]):
            n = size[ax]
            pairs = (n - y) // 2
            stop = y + 2 * pairs
            size[ax] = (n + y + 1) // 2
            lone = ([_axis(ax, slice(0, 1))] if y else []) + ([_axis(ax, slice(-1, None))] if stop < n else [])
            passes.append((
                tuple(size) if ax < len(lead) - 1 else None,
                _axis(ax, slice(y, stop, 2)), _axis(ax, slice(y + 1, stop, 2)),
                _axis(ax, slice(y, y + pairs)), tuple(lone),
            ))
        blocks.append((slice(lo, hi), slice(p, p + rows), tuple(passes)))
    return PairPlan(parents, tuple(blocks))


def _pair_sums(s: np.ndarray, plan: PairPlan, op: np.ufunc) -> np.ndarray:
    """`op`-reductions (np.add for sums, np.minimum, np.maximum) over the
    parent cubes of one coarser chain level, by the index work of `plan`."""
    out = np.empty(plan.parents)
    for children, rows, passes in plan.blocks:
        x, dst = s[children], out[rows]
        for shape, first, second, to, lone in passes:
            y = dst if shape is None else np.empty(shape)
            op(x[first], x[second], out=y[to])
            for sl in lone:
                y[sl] = x[sl]
            x = y
    return out


class ChainStep(NamedTuple):
    """One level k of a chain above the lattice: its shift, the lead of the
    pair sums that make it from level k + 1, and their `PairPlan`."""

    level: int
    shift: tuple[int, ...]
    lead: tuple[int, ...]
    pairs: PairPlan


@lru_cache(maxsize=128)
def _chain_plan(domain: Domain, shift: tuple[int, ...], coarsest: int, block: int) -> tuple[ChainStep, ...]:
    """`chain_steps` with `PAIR_BLOCK` as an argument, so that the cache
    sees its value."""
    steps = []
    shape = domain.shape
    first = [cube_index(domain, domain.level, a, -domain.half_npts) for a in shift]  # cube index of the first point
    for k in range(domain.level - 1, coarsest - 1, -1):
        carry = [int(a == 1) for a in shift]  # cube q of shift a lies in the parent (q - [a == 1]) // 2
        lead = tuple((q - c) % 2 for q, c in zip(first, carry))
        first = [(q - c) // 2 for q, c in zip(first, carry)]
        shift = tuple(2 * a % 3 for a in shift)
        pairs = _plan_pairs(shape, lead, block)
        steps.append(ChainStep(k, shift, lead, pairs))
        shape = pairs.parents
    return tuple(steps)


def chain_steps(domain: Domain, shift: tuple[int, ...], coarsest: int) -> tuple[ChainStep, ...]:
    """The layout of one chain of grids above the lattice: a `ChainStep`
    for each level k from domain.level - 1 down to `coarsest`.  The index
    work of every level is planned once per chain and kept (a bounded
    cache), so a climb runs only the ufunc calls."""
    return _chain_plan(domain, tuple(shift), coarsest, PAIR_BLOCK)


def lead_classes(domain: Domain, shifts: Iterable[tuple[int, ...]], coarsest: int) -> list[list[tuple[ChainStep, ...]]]:
    """The `chain_steps` of the chains from the lattice shifts `shifts`,
    grouped by their lead at level m - 1.  That lead depends only on which
    axes have lattice shift 2, so the chains fall into at most 2^n classes,
    and the chains of one class pair the same lattice points there: one
    cube layout, and bitwise the same level-(m - 1) sums.  A chain with no
    level above the lattice is in no class."""
    classes: dict[tuple[int, ...], list] = {}
    for a in shifts:
        steps = chain_steps(domain, a, coarsest)
        if steps:
            classes.setdefault(steps[0].lead, []).append(steps)
    return list(classes.values())


def climb_chain(
    steps: Iterable[ChainStep],
    sums: Sequence[np.ndarray],
    ops: Sequence[np.ufunc] | None = None,
) -> Iterator[tuple[int, tuple[int, ...], tuple[int, ...], tuple[np.ndarray, ...]]]:
    """(k, shift, lead, sums) along `steps` of `chain_steps`, each level's
    sums the `_pair_sums` of the level below, starting from `sums`, the
    sums of the level below the first step.  A chain may so resume from
    any level whose sums are at hand."""
    ops = ops or (np.add,) * len(sums)
    for k, shift, lead, pairs in steps:
        sums = tuple(_pair_sums(s, pairs, op) for s, op in zip(sums, ops))
        yield k, shift, lead, sums


def chain_sums(
    domain: Domain,
    shift: tuple[int, ...],
    arrays: Sequence[np.ndarray],
    coarsest: int,
) -> Iterator[tuple[int, tuple[int, ...], tuple[int, ...] | None, tuple[np.ndarray, ...]]]:
    """Per-level cube sums of lattice arrays along one chain of grids.

    A level-k cube of shift a is exactly the union of 2^n level-(k+1) cubes
    of shift 2a mod 3, so the chain with shift `shift` on the lattice level
    and 2a mod 3 on each coarser one is a pyramid of pair sums.  a -> 2a
    mod 3 is a bijection: the chains from the 3^n lattice shifts cover every
    (level, shift) once.  Yields (k, shift at k, lead, sums) for k from
    domain.level down to `coarsest`, keeping only the current level.  sums
    holds each array's sums over the level-k cubes meeting the window,
    indexed like `CubeLayout.shape`; lead is the `_pair_sums` layout that
    made them (None on the lattice level, where the sums are the arrays).
    Signed terms may cancel; only the order of summation differs from
    `CubeLayout.sums`.
    """
    yield domain.level, tuple(shift), None, tuple(arrays)
    yield from climb_chain(chain_steps(domain, shift, coarsest), arrays)


def layout_sums(
    domain: Domain,
    shifts: Sequence[tuple[int, ...]],
    arrays: Sequence[np.ndarray],
    coarsest: int,
    ops: Sequence[np.ufunc] | None = None,
) -> Iterator[tuple[int, list[tuple[int, ...]], tuple[np.ndarray, ...]]]:
    """The `chain_sums` of the chains from the lattice shifts `shifts`,
    each cube layout once: yields (k, the shifts at level k whose cubes
    these are, sums).

    On the lattice level every shift has one point per cube, so the level
    is one layout, the arrays themselves.  At level m - 1 the chains of one
    lead class (`lead_classes`) pair the same lattice points, so the class
    takes the level's sums once and each member climbs on from them.  Every
    coarser layout belongs to one shift.  The sums are bitwise those of
    `chain_sums`.  `ops` gives each array its own pairwise ufunc in place
    of np.add: np.minimum and np.maximum give each cube's min and max,
    exactly.
    """
    yield domain.level, list(shifts), tuple(arrays)
    for members in lead_classes(domain, shifts, coarsest):
        (k, _, _, sums), = climb_chain(members[0][:1], arrays, ops)
        yield k, [steps[0].shift for steps in members], sums
        for steps in members:
            for k, shift, _, above in climb_chain(steps[1:], sums, ops):
                yield k, [shift], above


def quadrature(f: GridFunction) -> float:
    """Riemann sum h^n * sum of samples over the window."""
    d = f.domain
    return d.h ** d.dim * float(np.sum(f.samples))


def all_shifts(dim: int) -> list[tuple[int, ...]]:
    return [tuple(s) for s in product((0, 1, 2), repeat=dim)]


def level_range(domain: Domain, max_side: float, min_side: float | None = None) -> list[int]:
    """Cube levels k with min_side <= 2^-k <= max_side, finest first; an
    infinite max_side runs to `Domain.min_cube_level`, and an infinite
    min_side is an error."""
    lo = max(min_side if min_side is not None else domain.h, domain.h)
    if math.isinf(lo):
        raise ValueError("min_side must be finite")
    if not max_side >= lo:  # a nan max_side holds no level either
        return []
    k_hi = min(int(math.floor(-math.log2(lo) + 1e-12)), domain.level)
    # no cube is wider than 4T, the side at the coarsest level
    k_lo = math.ceil(-math.log2(min(max_side, 4.0 * domain.half_width)) - 1e-12)
    return list(range(k_hi, k_lo - 1, -1))


class KernelSpectrum(NamedTuple):
    """A kernel's real FFT and its reach r: the largest |i - m| over the
    indices i of its nonzero samples on every axis, so it vanishes outside
    the samples m - r .. m + r of each axis (m = N/2 is x = 0)."""

    reach: int
    values: np.ndarray


def _padded_shape(domain: Domain, reach: int) -> tuple[int, ...]:
    """Per-axis transform length of a window array convolved with a kernel
    of reach r: the fast length at or above N + 2r.  A kernel with full
    support has r = N/2, which gives the fast length at or above 2N."""
    return (sp_fft.next_fast_len(domain.npts + 2 * reach, True),) * domain.dim


def kernel_spectrum(g: GridFunction) -> KernelSpectrum:
    """Real FFT of a kernel cropped to its support, ready for `convolve_bank`.

    The kernel keeps the samples m - r .. m + r per axis, where the reach
    r <= m is the largest |i - m| over its nonzero samples (0 for the zero
    kernel), and is zero-padded to `_padded_shape(domain, r)`.  A kernel
    at scale t costs transforms of about N + 2t/h points per axis, not 2N.
    """
    d = g.domain
    m = d.half_npts
    reach = max((int(np.abs(i - m).max(initial=0)) for i in np.nonzero(g.samples)), default=0)
    crop = (slice(m - reach, m + reach + 1),) * d.dim
    return KernelSpectrum(reach, sp_fft.rfftn(g.samples[crop], _padded_shape(d, reach)))


def scaled_spectrum(kernel: GridFunction, j: int) -> KernelSpectrum:
    """`kernel_spectrum` of the kernel rescaled to t = 2^-j, built on first
    use and kept on the kernel instance."""
    key = ("spectrum", j)
    if key not in kernel._memo:
        kernel._memo[key] = kernel_spectrum(rescale_mollifier(kernel, 2.0 ** (-j)))
    return kernel._memo[key]


def convolve_bank(f: GridFunction, spectra: Iterable[KernelSpectrum]) -> Iterator[np.ndarray]:
    """Samples of the convolutions of f with every kernel in a bank.

    f is transformed once per distinct padded shape among the kernels'
    reaches; each kernel spectrum from `kernel_spectrum` costs one inverse
    transform, whose window is read from the samples r .. r + N - 1 per
    axis.  Each output is h^n-scaled with zero extension outside the
    window, exactly as `convolve`.
    """
    d = f.domain
    hn = d.h ** d.dim
    fhats: dict[tuple[int, ...], np.ndarray] = {}
    prod = None
    for reach, ghat in spectra:
        shape = _padded_shape(d, reach)
        if shape not in fhats:
            fhats[shape] = sp_fft.rfftn(f.samples, shape)
        # one product buffer while the shape holds: a fresh one per kernel,
        # its size changing with the reach, made 1-D m = 12 about 35% slower
        # through the allocator
        reuse = prod is not None and prod.shape == ghat.shape
        prod = np.multiply(fhats[shape], ghat, out=prod if reuse else None)
        window = (slice(reach, reach + d.npts),) * d.dim
        yield sp_fft.irfftn(prod, shape, overwrite_x=True)[window] * hn


def convolve(f: GridFunction, g: GridFunction) -> GridFunction:
    """h^n-scaled discrete convolution with zero extension outside the window."""
    if f.domain != g.domain:
        raise ValueError("domain mismatch")
    return GridFunction._adopt(f.domain, next(convolve_bank(f, [kernel_spectrum(g)])))


def rescale_mollifier(phi: GridFunction, t: float) -> GridFunction:
    """Samples of t^-n * phi(x/t) for dyadic t = 2^-j <= 1.

    Exact on the lattice: x/t is again a lattice point, so rescaling is
    stride sampling with zero extension.
    """
    d = phi.domain
    if t < d.h:
        raise ValueError("scale below resolution")
    j = round(-math.log2(t))
    if j < 0 or abs(2.0 ** (-j) - t) > 1e-12 * t:
        raise ValueError(f"scale must be dyadic 2^-j with j >= 0, got {t}")
    if j == 0:
        return phi
    stride = 1 << j
    m = d.half_npts
    i = d.axis_ints()
    i = i[(i * stride >= -m) & (i * stride < m)]  # a run of x with x/t in the window
    dst = slice(i[0] + m, i[-1] + m + 1)
    src = slice(i[0] * stride + m, i[-1] * stride + m + 1, stride)  # sample index of x/t
    scale = float(stride) ** d.dim  # t^-n
    out = np.zeros(d.shape)
    out[(dst,) * d.dim] = phi.samples[(src,) * d.dim] * scale
    return GridFunction._adopt(d, out)


def smallest_enclosing_cubes(
    domain: Domain, lo: np.ndarray, hi: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(level, shift, index) arrays of the smallest shifted-grid cube
    containing each row [lo, hi] of the (B, n) boxes, given as integer
    lattice coordinates i (x = i*h).

    A cube holds a box when both its ends have the cube's index on every
    axis (`cube_index`).  Each box is searched from the finest
    level whose side reaches its width down to the coarsest, shifts in
    `all_shifts` order; the first cube that holds it wins.  It exists with
    volume at most 6^n times the box's enclosing cube volume.
    """
    lo, hi = np.asarray(lo, dtype=np.int64), np.asarray(hi, dtype=np.int64)
    if np.any(hi < lo):
        raise ValueError("empty box")
    # a level-k cube holds 2^(m - k) consecutive points per axis, so a box
    # of w + 1 points fits from k = m - bit_length(w) on; frexp's exponent
    # is that bit length
    width = np.max(hi - lo, axis=1, initial=0)
    k = domain.level - np.frexp(width)[1].astype(np.int64)
    level = np.zeros(len(lo), dtype=np.int64)
    shift = np.zeros(lo.shape, dtype=np.int64)
    index = np.zeros(lo.shape, dtype=np.int64)
    todo = np.arange(len(lo))
    while todo.size:  # each pass tries every open box one level coarser
        if k[todo].min() < domain.min_cube_level():
            raise ValueError("box exceeds the largest enumerable cube")
        for a in all_shifts(domain.dim):
            first, last = (cube_index(domain, k[todo, None], np.array(a), e[todo]) for e in (lo, hi))
            hit = np.all(first == last, axis=1)
            at = todo[hit]
            level[at], shift[at], index[at] = k[at], a, first[hit]
            todo = todo[~hit]
        k[todo] -= 1
    return level, shift, index
