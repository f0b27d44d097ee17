"""Uniform-grid discretization substrate.

Functions live on a uniform lattice over the window [-T, T)^n with dyadic
step h = 2^-m.  Cubes come from the three shifted dyadic grids per axis
(shifts a/3, a in {0,1,2}), so every axis-parallel cube is contained in an
enumerated cube of at most 6^n times its volume.  All cube/lattice index
arithmetic is exact integer arithmetic; no floating-point membership tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import product
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np
from scipy import fft as sp_fft

__all__ = [
    "Domain",
    "GridFunction",
    "Cube",
    "Box",
    "CubeLayout",
    "quadrature",
    "enumerate_cubes",
    "convolve",
    "convolve_bank",
    "kernel_spectrum",
    "rescale_mollifier",
    "smallest_enclosing_cube",
    "bump_profile",
    "multi_indices",
]


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

    @property
    def npts(self) -> int:
        # 2T / h, an exact power of two
        return int(round(self.half_width * 2.0 ** (self.level + 1)))

    @property
    def half_npts(self) -> int:
        return self.npts // 2

    @property
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

    def refine(self, by: int = 1) -> "Domain":
        return Domain(self.dim, self.half_width, self.level + by)

    def min_cube_level(self) -> int:
        """Coarsest useful cube level; side caps at 4T."""
        return -int(round(math.log2(self.half_width))) - 2

    def __repr__(self):
        return f"Domain(n={self.dim}, T={self.half_width:g}, m={self.level})"


@dataclass(frozen=True)
class GridFunction:
    """Sampled real function on a Domain lattice; immutable."""

    domain: Domain
    samples: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=float)
        if arr.shape != self.domain.shape:
            raise ValueError(
                f"sample shape {arr.shape} does not match domain {self.domain.shape}"
            )
        if not np.all(np.isfinite(arr)):
            raise ValueError("samples must be finite")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "samples", arr)

    @classmethod
    def from_callable(cls, domain: Domain, fn: Callable) -> "GridFunction":
        return cls(domain, np.broadcast_to(fn(*domain.coords()), domain.shape))

    def with_samples(self, arr: np.ndarray) -> "GridFunction":
        return GridFunction(self.domain, arr)

    def __abs__(self):
        return self.with_samples(np.abs(self.samples))

    def __add__(self, other):
        return self.with_samples(self.samples + self._vals(other))

    def __sub__(self, other):
        return self.with_samples(self.samples - self._vals(other))

    def __mul__(self, other):
        return self.with_samples(self.samples * self._vals(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self.with_samples(self.samples / self._vals(other))

    def _vals(self, other):
        if isinstance(other, GridFunction):
            if other.domain != self.domain:
                raise ValueError("domain mismatch")
            return other.samples
        return other

    def sup(self) -> float:
        return float(np.max(np.abs(self.samples)))


@dataclass(frozen=True)
class Box:
    """Axis-parallel box [lo, hi), used for dilations and support tracking."""

    lo: tuple[float, ...]
    hi: tuple[float, ...]

    def dilate(self, factor: float) -> "Box":
        lo = np.asarray(self.lo)
        hi = np.asarray(self.hi)
        c = (lo + hi) / 2
        r = (hi - lo) / 2 * factor
        return Box(tuple(c - r), tuple(c + r))

    def lattice_mask(self, domain: Domain) -> np.ndarray:
        masks = ((x >= lo) & (x < hi) for x, lo, hi in zip(domain.coords(), self.lo, self.hi))
        return reduce(np.logical_and, masks)


@dataclass(frozen=True)
class Cube:
    """Shifted dyadic cube 2^-level * [m + a/3, m + a/3 + 1) per axis."""

    level: int
    shift: tuple[int, ...]
    index: tuple[int, ...]

    def __post_init__(self):
        if not all(a in (0, 1, 2) for a in self.shift):
            raise ValueError("shift components must be 0, 1 or 2")
        if len(self.shift) != len(self.index):
            raise ValueError("shift/index dimension mismatch")

    @property
    def dim(self) -> int:
        return len(self.index)

    @property
    def side(self) -> float:
        return 2.0 ** (-self.level)

    @property
    def volume(self) -> float:
        return self.side ** self.dim

    @property
    def corner(self) -> tuple[float, ...]:
        return tuple(self.side * (m + a / 3.0) for m, a in zip(self.index, self.shift))

    @property
    def center(self) -> tuple[float, ...]:
        return tuple(c + self.side / 2 for c in self.corner)

    def box(self) -> Box:
        c = self.corner
        return Box(c, tuple(v + self.side for v in c))

    def lattice_ranges(self, domain: Domain) -> tuple[tuple[int, int], ...]:
        """Half-open [start, stop) sample-index ranges per axis, clipped.

        Exact: the cube boundary 2^-level*(m + a/3) never coincides with a
        lattice point unless a == 0, and the a == 0 case is exact integer
        arithmetic as well.
        """
        s = 1 << (domain.level - self.level) if self.level <= domain.level else None
        if s is None:
            raise ValueError("cube below grid resolution")
        m0 = domain.half_npts
        out = []
        for m, a in zip(self.index, self.shift):
            num = s * (3 * m + a)  # 3 * corner / h
            start = -((-num) // 3)
            stop = -((-(num + 3 * s)) // 3)
            out.append((max(start, -m0) + m0, min(stop, m0) + m0))
        return tuple(out)

    def lattice_slices(self, domain: Domain) -> tuple[slice, ...]:
        """Index window of the cube on the lattice; empty on every axis
        where the cube misses the window."""
        return tuple(slice(a, max(a, b)) for a, b in self.lattice_ranges(domain))

    def lattice_count(self, domain: Domain) -> int:
        cnt = 1
        for a, b in self.lattice_ranges(domain):
            cnt *= max(b - a, 0)
        return cnt

    def contains_point(self, x: Sequence[float]) -> bool:
        c = self.corner
        return all(ci <= xi < ci + self.side for ci, xi in zip(c, np.atleast_1d(x)))


def cube_index_map(domain: Domain, level: int, shift: tuple[int, ...]) -> list[np.ndarray]:
    """Per-axis cube index of every lattice point, exact integers."""
    if level > domain.level:
        raise ValueError("cube level below grid resolution")
    s = 1 << (domain.level - level)
    i = domain.axis_ints()
    return [(3 * i - a * s) // (3 * s) for a in shift]


class CubeLayout:
    """Which lattice points lie in which cube of one shifted grid level.

    `ids` maps every lattice point to a flat cube id, row-major over the
    per-axis cube indices; `count` cubes meet the window and `first` holds
    the cube index of the first lattice point on each axis.  Every per-cube
    sum, mean and sweep goes through this one layout.
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

    def cube(self, j: int) -> Cube:
        index = np.unravel_index(j, self.shape)
        return Cube(self.level, self.shift, tuple(int(i) + q0 for i, q0 in zip(index, self.first)))


def quadrature(f: GridFunction, cube: Cube | None = None) -> float:
    """Riemann sum h^n * sum of samples, over one cube or the whole window.

    An empty cube/window intersection integrates to zero.
    """
    d = f.domain
    block = f.samples if cube is None else f.samples[cube.lattice_slices(d)]
    return d.h ** d.dim * float(np.sum(block))


def all_shifts(dim: int) -> list[tuple[int, ...]]:
    return [tuple(s) for s in product((0, 1, 2), repeat=dim)]


def level_range(domain: Domain, max_side: float, min_side: float | None = None) -> list[int]:
    """Cube levels k with min_side <= 2^-k <= max_side, finest first."""
    lo = max(min_side if min_side is not None else domain.h, domain.h)
    if max_side < lo:
        return []
    k_hi = min(int(math.floor(-math.log2(lo) + 1e-12)), domain.level)
    k_lo = max(int(math.ceil(-math.log2(max_side) - 1e-12)), domain.min_cube_level())
    return list(range(k_hi, k_lo - 1, -1))


def enumerate_cubes(
    domain: Domain,
    max_side: float,
    shifts: Iterable[tuple[int, ...]] | None = None,
    min_side: float | None = None,
) -> list[Cube]:
    """All cubes of the requested shifted grids meeting the window.

    Order: level descending (finest cubes first), then shift, then index
    lexicographic; deterministic.
    """
    if max_side < domain.h:
        raise ValueError("max_side below grid resolution")
    if shifts is None:
        shifts = all_shifts(domain.dim)
    shifts = list(shifts)
    T = domain.half_width
    cubes: list[Cube] = []
    for k in level_range(domain, max_side, min_side):
        side = 2.0 ** (-k)
        for a in shifts:
            ranges = []
            for ai in a:
                # cubes [side*(m+ai/3), side*(m+ai/3+1)) meeting [-T, T);
                # floor/ceil are unambiguous: dyadic ratios are exact floats
                # and the a/3 offsets never land on dyadic boundaries
                m_lo = math.floor(-T / side - ai / 3.0)
                m_hi = math.ceil(T / side - ai / 3.0) - 1
                ranges.append(range(m_lo, m_hi + 1))
            for m in product(*ranges):
                cubes.append(Cube(k, a, m))
    return cubes


def _padded_shape(domain: Domain) -> tuple[int, ...]:
    """Per-axis transform length of a linear convolution of two window
    arrays: the fast length at or above 2N - 1."""
    return (sp_fft.next_fast_len(2 * domain.npts - 1, True),) * domain.dim


def kernel_spectrum(g: GridFunction) -> np.ndarray:
    """Zero-padded real FFT of a kernel, ready for `convolve_bank`."""
    return sp_fft.rfftn(g.samples, _padded_shape(g.domain))


def convolve_bank(f: GridFunction, spectra: Iterable[np.ndarray]) -> Iterator[np.ndarray]:
    """Samples of the convolutions of f with every kernel in a bank.

    f is transformed once; each kernel spectrum from `kernel_spectrum`
    costs one inverse transform.  Each output is h^n-scaled with zero
    extension outside the window, exactly as `convolve`.
    """
    d = f.domain
    shape = _padded_shape(d)
    fhat = sp_fft.rfftn(f.samples, shape)
    m = d.half_npts
    window = (slice(m, 3 * m),) * d.dim
    hn = d.h ** d.dim
    for ghat in spectra:
        yield sp_fft.irfftn(fhat * ghat, shape)[window] * hn


def convolve(f: GridFunction, g: GridFunction) -> GridFunction:
    """h^n-scaled discrete convolution with zero extension outside the window."""
    if f.domain != g.domain:
        raise ValueError("domain mismatch")
    return GridFunction(f.domain, next(convolve_bank(f, [kernel_spectrum(g)])))


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
    return GridFunction(d, out)


def smallest_enclosing_cube(domain: Domain, lo: Sequence[float], hi: Sequence[float]) -> Cube:
    """Smallest cube in the union of shifted grids containing the box [lo, hi].

    Exists with volume at most 6^n times the box's enclosing cube volume.
    """
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    if np.any(hi < lo):
        raise ValueError("empty box")
    width = float(np.max(hi - lo))
    k_start = min(
        int(math.floor(-math.log2(max(width, domain.h / 4)) + 1e-12)), domain.level
    )
    for k in range(k_start, domain.min_cube_level() - 1, -1):
        side = 2.0 ** (-k)
        for a in all_shifts(domain.dim):
            idx = []
            ok = True
            for d in range(domain.dim):
                m = math.floor(lo[d] / side - a[d] / 3.0)
                c = side * (m + a[d] / 3.0)
                if not (c <= lo[d] and hi[d] < c + side):
                    ok = False
                    break
                idx.append(m)
            if ok:
                return Cube(k, a, tuple(idx))
    raise ValueError("box exceeds the largest enumerable cube")
