"""The tests' reference for shifted dyadic cubes as `Cube` objects: the
float enumeration of every cube that meets the window, independent of the
library's integer cube arithmetic, and the Riemann sum over one cube."""

import math
from itertools import product

import numpy as np

from varhardy.atoms import Cube
from varhardy.grid import Domain, GridFunction, all_shifts, level_range


def enumerate_cubes(domain: Domain, max_side: float, shifts=None, min_side: float | None = None) -> list[Cube]:
    """All cubes of the requested shifted grids meeting the window.

    Order: level descending (finest cubes first), then shift, then index
    lexicographic; deterministic.
    """
    if max_side < domain.h:
        raise ValueError("max_side below grid resolution")
    shifts = list(all_shifts(domain.dim) if shifts is None else shifts)
    T = domain.half_width
    cubes = []
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
            cubes += [Cube(k, a, m) for m in product(*ranges)]
    return cubes


def cube_quadrature(f: GridFunction, cube: Cube) -> float:
    """Riemann sum h^n * sum of the samples in one cube; zero for a cube
    that misses the window."""
    d = f.domain
    box = tuple(slice(a, max(a, b)) for a, b in cube.lattice_ranges(d))
    return d.h ** d.dim * float(np.sum(f.samples[box]))
