"""Maximal-type operators and convolution kernels.

Every cube supremum runs over the shifted dyadic enumeration: the covering
property of the three shifted grids brackets the supremum over arbitrary
cubes within a factor 6^n, so the dyadic supremum is the canonical
computable object here.  The cube sums of every level come from the chain
pyramid of `grid.chain_sums`, the one multi-level sweep that the weight
constants use too.  The running supremum comes back down the pyramid in
place: each level's means overwrite its sums, the parent's value raises
them one parity class at a time, and the lattice level is the caller's
array, so for a plain maximal function |f| itself (its lattice mean).  One
grid is the union of two chains on alternate levels, so `grid_maximal`
costs O(points) per grid; the all-grid operators sweep each of the 3^n
chains once, O(points * 3^n) in all.
"""

from __future__ import annotations

import math
import warnings
from itertools import product

import numpy as np

from .exponent import VariableExponent
from .grid import (
    MAIN_GRID_SHIFT,
    CubeLayout,
    Domain,
    GridFunction,
    all_shifts,
    chain_sums,
    convolve,
    level_range,
)
from .report import Report
from .weights import Weight

__all__ = [
    "hl_maximal",
    "local_maximal",
    "grid_maximal",
    "powered_weighted_local_maximal",
    "k_b_operator",
    "peak_majorant_convolution",
    "peak_majorant_domination",
    "averaging_e_k",
    "restricted_dyadic_maximal",
    "boundedness_probe",
    "vector_valued_maximal_ratio",
]


def _raise(run: np.ndarray, parent: np.ndarray, lead: list[int], fill: bool = False) -> None:
    """run[j] = max(run[j], parent[(j + lead) // 2]) in place, or the parent
    value alone with `fill`: child j of a `chain_sums` level lies in parent
    (j + lead) // 2 per axis, so one strided step per parity class."""
    axes = [
        [(slice(j, None, 2), slice((j + z) // 2, (j + z) // 2 + (n - j + 1) // 2)) for j in (0, 1)]
        for n, z in zip(run.shape, lead)
    ]
    for cls in product(*axes):
        child = run[tuple(c for c, _ in cls)]
        up = parent[tuple(q for _, q in cls)]
        if fill:
            child[...] = up
        else:
            np.maximum(child, up, out=child)


def _chain_sup(out: np.ndarray, sweep: list, levels, value) -> None:
    """Raise the lattice array `out` in place to the max over the coarser
    `levels` of value(k, *cube sums) along one chain, whose `chain_sums`
    are listed in `sweep`.  `value` writes into the first sums of its level,
    and a level outside `levels` takes its parent's value in its own sums,
    so no level is allocated anew.  The lattice level is left to `out`."""
    run = lead = None
    for k, _, below, sums in reversed(sweep[1:]):  # the coarsest level is in `levels`
        if k in levels:
            cur = value(k, *sums)
            if run is not None:
                _raise(cur, run, lead)
        else:
            cur = sums[0]
            _raise(cur, run, lead, fill=True)
        run, lead = cur, below
    if run is not None:
        _raise(out, run, lead)


def _sweep_chains(out: np.ndarray, d: Domain, shifts, arrays, levels, value) -> None:
    """`_chain_sup` along the chain of each lattice shift in `shifts` over
    all `levels`, each pyramid built just before its descent, so only one
    is alive at a time."""
    for a in shifts:
        _chain_sup(out, list(chain_sums(d, a, arrays, min(levels))), levels, value)


def _cube_means(d: Domain):
    """The `_chain_sup` value of a plain maximal function: a level's sums
    of |f| become means against the full cube volume (zero extension), in
    place."""
    return lambda k, s: np.multiply(s, 2.0 ** ((k - d.level) * d.dim), out=s)


def grid_maximal(f: GridFunction, shift: tuple[int, ...], max_side: float | None = None,
                 min_side: float | None = None) -> GridFunction:
    """Maximal operator generated by the single shifted grid `shift`.

    The grid is the chain from `shift` on levels k with m - k even and the
    chain from 2 * shift mod 3 on the odd ones (the same chain if shift is
    zero).
    """
    d = f.domain
    if len(shift) != d.dim or not all(a in (0, 1, 2) for a in shift):
        raise ValueError(f"invalid shift {shift}")
    if max_side is None:
        max_side = 4.0 * d.half_width
    if math.isnan(max_side) or (min_side is not None and math.isnan(min_side)):
        raise ValueError(f"max_side and min_side must not be nan, got {max_side} and {min_side}")
    levels = level_range(d, max_side, min_side)
    absf = np.abs(f.samples)  # the lattice level's mean
    out = absf if d.level in levels else np.zeros(d.shape)
    if not any(shift):
        chains = [(shift, levels)]
    else:
        other = tuple(2 * a % 3 for a in shift)
        chains = [(shift, [k for k in levels if (d.level - k) % 2 == 0]),
                  (other, [k for k in levels if (d.level - k) % 2])]
    # both chains sum |f|, so take their sums before `out` is raised
    sweeps = [(list(chain_sums(d, a, (absf,), min(ks))), ks) for a, ks in chains if ks]
    mean = _cube_means(d)
    for sweep, ks in sweeps:
        _chain_sup(out, sweep, ks, mean)
    return GridFunction._adopt(d, out)


def hl_maximal(f: GridFunction) -> GridFunction:
    """Hardy-Littlewood maximal function over all shifted grids, all sizes.

    A computable minorant of the supremum over arbitrary cubes; the two
    agree within the covering factor 6^n.
    """
    return _all_grids_maximal(f, 4.0 * f.domain.half_width)


def local_maximal(f: GridFunction, R: float = 1.0) -> GridFunction:
    """Maximal function restricted to cubes of volume at most R^n."""
    if not math.isfinite(R):
        raise ValueError(f"R must be finite, got {R}")
    if R < f.domain.h:
        raise ValueError("R below grid resolution")
    return _all_grids_maximal(f, R)


def _all_grids_maximal(f: GridFunction, max_side: float) -> GridFunction:
    """Pointwise max of `grid_maximal` over every shifted grid, one sweep
    per chain.

    The grids of a and 2a mod 3 are the chains from a and 2a on alternate
    levels, so together they are both chains on every level, and the zero
    shift's grid is its own chain.  So the zero shift's grid comes from
    `grid_maximal` (looked up by module attribute), and the chain of each
    nonzero shift raises it over all levels: 3^n pyramids in place of
    2 * 3^n - 1, and the same max, bit for bit.
    """
    d = f.domain
    out = np.array(grid_maximal(f, (0,) * d.dim, max_side).samples)
    nonzero = all_shifts(d.dim)[1:]  # all_shifts puts the zero shift first
    _sweep_chains(out, d, nonzero, (np.abs(f.samples),), level_range(d, max_side), _cube_means(d))
    return GridFunction._adopt(d, out)


def powered_weighted_local_maximal(f: GridFunction, w: Weight, u: float) -> GridFunction:
    """sup over cubes |Q| <= 1 of ((1/w(Q)) int_Q |f|^u w)^{1/u}.

    u = 1 recovers the weighted local maximal operator.  Values are scaled
    by sup|f| internally so large u does not overflow.
    """
    if not (0 < u < math.inf):
        raise ValueError(f"u must be positive and finite, got {u}")
    d = f.domain
    if w.domain != d:
        raise ValueError("domain mismatch")
    scale = f.sup()
    if scale == 0.0:
        return GridFunction._adopt(d, np.zeros(d.shape))
    ws = w.values.samples  # strictly positive, so every cube has w(Q) > 0
    g = (np.abs(f.samples) / scale) ** u * ws

    def ratio(k, num, den):
        return np.divide(num, den, out=num)

    # the chains from all 3^n lattice shifts cover every (level, shift) once;
    # the lattice level, one point per cube for every shift, seeds `out`
    out = g / ws
    _sweep_chains(out, d, all_shifts(d.dim), (g, ws), level_range(d, 1.0), ratio)
    return GridFunction._adopt(d, scale * out ** (1.0 / u))


def k_b_operator(f: GridFunction, B: float) -> GridFunction:
    """Convolution with the exponential kernel e^{-B|x|}.

    The kernel is truncated at the window edge; with the default B = 16
    the truncation error is below 1e-10.
    """
    if not (0 < B < math.inf):
        raise ValueError(f"B must be positive and finite, got {B}")
    d = f.domain
    r = d.radius()
    kernel = GridFunction._adopt(d, np.exp(-B * r))
    return convolve(f, kernel)


def peak_majorant_kernel(domain: Domain, j: int, A: float, B: float) -> GridFunction:
    """Reciprocal peak majorant 1 / ((1 + 2^j |x|)^A e^{|x| B})."""
    r = domain.radius()
    return GridFunction._adopt(domain, (1.0 + 2.0**j * r) ** (-A) * np.exp(-B * r))


def peak_majorant_convolution(f: GridFunction, j: int, A: float, B: float) -> GridFunction:
    """2^{jn} * convolution of f with the reciprocal peak majorant."""
    for name, v in (("A", A), ("B", B)):
        if not (0 < v < math.inf):
            raise ValueError(f"{name} must be positive and finite, got {v}")
    if j < 0:
        raise ValueError("j must be nonnegative")
    d = f.domain
    out = convolve(f, peak_majorant_kernel(d, j, A, B))
    return GridFunction._adopt(d, (2.0 ** (j * d.dim)) * out.samples)


def peak_majorant_domination(f: GridFunction, j: int, A: float, B: float) -> Report:
    """Pointwise domination of the majorant convolution by K_B|f| + M^loc f.

    Records the smallest constant C with output <= C (K_B|f| + M^loc f)
    on the lattice.
    """
    lhs = peak_majorant_convolution(abs(f), j, A, B).samples
    rhs = k_b_operator(abs(f), B).samples + local_maximal(f).samples
    mask = rhs > 0
    if not np.any(mask):
        return Report("peak_majorant_domination", passed=True, quantities={"constant": 0.0})
    c = float(np.max(lhs[mask] / rhs[mask]))
    leak = float(np.max(lhs[~mask])) if np.any(~mask) else 0.0
    return Report(
        "peak_majorant_domination",
        passed=leak <= 1e-12,
        quantities={"constant": c, "outside_support_leak": leak},
    )


def averaging_e_k(f: GridFunction, k: int) -> GridFunction:
    """Piecewise-constant cube averages on level-k cubes of the
    distinguished grid.

    Averages follow the zero-extension convention (integral over the full
    cube volume), so the restricted maximal operator dominates pointwise.
    Cubes cut by the window edge are therefore averaged against their full
    volume; idempotence is exact on interior cubes only.
    """
    cubes = CubeLayout(f.domain, k, (MAIN_GRID_SHIFT,) * f.domain.dim)
    return GridFunction._adopt(f.domain, cubes.field(cubes.means(f.samples)))


def restricted_dyadic_maximal(f: GridFunction, r0: float, mode: str) -> GridFunction:
    """Distinguished-grid maximal function over sides <= r0 or >= r0."""
    d = f.domain
    if not (d.h <= r0 <= 2.0 * d.half_width):
        raise ValueError("r0 out of range")
    shift = (MAIN_GRID_SHIFT,) * d.dim
    if mode == "below":
        return grid_maximal(f, shift, max_side=r0)
    if mode == "above":
        return grid_maximal(f, shift, max_side=4.0 * d.half_width, min_side=r0)
    raise ValueError("mode must be 'below' or 'above'")


def boundedness_probe(op, p: VariableExponent, w: Weight | None, family) -> Report:
    """Empirical operator norm: sup over the family of ||op f|| / ||f||."""
    from .norms import luxemburg_norm

    ratios = []
    skipped = 0
    for f in family:
        nf = luxemburg_norm(f, p, w)
        if nf == 0.0:
            warnings.warn("skipping zero-norm family member")
            skipped += 1
            continue
        ratios.append(luxemburg_norm(op(f), p, w) / nf)
    if not ratios:
        raise ValueError("family contains no usable member")
    return Report(
        "boundedness_probe",
        quantities={"operator_norm": float(np.max(ratios)), "skipped": float(skipped)},
    )


def vector_valued_maximal_ratio(
    family, q: float, p: VariableExponent, w: Weight | None
) -> Report:
    """Fefferman-Stein style ratio for one family:
    ||(sum (M^loc f_j)^q)^{1/q}|| / ||(sum |f_j|^q)^{1/q}||."""
    from .norms import luxemburg_norm

    if not (1 < q < math.inf):
        raise ValueError(f"q must exceed 1 and be finite, got {q}")
    family = list(family)
    if not family:
        raise ValueError("family is empty")
    d = family[0].domain
    num = np.zeros(d.shape)
    den = np.zeros(d.shape)
    for f in family:
        num += local_maximal(f).samples ** q
        den += np.abs(f.samples) ** q
    lhs = luxemburg_norm(GridFunction._adopt(d, num ** (1.0 / q)), p, w)
    rhs = luxemburg_norm(GridFunction._adopt(d, den ** (1.0 / q)), p, w)
    ratio = math.inf if rhs == 0 else lhs / rhs
    return Report("vector_valued_maximal_ratio", quantities={"ratio": ratio, "lhs": lhs, "rhs": rhs})
