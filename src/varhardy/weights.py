"""Weights and the Muckenhoupt-type constants used by the probes.

Every "sup over cubes" runs over the shifted dyadic enumeration; the
constants are therefore computable minorants of the continuum values,
bracketed within the usual 6^n covering factor.  Class membership on a
finite grid is operationalized as two-resolution stability: the constant
computed at levels m and m+1 must stay within a fixed ratio.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .exponent import VariableExponent, dual_exponent
from .grid import Cube, CubeLayout, Domain, GridFunction, all_shifts, level_range
from .report import Report

__all__ = [
    "Weight",
    "MuckenhouptReport",
    "a_loc_infty_constant",
    "a_loc_p_constant",
    "a1_loc_constant",
    "reverse_holder_check",
    "a_loc_var_constant",
    "dual_weight",
    "q_w_estimate",
    "tilde_a_constant",
    "stability_ratio",
    "STABILITY_FACTOR",
]

STABILITY_FACTOR = 1.5  # constant(m+1)/constant(m) above this means "not in the class"
# The critical-index search needs a much finer cut: near the threshold
# exponent the constant grows like a small power of 1/h (about 2^{q_w - p}
# per level for power weights), so a 1.5 cut would miss the transition
# entirely.  1.05 locates the power-weight critical index within the 1/32
# bisection tolerance.
Q_W_STABILITY = 1.05
CLAMP_FLOOR = 2.0 ** -52


@dataclass(frozen=True)
class Weight:
    """Strictly positive locally integrable density on the lattice."""

    values: GridFunction
    generator: Callable | None = field(default=None, compare=False, repr=False)
    midpoint: bool = False  # generator sampled at cell centers (singular weights)
    # q_w_estimate results by (tol, cap, threshold); safe because an instance
    # never changes, and per instance because `generator` takes no part in ==
    _q_w_memo: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        v = self.values.samples
        if np.min(v) <= 0 or not np.all(np.isfinite(v)):
            raise ValueError("weight samples must be strictly positive and finite")

    @classmethod
    def from_callable(cls, domain: Domain, fn: Callable, midpoint: bool = False) -> "Weight":
        vals = _sample(domain, fn, midpoint)
        gf = GridFunction(domain, np.maximum(vals, CLAMP_FLOOR))
        return cls(gf, generator=fn, midpoint=midpoint)

    @classmethod
    def constant(cls, domain: Domain, c: float) -> "Weight":
        return cls.from_callable(
            domain, lambda *xs: np.full(np.broadcast(*xs).shape, float(c))
        )

    @property
    def domain(self) -> Domain:
        return self.values.domain

    def at_level(self, level: int) -> "Weight":
        if self.generator is None:
            raise ValueError("weight has no generator; cannot change resolution")
        d = self.domain
        return Weight.from_callable(
            Domain(d.dim, d.half_width, level), self.generator, self.midpoint
        )

    def mass(self, cube: Cube | None = None) -> float:
        from .grid import quadrature

        return quadrature(self.values, cube)


def _sample(domain: Domain, fn: Callable, midpoint: bool) -> np.ndarray:
    off = domain.h / 2 if midpoint else 0.0
    vals = fn(*(x + off for x in domain.coords()))
    return np.broadcast_to(vals, domain.shape).astype(float)


@dataclass
class MuckenhouptReport:
    constant: float
    cube_count: int


def _layouts(domain: Domain, max_side: float = 1.0, shifts=None):
    """CubeLayouts of every (level, shift) of the enumeration, finest first."""
    if shifts is None:
        shifts = all_shifts(domain.dim)
    return (CubeLayout(domain, k, a) for k in level_range(domain, max_side) for a in shifts)


def _largest(per_layout) -> MuckenhouptReport:
    """Largest value over the flat per-cube value arrays of the layouts."""
    best = -np.inf
    count = 0
    for vals in per_layout:
        count += vals.size
        best = max(best, float(np.max(vals)))
    return MuckenhouptReport(best, count)


def _sweep_cubes(
    domain: Domain,
    per_cube_fn,
    max_side: float = 1.0,
    shifts=None,
) -> MuckenhouptReport:
    """Maximize a per-cube quantity over the enumeration.

    per_cube_fn(cubes) gets the CubeLayout of one (level, shift) and must
    return a flat array with one value per cube of that layout.
    """
    return _largest(per_cube_fn(cubes) for cubes in _layouts(domain, max_side, shifts))


def _inside(cubes: CubeLayout) -> np.ndarray:
    """Cubes lying wholly inside the window."""
    return cubes.occupancy() > 1.0 - 1e-9


def a_loc_infty_constant(w: Weight) -> MuckenhouptReport:
    """sup over cubes |Q| <= 1 of m_Q(w) exp(-m_Q(log w)).

    Only cubes fully inside the window enter: with zero extension the
    logarithmic mean is undefined on partially covered cubes.
    """
    d = w.domain
    ws = w.values.samples
    logw = np.log(ws)

    def per_cube(cubes):
        return np.where(_inside(cubes), cubes.means(ws) * np.exp(-cubes.means(logw)), -np.inf)

    return _sweep_cubes(d, per_cube)


def _a_p_sweep(w: Weight) -> Callable[[float], MuckenhouptReport]:
    """p -> the A_p^loc sweep of w.  The layouts, their inside masks and
    m_Q(w) are built once; only m_Q(w^{-1/(p-1)}) depends on p."""
    ws = w.values.samples
    table = [(cubes, _inside(cubes), cubes.means(ws)) for cubes in _layouts(w.domain)]

    def sweep(p: float) -> MuckenhouptReport:
        sig = ws ** (-1.0 / (p - 1.0))
        return _largest(
            np.where(inside, mw * cubes.means(sig) ** (p - 1.0), -np.inf) for cubes, inside, mw in table
        )

    return sweep


def a_loc_p_constant(w: Weight, p: float) -> MuckenhouptReport:
    """sup over cubes |Q| <= 1 of m_Q(w) m_Q(w^{-1/(p-1)})^{p-1}."""
    if p <= 1:
        raise ValueError("p must exceed 1")
    return _a_p_sweep(w)(p)


def a1_loc_constant(w: Weight) -> MuckenhouptReport:
    """sup over the lattice of M^loc w / w."""
    from .maximal import local_maximal

    mloc = local_maximal(w.values)
    ratio = mloc.samples / w.values.samples
    return MuckenhouptReport(float(np.max(ratio)), ratio.size)


def reverse_holder_check(w: Weight, q: float | None = None) -> Report:
    """Self-improvement check m_Q(w^q)^{1/q} <= 2 m_Q(w) over cubes |Q| <= 1.

    Without an explicit q, uses q = 1 + 1/(4^{n+6} [w]_{A1 loc}) computed
    from the measured constant; that exponent makes the factor-2 bound hold
    for any A1-type weight.
    """
    d = w.domain
    if q is None:
        a1 = a1_loc_constant(w).constant
        if not np.isfinite(a1):
            raise ValueError("A1 constant not finite")
        q = 1.0 + 1.0 / (4.0 ** (d.dim + 6) * a1)
    ws = w.values.samples
    wq = ws ** q

    def per_cube(cubes):
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(_inside(cubes), cubes.means(wq) ** (1.0 / q) / cubes.means(ws), -np.inf)

    worst = _sweep_cubes(d, per_cube)
    return Report(
        "reverse_holder_check",
        passed=worst.constant <= 2.0,
        quantities={"worst_ratio": worst.constant, "q": q},
    )


def dual_weight(w: Weight, p: VariableExponent) -> Weight:
    """sigma = w^{-1/(p(.)-1)}; the conjugate density."""
    p.requires_class_p()
    sig = w.values.samples ** (-1.0 / (p.values.samples - 1.0))
    gen = None
    if w.generator is not None and p.generator is not None:
        wg, pg, mp = w.generator, p.generator, w.midpoint
        dom = w.domain

        def gen(*xs):
            wv = np.maximum(np.asarray(wg(*xs), dtype=float), CLAMP_FLOOR)
            # exponent generators sample at lattice points even when the
            # weight uses midpoints; shift back for consistency
            off = dom.h / 2 if mp else 0.0
            pv = np.asarray(pg(*[np.asarray(x) - off for x in xs]), dtype=float)
            return wv ** (-1.0 / (pv - 1.0))

    return Weight(GridFunction(w.domain, sig), generator=gen, midpoint=w.midpoint)


def a_loc_var_constant(w: Weight, p: VariableExponent) -> MuckenhouptReport:
    """sup over cubes |Q| <= 1 of |Q|^{-1} ||chi_Q||_{p(.),w} ||chi_Q||_{p'(.),sigma}."""
    from .norms import batch_indicator_norms

    p.requires_class_p()
    d = w.domain
    pd = dual_exponent(p)
    sigma = dual_weight(w, p)

    def per_cube(cubes):
        n1, _ = batch_indicator_norms(p, w, cubes.level, cubes.shift)
        n2, _ = batch_indicator_norms(pd, sigma, cubes.level, cubes.shift)
        return n1 * n2 / (2.0 ** (-cubes.level)) ** d.dim

    return _sweep_cubes(d, per_cube)


def q_w_estimate(
    w: Weight,
    tol: float = 1.0 / 32.0,
    cap: float = 64.0,
    threshold: float = Q_W_STABILITY,
) -> float:
    """Critical index: smallest p with a resolution-stable A_p^loc constant.

    Bisection over (1, cap]; requires a generator on the weight so the
    constant can be recomputed one level finer.  The result is kept on the
    instance: a repeated call with the same arguments returns it at once,
    while `w.at_level(k)` is a new instance and is searched afresh.
    """
    key = (tol, cap, threshold)
    if key in w._q_w_memo:
        return w._q_w_memo[key]
    coarse = _a_p_sweep(w)
    fine = _a_p_sweep(w.at_level(w.domain.level + 1))

    def stable(p: float) -> bool:
        return fine(p).constant <= threshold * coarse(p).constant

    if not stable(cap):
        raise ValueError("not in A^loc_infty numerically: unstable at the search cap")
    lo, hi = 1.0, cap
    # most weights are stable well below the cap; tighten before bisecting
    if stable(2.0):
        hi = 2.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if stable(mid):
            hi = mid
        else:
            lo = mid
    w._q_w_memo[key] = hi
    return hi


def tilde_a_constant(
    w: Weight, p: VariableExponent, max_side: float | None = None
) -> MuckenhouptReport:
    """Dyadic-grid variant: sup over cubes of one grid of
    |Q|^{-p_Q} ||w||_{L^1(Q)} ||w^{-1}||_{L^{p'(.)/p(.)}(Q)}."""
    from .norms import batch_restricted_norms

    p.requires_class_p()
    d = w.domain
    shift = (1,) * d.dim
    if max_side is None:
        max_side = 2.0 * d.half_width
    pv = p.values.samples
    ratio_exp = VariableExponent(
        GridFunction(d, pv / (pv - 1.0) / pv), p_infty=None
    )  # p'(.)/p(.) = 1/(p(.)-1)
    winv = 1.0 / w.values.samples
    ws = w.values.samples
    hn = d.h ** d.dim

    def per_cube(cubes):
        norms, _ = batch_restricted_norms(winv, ratio_exp, None, cubes.level, shift)
        vol = (2.0 ** (-cubes.level)) ** d.dim
        p_q = cubes.occupancy() / cubes.means(1.0 / pv)  # harmonic mean of p over each cube
        return np.where(_inside(cubes), vol ** (-p_q) * (cubes.sums(ws) * hn) * norms, -np.inf)

    return _sweep_cubes(d, per_cube, max_side, shifts=[shift])


def stability_ratio(coarse: float, fine: float) -> float:
    """Finer-over-coarser constant ratio; > STABILITY_FACTOR flags blow-up."""
    if coarse <= 0:
        return math.inf
    return fine / coarse
