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

from . import norms
from .exponent import VariableExponent, dual_exponent
from .grid import MAIN_GRID_SHIFT, Cube, CubeLayout, Domain, GridFunction, all_shifts, layout_sums, level_range
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
    "moment_order",
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
Q_W_TOL = 1.0 / 32.0
Q_W_CAP = 64.0
CLAMP_FLOOR = 2.0 ** -52
# relative widening of every cube bracket before a layout is pruned; far
# above the per-cube solver's relative error (norms.REL_TOL = 1e-8 per norm)
SLACK = 1e-6
# cubes per bracket call of the branch and bound: small layouts share a
# call, and a call's temporaries stay in cache
BRACKET_BLOCK = 1 << 12


@dataclass(frozen=True)
class Weight:
    """Strictly positive locally integrable density on the lattice."""

    values: GridFunction
    generator: Callable | None = field(default=None, compare=False, repr=False)
    midpoint: bool = False  # generator sampled at cell centers (singular weights)
    # the q_w_estimate result; safe because an instance never changes, and
    # per instance because `generator` takes no part in ==
    _q_w: float | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        v = self.values.samples
        if np.min(v) <= 0 or not np.all(np.isfinite(v)):
            raise ValueError("weight samples must be strictly positive and finite")

    @classmethod
    def from_callable(cls, domain: Domain, fn: Callable, midpoint: bool = False) -> "Weight":
        vals = _sample(domain, fn, midpoint)
        gf = GridFunction._adopt(domain, np.maximum(vals, CLAMP_FLOOR))
        return cls(gf, generator=fn, midpoint=midpoint)

    @classmethod
    def constant(cls, domain: Domain, c: float) -> "Weight":
        if c <= 0:
            raise ValueError(f"constant weight must be positive, got {c:g}")
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
    cube_count: int  # cubes swept, counted once for every (level, shift)
    # cubes whose value was computed, each distinct cube once: a layout that
    # repeats another's cubes takes its values, and the rest were ruled out
    # by a bound
    cubes_solved: int


def _largest(vals: np.ndarray, starts: np.ndarray, count: int) -> MuckenhouptReport:
    """Largest of the flat per-cube values of `_cube_means`' layouts: each
    layout's max, folded in layout order, as a sweep of one layout at a
    time takes them (a layout whose max is nan counts only if it is first)."""
    best = -np.inf
    for v in np.maximum.reduceat(vals, starts).tolist():
        best = max(best, v)
    return MuckenhouptReport(best, count, count)


def _bracket(log_m, p_mean, p_lo, p_hi) -> tuple[np.ndarray, np.ndarray]:
    """Per cube, a lower and an upper bound of log lambda, lambda the
    Luxemburg norm on the cube of a g whose modular is
    sum_Q c |g|^{p(x)} lambda^{-p(x)}.

    With lambda = e^s, phi(s) = log of that modular is convex and
    decreasing, phi(0) = log M for the mass M = sum_Q c |g|^p, and
    -phi'(0) is p_mean, the mean of p under the weights c |g|^p; the root s
    of phi lies above the root of its tangent at 0, log M / p_mean.  phi''
    is a variance of p, at most (p_hi - p_lo)^2 / 4 for p in [p_lo, p_hi],
    so phi lies below log M - p_mean s + kappa s^2, kappa = (p_hi - p_lo)^2
    / 8, and s lies below that parabola's root nearest 0 when it has one.
    s also lies between log M / p_hi and log M / p_lo, the bounds of a
    constant exponent.  A log M that is not finite (an overflowed or
    underflowed mass) brackets nothing.
    """
    disc = p_mean * p_mean - 0.5 * (p_hi - p_lo) ** 2 * log_m  # p_mean^2 - 4 kappa log M
    with np.errstate(invalid="ignore"):
        parabola = 2.0 * log_m / (p_mean + np.sqrt(disc))  # the stable form of the root nearest 0
    # no root (disc < 0) makes the parabola's nan, which fmin passes over
    hi = np.fmin(parabola, np.maximum(log_m / p_lo, log_m / p_hi))
    finite = np.isfinite(log_m)
    return np.where(finite, log_m / p_mean, -np.inf), np.where(finite, hi, np.inf)


def _branch_and_bound(d, max_side, shifts, arrays, ops, bracket, solve) -> MuckenhouptReport:
    """Largest per-cube value over the layouts (level, shift) with side at
    most max_side and shift in `shifts`, solving only the cubes that can
    hold it.

    One pass along the chain pyramids (`layout_sums`, each distinct cube
    layout once) reduces `arrays` per cube with `ops`, and `bracket(level,
    reductions)` turns them into the log lower and log upper bound of every
    cube's value.  Consecutive layouts share a bracket call up to
    BRACKET_BLOCK cubes in all, their reductions laid end to end and
    `level` an array per cube; a larger layout has a call of its own.  Layouts are taken in descending order of their largest upper
    bound, until one's times 1 + SLACK falls below the bar, the best value
    found or the largest lower bound: no cube after it holds a larger
    value.  In each layout taken, `solve(level, shift, cubes)` solves only
    the cubes whose upper bound times 1 + SLACK reaches the bar, or the
    whole layout (cubes None) when they are most of it: gathering most of
    a layout costs more than solving the rest.  A cube's solved value does
    not depend on which other cubes are solved with it, and the shifts
    that share a layout share its bracket and its solve, whose inputs are
    the same: the constant is bitwise the one a sweep of every cube of
    every layout returns.
    """
    levels = level_range(d, max_side)
    if not levels:
        raise ValueError(f"no cube of side at most max_side = {max_side:g} on the lattice of step h = {d.h:g}")
    # the chain from lattice shift a holds the shifts a and 2a mod 3 only
    chains = [a for a in all_shifts(d.dim) if a in shifts or tuple(2 * x % 3 for x in a) in shifts]
    layouts, highs, block = [], [], []  # block: the layouts awaiting their bracket
    bar = 0.0  # every layout's largest value is at least its largest lower bound

    def bracket_block():
        nonlocal bar
        ks, reds = zip(*block)
        sizes = [red[0].size for red in reds]
        if len(block) == 1:  # a large layout alone
            lo, hi = bracket(ks[0], [r.ravel() for r in reds[0]])
        else:  # small ones laid end to end
            lo, hi = bracket(np.repeat(ks, sizes), [np.concatenate([r.ravel() for r in col]) for col in zip(*reds)])
        with np.errstate(over="ignore"):
            bar = max(bar, float(np.exp(np.max(lo))))
        highs.extend(np.split(hi, np.cumsum(sizes)[:-1]))
        block.clear()

    for k, held, red in layout_sums(d, chains, arrays, levels[-1], ops):
        held = [a for a in held if a in shifts]
        if held:
            if block and sum(r[0].size for _, r in block) + red[0].size > BRACKET_BLOCK:
                bracket_block()
            layouts.append((k, held[0], len(held), red[0].size))
            block.append((k, red))
    bracket_block()
    with np.errstate(over="ignore"):
        tops = np.exp([np.max(hi) for hi in highs])
    best, solved = -np.inf, 0
    for i in np.argsort(-tops, kind="stable"):  # stable: ties keep the sweep order
        if tops[i] * (1.0 + SLACK) < bar:
            break
        k, shift, _, size = layouts[i]
        with np.errstate(over="ignore"):
            cubes = np.flatnonzero(np.exp(highs[i]) * (1.0 + SLACK) >= bar)
        if 2 * cubes.size > size:
            cubes = None
        best = max(best, float(np.max(solve(k, shift, cubes))))
        bar = max(bar, best)
        solved += size if cubes is None else cubes.size
    return MuckenhouptReport(best, sum(n * size for _, _, n, size in layouts), solved)


def _cube_means(
    domain: Domain, *arrays, out: list[np.ndarray] | None = None
) -> tuple[np.ndarray, int, list[np.ndarray]]:
    """Zero-extension means of the arrays over the cubes with side at most
    1, from the chain pyramids, each distinct cube layout once
    (`layout_sums`): (starts, cube count, means), where each array's means
    run over the layouts end to end in one fixed order, layout i from
    starts[i], and the cube count counts every (level, shift).  Laid out
    flat, every value the constants take of the means is one array
    expression, whatever the number of levels.  `out`, a flat buffer per
    array from an earlier call on the domain, takes the means level by
    level in place of new arrays.  The mean of ones is exactly 1 on the
    cubes wholly inside the window."""
    coarsest = level_range(domain, 1.0)[-1]
    layouts = layout_sums(domain, all_shifts(domain.dim), arrays, coarsest)
    if out is None:  # the size is known once every layout is summed
        layouts = list(layouts)
        out = [np.empty(sum(sums[0].size for _, _, sums in layouts)) for _ in arrays]
    starts, count, at = [], 0, 0
    for k, shifts, sums in layouts:
        full = 2.0 ** ((domain.level - k) * domain.dim)  # lattice points per cube
        n = sums[0].size
        for s, m in zip(sums, out):
            np.divide(s, full, out=m[at:at + n].reshape(s.shape))
        starts.append(at)
        count += len(shifts) * n
        at += n
    return np.array(starts), count, out


def a_loc_infty_constant(w: Weight) -> MuckenhouptReport:
    """sup over cubes |Q| <= 1 of m_Q(w) exp(-m_Q(log w)).

    Only cubes fully inside the window enter: with zero extension the
    logarithmic mean is undefined on partially covered cubes.
    """
    ws = w.values.samples
    starts, count, (one, mw, mlog) = _cube_means(w.domain, np.ones(ws.shape), ws, np.log(ws))
    return _largest(np.where(one == 1.0, mw * np.exp(-mlog), -np.inf), starts, count)


def _a_p_sweep(w: Weight) -> Callable[[float], MuckenhouptReport]:
    """p -> the A_p^loc sweep of w.  The inside masks and m_Q(w) are built
    once; only m_Q(w^{-1/(p-1)}) depends on p, and it takes the same flat
    buffer for every p: a fresh one per p cost more in page faults than
    the arithmetic from 1-D m = 10 on."""
    d = w.domain
    ws = w.values.samples
    starts, count, (one,) = _cube_means(d, np.ones(ws.shape))
    outside = one != 1.0
    _, _, (mw,) = _cube_means(d, ws, out=[one])  # the means of ones are spent
    ms = np.empty(mw.shape)

    def sweep(p: float) -> MuckenhouptReport:
        _, _, (vals,) = _cube_means(d, ws ** (-1.0 / (p - 1.0)), out=[ms])
        # in place, bitwise m_Q(w) m_Q(sigma)^{p-1}: `**=` takes the fast
        # paths of `**`, and a product does not depend on its order
        vals **= p - 1.0
        vals *= mw
        np.copyto(vals, -np.inf, where=outside)
        return _largest(vals, starts, count)

    return sweep


def a_loc_p_constant(w: Weight, p: float) -> MuckenhouptReport:
    """sup over cubes |Q| <= 1 of m_Q(w) m_Q(w^{-1/(p-1)})^{p-1}."""
    if not (p > 1 and np.isfinite(p)):
        raise ValueError("p must exceed 1 and be finite")
    return _a_p_sweep(w)(p)


def a1_loc_constant(w: Weight) -> MuckenhouptReport:
    """sup over the lattice of M^loc w / w."""
    from .maximal import local_maximal

    mloc = local_maximal(w.values)
    ratio = mloc.samples / w.values.samples
    return MuckenhouptReport(float(np.max(ratio)), ratio.size, ratio.size)


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
    elif not (q > 1 and np.isfinite(q)):
        raise ValueError(f"q must exceed 1 and be finite, got {q:g}")
    ws = w.values.samples
    with np.errstate(divide="ignore", invalid="ignore"):
        starts, count, (one, mq, mw) = _cube_means(d, np.ones(ws.shape), ws ** q, ws)
        worst = _largest(np.where(one == 1.0, mq ** (1.0 / q) / mw, -np.inf), starts, count)
    return Report(
        "reverse_holder_check",
        passed=worst.constant <= 2.0,
        quantities={"worst_ratio": worst.constant, "q": q},
    )


def dual_weight(w: Weight, p: VariableExponent) -> Weight:
    """sigma = w^{-1/(p(.)-1)}; the conjugate density."""
    p.requires_class_p()
    sig = w.values.samples ** (-1.0 / (p.values.samples - 1.0))
    return Weight(GridFunction._adopt(w.domain, sig))


def a_loc_var_constant(w: Weight, p: VariableExponent) -> MuckenhouptReport:
    """sup over cubes |Q| <= 1 of |Q|^{-1} ||chi_Q||_{p(.),w} ||chi_Q||_{p'(.),sigma}.

    Both norms are bracketed per cube (`_bracket`) from w(Q) and sigma(Q),
    the means of p under w and of p' under sigma, and p_-(Q), p_+(Q); the
    bracket lies inside the one between M^{1/p_-(Q)} and M^{1/p_+(Q)}.
    Only the cubes whose upper bound can reach the sup are solved.
    """
    p.requires_class_p()
    d = w.domain
    pd = dual_exponent(p)
    sigma = dual_weight(w, p)
    pv = p.values.samples
    hn = d.h ** d.dim

    def bracket(level, red):
        mw, ms, mwp, msp, p_lo, p_hi = red
        w_lo, w_hi = _bracket(np.log(mw * hn), mwp / mw, p_lo, p_hi)
        s_lo, s_hi = _bracket(np.log(ms * hn), msp / ms, p_hi / (p_hi - 1.0), p_lo / (p_lo - 1.0))
        inv_vol = level * d.dim * math.log(2.0)
        return inv_vol + w_lo + s_lo, inv_vol + w_hi + s_hi

    def per_cube(level, shift, cubes=None):
        layout = CubeLayout(d, level, shift)  # one for both norms
        n1, _ = norms.batch_restricted_norms(1.0, p, w, level, shift, cubes, layout)
        n2, _ = norms.batch_restricted_norms(1.0, pd, sigma, level, shift, cubes, layout)
        return n1 * n2 / (2.0 ** (-level)) ** d.dim

    ws, ss = w.values.samples, sigma.values.samples
    return _branch_and_bound(
        d, 1.0, all_shifts(d.dim), (ws, ss, ws * pv, ss * pd.values.samples, pv, pv),
        (np.add, np.add, np.add, np.add, np.minimum, np.maximum), bracket, per_cube,
    )


def q_w_estimate(w: Weight) -> float:
    """Critical index: smallest p with a resolution-stable A_p^loc constant.

    Bisection over (1, Q_W_CAP] to width Q_W_TOL; requires a generator on
    the weight so the constant can be recomputed one level finer.  The
    result is kept on the instance: a repeated call returns it at once,
    while `w.at_level(k)` is a new instance and is searched afresh.
    """
    if w._q_w is not None:
        return w._q_w
    coarse = _a_p_sweep(w)
    fine = _a_p_sweep(w.at_level(w.domain.level + 1))

    def stable(p: float) -> bool:
        return fine(p).constant <= Q_W_STABILITY * coarse(p).constant

    if not stable(Q_W_CAP):
        raise ValueError("not in A^loc_infty numerically: unstable at the search cap")
    lo, hi = 1.0, Q_W_CAP
    # most weights are stable well below the cap; tighten before bisecting
    if stable(2.0):
        hi = 2.0
    while hi - lo > Q_W_TOL:
        mid = 0.5 * (lo + hi)
        if stable(mid):
            hi = mid
        else:
            lo = mid
    object.__setattr__(w, "_q_w", hi)
    return hi


def moment_order(n: int, q_w: float, r: float) -> int:
    """floor(n (q_w / r - 1)), the moment order that the theorems ask of
    atoms (r = v) and of test functions and wavelets (r = min(1, p_minus))."""
    return math.floor(n * (q_w / r - 1.0))


def tilde_a_constant(
    w: Weight, p: VariableExponent, max_side: float | None = None
) -> MuckenhouptReport:
    """Dyadic-grid variant: sup over cubes of one grid of
    |Q|^{-p_Q} ||w||_{L^1(Q)} ||w^{-1}||_{L^{p'(.)/p(.)}(Q)}.

    With r = p'/p = 1/(p - 1), the last factor is bracketed per cube
    (`_bracket`) from M, the integral of w^{-r} over Q, the mean of r under
    w^{-r}, and r's range; the bracket lies inside the one between
    M^{p_- - 1} and M^{p_+ - 1}.  Only the cubes whose upper bound can
    reach the sup are solved.
    """
    p.requires_class_p()
    d = w.domain
    shift = (MAIN_GRID_SHIFT,) * d.dim
    if max_side is None:
        max_side = 2.0 * d.half_width
    pv = p.values.samples
    ratio_exp = VariableExponent(
        GridFunction._adopt(d, pv / (pv - 1.0) / pv), p_infty=None
    )  # p'(.)/p(.) = 1/(p(.)-1)
    winv = 1.0 / w.values.samples
    ws = w.values.samples
    hn = d.h ** d.dim

    def bracket(level, red):
        count, mw, m, mr, inv_p, p_lo, p_hi = red
        lo, hi = _bracket(np.log(m * hn), mr / m, 1.0 / (p_hi - 1.0), 1.0 / (p_lo - 1.0))
        # |Q|^{-p_Q} with p_Q the harmonic mean of p over the cube
        base = count / inv_p * (level * d.dim * math.log(2.0)) + np.log(mw * hn)
        inside = count == 2.0 ** ((d.level - level) * d.dim)
        return np.where(inside, base + lo, -np.inf), np.where(inside, base + hi, -np.inf)

    def per_cube(level, shift, cubes=None):
        layout = CubeLayout(d, level, shift)
        norms_q, _ = norms.batch_restricted_norms(winv, ratio_exp, None, level, shift, cubes, layout)
        vol = (2.0 ** (-level)) ** d.dim
        occupancy, inv_p, mass = layout.occupancy(), layout.means(1.0 / pv), layout.sums(ws)
        if cubes is not None:
            occupancy, inv_p, mass = occupancy[cubes], inv_p[cubes], mass[cubes]
        p_q = occupancy / inv_p  # harmonic mean of p over each cube
        return np.where(occupancy > 1.0 - 1e-9, vol ** (-p_q) * (mass * hn) * norms_q, -np.inf)

    r = ratio_exp.values.samples
    mass = winv ** r  # the modular's weights c |g|^r, up to h^n
    return _branch_and_bound(
        d, max_side, [shift], (np.ones(d.shape), ws, mass, mass * r, 1.0 / pv, pv, pv),
        (np.add, np.add, np.add, np.add, np.add, np.minimum, np.maximum), bracket, per_cube,
    )


def stability_ratio(coarse: float, fine: float) -> float:
    """Finer-over-coarser constant ratio; > STABILITY_FACTOR flags blow-up."""
    if coarse <= 0:
        return math.inf
    return fine / coarse
