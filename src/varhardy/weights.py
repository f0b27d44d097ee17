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
from .grid import MAIN_GRID_SHIFT, CubeLayout, Domain, GridFunction, all_shifts, layout_sums, level_range
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
# the variance of p under a modular's weights, E[p^2] - E[p]^2, is raised
# by this times E[p^2] before it bounds a norm (`_bennett`): the difference
# of two sums cancels, with an error estimated at 7e-15 E[p^2]
VARIANCE_MARGIN = 1e-12


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
    # candidate cubes whose upper bound the second moment tightened
    # (`_bennett`)
    cubes_refined: int


def _largest(vals: np.ndarray, starts: np.ndarray, count: int) -> MuckenhouptReport:
    """Largest of the flat per-cube values of `_cube_means`' layouts: each
    layout's max, folded in layout order, as a sweep of one layout at a
    time takes them (a layout whose max is nan counts only if it is first)."""
    best = -np.inf
    for v in np.maximum.reduceat(vals, starts).tolist():
        best = max(best, v)
    return MuckenhouptReport(best, count, count, 0)


def _bracket(log_m, p_mean, p_lo, p_hi, p_sq=None) -> tuple[np.ndarray, np.ndarray]:
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
    underflowed mass) brackets nothing.  `p_sq`, the mean of p^2 under the
    same weights, tightens the upper bound with the cube's own variance of
    p, which may be far below (p_hi - p_lo)^2 / 4 (`_bennett`).
    """
    disc = p_mean * p_mean - 0.5 * (p_hi - p_lo) ** 2 * log_m  # p_mean^2 - 4 kappa log M
    with np.errstate(invalid="ignore"):
        parabola = 2.0 * log_m / (p_mean + np.sqrt(disc))  # the stable form of the root nearest 0
    # no root (disc < 0) makes the parabola's nan, which fmin passes over
    hi = np.fmin(parabola, np.maximum(log_m / p_lo, log_m / p_hi))
    if p_sq is not None:
        hi = _bennett(log_m, p_mean, p_sq, p_lo, p_hi, hi)
    finite = np.isfinite(log_m)
    return np.where(finite, log_m / p_mean, -np.inf), np.where(finite, hi, np.inf)


def _bennett(log_m, p_mean, p_sq, p_lo, p_hi, hi) -> np.ndarray:
    """`_bracket`'s upper bound hi of s tightened by Bennett's inequality
    (Bennett, JASA 57 (1962)): phi(s) = log M + log E e^{-s (p - p_mean)},
    the mean E under the weights c |g|^p, and for X = p_mean - p (s > 0) or
    p - p_mean (s < 0), of mean 0 and at most b = p_mean - p_lo or
    p_hi - p_mean, and for any v at least the variance of p,
    log E e^{|s| X} <= (v / b^2)(e^{|s| b} - 1 - |s| b).  So phi lies below
    U(s) = log M - p_mean s + (v / b^2)(e^{|s| b} - 1 - |s| b), and every
    s with U(s) <= 0 lies above phi's root.  U is convex, monotone on the
    side of 0 where the root lies, and at least 0 at the tangent root
    log M / p_mean.  Where U(hi) <= 0, regula falsi between the two keeps
    its right end at a point where U <= 0, and Newton from the tangent
    root, whose steps stay left of U's root, moves its left end: three of
    each.  v is E[p^2] - p_mean^2 plus VARIANCE_MARGIN E[p^2], which
    covers the cancellation of the difference; b = 0 takes the limit
    v s^2 / 2.  Where U(hi) > 0 (the Hoeffding parabola's term is the
    smaller there) hi stays."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        v = np.maximum(p_sq - p_mean * p_mean, 0.0) + VARIANCE_MARGIN * p_sq
        b = np.maximum(np.where(log_m > 0.0, p_mean - p_lo, p_hi - p_mean), 0.0)
        side = np.sign(log_m)

        def u(s):  # U(s) and U'(s)
            t = np.abs(s)
            x = t * b
            small = x < 1e-3
            xs = np.where(small, 1.0, x)
            em1 = np.expm1(xs)
            # (e^x - 1 - x) / x^2 and (e^x - 1) / x, by their series near 0
            f = np.where(small, 0.5 + x * (1.0 / 6.0 + x * (1.0 / 24.0 + x / 120.0)), (em1 - xs) / (xs * xs))
            g = np.where(small, 1.0 + x * (0.5 + x * (1.0 / 6.0 + x / 24.0)), em1 / xs)
            return log_m - p_mean * s + v * t * t * f, side * v * t * g - p_mean

        a, c = log_m / p_mean, hi
        ua, da = u(a)
        uc, _ = u(c)
        for _ in range(3):
            step = (ua > 0.0) & (da < 0.0)
            a = np.where(step, a - ua / da, a)
            ua, da = u(a)
            # the chord from (a, U(a) >= 0) to (c, U(c) <= 0) lies above the
            # convex U, so its root is a point where U <= 0; an a where U
            # already is <= 0 is one itself
            chord = np.where(ua > 0.0, c - uc * (c - a) / (uc - ua), a)
            c = np.where(uc <= 0.0, np.minimum(c, chord), c)
            uc, _ = u(c)
    return np.fmin(hi, c)


def _branch_and_bound(d, max_side, shifts, arrays, ops, moments, bracket, solve) -> MuckenhouptReport:
    """Largest per-cube value over the layouts (level, shift) with side at
    most max_side and shift in `shifts`, solving only the cubes that can
    hold it.

    One pass along the chain pyramids (`layout_sums`, each distinct cube
    layout once) reduces `arrays` per cube with `ops`, and `bracket(level,
    reductions)` turns them into the log lower and log upper bound of every
    cube's value.  Consecutive layouts share a bracket call up to
    BRACKET_BLOCK cubes in all, their reductions laid end to end and
    `level` an array per cube; a larger layout has a call of its own.  The
    lattice layout, one point per cube, takes the bracket [0, 0] with no
    bracket arithmetic, since both constants are exactly 1 on a one-point
    cube; where one of its reductions is not finite and positive, it is
    bracketed as the others are.

    With the bar fixed (the largest lower bound), the loose candidates,
    the cubes whose upper bound times 1 + SLACK reaches the bar and whose
    bracket is wider than SLACK, may have their upper bounds tightened.
    Where they hold more than a quarter of the lattice's points, one more
    pass sums `moments` (each norm's c |g|^p p^2) per cube, and one call
    `bracket(level, reductions, moment sums)` on the candidates of every
    layout gives their upper bounds with the second moment (`_bennett`).
    Fewer points cost less to solve than that pass: the pass sums every
    layout, a solve steps each point of a cube two to four times, and
    only some candidates are solved once the bar rises.

    Layouts are taken in descending order of their largest upper
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
    layouts, reds, lows, highs, block = [], [], [], [], []  # block: the layouts awaiting their bracket
    bar = 0.0  # every layout's largest value is at least its largest lower bound

    def bracket_block():
        nonlocal bar
        ks, blocked = zip(*block)
        sizes = [red[0].size for red in blocked]
        if len(block) == 1:  # a large layout alone
            lo, hi = bracket(ks[0], [r.ravel() for r in blocked[0]])
        else:  # small ones laid end to end
            lo, hi = bracket(np.repeat(ks, sizes), [np.concatenate([r.ravel() for r in col]) for col in zip(*blocked)])
        with np.errstate(over="ignore"):
            bar = max(bar, float(np.exp(np.max(lo))))
        cuts = np.cumsum(sizes)[:-1]
        lows.extend(np.split(lo, cuts))
        highs.extend(np.split(hi, cuts))
        block.clear()

    def held_layouts(arrays, ops=None):
        for k, held, red in layout_sums(d, chains, arrays, levels[-1], ops):
            held = [a for a in held if a in shifts]
            if held:
                yield k, held, red

    for k, held, red in held_layouts(arrays, ops):
        layouts.append((k, held[0], len(held), red[0].size))
        reds.append(red)
        if k == d.level and all(0.0 < np.min(r) and np.max(r) < np.inf for r in red):
            lows.append(np.zeros(red[0].size))  # the lattice layout comes first: no block waits
            highs.append(np.zeros(red[0].size))
            bar = max(bar, 1.0)
            continue
        if block and sum(r[0].size for _, r in block) + red[0].size > BRACKET_BLOCK:
            bracket_block()
        block.append((k, red))
    if block:
        bracket_block()
    tops = [float(np.max(hi)) for hi in highs]  # log terms
    # an upper bound below `reach` times 1 + SLACK falls below the bar
    reach = math.log(bar) - math.log1p(SLACK) if bar > 0.0 else -math.inf
    with np.errstate(invalid="ignore"):
        loose = {
            i: (highs[i] >= reach) & (highs[i] - lows[i] > SLACK)
            for i in range(len(layouts)) if tops[i] >= reach
        }
    points = sum(np.count_nonzero(c) * 2.0 ** ((d.level - layouts[i][0]) * d.dim) for i, c in loose.items())
    refined = 0
    if 4.0 * points > math.prod(d.shape):
        loose = {i: np.flatnonzero(c) for i, c in loose.items() if c.any()}
        sums = [
            [s.ravel()[loose[i]] for s in sq]
            for i, (_, _, sq) in zip(range(max(loose) + 1), held_layouts(moments)) if i in loose
        ]
        sizes = [c.size for c in loose.values()]
        _, hi = bracket(
            np.repeat([layouts[i][0] for i in loose], sizes),
            [np.concatenate([reds[i][j].ravel()[c] for i, c in loose.items()]) for j in range(len(arrays))],
            [np.concatenate(col) for col in zip(*sums)],
        )
        for (i, c), h in zip(loose.items(), np.split(hi, np.cumsum(sizes)[:-1])):
            refined += int(np.count_nonzero(h < highs[i][c]))
            highs[i][c] = np.minimum(highs[i][c], h)
            tops[i] = float(np.max(highs[i]))
    del reds  # the solves need none of them
    with np.errstate(over="ignore"):
        tops = np.exp(tops)
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
    return MuckenhouptReport(best, sum(n * size for _, _, n, size in layouts), solved, refined)


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
    return MuckenhouptReport(float(np.max(ratio)), ratio.size, ratio.size, 0)


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
    The upper bounds of the cubes that can reach the sup are tightened by
    the means of p^2 under w and of p'^2 under sigma (`_bennett`) when
    those cubes hold more than a quarter of the lattice's points.  A one-point cube has
    value exactly 1, since w^{1/p} sigma^{1/p'} = 1.  Only the cubes whose
    upper bound can reach the sup are solved.
    """
    p.requires_class_p()
    d = w.domain
    pd = dual_exponent(p)
    sigma = dual_weight(w, p)
    pv = p.values.samples
    hn = d.h ** d.dim

    def bracket(level, red, sq=None):
        mw, ms, mwp, msp, p_lo, p_hi = red
        w_sq, s_sq = (None, None) if sq is None else (sq[0] / mw, sq[1] / ms)
        w_lo, w_hi = _bracket(np.log(mw * hn), mwp / mw, p_lo, p_hi, w_sq)
        s_lo, s_hi = _bracket(np.log(ms * hn), msp / ms, p_hi / (p_hi - 1.0), p_lo / (p_lo - 1.0), s_sq)
        inv_vol = level * d.dim * math.log(2.0)
        return inv_vol + w_lo + s_lo, inv_vol + w_hi + s_hi

    def per_cube(level, shift, cubes=None):
        layout = CubeLayout(d, level, shift)  # one for both norms
        n1, _ = norms.batch_restricted_norms(1.0, p, w, level, shift, cubes, layout)
        n2, _ = norms.batch_restricted_norms(1.0, pd, sigma, level, shift, cubes, layout)
        return n1 * n2 / (2.0 ** (-level)) ** d.dim

    ws, ss, pdv = w.values.samples, sigma.values.samples, pd.values.samples
    wp, sp = ws * pv, ss * pdv
    return _branch_and_bound(
        d, 1.0, all_shifts(d.dim), (ws, ss, wp, sp, pv, pv),
        (np.add, np.add, np.add, np.add, np.minimum, np.maximum), (wp * pv, sp * pdv), bracket, per_cube,
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
    M^{p_- - 1} and M^{p_+ - 1}.  The upper bounds of the cubes that can
    reach the sup are tightened by the mean of r^2 under w^{-r}
    (`_bennett`) when those cubes hold more than a quarter of the
    lattice's points.  A
    one-point cube has value exactly 1, since
    h^{-np} h^n w (h^n w^{-r})^{1/r} = 1.  Only the cubes whose upper bound
    can reach the sup are solved.
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

    def bracket(level, red, sq=None):
        count, mw, m, mr, inv_p, p_lo, p_hi = red
        r_sq = None if sq is None else sq[0] / m
        lo, hi = _bracket(np.log(m * hn), mr / m, 1.0 / (p_hi - 1.0), 1.0 / (p_lo - 1.0), r_sq)
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
    mr = mass * r
    return _branch_and_bound(
        d, max_side, [shift], (np.ones(d.shape), ws, mass, mr, 1.0 / pv, pv, pv),
        (np.add, np.add, np.add, np.add, np.add, np.minimum, np.maximum), (mr * r,), bracket, per_cube,
    )


def stability_ratio(coarse: float, fine: float) -> float:
    """Finer-over-coarser constant ratio; > STABILITY_FACTOR flags blow-up."""
    if coarse <= 0:
        return math.inf
    return fine / coarse
