"""Modulars, Luxemburg norms and the associated norm inequalities.

The Luxemburg norm is the unique lambda = e^s with modular(f/lambda) = 1
(for nonzero f with finite positive exponent).  phi(s) = log modular(f/e^s)
is a log-sum-exp of the affine functions log(h^n w) + p (log|f| - s), whose
slopes -p are negative, so phi is convex and strictly decreasing for any
positive exponent.  One solver takes safeguarded Newton steps on phi, inside
the bracket that the constant-exponent bounds give in closed form; it
serves the scalar norm (one group of points) and the per-cube norms of a
dyadic level, which the weight-constant sweeps need, at once.  Each cube
stops on its own test and leaves the batch when it does, and the shift of
s and the bracket come from the whole lattice, so a cube's norm does not
depend on which other cubes are solved with it: the sweeps solve only the
cubes that can hold their sup.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from .exponent import VariableExponent, dual_exponent
from .grid import MAIN_GRID_SHIFT, CubeLayout, GridFunction, cube_lattice_ranges
from .report import Report

if TYPE_CHECKING:
    from .weights import Weight

__all__ = [
    "modular",
    "luxemburg_norm",
    "holder_check",
    "unit_ball_modular_check",
    "indicator_norm_profile",
    "localization_norm",
    "lq_norm",
    "batch_restricted_norms",
]

LAMBDA_CAP = 1e30
REL_TOL = 1e-8
_MAX_STEPS = 100
PROFILE_BAND = 10.0


def _weight_samples(w: "Weight | None") -> np.ndarray | None:
    return None if w is None else w.values.samples


def modular(f: GridFunction, p: VariableExponent, w: "Weight | None" = None) -> float:
    """rho(f) = integral of |f|^p(x) * w(x)."""
    d = f.domain
    vals = np.abs(f.samples)
    pw = np.power(vals, p.values.samples)
    ws = _weight_samples(w)
    if ws is not None:
        pw = pw * ws
    return d.h ** d.dim * float(np.sum(pw))


def luxemburg_norm(f: GridFunction, p: VariableExponent, w: "Weight | None" = None) -> float:
    """inf of lambda > 0 with modular(f / lambda) <= 1, to 1e-8 relative."""
    return _luxemburg_solve(f.samples, p.values.samples, _cell_weights(f.domain, w)).item()


def lq_norm(f: GridFunction, q: float) -> float:
    """Constant-exponent L^q norm; q = inf gives the sup norm."""
    if not q > 0:  # also nan
        raise ValueError("q must be positive")
    if math.isinf(q):
        return f.sup()
    d = f.domain
    return (d.h ** d.dim * float(np.sum(np.abs(f.samples) ** q))) ** (1.0 / q)


def holder_check(f: GridFunction, g: GridFunction, p: VariableExponent) -> Report:
    """Generalized Holder inequality with the sharp constant r_p <= 2."""
    p.requires_class_p()
    r_p = 1.0 + 1.0 / p.p_minus - 1.0 / p.p_plus
    d = f.domain
    lhs = d.h ** d.dim * float(np.sum(np.abs(f.samples * g.samples)))
    nf = luxemburg_norm(f, p)
    ng = luxemburg_norm(g, dual_exponent(p))
    rhs = r_p * nf * ng
    return Report(
        "holder_check",
        passed=lhs <= rhs * (1.0 + 1e-6),
        quantities={"lhs": lhs, "rhs": rhs, "r_p": r_p, "norm_f": nf, "norm_g": ng},
    )


def unit_ball_modular_check(
    f: GridFunction, p: VariableExponent, w: "Weight | None" = None
) -> Report:
    """Norm/modular sandwich over the support of f plus the unit-sphere iff.

    For norm <= 1: norm^{p_+} <= modular <= norm^{p_-}; reversed when
    norm >= 1; at the unit sphere the modular equals 1.  Here p_+/p_- are
    taken over the support of f.
    """
    supp = np.abs(f.samples) > 0
    if not np.any(supp):
        return Report("unit_ball_modular_check", passed=True, quantities={"norm": 0.0})
    p_sup = float(np.max(p.values.samples[supp]))
    p_inf = float(np.min(p.values.samples[supp]))
    nrm = luxemburg_norm(f, p, w)
    rho = modular(f, p, w)
    tol = 1e-6
    if nrm <= 1.0:
        lo_b, hi_b = nrm**p_sup, nrm**p_inf
    else:
        lo_b, hi_b = nrm**p_inf, nrm**p_sup
    sandwich = lo_b * (1 - tol) <= rho <= hi_b * (1 + tol)
    sphere_ok = True
    if abs(nrm - 1.0) <= 1e-9:
        sphere_ok = abs(rho - 1.0) <= tol
    return Report(
        "unit_ball_modular_check",
        passed=bool(sandwich and sphere_ok),
        quantities={
            "norm": nrm,
            "modular": rho,
            "lower": lo_b,
            "upper": hi_b,
            "p_minus_supp": p_inf,
            "p_plus_supp": p_sup,
        },
    )


def indicator_norm_profile(level: int, shift: tuple[int, ...], index: tuple[int, ...], p: VariableExponent) -> Report:
    """Ratios of the indicator norm of the cube (level, shift, index)
    against |Q|^{1/p} at the three exponents.

    Pass means every ratio lies in [1/PROFILE_BAND, PROFILE_BAND].
    """
    d = p.domain
    if level > d.level:
        raise ValueError("cube below grid resolution")
    ranges = [cube_lattice_ranges(d, level, a, q) for a, q in zip(shift, index)]
    sl = tuple(slice(i, max(i, j)) for i, j in ranges)
    pvals = p.values.samples[sl]
    if pvals.size == 0:
        raise ValueError("cube does not meet the window")
    mask = np.zeros(d.shape)
    mask[sl] = 1.0
    chi = GridFunction._adopt(d, mask)
    nrm = luxemburg_norm(chi, p)
    vol = (2.0 ** (-level)) ** d.dim
    p_minus_q = float(np.min(pvals))
    p_plus_q = float(np.max(pvals))
    ratios = {
        "vs_p_minus": nrm / vol ** (1.0 / p_minus_q),
        "vs_p_plus": nrm / vol ** (1.0 / p_plus_q),
    }
    if p.p_infty is not None:
        ratios["vs_p_infty"] = nrm / vol ** (1.0 / p.p_infty)
    ok = all(1.0 / PROFILE_BAND <= r <= PROFILE_BAND for r in ratios.values())
    return Report(
        "indicator_norm_profile",
        passed=ok,
        quantities={"norm": nrm, "volume": vol, **ratios},
    )


def localization_norm(f: GridFunction, p: VariableExponent, k0: int) -> float:
    """l^{p_infty} aggregation of per-cube norms over level-k0 cubes of the
    shift-(1,...,1) dyadic grid."""
    if p.p_infty is None:
        raise ValueError("p_infty not declared")
    norms, _ = batch_restricted_norms(f.samples, p, None, k0, (MAIN_GRID_SHIFT,) * f.domain.dim)
    pinf = p.p_infty
    return float(np.sum(norms ** pinf) ** (1.0 / pinf))


def _cell_weights(d, w) -> np.ndarray | float:
    """Quadrature weight h^n w(x) of every lattice point."""
    ws = _weight_samples(w)
    hn = d.h ** d.dim
    return hn if ws is None else hn * ws


class _Groups:
    """The groups of a solve: one group of every point (seg None), or n
    groups of flat points, seg[i] the group of point i."""

    def __init__(self, seg: np.ndarray | None, n: int):
        self.seg, self.n = seg, n

    def sums(self, v: np.ndarray) -> np.ndarray:
        if self.seg is None:
            return np.sum(v, keepdims=True).ravel()
        return np.bincount(self.seg, v, self.n)

    def field(self, s: np.ndarray) -> np.ndarray:
        """The value of each point's group."""
        return s if self.seg is None else s[self.seg]

    def take(self, keep: np.ndarray, *arrays) -> tuple["_Groups", tuple]:
        """The groups where `keep` holds, and the points of those groups in
        each per-point array (a 0-d array or a float stays as it is)."""
        at = keep[self.seg]
        renumber = np.cumsum(keep) - 1
        return _Groups(renumber[self.seg[at]], int(renumber[-1]) + 1), tuple(
            a[at] if np.ndim(a) else a for a in arrays
        )


def _luxemburg_solve(
    g: np.ndarray,
    pvals: np.ndarray,
    c: np.ndarray | float,
    groups: tuple[np.ndarray | slice, np.ndarray, int] | None = None,
) -> np.ndarray:
    """Per group G, the lambda = e^s with sum_{x in G} c(x) (|g(x)| / lambda)^{p(x)} = 1.

    c is the quadrature weight of each lattice point, and g holds the value
    of each point, or one value (a 0-d array) for all.  Without `groups`
    one group holds every point; `groups` = (at, seg, n) solves n groups
    on the flat points `at` (an index array or slice), seg giving each
    one's group.  A group on which g vanishes gets 0.  s is measured from
    log max|g| and bracketed with p_- and p_+ over every lattice point,
    not only the points solved, and each group stops on its own test
    (`_newton`): a group's norm depends on its own points only.
    """
    with np.errstate(divide="ignore"):
        logg = np.log(np.abs(g))
    top = float(np.max(logg))
    if top == np.inf:
        raise OverflowError("norm overflow")
    at, seg, n = groups or (None, None, 1)
    if top == -np.inf:  # g vanishes everywhere
        return np.zeros(n)
    # s is measured from log max|g|: at s = 0 no term exceeds its c(x)
    b = logg - top
    pmin, pmax = float(np.min(pvals)), float(np.max(pvals))
    if seg is not None:  # only the points solved, flat
        b, pvals, c = (a if np.ndim(a) == 0 else a.ravel()[at] for a in (b, pvals, c))
    groups = _Groups(seg, n)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        # one value of g makes every exp(p * b) exactly 1, so the terms are c
        terms = c * np.exp(pvals * b) if b.ndim else np.broadcast_to(c, pvals.shape)
        rho = groups.sums(terms)
        live = rho > 0
        # for s >= 0 the modular lies between rho e^{-p_+ s} and rho e^{-p_- s}
        # (the other way round for s <= 0), so the root lies between
        # log rho / p_+ and log rho / p_-
        log_rho = np.log(np.where(live, rho, 1.0))
        if pmin == pmax and np.all(np.isfinite(rho)):
            # the bracket is one point per group: the first Newton step is
            # clipped to it and the second stays, so that point is the result
            s = log_rho / pmin
        else:
            lo = np.minimum(log_rho / pmin, log_rho / pmax)
            hi = np.maximum(log_rho / pmin, log_rho / pmax)
            s = _newton(groups, b, pvals, c, terms, rho, lo, hi)
    lam = np.where(live, np.exp(top + s), 0.0)
    if np.any(lam > LAMBDA_CAP):
        raise OverflowError("norm overflow")
    return lam


def _newton(groups: _Groups, b, pvals, c, terms, rho, lo, hi) -> np.ndarray:
    """Newton's method from s = 0 on each group's convex decreasing
    phi(s) = log rho(e^s), rho(e^s) the sum of c e^{p (b - s)} over the
    group, given the terms and modulars at s = 0 and the brackets [lo, hi]:
    the final iterate of each group.  A step that leaves the bracket known
    so far by a few ulps is the bracket's end: rounding puts a root on the
    end just outside it.  A step beyond that, or one that meets a modular
    that is not finite, is replaced by the bracket midpoint.  A group stops
    at its first step of at most REL_TOL and leaves the working arrays."""
    out = np.empty(rho.shape)
    act = np.arange(rho.size)  # the groups still stepping
    s = np.zeros(rho.shape)
    for _ in range(_MAX_STEPS):
        # Newton step on phi = log rho, whose slope is -sum(p terms) / rho
        nxt = s + np.log(rho) * rho / groups.sums(pvals * terms)
        left = np.flatnonzero(~((nxt >= lo) & (nxt <= hi)))  # nan too
        if left.size:
            end = np.clip(nxt[left], lo[left], hi[left])
            near = np.abs(nxt[left] - end) <= 4 * np.spacing(np.abs(end))
            nxt[left] = np.where(near, end, 0.5 * (lo[left] + hi[left]))
        done = np.abs(nxt - s) <= REL_TOL
        s = nxt
        if np.all(done):
            out[act] = s
            return out
        if np.any(done):  # only with several groups: one is done or not
            out[act[done]] = s[done]
            keep = ~done
            act, s, lo, hi = act[keep], s[keep], lo[keep], hi[keep]
            groups, (b, pvals, c) = groups.take(keep, b, pvals, c)
        terms = c * np.exp(pvals * (b - groups.field(s)))
        rho = groups.sums(terms)
        lo = np.where(rho > 1.0, s, lo)
        hi = np.where(rho < 1.0, s, hi)
    raise ArithmeticError("Luxemburg solve did not converge")


def batch_restricted_norms(
    g: np.ndarray,
    p: VariableExponent,
    w: "Weight | None",
    level: int,
    shift: tuple[int, ...],
    cubes: np.ndarray | None = None,
    layout: CubeLayout | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-cube Luxemburg norms of g restricted to the cubes of one grid level.

    Returns (norms, qidx): the norms of the cubes `cubes` (flat cube ids,
    none twice, in that order; every cube of the level when None), and the
    cube id of every lattice point.  `layout` is the level's `CubeLayout`,
    when the caller has built it.  Each cube is solved on its own, so its
    norm is bitwise the same whichever other cubes are solved with it.
    """
    if layout is None:
        layout = CubeLayout(p.domain, level, shift)
    at, seg = layout.points(cubes)
    g = np.asarray(g)
    if g.ndim:
        g = np.broadcast_to(g, p.domain.shape)
    groups = (at, seg, layout.count if cubes is None else len(cubes))
    return _luxemburg_solve(g, p.values.samples, _cell_weights(p.domain, w), groups), layout.ids
