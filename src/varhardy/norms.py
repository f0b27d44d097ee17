"""Modulars, Luxemburg norms and the associated norm inequalities.

The Luxemburg norm is the unique lambda = e^s with modular(f/lambda) = 1
(for nonzero f with finite positive exponent).  phi(s) = log modular(f/e^s)
is a log-sum-exp of the affine functions log(h^n w) + p (log|f| - s), whose
slopes -p are negative, so phi is convex and strictly decreasing for any
positive exponent.  One solver takes safeguarded Newton steps on phi, inside
the bracket that the constant-exponent bounds give in closed form; it
serves the scalar norm (one group of points) and the per-cube norms of a
dyadic level, which the weight-constant sweeps need, at once.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from .exponent import VariableExponent, dual_exponent
from .grid import MAIN_GRID_SHIFT, Cube, CubeLayout, GridFunction
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


def indicator_norm_profile(cube: Cube, p: VariableExponent) -> Report:
    """Ratios of the indicator norm against |Q|^{1/p} at the three exponents.

    Pass means every ratio lies in [1/PROFILE_BAND, PROFILE_BAND].
    """
    d = p.domain
    sl = cube.lattice_slices(d)
    pvals = p.values.samples[sl]
    if pvals.size == 0:
        raise ValueError("cube does not meet the window")
    mask = np.zeros(d.shape)
    mask[sl] = 1.0
    chi = GridFunction._adopt(d, mask)
    nrm = luxemburg_norm(chi, p)
    vol = cube.volume
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


def _luxemburg_solve(
    g: np.ndarray, pvals: np.ndarray, c: np.ndarray | float, cubes: CubeLayout | None = None
) -> np.ndarray:
    """Per group G, the lambda = e^s with sum_{x in G} c(x) (|g(x)| / lambda)^{p(x)} = 1.

    c is the quadrature weight of each point, and g holds the value of each
    point, or one value (a 0-d array) for all; the groups are the cubes of
    `cubes`, or one group holding every point.  A group on which g vanishes
    gets 0.  Newton's method on the convex decreasing phi(s) = log rho(e^s)
    needs a few steps; a step that leaves the bracket known so far, or meets
    a modular that is not finite, is replaced by the bracket midpoint.
    """
    if cubes is None:
        sums, field = (lambda v: np.sum(v, keepdims=True)), (lambda s: s)
    else:
        sums, field = cubes.sums, cubes.field
    with np.errstate(divide="ignore"):
        logg = np.log(np.abs(g))
    top = float(np.max(logg))
    if top == -np.inf:  # g vanishes everywhere
        return sums(np.zeros(pvals.shape))
    if top == np.inf:
        raise OverflowError("norm overflow")
    # s is measured from log max|g|: at s = 0 no term exceeds its c(x)
    b = logg - top
    pmin, pmax = float(np.min(pvals)), float(np.max(pvals))
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        # one value of g makes every exp(p * b) exactly 1, so the terms are c
        terms = c * np.exp(pvals * b) if b.ndim else np.broadcast_to(c, pvals.shape)
        rho = sums(terms)
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
            s = np.zeros(rho.shape)
            for _ in range(_MAX_STEPS):
                # Newton step on phi = log rho, whose slope is -sum(p terms) / rho
                nxt = s + np.log(rho) * rho / sums(pvals * terms)
                nxt = np.where((nxt >= lo) & (nxt <= hi), nxt, 0.5 * (lo + hi))
                done = np.all(np.abs(nxt - s) <= REL_TOL)
                s = nxt
                if done:
                    break
                terms = c * np.exp(pvals * (b - field(s)))
                rho = sums(terms)
                lo = np.where(rho > 1.0, s, lo)
                hi = np.where(rho < 1.0, s, hi)
            else:
                raise ArithmeticError("Luxemburg solve did not converge")
    lam = np.where(live, np.exp(top + s), 0.0)
    if np.any(lam > LAMBDA_CAP):
        raise OverflowError("norm overflow")
    return lam


def batch_restricted_norms(
    g: np.ndarray,
    p: VariableExponent,
    w: "Weight | None",
    level: int,
    shift: tuple[int, ...],
) -> tuple[np.ndarray, np.ndarray]:
    """Per-cube Luxemburg norms of g restricted to each cube of one grid level.

    Returns (norms_flat, qidx) where qidx maps lattice points to cube ids.
    """
    cubes = CubeLayout(p.domain, level, shift)
    g = np.asarray(g)
    if g.ndim:
        g = np.broadcast_to(g, p.domain.shape)
    return _luxemburg_solve(g, p.values.samples, _cell_weights(p.domain, w), cubes), cubes.ids
