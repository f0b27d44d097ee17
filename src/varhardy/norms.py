"""Modulars, Luxemburg norms and the associated norm inequalities.

The Luxemburg norm is the unique lambda with modular(f/lambda) = 1 (for
nonzero f with finite positive exponent); the modular is continuous and
strictly decreasing in lambda, so bisection is safe.  Batched variants
solve one bisection per cube of a dyadic level simultaneously, which is
what the weight-constant sweeps need.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from .exponent import VariableExponent, dual_exponent
from .grid import Cube, CubeLayout, GridFunction
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
    "batch_indicator_norms",
    "batch_restricted_norms",
]

LAMBDA_CAP = 1e30
REL_TOL = 1e-8


def _weight_samples(w) -> np.ndarray:
    if w is None:
        return None
    return w.values.samples if hasattr(w, "values") else np.asarray(w)


def modular(f: GridFunction, p: VariableExponent, w: "Weight | None" = None) -> float:
    """rho(f) = integral of |f|^p(x) * w(x)."""
    d = f.domain
    vals = np.abs(f.samples)
    pw = np.power(vals, p.values.samples)
    ws = _weight_samples(w)
    if ws is not None:
        pw = pw * ws
    return d.h ** d.dim * float(np.sum(pw))


def _modular_scaled(absf: np.ndarray, psamp: np.ndarray, wsamp, hn: float, lam: float) -> float:
    v = np.power(absf / lam, psamp)
    if wsamp is not None:
        v = v * wsamp
    return hn * float(np.sum(v))


def luxemburg_norm(f: GridFunction, p: VariableExponent, w: "Weight | None" = None) -> float:
    """inf of lambda > 0 with modular(f / lambda) <= 1, to 1e-8 relative."""
    d = f.domain
    absf = np.abs(f.samples)
    if not np.any(absf > 0):
        return 0.0
    psamp = p.values.samples
    wsamp = _weight_samples(w)
    hn = d.h ** d.dim
    rho0 = _modular_scaled(absf, psamp, wsamp, hn, 1.0)
    if rho0 == 0.0:
        return 0.0
    # constant-exponent surrogate bracket seed
    lam = max(rho0 ** (1.0 / p.p_minus), rho0 ** (1.0 / p.p_plus))
    lam = min(max(lam, 1e-300), LAMBDA_CAP)
    lo, hi = lam, lam
    for _ in range(200):
        if _modular_scaled(absf, psamp, wsamp, hn, hi) <= 1.0:
            break
        hi *= 2.0
        if hi > LAMBDA_CAP:
            raise OverflowError("norm overflow")
    else:
        raise OverflowError("norm overflow")
    for _ in range(200):
        if _modular_scaled(absf, psamp, wsamp, hn, lo) >= 1.0 or lo < 1e-300:
            break
        lo /= 2.0
    for _ in range(200):
        if hi - lo <= REL_TOL * lo:
            break
        mid = 0.5 * (lo + hi)
        if _modular_scaled(absf, psamp, wsamp, hn, mid) > 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def lq_norm(f: GridFunction, q: float, w: "Weight | None" = None) -> float:
    """Constant-exponent L^q(w) norm; q = inf gives the sup norm."""
    if math.isinf(q):
        return f.sup()
    d = f.domain
    v = np.abs(f.samples) ** q
    ws = _weight_samples(w)
    if ws is not None:
        v = v * ws
    return (d.h ** d.dim * float(np.sum(v))) ** (1.0 / q)


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


def indicator_norm_profile(cube: Cube, p: VariableExponent, band: float = 10.0) -> Report:
    """Ratios of the indicator norm against |Q|^{1/p} at the three exponents.

    Pass means every ratio lies in [1/band, band].
    """
    d = p.domain
    rngs = cube.lattice_ranges(d)
    if any(b <= a for a, b in rngs):
        raise ValueError("cube does not meet the window")
    mask = np.zeros(d.shape)
    if d.dim == 1:
        (a, b), = rngs
        mask[a:b] = 1.0
        pvals = p.values.samples[a:b]
    else:
        (a, b), (c, e) = rngs
        mask[a:b, c:e] = 1.0
        pvals = p.values.samples[a:b, c:e]
    chi = GridFunction(d, mask)
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
    ok = all(1.0 / band <= r <= band for r in ratios.values())
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
    norms, _ = batch_restricted_norms(f.samples, p, None, k0, (1,) * f.domain.dim)
    pinf = p.p_infty
    return float(np.sum(norms ** pinf) ** (1.0 / pinf))


def _batch_bisect(
    pvals: np.ndarray,
    logg_p: np.ndarray,
    wsamp: np.ndarray | None,
    active_mask: np.ndarray,
    cubes: CubeLayout,
    iters: int = 64,
) -> np.ndarray:
    """Solve modular_Q(g / lambda_Q) = 1 for every cube of `cubes` simultaneously.

    logg_p is p(x) * log|g(x)| with -inf where g vanishes; active_mask masks
    points contributing at all (nonzero g inside the window).
    """
    hn = cubes.domain.h ** cubes.domain.dim
    contrib = np.where(active_mask, np.exp(logg_p), 0.0)
    if wsamp is not None:
        contrib = contrib * wsamp

    def mods(lam: np.ndarray) -> np.ndarray:
        # modular of g/lam_Q on each cube: exp(logg_p - p*log lam[q]) * w
        loglam = np.log(lam)
        scale = np.where(active_mask, np.exp(logg_p - pvals * cubes.field(loglam)), 0.0)
        if wsamp is not None:
            scale = scale * wsamp
        return hn * cubes.sums(scale)

    rho0 = hn * cubes.sums(contrib)
    alive = rho0 > 0
    lam = np.ones(cubes.count)
    pmin, pmax = float(np.min(pvals)), float(np.max(pvals))
    with np.errstate(divide="ignore", invalid="ignore"):
        seed = np.maximum(rho0 ** (1.0 / pmin), rho0 ** (1.0 / pmax))
    lam[alive] = np.clip(seed[alive], 1e-200, 1e200)
    lo = lam.copy()
    hi = lam.copy()
    for _ in range(80):
        m = mods(hi)
        bad = alive & (m > 1.0)
        if not np.any(bad):
            break
        hi[bad] *= 2.0
    for _ in range(80):
        m = mods(lo)
        bad = alive & (m < 1.0) & (lo > 1e-250)
        if not np.any(bad):
            break
        lo[bad] /= 2.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        m = mods(mid)
        up = m > 1.0
        lo = np.where(up, mid, lo)
        hi = np.where(up, hi, mid)
    out = 0.5 * (lo + hi)
    out[~alive] = 0.0
    return out


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
    d = p.domain
    cubes = CubeLayout(d, level, shift)
    absg = np.abs(np.broadcast_to(g, d.shape))
    active = absg > 0
    with np.errstate(divide="ignore"):
        logg_p = np.where(active, p.values.samples * np.log(np.where(active, absg, 1.0)), -np.inf)
    norms = _batch_bisect(p.values.samples, logg_p, _weight_samples(w), active, cubes)
    return norms, cubes.ids


def batch_indicator_norms(
    p: VariableExponent,
    w: "Weight | None",
    level: int,
    shift: tuple[int, ...],
) -> tuple[np.ndarray, np.ndarray]:
    """Per-cube ||chi_Q||_{L^{p(.)}(w)} for all cubes of one grid level."""
    ones = np.ones(p.domain.shape)
    return batch_restricted_norms(ones, p, w, level, shift)
