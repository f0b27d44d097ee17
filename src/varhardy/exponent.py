"""Variable exponents: bounds, log-Holder diagnostics, dual and derived exponents."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .grid import Cube, Domain, GridFunction

__all__ = [
    "VariableExponent",
    "lh0_constant",
    "lhinf_constant",
    "dual_exponent",
    "mean_exponent",
    "s_exponent",
]

S_SENTINEL = 1e18  # encodes s(x) = infinity where p(x) = p_infty


@dataclass(frozen=True)
class VariableExponent:
    """Positive exponent function with cached bounds and a declared limit.

    p_infty is declared, not inferred: the window is finite, so the decay
    behaviour at infinity cannot be observed from samples.
    """

    values: GridFunction
    p_infty: float | None = None
    generator: Callable | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        v = self.values.samples
        if np.min(v) <= 0:
            raise ValueError("exponent samples must be positive")
        if not np.all(np.isfinite(v)):
            raise ValueError("exponent samples must be finite")

    @classmethod
    def from_callable(cls, domain: Domain, fn: Callable, p_infty: float | None = None):
        return cls(GridFunction.from_callable(domain, fn), p_infty, generator=fn)

    @classmethod
    def constant(cls, domain: Domain, value: float):
        return cls.from_callable(
            domain, lambda *xs: np.full(np.broadcast(*xs).shape, float(value)), value
        )

    @property
    def domain(self) -> Domain:
        return self.values.domain

    @property
    def p_minus(self) -> float:
        return float(np.min(self.values.samples))

    @property
    def p_plus(self) -> float:
        return float(np.max(self.values.samples))

    def at_level(self, level: int) -> "VariableExponent":
        """Resample from the generator on a finer or coarser grid."""
        if self.generator is None:
            raise ValueError("exponent has no generator; cannot change resolution")
        d = self.domain
        return VariableExponent.from_callable(
            Domain(d.dim, d.half_width, level), self.generator, self.p_infty
        )

    def requires_class_p(self):
        if self.p_minus <= 1:
            raise ValueError(f"exponent must have p_minus > 1, got {self.p_minus:g}")


def _subgrid_points(p: VariableExponent, per_axis: int) -> tuple[np.ndarray, np.ndarray]:
    """Lattice points and exponent values on a coarsened subgrid."""
    d = p.domain
    stride = max(1, d.npts // per_axis)
    grids = np.meshgrid(*[d.axis()[::stride]] * d.dim, indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    return pts, p.values.samples[(slice(None, None, stride),) * d.dim].ravel()


def lh0_constant(p: VariableExponent) -> float:
    """Empirical local log-Holder constant.

    sup over lattice pairs |x-y| <= 1/2 of |p(x)-p(y)| * log(1/|x-y|).
    All pairs of a coarse subgrid are combined with dyadic-lag neighbor
    pairs at full resolution, so both the smooth regime and the
    short-separation blow-up of rough exponents register.  The result is a
    lower bound of the true sup; finite and resolution-stable is the
    membership proxy.
    """
    d = p.domain
    best = 0.0
    # dyadic-lag axis pairs at full resolution
    lag = 1
    v = p.values.samples
    while lag * d.h <= 0.5:
        wgt = math.log(1.0 / (lag * d.h))
        for axis in range(d.dim):
            sl_a = [slice(None)] * d.dim
            sl_b = [slice(None)] * d.dim
            sl_a[axis] = slice(lag, None)
            sl_b[axis] = slice(None, -lag)
            gap = np.max(np.abs(v[tuple(sl_a)] - v[tuple(sl_b)]))
            best = max(best, float(gap) * wgt)
        lag *= 2
    # coarse all-pairs sweep
    pts, vals = _subgrid_points(p, 512 if d.dim == 1 else 48)
    dx = np.sqrt(np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=-1))
    dv = np.abs(vals[:, None] - vals[None, :])
    mask = (dx > 0) & (dx <= 0.5)
    if np.any(mask):
        best = max(best, float(np.max(dv[mask] * np.log(1.0 / dx[mask]))))
    return best


def lhinf_constant(p: VariableExponent) -> float:
    """sup over the lattice of |p(x) - p_infty| * log(e + |x|)."""
    if p.p_infty is None:
        raise ValueError("p_infty not declared")
    r = p.domain.radius()
    return float(np.max(np.abs(p.values.samples - p.p_infty) * np.log(np.e + r)))


def dual_exponent(p: VariableExponent) -> VariableExponent:
    """Pointwise conjugate p' = p/(p-1); requires p_minus > 1."""
    p.requires_class_p()
    vals = p.values.samples
    dual = GridFunction._adopt(p.domain, vals / (vals - 1.0))
    dual_inf = None
    if p.p_infty is not None and p.p_infty > 1:
        dual_inf = p.p_infty / (p.p_infty - 1.0)
    return VariableExponent(dual, dual_inf)


def mean_exponent(p: VariableExponent, cube: Cube) -> float:
    """Harmonic-type average p_E with 1/p_E the mean of 1/p over the cube."""
    block = p.values.samples[cube.lattice_slices(p.domain)]
    if block.size == 0:
        raise ValueError("cube does not meet the window")
    return 1.0 / float(np.mean(1.0 / block))


def s_exponent(p: VariableExponent) -> GridFunction:
    """s(x) with 1/s(x) = |1/p_infty - 1/p(x)|; sentinel where p(x) = p_infty."""
    if p.p_infty is None:
        raise ValueError("p_infty not declared")
    inv = np.abs(1.0 / p.p_infty - 1.0 / p.values.samples)
    s = np.where(inv < 1.0 / S_SENTINEL, S_SENTINEL, 1.0 / np.maximum(inv, 1.0 / S_SENTINEL))
    return GridFunction._adopt(p.domain, s)
