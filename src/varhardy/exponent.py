"""Variable exponents: bounds, resampling and the dual exponent."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .grid import Domain, GridFunction

__all__ = [
    "VariableExponent",
    "dual_exponent",
]


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


def dual_exponent(p: VariableExponent) -> VariableExponent:
    """Pointwise conjugate p' = p/(p-1); requires p_minus > 1."""
    p.requires_class_p()
    vals = p.values.samples
    dual = GridFunction._adopt(p.domain, vals / (vals - 1.0))
    dual_inf = None
    if p.p_infty is not None and p.p_infty > 1:
        dual_inf = p.p_infty / (p.p_infty - 1.0)
    return VariableExponent(dual, dual_inf)
