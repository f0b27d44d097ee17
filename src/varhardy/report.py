"""Structured numeric results of probes and suite cases."""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["Report"]


@dataclass
class Report:
    """Outcome of a single probe or suite case: named quantities plus a pass flag.

    `passed` is None for purely informational probes that only record values.
    As a suite row, the headline quantity is the first key of `quantities`,
    and two-resolution cases add the value at level m + 1 and the ratio.  A
    case with a `gap` reason is a strict expected failure: status "xfail"
    while its check fails, "xpass" once it passes.
    """

    name: str
    passed: bool | None = None
    quantities: dict[str, float] = field(default_factory=dict)
    value_m1: float | None = None
    ratio: float | None = None
    gap: str | None = None

    def q(self, key: str) -> float:
        return self.quantities[key]

    @property
    def status(self) -> str:
        if self.gap is None:
            return "pass" if self.passed else "fail"
        return "xpass" if self.passed else "xfail"

    def row(self) -> dict:
        """The report fields of the case, in column order."""
        quantity, value = next(iter(self.quantities.items()))
        return {
            "case": self.name,
            "quantity": quantity,
            "value_m": float(value),
            "value_m1": None if self.value_m1 is None else float(self.value_m1),
            "ratio": None if self.ratio is None else float(self.ratio),
            "passed": bool(self.passed),
            "status": self.status,
        }
