"""Structured numeric results of probes."""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["Report"]


@dataclass
class Report:
    """Outcome of a single probe: named quantities plus a pass flag.

    `passed` is None for purely informational probes that only record values.
    """

    name: str
    passed: bool | None = None
    quantities: dict[str, float] = field(default_factory=dict)

    def __bool__(self) -> bool:
        return bool(self.passed)

    def q(self, key: str) -> float:
        return self.quantities[key]
