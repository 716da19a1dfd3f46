"""Net model: a driver-to-sinks connection between cells."""

from __future__ import annotations

import math
from dataclasses import dataclass


def check_weight(name: str, weight: float) -> None:
    """A net weight must be finite and positive."""
    if not (math.isfinite(weight) and weight > 0):
        raise ValueError(f"net {name!r} weight {weight!r} is not finite and positive")


@dataclass
class Net:
    """A signal net.

    Attributes:
        index: Dense integer id assigned by the owning netlist.
        name: Unique net name.
        driver: Cell index of the (single) driving cell.
        sinks: Cell indices of the driven cells (possibly repeated pins are
            collapsed; a cell appears at most once).
        weight: Net criticality weight used by timing-driven placement.
    """

    index: int
    name: str
    driver: int
    sinks: tuple[int, ...]
    weight: float = 1.0

    def __post_init__(self) -> None:
        if not self.sinks:
            raise ValueError(f"net {self.name!r} has no sinks")
        if self.driver in self.sinks:
            raise ValueError(f"net {self.name!r} drives itself")
        if len(set(self.sinks)) != len(self.sinks):
            raise ValueError(f"net {self.name!r} has duplicate sinks")
        check_weight(self.name, self.weight)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        fields = ("index", "name", "driver", "sinks", "weight")
        return "Net(" + ", ".join(f"{f}={getattr(self, f)!r}" for f in fields) + ")"

    @property
    def cells(self) -> tuple[int, ...]:
        """All cell indices on the net (driver first)."""
        return (self.driver, *self.sinks)

    @property
    def degree(self) -> int:
        """Pin count of the net."""
        return 1 + len(self.sinks)
