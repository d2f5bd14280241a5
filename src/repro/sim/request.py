"""Memory request records."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(slots=True)
class MemoryRequest:
    """One DRAM request as seen by the memory controller.

    The engine builds one per simulated request, so the record is
    slotted and unvalidated: the engine reduces every coordinate
    modulo its (positive) bank, row and column counts before it
    constructs the record.
    """

    core: int
    bank: int  # flat bank id across ranks
    row: int
    column: int
    is_write: bool = False
    arrival_ns: float = 0.0
    chain: int = 0
    completion_ns: Optional[float] = None

    @property
    def latency_ns(self) -> float:
        if self.completion_ns is None:
            raise ValueError("request has not completed")
        return self.completion_ns - self.arrival_ns
