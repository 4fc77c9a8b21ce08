"""Structured warnings produced by validation and analysis steps.

A Finding is a non-fatal observation: the operation that produced it still
returned a result, but the caller should know about the condition.  Fatal
conditions raise exceptions from metricval.errors instead.
"""

from __future__ import annotations

from dataclasses import dataclass

WARNING = "warning"
ERROR = "error"


@dataclass(frozen=True)
class Finding:
    """One diagnostic emitted while processing data.

    Attributes:
        severity: WARNING for advisory notes, ERROR for conditions that made
            part of the result unavailable (without aborting the whole run).
        message: human-readable description.
        code: short machine-readable tag, empty when none applies.
    """

    severity: str
    message: str
    code: str = ""

    def __post_init__(self):
        if self.severity not in (WARNING, ERROR):
            raise ValueError(f"unknown severity: {self.severity!r}")


def warning(message: str, code: str = "") -> Finding:
    return Finding(WARNING, message, code)


def error(message: str, code: str = "") -> Finding:
    return Finding(ERROR, message, code)

