"""Per-statement verdicts of the library's verify_* functions."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class CheckResult:
    """One verified statement: identifier, verdict, reproducible detail."""

    name: str
    passed: bool
    detail: dict = field(default_factory=dict)


def all_passed(results: list[CheckResult]) -> bool:
    return all(r.passed for r in results)
