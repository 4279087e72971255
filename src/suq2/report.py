"""Machine-readable verification reports (schema 1)."""
from __future__ import annotations

import json
from dataclasses import dataclass

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class ReportDocument:
    suite: str
    q_descriptor: dict
    cases: tuple
    runtime_ms: int

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.cases)

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "suite": self.suite,
            "q_descriptor": self.q_descriptor,
            "cases": [
                {"name": c.name, "residual": float(c.residual), "tol": float(c.tol),
                 "pass": c.passed}
                for c in self.cases
            ],
            "pass": self.passed,
            "runtime_ms": self.runtime_ms,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"
