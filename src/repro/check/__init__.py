"""Correctness tooling: the simulator-discipline linter and sanitizers.

* :mod:`repro.check.simlint` — a per-file AST linter for determinism
  hazards (D-rules), process discipline (P-rules) and observability
  discipline (O-rules).  CLI: ``repro lint [paths] [--format text|json]
  [--debt]``.
* :mod:`repro.check.simsan` — opt-in runtime sanitizers (deadlocks,
  resource leaks, event-order ties, message/reply/task conservation).
  CLI: ``--san`` on the workload-running subcommands.
"""

from .simlint import (
    RULES,
    Rule,
    Suppression,
    Violation,
    collect_suppressions,
    format_debt,
    format_json,
    format_text,
    lint_paths,
    lint_source,
)
from .simsan import (
    Finding,
    RpcSan,
    SanitizerError,
    SimSan,
    TransportSan,
)

__all__ = [
    "RULES",
    "Rule",
    "Suppression",
    "Violation",
    "collect_suppressions",
    "format_debt",
    "format_json",
    "format_text",
    "lint_paths",
    "lint_source",
    "Finding",
    "RpcSan",
    "SanitizerError",
    "SimSan",
    "TransportSan",
]
