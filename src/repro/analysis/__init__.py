"""Static analysis for the compiled-plan pipeline.

Three tools, one package:

* :mod:`repro.analysis.verify` — the IR verifier: machine-checks the
  well-formedness contract of circuits, layer schedules and whole
  compiled plans at every trust seam (plan-store loads, an opt-in
  post-compile hook, the test suite's compile helpers, and the
  ``verify-store`` CLI).
* :mod:`repro.analysis.lint` — the project-invariant linter: AST rules
  for the concurrency and serialization disciplines the codebase
  relies on (lock ordering, ``with``-only lock acquisition, epoch
  bumps on invalidation, and pickle/nondeterminism bans in
  serialize/cache-key code).
* the typing gate — ``py.typed`` plus the strict ``mypy``
  configuration in ``pyproject.toml`` (enforced in CI).

Run the CLI with ``python -m repro.analysis --help``.
"""

from .lint import LintViolation, lint_file, lint_paths, lint_source
from .verify import (PlanVerifyError, verification_enabled, verify_circuit,
                     verify_plan, verify_plan_state, verify_schedule)

__all__ = [
    "PlanVerifyError", "verify_circuit", "verify_schedule", "verify_plan",
    "verify_plan_state", "verification_enabled",
    "LintViolation", "lint_source", "lint_file", "lint_paths",
]
