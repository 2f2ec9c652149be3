"""repro.lint — AST-based invariant linter for the FsEncr simulator.

The simulator encodes hardware contracts that ordinary tests cannot see
being violated: 7-bit minor counters, 18/14-bit Group/File IDs, on-chip
keys that must never be printed, cycle accounting that must stay
integer-exact, persistence that must flow through the controller.  This
package walks every source file, checks those contracts statically, and
fails CI on regressions.

Usage::

    python -m repro.lint                  # lint src/ and benchmarks/ under cwd
    python -m repro.lint --root DIR --format json
    repro-lint --list-rules

Exit codes: 0 clean, 1 findings, 2 usage or parse error.  Inline
``# repro-lint: disable=<rule>`` comments are the only suppression.

See ``docs/LINT.md`` for the rule catalogue and the invariant each rule
protects.
"""

from .engine import Finding, LintError, Project, SourceFile, lint_paths
from .rules import RULES

__all__ = [
    "Finding",
    "LintError",
    "Project",
    "SourceFile",
    "lint_paths",
    "RULES",
]
