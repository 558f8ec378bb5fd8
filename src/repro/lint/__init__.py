"""Project-specific invariant linter (``repro lint``).

The reproduction's headline guarantees — bitwise-identical training
trajectories, crash-safe atomic checkpoints, lazy scenario streams,
injectable clocks, and environment access routed through
:data:`repro.config.ENV_FLAGS` — are behavioural contracts that
example-based tests only sample.  This package turns them into
machine-checked rules: a single-pass AST visitor (stdlib :mod:`ast`, no
new runtime dependencies) dispatches every node to the registered
:class:`~repro.lint.framework.Rule` instances whose file-scope globs
match, and emits structured :class:`~repro.lint.framework.Finding`
records (``path:line``, rule id, message, suggestion).

Rules ship in :mod:`repro.lint.rules` (``RPL000``–``RPL009``; see
``docs/lint.md`` for the catalog and the rationale behind each).
Intentional violations carry an inline suppression **with a reason**::

    rng = np.random.default_rng(0)  # repro-lint: disable=RPL001 -- fixed-seed probe

A suppression without a reason (or naming an unknown rule) is itself a
finding (``RPL000``), so exceptions to the contracts stay documented.

Entry points:

- CLI: ``repro lint [paths...] [--format text|json]`` — exit 2 on
  findings, 0 when clean.
- API: :func:`lint_source` / :func:`lint_paths` for tests and tooling.
"""

from repro.lint.framework import (
    Finding,
    Rule,
    all_rules,
    lint_source,
)
from repro.lint.runner import format_json, format_text, lint_file, lint_paths
from repro.lint import rules  # noqa: F401  (importing registers the built-in rules)

__all__ = [
    "Finding",
    "Rule",
    "all_rules",
    "lint_source",
    "lint_file",
    "lint_paths",
    "format_text",
    "format_json",
]
