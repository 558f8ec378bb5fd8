"""Rule framework of the invariant linter.

One linting pass over a file is:

1. parse the source with :mod:`ast` (a syntax error becomes an
   ``RPL000`` finding — the linter never crashes on bad input);
2. collect the module's import aliases so rules can resolve dotted
   call chains (``np.random.shuffle`` → ``numpy.random.shuffle``)
   without guessing at local variable names;
3. run a **single** :class:`ast.NodeVisitor` pass that dispatches each
   node to every registered rule whose ``node_types`` include the node's
   type and whose include/exclude globs match the file;
4. apply inline suppressions: a ``# repro-lint: disable=RPLxxx -- reason``
   comment on the flagged line silences matching findings, and a
   suppression that is missing its reason or names an unknown rule is
   reported as ``RPL000`` (which cannot itself be suppressed).

File scoping mirrors ruff's per-file-ignores: globs are matched with
:func:`fnmatch.fnmatch` against the module-relative posix path
(``repro/snn/layers.py``), and ``*`` crosses directory separators, so
``repro/replaystore/*`` covers the whole package.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import asdict, dataclass
from fnmatch import fnmatch

from repro.errors import ConfigError

__all__ = [
    "META_RULE_ID",
    "Finding",
    "LintContext",
    "Rule",
    "Suppression",
    "all_rules",
    "lint_source",
    "module_relpath",
    "register",
]

#: Rule id reserved for the linter's own diagnostics (malformed
#: suppressions, unparseable files).  Not suppressible.
META_RULE_ID = "RPL000"

_RULE_ID = re.compile(r"^RPL\d{3}$")

#: ``# repro-lint: disable=RPL001[,RPL002] [-- reason]`` anywhere in a line.
_SUPPRESSION = re.compile(
    r"#\s*repro-lint:\s*disable=(?P<ids>[A-Za-z0-9_,\s]*?)"
    r"(?:\s*--\s*(?P<reason>.*\S))?\s*$"
)


@dataclass(frozen=True)
class Finding:
    """One structured lint finding.

    Attributes:
        path: The path the file was linted under (as given to the
            runner, so CLI output is clickable from the repo root).
        line: 1-indexed source line of the offending node.
        col: 1-indexed column of the offending node.
        rule: Rule id, e.g. ``"RPL003"``.
        message: What is wrong, in terms of the violated invariant.
        suggestion: The blessed alternative (helper, module, pattern).
    """

    path: str
    line: int
    col: int
    rule: str
    message: str
    suggestion: str

    def format(self) -> str:
        """``path:line:col: RPLxxx message`` plus an indented suggestion."""
        text = f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"
        if self.suggestion:
            text += f"\n    fix: {self.suggestion}"
        return text

    def to_dict(self) -> dict:
        """JSON-ready mapping (the ``--format json`` schema element)."""
        return asdict(self)


@dataclass(frozen=True)
class Suppression:
    """One parsed ``# repro-lint: disable=...`` comment."""

    line: int
    ids: tuple[str, ...]
    reason: str | None


class Rule:
    """Base class of one lint rule.

    Subclasses declare:

    - ``id``: ``"RPLxxx"`` (unique across the registry);
    - ``name``: short kebab-case label used in docs and summaries;
    - ``rationale``: one paragraph on the invariant being protected;
    - ``include`` / ``exclude``: fnmatch globs over the module-relative
      posix path (``repro/...``) scoping where the rule applies;
    - ``node_types``: the :mod:`ast` node classes the visitor should
      dispatch to :meth:`check`.

    Rules are stateless: per-file state lives on the
    :class:`LintContext` passed to every :meth:`check` call.
    """

    id: str = ""
    name: str = ""
    rationale: str = ""
    include: tuple[str, ...] = ("*",)
    exclude: tuple[str, ...] = ()
    node_types: tuple[type[ast.AST], ...] = ()

    def applies_to(self, relpath: str) -> bool:
        """Whether this rule is in scope for ``relpath``."""
        return any(fnmatch(relpath, glob) for glob in self.include) and not any(
            fnmatch(relpath, glob) for glob in self.exclude
        )

    def check(self, node: ast.AST, ctx: "LintContext") -> None:
        """Inspect one dispatched node, reporting via ``ctx.report``."""
        raise NotImplementedError


_REGISTRY: dict[str, Rule] = {}


def register(rule_cls: type[Rule]) -> type[Rule]:
    """Class decorator adding a rule to the registry (one instance).

    Raises:
        ConfigError: On a malformed id or a duplicate registration.
    """
    rule = rule_cls()
    if not _RULE_ID.match(rule.id):
        raise ConfigError(f"rule id must match RPLxxx, got {rule.id!r}")
    if rule.id in _REGISTRY:
        raise ConfigError(f"duplicate rule id {rule.id}")
    if not rule.name or not rule.rationale:
        raise ConfigError(f"rule {rule.id} must declare a name and a rationale")
    _REGISTRY[rule.id] = rule
    return rule_cls


def all_rules() -> tuple[Rule, ...]:
    """Every registered rule, sorted by id."""
    return tuple(_REGISTRY[rule_id] for rule_id in sorted(_REGISTRY))


def module_relpath(path: str) -> str:
    """Module-relative posix path used for rule scoping.

    ``src/repro/snn/layers.py`` → ``repro/snn/layers.py``; paths that do
    not contain a ``repro`` segment fall back to their basename, so
    out-of-tree files still lint (with only globally-scoped rules).
    """
    parts = str(path).replace("\\", "/").split("/")
    if "repro" in parts:
        anchor = len(parts) - 1 - parts[::-1].index("repro")
        return "/".join(parts[anchor:])
    return parts[-1]


def _collect_aliases(tree: ast.Module) -> dict[str, str]:
    """Map local names to the dotted import path they are bound to."""
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else alias.name.split(".")[0]
                aliases[local] = target
        elif isinstance(node, ast.ImportFrom):
            if node.level or not node.module:
                continue  # relative imports never reach stdlib/numpy names
            for alias in node.names:
                if alias.name == "*":
                    continue
                aliases[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return aliases


class LintContext:
    """Per-file state shared by every rule during one pass.

    Attributes:
        path: The path the file is linted under (verbatim in findings).
        relpath: Module-relative path used for rule scoping.
        source: Full source text.
        lines: Source split into lines (1-indexed via ``lines[i - 1]``).
        tree: The parsed module.
        aliases: Import-alias map (see :func:`_collect_aliases`).
        findings: Accumulated findings, pre-suppression.
    """

    def __init__(self, path: str, relpath: str, source: str, tree: ast.Module):
        self.path = path
        self.relpath = relpath
        self.source = source
        self.lines = source.splitlines()
        self.tree = tree
        self.aliases = _collect_aliases(tree)
        self.findings: list[Finding] = []

    def report(
        self, rule: Rule, node: ast.AST, message: str, suggestion: str = ""
    ) -> None:
        """Record one finding anchored at ``node``."""
        self.findings.append(
            Finding(
                path=self.path,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0) + 1,
                rule=rule.id,
                message=message,
                suggestion=suggestion,
            )
        )

    def resolve(self, node: ast.AST) -> str | None:
        """Dotted import path of a ``Name``/``Attribute`` chain, or None.

        Only chains rooted at an *imported* name resolve — a local
        variable that happens to be called ``random`` never
        false-positives.  ``np.random.shuffle`` (with ``import numpy as
        np``) resolves to ``numpy.random.shuffle``; ``environ.get``
        (with ``from os import environ``) resolves to
        ``os.environ.get``.
        """
        parts: list[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        base = self.aliases.get(node.id)
        if base is None:
            return None
        return ".".join([base, *reversed(parts)])


class _Visitor(ast.NodeVisitor):
    """Single-pass dispatcher: every node goes to every in-scope rule."""

    def __init__(self, ctx: LintContext, dispatch: dict[type, list[Rule]]):
        self._ctx = ctx
        self._dispatch = dispatch

    def visit(self, node: ast.AST) -> None:
        """Dispatch ``node`` to the in-scope rules, then recurse."""
        for rule in self._dispatch.get(type(node), ()):
            rule.check(node, self._ctx)
        self.generic_visit(node)


def _parse_suppressions(source: str) -> list[Suppression]:
    """Extract suppressions from real comment tokens only.

    Tokenizing (rather than scanning raw lines) means a docstring or
    string literal that merely *mentions* the suppression syntax — this
    module's own documentation, for instance — is never parsed as one.
    """
    found = []
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for token in tokens:
            if token.type != tokenize.COMMENT or "repro-lint" not in token.string:
                continue
            match = _SUPPRESSION.search(token.string)
            if match is None:
                continue
            ids = tuple(
                part.strip()
                for part in match.group("ids").split(",")
                if part.strip()
            )
            found.append(
                Suppression(
                    line=token.start[0], ids=ids, reason=match.group("reason")
                )
            )
    except tokenize.TokenError:  # pragma: no cover - ast.parse accepted it
        pass
    return found


def _meta_finding(path: str, line: int, message: str, suggestion: str) -> Finding:
    return Finding(
        path=path,
        line=line,
        col=1,
        rule=META_RULE_ID,
        message=message,
        suggestion=suggestion,
    )


def _apply_suppressions(
    path: str, findings: list[Finding], suppressions: list[Suppression]
) -> list[Finding]:
    """Filter suppressed findings; report malformed suppressions.

    A suppression only takes effect when it carries a reason and names
    registered rules; otherwise it is reported (``RPL000``) *and* the
    findings it tried to silence stay.
    """
    kept: list[Finding] = []
    valid: dict[int, set[str]] = {}
    for sup in suppressions:
        problems = []
        if not sup.ids:
            problems.append("no rule ids")
        unknown = [rule_id for rule_id in sup.ids if rule_id not in _REGISTRY]
        if unknown:
            problems.append(f"unknown rule id(s) {', '.join(unknown)}")
        if META_RULE_ID in sup.ids:
            problems.append(f"{META_RULE_ID} is not suppressible")
        if not sup.reason:
            problems.append("missing the mandatory reason")
        if problems:
            kept.append(
                _meta_finding(
                    path,
                    sup.line,
                    f"malformed suppression ({'; '.join(problems)})",
                    "write `# repro-lint: disable=RPLxxx -- <why this "
                    "violation is intentional>`",
                )
            )
        else:
            valid.setdefault(sup.line, set()).update(sup.ids)
    for finding in findings:
        if finding.rule in valid.get(finding.line, ()):
            continue
        kept.append(finding)
    return kept


def lint_source(
    source: str, path: str = "<memory>", relpath: str | None = None
) -> list[Finding]:
    """Lint one module's source; the core entry point.

    Args:
        source: Python source text.
        path: Path reported in findings (and, by default, used to derive
            the scoping relpath).
        relpath: Override for the module-relative scoping path — tests
            use this to place an inline fixture "inside" any package.

    Returns:
        Findings sorted by (line, col, rule), suppressions applied.
    """
    relpath = relpath if relpath is not None else module_relpath(path)
    try:
        tree = ast.parse(source)
    except SyntaxError as error:
        return [
            _meta_finding(
                path,
                error.lineno or 1,
                f"file does not parse: {error.msg}",
                "fix the syntax error; the linter only checks valid modules",
            )
        ]
    ctx = LintContext(path=path, relpath=relpath, source=source, tree=tree)
    dispatch: dict[type, list[Rule]] = {}
    for rule in all_rules():
        if not rule.node_types or not rule.applies_to(relpath):
            continue
        for node_type in rule.node_types:
            dispatch.setdefault(node_type, []).append(rule)
    if dispatch:
        _Visitor(ctx, dispatch).visit(tree)
    findings = _apply_suppressions(
        path, ctx.findings, _parse_suppressions(source)
    )
    return sorted(findings, key=lambda f: (f.line, f.col, f.rule))
