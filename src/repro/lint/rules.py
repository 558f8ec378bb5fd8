"""The built-in rule catalog (``RPL000``–``RPL009``).

Each rule encodes one invariant the reproduction's tests rely on but
could not previously enforce globally; ``docs/lint.md`` carries the
full rationale and the suppression policy.  Rules resolve dotted names
through the per-file import-alias map, so a local variable named
``random`` or ``time`` never false-positives.
"""

from __future__ import annotations

import ast

from repro.lint.framework import META_RULE_ID, LintContext, Rule, register

__all__ = [
    "SuppressionHygieneRule",
    "GlobalRngRule",
    "WallClockRule",
    "EnvAccessRule",
    "AtomicWriteRule",
    "ErrorTaxonomyRule",
    "LazyStepsRule",
    "FrozenSpecRule",
    "NoPrintRule",
    "NumpySaveRule",
]


@register
class SuppressionHygieneRule(Rule):
    """Meta rule: malformed suppressions and unparseable files.

    The framework itself emits these findings (missing reason, unknown
    rule id, syntax error); registering the id keeps it documented,
    listable, and impossible to reuse.
    """

    id = META_RULE_ID
    name = "suppression-hygiene"
    rationale = (
        "Inline suppressions are the audited escape hatch of every other "
        "rule; one without a reason (or naming an unknown rule) hides a "
        "contract violation without recording why, so the linter reports "
        "it and refuses to honour it.  RPL000 itself cannot be suppressed."
    )
    node_types = ()

    def check(self, node: ast.AST, ctx: LintContext) -> None:
        """Never dispatched; the framework raises RPL000 directly."""


@register
class GlobalRngRule(Rule):
    """RPL001: no global-state RNG — thread a ``Generator``."""

    id = "RPL001"
    name = "no-global-rng"
    rationale = (
        "Bitwise-identical trajectories (the PR 1 contract every parity "
        "suite builds on) require all randomness to flow from the "
        "experiment seed through explicitly threaded numpy Generators.  "
        "Module-level RNG functions (random.*, np.random.*) draw from "
        "hidden global state, and an unseeded default_rng() seeds itself "
        "from the OS — either silently forks a run's trajectory.  "
        "repro.seeding owns generator construction; repro.data generators "
        "are exempt because dataset synthesis derives every draw from "
        "(seed, class, sample) via generators it is handed."
    )
    exclude = ("repro/seeding.py", "repro/data/*")
    node_types = (ast.Call,)

    #: Explicit-state constructors under ``numpy.random`` that are fine.
    _NUMPY_EXEMPT = frozenset(
        {
            "Generator",
            "BitGenerator",
            "SeedSequence",
            "PCG64",
            "PCG64DXSM",
            "MT19937",
            "Philox",
            "SFC64",
        }
    )
    #: Explicit-state constructors under stdlib ``random`` that are fine.
    _STDLIB_EXEMPT = frozenset({"Random", "SystemRandom"})

    def check(self, node: ast.Call, ctx: LintContext) -> None:
        """Flag ``random.*`` / ``numpy.random.*`` module-level calls."""
        full = ctx.resolve(node.func)
        if full is None:
            return
        if full.startswith("random."):
            leaf = full.split(".")[-1]
            if leaf in self._STDLIB_EXEMPT:
                return
            ctx.report(
                self,
                node,
                f"global-state RNG call {full}()",
                "thread an explicit np.random.Generator derived via "
                "repro.seeding.spawn(seed, key)",
            )
        elif full.startswith("numpy.random."):
            leaf = full.split(".")[-1]
            if leaf in self._NUMPY_EXEMPT:
                return
            ctx.report(
                self,
                node,
                f"module-level RNG call {full}()",
                "construct generators through repro.seeding "
                "(spawn/default_rng) and thread them explicitly",
            )


@register
class WallClockRule(Rule):
    """RPL002: no wall-clock reads — inject a ``Clock``."""

    id = "RPL002"
    name = "no-wallclock"
    rationale = (
        "Library code that reads the wall clock produces spans, metrics "
        "and records that differ run to run, which breaks deterministic "
        "trace tests and smuggles time-dependence into results.  Timing "
        "belongs to the injectable Clock protocol (repro.obs.clock — "
        "ManualClock makes tests deterministic), whose MonotonicClock is "
        "the one place that reads it."
    )
    exclude = ("repro/obs/clock.py",)
    node_types = (ast.Call,)

    _BANNED = frozenset(
        {
            "time.time",
            "time.time_ns",
            "time.monotonic",
            "time.monotonic_ns",
            "time.perf_counter",
            "time.perf_counter_ns",
            "time.process_time",
            "time.process_time_ns",
            "datetime.datetime.now",
            "datetime.datetime.today",
            "datetime.datetime.utcnow",
            "datetime.date.today",
        }
    )

    def check(self, node: ast.Call, ctx: LintContext) -> None:
        """Flag direct reads of process/wall clocks."""
        full = ctx.resolve(node.func)
        if full in self._BANNED:
            ctx.report(
                self,
                node,
                f"wall-clock read {full}()",
                "inject a repro.obs.clock.Clock (MonotonicClock in "
                "production, ManualClock in tests)",
            )


@register
class EnvAccessRule(Rule):
    """RPL003: no ``os.environ`` access outside ``repro.config``."""

    id = "RPL003"
    name = "no-env-access"
    rationale = (
        "Every REPRO_* flag is declared once in repro.config.ENV_FLAGS so "
        "the documented environment reference is provably complete "
        "(tests/docs verifies it field for field).  A direct os.environ "
        "read elsewhere creates an undocumented, unvalidated knob that "
        "the docs conformance tests cannot see."
    )
    exclude = ("repro/config.py",)
    node_types = (ast.Attribute, ast.Name, ast.Call)

    def check(self, node: ast.AST, ctx: LintContext) -> None:
        """Flag ``os.environ`` uses and ``os.getenv``/``putenv`` calls."""
        if isinstance(node, ast.Call):
            full = ctx.resolve(node.func)
            if full in ("os.getenv", "os.putenv", "os.unsetenv"):
                ctx.report(
                    self,
                    node,
                    f"direct environment access {full}()",
                    "declare the flag in repro.config.ENV_FLAGS and read "
                    "it via env_value()",
                )
            return
        # Name covers `from os import environ`; Attribute covers
        # `os.environ`.  Resolution returns exactly "os.environ" only at
        # the chain root, so `os.environ.get(...)` reports once.
        if ctx.resolve(node) == "os.environ":
            ctx.report(
                self,
                node,
                "direct os.environ access",
                "declare the flag in repro.config.ENV_FLAGS and read it "
                "via env_value()",
            )


@register
class AtomicWriteRule(Rule):
    """RPL004: persistence modules must use the atomic write helpers."""

    id = "RPL004"
    name = "atomic-writes"
    rationale = (
        "Checkpoint manifests and store/federation indexes promise that "
        "a crash at any instant leaves the previous complete file intact "
        "(resume tests kill real subprocesses at every step boundary to "
        "prove it).  A bare open(path, 'w'), json.dump, or "
        "Path.write_text onto a final path truncates before it writes — "
        "one mistimed crash corrupts the commit point.  All such writes "
        "route through repro.ioutil's write-then-atomic-rename helpers.  "
        "Immutable shard payloads (fresh filenames committed by a later "
        "index rename) may still use write_bytes: the rename protocol, "
        "not the shard write, is the commit point."
    )
    include = ("repro/scenario/checkpoint.py", "repro/replaystore/*")
    node_types = (ast.Call,)

    def check(self, node: ast.Call, ctx: LintContext) -> None:
        """Flag truncating writes that bypass ``repro.ioutil``."""
        suggestion = (
            "route the write through repro.ioutil "
            "(atomic_write_json/atomic_write_text/atomic_open)"
        )
        if ctx.resolve(node.func) == "json.dump":
            ctx.report(
                self, node, "json.dump writes through a live handle", suggestion
            )
            return
        func = node.func
        if (
            isinstance(func, ast.Name)
            and func.id == "open"
            and func.id not in ctx.aliases
        ):
            mode = None
            if len(node.args) >= 2:
                mode = node.args[1]
            for keyword in node.keywords:
                if keyword.arg == "mode":
                    mode = keyword.value
            if (
                isinstance(mode, ast.Constant)
                and isinstance(mode.value, str)
                and "w" in mode.value
            ):
                ctx.report(
                    self,
                    node,
                    f"bare open(..., {mode.value!r}) truncates the final path",
                    suggestion,
                )
        elif isinstance(func, ast.Attribute) and func.attr == "write_text":
            ctx.report(
                self, node, "Path.write_text truncates the final path", suggestion
            )


@register
class ErrorTaxonomyRule(Rule):
    """RPL005: raise the repro error taxonomy, not bare builtins."""

    id = "RPL005"
    name = "error-taxonomy"
    rationale = (
        "Callers catch ReproError at API boundaries (the CLI turns it "
        "into exit 2); validation that raises bare ValueError or "
        "RuntimeError escapes that contract, so corruption tests cannot "
        "distinguish an intentional rejection from a genuine bug.  Raise "
        "ConfigError/DataError/StoreError... from repro.errors instead.  "
        "NotImplementedError (abstract hooks) and AssertionError "
        "(self-checks) remain legitimate."
    )
    node_types = (ast.Raise,)

    _BANNED = frozenset({"ValueError", "RuntimeError", "Exception"})

    def check(self, node: ast.Raise, ctx: LintContext) -> None:
        """Flag ``raise ValueError/RuntimeError/Exception`` statements."""
        exc = node.exc
        if isinstance(exc, ast.Call):
            exc = exc.func
        if isinstance(exc, ast.Name) and exc.id in self._BANNED:
            ctx.report(
                self,
                node,
                f"bare {exc.id} raised from library code",
                "raise the matching repro.errors type (ConfigError, "
                "DataError, StoreError, ...) so ReproError catches it",
            )


@register
class LazyStepsRule(Rule):
    """RPL006: ``Scenario.steps`` implementations must stream lazily."""

    id = "RPL006"
    name = "lazy-steps"
    rationale = (
        "Scenario streams are consumed one step at a time so a 100-step "
        "streaming run materializes one step's datasets, not all of "
        "them; the conformance suite probes laziness with an exploding "
        "generator.  A steps() that returns a prebuilt list defeats "
        "both, and the failure only shows up as memory growth at scale.  "
        "steps() must be a generator function or return a lazy iterator."
    )
    include = ("repro/scenario/*",)
    node_types = (ast.FunctionDef,)

    @staticmethod
    def _own_nodes(func: ast.FunctionDef):
        """Walk the function body without descending into nested defs."""
        stack = list(func.body)
        while stack:
            node = stack.pop()
            yield node
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                continue
            stack.extend(ast.iter_child_nodes(node))

    def check(self, node: ast.FunctionDef, ctx: LintContext) -> None:
        """Flag non-generator ``steps`` that return eager sequences."""
        if node.name != "steps":
            return
        eager_returns = []
        for child in self._own_nodes(node):
            if isinstance(child, (ast.Yield, ast.YieldFrom)):
                return  # a generator function is lazy by construction
            if isinstance(child, ast.Return):
                eager_returns.append(child)
        for ret in eager_returns:
            value = ret.value
            eager = isinstance(value, (ast.List, ast.ListComp, ast.Tuple)) or (
                isinstance(value, ast.Call)
                and isinstance(value.func, ast.Name)
                and value.func.id in ("list", "sorted", "tuple")
            )
            if eager:
                ctx.report(
                    self,
                    ret,
                    "steps() returns an eagerly materialized sequence",
                    "make steps() a generator (yield one ContinualStep at "
                    "a time) or return a lazy iterator",
                )


@register
class FrozenSpecRule(Rule):
    """RPL007: spec/config dataclasses must be ``frozen=True``."""

    id = "RPL007"
    name = "frozen-specs"
    rationale = (
        "Run identity is computed from spec reprs (checkpoint "
        "fingerprints, backend SweepSpecs pinned at forward time); a "
        "mutable spec can change after it has been fingerprinted, "
        "silently invalidating resume compatibility.  Dataclasses in the "
        "spec-carrying modules must declare frozen=True."
    )
    include = (
        "repro/core/replayspec.py",
        "repro/scenario/*",
        "repro/snn/backends/numpy_ref.py",
    )
    node_types = (ast.ClassDef,)

    def _dataclass_decorator(self, node: ast.ClassDef, ctx: LintContext):
        for decorator in node.decorator_list:
            target = decorator.func if isinstance(decorator, ast.Call) else decorator
            if isinstance(target, ast.Name) and target.id == "dataclass":
                return decorator
            if ctx.resolve(target) == "dataclasses.dataclass":
                return decorator
        return None

    def check(self, node: ast.ClassDef, ctx: LintContext) -> None:
        """Flag ``@dataclass`` declarations without ``frozen=True``."""
        decorator = self._dataclass_decorator(node, ctx)
        if decorator is None:
            return
        if isinstance(decorator, ast.Call):
            for keyword in decorator.keywords:
                if (
                    keyword.arg == "frozen"
                    and isinstance(keyword.value, ast.Constant)
                    and keyword.value.value is True
                ):
                    return
        ctx.report(
            self,
            node,
            f"spec dataclass {node.name} is not frozen",
            "declare @dataclass(frozen=True) so reprs/fingerprints "
            "cannot drift after construction",
        )


@register
class NoPrintRule(Rule):
    """RPL008: no ``print()`` outside the CLI layer."""

    id = "RPL008"
    name = "no-print"
    rationale = (
        "Library output belongs to the obs layer (spans/metrics) or to "
        "returned strings the CLI decides to show; a stray print() in "
        "library code corrupts machine-readable output (--format json, "
        "trace exports) and cannot be silenced by callers.  Only "
        "repro/cli.py and repro/__main__.py talk to stdout directly."
    )
    exclude = ("repro/cli.py", "repro/__main__.py")
    node_types = (ast.Call,)

    def check(self, node: ast.Call, ctx: LintContext) -> None:
        """Flag calls to the ``print`` builtin."""
        func = node.func
        if (
            isinstance(func, ast.Name)
            and func.id == "print"
            and func.id not in ctx.aliases
        ):
            ctx.report(
                self,
                node,
                "print() in library code",
                "return the text to the CLI layer or record it via "
                "repro.obs spans/metrics",
            )


@register
class NumpySaveRule(Rule):
    """RPL009: ``np.save*`` must write through an ``atomic_open`` handle."""

    id = "RPL009"
    name = "atomic-numpy-save"
    rationale = (
        "np.save/np.savez/np.savez_compressed given a *path* open and "
        "truncate the final file themselves, bypassing the write-then-"
        "atomic-rename protocol that RPL004 enforces for text/json — a "
        "crash mid-save leaves a torn archive at the committed name "
        "(np.load then fails on what looks like a valid checkpoint or "
        "dataset).  Passing an open file object instead routes the bytes "
        "wherever the caller says, so the blessed pattern is "
        "`with atomic_open(path, 'wb') as handle: np.savez(handle, ...)` "
        "— the rename commits only a complete archive."
    )
    node_types = (ast.Call,)

    _BANNED = frozenset(
        {"numpy.save", "numpy.savez", "numpy.savez_compressed"}
    )
    _ATOMIC_OPENERS = frozenset(
        {"repro.ioutil.atomic_open", "atomic_open"}
    )

    def _atomic_handles(self, ctx: LintContext) -> frozenset[str]:
        """Names bound by ``with atomic_open(...) as NAME`` in this file.

        Computed once per file and cached on the context; a name is only
        as trustworthy as the binding site, which is why the check is
        per-file not per-scope — good enough to catch path-passing while
        never flagging the blessed pattern.
        """
        cached = getattr(ctx, "_rpl009_handles", None)
        if cached is not None:
            return cached
        handles = set()
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.With, ast.AsyncWith)):
                continue
            for item in node.items:
                call = item.context_expr
                if not isinstance(call, ast.Call):
                    continue
                resolved = ctx.resolve(call.func)
                if resolved is None and isinstance(call.func, ast.Name):
                    resolved = call.func.id
                if resolved not in self._ATOMIC_OPENERS:
                    continue
                target = item.optional_vars
                if isinstance(target, ast.Name):
                    handles.add(target.id)
        ctx._rpl009_handles = frozenset(handles)
        return ctx._rpl009_handles

    def check(self, node: ast.Call, ctx: LintContext) -> None:
        """Flag ``np.save*`` calls whose destination is not a handle."""
        full = ctx.resolve(node.func)
        if full not in self._BANNED:
            return
        destination = node.args[0] if node.args else None
        for keyword in node.keywords:
            if keyword.arg == "file":
                destination = keyword.value
        if isinstance(destination, ast.Name) and destination.id in (
            self._atomic_handles(ctx)
        ):
            return
        ctx.report(
            self,
            node,
            f"{full}() writes (and truncates) the destination path itself",
            "open the destination with repro.ioutil.atomic_open(path, "
            "'wb') and pass the handle to the save call",
        )
