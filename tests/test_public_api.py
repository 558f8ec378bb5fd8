"""Public-API surface checks: __all__ consistency, doc coverage, callers.

These keep the library honest as it grows: everything exported must
exist, every public item must carry a docstring (deliverable (e) of
the reproduction: doc comments on every public item), and every export
must have a caller outside the tests, so library code no run uses does
not accumulate.
"""

import ast
import functools
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import repro

PACKAGES = [
    "repro",
    "repro.autograd",
    "repro.snn",
    "repro.snn.backends",
    "repro.data",
    "repro.compression",
    "repro.replaystore",
    "repro.training",
    "repro.core",
    "repro.scenario",
    "repro.hw",
    "repro.eval",
    "repro.obs",
    "repro.lint",
]


REPO = Path(repro.__file__).resolve().parents[2]

#: Directories whose ``.py`` files count as callers of the library.
CALLER_DIRS = ("examples", "benchmarks", "e2ebench", "docs")

#: Exports with no caller outside the tests, each kept for a reason.
UNCALLED_EXPORTS = {
    "ManualClock": "the deterministic clock the trace tests drive",
    "frozen_front_trace": "e2ebench patches it by name, a string the census cannot see",
}


def iter_modules():
    seen = set(PACKAGES)
    for package_name in PACKAGES:
        package = importlib.import_module(package_name)
        if hasattr(package, "__path__"):
            for info in pkgutil.iter_modules(package.__path__):
                seen.add(f"{package_name}.{info.name}")
    return sorted(seen)


@pytest.mark.parametrize("package_name", PACKAGES)
def test_all_exports_resolve(package_name):
    package = importlib.import_module(package_name)
    exported = getattr(package, "__all__", [])
    assert exported, f"{package_name} must declare __all__"
    for name in exported:
        assert hasattr(package, name), f"{package_name}.__all__ lists missing {name!r}"


@pytest.mark.parametrize("module_name", iter_modules())
def test_module_has_docstring(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__ and module.__doc__.strip(), f"{module_name} lacks a docstring"


@pytest.mark.parametrize("package_name", PACKAGES)
def test_public_items_documented(package_name):
    package = importlib.import_module(package_name)
    undocumented = []
    for name in getattr(package, "__all__", []):
        item = getattr(package, name)
        if inspect.isclass(item) or inspect.isfunction(item):
            if not (item.__doc__ and item.__doc__.strip()):
                undocumented.append(f"{package_name}.{name}")
    assert not undocumented, f"missing docstrings: {undocumented}"


def test_version_matches_pyproject():
    from pathlib import Path

    pyproject = Path(repro.__file__).resolve().parents[2] / "pyproject.toml"
    if not pyproject.exists():
        pytest.skip("source tree layout not available")
    text = pyproject.read_text()
    assert f'version = "{repro.__version__}"' in text


def test_error_hierarchy_rooted():
    from repro import errors

    for name in dir(errors):
        item = getattr(errors, name)
        if inspect.isclass(item) and issubclass(item, Exception):
            if item is not errors.ReproError:
                assert issubclass(item, errors.ReproError), name


def _references(tree, imports=True):
    """``(name, line)`` of every loaded Name/Attribute and imported name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr, node.lineno
        elif imports and isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.name.rpartition(".")[2], node.lineno


@functools.cache
def _callers():
    """Names referenced by the caller dirs, and per-file references in src/repro."""
    external = set()
    for directory in CALLER_DIRS:
        for path in (REPO / directory).rglob("*.py"):
            external.update(name for name, _ in _references(ast.parse(path.read_text())))
    library = {
        # A package __init__'s imports are re-exports, not uses.
        path: list(_references(ast.parse(path.read_text()), imports=path.name != "__init__.py"))
        for path in (REPO / "src" / "repro").rglob("*.py")
    }
    return external, library


def _span(node):
    """First (decorators included) and last line of a definition."""
    return min([node.lineno] + [d.lineno for d in node.decorator_list]), node.end_lineno


def _has_caller(name, path, first=0, last=-1):
    """``name`` is referenced from a caller dir, or from library code
    outside lines ``first..last`` of ``path`` (its own definition)."""
    external, library = _callers()
    return name in external or any(
        ref == name and not (file == path and first <= line <= last)
        for file, refs in library.items()
        for ref, line in refs
    )


@pytest.mark.parametrize("module_name", iter_modules())
def test_every_export_has_a_caller(module_name):
    """Each ``__all__`` name is used as code outside the tests.

    A use is a reference from another library module, from its own
    module outside its definition, or from a caller directory; a class
    registered by decorator is used by its registry.
    """
    if not (REPO / "src" / "repro").is_dir():
        pytest.skip("source tree layout not available")
    module = importlib.import_module(module_name)
    path = Path(module.__file__).resolve()
    definitions, registered = {}, set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            definitions[node.name] = _span(node)
            if isinstance(node, ast.ClassDef) and any(
                "register" in ast.unparse(d) for d in node.decorator_list
            ):
                registered.add(node.name)
    uncalled = [
        name
        for name in getattr(module, "__all__", [])
        if name not in UNCALLED_EXPORTS
        and name not in registered
        and not _has_caller(name, path, *definitions.get(name, ()))
    ]
    assert not uncalled, f"{module_name} exports names no run calls: {uncalled}"


def test_no_public_name_is_defined_twice():
    """A public function or class name is defined by one library module.

    The export census matches bare names, so a second definition of a
    name (``a.f`` beside ``b.f``) passes it on the other's callers alone.
    """
    if not (REPO / "src" / "repro").is_dir():
        pytest.skip("source tree layout not available")
    defined: dict[str, list[str]] = {}
    for path in sorted((REPO / "src" / "repro").rglob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not (
                node.name.startswith("_")
            ):
                relative = path.relative_to(REPO / "src").as_posix()
                defined.setdefault(node.name, []).append(relative)
    twice = {name: paths for name, paths in defined.items() if len(paths) > 1}
    assert not twice, f"public names defined by more than one module: {twice}"


#: Public methods and properties with no caller outside the tests,
#: each kept for a reason (``Class.name``).
UNCALLED_METHODS = {
    "ManualClock.advance": "the test clock: trace tests step it by hand",
    "LatentReplayBuffer.generate_into_store": (
        "e2ebench patches it by name, a string the census cannot see"
    ),
}


def test_census_exemptions_name_live_code():
    """Each exemption names an export or method that still exists.

    A stale key would exempt nothing today and silently exempt a future
    name that happens to match.
    """
    if not (REPO / "src" / "repro").is_dir():
        pytest.skip("source tree layout not available")
    exported = {
        name
        for module_name in iter_modules()
        for name in getattr(importlib.import_module(module_name), "__all__", [])
    }
    assert not set(UNCALLED_EXPORTS) - exported, "exempt exports no module exports"
    methods = {
        f"{cls.name}.{node.name}"
        for path in (REPO / "src" / "repro").rglob("*.py")
        for cls in ast.walk(ast.parse(path.read_text()))
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef)
    }
    assert not set(UNCALLED_METHODS) - methods, "exempt methods no class defines"


@pytest.mark.parametrize("module_name", iter_modules())
def test_every_public_method_has_a_caller(module_name):
    """Each public method or property of a library class is used as code
    outside the tests, under the reference rules of the export census."""
    if not (REPO / "src" / "repro").is_dir():
        pytest.skip("source tree layout not available")
    path = Path(importlib.import_module(module_name).__file__).resolve()
    uncalled = [
        f"{cls.name}.{node.name}"
        for cls in ast.parse(path.read_text()).body
        if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
        for node in cls.body
        if isinstance(node, ast.FunctionDef)
        and not node.name.startswith("_")
        and f"{cls.name}.{node.name}" not in UNCALLED_METHODS
        and not _has_caller(node.name, path, *_span(node))
    ]
    assert not uncalled, f"{module_name} has methods no run calls: {uncalled}"
