"""Docs-vs-code conformance: the documentation cannot drift silently.

Four guarantees:

1. the environment-variable table in ``docs/env.md`` matches the
   authoritative registry ``repro.config.ENV_FLAGS`` field for field;
2. every runnable snippet under ``docs/snippets/`` executes cleanly
   (they are included verbatim into the rendered pages);
3. every page the ``mkdocs.yml`` nav references exists, and every
   declared flag is mentioned in both the docs reference and README;
4. every registered lint rule (id and name) is documented in
   ``docs/lint.md``, and README's rule count and id range match the
   registry, so the rule catalog cannot drift from the code;
5. the scenario and kernel-backend tables in README and the docs list
   exactly the names in the code's scenario and backend tables;
6. every ``*.md`` path the library source names exists in the repo.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.config import ENV_FLAGS

REPO = Path(__file__).resolve().parents[2]
DOCS = REPO / "docs"
SNIPPETS = sorted((DOCS / "snippets").glob("*.py"))

_CELL_SPLIT = re.compile(r"(?<!\\)\|")


def _env_table_rows():
    """Parse the flag table in docs/env.md into dicts keyed by column."""
    rows = []
    for line in (DOCS / "env.md").read_text().splitlines():
        if not line.startswith("| `REPRO_"):
            continue
        cells = [cell.strip() for cell in _CELL_SPLIT.split(line)[1:-1]]
        assert len(cells) == 4, f"malformed table row: {line}"
        name, default, values, description = (
            cell.replace("\\|", "|").strip("`") for cell in cells
        )
        rows.append(
            {
                "name": name,
                "default": default,
                "values": values,
                "description": description,
            }
        )
    return rows


def _table_names(path: Path, header: str) -> list[str]:
    """First-column names of the markdown table whose first header is ``header``.

    Body rows must start with a backticked name (``| `name` | ...``).
    """
    names, in_table = [], False
    for line in path.read_text().splitlines():
        if not line.startswith("|"):
            in_table = False
            continue
        first = _CELL_SPLIT.split(line)[1].strip()
        if first == header:
            in_table = True
        elif in_table and not set(first) <= set("-: "):
            names.append(first.strip("`"))
    assert names, f"{path.name} has no table headed {header!r}"
    return names


class TestEnvReference:
    def test_table_matches_declarations(self):
        rows = _env_table_rows()
        assert [row["name"] for row in rows] == [flag.name for flag in ENV_FLAGS]
        for row, flag in zip(rows, ENV_FLAGS):
            assert row["default"] == flag.default, flag.name
            assert row["values"] == flag.values, flag.name
            assert row["description"] == flag.description, flag.name

    def test_readme_mentions_every_flag(self):
        readme = (REPO / "README.md").read_text()
        for flag in ENV_FLAGS:
            assert flag.name in readme, f"{flag.name} missing from README.md"

    def test_docs_reference_mentions_every_flag(self):
        env_md = (DOCS / "env.md").read_text()
        for flag in ENV_FLAGS:
            assert flag.name in env_md, f"{flag.name} missing from docs/env.md"


class TestSnippets:
    def test_snippets_exist(self):
        assert SNIPPETS, "docs/snippets/ must hold at least one runnable example"

    @pytest.mark.parametrize("snippet", SNIPPETS, ids=lambda p: p.name)
    def test_snippet_runs(self, snippet):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(REPO / "src"), env.get("PYTHONPATH")])
        )
        completed = subprocess.run(
            [sys.executable, str(snippet)],
            capture_output=True,
            text=True,
            cwd=REPO,
            env=env,
            timeout=120,
        )
        assert completed.returncode == 0, (
            f"{snippet.name} failed:\n{completed.stdout}\n{completed.stderr}"
        )

    @pytest.mark.parametrize("snippet", SNIPPETS, ids=lambda p: p.name)
    def test_snippet_is_included_in_a_page(self, snippet):
        include = f'--8<-- "docs/snippets/{snippet.name}"'
        assert any(
            include in page.read_text() for page in DOCS.glob("*.md")
        ), f"{snippet.name} is not included by any docs page"


class TestLintReference:
    def test_every_rule_documented(self):
        from repro.lint import all_rules

        lint_md = (DOCS / "lint.md").read_text()
        for rule in all_rules():
            assert rule.id in lint_md, f"{rule.id} missing from docs/lint.md"
            assert rule.name in lint_md, (
                f"{rule.id} name {rule.name!r} missing from docs/lint.md"
            )

    def test_catalog_table_matches_registry(self):
        from repro.lint import all_rules

        lint_md = (DOCS / "lint.md").read_text()
        table_ids = re.findall(r"^\| `(RPL\d{3})` \|", lint_md, flags=re.MULTILINE)
        assert table_ids == [rule.id for rule in all_rules()], (
            "docs/lint.md rule table out of sync with the registry"
        )

    def test_readme_rule_count_and_range_match_registry(self):
        from repro.lint import all_rules

        readme = (REPO / "README.md").read_text()
        match = re.search(r"(\w+) rules \(`(RPL\d{3})`–`(RPL\d{3})`\)", readme)
        assert match, "README.md no longer states the lint rule count and range"
        count, first, last = match.groups()
        ids = sorted(rule.id for rule in all_rules())
        numbers = ["zero", "one", "two", "three", "four", "five", "six", "seven",
                   "eight", "nine", "ten", "eleven", "twelve"]
        assert numbers.index(count.lower()) == len(ids), "README rule count is stale"
        assert (first, last) == (ids[0], ids[-1]), "README rule range is stale"

    def test_readme_mentions_linter(self):
        readme = (REPO / "README.md").read_text()
        assert "repro lint" in readme
        assert "docs/lint.md" in readme


class TestNameTables:
    @pytest.mark.parametrize(
        "path, header", [(DOCS / "scenarios.md", "name"), (REPO / "README.md", "scenario")]
    )
    def test_scenario_tables_match_code(self, path, header):
        from repro.scenario import available

        assert sorted(_table_names(path, header)) == available()

    @pytest.mark.parametrize("path", [REPO / "README.md", DOCS / "index.md"])
    def test_backend_tables_match_code(self, path):
        from repro.snn.backends import active

        # The names active().name can take: the C kernels' path and the
        # numpy reference's.
        names = _table_names(path, "backend")
        assert names == ["c", "numpy"]
        assert active().name in names


class TestSourceReferences:
    def test_markdown_paths_named_in_source_exist(self):
        missing = []
        for source in sorted((REPO / "src" / "repro").rglob("*.py")):
            for path in re.findall(r"[\w./-]+\.md\b", source.read_text()):
                if not (REPO / path).is_file():
                    missing.append(f"{source.relative_to(REPO)}: {path}")
        assert not missing, f"source names missing documents: {missing}"


class TestSitePages:
    def test_nav_pages_exist(self):
        nav_entries = re.findall(
            r"^\s+- [^:]+:\s+(\S+\.md)\s*$",
            (REPO / "mkdocs.yml").read_text(),
            flags=re.MULTILINE,
        )
        assert nav_entries, "mkdocs.yml nav is empty"
        for entry in nav_entries:
            assert (DOCS / entry).exists(), f"nav references missing page {entry}"

    def test_pages_cover_required_topics(self):
        required = {
            "architecture.md": [
                "repro.autograd",
                "repro.snn",
                "repro.eval",
                "never reused",
                "allow_orphan",
            ],
            "backends.md": ["numpy_ref", "self-check", "parity"],
            "reproducibility.md": ["bitwise", "associat", "-ffp-contract=off"],
        }
        for page, needles in required.items():
            text = (DOCS / page).read_text()
            for needle in needles:
                assert needle in text, f"{page} must document {needle!r}"
