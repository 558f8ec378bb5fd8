"""Framework mechanics: registry, scoping, suppressions, findings."""

from textwrap import dedent

from repro.lint import Finding, all_rules, lint_source
from repro.lint.framework import META_RULE_ID, module_relpath


def lint(source, relpath):
    return lint_source(dedent(source), relpath=relpath)


def get_rule(rule_id):
    return {rule.id: rule for rule in all_rules()}[rule_id]


class TestRegistry:
    def test_all_rules_sorted_and_unique(self):
        ids = [rule.id for rule in all_rules()]
        assert ids == sorted(ids)
        assert len(ids) == len(set(ids))

    def test_expected_catalog(self):
        assert [rule.id for rule in all_rules()] == [
            "RPL000",
            "RPL001",
            "RPL002",
            "RPL003",
            "RPL004",
            "RPL005",
            "RPL006",
            "RPL007",
            "RPL008",
            "RPL009",
        ]

    def test_every_rule_documents_itself(self):
        for rule in all_rules():
            assert rule.name, rule.id
            assert rule.rationale, rule.id


class TestScoping:
    def test_module_relpath_anchors_at_repro(self):
        assert module_relpath("src/repro/snn/layers.py") == "repro/snn/layers.py"
        assert module_relpath("/abs/src/repro/config.py") == "repro/config.py"

    def test_module_relpath_falls_back_to_basename(self):
        assert module_relpath("scratch/tool.py") == "tool.py"

    def test_include_glob_crosses_directories(self):
        rule = get_rule("RPL006")
        assert rule.applies_to("repro/scenario/stream.py")
        assert not rule.applies_to("repro/core/pipeline.py")

    def test_exclude_glob_wins(self):
        rule = get_rule("RPL001")
        assert rule.applies_to("repro/core/pipeline.py")
        assert not rule.applies_to("repro/seeding.py")
        assert not rule.applies_to("repro/data/synthetic.py")

    def test_out_of_scope_rules_never_dispatch(self):
        src = """
        class Scenario:
            def steps(self):
                return [1]
        """
        assert lint(src, "repro/core/foo.py") == []


class TestSuppressions:
    FIRING = """
    import numpy as np

    def sample():
        return np.random.default_rng().random(){comment}
    """

    def test_reasoned_suppression_silences_finding(self):
        src = self.FIRING.format(
            comment="  # repro-lint: disable=RPL001 -- fixture exercising suppression"
        )
        assert lint(src, "repro/core/foo.py") == []

    def test_suppression_without_reason_is_rejected_and_not_honored(self):
        src = self.FIRING.format(comment="  # repro-lint: disable=RPL001")
        findings = lint(src, "repro/core/foo.py")
        assert sorted(f.rule for f in findings) == [META_RULE_ID, "RPL001"]
        meta = next(f for f in findings if f.rule == META_RULE_ID)
        assert "missing the mandatory reason" in meta.message

    def test_unknown_rule_id_is_rejected(self):
        src = self.FIRING.format(
            comment="  # repro-lint: disable=RPL999 -- wrong id"
        )
        findings = lint(src, "repro/core/foo.py")
        assert sorted(f.rule for f in findings) == [META_RULE_ID, "RPL001"]
        meta = next(f for f in findings if f.rule == META_RULE_ID)
        assert "unknown rule id" in meta.message

    def test_empty_id_list_is_rejected(self):
        src = self.FIRING.format(comment="  # repro-lint: disable= -- nothing")
        findings = lint(src, "repro/core/foo.py")
        assert sorted(f.rule for f in findings) == [META_RULE_ID, "RPL001"]

    def test_meta_rule_is_not_suppressible(self):
        src = self.FIRING.format(
            comment="  # repro-lint: disable=RPL000,RPL001 -- trying to gag the meta rule"
        )
        findings = lint(src, "repro/core/foo.py")
        meta = next(f for f in findings if f.rule == META_RULE_ID)
        assert "not suppressible" in meta.message

    def test_suppression_only_covers_its_own_line(self):
        src = """
        import numpy as np

        # repro-lint: disable=RPL001 -- wrong line, does nothing
        def sample():
            return np.random.default_rng().random()
        """
        findings = lint(src, "repro/core/foo.py")
        assert [f.rule for f in findings] == ["RPL001"]

    def test_multiple_ids_on_one_line(self):
        src = """
        import numpy as np

        def sample():
            print(np.random.default_rng().random())  # repro-lint: disable=RPL001, RPL008 -- fixture: one comment, two rules
        """
        assert lint(src, "repro/core/foo.py") == []

    def test_docstring_mentioning_syntax_is_not_a_suppression(self):
        src = '''
        def helper():
            """Explains `# repro-lint: disable=RPL001` without using it."""
            return 1
        '''
        assert lint(src, "repro/core/foo.py") == []


class TestFindings:
    def test_syntax_error_becomes_meta_finding(self):
        findings = lint_source("def broken(:\n", path="src/repro/core/foo.py")
        assert len(findings) == 1
        assert findings[0].rule == META_RULE_ID
        assert "does not parse" in findings[0].message

    def test_findings_sorted_and_positioned(self):
        src = """
        import numpy as np

        def late():
            print("x")

        def early():
            return np.random.default_rng()
        """
        findings = lint(src, "repro/core/foo.py")
        assert [(f.rule, f.line) for f in findings] == [
            ("RPL008", 5),
            ("RPL001", 8),
        ]
        assert all(f.col >= 1 for f in findings)

    def test_finding_format_and_dict(self):
        finding = Finding(
            path="src/repro/core/foo.py",
            line=3,
            col=5,
            rule="RPL008",
            message="print() in library code",
            suggestion="return the text instead",
        )
        text = finding.format()
        assert "src/repro/core/foo.py:3:5: RPL008" in text
        assert "fix: return the text instead" in text
        assert finding.to_dict() == {
            "path": "src/repro/core/foo.py",
            "line": 3,
            "col": 5,
            "rule": "RPL008",
            "message": "print() in library code",
            "suggestion": "return the text instead",
        }
