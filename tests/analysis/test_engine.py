"""Engine behavior: suppressions, reporters, rule selection, parse errors."""

from __future__ import annotations

import json
import textwrap

from repro.analysis import (
    ALL_RULES,
    analyze_source,
    get_rule,
    render_json,
    render_text,
    resolve_rules,
)
from repro.analysis.engine import PARSE_ERROR_CODE

_BAD_DIVISION = """\
    def metric(total, count):
        return total / count
    """

_BIT_EXACT_PATH = "src/repro/hw/cross_correlator.py"


def _rj003(source: str) -> list:
    return analyze_source(source, _BIT_EXACT_PATH,
                          rules=[get_rule("RJ003")])


class TestSuppressions:
    def test_line_level_disable(self):
        source = textwrap.dedent("""\
            def metric(total, count):
                return total / count  # repro-lint: disable=RJ003
            """)
        assert not _rj003(source)

    def test_def_scoped_disable_covers_whole_body(self):
        source = textwrap.dedent("""\
            def host_helper(total, count):  # repro-lint: disable=RJ003
                scale = float(total)
                return scale / count
            """)
        assert not _rj003(source)

    def test_def_scope_does_not_leak_to_siblings(self):
        source = textwrap.dedent("""\
            def host_helper(total):  # repro-lint: disable=RJ003
                return float(total)

            def datapath(total, count):
                return total / count
            """)
        findings = _rj003(source)
        assert [finding.line for finding in findings] == [5]

    def test_file_level_disable(self):
        source = textwrap.dedent("""\
            # repro-lint: disable-file=RJ003
            def a(x):
                return x / 2

            def b(x):
                return x / 3
            """)
        assert not _rj003(source)

    def test_suppressing_one_rule_keeps_others(self):
        source = textwrap.dedent("""\
            def f(bus):
                bus.write(19, 100)  # repro-lint: disable=RJ002
            """)
        findings = analyze_source(source, "src/repro/apps/x.py")
        assert {finding.rule for finding in findings} == {"RJ001", "RJ005"}


class TestReporters:
    def _findings(self):
        return analyze_source(textwrap.dedent(_BAD_DIVISION), _BIT_EXACT_PATH,
                              rules=[get_rule("RJ003")])

    def test_text_report_names_location_and_rule(self):
        report = render_text(self._findings())
        assert f"{_BIT_EXACT_PATH}:2:" in report
        assert "RJ003" in report
        assert "1 finding(s)" in report

    def test_text_report_clean(self):
        assert "clean" in render_text([])

    def test_json_schema(self):
        findings = self._findings()
        report = json.loads(render_json(findings, ["RJ003"]))
        assert report["tool"] == "repro-lint"
        assert report["schema_version"] == 1
        assert report["rules_run"] == ["RJ003"]
        assert report["total"] == len(findings) == 1
        assert report["counts"] == {"RJ003": 1}
        entry = report["findings"][0]
        assert entry["rule"] == "RJ003"
        assert entry["file"] == _BIT_EXACT_PATH
        assert entry["line"] == 2
        assert entry["severity"] == "error"
        assert isinstance(entry["message"], str) and entry["message"]


class TestRuleSelection:
    def test_all_rules_have_unique_codes(self):
        codes = [rule.code for rule in ALL_RULES]
        assert len(set(codes)) == len(codes) == 14
        assert codes == sorted(codes)

    def test_select_narrows(self):
        rules = resolve_rules(select=["RJ001", "rj003"])
        assert [rule.code for rule in rules] == ["RJ001", "RJ003"]

    def test_ignore_drops(self):
        rules = resolve_rules(ignore=["RJ005"])
        assert "RJ005" not in {rule.code for rule in rules}

    def test_unknown_select_raises(self):
        try:
            resolve_rules(select=["RJ999"])
        except ValueError as exc:
            assert "RJ999" in str(exc)
        else:
            raise AssertionError("expected ValueError")

    def test_unknown_ignore_raises(self):
        # --ignore validates exactly like --select: a typo'd code that
        # silently ignores nothing must be rejected, not swallowed.
        try:
            resolve_rules(ignore=["RJ001", "RJ998"])
        except ValueError as exc:
            assert "RJ998" in str(exc)
        else:
            raise AssertionError("expected ValueError")


class TestFileDiscovery:
    def _make_tree(self, tmp_path):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "a.py").write_text("x = 1\n")
        (pkg / "b.py").write_text("y = 2\n")
        return pkg

    def test_overlapping_dir_and_file_dedupe(self, tmp_path):
        from repro.analysis import iter_python_files

        pkg = self._make_tree(tmp_path)
        files = list(iter_python_files([pkg, pkg / "a.py"]))
        assert sorted(f.name for f in files) == ["a.py", "b.py"]

    def test_same_dir_twice_dedupes(self, tmp_path):
        from repro.analysis import iter_python_files

        pkg = self._make_tree(tmp_path)
        files = list(iter_python_files([pkg, pkg]))
        assert sorted(f.name for f in files) == ["a.py", "b.py"]

    def test_relative_and_absolute_spellings_dedupe(self, tmp_path,
                                                    monkeypatch):
        from repro.analysis import iter_python_files

        pkg = self._make_tree(tmp_path)
        monkeypatch.chdir(tmp_path)
        files = list(iter_python_files(["pkg/a.py", pkg / "a.py"]))
        assert [f.name for f in files] == ["a.py"]


class TestParseErrors:
    def test_syntax_error_becomes_rj000(self):
        findings = analyze_source("def broken(:\n", "src/repro/apps/x.py")
        assert len(findings) == 1
        assert findings[0].rule == PARSE_ERROR_CODE
