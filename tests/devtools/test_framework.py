"""The lint framework itself: suppressions, reporters, CLI exit codes.

The contracts here are what CI and the editor integration lean on: the
JSON schema is versioned, suppression comments are real comments only,
naming a nonexistent rule in a suppression is an error, and the CLI exits
0 (clean) / 1 (findings) / 2 (usage error).
"""

from __future__ import annotations

import json
import subprocess
import sys
import textwrap
from pathlib import Path

from repro.devtools import lint_source, render_json, render_text
from repro.devtools.framework import (
    PARSE_ERROR,
    UNKNOWN_SUPPRESSION,
    lint_paths,
    parse_suppressions,
)
from repro.devtools.lint import main
from repro.devtools.report import JSON_SCHEMA_VERSION, render_rule_table

REPO_ROOT = Path(__file__).resolve().parents[2]

CLEAN = "x = 1\n"
DIRTY = textwrap.dedent(
    """
    def route(key, n):
        return hash(key) % n
    """
)


# -- suppression parsing -------------------------------------------------------


def test_parse_suppressions_basic_and_multi():
    source = "a = 1  # detlint: disable=DET001\nb = 2  # detlint: disable=DET001, CODEC002 -- reason\n"
    assert parse_suppressions(source) == {1: {"DET001"}, 2: {"DET001", "CODEC002"}}


def test_parse_suppressions_ignores_strings_and_docstrings():
    source = textwrap.dedent(
        '''
        def f():
            """Docs may show  # detlint: disable=DET001  without suppressing."""
            return "# detlint: disable=DET001"
        '''
    )
    assert parse_suppressions(source) == {}


def test_suppression_of_other_rule_does_not_silence():
    source = DIRTY.replace("return hash(key) % n", "return hash(key) % n  # detlint: disable=EXC001")
    result = lint_source(source, select=("DET001",))
    assert [finding.rule for finding in result.findings] == ["DET001"]
    assert result.suppressed == 0


def test_unknown_rule_suppression_is_an_error():
    result = lint_source("x = 1  # detlint: disable=NOPE999\n")
    assert [finding.rule for finding in result.findings] == [UNKNOWN_SUPPRESSION]
    assert "NOPE999" in result.findings[0].message


def test_unknown_rule_error_fires_even_next_to_a_valid_one():
    source = DIRTY.replace(
        "return hash(key) % n", "return hash(key) % n  # detlint: disable=DET001,NOPE999"
    )
    result = lint_source(source, select=("DET001",))
    # The DET001 finding is suppressed; the typo'd name still errors.
    assert [finding.rule for finding in result.findings] == [UNKNOWN_SUPPRESSION]
    assert result.suppressed == 1


def test_framework_codes_are_not_suppressible():
    result = lint_source("x = 1  # detlint: disable=LINT002\n")
    assert [finding.rule for finding in result.findings] == [UNKNOWN_SUPPRESSION]


def test_parse_error_is_a_finding():
    result = lint_source("def broken(:\n", path="oops.py")
    assert [finding.rule for finding in result.findings] == [PARSE_ERROR]
    assert result.findings[0].path == "oops.py"


# -- reporters -----------------------------------------------------------------


def test_text_report_format():
    result = lint_source(DIRTY, path="pkg/mod.py", select=("DET001",))
    text = render_text(result)
    lines = text.splitlines()
    assert lines[0].startswith("pkg/mod.py:3:")
    assert "DET001" in lines[0]
    assert lines[-1] == "1 finding in 1 files (0 suppressed)"


def test_json_report_schema():
    result = lint_source(DIRTY, path="pkg/mod.py", select=("DET001",))
    payload = json.loads(render_json(result))
    assert payload["version"] == JSON_SCHEMA_VERSION
    assert payload["files_checked"] == 1
    assert payload["suppressed"] == 0
    assert payload["counts"] == {"DET001": 1}
    (finding,) = payload["findings"]
    assert set(finding) == {"path", "line", "col", "rule", "message"}
    assert finding["path"] == "pkg/mod.py"
    assert finding["rule"] == "DET001"
    assert isinstance(finding["line"], int) and isinstance(finding["col"], int)


def test_json_report_clean_run():
    payload = json.loads(render_json(lint_source(CLEAN)))
    assert payload["findings"] == []
    assert payload["counts"] == {}


def test_rule_table_lists_every_rule_with_rationale():
    table = render_rule_table()
    for rule_id in ("DET001", "DET002", "DET003", "DET004", "CODEC001",
                    "CODEC002", "SPAWN001", "OBS001", "EXC001", "API001", "API002"):  # fmt: skip
        assert rule_id in table


# -- directory walking ---------------------------------------------------------


def test_lint_paths_walks_directories_and_skips_pycache(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "good.py").write_text(CLEAN)
    (tmp_path / "pkg" / "__pycache__").mkdir()
    (tmp_path / "pkg" / "__pycache__" / "junk.py").write_text("def broken(:\n")
    result = lint_paths([tmp_path])
    assert result.files_checked == 1
    assert result.findings == []


# -- CLI exit codes ------------------------------------------------------------


def test_cli_exit_0_on_clean_tree(tmp_path, capsys):
    target = tmp_path / "clean.py"
    target.write_text(CLEAN)
    assert main([str(target)]) == 0
    assert "0 findings" in capsys.readouterr().out


def test_cli_exit_1_on_findings(tmp_path, capsys):
    target = tmp_path / "dirty.py"
    target.write_text(DIRTY)
    assert main([str(target), "--select", "DET001"]) == 1
    out = capsys.readouterr().out
    assert "DET001" in out


def test_cli_exit_2_on_unknown_select_rule(tmp_path, capsys):
    target = tmp_path / "clean.py"
    target.write_text(CLEAN)
    assert main([str(target), "--select", "NOPE999"]) == 2
    assert "NOPE999" in capsys.readouterr().err


def test_cli_exit_2_on_missing_path(capsys):
    assert main(["definitely/not/a/path.py"]) == 2
    assert "no such path" in capsys.readouterr().err


def test_cli_exit_2_on_bad_flag(capsys):
    assert main(["--format", "yaml"]) == 2


def test_cli_json_output_file(tmp_path, capsys):
    target = tmp_path / "dirty.py"
    target.write_text(DIRTY)
    report = tmp_path / "report.json"
    code = main([str(target), "--select", "DET001", "--format", "json", "--output", str(report)])
    assert code == 1
    payload = json.loads(report.read_text())
    assert payload["counts"] == {"DET001": 1}
    assert capsys.readouterr().out == ""


def test_cli_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    assert "DET001" in capsys.readouterr().out


def test_cli_module_invocation_matches_contract(tmp_path):
    """``python -m repro.devtools.lint`` is the documented entry point."""
    target = tmp_path / "dirty.py"
    target.write_text(DIRTY)
    env_src = str(REPO_ROOT / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "repro.devtools.lint", str(target), "--select", "DET001"],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": env_src, "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 1
    assert "DET001" in proc.stdout
