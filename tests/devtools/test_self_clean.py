"""The shipped tree is detlint-clean: the tier-1 invariant gate.

This is the test that turns nine PRs of contracts into a commit gate: any
change that calls builtin ``hash()`` on repro code, drops an obs guard in a
hot-path module, writes a byte-order-implicit dtype into a codec, or
unfreezes a public config fails here, in seconds, with the rule's name and
rationale -- instead of flaking later in a 4-worker equivalence test.
"""

from __future__ import annotations

from pathlib import Path

from repro.devtools import lint_paths, render_text
from repro.devtools.framework import all_rules

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src" / "repro"


def test_src_repro_is_detlint_clean():
    result = lint_paths([SRC])
    assert result.files_checked > 50, "linted suspiciously few files -- wrong root?"
    assert result.findings == [], "\n" + render_text(result)


def test_suppressions_stay_rare():
    """Suppressions are reasoned exceptions, not an escape hatch.

    If this ceiling is hit legitimately, raise it in the same commit that
    adds the suppression -- the diff review is the point of the ceiling.
    """
    result = lint_paths([SRC])
    assert result.suppressed <= 5


def test_at_least_ten_rules_registered():
    assert len(all_rules()) >= 10
