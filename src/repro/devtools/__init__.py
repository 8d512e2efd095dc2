"""Project-specific static analysis: the invariant linter ("detlint").

Nine PRs of this repository's history established contracts that generic
linters cannot see: routing must never touch the salted builtin ``hash()``
(PR 3), forest aggregation must accumulate sequentially so batched and
per-window predictions stay bit-identical (PR 3), every wire codec is
explicitly little-endian (PRs 4-7), the telemetry plane must cost one falsy
branch when disabled (PR 8).  ``repro.devtools`` turns those contracts into
named, CI-gated AST rules that fail in seconds instead of flaking in a
four-worker equivalence test.

Usage::

    python -m repro.devtools.lint src/repro            # lint, text report
    python -m repro.devtools.lint --format json src/   # machine-readable
    python -m repro.devtools.lint --list-rules         # rule table

Suppress a single line with a trailing comment naming the rule and --
by convention, enforced in review -- the reason::

    buf = np.frombuffer(seg.buf, ...)  # detlint: disable=CODEC002 -- not wire decoding

The framework lives in :mod:`repro.devtools.framework` (single-pass engine,
rule registry, import tracker, suppressions), the rules in
:mod:`repro.devtools.rules`, the reporters in :mod:`repro.devtools.report`,
and the CLI in :mod:`repro.devtools.lint`.
"""

from repro.devtools.framework import (
    Finding,
    LintContext,
    Rule,
    all_rules,
    lint_file,
    lint_paths,
    lint_source,
    rule,
)
from repro.devtools.report import render_json, render_text

# Importing the rules module registers every rule with the framework.
from repro.devtools import rules as _rules  # noqa: F401

__all__ = [
    "Finding",
    "LintContext",
    "Rule",
    "all_rules",
    "lint_file",
    "lint_paths",
    "lint_source",
    "render_json",
    "render_text",
    "rule",
]
