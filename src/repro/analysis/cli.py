"""``python -m repro lint`` — statically enforce the invariant contracts.

Exit codes: ``0`` when every finding is baselined or pragma-justified,
``1`` when new findings exist (this is what gates CI), ``2`` on usage errors.

Typical workflows::

    python -m repro lint                      # lint src/repro vs the baseline
    python -m repro lint src/repro --json     # CI: machine-readable findings
    python -m repro lint --sarif > lint.sarif # GitHub code-scanning upload
    python -m repro lint --changed            # findings on git-changed files only
    python -m repro lint --explain REP010     # why a rule exists + how to fix
    python -m repro lint --update-baseline    # accept current findings as debt
    python -m repro lint path/to/file.py --no-baseline   # absolute truth

Every run parses each file once.  Whole-program rules (REP010+) always see
the full tree — ``--changed`` narrows the *reported* findings, never the
analysis.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import List, Optional, Set

from ..exceptions import ConfigurationError
from .baseline import DEFAULT_BASELINE, Baseline
from .explain import explain_rule
from .program.registry import default_program_rules
from .report import render_json, render_text
from .sarif import render_sarif
from .walker import analyze_paths, default_rules

#: Default lint target when no paths are given.
DEFAULT_TARGET = "src/repro"

#: Bound on git subprocess calls (they are local and near-instant).
_GIT_TIMEOUT_S = 30


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro lint",
        description="AST-based invariant linter for the repro codebase "
        "(engine-funnel, RNG, clock and serialization contracts, plus "
        "whole-program taint/determinism rules).",
        epilog="Suppress one finding in code with `# repro: allow[rule-id]` "
        "plus a short justification.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=None,
        help=f"files or directories to lint (default: {DEFAULT_TARGET})",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit the JSON report on stdout"
    )
    parser.add_argument(
        "--sarif",
        action="store_true",
        help="emit a SARIF 2.1.0 log on stdout (GitHub code-scanning input)",
    )
    parser.add_argument(
        "--changed",
        nargs="?",
        const="HEAD",
        default=None,
        metavar="REF",
        help="report findings only on files changed vs REF (default HEAD) "
        "plus untracked files; the whole-program graph still covers the "
        "full tree",
    )
    parser.add_argument(
        "--explain",
        metavar="RULE",
        help="print one rule's rationale, example and fix, then exit "
        "(id like REP010 or slug like funnel-escape)",
    )
    parser.add_argument(
        "--baseline",
        default=DEFAULT_BASELINE,
        metavar="PATH",
        help=f"baseline file of accepted findings (default: {DEFAULT_BASELINE})",
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore the baseline: every finding is reported as new",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="accept the current findings: rewrite the baseline and exit 0",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule table and exit"
    )
    return parser


def _list_rules() -> int:
    for rule in default_rules():
        print(f"{rule.rule_id}  {rule.name:<18} {rule.description}")
    for rule in default_program_rules():
        print(f"{rule.rule_id}  {rule.name:<18} {rule.description}  [whole-program]")
    return 0


def _git_changed_files(ref: str) -> Set[str]:
    """Absolute resolved paths of files changed vs ``ref`` plus untracked."""
    def run(*argv: str) -> List[str]:
        proc = subprocess.run(
            list(argv),
            capture_output=True,
            text=True,
            timeout=_GIT_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise ConfigurationError(
                f"{' '.join(argv)} failed: {proc.stderr.strip() or proc.returncode}"
            )
        return [line for line in proc.stdout.splitlines() if line.strip()]

    toplevel = Path(run("git", "rev-parse", "--show-toplevel")[0])
    names = run("git", "diff", "--name-only", ref, "--")
    names += run("git", "ls-files", "--others", "--exclude-standard")
    return {
        (toplevel / name).resolve().as_posix()
        for name in names
        if name.endswith(".py")
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.explain:
        try:
            print(explain_rule(args.explain))
        except ConfigurationError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        return 0
    if args.list_rules:
        return _list_rules()
    if args.no_baseline and args.update_baseline:
        parser.error("--no-baseline and --update-baseline are mutually exclusive")
    if args.json and args.sarif:
        parser.error("--json and --sarif are mutually exclusive")

    paths = args.paths if args.paths else [DEFAULT_TARGET]
    try:
        changed: Optional[Set[str]] = (
            _git_changed_files(args.changed) if args.changed is not None else None
        )
        result = analyze_paths(paths)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if changed is not None:
        # scope the *report* to changed files; the analysis saw the full tree
        result.findings = [
            finding
            for finding in result.findings
            if Path(finding.path).resolve().as_posix() in changed
        ]

    if args.update_baseline:
        Baseline(result.findings).write(args.baseline)
        print(
            f"baseline {args.baseline} updated with "
            f"{len(result.findings)} finding(s) over {result.files_scanned} file(s)"
        )
        return 0

    baseline = Baseline() if args.no_baseline else _load_baseline(args.baseline)
    if baseline is None:
        return 2
    new = [finding for finding in result.findings if not baseline.is_known(finding)]
    baselined = [finding for finding in result.findings if baseline.is_known(finding)]
    stale = baseline.stale_entries(result.findings)

    if args.sarif:
        print(json.dumps(render_sarif(new, baselined), indent=2))
    elif args.json:
        print(json.dumps(render_json(result, new, baselined, stale), indent=2))
    else:
        print(render_text(result, new, baselined, stale))
    return 1 if new else 0


def _load_baseline(path: str) -> Optional[Baseline]:
    try:
        return Baseline.load(Path(path))
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None


__all__ = ["main", "DEFAULT_TARGET"]
