"""Inline suppression pragmas: ``# repro: allow[rule-id]``.

A pragma acknowledges one specific violation where the code is *intentionally*
outside a contract — e.g. the gradient attack reads the raw model because the
paper's whitebox baseline is defined that way.  The pragma should always ride
with a short justification comment so the next reader knows why:

    gradient = model.loss_input_gradient(x, y)  # repro: allow[engine-funnel] whitebox by design

Rules are named by id (``REP001``) or slug (``engine-funnel``); several may be
listed comma-separated, and ``allow[*]`` suppresses every rule.  A pragma on a
comment-only line applies to the next line that contains code, so long
justifications can sit above the statement they bless.
"""

from __future__ import annotations

import io
import re
import tokenize
from typing import Dict, Set

#: Matches the pragma anywhere inside a comment token.
PRAGMA_PATTERN = re.compile(r"#\s*repro:\s*allow\[([^\]]*)\]")


def _parse_ids(raw: str) -> Set[str]:
    return {part.strip().lower() for part in raw.split(",") if part.strip()}


def collect_pragmas(source: str) -> Dict[int, Set[str]]:
    """Map line number -> set of allowed rule ids/slugs (lower-cased).

    Comments are found with :mod:`tokenize` so pragmas inside string literals
    are never misread; on tokenization failure (the file will produce a parse
    finding anyway) a conservative per-line regex scan is used instead.
    """
    # every comment token is a substring of the source, so a source with no
    # match anywhere has no pragma and needs no tokenizing
    if PRAGMA_PATTERN.search(source) is None:
        return {}
    lines = source.splitlines()
    comment_hits = []  # (line, ids, standalone)
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            match = PRAGMA_PATTERN.search(token.string)
            if match is None:
                continue
            line = token.start[0]
            text = lines[line - 1] if line <= len(lines) else ""
            standalone = text.lstrip().startswith("#")
            comment_hits.append((line, _parse_ids(match.group(1)), standalone))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        for index, text in enumerate(lines, start=1):
            match = PRAGMA_PATTERN.search(text)
            if match is not None:
                comment_hits.append(
                    (index, _parse_ids(match.group(1)), text.lstrip().startswith("#"))
                )

    pragmas: Dict[int, Set[str]] = {}
    for line, ids, standalone in comment_hits:
        target = line
        if standalone:
            # a comment-only pragma blesses the next line holding code
            cursor = line + 1
            while cursor <= len(lines):
                stripped = lines[cursor - 1].strip()
                if stripped and not stripped.startswith("#"):
                    target = cursor
                    break
                cursor += 1
        pragmas.setdefault(target, set()).update(ids)
    return pragmas


def is_suppressed(pragmas: Dict[int, Set[str]], line: int, rule_id: str, name: str) -> bool:
    """Whether a finding of ``rule_id``/``name`` on ``line`` is pragma-allowed."""
    allowed = pragmas.get(line)
    if not allowed:
        return False
    return "*" in allowed or rule_id.lower() in allowed or name.lower() in allowed


def expand_decorated_pragmas(tree, pragmas: Dict[int, Set[str]]) -> Dict[int, Set[str]]:
    """Attach pragmas to the whole decorated statement span.

    Decorators split one logical statement across several lines: a rule may
    report at the ``def``/``class`` line while the pragma the author wrote
    sits on (or blesses, via the standalone-comment form) the first
    ``@decorator`` line — or vice versa.  Treat the span from the first
    decorator through the ``def`` line as one statement: pragma ids found on
    any line of the span apply to every line of the span.
    """
    import ast

    if not pragmas:
        return pragmas
    expanded = {line: set(ids) for line, ids in pragmas.items()}
    for node in ast.walk(tree):
        decorators = getattr(node, "decorator_list", None)
        if not decorators:
            continue
        span_start = min(dec.lineno for dec in decorators)
        span_end = node.lineno  # the `def`/`class` line itself
        ids: Set[str] = set()
        for line in range(span_start, span_end + 1):
            ids |= pragmas.get(line, set())
        if not ids:
            continue
        for line in range(span_start, span_end + 1):
            expanded.setdefault(line, set()).update(ids)
    return expanded


__all__ = [
    "PRAGMA_PATTERN",
    "collect_pragmas",
    "expand_decorated_pragmas",
    "is_suppressed",
]

