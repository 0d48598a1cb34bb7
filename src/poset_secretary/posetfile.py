"""Plain-text poset documents.

Format: a header line ``poset n=<N>`` followed by relation lines
``<a> < <b>`` with zero-based indices; ``#`` starts a comment anywhere on a
line.  Any generating relation is accepted (the constructor closes it); the
writer emits the transitive reduction so files stay minimal and readable.
"""

from __future__ import annotations

import re

from .errors import PosetFileError
from .posets import Poset, from_relations, transitive_reduction

__all__ = ["parse_poset_relations", "parse_poset_text", "format_poset_text"]

_HEADER = re.compile(r"^poset\s+n=(\d+)$")
_RELATION = re.compile(r"^(\d+)\s*<\s*(\d+)$")


def parse_poset_relations(text: str) -> tuple[int, list[tuple[int, int]]]:
    """The header's n and the relation pairs of a poset document, nothing built.

    Syntax problems raise PosetFileError; indices are checked when the pairs
    are built into a poset.
    """
    n = None
    pairs: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if n is None:
            m = _HEADER.match(line)
            if not m:
                raise PosetFileError(f"line {lineno}: expected 'poset n=<N>' header, got {raw!r}")
            n = int(m.group(1))
            continue
        m = _RELATION.match(line)
        if not m:
            raise PosetFileError(f"line {lineno}: expected '<a> < <b>', got {raw!r}")
        pairs.append((int(m.group(1)), int(m.group(2))))
    if n is None:
        raise PosetFileError("missing 'poset n=<N>' header")
    return n, pairs


def parse_poset_text(text: str) -> Poset:
    """Parse a poset document; syntax problems raise PosetFileError."""
    return from_relations(*parse_poset_relations(text))


def format_poset_text(p: Poset) -> str:
    """Write a poset as its cover relations; round-trips through the parser."""
    lines = [f"poset n={p.n}"]
    lines.extend(f"{a} < {b}" for a, b in transitive_reduction(p))
    return "\n".join(lines) + "\n"
