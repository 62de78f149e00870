"""Tokenizer for the C-Saw concrete syntax.

The concrete syntax is an ASCII rendering of the paper's mathematical
notation (see DESIGN.md).  Comments run from ``#`` to end of line and
may hold any character; everywhere else a non-ASCII character is a
:class:`ParseError` (``str.isalpha``/``isdigit`` would admit ``é`` or
``²``).
"""

from __future__ import annotations

import string
from dataclasses import dataclass

from .errors import ParseError

KEYWORDS = frozenset(
    {
        "instance_types",
        "instances",
        "def",
        "main",
        "init",
        "prop",
        "data",
        "guard",
        "set",
        "subset",
        "idx",
        "of",
        "for",
        "in",
        "host",
        "skip",
        "return",
        "retry",
        "break",
        "next",
        "reconsider",
        "write",
        "save",
        "restore",
        "wait",
        "assert",
        "retract",
        "keep",
        "verify",
        "start",
        "stop",
        "case",
        "otherwise",
        "if",
        "then",
        "else",
        "false",
        "true",
    }
)

#: Multi-character punctuation, longest first (order matters).
_PUNCT = [
    "<|",
    "|>",
    "||",
    "&&",
    "->",
    "=>",
    "::",
    "...",
    "(",
    ")",
    "{",
    "}",
    "[",
    "]",
    ",",
    ":",
    ";",
    "+",
    "!",
    "=",
    "@",
    "|",
    "*",
    "/",
    "-",
]
# ``...`` must outrank nothing else; sort by length descending for safety.
_PUNCT.sort(key=len, reverse=True)

_DIGITS = frozenset(string.digits)
_IDENT_START = frozenset(string.ascii_letters + "_")
_IDENT_CHARS = _IDENT_START | _DIGITS


@dataclass(frozen=True)
class Token:
    """A lexical token.

    ``kind`` is one of ``'ident'``, ``'number'``, ``'punct'``,
    ``'keyword'``, ``'eof'``.  ``value`` is the lexeme (for numbers, the
    parsed float is in ``num``).
    """

    kind: str
    value: str
    line: int
    column: int
    num: float | None = None

    def is_punct(self, *values: str) -> bool:
        return self.kind == "punct" and self.value in values

    def is_kw(self, *values: str) -> bool:
        return self.kind == "keyword" and self.value in values

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Token({self.kind}, {self.value!r}, {self.line}:{self.column})"


def tokenize(text: str) -> list[Token]:
    """Tokenize ``text``; raises :class:`ParseError` on bad input."""
    tokens: list[Token] = []
    i = 0
    line = 1
    col = 1
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch in _IDENT_START:
            j = i
            while j < n and text[j] in _IDENT_CHARS:
                j += 1
            word = text[i:j]
            kind = "keyword" if word in KEYWORDS else "ident"
            tokens.append(Token(kind, word, line, col))
            col += j - i
            i = j
            continue
        if ch in _DIGITS:
            j = i
            while j < n and text[j] in _DIGITS:
                j += 1
            if j < n and text[j] == "." and j + 1 < n and text[j + 1] in _DIGITS:
                j += 1
                while j < n and text[j] in _DIGITS:
                    j += 1
            word = text[i:j]
            tokens.append(Token("number", word, line, col, num=float(word)))
            col += j - i
            i = j
            continue
        for p in _PUNCT:
            if text.startswith(p, i):
                tokens.append(Token("punct", p, line, col))
                i += len(p)
                col += len(p)
                break
        else:
            raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token("eof", "", line, col))
    return tokens
