"""Lines-of-code counting (``repro loc``).

Counting rule: non-blank, non-comment lines.  The Table 2 effort study
(``benchmarks/control/loc.py``) counts with the same rule.
"""

from __future__ import annotations


def count_loc_text(text: str, comment_prefixes: tuple[str, ...] = ("#",)) -> int:
    """Non-blank, non-comment lines of ``text``."""
    n = 0
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped:
            continue
        if any(stripped.startswith(p) for p in comment_prefixes):
            continue
        n += 1
    return n
