"""Shared text normalization helpers.

Every lexical metric and heuristic scorer in this package tokenizes the
same way so that scores stay comparable across modules: lowercase the
text, split punctuation into separate tokens, and split on whitespace.
"""

from __future__ import annotations

import re

_TOKEN_RE = re.compile(r"\w+|[^\w\s]", re.UNICODE)
_SPACE_RE = re.compile(r"\s+")


def tokenize(text: str) -> list[str]:
    """Lowercase and split into word and punctuation tokens.

    >>> tokenize("It's good.")
    ['it', "'", 's', 'good', '.']
    """
    return _TOKEN_RE.findall(text.lower())


def normalize_whitespace(text: str) -> str:
    """Collapse runs of whitespace to single spaces and trim the ends."""
    return _SPACE_RE.sub(" ", text).strip()
