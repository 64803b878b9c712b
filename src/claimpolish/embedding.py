"""The one text embedding: deterministic feature hashing.

Context-similarity metrics, the cosine meaning scorer and the pairwise
ranker all embed with ``HashingEmbedder``: a bag-of-words vector of
``DIM`` slots, fully deterministic across processes (BLAKE2 digests
keyed with ``KEY``, not Python's salted ``hash``), L2-normalized so
identical texts always have cosine similarity 1.
"""

from __future__ import annotations

import hashlib
import math
from typing import TYPE_CHECKING

from .text import tokenize

if TYPE_CHECKING:
    import numpy as np

DIM = 256
KEY = bytes(8)  # the BLAKE2 key; an unkeyed hash gives other slots


class HashingEmbedder:
    def __init__(self):
        # token -> (slot, sign); the keyed hash is deterministic, so a
        # remembered slot is the one a fresh hash would give
        self._slots: dict[str, tuple[int, float]] = {}

    def _slot(self, token: str) -> tuple[int, float]:
        digest = hashlib.blake2b(token.encode("utf-8"), key=KEY, digest_size=8).digest()
        value = int.from_bytes(digest, "little")
        # low bits pick the slot, one spare bit picks the sign
        index = value % DIM
        sign = 1.0 if (value >> 32) & 1 else -1.0
        return index, sign

    def embed(self, text: str) -> np.ndarray:
        import numpy as np

        vec = np.zeros(DIM, dtype=np.float64)
        slots = self._slots
        for token in tokenize(text):
            slot = slots.get(token)
            if slot is None:
                slot = slots[token] = self._slot(token)
            vec[slot[0]] += slot[1]
        norm = _norm(vec)
        if norm > 0:
            vec /= norm
        return vec


def _norm(v: np.ndarray) -> float:
    """The L2 norm of a 1-D float vector: ``np.linalg.norm``'s own path for
    one, ``sqrt(v . v)``, without its argument checks, so the same bits."""
    return math.sqrt(v.dot(v))


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity, defined as 0.0 when either vector is all zeros."""
    na = _norm(a)
    nb = _norm(b)
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(a.dot(b)) / (na * nb)


def unit_cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity mapped from [-1, 1] onto [0, 1] by (s + 1) / 2."""
    return (min(max(cosine(a, b), -1.0), 1.0) + 1.0) / 2.0
