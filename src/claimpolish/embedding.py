"""Text embedding contract plus a deterministic offline implementation.

Context-similarity metrics and the pairwise ranker both consume
embeddings through the small protocol below, so a neural sentence
encoder can be swapped in without touching either module. The default
is a seeded feature-hashing bag-of-words embedder: fully deterministic
across processes (keyed BLAKE2 digests, not Python's salted ``hash``),
L2-normalized so identical texts always have cosine similarity 1.
"""

from __future__ import annotations

import hashlib
import math
from typing import TYPE_CHECKING, Protocol

from .text import tokenize

if TYPE_CHECKING:
    import numpy as np


class Embedder(Protocol):
    dim: int

    def embed(self, text: str) -> np.ndarray: ...


class HashingEmbedder:
    def __init__(self, dim: int = 256, seed: int = 0):
        if dim < 2:
            raise ValueError("dim must be >= 2")
        self.dim = dim
        self.seed = seed
        # any int: seeds in the int64 range keep their two's-complement bytes
        self._key = (seed % 2**64).to_bytes(8, "little")
        # token -> (slot, sign); the keyed hash is deterministic, so a
        # remembered slot is the one a fresh hash would give
        self._slots: dict[str, tuple[int, float]] = {}

    def _slot(self, token: str) -> tuple[int, float]:
        digest = hashlib.blake2b(token.encode("utf-8"), key=self._key, digest_size=8).digest()
        value = int.from_bytes(digest, "little")
        # low bits pick the slot, one spare bit picks the sign
        index = value % self.dim
        sign = 1.0 if (value >> 32) & 1 else -1.0
        return index, sign

    def embed(self, text: str) -> np.ndarray:
        import numpy as np

        vec = np.zeros(self.dim, dtype=np.float64)
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
