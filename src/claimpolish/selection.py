"""Choosing one rewrite from a candidate set.

Strategies range from trivial baselines (keep the source, take the
greedy decode, pick at random) through per-component argmaxes to the
weighted combined score and a trained pairwise ranker. ``score_columns``
computes each instance's decision columns once; ``select`` only picks.
All argmax strategies break ties toward the lowest candidate position,
so results are deterministic and invariant under strictly increasing
transforms of the decision score.
"""

from __future__ import annotations

import enum
import functools
import math
import random
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from .embedding import DIM, KEY, HashingEmbedder
from .genkit import Candidate
from .ndjson import read_json, write_json
from .pcg64 import PCG64
from .scoring import ScoreVector, Weights, autoscore

if TYPE_CHECKING:
    import numpy as np


class Strategy(enum.Enum):
    UNEDITED = "unedited"
    TOP1 = "top1"
    RANDOM = "random"
    MAX_FLUENCY = "max_fluency"
    MAX_ARGUMENT = "max_argument"
    MAX_MEANING = "max_meaning"
    AUTOSCORE = "autoscore"
    PAIRWISE_RANK = "pairwise_rank"


@dataclass(eq=False)
class PairwiseRanker:
    """A linear scorer of embedded texts. Its weights are Python floats, so
    a ranker is trained, saved, loaded and sent between processes without
    numpy; their array is built where the ranker first scores."""

    embedder: HashingEmbedder
    weight_vector: tuple[float, ...]
    training_meta: dict

    @functools.cached_property
    def _weights(self) -> np.ndarray:
        import numpy as np

        return np.asarray(self.weight_vector, dtype=np.float64)

    def score_text(self, text: str) -> float:
        return float(self._weights @ self.embedder.embed(text))


# the column of score_columns that each argmax strategy maximizes
COLUMNS = {
    Strategy.MAX_FLUENCY: "fluency",
    Strategy.MAX_MEANING: "meaning",
    Strategy.MAX_ARGUMENT: "argument",
    Strategy.AUTOSCORE: "autoscore",
    Strategy.PAIRWISE_RANK: "ranker",
}


def score_columns(
    candidates: Sequence[Candidate],
    scores: Sequence[ScoreVector],
    weights: Weights,
    ranker: PairwiseRanker | None = None,
) -> dict[str, list[float]]:
    """One instance's decision columns, each aligned with ``candidates``:
    the three score axes, their ``autoscore`` and, given a ranker, its
    ``ranker`` scores. ``scores`` must align one-to-one with ``candidates``."""
    if len(scores) != len(candidates):
        raise ValueError(f"{len(scores)} scores for {len(candidates)} candidates")
    columns = {
        "fluency": [v.fluency for v in scores],
        "meaning": [v.meaning for v in scores],
        "argument": [v.argument for v in scores],
        "autoscore": [autoscore(v, weights) for v in scores],
    }
    if ranker is not None:
        columns["ranker"] = [ranker.score_text(c.text) for c in candidates]
    return columns


def _argmax(values: Sequence[float]) -> int:
    """Index of the maximum; the first (lowest-index) one on exact ties."""
    best = 0
    for i in range(1, len(values)):
        if values[i] > values[best]:
            best = i
    return best


def select(
    strategy: Strategy,
    candidates: Sequence[Candidate],
    columns: dict[str, list[float]],
    seed: int | None = None,
) -> int:
    """The candidate one strategy picks, as a position in ``candidates``.

    The position counts the (deduped) candidates as given. ``unedited``
    keeps the source and returns -1. The argmax strategies read their
    column of ``columns`` (see ``COLUMNS`` and ``score_columns``).
    """
    if not candidates:
        raise ValueError("empty candidate set")
    if not isinstance(strategy, Strategy):
        raise ValueError(f"unknown strategy {strategy!r}")
    if strategy is Strategy.UNEDITED:
        return -1
    if strategy is Strategy.RANDOM:
        if seed is None:
            raise ValueError("random strategy needs a seed")
        return random.Random(seed).randrange(len(candidates))
    if strategy is Strategy.TOP1:
        for position, candidate in enumerate(candidates):
            if candidate.origin.kind == "greedy":
                return position
        raise ValueError("no greedy-origin candidate in the set")
    name = COLUMNS[strategy]
    if name not in columns:
        raise ValueError(f"{strategy.value} strategy needs the {name!r} column")
    return _argmax(columns[name])


# ---------------------------------------------------------------------------
# pairwise ranker

# the ranker's training settings; training_meta records them in ranker.json
EPOCHS = 20
LEARNING_RATE = 0.1
L2 = 1e-4
MARGIN = 1.0


def train_pairwise_ranker(
    training_pairs: Sequence[tuple[str, str]], embedder: HashingEmbedder, seed: int = 0
) -> PairwiseRanker:
    """Fit a linear scoring function from (worse, better) text pairs.

    Margin objective on embedding differences: for each pair we want
    ``w . embed(better) - w . embed(worse) >= margin``, optimized by
    seeded stochastic subgradient descent with L2 regularization. A
    pair whose two sides are identical has zero margin by construction
    and is rejected up front.
    """
    if not training_pairs:
        raise ValueError("no training pairs")
    for i, (worse, better) in enumerate(training_pairs):
        if worse == better:
            raise ValueError(f"training pair {i} is a zero-margin duplicate: {worse!r}")

    import numpy as np

    # filled row by row, so one n x DIM matrix is all that is alive
    diffs = np.empty((len(training_pairs), DIM))
    for row, (worse, better) in zip(diffs, training_pairs):
        np.subtract(embedder.embed(better), embedder.embed(worse), out=row)
    rng = PCG64(seed)
    w = np.zeros(DIM, dtype=np.float64)
    order = list(range(len(diffs)))
    for _ in range(EPOCHS):
        rng.shuffle(order)
        for idx in order:
            d = diffs[idx]
            if MARGIN - float(w @ d) > 0.0:
                w = w + LEARNING_RATE * d
            w = w - LEARNING_RATE * 2.0 * L2 * w

    violations = int(np.sum(diffs @ w < 0.0))
    meta = {
        "epochs": EPOCHS,
        "learning_rate": LEARNING_RATE,
        "l2": L2,
        "margin": MARGIN,
        "seed": seed,
        "n_pairs": len(training_pairs),
        "train_violations": violations,
    }
    return PairwiseRanker(embedder=embedder, weight_vector=tuple(w.tolist()), training_meta=meta)


# the one embedder a ranker.json names: HashingEmbedder, whose key is the seed's bytes
EMBEDDER = {"dim": DIM, "kind": "hashing", "seed": int.from_bytes(KEY, "little")}


def save_ranker(path: str | Path, ranker: PairwiseRanker) -> None:
    payload = {
        "weight_vector": list(ranker.weight_vector),
        "embedder": EMBEDDER,
        "training_meta": ranker.training_meta,
    }
    write_json(path, payload)


def load_ranker(path: str | Path, embedder: HashingEmbedder) -> PairwiseRanker:
    """The ranker ``path`` holds, scoring with ``embedder``."""

    def parse(payload: dict) -> PairwiseRanker:
        emb = payload["embedder"]
        # by type too: 256.0 == 256 and False == 0 hold in Python
        if emb != EMBEDDER or any(type(emb[k]) is not type(v) for k, v in EMBEDDER.items()):
            raise ValueError(f"'embedder' must be {EMBEDDER}, got {emb!r}")
        if not isinstance(payload.get("training_meta", {}), dict):
            raise ValueError("'training_meta' must be an object")
        if not isinstance(payload["weight_vector"], list):
            raise ValueError("'weight_vector' must be a list")
        for value in payload["weight_vector"]:
            if type(value) not in (int, float) or not math.isfinite(value):
                raise ValueError(
                    f"'weight_vector' must be a list of finite numbers, got {value!r}"
                )
        if len(payload["weight_vector"]) != DIM:
            raise ValueError(f"'weight_vector' must hold {DIM} numbers")
        return PairwiseRanker(
            embedder=embedder,
            weight_vector=tuple(float(value) for value in payload["weight_vector"]),
            training_meta=dict(payload.get("training_meta", {})),
        )

    return read_json(path, parse, required=("weight_vector", "embedder"))
