"""Choosing one rewrite from a candidate set.

Strategies range from trivial baselines (keep the source, take the
greedy decode, pick at random) through per-component argmaxes to the
weighted combined score and a trained pairwise ranker. All argmax
strategies break ties toward the lowest candidate index, so results
are deterministic and invariant under strictly increasing transforms
of the decision score.
"""

from __future__ import annotations

import enum
import random
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .embedding import Embedder, HashingEmbedder
from .genkit import Candidate, CandidateSet
from .ndjson import read_json, write_json
from .scoring import ScoreVector, Weights, autoscore


class Strategy(enum.Enum):
    UNEDITED = "unedited"
    TOP1 = "top1"
    RANDOM = "random"
    MAX_FLUENCY = "max_fluency"
    MAX_ARGUMENT = "max_argument"
    MAX_MEANING = "max_meaning"
    AUTOSCORE = "autoscore"
    PAIRWISE_RANK = "pairwise_rank"


@dataclass(frozen=True)
class SelectionResult:
    chosen: Candidate
    strategy: Strategy
    per_candidate_scores: tuple[tuple[Candidate, ScoreVector, float | None], ...]
    edited: bool


@dataclass(frozen=True)
class RankerHyperparams:
    epochs: int = 20
    learning_rate: float = 0.1
    l2: float = 1e-4
    margin: float = 1.0
    seed: int = 0


@dataclass(eq=False)
class PairwiseRanker:
    embedder: Embedder
    weight_vector: np.ndarray
    training_meta: dict

    def score_text(self, text: str) -> float:
        return float(self.weight_vector @ self.embedder.embed(text))


# score-vector component that each per-axis strategy maximizes
_AXES = {
    Strategy.MAX_FLUENCY: "fluency",
    Strategy.MAX_MEANING: "meaning",
    Strategy.MAX_ARGUMENT: "argument",
}


def _argmax(values: Sequence[float]) -> int:
    """Index of the maximum; the first (lowest-index) one on exact ties."""
    best = 0
    for i in range(1, len(values)):
        if values[i] > values[best]:
            best = i
    return best


def select(
    strategy: Strategy,
    source: str,
    candidate_set: CandidateSet,
    scores: Sequence[ScoreVector],
    weights: Weights | None = None,
    ranker: PairwiseRanker | None = None,
    seed: int | None = None,
) -> SelectionResult:
    """Apply one selection strategy to a scored candidate set.

    ``scores`` must align one-to-one with the set's candidates. The
    unedited strategy returns a synthetic candidate wrapping the source
    text; every other strategy returns a member of the set.
    """
    candidates = candidate_set.candidates
    if not candidates:
        raise ValueError("empty candidate set")
    if len(scores) != len(candidates):
        raise ValueError(f"{len(scores)} scores for {len(candidates)} candidates")
    if not isinstance(strategy, Strategy):
        raise ValueError(f"unknown strategy {strategy!r}")

    # decision scores: what an argmax strategy ranks by; the other
    # strategies record the weighted score when weights are given
    combined: list[float | None]
    if strategy is Strategy.PAIRWISE_RANK:
        if ranker is None:
            raise ValueError("pairwise_rank strategy needs a trained ranker")
        combined = [ranker.score_text(c.text) for c in candidates]
    elif strategy in _AXES:
        combined = [getattr(v, _AXES[strategy]) for v in scores]
    elif strategy is Strategy.AUTOSCORE and weights is None:
        raise ValueError("autoscore strategy needs weights")
    else:
        combined = [autoscore(v, weights) for v in scores] if weights else [None] * len(scores)

    if strategy is Strategy.RANDOM:
        if seed is None:
            raise ValueError("random strategy needs a seed")
        chosen = candidates[random.Random(seed).randrange(len(candidates))]
    elif strategy is Strategy.TOP1:
        greedy = [c for c in candidates if c.origin is not None and c.origin.kind == "greedy"]
        if not greedy:
            raise ValueError("no greedy-origin candidate in the set")
        chosen = greedy[0]
    elif strategy is Strategy.UNEDITED:
        chosen = Candidate(text=source, origin=None, index=-1)
    else:
        chosen = candidates[_argmax(combined)]

    return SelectionResult(
        chosen=chosen,
        strategy=strategy,
        per_candidate_scores=tuple(zip(candidates, scores, combined)),
        edited=chosen.text != source,
    )


# ---------------------------------------------------------------------------
# pairwise ranker

def train_pairwise_ranker(
    training_pairs: Sequence[tuple[str, str]],
    embedder: Embedder,
    hyperparams: RankerHyperparams = RankerHyperparams(),
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

    diffs = np.stack(
        [embedder.embed(better) - embedder.embed(worse) for worse, better in training_pairs]
    )
    rng = np.random.default_rng(hyperparams.seed)
    w = np.zeros(embedder.dim, dtype=np.float64)
    order = np.arange(len(diffs))
    for _ in range(hyperparams.epochs):
        rng.shuffle(order)
        for idx in order:
            d = diffs[idx]
            if hyperparams.margin - float(w @ d) > 0.0:
                w = w + hyperparams.learning_rate * d
            w = w - hyperparams.learning_rate * 2.0 * hyperparams.l2 * w

    violations = int(np.sum(diffs @ w < 0.0))
    meta = {
        "epochs": hyperparams.epochs,
        "learning_rate": hyperparams.learning_rate,
        "l2": hyperparams.l2,
        "margin": hyperparams.margin,
        "seed": hyperparams.seed,
        "n_pairs": len(training_pairs),
        "train_violations": violations,
    }
    return PairwiseRanker(embedder=embedder, weight_vector=w, training_meta=meta)


def save_ranker(path: str | Path, ranker: PairwiseRanker) -> None:
    if not isinstance(ranker.embedder, HashingEmbedder):
        raise ValueError("only hashing embedders can be persisted")
    payload = {
        "weight_vector": [float(x) for x in ranker.weight_vector],
        "embedder": {
            "kind": "hashing",
            "dim": ranker.embedder.dim,
            "seed": ranker.embedder.seed,
        },
        "training_meta": ranker.training_meta,
    }
    write_json(path, payload)


def load_ranker(path: str | Path) -> PairwiseRanker:
    def parse(payload: dict) -> PairwiseRanker:
        for key in ("embedder", "training_meta"):
            if not isinstance(payload.get(key, {}), dict):
                raise ValueError(f"{key!r} must be an object")
        emb = payload.get("embedder", {})
        if emb.get("kind") != "hashing":
            raise ValueError(f"unsupported embedder kind {emb.get('kind')!r}")
        for key in ("dim", "seed"):
            if key not in emb:
                raise ValueError(f"missing key 'embedder.{key}'")
            if type(emb[key]) is not int:
                raise ValueError(f"'embedder.{key}' must be an integer, got {emb[key]!r}")
        if not isinstance(payload["weight_vector"], list):
            raise ValueError("'weight_vector' must be a list")
        embedder = HashingEmbedder(dim=emb["dim"], seed=emb["seed"])
        weight_vector = np.asarray(payload["weight_vector"], dtype=np.float64)
        if weight_vector.shape != (embedder.dim,):
            raise ValueError("weight vector length does not match embedder dim")
        return PairwiseRanker(
            embedder=embedder,
            weight_vector=weight_vector,
            training_meta=dict(payload.get("training_meta", {})),
        )

    return read_json(path, parse, required=("weight_vector",))


# ---------------------------------------------------------------------------
# persistence of selection rows

def selection_to_record(pair_id: str, result: SelectionResult) -> dict:
    return {
        "pair_id": pair_id,
        "strategy": result.strategy.value,
        "chosen": result.chosen.text,
        "edited": result.edited,
        "scores": [
            {
                "text": cand.text,
                "fluency": vec.fluency,
                "meaning": vec.meaning,
                "argument": vec.argument,
                "combined": comb,
            }
            for cand, vec, comb in result.per_candidate_scores
        ],
    }
