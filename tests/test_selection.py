import json
import random

import numpy as np
import pytest

from claimpolish.embedding import HashingEmbedder
from claimpolish.genkit import Candidate, GREEDY, TOPK
from claimpolish.scoring import DEFAULT_WEIGHTS, ScoreVector, Weights
from claimpolish.selection import (
    Strategy,
    load_ranker,
    save_ranker,
    score_columns,
    select,
    train_pairwise_ranker,
)


def build_set(texts, first_greedy=True):
    cands = []
    for i, text in enumerate(texts):
        origin = GREEDY if (i == 0 and first_greedy) else TOPK(5 * max(i, 1))
        cands.append(Candidate(text=text, origin=origin))
    return tuple(cands)


def vectors(*triples):
    return [ScoreVector(*t) for t in triples]


CANDS = build_set(["alpha text", "bravo text", "charlie text"])
SCORES = vectors((0.9, 0.2, 0.1), (0.3, 0.8, 0.5), (0.5, 0.5, 0.9))
COLUMNS = score_columns(CANDS, SCORES, DEFAULT_WEIGHTS)


# ---------------------------------------------------------------------------
# per-strategy behavior


def test_unedited_returns_source_unmodified():
    # -1 stands for the source itself; no candidate is chosen
    assert select(Strategy.UNEDITED, CANDS, COLUMNS) == -1


def test_top1_returns_first_greedy_candidate():
    assert select(Strategy.TOP1, CANDS, COLUMNS) == 0
    # the first greedy candidate, wherever it stands
    cands = (Candidate("x", TOPK(5)), Candidate("y", GREEDY), Candidate("z", GREEDY))
    assert select(Strategy.TOP1, cands, {}) == 1


def test_top1_without_greedy_candidate_raises():
    cands = build_set(["a", "b"], first_greedy=False)
    with pytest.raises(ValueError):
        select(Strategy.TOP1, cands, score_columns(cands, SCORES[:2], DEFAULT_WEIGHTS))


def test_component_argmaxes():
    assert CANDS[select(Strategy.MAX_FLUENCY, CANDS, COLUMNS)].text == "alpha text"
    assert CANDS[select(Strategy.MAX_MEANING, CANDS, COLUMNS)].text == "bravo text"
    assert CANDS[select(Strategy.MAX_ARGUMENT, CANDS, COLUMNS)].text == "charlie text"


def test_autoscore_picks_weighted_argmax():
    combos = [
        0.43 * v.fluency + 0.01 * v.meaning + 0.56 * v.argument for v in SCORES
    ]
    assert select(Strategy.AUTOSCORE, CANDS, COLUMNS) == combos.index(max(combos))
    assert COLUMNS["autoscore"] == pytest.approx(combos)


def test_autoscore_requires_weights():
    # without the weighted column there is nothing to maximize
    axes = {name: COLUMNS[name] for name in ("fluency", "meaning", "argument")}
    with pytest.raises(ValueError):
        select(Strategy.AUTOSCORE, CANDS, axes)


def test_argmax_tie_breaks_to_lowest_index():
    scores = vectors((0.5, 0.1, 0.9), (0.5, 0.2, 0.9), (0.5, 0.3, 0.9))
    columns = score_columns(CANDS, scores, Weights(1.0, 0.0, 0.0))
    assert select(Strategy.AUTOSCORE, CANDS, columns) == 0
    assert select(Strategy.MAX_FLUENCY, CANDS, columns) == 0


def test_random_is_seeded_and_in_set():
    a = select(Strategy.RANDOM, CANDS, COLUMNS, seed=13)
    b = select(Strategy.RANDOM, CANDS, COLUMNS, seed=13)
    assert a == b
    assert 0 <= a < len(CANDS)
    # matches the documented draw: randrange over the set size
    assert a == random.Random(13).randrange(3)


def test_random_requires_seed():
    with pytest.raises(ValueError):
        select(Strategy.RANDOM, CANDS, COLUMNS)


def test_pairwise_requires_ranker():
    assert "ranker" not in COLUMNS
    with pytest.raises(ValueError):
        select(Strategy.PAIRWISE_RANK, CANDS, COLUMNS)


def test_select_validates_alignment_and_emptiness():
    with pytest.raises(ValueError):
        score_columns(CANDS, SCORES[:2], DEFAULT_WEIGHTS)
    with pytest.raises(ValueError):
        select(Strategy.TOP1, (), score_columns((), [], DEFAULT_WEIGHTS))
    with pytest.raises(ValueError):
        select("top1", CANDS, COLUMNS)


def test_positions_count_deduped_candidates_not_schedule_steps():
    # after dedup, "b" (schedule step 2, topk:10) stands at position 1
    cands = (Candidate("a", GREEDY), Candidate("b", TOPK(10)), Candidate("c", TOPK(15)))
    columns = score_columns(cands, vectors((0.1, 0, 0), (0.9, 0, 0), (0.5, 0, 0)), DEFAULT_WEIGHTS)
    assert select(Strategy.MAX_FLUENCY, cands, columns) == 1


# ---------------------------------------------------------------------------
# pairwise ranker


def _training_pairs(n=40, seed=0):
    """(worse, better): better versions carry the marker token."""
    rng = random.Random(seed)
    vocab = ["tax", "school", "policy", "votes", "towns", "roads", "parks", "jobs"]
    pairs = []
    for _ in range(n):
        base = " ".join(rng.sample(vocab, 4))
        pairs.append((base, base + " therefore improved"))
    return pairs


def test_ranker_learns_marker_tokens():
    emb = HashingEmbedder()
    ranker = train_pairwise_ranker(_training_pairs(), emb)
    assert ranker.score_text("roads jobs therefore improved") > ranker.score_text(
        "roads jobs"
    )
    assert ranker.training_meta["train_violations"] == 0


def test_ranker_training_is_deterministic():
    emb = HashingEmbedder()
    a = train_pairwise_ranker(_training_pairs(), emb)
    b = train_pairwise_ranker(_training_pairs(), emb)
    assert np.array_equal(a.weight_vector, b.weight_vector)


def test_ranker_rejects_zero_margin_pairs():
    emb = HashingEmbedder()
    with pytest.raises(ValueError) as err:
        train_pairwise_ranker([("same text", "same text")], emb)
    assert "zero-margin" in str(err.value)
    with pytest.raises(ValueError):
        train_pairwise_ranker([], emb)


def test_pairwise_selection_uses_ranker_scores():
    emb = HashingEmbedder()
    ranker = train_pairwise_ranker(_training_pairs(), emb)
    cands = build_set(["tax school", "tax school therefore improved"])
    scores = vectors((0.5, 0.5, 0.5), (0.5, 0.5, 0.5))
    columns = score_columns(cands, scores, DEFAULT_WEIGHTS, ranker=ranker)
    assert columns["ranker"] == [ranker.score_text(c.text) for c in cands]
    position = select(Strategy.PAIRWISE_RANK, cands, columns)
    assert cands[position].text == "tax school therefore improved"


def test_ranker_roundtrip(tmp_path):
    emb = HashingEmbedder()
    ranker = train_pairwise_ranker(_training_pairs(), emb)
    path = tmp_path / "ranker.json"
    save_ranker(path, ranker)
    back = load_ranker(path)
    assert np.array_equal(back.weight_vector, ranker.weight_vector)
    assert back.score_text("tax therefore improved") == pytest.approx(
        ranker.score_text("tax therefore improved")
    )
    assert back.training_meta == ranker.training_meta


def test_load_ranker_rejects_bad_payloads(tmp_path):
    path = tmp_path / "ranker.json"
    path.write_text(json.dumps({"embedder": {"kind": "neural"}, "weight_vector": []}))
    with pytest.raises(ValueError, match="'embedder' must be "):
        load_ranker(path)
    path.write_text(
        json.dumps(
            {
                "embedder": {"kind": "hashing", "dim": 256, "seed": 0},
                "weight_vector": [0.0] * 4,
            }
        )
    )
    with pytest.raises(ValueError, match="'weight_vector' must hold 256 numbers"):
        load_ranker(path)

