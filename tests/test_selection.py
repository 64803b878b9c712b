import json
import random

import numpy as np
import pytest

from claimpolish.embedding import HashingEmbedder
from claimpolish.genkit import Candidate, CandidateSet, GREEDY, TOPK
from claimpolish.scoring import DEFAULT_WEIGHTS, ScoreVector, Weights
from claimpolish.selection import (
    PairwiseRanker,
    RankerHyperparams,
    Strategy,
    load_ranker,
    save_ranker,
    select,
    selection_to_record,
    train_pairwise_ranker,
)

SOURCE = "the original claim"


def build_set(texts, first_greedy=True):
    cands = []
    for i, text in enumerate(texts):
        origin = GREEDY if (i == 0 and first_greedy) else TOPK(5 * max(i, 1))
        cands.append(Candidate(text=text, origin=origin, index=i))
    return CandidateSet(source=SOURCE, candidates=tuple(cands))


def vectors(*triples):
    return [ScoreVector(*t) for t in triples]


CSET = build_set(["alpha text", "bravo text", "charlie text"])
SCORES = vectors((0.9, 0.2, 0.1), (0.3, 0.8, 0.5), (0.5, 0.5, 0.9))


# ---------------------------------------------------------------------------
# per-strategy behavior


def test_unedited_returns_source_unmodified():
    result = select(Strategy.UNEDITED, SOURCE, CSET, SCORES)
    assert result.chosen.text == SOURCE
    assert result.chosen.origin is None
    assert result.chosen.index == -1
    assert result.edited is False


def test_top1_returns_first_greedy_candidate():
    result = select(Strategy.TOP1, SOURCE, CSET, SCORES)
    assert result.chosen is CSET.candidates[0]
    assert result.edited is True


def test_top1_without_greedy_candidate_raises():
    cset = build_set(["a", "b"], first_greedy=False)
    with pytest.raises(ValueError):
        select(Strategy.TOP1, SOURCE, cset, SCORES[:2])


def test_component_argmaxes():
    assert (
        select(Strategy.MAX_FLUENCY, SOURCE, CSET, SCORES).chosen.text == "alpha text"
    )
    assert (
        select(Strategy.MAX_MEANING, SOURCE, CSET, SCORES).chosen.text == "bravo text"
    )
    assert (
        select(Strategy.MAX_ARGUMENT, SOURCE, CSET, SCORES).chosen.text
        == "charlie text"
    )


def test_autoscore_picks_weighted_argmax():
    result = select(Strategy.AUTOSCORE, SOURCE, CSET, SCORES, weights=DEFAULT_WEIGHTS)
    combos = [
        0.43 * v.fluency + 0.01 * v.meaning + 0.56 * v.argument for v in SCORES
    ]
    assert result.chosen is CSET.candidates[combos.index(max(combos))]
    recorded = [c for _, _, c in result.per_candidate_scores]
    assert recorded == pytest.approx(combos)


def test_autoscore_requires_weights():
    with pytest.raises(ValueError):
        select(Strategy.AUTOSCORE, SOURCE, CSET, SCORES)


def test_argmax_tie_breaks_to_lowest_index():
    scores = vectors((0.5, 0.1, 0.9), (0.5, 0.2, 0.9), (0.5, 0.3, 0.9))
    w = Weights(1.0, 0.0, 0.0)
    result = select(Strategy.AUTOSCORE, SOURCE, CSET, scores, weights=w)
    assert result.chosen.index == 0
    assert select(Strategy.MAX_FLUENCY, SOURCE, CSET, scores).chosen.index == 0


def test_random_is_seeded_and_in_set():
    a = select(Strategy.RANDOM, SOURCE, CSET, SCORES, seed=13)
    b = select(Strategy.RANDOM, SOURCE, CSET, SCORES, seed=13)
    assert a.chosen == b.chosen
    assert a.chosen in CSET.candidates
    # matches the documented draw: randrange over the set size
    assert a.chosen is CSET.candidates[random.Random(13).randrange(3)]


def test_random_requires_seed():
    with pytest.raises(ValueError):
        select(Strategy.RANDOM, SOURCE, CSET, SCORES)


def test_pairwise_requires_ranker():
    with pytest.raises(ValueError):
        select(Strategy.PAIRWISE_RANK, SOURCE, CSET, SCORES)


def test_select_validates_alignment_and_emptiness():
    with pytest.raises(ValueError):
        select(Strategy.TOP1, SOURCE, CSET, SCORES[:2])
    empty = CandidateSet(source=SOURCE, candidates=())
    with pytest.raises(ValueError):
        select(Strategy.TOP1, SOURCE, empty, [])


def test_edited_flag_tracks_text_equality():
    cset = build_set([SOURCE, "changed text"])
    scores = vectors((0.5, 0.5, 0.5), (0.5, 0.5, 0.5))
    result = select(Strategy.TOP1, SOURCE, cset, scores)
    assert result.edited is False


def test_combined_column_none_without_weights():
    result = select(Strategy.UNEDITED, SOURCE, CSET, SCORES)
    assert all(c is None for _, _, c in result.per_candidate_scores)
    with_w = select(Strategy.UNEDITED, SOURCE, CSET, SCORES, weights=DEFAULT_WEIGHTS)
    assert all(c is not None for _, _, c in with_w.per_candidate_scores)


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
    emb = HashingEmbedder(dim=64, seed=0)
    ranker = train_pairwise_ranker(_training_pairs(), emb)
    assert ranker.score_text("roads jobs therefore improved") > ranker.score_text(
        "roads jobs"
    )
    assert ranker.training_meta["train_violations"] == 0


def test_ranker_training_is_deterministic():
    emb = HashingEmbedder(dim=64, seed=0)
    a = train_pairwise_ranker(_training_pairs(), emb)
    b = train_pairwise_ranker(_training_pairs(), emb)
    assert np.array_equal(a.weight_vector, b.weight_vector)


def test_ranker_rejects_zero_margin_pairs():
    emb = HashingEmbedder(dim=64)
    with pytest.raises(ValueError) as err:
        train_pairwise_ranker([("same text", "same text")], emb)
    assert "zero-margin" in str(err.value)
    with pytest.raises(ValueError):
        train_pairwise_ranker([], emb)


def test_pairwise_selection_uses_ranker_scores():
    emb = HashingEmbedder(dim=64, seed=0)
    ranker = train_pairwise_ranker(_training_pairs(), emb)
    cset = build_set(["tax school", "tax school therefore improved"])
    scores = vectors((0.5, 0.5, 0.5), (0.5, 0.5, 0.5))
    result = select(Strategy.PAIRWISE_RANK, SOURCE, cset, scores, ranker=ranker)
    assert result.chosen.text == "tax school therefore improved"


def test_ranker_roundtrip(tmp_path):
    emb = HashingEmbedder(dim=64, seed=5)
    ranker = train_pairwise_ranker(_training_pairs(), emb)
    path = tmp_path / "ranker.json"
    save_ranker(path, ranker)
    back = load_ranker(path)
    assert np.array_equal(back.weight_vector, ranker.weight_vector)
    assert back.embedder.dim == 64
    assert back.score_text("tax therefore improved") == pytest.approx(
        ranker.score_text("tax therefore improved")
    )
    assert back.training_meta == ranker.training_meta


def test_load_ranker_rejects_bad_payloads(tmp_path):
    path = tmp_path / "ranker.json"
    path.write_text(json.dumps({"embedder": {"kind": "neural"}, "weight_vector": []}))
    with pytest.raises(ValueError):
        load_ranker(path)
    path.write_text(
        json.dumps(
            {
                "embedder": {"kind": "hashing", "dim": 8, "seed": 0},
                "weight_vector": [0.0] * 4,
            }
        )
    )
    with pytest.raises(ValueError):
        load_ranker(path)


# ---------------------------------------------------------------------------
# records


def test_selection_record_schema():
    result = select(Strategy.AUTOSCORE, SOURCE, CSET, SCORES, weights=DEFAULT_WEIGHTS)
    record = selection_to_record("p#0", result)
    json.dumps(record)
    assert record["pair_id"] == "p#0"
    assert record["strategy"] == "autoscore"
    assert record["chosen"] == result.chosen.text
    assert record["edited"] is True
    assert len(record["scores"]) == 3
    assert set(record["scores"][0]) == {
        "text",
        "fluency",
        "meaning",
        "argument",
        "combined",
    }
