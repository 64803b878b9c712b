import numpy as np
import pytest

from claimpolish.embedding import DIM, HashingEmbedder, cosine
from claimpolish.text import normalize_whitespace, tokenize


def test_tokenize_lowercases_and_splits_punctuation():
    assert tokenize("It's good, really!") == ["it", "'", "s", "good", ",", "really", "!"]
    assert tokenize("A  b\tc") == ["a", "b", "c"]
    assert tokenize("") == []


def test_normalize_whitespace():
    assert normalize_whitespace("  a \t b\n") == "a b"
    assert normalize_whitespace("already clean") == "already clean"


def test_embedding_is_deterministic_across_instances():
    a = HashingEmbedder().embed("the tax helps")
    b = HashingEmbedder().embed("the tax helps")
    assert np.array_equal(a, b)


@pytest.mark.parametrize("words, number", [(2, 0), (64, 3), (256, -7), (1000, 2**40)])
def test_warm_embedder_equals_fresh_one(words, number):
    # vocabularies below, at and above DIM slots, and numeric tokens
    vocabulary = " ".join(f"w{i}" for i in range(words))
    texts = ["the tax helps towns", "Schools need funding!", vocabulary, f"the tax is {number}", ""]
    warm = HashingEmbedder()
    for text in texts:
        warm.embed(text)
    for text in texts + ["new words, old tax"]:
        fresh = HashingEmbedder().embed(text)
        assert warm.embed(text).tobytes() == fresh.tobytes()


def test_embedding_is_unit_norm():
    vec = HashingEmbedder().embed("some words here")
    assert np.linalg.norm(vec) == pytest.approx(1.0)
    assert vec.shape == (DIM,)


def test_empty_text_embeds_to_zero_vector():
    vec = HashingEmbedder().embed("")
    assert not vec.any()


def test_embedding_is_bag_of_words():
    emb = HashingEmbedder()
    assert cosine(emb.embed("a b c"), emb.embed("c b a")) == pytest.approx(1.0)


def test_cosine_properties():
    emb = HashingEmbedder()
    a, b = emb.embed("taxes help towns"), emb.embed("bananas are yellow fruit")
    assert cosine(a, a) == pytest.approx(1.0)
    assert -1.0 <= cosine(a, b) <= 1.0
    assert cosine(a, np.zeros_like(a)) == 0.0
