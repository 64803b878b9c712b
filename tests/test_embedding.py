import numpy as np
import pytest

from claimpolish.embedding import HashingEmbedder, cosine
from claimpolish.text import normalize_whitespace, tokenize


def test_tokenize_lowercases_and_splits_punctuation():
    assert tokenize("It's good, really!") == ["it", "'", "s", "good", ",", "really", "!"]
    assert tokenize("A  b\tc") == ["a", "b", "c"]
    assert tokenize("") == []


def test_normalize_whitespace():
    assert normalize_whitespace("  a \t b\n") == "a b"
    assert normalize_whitespace("already clean") == "already clean"


def test_embedding_is_deterministic_across_instances():
    a = HashingEmbedder(dim=64, seed=3).embed("the tax helps")
    b = HashingEmbedder(dim=64, seed=3).embed("the tax helps")
    assert np.array_equal(a, b)


@pytest.mark.parametrize("dim, seed", [(2, 0), (64, 3), (256, -7), (1000, 2**40)])
def test_warm_embedder_equals_fresh_one(dim, seed):
    texts = ["the tax helps towns", "Schools need funding!", "the towns need the tax", ""]
    warm = HashingEmbedder(dim=dim, seed=seed)
    for text in texts:
        warm.embed(text)
    for text in texts + ["new words, old tax"]:
        fresh = HashingEmbedder(dim=dim, seed=seed).embed(text)
        assert warm.embed(text).tobytes() == fresh.tobytes()


@pytest.mark.parametrize(
    "seed, key",
    [
        (-1, b"\xff" * 8),
        (0, bytes(8)),
        (2**63 - 1, b"\xff" * 7 + b"\x7f"),
        (2**64 - 1, b"\xff" * 8),
    ],
)
def test_embedder_key_is_the_seed_in_eight_little_endian_bytes(seed, key):
    # seeds in the int64 range keep their two's-complement bytes; any
    # other int wraps modulo 2**64
    assert HashingEmbedder(seed=seed)._key == key


def test_embedding_seed_changes_vectors():
    a = HashingEmbedder(dim=64, seed=0).embed("the tax helps")
    b = HashingEmbedder(dim=64, seed=1).embed("the tax helps")
    assert not np.array_equal(a, b)


def test_embedding_is_unit_norm():
    vec = HashingEmbedder(dim=128).embed("some words here")
    assert np.linalg.norm(vec) == pytest.approx(1.0)
    assert vec.shape == (128,)


def test_empty_text_embeds_to_zero_vector():
    vec = HashingEmbedder().embed("")
    assert not vec.any()


def test_embedding_is_bag_of_words():
    emb = HashingEmbedder()
    assert cosine(emb.embed("a b c"), emb.embed("c b a")) == pytest.approx(1.0)


def test_cosine_properties():
    emb = HashingEmbedder(dim=512)
    a, b = emb.embed("taxes help towns"), emb.embed("bananas are yellow fruit")
    assert cosine(a, a) == pytest.approx(1.0)
    assert -1.0 <= cosine(a, b) <= 1.0
    assert cosine(a, np.zeros_like(a)) == 0.0


def test_dim_validation():
    with pytest.raises(ValueError):
        HashingEmbedder(dim=1)
