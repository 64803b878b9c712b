import dataclasses
import json
import sys

import pytest

from claimpolish.corpus import (
    ContextBundle,
    ContextMode,
    IntentLabel,
    MissingContextError,
    OptimizationPair,
    RevisionChain,
    TASK_INTENTS,
    derive_pairs,
    filter_by_intent,
    load_chains,
    load_pairs,
    majority_intent,
    relabel_pairs,
    serialize_input,
    split_dataset,
    write_pairs,
)
from claimpolish.ndjson import RecordFormatError

from conftest import make_chain_records, make_synthetic_pairs


def chain(chain_id="c1", texts=("a claim", "A claim."), intents=None, **ctx):
    if intents is None:
        intents = tuple([IntentLabel.CLARIFICATION] * (len(texts) - 1))
    return RevisionChain(chain_id, tuple(texts), tuple(intents), ContextBundle(**ctx))


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# loading and validation


def test_load_chains_roundtrip(tmp_path, chains_file):
    chains = load_chains(chains_file)
    assert len(chains) == 30
    assert all(len(c.intents) == len(c.claims) - 1 for c in chains)
    assert chains[0].context.topic.startswith("debate about")


def test_load_chains_rejects_malformed_json(tmp_path):
    path = tmp_path / "bad.jsonl"
    write_lines(path, ['{"chain_id": "a"', ""])
    with pytest.raises(RecordFormatError) as err:
        load_chains(path)
    assert "line 1" in str(err.value)


def test_load_chains_rejects_missing_keys(tmp_path):
    path = tmp_path / "bad.jsonl"
    write_lines(path, [json.dumps({"chain_id": "a", "debate_id": "d", "claims": []})])
    with pytest.raises(RecordFormatError) as err:
        load_chains(path)
    assert "intents" in str(err.value)


def test_load_chains_rejects_empty_claim_text(tmp_path):
    path = tmp_path / "bad.jsonl"
    rec = {
        "chain_id": "a",
        "debate_id": "d",
        "claims": [{"id": "x", "text": "   "}],
        "intents": [],
    }
    write_lines(path, [json.dumps(rec)])
    with pytest.raises(RecordFormatError) as err:
        load_chains(path)
    assert "empty text" in str(err.value)


def test_load_chains_rejects_intent_count_mismatch(tmp_path):
    path = tmp_path / "bad.jsonl"
    rec = {
        "chain_id": "a",
        "debate_id": "d",
        "claims": [{"id": "x", "text": "one"}, {"id": "y", "text": "two"}],
        "intents": ["clarification", "links"],
    }
    write_lines(path, [json.dumps(rec)])
    with pytest.raises(RecordFormatError):
        load_chains(path)


def test_load_chains_rejects_unknown_intent(tmp_path):
    path = tmp_path / "bad.jsonl"
    rec = {
        "chain_id": "a",
        "debate_id": "d",
        "claims": [{"id": "x", "text": "one"}, {"id": "y", "text": "two"}],
        "intents": ["rewrite_everything"],
    }
    write_lines(path, [json.dumps(rec)])
    with pytest.raises(RecordFormatError) as err:
        load_chains(path)
    assert "rewrite_everything" in str(err.value)


def test_load_chains_null_intent_becomes_unlabeled(tmp_path):
    path = tmp_path / "ok.jsonl"
    rec = {
        "chain_id": "a",
        "debate_id": "d",
        "claims": [{"id": "x", "text": "one"}, {"id": "y", "text": "two"}],
        "intents": [None],
    }
    write_lines(path, [json.dumps(rec)])
    chains = load_chains(path)
    assert chains[0].intents == (IntentLabel.UNLABELED,)


def test_load_chains_rejects_duplicate_chain_id(tmp_path):
    path = tmp_path / "bad.jsonl"
    rec = {
        "chain_id": "a",
        "debate_id": "d",
        "claims": [{"id": "x", "text": "one"}],
        "intents": [],
    }
    rec2 = dict(rec, claims=[{"id": "y", "text": "two"}])
    write_lines(path, [json.dumps(rec), json.dumps(rec2)])
    with pytest.raises(RecordFormatError) as err:
        load_chains(path)
    assert "line 2" in str(err.value) and "duplicate chain_id" in str(err.value)


def test_load_chains_rejects_duplicate_claim_id(tmp_path):
    path = tmp_path / "bad.jsonl"
    rec = {
        "chain_id": "a",
        "debate_id": "d",
        "claims": [{"id": "x", "text": "one"}],
        "intents": [],
    }
    rec2 = {
        "chain_id": "b",
        "debate_id": "d",
        "claims": [{"id": "x", "text": "two"}],
        "intents": [],
    }
    write_lines(path, [json.dumps(rec), json.dumps(rec2)])
    with pytest.raises(RecordFormatError) as err:
        load_chains(path)
    assert "duplicate claim id" in str(err.value)


def test_pair_rejects_blank_source_or_reference():
    pair = derive_pairs(chain())[0]
    with pytest.raises(ValueError, match="source must be non-empty"):
        dataclasses.replace(pair, source=" ")
    with pytest.raises(ValueError, match="reference must be non-empty"):
        dataclasses.replace(pair, reference="\t")


def test_chain_invariant_enforced_on_construction():
    with pytest.raises(ValueError):
        chain(texts=("a", "b", "c"), intents=(IntentLabel.LINKS,))
    with pytest.raises(ValueError, match="chain 'c1': claim 2 has empty text"):
        chain(texts=("a", " "))
    with pytest.raises(ValueError, match="claim 'text' must be a string, got 5"):
        chain(texts=("a", 5))


# ---------------------------------------------------------------------------
# pair derivation and labeling


def test_derive_pairs_adjacent_steps():
    c = chain(texts=("v one", "v two", "v three"), topic="t")
    pairs = derive_pairs(c)
    assert len(pairs) == 2
    assert [p.pair_id for p in pairs] == ["c1#0", "c1#1"]
    assert [(p.source, p.reference) for p in pairs] == [("v one", "v two"), ("v two", "v three")]
    assert all(p.context.topic == "t" for p in pairs)


def test_derive_pairs_single_claim_chain_yields_nothing():
    assert derive_pairs(chain(texts=("only",), intents=())) == []


def test_relabel_fills_only_unlabeled():
    c = chain(
        texts=("a", "b", "c"),
        intents=(IntentLabel.LINKS, IntentLabel.UNLABELED),
    )
    pairs = derive_pairs(c)
    relabeled = relabel_pairs(pairs, IntentLabel.TYPO_GRAMMAR)
    assert relabeled[0].intent is IntentLabel.LINKS
    assert relabeled[1].intent is IntentLabel.TYPO_GRAMMAR
    # inputs are untouched
    assert pairs[1].intent is IntentLabel.UNLABELED


def test_relabel_rejects_unlabeled():
    pairs = derive_pairs(chain(texts=("a", "b"), intents=(IntentLabel.UNLABELED,)))
    with pytest.raises(ValueError, match="cannot assign"):
        relabel_pairs(pairs, IntentLabel.UNLABELED)


def test_majority_labeler_prefers_most_frequent():
    pairs = derive_pairs(
        chain(
            texts=("a", "b", "c", "d"),
            intents=(
                IntentLabel.TYPO_GRAMMAR,
                IntentLabel.TYPO_GRAMMAR,
                IntentLabel.LINKS,
            ),
        )
    )
    assert majority_intent(pairs) is IntentLabel.TYPO_GRAMMAR


def test_majority_labeler_needs_labeled_pairs():
    pairs = derive_pairs(chain(texts=("a", "b"), intents=(IntentLabel.UNLABELED,)))
    with pytest.raises(ValueError):
        majority_intent(pairs)


def test_filter_by_intent_keeps_task_intents():
    c = chain(
        texts=("a", "b", "c", "d"),
        intents=(
            IntentLabel.CLARIFICATION,
            IntentLabel.MEANING_CHANGE,
            IntentLabel.LINKS,
        ),
    )
    kept = filter_by_intent(derive_pairs(c), TASK_INTENTS)
    assert [p.intent for p in kept] == [IntentLabel.CLARIFICATION, IntentLabel.LINKS]


def test_task_intents_membership():
    assert TASK_INTENTS == {
        IntentLabel.CLARIFICATION,
        IntentLabel.TYPO_GRAMMAR,
        IntentLabel.LINKS,
    }


# ---------------------------------------------------------------------------
# splitting


def _pairs_for_split(n_chains=40, seed=11):
    records = make_chain_records(n_chains, seed=seed)
    chains = []
    for rec in records:
        claims = tuple(c["text"] for c in rec["claims"])
        intents = tuple(
            IntentLabel(i) if i is not None else IntentLabel.UNLABELED
            for i in rec["intents"]
        )
        chains.append(RevisionChain(rec["chain_id"], claims, intents))
    pairs = [p for c in chains for p in derive_pairs(c)]
    return relabel_pairs(pairs, IntentLabel.CLARIFICATION)


def test_split_is_deterministic_and_sorted():
    pairs = _pairs_for_split()
    a = split_dataset(pairs, per_label_test=2, seed=5)
    b = split_dataset(pairs, per_label_test=2, seed=5)
    assert a == b
    for part in (a.train, a.validation, a.test):
        assert list(part) == sorted(part, key=lambda p: (p.chain_id, p.index))


def test_split_different_seeds_differ():
    pairs = _pairs_for_split()
    a = split_dataset(pairs, per_label_test=2, seed=1)
    b = split_dataset(pairs, per_label_test=2, seed=2)
    assert a.test != b.test


def test_split_per_label_counts():
    pairs = _pairs_for_split()
    split = split_dataset(pairs, per_label_test=3, seed=0)
    labels = {p.intent for p in pairs}
    for label in labels:
        assert sum(1 for p in split.test if p.intent is label) == 3


def test_split_test_chains_fully_excluded():
    pairs = _pairs_for_split()
    split = split_dataset(pairs, per_label_test=3, seed=0)
    test_chains = {p.chain_id for p in split.test}
    assert not test_chains & {p.chain_id for p in split.train}
    assert not test_chains & {p.chain_id for p in split.validation}


def test_split_chain_granularity_no_overlap():
    pairs = _pairs_for_split()
    split = split_dataset(pairs, per_label_test=1, seed=3)
    assert not {p.chain_id for p in split.train} & {p.chain_id for p in split.validation}


def test_split_partitions_cover_residual_exactly():
    pairs = _pairs_for_split()
    split = split_dataset(pairs, per_label_test=2, seed=3)
    test_chains = {p.chain_id for p in split.test}
    residual = [p for p in pairs if p.chain_id not in test_chains]
    assert sorted(
        (p.pair_id for p in split.train + split.validation)
    ) == sorted(p.pair_id for p in residual)


def test_split_insufficient_label_pool_raises():
    pairs = _pairs_for_split(n_chains=4)
    with pytest.raises(ValueError) as err:
        split_dataset(pairs, per_label_test=1000)
    assert "need 1000" in str(err.value)


def test_split_validates_arguments():
    pairs = _pairs_for_split(n_chains=4)
    with pytest.raises(ValueError, match="per_label_test must be >= 0"):
        split_dataset(pairs, per_label_test=-1)


# ---------------------------------------------------------------------------
# input serialization


def _pair(**ctx):
    return derive_pairs(chain(texts=("src text", "ref text"), **ctx))[0]


def test_serialize_claim_only():
    assert serialize_input(_pair()) == "src text"


def test_serialize_with_previous():
    p = _pair(previous_claim="earlier claim")
    assert (
        serialize_input(p, ContextMode.WITH_PREVIOUS)
        == "src text <PREV> earlier claim"
    )


def test_serialize_with_topic():
    p = _pair(topic="the topic")
    assert serialize_input(p, ContextMode.WITH_TOPIC) == "src text <TOPIC> the topic"


def test_serialize_with_both_orders_previous_first():
    p = _pair(previous_claim="earlier", topic="the topic")
    assert (
        serialize_input(p, ContextMode.WITH_BOTH)
        == "src text <PREV> earlier <TOPIC> the topic"
    )


def test_serialize_missing_context_raises():
    with pytest.raises(MissingContextError):
        serialize_input(_pair(), ContextMode.WITH_PREVIOUS)
    with pytest.raises(MissingContextError):
        serialize_input(_pair(previous_claim="x"), ContextMode.WITH_BOTH)


# ---------------------------------------------------------------------------
# pair files


def test_pairs_roundtrip(tmp_path):
    pairs = make_synthetic_pairs(8, seed=2)
    path = tmp_path / "pairs.jsonl"
    write_pairs(pairs, path)
    loaded = load_pairs(path)
    assert len(loaded) == 8
    for orig, back in zip(pairs, loaded):
        assert back.pair_id == orig.pair_id
        assert back.chain_id == orig.chain_id
        assert back.index == orig.index
        assert back.source == orig.source
        assert back.reference == orig.reference
        assert back.intent is orig.intent
        assert back.context == orig.context


def test_write_pairs_failing_part_way_keeps_the_old_file(tmp_path):
    path = tmp_path / "pairs.jsonl"
    write_pairs(make_synthetic_pairs(4, seed=2), path)
    old = path.read_bytes()

    def failing_pairs():
        yield from make_synthetic_pairs(3, seed=9)
        raise OSError("disk gone")

    with pytest.raises(OSError, match="disk gone"):
        write_pairs(failing_pairs(), path)
    assert path.read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == ["pairs.jsonl"]


def test_load_pairs_rejects_missing_keys(tmp_path):
    path = tmp_path / "pairs.jsonl"
    write_lines(path, [json.dumps({"pair_id": "a#0", "source": "s"})])
    with pytest.raises(RecordFormatError) as err:
        load_pairs(path)
    assert "reference" in str(err.value)


def test_load_pairs_rejects_duplicate_pair_id(tmp_path):
    path = tmp_path / "pairs.jsonl"
    record = {"pair_id": "p", "source": "s", "reference": "r", "intent": "links"}
    write_lines(path, [json.dumps(record), json.dumps(dict(record, source="t"))])
    with pytest.raises(RecordFormatError, match=r"line 2: duplicate pair_id 'p'"):
        load_pairs(path)
    # an integer id is its digits, so 7 and "7" are the same pair
    write_lines(path, [json.dumps(dict(record, pair_id=7)), json.dumps(dict(record, pair_id="7"))])
    with pytest.raises(RecordFormatError, match=r"line 2: duplicate pair_id '7'"):
        load_pairs(path)


# the part after the last '#' is the step index only when int() reads it as
# a decimal; int() refuses more than 4300 digits from CPython 3.10.7 / 3.11 on
_LONG_DIGITS = "1" * 5000


@pytest.mark.parametrize(
    "pair_id, chain_id, index",
    [
        pytest.param("c#12", "c", 12, id="decimal"),
        pytest.param("x#abc", "x", 0, id="word"),
        pytest.param("c#\u00b2", "c", 0, id="superscript-digit"),
        pytest.param(
            "c#" + _LONG_DIGITS, "c",
            0 if hasattr(sys, "get_int_max_str_digits") else int(_LONG_DIGITS), id="5000-digits",
        ),
    ],
)
def test_load_pairs_takes_any_string_pair_id(tmp_path, pair_id, chain_id, index):
    path = tmp_path / "pairs.jsonl"
    record = {"pair_id": pair_id, "source": "s", "reference": "r", "intent": "links"}
    write_lines(path, [json.dumps(record)])
    (pair,) = load_pairs(path)
    assert (pair.pair_id, pair.chain_id, pair.index) == (pair_id, chain_id, index)


def test_load_pairs_keeps_an_integer_pair_id_as_its_digits(tmp_path):
    path = tmp_path / "pairs.jsonl"
    record = {"pair_id": 7, "source": "s", "reference": "r", "intent": "links"}
    write_lines(path, [json.dumps(record)])
    (pair,) = load_pairs(path)
    assert (pair.pair_id, pair.chain_id, pair.index) == ("7", "7", 0)
