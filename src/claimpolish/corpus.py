"""Revision-chain corpus model: loading, pairing, labeling, splitting.

A revision chain is the edit history of one argumentative claim: an
ordered list of claim versions c1..cm plus one intent label per edit.
Adjacent versions form optimization pairs (source -> reference) that
downstream modules train on, generate against, and evaluate with.

File formats handled here:

* ``chains.jsonl``  one chain per line:
  ``{"chain_id", "debate_id", "topic", "previous_claim", "claims":
  [{"id", "text"}, ...], "intents": [str, ...]}``
  (``topic`` / ``previous_claim`` may be null or absent; the ids are
  strings or integers). A chain keeps only its claim texts: claim ids
  must be unique across the file, and ``debate_id`` must be present,
  but neither is stored.
* ``pairs.jsonl``   one pair per line:
  ``{"pair_id", "source", "reference", "intent", "topic",
  "previous_claim"}``
"""

from __future__ import annotations

import contextlib
import dataclasses
import enum
import random
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from pathlib import Path

from .ndjson import encode_line, open_atomic, parse_id, read_jsonl


class MissingContextError(ValueError):
    """A serialization mode asked for a context field the pair does not have."""


class IntentLabel(enum.Enum):
    """Edit intents attached to each revision step."""

    CLARIFICATION = "clarification"
    TYPO_GRAMMAR = "typo_grammar"
    LINKS = "links"
    MEANING_CHANGE = "meaning_change"
    SPLIT = "split"
    MERGE = "merge"
    UNLABELED = "unlabeled"


# The three intents the rewrite task trains and evaluates on.
TASK_INTENTS = frozenset(
    {IntentLabel.CLARIFICATION, IntentLabel.TYPO_GRAMMAR, IntentLabel.LINKS}
)


class ContextMode(enum.Enum):
    """How much debate context gets serialized alongside the source claim;
    the values are the ``--context`` words."""

    CLAIM_ONLY = "none"
    WITH_PREVIOUS = "previous"
    WITH_TOPIC = "topic"
    WITH_BOTH = "both"


@dataclass(frozen=True)
class ContextBundle:
    """Optional debate context shared by every pair of one chain."""

    topic: str | None = None
    previous_claim: str | None = None


@dataclass(frozen=True)
class RevisionChain:
    """One claim's versions, oldest first, and the intent of each edit."""

    chain_id: str
    claims: tuple[str, ...]
    intents: tuple[IntentLabel, ...]
    context: ContextBundle = ContextBundle()

    def __post_init__(self):
        if len(self.claims) < 1:
            raise ValueError(f"chain {self.chain_id!r} has no claims")
        for position, text in enumerate(self.claims, start=1):
            if not isinstance(text, str):
                raise ValueError(f"claim 'text' must be a string, got {text!r}")
            if not text.strip():
                raise ValueError(f"chain {self.chain_id!r}: claim {position} has empty text")
        if len(self.intents) != len(self.claims) - 1:
            raise ValueError(
                f"chain {self.chain_id!r}: {len(self.claims)} claims need "
                f"{len(self.claims) - 1} intents, got {len(self.intents)}"
            )


@dataclass(frozen=True)
class OptimizationPair:
    """One revision step: rewrite ``source`` into something like ``reference``."""

    pair_id: str
    chain_id: str
    index: int  # position of the step within its chain, 0-based
    source: str
    reference: str
    intent: IntentLabel
    context: ContextBundle = ContextBundle()

    def __post_init__(self):
        for key, text in (("source", self.source), ("reference", self.reference)):
            if not isinstance(text, str):
                raise ValueError(f"{key!r} must be a string, got {text!r}")
            if not text.strip():
                raise ValueError(f"{key} must be non-empty")


@dataclass(frozen=True)
class DatasetSplit:
    train: tuple[OptimizationPair, ...]
    validation: tuple[OptimizationPair, ...]
    test: tuple[OptimizationPair, ...]


# the markers that introduce the context segments of a serialized input
PREV_DELIMITER = "<PREV>"
TOPIC_DELIMITER = "<TOPIC>"


# ---------------------------------------------------------------------------
# loading


def _context(record: dict) -> ContextBundle:
    """The record's topic and previous claim: each a string or null
    (absent is null), and a blank string counts as null."""
    topic, previous = record.get("topic"), record.get("previous_claim")
    if not all(isinstance(text, (str, type(None))) for text in (topic, previous)):
        raise ValueError("topic and previous_claim must be strings or null")
    return ContextBundle(
        topic=topic if topic and topic.strip() else None,
        previous_claim=previous if previous and previous.strip() else None,
    )


def load_chains(path: str | Path) -> list[RevisionChain]:
    """Read a chains.jsonl file, validating every line.

    Raises RecordFormatError naming the offending line on malformed JSON,
    schema violations, empty claim texts, or duplicate ids. Claim ids
    are checked for uniqueness across the file and then dropped.
    """
    seen_chain_ids: set[str] = set()
    seen_claim_ids: set[str] = set()

    def parse(record: dict) -> RevisionChain:
        raw_claims, raw_intents = record["claims"], record["intents"]
        if not isinstance(raw_claims, list) or not isinstance(raw_intents, list):
            raise ValueError("claims and intents must be lists")
        parse_id(record["debate_id"], "'debate_id'")  # required and checked, not kept
        if not all(isinstance(c, dict) and "id" in c and "text" in c for c in raw_claims):
            raise ValueError("each claim needs 'id' and 'text'")
        claim_ids = [parse_id(c["id"], "claim 'id'") for c in raw_claims]  # checked, not kept
        intents = (IntentLabel.UNLABELED if i is None else IntentLabel(i) for i in raw_intents)
        chain = RevisionChain(
            chain_id=parse_id(record["chain_id"], "'chain_id'"),
            claims=tuple(c["text"] for c in raw_claims),
            intents=tuple(intents),
            context=_context(record),
        )
        if chain.chain_id in seen_chain_ids:
            raise ValueError(f"duplicate chain_id {chain.chain_id!r}")
        seen_chain_ids.add(chain.chain_id)
        for claim_id in claim_ids:
            if claim_id in seen_claim_ids:
                raise ValueError(f"duplicate claim id {claim_id!r}")
            seen_claim_ids.add(claim_id)
        return chain

    required = ("chain_id", "debate_id", "claims", "intents")
    return list(read_jsonl(path, required, parse))


# ---------------------------------------------------------------------------
# pairing and labeling


def derive_pairs(chain: RevisionChain) -> list[OptimizationPair]:
    """Turn a chain of m claims into its m-1 adjacent revision pairs."""
    pairs = []
    for i in range(len(chain.claims) - 1):
        pairs.append(
            OptimizationPair(
                pair_id=f"{chain.chain_id}#{i}",
                chain_id=chain.chain_id,
                index=i,
                source=chain.claims[i],
                reference=chain.claims[i + 1],
                intent=chain.intents[i],
                context=chain.context,
            )
        )
    return pairs


def majority_intent(pairs: Sequence[OptimizationPair]) -> IntentLabel:
    """The most frequent labeled intent among ``pairs``.

    Ties break toward the intent that sorts first by value. ``prepare``
    gives it to every unlabeled pair.
    """
    counts: dict[IntentLabel, int] = {}
    for pair in pairs:
        if pair.intent is not IntentLabel.UNLABELED:
            counts[pair.intent] = counts.get(pair.intent, 0) + 1
    if not counts:
        raise ValueError("no labeled pairs to take a majority from")
    return min(counts, key=lambda lab: (-counts[lab], lab.value))


def relabel_pairs(
    pairs: Sequence[OptimizationPair], intent: IntentLabel
) -> list[OptimizationPair]:
    """Give every UNLABELED pair ``intent``; labeled pairs pass through."""
    if intent is IntentLabel.UNLABELED:
        raise ValueError(f"cannot assign {intent}")
    return [
        dataclasses.replace(pair, intent=intent) if pair.intent is IntentLabel.UNLABELED else pair
        for pair in pairs
    ]


def filter_by_intent(
    pairs: Sequence[OptimizationPair], allowed: Iterable[IntentLabel]
) -> list[OptimizationPair]:
    """Keep pairs whose intent is in ``allowed``, preserving order."""
    allowed_set = frozenset(allowed)
    return [p for p in pairs if p.intent in allowed_set]


# ---------------------------------------------------------------------------
# splitting


def _pair_key(pair: OptimizationPair) -> tuple[str, int]:
    return (pair.chain_id, pair.index)


# The share of the chains left after the test draw whose pairs go to train.
TRAIN_FRACTION = 0.9


def split_dataset(
    pairs: Sequence[OptimizationPair], per_label_test: int, seed: int = 0
) -> DatasetSplit:
    """Carve a label-balanced test set, then split the rest into train/val.

    The test set draws ``per_label_test`` pairs for every intent present
    in ``pairs``. Chains that contributed a test pair are then excluded
    entirely, and the remaining chains are split ``TRAIN_FRACTION`` /
    ``1 - TRAIN_FRACTION``, so no chain has pairs in two partitions.

    The same seed always produces the same split; each partition comes
    back sorted by (chain_id, step index).
    """
    if per_label_test < 0:
        raise ValueError("per_label_test must be >= 0")

    rng = random.Random(seed)
    labels = sorted({p.intent for p in pairs}, key=lambda lab: lab.value)
    test: list[OptimizationPair] = []
    for label in labels:
        pool = [p for p in pairs if p.intent is label]
        if len(pool) < per_label_test:
            raise ValueError(
                f"intent {label.value!r} has {len(pool)} pairs, "
                f"need {per_label_test} for the test set"
            )
        test.extend(rng.sample(pool, per_label_test))

    test_chains = {p.chain_id for p in test}
    residual = [p for p in pairs if p.chain_id not in test_chains]

    chain_ids = sorted({p.chain_id for p in residual})
    rng.shuffle(chain_ids)
    n_train = int(round(TRAIN_FRACTION * len(chain_ids)))
    train_chains = set(chain_ids[:n_train])
    train = [p for p in residual if p.chain_id in train_chains]
    validation = [p for p in residual if p.chain_id not in train_chains]

    return DatasetSplit(
        train=tuple(sorted(train, key=_pair_key)),
        validation=tuple(sorted(validation, key=_pair_key)),
        test=tuple(sorted(test, key=_pair_key)),
    )


# ---------------------------------------------------------------------------
# input serialization


def serialize_input(pair: OptimizationPair, mode: ContextMode = ContextMode.CLAIM_ONLY) -> str:
    """Flatten a pair into the single string a generator consumes.

    Grammar: ``SOURCE (" <PREV> " PREVIOUS)? (" <TOPIC> " TOPIC)?``,
    the markers being ``PREV_DELIMITER`` and ``TOPIC_DELIMITER``, with
    the previous-claim segment always ahead of the topic segment.
    Raises MissingContextError when the mode needs a field the pair's
    context does not carry.
    """
    parts = [pair.source]
    if mode in (ContextMode.WITH_PREVIOUS, ContextMode.WITH_BOTH):
        if not pair.context.previous_claim:
            raise MissingContextError(f"pair {pair.pair_id}: no previous_claim in context")
        parts += [PREV_DELIMITER, pair.context.previous_claim]
    if mode in (ContextMode.WITH_TOPIC, ContextMode.WITH_BOTH):
        if not pair.context.topic:
            raise MissingContextError(f"pair {pair.pair_id}: no topic in context")
        parts += [TOPIC_DELIMITER, pair.context.topic]
    return " ".join(parts)


# ---------------------------------------------------------------------------
# pair files


def pair_to_record(pair: OptimizationPair) -> dict:
    return {
        "pair_id": pair.pair_id,
        "source": pair.source,
        "reference": pair.reference,
        "intent": pair.intent.value,
        "topic": pair.context.topic,
        "previous_claim": pair.context.previous_claim,
    }


def write_pairs(pairs: Iterable[OptimizationPair], path: str | Path) -> None:
    with open_atomic(path) as fh:
        fh.writelines(encode_line(pair_to_record(pair)) for pair in pairs)


def load_pairs(path: str | Path) -> list[OptimizationPair]:
    """Read a pairs.jsonl file written by :func:`write_pairs`.

    The chain id and step index are recovered from the ``chain#index``
    pair-id convention when the part after the last ``#`` is a decimal
    integer; otherwise the index is 0. A blank ``source`` or
    ``reference`` is rejected, and so is a repeated pair id: resume and
    ``report`` key records by it.
    """
    seen_pair_ids: set[str] = set()

    def parse(record: dict) -> OptimizationPair:
        pair_id = parse_id(record["pair_id"], "'pair_id'")
        if pair_id in seen_pair_ids:
            raise ValueError(f"duplicate pair_id {pair_id!r}")
        seen_pair_ids.add(pair_id)
        chain_id, index = pair_id, 0
        if "#" in pair_id:
            chain_id, _, idx_text = pair_id.rpartition("#")
            with contextlib.suppress(ValueError):  # int() refuses over 4300 digits
                index = int(idx_text) if idx_text.isdecimal() else 0
        return OptimizationPair(
            pair_id=pair_id,
            chain_id=chain_id,
            index=index,
            source=record["source"],
            reference=record["reference"],
            intent=IntentLabel(record["intent"]),
            context=_context(record),
        )

    required = ("pair_id", "source", "reference", "intent")
    return list(read_jsonl(path, required, parse))
