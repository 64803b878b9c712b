"""Revision-chain corpus model: loading, pairing, labeling, splitting.

A revision chain is the edit history of one argumentative claim: an
ordered list of claim versions c1..cm plus one intent label per edit.
Adjacent versions form optimization pairs (source -> reference) that
downstream modules train on, generate against, and evaluate with.

File formats handled here:

* ``chains.jsonl``  one chain per line:
  ``{"chain_id", "debate_id", "topic", "previous_claim", "claims":
  [{"id", "text"}, ...], "intents": [str, ...]}``
  (``topic`` / ``previous_claim`` may be null or absent)
* ``pairs.jsonl``   one pair per line:
  ``{"pair_id", "source", "reference", "intent", "topic",
  "previous_claim"}``
* ``types.jsonl``   one annotation per line:
  ``{"pair_id", "annotator", "types": [str, ...]}``
"""

from __future__ import annotations

import dataclasses
import enum
import logging
import random
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from pathlib import Path

from .ndjson import encode_line, read_jsonl

log = logging.getLogger(__name__)


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

# Labels a relabeler is allowed to emit (everything except UNLABELED).
ASSIGNABLE_INTENTS = frozenset(label for label in IntentLabel) - {IntentLabel.UNLABELED}


class OptimizationType(enum.Enum):
    """Fine-grained categories of how a rewrite improves a claim."""

    SPECIFICATION = "specification"
    SIMPLIFICATION = "simplification"
    REFRAMING = "reframing"
    ELABORATION = "elaboration"
    CORROBORATION = "corroboration"
    NEUTRALIZATION = "neutralization"
    DISAMBIGUATION = "disambiguation"
    COPY_EDITING = "copy_editing"


class ContextMode(enum.Enum):
    """How much debate context gets serialized alongside the source claim;
    the values are the ``--context`` words."""

    CLAIM_ONLY = "none"
    WITH_PREVIOUS = "previous"
    WITH_TOPIC = "topic"
    WITH_BOTH = "both"


@dataclass(frozen=True)
class Claim:
    id: str
    text: str
    debate_id: str

    def __post_init__(self):
        if not self.text.strip():
            raise ValueError(f"claim {self.id!r} has empty text")


@dataclass(frozen=True)
class ContextBundle:
    """Optional debate context shared by every pair of one chain."""

    topic: str | None = None
    previous_claim: str | None = None


@dataclass(frozen=True)
class RevisionChain:
    chain_id: str
    claims: tuple[Claim, ...]
    intents: tuple[IntentLabel, ...]
    context: ContextBundle = ContextBundle()

    def __post_init__(self):
        if len(self.claims) < 1:
            raise ValueError(f"chain {self.chain_id!r} has no claims")
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
    source: Claim
    reference: Claim
    intent: IntentLabel
    context: ContextBundle = ContextBundle()


@dataclass(frozen=True)
class TypeAnnotation:
    """One annotator's optimization-type judgment for one pair."""

    pair_id: str
    annotator: str
    types: frozenset[OptimizationType]


@dataclass(frozen=True)
class DatasetSplit:
    train: tuple[OptimizationPair, ...]
    validation: tuple[OptimizationPair, ...]
    test: tuple[OptimizationPair, ...]
    seed: int


@dataclass(frozen=True)
class DelimiterConfig:
    """Marker tokens that introduce context segments in serialized inputs."""

    previous: str = "<PREV>"
    topic: str = "<TOPIC>"


# ---------------------------------------------------------------------------
# loading


def _context(record: dict) -> ContextBundle:
    topic, previous = record.get("topic") or None, record.get("previous_claim") or None
    if not all(isinstance(text, (str, type(None))) for text in (topic, previous)):
        raise ValueError("topic and previous_claim must be strings or null")
    return ContextBundle(topic=topic, previous_claim=previous)


def _parse_chain(record: dict) -> RevisionChain:
    raw_claims, raw_intents = record["claims"], record["intents"]
    if not isinstance(raw_claims, list) or not isinstance(raw_intents, list):
        raise ValueError("claims and intents must be lists")
    claims = []
    for entry in raw_claims:
        if not isinstance(entry, dict) or "id" not in entry or "text" not in entry:
            raise ValueError("each claim needs 'id' and 'text'")
        if not isinstance(entry["text"], str):
            raise ValueError(f"claim 'text' must be a string, got {entry['text']!r}")
        claims.append(
            Claim(id=str(entry["id"]), text=entry["text"], debate_id=str(record["debate_id"]))
        )
    intents = (IntentLabel.UNLABELED if raw is None else IntentLabel(raw) for raw in raw_intents)
    return RevisionChain(
        chain_id=str(record["chain_id"]),
        claims=tuple(claims),
        intents=tuple(intents),
        context=_context(record),
    )


def load_chains(path: str | Path) -> list[RevisionChain]:
    """Read a chains.jsonl file, validating every line.

    Raises RecordFormatError naming the offending line on malformed JSON,
    schema violations, empty claim texts, or duplicate ids.
    """
    seen_chain_ids: set[str] = set()
    seen_claim_ids: set[str] = set()

    def parse(record: dict) -> RevisionChain:
        chain = _parse_chain(record)
        if chain.chain_id in seen_chain_ids:
            raise ValueError(f"duplicate chain_id {chain.chain_id!r}")
        seen_chain_ids.add(chain.chain_id)
        for claim in chain.claims:
            if claim.id in seen_claim_ids:
                raise ValueError(f"duplicate claim id {claim.id!r}")
            seen_claim_ids.add(claim.id)
        return chain

    required = ("chain_id", "debate_id", "claims", "intents")
    return [chain for _, chain in read_jsonl(path, required, parse)]


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


Labeler = Callable[[str, str], IntentLabel]


def constant_labeler(label: IntentLabel) -> Labeler:
    """A labeler that assigns the same intent to every pair."""
    if label not in ASSIGNABLE_INTENTS:
        raise ValueError(f"cannot assign {label}")
    return lambda source, reference: label


def majority_labeler(pairs: Sequence[OptimizationPair]) -> Labeler:
    """A labeler that always predicts the most frequent labeled intent.

    Ties break toward the intent that sorts first by value. Useful as a
    degenerate fallback when no trained intent classifier is configured.
    """
    counts: dict[IntentLabel, int] = {}
    for pair in pairs:
        if pair.intent is not IntentLabel.UNLABELED:
            counts[pair.intent] = counts.get(pair.intent, 0) + 1
    if not counts:
        raise ValueError("no labeled pairs to take a majority from")
    winner = min(counts, key=lambda lab: (-counts[lab], lab.value))
    return constant_labeler(winner)


def relabel_pairs(pairs: Sequence[OptimizationPair], labeler: Labeler) -> list[OptimizationPair]:
    """Fill in UNLABELED intents using ``labeler``; labeled pairs pass through.

    A labeler failure (exception, or a label outside the assignable set)
    leaves that pair unlabeled and logs a warning; text fields are never
    touched.
    """
    out = []
    for pair in pairs:
        if pair.intent is not IntentLabel.UNLABELED:
            out.append(pair)
            continue
        try:
            label = labeler(pair.source.text, pair.reference.text)
            if label not in ASSIGNABLE_INTENTS:
                raise ValueError(f"labeler returned {label!r}")
        except Exception as exc:
            log.warning("labeler failed on pair %s: %s", pair.pair_id, exc)
            out.append(pair)
            continue
        out.append(dataclasses.replace(pair, intent=label))
    return out


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


# Allowed ``split_dataset`` granularities; the first is the default.
GRANULARITIES = ("chain", "pair")


def split_dataset(
    pairs: Sequence[OptimizationPair],
    per_label_test: int,
    train_fraction: float = 0.9,
    seed: int = 0,
    granularity: str = GRANULARITIES[0],
) -> DatasetSplit:
    """Carve a label-balanced test set, then split the rest into train/val.

    The test set draws ``per_label_test`` pairs for every intent present
    in ``pairs``. Chains that contributed a test pair are then excluded
    entirely, and the remaining chains are split ``train_fraction`` /
    ``1 - train_fraction``. With ``granularity="pair"`` the residual
    split shuffles pairs instead of chains; that mode can place two
    pairs of one chain on both sides of the train/validation boundary,
    so the no-chain-overlap guarantee only holds for ``"chain"``.

    The same seed always produces the same split; each partition comes
    back sorted by (chain_id, step index).
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction}")
    if per_label_test < 0:
        raise ValueError("per_label_test must be >= 0")
    if granularity not in GRANULARITIES:
        raise ValueError(f"unknown granularity {granularity!r}")

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

    if granularity == "chain":
        chain_ids = sorted({p.chain_id for p in residual})
        rng.shuffle(chain_ids)
        n_train = int(round(train_fraction * len(chain_ids)))
        train_chains = set(chain_ids[:n_train])
        train = [p for p in residual if p.chain_id in train_chains]
        validation = [p for p in residual if p.chain_id not in train_chains]
    else:
        shuffled = list(residual)
        rng.shuffle(shuffled)
        n_train = int(round(train_fraction * len(shuffled)))
        train = shuffled[:n_train]
        validation = shuffled[n_train:]

    return DatasetSplit(
        train=tuple(sorted(train, key=_pair_key)),
        validation=tuple(sorted(validation, key=_pair_key)),
        test=tuple(sorted(test, key=_pair_key)),
        seed=seed,
    )


# ---------------------------------------------------------------------------
# input serialization


def serialize_input(
    pair: OptimizationPair,
    mode: ContextMode = ContextMode.CLAIM_ONLY,
    delimiters: DelimiterConfig = DelimiterConfig(),
) -> str:
    """Flatten a pair into the single string a generator consumes.

    Grammar: ``SOURCE (" " PREV_DELIM " " PREVIOUS)? (" " TOPIC_DELIM
    " " TOPIC)?`` with the previous-claim segment always ahead of the
    topic segment. Raises MissingContextError when the mode needs a
    field the pair's context does not carry.
    """
    parts = [pair.source.text]
    if mode in (ContextMode.WITH_PREVIOUS, ContextMode.WITH_BOTH):
        if not pair.context.previous_claim:
            raise MissingContextError(f"pair {pair.pair_id}: no previous_claim in context")
        parts += [delimiters.previous, pair.context.previous_claim]
    if mode in (ContextMode.WITH_TOPIC, ContextMode.WITH_BOTH):
        if not pair.context.topic:
            raise MissingContextError(f"pair {pair.pair_id}: no topic in context")
        parts += [delimiters.topic, pair.context.topic]
    return " ".join(parts)


# ---------------------------------------------------------------------------
# pair and type-annotation files


def pair_to_record(pair: OptimizationPair) -> dict:
    return {
        "pair_id": pair.pair_id,
        "source": pair.source.text,
        "reference": pair.reference.text,
        "intent": pair.intent.value,
        "topic": pair.context.topic,
        "previous_claim": pair.context.previous_claim,
    }


def write_pairs(pairs: Iterable[OptimizationPair], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(encode_line(pair_to_record(pair)) for pair in pairs)


def load_pairs(path: str | Path) -> list[OptimizationPair]:
    """Read a pairs.jsonl file written by :func:`write_pairs`.

    The flat format stores no claim ids, so synthetic ones are minted
    from the pair id; the chain id is recovered from the ``chain#index``
    pair-id convention when present.
    """

    def parse(record: dict) -> OptimizationPair:
        pair_id = str(record["pair_id"])
        if "#" in pair_id:
            chain_id, _, idx_text = pair_id.rpartition("#")
            index = int(idx_text) if idx_text.isdigit() else 0
        else:
            chain_id, index = pair_id, 0
        for key in ("source", "reference"):
            if not isinstance(record[key], str):
                raise ValueError(f"{key!r} must be a string, got {record[key]!r}")
        return OptimizationPair(
            pair_id=pair_id,
            chain_id=chain_id,
            index=index,
            source=Claim(id=f"{pair_id}.src", text=record["source"], debate_id=""),
            reference=Claim(id=f"{pair_id}.ref", text=record["reference"], debate_id=""),
            intent=IntentLabel(record["intent"]),
            context=_context(record),
        )

    required = ("pair_id", "source", "reference", "intent")
    return [pair for _, pair in read_jsonl(path, required, parse)]


def load_type_annotations(path: str | Path) -> list[TypeAnnotation]:
    """Read a types.jsonl sidecar of per-annotator optimization types."""

    def parse(record: dict) -> TypeAnnotation:
        if not isinstance(record["types"], list):
            raise ValueError(f"types must be a list, got {record['types']!r}")
        return TypeAnnotation(
            pair_id=str(record["pair_id"]),
            annotator=str(record["annotator"]),
            types=frozenset(OptimizationType(t) for t in record["types"]),
        )

    return [ann for _, ann in read_jsonl(path, ("pair_id", "annotator", "types"), parse)]
