"""Seeded input generators for the claimpolish benchmark.

Every generator is a pure function of its arguments: the same seed and
sizes give byte-identical files. Only the standard library's
``random.Random`` is used, whose ``choice``/``choices``/``sample``/
``randrange`` streams are stable across Python versions.

Shapes:

* gate-style pairs: short ``subject verb object case i`` claims over a
  vocabulary of about 30 types, half rough and half already clean;
* large-vocabulary pairs: 8-24 tokens drawn Zipf-style from a seeded
  vocabulary of several thousand synthetic word types, with the mock
  generator's trigger words (hedges, synonym keys, apostrophe-dropped
  contractions) mixed in, again half rough and half clean;
* revision chains: a rough draft followed by cleanups and elaborations;
* annotations: Likert and ranking records over ``<pair>::<strategy>``
  items, with a few planted spammer workers who answer at random.
"""

from __future__ import annotations

import itertools
import json
import random
from pathlib import Path

SUBJECTS = (
    "the tax", "school uniforms", "remote work", "the policy", "open data",
    "this ban", "the subsidy", "early voting", "the curfew", "free transit",
)
VERBS = ("helps", "hurts", "changes", "improves", "supports")
OBJECTS = (
    "local business", "public trust", "student outcomes", "the economy", "small towns",
)
TASK_INTENTS = ("clarification", "typo_grammar", "links")
CHAIN_INTENTS = ("clarification", "typo_grammar", "links", "meaning_change", None)

# Words the mock generator and the heuristic scorers react to.
HEDGES = ("maybe", "perhaps", "possibly", "probably", "somewhat", "arguably", "likely")
SYNONYM_KEYS = (
    "good", "bad", "big", "small", "many", "people", "important", "wrong", "shows", "helps",
)
DROPPED = {
    "its": "it's", "dont": "don't", "cant": "can't", "wont": "won't", "isnt": "isn't",
    "doesnt": "doesn't", "thats": "that's", "theyre": "they're",
}
TRIGGERS = HEDGES + SYNONYM_KEYS + tuple(DROPPED)

_ONSETS = ("b", "d", "f", "g", "k", "l", "m", "n", "p", "r", "s", "t", "v", "z",
           "br", "dr", "gr", "kl", "pl", "st", "tr", "sk")
_VOWELS = ("a", "e", "i", "o", "u", "ai", "ou")
_CODAS = ("", "", "n", "r", "s", "l", "m", "k")

ANNOTATION_STRATEGIES = ("unedited", "top1", "autoscore", "pairwise_rank")
# Latent quality per judged strategy; honest workers' labels follow it.
_STRATEGY_QUALITY = {"unedited": 0.2, "top1": 0.45, "autoscore": 0.8, "pairwise_rank": 0.6}
FIELD_BOUNDS = {"fluency": (1, 3), "meaning": (1, 5), "argument": (1, 5)}


def write_jsonl(path: str | Path, records) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")


def _pair_record(pair_id, source, reference, intent, topic, previous) -> dict:
    # the field layout claimpolish.corpus.write_pairs emits
    return {
        "pair_id": pair_id,
        "source": source,
        "reference": reference,
        "intent": intent,
        "topic": topic,
        "previous_claim": previous,
    }


def gate_pairs(n: int, seed: int) -> list[dict]:
    """Short pairs over a ~30-type vocabulary: even rows rough, odd rows clean."""
    rng = random.Random(seed)
    records = []
    for i in range(n):
        body = f"{rng.choice(SUBJECTS)} {rng.choice(VERBS)} {rng.choice(OBJECTS)} case {i}"
        if i % 2 == 0:
            source, reference = body, body.capitalize() + "."
        else:
            source = body.capitalize() + "."
            reference = source + f" This matters for {rng.choice(OBJECTS)}."
        records.append(
            _pair_record(
                f"gate{i:05d}#1",
                source,
                reference,
                rng.choice(TASK_INTENTS),
                f"debate about {rng.choice(OBJECTS)}",
                f"someone said {rng.choice(SUBJECTS)} {rng.choice(VERBS)}",
            )
        )
    return records


class Vocabulary:
    """A seeded set of synthetic word types sampled with Zipf (s = 1) weights."""

    def __init__(self, size: int, seed: int):
        rng = random.Random(f"vocab-{seed}")
        reserved = set(TRIGGERS)
        words: list[str] = []
        seen: set[str] = set()
        while len(words) < size:
            word = "".join(
                rng.choice(_ONSETS) + rng.choice(_VOWELS) + rng.choice(_CODAS)
                for _ in range(rng.randint(2, 3))
            )
            if word not in seen and word not in reserved:
                seen.add(word)
                words.append(word)
        self.words = words
        self._cum = list(itertools.accumulate(1.0 / (rank + 1) for rank in range(size)))

    def draw(self, rng: random.Random, k: int) -> list[str]:
        return rng.choices(self.words, cum_weights=self._cum, k=k)


def _rough_tokens(rng: random.Random, vocab: Vocabulary) -> list[str]:
    tokens = vocab.draw(rng, rng.randint(8, 24))
    # one to three trigger words, so every mock rewrite rule has material
    for _ in range(rng.randint(1, 3)):
        tokens[rng.randrange(len(tokens))] = rng.choice(TRIGGERS)
    return tokens


def _clean(tokens: list[str]) -> str:
    fixed = [DROPPED.get(t, t) for t in tokens]
    text = " ".join(fixed)
    return text[0].upper() + text[1:] + "."


def _large_vocab_pair(rng: random.Random, vocab: Vocabulary, pair_id: str, rough: bool) -> dict:
    tokens = _rough_tokens(rng, vocab)
    if rough:
        source, reference = " ".join(tokens), _clean(tokens)
    else:
        source = _clean(tokens)
        reference = source + " " + _clean(vocab.draw(rng, rng.randint(4, 9)))
    return _pair_record(
        pair_id,
        source,
        reference,
        rng.choice(TASK_INTENTS),
        "debate about " + " ".join(vocab.draw(rng, rng.randint(2, 4))),
        " ".join(vocab.draw(rng, rng.randint(6, 12))),
    )


def large_vocab_pairs(n: int, seed: int, vocab: Vocabulary, prefix: str = "lv") -> list[dict]:
    """8-24-token pairs: even rows rough, odd rows clean."""
    rng = random.Random(f"{prefix}-{seed}")
    return [
        _large_vocab_pair(rng, vocab, f"{prefix}{i:05d}#1", rough=i % 2 == 0) for i in range(n)
    ]


def chain_records(n_chains: int, seed: int, prefix: str = "ch") -> list[dict]:
    """Revision chains: a rough draft, then a cleanup, then elaborations."""
    rng = random.Random(seed)
    records = []
    for ci in range(n_chains):
        base = f"{rng.choice(SUBJECTS)} {rng.choice(VERBS)} {rng.choice(OBJECTS)}"
        claims = [{"id": f"{prefix}{seed}_{ci}_0", "text": base}]
        current = base
        intents = []
        for ri in range(1, rng.randint(1, 3) + 1):
            if ri == 1:
                current = current.capitalize() + "."
            else:
                current = current + f" This matters for {rng.choice(OBJECTS)}."
            claims.append({"id": f"{prefix}{seed}_{ci}_{ri}", "text": current})
            intents.append(rng.choice(CHAIN_INTENTS))
        records.append(
            {
                "chain_id": f"{prefix}{seed}_{ci:05d}",
                "debate_id": f"d{ci % 5}",
                "claims": claims,
                "intents": intents,
                "topic": f"debate about {rng.choice(OBJECTS)}",
                "previous_claim": (
                    f"someone said {rng.choice(SUBJECTS)} "
                    f"{rng.choice(VERBS)} {rng.choice(OBJECTS)}"
                ),
            }
        )
    return records


def annotation_records(
    n_pairs: int,
    seed: int,
    n_workers: int = 12,
    n_spammers: int = 3,
    likert_per_item: int = 6,
    rankings_per_pair: int = 8,
) -> tuple[list[dict], list[str]]:
    """Likert and ranking records plus the ids of the planted spammers.

    Honest workers give the item's latent label, off by one 10% of the
    time; spammers answer uniformly at random and rank in random order.
    """
    rng = random.Random(f"annotations-{seed}")
    workers = [f"w{j:02d}" for j in range(n_workers)]
    spammers = sorted(rng.sample(workers, n_spammers))
    spam = set(spammers)
    records = []
    for p in range(n_pairs):
        pair = f"ann{p:05d}#1"
        difficulty = rng.uniform(-0.25, 0.25)
        for strategy in ANNOTATION_STRATEGIES:
            quality = min(max(_STRATEGY_QUALITY[strategy] + difficulty, 0.0), 1.0)
            item = f"{pair}::{strategy}"
            for fld, (lo, hi) in FIELD_BOUNDS.items():
                truth = lo + round(quality * (hi - lo))
                for worker in sorted(rng.sample(workers, likert_per_item)):
                    if worker in spam:
                        value = rng.randint(lo, hi)
                    elif rng.random() < 0.1:
                        value = min(max(truth + rng.choice((-1, 1)), lo), hi)
                    else:
                        value = truth
                    records.append({"item": item, "worker": worker, "field": fld, "value": value})
        for worker in sorted(rng.sample(workers, rankings_per_pair)):
            if worker in spam:
                ranking = list(ANNOTATION_STRATEGIES)
                rng.shuffle(ranking)
            else:
                noisy = {s: _STRATEGY_QUALITY[s] + rng.gauss(0.0, 0.12) for s in ANNOTATION_STRATEGIES}
                ranking = sorted(ANNOTATION_STRATEGIES, key=lambda s: -noisy[s])
            records.append({"item": pair, "worker": worker, "ranking": ranking})
    return records, spammers
