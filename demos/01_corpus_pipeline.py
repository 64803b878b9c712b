"""Build a pairwise rewriting dataset out of revision chains.

A chain is one claim plus its successive revisions; adjacent versions
become (source, reference) optimization pairs. This walks the whole
corpus path: load, derive, fill missing intent labels, filter to the
intents the rewriting task targets, and make a chain-disjoint split.

Run: python3 demos/01_corpus_pipeline.py
"""

import json
import tempfile
from pathlib import Path

from claimpolish.corpus import (
    TASK_INTENTS,
    derive_pairs,
    filter_by_intent,
    load_chains,
    majority_intent,
    relabel_pairs,
    split_dataset,
)

INTENTS = ["clarification", "typo_grammar", "links", "meaning_change", None]


def synthetic_chain(ci):
    base = f"claim {ci} needs work"
    claims = [base, base.capitalize() + ".", base.capitalize() + ". It matters."]
    return {
        "chain_id": f"demo{ci:03d}",
        "debate_id": f"debate{ci % 7}",
        "claims": [
            {"id": f"demo{ci:03d}_v{i}", "text": text}
            for i, text in enumerate(claims)
        ],
        "intents": [INTENTS[ci % 5], INTENTS[(ci + 1) % 5]],
        "topic": f"topic {ci % 7}",
        "previous_claim": "the opposing side said something",
    }


def main():
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "chains.jsonl"
        with open(path, "w") as fh:
            for ci in range(40):
                fh.write(json.dumps(synthetic_chain(ci)) + "\n")

        chains = load_chains(path)
        print(f"loaded {len(chains)} chains")

        pairs = [p for chain in chains for p in derive_pairs(chain)]
        print(f"derived {len(pairs)} adjacent-revision pairs")
        unlabeled = sum(p.intent.value == "unlabeled" for p in pairs)
        print(f"  {unlabeled} pairs came without an intent label")

        pairs = relabel_pairs(pairs, majority_intent(pairs))
        unlabeled = sum(p.intent.value == "unlabeled" for p in pairs)
        print(f"after majority relabeling: {unlabeled} unlabeled left")

        kept = filter_by_intent(pairs, TASK_INTENTS)
        print(f"task intents {sorted(i.value for i in TASK_INTENTS)}")
        print(f"filtered {len(pairs)} -> {len(kept)} pairs")

        split = split_dataset(kept, per_label_test=3, seed=0)
        print(f"split: {len(split.train)} train / {len(split.validation)} val / "
              f"{len(split.test)} test")
        train_chains = {p.chain_id for p in split.train}
        test_chains = {p.chain_id for p in split.test}
        print(f"train/test chain overlap: {len(train_chains & test_chains)}")

        example = split.test[0]
        print("\none test pair:")
        print(f"  source:    {example.source!r}")
        print(f"  reference: {example.reference!r}")
        print(f"  intent:    {example.intent.value}")


if __name__ == "__main__":
    main()
