"""The per-instance tables of SARI and BLEU and the per-text token cache
of the heuristic scorers, checked bit for bit against the code they
replaced.

``sari`` and ``_bleu_counts`` now read output-independent tables that
are built once per (source, references), and the heuristic scorers read
each text's tokens from one cache. Below are verbatim copies of the
per-row Counter algebra and of the three scorers as they were before
that change. Seeded rows go through both, and every float is compared
by ``float.hex`` and every count by ``==``. The rows are grouped by
instance, as ``evaluate_run`` scores them, so the cached tables are
both built and reused.
"""

import random
from collections import Counter
from functools import cache

import pytest

from claimpolish import metrics
from claimpolish.corpus import ContextBundle
from claimpolish.metrics import _bleu_counts, _bleu_from_counts, sari, sentence_bleu
from claimpolish.scoring import (
    HeuristicArgumentScorer,
    HeuristicFluencyScorer,
    JaccardMeaningScorer,
)
from claimpolish.text import normalize_whitespace, tokenize

# ---------------------------------------------------------------------------
# the replaced code, verbatim apart from names


def _ngrams(tokens, n):
    return [tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1)]


@cache  # the oracles only read the Counters
def _analyse(text):
    tokens = tuple(tokenize(text))
    return tokens, tuple(Counter(_ngrams(tokens, n)) for n in range(1, 5))


def oracle_bleu_counts(output, references):
    hyp, hyp_grams = _analyse(output)
    refs = [_analyse(ref) for ref in references]
    clipped, totals = [], []
    for n in range(4):
        max_ref: Counter = Counter()
        for _, ref_grams in refs:
            for gram, count in ref_grams[n].items():
                if count > max_ref[gram]:
                    max_ref[gram] = count
        clipped.append(sum(min(count, max_ref[gram]) for gram, count in hyp_grams[n].items()))
        totals.append(sum(hyp_grams[n].values()))
    c = len(hyp)
    r = min((len(tokens) for tokens, _ in refs), key=lambda length: (abs(length - c), length))
    return [*clipped, *totals, c, r]


def _ratio_sum(good, denom):
    if not denom:
        return 1.0
    return sum(good[g] / denom[g] for g in denom) / len(denom)


def _f1(precision, recall):
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def _sari_order(s_grams, o_grams, ref_grams, numref, variant):
    s_rep = Counter({g: c * numref for g, c in s_grams.items()})
    o_rep = Counter({g: c * numref for g, c in o_grams.items()})
    r_pool: Counter = Counter()
    for grams in ref_grams:
        r_pool.update(grams)

    # keep: n-grams retained from the source
    kept = s_rep & o_rep
    kept_good = kept & r_pool
    kept_wanted = s_rep & r_pool
    keep_p = _ratio_sum(kept_good, kept)
    keep_r = _ratio_sum(kept_good, kept_wanted)
    keep = _f1(keep_p, keep_r)

    # delete: n-grams removed from the source
    deleted = s_rep - o_rep
    deleted_good = deleted - r_pool
    deleted_wanted = s_rep - r_pool
    del_p = _ratio_sum(deleted_good, deleted)
    if variant == "canonical":
        delete = del_p
    else:
        del_r = _ratio_sum(deleted_good, deleted_wanted)
        delete = _f1(del_p, del_r)

    # add: n-grams introduced by the output (set semantics)
    added = set(o_rep) - set(s_rep)
    added_good = added & set(r_pool)
    added_wanted = set(r_pool) - set(s_rep)
    add_p = len(added_good) / len(added) if added else 1.0
    add_r = len(added_good) / len(added_wanted) if added_wanted else 1.0
    add = _f1(add_p, add_r)

    return keep, delete, add


def oracle_sari(source, output, references, variant="canonical"):
    s_grams = _analyse(source)[1]
    o_grams = _analyse(output)[1]
    ref_grams = [_analyse(r)[1] for r in references]
    numref = len(references)
    keep_total = delete_total = add_total = 0.0
    for n in range(4):
        keep, delete, add = _sari_order(
            s_grams[n], o_grams[n], [grams[n] for grams in ref_grams], numref, variant
        )
        keep_total += keep
        delete_total += delete
        add_total += add
    return 100.0 * (keep_total / 4 + delete_total / 4 + add_total / 4) / 3.0


_DROPPED_FORMS = frozenset(
    {"dont", "cant", "wont", "isnt", "doesnt", "im", "ive", "thats", "theyre", "didnt"}
)


class OracleFluencyScorer:
    def score(self, source, candidate, context):
        text = candidate.strip()
        if not text:
            return 0.0
        penalty = 0.0
        first_alpha = next((ch for ch in text if ch.isalpha()), None)
        if first_alpha is not None and first_alpha.islower():
            penalty += 0.3
        if text[-1] not in ".!?":
            penalty += 0.3
        words = [t for t in tokenize(text) if t.isalnum()]
        if any(a == b for a, b in zip(words, words[1:])):
            penalty += 0.2
        if any(w in _DROPPED_FORMS for w in words):
            penalty += 0.2
        return max(0.0, 1.0 - penalty)


class OracleJaccardScorer:
    def score(self, source, candidate, context):
        a, b = set(tokenize(source)), set(tokenize(candidate))
        if not a and not b:
            return 1.0
        return len(a & b) / len(a | b)


class OracleArgumentScorer:
    def score(self, source, candidate, context):
        if normalize_whitespace(candidate) == normalize_whitespace(source):
            return 0.2
        new_tokens = set(tokenize(candidate)) - set(tokenize(source))
        value = 0.5 + 0.3 * min(1.0, len(new_tokens) / 5.0)
        text = candidate.strip()
        if text and text[-1] in ".!?":
            value += 0.1
        first_alpha = next((ch for ch in text if ch.isalpha()), None)
        if first_alpha is not None and first_alpha.isupper():
            value += 0.1
        return min(value, 1.0)


# ---------------------------------------------------------------------------
# seeded rows

# A small vocabulary, so grams repeat within and across texts.
WORDS = ["the", "tax", "helps", "towns", "a", "new", "ban", "dont", "it", "Cuts"]
PUNCT = [".", ",", "!", "?"]


def _text(rng, lo, hi):
    tokens = [rng.choice(WORDS) for _ in range(rng.randint(lo, hi))]
    if tokens and rng.random() < 0.5:
        tokens.append(rng.choice(PUNCT))
    return " ".join(tokens)


def _edit(rng, text):
    """``text`` with a few words dropped, swapped or added."""
    words = text.split()
    for _ in range(rng.randint(1, 3)):
        roll = rng.random()
        if roll < 0.4 and len(words) > 1:
            del words[rng.randrange(len(words))]
        elif roll < 0.7 and words:
            words[rng.randrange(len(words))] = rng.choice(WORDS)
        else:
            words.insert(rng.randint(0, len(words)), rng.choice(WORDS + PUNCT))
    return " ".join(words) or rng.choice(WORDS)


def _pad(rng, text):
    """``text``, sometimes with whitespace at either end."""
    return rng.choice(["", " ", "\t", "  \n"]) + text + rng.choice(["", " ", "\n", " \t "])


def instances(n_instances, outputs_per_instance, seed):
    """(source, references, outputs) triples. The outputs include the
    source itself, each reference, outputs of at most 3 tokens, edits of
    the source and unrelated texts, some with surrounding whitespace."""
    rng = random.Random(seed)
    for _ in range(n_instances):
        source = _text(rng, 1, 12)
        references = [_edit(rng, source) for _ in range(rng.randint(1, 3))]
        outputs = [source, *references]
        while len(outputs) < outputs_per_instance:
            roll = rng.random()
            if roll < 0.2:
                outputs.append(_text(rng, 1, 3))
            elif roll < 0.8:
                outputs.append(_edit(rng, source))
            else:
                outputs.append(_text(rng, 1, 14))
        yield source, references, [_pad(rng, text) for text in outputs]


N_INSTANCES, OUTPUTS_PER_INSTANCE = 1000, 10  # 10000 rows per test


@pytest.mark.parametrize("variant, seed", [("canonical", 11), ("all_f1", 15)])
def test_sari_is_the_counter_algebra_bit_for_bit(variant, seed):
    # the Counter algebra is slow, so each variant takes half of 10000 rows
    rows = 0
    for source, references, outputs in instances(N_INSTANCES // 2, OUTPUTS_PER_INSTANCE, seed):
        for output in outputs:
            assert sari(source, output, references, variant=variant).hex() == oracle_sari(
                source, output, references, variant
            ).hex(), (source, output, references)
            rows += 1
    assert rows >= 5_000


def test_bleu_counts_and_sentence_bleu_match_the_max_ref_loop():
    rows = 0
    for source, references, outputs in instances(N_INSTANCES, OUTPUTS_PER_INSTANCE, seed=12):
        for output in outputs:
            counts = oracle_bleu_counts(output, references)
            assert _bleu_counts(output, references) == counts, (output, references)
            expected = _bleu_from_counts(counts) if _analyse(output)[0] else 0.0
            assert sentence_bleu(output, references).hex() == expected.hex()
            rows += 1
    assert rows >= 10_000


def test_heuristic_scorers_match_their_uncached_versions():
    pairs = [
        (HeuristicFluencyScorer(), OracleFluencyScorer()),
        (JaccardMeaningScorer(), OracleJaccardScorer()),
        (HeuristicArgumentScorer(), OracleArgumentScorer()),
    ]
    context = ContextBundle()
    rows = 0
    for source, _, outputs in instances(N_INSTANCES, OUTPUTS_PER_INSTANCE, seed=13):
        for candidate in outputs:
            for scorer, oracle in pairs:
                assert scorer.score(source, candidate, context).hex() == float(
                    oracle.score(source, candidate, context)
                ).hex(), (type(scorer).__name__, source, candidate)
            rows += 1
        # the padded source: same tokens, and for the argument scorer the same text
        padded = f" {source}\n"
        for scorer, oracle in pairs:
            assert scorer.score(padded, source, context) == oracle.score(padded, source, context)
    assert rows >= 10_000


def test_rows_cover_the_edge_cases():
    seen = Counter()
    for source, references, outputs in instances(N_INSTANCES, OUTPUTS_PER_INSTANCE, seed=11):
        seen[f"{len(references)} refs"] += 1
        for output in outputs:
            tokens = _analyse(output)[0]
            seen["short output"] += len(tokens) < 4
            seen["repeated gram"] += len(set(tokens)) < len(tokens)
            seen["output is source"] += output.strip() == source
            seen["output is a reference"] += output.strip() in references
            seen["padded"] += output != output.strip()
    for case in (
        "1 refs", "2 refs", "3 refs", "short output", "repeated gram",
        "output is source", "output is a reference", "padded",
    ):
        assert seen[case] >= 100, case


def test_metrics_table_cache_was_exercised():
    metrics._sari_tables.cache_clear()
    for source, references, outputs in instances(20, OUTPUTS_PER_INSTANCE, seed=14):
        for output in outputs:
            sari(source, output, references)
    info = metrics._sari_tables.cache_info()
    assert info.misses == 20 and info.hits == 20 * (OUTPUTS_PER_INSTANCE - 1)
