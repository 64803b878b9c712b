"""The per-instance tables of SARI and BLEU, the per-text token cache of
the heuristic scorers and the one-pass evaluation hot path, checked bit
for bit against the code they replaced.

``sari`` and ``_bleu_counts`` read output-independent tables that are
built once per (source, reference), and the heuristic scorers read
each text's tokens from one cache. Below are verbatim copies of the
per-row Counter algebra and of the three scorers as they were before
that change. Then come verbatim copies of the table-based code as it was
before SARI became one pass over its rows, BLEU clipping one lookup per
gram, n-gram counting a ``zip`` over shifted tokens, ROUGE-L's masks one
build per reference and the embedding norms ``sqrt(v . v)``. Seeded rows
go through both, and every float is compared by ``float.hex``, every
count by ``==`` and every vector by its bytes. The rows are grouped by
instance, as ``evaluate_run`` scores them, so the cached tables are both
built and reused. The copies take a list of references; an instance of
the seeded rows may draw several, and each is checked as its own
single-reference instance, passed to the copies as a one-item list.
"""

import hashlib
import random
from collections import Counter
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from functools import cache

import numpy as np
import pytest

from claimpolish import metrics
from claimpolish.corpus import ContextBundle
from claimpolish.embedding import HashingEmbedder, cosine
from claimpolish.metrics import (
    _bleu_counts,
    _bleu_from_counts,
    _f1,
    left_sum,
    rouge_l,
    sari,
    sentence_bleu,
)
from claimpolish.scoring import (
    HeuristicArgumentScorer,
    HeuristicFluencyScorer,
    JaccardMeaningScorer,
)
from claimpolish.text import normalize_whitespace, tokenize

# The copies below were written for the builtin sum() of CPython 3.11 and
# earlier, which adds floats left to right; from 3.12 on it compensates
# their rounding, so they take 3.11's sum() on every interpreter.
sum = left_sum  # noqa: A001

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
# the table-based code the one-pass hot path replaced, verbatim apart from
# names and the cache decorators (a plain ``cache`` stands for each bounded one)


@cache
def head_bleu_refs(references):
    refs = [_analyse(ref) for ref in references]
    tables = []
    for n in range(4):
        max_ref: Counter = Counter()
        for _, ref_grams in refs:
            max_ref |= ref_grams[n]
        tables.append(max_ref)
    return tuple(tables), tuple(len(tokens) for tokens, _ in refs)


def head_bleu_counts(output, references):
    hyp, hyp_grams = _analyse(output)
    tables, ref_lengths = head_bleu_refs(tuple(references))
    clipped = [
        sum(min(grams[g], table[g]) for g in grams.keys() & table.keys())
        for grams, table in zip(hyp_grams, tables)
    ]
    totals = [sum(grams.values()) for grams in hyp_grams]
    c = len(hyp)
    r = min(ref_lengths, key=lambda length: (abs(length - c), length))
    return [*clipped, *totals, c, r]


def head_lcs_length(a, b):
    matches: dict[str, int] = {}
    for j, token in enumerate(b):
        matches[token] = matches.get(token, 0) | 1 << j
    full = (1 << len(b)) - 1
    row = full
    for token in a:
        hit = row & matches.get(token, 0)
        row = ((row + hit) | (row - hit)) & full
    return len(b) - row.bit_count()


def head_rouge_l(output, reference):
    out_tokens = _analyse(output)[0]
    ref_tokens = _analyse(reference)[0]
    if not out_tokens or not ref_tokens:
        raise ValueError("both texts must be non-empty")
    lcs = head_lcs_length(out_tokens, ref_tokens)
    precision = lcs / len(out_tokens)
    recall = lcs / len(ref_tokens)
    return _f1(precision, recall)


def head_ratio_sum(good: Mapping, denom: Sequence[tuple]) -> float:
    if not denom:
        return 1.0
    return sum(good.get(g, 0) / count for g, count in denom) / len(denom)


@dataclass(frozen=True)
class HeadSariTable:
    rows: tuple
    keep_wanted: tuple
    delete_wanted: tuple
    n_add_wanted: int
    pool: frozenset


@cache
def head_sari_tables(source, references):
    s_grams = _analyse(source)[1]
    ref_grams = [_analyse(r)[1] for r in references]
    numref = len(references)
    tables = []
    for n in range(4):
        r_pool: Counter = Counter()
        for grams in ref_grams:
            r_pool.update(grams[n])
        rows = tuple((g, c * numref, r_pool[g]) for g, c in s_grams[n].items())
        tables.append(
            HeadSariTable(
                rows=rows,
                keep_wanted=tuple((g, min(s, r)) for g, s, r in rows if min(s, r) > 0),
                delete_wanted=tuple((g, s - r) for g, s, r in rows if s - r > 0),
                n_add_wanted=len(r_pool.keys() - s_grams[n].keys()),
                pool=frozenset(r_pool),
            )
        )
    return tuple(tables)


def head_sari_order(table, o_grams, numref, variant):
    kept, kept_good, deleted, deleted_good = [], {}, [], {}
    for g, s, r in table.rows:
        o = o_grams.get(g, 0) * numref
        k = min(s, o)  # kept = s_rep & o_rep
        if k > 0:
            kept.append((g, k))
            if min(k, r) > 0:  # kept_good = kept & r_pool
                kept_good[g] = min(k, r)
        d = s - o  # deleted = s_rep - o_rep
        if d > 0:
            deleted.append((g, d))
            if d - r > 0:  # deleted_good = deleted - r_pool
                deleted_good[g] = d - r

    keep = _f1(
        head_ratio_sum(kept_good, kept), head_ratio_sum(kept_good, table.keep_wanted)
    )

    del_p = head_ratio_sum(deleted_good, deleted)
    if variant == "canonical":
        delete = del_p
    else:
        delete = _f1(del_p, head_ratio_sum(deleted_good, table.delete_wanted))

    n_added = len(o_grams) - len(kept)
    n_added_good = len(o_grams.keys() & table.pool) - len(kept_good)
    add_p = n_added_good / n_added if n_added else 1.0
    add_r = n_added_good / table.n_add_wanted if table.n_add_wanted else 1.0
    add = _f1(add_p, add_r)

    return keep, delete, add


def head_sari(source, output, references, variant="canonical"):
    tables = head_sari_tables(source, tuple(references))
    o_grams = _analyse(output)[1]
    keep_total = delete_total = add_total = 0.0
    for table, grams in zip(tables, o_grams):
        keep, delete, add = head_sari_order(table, grams, len(references), variant)
        keep_total += keep
        delete_total += delete
        add_total += add
    return 100.0 * (keep_total / 4 + delete_total / 4 + add_total / 4) / 3.0


class HeadEmbedder:
    """The embedder as it was when its dimension and seed were parameters
    and its norm was ``np.linalg.norm``."""

    def __init__(self, dim, seed):
        self.dim = dim
        self._key = (seed % 2**64).to_bytes(8, "little")
        self._slots = {}

    def _slot(self, token):
        digest = hashlib.blake2b(token.encode("utf-8"), key=self._key, digest_size=8).digest()
        value = int.from_bytes(digest, "little")
        index = value % self.dim
        sign = 1.0 if (value >> 32) & 1 else -1.0
        return index, sign

    def embed(self, text):
        vec = np.zeros(self.dim, dtype=np.float64)
        slots = self._slots
        for token in tokenize(text):
            slot = slots.get(token)
            if slot is None:
                slot = slots[token] = self._slot(token)
            vec[slot[0]] += slot[1]
        norm = np.linalg.norm(vec)
        if norm > 0:
            vec /= norm
        return vec


def head_cosine(a, b):
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(np.dot(a, b) / (na * nb))


# ---------------------------------------------------------------------------
# seeded rows

# A small vocabulary, so grams repeat within and across texts.
WORDS = ["the", "tax", "helps", "towns", "a", "new", "ban", "dont", "it", "Cuts"]
PUNCT = [".", ",", "!", "?"]


# The same mix with non-ASCII words and punctuation; some change length
# when lowercased ("İ" becomes two code points).
NON_ASCII_WORDS = [
    "straße", "Ärger", "naïve", "café", "日本", "økonomi", "ÉCOLE", "İstanbul", "the", "œuvre",
]
NON_ASCII_PUNCT = ["—", "¿", "…", "«"]


def _text(rng, lo, hi, words=WORDS, punct=PUNCT):
    tokens = [rng.choice(words) for _ in range(rng.randint(lo, hi))]
    if tokens and rng.random() < 0.5:
        tokens.append(rng.choice(punct))
    return " ".join(tokens)


def _edit(rng, text, words=WORDS, punct=PUNCT):
    """``text`` with a few words dropped, swapped or added."""
    tokens = text.split()
    for _ in range(rng.randint(1, 3)):
        roll = rng.random()
        if roll < 0.4 and len(tokens) > 1:
            del tokens[rng.randrange(len(tokens))]
        elif roll < 0.7 and tokens:
            tokens[rng.randrange(len(tokens))] = rng.choice(words)
        else:
            tokens.insert(rng.randint(0, len(tokens)), rng.choice(words + punct))
    return " ".join(tokens) or rng.choice(words)


def _pad(rng, text):
    """``text``, sometimes with whitespace at either end."""
    return rng.choice(["", " ", "\t", "  \n"]) + text + rng.choice(["", " ", "\n", " \t "])


def instances(n_instances, outputs_per_instance, seed, words=WORDS, punct=PUNCT):
    """(source, references, outputs) triples. The outputs include the
    source itself, each reference, outputs of at most 3 tokens, edits of
    the source and unrelated texts, some with surrounding whitespace."""
    rng = random.Random(seed)
    for _ in range(n_instances):
        source = _text(rng, 1, 12, words, punct)
        references = [_edit(rng, source, words, punct) for _ in range(rng.randint(1, 3))]
        outputs = [source, *references]
        while len(outputs) < outputs_per_instance:
            roll = rng.random()
            if roll < 0.2:
                outputs.append(_text(rng, 1, 3, words, punct))
            elif roll < 0.8:
                outputs.append(_edit(rng, source, words, punct))
            else:
                outputs.append(_text(rng, 1, 14, words, punct))
        yield source, references, [_pad(rng, text) for text in outputs]


N_INSTANCES, OUTPUTS_PER_INSTANCE = 1000, 10  # 10000 rows per test


@pytest.mark.parametrize("variant, seed", [("canonical", 11), ("all_f1", 15)])
def test_sari_is_the_counter_algebra_bit_for_bit(variant, seed):
    # the Counter algebra is slow, so each variant takes half of 10000 rows
    rows = 0
    for source, references, outputs in instances(N_INSTANCES // 2, OUTPUTS_PER_INSTANCE, seed):
        for reference in references:
            for output in outputs:
                assert sari(source, output, reference, variant=variant).hex() == oracle_sari(
                    source, output, [reference], variant
                ).hex(), (source, output, reference)
                rows += 1
    assert rows >= 5_000


def test_bleu_counts_and_sentence_bleu_match_the_max_ref_loop():
    rows = 0
    for source, references, outputs in instances(N_INSTANCES, OUTPUTS_PER_INSTANCE, seed=12):
        for reference in references:
            for output in outputs:
                counts = oracle_bleu_counts(output, [reference])
                assert _bleu_counts(output, reference) == counts, (output, reference)
                expected = _bleu_from_counts(counts) if _analyse(output)[0] else 0.0
                assert sentence_bleu(output, reference).hex() == expected.hex()
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


def _edge_cases(rows):
    """How often ``rows`` of ``instances`` hold each case the oracles must see."""
    seen = Counter()
    for source, references, outputs in rows:
        seen[f"{len(references)} refs"] += 1
        for output in outputs:
            tokens = _analyse(output)[0]
            seen["short output"] += len(tokens) < 4
            seen["repeated gram"] += len(set(tokens)) < len(tokens)
            seen["output is source"] += output.strip() == source
            seen["output is a reference"] += output.strip() in references
            seen["padded"] += output != output.strip()
            seen["non-ASCII"] += not output.isascii()
    return seen


EDGE_CASES = (
    "1 refs", "2 refs", "3 refs", "short output", "repeated gram",
    "output is source", "output is a reference", "padded",
)


def test_rows_cover_the_edge_cases():
    seen = _edge_cases(instances(N_INSTANCES, OUTPUTS_PER_INSTANCE, seed=11))
    for case in EDGE_CASES:
        assert seen[case] >= 100, case


HOT_PATH_INSTANCES = 400  # 4000 rows per vocabulary


@pytest.mark.parametrize(
    "words, punct, seed, cases",
    [
        (WORDS, PUNCT, 16, EDGE_CASES),
        (NON_ASCII_WORDS, NON_ASCII_PUNCT, 17, (*EDGE_CASES, "non-ASCII")),
    ],
    ids=["ascii", "non-ascii"],
)
def test_hot_path_matches_its_table_based_version_bit_for_bit(words, punct, seed, cases):
    rows = list(instances(HOT_PATH_INSTANCES, OUTPUTS_PER_INSTANCE, seed, words, punct))
    seen = _edge_cases(rows)
    for case in cases:
        assert seen[case] >= 40, case

    embedder, head_embedder = HashingEmbedder(), HeadEmbedder(dim=256, seed=0)
    for source, references, outputs in rows:
        source_vec = embedder.embed(source)
        assert source_vec.tobytes() == head_embedder.embed(source).tobytes(), source
        for output in outputs:
            tokens, grams = metrics._analyse(output)
            head_tokens, head_grams = _analyse(output)
            assert tokens == head_tokens
            # the same keys in the same order: SARI sums its ratios in source gram order
            assert [list(c.items()) for c in grams] == [list(c.items()) for c in head_grams]

            for reference in references:
                assert _bleu_counts(output, reference) == head_bleu_counts(output, [reference])
                for variant in ("canonical", "all_f1"):
                    assert sari(source, output, reference, variant=variant).hex() == head_sari(
                        source, output, [reference], variant
                    ).hex(), (source, output, reference, variant)
                assert rouge_l(output, reference).hex() == head_rouge_l(output, reference).hex()

            vec = embedder.embed(output)
            assert vec.tobytes() == head_embedder.embed(output).tobytes(), output
            assert cosine(vec, source_vec).hex() == head_cosine(vec, source_vec).hex()
    # the all-zero vector of a text without tokens
    zero = embedder.embed(" ")
    assert zero.tobytes() == head_embedder.embed(" ").tobytes()
    assert cosine(zero, zero) == head_cosine(zero, zero) == 0.0


def test_metrics_table_cache_was_exercised():
    metrics._sari_tables.cache_clear()
    n_references = 0
    for source, references, outputs in instances(20, OUTPUTS_PER_INSTANCE, seed=14):
        for reference in references:
            for output in outputs:
                sari(source, output, reference)
            n_references += 1
    info = metrics._sari_tables.cache_info()
    assert info.misses == n_references > 20
    assert info.hits == n_references * (OUTPUTS_PER_INSTANCE - 1)
