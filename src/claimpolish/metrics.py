"""Automatic evaluation metrics for claim rewriting runs.

The report for a strategy bundles: smoothed sentence-level BLEU-4
(scaled to 0-100), ROUGE-L F-measure over token LCS, SARI (0-100),
the byte-exact no-edit ratio against the source, the exact-match
ratio against the references (after whitespace normalization), and
embedding-based similarity of the output to its context.

Every n-gram metric tokenizes identically: lowercase, punctuation as
separate tokens, whitespace split. SARI follows the component
definitions of the classic implementation (fractional per-distinct-
n-gram averaging with reference-count replication) with one fixed
convention: a component ratio whose denominator set is empty counts
as 1 — having nothing to add and adding nothing is a success, not a
failure. The default variant scores deletion by precision alone; the
``all_f1`` variant scores all three edit operations by F1.
"""

from __future__ import annotations

import csv
import math
from collections import Counter
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from functools import cache, lru_cache
from pathlib import Path
from types import SimpleNamespace

from .corpus import ContextBundle, MissingContextError
from .embedding import Embedder, unit_cosine
from .ndjson import open_atomic
from .text import normalize_whitespace, tokenize

# Smoothing constant substituted for zero n-gram-match numerators in
# sentence BLEU. Small enough that fully disjoint outputs stay below
# 1.0 on the 0-100 scale.
_BLEU_EPS = 0.01

# Allowed ``bleu_mode`` and SARI ``variant`` values; the first is the default.
BLEU_MODES = ("sentence", "corpus")
SARI_VARIANTS = ("canonical", "all_f1")


@dataclass(frozen=True)
class EvalInstance:
    source: str
    references: tuple[str, ...]
    context: ContextBundle = ContextBundle()

    def __post_init__(self):
        if not self.references:
            raise ValueError("references must be non-empty")
        if not self.source.strip():
            raise ValueError("source must be non-empty")
        if any(not r.strip() for r in self.references):
            raise ValueError("references must be non-empty strings")


@dataclass(frozen=True)
class MetricReport:
    bleu: float
    rouge_l: float
    sari: float
    no_edit_ratio: float
    exact_match_ratio: float
    sim_original: float
    sim_previous: float | None
    sim_topic: float | None
    n_instances: int


def _ngrams(tokens: Sequence[str], n: int) -> list[tuple[str, ...]]:
    return [tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1)]


# Texts whose analysis ``_analyse`` keeps: more than one instance's source,
# references and distinct outputs, so every row of the instance being
# scored reuses them, and few enough that the cache stays small.
_ANALYSE_CACHE_SIZE = 64


@lru_cache(maxsize=_ANALYSE_CACHE_SIZE)
def _analyse(text: str) -> tuple[tuple[str, ...], tuple[Counter, ...]]:
    """Tokens of ``text`` and its order-1 to order-4 n-gram Counters.

    Every caller gets the same objects, so none may mutate the Counters.
    """
    tokens = tuple(tokenize(text))
    return tokens, tuple(Counter(_ngrams(tokens, n)) for n in range(1, 5))


# ---------------------------------------------------------------------------
# BLEU

def _bleu_counts(output: str, references: Sequence[str]) -> list[int]:
    """Clipped matches and hypothesis n-gram totals for orders 1-4, then
    the hypothesis length c and the closest reference length r: the
    counts that corpus BLEU sums over instances."""
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


def _bleu_from_counts(counts: Sequence[int], scale: float = 1.0) -> float:
    """``scale`` times smoothed BLEU-4 from (summed) ``_bleu_counts``."""
    clipped, totals, c, r = counts[:4], counts[4:8], counts[8], counts[9]
    log_sum = 0.0
    orders = 0
    for matched, total in zip(clipped, totals):
        if total == 0:
            continue
        log_sum += math.log((matched if matched > 0 else _BLEU_EPS) / total)
        orders += 1
    if orders == 0 or c == 0:
        return 0.0
    bp = 1.0 if c >= r else math.exp(1.0 - r / c)
    return scale * bp * math.exp(log_sum / orders)


def sentence_bleu(output: str, references: Sequence[str]) -> float:
    """Smoothed sentence-level BLEU-4 on the 0-1 scale.

    Modified n-gram precision clipped against the per-gram maximum
    across references; orders the hypothesis is too short to have are
    skipped entirely, so an exact copy of a two-token reference still
    scores 1.0. Zero numerators are smoothed to a small epsilon.
    Brevity penalty uses the reference length closest to the
    hypothesis length (ties toward the shorter reference).
    """
    if not references or not _analyse(output)[0]:
        return 0.0
    return _bleu_from_counts(_bleu_counts(output, references))


def _bleu_total(parts: Sequence, mode: str) -> float:
    """Corpus score 0-100 from the instances' ``_Row.bleu`` values: mean
    sentence BLEU in ``"sentence"`` mode, BLEU of the pooled counts in
    ``"corpus"`` mode."""
    if mode == "sentence":
        return 100.0 * sum(parts) / len(parts)
    return _bleu_from_counts([sum(column) for column in zip(*parts)], scale=100.0)


# ---------------------------------------------------------------------------
# ROUGE-L

def _lcs_length(a: Sequence[str], b: Sequence[str]) -> int:
    """Length of the longest common subsequence, bit-parallel (Allison and
    Dix 1986; Hyyrö 2004): bit j of ``row`` is 0 where the DP row steps
    up at b[j], so the LCS is the count of zero bits after the last token."""
    matches: dict[str, int] = {}
    for j, token in enumerate(b):
        matches[token] = matches.get(token, 0) | 1 << j
    full = (1 << len(b)) - 1
    row = full
    for token in a:
        hit = row & matches.get(token, 0)
        row = ((row + hit) | (row - hit)) & full
    return len(b) - row.bit_count()


def rouge_l(output: str, reference: str) -> float:
    """LCS-based F-measure over tokens."""
    out_tokens = _analyse(output)[0]
    ref_tokens = _analyse(reference)[0]
    if not out_tokens or not ref_tokens:
        raise ValueError("both texts must be non-empty")
    lcs = _lcs_length(out_tokens, ref_tokens)
    precision = lcs / len(out_tokens)
    recall = lcs / len(ref_tokens)
    return _f1(precision, recall)


# ---------------------------------------------------------------------------
# SARI

def _ratio_sum(good: Counter, denom: Counter) -> float:
    """Sum over the denominator's distinct grams of good/denom,
    averaged over those grams; empty denominator is a perfect 1."""
    if not denom:
        return 1.0
    return sum(good[g] / denom[g] for g in denom) / len(denom)


def _sari_order(
    s_grams: Counter, o_grams: Counter, ref_grams: list[Counter], numref: int, variant: str
) -> tuple[float, float, float]:
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


def _f1(precision: float, recall: float) -> float:
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def sari(
    source: str, output: str, references: Sequence[str], variant: str = "canonical"
) -> float:
    """SARI on the 0-100 scale over n-gram orders 1-4.

    ``variant="canonical"`` scores keep and add by F1 and delete by
    precision; ``"all_f1"`` scores delete by F1 as well. In both, a
    ratio with an empty denominator counts as 1.
    """
    if variant not in SARI_VARIANTS:
        raise ValueError(f"unknown sari variant {variant!r}")
    if not references:
        raise ValueError("references must be non-empty")
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


# ---------------------------------------------------------------------------
# context similarity

def context_similarity(output: str, context_field: str | None, embedder: Embedder) -> float:
    """Embedding cosine between output and a context field, mapped onto [0, 1]."""
    if not context_field:
        raise MissingContextError("context field is missing")
    return unit_cosine(embedder.embed(output), embedder.embed(context_field))


# ---------------------------------------------------------------------------
# report assembly

@dataclass(frozen=True)
class _Row:
    """Every score of one (instance, output) row; a strategy's report
    aggregates the rows of the outputs it chose."""

    bleu: float | list[int]  # sentence BLEU, or the _bleu_counts in corpus mode
    rouge_l: float
    sari: float
    no_edit: bool
    exact_match: bool
    sim_original: float
    sim_previous: float | None
    sim_topic: float | None


def _score_row(
    inst: EvalInstance, output: str, embedder: Embedder, bleu_mode: str, sari_variant: str
) -> _Row:
    if not output.strip():
        raise ValueError("output must be non-empty")
    refs = inst.references
    previous, topic = inst.context.previous_claim, inst.context.topic
    return _Row(
        bleu=(
            sentence_bleu(output, refs) if bleu_mode == "sentence" else _bleu_counts(output, refs)
        ),
        rouge_l=max(rouge_l(output, ref) for ref in refs),
        sari=sari(inst.source, output, refs, variant=sari_variant),
        no_edit=output == inst.source,
        exact_match=normalize_whitespace(output) in map(normalize_whitespace, refs),
        sim_original=context_similarity(output, inst.source, embedder),
        sim_previous=context_similarity(output, previous, embedder) if previous else None,
        sim_topic=context_similarity(output, topic, embedder) if topic else None,
    )


def _aggregate(rows: Sequence[_Row], bleu_mode: str) -> MetricReport:
    """Report over ``rows`` in instance order; similarity to a context
    field averages only the rows whose instance has that field."""
    n = len(rows)
    prev_vals = [row.sim_previous for row in rows if row.sim_previous is not None]
    topic_vals = [row.sim_topic for row in rows if row.sim_topic is not None]
    return MetricReport(
        bleu=_bleu_total([row.bleu for row in rows], bleu_mode),
        rouge_l=sum(row.rouge_l for row in rows) / n,
        sari=sum(row.sari for row in rows) / n,
        no_edit_ratio=sum(1 for row in rows if row.no_edit) / n,
        exact_match_ratio=sum(1 for row in rows if row.exact_match) / n,
        sim_original=sum(row.sim_original for row in rows) / n,
        sim_previous=sum(prev_vals) / len(prev_vals) if prev_vals else None,
        sim_topic=sum(topic_vals) / len(topic_vals) if topic_vals else None,
        n_instances=n,
    )


def evaluate_run(
    instances: Sequence[EvalInstance],
    outputs: Mapping[str, Sequence[str]],
    embedder: Embedder,
    bleu_mode: str = "sentence",
    sari_variant: str = "canonical",
) -> dict[str, MetricReport]:
    """One MetricReport per strategy; ``outputs`` maps strategy name to
    a list of output texts aligned with ``instances``.

    Strategies often choose the same output for an instance, so each
    distinct (instance index, output) row is scored once and shared.
    Rows are scored one instance at a time, so the texts of that
    instance are tokenized and embedded once for all its rows.
    """
    if bleu_mode not in BLEU_MODES:
        raise ValueError(f"unknown bleu mode {bleu_mode!r}")
    if not instances:
        raise ValueError("empty instance list")
    for strategy, texts in outputs.items():
        if len(texts) != len(instances):
            raise ValueError(
                f"strategy {strategy!r}: {len(texts)} outputs for {len(instances)} instances"
            )
    rows: dict[tuple[int, str], _Row] = {}
    for i, instance in enumerate(instances):
        # keyed on the text alone, so any embedder works, hashable or not;
        # dropped after the instance, so it holds only that instance's texts
        instance_embedder = SimpleNamespace(dim=embedder.dim, embed=cache(embedder.embed))
        for texts in outputs.values():
            if (i, texts[i]) not in rows:
                rows[i, texts[i]] = _score_row(
                    instance, texts[i], instance_embedder, bleu_mode, sari_variant
                )
    return {
        strategy: _aggregate([rows[key] for key in enumerate(texts)], bleu_mode)
        for strategy, texts in outputs.items()
    }


CSV_COLUMNS = ("strategy", "BLEU", "RougeL", "SARI", "NoEd", "ExM")


def write_report_csv(reports: Mapping[str, MetricReport], path: str | Path) -> None:
    """Table-shaped CSV: strategy, BLEU, RougeL, SARI, NoEd, ExM."""
    with open_atomic(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for strategy, report in reports.items():
            writer.writerow(
                [
                    strategy,
                    f"{report.bleu:.6f}",
                    f"{report.rouge_l:.6f}",
                    f"{report.sari:.6f}",
                    f"{report.no_edit_ratio:.6f}",
                    f"{report.exact_match_ratio:.6f}",
                ]
            )
