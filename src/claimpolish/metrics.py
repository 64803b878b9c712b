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
from dataclasses import dataclass, replace
from pathlib import Path

from .corpus import ContextBundle, MissingContextError
from .embedding import Embedder, cosine
from .text import normalize_whitespace, tokenize

# Smoothing constant substituted for zero n-gram-match numerators in
# sentence BLEU. Small enough that fully disjoint outputs stay below
# 1.0 on the 0-100 scale.
_BLEU_EPS = 0.01


@dataclass(frozen=True)
class EvalInstance:
    source: str
    output: str
    references: tuple[str, ...]
    context: ContextBundle = ContextBundle()

    def __post_init__(self):
        if not self.references:
            raise ValueError("references must be non-empty")
        if not self.source.strip() or not self.output.strip():
            raise ValueError("source and output must be non-empty")
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

    def to_payload(self) -> dict:
        return {
            "bleu": self.bleu,
            "rouge_l": self.rouge_l,
            "sari": self.sari,
            "no_edit_ratio": self.no_edit_ratio,
            "exact_match_ratio": self.exact_match_ratio,
            "sim_original": self.sim_original,
            "sim_previous": self.sim_previous,
            "sim_topic": self.sim_topic,
            "n_instances": self.n_instances,
        }


def _ngrams(tokens: Sequence[str], n: int) -> list[tuple[str, ...]]:
    return [tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1)]


# ---------------------------------------------------------------------------
# BLEU

def _bleu_counts(hyp: Sequence[str], refs: Sequence[Sequence[str]]) -> list[int]:
    """Clipped matches and hypothesis n-gram totals for orders 1-4, then
    the hypothesis length c and the closest reference length r: the
    counts that corpus BLEU sums over instances."""
    clipped, totals = [], []
    for n in range(1, 5):
        hyp_grams = Counter(_ngrams(hyp, n))
        max_ref: Counter = Counter()
        for ref in refs:
            for gram, count in Counter(_ngrams(ref, n)).items():
                if count > max_ref[gram]:
                    max_ref[gram] = count
        clipped.append(sum(min(count, max_ref[gram]) for gram, count in hyp_grams.items()))
        totals.append(sum(hyp_grams.values()))
    c = len(hyp)
    r = min((len(ref) for ref in refs), key=lambda length: (abs(length - c), length))
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
    hyp = tokenize(output)
    refs = [tokenize(r) for r in references]
    if not hyp or not refs:
        return 0.0
    return _bleu_from_counts(_bleu_counts(hyp, refs))


def _bleu_part(output: str, references: Sequence[str], mode: str) -> float | list[int]:
    """One instance's share of corpus BLEU: its sentence BLEU in
    ``"sentence"`` mode, its BLEU counts in ``"corpus"`` mode."""
    if mode == "sentence":
        return sentence_bleu(output, references)
    if mode == "corpus":
        return _bleu_counts(tokenize(output), [tokenize(r) for r in references])
    raise ValueError(f"unknown bleu mode {mode!r}")


def _bleu_total(parts: Sequence, mode: str) -> float:
    """Corpus score 0-100 from the instances' ``_bleu_part`` values."""
    if mode == "sentence":
        return 100.0 * sum(parts) / len(parts)
    return _bleu_from_counts([sum(column) for column in zip(*parts)], scale=100.0)


def bleu(instances: Sequence[EvalInstance], mode: str = "sentence") -> float:
    """Corpus score 0-100: mean sentence BLEU by default, pooled corpus
    BLEU with ``mode="corpus"``."""
    if not instances:
        raise ValueError("empty instance list")
    return _bleu_total([_bleu_part(i.output, i.references, mode) for i in instances], mode)


# ---------------------------------------------------------------------------
# ROUGE-L

def _lcs_length(a: Sequence[str], b: Sequence[str]) -> int:
    # single-row dynamic program
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for tok_a in a:
        current = [0]
        for j, tok_b in enumerate(b, start=1):
            if tok_a == tok_b:
                current.append(prev[j - 1] + 1)
            else:
                current.append(max(prev[j], current[j - 1]))
        prev = current
    return prev[-1]


def rouge_l(output: str, reference: str) -> float:
    """LCS-based F-measure over tokens."""
    out_tokens = tokenize(output)
    ref_tokens = tokenize(reference)
    if not out_tokens or not ref_tokens:
        raise ValueError("both texts must be non-empty")
    lcs = _lcs_length(out_tokens, ref_tokens)
    precision = lcs / len(out_tokens)
    recall = lcs / len(ref_tokens)
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


# ---------------------------------------------------------------------------
# SARI

def _ratio_sum(good: Counter, denom: Counter) -> float:
    """Sum over the denominator's distinct grams of good/denom,
    averaged over those grams; empty denominator is a perfect 1."""
    if not denom:
        return 1.0
    return sum(good[g] / denom[g] for g in denom) / len(denom)


def _sari_order(
    s_grams: list, o_grams: list, ref_gram_lists: list[list], numref: int, variant: str
) -> tuple[float, float, float]:
    s_rep = Counter({g: c * numref for g, c in Counter(s_grams).items()})
    o_rep = Counter({g: c * numref for g, c in Counter(o_grams).items()})
    r_pool: Counter = Counter()
    for grams in ref_gram_lists:
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
    if variant not in ("canonical", "all_f1"):
        raise ValueError(f"unknown sari variant {variant!r}")
    if not references:
        raise ValueError("references must be non-empty")
    s_tokens = tokenize(source)
    o_tokens = tokenize(output)
    ref_tokens = [tokenize(r) for r in references]
    numref = len(references)
    keep_total = delete_total = add_total = 0.0
    for n in range(1, 5):
        keep, delete, add = _sari_order(
            _ngrams(s_tokens, n),
            _ngrams(o_tokens, n),
            [_ngrams(rt, n) for rt in ref_tokens],
            numref,
            variant,
        )
        keep_total += keep
        delete_total += delete
        add_total += add
    return 100.0 * (keep_total / 4 + delete_total / 4 + add_total / 4) / 3.0


# ---------------------------------------------------------------------------
# ratios and similarity

def exact_match_ratio(instances: Sequence[EvalInstance]) -> float:
    """Fraction whose output equals any reference after whitespace
    normalization."""
    if not instances:
        raise ValueError("empty instance list")
    return sum(1 for inst in instances if _exact_match(inst)) / len(instances)


def _exact_match(inst: EvalInstance) -> bool:
    output = normalize_whitespace(inst.output)
    return any(output == normalize_whitespace(ref) for ref in inst.references)


def no_edit_ratio(instances: Sequence[EvalInstance]) -> float:
    """Fraction whose output equals the source byte-for-byte."""
    if not instances:
        raise ValueError("empty instance list")
    return sum(1 for inst in instances if inst.output == inst.source) / len(instances)


def context_similarity(output: str, context_field: str | None, embedder: Embedder) -> float:
    """Embedding cosine between output and a context field, mapped to
    [0, 1] by (s + 1) / 2."""
    if not context_field:
        raise MissingContextError("context field is missing")
    sim = cosine(embedder.embed(output), embedder.embed(context_field))
    return (min(max(sim, -1.0), 1.0) + 1.0) / 2.0


# ---------------------------------------------------------------------------
# report assembly

@dataclass(frozen=True)
class _Row:
    """Every score of one (instance, output) row; a strategy's report
    aggregates the rows of the outputs it chose."""

    bleu: float | list[int]  # a _bleu_part value
    rouge_l: float
    sari: float
    no_edit: bool
    exact_match: bool
    sim_original: float
    sim_previous: float | None
    sim_topic: float | None


def _score_row(
    inst: EvalInstance, embedder: Embedder, bleu_mode: str, sari_variant: str
) -> _Row:
    previous, topic = inst.context.previous_claim, inst.context.topic
    return _Row(
        bleu=_bleu_part(inst.output, inst.references, bleu_mode),
        rouge_l=max(rouge_l(inst.output, ref) for ref in inst.references),
        sari=sari(inst.source, inst.output, inst.references, variant=sari_variant),
        no_edit=inst.output == inst.source,
        exact_match=_exact_match(inst),
        sim_original=context_similarity(inst.output, inst.source, embedder),
        sim_previous=context_similarity(inst.output, previous, embedder) if previous else None,
        sim_topic=context_similarity(inst.output, topic, embedder) if topic else None,
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
    """
    if not instances:
        raise ValueError("empty instance list")
    rows: dict[tuple[int, str], _Row] = {}
    reports = {}
    for strategy, texts in outputs.items():
        if len(texts) != len(instances):
            raise ValueError(
                f"strategy {strategy!r}: {len(texts)} outputs for {len(instances)} instances"
            )
        keys = list(enumerate(texts))
        for i, text in keys:
            if (i, text) not in rows:
                rows[i, text] = _score_row(
                    replace(instances[i], output=text), embedder, bleu_mode, sari_variant
                )
        reports[strategy] = _aggregate([rows[key] for key in keys], bleu_mode)
    return reports


CSV_COLUMNS = ("strategy", "BLEU", "RougeL", "SARI", "NoEd", "ExM")


def write_report_csv(reports: Mapping[str, MetricReport], path: str | Path) -> None:
    """Table-shaped CSV: strategy, BLEU, RougeL, SARI, NoEd, ExM."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
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
