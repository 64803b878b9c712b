"""Automatic evaluation metrics for claim rewriting runs.

The report for a strategy bundles: smoothed sentence-level BLEU-4
(scaled to 0-100), ROUGE-L F-measure over token LCS, SARI (0-100),
the byte-exact no-edit ratio against the source, the exact-match
ratio against the reference (after whitespace normalization), and
embedding-based similarity of the output to its context. Each instance
is an ``OptimizationPair``: a source, its debate context and one
reference, the next version of the claim in its revision chain.

Every n-gram metric tokenizes identically: lowercase, punctuation as
separate tokens, whitespace split. SARI follows the component
definitions of the classic implementation (fractional per-distinct-
n-gram averaging) with one fixed convention: a component ratio whose
denominator set is empty counts as 1 — having nothing to add and
adding nothing is a success, not a failure. The default variant scores
deletion by precision alone; the ``all_f1`` variant scores all three
edit operations by F1.

Scores keep their bits on every supported interpreter: each float sum,
SARI's per-gram ratio sums and the report means included, adds left to
right from the integer 0, as the builtin ``sum()`` does up to CPython
3.11 (``left_sum``). The output-independent work of a row (the
reference's n-grams, SARI's source rows, ROUGE-L's reference bit masks)
is built once per instance and kept in small bounded caches.
"""

from __future__ import annotations

import csv
import math
from collections import Counter, defaultdict
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from functools import cache, lru_cache, reduce
from operator import add
from pathlib import Path
from types import SimpleNamespace

from .corpus import MissingContextError, OptimizationPair
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


# Texts whose analysis ``_analyse`` keeps: more than one instance's source,
# reference and distinct outputs, so every row of the instance being
# scored reuses them, and few enough that the cache stays small.
_ANALYSE_CACHE_SIZE = 64


@lru_cache(maxsize=_ANALYSE_CACHE_SIZE)
def _analyse(text: str) -> tuple[tuple[str, ...], tuple[Counter, ...]]:
    """Tokens of ``text`` and its order-1 to order-4 n-gram Counters, each
    keyed by token tuples in order of first occurrence.

    Every caller gets the same objects, so none may mutate the Counters.
    """
    tokens = tuple(tokenize(text))
    shifted = [tokens[i:] for i in range(4)]
    return tokens, tuple(Counter(zip(*shifted[:n])) for n in range(1, 5))


def _analyse_reference(reference: str) -> tuple[tuple[str, ...], tuple[Counter, ...]]:
    """``_analyse(reference)``; every metric rejects a reference without
    tokens with the same ValueError."""
    analysis = _analyse(reference)
    if not analysis[0]:
        raise ValueError("reference must be non-empty")
    return analysis


def left_sum(values: Iterable[float]) -> float:
    """``values`` added left to right, starting from the integer 0.

    These are the bits of the builtin ``sum()`` up to CPython 3.11. From
    3.12 on, ``sum()`` compensates the rounding of float additions
    (Neumaier), so the same values can give other last bits. Every float
    accumulation in this package goes through here; integer sums keep
    ``sum()``, which is exact.
    """
    return reduce(add, values, 0)


# ---------------------------------------------------------------------------
# BLEU

def _bleu_counts(output: str, reference: str) -> list[int]:
    """Clipped matches and hypothesis n-gram totals for orders 1-4, then
    the hypothesis length c and the reference length r: the counts that
    corpus BLEU sums over instances."""
    ref, ref_grams = _analyse_reference(reference)
    hyp, hyp_grams = _analyse(output)
    clipped = []
    for grams, table in zip(hyp_grams, ref_grams):
        # one lookup per hypothesis gram: a tuple key is hashed on every lookup
        most = table.get
        matched = 0
        for g, count in grams.items():
            limit = most(g)
            if limit:
                matched += count if count < limit else limit
        clipped.append(matched)
    c = len(hyp)
    totals = [max(c - n, 0) for n in range(4)]  # c - n grams of order n + 1
    return [*clipped, *totals, c, len(ref)]


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


def sentence_bleu(output: str, reference: str) -> float:
    """Smoothed sentence-level BLEU-4 on the 0-1 scale.

    Modified n-gram precision clipped against the reference's counts;
    orders the hypothesis is too short to have are skipped entirely, so
    an exact copy of a two-token reference still scores 1.0. Zero
    numerators are smoothed to a small epsilon. The brevity penalty
    compares the hypothesis length with the reference length. An output
    without tokens scores 0.0.
    """
    return _bleu_from_counts(_bleu_counts(output, reference))


# ---------------------------------------------------------------------------
# ROUGE-L

# References, and (source, reference) pairs, whose tables ``_lcs_masks``
# and ``_sari_tables`` keep: ``evaluate_run`` scores one instance's rows
# together, so a few suffice.
_TABLE_CACHE_SIZE = 8


@lru_cache(maxsize=_TABLE_CACHE_SIZE)
def _lcs_masks(b: tuple[str, ...]) -> dict[str, int]:
    """Per token of ``b``, the bit mask of its positions. ``rouge_l`` scores
    an instance's outputs against the same reference, so its masks are
    built once. Every caller gets the same dict, so none may
    mutate it."""
    masks: dict[str, int] = {}
    for j, token in enumerate(b):
        masks[token] = masks.get(token, 0) | 1 << j
    return masks


def _lcs_length(a: Sequence[str], b: Sequence[str]) -> int:
    """Length of the longest common subsequence, bit-parallel (Allison and
    Dix 1986; Hyyrö 2004): bit j of ``row`` is 0 where the DP row steps
    up at b[j], so the LCS is the count of zero bits after the last token."""
    matches = _lcs_masks(tuple(b)).get
    full = (1 << len(b)) - 1
    row = full
    for token in a:
        hit = row & matches(token, 0)
        row = ((row + hit) | (row - hit)) & full
    return len(b) - row.bit_count()


def rouge_l(output: str, reference: str) -> float:
    """LCS-based F-measure over tokens."""
    ref_tokens = _analyse_reference(reference)[0]
    out_tokens = _analyse(output)[0]
    if not out_tokens:
        raise ValueError("output must be non-empty")
    lcs = _lcs_length(out_tokens, ref_tokens)
    precision = lcs / len(out_tokens)
    recall = lcs / len(ref_tokens)
    return _f1(precision, recall)


# ---------------------------------------------------------------------------
# SARI

@dataclass(frozen=True)
class _SariTable:
    """The output-independent part of one SARI order."""

    rows: tuple  # (gram, source count, reference count), in source order
    n_keep_wanted: int  # distinct grams of source & reference
    n_delete_wanted: int  # distinct grams of source - reference
    add_wanted: frozenset  # distinct reference grams not in the source


@lru_cache(maxsize=_TABLE_CACHE_SIZE)
def _sari_tables(source: str, reference: str) -> tuple[_SariTable, ...]:
    """One ``_SariTable`` per order 1-4. Every caller gets the same
    objects, so none may mutate them."""
    s_grams = _analyse(source)[1]
    tables = []
    for s_counts, r_counts in zip(s_grams, _analyse_reference(reference)[1]):
        rows = tuple((g, c, r_counts.get(g, 0)) for g, c in s_counts.items())
        tables.append(
            _SariTable(
                rows=rows,
                n_keep_wanted=sum(1 for _, _, r in rows if r > 0),
                n_delete_wanted=sum(1 for _, s, r in rows if s > r),
                add_wanted=frozenset(r_counts.keys() - s_counts.keys()),
            )
        )
    return tuple(tables)


def _sari_order(table: _SariTable, o_grams: Counter, variant: str) -> tuple[float, float, float]:
    """Keep, delete and add scores of one order.

    With counts s (source), o (output) and r (reference), Xu et al.
    (2016) keep min(s, o) of a gram, of which min(s, o, r) are good, and
    delete s - o, of which s - o - r are good (each only where positive).
    Each precision or recall is the mean of good/count over its grams, in
    source order. One pass over the source rows adds those ratios left to
    right from the integer 0, in the order and with the bits of ``sum()``
    on CPython 3.11. A zero ratio is not added: all ratios are >= 0, and
    adding 0.0 leaves such a sum's bits as they are.
    """
    keep_p = keep_r = del_p = del_r = 0
    n_kept = n_deleted = 0
    get = o_grams.get
    for g, s, r in table.rows:
        o = get(g, 0)
        if o:
            n_kept += 1
            if r:
                kept = s if s < o else o
                good = kept if kept < r else r
                keep_p += good / kept
                keep_r += good / (s if s < r else r)
        d = s - o
        if d > 0:
            n_deleted += 1
            if d > r:
                del_p += (d - r) / d
                del_r += (d - r) / (s - r)

    # keep: n-grams retained from the source; an empty denominator is a perfect 1
    keep = _f1(
        keep_p / n_kept if n_kept else 1.0,
        keep_r / table.n_keep_wanted if table.n_keep_wanted else 1.0,
    )

    # delete: n-grams removed from the source
    del_p = del_p / n_deleted if n_deleted else 1.0
    if variant == "canonical":
        delete = del_p
    else:
        delete = _f1(del_p, del_r / table.n_delete_wanted if table.n_delete_wanted else 1.0)

    # add: n-grams introduced by the output (set semantics). The output's
    # grams that the source lacks are its grams less the kept ones.
    n_added = len(o_grams) - n_kept
    n_added_good = len(o_grams.keys() & table.add_wanted)
    add_p = n_added_good / n_added if n_added else 1.0
    add_r = n_added_good / len(table.add_wanted) if table.add_wanted else 1.0
    add = _f1(add_p, add_r)

    return keep, delete, add


def _f1(precision: float, recall: float) -> float:
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def sari(source: str, output: str, reference: str, variant: str = "canonical") -> float:
    """SARI on the 0-100 scale over n-gram orders 1-4.

    ``variant="canonical"`` scores keep and add by F1 and delete by
    precision; ``"all_f1"`` scores delete by F1 as well. In both, a
    ratio with an empty denominator counts as 1.
    """
    if variant not in SARI_VARIANTS:
        raise ValueError(f"unknown sari variant {variant!r}")
    tables = _sari_tables(source, reference)
    o_grams = _analyse(output)[1]
    keep_total = delete_total = add_total = 0.0
    for table, grams in zip(tables, o_grams):
        keep, delete, add = _sari_order(table, grams, variant)
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

def _score_row(
    pair: OptimizationPair,
    normalized_ref: str,
    output: str,
    embedder: Embedder,
    bleu_mode: str,
    sari_variant: str,
) -> _Sums:
    """Every score of ``output`` for ``pair``, whose reference with
    normalized whitespace is ``normalized_ref``, as a one-row total."""
    if not output.strip():
        raise ValueError("output must be non-empty")
    ref = pair.reference
    previous, topic = pair.context.previous_claim, pair.context.topic
    return _Sums(
        n=1,
        bleu=sentence_bleu(output, ref) if bleu_mode == "sentence" else _bleu_counts(output, ref),
        rouge_l=rouge_l(output, ref),
        sari=sari(pair.source, output, ref, variant=sari_variant),
        no_edit=output == pair.source,
        exact_match=normalize_whitespace(output) == normalized_ref,
        sim_original=context_similarity(output, pair.source, embedder),
        sim_previous=context_similarity(output, previous, embedder) if previous else 0,
        n_previous=bool(previous),
        sim_topic=context_similarity(output, topic, embedder) if topic else 0,
        n_topic=bool(topic),
    )


def score_instance(
    pair: OptimizationPair,
    chosen: Mapping[str, str],
    embedder: Embedder,
    bleu_mode: str = "sentence",
    sari_variant: str = "canonical",
) -> dict[str, _Sums]:
    """The one-row total of each strategy's output for the evaluation
    instance ``pair``; ``chosen`` maps strategy name to output text. Each
    distinct output is scored once, and strategies that chose it share its
    total. The pair's source, reference and context are tokenized and
    embedded once for all its rows."""
    if bleu_mode not in BLEU_MODES:
        raise ValueError(f"unknown bleu mode {bleu_mode!r}")
    # keyed on the text alone, so any embedder works, hashable or not;
    # dropped with the instance, so it holds only that instance's texts
    instance_embedder = SimpleNamespace(dim=embedder.dim, embed=cache(embedder.embed))
    normalized_ref = normalize_whitespace(pair.reference)
    rows = {
        output: _score_row(pair, normalized_ref, output, instance_embedder, bleu_mode, sari_variant)
        for output in dict.fromkeys(chosen.values())
    }
    return {strategy: rows[output] for strategy, output in chosen.items()}


@dataclass
class _Sums:
    """Running sums of one strategy's rows, in instance order; a scored row
    is a total with ``n = 1``. Each float sum starts at the integer 0 and
    adds left to right, so its report figure has ``left_sum``'s bits; in
    corpus mode ``bleu`` holds the summed ``_bleu_counts``, which are
    integers. ``n_previous`` and ``n_topic`` count the rows whose instance
    has that context field; a row without it adds 0 to the field's sum."""

    n: int = 0
    bleu: float | list[int] = 0
    rouge_l: float = 0
    sari: float = 0
    no_edit: int = 0
    exact_match: int = 0
    sim_original: float = 0
    sim_previous: float = 0
    n_previous: int = 0
    sim_topic: float = 0
    n_topic: int = 0

    def add(self, other: _Sums) -> None:
        """Add ``other``'s sums field by field."""
        if isinstance(other.bleu, list):
            self.bleu = [*map(add, self.bleu, other.bleu)] if self.n else other.bleu
        else:
            self.bleu += other.bleu
        self.n += other.n
        self.rouge_l += other.rouge_l
        self.sari += other.sari
        self.no_edit += other.no_edit
        self.exact_match += other.exact_match
        self.sim_original += other.sim_original
        self.sim_previous += other.sim_previous
        self.n_previous += other.n_previous
        self.sim_topic += other.sim_topic
        self.n_topic += other.n_topic

    def report(self) -> MetricReport:
        """The strategy's report: mean sentence BLEU or the BLEU of the
        summed counts, and means over the rows; similarity to a context
        field averages only the rows whose instance has that field."""
        n = self.n
        return MetricReport(
            bleu=(
                _bleu_from_counts(self.bleu, scale=100.0)
                if isinstance(self.bleu, list)
                else 100.0 * self.bleu / n
            ),
            rouge_l=self.rouge_l / n,
            sari=self.sari / n,
            no_edit_ratio=self.no_edit / n,
            exact_match_ratio=self.exact_match / n,
            sim_original=self.sim_original / n,
            sim_previous=self.sim_previous / self.n_previous if self.n_previous else None,
            sim_topic=self.sim_topic / self.n_topic if self.n_topic else None,
            n_instances=n,
        )


class ReportTotals:
    """Each strategy's running sums, fed one instance's ``score_instance``
    totals at a time in instance order, so no row is kept once it is added."""

    def __init__(self):
        self._sums: defaultdict[str, _Sums] = defaultdict(_Sums)

    def add(self, chosen: Mapping[str, _Sums]) -> None:
        """Add one instance's total of each strategy, keyed by strategy name."""
        for strategy, row in chosen.items():
            self._sums[strategy].add(row)

    def reports(self) -> dict[str, MetricReport]:
        """One MetricReport per strategy, in the order they were first added."""
        return {strategy: sums.report() for strategy, sums in self._sums.items()}


def evaluate_run(
    instances: Sequence[OptimizationPair],
    outputs: Mapping[str, Sequence[str]],
    embedder: Embedder,
    bleu_mode: str = "sentence",
    sari_variant: str = "canonical",
) -> dict[str, MetricReport]:
    """One MetricReport per strategy; ``outputs`` maps strategy name to
    a list of output texts aligned with ``instances``.

    ``score_instance`` scores each instance's distinct outputs once, for
    every strategy that chose them, and ``ReportTotals`` adds them up.
    """
    if not instances:
        raise ValueError("empty instance list")
    for strategy, texts in outputs.items():
        if len(texts) != len(instances):
            raise ValueError(
                f"strategy {strategy!r}: {len(texts)} outputs for {len(instances)} instances"
            )
    totals = ReportTotals()
    for i, instance in enumerate(instances):
        chosen = {strategy: texts[i] for strategy, texts in outputs.items()}
        totals.add(score_instance(instance, chosen, embedder, bleu_mode, sari_variant))
    return totals.reports()


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
