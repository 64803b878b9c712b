import copy
import csv
import functools
import itertools
import math
import random
from dataclasses import astuple, dataclass, field, replace

import pytest

from claimpolish import metrics, scoring
from claimpolish.corpus import ContextBundle, IntentLabel, MissingContextError, OptimizationPair
from claimpolish.embedding import HashingEmbedder
from claimpolish.metrics import (
    CSV_COLUMNS,
    context_similarity,
    evaluate_run,
    rouge_l,
    sari,
    sentence_bleu,
    write_report_csv,
)
from claimpolish.scoring import default_registry, score_candidate

EMB = HashingEmbedder()


def inst(source, reference, **ctx):
    return OptimizationPair(
        "p#0", "p", 0, source, reference, IntentLabel.CLARIFICATION, ContextBundle(**ctx)
    )


def corpus_bleu(instances, outputs, mode="sentence"):
    return evaluate_run(instances, {"x": outputs}, EMB, bleu_mode=mode)["x"].bleu


# ---------------------------------------------------------------------------
# BLEU


def test_bleu_identity_is_exactly_one():
    assert sentence_bleu("the cat sat", "the cat sat") == 1.0
    # short identity: missing orders are skipped, not zero-smoothed
    assert sentence_bleu("so true", "so true") == 1.0
    assert sentence_bleu("yes", "yes") == 1.0


def test_bleu_disjoint_is_small_but_positive():
    value = sentence_bleu("x y z", "a b c")
    assert 0.0 < value < 0.05


def test_bleu_partial_overlap_between_extremes():
    partial = sentence_bleu("the cat sat", "the dog sat")
    disjoint = sentence_bleu("x y z", "a b c")
    assert disjoint < partial < 1.0


def test_bleu_brevity_penalty():
    # perfect precision, half the reference length: BP = exp(1 - r/c)
    assert sentence_bleu("the cat", "the cat sat on") == pytest.approx(
        math.exp(1.0 - 4.0 / 2.0)
    )


def test_bleu_empty_output_or_refs():
    assert sentence_bleu("", "a") == 0.0
    assert sentence_bleu(" \t", "a") == 0.0


def test_bleu_corpus_scale():
    instances = [inst("s one", "r one"), inst("s two", "r two")]
    outputs = ["r one", "r two"]
    assert corpus_bleu(instances, outputs) == pytest.approx(100.0, abs=1e-6)
    with pytest.raises(ValueError):
        corpus_bleu([], [])
    with pytest.raises(ValueError):
        corpus_bleu(instances, outputs, mode="document")


@pytest.mark.parametrize(
    "output, references",
    [
        ("the cat sat", ["the cat sat"]),
        ("so true", ["so true"]),  # short hypothesis: orders 3 and 4 skipped
        ("yes", ["yes"]),
        ("x y z", ["a b c"]),
        ("the cat sat", ["the dog sat"]),
        ("the cat", ["the cat sat on"]),  # brevity penalty
        ("a b c", ["a b", "a b c d"]),
        ("a b", ["a x", "y b"]),
        ("a b", ["a x"]),
    ],
)
def test_bleu_corpus_mode_of_one_instance_is_sentence_bleu(output, references):
    for reference in references:
        pooled = corpus_bleu([inst("s", reference)], [output], mode="corpus")
        assert pooled == pytest.approx(100 * sentence_bleu(output, reference), rel=1e-12)


def test_bleu_corpus_mode_pools_counts():
    instances = [inst("s", "the cat sat"), inst("s", "a dog ran off quickly")]
    outputs = ["the cat sat", "the dog ran far"]
    pooled = corpus_bleu(instances, outputs, mode="corpus")
    averaged = corpus_bleu(instances, outputs, mode="sentence")
    assert pooled != averaged
    assert 0.0 < pooled <= 100.0


# ---------------------------------------------------------------------------
# ROUGE-L


def test_rouge_l_fixtures():
    assert rouge_l("the cat sat", "the cat sat") == 1.0
    assert rouge_l("the cat sat", "the cat sat on") == pytest.approx(6 / 7)
    assert rouge_l("x y z", "a b c") == 0.0


@pytest.mark.parametrize("reference", ["", " \t"])
def test_every_primitive_rejects_a_blank_reference_alike(reference):
    calls = (
        lambda: sentence_bleu("a b", reference),
        lambda: rouge_l("a b", reference),
        lambda: sari("a b", "a b", reference),
    )
    for call in calls:
        with pytest.raises(ValueError, match="^reference must be non-empty$"):
            call()


def test_rouge_l_is_order_sensitive():
    assert rouge_l("a b c", "c b a") == pytest.approx(1 / 3)


def test_rouge_l_rejects_empty():
    with pytest.raises(ValueError):
        rouge_l("", "a")
    with pytest.raises(ValueError):
        rouge_l("a", "   ")


def _lcs_length_dp(a, b):
    """The textbook single-row dynamic program: the reference for
    ``metrics._lcs_length``."""
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


def test_lcs_length_matches_dynamic_program():
    rng = random.Random(11)
    cases = [
        ([], []),
        ([], ["a"]),
        (["a"], []),
        (["a"], ["a"]),
        (["a"], ["b"]),
        (["a"] * 7, ["a"] * 3),
        (["a", "b", "c"], ["x", "y", "z"]),
    ]
    for _ in range(3000):
        vocab = [str(v) for v in range(rng.randint(1, 12))]
        cases.append(
            (
                rng.choices(vocab, k=rng.randint(0, 40)),
                rng.choices(vocab, k=rng.randint(0, 90)),
            )
        )
    for a, b in cases:
        assert metrics._lcs_length(a, b) == _lcs_length_dp(a, b), (a, b)


# ---------------------------------------------------------------------------
# SARI


def test_sari_identity_is_perfect():
    assert sari("a b c", "a b c", "a b c") == pytest.approx(100.0, abs=1e-9)


def test_sari_perfect_deletion():
    assert sari("a b c d", "a b", "a b") == pytest.approx(100.0, abs=1e-9)


def test_sari_perfect_addition():
    assert sari("a b", "a b c", "a b c") == pytest.approx(100.0, abs=1e-9)


def test_sari_spurious_addition_hand_value():
    # keep and delete stay perfect; add earns credit only at order 4,
    # where output and reference both have nothing to add
    assert sari("a b", "a b z", "a b") == pytest.approx(75.0, abs=1e-9)


def test_sari_missed_deletion_hand_value():
    # identity output, but the reference dropped the last token
    keep_total = 0.8 + 2 / 3 + 0.0 + 1.0
    expected = 100.0 * (keep_total / 4 + 1.0 + 1.0) / 3.0
    assert sari("a b c", "a b c", "a b") == pytest.approx(expected, abs=1e-9)


def test_sari_variants_differ_on_partial_deletion():
    # output deletes one of the two tokens the reference deletes:
    # delete precision is 1 but recall is 1/2
    canonical = sari("a b c d", "a b c", "a b", variant="canonical")
    all_f1 = sari("a b c d", "a b c", "a b", variant="all_f1")
    assert canonical > all_f1
    assert 0.0 < all_f1 < canonical <= 100.0


def test_sari_validation():
    with pytest.raises(ValueError):
        sari("a", "b", "c", variant="macro")


def test_sari_multi_reference_replication_changes_score():
    # the same output against each of two references
    wanted = sari("a b", "a c", "a c")
    unwanted = sari("a b", "a c", "a b")
    assert wanted == pytest.approx(100.0, abs=1e-9)
    assert unwanted < wanted


def test_repeated_calls_give_equal_results():
    # the primitives and the heuristic scorers share cached n-gram
    # Counters, tables and token sets; a caller that mutated one would
    # change the second result and the cached object
    source, output = "the tax helps the towns", "the new tax helps towns a lot"
    refs = ["the tax helps towns", "a new tax helps the towns"]
    registry = default_registry()

    def cached():
        return [
            *(metrics._analyse(text) for text in (source, output, *refs)),
            *(metrics._sari_tables(source, ref) for ref in refs),
            *(metrics._lcs_masks(metrics._analyse(ref)[0]) for ref in refs),
            scoring._tokens(source),
            scoring._tokens(output),
        ]

    calls = [lambda: score_candidate(registry, source, output, ContextBundle())]
    for ref in refs:
        calls += [
            functools.partial(sari, source, output, ref),
            functools.partial(sari, source, output, ref, variant="all_f1"),
            functools.partial(sentence_bleu, output, ref),
            functools.partial(rouge_l, output, ref),
            functools.partial(corpus_bleu, [inst(source, ref)], [output], mode="corpus"),
        ]
    for call in calls:
        first = call()
        tables = cached()
        snapshot = copy.deepcopy(tables)
        assert call() == first
        assert all(a is b for a, b in zip(cached(), tables))  # still the cached objects
        assert tables == snapshot


def test_text_analysis_cache_stays_bounded():
    for k in range(1000):
        sari(f"source {k}", f"output {k} words", f"reference {k}")
    info = metrics._analyse.cache_info()
    assert info.currsize <= info.maxsize == metrics._ANALYSE_CACHE_SIZE


@pytest.mark.parametrize(
    "cached, size",
    [
        (metrics._sari_tables, metrics._TABLE_CACHE_SIZE),
        (metrics._analyse, metrics._ANALYSE_CACHE_SIZE),
        (metrics._lcs_masks, metrics._TABLE_CACHE_SIZE),
        (scoring._tokens, scoring._TOKENS_CACHE_SIZE),
    ],
    ids=["sari_tables", "analyse", "lcs_masks", "tokens"],
)
def test_instance_table_caches_stay_bounded(cached, size):
    registry = default_registry()
    for k in range(1000):
        for ref in (f"reference {k}", f"another reference {k}"):
            sari(f"source {k}", f"output {k} words", ref)
            sentence_bleu(f"output {k} words", ref)
            rouge_l(f"output {k} words", ref)
        score_candidate(registry, f"source {k}", f"output {k} words", ContextBundle())
    info = cached.cache_info()
    assert info.currsize <= info.maxsize == size


# ---------------------------------------------------------------------------
# ratios and similarity


def test_exact_match_normalizes_whitespace():
    instances = [inst("s", "a b"), inst("s", "a b")]
    report = evaluate_run(instances, {"x": ["a  b", "a c"]}, EMB)["x"]
    assert report.exact_match_ratio == 0.5


def test_no_edit_is_byte_exact():
    instances = [inst("same text", "r"), inst("same text", "r")]
    report = evaluate_run(instances, {"x": ["same text", "same  text"]}, EMB)["x"]
    assert report.no_edit_ratio == 0.5


def test_context_similarity_bounds_and_identity():
    assert context_similarity("a b c", "a b c", EMB) == pytest.approx(1.0)
    value = context_similarity("unrelated words here", "completely different topic", EMB)
    assert 0.0 <= value <= 1.0


def test_context_similarity_missing_field_raises():
    with pytest.raises(MissingContextError):
        context_similarity("out", None, EMB)
    with pytest.raises(MissingContextError):
        context_similarity("out", "", EMB)


def test_evaluate_run_rejects_blank_output_and_unknown_bleu_mode():
    instances = [inst("s", "r")]
    with pytest.raises(ValueError, match="output must be non-empty"):
        evaluate_run(instances, {"x": [" "]}, EMB)
    with pytest.raises(ValueError, match="unknown bleu mode 'document'"):
        evaluate_run(instances, {"x": ["o"]}, EMB, bleu_mode="document")


# ---------------------------------------------------------------------------
# report assembly


def _instances():
    return [
        inst(
            "the tax helps towns",
            "the tax helps towns overall",
            topic="local taxes",
            previous_claim="taxes were raised",
        ),
        inst(
            "schools need funding",
            "schools need more funding",
            topic="education",
        ),
    ]


def test_evaluate_run_per_strategy_reports():
    instances = _instances()
    outputs = {
        "unedited": [i.source for i in instances],
        "oracle": [i.reference for i in instances],
    }
    reports = evaluate_run(instances, outputs, EMB)
    assert set(reports) == {"unedited", "oracle"}
    assert reports["unedited"].no_edit_ratio == 1.0
    assert reports["oracle"].no_edit_ratio == 0.0
    assert reports["oracle"].exact_match_ratio == 1.0
    assert reports["oracle"].bleu == pytest.approx(100.0, abs=1e-6)
    assert reports["oracle"].rouge_l == pytest.approx(1.0)
    assert reports["oracle"].sari == pytest.approx(100.0, abs=1e-9)
    assert reports["oracle"].n_instances == 2
    # one instance lacks previous_claim: mean is over instances that have it
    assert reports["oracle"].sim_previous is not None
    assert reports["oracle"].sim_topic is not None


def test_evaluate_run_sim_fields_none_without_context():
    instances = [inst("a b", "a b c")]
    reports = evaluate_run(instances, {"x": ["a b"]}, EMB)
    assert reports["x"].sim_previous is None
    assert reports["x"].sim_topic is None
    assert reports["x"].sim_original == pytest.approx(1.0)


def test_evaluate_run_rouge_uses_the_reference():
    for reference, expected in (("x y z", 0.0), ("a b c", 1.0)):
        reports = evaluate_run([inst("s t", reference)], {"x": ["a b c"]}, EMB)
        assert reports["x"].rouge_l == pytest.approx(expected)


def test_evaluate_run_scores_each_distinct_row_once(monkeypatch):
    calls = []
    real_sari = metrics.sari

    def counting_sari(source, output, reference, variant="canonical"):
        calls.append((source, output))
        return real_sari(source, output, reference, variant=variant)

    monkeypatch.setattr(metrics, "sari", counting_sari)
    instances = _instances()
    sources = [i.source for i in instances]
    outputs = {
        "unedited": sources,
        "copy": list(sources),
        "oracle": [instances[0].reference, instances[1].source],
        # one text for both instances: still two rows, one per instance
        "same": ["the same words", "the same words"],
    }
    reports = evaluate_run(instances, outputs, EMB)
    assert sorted(calls) == sorted(
        [
            (sources[0], sources[0]),
            (sources[1], sources[1]),
            (sources[0], instances[0].reference),
            (sources[0], "the same words"),
            (sources[1], "the same words"),
        ]
    )
    assert reports["unedited"] == reports["copy"]
    assert reports["oracle"] != reports["unedited"]


@dataclass(frozen=True)
class _KeptRow:
    """One output's scores as ``run`` and ``report`` kept them: a context
    field the pair lacks is None."""

    bleu: float | list[int]
    rouge_l: float
    sari: float
    no_edit: bool
    exact_match: bool
    sim_original: float
    sim_previous: float | None
    sim_topic: float | None


def _one_row_total(row):
    """``row`` as the one-row total that ``score_instance`` returns."""
    return metrics._Sums(
        n=1,
        bleu=row.bleu,
        rouge_l=row.rouge_l,
        sari=row.sari,
        no_edit=row.no_edit,
        exact_match=row.exact_match,
        sim_original=row.sim_original,
        sim_previous=0 if row.sim_previous is None else row.sim_previous,
        n_previous=row.sim_previous is not None,
        sim_topic=0 if row.sim_topic is None else row.sim_topic,
        n_topic=row.sim_topic is not None,
    )


def _kept_rows_report(rows, bleu_mode):
    """The report of ``rows`` as it was built when ``run`` and ``report``
    kept every row until the end (verbatim apart from names)."""
    n = len(rows)
    parts = [row.bleu for row in rows]
    if bleu_mode == "sentence":
        bleu = 100.0 * metrics.left_sum(parts) / len(parts)
    else:
        bleu = metrics._bleu_from_counts([sum(column) for column in zip(*parts)], scale=100.0)
    prev_vals = [row.sim_previous for row in rows if row.sim_previous is not None]
    topic_vals = [row.sim_topic for row in rows if row.sim_topic is not None]
    return metrics.MetricReport(
        bleu=bleu,
        rouge_l=metrics.left_sum(row.rouge_l for row in rows) / n,
        sari=metrics.left_sum(row.sari for row in rows) / n,
        no_edit_ratio=sum(1 for row in rows if row.no_edit) / n,
        exact_match_ratio=sum(1 for row in rows if row.exact_match) / n,
        sim_original=metrics.left_sum(row.sim_original for row in rows) / n,
        sim_previous=metrics.left_sum(prev_vals) / len(prev_vals) if prev_vals else None,
        sim_topic=metrics.left_sum(topic_vals) / len(topic_vals) if topic_vals else None,
        n_instances=n,
    )


def _random_row(rng, bleu_mode):
    if bleu_mode == "sentence":
        bleu = rng.random()
    else:
        c = rng.randrange(0, 12)
        totals = [max(c - n, 0) for n in range(4)]
        bleu = [rng.randint(0, t) for t in totals] + totals + [c, rng.randrange(1, 12)]
    return _KeptRow(
        bleu=bleu,
        rouge_l=rng.random(),
        sari=100.0 * rng.random(),
        no_edit=rng.random() < 0.3,
        exact_match=rng.random() < 0.2,
        sim_original=rng.random(),
        sim_previous=rng.random() if rng.random() < 0.6 else None,
        sim_topic=rng.random() if rng.random() < 0.4 else None,
    )


@pytest.mark.parametrize("bleu_mode", metrics.BLEU_MODES)
def test_report_totals_keep_the_kept_rows_bits(bleu_mode):
    rng = random.Random(f"totals-{bleu_mode}")
    for n in (*range(1, 30), 300):
        # "none" never has a context field, "all" always has both
        by_strategy = {"mixed": [_random_row(rng, bleu_mode) for _ in range(n)]}
        by_strategy["none"] = [
            replace(row, sim_previous=None, sim_topic=None) for row in by_strategy["mixed"]
        ]
        by_strategy["all"] = [
            replace(row, sim_previous=rng.random(), sim_topic=rng.random())
            for row in by_strategy["mixed"]
        ]
        totals = metrics.ReportTotals()
        for i in range(n):
            totals.add({name: _one_row_total(rows[i]) for name, rows in by_strategy.items()})
        reports = totals.reports()
        assert list(reports) == list(by_strategy)
        for name, rows in by_strategy.items():
            expected = _kept_rows_report(rows, bleu_mode)
            assert reports[name] == expected
            for got, want in zip(astuple(reports[name]), astuple(expected)):
                assert type(got) is type(want)
                if isinstance(want, float):
                    assert got.hex() == want.hex()
        assert reports["none"].sim_previous is None and reports["none"].sim_topic is None
        assert reports["all"].sim_previous is not None and reports["all"].sim_topic is not None


def test_score_instance_scores_each_distinct_output_once(monkeypatch):
    scored = []
    real_score_row = metrics._score_row

    def counting_score_row(pair, normalized_ref, output, *args):
        scored.append(output)
        return real_score_row(pair, normalized_ref, output, *args)

    monkeypatch.setattr(metrics, "_score_row", counting_score_row)
    pair = _instances()[0]
    chosen = {"unedited": pair.source, "oracle": pair.reference, "top1": pair.source}
    totals = metrics.score_instance(pair, chosen, EMB)
    assert scored == [pair.source, pair.reference]
    assert list(totals) == list(chosen)
    assert totals["unedited"] is totals["top1"]
    assert totals["oracle"] is not totals["unedited"]
    assert all(total.n == 1 for total in totals.values())
    assert (totals["unedited"].no_edit, totals["oracle"].exact_match) == (1, 1)


def test_score_instance_rejects_unknown_bleu_mode(monkeypatch):
    monkeypatch.setattr(metrics, "_score_row", None)  # nothing is scored
    pair = _instances()[0]
    with pytest.raises(ValueError, match="unknown bleu mode 'document'"):
        metrics.score_instance(pair, {"x": pair.source}, EMB, bleu_mode="document")


@dataclass
class _ListEmbedder:
    """A custom embedder that is unhashable, as every ``@dataclass`` with
    ``eq`` is."""

    inner: HashingEmbedder
    calls: list = field(default_factory=list)

    def embed(self, text):
        self.calls.append(text)
        return self.inner.embed(text)


def test_evaluate_run_accepts_unhashable_embedder():
    instances = _instances()
    outputs = {
        "unedited": [i.source for i in instances],
        "oracle": [i.reference for i in instances],
        "again": [i.reference for i in instances],
    }
    custom = _ListEmbedder(HashingEmbedder())
    with pytest.raises(TypeError):
        hash(custom)
    assert evaluate_run(instances, outputs, custom) == evaluate_run(instances, outputs, EMB)
    # each text of an instance is embedded once: source, context fields
    # and the distinct outputs that are not the source
    first, second = instances
    assert custom.calls == [
        first.source, first.context.previous_claim, first.context.topic, first.reference,
        second.source, second.context.topic, second.reference,
    ]


def test_evaluate_run_multi_reference_equals_primitives():
    # each reference of a claim is scored as its own single-reference instance
    first = ["the tax helps towns overall", "a tax that helps the towns", "taxes help"]
    second = ["schools need more funding", "fund schools"]
    texts = ["the new tax helps towns", "schools need funding"]
    for ref_a, ref_b in itertools.product(first, second):
        instances = [
            inst("the tax helps towns", ref_a, topic="local taxes"),
            inst("schools need funding", ref_b),
        ]
        report = evaluate_run(instances, {"x": texts}, EMB)["x"]
        rows = [(i, text) for i, text in zip(instances, texts)]
        assert report.bleu == 100.0 * sum(sentence_bleu(t, i.reference) for i, t in rows) / 2
        assert report.rouge_l == sum(rouge_l(t, i.reference) for i, t in rows) / 2
        assert report.sari == sum(sari(i.source, t, i.reference) for i, t in rows) / 2
        assert report.sim_original == sum(
            context_similarity(t, i.source, EMB) for i, t in rows
        ) / 2
        assert report.sim_topic == context_similarity(texts[0], "local taxes", EMB)
        assert report.sim_previous is None


def test_evaluate_run_rejects_misaligned_outputs():
    instances = _instances()
    with pytest.raises(ValueError):
        evaluate_run(instances, {"x": ["only one"]}, EMB)
    with pytest.raises(ValueError):
        evaluate_run([], {"x": []}, EMB)


def test_report_csv_layout(tmp_path):
    instances = _instances()
    outputs = {"unedited": [i.source for i in instances]}
    reports = evaluate_run(instances, outputs, EMB)
    path = tmp_path / "report.csv"
    write_report_csv(reports, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(CSV_COLUMNS)
    assert rows[1][0] == "unedited"
    assert rows[1][4] == "1.000000"  # NoEd
    assert len(rows) == 2


def test_report_csv_keeps_old_bytes_when_formatting_fails(tmp_path):
    instances = _instances()
    reports = evaluate_run(instances, {"unedited": [i.source for i in instances]}, EMB)
    path = tmp_path / "report.csv"
    write_report_csv(reports, path)
    before = path.read_bytes()
    broken = {"broken": replace(reports["unedited"], sari="x"), **reports}
    with pytest.raises(ValueError):
        write_report_csv(broken, path)
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]
