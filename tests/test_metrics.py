import csv
import math
import random
from dataclasses import dataclass, field, replace

import pytest

from claimpolish import metrics
from claimpolish.corpus import ContextBundle, MissingContextError
from claimpolish.embedding import HashingEmbedder
from claimpolish.metrics import (
    CSV_COLUMNS,
    EvalInstance,
    context_similarity,
    evaluate_run,
    rouge_l,
    sari,
    sentence_bleu,
    write_report_csv,
)

EMB = HashingEmbedder(dim=128)


def inst(source, references, **ctx):
    return EvalInstance(
        source=source,
        references=tuple(references),
        context=ContextBundle(**ctx),
    )


def corpus_bleu(instances, outputs, mode="sentence"):
    return evaluate_run(instances, {"x": outputs}, EMB, bleu_mode=mode)["x"].bleu


# ---------------------------------------------------------------------------
# BLEU


def test_bleu_identity_is_exactly_one():
    assert sentence_bleu("the cat sat", ["the cat sat"]) == 1.0
    # short identity: missing orders are skipped, not zero-smoothed
    assert sentence_bleu("so true", ["so true"]) == 1.0
    assert sentence_bleu("yes", ["yes"]) == 1.0


def test_bleu_disjoint_is_small_but_positive():
    value = sentence_bleu("x y z", ["a b c"])
    assert 0.0 < value < 0.05


def test_bleu_partial_overlap_between_extremes():
    partial = sentence_bleu("the cat sat", ["the dog sat"])
    disjoint = sentence_bleu("x y z", ["a b c"])
    assert disjoint < partial < 1.0


def test_bleu_brevity_penalty():
    # perfect precision, half the reference length: BP = exp(1 - r/c)
    assert sentence_bleu("the cat", ["the cat sat on"]) == pytest.approx(
        math.exp(1.0 - 4.0 / 2.0)
    )


def test_bleu_closest_reference_length_ties_to_shorter():
    # lengths 2 and 4 are equally close to 3; the shorter wins, so no penalty
    assert sentence_bleu("a b c", ["a b", "a b c d"]) == pytest.approx(1.0)


def test_bleu_multi_reference_clipping():
    # each token covered by some reference
    value = sentence_bleu("a b", ["a x", "y b"])
    assert value > sentence_bleu("a b", ["a x"])


def test_bleu_empty_output_or_refs():
    assert sentence_bleu("", ["a"]) == 0.0
    assert sentence_bleu("a", []) == 0.0


def test_bleu_corpus_scale():
    instances = [inst("s one", ["r one"]), inst("s two", ["r two"])]
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
    pooled = corpus_bleu([inst("s", references)], [output], mode="corpus")
    assert pooled == pytest.approx(100 * sentence_bleu(output, references), rel=1e-12)


def test_bleu_corpus_mode_pools_counts():
    instances = [inst("s", ["the cat sat"]), inst("s", ["a dog ran off quickly"])]
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
    assert sari("a b c", "a b c", ["a b c"]) == pytest.approx(100.0, abs=1e-9)


def test_sari_perfect_deletion():
    assert sari("a b c d", "a b", ["a b"]) == pytest.approx(100.0, abs=1e-9)


def test_sari_perfect_addition():
    assert sari("a b", "a b c", ["a b c"]) == pytest.approx(100.0, abs=1e-9)


def test_sari_spurious_addition_hand_value():
    # keep and delete stay perfect; add earns credit only at order 4,
    # where output and reference both have nothing to add
    assert sari("a b", "a b z", ["a b"]) == pytest.approx(75.0, abs=1e-9)


def test_sari_missed_deletion_hand_value():
    # identity output, but the reference dropped the last token
    keep_total = 0.8 + 2 / 3 + 0.0 + 1.0
    expected = 100.0 * (keep_total / 4 + 1.0 + 1.0) / 3.0
    assert sari("a b c", "a b c", ["a b"]) == pytest.approx(expected, abs=1e-9)


def test_sari_variants_differ_on_partial_deletion():
    # output deletes one of the two tokens the reference deletes:
    # delete precision is 1 but recall is 1/2
    canonical = sari("a b c d", "a b c", ["a b"], variant="canonical")
    all_f1 = sari("a b c d", "a b c", ["a b"], variant="all_f1")
    assert canonical > all_f1
    assert 0.0 < all_f1 < canonical <= 100.0


def test_sari_validation():
    with pytest.raises(ValueError):
        sari("a", "b", [])
    with pytest.raises(ValueError):
        sari("a", "b", ["c"], variant="macro")


def test_sari_multi_reference_replication_changes_score():
    one_ref = sari("a b", "a c", ["a c"])
    two_refs = sari("a b", "a c", ["a c", "a b"])
    assert one_ref == pytest.approx(100.0, abs=1e-9)
    assert two_refs < one_ref


def test_repeated_calls_give_equal_results():
    # the primitives share cached n-gram Counters; a caller that mutated
    # one would change the second result
    source, output = "the tax helps the towns", "the new tax helps towns a lot"
    refs = ["the tax helps towns", "a new tax helps the towns"]
    for call in (
        lambda: sari(source, output, refs),
        lambda: sari(source, output, refs, variant="all_f1"),
        lambda: sentence_bleu(output, refs),
        lambda: rouge_l(output, refs[1]),
        lambda: corpus_bleu([inst(source, refs)], [output], mode="corpus"),
    ):
        assert call() == call()


def test_text_analysis_cache_stays_bounded():
    for k in range(1000):
        sari(f"source {k}", f"output {k} words", [f"reference {k}"])
    info = metrics._analyse.cache_info()
    assert info.currsize <= info.maxsize == metrics._ANALYSE_CACHE_SIZE


# ---------------------------------------------------------------------------
# ratios and similarity


def test_exact_match_normalizes_whitespace():
    instances = [inst("s", ["a b"]), inst("s", ["a b"])]
    report = evaluate_run(instances, {"x": ["a  b", "a c"]}, EMB)["x"]
    assert report.exact_match_ratio == 0.5


def test_no_edit_is_byte_exact():
    instances = [inst("same text", ["r"]), inst("same text", ["r"])]
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


def test_eval_instance_validation():
    with pytest.raises(ValueError):
        EvalInstance(source="s", references=())
    with pytest.raises(ValueError):
        EvalInstance(source=" ", references=("r",))
    with pytest.raises(ValueError):
        EvalInstance(source="s", references=("r", " "))


def test_evaluate_run_rejects_blank_output_and_unknown_bleu_mode():
    instances = [inst("s", ["r"])]
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
            ["the tax helps towns overall"],
            topic="local taxes",
            previous_claim="taxes were raised",
        ),
        inst(
            "schools need funding",
            ["schools need more funding"],
            topic="education",
        ),
    ]


def test_evaluate_run_per_strategy_reports():
    instances = _instances()
    outputs = {
        "unedited": [i.source for i in instances],
        "oracle": [i.references[0] for i in instances],
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
    instances = [inst("a b", ["a b c"])]
    reports = evaluate_run(instances, {"x": ["a b"]}, EMB)
    assert reports["x"].sim_previous is None
    assert reports["x"].sim_topic is None
    assert reports["x"].sim_original == pytest.approx(1.0)


def test_evaluate_run_rouge_uses_best_reference():
    instances = [inst("s t", ["x y z", "a b c"])]
    reports = evaluate_run(instances, {"x": ["a b c"]}, EMB)
    assert reports["x"].rouge_l == pytest.approx(1.0)


def test_evaluate_run_scores_each_distinct_row_once(monkeypatch):
    calls = []
    real_sari = metrics.sari

    def counting_sari(source, output, references, variant="canonical"):
        calls.append((source, output))
        return real_sari(source, output, references, variant=variant)

    monkeypatch.setattr(metrics, "sari", counting_sari)
    instances = _instances()
    sources = [i.source for i in instances]
    outputs = {
        "unedited": sources,
        "copy": list(sources),
        "oracle": [instances[0].references[0], instances[1].source],
        # one text for both instances: still two rows, one per instance
        "same": ["the same words", "the same words"],
    }
    reports = evaluate_run(instances, outputs, EMB)
    assert sorted(calls) == sorted(
        [
            (sources[0], sources[0]),
            (sources[1], sources[1]),
            (sources[0], instances[0].references[0]),
            (sources[0], "the same words"),
            (sources[1], "the same words"),
        ]
    )
    assert reports["unedited"] == reports["copy"]
    assert reports["oracle"] != reports["unedited"]


@dataclass
class _ListEmbedder:
    """A custom embedder that is unhashable, as every ``@dataclass`` with
    ``eq`` is."""

    inner: HashingEmbedder
    dim: int = 128
    calls: list = field(default_factory=list)

    def embed(self, text):
        self.calls.append(text)
        return self.inner.embed(text)


def test_evaluate_run_accepts_unhashable_embedder():
    instances = _instances()
    outputs = {
        "unedited": [i.source for i in instances],
        "oracle": [i.references[0] for i in instances],
        "again": [i.references[0] for i in instances],
    }
    custom = _ListEmbedder(HashingEmbedder(dim=128))
    with pytest.raises(TypeError):
        hash(custom)
    assert evaluate_run(instances, outputs, custom) == evaluate_run(instances, outputs, EMB)
    # each text of an instance is embedded once: source, context fields
    # and the distinct outputs that are not the source
    first, second = instances
    assert custom.calls == [
        first.source, first.context.previous_claim, first.context.topic, first.references[0],
        second.source, second.context.topic, second.references[0],
    ]


def test_evaluate_run_multi_reference_equals_primitives():
    instances = [
        inst(
            "the tax helps towns",
            ["the tax helps towns overall", "a tax that helps the towns", "taxes help"],
            topic="local taxes",
        ),
        inst("schools need funding", ["schools need more funding", "fund schools"]),
    ]
    texts = ["the new tax helps towns", "schools need funding"]
    report = evaluate_run(instances, {"x": texts}, EMB)["x"]
    rows = [(i, text) for i, text in zip(instances, texts)]
    assert report.bleu == 100.0 * sum(sentence_bleu(t, i.references) for i, t in rows) / 2
    assert report.rouge_l == sum(max(rouge_l(t, r) for r in i.references) for i, t in rows) / 2
    assert report.sari == sum(sari(i.source, t, i.references) for i, t in rows) / 2
    assert report.sim_original == sum(context_similarity(t, i.source, EMB) for i, t in rows) / 2
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
