"""Acceptance gate: one test per release criterion.

Each test prints a single ``[criterion N] label: PASS/FAIL`` line to the
live terminal (bypassing capture) so a ``pytest -v`` log doubles as the
acceptance checklist. Tolerances are pinned next to each check.
"""

import json
import os
import random
import time
from pathlib import Path

import pytest

from conftest import make_synthetic_pairs

from claimpolish.cli import main
from claimpolish.corpus import (
    ContextBundle,
    IntentLabel,
    RevisionChain,
    TASK_INTENTS,
    derive_pairs,
    filter_by_intent,
    load_chains,
    split_dataset,
    write_pairs,
)
from claimpolish.embedding import HashingEmbedder
from claimpolish.evalstats import (
    AnnotationMatrix,
    cohens_kappa,
    krippendorff_alpha,
    mace_aggregate,
    wilcoxon_signed_rank,
)
from claimpolish.genkit import Candidate, TOPK
from claimpolish.metrics import evaluate_run, rouge_l, sari
from claimpolish.scoring import (
    ScoreVector,
    ScorerRegistry,
    Weights,
    autoscore,
    calibrate_weights,
    pearson,
)
from claimpolish.selection import Strategy, score_columns, select

from test_sari_oracle import FIXTURES, oracle_sari


def _announce(capsys, number, label, ok, detail=""):
    line = f"[criterion {number}] {label}: {'PASS' if ok else 'FAIL'}"
    if detail and not ok:
        line += f"  ({detail})"
    with capsys.disabled():
        print(line)
    assert ok, f"criterion {number} {label}: {detail}"


def _skip(capsys, number, label, reason):
    with capsys.disabled():
        print(f"[criterion {number}] {label}: SKIP ({reason})")
    pytest.skip(reason)


# ---------------------------------------------------------------------------
# shared end-to-end run (criteria 1, 7, 9)

RUN_STRATEGIES = {
    "unedited", "top1", "random", "max_fluency",
    "max_argument", "max_meaning", "autoscore", "pairwise_rank",
}


@pytest.fixture(scope="module")
def e2e(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance_run")
    pairs_path = root / "pairs.jsonl"
    write_pairs(make_synthetic_pairs(600, seed=0), pairs_path)
    weights_path = root / "weights.json"
    weights_path.write_text(
        json.dumps(
            {"alpha": 0.43, "beta": 0.01, "gamma": 0.56,
             "pearson_r": 0.9, "grid_step": 0.01}
        )
        + "\n"
    )
    argv = [
        "run",
        "--pairs", str(pairs_path),
        "--seed", "7",
        "--context", "both",
        "--weights", str(weights_path),
        "--train-pairs", str(pairs_path),
    ]
    out_a, out_b = root / "a", root / "b"
    start = time.perf_counter()
    code_a = main(argv + ["--out", str(out_a)])
    elapsed = time.perf_counter() - start
    code_b = main(argv + ["--out", str(out_b)])
    report = json.loads((out_a / "report.json").read_text())
    return {
        "codes": (code_a, code_b),
        "elapsed": elapsed,
        "out_a": out_a,
        "out_b": out_b,
        "report": report,
    }


# ---------------------------------------------------------------------------


def test_criterion_1_identity_metrics(e2e, capsys):
    pairs = make_synthetic_pairs(600, seed=0)
    outputs = {"reference": [p.reference for p in pairs]}
    embedder = HashingEmbedder()
    sentence = evaluate_run(pairs, outputs, embedder, bleu_mode="sentence")["reference"]
    corpus = evaluate_run(pairs, outputs, embedder, bleu_mode="corpus")["reference"]
    checks = {
        "bleu_sentence": abs(sentence.bleu - 100.0) <= 1e-6,
        "bleu_corpus": abs(corpus.bleu - 100.0) <= 1e-6,
        "rouge_identity": all(rouge_l(p.reference, p.reference) == 1.0 for p in pairs),
        "exact_match": sentence.exact_match_ratio == 1.0,
        "unedited_noed": e2e["report"]["reports"]["unedited"]["no_edit_ratio"] == 1.0,
    }
    _announce(
        capsys, 1, "reference-as-output metrics saturate", all(checks.values()),
        detail=str(checks),
    )


def test_criterion_2_sari_matches_oracle(capsys):
    failures = []
    for source, output, references in FIXTURES:
        for reference in references:
            for variant in ("canonical", "all_f1"):
                got = sari(source, output, reference, variant=variant)
                want = oracle_sari(source, output, [reference], variant=variant)
                if abs(got - want) > 1e-9:
                    failures.append((source, output, reference, variant, got, want))
    ok = len(FIXTURES) >= 20 and not failures
    _announce(
        capsys, 2, f"SARI equals oracle on {len(FIXTURES)} fixtures x 2 variants",
        ok, detail=f"{len(failures)} mismatches: {failures[:3]}",
    )


def test_criterion_3_selection_equals_exhaustive_argmax(capsys):
    rng = random.Random(918273)
    matches = 0
    trials = 1000
    for case in range(trials):
        n = rng.randint(1, 10)
        candidates = tuple(
            Candidate(text=f"cand {case} {j}", origin=TOPK(5 * (j + 1)))
            for j in range(n)
        )
        # one-decimal quantization makes exact ties common
        scores = [
            ScoreVector(
                fluency=rng.randint(0, 10) / 10,
                meaning=rng.randint(0, 10) / 10,
                argument=rng.randint(0, 10) / 10,
            )
            for _ in range(n)
        ]
        a, b = sorted((rng.random(), rng.random()))
        weights = Weights(alpha=a, beta=b - a, gamma=1.0 - b)
        combined = [autoscore(vec, weights) for vec in scores]
        best = 0
        for j in range(1, n):
            if combined[j] > combined[best]:
                best = j
        columns = score_columns(candidates, scores, weights)
        matches += select(Strategy.AUTOSCORE, candidates, columns) == best
    _announce(
        capsys, 3, "autoscore selection matches exhaustive argmax on 1000 sets",
        matches == trials, detail=f"{matches}/{trials}",
    )


class _TableScorer:
    def __init__(self, table, default=0.5):
        self.table = table
        self.default = default

    def score(self, source, candidate, context):
        return self.table.get(candidate, self.default)


def test_criterion_4_calibration_recovers_planted_weight(capsys):
    rng = random.Random(20240822)
    chains = []
    argument_table = {}
    noise_table = {"fluency": {}, "meaning": {}}
    n_chains, m = 40, 6
    for ci in range(n_chains):
        claims = []
        for i in range(m):
            text = f"chain {ci} claim {i} token{rng.randint(0, 999)}"
            claims.append(text)
            if i > 0:
                position = i / (m - 1)
                # uniform(-0.05, 0.05) noise: sigma = 0.05/sqrt(3) <= 0.05
                argument_table[text] = 0.05 + 0.9 * position + rng.uniform(-0.05, 0.05)
                noise_table["fluency"][text] = rng.random()
                noise_table["meaning"][text] = rng.random()
        chains.append(
            RevisionChain(
                chain_id=f"cal{ci}",
                claims=tuple(claims),
                intents=tuple([IntentLabel.CLARIFICATION] * (m - 1)),
            )
        )
    registry = ScorerRegistry(
        fluency=_TableScorer(noise_table["fluency"]),
        meaning=_TableScorer(noise_table["meaning"]),
        argument=_TableScorer(argument_table),
    )
    start = time.perf_counter()
    result = calibrate_weights(chains, registry)
    elapsed = time.perf_counter() - start

    expected_points = 0
    for i in range(1, 99):
        for j in range(1, 99):
            k = 100 - i - j
            if 1 <= k <= 98:
                expected_points += 1

    checks = {
        "planted_weight": result.weights.gamma >= 0.90,
        "pearson_r": result.pearson_r >= 0.9,
        "grid_points": result.evaluated_points == expected_points,
        "under_two_minutes": elapsed < 120.0,
    }
    _announce(
        capsys, 4, "grid calibration recovers a planted signal", all(checks.values()),
        detail=f"{checks} gamma={result.weights.gamma} r={result.pearson_r:.4f} "
        f"points={result.evaluated_points}/{expected_points} {elapsed:.1f}s",
    )


def test_criterion_5_agreement_statistics(capsys):
    checks = {}

    checks["pearson"] = pearson([1, 2, 3, 4, 5], [1, 3, 2, 5, 4]) == 0.8

    rater_a = ["A"] * 25 + ["B"] * 25
    rater_b = ["A"] * 20 + ["B"] * 5 + ["A"] * 10 + ["B"] * 15
    checks["kappa"] = abs(cohens_kappa(rater_a, rater_b) - 0.4) <= 1e-9

    unanimous = AnnotationMatrix(
        {(f"i{i}", f"w{w}"): i % 3 for i in range(6) for w in range(3)}
    )
    checks["alpha_unanimous"] = krippendorff_alpha(unanimous) == 1.0

    sim_rng = random.Random(557)
    labels = {
        (f"i{i}", f"w{w}"): sim_rng.randint(1, 3)
        for i in range(2500)
        for w in range(4)
    }
    assert len(labels) == 10_000
    alpha = krippendorff_alpha(AnnotationMatrix(labels))
    checks["alpha_random"] = abs(alpha) <= 0.05

    statistic, _ = wilcoxon_signed_rank([1.0, -2.0, 3.0, 4.0, 5.0], [0.0] * 5)
    checks["wilcoxon_small"] = statistic == 2.0

    # Hamilton depression scale pairs (Hollander & Wolfe)
    x = [1.83, 0.50, 1.62, 2.48, 1.68, 1.88, 1.55, 3.06, 1.30]
    y = [0.878, 0.647, 0.598, 2.05, 1.06, 1.29, 1.06, 3.14, 1.29]
    statistic, p = wilcoxon_signed_rank(x, y)
    checks["wilcoxon_published"] = statistic == 5.0 and abs(p - 0.0390625) <= 1e-12

    _announce(
        capsys, 5, "agreement and significance fixtures", all(checks.values()),
        detail=str(checks),
    )


def test_criterion_6_aggregation_separates_spammers(capsys, mace_schedule):
    data_rng = random.Random(1234)
    truth = {f"item{i:03d}": data_rng.randrange(4) for i in range(200)}
    labels = {}
    for item, true_label in truth.items():
        for g in range(5):
            labels[(item, f"good{g}")] = true_label
        for s in range(5):
            labels[(item, f"spam{s}")] = data_rng.randrange(4)
    matrix = AnnotationMatrix(labels)

    results = {}
    start = time.perf_counter()
    mace_schedule(50, 5)
    for seed in range(5):
        fit = mace_aggregate(matrix, seed=seed)
        accuracy = sum(
            fit.posterior_labels[item] == true for item, true in truth.items()
        ) / len(truth)
        separated = min(fit.competence[f"good{g}"] for g in range(5)) > max(
            fit.competence[f"spam{s}"] for s in range(5)
        )
        results[seed] = (accuracy, separated)
    elapsed = time.perf_counter() - start

    ok = all(acc >= 0.99 and sep for acc, sep in results.values()) and elapsed < 60.0
    _announce(
        capsys, 6, "item aggregation recovers truth and flags spammers", ok,
        detail=f"{results} {elapsed:.1f}s",
    )


def test_criterion_7_end_to_end_run(e2e, capsys):
    report = e2e["report"]
    identical = all(
        (e2e["out_a"] / name).read_bytes() == (e2e["out_b"] / name).read_bytes()
        for name in ("selections.jsonl", "report.json", "report.csv", "ranker.json")
    )
    checks = {
        "exit_codes": e2e["codes"] == (0, 0),
        "under_minute": e2e["elapsed"] < 60.0,
        "all_strategies": set(report["reports"]) == RUN_STRATEGIES,
        "n_instances": report["metadata"]["n_instances"] == 600,
        "rerun_byte_identical": identical,
    }
    _announce(
        capsys, 7, "600-instance pipeline run", all(checks.values()),
        detail=f"{checks} elapsed={e2e['elapsed']:.1f}s",
    )


def test_criterion_8_source_corpus_reproduction(capsys):
    chains_path = os.environ.get("CLAIMPOLISH_CLAIMREV", "")
    if not chains_path or not Path(chains_path).is_file():
        _skip(
            capsys, 8, "source corpus statistics",
            "set CLAIMPOLISH_CLAIMREV to the claim revision chains.jsonl",
        )
    chains = load_chains(chains_path)
    pairs = [pair for chain in chains for pair in derive_pairs(chain)]
    filtered = filter_by_intent(pairs, TASK_INTENTS)
    split = split_dataset(filtered, per_label_test=200, seed=0)
    unedited = evaluate_run(
        split.test, {"unedited": [p.source for p in split.test]}, HashingEmbedder()
    )["unedited"]
    bleu_score, rouge_mean, sari_mean = unedited.bleu, unedited.rouge_l, unedited.sari
    checks = {
        "chains": len(chains) == 124_312,
        "derived": len(pairs) == 210_222,
        "filtered": len(filtered) == 198_089,
        "test_size": len(split.test) == 600,
        "bleu": abs(bleu_score - 69.4) <= 0.5,
        "rouge": abs(rouge_mean - 0.87) <= 0.01,
        "sari": abs(sari_mean - 27.9) <= 0.5,
        "exact_match": unedited.exact_match_ratio == 0.0,
    }
    _announce(
        capsys, 8, "source corpus statistics", all(checks.values()),
        detail=f"{checks} bleu={bleu_score!r} rouge={rouge_mean!r} sari={sari_mean!r}",
    )


def test_criterion_9_autoscore_edits_more_than_top1(e2e, capsys):
    reports = e2e["report"]["reports"]
    auto = reports["autoscore"]["no_edit_ratio"]
    top1 = reports["top1"]["no_edit_ratio"]
    _announce(
        capsys, 9, "combined score prefers edits over the greedy pick",
        auto < top1, detail=f"autoscore NoEd={auto} top1 NoEd={top1}",
    )
