"""Analyze human judgments: agreement, aggregation, significance.

Covers the usual questions in order. Do annotators agree (Cohen's
kappa, Krippendorff's alpha)? What is the consensus label once spammy
annotators are discounted (EM-based aggregation with per-worker
competence)? Is one system reliably ranked above another (Wilcoxon
signed-rank on per-item mean ranks)?

Run: python3 demos/06_annotation_statistics.py
"""

import random

from claimpolish.evalstats import (
    COMPETENCE_THRESHOLD,
    AnnotationMatrix,
    cohens_kappa,
    competent_workers,
    krippendorff_alpha,
    mace_aggregate,
    mean_rank,
    wilcoxon_signed_rank,
)


def main():
    # two raters, moderate agreement
    rater_a = ["good"] * 25 + ["bad"] * 25
    rater_b = ["good"] * 20 + ["bad"] * 5 + ["good"] * 10 + ["bad"] * 15
    print(f"cohen's kappa:        {cohens_kappa(rater_a, rater_b):.3f}")

    # three raters on a 1-5 scale; ordinal alpha forgives near misses
    labels = {}
    rng = random.Random(5)
    for i in range(60):
        true = rng.randint(1, 5)
        for w in range(3):
            jitter = rng.choice([-1, 0, 0, 1])
            labels[(f"i{i}", f"w{w}")] = min(5, max(1, true + jitter))
    matrix = AnnotationMatrix(labels)
    print(f"alpha (nominal):      {krippendorff_alpha(matrix, 'nominal'):.3f}")
    print(f"alpha (ordinal):      {krippendorff_alpha(matrix, 'ordinal'):.3f}")

    # 3 reliable workers + 2 label-at-random spammers
    truth = {f"item{i:03d}": rng.randrange(3) for i in range(100)}
    noisy = {}
    for item, true in truth.items():
        for g in range(3):
            noisy[(item, f"good{g}")] = true
        for s in range(2):
            noisy[(item, f"spam{s}")] = rng.randrange(3)
    fit = mace_aggregate(AnnotationMatrix(noisy), seed=0)
    accuracy = sum(fit.posterior_labels[i] == t for i, t in truth.items()) / len(truth)
    print(f"\naggregation accuracy: {accuracy:.2%}")
    for worker in sorted(fit.competence):
        print(f"  competence {worker}: {fit.competence[worker]:.3f}")
    print(f"  kept above {COMPETENCE_THRESHOLD}: {competent_workers(fit)}")

    # rank two systems per item, then test the difference
    rankings = []
    for i in range(40):
        order = ("combined", "greedy") if rng.random() < 0.85 else ("greedy", "combined")
        rankings.append(order)
    means = mean_rank(rankings)
    print(f"\nmean rank combined={means['combined']:.2f} greedy={means['greedy']:.2f}")
    xs = [1.0 if r[0] == "combined" else 2.0 for r in rankings]
    ys = [2.0 if r[0] == "combined" else 1.0 for r in rankings]
    statistic, p = wilcoxon_signed_rank(xs, ys)
    print(f"wilcoxon statistic={statistic:.1f} p={p:.2e}")


if __name__ == "__main__":
    main()
