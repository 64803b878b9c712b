"""Score a candidate pool and compare selection strategies.

Every candidate gets a three-axis quality vector (fluency, meaning
preservation, argument quality), each in [0, 1]. The combined score is
a weighted sum. ``score_columns`` lays the scores out as one column per
decision score; each selection strategy, from "never edit" baselines to
the combined-score argmax and a learned pairwise ranker, picks a
position from those columns (-1 keeps the source).

Run: python3 demos/03_scoring_and_selection.py
"""

from claimpolish.embedding import HashingEmbedder
from claimpolish.genkit import GenerationConfig, MockGenerator, dedup, generate_candidates
from claimpolish.scoring import DEFAULT_WEIGHTS, default_registry, score_candidate
from claimpolish.selection import Strategy, score_columns, select, train_pairwise_ranker


def main():
    source = "its good that the tax passed, we think"
    config = GenerationConfig(n_candidates=10)
    candidates = dedup(generate_candidates(MockGenerator(), source, config, seed=3)).candidates

    registry = default_registry()
    scores = [score_candidate(registry, source, c.text, None) for c in candidates]

    # a tiny ranker trained on (worse, better) rewrite pairs
    training = [
        ("the plan is bad", "The plan is bad. It ignores the budget entirely."),
        ("taxes help", "Taxes help. They fund the services people rely on."),
        ("we should act", "We should act. Waiting only raises the eventual cost."),
    ]
    embedder = HashingEmbedder()
    ranker = train_pairwise_ranker(training, embedder, seed=0)
    columns = score_columns(candidates, scores, DEFAULT_WEIGHTS, ranker=ranker)

    print(f"weights: alpha={DEFAULT_WEIGHTS.alpha} beta={DEFAULT_WEIGHTS.beta} "
          f"gamma={DEFAULT_WEIGHTS.gamma}")
    print(f"{'combined':>8}  {'flu':>5} {'mean':>5} {'arg':>5}  text")
    for i, cand in enumerate(candidates):
        print(f"{columns['autoscore'][i]:8.3f}  {columns['fluency'][i]:5.2f} "
              f"{columns['meaning'][i]:5.2f} {columns['argument'][i]:5.2f}  "
              f"{cand.text[:60]!r}")

    print("\nstrategy choices:")
    for strategy in Strategy:
        position = select(strategy, candidates, columns, seed=11)
        chosen = source if position < 0 else candidates[position].text
        flag = "edited" if chosen != source else "kept  "
        print(f"  {strategy.value:<14} {flag} {chosen[:58]!r}")


if __name__ == "__main__":
    main()
