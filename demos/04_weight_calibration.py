"""Calibrate combination weights against revision positions.

Assumption: within a revision chain, later versions are better. So the
right weights are the ones whose combined score correlates best with a
claim's normalized position in its chain. This plants that signal in
the argument scorer, leaves the other two axes as noise, and shows the
grid search digging the planted weight back out.

Run: python3 demos/04_weight_calibration.py
"""

import random
import time

from claimpolish.corpus import Claim, IntentLabel, RevisionChain
from claimpolish.scoring import ScorerRegistry, calibrate_weights, save_calibration, simplex_grid


class TableScorer:
    """Returns precomputed values; stands in for a trained model."""

    def __init__(self, table):
        self.table = table

    def score(self, source, candidate, context):
        return self.table.get(candidate, 0.5)


def planted_chains(n_chains=40, length=6, seed=99):
    rng = random.Random(seed)
    chains, argument, noise_f, noise_m = [], {}, {}, {}
    for ci in range(n_chains):
        claims = []
        for i in range(length):
            text = f"chain {ci} version {i} ({rng.random():.6f})"
            claims.append(Claim(id=f"c{ci}_{i}", text=text, debate_id=f"d{ci}"))
            if i > 0:
                position = i / (length - 1)
                argument[text] = 0.05 + 0.9 * position + rng.uniform(-0.05, 0.05)
                noise_f[text] = rng.random()
                noise_m[text] = rng.random()
        chains.append(RevisionChain(
            chain_id=f"cal{ci}", claims=tuple(claims),
            intents=tuple([IntentLabel.CLARIFICATION] * (length - 1)),
        ))
    registry = ScorerRegistry(
        fluency=TableScorer(noise_f),
        meaning=TableScorer(noise_m),
        argument=TableScorer(argument),
    )
    return chains, registry


def main():
    grid = simplex_grid(0.01, 0.01, 0.98)
    print(f"grid: {len(grid)} weight triples (step 0.01, each weight in [0.01, 0.98])")

    chains, registry = planted_chains()
    print(f"planted: argument score tracks position in {len(chains)} chains; "
          "fluency and meaning are noise")

    start = time.perf_counter()
    result = calibrate_weights(chains, registry)
    elapsed = time.perf_counter() - start

    w = result.weights
    print(f"\nbest weights: alpha={w.alpha:.2f} beta={w.beta:.2f} gamma={w.gamma:.2f}")
    print(f"pearson r at the optimum: {result.pearson_r:.4f}")
    print(f"searched {result.evaluated_points} points in {elapsed:.2f}s")

    save_calibration("/tmp/demo_weights.json", result)
    print("wrote /tmp/demo_weights.json")


if __name__ == "__main__":
    main()
