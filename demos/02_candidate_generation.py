"""Overgenerate rewrite candidates with a greedy + top-k schedule.

One greedy decode plus a ladder of increasingly loose top-k samples
(k = 5, 10, 15, ...) gives a small pool of diverse rewrites; byte-level
dedup collapses the repeats. The built-in mock generator applies cheap
deterministic cleanups so the whole thing runs offline.

Run: python3 demos/02_candidate_generation.py
"""

from claimpolish.genkit import (
    GenerationConfig,
    MockGenerator,
    dedup,
    generate_candidates,
    make_schedule,
)


def main():
    source = "its good that the tax passed, we think"
    config = GenerationConfig(n_candidates=10)
    print("decode schedule:", [str(d) for d in make_schedule(config.n_candidates)])

    generator = MockGenerator()
    cset = generate_candidates(generator, source, config, seed=3)
    print(f"\n{len(cset.candidates)} raw candidates for {source!r}:")
    for cand in cset.candidates:
        print(f"  {str(cand.origin):<10} {cand.text!r}")

    unique = dedup(cset)
    print(f"\nafter dedup: {len(unique.candidates)} distinct texts")
    for cand in unique.candidates:
        print(f"  [{cand.origin}] {cand.text!r}")

    # same seed, same pool; different seed, different sampling choices
    again = dedup(generate_candidates(generator, source, config, seed=3))
    other = dedup(generate_candidates(generator, source, config, seed=4))
    print(f"\nseed 3 reproducible: {[c.text for c in again.candidates] == [c.text for c in unique.candidates]}")
    print(f"seed 4 differs:      {[c.text for c in other.candidates] != [c.text for c in unique.candidates]}")


if __name__ == "__main__":
    main()
