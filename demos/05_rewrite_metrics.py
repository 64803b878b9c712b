"""What the rewrite metrics reward and punish.

BLEU-4 (smoothed) measures n-gram overlap with the reference, ROUGE-L
longest-common-subsequence overlap, and SARI scores the edit decisions
themselves: keeping what both source and reference keep, deleting what
the reference deletes, adding what the reference adds. Identity outputs
max out BLEU/ROUGE but SARI exposes them the moment edits were wanted.

Run: python3 demos/05_rewrite_metrics.py
"""

from claimpolish.metrics import rouge_l, sari, sentence_bleu


def show(label, source, output, reference):
    b = sentence_bleu(output, reference) * 100
    r = rouge_l(output, reference)
    s = sari(source, output, reference)
    print(f"  {label:<22} BLEU {b:6.1f}  RougeL {r:.3f}  SARI {s:6.1f}")
    print(f"    output: {output!r}")


def main():
    source = "the the tax proposal it is good for towns"
    reference = "the tax proposal is good for towns"
    print(f"source:    {source!r}")
    print(f"reference: {reference!r}\n")

    show("reference itself", source, reference, reference)
    show("unedited source", source, source, reference)
    show("good rewrite", source, "the tax proposal is good for most towns", reference)
    show("over-deletion", source, "the tax proposal", reference)
    show("unrelated output", source, "cats are nice", reference)


if __name__ == "__main__":
    main()
