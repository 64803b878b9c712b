"""Cross-checks sari() against an independent brute-force oracle.

The oracle below re-derives the metric straight from the component
definitions with plain dicts and explicit loops, sharing no code or
structure with the library implementation, so an agreement to 1e-9
pins the counter algebra rather than echoing it. The oracle takes a
list of references; ``sari`` takes one, so a fixture with several
references is checked once per reference, each as a one-item list.
"""

import random
import re

import pytest

from claimpolish.metrics import sari

_TOKEN = re.compile(r"\w+|[^\w\s]", re.UNICODE)


def _toks(text):
    return _TOKEN.findall(text.lower())


def _grams(tokens, n):
    out = {}
    for i in range(len(tokens) - n + 1):
        g = " ".join(tokens[i : i + n])
        out[g] = out.get(g, 0) + 1
    return out


def _avg_ratio(numer, denom):
    # mean over the denominator's distinct grams of numer/denom,
    # with the nothing-to-do convention: no denominator grams -> 1
    if not denom:
        return 1.0
    total = 0.0
    for g, d in denom.items():
        total += numer.get(g, 0) / d
    return total / len(denom)


def _fmeasure(p, r):
    if p + r == 0.0:
        return 0.0
    return 2.0 * p * r / (p + r)


def oracle_sari(source, output, references, variant="canonical"):
    s_tok = _toks(source)
    o_tok = _toks(output)
    r_toks = [_toks(r) for r in references]
    numref = len(references)
    keep_sum = delete_sum = add_sum = 0.0
    for n in (1, 2, 3, 4):
        s = {g: c * numref for g, c in _grams(s_tok, n).items()}
        o = {g: c * numref for g, c in _grams(o_tok, n).items()}
        r = {}
        for toks in r_toks:
            for g, c in _grams(toks, n).items():
                r[g] = r.get(g, 0) + c

        kept = {}
        for g in s:
            both = min(s[g], o.get(g, 0))
            if both > 0:
                kept[g] = both
        kept_in_refs = {}
        for g, c in kept.items():
            hit = min(c, r.get(g, 0))
            if hit > 0:
                kept_in_refs[g] = hit
        should_keep = {}
        for g in s:
            hit = min(s[g], r.get(g, 0))
            if hit > 0:
                should_keep[g] = hit
        keep_p = _avg_ratio(kept_in_refs, kept)
        keep_r = _avg_ratio(kept_in_refs, should_keep)
        keep_sum += _fmeasure(keep_p, keep_r)

        dropped = {}
        for g in s:
            gone = s[g] - o.get(g, 0)
            if gone > 0:
                dropped[g] = gone
        rightly_dropped = {}
        for g, c in dropped.items():
            extra = c - r.get(g, 0)
            if extra > 0:
                rightly_dropped[g] = extra
        should_drop = {}
        for g in s:
            extra = s[g] - r.get(g, 0)
            if extra > 0:
                should_drop[g] = extra
        del_p = _avg_ratio(rightly_dropped, dropped)
        if variant == "canonical":
            delete_sum += del_p
        else:
            del_r = _avg_ratio(rightly_dropped, should_drop)
            delete_sum += _fmeasure(del_p, del_r)

        new_grams = [g for g in o if g not in s]
        new_in_refs = [g for g in new_grams if g in r]
        wanted_new = [g for g in r if g not in s]
        add_p = len(new_in_refs) / len(new_grams) if new_grams else 1.0
        add_r = len(new_in_refs) / len(wanted_new) if wanted_new else 1.0
        add_sum += _fmeasure(add_p, add_r)

    return 100.0 * (keep_sum / 4 + delete_sum / 4 + add_sum / 4) / 3.0


FIXTURES = [
    # identity and near-identity
    ("a b c", "a b c", ["a b c"]),
    ("the tax helps towns", "the tax helps towns", ["the tax helps towns"]),
    ("a b c", "a b c", ["a b"]),
    ("a b", "a b", ["a b c"]),
    # pure deletions
    ("a b c d", "a b", ["a b"]),
    ("a b c d", "a b c", ["a b"]),
    ("a b c d", "b c", ["a b"]),
    # pure additions
    ("a b", "a b c", ["a b c"]),
    ("a b", "a b z", ["a b"]),
    ("a b", "a b c d", ["a b c"]),
    # substitutions
    ("the cat sat", "the dog sat", ["the dog sat"]),
    ("the cat sat", "the dog sat", ["the bird sat"]),
    ("a b c", "x y z", ["a b c"]),
    ("a b c", "x y z", ["x y z"]),
    # repeated tokens: counts have to matter
    ("a a b", "a b", ["a b"]),
    ("a a a", "a", ["a a"]),
    ("a b a b", "a b", ["a b a"]),
    # multiple references
    ("a b c", "a b d", ["a b d", "a b e"]),
    ("a b c", "a b d", ["a b e", "a b f", "a b d"]),
    ("the tax helps", "the tax helps towns", ["the tax helps cities", "the tax helps towns"]),
    # punctuation and casing go through the same tokenizer
    ("Its good.", "It's good.", ["It's good."]),
    ("the end", "The end!", ["the end !"]),
    # longer, messier
    (
        "about ninety five species are currently accepted",
        "about ninety five species are accepted",
        [
            "about ninety five species are currently known",
            "about ninety five species are accepted",
        ],
    ),
]


@pytest.mark.parametrize("case_index", range(len(FIXTURES)))
@pytest.mark.parametrize("variant", ["canonical", "all_f1"])
def test_fixture_matches_oracle(case_index, variant):
    source, output, references = FIXTURES[case_index]
    for reference in references:
        expected = oracle_sari(source, output, [reference], variant)
        actual = sari(source, output, reference, variant=variant)
        assert actual == pytest.approx(expected, abs=1e-9), reference


@pytest.mark.parametrize("variant", ["canonical", "all_f1"])
def test_randomized_agreement(variant):
    rng = random.Random(20240817)
    vocab = ["a", "b", "c", "d", "e"]
    for _ in range(300):
        source = " ".join(rng.choice(vocab) for _ in range(rng.randint(1, 8)))
        output = " ".join(rng.choice(vocab) for _ in range(rng.randint(1, 8)))
        references = [
            " ".join(rng.choice(vocab) for _ in range(rng.randint(1, 8)))
            for _ in range(rng.randint(1, 3))
        ]
        for reference in references:
            expected = oracle_sari(source, output, [reference], variant)
            actual = sari(source, output, reference, variant=variant)
            assert actual == pytest.approx(expected, abs=1e-9), (source, output, reference)


def test_oracle_itself_scores_identity_perfect():
    # anchors the oracle: identity against an identical reference is 100
    assert oracle_sari("a b c", "a b c", ["a b c"]) == pytest.approx(100.0)
    assert oracle_sari("a b c d", "a b", ["a b"]) == pytest.approx(100.0)
