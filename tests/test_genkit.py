import dataclasses
import sys

import pytest

from claimpolish.genkit import (
    Candidate,
    CandidateSet,
    Directive,
    GREEDY,
    GenerationConfig,
    GenerationError,
    MockGenerator,
    StdioGenerator,
    TOPK,
    dedup,
    generate_candidates,
    make_schedule,
)

CFG = GenerationConfig()


# ---------------------------------------------------------------------------
# directives and schedule


def test_directive_parse_roundtrip():
    assert Directive.parse("greedy") == GREEDY
    assert Directive.parse("topk:15") == TOPK(15)
    assert str(TOPK(5)) == "topk:5"
    assert str(GREEDY) == "greedy"


def test_directive_validation():
    with pytest.raises(ValueError):
        Directive("beam")
    with pytest.raises(ValueError):
        Directive("topk")
    with pytest.raises(ValueError):
        Directive("topk", 0)
    with pytest.raises(ValueError):
        Directive("greedy", 3)
    with pytest.raises(ValueError):
        Directive.parse("nucleus:0.9")


def test_schedule_greedy_then_increasing_k():
    assert [str(d) for d in make_schedule(1)] == ["greedy"]
    assert [str(d) for d in make_schedule(4)] == [
        "greedy",
        "topk:5",
        "topk:10",
        "topk:15",
    ]
    with pytest.raises(ValueError):
        make_schedule(0)


def test_generation_config_validation():
    with pytest.raises(ValueError):
        GenerationConfig(n_candidates=0)
    with pytest.raises(ValueError):
        GenerationConfig(min_length=0)
    with pytest.raises(ValueError):
        GenerationConfig(min_length=10, max_length=5)
    payload = dataclasses.asdict(CFG)  # the stdio generator's "config" request field
    assert payload["n_candidates"] == 10 and payload["max_length"] == 256
    assert list(payload) == [
        "length_penalty", "temperature", "no_repeat_ngram", "min_length", "max_length",
        "n_candidates",
    ]


# ---------------------------------------------------------------------------
# mock generator, greedy mode


def test_greedy_cleanup_worked_example():
    assert MockGenerator().generate("its good", GREEDY) == "It's good."


def test_greedy_all_rules_fire_together():
    out = MockGenerator().generate("dont worry about the cost", GREEDY)
    assert out == "Don't worry about the cost."


def test_greedy_clean_input_is_identity():
    clean = "The policy helps local business."
    assert MockGenerator().generate(clean, GREEDY) == clean


def test_greedy_is_idempotent():
    once = MockGenerator().generate("its good", GREEDY)
    assert MockGenerator().generate(once, GREEDY) == once


def test_greedy_preserves_existing_terminal_punctuation():
    assert MockGenerator().generate("is this right?", GREEDY) == "Is this right?"


def test_greedy_contraction_keeps_capitalization():
    assert MockGenerator().generate("Dont do it", GREEDY) == "Don't do it."


# ---------------------------------------------------------------------------
# mock generator, top-k mode


def test_topk_is_deterministic_per_seed():
    a = MockGenerator().generate("many people agree", TOPK(5), seed=4)
    b = MockGenerator().generate("many people agree", TOPK(5), seed=4)
    assert a == b


def test_topk_varies_with_k():
    outs = {
        MockGenerator().generate("many people agree somewhat", TOPK(k), seed=0)
        for k in (5, 10, 15)
    }
    assert len(outs) > 1


def test_topk_synonym_substitution_preserves_punctuation():
    # find a (seed, k) slot that lands on the synonym rule
    gen = MockGenerator()
    for seed in range(3):
        out = gen.generate("this is good.", TOPK(5), CFG, seed)
        if "beneficial" in out:
            assert out == "this is beneficial."
            return
    pytest.fail("no slot applied the synonym rule")


def test_topk_hedge_drop():
    gen = MockGenerator()
    for seed in range(3):
        out = gen.generate("maybe the tax helps", TOPK(5), CFG, seed)
        if "maybe" not in out.lower():
            assert out.startswith("The tax") or out.startswith("the tax")
            return
    pytest.fail("no slot dropped the hedge")


def test_topk_elaboration_appends_sentence():
    gen = MockGenerator()
    src = "The tax helps."
    for seed in range(3):
        out = gen.generate(src, TOPK(5), CFG, seed)
        if out.startswith(src + " ") and out != src:
            assert out[-1] == "."
            return
    pytest.fail("no slot elaborated")


def test_topk_inapplicable_rule_falls_forward():
    # no synonym and no hedge present: every slot must still produce text
    gen = MockGenerator()
    for seed in range(6):
        out = gen.generate("zq zr zs", TOPK(5), CFG, seed)
        assert out.startswith("zq zr zs")
        assert len(out) > len("zq zr zs")


def test_context_is_stripped_before_rewriting():
    out = MockGenerator().generate("its good <PREV> earlier claim <TOPIC> taxes", GREEDY)
    assert out == "It's good."
    assert "<PREV>" not in out and "<TOPIC>" not in out


def test_custom_delimiters_are_stripped():
    gen = MockGenerator(delimiters=("[P]", "[T]"))
    assert gen.generate("its good [P] earlier", GREEDY, CFG, 0) == "It's good."


def test_empty_after_stripping_raises():
    gen = MockGenerator()
    with pytest.raises(GenerationError):
        gen.generate("<PREV> only context", GREEDY, CFG, 0)


def test_max_length_truncation():
    cfg = GenerationConfig(min_length=1, max_length=3)
    out = MockGenerator().generate("one two three four five", GREEDY, config=cfg)
    assert out == "One two three"


# ---------------------------------------------------------------------------
# candidate assembly


class FlakyGenerator:
    def __init__(self, fail_on, answers=None):
        self.fail_on = fail_on
        self.answers = answers or {}  # directive -> text returned as is

    def generate(self, input_text, directive, config, seed):
        if str(directive) in self.fail_on:
            raise GenerationError("backend down")
        return self.answers.get(str(directive), f"{input_text} via {directive}")


def test_generate_candidates_indices_follow_schedule():
    cset = generate_candidates(MockGenerator(), "its good", CFG, make_schedule(4), 0)
    assert [c.index for c in cset.candidates] == [0, 1, 2, 3]
    assert [str(c.origin) for c in cset.candidates] == [
        "greedy",
        "topk:5",
        "topk:10",
        "topk:15",
    ]
    assert cset.source == "its good"


def test_generate_candidates_skips_failures_keeping_indices():
    gen = FlakyGenerator(fail_on={"topk:5"})
    cset = generate_candidates(gen, "x", CFG, make_schedule(3), 0)
    assert [c.index for c in cset.candidates] == [0, 2]
    blank = FlakyGenerator(fail_on=set(), answers={"topk:5": "", "topk:10": " "})
    cset = generate_candidates(blank, "x", CFG, make_schedule(4), 0)
    assert [c.index for c in cset.candidates] == [0, 3]


def test_generate_candidates_all_fail_raises():
    gen = FlakyGenerator(fail_on={"greedy", "topk:5"})
    with pytest.raises(GenerationError):
        generate_candidates(gen, "x", CFG, make_schedule(2), 0)


def test_generate_candidates_all_blank_or_non_string_raises():
    gen = FlakyGenerator(fail_on=set(), answers={"greedy": "", "topk:5": None})
    with pytest.raises(GenerationError, match="all 2 generation steps failed"):
        generate_candidates(gen, "x", CFG, make_schedule(2), 0)


def test_generate_candidates_default_schedule_from_config():
    cfg = GenerationConfig(n_candidates=3)
    cset = generate_candidates(MockGenerator(), "its good", cfg, None, 0)
    assert len(cset.candidates) == 3


def test_dedup_keeps_first_occurrence():
    cset = CandidateSet(
        source="s",
        candidates=(
            Candidate("a", GREEDY, 0),
            Candidate("b", TOPK(5), 1),
            Candidate("a", TOPK(10), 2),
            Candidate("c", TOPK(15), 3),
        ),
    )
    deduped = dedup(cset)
    assert [c.text for c in deduped.candidates] == ["a", "b", "c"]
    assert [c.index for c in deduped.candidates] == [0, 1, 3]


# ---------------------------------------------------------------------------
# stdio adapter


def _stdio_script(tmp_path, body):
    path = tmp_path / "gen.py"
    path.write_text("import json, sys\nfor line in sys.stdin:\n" + body)
    return [sys.executable, str(path)]


def test_stdio_generator_roundtrip(tmp_path):
    cmd = _stdio_script(
        tmp_path,
        "    req = json.loads(line)\n"
        "    print(json.dumps({'text': req['input'].upper() + ' ' + req['directive']}), flush=True)\n",
    )
    with StdioGenerator(cmd) as gen:
        assert gen.generate("hello", GREEDY, CFG, 0) == "HELLO greedy"
        assert gen.generate("hello", TOPK(10), CFG, 3) == "HELLO topk:10"


def test_stdio_generator_receives_config_and_seed(tmp_path):
    cmd = _stdio_script(
        tmp_path,
        "    req = json.loads(line)\n"
        "    print(json.dumps({'text': f\"{req['seed']}:{req['config']['max_length']}\"}), flush=True)\n",
    )
    with StdioGenerator(cmd) as gen:
        assert gen.generate("x", GREEDY, GenerationConfig(max_length=99), 42) == "42:99"


def test_stdio_generator_error_response_raises(tmp_path):
    cmd = _stdio_script(
        tmp_path,
        "    print(json.dumps({'error': 'cannot decode'}), flush=True)\n",
    )
    with StdioGenerator(cmd) as gen:
        with pytest.raises(GenerationError) as err:
            gen.generate("x", GREEDY, CFG, 0)
    assert "cannot decode" in str(err.value)


def test_stdio_generator_malformed_response_raises(tmp_path):
    cmd = _stdio_script(tmp_path, "    print('not json', flush=True)\n")
    with StdioGenerator(cmd) as gen:
        with pytest.raises(GenerationError):
            gen.generate("x", GREEDY, CFG, 0)


def test_stdio_generator_dead_process_raises(tmp_path):
    path = tmp_path / "dead.py"
    path.write_text("import sys; sys.exit(0)\n")
    with StdioGenerator([sys.executable, str(path)]) as gen:
        with pytest.raises(GenerationError):
            gen.generate("x", GREEDY, CFG, 0)


def test_stdio_generator_missing_text_raises(tmp_path):
    cmd = _stdio_script(tmp_path, "    print(json.dumps({'txt': 'typo'}), flush=True)\n")
    with StdioGenerator(cmd) as gen:
        with pytest.raises(GenerationError) as err:
            gen.generate("x", GREEDY, CFG, 0)
    assert "missing 'text'" in str(err.value)
