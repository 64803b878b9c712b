import math
import random
import sys
import tracemalloc

import numpy as np
import pytest

from claimpolish.corpus import ContextBundle, IntentLabel, RevisionChain
from claimpolish.embedding import HashingEmbedder, cosine
from claimpolish.scoring import (
    CalibrationError,
    CalibrationResult,
    CosineMeaningScorer,
    DEFAULT_WEIGHTS,
    HeuristicArgumentScorer,
    HeuristicFluencyScorer,
    JaccardMeaningScorer,
    ScoreVector,
    ScorerError,
    ScorerRegistry,
    StdioScorer,
    Weights,
    autoscore,
    calibrate_weights,
    default_registry,
    load_weights,
    pearson,
    save_calibration,
    score_candidate,
    simplex_grid,
)


class FixedScorer:
    def __init__(self, value):
        self.value = value

    def score(self, source, candidate, context):
        return self.value


class TableScorer:
    """Looks the candidate text up in a fixed table."""

    def __init__(self, table, default=0.5):
        self.table = table
        self.default = default

    def score(self, source, candidate, context):
        return self.table.get(candidate, self.default)


# ---------------------------------------------------------------------------
# vectors, weights, normalization


def test_score_vector_validates_range():
    ScoreVector(0.0, 0.5, 1.0)
    with pytest.raises(ValueError):
        ScoreVector(-0.1, 0.5, 0.5)
    with pytest.raises(ValueError):
        ScoreVector(0.5, 1.1, 0.5)


def test_weights_validate_simplex():
    Weights(0.43, 0.01, 0.56)
    with pytest.raises(ValueError):
        Weights(0.5, 0.5, 0.5)
    with pytest.raises(ValueError):
        Weights(-0.1, 0.55, 0.55)
    assert DEFAULT_WEIGHTS.alpha + DEFAULT_WEIGHTS.beta + DEFAULT_WEIGHTS.gamma == 1.0


def test_autoscore_weighted_sum():
    # second candidate wins on argument quality despite weaker fluency
    first = ScoreVector(0.9, 0.9, 0.1)
    second = ScoreVector(0.5, 0.5, 0.9)
    assert autoscore(first, DEFAULT_WEIGHTS) == pytest.approx(0.452)
    assert autoscore(second, DEFAULT_WEIGHTS) == pytest.approx(0.724)
    assert autoscore(second, DEFAULT_WEIGHTS) > autoscore(first, DEFAULT_WEIGHTS)


def test_score_candidate_keeps_in_range_values():
    registry = ScorerRegistry(
        fluency=FixedScorer(0.7),
        meaning=FixedScorer(0.0),
        argument=FixedScorer(0.2),
    )
    vec = score_candidate(registry, "s", "c", None)
    assert vec == ScoreVector(0.7, 0.0, 0.2)


def test_score_candidate_clips_values_within_tolerance():
    registry = ScorerRegistry(
        fluency=FixedScorer(1.0 + 5e-7),
        meaning=FixedScorer(-5e-7),
        argument=FixedScorer(1.0),
    )
    vec = score_candidate(registry, "s", "c", None)
    assert vec == ScoreVector(1.0, 0.0, 1.0)


@pytest.mark.parametrize("axis", ["fluency", "meaning", "argument"])
@pytest.mark.parametrize("value", [-2e-6, 1.0 + 2e-6, -0.2, math.nan])
def test_score_candidate_rejects_values_outside_unit_interval(axis, value):
    scorers = dict.fromkeys(("fluency", "meaning", "argument"), FixedScorer(0.5))
    scorers[axis] = FixedScorer(value)
    with pytest.raises(ScorerError) as err:
        score_candidate(ScorerRegistry(**scorers), "s", "c", None)
    assert str(err.value) == f"{axis} scorer returned {value}, outside [0, 1]"


def test_score_candidate_rejects_out_of_range_output():
    registry = ScorerRegistry(
        fluency=FixedScorer(1.5),
        meaning=FixedScorer(0.5),
        argument=FixedScorer(0.5),
    )
    with pytest.raises(ScorerError) as err:
        score_candidate(registry, "s", "c", None)
    assert "fluency" in str(err.value)


def test_score_candidate_wraps_scorer_exceptions():
    class Broken:
        def score(self, source, candidate, context):
            raise RuntimeError("backend down")

    registry = ScorerRegistry(
        fluency=Broken(), meaning=FixedScorer(0.5), argument=FixedScorer(0.5)
    )
    with pytest.raises(ScorerError) as err:
        score_candidate(registry, "s", "c", None)
    assert "fluency scorer failed" in str(err.value)


# ---------------------------------------------------------------------------
# heuristic scorers


def test_fluency_deductions_compose():
    scorer = HeuristicFluencyScorer()
    assert scorer.score("s", "A clean sentence.", None) == 1.0
    assert scorer.score("s", "lowercase start.", None) == pytest.approx(0.7)
    assert scorer.score("s", "No terminal punctuation", None) == pytest.approx(0.7)
    assert scorer.score("s", "The the repeated word.", None) == pytest.approx(0.8)
    assert scorer.score("s", "I dont agree.", None) == pytest.approx(0.8)
    assert scorer.score("s", "dont dont", None) == pytest.approx(0.0)
    assert scorer.score("s", "   ", None) == 0.0


def test_jaccard_meaning_cases():
    scorer = JaccardMeaningScorer()
    assert scorer.score("a b c", "a b c", None) == 1.0
    assert scorer.score("a b", "c d", None) == 0.0
    assert scorer.score("a b c", "a b d", None) == pytest.approx(2 / 4)
    assert scorer.score("", "", None) == 1.0


def test_cosine_meaning_scorer_is_unit_cosine():
    embedder = HashingEmbedder()
    scorer = CosineMeaningScorer(embedder)
    assert scorer.score("same text", "same text", None) == pytest.approx(1.0)
    for source, candidate in [("a b c", "a b d"), ("a b", "c d"), ("", "a"), ("x y", "y x z")]:
        raw = cosine(embedder.embed(source), embedder.embed(candidate))
        assert scorer.score(source, candidate, None) == (raw + 1.0) / 2.0
    assert scorer.score("", "a", None) == 0.5  # an empty text has cosine 0


def test_argument_scorer_identity_floor():
    scorer = HeuristicArgumentScorer()
    assert scorer.score("The claim.", "The claim.", None) == 0.2
    assert scorer.score("The claim.", "  The   claim. ", None) == 0.2  # whitespace only
    edited = scorer.score("The claim.", "The claim. New evidence backs this.", None)
    assert edited > 0.2


def test_argument_scorer_rewards_new_tokens_and_form():
    scorer = HeuristicArgumentScorer()
    # one new token, capitalized, terminal punctuation
    one_new = scorer.score("the tax helps.", "The tax truly helps.", None)
    assert one_new == pytest.approx(0.5 + 0.3 * (1 / 5) + 0.1 + 0.1)
    # saturates at five new tokens, capped at 1.0
    many = scorer.score("a.", "A stronger case with many fresh angles here.", None)
    assert many == 1.0


# ---------------------------------------------------------------------------
# stdio adapter


def _stdio_script(tmp_path, body):
    path = tmp_path / "scorer.py"
    path.write_text("import json, sys\nfor line in sys.stdin:\n" + body)
    return [sys.executable, str(path)]


def test_stdio_scorer_roundtrip(tmp_path):
    cmd = _stdio_script(
        tmp_path,
        "    req = json.loads(line)\n"
        "    ctx = req['context']\n"
        "    hit = ctx['topic'] == 'taxes' and ctx['previous_claim'] is None\n"
        "    print(json.dumps({'score': len(req['candidate']) / 10 if hit else -1}), flush=True)\n",
    )
    context = ContextBundle(topic="taxes")
    with StdioScorer(cmd) as scorer:
        assert scorer.score("s", "abc", context) == pytest.approx(0.3)
        assert scorer.score("s", "abcde", context) == pytest.approx(0.5)
        # the raw answer comes back as sent; score_candidate checks its range
        assert scorer.score("s", "abc", ContextBundle()) == -1.0


def test_stdio_scorer_error_response_raises(tmp_path):
    cmd = _stdio_script(tmp_path, "    print(json.dumps({'error': 'no model'}), flush=True)\n")
    with StdioScorer(cmd) as scorer:
        with pytest.raises(ScorerError) as err:
            scorer.score("s", "c", ContextBundle())
    assert str(err.value) == "scorer error: no model"


def test_stdio_scorer_malformed_response_raises(tmp_path):
    cmd = _stdio_script(tmp_path, "    print('not json', flush=True)\n")
    with StdioScorer(cmd) as scorer:
        with pytest.raises(ScorerError) as err:
            scorer.score("s", "c", ContextBundle())
    assert "scorer sent malformed JSON" in str(err.value)


def test_stdio_scorer_dead_process_raises(tmp_path):
    path = tmp_path / "dead.py"
    path.write_text("import sys; sys.exit(0)\n")
    with StdioScorer([sys.executable, str(path)]) as scorer:
        with pytest.raises(ScorerError):
            scorer.score("s", "c", ContextBundle())


def test_stdio_scorer_missing_score_raises(tmp_path):
    for score in ("'high'", "True"):  # True is sent as the JSON boolean true
        cmd = _stdio_script(tmp_path, f"    print(json.dumps({{'score': {score}}}), flush=True)\n")
        with StdioScorer(cmd) as scorer:
            with pytest.raises(ScorerError) as err:
                scorer.score("s", "c", ContextBundle())
        assert "missing 'score'" in str(err.value)


# ---------------------------------------------------------------------------
# pearson


def test_pearson_known_value():
    assert pearson([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8, abs=1e-12)


def test_pearson_perfect_and_inverse():
    assert pearson([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0)
    assert pearson([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)


def test_pearson_errors():
    with pytest.raises(ValueError):
        pearson([1, 2], [1, 2, 3])
    with pytest.raises(ValueError):
        pearson([1], [1])
    with pytest.raises(ValueError):
        pearson([1, 1, 1], [1, 2, 3])
    with pytest.raises(ValueError):  # the rounded mean of three 0.1s is not 0.1
        pearson([0.1, 0.1, 0.1], [1, 2, 3])


# ---------------------------------------------------------------------------
# simplex grid


def test_simplex_grid_default_count():
    triples = simplex_grid(0.01, 0.01, 0.98)
    assert len(triples) == 4851
    assert triples == sorted(triples)
    for a, b, g in triples:
        assert 0.01 - 1e-12 <= min(a, b, g)
        assert max(a, b, g) <= 0.98 + 1e-12
        assert abs(a + b + g - 1.0) <= 0.005 + 1e-12


def test_simplex_grid_coarse_count():
    # 0.1 grid over the full simplex: compositions of 10 into 3 parts
    assert len(simplex_grid(0.1, 0.0, 1.0)) == 66


def test_simplex_grid_half_step_has_no_interior_point():
    assert simplex_grid(0.5, 0.01, 0.98) == []


# ---------------------------------------------------------------------------
# calibration


def _planted_chains(n_chains=30, steps=4, noise=0.05, seed=9):
    """Chains whose argument score tracks revision position; the other
    two components are pure noise. Texts are unique lookup keys."""
    rng = random.Random(seed)
    chains = []
    argument_table = {}
    fluency_table = {}
    meaning_table = {}
    for c in range(n_chains):
        texts = [f"claim {c} version {i}" for i in range(steps + 1)]
        for i, text in enumerate(texts):
            if i > 0:
                pos = i / steps
                argument_table[text] = 0.05 + 0.9 * pos + rng.uniform(-noise, noise)
            fluency_table[text] = rng.random()
            meaning_table[text] = rng.random()
        intents = tuple([IntentLabel.CLARIFICATION] * steps)
        chains.append(RevisionChain(f"pc{c}", tuple(texts), intents, ContextBundle()))
    registry = ScorerRegistry(
        fluency=TableScorer(fluency_table),
        meaning=TableScorer(meaning_table),
        argument=TableScorer(argument_table),
    )
    return chains, registry


def test_calibration_recovers_planted_signal(calibration_grid):
    chains, registry = _planted_chains()
    calibration_grid(0.05, 0.05, 0.9)
    result = calibrate_weights(chains, registry)
    assert result.weights.gamma >= 0.8
    assert result.pearson_r >= 0.9
    assert result.evaluated_points == len(simplex_grid(0.05, 0.05, 0.9))


def test_calibration_is_deterministic(calibration_grid):
    chains, registry = _planted_chains()
    calibration_grid(0.1, 0.0, 1.0)
    a = calibrate_weights(chains, registry)
    b = calibrate_weights(chains, registry)
    assert a == b


def test_calibration_tie_breaks_lexicographically(calibration_grid):
    # constant scorers make every grid point equally (un)informative;
    # positions vary but scores do not, so every r is undefined
    chains, _ = _planted_chains(n_chains=2)
    registry = ScorerRegistry(
        fluency=FixedScorer(0.5), meaning=FixedScorer(0.5), argument=FixedScorer(0.5)
    )
    calibration_grid(0.1, 0.0, 1.0)
    with pytest.raises(CalibrationError):
        calibrate_weights(chains, registry)


@pytest.mark.parametrize(
    "n_chains, reason",
    [(1, "only 1 scored points; need at least 2"), (2, "revision positions have zero variance")],
    ids=["one-chain", "two-chains"],
)
def test_calibration_needs_two_distinct_positions(calibration_grid, n_chains, reason):
    # one step per chain: every step sits at position 1
    chains, registry = _planted_chains(n_chains=n_chains, steps=1)
    calibration_grid(0.1, 0.0, 1.0)
    with pytest.raises(CalibrationError, match=f"^{reason}$"):
        calibrate_weights(chains, registry)


def test_calibration_rejects_constant_scores_whose_mean_rounds(calibration_grid):
    # 12 equal combined scores whose rounded mean differs from them used to
    # center to a constant nonzero residue and correlate at exactly 0.0
    chains, _ = _planted_chains(n_chains=3)
    registry = ScorerRegistry(
        fluency=FixedScorer(0.1), meaning=FixedScorer(0.1), argument=FixedScorer(0.1)
    )
    calibration_grid(0.1, 0.0, 1.0)
    with pytest.raises(CalibrationError):
        calibrate_weights(chains, registry)


def test_calibration_ties_within_1e_12_go_to_the_first_triple():
    # two scored steps: r is exactly 1 at 2089 grid points, and last-bit
    # rounding lifts a few others just above 1; that must not make them win
    texts = (
        "the tax helps small towns",
        "The tax helps small towns.",
        "The tax helps small towns. This matters for trust.",
    )
    chain = RevisionChain(
        "setup0",
        texts,
        (IntentLabel.TYPO_GRAMMAR, IntentLabel.CLARIFICATION),
        ContextBundle(topic="debate about the tax", previous_claim="someone said the tax hurts"),
    )
    result = calibrate_weights([chain], default_registry())
    assert result.weights == Weights(0.01, 0.01, 0.98)
    assert result.pearson_r == 1.0


def _oracle_pick(chains, registry, grid_step, range_lo, range_hi):
    """Pooled calibration as one G x N matrix and an argmax: the best
    triple, its r from pearson(), and the gap to the second-best r.
    None when no grid point has a defined r."""
    vectors, positions = [], []
    for chain in chains:
        m = len(chain.claims)
        for i in range(1, m):
            before, after = chain.claims[i - 1], chain.claims[i]
            v = score_candidate(registry, before, after, chain.context)
            vectors.append((v.fluency, v.meaning, v.argument))
            positions.append(i / (m - 1))
    values, target = np.asarray(vectors).T, np.asarray(positions)
    triples = simplex_grid(grid_step, range_lo, range_hi)
    combined = np.asarray(triples) @ values
    centered = combined - combined.mean(axis=1, keepdims=True)
    tc = target - target.mean()
    var = np.einsum("ij,ij->i", centered, centered)
    with np.errstate(invalid="ignore", divide="ignore"):
        rs = (centered @ tc) / np.sqrt(var * (tc @ tc))
    rs[var == 0.0] = -np.inf
    if not np.isfinite(rs).any():
        return None
    best = int(np.argmax(rs))
    top_two = np.sort(rs)[-2:]
    weights = Weights(*triples[best])
    best_r = pearson([autoscore(ScoreVector(*v), weights) for v in vectors], positions)
    return triples[best], best_r, top_two[1] - top_two[0], rs


def _table_chains(rng, lengths, prefix):
    """One chain per entry of ``lengths``, its claim count; three random
    lookup tables score every step."""
    tables = ({}, {}, {})
    chains = []
    for c, m in enumerate(lengths):
        texts = [f"{prefix} c{c} v{i}" for i in range(m)]
        for text in texts[1:]:
            for table in tables:
                table[text] = rng.random()
        intents = (IntentLabel.CLARIFICATION,) * (m - 1)
        chains.append(RevisionChain(f"{prefix}c{c}", tuple(texts), intents, ContextBundle()))
    return chains, tables


def _oracle_case(kind, seed):
    """Random table-scored chains of 2-8 claims, bent into ``kind``."""
    rng = random.Random(seed)
    if kind == "one_chain":
        lengths = [3]
    else:
        lengths = [rng.randint(2, 8) for _ in range(rng.randint(3, 25))]
    chains, tables = _table_chains(rng, lengths, f"s{seed}")
    fluency, meaning, argument = (TableScorer(t) for t in tables)
    if kind == "constant_axis":
        fluency = FixedScorer(0.5)
    elif kind == "identical_axes":
        argument = meaning
    elif kind == "complementary_axes":  # every (a, a, 0) gives a constant score
        meaning = TableScorer({text: 1.0 - value for text, value in tables[0].items()})
    registry = ScorerRegistry(fluency=fluency, meaning=meaning, argument=argument)
    grid_step = (0.05, 0.1)[seed % 2]
    range_lo = (0.0, 0.05)[seed // 2 % 2]
    return chains, registry, grid_step, range_lo, 1.0 - 2 * range_lo


@pytest.mark.parametrize(
    "kind, n_cases",
    [
        ("random", 36), ("constant_axis", 6), ("identical_axes", 6), ("one_chain", 6),
        ("complementary_axes", 6),
    ],
)
def test_pooled_calibration_matches_grid_matrix_oracle(calibration_grid, kind, n_cases):
    strict = 0
    for seed in range(n_cases):
        chains, registry, step, lo, hi = _oracle_case(kind, seed)
        oracle = _oracle_pick(chains, registry, step, lo, hi)
        calibration_grid(step, lo, hi)
        if oracle is None:
            with pytest.raises(CalibrationError):
                calibrate_weights(chains, registry)
            continue
        triple, oracle_r, gap, rs = oracle
        result = calibrate_weights(chains, registry)
        weights = result.weights
        picked = simplex_grid(step, lo, hi).index((weights.alpha, weights.beta, weights.gamma))
        assert rs[picked] >= rs.max() - 1e-9, (kind, seed)
        if gap > 1e-9:
            strict += 1
            assert (weights.alpha, weights.beta, weights.gamma) == triple, (kind, seed)
            assert result.pearson_r == oracle_r, (kind, seed)
    if kind == "random":  # the other kinds tie by construction
        assert strict == n_cases


def test_pooled_calibration_memory_stays_small():
    """2000 chains on the default 4851-point grid: no G x N matrix (150 MiB)."""
    chains, tables = _table_chains(random.Random(4), [3] * 2000, "m")
    registry = ScorerRegistry(*(TableScorer(t) for t in tables))
    tracemalloc.start()
    try:
        calibrate_weights(chains, registry)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_calibration_rejects_short_chain():
    chain = RevisionChain(
        "solo",
        ("only one",),
        (),
        ContextBundle(),
    )
    with pytest.raises(CalibrationError):
        calibrate_weights([chain], default_registry())


def test_calibration_rejects_empty_chains():
    _, registry = _planted_chains(n_chains=2)
    with pytest.raises(CalibrationError):
        calibrate_weights([], registry)


# ---------------------------------------------------------------------------
# persistence


def test_weights_roundtrip(tmp_path):
    save_calibration(tmp_path, CalibrationResult(DEFAULT_WEIGHTS, 0.35, evaluated_points=1))
    assert load_weights(tmp_path / "weights.json") == DEFAULT_WEIGHTS


def test_save_calibration_writes_spec_keys(tmp_path, calibration_grid):
    import json

    chains, registry = _planted_chains(n_chains=5)
    calibration_grid(0.1, 0.0, 1.0)
    result = calibrate_weights(chains, registry)
    paths = save_calibration(tmp_path, result)
    assert paths == [tmp_path / "weights.json", tmp_path / "calibration.json"]
    weights, detail = (json.loads(path.read_text()) for path in paths)
    assert weights == {
        "alpha": result.weights.alpha, "beta": result.weights.beta,
        "gamma": result.weights.gamma, "pearson_r": result.pearson_r, "grid_step": 0.1,
    }
    assert detail == dict(weights, evaluated_points=66, range_lo=0.0, range_hi=1.0)
    assert load_weights(paths[0]) == result.weights


def test_load_weights_rejects_incomplete(tmp_path):
    path = tmp_path / "weights.json"
    path.write_text('{"alpha": 0.5, "beta": 0.5}')
    with pytest.raises(ValueError):
        load_weights(path)
