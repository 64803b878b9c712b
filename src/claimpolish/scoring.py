"""Candidate quality scoring and combination-weight calibration.

Each candidate rewrite gets a three-component score vector (fluency,
meaning preservation, argument quality), every component normalized to
[0, 1]. A single combined score is the weighted sum under a Weights
triple on the probability simplex. The weights themselves are fit by
grid search: pick the triple whose combined score correlates best
(Pearson) with where a revision sits inside its chain, on the theory
that later revisions of a claim tend to be better ones. Every sum in
that search is exactly rounded (``math.fsum``) and runs on plain
floats, so the chosen weights and their r have the same bits on every
CPython 3.10 or later. A closed form over the score axes' moments
screens the grid; only the points that could win are scored exactly.

Scorers are pluggable: anything with a ``score(source, candidate,
context)`` method that answers in [0, 1], stdio scorers included. An
answer outside [0, 1] fails loudly rather than being rescaled; cosine
similarity is mapped onto [0, 1] by ``embedding.unit_cosine``.
"""

from __future__ import annotations

import logging
import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Protocol

from .corpus import ContextBundle, RevisionChain
from .embedding import HashingEmbedder, unit_cosine
from .ndjson import NdjsonChild, read_json, write_json
from .text import normalize_whitespace, tokenize

log = logging.getLogger(__name__)


class ScorerError(RuntimeError):
    pass


class CalibrationError(ValueError):
    pass


@dataclass(frozen=True)
class ScoreVector:
    fluency: float
    meaning: float
    argument: float

    def __post_init__(self):
        for name, value in (
            ("fluency", self.fluency),
            ("meaning", self.meaning),
            ("argument", self.argument),
        ):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} score {value} outside [0, 1]")


@dataclass(frozen=True)
class Weights:
    alpha: float  # fluency
    beta: float  # meaning
    gamma: float  # argument

    def __post_init__(self):
        if min(self.alpha, self.beta, self.gamma) < 0.0:
            raise ValueError("weights must be non-negative")
        total = self.alpha + self.beta + self.gamma
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"weights must sum to 1, got {total!r}")


# Default combination used when no calibration result is supplied.
DEFAULT_WEIGHTS = Weights(alpha=0.43, beta=0.01, gamma=0.56)


class Scorer(Protocol):
    def score(self, source: str, candidate: str, context: ContextBundle) -> float: ...


@dataclass(frozen=True)
class ScorerRegistry:
    fluency: Scorer
    meaning: Scorer
    argument: Scorer

    def items(self):
        return (("fluency", self.fluency), ("meaning", self.meaning), ("argument", self.argument))


def score_candidate(
    registry: ScorerRegistry, source: str, candidate: str, context: ContextBundle
) -> ScoreVector:
    """Run all three scorers; an answer within 1e-6 of [0, 1] is clipped
    onto it, one further out raises ScorerError."""
    values = {}
    for name, scorer in registry.items():
        try:
            raw = scorer.score(source, candidate, context)
        except ScorerError:
            raise
        except Exception as exc:
            raise ScorerError(f"{name} scorer failed: {exc}") from exc
        if not -1e-6 <= raw <= 1.0 + 1e-6:
            raise ScorerError(f"{name} scorer returned {raw}, outside [0, 1]")
        values[name] = min(max(float(raw), 0.0), 1.0)
    return ScoreVector(**values)


def autoscore(vector: ScoreVector, weights: Weights) -> float:
    """Weighted sum of the three components."""
    return (
        weights.alpha * vector.fluency
        + weights.beta * vector.meaning
        + weights.gamma * vector.argument
    )


# ---------------------------------------------------------------------------
# reference heuristic scorers

# Apostrophe-dropped forms that count against well-formedness.
_DROPPED_FORMS = frozenset(
    {"dont", "cant", "wont", "isnt", "doesnt", "im", "ive", "thats", "theyre", "didnt"}
)


# Texts whose analysis ``_tokens`` keeps: a pair's source and all its
# candidates in ``run``, a chain's claims in ``calibrate``.
_TOKENS_CACHE_SIZE = 64


@lru_cache(maxsize=_TOKENS_CACHE_SIZE)
def _tokens(text: str) -> tuple[tuple[str, ...], frozenset[str], str]:
    """Tokens of ``text``, their set and the text with whitespace
    normalized. Whitespace is never a token, so ``text.strip()`` has the
    same tokens. Every caller gets the same objects."""
    tokens = tuple(tokenize(text))
    return tokens, frozenset(tokens), normalize_whitespace(text)


class HeuristicFluencyScorer:
    """Rule-based well-formedness: start at 1.0 and deduct per defect.

    Deductions: lowercase sentence start (0.3), missing terminal
    punctuation (0.3), immediately repeated word (0.2), an
    apostrophe-dropped contraction (0.2). Floor at 0.
    """

    def score(self, source: str, candidate: str, context: ContextBundle) -> float:
        text = candidate.strip()
        if not text:
            return 0.0
        penalty = 0.0
        first_alpha = next((ch for ch in text if ch.isalpha()), None)
        if first_alpha is not None and first_alpha.islower():
            penalty += 0.3
        if text[-1] not in ".!?":
            penalty += 0.3
        words = [t for t in _tokens(candidate)[0] if t.isalnum()]
        if any(a == b for a, b in zip(words, words[1:])):
            penalty += 0.2
        if any(w in _DROPPED_FORMS for w in words):
            penalty += 0.2
        return max(0.0, 1.0 - penalty)


class JaccardMeaningScorer:
    """Token-set Jaccard overlap between source and candidate."""

    def score(self, source: str, candidate: str, context: ContextBundle) -> float:
        a, b = _tokens(source)[1], _tokens(candidate)[1]
        if not a and not b:
            return 1.0
        return len(a & b) / len(a | b)


class CosineMeaningScorer:
    """Embedding cosine between source and candidate, mapped onto [0, 1]."""

    def __init__(self, embedder: HashingEmbedder):
        self._embedder = embedder

    def score(self, source: str, candidate: str, context: ContextBundle) -> float:
        return unit_cosine(self._embedder.embed(source), self._embedder.embed(candidate))


class HeuristicArgumentScorer:
    """Bounded specificity heuristic that penalizes leaving the claim alone.

    An output identical to the source (modulo whitespace) scores a flat
    0.2. Otherwise: 0.5 base, up to 0.3 for introducing new tokens
    (saturating at five), 0.1 for ending in terminal punctuation and
    0.1 for a capitalized start.
    """

    def score(self, source: str, candidate: str, context: ContextBundle) -> float:
        _, candidate_set, candidate_text = _tokens(candidate)
        _, source_set, source_text = _tokens(source)
        if candidate_text == source_text:
            return 0.2
        new_tokens = candidate_set - source_set
        value = 0.5 + 0.3 * min(1.0, len(new_tokens) / 5.0)
        text = candidate.strip()
        if text and text[-1] in ".!?":
            value += 0.1
        first_alpha = next((ch for ch in text if ch.isalpha()), None)
        if first_alpha is not None and first_alpha.isupper():
            value += 0.1
        return min(value, 1.0)


def default_registry() -> ScorerRegistry:
    return ScorerRegistry(
        fluency=HeuristicFluencyScorer(),
        meaning=JaccardMeaningScorer(),
        argument=HeuristicArgumentScorer(),
    )


# ---------------------------------------------------------------------------
# external scorer adapter

class StdioScorer(NdjsonChild):
    """Drive an external scorer process over the NDJSON protocol.

    One request per line on stdin: ``{"source": str, "candidate": str,
    "context": {"topic": ..., "previous_claim": ...}}``; one response
    per line on stdout, ``{"score": float}`` with the float in [0, 1],
    or ``{"error": str}``. Protocol violations and reported errors
    surface as ScorerError.
    """

    error = ScorerError
    role = "scorer"

    def score(self, source: str, candidate: str, context: ContextBundle) -> float:
        request = {
            "source": source,
            "candidate": candidate,
            "context": {
                "topic": context.topic,
                "previous_claim": context.previous_claim,
            },
        }
        response = self.request(request)
        if type(response.get("score")) not in (int, float):  # a JSON bool is no score
            raise ScorerError(f"scorer response missing 'score': {response!r}")
        return float(response["score"])


# ---------------------------------------------------------------------------
# correlation and calibration

def _centered(values: Sequence[float]) -> list[float]:
    """``values`` minus their mean. The rounded mean is held within
    [min, max], so equal values center to exact zeros."""
    mean = min(max(math.fsum(values) / len(values), min(values)), max(values))
    return [v - mean for v in values]


def _dot(a: Sequence[float], b: Sequence[float]) -> float:
    """The exactly rounded sum of the rounded products ``a[i] * b[i]``."""
    return math.fsum(map(operator.mul, a, b))


def pearson(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Pearson correlation from exactly rounded sums; errors on length
    mismatch or zero variance."""
    if len(xs) != len(ys):
        raise ValueError(f"length mismatch: {len(xs)} vs {len(ys)}")
    if len(xs) < 2:
        raise ValueError("need at least 2 points")
    xc = _centered(xs)
    yc = _centered(ys)
    vx = _dot(xc, xc)
    vy = _dot(yc, yc)
    if vx == 0.0 or vy == 0.0:
        raise ValueError("zero variance")
    return _dot(xc, yc) / math.sqrt(vx * vy)


@dataclass(frozen=True)
class CalibrationResult:
    weights: Weights
    pearson_r: float
    evaluated_points: int


# The grid ``calibrate_weights`` searches: each weight a multiple of
# GRID_STEP in [RANGE_LO, RANGE_HI], 4851 triples.
GRID_STEP = 0.01
RANGE_LO = 0.01
RANGE_HI = 0.98


def simplex_grid(
    grid_step: float, range_lo: float, range_hi: float
) -> list[tuple[float, float, float]]:
    """All weight triples on the step grid within [lo, hi] summing to 1.

    Components are exact multiples of ``grid_step``, a positive step
    that divides 1, so every triple sums to 1. Triples come back in
    lexicographic order, which the calibration tie-break relies on.
    """
    lo_idx = math.ceil(range_lo / grid_step - 1e-9)
    hi_idx = math.floor(range_hi / grid_step + 1e-9)
    total = round(1.0 / grid_step)
    triples = []
    for i in range(max(lo_idx, 0), hi_idx + 1):
        for j in range(max(lo_idx, 0), hi_idx + 1):
            k = total - i - j
            if k < lo_idx or k > hi_idx:
                continue
            triples.append((i * grid_step, j * grid_step, k * grid_step))
    return triples


def _chain_points(
    chains: Sequence[RevisionChain], registry: ScorerRegistry
) -> tuple[list[ScoreVector], list[float]]:
    """Every revision step's score vector, chain by chain, and its
    normalized position."""
    vectors, positions = [], []
    for chain in chains:
        m = len(chain.claims)
        if m < 2:
            raise CalibrationError(f"chain {chain.chain_id!r} has fewer than 2 claims")
        for i in range(1, m):
            try:
                vector = score_candidate(
                    registry, chain.claims[i - 1], chain.claims[i], chain.context
                )
            except ScorerError as exc:
                raise ScorerError(f"chain {chain.chain_id!r}: {exc}") from exc
            vectors.append(vector)
            # min-max normalized position of claim i within its chain
            positions.append(i / (m - 1))
    return vectors, positions


def _screen(
    triples: Sequence[tuple[float, float, float]],
    vectors: Sequence[ScoreVector],
    target: Sequence[float],
    var_t: float,
) -> tuple[list[float], list[float]]:
    """Per grid point: a closed-form r of its combined scores with the
    centered ``target`` (``var_t`` its sum of squares), -inf where it is
    undefined, and the closed-form variance it divides by.

    The combined score is linear in the three score axes, so each
    point's r is (w . c) / sqrt(w'Sw * var_t), with S the axes' 3 x 3
    centered cross products and c their cross products with the target:
    exactly rounded sums over the steps, then plain float arithmetic per
    point, which only has to be close, since the exact re-score decides.
    """
    fl = _centered([v.fluency for v in vectors])
    me = _centered([v.meaning for v in vectors])
    ar = _centered([v.argument for v in vectors])
    s_ff, s_mm, s_aa = _dot(fl, fl), _dot(me, me), _dot(ar, ar)
    s_fm, s_fa, s_ma = _dot(fl, me), _dot(fl, ar), _dot(me, ar)
    c_f, c_m, c_a = _dot(fl, target), _dot(me, target), _dot(ar, target)
    screen, variances = [], []
    for a, b, g in triples:
        var = a * a * s_ff + b * b * s_mm + g * g * s_aa + 2.0 * (
            a * b * s_fm + a * g * s_fa + b * g * s_ma
        )
        variances.append(var)
        if var > 0.0:
            screen.append((a * c_f + b * c_m + g * c_a) / math.sqrt(var * var_t))
        else:
            screen.append(-math.inf)
    return screen, variances


def _exact_r(
    vectors: Sequence[ScoreVector], weights: Weights, positions: Sequence[float]
) -> float:
    """``pearson`` of the combined scores under ``weights`` with
    ``positions``; -inf when the combined scores are constant."""
    combined = [autoscore(v, weights) for v in vectors]
    try:
        return pearson(combined, positions)
    except ValueError:  # zero variance: ``positions`` is checked beforehand
        return -math.inf


# The closed form's r differs from the exact one by far less than this
# (under 1e-14 on the analysis benchmark), so every point within it of the
# best screened r is re-scored.
_SCREEN_TOL = 1e-9
# A closed-form variance at or below this share of the grid's largest
# is too close to cancellation to screen on; such points are re-scored too.
_SHAKY_VAR = 1e-9
# Correlations within this of the best count as tied: wider than the
# rounding of one r, far narrower than what one grid step moves it.
_TIE = 1e-12


def calibrate_weights(
    chains: Sequence[RevisionChain], registry: ScorerRegistry
) -> CalibrationResult:
    """Grid-search the weight simplex (``GRID_STEP``, ``RANGE_LO``,
    ``RANGE_HI``) for the best position correlation.

    Every revision step (c_{i-1} -> c_i) in every chain is scored; the
    target signal is the revision's min-max normalized position in its
    chain, and all steps are pooled into one correlation. Correlations
    within 1e-12 of the best are ties, and ties break toward the
    lexicographically smallest (alpha, beta, gamma), so last-bit
    rounding never picks the winner.
    """
    if not chains:
        raise CalibrationError("no chains to calibrate on")
    triples = simplex_grid(GRID_STEP, RANGE_LO, RANGE_HI)
    vectors, positions = _chain_points(chains, registry)
    if len(positions) < 2:
        raise CalibrationError(f"only {len(positions)} scored points; need at least 2")
    target = _centered(positions)
    var_t = _dot(target, target)
    if var_t == 0.0:
        raise CalibrationError("revision positions have zero variance")

    screen, variances = _screen(triples, vectors, target, var_t)
    if not any(variances):  # every axis, so every combined score, is constant
        raise CalibrationError("no grid point produced a defined correlation")
    shaky_below = _SHAKY_VAR * max(0.0, *variances)
    cutoff = max(
        (r for r, var in zip(screen, variances) if var > shaky_below), default=-math.inf
    ) - _SCREEN_TOL
    # only the points that could win are re-scored exactly
    rs = [
        _exact_r(vectors, Weights(*triple), positions)
        if var <= shaky_below or r >= cutoff
        else -math.inf
        for triple, r, var in zip(triples, screen, variances)
    ]
    best = max(rs)
    if best == -math.inf:
        raise CalibrationError("no grid point produced a defined correlation")
    # first tie wins: the lexicographically smallest triple
    winner = next(i for i, r in enumerate(rs) if r >= best - _TIE)
    return CalibrationResult(
        weights=Weights(*triples[winner]), pearson_r=rs[winner], evaluated_points=len(triples)
    )


# ---------------------------------------------------------------------------
# weight persistence

def load_weights(path: str | Path) -> Weights:
    def parse(payload: dict) -> Weights:
        for key in ("alpha", "beta", "gamma"):
            value = payload[key]
            if type(value) not in (int, float) or not math.isfinite(value):
                raise ValueError(f"{key!r} must be a number, got {value!r}")
        return Weights(alpha=payload["alpha"], beta=payload["beta"], gamma=payload["gamma"])

    return read_json(path, parse, required=("alpha", "beta", "gamma"))


def save_calibration(out: Path, result: CalibrationResult) -> list[Path]:
    """Write ``result`` into ``out``: weights.json, which :func:`load_weights`
    reads, and calibration.json, the same keys plus the grid's bounds and size.
    Returns both paths."""
    weights = result.weights
    payload = {
        "alpha": weights.alpha,
        "beta": weights.beta,
        "gamma": weights.gamma,
        "pearson_r": result.pearson_r,
        "grid_step": GRID_STEP,
    }
    paths = [out / "weights.json", out / "calibration.json"]
    write_json(paths[0], payload)
    write_json(
        paths[1],
        {
            **payload,
            "evaluated_points": result.evaluated_points,
            "range_lo": RANGE_LO,
            "range_hi": RANGE_HI,
        },
    )
    return paths
