"""Candidate quality scoring and combination-weight calibration.

Each candidate rewrite gets a three-component score vector (fluency,
meaning preservation, argument quality), every component normalized to
[0, 1]. A single combined score is the weighted sum under a Weights
triple on the probability simplex. The weights themselves are fit by
grid search: pick the triple whose combined score correlates best
(Pearson) with where a revision sits inside its chain, on the theory
that later revisions of a claim tend to be better ones.

Scorers are pluggable: anything with a ``score(source, candidate,
context)`` method that answers in [0, 1], stdio scorers included. An
answer outside [0, 1] fails loudly rather than being rescaled; cosine
similarity is mapped onto [0, 1] by ``embedding.unit_cosine``.
"""

from __future__ import annotations

import logging
import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Protocol

import numpy as np

from .corpus import ContextBundle, RevisionChain
from .embedding import Embedder, unit_cosine
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

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.fluency, self.meaning, self.argument)


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

    def as_array(self) -> np.ndarray:
        return np.array([self.alpha, self.beta, self.gamma], dtype=np.float64)


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

    def __init__(self, embedder: Embedder):
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
                "topic": context.topic if context else None,
                "previous_claim": context.previous_claim if context else None,
            },
        }
        response = self.request(request)
        if type(response.get("score")) not in (int, float):  # a JSON bool is no score
            raise ScorerError(f"scorer response missing 'score': {response!r}")
        return float(response["score"])


# ---------------------------------------------------------------------------
# correlation and calibration

def pearson(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Pearson correlation; errors on length mismatch or zero variance."""
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    if x.ndim != 1 or y.ndim != 1 or x.shape != y.shape:
        raise ValueError(f"length mismatch: {x.shape} vs {y.shape}")
    if x.size < 2:
        raise ValueError("need at least 2 points")
    xc = x - x.mean()
    yc = y - y.mean()
    vx = float(xc @ xc)
    vy = float(yc @ yc)
    if vx == 0.0 or vy == 0.0:
        raise ValueError("zero variance")
    return float((xc @ yc) / math.sqrt(vx * vy))


@dataclass(frozen=True)
class CalibrationResult:
    weights: Weights
    pearson_r: float
    grid_step: float
    evaluated_points: int


def simplex_grid(
    grid_step: float, range_lo: float, range_hi: float
) -> list[tuple[float, float, float]]:
    """All weight triples on the step grid within [lo, hi] summing to 1.

    Components are exact multiples of ``grid_step``; the sum must land
    within ``grid_step / 2`` of 1. Triples come back in lexicographic
    order, which the calibration tie-break relies on.
    """
    if not all(map(math.isfinite, (grid_step, range_lo, range_hi))):
        raise CalibrationError("grid_step, range_lo and range_hi must be finite")
    if grid_step <= 0:
        raise CalibrationError("grid_step must be positive")
    if not 0 <= range_lo <= range_hi:
        raise CalibrationError("need 0 <= range_lo <= range_hi")
    lo_idx = math.ceil(range_lo / grid_step - 1e-9)
    hi_idx = math.floor(range_hi / grid_step + 1e-9)
    total = round(1.0 / grid_step)
    if abs(total * grid_step - 1.0) > grid_step / 2 + 1e-12:
        return []
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
) -> tuple[np.ndarray, np.ndarray]:
    """A 3xN matrix of every revision step's score vector, chain by chain,
    and the N normalized positions."""
    vecs, pos = [], []
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
            vecs.append(vector.as_tuple())
            # min-max normalized position of claim i within its chain
            pos.append(i / (m - 1))
    # column-major, as a transposed view: the last bits of the grid arithmetic,
    # and so the pinned weights.json, depend on the memory layout
    return np.asarray(vecs, dtype=np.float64).T, np.asarray(pos, dtype=np.float64)


def _grid_correlations(
    weight_matrix: np.ndarray, values: np.ndarray, target: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per grid point: Pearson r of its combined scores with ``target``,
    and the scores' variance (r is undefined where it is 0). ``target``
    must not be constant."""
    tc = target - target.mean()
    vt = float(tc @ tc)
    centered = weight_matrix @ values  # G x N combined scores
    centered -= centered.mean(axis=1, keepdims=True)  # in place: one G x N matrix
    var = np.einsum("ij,ij->i", centered, centered)
    with np.errstate(invalid="ignore", divide="ignore"):
        rs = (centered @ tc) / np.sqrt(var * vt)
    return rs, var


# The closed form's r differs from the exact one by far less than this
# (2.5e-14 on the analysis benchmark), so every point within it of the
# best screened r is re-scored.
_SCREEN_TOL = 1e-9
# A closed-form variance at or below this share of the grid's largest
# is too close to cancellation to screen on; such points are re-scored too.
_SHAKY_VAR = 1e-9
# Re-scoring holds at most this many combined scores (8 MB) at a time.
_CHUNK_FLOATS = 1 << 20


def _pooled_correlations(
    weight_matrix: np.ndarray, values: np.ndarray, target: np.ndarray
) -> np.ndarray | None:
    """Per grid point: Pearson r of its combined scores with ``target``,
    -inf where it cannot win or its variance is 0. None when ``target``
    is constant.

    The combined score is linear in the three rows of ``values``, so
    each point's r is a 3 x 3 quadratic form: never a G x N matrix. That
    form only screens; the points that can win get the exact per-point
    arithmetic of ``_grid_correlations``, a chunk of rows at a time.
    """
    tc = target - target.mean()
    vt = float(tc @ tc)
    if vt == 0.0:
        return None
    xc = values - values.mean(axis=1, keepdims=True)
    var = np.einsum("gi,ij,gj->g", weight_matrix, xc @ xc.T, weight_matrix)
    with np.errstate(invalid="ignore", divide="ignore"):
        screen = (weight_matrix @ (xc @ tc)) / np.sqrt(var * vt)
    finite = np.isfinite(var)
    shaky = ~finite | (var <= _SHAKY_VAR * np.max(var, where=finite, initial=0.0))
    best = np.max(screen, where=~shaky, initial=-np.inf)
    rows = np.flatnonzero(shaky | (screen >= best - _SCREEN_TOL))
    rs = np.full(len(weight_matrix), -np.inf)
    step = max(1, _CHUNK_FLOATS // values.shape[1])
    for start in range(0, rows.size, step):
        chunk = rows[start:start + step]
        r, chunk_var = _grid_correlations(weight_matrix[chunk], values, target)
        rs[chunk] = np.where(chunk_var == 0.0, -np.inf, r)
    return rs


# Correlations within this of the best count as tied: wider than the
# rounding of one r, far narrower than what one grid step moves it.
_TIE = 1e-12


def calibrate_weights(
    chains: Sequence[RevisionChain],
    registry: ScorerRegistry,
    grid_step: float = 0.01,
    range_lo: float = 0.01,
    range_hi: float = 0.98,
) -> CalibrationResult:
    """Grid-search the weight simplex for the best position correlation.

    Every revision step (c_{i-1} -> c_i) in every chain is scored; the
    target signal is the revision's min-max normalized position in its
    chain, and all steps are pooled into one correlation. Correlations
    within 1e-12 of the best are ties, and ties break toward the
    lexicographically smallest (alpha, beta, gamma), so last-bit
    rounding never picks the winner.
    """
    if not chains:
        raise CalibrationError("no chains to calibrate on")
    triples = simplex_grid(grid_step, range_lo, range_hi)
    if not triples:
        raise CalibrationError(
            f"no valid grid point with step {grid_step} in [{range_lo}, {range_hi}]"
        )
    values, positions = _chain_points(chains, registry)
    if positions.size < 2:
        raise CalibrationError(f"only {positions.size} scored points; need at least 2")

    weight_matrix = np.asarray(triples, dtype=np.float64)  # G x 3
    rs = _pooled_correlations(weight_matrix, values, positions)
    if rs is None:
        raise CalibrationError("revision positions have zero variance")
    if not np.any(np.isfinite(rs)):
        raise CalibrationError("no grid point produced a defined correlation")
    # first tie wins: the lexicographically smallest triple
    best = int(np.argmax(rs >= rs.max() - _TIE))
    alpha, beta, gamma = triples[best]
    weights = Weights(alpha=alpha, beta=beta, gamma=gamma)
    # the scalar path, so the reported r is exactly what pearson() returns
    # for these weights
    best_r = pearson(list(weights.as_array() @ values), list(positions))
    return CalibrationResult(
        weights=weights,
        pearson_r=best_r,
        grid_step=grid_step,
        evaluated_points=len(triples),
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


def save_calibration(path: str | Path, result: CalibrationResult) -> None:
    """Write ``result`` as the weights.json that :func:`load_weights` reads."""
    weights = result.weights
    write_json(
        path,
        {
            "alpha": weights.alpha,
            "beta": weights.beta,
            "gamma": weights.gamma,
            "pearson_r": result.pearson_r,
            "grid_step": result.grid_step,
        },
    )
