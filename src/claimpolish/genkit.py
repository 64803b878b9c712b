"""Candidate generation: sampling schedules, backends, deduplication.

The pipeline overgenerates: for each input it requests one candidate
per schedule step (a greedy decode followed by top-k samples with
growing k), then deduplicates. Real decoder backends plug in through
the generator contract; a deterministic rule-based mock ships for
tests and offline runs, plus a line-protocol adapter that talks to an
external generator process over stdin/stdout.
"""

from __future__ import annotations

import logging
from collections.abc import Sequence
from dataclasses import asdict, dataclass
from typing import Protocol

from .ndjson import NdjsonChild

log = logging.getLogger(__name__)


class GenerationError(RuntimeError):
    pass


@dataclass(frozen=True)
class GenerationConfig:
    length_penalty: float = 1.0
    temperature: float = 0.7
    no_repeat_ngram: int = 3
    min_length: int = 7
    max_length: int = 256
    n_candidates: int = 10

    def __post_init__(self):
        if self.n_candidates < 1:
            raise ValueError("n_candidates must be >= 1")
        if not 0 < self.min_length <= self.max_length:
            raise ValueError("need 0 < min_length <= max_length")


@dataclass(frozen=True)
class Directive:
    """One decoding instruction: greedy, or top-k sampling with a given k."""

    kind: str  # "greedy" | "topk"
    k: int | None = None

    def __post_init__(self):
        if self.kind not in ("greedy", "topk"):
            raise ValueError(f"unknown directive kind {self.kind!r}")
        if self.kind == "topk" and (self.k is None or self.k < 1):
            raise ValueError("topk directive needs k >= 1")
        if self.kind == "greedy" and self.k is not None:
            raise ValueError("greedy directive takes no k")

    def __str__(self) -> str:
        return "greedy" if self.kind == "greedy" else f"topk:{self.k}"

    @classmethod
    def parse(cls, text: str) -> "Directive":
        if text == "greedy":
            return GREEDY
        if text.startswith("topk:"):
            return cls("topk", int(text.split(":", 1)[1]))
        raise ValueError(f"cannot parse directive {text!r}")


GREEDY = Directive("greedy")


def TOPK(k: int) -> Directive:
    return Directive("topk", k)


def make_schedule(n: int) -> list[Directive]:
    """The length-n sampling schedule: greedy, then top-k with k = 5, 10, ...

    >>> [str(d) for d in make_schedule(3)]
    ['greedy', 'topk:5', 'topk:10']
    """
    if n < 1:
        raise ValueError(f"schedule length must be >= 1, got {n}")
    return [GREEDY] + [TOPK(5 * i) for i in range(1, n)]


@dataclass(frozen=True)
class Candidate:
    text: str
    origin: Directive | None  # None only for the synthetic unedited candidate
    index: int


@dataclass(frozen=True)
class CandidateSet:
    source: str  # the serialized input the generator saw
    candidates: tuple[Candidate, ...]


class Generator(Protocol):
    def generate(
        self, input_text: str, directive: Directive, config: GenerationConfig, seed: int
    ) -> str: ...


def generate_candidates(
    generator: Generator,
    input_text: str,
    config: GenerationConfig,
    schedule: Sequence[Directive] | None = None,
    seed: int = 0,
) -> CandidateSet:
    """Run every schedule step through the generator.

    A failing step (it raises or returns a blank text) is skipped and
    logged rather than aborting the set; only an empty result is an
    error. Candidate indices follow schedule order, counting skipped
    steps, so index i always means schedule step i.
    """
    if schedule is None:
        schedule = make_schedule(config.n_candidates)
    if not schedule:
        raise GenerationError("empty schedule")
    candidates = []
    for i, directive in enumerate(schedule):
        try:
            text = generator.generate(input_text, directive, config, seed)
            if not isinstance(text, str) or not text.strip():
                raise GenerationError(f"blank text {text!r}")
        except Exception as exc:
            log.warning("generation step %d (%s) failed: %s", i, directive, exc)
            continue
        candidates.append(Candidate(text=text, origin=directive, index=i))
    if not candidates:
        raise GenerationError(f"all {len(schedule)} generation steps failed")
    return CandidateSet(source=input_text, candidates=tuple(candidates))


def dedup(candidate_set: CandidateSet) -> CandidateSet:
    """Drop byte-identical duplicate texts, keeping each first occurrence."""
    seen: set[str] = set()
    kept = []
    for cand in candidate_set.candidates:
        if cand.text in seen:
            continue
        seen.add(cand.text)
        kept.append(cand)
    return CandidateSet(source=candidate_set.source, candidates=tuple(kept))


# ---------------------------------------------------------------------------
# mock generator

# Apostrophe-dropped forms the greedy cleanup restores.
_CONTRACTION_FIXES = {
    "its": "it's",
    "dont": "don't",
    "cant": "can't",
    "wont": "won't",
    "isnt": "isn't",
    "doesnt": "doesn't",
    "im": "i'm",
    "ive": "i've",
    "thats": "that's",
    "theyre": "they're",
}

_SYNONYMS = {
    "good": "beneficial",
    "bad": "harmful",
    "big": "large",
    "small": "minor",
    "many": "numerous",
    "people": "individuals",
    "important": "crucial",
    "wrong": "mistaken",
    "shows": "demonstrates",
    "helps": "supports",
}

_HEDGES = ("maybe", "perhaps", "possibly", "probably", "somewhat", "arguably", "likely")

_ELABORATIONS = (
    "This point is central to the wider debate.",
    "Evidence from the discussion supports this view.",
    "The consequences of this are hard to dismiss.",
    "Opposing positions have not refuted this.",
    "This holds in the present context as well.",
    "The underlying trend makes this more pressing.",
    "Recent discussion has only strengthened the case.",
    "Few participants dispute the premise behind this.",
)


def _greedy_cleanup(text: str) -> str:
    # Cascade of copy-editing rules, highest priority first; every
    # applicable rule fires: capitalization, apostrophe restoration,
    # terminal punctuation.
    tokens = text.split()
    if not tokens:
        return text
    fixed = []
    for tok in tokens:
        repl = _CONTRACTION_FIXES.get(tok.lower())
        if repl is not None:
            repl = repl.capitalize() if tok[0].isupper() else repl
            fixed.append(repl)
        else:
            fixed.append(tok)
    tokens = fixed
    first = tokens[0]
    if first and first[0].isalpha() and first[0].islower():
        tokens[0] = first[0].upper() + first[1:]
    out = " ".join(tokens)
    if out and out[-1] not in ".!?":
        out += "."
    return out


class MockGenerator:
    """Deterministic rule-table generator for offline runs and tests.

    GREEDY applies the copy-editing cascade above; the same rules run
    under ``_greedy_cleanup``, so an already-clean input comes back
    unchanged. TOPK(k) picks a rewrite rule from a fixed table indexed
    by ``(seed + k // 5)``: append a templated elaboration, substitute
    a synonym, or drop a hedge word, falling forward through the table
    when a rule does not apply. Output is truncated to
    ``config.max_length`` whitespace tokens. Pure function of
    (input, directive, config, seed).
    """

    def __init__(self, delimiters: tuple[str, str] = ("<PREV>", "<TOPIC>")):
        self._delimiters = delimiters

    def _strip_context(self, input_text: str) -> str:
        text = input_text
        for delim in self._delimiters:
            pos = text.find(delim)
            if pos != -1:
                text = text[:pos]
        return text.strip()

    def _substitute_synonym(self, text: str) -> str | None:
        tokens = text.split()
        for i, tok in enumerate(tokens):
            stripped = tok.strip(".,!?;:")
            repl = _SYNONYMS.get(stripped.lower()) if stripped else None
            if repl is None:
                continue
            if stripped[0].isupper():
                repl = repl.capitalize()
            start = tok.find(stripped)
            tokens[i] = tok[:start] + repl + tok[start + len(stripped) :]
            return " ".join(tokens)
        return None

    def _drop_hedge(self, text: str) -> str | None:
        tokens = text.split()
        for i, tok in enumerate(tokens):
            if tok.strip(".,!?;:").lower() in _HEDGES:
                rest = tokens[:i] + tokens[i + 1 :]
                if not rest:
                    return None
                if i == 0 and rest[0][0].isalpha():
                    rest[0] = rest[0][0].upper() + rest[0][1:]
                return " ".join(rest)
        return None

    def _elaborate(self, text: str, slot: int) -> str:
        sentence = _ELABORATIONS[slot % len(_ELABORATIONS)]
        base = text if text and text[-1] in ".!?" else text + "."
        return f"{base} {sentence}"

    def generate(
        self,
        input_text: str,
        directive: Directive,
        config: GenerationConfig = GenerationConfig(),
        seed: int = 0,
    ) -> str:
        source = self._strip_context(input_text)
        if not source:
            raise GenerationError("empty input after context stripping")
        if directive.kind == "greedy":
            out = _greedy_cleanup(source)
        else:
            slot = seed + directive.k // 5
            # the three attempts try every rule; rule 0 always succeeds
            for attempt in range(3):
                rule = (slot + attempt) % 3
                if rule == 0:
                    out = self._elaborate(source, slot)
                    break
                if rule == 1:
                    maybe = self._substitute_synonym(source)
                    if maybe is not None:
                        out = maybe
                        break
                else:
                    maybe = self._drop_hedge(source)
                    if maybe is not None:
                        out = maybe
                        break
        tokens = out.split()
        if len(tokens) > config.max_length:
            out = " ".join(tokens[: config.max_length])
        return out


# ---------------------------------------------------------------------------
# external generator adapter

class StdioGenerator(NdjsonChild):
    """Drive an external generator process over the NDJSON protocol.

    One request per line on stdin:
    ``{"input": str, "directive": "greedy"|"topk:K", "config": {...},
    "seed": int}``; one response per line on stdout, either
    ``{"text": str}`` or ``{"error": str}``. Protocol violations and
    reported errors surface as GenerationError.
    """

    error = GenerationError
    role = "generator"

    def generate(
        self,
        input_text: str,
        directive: Directive,
        config: GenerationConfig = GenerationConfig(),
        seed: int = 0,
    ) -> str:
        request = {
            "input": input_text,
            "directive": str(directive),
            "config": asdict(config),
            "seed": seed,
        }
        response = self.request(request)
        if not isinstance(response.get("text"), str):
            raise GenerationError(f"generator response missing 'text': {response!r}")
        return response["text"]
