"""Runs ``claimpolish.cli.main`` in process, optionally with layer spans.

``claimpolish/cli.py`` imports every layer function it calls by name
(``from .metrics import evaluate_run`` and so on). Given a
``spans.Recorder``, ``call_cli`` replaces those names in
``claimpolish.cli`` with wrappers that record a ``<layer>.<function>``
span per call. It does the same for the evaluation primitives that
``evaluate_run`` calls through ``claimpolish.metrics``, for
``claimpolish.scoring.score_candidate`` (which calibration calls), and
for ``tokenize`` in every module that imports it. It also swaps
``HashingEmbedder``, ``MockGenerator``, ``StdioGenerator`` and
``StdioScorer`` for subclasses that count calls and time adapter round
trips. The CLI code itself runs unchanged, so every figure is taken on
the program's own path, and the names are restored when it returns.

Without a recorder only the two stdio adapter classes are swapped, for
subclasses that remember each adapter so it can be closed afterwards.
That call is the untraced baseline for the tracing overhead.

A ``run`` instance has no call of its own. Each ``serialize_input`` call
ends the previous instance's ``cli.run.instance`` span and opens the
next one, whose trace id is the pair id; ``evaluate_run`` ends the last.
"""

from __future__ import annotations

import contextlib
import inspect
import io
import os
import time
from pathlib import Path

import claimpolish.cli as cli
import claimpolish.embedding
import claimpolish.metrics
import claimpolish.scoring
from claimpolish.embedding import HashingEmbedder
from claimpolish.genkit import MockGenerator, StdioGenerator
from claimpolish.scoring import StdioScorer

# called by evaluate_run through claimpolish.metrics' module globals
METRIC_PRIMITIVES = ("sentence_bleu", "rouge_l", "sari", "context_similarity")
TOKENIZING_MODULES = (claimpolish.embedding, claimpolish.metrics, claimpolish.scoring)


def _spanned(rec, name, fn, before=None, after=None):
    """``fn`` inside a span; ``before(*args)`` runs first, ``after(result, *args)`` last."""

    def wrapper(*args, **kwargs):
        if before is not None:
            before(*args, **kwargs)
        index = rec.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.end(index)
        if after is not None:
            after(result, *args, **kwargs)
        return result

    return wrapper


def _select_spans(rec, fn):
    """``selection.select`` with one span name per strategy."""

    def select(strategy, *args, **kwargs):
        index = rec.begin(f"selection.select.{strategy.value}")
        try:
            return fn(strategy, *args, **kwargs)
        finally:
            rec.end(index)

    return select


class _Instances:
    """``cli.run.instance`` spans, delimited by successive ``serialize_input`` calls."""

    def __init__(self, rec):
        self.rec = rec
        self.open: int | None = None

    def next(self, pair, *args, **kwargs) -> None:
        self.finish()
        self.open = self.rec.begin("cli.run.instance", trace_id=pair.pair_id)

    def finish(self, *args, **kwargs) -> None:
        if self.open is not None:
            self.rec.end(self.open)
            self.open = None


def _distinct_counter(rec, name):
    """A ``before`` hook counting calls and distinct first arguments as ``name.*``."""
    seen: set[str] = set()

    def count(text, *args, **kwargs):
        rec.count(f"{name}.calls")
        if text not in seen:
            seen.add(text)
            rec.count(f"{name}.distinct")

    return count


def _generator_request(rec, call, args, kwargs, sample: str | None):
    start = time.perf_counter()
    try:
        return call(*args, **kwargs)
    except Exception:
        rec.count("genkit.step_failures")
        raise
    finally:
        rec.count("genkit.requests")
        if sample is not None:
            rec.sample(sample, time.perf_counter() - start)


def _adapter_classes(opened: list, rec) -> dict[str, type]:
    """Stdio adapters that join ``opened``; with a recorder, timed per request."""

    class ClosingGenerator(StdioGenerator):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            opened.append(self)

    class ClosingScorer(StdioScorer):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            opened.append(self)

    if rec is None:
        return {"StdioGenerator": ClosingGenerator, "StdioScorer": ClosingScorer}

    class TimedGenerator(ClosingGenerator):
        def generate(self, *args, **kwargs):
            return _generator_request(
                rec, super().generate, args, kwargs, "genkit.stdio.request_s"
            )

    class TimedScorer(ClosingScorer):
        def score(self, *args, **kwargs):
            start = time.perf_counter()
            try:
                return super().score(*args, **kwargs)
            finally:
                rec.sample("scoring.stdio.request_s", time.perf_counter() - start)

    class CountingMock(MockGenerator):
        def generate(self, *args, **kwargs):
            return _generator_request(rec, super().generate, args, kwargs, None)

    embed_count = _distinct_counter(rec, "embedding.embed")

    class CountingEmbedder(HashingEmbedder):
        # still a HashingEmbedder, so save_ranker persists it as one
        def embed(self, text):
            embed_count(text)
            index = rec.begin("embedding.embed")
            try:
                return super().embed(text)
            finally:
                rec.end(index)

    return {
        "StdioGenerator": TimedGenerator,
        "StdioScorer": TimedScorer,
        "MockGenerator": CountingMock,
        "HashingEmbedder": CountingEmbedder,
    }


def _span_patches(rec, instances: _Instances) -> list[tuple[object, str, object]]:
    """(module, name, wrapper) for every layer function the CLI reaches."""

    def count_dedup(result, candidate_set):
        rec.count("genkit.dedup.returned", len(candidate_set.candidates))
        rec.count("genkit.dedup.kept", len(result.candidates))

    def count_evaluation(result, instances_, outputs, *args, **kwargs):
        rec.count("metrics.rows", len(instances_) * len(outputs))
        chosen = {(i, text) for texts in outputs.values() for i, text in enumerate(texts)}
        rec.count("selection.distinct_chosen", len(chosen))

    def count_calibration(result, chains, *args, **kwargs):
        rec.count("scoring.calibrate_weights.grid_points", result.evaluated_points)
        rec.count("scoring.calibrate_weights.scored_steps", sum(len(c.claims) - 1 for c in chains))

    hooks = {
        "serialize_input": {"before": instances.next},
        "dedup": {"after": count_dedup},
        "evaluate_run": {"before": instances.finish, "after": count_evaluation},
        "calibrate_weights": {"after": count_calibration},
        "score_candidate": {"before": lambda *a, **k: rec.count("scoring.score_candidate.calls")},
    }
    patches = []
    for name, fn in vars(cli).items():
        module = getattr(fn, "__module__", "")
        if not inspect.isfunction(fn) or not module.startswith("claimpolish.") or module == cli.__name__:
            continue
        if name == "select":
            wrapper = _select_spans(rec, fn)
        else:
            layer = module.rsplit(".", 1)[1]
            wrapper = _spanned(rec, f"{layer}.{name}", fn, **hooks.get(name, {}))
        patches.append((cli, name, wrapper))
        if name == "score_candidate":
            patches.append((claimpolish.scoring, name, wrapper))

    metrics = claimpolish.metrics
    for name in METRIC_PRIMITIVES:
        patches.append((metrics, name, _spanned(rec, f"metrics.{name}", getattr(metrics, name))))
    tokenize = _spanned(
        rec, "text.tokenize", metrics.tokenize, before=_distinct_counter(rec, "text.tokenize")
    )
    patches += [(module, "tokenize", tokenize) for module in TOKENIZING_MODULES]
    return patches


def call_cli(argv: list[str], cwd: Path, rec=None) -> int:
    """``claimpolish.cli.main(argv)`` run in ``cwd``; returns its exit code.

    The CLI's stdout is discarded. Stdio adapters it opened are closed
    afterwards, outside any span.
    """
    opened: list = []
    patches = [(cli, name, cls) for name, cls in _adapter_classes(opened, rec).items()]
    instances = None
    if rec is not None:
        instances = _Instances(rec)
        patches += _span_patches(rec, instances)
    saved = [(module, name, getattr(module, name)) for module, name, _ in patches]
    old_cwd = os.getcwd()
    try:
        for module, name, value in patches:
            setattr(module, name, value)
        os.chdir(cwd)
        with contextlib.redirect_stdout(io.StringIO()):
            if rec is None:
                return cli.main(argv)
            root = rec.begin(f"cli.{argv[0]}", trace_id=argv[0])
            try:
                return cli.main(argv)
            finally:
                instances.finish()
                rec.end(root)
    finally:
        os.chdir(old_cwd)
        for module, name, value in reversed(saved):
            setattr(module, name, value)
        for adapter in opened:
            adapter.close()
