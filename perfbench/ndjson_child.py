"""NDJSON stdio children for the benchmark's adapter workload.

``python3 ndjson_child.py generator`` answers claimpolish's stdio
generator protocol with ``MockGenerator``; ``python3 ndjson_child.py
fluency`` answers the stdio scorer protocol with
``HeuristicFluencyScorer``. Both exit when stdin closes.

While running, a child keeps a ``<pid>.alive`` file in the directory
named by ``PERFBENCH_CHILD_DIR`` (when set) and removes it on a clean
exit, so the benchmark can tell a child that outlived its parent.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

from claimpolish.corpus import ContextBundle
from claimpolish.genkit import Directive, GenerationConfig, MockGenerator
from claimpolish.scoring import HeuristicFluencyScorer


def _generator_answer(generator: MockGenerator, request: dict) -> dict:
    config = GenerationConfig(**request["config"])
    directive = Directive.parse(request["directive"])
    return {"text": generator.generate(request["input"], directive, config, request["seed"])}


def _fluency_answer(scorer: HeuristicFluencyScorer, request: dict) -> dict:
    context = ContextBundle(**request["context"])
    return {"score": scorer.score(request["source"], request["candidate"], context)}


def serve(kind: str) -> None:
    if kind == "generator":
        backend, answer = MockGenerator(), _generator_answer
    elif kind == "fluency":
        backend, answer = HeuristicFluencyScorer(), _fluency_answer
    else:
        raise SystemExit(f"unknown child kind {kind!r}")
    for line in sys.stdin:
        try:
            response = answer(backend, json.loads(line))
        except Exception as exc:  # report to the parent, keep serving
            response = {"error": f"{type(exc).__name__}: {exc}"}
        sys.stdout.write(json.dumps(response, ensure_ascii=False) + "\n")
        sys.stdout.flush()


def main() -> None:
    marker_dir = os.environ.get("PERFBENCH_CHILD_DIR")
    marker = Path(marker_dir) / f"{os.getpid()}.alive" if marker_dir else None
    if marker is not None:
        marker.write_text(sys.argv[1] + "\n")
    serve(sys.argv[1])
    if marker is not None:
        marker.unlink()


if __name__ == "__main__":
    main()
