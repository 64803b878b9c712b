"""The call sites that ``perfbench/traced.py`` wraps still exist.

``traced.call_cli`` replaces layer functions by name in ``claimpolish.cli``
and a few other modules, so a rename or an inlined call silently leaves a
per-layer benchmark figure at 0. This test runs every command the
benchmark runs, on tiny inputs and with a ``spans.Recorder``, and checks
that every ``<name>.busy_s`` figure in ``BENCHMARK.json`` recorded self
time and that the counters behind the count figures moved. It pins one
usable CPU: spans recorded in ``run``'s worker processes would be lost.
"""

import json
import os
from pathlib import Path

from conftest import make_chain_records, make_synthetic_pairs, write_chain_records

from claimpolish.corpus import write_pairs

ROOT = Path(__file__).resolve().parent.parent

COUNTERS = (
    "metrics.rows",
    "embedding.embed.calls",
    "genkit.requests",
    "scoring.score_candidate.calls",
    "scoring.calibrate_weights.grid_points",
    "scoring.calibrate_weights.scored_steps",
    "text.tokenize.calls",
)


def test_every_traced_layer_records_time(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import inputs
    import spans
    import traced

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    write_chain_records(tmp_path / "chains.jsonl", make_chain_records(30, seed=7))
    write_pairs(make_synthetic_pairs(6, seed=3), tmp_path / "pairs.jsonl")
    write_pairs(make_synthetic_pairs(6, seed=4), tmp_path / "train.jsonl")
    records, _ = inputs.annotation_records(40, 3)
    (tmp_path / "annotations.jsonl").write_text("".join(json.dumps(r) + "\n" for r in records))

    rec = spans.Recorder()
    commands = [
        ["prepare", "--chains", "chains.jsonl", "--out", "data", "--per-label-test", "1"],
        ["calibrate", "--chains", "chains.jsonl", "--out", "cal"],
        ["run", "--pairs", "pairs.jsonl", "--out", "run", "--train-pairs", "train.jsonl",
         "--context", "both", "--n-candidates", "3"],
        ["report", "--selections", "run/selections.jsonl", "--pairs", "pairs.jsonl",
         "--out", "report"],
        ["stats", "--annotations", "annotations.jsonl", "--out", "stats",
         "--strategy-pairs", "autoscore:top1"],
    ]
    for argv in commands:
        assert traced.call_cli(argv, tmp_path, rec) == 0, argv

    busy = rec.self_times()
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    layers = [name.removesuffix(".busy_s") for name in names if name.endswith(".busy_s")]
    assert len(layers) > 20
    assert [name for name in layers if busy.get(name, 0.0) <= 0.0] == []
    assert [name for name in COUNTERS if rec.counters.get(name, 0) <= 0] == []
