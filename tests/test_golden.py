"""Pinned artifact bytes for ``calibrate``, ``run`` and ``report``.

The commands run in process through ``cli.main`` on the ``conftest``
generators, from one working directory with relative paths, so the
config hash in ``report.json`` is the same on every machine. Every file
a command leaves in its output directory, except ``manifest.json``
(timestamps, absolute paths), is compared by sha256 with
``golden_digests.json``. A change that moves one last bit of a score,
a selection or a metric fails here.

The cases:

- ``calibrate``: pooled, heuristic scorers, default grid;
- ``run``: all 8 strategies, ``--context both``, the calibrated weights
  and a ranker trained on separate pairs;
- ``report``: the run's selections under ``bleu_mode = corpus`` and
  ``sari_variant = all_f1``.

A report averages its rows, and the mean can absorb a one-ulp change in
one row. So ``row_metrics`` also pins, as ``float.hex``, both SARI
variants, sentence BLEU and ROUGE-L of every candidate the run scored
against its pair's source and reference.

Digests change only when artifact bytes change on purpose. Regenerate
them from the repository root with::

    PYTHONPATH=src python tests/test_golden.py

and name each changed artifact in CHANGES.md.
"""

import contextlib
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from conftest import make_chain_records, make_synthetic_pairs, write_chain_records

from claimpolish.cli import main
from claimpolish.corpus import load_pairs, write_pairs
from claimpolish.metrics import rouge_l, sari, sentence_bleu

DIGESTS_PATH = Path(__file__).with_name("golden_digests.json")

# command -> the argv after the command name; paths are relative to the work directory
CASES = {
    "calibrate": ["--chains", "chains.jsonl", "--out", "calibrate"],
    "run": [
        "--pairs", "pairs.jsonl", "--out", "run", "--seed", "3", "--context", "both",
        "--weights", "calibrate/weights.json", "--train-pairs", "train.jsonl",
    ],
    "report": [
        "--config", "report.conf", "--selections", "run/selections.jsonl",
        "--pairs", "pairs.jsonl", "--out", "report",
    ],
}


def _write_inputs(work: Path) -> None:
    write_chain_records(work / "chains.jsonl", make_chain_records(300, seed=7))
    write_pairs(make_synthetic_pairs(40, seed=5), work / "pairs.jsonl")
    write_pairs(make_synthetic_pairs(40, seed=6), work / "train.jsonl")
    (work / "report.conf").write_text("bleu_mode = corpus\nsari_variant = all_f1\n")


@contextlib.contextmanager
def _cwd(path: Path):
    previous = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(previous)


def compute_digests(work: Path) -> dict[str, dict[str, str]]:
    """Run every case in order inside ``work``; per case, each artifact's sha256."""
    _write_inputs(work)
    digests = {}
    with _cwd(work):
        for command, argv in CASES.items():
            code = main([command, *argv])
            if code != 0:
                raise RuntimeError(f"{command} exited {code}")
            out = work / argv[argv.index("--out") + 1]
            digests[command] = {
                p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(out.iterdir())
                if p.name != "manifest.json"
            }
        digests["row_metrics"] = {"candidates": _row_metrics_digest()}
    return digests


def _row_metrics_digest() -> str:
    """sha256 over one line of metric bits per (pair, candidate) of the run."""
    candidates = {}
    with open("run/selections.jsonl", encoding="utf-8") as fh:
        for line in fh:
            record = json.loads(line)
            candidates[record["pair_id"]] = [score["text"] for score in record["scores"]]
    digest = hashlib.sha256()
    for pair in load_pairs("pairs.jsonl"):
        source, refs = pair.source.text, (pair.reference.text,)
        for text in candidates[pair.pair_id]:
            values = (
                sari(source, text, refs),
                sari(source, text, refs, variant="all_f1"),
                sentence_bleu(text, refs),
                rouge_l(text, refs[0]),
            )
            digest.update((" ".join(v.hex() for v in values) + "\n").encode())
    return digest.hexdigest()


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    return compute_digests(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("command", [*CASES, "row_metrics"])
def test_artifact_bytes_match_golden_digests(digests, command):
    expected = json.loads(DIGESTS_PATH.read_text())[command]
    changed = sorted(
        name for name in set(expected) | set(digests[command])
        if expected.get(name) != digests[command].get(name)
    )
    assert not changed, f"{command}: artifacts differ from {DIGESTS_PATH.name}: {changed}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        fresh = compute_digests(Path(tmp))
    DIGESTS_PATH.write_text(json.dumps(fresh, indent=2, sort_keys=True) + "\n")
    print(f"wrote {DIGESTS_PATH}", file=sys.stderr)
