"""Pinned artifact bytes for ``prepare``, ``calibrate``, ``run``, ``report`` and ``stats``.

The commands run in process through ``cli.main`` on the ``conftest``
generators, from one working directory with relative paths, so the
config hash in ``report.json`` is the same on every machine. Every file
a command leaves in its output directory, except ``manifest.json``
(timestamps, absolute paths), is compared by sha256 with
``golden_digests.json``. A change that moves one last bit of a score,
a selection or a metric fails here.

The cases, in the order they run:

- ``prepare_chain``: the 300 chains split by chain;
- ``calibrate``: heuristic scorers, default grid;
- ``calibrate_cosine``: the cosine meaning scorer;
- ``run``: all 8 strategies, ``--context both``, the calibrated weights
  and a ranker trained on separate pairs;
- ``run_none``: ``--context none``, the default weights, three
  strategies in a non-canonical order and ``run``'s ranker file, which
  pins the row order and each strategy's ``combined`` column;
- ``run_resumed``: ``run`` again, resumed from the first half of its
  ``selections.jsonl`` (cut mid-line); it must give ``run``'s bytes;
- ``report``: the run's selections under ``bleu_mode = corpus`` and
  ``sari_variant = all_f1``;
- ``run_corpus``: ``run`` itself under the same two settings, with
  ``--context topic``, the calibrated weights and four strategies;
- ``stats``: every analysis with one Wilcoxon pair, on a seeded
  annotations file of Likert and ranking records, with MACE shortened
  to 10 EM iterations and 2 restarts.

A report averages its rows, and the mean can absorb a one-ulp change in
one row. So ``row_metrics`` also pins, as ``float.hex``, both SARI
variants, sentence BLEU and ROUGE-L of every candidate the run scored
against its pair's source and reference.

CPython 3.12 changed the builtin ``sum()`` of floats to a compensated
(Neumaier) sum, which can give other last bits than 3.11's plain one.
The package adds floats through ``metrics.left_sum`` instead, so the
digests must also hold with ``sum()`` replaced by an emulation of 3.12's.

``run`` finishes instances in one worker process per usable CPU, or
inline on one CPU; the digests must hold on both paths.

``prepare_chain`` and ``calibrate`` need no numpy, so both, run as
``python -m claimpolish.cli``, must also give the same bytes under
every other CPython 3.10 or later installed beside the running
interpreter, with or without numpy; that test skips when there is none.

Digests change only when artifact bytes change on purpose. Regenerate
them from the repository root with::

    PYTHONPATH=src python tests/test_golden.py

and name each changed artifact in CHANGES.md.
"""

import builtins
import contextlib
import hashlib
import json
import math
import os
import random
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest

from conftest import make_chain_records, make_synthetic_pairs, write_chain_records

from claimpolish import evalstats
from claimpolish.cli import main
from claimpolish.corpus import load_pairs, write_pairs
from claimpolish.metrics import left_sum, rouge_l, sari, sentence_bleu

DIGESTS_PATH = Path(__file__).with_name("golden_digests.json")

_RUN = [
    "run", "--pairs", "pairs.jsonl", "--seed", "3", "--context", "both",
    "--weights", "calibrate/weights.json", "--train-pairs", "train.jsonl",
]

# case -> argv, output directory included; paths are relative to the work directory
CASES = {
    "prepare_chain": [
        "prepare", "--chains", "chains.jsonl", "--out", "prepare_chain",
        "--per-label-test", "10", "--seed", "3",
    ],
    "calibrate": ["calibrate", "--chains", "chains.jsonl", "--out", "calibrate"],
    "calibrate_cosine": [
        "calibrate", "--config", "cosine.conf", "--chains", "chains.jsonl",
        "--out", "calibrate_cosine",
    ],
    "run": [*_RUN, "--out", "run"],
    "run_none": [
        "run", "--pairs", "pairs.jsonl", "--out", "run_none", "--seed", "3",
        "--context", "none", "--strategies", "max_meaning,pairwise_rank,unedited",
        "--ranker", "run/ranker.json",
    ],
    "run_resumed": [*_RUN, "--out", "run_resumed"],
    "report": [
        "report", "--config", "report.conf", "--selections", "run/selections.jsonl",
        "--pairs", "pairs.jsonl", "--out", "report",
    ],
    "run_corpus": [
        "run", "--config", "report.conf", "--pairs", "pairs.jsonl", "--out", "run_corpus",
        "--seed", "3", "--context", "topic", "--strategies", "autoscore,top1,random,unedited",
        "--weights", "calibrate/weights.json",
    ],
    "stats": [
        "stats", "--annotations", "annotations.jsonl", "--out", "stats",
        "--strategy-pairs", "autoscore:top1",
    ],
}


@contextlib.contextmanager
def _cut_run_in_half():
    """The first half of ``run``'s selections, as a run killed mid-row leaves them."""
    clean = Path("run/selections.jsonl").read_bytes()
    half = len(clean) // 2
    assert b"\n" not in clean[half - 1 : half + 1], "the cut must fall inside a row"
    Path("run_resumed").mkdir()
    Path("run_resumed/selections.jsonl").write_bytes(clean[:half])
    yield


# case -> a context manager its command runs in, in the work directory
SETUP = {
    "run_resumed": _cut_run_in_half,
    "stats": lambda: mock.patch.multiple(evalstats, MACE_ITERATIONS=10, MACE_RESTARTS=2),
}


def _annotation_records(n_items: int = 12, seed: int = 11) -> list[dict]:
    """Likert records for three strategies' outputs of each item, from four
    workers, and each worker's ranking of the three strategies."""
    rng = random.Random(seed)
    strategies = ["top1", "autoscore", "random"]
    records = []
    for i in range(n_items):
        for strategy in strategies:
            for worker in ("w1", "w2", "w3", "w4"):
                for fld, hi in (("fluency", 3), ("meaning", 5), ("argument", 5)):
                    records.append({
                        "item": f"p{i:02d}::{strategy}", "worker": worker,
                        "field": fld, "value": rng.randint(1, hi),
                    })
        for worker in ("w1", "w2", "w3"):
            records.append(
                {"item": f"p{i:02d}", "worker": worker, "ranking": rng.sample(strategies, 3)}
            )
    return records


def _write_inputs(work: Path) -> None:
    write_chain_records(work / "chains.jsonl", make_chain_records(300, seed=7))
    write_pairs(make_synthetic_pairs(40, seed=5), work / "pairs.jsonl")
    write_pairs(make_synthetic_pairs(40, seed=6), work / "train.jsonl")
    (work / "report.conf").write_text("bleu_mode = corpus\nsari_variant = all_f1\n")
    (work / "cosine.conf").write_text("meaning_scorer = cosine\n")
    (work / "annotations.jsonl").write_text(
        "".join(json.dumps(record) + "\n" for record in _annotation_records())
    )


@contextlib.contextmanager
def _cwd(path: Path):
    previous = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(previous)


def _artifact_digests(out: Path) -> dict[str, str]:
    """sha256 of each file in ``out`` but ``manifest.json``."""
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir())
        if p.name != "manifest.json"
    }


def compute_digests(work: Path) -> dict[str, dict[str, str]]:
    """Run every case in order inside ``work``; per case, each artifact's sha256."""
    _write_inputs(work)
    digests = {}
    with _cwd(work):
        for case, argv in CASES.items():
            with SETUP.get(case, contextlib.nullcontext)():
                code = main(argv)
            if code != 0:
                raise RuntimeError(f"{case} exited {code}")
            digests[case] = _artifact_digests(work / argv[argv.index("--out") + 1])
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
        source, ref = pair.source, pair.reference
        for text in candidates[pair.pair_id]:
            values = (
                sari(source, text, ref),
                sari(source, text, ref, variant="all_f1"),
                sentence_bleu(text, ref),
                rouge_l(text, ref),
            )
            digest.update((" ".join(v.hex() for v in values) + "\n").encode())
    return digest.hexdigest()


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    return compute_digests(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("case", [*CASES, "row_metrics"])
def test_artifact_bytes_match_golden_digests(digests, case):
    expected = json.loads(DIGESTS_PATH.read_text())[case]
    changed = sorted(
        name for name in set(expected) | set(digests[case])
        if expected.get(name) != digests[case].get(name)
    )
    assert not changed, f"{case}: artifacts differ from {DIGESTS_PATH.name}: {changed}"


def test_resumed_run_reproduces_the_clean_run(digests):
    assert digests["run_resumed"] == digests["run"]


def _compensated_sum(iterable, /, start=0):
    """The builtin ``sum()`` of CPython 3.12 and later: exact floats are
    added with Neumaier's compensation, ints into a float total as floats,
    and anything else, after the compensation, with ``+``."""
    total, compensation = start, 0.0
    for x in iterable:
        if type(total) is float and type(x) is float:
            t = total + x
            if abs(total) >= abs(x):
                compensation += (total - t) + x
            else:
                compensation += (x - t) + total
            total = t
        elif type(total) is float and type(x) is int:
            total += x
        else:
            if compensation and math.isfinite(compensation):
                total += compensation
            compensation = 0.0
            total = total + x
    if compensation and math.isfinite(compensation):
        total += compensation
    return total


def test_digests_hold_under_a_compensated_sum(tmp_path, monkeypatch):
    tenths = [0.1] * 10
    assert _compensated_sum(tenths).hex() == "0x1.0000000000000p+0"
    assert left_sum(tenths).hex() == "0x1.fffffffffffffp-1"  # sum() on 3.11
    monkeypatch.setattr(builtins, "sum", _compensated_sum)
    fresh = compute_digests(tmp_path)
    monkeypatch.undo()
    expected = json.loads(DIGESTS_PATH.read_text())
    changed = sorted(case for case in expected if fresh[case] != expected[case])
    assert not changed, f"cases whose bytes depend on sum(): {changed}"


@pytest.mark.parametrize("n_cpus", [1, 2])
def test_digests_do_not_depend_on_the_worker_count(tmp_path, force_cpus, n_cpus):
    """``run`` finishes instances inline on one usable CPU and in one
    worker process per CPU otherwise; every case keeps its bytes."""
    pools = force_cpus(n_cpus)
    fresh = compute_digests(tmp_path)
    expected = json.loads(DIGESTS_PATH.read_text())
    changed = sorted(case for case in expected if fresh[case] != expected[case])
    assert not changed, f"cases whose bytes depend on the worker count: {changed}"
    # run, run_none, run_resumed and run_corpus
    assert pools == ([2] * 4 if n_cpus == 2 and hasattr(os, "fork") else [])


_IS_CPYTHON_3_10_UP = (
    "import platform, sys; "
    "sys.exit(platform.python_implementation() != 'CPython' or sys.version_info < (3, 10))"
)


def _other_interpreters() -> list[Path]:
    """Every CPython 3.10 or later installed beside the running one."""
    here = Path(sys.base_prefix).resolve()
    return [
        python
        for python in sorted(here.parent.glob("*/bin/python3"))
        if python.parents[1].resolve() != here
        and subprocess.run([python, "-c", _IS_CPYTHON_3_10_UP], capture_output=True).returncode == 0
    ]


# the cases whose commands need no numpy; each reads only chains.jsonl
NUMPY_FREE_CASES = ("prepare_chain", "calibrate")


def test_prepare_and_calibrate_hold_on_other_interpreters(tmp_path):
    """``prepare_chain`` and ``calibrate``, run as ``python -m
    claimpolish.cli`` under every other CPython 3.10 or later found
    beside this one, keep every artifact digest."""
    interpreters = _other_interpreters()
    if not interpreters:
        pytest.skip(f"no other CPython >= 3.10 beside {sys.base_prefix}")
    _write_inputs(tmp_path)
    expected = json.loads(DIGESTS_PATH.read_text())
    src = Path(__file__).resolve().parents[1] / "src"
    for python in interpreters:
        work = tmp_path / python.parents[1].name
        work.mkdir()
        shutil.copy(tmp_path / "chains.jsonl", work)
        for case in NUMPY_FREE_CASES:
            argv = CASES[case]
            result = subprocess.run(
                [python, "-m", "claimpolish.cli", *argv], cwd=work, capture_output=True,
                text=True, env={**os.environ, "PYTHONPATH": str(src)}, timeout=120,
            )
            assert result.returncode == 0, f"{python} {case}: {result.stderr}"
            out = work / argv[argv.index("--out") + 1]
            assert _artifact_digests(out) == expected[case], f"{python}: {case} differs"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        fresh = compute_digests(Path(tmp))
    DIGESTS_PATH.write_text(json.dumps(fresh, indent=2, sort_keys=True) + "\n")
    print(f"wrote {DIGESTS_PATH}", file=sys.stderr)
