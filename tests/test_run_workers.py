"""``run`` gives the same bytes on one process and on a pool of workers.

Stage A of an instance (serialize, generate, dedup, score) runs in the
main process, which owns the adapters. Stage B (select, encode, evaluate)
runs in one forked worker per usable CPU, at most one per instance, or
inline with one CPU or one instance. The ``force_cpus`` fixture sets the
usable CPU count through ``os.sched_getaffinity``.
"""

import dataclasses
import json
import logging
import multiprocessing
import os
import subprocess
import sys
import textwrap
import weakref
from pathlib import Path

import pytest

from conftest import adapters_config, make_synthetic_pairs

import claimpolish
import claimpolish.cli as cli
from claimpolish.cli import main
from claimpolish.corpus import write_pairs
from claimpolish.metrics import ReportTotals

# the source tree of the package under test, for fresh interpreters
SRC = Path(claimpolish.__file__).resolve().parents[1]
FORK = hasattr(os, "fork")


def _with_source(pair, text):
    return dataclasses.replace(pair, source=text)


def _script(path, body, pid_log=None):
    """A stdio child running ``body`` per request ``req``; it appends its
    pid to ``pid_log`` when it starts."""
    start = (
        f"with open({str(pid_log)!r}, 'a') as log:\n    log.write(f'{{os.getpid()}}\\n')\n"
        if pid_log else ""
    )
    path.write_text(
        "import json, os, sys\n"
        + start
        + "for line in sys.stdin:\n"
        + "    req = json.loads(line)\n"
        + textwrap.indent(textwrap.dedent(body), "    ")
    )
    return f"stdio:{sys.executable} {path}"


GENERATOR = """
if 'BROKEN' in req['input'] or ('NOGREEDY' in req['input'] and req['directive'] == 'greedy'):
    print(json.dumps({'error': 'refused'}), flush=True)
else:
    print(json.dumps({'text': req['input'] + ' (' + req['directive'] + ')'}), flush=True)
"""
SCORER = "print(json.dumps({'score': 0.5}), flush=True)\n"


def test_failures_in_both_stages_give_the_same_bytes_on_both_paths(tmp_path, force_cpus):
    # stage A fails on BROKEN (every step refused); stage B on NOGREEDY,
    # where top1 finds no greedy candidate
    pairs = make_synthetic_pairs(8, seed=3)
    for i, word in ((1, "BROKEN"), (2, "NOGREEDY"), (4, "NOGREEDY"), (5, "BROKEN"), (7, "NOGREEDY")):
        pairs[i] = _with_source(pairs[i], f"{word} claim number {i}")
    pairs_path = tmp_path / "pairs.jsonl"
    write_pairs(pairs, pairs_path)
    stdio = adapters_config(tmp_path, generator=_script(tmp_path / "gen.py", GENERATOR))
    outputs = {}
    for n_cpus in (1, 2):
        pools = force_cpus(n_cpus)
        out = tmp_path / f"cpus{n_cpus}"
        code = main([
            "run", "--pairs", str(pairs_path), "--out", str(out), "--seed", "1",
            "--strategies", "unedited,top1", "--n-candidates", "3", *stdio,
        ])
        assert code == 1
        assert pools == ([2] if n_cpus == 2 and FORK else [])
        outputs[n_cpus] = {
            name: (out / name).read_bytes()
            for name in ("selections.jsonl", "errors.jsonl", "report.json", "report.csv")
        }
    assert outputs[1] == outputs[2]
    errors = [json.loads(line) for line in outputs[2]["errors.jsonl"].splitlines()]
    generation = {"stage": "A", "type": "GenerationError", "error": "all 3 generation steps failed"}
    selection = {"stage": "B", "type": "ValueError", "error": "no greedy-origin candidate in the set"}
    assert errors == [
        {"pair_id": pairs[i].pair_id, **failure}
        for i, failure in (
            (1, generation), (2, selection), (4, selection), (5, generation), (7, selection)
        )
    ]
    selections = [json.loads(line) for line in outputs[2]["selections.jsonl"].splitlines()]
    assert [r["pair_id"] for r in selections[::2]] == [pairs[i].pair_id for i in (0, 3, 6)]


@pytest.mark.parametrize("stage, name", [("A", "score_candidate"), ("B", "select")])
def test_a_bug_in_either_stage_propagates(tmp_path, monkeypatch, force_cpus, stage, name):
    """Only the named instance failures go to errors.jsonl; a TypeError
    ends the run, raised inline or from a worker."""
    pairs_path = tmp_path / "pairs.jsonl"
    write_pairs(make_synthetic_pairs(4, seed=3), pairs_path)

    def broken(*args, **kwargs):
        raise TypeError(f"a bug in stage {stage}")

    # forked workers inherit the patched module
    monkeypatch.setattr(f"claimpolish.cli.{name}", broken)
    for n_cpus in (1, 2):
        force_cpus(n_cpus)
        with pytest.raises(TypeError, match=f"a bug in stage {stage}"):
            main(["run", "--pairs", str(pairs_path), "--out", str(tmp_path / "o"),
                  "--strategies", "top1"])
        assert not (tmp_path / "o" / "errors.jsonl").exists()


@pytest.mark.parametrize("stage, name", [("A", "score_candidate"), ("B", "score_instance")])
def test_a_value_error_in_either_stage_exits_two(
    tmp_path, monkeypatch, capsys, force_cpus, stage, name
):
    """A ValueError that is no instance failure ends the run with one
    ``error:`` line and exit code 2, as a bad input does, raised inline
    or from a worker."""
    pairs_path = tmp_path / "pairs.jsonl"
    write_pairs(make_synthetic_pairs(4, seed=3), pairs_path)

    def broken(*args, **kwargs):
        raise ValueError(f"bad value in stage {stage}")

    monkeypatch.setattr(f"claimpolish.cli.{name}", broken)
    for n_cpus in (1, 2):
        force_cpus(n_cpus)
        code = main(["run", "--pairs", str(pairs_path), "--out", str(tmp_path / "o"),
                     "--strategies", "top1"])
        assert code == 2
        assert capsys.readouterr().err == f"error: bad value in stage {stage}\n"


def test_a_loaded_ranker_embeds_with_the_runs_embedder(tmp_path, monkeypatch, force_cpus):
    """On the inline path, a run with ``--ranker`` makes the same embed
    calls on the run's embedder as the run that trained the ranker, less
    the training's two per pair, and picks the same."""
    pairs_path = tmp_path / "pairs.jsonl"
    pairs = make_synthetic_pairs(6, seed=3)
    write_pairs(pairs, pairs_path)
    calls = []

    class CountingEmbedder(cli.HashingEmbedder):
        def embed(self, text):
            calls.append(text)
            return super().embed(text)

    monkeypatch.setattr(cli, "HashingEmbedder", CountingEmbedder)
    force_cpus(1)
    argv = ["run", "--pairs", str(pairs_path), "--strategies", "pairwise_rank"]
    assert main([*argv, "--out", str(tmp_path / "t"), "--train-pairs", str(pairs_path)]) == 0
    trained = len(calls)
    calls.clear()
    ranker = str(tmp_path / "t" / "ranker.json")
    assert main([*argv, "--out", str(tmp_path / "l"), "--ranker", ranker]) == 0
    n_training = sum(p.source != p.reference for p in pairs)
    assert len(calls) == trained - 2 * n_training
    selections = [(tmp_path / out / "selections.jsonl").read_bytes() for out in ("t", "l")]
    assert selections[0] == selections[1]


def test_a_failed_training_leaves_ranker_json_and_selections_alone(
    tmp_path, monkeypatch, capsys, force_cpus
):
    """A training that raises ends the run with exit code 2 and one
    ``error:`` line on both paths, in the main process or in a worker,
    before ``ranker.json`` is written or an interrupted run's
    ``selections.jsonl`` is truncated, and leaves no worker behind."""
    pairs_path = tmp_path / "pairs.jsonl"
    write_pairs(make_synthetic_pairs(8, seed=3), pairs_path)
    out = tmp_path / "o"
    argv = ["run", "--pairs", str(pairs_path), "--out", str(out), "--strategies",
            "top1,pairwise_rank", "--n-candidates", "3", "--train-pairs", str(pairs_path)]
    force_cpus(1)
    assert main(argv) == 0
    # an interrupted run: three complete instances, and no ranker.json
    interrupted = b"".join((out / "selections.jsonl").read_bytes().splitlines(True)[:6])
    (out / "selections.jsonl").write_bytes(interrupted)
    (out / "ranker.json").unlink()
    capsys.readouterr()

    def broken(*args, **kwargs):
        raise ValueError("the training failed")

    # forked workers inherit the patched module
    monkeypatch.setattr("claimpolish.cli.train_pairwise_ranker", broken)
    for n_cpus in (1, 2):
        pools = force_cpus(n_cpus)
        assert main(argv) == 2
        assert pools == ([2] if n_cpus == 2 and FORK else [])
        assert capsys.readouterr().err == "error: the training failed\n"
        assert not (out / "ranker.json").exists()
        assert (out / "selections.jsonl").read_bytes() == interrupted
        assert multiprocessing.active_children() == []


def test_run_keeps_no_row_once_its_instance_is_added(tmp_path, monkeypatch, force_cpus):
    """On the inline path, every row that ``score_instance`` returned for
    an instance is gone once the next instance is added to the totals."""
    pairs_path = tmp_path / "pairs.jsonl"
    write_pairs(make_synthetic_pairs(6, seed=3), pairs_path)
    returned = []  # per instance, a weak reference to each of its rows
    live = []  # after each add, how many rows of earlier instances are alive
    score_instance, add = cli.score_instance, ReportTotals.add

    def recording_score_instance(*args, **kwargs):
        rows = score_instance(*args, **kwargs)
        returned.append([weakref.ref(row) for row in rows.values()])
        return rows

    def checking_add(totals, chosen):
        add(totals, chosen)
        live.append(sum(ref() is not None for refs in returned[:-1] for ref in refs))

    monkeypatch.setattr(cli, "score_instance", recording_score_instance)
    monkeypatch.setattr(ReportTotals, "add", checking_add)
    pools = force_cpus(1)
    argv = ["run", "--pairs", str(pairs_path), "--out", str(tmp_path / "o"),
            "--strategies", "unedited,top1,random,autoscore"]
    assert main(argv) == 0
    assert pools == []
    assert len(returned) == len(live) == 6
    assert all(returned)
    assert live == [0] * 6


def test_stdio_adapters_start_one_child_each_and_leave_none(tmp_path, force_cpus, caplog):
    pid_log = tmp_path / "pids"
    stdio = adapters_config(
        tmp_path,
        generator=_script(tmp_path / "gen.py", GENERATOR, pid_log),
        fluency_scorer=_script(tmp_path / "fluency.py", SCORER, pid_log),
    )
    pairs_path = tmp_path / "pairs.jsonl"
    write_pairs(make_synthetic_pairs(6, seed=3), pairs_path)
    pools = force_cpus(2)
    with caplog.at_level(logging.WARNING, logger="claimpolish.ndjson"):
        code = main([
            "run", "--pairs", str(pairs_path), "--out", str(tmp_path / "o"),
            "--strategies", "top1,autoscore", "--n-candidates", "3", *stdio,
        ])
    assert code == 0
    assert pools == ([2] if FORK else [])
    # each child saw EOF when its adapter closed: no worker held its pipes then
    assert "still running" not in caplog.text
    pids = [int(line) for line in pid_log.read_text().split()]
    assert len(pids) == 2
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)
    assert multiprocessing.active_children() == []


def test_a_one_pair_run_starts_no_worker(tmp_path, force_cpus):
    pairs_path = tmp_path / "pairs.jsonl"
    write_pairs(make_synthetic_pairs(1, seed=3), pairs_path)
    pools = force_cpus(2)
    argv = ["run", "--pairs", str(pairs_path), "--out", str(tmp_path / "o"), "--strategies", "top1"]
    assert main(argv) == 0
    assert pools == []


def _run_in_a_fresh_interpreter(tmp_path, flags, n_pairs, argv=(), epilogue=""):
    """``run`` on ``n_pairs`` pairs with two usable CPUs, in a new Python
    started with ``flags``; returns the finished process."""
    write_pairs(make_synthetic_pairs(n_pairs, seed=3), tmp_path / "pairs.jsonl")
    argv = [
        "run", "--pairs", "pairs.jsonl", "--out", "o", "--n-candidates", "3",
        "--strategies", "top1,autoscore", *argv,
    ]
    code = textwrap.dedent(f"""
        import os, sys
        os.sched_getaffinity = lambda pid: {{0, 1}}
        from claimpolish.cli import main
        code = main({argv!r})
        {epilogue}
        sys.exit(code)
    """)
    return subprocess.run(
        [sys.executable, *flags, "-c", code],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_a_one_pair_run_imports_no_pool_module(tmp_path):
    result = _run_in_a_fresh_interpreter(
        tmp_path, [], 1, epilogue="print(sorted(m for m in sys.modules if m.split('.')[0] in "
        "('multiprocessing', 'concurrent')))",
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


@pytest.mark.skipif(not FORK, reason="the pool needs fork")
def test_pooled_run_is_clean_under_dev_mode_and_warnings_as_errors(tmp_path):
    """A leaked pipe, file, process or an unsafe fork warns; -W error makes
    each warning an error, and one raised where it cannot propagate is
    still printed on stderr."""
    config = tmp_path / "stdio.cfg"
    config.write_text(
        f"generator = {_script(tmp_path / 'gen.py', GENERATOR)}\n"
        f"fluency_scorer = {_script(tmp_path / 'fluency.py', SCORER)}\n"
    )
    result = _run_in_a_fresh_interpreter(
        tmp_path, ["-X", "dev", "-W", "error"], 6, ["--config", str(config)],
        "assert 'concurrent.futures.process' in sys.modules",
    )
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""


@pytest.mark.skipif(not FORK, reason="the pool needs fork")
def test_a_pooled_run_trains_its_ranker_without_numpy_in_the_main_process(
    tmp_path, monkeypatch, force_cpus
):
    """With two CPUs, the ranker trains in a worker, so the main process
    never imports numpy, and the artifacts are the one-CPU run's bytes.
    The run is clean under dev mode and warnings as errors, as in
    ``test_pooled_run_is_clean_under_dev_mode_and_warnings_as_errors``."""
    # the later --strategies overrides the helper's
    argv = ["--strategies", "top1,autoscore,pairwise_rank", "--train-pairs", "pairs.jsonl"]
    result = _run_in_a_fresh_interpreter(
        tmp_path, ["-X", "dev", "-W", "error"], 12, argv,
        "assert 'concurrent.futures.process' in sys.modules\n"
        "        print('numpy' in sys.modules)",
    )
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""
    assert result.stdout.strip() == "False"
    monkeypatch.chdir(tmp_path)
    force_cpus(1)
    assert main(["run", "--pairs", "pairs.jsonl", "--out", "one", "--n-candidates", "3", *argv]) == 0
    for name in ("ranker.json", "selections.jsonl", "report.json", "report.csv"):
        assert (tmp_path / "o" / name).read_bytes() == (tmp_path / "one" / name).read_bytes(), name


@pytest.mark.skipif(not FORK, reason="the pool needs fork")
def test_a_pooled_run_loads_its_ranker_without_numpy_in_the_main_process(
    tmp_path, monkeypatch, force_cpus
):
    """A ``--ranker`` run builds the weights' array in the workers that
    score, so its main process never imports numpy either, and it picks
    what the run that trained the ranker picked."""
    argv = ["--strategies", "top1,pairwise_rank", "--n-candidates", "3"]
    write_pairs(make_synthetic_pairs(12, seed=3), tmp_path / "pairs.jsonl")
    monkeypatch.chdir(tmp_path)
    force_cpus(1)
    assert main(["run", "--pairs", "pairs.jsonl", "--out", "t", "--train-pairs", "pairs.jsonl",
                 *argv]) == 0
    # the later --strategies overrides the helper's
    result = _run_in_a_fresh_interpreter(
        tmp_path, [], 12, [*argv, "--ranker", "t/ranker.json"],
        "assert 'concurrent.futures.process' in sys.modules\n"
        "        print('numpy' in sys.modules)",
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"
    assert (tmp_path / "o" / "selections.jsonl").read_bytes() == (
        tmp_path / "t" / "selections.jsonl"
    ).read_bytes()
