import builtins
import contextlib
import dataclasses
import hashlib
import importlib.metadata
import io
import json
import logging
import os
import platform
import random
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import (
    adapters_config,
    make_chain_records,
    make_synthetic_pairs,
    write_chain_records,
)

import claimpolish
import claimpolish.cli as cli
from claimpolish import corpus, ndjson
from claimpolish.cli import (
    ConfigError,
    _config_hash,
    _merge_config,
    build_parser,
    main,
    read_config_file,
)
from claimpolish.corpus import load_pairs, write_pairs
from claimpolish.embedding import HashingEmbedder
from claimpolish.genkit import GREEDY, TOPK, Candidate
from claimpolish.scoring import DEFAULT_WEIGHTS, ScoreVector, Weights, autoscore
from claimpolish.selection import COLUMNS, Strategy, load_ranker, score_columns, select

WEIGHTS = {
    "alpha": 0.43,
    "beta": 0.01,
    "gamma": 0.56,
    "pearson_r": 0.9,
    "grid_step": 0.01,
}
EMBEDDER = {"kind": "hashing", "dim": 256, "seed": 0}  # the one a ranker.json may name


def write_weights(path):
    path.write_text(json.dumps(WEIGHTS) + "\n")


def run_cli(*argv):
    return main([str(a) for a in argv])


def read_rows(path):
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]


@pytest.fixture()
def run_dir(tmp_path, pairs_file):
    """A completed full-strategy run over the 12 synthetic pairs."""
    out = tmp_path / "run"
    weights = tmp_path / "weights.json"
    write_weights(weights)
    code = run_cli(
        "run",
        "--pairs", pairs_file,
        "--out", out,
        "--seed", 11,
        "--context", "both",
        "--n-candidates", 10,
        "--weights", weights,
        "--train-pairs", pairs_file,
    )
    assert code == 0
    return out


# ---------------------------------------------------------------------------
# config plumbing


def test_read_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# comment\n"
        "\n"
        "seed = 42\n"
        "generator=mock\n"
        "context = both\n"
    )
    assert read_config_file(cfg) == {
        "seed": "42",
        "generator": "mock",
        "context": "both",
    }


def test_read_config_file_rejects_bare_words(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed\n")
    with pytest.raises(ConfigError) as err:
        read_config_file(cfg)
    assert ":1:" in str(err.value)


def test_read_config_file_rejects_a_repeated_key(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 1\n# the same key again, spaced otherwise\n\n seed=2\n")
    with pytest.raises(ConfigError) as err:
        read_config_file(cfg)
    assert str(err.value) == f"{cfg}:4: key 'seed' repeats line 1"
    out = tmp_path / "o"
    assert run_cli("run", "--config", cfg, "--pairs", tmp_path / "missing.jsonl", "--out", out) == 2
    assert capsys.readouterr().err == f"error: {cfg}:4: key 'seed' repeats line 1\n"
    assert not out.exists()


def test_merge_precedence_file_flag(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 1\ngenerator = stdio:gen --flag\nn_candidates = 5\n")
    args = build_parser().parse_args(
        ["run", "--config", str(cfg), "--pairs", "p.jsonl", "--seed", "9"]
    )
    merged = _merge_config(args)
    assert merged["seed"] == "9"  # flag beats file
    assert merged["n_candidates"] == "5"  # file survives when no flag
    assert merged["generator"] == "stdio:gen --flag"  # adapters come from the file
    assert merged["pairs"] == "p.jsonl"


def test_config_hash_ignores_output_location():
    base = {"seed": "1", "pairs": "p.jsonl"}
    assert _config_hash(dict(base, out="/a")) == _config_hash(dict(base, out="/b"))
    assert _config_hash(base) != _config_hash(dict(base, seed="2"))


ALL8 = "unedited,top1,random,max_fluency,max_argument,max_meaning,autoscore,pairwise_rank"


# merged config strings and hashes computed before the settings table existed;
# calibrate's was recomputed when its grid flags became constants
@pytest.mark.parametrize(
    "argv, merged, digest",
    [
        (
            ["run", "--pairs", "inputs/pairs.jsonl", "--out", "cli", "--seed", "0",
             "--context", "both", "--n-candidates", "10", "--strategies", ALL8,
             "--weights", "inputs/weights.json", "--train-pairs", "inputs/train.jsonl"],
            {"seed": "0", "out": "cli", "pairs": "inputs/pairs.jsonl", "context": "both",
             "strategies": ALL8, "n_candidates": "10", "weights": "inputs/weights.json",
             "train_pairs": "inputs/train.jsonl"},
            "89ad300f10d993a403c12bb2b49b526d0b80a59151da55f506512e2c927e19ab",
        ),
        (
            ["calibrate", "--chains", "chains.jsonl", "--out", "cal", "--seed", "2"],
            {"seed": "2", "out": "cal", "chains": "chains.jsonl"},
            "66d79ea2bc70e1315a1860f6147c499af537d5d15d32493be5df823dae1afaea",
        ),
    ],
    ids=["run", "calibrate"],
)
def test_merged_flags_and_config_hash_are_pinned(argv, merged, digest):
    config = _merge_config(build_parser().parse_args(argv))
    assert config == merged
    assert _config_hash(config) == digest


def test_flags_are_the_settings_keys_with_help():
    flags = {
        "prepare": {"chains", "out", "per_label_test", "seed"},
        "run": {"context", "n_candidates", "out", "pairs", "ranker", "seed", "strategies",
                "train_pairs", "weights"},
        "calibrate": {"chains", "out", "seed"},
        "stats": {"annotations", "out", "seed", "strategy_pairs"},
        "report": {"out", "pairs", "seed", "selections"},
    }
    parser = build_parser()
    assert set(cli._SETTINGS) == set(flags)
    for command, table in cli._SETTINGS.items():
        parsed = set(vars(parser.parse_args([command]))) - {"command", "config"}
        assert parsed == flags[command] == {k for k, (_, _, h) in table.items() if h}
        for parse, default, _ in table.values():
            if isinstance(parse, tuple):
                assert default == parse[0]


def test_readme_config_table_matches_the_settings_tables():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    lines = readme.read_text(encoding="utf-8").splitlines()
    start = lines.index("| Key | Commands | Also set by | Type | Default | Allowed values |")
    documented = {}
    for line in lines[start + 2 :]:
        if not line.startswith("|"):
            break
        keys, commands, set_by = (cell.strip() for cell in line.split("|")[1:4])
        named = set(cli._SETTINGS) if commands == "all" else set(commands.split(", "))
        for key in re.findall(r"`(\w+)`", keys):
            documented[key] = named, set_by
    held = {key for table in cli._SETTINGS.values() for key in table}
    assert set(documented) == held
    for key, (commands, set_by) in documented.items():
        tables = {c: table for c, table in cli._SETTINGS.items() if key in table}
        assert commands == set(tables), key
        has_flag = any(table[key][2] for table in tables.values())
        assert set_by == ("flag" if has_flag else "—"), key


def _readme_cli_commands() -> list[str]:
    """Each ``claimpolish`` command of README's ``## CLI`` shell block,
    its backslash continuations joined."""
    readme = Path(__file__).resolve().parent.parent / "README.md"
    lines = readme.read_text(encoding="utf-8").splitlines()
    start = lines.index("```sh", lines.index("## CLI")) + 1
    block = "\n".join(lines[start : lines.index("```", start)]).replace("\\\n", " ")
    return [line for line in block.splitlines() if line.startswith("claimpolish ")]


def test_readme_cli_commands_parse():
    commands = _readme_cli_commands()
    assert len(commands) == len(cli._COMMANDS)
    parser = build_parser()
    for command in commands:
        parser.parse_args(shlex.split(command)[1:])  # exits 2 on an unknown flag


@pytest.mark.parametrize(
    "command, line, named",
    [
        ("run", "n_candidate = 5", "unknown config key 'n_candidate'"),
        ("run", "ranker_seed = 3", "unknown config key 'ranker_seed'"),
        ("prepare", "granularity = chain", "unknown config key 'granularity'"),
        ("calibrate", "aggregation = pooled", "unknown config key 'aggregation'"),
        ("run", "meaning_scorer = jaccard", "unknown meaning_scorer 'jaccard'"),
        ("calibrate", "meaning_scorer = jaccard", "unknown meaning_scorer 'jaccard'"),
        ("run", "seed = x", "seed: "),
        ("prepare", "seed = -1", "seed: must be >= 0, got -1"),
        ("run", "seed = -1", "seed: must be >= 0, got -1"),
        ("calibrate", "seed = -1", "seed: must be >= 0, got -1"),
        ("stats", "seed = -2", "seed: must be >= 0, got -2"),
        ("prepare", "filter_intents = bogus", "unknown config key 'filter_intents'"),
        ("prepare", "labeler = none", "unknown config key 'labeler'"),
        ("stats", "mode = all", "unknown config key 'mode'"),
        ("stats", "mace_smoothing = 0.1", "unknown config key 'mace_smoothing'"),
        ("stats", "competence_threshold = 0.3", "unknown config key 'competence_threshold'"),
        ("run", "embed_dim = 256", "unknown config key 'embed_dim'"),
        ("calibrate", "embed_seed = 0", "unknown config key 'embed_seed'"),
        ("prepare", "train_fraction = 0.9", "unknown config key 'train_fraction'"),
        ("calibrate", "grid_step = 0.01", "unknown config key 'grid_step'"),
        ("calibrate", "range_lo = 0.01", "unknown config key 'range_lo'"),
        ("calibrate", "range_hi = 0.98", "unknown config key 'range_hi'"),
        ("stats", "mace_iterations = 50", "unknown config key 'mace_iterations'"),
        ("stats", "mace_restarts = 10", "unknown config key 'mace_restarts'"),
        ("run", "strategies = top1,top1,unedited", "strategies: strategy 'top1' is listed twice"),
        (
            "stats", "strategy_pairs = autoscore:autoscore",
            "strategy_pairs: strategy pair 'autoscore:autoscore' compares 'autoscore' with itself",
        ),
        (
            "stats", "strategy_pairs = autoscore: autoscore",
            "strategy_pairs: strategy pair 'autoscore: autoscore' compares 'autoscore' with itself",
        ),
        (
            "stats", "strategy_pairs = autoscore:top1, autoscore :top1",
            "strategy_pairs: strategy pair 'autoscore:top1' is listed twice",
        ),
    ],
)
def test_config_key_error_exits_two_before_any_output(
    tmp_path, pairs_file, chains_file, capsys, command, line, named
):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    out = tmp_path / "o"
    inputs = _command_inputs(tmp_path, pairs_file, chains_file)[command]
    assert run_cli(command, "--config", cfg, *inputs, "--out", out) == 2
    assert f"error: {named}" in capsys.readouterr().err
    assert list(out.glob("*")) == []


def test_run_ranker_and_train_pairs_both_set_exit_two_before_any_output(tmp_path, capsys):
    # neither file exists: the two keys are rejected first
    out = tmp_path / "o"
    argv = ["run", "--pairs", tmp_path / "pairs.jsonl", "--out", out]
    argv += ["--ranker", tmp_path / "ranker.json", "--train-pairs", tmp_path / "missing.jsonl"]
    assert run_cli(*argv) == 2
    assert capsys.readouterr().err == "error: ranker and train_pairs are both set\n"
    assert not out.exists()


@pytest.mark.parametrize("key", ["ranker", "train_pairs"])
def test_run_ranker_or_train_pairs_without_pairwise_rank_exits_two_before_any_output(
    tmp_path, pairs_file, capsys, key
):
    # the file does not exist: the key is rejected before it is read
    out = tmp_path / "o"
    argv = ["run", "--pairs", pairs_file, "--out", out, "--strategies", "top1,autoscore"]
    assert run_cli(*argv, "--" + key.replace("_", "-"), tmp_path / "missing.jsonl") == 2
    assert capsys.readouterr().err == (
        f"error: {key} is set, but the pairwise_rank strategy is not\n"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "source", [pytest.param("flag", id="flag"), pytest.param("file", id="file")]
)
@pytest.mark.parametrize("value", ["", ","])
def test_blank_strategies_exit_two_before_any_input(tmp_path, capsys, source, value):
    # the pairs file does not exist: the strategies are rejected first
    argv = ["run", "--pairs", tmp_path / "missing.jsonl", "--out", tmp_path / "o"]
    if source == "flag":
        argv += ["--strategies", value]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"strategies = {value}\n")
        argv += ["--config", cfg]
    assert run_cli(*argv) == 2
    assert capsys.readouterr().err == "error: strategies: empty strategy list\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "source", [pytest.param("flag", id="flag"), pytest.param("file", id="file")]
)
@pytest.mark.parametrize(
    "command, key, value, named",
    [
        ("prepare", "per_label_test", "-1", "per_label_test: must be >= 0, got -1"),
        ("run", "n_candidates", "0", "n_candidates: must be >= 1, got 0"),
        ("run", "n_candidates", "ten", "n_candidates: invalid literal for int()"),
        (
            "run", "context", "bogus",
            "unknown context 'bogus' (choose from none, previous, topic, both)",
        ),
    ],
)
def test_bad_value_is_reported_before_any_input(
    tmp_path, capsys, command, key, value, named, source
):
    # the input file does not exist: the value is rejected first, as one
    # error line whether it came from a flag or from the file
    input_flag = {"prepare": "--chains", "run": "--pairs"}[command]
    argv = [command, input_flag, tmp_path / "missing.jsonl", "--out", tmp_path / "o"]
    if source == "flag":
        argv += ["--" + key.replace("_", "-"), value]
    else:
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"{key} = {value}\n")
        argv += ["--config", cfg]
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {named}") and err.count("\n") == 1
    assert not (tmp_path / "o").exists()


def test_flag_and_file_record_one_config_and_hash(tmp_path, chains_file):
    manifests = []
    for source in ("flag", "file"):
        out = tmp_path / source
        argv = ["prepare", "--chains", chains_file, "--out", out, "--per-label-test", "2"]
        if source == "flag":
            argv += ["--seed", "007"]
        else:
            cfg = tmp_path / "seed.cfg"
            cfg.write_text("seed = 007\n")
            argv += ["--config", cfg]
        assert run_cli(*argv) == 0
        manifests.append(json.loads((out / "manifest.json").read_text()))
    flag, file = manifests
    assert flag["config"]["seed"] == file["config"]["seed"] == "007"
    assert flag["config_hash"] == file["config_hash"]
    assert (tmp_path / "flag" / "test.jsonl").read_bytes() == (
        tmp_path / "file" / "test.jsonl"
    ).read_bytes()


def test_help_names_the_context_values(capsys):
    with pytest.raises(SystemExit):
        main(["run", "--help"])
    assert "--context {none,previous,topic,both}" in capsys.readouterr().out


@pytest.mark.parametrize("value", ["all", " all", "all "])
def test_strategies_all_names_every_strategy(value):
    args = build_parser().parse_args(["run", "--strategies", value])
    assert cli._settings("run", _merge_config(args))["strategies"] == tuple(Strategy)


def _command_inputs(tmp_path, pairs_file, chains_file) -> dict[str, list]:
    """Each command's input flags, naming valid input files."""
    annotations = tmp_path / "annotations.jsonl"
    _write_annotations(annotations)
    selections = tmp_path / "selections.jsonl"
    pair_id = read_rows(pairs_file)[0]["pair_id"]
    selections.write_text(
        json.dumps({"pair_id": pair_id, "strategy": "top1", "chosen": "x", "edited": True}) + "\n"
    )
    return {
        "prepare": ["--chains", chains_file],
        "run": ["--pairs", pairs_file],
        "calibrate": ["--chains", chains_file],
        "stats": ["--annotations", annotations],
        "report": ["--selections", selections, "--pairs", pairs_file],
    }


@pytest.mark.parametrize("below", [False, True], ids=["file", "below-file"])
@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_out_on_a_file_exits_two(tmp_path, pairs_file, chains_file, capsys, command, below):
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    out = taken / "x" if below else taken
    inputs = _command_inputs(tmp_path, pairs_file, chains_file)[command]
    assert run_cli(command, *inputs, "--out", out) == 2
    reason = "Not a directory" if below else "File exists"
    assert capsys.readouterr().err.splitlines() == [f"error: output directory {out}: {reason}"]
    assert taken.read_text() == "not a directory\n"


def test_config_on_a_directory_exits_two(tmp_path, chains_file, capsys):
    out = tmp_path / "o"
    code = run_cli("prepare", "--config", tmp_path, "--chains", chains_file, "--out", out)
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [f"error: config file not found: {tmp_path}"]
    assert not out.exists()


def test_keys_of_other_commands_are_ignored(tmp_path, chains_file):
    cfg = tmp_path / "pipeline.cfg"
    cfg.write_text(
        "per_label_test = 2\nn_candidates = x\nstrategy_pairs = bogus\nbleu_mode = corpus\n"
    )
    out = tmp_path / "data"
    assert run_cli("prepare", "--config", cfg, "--chains", chains_file, "--out", out) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["strategy_pairs"] == "bogus"


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    from claimpolish import __version__

    assert capsys.readouterr().out.strip() == __version__


# ---------------------------------------------------------------------------
# prepare


def test_prepare_artifacts_and_counts(tmp_path, chains_file, capsys):
    out = tmp_path / "prep"
    code = run_cli(
        "prepare",
        "--chains", chains_file,
        "--out", out,
        "--seed", 5,
        "--per-label-test", 2,
    )
    assert code == 0
    for name in (
        "pairs.jsonl",
        "train.jsonl",
        "validation.jsonl",
        "test.jsonl",
        "validation_chains.jsonl",
        "counts.json",
        "manifest.json",
    ):
        assert (out / name).is_file(), name
    counts = json.loads((out / "counts.json").read_text())
    assert counts["chains"] == 30
    assert counts["after_filter"] <= counts["derived_pairs"]
    # the split drops the other pairs of test chains, so <=
    assert (
        counts["train"] + counts["validation"] + counts["test"]
        <= counts["after_filter"]
    )
    assert min(counts["train"], counts["validation"], counts["test"]) > 0
    assert json.loads(capsys.readouterr().out) == counts

    val_pairs = read_rows(out / "validation.jsonl")
    # chain ids follow the "chain#index" pair-id convention
    val_chain_ids = {r["pair_id"].rsplit("#", 1)[0] for r in val_pairs}
    emitted = {r["chain_id"] for r in read_rows(out / "validation_chains.jsonl")}
    assert emitted == val_chain_ids


def test_prepare_integer_chain_ids_keep_validation_chains(tmp_path, monkeypatch):
    monkeypatch.setattr(corpus, "TRAIN_FRACTION", 0.5)  # 2 of 4 chains in validation
    records = make_chain_records(4, seed=7)
    for chain_id, record in enumerate(records, start=1):
        record["chain_id"] = chain_id
    chains = tmp_path / "chains.jsonl"
    write_chain_records(chains, records)
    out = tmp_path / "prep"
    assert run_cli(
        "prepare", "--chains", chains, "--out", out,
        "--per-label-test", 0,
    ) == 0
    val_chain_ids = {r["pair_id"].rsplit("#", 1)[0] for r in read_rows(out / "validation.jsonl")}
    assert val_chain_ids
    expected = [r for r in records if str(r["chain_id"]) in val_chain_ids]
    assert read_rows(out / "validation_chains.jsonl") == expected


def test_prepare_is_deterministic(tmp_path, chains_file):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert run_cli(
            "prepare", "--chains", chains_file, "--out", out,
            "--seed", 5, "--per-label-test", 2,
        ) == 0
        outs.append(out)
    for name in ("counts.json", "pairs.jsonl", "train.jsonl", "test.jsonl"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_prepare_failing_part_way_keeps_the_old_validation_chains(
    tmp_path, chains_file, monkeypatch
):
    out = tmp_path / "prep"
    argv = ("prepare", "--chains", chains_file, "--out", out, "--seed", 5, "--per-label-test", 2)
    assert run_cli(*argv) == 0
    old = (out / "validation_chains.jsonl").read_bytes()
    assert old

    class FailingFile:
        """The file ``open_atomic`` opened, failing once its first line is written."""

        def __init__(self, fh):
            self.fh = fh

        def write(self, text):
            self.fh.write(text)
            raise OSError("disk gone")

    @contextlib.contextmanager
    def failing_open_atomic(path):
        with ndjson.open_atomic(path) as fh:
            yield FailingFile(fh)

    monkeypatch.setattr(cli, "open_atomic", failing_open_atomic)
    with pytest.raises(OSError, match="disk gone"):
        run_cli(*argv)
    assert (out / "validation_chains.jsonl").read_bytes() == old
    assert not list(out.glob("*.tmp"))


def test_prepare_missing_chains(tmp_path, capsys):
    code = run_cli("prepare", "--chains", tmp_path / "nope.jsonl", "--out", tmp_path / "o")
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")


# ---------------------------------------------------------------------------
# run


def test_run_emits_all_strategies(run_dir, pairs_file):
    rows = read_rows(run_dir / "selections.jsonl")
    strategies = {
        "unedited", "top1", "random", "max_fluency",
        "max_argument", "max_meaning", "autoscore", "pairwise_rank",
    }
    assert {r["strategy"] for r in rows} == strategies
    assert len(rows) == 12 * len(strategies)
    report = json.loads((run_dir / "report.json").read_text())
    assert set(report["reports"]) == strategies
    assert report["metadata"]["n_instances"] == 12
    assert report["metadata"]["n_errors"] == 0
    assert report["reports"]["unedited"]["no_edit_ratio"] == 1.0
    assert (run_dir / "ranker.json").is_file()
    assert (run_dir / "report.csv").read_text().count("\n") == len(strategies) + 1


def test_run_same_seed_is_byte_identical(tmp_path, pairs_file):
    weights = tmp_path / "weights.json"
    write_weights(weights)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert run_cli(
            "run", "--pairs", pairs_file, "--out", out, "--seed", 11,
            "--context", "both", "--weights", weights, "--train-pairs", pairs_file,
        ) == 0
        outs.append(out)
    for name in ("selections.jsonl", "report.json", "report.csv", "ranker.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def test_run_seed_changes_output(tmp_path, pairs_file):
    weights = tmp_path / "weights.json"
    write_weights(weights)
    texts = []
    for seed in (11, 12):
        out = tmp_path / f"s{seed}"
        assert run_cli(
            "run", "--pairs", pairs_file, "--out", out, "--seed", seed,
            "--strategies", "unedited,random", "--weights", weights,
        ) == 0
        rows = read_rows(out / "selections.jsonl")
        texts.append([r["chosen"] for r in rows if r["strategy"] == "random"])
    assert texts[0] != texts[1]


def test_run_resumes_from_checkpoint(tmp_path, pairs_file, run_dir):
    rows = read_rows(run_dir / "selections.jsonl")
    first_pair = rows[0]["pair_id"]
    second_pair = next(r["pair_id"] for r in rows if r["pair_id"] != first_pair)
    out = tmp_path / "resumed"
    out.mkdir()
    with open(out / "selections.jsonl", "w") as fh:
        for rec in rows:
            if rec["pair_id"] == first_pair:
                fh.write(json.dumps(rec, ensure_ascii=False) + "\n")
        # partial instance: must be discarded, not trusted
        partial = [r for r in rows if r["pair_id"] == second_pair][:3]
        for rec in partial:
            fh.write(json.dumps(rec, ensure_ascii=False) + "\n")
    assert _rerun_run_dir(tmp_path, pairs_file, out) == 0
    for name in ("selections.jsonl", "report.json", "report.csv"):
        assert (out / name).read_bytes() == (run_dir / name).read_bytes(), name


def test_run_resume_writes_each_instance_in_strategies_order(tmp_path, pairs_file, run_dir):
    # the checkpoint lists the first instance's rows last strategy first
    lines = (run_dir / "selections.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
    per_instance = len(Strategy)
    out = tmp_path / "reordered"
    out.mkdir()
    (out / "selections.jsonl").write_text(
        "".join(lines[per_instance - 1 :: -1] + lines[per_instance:]), encoding="utf-8"
    )
    assert _rerun_run_dir(tmp_path, pairs_file, out) == 0
    for name in ("selections.jsonl", "report.json", "report.csv"):
        assert (out / name).read_bytes() == (run_dir / name).read_bytes(), name


def _rerun_run_dir(tmp_path, pairs_file, out):
    """run_dir's recipe into ``out``, the weights path included, so the config hashes match."""
    return run_cli(
        "run", "--pairs", pairs_file, "--out", out, "--seed", 11,
        "--context", "both", "--n-candidates", 10,
        "--weights", tmp_path / "weights.json", "--train-pairs", pairs_file,
    )


@pytest.mark.parametrize("cut", [1, 0.3, 5000, 0.75, -2])
def test_run_resumes_after_a_torn_last_line(tmp_path, pairs_file, run_dir, cut):
    # a run killed while writing leaves a last row without its newline
    clean = (run_dir / "selections.jsonl").read_bytes()
    offset = int(cut * len(clean)) if isinstance(cut, float) else cut % len(clean)
    assert clean[offset - 1 : offset + 1].count(b"\n") == 0  # mid-line
    out = tmp_path / "torn"
    out.mkdir()
    (out / "selections.jsonl").write_bytes(clean[:offset])
    assert _rerun_run_dir(tmp_path, pairs_file, out) == 0
    for name in ("selections.jsonl", "report.json", "report.csv"):
        assert (out / name).read_bytes() == (run_dir / name).read_bytes(), name


def test_run_malformed_checkpoint_line_exits_two_naming_it(
    tmp_path, pairs_file, run_dir, capsys
):
    lines = (run_dir / "selections.jsonl").read_bytes().splitlines(keepends=True)
    lines[2] = lines[2][:40] + b"\n"
    out = tmp_path / "bad"
    out.mkdir()
    (out / "selections.jsonl").write_bytes(b"".join(lines))
    assert _rerun_run_dir(tmp_path, pairs_file, out) == 2
    assert "error: line 3: malformed JSON" in capsys.readouterr().err
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("bad_input", ["n_candidates", "checkpoint"])
def test_run_failing_an_input_check_leaves_ranker_json_alone(
    tmp_path, pairs_file, capsys, bad_input
):
    out = tmp_path / "o"
    out.mkdir()
    earlier = b'{"written by": "an earlier run"}\n'
    (out / "ranker.json").write_bytes(earlier)
    argv = ["run", "--pairs", pairs_file, "--train-pairs", pairs_file, "--out", out]
    if bad_input == "n_candidates":
        argv += ["--n-candidates", 0]
        named = "n_candidates: must be >= 1, got 0"
    else:
        record = json.dumps({"pair_id": "p", "strategy": "top1", "chosen": "x"})
        (out / "selections.jsonl").write_text(f"{record}\n{{bad\n{record}\n")
        named = "line 2: malformed JSON"
    assert run_cli(*argv) == 2
    assert f"error: {named}" in capsys.readouterr().err
    assert (out / "ranker.json").read_bytes() == earlier


def test_selection_record_schema(run_dir, pairs_file):
    rows = read_rows(run_dir / "selections.jsonl")
    sources = {p.pair_id: p.source for p in load_pairs(pairs_file)}
    ranker = load_ranker(run_dir / "ranker.json", HashingEmbedder())
    weights = Weights(WEIGHTS["alpha"], WEIGHTS["beta"], WEIGHTS["gamma"])
    # each pair's rows in --strategies order, pairs in file order
    assert [(r["pair_id"], r["strategy"]) for r in rows] == [
        (pair_id, strategy.value) for pair_id in sources for strategy in Strategy
    ]
    for record in rows:
        assert list(record) == ["pair_id", "strategy", "chosen", "edited", "scores"]
        texts = [score["text"] for score in record["scores"]]
        assert len(texts) == len(set(texts)) > 0
        source = sources[record["pair_id"]]
        if record["strategy"] == "unedited":
            assert record["chosen"] == source
        else:
            assert record["chosen"] in texts
        assert record["edited"] is (record["chosen"] != source)
        strategy = Strategy(record["strategy"])
        for score in record["scores"]:
            assert list(score) == ["text", "fluency", "meaning", "argument", "combined"]
            vector = ScoreVector(score["fluency"], score["meaning"], score["argument"])
            column = {
                "fluency": vector.fluency,
                "meaning": vector.meaning,
                "argument": vector.argument,
                "autoscore": autoscore(vector, weights),
                "ranker": ranker.score_text(score["text"]),
            }
            assert score["combined"] == column[COLUMNS.get(strategy, "autoscore")]


def test_edited_flag_tracks_text_equality():
    pair = make_synthetic_pairs(1, seed=3)[0]
    source = pair.source
    candidates = (Candidate(source, GREEDY), Candidate("changed text", TOPK(5)))
    scores = [ScoreVector(0.5, 0.5, 0.5), ScoreVector(0.9, 0.5, 0.5)]
    columns = score_columns(candidates, scores, DEFAULT_WEIGHTS)
    strategies = (Strategy.UNEDITED, Strategy.TOP1, Strategy.MAX_FLUENCY)
    picks = {strategy: select(strategy, candidates, columns) for strategy in strategies}
    records = cli._instance_records(pair, candidates, columns, picks)
    assert list(records) == ["unedited", "top1", "max_fluency"]
    # the greedy candidate repeats the source, so top1 counts as unedited
    assert [(r["chosen"], r["edited"]) for r in records.values()] == [
        (source, False), (source, False), ("changed text", True)
    ]


def test_run_missing_pairs_file(tmp_path, capsys):
    code = run_cli("run", "--pairs", tmp_path / "nope.jsonl", "--out", tmp_path / "o")
    assert code == 2
    assert "pairs file" in capsys.readouterr().err


@pytest.mark.parametrize(
    "blank, reason",
    [("--pairs", "no pairs file configured"), ("--out", "no output directory configured (--out)")],
    ids=["pairs", "out"],
)
def test_run_blank_path_exits_two(tmp_path, pairs_file, capsys, blank, reason):
    paths = {"--pairs": pairs_file, "--out": tmp_path / "o", blank: ""}
    assert run_cli("run", *(arg for item in paths.items() for arg in item)) == 2
    assert capsys.readouterr().err == f"error: {reason}\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("empty", ["pairs", "train_pairs"])
def test_run_without_usable_pairs_exits_two(tmp_path, pairs_file, capsys, empty):
    given = tmp_path / "given.jsonl"
    if empty == "pairs":
        given.write_text("")
        argv = ["--pairs", given]
        reason = f"no pairs in {given}"
    else:  # every training pair's reference repeats its source
        write_pairs(
            [dataclasses.replace(p, reference=p.source) for p in load_pairs(pairs_file)], given
        )
        argv = ["--pairs", pairs_file, "--train-pairs", given]
        reason = f"no usable ranker training pairs in {given}"
    out = tmp_path / "o"
    assert run_cli("run", *argv, "--out", out) == 2
    assert capsys.readouterr().err == f"error: {reason}\n"
    assert list(out.iterdir()) == []


def test_run_unknown_strategy(tmp_path, pairs_file, capsys):
    code = run_cli(
        "run", "--pairs", pairs_file, "--out", tmp_path / "o",
        "--strategies", "top1,bogus",
    )
    assert code == 2
    assert "bogus" in capsys.readouterr().err


def test_run_manifest_lists_only_a_ranker_this_run_saved(pairs_file, run_dir):
    assert "ranker.json" in json.loads((run_dir / "manifest.json").read_text())["artifacts"]
    # a second run into the same directory trains no ranker; the first one's file stays
    code = run_cli("run", "--pairs", pairs_file, "--out", run_dir, "--strategies", "top1")
    assert code == 0
    assert (run_dir / "ranker.json").is_file()
    assert "ranker.json" not in json.loads((run_dir / "manifest.json").read_text())["artifacts"]


def test_run_pairwise_needs_ranker_source(tmp_path, pairs_file, capsys):
    code = run_cli(
        "run", "--pairs", pairs_file, "--out", tmp_path / "o",
        "--strategies", "pairwise_rank",
    )
    assert code == 2
    assert "ranker" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, content, named",
    [
        (["run", "--pairs", "{bad}"], "5", "line 1"),
        (["stats", "--annotations", "{bad}"], "5", "line 1"),
        (["report", "--selections", "{bad}", "--pairs", "{pairs}"], "[1]", "line 1"),
        (["run", "--pairs", "{pairs}", "--weights", "{bad}"], "5", "bad.json"),
        (
            ["run", "--pairs", "{pairs}", "--strategies", "pairwise_rank", "--ranker", "{bad}"],
            "[]",
            "bad.json",
        ),
    ],
    ids=["run-pairs", "stats-annotations", "report-selections", "run-weights", "run-ranker"],
)
def test_non_object_input_exits_two(tmp_path, pairs_file, capsys, argv, content, named):
    bad = tmp_path / "bad.json"
    bad.write_text(content + "\n")
    argv = [arg.format(bad=bad, pairs=pairs_file) for arg in argv]
    assert run_cli(*argv, "--out", tmp_path / "o") == 2
    assert f"{named}: record must be a JSON object" in capsys.readouterr().err


GOOD_RECORDS = {
    "pairs": {
        "pair_id": "c#0", "source": "a claim", "reference": "A claim.", "intent": "links"
    },
    "chains": {
        "chain_id": "c",
        "debate_id": "d",
        "claims": [{"id": "x", "text": "one"}, {"id": "y", "text": "two"}],
        "intents": ["links"],
    },
    # plus a pair id of pairs_file
    "selections": {"strategy": "top1", "chosen": "x", "edited": True},
    "annotations": {"item": "a", "worker": "w", "field": "fluency", "value": 2},
}


@pytest.mark.parametrize(
    "command, kind, change, reason",
    [
        ("run", "pairs", {"source": 5}, "'source' must be a string, got 5"),
        ("run", "pairs", {"source": " "}, "source must be non-empty"),
        ("run", "pairs", {"topic": 5}, "topic and previous_claim must be strings or null"),
        ("run", "pairs", {"topic": 0}, "topic and previous_claim must be strings or null"),
        ("run", "pairs", {"topic": False}, "topic and previous_claim must be strings or null"),
        (
            "run", "pairs", {"previous_claim": []},
            "topic and previous_claim must be strings or null",
        ),
        ("prepare", "chains", {"topic": {}}, "topic and previous_claim must be strings or null"),
        ("run", "pairs", {"pair_id": None}, "'pair_id' must be a string or an integer, got None"),
        (
            "run", "pairs", {"pair_id": {"x": 1}},
            "'pair_id' must be a string or an integer, got {'x': 1}",
        ),
        ("prepare", "chains", {"intents": 5}, "claims and intents must be lists"),
        ("prepare", "chains", {"intents": "ab"}, "claims and intents must be lists"),
        (
            "prepare", "chains",
            {"claims": [{"id": "x", "text": None}, {"id": "y", "text": "two"}]},
            "claim 'text' must be a string, got None",
        ),
        (
            "prepare", "chains",
            {"claims": [{"id": "x", "text": "one"}, {"id": "y", "text": 5}]},
            "claim 'text' must be a string, got 5",
        ),
        (
            "prepare", "chains",
            {"claims": [{"id": None, "text": "one"}, {"id": "y", "text": "two"}]},
            "claim 'id' must be a string or an integer, got None",
        ),
        (
            "prepare", "chains",
            {"claims": [{"id": "x", "text": "one"}, {"id": [1], "text": "two"}]},
            "claim 'id' must be a string or an integer, got [1]",
        ),
        ("prepare", "chains", {"claims": []}, "chain 'c' has no claims"),
        (
            "prepare", "chains", {"claims": [{"id": "x"}, {"id": "y", "text": "two"}]},
            "each claim needs 'id' and 'text'",
        ),
        (
            "prepare", "chains", {"debate_id": None},
            "'debate_id' must be a string or an integer, got None",
        ),
        (
            "prepare", "chains", {"chain_id": True},
            "'chain_id' must be a string or an integer, got True",
        ),
        (
            "prepare", "chains", {"chain_id": 1.0},
            "'chain_id' must be a string or an integer, got 1.0",
        ),
        ("report", "selections", {"chosen": 5}, "'chosen' must be a string, got 5"),
        ("report", "selections", {"chosen": ""}, "'chosen' must not be blank"),
        ("stats", "annotations", {"value": True}, "fluency value True outside [1, 3]"),
        (
            "stats", "annotations", {"item": None},
            "'item' must be a string or an integer, got None",
        ),
        (
            "stats", "annotations", {"worker": True},
            "'worker' must be a string or an integer, got True",
        ),
        (
            "stats", "annotations", {"worker": 1.5, "ranking": ["x", "y"]},
            "'worker' must be a string or an integer, got 1.5",
        ),
        (
            "stats", "annotations", {"ranking": ["x", "x"]},
            "ranking ('x', 'x') is not a permutation",
        ),
        (
            "stats", "annotations", {"ranking": [None, 1]},
            "ranking entry None is not a strategy name",
        ),
        (
            "stats", "annotations", {"ranking": ["x", 1]},
            "ranking entry 1 is not a strategy name",
        ),
        (
            "stats", "annotations", {"ranking": ["x", " "]},
            "ranking entry ' ' is not a strategy name",
        ),
    ],
    ids=[
        "pair-source-number", "pair-source-blank", "pair-topic-number", "pair-topic-zero",
        "pair-topic-false", "pair-previous-list", "chain-topic-object", "pair-id-null",
        "pair-id-object", "chain-intents-number",
        "chain-intents-string", "chain-claim-text-null", "chain-claim-text-number",
        "chain-claim-id-null", "chain-claim-id-list", "chain-claims-empty", "chain-claim-no-text",
        "chain-debate-id-null", "chain-id-bool",
        "chain-id-float",
        "selection-chosen-number", "selection-chosen-blank",
        "likert-value-bool", "likert-item-null", "likert-worker-bool", "ranking-worker-float",
        "ranking-repeated", "ranking-entry-null", "ranking-entry-number", "ranking-entry-blank",
    ],
)
def test_bad_field_exits_two_naming_the_line(
    tmp_path, pairs_file, capsys, command, kind, change, reason
):
    record = dict(GOOD_RECORDS[kind], **change)
    if kind == "selections":
        record["pair_id"] = read_rows(pairs_file)[0]["pair_id"]
    bad = tmp_path / f"{kind}.jsonl"
    bad.write_text(json.dumps(record) + "\n")
    argv = [command, f"--{kind}", bad, "--out", tmp_path / "o"]
    if kind == "selections":
        argv += ["--pairs", pairs_file]
    assert run_cli(*argv) == 2
    assert f"error: line 1: {reason}" in capsys.readouterr().err


@pytest.mark.parametrize("n_good", [1, 2000], ids=["first-chunk", "far-in"])
@pytest.mark.parametrize(
    "command, kind", [("run", "pairs"), ("prepare", "chains"), ("stats", "annotations")]
)
def test_non_utf8_byte_exits_two_naming_the_line(tmp_path, capsys, command, kind, n_good):
    # good lines with distinct ids (CRLF-ended, then a blank one), then a
    # 0xff byte inside a string value
    ids = {
        "pairs": lambda i: {"pair_id": f"c#{i}"},
        "chains": lambda i: {
            "chain_id": f"c{i}",
            "claims": [{"id": f"x{i}", "text": "one"}, {"id": f"y{i}", "text": "two"}],
        },
        "annotations": lambda i: {"item": f"a{i}"},
    }[kind]
    good = [json.dumps(dict(GOOD_RECORDS[kind], **ids(i))) for i in range(n_good)]
    bad = tmp_path / f"{kind}.jsonl"
    bad.write_bytes(("\r\n".join(good) + "\r\n\r\n").encode() + b'{"x": "\xff"}\n')
    assert run_cli(command, f"--{kind}", bad, "--out", tmp_path / "o") == 2
    assert capsys.readouterr().err == (
        f"error: line {n_good + 2}: byte 0xff is not UTF-8 (invalid start byte)\n"
    )
    assert not any(tmp_path.glob("o/*"))


def test_non_utf8_config_and_json_name_the_file(tmp_path, pairs_file, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"seed = 1\n\n# caf\xe9 au lait\n")
    assert run_cli("run", "--config", cfg, "--pairs", pairs_file, "--out", tmp_path / "o") == 2
    assert capsys.readouterr().err == (
        f"error: {cfg}:3: byte 0xe9 is not UTF-8 (invalid continuation byte)\n"
    )
    weights = tmp_path / "weights.json"
    weights.write_bytes(json.dumps(WEIGHTS).encode()[:-1] + b', "note": "\xff"}')
    code = run_cli("run", "--pairs", pairs_file, "--weights", weights, "--out", tmp_path / "o")
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {weights}: ") and "byte 0xff" in err


def test_blank_topic_counts_as_absent(tmp_path):
    pairs = tmp_path / "pairs.jsonl"
    pairs.write_text(json.dumps(dict(GOOD_RECORDS["pairs"], topic="  ")) + "\n")
    out = tmp_path / "o"
    assert run_cli("run", "--pairs", pairs, "--out", out, "--strategies", "unedited") == 0
    assert json.loads((out / "report.json").read_text())["reports"]["unedited"]["sim_topic"] is None
    out = tmp_path / "topic"
    argv = ["--strategies", "unedited", "--context", "topic"]
    assert run_cli("run", "--pairs", pairs, "--out", out, *argv) == 1
    assert read_rows(out / "errors.jsonl") == [
        {
            "pair_id": "c#0", "stage": "A", "type": "MissingContextError",
            "error": "pair c#0: no topic in context",
        }
    ]


@pytest.mark.parametrize("command", ["run", "report"])
def test_duplicate_pair_id_exits_two(tmp_path, capsys, command):
    pairs = tmp_path / "pairs.jsonl"
    record = dict(GOOD_RECORDS["pairs"], pair_id="p")
    pairs.write_text(json.dumps(record) + "\n" + json.dumps(dict(record, source="b claim")) + "\n")
    argv = [command, "--pairs", pairs, "--out", tmp_path / "o"]
    if command == "report":
        sel = tmp_path / "selections.jsonl"
        sel.write_text(json.dumps({"pair_id": "p", "strategy": "top1", "chosen": "x"}) + "\n")
        argv += ["--selections", sel]
    assert run_cli(*argv) == 2
    assert "error: line 2: duplicate pair_id 'p'" in capsys.readouterr().err


def test_stats_non_list_ranking_exits_two(tmp_path, capsys):
    bad = tmp_path / "annotations.jsonl"
    bad.write_text('{"item": "a", "worker": "w", "ranking": 5}\n')
    assert run_cli("stats", "--annotations", bad, "--out", tmp_path / "o") == 2
    assert "error: line 1: ranking must be a list" in capsys.readouterr().err


def _run_with_ranker(tmp_path, pairs_file, payload) -> int:
    ranker = tmp_path / "ranker.json"
    ranker.write_text(json.dumps(payload))
    return run_cli(
        "run", "--pairs", pairs_file, "--out", tmp_path / "o",
        "--strategies", "pairwise_rank", "--ranker", ranker,
    )


@pytest.mark.parametrize("missing", ["weight_vector"])  # a missing 'embedder': below
def test_run_ranker_missing_key_exits_two(tmp_path, pairs_file, capsys, missing):
    payload = {"weight_vector": [0.0] * 256, "embedder": EMBEDDER}
    del payload[missing]
    assert _run_with_ranker(tmp_path, pairs_file, payload) == 2
    assert f"ranker.json: missing key '{missing}'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field, value",
    [
        ("embedder", 5),
        ("training_meta", 5),
        ("weight_vector", {"a": 1}),
        ("weight_vector", [{}] + [0.0] * 255),
        ("weight_vector", [float("nan")] + [0.0] * 255),
    ],
)
def test_run_ranker_bad_field_exits_two(tmp_path, pairs_file, capsys, field, value):
    payload = {"weight_vector": [0.0] * 256, "embedder": EMBEDDER, field: value}
    assert _run_with_ranker(tmp_path, pairs_file, payload) == 2
    assert f"ranker.json: '{field}' must be" in capsys.readouterr().err


@pytest.mark.parametrize(
    "change",
    [
        {"dim": 4},
        {"seed": 1},
        {"dim": 256.0},
        {"seed": False},
        {"kind": "other"},
        {"normalize": True},
        None,
    ],
    ids=["dim-4", "seed-1", "dim-float", "seed-false", "kind-other", "extra-key", "missing"],
)
def test_run_ranker_other_embedder_exits_two(tmp_path, pairs_file, capsys, change):
    payload = {"weight_vector": [0.0] * 256}
    if change is not None:
        payload["embedder"] = {**EMBEDDER, **change}
    assert _run_with_ranker(tmp_path, pairs_file, payload) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "ranker.json: " in err and "'embedder'" in err


@pytest.mark.parametrize("value", ["a", None, True, float("nan"), float("inf")])
def test_run_weights_non_number_exits_two(tmp_path, pairs_file, capsys, value):
    weights = tmp_path / "weights.json"
    weights.write_text(json.dumps(dict(WEIGHTS, beta=value)))
    code = run_cli("run", "--pairs", pairs_file, "--out", tmp_path / "o", "--weights", weights)
    assert code == 2
    assert "weights.json: 'beta' must be a number" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, key, value",
    [
        ("run", "context", "full"),
        ("run", "bleu_mode", "pooled"),
        ("run", "sari_variant", "f1"),
        ("run", "generator", "foo"),
        ("report", "bleu_mode", "pooled"),
        ("report", "sari_variant", "f1"),
    ],
)
def test_bad_config_value_exits_two_before_any_output(
    tmp_path, pairs_file, chains_file, capsys, command, key, value
):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"{key} = {value}\n")
    out = tmp_path / "o"
    inputs = _command_inputs(tmp_path, pairs_file, chains_file)[command]
    assert run_cli(command, "--config", cfg, *inputs, "--out", out) == 2
    assert f"unknown {key} {value!r}" in capsys.readouterr().err
    assert not (out / "selections.jsonl").exists()
    assert not (out / "report.json").exists()


def _stdio_generator_script(tmp_path):
    """NDJSON generator that refuses any input containing BROKEN."""
    script = tmp_path / "gen.py"
    script.write_text(
        "import json, sys\n"
        "for line in sys.stdin:\n"
        "    req = json.loads(line)\n"
        "    if 'BROKEN' in req['input']:\n"
        "        print(json.dumps({'error': 'refused'}))\n"
        "    else:\n"
        "        text = req['input'] + ' (' + req['directive'] + ')'\n"
        "        print(json.dumps({'text': text}))\n"
        "    sys.stdout.flush()\n"
    )
    return f"stdio:{sys.executable} {script}"


def test_run_instance_failure_exits_one(tmp_path, pairs_file, capsys):
    pairs = make_synthetic_pairs(4, seed=3)
    broken = dataclasses.replace(pairs[2], source="BROKEN claim here")
    pairs[2] = broken
    pairs_path = tmp_path / "pairs.jsonl"
    write_pairs(pairs, pairs_path)
    out = tmp_path / "o"
    code = run_cli(
        "run", "--pairs", pairs_path, "--out", out, "--seed", 1,
        "--strategies", "unedited,top1",
        *adapters_config(tmp_path, generator=_stdio_generator_script(tmp_path)),
    )
    assert code == 1
    assert "errors.jsonl" in capsys.readouterr().err
    errors = read_rows(out / "errors.jsonl")
    assert [e["pair_id"] for e in errors] == [broken.pair_id]
    rows = read_rows(out / "selections.jsonl")
    assert broken.pair_id not in {r["pair_id"] for r in rows}
    assert len(rows) == 3 * 2
    report = json.loads((out / "report.json").read_text())
    assert report["metadata"]["n_instances"] == 3
    assert report["metadata"]["n_errors"] == 1


def test_clean_rerun_removes_stale_errors(tmp_path):
    pairs = make_synthetic_pairs(4, seed=3)
    pairs[2] = dataclasses.replace(pairs[2], source="BROKEN claim here")
    pairs_path = tmp_path / "pairs.jsonl"
    write_pairs(pairs, pairs_path)
    out = tmp_path / "o"
    argv = ("run", "--pairs", pairs_path, "--out", out, "--seed", 1, "--strategies", "unedited,top1")
    stdio = adapters_config(tmp_path, generator=_stdio_generator_script(tmp_path))
    assert run_cli(*argv, *stdio) == 1
    assert (out / "errors.jsonl").is_file()
    # the mock generator completes the failed instance on resume
    assert run_cli(*argv) == 0
    assert not (out / "errors.jsonl").exists()
    report = json.loads((out / "report.json").read_text())
    assert report["metadata"]["n_errors"] == 0
    assert report["metadata"]["n_instances"] == 4


def test_run_with_no_finished_instance_removes_stale_reports(tmp_path):
    pairs = make_synthetic_pairs(3, seed=3)
    first, second = tmp_path / "first.jsonl", tmp_path / "second.jsonl"
    write_pairs(pairs, first)
    write_pairs([dataclasses.replace(p, pair_id=f"other-{p.pair_id}") for p in pairs], second)
    out = tmp_path / "o"
    argv = ("--out", out, "--seed", 1, "--strategies", "unedited,top1", "--n-candidates", 2)
    assert run_cli("run", "--pairs", first, *argv) == 0
    assert (out / "report.json").is_file() and (out / "report.csv").is_file()
    # a child that exits at once fails every generation step
    stdio = adapters_config(tmp_path, generator=f"stdio:{sys.executable} -c pass")
    assert run_cli("run", "--pairs", second, *argv, *stdio) == 1
    assert len(read_rows(out / "errors.jsonl")) == 3
    assert (out / "selections.jsonl").read_text() == ""
    assert not (out / "report.json").exists()
    assert not (out / "report.csv").exists()


def test_run_manifest_lists_errors_jsonl(tmp_path):
    pairs_path = tmp_path / "pairs.jsonl"
    write_pairs(make_synthetic_pairs(2, seed=3), pairs_path)
    out = tmp_path / "o"
    # a child that exits at once fails every generation step
    stdio = adapters_config(tmp_path, generator=f"stdio:{sys.executable} -c pass")
    argv = ("--pairs", pairs_path, "--out", out, "--strategies", "top1", "--n-candidates", 1)
    assert run_cli("run", *argv, *stdio) == 1
    artifacts = json.loads((out / "manifest.json").read_text())["artifacts"]
    assert sorted(artifacts) == ["errors.jsonl", "selections.jsonl"]
    assert artifacts["errors.jsonl"]["sha256"] == cli._sha256_file(out / "errors.jsonl")


def test_run_manifest_lists_a_trained_ranker_when_every_instance_fails(tmp_path, pairs_file):
    script = tmp_path / "refuse.py"
    script.write_text(
        "import json, sys\n"
        "for line in sys.stdin:\n"
        "    print(json.dumps({'error': 'refused'}), flush=True)\n"
    )
    out = tmp_path / "o"
    argv = ("--pairs", pairs_file, "--train-pairs", pairs_file, "--out", out, "--strategies",
            "pairwise_rank", "--n-candidates", 1)
    stdio = adapters_config(tmp_path, generator=f"stdio:{sys.executable} {script}")
    assert run_cli("run", *argv, *stdio) == 1
    assert not (out / "report.json").exists()
    artifacts = json.loads((out / "manifest.json").read_text())["artifacts"]
    assert sorted(artifacts) == ["errors.jsonl", "ranker.json", "selections.jsonl"]
    assert artifacts["ranker.json"]["sha256"] == cli._sha256_file(out / "ranker.json")


def test_run_stores_stdio_meaning_score_as_answered(tmp_path, capsys):
    """A stdio scorer answers in [0, 1]: 0.4 is stored as 0.4, -0.2 fails its instance."""
    script = tmp_path / "meaning.py"
    script.write_text(
        "import json, sys\n"
        "for line in sys.stdin:\n"
        "    req = json.loads(line)\n"
        "    score = -0.2 if 'OFFSCALE' in req['source'] else 0.4\n"
        "    print(json.dumps({'score': score}), flush=True)\n"
    )
    pairs = make_synthetic_pairs(3, seed=3)
    pairs[1] = dataclasses.replace(pairs[1], source="OFFSCALE claim here")
    pairs_path = tmp_path / "pairs.jsonl"
    write_pairs(pairs, pairs_path)
    out = tmp_path / "o"
    code = run_cli(
        "run", "--pairs", pairs_path, "--out", out, "--strategies", "top1,max_meaning",
        *adapters_config(tmp_path, meaning_scorer=f"stdio:{sys.executable} {script}"),
    )
    assert code == 1
    assert "errors.jsonl" in capsys.readouterr().err
    errors = read_rows(out / "errors.jsonl")
    assert [e["pair_id"] for e in errors] == [pairs[1].pair_id]
    assert errors[0] == {
        "pair_id": pairs[1].pair_id, "stage": "A", "type": "ScorerError",
        "error": "meaning scorer returned -0.2, outside [0, 1]",
    }
    rows = read_rows(out / "selections.jsonl")
    assert len(rows) == 2 * 2
    assert all(s["meaning"] == 0.4 for r in rows for s in r["scores"])
    max_meaning = [s for r in rows if r["strategy"] == "max_meaning" for s in r["scores"]]
    assert max_meaning and all(s["combined"] == 0.4 for s in max_meaning)


def test_run_config_generator_is_used(tmp_path, pairs_file):
    out = tmp_path / "o"
    assert run_cli(
        "run", "--pairs", pairs_file, "--out", out, "--seed", 1,
        "--strategies", "unedited,top1",
        *adapters_config(tmp_path, generator=_stdio_generator_script(tmp_path)),
    ) == 0
    top1 = [r for r in read_rows(out / "selections.jsonl") if r["strategy"] == "top1"]
    assert all(r["chosen"].endswith("(greedy)") for r in top1)


def test_adapter_environment_variables_change_nothing(tmp_path, pairs_file, monkeypatch):
    """Adapters are named by config keys only, so a run's recipe is its
    config: an old adapter variable in the environment is not read."""
    argv = ("run", "--pairs", pairs_file, "--seed", 1, "--strategies", "unedited,top1")
    assert run_cli(*argv, "--out", tmp_path / "plain") == 0
    monkeypatch.setenv("CLAIMPOLISH_GENERATOR_CMD", "stdio:/nonexistent")
    assert run_cli(*argv, "--out", tmp_path / "env") == 0
    selections = [(tmp_path / d / "selections.jsonl").read_bytes() for d in ("plain", "env")]
    assert selections[0] == selections[1]


@pytest.mark.parametrize(
    "spec, problem",
    [("stdio:no-such-claimpolish-program --x", "program 'no-such-claimpolish-program' not found"),
     ("stdio:", "no command after 'stdio:'"),
     ("stdio:python3 'unclosed", "No closing quotation")],
    ids=["missing", "empty", "unsplittable"],
)
@pytest.mark.parametrize(
    "command, key",
    [("run", "generator"), ("run", "argument_scorer"), ("calibrate", "fluency_scorer")],
)
def test_unusable_adapter_program_exits_two_before_any_instance(
    tmp_path, pairs_file, chains_file, capsys, command, key, spec, problem
):
    out = tmp_path / "o"
    out.mkdir()
    kept = {name: f"earlier {name}\n" for name in ("ranker.json", "selections.jsonl")}
    for name, text in kept.items():
        (out / name).write_text(text)
    argv = [command, "--out", out, *adapters_config(tmp_path, **{key: spec})]
    if command == "run":
        argv += ["--pairs", pairs_file, "--train-pairs", pairs_file]
    else:
        argv += ["--chains", chains_file]
    assert run_cli(*argv) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {key}: {problem}"]
    assert sorted(p.name for p in out.iterdir()) == sorted(kept)
    assert all((out / name).read_text() == text for name, text in kept.items())


def test_run_skips_blank_generator_text(tmp_path):
    """Blank top-k answers are failed steps; an all-blank instance is an instance error."""
    script = tmp_path / "blank_gen.py"
    script.write_text(
        "import json, sys\n"
        "for line in sys.stdin:\n"
        "    req = json.loads(line)\n"
        "    blank = req['directive'] != 'greedy' or 'BLANK' in req['input']\n"
        "    print(json.dumps({'text': '' if blank else req['input'] + '.'}), flush=True)\n"
    )
    pairs = make_synthetic_pairs(4, seed=3)
    pairs[1] = dataclasses.replace(pairs[1], source="BLANK claim here")
    pairs_path = tmp_path / "pairs.jsonl"
    write_pairs(pairs, pairs_path)
    out = tmp_path / "o"
    code = run_cli(
        "run", "--pairs", pairs_path, "--out", out, "--seed", 0,
        "--strategies", "random,top1", "--n-candidates", 3,
        *adapters_config(tmp_path, generator=f"stdio:{sys.executable} {script}"),
    )
    assert code == 1
    assert [e["pair_id"] for e in read_rows(out / "errors.jsonl")] == [pairs[1].pair_id]
    rows = read_rows(out / "selections.jsonl")
    assert len(rows) == 3 * 2
    assert all(r["chosen"].endswith(".") and len(r["scores"]) == 1 for r in rows)
    assert json.loads((out / "report.json").read_text())["metadata"]["n_instances"] == 3
    assert (out / "manifest.json").is_file()


@pytest.fixture()
def recording_adapters(tmp_path, monkeypatch):
    """Stdio generator and fluency scorer that remember each instance and
    close: ``(instances, --config flags naming both)``."""
    opened = []

    class Recording:
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.closes = 0
            opened.append(self)

        def close(self):
            self.closes += 1
            super().close()

    class RecordingGenerator(Recording, cli.StdioGenerator):
        pass

    class RecordingScorer(Recording, cli.StdioScorer):
        pass

    script = tmp_path / "fluency.py"
    script.write_text(
        "import json, sys\n"
        "for line in sys.stdin:\n"
        "    print(json.dumps({'score': 1.0}), flush=True)\n"
    )
    monkeypatch.setattr(cli, "StdioGenerator", RecordingGenerator)
    monkeypatch.setattr(cli, "StdioScorer", RecordingScorer)
    return opened, adapters_config(
        tmp_path,
        generator=_stdio_generator_script(tmp_path),
        fluency_scorer=f"stdio:{sys.executable} {script}",
    )


@pytest.mark.parametrize("broken, expected_code", [(False, 0), (True, 1)])
def test_run_closes_stdio_adapters(tmp_path, recording_adapters, broken, expected_code):
    pairs = make_synthetic_pairs(3, seed=3)
    if broken:
        pairs[1] = dataclasses.replace(pairs[1], source="BROKEN claim")
    pairs_path = tmp_path / "pairs.jsonl"
    write_pairs(pairs, pairs_path)
    opened, stdio = recording_adapters
    code = run_cli(
        "run", "--pairs", pairs_path, "--out", tmp_path / "o", "--strategies", "top1", *stdio
    )
    assert code == expected_code
    assert [type(a).__name__ for a in opened] == ["RecordingGenerator", "RecordingScorer"]
    assert all(a.closes == 1 and a._proc is None for a in opened)


def test_run_survives_a_generator_that_ignores_eof(tmp_path, monkeypatch, caplog):
    script = tmp_path / "stuck_gen.py"
    script.write_text(
        "import json, sys, time\n"
        "for line in sys.stdin:\n"
        "    print(json.dumps({'text': json.loads(line)['input'] + ' ok'}), flush=True)\n"
        "time.sleep(60)\n"
    )
    monkeypatch.setattr(ndjson, "_CLOSE_GRACE_S", 0.2)
    pairs_path = tmp_path / "pairs.jsonl"
    write_pairs(make_synthetic_pairs(2, seed=3), pairs_path)
    out = tmp_path / "o"
    stdio = adapters_config(tmp_path, generator=f"stdio:{sys.executable} {script}")
    with caplog.at_level(logging.WARNING, logger="claimpolish.ndjson"):
        code = run_cli("run", "--pairs", pairs_path, "--out", out, "--strategies", "top1", *stdio)
    assert code == 0
    for name in ("report.json", "report.csv", "manifest.json"):
        assert (out / name).is_file(), name
    assert "generator process still running" in caplog.text


def test_closing_adapters_closes_every_adapter_when_one_fails():
    closed = []

    class Adapter:
        def __init__(self, name, fails=False):
            self.name, self.fails = name, fails

        def close(self):
            closed.append(self.name)
            if self.fails:
                raise OSError(f"{self.name} did not close")

    registry = cli.ScorerRegistry(
        fluency=Adapter("fluency", fails=True), meaning=object(), argument=Adapter("argument")
    )
    with pytest.raises(OSError, match="fluency did not close"):
        with cli._closing_adapters(registry, Adapter("generator", fails=True)):
            pass
    assert closed == ["generator", "fluency", "argument"]


# ---------------------------------------------------------------------------
# calibrate


def test_calibrate_artifacts(tmp_path, chains_file, capsys, calibration_grid):
    calibration_grid(0.1, 0.0, 1.0)
    out = tmp_path / "cal"
    code = run_cli("calibrate", "--chains", chains_file, "--out", out, "--seed", 2)
    assert code == 0
    weights = json.loads((out / "weights.json").read_text())
    assert set(weights) == {"alpha", "beta", "gamma", "pearson_r", "grid_step"}
    assert weights["alpha"] + weights["beta"] + weights["gamma"] == pytest.approx(1.0)
    assert weights["grid_step"] == 0.1
    assert sorted(path.name for path in out.iterdir()) == ["manifest.json", "weights.json"]
    summary = capsys.readouterr().out
    assert "r=" in summary and "grid=66" in summary


def test_calibrate_closes_stdio_scorer(tmp_path, chains_file, recording_adapters):
    opened, stdio = recording_adapters
    assert run_cli("calibrate", "--chains", chains_file, "--out", tmp_path / "cal", *stdio) == 0
    [scorer] = opened
    assert scorer.closes == 1 and scorer._proc is None


def test_calibrate_scorer_error_exits_one_naming_the_chain(tmp_path, capsys):
    """An off-scale stdio scorer ends calibrate with one error line and no weights."""
    script = tmp_path / "meaning.py"
    script.write_text(
        "import json, sys\n"
        "for line in sys.stdin:\n"
        "    req = json.loads(line)\n"
        "    score = -0.2 if 'OFFSCALE' in req['candidate'] else 0.4\n"
        "    print(json.dumps({'score': score}), flush=True)\n"
    )
    records = make_chain_records(4, seed=7)
    records[2]["claims"][1]["text"] = "OFFSCALE claim here."
    chains = tmp_path / "chains.jsonl"
    write_chain_records(chains, records)
    out = tmp_path / "cal"
    stdio = adapters_config(tmp_path, meaning_scorer=f"stdio:{sys.executable} {script}")
    assert run_cli("calibrate", "--chains", chains, "--out", out, *stdio) == 1
    chain_id = records[2]["chain_id"]
    assert capsys.readouterr().err.splitlines() == [
        f"error: chain {chain_id!r}: meaning scorer returned -0.2, outside [0, 1]"
    ]
    assert not any(out.glob("*.json"))


def test_calibrate_bad_grid(tmp_path, chains_file, capsys):
    """The grid is ``scoring``'s constants: a grid flag is an argparse error."""
    out = tmp_path / "o"
    for flag, value in (("--grid-step", 0.5), ("--grid-step", 1e-320), ("--range-hi", 1)):
        with pytest.raises(SystemExit) as exc:
            run_cli("calibrate", "--chains", chains_file, "--out", out, flag, value)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} {value}\n" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# stats


def _write_annotations(path, n_items=8):
    strategies = ["top1", "autoscore", "random"]
    records = []
    for i in range(n_items):
        for strategy in strategies:
            item = f"p{i:02d}::{strategy}"
            for w, worker in enumerate(("w1", "w2", "w3")):
                value = 1 + (i + w) % 3
                records.append(
                    {"item": item, "worker": worker, "field": "fluency", "value": value}
                )
                records.append(
                    {"item": item, "worker": worker, "field": "meaning", "value": 1 + (i * w) % 5}
                )
        for worker in ("w1", "w2"):
            # autoscore first except every fourth item
            ranking = ["autoscore", "top1", "random"]
            if i % 4 == 0:
                ranking = ["top1", "autoscore", "random"]
            records.append({"item": f"p{i:02d}", "worker": worker, "ranking": ranking})
    path.write_text("\n".join(json.dumps(r) for r in records) + "\n")


def test_stats_full_report(tmp_path, mace_schedule):
    mace_schedule(10, 2)
    ann = tmp_path / "ann.jsonl"
    _write_annotations(ann)
    out = tmp_path / "stats"
    code = run_cli(
        "stats", "--annotations", ann, "--out", out, "--seed", 3,
        "--strategy-pairs", "autoscore:top1",
    )
    assert code == 0
    report = json.loads((out / "stats_report.json").read_text())
    assert set(report["fields"]) == {"fluency", "meaning"}
    fluency = report["fields"]["fluency"]
    assert -1.0 <= fluency["krippendorff_alpha_ordinal"] <= 1.0
    assert 0.0 <= fluency["percent_agreement"] <= 1.0
    assert set(fluency["mace"]["per_strategy_mean"]) == {"top1", "autoscore", "random"}
    assert 0.0 <= fluency["mace"]["competent_fraction"] <= 1.0
    ranks = report["ranks"]
    assert ranks["mean_rank"]["autoscore"] < ranks["mean_rank"]["top1"]
    test = ranks["wilcoxon"]["autoscore_vs_top1"]
    assert test["n_items"] == 8
    assert 0.0 <= test["p_value"] <= 1.0
    assert report["inputs"]["annotations_sha256"]


def test_stats_fields_do_not_depend_on_the_line_order(tmp_path, mace_schedule):
    # units of 1 to 7 labels add different weights to a coincidence cell
    rng = random.Random(5)
    records = [
        {"item": f"p{i:02d}", "worker": f"w{w}", "field": fld, "value": rng.randint(1, hi)}
        for i in range(60)
        for w in range(1 + i % 7)
        for fld, hi in (("fluency", 3), ("meaning", 5))
    ]
    mace_schedule(5, 2)
    fields = []
    for name, order in (("forwards", records), ("reversed", records[::-1])):
        ann = tmp_path / f"{name}.jsonl"
        ann.write_text("".join(json.dumps(r) + "\n" for r in order))
        out = tmp_path / name
        assert run_cli("stats", "--annotations", ann, "--out", out) == 0
        fields.append(json.loads((out / "stats_report.json").read_text())["fields"])
    assert fields[0] == fields[1]


def test_stats_bad_strategy_pair(tmp_path, capsys):
    ann = tmp_path / "ann.jsonl"
    _write_annotations(ann)
    code = run_cli(
        "stats", "--annotations", ann, "--out", tmp_path / "o", "--strategy-pairs", "autoscore",
    )
    assert code == 2
    assert "A:B" in capsys.readouterr().err


def test_stats_strips_the_names_around_the_colon(tmp_path, mace_schedule):
    mace_schedule(10, 2)
    ann = tmp_path / "ann.jsonl"
    _write_annotations(ann)
    reports = []
    for i, spec in enumerate(("autoscore:top1", "autoscore: top1", " autoscore :top1 ")):
        out = tmp_path / f"o{i}"
        assert run_cli(
            "stats", "--annotations", ann, "--out", out, "--strategy-pairs", spec,
        ) == 0
        reports.append((out / "stats_report.json").read_bytes())
    assert reports[1] == reports[2] == reports[0]
    assert b"autoscore_vs_top1" in reports[0]


def test_stats_strategy_in_no_ranking_exits_two_before_any_fit(tmp_path, capsys, monkeypatch):
    def no_fit(*args, **kwargs):
        raise AssertionError("a MACE fit ran")

    monkeypatch.setattr(cli, "mace_aggregate", no_fit)
    ann = tmp_path / "ann.jsonl"
    _write_annotations(ann)
    out = tmp_path / "o"
    code = run_cli(
        "stats", "--annotations", ann, "--out", out, "--strategy-pairs", "autoscore:autoscroe",
    )
    assert code == 2
    assert "error: strategy 'autoscroe' is in no ranking" in capsys.readouterr().err
    assert not (out / "stats_report.json").exists()


# "all": the file holds no ranking at all; "ranks": it holds rankings, none naming 'bogus'.
@pytest.mark.parametrize(
    "drop_rankings", [pytest.param(True, id="all"), pytest.param(False, id="ranks")]
)
def test_stats_strategy_pairs_without_any_ranking_exit_two(tmp_path, capsys, drop_rankings):
    ann = tmp_path / "ann.jsonl"
    _write_annotations(ann)
    if drop_rankings:
        lines = ann.read_text().splitlines(keepends=True)
        ann.write_text("".join(line for line in lines if '"ranking"' not in line))
    out = tmp_path / "o"
    code = run_cli(
        "stats", "--annotations", ann, "--out", out, "--strategy-pairs", "bogus:top1",
    )
    assert code == 2
    assert "error: strategy 'bogus' is in no ranking" in capsys.readouterr().err
    assert not (out / "stats_report.json").exists()


@pytest.mark.parametrize("text", ["", "\n  \n"], ids=["empty", "blank-lines"])
def test_stats_on_no_annotations_exits_two_naming_the_file(tmp_path, capsys, text):
    ann = tmp_path / "ann.jsonl"
    ann.write_text(text)
    out = tmp_path / "o"
    assert run_cli("stats", "--annotations", ann, "--out", out) == 2
    assert capsys.readouterr().err == f"error: no annotations in {ann}\n"
    assert list(out.iterdir()) == []


def test_stats_ranking_of_other_strategies_exits_two_naming_its_line(tmp_path, capsys):
    records = [
        {"item": "p1", "worker": "w1", "ranking": ["a", "b"]},
        {"item": "p1", "worker": "w2", "ranking": ["b", "a"]},
        {"item": "p2", "worker": "w1", "ranking": ["a", "c"]},
    ]
    ann = tmp_path / "ann.jsonl"
    ann.write_text("".join(json.dumps(r) + "\n" for r in records))
    out = tmp_path / "o"
    assert run_cli("stats", "--annotations", ann, "--out", out) == 2
    assert capsys.readouterr().err == (
        "error: line 3: ranking ('a', 'c') ranks other strategies than the first one\n"
    )
    assert not (out / "stats_report.json").exists()


def test_stats_duplicate_ranking_exits_two_before_any_output(tmp_path, capsys):
    # the integer item 3 and the string item "3" are one id
    records = [
        {"item": 3, "worker": "w1", "ranking": ["a", "b"]},
        {"item": 3, "worker": "w2", "ranking": ["b", "a"]},
        {"item": "3", "worker": "w1", "ranking": ["a", "b"]},
    ]
    ann = tmp_path / "ann.jsonl"
    ann.write_text("".join(json.dumps(r) + "\n" for r in records))
    out = tmp_path / "o"
    assert run_cli("stats", "--annotations", ann, "--out", out) == 2
    assert "error: line 3: duplicate ranking for ('3', 'w1')" in capsys.readouterr().err
    assert not (out / "stats_report.json").exists()


def test_stats_field_without_alpha_names_it_before_any_fit(tmp_path, capsys, monkeypatch):
    def no_fit(*args, **kwargs):
        raise AssertionError("a MACE fit ran")

    monkeypatch.setattr(cli, "mace_aggregate", no_fit)
    # argument and fluency have two labels per item; meaning, sorted after
    # both, has one
    records = [
        {"item": f"p{i}", "worker": worker, "field": fld, "value": 1 + (i + w) % 3}
        for i in range(4)
        for w, worker in enumerate(("w1", "w2"))
        for fld in ("argument", "fluency")
    ]
    records += [{"item": f"p{i}", "worker": "w1", "field": "meaning", "value": 2} for i in range(4)]
    ann = tmp_path / "ann.jsonl"
    ann.write_text("".join(json.dumps(r) + "\n" for r in records))
    out = tmp_path / "o"
    assert run_cli("stats", "--annotations", ann, "--out", out) == 2
    assert capsys.readouterr().err == (
        "error: meaning: no pairable values (no item has two or more annotations)\n"
    )
    assert not (out / "stats_report.json").exists()


def test_stats_failing_rank_test_names_its_pair_before_any_fit(tmp_path, capsys, monkeypatch):
    def no_fit(*args, **kwargs):
        raise AssertionError("a MACE fit ran")

    monkeypatch.setattr(cli, "mace_aggregate", no_fit)
    # the item's two rankings tie a and b at a mean rank of 1.5
    records = [
        {"item": "p0::a", "worker": "w1", "field": "fluency", "value": 2},
        {"item": "p0::b", "worker": "w1", "field": "fluency", "value": 3},
        {"item": "p0", "worker": "w1", "ranking": ["a", "b"]},
        {"item": "p0", "worker": "w2", "ranking": ["b", "a"]},
    ]
    ann = tmp_path / "ann.jsonl"
    ann.write_text("".join(json.dumps(r) + "\n" for r in records))
    out = tmp_path / "o"
    code = run_cli("stats", "--annotations", ann, "--out", out, "--strategy-pairs", "a:b")
    assert code == 2
    assert "error: strategy pair a:b: all differences are zero" in capsys.readouterr().err
    assert not (out / "stats_report.json").exists()


# ---------------------------------------------------------------------------
# report


def test_report_rebuilds_run_metrics(tmp_path, pairs_file, run_dir):
    out = tmp_path / "rebuilt"
    code = run_cli(
        "report",
        "--selections", run_dir / "selections.jsonl",
        "--pairs", pairs_file,
        "--out", out,
    )
    assert code == 0
    original = json.loads((run_dir / "report.json").read_text())
    rebuilt = json.loads((out / "report.json").read_text())
    assert rebuilt["reports"] == original["reports"]
    assert (out / "report.csv").read_bytes() == (run_dir / "report.csv").read_bytes()


def test_report_rejects_empty_overlap(tmp_path, pairs_file, capsys):
    sel = tmp_path / "selections.jsonl"
    sel.write_text(
        json.dumps({"pair_id": "ghost#1", "strategy": "top1", "chosen": "x"}) + "\n"
    )
    code = run_cli("report", "--selections", sel, "--pairs", pairs_file, "--out", tmp_path / "o")
    assert code == 2
    assert "every strategy" in capsys.readouterr().err


def test_report_on_empty_selections_exits_two_naming_it(tmp_path, pairs_file, capsys):
    sel = tmp_path / "selections.jsonl"
    sel.write_text("")
    out = tmp_path / "o"
    code = run_cli("report", "--selections", sel, "--pairs", pairs_file, "--out", out)
    assert code == 2
    assert f"error: no selections in {sel}" in capsys.readouterr().err
    assert not (out / "report.json").exists()


def test_report_rejects_selection_missing_key(tmp_path, pairs_file, capsys):
    sel = tmp_path / "selections.jsonl"
    sel.write_text(json.dumps({"strategy": "top1", "chosen": "x"}) + "\n")
    code = run_cli("report", "--selections", sel, "--pairs", pairs_file, "--out", tmp_path / "o")
    assert code == 2
    assert "error: line 1: missing key 'pair_id'" in capsys.readouterr().err


def _contradicting_line(selections, pairs_path) -> int:
    """The first line of ``selections`` whose ``edited`` flag is false of
    its ``chosen`` and the source its pair has in ``pairs_path``."""
    sources = {p.pair_id: p.source for p in load_pairs(pairs_path)}
    rows = read_rows(selections)
    return next(
        n for n, row in enumerate(rows, start=1)
        if row["edited"] is not (row["chosen"] != sources[row["pair_id"]])
    )


@pytest.mark.parametrize("command", ["report", "resume"])
def test_selections_contradicting_the_pairs_file_exit_two(
    tmp_path, run_dir, capsys, command
):
    # the same pair ids as pairs_file, other texts
    other = tmp_path / "other.jsonl"
    write_pairs(make_synthetic_pairs(12, seed=4), other)
    line = _contradicting_line(run_dir / "selections.jsonl", other)
    if command == "report":
        out = tmp_path / "rep"
        argv = ["report", "--selections", run_dir / "selections.jsonl"]
    else:
        out = tmp_path / "resumed"
        shutil.copytree(run_dir, out)
        argv = ["run", "--seed", 11, "--n-candidates", 10, "--train-pairs", other]
    before = {path.name: path.read_bytes() for path in out.glob("*")}
    assert run_cli(*argv, "--pairs", other, "--out", out) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: line {line}: 'chosen' ") and err.count("\n") == 1
    assert "so 'edited' must be" in err
    # a resume exits before training: ranker.json and selections.jsonl keep their bytes
    assert {path.name: path.read_bytes() for path in out.glob("*")} == before


def _edited_run(tmp_path) -> Path:
    """The selections.jsonl of a ``max_argument`` run on six synthetic
    pairs, every row of which edits its pair's source."""
    write_pairs(make_synthetic_pairs(6, seed=3), tmp_path / "pairs.jsonl")
    out = tmp_path / "run"
    assert run_cli("run", "--pairs", tmp_path / "pairs.jsonl", "--out", out,
                   "--strategies", "max_argument") == 0
    assert all(row["edited"] for row in read_rows(out / "selections.jsonl"))
    return out / "selections.jsonl"


def test_report_scores_a_runs_selections_only_against_that_runs_pairs(tmp_path, capsys):
    selections = _edited_run(tmp_path)
    # the same pair ids, other texts: no row's edited flag contradicts them
    other = tmp_path / "other.jsonl"
    write_pairs(make_synthetic_pairs(6, seed=4), other)
    out = tmp_path / "rep"
    assert run_cli("report", "--selections", selections, "--pairs", other, "--out", out) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(selections) in err and str(other) in err
    assert list(out.iterdir()) == []
    pairs = tmp_path / "pairs.jsonl"
    assert run_cli("report", "--selections", selections, "--pairs", pairs, "--out", out) == 0
    inputs = json.loads((out / "manifest.json").read_text())["inputs"]
    assert inputs["run_manifest"]["path"] == str(selections.parent / "manifest.json")


@pytest.mark.parametrize("change", ["moved", "edited", "not_a_run"])
def test_report_checks_no_pairs_file_without_the_runs_manifest(tmp_path, change):
    selections = _edited_run(tmp_path)
    if change == "moved":
        (tmp_path / "loose").mkdir()
        selections = Path(shutil.copy(selections, tmp_path / "loose"))
    elif change == "edited":  # a blank line: the same rows, other bytes
        with open(selections, "a") as fh:
            fh.write("\n")
    else:  # a report's manifest, copied over the run's
        assert run_cli("report", "--selections", selections, "--pairs",
                       tmp_path / "pairs.jsonl", "--out", tmp_path / "first") == 0
        shutil.copy(tmp_path / "first" / "manifest.json", selections.parent)
    other = tmp_path / "other.jsonl"
    write_pairs(make_synthetic_pairs(6, seed=4), other)
    assert run_cli("report", "--selections", selections, "--pairs", other,
                   "--out", tmp_path / "rep") == 0


@pytest.mark.parametrize(
    "damage, reason",
    [
        (lambda m: m.update(artifacts=[]), "'artifacts' must be an object, got []"),
        (lambda m: m["artifacts"].update({"selections.jsonl": "x"}),
         "'artifacts.selections.jsonl' must be an object, got 'x'"),
        (lambda m: m["inputs"].pop("pairs"), "'inputs.pairs.sha256' must be a string, got None"),
        (lambda m: m.pop("inputs"), "'inputs.pairs.sha256' must be a string, got None"),
        (lambda m: m["inputs"].update(pairs=[]), "'inputs.pairs' must be an object, got []"),
        (lambda m: m["inputs"]["pairs"].update(sha256=7),
         "'inputs.pairs.sha256' must be a string, got 7"),
    ],
    ids=["artifacts-list", "artifact-string", "no-pairs", "no-inputs", "pairs-list",
         "digest-number"],
)
def test_report_beside_a_malformed_run_manifest_exits_two_naming_it(
    tmp_path, capsys, damage, reason
):
    selections = _edited_run(tmp_path)
    manifest_path = selections.parent / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    damage(manifest)
    manifest_path.write_text(json.dumps(manifest))
    out = tmp_path / "rep"
    assert run_cli("report", "--selections", selections, "--pairs", tmp_path / "pairs.jsonl",
                   "--out", out) == 2
    assert capsys.readouterr().err == f"error: {manifest_path}: {reason}\n"
    assert list(out.iterdir()) == []


def test_report_into_its_runs_directory_exits_two_and_keeps_the_runs_manifest(
    tmp_path, capsys
):
    selections = _edited_run(tmp_path)
    run = selections.parent
    before = {path.name: path.read_bytes() for path in run.iterdir()}
    assert run_cli("report", "--selections", selections, "--pairs", tmp_path / "pairs.jsonl",
                   "--out", run) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(run / "manifest.json") in err
    # the command did not run: its report.json did not replace the run's either
    assert {path.name: path.read_bytes() for path in run.iterdir()} == before


def test_manifest_records_the_installed_numpy_version(run_dir):
    versions = json.loads((run_dir / "manifest.json").read_text())["versions"]
    assert versions == {
        "claimpolish": claimpolish.__version__,
        "numpy": importlib.metadata.version("numpy"),
        "python": platform.python_version(),
    }


def test_numpy_version_is_read_from_the_first_dist_info_on_sys_path(tmp_path, monkeypatch):
    monkeypatch.setattr(sys, "path", [str(tmp_path / "missing"), str(tmp_path)])
    assert cli._numpy_version() is None
    (tmp_path / "numpy-9.8.7.dist-info").mkdir()
    (tmp_path / "numpy_financial-1.0.dist-info").mkdir()
    assert cli._numpy_version() == "9.8.7"


# the digests with CPython's built-in SHA-256 unavailable, so that the
# package falls back to hashlib's
_FALLBACK = """
import json, sys
sys.modules["_sha2"] = sys.modules["_sha256"] = None
import hashlib
from claimpolish import cli
print(cli.sha256 is hashlib.sha256)
print(cli._sha256_file(sys.argv[1]))
print(cli._config_hash(json.loads(sys.argv[2])))
"""


def test_manifest_digests_equal_hashlibs_sha256_with_and_without_the_builtin(tmp_path):
    data = random.Random(0).randbytes(3 * (1 << 16) + 7)  # three full reads and a tail
    path = tmp_path / "blob"
    path.write_bytes(data)
    config = {"out": "o", "seed": 7, "topic": "débat ✓"}
    recipe = json.dumps({"seed": 7, "topic": "débat ✓"}, sort_keys=True, ensure_ascii=False)
    expected = [hashlib.sha256(data).hexdigest(), hashlib.sha256(recipe.encode()).hexdigest()]
    assert [cli._sha256_file(path), cli._config_hash(config)] == expected
    done = subprocess.run(
        [sys.executable, "-c", _FALLBACK, str(path), json.dumps(config)],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parent.parent)},
    )
    assert done.stdout.splitlines() == ["True", *expected]


def test_manifest_fingerprints_inputs(run_dir, pairs_file):
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["command"] == "run"
    assert "pairs" in manifest["inputs"]
    digest = manifest["inputs"]["pairs"]["sha256"]
    assert digest == hashlib.sha256(pairs_file.read_bytes()).hexdigest()
    assert {"selections.jsonl", "report.json", "report.csv"} <= set(manifest["artifacts"])


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_manifest_artifacts_are_every_file_the_command_wrote(
    tmp_path, pairs_file, chains_file, mace_schedule, command
):
    mace_schedule(10, 2)
    inputs = _command_inputs(tmp_path, pairs_file, chains_file)[command]
    if command == "prepare":
        inputs += ["--per-label-test", 2]
    if command == "run":
        inputs += ["--train-pairs", pairs_file, "--n-candidates", 2]
    out = tmp_path / "o"
    assert run_cli(command, *inputs, "--out", out) == 0
    artifacts = json.loads((out / "manifest.json").read_text())["artifacts"]
    written = {path for path in out.rglob("*") if path.name != "manifest.json"}
    assert {Path(entry["path"]) for entry in artifacts.values()} == written
    for name, entry in artifacts.items():
        path = Path(entry["path"])
        assert path.name == name
        assert entry["sha256"] == hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_manifest_inputs_name_every_file_the_command_read(
    tmp_path, pairs_file, chains_file, monkeypatch, mace_schedule, command
):
    mace_schedule(10, 2)
    inputs = _command_inputs(tmp_path, pairs_file, chains_file)[command]
    if command == "prepare":
        inputs += ["--per-label-test", 2]
    if command == "run":
        weights, train = tmp_path / "weights.json", tmp_path / "train.jsonl"
        write_weights(weights)
        write_pairs(make_synthetic_pairs(6, seed=4), train)
        inputs += ["--weights", weights, "--train-pairs", train, "--n-candidates", 2]
    out = tmp_path / "o"
    read: set[Path] = set()
    real_open, real_manifest = builtins.open, cli._write_manifest

    def recording_open(file, mode="r", *args, **kwargs):
        if isinstance(file, (str, os.PathLike)) and not set(mode) & set("wax+"):
            path = Path(file).resolve()
            if path.is_relative_to(tmp_path) and not path.is_relative_to(out):
                read.add(path)
        return real_open(file, mode, *args, **kwargs)

    def manifest_unrecorded(*args):  # it hashes the inputs it names
        monkeypatch.setattr(builtins, "open", real_open)
        monkeypatch.setattr(io, "open", real_open)
        real_manifest(*args)

    monkeypatch.setattr(builtins, "open", recording_open)
    monkeypatch.setattr(io, "open", recording_open)  # pathlib's reads
    monkeypatch.setattr(cli, "_write_manifest", manifest_unrecorded)
    assert run_cli(command, *inputs, "--out", out) == 0
    named = json.loads((out / "manifest.json").read_text())["inputs"]
    assert {Path(entry["path"]).resolve() for entry in named.values()} == read
    for entry in named.values():
        assert entry["sha256"] == hashlib.sha256(Path(entry["path"]).read_bytes()).hexdigest()
