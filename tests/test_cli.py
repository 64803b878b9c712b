import dataclasses
import json
import sys

import pytest

from conftest import make_chain_records, make_synthetic_pairs, write_chain_records

import claimpolish.cli as cli
from claimpolish.cli import (
    ConfigError,
    _config_hash,
    _merge_config,
    build_parser,
    main,
    read_config_file,
)
from claimpolish.corpus import write_pairs

WEIGHTS = {
    "alpha": 0.43,
    "beta": 0.01,
    "gamma": 0.56,
    "pearson_r": 0.9,
    "grid_step": 0.01,
}


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
        "prev_delimiter = <P>\n"
    )
    assert read_config_file(cfg) == {
        "seed": "42",
        "generator": "mock",
        "prev_delimiter": "<P>",
    }


def test_read_config_file_rejects_bare_words(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed\n")
    with pytest.raises(ConfigError) as err:
        read_config_file(cfg)
    assert ":1:" in str(err.value)


def test_merge_precedence_file_flag_env(tmp_path, monkeypatch):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 1\ngenerator = mock\nn_candidates = 5\n")
    args = build_parser().parse_args(
        ["run", "--config", str(cfg), "--pairs", "p.jsonl", "--seed", "9"]
    )
    monkeypatch.setenv("CLAIMPOLISH_GENERATOR_CMD", "stdio:gen --flag")
    merged = _merge_config(args)
    assert merged["seed"] == "9"  # flag beats file
    assert merged["n_candidates"] == "5"  # file survives when no flag
    assert merged["generator"] == "stdio:gen --flag"  # env beats file
    assert merged["pairs"] == "p.jsonl"


def test_config_hash_ignores_output_location():
    base = {"seed": "1", "pairs": "p.jsonl"}
    assert _config_hash(dict(base, out="/a")) == _config_hash(dict(base, out="/b"))
    assert _config_hash(base) != _config_hash(dict(base, seed="2"))


ALL8 = "unedited,top1,random,max_fluency,max_argument,max_meaning,autoscore,pairwise_rank"


# merged config strings and hashes computed before the settings table existed
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
            ["calibrate", "--chains", "chains.jsonl", "--out", "cal", "--seed", "2",
             "--grid-step", "0.1", "--range-lo", "0.0", "--range-hi", "1",
             "--aggregation", "per_chain"],
            {"seed": "2", "out": "cal", "chains": "chains.jsonl", "grid_step": "0.1",
             "range_lo": "0.0", "range_hi": "1.0", "aggregation": "per_chain"},
            "c96a5f3dbea6e5ff7318a13a2af00ec929cb291c2111d7e841f7944004031a46",
        ),
    ],
    ids=["run", "calibrate"],
)
def test_merged_flags_and_config_hash_are_pinned(monkeypatch, argv, merged, digest):
    for env in cli._ENV_ADAPTERS.values():
        monkeypatch.delenv(env, raising=False)
    config = _merge_config(build_parser().parse_args(argv))
    assert config == merged
    assert _config_hash(config) == digest


def test_flags_are_the_settings_keys_with_help():
    flags = {
        "prepare": {"chains", "granularity", "out", "per_label_test", "seed", "train_fraction"},
        "run": {"context", "n_candidates", "out", "pairs", "ranker", "seed", "strategies",
                "train_pairs", "weights"},
        "calibrate": {"aggregation", "chains", "grid_step", "out", "range_hi", "range_lo", "seed"},
        "stats": {"annotations", "mode", "out", "seed", "strategy_pairs"},
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


@pytest.mark.parametrize(
    "command, line, named",
    [
        ("run", "n_candidate = 5", "unknown config key 'n_candidate'"),
        ("run", "seed = x", "seed: "),
        ("prepare", "filter_intents = bogus", "filter_intents: "),
        ("stats", "mode = x", "unknown mode 'x' (choose from all, aggregate, agreement, ranks)"),
        ("calibrate", "aggregation = x", "unknown aggregation 'x' (choose from pooled, per_chain)"),
    ],
)
def test_config_key_error_exits_two_before_any_output(
    tmp_path, pairs_file, chains_file, capsys, command, line, named
):
    annotations = tmp_path / "annotations.jsonl"
    _write_annotations(annotations)
    inputs = {
        "run": ["--pairs", pairs_file],
        "prepare": ["--chains", chains_file],
        "stats": ["--annotations", annotations],
        "calibrate": ["--chains", chains_file],
    }
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    out = tmp_path / "o"
    assert run_cli(command, "--config", cfg, *inputs[command], "--out", out) == 2
    assert f"error: {named}" in capsys.readouterr().err
    assert list(out.glob("*")) == []


def test_keys_of_other_commands_are_ignored(tmp_path, chains_file):
    cfg = tmp_path / "pipeline.cfg"
    cfg.write_text("per_label_test = 2\nn_candidates = x\nmode = bogus\nbleu_mode = corpus\n")
    out = tmp_path / "data"
    assert run_cli("prepare", "--config", cfg, "--chains", chains_file, "--out", out) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["mode"] == "bogus"


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
        "--train-fraction", 0.8,
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
    # chain granularity drops leftover pairs from test chains, so <=
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


def test_prepare_integer_chain_ids_keep_validation_chains(tmp_path):
    records = make_chain_records(4, seed=7)
    for chain_id, record in enumerate(records, start=1):
        record["chain_id"] = chain_id
    chains = tmp_path / "chains.jsonl"
    write_chain_records(chains, records)
    out = tmp_path / "prep"
    assert run_cli(
        "prepare", "--chains", chains, "--out", out,
        "--per-label-test", 0, "--train-fraction", 0.5,
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
    # same recipe as run_dir, including the weights path, so hashes match
    assert run_cli(
        "run", "--pairs", pairs_file, "--out", out, "--seed", 11,
        "--context", "both", "--n-candidates", 10,
        "--weights", tmp_path / "weights.json", "--train-pairs", pairs_file,
    ) == 0
    for name in ("selections.jsonl", "report.json", "report.csv"):
        assert (out / name).read_bytes() == (run_dir / name).read_bytes(), name


def test_run_missing_pairs_file(tmp_path, capsys):
    code = run_cli("run", "--pairs", tmp_path / "nope.jsonl", "--out", tmp_path / "o")
    assert code == 2
    assert "pairs file" in capsys.readouterr().err


def test_run_unknown_strategy(tmp_path, pairs_file, capsys):
    code = run_cli(
        "run", "--pairs", pairs_file, "--out", tmp_path / "o",
        "--strategies", "top1,bogus",
    )
    assert code == 2
    assert "bogus" in capsys.readouterr().err


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
    "selections": {"strategy": "top1", "chosen": "x"},  # plus a pair id of pairs_file
    "annotations": {"item": "a", "worker": "w", "field": "fluency", "value": 2},
}


@pytest.mark.parametrize(
    "command, kind, change, reason",
    [
        ("run", "pairs", {"source": 5}, "'source' must be a string, got 5"),
        ("run", "pairs", {"source": " "}, "claim 'c#0.src' has empty text"),
        ("run", "pairs", {"topic": 5}, "topic and previous_claim must be strings or null"),
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
        ("report", "selections", {"chosen": 5}, "'chosen' must be a string, got 5"),
        ("report", "selections", {"chosen": ""}, "'chosen' must not be blank"),
        ("stats", "annotations", {"value": True}, "fluency value True outside [1, 3]"),
        (
            "stats", "annotations", {"ranking": ["x", "x"]},
            "ranking ('x', 'x') is not a permutation",
        ),
    ],
    ids=[
        "pair-source-number", "pair-source-blank", "pair-topic-number", "chain-intents-number",
        "chain-intents-string", "chain-claim-text-null", "chain-claim-text-number",
        "selection-chosen-number", "selection-chosen-blank",
        "likert-value-bool", "ranking-repeated",
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


def test_stats_non_list_ranking_exits_two(tmp_path, capsys):
    bad = tmp_path / "annotations.jsonl"
    bad.write_text('{"item": "a", "worker": "w", "ranking": 5}\n')
    assert run_cli("stats", "--annotations", bad, "--out", tmp_path / "o") == 2
    assert "error: line 1: ranking must be a list" in capsys.readouterr().err


@pytest.mark.parametrize("missing", ["weight_vector", "embedder.dim", "embedder.seed"])
def test_run_ranker_missing_key_exits_two(tmp_path, pairs_file, capsys, missing):
    payload = {"weight_vector": [0.0] * 4, "embedder": {"kind": "hashing", "dim": 4, "seed": 0}}
    owner = payload["embedder"] if missing.startswith("embedder.") else payload
    del owner[missing.removeprefix("embedder.")]
    ranker = tmp_path / "ranker.json"
    ranker.write_text(json.dumps(payload))
    code = run_cli(
        "run", "--pairs", pairs_file, "--out", tmp_path / "o",
        "--strategies", "pairwise_rank", "--ranker", ranker,
    )
    assert code == 2
    assert f"ranker.json: missing key '{missing}'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field, value",
    [
        ("embedder", 5),
        ("training_meta", 5),
        ("weight_vector", {"a": 1}),
        ("weight_vector", [{}, 0.0, 0.0, 0.0]),
        ("weight_vector", [float("nan"), 0.0, 0.0, 0.0]),
    ],
)
def test_run_ranker_bad_field_exits_two(tmp_path, pairs_file, capsys, field, value):
    payload = {"weight_vector": [0.0] * 4, "embedder": {"kind": "hashing", "dim": 4, "seed": 0}}
    payload[field] = value
    ranker = tmp_path / "ranker.json"
    ranker.write_text(json.dumps(payload))
    code = run_cli(
        "run", "--pairs", pairs_file, "--out", tmp_path / "o",
        "--strategies", "pairwise_rank", "--ranker", ranker,
    )
    assert code == 2
    assert f"ranker.json: '{field}' must be" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, value",
    [("dim", [4]), ("dim", 4.0), ("dim", True), ("seed", 1.5), ("seed", "0")],
)
def test_run_ranker_non_integer_embedder_field_exits_two(tmp_path, pairs_file, capsys, key, value):
    payload = {"weight_vector": [0.0] * 4, "embedder": {"kind": "hashing", "dim": 4, "seed": 0}}
    payload["embedder"][key] = value
    ranker = tmp_path / "ranker.json"
    ranker.write_text(json.dumps(payload))
    code = run_cli(
        "run", "--pairs", pairs_file, "--out", tmp_path / "o",
        "--strategies", "pairwise_rank", "--ranker", ranker,
    )
    assert code == 2
    assert f"ranker.json: 'embedder.{key}' must be an integer" in capsys.readouterr().err


def test_run_accepts_embedder_seed_outside_int64(tmp_path, pairs_file):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"embed_seed = {2**70}\n")
    ranker = tmp_path / "ranker.json"
    ranker.write_text(json.dumps(
        {"weight_vector": [0.0] * 4, "embedder": {"kind": "hashing", "dim": 4, "seed": 2**70}}
    ))
    code = run_cli(
        "run", "--config", cfg, "--pairs", pairs_file, "--out", tmp_path / "o",
        "--strategies", "top1,pairwise_rank", "--ranker", ranker,
    )
    assert code == 0


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
        ("report", "bleu_mode", "pooled"),
        ("report", "sari_variant", "f1"),
    ],
)
def test_bad_config_value_exits_two_before_any_output(
    tmp_path, pairs_file, capsys, command, key, value
):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"{key} = {value}\n")
    out = tmp_path / "o"
    argv = [command, "--config", cfg, "--pairs", pairs_file, "--out", out]
    if command == "report":
        pair_id = read_rows(pairs_file)[0]["pair_id"]
        sel = tmp_path / "selections.jsonl"
        sel.write_text(json.dumps({"pair_id": pair_id, "strategy": "top1", "chosen": "x"}) + "\n")
        argv += ["--selections", sel]
    assert run_cli(*argv) == 2
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


def test_run_instance_failure_exits_one(tmp_path, pairs_file, capsys, monkeypatch):
    pairs = make_synthetic_pairs(4, seed=3)
    broken = dataclasses.replace(
        pairs[2], source=dataclasses.replace(pairs[2].source, text="BROKEN claim here")
    )
    pairs[2] = broken
    pairs_path = tmp_path / "pairs.jsonl"
    write_pairs(pairs, pairs_path)
    monkeypatch.setenv("CLAIMPOLISH_GENERATOR_CMD", _stdio_generator_script(tmp_path))
    out = tmp_path / "o"
    code = run_cli(
        "run", "--pairs", pairs_path, "--out", out, "--seed", 1,
        "--strategies", "unedited,top1",
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


def test_clean_rerun_removes_stale_errors(tmp_path, monkeypatch):
    pairs = make_synthetic_pairs(4, seed=3)
    pairs[2] = dataclasses.replace(
        pairs[2], source=dataclasses.replace(pairs[2].source, text="BROKEN claim here")
    )
    pairs_path = tmp_path / "pairs.jsonl"
    write_pairs(pairs, pairs_path)
    out = tmp_path / "o"
    argv = ("run", "--pairs", pairs_path, "--out", out, "--seed", 1, "--strategies", "unedited,top1")
    monkeypatch.setenv("CLAIMPOLISH_GENERATOR_CMD", _stdio_generator_script(tmp_path))
    assert run_cli(*argv) == 1
    assert (out / "errors.jsonl").is_file()
    # the mock generator completes the failed instance on resume
    monkeypatch.delenv("CLAIMPOLISH_GENERATOR_CMD")
    assert run_cli(*argv) == 0
    assert not (out / "errors.jsonl").exists()
    report = json.loads((out / "report.json").read_text())
    assert report["metadata"]["n_errors"] == 0
    assert report["metadata"]["n_instances"] == 4


def test_run_stores_stdio_meaning_score_as_answered(tmp_path, capsys, monkeypatch):
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
    pairs[1] = dataclasses.replace(
        pairs[1], source=dataclasses.replace(pairs[1].source, text="OFFSCALE claim here")
    )
    pairs_path = tmp_path / "pairs.jsonl"
    write_pairs(pairs, pairs_path)
    monkeypatch.setenv("CLAIMPOLISH_MEANING_CMD", f"stdio:{sys.executable} {script}")
    out = tmp_path / "o"
    code = run_cli("run", "--pairs", pairs_path, "--out", out, "--strategies", "top1,max_meaning")
    assert code == 1
    assert "errors.jsonl" in capsys.readouterr().err
    errors = read_rows(out / "errors.jsonl")
    assert [e["pair_id"] for e in errors] == [pairs[1].pair_id]
    assert errors[0]["error"] == "meaning scorer returned -0.2, outside [0, 1]"
    rows = read_rows(out / "selections.jsonl")
    assert len(rows) == 2 * 2
    assert all(s["meaning"] == 0.4 for r in rows for s in r["scores"])
    max_meaning = [s for r in rows if r["strategy"] == "max_meaning" for s in r["scores"]]
    assert max_meaning and all(s["combined"] == 0.4 for s in max_meaning)


def test_run_env_generator_is_used(tmp_path, pairs_file, monkeypatch):
    monkeypatch.setenv("CLAIMPOLISH_GENERATOR_CMD", _stdio_generator_script(tmp_path))
    out = tmp_path / "o"
    assert run_cli(
        "run", "--pairs", pairs_file, "--out", out, "--seed", 1,
        "--strategies", "unedited,top1",
    ) == 0
    top1 = [r for r in read_rows(out / "selections.jsonl") if r["strategy"] == "top1"]
    assert all(r["chosen"].endswith("(greedy)") for r in top1)


def test_run_skips_blank_generator_text(tmp_path, monkeypatch):
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
    pairs[1] = dataclasses.replace(
        pairs[1], source=dataclasses.replace(pairs[1].source, text="BLANK claim here")
    )
    pairs_path = tmp_path / "pairs.jsonl"
    write_pairs(pairs, pairs_path)
    monkeypatch.setenv("CLAIMPOLISH_GENERATOR_CMD", f"stdio:{sys.executable} {script}")
    out = tmp_path / "o"
    code = run_cli(
        "run", "--pairs", pairs_path, "--out", out, "--seed", 0,
        "--strategies", "random,top1", "--n-candidates", 3,
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
    """Stdio generator and fluency scorer that remember each instance and close."""
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
    monkeypatch.setenv("CLAIMPOLISH_GENERATOR_CMD", _stdio_generator_script(tmp_path))
    monkeypatch.setenv("CLAIMPOLISH_FLUENCY_CMD", f"stdio:{sys.executable} {script}")
    return opened


@pytest.mark.parametrize("broken, expected_code", [(False, 0), (True, 1)])
def test_run_closes_stdio_adapters(tmp_path, recording_adapters, broken, expected_code):
    pairs = make_synthetic_pairs(3, seed=3)
    if broken:
        pairs[1] = dataclasses.replace(
            pairs[1], source=dataclasses.replace(pairs[1].source, text="BROKEN claim")
        )
    pairs_path = tmp_path / "pairs.jsonl"
    write_pairs(pairs, pairs_path)
    code = run_cli(
        "run", "--pairs", pairs_path, "--out", tmp_path / "o", "--strategies", "top1"
    )
    assert code == expected_code
    assert [type(a).__name__ for a in recording_adapters] == [
        "RecordingGenerator",
        "RecordingScorer",
    ]
    assert all(a.closes == 1 and a._proc is None for a in recording_adapters)


# ---------------------------------------------------------------------------
# calibrate


def test_calibrate_artifacts(tmp_path, chains_file, capsys):
    out = tmp_path / "cal"
    code = run_cli(
        "calibrate",
        "--chains", chains_file,
        "--out", out,
        "--seed", 2,
        "--grid-step", 0.1,
        "--range-lo", 0.0,
        "--range-hi", 1.0,
    )
    assert code == 0
    weights = json.loads((out / "weights.json").read_text())
    assert set(weights) == {"alpha", "beta", "gamma", "pearson_r", "grid_step"}
    assert weights["alpha"] + weights["beta"] + weights["gamma"] == pytest.approx(1.0)
    detail = json.loads((out / "calibration.json").read_text())
    assert detail["evaluated_points"] == 66
    assert detail["aggregation"] == "pooled"
    assert (out / "manifest.json").is_file()
    summary = capsys.readouterr().out
    assert "r=" in summary and "grid=66" in summary


def test_calibrate_closes_stdio_scorer(tmp_path, chains_file, recording_adapters):
    assert run_cli("calibrate", "--chains", chains_file, "--out", tmp_path / "cal") == 0
    [scorer] = recording_adapters
    assert scorer.closes == 1 and scorer._proc is None


def test_calibrate_bad_grid(tmp_path, chains_file, capsys):
    code = run_cli(
        "calibrate", "--chains", chains_file, "--out", tmp_path / "o",
        "--grid-step", 0.5,
    )
    assert code == 2
    assert "grid" in capsys.readouterr().err


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


def test_stats_full_report(tmp_path):
    ann = tmp_path / "ann.jsonl"
    _write_annotations(ann)
    cfg = tmp_path / "stats.cfg"
    cfg.write_text("mace_iterations = 10\nmace_restarts = 2\n")
    out = tmp_path / "stats"
    code = run_cli(
        "stats", "--annotations", ann, "--out", out, "--seed", 3,
        "--config", cfg, "--strategy-pairs", "autoscore:top1",
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


def test_stats_agreement_mode_skips_mace(tmp_path):
    ann = tmp_path / "ann.jsonl"
    _write_annotations(ann)
    out = tmp_path / "stats"
    assert run_cli(
        "stats", "--annotations", ann, "--out", out, "--mode", "agreement"
    ) == 0
    report = json.loads((out / "stats_report.json").read_text())
    assert "mace" not in report["fields"]["fluency"]
    assert "mean_rank" not in report["ranks"]


def test_stats_bad_strategy_pair(tmp_path, capsys):
    ann = tmp_path / "ann.jsonl"
    _write_annotations(ann)
    code = run_cli(
        "stats", "--annotations", ann, "--out", tmp_path / "o",
        "--mode", "ranks", "--strategy-pairs", "autoscore",
    )
    assert code == 2
    assert "A:B" in capsys.readouterr().err


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


def test_report_rejects_selection_missing_key(tmp_path, pairs_file, capsys):
    sel = tmp_path / "selections.jsonl"
    sel.write_text(json.dumps({"strategy": "top1", "chosen": "x"}) + "\n")
    code = run_cli("report", "--selections", sel, "--pairs", pairs_file, "--out", tmp_path / "o")
    assert code == 2
    assert "error: line 1: missing key 'pair_id'" in capsys.readouterr().err


def test_manifest_fingerprints_inputs(run_dir, pairs_file):
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["command"] == "run"
    assert "pairs" in manifest["inputs"]
    digest = manifest["inputs"]["pairs"]["sha256"]
    import hashlib

    assert digest == hashlib.sha256(pairs_file.read_bytes()).hexdigest()
    assert {"selections.jsonl", "report.json", "report.csv"} <= set(manifest["artifacts"])
