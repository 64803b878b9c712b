"""Command-line pipeline driver.

Subcommands: ``prepare`` (chains -> labeled, filtered, split pairs),
``run`` (generate, score, select, evaluate), ``calibrate`` (grid-search
combination weights on validation chains), ``stats`` (annotation
aggregation and significance), ``report`` (rebuild metric reports from
persisted selections). Every command is deterministic given its config
and seed, writes only under its output directory, and drops a
manifest.json fingerprinting inputs and emitted artifacts.

Config files are plain ``key = value`` lines (# comments). CLI flags
override file values. Environment variables override adapter command
paths only: CLAIMPOLISH_GENERATOR_CMD, CLAIMPOLISH_FLUENCY_CMD,
CLAIMPOLISH_MEANING_CMD, CLAIMPOLISH_ARGUMENT_CMD. ``_SETTINGS`` holds
each command's keys with their types and defaults; it also generates
the flags. A key that no command reads is an error.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import shlex
import sys
import time
from dataclasses import asdict
from pathlib import Path

from . import __version__
from .corpus import (
    GRANULARITIES,
    ContextMode,
    DelimiterConfig,
    IntentLabel,
    TASK_INTENTS,
    derive_pairs,
    filter_by_intent,
    load_chains,
    load_pairs,
    majority_labeler,
    relabel_pairs,
    serialize_input,
    split_dataset,
    write_pairs,
)
from .embedding import HashingEmbedder
from .evalstats import (
    competent_workers,
    krippendorff_alpha,
    load_annotations,
    mace_aggregate,
    mean_rank,
    wilcoxon_signed_rank,
)
from .genkit import (
    GenerationConfig,
    MockGenerator,
    StdioGenerator,
    dedup,
    generate_candidates,
    make_schedule,
)
from .metrics import BLEU_MODES, SARI_VARIANTS, EvalInstance, evaluate_run, write_report_csv
from .ndjson import decode_line, encode_line, open_atomic, read_jsonl, write_json
from .scoring import (
    AGGREGATIONS,
    CosineMeaningScorer,
    DEFAULT_WEIGHTS,
    HeuristicArgumentScorer,
    HeuristicFluencyScorer,
    JaccardMeaningScorer,
    ScorerRegistry,
    StdioScorer,
    calibrate_weights,
    load_weights,
    save_calibration,
    score_candidate,
)
from .selection import (
    RankerHyperparams,
    Strategy,
    load_ranker,
    save_ranker,
    select,
    selection_to_record,
    train_pairwise_ranker,
)

_ENV_ADAPTERS = {
    "generator": "CLAIMPOLISH_GENERATOR_CMD",
    "fluency_scorer": "CLAIMPOLISH_FLUENCY_CMD",
    "meaning_scorer": "CLAIMPOLISH_MEANING_CMD",
    "argument_scorer": "CLAIMPOLISH_ARGUMENT_CMD",
}


class ConfigError(ValueError):
    pass


def _parse_strategies(text: str) -> tuple[Strategy, ...]:
    if not text or text == "all":
        return tuple(Strategy)
    strategies = tuple(Strategy(name.strip()) for name in text.split(",") if name.strip())
    if not strategies:
        raise ValueError("empty strategy list")
    return strategies


def _parse_intents(text: str) -> frozenset[IntentLabel]:
    if not text:
        return TASK_INTENTS
    return frozenset(IntentLabel(v.strip()) for v in text.split(","))


def _parse_strategy_pairs(text: str) -> tuple[tuple[str, str], ...]:
    pairs = []
    for spec_pair in text.split(",") if text else ():
        a, _, b = spec_pair.strip().partition(":")
        if not a or not b:
            raise ValueError(f"bad strategy pair {spec_pair!r} (want A:B)")
        pairs.append((a, b))
    return tuple(pairs)


# Each command's config keys: key -> (parse, default, flag help). A tuple
# parse lists the allowed values, the default first. A key whose help is
# None is read from the config file only. Flags keep argparse's int and
# float types, so a flag's config string (and the config hash) is the
# converted value's str.
_SHARED = {"seed": (int, 0, "random seed"), "out": (str, None, "output directory")}
_EMBEDDER = {"embed_dim": (int, 256, None), "embed_seed": (int, 0, None)}
_METRICS = {
    "bleu_mode": (BLEU_MODES, BLEU_MODES[0], None),
    "sari_variant": (SARI_VARIANTS, SARI_VARIANTS[0], None),
}
_SCORERS = {
    key: (str, "heuristic", None) for key in ("fluency_scorer", "meaning_scorer", "argument_scorer")
}

_SETTINGS = {
    "prepare": {
        **_SHARED,
        "chains": (str, None, "chains.jsonl input"),
        "per_label_test": (int, 200, "test pairs per intent label"),
        "train_fraction": (float, 0.9, "share of the rest that goes to train"),
        "granularity": (
            GRANULARITIES, GRANULARITIES[0], "keep a chain's pairs in one split or not"
        ),
        "labeler": (("majority", "none"), "majority", None),
        "filter_intents": (_parse_intents, TASK_INTENTS, None),
    },
    "run": {
        **_SHARED,
        "pairs": (str, None, "test pairs.jsonl"),
        "context": (
            tuple(mode.value for mode in ContextMode), "none",
            "debate context in the generator input",
        ),
        "strategies": (_parse_strategies, tuple(Strategy), "comma list or 'all'"),
        "n_candidates": (int, 10, "candidates generated per pair"),
        "weights": (str, None, "weights.json from calibrate"),
        "train_pairs": (str, None, "pairs for ranker training"),
        "ranker": (str, None, "previously trained ranker.json"),
        "ranker_seed": (int, None, None),  # None: the run's seed
        "generator": (str, "mock", None),
        "prev_delimiter": (str, "<PREV>", None),
        "topic_delimiter": (str, "<TOPIC>", None),
        **_SCORERS,
        **_EMBEDDER,
        **_METRICS,
    },
    "calibrate": {
        **_SHARED,
        "chains": (str, None, "validation chains.jsonl"),
        "grid_step": (float, 0.01, "weight grid step"),
        "range_lo": (float, 0.01, "smallest weight on the grid"),
        "range_hi": (float, 0.98, "largest weight on the grid"),
        "aggregation": (AGGREGATIONS, AGGREGATIONS[0], "correlate all steps or per chain"),
        **_SCORERS,
        **_EMBEDDER,
    },
    "stats": {
        **_SHARED,
        "annotations": (str, None, "annotations.jsonl"),
        "mode": (("all", "aggregate", "agreement", "ranks"), "all", "which analyses to run"),
        "strategy_pairs": (_parse_strategy_pairs, (), "A:B,C:D pairs to test"),
        "mace_iterations": (int, 50, None),
        "mace_restarts": (int, 10, None),
        "mace_smoothing": (float, 0.1, None),
        "competence_threshold": (float, 0.3, None),
    },
    "report": {
        **_SHARED,
        "selections": (str, None, "selections.jsonl from a run"),
        "pairs": (str, None, "the pairs file the run used"),
        **_EMBEDDER,
        **_METRICS,
    },
}


def read_config_file(path: str | Path) -> dict[str, str]:
    values: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ConfigError(f"{path}:{line_no}: expected key = value")
            key, _, value = stripped.partition("=")
            values[key.strip()] = value.strip()
    return values


def _merge_config(args: argparse.Namespace) -> dict[str, str]:
    """File config, overridden by CLI flags, overridden by adapter envs.

    Every option of the subcommand is a config key under its dest name.
    """
    merged: dict[str, str] = {}
    if args.config:
        merged.update(read_config_file(args.config))
    for key, value in vars(args).items():
        if key not in ("command", "config") and value is not None:
            merged[key] = str(value)
    for key, env in _ENV_ADAPTERS.items():
        if os.environ.get(env):
            merged[key] = os.environ[env]
    return merged


def _settings(command: str, config: dict[str, str]) -> dict:
    """``command``'s keys parsed from ``config``, defaults filled in.

    Keys that only other commands read are ignored, so one file can
    serve the whole pipeline; ConfigError names an unknown key or a bad
    value's key.
    """
    for key in config:
        if not any(key in table for table in _SETTINGS.values()):
            raise ConfigError(f"unknown config key {key!r}")
    settings = {}
    for key, (parse, default, _) in _SETTINGS[command].items():
        value = config.get(key)
        if value is None:
            settings[key] = default
        elif isinstance(parse, tuple):
            if value not in parse:
                raise ConfigError(f"unknown {key} {value!r} (choose from {', '.join(parse)})")
            settings[key] = value
        else:
            try:
                settings[key] = parse(value)
            except ValueError as exc:
                raise ConfigError(f"{key}: {exc}") from None
    return settings


def _config_hash(config: dict) -> str:
    # the hash identifies the run recipe; the output location is not part of it
    hashed = {k: v for k, v in config.items() if k != "out"}
    blob = json.dumps(hashed, sort_keys=True, ensure_ascii=False).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def _sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()


def _write_manifest(
    out_dir: Path,
    command: str,
    config: dict,
    inputs: dict[str, Path],
    artifacts: list[Path],
    started: float,
) -> None:
    manifest = {
        "command": command,
        "config": config,
        "config_hash": _config_hash(config),
        "inputs": {
            name: {"path": str(p), "sha256": _sha256_file(p)} for name, p in inputs.items()
        },
        "artifacts": {
            p.name: {"path": str(p), "sha256": _sha256_file(p)} for p in artifacts
        },
        "versions": {
            "claimpolish": __version__,
            "python": sys.version.split()[0],
        },
        "timestamps": {"started": started, "finished": time.time()},
    }
    write_json(out_dir / "manifest.json", manifest)


def _require_file(path_text: str | None, what: str) -> Path:
    if not path_text:
        raise ConfigError(f"no {what} configured")
    path = Path(path_text)
    if not path.is_file():
        raise ConfigError(f"{what} not found: {path}")
    return path


def _out_dir(out: str | None) -> Path:
    if not out:
        raise ConfigError("no output directory configured (--out)")
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _embedder(s: dict) -> HashingEmbedder:
    return HashingEmbedder(dim=s["embed_dim"], seed=s["embed_seed"])


def _build_generator(s: dict, delimiters: DelimiterConfig):
    spec = s["generator"]
    if spec == "mock":
        return MockGenerator(delimiters=(delimiters.previous, delimiters.topic))
    if spec.startswith("stdio:"):
        return StdioGenerator(shlex.split(spec[len("stdio:") :]))
    raise ConfigError(f"unknown generator {spec!r}")


def _build_registry(s: dict, embedder) -> ScorerRegistry:
    def scorer_for(kind: str, default):
        spec = s[kind]
        if spec == "heuristic":
            return default
        if spec == "jaccard" and kind == "meaning_scorer":
            return JaccardMeaningScorer()
        if spec == "cosine" and kind == "meaning_scorer":
            return CosineMeaningScorer(embedder)
        if spec.startswith("stdio:"):
            return StdioScorer(shlex.split(spec[len("stdio:") :]))
        raise ConfigError(f"unknown {kind} {spec!r}")

    return ScorerRegistry(
        fluency=scorer_for("fluency_scorer", HeuristicFluencyScorer()),
        meaning=scorer_for("meaning_scorer", JaccardMeaningScorer()),
        argument=scorer_for("argument_scorer", HeuristicArgumentScorer()),
    )


@contextlib.contextmanager
def _closing_adapters(registry: ScorerRegistry, generator=None):
    """On the way out, close the generator and scorers that have ``close()``."""
    try:
        yield
    finally:
        for adapter in (generator, *(scorer for _, scorer in registry.items())):
            if hasattr(adapter, "close"):
                adapter.close()


def _write_reports(
    out: Path, s: dict, embedder, pairs: list, outputs: dict, metadata: dict
) -> list[Path]:
    """Evaluate each strategy's outputs on ``pairs``; write report.json and report.csv."""
    instances = [
        EvalInstance(source=p.source.text, references=(p.reference.text,), context=p.context)
        for p in pairs
    ]
    reports = evaluate_run(
        instances, outputs, embedder, bleu_mode=s["bleu_mode"], sari_variant=s["sari_variant"]
    )
    payload = {
        "metadata": {**metadata, "n_instances": len(instances)},
        "reports": {name: asdict(reports[name]) for name in sorted(reports)},
    }
    write_json(out / "report.json", payload)
    write_report_csv({name: reports[name] for name in sorted(reports)}, out / "report.csv")
    return [out / "report.json", out / "report.csv"]


# ---------------------------------------------------------------------------
# prepare

def cmd_prepare(s: dict, config_hash: str) -> tuple[dict[str, Path], list[Path], int]:
    chains_path = _require_file(s["chains"], "chains file")
    out = _out_dir(s["out"])

    chains = load_chains(chains_path)
    pairs = [pair for chain in chains for pair in derive_pairs(chain)]
    n_derived = len(pairs)
    if s["labeler"] == "majority":
        pairs = relabel_pairs(pairs, majority_labeler(pairs))
    filtered = filter_by_intent(pairs, s["filter_intents"])

    split = split_dataset(
        filtered, per_label_test=s["per_label_test"], train_fraction=s["train_fraction"],
        seed=s["seed"], granularity=s["granularity"],
    )

    write_pairs(pairs, out / "pairs.jsonl")
    write_pairs(split.train, out / "train.jsonl")
    write_pairs(split.validation, out / "validation.jsonl")
    write_pairs(split.test, out / "test.jsonl")

    # chains whose pairs ended up in validation, for weight calibration
    validation_chain_ids = {p.chain_id for p in split.validation}
    with open(out / "validation_chains.jsonl", "w", encoding="utf-8") as fh, open(
        chains_path, encoding="utf-8"
    ) as src:
        for line in src:
            # chain ids compared as _parse_chain stores them: str() of the raw value
            if line.strip() and str(decode_line(line)["chain_id"]) in validation_chain_ids:
                fh.write(line if line.endswith("\n") else line + "\n")

    counts = {
        "chains": len(chains),
        "derived_pairs": n_derived,
        "after_filter": len(filtered),
        "train": len(split.train),
        "validation": len(split.validation),
        "test": len(split.test),
    }
    write_json(out / "counts.json", counts)
    print(json.dumps(counts, sort_keys=True))

    artifacts = [
        out / "pairs.jsonl",
        out / "train.jsonl",
        out / "validation.jsonl",
        out / "test.jsonl",
        out / "validation_chains.jsonl",
        out / "counts.json",
    ]
    return {"chains": chains_path}, artifacts, 0


# ---------------------------------------------------------------------------
# run

def _read_selections(path: Path) -> dict[str, dict[str, dict]]:
    """selections.jsonl records as {pair_id: {strategy: record}}; a
    repeated (pair, strategy) keeps its last record."""

    def parse(rec: dict) -> dict:
        for key in ("pair_id", "strategy", "chosen"):
            if not isinstance(rec[key], str):
                raise ValueError(f"{key!r} must be a string, got {rec[key]!r}")
        if not rec["chosen"].strip():
            raise ValueError("'chosen' must not be blank")
        return rec

    by_pair: dict[str, dict[str, dict]] = {}
    for _, rec in read_jsonl(path, ("pair_id", "strategy", "chosen"), parse):
        by_pair.setdefault(rec["pair_id"], {})[rec["strategy"]] = rec
    return by_pair


def _load_checkpoint(
    selections_path: Path, strategies: tuple[Strategy, ...]
) -> dict[str, dict[str, dict]]:
    """Records of complete instances from an interrupted run, keyed by pair."""
    if not selections_path.is_file():
        return {}
    wanted = {s.value for s in strategies}
    by_pair = _read_selections(selections_path)
    return {pid: by_s for pid, by_s in by_pair.items() if set(by_s) == wanted}


def cmd_run(s: dict, config_hash: str) -> tuple[dict[str, Path], list[Path], int]:
    pairs_path = _require_file(s["pairs"], "pairs file")
    out = _out_dir(s["out"])
    seed, strategies = s["seed"], s["strategies"]
    delimiters = DelimiterConfig(previous=s["prev_delimiter"], topic=s["topic_delimiter"])
    embedder = _embedder(s)

    pairs = load_pairs(pairs_path)
    if not pairs:
        raise ConfigError(f"no pairs in {pairs_path}")

    generator = _build_generator(s, delimiters)
    registry = _build_registry(s, embedder)
    gen_config = GenerationConfig(n_candidates=s["n_candidates"])
    schedule = make_schedule(s["n_candidates"])

    if s["weights"]:
        weights = load_weights(_require_file(s["weights"], "weights file"))
    else:
        weights = DEFAULT_WEIGHTS

    ranker = None
    inputs: dict[str, Path] = {"pairs": pairs_path}
    if Strategy.PAIRWISE_RANK in strategies:
        if s["ranker"]:
            ranker_path = _require_file(s["ranker"], "ranker file")
            ranker = load_ranker(ranker_path)
            inputs["ranker"] = ranker_path
        elif s["train_pairs"]:
            train_path = _require_file(s["train_pairs"], "ranker training pairs")
            inputs["train_pairs"] = train_path
            text_pairs = [
                (p.source.text, p.reference.text)
                for p in load_pairs(train_path)
                if p.source.text != p.reference.text
            ]
            if not text_pairs:
                raise ConfigError(f"no usable ranker training pairs in {train_path}")
            ranker_seed = seed if s["ranker_seed"] is None else s["ranker_seed"]
            ranker = train_pairwise_ranker(
                text_pairs, embedder, RankerHyperparams(seed=ranker_seed)
            )
            save_ranker(out / "ranker.json", ranker)
        else:
            raise ConfigError(
                "pairwise_rank strategy needs either a ranker file or train_pairs"
            )

    context_mode = ContextMode(s["context"])
    selections_path = out / "selections.jsonl"
    checkpoint = _load_checkpoint(selections_path, strategies)
    # rewrite only the complete instances, in pairs-file order, then resume
    outputs: dict[str, list[str]] = {strategy.value: [] for strategy in strategies}
    done_instances: list[int] = []
    errors: list[dict] = []

    with _closing_adapters(registry, generator), open(
        selections_path, "w", encoding="utf-8"
    ) as sel_fh:
        for i, pair in enumerate(pairs):
            if pair.pair_id in checkpoint:
                for strategy in strategies:
                    # rows were written by encode_line, so they round-trip
                    rec = checkpoint[pair.pair_id][strategy.value]
                    sel_fh.write(encode_line(rec))
                    outputs[strategy.value].append(rec["chosen"])
                done_instances.append(i)
                continue
            instance_seed = seed + i
            # buffer the whole instance so a failure never leaves partial rows
            rows: list[str] = []
            chosen: dict[str, str] = {}
            try:
                input_text = serialize_input(pair, context_mode, delimiters)
                cset = dedup(
                    generate_candidates(
                        generator, input_text, gen_config, schedule, instance_seed
                    )
                )
                scores = [
                    score_candidate(registry, pair.source.text, c.text, pair.context)
                    for c in cset.candidates
                ]
                for strategy in strategies:
                    result = select(
                        strategy,
                        pair.source.text,
                        cset,
                        scores,
                        weights=weights,
                        ranker=ranker,
                        seed=instance_seed,
                    )
                    record = selection_to_record(pair.pair_id, result)
                    rows.append(encode_line(record))
                    chosen[strategy.value] = result.chosen.text
            except Exception as exc:
                errors.append({"pair_id": pair.pair_id, "error": str(exc)})
                continue
            sel_fh.writelines(rows)
            for name, text in chosen.items():
                outputs[name].append(text)
            sel_fh.flush()
            done_instances.append(i)

    errors_path = out / "errors.jsonl"
    if errors:
        with open_atomic(errors_path) as fh:
            fh.writelines(encode_line(rec) for rec in errors)
        print(f"{len(errors)} instance(s) failed; see errors.jsonl", file=sys.stderr)
    else:
        # an earlier run's failures would contradict this run's report
        errors_path.unlink(missing_ok=True)

    artifacts = [selections_path]
    if done_instances:
        artifacts += _write_reports(
            out, s, embedder, [pairs[i] for i in done_instances], outputs,
            {
                "seed": seed,
                "config_hash": config_hash,
                "dataset_fingerprint": _sha256_file(pairs_path),
                "n_errors": len(errors),
                "strategies": [strategy.value for strategy in strategies],
                "context": s["context"],
                "n_candidates": s["n_candidates"],
            },
        )
        if (out / "ranker.json").is_file():
            artifacts.append(out / "ranker.json")
    return inputs, artifacts, 1 if errors else 0


# ---------------------------------------------------------------------------
# calibrate

def cmd_calibrate(s: dict, config_hash: str) -> tuple[dict[str, Path], list[Path], int]:
    chains_path = _require_file(s["chains"], "chains file")
    out = _out_dir(s["out"])
    registry = _build_registry(s, _embedder(s))
    chains = load_chains(chains_path)
    with _closing_adapters(registry):
        result = calibrate_weights(
            chains, registry, grid_step=s["grid_step"], range_lo=s["range_lo"],
            range_hi=s["range_hi"], aggregation=s["aggregation"],
        )
    save_calibration(out / "weights.json", result)
    write_json(
        out / "calibration.json",
        {
            "alpha": result.weights.alpha,
            "beta": result.weights.beta,
            "gamma": result.weights.gamma,
            "pearson_r": result.pearson_r,
            "grid_step": result.grid_step,
            "evaluated_points": result.evaluated_points,
            "range_lo": s["range_lo"],
            "range_hi": s["range_hi"],
            "aggregation": s["aggregation"],
        },
    )
    print(
        f"alpha={result.weights.alpha:.2f} beta={result.weights.beta:.2f} "
        f"gamma={result.weights.gamma:.2f} r={result.pearson_r:.4f} "
        f"grid={result.evaluated_points}"
    )
    return {"chains": chains_path}, [out / "weights.json", out / "calibration.json"], 0


# ---------------------------------------------------------------------------
# stats

def _percent_agreement(labels: dict[tuple[str, str], object]) -> float | None:
    """Fraction of agreeing unordered annotation pairs within items."""
    by_item: dict[str, list] = {}
    for (item, _), value in sorted(labels.items()):
        by_item.setdefault(item, []).append(value)
    agree = total = 0
    for values in by_item.values():
        for i in range(len(values)):
            for j in range(i + 1, len(values)):
                total += 1
                agree += values[i] == values[j]
    return agree / total if total else None


def _strategy_of(item_id: str) -> str | None:
    # item ids may carry the judged strategy as "<pair>::<strategy>"
    if "::" in item_id:
        return item_id.rsplit("::", 1)[1]
    return None


def cmd_stats(s: dict, config_hash: str) -> tuple[dict[str, Path], list[Path], int]:
    annotations_path = _require_file(s["annotations"], "annotations file")
    out = _out_dir(s["out"])
    mode = s["mode"]

    matrices, rankings = load_annotations(annotations_path)
    report: dict = {"fields": {}, "ranks": {}}

    for fld in sorted(matrices):
        matrix = matrices[fld]
        entry: dict = {}
        if mode in ("all", "agreement"):
            entry["krippendorff_alpha_ordinal"] = krippendorff_alpha(matrix, "ordinal")
            entry["krippendorff_alpha_nominal"] = krippendorff_alpha(matrix, "nominal")
            entry["percent_agreement"] = _percent_agreement(matrix.labels)
        if mode in ("all", "aggregate"):
            mace = mace_aggregate(
                matrix, iterations=s["mace_iterations"], restarts=s["mace_restarts"],
                smoothing=s["mace_smoothing"], seed=s["seed"],
            )
            competent = competent_workers(mace, s["competence_threshold"])
            per_strategy: dict[str, list[float]] = {}
            for item, label in mace.posterior_labels.items():
                strategy = _strategy_of(item)
                if strategy is not None:
                    per_strategy.setdefault(strategy, []).append(float(label))
            entry["mace"] = {
                "log_likelihood": mace.log_likelihood,
                "mean_competence": sum(mace.competence.values()) / len(mace.competence),
                "competent_workers": competent,
                "competent_fraction": len(competent) / len(mace.competence),
                "mean_posterior": sum(float(v) for v in mace.posterior_labels.values())
                / len(mace.posterior_labels),
                "per_strategy_mean": {
                    name: sum(vals) / len(vals) for name, vals in sorted(per_strategy.items())
                },
            }
        report["fields"][fld] = entry

    if rankings and mode in ("all", "ranks"):
        report["ranks"]["mean_rank"] = mean_rank(rankings)
        if s["strategy_pairs"]:
            per_item: dict[str, dict[str, list[float]]] = {}
            for ann in rankings:
                slot = per_item.setdefault(ann.item, {})
                for position, name in enumerate(ann.ranking, start=1):
                    slot.setdefault(name, []).append(position)
            tests = report["ranks"]["wilcoxon"] = {}
            for a, b in s["strategy_pairs"]:
                xs, ys = [], []
                for item in sorted(per_item):
                    ranks_a = per_item[item].get(a)
                    ranks_b = per_item[item].get(b)
                    if ranks_a and ranks_b:
                        xs.append(sum(ranks_a) / len(ranks_a))
                        ys.append(sum(ranks_b) / len(ranks_b))
                statistic, p_value = wilcoxon_signed_rank(xs, ys)
                tests[f"{a}_vs_{b}"] = {
                    "statistic": statistic,
                    "p_value": p_value,
                    "n_items": len(xs),
                }

    report["inputs"] = {"annotations_sha256": _sha256_file(annotations_path)}
    write_json(out / "stats_report.json", report)
    return {"annotations": annotations_path}, [out / "stats_report.json"], 0


# ---------------------------------------------------------------------------
# report

def cmd_report(s: dict, config_hash: str) -> tuple[dict[str, Path], list[Path], int]:
    selections_path = _require_file(s["selections"], "selections file")
    pairs_path = _require_file(s["pairs"], "pairs file")
    out = _out_dir(s["out"])
    pairs = load_pairs(pairs_path)
    by_pair = _read_selections(selections_path)
    strategies = sorted({name for by_s in by_pair.values() for name in by_s})
    usable = [p for p in pairs if sorted(by_pair.get(p.pair_id, {})) == strategies]
    if not usable:
        raise ConfigError("no pair has selections for every strategy")
    outputs = {name: [by_pair[p.pair_id][name]["chosen"] for p in usable] for name in strategies}
    artifacts = _write_reports(
        out,
        s,
        _embedder(s),
        usable,
        outputs,
        {
            "dataset_fingerprint": _sha256_file(pairs_path),
            "selections_fingerprint": _sha256_file(selections_path),
            "strategies": strategies,
        },
    )
    return {"selections": selections_path, "pairs": pairs_path}, artifacts, 0


# ---------------------------------------------------------------------------
# argument parsing

# Each command takes its settings and the config hash, and returns the
# inputs and artifacts for the manifest, and its exit code.
_COMMANDS = {
    "prepare": (cmd_prepare, "load chains, derive/label/filter/split pairs"),
    "run": (cmd_run, "generate, score, select, and evaluate"),
    "calibrate": (cmd_calibrate, "grid-search combination weights"),
    "stats": (cmd_stats, "annotation aggregation and significance"),
    "report": (cmd_report, "rebuild reports from persisted selections"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="claimpolish",
        description="Claim rewriting by candidate overgeneration and scored selection",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, command_help) in _COMMANDS.items():
        p = sub.add_parser(command, help=command_help)
        p.add_argument("--config", help="key = value config file")
        for key, (parse, _, flag_help) in _SETTINGS[command].items():
            if flag_help is not None:
                p.add_argument(
                    "--" + key.replace("_", "-"),
                    type=parse if parse in (int, float) else None,
                    choices=parse if isinstance(parse, tuple) else None,
                    help=flag_help,
                )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _merge_config(args)
        settings = _settings(args.command, config)
        started = time.time()
        inputs, artifacts, code = _COMMANDS[args.command][0](settings, _config_hash(config))
        _write_manifest(Path(settings["out"]), args.command, config, inputs, artifacts, started)
        return code
    except (ConfigError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
