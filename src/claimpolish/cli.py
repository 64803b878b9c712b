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
CLAIMPOLISH_MEANING_CMD, CLAIMPOLISH_ARGUMENT_CMD.
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
from pathlib import Path

from . import __version__
from .corpus import (
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
from .ndjson import decode_line, encode_line, read_jsonl, write_json
from .scoring import (
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

_CONTEXT_FLAG = {
    "none": ContextMode.CLAIM_ONLY,
    "previous": ContextMode.WITH_PREVIOUS,
    "topic": ContextMode.WITH_TOPIC,
    "both": ContextMode.WITH_BOTH,
}

_ENV_ADAPTERS = {
    "generator": "CLAIMPOLISH_GENERATOR_CMD",
    "fluency_scorer": "CLAIMPOLISH_FLUENCY_CMD",
    "meaning_scorer": "CLAIMPOLISH_MEANING_CMD",
    "argument_scorer": "CLAIMPOLISH_ARGUMENT_CMD",
}


class ConfigError(ValueError):
    pass


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


def _out_dir(config: dict[str, str]) -> Path:
    out = config.get("out")
    if not out:
        raise ConfigError("no output directory configured (--out)")
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _choice(config: dict[str, str], key: str, allowed: tuple[str, ...]) -> str:
    """``config[key]``, which must be one of ``allowed``; the first is the default."""
    value = config.get(key, allowed[0])
    if value not in allowed:
        raise ConfigError(f"unknown {key} {value!r} (choose from {', '.join(allowed)})")
    return value


def _metric_options(config: dict[str, str]) -> dict[str, str]:
    return {
        "bleu_mode": _choice(config, "bleu_mode", BLEU_MODES),
        "sari_variant": _choice(config, "sari_variant", SARI_VARIANTS),
    }


def _delimiters(config: dict[str, str]) -> DelimiterConfig:
    return DelimiterConfig(
        previous=config.get("prev_delimiter", "<PREV>"),
        topic=config.get("topic_delimiter", "<TOPIC>"),
    )


def _embedder(config: dict[str, str]) -> HashingEmbedder:
    return HashingEmbedder(
        dim=int(config.get("embed_dim", "256")), seed=int(config.get("embed_seed", "0"))
    )


def _build_generator(config: dict[str, str], delimiters: DelimiterConfig):
    spec = config.get("generator", "mock")
    if spec == "mock":
        return MockGenerator(delimiters=(delimiters.previous, delimiters.topic))
    if spec.startswith("stdio:"):
        return StdioGenerator(shlex.split(spec[len("stdio:") :]))
    raise ConfigError(f"unknown generator {spec!r}")


def _build_registry(config: dict[str, str], embedder) -> ScorerRegistry:
    def scorer_for(kind: str, default):
        spec = config.get(kind)
        if spec is None or spec == "heuristic":
            return default
        if spec == "jaccard" and kind == "meaning_scorer":
            return JaccardMeaningScorer()
        if spec == "cosine" and kind == "meaning_scorer":
            return CosineMeaningScorer(embedder)
        if spec.startswith("stdio:"):
            rng = (-1.0, 1.0) if kind == "meaning_scorer" else (0.0, 1.0)
            return StdioScorer(shlex.split(spec[len("stdio:") :]), output_range=rng)
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
    out: Path, metric_options: dict, embedder, pairs: list, outputs: dict, metadata: dict
) -> list[Path]:
    """Evaluate each strategy's outputs on ``pairs``; write report.json and report.csv."""
    instances = [
        EvalInstance(
            source=p.source.text,
            output=p.source.text,  # placeholder, replaced per strategy
            references=(p.reference.text,),
            context=p.context,
        )
        for p in pairs
    ]
    reports = evaluate_run(instances, outputs, embedder, **metric_options)
    payload = {
        "metadata": {**metadata, "n_instances": len(instances)},
        "reports": {name: reports[name].to_payload() for name in sorted(reports)},
    }
    write_json(out / "report.json", payload)
    write_report_csv({name: reports[name] for name in sorted(reports)}, out / "report.csv")
    return [out / "report.json", out / "report.csv"]


def _parse_strategies(text: str | None) -> list[Strategy]:
    if not text or text == "all":
        return list(Strategy)
    strategies = []
    for name in text.split(","):
        name = name.strip()
        if not name:
            continue
        try:
            strategies.append(Strategy(name))
        except ValueError:
            raise ConfigError(f"unknown strategy {name!r}") from None
    if not strategies:
        raise ConfigError("empty strategy list")
    return strategies


# ---------------------------------------------------------------------------
# prepare

def cmd_prepare(config: dict[str, str]) -> int:
    started = time.time()
    chains_path = _require_file(config.get("chains"), "chains file")
    out = _out_dir(config)
    seed = int(config.get("seed", "0"))
    per_label_test = int(config.get("per_label_test", "200"))
    train_fraction = float(config.get("train_fraction", "0.9"))
    granularity = config.get("granularity", "chain")

    chains = load_chains(chains_path)
    pairs = [pair for chain in chains for pair in derive_pairs(chain)]
    n_derived = len(pairs)

    labeler_kind = config.get("labeler", "majority")
    if labeler_kind == "majority":
        pairs = relabel_pairs(pairs, majority_labeler(pairs))
    elif labeler_kind != "none":
        raise ConfigError(f"unknown labeler {labeler_kind!r}")

    allowed_text = config.get("filter_intents")
    if allowed_text:
        allowed = frozenset(IntentLabel(v.strip()) for v in allowed_text.split(","))
    else:
        allowed = TASK_INTENTS
    filtered = filter_by_intent(pairs, allowed)

    split = split_dataset(
        filtered,
        per_label_test=per_label_test,
        train_fraction=train_fraction,
        seed=seed,
        granularity=granularity,
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
            if line.strip() and decode_line(line).get("chain_id") in validation_chain_ids:
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

    artifacts = [
        out / "pairs.jsonl",
        out / "train.jsonl",
        out / "validation.jsonl",
        out / "test.jsonl",
        out / "validation_chains.jsonl",
        out / "counts.json",
    ]
    _write_manifest(out, "prepare", config, {"chains": chains_path}, artifacts, started)
    print(json.dumps(counts, sort_keys=True))
    return 0


# ---------------------------------------------------------------------------
# run

def _read_selections(path: Path) -> dict[str, dict[str, dict]]:
    """selections.jsonl records as {pair_id: {strategy: record}}; a
    repeated (pair, strategy) keeps its last record."""
    by_pair: dict[str, dict[str, dict]] = {}
    for _, rec in read_jsonl(path, required=("pair_id", "strategy", "chosen")):
        by_pair.setdefault(rec["pair_id"], {})[rec["strategy"]] = rec
    return by_pair


def _load_checkpoint(
    selections_path: Path, strategies: list[Strategy]
) -> dict[str, dict[str, dict]]:
    """Records of complete instances from an interrupted run, keyed by pair."""
    if not selections_path.is_file():
        return {}
    wanted = {s.value for s in strategies}
    by_pair = _read_selections(selections_path)
    return {pid: by_s for pid, by_s in by_pair.items() if set(by_s) == wanted}


def cmd_run(config: dict[str, str]) -> int:
    started = time.time()
    pairs_path = _require_file(config.get("pairs"), "pairs file")
    out = _out_dir(config)
    seed = int(config.get("seed", "0"))
    n_candidates = int(config.get("n_candidates", "10"))
    context_mode = _CONTEXT_FLAG[_choice(config, "context", tuple(_CONTEXT_FLAG))]
    metric_options = _metric_options(config)
    strategies = _parse_strategies(config.get("strategies"))
    delimiters = _delimiters(config)
    embedder = _embedder(config)

    pairs = load_pairs(pairs_path)
    if not pairs:
        raise ConfigError(f"no pairs in {pairs_path}")

    generator = _build_generator(config, delimiters)
    registry = _build_registry(config, embedder)
    gen_config = GenerationConfig(n_candidates=n_candidates)
    schedule = make_schedule(n_candidates)

    if config.get("weights"):
        weights = load_weights(_require_file(config["weights"], "weights file"))
    else:
        weights = DEFAULT_WEIGHTS

    ranker = None
    inputs: dict[str, Path] = {"pairs": pairs_path}
    if Strategy.PAIRWISE_RANK in strategies:
        if config.get("ranker"):
            ranker_path = _require_file(config["ranker"], "ranker file")
            ranker = load_ranker(ranker_path)
            inputs["ranker"] = ranker_path
        elif config.get("train_pairs"):
            train_path = _require_file(config["train_pairs"], "ranker training pairs")
            inputs["train_pairs"] = train_path
            text_pairs = [
                (p.source.text, p.reference.text)
                for p in load_pairs(train_path)
                if p.source.text != p.reference.text
            ]
            if not text_pairs:
                raise ConfigError(f"no usable ranker training pairs in {train_path}")
            ranker = train_pairwise_ranker(
                text_pairs,
                embedder,
                RankerHyperparams(seed=int(config.get("ranker_seed", str(seed)))),
            )
            save_ranker(out / "ranker.json", ranker)
        else:
            raise ConfigError(
                "pairwise_rank strategy needs either a ranker file or train_pairs"
            )

    selections_path = out / "selections.jsonl"
    checkpoint = _load_checkpoint(selections_path, strategies)
    # rewrite only the complete instances, in pairs-file order, then resume
    outputs: dict[str, list[str]] = {s.value: [] for s in strategies}
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
        with open(errors_path, "w", encoding="utf-8") as fh:
            fh.writelines(encode_line(rec) for rec in errors)
    else:
        # an earlier run's failures would contradict this run's report
        errors_path.unlink(missing_ok=True)

    artifacts = [selections_path]
    if done_instances:
        artifacts += _write_reports(
            out,
            metric_options,
            embedder,
            [pairs[i] for i in done_instances],
            outputs,
            {
                "seed": seed,
                "config_hash": _config_hash(config),
                "dataset_fingerprint": _sha256_file(pairs_path),
                "n_errors": len(errors),
                "strategies": [s.value for s in strategies],
                "context": config.get("context", "none"),
                "n_candidates": n_candidates,
            },
        )
        if (out / "ranker.json").is_file():
            artifacts.append(out / "ranker.json")

    _write_manifest(out, "run", config, inputs, artifacts, started)
    if errors:
        print(f"{len(errors)} instance(s) failed; see errors.jsonl", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# calibrate

def cmd_calibrate(config: dict[str, str]) -> int:
    started = time.time()
    chains_path = _require_file(config.get("chains"), "chains file")
    out = _out_dir(config)
    embedder = _embedder(config)
    registry = _build_registry(config, embedder)
    chains = load_chains(chains_path)
    with _closing_adapters(registry):
        result = calibrate_weights(
            chains,
            registry,
            grid_step=float(config.get("grid_step", "0.01")),
            range_lo=float(config.get("range_lo", "0.01")),
            range_hi=float(config.get("range_hi", "0.98")),
            aggregation=config.get("aggregation", "pooled"),
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
            "range_lo": float(config.get("range_lo", "0.01")),
            "range_hi": float(config.get("range_hi", "0.98")),
            "aggregation": config.get("aggregation", "pooled"),
        },
    )
    _write_manifest(
        out,
        "calibrate",
        config,
        {"chains": chains_path},
        [out / "weights.json", out / "calibration.json"],
        started,
    )
    print(
        f"alpha={result.weights.alpha:.2f} beta={result.weights.beta:.2f} "
        f"gamma={result.weights.gamma:.2f} r={result.pearson_r:.4f} "
        f"grid={result.evaluated_points}"
    )
    return 0


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


def cmd_stats(config: dict[str, str]) -> int:
    started = time.time()
    annotations_path = _require_file(config.get("annotations"), "annotations file")
    out = _out_dir(config)
    mode = config.get("mode", "all")
    if mode not in ("all", "aggregate", "agreement", "ranks"):
        raise ConfigError(f"unknown mode {mode!r}")
    seed = int(config.get("seed", "0"))
    iterations = int(config.get("mace_iterations", "50"))
    restarts = int(config.get("mace_restarts", "10"))
    smoothing = float(config.get("mace_smoothing", "0.1"))
    threshold = float(config.get("competence_threshold", "0.3"))

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
                matrix,
                iterations=iterations,
                restarts=restarts,
                smoothing=smoothing,
                seed=seed,
            )
            competent = competent_workers(mace, threshold)
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
                    s: sum(vals) / len(vals) for s, vals in sorted(per_strategy.items())
                },
            }
        report["fields"][fld] = entry

    if rankings and mode in ("all", "ranks"):
        report["ranks"]["mean_rank"] = mean_rank(rankings)
        pair_text = config.get("strategy_pairs", "")
        tests = {}
        if pair_text:
            per_item: dict[str, dict[str, list[float]]] = {}
            for ann in rankings:
                slot = per_item.setdefault(ann.item, {})
                for position, name in enumerate(ann.ranking, start=1):
                    slot.setdefault(name, []).append(position)
            for spec_pair in pair_text.split(","):
                a, _, b = spec_pair.strip().partition(":")
                if not a or not b:
                    raise ConfigError(f"bad strategy pair {spec_pair!r} (want A:B)")
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
        if tests:
            report["ranks"]["wilcoxon"] = tests

    report["inputs"] = {"annotations_sha256": _sha256_file(annotations_path)}
    write_json(out / "stats_report.json", report)
    _write_manifest(
        out,
        "stats",
        config,
        {"annotations": annotations_path},
        [out / "stats_report.json"],
        started,
    )
    return 0


# ---------------------------------------------------------------------------
# report

def cmd_report(config: dict[str, str]) -> int:
    started = time.time()
    selections_path = _require_file(config.get("selections"), "selections file")
    pairs_path = _require_file(config.get("pairs"), "pairs file")
    metric_options = _metric_options(config)
    out = _out_dir(config)
    pairs = load_pairs(pairs_path)
    by_pair = _read_selections(selections_path)
    strategies = sorted({s for by_s in by_pair.values() for s in by_s})
    usable = [p for p in pairs if sorted(by_pair.get(p.pair_id, {})) == strategies]
    if not usable:
        raise ConfigError("no pair has selections for every strategy")
    outputs = {s: [by_pair[p.pair_id][s]["chosen"] for p in usable] for s in strategies}
    artifacts = _write_reports(
        out,
        metric_options,
        _embedder(config),
        usable,
        outputs,
        {
            "dataset_fingerprint": _sha256_file(pairs_path),
            "selections_fingerprint": _sha256_file(selections_path),
            "strategies": strategies,
        },
    )
    _write_manifest(
        out,
        "report",
        config,
        {"selections": selections_path, "pairs": pairs_path},
        artifacts,
        started,
    )
    return 0


# ---------------------------------------------------------------------------
# argument parsing

def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key = value config file")
    parser.add_argument("--seed", type=int, help="random seed")
    parser.add_argument("--out", help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="claimpolish",
        description="Claim rewriting by candidate overgeneration and scored selection",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prepare", help="load chains, derive/label/filter/split pairs")
    _add_common(p)
    p.add_argument("--chains", help="chains.jsonl input")
    p.add_argument("--per-label-test", dest="per_label_test", type=int)
    p.add_argument("--train-fraction", dest="train_fraction", type=float)
    p.add_argument("--granularity", choices=["chain", "pair"])

    p = sub.add_parser("run", help="generate, score, select, and evaluate")
    _add_common(p)
    p.add_argument("--pairs", help="test pairs.jsonl")
    p.add_argument("--context", choices=sorted(_CONTEXT_FLAG))
    p.add_argument("--strategies", help="comma list or 'all'")
    p.add_argument("--n-candidates", dest="n_candidates", type=int)
    p.add_argument("--weights", help="weights.json from calibrate")
    p.add_argument("--train-pairs", dest="train_pairs", help="pairs for ranker training")
    p.add_argument("--ranker", help="previously trained ranker.json")

    p = sub.add_parser("calibrate", help="grid-search combination weights")
    _add_common(p)
    p.add_argument("--chains", help="validation chains.jsonl")
    p.add_argument("--grid-step", dest="grid_step", type=float)
    p.add_argument("--range-lo", dest="range_lo", type=float)
    p.add_argument("--range-hi", dest="range_hi", type=float)
    p.add_argument("--aggregation", choices=["pooled", "per_chain"])

    p = sub.add_parser("stats", help="annotation aggregation and significance")
    _add_common(p)
    p.add_argument("--annotations", help="annotations.jsonl")
    p.add_argument("--mode", choices=["all", "aggregate", "agreement", "ranks"])
    p.add_argument("--strategy-pairs", dest="strategy_pairs", help="A:B,C:D pairs to test")

    p = sub.add_parser("report", help="rebuild reports from persisted selections")
    _add_common(p)
    p.add_argument("--selections", help="selections.jsonl from a run")
    p.add_argument("--pairs", help="the pairs file the run used")

    return parser


_COMMANDS = {
    "prepare": cmd_prepare,
    "run": cmd_run,
    "calibrate": cmd_calibrate,
    "stats": cmd_stats,
    "report": cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _merge_config(args)
        return _COMMANDS[args.command](config)
    except (ConfigError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
