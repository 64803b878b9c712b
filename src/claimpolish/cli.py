"""Command-line pipeline driver.

Subcommands: ``prepare`` (chains -> labeled, filtered, split pairs),
``run`` (generate, score, select, evaluate), ``calibrate`` (grid-search
combination weights on validation chains), ``stats`` (annotation
aggregation and significance), ``report`` (rebuild metric reports from
persisted selections). Every command is deterministic given its config
and seed, writes only under its output directory, and drops a
manifest.json fingerprinting inputs and emitted artifacts.

Config files are plain ``key = value`` lines (# comments). CLI flags
override file values, and nothing else sets a key: adapters are named
by their config keys only. ``_SETTINGS`` holds each command's keys with
their types and defaults; it also generates the flags. A key that no
command reads is an error.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import functools
import hashlib
import json
import os
import shlex
import shutil
import sys
import time
from collections.abc import Callable
from dataclasses import asdict, dataclass
from pathlib import Path

from . import __version__
from .corpus import (
    ContextMode,
    MissingContextError,
    OptimizationPair,
    TASK_INTENTS,
    derive_pairs,
    filter_by_intent,
    load_chains,
    load_pairs,
    majority_intent,
    relabel_pairs,
    serialize_input,
    split_dataset,
    write_pairs,
)
from .embedding import HashingEmbedder
from .evalstats import (
    krippendorff_alpha,
    load_annotations,
    mace_aggregate,
    mace_summary,
    mean_rank,
    percent_agreement,
    wilcoxon_signed_rank,
)
from .genkit import (
    GenerationConfig,
    GenerationError,
    MockGenerator,
    StdioGenerator,
    dedup,
    generate_candidates,
)
from .metrics import (
    BLEU_MODES,
    SARI_VARIANTS,
    ReportTotals,
    evaluate_run,
    score_instance,
    write_report_csv,
)
from .ndjson import decode_line, encode_line, open_atomic, read_jsonl, write_json
from .scoring import (
    CosineMeaningScorer,
    DEFAULT_WEIGHTS,
    ScorerError,
    ScorerRegistry,
    StdioScorer,
    Weights,
    calibrate_weights,
    default_registry,
    load_weights,
    save_calibration,
    score_candidate,
)
from .selection import (
    COLUMNS,
    PairwiseRanker,
    Strategy,
    load_ranker,
    save_ranker,
    score_columns,
    select,
    train_pairwise_ranker,
)


class ConfigError(ValueError):
    pass


def _parse_strategies(text: str) -> tuple[Strategy, ...]:
    if text == "all":
        return tuple(Strategy)
    strategies = tuple(Strategy(name.strip()) for name in text.split(",") if name.strip())
    if not strategies:
        raise ValueError("empty strategy list")
    for i, strategy in enumerate(strategies):
        if strategy in strategies[:i]:
            raise ValueError(f"strategy {strategy.value!r} is listed twice")
    return strategies


def _parse_strategy_pairs(text: str) -> tuple[tuple[str, str], ...]:
    pairs = []
    for spec_pair in text.split(",") if text else ():
        a, _, b = spec_pair.partition(":")
        a, b = a.strip(), b.strip()
        if not a or not b:
            raise ValueError(f"bad strategy pair {spec_pair!r} (want A:B)")
        if a == b:
            raise ValueError(f"strategy pair {spec_pair!r} compares {a!r} with itself")
        pairs.append((a, b))
    return tuple(pairs)


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise ValueError(f"must be >= 0, got {value}")
    return value


# argparse type of each parse that has one: a flag's config string (and the
# config hash) is the converted value's str
_FLAG_TYPES = {int: int, float: float, _non_negative_int: int}

# Each command's config keys: key -> (parse, default, flag help). A tuple
# parse lists the allowed values, the default first. A key whose help is
# None is read from the config file only.
_SHARED = {
    "seed": (_non_negative_int, 0, "random seed"),
    "out": (str, None, "output directory"),
}
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
        "generator": (str, "mock", None),
        **_SCORERS,
        **_METRICS,
    },
    "calibrate": {
        **_SHARED,
        "chains": (str, None, "validation chains.jsonl"),
        "grid_step": (float, 0.01, "weight grid step"),
        "range_lo": (float, 0.01, "smallest weight on the grid"),
        "range_hi": (float, 0.98, "largest weight on the grid"),
        **_SCORERS,
    },
    "stats": {
        **_SHARED,
        "annotations": (str, None, "annotations.jsonl"),
        "strategy_pairs": (_parse_strategy_pairs, (), "A:B,C:D pairs to test"),
        "mace_iterations": (int, 50, None),
        "mace_restarts": (int, 10, None),
    },
    "report": {
        **_SHARED,
        "selections": (str, None, "selections.jsonl from a run"),
        "pairs": (str, None, "the pairs file the run used"),
        **_METRICS,
    },
}


def read_config_file(path: str | Path) -> dict[str, str]:
    values: dict[str, str] = {}
    key_lines: dict[str, int] = {}
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ConfigError(f"{path}:{line_no}: expected key = value")
            key, _, value = stripped.partition("=")
            key = key.strip()
            if key in key_lines:
                raise ConfigError(f"{path}:{line_no}: key {key!r} repeats line {key_lines[key]}")
            key_lines[key] = line_no
            values[key] = value.strip()
    return values


def _merge_config(args: argparse.Namespace) -> dict[str, str]:
    """File config, overridden by CLI flags.

    Every option of the subcommand is a config key under its dest name.
    """
    merged: dict[str, str] = {}
    if args.config:
        merged.update(read_config_file(_require_file(args.config, "config file")))
    for key, value in vars(args).items():
        if key not in ("command", "config") and value is not None:
            merged[key] = str(value)
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
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"output directory {path}: {exc.strerror}") from None
    return path


def _stdio_command(key: str, spec: str) -> list[str]:
    """The command of a ``stdio:CMD`` adapter spec; ConfigError names
    ``key`` when CMD does not split, is empty or its program is not on PATH."""
    try:
        command = shlex.split(spec[len("stdio:") :])
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from None
    if not command:
        raise ConfigError(f"{key}: no command after 'stdio:'")
    if shutil.which(command[0]) is None:
        raise ConfigError(f"{key}: program {command[0]!r} not found")
    return command


def _build_generator(s: dict):
    spec = s["generator"]
    if spec == "mock":
        return MockGenerator()
    if spec.startswith("stdio:"):
        return StdioGenerator(_stdio_command("generator", spec))
    raise ConfigError(f"unknown generator {spec!r}")


def _build_registry(s: dict, embedder) -> ScorerRegistry:
    defaults = default_registry()

    def scorer_for(kind: str, default):
        spec = s[kind]
        if spec == "heuristic":
            return default
        if spec == "cosine" and kind == "meaning_scorer":
            return CosineMeaningScorer(embedder)
        if spec.startswith("stdio:"):
            return StdioScorer(_stdio_command(kind, spec))
        raise ConfigError(f"unknown {kind} {spec!r}")

    return ScorerRegistry(
        fluency=scorer_for("fluency_scorer", defaults.fluency),
        meaning=scorer_for("meaning_scorer", defaults.meaning),
        argument=scorer_for("argument_scorer", defaults.argument),
    )


@contextlib.contextmanager
def _closing_adapters(registry: ScorerRegistry, generator=None):
    """On the way out, close the generator and scorers that have ``close()``:
    each of them, in that order, even when an earlier one fails."""
    adapters = [generator, *(scorer for _, scorer in registry.items())]
    with contextlib.ExitStack() as stack:
        for adapter in reversed(adapters):  # the stack closes the last one pushed first
            if hasattr(adapter, "close"):
                stack.callback(adapter.close)
        yield


def _write_reports(out: Path, reports: dict, metadata: dict) -> list[Path]:
    """Write each strategy's MetricReport to report.json and report.csv."""
    payload = {
        "metadata": metadata,
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
    pairs = relabel_pairs(pairs, majority_intent(pairs))
    filtered = filter_by_intent(pairs, TASK_INTENTS)

    split = split_dataset(
        filtered, per_label_test=s["per_label_test"], train_fraction=s["train_fraction"],
        seed=s["seed"],
    )

    write_pairs(pairs, out / "pairs.jsonl")
    write_pairs(split.train, out / "train.jsonl")
    write_pairs(split.validation, out / "validation.jsonl")
    write_pairs(split.test, out / "test.jsonl")

    # chains whose pairs ended up in validation, for weight calibration
    validation_chain_ids = {p.chain_id for p in split.validation}
    with open_atomic(out / "validation_chains.jsonl") as fh, open(
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

def _stored(record: dict) -> tuple[str, str]:
    """A selections.jsonl record as the line that stores it and its ``chosen``."""
    return encode_line(record), record["chosen"]


def _read_selections(path: Path, keep: Callable[[dict], object]) -> dict[str, dict]:
    """selections.jsonl as {pair_id: {strategy: keep(record)}}; a repeated
    (pair, strategy) keeps its last record."""

    def parse(rec: dict) -> tuple:
        for key in ("pair_id", "strategy", "chosen"):
            if not isinstance(rec[key], str):
                raise ValueError(f"{key!r} must be a string, got {rec[key]!r}")
        if not rec["chosen"].strip():
            raise ValueError("'chosen' must not be blank")
        return rec["pair_id"], rec["strategy"], keep(rec)

    by_pair: dict[str, dict] = {}
    for pair_id, strategy, kept in read_jsonl(path, ("pair_id", "strategy", "chosen"), parse):
        by_pair.setdefault(pair_id, {})[strategy] = kept
    return by_pair


def _load_checkpoint(
    selections_path: Path, strategies: tuple[Strategy, ...]
) -> dict[str, dict[str, tuple[str, str]]]:
    """Stored rows of complete instances from an interrupted run, keyed by pair.

    ``encode_line`` ends every row with a newline, so a last line without
    one is a row torn by the interruption. It is cut off before reading,
    a line at a time: the resumed run rewrites the file anyway.
    """
    if not selections_path.is_file():
        return {}
    with open(selections_path, "rb+") as fh:
        fh.truncate(sum(len(line) for line in fh if line.endswith(b"\n")))
    wanted = {s.value for s in strategies}
    by_pair = _read_selections(selections_path, _stored)
    return {pid: by_s for pid, by_s in by_pair.items() if set(by_s) == wanted}


def _instance_records(pair, candidates, columns, picks) -> dict[str, dict]:
    """One instance's selections.jsonl records, by strategy name in ``picks``
    order. A record's ``combined`` is its strategy's column; ``unedited``,
    ``top1`` and ``random`` record ``autoscore``."""
    source = pair.source
    table = list(zip(candidates, columns["fluency"], columns["meaning"], columns["argument"]))
    records = {}
    for strategy, position in picks.items():
        chosen = source if position < 0 else candidates[position].text
        combined = columns[COLUMNS.get(strategy, "autoscore")]
        records[strategy.value] = {
            "pair_id": pair.pair_id,
            "strategy": strategy.value,
            "chosen": chosen,
            "edited": chosen != source,
            "scores": [
                {"text": c.text, "fluency": f, "meaning": m, "argument": a, "combined": x}
                for (c, f, m, a), x in zip(table, combined)
            ],
        }
    return records


# How a stage-A instance may fail without ending the run: its adapters fail
# or its pair lacks a context field the generator input needs. In stage B,
# only ``select`` may fail an instance (``top1`` with no greedy candidate).
_STAGE_A_FAILURES = (GenerationError, ScorerError, MissingContextError)


@dataclass(frozen=True)
class _Job:
    """One instance for stage B: a resumed instance's stored rows by
    strategy, a fresh one's candidates and their scores, or the error
    that ended it in stage A."""

    pair: OptimizationPair
    seed: int
    stored: dict[str, tuple[str, str]] | None = None
    candidates: tuple = ()
    scores: tuple = ()
    error: str | None = None


@dataclass(frozen=True)
class _Finisher:
    """Stage B of one instance: ``score_columns``, each strategy's pick,
    the instance's selections.jsonl lines and its evaluation rows.

    It calls no adapter, so it runs in a worker process or inline with
    the same result.
    """

    weights: Weights
    ranker: PairwiseRanker | None
    strategies: tuple[Strategy, ...]
    embedder: HashingEmbedder
    bleu_mode: str
    sari_variant: str

    def __call__(self, job: _Job) -> tuple[str, dict] | dict:
        """``(lines, {strategy: one-row total})`` of a finished instance, or
        the errors.jsonl record of a failed one."""
        pair = job.pair
        if job.error is not None:
            return {"pair_id": pair.pair_id, "error": job.error}
        by_strategy = job.stored
        if by_strategy is None:
            columns = score_columns(job.candidates, job.scores, self.weights, self.ranker)
            try:
                picks = {
                    strategy: select(strategy, job.candidates, columns, seed=job.seed)
                    for strategy in self.strategies
                }
            except ValueError as exc:
                return {"pair_id": pair.pair_id, "error": str(exc)}
            records = _instance_records(pair, job.candidates, columns, picks)
            by_strategy = {name: _stored(record) for name, record in records.items()}
        lines = "".join(by_strategy[strategy.value][0] for strategy in self.strategies)
        chosen = {strategy.value: by_strategy[strategy.value][1] for strategy in self.strategies}
        return lines, score_instance(pair, chosen, self.embedder, self.bleu_mode, self.sari_variant)


_finisher: _Finisher | None = None  # a worker process's stage B, set by _start_worker


def _start_worker(finisher: _Finisher) -> None:
    global _finisher
    _finisher = finisher


def _finish_chunk(jobs: list[_Job]) -> list:
    return [_finisher(job) for job in jobs]


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@contextlib.contextmanager
def _finishing(finisher: _Finisher, n_jobs: int):
    """A function from an iterable of jobs to their stage-B results, in
    job order.

    With several usable CPUs, several jobs and ``fork``, one forked worker
    process per CPU (at most one per job) runs ``finisher`` on chunks of
    jobs, while the jobs' stage A still runs here. Otherwise ``finisher``
    runs inline. The pool is shut down on the way out.
    """
    workers = min(_usable_cpus(), n_jobs)
    if workers < 2 or not hasattr(os, "fork"):
        yield functools.partial(map, finisher)
        return
    # imported only here: they take 15-25 ms, which a one-instance run is spared
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(
        workers, multiprocessing.get_context("fork"), initializer=_start_worker,
        initargs=(finisher,),
    )
    # several chunks per worker, and few instances in each: the chunks in
    # flight hold their instances' stage-A output and results in this process
    chunksize = max(1, min(8, n_jobs // (8 * workers)))

    def finish(jobs):
        pending: collections.deque = collections.deque()
        chunk: list[_Job] = []
        for job in jobs:
            chunk.append(job)
            if len(chunk) == chunksize:
                pending.append(pool.submit(_finish_chunk, chunk))
                chunk = []
            # stage A waits once each worker has a chunk queued behind its
            # current one, so this process holds few instances at a time
            while pending and (pending[0].done() or len(pending) > 2 * workers):
                yield from pending.popleft().result()
        if chunk:
            pending.append(pool.submit(_finish_chunk, chunk))
        while pending:
            yield from pending.popleft().result()

    try:
        yield finish
    finally:
        pool.shutdown(cancel_futures=True)


def cmd_run(s: dict, config_hash: str) -> tuple[dict[str, Path], list[Path], int]:
    pairs_path = _require_file(s["pairs"], "pairs file")
    out = _out_dir(s["out"])
    seed, strategies = s["seed"], s["strategies"]
    embedder = HashingEmbedder()

    pairs = load_pairs(pairs_path)
    if not pairs:
        raise ConfigError(f"no pairs in {pairs_path}")

    generator = _build_generator(s)
    registry = _build_registry(s, embedder)

    if s["weights"]:
        weights = load_weights(_require_file(s["weights"], "weights file"))
    else:
        weights = DEFAULT_WEIGHTS
    gen_config = GenerationConfig(n_candidates=s["n_candidates"])

    ranker = None
    text_pairs: list[tuple[str, str]] = []  # ranker training pairs, if this run trains
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
                (p.source, p.reference) for p in load_pairs(train_path) if p.source != p.reference
            ]
            if not text_pairs:
                raise ConfigError(f"no usable ranker training pairs in {train_path}")
        else:
            raise ConfigError(
                "pairwise_rank strategy needs either a ranker file or train_pairs"
            )
    selections_path = out / "selections.jsonl"
    checkpoint = _load_checkpoint(selections_path, strategies)
    if text_pairs:
        # after every input check, so a run that exits 2 leaves ranker.json alone
        ranker = train_pairwise_ranker(text_pairs, embedder, seed)
        save_ranker(out / "ranker.json", ranker)

    context_mode = ContextMode(s["context"])

    def jobs():
        # stage A, here, in the process that owns the adapters: serialize ->
        # generate -> dedup -> score; complete instances of the checkpoint
        # are reused
        for i, pair in enumerate(pairs):
            resumed = checkpoint.get(pair.pair_id)
            if resumed is not None:
                yield _Job(pair, seed + i, stored=resumed)
                continue
            try:
                input_text = serialize_input(pair, context_mode)
                generated = generate_candidates(generator, input_text, gen_config, seed + i)
                candidates = dedup(generated).candidates
                scores = tuple(
                    score_candidate(registry, pair.source, c.text, pair.context)
                    for c in candidates
                )
            except _STAGE_A_FAILURES as exc:
                yield _Job(pair, seed + i, error=str(exc))
            else:
                yield _Job(pair, seed + i, candidates=candidates, scores=scores)

    finisher = _Finisher(
        weights, ranker, strategies, embedder, s["bleu_mode"], s["sari_variant"]
    )
    totals = ReportTotals()
    errors: list[dict] = []
    # rewrite only the complete instances, in pairs-file order, then resume.
    # The pool stops before the adapters close: a worker forked after an
    # adapter child started holds that child's pipes, so the child would not
    # see EOF while the worker lives.
    with (
        _closing_adapters(registry, generator),
        _finishing(finisher, len(pairs)) as finish,
        open(selections_path, "w", encoding="utf-8") as sel_fh,
    ):
        for result in finish(jobs()):
            if isinstance(result, dict):
                errors.append(result)
                continue
            lines, chosen_rows = result
            sel_fh.write(lines)
            sel_fh.flush()
            totals.add(chosen_rows)

    artifacts = [selections_path]
    errors_path = out / "errors.jsonl"
    if errors:
        with open_atomic(errors_path) as fh:
            fh.writelines(encode_line(rec) for rec in errors)
        print(f"{len(errors)} instance(s) failed; see errors.jsonl", file=sys.stderr)
        artifacts.append(errors_path)
    else:
        # an earlier run's failures would contradict this run's report
        errors_path.unlink(missing_ok=True)

    n_done = len(pairs) - len(errors)
    if not n_done:
        # an earlier run's report would describe outputs this run did not produce
        for name in ("report.json", "report.csv"):
            (out / name).unlink(missing_ok=True)
    else:
        artifacts += _write_reports(
            out, totals.reports(),
            {
                "seed": seed,
                "config_hash": config_hash,
                "dataset_fingerprint": _sha256_file(pairs_path),
                "n_errors": len(errors),
                "strategies": [strategy.value for strategy in strategies],
                "context": s["context"],
                "n_candidates": s["n_candidates"],
                "n_instances": n_done,
            },
        )
    if text_pairs:  # not a ranker.json an earlier run left in ``out``
        artifacts.append(out / "ranker.json")
    return inputs, artifacts, 1 if errors else 0


# ---------------------------------------------------------------------------
# calibrate

def cmd_calibrate(s: dict, config_hash: str) -> tuple[dict[str, Path], list[Path], int]:
    chains_path = _require_file(s["chains"], "chains file")
    out = _out_dir(s["out"])
    registry = _build_registry(s, HashingEmbedder())
    chains = load_chains(chains_path)
    with _closing_adapters(registry):
        result = calibrate_weights(
            chains, registry, grid_step=s["grid_step"], range_lo=s["range_lo"],
            range_hi=s["range_hi"],
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

def cmd_stats(s: dict, config_hash: str) -> tuple[dict[str, Path], list[Path], int]:
    annotations_path = _require_file(s["annotations"], "annotations file")
    out = _out_dir(s["out"])

    matrices, rankings = load_annotations(annotations_path)
    ranked = {name for ann in rankings for name in ann.ranking}
    unknown = [name for pair in s["strategy_pairs"] for name in pair if name not in ranked]
    if unknown:
        raise ConfigError(f"strategy {unknown[0]!r} is in no ranking")
    report: dict = {"fields": {}, "ranks": {}}

    if rankings:
        report["ranks"]["mean_rank"] = mean_rank(rankings)
    if s["strategy_pairs"]:  # so there are rankings, and all rank the same strategies
        by_item: dict[str, list] = {}
        for ann in rankings:
            by_item.setdefault(ann.item, []).append(ann)
        item_ranks = [mean_rank(by_item[item]) for item in sorted(by_item)]
        tests = report["ranks"]["wilcoxon"] = {}
        for a, b in s["strategy_pairs"]:
            xs, ys = [ranks[a] for ranks in item_ranks], [ranks[b] for ranks in item_ranks]
            try:
                statistic, p_value = wilcoxon_signed_rank(xs, ys)
            except ValueError as exc:
                raise ValueError(f"strategy pair {a}:{b}: {exc}") from None
            tests[f"{a}_vs_{b}"] = {"statistic": statistic, "p_value": p_value, "n_items": len(xs)}

    # every field's alphas before any MACE fit, so a field without them
    # ends the command before the fits' time is spent
    for fld in sorted(matrices):
        try:
            report["fields"][fld] = {
                f"krippendorff_alpha_{level}": krippendorff_alpha(matrices[fld], level)
                for level in ("ordinal", "nominal")
            }
        except ValueError as exc:
            raise ValueError(f"{fld}: {exc}") from None
    for fld, entry in report["fields"].items():
        matrix = matrices[fld]
        mace = mace_aggregate(
            matrix, iterations=s["mace_iterations"], restarts=s["mace_restarts"], seed=s["seed"]
        )
        entry["percent_agreement"] = percent_agreement(matrix.labels)
        entry["mace"] = mace_summary(mace)

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
    by_pair = _read_selections(selections_path, lambda rec: rec["chosen"])
    if not by_pair:
        raise ConfigError(f"no selections in {selections_path}")
    strategies = sorted({name for by_s in by_pair.values() for name in by_s})
    usable = [p for p in pairs if sorted(by_pair.get(p.pair_id, {})) == strategies]
    if not usable:
        raise ConfigError("no pair has selections for every strategy")
    outputs = {name: [by_pair[p.pair_id][name] for p in usable] for name in strategies}
    reports = evaluate_run(
        usable, outputs, HashingEmbedder(),
        bleu_mode=s["bleu_mode"], sari_variant=s["sari_variant"],
    )
    artifacts = _write_reports(
        out,
        reports,
        {
            "dataset_fingerprint": _sha256_file(pairs_path),
            "selections_fingerprint": _sha256_file(selections_path),
            "strategies": strategies,
            "n_instances": len(usable),
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
                    type=_FLAG_TYPES.get(parse),
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
    except ScorerError as exc:  # from calibrate; run logs them per instance
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
