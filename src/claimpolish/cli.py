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
their types and defaults; it also generates the flags, whose values are
config strings like a file's. A key that no command reads is an error.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import functools
import itertools
import json
import os
import shlex
import shutil
import sys
import time
from collections.abc import Callable, Mapping
from dataclasses import asdict, dataclass, replace
from pathlib import Path

# CPython's own SHA-256, equal to hashlib's: hashlib would load OpenSSL's
# libcrypto (3.6 MB) into every command's process for these digests
try:
    from _sha2 import sha256  # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10 and 3.11
    except ImportError:  # a CPython built without it
        from hashlib import sha256

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
    MetricReport,
    ReportTotals,
    evaluate_run,
    score_instance,
    write_report_csv,
)
from .ndjson import encode_line, open_atomic, read_json, read_jsonl, undecodable_line, write_json
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
    if text.strip() == "all":
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
        if (a, b) in pairs:
            raise ValueError(f"strategy pair '{a}:{b}' is listed twice")
        pairs.append((a, b))
    return tuple(pairs)


def _int_at_least(low: int, text: str) -> int:
    value = int(text)
    if value < low:
        raise ValueError(f"must be >= {low}, got {value}")
    return value


_non_negative_int = functools.partial(_int_at_least, 0)
_positive_int = functools.partial(_int_at_least, 1)

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
        "per_label_test": (_non_negative_int, 200, "test pairs per intent label"),
    },
    "run": {
        **_SHARED,
        "pairs": (str, None, "test pairs.jsonl"),
        "context": (
            tuple(mode.value for mode in ContextMode), "none",
            "debate context in the generator input",
        ),
        "strategies": (_parse_strategies, tuple(Strategy), "comma list or 'all'"),
        "n_candidates": (_positive_int, 10, "candidates generated per pair"),
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
        **_SCORERS,
    },
    "stats": {
        **_SHARED,
        "annotations": (str, None, "annotations.jsonl"),
        "strategy_pairs": (_parse_strategy_pairs, (), "A:B,C:D pairs to test"),
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
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError:
        line_no, reason = undecodable_line(path)
        raise ConfigError(f"{path}:{line_no}: {reason}") from None
    for line_no, line in enumerate(lines, start=1):
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

    Every option of the subcommand is a config key under its dest name,
    its value the string given, as in the file.
    """
    merged: dict[str, str] = {}
    if args.config:
        merged.update(read_config_file(_require_file(args.config, "config file")))
    for key, value in vars(args).items():
        if key not in ("command", "config") and value is not None:
            merged[key] = value
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
    return sha256(blob).hexdigest()


def _sha256_file(path: Path) -> str:
    digest = sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()


def _numpy_version() -> str | None:
    """The installed numpy's version, from the first ``numpy-*.dist-info``
    on ``sys.path`` as ``importlib.metadata.version`` finds it; None when
    numpy is not installed. Neither numpy nor ``importlib.metadata`` is
    imported: the latter's email and zipfile imports would add to every
    command's start-up time and peak memory."""
    for entry in sys.path:
        for info in sorted(Path(entry or ".").glob("numpy-*.dist-info")):
            return info.name.removeprefix("numpy-").removesuffix(".dist-info")
    return None


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
            "numpy": _numpy_version(),
            "python": sys.version.split()[0],
        },
        "timestamps": {"started": started, "finished": time.time()},
    }
    write_json(out_dir / "manifest.json", manifest)


def _check_manifest_owner(out: str | None, command: str) -> None:
    """ConfigError when ``out`` holds another command's manifest.json: this
    command's would replace it, and with it the fingerprints that a later
    ``report`` checks a run's selections by. The command's own (a resume)
    is allowed."""
    if not out or not (manifest := Path(out) / "manifest.json").is_file():
        return
    owner = read_json(manifest, lambda record: record.get("command"))
    if owner != command:
        raise ConfigError(f"{manifest} records a {owner!r} command; {command} would replace it")


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


def _write_reports(out: Path, reports: Mapping[str, MetricReport], metadata: dict) -> list[Path]:
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

    split = split_dataset(filtered, per_label_test=s["per_label_test"], seed=s["seed"])

    write_pairs(pairs, out / "pairs.jsonl")
    write_pairs(split.train, out / "train.jsonl")
    write_pairs(split.validation, out / "validation.jsonl")
    write_pairs(split.test, out / "test.jsonl")

    # for weight calibration, the lines (one chain per non-blank line) of the
    # chains whose pairs ended up in validation
    validation_chain_ids = {p.chain_id for p in split.validation}
    with open_atomic(out / "validation_chains.jsonl") as fh, open(
        chains_path, encoding="utf-8"
    ) as src:
        lines = (line for line in src if line.strip())
        for chain, line in zip(chains, lines, strict=True):
            if chain.chain_id in validation_chain_ids:
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


def _read_selections(
    path: Path, keep: Callable[[dict], object], pairs: list[OptimizationPair]
) -> dict[str, dict]:
    """selections.jsonl as {pair_id: {strategy: keep(record)}}; a repeated
    (pair, strategy) keeps its last record. A record of a pair in ``pairs``
    must say whether its ``chosen`` edits that pair's source."""
    sources = {pair.pair_id: pair.source for pair in pairs}

    def parse(rec: dict) -> tuple:
        for key in ("pair_id", "strategy", "chosen"):
            if not isinstance(rec[key], str):
                raise ValueError(f"{key!r} must be a string, got {rec[key]!r}")
        if not rec["chosen"].strip():
            raise ValueError("'chosen' must not be blank")
        pair_id = rec["pair_id"]
        if pair_id in sources:
            edited = rec["chosen"] != sources[pair_id]
            if rec.get("edited") is not edited:
                raise ValueError(
                    f"'chosen' {'differs from' if edited else 'is'} the source of pair "
                    f"{pair_id!r}, so 'edited' must be {json.dumps(edited)}, "
                    f"got {rec.get('edited')!r}"
                )
        return pair_id, rec["strategy"], keep(rec)

    by_pair: dict[str, dict] = {}
    for pair_id, strategy, kept in read_jsonl(path, ("pair_id", "strategy", "chosen"), parse):
        by_pair.setdefault(pair_id, {})[strategy] = kept
    return by_pair


def _load_checkpoint(
    selections_path: Path, strategies: tuple[Strategy, ...], pairs: list[OptimizationPair]
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
    by_pair = _read_selections(selections_path, _stored, pairs)
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


def _error_record(pair: OptimizationPair, stage: str, exc: Exception) -> dict:
    """The errors.jsonl record of an instance that ``exc`` failed in ``stage``."""
    return {"pair_id": pair.pair_id, "stage": stage, "type": type(exc).__name__, "error": str(exc)}


@dataclass(frozen=True)
class _Job:
    """One instance for stage B: a resumed instance's stored rows by
    strategy, a fresh one's candidates and their scores, or the
    errors.jsonl record of its stage-A failure."""

    pair: OptimizationPair
    seed: int
    stored: dict[str, tuple[str, str]] | None = None
    candidates: tuple = ()
    scores: tuple = ()
    error: dict | None = None


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
            return job.error
        by_strategy = job.stored
        if by_strategy is None:
            columns = score_columns(job.candidates, job.scores, self.weights, self.ranker)
            try:
                picks = {
                    strategy: select(strategy, job.candidates, columns, seed=job.seed)
                    for strategy in self.strategies
                }
            except ValueError as exc:
                return _error_record(pair, "B", exc)
            records = _instance_records(pair, job.candidates, columns, picks)
            by_strategy = {name: _stored(record) for name, record in records.items()}
        lines = "".join(by_strategy[strategy.value][0] for strategy in self.strategies)
        chosen = {strategy.value: by_strategy[strategy.value][1] for strategy in self.strategies}
        return lines, score_instance(pair, chosen, self.embedder, self.bleu_mode, self.sari_variant)


_finisher: _Finisher | None = None  # a worker process's stage B, set by _start_worker


def _start_worker(finisher: _Finisher) -> None:
    global _finisher
    _finisher = finisher
    # stage B embeds every instance: load numpy now, while another worker
    # may be training the ranker, not in this worker's first chunk
    finisher.embedder.embed("")


def _train_in_worker(text_pairs: list[tuple[str, str]], seed: int) -> tuple[tuple, dict]:
    ranker = train_pairwise_ranker(text_pairs, _finisher.embedder, seed)
    return ranker.weight_vector, ranker.training_meta


def _finish_chunk(jobs: list[_Job], trained: tuple[tuple, dict] | None) -> list:
    """Stage B of ``jobs``; ``trained`` is the ranker this run trained in a
    worker, which this worker installs before its first chunk."""
    global _finisher
    if trained is not None and _finisher.ranker is None:
        _finisher = replace(_finisher, ranker=PairwiseRanker(_finisher.embedder, *trained))
    return [_finisher(job) for job in jobs]


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@contextlib.contextmanager
def _finishing(
    finisher: _Finisher, n_jobs: int, text_pairs: list[tuple[str, str]], seed: int
):
    """A function from an iterable of jobs to the ranker that stage B
    scores with, followed by the jobs' stage-B results in job order.

    Given ``text_pairs``, that ranker is trained on them with ``seed``;
    otherwise it is ``finisher``'s. With several usable CPUs, several
    jobs and ``fork``, one forked worker process per CPU (at most one per
    job) runs ``finisher`` on chunks of jobs, while the jobs' stage A
    still runs here; the ranker trains in a worker too, and stage A goes
    on meanwhile, its chunks held here until the ranker is known.
    Otherwise everything runs inline, the training first. The pool is
    shut down on the way out.
    """
    workers = min(_usable_cpus(), n_jobs)
    if workers < 2 or not hasattr(os, "fork"):

        def finish_inline(jobs):
            ranker = finisher.ranker
            if text_pairs:
                ranker = train_pairwise_ranker(text_pairs, finisher.embedder, seed)
            yield ranker
            yield from map(replace(finisher, ranker=ranker), jobs)

        yield finish_inline
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
        jobs = iter(jobs)
        chunks = iter(lambda: list(itertools.islice(jobs, chunksize)), [])
        ranker, trained, held = finisher.ranker, None, []
        if text_pairs:
            training = pool.submit(_train_in_worker, text_pairs, seed)
            for chunk in chunks:  # stage A goes on while the ranker trains
                held.append(chunk)
                if training.done():
                    break
            trained = training.result()
            ranker = PairwiseRanker(finisher.embedder, *trained)
        yield ranker
        pending = collections.deque(pool.submit(_finish_chunk, chunk, trained) for chunk in held)
        held.clear()  # the pool holds them until they are finished
        for chunk in chunks:
            pending.append(pool.submit(_finish_chunk, chunk, trained))
            # stage A waits once each worker has a chunk queued behind its
            # current one, so this process holds few instances at a time
            while pending and (pending[0].done() or len(pending) > 2 * workers):
                yield from pending.popleft().result()
        while pending:
            yield from pending.popleft().result()

    try:
        yield finish
    finally:
        pool.shutdown(cancel_futures=True)


def cmd_run(s: dict, config_hash: str) -> tuple[dict[str, Path], list[Path], int]:
    given = [key for key in ("ranker", "train_pairs") if s[key]]
    if len(given) == 2:
        raise ConfigError("ranker and train_pairs are both set")
    if given and Strategy.PAIRWISE_RANK not in s["strategies"]:
        raise ConfigError(f"{given[0]} is set, but the pairwise_rank strategy is not")
    pairs_path = _require_file(s["pairs"], "pairs file")
    out = _out_dir(s["out"])
    seed, strategies = s["seed"], s["strategies"]
    embedder = HashingEmbedder()

    pairs = load_pairs(pairs_path)
    if not pairs:
        raise ConfigError(f"no pairs in {pairs_path}")

    generator = _build_generator(s)
    registry = _build_registry(s, embedder)

    inputs: dict[str, Path] = {"pairs": pairs_path}
    weights = DEFAULT_WEIGHTS
    if s["weights"]:
        inputs["weights"] = _require_file(s["weights"], "weights file")
        weights = load_weights(inputs["weights"])
    gen_config = GenerationConfig(n_candidates=s["n_candidates"])

    ranker = None
    text_pairs: list[tuple[str, str]] = []  # ranker training pairs, if this run trains
    if s["ranker"]:
        ranker_path = _require_file(s["ranker"], "ranker file")
        # scored with the run's embedder, as a ranker this run trains is
        ranker = load_ranker(ranker_path, embedder)
        inputs["ranker"] = ranker_path
    elif s["train_pairs"]:
        train_path = _require_file(s["train_pairs"], "ranker training pairs")
        inputs["train_pairs"] = train_path
        text_pairs = [
            (p.source, p.reference) for p in load_pairs(train_path) if p.source != p.reference
        ]
        if not text_pairs:
            raise ConfigError(f"no usable ranker training pairs in {train_path}")
    elif Strategy.PAIRWISE_RANK in strategies:
        raise ConfigError("pairwise_rank strategy needs either a ranker file or train_pairs")
    selections_path = out / "selections.jsonl"
    checkpoint = _load_checkpoint(selections_path, strategies, pairs)
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
                yield _Job(pair, seed + i, error=_error_record(pair, "A", exc))
            else:
                yield _Job(pair, seed + i, candidates=candidates, scores=scores)

    finisher = _Finisher(
        weights, ranker, strategies, embedder, s["bleu_mode"], s["sari_variant"]
    )
    totals = ReportTotals()
    errors: list[dict] = []
    # The pool stops before the adapters close: a worker forked after an
    # adapter child started holds that child's pipes, so the child would not
    # see EOF while the worker lives.
    with (
        _closing_adapters(registry, generator),
        _finishing(finisher, len(pairs), text_pairs, seed) as finish,
    ):
        results = finish(jobs())
        ranker = next(results)  # trained by now, if this run trains one
        if text_pairs:
            # after every input check, so a run that exits 2 leaves ranker.json
            # alone, and before selections.jsonl is truncated, so a failed
            # training leaves an interrupted run's rows alone too
            save_ranker(out / "ranker.json", ranker)
        # rewrite only the complete instances, in pairs-file order, then resume
        with open(selections_path, "w", encoding="utf-8") as sel_fh:
            for result in results:
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
        result = calibrate_weights(chains, registry)
    artifacts = [save_calibration(out, result)]
    print(
        f"alpha={result.weights.alpha:.2f} beta={result.weights.beta:.2f} "
        f"gamma={result.weights.gamma:.2f} r={result.pearson_r:.4f} "
        f"grid={result.evaluated_points}"
    )
    return {"chains": chains_path}, artifacts, 0


# ---------------------------------------------------------------------------
# stats

def cmd_stats(s: dict, config_hash: str) -> tuple[dict[str, Path], list[Path], int]:
    annotations_path = _require_file(s["annotations"], "annotations file")
    out = _out_dir(s["out"])

    matrices, rankings = load_annotations(annotations_path)
    if not matrices and not rankings:
        raise ConfigError(f"no annotations in {annotations_path}")
    every_ranking = [ranking for by_item in rankings.values() for ranking in by_item]
    ranked = every_ranking[0] if every_ranking else ()  # the strategies every ranking orders
    unknown = [name for pair in s["strategy_pairs"] for name in pair if name not in ranked]
    if unknown:
        raise ConfigError(f"strategy {unknown[0]!r} is in no ranking")
    report: dict = {"fields": {}, "ranks": {}}

    if every_ranking:
        report["ranks"]["mean_rank"] = mean_rank(every_ranking)
    if s["strategy_pairs"]:  # so there are rankings
        item_ranks = [mean_rank(rankings[item]) for item in sorted(rankings)]
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
        mace = mace_aggregate(matrix, seed=s["seed"])
        entry["percent_agreement"] = percent_agreement(matrix.labels)
        entry["mace"] = mace_summary(mace)

    report["inputs"] = {"annotations_sha256": _sha256_file(annotations_path)}
    write_json(out / "stats_report.json", report)
    return {"annotations": annotations_path}, [out / "stats_report.json"], 0


# ---------------------------------------------------------------------------
# report

def _nested(record: dict, *keys: str) -> object:
    """``record[keys[0]][keys[1]]...``, or None where a key is missing;
    ValueError where a value that holds a key is not an object."""
    for n, key in enumerate(keys):
        if not isinstance(record, dict):
            raise ValueError(f"{'.'.join(keys[:n])!r} must be an object, got {record!r}")
        if key not in record:
            return None
        record = record[key]
    return record


def _run_pairs_sha256(manifest_path: Path, selections_sha256: str) -> str | None:
    """The digest of the pairs file a run read, when ``manifest_path`` is
    that run's manifest and its ``selections.jsonl`` had the digest
    ``selections_sha256``; otherwise None."""

    def parse(manifest: dict) -> str | None:
        selections = _nested(manifest, "artifacts", "selections.jsonl", "sha256")
        if manifest.get("command") != "run" or selections != selections_sha256:
            return None
        digest = _nested(manifest, "inputs", "pairs", "sha256")
        if not isinstance(digest, str):
            raise ValueError(f"'inputs.pairs.sha256' must be a string, got {digest!r}")
        return digest

    return read_json(manifest_path, parse)


def cmd_report(s: dict, config_hash: str) -> tuple[dict[str, Path], list[Path], int]:
    selections_path = _require_file(s["selections"], "selections file")
    pairs_path = _require_file(s["pairs"], "pairs file")
    out = _out_dir(s["out"])
    pairs = load_pairs(pairs_path)
    by_pair = _read_selections(selections_path, lambda rec: rec["chosen"], pairs)
    if not by_pair:
        raise ConfigError(f"no selections in {selections_path}")
    inputs = {"selections": selections_path, "pairs": pairs_path}
    pairs_sha256, selections_sha256 = _sha256_file(pairs_path), _sha256_file(selections_path)
    # the rows' ``edited`` flags catch other pairs only where a row keeps a source
    run_manifest = selections_path.parent / "manifest.json"
    if run_manifest.is_file():
        inputs["run_manifest"] = run_manifest
        if _run_pairs_sha256(run_manifest, selections_sha256) not in (None, pairs_sha256):
            raise ConfigError(
                f"{selections_path} was written by a run on another pairs file than "
                f"{pairs_path}, as {run_manifest} records"
            )
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
            "dataset_fingerprint": pairs_sha256,
            "selections_fingerprint": selections_sha256,
            "strategies": strategies,
            "n_instances": len(usable),
        },
    )
    return inputs, artifacts, 0


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
                    metavar="{" + ",".join(parse) + "}" if isinstance(parse, tuple) else None,
                    help=flag_help,
                )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _merge_config(args)
        settings = _settings(args.command, config)
        _check_manifest_owner(settings["out"], args.command)
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
