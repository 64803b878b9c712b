"""claimpolish benchmark: one workload per invocation.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload run-mock-all8 --seed 0 --seconds 20 --trace 0

Workloads (inputs are generated from ``--seed`` by ``inputs.py``):

* ``run-mock-all8``: ``claimpolish run`` on 600 large-vocabulary pairs,
  mock generator, heuristic scorers, ``--context both``, all 8
  strategies, pairwise ranker trained on 600 generated pairs.
  Evaluation (metrics, embedding, text) dominates.
* ``analysis``: ``prepare`` on 5000 chains, ``calibrate`` on the same
  chains (default 4851-point grid), ``stats`` on ~19k Likert and
  ranking records with 3 planted spammers among 12 workers.
* ``run-stdio-narrow``: ``claimpolish run`` on 600 short gate-style
  pairs, 20 candidates, ``--context previous``, ``autoscore,top1``,
  generator and fluency scorer behind the NDJSON stdio adapters
  (``ndjson_child.py``). The adapter round trip dominates. It is not
  listed in ``BENCHMARK.json``: on a 2-vCPU virtual machine its wall
  time follows the host's load (the same run read 2.4 s and 5.8 s
  minutes apart), so it cannot gate a change. Run it by hand to see the
  round trip; traced, it also prints the ``*.stdio.rtt_us`` percentiles.

With ``--trace 0`` the CLI runs as fresh subprocesses, one after
another (a closed loop with one client), repeating the workload's
command sequence for ``--seconds``. It reports medians of:
``setup_s`` (the same commands on a one-item input, repeated),
``wall_s``, ``peak_rss_mb`` (per invocation, from ``os.wait4``) and
``artifact_bytes``. With ``--trace 1`` it runs the same commands through
``claimpolish.cli.main`` in this process (``traced.py``), once plain and
once with spans at every layer boundary, and reports per-layer busy
times, counts and ratios.

Every run checks its outputs: exit codes, ``errors.jsonl``,
byte-identical artifacts across repeats, artifact digests recorded for
the default seed, adapter transparency, spammer detection, and, when
traced, that the in-process runs write the subprocess CLI's artifacts.
The last stdout line is one JSON object; the exit code is 1 if any
check failed and 2 if the program sources are missing.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
DEFAULT_SEED = 0
COMMAND_TIMEOUT_S = 120.0
CHILD_GRACE_S = 5.0
STRATEGIES = (
    "unedited", "top1", "random", "max_fluency",
    "max_argument", "max_meaning", "autoscore", "pairwise_rank",
)
LAYERS = (
    "corpus", "genkit", "embedding", "text", "scoring", "selection", "metrics", "evalstats", "cli",
)

# Input sizes per mode; "tiny" exists for the smoke test.
SIZES = {
    "full": {"pairs": 600, "train": 600, "chains": 5000, "per_label_test": 200, "ann_pairs": 240},
    "tiny": {"pairs": 12, "train": 12, "chains": 60, "per_label_test": 2, "ann_pairs": 40},
}


@dataclass
class Command:
    argv: list[str]  # arguments after ``python -m claimpolish.cli``
    items: int  # input records the command processes
    out: str  # its output directory, relative to the work directory


@dataclass
class Invocation:
    code: int
    wall_s: float
    maxrss_mb: float
    errors: int
    leaked: int


# ---------------------------------------------------------------------------
# process handling

def _become_subreaper() -> None:
    """Adopt orphaned grandchildren (adapter processes the CLI leaves behind)."""
    if not sys.platform.startswith("linux"):
        return
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
        libc.prctl.restype = ctypes.c_int
        libc.prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass


def _settle_children(marker_dir: Path) -> int:
    """Wait for adapter children to exit; kill and count those that do not."""
    deadline = time.monotonic() + CHILD_GRACE_S
    leaked = 0
    while alive := sorted(marker_dir.glob("*.alive")):
        if time.monotonic() > deadline:
            for marker in alive:
                try:
                    os.kill(int(marker.stem), signal.SIGKILL)
                except (ProcessLookupError, ValueError):
                    pass
                marker.unlink(missing_ok=True)
                leaked += 1
            break
        time.sleep(0.005)
    # a child removes its marker just before it exits; as their subreaper,
    # collect the adopted children until none is left
    while time.monotonic() < deadline + CHILD_GRACE_S:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            break
        if pid == 0:
            time.sleep(0.002)
    return leaked


class Bench:
    """Runs CLI commands for one workload inside ``work``."""

    def __init__(self, root: Path, work: Path):
        self.work = work
        self.markers = work / "children"
        self.markers.mkdir(parents=True, exist_ok=True)
        # every child inherits these: the CLI and the adapter children, spawned
        # by a CLI subprocess or by an in-process CLI call, import claimpolish
        # from the checkout, and adapters report to the marker directory
        src = str(root / "src")
        path = os.environ.get("PYTHONPATH")
        os.environ["PYTHONPATH"] = src + os.pathsep + path if path else src
        os.environ["PERFBENCH_CHILD_DIR"] = str(self.markers)

    def invoke(self, command: Command) -> Invocation:
        out = self.work / command.out
        log_path = self.work / "logs" / (command.out.replace("/", "_") + ".log")
        log_path.parent.mkdir(parents=True, exist_ok=True)
        argv = [sys.executable, "-m", "claimpolish.cli", *command.argv]
        with open(log_path, "wb") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(
                argv, cwd=self.work, stdin=subprocess.DEVNULL,
                stdout=log, stderr=log,
            )
            killer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        leaked = _settle_children(self.markers)
        # ru_maxrss is in KiB on Linux
        return Invocation(proc.returncode, wall, usage.ru_maxrss / 1024.0, self._errors(out), leaked)

    def call(self, command: Command, rec) -> Invocation:
        """The command through ``claimpolish.cli.main`` in this process (no RSS figure)."""
        from traced import call_cli

        start = time.perf_counter()
        code = call_cli(command.argv, self.work, rec)
        wall = time.perf_counter() - start
        leaked = _settle_children(self.markers)
        return Invocation(code, wall, 0.0, self._errors(self.work / command.out), leaked)

    @staticmethod
    def _errors(out: Path) -> int:
        errors_path = out / "errors.jsonl"
        if not errors_path.is_file():
            return 0
        return sum(1 for line in errors_path.read_text().splitlines() if line.strip())

    def sequence(self, commands: list[Command], run=None) -> tuple[list[Invocation], int, int]:
        """Run commands in order, each through ``run`` (default: a subprocess).

        Returns invocations, items attempted, items failed.
        """
        invocations, attempted, failed = [], 0, 0
        for command in commands:
            inv = (run or self.invoke)(command)
            invocations.append(inv)
            attempted += command.items
            failed += command.items if inv.code != 0 else min(inv.errors, command.items)
            failed += inv.leaked
        return invocations, attempted, failed


# ---------------------------------------------------------------------------
# workloads

def _json(path: Path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


class RunWorkload:
    """``claimpolish run`` on one generated pairs file."""

    def __init__(self, name: str, stdio: bool):
        self.name = name
        self.stdio = stdio
        self.predicted_layer = "genkit" if stdio else "metrics"
        if stdio:
            self.context, self.n_candidates, self.strategies = "previous", 20, ("autoscore", "top1")
        else:
            self.context, self.n_candidates, self.strategies = "both", 10, STRATEGIES

    def write_inputs(self, work: Path, seed: int, size: dict) -> None:
        from inputs import Vocabulary, gate_pairs, large_vocab_pairs, write_jsonl

        inputs = work / "inputs"
        inputs.mkdir(parents=True, exist_ok=True)
        if self.stdio:
            pairs = gate_pairs(size["pairs"], seed)
        else:
            vocab = Vocabulary(4000, seed)
            pairs = large_vocab_pairs(size["pairs"], seed, vocab)
            write_jsonl(inputs / "train.jsonl", large_vocab_pairs(size["train"], seed, vocab, "tr"))
        self.n_pairs = len(pairs)
        write_jsonl(inputs / "pairs.jsonl", pairs)
        write_jsonl(inputs / "setup_pairs.jsonl", pairs[:1])
        (inputs / "weights.json").write_text(
            json.dumps({"alpha": 0.43, "beta": 0.01, "gamma": 0.56}) + "\n"
        )
        # paths relative to the work directory, where the CLI runs; they
        # enter the config hash in report.json, so they must not vary
        child = os.path.relpath(BENCH_DIR / "ndjson_child.py", work)
        (inputs / "stdio.cfg").write_text(
            f"generator = stdio:python3 {child} generator\n"
            f"fluency_scorer = stdio:python3 {child} fluency\n"
        )
        (inputs / "mock.cfg").write_text("generator = mock\nfluency_scorer = heuristic\n")
        self.seed = seed

    def _run(self, pairs: str, out: str, items: int, config: str | None = None) -> Command:
        argv = [
            "run", "--pairs", pairs, "--out", out, "--seed", str(self.seed),
            "--context", self.context, "--n-candidates", str(self.n_candidates),
            "--strategies", ",".join(self.strategies), "--weights", "inputs/weights.json",
        ]
        if self.stdio:
            argv += ["--config", config or "inputs/stdio.cfg"]
        else:
            argv += ["--train-pairs", "inputs/train.jsonl"]
        return Command(argv, items, out)

    def commands(self, out: str) -> list[Command]:
        return [self._run("inputs/pairs.jsonl", out, self.n_pairs)]

    def setup_commands(self, out: str) -> list[Command]:
        return [self._run("inputs/setup_pairs.jsonl", out, 1)]

    def artifacts(self, out: str) -> list[str]:
        names = ["selections.jsonl", "report.json", "report.csv"]
        if not self.stdio:
            names.append("ranker.json")
        return [f"{out}/{name}" for name in names]

    def step_times(self, invocations: list[Invocation]) -> dict:
        return {"run_s": invocations[0].wall_s}

    def check(self, bench: Bench, out: str) -> list[str]:
        problems = []
        report = _json(bench.work / out / "report.json")
        meta = report["metadata"]
        if meta["n_instances"] != self.n_pairs or meta["n_errors"] != 0:
            problems.append(f"{out}: {meta['n_instances']} instances, {meta['n_errors']} errors")
        if set(report["reports"]) != set(self.strategies):
            problems.append(f"{out}: report strategies {sorted(report['reports'])}")
        return problems

    def after_runs(self, bench: Bench, out: str) -> list[str]:
        """Adapter transparency: the stdio run reports what the in-process mock reports."""
        if not self.stdio:
            return []
        command = self._run("inputs/pairs.jsonl", "transparency", self.n_pairs, "inputs/mock.cfg")
        inv = bench.invoke(command)
        if inv.code != 0:
            return [f"mock transparency run exited {inv.code}"]
        stdio_reports = _json(bench.work / out / "report.json")["reports"]
        mock_reports = _json(bench.work / "transparency" / "report.json")["reports"]
        if stdio_reports != mock_reports:
            return ["stdio adapter reports differ from the in-process mock's"]
        return []


class AnalysisWorkload:
    """``prepare`` -> ``calibrate`` -> ``stats`` over generated chains and annotations."""

    name = "analysis"
    predicted_layer = "evalstats"
    stdio = False
    strategy_pairs = "autoscore:top1,autoscore:unedited"

    def write_inputs(self, work: Path, seed: int, size: dict) -> None:
        from inputs import annotation_records, chain_records, write_jsonl

        inputs = work / "inputs"
        inputs.mkdir(parents=True, exist_ok=True)
        chains = chain_records(size["chains"], seed)
        annotations, self.spammers = annotation_records(size["ann_pairs"], seed)
        write_jsonl(inputs / "chains.jsonl", chains)
        write_jsonl(inputs / "annotations.jsonl", annotations)
        setup_chain = {
            "chain_id": "setup0",
            "debate_id": "d0",
            "claims": [
                {"id": "setup0_0", "text": "the tax helps small towns"},
                {"id": "setup0_1", "text": "The tax helps small towns."},
                {"id": "setup0_2", "text": "The tax helps small towns. This matters for trust."},
            ],
            "intents": ["typo_grammar", "clarification"],
            "topic": "debate about the tax",
            "previous_claim": "someone said the tax hurts",
        }
        write_jsonl(inputs / "setup_chains.jsonl", [setup_chain])
        setup_annotations, _ = annotation_records(1, seed)
        write_jsonl(inputs / "setup_annotations.jsonl", setup_annotations)
        self.seed = seed
        self.n_chains = len(chains)
        self.n_annotations = len(annotations)
        self.n_setup_annotations = len(setup_annotations)
        self.per_label_test = size["per_label_test"]

    def _sequence(self, out, chains, annotations, per_label_test, n_chains, n_annotations):
        seed = str(self.seed)
        return [
            Command(
                ["prepare", "--chains", chains, "--out", f"{out}/data", "--seed", seed,
                 "--per-label-test", str(per_label_test)],
                n_chains, f"{out}/data",
            ),
            Command(["calibrate", "--chains", chains, "--out", f"{out}/cal", "--seed", seed],
                    n_chains, f"{out}/cal"),
            Command(
                ["stats", "--annotations", annotations, "--out", f"{out}/stats", "--seed", seed,
                 "--strategy-pairs", self.strategy_pairs],
                n_annotations, f"{out}/stats",
            ),
        ]

    def commands(self, out: str) -> list[Command]:
        return self._sequence(
            out, "inputs/chains.jsonl", "inputs/annotations.jsonl", self.per_label_test,
            self.n_chains, self.n_annotations,
        )

    def setup_commands(self, out: str) -> list[Command]:
        return self._sequence(
            out, "inputs/setup_chains.jsonl", "inputs/setup_annotations.jsonl", 1, 1,
            self.n_setup_annotations,
        )

    def artifacts(self, out: str) -> list[str]:
        return [f"{out}/cal/weights.json", f"{out}/stats/stats_report.json"]

    def step_times(self, invocations: list[Invocation]) -> dict:
        return {
            "prepare_s": invocations[0].wall_s,
            "calibrate_s": invocations[1].wall_s,
            "stats_s": invocations[2].wall_s,
        }

    def check(self, bench: Bench, out: str) -> list[str]:
        problems = []
        counts = _json(bench.work / out / "data" / "counts.json")
        if counts["chains"] != self.n_chains or counts["test"] != 3 * self.per_label_test:
            problems.append(f"{out}: prepare counts {counts}")
        report = _json(bench.work / out / "stats" / "stats_report.json")
        for fld, entry in sorted(report["fields"].items()):
            flagged = set(self.spammers) & set(entry["mace"]["competent_workers"])
            if flagged:
                problems.append(f"{out}: {fld} rates spammers {sorted(flagged)} competent")
        return problems

    def after_runs(self, bench: Bench, out: str) -> list[str]:
        return []


WORKLOADS = {
    "run-mock-all8": lambda: RunWorkload("run-mock-all8", stdio=False),
    "analysis": AnalysisWorkload,
    "run-stdio-narrow": lambda: RunWorkload("run-stdio-narrow", stdio=True),
}


# ---------------------------------------------------------------------------
# measurement

def _digests(work: Path, paths: list[str]) -> dict[str, str]:
    return {Path(p).name: hashlib.sha256((work / p).read_bytes()).hexdigest() for p in paths}


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))  # ceil
    return ordered[int(rank) - 1]


def _check_digests(workload, digests: dict, seed: int, size: str) -> list[str]:
    if seed != DEFAULT_SEED or size != "full":
        return []
    recorded = _json(BENCH_DIR / "expected_digests.json").get(workload.name)
    if recorded is None:
        return [f"no recorded digests for {workload.name}"]
    if digests != recorded:
        changed = sorted(k for k in set(digests) | set(recorded) if digests.get(k) != recorded.get(k))
        return [f"artifacts differ from the recorded default-seed digests: {changed}"]
    return []


def measure_untraced(workload, bench: Bench, seconds: float, seed: int, size: str):
    problems: list[str] = []
    attempted = failed = 0

    # the first fresh processes after input generation run slow; discard one repeat
    bench.sequence(workload.setup_commands("setup/warm"))

    setup_walls, walls, rss, steps = [], [], [], []
    reference = None
    start = time.perf_counter()
    k = 0
    while True:
        # the host's speed drifts over seconds to minutes: one set-up repeat per
        # measured repeat makes both medians sample the same stretch of time
        invs, _, setup_failed = bench.sequence(workload.setup_commands(f"setup/{k}"))
        if setup_failed:
            problems.append(f"setup repeat {k} failed: exit codes {[i.code for i in invs]}")
        setup_walls.append(sum(i.wall_s for i in invs))
        out = f"runs/{k}"
        invs, n_attempted, n_failed = bench.sequence(workload.commands(out))
        attempted += n_attempted
        failed += n_failed
        walls.append(sum(i.wall_s for i in invs))
        rss.append(max(i.maxrss_mb for i in invs))
        steps.append(workload.step_times(invs))
        if n_failed:
            problems.append(f"{out}: exit codes {[i.code for i in invs]}, {n_failed} items failed")
            break
        problems += workload.check(bench, out)
        digests = _digests(bench.work, workload.artifacts(out))
        if reference is None:
            reference = (out, digests)
            problems += _check_digests(workload, digests, seed, size)
        else:
            if digests != reference[1]:
                problems.append(f"{out}: artifacts differ from {reference[0]}")
            shutil.rmtree(bench.work / out)
        k += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / k > seconds:
            break

    artifact_bytes = 0
    if reference:
        problems += workload.after_runs(bench, reference[0])
        artifact_bytes = sum((bench.work / p).stat().st_size for p in workload.artifacts(reference[0]))

    wall_s = statistics.median(walls)
    step_medians = {name: statistics.median(s[name] for s in steps) for name in steps[0]}
    metrics = {
        "setup_s": (statistics.median(setup_walls), "s"),
        "wall_s": (wall_s, "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
        "artifact_bytes": (float(artifact_bytes), "B"),
    }
    extra = {name: (value, "s") for name, value in step_medians.items()}
    if "run_s" in step_medians:
        extra["instances_per_s"] = (workload.n_pairs / step_medians["run_s"], "1/s")
    extra["failed_ratio"] = (failed / attempted if attempted else 1.0, "1")
    notes = [
        f"repeats: {len(walls)} measured, {len(setup_walls)} setup",
        f"wall_s samples: {' '.join(f'{w:.4f}' for w in walls)}",
        f"setup_s samples: {' '.join(f'{w:.4f}' for w in setup_walls)}",
    ]
    if reference:
        notes += [f"digest {name} {digest}" for name, digest in sorted(reference[1].items())]
    return metrics, extra, notes, problems, attempted, failed


def _layer_metrics(workload, rec, overhead_ratio: float) -> dict:
    busy = rec.self_times()
    counters = rec.counters

    def b(name):
        return busy.get(name, 0.0)

    def c(name):
        return counters.get(name, 0.0)

    def ratio(num, den):
        return c(num) / c(den) if c(den) else 0.0

    gen_rtt = [s * 1e6 for s in rec.samples.get("genkit.stdio.request_s", [])]
    score_rtt = [s * 1e6 for s in rec.samples.get("scoring.stdio.request_s", [])]
    instance_ms = [d * 1e3 for d in rec.durations("cli.run.instance")]
    m = {
        "metrics.evaluate_run.busy_s": (b("metrics.evaluate_run"), "s"),
        "metrics.sentence_bleu.busy_s": (b("metrics.sentence_bleu"), "s"),
        "metrics.sari.busy_s": (b("metrics.sari"), "s"),
        "metrics.rouge_l.busy_s": (b("metrics.rouge_l"), "s"),
        "metrics.context_similarity.busy_s": (b("metrics.context_similarity"), "s"),
        "metrics.rows": (c("metrics.rows"), "count"),
        "embedding.embed.calls": (c("embedding.embed.calls"), "count"),
        "embedding.embed.busy_s": (b("embedding.embed"), "s"),
        "embedding.embed.distinct_ratio": (
            ratio("embedding.embed.distinct", "embedding.embed.calls"), "distinct/calls"),
        "text.tokenize.busy_s": (b("text.tokenize"), "s"),
        "text.tokenize.distinct_ratio": (
            ratio("text.tokenize.distinct", "text.tokenize.calls"), "distinct/calls"),
        "genkit.generate_candidates.busy_s": (b("genkit.generate_candidates"), "s"),
        "genkit.requests": (c("genkit.requests"), "count"),
        "genkit.step_failures": (c("genkit.step_failures"), "count"),
        "genkit.dedup.kept_ratio": (ratio("genkit.dedup.kept", "genkit.dedup.returned"), "kept/returned"),
        "scoring.score_candidate.calls": (c("scoring.score_candidate.calls"), "count"),
        "scoring.score_candidate.busy_s": (b("scoring.score_candidate"), "s"),
        "scoring.calibrate_weights.busy_s": (b("scoring.calibrate_weights"), "s"),
        "scoring.calibrate_weights.grid_points": (
            c("scoring.calibrate_weights.grid_points"), "count"),
        "scoring.calibrate_weights.scored_steps": (
            c("scoring.calibrate_weights.scored_steps"), "count"),
    }
    for strategy in STRATEGIES:
        m[f"selection.select.{strategy}.busy_s"] = (b(f"selection.select.{strategy}"), "s")
    m.update({
        "selection.train_pairwise_ranker.busy_s": (b("selection.train_pairwise_ranker"), "s"),
        "selection.distinct_chosen_ratio": (
            ratio("selection.distinct_chosen", "metrics.rows"), "distinct/rows"),
        "evalstats.load_annotations.busy_s": (b("evalstats.load_annotations"), "s"),
        "evalstats.krippendorff_alpha.busy_s": (b("evalstats.krippendorff_alpha"), "s"),
        "evalstats.mace_aggregate.busy_s": (b("evalstats.mace_aggregate"), "s"),
        "evalstats.wilcoxon_signed_rank.busy_s": (b("evalstats.wilcoxon_signed_rank"), "s"),
        "corpus.load_pairs.busy_s": (b("corpus.load_pairs"), "s"),
        "corpus.serialize_input.busy_s": (b("corpus.serialize_input"), "s"),
        "corpus.load_chains.busy_s": (b("corpus.load_chains"), "s"),
        "corpus.split_dataset.busy_s": (b("corpus.split_dataset"), "s"),
        "cli.self_s": (sum(v for k, v in busy.items() if k.startswith("cli.")), "s"),
        "cli.run.instance_ms.p50": (_percentile(instance_ms, 50), "ms"),
        "cli.run.instance_ms.p98": (_percentile(instance_ms, 98), "ms"),
        "trace.overhead_ratio": (overhead_ratio, "traced/untraced"),
    })
    if workload.stdio:
        m.update({
            "genkit.stdio.rtt_us.p50": (_percentile(gen_rtt, 50), "us"),
            "genkit.stdio.rtt_us.p98": (_percentile(gen_rtt, 98), "us"),
            "scoring.stdio.rtt_us.p50": (_percentile(score_rtt, 50), "us"),
            "scoring.stdio.rtt_us.p98": (_percentile(score_rtt, 98), "us"),
        })
    return m


def measure_traced(workload, bench: Bench, seconds: float, seed: int, size: str):
    """Untraced and traced in-process CLI calls, alternating, for ``seconds``.

    A subprocess CLI run first gives the reference artifacts; every
    in-process run must write the same bytes.
    """
    from spans import Recorder

    problems: list[str] = []
    invs, attempted, failed = bench.sequence(workload.commands("cli"))
    if failed:
        problems.append(f"reference CLI run: exit codes {[i.code for i in invs]}")
        return {}, {}, [], problems, attempted, failed
    problems += workload.check(bench, "cli")
    reference = _digests(bench.work, workload.artifacts("cli"))
    problems += _check_digests(workload, reference, seed, size)

    def in_process(out: str, rec) -> float:
        nonlocal attempted, failed
        invs, n_attempted, n_failed = bench.sequence(
            workload.commands(out), lambda command: bench.call(command, rec)
        )
        attempted += n_attempted
        failed += n_failed
        if n_failed:
            problems.append(f"{out}: exit codes {[i.code for i in invs]}, {n_failed} items failed")
        else:
            problems.extend(workload.check(bench, out))
            if _digests(bench.work, workload.artifacts(out)) != reference:
                problems.append(f"{out}: in-process artifacts differ from the CLI's")
        shutil.rmtree(bench.work / out, ignore_errors=True)
        return sum(i.wall_s for i in invs)

    per_run = []
    start = time.perf_counter()
    k = 0
    while not problems:
        untraced_s = in_process(f"untraced/{k}", None)
        rec = Recorder()
        traced_s = in_process(f"traced/{k}", rec)
        per_run.append(_layer_metrics(workload, rec, traced_s / untraced_s))
        k += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / k > seconds:
            break
    if not per_run:
        return {}, {}, [], problems, attempted, failed
    rec.dump(bench.work / "spans.jsonl")

    metrics = {
        name: (statistics.median(r[name][0] for r in per_run), unit)
        for name, (_, unit) in per_run[0].items()
    }
    # printed only: run-stdio-narrow, the one workload with adapters, is not in BENCHMARK.json
    extra = {name: metrics.pop(name) for name in list(metrics) if ".stdio." in name}
    busy, total = rec.self_times(), rec.root_time()
    shares = {
        layer: sum(v for n, v in busy.items() if n.startswith(layer + ".")) / total
        for layer in LAYERS
    }
    largest = max(shares, key=shares.get)
    notes = [
        f"repeats: {k} traced, {k} untraced in-process runs",
        "layer shares of traced time (last run): "
        + " ".join(f"{layer}={share:.3f}" for layer, share in shares.items()),
        f"prediction: {workload.predicted_layer} largest -> "
        f"{'held' if largest == workload.predicted_layer else f'not held ({largest} largest)'}",
        f"samples (last run): spans {len(rec.spans)}, "
        f"cli.run.instance {len(rec.durations('cli.run.instance'))}, "
        f"genkit.stdio.rtt {len(rec.samples['genkit.stdio.request_s'])}, "
        f"scoring.stdio.rtt {len(rec.samples['scoring.stdio.request_s'])}",
    ]
    return metrics, extra, notes, problems, attempted, failed


# ---------------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "claimpolish" / "cli.py").is_file():
        print(f"error: no claimpolish sources under {root / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    import claimpolish

    if Path(claimpolish.__file__).resolve().parent != (root / "src" / "claimpolish").resolve():
        print(f"error: imported claimpolish from {claimpolish.__file__}", file=sys.stderr)
        return 2

    _become_subreaper()
    workload = WORKLOADS[args.workload]()
    work = root / ".perfbench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload.write_inputs(work, args.seed, SIZES[args.size])
    bench = Bench(root, work)
    # compile the program's bytecode before anything is timed
    warm = subprocess.run(
        [sys.executable, "-m", "claimpolish.cli", "--version"], cwd=work,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    if warm.returncode != 0:
        print("error: claimpolish CLI does not start", file=sys.stderr)
        return 2

    if args.trace:
        metrics, extra, notes, problems, attempted, failed = measure_traced(
            workload, bench, args.seconds, args.seed, args.size
        )
    else:
        metrics, extra, notes, problems, attempted, failed = measure_untraced(
            workload, bench, args.seconds, args.seed, args.size
        )

    print(f"workload {args.workload} seed {args.seed} size {args.size} trace {args.trace}")
    for line in notes:
        print(line)
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"{name} {value:.6g} {unit}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    correct = not problems and failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": max(attempted, 1),
                "failed": failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
