import concurrent.futures
import json
import os
import random

import pytest

from claimpolish import evalstats, scoring
from claimpolish.corpus import (
    ContextBundle,
    IntentLabel,
    OptimizationPair,
    write_pairs,
)

SUBJECTS = [
    "the tax",
    "school uniforms",
    "remote work",
    "the policy",
    "open data",
    "this ban",
    "the subsidy",
    "early voting",
    "the curfew",
    "free transit",
]
VERBS = ["helps", "hurts", "changes", "improves", "supports"]
OBJECTS = [
    "local business",
    "public trust",
    "student outcomes",
    "the economy",
    "small towns",
]
INTENT_POOL = ["clarification", "typo_grammar", "links", "meaning_change", None]


def make_chain_records(n_chains: int, seed: int = 7) -> list[dict]:
    """Synthetic revision chains: a rough first draft, then cleanups and
    elaborations. Deterministic for a given seed."""
    rng = random.Random(seed)
    records = []
    for ci in range(n_chains):
        base = f"{rng.choice(SUBJECTS)} {rng.choice(VERBS)} {rng.choice(OBJECTS)}"
        claims = [{"id": f"c{seed}_{ci}_0", "text": base}]
        cur = base
        intents = []
        for ri in range(1, rng.randint(1, 3) + 1):
            if ri == 1:
                cur = cur.capitalize() + "."
            else:
                cur = cur + f" This matters for {rng.choice(OBJECTS)}."
            claims.append({"id": f"c{seed}_{ci}_{ri}", "text": cur})
            intents.append(rng.choice(INTENT_POOL))
        records.append(
            {
                "chain_id": f"ch{seed}_{ci:04d}",
                "debate_id": f"d{ci % 5}",
                "claims": claims,
                "intents": intents,
                "topic": f"debate about {rng.choice(OBJECTS)}",
                "previous_claim": (
                    f"someone said {rng.choice(SUBJECTS)} "
                    f"{rng.choice(VERBS)} {rng.choice(OBJECTS)}"
                ),
            }
        )
    return records


def write_chain_records(path, records) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")


def make_synthetic_pairs(n: int, seed: int = 0) -> list[OptimizationPair]:
    """Instances for end-to-end runs: half rough sources (lowercase, no
    terminal punctuation) and half already-clean ones."""
    rng = random.Random(seed)
    pairs = []
    for i in range(n):
        body = f"{rng.choice(SUBJECTS)} {rng.choice(VERBS)} {rng.choice(OBJECTS)} case {i}"
        if i % 2 == 0:
            source = body
            reference = body.capitalize() + "."
        else:
            source = body.capitalize() + "."
            reference = source + f" This matters for {rng.choice(OBJECTS)}."
        chain_id = f"syn{i:04d}"
        pairs.append(
            OptimizationPair(
                pair_id=f"{chain_id}#1",
                chain_id=chain_id,
                index=1,
                source=source,
                reference=reference,
                intent=IntentLabel(rng.choice(["clarification", "typo_grammar", "links"])),
                context=ContextBundle(
                    topic=f"debate about {rng.choice(OBJECTS)}",
                    previous_claim=f"someone said {rng.choice(SUBJECTS)} {rng.choice(VERBS)}",
                ),
            )
        )
    return pairs


def adapters_config(tmp_path, **specs) -> list[str]:
    """``--config`` flags naming a file in ``tmp_path`` that sets each
    adapter key of ``specs`` to its spec, e.g. ``generator="stdio:CMD"``."""
    path = tmp_path / "adapters.cfg"
    path.write_text("".join(f"{key} = {spec}\n" for key, spec in specs.items()))
    return ["--config", str(path)]


@pytest.fixture
def chains_file(tmp_path):
    path = tmp_path / "chains.jsonl"
    write_chain_records(path, make_chain_records(30, seed=7))
    return path


@pytest.fixture
def pairs_file(tmp_path):
    path = tmp_path / "pairs.jsonl"
    write_pairs(make_synthetic_pairs(12, seed=3), path)
    return path


@pytest.fixture
def calibration_grid(monkeypatch):
    """``calibration_grid(step, lo, hi)`` makes ``calibrate_weights``
    search that grid instead of ``scoring.GRID_STEP``'s."""

    def set_grid(step, lo, hi):
        monkeypatch.setattr(scoring, "GRID_STEP", step)
        monkeypatch.setattr(scoring, "RANGE_LO", lo)
        monkeypatch.setattr(scoring, "RANGE_HI", hi)

    return set_grid


@pytest.fixture
def mace_schedule(monkeypatch):
    """``mace_schedule(iterations, restarts)`` gives ``mace_aggregate``
    that EM schedule instead of ``evalstats.MACE_ITERATIONS`` and
    ``MACE_RESTARTS``."""

    def set_schedule(iterations, restarts):
        monkeypatch.setattr(evalstats, "MACE_ITERATIONS", iterations)
        monkeypatch.setattr(evalstats, "MACE_RESTARTS", restarts)

    return set_schedule


@pytest.fixture
def force_cpus(monkeypatch):
    """``force_cpus(n)`` makes ``n`` CPUs usable for ``run`` and returns
    the list of the pool sizes it starts from then on."""
    pools = []

    class CountingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers, *args, **kwargs):
            pools.append(max_workers)
            super().__init__(max_workers, *args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)

    def force(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
        pools.clear()
        return pools

    return force
