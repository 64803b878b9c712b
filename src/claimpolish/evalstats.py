"""Statistics for manual evaluation: label aggregation, agreement, ranks.

Crowd judgments arrive as a sparse item x worker matrix. Aggregation
follows the classic Bayesian annotator-competence model: each
annotation either copies the item's true label (with worker-specific
probability) or is drawn from the worker's private spam distribution.
EM fits competences and spam distributions; several random restarts
guard against local optima, and the best restart by log-likelihood
wins (ties broken by restart index, so results are reproducible).

Each E-step works on flat per-annotation arrays. An annotation's
density is its spam part (1 - theta) * xi under every candidate true
label, plus theta under its own label only, so the step takes two logs
per annotation. It writes them, as each annotation's row of
log-densities, into one buffer behind the fixed -log(L) start values
of the items x labels table, and one bincount sums the buffer into the
table. The normaliser is ``np.logaddexp`` over the label columns, left
to right, and each annotation's weight is read at its own cell; the
full posterior is formed once per restart, after the last E-step.

Also here: Cohen's kappa, percent agreement, Krippendorff's alpha in
the pairable-values formulation (coincidences from one bincount over
each unit's ordered value pairs), an exact/approximate Wilcoxon
signed-rank test, and mean ranks over ranking annotations.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .metrics import left_sum
from .ndjson import parse_id, read_jsonl
from .pcg64 import PCG64

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class AnnotationMatrix:
    """Sparse item x worker label matrix: ``labels`` maps (item, worker)
    to a label, and ``bounds`` (lo, hi), when given, makes every label a
    number in [lo, hi].

    The labels are stored sorted by (item, worker), so every statistic
    over them is independent of the order they were given in; ``items``
    and ``workers`` are the sorted ids the labels name.
    """

    labels: Mapping[tuple[str, str], object]
    bounds: tuple[int, int] | None = None

    def __post_init__(self):
        if not self.labels:
            raise ValueError("empty annotation matrix")
        object.__setattr__(self, "labels", dict(sorted(self.labels.items())))
        if self.bounds is not None:
            lo, hi = self.bounds
            if lo >= hi:
                raise ValueError(f"bad scale bounds {self.bounds}")
            for (item, worker), value in self.labels.items():
                if not isinstance(value, (int, float)) or not lo <= value <= hi:
                    raise ValueError(
                        f"label {value!r} for ({item}, {worker}) outside scale bounds"
                    )

    @property
    def items(self) -> tuple[str, ...]:
        return tuple(sorted({item for item, _ in self.labels}))

    @property
    def workers(self) -> tuple[str, ...]:
        return tuple(sorted({worker for _, worker in self.labels}))


@dataclass(frozen=True)
class MaceResult:
    competence: dict[str, float]
    posterior_labels: dict[str, object]
    log_likelihood: float


# ---------------------------------------------------------------------------
# MACE-style aggregation

MACE_SMOOTHING = 0.1  # add-k smoothing of both EM parameter families
MACE_ITERATIONS = 50  # EM steps of each restart
MACE_RESTARTS = 10  # random starts; the fit with the highest likelihood wins
COMPETENCE_THRESHOLD = 0.3  # a competent worker's fitted competence exceeds it


def _scatter_add(bins: np.ndarray, values: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum each of ``values`` into its flat bin of a zero array of ``shape``.

    ``np.bincount`` adds the values in array order, as ``np.add.at``
    does, so each bin gets the same additions in the same order and the
    result has the same bits as ``np.add.at``'s, at a fraction of its cost.
    """
    import numpy as np

    return np.bincount(bins, weights=values, minlength=math.prod(shape)).reshape(shape)


def mace_aggregate(matrix: AnnotationMatrix, seed: int = 0) -> MaceResult:
    """EM fit of the annotator-competence model: ``MACE_ITERATIONS`` steps
    from each of ``MACE_RESTARTS`` random starts, the likeliest fit kept.

    Competence for worker j is the fitted probability that one of
    their annotations copies the true label rather than their spam
    distribution. Add-k smoothing (k = ``MACE_SMOOTHING``) keeps both
    parameter families interior. Deterministic for a fixed seed.
    """
    import numpy as np

    items = matrix.items
    workers = matrix.workers
    label_values = sorted({v for v in matrix.labels.values()}, key=lambda v: (str(type(v)), v))
    item_index = {item: i for i, item in enumerate(items)}
    worker_index = {w: i for i, w in enumerate(workers)}
    label_index = {v: i for i, v in enumerate(label_values)}

    entries = list(matrix.labels.items())  # sorted by (item, worker)
    a_item = np.array([item_index[it] for (it, _), _ in entries], dtype=np.int64)
    a_worker = np.array([worker_index[w] for (_, w), _ in entries], dtype=np.int64)
    a_label = np.array([label_index[v] for _, v in entries], dtype=np.int64)

    n_items, n_workers, n_labels = len(items), len(workers), len(label_values)
    n_per_worker = np.bincount(a_worker, minlength=n_workers).astype(np.float64)
    # flat bins of the item_ll cells: each cell's start value, then every
    # annotation's row of log-densities into its item's row
    n_cells = n_items * n_labels
    ll_bins = np.concatenate(
        [np.arange(n_cells), (a_item[:, None] * n_labels + np.arange(n_labels)).ravel()]
    )
    values = np.full(ll_bins.size, -math.log(n_labels))  # the first n_cells never change
    own_value = n_cells + np.arange(len(entries)) * n_labels + a_label
    own_cell = a_item * n_labels + a_label
    spam_bins = a_worker * n_labels + a_label

    def e_step(theta: np.ndarray, xi: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # an annotation's density is spam_part under every other label, hit under its own
        theta_a = theta[a_worker]
        spam_part = (1.0 - theta_a) * xi.ravel()[spam_bins]
        hit = spam_part + theta_a
        values[n_cells:] = np.repeat(np.log(spam_part), n_labels)
        values[own_value] = np.log(hit)
        item_ll = _scatter_add(ll_bins, values, (n_items, n_labels))
        norm = item_ll[:, 0]
        for column in item_ll.T[1:]:
            norm = np.logaddexp(norm, column)
        if not math.isfinite(float(norm.sum())):
            raise ValueError("non-finite likelihood during EM")
        # expected probability each annotation copied the true label
        honest = np.exp(item_ll.ravel()[own_cell] - norm[a_item]) * theta_a / hit
        return item_ll, norm, honest

    def run_em(theta: np.ndarray, xi: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
        for _ in range(MACE_ITERATIONS):
            _, _, honest = e_step(theta, xi)
            honest_per_worker = np.bincount(a_worker, weights=honest, minlength=n_workers)
            theta = (honest_per_worker + MACE_SMOOTHING) / (n_per_worker + 2.0 * MACE_SMOOTHING)
            spam_counts = _scatter_add(spam_bins, 1.0 - honest, (n_workers, n_labels))
            xi = (spam_counts + MACE_SMOOTHING) / (
                spam_counts.sum(axis=1, keepdims=True) + MACE_SMOOTHING * n_labels
            )
        item_ll, norm, _ = e_step(theta, xi)
        return float(norm.sum()), np.exp(item_ll - norm[:, None]), theta

    best: tuple[float, np.ndarray, np.ndarray] | None = None
    for restart in range(MACE_RESTARTS):
        rng = PCG64(seed, restart)  # np.random.default_rng([seed, restart])'s stream
        theta0 = np.array(rng.uniform(0.3, 0.95, n_workers))
        xi0 = np.array(rng.uniform(0.5, 1.5, n_workers * n_labels)).reshape(n_workers, n_labels)
        xi0 /= xi0.sum(axis=1, keepdims=True)
        log_lik, posterior, theta = run_em(theta0, xi0)
        if best is None or log_lik > best[0]:
            best = (log_lik, posterior, theta)

    assert best is not None
    log_lik, posterior, theta = best
    posterior_labels = {
        item: label_values[int(np.argmax(posterior[i]))] for item, i in item_index.items()
    }
    competence = {worker: float(theta[worker_index[worker]]) for worker in workers}
    return MaceResult(
        competence=competence, posterior_labels=posterior_labels, log_likelihood=log_lik
    )


def competent_workers(result: MaceResult) -> list[str]:
    """Workers whose fitted competence strictly exceeds ``COMPETENCE_THRESHOLD``."""
    return sorted(w for w, c in result.competence.items() if c > COMPETENCE_THRESHOLD)


def mace_summary(result: MaceResult) -> dict:
    """A fit as the ``stats`` report shows it: the log-likelihood, the mean
    competence, the ``competent_workers`` and their share, the mean
    posterior label, and the mean posterior label per strategy over the
    items whose id names the judged strategy as ``<pair>::<strategy>``."""
    competent = competent_workers(result)
    per_strategy: dict[str, list[float]] = {}
    for item, label in result.posterior_labels.items():
        _, judged, strategy = item.rpartition("::")
        if judged:
            per_strategy.setdefault(strategy, []).append(float(label))
    return {
        "log_likelihood": result.log_likelihood,
        "mean_competence": left_sum(result.competence.values()) / len(result.competence),
        "competent_workers": competent,
        "competent_fraction": len(competent) / len(result.competence),
        "mean_posterior": left_sum(float(v) for v in result.posterior_labels.values())
        / len(result.posterior_labels),
        "per_strategy_mean": {
            name: left_sum(vals) / len(vals) for name, vals in sorted(per_strategy.items())
        },
    }


# ---------------------------------------------------------------------------
# agreement coefficients

def cohens_kappa(labels_a: Sequence, labels_b: Sequence) -> float:
    """(p_o - p_e) / (1 - p_e) with marginal-product chance agreement."""
    if len(labels_a) != len(labels_b):
        raise ValueError(f"length mismatch: {len(labels_a)} vs {len(labels_b)}")
    n = len(labels_a)
    if n == 0:
        raise ValueError("empty label lists")
    p_o = sum(1 for a, b in zip(labels_a, labels_b) if a == b) / n
    marg_a = Counter(labels_a)
    marg_b = Counter(labels_b)
    p_e = sum(marg_a[lab] * marg_b.get(lab, 0) for lab in marg_a) / (n * n)
    if abs(1.0 - p_e) < 1e-12:
        raise ValueError("chance agreement is 1; kappa is undefined")
    return (p_o - p_e) / (1.0 - p_e)


def percent_agreement(labels: Mapping[tuple[str, str], object]) -> float | None:
    """Fraction of agreeing unordered annotation pairs within items; None
    when no item has two annotations."""
    by_item: dict[str, Counter] = {}
    for (item, _), value in labels.items():
        by_item.setdefault(item, Counter())[value] += 1
    agree = sum(c * (c - 1) for counts in by_item.values() for c in counts.values()) // 2
    total = sum(m * (m - 1) for m in map(Counter.total, by_item.values())) // 2
    return agree / total if total else None


def _ordinal_ranks(values: Sequence, bounds: tuple[int, int] | None) -> dict:
    """Rank positions used by the ordinal distance.

    With declared bounds the rank is the value's position on the full
    scale (so unobserved scale points still count); otherwise it is
    the position among the observed distinct values.
    """
    if bounds is not None:
        return {v: float(v) for v in values}
    ordered = sorted(values)
    return {v: float(i) for i, v in enumerate(ordered, start=1)}


def krippendorff_alpha(matrix: AnnotationMatrix, level: str = "nominal") -> float:
    """1 - D_o/D_e over pairable values; alpha = 1 when D_e = 0.

    Items with fewer than two annotations cannot produce coincidences
    and are ignored. Distances: nominal 0/1, ordinal squared rank
    difference (see _ordinal_ranks), interval squared value difference.
    """
    if level not in ("nominal", "ordinal", "interval"):
        raise ValueError(f"unknown level {level!r}")

    by_item: dict[str, list] = {}
    for (item, _), value in matrix.labels.items():
        by_item.setdefault(item, []).append(value)
    units = [vals for vals in by_item.values() if len(vals) >= 2]
    if not units:
        raise ValueError("no pairable values (no item has two or more annotations)")

    values = sorted({v for vals in units for v in vals})
    index = {v: i for i, v in enumerate(values)}
    k = len(values)

    import numpy as np

    if level == "nominal":
        dist = 1.0 - np.eye(k)
    else:
        if level == "ordinal":
            pos = _ordinal_ranks(values, matrix.bounds)
            coords = np.array([pos[v] for v in values], dtype=np.float64)
        else:
            coords = np.array([float(v) for v in values], dtype=np.float64)
        dist = (coords[:, None] - coords[None, :]) ** 2

    # each unit's ordered value pairs (a, b), a != b, weighing 1 / (m - 1), in
    # unit, then a, then b order: the order a pair loop adds them to each cell.
    # No array holds the pairs of a value with itself.
    codes = np.array([index[v] for vals in units for v in vals], dtype=np.int64)
    sizes = np.array([len(vals) for vals in units])
    partners = np.repeat(sizes - 1, sizes)  # each value pairs with the rest of its unit
    firsts = np.repeat(np.cumsum(sizes) - sizes, sizes)  # its unit's first position
    # a's pairs take b = its unit's first position, the next, ..., skipping a
    b = np.repeat(firsts - (np.cumsum(partners) - partners), partners)
    b += np.arange(b.size)
    b += b >= np.repeat(np.arange(codes.size), partners)
    bins = np.repeat(codes * k, partners)
    bins += codes[b]
    coincidence = _scatter_add(
        bins, np.repeat(1.0 / (sizes - 1), sizes * (sizes - 1)), (k, k)
    )

    n_c = coincidence.sum(axis=1)
    n = n_c.sum()
    d_o = float((coincidence * dist).sum()) / n
    expected = np.outer(n_c, n_c) * dist  # diagonal distance is 0 either way
    d_e = float(expected.sum()) / (n * (n - 1.0))
    if d_e == 0.0:
        return 1.0
    return 1.0 - d_o / d_e


# ---------------------------------------------------------------------------
# Wilcoxon signed-rank

def _average_ranks(values: np.ndarray) -> np.ndarray:
    """Ranks 1..n with ties getting the average of their positions."""
    import numpy as np

    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values), dtype=np.float64)
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and values[order[j + 1]] == values[order[i]]:
            j += 1
        avg = (i + j) / 2.0 + 1.0
        for idx in order[i : j + 1]:
            ranks[idx] = avg
        i = j + 1
    return ranks


def _exact_p_leq(scaled_ranks: Sequence[int], threshold: int) -> float:
    """P(W+ <= threshold/2) when each rank's sign is a fair coin.

    ``scaled_ranks`` are doubled so average ranks become integers; the
    subset-sum distribution is counted by dynamic programming.
    """
    import numpy as np

    total = sum(scaled_ranks)
    counts = np.zeros(total + 1, dtype=np.float64)
    counts[0] = 1.0
    for r in scaled_ranks:
        counts[r:] += counts[:-r].copy()
    limit = min(threshold, total)
    return float(counts[: limit + 1].sum() / 2.0 ** len(scaled_ranks))


def wilcoxon_signed_rank(x: Sequence[float], y: Sequence[float]) -> tuple[float, float]:
    """Two-sided Wilcoxon signed-rank test on paired samples.

    The statistic is min(W+, W-) over the ranks of |x - y| with
    average ranks for ties. Zero differences are discarded before
    ranking (the classic treatment). The p-value uses the exact
    sign-flip distribution for n <= 25 nonzero differences and a
    normal approximation with continuity correction beyond that.
    """
    if len(x) != len(y):
        raise ValueError(f"length mismatch: {len(x)} vs {len(y)}")
    import numpy as np

    d = np.asarray(x, dtype=np.float64) - np.asarray(y, dtype=np.float64)
    d = d[d != 0.0]
    if d.size == 0:
        raise ValueError("all differences are zero")
    ranks = _average_ranks(np.abs(d))

    w_plus = float(ranks[d > 0.0].sum())
    w_minus = float(ranks[d < 0.0].sum())
    statistic = min(w_plus, w_minus)

    n = d.size
    if n <= 25:
        scaled = [int(round(2.0 * r)) for r in ranks]
        p = 2.0 * _exact_p_leq(scaled, int(round(2.0 * statistic)))
    else:
        mu = float(ranks.sum()) / 2.0
        sigma = math.sqrt(float((ranks**2).sum()) / 4.0)
        z = (statistic - mu + 0.5) / sigma
        p = 2.0 * 0.5 * math.erfc(-z / math.sqrt(2.0))
    return statistic, min(p, 1.0)


# ---------------------------------------------------------------------------
# ranks

def mean_rank(rankings: Sequence[tuple[str, ...]]) -> dict[str, float]:
    """Per strategy, the mean 1-based rank across ``rankings``, each a
    best-first tuple of strategy names."""
    if not rankings:
        raise ValueError("no rank annotations")
    universe = frozenset(rankings[0])
    sums: dict[str, float] = {name: 0.0 for name in universe}
    for ranking in rankings:
        if frozenset(ranking) != universe:
            raise ValueError(f"ranking {ranking!r} ranks a different strategy set")
        for position, name in enumerate(ranking, start=1):
            sums[name] += position
    return {name: sums[name] / len(rankings) for name in sorted(universe)}


# ---------------------------------------------------------------------------
# annotation file loading

# Likert fields and their bounds.
FIELD_BOUNDS: dict[str, tuple[int, int]] = {
    "fluency": (1, 3),
    "meaning": (1, 5),
    "argument": (1, 5),
}


def load_annotations(path) -> tuple[dict[str, AnnotationMatrix], dict[str, list[tuple]]]:
    """Read an annotations.jsonl file of Likert and ranking records.

    Likert records: ``{"item", "worker", "field", "value"}`` with field
    one of fluency/meaning/argument. Ranking records: ``{"item",
    "worker", "ranking": [...]}``, a best-first permutation of the
    strategies the file's first ranking orders. Returns one
    AnnotationMatrix per field and each item's rankings, in file order.
    An (item, worker) gives at most one label per field and one ranking.
    """
    likert: dict[str, dict[tuple[str, str], int]] = {}
    rankings: dict[str, dict[str, tuple[str, ...]]] = {}  # item -> worker -> ranking
    first: frozenset[str] | None = None  # the strategies of the first ranking
    # one string per distinct item id, worker id and strategy name, however
    # many records repeat it
    strings: dict[str, str] = {}
    one = strings.setdefault

    def parse(rec: dict) -> None:
        nonlocal first
        item, worker = parse_id(rec["item"], "'item'"), parse_id(rec["worker"], "'worker'")
        item, worker = one(item, item), one(worker, worker)
        if "ranking" in rec:
            if not isinstance(rec["ranking"], list):
                raise ValueError("ranking must be a list")
            for name in rec["ranking"]:
                if not isinstance(name, str) or not name.strip():
                    raise ValueError(f"ranking entry {name!r} is not a strategy name")
            if worker in rankings.setdefault(item, {}):
                raise ValueError(f"duplicate ranking for {(item, worker)}")
            ranking = tuple(one(name, name) for name in rec["ranking"])
            names = frozenset(ranking)
            if len(names) != len(ranking) or not ranking:
                raise ValueError(f"ranking {ranking!r} is not a permutation")
            first = first or names
            if names != first:
                raise ValueError(f"ranking {ranking!r} ranks other strategies than the first one")
            rankings[item][worker] = ranking
            return
        for key in ("field", "value"):
            if key not in rec:
                raise ValueError(f"missing key {key!r}")
        fld, value = rec["field"], rec["value"]
        if not isinstance(fld, str) or fld not in FIELD_BOUNDS:
            raise ValueError(f"unknown field {fld!r}")
        bucket = likert.setdefault(fld, {})
        if (item, worker) in bucket:
            raise ValueError(f"duplicate {fld} annotation for {(item, worker)}")
        lo, hi = FIELD_BOUNDS[fld]
        if type(value) is not int or not lo <= value <= hi:
            raise ValueError(f"{fld} value {value!r} outside [{lo}, {hi}]")
        bucket[item, worker] = value

    for _ in read_jsonl(path, ("item", "worker"), parse):
        pass
    matrices = {fld: AnnotationMatrix(labels, FIELD_BOUNDS[fld]) for fld, labels in likert.items()}
    return matrices, {item: list(by_worker.values()) for item, by_worker in rankings.items()}
