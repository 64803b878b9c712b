"""MACE's E-step, Krippendorff's coincidences and percent agreement,
checked bit for bit against the code they replaced.

Below are verbatim copies (apart from names) of ``mace_aggregate`` as it
was when each E-step took ``np.log`` of a full annotations x labels
matrix and normalised with ``np.logaddexp.reduce``, of
``krippendorff_alpha`` with its Python pair loop, and of
``percent_agreement`` with its pair loop. Seeded random matrices go
through old and new code, and every float is compared by ``float.hex``
and every label by ``==``.

The new E-step takes ``np.log`` and ``np.exp`` of gathered arrays whose
lengths differ from the old ones, so its bits rest on those ufuncs
giving an element the same bits at any array length and offset. The
last test pins that.
"""

import math
import random
from collections import Counter

import numpy as np
import pytest

from claimpolish import evalstats
from claimpolish.evalstats import (
    AnnotationMatrix,
    _ordinal_ranks,
    krippendorff_alpha,
    mace_aggregate,
    percent_agreement,
)

# ---------------------------------------------------------------------------
# the replaced code, verbatim apart from names


def _scatter_add(bins, values, shape):
    return np.bincount(bins, weights=values, minlength=math.prod(shape)).reshape(shape)


def oracle_mace_aggregate(matrix, iterations=50, restarts=10, smoothing=0.1, seed=0):
    items = matrix.items
    workers = matrix.workers
    label_values = sorted({v for v in matrix.labels.values()}, key=lambda v: (str(type(v)), v))
    item_index = {item: i for i, item in enumerate(items)}
    worker_index = {w: i for i, w in enumerate(workers)}
    label_index = {v: i for i, v in enumerate(label_values)}

    entries = sorted(matrix.labels.items())
    a_item = np.array([item_index[it] for (it, _), _ in entries], dtype=np.int64)
    a_worker = np.array([worker_index[w] for (_, w), _ in entries], dtype=np.int64)
    a_label = np.array([label_index[v] for _, v in entries], dtype=np.int64)

    n_items, n_workers, n_labels = len(items), len(workers), len(label_values)
    n_ann = len(entries)
    arange_ann = np.arange(n_ann)
    n_per_worker = np.bincount(a_worker, minlength=n_workers).astype(np.float64)
    n_cells = n_items * n_labels
    ll_bins = np.concatenate(
        [np.arange(n_cells), (a_item[:, None] * n_labels + np.arange(n_labels)).ravel()]
    )
    ll_start = np.full(n_cells, -math.log(n_labels))
    spam_bins = a_worker * n_labels + a_label

    def e_step(theta, xi):
        spam_part = (1.0 - theta[a_worker]) * xi[a_worker, a_label]
        mix = np.repeat(spam_part[:, None], n_labels, axis=1)
        mix[arange_ann, a_label] += theta[a_worker]
        item_ll = _scatter_add(
            ll_bins, np.concatenate([ll_start, np.log(mix).ravel()]), (n_items, n_labels)
        )
        norm = np.logaddexp.reduce(item_ll, axis=1)
        posterior = np.exp(item_ll - norm[:, None])
        log_lik = float(norm.sum())
        if not math.isfinite(log_lik):
            raise ValueError("non-finite likelihood during EM")
        honest = posterior[a_item, a_label] * theta[a_worker] / mix[arange_ann, a_label]
        return posterior, log_lik, honest

    def run_em(theta, xi):
        for _ in range(iterations):
            _, _, honest = e_step(theta, xi)
            honest_per_worker = np.bincount(a_worker, weights=honest, minlength=n_workers)
            theta = (honest_per_worker + smoothing) / (n_per_worker + 2.0 * smoothing)
            spam_counts = _scatter_add(spam_bins, 1.0 - honest, (n_workers, n_labels))
            xi = (spam_counts + smoothing) / (
                spam_counts.sum(axis=1, keepdims=True) + smoothing * n_labels
            )
        posterior, log_lik, _ = e_step(theta, xi)
        return log_lik, posterior, theta

    best = None
    for restart in range(restarts):
        rng = np.random.default_rng([seed, restart])
        theta0 = rng.uniform(0.3, 0.95, size=n_workers)
        xi0 = rng.uniform(0.5, 1.5, size=(n_workers, n_labels))
        xi0 /= xi0.sum(axis=1, keepdims=True)
        log_lik, posterior, theta = run_em(theta0, xi0)
        if best is None or log_lik > best[0]:
            best = (log_lik, posterior, theta)

    log_lik, posterior, theta = best
    posterior_labels = {
        item: label_values[int(np.argmax(posterior[i]))] for item, i in item_index.items()
    }
    competence = {worker: float(theta[worker_index[worker]]) for worker in workers}
    return competence, posterior_labels, log_lik


def oracle_krippendorff_alpha(matrix, level="nominal"):
    by_item = {}
    for (item, _), value in matrix.labels.items():
        by_item.setdefault(item, []).append(value)
    units = [vals for vals in by_item.values() if len(vals) >= 2]

    values = sorted({v for vals in units for v in vals})
    index = {v: i for i, v in enumerate(values)}
    k = len(values)

    if level == "nominal":
        dist = 1.0 - np.eye(k)
    else:
        pos = _ordinal_ranks(values, matrix.bounds)
        coords = np.array([pos[v] for v in values], dtype=np.float64)
        dist = (coords[:, None] - coords[None, :]) ** 2

    coincidence = np.zeros((k, k))
    for vals in units:
        m = len(vals)
        idx = [index[v] for v in vals]
        for a in range(m):
            for b in range(m):
                if a != b:
                    coincidence[idx[a], idx[b]] += 1.0 / (m - 1)

    n_c = coincidence.sum(axis=1)
    n = n_c.sum()
    d_o = float((coincidence * dist).sum()) / n
    expected = np.outer(n_c, n_c) * dist
    d_e = float(expected.sum()) / (n * (n - 1.0))
    if d_e == 0.0:
        return 1.0
    return 1.0 - d_o / d_e


def oracle_percent_agreement(labels):
    by_item = {}
    for (item, _), value in sorted(labels.items()):
        by_item.setdefault(item, []).append(value)
    agree = total = 0
    for values in by_item.values():
        for i in range(len(values)):
            for j in range(i + 1, len(values)):
                total += 1
                agree += values[i] == values[j]
    return agree / total if total else None


# ---------------------------------------------------------------------------
# seeded matrices


def _ragged_labels(seed, n_labels, strings, n_items=40, n_workers=9):
    """Items with 1 to 8 labels from ``n_workers`` workers, drawn from
    ``n_labels`` values, plus a worker with a single annotation."""
    rng = random.Random(seed)
    alphabet = [f"v{v}" if strings else v + 1 for v in range(n_labels)]
    workers = [f"w{w}" for w in range(n_workers)]
    labels = {}
    for i in range(n_items):
        truth = rng.choice(alphabet)
        for worker in rng.sample(workers, rng.randint(1, 8)):
            honest = rng.random() < 0.7
            labels[f"i{i:02d}", worker] = truth if honest else rng.choice(alphabet)
    labels["i00", "solo"] = rng.choice(alphabet)
    return labels


def _mace_bits(competence, posterior_labels, log_lik):
    return (
        {w: c.hex() for w, c in competence.items()},
        posterior_labels,
        log_lik.hex(),
    )


@pytest.mark.parametrize("smoothing", [0.1, 0.7])
@pytest.mark.parametrize("strings", [False, True], ids=["int", "str"])
@pytest.mark.parametrize("n_labels", [1, 2, 3, 6])
def test_mace_matches_the_replaced_e_step_bit_for_bit(
    n_labels, strings, smoothing, monkeypatch, mace_schedule
):
    # the library's smoothing and schedule are module constants; 0.7 checks
    # the EM away from the smoothing, 12 steps and 3 restarts keep it short
    monkeypatch.setattr(evalstats, "MACE_SMOOTHING", smoothing)
    mace_schedule(12, 3)
    for seed in range(3):
        matrix = AnnotationMatrix(_ragged_labels(seed, n_labels, strings))
        assert min(Counter(it for it, _ in matrix.labels).values()) == 1
        assert max(Counter(it for it, _ in matrix.labels).values()) == 8
        new = mace_aggregate(matrix, seed=seed)
        old = oracle_mace_aggregate(
            matrix, iterations=12, restarts=3, smoothing=smoothing, seed=seed
        )
        assert _mace_bits(new.competence, new.posterior_labels, new.log_likelihood) == (
            _mace_bits(*old)
        )


@pytest.mark.parametrize("strings", [False, True], ids=["int", "str"])
@pytest.mark.parametrize("n_labels", [1, 2, 3, 6])
def test_krippendorff_matches_the_replaced_pair_loop_bit_for_bit(n_labels, strings):
    for seed in range(4):
        labels = _ragged_labels(seed, n_labels, strings)
        bounds_cases = [None]
        if not strings and n_labels > 1:
            bounds_cases.append((1, n_labels))
        for bounds in bounds_cases:
            matrix = AnnotationMatrix(labels, bounds)
            for level in ("nominal", "ordinal"):
                new = krippendorff_alpha(matrix, level)
                assert new.hex() == oracle_krippendorff_alpha(matrix, level).hex()


@pytest.mark.parametrize("strings", [False, True], ids=["int", "str"])
def test_percent_agreement_matches_the_replaced_pair_loop(strings):
    for seed in range(6):
        labels = _ragged_labels(seed, 2 + seed, strings)
        new, old = percent_agreement(labels), oracle_percent_agreement(labels)
        assert new.hex() == old.hex()
    assert percent_agreement({("a", "w1"): 1}) is None


# ---------------------------------------------------------------------------
# the ufuncs the E-step relies on


@pytest.mark.parametrize(
    "name, make",
    [
        ("log", lambda rng, n: (np.log, (rng.uniform(0, 1, n) ** rng.integers(1, 60, n),))),
        ("exp", lambda rng, n: (np.exp, (-rng.exponential(40.0, n),))),
        (
            "logaddexp",
            lambda rng, n: (np.logaddexp, (-rng.exponential(40.0, n), -rng.exponential(40.0, n))),
        ),
    ],
)
def test_ufunc_bits_do_not_depend_on_array_length_or_offset(name, make):
    ufunc, args = make(np.random.default_rng(17), 140)
    reference = ufunc(*args)
    for off in range(70):
        for n in range(1, 71):
            window = ufunc(*(a[off : off + n] for a in args))
            assert window.tobytes() == reference[off : off + n].tobytes(), (name, off, n)
    # strided views, as the columns of a row-major table
    for step in (2, 3, 6):
        strided = ufunc(*(a[::step] for a in args))
        assert strided.tobytes() == reference[::step].tobytes(), (name, step)
