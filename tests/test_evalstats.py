import json
import random

import numpy as np
import pytest

from claimpolish.evalstats import (
    COMPETENCE_THRESHOLD,
    AnnotationMatrix,
    FIELD_BOUNDS,
    MaceResult,
    _scatter_add,
    cohens_kappa,
    competent_workers,
    krippendorff_alpha,
    load_annotations,
    mace_aggregate,
    mean_rank,
    wilcoxon_signed_rank,
)

scipy_stats = pytest.importorskip("scipy.stats")


def matrix_from(rows, bounds=None):
    """rows: {item: {worker: label}}"""
    labels = {
        (item, worker): value
        for item, by_worker in rows.items()
        for worker, value in by_worker.items()
    }
    return AnnotationMatrix(labels, bounds)


# ---------------------------------------------------------------------------
# annotation matrix


def test_matrix_sorts_axes():
    m = matrix_from({"i2": {"w2": 1, "w1": 2}, "i1": {"w1": 1}})
    assert m.items == ("i1", "i2")
    assert m.workers == ("w1", "w2")


def test_matrix_statistics_do_not_depend_on_label_order(mace_schedule):
    rng = random.Random(8)
    labels = {(f"i{i:02d}", f"w{w}"): rng.randint(1, 3) for i in range(30) for w in range(4)}
    ordered = AnnotationMatrix(dict(sorted(labels.items())))
    reversed_ = AnnotationMatrix(dict(sorted(labels.items(), reverse=True)))
    assert list(reversed_.labels.items()) == list(ordered.labels.items())
    assert (reversed_.items, reversed_.workers) == (ordered.items, ordered.workers)
    for level in ("nominal", "ordinal", "interval"):
        alpha = krippendorff_alpha(reversed_, level)
        assert alpha.hex() == krippendorff_alpha(ordered, level).hex()
    mace_schedule(50, 2)
    assert mace_aggregate(reversed_) == mace_aggregate(ordered)


def test_matrix_rejects_empty_labels():
    with pytest.raises(ValueError, match="empty annotation matrix"):
        AnnotationMatrix({})


def test_matrix_enforces_ordinal_bounds():
    with pytest.raises(ValueError):
        matrix_from({"i1": {"w1": 9}}, bounds=(1, 5))
    matrix_from({"i1": {"w1": 5}}, bounds=(1, 5))


def test_scale_validation():
    for bounds in ((3, 3), (5, 1)):
        with pytest.raises(ValueError, match="bad scale bounds"):
            matrix_from({"i1": {"w1": 3}}, bounds=bounds)


# ---------------------------------------------------------------------------
# Cohen's kappa


def test_kappa_contingency_fixture():
    # [[20, 5], [10, 15]]: p_o = 0.7, p_e = 0.5
    a = ["A"] * 25 + ["B"] * 25
    b = ["A"] * 20 + ["B"] * 5 + ["A"] * 10 + ["B"] * 15
    assert cohens_kappa(a, b) == pytest.approx(0.4, abs=1e-9)


def test_kappa_perfect_and_chance():
    assert cohens_kappa(["x", "y", "x"], ["x", "y", "x"]) == 1.0
    # independent-looking marginals with observed agreement at chance level
    a = ["x", "x", "y", "y"]
    b = ["x", "y", "x", "y"]
    assert cohens_kappa(a, b) == pytest.approx(0.0)


def test_kappa_errors():
    with pytest.raises(ValueError):
        cohens_kappa(["x"], ["x", "y"])
    with pytest.raises(ValueError):
        cohens_kappa([], [])
    with pytest.raises(ValueError):
        cohens_kappa(["x", "x"], ["x", "x"])  # p_e = 1


# ---------------------------------------------------------------------------
# Krippendorff's alpha


def test_alpha_unanimous_is_one():
    m = matrix_from({"i1": {"w1": 1, "w2": 1}, "i2": {"w1": 2, "w2": 2}})
    assert krippendorff_alpha(m) == 1.0


def test_alpha_single_item_disagreement_is_zero():
    m = matrix_from({"i1": {"w1": 1, "w2": 2}})
    assert krippendorff_alpha(m) == pytest.approx(0.0)


def test_alpha_nominal_hand_value():
    # coincidences: aa=2, ab=ba=1, bb=4 -> D_o = 2/8, D_e = 30/56
    m = matrix_from(
        {
            "i1": {"w1": "a", "w2": "a"},
            "i2": {"w1": "a", "w2": "b"},
            "i3": {"w1": "b", "w2": "b"},
            "i4": {"w1": "b", "w2": "b"},
        }
    )
    assert krippendorff_alpha(m) == pytest.approx(8 / 15, abs=1e-12)


def test_alpha_ignores_single_annotation_items():
    base = {
        "i1": {"w1": "a", "w2": "a"},
        "i2": {"w1": "a", "w2": "b"},
        "i3": {"w1": "b", "w2": "b"},
        "i4": {"w1": "b", "w2": "b"},
    }
    with_extra = dict(base, lonely={"w3": "a"})
    assert krippendorff_alpha(matrix_from(with_extra)) == pytest.approx(
        krippendorff_alpha(matrix_from(base))
    )


def test_alpha_no_pairable_values_raises():
    m = matrix_from({"i1": {"w1": 1}, "i2": {"w2": 2}})
    with pytest.raises(ValueError) as err:
        krippendorff_alpha(m)
    assert "pairable" in str(err.value)


def test_alpha_unknown_level_raises():
    m = matrix_from({"i1": {"w1": 1, "w2": 1}})
    with pytest.raises(ValueError):
        krippendorff_alpha(m, level="ratio")


def test_alpha_ordinal_with_bounds_equals_interval():
    # declared bounds make each value its own rank position
    rows = {
        "i1": {"w1": 1, "w2": 2},
        "i2": {"w1": 4, "w2": 5},
        "i3": {"w1": 1, "w2": 1},
    }
    m = matrix_from(rows, bounds=(1, 5))
    assert krippendorff_alpha(m, "ordinal") == pytest.approx(
        krippendorff_alpha(m, "interval")
    )


def test_alpha_ordinal_without_bounds_uses_observed_positions():
    # gap between 3 and 9 collapses under observed-position ranking
    rows = {
        "i1": {"w1": 1, "w2": 3},
        "i2": {"w1": 3, "w2": 9},
        "i3": {"w1": 9, "w2": 9},
        "i4": {"w1": 1, "w2": 1},
    }
    m = matrix_from(rows, bounds=None)
    ordinal = krippendorff_alpha(m, "ordinal")
    interval = krippendorff_alpha(m, "interval")
    assert ordinal != pytest.approx(interval)


def test_alpha_random_labels_near_zero():
    rng = random.Random(3)
    rows = {
        f"i{i}": {f"w{w}": rng.randint(1, 3) for w in range(4)} for i in range(500)
    }
    value = krippendorff_alpha(matrix_from(rows))
    assert abs(value) < 0.05


# ---------------------------------------------------------------------------
# MACE aggregation


def _planted_matrix(n_items, n_good, n_spam, n_labels, seed):
    rng = random.Random(seed)
    truth = {f"i{i:03d}": rng.randrange(n_labels) for i in range(n_items)}
    labels = {}
    for i, (item, true) in enumerate(truth.items()):
        for g in range(n_good):
            labels[(item, f"good{g}")] = true
        for s in range(n_spam):
            labels[(item, f"spam{s}")] = rng.randrange(n_labels)
    return AnnotationMatrix(labels), truth


def _spread(rng, n):
    """Values over 16 decades, so the order of additions shows in the bits."""
    return rng.normal(size=n) * 10.0 ** rng.integers(-8, 8, size=n)


def test_scatter_add_is_np_add_at_bit_for_bit():
    rng = np.random.default_rng(5)
    # 1-D: repeated bins; bins 0, 3 and 6 stay empty
    bins = rng.choice([1, 2, 4, 5], size=300)
    values = _spread(rng, bins.size)
    expected = np.zeros(7)
    np.add.at(expected, bins, values)
    assert _scatter_add(bins, values, (7,)).tobytes() == expected.tobytes()

    # 2-D, one (row, column) cell per value, as MACE's spam counts; row 2 stays empty
    rows, cols = rng.choice([0, 1, 3, 4], size=500), rng.integers(0, 3, size=500)
    values = _spread(rng, rows.size)
    expected = np.zeros((5, 3))
    np.add.at(expected, (rows, cols), values)
    assert _scatter_add(rows * 3 + cols, values, (5, 3)).tobytes() == expected.tobytes()

    # 2-D, a start value then one whole row per index, as MACE's item log-likelihoods
    values = _spread(rng, rows.size * 3).reshape(rows.size, 3)
    expected = np.full((5, 3), -np.log(3))
    np.add.at(expected, rows, values)
    flat_bins = np.concatenate([np.arange(15), (rows[:, None] * 3 + np.arange(3)).ravel()])
    flat_values = np.concatenate([np.full(15, -np.log(3)), values.ravel()])
    assert _scatter_add(flat_bins, flat_values, (5, 3)).tobytes() == expected.tobytes()


def test_mace_recovers_planted_labels(mace_schedule):
    matrix, truth = _planted_matrix(60, 3, 3, 3, seed=1)
    mace_schedule(30, 4)
    result = mace_aggregate(matrix, seed=0)
    accuracy = sum(
        result.posterior_labels[item] == true for item, true in truth.items()
    ) / len(truth)
    assert accuracy >= 0.98
    good = [result.competence[f"good{g}"] for g in range(3)]
    spam = [result.competence[f"spam{s}"] for s in range(3)]
    assert min(good) > max(spam)


def test_mace_is_deterministic(mace_schedule):
    matrix, _ = _planted_matrix(40, 2, 2, 3, seed=2)
    mace_schedule(20, 3)
    a = mace_aggregate(matrix, seed=7)
    b = mace_aggregate(matrix, seed=7)
    assert a == b


def test_mace_seed_changes_restart_draws(mace_schedule):
    matrix, _ = _planted_matrix(40, 2, 2, 3, seed=2)
    mace_schedule(20, 2)
    a = mace_aggregate(matrix, seed=0)
    b = mace_aggregate(matrix, seed=123)
    # posteriors agree on labels, but fitted parameters generally differ
    assert a.log_likelihood != b.log_likelihood or a.competence != b.competence


def test_mace_unanimous_data(mace_schedule):
    labels = {(f"i{i}", f"w{w}"): i % 2 for i in range(10) for w in range(3)}
    mace_schedule(50, 2)
    result = mace_aggregate(AnnotationMatrix(labels))
    assert all(result.posterior_labels[f"i{i}"] == i % 2 for i in range(10))
    assert all(c > 0.9 for c in result.competence.values())


def test_competence_filter_is_strict():
    result = MaceResult(
        competence={"a": 0.3, "b": 0.30000001, "c": 0.9},
        posterior_labels={},
        log_likelihood=0.0,
    )
    assert COMPETENCE_THRESHOLD == 0.3
    assert competent_workers(result) == ["b", "c"]


# ---------------------------------------------------------------------------
# Wilcoxon signed-rank


def test_wilcoxon_small_fixture():
    x = [1.0, -2.0, 3.0, 4.0, 5.0]
    statistic, p = wilcoxon_signed_rank(x, [0.0] * 5)
    assert statistic == 2.0
    assert p == pytest.approx(0.1875, abs=1e-12)


def test_wilcoxon_published_nine_pair_example():
    # Hamilton depression scale data (Hollander & Wolfe)
    x = [1.83, 0.50, 1.62, 2.48, 1.68, 1.88, 1.55, 3.06, 1.30]
    y = [0.878, 0.647, 0.598, 2.05, 1.06, 1.29, 1.06, 3.14, 1.29]
    statistic, p = wilcoxon_signed_rank(x, y)
    assert statistic == 5.0
    assert p == pytest.approx(0.0390625, abs=1e-12)


def test_wilcoxon_matches_scipy_exact():
    rng = random.Random(4)
    for trial in range(20):
        n = rng.randint(6, 20)
        x = [rng.uniform(-3, 3) for _ in range(n)]
        y = [rng.uniform(-3, 3) for _ in range(n)]
        statistic, p = wilcoxon_signed_rank(x, y)
        expect = scipy_stats.wilcoxon(x, y, method="exact")
        assert statistic == pytest.approx(expect.statistic)
        assert p == pytest.approx(expect.pvalue, abs=1e-12)


def test_wilcoxon_exact_handles_tied_ranks():
    x = [1.0, 2.0, 2.0, 5.0, 7.0]
    statistic, p = wilcoxon_signed_rank(x, [0.0] * 5)
    expect = scipy_stats.wilcoxon(x, method="exact")
    assert statistic == pytest.approx(expect.statistic)
    assert p == pytest.approx(expect.pvalue, abs=1e-12)


def test_wilcoxon_normal_approximation_matches_scipy():
    rng = np.random.default_rng(0)
    x = rng.normal(0, 1, 30)
    y = x + rng.normal(0.3, 1.2, 30)
    statistic, p = wilcoxon_signed_rank(list(x), list(y))
    expect = scipy_stats.wilcoxon(x, y, method="approx", correction=True)
    assert statistic == pytest.approx(expect.statistic)
    assert p == pytest.approx(expect.pvalue, rel=1e-10)


def test_wilcoxon_is_symmetric():
    x = [1.3, 2.1, 0.4, 5.5, 1.1, 0.2]
    y = [0.9, 2.9, 0.1, 4.0, 2.2, 0.3]
    assert wilcoxon_signed_rank(x, y) == wilcoxon_signed_rank(y, x)


def test_wilcoxon_errors():
    with pytest.raises(ValueError):
        wilcoxon_signed_rank([1.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        wilcoxon_signed_rank([1.0, 2.0], [1.0, 2.0])  # all zeros


# ---------------------------------------------------------------------------
# ranks and type overlap


def test_mean_rank():
    means = mean_rank([("a", "b", "c"), ("b", "a", "c"), ("a", "c", "b")])
    assert means == {
        "a": pytest.approx((1 + 2 + 1) / 3),
        "b": pytest.approx((2 + 1 + 3) / 3),
        "c": pytest.approx((3 + 3 + 2) / 3),
    }


def test_mean_rank_universe_mismatch():
    with pytest.raises(ValueError, match="different strategy set"):
        mean_rank([("a", "b"), ("a", "c")])
    with pytest.raises(ValueError):
        mean_rank([])


# ---------------------------------------------------------------------------
# annotation files


def _write(path, records):
    path.write_text("\n".join(json.dumps(r) for r in records) + "\n")


def test_load_annotations_mixed_file(tmp_path):
    path = tmp_path / "ann.jsonl"
    _write(
        path,
        [
            {"item": "p1", "worker": "w1", "field": "fluency", "value": 3},
            {"item": "p1", "worker": "w2", "field": "fluency", "value": 2},
            {"item": "p1", "worker": "w1", "field": "meaning", "value": 5},
            {"item": "p1", "worker": "w1", "ranking": ["autoscore", "top1"]},
        ],
    )
    matrices, rankings = load_annotations(path)
    assert set(matrices) == {"fluency", "meaning"}
    assert matrices["fluency"].labels[("p1", "w2")] == 2
    assert matrices["fluency"].bounds == FIELD_BOUNDS["fluency"]
    assert rankings == {"p1": [("autoscore", "top1")]}


def test_load_annotations_keeps_integer_ids_as_their_digits(tmp_path):
    path = tmp_path / "ann.jsonl"
    _write(
        path,
        [
            {"item": 3, "worker": 4, "field": "fluency", "value": 1},
            {"item": 3, "worker": 5, "ranking": ["autoscore", "top1"]},
        ],
    )
    matrices, rankings = load_annotations(path)
    assert matrices["fluency"].labels == {("3", "4"): 1}
    assert rankings == {"3": [("autoscore", "top1")]}


def test_load_annotations_rejects_duplicates(tmp_path):
    path = tmp_path / "ann.jsonl"
    _write(
        path,
        [
            {"item": "p1", "worker": "w1", "field": "fluency", "value": 3},
            {"item": "p1", "worker": "w1", "field": "fluency", "value": 2},
        ],
    )
    with pytest.raises(ValueError) as err:
        load_annotations(path)
    assert "line 2" in str(err.value) and "duplicate" in str(err.value)


def test_load_annotations_rejects_duplicate_rankings(tmp_path):
    # a repeated ranking would count twice in mean_rank and in the item ranks
    path = tmp_path / "ann.jsonl"
    _write(
        path,
        [
            {"item": "p1", "worker": "w1", "ranking": ["autoscore", "top1"]},
            {"item": "p1", "worker": "w2", "ranking": ["autoscore", "top1"]},
            {"item": "p1", "worker": "w1", "ranking": ["top1", "autoscore"]},
        ],
    )
    with pytest.raises(ValueError, match=r"^line 3: duplicate ranking for \('p1', 'w1'\)$"):
        load_annotations(path)


@pytest.mark.parametrize(
    "ranking, reason",
    [
        (["top1", "top1"], "ranking ('top1', 'top1') is not a permutation"),
        ([], "ranking () is not a permutation"),
        (
            ["autoscore", "random"],
            "ranking ('autoscore', 'random') ranks other strategies than the first one",
        ),
        (["autoscore"], "ranking ('autoscore',) ranks other strategies than the first one"),
    ],
    ids=["repeat", "empty", "other-set", "subset"],
)
def test_load_annotations_rejects_a_ranking_naming_its_line(tmp_path, ranking, reason):
    path = tmp_path / "ann.jsonl"
    _write(
        path,
        [
            {"item": "p1", "worker": "w1", "field": "fluency", "value": 3},
            {"item": "p1", "worker": "w1", "ranking": ["top1", "autoscore"]},
            {"item": "p2", "worker": "w1", "ranking": ranking},
        ],
    )
    with pytest.raises(ValueError) as err:
        load_annotations(path)
    assert str(err.value) == f"line 3: {reason}"


def test_load_annotations_keeps_one_string_per_id(tmp_path):
    # ids repeat across records and fields, as strings and as integers;
    # a one-character string or a one-digit integer's digits would be
    # shared by CPython anyway, so every id here is longer
    path = tmp_path / "ann.jsonl"
    _write(
        path,
        [
            {"item": "p1::autoscore", "worker": "w1", "field": "fluency", "value": 3},
            {"item": "p1::autoscore", "worker": 42, "field": "fluency", "value": 2},
            {"item": "p1::autoscore", "worker": "w1", "field": "meaning", "value": 5},
            {"item": 42, "worker": "w1", "field": "meaning", "value": 4},
            {"item": "p1::top1", "worker": "42", "field": "meaning", "value": 1},
            {"item": "p1", "worker": "w1", "ranking": ["autoscore", "top1"]},
            {"item": "p1", "worker": 42, "ranking": ["top1", "autoscore"]},
            {"item": 42, "worker": "w1", "ranking": ["top1", "autoscore"]},
        ],
    )
    matrices, rankings = load_annotations(path)
    # what the loader returned before it shared its strings
    assert matrices == {
        "fluency": AnnotationMatrix(
            {("p1::autoscore", "w1"): 3, ("p1::autoscore", "42"): 2}, FIELD_BOUNDS["fluency"]
        ),
        "meaning": AnnotationMatrix(
            {("p1::autoscore", "w1"): 5, ("42", "w1"): 4, ("p1::top1", "42"): 1},
            FIELD_BOUNDS["meaning"],
        ),
    }
    assert rankings == {
        "p1": [("autoscore", "top1"), ("top1", "autoscore")],
        "42": [("top1", "autoscore")],
    }
    returned = [s for m in matrices.values() for key in m.labels for s in key]
    returned += [s for m in matrices.values() for s in (*m.items, *m.workers)]
    for item, item_rankings in rankings.items():
        returned += [item, *(name for ranking in item_rankings for name in ranking)]
    distinct = set(returned)
    assert len(distinct) == 7
    assert [s for s in distinct if len({id(x) for x in returned if x == s}) > 1] == []


def test_load_annotations_rejects_a_record_without_field_or_ranking(tmp_path):
    path = tmp_path / "ann.jsonl"
    _write(path, [{"item": "p1", "worker": "w1"}])
    with pytest.raises(ValueError, match="^line 1: missing key 'field'$"):
        load_annotations(path)


def test_load_annotations_rejects_unknown_field(tmp_path):
    path = tmp_path / "ann.jsonl"
    _write(path, [{"item": "p1", "worker": "w1", "field": "style", "value": 3}])
    with pytest.raises(ValueError) as err:
        load_annotations(path)
    assert "style" in str(err.value)


def test_load_annotations_rejects_out_of_scale_value(tmp_path):
    path = tmp_path / "ann.jsonl"
    _write(path, [{"item": "p1", "worker": "w1", "field": "fluency", "value": 4}])
    with pytest.raises(ValueError) as err:
        load_annotations(path)
    assert "outside [1, 3]" in str(err.value)


def test_load_annotations_rejects_malformed_json(tmp_path):
    path = tmp_path / "ann.jsonl"
    path.write_text("{broken\n")
    with pytest.raises(ValueError) as err:
        load_annotations(path)
    assert "line 1" in str(err.value)
