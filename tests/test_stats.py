"""Row aggregation, pairwise comparisons, and rank correlation."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.stats import rankdata, spearmanr

from apemkit.cli import _fmt
from apemkit.errors import DataError
from apemkit.stats import (
    CSV_COLUMNS,
    epsilon_plus_diff,
    pairwise,
    read_rows,
    row_is_correct,
    row_is_defined,
    row_is_measured,
    spearman,
    summarize,
)


def make_row(**kw):
    """A per-image row as read_rows returns it."""
    row = dict(
        image_id="img0",
        method="gradient",
        stage=3,
        eps_minus=3,
        eps_plus=10,
        gap=7,
        capped_minus=False,
        capped_plus=False,
        predicted_class=1,
        true_class=1,
        confidence=0.9,
        loss=0.1,
    )
    row.update(kw)
    return row


def csv_line(row) -> str:
    """A row's CSV line, its fields written as the CLI writes them."""
    return ",".join(_fmt(row[c]) for c in CSV_COLUMNS)


# ---------------------------------------------------------------------------
# Spearman
# ---------------------------------------------------------------------------


def test_spearman_perfect_antimonotone_is_exactly_minus_one():
    x = np.linspace(0.1, 0.9, 201)
    y = -np.log(x)  # strictly decreasing transform
    r = spearman(x, y, n_permutations=200)
    assert r.rho == -1.0  # exact, not approximate


def test_spearman_perfect_monotone_is_exactly_plus_one():
    x = np.arange(50, dtype=np.float64)
    r = spearman(x, np.exp(x / 10), n_permutations=200)
    assert r.rho == 1.0


def test_spearman_antimonotone_with_matching_ties_is_exactly_minus_one():
    # saturated-confidence pattern: ties in x coincide with ties in y
    x = np.array([1.0, 1.0, 1.0, 0.9, 0.9, 0.7, 0.5, 0.2])
    y = np.array([0.0, 0.0, 0.0, 0.1, 0.1, 0.3, 0.6, 1.4])
    r = spearman(x, y, n_permutations=100)
    assert r.rho == -1.0


def test_spearman_monotone_with_matching_ties_is_exactly_plus_one():
    x = np.array([0.1, 0.1, 0.4, 0.4, 0.4, 0.8, 0.9])
    y = np.array([1.0, 1.0, 2.0, 2.0, 2.0, 3.0, 7.0])
    r = spearman(x, y, n_permutations=100)
    assert r.rho == 1.0


def test_spearman_invariant_under_monotone_transforms():
    rng = np.random.default_rng(0)
    x = rng.normal(size=80)
    y = 0.7 * x + rng.normal(size=80)
    r1 = spearman(x, y, n_permutations=50, seed=1)
    r2 = spearman(np.exp(x), y**3 + 5 * y, n_permutations=50, seed=1)
    assert abs(r1.rho - r2.rho) < 1e-12


def test_spearman_permutation_p_is_seeded_and_significant_for_strong_trends():
    x = np.arange(100, dtype=np.float64)
    y = -x + np.random.default_rng(2).normal(0, 5, 100)
    a = spearman(x, y, n_permutations=2000, seed=3)
    b = spearman(x, y, n_permutations=2000, seed=3)
    assert a.p_value == b.p_value
    assert a.rho < 0 and a.p_value < 0.01


def test_spearman_handles_constant_input_and_short_samples():
    r = spearman(np.ones(10), np.arange(10.0), n_permutations=10)
    assert r.rho is None and "zero rank variance" in r.note
    with pytest.raises(DataError):
        spearman([1.0, 2.0], [2.0, 1.0])


def test_spearman_ties_use_average_ranks():
    # y has ties; rho must match scipy's tie-corrected value
    x = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    y = np.array([1.0, 1.0, 2.0, 2.0, 3.0, 3.0])
    r = spearman(x, y, n_permutations=10)
    assert abs(r.rho - spearmanr(x, y)[0]) < 1e-12


def _loop_p_value(x, y, rho, n_permutations, seed):
    """The permutation test one rng.permutation at a time: the reference for
    spearman's chunked permutations."""
    rx, ry = rankdata(x), rankdata(y)
    rx = (rx - rx.mean()) / rx.std()
    ry = (ry - ry.mean()) / ry.std()
    rng = np.random.default_rng(seed)
    hits = 0
    for _ in range(n_permutations):
        if abs(np.dot(rx, rng.permutation(ry)) / len(x)) >= abs(rho) - 1e-12:
            hits += 1
    return (hits + 1) / (n_permutations + 1)


@st.composite
def _spearman_cases(draw):
    n = draw(st.integers(3, 60))
    # a small value range gives ties, a large one mostly none
    values = st.integers(0, draw(st.sampled_from([2, 5, 10**6])))
    x = draw(st.lists(values, min_size=n, max_size=n))
    y = draw(st.lists(values, min_size=n, max_size=n))
    return x, y, draw(st.integers(1, 4500)), draw(st.integers(0, 2**16))


@settings(max_examples=60, deadline=None)
@given(_spearman_cases())
# more than two chunks of permutations, the last one partial
@example(([3, 1, 4, 1, 5, 9, 2, 6], [2, 7, 1, 8, 2, 8, 1, 8], 4001, 0))
def test_spearman_rho_and_p_equal_the_permutation_loop(case):
    x, y, n_permutations, seed = case
    x, y = np.array(x, dtype=np.float64), np.array(y, dtype=np.float64)
    r = spearman(x, y, n_permutations=n_permutations, seed=seed)
    assume(r.rho is not None)
    assert abs(r.rho - spearmanr(x, y)[0]) < 1e-12
    assert r.p_value == _loop_p_value(x, y, r.rho, n_permutations, seed)


# ---------------------------------------------------------------------------
# Summaries
# ---------------------------------------------------------------------------


def test_summarize_groups_by_method_and_stage():
    rows = [
        make_row(image_id="a", gap=10),
        make_row(image_id="b", gap=20),
        make_row(image_id="a", method="lrp", gap=5),
        make_row(image_id="a", stage=1, gap=100),
    ]
    out = {(s.method, s.stage): s for s in summarize(rows)}
    assert out[("gradient", 3)].mean_gap == 15.0
    assert out[("gradient", 3)].n_defined == 2
    assert out[("lrp", 3)].mean_gap == 5.0
    assert out[("gradient", 1)].mean_gap == 100.0


def test_summarize_excludes_capped_and_undefined_rows_from_statistics():
    rows = [
        make_row(image_id="a", gap=10),
        make_row(image_id="b", gap=9990, capped_plus=True),
        make_row(image_id="c", gap=None, eps_minus=None, eps_plus=None),
    ]
    (s,) = summarize(rows)
    assert s.n_images == 3
    assert s.n_defined == 1
    assert s.mean_gap == 10.0
    assert s.capped_count == 1
    assert s.undefined_count == 1


def test_summarize_group_with_no_measured_row_has_no_statistics():
    rows = [
        make_row(image_id="a", gap=9990, capped_plus=True),
        make_row(image_id="b", gap=-9990, capped_minus=True),
        make_row(image_id="c", gap=None, eps_minus=None, eps_plus=None,
                 capped_minus=None, capped_plus=None),
    ]
    (s,) = summarize(rows)
    assert (s.n_images, s.n_defined, s.capped_count, s.undefined_count) == (3, 0, 2, 1)
    assert (s.mean_gap, s.median_gap, s.q1, s.q3) == (None, None, None, None)


def test_summarize_split_by_correctness():
    rows = [
        make_row(image_id="a", predicted_class=1, true_class=1, gap=10),
        make_row(image_id="b", predicted_class=2, true_class=1, gap=2),
    ]
    out = {s.method: s for s in summarize(rows, split_by_correct=True)}
    assert out["gradient/correct"].mean_gap == 10.0
    assert out["gradient/misclassified"].mean_gap == 2.0


def test_row_predicates():
    assert row_is_measured(make_row())
    assert not row_is_defined(make_row(gap=None))
    assert not row_is_measured(make_row(capped_minus=True))
    assert row_is_correct(make_row())
    assert not row_is_correct(make_row(predicted_class=2))


def _write_rows(path, rows):
    path.write_text("\n".join([",".join(CSV_COLUMNS), *rows]) + "\n")


def test_read_rows_validates_columns(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("image_id,gap\nx,1\n")
    with pytest.raises(DataError):
        read_rows(p)
    good = tmp_path / "good.csv"
    _write_rows(good, [csv_line(make_row())])
    assert read_rows(good) == [make_row()]


def test_read_rows_accepts_undefined_and_capped_rows(tmp_path):
    undefined = make_row(gap=None, eps_minus=None, eps_plus=None, capped_minus=None,
                         capped_plus=None)
    capped = make_row(image_id="img1", gap=9990, capped_plus=True)
    p = tmp_path / "rows.csv"
    _write_rows(p, [csv_line(undefined), csv_line(capped)])
    assert read_rows(p) == [undefined, capped]


@pytest.mark.parametrize(
    "field",
    [
        {"stage": "x"},
        {"stage": ""},
        {"predicted_class": "1.5"},
        {"true_class": "cat"},
        {"eps_minus": "abc"},
        {"eps_plus": "2.5"},
        {"gap": "abc"},
        {"capped_minus": "yes"},
        {"capped_plus": "1"},
        {"confidence": "high"},
        {"loss": ""},
    ],
)
def test_read_rows_rejects_a_malformed_field_and_names_its_line(tmp_path, field):
    good = csv_line(make_row())
    bad = csv_line(make_row(**field))
    p = tmp_path / "rows.csv"
    _write_rows(p, [good, bad])
    with pytest.raises(DataError, match=f"line 3: bad {next(iter(field))} "):
        read_rows(p)


def test_read_rows_rejects_a_partly_empty_gap(tmp_path):
    # report would take eps_plus of a row whose gap is set
    p = tmp_path / "rows.csv"
    _write_rows(p, [csv_line(make_row(eps_plus=None))])
    with pytest.raises(DataError, match="line 2: eps_minus, eps_plus and gap are partly empty"):
        read_rows(p)


def test_read_rows_rejects_a_repeated_row_and_names_its_line(tmp_path):
    # summarize would count the row twice; pairwise would keep one copy
    p = tmp_path / "rows.csv"
    _write_rows(p, [csv_line(make_row()), csv_line(make_row(stage=1)),
                    csv_line(make_row(gap=8, eps_plus=11))])
    with pytest.raises(DataError, match="line 4: repeated row"):
        read_rows(p)


@pytest.mark.parametrize("cut", [slice(0, -1), slice(0, 3), slice(None)])
def test_read_rows_rejects_a_row_of_the_wrong_length(tmp_path, cut):
    fields = csv_line(make_row()).split(",")[cut]
    if cut == slice(None):
        fields.append("extra")
    p = tmp_path / "rows.csv"
    _write_rows(p, [",".join(fields)])
    with pytest.raises(DataError, match="line 2: expected 12 fields"):
        read_rows(p)


# ---------------------------------------------------------------------------
# Pairwise and eps_plus differences
# ---------------------------------------------------------------------------


def test_pairwise_fractions_and_antisymmetry():
    a = {"x": 5, "y": 3, "z": 1, "w": 9}
    b = {"x": 4, "y": 3, "z": 2, "q": 7}
    r = pairwise(a, b)
    assert r.n_compared == 3 and r.n_excluded == 2
    assert (r.better, r.equal, r.worse) == pytest.approx((1 / 3, 1 / 3, 1 / 3))
    flipped = pairwise(b, a)
    assert flipped.better == r.worse and flipped.worse == r.better


def test_pairwise_needs_shared_images():
    with pytest.raises(DataError):
        pairwise({"a": 1}, {"b": 2})


def test_epsilon_plus_diff_histogram_covers_all_diffs():
    a = {"x": 10, "y": 12, "z": 30}
    b = {"x": 11, "y": 12, "z": 20}
    diffs, counts, edges = epsilon_plus_diff(a, b)
    np.testing.assert_array_equal(np.sort(diffs), [-1, 0, 10])
    assert counts.sum() == 3
    assert edges[0] <= diffs.min() and edges[-1] >= diffs.max()
