"""Aggregation and analysis over per-image evaluation rows.

Consumes the per-image CSV contract (one row per image x method x stage)
and produces method summaries, pairwise win/tie/loss fractions, eps_plus
difference histograms, and Spearman rank correlations with a seeded
permutation test for significance.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, fields

import numpy as np
from scipy.stats import rankdata

from .apem import GapResult, apem, gap_quartiles
from .errors import DataError


def columns(cls) -> list[str]:
    """Field names of a result dataclass: the column names of its table."""
    return [f.name for f in fields(cls)]


GAP_COLUMNS = columns(GapResult)
CSV_COLUMNS = ["image_id", "method", "stage", *GAP_COLUMNS,
               "predicted_class", "true_class", "confidence", "loss"]


@dataclass(frozen=True)
class MethodSummary:
    method: str
    stage: int
    n_images: int
    n_defined: int
    mean_gap: float | None
    median_gap: float | None
    q1: float | None
    q3: float | None
    capped_count: int
    undefined_count: int


@dataclass(frozen=True)
class CorrelationResult:
    rho: float | None
    p_value: float | None
    n: int
    note: str | None = None  # why rho is undefined


# the parser of each typed column; each raises ValueError on a malformed field
_FIELD_PARSERS = {
    **dict.fromkeys(("stage", "predicted_class", "true_class"), int),
    **dict.fromkeys(("eps_minus", "eps_plus", "gap"), lambda v: None if v == "" else int(v)),
    **dict.fromkeys(("capped_minus", "capped_plus"),
                    lambda v: (True, False, None)[("True", "False", "").index(v)]),
    **dict.fromkeys(("confidence", "loss"), float),
}


def read_rows(path) -> list[dict]:
    """Rows of a per-image CSV with every typed column parsed, None where a
    field is empty; DataError names the first malformed line."""
    with open(path, newline="", encoding="utf-8") as f:
        try:
            text = f.read()
        except UnicodeDecodeError as e:
            raise DataError(f"{path}: not UTF-8 text: {e}") from None
    reader = csv.DictReader(io.StringIO(text, newline=""))
    missing = [c for c in CSV_COLUMNS if c not in (reader.fieldnames or [])]
    if missing:
        raise DataError(f"{path}: rows missing columns {missing}")
    rows, seen = [], set()
    for row in reader:
        where = f"{path}, line {reader.line_num}"
        if None in row or None in row.values():
            raise DataError(f"{where}: expected {len(reader.fieldnames)} fields")
        for column, parse in _FIELD_PARSERS.items():
            try:
                row[column] = parse(row[column])
            except ValueError:
                raise DataError(f"{where}: bad {column} {row[column]!r}") from None
        if len({row[c] is None for c in ("eps_minus", "eps_plus", "gap")}) > 1:
            raise DataError(f"{where}: eps_minus, eps_plus and gap are partly empty")
        key = (row["image_id"], row["method"], row["stage"])
        if key in seen:
            raise DataError(f"{where}: repeated row for image, method and stage {key}")
        seen.add(key)
        rows.append(row)
    return rows


def row_is_defined(row: dict) -> bool:
    return row["gap"] is not None


def row_is_capped(row: dict) -> bool:
    return bool(row["capped_minus"] or row["capped_plus"])


def row_is_measured(row: dict) -> bool:
    """Defined and not capped: capped searches are flagged, not measurements."""
    return row_is_defined(row) and not row_is_capped(row)


def row_is_correct(row: dict) -> bool:
    """The model predicted the image's true class."""
    return row["predicted_class"] == row["true_class"]


def summarize(rows, split_by_correct: bool = False) -> list[MethodSummary]:
    """Per (method, stage) statistics; optionally split correct/misclassified
    into separate summaries keyed by a method suffix."""
    groups: dict[tuple, list[dict]] = {}
    for row in rows:
        method = row["method"]
        if split_by_correct:
            method += "/correct" if row_is_correct(row) else "/misclassified"
        groups.setdefault((method, row["stage"]), []).append(row)

    out = []
    for (method, stage), grp in sorted(groups.items()):
        # capped rows are excluded from the statistics and counted separately
        measured = [r["gap"] for r in grp if row_is_measured(r)]
        mean = apem(measured) if measured else None
        q1, median, q3 = gap_quartiles(measured) if measured else (None, None, None)
        capped = sum(map(row_is_capped, grp))
        undefined = sum(not row_is_defined(r) for r in grp)
        out.append(MethodSummary(method, stage, len(grp), len(measured), mean, median, q1, q3,
                                 capped, undefined))
    return out


@dataclass(frozen=True)
class PairwiseResult:
    better: float
    equal: float
    worse: float
    n_compared: int
    n_excluded: int


def pairwise(gaps_a: dict, gaps_b: dict) -> PairwiseResult:
    """Fractions of shared images where method A's gap beats/ties/loses to B's.

    Images missing or undefined for either method are excluded and counted.
    """
    shared = sorted(set(gaps_a) & set(gaps_b))
    excluded = len(set(gaps_a) | set(gaps_b)) - len(shared)
    if not shared:
        raise DataError("pairwise comparison needs at least one shared image")
    better = sum(1 for k in shared if gaps_a[k] > gaps_b[k])
    equal = sum(1 for k in shared if gaps_a[k] == gaps_b[k])
    worse = len(shared) - better - equal
    n = len(shared)
    return PairwiseResult(better / n, equal / n, worse / n, n, excluded)


def epsilon_plus_diff(eps_a: dict, eps_b: dict, bin_width: float = 1.0):
    """Per-image eps_plus(A) - eps_plus(B) and binned counts."""
    shared = sorted(set(eps_a) & set(eps_b))
    if not shared:
        raise DataError("epsilon_plus_diff needs at least one shared image")
    diffs = np.array([eps_a[k] - eps_b[k] for k in shared], dtype=np.float64)
    lo = np.floor(diffs.min() / bin_width) * bin_width
    hi = np.ceil(diffs.max() / bin_width) * bin_width
    if hi == lo:
        hi = lo + bin_width
    edges = np.arange(lo, hi + bin_width / 2, bin_width)
    counts, edges = np.histogram(diffs, bins=edges)
    return diffs, counts, edges


# permutations spearman shuffles and scores at a time: a chunk holds
# _PERMUTATION_CHUNK * n floats
_PERMUTATION_CHUNK = 2000


def spearman(
    x, y, n_permutations: int = 10_000, seed: int = 0
) -> CorrelationResult:
    """Spearman rho with average-rank ties; two-sided seeded permutation p."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise DataError("spearman needs two equal-length 1-D samples")
    n = len(x)
    if n < 3:
        raise DataError(f"spearman needs at least 3 observations, got {n}")
    rx = rankdata(x)
    ry = rankdata(y)
    sx = rx.std()
    sy = ry.std()
    if sx == 0 or sy == 0:
        which = "x" if sx == 0 else "y"
        return CorrelationResult(None, None, n, note=f"zero rank variance in {which}")
    if len(np.unique(x)) == n and len(np.unique(y)) == n:
        # tie-free: the classical formula over integer rank differences is
        # exact, so perfectly (anti)monotone data yields rho of exactly +/-1
        d2 = int(np.sum((rx.astype(np.int64) - ry.astype(np.int64)) ** 2))
        rho = 1.0 - 6.0 * d2 / (n * (n * n - 1))
    elif np.array_equal(rx, ry):
        # identical average-rank vectors: Pearson on ranks is exactly +1
        rho = 1.0
    elif np.array_equal(rx + ry, np.full(n, n + 1.0)):
        # mirrored average-rank vectors (ry = (n+1) - rx, ties matching):
        # Pearson on ranks is exactly -1
        rho = -1.0
    else:
        rho = float(np.dot((rx - rx.mean()) / sx, (ry - ry.mean()) / sy) / n)
    rx = (rx - rx.mean()) / sx
    ry = (ry - ry.mean()) / sy

    # each row of a chunk is shuffled in turn, the same stream as one
    # rng.permutation(ry) per permutation
    rng = np.random.default_rng(seed)
    hits = 0
    for done in range(0, n_permutations, _PERMUTATION_CHUNK):
        rows = min(_PERMUTATION_CHUNK, n_permutations - done)
        perm_rho = rng.permuted(np.broadcast_to(ry, (rows, n)), axis=1) @ rx / n
        hits += int(np.count_nonzero(np.abs(perm_rho) >= abs(rho) - 1e-12))
    p = (hits + 1) / (n_permutations + 1)
    return CorrelationResult(rho, p, n)
