"""Turning raw human judgments into DA scores.

Raw judgments are 0-100 quality ratings keyed by worker, system, and segment.
Workers use the scale differently, so scores are standardized per worker
(subtracting the worker mean, optionally dividing by the worker sample sd)
before being averaged into segment-level DA scores; system-level DA is the
mean of a system's segment scores.

One Judgments record carries the rows as four parallel columns in file
order: worker_id and system_id hold one shared str per distinct id, and
segment_id and score are int64 and float64 arrays, so no object is kept per
row.  standardize_judgments returns a new record holding the kept rows, with
standardized values in its score column.  Grouping by worker or by (system,
segment) item is one stable sort (np.lexsort) over integer codes that sort
like the keys, so groups come in key order and rows in file order within a
group.

The judgments CSV has a header naming worker_id, system_id, segment_id and
score in any order; other columns and empty lines are ignored.  segment_id
must be an integer in [0, 2**63 - 1] and score a number in [0, 100].  Errors
name the physical line a bad row starts on: the header is line 1, and empty
lines and line breaks inside quoted fields count.

Also houses the assessor-count simulation: split each item's judgments into
"first i" and "the rest", correlate the two means across items, and find the
smallest i whose correlation reaches a target.
"""

from __future__ import annotations

import csv
import math
import random
from array import array
from dataclasses import dataclass
from itertools import compress
from typing import Iterable, Iterator, Sequence

import numpy as np

from .correlation import _constant, _mean, pearson
from .errors import DataError, InsufficientDataError, utf8_input
from .findings import Finding, warning
from .metrics import _codes

CENTER = "center"
ZSCORE = "zscore"

JUDGMENT_FIELDS = ("worker_id", "system_id", "segment_id", "score")
# The largest segment_id an int64 column holds.
MAX_SEGMENT_ID = 2**63 - 1


@dataclass(frozen=True, eq=False)
class Judgments:
    """Judgment rows as four parallel columns, in input order.

    segment_id and score are stored as int64 and float64 arrays, whatever
    sequences they are given as.  score holds raw 0-100 ratings as loaded,
    or per-worker standardized values after standardize_judgments.  len()
    is the number of rows; == compares the columns value by value.
    """

    worker_id: Sequence[str]
    system_id: Sequence[str]
    segment_id: np.ndarray
    score: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "segment_id", np.asarray(self.segment_id, np.int64))
        object.__setattr__(self, "score", np.asarray(self.score, np.float64))
        lengths = {len(getattr(self, name)) for name in JUDGMENT_FIELDS}
        if len(lengths) > 1:
            raise ValueError(f"Judgments columns differ in length: {sorted(lengths)}")

    def __len__(self) -> int:
        return len(self.score)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Judgments):
            return NotImplemented
        return (
            list(self.worker_id) == list(other.worker_id)
            and list(self.system_id) == list(other.system_id)
            and np.array_equal(self.segment_id, other.segment_id)
            and np.array_equal(self.score, other.score)
        )


@dataclass(frozen=True)
class WorkerStats:
    """Per-worker score statistics (sd uses the n-1 denominator)."""

    worker_id: str
    count: int
    mean: float
    sd: float


@dataclass(frozen=True)
class SegmentDA:
    """DA score for one system on one segment."""

    system_id: str
    segment_id: int
    da_score: float
    judgment_count: int


@dataclass(frozen=True)
class SystemDA:
    """DA score for one system: the mean of its segment DA scores."""

    system_id: str
    da_score: float
    segment_count: int


def load_judgments(path) -> Judgments:
    """Read a judgments CSV with header worker_id,system_id,segment_id,score.

    Raises:
        DataError: a file that is not UTF-8, missing columns, unparseable or
            short rows, ids holding a line break, scores outside [0, 100], or
            segment ids outside [0, 2**63 - 1], naming the line.
    """
    worker_id: list[str] = []
    system_id: list[str] = []
    segment_id = array("q")
    score = array("d")
    # One str per distinct id, however many rows repeat it.
    ids: dict[str, str] = {}
    with utf8_input(path), open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        # Like csv.DictReader, a repeated column name means its last column.
        column = {name: i for i, name in enumerate(next(reader, []))}
        missing = [c for c in JUDGMENT_FIELDS if c not in column]
        if missing:
            raise DataError(
                f"judgments {path}: missing column(s) {', '.join(missing)}; "
                f"expected header {','.join(JUDGMENT_FIELDS)}"
            )
        w, s, g, x = (column[c] for c in JUDGMENT_FIELDS)

        def bad(what: str) -> DataError:
            return DataError(f"judgments {path} line {line}: {what}")

        line = reader.line_num + 1
        for row in reader:
            if row:
                try:
                    worker, system, segment, value = (
                        row[w], row[s], int(row[g]), float(row[x])
                    )
                except (IndexError, ValueError):
                    raise bad("unparseable row") from None
                # Only a quoted CR or LF makes a row span lines.  No id may
                # hold one: Python 3.11's TSV writer leaves a CR unquoted.
                if reader.line_num != line and {"\r", "\n"} & {*worker, *system}:
                    raise bad("line break in worker_id or system_id")
                if not 0.0 <= value <= 100.0:
                    raise bad(f"score {value} outside [0, 100]")
                if segment < 0:
                    raise bad("negative segment_id")
                if segment > MAX_SEGMENT_ID:
                    raise bad(f"segment_id above {MAX_SEGMENT_ID}")
                worker_id.append(ids.setdefault(worker, worker))
                system_id.append(ids.setdefault(system, system))
                segment_id.append(segment)
                score.append(value)
            line = reader.line_num + 1
    return Judgments(
        worker_id, system_id, np.frombuffer(segment_id, np.int64), np.frombuffer(score)
    )


def _grouped(
    codes: Sequence[np.ndarray], values: np.ndarray
) -> tuple[list[int], Iterator[list[float]]]:
    """Rows grouped by equal codes, in code order, the first code most
    significant: the index of each group's first row, and each group's
    values as floats, in input order within the group.

    One stable sort over the integer codes does the grouping, and each
    group's values become Python floats only when its turn comes.
    """
    order = np.lexsort(codes[::-1])
    edge = np.ones(len(order) + 1, bool)
    edge[1:-1] = False
    for code in codes:
        code = code[order]
        edge[1:-1] |= code[1:] != code[:-1]
    bounds = np.flatnonzero(edge).tolist()
    values = values[order]
    return order[bounds[:-1]].tolist(), (
        values[a:b].tolist() for a, b in zip(bounds, bounds[1:])
    )


def _item_codes(judgments: Judgments) -> tuple[np.ndarray, np.ndarray]:
    """The codes that group rows by (system_id, segment_id) in sorted order."""
    return _codes(judgments.system_id)[1], judgments.segment_id


def _item(judgments: Judgments, row: int) -> tuple[str, int]:
    """The (system_id, segment_id) item of one row."""
    return judgments.system_id[row], int(judgments.segment_id[row])


def worker_stats(judgments: Judgments) -> dict[str, WorkerStats]:
    """Per-worker count, mean, and sample standard deviation."""
    return _worker_stats(judgments, _codes(judgments.worker_id)[1])


def _worker_stats(judgments: Judgments, code: np.ndarray) -> dict[str, WorkerStats]:
    stats = {}
    for first, vals in zip(*_grouped((code,), judgments.score)):
        worker_id = judgments.worker_id[first]
        mean = _mean(vals)
        sd = 0.0 if _constant(vals) else math.sqrt(
            math.fsum((v - mean) ** 2 for v in vals) / (len(vals) - 1)
        )
        stats[worker_id] = WorkerStats(worker_id, len(vals), mean, sd)
    return stats


def standardize_judgments(
    judgments: Judgments, mode: str = ZSCORE
) -> tuple[Judgments, dict[str, WorkerStats], list[Finding]]:
    """Convert raw scores to per-worker standardized units.

    center mode subtracts the worker mean; zscore mode also divides by the
    worker sample sd.  In zscore mode, workers with a single judgment or
    zero variance carry no usable signal and are dropped with a warning
    rather than aborting the study.

    Returns:
        (the kept judgments in input order with standardized scores,
        per-worker stats including dropped workers, findings).
    """
    if mode not in (CENTER, ZSCORE):
        raise ValueError(f"unknown standardization mode {mode!r}")
    code = _codes(judgments.worker_id)[1]
    stats = _worker_stats(judgments, code)
    findings: list[Finding] = []
    if mode == ZSCORE:
        for worker_id, st in stats.items():
            if st.sd == 0.0:  # also every single-judgment worker
                why = (
                    "has a single judgment"
                    if st.count < 2
                    else f"scored everything identically ({st.count} judgments)"
                )
                findings.append(
                    warning(
                        f"worker {worker_id!r} {why}; dropped in zscore mode",
                        code="dropped-worker",
                    )
                )
    mean = np.array([st.mean for st in stats.values()])
    # Dividing by 1.0 is exact, so center mode shares the zscore expression.
    scale = np.array([st.sd if mode == ZSCORE else 1.0 for st in stats.values()])
    keep = (scale != 0.0)[code]
    code = code[keep]
    score = (judgments.score[keep] - mean[code]) / scale[code]
    kept = keep.tolist()
    return Judgments(
        list(compress(judgments.worker_id, kept)),
        list(compress(judgments.system_id, kept)),
        judgments.segment_id[keep],
        score,
    ), stats, findings


def segment_da(
    judgments: Judgments, min_count: int = 1
) -> tuple[list[SegmentDA], list[Finding]]:
    """Average standardized judgments into one DA score per (system, segment).

    Groups with fewer than min_count judgments are excluded and reported.
    Output is sorted by (system_id, segment_id).
    """
    if min_count < 1:
        raise ValueError(f"min_count must be positive, got {min_count}")
    if not judgments:
        return [], [warning("no judgments; no DA scores produced", code="no-data")]
    findings: list[Finding] = []
    out = []
    excluded = []
    for first, vals in zip(*_grouped(_item_codes(judgments), judgments.score)):
        key = _item(judgments, first)
        if len(vals) < min_count:
            excluded.append(key)
            continue
        out.append(SegmentDA(key[0], key[1], _mean(vals), len(vals)))
    if excluded:
        shown = ", ".join(f"{s}:{i}" for s, i in excluded[:5])
        if len(excluded) > 5:
            shown += ", ..."
        findings.append(
            warning(
                f"excluded {len(excluded)} (system, segment) group(s) with "
                f"fewer than {min_count} judgments: {shown}",
                code="sparse-segments",
            )
        )
    return out, findings


def system_da(segment_das: Sequence[SegmentDA]) -> list[SystemDA]:
    """Average each system's segment DA scores, sorted by system_id."""
    code = _codes([d.system_id for d in segment_das])[1]
    scores = np.array([d.da_score for d in segment_das], np.float64)
    return [
        SystemDA(segment_das[first].system_id, _mean(vals), len(vals))
        for first, vals in zip(*_grouped((code,), scores))
    ]


def da_segment_map(segment_das: Iterable[SegmentDA]) -> dict[tuple[str, int], float]:
    return {(d.system_id, d.segment_id): d.da_score for d in segment_das}


def da_system_map(system_das: Iterable[SystemDA]) -> dict[str, float]:
    return {d.system_id: d.da_score for d in system_das}


@dataclass(frozen=True)
class AssessorSimConfig:
    """Parameters of the assessor-count simulation.

    Attributes:
        i_values: strictly increasing candidate assessor counts.
        n_total: judgments used per item; every i must leave a remainder,
            so n_total must exceed max(i_values).
        target_r: correlation considered sufficient, in (0, 1].
        shuffle_seed: seed for the per-item shuffle before splitting.
    """

    i_values: tuple[int, ...]
    n_total: int
    target_r: float
    shuffle_seed: int = 0

    def __post_init__(self):
        if not self.i_values:
            raise ValueError("i_values is empty")
        if any(i < 1 for i in self.i_values):
            raise ValueError("i_values must be positive")
        if any(b <= a for a, b in zip(self.i_values, self.i_values[1:])):
            raise ValueError("i_values must be strictly increasing")
        if self.n_total < max(self.i_values) + 1:
            raise ValueError(
                f"n_total={self.n_total} must exceed max(i_values)="
                f"{max(self.i_values)}"
            )
        if not 0.0 < self.target_r <= 1.0:
            raise ValueError(f"target_r must be in (0, 1], got {self.target_r}")


@dataclass(frozen=True)
class AssessorCurve:
    """Simulation output: r per candidate i, plus the recommendation.

    recommended is the smallest i whose correlation reaches target_r, or
    None when no candidate qualifies.
    """

    points: tuple[tuple[int, float], ...]
    recommended: int | None
    n_items: int
    n_total: int
    target_r: float


def simulate_assessor_count(
    judgments: Judgments, config: AssessorSimConfig
) -> AssessorCurve:
    """Estimate how many assessors per segment give stable DA scores.

    For each (system, segment) item, its judgments are shuffled once with
    the configured seed and the first n_total are kept.  For each candidate
    i, the mean of the first i judgments plays the role of a cheap DA score
    and the mean of the remaining n_total - i approximates the true score;
    their Pearson correlation across items measures stability.

    Raises:
        InsufficientDataError: an item has fewer than n_total judgments
            (named in the message), or fewer than 3 items exist.
    """
    firsts, groups = _grouped(_item_codes(judgments), judgments.score)
    if len(firsts) < 3:
        raise InsufficientDataError(
            f"{len(firsts)} items; the simulation needs at least 3"
        )
    rng = random.Random(config.shuffle_seed)
    # heads[j, k] and tails[j, k]: item k's means of its first i_values[j]
    # kept judgments and of the rest.  Only one item's scores are Python
    # floats at a time, and its own list is what gets shuffled.
    heads, tails = np.empty((2, len(config.i_values), len(firsts)))
    for k, (first, vals) in enumerate(zip(firsts, groups)):
        if len(vals) < config.n_total:
            raise InsufficientDataError(
                f"item {_item(judgments, first)} has {len(vals)} judgments; n_total="
                f"{config.n_total} required"
            )
        rng.shuffle(vals)
        del vals[config.n_total:]
        for j, i in enumerate(config.i_values):
            heads[j, k] = _mean(vals[:i])
            tails[j, k] = _mean(vals[i:])
    points = []
    recommended = None
    for i, head, tail in zip(config.i_values, heads, tails):
        r = pearson(head.tolist(), tail.tolist())
        points.append((i, r))
        if recommended is None and r >= config.target_r:
            recommended = i
    return AssessorCurve(
        tuple(points), recommended, len(firsts), config.n_total, config.target_r
    )
