"""Turning raw human judgments into DA scores.

Raw judgments are 0-100 quality ratings keyed by worker, system, and segment.
Workers use the scale differently, so scores are standardized per worker
(subtracting the worker mean, optionally dividing by the worker sample sd)
before being averaged into segment-level DA scores; system-level DA is the
mean of a system's segment scores.

One Judgments record carries the rows as four parallel columns in file
order.  worker_id and system_id are IdColumns: int32 codes into the sorted
tuple of the column's distinct ids, so a code sorts like its id and the
column reads back as those str objects.  segment_id and score are int64 and
float64 arrays, so no object is kept per row.

The record also holds its rows grouped by (system, segment) item, made once
by one stable sort (np.lexsort) of the system codes and segment ids, so items
come in key order and rows in file order within an item.
standardize_judgments groups rows by worker code the same way; it returns a
new record of the kept rows, their codes and their standardized scores, and
takes the kept record's item grouping from its input's by mask, without a
second sort.  segment_da and the assessor simulation read a grouping about
a thousand rows' scores at a time, so no stage makes a permuted copy of a
whole score column.  segment_da makes DA, the metrics.SparseScores every
analysis reads, from that grouping, and system_da from its system runs.

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
from typing import Iterable, Iterator

import numpy as np

from .correlation import _constant, _mean, pearson
from .errors import DataError, InsufficientDataError, utf8_input
from .findings import Finding, first_items, warning
from .metrics import MAX_SEGMENT_ID, SparseScores, _first_bad_segment_id

CENTER = "center"
ZSCORE = "zscore"

JUDGMENT_FIELDS = ("worker_id", "system_id", "segment_id", "score")
# Rows of scores a grouping turns into Python floats at once.
_CHUNK_ROWS = 1024


class _Codes(dict):
    """Id -> code, coded in the order ids are first looked up: an id not
    yet coded gets the number of ids coded before it."""

    def __missing__(self, key: str) -> int:
        self[key] = code = len(self)
        return code


@dataclass(frozen=True, eq=False)
class IdColumn:
    """A column of ids held as int32 codes: row r's id is ids[code[r]].

    ids is sorted and distinct, so codes sort like the ids; a record of
    some rows of another shares its ids, including ones it no longer uses.
    Iterating or indexing gives those str objects, one per distinct id
    however many rows repeat it.
    """

    ids: tuple[str, ...]
    code: np.ndarray

    @classmethod
    def of(cls, values: Iterable[str]) -> IdColumn:
        first_seen = _Codes()
        code = np.fromiter(map(first_seen.__getitem__, values), np.int32)
        return cls._sorted(first_seen, code)

    @classmethod
    def _sorted(cls, first_seen: dict[str, int], code: np.ndarray) -> IdColumn:
        """The column whose rows code gives as indexes into first_seen's
        keys, in the order first_seen met them; code is recoded in place."""
        ids = sorted(first_seen)
        rank = np.empty(len(ids), np.int32)
        rank[[first_seen[i] for i in ids]] = np.arange(len(ids), dtype=np.int32)
        code[:] = rank[code]
        return cls(tuple(ids), code)

    def __len__(self) -> int:
        return len(self.code)

    def __getitem__(self, row: int) -> str:
        return self.ids[self.code[row]]

    def __iter__(self) -> Iterator[str]:
        return map(self.ids.__getitem__, self.code.tolist())


@dataclass(frozen=True, eq=False)
class Grouping:
    """Rows grouped by a key: order holds the row indexes group by group, in
    key order and in file order within a group, and group k is
    order[bounds[k]:bounds[k + 1]].  len() is the number of groups."""

    order: np.ndarray
    bounds: np.ndarray

    def __len__(self) -> int:
        return len(self.bounds) - 1

    def firsts(self) -> np.ndarray:
        """Each group's first row."""
        return self.order[self.bounds[:-1]]

    def kept(self, keep: np.ndarray) -> Grouping:
        """The grouping of the rows the mask keep selects, numbered as
        column[keep] numbers them; groups left without rows are gone."""
        at = keep[self.order]
        count = np.zeros(len(at) + 1, np.int32)
        np.cumsum(at, dtype=np.int32, out=count[1:])
        renumber = np.cumsum(keep, dtype=np.int32) - 1
        return Grouping(renumber[self.order[at]], np.unique(count[self.bounds]))


def _group_values(groups: Grouping, column: np.ndarray) -> Iterator[list[float]]:
    """Each group's values of column as a list of Python floats, read from
    column about _CHUNK_ROWS rows at a time."""
    k = 0
    while k < len(groups):
        start = groups.bounds[k]
        end = np.searchsorted(groups.bounds, start + _CHUNK_ROWS, "right") - 1
        bounds = groups.bounds[k:max(end, k + 1) + 1].tolist()
        chunk = column[groups.order[start:bounds[-1]]].tolist()
        for a, b in zip(bounds, bounds[1:]):
            yield chunk[a - start:b - start]
        k += len(bounds) - 1


def _means(groups: Grouping, column: np.ndarray) -> np.ndarray:
    """Each group's _mean of its values of column."""
    return np.fromiter(map(_mean, _group_values(groups, column)), np.float64, len(groups))


def _grouping(*keys: np.ndarray) -> Grouping:
    """Rows grouped by equal keys, the first key most significant: one
    stable sort, so groups come in key order and rows in file order."""
    order = np.lexsort(keys[::-1]).astype(np.int32)
    starts = np.zeros(len(order), bool)
    starts[:1] = True
    for key in keys:
        key = key[order]
        starts[1:] |= key[1:] != key[:-1]
    bounds = np.append(np.flatnonzero(starts), len(order))
    return Grouping(order, bounds)


@dataclass(frozen=True, eq=False)
class Judgments:
    """Judgment rows as four parallel columns, in input order, and the rows
    grouped by (system, segment) item.

    worker_id and system_id may be given as any sequences of str, which
    become IdColumns; segment_id and score are stored as int64 and float64
    arrays, whatever sequences they are given as.  score holds raw 0-100
    ratings as loaded, or per-worker standardized values after
    standardize_judgments.  by_item is made from the columns unless given.
    len() is the number of rows; == compares the columns value by value.

    Raises:
        ValueError: columns of unequal length, or (naming the first bad row)
            a segment id that is not an int in [0, MAX_SEGMENT_ID] or a
            score that is not finite.
    """

    worker_id: IdColumn
    system_id: IdColumn
    segment_id: np.ndarray
    score: np.ndarray
    by_item: Grouping | None = None

    def __post_init__(self):
        for name in ("worker_id", "system_id"):
            if not isinstance(getattr(self, name), IdColumn):
                object.__setattr__(self, name, IdColumn.of(getattr(self, name)))
        segment_id, score = self.segment_id, np.asarray(self.score, np.float64)
        bad = []
        row = _first_bad_segment_id(segment_id)
        if row is not None:
            bad.append((row, f"segment_id {segment_id[row]} is not an int in "
                             f"[0, {MAX_SEGMENT_ID}]"))
        nonfinite = np.flatnonzero(~np.isfinite(score))  # the cast keeps them
        if len(nonfinite):
            row = int(nonfinite[0])
            bad.append((row, f"score {score[row]} is not finite"))
        if bad:
            raise ValueError("Judgments row %d: %s" % min(bad))
        object.__setattr__(self, "segment_id", np.asarray(segment_id, np.int64))
        object.__setattr__(self, "score", score)
        lengths = {len(getattr(self, name)) for name in JUDGMENT_FIELDS}
        if len(lengths) > 1:
            raise ValueError(f"Judgments columns differ in length: {sorted(lengths)}")
        if self.by_item is None:
            object.__setattr__(
                self, "by_item", _grouping(self.system_id.code, self.segment_id)
            )

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


def load_judgments(path) -> Judgments:
    """Read a judgments CSV with header worker_id,system_id,segment_id,score.

    Raises:
        DataError: a file that is not UTF-8, missing columns, unparseable or
            short rows, ids holding a line break, scores outside [0, 100], or
            segment ids outside [0, 2**63 - 1], naming the line.
    """
    # Each id's code in the order the file first names it; IdColumn._sorted
    # turns them into codes that sort like the ids.
    workers, systems = _Codes(), _Codes()
    worker_code = array("i")
    system_code = array("i")
    segment_id = array("q")
    score = array("d")
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
                worker_code.append(workers[worker])
                system_code.append(systems[system])
                segment_id.append(segment)
                score.append(value)
            line = reader.line_num + 1
    return Judgments(
        IdColumn._sorted(workers, np.frombuffer(worker_code, np.intc)),
        IdColumn._sorted(systems, np.frombuffer(system_code, np.intc)),
        np.frombuffer(segment_id, np.int64),
        np.frombuffer(score),
    )


def _item(judgments: Judgments, row: int) -> tuple[str, int]:
    """The (system_id, segment_id) item of one row."""
    return judgments.system_id[row], int(judgments.segment_id[row])


def _worker_stats(judgments: Judgments, workers: Grouping) -> dict[str, WorkerStats]:
    """Per-worker count, mean, and sample standard deviation."""
    stats = {}
    groups = _group_values(workers, judgments.score)
    for first, vals in zip(workers.firsts().tolist(), groups):
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
    worker = judgments.worker_id
    workers = _grouping(worker.code)
    stats = _worker_stats(judgments, workers)
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
    # mean and scale by worker code; codes no row holds keep scale 0
    present = worker.code[workers.firsts()]
    mean, scale = np.zeros((2, len(worker.ids)))
    mean[present] = [st.mean for st in stats.values()]
    # Dividing by 1.0 is exact, so center mode shares the zscore expression.
    scale[present] = [st.sd if mode == ZSCORE else 1.0 for st in stats.values()]
    keep = (scale != 0.0)[worker.code]
    by_item = judgments.by_item.kept(keep)
    code = worker.code[keep]
    score = judgments.score[keep]
    score -= mean[code]
    score /= scale[code]
    return Judgments(
        IdColumn(worker.ids, code),
        IdColumn(judgments.system_id.ids, judgments.system_id.code[keep]),
        judgments.segment_id[keep],
        score,
        by_item,
    ), stats, findings


def segment_da(
    judgments: Judgments, min_count: int = 1
) -> tuple[SparseScores, list[Finding]]:
    """Average standardized judgments into one DA score per (system, segment)
    item of judgments.by_item, in key order; count is each item's number of
    judgments.  Items with fewer than min_count are excluded and reported.
    """
    if min_count < 1:
        raise ValueError(f"min_count must be positive, got {min_count}")
    findings: list[Finding] = []
    if not judgments:
        findings.append(warning("no judgments; no DA scores produced", code="no-data"))
    items = judgments.by_item
    count = np.diff(items.bounds)
    kept = count >= min_count
    firsts = items.firsts()
    if not kept.all():
        excluded = [_item(judgments, row) for row in firsts[~kept].tolist()]
        findings.append(
            warning(
                f"excluded {len(excluded)} (system, segment) group(s) with "
                f"fewer than {min_count} judgments: {first_items(excluded)}",
                code="sparse-segments",
            )
        )
    firsts = firsts[kept]
    segments, column = np.unique(judgments.segment_id[firsts], return_inverse=True)
    return SparseScores(
        (judgments.system_id.ids, segments),
        (judgments.system_id.code[firsts], column),
        _means(items, judgments.score)[kept],
        count[kept],
    ), findings


def system_da(segment: SparseScores) -> SparseScores:
    """Average each system's segment DA scores, in key order; count is each
    system's number of segments.  Segment DA is in key order, so a system's
    cells are one run of segment.cells[0]."""
    system = segment.cells[0]
    starts = np.flatnonzero(np.diff(system, prepend=-1))
    systems = Grouping(np.arange(len(system)), np.append(starts, len(system)))
    return SparseScores(
        segment.axes[:1], (system[starts],), _means(systems, segment.score),
        np.diff(systems.bounds),
    )


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
    items = judgments.by_item
    if len(items) < 3:
        raise InsufficientDataError(
            f"{len(items)} items; the simulation needs at least 3"
        )
    rng = random.Random(config.shuffle_seed)
    # heads[j, k] and tails[j, k]: item k's means of its first i_values[j]
    # kept judgments and of the rest.  Only one item's scores are Python
    # floats at a time, and its own list is what gets shuffled.
    heads, tails = np.empty((2, len(config.i_values), len(items)))
    for k, vals in enumerate(_group_values(items, judgments.score)):
        if len(vals) < config.n_total:
            raise InsufficientDataError(
                f"item {_item(judgments, items.order[items.bounds[k]])} has "
                f"{len(vals)} judgments; n_total={config.n_total} required"
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
        tuple(points), recommended, len(items), config.n_total, config.target_r
    )
