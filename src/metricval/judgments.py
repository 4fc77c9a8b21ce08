"""Turning raw human judgments into DA scores.

Raw judgments are 0-100 quality ratings keyed by worker, system, and segment.
Workers use the scale differently, so scores are standardized per worker
(subtracting the worker mean, optionally dividing by the worker sample sd)
before being averaged into segment-level DA scores; system-level DA is the
mean of a system's segment scores.

One Judgments record carries the rows as four parallel columns (worker_id,
system_id, segment_id, score) in file order; no object is built per row.
standardize_judgments returns a new record holding the kept rows, with
standardized values in its score column.

The judgments CSV has a header naming worker_id, system_id, segment_id and
score in any order; other columns and empty lines are ignored.  segment_id
must be a non-negative integer and score a number in [0, 100].  Errors name
the physical line a bad row starts on: the header is line 1, and empty
lines and line breaks inside quoted fields count.

Also houses the assessor-count simulation: split each item's judgments into
"first i" and "the rest", correlate the two means across items, and find the
smallest i whose correlation reaches a target.
"""

from __future__ import annotations

import csv
import math
import random
from collections import defaultdict
from dataclasses import dataclass
from itertools import compress
from typing import Any, Iterable, Sequence

from .correlation import _constant, _mean, pearson
from .errors import DataError, InsufficientDataError
from .findings import Finding, warning

CENTER = "center"
ZSCORE = "zscore"

JUDGMENT_FIELDS = ("worker_id", "system_id", "segment_id", "score")


@dataclass(frozen=True)
class Judgments:
    """Judgment rows as four parallel columns, in input order.

    score holds raw 0-100 ratings as loaded, or per-worker standardized
    values after standardize_judgments.  len() is the number of rows.
    """

    worker_id: Sequence[str]
    system_id: Sequence[str]
    segment_id: Sequence[int]
    score: Sequence[float]

    def __post_init__(self):
        lengths = {len(getattr(self, name)) for name in JUDGMENT_FIELDS}
        if len(lengths) > 1:
            raise ValueError(f"Judgments columns differ in length: {sorted(lengths)}")

    def __len__(self) -> int:
        return len(self.score)


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
        DataError: missing columns, unparseable or short rows, or scores
            outside [0, 100], naming the line.
    """
    rows: list[tuple[str, str, int, float]] = []
    with open(path, newline="", encoding="utf-8") as fh:
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
                    r = row[w], row[s], int(row[g]), float(row[x])
                except (IndexError, ValueError):
                    raise bad("unparseable row") from None
                if not 0.0 <= r[3] <= 100.0:
                    raise bad(f"score {r[3]} outside [0, 100]")
                if r[2] < 0:
                    raise bad("negative segment_id")
                rows.append(r)
            line = reader.line_num + 1
    return Judgments(*(zip(*rows) if rows else [()] * 4))


def _groups(keys: Iterable, values: Iterable) -> dict[Any, list]:
    """Values grouped by key, in input order within a group; keys sorted."""
    groups = defaultdict(list)
    for key, value in zip(keys, values):
        groups[key].append(value)
    return dict(sorted(groups.items()))


def worker_stats(judgments: Judgments) -> dict[str, WorkerStats]:
    """Per-worker count, mean, and sample standard deviation."""
    stats = {}
    for worker_id, vals in _groups(judgments.worker_id, judgments.score).items():
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
    stats = worker_stats(judgments)
    findings: list[Finding] = []
    dropped: set[str] = set()
    if mode == ZSCORE:
        for worker_id, st in sorted(stats.items()):
            if st.sd == 0.0:  # also every single-judgment worker
                dropped.add(worker_id)
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
    keep = [w not in dropped for w in judgments.worker_id]
    worker_id, system_id, segment_id, raw = (
        tuple(compress(getattr(judgments, c), keep)) for c in JUDGMENT_FIELDS
    )
    mean = {w: st.mean for w, st in stats.items()}
    # Dividing by 1.0 is exact, so center mode shares the zscore expression.
    scale = {w: st.sd if mode == ZSCORE else 1.0 for w, st in stats.items()}
    score = tuple((x - mean[w]) / scale[w] for w, x in zip(worker_id, raw))
    return Judgments(worker_id, system_id, segment_id, score), stats, findings


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
    groups = _groups(zip(judgments.system_id, judgments.segment_id), judgments.score)
    for key, vals in groups.items():
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
    groups = _groups(
        (d.system_id for d in segment_das), (d.da_score for d in segment_das)
    )
    return [
        SystemDA(system_id, _mean(vals), len(vals))
        for system_id, vals in groups.items()
    ]


def da_segment_map(segment_das: Iterable[SegmentDA]) -> dict[tuple[str, int], float]:
    return {(d.system_id, d.segment_id): d.da_score for d in segment_das}


def da_system_map(system_das: Iterable[SystemDA]) -> dict[str, float]:
    return {d.system_id: d.da_score for d in system_das}


def segment_da_to_tsv(rows: Sequence[SegmentDA]) -> str:
    lines = ["system_id\tsegment_id\tda_score\tn_judgments"]
    for d in rows:
        lines.append(f"{d.system_id}\t{d.segment_id}\t{d.da_score!r}\t{d.judgment_count}")
    return "\n".join(lines) + "\n"


def system_da_to_tsv(rows: Sequence[SystemDA]) -> str:
    lines = ["system_id\tda_score\tn_segments"]
    for d in rows:
        lines.append(f"{d.system_id}\t{d.da_score!r}\t{d.segment_count}")
    return "\n".join(lines) + "\n"


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
    groups = _groups(zip(judgments.system_id, judgments.segment_id), judgments.score)
    if len(groups) < 3:
        raise InsufficientDataError(
            f"{len(groups)} items; the simulation needs at least 3"
        )
    rng = random.Random(config.shuffle_seed)
    kept: list[list[float]] = []
    for key, vals in groups.items():
        if len(vals) < config.n_total:
            raise InsufficientDataError(
                f"item {key} has {len(vals)} judgments; n_total="
                f"{config.n_total} required"
            )
        rng.shuffle(vals)
        kept.append(vals[: config.n_total])
    points = []
    recommended = None
    for i in config.i_values:
        r = pearson([_mean(v[:i]) for v in kept], [_mean(v[i:]) for v in kept])
        points.append((i, r))
        if recommended is None and r >= config.target_r:
            recommended = i
    return AssessorCurve(
        tuple(points), recommended, len(kept), config.n_total, config.target_r
    )
