"""Turning raw human judgments into DA scores.

Raw judgments are 0-100 quality ratings keyed by worker, system, and segment.
Workers use the scale differently, so scores are standardized per worker
(subtracting the worker mean, optionally dividing by the worker sample sd)
before being averaged into segment-level DA scores; system-level DA is the
mean of a system's segment scores.

Also houses the assessor-count simulation: split each item's judgments into
"first i" and "the rest", correlate the two means across items, and find the
smallest i whose correlation reaches a target.
"""

from __future__ import annotations

import csv
import math
import random
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .correlation import _mean, pearson
from .errors import DataError, InsufficientDataError
from .findings import Finding, warning

CENTER = "center"
ZSCORE = "zscore"

JUDGMENT_FIELDS = ("worker_id", "system_id", "segment_id", "score")


@dataclass(frozen=True)
class RawJudgment:
    """One crowdsourced rating on the 0-100 scale."""

    worker_id: str
    system_id: str
    segment_id: int
    raw_score: float


@dataclass(frozen=True)
class Judgment:
    """A standardized rating, in per-worker units."""

    worker_id: str
    system_id: str
    segment_id: int
    score: float


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


def load_judgments(path) -> list[RawJudgment]:
    """Read a judgments CSV with header worker_id,system_id,segment_id,score.

    Raises:
        DataError: missing columns, unparseable rows, or scores outside
            [0, 100].
    """
    rows: list[RawJudgment] = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        fields = reader.fieldnames or []
        missing = [c for c in JUDGMENT_FIELDS if c not in fields]
        if missing:
            raise DataError(
                f"judgments {path}: missing column(s) {', '.join(missing)}; "
                f"expected header {','.join(JUDGMENT_FIELDS)}"
            )
        for lineno, row in enumerate(reader, start=2):
            try:
                segment_id = int(row["segment_id"])
                score = float(row["score"])
            except (TypeError, ValueError):
                raise DataError(f"judgments {path} line {lineno}: unparseable row")
            if not 0.0 <= score <= 100.0:
                raise DataError(
                    f"judgments {path} line {lineno}: score {score} outside [0, 100]"
                )
            if segment_id < 0:
                raise DataError(
                    f"judgments {path} line {lineno}: negative segment_id"
                )
            rows.append(
                RawJudgment(row["worker_id"], row["system_id"], segment_id, score)
            )
    return rows


def worker_stats(raw: Iterable[RawJudgment]) -> dict[str, WorkerStats]:
    """Per-worker count, mean, and sample standard deviation."""
    scores: dict[str, list[float]] = {}
    for j in raw:
        scores.setdefault(j.worker_id, []).append(j.raw_score)
    stats = {}
    for worker_id in sorted(scores):
        vals = scores[worker_id]
        mean = _mean(vals)
        if len(vals) < 2 or all(v == vals[0] for v in vals):
            sd = 0.0
        else:
            sd = math.sqrt(math.fsum((v - mean) ** 2 for v in vals) / (len(vals) - 1))
        stats[worker_id] = WorkerStats(worker_id, len(vals), mean, sd)
    return stats


def standardize_judgments(
    raw: Sequence[RawJudgment], mode: str = ZSCORE
) -> tuple[list[Judgment], dict[str, WorkerStats], list[Finding]]:
    """Convert raw scores to per-worker standardized units.

    center mode subtracts the worker mean; zscore mode also divides by the
    worker sample sd.  In zscore mode, workers with a single judgment or
    zero variance carry no usable signal and are dropped with a warning
    rather than aborting the study.

    Returns:
        (standardized judgments in input order, per-worker stats including
        dropped workers, findings).
    """
    if mode not in (CENTER, ZSCORE):
        raise ValueError(f"unknown standardization mode {mode!r}")
    stats = worker_stats(raw)
    findings: list[Finding] = []
    dropped: set[str] = set()
    if mode == ZSCORE:
        for worker_id in sorted(stats):
            st = stats[worker_id]
            if st.count < 2:
                dropped.add(worker_id)
                findings.append(
                    warning(
                        f"worker {worker_id!r} has a single judgment; "
                        "dropped in zscore mode",
                        code="dropped-worker",
                    )
                )
            elif st.sd == 0.0:
                dropped.add(worker_id)
                findings.append(
                    warning(
                        f"worker {worker_id!r} scored everything identically "
                        f"({st.count} judgments); dropped in zscore mode",
                        code="dropped-worker",
                    )
                )
    out = []
    for j in raw:
        if j.worker_id in dropped:
            continue
        st = stats[j.worker_id]
        value = j.raw_score - st.mean
        if mode == ZSCORE:
            value /= st.sd
        out.append(Judgment(j.worker_id, j.system_id, j.segment_id, value))
    return out, stats, findings


def segment_da(
    judgments: Sequence[Judgment], min_count: int = 1
) -> tuple[list[SegmentDA], list[Finding]]:
    """Average standardized judgments into one DA score per (system, segment).

    Groups with fewer than min_count judgments are excluded and reported.
    Output is sorted by (system_id, segment_id).
    """
    if min_count < 1:
        raise ValueError(f"min_count must be positive, got {min_count}")
    findings: list[Finding] = []
    if not judgments:
        findings.append(warning("no judgments; no DA scores produced", code="no-data"))
        return [], findings
    groups: dict[tuple[str, int], list[float]] = {}
    for j in judgments:
        groups.setdefault((j.system_id, j.segment_id), []).append(j.score)
    out = []
    excluded = []
    for key in sorted(groups):
        vals = groups[key]
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
    groups: dict[str, list[float]] = {}
    for d in segment_das:
        groups.setdefault(d.system_id, []).append(d.da_score)
    return [
        SystemDA(system_id, _mean(groups[system_id]), len(groups[system_id]))
        for system_id in sorted(groups)
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
    raw: Sequence[RawJudgment], config: AssessorSimConfig
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
    groups: dict[tuple[str, int], list[float]] = {}
    for j in raw:
        groups.setdefault((j.system_id, j.segment_id), []).append(j.raw_score)
    if len(groups) < 3:
        raise InsufficientDataError(
            f"{len(groups)} items; the simulation needs at least 3"
        )
    rng = random.Random(config.shuffle_seed)
    kept: list[list[float]] = []
    for key in sorted(groups):
        vals = groups[key]
        if len(vals) < config.n_total:
            raise InsufficientDataError(
                f"item {key} has {len(vals)} judgments; n_total="
                f"{config.n_total} required"
            )
        vals = list(vals)
        rng.shuffle(vals)
        kept.append(vals[: config.n_total])
    points = []
    recommended = None
    for i in config.i_values:
        xs = [_mean(vals[:i]) for vals in kept]
        ys = [_mean(vals[i : config.n_total]) for vals in kept]
        r = pearson(xs, ys)
        points.append((i, r))
        if recommended is None and r >= config.target_r:
            recommended = i
    return AssessorCurve(
        points=tuple(points),
        recommended=recommended,
        n_items=len(kept),
        n_total=config.n_total,
        target_r=config.target_r,
    )
