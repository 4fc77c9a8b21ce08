"""Diagnostic analyses beyond a single correlation number.

A high system-level correlation can hide systematic failures.  The tools
here expose them: tertile binning of segments by DA score, the distribution
of metric scores conditional on those bins, the worst disagreements between
metric and humans as inspectable failure cases, correlations broken down by
system metadata, and a plain-language reading of Kendall's tau.

Per-bin score distributions deliberately replace per-bin correlations:
restricting the DA range destroys the variance a within-bin correlation
would need, so those numbers mislead.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Mapping, Sequence

import numpy as np

from .correlation import (
    MIN_POINTS,
    Aligned,
    CorrelationResult,
    _check_pair,
    _mean,
    _tau_from_counts,
    correlate,
    kendall_pair_counts,
)
from .errors import DataError, InsufficientDataError, UndefinedCorrelationError
from .findings import Finding, first_items, warning
from .metrics import CHUNK_ROWS

if TYPE_CHECKING:
    from .corpus import EvaluationCorpus, SystemMeta

BAD = "bad"
AVERAGE = "average"
GOOD = "good"
BIN_LABELS = (BAD, AVERAGE, GOOD)

GOOD_UNDERSCORED = "good-underscored"
BAD_OVERSCORED = "bad-overscored"

GROUP_FIELDS = ("system_type", "track")


@dataclass(frozen=True, eq=False)
class BinAssignment:
    """Equal-count split of DA-scored points into bad/average/good.

    Attributes:
        boundaries: the two cut values (highest DA in the bad bin, highest
            in the average bin).  With heavily tied scores the two can
            coincide; the equal-count partition takes precedence.
        labels: the bin names, worst first.
        study: the segment level at the binned points, so exports and
            failure mining need no second data source.
        bin: each binned point's index into labels.
    """

    boundaries: tuple[float, float]
    labels: tuple[str, str, str]
    study: Aligned
    bin: np.ndarray

    def __eq__(self, other) -> bool:
        if not isinstance(other, BinAssignment):
            return NotImplemented
        return (self.boundaries, self.labels, self.rows()) == (
            other.boundaries, other.labels, other.rows())

    def rows(self, *metric_ids: str) -> list[tuple]:
        """(system_id, segment_id, da, *scores, label) of every binned point
        in key order: each metric's score at it, None where it has none."""
        return [row for rows in self._row_chunks(*metric_ids) for row in rows]

    def _row_chunks(self, *metric_ids: str) -> Iterator[list[tuple]]:
        """rows() in lists of at most CHUNK_ROWS rows."""
        da = self.study.da
        values = (da.score, *map(self.study.row, metric_ids))
        for start in range(0, len(da), CHUNK_ROWS):
            at = slice(start, start + CHUNK_ROWS)
            columns = [[None if v != v else v for v in c[at].tolist()] for c in values]
            labels = map(self.labels.__getitem__, self.bin[at].tolist())
            yield list(zip(*zip(*da.keys(at)), *columns, labels))


@dataclass(frozen=True, eq=False)
class BinSummary:
    """Distribution summary of one bin's metric scores.

    values is the bin's scores in key order as a read-only float64 array,
    8 bytes a value; report.json writes it as a flat list, in slices.
    Records compare by value, values included.
    """

    label: str
    count: int
    mean: float
    q1: float
    median: float
    q3: float
    min: float
    max: float
    values: np.ndarray

    def __eq__(self, other) -> bool:
        if not isinstance(other, BinSummary):
            return NotImplemented
        return ({**vars(self), "values": self.values.tolist()}
                == {**vars(other), "values": other.values.tolist()})


@dataclass(frozen=True)
class FailureCase:
    """One large metric-human disagreement, with full text for inspection."""

    system_id: str
    segment_id: int
    source: str
    references: tuple[str, ...]
    hypothesis: str
    da_score: float
    metric_score: float
    direction: str
    rank: int


@dataclass(frozen=True)
class GroupCorrelation:
    """System-level correlation within one metadata group.

    result is None when the group was flagged instead of computed; flag is
    "" for a computed group, "insufficient" for fewer than 3 systems,
    "undefined" when a score vector was constant within the group.
    """

    group: str
    result: CorrelationResult | None
    n_systems: int
    flag: str = ""


@dataclass(frozen=True)
class AgreementReport:
    """Kendall agreement between a metric and DA at system level."""

    metric_id: str
    tau: float
    concordant: int
    discordant: int
    n_systems: int
    interpretation: str
    note: str


def tertile_bins(study: Aligned) -> BinAssignment:
    """Split the segment DA scores of study, aligned(table, segment DA) or a
    mask of it, into three near-equal-count bins.

    Points are ordered by (da_score, system_id, segment_id); the identifier
    part makes boundary ties deterministic.  The lower bin takes ceil(N/3)
    points, the upper bin half of the rest rounded up, the middle bin the
    remainder, so all sizes differ by at most 1.

    Raises:
        InsufficientDataError: fewer than 3 points.
    """
    da = study.da
    n = len(da)
    if n < 3:
        raise InsufficientDataError(f"{n} DA points; binning needs at least 3")
    n_bad = -(-n // 3)
    n_good = -(-(n - n_bad) // 2)
    n_mid = n - n_bad - n_good
    # da is in key order, which a stable sort keeps among equal scores
    ranked = np.argsort(da.score, kind="stable")
    label = np.empty(n, np.int8)
    label[ranked] = np.repeat([0, 1, 2], [n_bad, n_mid, n_good])
    cuts = da.score[ranked[[n_bad - 1, n_bad + n_mid - 1]]].tolist()
    return BinAssignment(tuple(cuts), BIN_LABELS, study, label)


def _bin_scores(bins: BinAssignment, metric_id: str) -> np.ndarray:
    """The metric's scores at the binned points; DataError lists any it lacks."""
    scores = bins.study.row(metric_id)
    missing = np.isnan(scores)
    if missing.any():
        keys = bins.study.da.keys(missing)
        raise DataError(
            f"metric {metric_id!r} lacks scores for {len(keys)} binned "
            f"point(s): {first_items(keys)}"
        )
    return scores


def conditional_distribution(
    bins: BinAssignment, metric_id: str
) -> dict[str, BinSummary]:
    """Summarize one metric's score distribution inside each DA bin.

    Returns one BinSummary per label, raw values included so the caller can
    plot real distributions, each bin's as a read-only float64 array.
    Quartiles use linear interpolation.

    Raises:
        DataError: the metric lacks scores for some binned points (listed).
    """
    scores = _bin_scores(bins, metric_id)
    out = {}
    for code, label in enumerate(bins.labels):
        values = scores[bins.bin == code]
        values.flags.writeable = False
        listed = values.tolist()
        q1, median, q3 = np.percentile(values, [25, 50, 75])
        out[label] = BinSummary(
            label=label,
            count=len(listed),
            mean=_mean(listed),
            q1=float(q1),
            median=float(median),
            q3=float(q3),
            min=min(listed),
            max=max(listed),
            values=values,
        )
    return out


def failure_cases(
    corpus: "EvaluationCorpus", bins: BinAssignment, metric_id: str, k: int
) -> tuple[list[FailureCase], list[Finding]]:
    """Mine the k worst metric-human disagreements in each direction.

    From the good bin: the k lowest-scored points (output humans liked, the
    metric punished).  From the bad bin: the k highest-scored points (output
    humans disliked, the metric rewarded).  Equal scores are ordered by
    (system_id, segment_id).  A k exceeding a bin returns the whole bin with
    a finding.

    Returns:
        (cases, findings); good-underscored cases first, each direction
        ranked from 1.
    """
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    scores = _bin_scores(bins, metric_id)
    da = bins.study.da
    findings: list[Finding] = []
    cases: list[FailureCase] = []
    for label, direction, descending in (
        (GOOD, GOOD_UNDERSCORED, False),
        (BAD, BAD_OVERSCORED, True),
    ):
        at = np.flatnonzero(bins.bin == bins.labels.index(label))
        values = scores[at].tolist()
        if k > len(values):
            findings.append(
                warning(
                    f"k={k} exceeds the {label} bin ({len(values)} points); "
                    "returning the whole bin",
                    code="k-exceeds-bin",
                )
            )
        # stable over the points in key order, so equal scores stay in it
        ordered = sorted(range(len(values)), key=values.__getitem__, reverse=descending)
        top = at[ordered[:k]]
        for rank, (i, (system_id, segment_id)) in enumerate(
            zip(ordered, da.keys(top)), start=1
        ):
            segment = corpus.test_set.segments[segment_id]
            cases.append(
                FailureCase(
                    system_id=system_id,
                    segment_id=segment_id,
                    source=segment.source,
                    references=segment.references,
                    hypothesis=corpus.hypothesis(system_id, segment_id),
                    da_score=float(da.score[at[i]]),
                    metric_score=values[i],
                    direction=direction,
                    rank=rank,
                )
            )
    return cases, findings


def grouped_correlation(
    study: Aligned,
    metric_id: str,
    meta: Mapping[str, "SystemMeta"],
    group_by: str = "system_type",
    kind: str = "pearson",
) -> tuple[list[GroupCorrelation], list[Finding]]:
    """System-level correlation computed separately per metadata group, over
    study, aligned(table, system DA); a group is a mask of its systems.

    Groups with fewer than 3 systems are flagged "insufficient" rather than
    computed; a constant score vector inside a group flags it "undefined".
    Systems without metadata are excluded with a finding.

    Raises:
        DataError: group_by is not a metadata field, no such metric, or no
            system in the intersection has metadata at all.
        InsufficientDataError: no system is scored by both DA and the metric.
    """
    if group_by not in GROUP_FIELDS:
        raise DataError(
            f"cannot group by {group_by!r}; expected one of {GROUP_FIELDS}"
        )
    scored = ~np.isnan(study.row(metric_id))
    n = int(np.count_nonzero(scored))
    if not n:
        raise InsufficientDataError(f"0 systems are scored by both DA and {metric_id!r}")
    findings: list[Finding] = []
    systems = study.da.keys()
    # each DA system's group, None for a system without metadata
    group_of = np.array([getattr(meta.get(s), group_by, None) for s in systems], object)
    grouped = scored & (group_of != None)  # noqa: E711 (elementwise)
    with_meta = int(np.count_nonzero(grouped))
    if not with_meta:
        raise DataError(
            f"no metadata for any of the {n} systems scored by "
            f"both DA and {metric_id!r}"
        )
    if with_meta < n:
        findings.append(
            warning(
                f"{n - with_meta} system(s) lack metadata and "
                "were excluded from grouping",
                code="missing-metadata",
            )
        )
    out = []
    for label in sorted(set(group_of[grouped].tolist())):
        xs, ys = study.pairs(metric_id, grouped & (group_of == label))
        if len(xs) < 3:
            out.append(GroupCorrelation(label, None, len(xs), "insufficient"))
            continue
        scope = f"{metric_id}|{group_by}={label}"
        try:
            result = correlate(xs, ys, kind, level="system", scope=scope)
        except UndefinedCorrelationError as exc:
            findings.append(
                warning(f"group {label!r}: {exc}", code="undefined-in-group")
            )
            out.append(GroupCorrelation(label, None, len(xs), "undefined"))
            continue
        out.append(GroupCorrelation(label, result, len(xs)))
    return out, findings


def kendall_agreement_report(study: Aligned, metric_id: str) -> AgreementReport:
    """Kendall's tau between metric and DA system rankings, in words, over
    study, aligned(table, system DA).

    Raises:
        DataError: no such metric.
        InsufficientDataError: fewer than 3 systems scored by both.
        UndefinedCorrelationError: constant scores on either side.
    """
    metric, human = study.pairs(metric_id)
    if len(metric) < MIN_POINTS:
        raise InsufficientDataError(
            f"only {len(metric)} systems scored by both; need at least {MIN_POINTS}"
        )
    n = _check_pair(metric, human, "tau")
    counts = kendall_pair_counts(metric, human)
    tau = _tau_from_counts(n, counts, tau_b=False)
    margin = f"{round(100 * tau, 1):g}"
    return AgreementReport(
        metric_id=metric_id,
        tau=tau,
        concordant=counts[0],
        discordant=counts[1],
        n_systems=n,
        interpretation=(
            f"agrees more than disagrees by {margin} percentage points "
            "on pairwise system comparisons"
        ),
        note=(
            "the percentage is 100*tau: the margin by which pairwise "
            "agreements exceed disagreements among untied system pairs, "
            "not a raw agreement rate"
        ),
    )


def failures_to_json(cases: Sequence[FailureCase]) -> str:
    """Render failure cases as a JSON array of their fields, with full texts."""
    payload = [vars(c) for c in cases]
    return json.dumps(payload, ensure_ascii=False, indent=2, sort_keys=True) + "\n"


def failures_to_text(cases: Sequence[FailureCase]) -> str:
    """Plain-text rendering, one block per case."""
    blocks = []
    for c in cases:
        lines = [
            f"[{c.direction} #{c.rank}] system={c.system_id} segment={c.segment_id} "
            f"da={c.da_score:.3f} metric={c.metric_score:.3f}",
            f"  source:     {c.source}",
        ]
        for ref in c.references:
            lines.append(f"  reference:  {ref}")
        lines.append(f"  hypothesis: {c.hypothesis}")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n" if blocks else ""
