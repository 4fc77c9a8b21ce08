"""Correlation coefficients between paired score vectors.

Three coefficients are provided: Pearson's r on raw values, Spearman's rho
(Pearson on average ranks), and Kendall's tau in a pair-counting form whose
default variant drops tied pairs from both the numerator and the denominator
(a gamma-style statistic; the tie-corrected tau-b is available behind a flag).

Sums use math.fsum so results do not drift with summation order, and computed
coefficients are clamped to [-1, 1].  A constant input vector has no defined
correlation and raises UndefinedCorrelationError naming the offending side:
silently returning 0 would corrupt winner computations downstream.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

import numpy as np

from .errors import InsufficientDataError, NonFiniteError, UndefinedCorrelationError
from .findings import Finding, warning

if TYPE_CHECKING:
    from .judgments import SegmentDA, SystemDA
    from .metrics import MetricScoreTable

MIN_POINTS = 3
RECOMMENDED_SYSTEMS = 5

SEGMENT = "segment"
SYSTEM = "system"


@dataclass(frozen=True)
class PairedSample:
    """Aligned observations of two scoring methods over the same items.

    Attributes:
        xs: scores from the first method.
        ys: scores from the second method, same length.
    """

    xs: tuple[float, ...]
    ys: tuple[float, ...]

    def __post_init__(self):
        if len(self.xs) != len(self.ys):
            raise ValueError(
                f"misaligned sample: {len(self.xs)} x values, {len(self.ys)} y values"
            )
        if len(self.xs) < MIN_POINTS:
            raise InsufficientDataError(
                f"{len(self.xs)} paired observations; need at least {MIN_POINTS}"
            )

    @property
    def n(self) -> int:
        return len(self.xs)

    def __len__(self) -> int:
        return len(self.xs)


@dataclass(frozen=True)
class CorrelationResult:
    """A computed correlation plus the context it was computed in.

    Attributes:
        kind: coefficient name ("pearson", "spearman", "kendall", "kendall-b").
        value: the coefficient, in [-1, 1].
        n: number of paired observations used.
        level: granularity of the items ("segment" or "system"), or "" when
            the caller did not say.
        scope: free-text description of what was correlated (metric id,
            language pair, system subset), or "".
    """

    kind: str
    value: float
    n: int
    level: str = ""
    scope: str = ""


def _constant(values: Sequence[float]) -> bool:
    # Value equality, not variance: the fsum mean of identical floats can be
    # inexact, which would make a constant vector look non-constant.
    first = values[0]
    return all(v == first for v in values)


def _check_pair(xs: Sequence[float], ys: Sequence[float], what: str) -> int:
    if len(xs) != len(ys):
        raise ValueError(f"length mismatch: {len(xs)} vs {len(ys)}")
    for side, values in (("x", xs), ("y", ys)):
        for i, v in enumerate(values):
            if not math.isfinite(v):
                raise NonFiniteError(f"{side}[{i}] is {v}; {what} is undefined")
    if len(xs) < MIN_POINTS:
        raise InsufficientDataError(
            f"{len(xs)} paired observations; need at least {MIN_POINTS}"
        )
    if _constant(xs):
        raise UndefinedCorrelationError(f"x is constant; {what} is undefined", "x")
    if _constant(ys):
        raise UndefinedCorrelationError(f"y is constant; {what} is undefined", "y")
    return len(xs)


def pearson(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Pearson's r: covariance over the product of standard deviations.

    Args:
        xs: first score vector.
        ys: second score vector, same length.

    Returns:
        r in [-1, 1].

    Raises:
        InsufficientDataError: fewer than 3 pairs.
        NonFiniteError: a NaN or infinite value.
        UndefinedCorrelationError: one of the vectors is constant.
    """
    n = _check_pair(xs, ys, "r")
    mx = math.fsum(xs) / n
    my = math.fsum(ys) / n
    num = math.fsum((x - mx) * (y - my) for x, y in zip(xs, ys))
    ssx = math.fsum((x - mx) ** 2 for x in xs)
    ssy = math.fsum((y - my) ** 2 for y in ys)
    # r^2 as a ratio of identically-formed products, then the signed root:
    # equal vectors give exactly 1.0 where num/(sqrt*sqrt) would round away.
    r = math.copysign(math.sqrt((num * num) / (ssx * ssy)), num)
    return min(1.0, max(-1.0, r))


def average_ranks(values: Sequence[float]) -> list[float]:
    """Rank values ascending from 1, giving tied values their average rank."""
    n = len(values)
    order = sorted(range(n), key=lambda i: values[i])
    ranks = [0.0] * n
    i = 0
    while i < n:
        j = i
        while j + 1 < n and values[order[j + 1]] == values[order[i]]:
            j += 1
        avg = (i + j) / 2 + 1
        for k in range(i, j + 1):
            ranks[order[k]] = avg
        i = j + 1
    return ranks


def spearman(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Spearman's rho: Pearson's r computed on average ranks.

    Raises:
        InsufficientDataError: fewer than 3 pairs.
        NonFiniteError: a NaN or infinite value.
        UndefinedCorrelationError: one of the vectors is constant.
    """
    _check_pair(xs, ys, "rho")
    return pearson(average_ranks(xs), average_ranks(ys))


def kendall_pair_counts(
    xs: Sequence[float], ys: Sequence[float], block: int = 1024
) -> tuple[int, int, int, int]:
    """Count pair relations for Kendall's tau.

    Enumerates all n*(n-1)/2 unordered pairs in numpy blocks so segment-scale
    inputs never materialize a full n-by-n matrix.  Counts are exact integers.

    Returns:
        (concordant, discordant, tied_x, tied_y) where tied_x counts pairs
        tied on x regardless of y, and tied_y likewise.
    """
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    n = len(x)
    conc = disc = tied_x = tied_y = 0
    for i0 in range(0, n, block):
        xi = x[i0 : i0 + block, None]
        yi = y[i0 : i0 + block, None]
        for j0 in range(i0, n, block):
            dx = np.sign(x[None, j0 : j0 + block] - xi)
            dy = np.sign(y[None, j0 : j0 + block] - yi)
            if i0 == j0:
                keep = np.triu(np.ones(dx.shape, dtype=bool), k=1)
            else:
                keep = np.ones(dx.shape, dtype=bool)
            s = dx * dy
            conc += int(np.count_nonzero((s > 0) & keep))
            disc += int(np.count_nonzero((s < 0) & keep))
            tied_x += int(np.count_nonzero((dx == 0) & keep))
            tied_y += int(np.count_nonzero((dy == 0) & keep))
    return conc, disc, tied_x, tied_y


def kendall_tau(
    xs: Sequence[float], ys: Sequence[float], *, tau_b: bool = False
) -> float:
    """Kendall's tau by pair counting.

    The default is (C - D) / (C + D) over the untied pairs only: pairs tied
    on either side are excluded from both tallies.  With tau_b=True the
    tie-corrected denominator sqrt((n0 - tx)(n0 - ty)) is used instead, where
    n0 is the total pair count and tx, ty the pairs tied on each side.

    Raises:
        InsufficientDataError: fewer than 3 pairs.
        NonFiniteError: a NaN or infinite value.
        UndefinedCorrelationError: a constant vector, or every pair tied.
    """
    n = _check_pair(xs, ys, "tau")
    conc, disc, tied_x, tied_y = kendall_pair_counts(xs, ys)
    if tau_b:
        n0 = n * (n - 1) // 2
        if tied_x == n0 or tied_y == n0:
            raise UndefinedCorrelationError(
                "every pair is tied; tau-b is undefined",
                "x" if tied_x == n0 else "y",
            )
        tau = (conc - disc) / (math.sqrt(n0 - tied_x) * math.sqrt(n0 - tied_y))
    else:
        if conc + disc == 0:
            raise UndefinedCorrelationError(
                "every pair is tied on x or on y; tau is undefined",
                "x" if tied_x >= tied_y else "y",
            )
        tau = (conc - disc) / (conc + disc)
    return min(1.0, max(-1.0, tau))


COEFFICIENTS = {
    "pearson": pearson,
    "spearman": spearman,
    "kendall": kendall_tau,
    "kendall-b": lambda xs, ys: kendall_tau(xs, ys, tau_b=True),
}


def correlate(
    sample: PairedSample, kind: str = "pearson", *, level: str = "", scope: str = ""
) -> CorrelationResult:
    """Compute one coefficient over a paired sample.

    Args:
        sample: the aligned observations.
        kind: one of COEFFICIENTS.
        level: recorded on the result; not interpreted here.
        scope: recorded on the result; not interpreted here.
    """
    try:
        fn = COEFFICIENTS[kind]
    except KeyError:
        raise ValueError(
            f"unknown coefficient {kind!r}; expected one of {sorted(COEFFICIENTS)}"
        ) from None
    value = fn(sample.xs, sample.ys)
    return CorrelationResult(kind, value, len(sample), level=level, scope=scope)


def _intersect(
    human: Mapping, scores: Mapping, what: str
) -> tuple[PairedSample, list[Finding]]:
    findings: list[Finding] = []
    keys = sorted(human.keys() & scores.keys())
    missing = len(human) - len(keys)
    if missing:
        findings.append(
            warning(
                f"metric covers {len(keys)} of {len(human)} {what}s with human scores; "
                f"{missing} excluded",
                code="partial-coverage",
            )
        )
    extra = len(scores) - len(keys)
    if extra:
        findings.append(
            warning(
                f"{extra} metric-scored {what}(s) have no human score and were excluded",
                code="unmatched-scores",
            )
        )
    if len(keys) < MIN_POINTS:
        raise InsufficientDataError(
            f"only {len(keys)} {what}s are scored by both metric and humans; "
            f"need at least {MIN_POINTS}"
        )
    xs = tuple(float(scores[k]) for k in keys)
    ys = tuple(float(human[k]) for k in keys)
    return PairedSample(xs, ys), findings


def segment_correlation(
    table: "MetricScoreTable",
    das: Iterable["SegmentDA"],
    metric_id: str,
    kind: str = "kendall",
    *,
    systems: Sequence[str] | None = None,
    scope: str = "",
) -> tuple[CorrelationResult, list[Finding]]:
    """Correlate one metric's segment scores with segment-level DA.

    The correlation runs over the intersection of (system, segment) points
    present on both sides, optionally restricted to a system subset; findings
    report anything excluded.

    Args:
        table: scores with a segment entry per (metric, system, segment).
        das: segment-level DA records.
        metric_id: which metric column of the table to use.
        kind: coefficient name.
        systems: when given, only these systems participate.
        scope: recorded on the result; defaults to the metric id.

    Raises:
        InsufficientDataError: fewer than 3 overlapping points.
        UndefinedCorrelationError: propagated from the coefficient.
    """
    wanted = set(systems) if systems is not None else None
    human = {
        (d.system_id, d.segment_id): d.da_score
        for d in das
        if wanted is None or d.system_id in wanted
    }
    scores = {
        k: v
        for k, v in table.segment_map(metric_id).items()
        if wanted is None or k[0] in wanted
    }
    sample, findings = _intersect(human, scores, "segment")
    result = correlate(sample, kind, level=SEGMENT, scope=scope or metric_id)
    return result, findings


def system_correlation(
    table: "MetricScoreTable",
    das: Iterable["SystemDA"],
    metric_id: str,
    kind: str = "pearson",
    *,
    systems: Sequence[str] | None = None,
    scope: str = "",
) -> tuple[CorrelationResult, list[Finding]]:
    """Correlate one metric's system scores with system-level DA.

    With only 3 or 4 systems the result is computed but flagged: the r = 0
    significance test cannot reach p < 0.05 on fewer than 5 points however
    strong the observed correlation.

    Args:
        table: scores with a system entry per (metric, system).
        das: system-level DA records.
        metric_id: which metric column of the table to use.
        kind: coefficient name.
        systems: when given, only these systems participate.
        scope: recorded on the result; defaults to the metric id.
    """
    wanted = set(systems) if systems is not None else None
    human = {
        d.system_id: d.da_score
        for d in das
        if wanted is None or d.system_id in wanted
    }
    scores = {
        k: v
        for k, v in table.system_map(metric_id).items()
        if wanted is None or k in wanted
    }
    sample, findings = _intersect(human, scores, "system")
    if len(sample) < RECOMMENDED_SYSTEMS:
        findings.append(
            warning(
                f"only {len(sample)} systems; correlation significance cannot "
                f"reach p<0.05 with fewer than {RECOMMENDED_SYSTEMS}",
                code="few-systems",
            )
        )
    result = correlate(sample, kind, level=SYSTEM, scope=scope or metric_id)
    return result, findings


def correlations_to_csv(rows: Sequence[tuple[str, CorrelationResult]]) -> str:
    """Render (metric_id, result) rows as CSV: metric,kind,level,scope,n,value."""
    out = io.StringIO()
    out.write("metric,kind,level,scope,n,value\r\n")
    for metric_id, res in rows:
        out.write(
            f"{metric_id},{res.kind},{res.level},{res.scope},{res.n},{res.value!r}\r\n"
        )
    return out.getvalue()
