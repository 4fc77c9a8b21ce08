"""Correlation coefficients between paired score vectors.

Three coefficients are provided: Pearson's r on raw values, Spearman's rho
(Pearson on average ranks), and Kendall's tau in a pair-counting form whose
default variant drops tied pairs from both the numerator and the denominator
(a gamma-style statistic; the tie-corrected tau-b is available behind a flag).
Kendall's pair counts are exact integers computed in O(n log n) by Knight's
algorithm, so segment-level samples of tens of thousands of points are cheap.

Sums use math.fsum so results do not drift with summation order, and computed
coefficients are clamped to [-1, 1].  A constant input vector has no defined
correlation and raises UndefinedCorrelationError naming the offending side:
silently returning 0 would corrupt winner computations downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import DataError, InsufficientDataError, NonFiniteError, UndefinedCorrelationError
from .findings import Finding, warning

if TYPE_CHECKING:
    from .metrics import MetricScoreTable, SparseScores

MIN_POINTS = 3
# systems a study should have; corpus.validate_corpus and StudyConfig reuse it
DEFAULT_MIN_SYSTEMS = 5

SEGMENT = "segment"
SYSTEM = "system"


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


def _mean(values: Sequence[float]) -> float:
    # Identical values average to themselves exactly; fsum/n may not.
    return values[0] if _constant(values) else math.fsum(values) / len(values)


def _check_pair(xs: Sequence[float], ys: Sequence[float], what: str) -> int:
    if len(xs) != len(ys):
        raise ValueError(f"length mismatch: {len(xs)} vs {len(ys)}")
    for side, values in (("x", xs), ("y", ys)):
        if not all(map(math.isfinite, values)):
            i, v = next((i, v) for i, v in enumerate(values) if not math.isfinite(v))
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


def _deviations(values: Sequence[float], n: int) -> list[float]:
    """Deviations from the mean, rescaled by a power of two (r does not depend
    on it) where their squares could underflow to 0 or overflow."""
    mean = math.fsum(values) / n
    deviations = [v - mean for v in values]
    peak = max(map(abs, deviations))
    if 2.0**-200 < peak < 2.0**200:
        return deviations
    return [math.ldexp(d, -math.frexp(peak)[1]) for d in deviations]


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
    return _pearson(xs, ys, _check_pair(xs, ys, "r"))


def _pearson(xs: Sequence[float], ys: Sequence[float], n: int) -> float:
    """Pearson's r of n pairs that passed _check_pair."""
    dx, dy = _deviations(xs, n), _deviations(ys, n)
    num = math.fsum(x * y for x, y in zip(dx, dy))
    ssx = math.fsum(x**2 for x in dx)
    ssy = math.fsum(y**2 for y in dy)
    # r^2 as a ratio of identically-formed products, then the signed root:
    # equal vectors give exactly 1.0 where num/(sqrt*sqrt) would round away.
    r = math.copysign(math.sqrt((num * num) / (ssx * ssy)), num)
    return min(1.0, max(-1.0, r))


def average_ranks(values: Sequence[float]) -> list[float]:
    """Rank values ascending from 1, giving tied values their average rank."""
    v = np.asarray(values, dtype=float)
    order = np.argsort(v, kind="stable")
    s = v[order]
    starts = np.flatnonzero(np.concatenate(([True], s[1:] != s[:-1])))
    ends = np.append(starts[1:], len(v))
    # (first + last) / 2 + 1 over 0-based positions: an exact half-integer
    ranks = np.empty(len(v))
    ranks[order] = np.repeat((starts + ends - 1) / 2 + 1, ends - starts)
    return ranks.tolist()


def spearman(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Spearman's rho: Pearson's r computed on average ranks.

    Raises:
        InsufficientDataError: fewer than 3 pairs.
        NonFiniteError: a NaN or infinite value.
        UndefinedCorrelationError: one of the vectors is constant.
    """
    n = _check_pair(xs, ys, "rho")
    return _pearson(average_ranks(xs), average_ranks(ys), n)


def _tied_pairs(new_run: np.ndarray) -> int:
    """Pairs inside the runs of a sorted array; new_run[i]: a[i + 1] != a[i]."""
    lengths = np.diff(np.flatnonzero(np.concatenate(([True], new_run, [True]))))
    return int((lengths * (lengths - 1) // 2).sum())


def kendall_pair_counts(
    xs: Sequence[float], ys: Sequence[float]
) -> tuple[int, int, int, int]:
    """Count pair relations for Kendall's tau in O(n log n).

    Knight's algorithm (Knight 1966, JASA 61(314)), as in scipy's kendalltau:
    sort the points by (x, y); ties on x and on both come from run lengths of
    the sorted keys, ties on y from runs of sorted y.  In that order the
    discordant pairs are the strict inversions of y, counted by a bottom-up
    merge sort with one searchsorted per level, and the rest are concordant.
    Inputs are finite and of equal length; counts are exact integers, and
    -0.0 ties with 0.0.

    Returns:
        (concordant, discordant, tied_x, tied_y) where tied_x counts pairs
        tied on x regardless of y, and tied_y likewise.
    """
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    n = len(x)
    order = np.lexsort((y, x))
    x, y, y_sorted = x[order], y[order], np.sort(y)
    new_x = x[1:] != x[:-1]
    tied_x = _tied_pairs(new_x)
    tied_y = _tied_pairs(y_sorted[1:] != y_sorted[:-1])
    tied_both = _tied_pairs(new_x | (y[1:] != y[:-1]))
    # y ascends within each x run, so no pair tied on x is an inversion
    runs = np.searchsorted(y_sorted, y)  # integer ranks in [0, n)
    index, disc, width = np.arange(n), 0, 1
    while width < n:  # runs of `width` are sorted; merge them in pairs
        block = index // (2 * width)
        keys = runs + block * n  # every block's left run in one ascending array
        right = index // width % 2 == 1
        # blocks up to a right element's own hold (block + 1) * width left
        # elements; those not above it are no inversion
        not_above = np.searchsorted(keys[~right], keys[right], side="right")
        disc += int(((block[right] + 1) * width - not_above).sum())
        runs = np.sort(keys) - block * n
        width *= 2
    conc = n * (n - 1) // 2 - disc - tied_x - tied_y + tied_both
    return conc, disc, tied_x, tied_y


def _tau_from_counts(
    n: int, counts: tuple[int, int, int, int], tau_b: bool
) -> float:
    """Kendall's tau from kendall_pair_counts over n points (see kendall_tau)."""
    conc, disc, tied_x, tied_y = counts
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
    return _tau_from_counts(n, kendall_pair_counts(xs, ys), tau_b)


COEFFICIENTS = {
    "pearson": pearson,
    "spearman": spearman,
    "kendall": kendall_tau,
    "kendall-b": lambda xs, ys: kendall_tau(xs, ys, tau_b=True),
}


def correlate(
    xs: Sequence[float], ys: Sequence[float], kind: str = "pearson", *,
    level: str = "", scope: str = "",
) -> CorrelationResult:
    """Compute one coefficient over two aligned score vectors.

    Args:
        xs: scores from the first method.
        ys: scores from the second method over the same items, in order.
        kind: one of COEFFICIENTS.
        level: recorded on the result; not interpreted here.
        scope: recorded on the result; not interpreted here.

    Raises:
        ValueError: an unknown kind, or vectors of unequal length.
        StudyError: what the coefficient raises, as pearson documents it.
    """
    try:
        fn = COEFFICIENTS[kind]
    except KeyError:
        raise ValueError(
            f"unknown coefficient {kind!r}; expected one of {sorted(COEFFICIENTS)}"
        ) from None
    return CorrelationResult(kind, fn(xs, ys), len(xs), level=level, scope=scope)


@dataclass(frozen=True, eq=False)
class Aligned:
    """One level of a study: DA (as judgments.segment_da or system_da builds
    it), and scores, a float64 matrix whose row k is metric_ids[k]'s score
    at each of DA's cells, NaN where it has none.  scored[k] counts that
    metric's scores at this level, on DA's cells or off them."""

    da: "SparseScores"
    metric_ids: tuple[str, ...]
    scores: np.ndarray
    scored: tuple[int, ...]

    def row(self, metric_id: str) -> np.ndarray:
        """The metric's row of scores; DataError for an unknown metric."""
        if metric_id not in self.metric_ids:
            raise DataError(f"unknown metric {metric_id!r}; table has {list(self.metric_ids)}")
        return self.scores[self.metric_ids.index(metric_id)]

    def pairs(self, metric_id: str, keep=True) -> tuple[list[float], list[float]]:
        """The metric's and DA's scores at the cells the metric scores and
        keep (a mask over DA's cells) selects, in key order."""
        row = self.row(metric_id)
        both = ~np.isnan(row) & keep
        return row[both].tolist(), self.da.score[both].tolist()

    def masked(self, keep: np.ndarray) -> Aligned:
        """The record of the DA cells the mask keep selects."""
        da = self.da
        da = replace(da, cells=tuple(cell[keep] for cell in da.cells),
                     score=da.score[keep], count=da.count[keep])
        return replace(self, da=da, scores=self.scores[:, keep])


def aligned(table: "MetricScoreTable", da: "SparseScores") -> Aligned:
    """Every metric of table read at DA's cells, at DA's level: one gather
    per metric, which every analysis of that level then reads."""
    level = SEGMENT if len(da.axes) == 2 else SYSTEM
    ids = table.metric_ids()
    records = [getattr(table[m], level) for m in ids]
    scores = np.reshape([r.on(da.axes, da.cells) for r in records], (len(ids), len(da)))
    return Aligned(da, tuple(ids), scores, tuple(map(len, records)))


def _correlation(
    study: Aligned, metric_id: str, kind: str, level: str,
    min_systems: int = DEFAULT_MIN_SYSTEMS,
) -> tuple[CorrelationResult, list[Finding]]:
    """Correlate a metric's scores with DA over the cells both hold."""
    findings: list[Finding] = []
    metric, human = study.pairs(metric_id)
    n, n_human = len(metric), len(study.da)
    n_metric = study.scored[study.metric_ids.index(metric_id)]
    if n_human > n:
        findings.append(
            warning(
                f"metric covers {n} of {n_human} {level}s with human scores; "
                f"{n_human - n} excluded",
                code="partial-coverage",
            )
        )
    if n_metric > n:
        findings.append(
            warning(
                f"{n_metric - n} metric-scored {level}(s) have no human score "
                "and were excluded",
                code="unmatched-scores",
            )
        )
    if n < MIN_POINTS:
        raise InsufficientDataError(
            f"only {n} {level}s are scored by both metric and humans; "
            f"need at least {MIN_POINTS}"
        )
    if level == SYSTEM and n < min_systems:
        from .significance import _significance_bar  # significance imports us

        findings.append(
            warning(f"only {n} systems; {_significance_bar(n)}", code="few-systems")
        )
    result = correlate(metric, human, kind, level=level, scope=metric_id)
    return result, findings


def segment_correlation(
    study: Aligned, metric_id: str, kind: str = "kendall"
) -> tuple[CorrelationResult, list[Finding]]:
    """Correlate one metric's segment scores with segment-level DA.

    The correlation runs over the (system, segment) points present on both
    sides; findings report anything excluded.  The result's scope is the
    metric id.

    Args:
        study: the segment level, aligned(table, segment DA).
        metric_id: which metric of the study to use.
        kind: coefficient name.

    Raises:
        DataError: no such metric.
        InsufficientDataError: fewer than 3 overlapping points.
        UndefinedCorrelationError: propagated from the coefficient.
    """
    return _correlation(study, metric_id, kind, SEGMENT)


def system_correlation(
    study: Aligned,
    metric_id: str,
    kind: str = "pearson",
    min_systems: int = DEFAULT_MIN_SYSTEMS,
) -> tuple[CorrelationResult, list[Finding]]:
    """Correlate one metric's system scores with system-level DA.

    With fewer than min_systems shared systems the result is computed but
    flagged with what the r = 0 significance test at p < 0.05 needs at that
    size: at least 4 points, and |r| > 0.950 on 4.  The result's scope is
    the metric id.

    Args:
        study: the system level, aligned(table, system DA).
        metric_id: which metric of the study to use.
        kind: coefficient name.
        min_systems: shared systems below which the result is flagged.
    """
    return _correlation(study, metric_id, kind, SYSTEM, min_systems)
