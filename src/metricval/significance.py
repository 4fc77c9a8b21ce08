"""Significance testing for correlations and for differences between them.

The central tool is Williams' test for two dependent correlations sharing a
variable: both metrics are correlated with the same human scores, so their
correlations cannot be compared as if independent.  The test statistic
follows a Student t distribution, evaluated here through the regularized
incomplete beta function.

Williams p-values are one-sided by default: cell (i, j) of a significance
matrix asks whether metric i's correlation with the human scores exceeds
metric j's, and small p favors metric i.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from .correlation import pearson
from .errors import DegeneracyError, InsufficientDataError, UndefinedCorrelationError

DEFAULT_ALPHA = 0.05

ONE_SIDED = "one"
TWO_SIDED = "two"


@dataclass(frozen=True)
class TestOutcome:
    """Result of one hypothesis test.

    Attributes:
        statistic: the t statistic.
        df: degrees of freedom.
        p_value: in [0, 1].
        sidedness: "one" or "two".
        kind: test name ("williams" or "pearson-zero").
        n: number of paired observations behind the test.
        degenerate: the inputs sat on a boundary (|r| = 1) and the p-value
            was assigned by convention rather than computed.
    """

    statistic: float
    df: float
    p_value: float
    sidedness: str
    kind: str
    n: int
    degenerate: bool = False


def student_t_sf(t: float, df: float) -> float:
    """Survival function P(T > t) of the Student t distribution.

    Computed as half the regularized incomplete beta I_z(df/2, 1/2) at
    z = df / (df + t^2) for t >= 0, reflected for t < 0.  Accurate to 1e-10.

    Args:
        t: evaluation point.
        df: degrees of freedom, > 0.
    """
    if df <= 0:
        raise ValueError(f"degrees of freedom must be positive, got {df}")
    if t != t:
        return float("nan")
    if t == 0.0:
        return 0.5
    if math.isinf(t):
        return 0.0 if t > 0 else 1.0
    # here, not at the top: scipy.special is half of the package's import time
    from scipy.special import betainc

    z = df / (df + t * t)
    half_tail = 0.5 * float(betainc(df / 2.0, 0.5, z))
    return half_tail if t > 0 else 1.0 - half_tail


def pearson_zero_test(r: float, n: int) -> TestOutcome:
    """Two-sided test of a Pearson correlation against zero.

    Uses t = r * sqrt((n-2) / (1-r^2)) with n-2 degrees of freedom.  A
    correlation of exactly +/-1 returns p = 0 flagged as degenerate instead
    of raising, so callers probing the boundary still get an outcome.

    Args:
        r: observed correlation, in [-1, 1].
        n: number of paired observations, at least 4.
    """
    if not -1.0 <= r <= 1.0:
        raise ValueError(f"correlation out of range: {r}")
    if n < 4:
        raise InsufficientDataError(f"need at least 4 observations, got {n}")
    df = n - 2
    if abs(r) == 1.0:
        t = math.inf if r > 0 else -math.inf
        return TestOutcome(t, df, 0.0, TWO_SIDED, "pearson-zero", n, degenerate=True)
    t = r * math.sqrt(df / (1.0 - r * r))
    p = min(1.0, 2.0 * student_t_sf(abs(t), df))
    return TestOutcome(t, df, p, TWO_SIDED, "pearson-zero", n)


def min_significant_r(n: int, alpha: float = DEFAULT_ALPHA) -> float:
    """Smallest |r| that reaches two-sided p < alpha with n observations.

    Found by bisection on pearson_zero_test, whose p is monotone decreasing
    in |r|.
    """
    if n < 4:
        raise InsufficientDataError(f"need at least 4 observations, got {n}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha out of range: {alpha}")
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = (lo + hi) / 2.0
        if pearson_zero_test(mid, n).p_value < alpha:
            hi = mid
        else:
            lo = mid
    return (lo + hi) / 2.0


def _significance_bar(n: int) -> str:
    """What the r = 0 test at p < 0.05 needs of n points, for a finding."""
    need = f"|r| > {min_significant_r(n):.3f}" if n >= 4 else "at least 4 points"
    return f"the r = 0 test at p<0.05 needs {need}"


def williams_test(
    r13: float, r23: float, r12: float, n: int, *, two_sided: bool = False
) -> TestOutcome:
    """Williams' test for two correlations sharing a common variable.

    Variable 3 plays the shared role (the human scores); r13 and r23 are the
    two competing correlations and r12 relates the competitors to each other.
    The default one-sided p is small when r13 exceeds r23 significantly.

    Equal competing correlations short-circuit to t = 0 and p = 0.5 (1.0
    two-sided) before any degeneracy check, so comparing a metric against an
    identical copy of itself is well-defined even though r12 is then 1.  The
    arithmetic is symmetric in (r13, r23), so swapping them negates t exactly.

    Args:
        r13: correlation of the first competitor with the shared variable.
        r23: correlation of the second competitor with the shared variable.
        r12: correlation between the two competing score vectors.
        n: number of observations behind each correlation, at least 4.
        two_sided: return the two-sided p instead of the one-sided default.

    Raises:
        InsufficientDataError: n < 4 (the test has n-3 degrees of freedom).
        DegeneracyError: a correlation at +/-1, or K <= 0 (inputs that do
            not form a usable correlation matrix).
    """
    for name, r in (("r13", r13), ("r23", r23), ("r12", r12)):
        if not -1.0 <= r <= 1.0:
            raise ValueError(f"{name} out of range: {r}")
    if n < 4:
        raise InsufficientDataError(
            f"Williams test needs at least 4 observations, got {n}"
        )
    df = n - 3
    sidedness = TWO_SIDED if two_sided else ONE_SIDED
    if r13 == r23:
        return TestOutcome(0.0, df, 0.5 if not two_sided else 1.0, sidedness,
                           "williams", n)
    if abs(r12) == 1.0 or abs(r13) == 1.0 or abs(r23) == 1.0:
        raise DegeneracyError("a correlation of +/-1 leaves no variance to test")
    # Symmetric groupings: every product and sum below commutes under the
    # (r13, r23) swap bit-for-bit, so only the leading difference changes sign.
    k = 1.0 - r12 * r12 - (r13 * r13 + r23 * r23) + 2.0 * r12 * (r13 * r23)
    if k <= 0.0:
        raise DegeneracyError(
            f"degenerate correlation matrix (K = {k!r} <= 0); "
            "the three correlations are mutually inconsistent or collinear"
        )
    mean_sq = ((r13 + r23) ** 2) / 4.0
    denom = 2.0 * k * (n - 1) / (n - 3) + mean_sq * (1.0 - r12) ** 3
    t = (r13 - r23) * math.sqrt((n - 1) * (1.0 + r12)) / math.sqrt(denom)
    if two_sided:
        p = min(1.0, 2.0 * student_t_sf(abs(t), df))
    else:
        p = student_t_sf(t, df)
    return TestOutcome(t, df, p, sidedness, "williams", n)


@dataclass(frozen=True)
class SignificanceMatrix:
    """All pairwise Williams tests among a set of metrics.

    Attributes:
        metric_ids: metric names ordered by descending correlation with the
            human scores (ties broken alphabetically).
        correlations: metric name -> Pearson r against the human scores.
        p: (i, j) -> one-sided p-value that metric i beats metric j.  The
            diagonal is absent.
        n: number of paired observations.
        alpha: the nominal significance level.
        effective_alpha: alpha after Bonferroni correction; equals alpha when
            the correction is off or there are no pairs.
        bonferroni: whether the correction was applied.
    """

    metric_ids: tuple[str, ...]
    correlations: dict[str, float]
    p: dict[tuple[str, str], float]
    n: int
    alpha: float
    effective_alpha: float
    bonferroni: bool

    def significant(self, i: str, j: str) -> bool:
        """Whether metric i's correlation significantly exceeds metric j's."""
        return self.p[(i, j)] < self.effective_alpha


def significance_matrix(
    metric_scores: Mapping[str, Sequence[float]],
    da: Sequence[float],
    alpha: float = DEFAULT_ALPHA,
    *,
    bonferroni: bool = False,
) -> SignificanceMatrix:
    """Run Williams' test for every ordered pair of metrics.

    Every score vector must align item-for-item with the human vector; any
    coverage mismatch must be resolved before calling, never in here.  The
    comparison applies to Pearson correlations.  A single metric yields a
    matrix with no cells whose winner is trivially that metric.

    Args:
        metric_scores: metric name -> scores aligned with da.
        da: human scores, one per item.
        alpha: nominal significance level.
        bonferroni: divide alpha by the number of metric pairs when True.

    Raises:
        InsufficientDataError: fewer than 4 items.
        UndefinedCorrelationError: a constant vector, naming the metric
            (or "da") in its variable attribute.
        DegeneracyError: propagated from williams_test.
    """
    if not metric_scores:
        raise ValueError("no metrics to compare")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha out of range: {alpha}")
    n = len(da)
    for name in sorted(metric_scores):
        if len(metric_scores[name]) != n:
            raise ValueError(
                f"metric {name!r} has {len(metric_scores[name])} scores "
                f"for {n} human-scored items"
            )

    def _corr(xs, ys, label):
        try:
            return pearson(xs, ys)
        except UndefinedCorrelationError as exc:
            side = label if exc.variable == "x" else "da"
            raise UndefinedCorrelationError(
                f"{side!r} scores are constant; correlation undefined", side
            ) from None

    corr = {
        name: _corr(metric_scores[name], da, name) for name in sorted(metric_scores)
    }
    order = tuple(sorted(corr, key=lambda m: (-corr[m], m)))
    # pearson is symmetric bit for bit: one r12 serves both orders of a pair
    r12: dict[tuple[str, str], float] = {}
    for a, i in enumerate(order):
        for j in order[a + 1:]:
            r12[i, j] = r12[j, i] = _corr(metric_scores[i], metric_scores[j], i)
    p = {(i, j): williams_test(corr[i], corr[j], r12[i, j], n).p_value
         for i in order for j in order if i != j}
    pairs = len(order) * (len(order) - 1) // 2
    effective = alpha / pairs if (bonferroni and pairs) else alpha
    return SignificanceMatrix(
        metric_ids=order,
        correlations=corr,
        p=p,
        n=n,
        alpha=alpha,
        effective_alpha=effective,
        bonferroni=bonferroni,
    )


def winner_set(matrix: SignificanceMatrix) -> tuple[str, ...]:
    """Metrics not significantly outperformed by any other metric.

    Returned in the matrix's order (descending correlation).  Never empty on
    a valid matrix: the top-correlation metric cannot be one-sidedly beaten.
    """
    return tuple(
        j
        for j in matrix.metric_ids
        if not any(matrix.significant(i, j) for i in matrix.metric_ids if i != j)
    )


def matrix_to_text(matrix: SignificanceMatrix) -> str:
    """Render the matrix as a character grid.

    One row per metric in descending-r order; '*' marks a significant win of
    the row metric over the column metric, '.' a non-significant comparison,
    and the diagonal is blank.
    """
    width = max(len(m) for m in matrix.metric_ids)
    lines = []
    for i in matrix.metric_ids:
        cells = []
        for j in matrix.metric_ids:
            if i == j:
                cells.append(" ")
            elif matrix.significant(i, j):
                cells.append("*")
            else:
                cells.append(".")
        lines.append(f"{i:<{width}}  {matrix.correlations[i]:+.3f}  {''.join(cells)}")
    return "\n".join(lines) + "\n"
