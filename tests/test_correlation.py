import math
import random
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from metricval import (
    CorrelationResult,
    InsufficientDataError,
    MetricScoreTable,
    MetricScores,
    NonFiniteError,
    StudyError,
    UndefinedCorrelationError,
    average_ranks,
    correlate,
    kendall_pair_counts,
    kendall_tau,
    min_significant_r,
    pearson,
    segment_correlation,
    spearman,
    system_correlation,
)
from metricval.correlation import COEFFICIENTS, aligned
from metricval.report import correlations_rows, render_table

from oracles import (
    aligned_naive,
    judged_da,
    kendall_naive,
    pearson_exact,
    ranks_naive,
    spearman_naive,
    table_correlation_naive,
)

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def vectors(min_size=3, max_size=40, tied=False):
    base = st.integers(min_value=-5, max_value=5).map(float) if tied else finite
    return st.lists(base, min_size=min_size, max_size=max_size)


def paired(tied=False):
    return st.integers(min_value=3, max_value=40).flatmap(
        lambda n: st.tuples(
            st.lists(
                st.integers(-5, 5).map(float) if tied else finite,
                min_size=n, max_size=n,
            ),
            st.lists(
                st.integers(-5, 5).map(float) if tied else finite,
                min_size=n, max_size=n,
            ),
        )
    )


def levels():
    # 3-5 levels; 0.0 and -0.0 compare equal, so together they are one value
    return st.lists(finite, min_size=1, max_size=3, unique=True).map(
        lambda extra: [0.0, -0.0, *extra]
    )


def heavy_ties():
    return st.tuples(levels(), levels(), st.integers(0, 60)).flatmap(
        lambda t: st.tuples(
            st.lists(st.sampled_from(t[0]), min_size=t[2], max_size=t[2]),
            st.lists(st.sampled_from(t[1]), min_size=t[2], max_size=t[2]),
        )
    )


def nonconstant(xs):
    return any(v != xs[0] for v in xs)


class TestPearson:
    def test_hand_value(self):
        # cov terms: (-1)(-4/3)+0(-1/3)+(1)(5/3) = 3; ssx = 2; ssy = 14/3
        assert pearson([1, 2, 3], [1, 2, 4]) == pytest.approx(
            3 / math.sqrt(2 * 14 / 3), abs=1e-15
        )

    def test_identity_is_exactly_one(self):
        xs = [0.1, 0.7, 2.3, 3.14, 5.5]
        assert pearson(xs, xs) == 1.0

    def test_negation_is_exactly_minus_one(self):
        xs = [0.1, 0.7, 2.3, 3.14, 5.5]
        assert pearson(xs, [-v for v in xs]) == -1.0

    def test_affine_image_is_exactly_one(self):
        xs = [1.0, 2.0, 5.0, 7.0]
        assert pearson(xs, [3 * v + 1 for v in xs]) == 1.0

    def test_constant_x_raises(self):
        with pytest.raises(UndefinedCorrelationError) as exc:
            pearson([2, 2, 2], [1, 2, 3])
        assert exc.value.variable == "x"

    def test_constant_y_raises(self):
        with pytest.raises(UndefinedCorrelationError) as exc:
            pearson([1, 2, 3], [7, 7, 7])
        assert exc.value.variable == "y"

    def test_too_few_points(self):
        with pytest.raises(InsufficientDataError):
            pearson([1, 2], [3, 4])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            pearson([1, 2, 3], [1, 2])

    @pytest.mark.parametrize("coef", [pearson, spearman, kendall_tau])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, coef, bad):
        # NaN once clamped to r = -1.0 (Pearson) or ranked to 1.0 (Spearman,
        # Kendall); inf escaped as a bare ValueError from math.fsum.
        with pytest.raises(NonFiniteError, match=r"x\[2\]"):
            coef([1, 2, bad, 4], [1, 2, 3, 4])
        with pytest.raises(NonFiniteError, match=r"y\[0\]"):
            coef([1, 2, 3, 4], [bad, 2, 3, 4])

    @given(paired())
    @settings(max_examples=150, deadline=None)
    def test_matches_exact_rational_oracle(self, xy):
        xs, ys = xy
        if not (nonconstant(xs) and nonconstant(ys)):
            return
        assert pearson(xs, ys) == pytest.approx(pearson_exact(xs, ys), abs=1e-12)

    def test_tiny_and_huge_variances(self):
        # a square of 1e-228 underflows to 0; of 1e200, overflows to inf
        for ys in ([0.0, 0.0, 1.409059169954349e-228], [0.0, 0.0, 1e200]):
            r = pearson([0.0, 0.0, 1.0], ys)
            assert r == pearson(ys, [0.0, 0.0, 1.0]) == pytest.approx(1.0)

    @given(paired())
    @settings(max_examples=80, deadline=None)
    def test_symmetry(self, xy):
        xs, ys = xy
        if not (nonconstant(xs) and nonconstant(ys)):
            return
        assert pearson(xs, ys) == pearson(ys, xs)

    @given(paired(tied=True), st.floats(0.25, 4), st.floats(-100, 100))
    @settings(max_examples=80, deadline=None)
    def test_positive_affine_invariance(self, xy, a, b):
        # integer-valued inputs keep the affine image well conditioned
        xs, ys = xy
        if not (nonconstant(xs) and nonconstant(ys)):
            return
        direct = pearson(xs, ys)
        mapped = pearson([a * v + b for v in xs], ys)
        assert mapped == pytest.approx(direct, abs=1e-10)

    @given(paired())
    @settings(max_examples=80, deadline=None)
    def test_negating_one_side_flips_sign(self, xy):
        xs, ys = xy
        if not (nonconstant(xs) and nonconstant(ys)):
            return
        assert pearson([-v for v in xs], ys) == pytest.approx(
            -pearson(xs, ys), abs=1e-15
        )

    def test_bounded(self):
        rng = random.Random(5)
        for _ in range(200):
            n = rng.randint(3, 30)
            xs = [rng.gauss(0, 1) for _ in range(n)]
            ys = [0.9 * x + 0.1 * rng.gauss(0, 1) for x in xs]
            assert -1.0 <= pearson(xs, ys) <= 1.0


class TestRanks:
    def test_no_ties(self):
        assert average_ranks([10.0, 30.0, 20.0]) == [1.0, 3.0, 2.0]

    def test_ties_share_average_position(self):
        assert average_ranks([1.0, 2.0, 2.0, 3.0]) == [1.0, 2.5, 2.5, 4.0]

    def test_signed_zeros_tie(self):
        assert average_ranks([0.0, 1.0, -0.0]) == [1.5, 3.0, 1.5]

    @given(vectors(min_size=1, tied=True))
    @settings(max_examples=100, deadline=None)
    def test_matches_naive_definition(self, values):
        assert average_ranks(values) == ranks_naive(values)


class TestSpearman:
    def test_monotone_relation_is_one(self):
        xs = [1.0, 2.0, 5.0, 9.0]
        assert spearman(xs, [v ** 3 for v in xs]) == 1.0

    @given(paired(tied=True))
    @settings(max_examples=100, deadline=None)
    def test_matches_rank_pearson_oracle(self, xy):
        xs, ys = xy
        if not (nonconstant(xs) and nonconstant(ys)):
            return
        assert spearman(xs, ys) == pytest.approx(spearman_naive(xs, ys), abs=1e-12)

    @given(paired(tied=True))
    @settings(max_examples=60, deadline=None)
    def test_invariant_under_strictly_increasing_map(self, xy):
        # cubing is exact and injective on small integers
        xs, ys = xy
        if not (nonconstant(xs) and nonconstant(ys)):
            return
        direct = spearman(xs, ys)
        mapped = spearman([v ** 3 for v in xs], ys)
        assert mapped == pytest.approx(direct, abs=1e-12)


class TestKendall:
    def test_hand_value(self):
        # pairs of [1,2,3,4] vs [1,3,2,4]: only (2,3) discordant
        assert kendall_tau([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(4 / 6)

    def test_pair_counts(self):
        conc, disc, tied_x, tied_y = kendall_pair_counts([1, 1, 2, 3], [1, 2, 2, 3])
        oracle = kendall_naive([1, 1, 2, 3], [1, 2, 2, 3])
        assert conc == oracle["concordant"]
        assert disc == oracle["discordant"]
        assert tied_x == oracle["tied_x"]
        assert tied_y == oracle["tied_y"]

    @pytest.mark.parametrize(
        "xs, ys, counts",
        [
            ([], [], (0, 0, 0, 0)),
            ([1.0], [2.0], (0, 0, 0, 0)),
            ([1.0, 2.0], [1.0, 3.0], (1, 0, 0, 0)),
            ([1.0, 2.0], [3.0, 1.0], (0, 1, 0, 0)),
            ([1.0, 1.0], [3.0, 1.0], (0, 0, 1, 0)),
            ([0.0, -0.0], [-0.0, 0.0], (0, 0, 1, 1)),
        ],
    )
    def test_pair_counts_of_tiny_inputs(self, xs, ys, counts):
        assert kendall_pair_counts(xs, ys) == counts

    @given(heavy_ties())
    @settings(max_examples=300, deadline=None)
    def test_pair_counts_match_enumeration_under_heavy_ties(self, xy):
        xs, ys = xy
        oracle = kendall_naive(xs, ys)
        assert kendall_pair_counts(xs, ys) == (
            oracle["concordant"], oracle["discordant"],
            oracle["tied_x"], oracle["tied_y"],
        )

    def test_pair_counts_closed_form_at_scale(self):
        # runs of 3 equal values: 3 tied pairs per run, every other pair
        # concordant; an all-pairs counter would take minutes here
        n = 300_000
        values = [float(i // 3) for i in range(n)]
        n0 = n * (n - 1) // 2
        assert kendall_pair_counts(values, values) == (n0 - n, 0, n, n)

    def test_constant_raises(self):
        with pytest.raises(UndefinedCorrelationError):
            kendall_tau([1, 1, 1], [1, 2, 3])

    @given(paired(tied=True))
    @settings(max_examples=120, deadline=None)
    def test_gamma_matches_enumeration(self, xy):
        xs, ys = xy
        oracle = kendall_naive(xs, ys)
        if oracle["gamma"] is None or not (nonconstant(xs) and nonconstant(ys)):
            return
        assert kendall_tau(xs, ys) == pytest.approx(oracle["gamma"], abs=1e-15)

    @given(paired(tied=True))
    @settings(max_examples=120, deadline=None)
    def test_tau_b_matches_enumeration(self, xy):
        xs, ys = xy
        oracle = kendall_naive(xs, ys)
        if oracle["tau_b"] is None or not (nonconstant(xs) and nonconstant(ys)):
            return
        assert kendall_tau(xs, ys, tau_b=True) == pytest.approx(
            oracle["tau_b"], abs=1e-13
        )

    def test_large_input_uses_exact_counts(self):
        rng = random.Random(11)
        xs = [rng.randint(0, 50) / 7 for _ in range(3000)]
        ys = [x + rng.randint(0, 10) for x in xs]
        oracle = kendall_naive(xs, ys)
        assert kendall_tau(xs, ys) == pytest.approx(oracle["gamma"], abs=1e-15)


class TestCorrelate:
    def test_records_kind_level_scope(self):
        res = correlate(
            (1.0, 2.0, 3.0), (1.0, 2.0, 4.0), "pearson", level="system", scope="demo"
        )
        assert isinstance(res, CorrelationResult)
        assert (res.kind, res.level, res.scope, res.n) == (
            "pearson", "system", "demo", 3,
        )

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            correlate((1.0, 2.0, 3.0), (1.0, 2.0, 4.0), "cosine")

    @pytest.mark.parametrize("kind", sorted(COEFFICIENTS))
    def test_unequal_lengths_refused(self, kind):
        with pytest.raises(ValueError, match="length mismatch: 3 vs 4"):
            correlate([1.0, 2.0, 3.0], [1.0, 2.0, 4.0, 8.0], kind)

    @pytest.mark.parametrize("kind", sorted(COEFFICIENTS))
    def test_two_points_refused(self, kind):
        with pytest.raises(InsufficientDataError, match="2 paired observations"):
            correlate([1.0, 2.0], [1.0, 3.0], kind)


def _table():
    segment = {}
    for seg, score in enumerate([0.1, 0.4, 0.9]):
        segment[("A", seg)] = score
        segment[("B", seg)] = score / 2
    system = {"A": 0.5, "B": 0.25, "C": 0.9}
    return MetricScoreTable(m=MetricScores("sig", segment=segment, system=system))


_SYSTEMS = "ABCDEFG"
# sparse segment ids; system D has only DA scores and system E only metric scores
_SEGMENTS = st.tuples(st.sampled_from("ABCDE"), st.sampled_from([0, 1, 3, 257, 70000]))
_ONLY = {"D": "human", "E": "metric"}
# small integers tie often; finite floats rarely
_VALUES = st.one_of(st.integers(-2, 2).map(float), finite)


@st.composite
def _study(draw):
    level = draw(st.sampled_from(["segment", "system"]))
    key = st.sampled_from(_SYSTEMS) if level == "system" else _SEGMENTS
    keys = draw(st.lists(key, unique=True, min_size=3, max_size=12))
    # each point has a DA score, a metric score or (half the time) both
    sides = draw(st.lists(st.sampled_from(["both", "both", "human", "metric"]),
                          min_size=len(keys), max_size=len(keys)))
    if level == "segment":
        sides = [_ONLY.get(k[0], side) for k, side in zip(keys, sides)]
    human = {k: draw(_VALUES) for k, side in zip(keys, sides) if side != "metric"}
    scores = {k: draw(_VALUES) for k, side in zip(keys, sides) if side != "human"}
    kind = draw(st.sampled_from(sorted(COEFFICIENTS)))
    # judgments in any order, not only the key order run_study gives
    return level, kind, human, draw(st.permutations(sorted(human))), scores


_FIVE = dict(zip("ABCDE", (0.0, 1.0, 2.0, 3.0, 5.0)))
_FOUR = {k: _FIVE[k] for k in "ABCD"}


class TestTableCorrelation:
    @given(_study(), st.one_of(st.none(), st.integers(1, 7)))
    # 4 shared systems warn few-systems and 5 do not, unless min_systems is 6
    @example(("system", "pearson", _FOUR, sorted(_FOUR), _FIVE), None)
    @example(("system", "pearson", _FIVE, sorted(_FIVE), _FIVE), 6)
    @example(("system", "spearman", _FIVE, sorted(_FIVE), {k: -v for k, v in _FIVE.items()}),
             None)
    @example(("system", "kendall-b", {"A": 1.0, "B": 2.0, "C": 2.0}, ["A", "B", "C"],
              {"A": 0.1, "B": 0.2, "C": 0.2, "Z": 1.0}), None)
    @settings(max_examples=300, deadline=None)
    def test_matches_oracle(self, case, min_systems):
        level, kind, human, order, scores = case
        # None leaves system_correlation's default, 5
        limit = {} if min_systems is None else {"min_systems": min_systems}
        if level == "system":
            table = MetricScoreTable(m=MetricScores("sig", system=scores))
            fn = partial(system_correlation, **limit)
        else:
            table = MetricScoreTable(m=MetricScores("sig", segment=scores))
            fn = segment_correlation
        try:
            expected = table_correlation_naive(human, scores, kind, level, **limit)
        except StudyError as exc:
            expected = (type(exc), str(exc))
        da = judged_da([(k, human[k]) for k in order], level)
        try:
            result, findings = fn(aligned(table, da), "m", kind)
            assert (result.kind, result.level, result.scope) == (kind, level, "m")
            got = (result.value, result.n, findings)
        except StudyError as exc:
            got = (type(exc), str(exc))
        assert got == expected

    @given(_study(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_aligned_matches_dict_oracle(self, case, data):
        level, _, human, order, scores = case
        # judgments in any order, some keys judged again: a key's DA is its mean
        again = data.draw(st.lists(st.tuples(st.sampled_from(order), _VALUES), max_size=4)
                          if order else st.just([]))
        judged = data.draw(st.permutations([*((k, human[k]) for k in order), *again]))
        # a second metric lacks at least one DA key and scores one key off DA
        kept = data.draw(st.lists(st.sampled_from(order), unique=True,
                                  max_size=len(order) - 1) if order else st.just([]))
        off = ("E", 9) if level == "segment" else "Z"
        other = {k: data.draw(_VALUES) for k in [*kept, off]}
        table = MetricScoreTable(m=MetricScores("sig", **{level: scores}),
                                 n=MetricScores("sig", **{level: other}))
        da = judged_da(judged, level)
        study = aligned(table, da)
        assert study.metric_ids == ("m", "n") and study.da is da
        for k, metric in enumerate((scores, other)):
            row = study.scores[k]
            shared = ~np.isnan(row)
            got = (da.keys(shared), row[shared].tolist(), da.score[shared].tolist(),
                   len(study.da), study.scored[k])
            assert got == aligned_naive(metric, judged)

    @pytest.mark.parametrize("n, need", [(3, "at least 4 points"), (4, "|r| > ")])
    def test_few_systems_states_the_bar(self, n, need):
        human = {s: float(i * i) for i, s in enumerate("ABCD"[:n])}
        table = MetricScoreTable(m=MetricScores("sig", system=dict(human)))
        _, findings = system_correlation(
            aligned(table, judged_da(human.items(), "system")), "m"
        )
        (message,) = [f.message for f in findings if f.code == "few-systems"]
        assert message.startswith(f"only {n} systems; the r = 0 test at p<0.05 needs ")
        assert need in message and "cannot reach" not in message
        if n == 4:
            bar = float(message.rsplit("|r| > ", 1)[1])
            assert bar == pytest.approx(min_significant_r(4), abs=5e-4)

    def test_segment_intersection_and_order(self):
        da = judged_da([
            (("A", 0), -1.0),
            (("A", 1), 0.0),
            (("A", 2), 1.0),
            (("B", 0), -0.5),
            (("B", 5), 0.5),  # not scored by the metric
        ])
        result, findings = segment_correlation(aligned(_table(), da), "m", "kendall")
        assert result.n == 4
        assert result.level == "segment"
        codes = {f.code for f in findings}
        assert "partial-coverage" in codes
        assert "unmatched-scores" in codes  # B segments 1,2 scored, no DA

    def test_too_little_overlap(self):
        da = judged_da([(("Z", 0), 0.0), (("Z", 1), 0.2)])
        with pytest.raises(InsufficientDataError):
            segment_correlation(aligned(_table(), da), "m")

    def test_system_level_warns_below_five(self):
        da = judged_da([("A", 0.3), ("B", -0.1), ("C", 0.8)], "system")
        result, findings = system_correlation(aligned(_table(), da), "m", "pearson")
        assert result.n == 3
        assert any(f.code == "few-systems" for f in findings)

    def test_system_subset(self):
        da = judged_da([("A", 0.3), ("B", -0.1), ("C", 0.8)], "system")
        result, _ = system_correlation(aligned(_table(), da), "m", "spearman")
        assert result.kind == "spearman"

    def test_csv_shape(self):
        da = judged_da([("A", 0.3), ("B", -0.1), ("C", 0.8)], "system")
        result, _ = system_correlation(aligned(_table(), da), "m")
        text = render_table(correlations_rows([("m", result)]))
        lines = text.split("\r\n")
        assert lines[0] == "metric,kind,level,scope,n,value"
        assert lines[1].startswith("m,pearson,system,m,3,")
