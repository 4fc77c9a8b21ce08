import dataclasses
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metricval import (
    DataError,
    EvaluationCorpus,
    InsufficientDataError,
    MetricScoreTable,
    MetricScores,
    Segment,
    SystemMeta,
    SystemOutput,
    TestSet,
    conditional_distribution,
    failure_cases,
    grouped_correlation,
    kendall_agreement_report,
    pearson,
    tertile_bins,
)
from metricval.analysis import BIN_LABELS, failures_to_json, failures_to_text
from metricval.report import bins_rows, groups_rows, render_table

from oracles import judged_da, quartiles_naive


def _judged(values, system="sys"):
    """One judgment of segment i of system at values[i]."""
    return [((system, i), float(v)) for i, v in enumerate(values)]


def _da(values, system="sys"):
    return judged_da(_judged(values, system))


def _keys_in(bins, label):
    """The (system_id, segment_id) keys binned in label, in key order."""
    return [(s, i) for s, i, _, binned in bins.rows() if binned == label]


def _labels(bins):
    """(system_id, segment_id) -> label of every binned point."""
    return {(s, i): label for s, i, _, label in bins.rows()}


def _seg_table(metric, scores, system="sys"):
    segment = {(system, i): s for i, s in enumerate(scores)}
    return MetricScoreTable({metric: MetricScores("external", segment=segment)})


class TestTertileBins:
    def test_sizes_ten_points(self):
        bins = tertile_bins(_da(range(1, 11)))
        sizes = [len(_keys_in(bins, label)) for label in BIN_LABELS]
        assert sizes == [4, 3, 3]

    def test_boundaries_are_bin_maxima(self):
        bins = tertile_bins(_da(range(1, 11)))
        assert bins.boundaries == (4.0, 7.0)
        labels = _labels(bins)
        assert labels[("sys", 3)] == "bad"
        assert labels[("sys", 4)] == "average"
        assert labels[("sys", 7)] == "good"

    def test_size_sweep(self):
        for n in range(3, 120):
            bins = tertile_bins(_da(range(n)))
            sizes = [len(_keys_in(bins, label)) for label in BIN_LABELS]
            assert sum(sizes) == n
            assert max(sizes) - min(sizes) <= 1
            # ties in size resolve toward the bad bin, then good
            assert sizes[0] >= sizes[1]

    def test_permutation_invariant(self):
        judged = _judged([5, 1, 9, 3, 7, 2, 8, 4, 6, 0])
        shuffled = judged[:]
        random.Random(13).shuffle(shuffled)
        assert tertile_bins(judged_da(judged)) == tertile_bins(judged_da(shuffled))

    @given(st.lists(st.integers(-50, 50), min_size=3, max_size=40))
    @settings(max_examples=80, deadline=None)
    def test_partition_property(self, scores):
        bins = tertile_bins(_da(scores))
        n = len(scores)
        sizes = [len(_keys_in(bins, label)) for label in BIN_LABELS]
        assert sum(sizes) == n
        assert max(sizes) - min(sizes) <= 1
        assert set(_labels(bins)) == {("sys", i) for i in range(n)}

    def test_tied_scores_split_deterministically(self):
        bins = tertile_bins(_da([1, 1, 1, 1, 1, 1]))
        assert [len(_keys_in(bins, label)) for label in BIN_LABELS] == [2, 2, 2]
        # all-equal scores order by identifier, so the lowest ids go bad
        assert _keys_in(bins, "bad") == [("sys", 0), ("sys", 1)]
        assert bins.boundaries == (1.0, 1.0)

    def test_too_few_points(self):
        with pytest.raises(InsufficientDataError):
            tertile_bins(_da([1, 2]))

    def test_equality_compares_every_label(self):
        bins = tertile_bins(_da(range(9)))
        swapped = bins.bin.copy()
        swapped[[0, -1]] = swapped[[-1, 0]]
        assert bins == dataclasses.replace(bins, bin=bins.bin.copy())
        assert bins != dataclasses.replace(bins, bin=swapped)

    def test_duplicate_key(self):
        # a key judged twice is one point, at the mean of its judgments
        bins = tertile_bins(judged_da(_judged([1, 2, 3]) + [(("sys", 0), 4.0)]))
        assert [row[:3] for row in bins.rows()] == [
            ("sys", 0, 2.5), ("sys", 1, 2.0), ("sys", 2, 3.0)
        ]


class TestConditionalDistribution:
    def test_summaries(self):
        bins = tertile_bins(_da(range(1, 10)))
        scores = [0.1 * (i + 1) for i in range(9)]
        table = _seg_table("m", scores)
        dist = conditional_distribution(table, "m", bins)
        assert set(dist) == set(BIN_LABELS)
        bad = dist["bad"]
        assert bad.count == 3
        assert bad.values == (0.1, 0.2, 0.30000000000000004)
        assert bad.min == 0.1
        assert bad.max == 0.30000000000000004
        assert bad.mean == pytest.approx(0.2)
        assert bad.median == pytest.approx(0.2)

    def test_quartiles_match_oracle(self):
        rng = random.Random(5)
        for n in (9, 12, 30, 31):
            values = [rng.uniform(0, 1) for _ in range(n)]
            bins = tertile_bins(_da(range(n)))
            dist = conditional_distribution(_seg_table("m", values), "m", bins)
            for label in BIN_LABELS:
                got = dist[label]
                vals = got.values
                assert got.q1 == pytest.approx(quartiles_naive(vals, 0.25), abs=1e-12)
                assert got.median == pytest.approx(quartiles_naive(vals, 0.5), abs=1e-12)
                assert got.q3 == pytest.approx(quartiles_naive(vals, 0.75), abs=1e-12)

    def test_coverage_gap(self):
        bins = tertile_bins(_da(range(1, 10)))
        table = _seg_table("m", [0.1] * 8)  # segment 8 unscored
        with pytest.raises(DataError, match="sys:8"):
            conditional_distribution(table, "m", bins)


def _corpus(n, system="sys"):
    segments = tuple(Segment(f"src {i}", (f"ref {i}",)) for i in range(n))
    ts = TestSet(segments)
    return EvaluationCorpus(
        ts, {system: SystemOutput(system, tuple(f"hyp {i}" for i in range(n)))}
    )


class TestFailureCases:
    def _fixture(self):
        # DA puts segments 0-2 bad, 3-5 average, 6-8 good.  The metric
        # mostly tracks DA but loves segment 0 and hates segment 8.
        bins = tertile_bins(_da(range(1, 10)))
        scores = [0.1 * (i + 1) for i in range(9)]
        scores[0] = 0.9
        scores[8] = 0.05
        return _corpus(9), _seg_table("m", scores), bins

    def test_directions_and_ranks(self):
        corpus, table, bins = self._fixture()
        cases, findings = failure_cases(corpus, table, "m", bins, k=2)
        assert findings == []
        assert [(c.direction, c.rank, c.segment_id) for c in cases] == [
            ("good-underscored", 1, 8),
            ("good-underscored", 2, 6),
            ("bad-overscored", 1, 0),
            ("bad-overscored", 2, 2),
        ]

    def test_case_carries_texts(self):
        corpus, table, bins = self._fixture()
        cases, _ = failure_cases(corpus, table, "m", bins, k=1)
        top = cases[0]
        assert top.source == "src 8"
        assert top.references == ("ref 8",)
        assert top.hypothesis == "hyp 8"
        assert top.da_score == 9.0
        assert top.metric_score == 0.05

    def test_k_exceeds_bin(self):
        corpus, table, bins = self._fixture()
        cases, findings = failure_cases(corpus, table, "m", bins, k=10)
        assert len(cases) == 6  # both bins exhausted
        assert {f.code for f in findings} == {"k-exceeds-bin"}
        assert len(findings) == 2

    def test_k_must_be_positive(self):
        corpus, table, bins = self._fixture()
        with pytest.raises(ValueError):
            failure_cases(corpus, table, "m", bins, k=0)

    def test_tie_break_by_key(self):
        bins = tertile_bins(_da(range(1, 10)))
        table = _seg_table("m", [0.5] * 9)
        cases, _ = failure_cases(_corpus(9), table, "m", bins, k=2)
        good = [c.segment_id for c in cases if c.direction == "good-underscored"]
        assert good == [6, 7]


def _sys_table(metric, scores):
    return MetricScoreTable({metric: MetricScores("external", system=dict(scores))})


class TestGroupedCorrelation:
    def _fixture(self):
        da = judged_da([(s, float(d)) for s, d in
                        [("a", 1), ("b", 2), ("c", 3), ("d", 4), ("e", 5), ("f", 6)]], "system")
        scores = {"a": 0.1, "b": 0.3, "c": 0.2, "d": 0.6, "e": 0.5, "f": 0.7}
        meta = {
            "a": SystemMeta("a", "neural", "main"),
            "b": SystemMeta("b", "neural", "main"),
            "c": SystemMeta("c", "neural", "main"),
            "d": SystemMeta("d", "neural", "main"),
            "e": SystemMeta("e", "smt", "main"),
            "f": SystemMeta("f", "smt", "main"),
        }
        return da, _sys_table("m", scores), meta

    def test_groups_and_flags(self):
        da, table, meta = self._fixture()
        groups, findings = grouped_correlation(da, table, "m", meta)
        assert findings == []
        assert [g.group for g in groups] == ["neural", "smt"]
        neural, smt = groups
        assert neural.n_systems == 4
        assert neural.flag == ""
        assert neural.result.value == pytest.approx(
            pearson([0.1, 0.3, 0.2, 0.6], [1, 2, 3, 4])
        )
        assert smt.flag == "insufficient"
        assert smt.result is None

    def test_trivial_partition_matches_overall(self):
        da, table, meta = self._fixture()
        groups, _ = grouped_correlation(da, table, "m", meta, group_by="track")
        [g] = groups
        assert g.group == "main"
        assert g.n_systems == 6
        assert g.result.value == pytest.approx(
            pearson([0.1, 0.3, 0.2, 0.6, 0.5, 0.7], [1, 2, 3, 4, 5, 6])
        )

    def test_unknown_field(self):
        da, table, meta = self._fixture()
        with pytest.raises(DataError, match="language"):
            grouped_correlation(da, table, "m", meta, group_by="language")

    def test_no_metadata(self):
        da, table, _ = self._fixture()
        with pytest.raises(DataError, match="no metadata"):
            grouped_correlation(da, table, "m", {})

    def test_partial_metadata_warns(self):
        da, table, meta = self._fixture()
        del meta["f"]
        groups, findings = grouped_correlation(da, table, "m", meta)
        assert any(f.code == "missing-metadata" for f in findings)
        assert sum(g.n_systems for g in groups) == 5

    def test_constant_group_flagged(self):
        da, table, meta = self._fixture()
        flat = MetricScoreTable(
            m=MetricScores("external", system={s: 0.5 for s in "abcdef"})
        )
        groups, findings = grouped_correlation(da, flat, "m", meta)
        neural = groups[0]
        assert neural.flag == "undefined"
        assert neural.result is None
        assert any(f.code == "undefined-in-group" for f in findings)


class TestAgreementReport:
    def test_perfect_agreement(self):
        da = judged_da([(s, float(i)) for i, s in enumerate("abcd")], "system")
        table = _sys_table("m", {s: 0.1 * i for i, s in enumerate("abcd")})
        report = kendall_agreement_report(da, table, "m")
        assert report.tau == 1.0
        assert report.concordant == 6
        assert report.discordant == 0
        assert "100 percentage points" in report.interpretation
        assert "100*tau" in report.note

    def test_fractional_margin(self):
        da = judged_da([(s, float(i)) for i, s in enumerate("abcd")], "system")
        # swapping the top two systems leaves 5 concordant, 1 discordant
        table = _sys_table("m", {"a": 0.0, "b": 0.1, "c": 0.3, "d": 0.2})
        report = kendall_agreement_report(da, table, "m")
        assert report.tau == pytest.approx(4 / 6)
        assert report.concordant == 5
        assert report.discordant == 1
        assert "66.7 percentage points" in report.interpretation

    def test_too_few_systems(self):
        da = judged_da([("a", 1.0), ("b", 2.0)], "system")
        table = _sys_table("m", {"a": 0.1, "b": 0.2})
        with pytest.raises(InsufficientDataError):
            kendall_agreement_report(da, table, "m")

    def test_intersection_only(self):
        da = judged_da([(s, float(i)) for i, s in enumerate("abcde")], "system")
        table = _sys_table("m", {s: 0.1 * i for i, s in enumerate("abcd")})
        report = kendall_agreement_report(da, table, "m")
        assert report.n_systems == 4


class TestRenderers:
    def test_bins_csv(self):
        bins = tertile_bins(_da(range(1, 10)))
        table = _seg_table("m", [0.5] * 8)  # segment 8 unscored
        text = render_table(bins_rows(bins, table, "m"))
        lines = text.split("\r\n")
        assert lines[0] == "system_id,segment_id,da,metric_score,bin"
        assert lines[1] == "sys,0,1.0,0.5,bad"
        assert lines[9] == "sys,8,9.0,,good"
        assert text.endswith("\r\n")

    def test_failures_json(self):
        corpus = _corpus(3)
        bins = tertile_bins(_da([1, 2, 3]))
        table = _seg_table("m", [0.9, 0.5, 0.1])
        cases, _ = failure_cases(corpus, table, "m", bins, k=1)
        doc = json.loads(failures_to_json(cases))
        assert doc[0]["direction"] == "good-underscored"
        assert doc[0]["references"] == ["ref 2"]
        assert failures_to_json([]) == "[]\n"

    def test_failures_json_keeps_unicode(self):
        ts = TestSet(tuple(Segment(f"café {i}", (f"r{i}",)) for i in range(3)))
        corpus = EvaluationCorpus(
            ts, {"sys": SystemOutput("sys", ("h0", "h1", "h2"))}
        )
        bins = tertile_bins(_da([1, 2, 3]))
        table = _seg_table("m", [0.9, 0.5, 0.1])
        cases, _ = failure_cases(corpus, table, "m", bins, k=1)
        assert "café" in failures_to_json(cases)

    def test_failures_text(self):
        corpus = _corpus(3)
        bins = tertile_bins(_da([1, 2, 3]))
        table = _seg_table("m", [0.9, 0.5, 0.1])
        cases, _ = failure_cases(corpus, table, "m", bins, k=1)
        text = failures_to_text(cases)
        assert text.startswith("[good-underscored #1] system=sys segment=2")
        assert "  source:     src 2" in text
        assert "  reference:  ref 2" in text
        assert "  hypothesis: hyp 2" in text
        assert failures_to_text([]) == ""

    def test_groups_csv(self):
        da = judged_da([(s, float(i)) for i, s in enumerate("abcdef")], "system")
        table = _sys_table("m", {s: float(i) for i, s in enumerate("abcdef")})
        meta = {s: SystemMeta(s, "neural" if s < "e" else "smt", "main")
                for s in "abcdef"}
        groups, _ = grouped_correlation(da, table, "m", meta)
        text = render_table(groups_rows(groups))
        lines = text.split("\r\n")
        assert lines[0] == "group,kind,n_systems,value,flag"
        assert lines[1] == "neural,pearson,4,1.0,"
        assert lines[2] == "smt,,2,,insufficient"
