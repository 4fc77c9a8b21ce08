import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    dump_scores_naive,
    load_scores_naive,
    merge_scores_naive,
    score_rows_naive,
)

from metricval import (
    BleuConfig,
    ChrfConfig,
    ConfigError,
    DataError,
    EvaluationCorpus,
    Segment,
    StudyError,
    SystemOutput,
    TestSet,
    TokenizationScheme,
    chrf,
    config_signature,
    load_external_metric_scores,
    merge_tables,
    parse_signature,
    score_systems,
    sentence_bleu,
    tokenize,
)
from metricval.metrics import (
    DEFAULT_CHRF,
    DEFAULT_SENTENCE_BLEU,
    MetricScoreTable,
    MetricScores,
    dump_scores,
    parse_smoothing,
)


def _corpus():
    test_set = TestSet(
        (
            Segment("src one", ("the cat sat",)),
            Segment("src two", ("a dog ran",)),
            Segment("src three", ("hello world",)),
        ),
        "xx-en",
    )
    outputs = {
        "good": SystemOutput("good", ("the cat sat", "a dog ran", "hello world")),
        "poor": SystemOutput("poor", ("cat the sat", "dog a down", "bye world")),
    }
    return EvaluationCorpus(test_set, outputs)


class TestSignature:
    def test_default_bleu(self):
        sig = config_signature(DEFAULT_SENTENCE_BLEU, TokenizationScheme())
        assert sig == "bleu|maxn=4|smooth=add-1|bp=yes|trunc=yes|tok=whitespace|lc=no"

    def test_default_chrf(self):
        sig = config_signature(DEFAULT_CHRF, TokenizationScheme())
        assert sig == "chrf|maxn=6|beta=2|ws=no|tok=whitespace|lc=no"

    def test_smoothing_tokens(self):
        ts = TokenizationScheme()
        assert "smooth=none" in config_signature(
            BleuConfig(smoothing="none"), ts
        )
        assert "smooth=exp-decay" in config_signature(
            BleuConfig(smoothing="exp-decay"), ts
        )
        assert "smooth=add-2" in config_signature(
            BleuConfig(smoothing="add-k", smooth_k=2.0), ts
        )
        assert "smooth=add-1@1" in config_signature(
            BleuConfig(smoothing="add-k", smooth_min_order=1), ts
        )

    def test_round_trip_defaults(self):
        ts = TokenizationScheme()
        for config in (DEFAULT_SENTENCE_BLEU, DEFAULT_CHRF):
            sig = config_signature(config, ts)
            parsed_config, parsed_scheme = parse_signature(sig)
            assert parsed_config == config
            assert parsed_scheme == ts

    @given(
        st.integers(1, 9),
        st.sampled_from(["none", "add-k", "exp-decay"]),
        st.sampled_from([0.5, 1.0, 2.0]),
        st.integers(1, 4),
        st.booleans(),
        st.booleans(),
        st.sampled_from(["whitespace", "intl", "char"]),
        st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_round_trip_bleu(self, max_n, smoothing, k, min_order, bp, trunc,
                             tok, lc):
        config = BleuConfig(max_n, smoothing, k, min_order, bp, trunc)
        scheme = TokenizationScheme(tok, lc)
        parsed_config, parsed_scheme = parse_signature(
            config_signature(config, scheme)
        )
        assert parsed_scheme == scheme
        assert parsed_config.max_n == config.max_n
        assert parsed_config.smoothing == config.smoothing
        assert parsed_config.use_brevity_penalty == config.use_brevity_penalty
        assert parsed_config.effective_n_truncation == config.effective_n_truncation
        if smoothing == "add-k":
            assert parsed_config.smooth_k == config.smooth_k
            assert parsed_config.smooth_min_order == config.smooth_min_order

    @given(st.integers(1, 9), st.sampled_from([0.5, 2.0, 3.0]), st.booleans(),
           st.sampled_from(["whitespace", "intl", "char"]), st.booleans())
    @settings(max_examples=50, deadline=None)
    def test_round_trip_chrf(self, char_n, beta, ws, tok, lc):
        config = ChrfConfig(char_n, beta, ws)
        scheme = TokenizationScheme(tok, lc)
        parsed_config, parsed_scheme = parse_signature(
            config_signature(config, scheme)
        )
        assert parsed_config == config
        assert parsed_scheme == scheme

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError):
            parse_signature("bleu|maxn=4|smooth=add-1|bp=yes|trunc=yes|tok=whitespace|lc=no|extra=1")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            parse_signature("rouge|maxn=4")

    def test_parse_smoothing(self):
        assert parse_smoothing("none") == ("none", 1.0, 2)
        assert parse_smoothing("exp-decay") == ("exp-decay", 1.0, 2)
        assert parse_smoothing("add-1") == ("add-k", 1.0, 2)
        assert parse_smoothing("add-2.5") == ("add-k", 2.5, 2)
        assert parse_smoothing("add-1@1") == ("add-k", 1.0, 1)
        with pytest.raises(ConfigError):
            parse_smoothing("laplace")
        with pytest.raises(ConfigError):
            parse_smoothing("add-x")


class TestScoreSystems:
    def test_full_coverage_and_provenance(self):
        corpus = _corpus()
        metrics = {"bleu": DEFAULT_SENTENCE_BLEU, "chrf": DEFAULT_CHRF}
        table = score_systems(corpus, metrics, TokenizationScheme())
        assert table.metric_ids() == ["bleu", "chrf"]
        for metric_id in metrics:
            for system_id in ("good", "poor"):
                assert system_id in table[metric_id].system
                for seg in range(3):
                    assert (system_id, seg) in table[metric_id].segment
        assert table["bleu"].provenance.startswith("bleu|")
        assert table["chrf"].provenance.startswith("chrf|")

    def test_segment_scores_match_direct_calls(self):
        corpus = _corpus()
        scheme = TokenizationScheme()
        table = score_systems(corpus, {"bleu": DEFAULT_SENTENCE_BLEU}, scheme)
        hyp = tokenize("cat the sat", scheme)
        ref = tokenize("the cat sat", scheme)
        assert table["bleu"].segment[("poor", 0)] == sentence_bleu(
            hyp, (ref,), DEFAULT_SENTENCE_BLEU
        )
        table = score_systems(corpus, {"chrf": DEFAULT_CHRF}, scheme)
        assert table["chrf"].segment[("poor", 0)] == chrf(
            "cat the sat", ("the cat sat",), DEFAULT_CHRF
        )

    def test_perfect_system_scores_one(self):
        table = score_systems(
            _corpus(), {"bleu": BleuConfig(smoothing="none")}, TokenizationScheme()
        )
        assert table["bleu"].system["good"] == 1.0

    def test_mean_vs_corpus_aggregate(self):
        corpus = _corpus()
        config = BleuConfig(max_n=1, smoothing="none")
        mean_table = score_systems(corpus, {"bleu": config}, aggregate="mean")
        corpus_table = score_systems(corpus, {"bleu": config}, aggregate="corpus")
        # identical segment scores, different system aggregation
        assert mean_table["bleu"].segment == corpus_table["bleu"].segment
        # per-segment unigram precisions 3/3, 2/3, 1/2; pooled 6/8
        assert mean_table["bleu"].system["poor"] == pytest.approx(13 / 18)
        assert corpus_table["bleu"].system["poor"] == pytest.approx(6 / 8)

    def test_lowercase_scheme_affects_chrf(self):
        test_set = TestSet((Segment("s", ("The Cat",)),))
        outputs = {"sys": SystemOutput("sys", ("the cat",))}
        corpus = EvaluationCorpus(test_set, outputs)
        plain = score_systems(corpus, {"chrf": DEFAULT_CHRF}, TokenizationScheme())
        folded = score_systems(
            corpus, {"chrf": DEFAULT_CHRF}, TokenizationScheme(lowercase=True)
        )
        assert folded["chrf"].segment[("sys", 0)] == 1.0
        assert plain["chrf"].segment[("sys", 0)] < 1.0

    def test_bad_aggregate(self):
        with pytest.raises(ConfigError):
            score_systems(_corpus(), {"bleu": DEFAULT_SENTENCE_BLEU},
                          aggregate="median")


class TestTable:
    def test_maps_and_unknown_metric(self):
        table = score_systems(_corpus(), {"bleu": DEFAULT_SENTENCE_BLEU})
        by_system = table["bleu"].system
        assert set(by_system) == {"good", "poor"}
        by_segment = table["bleu"].segment
        assert ("good", 0) in by_segment
        with pytest.raises(DataError, match=r"unknown metric 'rouge'; table has \['bleu'\]"):
            table["rouge"]

    def test_merge_rejects_duplicates(self):
        table = score_systems(_corpus(), {"bleu": DEFAULT_SENTENCE_BLEU})
        with pytest.raises(DataError):
            merge_tables(table, table)

    def test_merge_disjoint(self):
        corpus = _corpus()
        a = score_systems(corpus, {"bleu": DEFAULT_SENTENCE_BLEU})
        b = score_systems(corpus, {"chrf": DEFAULT_CHRF})
        merged = merge_tables(a, b)
        assert merged.metric_ids() == ["bleu", "chrf"]
        assert merged == {**a, **b}

    def test_merge_joins_one_metric_split_across_tables(self):
        a = MetricScoreTable(m=MetricScores("sig", {("good", 0): 0.5}, {"good": 0.5}))
        b = MetricScoreTable(m=MetricScores("sig", {("good", 1): 0.25}, {"poor": 0.1}))
        merged = merge_tables(a, b)
        assert merged == {
            "m": MetricScores(
                "sig", {("good", 0): 0.5, ("good", 1): 0.25}, {"good": 0.5, "poor": 0.1}
            )
        }
        # the inputs are left as they were
        assert a["m"].segment == {("good", 0): 0.5}

    def test_merge_rejects_conflicting_provenance(self):
        a = MetricScoreTable(m=MetricScores("one.tsv", system={"good": 0.5}))
        b = MetricScoreTable(m=MetricScores("two.tsv", system={"poor": 0.1}))
        with pytest.raises(DataError, match="'one.tsv' and 'two.tsv'"):
            merge_tables(a, b)


class TestExternalScores:
    def test_four_and_three_column_rows(self, tmp_path):
        corpus = _corpus()
        path = tmp_path / "scores.tsv"
        path.write_text(
            "# comment line\n"
            "human_eval\tgood\t0\t0.9\n"
            "human_eval\tgood\t1\t0.8\n"
            "human_eval\tgood\t2\t0.7\n"
            "\n"
            "human_eval\tpoor\t0.2\n",
            encoding="utf-8",
        )
        table = load_external_metric_scores(path, corpus)
        scores = table["human_eval"]
        assert scores.segment[("good", 1)] == 0.8
        # explicit system row for poor, derived mean for good
        assert scores.system["poor"] == 0.2
        assert scores.system["good"] == pytest.approx(0.8)
        assert scores.provenance == str(path)

    def test_unknown_system_rejected(self, tmp_path):
        path = tmp_path / "scores.tsv"
        path.write_text("m\tmystery\t0\t0.5\n", encoding="utf-8")
        with pytest.raises(DataError):
            load_external_metric_scores(path, _corpus())

    def test_unknown_segment_rejected(self, tmp_path):
        path = tmp_path / "scores.tsv"
        path.write_text("m\tgood\t99\t0.5\n", encoding="utf-8")
        with pytest.raises(DataError):
            load_external_metric_scores(path, _corpus())

    def test_duplicate_rejected(self, tmp_path):
        path = tmp_path / "scores.tsv"
        path.write_text("m\tgood\t0\t0.5\nm\tgood\t0\t0.6\n", encoding="utf-8")
        with pytest.raises(DataError):
            load_external_metric_scores(path, _corpus())

    def test_dump_round_trips_through_loader(self, tmp_path):
        corpus = _corpus()
        table = score_systems(corpus, {"bleu": DEFAULT_SENTENCE_BLEU})
        dumped = dump_scores(table)
        path = tmp_path / "dumped.tsv"
        path.write_text(dumped, encoding="utf-8")
        loaded = load_external_metric_scores(path, corpus)
        assert loaded["bleu"].segment == table["bleu"].segment
        assert loaded["bleu"].system == table["bleu"].system

    def test_dump_reload_keeps_table_and_provenance(self, tmp_path):
        corpus = _corpus()
        table = score_systems(
            corpus, {"bleu": DEFAULT_SENTENCE_BLEU, "chrf": DEFAULT_CHRF}
        )
        path = tmp_path / "dumped.tsv"
        path.write_text(dump_scores(table), encoding="utf-8")
        loaded = load_external_metric_scores(path, corpus)
        assert loaded == table
        assert loaded["chrf"].provenance.startswith("chrf|")

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_score_rejected(self, tmp_path, text):
        path = tmp_path / "scores.tsv"
        path.write_text(f"m\tgood\t0\t0.5\nm\tgood\t1\t{text}\n", encoding="utf-8")
        with pytest.raises(DataError, match=r"scores.tsv line 2: non-finite"):
            load_external_metric_scores(path, _corpus())

    def test_dump_contains_signature_comment(self):
        table = score_systems(_corpus(), {"bleu": DEFAULT_SENTENCE_BLEU})
        dumped = dump_scores(table)
        assert dumped.splitlines()[0].startswith("# signature: bleu\t")


class TestTableValidation:
    def test_constructs_empty(self):
        table = MetricScoreTable()
        assert table.metric_ids() == []


class TestErrorPrecedence:
    """Which error a bad score file or merge reports when it has several."""

    def _load(self, tmp_path, lines, name="scores.tsv"):
        path = tmp_path / name
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        return load_external_metric_scores(path, _corpus())

    def test_earlier_duplicate_beats_later_unparseable_score(self, tmp_path):
        lines = [
            "m\tgood\t0\t0.1",
            "m\tgood\t1\t0.2",
            "# a comment",
            "m\tpoor\t0\t0.3",
            "m\tgood\t0\t0.4",
            "m\tpoor\t1\t0.5",
            "",
            "m\tpoor\t0.6",
            "m\tgood\t2\t0.7",
            "m\tpoor\t2\tnot-a-number",
        ]
        with pytest.raises(DataError) as err:
            self._load(tmp_path, lines)
        assert str(err.value) == (
            f"{tmp_path / 'scores.tsv'} line 5: duplicate entry for ('m', 'good', 0)"
        )

    def test_earlier_unparseable_score_beats_later_duplicate(self, tmp_path):
        lines = ["m\tgood\t0\t0.1", "m\tgood\t1\tx", "m\tgood\t0\t0.4"]
        with pytest.raises(DataError, match=r"line 2: unparseable score 'x'$"):
            self._load(tmp_path, lines)

    def test_first_duplicate_line_wins_across_metrics_and_levels(self, tmp_path):
        lines = [
            "b\tgood\t0\t0.1",
            "a\tpoor\t0.5",
            "a\tgood\t1\t0.2",
            "b\tpoor\t0.5",
            "a\tpoor\t0.7",
            "b\tgood\t0\t0.3",
            "a\tgood\t1\t0.2",
        ]
        with pytest.raises(DataError, match=r"line 5: duplicate entry for \('a', 'poor'\)$"):
            self._load(tmp_path, lines)

    def test_row_errors_come_before_the_duplicate_check(self, tmp_path):
        lines = ["m\tgood\t0\t0.1", "m\tgood\t0\tinf"]
        with pytest.raises(DataError, match=r"line 2: non-finite score 'inf'$"):
            self._load(tmp_path, lines)

    def test_merge_names_first_duplicate_of_the_later_table(self, tmp_path):
        corpus = _corpus()
        table = score_systems(corpus, {"bleu": DEFAULT_SENTENCE_BLEU})
        kept = [
            line for line in dump_scores(table).splitlines()
            if line.startswith("#")
            or line.split("\t")[1:3] in (["good", "2"], ["poor", "0"], ["poor", "1"])
            or line.count("\t") == 2 and line.split("\t")[1] == "poor"
        ]
        part = self._load(tmp_path, kept, "part.tsv")
        with pytest.raises(DataError) as err:
            merge_tables(table, part)
        assert str(err.value) == "duplicate segment score for ('bleu', 'good', 2)"
        # system scores are checked after segment scores
        only_system = [line for line in kept if line.count("\t") != 3]
        part = self._load(tmp_path, only_system, "system.tsv")
        with pytest.raises(DataError) as err:
            merge_tables(table, part)
        assert str(err.value) == "duplicate system score for ('bleu', 'poor')"

    def test_merge_names_first_duplicate_in_file_order(self, tmp_path):
        # a signed file out of key order, as two concatenated dumps are
        corpus = _corpus()
        table = score_systems(corpus, {"bleu": DEFAULT_SENTENCE_BLEU})
        signature = f"# signature: bleu\t{table['bleu'].provenance}"
        lines = [signature, "bleu\tpoor\t1\t0.5", "bleu\tgood\t2\t0.5", "bleu\tpoor\t0\t0.5"]
        part = self._load(tmp_path, lines, "part.tsv")
        with pytest.raises(DataError) as err:
            merge_tables(table, part)
        assert str(err.value) == "duplicate segment score for ('bleu', 'poor', 1)"
        lines = [signature, "bleu\tpoor\t0.5", "bleu\tgood\t0.5"]
        part = self._load(tmp_path, lines, "system.tsv")
        with pytest.raises(DataError) as err:
            merge_tables(table, part)
        assert str(err.value) == "duplicate system score for ('bleu', 'poor')"
        # a merged table keeps its inputs' order: the first input's rows first
        first = self._load(tmp_path, [signature, "bleu\tpoor\t1\t0.5"], "first.tsv")
        second = self._load(tmp_path, [signature, "bleu\tgood\t0\t0.5"], "second.tsv")
        with pytest.raises(DataError) as err:
            merge_tables(table, merge_tables(first, second))
        assert str(err.value) == "duplicate segment score for ('bleu', 'poor', 1)"

    def test_merge_checks_metrics_in_the_later_table_s_order(self, tmp_path):
        corpus = _corpus()
        table = score_systems(corpus, {"bleu": DEFAULT_SENTENCE_BLEU, "chrf": DEFAULT_CHRF})
        lines = dump_scores(table).splitlines()
        # chrf's rows first: the later table meets chrf before bleu
        signatures = [line for line in lines if line.startswith("#")]
        rows = [line for line in lines if not line.startswith("#")]
        reordered = signatures + sorted(rows, key=lambda line: line.split("\t")[0] != "chrf")
        part = self._load(tmp_path, reordered, "part.tsv")
        with pytest.raises(DataError) as err:
            merge_tables(table, part)
        assert str(err.value) == "duplicate segment score for ('chrf', 'good', 0)"
        with pytest.raises(DataError) as err:
            merge_tables(part, table)
        assert str(err.value) == "duplicate segment score for ('bleu', 'good', 0)"


_METRIC = st.sampled_from(["m", "n", "bleu"])
# mostly valid values, sometimes one that a check refuses
_SYSTEM = st.sampled_from(["good", "poor"] * 4 + ["nobody"])
_SEGMENT = st.sampled_from(["0", "1", "2"] * 4 + ["3", "x"])
_SCORE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["0.5", "1", "-0.0", "0.25", "1e300", "3", "nan", "inf", "y"]),
)
_SCORE_OK = st.floats(-2.0, 2.0).map(repr)
_LINE = st.one_of(
    st.tuples(_METRIC, _SYSTEM, _SEGMENT, _SCORE).map("\t".join),
    st.tuples(_METRIC, _SYSTEM, _SCORE).map("\t".join),
    st.tuples(_METRIC, st.sampled_from(["sig-a", "sig-b"])).map(
        lambda ms: f"# signature: {ms[0]}\t{ms[1]}"
    ),
    st.sampled_from(["", "# a comment", "  # indented"] * 3 + ["m\tgood", "m\t0\t1\t2\t3"]),
)
# a system scored on every segment, so its system score may be filled in
_BLOCK = st.tuples(_METRIC, st.sampled_from(["good", "poor"]), st.lists(
    _SCORE_OK, min_size=3, max_size=3
)).map(lambda b: [f"{b[0]}\t{b[1]}\t{i}\t{v}" for i, v in enumerate(b[2])])
# files that sign every metric alike can split a metric between them
_SIGNED = [f"# signature: {m}\tsig-a" for m in ("m", "n", "bleu")]
_FILE = st.tuples(
    st.booleans(), st.lists(st.one_of(_LINE.map(lambda line: [line]), _BLOCK), max_size=6)
).map(lambda f: (_SIGNED if f[0] else []) + [line for part in f[1] for line in part])


def _outcome(fn, *args):
    try:
        return fn(*args)
    except StudyError as exc:
        return type(exc), str(exc)


def _or_none(grid) -> list:
    """A gathered grid as nested lists, None where it holds NaN."""
    if grid.ndim > 1:
        return [_or_none(row) for row in grid]
    return [None if math.isnan(v) else v for v in grid.tolist()]


def _naive(table: MetricScoreTable) -> dict:
    return {
        m: (r.provenance, dict(r.segment.items()), dict(r.system.items()))
        for m, r in table.items()
    }


class TestMatchesDictOracle:
    @given(st.lists(_FILE, min_size=1, max_size=3))
    @settings(max_examples=300, deadline=None)
    def test_load_merge_rows_reads_and_dump(self, tmp_path_factory, files):
        corpus = _corpus()
        tmp = tmp_path_factory.mktemp("scores")
        paths = []
        for n, lines in enumerate(files):
            paths.append(tmp / f"ext{n}.tsv")
            paths[-1].write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")
        loaded, expected = [], []
        for path in paths:
            got, want = (
                _outcome(load_external_metric_scores, path, corpus),
                _outcome(load_scores_naive, path, corpus),
            )
            if isinstance(want, tuple):
                assert got == want
                return
            assert list(got) == list(want)  # metrics in order of first row
            assert _naive(got) == want
            loaded.append(got)
            expected.append(want)
        got = _outcome(merge_tables, *loaded)
        want = _outcome(merge_scores_naive, *expected)
        if isinstance(want, tuple):
            assert got == want
            return
        assert list(got) == list(want)
        assert _naive(got) == want
        # loading changes no input table
        assert [_naive(table) for table in loaded] == expected
        for level in ("segment", "system"):
            assert got.rows(level) == score_rows_naive(want, level)
        assert dump_scores(got) == dump_scores_naive(want)
        probe_systems, probe_segments = ("good", "nobody", "poor"), (-1, 0, 1, 2, 9)
        for metric_id, (_, segment, system) in want.items():
            by_segment = got[metric_id].segment
            by_system = got[metric_id].system
            assert list(by_segment) == sorted(segment)
            assert list(by_system) == sorted(system)
            assert _or_none(by_segment.on((probe_systems, probe_segments))) == [
                [segment.get((s, i)) for i in probe_segments] for s in probe_systems
            ]
            assert _or_none(by_system.on((["poor", "x", "good"],))) == [
                system.get(key) for key in ["poor", "x", "good"]
            ]
            for key, score in segment.items():
                assert key in by_segment and by_segment[key] == score


def test_compact_scores(tmp_path):
    # 25 metrics x 15 systems x 200 segments, wide-external's shape: one
    # float64 grid cell and no object per score, far below the ~180 B/score
    # of one dict entry, tuple key and float each.  While the file is read,
    # each cell also holds its line number, 8 bytes more.
    systems = [f"system{s:02d}" for s in range(15)]
    test_set = TestSet(tuple(Segment(f"src {i}", (f"ref {i}",)) for i in range(200)))
    corpus = EvaluationCorpus(test_set, {
        s: SystemOutput(s, tuple(f"hyp {i}" for i in range(200))) for s in systems
    })
    path = tmp_path / "scores.tsv"
    path.write_text("".join(
        f"metric{m:02d}\t{s}\t{i}\t{(m * 7 + i * 13) % 101 / 100}\n"
        for m in range(25) for s in systems for i in range(200)
    ), encoding="utf-8")
    load_external_metric_scores(path, corpus)  # warm numpy and the file cache
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        table = load_external_metric_scores(path, corpus)
        retained, peak = (n - before for n in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert sum(len(scores.segment) for scores in table.values()) == 75_000
    assert sum(len(scores.system) for scores in table.values()) == 25 * 15
    assert retained < 12 * 75_000
    assert peak < 30 * 75_000


@pytest.mark.parametrize("segment, system", [
    ({("good", 0): float("nan")}, {}),
    ({("good", 0): float("inf")}, {}),
    ({}, {"good": float("nan")}),
    ({}, {"good": -float("inf")}),
    ({("good", -1): 0.5}, {}),
    ({("good", 3.7): 0.5}, {}),
    ({("good", "2"): 0.5}, {}),
    ({("good", 0): 0.1, ("good", True): 0.5}, {}),
    ({("good", np.int64(2)): 0.5}, {}),
])
def test_mapping_needs_finite_scores_and_segment_ids_from_zero(segment, system):
    # NaN marks a grid cell with no score, so no score may be NaN
    with pytest.raises(ValueError) as raised:
        MetricScores("sig", segment, system)
    # a segment id that is not an int is named with its key
    for key in segment:
        if not isinstance(key[1], int) or isinstance(key[1], bool):
            assert f"segment id of {key!r} is not an int" in str(raised.value)


def test_sparse_segment_ids_cost_their_count():
    # the grid is as wide as the distinct segment ids, not the largest id
    MetricScores("sig", {("a", 10**6): 0.5})  # warm numpy
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        scores = MetricScores("sig", {("a", 10**6): 0.5})
        retained, peak = (n - before for n in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert dict(scores.segment) == {("a", 10**6): 0.5}
    assert retained < 64_000
    assert peak < 64_000
    assert scores.segment.axes[1].tolist() == [10**6]
