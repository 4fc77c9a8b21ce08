import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metricval import (
    BleuConfig,
    ChrfConfig,
    ConfigError,
    DataError,
    EvaluationCorpus,
    Segment,
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
        by_system = table.system_map("bleu")
        assert set(by_system) == {"good", "poor"}
        by_segment = table.segment_map("bleu")
        assert ("good", 0) in by_segment
        with pytest.raises(DataError):
            table.system_map("rouge")

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
