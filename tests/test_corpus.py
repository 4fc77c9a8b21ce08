import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metricval import (
    AlignmentError,
    DataError,
    EvaluationCorpus,
    Segment,
    SystemMeta,
    SystemOutput,
    TestSet,
    attach_system_metadata,
    build_corpus,
    load_output_dir,
    load_system_metadata,
    load_system_outputs,
    load_testset,
    min_significant_r,
    validate_corpus,
)
from metricval.corpus import read_lines, serialize_lines

# surrogates excluded: they are not encodable text, so no file can hold them
line_text = st.text(
    alphabet=st.characters(
        blacklist_characters="\n\r", blacklist_categories=("Cs",)
    ),
    max_size=30,
)


class TestLines:
    def test_reads_plain_file(self, tmp_path):
        p = tmp_path / "f.txt"
        p.write_text("one\ntwo\nthree\n", encoding="utf-8")
        assert read_lines(p) == ["one", "two", "three"]

    def test_strips_carriage_returns(self, tmp_path):
        p = tmp_path / "f.txt"
        p.write_bytes(b"one\r\ntwo\r\n")
        assert read_lines(p) == ["one", "two"]

    def test_missing_final_newline(self, tmp_path):
        p = tmp_path / "f.txt"
        p.write_text("one\ntwo", encoding="utf-8")
        assert read_lines(p) == ["one", "two"]

    def test_preserves_unicode_line_separator(self, tmp_path):
        p = tmp_path / "f.txt"
        p.write_text("a\u2028b\nnext\n", encoding="utf-8")
        assert read_lines(p) == ["a\u2028b", "next"]

    def test_empty_file(self, tmp_path):
        p = tmp_path / "f.txt"
        p.write_text("", encoding="utf-8")
        assert read_lines(p) == []

    @given(st.lists(line_text, max_size=20))
    @settings(max_examples=60, deadline=None)
    def test_round_trip(self, lines):
        with tempfile.TemporaryDirectory() as d:
            p = Path(d) / "f.txt"
            p.write_text(serialize_lines(lines), encoding="utf-8")
            assert read_lines(p) == lines


class TestLoadTestset:
    def test_loads_multi_reference(self, tmp_path):
        (tmp_path / "src").write_text("s1\ns2\n", encoding="utf-8")
        (tmp_path / "r1").write_text("a1\na2\n", encoding="utf-8")
        (tmp_path / "r2").write_text("b1\nb2\n", encoding="utf-8")
        ts = load_testset(tmp_path / "src", [tmp_path / "r1", tmp_path / "r2"], "de-en")
        assert len(ts) == 2
        assert ts.segments[1].references == ("a2", "b2")
        assert ts.language_pair == "de-en"

    def test_misaligned_reference(self, tmp_path):
        (tmp_path / "src").write_text("s1\ns2\n", encoding="utf-8")
        (tmp_path / "r1").write_text("a1\n", encoding="utf-8")
        with pytest.raises(AlignmentError, match="expected 2, got 1"):
            load_testset(tmp_path / "src", [tmp_path / "r1"])

    def test_no_references(self, tmp_path):
        (tmp_path / "src").write_text("s1\n", encoding="utf-8")
        with pytest.raises(DataError):
            load_testset(tmp_path / "src", [])

    def test_empty_source(self, tmp_path):
        (tmp_path / "src").write_text("", encoding="utf-8")
        (tmp_path / "r1").write_text("a\n", encoding="utf-8")
        with pytest.raises(DataError):
            load_testset(tmp_path / "src", [tmp_path / "r1"])


def _ts():
    return TestSet((Segment("s1", ("r1",)), Segment("s2", ("r2",))))


class TestOutputs:
    def test_load_single_system(self, tmp_path):
        p = tmp_path / "sysX.txt"
        p.write_text("h1\nh2\n", encoding="utf-8")
        out = load_system_outputs(p, "sysX", _ts())
        assert out.hypotheses == ("h1", "h2")

    def test_misaligned_output(self, tmp_path):
        p = tmp_path / "sysX.txt"
        p.write_text("h1\n", encoding="utf-8")
        with pytest.raises(AlignmentError, match="sysX"):
            load_system_outputs(p, "sysX", _ts())

    def test_load_directory_uses_stems(self, tmp_path):
        (tmp_path / "b.txt").write_text("h1\nh2\n", encoding="utf-8")
        (tmp_path / "a.txt").write_text("g1\ng2\n", encoding="utf-8")
        outputs = load_output_dir(tmp_path, _ts())
        assert sorted(outputs) == ["a", "b"]

    def test_empty_directory(self, tmp_path):
        with pytest.raises(DataError):
            load_output_dir(tmp_path, _ts())

    def test_build_corpus_rejects_duplicates(self):
        out = SystemOutput("x", ("h1", "h2"))
        with pytest.raises(DataError):
            build_corpus(_ts(), [out, out])

    def test_corpus_validates_alignment(self):
        with pytest.raises(AlignmentError):
            EvaluationCorpus(_ts(), {"x": SystemOutput("x", ("h1",))})

    def test_corpus_key_mismatch(self):
        with pytest.raises(DataError):
            EvaluationCorpus(_ts(), {"y": SystemOutput("x", ("h1", "h2"))})


class TestMetadata:
    def test_load_csv(self, tmp_path):
        p = tmp_path / "meta.csv"
        p.write_text(
            "system_id,system_type,track,notes\n"
            "x,neural,main,ignored\n"
            "y,statistical,tuning,also ignored\n",
            encoding="utf-8",
        )
        rows = load_system_metadata(p)
        assert rows[0] == SystemMeta("x", "neural", "main")
        assert rows[1].track == "tuning"

    def test_missing_column(self, tmp_path):
        p = tmp_path / "meta.csv"
        p.write_text("system_id,system_type\nx,neural\n", encoding="utf-8")
        with pytest.raises(DataError, match="track"):
            load_system_metadata(p)

    def test_short_row_names_line(self, tmp_path):
        p = tmp_path / "meta.csv"
        p.write_text(
            "system_id,system_type,track\nx,neural,main\n\ny,neural\n",
            encoding="utf-8",
        )
        with pytest.raises(DataError, match=r"meta\.csv line 4: short row, no track"):
            load_system_metadata(p)

    def test_duplicate_row(self, tmp_path):
        p = tmp_path / "meta.csv"
        p.write_text(
            "system_id,system_type,track\nx,neural,main\nx,neural,main\n",
            encoding="utf-8",
        )
        with pytest.raises(DataError, match="duplicate"):
            load_system_metadata(p)

    def test_attach_unknown_system(self):
        corpus = build_corpus(_ts(), [SystemOutput("x", ("h1", "h2"))])
        with pytest.raises(DataError, match="ghost"):
            attach_system_metadata(corpus, [SystemMeta("ghost", "neural", "main")])

    def test_attach_returns_new_corpus(self):
        corpus = build_corpus(_ts(), [SystemOutput("x", ("h1", "h2"))])
        enriched = attach_system_metadata(corpus, [SystemMeta("x", "neural", "main")])
        assert corpus.meta == {}
        assert enriched.meta["x"].system_type == "neural"


class TestValidation:
    def _corpus(self, n_systems, with_meta=False, empty_line=False):
        hyps = ("h1", "" if empty_line else "h2")
        outputs = [
            SystemOutput(f"s{i}", hyps if i == 0 else ("h1", "h2"))
            for i in range(n_systems)
        ]
        corpus = build_corpus(_ts(), outputs)
        if with_meta:
            corpus = attach_system_metadata(
                corpus,
                [SystemMeta(f"s{i}", "neural", "main") for i in range(n_systems)],
            )
        return corpus

    def test_few_systems_warning(self):
        findings = validate_corpus(self._corpus(3))
        assert any(f.code == "few-systems" for f in findings)
        assert any("p<0.05" in f.message for f in findings)

    @pytest.mark.parametrize("n", [1, 3, 4])
    def test_few_systems_states_the_bar(self, n):
        findings = validate_corpus(self._corpus(n))
        (message,) = [f.message for f in findings if f.code == "few-systems"]
        assert message.startswith(
            f"{n} systems < 5; for system-level Pearson, the r = 0 test at p<0.05 needs "
        )
        assert "cannot reach" not in message
        if n < 4:
            assert message.endswith(" needs at least 4 points")
        else:
            bar = float(message.rsplit("|r| > ", 1)[1])
            assert bar == pytest.approx(min_significant_r(4), abs=5e-4)

    def test_enough_systems_quiet(self):
        findings = validate_corpus(self._corpus(5))
        assert not any(f.code == "few-systems" for f in findings)

    def test_policy_threshold(self):
        findings = validate_corpus(self._corpus(5), min_systems=10)
        assert any(f.code == "few-systems" for f in findings)

    def test_single_type_warning(self):
        findings = validate_corpus(self._corpus(5, with_meta=True))
        assert any(f.code == "single-type" for f in findings)

    def test_empty_output_warning(self):
        findings = validate_corpus(self._corpus(5, empty_line=True))
        assert any(f.code == "empty-output" for f in findings)

    def test_empty_reference_warning(self):
        ts = TestSet((Segment("s1", ("r1",)), Segment("s2", ("",))))
        corpus = build_corpus(
            ts, [SystemOutput(f"s{i}", ("h1", "h2")) for i in range(5)]
        )
        findings = validate_corpus(corpus)
        assert any(f.code == "empty-reference" for f in findings)

    def test_segment_requires_reference(self):
        with pytest.raises(DataError):
            Segment("src", ())
