import csv
import json
import random

import pytest

from metricval import cli


def _write_study(root):
    """A small but fully wired study: 5 systems, 8 segments, 3 workers."""
    n_seg = 8
    refs = [
        f"tok{j} alpha bravo charlie delta echo foxtrot golf hotel india"
        for j in range(n_seg)
    ]
    (root / "source.txt").write_text(
        "".join(f"source sentence {j} here\n" for j in range(n_seg)),
        encoding="utf-8",
    )
    (root / "ref.txt").write_text("".join(r + "\n" for r in refs), encoding="utf-8")
    outputs = root / "outputs"
    outputs.mkdir()
    for k in range(5):
        lines = []
        for j in range(n_seg):
            toks = refs[j].split()
            keep = len(toks) - 2 * k
            toks = toks[:keep] + [f"zz{k}x{m}" for m in range(len(toks) - keep)]
            lines.append(" ".join(toks))
        (outputs / f"sys{k}.txt").write_text(
            "".join(line + "\n" for line in lines), encoding="utf-8"
        )
    rng = random.Random(7)
    rows = ["worker_id,system_id,segment_id,score"]
    for w in range(3):
        for k in range(5):
            for j in range(n_seg):
                score = min(100, max(0, round(92 - 16 * k + rng.uniform(-12, 12))))
                rows.append(f"w{w},sys{k},{j},{score}")
    (root / "judgments.csv").write_text(
        "".join(r + "\n" for r in rows), encoding="utf-8"
    )
    (root / "meta.csv").write_text(
        "system_id,system_type,track\n"
        "sys0,neural,main\nsys1,neural,main\nsys2,neural,main\n"
        "sys3,smt,main\nsys4,smt,main\n",
        encoding="utf-8",
    )
    return {
        "source": str(root / "source.txt"),
        "ref": str(root / "ref.txt"),
        "outputs": str(outputs),
        "judgments": str(root / "judgments.csv"),
        "metadata": str(root / "meta.csv"),
    }


@pytest.fixture
def study(tmp_path):
    return _write_study(tmp_path)


def _corpus_argv(study):
    return [
        "--source", study["source"], "--ref", study["ref"],
        "--outputs", study["outputs"],
    ]


class TestValidate:
    def test_ok(self, study, capsys):
        code = cli.main(["validate", *_corpus_argv(study)])
        assert code == 0
        out = capsys.readouterr().out
        assert out == "ok: 5 systems, 8 segments, 1 reference(s), 0 finding(s)\n"

    def test_min_systems_warning(self, study, capsys):
        code = cli.main(["validate", *_corpus_argv(study), "--min-systems", "6"])
        assert code == 0
        captured = capsys.readouterr()
        assert "few-systems" in captured.err
        assert "1 finding(s)" in captured.out

    def test_missing_flags(self, capsys):
        code = cli.main(["validate"])
        assert code == 1
        err = capsys.readouterr().err
        # each missing input is named by its flag and its config key
        assert "--source / source" in err
        assert "--ref / references" in err
        assert "--outputs / outputs_dir" in err
        assert "judgments" not in err

    def test_missing_file(self, study, tmp_path, capsys):
        code = cli.main([
            "validate", "--source", str(tmp_path / "nope.txt"),
            "--ref", study["ref"], "--outputs", study["outputs"],
        ])
        assert code == 2

    def test_bad_choice_exits_one(self, study):
        with pytest.raises(SystemExit) as exc:
            cli.main(["da", "--judgments", study["judgments"],
                      "--standardize", "bogus"])
        assert exc.value.code == 1

    def test_no_subcommand(self, capsys):
        assert cli.main([]) == 1


class TestDa:
    def test_segment_tsv(self, study, capsys):
        code = cli.main(["da", "--judgments", study["judgments"]])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "system_id\tsegment_id\tda_score\tn_judgments"
        assert len(lines) == 41
        assert lines[1].startswith("sys0\t0\t")
        assert lines[1].endswith("\t3")

    def test_system_tsv(self, study, capsys):
        code = cli.main(["da", "--judgments", study["judgments"],
                         "--level", "system"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "system_id\tda_score\tn_segments"
        assert len(lines) == 6

    def test_min_count_filters(self, study, capsys):
        code = cli.main(["da", "--judgments", study["judgments"],
                         "--min-count", "4"])
        assert code == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines() == [
            "system_id\tsegment_id\tda_score\tn_judgments"
        ]
        assert "sparse-segments" in captured.err


class TestSimulateN:
    def test_curve(self, study, capsys):
        code = cli.main(["simulate-n", "--judgments", study["judgments"],
                         "--i-values", "1", "--n-total", "2",
                         "--target-r", "0.5"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "i\tr"
        assert lines[1].startswith("1\t")
        assert lines[-1].startswith("# recommended\t")

    def test_short_items_exit_three(self, study, capsys):
        code = cli.main(["simulate-n", "--judgments", study["judgments"],
                         "--i-values", "1,2", "--n-total", "4",
                         "--target-r", "0.9"])
        assert code == 3
        assert "has 3 judgments" in capsys.readouterr().err

    def test_missing_parameters(self, study, capsys):
        code = cli.main(["simulate-n", "--judgments", study["judgments"]])
        assert code == 1


class TestScore:
    def test_dump(self, study, capsys):
        code = cli.main(["score", *_corpus_argv(study)])
        assert code == 0
        out = capsys.readouterr().out
        assert "# signature: bleu\tbleu|maxn=4|smooth=add-1|bp=yes|trunc=yes|tok=whitespace|lc=no" in out
        assert "# signature: chrf\tchrf|maxn=6|beta=2|ws=no|tok=whitespace|lc=no" in out
        assert "\tsys0\t" in out

    def test_smoothing_override(self, study, capsys):
        code = cli.main(["score", *_corpus_argv(study), "--smoothing", "add-2"])
        assert code == 0
        assert "smooth=add-2|" in capsys.readouterr().out

    def test_two_external_files(self, study, tmp_path, capsys):
        a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        a.write_text("ext_a\tsys0\t0.5\n", encoding="utf-8")
        b.write_text("ext_b\tsys1\t3\t0.25\n", encoding="utf-8")
        code = cli.main(["score", *_corpus_argv(study),
                         "--external", str(a), "--external", str(b)])
        assert code == 0
        out = capsys.readouterr().out
        assert f"# signature: ext_a\t{a}\n" in out
        assert f"# signature: ext_b\t{b}\n" in out
        assert "ext_a\tsys0\t0.5\n" in out
        assert "ext_b\tsys1\t3\t0.25\n" in out

    def test_metric_in_two_external_files_exits_two(self, study, tmp_path, capsys):
        a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        a.write_text("ext\tsys0\t0.5\n", encoding="utf-8")
        b.write_text("ext\tsys1\t0.25\n", encoding="utf-8")
        code = cli.main(["score", *_corpus_argv(study),
                         "--external", str(a), "--external", str(b)])
        assert code == 2
        err = capsys.readouterr().err
        assert str(a) in err and str(b) in err
        assert "Traceback" not in err

    def test_every_external_file_is_read_before_merging(self, study, tmp_path, capsys):
        a, b, bad = tmp_path / "a.tsv", tmp_path / "b.tsv", tmp_path / "bad.tsv"
        a.write_text("ext\tsys0\t0.5\n", encoding="utf-8")
        b.write_text("ext\tsys1\t0.25\n", encoding="utf-8")
        bad.write_text("ext\tsys1\tx\t0.25\n", encoding="utf-8")
        code = cli.main(["score", *_corpus_argv(study), "--external", str(a),
                         "--external", str(b), "--external", str(bad)])
        assert code == 2
        assert "bad.tsv line 1: unparseable segment id" in capsys.readouterr().err


class TestCorrelate:
    def test_both_levels(self, study, capsys):
        code = cli.main(["correlate", *_corpus_argv(study),
                         "--judgments", study["judgments"]])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "metric,kind,level,scope,n,value"
        # 2 metrics x 2 levels
        assert len(lines) == 5
        assert any(line.startswith("bleu,kendall,segment,") for line in lines)
        assert any(line.startswith("chrf,pearson,system,") for line in lines)

    def test_coef_override(self, study, capsys):
        code = cli.main(["correlate", *_corpus_argv(study),
                         "--judgments", study["judgments"],
                         "--level", "system", "--coef", "spearman"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3
        assert all(",spearman,system," in line for line in lines[1:])


class TestSignif:
    def test_text_matrix(self, study, capsys):
        code = cli.main(["signif", *_corpus_argv(study),
                         "--judgments", study["judgments"]])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("n=5 systems, alpha=0.05")
        assert "winners: " in out

    def test_csv_matrix(self, study, capsys):
        code = cli.main(["signif", *_corpus_argv(study),
                         "--judgments", study["judgments"],
                         "--matrix-format", "csv", "--alpha", "0.1"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("metric,r,")
        assert "winners: " in out


class TestAnalysisCommands:
    def test_bins(self, study, capsys):
        code = cli.main(["bins", *_corpus_argv(study),
                         "--judgments", study["judgments"], "--metric", "bleu"])
        assert code == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("system_id,segment_id,da,metric_score,bin\r\n")
        assert captured.err.startswith("# boundaries\t")
        assert "# bad\tcount=14" in captured.err

    def test_bins_needs_metric(self, study, capsys):
        code = cli.main(["bins", *_corpus_argv(study),
                         "--judgments", study["judgments"]])
        assert code == 1
        assert "--metric" in capsys.readouterr().err

    def test_failures_text(self, study, capsys):
        code = cli.main(["failures", *_corpus_argv(study),
                         "--judgments", study["judgments"],
                         "--metric", "chrf", "--case-format", "text", "--k", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("[good-underscored #1]")
        assert "[bad-overscored #1]" in out

    def test_failures_json(self, study, capsys):
        code = cli.main(["failures", *_corpus_argv(study),
                         "--judgments", study["judgments"],
                         "--metric", "bleu", "--k", "1"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc) == 2
        assert {c["direction"] for c in doc} == {
            "good-underscored", "bad-overscored"
        }

    def test_groups(self, study, capsys):
        code = cli.main(["groups", *_corpus_argv(study),
                         "--metadata", study["metadata"],
                         "--judgments", study["judgments"], "--metric", "bleu"])
        assert code == 0
        lines = capsys.readouterr().out.split("\r\n")
        assert lines[0] == "group,kind,n_systems,value,flag"
        assert lines[1].startswith("neural,pearson,3,")
        assert lines[2] == "smt,,2,,insufficient"

    def test_groups_without_metadata(self, study, capsys):
        code = cli.main(["groups", *_corpus_argv(study),
                         "--judgments", study["judgments"], "--metric", "bleu"])
        assert code == 2

    def test_agreement(self, study, capsys):
        code = cli.main(["agreement", *_corpus_argv(study),
                         "--judgments", study["judgments"], "--metric", "chrf"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("chrf: tau=")
        assert "over 5 systems" in lines[0]
        assert "percentage points" in lines[1]
        assert len(lines) == 3


def _config_file(tmp_path, study, **extra):
    doc = {
        "source": study["source"],
        "references": [study["ref"]],
        "outputs_dir": study["outputs"],
        "judgments": study["judgments"],
        "metadata": study["metadata"],
        **extra,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


class TestRun:
    def test_json_byte_identical(self, study, tmp_path, capsys):
        cfg = _config_file(tmp_path, study)
        out1 = tmp_path / "run1"
        out2 = tmp_path / "run2"
        assert cli.main(["run", "--config", str(cfg), "--out", str(out1)]) == 0
        assert f"wrote {out1 / 'report.json'}" in capsys.readouterr().out
        assert cli.main(["run", "--config", str(cfg), "--out", str(out2)]) == 0
        capsys.readouterr()
        b1 = (out1 / "report.json").read_bytes()
        b2 = (out2 / "report.json").read_bytes()
        assert b1 == b2
        doc = json.loads(b1)
        assert doc["provenance"]["config"]["alpha"] == 0.05

    def test_csv_dir_manifest(self, study, tmp_path, capsys):
        cfg = _config_file(tmp_path, study, format="csv-dir")
        out = tmp_path / "csvout"
        assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        assert "correlations.csv" in manifest
        assert (out / "significance.csv").exists()

    def test_csv_dir_quotes_ids(self, study, tmp_path, capsys):
        # a system id with a comma and a metric id with quotes
        outputs = tmp_path / "outputs"
        (outputs / "sys0.txt").rename(outputs / "sys,a.txt")
        for name in ("judgments.csv", "meta.csv"):
            path = tmp_path / name
            text = path.read_text(encoding="utf-8")
            path.write_text(text.replace("sys0,", '"sys,a",'), encoding="utf-8")
        metric = '"b" leu'
        cfg = _config_file(
            tmp_path, study, format="csv-dir",
            metrics={metric: {"kind": "bleu"}, "chrf": {"kind": "chrf"}},
        )
        out = tmp_path / "csvout"
        assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        tables = {}
        for path in sorted(out.glob("*.csv")):
            with open(path, newline="", encoding="utf-8") as fh:
                header, *rows = csv.reader(fh)
            assert all(len(row) == len(header) for row in rows), path.name
            tables[path.name] = header, rows
        assert "agreement.csv" in tables and "significance.csv" in tables
        for name in ("correlations.csv", "agreement.csv", "significance.csv"):
            assert {row[0] for row in tables[name][1]} == {metric, "chrf"}
        assert tables["significance.csv"][0][2:] == [metric, "chrf"]
        bins = tables["bins__b_leu.csv"][1]
        assert {row[0] for row in bins} == {"sys,a", "sys1", "sys2", "sys3", "sys4"}

    def test_flag_overrides_config(self, study, tmp_path, capsys):
        cfg = _config_file(tmp_path, study, alpha=0.05)
        out = tmp_path / "runo"
        code = cli.main(["run", "--config", str(cfg), "--out", str(out),
                         "--alpha", "0.2"])
        assert code == 0
        doc = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert doc["provenance"]["config"]["alpha"] == 0.2

    def test_non_finite_external_score_exits_two(self, study, tmp_path, capsys):
        path = tmp_path / "ext.tsv"
        path.write_text("m\tsys0\tinf\n", encoding="utf-8")
        cfg = _config_file(tmp_path, study, external_scores=[str(path)])
        code = cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert "ext.tsv line 1: non-finite score" in err
        assert "Traceback" not in err

    def test_short_metadata_row_exits_two(self, study, tmp_path, capsys):
        meta = tmp_path / "meta.csv"
        meta.write_text(
            meta.read_text(encoding="utf-8").replace("sys4,smt,main", "sys4,smt"),
            encoding="utf-8",
        )
        cfg = _config_file(tmp_path, study)
        code = cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert "meta.csv line 6: short row, no track" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("key", ["lowercase", "bonferroni"])
    def test_string_boolean_exits_one(self, study, tmp_path, capsys, key):
        cfg = _config_file(tmp_path, study, **{key: "false"})
        code = cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 1
        assert f"{key!r} must be true or false" in capsys.readouterr().err

    def test_string_boolean_in_subcommand_exits_one(self, study, tmp_path, capsys):
        cfg = _config_file(tmp_path, study, lowercase="false")
        code = cli.main(["score", "--config", str(cfg)])
        assert code == 1
        assert "'lowercase' must be true or false" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["sourc", "tokeniser"])
    @pytest.mark.parametrize("command", ["run", "score"])
    def test_unknown_config_key(self, study, tmp_path, capsys, command, key):
        cfg = _config_file(tmp_path, study, **{key: "intl"})
        code = cli.main([command, "--config", str(cfg)])
        assert code == 1
        assert key in capsys.readouterr().err

    def test_smoothing_flag_reaches_report(self, study, tmp_path, capsys):
        cfg = _config_file(tmp_path, study)
        out = tmp_path / "smooth"
        code = cli.main(["run", "--config", str(cfg), "--out", str(out),
                         "--smoothing", "exp-decay"])
        assert code == 0
        doc = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert "|smooth=exp-decay|" in doc["provenance"]["signatures"]["bleu"]
        assert doc["provenance"]["config"]["metrics"]["bleu"]["smoothing"] == "exp-decay"

    @pytest.mark.parametrize("argv, extra", [
        (["da"], {"standardize": "bogus"}),
        (["da"], {"min_count": "x"}),
        (["signif"], {"alpha": 2}),
        (["failures", "--metric", "bleu"], {"k": 0}),
        (["correlate"], {"segment_coef": "bogus"}),
        (["score"], {"metrics": ["bleu"]}),
        (["score"], {"metrics": {"b": "bleu"}}),
        (["report"], {"seed": "x"}),
    ], ids=[
        "da-standardize", "da-min_count", "signif-alpha", "failures-k",
        "correlate-segment_coef", "score-metrics-list", "score-metric-entry",
        "report-seed",
    ])
    def test_bad_config_value_exits_one(self, study, tmp_path, capsys, argv, extra):
        cfg = _config_file(tmp_path, study, **extra)
        code = cli.main([*argv, "--config", str(cfg)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err

    def test_report_json_stdout(self, study, tmp_path, capsys):
        cfg = _config_file(tmp_path, study)
        code = cli.main(["report", "--config", str(cfg)])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["corpus"]["n_systems"] == 5
