import csv
import importlib.util
import io
import json
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import metricval
from metricval import Finding, cli, segment_correlation
from metricval import report as rp


def test_import_leaves_scipy_unloaded():
    # scipy.special is imported only when a p-value is computed
    src = str(Path(metricval.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    code = "import sys, metricval.cli; sys.exit('scipy' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


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

    @pytest.mark.parametrize("level", ["segment", "system"])
    def test_tab_in_system_id(self, tmp_path, capsys, level):
        path = tmp_path / "tab.csv"
        path.write_text(
            'worker_id,system_id,segment_id,score\n'
            'w1,"sys\tA",0,70\nw1,sysB,0,50\nw1,sysB,1,60\n',
            encoding="utf-8",
        )
        assert cli.main(["da", "--judgments", str(path), "--level", level]) == 0
        out = io.StringIO(capsys.readouterr().out)
        header, *rows = csv.reader(out, delimiter="\t")
        assert all(len(row) == len(header) for row in rows)
        assert {row[0] for row in rows} == {"sys\tA", "sysB"}

    @pytest.mark.parametrize(
        "row", ['w1,"sys\rA",0,70', 'w1,"sys\nA",0,70', '"w\r\n1",sysB,1,60']
    )
    def test_line_break_in_id_exits_two(self, tmp_path, capsys, row):
        path = tmp_path / "cr.csv"
        path.write_bytes(
            f"worker_id,system_id,segment_id,score\nw1,sysB,0,50\n{row}\n".encode()
        )
        assert cli.main(["da", "--judgments", str(path)]) == 2
        err = capsys.readouterr().err
        assert "cr.csv line 3: line break in worker_id or system_id" in err
        assert "Traceback" not in err


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

    def test_i_values_must_be_integers(self, study, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["simulate-n", "--judgments", study["judgments"],
                      "--i-values", "1,1.5", "--n-total", "2", "--target-r", "0.5"])
        assert exc.value.code == 1
        assert "argument --i-values: invalid" in capsys.readouterr().err

    def test_stdout_is_the_report_curve(self, study, tmp_path, capsys):
        sim = {"i_values": [1], "n_total": 2, "target_r": 0.5}
        cfg = _config_file(tmp_path, study, assessor_sim=sim, format="csv-dir")
        assert cli.main(["simulate-n", "--config", str(cfg)]) == 0
        captured = capsys.readouterr()
        assert captured.err == "# items=40 n_total=2 target_r=0.5\n"
        out = tmp_path / "o"
        assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        assert captured.out.encode() == (out / "assessor_curve.tsv").read_bytes()


class TestScore:
    def test_dump(self, study, capsys):
        code = cli.main(["score", *_corpus_argv(study)])
        assert code == 0
        out = capsys.readouterr().out
        assert "# signature: bleu\tbleu|maxn=4|smooth=add-1|bp=yes|trunc=yes|tok=whitespace|lc=no" in out
        assert "# signature: chrf\tchrf|maxn=6|beta=2|ws=no|tok=whitespace|lc=no" in out
        assert "\tsys0\t" in out

    @pytest.mark.parametrize("metric_id", ["b\tleu", "#x"])
    def test_metric_id_the_dump_cannot_carry(self, study, tmp_path, capsys, metric_id):
        cfg = _config_file(tmp_path, study, metrics={metric_id: {"kind": "bleu"}})
        assert cli.main(["score", "--config", str(cfg)]) == 1
        assert repr(metric_id) in capsys.readouterr().err

    @pytest.mark.parametrize("char", ["\r", "\n", "\t"])
    def test_system_id_the_dump_cannot_carry(self, study, capsys, char):
        # a line break in a stem once broke the scores.tsv round trip
        outputs = Path(study["outputs"])
        (outputs / "sys0.txt").rename(outputs / f"sys{char}0.txt")
        assert cli.main(["score", *_corpus_argv(study)]) == 2
        err = capsys.readouterr().err
        bad = repr(str(outputs / f"sys{char}0.txt"))
        assert f"output file {bad}: tab or line break in system id" in err

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

    def test_failures_stdout_is_the_report_file(self, study, tmp_path, capsys):
        cfg = _config_file(tmp_path, study, format="csv-dir")
        assert cli.main(["failures", "--config", str(cfg), "--metric", "bleu"]) == 0
        stdout = capsys.readouterr().out
        out = tmp_path / "o"
        assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        assert stdout.encode() == (out / "failures_bleu.json").read_bytes()

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

    # every item has 3 judgments, so --min-count 4 leaves no DA point; the
    # warning that says why must reach stderr before the analysis fails
    @pytest.mark.parametrize("command, extra, exit_code", [
        ("correlate", [], 3),
        ("failures", ["--metric", "bleu"], 3),
        ("groups", ["--metric", "bleu", "--metadata", "metadata"], 3),
    ])
    def test_da_findings_precede_a_failed_analysis(self, study, capsys, command,
                                                    extra, exit_code):
        extra = [study.get(arg, arg) for arg in extra]
        code = cli.main([command, *_corpus_argv(study), "--judgments", study["judgments"],
                         "--min-count", "4", *extra])
        assert code == exit_code
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith("warning [sparse-segments]: excluded 40 ")
        assert err[1].startswith("error: ")

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
            assessor_sim={"i_values": [1], "n_total": 2, "target_r": 0.5},
        )
        out = tmp_path / "csvout"
        assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        tables = {}
        # scores.tsv is the external-score format, which is never quoted
        for path in sorted({*out.glob("*.[ct]sv")} - {out / "scores.tsv"}):
            with open(path, newline="", encoding="utf-8") as fh:
                sep = "\t" if path.suffix == ".tsv" else ","
                header, *rows = csv.reader(fh, delimiter=sep)
            assert all(len(row) == len(header) for row in rows), path.name
            tables[path.name] = header, rows
        assert "agreement.csv" in tables and "significance.csv" in tables
        assert "assessor_curve.tsv" in tables
        for name in ("segment_da.tsv", "system_da.tsv"):
            assert "sys,a" in {row[0] for row in tables[name][1]}
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

    def test_line_break_in_metadata_system_id_exits_two(self, study, tmp_path, capsys):
        meta = tmp_path / "meta.csv"
        meta.write_bytes(meta.read_bytes().replace(b"sys4,", b'"sys\r4",'))
        cfg = _config_file(tmp_path, study)
        code = cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        # the row starts on line 6 and ends on line 7
        assert "meta.csv line 6: line break in system_id 'sys\\r4'" in err
        assert "Traceback" not in err

    def test_line_break_in_external_system_id_exits_two(self, study, tmp_path, capsys):
        # the scores format is unquoted, so a CR ends the line and the row
        path = tmp_path / "ext.tsv"
        path.write_bytes(b"m\tsys\r0\t0.5\n")
        cfg = _config_file(tmp_path, study, external_scores=[str(path)])
        code = cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert "ext.tsv line 1: expected 3 or 4 tab-separated columns, got 2" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "name", ["outputs/sys3.txt", "judgments.csv", "meta.csv", "ref.txt", "ext.tsv"]
    )
    def test_non_utf8_input_exits_two(self, study, tmp_path, capsys, name):
        ext = tmp_path / "ext.tsv"
        ext.write_text("m\tsys0\t0.5\n", encoding="utf-8")
        path = tmp_path / name
        path.write_bytes(path.read_bytes().replace(b"0", b"\xff", 1))
        cfg = _config_file(tmp_path, study, external_scores=[str(ext)])
        code = cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert f"error: {path} is not UTF-8 text: invalid start byte" in err
        assert "Traceback" not in err

    def test_non_utf8_config_exits_one(self, study, tmp_path, capsys):
        cfg = _config_file(tmp_path, study, language_pair="\u00e9")
        cfg.write_bytes(cfg.read_bytes().replace(b"\\u00e9", b"\xe9"))
        code = cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert f"error: {cfg} is not UTF-8 text: invalid continuation byte" in err
        assert "Traceback" not in err

    def test_csv_dir_refuses_metrics_sharing_file_names(self, study, tmp_path, capsys):
        # 'a/b' and 'a_b' both wrote bins_a_b.csv, the second over the first
        cfg = _config_file(
            tmp_path, study, format="csv-dir",
            metrics={"a/b": {"kind": "bleu"}, "a_b": {"kind": "chrf"}},
        )
        out = tmp_path / "csvout"
        assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "metrics 'a/b' and 'a_b' would write the same csv-dir files" in err
        assert not out.exists()
        assert cli.main(["run", "--config", str(cfg), "--out", str(out),
                         "--format", "json"]) == 0

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
        (["failures", "--metric", "bleu"], {"k": 2.5}),
        (["failures", "--metric", "bleu"], {"k": True}),
        (["da"], {"min_count": 1.9}),
        (["validate"], {"min_systems": "5"}),
        (["report"], {"seed": 1.0}),
        (["score"], {"metrics": {"b": {"kind": "bleu", "max_n": 2.5}}}),
        (["score"], {"metrics": {"b": {"kind": "bleu", "min_order": True}}}),
        (["score"], {"metrics": {"c": {"kind": "chrf", "char_n": "6"}}}),
        (["simulate-n"], {"assessor_sim": {"i_values": [1.5], "n_total": 2,
                                           "target_r": 0.5}}),
        (["simulate-n"], {"assessor_sim": {"i_values": [1], "n_total": 2.0,
                                           "target_r": 0.5}}),
        (["signif"], {"alpha": "0.2"}),
        (["score"], {"metrics": {"c": {"kind": "chrf", "beta": "3"}}}),
        (["score"], {"metrics": {"b": {"kind": "bleu", "k": "1"}}}),
        (["validate"], {"language_pair": 7}),
        (["simulate-n"], {"assessor_sim": {"i_values": [1], "n_total": 2,
                                           "target_r": "0.9"}}),
        (["signif"], {"alpha": float("nan")}),
    ], ids=[
        "da-standardize", "da-min_count", "signif-alpha", "failures-k",
        "correlate-segment_coef", "score-metrics-list", "score-metric-entry",
        "report-seed", "failures-k-float", "failures-k-bool", "da-min_count-float",
        "validate-min_systems-str", "report-seed-float", "score-max_n-float",
        "score-min_order-bool", "score-char_n-str", "simulate-n-i_values-float",
        "simulate-n-n_total-float", "signif-alpha-str", "score-beta-str",
        "score-k-str", "validate-language_pair-int", "simulate-n-target_r-str",
        "signif-alpha-nan",
    ])
    def test_bad_config_value_exits_one(self, study, tmp_path, capsys, argv, extra):
        cfg = _config_file(tmp_path, study, **extra)
        code = cli.main([*argv, "--config", str(cfg)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err

    def test_text_report_lists_findings_as_stderr_does(self, study, tmp_path, capsys):
        cfg = _config_file(tmp_path, study, min_systems=6)
        assert cli.main(["report", "--config", str(cfg), "--format", "text"]) == 0
        captured = capsys.readouterr()
        printed = captured.err.splitlines()
        assert printed[0].startswith("warning [few-systems]: ")
        report = captured.out.splitlines()
        assert report[report.index("findings:") + 1:][:len(printed)] == [
            f"  {line}" for line in printed
        ]
        assert str(Finding("error", "no code")) == "error: no code"

    def test_report_json_stdout(self, study, tmp_path, capsys):
        cfg = _config_file(tmp_path, study)
        code = cli.main(["report", "--config", str(cfg)])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["corpus"]["n_systems"] == 5


class TestEmission:
    """Every report file is written in chunks, and only once it is whole."""

    SIM = {"i_values": [1, 2], "n_total": 3, "target_r": 0.5}

    def _bundle(self, tmp_path, study, **extra):
        cfg = _config_file(tmp_path, study, **extra)
        return rp.run_study(rp.load_config(cfg))

    def test_report_json_is_render_report(self, study, tmp_path):
        bundle = self._bundle(tmp_path, study)
        (path,) = rp.emit_report(bundle, "json", tmp_path / "out")
        assert path.read_bytes() == rp.render_report(bundle, "json").encode("utf-8")
        assert sorted(p.name for p in path.parent.iterdir()) == ["report.json"]

    def test_csv_dir_files_are_their_string_renders(self, study, tmp_path):
        bundle = self._bundle(tmp_path, study, assessor_sim=self.SIM)
        out = tmp_path / "out"
        written = rp.emit_report(bundle, "csv-dir", out)
        tables = {
            "findings.csv": rp.findings_rows(bundle.findings),
            "segment_da.tsv": rp.segment_da_rows(bundle.segment_da),
            "system_da.tsv": rp.system_da_rows(bundle.system_da),
            "correlations.csv": rp.correlations_rows(bundle.correlations),
            "significance.csv": rp.significance_rows(bundle.matrix),
            "agreement.csv": rp.agreement_rows(
                a for _, a in sorted(bundle.agreements.items())
            ),
            "assessor_curve.tsv": rp.assessor_curve_rows(bundle.assessor_curve),
        }
        for metric_id in bundle.table.metric_ids():
            tables[f"bins_{metric_id}.csv"] = rp.bins_rows(bundle.bins, bundle.table, metric_id)
            for group_by, rows in bundle.groups[metric_id].items():
                tables[f"groups_{metric_id}_{group_by}.csv"] = rp.groups_rows(rows)
        expected = {
            name: rp.render_table(table, tsv=name.endswith(".tsv"))
            for name, table in tables.items()
        }
        expected["scores.tsv"] = metricval.metrics.dump_scores(bundle.table)
        expected["provenance.json"] = rp._json_doc(rp._provenance(bundle))
        for name, text in expected.items():
            assert (out / name).read_bytes() == text.encode("utf-8"), name
        names = sorted(p.name for p in out.iterdir())
        assert sorted(p.name for p in written) == names
        assert not [n for n in names if n.endswith(".tmp")]

    def test_failed_write_leaves_no_partial_file(self, study, tmp_path, monkeypatch):
        bundle = self._bundle(tmp_path, study)
        out = tmp_path / "out"
        rp.emit_report(bundle, "json", out)
        before = (out / "report.json").read_bytes()
        written = []
        chunks = rp._report_chunks

        def failing(*args):
            for chunk in chunks(*args):
                written.append(chunk)
                yield chunk
                raise OSError("No space left on device")

        monkeypatch.setattr(rp, "_report_chunks", failing)
        with pytest.raises(OSError, match="No space left"):
            rp.emit_report(bundle, "json", out)
        assert len(written) == 1
        assert sorted(p.name for p in out.iterdir()) == ["report.json"]
        assert (out / "report.json").read_bytes() == before
        # from the command line the failure is still exit code 2
        fresh = tmp_path / "fresh"
        cfg = tmp_path / "config.json"
        assert cli.main(["run", "--config", str(cfg), "--out", str(fresh)]) == 2
        assert list(fresh.iterdir()) == []

    def test_stdout_is_the_written_file(self, study, tmp_path, capsys):
        cfg = _config_file(tmp_path, study)
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        assert cli.main(["run", "--config", str(cfg), "--out", str(out),
                         "--format", "csv-dir"]) == 0
        capsys.readouterr()
        assert cli.main(["report", "--config", str(cfg)]) == 0
        assert capsys.readouterr().out == (out / "report.json").read_text(encoding="utf-8")
        assert cli.main(["score", "--config", str(cfg)]) == 0
        assert capsys.readouterr().out == (out / "scores.tsv").read_text(encoding="utf-8")

    def test_metric_level_few_systems_follows_min_systems(self, study, tmp_path, capsys):
        cfg = _config_file(tmp_path, study, min_systems=6)
        assert cli.main(["report", "--config", str(cfg)]) == 0
        few = [line for line in capsys.readouterr().err.splitlines() if "few-systems" in line]
        bar = "the r = 0 test at p<0.05 needs |r| > 0.878"
        assert few == [
            f"warning [few-systems]: 5 systems < 6; for system-level Pearson, {bar}",
            f"warning [few-systems]: only 5 systems; {bar}",
            f"warning [few-systems]: only 5 systems; {bar}",
        ]
        assert cli.main(["correlate", "--config", str(cfg), "--level", "system"]) == 0
        assert capsys.readouterr().err.count("[few-systems]: only 5 systems") == 2
        cfg = _config_file(tmp_path, study)
        assert cli.main(["report", "--config", str(cfg)]) == 0
        assert "few-systems" not in capsys.readouterr().err

    def test_correlate_min_systems_flag(self, study, tmp_path, capsys):
        cfg = str(_config_file(tmp_path, study))
        assert cli.main(["correlate", "--config", cfg, "--level", "system"]) == 0
        assert "few-systems" not in capsys.readouterr().err
        argv = ["correlate", "--config", cfg, "--level", "system", "--min-systems", "6"]
        assert cli.main(argv) == 0
        bar = "the r = 0 test at p<0.05 needs |r| > 0.878"
        few = [line for line in capsys.readouterr().err.splitlines() if "few-systems" in line]
        assert few == [f"warning [few-systems]: only 5 systems; {bar}"] * 2


class TestSkippedAnalyses:
    """Each analysis whose preconditions fail leaves one coded error finding."""

    def _findings(self, tmp_path, study, capsys, **extra):
        cfg = _config_file(tmp_path, study, metadata=None, **extra)
        assert cli.main(["report", "--config", str(cfg)]) == 0
        # stderr is the bundle's findings, one str(finding) per line
        return capsys.readouterr().err.splitlines()

    def test_external_metric_on_two_systems(self, study, tmp_path, capsys):
        ext = tmp_path / "ext.tsv"
        ext.write_text("ext\tsys0\t0.5\next\tsys1\t0.7\n", encoding="utf-8")
        sim = {"i_values": [1], "n_total": 99, "target_r": 0.5}
        findings = self._findings(
            tmp_path, study, capsys, external_scores=[str(ext)], assessor_sim=sim
        )
        groups = "error [groups-skipped]: grouped correlation for {!r} by {} skipped: " \
            "no metadata for any of the {} systems scored by both DA and {!r}"
        assert findings == [
            "error [correlation-skipped]: segment correlation for 'ext' skipped: "
            "only 0 segments are scored by both metric and humans; need at least 3",
            "error [correlation-skipped]: system correlation for 'ext' skipped: "
            "only 2 systems are scored by both metric and humans; need at least 3",
            "error [significance-skipped]: significance matrix skipped: "
            "2 systems scored by DA and every metric; the test needs at least 4",
            "error [bins-skipped]: bin analyses for 'ext' skipped: metric 'ext' "
            "lacks scores for 40 binned point(s): sys0:0, sys0:1, sys0:2, sys0:3, "
            "sys0:4, ...",
            groups.format("bleu", "system_type", 5, "bleu"),
            groups.format("bleu", "track", 5, "bleu"),
            groups.format("chrf", "system_type", 5, "chrf"),
            groups.format("chrf", "track", 5, "chrf"),
            groups.format("ext", "system_type", 2, "ext"),
            groups.format("ext", "track", 2, "ext"),
            "error [agreement-skipped]: agreement report for 'ext' skipped: "
            "only 2 systems scored by both; need at least 3",
            "error [simulation-skipped]: assessor simulation skipped: "
            "item ('sys0', 0) has 3 judgments; n_total=99 required",
        ]

    def test_two_da_points(self, study, tmp_path, capsys):
        Path(study["judgments"]).write_text(
            "worker_id,system_id,segment_id,score\nw1,sys0,0,50\nw1,sys1,0,60\n",
            encoding="utf-8",
        )
        findings = self._findings(tmp_path, study, capsys, standardize="center")
        correlation = "error [correlation-skipped]: {} correlation for {!r} skipped: " \
            "only 2 {}s are scored by both metric and humans; need at least 3"
        groups = "error [groups-skipped]: grouped correlation for {!r} by {} skipped: " \
            "no metadata for any of the 2 systems scored by both DA and {!r}"
        agreement = "error [agreement-skipped]: agreement report for {!r} skipped: " \
            "only 2 systems scored by both; need at least 3"
        assert findings == [
            correlation.format("segment", "bleu", "segment"),
            correlation.format("system", "bleu", "system"),
            correlation.format("segment", "chrf", "segment"),
            correlation.format("system", "chrf", "system"),
            "error [significance-skipped]: significance matrix skipped: "
            "2 systems scored by DA and every metric; the test needs at least 4",
            "error [bins-skipped]: binning skipped: 2 DA points; binning needs at least 3",
            groups.format("bleu", "system_type", "bleu"),
            groups.format("bleu", "track", "bleu"),
            agreement.format("bleu"),
            groups.format("chrf", "system_type", "chrf"),
            groups.format("chrf", "track", "chrf"),
            agreement.format("chrf"),
        ]

    def test_header_only_judgments(self, study, tmp_path, capsys):
        # no system is scored by DA, so grouping says so, as agreement does,
        # rather than blaming the metadata of none of them
        Path(study["judgments"]).write_text(
            "worker_id,system_id,segment_id,score\n", encoding="utf-8"
        )
        findings = self._findings(tmp_path, study, capsys)
        correlation = "error [correlation-skipped]: {} correlation for {!r} skipped: " \
            "only 0 {}s are scored by both metric and humans; need at least 3"
        groups = "error [groups-skipped]: grouped correlation for {0!r} by {1} " \
            "skipped: 0 systems are scored by both DA and {0!r}"
        agreement = "error [agreement-skipped]: agreement report for {!r} skipped: " \
            "only 0 systems scored by both; need at least 3"
        assert findings == [
            "warning [no-data]: no judgments; no DA scores produced",
            correlation.format("segment", "bleu", "segment"),
            correlation.format("system", "bleu", "system"),
            correlation.format("segment", "chrf", "segment"),
            correlation.format("system", "chrf", "system"),
            "error [significance-skipped]: significance matrix skipped: "
            "0 systems scored by DA and every metric; the test needs at least 4",
            "error [bins-skipped]: binning skipped: 0 DA points; binning needs at least 3",
            groups.format("bleu", "system_type"),
            groups.format("bleu", "track"),
            agreement.format("bleu"),
            groups.format("chrf", "system_type"),
            groups.format("chrf", "track"),
            agreement.format("chrf"),
        ]

    def test_judgments_off_the_corpus_grid(self, tmp_path, monkeypatch, capsys):
        # an m-default benchmark study with DA for a system the corpus lacks
        # and for a segment past its end: the metrics cover part of the DA,
        # and binning takes only the DA points on the corpus grid
        spec = importlib.util.spec_from_file_location(
            "synth", Path(__file__).parents[1] / "perfbench" / "synth.py"
        )
        synth = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, "synth", synth)  # its dataclasses look it up
        spec.loader.exec_module(synth)
        synth.generate(synth.WORKLOADS["m-default"], 1, tmp_path)
        with open(tmp_path / "data" / "judgments.csv", "a", encoding="utf-8") as fh:
            fh.write("wX,ghost,3,50\nwX,ghost,4,60\nwY,sys01,99999,70\nwY,sys01,2,40\n")
        monkeypatch.chdir(tmp_path)
        assert cli.main(["run", "--config", "config.json"]) == 0
        coverage = [
            "warning [partial-coverage]: metric covers 4500 of 4503 segments with "
            "human scores; 3 excluded",
            "warning [partial-coverage]: metric covers 15 of 16 systems with human "
            "scores; 1 excluded",
        ]
        assert capsys.readouterr().err.splitlines() == [
            *coverage, *coverage,
            "warning [off-corpus-judgments]: 3 judged (system, segment) item(s) are "
            "not in the corpus and are left out of binning: ghost:3, ghost:4, sys01:99999",
        ]

    def test_off_corpus_judgments_cost_their_rows(self, study):
        # k judged items, each on its own system and segment the corpus lacks:
        # the DA holds k cells, not a grid of every judged system x segment
        k = 2000
        with open(study["judgments"], "a", encoding="utf-8") as fh:
            fh.writelines(f"wZ,ghost{i:04},{100 + i},{i % 101}\n" for i in range(k))
        config = rp.StudyConfig(
            source=study["source"], references=(study["ref"],),
            outputs_dir=study["outputs"], judgments=study["judgments"],
        )
        table = rp.build_table(config, rp.load_corpus(config))
        tracemalloc.start()
        try:
            das = rp.load_das(config)
            result, _ = segment_correlation(table, das.segment, "bleu")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (len(das.segment), result.n) == (5 * 8 + k, 5 * 8)
        # a grid of the judged 2005 systems x 2008 segments takes 32 MB
        assert peak < 4_000_000
