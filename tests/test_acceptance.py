"""End-to-end acceptance checks for the package's documented guarantees.

Each test prints one line, "criterion N: PASS - ..." or "... FAIL - ...",
so a plain ``pytest tests/test_acceptance.py -s`` doubles as a checklist.
Criterion 8 needs the WMT17 evaluation data, which is not distributed with
the package; it is skipped (with a SKIP line) when the data is absent.  See
the README for the expected directory layout.
"""

import json
import math
import os
import random
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from metricval import (
    AssessorSimConfig,
    MetricScoreTable,
    aligned,
    build_corpus,
    chrf,
    corpus_bleu,
    corpus_chrf,
    kendall_tau,
    load_output_dir,
    load_testset,
    min_significant_r,
    pearson,
    score_systems,
    sentence_bleu,
    significance_matrix,
    simulate_assessor_count,
    spearman,
    standardize_judgments,
    tertile_bins,
    williams_test,
    winner_set,
)
from metricval import cli
from metricval.metrics import (
    DEFAULT_CORPUS_BLEU,
    DEFAULT_SENTENCE_BLEU,
    TokenizationScheme,
)

from oracles import (
    judged_da,
    judgments_from_rows,
    kendall_naive,
    min_r_quad,
    pearson_exact,
    spearman_naive,
    trivariate_normal,
)
from test_cli import _write_study


def _report(n, desc, ok):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {n}: {desc}"


def test_criterion_1_coefficients_match_oracles():
    rng = random.Random(11)
    start = time.perf_counter()
    worst = 0.0
    for trial in range(1000):
        n = rng.randint(3, 50)
        tied = trial % 2 == 0
        while True:
            if tied:
                xs = [float(rng.randint(-5, 5)) for _ in range(n)]
                ys = [float(rng.randint(-5, 5)) for _ in range(n)]
            else:
                xs = [rng.uniform(-100, 100) for _ in range(n)]
                ys = [rng.uniform(-100, 100) for _ in range(n)]
            if len(set(xs)) > 1 and len(set(ys)) > 1:
                break
        worst = max(worst, abs(pearson(xs, ys) - pearson_exact(xs, ys)))
        worst = max(worst, abs(spearman(xs, ys) - spearman_naive(xs, ys)))
        oracle = kendall_naive(xs, ys)
        assert oracle["concordant"] + oracle["discordant"] > 0
        worst = max(worst, abs(kendall_tau(xs, ys) - oracle["gamma"]))
        worst = max(worst, abs(kendall_tau(xs, ys, tau_b=True) - oracle["tau_b"]))
    elapsed = time.perf_counter() - start
    _report(
        1,
        f"pearson/spearman/kendall within 1e-12 of brute-force oracles on "
        f"1000 samples (worst {worst:.2e}, {elapsed:.1f}s < 10s)",
        worst <= 1e-12 and elapsed < 10.0,
    )


def test_criterion_2_williams_null_calibration():
    # Both metrics correlate 0.5 with the human scores and 0.6 with each
    # other, so the null of equal correlations holds exactly and the
    # two-sided test should reject about 5% of the time.
    start = time.perf_counter()
    rng = np.random.default_rng(20260822)
    reps = 20000
    n = 100
    rejected = 0
    for _ in range(reps):
        sample = trivariate_normal(rng, n, 0.5, 0.5, 0.6)
        c = np.corrcoef(sample.T)
        out = williams_test(c[0, 2], c[1, 2], c[0, 1], n, two_sided=True)
        if out.p_value < 0.05:
            rejected += 1
    rate = rejected / reps
    elapsed = time.perf_counter() - start
    _report(
        2,
        f"Williams test rejects {rate:.4f} of {reps} null replicates "
        f"(within [0.04, 0.06], {elapsed:.1f}s < 60s)",
        0.04 <= rate <= 0.06 and elapsed < 60.0,
    )


def test_criterion_3_matrix_consistency():
    equal_ok = True
    for r, r12, n in [(0.62, 0.3, 30), (0.9, 0.8, 12), (-0.4, 0.1, 8)]:
        out = williams_test(r, r, r12, n)
        equal_ok = equal_ok and out.statistic == 0.0 and out.p_value == 0.5
    rng = random.Random(33)
    sum_ok = True
    winner_hits = 0
    for _ in range(100):
        m = rng.randint(2, 4)
        n = rng.randint(5, 10)
        da = [rng.uniform(-1, 1) for _ in range(n)]
        scores = {
            f"m{j}": [rng.uniform(0, 1) for _ in range(n)] for j in range(m)
        }
        matrix = significance_matrix(scores, da)
        for a in matrix.metric_ids:
            for b in matrix.metric_ids:
                if a == b:
                    continue
                total = matrix.p[(a, b)] + matrix.p[(b, a)]
                if abs(total - 1.0) > 1e-9:
                    sum_ok = False
        winners = winner_set(matrix)
        top = max(matrix.metric_ids, key=lambda mid: matrix.correlations[mid])
        if top in winners:
            winner_hits += 1
    _report(
        3,
        "equal correlations give t=0, p=0.5 exactly; opposite-order p values "
        f"sum to 1 within 1e-9; top metric won {winner_hits}/100 matrices",
        equal_ok and sum_ok and winner_hits == 100,
    )


def test_criterion_4_minimum_significant_correlation():
    got = min_significant_r(5)
    oracle = min_r_quad(5, 0.05)
    _report(
        4,
        f"min significant |r| at n=5 is {got:.6f} (0.878 +/- 0.001, "
        f"quadrature oracle agrees within 1e-6)",
        abs(got - 0.878) <= 1e-3 and abs(got - oracle) <= 1e-6,
    )


def test_criterion_5_metric_scores():
    rng = random.Random(55)
    vocab = ["the", "cat", "sat", "on", "mat", "dog", "ran", "fast", "a", "big"]

    def sent(lo=1, hi=12):
        return tuple(rng.choice(vocab) for _ in range(rng.randint(lo, hi)))

    identity_ok = True
    for _ in range(50):
        s = sent()
        identity_ok = identity_ok and sentence_bleu(s, [s]) == 1.0
        identity_ok = identity_ok and sentence_bleu(s, [s], DEFAULT_CORPUS_BLEU) == 1.0
        text = " ".join(s)
        identity_ok = identity_ok and chrf(text, [text]) == 1.0
    range_ok = True
    for _ in range(1000):
        hyp = sent(0, 12)
        refs = [sent() for _ in range(rng.randint(1, 3))]
        b = sentence_bleu(hyp, refs)
        c = chrf(" ".join(hyp), [" ".join(r) for r in refs])
        if not (0.0 <= b <= 1.0 and 0.0 <= c <= 1.0):
            range_ok = False
    pairs = [(sent(), [sent()]) for _ in range(30)]
    text_pairs = [(" ".join(h), [" ".join(r) for r in rs]) for h, rs in pairs]
    dup_ok = (
        corpus_bleu(pairs * 2) == corpus_bleu(pairs)
        and corpus_chrf(text_pairs * 2) == corpus_chrf(text_pairs)
    )
    ident_corpus = [(s, [s]) for s, _ in pairs]
    corpus_identity_ok = corpus_bleu(ident_corpus) == 1.0
    catsat = sentence_bleu(
        ("the", "cat", "sat"), [("the", "cat", "sat", "down")],
        DEFAULT_SENTENCE_BLEU,
    )
    catsat_ok = abs(catsat - 0.7165313105737893) <= 1e-4
    _report(
        5,
        "BLEU/chrF: exact 1.0 on identity, in [0,1] on 1000 random pairs, "
        f"corpus score unchanged by duplication, truncated-BP value "
        f"{catsat:.6f} within 1e-4 of exp(-1/3)",
        identity_ok and range_ok and dup_ok and corpus_identity_ok and catsat_ok,
    )


def test_criterion_6_standardization_and_curve():
    rng = random.Random(61)
    raw = []
    for w in range(30):
        for j in range(40):
            raw.append((f"w{w}", f"sys{j % 5}", j, float(rng.randint(0, 100))))
    out, _, _ = standardize_judgments(judgments_from_rows(raw))
    by_worker: dict[str, list[float]] = {}
    for worker_id, score in zip(out.worker_id, out.score):
        by_worker.setdefault(worker_id, []).append(score)
    norm_ok = True
    for vals in by_worker.values():
        n = len(vals)
        mean = math.fsum(vals) / n
        sd = math.sqrt(math.fsum((v - mean) ** 2 for v in vals) / (n - 1))
        if abs(mean) > 1e-12 or abs(sd - 1.0) > 1e-12:
            norm_ok = False

    clean = []
    w = 0
    for item, value in enumerate([10.0, 30.0, 50.0, 70.0, 90.0]):
        for _ in range(8):
            clean.append((f"c{w}", "sys", item, value))
            w += 1
    clean_curve = simulate_assessor_count(
        judgments_from_rows(clean), AssessorSimConfig((1, 2, 4), 8, 0.9)
    )
    clean_ok = all(r == 1.0 for _, r in clean_curve.points)

    noisy = []
    w = 0
    for item in range(1000):
        true = rng.uniform(20, 80)
        for _ in range(8):
            score = min(100.0, max(0.0, true + rng.gauss(0, 10)))
            noisy.append((f"n{w}", "sys", item, score))
            w += 1
    curve = simulate_assessor_count(
        judgments_from_rows(noisy), AssessorSimConfig((1, 2, 4), 8, 0.9)
    )
    rs = [r for _, r in curve.points]
    monotone_ok = all(b >= a - 0.02 for a, b in zip(rs, rs[1:]))
    _report(
        6,
        "z-scored workers have mean 0 and sd 1 within 1e-12; noise-free "
        "items give r=1.0 at every panel size; the noisy stability curve "
        f"{[round(r, 3) for r in rs]} never drops by more than 0.02",
        norm_ok and clean_ok and monotone_ok,
    )


def test_criterion_7_binning_partitions():
    ok = True
    for n in range(3, 501):
        da = judged_da([(("sys", i), float((i * 7919) % n)) for i in range(n)])
        bins = tertile_bins(aligned(MetricScoreTable(), da))
        rows = bins.rows()
        sizes = [sum(row[-1] == label for row in rows) for label in bins.labels]
        if sum(sizes) != n or max(sizes) - min(sizes) > 1:
            ok = False
        if {(s, i) for s, i, *_ in rows} != {("sys", i) for i in range(n)}:
            ok = False
    rng = random.Random(77)
    for _ in range(20):
        judged = [(("sys", i), float(rng.randint(-9, 9))) for i in range(60)]
        shuffled = judged[:]
        rng.shuffle(shuffled)
        bins = tertile_bins(aligned(MetricScoreTable(), judged_da(judged)))
        if bins != tertile_bins(aligned(MetricScoreTable(), judged_da(shuffled))):
            ok = False
    _report(
        7,
        "tertile binning partitions every n in [3, 500] into bins within 1 "
        "of each other, independent of input order",
        ok,
    )


WMT17_EXPECTED_R = {
    "cs-en": 0.971,
    "de-en": 0.923,
    "fi-en": 0.903,
    "lv-en": 0.979,
    "ru-en": 0.912,
    "tr-en": 0.976,
    "zh-en": 0.864,
}


def _read_tsv(path, n_cols):
    rows = []
    for line in path.read_text(encoding="utf-8").splitlines():
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        try:
            float(parts[-1] if n_cols == 2 else parts[2])
        except ValueError:
            continue  # header
        rows.append(parts)
    return rows


def test_criterion_8_wmt17_reproduction():
    root = os.environ.get("METRICVAL_WMT17_DIR")
    root = Path(root) if root else Path(__file__).parent / "data" / "wmt17"
    pairs = [p for p in WMT17_EXPECTED_R if (root / p).is_dir()]
    if not pairs:
        print(
            "criterion 8: SKIP - WMT17 data not found under "
            f"{root} or $METRICVAL_WMT17_DIR"
        )
        pytest.skip("WMT17 data not available")
    scheme = TokenizationScheme("intl")
    problems = []
    for pair in pairs:
        d = root / pair
        ts = load_testset(d / "source.txt", [d / "reference.txt"], pair)
        corpus = build_corpus(ts, load_output_dir(d / "outputs", ts).values())
        table = score_systems(
            corpus, {"bleu": DEFAULT_CORPUS_BLEU}, scheme, aggregate="corpus"
        )
        da = {
            row[0]: float(row[1]) for row in _read_tsv(d / "system_da.tsv", 2)
        }
        shared = sorted(set(da) & set(table["bleu"].system))
        xs = [table["bleu"].system[s] for s in shared]
        ys = [da[s] for s in shared]
        r = abs(pearson(xs, ys))
        if abs(r - WMT17_EXPECTED_R[pair]) > 0.05:
            problems.append(f"{pair} |r|={r:.3f} expected {WMT17_EXPECTED_R[pair]}")
        if pair == "zh-en":
            tau = kendall_tau(xs, ys)
            if abs(tau - 0.767) > 0.05:
                problems.append(f"zh-en tau={tau:.3f} expected 0.767")
            seg_rows = _read_tsv(d / "segment_da.tsv", 3)
            da = judged_da([((row[0], int(row[1])), float(row[2])) for row in seg_rows])
            low, high = tertile_bins(aligned(MetricScoreTable(), da)).boundaries
            if abs(low - (-0.749)) > 0.05 or abs(high - 0.228) > 0.05:
                problems.append(
                    f"zh-en boundaries ({low:.3f}, {high:.3f}) "
                    "expected (-0.749, 0.228)"
                )
    _report(
        8,
        f"WMT17 reproduction over {len(pairs)} pair(s): system BLEU-DA "
        "correlations, zh-en tau and tertile boundaries within 0.05"
        + (f"; problems: {'; '.join(problems)}" if problems else ""),
        not problems,
    )


def test_criterion_9_deterministic_runs(tmp_path, capsys):
    study = _write_study(tmp_path)
    config = {
        "source": study["source"],
        "references": [study["ref"]],
        "outputs_dir": study["outputs"],
        "judgments": study["judgments"],
        "metadata": study["metadata"],
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config), encoding="utf-8")
    json_same = True
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out_a)]) == 0
    assert cli.main(["run", "--config", str(cfg), "--out", str(out_b)]) == 0
    json_same = (out_a / "report.json").read_bytes() == (
        out_b / "report.json"
    ).read_bytes()
    csv_a, csv_b = tmp_path / "ca", tmp_path / "cb"
    for out in (csv_a, csv_b):
        code = cli.main([
            "run", "--config", str(cfg), "--out", str(out),
            "--format", "csv-dir",
        ])
        assert code == 0
    capsys.readouterr()
    names = sorted(p.name for p in csv_a.iterdir())
    csv_same = names == sorted(p.name for p in csv_b.iterdir()) and all(
        (csv_a / name).read_bytes() == (csv_b / name).read_bytes()
        for name in names
    )
    with capsys.disabled():
        _report(
            9,
            "two identical run invocations write byte-identical reports "
            "(json and csv-dir formats)",
            json_same and csv_same,
        )


@pytest.fixture(autouse=True)
def _show_line(capsys):
    """Echo each criterion line even when pytest captures stdout."""
    yield
    captured = capsys.readouterr()
    for line in captured.out.splitlines():
        if line.startswith("criterion "):
            with capsys.disabled():
                print(line)
    # keep anything unexpected visible in the test report
    if captured.err:
        print(captured.err, file=sys.stderr)
