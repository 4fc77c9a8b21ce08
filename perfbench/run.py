"""metricval benchmark: seeded synthetic studies through ``metricval run``.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates the workload's study from the seed (perfbench/synth.py), then:

* set-up: starts a fresh interpreter that only imports ``metricval.cli``
  and loads the study config, several times, and keeps the median;
* untraced runs: starts ``python3 -m metricval.cli run`` as a fresh process
  again and again, at least three times and then while the next run is
  expected to end within S seconds of the start of set-up.  Each run is
  timed from process start until it has exited, and its own peak RSS is
  read from ``os.wait4`` (``RUSAGE_CHILDREN`` would report the maximum over
  all children so far and hide a drop);
* with ``--trace 1``, one more run through perfbench/tracer.py, which wraps
  the layer modules' public functions from outside, and per-layer figures
  from its spans.

Every run passes a correctness gate: exit code 0, no traceback, a
report.json byte-identical to the other runs of this workload and seed
(and, at the default seed, to the digest in perfbench/digests.json), and
system-level Pearson correlations that match a recomputation from the
report's own score and DA columns.  The last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics`` (end-to-end
metrics untraced, per-layer metrics traced); lines before it are for
people.  The program runs from ``src/`` of the checkout this file sits in;
generated files go to ``.perfbench-work/`` and are removed at exit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import synth  # noqa: E402
from tracer import LAYERS, Summary, read_spans  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"
MIN_RUNS = 3
SETUP_REPEATS = 5
# A benchmark run must end within 180 s: children still running this long
# after it started are killed and count as failed.
BUDGET_S = 165.0
SETUP_CODE = (
    "import metricval.cli, metricval.report; "
    "metricval.report.load_config('config.json')"
)


@dataclass
class Child:
    """Outcome of one child process."""

    code: int
    wall: float
    rss_mb: float
    cpu_s: float
    stderr: str


def spawn(argv, cwd: Path, log: Path, timeout: float) -> Child:
    """Run argv to completion; wall time from start until it has exited.

    The child is killed if it is still running after timeout seconds.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    err_path = log.with_suffix(".err")
    with open(log.with_suffix(".out"), "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
        killer = threading.Timer(max(timeout, 0.0), proc.kill)
        killer.start()
        try:
            _, status, rusage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(
        code=proc.returncode,
        wall=wall,
        rss_mb=rusage.ru_maxrss / 1024.0,
        cpu_s=rusage.ru_utime + rusage.ru_stime,
        stderr=err_path.read_text(encoding="utf-8", errors="replace"),
    )


def _pearson(xs, ys) -> float:
    n = len(xs)
    mx = math.fsum(xs) / n
    my = math.fsum(ys) / n
    sxy = math.fsum((x - mx) * (y - my) for x, y in zip(xs, ys))
    sxx = math.fsum((x - mx) ** 2 for x in xs)
    syy = math.fsum((y - my) ** 2 for y in ys)
    return sxy / math.sqrt(sxx * syy)


def check_report(child: Child, report: Path) -> tuple[str | None, str]:
    """Gate one run: returns (report digest or None, problem or "")."""
    if child.code != 0:
        return None, f"exit code {child.code}"
    if "Traceback" in child.stderr:
        return None, "traceback on stderr"
    try:
        data = report.read_bytes()
        doc = json.loads(data)
        da = {s: v for s, v, _ in doc["system_da"]}
        checked = 0
        for row in doc["correlations"]:
            if row["level"] != "system" or row["kind"] != "pearson":
                continue
            scores = {s: v for m, s, v in doc["scores"]["system"] if m == row["metric"]}
            shared = sorted(scores.keys() & da.keys())
            expected = _pearson([scores[s] for s in shared], [da[s] for s in shared])
            if row["n"] != len(shared) or abs(row["value"] - expected) > 1e-12:
                return None, f"system pearson for {row['metric']}: {row['value']!r} != {expected!r}"
            checked += 1
    except (OSError, ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
        return None, f"unreadable report: {exc!r}"
    if not checked:
        return None, "no system-level pearson correlation in the report"
    return hashlib.sha256(data).hexdigest(), ""


class Bench:
    """One benchmark run: a generated study and the gated runs made on it."""

    def __init__(self, workload: synth.Workload, seed: int, work: Path):
        self.end = time.perf_counter() + BUDGET_S
        self.workload = workload
        self.seed = seed
        self.work = work
        self.study = work / "study"
        self.shape = synth.generate(workload, seed, self.study)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: set[str] = set()
        # Every run's report must equal the first run's, and at the default
        # seed the digest recorded for the seed commit.
        self.expected = None
        if seed == synth.DEFAULT_SEED:
            recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))["report"]
            self.expected = recorded.get(workload.name)

    def setup_seconds(self) -> list[float]:
        argv = [sys.executable, "-c", SETUP_CODE]
        # warm-up: bytecode, page cache
        spawn(argv, self.study, self.work / "setup", self.end - time.perf_counter())
        times = []
        for _ in range(SETUP_REPEATS):
            child = spawn(argv, self.study, self.work / "setup", self.end - time.perf_counter())
            if child.code != 0:
                self.problems.append(f"set-up exit code {child.code}: {child.stderr[-200:]}")
            times.append(child.wall)
        return times

    def run_once(self, argv, label: str) -> Child:
        shutil.rmtree(self.study / "out", ignore_errors=True)
        self.attempted += 1
        child = spawn(argv, self.study, self.work / label, self.end - time.perf_counter())
        digest, problem = check_report(child, self.study / "out" / "report.json")
        if digest is not None:
            self.digests.add(digest)
            self.expected = self.expected or digest
            if digest != self.expected:
                problem = f"report.json sha256 {digest} differs from {self.expected}"
        if problem:
            self.failed += 1
            self.problems.append(f"{label} #{self.attempted}: {problem}: {child.stderr[-300:]}")
        return child

    def untraced(self, deadline: float) -> list[Child]:
        """Runs until the next one would end after the deadline (at least
        MIN_RUNS), or until one fails."""
        argv = [sys.executable, "-m", "metricval.cli", "run", "--config", "config.json"]
        runs: list[Child] = []
        while not self.failed and (
            len(runs) < MIN_RUNS or time.perf_counter() + runs[-1].wall <= deadline
        ):
            runs.append(self.run_once(argv, "run"))
        return runs

    def traced(self) -> tuple[Child, Summary]:
        spans = self.work / "spans.bin"
        argv = [sys.executable, str(HERE / "tracer.py"), str(spans), "--",
                "run", "--config", "config.json"]
        child = self.run_once(argv, "traced")
        try:
            summary = Summary(read_spans(str(spans)))
        except (OSError, ValueError, EOFError) as exc:
            self.problems.append(f"traced run left no spans: {exc}")
            summary = Summary({k: [] for k in ("names", "name_id", "parent", "start", "end", "count")})
        return child, summary

def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def layer_metrics(s: Summary, shape: dict, traced: Child, untraced_wall: float,
                  report_bytes: int) -> dict:
    """Per-layer figures from one traced run's spans."""
    rows_read = s.total("judgments.load_judgments")
    kept = s.total("judgments.standardize_judgments")
    m = {
        "corpus.load_s": s.time("corpus.load_testset", "corpus.load_output_dir",
                                "corpus.load_system_outputs", "corpus.read_lines",
                                "corpus.build_corpus", "corpus.load_system_metadata",
                                "corpus.attach_system_metadata"),
        "corpus.validate_s": s.time("corpus.validate_corpus"),
        "judgments.load_s": s.time("judgments.load_judgments"),
        "judgments.rows_read": rows_read,
        "judgments.standardize_s": s.time("judgments.standardize_judgments"),
        "judgments.rows_dropped_ratio": (rows_read - kept) / rows_read if rows_read else 0.0,
        "judgments.segment_da_s": s.time("judgments.segment_da", "judgments.system_da"),
        "judgments.da_points": s.total("judgments.segment_da"),
        "judgments.simulate_s": s.time("judgments.simulate_assessor_count"),
        "metrics.score_s": s.time("metrics.score_systems"),
        "metrics.score_self_s": s.self_seconds("metrics.score_systems"),
        "metrics.chrf_s": s.time("metrics.chrf"),
        "metrics.chrf_calls": s.calls("metrics.chrf"),
        "metrics.tokenize_s": s.time("metrics.tokenize"),
        "metrics.tokenize_calls": s.calls("metrics.tokenize"),
        "metrics.sentence_bleu_s": s.time("metrics.sentence_bleu"),
        "metrics.sentence_bleu_calls": s.calls("metrics.sentence_bleu"),
        "metrics.corpus_bleu_s": s.time("metrics.corpus_bleu"),
        "metrics.corpus_chrf_s": s.time("metrics.corpus_chrf"),
        "metrics.ngram_counts_calls": s.calls("metrics.ngram_counts"),
        "metrics.ngram_counts_per_item": s.calls("metrics.ngram_counts") / shape["items"],
        "metrics.external_load_s": s.time("metrics.load_external_metric_scores"),
        # Rows in the external score files the program was given.
        "metrics.external_rows": shape["external_rows"],
        "metrics.merge_s": s.time("metrics.merge_tables"),
        "metrics.segment_map_calls": s.calls("metrics.MetricScoreTable.segment_map"),
        "metrics.segment_map_s": s.time("metrics.MetricScoreTable.segment_map"),
        "metrics.system_map_calls": s.calls("metrics.MetricScoreTable.system_map"),
        "metrics.system_map_s": s.time("metrics.MetricScoreTable.system_map"),
        "correlation.segment_s": s.time("correlation.segment_correlation"),
        "correlation.segment_points": s.total("correlation.segment_correlation"),
        "correlation.kendall_s": s.time("correlation.kendall_tau",
                                        "correlation.kendall_pair_counts"),
        "correlation.kendall_pairs": s.total("correlation.kendall_pair_counts"),
        "correlation.segment_kendall_pairs": s.total(
            "correlation.kendall_pair_counts", under="correlation.segment_correlation"),
        "correlation.system_s": s.time("correlation.system_correlation"),
        "significance.matrix_s": s.time("significance.significance_matrix"),
        "significance.williams_tests": s.calls("significance.williams_test"),
        "analysis.bins_s": s.time("analysis.tertile_bins"),
        "analysis.distribution_s": s.time("analysis.conditional_distribution"),
        "analysis.failures_s": s.time("analysis.failure_cases"),
        "analysis.groups_s": s.time("analysis.grouped_correlation"),
        "analysis.agreement_s": s.time("analysis.kendall_agreement_report"),
        "report.run_study_self_s": s.self_seconds("report.run_study"),
        "report.emit_s": s.time("report.emit_report"),
        "report.bytes_written": report_bytes,
        "trace.wall_s": traced.wall,
        "trace.overhead_s": traced.wall - untraced_wall,
        "trace.spans": len(s.dur),
        "process.cpu_s": traced.cpu_s,
    }
    return {name: _metric(value, _unit(name)) for name, value in m.items()}


def _unit(name: str) -> str:
    for suffix, unit in (("_s", "s"), ("_ratio", "ratio"), ("_per_item", "calls/item"),
                         ("bytes_written", "bytes")):
        if name.endswith(suffix):
            return unit
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(synth.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "metricval" / "cli.py").is_file():
        print(f"error: no metricval sources under {SRC}", file=sys.stderr)
        return 2

    workload = synth.WORKLOADS[args.workload]
    work = ROOT / ".perfbench-work" / f"{workload.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        bench = Bench(workload, args.seed, work)
        deadline = time.perf_counter() + args.seconds
        setup = bench.setup_seconds()
        runs = bench.untraced(deadline)
        walls = sorted(r.wall for r in runs)
        wall = statistics.median(walls)
        label = f"{workload.name} seed={args.seed}"
        print(f"{label}: {workload.items} items, {bench.shape['judgment_rows']} judgment rows, "
              f"{bench.shape['external_rows']} external rows")
        print(f"{label}: wall_s median {wall:.4f} s over {len(runs)} runs "
              f"(min {walls[0]:.4f}, max {walls[-1]:.4f}); setup_s median "
              f"{statistics.median(setup):.4f} s over {len(setup)}")
        if args.trace:
            traced, summary = bench.traced()
            report = bench.study / "out" / "report.json"
            size = report.stat().st_size if report.exists() else 0
            metrics = layer_metrics(summary, bench.shape, traced, wall, size)
            print(f"{label}: traced wall {traced.wall:.4f} s, {len(summary.dur)} spans")
            shares = [f"{layer} {100 * summary.layer_time(layer) / traced.wall:.1f}%"
                      for layer in LAYERS]
            print(f"{label}: share of traced wall inside each layer: {', '.join(shares)}")
        else:
            metrics = {
                "wall_s": _metric(wall, "s"),
                "items_per_s": _metric(workload.items / wall, "items/s"),
                "peak_rss_mb": _metric(statistics.median(r.rss_mb for r in runs), "MB"),
                "setup_s": _metric(statistics.median(setup), "s"),
            }
        correct = not bench.problems
        print(f"{label}: report sha256 {', '.join(sorted(bench.digests)) or '-'}")
        for problem in bench.problems:
            print(f"{label}: FAILED {problem}")
        print(json.dumps({"correct": correct, "attempted": bench.attempted,
                          "failed": bench.failed, "metrics": metrics}))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run's study is still there
    return 0


if __name__ == "__main__":
    sys.exit(main())
