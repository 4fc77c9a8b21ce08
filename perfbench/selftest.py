"""Self-test of the benchmark's own machinery.

    python3 perfbench/selftest.py

Checks, and exits non-zero if any fails:

* the generator is byte-reproducible: two generations with one seed hash
  identically, another seed differs, and at the default seed every
  workload's inputs hash to the digest recorded in perfbench/digests.json;
* the tracer sees every call: on a small study of each workload, call
  counts from the wrappers equal counts from a ``sys.setprofile`` oracle for
  every wrapped function, and equal the counts the workload's shape implies
  (sentence BLEU and chrF calls per item and metric, m(m-1) Williams tests,
  Kendall pairs enumerated at segment level, ...);
* tracing changes no output: the traced report.json is byte-identical to
  the report of an untraced ``python3 -m metricval.cli run``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import synth  # noqa: E402
from tracer import Summary, Tracer, install  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SMALL_SEGMENTS = 30

failures: list[str] = []


def check(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def check_generator(work: Path) -> None:
    recorded = json.loads((HERE / "digests.json").read_text(encoding="utf-8"))["inputs"]
    seed = synth.DEFAULT_SEED
    for name, workload in synth.WORKLOADS.items():
        digests = []
        for run, s in enumerate((seed, seed, seed + 1)):
            out = work / f"gen-{name}-{run}"
            synth.generate(workload, s, out)
            digests.append(synth.digest_tree(out))
            shutil.rmtree(out)
        check(digests[0] == digests[1], f"{name}: one seed generates identical bytes")
        check(digests[0] != digests[2], f"{name}: another seed generates other bytes")
        check(digests[0] == recorded.get(name),
              f"{name}: inputs at seed {seed} hash to the recorded digest "
              f"({digests[0][:12]} vs {str(recorded.get(name))[:12]})")


def shape_counts(w: synth.Workload, s: Summary) -> list[tuple[str, int, int]]:
    """(what, traced count, count the workload's shape implies)."""
    metrics = w.config.get("metrics", {"bleu": {"kind": "bleu"}, "chrf": {"kind": "chrf"}})
    kinds = Counter(m["kind"] for m in metrics.values())
    m = len(metrics) + w.externals
    n = w.items
    corpus = w.config.get("aggregate") == "corpus"
    kendall = w.config.get("segment_coef", "kendall") == "kendall"
    return [
        ("sentence_bleu calls", s.calls("metrics.sentence_bleu"), n * kinds["bleu"]),
        ("chrf calls", s.calls("metrics.chrf"), n * kinds["chrf"]),
        ("corpus_bleu calls", s.calls("metrics.corpus_bleu"),
         w.systems * kinds["bleu"] if corpus else 0),
        ("external files loaded", s.calls("metrics.load_external_metric_scores"), w.externals),
        ("segment correlations", s.calls("correlation.segment_correlation"), m),
        ("system correlations", s.calls("correlation.system_correlation"), m),
        ("williams tests", s.calls("significance.williams_test"), m * (m - 1)),
        ("assessor simulations", s.calls("judgments.simulate_assessor_count"),
         1 if "assessor_sim" in w.config else 0),
        ("DA points", s.total("judgments.segment_da"), n),
        ("segment points correlated", s.total("correlation.segment_correlation"), m * n),
        ("segment-level kendall pairs",
         s.total("correlation.kendall_pair_counts", under="correlation.segment_correlation"),
         m * n * (n - 1) // 2 if kendall else 0),
    ]


def check_tracer(work: Path) -> None:
    from metricval import cli

    tracer = Tracer()
    wrappers = install(tracer)
    names = {fn.__code__: wrapper.span_name for fn, wrapper in wrappers.items()}
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    for name, workload in synth.WORKLOADS.items():
        small = dataclasses.replace(workload, segments=SMALL_SEGMENTS)
        study = work / f"trace-{name}"
        shape = synth.generate(small, synth.DEFAULT_SEED, study)
        oracle: Counter = Counter()

        def profile(frame, event, arg):
            if event == "call" and frame.f_code in names:
                oracle[names[frame.f_code]] += 1

        tracer.reset()
        cwd = os.getcwd()
        os.chdir(study)
        sys.setprofile(profile)
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(["run", "--config", "config.json"])
        finally:
            sys.setprofile(None)
            os.chdir(cwd)
        check(code == 0, f"{name}: traced run exits 0")
        traced_report = (study / "out" / "report.json").read_bytes()
        spans = Summary(tracer.spans())
        seen = Counter({n: spans.calls(n) for n in spans.by_name})
        missed = sorted(n for n in oracle if oracle[n] != seen[n])
        check(not missed and sum(seen.values()) > 0,
              f"{name}: wrappers count every call the profiler sees "
              f"({sum(seen.values())} calls, mismatched: {missed or 'none'})")
        counts = shape_counts(small, spans)
        wrong = {what: (seen, want) for what, seen, want in counts if seen != want}
        check(not wrong, f"{name}: call counts match the workload shape "
                         f"({len(counts)} checked; traced vs expected: {wrong or 'all equal'})")
        check(spans.total("judgments.load_judgments") == shape["judgment_rows"],
              f"{name}: rows read equal judgment rows generated")

        shutil.rmtree(study / "out")
        proc = subprocess.run(
            [sys.executable, "-m", "metricval.cli", "run", "--config", "config.json"],
            cwd=study, env=env, capture_output=True)
        untraced = (study / "out" / "report.json").read_bytes() if proc.returncode == 0 else b""
        check(hashlib.sha256(untraced).digest() == hashlib.sha256(traced_report).digest(),
              f"{name}: traced report.json is byte-identical to the untraced one")


def main() -> int:
    if not (SRC / "metricval" / "cli.py").is_file():
        print(f"error: no metricval sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work = ROOT / ".perfbench-work" / f"selftest-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        check_generator(work)
        check_tracer(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
