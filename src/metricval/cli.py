"""Command-line entry point.

Every subcommand accepts --config pointing at a JSON document whose keys
match the flag names; flags given on the command line override config keys.
Exit codes: 0 success, 1 usage or configuration problem, 2 data or
alignment problem, 3 statistical precondition not met.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from typing import Any

from . import analysis as an
from . import corpus as cp
from . import correlation as cr
from . import judgments as jd
from . import metrics as mt
from . import report as rp
from . import significance as sg
from .errors import ConfigError, DataError, StatsError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_STATS = 3

# (argparse dest, config key); flags override the config file when supplied.
_FLAG_KEYS = [
    ("source", "source"),
    ("refs", "references"),
    ("outputs", "outputs_dir"),
    ("judgments", "judgments"),
    ("language_pair", "language_pair"),
    ("metadata", "metadata"),
    ("external", "external_scores"),
    ("standardize", "standardize"),
    ("min_count", "min_count"),
    ("tokenizer", "tokenizer"),
    ("lowercase", "lowercase"),
    ("aggregate", "aggregate"),
    ("alpha", "alpha"),
    ("bonferroni", "bonferroni"),
    ("k", "k"),
    ("min_systems", "min_systems"),
    ("seed", "seed"),
    ("out", "out_dir"),
    ("format", "format"),
]


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage errors exit with the documented code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _merged_mapping(args: argparse.Namespace) -> dict[str, Any]:
    """Config-file keys overlaid with any flags the user actually passed."""
    data: dict[str, Any] = {}
    if getattr(args, "config", None):
        path = args.config
        try:
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from None
        if not isinstance(data, dict):
            raise ConfigError(f"config {path} must be a JSON object")
    for dest, key in _FLAG_KEYS:
        value = getattr(args, dest, None)
        if value is not None:
            data[key] = value
    return data


def _require(data: dict[str, Any], keys: list[str], purpose: str) -> None:
    missing = [k for k in keys if not data.get(k)]
    if missing:
        raise ConfigError(
            f"{purpose} requires {', '.join('--' + k.replace('_', '-') for k in missing)} "
            "(as flags or config keys)"
        )


def _load_corpus(data: dict[str, Any]) -> cp.EvaluationCorpus:
    _require(data, ["source", "references", "outputs_dir"], "this subcommand")
    refs = data["references"]
    if isinstance(refs, str):
        refs = [refs]
    test_set = cp.load_testset(data["source"], refs, data.get("language_pair", ""))
    outputs = cp.load_output_dir(data["outputs_dir"], test_set)
    corpus = cp.EvaluationCorpus(test_set, outputs)
    if data.get("metadata"):
        corpus = cp.attach_system_metadata(
            corpus, cp.load_system_metadata(data["metadata"])
        )
    return corpus


def _load_das(
    data: dict[str, Any],
) -> tuple[list[jd.SegmentDA], list[jd.SystemDA], list]:
    _require(data, ["judgments"], "this subcommand")
    raw = jd.load_judgments(data["judgments"])
    standardized, _, findings = jd.standardize_judgments(
        raw, data.get("standardize", jd.ZSCORE)
    )
    segment_das, f = jd.segment_da(standardized, int(data.get("min_count", 1)))
    findings.extend(f)
    return segment_das, jd.system_da(segment_das), findings


def _metric_configs(data: dict[str, Any], args) -> dict:
    if data.get("metrics"):
        metrics = {
            metric_id: rp._metric_from_mapping(metric_id, conf)
            for metric_id, conf in data["metrics"].items()
        }
    else:
        metrics = {"bleu": mt.DEFAULT_SENTENCE_BLEU, "chrf": mt.DEFAULT_CHRF}
    smoothing = getattr(args, "smoothing", None)
    if smoothing is not None:
        smooth, k, min_order = mt.parse_smoothing(smoothing)
        metrics = {
            metric_id: replace(
                conf, smoothing=smooth, smooth_k=k, smooth_min_order=min_order
            )
            if isinstance(conf, mt.BleuConfig)
            else conf
            for metric_id, conf in metrics.items()
        }
    return metrics


def _scheme(data: dict[str, Any]) -> mt.TokenizationScheme:
    return mt.TokenizationScheme(
        data.get("tokenizer", "whitespace"), rp._flag(data, "lowercase", False)
    )


def _build_table(
    data: dict[str, Any], args, corpus: cp.EvaluationCorpus
) -> mt.MetricScoreTable:
    table = mt.score_systems(
        corpus, _metric_configs(data, args), _scheme(data),
        data.get("aggregate", "mean"),
    )
    ext = data.get("external_scores", ())
    if isinstance(ext, str):
        ext = [ext]
    for path in ext:
        table = mt.merge_tables(table, mt.load_external_metric_scores(path, corpus))
    return table


def _print_findings(findings) -> None:
    for f in findings:
        code = f" [{f.code}]" if f.code else ""
        print(f"{f.severity}{code}: {f.message}", file=sys.stderr)


def _pick_metric(table: mt.MetricScoreTable, args) -> str:
    metric_id = getattr(args, "metric", None)
    if metric_id is None:
        available = table.metric_ids()
        if len(available) == 1:
            return available[0]
        raise ConfigError(
            f"--metric is required when several are scored; have {available}"
        )
    if metric_id not in table.provenance:
        raise ConfigError(
            f"unknown metric {metric_id!r}; scored metrics: {table.metric_ids()}"
        )
    return metric_id


def _cmd_validate(args) -> int:
    data = _merged_mapping(args)
    corpus = _load_corpus(data)
    policy = cp.ValidationPolicy(int(data.get("min_systems", cp.DEFAULT_MIN_SYSTEMS)))
    findings = cp.validate_corpus(corpus, policy)
    _print_findings(findings)
    print(
        f"ok: {len(corpus.outputs)} systems, {len(corpus.test_set)} segments, "
        f"{len(corpus.test_set.segments[0].references)} reference(s), "
        f"{len(findings)} finding(s)"
    )
    return EXIT_OK


def _cmd_da(args) -> int:
    data = _merged_mapping(args)
    segment_das, system_das, findings = _load_das(data)
    _print_findings(findings)
    if args.level == "system":
        sys.stdout.write(jd.system_da_to_tsv(system_das))
    else:
        sys.stdout.write(jd.segment_da_to_tsv(segment_das))
    return EXIT_OK


def _cmd_simulate_n(args) -> int:
    data = _merged_mapping(args)
    _require(data, ["judgments"], "simulate-n")
    sim_data = data.get("assessor_sim") or {}
    i_values = args.i_values or sim_data.get("i_values")
    n_total = args.n_total if args.n_total is not None else sim_data.get("n_total")
    target_r = args.target_r if args.target_r is not None else sim_data.get("target_r")
    if not i_values or n_total is None or target_r is None:
        raise ConfigError(
            "simulate-n requires --i-values, --n-total and --target-r "
            "(or an assessor_sim config block)"
        )
    if isinstance(i_values, str):
        i_values = [part.strip() for part in i_values.split(",") if part.strip()]
    try:
        config = jd.AssessorSimConfig(
            i_values=tuple(int(i) for i in i_values),
            n_total=int(n_total),
            target_r=float(target_r),
            shuffle_seed=int(data.get("seed", 0)),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    raw = jd.load_judgments(data["judgments"])
    curve = jd.simulate_assessor_count(raw, config)
    print("i\tr")
    for i, r in curve.points:
        print(f"{i}\t{r!r}")
    rec = curve.recommended
    print(f"# items={curve.n_items} n_total={curve.n_total} target_r={curve.target_r}")
    print(f"# recommended\t{rec if rec is not None else 'none'}")
    return EXIT_OK


def _cmd_score(args) -> int:
    data = _merged_mapping(args)
    corpus = _load_corpus(data)
    table = _build_table(data, args, corpus)
    sys.stdout.write(mt.dump_scores(table))
    return EXIT_OK


def _cmd_correlate(args) -> int:
    data = _merged_mapping(args)
    corpus = _load_corpus(data)
    table = _build_table(data, args, corpus)
    segment_das, system_das, findings = _load_das(data)
    levels = ("segment", "system") if args.level == "both" else (args.level,)
    rows = []
    for metric_id in table.metric_ids():
        for level in levels:
            if level == "segment":
                kind = args.coef or data.get("segment_coef", "kendall")
                result, f = cr.segment_correlation(table, segment_das, metric_id, kind)
            else:
                kind = args.coef or data.get("system_coef", "pearson")
                result, f = cr.system_correlation(table, system_das, metric_id, kind)
            findings.extend(f)
            rows.append((metric_id, result))
    _print_findings(findings)
    sys.stdout.write(cr.correlations_to_csv(rows))
    return EXIT_OK


def _shared_system_vectors(table, system_das):
    by_system = jd.da_system_map(system_das)
    shared = set(by_system)
    for metric_id in table.metric_ids():
        shared &= set(table.system_map(metric_id))
    systems = sorted(shared)
    vectors = {
        metric_id: [table.system_map(metric_id)[s] for s in systems]
        for metric_id in table.metric_ids()
    }
    return systems, vectors, [by_system[s] for s in systems]


def _cmd_signif(args) -> int:
    data = _merged_mapping(args)
    corpus = _load_corpus(data)
    table = _build_table(data, args, corpus)
    _, system_das, findings = _load_das(data)
    _print_findings(findings)
    systems, vectors, da_vector = _shared_system_vectors(table, system_das)
    matrix = sg.significance_matrix(
        vectors,
        da_vector,
        float(data.get("alpha", sg.DEFAULT_ALPHA)),
        bonferroni=rp._flag(data, "bonferroni", False),
    )
    if args.matrix_format == "csv":
        sys.stdout.write(sg.matrix_to_csv(matrix))
    else:
        print(
            f"n={matrix.n} systems, alpha={matrix.alpha:g}"
            + (f", bonferroni -> {matrix.effective_alpha:g}" if matrix.bonferroni else "")
        )
        sys.stdout.write(sg.matrix_to_text(matrix))
    print("winners: " + ", ".join(sg.winner_set(matrix)))
    return EXIT_OK


def _cmd_bins(args) -> int:
    data = _merged_mapping(args)
    corpus = _load_corpus(data)
    table = _build_table(data, args, corpus)
    segment_das, _, findings = _load_das(data)
    _print_findings(findings)
    bins = an.tertile_bins(segment_das)
    metric_id = _pick_metric(table, args)
    low, high = bins.boundaries
    print(f"# boundaries\t{low!r}\t{high!r}", file=sys.stderr)
    summaries = an.conditional_distribution(table, metric_id, bins)
    for label in an.BIN_LABELS:
        b = summaries[label]
        print(
            f"# {label}\tcount={b.count}\tmedian={b.median!r}\t"
            f"q1={b.q1!r}\tq3={b.q3!r}",
            file=sys.stderr,
        )
    sys.stdout.write(an.bins_to_csv(bins, table, metric_id))
    return EXIT_OK


def _cmd_failures(args) -> int:
    data = _merged_mapping(args)
    corpus = _load_corpus(data)
    table = _build_table(data, args, corpus)
    segment_das, _, findings = _load_das(data)
    bins = an.tertile_bins(segment_das)
    metric_id = _pick_metric(table, args)
    cases, f = an.failure_cases(
        corpus, table, metric_id, bins, int(data.get("k", 5))
    )
    findings.extend(f)
    _print_findings(findings)
    if args.case_format == "text":
        sys.stdout.write(an.failures_to_text(cases))
    else:
        sys.stdout.write(an.failures_to_json(cases))
        sys.stdout.write("\n")
    return EXIT_OK


def _cmd_groups(args) -> int:
    data = _merged_mapping(args)
    corpus = _load_corpus(data)
    table = _build_table(data, args, corpus)
    _, system_das, findings = _load_das(data)
    metric_id = _pick_metric(table, args)
    rows, f = an.grouped_correlation(
        system_das, table, metric_id, corpus.meta, args.group_by,
        data.get("system_coef", "pearson"),
    )
    findings.extend(f)
    _print_findings(findings)
    sys.stdout.write(an.groups_to_csv(rows))
    return EXIT_OK


def _cmd_agreement(args) -> int:
    data = _merged_mapping(args)
    corpus = _load_corpus(data)
    table = _build_table(data, args, corpus)
    _, system_das, findings = _load_das(data)
    _print_findings(findings)
    metric_id = _pick_metric(table, args)
    a = an.kendall_agreement_report(system_das, table, metric_id)
    print(
        f"{a.metric_id}: tau={a.tau!r} over {a.n_systems} systems "
        f"({a.concordant} concordant, {a.discordant} discordant pairs)"
    )
    print(a.interpretation)
    print(a.note)
    return EXIT_OK


def _study_config(args) -> rp.StudyConfig:
    return rp.config_from_mapping(_merged_mapping(args))


def _cmd_run(args) -> int:
    config = _study_config(args)
    bundle = rp.run_study(config)
    _print_findings(bundle.findings)
    written = rp.emit_report(bundle, config.format, config.out_dir)
    for path in written:
        print(f"wrote {path}")
    return EXIT_OK


def _cmd_report(args) -> int:
    config = _study_config(args)
    bundle = rp.run_study(config)
    _print_findings(bundle.findings)
    if config.format == "csv-dir":
        written = rp.emit_report(bundle, config.format, config.out_dir)
        for path in written:
            print(f"wrote {path}")
    elif config.format == "json":
        doc = json.dumps(
            rp.bundle_to_dict(bundle), indent=2, sort_keys=True, ensure_ascii=False
        )
        print(doc)
    else:
        sys.stdout.write(rp._bundle_text(bundle))
    return EXIT_OK


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file; flags override its keys")
    parser.add_argument("--seed", type=int, help="seed for any randomized step")


def _add_corpus_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--source", help="source text, one segment per line")
    parser.add_argument(
        "--ref", dest="refs", action="append",
        help="reference file, repeatable for multiple references",
    )
    parser.add_argument("--outputs", help="directory of system output files")
    parser.add_argument("--language-pair", help="tag recorded in outputs")
    parser.add_argument("--metadata", help="CSV of system_id,system_type,track")


def _add_judgment_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--judgments", help="CSV of worker_id,system_id,segment_id,score")
    parser.add_argument(
        "--standardize", choices=(jd.CENTER, jd.ZSCORE),
        help="per-worker standardization mode (default zscore)",
    )
    parser.add_argument(
        "--min-count", type=int, help="judgments required per (system, segment)"
    )


def _add_metric_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--tokenizer", choices=mt.TOKENIZER_NAMES, help="tokenization for BLEU"
    )
    parser.add_argument(
        "--lowercase", action="store_const", const=True, default=None,
        help="lowercase before scoring",
    )
    parser.add_argument(
        "--aggregate", choices=mt.AGGREGATE_MODES,
        help="system score: mean of sentence scores, or pooled corpus statistics",
    )
    parser.add_argument(
        "--smoothing",
        help="BLEU smoothing: none, exp-decay, add-K, or add-K@ORDER",
    )
    parser.add_argument(
        "--external", action="append",
        help="TSV of externally computed scores, repeatable",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="metricval",
        description="Validate automatic MT metrics against human DA judgments.",
    )
    sub = parser.add_subparsers(dest="command", metavar="SUBCOMMAND")

    p = sub.add_parser("validate", help="check corpus alignment and study design")
    _add_common(p)
    _add_corpus_args(p)
    p.add_argument("--min-systems", type=int, help="systems needed for significance")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("da", help="standardize judgments and print DA scores")
    _add_common(p)
    _add_judgment_args(p)
    p.add_argument(
        "--level", choices=("segment", "system"), default="segment",
        help="granularity of the printed table",
    )
    p.set_defaults(func=_cmd_da)

    p = sub.add_parser(
        "simulate-n", help="estimate how many assessors per item are enough"
    )
    _add_common(p)
    _add_judgment_args(p)
    p.add_argument("--i-values", help="comma-separated candidate counts, e.g. 1,2,4")
    p.add_argument("--n-total", type=int, help="judgments used per item")
    p.add_argument("--target-r", type=float, help="correlation considered sufficient")
    p.set_defaults(func=_cmd_simulate_n)

    p = sub.add_parser("score", help="score every system with the configured metrics")
    _add_common(p)
    _add_corpus_args(p)
    _add_metric_args(p)
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("correlate", help="correlate metric scores with DA")
    _add_common(p)
    _add_corpus_args(p)
    _add_judgment_args(p)
    _add_metric_args(p)
    p.add_argument(
        "--level", choices=("segment", "system", "both"), default="both",
        help="correlation granularity",
    )
    p.add_argument(
        "--coef", choices=sorted(cr.COEFFICIENTS),
        help="coefficient (default kendall at segment level, pearson at system)",
    )
    p.set_defaults(func=_cmd_correlate)

    p = sub.add_parser(
        "signif", help="pairwise significance of correlation differences"
    )
    _add_common(p)
    _add_corpus_args(p)
    _add_judgment_args(p)
    _add_metric_args(p)
    p.add_argument("--alpha", type=float, help="significance level (default 0.05)")
    p.add_argument(
        "--bonferroni", action="store_const", const=True, default=None,
        help="divide alpha by the number of metric pairs",
    )
    p.add_argument(
        "--matrix-format", choices=("text", "csv"), default="text",
        help="p-value matrix rendering",
    )
    p.set_defaults(func=_cmd_signif)

    p = sub.add_parser("bins", help="split segments into DA tertiles")
    _add_common(p)
    _add_corpus_args(p)
    _add_judgment_args(p)
    _add_metric_args(p)
    p.add_argument("--metric", help="metric to tabulate (defaults when only one)")
    p.set_defaults(func=_cmd_bins)

    p = sub.add_parser(
        "failures", help="mine the largest metric-human disagreements"
    )
    _add_common(p)
    _add_corpus_args(p)
    _add_judgment_args(p)
    _add_metric_args(p)
    p.add_argument("--metric", help="metric to mine (defaults when only one)")
    p.add_argument("--k", type=int, help="cases per direction (default 5)")
    p.add_argument(
        "--case-format", choices=("json", "text"), default="json",
        help="failure case rendering",
    )
    p.set_defaults(func=_cmd_failures)

    p = sub.add_parser("groups", help="correlation split by system metadata")
    _add_common(p)
    _add_corpus_args(p)
    _add_judgment_args(p)
    _add_metric_args(p)
    p.add_argument("--metric", help="metric to analyze (defaults when only one)")
    p.add_argument(
        "--group-by", choices=an.GROUP_FIELDS, default="system_type",
        help="metadata field to split on",
    )
    p.set_defaults(func=_cmd_groups)

    p = sub.add_parser(
        "agreement", help="plain-words Kendall agreement with the human ranking"
    )
    _add_common(p)
    _add_corpus_args(p)
    _add_judgment_args(p)
    _add_metric_args(p)
    p.add_argument("--metric", help="metric to describe (defaults when only one)")
    p.set_defaults(func=_cmd_agreement)

    for name, func, blurb in (
        ("run", _cmd_run, "run the full study and write a report bundle"),
        ("report", _cmd_report, "run the full study and print the report"),
    ):
        p = sub.add_parser(name, help=blurb)
        _add_common(p)
        _add_corpus_args(p)
        _add_judgment_args(p)
        _add_metric_args(p)
        p.add_argument("--alpha", type=float, help="significance level")
        p.add_argument(
            "--bonferroni", action="store_const", const=True, default=None,
            help="divide alpha by the number of metric pairs",
        )
        p.add_argument("--k", type=int, help="failure cases per direction")
        p.add_argument("--min-systems", type=int, help="systems wanted for the design")
        p.add_argument("--out", help="output directory")
        p.add_argument(
            "--format", choices=rp.FORMATS, help="report format (default json)"
        )
        p.set_defaults(func=func)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "func", None) is None:
        parser.print_help(sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except StatsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STATS
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
