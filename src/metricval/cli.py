"""Command-line entry point.

Every subcommand accepts --config pointing at a JSON document whose keys
match the flag names; flags given on the command line override config keys.
Each subcommand validates the two as one StudyConfig before any work starts
and runs the stages of report.run_study it needs, so subcommands differ only
in which stages they run and how they print the result.
Exit codes: 0 success, 1 usage or configuration problem, 2 data or
alignment problem, 3 statistical precondition not met.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

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

# The study's input files and the flags that set them.  A subcommand needs
# exactly the inputs it has flags for, so argparse's namespace tells which.
_INPUT_FLAGS = dict(zip(rp.INPUT_KEYS, ("--source", "--ref", "--outputs", "--judgments")))


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage errors exit with the documented code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _study_config(args: argparse.Namespace) -> rp.StudyConfig:
    """--config overlaid with the flags given, validated as one StudyConfig.

    Flag dests are config keys, except --i-values, --n-total and --target-r,
    which overlay the assessor_sim block, and --smoothing, which sets the
    smoothing of every BLEU metric.

    Raises:
        ConfigError: an invalid value, or a missing input the subcommand needs.
        DataError: a path the subcommand has a flag for does not exist.
    """
    flags = vars(args)
    data = rp.read_config_mapping(args.config) if args.config else {}
    data.update(
        (key, value) for key, value in flags.items()
        if key in rp.CONFIG_KEYS and value is not None
    )
    sim = {key: flags[key] for key in rp.SIM_KINDS if flags.get(key) is not None}
    if sim:
        block = data.get("assessor_sim") or {}
        data["assessor_sim"] = {**block, **sim} if isinstance(block, dict) else block
    # inputs the subcommand does not read may be absent
    config = rp.config_from_mapping({**dict.fromkeys(_INPUT_FLAGS, ""), **data})
    missing = [key for key in _INPUT_FLAGS if key in flags and not data.get(key)]
    if missing:
        raise ConfigError(
            f"{args.command} requires "
            + ", ".join(f"{_INPUT_FLAGS[key]} / {key}" for key in missing)
            + " (as flags or config keys)"
        )
    rp._check_paths(config, [key for key in rp.PATH_KEYS if key in flags])
    if flags.get("smoothing") is not None:
        smooth, k, min_order = mt.parse_smoothing(flags["smoothing"])
        metrics = {
            metric_id: replace(
                conf, smoothing=smooth, smooth_k=k, smooth_min_order=min_order
            )
            if isinstance(conf, mt.BleuConfig)
            else conf
            for metric_id, conf in config.metrics.items()
        }
        config = replace(config, metrics=metrics)
    return config


def _scored_study(args):
    """(config, corpus, segment level, system level): the stages every
    analysis needs, each level the table aligned with its DA.

    The DA findings are printed here, so they reach stderr even when the
    analysis then fails.
    """
    config = _study_config(args)
    corpus = rp.load_corpus(config)
    table = rp.build_table(config, corpus)
    das = rp.load_das(config)
    _print_findings(das.findings)
    return config, corpus, cr.aligned(table, das.segment), cr.aligned(table, das.system)


def _print_findings(findings) -> None:
    for f in findings:
        print(f, file=sys.stderr)


def _print_table(table: rp.Table, tsv: bool = False) -> None:
    """render_table's text on stdout, written chunk by chunk."""
    sys.stdout.writelines(rp._table_chunks(table, tsv))


def _pick_metric(study: cr.Aligned, args) -> str:
    available = list(study.metric_ids)
    if args.metric is None and len(available) == 1:
        return available[0]
    if args.metric is None:
        raise ConfigError(f"--metric is required when several are scored; have {available}")
    if args.metric not in available:
        raise ConfigError(f"unknown metric {args.metric!r}; scored metrics: {available}")
    return args.metric


def _cmd_validate(args) -> int:
    config = _study_config(args)
    corpus = rp.load_corpus(config)
    findings = cp.validate_corpus(corpus, config.min_systems)
    _print_findings(findings)
    print(
        f"ok: {len(corpus.outputs)} systems, {len(corpus.test_set)} segments, "
        f"{len(corpus.test_set.segments[0].references)} reference(s), "
        f"{len(findings)} finding(s)"
    )
    return EXIT_OK


def _cmd_da(args) -> int:
    das = rp.load_das(_study_config(args))
    _print_findings(das.findings)
    _print_table(rp._da_table(getattr(das, args.level)), tsv=True)
    return EXIT_OK


def _cmd_simulate_n(args) -> int:
    config = _study_config(args)
    if config.assessor_sim is None:
        raise ConfigError(
            "simulate-n requires --i-values, --n-total and --target-r "
            "(or an assessor_sim config block)"
        )
    raw = jd.load_judgments(config.judgments)
    curve = jd.simulate_assessor_count(raw, config.assessor_sim)
    print(
        f"# items={curve.n_items} n_total={curve.n_total} target_r={curve.target_r}",
        file=sys.stderr,
    )
    _print_table(rp.assessor_curve_rows(curve), tsv=True)
    return EXIT_OK


def _cmd_score(args) -> int:
    config = _study_config(args)
    table = rp.build_table(config, rp.load_corpus(config))
    sys.stdout.writelines(mt._score_chunks(table))
    return EXIT_OK


def _cmd_correlate(args) -> int:
    config, _, segment, system = _scored_study(args)
    findings = []
    rows = []
    for metric_id in segment.metric_ids:
        for level, kind, correlate, study in rp.correlation_levels(config, segment, system):
            if args.level in (level, "both"):
                result, f = correlate(study, metric_id, args.coef or kind)
                findings.extend(f)
                rows.append((metric_id, result))
    _print_findings(findings)
    _print_table(rp.correlations_rows(rows))
    return EXIT_OK


def _cmd_signif(args) -> int:
    config, _, _, system = _scored_study(args)
    matrix = rp.system_significance(config, system)
    if args.matrix_format == "csv":
        _print_table(rp.significance_rows(matrix))
    else:
        print(
            f"n={matrix.n} systems, alpha={matrix.alpha:g}"
            + (f", bonferroni -> {matrix.effective_alpha:g}" if matrix.bonferroni else "")
        )
        sys.stdout.write(sg.matrix_to_text(matrix))
    print("winners: " + ", ".join(sg.winner_set(matrix)))
    return EXIT_OK


def _binned_study(args):
    """(config, corpus, DA bins): the bins run makes, with its off-corpus
    finding printed."""
    config, corpus, segment, _ = _scored_study(args)
    binned, findings = rp.binned_da(corpus, segment)
    _print_findings(findings)
    return config, corpus, an.tertile_bins(binned)


def _cmd_bins(args) -> int:
    _, _, bins = _binned_study(args)
    metric_id = _pick_metric(bins.study, args)
    low, high = bins.boundaries
    print(f"# boundaries\t{low!r}\t{high!r}", file=sys.stderr)
    summaries = an.conditional_distribution(bins, metric_id)
    for label in an.BIN_LABELS:
        b = summaries[label]
        print(
            f"# {label}\tcount={b.count}\tmedian={b.median!r}\t"
            f"q1={b.q1!r}\tq3={b.q3!r}",
            file=sys.stderr,
        )
    _print_table(rp._bins_table(bins, metric_id))
    return EXIT_OK


def _cmd_failures(args) -> int:
    config, corpus, bins = _binned_study(args)
    metric_id = _pick_metric(bins.study, args)
    cases, f = an.failure_cases(corpus, bins, metric_id, config.k)
    _print_findings(f)
    if args.case_format == "text":
        sys.stdout.write(an.failures_to_text(cases))
    else:
        sys.stdout.write(an.failures_to_json(cases))
    return EXIT_OK


def _cmd_groups(args) -> int:
    config, corpus, _, system = _scored_study(args)
    metric_id = _pick_metric(system, args)
    rows, f = an.grouped_correlation(
        system, metric_id, corpus.meta, args.group_by, config.system_coef
    )
    _print_findings(f)
    _print_table(rp.groups_rows(rows))
    return EXIT_OK


def _cmd_agreement(args) -> int:
    _, _, _, system = _scored_study(args)
    metric_id = _pick_metric(system, args)
    a = an.kendall_agreement_report(system, metric_id)
    print(
        f"{a.metric_id}: tau={a.tau!r} over {a.n_systems} systems "
        f"({a.concordant} concordant, {a.discordant} discordant pairs)"
    )
    print(a.interpretation)
    print(a.note)
    return EXIT_OK


def _cmd_run(args) -> int:
    """run writes the report to out_dir; report prints it unless it is a csv-dir."""
    config = _study_config(args)
    bundle = rp.run_study(config)
    _print_findings(bundle.findings)
    if args.command == "report" and config.format != "csv-dir":
        sys.stdout.writelines(rp._report_chunks(bundle, config.format))
    else:
        for path in rp.emit_report(bundle, config.format, config.out_dir):
            print(f"wrote {path}")
    return EXIT_OK


def _int_list(text: str) -> list[int]:
    """--i-values' comma-separated integers."""
    try:
        return [int(i) for i in text.split(",") if i.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid value {text!r}: comma-separated integers expected, e.g. 1,2,4"
        ) from None


def _add_corpus_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--source", help="source text, one segment per line")
    parser.add_argument(
        "--ref", dest="references", action="append",
        help="reference file, repeatable for multiple references",
    )
    parser.add_argument(
        "--outputs", dest="outputs_dir", help="directory of system output files"
    )
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
        help="smoothing of every BLEU metric: none, exp-decay, add-K, "
        "or add-K@ORDER",
    )
    parser.add_argument(
        "--external", dest="external_scores", action="append",
        help="TSV of externally computed scores, repeatable",
    )


def _add_significance_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--alpha", type=float, help="significance level (default 0.05)")
    parser.add_argument(
        "--bonferroni", action="store_const", const=True, default=None,
        help="divide alpha by the number of metric pairs",
    )


_STUDY_ARGS = (_add_corpus_args, _add_judgment_args, _add_metric_args)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="metricval",
        description="Validate automatic MT metrics against human DA judgments.",
    )
    sub = parser.add_subparsers(dest="command", metavar="SUBCOMMAND")

    def add(name, func, blurb, arg_groups):
        p = sub.add_parser(name, help=blurb)
        p.add_argument("--config", help="JSON config file; flags override its keys")
        p.add_argument("--seed", type=int, help="seed for any randomized step")
        for add_args in arg_groups:
            add_args(p)
        p.set_defaults(func=func)
        return p

    p = add("validate", _cmd_validate, "check corpus alignment and study design",
            [_add_corpus_args])
    p.add_argument("--min-systems", type=int, help="systems needed for significance")

    p = add("da", _cmd_da, "standardize judgments and print DA scores",
            [_add_judgment_args])
    p.add_argument(
        "--level", choices=("segment", "system"), default="segment",
        help="granularity of the printed table",
    )

    p = add("simulate-n", _cmd_simulate_n,
            "estimate how many assessors per item are enough", [_add_judgment_args])
    p.add_argument("--i-values", type=_int_list,
                   help="comma-separated candidate counts, e.g. 1,2,4")
    p.add_argument("--n-total", type=int, help="judgments used per item")
    p.add_argument("--target-r", type=float, help="correlation considered sufficient")

    add("score", _cmd_score, "score every system with the configured metrics",
        [_add_corpus_args, _add_metric_args])

    p = add("correlate", _cmd_correlate, "correlate metric scores with DA", _STUDY_ARGS)
    p.add_argument(
        "--level", choices=("segment", "system", "both"), default="both",
        help="correlation granularity",
    )
    p.add_argument(
        "--coef", choices=sorted(cr.COEFFICIENTS),
        help="coefficient (default kendall at segment level, pearson at system)",
    )
    p.add_argument(
        "--min-systems", type=int, help="systems below which system-level r is flagged"
    )

    p = add("signif", _cmd_signif, "pairwise significance of correlation differences",
            [*_STUDY_ARGS, _add_significance_args])
    p.add_argument(
        "--matrix-format", choices=("text", "csv"), default="text",
        help="p-value matrix rendering",
    )

    p = add("bins", _cmd_bins, "split segments into DA tertiles", _STUDY_ARGS)
    p.add_argument("--metric", help="metric to tabulate (defaults when only one)")

    p = add("failures", _cmd_failures, "mine the largest metric-human disagreements",
            _STUDY_ARGS)
    p.add_argument("--metric", help="metric to mine (defaults when only one)")
    p.add_argument("--k", type=int, help="cases per direction (default 5)")
    p.add_argument(
        "--case-format", choices=("json", "text"), default="json",
        help="failure case rendering",
    )

    p = add("groups", _cmd_groups, "correlation split by system metadata", _STUDY_ARGS)
    p.add_argument("--metric", help="metric to analyze (defaults when only one)")
    p.add_argument(
        "--group-by", choices=an.GROUP_FIELDS, default="system_type",
        help="metadata field to split on",
    )

    p = add("agreement", _cmd_agreement,
            "plain-words Kendall agreement with the human ranking", _STUDY_ARGS)
    p.add_argument("--metric", help="metric to describe (defaults when only one)")

    for name, blurb in (
        ("run", "run the full study and write a report bundle"),
        ("report", "run the full study and print the report"),
    ):
        p = add(name, _cmd_run, blurb, [*_STUDY_ARGS, _add_significance_args])
        p.add_argument("--k", type=int, help="failure cases per direction")
        p.add_argument("--min-systems", type=int, help="systems wanted for the design")
        p.add_argument("--out", dest="out_dir", help="output directory")
        p.add_argument(
            "--format", choices=rp.FORMATS, help="report format (default json)"
        )

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
