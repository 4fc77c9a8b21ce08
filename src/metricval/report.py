"""The full study pipeline: configuration, execution, and report emission.

run_study strings the modules together: ingest and validate the corpus,
standardize judgments into DA scores, score systems, correlate, run the
significance matrix, and produce the diagnostic analyses.  Analyses whose
preconditions fail are skipped with an explanatory finding rather than
silently omitted, and fatal ingestion problems raise.  Its stages
(load_corpus, load_das, build_table, system_significance) take the same
StudyConfig and are what every CLI subcommand runs, so a subcommand differs
from a full run only in which stages it runs and how it prints them.

A ReportBundle is self-describing: it embeds the full configuration echo,
the seed, and every scoring signature, and emitting the same bundle twice
produces byte-identical files.
"""

from __future__ import annotations

import csv
import io
import json
import re
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Iterable, Mapping, NamedTuple

from . import analysis as an
from . import corpus as cp
from . import correlation as corr
from . import judgments as jd
from . import metrics as mt
from . import significance as sg
from .errors import (
    ConfigError,
    DataError,
    InsufficientDataError,
    StatsError,
    UndefinedCorrelationError,
)
from .findings import Finding, error

FORMATS = ("json", "csv-dir", "text")

_DEFAULT_METRICS: dict[str, mt.BleuConfig | mt.ChrfConfig] = {
    "bleu": mt.DEFAULT_SENTENCE_BLEU,
    "chrf": mt.DEFAULT_CHRF,
}


@dataclass(frozen=True)
class StudyConfig:
    """Everything a study run depends on, in one declarative object.

    Attributes mirror the config-file keys one to one; see from_mapping.
    """

    source: str
    references: tuple[str, ...]
    outputs_dir: str
    judgments: str
    language_pair: str = ""
    metadata: str | None = None
    external_scores: tuple[str, ...] = ()
    standardize: str = jd.ZSCORE
    min_count: int = 1
    metrics: Mapping[str, mt.BleuConfig | mt.ChrfConfig] = field(
        default_factory=lambda: dict(_DEFAULT_METRICS)
    )
    tokenizer: str = "whitespace"
    lowercase: bool = False
    aggregate: str = "mean"
    alpha: float = 0.05
    segment_coef: str = "kendall"
    system_coef: str = "pearson"
    bonferroni: bool = False
    k: int = 5
    min_systems: int = 5
    assessor_sim: jd.AssessorSimConfig | None = None
    seed: int = 0
    out_dir: str = "study-out"
    format: str = "json"

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError(f"alpha must be in (0, 1), got {self.alpha}")
        if self.standardize not in (jd.CENTER, jd.ZSCORE):
            raise ConfigError(f"unknown standardize mode {self.standardize!r}")
        if self.aggregate not in mt.AGGREGATE_MODES:
            raise ConfigError(f"unknown aggregate {self.aggregate!r}")
        if self.tokenizer not in mt.TOKENIZER_NAMES:
            raise ConfigError(f"unknown tokenizer {self.tokenizer!r}")
        for which in (self.segment_coef, self.system_coef):
            if which not in corr.COEFFICIENTS:
                raise ConfigError(f"unknown coefficient {which!r}")
        if self.k < 1:
            raise ConfigError(f"k must be positive, got {self.k}")
        if self.min_count < 1:
            raise ConfigError(f"min_count must be positive, got {self.min_count}")
        if self.min_systems < 1:
            raise ConfigError(f"min_systems must be positive, got {self.min_systems}")
        if self.format not in FORMATS:
            raise ConfigError(f"unknown format {self.format!r}")
        if not self.metrics:
            raise ConfigError("at least one metric must be configured")

    @property
    def scheme(self) -> mt.TokenizationScheme:
        return mt.TokenizationScheme(self.tokenizer, self.lowercase)


CONFIG_KEYS = frozenset(f.name for f in fields(StudyConfig))


def _flag(data: Mapping[str, Any], key: str, default: bool) -> bool:
    """A boolean config value; only JSON true and false are accepted."""
    value = data.get(key, default)
    if not isinstance(value, bool):
        raise ConfigError(f"config key {key!r} must be true or false, got {value!r}")
    return value


def _metric_from_mapping(metric_id: str, data: Mapping[str, Any]):
    if not isinstance(data, Mapping):
        raise ConfigError(f"metric {metric_id!r} must be a mapping")
    kind = data.get("kind")
    known_bleu = {
        "kind", "max_n", "smoothing", "k", "min_order",
        "brevity_penalty", "truncation",
    }
    known_chrf = {"kind", "char_n", "beta", "whitespace"}
    if kind == "bleu":
        unknown = set(data) - known_bleu
        if unknown:
            raise ConfigError(
                f"metric {metric_id!r}: unknown key(s) {sorted(unknown)}"
            )
        smoothing = data.get("smoothing", "add-1")
        smooth, smooth_k, min_order = mt.parse_smoothing(str(smoothing))
        if "k" in data:
            smooth_k = float(data["k"])
        if "min_order" in data:
            min_order = int(data["min_order"])
        return mt.BleuConfig(
            max_n=int(data.get("max_n", 4)),
            smoothing=smooth,
            smooth_k=smooth_k,
            smooth_min_order=min_order,
            use_brevity_penalty=_flag(data, "brevity_penalty", True),
            effective_n_truncation=_flag(data, "truncation", True),
        )
    if kind == "chrf":
        unknown = set(data) - known_chrf
        if unknown:
            raise ConfigError(
                f"metric {metric_id!r}: unknown key(s) {sorted(unknown)}"
            )
        return mt.ChrfConfig(
            char_n=int(data.get("char_n", 6)),
            beta=float(data.get("beta", 2.0)),
            include_whitespace=_flag(data, "whitespace", False),
        )
    raise ConfigError(
        f"metric {metric_id!r}: kind must be 'bleu' or 'chrf', got {kind!r}"
    )


def _metric_to_mapping(config) -> dict[str, Any]:
    if isinstance(config, mt.BleuConfig):
        return {
            "kind": "bleu",
            "max_n": config.max_n,
            "smoothing": mt.smoothing_token(config),
            "brevity_penalty": config.use_brevity_penalty,
            "truncation": config.effective_n_truncation,
        }
    return {
        "kind": "chrf",
        "char_n": config.char_n,
        "beta": config.beta,
        "whitespace": config.include_whitespace,
    }


def config_from_mapping(data: Mapping[str, Any]) -> StudyConfig:
    """Build a StudyConfig from a parsed config document.

    Raises:
        ConfigError: unknown keys, missing required keys, or invalid values.
    """
    unknown = set(data) - CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config key(s): {sorted(unknown)}")
    missing = [
        key for key in ("source", "references", "outputs_dir", "judgments")
        if key not in data
    ]
    if missing:
        raise ConfigError(f"missing required config key(s): {missing}")
    refs = data["references"]
    if isinstance(refs, str):
        refs = [refs]
    for key in ("metrics", "assessor_sim"):
        if data.get(key) is not None and not isinstance(data[key], Mapping):
            raise ConfigError(f"config key {key!r} must be a mapping")
    metrics_data = data.get("metrics")
    ext = data.get("external_scores", ())
    if isinstance(ext, str):
        ext = [ext]
    # every conversion below sits in the try, so a wrong type is a
    # ConfigError, never a traceback
    try:
        if metrics_data is None:
            metrics: dict[str, Any] = dict(_DEFAULT_METRICS)
        else:
            metrics = {
                metric_id: _metric_from_mapping(metric_id, metric_conf)
                for metric_id, metric_conf in metrics_data.items()
            }
        seed = int(data.get("seed", 0))
        sim_data = data.get("assessor_sim")
        sim = None
        if sim_data is not None:
            unknown = set(sim_data) - {"i_values", "n_total", "target_r"}
            if unknown:
                raise ConfigError(f"assessor_sim: unknown key(s) {sorted(unknown)}")
            try:
                sim = jd.AssessorSimConfig(
                    i_values=tuple(int(i) for i in sim_data["i_values"]),
                    n_total=int(sim_data["n_total"]),
                    target_r=float(sim_data["target_r"]),
                    shuffle_seed=seed,
                )
            except KeyError as exc:
                raise ConfigError(f"assessor_sim lacks key {exc}") from None
            except ValueError as exc:
                raise ConfigError(f"assessor_sim: {exc}") from None
        return StudyConfig(
            source=str(data["source"]),
            references=tuple(str(r) for r in refs),
            outputs_dir=str(data["outputs_dir"]),
            judgments=str(data["judgments"]),
            language_pair=str(data.get("language_pair", "")),
            metadata=str(data["metadata"]) if data.get("metadata") else None,
            external_scores=tuple(str(p) for p in ext),
            standardize=str(data.get("standardize", jd.ZSCORE)),
            min_count=int(data.get("min_count", 1)),
            metrics=metrics,
            tokenizer=str(data.get("tokenizer", "whitespace")),
            lowercase=_flag(data, "lowercase", False),
            aggregate=str(data.get("aggregate", "mean")),
            alpha=float(data.get("alpha", 0.05)),
            segment_coef=str(data.get("segment_coef", "kendall")),
            system_coef=str(data.get("system_coef", "pearson")),
            bonferroni=_flag(data, "bonferroni", False),
            k=int(data.get("k", 5)),
            min_systems=int(data.get("min_systems", 5)),
            assessor_sim=sim,
            seed=seed,
            out_dir=str(data.get("out_dir", "study-out")),
            format=str(data.get("format", "json")),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid config value: {exc}") from None


def config_to_mapping(config: StudyConfig) -> dict[str, Any]:
    """Canonical echo of a config; feeding it back reproduces the run."""
    out: dict[str, Any] = {
        "source": config.source,
        "references": list(config.references),
        "outputs_dir": config.outputs_dir,
        "judgments": config.judgments,
        "language_pair": config.language_pair,
        "metadata": config.metadata,
        "external_scores": list(config.external_scores),
        "standardize": config.standardize,
        "min_count": config.min_count,
        "metrics": {
            metric_id: _metric_to_mapping(conf)
            for metric_id, conf in sorted(config.metrics.items())
        },
        "tokenizer": config.tokenizer,
        "lowercase": config.lowercase,
        "aggregate": config.aggregate,
        "alpha": config.alpha,
        "segment_coef": config.segment_coef,
        "system_coef": config.system_coef,
        "bonferroni": config.bonferroni,
        "k": config.k,
        "min_systems": config.min_systems,
        "assessor_sim": None,
        "seed": config.seed,
        "out_dir": config.out_dir,
        "format": config.format,
    }
    if config.assessor_sim is not None:
        out["assessor_sim"] = {
            "i_values": list(config.assessor_sim.i_values),
            "n_total": config.assessor_sim.n_total,
            "target_r": config.assessor_sim.target_r,
        }
    return out


def read_config_mapping(path) -> dict[str, Any]:
    """The JSON object in a config file, not yet validated.

    Raises:
        ConfigError: unreadable file, invalid JSON, or not a JSON object.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    return data


def load_config(path) -> StudyConfig:
    """Read and validate a JSON config file.

    Raises:
        ConfigError: unreadable or invalid document.
    """
    return config_from_mapping(read_config_mapping(path))


@dataclass
class ReportBundle:
    """Everything a study produced, ready for emission.

    Skipped analyses leave their slot empty (None or {}) and explain
    themselves in findings; no result is ever silently missing.
    """

    config: StudyConfig
    findings: list[Finding]
    corpus_summary: dict[str, Any]
    worker_count: int
    segment_das: list[jd.SegmentDA]
    system_das: list[jd.SystemDA]
    table: mt.MetricScoreTable
    correlations: list[tuple[str, corr.CorrelationResult]]
    matrix: sg.SignificanceMatrix | None
    winners: tuple[str, ...]
    bins: an.BinAssignment | None
    bin_summaries: dict[str, dict[str, an.BinSummary]]
    failures: dict[str, list[an.FailureCase]]
    groups: dict[str, dict[str, list[an.GroupCorrelation]]]
    agreements: dict[str, an.AgreementReport]
    assessor_curve: jd.AssessorCurve | None


def _check_paths(config: StudyConfig) -> None:
    paths = [config.source, *config.references, config.outputs_dir,
             config.judgments, *config.external_scores]
    if config.metadata:
        paths.append(config.metadata)
    for p in paths:
        # Path("") is the working directory, which exists
        if not p or not Path(p).exists():
            raise ConfigError(f"configured path does not exist: {p!r}")


class StudyDAs(NamedTuple):
    """What load_das makes of the judgments file."""

    raw: jd.Judgments
    worker_count: int
    segment_das: list[jd.SegmentDA]
    system_das: list[jd.SystemDA]
    findings: list[Finding]


def load_corpus(config: StudyConfig) -> cp.EvaluationCorpus:
    """Stage: the test set and system outputs, with metadata when configured.

    Raises:
        DataError: malformed or misaligned inputs.
    """
    test_set = cp.load_testset(config.source, config.references, config.language_pair)
    outputs = cp.load_output_dir(config.outputs_dir, test_set)
    corpus = cp.EvaluationCorpus(test_set, outputs)
    if config.metadata:
        corpus = cp.attach_system_metadata(
            corpus, cp.load_system_metadata(config.metadata)
        )
    return corpus


def load_das(config: StudyConfig) -> StudyDAs:
    """Stage: judgments standardized per worker and averaged into DA scores.

    Raises:
        DataError: malformed judgments.
    """
    raw = jd.load_judgments(config.judgments)
    standardized, worker_stats, findings = jd.standardize_judgments(
        raw, config.standardize
    )
    segment_das, f = jd.segment_da(standardized, config.min_count)
    return StudyDAs(
        raw, len(worker_stats), segment_das, jd.system_da(segment_das),
        [*findings, *f],
    )


def build_table(
    config: StudyConfig, corpus: cp.EvaluationCorpus
) -> mt.MetricScoreTable:
    """Stage: every system scored by the configured metrics, merged in one
    pass with the external score files, which are all read first.

    Raises:
        DataError: a malformed external score file, a metric with two
            provenances, or a score that two sources share.
    """
    table = mt.score_systems(corpus, config.metrics, config.scheme, config.aggregate)
    externals = [
        mt.load_external_metric_scores(path, corpus) for path in config.external_scores
    ]
    return mt.merge_tables(table, *externals)


def system_significance(
    config: StudyConfig, table: mt.MetricScoreTable, system_das: list[jd.SystemDA]
) -> sg.SignificanceMatrix:
    """Stage: Williams tests between every pair of metrics, over the systems
    scored by DA and by every metric.

    Raises:
        StatsError: fewer than 4 such systems, or degenerate correlations.
    """
    by_system = jd.da_system_map(system_das)
    maps = {metric_id: table.system_map(metric_id) for metric_id in table.metric_ids()}
    systems = sorted(set(by_system).intersection(*maps.values()))
    if len(systems) < 4:
        raise InsufficientDataError(
            f"{len(systems)} systems scored by DA and every metric; "
            "the test needs at least 4"
        )
    vectors = {
        metric_id: [scores[s] for s in systems] for metric_id, scores in maps.items()
    }
    return sg.significance_matrix(
        vectors, [by_system[s] for s in systems], config.alpha,
        bonferroni=config.bonferroni,
    )


def run_study(config: StudyConfig) -> ReportBundle:
    """Execute the whole pipeline for one configuration.

    Ingestion and alignment problems raise; downstream analyses whose
    preconditions are not met are skipped, each leaving an error-severity
    finding that names the analysis and the reason.

    Raises:
        ConfigError: a configured path is missing.
        DataError: malformed or misaligned inputs.
    """
    _check_paths(config)
    findings: list[Finding] = []
    corpus = load_corpus(config)
    findings.extend(
        cp.validate_corpus(corpus, cp.ValidationPolicy(config.min_systems))
    )
    das = load_das(config)
    findings.extend(das.findings)
    segment_das, system_das = das.segment_das, das.system_das
    table = build_table(config, corpus)

    correlations: list[tuple[str, corr.CorrelationResult]] = []
    for metric_id in table.metric_ids():
        for level, kind, fn in (
            ("segment", config.segment_coef, corr.segment_correlation),
            ("system", config.system_coef, corr.system_correlation),
        ):
            points = segment_das if level == "segment" else system_das
            try:
                result, f = fn(table, points, metric_id, kind)
            except (StatsError, DataError) as exc:
                findings.append(
                    error(
                        f"{level} correlation for {metric_id!r} skipped: {exc}",
                        code="correlation-skipped",
                    )
                )
                continue
            findings.extend(f)
            correlations.append((metric_id, result))

    matrix = None
    winners: tuple[str, ...] = ()
    try:
        matrix = system_significance(config, table, system_das)
        winners = sg.winner_set(matrix)
    except (StatsError, ValueError) as exc:
        findings.append(
            error(
                f"significance matrix skipped: {exc}", code="significance-skipped"
            )
        )

    bins = None
    bin_summaries: dict[str, dict[str, an.BinSummary]] = {}
    failures: dict[str, list[an.FailureCase]] = {}
    try:
        bins = an.tertile_bins(segment_das)
    except InsufficientDataError as exc:
        findings.append(error(f"binning skipped: {exc}", code="bins-skipped"))
    if bins is not None:
        for metric_id in table.metric_ids():
            try:
                bin_summaries[metric_id] = an.conditional_distribution(
                    table, metric_id, bins
                )
                cases, f = an.failure_cases(corpus, table, metric_id, bins, config.k)
            except DataError as exc:
                findings.append(
                    error(
                        f"bin analyses for {metric_id!r} skipped: {exc}",
                        code="bins-skipped",
                    )
                )
                continue
            findings.extend(f)
            failures[metric_id] = cases

    groups: dict[str, dict[str, list[an.GroupCorrelation]]] = {}
    agreements: dict[str, an.AgreementReport] = {}
    for metric_id in table.metric_ids():
        per_field: dict[str, list[an.GroupCorrelation]] = {}
        for group_by in an.GROUP_FIELDS:
            try:
                rows, f = an.grouped_correlation(
                    system_das, table, metric_id, corpus.meta, group_by,
                    config.system_coef,
                )
            except DataError as exc:
                findings.append(
                    error(
                        f"grouped correlation for {metric_id!r} by {group_by} "
                        f"skipped: {exc}",
                        code="groups-skipped",
                    )
                )
                continue
            findings.extend(f)
            per_field[group_by] = rows
        if per_field:
            groups[metric_id] = per_field
        try:
            agreements[metric_id] = an.kendall_agreement_report(
                system_das, table, metric_id
            )
        except (StatsError, DataError) as exc:
            findings.append(
                error(
                    f"agreement report for {metric_id!r} skipped: {exc}",
                    code="agreement-skipped",
                )
            )

    curve = None
    if config.assessor_sim is not None:
        try:
            curve = jd.simulate_assessor_count(das.raw, config.assessor_sim)
        except (StatsError, UndefinedCorrelationError) as exc:
            findings.append(
                error(
                    f"assessor simulation skipped: {exc}", code="simulation-skipped"
                )
            )

    summary = {
        "language_pair": corpus.test_set.language_pair,
        "n_segments": len(corpus.test_set),
        "n_systems": len(corpus.outputs),
        "systems": corpus.system_ids(),
        "systems_with_metadata": sorted(corpus.meta),
    }
    return ReportBundle(
        config=config,
        findings=findings,
        corpus_summary=summary,
        worker_count=das.worker_count,
        segment_das=segment_das,
        system_das=system_das,
        table=table,
        correlations=correlations,
        matrix=matrix,
        winners=winners,
        bins=bins,
        bin_summaries=bin_summaries,
        failures=failures,
        groups=groups,
        agreements=agreements,
        assessor_curve=curve,
    )


def _matrix_to_dict(matrix: sg.SignificanceMatrix | None) -> dict[str, Any]:
    if matrix is None:
        return {}
    return {
        "metrics": list(matrix.metric_ids),
        "correlations": {m: matrix.correlations[m] for m in matrix.metric_ids},
        "p": [[i, j, matrix.p[(i, j)]] for i, j in sorted(matrix.p)],
        "n": matrix.n,
        "alpha": matrix.alpha,
        "effective_alpha": matrix.effective_alpha,
        "bonferroni": matrix.bonferroni,
    }


def bundle_to_dict(bundle: ReportBundle) -> dict[str, Any]:
    """Canonical JSON-ready form of a bundle; every key always present.

    The config echo drops out_dir and format: the report's content must not
    depend on where it is being written.
    """
    bins, table = bundle.bins, bundle.table
    config_echo = config_to_mapping(bundle.config)
    del config_echo["out_dir"], config_echo["format"]
    return {
        "provenance": {
            "config": config_echo,
            "seed": bundle.config.seed,
            "standardize": bundle.config.standardize,
            "signatures": {m: table[m].provenance for m in table.metric_ids()},
        },
        "corpus": bundle.corpus_summary,
        "worker_count": bundle.worker_count,
        "findings": [
            {"severity": f.severity, "code": f.code, "message": f.message}
            for f in bundle.findings
        ],
        "segment_da": [
            [d.system_id, d.segment_id, d.da_score, d.judgment_count]
            for d in bundle.segment_das
        ],
        "system_da": [
            [d.system_id, d.da_score, d.segment_count] for d in bundle.system_das
        ],
        "scores": {
            level: [list(row) for row in table.rows(level)]
            for level in ("segment", "system")
        },
        "correlations": [
            {
                "metric": metric_id,
                "kind": r.kind,
                "level": r.level,
                "scope": r.scope,
                "n": r.n,
                "value": r.value,
            }
            for metric_id, r in bundle.correlations
        ],
        "significance": _matrix_to_dict(bundle.matrix),
        "winners": list(bundle.winners),
        "bins": {
            "boundaries": list(bins.boundaries) if bins else [],
            "points": [
                [s, i, bins.da_scores[(s, i)], bins.membership[(s, i)]]
                for s, i in sorted(bins.membership)
            ]
            if bins
            else [],
        },
        "bin_summaries": {
            metric_id: {
                label: {
                    "count": b.count,
                    "mean": b.mean,
                    "q1": b.q1,
                    "median": b.median,
                    "q3": b.q3,
                    "min": b.min,
                    "max": b.max,
                    "values": list(b.values),
                }
                for label, b in sorted(summaries.items())
            }
            for metric_id, summaries in sorted(bundle.bin_summaries.items())
        },
        "failures": {
            metric_id: json.loads(an.failures_to_json(cases))
            for metric_id, cases in sorted(bundle.failures.items())
        },
        "groups": {
            metric_id: {
                group_by: [
                    {
                        "group": g.group,
                        "kind": g.result.kind if g.result else "",
                        "n_systems": g.n_systems,
                        "value": g.result.value if g.result else None,
                        "flag": g.flag,
                    }
                    for g in rows
                ]
                for group_by, rows in sorted(per_field.items())
            }
            for metric_id, per_field in sorted(bundle.groups.items())
        },
        "agreements": {
            metric_id: {
                "tau": a.tau,
                "concordant": a.concordant,
                "discordant": a.discordant,
                "n_systems": a.n_systems,
                "interpretation": a.interpretation,
                "note": a.note,
            }
            for metric_id, a in sorted(bundle.agreements.items())
        },
        "assessor_curve": {
            "points": [[i, r] for i, r in bundle.assessor_curve.points],
            "recommended": bundle.assessor_curve.recommended,
            "n_items": bundle.assessor_curve.n_items,
            "n_total": bundle.assessor_curve.n_total,
            "target_r": bundle.assessor_curve.target_r,
        }
        if bundle.assessor_curve
        else {},
    }


def _slug(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]+", "_", name)


def render_report(bundle: ReportBundle, format: str) -> str:
    """The json or text report as one document, as emit_report writes it.

    Raises:
        ConfigError: a format that is not one document.
    """
    if format == "json":
        doc = json.dumps(
            bundle_to_dict(bundle), indent=2, sort_keys=True, ensure_ascii=False
        )
        return doc + "\n"
    if format == "text":
        return _bundle_text(bundle)
    raise ConfigError(f"format {format!r} is not a single document")


def _bundle_text(bundle: ReportBundle) -> str:
    lines = []
    summary = bundle.corpus_summary
    lines.append(
        f"study: {summary['language_pair'] or '(unnamed pair)'} | "
        f"{summary['n_systems']} systems | {summary['n_segments']} segments | "
        f"seed {bundle.config.seed}"
    )
    lines.append("")
    if bundle.findings:
        lines.append("findings:")
        for f in bundle.findings:
            code = f" [{f.code}]" if f.code else ""
            lines.append(f"  {f.severity}{code}: {f.message}")
        lines.append("")
    lines.append("correlations (metric, kind, level, n, value):")
    for metric_id, r in bundle.correlations:
        lines.append(f"  {metric_id}  {r.kind}  {r.level}  n={r.n}  {r.value:+.4f}")
    lines.append("")
    if bundle.matrix is not None:
        lines.append(
            f"significance grid (alpha={bundle.matrix.effective_alpha:g}, "
            f"n={bundle.matrix.n}; '*' = row beats column):"
        )
        lines.append(sg.matrix_to_text(bundle.matrix).rstrip("\n"))
        lines.append(f"winners: {json.dumps(list(bundle.winners))}")
        lines.append("")
    if bundle.bins is not None:
        low, high = bundle.bins.boundaries
        lines.append(f"DA tertile boundaries: {low:.4f}, {high:.4f}")
        for metric_id, summaries in sorted(bundle.bin_summaries.items()):
            parts = [
                f"{label}: median {summaries[label].median:.4f}"
                for label in an.BIN_LABELS
            ]
            lines.append(f"  {metric_id} per-bin medians | " + " | ".join(parts))
        lines.append("")
    for metric_id, a in sorted(bundle.agreements.items()):
        lines.append(f"agreement [{metric_id}]: tau={a.tau:.4f}; {a.interpretation}")
    if bundle.agreements:
        lines.append("")
    if bundle.assessor_curve is not None:
        points = ", ".join(f"r({i})={r:.4f}" for i, r in bundle.assessor_curve.points)
        rec = bundle.assessor_curve.recommended
        lines.append(
            f"assessor simulation: {points}; recommended i = "
            f"{rec if rec is not None else 'none'}"
        )
        lines.append("")
    return "\n".join(lines).rstrip("\n") + "\n"


def _csv_quoted_last(header: str, rows: Iterable[list]) -> str:
    """CSV with CRLF line ends whose last field, free text, is always quoted."""
    out = io.StringIO()
    out.write(header + "\r\n")
    # two writers share the buffer: the leading fields are quoted only when
    # they need it, the free-text field always
    lead = csv.writer(out, lineterminator=",")
    text = csv.writer(out, lineterminator="\r\n", quoting=csv.QUOTE_ALL)
    for *fields, last in rows:
        lead.writerow(fields)
        text.writerow([last])
    return out.getvalue()


def emit_report(
    bundle: ReportBundle, format: str, out_dir: str | Path
) -> list[Path]:
    """Write a bundle to disk; returns the files written.

    json writes a single report.json; csv-dir writes one file per table and
    a manifest.json enumerating them; text writes report.txt.

    Raises:
        ConfigError: unknown format.
    """
    if format not in FORMATS:
        raise ConfigError(f"unknown format {format!r}; expected one of {FORMATS}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    def _write(name: str, content: str) -> None:
        path = out / name
        path.write_text(content, encoding="utf-8")
        written.append(path)

    if format != "csv-dir":
        name = "report.txt" if format == "text" else "report.json"
        _write(name, render_report(bundle, format))
        return written

    data = bundle_to_dict(bundle)
    _write(
        "provenance.json",
        json.dumps(data["provenance"], indent=2, sort_keys=True, ensure_ascii=False)
        + "\n",
    )
    findings = ([f.severity, f.code, f.message] for f in bundle.findings)
    _write("findings.csv", _csv_quoted_last("severity,code,message", findings))
    _write("segment_da.tsv", jd.segment_da_to_tsv(bundle.segment_das))
    _write("system_da.tsv", jd.system_da_to_tsv(bundle.system_das))
    _write("scores.tsv", mt.dump_scores(bundle.table))
    _write("correlations.csv", corr.correlations_to_csv(bundle.correlations))
    if bundle.matrix is not None:
        _write("significance.csv", sg.matrix_to_csv(bundle.matrix))
        _write("significance.txt", sg.matrix_to_text(bundle.matrix))
    _write("winners.json", json.dumps(list(bundle.winners)) + "\n")
    if bundle.bins is not None:
        for metric_id in bundle.table.metric_ids():
            _write(
                f"bins_{_slug(metric_id)}.csv",
                an.bins_to_csv(bundle.bins, bundle.table, metric_id),
            )
    for metric_id, cases in sorted(bundle.failures.items()):
        _write(f"failures_{_slug(metric_id)}.json", an.failures_to_json(cases))
    for metric_id, per_field in sorted(bundle.groups.items()):
        for group_by, rows in sorted(per_field.items()):
            _write(
                f"groups_{_slug(metric_id)}_{group_by}.csv", an.groups_to_csv(rows)
            )
    if bundle.agreements:
        agreements = (
            [m, repr(a.tau), a.concordant, a.discordant, a.n_systems, a.interpretation]
            for m, a in sorted(bundle.agreements.items())
        )
        header = "metric,tau,concordant,discordant,n_systems,interpretation"
        _write("agreement.csv", _csv_quoted_last(header, agreements))
    if bundle.assessor_curve is not None:
        curve_lines = ["i\tr"]
        for i, r in bundle.assessor_curve.points:
            curve_lines.append(f"{i}\t{r!r}")
        rec = bundle.assessor_curve.recommended
        curve_lines.append(f"# recommended\t{rec if rec is not None else 'none'}")
        _write("assessor_curve.tsv", "\n".join(curve_lines) + "\n")
    manifest = json.dumps(sorted(p.name for p in written), indent=2) + "\n"
    manifest_path = out / "manifest.json"
    manifest_path.write_text(manifest, encoding="utf-8")
    written.append(manifest_path)
    return written
